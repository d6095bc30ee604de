//! Compiled segment programs: compilation, observation and
//! cancellation — the policy around the replay routine whose
//! *semantics* are pinned by `differential.rs`.

use pgr_bytecode::asm::assemble;
use pgr_bytecode::Program;
use pgr_core::{train, TrainConfig, Trained};
use pgr_telemetry::{CancelToken, Recorder};
use pgr_vm::{RunResult, Tier2Stats, Vm, VmConfig, VmError};
use std::sync::OnceLock;
use std::time::Duration;

/// Counting loop: `for (i = 0; i < 24; i++) sum += 7; return sum`. Two
/// distinct hot segments (the loop head and the loop body) replay every
/// iteration.
const LOOP: &str = "proc main frame=16 args=0\n\
     \tLIT1 0\n\tADDRLP 0\n\tASGNU\n\
     \tLIT1 0\n\tADDRLP 8\n\tASGNU\n\
     \tlabel 0\n\
     \tADDRLP 0\n\tINDIRU\n\tLIT1 24\n\tLTI\n\tBrTrue 1\n\
     \tJUMPV 2\n\
     \tlabel 1\n\
     \tADDRLP 8\n\tINDIRU\n\tLIT1 7\n\tADDU\n\tADDRLP 8\n\tASGNU\n\
     \tADDRLP 0\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP 0\n\tASGNU\n\
     \tJUMPV 0\n\
     \tlabel 2\n\
     \tADDRLP 8\n\tINDIRU\n\tRETU\n\
     endproc\nentry main\n";

/// A loop that never ends: only fuel or cancellation stops it.
const SPIN: &str = "proc main frame=8 args=0\n\
     \tlabel 0\n\
     \tADDRLP 0\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP 0\n\tASGNU\n\
     \tJUMPV 0\n\
     \tRETV\n\
     endproc\nentry main\n";

fn trained() -> &'static Trained {
    static T: OnceLock<Trained> = OnceLock::new();
    T.get_or_init(|| {
        let programs = [assemble(LOOP).unwrap(), assemble(SPIN).unwrap()];
        train(&[&programs[0], &programs[1]], &TrainConfig::default()).unwrap()
    })
}

/// Compress `src` against the shared grammar.
fn compressed(src: &str) -> Program {
    let (cp, _) = trained().compress(&assemble(src).unwrap()).unwrap();
    cp.program
}

/// Run a compressed image under `config` and return the outcome plus
/// the segment-program stats.
fn run(program: &Program, config: VmConfig) -> (Result<RunResult, VmError>, Tier2Stats) {
    let trained = trained();
    let ig = trained.initial();
    let mut vm =
        Vm::new_compressed(program, trained.expanded(), ig.nt_start, ig.nt_byte, config).unwrap();
    let result = vm.run();
    (result, vm.tier2_stats())
}

#[test]
fn recorded_segments_compile_and_replay() {
    let program = compressed(LOOP);
    let (reference, zeros) = run(
        &program,
        VmConfig {
            segment_cache_entries: 0,
            ..VmConfig::default()
        },
    );
    assert_eq!(
        zeros,
        Tier2Stats::default(),
        "walk-only runs compile nothing"
    );

    let (fused, stats) = run(&program, VmConfig::default());
    assert!(stats.compiled >= 2, "both loop segments should compile");
    assert!(stats.fused_ops >= 1);
    assert!(stats.hits >= 23, "every later iteration replays");
    assert_eq!(stats.deopts, 0);
    assert_eq!(fused.unwrap(), reference.unwrap());
}

#[test]
fn observation_runs_the_same_programs() {
    // Recorder off, recorder on, and tracing: the same programs compile
    // and serve the same replays, and nothing deoptimizes.
    let program = compressed(LOOP);
    let (quiet, quiet_stats) = run(&program, VmConfig::default());
    let quiet = quiet.unwrap();

    let recorder = Recorder::new();
    let (recorded, recorded_stats) = run(
        &program,
        VmConfig {
            recorder: recorder.clone(),
            ..VmConfig::default()
        },
    );
    let (traced, traced_stats) = run(
        &program,
        VmConfig {
            trace_limit: 1 << 12,
            ..VmConfig::default()
        },
    );
    for stats in [recorded_stats, traced_stats] {
        assert_eq!(stats.compiled, quiet_stats.compiled);
        assert_eq!(stats.hits, quiet_stats.hits);
        assert_eq!(stats.deopts, 0);
    }
    assert_eq!(recorded.unwrap(), quiet);
    let traced = traced.unwrap();
    assert!(!traced.trace.is_empty());
    assert_eq!(
        RunResult {
            trace: Vec::new(),
            ..traced
        },
        quiet
    );

    let m = recorder.snapshot();
    assert_eq!(
        m.counters().get("vm.tier2.compiled"),
        Some(&quiet_stats.compiled)
    );
    assert_eq!(
        m.counters().get("vm.tier2.fused_ops"),
        Some(&quiet_stats.fused_ops)
    );
    assert_eq!(
        m.counters().get("vm.segment_cache.hits"),
        Some(&quiet_stats.hits)
    );
    assert_eq!(m.counters().get("vm.tier2.deopts"), None);
}

/// Every compressed path: the default, walk only, and the reference
/// walker.
const PATHS: [(bool, usize); 3] = [(false, 1024), (false, 0), (true, 0)];

#[test]
fn cancelled_token_stops_a_spinning_loop_on_every_path() {
    let program = compressed(SPIN);
    for (reference_walker, segment_cache_entries) in PATHS {
        let cancel = CancelToken::new();
        cancel.cancel();
        let (result, _) = run(
            &program,
            VmConfig {
                reference_walker,
                segment_cache_entries,
                cancel,
                ..VmConfig::default()
            },
        );
        assert!(
            matches!(result, Err(VmError::Cancelled { .. })),
            "reference_walker {reference_walker}, cache {segment_cache_entries}: {result:?}"
        );
    }
}

#[test]
fn distant_deadline_changes_nothing() {
    let program = compressed(LOOP);
    for (reference_walker, segment_cache_entries) in PATHS {
        let config = VmConfig {
            reference_walker,
            segment_cache_entries,
            ..VmConfig::default()
        };
        let (free, _) = run(&program, config.clone());
        let (armed, _) = run(
            &program,
            VmConfig {
                cancel: CancelToken::with_deadline(Duration::from_secs(3600)),
                ..config
            },
        );
        assert_eq!(armed.unwrap(), free.unwrap());
    }
}
