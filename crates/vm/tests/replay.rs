//! Compiled segment programs: compilation, observation and
//! cancellation — the policy around the replay routine whose
//! *semantics* are pinned by `differential.rs`.

use pgr_bytecode::asm::assemble;
use pgr_bytecode::{Opcode, Procedure, Program};
use pgr_core::{train, TrainConfig, Trained};
use pgr_grammar::{Grammar, Nt, RuleOrigin, Symbol};
use pgr_telemetry::{CancelToken, Recorder};
use pgr_vm::{RunResult, Tier2Stats, Vm, VmConfig, VmError};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

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
        "uncached runs compile nothing"
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

#[test]
fn a_hot_segment_past_a_full_cache_takes_a_cold_entry() {
    // A one-entry cache fills with the prologue, which is never visited
    // again. Once execution has paid for the decode, the loop head
    // evicts it and serves every later iteration; the loop body, which
    // misses while the head is hot, runs uncached.
    let program = compressed(LOOP);
    let config = VmConfig {
        segment_cache_entries: 1,
        ..VmConfig::default()
    };
    let (result, stats) = run(&program, config);
    let (reference, _) = run(
        &program,
        VmConfig {
            reference_walker: true,
            ..VmConfig::default()
        },
    );
    assert_eq!(result.unwrap(), reference.unwrap());
    assert_eq!(stats.compiled, 2, "{stats:?}");
    assert!(stats.hits >= 20, "the loop head was not cached: {stats:?}");
}

/// Every compressed path: the default, the cache off, and the reference
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

/// A grammar whose `<start>` rule is `JUMPV <byte> <byte> <rest>`, with
/// `<rest> ::= LIT1 <byte> POPU <rest> | ε`, and a program over it: two
/// segments that jump to each other before a tail of `tail` more
/// statements each. A visit burns 2 fuel, while a segment's whole
/// derivation is about `3 * tail` iterations long.
fn jumps_over_tails(tail: usize) -> (Grammar, Nt, Nt, Program) {
    let o = RuleOrigin::Original;
    let mut g = Grammar::new();
    let start = g.add_nt("start");
    let byte = g.add_nt("byte");
    let rest = g.add_nt("rest");
    for b in 0..=255u8 {
        g.add_rule(byte, vec![Symbol::byte(b)], o);
    }
    let jump = vec![
        Symbol::op(Opcode::JUMPV),
        Symbol::N(byte),
        Symbol::N(byte),
        Symbol::N(rest),
    ];
    g.add_rule(start, jump, o);
    let stmt = vec![
        Symbol::op(Opcode::LIT1),
        Symbol::N(byte),
        Symbol::op(Opcode::POPU),
        Symbol::N(rest),
    ];
    g.add_rule(rest, stmt, o);
    g.add_rule(rest, Vec::new(), o);
    let mut main = Procedure::new("main");
    for target in [1, 0] {
        main.labels.push(main.code.len() as u32);
        main.code.extend([0, target, 0]);
        for i in 0..tail {
            main.code.extend([0, i as u8]);
        }
        main.code.push(1);
    }
    let mut program = Program::new();
    program.procs.push(main);
    (g, start, byte, program)
}

#[test]
fn uncached_decoding_stays_within_what_execution_pays() {
    // With a one-entry cache each visit misses, and with the cache off
    // every one does. Decoding a whole segment on each visit would take
    // about 30,000 iterations per 2 fuel: hours for this fuel, and
    // minutes between two cancellation polls.
    let (g, start, byte, program) = jumps_over_tails(10_000);
    for segment_cache_entries in [1, 0] {
        let run = |fuel: u64, cancel: CancelToken| {
            let config = VmConfig {
                fuel,
                segment_cache_entries,
                cancel,
                ..VmConfig::default()
            };
            let mut vm = Vm::new_compressed(&program, &g, start, byte, config).unwrap();
            let t0 = Instant::now();
            let result = vm.run();
            (result, t0.elapsed(), vm.tier2_stats())
        };
        let (result, took, stats) = run(400_000, CancelToken::never());
        assert_eq!(
            result,
            Err(VmError::OutOfFuel),
            "cache {segment_cache_entries}"
        );
        assert!(
            took < Duration::from_secs(5),
            "cache {segment_cache_entries}: 400,000 fuel took {took:?}"
        );
        // Whole decodes, about 30,000 iterations each, never outrun the
        // fuel burnt.
        assert!(stats.compiled <= 400_000 / 30_000 + 1, "{stats:?}");

        let deadline = CancelToken::with_deadline(Duration::from_millis(50));
        let (result, took, _) = run(u64::MAX, deadline);
        assert!(
            matches!(result, Err(VmError::Cancelled { .. })),
            "cache {segment_cache_entries}: {result:?}"
        );
        assert!(
            took < Duration::from_secs(5),
            "cache {segment_cache_entries}: a 50 ms deadline stopped the run after {took:?}"
        );
    }
}
