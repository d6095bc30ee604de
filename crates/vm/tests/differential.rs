//! Differential testing of the compressed-interpreter fast path.
//!
//! The precompiled-rule-program walker (with its compiled segment
//! programs, with a one-entry segment cache, and with the cache off)
//! must be *byte-identical* to the reference grammar walker: same
//! `RunResult` (return value, output, exit code, **step count**), same
//! operator trace, and the same `vm.*` telemetry. Every configuration
//! runs twice, instrumented (recorder plus `trace_limit`) and quiet, and
//! both must compile and replay the same segment programs. These
//! proptests drive the matrix over parameterized program shapes (loops —
//! the segment-cache hot case —, recursion, straight line), over fuel
//! exhaustion at arbitrary points, and over completely arbitrary
//! derivation streams, asserting exact agreement every time.
//!
//! One documented exception (DESIGN.md §5e): when a run dies of fuel
//! exhaustion, `vm.rules_walked`/`vm.walk_depth_peak` may undercount on
//! the fast path by the partially-replayed window, so those two keys are
//! compared only for runs that do not hit `OutOfFuel`.

use pgr_bytecode::asm::assemble;
use pgr_bytecode::Program;
use pgr_core::{train, TrainConfig, Trained};
use pgr_telemetry::{Metrics, Recorder};
use pgr_vm::{RunResult, Vm, VmConfig, VmError};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Counting loop: `for (i = 0; i < n; i++) sum += c; return sum`. The
/// loop back-edge re-enters the same segment, so the decoded-segment
/// cache replays it `n - 1` times, including the final divergent
/// (fall-through) iteration.
fn loop_src(n: u8, c: u8) -> String {
    format!(
        "proc main frame=16 args=0\n\
         \tLIT1 0\n\tADDRLP 0\n\tASGNU\n\
         \tLIT1 0\n\tADDRLP 8\n\tASGNU\n\
         \tlabel 0\n\
         \tADDRLP 0\n\tINDIRU\n\tLIT1 {n}\n\tLTI\n\tBrTrue 1\n\
         \tJUMPV 2\n\
         \tlabel 1\n\
         \tADDRLP 8\n\tINDIRU\n\tLIT1 {c}\n\tADDU\n\tADDRLP 8\n\tASGNU\n\
         \tADDRLP 0\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP 0\n\tASGNU\n\
         \tJUMPV 0\n\
         \tlabel 2\n\
         \tADDRLP 8\n\tINDIRU\n\tRETU\n\
         endproc\nentry main\n"
    )
}

/// Recursive fib(n): procedure calls nest inside cached segments, so
/// replays interleave with callee fuel consumption.
fn fib_src(n: u8) -> String {
    format!(
        "proc main frame=0 args=0\n\
         \tLIT1 {n}\n\tARGU\n\tLocalCALLU 1\n\tRETU\n\
         endproc\n\
         proc fib frame=8 args=4\n\
         \tADDRFP 0\n\tINDIRU\n\tLIT1 2\n\tLTI\n\tBrTrue 0\n\
         \tADDRFP 0\n\tINDIRU\n\tLIT1 1\n\tSUBU\n\tARGU\n\tLocalCALLU 1\n\
         \tADDRLP 0\n\tASGNU\n\
         \tADDRFP 0\n\tINDIRU\n\tLIT1 2\n\tSUBU\n\tARGU\n\tLocalCALLU 1\n\
         \tADDRLP 0\n\tINDIRU\n\tADDU\n\tRETU\n\
         \tlabel 0\n\
         \tADDRFP 0\n\tINDIRU\n\tRETU\n\
         endproc\nentry main\n"
    )
}

/// Counting loop whose body adds `c` through a call, and only on odd
/// `i`: on even `i` the body's first segment branches out, on odd `i`
/// it makes the call and falls through into the next label, so replays
/// of a call-carrying segment leave both ways.
fn branchy_src(n: u8, c: u8) -> String {
    format!(
        "proc main frame=16 args=0\n\
         \tLIT1 0\n\tADDRLP 0\n\tASGNU\n\
         \tLIT1 0\n\tADDRLP 8\n\tASGNU\n\
         \tlabel 0\n\
         \tADDRLP 0\n\tINDIRU\n\tLIT1 {n}\n\tLTI\n\tBrTrue 1\n\
         \tJUMPV 2\n\
         \tlabel 1\n\
         \tADDRLP 0\n\tINDIRU\n\tLIT1 1\n\tBANDU\n\tLIT1 0\n\tEQU\n\tBrTrue 3\n\
         \tADDRLP 8\n\tINDIRU\n\tARGU\n\tLIT1 {c}\n\tARGU\n\tLocalCALLU 1\n\
         \tADDRLP 8\n\tASGNU\n\
         \tlabel 3\n\
         \tADDRLP 0\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP 0\n\tASGNU\n\
         \tJUMPV 0\n\
         \tlabel 2\n\
         \tADDRLP 8\n\tINDIRU\n\tRETU\n\
         endproc\n\
         proc add frame=0 args=8\n\
         \tADDRFP 0\n\tINDIRU\n\tADDRFP 4\n\tINDIRU\n\tADDU\n\tRETU\n\
         endproc\nentry main\n"
    )
}

/// Straight-line arithmetic over two random constants (divisor forced
/// non-zero).
fn arith_src(a: u8, b: u8) -> String {
    let d = b | 1;
    format!(
        "proc main frame=0 args=0\n\
         \tLIT1 {a}\n\tLIT1 {b}\n\tMULI\n\tLIT1 {a}\n\tADDU\n\tLIT1 {d}\n\tDIVI\n\
         \tLIT1 {b}\n\tBXORU\n\tRETU\n\
         endproc\nentry main\n"
    )
}

/// One grammar for the whole suite, trained on a representative program
/// mix; every generated variant is compressed against it (the expanded
/// grammar retains the initial rules, so everything parses).
fn trained() -> &'static Trained {
    static T: OnceLock<Trained> = OnceLock::new();
    T.get_or_init(|| {
        let srcs = [loop_src(10, 3), fib_src(8), arith_src(5, 9)];
        let programs: Vec<_> = srcs.iter().map(|s| assemble(s).unwrap()).collect();
        let refs: Vec<_> = programs.iter().collect();
        train(&refs, &TrainConfig::default()).unwrap()
    })
}

/// The `vm.*` telemetry view both paths must agree on: fast-path-only
/// families (`vm.segment_cache.*`, `vm.ruleprog.*`, `vm.tier2.*`) are
/// excluded, and the two walk gauges are excluded for fuel-exhausted
/// runs (see the module docs).
fn vm_view(m: &Metrics, exact_walk: bool) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let keep = |k: &str| {
        k.starts_with("vm.")
            && !k.starts_with("vm.segment_cache.")
            && !k.starts_with("vm.ruleprog.")
            && !k.starts_with("vm.tier2.")
            && (exact_walk || (k != "vm.rules_walked" && k != "vm.walk_depth_peak"))
    };
    (
        m.counters()
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, &v)| (k.clone(), v))
            .collect(),
        m.gauges()
            .iter()
            .filter(|(k, _)| keep(k))
            .map(|(k, &v)| (k.clone(), v))
            .collect(),
    )
}

/// The configurations both halves of the matrix drive, as
/// `(reference_walker, segment_cache_entries)` rows: the default, a
/// one-entry segment cache (later segments are walked every time), the
/// cache off (walk only), and the reference walker, which comes last
/// and is the spec.
const CONFIGS: [(bool, usize); 4] = [(false, 1024), (false, 1), (false, 0), (true, 0)];

/// Run `program` (the compressed image) under every configuration,
/// instrumented and quiet, and assert that each agrees with the
/// reference walker: results, step counts, operator traces and the
/// `vm_view` telemetry, and that an instrumented run compiles and
/// replays the same segment programs as its quiet twin. Returns the
/// reference walker's quiet outcome.
fn agree(program: &Program, fuel: u64) -> Result<Result<RunResult, VmError>, TestCaseError> {
    let trained = trained();
    let ig = trained.initial();
    let run = |(reference_walker, segment_cache_entries): (bool, usize), observed: bool| {
        let recorder = if observed {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let config = VmConfig {
            fuel,
            trace_limit: if observed { 1 << 16 } else { 0 },
            recorder: recorder.clone(),
            reference_walker,
            segment_cache_entries,
            ..VmConfig::default()
        };
        let mut vm =
            Vm::new_compressed(program, trained.expanded(), ig.nt_start, ig.nt_byte, config)
                .unwrap();
        let result = vm.run();
        (result, recorder.snapshot(), vm.tier2_stats())
    };
    let (spec, spec_metrics, _) = run(CONFIGS[3], true);
    let (spec_quiet, _, _) = run(CONFIGS[3], false);
    let exact_walk = !matches!(spec, Err(VmError::OutOfFuel));
    let key = |r: &Result<RunResult, VmError>| {
        r.as_ref()
            .map(|x| (x.steps, x.ret, x.output.clone(), x.exit_code))
            .map_err(Clone::clone)
    };
    prop_assert_eq!(key(&spec), key(&spec_quiet));
    for config in &CONFIGS[..3] {
        let (observed, metrics, observed_stats) = run(*config, true);
        let (quiet, _, quiet_stats) = run(*config, false);
        // Each comparison carries the configuration, so a failure names it.
        prop_assert_eq!((config, &spec), (config, &observed));
        prop_assert_eq!(
            (config, vm_view(&spec_metrics, exact_walk)),
            (config, vm_view(&metrics, exact_walk))
        );
        prop_assert_eq!((config, &spec_quiet), (config, &quiet));
        prop_assert_eq!((config, observed_stats), (config, quiet_stats));
        prop_assert_eq!(observed_stats.deopts, 0);
    }
    Ok(spec_quiet)
}

/// Compress `src` once and run it through the whole matrix.
fn differential(src: &str, fuel: u64) -> Result<(), TestCaseError> {
    let program = assemble(src).unwrap();
    let (cp, _) = trained().compress(&program).unwrap();
    agree(&cp.program, fuel).map(drop)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn loops_are_path_identical(n in 0u8..32, c in 0u8..=255) {
        differential(&loop_src(n, c), 200_000_000)?;
    }

    #[test]
    fn recursion_is_path_identical(n in 0u8..11) {
        differential(&fib_src(n), 200_000_000)?;
    }

    #[test]
    fn straight_line_is_path_identical(a in 0u8..=255, b in 0u8..=255) {
        differential(&arith_src(a, b), 200_000_000)?;
    }

    #[test]
    fn fall_through_replays_are_path_identical(n in 0u8..32, c in 0u8..=255, fuel in 1u64..3_000) {
        differential(&branchy_src(n, c), 200_000_000)?;
        differential(&branchy_src(n, c), fuel)?;
    }

    #[test]
    fn fuel_exhaustion_is_path_identical(n in 1u8..16, fuel in 1u64..2_000) {
        // Dying at an arbitrary point — mid-segment, mid-replay, inside
        // a call — must stop both paths at the identical step count.
        differential(&loop_src(n, 1), fuel)?;
    }

    #[test]
    fn recursion_fuel_exhaustion_is_path_identical(fuel in 1u64..3_000) {
        differential(&fib_src(10), fuel)?;
    }

    #[test]
    fn corrupt_streams_never_panic_and_paths_agree(
        bytes in prop::collection::vec(any::<u8>(), 0..120),
    ) {
        // Arbitrary byte streams as the compressed code of the entry
        // procedure: every path must terminate within the fuel limit
        // with the *same* outcome — a clean `VmError` with identical
        // offset and detail, or (for the rare stream that happens to be
        // a valid derivation reaching a return) the same clean result —
        // and, observed, the same trace and telemetry. Streams that loop
        // exercise the compiled programs' side exits under observation.
        let mut program = Program::new();
        let mut proc = pgr_bytecode::Procedure::new("fuzz");
        proc.code = bytes;
        proc.frame_size = 64;
        program.procs.push(proc);
        if let Ok(r) = agree(&program, 50_000)? {
            prop_assert!(r.steps <= 50_000);
        }
    }
}
