//! Differential testing of the compressed-interpreter fast path.
//!
//! The compiled segment programs (cached and fused by default, with a
//! one-entry segment cache, and with the cache off, where every visit
//! decodes and runs step by step) must be *byte-identical* to the
//! reference grammar walker: same `RunResult` (return value, output,
//! exit code, **step count**), same operator trace, and the same `vm.*`
//! telemetry. Every configuration runs twice, instrumented (recorder
//! plus `trace_limit`) and quiet, and both must compile and replay the
//! same segment programs. These proptests drive the matrix over
//! parameterized program shapes (loops — the segment-cache hot case —,
//! recursion, straight line), over fuel exhaustion at arbitrary points,
//! over completely arbitrary derivation streams, and over hand-built
//! streams whose segments end in fault tails, asserting exact agreement
//! every time.
//!
//! One documented exception (DESIGN.md §5e): when a run dies of fuel
//! exhaustion, `vm.rules_walked`/`vm.walk_depth_peak` may undercount on
//! the fast path by the partially-replayed window, so those two keys are
//! compared only for runs that do not hit `OutOfFuel`.

use pgr_bytecode::asm::assemble;
use pgr_bytecode::{Opcode, Procedure, Program};
use pgr_core::{train, TrainConfig, Trained};
use pgr_grammar::{Grammar, InitialGrammar, Nt, RuleOrigin, Symbol, Terminal};
use pgr_telemetry::{Metrics, Recorder};
use pgr_vm::{RunResult, Tier2Stats, Vm, VmConfig, VmError};
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
/// families (`vm.segment_cache.*`, `vm.tier2.*`) are excluded, and the
/// two walk gauges are excluded for fuel-exhausted runs (see the module
/// docs).
fn vm_view(m: &Metrics, exact_walk: bool) -> (BTreeMap<String, u64>, BTreeMap<String, u64>) {
    let keep = |k: &str| {
        k.starts_with("vm.")
            && !k.starts_with("vm.segment_cache.")
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
/// one-entry segment cache (later segments are decoded on every visit
/// and run step by step), the cache off (every segment so), and the
/// reference walker, which comes last and is the spec.
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
    agree_on(trained.expanded(), ig.nt_start, ig.nt_byte, program, fuel)
}

/// [`agree`] against any grammar with the given start and `<byte>`
/// non-terminals.
fn agree_on(
    grammar: &Grammar,
    start: Nt,
    byte_nt: Nt,
    program: &Program,
    fuel: u64,
) -> Result<Result<RunResult, VmError>, TestCaseError> {
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
        let mut vm = Vm::new_compressed(program, grammar, start, byte_nt, config).unwrap();
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

/// One statement of a hand-built derivation stream: a flat `<start>`
/// rule of [`stream_grammar`]. Unlike the Appendix 2 rules, most of them
/// leave the operand stack unbalanced, so a label can be entered at
/// another stack height than the one its segment was recorded at.
#[derive(Debug, Clone, Copy)]
enum Stmt {
    /// `LIT1 v`: push.
    Push(u8),
    /// `POPU`: pop.
    Pop,
    /// `LTI; BrTrue L`: pop two, branch (a fused compare-and-branch).
    CmpBr(u8),
    /// `BrTrue L`: pop one, branch.
    Br(u8),
    /// `JUMPV L`.
    Jump(u8),
    /// `ADDRLP o; INDIRU`: push a local (a fused local load).
    Load(u16),
    /// `ADDRLP o; ASGNU`: pop into a local (a fused local store).
    Store(u16),
    /// `LocalCALLU 1`: push the callee's result.
    Call,
    /// `RETU`: pop and return.
    Ret,
    /// A chain of [`TAIL_DEPTH`] non-terminals that derives ε: as a
    /// segment's last statement it is a tail window that selects rules
    /// after the last operator.
    Tail,
    /// [`Stmt::Tail`] with its last selection out of range: the
    /// segment's derivation is corrupt there.
    BadTail,
}

/// Length of the ε chain of [`Stmt::Tail`]: deeper than any walk of a
/// generated segment, so only a tail window reaches that walk depth.
const TAIL_DEPTH: usize = 8;

/// The grammar of the hand-built streams, and per [`Stmt`] the encoding
/// index of its `<start>` rule.
struct StreamGrammar {
    grammar: Grammar,
    start: Nt,
    byte_nt: Nt,
    empty: u8,
    rules: Vec<u8>,
}

fn stream_grammar() -> &'static StreamGrammar {
    static G: OnceLock<StreamGrammar> = OnceLock::new();
    G.get_or_init(|| {
        let ig = InitialGrammar::build();
        let mut grammar = ig.grammar.clone();
        let start = ig.nt_start;
        let op = |o: Opcode| Symbol::T(Terminal::Op(o));
        let b = Symbol::N(ig.nt_byte);
        let chain: Vec<Nt> = (0..TAIL_DEPTH)
            .map(|i| grammar.add_nt(format!("tail{i}")))
            .collect();
        for pair in chain.windows(2) {
            grammar.add_rule(pair[0], vec![Symbol::N(pair[1])], RuleOrigin::Original);
        }
        grammar.add_rule(chain[TAIL_DEPTH - 1], Vec::new(), RuleOrigin::Original);
        let bodies = [
            vec![op(Opcode::LIT1), b],
            vec![op(Opcode::POPU)],
            vec![op(Opcode::LTI), op(Opcode::BrTrue), b, b],
            vec![op(Opcode::BrTrue), b, b],
            vec![op(Opcode::JUMPV), b, b],
            vec![op(Opcode::ADDRLP), b, b, op(Opcode::INDIRU)],
            vec![op(Opcode::ADDRLP), b, b, op(Opcode::ASGNU)],
            vec![op(Opcode::LocalCALLU), b, b],
            vec![op(Opcode::RETU)],
            vec![Symbol::N(chain[0])],
        ];
        let mut rules = Vec::new();
        for body in bodies {
            let mut rhs = vec![Symbol::N(start)];
            rhs.extend(body);
            let id = grammar.add_rule(start, rhs, RuleOrigin::Original);
            let index = grammar.rules_of(start).iter().position(|&r| r == id);
            rules.push(index.unwrap() as u8);
        }
        let empty = grammar
            .rules_of(start)
            .iter()
            .position(|&r| r == ig.start_empty);
        StreamGrammar {
            grammar,
            start,
            byte_nt: ig.nt_byte,
            empty: empty.unwrap() as u8,
            rules,
        }
    })
}

/// Encode one segment: the `<start>` rules outermost first, then ε,
/// then each statement's stream operands in execution order.
fn encode_segment(g: &StreamGrammar, stmts: &[Stmt]) -> Vec<u8> {
    let rule = |s: &Stmt| {
        g.rules[match s {
            Stmt::Push(_) => 0,
            Stmt::Pop => 1,
            Stmt::CmpBr(_) => 2,
            Stmt::Br(_) => 3,
            Stmt::Jump(_) => 4,
            Stmt::Load(_) => 5,
            Stmt::Store(_) => 6,
            Stmt::Call => 7,
            Stmt::Ret => 8,
            Stmt::Tail | Stmt::BadTail => 9,
        }]
    };
    let mut out: Vec<u8> = stmts.iter().rev().map(rule).collect();
    out.push(g.empty);
    for s in stmts {
        match *s {
            Stmt::Push(v) => out.push(v),
            Stmt::CmpBr(l) | Stmt::Br(l) | Stmt::Jump(l) => out.extend([l, 0]),
            Stmt::Load(o) | Stmt::Store(o) => out.extend(o.to_le_bytes()),
            Stmt::Call => out.extend([1, 0]),
            Stmt::Tail => out.extend([0; TAIL_DEPTH]),
            // The chain's last non-terminal has one rule.
            Stmt::BadTail => out.extend([0; TAIL_DEPTH - 1].into_iter().chain([1])),
            Stmt::Pop | Stmt::Ret => {}
        }
    }
    out
}

/// A two-procedure program over [`stream_grammar`]: `main` is the given
/// segments, label `i` at the start of segment `i`; procedure 1 pushes
/// and pops a few values and returns 7.
fn stream_program(segments: &[Vec<Stmt>]) -> Program {
    let g = stream_grammar();
    let mut main = Procedure::new("main");
    main.frame_size = 16;
    for seg in segments {
        main.labels.push(main.code.len() as u32);
        main.code.extend(encode_segment(g, seg));
    }
    let mut callee = Procedure::new("callee");
    callee.code = encode_segment(
        g,
        &[
            Stmt::Push(3),
            Stmt::Push(4),
            Stmt::Pop,
            Stmt::Pop,
            Stmt::Push(7),
            Stmt::Ret,
        ],
    );
    let mut program = Program::new();
    program.procs.push(main);
    program.procs.push(callee);
    program
}

/// A generated statement: `kind` picks the rule, `arg` its operand.
/// Labels range one past the last segment (a bad label); local offsets
/// are mostly inside the frame, sometimes far above it on the stack.
fn stmt(kind: u8, arg: u8, segments: usize) -> Stmt {
    let label = arg % (segments as u8 + 1);
    let local = match arg % 6 {
        5 => 4_096 + u16::from(arg),
        n => u16::from(n % 4) * 4,
    };
    match kind % 13 {
        0 | 1 => Stmt::Push(arg % 3),
        2 => Stmt::Pop,
        3 => Stmt::CmpBr(label),
        4 => Stmt::Br(label),
        5 => Stmt::Jump(label),
        6 => Stmt::Load(local),
        7 => Stmt::Store(local),
        8 | 9 => Stmt::Call,
        10 => Stmt::Ret,
        11 => Stmt::Tail,
        _ => Stmt::BadTail,
    }
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

/// [`agree`] on a hand-built stream over [`stream_grammar`].
fn agree_stream(program: &Program, fuel: u64) -> Result<Result<RunResult, VmError>, TestCaseError> {
    let g = stream_grammar();
    agree_on(&g.grammar, g.start, g.byte_nt, program, fuel)
}

#[test]
fn a_replayed_compare_and_branch_underflows_like_the_walk() {
    // Segment 1 pops two values per visit and branches back to itself
    // while the comparison holds: the walk records it with four values
    // on the stack, the first replay runs with two and the second with
    // none, so the fused compare underflows.
    let program = stream_program(&[
        vec![
            Stmt::Push(0),
            Stmt::Push(1),
            Stmt::Push(0),
            Stmt::Push(1),
            Stmt::Jump(1),
        ],
        vec![Stmt::CmpBr(1)],
    ]);
    let outcome = agree_stream(&program, 20_000).unwrap();
    assert!(
        matches!(
            outcome,
            Err(VmError::StackUnderflow {
                opcode: Opcode::LTI,
                ..
            })
        ),
        "{outcome:?}"
    );
}

#[test]
fn a_tail_window_first_reached_by_a_replay_is_counted() {
    // Segment 1 branches out on its first visit, before its tail
    // window; its first replay falls through the tail, to a walk depth
    // no walk has reached, and its second underflows at the branch.
    let program = stream_program(&[
        vec![Stmt::Push(0), Stmt::Push(1), Stmt::Jump(1)],
        vec![Stmt::Br(2), Stmt::Tail],
        vec![Stmt::Jump(1)],
    ]);
    let outcome = agree_stream(&program, 20_000).unwrap();
    assert!(
        matches!(
            outcome,
            Err(VmError::StackUnderflow {
                opcode: Opcode::BrTrue,
                ..
            })
        ),
        "{outcome:?}"
    );
}

/// Run a hand-built stream once with the default configuration and
/// return its outcome and segment-program stats.
fn run_stream(program: &Program) -> (Result<RunResult, VmError>, Tier2Stats) {
    let g = stream_grammar();
    let mut vm =
        Vm::new_compressed(program, &g.grammar, g.start, g.byte_nt, VmConfig::default()).unwrap();
    let result = vm.run();
    (result, vm.tier2_stats())
}

#[test]
fn a_fault_tail_that_execution_branches_away_from_still_replays() {
    // Segment 1 pops a flag and branches back to itself while it is
    // nonzero, then jumps to segment 2: its corrupt tail is never
    // reached, so it compiles once and serves three more visits.
    let program = stream_program(&[
        vec![
            Stmt::Push(0),
            Stmt::Push(1),
            Stmt::Push(1),
            Stmt::Push(1),
            Stmt::Jump(1),
        ],
        vec![Stmt::Br(1), Stmt::Jump(2), Stmt::BadTail],
        vec![Stmt::Push(7), Stmt::Ret],
    ]);
    let outcome = agree_stream(&program, 20_000).unwrap();
    assert_eq!(outcome.unwrap().ret.u(), 7);
    let (result, stats) = run_stream(&program);
    assert_eq!(result.unwrap().ret.u(), 7);
    assert_eq!(stats.compiled, 3, "{stats:?}");
    assert_eq!(stats.hits, 3, "the looping segment was not replayed");
}

#[test]
fn a_fault_tail_dies_at_the_reference_step() {
    // One segment pushes and pops, then its tail selects a rule that
    // does not exist.
    let program = stream_program(&[vec![Stmt::Push(1), Stmt::Pop, Stmt::BadTail]]);
    let g = stream_grammar();
    let recorder = Recorder::new();
    let config = VmConfig {
        reference_walker: true,
        recorder: recorder.clone(),
        ..VmConfig::default()
    };
    let mut vm = Vm::new_compressed(&program, &g.grammar, g.start, g.byte_nt, config).unwrap();
    let fault = vm.run().unwrap_err();
    assert_eq!(
        fault,
        VmError::CorruptDerivation {
            proc: "main".into(),
            offset: program.procs[0].code.len() - 1,
            detail: "no such rule for non-terminal",
        }
    );
    // With exactly the fuel the walk spends up to the fault, every path
    // raises the same fault; with one unit less, every path runs out.
    let steps = recorder.snapshot().counters()["vm.steps"];
    assert_eq!(agree_stream(&program, steps).unwrap(), Err(fault));
    assert_eq!(
        agree_stream(&program, steps - 1).unwrap(),
        Err(VmError::OutOfFuel)
    );
    let (_, stats) = run_stream(&program);
    assert_eq!((stats.compiled, stats.hits), (1, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn reentries_at_other_stack_heights_are_path_identical(
        raw in prop::collection::vec(
            prop::collection::vec((any::<u8>(), any::<u8>()), 0..6),
            1..5,
        ),
        fuel in 1u64..1_500,
    ) {
        // Hand-built streams whose segments push, pop, branch and call
        // without balancing the operand stack, so loops re-enter their
        // labels at changing heights: replays then underflow in fused
        // compare-and-branches, fault in calls at a new stack peak, fall
        // through tail windows their first visit never reached, and
        // branch away from or die in fault tails.
        let segments: Vec<Vec<Stmt>> = raw
            .iter()
            .map(|seg| seg.iter().map(|&(k, a)| stmt(k, a, raw.len())).collect())
            .collect();
        let program = stream_program(&segments);
        agree_stream(&program, 20_000).map(drop)?;
        agree_stream(&program, fuel).map(drop)?;
    }
}
