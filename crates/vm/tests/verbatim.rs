//! Verbatim-escape execution: compressed streams may embed raw
//! canonical bytecode behind the reserved `0xFF` marker (the
//! compressor's graceful-degradation path for segments with no
//! derivation). Both compressed walkers must execute escapes
//! identically to each other and to the uncompressed interpreter, and
//! must reject malformed escapes with clean errors, never panics.

use pgr_bytecode::asm::assemble;
use pgr_bytecode::{escape, Opcode, Procedure, Program};
use pgr_core::{train, Compressor, CompressorConfig, TrainConfig};
use pgr_grammar::InitialGrammar;
use pgr_telemetry::faults::{self, FaultMode, FaultPlan, FaultPoint};
use pgr_vm::{Vm, VmConfig, VmError};

/// A program with branches, a loop, and a native call — enough control
/// flow that escaped segments interleave with label targets.
const LOOP_SRC: &str = "proc main frame=8 args=0\n\
     \tLIT1 0\n\tADDRLP 0\n\tASGNU\n\
     \tlabel 0\n\
     \tADDRLP 0\n\tINDIRU\n\tLIT1 10\n\tLTI\n\tBrTrue 1\n\
     \tJUMPV 2\n\
     \tlabel 1\n\
     \tLIT1 48\n\tADDRLP 0\n\tINDIRU\n\tADDU\n\tARGU\n\tADDRGP 0\n\tCALLU\n\tPOPU\n\
     \tADDRLP 0\n\tINDIRU\n\tLIT1 1\n\tADDU\n\tADDRLP 0\n\tASGNU\n\
     \tJUMPV 0\n\
     \tlabel 2\n\
     \tRETV\n\
     endproc\nnative putchar\nentry main\n";

#[test]
fn all_fallback_programs_run_identically_on_every_walker() {
    let program = assemble(LOOP_SRC).unwrap();
    let mut vm = Vm::new(&program, VmConfig::default()).unwrap();
    let plain = vm.run().unwrap();
    assert_eq!(plain.output, b"0123456789");

    // An injected parse fault on every segment forces each one through
    // the verbatim escape.
    let trained = train(&[&program], &TrainConfig::default()).unwrap();
    let ig = trained.initial();
    let engine =
        Compressor::with_config(trained.expanded(), ig.nt_start, CompressorConfig::default());
    let guard = faults::install(FaultPlan::new().with(FaultPoint::Parse, FaultMode::Always));
    let (cp, stats) = engine.compress(&program).unwrap();
    drop(guard);
    assert_eq!(
        stats.fallback_segments, stats.segments,
        "a segment was tiled"
    );

    let variants = [
        ("fast path", VmConfig::default()),
        (
            "fast path, cache off",
            VmConfig {
                segment_cache_entries: 0,
                ..VmConfig::default()
            },
        ),
        (
            "reference walker",
            VmConfig {
                reference_walker: true,
                ..VmConfig::default()
            },
        ),
    ];
    let mut steps = Vec::new();
    for (label, config) in variants {
        let mut cvm = Vm::new_compressed(
            &cp.program,
            trained.expanded(),
            ig.nt_start,
            ig.nt_byte,
            config,
        )
        .unwrap();
        let got = cvm.run().unwrap();
        assert_eq!(plain.output, got.output, "{label}: output diverged");
        assert_eq!(plain.ret, got.ret, "{label}: return value diverged");
        assert_eq!(
            plain.exit_code, got.exit_code,
            "{label}: exit code diverged"
        );
        steps.push((label, got.steps));
    }
    // All three compressed configurations must agree on fuel accounting
    // too — verbatim segments burn one unit for the marker plus one per
    // raw instruction, on every path.
    assert_eq!(steps[0].1, steps[1].1, "cache changed step count");
    assert_eq!(steps[0].1, steps[2].1, "walkers disagree on step count");
}

/// Build a "compressed" program whose single procedure is exactly the
/// given stream bytes — enough to exercise the escape decoder directly.
fn raw_compressed(code: Vec<u8>) -> Program {
    let mut prog = Program::new();
    let mut proc = Procedure::new("main");
    proc.code = code;
    prog.procs.push(proc);
    prog
}

fn run_compressed(prog: &Program, reference_walker: bool) -> Result<pgr_vm::RunResult, VmError> {
    let ig = InitialGrammar::build();
    let mut vm = Vm::new_compressed(
        prog,
        &ig.grammar,
        ig.nt_start,
        ig.nt_byte,
        VmConfig {
            reference_walker,
            ..VmConfig::default()
        },
    )
    .unwrap();
    vm.run()
}

#[test]
fn a_pure_escape_segment_executes_and_returns() {
    // [marker, len=1, RETV]: no derivation bytes at all.
    let prog = raw_compressed(vec![escape::VERBATIM_MARKER, 1, 0, Opcode::RETV as u8]);
    for reference in [false, true] {
        let r = run_compressed(&prog, reference).unwrap();
        assert_eq!(r.exit_code, None);
        // Marker iteration + one raw instruction.
        assert_eq!(r.steps, 2, "reference={reference}");
    }
}

#[test]
fn an_escape_overrunning_the_stream_is_a_corrupt_derivation() {
    // The header claims a 515-byte payload the stream doesn't have.
    let prog = raw_compressed(vec![escape::VERBATIM_MARKER, 3, 2, Opcode::RETV as u8]);
    for reference in [false, true] {
        let err = run_compressed(&prog, reference).unwrap_err();
        match err {
            VmError::CorruptDerivation { offset, detail, .. } => {
                assert_eq!(offset, 0, "reference={reference}");
                assert_eq!(detail, "verbatim escape overruns the stream");
            }
            other => panic!("reference={reference}: wanted CorruptDerivation, got {other:?}"),
        }
    }
}

#[test]
fn a_truncated_escape_header_is_a_corrupt_derivation() {
    // A marker with only one length byte after it.
    let prog = raw_compressed(vec![escape::VERBATIM_MARKER, 1]);
    for reference in [false, true] {
        let err = run_compressed(&prog, reference).unwrap_err();
        assert!(
            matches!(
                err,
                VmError::CorruptDerivation {
                    detail: "verbatim escape overruns the stream",
                    ..
                }
            ),
            "reference={reference}: got {err:?}"
        );
    }
}

#[test]
fn an_instruction_split_by_the_payload_boundary_is_a_bad_opcode() {
    // LIT4 needs four operand bytes; the payload ends after one.
    let prog = raw_compressed(vec![escape::VERBATIM_MARKER, 2, 0, Opcode::LIT4 as u8, 7]);
    for reference in [false, true] {
        let err = run_compressed(&prog, reference).unwrap_err();
        match err {
            VmError::BadOpcode { offset, .. } => {
                assert_eq!(offset, escape::VERBATIM_HEADER, "reference={reference}")
            }
            other => panic!("reference={reference}: wanted BadOpcode, got {other:?}"),
        }
    }
}
