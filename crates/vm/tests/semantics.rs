//! Pointwise semantic tests for tricky operator behaviour: two's
//! complement edges, shift masking, conversion saturation, NaN
//! comparisons, sub-word loads/stores. Each runs a tiny assembled
//! program on the VM and checks the exact result.

use pgr_bytecode::asm::assemble;
use pgr_vm::{Vm, VmConfig, VmError};

fn eval(body: &str) -> Result<pgr_vm::Slot, VmError> {
    let src = format!("proc main frame=16 args=0\n{body}endproc\nentry main\n");
    let program = assemble(&src).unwrap();
    pgr_bytecode::validate_program(&program).unwrap();
    let mut vm = Vm::new(&program, VmConfig::default())?;
    vm.run().map(|r| r.ret)
}

fn eval_u(body: &str) -> u32 {
    eval(body).unwrap().u()
}

fn eval_i(body: &str) -> i32 {
    eval(body).unwrap().i()
}

#[test]
fn integer_wraparound() {
    // i32::MAX + 1 wraps.
    assert_eq!(
        eval_i("\tLIT4 2147483647\n\tLIT1 1\n\tADDU\n\tRETU\n"),
        i32::MIN
    );
    // i32::MIN / -1 wraps (no trap, like x86 would but C leaves UB).
    assert_eq!(
        eval_i("\tLIT4 2147483648\n\tLIT4 4294967295\n\tDIVI\n\tRETU\n"),
        i32::MIN
    );
    // MULI overflow wraps.
    assert_eq!(eval_u("\tLIT4 65536\n\tLIT4 65536\n\tMULI\n\tRETU\n"), 0);
    // NEGI of i32::MIN is itself.
    assert_eq!(eval_i("\tLIT4 2147483648\n\tNEGI\n\tRETU\n"), i32::MIN);
}

#[test]
fn signed_vs_unsigned_division() {
    assert_eq!(eval_i("\tLIT1 7\n\tNEGI\n\tLIT1 2\n\tDIVI\n\tRETU\n"), -3);
    assert_eq!(eval_i("\tLIT1 7\n\tNEGI\n\tLIT1 2\n\tMODI\n\tRETU\n"), -1);
    // -7 as unsigned divided by 2 is huge.
    assert_eq!(
        eval_u("\tLIT1 7\n\tNEGI\n\tLIT1 2\n\tDIVU\n\tRETU\n"),
        (u32::MAX - 6) / 2
    );
    assert!(matches!(
        eval("\tLIT1 1\n\tLIT1 0\n\tMODU\n\tRETU\n"),
        Err(VmError::DivideByZero { .. })
    ));
}

#[test]
fn shift_amounts_are_masked() {
    // Shifting by 33 behaves like shifting by 1 (x86 semantics).
    assert_eq!(eval_u("\tLIT1 1\n\tLIT1 33\n\tLSHU\n\tRETU\n"), 2);
    assert_eq!(eval_u("\tLIT1 8\n\tLIT1 35\n\tRSHU\n\tRETU\n"), 1);
    // Arithmetic vs logical right shift of a negative value.
    assert_eq!(eval_i("\tLIT1 8\n\tNEGI\n\tLIT1 1\n\tRSHI\n\tRETU\n"), -4);
    assert_eq!(
        eval_u("\tLIT1 8\n\tNEGI\n\tLIT1 1\n\tRSHU\n\tRETU\n"),
        (8u32.wrapping_neg()) >> 1
    );
}

#[test]
fn float_conversions_saturate_not_trap() {
    // (int)1e30f saturates to i32::MAX (deterministic, no UB).
    let bits = 1e30f32.to_bits();
    assert_eq!(
        eval_i(&format!("\tLIT4 {bits}\n\tCVFI\n\tRETU\n")),
        i32::MAX
    );
    let bits = (-1e30f32).to_bits();
    assert_eq!(
        eval_i(&format!("\tLIT4 {bits}\n\tCVFI\n\tRETU\n")),
        i32::MIN
    );
}

#[test]
fn nan_comparisons_follow_c() {
    let nan = f32::NAN.to_bits();
    // NaN == NaN is false; NaN != NaN is true.
    assert_eq!(
        eval_u(&format!("\tLIT4 {nan}\n\tLIT4 {nan}\n\tEQF\n\tRETU\n")),
        0
    );
    assert_eq!(
        eval_u(&format!("\tLIT4 {nan}\n\tLIT4 {nan}\n\tNEF\n\tRETU\n")),
        1
    );
    assert_eq!(
        eval_u(&format!("\tLIT4 {nan}\n\tLIT4 {nan}\n\tLTF\n\tRETU\n")),
        0
    );
    assert_eq!(
        eval_u(&format!("\tLIT4 {nan}\n\tLIT4 {nan}\n\tGEF\n\tRETU\n")),
        0
    );
}

#[test]
fn subword_loads_zero_extend_and_conversions_sign_extend() {
    // Store 0x80 as a char; INDIRC zero-extends, CVI1I4 sign-extends.
    let body = "\tLIT1 128\n\tADDRLP 0\n\tASGNC\n\
                \tADDRLP 0\n\tINDIRC\n\tRETU\n";
    assert_eq!(eval_u(body), 128);
    let body = "\tLIT1 128\n\tADDRLP 0\n\tASGNC\n\
                \tADDRLP 0\n\tINDIRC\n\tCVI1I4\n\tRETU\n";
    assert_eq!(eval_i(body), -128);
    // Shorts: 0x8000 via INDIRS then CVI2I4.
    let body = "\tLIT2 32768\n\tADDRLP 0\n\tASGNS\n\
                \tADDRLP 0\n\tINDIRS\n\tCVI2I4\n\tRETU\n";
    assert_eq!(eval_i(body), i32::from(i16::MIN));
    // Truncating stores drop high bytes.
    let body = "\tLIT4 305419896\n\tADDRLP 0\n\tASGNC\n\
                \tADDRLP 0\n\tINDIRC\n\tRETU\n";
    assert_eq!(eval_u(body), 0x78);
}

#[test]
fn double_memory_roundtrip_preserves_bits() {
    // Store a double via ASGND, reload via INDIRD, compare: use a value
    // with a non-trivial low word (1/3).
    let third = (1.0f64 / 3.0).to_bits();
    let lo = (third & 0xFFFF_FFFF) as u32;
    let hi = (third >> 32) as u32;
    // Build the double from two 4-byte stores, read as double, multiply
    // by 3, convert to int -> 1 (0.999... truncates to 0? No: 3*(1/3)
    // rounds to exactly 1.0 in IEEE double).
    let body = format!(
        "\tLIT4 {lo}\n\tADDRLP 0\n\tASGNU\n\
         \tLIT4 {hi}\n\tADDRLP 4\n\tASGNU\n\
         \tADDRLP 0\n\tINDIRD\n\tLIT1 3\n\tCVID\n\tMULD\n\tCVDI\n\tRETU\n"
    );
    assert_eq!(eval_i(&body), 1);
}

#[test]
fn bitwise_complement_and_xor() {
    assert_eq!(eval_u("\tLIT1 0\n\tBCOMU\n\tRETU\n"), u32::MAX);
    assert_eq!(
        eval_u("\tLIT4 2863311530\n\tLIT4 1431655765\n\tBXORU\n\tRETU\n"),
        u32::MAX
    );
}

#[test]
fn comparison_results_are_exactly_zero_or_one() {
    for (op, expect) in [("LTI", 1u32), ("GEI", 0), ("EQU", 0), ("NEU", 1)] {
        let got = eval_u(&format!("\tLIT1 3\n\tLIT1 5\n\t{op}\n\tRETU\n"));
        assert_eq!(got, expect, "{op}");
    }
}

#[test]
fn stack_overflow_is_detected() {
    // A frame larger than the stack region.
    let src = "proc main frame=0 args=0\n\tLocalCALLV 1\n\tRETV\nendproc\n\
               proc big frame=65535 args=0\n\tRETV\nendproc\nentry main\n";
    let program = assemble(src).unwrap();
    let mut vm = Vm::new(
        &program,
        VmConfig {
            stack_size: 1024,
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert!(matches!(vm.run().unwrap_err(), VmError::StackOverflow));
}

#[test]
fn frames_are_zeroed_between_calls() {
    // f writes a local then returns; calling it twice must observe the
    // local starting at zero both times (deterministic frames).
    let src = "proc main frame=0 args=0\n\
               \tLocalCALLU 1\n\tPOPU\n\tLocalCALLU 1\n\tRETU\nendproc\n\
               proc f frame=8 args=0\n\
               \tADDRLP 0\n\tINDIRU\n\tLIT1 7\n\tADDU\n\tADDRLP 0\n\tASGNU\n\
               \tADDRLP 0\n\tINDIRU\n\tRETU\nendproc\nentry main\n";
    let program = assemble(src).unwrap();
    let mut vm = Vm::new(&program, VmConfig::default()).unwrap();
    assert_eq!(vm.run().unwrap().ret.u(), 7);
}

#[test]
fn heap_exhaustion_is_an_error() {
    let src = "proc main frame=0 args=0\n\
               \tLIT4 1048576\n\tARGU\n\tADDRGP 0\n\tCALLU\n\tPOPU\n\
               \tLIT4 1048576\n\tARGU\n\tADDRGP 0\n\tCALLU\n\tPOPU\n\
               \tRETV\nendproc\nnative malloc\nentry main\n";
    let program = assemble(src).unwrap();
    let mut vm = Vm::new(
        &program,
        VmConfig {
            heap_size: 1 << 20,
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert!(matches!(
        vm.run().unwrap_err(),
        VmError::HeapExhausted { .. }
    ));
}

#[test]
fn a_layout_past_the_address_space_fails_at_load() {
    // Data, bss, heap and stack must fit 32 bits: a bss near 4 GiB once
    // wrapped the layout (and overflowed a debug build).
    let mut program = assemble("proc main frame=0 args=0\n\tRETV\nendproc\nentry main\n").unwrap();
    program.bss_size = u32::MAX - 8;
    let err = pgr_vm::Layout::of(&program, &VmConfig::default()).unwrap_err();
    assert!(
        matches!(err, VmError::LayoutOverflow { end } if end > u64::from(u32::MAX)),
        "{err:?}"
    );
    assert_eq!(Vm::new(&program, VmConfig::default()).err(), Some(err));
    // So does a global whose address ends past it.
    program.bss_size = 0;
    program.globals.push(pgr_bytecode::GlobalEntry::Data {
        name: "far".into(),
        offset: u32::MAX,
    });
    assert!(matches!(
        Vm::new(&program, VmConfig::default()).err(),
        Some(VmError::LayoutOverflow { .. })
    ));
}

#[test]
fn malloc_returns_distinct_aligned_blocks() {
    let src = "proc main frame=8 args=0\n\
               \tLIT1 3\n\tARGU\n\tADDRGP 0\n\tCALLU\n\tADDRLP 0\n\tASGNU\n\
               \tLIT1 3\n\tARGU\n\tADDRGP 0\n\tCALLU\n\tADDRLP 0\n\tINDIRU\n\tSUBU\n\tRETU\n\
               endproc\nnative malloc\nentry main\n";
    let program = assemble(src).unwrap();
    let mut vm = Vm::new(&program, VmConfig::default()).unwrap();
    // Second block minus first block: 8 (3 rounded up to alignment).
    assert_eq!(vm.run().unwrap().ret.u(), 8);
}

#[test]
fn telemetry_counts_dispatch_calls_and_peaks() {
    use pgr_telemetry::{names, Recorder};

    // main calls f twice; f pushes two slots before returning one.
    let src = "proc main frame=0 args=0\n\
               \tLocalCALLU 1\n\tPOPU\n\tLocalCALLU 1\n\tRETU\nendproc\n\
               proc f frame=0 args=0\n\
               \tLIT1 2\n\tLIT1 3\n\tADDU\n\tRETU\nendproc\nentry main\n";
    let program = assemble(src).unwrap();
    let recorder = Recorder::new();
    let config = VmConfig {
        recorder: recorder.clone(),
        ..VmConfig::default()
    };
    let mut vm = Vm::new(&program, config).unwrap();
    let result = vm.run().unwrap();

    let m = recorder.snapshot();
    assert_eq!(m.counter(names::VM_STEPS), result.steps);
    // main + two calls of f.
    assert_eq!(m.counter(names::VM_CALLS), 3);
    assert_eq!(m.gauge(names::VM_CALL_DEPTH_PEAK), Some(2));
    // f holds two slots (the LIT1 pair) before ADDU folds them.
    assert_eq!(m.gauge(names::VM_OPERAND_STACK_PEAK), Some(2));
    // Per-opcode dispatch: ADDU runs once per call of f.
    assert_eq!(m.counter(&names::vm_dispatch("ADDU")), 2);
    assert_eq!(m.counter(&names::vm_dispatch("LocalCALLU")), 2);
    // Plain interpreter never walks grammar rules.
    assert_eq!(m.counter(names::VM_RULES_WALKED), 0);

    // A disabled recorder leaves no trace.
    let mut quiet = Vm::new(&program, VmConfig::default()).unwrap();
    quiet.run().unwrap();
    assert!(Recorder::disabled().snapshot().is_empty());
}
