//! Static validation of bytecoded programs.
//!
//! The compressor and the grammar both assume well-formed input: code that
//! decodes cleanly, references only existing labels/globals/descriptors,
//! and respects the stack discipline of the Appendix 2 grammar (every
//! straight-line segment is a sequence of complete statements, so the
//! evaluation stack is empty at every segment boundary).

use crate::insn::DecodeError;
use crate::opcode::{Opcode, StackKind};
use crate::pass::for_each_instr;
use crate::program::{Procedure, Program};
use pgr_telemetry::{names, Metrics, Recorder};
use std::fmt;
use std::ops::ControlFlow;

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// The code stream does not decode.
    Decode {
        /// Procedure name.
        proc: String,
        /// Underlying decode error.
        error: DecodeError,
    },
    /// A branch names a label-table index that does not exist.
    BadLabelIndex {
        /// Procedure name.
        proc: String,
        /// Offset of the branch.
        offset: usize,
        /// The missing label index.
        index: u16,
    },
    /// A label-table entry does not point at a `LABELV` marker.
    BadLabelTarget {
        /// Procedure name.
        proc: String,
        /// Which label-table entry.
        label: usize,
        /// Where it points.
        target: u32,
    },
    /// A `LocalCALL` names a descriptor that does not exist.
    BadProcIndex {
        /// Procedure name.
        proc: String,
        /// Offset of the call.
        offset: usize,
        /// The missing descriptor index.
        index: u16,
    },
    /// An `ADDRGP` names a global-table entry that does not exist.
    BadGlobalIndex {
        /// Procedure name.
        proc: String,
        /// Offset of the instruction.
        offset: usize,
        /// The missing global index.
        index: u16,
    },
    /// An operator would pop more values than the stack holds.
    StackUnderflow {
        /// Procedure name.
        proc: String,
        /// Offset of the operator.
        offset: usize,
        /// The operator.
        opcode: Opcode,
        /// Stack depth at that point.
        depth: usize,
    },
    /// A segment ends (at a label or at the end of code) with values
    /// still on the stack, so the parse cannot restart there.
    NonEmptyStackAtBoundary {
        /// Procedure name.
        proc: String,
        /// Offset of the boundary.
        offset: usize,
        /// Leftover stack depth.
        depth: usize,
    },
    /// Control can fall off the end of the procedure.
    MissingTerminator {
        /// Procedure name.
        proc: String,
    },
    /// The program's entry index is out of range.
    BadEntry {
        /// The out-of-range index.
        entry: u32,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Decode { proc, error } => write!(f, "{proc}: {error}"),
            ValidateError::BadLabelIndex {
                proc,
                offset,
                index,
            } => {
                write!(f, "{proc}+{offset}: branch to missing label {index}")
            }
            ValidateError::BadLabelTarget {
                proc,
                label,
                target,
            } => {
                write!(f, "{proc}: label {label} points at {target}, not a LABELV")
            }
            ValidateError::BadProcIndex {
                proc,
                offset,
                index,
            } => {
                write!(
                    f,
                    "{proc}+{offset}: LocalCALL to missing descriptor {index}"
                )
            }
            ValidateError::BadGlobalIndex {
                proc,
                offset,
                index,
            } => {
                write!(f, "{proc}+{offset}: ADDRGP to missing global {index}")
            }
            ValidateError::StackUnderflow {
                proc,
                offset,
                opcode,
                depth,
            } => write!(
                f,
                "{proc}+{offset}: {opcode} pops {} but stack depth is {depth}",
                opcode.kind().pops()
            ),
            ValidateError::NonEmptyStackAtBoundary {
                proc,
                offset,
                depth,
            } => {
                write!(
                    f,
                    "{proc}+{offset}: segment boundary with stack depth {depth}"
                )
            }
            ValidateError::MissingTerminator { proc } => {
                write!(f, "{proc}: control can fall off the end")
            }
            ValidateError::BadEntry { entry } => write!(f, "entry index {entry} out of range"),
        }
    }
}

impl std::error::Error for ValidateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValidateError::Decode { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// Validate one procedure against the tables of its containing program.
///
/// # Errors
///
/// Returns the first problem found; see [`ValidateError`].
pub fn validate_procedure(proc: &Procedure, program: &Program) -> Result<(), ValidateError> {
    check_procedure(proc, program).map(|_| ())
}

/// [`validate_procedure`], also reporting how many instructions the
/// stack-discipline scan visited (pass 2 stops at the first problem, so
/// the count under-reports on the error path by design).
fn check_procedure(proc: &Procedure, program: &Program) -> Result<u64, ValidateError> {
    check_label_targets(proc)?;
    check_stack_and_tables(proc, program)
}

/// Pass 1 — label-target scan: every label-table entry must point at a
/// `LABELV` marker. One walk records where each marker starts and how
/// far decoding got; the entries are then checked in table order. An
/// entry past the last decoded instruction reports the decode error that
/// stopped the walk, if there was one.
fn check_label_targets(proc: &Procedure) -> Result<(), ValidateError> {
    if proc.labels.is_empty() {
        return Ok(());
    }
    let mut markers = Vec::new();
    let mut last = None;
    let stopped = for_each_instr(&proc.code, |insn| {
        if insn.opcode == Opcode::LABELV {
            markers.push(insn.offset);
        }
        last = Some(insn.offset);
        ControlFlow::<()>::Continue(())
    })
    .err();
    for (i, &target) in proc.labels.iter().enumerate() {
        let at = target as usize;
        if markers.binary_search(&at).is_ok() {
            continue;
        }
        if let Some(error) = stopped {
            if last.is_none_or(|last| at > last) {
                return Err(ValidateError::Decode {
                    proc: proc.name.clone(),
                    error,
                });
            }
        }
        return Err(ValidateError::BadLabelTarget {
            proc: proc.name.clone(),
            label: i,
            target,
        });
    }
    Ok(())
}

/// Pass 2 — stack-effect and table-reference scan, streaming over
/// borrowed views with an early exit on the first problem. Returns the
/// number of instructions visited.
fn check_stack_and_tables(proc: &Procedure, program: &Program) -> Result<u64, ValidateError> {
    let name = || proc.name.clone();
    let mut depth = 0usize;
    let mut last_opcode: Option<Opcode> = None;
    let mut insns = 0u64;
    let failure = for_each_instr(&proc.code, |insn| {
        insns += 1;
        last_opcode = Some(insn.opcode);
        let kind = insn.opcode.kind();
        if kind == StackKind::Label {
            if depth != 0 {
                return ControlFlow::Break(ValidateError::NonEmptyStackAtBoundary {
                    proc: name(),
                    offset: insn.offset,
                    depth,
                });
            }
            return ControlFlow::Continue(());
        }
        if insn.opcode.is_branch() {
            let index = insn.operand_u16();
            if usize::from(index) >= proc.labels.len() {
                return ControlFlow::Break(ValidateError::BadLabelIndex {
                    proc: name(),
                    offset: insn.offset,
                    index,
                });
            }
        }
        if insn.opcode.is_local_call() {
            let index = insn.operand_u16();
            if usize::from(index) >= program.procs.len() {
                return ControlFlow::Break(ValidateError::BadProcIndex {
                    proc: name(),
                    offset: insn.offset,
                    index,
                });
            }
        }
        if insn.opcode == Opcode::ADDRGP {
            let index = insn.operand_u16();
            if usize::from(index) >= program.globals.len() {
                return ControlFlow::Break(ValidateError::BadGlobalIndex {
                    proc: name(),
                    offset: insn.offset,
                    index,
                });
            }
        }
        if depth < kind.pops() {
            return ControlFlow::Break(ValidateError::StackUnderflow {
                proc: name(),
                offset: insn.offset,
                opcode: insn.opcode,
                depth,
            });
        }
        depth -= kind.pops();
        if kind.pushes() {
            depth += 1;
        }
        ControlFlow::Continue(())
    })
    .map_err(|error| ValidateError::Decode {
        proc: name(),
        error,
    })?;
    if let Some(err) = failure {
        return Err(err);
    }
    if depth != 0 {
        return Err(ValidateError::NonEmptyStackAtBoundary {
            proc: name(),
            offset: proc.code.len(),
            depth,
        });
    }

    match last_opcode {
        Some(last) if last.is_return() || last == Opcode::JUMPV => Ok(insns),
        _ => Err(ValidateError::MissingTerminator { proc: name() }),
    }
}

/// Validate a whole program.
///
/// # Errors
///
/// Returns the first problem found in any procedure, or [`ValidateError::BadEntry`]
/// if the entry index is out of range.
pub fn validate_program(program: &Program) -> Result<(), ValidateError> {
    validate_program_with(program, &Recorder::disabled())
}

/// Validate a whole program, reporting `bytecode.validate.*` counters
/// (procedures checked, instructions visited) into `recorder`. Counts
/// cover the work done before the first error, if any.
///
/// # Errors
///
/// Same as [`validate_program`].
pub fn validate_program_with(program: &Program, recorder: &Recorder) -> Result<(), ValidateError> {
    if !program.procs.is_empty() && program.entry as usize >= program.procs.len() {
        return Err(ValidateError::BadEntry {
            entry: program.entry,
        });
    }
    let mut procs = 0u64;
    let mut insns = 0u64;
    let mut result = Ok(());
    for proc in &program.procs {
        match check_procedure(proc, program) {
            Ok(n) => {
                procs += 1;
                insns += n;
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    if recorder.is_enabled() {
        let mut batch = Metrics::new();
        batch.add(names::BYTECODE_VALIDATE_PROCS, procs);
        batch.add(names::BYTECODE_VALIDATE_INSNS, insns);
        recorder.record(batch);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::insn::Instruction;
    use proptest::prelude::*;

    fn check(src: &str) -> Result<(), ValidateError> {
        let prog = assemble(src).unwrap();
        validate_program(&prog)
    }

    #[test]
    fn valid_program_passes() {
        check(
            "proc main frame=4 args=0\n\
             \tADDRLP 0\n\tLIT1 7\n\tSUBU\n\tPOPU\n\tRETV\nendproc\nentry main\n",
        )
        .unwrap();
    }

    #[test]
    fn validation_reports_metrics() {
        let prog = assemble(
            "proc main frame=4 args=0\n\
             \tADDRLP 0\n\tLIT1 7\n\tSUBU\n\tPOPU\n\tRETV\nendproc\nentry main\n",
        )
        .unwrap();
        let recorder = Recorder::new();
        validate_program_with(&prog, &recorder).unwrap();
        let m = recorder.snapshot();
        assert_eq!(m.counter(names::BYTECODE_VALIDATE_PROCS), 1);
        assert_eq!(m.counter(names::BYTECODE_VALIDATE_INSNS), 5);
    }

    #[test]
    fn underflow_is_caught() {
        let e = check("proc f frame=0 args=0\n\tADDU\n\tPOPU\n\tRETV\nendproc\n").unwrap_err();
        assert!(matches!(e, ValidateError::StackUnderflow { depth: 0, .. }));
    }

    #[test]
    fn value_left_on_stack_at_label_is_caught() {
        let e = check("proc f frame=0 args=0\n\tLIT1 1\n\tlabel 0\n\tPOPU\n\tRETV\nendproc\n")
            .unwrap_err();
        assert!(matches!(
            e,
            ValidateError::NonEmptyStackAtBoundary { depth: 1, .. }
        ));
    }

    #[test]
    fn value_left_at_end_is_caught() {
        let e = check("proc f frame=0 args=0\n\tLIT1 1\n\tRETV\nendproc\n").unwrap_err();
        assert!(matches!(e, ValidateError::NonEmptyStackAtBoundary { .. }));
    }

    #[test]
    fn missing_label_is_caught() {
        let e = check("proc f frame=0 args=0\n\tJUMPV 3\nendproc\n").unwrap_err();
        assert!(matches!(e, ValidateError::BadLabelIndex { index: 3, .. }));
    }

    #[test]
    fn missing_descriptor_is_caught() {
        let e = check("proc f frame=0 args=0\n\tLocalCALLV 9\n\tRETV\nendproc\n").unwrap_err();
        assert!(matches!(e, ValidateError::BadProcIndex { index: 9, .. }));
    }

    #[test]
    fn missing_global_is_caught() {
        let e = check("proc f frame=0 args=0\n\tADDRGP 0\n\tPOPU\n\tRETV\nendproc\n").unwrap_err();
        assert!(matches!(e, ValidateError::BadGlobalIndex { index: 0, .. }));
    }

    #[test]
    fn fallthrough_end_is_caught() {
        let e = check("proc f frame=0 args=0\n\tLIT1 1\n\tPOPU\nendproc\n").unwrap_err();
        assert!(matches!(e, ValidateError::MissingTerminator { .. }));
    }

    #[test]
    fn jump_terminator_is_accepted() {
        check("proc f frame=0 args=0\n\tlabel 0\n\tJUMPV 0\nendproc\n").unwrap();
    }

    #[test]
    fn bad_entry_is_caught() {
        let mut prog = assemble("proc f frame=0 args=0\n\tRETV\nendproc\n").unwrap();
        prog.entry = 5;
        assert!(matches!(
            validate_program(&prog),
            Err(ValidateError::BadEntry { entry: 5 })
        ));
    }

    #[test]
    fn stale_label_table_is_caught() {
        let mut prog = assemble("proc f frame=0 args=0\n\tlabel 0\n\tRETV\nendproc\n").unwrap();
        prog.procs[0].labels[0] = 1; // points at RETV, not LABELV
        assert!(matches!(
            validate_program(&prog),
            Err(ValidateError::BadLabelTarget { label: 0, .. })
        ));
    }

    /// The label scan the single walk replaced, kept as its spec: each
    /// table entry re-decodes the procedure from offset 0 until it reaches
    /// or passes the target.
    fn per_label_walk(proc: &Procedure) -> Result<(), ValidateError> {
        for (i, &target) in proc.labels.iter().enumerate() {
            let ok = for_each_instr(&proc.code, |insn| {
                if insn.offset >= target as usize {
                    ControlFlow::Break(
                        insn.offset == target as usize && insn.opcode == Opcode::LABELV,
                    )
                } else {
                    ControlFlow::Continue(())
                }
            })
            .map_err(|error| ValidateError::Decode {
                proc: proc.name.clone(),
                error,
            })?
            .unwrap_or(false);
            if !ok {
                return Err(ValidateError::BadLabelTarget {
                    proc: proc.name.clone(),
                    label: i,
                    target,
                });
            }
        }
        Ok(())
    }

    /// An instruction with raw operand bytes; one in four is a `LABELV`.
    fn instruction() -> impl Strategy<Value = Instruction> {
        let opcode = prop_oneof![
            1 => Just(Opcode::LABELV),
            3 => (0..Opcode::ALL.len()).prop_map(|i| Opcode::ALL[i]),
        ];
        (opcode, any::<u32>())
            .prop_map(|(op, raw)| Instruction::new(op, &raw.to_le_bytes()[..op.operand_bytes()]))
    }

    /// Where a label-table entry points, relative to the generated code.
    fn target(
        kind: u8,
        at: prop::sample::Index,
        spans: &[(usize, usize, bool)],
        len: usize,
    ) -> u32 {
        let candidates: Vec<usize> = match kind {
            // A marker, or the start of another instruction.
            0 | 1 => spans
                .iter()
                .filter(|&&(_, _, marker)| marker == (kind == 0))
                .map(|&(start, _, _)| start)
                .collect(),
            // Inside a multi-byte instruction.
            2 => spans
                .iter()
                .flat_map(|&(start, size, _)| start + 1..start + size)
                .collect(),
            // At or past the end.
            _ => (len..len + 3).collect(),
        };
        let pick = if candidates.is_empty() {
            len
        } else {
            candidates[at.index(candidates.len())]
        };
        pick as u32
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The single-walk label scan reports exactly what the per-label
        /// walk did, ahead of every pass-2 error, on label tables that
        /// point at markers, other instructions, operand bytes and past
        /// the end, over code that may be cut short inside an
        /// instruction or carry a byte that is no opcode.
        #[test]
        fn single_walk_label_scan_matches_the_per_label_walk(
            insns in prop::collection::vec(instruction(), 0..24),
            targets in prop::collection::vec((0u8..4, any::<prop::sample::Index>()), 0..6),
            mutation in (0u8..3, any::<prop::sample::Index>()),
        ) {
            let mut code = Vec::new();
            let mut spans = Vec::new();
            for insn in &insns {
                let start = code.len();
                insn.encode_into(&mut code);
                spans.push((start, code.len() - start, insn.opcode == Opcode::LABELV));
            }
            let labels = targets
                .iter()
                .map(|&(kind, at)| target(kind, at, &spans, code.len()))
                .collect();
            match mutation {
                // Truncate inside an instruction's operands.
                (1, at) => {
                    let cuts: Vec<usize> = spans
                        .iter()
                        .flat_map(|&(start, size, _)| start + 1..start + size)
                        .collect();
                    if !cuts.is_empty() {
                        code.truncate(cuts[at.index(cuts.len())]);
                    }
                }
                // Replace an opcode byte with one that is no opcode.
                (2, at) if !spans.is_empty() => {
                    let bad = (0..=u8::MAX).rev().find(|&b| Opcode::from_u8(b).is_none());
                    code[spans[at.index(spans.len())].0] = bad.expect("a byte that is no opcode");
                }
                _ => {}
            }
            let proc = Procedure {
                code,
                labels,
                ..Procedure::new("p")
            };
            let program = Program::new();
            let want = per_label_walk(&proc)
                .and_then(|()| check_stack_and_tables(&proc, &program).map(|_| ()));
            prop_assert_eq!(validate_procedure(&proc, &program), want);
        }
    }
}
