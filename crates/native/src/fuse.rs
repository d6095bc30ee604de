//! Superinstruction selection for the VM's compiled segment programs.
//!
//! The VM decodes each segment of compressed code once into a flat
//! `(opcode, operands)` trace; what remains per step is dispatch
//! overhead and stack traffic that a one-pass lowering can remove. This
//! module is that lowering, run once when a decoded segment enters the
//! VM's segment cache: a greedy, longest-match scan over the trace that
//! fuses the patterns the profile says dominate execution —
//! address-of + load/store pairs, immediate ALU operands, and compare +
//! branch chains — into single superinstructions with operands and
//! branch targets burnt in. It is the same peephole vocabulary the
//! synthetic x86 translator in this crate applies to full procedures
//! (push/pop traffic becomes direct moves, compares fuse with their
//! branches), re-targeted at the interpreter's replay handlers instead
//! of a pseudo-x86 listing.
//!
//! Selection is pure data transformation: no VM types, no execution
//! state. Each [`SuperOp`] remembers the index of the **last** source
//! step it covers (`last`), which is what lets the replay keep fuel,
//! error and telemetry accounting byte-identical to the derivation walk
//! — a side exit or fault inside a superinstruction maps back to an
//! exact source-step boundary.
//!
//! Anything outside the fused vocabulary (division can fault
//! data-dependently, float compares are cold) falls through to
//! [`Fused::Exec`], the plain one-step handler, so fusion can never
//! change semantics — only the dispatch count. The VM does not fuse
//! traces that contain calls at all; it runs them step by step.

use pgr_bytecode::Opcode;

/// One superinstruction of a compiled segment program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fused {
    /// Push a literal (`LIT1`-`LIT4` with the operand pre-decoded).
    Push {
        /// The literal value.
        imm: u32,
    },
    /// Push the address of a local (`ADDRLP`).
    PushLocal {
        /// Frame offset.
        off: u32,
    },
    /// Push the address of an argument (`ADDRFP`).
    PushArg {
        /// Argument-area offset.
        off: u32,
    },
    /// Load a local word: `ADDRLP off; INDIRU`.
    LoadLocal {
        /// Frame offset.
        off: u32,
    },
    /// Load an argument word: `ADDRFP off; INDIRU`.
    LoadArg {
        /// Argument-area offset.
        off: u32,
    },
    /// Store the top of stack into a local word: `ADDRLP off; ASGNU`.
    StoreLocal {
        /// Frame offset.
        off: u32,
    },
    /// Store the top of stack into an argument word: `ADDRFP off; ASGNU`.
    StoreArg {
        /// Argument-area offset.
        off: u32,
    },
    /// Load a global word: `ADDRGP g; INDIRU` with the global's address
    /// pre-resolved (the table is fixed at load time).
    LoadGlobal {
        /// Resolved absolute address.
        addr: u32,
    },
    /// Store the top of stack into a global word: `ADDRGP g; ASGNU`.
    StoreGlobal {
        /// Resolved absolute address.
        addr: u32,
    },
    /// Apply an ALU operator with an immediate right operand:
    /// `LITn imm; <alu>`.
    AluImm {
        /// The ALU operator (one of [`fusable_alu`]).
        op: Opcode,
        /// The immediate right operand.
        imm: u32,
    },
    /// Compare the top two stack values and branch when true:
    /// `<cmp>; BrTrue L` with the label pre-resolved.
    CmpBr {
        /// The comparison operator (one of [`fusable_cmp`]).
        cmp: Opcode,
        /// Resolved code offset of the branch target.
        target: u32,
    },
    /// Compare the top of stack against an immediate and branch when
    /// true: `LITn imm; <cmp>; BrTrue L`.
    CmpImmBr {
        /// The comparison operator.
        cmp: Opcode,
        /// The immediate right operand.
        imm: u32,
        /// Resolved code offset of the branch target.
        target: u32,
    },
    /// Pop a flag and branch when nonzero (`BrTrue` with the label
    /// pre-resolved).
    BrTruePop {
        /// Resolved code offset of the branch target.
        target: u32,
    },
    /// Unconditional branch (`JUMPV` with the label pre-resolved).
    Jump {
        /// Resolved code offset of the branch target.
        target: u32,
    },
    /// Unfused single step: dispatch through the shared operator
    /// semantics.
    Exec {
        /// The operator.
        op: Opcode,
        /// Its resolved operand bytes.
        operands: [u8; 4],
    },
}

/// A superinstruction plus the source-step span it covers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuperOp {
    /// The fused operation.
    pub fused: Fused,
    /// Index of the last source step this superinstruction covers (its
    /// first is derivable from the previous superinstruction). Side
    /// exits and faults inside the handler charge fuel through an exact
    /// constituent step; `last` anchors that mapping.
    pub last: u32,
}

/// Whether `op` may serve as the ALU of an [`Fused::AluImm`]: total
/// (wrapping) operators only, so the fused handler can never fault on
/// the operation itself. Division and modulus stay unfused — their
/// divide-by-zero fault is data-dependent.
pub fn fusable_alu(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        ADDU | SUBU | MULU | MULI | BANDU | BORU | BXORU | LSHI | LSHU | RSHI | RSHU
    )
}

/// Whether `op` may serve as the comparison of a [`Fused::CmpBr`] /
/// [`Fused::CmpImmBr`]: the integer comparisons (float compares are
/// cold and keep their generic handlers).
pub fn fusable_cmp(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        EQU | NEU | LTU | LEU | GTU | GEU | LTI | LEI | GTI | GEI
    )
}

fn is_lit(op: Opcode) -> bool {
    use Opcode::*;
    matches!(op, LIT1 | LIT2 | LIT3 | LIT4)
}

fn u16_of(operands: [u8; 4]) -> u32 {
    u32::from(u16::from_le_bytes([operands[0], operands[1]]))
}

/// Fuse a resolved step trace into a superinstruction program.
///
/// `steps` is the segment's instruction trace with all operands already
/// resolved, and `insn` reads a step's operator and operand bytes;
/// `resolve_label` maps a branch-label index to its code offset, and
/// `resolve_global` maps a global-table index to its load-time address.
/// Both return `None` for indices the program does not define — such
/// steps stay unfused so the runtime reports the exact same `BadLabel` /
/// `BadGlobal` fault the reference walker would.
pub fn fuse_steps<S>(
    steps: &[S],
    insn: impl Fn(&S) -> (Opcode, [u8; 4]),
    mut resolve_label: impl FnMut(u16) -> Option<u32>,
    mut resolve_global: impl FnMut(u16) -> Option<u32>,
) -> Vec<SuperOp> {
    use Opcode::*;
    let mut out = Vec::with_capacity(steps.len());
    let mut i = 0usize;
    let mut resolve = |operands: [u8; 4]| -> Option<u32> {
        resolve_label(u16::from_le_bytes([operands[0], operands[1]]))
    };
    while i < steps.len() {
        let (op, operands) = insn(&steps[i]);
        let op_at = |j: usize| steps.get(j).map(|s| insn(s).0);
        let next = op_at(i + 1);
        let (fused, n) = match op {
            ADDRLP | ADDRFP => {
                let off = u16_of(operands);
                match (op, next) {
                    (ADDRLP, Some(INDIRU)) => (Fused::LoadLocal { off }, 2),
                    (ADDRLP, Some(ASGNU)) => (Fused::StoreLocal { off }, 2),
                    (ADDRLP, _) => (Fused::PushLocal { off }, 1),
                    (_, Some(INDIRU)) => (Fused::LoadArg { off }, 2),
                    (_, Some(ASGNU)) => (Fused::StoreArg { off }, 2),
                    _ => (Fused::PushArg { off }, 1),
                }
            }
            ADDRGP => match resolve_global(u16::from_le_bytes([operands[0], operands[1]])) {
                Some(addr) => match next {
                    Some(INDIRU) => (Fused::LoadGlobal { addr }, 2),
                    Some(ASGNU) => (Fused::StoreGlobal { addr }, 2),
                    _ => (Fused::Push { imm: addr }, 1),
                },
                None => (Fused::Exec { op, operands }, 1),
            },
            _ if is_lit(op) => {
                let imm = u32::from_le_bytes(operands);
                match next {
                    Some(cmp) if fusable_cmp(cmp) && op_at(i + 2) == Some(BrTrue) => {
                        match resolve(insn(&steps[i + 2]).1) {
                            Some(target) => (Fused::CmpImmBr { cmp, imm, target }, 3),
                            None => (Fused::Push { imm }, 1),
                        }
                    }
                    Some(alu) if fusable_alu(alu) => (Fused::AluImm { op: alu, imm }, 2),
                    _ => (Fused::Push { imm }, 1),
                }
            }
            _ if fusable_cmp(op) && next == Some(BrTrue) => match resolve(insn(&steps[i + 1]).1) {
                Some(target) => (Fused::CmpBr { cmp: op, target }, 2),
                None => (Fused::Exec { op, operands }, 1),
            },
            BrTrue => match resolve(operands) {
                Some(target) => (Fused::BrTruePop { target }, 1),
                None => (Fused::Exec { op, operands }, 1),
            },
            JUMPV => match resolve(operands) {
                Some(target) => (Fused::Jump { target }, 1),
                None => (Fused::Exec { op, operands }, 1),
            },
            _ => (Fused::Exec { op, operands }, 1),
        };
        out.push(SuperOp {
            fused,
            last: (i + n - 1) as u32,
        });
        i += n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use Opcode::*;

    fn lit(v: u32) -> (Opcode, [u8; 4]) {
        (LIT1, v.to_le_bytes())
    }

    fn op2(op: Opcode, v: u16) -> (Opcode, [u8; 4]) {
        let b = v.to_le_bytes();
        (op, [b[0], b[1], 0, 0])
    }

    fn op0(op: Opcode) -> (Opcode, [u8; 4]) {
        (op, [0; 4])
    }

    #[test]
    fn loop_head_fuses_to_load_cmp_branch() {
        // ADDRLP 0; INDIRU; LIT1 10; LTI; BrTrue 1 — the counting-loop
        // header — must become exactly LoadLocal + CmpImmBr.
        let steps = [
            op2(ADDRLP, 0),
            op0(INDIRU),
            lit(10),
            op0(LTI),
            op2(BrTrue, 1),
        ];
        let fused = fuse_steps(&steps, |s| *s, |l| Some(u32::from(l) * 100), |_| None);
        assert_eq!(
            fused,
            vec![
                SuperOp {
                    fused: Fused::LoadLocal { off: 0 },
                    last: 1
                },
                SuperOp {
                    fused: Fused::CmpImmBr {
                        cmp: LTI,
                        imm: 10,
                        target: 100
                    },
                    last: 4
                },
            ]
        );
    }

    #[test]
    fn store_and_alu_imm_fuse() {
        // ADDRLP 8; INDIRU; LIT1 3; ADDU; ADDRLP 8; ASGNU
        let steps = [
            op2(ADDRLP, 8),
            op0(INDIRU),
            lit(3),
            op0(ADDU),
            op2(ADDRLP, 8),
            op0(ASGNU),
        ];
        let fused = fuse_steps(&steps, |s| *s, |_| Some(0), |_| None);
        assert_eq!(fused.len(), 3);
        assert_eq!(fused[0].fused, Fused::LoadLocal { off: 8 });
        assert_eq!(fused[1].fused, Fused::AluImm { op: ADDU, imm: 3 });
        assert_eq!(fused[1].last, 3);
        assert_eq!(fused[2].fused, Fused::StoreLocal { off: 8 });
        assert_eq!(fused[2].last, 5);
    }

    #[test]
    fn unresolvable_labels_stay_generic() {
        // A branch whose label the procedure does not define must stay
        // an Exec step so the runtime faults exactly like the walker.
        let steps = [op0(EQU), op2(BrTrue, 7), op2(JUMPV, 7)];
        let fused = fuse_steps(&steps, |s| *s, |_| None, |_| None);
        assert_eq!(fused.len(), 3);
        for (s, f) in steps.iter().zip(&fused) {
            assert!(matches!(f.fused, Fused::Exec { op, .. } if op == s.0));
        }
    }

    #[test]
    fn globals_fuse_when_the_address_resolves() {
        // ADDRGP 2; INDIRU — load through a resolvable global — fuses
        // to LoadGlobal; ADDRGP 2; ASGNU to StoreGlobal; a bare ADDRGP
        // becomes a Push of the resolved address. An index the table
        // does not cover stays Exec so the runtime faults BadGlobal
        // exactly like the walker.
        let globals = [64u32, 68, 72];
        let resolve = |i: u16| globals.get(usize::from(i)).copied();
        let steps = [op2(ADDRGP, 2), op0(INDIRU)];
        let fused = fuse_steps(&steps, |s| *s, |_| None, resolve);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].fused, Fused::LoadGlobal { addr: 72 });
        assert_eq!(fused[0].last, 1);

        let steps = [op2(ADDRGP, 1), op0(ASGNU)];
        let fused = fuse_steps(&steps, |s| *s, |_| None, resolve);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].fused, Fused::StoreGlobal { addr: 68 });

        let steps = [op2(ADDRGP, 0), op0(RETV)];
        let fused = fuse_steps(&steps, |s| *s, |_| None, resolve);
        assert_eq!(fused[0].fused, Fused::Push { imm: 64 });

        let steps = [op2(ADDRGP, 9), op0(INDIRU)];
        let fused = fuse_steps(&steps, |s| *s, |_| None, resolve);
        assert_eq!(fused.len(), 2);
        assert!(matches!(fused[0].fused, Fused::Exec { op: ADDRGP, .. }));
    }

    #[test]
    fn division_never_takes_an_immediate() {
        // DIVU can fault on a zero divisor; it must keep the generic
        // handler even with a literal right operand.
        let steps = [lit(0), op0(DIVU)];
        let fused = fuse_steps(&steps, |s| *s, |_| Some(0), |_| None);
        assert_eq!(fused.len(), 2);
        assert_eq!(fused[0].fused, Fused::Push { imm: 0 });
        assert!(matches!(fused[1].fused, Fused::Exec { op: DIVU, .. }));
    }

    #[test]
    fn every_step_is_covered_exactly_once() {
        // Fused spans must tile the trace: each superop's span starts
        // right after the previous one's `last`.
        let steps = [
            op2(ADDRFP, 0),
            op0(INDIRU),
            lit(2),
            op0(LTI),
            op2(BrTrue, 0),
            op2(ADDRFP, 4),
            op0(ASGNU),
            lit(1),
            op2(JUMPV, 1),
            op0(RETV),
        ];
        let fused = fuse_steps(&steps, |s| *s, |l| Some(u32::from(l)), |_| None);
        let mut next = 0u32;
        for s in &fused {
            assert!(s.last >= next, "span went backwards at {s:?}");
            next = s.last + 1;
        }
        assert_eq!(next as usize, steps.len());
    }
}
