//! Precompiled rule programs: the compressed-interpreter fast path.
//!
//! The reference `interp_nt` walks [`Grammar`] rule objects symbol by
//! symbol: every dispatch chases a `Vec<Rule>` pointer, decodes an
//! 8-byte [`Symbol`](pgr_grammar::Symbol) enum, and re-runs the operand
//! `GET` split of §5 (which operand bytes are burnt into the rule,
//! which come from the stream). None of that depends on the executing
//! program — it is all a function of the grammar — so a [`RuleProgram`]
//! snapshot, built once per grammar and shared by every run against it
//! (`Vm::with_rule_program`; `Vm::new_compressed` builds its own),
//! precompiles every rule's right-hand side into dense flat
//! **micro-ops**:
//!
//! * **Exec** — an operator: opcode byte, the pre-assembled burnt-in
//!   operand template, and a 4-bit mask of which operand slots read the
//!   stream instead (`<byte>` expansions).
//! * **Child** — descend into a non-terminal: the next stream byte
//!   selects one of its rules from a flattened per-NT table.
//! * **Corrupt** — the spot where the reference walker would fault
//!   (a literal byte not owned by an opcode, or an operand layout
//!   violation). Compiled *lazily in place* so execution that branches
//!   away before reaching the bad symbol behaves identically.
//!
//! Each micro-op packs into one `u64`; a rule is a contiguous slice of
//! them, so the walk loop in `machine.rs` touches two `u32` bounds
//! arrays and one `u64` array instead of pattern-matching symbol enums.
//! The snapshot is built from the same [`RuleTable`] packed-symbol
//! tables the reference Earley parser uses. The segments this walk
//! decodes are cached as compiled programs ([`crate::segment`]); see
//! DESIGN.md §5e for the equivalence contract.

use pgr_grammar::{Grammar, Nt, RuleTable, Terminal};

/// Micro-op kind: execute an operator.
pub const KIND_EXEC: u64 = 0;
/// Micro-op kind: descend into a child non-terminal.
pub const KIND_CHILD: u64 = 1;
/// Micro-op kind: fault like the reference walker would at this symbol.
pub const KIND_CORRUPT: u64 = 2;

/// Corrupt-derivation details a rule can compile to, indexed by
/// [`detail_index`]. The strings match the reference walker exactly.
pub const CORRUPT_DETAILS: [&str; 2] = [
    "literal byte not owned by an opcode",
    "operand layout violated",
];

// Micro-op u64 layout:
//   bits  0..32  operand template (little-endian [u8; 4])
//   bits 32..40  opcode byte (Exec) or CORRUPT_DETAILS index (Corrupt)
//   bits 40..44  stream-operand mask: bit i = operand byte i comes from
//                the stream (also used by Corrupt for the slots consumed
//                before the violation)
//   bits 44..46  kind
//   bits 46..62  child non-terminal index (Child)

/// The kind of a packed micro-op.
#[inline]
pub fn kind(w: u64) -> u64 {
    (w >> 44) & 0b11
}

/// The burnt-in operand template of an Exec micro-op.
#[inline]
pub fn template(w: u64) -> [u8; 4] {
    (w as u32).to_le_bytes()
}

/// The opcode byte of an Exec micro-op.
#[inline]
pub fn opcode_byte(w: u64) -> u8 {
    (w >> 32) as u8
}

/// The [`CORRUPT_DETAILS`] index of a Corrupt micro-op.
#[inline]
pub fn detail_index(w: u64) -> usize {
    ((w >> 32) & 0xff) as usize
}

/// The stream-operand mask of an Exec or Corrupt micro-op.
#[inline]
pub fn stream_mask(w: u64) -> u32 {
    ((w >> 40) & 0xf) as u32
}

/// The child non-terminal index of a Child micro-op.
#[inline]
pub fn child_nt(w: u64) -> u16 {
    (w >> 46) as u16
}

fn pack_exec(op: u8, mask: u32, tpl: [u8; 4]) -> u64 {
    u64::from(u32::from_le_bytes(tpl))
        | (u64::from(op) << 32)
        | (u64::from(mask) << 40)
        | (KIND_EXEC << 44)
}

fn pack_child(nt: u16) -> u64 {
    (KIND_CHILD << 44) | (u64::from(nt) << 46)
}

fn pack_corrupt(detail: u64, mask: u32) -> u64 {
    (detail << 32) | (u64::from(mask) << 40) | (KIND_CORRUPT << 44)
}

/// A grammar compiled to flat micro-op programs, one per rule, plus the
/// flattened per-non-terminal rule-selection tables. Immutable once
/// built; shared by every run against the grammar.
#[derive(Debug)]
pub struct RuleProgram {
    /// All rules' micro-ops, concatenated.
    ops: Vec<u64>,
    /// `ops[rule_bounds[r] .. rule_bounds[r + 1]]` is rule slot `r`'s
    /// program (empty for tombstones).
    rule_bounds: Vec<u32>,
    /// `nt_rules[nt_bounds[nt] .. nt_bounds[nt + 1]]` are the live rule
    /// slots of `nt`, in encoding-index order: the stream byte indexes
    /// this range directly.
    nt_bounds: Vec<u32>,
    nt_rules: Vec<u32>,
    start: Nt,
    byte_nt: Nt,
}

impl RuleProgram {
    /// Compile `grammar` (with the given start and `<byte>`
    /// non-terminals) into micro-op programs.
    pub fn build(grammar: &Grammar, start: Nt, byte_nt: Nt) -> RuleProgram {
        let table = RuleTable::build(grammar);
        let slots = table.rule_slots();
        let mut ops = Vec::new();
        let mut rule_bounds = Vec::with_capacity(slots + 1);
        rule_bounds.push(0);
        for r in 0..slots {
            compile_rule(&table, pgr_grammar::RuleId(r as u32), byte_nt, &mut ops);
            rule_bounds.push(ops.len() as u32);
        }
        let mut nt_bounds = Vec::with_capacity(table.nt_count() + 1);
        let mut nt_rules = Vec::new();
        nt_bounds.push(0);
        for nt in 0..table.nt_count() {
            nt_rules.extend(table.rules_of(Nt(nt as u16)).iter().map(|r| r.0));
            nt_bounds.push(nt_rules.len() as u32);
        }
        RuleProgram {
            ops,
            rule_bounds,
            nt_bounds,
            nt_rules,
            start,
            byte_nt,
        }
    }

    /// The start non-terminal.
    #[inline]
    pub fn start(&self) -> Nt {
        self.start
    }

    /// The `<byte>` non-terminal.
    pub fn byte_nt(&self) -> Nt {
        self.byte_nt
    }

    /// The micro-op at `ip`.
    #[inline]
    pub fn op(&self, ip: u32) -> u64 {
        self.ops[ip as usize]
    }

    /// Half-open micro-op range of rule slot `slot`.
    #[inline]
    pub fn rule_range(&self, slot: u32) -> (u32, u32) {
        (
            self.rule_bounds[slot as usize],
            self.rule_bounds[slot as usize + 1],
        )
    }

    /// Select a rule of `nt` by stream byte (the rule's encoding index),
    /// or `None` when the byte is out of range.
    #[inline]
    pub fn select(&self, nt: u16, byte: u8) -> Option<u32> {
        let lo = self.nt_bounds[usize::from(nt)] as usize;
        let hi = self.nt_bounds[usize::from(nt) + 1] as usize;
        let i = lo + usize::from(byte);
        (i < hi).then(|| self.nt_rules[i])
    }

    /// Total micro-ops compiled (the `vm.ruleprog.micro_ops` gauge).
    pub fn micro_ops(&self) -> usize {
        self.ops.len()
    }

    /// Approximate resident size in bytes (the `vm.ruleprog.bytes`
    /// gauge).
    pub fn table_bytes(&self) -> usize {
        self.ops.len() * size_of::<u64>()
            + self.rule_bounds.len() * size_of::<u32>()
            + self.nt_bounds.len() * size_of::<u32>()
            + self.nt_rules.len() * size_of::<u32>()
    }
}

/// Compile one rule's right-hand side into micro-ops, mirroring the
/// reference walker's semantics symbol by symbol: non-terminals become
/// Child ops, operators fold their operand layout into one Exec op, and
/// any symbol the reference would fault on becomes a Corrupt op that
/// ends the program (everything past it is unreachable).
fn compile_rule(table: &RuleTable, rule: pgr_grammar::RuleId, byte_nt: Nt, ops: &mut Vec<u64>) {
    let rhs = table.rhs(rule);
    let mut i = 0;
    while i < rhs.len() {
        let sym = rhs[i];
        if let Some(nt) = sym.nt() {
            ops.push(pack_child(nt.0));
            i += 1;
            continue;
        }
        let idx = sym.terminal_index().expect("terminal") as usize;
        let op = match Terminal::from_index(idx) {
            Terminal::Op(op) => op,
            Terminal::Byte(_) => {
                // The reference faults on a literal byte that no opcode
                // owns as an operand.
                ops.push(pack_corrupt(0, 0));
                return;
            }
        };
        let n = op.operand_bytes();
        let mut tpl = [0u8; 4];
        let mut mask = 0u32;
        for (slot, t) in tpl.iter_mut().enumerate().take(n) {
            match rhs.get(i + 1 + slot).map(|s| s.unpack()) {
                Some(pgr_grammar::Symbol::T(Terminal::Byte(b))) => *t = b,
                Some(pgr_grammar::Symbol::N(nt)) if nt == byte_nt => mask |= 1 << slot,
                // Operand layout violated: the reference consumes the
                // stream bytes of the slots before this one, then
                // faults — Corrupt carries that partial mask.
                _ => {
                    ops.push(pack_corrupt(1, mask));
                    return;
                }
            }
        }
        ops.push(pack_exec(op as u8, mask, tpl));
        i += 1 + n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_bytecode::Opcode;
    use pgr_grammar::InitialGrammar;

    #[test]
    fn micro_op_fields_roundtrip() {
        let w = pack_exec(Opcode::LIT4 as u8, 0b1010, [1, 0, 3, 0]);
        assert_eq!(kind(w), KIND_EXEC);
        assert_eq!(opcode_byte(w), Opcode::LIT4 as u8);
        assert_eq!(stream_mask(w), 0b1010);
        assert_eq!(template(w), [1, 0, 3, 0]);

        let c = pack_child(u16::MAX);
        assert_eq!(kind(c), KIND_CHILD);
        assert_eq!(child_nt(c), u16::MAX);

        let k = pack_corrupt(1, 0b11);
        assert_eq!(kind(k), KIND_CORRUPT);
        assert_eq!(detail_index(k), 1);
        assert_eq!(stream_mask(k), 0b11);
        assert_eq!(CORRUPT_DETAILS[detail_index(k)], "operand layout violated");
    }

    #[test]
    fn initial_grammar_compiles_cleanly() {
        let ig = InitialGrammar::build();
        let rp = RuleProgram::build(&ig.grammar, ig.nt_start, ig.nt_byte);
        assert!(rp.micro_ops() > 0);
        assert!(rp.table_bytes() > 0);
        assert_eq!(rp.start(), ig.nt_start);
        assert_eq!(rp.byte_nt(), ig.nt_byte);
        // Every rule except the 256 standalone `<byte>` literals is
        // well-formed; a `<byte>` rule walked as a child faults in the
        // reference too, so it compiles to exactly one Corrupt op.
        for r in 0..ig.grammar.rule_slots() {
            let id = pgr_grammar::RuleId(r as u32);
            let (lo, hi) = rp.rule_range(id.0);
            if ig.grammar.rule(id).lhs == ig.nt_byte {
                assert_eq!(hi - lo, 1);
                assert_eq!(kind(rp.op(lo)), KIND_CORRUPT, "byte rule {r}");
                assert_eq!(
                    CORRUPT_DETAILS[detail_index(rp.op(lo))],
                    "literal byte not owned by an opcode"
                );
                continue;
            }
            for ip in lo..hi {
                assert_ne!(kind(rp.op(ip)), KIND_CORRUPT, "rule {r} miscompiled");
            }
        }
        // Selection mirrors the grammar's encoding-index order.
        for nt in 0..ig.grammar.nt_count() {
            let nt = pgr_grammar::Nt(nt as u16);
            let rules = ig.grammar.rules_of(nt);
            for (i, &r) in rules.iter().enumerate() {
                assert_eq!(rp.select(nt.0, i as u8), Some(r.0));
            }
            // A byte past the live range selects nothing (except for
            // `<byte>`, whose 256 rules fill the whole index space).
            if rules.len() < 256 {
                assert_eq!(rp.select(nt.0, rules.len() as u8), None);
            }
        }
    }

    #[test]
    fn operator_operands_fold_into_one_exec_op() {
        // In the initial grammar every operator rule is
        // `<op> ::= OP <byte>^n`, so each compiles to exactly one Exec
        // micro-op with all operand slots stream-sourced.
        let ig = InitialGrammar::build();
        let rp = RuleProgram::build(&ig.grammar, ig.nt_start, ig.nt_byte);
        let rule = ig.rule_for_opcode(Opcode::LIT4);
        let (lo, hi) = rp.rule_range(rule.0);
        assert_eq!(hi - lo, 1);
        let w = rp.op(lo);
        assert_eq!(kind(w), KIND_EXEC);
        assert_eq!(opcode_byte(w), Opcode::LIT4 as u8);
        assert_eq!(stream_mask(w), 0b1111);
        assert_eq!(template(w), [0, 0, 0, 0]);
    }
}
