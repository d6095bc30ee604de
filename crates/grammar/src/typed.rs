//! A typed initial grammar — the paper's §6 exploration:
//!
//! > "The current grammar effectively tracks stack height. A more complex
//! > grammar that tracked the datatype of each element on the stack did
//! > not do significantly better."
//!
//! This variant replaces the single `<v>` non-terminal with one value
//! non-terminal per machine class — `<vi>` (integers and pointers),
//! `<vf>` (floats), `<vd>` (doubles) — and gives every operator one flat
//! rule in its result class (no `<v0>`/`<v1>`/`<v2>` grouping):
//!
//! ```text
//! <start> ::= ε | <start> <x>
//! <vi> ::= <vi> <vi> ADDU | <vd> CVDI | LIT1 <byte> | …
//! <vd> ::= <vd> <vd> ADDD | <vi> CVID | <vi> INDIRD | …
//! <x>  ::= <vi> <vi> ASGNU | <vd> <vi> ASGND | RETV | …
//! ```
//!
//! Valid bytecode still parses deterministically (every operator's
//! operand and result classes are fixed), so the training parser remains
//! a linear stack parser. The A5 ablation trains both grammars on the
//! same corpus and compares.

use crate::forest::{Forest, ForestParseError, NodeId};
use crate::grammar::{Grammar, RuleId, RuleOrigin};
use crate::symbol::{Nt, Symbol, Terminal};
use pgr_bytecode::{Opcode, TypeSuffix};

/// The tracked machine classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// 32-bit integers, pointers, chars, shorts.
    I,
    /// Single-precision floats.
    F,
    /// Double-precision floats.
    D,
}

/// Operand and result classes for one operator.
#[derive(Debug, Clone)]
pub struct OpSig {
    /// Stack operands, in push order (leftmost = pushed first).
    pub operands: Vec<Class>,
    /// Result class (`None` for statements).
    pub result: Option<Class>,
}

/// The class signature of an operator.
///
/// # Panics
///
/// Panics for `LABELV`, which has no signature.
pub fn signature(op: Opcode) -> OpSig {
    use Class::*;
    use Opcode::*;
    let sig = |operands: &[Class], result: Option<Class>| OpSig {
        operands: operands.to_vec(),
        result,
    };
    // Class of this operator's *suffix* where it describes a value.
    let suffix_class = || match op.suffix() {
        TypeSuffix::F => F,
        TypeSuffix::D => D,
        _ => I,
    };
    match op {
        LABELV => panic!("LABELV has no signature"),
        // Binary value operators work within the suffix class, except
        // comparisons, which consume the comparand class and yield a
        // flag (I).
        _ if op.kind() == pgr_bytecode::StackKind::V2 => {
            let name = op.name();
            let is_cmp = ["EQ", "NE", "LT", "LE", "GT", "GE"]
                .iter()
                .any(|p| name.starts_with(p));
            let c = suffix_class();
            if is_cmp {
                sig(&[c, c], Some(I))
            } else {
                sig(&[c, c], Some(c))
            }
        }
        // Conversions and indirections cross classes.
        CVDF => sig(&[D], Some(F)),
        CVDI => sig(&[D], Some(I)),
        CVFD => sig(&[F], Some(D)),
        CVFI => sig(&[F], Some(I)),
        CVID => sig(&[I], Some(D)),
        CVIF => sig(&[I], Some(F)),
        CVI1I4 | CVI2I4 | CVU1U4 | CVU2U4 | BCOMU => sig(&[I], Some(I)),
        INDIRC | INDIRS | INDIRU => sig(&[I], Some(I)),
        INDIRF => sig(&[I], Some(F)),
        INDIRD => sig(&[I], Some(D)),
        NEGD => sig(&[D], Some(D)),
        NEGF => sig(&[F], Some(F)),
        NEGI => sig(&[I], Some(I)),
        // Calls pop a procedure address.
        CALLD => sig(&[I], Some(D)),
        CALLF => sig(&[I], Some(F)),
        CALLU => sig(&[I], Some(I)),
        CALLV => sig(&[I], None),
        // Value leaves.
        ADDRFP | ADDRGP | ADDRLP | LIT1 | LIT2 | LIT3 | LIT4 => sig(&[], Some(I)),
        LocalCALLD => sig(&[], Some(D)),
        LocalCALLF => sig(&[], Some(F)),
        LocalCALLU => sig(&[], Some(I)),
        LocalCALLV => sig(&[], None),
        // Stores pop the value, then the address (value pushed first).
        ASGNB => sig(&[I, I], None),
        ASGNC | ASGNS | ASGNU => sig(&[I, I], None),
        ASGNF => sig(&[F, I], None),
        ASGND => sig(&[D, I], None),
        // Argument/flow statements.
        ARGB | ARGU => sig(&[I], None),
        ARGF => sig(&[F], None),
        ARGD => sig(&[D], None),
        BrTrue => sig(&[I], None),
        POPU => sig(&[I], None),
        POPF => sig(&[F], None),
        POPD => sig(&[D], None),
        RETU => sig(&[I], None),
        RETF => sig(&[F], None),
        RETD => sig(&[D], None),
        JUMPV | RETV => sig(&[], None),
        _ => unreachable!("all opcodes covered"),
    }
}

/// The typed grammar plus the lookup tables for its forest parser.
#[derive(Debug, Clone)]
pub struct TypedGrammar {
    /// The grammar (expandable, like the untyped one).
    pub grammar: Grammar,
    /// `<start>`.
    pub nt_start: Nt,
    /// `<x>`.
    pub nt_x: Nt,
    /// `<vi>`, `<vf>`, `<vd>`.
    pub nt_vi: Nt,
    /// See [`TypedGrammar::nt_vi`].
    pub nt_vf: Nt,
    /// See [`TypedGrammar::nt_vi`].
    pub nt_vd: Nt,
    /// `<byte>`.
    pub nt_byte: Nt,
    /// `<start> ::= ε`.
    pub start_empty: RuleId,
    /// `<start> ::= <start> <x>`.
    pub start_rec: RuleId,
    /// Per opcode, its (single, flat) rule. `LIT4` maps to its `<vi>`
    /// rule here; see [`TypedGrammar::lit4_vf`].
    pub opcode_rule: Vec<Option<RuleId>>,
    /// `<vf> ::= LIT4 <byte> <byte> <byte> <byte>` — a 4-byte literal is
    /// class-flexible (it may materialize a float's bits), so the parser
    /// resolves its class at the consuming operator.
    pub lit4_vf: RuleId,
    /// `byte_rules[b]` is `<byte> ::= b`.
    pub byte_rules: Vec<RuleId>,
}

impl TypedGrammar {
    /// Non-terminal of a class.
    pub fn class_nt(&self, class: Class) -> Nt {
        match class {
            Class::I => self.nt_vi,
            Class::F => self.nt_vf,
            Class::D => self.nt_vd,
        }
    }

    /// Build the typed grammar.
    pub fn build() -> TypedGrammar {
        let mut g = Grammar::new();
        let nt_start = g.add_nt("start");
        let nt_x = g.add_nt("x");
        let nt_vi = g.add_nt("vi");
        let nt_vf = g.add_nt("vf");
        let nt_vd = g.add_nt("vd");
        let nt_byte = g.add_nt("byte");
        g.set_start(nt_start);
        let o = RuleOrigin::Original;
        let start_empty = g.add_rule(nt_start, vec![], o);
        let start_rec = g.add_rule(nt_start, vec![nt_start.into(), nt_x.into()], o);

        let class_nt = |c: Class| match c {
            Class::I => nt_vi,
            Class::F => nt_vf,
            Class::D => nt_vd,
        };
        let mut opcode_rule = vec![None; Opcode::COUNT];
        for &op in Opcode::ALL {
            if op == Opcode::LABELV {
                continue;
            }
            let sig = signature(op);
            let mut rhs: Vec<Symbol> = sig
                .operands
                .iter()
                .map(|&c| Symbol::N(class_nt(c)))
                .collect();
            rhs.push(Symbol::op(op));
            rhs.extend(std::iter::repeat_n(Symbol::N(nt_byte), op.operand_bytes()));
            let lhs = match sig.result {
                Some(c) => class_nt(c),
                None => nt_x,
            };
            opcode_rule[op as usize] = Some(g.add_rule(lhs, rhs, o));
        }
        let lit4_vf = g.add_rule(
            nt_vf,
            vec![
                Symbol::op(Opcode::LIT4),
                Symbol::N(nt_byte),
                Symbol::N(nt_byte),
                Symbol::N(nt_byte),
                Symbol::N(nt_byte),
            ],
            o,
        );
        let byte_rules: Vec<RuleId> = (0..=255u8)
            .map(|b| g.add_rule(nt_byte, vec![Symbol::byte(b)], o))
            .collect();

        TypedGrammar {
            grammar: g,
            nt_start,
            nt_x,
            nt_vi,
            nt_vf,
            nt_vd,
            nt_byte,
            start_empty,
            start_rec,
            opcode_rule,
            lit4_vf,
            byte_rules,
        }
    }

    /// Parse one segment's tokens into `forest` (deterministic typed
    /// stack parse); returns the root.
    ///
    /// # Errors
    ///
    /// Fails on malformed postfix code or a class mismatch (code that is
    /// stack-balanced but type-inconsistent, which compiled code never
    /// is).
    pub fn add_segment(
        &self,
        forest: &mut Forest,
        tokens: &[Terminal],
    ) -> Result<NodeId, ForestParseError> {
        // `None` class = a 4-byte literal whose class (vi or vf) is
        // decided by its consumer.
        let mut stack: Vec<(Option<Class>, NodeId)> = Vec::new();
        let mut statements: Vec<NodeId> = Vec::new();
        let mut i = 0usize;
        while i < tokens.len() {
            let Terminal::Op(op) = tokens[i] else {
                return Err(ForestParseError::UnexpectedToken { position: i });
            };
            let Some(rule) = self.opcode_rule[op as usize] else {
                return Err(ForestParseError::UnexpectedToken { position: i });
            };
            let sig = signature(op);
            let nbytes = op.operand_bytes();

            let mut operands: Vec<NodeId> = Vec::with_capacity(sig.operands.len());
            for &class in sig.operands.iter().rev() {
                let Some((c, node)) = stack.pop() else {
                    return Err(ForestParseError::StackUnderflow { position: i });
                };
                match c {
                    Some(c) if c == class => {}
                    // Resolve a flexible literal at its consumer.
                    None if class == Class::I => {}
                    None if class == Class::F => forest.relabel(node, self.lit4_vf),
                    // Mismatch (or a 4-byte literal used as a double).
                    _ => return Err(ForestParseError::UnexpectedToken { position: i }),
                }
                operands.push(node);
            }
            operands.reverse();
            for k in 1..=nbytes {
                match tokens.get(i + k) {
                    Some(Terminal::Byte(b)) => {
                        operands.push(forest.add_leafless(self.byte_rules[*b as usize]));
                    }
                    _ => return Err(ForestParseError::UnexpectedToken { position: i + k }),
                }
            }
            let node = forest.add_with_children(rule, &operands);
            match sig.result {
                Some(c) if op == Opcode::LIT4 => {
                    let _ = c;
                    stack.push((None, node));
                }
                Some(c) => stack.push((Some(c), node)),
                None => statements.push(node),
            }
            i += 1 + nbytes;
        }
        if !stack.is_empty() {
            return Err(ForestParseError::DanglingValues { depth: stack.len() });
        }
        let mut root = forest.add_leafless(self.start_empty);
        for x in statements {
            root = forest.add_with_children(self.start_rec, &[root, x]);
        }
        forest.finish_root(root);
        Ok(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial::tokenize_segment;
    use pgr_bytecode::{encode, Instruction};

    fn tokens(insns: &[Instruction]) -> Vec<Terminal> {
        tokenize_segment(&encode(insns)).unwrap()
    }

    #[test]
    fn grammar_shape() {
        let tg = TypedGrammar::build();
        let g = &tg.grammar;
        assert_eq!(g.rules_of(tg.nt_start).len(), 2);
        // All I-result operators live under <vi>.
        assert!(g.rules_of(tg.nt_vi).len() > 40);
        assert!(g.rules_of(tg.nt_vd).len() >= 10);
        assert_eq!(g.rules_of(tg.nt_byte).len(), 256);
        // Every rule's RHS: operands, op, bytes.
        let r = g.rule(tg.opcode_rule[Opcode::ASGND as usize].unwrap());
        assert_eq!(r.lhs, tg.nt_x);
        assert_eq!(
            r.rhs,
            vec![
                Symbol::N(tg.nt_vd),
                Symbol::N(tg.nt_vi),
                Symbol::op(Opcode::ASGND)
            ]
        );
    }

    #[test]
    fn typed_parse_accepts_compiled_shapes() {
        let tg = TypedGrammar::build();
        let mut forest = Forest::new();
        // x (int local) = (int)(1.5 + 2.5): LIT4 f; CVFD; LIT4 f; CVFD;
        // ADDD; CVDI; ADDRLP; ASGNU
        let toks = tokens(&[
            Instruction::new(Opcode::LIT4, &1.5f32.to_bits().to_le_bytes()),
            Instruction::op(Opcode::CVFD),
            Instruction::new(Opcode::LIT4, &2.5f32.to_bits().to_le_bytes()),
            Instruction::op(Opcode::CVFD),
            Instruction::op(Opcode::ADDD),
            Instruction::op(Opcode::CVDI),
            Instruction::with_u16(Opcode::ADDRLP, 0),
            Instruction::op(Opcode::ASGNU),
        ]);
        let root = tg.add_segment(&mut forest, &toks).unwrap();
        assert_eq!(forest.yield_string(&tg.grammar, root), toks);
    }

    #[test]
    fn class_mismatch_is_rejected() {
        let tg = TypedGrammar::build();
        let mut forest = Forest::new();
        // ADDD on two integer literals: stack-balanced but ill-typed.
        let toks = tokens(&[
            Instruction::new(Opcode::LIT1, &[1]),
            Instruction::new(Opcode::LIT1, &[2]),
            Instruction::op(Opcode::ADDD),
            Instruction::op(Opcode::POPD),
        ]);
        assert!(tg.add_segment(&mut forest, &toks).is_err());
    }

    #[test]
    fn typed_derivations_are_shorter_than_untyped() {
        // The flat rules skip the <v0>/<v1>/<v2> indirection, so even the
        // *initial* typed grammar derives programs in fewer steps.
        let tg = TypedGrammar::build();
        let ig = crate::initial::InitialGrammar::build();
        let toks = tokens(&[
            Instruction::with_u16(Opcode::ADDRLP, 0),
            Instruction::op(Opcode::INDIRU),
            Instruction::new(Opcode::LIT1, &[1]),
            Instruction::op(Opcode::ADDU),
            Instruction::with_u16(Opcode::ADDRLP, 0),
            Instruction::op(Opcode::ASGNU),
        ]);
        let mut tf = Forest::new();
        tg.add_segment(&mut tf, &toks).unwrap();
        let mut uf = Forest::new();
        uf.add_segment(&ig, &toks).unwrap();
        assert!(tf.live_count() < uf.live_count());
    }
}
