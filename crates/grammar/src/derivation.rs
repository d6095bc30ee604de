//! Leftmost derivations: the compressed representation of a program.
//!
//! "We describe a sequence by its leftmost derivation with respect to the
//! grammar. The derivation is a list of the rules used to expand the
//! leftmost non-terminal in each sentential form, where each rule is
//! represented as an index: the *i*th rule for a non-terminal represented
//! as the index *i*" (§4.1). With every non-terminal holding at most 256
//! rules, each step encodes as one byte — the compressed bytecode.

use crate::forest::{Forest, NodeId};
use crate::grammar::{Grammar, RuleId};
use crate::symbol::{Nt, Symbol, Terminal};
use std::fmt;

/// A leftmost derivation: the rule sequence of a preorder traversal of a
/// parse tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Derivation(pub Vec<RuleId>);

/// An error expanding or decoding a derivation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerivationError {
    /// A derivation step's rule does not expand the leftmost
    /// non-terminal.
    WrongNonTerminal {
        /// The failing step.
        step: usize,
        /// The leftmost pending non-terminal.
        expected: Nt,
        /// The rule's left-hand side.
        found: Nt,
    },
    /// The derivation ended with non-terminals still unexpanded.
    Incomplete {
        /// How many non-terminals remain.
        remaining: usize,
    },
    /// A byte index named a rule the non-terminal does not have.
    BadRuleIndex {
        /// The failing step.
        step: usize,
        /// The non-terminal being expanded.
        nt: Nt,
        /// The out-of-range rule index.
        index: u8,
    },
    /// The byte stream ended mid-derivation.
    Truncated {
        /// The step at which bytes ran out.
        step: usize,
    },
}

impl fmt::Display for DerivationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DerivationError::WrongNonTerminal {
                step,
                expected,
                found,
            } => write!(
                f,
                "step {step}: rule expands {found} but leftmost non-terminal is {expected}"
            ),
            DerivationError::Incomplete { remaining } => {
                write!(
                    f,
                    "derivation ends with {remaining} unexpanded non-terminals"
                )
            }
            DerivationError::BadRuleIndex { step, nt, index } => {
                write!(f, "step {step}: {nt} has no rule {index}")
            }
            DerivationError::Truncated { step } => {
                write!(f, "byte stream ends at derivation step {step}")
            }
        }
    }
}

impl std::error::Error for DerivationError {}

impl Derivation {
    /// Number of derivation steps (= compressed size in bytes).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the derivation has no steps.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Extract the leftmost derivation of the parse tree rooted at
    /// `root`: the preorder rule sequence (§4.1).
    pub fn from_tree(forest: &Forest, root: NodeId) -> Derivation {
        let mut rules = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            rules.push(forest.node(id).rule);
            let first = stack.len();
            stack.extend(forest.children(id));
            stack[first..].reverse();
        }
        Derivation(rules)
    }

    /// Expand the derivation into its terminal string.
    ///
    /// # Errors
    ///
    /// Fails if the rule sequence is not a valid leftmost derivation of
    /// `start` (wrong non-terminal at a step, or unexpanded non-terminals
    /// at the end).
    pub fn expand(&self, grammar: &Grammar, start: Nt) -> Result<Vec<Terminal>, DerivationError> {
        let mut out = Vec::new();
        // Sentential-form suffix, in reverse (top = leftmost pending).
        let mut pending: Vec<Symbol> = vec![Symbol::N(start)];
        let mut steps = self.0.iter();
        let mut step = 0usize;
        while let Some(sym) = pending.pop() {
            match sym {
                Symbol::T(t) => out.push(t),
                Symbol::N(nt) => {
                    let Some(&rule_id) = steps.next() else {
                        return Err(DerivationError::Incomplete {
                            remaining: 1 + pending
                                .iter()
                                .filter(|s| s.nonterminal().is_some())
                                .count(),
                        });
                    };
                    let rule = grammar.rule(rule_id);
                    if rule.lhs != nt {
                        return Err(DerivationError::WrongNonTerminal {
                            step,
                            expected: nt,
                            found: rule.lhs,
                        });
                    }
                    pending.extend(rule.rhs.iter().rev());
                    step += 1;
                }
            }
        }
        if steps.next().is_some() {
            // Extra trailing rules: treat as incomplete usage error.
            return Err(DerivationError::Incomplete { remaining: 0 });
        }
        Ok(out)
    }

    /// Encode the derivation as one byte per step, using each rule's
    /// index within its non-terminal. `index_map` comes from
    /// [`Grammar::rule_index_map`].
    ///
    /// # Panics
    ///
    /// Panics if a rule has been removed from the grammar (its index is
    /// unknown) or its index exceeds 255.
    pub fn to_bytes(&self, index_map: &[usize]) -> Vec<u8> {
        self.0
            .iter()
            .map(|id| {
                let idx = index_map[id.index()];
                assert!(idx <= 255, "rule index {idx} does not fit a byte");
                idx as u8
            })
            .collect()
    }

    /// Decode one complete derivation of `start` from the front of
    /// `bytes`; returns the derivation and the number of bytes consumed.
    ///
    /// This is the decompressor's core loop and mirrors what the
    /// compressed-bytecode interpreter does when it walks a derivation.
    ///
    /// # Errors
    ///
    /// Fails if a byte names a rule its non-terminal does not have, or if
    /// the stream ends mid-derivation.
    pub fn from_bytes(
        grammar: &Grammar,
        start: Nt,
        bytes: &[u8],
    ) -> Result<(Derivation, usize), DerivationError> {
        let mut rules = Vec::new();
        let mut pending: Vec<Nt> = vec![start];
        let mut pos = 0usize;
        while let Some(nt) = pending.pop() {
            let Some(&b) = bytes.get(pos) else {
                return Err(DerivationError::Truncated { step: rules.len() });
            };
            let of_nt = grammar.rules_of(nt);
            let Some(&rule_id) = of_nt.get(b as usize) else {
                return Err(DerivationError::BadRuleIndex {
                    step: rules.len(),
                    nt,
                    index: b,
                });
            };
            pos += 1;
            rules.push(rule_id);
            let rule = grammar.rule(rule_id);
            pending.extend(rule.rhs.iter().rev().filter_map(|s| s.nonterminal()));
        }
        Ok((Derivation(rules), pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::Forest;
    use crate::initial::{tokenize_segment, InitialGrammar};
    use pgr_bytecode::{encode, Instruction, Opcode};

    fn sample_tokens() -> Vec<Terminal> {
        let code = encode(&[
            Instruction::with_u16(Opcode::ADDRFP, 0),
            Instruction::op(Opcode::INDIRU),
            Instruction::new(Opcode::LIT1, &[0]),
            Instruction::op(Opcode::NEU),
            Instruction::with_u16(Opcode::BrTrue, 0),
        ]);
        tokenize_segment(&code).unwrap()
    }

    #[test]
    fn tree_derivation_expands_to_the_input() {
        let ig = InitialGrammar::build();
        let mut forest = Forest::new();
        let tokens = sample_tokens();
        let root = forest.add_segment(&ig, &tokens).unwrap();
        let d = Derivation::from_tree(&forest, root);
        assert_eq!(d.expand(&ig.grammar, ig.nt_start).unwrap(), tokens);
        // Derivation length = number of live nodes in the tree.
        assert_eq!(d.len(), forest.live_count());
    }

    #[test]
    fn bytes_roundtrip() {
        let ig = InitialGrammar::build();
        let mut forest = Forest::new();
        let tokens = sample_tokens();
        let root = forest.add_segment(&ig, &tokens).unwrap();
        let d = Derivation::from_tree(&forest, root);
        let index_map = ig.grammar.rule_index_map();
        let bytes = d.to_bytes(&index_map);
        assert_eq!(bytes.len(), d.len());
        let (back, consumed) = Derivation::from_bytes(&ig.grammar, ig.nt_start, &bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(back, d);
        assert_eq!(back.expand(&ig.grammar, ig.nt_start).unwrap(), tokens);
    }

    #[test]
    fn concatenated_segments_decode_in_sequence() {
        let ig = InitialGrammar::build();
        let mut forest = Forest::new();
        let t1 = sample_tokens();
        let t2 = tokenize_segment(&[Opcode::RETV as u8]).unwrap();
        let r1 = forest.add_segment(&ig, &t1).unwrap();
        let r2 = forest.add_segment(&ig, &t2).unwrap();
        let index_map = ig.grammar.rule_index_map();
        let mut bytes = Derivation::from_tree(&forest, r1).to_bytes(&index_map);
        let first_len = bytes.len();
        bytes.extend(Derivation::from_tree(&forest, r2).to_bytes(&index_map));

        let (d1, used1) = Derivation::from_bytes(&ig.grammar, ig.nt_start, &bytes).unwrap();
        assert_eq!(used1, first_len);
        assert_eq!(d1.expand(&ig.grammar, ig.nt_start).unwrap(), t1);
        let (d2, used2) =
            Derivation::from_bytes(&ig.grammar, ig.nt_start, &bytes[used1..]).unwrap();
        assert_eq!(used1 + used2, bytes.len());
        assert_eq!(d2.expand(&ig.grammar, ig.nt_start).unwrap(), t2);
    }

    #[test]
    fn wrong_rule_is_rejected() {
        let ig = InitialGrammar::build();
        // <start> expanded by a <v> rule.
        let d = Derivation(vec![ig.v_leaf]);
        assert!(matches!(
            d.expand(&ig.grammar, ig.nt_start),
            Err(DerivationError::WrongNonTerminal { step: 0, .. })
        ));
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let ig = InitialGrammar::build();
        // Start rule 1 = <start> <x>, then nothing.
        let bytes = [1u8];
        assert!(matches!(
            Derivation::from_bytes(&ig.grammar, ig.nt_start, &bytes),
            Err(DerivationError::Truncated { .. })
        ));
    }

    #[test]
    fn incomplete_derivation_is_rejected() {
        let ig = InitialGrammar::build();
        let d = Derivation(vec![ig.start_rec]);
        assert!(matches!(
            d.expand(&ig.grammar, ig.nt_start),
            Err(DerivationError::Incomplete { .. })
        ));
    }

    #[test]
    fn empty_segment_is_one_byte() {
        let ig = InitialGrammar::build();
        let index_map = ig.grammar.rule_index_map();
        let d = Derivation(vec![ig.start_empty]);
        let bytes = d.to_bytes(&index_map);
        assert_eq!(bytes, vec![0]);
        let (back, used) = Derivation::from_bytes(&ig.grammar, ig.nt_start, &bytes).unwrap();
        assert_eq!(used, 1);
        assert!(back.expand(&ig.grammar, ig.nt_start).unwrap().is_empty());
    }
}
