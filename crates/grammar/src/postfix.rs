//! The postfix stack parser over grammar symbols (§4.1, Appendix 2).
//!
//! Valid postfix code parses *uniquely* under the Appendix 2 grammar:
//! every opcode belongs to exactly one of the v0/v1/v2/x0/x1/x2 groups,
//! so one left-to-right pass with a value stack recovers the tree. The
//! same pass serves two kinds of input:
//!
//! * a segment's **tokens** give the segment's tree of Appendix 2 rules
//!   ([`SharedForest::add_segment`](crate::SharedForest::add_segment)
//!   for training, [`Forest::add_segment`](crate::Forest::add_segment)
//!   for the reference, the compressor's tiler for encoding);
//! * a rule's **right-hand side**, with each non-terminal read as a
//!   *hole*, gives the fragment of Appendix 2 tree the rule stands for —
//!   its *pattern*. Every rule the expander creates is such a fragment
//!   (inlining splices one fragment into another's hole), so a shortest
//!   derivation of a segment is a minimum-cost tiling of its one tree.
//!
//! A hole of `<v>` pushes a value and a hole of `<x>` adds a statement; a
//! hole of a group non-terminal (`<v1>`, `<x2>`, …) stands for an
//! operator of that group and pops its operands like one; a `<byte>`
//! hole stands for one literal operand byte; a leading `<start>` hole
//! stands for the statements before the fragment.
//!
//! [`admit`] uses the parser to decide which grammars the compressor
//! accepts: those containing every Appendix 2 rule in which every other
//! rule's right-hand side is a sentential form of its left-hand side.

use crate::forest::ForestParseError;
use crate::grammar::{Grammar, RuleId};
use crate::initial::InitialGrammar;
use crate::symbol::{Nt, Symbol, Terminal};
use pgr_bytecode::{Opcode, StackKind};
use std::fmt;

/// Receives the nodes of a postfix parse, children before parents.
pub trait TreeBuilder {
    /// A handle to a built node.
    type Node: Copy;

    /// A non-terminal occurrence of the input: a leaf standing for any
    /// subtree rooted at `nt`.
    fn hole(&mut self, nt: Nt) -> Self::Node;

    /// An application of the Appendix 2 rule `rule` (an id of
    /// [`InitialGrammar::grammar`]) whose children, one per non-terminal
    /// of its right-hand side and in order, are `children`.
    fn node(&mut self, rule: RuleId, children: &[Self::Node]) -> Self::Node;
}

/// Parse `symbols` as a derivation of `goal` under the Appendix 2
/// grammar and build its tree with `builder`; returns the root.
///
/// Nodes are built in a fixed order — per operator its operand bytes,
/// then its group rule, then the `<v>`/`<x>` rule that places it; the
/// `<start>` spine last — so a token string always yields the same node
/// sequence.
///
/// # Errors
///
/// [`ForestParseError::UnexpectedToken`] for a symbol that cannot occur
/// where it stands (a label, a stray literal byte, a missing operand),
/// [`ForestParseError::StackUnderflow`] for an operator short of
/// operands, [`ForestParseError::DanglingValues`] for a `<start>` input
/// that leaves values on the stack, and [`ForestParseError::WrongGoal`]
/// when the symbols do not derive from `goal` in at least one step.
pub fn parse<B: TreeBuilder>(
    ig: &InitialGrammar,
    goal: Nt,
    symbols: impl IntoIterator<Item = Symbol>,
    builder: &mut B,
) -> Result<B::Node, ForestParseError> {
    let mut it = symbols.into_iter().enumerate();
    let wrong = Err(ForestParseError::WrongGoal { goal });
    if goal == ig.nt_byte {
        return match (it.next(), it.next()) {
            (Some((_, Symbol::T(Terminal::Byte(b)))), None) => {
                Ok(builder.node(ig.byte_rules[usize::from(b)], &[]))
            }
            _ => wrong,
        };
    }
    if let Some(kind) = group_kind(ig, goal) {
        let mut operands = Vec::new();
        return match it.next() {
            Some((i, Symbol::T(Terminal::Op(op)))) if op.kind() == kind => {
                let group = operator(ig, op, i, &mut it, builder, &mut operands)?;
                match it.next() {
                    None => Ok(group),
                    Some(_) => wrong,
                }
            }
            _ => wrong,
        };
    }

    let mut values: Vec<B::Node> = Vec::new();
    let mut statements: Vec<B::Node> = Vec::new();
    let mut operands: Vec<B::Node> = Vec::new();
    let mut base = None;
    // Rule applications built; zero means the input was a lone hole.
    let mut built = 0usize;
    while let Some((i, sym)) = it.next() {
        let (kind, group) = match sym {
            Symbol::T(Terminal::Op(op)) => (
                op.kind(),
                operator(ig, op, i, &mut it, builder, &mut operands)?,
            ),
            Symbol::T(Terminal::Byte(_)) => {
                return Err(ForestParseError::UnexpectedToken { position: i })
            }
            Symbol::N(nt) if nt == ig.nt_v => {
                values.push(builder.hole(nt));
                continue;
            }
            Symbol::N(nt) if nt == ig.nt_x => {
                statements.push(builder.hole(nt));
                continue;
            }
            Symbol::N(nt) if nt == ig.nt_start && i == 0 && goal == ig.nt_start => {
                base = Some(builder.hole(nt));
                continue;
            }
            Symbol::N(nt) => match group_kind(ig, nt) {
                Some(kind) => (kind, builder.hole(nt)),
                None => return Err(ForestParseError::UnexpectedToken { position: i }),
            },
        };
        let rule = match kind {
            StackKind::V0 => ig.v_leaf,
            StackKind::V1 => ig.v_unary,
            StackKind::V2 => ig.v_binary,
            StackKind::X0 => ig.x_leaf,
            StackKind::X1 => ig.x_unary,
            StackKind::X2 => ig.x_binary,
            StackKind::Label => return Err(ForestParseError::UnexpectedToken { position: i }),
        };
        let pops = kind.pops();
        if values.len() < pops {
            return Err(ForestParseError::StackUnderflow { position: i });
        }
        let mut children = [group; 3];
        children[..pops].copy_from_slice(&values[values.len() - pops..]);
        values.truncate(values.len() - pops);
        children[pops] = group;
        built += 1;
        let node = builder.node(rule, &children[..=pops]);
        if kind.pushes() {
            values.push(node);
        } else {
            statements.push(node);
        }
    }

    if goal == ig.nt_start {
        if !values.is_empty() {
            return Err(ForestParseError::DanglingValues {
                depth: values.len(),
            });
        }
        if base.is_some() && statements.is_empty() {
            return wrong;
        }
        let mut root = match base {
            Some(hole) => hole,
            None => builder.node(ig.start_empty, &[]),
        };
        for x in statements {
            root = builder.node(ig.start_rec, &[root, x]);
        }
        return Ok(root);
    }
    let root = match (goal, values.as_slice(), statements.as_slice()) {
        (g, &[v], &[]) if g == ig.nt_v => v,
        (g, &[], &[x]) if g == ig.nt_x => x,
        _ => return wrong,
    };
    if built == 0 {
        return wrong;
    }
    Ok(root)
}

/// The operator group a non-terminal names (`<v1>` → `V1`, …).
fn group_kind(ig: &InitialGrammar, nt: Nt) -> Option<StackKind> {
    [
        (ig.nt_v0, StackKind::V0),
        (ig.nt_v1, StackKind::V1),
        (ig.nt_v2, StackKind::V2),
        (ig.nt_x0, StackKind::X0),
        (ig.nt_x1, StackKind::X1),
        (ig.nt_x2, StackKind::X2),
    ]
    .into_iter()
    .find_map(|(n, kind)| (n == nt).then_some(kind))
}

/// Build the group node of `op` (at position `at`) over its operand
/// bytes, which the next symbols must supply as literal bytes or
/// `<byte>` holes.
fn operator<B: TreeBuilder>(
    ig: &InitialGrammar,
    op: Opcode,
    at: usize,
    it: &mut impl Iterator<Item = (usize, Symbol)>,
    builder: &mut B,
    operands: &mut Vec<B::Node>,
) -> Result<B::Node, ForestParseError> {
    let Some(group_rule) = ig.opcode_rule[op as usize] else {
        return Err(ForestParseError::UnexpectedToken { position: at });
    };
    operands.clear();
    for k in 1..=op.operand_bytes() {
        let operand = match it.next() {
            Some((_, Symbol::T(Terminal::Byte(b)))) => {
                builder.node(ig.byte_rules[usize::from(b)], &[])
            }
            Some((_, Symbol::N(nt))) if nt == ig.nt_byte => builder.hole(nt),
            _ => return Err(ForestParseError::UnexpectedToken { position: at + k }),
        };
        operands.push(operand);
    }
    Ok(builder.node(group_rule, operands))
}

/// Why a grammar is not one the compressor can encode against.
///
/// The compressor tiles each segment's unique Appendix 2 tree with the
/// grammar's rules, so it needs every Appendix 2 rule (or some trees
/// could not be tiled) and every other rule to be a fragment of such a
/// tree. Non-terminals are named by their Appendix 2 names; rules are
/// named by their encoding index within their non-terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inadmissible {
    /// The non-terminals are not Appendix 2's: their count, the start
    /// symbol, or the literal-byte handle differ.
    Layout {
        /// Non-terminals the grammar declares.
        nt_count: usize,
        /// The grammar's start (or byte) handle that does not match.
        handle: &'static str,
        /// Its id.
        id: u16,
    },
    /// An Appendix 2 rule is missing.
    MissingRule {
        /// The Appendix 2 rule, as an id of [`InitialGrammar::grammar`].
        rule: RuleId,
    },
    /// A rule's right-hand side is not a sentential form of its
    /// left-hand side (derivable from it in at least one step).
    NotSentential {
        /// The rule's id in the grammar.
        rule: RuleId,
        /// Its left-hand side.
        nt: Nt,
        /// Its encoding index within `nt`.
        index: usize,
    },
}

impl fmt::Display for Inadmissible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inadmissible::Layout {
                nt_count,
                handle,
                id,
            } => write!(
                f,
                "not an Appendix 2 grammar: {nt_count} non-terminals, {handle} non-terminal {id}"
            ),
            Inadmissible::MissingRule { rule } => {
                let ig = InitialGrammar::build();
                write!(
                    f,
                    "missing Appendix 2 rule {}",
                    ig.grammar.display_rule(*rule)
                )
            }
            Inadmissible::NotSentential { nt, index, .. } => {
                let ig = InitialGrammar::build();
                let name = ig.grammar.nt_name(*nt);
                write!(
                    f,
                    "rule {index} of <{name}> is not a sentential form of <{name}>"
                )
            }
        }
    }
}

impl std::error::Error for Inadmissible {}

/// A builder that only checks: every node is `()`.
struct Check;

impl TreeBuilder for Check {
    type Node = ();
    fn hole(&mut self, _: Nt) {}
    fn node(&mut self, _: RuleId, _: &[()]) {}
}

/// Decide whether the compressor accepts `grammar` with start symbol
/// `start`: its non-terminals must be laid out as Appendix 2's, every
/// Appendix 2 rule must be present (found by left- and right-hand side,
/// since decoding renumbers rules), and every live rule's right-hand
/// side must be a sentential form of its left-hand side.
///
/// Trained grammars always pass: the expander keeps every original rule
/// and only ever splices one rule's right-hand side into another's.
///
/// # Errors
///
/// The first violation found, see [`Inadmissible`].
pub fn admit(grammar: &Grammar, start: Nt) -> Result<(), Inadmissible> {
    let ig = InitialGrammar::build();
    let nt_count = grammar.nt_count();
    if nt_count != ig.grammar.nt_count() || start != ig.nt_start {
        return Err(Inadmissible::Layout {
            nt_count,
            handle: "start",
            id: start.0,
        });
    }
    for nt in (0..nt_count).map(|i| Nt(i as u16)) {
        for &want in ig.grammar.rules_of(nt) {
            let rhs = &ig.grammar.rule(want).rhs;
            if !grammar
                .rules_of(nt)
                .iter()
                .any(|&id| grammar.rule(id).rhs == *rhs)
            {
                return Err(Inadmissible::MissingRule { rule: want });
            }
        }
        for (index, &id) in grammar.rules_of(nt).iter().enumerate() {
            let rhs = grammar.rule(id).rhs.iter().copied();
            if parse(&ig, nt, rhs, &mut Check).is_err() {
                return Err(Inadmissible::NotSentential {
                    rule: id,
                    nt,
                    index,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::RuleOrigin;

    /// Renders a parse as nested `rule(children…)` text, holes as `<nt>`.
    struct Render<'a>(&'a InitialGrammar, Vec<String>);

    impl TreeBuilder for Render<'_> {
        type Node = usize;
        fn hole(&mut self, nt: Nt) -> usize {
            self.1.push(format!("<{}>", self.0.grammar.nt_name(nt)));
            self.1.len() - 1
        }
        fn node(&mut self, rule: RuleId, children: &[usize]) -> usize {
            let r = self.0.grammar.rule(rule);
            let head = match r.rhs.first() {
                Some(Symbol::T(t)) => t.to_string(),
                _ => self.0.grammar.nt_name(r.lhs).to_string(),
            };
            let kids: Vec<&str> = children.iter().map(|&c| self.1[c].as_str()).collect();
            self.1.push(format!("{head}({})", kids.join(",")));
            self.1.len() - 1
        }
    }

    fn render(ig: &InitialGrammar, goal: Nt, rhs: &[Symbol]) -> Result<String, ForestParseError> {
        let mut r = Render(ig, Vec::new());
        let root = parse(ig, goal, rhs.iter().copied(), &mut r)?;
        Ok(r.1[root].clone())
    }

    #[test]
    fn inlined_right_hand_sides_parse_as_fragments() {
        let ig = InitialGrammar::build();
        let (v, x, b) = (ig.nt_v, ig.nt_x, ig.nt_byte);
        let op = Symbol::op;
        // <start> ::= <start> <v> <v> ASGNU
        assert_eq!(
            render(
                &ig,
                ig.nt_start,
                &[ig.nt_start.into(), v.into(), v.into(), op(Opcode::ASGNU)]
            )
            .unwrap(),
            "start(<start>,x(<v>,<v>,ASGNU()))"
        );
        // <v> ::= <v0> <v1>
        assert_eq!(
            render(&ig, v, &[ig.nt_v0.into(), ig.nt_v1.into()]).unwrap(),
            "v(v(<v0>),<v1>)"
        );
        // <x> ::= LIT1 <byte> <x1>
        assert_eq!(
            render(&ig, x, &[op(Opcode::LIT1), b.into(), ig.nt_x1.into()]).unwrap(),
            "x(v(LIT1(<byte>)),<x1>)"
        );
        // <v0> ::= LIT1 7 and <byte> ::= 7
        assert_eq!(
            render(&ig, ig.nt_v0, &[op(Opcode::LIT1), Symbol::byte(7)]).unwrap(),
            "LIT1(7())"
        );
        assert_eq!(render(&ig, b, &[Symbol::byte(7)]).unwrap(), "7()");
        // <start> ::= <x> (ε inlined at slot 0)
        assert_eq!(
            render(&ig, ig.nt_start, &[x.into()]).unwrap(),
            "start(start(),<x>)"
        );
    }

    #[test]
    fn non_sentential_right_hand_sides_are_rejected() {
        let ig = InitialGrammar::build();
        let (v, x) = (ig.nt_v, ig.nt_x);
        let wrong_v = Err(ForestParseError::WrongGoal { goal: v });
        // A lone hole of the goal derives it in zero steps.
        assert_eq!(render(&ig, v, &[v.into()]), wrong_v);
        assert_eq!(
            render(&ig, ig.nt_start, &[ig.nt_start.into()]),
            Err(ForestParseError::WrongGoal { goal: ig.nt_start })
        );
        // A statement is not a value, two values are not one.
        assert_eq!(render(&ig, v, &[x.into()]), wrong_v);
        assert_eq!(render(&ig, v, &[v.into(), v.into()]), wrong_v);
        // A binary operator needs two operands; a group needs its op.
        assert_eq!(
            render(&ig, x, &[v.into(), ig.nt_x2.into()]),
            Err(ForestParseError::StackUnderflow { position: 1 })
        );
        assert_eq!(
            render(&ig, ig.nt_v1, &[Symbol::op(Opcode::ADDU)]),
            Err(ForestParseError::WrongGoal { goal: ig.nt_v1 })
        );
        // <start> may only open a <start> fragment.
        assert_eq!(
            render(&ig, x, &[ig.nt_start.into(), x.into()]),
            Err(ForestParseError::UnexpectedToken { position: 0 })
        );
    }

    #[test]
    fn trained_style_grammars_are_admitted() {
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        let rhs = g.inlined_rhs(ig.v_unary, 0, ig.v_leaf);
        g.add_rule(
            ig.nt_v,
            rhs,
            RuleOrigin::Inlined {
                parent: ig.v_unary,
                slot: 0,
                child: ig.v_leaf,
            },
        );
        assert_eq!(admit(&g, ig.nt_start), Ok(()));
        assert!(admit(&g, ig.nt_v).is_err());
    }

    #[test]
    fn inadmissible_grammars_name_the_rule() {
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        g.add_rule(ig.nt_v, vec![Symbol::N(ig.nt_x)], RuleOrigin::Original);
        let err = admit(&g, ig.nt_start).unwrap_err();
        assert!(matches!(err, Inadmissible::NotSentential { index: 3, .. }));
        assert_eq!(
            err.to_string(),
            "rule 3 of <v> is not a sentential form of <v>"
        );

        let mut g = crate::Grammar::new();
        for nt in 0..ig.grammar.nt_count() {
            g.add_nt(ig.grammar.nt_name(Nt(nt as u16)));
        }
        let err = admit(&g, ig.nt_start).unwrap_err();
        assert_eq!(
            err,
            Inadmissible::MissingRule {
                rule: ig.start_empty
            }
        );
        assert_eq!(err.to_string(), "missing Appendix 2 rule <start> ::= ε");
    }
}
