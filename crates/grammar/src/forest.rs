//! Parse forests and the deterministic training parser (§4.1).
//!
//! "The parse produces a forest since we restart the parser from the start
//! non-terminal at every potential branch target (i.e. LABELV)." Each
//! internal node is labeled with a rule; a node's children correspond, in
//! order, to the non-terminal occurrences of the rule's right-hand side
//! (terminal leaves are implicit in the rule itself).
//!
//! Valid postfix bytecode parses *uniquely* under the initial grammar —
//! every opcode belongs to exactly one of the v0/v1/v2/x0/x1/x2 groups —
//! so the builder is the linear-time stack parser of [`postfix`], not a
//! general CFG parser.
//! The expander contracts edges of this forest (Fig. 2); the
//! [`Forest::contract`] and [`Forest::relabel`] mutators support exactly
//! that operation.

use crate::grammar::RuleId;
use crate::initial::InitialGrammar;
use crate::postfix::{self, TreeBuilder};
use crate::symbol::{Nt, Symbol, Terminal};
use std::fmt;

/// Index of a node in a [`Forest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    const NONE: NodeId = NodeId(u32::MAX);

    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A parse-tree node.
#[derive(Debug, Clone)]
pub struct Node {
    /// The rule labeling this node.
    pub rule: RuleId,
    /// One child per non-terminal occurrence of the rule's right-hand
    /// side, in left-to-right order.
    pub children: Vec<NodeId>,
    parent: NodeId,
    alive: bool,
}

impl Node {
    /// The parent node, if any.
    pub fn parent(&self) -> Option<NodeId> {
        (self.parent != NodeId::NONE).then_some(self.parent)
    }

    /// Whether the node is still part of the forest (contracted nodes are
    /// tombstoned).
    pub fn alive(&self) -> bool {
        self.alive
    }
}

/// An error from the deterministic forest parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestParseError {
    /// A `LABELV` or malformed token stream reached the parser.
    UnexpectedToken {
        /// Token position of the problem.
        position: usize,
    },
    /// An operator needed more stack operands than were available
    /// (ill-formed postfix code).
    StackUnderflow {
        /// Token position of the operator.
        position: usize,
    },
    /// The segment ended with unconsumed values on the stack (an
    /// incomplete statement).
    DanglingValues {
        /// Leftover value count.
        depth: usize,
    },
    /// The input is not derivable from the goal non-terminal in one or
    /// more steps (only right-hand sides, parsed as fragments, meet
    /// this; a token string's goal is always `<start>`).
    WrongGoal {
        /// The non-terminal the input was parsed as.
        goal: Nt,
    },
}

impl fmt::Display for ForestParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestParseError::UnexpectedToken { position } => {
                write!(f, "unexpected token at position {position}")
            }
            ForestParseError::StackUnderflow { position } => {
                write!(f, "stack underflow at position {position}")
            }
            ForestParseError::DanglingValues { depth } => {
                write!(f, "segment ends with {depth} values on the stack")
            }
            ForestParseError::WrongGoal { goal } => {
                write!(f, "input does not derive from {goal}")
            }
        }
    }
}

impl std::error::Error for ForestParseError {}

/// A forest of parse trees, one root per straight-line segment.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
    live: usize,
}

impl Forest {
    /// Create an empty forest.
    pub fn new() -> Forest {
        Forest::default()
    }

    /// Parse one segment's tokens and add its tree; returns the root.
    ///
    /// A thin adapter over the shared [`postfix::parse`], which the
    /// compressor's tiler runs on the same tokens.
    ///
    /// # Errors
    ///
    /// See [`ForestParseError`].
    pub fn add_segment(
        &mut self,
        ig: &InitialGrammar,
        tokens: &[Terminal],
    ) -> Result<NodeId, ForestParseError> {
        let symbols = tokens.iter().map(|&t| Symbol::T(t));
        let root = postfix::parse(ig, ig.nt_start, symbols, &mut Segment(self))?;
        self.roots.push(root);
        Ok(root)
    }

    /// Add a childless node (a leaf rule application). Building blocks
    /// for alternative deterministic parsers (e.g. the typed grammar's).
    pub fn add_leafless(&mut self, rule: RuleId) -> NodeId {
        self.add_node(rule, Vec::new())
    }

    /// Add a node whose children (one per non-terminal occurrence of the
    /// rule's right-hand side, in order) already exist.
    pub fn add_with_children(&mut self, rule: RuleId, children: Vec<NodeId>) -> NodeId {
        self.add_node(rule, children)
    }

    /// Register a fully built tree as a segment root.
    pub fn finish_root(&mut self, root: NodeId) {
        self.roots.push(root);
    }

    fn add_node(&mut self, rule: RuleId, children: Vec<NodeId>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        for &c in &children {
            self.nodes[c.index()].parent = id;
        }
        self.nodes.push(Node {
            rule,
            children,
            parent: NodeId::NONE,
            alive: true,
        });
        self.live += 1;
        id
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Segment roots, in input order.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Number of live (non-contracted) nodes. This is the length of the
    /// derivation the forest represents; each contraction shrinks it by
    /// one (§4.1).
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Total node slots including tombstones.
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Relabel a node with a new rule (used together with
    /// [`Forest::contract`] during edge contraction).
    pub fn relabel(&mut self, id: NodeId, rule: RuleId) {
        debug_assert!(self.nodes[id.index()].alive);
        self.nodes[id.index()].rule = rule;
    }

    /// Contract the edge from `child`'s parent to `child` (Fig. 2): the
    /// children of `child` replace `child` in the parent's child list,
    /// and `child` is tombstoned. Returns the parent.
    ///
    /// The caller is responsible for relabeling the parent with the
    /// inlined rule; the forest only performs the structural splice.
    ///
    /// # Panics
    ///
    /// Panics if `child` has no parent or is already dead.
    pub fn contract(&mut self, child: NodeId) -> NodeId {
        let c = &self.nodes[child.index()];
        assert!(c.alive, "contracting a dead node");
        let parent = c.parent;
        assert!(parent != NodeId::NONE, "contracting a root");
        let grandchildren = std::mem::take(&mut self.nodes[child.index()].children);
        self.nodes[child.index()].alive = false;
        self.live -= 1;
        for &gc in &grandchildren {
            self.nodes[gc.index()].parent = parent;
        }
        let p = &mut self.nodes[parent.index()];
        let pos = p
            .children
            .iter()
            .position(|&k| k == child)
            .expect("child is listed under its parent");
        p.children.splice(pos..=pos, grandchildren);
        self.nodes[child.index()].parent = NodeId::NONE;
        parent
    }

    /// Position of `child` among its parent's children (its non-terminal
    /// slot).
    ///
    /// # Panics
    ///
    /// Panics if `child` has no parent.
    pub fn slot_of(&self, child: NodeId) -> usize {
        let parent = self.nodes[child.index()].parent;
        assert!(parent != NodeId::NONE);
        self.nodes[parent.index()]
            .children
            .iter()
            .position(|&k| k == child)
            .expect("child is listed under its parent")
    }

    /// The terminal string derived by the subtree rooted at `id`, given
    /// the grammar the forest's rules live in.
    pub fn yield_string(&self, grammar: &crate::grammar::Grammar, id: NodeId) -> Vec<Terminal> {
        let mut out = Vec::new();
        // Explicit stack of (node, next RHS position, next child slot).
        let mut stack = vec![(id, 0usize, 0usize)];
        while let Some((node_id, mut pos, slot)) = stack.pop() {
            let node = self.node(node_id);
            let rule = grammar.rule(node.rule);
            while pos < rule.rhs.len() {
                match rule.rhs[pos] {
                    Symbol::T(t) => {
                        out.push(t);
                        pos += 1;
                    }
                    Symbol::N(_) => {
                        let child = node.children[slot];
                        stack.push((node_id, pos + 1, slot + 1));
                        stack.push((child, 0, 0));
                        break;
                    }
                }
            }
        }
        out
    }
}

/// Builds a token string's parse into a forest. Tokens carry no
/// non-terminals, so the parser never asks for a hole.
struct Segment<'f>(&'f mut Forest);

impl TreeBuilder for Segment<'_> {
    type Node = NodeId;

    fn hole(&mut self, nt: Nt) -> NodeId {
        unreachable!("a token string has no non-terminal {nt}")
    }

    fn node(&mut self, rule: RuleId, children: &[NodeId]) -> NodeId {
        self.0.add_node(rule, children.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial::tokenize_segment;
    use pgr_bytecode::{encode, Instruction, Opcode};

    fn paper_example_tokens() -> Vec<Terminal> {
        // First segment of the paper's `check` example (§4):
        // ADDRFP 0 0  INDIRU  LIT1 0  NEU  BrTrue 0 0  LIT1 0  ARGU
        // ADDRGP 0 0  CALLU  POPU
        let code = encode(&[
            Instruction::with_u16(Opcode::ADDRFP, 0),
            Instruction::op(Opcode::INDIRU),
            Instruction::new(Opcode::LIT1, &[0]),
            Instruction::op(Opcode::NEU),
            Instruction::with_u16(Opcode::BrTrue, 0),
            Instruction::new(Opcode::LIT1, &[0]),
            Instruction::op(Opcode::ARGU),
            Instruction::with_u16(Opcode::ADDRGP, 0),
            Instruction::op(Opcode::CALLU),
            Instruction::op(Opcode::POPU),
        ]);
        tokenize_segment(&code).unwrap()
    }

    #[test]
    fn parses_the_paper_example() {
        let ig = InitialGrammar::build();
        let mut forest = Forest::new();
        let tokens = paper_example_tokens();
        let root = forest.add_segment(&ig, &tokens).unwrap();
        // The yield must reproduce the token string exactly.
        assert_eq!(forest.yield_string(&ig.grammar, root), tokens);
        // Three statements -> the start spine has 3 recursive nodes + ε.
        let mut spine = 0;
        let mut n = root;
        loop {
            let node = forest.node(n);
            if node.rule == ig.start_empty {
                break;
            }
            assert_eq!(node.rule, ig.start_rec);
            spine += 1;
            n = node.children[0];
        }
        assert_eq!(spine, 3);
    }

    #[test]
    fn second_segment_is_a_separate_tree() {
        let ig = InitialGrammar::build();
        let mut forest = Forest::new();
        let t1 = paper_example_tokens();
        let t2 = tokenize_segment(&[Opcode::RETV as u8]).unwrap();
        let r1 = forest.add_segment(&ig, &t1).unwrap();
        let r2 = forest.add_segment(&ig, &t2).unwrap();
        assert_eq!(forest.roots(), &[r1, r2]);
        assert_eq!(forest.yield_string(&ig.grammar, r2), t2);
    }

    #[test]
    fn underflow_is_reported() {
        let ig = InitialGrammar::build();
        let mut forest = Forest::new();
        let tokens = tokenize_segment(&[Opcode::ADDU as u8]).unwrap();
        assert!(matches!(
            forest.add_segment(&ig, &tokens),
            Err(ForestParseError::StackUnderflow { position: 0 })
        ));
    }

    #[test]
    fn dangling_value_is_reported() {
        let ig = InitialGrammar::build();
        let mut forest = Forest::new();
        let tokens = tokenize_segment(&[Opcode::LIT1 as u8, 7]).unwrap();
        assert!(matches!(
            forest.add_segment(&ig, &tokens),
            Err(ForestParseError::DanglingValues { depth: 1 })
        ));
    }

    #[test]
    fn contraction_preserves_yield_and_shrinks_derivation() {
        let ig = InitialGrammar::build();
        let mut forest = Forest::new();
        let tokens = paper_example_tokens();
        let root = forest.add_segment(&ig, &tokens).unwrap();
        let before = forest.live_count();

        // Contract the edge from the root (start_rec) to its <x> child,
        // mimicking one inline step. We relabel with an actual inlined
        // rule so the yield stays well-defined.
        let x_child = forest.node(root).children[1];
        let x_rule = forest.node(x_child).rule;
        let mut g2 = ig.grammar.clone();
        let new_rhs = g2.inlined_rhs(ig.start_rec, 1, x_rule);
        let new_rule = g2.add_rule(
            ig.nt_start,
            new_rhs,
            crate::grammar::RuleOrigin::Inlined {
                parent: ig.start_rec,
                slot: 1,
                child: x_rule,
            },
        );
        let parent = forest.contract(x_child);
        assert_eq!(parent, root);
        forest.relabel(root, new_rule);

        assert_eq!(forest.live_count(), before - 1);
        assert!(!forest.node(x_child).alive());
        assert_eq!(forest.yield_string(&g2, root), tokens);
    }

    #[test]
    fn slot_of_locates_children() {
        let ig = InitialGrammar::build();
        let mut forest = Forest::new();
        let tokens = paper_example_tokens();
        let root = forest.add_segment(&ig, &tokens).unwrap();
        let kids = forest.node(root).children.clone();
        assert_eq!(forest.slot_of(kids[0]), 0);
        assert_eq!(forest.slot_of(kids[1]), 1);
        assert_eq!(forest.node(kids[1]).parent(), Some(root));
        assert_eq!(forest.node(root).parent(), None);
    }
}
