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
//!
//! This tree forest is the reference representation. The trainer parses
//! into the hash-consed [`SharedForest`](crate::SharedForest) instead,
//! which keeps each distinct subtree once, and its expander contracts
//! classes there; the reference expander (`tests/expander_reference.rs`)
//! contracts edges of this forest node by node (Fig. 2), with the
//! [`Forest::contract`] and [`Forest::relabel`] mutators, and the typed
//! grammar's parser builds one too.
//!
//! The forest is one flat array of fixed-size nodes. A node's children
//! form a singly linked list threaded through the nodes themselves (first
//! child, next sibling), so building a node allocates nothing and a
//! contraction relinks the contracted node's children into its place.

use crate::grammar::RuleId;
use crate::initial::InitialGrammar;
use crate::postfix::{self, TreeBuilder};
use crate::symbol::{Nt, Symbol, Terminal};
use std::fmt;

/// Index of a node in a [`Forest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The end of a link chain: no parent, no child, no next sibling.
    const NONE: NodeId = NodeId(u32::MAX);
    /// The parent link of a contracted (tombstoned) node.
    const DEAD: NodeId = NodeId(u32::MAX - 1);

    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A parse-tree node. Its children are read through
/// [`Forest::children`].
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// The rule labeling this node.
    pub rule: RuleId,
    /// The parent; `NONE` for a root, `DEAD` once contracted.
    parent: NodeId,
    first_child: NodeId,
    next_sibling: NodeId,
}

impl Node {
    /// The parent node, if any.
    pub fn parent(&self) -> Option<NodeId> {
        (self.parent.0 < NodeId::DEAD.0).then_some(self.parent)
    }

    /// Whether the node is still part of the forest (contracted nodes are
    /// tombstoned).
    pub fn alive(&self) -> bool {
        self.parent != NodeId::DEAD
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
        self.add_with_children(rule, &[])
    }

    /// Add a node whose children (one per non-terminal occurrence of the
    /// rule's right-hand side, in order) already exist and have no parent
    /// yet.
    pub fn add_with_children(&mut self, rule: RuleId, children: &[NodeId]) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        assert!(id.0 < NodeId::DEAD.0, "forest node ids exhausted");
        let mut next_sibling = NodeId::NONE;
        for &c in children.iter().rev() {
            let child = &mut self.nodes[c.index()];
            debug_assert_eq!(child.parent, NodeId::NONE, "child already placed");
            child.parent = id;
            child.next_sibling = next_sibling;
            next_sibling = c;
        }
        self.nodes.push(Node {
            rule,
            parent: NodeId::NONE,
            first_child: next_sibling,
            next_sibling: NodeId::NONE,
        });
        self.live += 1;
        id
    }

    /// Register a fully built tree as a segment root.
    pub fn finish_root(&mut self, root: NodeId) {
        self.roots.push(root);
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The children of `id`, in order (one per non-terminal occurrence of
    /// its rule's right-hand side). A contracted node has none.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            nodes: &self.nodes,
            next: self.nodes[id.index()].first_child,
        }
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
        debug_assert!(self.nodes[id.index()].alive());
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
        let c = self.nodes[child.index()];
        assert!(c.alive(), "contracting a dead node");
        let parent = c.parent().expect("contracting a root");
        // Hand the grandchildren to the parent and link the last one on to
        // what followed `child`: they take its place in the list, or, if
        // there are none, its next sibling does.
        let mut replacement = c.next_sibling;
        let mut gc = c.first_child;
        while gc != NodeId::NONE {
            let node = &mut self.nodes[gc.index()];
            node.parent = parent;
            if node.next_sibling == NodeId::NONE {
                node.next_sibling = c.next_sibling;
                replacement = c.first_child;
                break;
            }
            gc = node.next_sibling;
        }
        // Point the link that led to `child` at its replacement.
        match self.previous_sibling(child) {
            None => self.nodes[parent.index()].first_child = replacement,
            Some(prev) => self.nodes[prev.index()].next_sibling = replacement,
        }
        self.nodes[child.index()] = Node {
            parent: NodeId::DEAD,
            first_child: NodeId::NONE,
            next_sibling: NodeId::NONE,
            ..c
        };
        self.live -= 1;
        parent
    }

    /// The sibling just before `child` under its parent (`None` if it is
    /// the first child).
    fn previous_sibling(&self, child: NodeId) -> Option<NodeId> {
        let parent = self.nodes[child.index()].parent;
        let mut prev = None;
        for k in self.children(parent) {
            if k == child {
                return prev;
            }
            prev = Some(k);
        }
        unreachable!("child is listed under its parent")
    }

    /// Position of `child` among its parent's children (its non-terminal
    /// slot).
    ///
    /// # Panics
    ///
    /// Panics if `child` has no parent.
    pub fn slot_of(&self, child: NodeId) -> usize {
        let parent = self.nodes[child.index()]
            .parent()
            .expect("child has a parent");
        self.children(parent)
            .position(|k| k == child)
            .expect("child is listed under its parent")
    }

    /// The terminal string derived by the subtree rooted at `id`, given
    /// the grammar the forest's rules live in.
    pub fn yield_string(&self, grammar: &crate::grammar::Grammar, id: NodeId) -> Vec<Terminal> {
        let mut out = Vec::new();
        // Explicit stack of (node, next RHS position, remaining children).
        let mut stack = vec![(id, 0usize, self.children(id))];
        while let Some((node_id, mut pos, mut kids)) = stack.pop() {
            let rhs = &grammar.rule(self.node(node_id).rule).rhs;
            while pos < rhs.len() {
                match rhs[pos] {
                    Symbol::T(t) => {
                        out.push(t);
                        pos += 1;
                    }
                    Symbol::N(_) => {
                        let child = kids.next().expect("one child per non-terminal");
                        stack.push((node_id, pos + 1, kids));
                        stack.push((child, 0, self.children(child)));
                        break;
                    }
                }
            }
        }
        out
    }
}

/// The children of one node, in order: see [`Forest::children`].
#[derive(Debug, Clone)]
pub struct Children<'f> {
    nodes: &'f [Node],
    next: NodeId,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.next;
        if id == NodeId::NONE {
            return None;
        }
        self.next = self.nodes[id.index()].next_sibling;
        Some(id)
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
        self.0.add_with_children(rule, children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{Grammar, RuleOrigin};
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
            n = forest.children(n).next().unwrap();
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
        let x_child = forest.children(root).nth(1).unwrap();
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
        let kids: Vec<NodeId> = forest.children(root).collect();
        assert_eq!(forest.slot_of(kids[0]), 0);
        assert_eq!(forest.slot_of(kids[1]), 1);
        assert_eq!(forest.node(kids[1]).parent(), Some(root));
        assert_eq!(forest.node(root).parent(), None);
    }

    /// Contract the child in `slot` of `parent` and relabel `parent` with
    /// the inlined rule, as the expander does, then check the splice: the
    /// parent's children are the old ones with the child replaced by its
    /// own, each knows its parent and slot, one node fewer is live, the
    /// child is a tombstone, and the tree rooted at `root` still yields
    /// `tokens`.
    fn inline_checked(
        forest: &mut Forest,
        g: &mut Grammar,
        (root, tokens): (NodeId, &[Terminal]),
        parent: NodeId,
        slot: usize,
    ) {
        let child = nth_child(forest, parent, slot);
        assert_eq!(forest.slot_of(child), slot);
        let (parent_rule, child_rule) = (forest.node(parent).rule, forest.node(child).rule);
        let mut want: Vec<NodeId> = forest.children(parent).collect();
        want.splice(slot..=slot, forest.children(child));
        let live = forest.live_count();

        let rhs = g.inlined_rhs(parent_rule, slot, child_rule);
        let origin = RuleOrigin::Inlined {
            parent: parent_rule,
            slot: slot as u32,
            child: child_rule,
        };
        let rule = g.add_rule(g.rule(parent_rule).lhs, rhs, origin);
        assert_eq!(forest.contract(child), parent);
        forest.relabel(parent, rule);

        let got: Vec<NodeId> = forest.children(parent).collect();
        assert_eq!(got, want);
        for (i, &k) in got.iter().enumerate() {
            assert_eq!(forest.node(k).parent(), Some(parent));
            assert_eq!(forest.slot_of(k), i);
        }
        assert_eq!(forest.live_count(), live - 1);
        assert!(!forest.node(child).alive());
        assert_eq!(forest.node(child).parent(), None);
        assert_eq!(forest.children(child).count(), 0);
        assert_eq!(forest.yield_string(g, root), tokens);
    }

    fn nth_child(forest: &Forest, id: NodeId, n: usize) -> NodeId {
        forest.children(id).nth(n).unwrap()
    }

    #[test]
    fn contraction_splices_at_every_position() {
        // LIT4 1 2 3 4  LIT1 5  ADDU  POPU:
        // start_rec[start_empty, x_unary[v_binary[v, v, <v2>], <x1>]].
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        let tokens = tokenize_segment(&encode(&[
            Instruction::new(Opcode::LIT4, &[1, 2, 3, 4]),
            Instruction::new(Opcode::LIT1, &[5]),
            Instruction::op(Opcode::ADDU),
            Instruction::op(Opcode::POPU),
        ]))
        .unwrap();
        let mut forest = Forest::new();
        let root = forest.add_segment(&ig, &tokens).unwrap();
        let seg = (root, tokens.as_slice());
        let sum = nth_child(&forest, nth_child(&forest, root, 1), 0);
        assert_eq!(forest.node(sum).rule, ig.v_binary);

        // The last child, which has children of its own.
        inline_checked(&mut forest, &mut g, seg, root, 1);
        // The first child, which has none.
        inline_checked(&mut forest, &mut g, seg, root, 0);
        // Middle, last (childless) and first child of one parent in turn.
        inline_checked(&mut forest, &mut g, seg, sum, 1);
        inline_checked(&mut forest, &mut g, seg, sum, 2);
        inline_checked(&mut forest, &mut g, seg, sum, 0);
        // The LIT4 leaf and its four operand bytes.
        assert_eq!(forest.children(nth_child(&forest, sum, 0)).count(), 4);
        inline_checked(&mut forest, &mut g, seg, sum, 0);
        assert_eq!(forest.children(sum).count(), 5);
        assert_eq!(forest.children(root).count(), 2);
    }

    #[test]
    fn contraction_splices_a_self_recursive_chain() {
        // ADDRLP 0 0  INDIRU ×3  POPU: a chain of <v> ::= <v> <v1>.
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        let tokens = tokenize_segment(&encode(&[
            Instruction::with_u16(Opcode::ADDRLP, 0),
            Instruction::op(Opcode::INDIRU),
            Instruction::op(Opcode::INDIRU),
            Instruction::op(Opcode::INDIRU),
            Instruction::op(Opcode::POPU),
        ]))
        .unwrap();
        let mut forest = Forest::new();
        let root = forest.add_segment(&ig, &tokens).unwrap();
        let seg = (root, tokens.as_slice());
        let top = nth_child(&forest, nth_child(&forest, root, 1), 0);
        for _ in 0..2 {
            assert_eq!(forest.node(nth_child(&forest, top, 0)).rule, ig.v_unary);
            inline_checked(&mut forest, &mut g, seg, top, 0);
        }
        // <v> ::= <v> <v1> <v1> <v1>, then the leaf and its two bytes.
        assert_eq!(forest.children(top).count(), 4);
        inline_checked(&mut forest, &mut g, seg, top, 0);
        inline_checked(&mut forest, &mut g, seg, top, 0);
        assert_eq!(forest.children(top).count(), 5);
    }
}
