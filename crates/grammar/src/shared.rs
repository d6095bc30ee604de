//! The hash-consed training forest: one *class* per distinct subtree.
//!
//! A training forest repeats itself: the benchmark's 8 × 40-function set
//! parses into 293,580 tree nodes but only 22,956 distinct subtrees. A
//! [`SharedForest`] keeps each distinct `(rule, child classes)` once, as a
//! class with an *instance count* — the number of tree nodes it stands
//! for — so the expander can contract each distinct subtree once and
//! weight the count changes by its instances (recompression, Jeż:
//! apply each round's replacements to the compressed representation).
//!
//! Classes are interned as the postfix parser builds nodes, children
//! first, so a child's class id is always below its parent's. Child
//! lists live in one flat arena; each entry holds the child's class and
//! the id of the edge it realizes, which only the expander reads and
//! writes. A contraction splices the contracted child's list into its
//! parent's: in place when it is no longer, else as a fresh list at the
//! arena's end, since the child may still stand under other parents.
//!
//! Segments are added before the forest is expanded: a contraction
//! changes a class's rule and children in place, under every parent, and
//! the interning table still files the class under its old key.
//!
//! The tree [`Forest`] stays the reference representation: the typed
//! grammar builds one, and [`SharedForest::from_forest`] replays it.

use crate::derivation::Derivation;
use crate::forest::{Forest, ForestParseError, NodeId};
use crate::grammar::{RuleId, MAX_RHS_LEN};
use crate::initial::InitialGrammar;
use crate::postfix::{self, TreeBuilder};
use crate::symbol::{Nt, Symbol, Terminal};

/// Index of a class in a [`SharedForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One child of a class: the child's class and the edge the reference
/// realizes ([`NO_EDGE`] until an expander assigns one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Child {
    /// The child's class.
    pub class: ClassId,
    /// The id of the edge this reference realizes, in the expander's
    /// numbering.
    pub edge: u32,
}

/// The edge id of a reference no edge is assigned to.
pub const NO_EDGE: u32 = u32::MAX;

/// Empty slot of the interning table.
const VACANT: u32 = u32::MAX;

/// One class: its rule, its instance count, and its child list,
/// `arena[start..start + len]`. Kept together, as the expander reads
/// them together at random classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Class {
    rule: RuleId,
    count: u32,
    start: u32,
    len: u32,
}

/// A forest of parse trees, one root per segment, with every distinct
/// subtree stored once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedForest {
    classes: Vec<Class>,
    arena: Vec<Child>,
    /// Root class per segment, in input order.
    roots: Vec<ClassId>,
    /// Live tree nodes: the instance counts' sum.
    nodes: usize,
    /// Per rule, its childless class ([`VACANT`] if none yet).
    leaves: Vec<u32>,
    /// Open-addressed interning table of the classes with children, a
    /// power of two in size, at most half full. Declared last, so it is
    /// freed after everything else.
    table: Vec<u32>,
}

impl SharedForest {
    /// Create an empty forest.
    pub fn new() -> SharedForest {
        SharedForest::default()
    }

    /// Create an empty forest with room for classes and child entries of
    /// a forest of `nodes` tree nodes. Pages are touched only as classes
    /// are added, so a generous bound costs address space, not memory;
    /// and an allocation that large is mapped apart from the heap, so it
    /// is returned to the system whole when the forest is dropped.
    pub fn with_capacity(nodes: usize) -> SharedForest {
        SharedForest {
            classes: Vec::with_capacity(nodes),
            arena: Vec::with_capacity(nodes),
            ..SharedForest::default()
        }
    }

    /// Parse one segment's tokens and add its tree; returns its root
    /// class. A repeated segment adds no class, only instances.
    ///
    /// # Errors
    ///
    /// See [`ForestParseError`].
    pub fn add_segment(
        &mut self,
        ig: &InitialGrammar,
        tokens: &[Terminal],
    ) -> Result<ClassId, ForestParseError> {
        let symbols = tokens.iter().map(|&t| Symbol::T(t));
        let root = postfix::parse(ig, ig.nt_start, symbols, self)?;
        self.roots.push(root);
        Ok(root)
    }

    /// The shared form of a tree forest: its live nodes replayed in id
    /// order (children before parents) through the same interning, and
    /// its roots in order.
    pub fn from_forest(forest: &Forest) -> SharedForest {
        let mut shared = SharedForest::new();
        let mut class_of = vec![VACANT; forest.node_slots()];
        let mut children = Vec::new();
        for i in 0..forest.node_slots() {
            let id = NodeId(i as u32);
            let node = forest.node(id);
            if !node.alive() {
                continue;
            }
            children.clear();
            children.extend(forest.children(id).map(|k| ClassId(class_of[k.index()])));
            class_of[i] = shared.intern(node.rule, &children).0;
        }
        shared.roots = forest
            .roots()
            .iter()
            .map(|r| ClassId(class_of[r.index()]))
            .collect();
        shared
    }

    /// Number of classes (distinct subtrees), live or not.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of live tree nodes: the length of the derivation the
    /// forest represents. Each contraction shrinks it by the contracted
    /// parent's instance count.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Segment roots, in input order.
    pub fn roots(&self) -> &[ClassId] {
        &self.roots
    }

    /// The rule labeling class `c`.
    pub fn rule(&self, c: ClassId) -> RuleId {
        self.classes[c.index()].rule
    }

    /// How many tree nodes class `c` stands for; 0 once every parent has
    /// absorbed it.
    pub fn instances(&self, c: ClassId) -> u32 {
        self.classes[c.index()].count
    }

    /// The children of class `c`, in order (one per non-terminal
    /// occurrence of its rule's right-hand side).
    pub fn children(&self, c: ClassId) -> &[Child] {
        let Class { start, len, .. } = self.classes[c.index()];
        &self.arena[start as usize..(start + len) as usize]
    }

    /// The children of class `c`, to assign their edge ids.
    pub fn children_mut(&mut self, c: ClassId) -> &mut [Child] {
        let Class { start, len, .. } = self.classes[c.index()];
        &mut self.arena[start as usize..(start + len) as usize]
    }

    /// Relabel class `c` (used together with [`SharedForest::contract`]).
    pub fn relabel(&mut self, c: ClassId, rule: RuleId) {
        self.classes[c.index()].rule = rule;
    }

    /// Contract the edge from class `parent` to its child in `slot`, in
    /// every instance of `parent` (Fig. 2): the child's children replace
    /// it in `parent`'s child list, and the child loses `parent`'s
    /// instances. Returns the child. The spliced entries keep the edge
    /// ids they had under the child; the caller assigns new ones, and
    /// relabels `parent` with the inlined rule.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range, or if the new list would be
    /// longer than a right-hand side can be.
    pub fn contract(&mut self, parent: ClassId, slot: usize) -> ClassId {
        let Class {
            count, start, len, ..
        } = self.classes[parent.index()];
        let (start, len) = (start as usize, len as usize);
        let child = self.arena[start..start + len][slot].class;
        let absorbed = &mut self.classes[child.index()];
        absorbed.count -= count;
        let (from, spliced) = (absorbed.start as usize, absorbed.len as usize);
        self.nodes -= count as usize;
        let new_len = len - 1 + spliced;
        assert!(
            new_len <= MAX_RHS_LEN,
            "a child list fits a right-hand side"
        );
        self.classes[parent.index()].len = new_len as u32;
        if spliced <= 1 {
            // No longer than before: splice in place.
            if spliced == 1 {
                self.arena[start + slot] = self.arena[from];
            } else {
                self.arena
                    .copy_within(start + slot + 1..start + len, start + slot);
            }
            return child;
        }
        // Longer: the child may stand under other parents, so write the
        // new list after everything else.
        let at = self.arena.len();
        self.classes[parent.index()].start =
            u32::try_from(at).expect("child arena outgrew u32 offsets");
        self.arena.extend_from_within(start..start + slot);
        self.arena.extend_from_within(from..from + spliced);
        self.arena.extend_from_within(start + slot + 1..start + len);
        child
    }

    /// The leftmost derivation of segment `segment`'s tree: the preorder
    /// rule sequence (§4.1).
    pub fn derivation(&self, segment: usize) -> Derivation {
        let mut rules = Vec::new();
        let mut stack = vec![self.roots[segment]];
        while let Some(c) = stack.pop() {
            rules.push(self.rule(c));
            stack.extend(self.children(c).iter().rev().map(|k| k.class));
        }
        Derivation(rules)
    }

    /// The class of `rule` over `children`, created if new; either way
    /// it gains one instance.
    fn intern(&mut self, rule: RuleId, children: &[ClassId]) -> ClassId {
        let c = if children.is_empty() {
            self.leaf(rule)
        } else {
            self.inner(rule, children)
        };
        self.classes[c.index()].count += 1;
        self.nodes = self
            .nodes
            .checked_add(1)
            .filter(|&n| n <= u32::MAX as usize)
            .expect("forest node count exhausted");
        c
    }

    fn leaf(&mut self, rule: RuleId) -> ClassId {
        if self.leaves.len() <= rule.index() {
            self.leaves.resize(rule.index() + 1, VACANT);
        }
        match self.leaves[rule.index()] {
            VACANT => {
                let c = self.push(rule, &[]);
                self.leaves[rule.index()] = c.0;
                c
            }
            c => ClassId(c),
        }
    }

    fn inner(&mut self, rule: RuleId, children: &[ClassId]) -> ClassId {
        if self.table.len() < 2 * (self.classes.len() + 1) {
            self.grow_table();
        }
        let mask = self.table.len() - 1;
        let mut at = hash(rule, children.iter().map(|c| c.0)) & mask;
        loop {
            match self.table[at] {
                VACANT => {
                    let c = self.push(rule, children);
                    self.table[at] = c.0;
                    return c;
                }
                c if self.classes[c as usize].rule == rule
                    && self
                        .children(ClassId(c))
                        .iter()
                        .map(|k| k.class)
                        .eq(children.iter().copied()) =>
                {
                    return ClassId(c)
                }
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Double the interning table (at least 1,024 slots) and re-insert
    /// every class with children.
    fn grow_table(&mut self) {
        let size = (2 * self.table.len()).max(1024);
        self.table.clear();
        self.table.resize(size, VACANT);
        let mask = size - 1;
        for c in 0..self.classes.len() {
            let class = ClassId(c as u32);
            let kids = self.children(class);
            if kids.is_empty() {
                continue;
            }
            let mut at = hash(self.rule(class), kids.iter().map(|k| k.class.0)) & mask;
            while self.table[at] != VACANT {
                at = (at + 1) & mask;
            }
            self.table[at] = class.0;
        }
    }

    fn push(&mut self, rule: RuleId, children: &[ClassId]) -> ClassId {
        let c = ClassId(u32::try_from(self.classes.len()).expect("forest class ids exhausted"));
        assert!(
            children.len() <= MAX_RHS_LEN,
            "a child list fits a right-hand side"
        );
        self.classes.push(Class {
            rule,
            count: 0,
            start: u32::try_from(self.arena.len()).expect("child arena outgrew u32 offsets"),
            len: children.len() as u32,
        });
        self.arena.extend(children.iter().map(|&class| Child {
            class,
            edge: NO_EDGE,
        }));
        c
    }
}

/// Folded-multiply hash of a class key.
fn hash(rule: RuleId, children: impl Iterator<Item = u32>) -> usize {
    let mix = |h: u64, v: u32| {
        let product = u128::from(h ^ u64::from(v)) * 0x9E37_79B9_7F4A_7C15;
        product as u64 ^ (product >> 64) as u64
    };
    children.fold(mix(0, rule.0), mix) as usize
}

/// The postfix parser builds a segment's nodes straight into classes.
/// Tokens carry no non-terminals, so it never asks for a hole.
impl TreeBuilder for SharedForest {
    type Node = ClassId;

    fn hole(&mut self, nt: Nt) -> ClassId {
        unreachable!("a token string has no non-terminal {nt}")
    }

    fn node(&mut self, rule: RuleId, children: &[ClassId]) -> ClassId {
        self.intern(rule, children)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial::tokenize_segment;
    use pgr_bytecode::Opcode;

    fn tokens(code: &[u8]) -> Vec<Terminal> {
        tokenize_segment(code).unwrap()
    }

    #[test]
    fn repeated_subtrees_share_one_class() {
        let ig = InitialGrammar::build();
        let stmt = [Opcode::LIT1 as u8, 1, Opcode::POPU as u8];
        let seg: Vec<u8> = stmt.repeat(4);
        let mut shared = SharedForest::new();
        let mut tree = Forest::new();
        for _ in 0..3 {
            shared.add_segment(&ig, &tokens(&seg)).unwrap();
            tree.add_segment(&ig, &tokens(&seg)).unwrap();
        }
        assert_eq!(shared.node_count(), tree.live_count());
        assert!(shared.class_count() < 12, "{}", shared.class_count());
        // One root class for the three segments, standing for all three.
        assert_eq!(shared.roots()[0], shared.roots()[2]);
        assert_eq!(shared.instances(shared.roots()[0]), 3);
        for (i, &root) in tree.roots().iter().enumerate() {
            assert_eq!(shared.derivation(i), Derivation::from_tree(&tree, root));
        }
        // Replaying the tree interns the same classes in the same order.
        let replayed = SharedForest::from_forest(&tree);
        assert_eq!(replayed.roots(), shared.roots());
        assert_eq!(replayed.class_count(), shared.class_count());
        for c in (0..shared.class_count() as u32).map(ClassId) {
            assert_eq!(replayed.rule(c), shared.rule(c));
            assert_eq!(replayed.instances(c), shared.instances(c));
            assert_eq!(replayed.children(c), shared.children(c));
        }
    }

    #[test]
    fn children_precede_their_parents() {
        let ig = InitialGrammar::build();
        let code = [
            Opcode::ADDRLP as u8,
            0,
            0,
            Opcode::INDIRU as u8,
            Opcode::LIT1 as u8,
            1,
            Opcode::ADDU as u8,
            Opcode::POPU as u8,
        ];
        let mut shared = SharedForest::new();
        shared.add_segment(&ig, &tokens(&code)).unwrap();
        for c in (0..shared.class_count() as u32).map(ClassId) {
            assert!(shared.children(c).iter().all(|k| k.class < c));
        }
    }

    #[test]
    fn contraction_splices_every_instance() {
        // LIT1 1 POPU twice: start_rec[start_rec[start_empty, x], x] with
        // one class x = x_unary[v_leaf[LIT1[1]], POPU].
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        let seg = [Opcode::LIT1 as u8, 1, Opcode::POPU as u8].repeat(2);
        let toks = tokens(&seg);
        let mut shared = SharedForest::new();
        shared.add_segment(&ig, &toks).unwrap();
        let root = shared.roots()[0];
        let x = shared.children(root)[1].class;
        let before = shared.node_count();
        // Inline x_unary's slot 0 (the <v> operand): three children now.
        let v = shared.children(x)[0].class;
        let rhs = g.inlined_rhs(ig.x_unary, 0, shared.rule(v));
        let rule = g.add_rule(
            ig.nt_x,
            rhs,
            crate::grammar::RuleOrigin::Inlined {
                parent: ig.x_unary,
                slot: 0,
                child: shared.rule(v),
            },
        );
        assert_eq!(shared.contract(x, 0), v);
        shared.relabel(x, rule);
        assert_eq!(shared.instances(v), 0);
        assert_eq!(shared.node_count(), before - 2, "both instances contract");
        assert_eq!(shared.children(x).len(), 2);
        let d = shared.derivation(0);
        assert_eq!(d.len(), shared.node_count());
        assert_eq!(d.expand(&g, ig.nt_start).unwrap(), toks);
    }
}
