//! The §4.1 expander against its reference spec.
//!
//! `reference` below is the original greedy loop, kept as the executable
//! spec: it works on the tree [`Forest`], with a `HashMap` from edge to
//! a `BTreeSet` of the child nodes realizing it, and a lazy max-heap that
//! takes one entry per count increment. The production expander
//! (`pgr::core::expand`) works on the hash-consed [`SharedForest`]
//! instead: it contracts each distinct subtree once, weighted by its
//! instance count, keeps each round's occurrences sorted into per-edge
//! blocks of one append-only store, and one heap entry per edge. It must
//! build the same rules in the same order and leave every segment with
//! the same contracted derivation: every rule slot, every non-terminal's
//! rule order, every segment's derivation, and every [`ExpansionStats`]
//! field except the two that count heap traffic (`inline_iterations`,
//! `saturated_skips`) and the class count the reference has no use for
//! (`subtrees`).
//!
//! Besides the corpora, samples and synthetic programs, hand-built cases
//! pin down where sharing matters (a class absorbed under one parent and
//! kept under another, an `INDIRU` chain that is a statement's operand
//! in one place and an addend in another, one class at two slots of a
//! parent, repeated segments), and a property test builds forests from
//! random segments of a few statement templates that stress the
//! bookkeeping: deep `INDIRU` chains (an edge into itself), `LIT1 k
//! POPU` over a few `k`, nested `ADDU`, and stores to the same few
//! locals.
//!
//! The largest inputs (the lcc and gcc corpora and an 8 × 40-function
//! synthetic set) are `#[ignore]`d: the reference alone takes over a
//! second on gcc even in release. Run them with
//! `cargo test --release --test expander_reference -- --include-ignored`.

use pgr::bytecode::{Opcode, Program};
use pgr::core::{canonicalize_program, expand, ExpanderConfig, ExpansionStats};
use pgr::corpus::synth::{self, Flavor, SynthConfig};
use pgr::corpus::{compile_sample, corpus, CorpusName, SAMPLES};
use pgr::grammar::initial::tokenize_segment;
use pgr::grammar::{
    ClassId, Derivation, Forest, Grammar, InitialGrammar, Nt, RuleId, SharedForest,
};
use proptest::prelude::*;

/// The original expander loop, minus the rule-deduplication branch
/// (with it gone, every inlined rule is fresh).
mod reference {
    use pgr::core::{ExpanderConfig, ExpansionStats};
    use pgr::grammar::grammar::MAX_RHS_LEN;
    use pgr::grammar::{Forest, Grammar, NodeId, RuleId, RuleOrigin};
    use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};

    const MIN_COUNT: u64 = 2;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Edge {
        parent: RuleId,
        slot: u32,
        child: RuleId,
    }

    /// Incremental (count, occurrence-set) bookkeeping for forest edges.
    struct EdgeIndex {
        /// Edge → set of child nodes realizing it. Ordered so contraction
        /// order (and therefore training output) is deterministic.
        occ: HashMap<Edge, BTreeSet<NodeId>>,
        /// Lazy max-heap of (count-at-push, edge).
        heap: BinaryHeap<(u64, RuleId, u32, RuleId)>,
    }

    impl EdgeIndex {
        fn new() -> EdgeIndex {
            EdgeIndex {
                occ: HashMap::new(),
                heap: BinaryHeap::new(),
            }
        }

        fn inc(&mut self, edge: Edge, child_node: NodeId) {
            let set = self.occ.entry(edge).or_default();
            if set.insert(child_node) {
                self.heap
                    .push((set.len() as u64, edge.parent, edge.slot, edge.child));
            }
        }

        fn dec(&mut self, edge: Edge, child_node: NodeId) {
            if let Some(set) = self.occ.get_mut(&edge) {
                set.remove(&child_node);
                if set.is_empty() {
                    self.occ.remove(&edge);
                }
            }
        }

        fn count(&self, edge: &Edge) -> u64 {
            self.occ.get(edge).map_or(0, |s| s.len() as u64)
        }

        fn any_occurrence(&self, edge: &Edge) -> Option<NodeId> {
            self.occ.get(edge).and_then(|s| s.first().copied())
        }
    }

    pub fn expand(
        grammar: &mut Grammar,
        forest: &mut Forest,
        config: &ExpanderConfig,
    ) -> ExpansionStats {
        assert!(
            config.max_rules_per_nt <= 256,
            "rule indices must fit one byte"
        );
        let mut stats = ExpansionStats {
            derivation_before: forest.live_count(),
            ..ExpansionStats::default()
        };

        // Initial scan: edge occurrences and per-rule use counts.
        let mut edges = EdgeIndex::new();
        let mut rule_use: Vec<u64> = vec![0; grammar.rule_slots()];
        for root in forest.roots().to_vec() {
            // Iterative preorder walk.
            let mut stack = vec![root];
            while let Some(id) = stack.pop() {
                let node = forest.node(id);
                rule_use[node.rule.index()] += 1;
                for (slot, child) in forest.children(id).enumerate() {
                    edges.inc(
                        Edge {
                            parent: node.rule,
                            slot: slot as u32,
                            child: forest.node(child).rule,
                        },
                        child,
                    );
                    stack.push(child);
                }
            }
        }

        while let Some((pushed_count, parent, slot, child)) = edges.heap.pop() {
            stats.inline_iterations += 1;
            if pushed_count < MIN_COUNT {
                break; // max-heap: nothing better remains
            }
            let edge = Edge {
                parent,
                slot,
                child,
            };
            if edges.count(&edge) != pushed_count {
                continue; // stale heap entry
            }
            let lhs = grammar.rule(parent).lhs;
            // The escape-reserved non-terminal gives up its last one-byte
            // rule index so the verbatim marker stays unambiguous.
            let nt_budget = if config.escape_reserve == Some(lhs) {
                config.max_rules_per_nt.min(255)
            } else {
                config.max_rules_per_nt
            };
            if grammar.rules_of(lhs).len() >= nt_budget {
                stats.saturated_skips += 1;
                continue; // this non-terminal is saturated (§4.1)
            }
            let new_rhs = grammar.inlined_rhs(parent, slot as usize, child);
            if new_rhs.len() > MAX_RHS_LEN {
                continue;
            }
            let new_rule = grammar.add_rule(
                lhs,
                new_rhs,
                RuleOrigin::Inlined {
                    parent,
                    slot,
                    child,
                },
            );
            stats.rules_added += 1;
            if rule_use.len() < grammar.rule_slots() {
                rule_use.resize(grammar.rule_slots(), 0);
            }

            // Contract every occurrence. Contractions can invalidate other
            // occurrences of the same edge (when parent == child rule), so we
            // take them one at a time from the live set.
            let mut touched_rules: HashSet<RuleId> = HashSet::new();
            while let Some(child_node) = edges.any_occurrence(&edge) {
                contract_one(forest, &mut edges, &mut rule_use, child_node, new_rule);
                stats.contractions += 1;
            }
            touched_rules.insert(parent);
            touched_rules.insert(child);

            if config.remove_subsumed {
                for r in touched_rules {
                    if rule_use[r.index()] == 0
                        && grammar.rule(r).alive
                        && !matches!(grammar.rule(r).origin, RuleOrigin::Original)
                        && r != new_rule
                    {
                        grammar.remove_rule(r);
                        stats.rules_removed += 1;
                    }
                }
            }
        }

        stats.derivation_after = forest.live_count();
        stats.rules_per_nt_peak = (0..grammar.nt_count())
            .map(|i| grammar.rules_of(pgr::grammar::Nt(i as u16)).len())
            .max()
            .unwrap_or(0);
        stats
    }

    /// Contract one edge occurrence: the parent of `child_node` absorbs it and
    /// is relabeled `new_rule`, with all incident edge counts updated.
    fn contract_one(
        forest: &mut Forest,
        edges: &mut EdgeIndex,
        rule_use: &mut [u64],
        child_node: NodeId,
        new_rule: RuleId,
    ) {
        let parent = forest
            .node(child_node)
            .parent()
            .expect("occurrence has a parent");
        let parent_rule = forest.node(parent).rule;
        let child_rule = forest.node(child_node).rule;

        // Remove edges incident to the parent (its label is about to change) …
        for (slot, ch) in forest.children(parent).enumerate() {
            edges.dec(
                Edge {
                    parent: parent_rule,
                    slot: slot as u32,
                    child: forest.node(ch).rule,
                },
                ch,
            );
        }
        // … the edge from the grandparent to the parent …
        let gp = forest.node(parent).parent();
        if let Some(gp) = gp {
            let gp_rule = forest.node(gp).rule;
            let gslot = forest.slot_of(parent) as u32;
            edges.dec(
                Edge {
                    parent: gp_rule,
                    slot: gslot,
                    child: parent_rule,
                },
                parent,
            );
        }
        // … and the edges from the child to its children.
        for (slot, gc) in forest.children(child_node).enumerate() {
            edges.dec(
                Edge {
                    parent: child_rule,
                    slot: slot as u32,
                    child: forest.node(gc).rule,
                },
                gc,
            );
        }

        forest.contract(child_node);
        forest.relabel(parent, new_rule);
        rule_use[parent_rule.index()] -= 1;
        rule_use[child_rule.index()] -= 1;
        rule_use[new_rule.index()] += 1;

        // Re-add edges with the parent's new label.
        for (slot, ch) in forest.children(parent).enumerate() {
            edges.inc(
                Edge {
                    parent: new_rule,
                    slot: slot as u32,
                    child: forest.node(ch).rule,
                },
                ch,
            );
        }
        if let Some(gp) = gp {
            let gp_rule = forest.node(gp).rule;
            let gslot = forest.slot_of(parent) as u32;
            edges.inc(
                Edge {
                    parent: gp_rule,
                    slot: gslot,
                    child: new_rule,
                },
                parent,
            );
        }
    }
}

/// The training forest `pgr::core::train` builds: every segment of every
/// canonicalized procedure, parsed under the initial grammar, as a tree.
/// The shared forest `train` parses the same segments into is checked to
/// be the tree's shared form.
fn training_forest(programs: &[Program]) -> (InitialGrammar, Forest) {
    let ig = InitialGrammar::build();
    let segments: Vec<Vec<u8>> = programs
        .iter()
        .flat_map(|program| {
            let canon = canonicalize_program(program).expect("corpus programs canonicalize");
            canon.procs.into_iter().flat_map(|proc| {
                let ranges = proc.segments().expect("canonical code decodes");
                ranges
                    .into_iter()
                    .map(move |range| proc.code[range].to_vec())
            })
        })
        .collect();
    let forest = segment_forest(&ig, &segments);
    (ig, forest)
}

/// The tree forest of `segments`, each parsed under the initial grammar,
/// after checking that parsing them straight into a shared forest gives
/// the tree's shared form.
fn segment_forest(ig: &InitialGrammar, segments: &[Vec<u8>]) -> Forest {
    let (mut forest, mut shared) = (Forest::new(), SharedForest::new());
    for code in segments {
        let tokens = tokenize_segment(code).expect("segment tokenizes");
        forest.add_segment(ig, &tokens).expect("segment parses");
        shared.add_segment(ig, &tokens).expect("segment parses");
    }
    assert!(
        shared == SharedForest::from_forest(&forest),
        "parsing into classes differs from replaying the tree"
    );
    forest
}

/// The statistics both loops must agree on: all but the heap traffic
/// and the class count.
fn comparable(stats: ExpansionStats) -> ExpansionStats {
    ExpansionStats {
        inline_iterations: 0,
        saturated_skips: 0,
        subtrees: 0,
        ..stats
    }
}

fn assert_same_grammar(label: &str, got: &Grammar, want: &Grammar) {
    assert_eq!(got.rule_slots(), want.rule_slots(), "{label}: rule slots");
    for i in 0..want.rule_slots() {
        let (g, w) = (got.rule(RuleId(i as u32)), want.rule(RuleId(i as u32)));
        assert_eq!(g.lhs, w.lhs, "{label}: lhs of rule {i}");
        assert_eq!(g.rhs, w.rhs, "{label}: rhs of rule {i}");
        assert_eq!(g.origin, w.origin, "{label}: origin of rule {i}");
        assert_eq!(g.alive, w.alive, "{label}: liveness of rule {i}");
    }
    assert_eq!(got.nt_count(), want.nt_count(), "{label}: non-terminals");
    for nt in (0..want.nt_count()).map(|i| Nt(i as u16)) {
        assert_eq!(
            got.rules_of(nt),
            want.rules_of(nt),
            "{label}: rule order of {}",
            want.nt_name(nt)
        );
    }
}

/// Every segment's derivation read off the shared forest is the one read
/// off the reference's contracted tree.
fn assert_same_derivations(label: &str, got: &SharedForest, want: &Forest) {
    assert_eq!(got.roots().len(), want.roots().len(), "{label}: segments");
    for (i, &root) in want.roots().iter().enumerate() {
        assert_eq!(
            got.derivation(i),
            Derivation::from_tree(want, root),
            "{label}: derivation of segment {i}"
        );
    }
    assert_eq!(got.node_count(), want.live_count(), "{label}: live nodes");
}

/// Run both loops on copies of `programs`' training forest: see
/// [`check_forest`].
fn check(label: &str, programs: &[Program], runs: &[(usize, bool)]) -> Vec<ExpansionStats> {
    let (ig, forest) = training_forest(programs);
    check_forest(label, &ig, &forest, runs)
}

/// Run the reference on copies of `forest` and the expander on copies of
/// its shared form, configured as the trainer configures them (start
/// non-terminal escape-reserved), once per `(cap, remove_subsumed)` in
/// `runs`, and compare everything. Returns the reference's statistics so
/// callers can check what the inputs exercised.
fn check_forest(
    label: &str,
    ig: &InitialGrammar,
    forest: &Forest,
    runs: &[(usize, bool)],
) -> Vec<ExpansionStats> {
    let shared = SharedForest::from_forest(forest);
    let mut seen = Vec::new();
    for &(cap, remove_subsumed) in runs {
        let config = ExpanderConfig {
            max_rules_per_nt: cap,
            remove_subsumed,
            escape_reserve: Some(ig.nt_start),
        };
        let label = format!("{label} cap {cap} removal {remove_subsumed}");

        let (mut want_g, mut want_f) = (ig.grammar.clone(), forest.clone());
        let want = reference::expand(&mut want_g, &mut want_f, &config);
        let (mut got_g, mut got_f) = (ig.grammar.clone(), shared.clone());
        let got = expand(&mut got_g, &mut got_f, &config);

        assert_same_grammar(&label, &got_g, &want_g);
        assert_same_derivations(&label, &got_f, &want_f);
        assert_eq!(comparable(got), comparable(want), "{label}: stats");
        assert_eq!(got.subtrees, shared.class_count(), "{label}: classes");
        seen.push(want);
    }
    seen
}

/// Each cap with subsumed-rule removal on and off.
fn matrix(caps: &[usize]) -> Vec<(usize, bool)> {
    caps.iter()
        .flat_map(|&cap| [(cap, true), (cap, false)])
        .collect()
}

/// The runs reached both a saturation skip and a subsumed-rule removal.
fn assert_exercised(label: &str, seen: &[ExpansionStats]) {
    assert!(
        seen.iter().any(|s| s.saturated_skips > 0),
        "{label}: no run saturated a non-terminal"
    );
    assert!(
        seen.iter().any(|s| s.rules_removed > 0),
        "{label}: no run removed a subsumed rule"
    );
}

const CAPS: [usize; 6] = [8, 16, 32, 64, 128, 256];

#[test]
fn gzip_corpus_matches_the_reference() {
    let seen = check("gzip", &corpus(CorpusName::Gzip).programs, &matrix(&CAPS));
    assert_exercised("gzip", &seen);
}

#[test]
fn eight_queens_corpus_matches_the_reference() {
    let seen = check("8q", &corpus(CorpusName::EightQ).programs, &matrix(&CAPS));
    assert_exercised("8q", &seen);
}

#[test]
fn every_sample_matches_the_reference() {
    for (name, _) in SAMPLES {
        check(name, &[compile_sample(name)], &matrix(&CAPS));
    }
}

#[test]
fn seeded_synthetic_sets_match_the_reference() {
    // Small programs at tight caps are where a non-terminal fills up,
    // regains a slot when a subsumed rule is removed, and revives an edge
    // it skipped while full; every set also runs at one loose cap.
    let mut seen = Vec::new();
    for seed in 0..24u64 {
        let program = synth::generate(&SynthConfig {
            seed: 0x5eed_0000 + seed,
            functions: 2 + 2 * (seed as usize % 4),
            flavor: if seed % 2 == 0 {
                Flavor::Compiler
            } else {
                Flavor::Numeric
            },
        });
        let mut runs: Vec<(usize, bool)> = [12, 16, 20, 24, 32, 48].map(|cap| (cap, true)).into();
        runs.extend(matrix(&[[64, 128, 256][seed as usize % 3]]));
        seen.extend(check(&format!("synth seed {seed}"), &[program], &runs));
    }
    assert_exercised("synthetic sets", &seen);
}

const ADDRLP: u8 = Opcode::ADDRLP as u8;
const INDIRU: u8 = Opcode::INDIRU as u8;
const LIT1: u8 = Opcode::LIT1 as u8;
const ADDU: u8 = Opcode::ADDU as u8;
const ASGNU: u8 = Opcode::ASGNU as u8;
const POPU: u8 = Opcode::POPU as u8;

/// `ADDRLP 0` under `depth` `INDIRU`s: a chain of `<v> ::= <v> <v1>`.
fn chain(depth: usize) -> Vec<u8> {
    let mut code = vec![ADDRLP, 0, 0];
    code.extend(std::iter::repeat_n(INDIRU, depth));
    code
}

/// Check `segments` against the reference at caps 4–256, with removal
/// on and off, and return the shared forest before and after one
/// expansion at `cap` (removal on).
fn check_shared(label: &str, segments: &[Vec<u8>], cap: usize) -> (SharedForest, SharedForest) {
    let ig = InitialGrammar::build();
    let forest = segment_forest(&ig, segments);
    check_forest(label, &ig, &forest, &matrix(&[4, 8, 16, 256]));
    let before = SharedForest::from_forest(&forest);
    assert!(
        before.class_count() < before.node_count(),
        "{label}: no sharing"
    );
    let (mut grammar, mut after) = (ig.grammar.clone(), before.clone());
    let config = ExpanderConfig {
        max_rules_per_nt: cap,
        escape_reserve: Some(ig.nt_start),
        ..ExpanderConfig::default()
    };
    expand(&mut grammar, &mut after, &config);
    (before, after)
}

/// The classes some but not all of whose instances were absorbed.
fn partly_absorbed(before: &SharedForest, after: &SharedForest) -> usize {
    (0..before.class_count() as u32)
        .map(ClassId)
        .filter(|&c| (1..before.instances(c)).contains(&after.instances(c)))
        .count()
}

#[test]
fn a_class_absorbed_under_one_parent_rule_survives_under_another() {
    // `*x` is popped alone six times (a hot `<x> ::= <v> POPU` over it)
    // and added to a literal once, where it stays a child of `ADDU`.
    let deref = chain(1);
    let mut pop = deref.clone();
    pop.push(POPU);
    let mut add = deref.clone();
    add.extend([LIT1, 7, ADDU, POPU]);
    let mut segments = vec![pop; 6];
    segments.push(add);
    let (before, after) = check_shared("absorbed and kept", &segments, 256);
    assert!(partly_absorbed(&before, &after) > 0);
}

#[test]
fn an_indirection_chain_shared_by_a_statement_and_an_operand() {
    // The same five-deep chain (an edge into itself) is a whole
    // statement's operand in one segment and an addend in another.
    let mut alone = chain(5);
    alone.push(POPU);
    let mut operand = chain(5);
    operand.extend([LIT1, 1, ADDU, POPU]);
    let mut deeper = chain(9);
    deeper.push(POPU);
    let segments = vec![alone.clone(), operand.clone(), alone, operand, deeper];
    for cap in [4, 16, 256] {
        check_shared("indirection chain", &segments, cap);
    }
}

#[test]
fn one_class_at_two_slots_of_a_parent() {
    // `x + x`: the two operands of `ADDU` are one class.
    let mut twice = chain(1);
    twice.extend(chain(1));
    twice.extend([ADDU, POPU]);
    let mut store = twice.clone();
    store.truncate(store.len() - 1);
    store.extend([ADDRLP, 4, 0, ASGNU]);
    let segments = vec![twice.clone(), twice, store.clone(), store];
    let ig = InitialGrammar::build();
    let shared = SharedForest::from_forest(&segment_forest(&ig, &segments));
    let doubled = (0..shared.class_count() as u32).map(ClassId).any(|c| {
        let kids = shared.children(c);
        kids.len() >= 2 && kids[0].class == kids[1].class
    });
    assert!(doubled, "no class holds one child class twice");
    check_shared("x + x", &segments, 256);
}

#[test]
fn repeated_segments_add_instances_not_classes() {
    let mut stmt = chain(2);
    stmt.extend([LIT1, 3, ADDU, ADDRLP, 8, 0, ASGNU]);
    let body = stmt.repeat(3);
    let segments = vec![body.clone(), body.clone(), stmt.clone(), body, stmt];
    let ig = InitialGrammar::build();
    let shared = SharedForest::from_forest(&segment_forest(&ig, &segments));
    assert_eq!(shared.roots()[0], shared.roots()[1]);
    assert_eq!(shared.instances(shared.roots()[0]), 3);
    let (_, after) = check_shared("repeated segments", &segments, 256);
    assert_eq!(after.roots(), shared.roots());
}

/// One statement of a random segment, as bytecode: it leaves the value
/// stack empty, so any sequence of them is a segment.
fn statement() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        // A deep `INDIRU` chain off one of three locals.
        (0u8..3, 1usize..16).prop_map(|(local, depth)| {
            let mut code = vec![ADDRLP, 4 * local, 0];
            code.extend(std::iter::repeat_n(INDIRU, depth));
            code.push(POPU);
            code
        }),
        // `LIT1 k POPU` over a few `k`.
        (0u8..4).prop_map(|k| vec![LIT1, k, POPU]),
        // `ADDU` over 2–7 operands, nested as `shape`'s bits say: after
        // each operand, one bit per pending pair says whether to add now.
        (2usize..8, any::<u64>()).prop_map(|(operands, mut shape)| {
            let mut bit = || {
                shape = shape.rotate_right(1);
                shape & 1 == 1
            };
            let (mut code, mut depth) = (Vec::new(), 0);
            for _ in 0..operands {
                if bit() {
                    code.extend([LIT1, u8::from(bit())]);
                } else {
                    code.extend([ADDRLP, 0, 0, INDIRU]);
                }
                depth += 1;
                while depth > 1 && bit() {
                    code.push(ADDU);
                    depth -= 1;
                }
            }
            code.extend(std::iter::repeat_n(ADDU, depth - 1));
            code.push(POPU);
            code
        }),
        // A store to one of three locals: a literal, or the local plus one.
        (0u8..3, 0u8..3).prop_map(|(local, k)| {
            let mut code = if k == 0 {
                vec![ADDRLP, 4 * local, 0, INDIRU, LIT1, 1, ADDU]
            } else {
                vec![LIT1, k]
            };
            code.extend([ADDRLP, 4 * local, 0, ASGNU]);
            code
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random forests of template statements, at one cap in 4–32 with
    /// subsumed-rule removal on and off. Two segments or more, so every
    /// forest shares at least its `<start> ::= ε` leaf.
    #[test]
    fn random_template_forests_match_the_reference(
        segments in prop::collection::vec(prop::collection::vec(statement(), 1..10), 2..24),
        cap in 4usize..33,
    ) {
        let ig = InitialGrammar::build();
        let segments: Vec<Vec<u8>> = segments.iter().map(|s| s.concat()).collect();
        let forest = segment_forest(&ig, &segments);
        let shared = SharedForest::from_forest(&forest);
        prop_assert!(shared.class_count() < shared.node_count());
        check_forest("template forest", &ig, &forest, &matrix(&[cap]));
    }
}

#[test]
#[ignore = "slow: the reference takes over a second on gcc in release"]
fn large_corpora_match_the_reference() {
    for name in [CorpusName::Lcc, CorpusName::Gcc] {
        check(name.label(), &corpus(name).programs, &matrix(&[32, 256]));
    }
}

#[test]
#[ignore = "slow in debug builds"]
fn eight_by_forty_function_set_matches_the_reference() {
    let programs: Vec<Program> = (0..8u64)
        .map(|i| {
            synth::generate(&SynthConfig {
                seed: 0x8_40 + i,
                functions: 40,
                flavor: if i % 2 == 0 {
                    Flavor::Compiler
                } else {
                    Flavor::Numeric
                },
            })
        })
        .collect();
    check("8x40", &programs, &matrix(&[32, 256]));
}
