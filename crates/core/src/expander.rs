//! The grammar expander: greedy inlining of the most frequent parse-forest
//! edge (§4.1, Fig. 2).
//!
//! "To construct an expanded grammar, we parse a sample program … and
//! obtain a forest of parse trees. We then inline the pair of rules at the
//! endpoints of the most frequent edge in the forest, contract all
//! occurrences of this edge, add the new inlined rule to the grammar, and
//! repeat. We stop creating rules for a non-terminal once it has 256
//! rules." Unused inlined rules are removed ("subsumed", §4.1). The greedy
//! choice is a heuristic; the exact problem is NP-hard.
//!
//! An *edge* here is `(parent rule, slot, child rule)` where `slot` is the
//! index of the contracted child among the parent's children — the
//! specific non-terminal occurrence `B` in `A → α B β`. Counts are
//! maintained incrementally (Re-Pair style), because every contraction
//! relabels the parent and therefore changes the keys of all edges
//! incident to it. Every child node realizes exactly one edge, its
//! incoming one, and keeps only that edge's id. An edge gains
//! occurrences only in the round that creates it, so each round's
//! occurrences are counting-sorted by edge, when the round ends, into
//! one append-only store of per-edge blocks, as recompression (Jeż)
//! groups each round's pairs by sorting; and the max-heap holds one
//! entry per edge (see [`expand`] for why that suffices).

use pgr_grammar::grammar::MAX_RHS_LEN;
use pgr_grammar::{Forest, Grammar, NodeId, Nt, RuleId, RuleOrigin};
use pgr_telemetry::{names, Metrics, Recorder};
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Minimum edge frequency worth a new rule. The paper inlines while
/// profitable; an edge used once saves one derivation step but costs a
/// grammar rule.
const MIN_COUNT: u32 = 2;

/// Tuning knobs for the expander.
#[derive(Debug, Clone)]
pub struct ExpanderConfig {
    /// Rule budget per non-terminal; the paper uses 256 so every
    /// derivation step encodes as one byte. Values above 256 break the
    /// one-byte encoding: `train` refuses them with
    /// [`TrainError::RuleCap`](crate::TrainError::RuleCap), and
    /// [`expand`] panics.
    pub max_rules_per_nt: usize,
    /// Remove inlined rules that fall out of use ("in our current
    /// implementation, we remove unused inlined rules", §4.1).
    pub remove_subsumed: bool,
    /// Reserve the last one-byte rule index of this non-terminal for the
    /// verbatim-escape marker (`pgr_bytecode::escape::VERBATIM_MARKER`):
    /// the non-terminal saturates at 255 rules instead of 256, so index
    /// `0xFF` can never name a real rule at a segment start. The trainer
    /// sets this to the start non-terminal; `None` keeps the full paper
    /// budget (and forfeits the escape).
    pub escape_reserve: Option<Nt>,
}

impl Default for ExpanderConfig {
    fn default() -> ExpanderConfig {
        ExpanderConfig {
            max_rules_per_nt: 256,
            remove_subsumed: true,
            escape_reserve: None,
        }
    }
}

/// What an expansion run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpansionStats {
    /// Rules created by inlining.
    pub rules_added: usize,
    /// Inlined rules later removed as subsumed.
    pub rules_removed: usize,
    /// Total edge contractions (= derivation steps saved on the training
    /// forest).
    pub contractions: usize,
    /// Forest derivation length before expansion.
    pub derivation_before: usize,
    /// Forest derivation length after expansion.
    pub derivation_after: usize,
    /// Greedy-loop iterations: heap pops, one per queue entry examined.
    /// The heap holds one entry per edge, so this counts chosen edges,
    /// skipped candidates, and entries re-queued because the edge's
    /// count changed since it was queued.
    pub inline_iterations: u64,
    /// Candidate edges skipped because their non-terminal already held
    /// [`ExpanderConfig::max_rules_per_nt`] rules (§4.1 saturation). A
    /// skipped edge is counted again only once its count has fallen.
    pub saturated_skips: u64,
    /// Largest rules-per-non-terminal count after expansion (256 means
    /// some non-terminal used its whole one-byte index space).
    pub rules_per_nt_peak: usize,
}

/// Rule-id bits per endpoint in an [`EdgeKey`]; the slot gets the 8 bits
/// between them (a right-hand side holds at most 255 symbols).
const RULE_BITS: u32 = 28;

/// An edge `(parent rule, slot, child rule)` packed into one `u64`, parent
/// highest, so key order is the triple's lexicographic order — the
/// heap's deterministic tie-break between equally frequent edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EdgeKey(u64);

impl EdgeKey {
    fn new(parent: RuleId, slot: usize, child: RuleId) -> EdgeKey {
        debug_assert!(slot < 1 << 8);
        EdgeKey(
            u64::from(parent.0) << (RULE_BITS + 8)
                | (slot as u64) << RULE_BITS
                | u64::from(child.0),
        )
    }

    fn parent(self) -> RuleId {
        RuleId((self.0 >> (RULE_BITS + 8)) as u32)
    }

    fn slot(self) -> u32 {
        (self.0 >> RULE_BITS) as u32 & 0xFF
    }

    fn child(self) -> RuleId {
        RuleId(self.0 as u32 & ((1 << RULE_BITS) - 1))
    }
}

/// Folded-multiply hasher for [`EdgeKey`]s: the keys are internal, so
/// SipHash's flood resistance buys nothing, and folding the 128-bit
/// product mixes the parent bits into the low bits the table indexes by.
#[derive(Default)]
struct EdgeKeyHasher(u64);

impl Hasher for EdgeKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("edge keys hash through write_u64");
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = product as u64 ^ (product >> 64) as u64;
    }
}

/// `NodeId` / edge-id sentinel in the flat arrays.
const NONE: u32 = u32::MAX;

/// Incremental edge bookkeeping in flat arrays. Edges get dense ids in
/// creation order, so the edges one contraction round creates are
/// exactly the ids it appends. A node keeps only the id of the edge it
/// realizes. An edge gains occurrences only in the round that creates
/// it, so its occurrences are written once, when that round is sealed,
/// as one block of an append-only store; afterwards the block only goes
/// stale, as the edge loses occurrences.
struct EdgeIndex {
    /// Packed key → edge id, for the open round's edges only: a sealed
    /// edge's key never recurs.
    ids: HashMap<u64, u32, BuildHasherDefault<EdgeKeyHasher>>,
    /// Per edge: its key and its live occurrence count.
    key: Vec<EdgeKey>,
    count: Vec<u32>,
    /// Per sealed edge `e`, its block is `store[start[e]..start[e + 1]]`;
    /// one entry more than there are sealed edges.
    start: Vec<u32>,
    /// Node ids, the blocks of all sealed edges in edge order. Only an
    /// edge sealed at `MIN_COUNT` or more occurrences has a non-empty
    /// block.
    store: Vec<u32>,
    /// `(edge, node)` per increment of the open round.
    log: Vec<(u32, u32)>,
    /// Per node, indexed by `NodeId`: the edge it realizes, `NONE` for
    /// roots and contracted nodes.
    edge_of: Vec<u32>,
}

impl EdgeIndex {
    fn new(nodes: usize) -> EdgeIndex {
        EdgeIndex {
            ids: HashMap::default(),
            key: Vec::new(),
            count: Vec::new(),
            start: vec![0],
            store: Vec::new(),
            log: Vec::new(),
            edge_of: vec![NONE; nodes],
        }
    }

    /// The edge `node` realizes, `NONE` if none.
    fn edge_of(&self, node: NodeId) -> u32 {
        self.edge_of[node.index()]
    }

    /// Record `node` as an occurrence of the edge `key`.
    fn inc(&mut self, node: NodeId, key: EdgeKey) {
        let fresh = self.key.len() as u32;
        let e = *self.ids.entry(key.0).or_insert(fresh);
        if e == fresh {
            self.key.push(key);
            self.count.push(0);
        }
        debug_assert_eq!(self.edge_of(node), NONE, "node already realizes an edge");
        self.count[e as usize] += 1;
        self.edge_of[node.index()] = e;
        self.log.push((e, node.0));
    }

    /// Remove `node` from the occurrences of the edge it realizes. Its
    /// entry in the log or the store goes stale; readers skip it.
    fn dec(&mut self, node: NodeId) {
        let e = std::mem::replace(&mut self.edge_of[node.index()], NONE);
        self.count[e as usize] -= 1;
    }

    /// End the open round, whose keys all name `fresh` (`None` for the
    /// initial scan): counting-sort the log's live entries by edge into
    /// blocks, and queue every edge the round created at its count.
    fn seal(&mut self, fresh: Option<RuleId>, heap: &mut Queue) {
        let (first, end) = (self.start.len() - 1, self.key.len());
        debug_assert!(
            fresh.is_none_or(|r| self.key[first..]
                .iter()
                .all(|k| k.parent() == r || k.child() == r)),
            "a key of this round does not name its fresh rule"
        );
        let live = |count: u32| if count >= MIN_COUNT { count } else { 0 };
        // `start[e]` first holds the end of `e`'s block. Placing the
        // log's entries last to first counts it down to the block's
        // start and leaves each block in log order.
        let mut at = self.start.pop().expect("start holds a sentinel");
        for &count in &self.count[first..] {
            at = at
                .checked_add(live(count))
                .expect("occurrence store outgrew u32 offsets");
            self.start.push(at);
        }
        self.start.push(at);
        self.store.resize(at as usize, NONE);
        for &(e, n) in self.log.iter().rev() {
            if self.edge_of[n as usize] == e && self.count[e as usize] >= MIN_COUNT {
                let slot = &mut self.start[e as usize];
                *slot -= 1;
                self.store[*slot as usize] = n;
            }
        }
        debug_assert!(
            (first..end).all(|e| self.start[e + 1] - self.start[e] == live(self.count[e])),
            "a block holds other than its edge's live occurrences"
        );
        for e in first..end {
            queue(heap, self.count[e], self.key[e], e as u32);
        }
        if fresh.is_some() {
            self.log.clear();
        } else {
            // The initial scan logged every node; a round logs far fewer.
            self.log = Vec::new();
        }
        self.ids.clear();
    }

    /// The live occurrences of sealed edge `e`, ascending by node id,
    /// into `out`.
    fn occurrences(&self, e: u32, out: &mut Vec<NodeId>) {
        let e = e as usize;
        let block = &self.store[self.start[e] as usize..self.start[e + 1] as usize];
        out.clear();
        out.extend(
            block
                .iter()
                .filter(|&&n| self.edge_of[n as usize] == e as u32)
                .map(|&n| NodeId(n)),
        );
        debug_assert_eq!(
            out.len(),
            self.count[e] as usize,
            "a sealed edge gained an occurrence"
        );
        out.sort_unstable();
    }
}

/// The greedy loop's max-heap of `(count, key, edge id)`, at most one
/// entry per edge.
type Queue = BinaryHeap<(u32, EdgeKey, u32)>;

/// Queue edge `e` at `count`, unless that is too rare to be worth a rule.
fn queue(heap: &mut Queue, count: u32, key: EdgeKey, e: u32) {
    if count >= MIN_COUNT {
        heap.push((count, key, e));
    }
}

/// Run the greedy expansion loop, mutating `grammar` (adding inlined
/// rules, removing subsumed ones) and `forest` (contracting edges) in
/// lockstep.
///
/// Each round takes the most frequent edge (ties broken by the larger
/// `(parent, slot, child)`), inlines it as a fresh rule, and contracts
/// its occurrences in ascending node order. Because every inlined rule
/// is fresh, an edge gains occurrences only in the round that creates
/// the newer of its two rules (or in the initial scan); afterwards its
/// count only falls. So its occurrences are final when that round ends,
/// and are stored then as one block, which later rounds only filter.
/// And the heap needs one entry per edge, queued when
/// that round ends: an entry above the edge's current count is re-queued
/// at the count (lazy decrease-key). A skip for saturation re-queues the
/// edge one below its count, since a later subsumed-rule removal can free
/// the non-terminal's budget. That entry then walks down one step per pop
/// until the count falls to meet it, which is when the reference loop
/// (one entry per count increment, `tests/expander_reference.rs`) would
/// next find the edge a candidate. An edge whose inlined right-hand side
/// is too long is dropped.
///
/// # Panics
///
/// Panics if `config.max_rules_per_nt > 256` (one-byte rule indices) or
/// if the forest references rules outside `grammar`.
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
    assert!(grammar.rule_slots() <= 1 << RULE_BITS, "too many rules");
    let mut edges = EdgeIndex::new(forest.node_slots());
    let mut rule_use: Vec<u64> = vec![0; grammar.rule_slots()];
    let mut stack = Vec::new();
    for &root in forest.roots() {
        // Iterative preorder walk.
        stack.push(root);
        while let Some(id) = stack.pop() {
            let rule = forest.node(id).rule;
            rule_use[rule.index()] += 1;
            for (slot, child) in forest.children(id).enumerate() {
                edges.inc(child, EdgeKey::new(rule, slot, forest.node(child).rule));
                stack.push(child);
            }
        }
    }
    let mut heap = BinaryHeap::new();
    edges.seal(None, &mut heap);

    let mut occurrences = Vec::new();
    while let Some((queued, key, e)) = heap.pop() {
        stats.inline_iterations += 1;
        let count = edges.count[e as usize];
        if count != queued {
            // Above the count: it fell since queuing (lazy decrease-key).
            // Below it: a saturation skip's entry walking down.
            queue(&mut heap, count.min(queued - 1), key, e);
            continue;
        }
        let (parent, slot, child) = (key.parent(), key.slot(), key.child());
        let lhs = grammar.rule(parent).lhs;
        // The escape-reserved non-terminal gives up its last one-byte
        // rule index so the verbatim marker stays unambiguous.
        let nt_budget = if config.escape_reserve == Some(lhs) {
            config.max_rules_per_nt.min(255)
        } else {
            config.max_rules_per_nt
        };
        if grammar.rules_of(lhs).len() >= nt_budget {
            stats.saturated_skips += 1; // this non-terminal is saturated (§4.1)
            queue(&mut heap, count - 1, key, e);
            continue;
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
        assert!(new_rule.0 < 1 << RULE_BITS, "too many rules");
        stats.rules_added += 1;
        rule_use.push(0);

        // Contract every occurrence, in ascending node order. A
        // contraction can retire later occurrences (when the parent and
        // child rules coincide) but never adds one: new occurrences all
        // involve `new_rule`.
        edges.occurrences(e, &mut occurrences);
        for &child_node in &occurrences {
            if edges.edge_of(child_node) == e {
                contract_one(forest, &mut edges, &mut rule_use, child_node, new_rule);
                stats.contractions += 1;
            }
        }
        edges.seal(Some(new_rule), &mut heap);

        if config.remove_subsumed {
            for r in [parent, child] {
                if rule_use[r.index()] == 0
                    && grammar.rule(r).alive
                    && !matches!(grammar.rule(r).origin, RuleOrigin::Original)
                {
                    grammar.remove_rule(r);
                    stats.rules_removed += 1;
                }
            }
        }
    }

    stats.derivation_after = forest.live_count();
    stats.rules_per_nt_peak = (0..grammar.nt_count())
        .map(|i| grammar.rules_of(pgr_grammar::Nt(i as u16)).len())
        .max()
        .unwrap_or(0);
    stats
}

/// [`expand`], additionally reporting `train.*` counters (inline
/// iterations, contractions, rule churn, saturation) into `recorder`.
pub fn expand_with(
    grammar: &mut Grammar,
    forest: &mut Forest,
    config: &ExpanderConfig,
    recorder: &Recorder,
) -> ExpansionStats {
    let stats = expand(grammar, forest, config);
    if recorder.is_enabled() {
        let mut batch = Metrics::new();
        batch.add(names::TRAIN_INLINE_ITERATIONS, stats.inline_iterations);
        batch.add(names::TRAIN_CONTRACTIONS, stats.contractions as u64);
        batch.add(names::TRAIN_RULES_ADDED, stats.rules_added as u64);
        batch.add(names::TRAIN_RULES_REMOVED, stats.rules_removed as u64);
        batch.add(names::TRAIN_SATURATED_SKIPS, stats.saturated_skips);
        batch.gauge_max(
            names::TRAIN_RULES_PER_NT_PEAK,
            stats.rules_per_nt_peak as u64,
        );
        recorder.record(batch);
    }
    stats
}

/// Contract one edge occurrence: the parent of `child_node` absorbs it and
/// is relabeled `new_rule`, with all incident edges updated.
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
    // The parent's incoming edge names the grandparent's rule and the
    // parent's slot under it; neither changes here.
    let up = edges.edge_of(parent);
    debug_assert_eq!(
        up == NONE,
        forest.node(parent).parent().is_none(),
        "only roots realize no edge"
    );

    // Retire the edges incident to the parent (its label is about to
    // change): to its children, `child_node` included, and from the
    // grandparent; and the edges from `child_node` to its children.
    for ch in forest.children(parent) {
        edges.dec(ch);
    }
    if up != NONE {
        edges.dec(parent);
    }
    for gc in forest.children(child_node) {
        edges.dec(gc);
    }

    forest.contract(child_node);
    forest.relabel(parent, new_rule);
    rule_use[parent_rule.index()] -= 1;
    rule_use[child_rule.index()] -= 1;
    rule_use[new_rule.index()] += 1;

    // Re-add edges with the parent's new label.
    for (slot, ch) in forest.children(parent).enumerate() {
        edges.inc(ch, EdgeKey::new(new_rule, slot, forest.node(ch).rule));
    }
    if up != NONE {
        let up = edges.key[up as usize];
        edges.inc(
            parent,
            EdgeKey::new(up.parent(), up.slot() as usize, new_rule),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_bytecode::Opcode;
    use pgr_grammar::initial::tokenize_segment;
    use pgr_grammar::{Derivation, InitialGrammar};

    fn forest_of(ig: &InitialGrammar, segments: &[&[u8]]) -> Forest {
        let mut forest = Forest::new();
        for seg in segments {
            let tokens = tokenize_segment(seg).unwrap();
            forest.add_segment(ig, &tokens).unwrap();
        }
        forest
    }

    /// `LIT1 1 POPU` repeated: a hot statement the expander should fuse
    /// into a single start rule.
    fn hot_segment(reps: usize) -> Vec<u8> {
        let mut code = Vec::new();
        for _ in 0..reps {
            code.extend_from_slice(&[Opcode::LIT1 as u8, 1, Opcode::POPU as u8]);
        }
        code
    }

    #[test]
    fn expansion_shortens_the_training_derivation() {
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        let seg = hot_segment(50);
        let mut forest = forest_of(&ig, &[&seg]);
        let before = forest.live_count();
        let stats = expand(&mut g, &mut forest, &ExpanderConfig::default());
        assert_eq!(stats.derivation_before, before);
        assert_eq!(stats.derivation_after, forest.live_count());
        assert!(stats.derivation_after < before / 3, "expected large shrink");
        assert!(stats.rules_added > 0);
        assert_eq!(
            before - stats.derivation_after,
            stats.contractions,
            "each contraction removes exactly one derivation step"
        );
    }

    #[test]
    fn contracted_forest_still_yields_the_program() {
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        let seg = hot_segment(20);
        let tokens = tokenize_segment(&seg).unwrap();
        let mut forest = forest_of(&ig, &[&seg]);
        expand(&mut g, &mut forest, &ExpanderConfig::default());
        let root = forest.roots()[0];
        assert_eq!(forest.yield_string(&g, root), tokens);
        // And the derivation read off the contracted tree expands back.
        let d = Derivation::from_tree(&forest, root);
        assert_eq!(d.expand(&g, ig.nt_start).unwrap(), tokens);
        assert_eq!(d.len(), forest.live_count());
    }

    #[test]
    fn language_is_preserved_by_construction() {
        // Every inlined rule's RHS must equal its parent's RHS with the
        // slot non-terminal replaced by the child's RHS.
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        let seg = hot_segment(30);
        let mut forest = forest_of(&ig, &[&seg]);
        expand(&mut g, &mut forest, &ExpanderConfig::default());
        let mut checked = 0;
        for id in (0..g.rule_slots() as u32).map(RuleId) {
            let rule = g.rule(id);
            if let RuleOrigin::Inlined {
                parent,
                slot,
                child,
            } = rule.origin
            {
                if !rule.alive {
                    continue;
                }
                // Parents/children may themselves have been removed, but
                // their tombstones still record their RHS.
                let expected = g.inlined_rhs(parent, slot as usize, child);
                assert_eq!(rule.rhs, expected);
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn respects_rule_cap() {
        // One statement per segment (no spine fusion), 40 distinct
        // literals each seen four times: the expander wants 40 burnt
        // `<start> ::= LIT1 k POPU` rules, so a cap of 16 must bind.
        let mut segs: Vec<Vec<u8>> = Vec::new();
        for _ in 0..4 {
            for k in 0..40u8 {
                segs.push(vec![Opcode::LIT1 as u8, k, Opcode::POPU as u8]);
            }
        }
        let run = |cap: usize| {
            let ig = InitialGrammar::build();
            let mut g = ig.grammar.clone();
            let refs: Vec<&[u8]> = segs.iter().map(|s| s.as_slice()).collect();
            let mut forest = forest_of(&ig, &refs);
            let stats = expand(
                &mut g,
                &mut forest,
                &ExpanderConfig {
                    max_rules_per_nt: cap,
                    remove_subsumed: false,
                    ..ExpanderConfig::default()
                },
            );
            (ig, g, stats)
        };
        let (ig, g16, s16) = run(16);
        let (_, g256, s256) = run(256);
        // The cap limits rule *creation*; non-terminals that started with
        // more original rules than the cap (v1, v2, byte, ...) keep them.
        for nt in 0..g16.nt_count() {
            let nt = pgr_grammar::Nt(nt as u16);
            let original = ig.grammar.rules_of(nt).len();
            assert!(
                g16.rules_of(nt).len() <= 16.max(original),
                "{} exceeded cap with {} rules (original {original})",
                g16.nt_name(nt),
                g16.rules_of(nt).len()
            );
        }
        // The tight cap binds: <start> is saturated and the loose run
        // keeps adding rules past it.
        assert_eq!(g16.rules_of(ig.nt_start).len(), 16);
        assert!(g256.rules_of(ig.nt_start).len() > 16);
        assert!(s256.rules_added > s16.rules_added);
        assert!(s256.derivation_after <= s16.derivation_after);
    }

    #[test]
    fn min_count_two_means_no_singleton_rules() {
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        // A segment with no repetition at all.
        let seg = [Opcode::LIT1 as u8, 7, Opcode::POPU as u8];
        let mut forest = forest_of(&ig, &[&seg]);
        let stats = expand(&mut g, &mut forest, &ExpanderConfig::default());
        assert_eq!(stats.rules_added, 0);
        assert_eq!(stats.contractions, 0);
    }

    #[test]
    fn subsumed_rules_are_removed() {
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        // Repetition at two scales: first the small pattern wins, later a
        // bigger pattern subsumes it entirely.
        let seg = hot_segment(40);
        let mut forest = forest_of(&ig, &[&seg]);
        let with_removal = expand(&mut g, &mut forest, &ExpanderConfig::default());

        let ig2 = InitialGrammar::build();
        let mut g2 = ig2.grammar.clone();
        let mut forest2 = forest_of(&ig2, &[&seg]);
        let without = expand(
            &mut g2,
            &mut forest2,
            &ExpanderConfig {
                remove_subsumed: false,
                ..ExpanderConfig::default()
            },
        );
        assert_eq!(without.rules_removed, 0);
        // Same compression power either way.
        assert_eq!(with_removal.derivation_after, without.derivation_after);
        // Removal keeps the live grammar no larger.
        assert!(g.live_rule_count() <= g2.live_rule_count());
    }

    #[test]
    fn self_recursive_edges_contract_safely() {
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        // Long INDIRU chains: the hot edge is <v>::=<v><v1> into itself.
        let mut seg = vec![Opcode::ADDRLP as u8, 0, 0];
        for _ in 0..10 {
            seg.push(Opcode::INDIRU as u8);
        }
        seg.push(Opcode::POPU as u8);
        let seg3: Vec<u8> = seg
            .iter()
            .chain(seg.iter())
            .chain(seg.iter())
            .copied()
            .collect();
        let tokens = tokenize_segment(&seg3).unwrap();
        let mut forest = forest_of(&ig, &[&seg3]);
        expand(&mut g, &mut forest, &ExpanderConfig::default());
        let root = forest.roots()[0];
        assert_eq!(forest.yield_string(&g, root), tokens);
    }
}
