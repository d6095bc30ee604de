//! Shortest derivations by tiling the unique postfix parse.
//!
//! The paper finds each segment's shortest derivation with a modified
//! Earley parser over the ambiguous expanded grammar (§4.1). That
//! generality is not needed: a segment parses *uniquely* under the
//! Appendix 2 grammar ([`pgr_grammar::postfix`]), and every rule of an
//! expanded grammar stands for a fragment of such a tree — its
//! *pattern*, the right-hand side parsed with its non-terminals as
//! holes. A derivation under the expanded grammar therefore tiles the
//! segment's one tree with patterns, one output byte per tile, and a
//! shortest derivation is a minimum-cost tiling: the linear bottom-up
//! dynamic program of tree-pattern instruction selection (iburg; Fraser,
//! Hanson & Proebsting, LOPLAS 1992).
//!
//! At each node, visited in post-order, every pattern rooted at the
//! node's rule is tried; a pattern that matches costs 1 plus the best
//! costs of the nodes under its holes. Ties go to the lowest encoding
//! index — the byte the rule emits — which makes the chosen derivation
//! the lexicographically smallest shortest one. The derivation is the
//! preorder sequence of the chosen patterns' rules.
//!
//! Patterns come from right-hand sides alone, so a grammar decoded from
//! a `.pgrg` file (which keeps no provenance) tiles like the trained one.
//! They are indexed by root rule and, for the rules that place an
//! operator (`<v> ::= <v> <v1>`, `<start> ::= <start> <x>`, …), by that
//! operator, with one wildcard bucket per rule for patterns whose
//! operator is a hole. The `pgr-earley` parser stays as the reference
//! spec this tiler is tested against (`tests/tiler_reference.rs`).
//!
//! A tiling does linear work in the segment's length: each node scans
//! at most two buckets, so no work budget is needed. A request's
//! deadline bounds its time, and its line-length bound its size.

use pgr_bytecode::Opcode;
use pgr_grammar::forest::ForestParseError;
use pgr_grammar::postfix::{self, TreeBuilder};
use pgr_grammar::{Derivation, Grammar, InitialGrammar, Nt, RuleId, Symbol, Terminal};
use pgr_telemetry::{names, CancelToken, Metrics, Recorder};
use std::fmt;
use std::ops::Range;

/// Label of a pattern node standing for a hole.
const HOLE: u16 = u16::MAX;
/// Operator slot of a keyed bucket for patterns whose operator is a hole.
const WILD: usize = Opcode::COUNT;
/// "No child decides the operator" in [`Tiler::head_child`].
const NO_HEAD: u8 = u8::MAX;
/// Subject nodes between two cancellation polls of the dynamic program.
const CANCEL_POLL: usize = 64;
/// Input symbols between two cancellation polls of the tree build.
const SYMBOL_POLL: usize = 4096;

/// Why a segment has no tiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoParse {
    /// The tokens are not postfix code, so the expanded grammar (which
    /// derives exactly the Appendix 2 language) has no derivation.
    NoDerivation {
        /// The token position the postfix parse stopped at: tokens
        /// `0..furthest` parsed, and the error is at or near token
        /// `furthest` (the segment's length when the tokens ran out).
        furthest: usize,
    },
    /// The tiling was abandoned because its [`CancelToken`] fired: the
    /// request's deadline passed or its owner cancelled it. A resource
    /// decision, not a language one.
    Cancelled {
        /// Milliseconds between the token's creation (request arrival)
        /// and the poll that saw it fire.
        elapsed_ms: u64,
    },
}

impl fmt::Display for NoParse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoParse::NoDerivation { furthest } => {
                write!(f, "input has no derivation (stuck near token {furthest})")
            }
            NoParse::Cancelled { elapsed_ms } => write!(
                f,
                "parse abandoned: request cancelled after {elapsed_ms} ms"
            ),
        }
    }
}

impl std::error::Error for NoParse {}

/// One node of a rule's pattern, in preorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternNode {
    /// An application of this Appendix 2 rule (an id of
    /// [`InitialGrammar::grammar`]).
    Rule(RuleId),
    /// A non-terminal of the right-hand side.
    Hole,
}

/// A rule's pattern in the table.
struct Pattern {
    /// The rule, as an id of the tiled grammar.
    rule: RuleId,
    /// Its encoding index within its non-terminal (the byte it emits).
    index: usize,
    /// How many holes it has: the floor of its cost is `1 + holes`.
    holes: u32,
    /// Its nodes in [`Tiler::nodes`], preorder, holes as [`HOLE`].
    nodes: Range<u32>,
}

/// A minimum-cost tiler for one admitted grammar.
///
/// Build it once per grammar and share it; per-segment state lives in a
/// [`TileScratch`] per worker.
pub struct Tiler {
    ig: InitialGrammar,
    /// Per Appendix 2 rule: children (its right-hand side's
    /// non-terminals).
    arity: Vec<u8>,
    /// Per Appendix 2 rule: the operator it applies, for group rules
    /// (`<v2> ::= ADDU`), else [`WILD`].
    op: Vec<u8>,
    /// Per Appendix 2 rule: the child whose operator the rule places
    /// (`<v> ::= <v> <v1>` → child 1), or [`NO_HEAD`]; rules with one
    /// are keyed by that operator.
    head_child: Vec<u8>,
    /// Per Appendix 2 rule: its first key; keyed rules own `WILD + 1`.
    key_base: Vec<u32>,
    /// `entries[buckets[k]..buckets[k + 1]]` are the patterns of key `k`,
    /// in encoding-index order.
    buckets: Vec<u32>,
    entries: Vec<u32>,
    patterns: Vec<Pattern>,
    nodes: Vec<u16>,
    /// Grammar rule id → pattern (`u32::MAX` for removed rules).
    by_rule: Vec<u32>,
    recorder: Recorder,
}

impl Tiler {
    /// Build the pattern table of `grammar` (start symbol `start`).
    ///
    /// # Panics
    ///
    /// Panics, naming the rule, if the grammar is not one
    /// [`postfix::admit`] accepts: tiling needs every Appendix 2 rule and
    /// a pattern for every other rule. Grammars read from `.pgrg` files
    /// are checked when decoded, so only grammars built in memory can
    /// reach this.
    pub fn new(grammar: &Grammar, start: Nt) -> Tiler {
        Tiler::with_recorder(grammar, start, Recorder::disabled())
    }

    /// Like [`Tiler::new`], but report the tiler's counters
    /// (`tiler.segments`, `tiler.tokens`, `tiler.no_derivation`,
    /// `tiler.cancelled`, `tiler.nodes`, `tiler.candidates`) and its
    /// table size into `recorder`.
    ///
    /// # Panics
    ///
    /// See [`Tiler::new`].
    pub fn with_recorder(grammar: &Grammar, start: Nt, recorder: Recorder) -> Tiler {
        if let Err(e) = postfix::admit(grammar, start) {
            let rule = match e {
                postfix::Inadmissible::NotSentential { rule, .. } => {
                    format!(" ({})", grammar.display_rule(rule))
                }
                _ => String::new(),
            };
            panic!("grammar cannot be tiled: {e}{rule}");
        }
        let ig = InitialGrammar::build();
        let labels = ig.grammar.rule_slots();
        let mut arity = vec![0u8; labels];
        let mut op = vec![WILD as u8; labels];
        let mut head_child = vec![NO_HEAD; labels];
        for (i, a) in arity.iter_mut().enumerate() {
            *a = ig.grammar.rule(RuleId(i as u32)).arity() as u8;
        }
        for (o, rule) in ig.opcode_rule.iter().enumerate() {
            if let Some(rule) = rule {
                op[rule.index()] = o as u8;
            }
        }
        for rule in [
            ig.v_leaf,
            ig.v_unary,
            ig.v_binary,
            ig.x_leaf,
            ig.x_unary,
            ig.x_binary,
        ] {
            head_child[rule.index()] = arity[rule.index()] - 1;
        }
        head_child[ig.start_rec.index()] = 1;
        let mut key_base = Vec::with_capacity(labels);
        let mut keys = 0u32;
        for &h in &head_child {
            key_base.push(keys);
            keys += if h == NO_HEAD { 1 } else { WILD as u32 + 1 };
        }

        let mut tiler = Tiler {
            ig,
            arity,
            op,
            head_child,
            key_base,
            buckets: Vec::new(),
            entries: Vec::new(),
            patterns: Vec::new(),
            nodes: Vec::new(),
            by_rule: vec![u32::MAX; grammar.rule_slots()],
            recorder,
        };
        let mut keyed: Vec<u32> = Vec::new();
        let mut fragment = Fragment::default();
        for nt in (0..grammar.nt_count()).map(|i| Nt(i as u16)) {
            for (index, &rule) in grammar.rules_of(nt).iter().enumerate() {
                let rhs = grammar.rule(rule).rhs.iter().copied();
                fragment.clear();
                let root = postfix::parse(&tiler.ig, nt, rhs, &mut fragment)
                    .expect("admitted rules parse as fragments");
                let start = tiler.nodes.len() as u32;
                let holes = fragment.preorder(root, &mut tiler.nodes);
                keyed.push(tiler.key(&fragment, root));
                tiler.by_rule[rule.index()] = tiler.patterns.len() as u32;
                tiler.patterns.push(Pattern {
                    rule,
                    index,
                    holes,
                    nodes: start..tiler.nodes.len() as u32,
                });
            }
        }
        // Each bucket in (floor, encoding index) order, so a scan can stop
        // at the first candidate that cannot win.
        let patterns = &tiler.patterns;
        tiler.entries = (0..patterns.len() as u32).collect();
        tiler.entries.sort_by_key(|&p| {
            let pattern = &patterns[p as usize];
            (keyed[p as usize], pattern.holes, pattern.index)
        });
        tiler.buckets = vec![0; keys as usize + 1];
        for &k in &keyed {
            tiler.buckets[k as usize + 1] += 1;
        }
        for k in 0..keys as usize {
            tiler.buckets[k + 1] += tiler.buckets[k];
        }
        if tiler.recorder.is_enabled() {
            tiler
                .recorder
                .gauge_max(names::TILER_TABLE_BYTES, tiler.table_bytes() as u64);
        }
        tiler
    }

    /// The bucket a pattern rooted at `root` of `fragment` belongs to.
    fn key(&self, fragment: &Fragment, root: u32) -> u32 {
        let label = fragment.label[root as usize];
        let base = self.key_base[usize::from(label)];
        let mut n = root as usize;
        loop {
            let l = fragment.label[n];
            if l == HOLE {
                return base + WILD as u32;
            }
            match self.head_child[usize::from(l)] {
                NO_HEAD if n == root as usize => return base,
                NO_HEAD => return base + u32::from(self.op[usize::from(l)]),
                c => n = fragment.kids[fragment.kids_start[n] as usize + usize::from(c)] as usize,
            }
        }
    }

    /// Resident size of the pattern table and its index, in bytes.
    pub fn table_bytes(&self) -> usize {
        self.arity.len() * 3
            + self.key_base.len() * 4
            + self.buckets.len() * 4
            + self.entries.len() * 4
            + self.patterns.len() * std::mem::size_of::<Pattern>()
            + self.nodes.len() * 2
            + self.by_rule.len() * 4
    }

    /// The pattern of `rule` (an id of the tiled grammar), in preorder,
    /// or `None` for a removed rule.
    pub fn pattern(&self, rule: RuleId) -> Option<Vec<PatternNode>> {
        let &p = self.by_rule.get(rule.index())?;
        let pattern = self.patterns.get(p as usize)?;
        let nodes = &self.nodes[pattern.nodes.start as usize..pattern.nodes.end as usize];
        Some(
            nodes
                .iter()
                .map(|&l| match l {
                    HOLE => PatternNode::Hole,
                    l => PatternNode::Rule(RuleId(u32::from(l))),
                })
                .collect(),
        )
    }

    /// Find a shortest leftmost derivation of `tokens` from the start
    /// symbol, using `scratch` for all per-segment state. `cancel` is
    /// polled every few thousand tokens while the segment's tree is
    /// built and every few dozen tree nodes of the dynamic program.
    ///
    /// # Errors
    ///
    /// [`NoParse::NoDerivation`] if the tokens are not postfix code, or
    /// [`NoParse::Cancelled`].
    pub fn tile(
        &self,
        scratch: &mut TileScratch,
        tokens: &[Terminal],
        cancel: Option<&CancelToken>,
    ) -> Result<Derivation, NoParse> {
        let mut work = Work::default();
        let outcome = self.run(scratch, tokens, cancel, &mut work);
        if self.recorder.is_enabled() {
            let mut batch = Metrics::new();
            batch.add(names::TILER_SEGMENTS, 1);
            batch.add(names::TILER_TOKENS, tokens.len() as u64);
            batch.add(names::TILER_NODES, work.nodes);
            batch.add(names::TILER_CANDIDATES, work.candidates);
            match &outcome {
                Ok(_) => {}
                Err(NoParse::NoDerivation { .. }) => batch.add(names::TILER_NO_DERIVATION, 1),
                Err(NoParse::Cancelled { .. }) => batch.add(names::TILER_CANCELLED, 1),
            }
            self.recorder.record(batch);
        }
        outcome
    }

    fn run(
        &self,
        scratch: &mut TileScratch,
        tokens: &[Terminal],
        cancel: Option<&CancelToken>,
        work: &mut Work,
    ) -> Result<Derivation, NoParse> {
        scratch.subject.clear();
        // A fired token ends the input early. The cut input is never
        // tiled, whether or not its prefix happened to parse.
        let mut cut = None;
        let symbols = tokens.iter().enumerate().map_while(|(i, &t)| {
            if cut.is_none() && i % SYMBOL_POLL == SYMBOL_POLL - 1 {
                cut = cancel.filter(|c| c.is_cancelled());
            }
            cut.is_none().then_some(Symbol::T(t))
        });
        let parsed = postfix::parse(&self.ig, self.ig.nt_start, symbols, &mut scratch.subject);
        if let Some(c) = cut {
            return Err(NoParse::Cancelled {
                elapsed_ms: c.elapsed_ms(),
            });
        }
        let root = parsed.map_err(|e| NoParse::NoDerivation {
            furthest: match e {
                ForestParseError::UnexpectedToken { position }
                | ForestParseError::StackUnderflow { position } => position,
                ForestParseError::DanglingValues { .. } | ForestParseError::WrongGoal { .. } => {
                    tokens.len()
                }
            },
        })?;

        let TileScratch {
            subject,
            head,
            cost,
            choice,
            stack,
        } = scratch;
        let count = subject.label.len();
        work.nodes = count as u64;
        head.clear();
        cost.clear();
        choice.clear();
        for n in 0..count {
            if n % CANCEL_POLL == CANCEL_POLL - 1 {
                if let Some(c) = cancel.filter(|c| c.is_cancelled()) {
                    return Err(NoParse::Cancelled {
                        elapsed_ms: c.elapsed_ms(),
                    });
                }
            }
            let label = usize::from(subject.label[n]);
            let base = self.key_base[label] as usize;
            let h = match self.head_child[label] {
                NO_HEAD => self.op[label],
                c => head[subject.kids[subject.kids_start[n] as usize + usize::from(c)] as usize],
            };
            head.push(h);
            let (exact, wild) = if self.head_child[label] == NO_HEAD {
                (self.bucket(base), 0..0)
            } else {
                (self.bucket(base + usize::from(h)), self.bucket(base + WILD))
            };
            work.candidates += (exact.len() + wild.len()) as u64;
            // Best (cost, encoding index, pattern) so far.
            let mut best = (u32::MAX, usize::MAX, u32::MAX);
            for bucket in [exact, wild] {
                for &p in &self.entries[bucket] {
                    let pattern = &self.patterns[p as usize];
                    if (1 + pattern.holes, pattern.index) >= (best.0, best.1) {
                        break; // neither it nor any later candidate can win
                    }
                    if let Some(c) = self.matches(pattern, n as u32, subject, cost, stack, None) {
                        if (c, pattern.index) < (best.0, best.1) {
                            best = (c, pattern.index, p);
                        }
                    }
                }
            }
            debug_assert!(best.2 != u32::MAX, "Appendix 2 rules tile every node");
            cost.push(best.0);
            choice.push(best.2);
        }

        // Emit the preorder rule sequence of the chosen tiling.
        let mut rules = Vec::with_capacity(cost[root as usize] as usize);
        let mut pending = vec![root];
        let mut holes = Vec::new();
        while let Some(n) = pending.pop() {
            let pattern = &self.patterns[choice[n as usize] as usize];
            rules.push(pattern.rule);
            holes.clear();
            self.matches(pattern, n, subject, cost, stack, Some(&mut holes));
            pending.extend(holes.iter().rev());
        }
        Ok(Derivation(rules))
    }

    fn bucket(&self, key: usize) -> Range<usize> {
        self.buckets[key] as usize..self.buckets[key + 1] as usize
    }

    /// Match `pattern` at subject node `at`: its cost if it matches
    /// (pushing the nodes under its holes, in order, onto `holes`).
    fn matches(
        &self,
        pattern: &Pattern,
        at: u32,
        subject: &Fragment,
        cost: &[u32],
        stack: &mut Vec<u32>,
        mut holes: Option<&mut Vec<u32>>,
    ) -> Option<u32> {
        stack.clear();
        stack.push(at);
        let mut total = 1u32;
        for &label in &self.nodes[pattern.nodes.start as usize..pattern.nodes.end as usize] {
            let n = stack
                .pop()
                .expect("the pattern and subject trees have the same shape");
            if label == HOLE {
                total = total.saturating_add(cost[n as usize]);
                if let Some(holes) = holes.as_deref_mut() {
                    holes.push(n);
                }
                continue;
            }
            if subject.label[n as usize] != label {
                return None;
            }
            let first = subject.kids_start[n as usize] as usize;
            let arity = usize::from(self.arity[usize::from(label)]);
            stack.extend(subject.kids[first..first + arity].iter().rev());
        }
        Some(total)
    }
}

/// Work one tiling did, flushed to the recorder.
#[derive(Default)]
struct Work {
    nodes: u64,
    candidates: u64,
}

/// A tree built by the postfix parser: per node its label (an Appendix 2
/// rule index, or [`HOLE`]) and its children, in build order (children
/// first).
#[derive(Default)]
struct Fragment {
    label: Vec<u16>,
    kids_start: Vec<u32>,
    kids: Vec<u32>,
}

impl Fragment {
    fn clear(&mut self) {
        self.label.clear();
        self.kids_start.clear();
        self.kids.clear();
    }

    /// Append the labels under `root` to `out` in preorder; returns how
    /// many holes there were.
    fn preorder(&self, root: u32, out: &mut Vec<u16>) -> u32 {
        let mut holes = 0;
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let n = n as usize;
            out.push(self.label[n]);
            if self.label[n] == HOLE {
                holes += 1;
                continue;
            }
            let end = self
                .kids_start
                .get(n + 1)
                .map_or(self.kids.len(), |&e| e as usize);
            stack.extend(self.kids[self.kids_start[n] as usize..end].iter().rev());
        }
        holes
    }
}

impl TreeBuilder for Fragment {
    type Node = u32;

    fn hole(&mut self, _: Nt) -> u32 {
        self.label.push(HOLE);
        self.kids_start.push(self.kids.len() as u32);
        self.label.len() as u32 - 1
    }

    fn node(&mut self, rule: RuleId, children: &[u32]) -> u32 {
        self.label.push(rule.0 as u16);
        self.kids_start.push(self.kids.len() as u32);
        self.kids.extend_from_slice(children);
        self.label.len() as u32 - 1
    }
}

/// Per-worker tiling state: the segment's tree and the dynamic
/// program's tables, cleared — not reallocated — per segment.
#[derive(Default)]
pub struct TileScratch {
    subject: Fragment,
    /// Per subject node: the operator its rule places, or [`WILD`].
    head: Vec<u8>,
    /// Per subject node: the cost of its best tiling.
    cost: Vec<u32>,
    /// Per subject node: the pattern rooted there in its best tiling.
    choice: Vec<u32>,
    stack: Vec<u32>,
}

impl TileScratch {
    /// An empty scratch; it grows to the longest segment it serves.
    pub fn new() -> TileScratch {
        TileScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_grammar::initial::tokenize_segment;
    use pgr_grammar::RuleOrigin;

    fn tokens(code: &[u8]) -> Vec<Terminal> {
        tokenize_segment(code).unwrap()
    }

    #[test]
    fn initial_grammar_tiles_with_one_rule_per_node() {
        let ig = InitialGrammar::build();
        let tiler = Tiler::new(&ig.grammar, ig.nt_start);
        let t = tokens(&[Opcode::RETV as u8]);
        let d = tiler.tile(&mut TileScratch::new(), &t, None).unwrap();
        assert_eq!(
            d.0,
            vec![
                ig.start_rec,
                ig.start_empty,
                ig.x_leaf,
                ig.rule_for_opcode(Opcode::RETV)
            ]
        );
    }

    #[test]
    fn inlined_rules_shorten_the_tiling_and_ties_take_the_lower_index() {
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        let retv = ig.rule_for_opcode(Opcode::RETV);
        let inline = |g: &mut Grammar, parent: RuleId, slot: usize, child: RuleId| {
            let rhs = g.inlined_rhs(parent, slot, child);
            let lhs = g.rule(parent).lhs;
            g.add_rule(
                lhs,
                rhs,
                RuleOrigin::Inlined {
                    parent,
                    slot: slot as u32,
                    child,
                },
            )
        };
        // <x> ::= RETV, then <start> ::= <start> RETV twice over (the
        // second via <start> ::= <start> <x0>): equal cost, lower index
        // wins.
        let x_retv = inline(&mut g, ig.x_leaf, 0, retv);
        let s_x0 = inline(&mut g, ig.start_rec, 1, ig.x_leaf);
        let s_retv = inline(&mut g, s_x0, 1, retv);
        let s_retv_too = inline(&mut g, ig.start_rec, 1, x_retv);
        assert_eq!(g.rule(s_retv).rhs, g.rule(s_retv_too).rhs);
        let tiler = Tiler::new(&g, ig.nt_start);
        let t = tokens(&[Opcode::RETV as u8]);
        let d = tiler.tile(&mut TileScratch::new(), &t, None).unwrap();
        assert_eq!(d.0, vec![s_retv, ig.start_empty]);
        assert_eq!(d.expand(&g, ig.nt_start).unwrap(), t);
        assert_eq!(
            tiler.pattern(s_retv).unwrap(),
            vec![
                PatternNode::Rule(ig.start_rec),
                PatternNode::Hole,
                PatternNode::Rule(ig.x_leaf),
                PatternNode::Rule(retv),
            ]
        );
    }

    #[test]
    fn malformed_tokens_have_no_derivation() {
        let ig = InitialGrammar::build();
        let tiler = Tiler::new(&ig.grammar, ig.nt_start);
        let none = |t: &[Terminal]| tiler.tile(&mut TileScratch::new(), t, None);
        assert_eq!(
            none(&tokens(&[Opcode::ADDU as u8])),
            Err(NoParse::NoDerivation { furthest: 0 })
        );
        assert_eq!(
            none(&tokens(&[Opcode::LIT1 as u8, 7])),
            Err(NoParse::NoDerivation { furthest: 2 })
        );
    }

    #[test]
    fn a_fired_token_stops_the_tiling() {
        let ig = InitialGrammar::build();
        let recorder = Recorder::new();
        let tiler = Tiler::with_recorder(&ig.grammar, ig.nt_start, recorder.clone());
        let mut scratch = TileScratch::new();
        // `LIT1 1; POPU` 3,000 times over: 9,000 tokens, past two poll
        // strides of input symbols and many of tree nodes.
        let code: Vec<u8> = [Opcode::LIT1 as u8, 1, Opcode::POPU as u8].repeat(3000);
        let t = tokens(&code);
        assert!(t.len() >= 2 * SYMBOL_POLL);
        // Fired before the call: the tree build stops at its first poll,
        // so no node is counted, let alone tiled.
        let fired = CancelToken::new();
        fired.cancel();
        assert!(matches!(
            tiler.tile(&mut scratch, &t, Some(&fired)),
            Err(NoParse::Cancelled { .. })
        ));
        assert_eq!(recorder.snapshot().counter(names::TILER_NODES), 0);
        assert!(tiler
            .tile(&mut scratch, &t, Some(&CancelToken::new()))
            .is_ok());
        assert_eq!(
            tiler_counts(&recorder),
            (2, 2 * t.len() as u64, 0, 1),
            "segments, tokens, no derivation, cancelled"
        );
        assert_eq!(
            tiler.tile(&mut scratch, &tokens(&[Opcode::ADDU as u8]), None),
            Err(NoParse::NoDerivation { furthest: 0 })
        );
        assert_eq!(tiler_counts(&recorder).2, 1);
    }

    fn tiler_counts(recorder: &Recorder) -> (u64, u64, u64, u64) {
        let m = recorder.snapshot();
        (
            m.counter(names::TILER_SEGMENTS),
            m.counter(names::TILER_TOKENS),
            m.counter(names::TILER_NO_DERIVATION),
            m.counter(names::TILER_CANCELLED),
        )
    }

    #[test]
    #[should_panic(
        expected = "grammar cannot be tiled: rule 3 of <v> is not a sentential form of <v> (<v> ::= <x>)"
    )]
    fn inadmissible_grammars_panic_naming_the_rule() {
        let ig = InitialGrammar::build();
        let mut g = ig.grammar.clone();
        g.add_rule(ig.nt_v, vec![Symbol::N(ig.nt_x)], RuleOrigin::Original);
        Tiler::new(&g, ig.nt_start);
    }
}
