//! # pgr-earley
//!
//! A cost-weighted Earley parser that finds *shortest derivations*.
//!
//! "We use Earley's parsing algorithm, slightly modified, to obtain a
//! shortest derivation for a given sequence" (Evans & Fraser, PLDI 2001,
//! §4.1). The expanded grammar is deliberately ambiguous — the original
//! rules stay alongside the inlined ones — and the compressor is "free to
//! choose any derivation …; since our goal is compression, we want a
//! minimum length derivation", where length is the number of rules used
//! (one output byte per rule).
//!
//! This parser is the reference spec, not the production encoder: the
//! compressor (`pgr_core::tile`) finds derivations of the same length by
//! tiling each segment's unique postfix parse, and
//! `tests/tiler_reference.rs` checks the two against each other. It also
//! serves grammars the tiler does not take, such as the typed grammar of
//! the A5 ablation.
//!
//! The modification is a min-plus (tropical) cost semiring over classic
//! Earley items: every rule application costs 1, completions keep the
//! cheapest derivation per `(non-terminal, origin, end)` span, and cost
//! improvements re-propagate through a per-position worklist until
//! fixpoint, which handles the grammar's left recursion and the nullable
//! start symbol. Prediction is filtered by one-token lookahead using a
//! flattened per-`(non-terminal, next-terminal)` index over per-rule
//! FIRST sets, which keeps the chart small for grammars with hundreds of
//! rules per non-terminal.
//!
//! The hot path never touches the mutable [`Grammar`] representation:
//! construction snapshots it into a dense
//! [`RuleTable`](pgr_grammar::RuleTable) (`u32` right-hand sides, packed
//! symbols), and all per-parse scratch lives in a reusable [`ChartArena`]
//! that is cleared — not reallocated — between segments. Batch callers
//! hold one arena per worker and call [`ShortestParser::parse_into`];
//! [`ShortestParser::parse`] is the convenience form that pays a fresh
//! allocation per call.
//!
//! The main entry point is [`ShortestParser`]:
//!
//! ```
//! use pgr_grammar::{InitialGrammar, initial::tokenize_segment};
//! use pgr_earley::{ChartArena, ShortestParser};
//! use pgr_bytecode::Opcode;
//!
//! let ig = InitialGrammar::build();
//! let parser = ShortestParser::new(&ig.grammar);
//! let tokens = tokenize_segment(&[Opcode::RETV as u8]).unwrap();
//! let d = parser.parse(ig.nt_start, &tokens).unwrap();
//! // <start> ::= <start> <x>, <start> ::= ε, <x> ::= <x0>, <x0> ::= RETV
//! assert_eq!(d.len(), 4);
//! assert_eq!(d.expand(&ig.grammar, ig.nt_start).unwrap(), tokens);
//!
//! // The reusable form: one arena, many segments, no per-parse setup.
//! let mut arena = ChartArena::new();
//! assert_eq!(parser.parse_into(&mut arena, ig.nt_start, &tokens).unwrap(), d);
//! assert_eq!(parser.parse_into(&mut arena, ig.nt_start, &tokens).unwrap(), d);
//! ```

#![warn(missing_docs)]

mod hash;
mod predict;

#[cfg(test)]
mod tests;

pub use predict::PredictTable;

use hash::U64Map;
use pgr_grammar::symbol::TERMINAL_SPACE;
use pgr_grammar::{Derivation, Grammar, Nt, RuleId, RuleTable, Terminal};
use pgr_telemetry::{names, CancelToken, Metrics, Recorder};
use std::fmt;

/// An error from the shortest-derivation parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoParse {
    /// The input is not in the grammar's language.
    NoDerivation {
        /// The furthest token position the parser scanned to before
        /// failing: tokens `0..furthest` are a viable prefix, and the
        /// input is not in the grammar's language at or near token
        /// `furthest`. Lookahead pruning may reject a continuation at
        /// prediction time without ever creating items beyond this
        /// position; the reported position is the furthest *scanned* one
        /// either way.
        furthest: usize,
    },
    /// The parse was abandoned because it hit an [`EarleyBudget`] limit
    /// before reaching a verdict. This is a resource decision, not a
    /// language one: the input may or may not be derivable.
    BudgetExceeded {
        /// Chart items created when the budget tripped.
        items: usize,
        /// Chart columns the parse required (`tokens + 1`).
        columns: usize,
    },
    /// The parse was abandoned because its [`CancelToken`] fired —
    /// the request's deadline passed or the owner cancelled it. Like
    /// [`NoParse::BudgetExceeded`], this is a resource decision, not a
    /// language one.
    Cancelled {
        /// Milliseconds between the token's creation (request arrival)
        /// and the cancellation check that fired.
        elapsed_ms: u64,
    },
}

impl fmt::Display for NoParse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoParse::NoDerivation { furthest } => {
                write!(f, "input has no derivation (stuck near token {furthest})")
            }
            NoParse::BudgetExceeded { items, columns } => write!(
                f,
                "parse abandoned: Earley budget exceeded ({items} work items, {columns} columns)"
            ),
            NoParse::Cancelled { elapsed_ms } => write!(
                f,
                "parse abandoned: request cancelled after {elapsed_ms} ms"
            ),
        }
    }
}

impl std::error::Error for NoParse {}

/// A work budget for one parse: caps that turn an expensive segment into
/// a clean [`NoParse::BudgetExceeded`] instead of unbounded chart work.
///
/// The paper caps its Earley parser because chart work grows faster
/// than segment length (§4.1). It applies to this crate's
/// [`ShortestParser`] only: the compressor tiles each segment in linear
/// time (`pgr_core::tile`) and takes no budget.
///
/// The default budget is unlimited; a limited budget costs one integer
/// compare per worklist pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EarleyBudget {
    /// Maximum chart items (states across all columns) one parse may
    /// create.
    pub max_items: usize,
    /// Maximum chart columns (`segment tokens + 1`) a parse may use;
    /// checked up front, so over-long segments fail before any chart
    /// work.
    pub max_columns: usize,
}

impl Default for EarleyBudget {
    fn default() -> EarleyBudget {
        EarleyBudget::UNLIMITED
    }
}

impl EarleyBudget {
    /// No limits (the default): the parser behaves exactly as if no
    /// budget existed.
    pub const UNLIMITED: EarleyBudget = EarleyBudget {
        max_items: usize::MAX,
        max_columns: usize::MAX,
    };

    /// Whether this budget can never trip.
    pub fn is_unlimited(&self) -> bool {
        *self == EarleyBudget::UNLIMITED
    }

    /// Cap work items (builder-style); see [`EarleyBudget::max_items`].
    pub fn max_items(mut self, items: usize) -> EarleyBudget {
        self.max_items = items;
        self
    }

    /// Cap chart columns (builder-style).
    pub fn max_columns(mut self, columns: usize) -> EarleyBudget {
        self.max_columns = columns;
        self
    }
}

// ---- item-key packing --------------------------------------------------
//
// Chart items are deduplicated by a packed 64-bit key: origin in the top
// 32 bits, rule id in the middle 23, dot position in the low 9. The
// packing is only collision-free while every field fits its lane, so the
// limits are enforced loudly: at compile time for the dot (the grammar
// caps right-hand sides at `MAX_RHS_LEN`), and at parser construction for
// the rule count (`assert_key_capacity`).

/// Bits reserved for the dot position in an item key.
const DOT_BITS: u32 = 9;
/// Bits reserved for the rule id in an item key.
const RULE_BITS: u32 = 23;
/// Exclusive upper bound on dot positions an item key can hold.
const MAX_DOT: usize = 1 << DOT_BITS;
/// Maximum rule slots (live or tombstoned) an item key can address.
pub const MAX_RULE_SLOTS: usize = 1 << RULE_BITS;

// A dot ranges over 0..=rhs.len(), so the grammar's RHS cap must leave
// one spare value below the lane size.
const _: () = assert!(pgr_grammar::grammar::MAX_RHS_LEN < MAX_DOT);
// The two packed fields must exactly fill the low half of the key.
const _: () = assert!(DOT_BITS + RULE_BITS == 32);

/// Panic (loudly, with the offending count) if a grammar has too many
/// rule slots for the 23-bit rule lane of the packed item keys.
fn assert_key_capacity(rule_slots: usize) {
    assert!(
        rule_slots <= MAX_RULE_SLOTS,
        "grammar has {rule_slots} rule slots but chart item keys pack rule \
         ids into {RULE_BITS} bits (max {MAX_RULE_SLOTS}); a parser over \
         this grammar would silently collide chart keys"
    );
}

fn item_key(rule: RuleId, dot: u16, origin: u32) -> u64 {
    debug_assert!((rule.0 as usize) < MAX_RULE_SLOTS, "rule id overflows key");
    debug_assert!((dot as usize) < MAX_DOT, "dot overflows key");
    (u64::from(origin) << 32) | (u64::from(rule.0) << DOT_BITS) | u64::from(dot)
}

fn completed_key(nt: Nt, origin: u32) -> u64 {
    (u64::from(origin) << 16) | u64::from(nt.0)
}

/// How an item instance was reached (for derivation reconstruction).
#[derive(Debug, Clone, Copy)]
enum Back {
    /// Fresh prediction (dot at 0).
    Predicted,
    /// Advanced over a terminal from the same item at the previous
    /// position.
    Scan { prev: u32 },
    /// Advanced over a completed non-terminal: `prev` (in
    /// `chart[prev_pos]`) is the item before the non-terminal, and the
    /// child is the best completion of `(nt, child_origin)` ending at
    /// this item's position.
    Complete {
        prev_pos: u32,
        prev: u32,
        nt: Nt,
        child_origin: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct State {
    rule: RuleId,
    dot: u16,
    origin: u32,
    cost: u32,
    back: Back,
}

/// One chart column. Lives inside a [`ChartArena`]; `clear` empties every
/// container while keeping its allocation.
struct Column {
    states: Vec<State>,
    index: U64Map,
    /// Items whose next symbol is a non-terminal, grouped by it.
    waiting: Vec<Vec<u32>>,
    /// Parallel to `states`: already registered in a waiting list (a
    /// state's next symbol is fixed, so one flag replaces the linear
    /// `waiting[nt].contains` scan on every reprocessing).
    in_waiting: Vec<bool>,
    /// `(nt, origin)` → slot into `completed_info`.
    completed: U64Map,
    /// `(best cost, completed-state index)` per slot.
    completed_info: Vec<(u32, u32)>,
    predicted: Vec<bool>,
}

impl Column {
    fn new(nt_count: usize) -> Column {
        Column {
            states: Vec::new(),
            index: U64Map::new(),
            waiting: vec![Vec::new(); nt_count],
            in_waiting: Vec::new(),
            completed: U64Map::new(),
            completed_info: Vec::new(),
            predicted: vec![false; nt_count],
        }
    }

    /// Empty the column for reuse, keeping allocations, and make its
    /// per-non-terminal tables match `nt_count` (the arena may be reused
    /// across grammars).
    fn clear(&mut self, nt_count: usize) {
        self.states.clear();
        self.index.clear();
        for w in &mut self.waiting {
            w.clear();
        }
        self.waiting.resize_with(nt_count, Vec::new);
        self.in_waiting.clear();
        self.completed.clear();
        self.completed_info.clear();
        self.predicted.clear();
        self.predicted.resize(nt_count, false);
    }
}

/// Reusable per-parse scratch: chart columns, their index maps, waiting
/// lists, and the propagation worklist.
///
/// A fresh arena allocates nothing; the first parse grows it to the
/// segment's size and subsequent parses reuse (and only clear) that
/// memory, so a long-lived arena reaches a steady state with zero
/// allocation per parse. Arenas are cheap to create but expensive to
/// warm — hold one per worker thread and feed it to
/// [`ShortestParser::parse_into`].
///
/// An arena is not tied to a parser or grammar: reusing it across
/// grammars is correct (per-grammar tables are re-sized on the fly), just
/// less effective.
#[derive(Default)]
pub struct ChartArena {
    columns: Vec<Column>,
    work: Vec<u32>,
    /// Columns used by the most recent parse (the only dirty ones).
    touched: usize,
    /// Whether any parse has used this arena (drives `earley.arena.reuse`).
    warm: bool,
    /// High-water mark of columns ever used.
    columns_peak: usize,
}

impl ChartArena {
    /// Create an empty arena. No memory is allocated until the first
    /// parse.
    pub fn new() -> ChartArena {
        ChartArena::default()
    }

    /// High-water mark of chart columns (longest segment + 1) this arena
    /// has served.
    pub fn columns_peak(&self) -> usize {
        self.columns_peak
    }

    /// Clear the dirty prefix and guarantee `cols` usable columns sized
    /// for `nt_count` non-terminals.
    fn prepare(&mut self, cols: usize, nt_count: usize) {
        for col in self.columns.iter_mut().take(self.touched) {
            col.clear(nt_count);
        }
        // Columns beyond the dirty prefix are already empty but may carry
        // per-non-terminal tables from a differently-sized grammar.
        for col in self.columns.iter_mut().take(cols).skip(self.touched) {
            if col.waiting.len() != nt_count {
                col.clear(nt_count);
            }
        }
        while self.columns.len() < cols {
            self.columns.push(Column::new(nt_count));
        }
        self.touched = cols;
        self.columns_peak = self.columns_peak.max(cols);
        self.work.clear();
    }
}

/// Per-parse item tallies, accumulated in locals and flushed to the
/// recorder once per parse call.
#[derive(Default)]
struct ParseCounts {
    predicted: u64,
    scanned: u64,
    completed: u64,
    /// Distinct chart items created (inserts, not cost improvements);
    /// this is what [`EarleyBudget::max_items`] meters.
    items: usize,
}

/// A shortest-derivation Earley parser for a fixed grammar snapshot.
///
/// Construction snapshots the grammar into flat tables (dense right-hand
/// sides plus the FIRST-filtered prediction index), so build it once and
/// reuse it across many segments. The parser keeps no reference to the
/// grammar, only its own tables; rebuild it after the grammar changes.
pub struct ShortestParser {
    tables: RuleTable,
    predict: PredictTable,
    recorder: Recorder,
}

impl ShortestParser {
    /// Build a parser (and its flattened tables) for `grammar`.
    ///
    /// # Panics
    ///
    /// Panics if the grammar has more rule slots than the packed chart
    /// keys can address ([`MAX_RULE_SLOTS`]).
    pub fn new(grammar: &Grammar) -> ShortestParser {
        ShortestParser::with_recorder(grammar, Recorder::disabled())
    }

    /// Build a parser that reports `earley.*` metrics (items predicted /
    /// scanned / completed, chart high-water marks, arena reuse, table
    /// footprint) into `recorder`.
    ///
    /// # Panics
    ///
    /// See [`ShortestParser::new`].
    pub fn with_recorder(grammar: &Grammar, recorder: Recorder) -> ShortestParser {
        assert_key_capacity(grammar.rule_slots());
        let parser = ShortestParser {
            tables: RuleTable::build(grammar),
            predict: PredictTable::build(grammar),
            recorder,
        };
        if parser.recorder.is_enabled() {
            parser
                .recorder
                .gauge_max(names::EARLEY_TABLE_BYTES, parser.table_bytes() as u64);
        }
        parser
    }

    /// Resident size of the precomputed tables (dense rules plus the
    /// prediction index) in bytes.
    pub fn table_bytes(&self) -> usize {
        self.tables.table_bytes() + self.predict.table_bytes()
    }

    /// Whether `tokens` is derivable from `start` at all.
    pub fn recognizes(&self, start: Nt, tokens: &[Terminal]) -> bool {
        self.parse(start, tokens).is_ok()
    }

    /// Find a minimum-length leftmost derivation of `tokens` from
    /// `start`, allocating fresh scratch for this call.
    ///
    /// Batch callers should hold a [`ChartArena`] and use
    /// [`ShortestParser::parse_into`] instead; the results are identical.
    ///
    /// # Errors
    ///
    /// Returns [`NoParse`] if the tokens are not in the language of
    /// `start`.
    pub fn parse(&self, start: Nt, tokens: &[Terminal]) -> Result<Derivation, NoParse> {
        self.parse_into(&mut ChartArena::new(), start, tokens)
    }

    /// Find a minimum-length leftmost derivation of `tokens` from
    /// `start`, using (and warming) `arena` for all per-parse state.
    ///
    /// The derivation returned is byte-identical to what a fresh
    /// [`ShortestParser::parse`] call produces, for any prior arena use —
    /// the proptests pin this.
    ///
    /// # Errors
    ///
    /// Returns [`NoParse`] if the tokens are not in the language of
    /// `start`.
    pub fn parse_into(
        &self,
        arena: &mut ChartArena,
        start: Nt,
        tokens: &[Terminal],
    ) -> Result<Derivation, NoParse> {
        self.parse_into_budgeted(arena, start, tokens, &EarleyBudget::UNLIMITED)
    }

    /// Like [`ShortestParser::parse_into`], but abandon the parse with
    /// [`NoParse::BudgetExceeded`] if chart growth crosses `budget`.
    ///
    /// A successful parse under any budget is byte-identical to the
    /// unbudgeted one: the budget can only convert a (possibly very
    /// expensive) verdict into an early abandonment, never change which
    /// derivation is found.
    ///
    /// # Errors
    ///
    /// Returns [`NoParse::NoDerivation`] if the tokens are not in the
    /// language of `start`, or [`NoParse::BudgetExceeded`] if the chart
    /// outgrew `budget` first.
    pub fn parse_into_budgeted(
        &self,
        arena: &mut ChartArena,
        start: Nt,
        tokens: &[Terminal],
        budget: &EarleyBudget,
    ) -> Result<Derivation, NoParse> {
        self.parse_into_cancellable(arena, start, tokens, budget, None)
    }

    /// Like [`ShortestParser::parse_into_budgeted`], but additionally
    /// abandon the parse with [`NoParse::Cancelled`] if `cancel` fires.
    ///
    /// The token is polled once per chart column (segment tokens are
    /// capped at a few hundred, so the poll granularity is microseconds
    /// of parser work, while an unarmed token costs one relaxed load).
    /// A parse that completes is byte-identical to the uncancelled one.
    ///
    /// # Errors
    ///
    /// [`NoParse::NoDerivation`], [`NoParse::BudgetExceeded`], or
    /// [`NoParse::Cancelled`] when `cancel` fired first.
    pub fn parse_into_cancellable(
        &self,
        arena: &mut ChartArena,
        start: Nt,
        tokens: &[Terminal],
        budget: &EarleyBudget,
        cancel: Option<&CancelToken>,
    ) -> Result<Derivation, NoParse> {
        let n = tokens.len();
        if n + 1 > budget.max_columns {
            // Over-long segments fail before any chart work (or arena
            // growth) happens; the telemetry contract below still holds.
            let outcome = Err(NoParse::BudgetExceeded {
                items: 0,
                columns: n + 1,
            });
            self.flush_parse_metrics(n, false, &ParseCounts::default(), 0, 0, &outcome);
            return outcome;
        }

        let reused = arena.warm;
        arena.warm = true;
        arena.prepare(n + 1, self.tables.nt_count());

        let mut counts = ParseCounts::default();
        let (outcome, chart_peak) = {
            let ChartArena { columns, work, .. } = &mut *arena;
            let chart = &mut columns[..=n];
            let outcome = self.run(chart, work, start, tokens, budget, cancel, &mut counts);
            let peak = chart.iter().map(|c| c.states.len()).max().unwrap_or(0);
            (outcome, peak)
        };

        self.flush_parse_metrics(
            n,
            reused,
            &counts,
            chart_peak,
            arena.columns_peak(),
            &outcome,
        );
        outcome
    }

    fn flush_parse_metrics(
        &self,
        tokens: usize,
        reused: bool,
        counts: &ParseCounts,
        chart_peak: usize,
        columns_peak: usize,
        outcome: &Result<Derivation, NoParse>,
    ) {
        if !self.recorder.is_enabled() {
            return;
        }
        let mut batch = Metrics::new();
        batch.add(names::EARLEY_SEGMENTS_PARSED, 1);
        batch.add(names::EARLEY_TOKENS, tokens as u64);
        batch.add(names::EARLEY_ITEMS_PREDICTED, counts.predicted);
        batch.add(names::EARLEY_ITEMS_SCANNED, counts.scanned);
        batch.add(names::EARLEY_ITEMS_COMPLETED, counts.completed);
        batch.add(names::EARLEY_ARENA_REUSE, u64::from(reused));
        if outcome.is_err() {
            batch.add(names::EARLEY_NO_PARSE, 1);
        }
        if matches!(outcome, Err(NoParse::Cancelled { .. })) {
            batch.add(names::EARLEY_CANCELLED, 1);
        }
        batch.gauge_max(names::EARLEY_CHART_STATES_PEAK, chart_peak as u64);
        batch.gauge_max(names::EARLEY_CHART_COLUMNS_PEAK, columns_peak as u64);
        self.recorder.record(batch);
    }

    /// The chart fixpoint proper. `chart` has `tokens.len() + 1` cleared
    /// columns; `work` is the (empty) shared worklist.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        chart: &mut [Column],
        work: &mut Vec<u32>,
        start: Nt,
        tokens: &[Terminal],
        budget: &EarleyBudget,
        cancel: Option<&CancelToken>,
        counts: &mut ParseCounts,
    ) -> Result<Derivation, NoParse> {
        let n = tokens.len();
        let tables = &self.tables;
        let mut furthest = 0usize;

        self.predict_nt(
            &mut chart[0],
            0,
            start,
            lookahead_bucket(tokens.first().copied()),
            work,
            counts,
        );

        for k in 0..=n {
            // Cancellation is polled at column boundaries: frequent
            // enough that a fired deadline stops the parse within one
            // column's work, cheap enough (one relaxed load when the
            // token is unarmed) that the hot per-item loop never pays.
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    return Err(NoParse::Cancelled {
                        elapsed_ms: token.elapsed_ms(),
                    });
                }
            }
            // Items scanned in from k-1 seed the worklist (for k = 0 the
            // predictions above already queued themselves).
            if k > 0 {
                if chart[k].states.is_empty() {
                    // No item scanned to position k; no later column can
                    // ever gain an item either, so the parse is dead.
                    break;
                }
                work.extend(0..chart[k].states.len() as u32);
            }
            let next_bucket = lookahead_bucket(tokens.get(k).copied());
            // Terminal indices are < 2^31; the end-of-input bucket never
            // equals one, so a plain equality test decides every scan.
            let next_t = next_bucket as u32;
            while let Some(si) = work.pop() {
                // The budget check sits on the worklist pop — the one
                // place every chart item (and every cost improvement)
                // flows through — so a limited budget costs exactly one
                // compare per unit of parser work.
                if counts.items > budget.max_items {
                    return Err(NoParse::BudgetExceeded {
                        items: counts.items,
                        columns: n + 1,
                    });
                }
                let s = chart[k].states[si as usize];
                match tables.sym_at(s.rule, s.dot as usize) {
                    Some(sym) => match sym.nt() {
                        None => {
                            if sym.terminal_index() == Some(next_t) {
                                counts.scanned += 1;
                                furthest = furthest.max(k + 1);
                                Self::add_state(
                                    &mut chart[k + 1],
                                    State {
                                        rule: s.rule,
                                        dot: s.dot + 1,
                                        origin: s.origin,
                                        cost: s.cost,
                                        back: Back::Scan { prev: si },
                                    },
                                    &mut counts.items,
                                );
                            }
                        }
                        Some(b) => {
                            if !chart[k].predicted[b.index()] {
                                self.predict_nt(
                                    &mut chart[k],
                                    k as u32,
                                    b,
                                    next_bucket,
                                    work,
                                    counts,
                                );
                            }
                            if !chart[k].in_waiting[si as usize] {
                                chart[k].in_waiting[si as usize] = true;
                                chart[k].waiting[b.index()].push(si);
                            }
                            // An empty-span completion of `b` at `k` may
                            // already exist (nullable non-terminals).
                            if let Some(slot) = chart[k].completed.get(completed_key(b, k as u32)) {
                                let (ccost, _) = chart[k].completed_info[slot as usize];
                                let st = State {
                                    rule: s.rule,
                                    dot: s.dot + 1,
                                    origin: s.origin,
                                    cost: s.cost + ccost,
                                    back: Back::Complete {
                                        prev_pos: k as u32,
                                        prev: si,
                                        nt: b,
                                        child_origin: k as u32,
                                    },
                                };
                                if let Some(idx) =
                                    Self::add_state(&mut chart[k], st, &mut counts.items)
                                {
                                    work.push(idx);
                                }
                            }
                        }
                    },
                    None => {
                        // Completion: `lhs` spans (origin, k) with cost
                        // s.cost.
                        counts.completed += 1;
                        let b = tables.lhs(s.rule);
                        let ckey = completed_key(b, s.origin);
                        let improved = match chart[k].completed.get(ckey) {
                            Some(slot) => {
                                let entry = &mut chart[k].completed_info[slot as usize];
                                if s.cost < entry.0 {
                                    *entry = (s.cost, si);
                                    true
                                } else {
                                    false
                                }
                            }
                            None => {
                                let slot = chart[k].completed_info.len() as u32;
                                chart[k].completed_info.push((s.cost, si));
                                chart[k].completed.insert(ckey, slot);
                                true
                            }
                        };
                        if improved {
                            // Advance every item waiting on `b` at the
                            // origin column. The list cannot grow while
                            // this loop runs (registration only happens
                            // when an item is popped from the worklist),
                            // so indexed iteration replaces the snapshot
                            // clone the old implementation paid per
                            // improvement.
                            let origin = s.origin as usize;
                            let mut i = 0;
                            while let Some(&wi) = chart[origin].waiting[b.index()].get(i) {
                                i += 1;
                                let w = chart[origin].states[wi as usize];
                                let st = State {
                                    rule: w.rule,
                                    dot: w.dot + 1,
                                    origin: w.origin,
                                    cost: w.cost + s.cost,
                                    back: Back::Complete {
                                        prev_pos: origin as u32,
                                        prev: wi,
                                        nt: b,
                                        child_origin: s.origin,
                                    },
                                };
                                if let Some(idx) =
                                    Self::add_state(&mut chart[k], st, &mut counts.items)
                                {
                                    work.push(idx);
                                }
                            }
                        }
                    }
                }
            }
        }

        let goal = completed_key(start, 0);
        match chart[n].completed.get(goal) {
            Some(slot) => {
                let (_, root_idx) = chart[n].completed_info[slot as usize];
                Ok(self.reconstruct(chart, n, root_idx))
            }
            None => Err(NoParse::NoDerivation { furthest }),
        }
    }

    fn predict_nt(
        &self,
        col: &mut Column,
        position: u32,
        nt: Nt,
        bucket: usize,
        work: &mut Vec<u32>,
        counts: &mut ParseCounts,
    ) {
        col.predicted[nt.index()] = true;
        for &rule in self.predict.candidates_by_bucket(nt, bucket) {
            counts.predicted += 1;
            let st = State {
                rule,
                dot: 0,
                origin: position,
                cost: 1,
                back: Back::Predicted,
            };
            if let Some(idx) = Self::add_state(col, st, &mut counts.items) {
                work.push(idx);
            }
        }
    }

    /// Insert or improve an item; returns its index when the column
    /// changed (new item, or cheaper cost) so the caller can requeue it.
    /// Fresh inserts bump `items`, the quantity metered by
    /// [`EarleyBudget::max_items`].
    fn add_state(col: &mut Column, st: State, items: &mut usize) -> Option<u32> {
        let k = item_key(st.rule, st.dot, st.origin);
        match col.index.get(k) {
            Some(idx) => {
                let existing = &mut col.states[idx as usize];
                if st.cost < existing.cost {
                    *existing = st;
                    Some(idx)
                } else {
                    None
                }
            }
            None => {
                let idx = col.states.len() as u32;
                col.states.push(st);
                col.in_waiting.push(false);
                col.index.insert(k, idx);
                *items += 1;
                Some(idx)
            }
        }
    }

    /// Rebuild the leftmost derivation (preorder rule sequence) from
    /// backpointers, iteratively.
    fn reconstruct(&self, chart: &[Column], end: usize, root: u32) -> Derivation {
        let mut out: Vec<RuleId> = Vec::new();
        let mut stack: Vec<(usize, u32)> = vec![(end, root)];
        while let Some((pos, idx)) = stack.pop() {
            let s = chart[pos].states[idx as usize];
            out.push(s.rule);
            // Walk the back chain, collecting completed children
            // rightmost-first; pushing them in that order leaves the
            // leftmost child on top of the stack, giving preorder.
            let mut cur = (pos, idx);
            loop {
                let st = chart[cur.0].states[cur.1 as usize];
                match st.back {
                    Back::Predicted => break,
                    Back::Scan { prev } => cur = (cur.0 - 1, prev),
                    Back::Complete {
                        prev_pos,
                        prev,
                        nt,
                        child_origin,
                    } => {
                        let slot = chart[cur.0]
                            .completed
                            .get(completed_key(nt, child_origin))
                            .expect("completed child recorded in chart");
                        let (_, child_idx) = chart[cur.0].completed_info[slot as usize];
                        stack.push((cur.0, child_idx));
                        cur = (prev_pos as usize, prev);
                    }
                }
            }
        }
        Derivation(out)
    }
}

/// The dense lookahead bucket for a next token: its terminal index, or
/// [`TERMINAL_SPACE`] at end of input.
#[inline]
fn lookahead_bucket(next: Option<Terminal>) -> usize {
    next.map_or(TERMINAL_SPACE, Terminal::index)
}
