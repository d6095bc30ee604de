//! The stable metric-name schema.
//!
//! Every instrumented layer records under these dotted names; DESIGN.md
//! §"Observability" documents the semantics and
//! `schema/metrics.schema.json` pins the subset a `pgr compress
//! --metrics json` run must emit (CI validates it, so renaming a metric
//! is a deliberate, reviewed act — not silent drift).
//!
//! One family is dynamic: per-opcode VM dispatch counters are
//! `vm.dispatch.<OPCODE>` (e.g. `vm.dispatch.ADDU`), built with
//! [`vm_dispatch`].

/// Trainer: programs parsed into the forest.
pub const TRAIN_PROGRAMS: &str = "train.programs";
/// Trainer: straight-line segments added to the forest.
pub const TRAIN_SEGMENTS: &str = "train.segments";
/// Trainer: tokens across all training segments.
pub const TRAIN_TOKENS: &str = "train.tokens";
/// Trainer: tree nodes of the training forest (its derivation length
/// before expansion).
pub const TRAIN_FOREST_NODES: &str = "train.forest_nodes";
/// Trainer: distinct subtrees of the training forest, the classes the
/// expander contracts.
pub const TRAIN_FOREST_SUBTREES: &str = "train.forest_subtrees";
/// Expander: greedy-loop iterations (heap pops, one entry per edge).
pub const TRAIN_INLINE_ITERATIONS: &str = "train.inline_iterations";
/// Expander: edge contractions performed.
pub const TRAIN_CONTRACTIONS: &str = "train.contractions";
/// Expander: rules created by inlining.
pub const TRAIN_RULES_ADDED: &str = "train.rules_added";
/// Expander: subsumed rules removed.
pub const TRAIN_RULES_REMOVED: &str = "train.rules_removed";
/// Expander: profitable edges skipped because their non-terminal hit the
/// per-NT rule budget (§4.1 saturation).
pub const TRAIN_SATURATED_SKIPS: &str = "train.saturated_skips";
/// Expander gauge: largest rules-per-non-terminal after expansion.
pub const TRAIN_RULES_PER_NT_PEAK: &str = "train.rules_per_nt_peak";

/// Earley (reference parser only): segments parsed, one per `parse`
/// call.
pub const EARLEY_SEGMENTS_PARSED: &str = "earley.segments_parsed";
/// Earley (reference parser only): input tokens across all parsed
/// segments.
pub const EARLEY_TOKENS: &str = "earley.tokens";
/// Earley (reference parser only): items added by prediction.
pub const EARLEY_ITEMS_PREDICTED: &str = "earley.items_predicted";
/// Earley (reference parser only): items advanced over a terminal.
pub const EARLEY_ITEMS_SCANNED: &str = "earley.items_scanned";
/// Earley (reference parser only): completion events processed
/// (including cost improvements).
pub const EARLEY_ITEMS_COMPLETED: &str = "earley.items_completed";
/// Earley (reference parser only): parses that failed with `NoParse`,
/// whatever the reason.
pub const EARLEY_NO_PARSE: &str = "earley.no_parse";
/// Earley (reference parser only): parses abandoned because their
/// `CancelToken` fired.
pub const EARLEY_CANCELLED: &str = "earley.cancelled";
/// Earley gauge (reference parser only): chart size high-water mark
/// (states in the fullest column of any parse).
pub const EARLEY_CHART_STATES_PEAK: &str = "earley.chart_states_peak";
/// Earley (reference parser only): parses served by an already-warm
/// `ChartArena` (scratch reused instead of allocated).
pub const EARLEY_ARENA_REUSE: &str = "earley.arena.reuse";
/// Earley gauge (reference parser only): resident bytes of the
/// precomputed flattened tables (dense rules + prediction index), per
/// parser.
pub const EARLEY_TABLE_BYTES: &str = "earley.table.bytes";
/// Earley gauge (reference parser only): chart-column high-water mark
/// (longest segment + 1 across arena lifetimes).
pub const EARLEY_CHART_COLUMNS_PEAK: &str = "earley.chart.columns_peak";

/// Tiler: segments handed to the compressor's encoder, one per tiling
/// (every segment that tokenizes is tiled).
pub const TILER_SEGMENTS: &str = "tiler.segments";
/// Tiler: input tokens across all tiled segments.
pub const TILER_TOKENS: &str = "tiler.tokens";
/// Tiler: segments with no derivation because they are not postfix
/// code (the engine stores them verbatim, or fails in strict mode).
pub const TILER_NO_DERIVATION: &str = "tiler.no_derivation";
/// Tiler: tilings abandoned because the request's `CancelToken` fired
/// (deadline passed or the owner cancelled).
pub const TILER_CANCELLED: &str = "tiler.cancelled";
/// Tiler: Appendix 2 tree nodes tiled, one dynamic-programming step
/// each.
pub const TILER_NODES: &str = "tiler.nodes";
/// Tiler: candidate patterns examined (the patterns indexed under each
/// node's rule and operator); per token, the encoder's unit of work.
pub const TILER_CANDIDATES: &str = "tiler.candidates";
/// Tiler gauge: resident bytes of the pattern table and its index.
pub const TILER_TABLE_BYTES: &str = "tiler.table.bytes";

/// Engine: `Compressor::compress` calls.
pub const COMPRESS_CALLS: &str = "compress.calls";
/// Engine: segments encoded.
pub const COMPRESS_SEGMENTS: &str = "compress.segments";
/// Engine: canonical input bytes.
pub const COMPRESS_ORIGINAL_BYTES: &str = "compress.original_bytes";
/// Engine: compressed output bytes.
pub const COMPRESS_COMPRESSED_BYTES: &str = "compress.compressed_bytes";
/// Engine: segments that did not tokenize or had no derivation and were
/// emitted as verbatim escapes instead.
pub const COMPRESS_FALLBACK_SEGMENTS: &str = "compress.fallback.segments";
/// Engine span: canonicalization phase.
pub const SPAN_COMPRESS_CANONICALIZE: &str = "compress.canonicalize";
/// Engine span: tokenize phase (summed across workers).
pub const SPAN_COMPRESS_TOKENIZE: &str = "compress.tokenize";
/// Engine span: shortest-derivation phase, by tiling (summed across
/// workers). The name predates the tiler.
pub const SPAN_COMPRESS_PARSE: &str = "compress.parse";
/// Engine span: stream assembly and label rewriting.
pub const SPAN_COMPRESS_EMIT: &str = "compress.emit";

/// Decompressor: programs expanded back to original bytecode.
pub const DECOMPRESS_CALLS: &str = "decompress.calls";
/// Decompressor: original bytecode bytes reproduced.
pub const DECOMPRESS_BYTES: &str = "decompress.bytes";
/// Decompressor span: whole derivation-expansion pass.
pub const SPAN_DECOMPRESS: &str = "decompress";

/// Validator: procedures checked.
pub const BYTECODE_VALIDATE_PROCS: &str = "bytecode.validate.procs";
/// Validator: instructions visited by the stack-discipline scan.
pub const BYTECODE_VALIDATE_INSNS: &str = "bytecode.validate.insns";
/// Rewrite pass: instructions visited.
pub const BYTECODE_REWRITE_VISITED: &str = "bytecode.rewrite.visited";
/// Rewrite pass: instructions removed.
pub const BYTECODE_REWRITE_REMOVED: &str = "bytecode.rewrite.removed";
/// Rewrite pass: instructions replaced.
pub const BYTECODE_REWRITE_REPLACED: &str = "bytecode.rewrite.replaced";
/// Rewrite pass: label-table entries re-pointed at moved markers.
pub const BYTECODE_REWRITE_LABEL_FIXUPS: &str = "bytecode.rewrite.label_fixups";

/// VM: executed operator/derivation steps (equals `RunResult::steps`).
pub const VM_STEPS: &str = "vm.steps";
/// VM: bytecoded procedure calls.
pub const VM_CALLS: &str = "vm.calls";
/// VM: rules selected during `interp_nt` derivation walks.
pub const VM_RULES_WALKED: &str = "vm.rules_walked";
/// VM gauge: procedure-call depth high-water mark.
pub const VM_CALL_DEPTH_PEAK: &str = "vm.call_depth_peak";
/// VM gauge: `interp_nt` rule-walk depth high-water mark.
pub const VM_WALK_DEPTH_PEAK: &str = "vm.walk_depth_peak";
/// VM gauge: operand-stack depth high-water mark.
pub const VM_OPERAND_STACK_PEAK: &str = "vm.operand_stack_peak";
/// VM: segment visits served by a compiled program from the segment
/// cache.
pub const VM_SEG_CACHE_HITS: &str = "vm.segment_cache.hits";
/// VM: segment decodes, whole or as the visit runs (each segment once
/// while the cache has room; past a full cache, every visit that finds
/// no cold entry to evict).
pub const VM_SEG_CACHE_MISSES: &str = "vm.segment_cache.misses";
/// VM gauge: resident bytes of the cached segment programs.
pub const VM_SEG_CACHE_BYTES: &str = "vm.segment_cache.bytes";
/// VM gauge: resident segment-cache entries, one compiled program each,
/// at most `VmConfig::segment_cache_entries`.
pub const VM_SEG_CACHE_ENTRIES: &str = "vm.segment_cache.entries";
/// VM: verbatim-escape segments executed directly (raw bytecode embedded
/// by the compressor's graceful-degradation fallback).
pub const VM_VERBATIM_SEGMENTS: &str = "vm.verbatim.segments";
/// VM: decoded segment programs cached, a segment evicted and cached
/// again counting each time (replays of them are
/// `vm.segment_cache.hits`, their bytes `vm.segment_cache.bytes`).
pub const VM_TIER2_COMPILED: &str = "vm.tier2.compiled";
/// VM: superinstructions across all cached segment programs (a program
/// holding a call is not fused and adds none).
pub const VM_TIER2_FUSED_OPS: &str = "vm.tier2.fused_ops";
/// Prefix of the per-opcode dispatch counter family.
pub const VM_DISPATCH_PREFIX: &str = "vm.dispatch.";

/// Serve: connections accepted by the request server.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Serve: requests handled, across all operations and outcomes.
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Serve: requests answered with an error response (bad JSON, unknown
/// grammar, VM faults); transport-level drops are not counted.
pub const SERVE_ERRORS: &str = "serve.errors";
/// Serve gauge: grammars resident in the server's engine map.
pub const SERVE_GRAMMARS_LOADED: &str = "serve.grammars.loaded";
/// Serve histogram: end-to-end latency of `compress` requests, in
/// microseconds.
pub const SERVE_REQUEST_COMPRESS_MICROS: &str = "serve.request.compress.micros";
/// Serve histogram: end-to-end latency of `decompress` requests, in
/// microseconds.
pub const SERVE_REQUEST_DECOMPRESS_MICROS: &str = "serve.request.decompress.micros";
/// Serve histogram: end-to-end latency of `run` requests, in
/// microseconds.
pub const SERVE_REQUEST_RUN_MICROS: &str = "serve.request.run.micros";
/// Serve histogram: end-to-end latency of `stats` requests, in
/// microseconds.
pub const SERVE_REQUEST_STATS_MICROS: &str = "serve.request.stats.micros";
/// Serve: `compress` requests answered with an error response.
pub const SERVE_REQUEST_COMPRESS_ERRORS: &str = "serve.request.compress.errors";
/// Serve: `decompress` requests answered with an error response.
pub const SERVE_REQUEST_DECOMPRESS_ERRORS: &str = "serve.request.decompress.errors";
/// Serve: `run` requests answered with an error response.
pub const SERVE_REQUEST_RUN_ERRORS: &str = "serve.request.run.errors";
/// Serve: `stats` requests answered with an error response.
pub const SERVE_REQUEST_STATS_ERRORS: &str = "serve.request.stats.errors";
/// Serve: requests over the `--slow-ms` threshold whose span tree was
/// dumped to the slow-trace NDJSON log.
pub const SERVE_SLOW_REQUESTS: &str = "serve.slow.requests";
/// Serve: requests (or connection attempts) refused by admission control
/// — the pending queue or connection table was full — and answered with
/// an in-band `overloaded` error instead of queueing unboundedly.
pub const SERVE_REJECTED_OVERLOAD: &str = "serve.rejected.overload";
/// Serve gauge: pending-request queue depth high-water mark (requests
/// accepted but not yet dispatched to a worker).
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";
/// No longer emitted: the server has no compress batcher, so nothing
/// records requests coalesced per engine dispatch. Kept only until the
/// next benchmark-only change, because `perfbench` still reads it.
pub const SERVE_BATCH_SIZE: &str = "serve.batch.size";
/// No longer emitted: the server has no compress batcher, so nothing
/// records a batch's wait for dispatch. Kept only until the next
/// benchmark-only change, because `perfbench` still reads it.
pub const SERVE_BATCH_WAIT_MICROS: &str = "serve.batch.wait_micros";
/// Serve: engines evicted from the sharded engine map by the
/// `--max-engines` LRU bound (the grammar reloads on next use).
pub const SERVE_ENGINES_EVICTED: &str = "serve.engines.evicted";
/// Serve: requests that ran past their deadline and were answered with
/// an in-band `deadline_exceeded` error by the worker (cooperative
/// cancellation fired inside the engine or VM).
pub const SERVE_DEADLINE_EXCEEDED: &str = "serve.deadline.exceeded";
/// Serve: requests whose worker missed the deadline by the watchdog's
/// grace factor, force-expired by the reactor (the client got the
/// `deadline_exceeded` answer; the late worker result was discarded).
pub const SERVE_DEADLINE_FORCE_EXPIRED: &str = "serve.deadline.force_expired";
/// Serve: connections evicted by `--idle-timeout-ms` after sitting
/// silent with no in-flight work.
pub const SERVE_CONN_IDLE_CLOSED: &str = "serve.conn.idle_closed";
/// Serve: connections that exceeded `--max-line-bytes` on a single
/// unterminated request line — answered in-band then closed.
pub const SERVE_LINE_OVERFLOW: &str = "serve.line.overflow";
/// Prefix of the per-operation serve request metric family
/// (`serve.request.<op>.micros` / `serve.request.<op>.errors`).
pub const SERVE_REQUEST_PREFIX: &str = "serve.request.";

/// The per-opcode dispatch counter name for `opcode_name`
/// (`vm.dispatch.ADDU`, …).
pub fn vm_dispatch(opcode_name: &str) -> String {
    format!("{VM_DISPATCH_PREFIX}{opcode_name}")
}

/// The latency-histogram name for serve operation `op`
/// (`serve.request.compress.micros`, …).
pub fn serve_request_micros(op: &str) -> String {
    format!("{SERVE_REQUEST_PREFIX}{op}.micros")
}

/// The error-counter name for serve operation `op`
/// (`serve.request.compress.errors`, …).
pub fn serve_request_errors(op: &str) -> String {
    format!("{SERVE_REQUEST_PREFIX}{op}.errors")
}
