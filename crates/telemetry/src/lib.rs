//! # pgr-telemetry
//!
//! The workspace's observability layer: hierarchical **spans** (wall-clock
//! timing with a thread-local path stack) and a **metrics registry** of
//! named counters, gauges, and histograms, aggregated behind a cloneable
//! [`Recorder`] handle and rendered through a [`Sink`]
//! (human-readable table or JSON).
//!
//! The paper's claims are quantitative — grammar size vs. corpus size
//! (§4), shortest-derivation cost under the ambiguous expanded grammar
//! (§5), interpreter overhead (§6) — so every hot layer of the pipeline
//! (trainer, compressor, bytecode passes, both interpreters)
//! reports through this crate. The design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** Everything defaults off.
//!    [`Recorder::disabled`] hands out a shared no-op handle whose
//!    [`Recorder::is_enabled`] is a single relaxed atomic load;
//!    instrumented loops hoist that load once per unit of work (one
//!    parse, one VM run) and count into plain locals, flushing a batched
//!    [`Metrics`] value only when enabled.
//! 2. **Deterministic aggregation under fan-out.** [`Metrics::merge`] is
//!    a commutative monoid (counters sum, gauges max, histograms
//!    component-merge), mirroring `CompressionStats::merge` in
//!    `pgr-core`, so N-thread and sequential runs of the engine report
//!    identical counter totals regardless of scheduling.
//! 3. **No dependencies.** The build environment vendors no external
//!    crates; JSON emission and the [`json`] parser used by the schema
//!    checker are hand-rolled over `std`.
//!
//! Metric names form a stable dotted schema (`earley.items_completed`,
//! `vm.dispatch.<opcode>`, …) documented in [`names`] and in DESIGN.md
//! §"Observability"; `schema/metrics.schema.json` pins the names the CLI
//! must emit so CI fails on silent drift.
//!
//! ```
//! use pgr_telemetry::{Recorder, Metrics, Sink, JsonSink};
//!
//! let recorder = Recorder::new(); // enabled
//! {
//!     let _outer = recorder.span("compress");
//!     let _inner = recorder.span("parse"); // records as "compress.parse"
//!     recorder.add("earley.items_completed", 3);
//! }
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter("earley.items_completed"), 3);
//! assert!(snapshot.span_stat("compress.parse").is_some());
//!
//! let mut out = Vec::new();
//! JsonSink(&mut out).emit(&snapshot).unwrap();
//! assert!(String::from_utf8(out).unwrap().contains("pgr-metrics/2"));
//! ```

#![warn(missing_docs)]

pub mod cancel;
pub mod faults;
pub mod json;
mod metrics;
pub mod names;
mod recorder;
mod sink;
pub mod trace;

pub use cancel::CancelToken;
pub use metrics::{Hist, Metrics, HIST_BUCKETS};
pub use recorder::{Recorder, Span, Stopwatch, TraceSpan, DEFAULT_TRACE_CAPACITY};
pub use sink::{JsonSink, Sink, TableSink};
pub use trace::{Trace, TraceEvent, TraceId, TraceScope};

/// The schema identifier stamped into every JSON metrics report. Bump it
/// when the report *shape* changes; adding metric names is not a schema
/// change. (v2: histograms grew log-bucketed quantile fields.)
pub const SCHEMA: &str = "pgr-metrics/2";
