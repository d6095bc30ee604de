//! The shared recorder handle, span guards, and the gated stopwatch.

use crate::metrics::Metrics;
use crate::trace::{self, Phase, Trace, TraceEvent, TraceId};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Default trace-buffer capacity (events). Roomy enough for a full
/// corpus compress at default settings; serve drains per-request so it
/// never gets near this.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 20;

/// The bounded trace-event buffer behind a tracing-enabled recorder.
#[derive(Debug, Default)]
struct TraceBuf {
    /// The zero point for event timestamps, set when tracing turns on.
    epoch: Option<Instant>,
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuf {
    fn push(&mut self, name: &str, phase: Phase) {
        let Some(epoch) = self.epoch else { return };
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let ts_micros = u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.events.push(TraceEvent {
            name: name.to_string(),
            phase,
            ts_micros,
            lane: trace::lane(),
            trace: trace::current(),
        });
    }
}

#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    tracing: AtomicBool,
    metrics: Mutex<Metrics>,
    trace: Mutex<TraceBuf>,
}

impl Inner {
    fn new(enabled: bool) -> Inner {
        Inner {
            enabled: AtomicBool::new(enabled),
            tracing: AtomicBool::new(false),
            metrics: Mutex::new(Metrics::new()),
            trace: Mutex::new(TraceBuf::default()),
        }
    }
}

thread_local! {
    /// The active span path on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A cloneable handle onto one shared metrics registry.
///
/// Cloning is an `Arc` bump; clones observe and mutate the same
/// registry, which is how the engine's scoped worker threads and the
/// layers below it (parser, VM) all report into one place. The handle is
/// `Send + Sync`.
///
/// The default handle is **disabled**: every recording call is a no-op
/// after a single relaxed atomic load, and [`Recorder::disabled`] hands
/// out a process-wide shared instance so default-constructing configs
/// allocates nothing. Enable telemetry by constructing with
/// [`Recorder::new`] and threading the handle through the relevant
/// config (`CompressorConfig`-adjacent builders, `TrainConfig`,
/// `VmConfig`).
///
/// An enabled recorder can additionally have **tracing** switched on
/// ([`Recorder::enable_tracing`]), which makes [`Recorder::span`] guards
/// and the explicit `trace_*` hooks append begin/end events to a bounded
/// buffer for export as Chrome `trace_event` JSON or per-request NDJSON
/// (see [`crate::trace`]). Tracing is a second independent flag: metrics
/// without tracing stays exactly as cheap as before.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    /// The shared disabled handle (see [`Recorder::disabled`]).
    fn default() -> Recorder {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A fresh, **enabled** recorder with an empty registry.
    #[allow(clippy::new_without_default)] // Default is the disabled handle
    pub fn new() -> Recorder {
        Recorder {
            inner: Arc::new(Inner::new(true)),
        }
    }

    /// The process-wide **disabled** recorder: recording into it is a
    /// no-op, checking it is one relaxed atomic load, and obtaining it
    /// never allocates (all calls share one static instance).
    pub fn disabled() -> Recorder {
        static DISABLED: OnceLock<Arc<Inner>> = OnceLock::new();
        Recorder {
            inner: DISABLED.get_or_init(|| Arc::new(Inner::new(false))).clone(),
        }
    }

    /// Whether this handle records anything. Hot paths load this once
    /// per unit of work (one parse, one VM run) and branch on the local.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Turn on trace-event collection with a buffer of at most
    /// `capacity` events (use [`DEFAULT_TRACE_CAPACITY`] unless you have
    /// a reason). Returns `false` — and stays off — on a disabled
    /// handle, so the shared [`Recorder::disabled`] singleton can never
    /// start buffering. Enabling resets the timestamp epoch and clears
    /// any previous buffer.
    pub fn enable_tracing(&self, capacity: usize) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let mut buf = self.lock_trace();
        *buf = TraceBuf {
            epoch: Some(Instant::now()),
            events: Vec::new(),
            capacity,
            dropped: 0,
        };
        self.inner.tracing.store(true, Ordering::Relaxed);
        true
    }

    /// Whether trace events are being collected.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.inner.tracing.load(Ordering::Relaxed)
    }

    /// Record a begin event. No-op unless tracing.
    pub fn trace_begin(&self, name: &str) {
        if self.is_tracing() {
            self.lock_trace().push(name, Phase::Begin);
        }
    }

    /// Record an end event (must pair with a begin on the same thread).
    pub fn trace_end(&self, name: &str) {
        if self.is_tracing() {
            self.lock_trace().push(name, Phase::End);
        }
    }

    /// Record a point-in-time mark. No-op unless tracing.
    pub fn trace_instant(&self, name: &str) {
        if self.is_tracing() {
            self.lock_trace().push(name, Phase::Instant);
        }
    }

    /// Open a begin/end pair closed by the returned guard's drop. Unlike
    /// [`Recorder::span`] this records no duration histogram and accepts
    /// non-static names, so it suits per-request scopes whose names are
    /// built at runtime. Inert (no allocation) unless tracing.
    pub fn trace_span(&self, name: &str) -> TraceSpan<'_> {
        if !self.is_tracing() {
            return TraceSpan {
                recorder: self,
                name: None,
            };
        }
        self.trace_begin(name);
        TraceSpan {
            recorder: self,
            name: Some(name.to_string()),
        }
    }

    /// Take everything traced so far, leaving the buffer empty (tracing
    /// stays on; the epoch is preserved so timestamps keep advancing).
    pub fn take_trace(&self) -> Trace {
        let mut buf = self.lock_trace();
        Trace {
            events: std::mem::take(&mut buf.events),
            dropped: std::mem::take(&mut buf.dropped),
        }
    }

    /// Remove and return only the events attributed to `id`, leaving
    /// other requests' in-flight events buffered. This is how serve
    /// keeps the shared buffer bounded: every request drains its own
    /// events at completion, dumping them only when slow.
    pub fn drain_trace(&self, id: TraceId) -> Vec<TraceEvent> {
        let mut buf = self.lock_trace();
        let raw = id.as_u64();
        let mut drained = Vec::new();
        buf.events.retain(|ev| {
            if ev.trace == raw {
                drained.push(ev.clone());
                false
            } else {
                true
            }
        });
        drained
    }

    /// Add `n` to counter `name`. No-op when disabled.
    pub fn add(&self, name: &str, n: u64) {
        if self.is_enabled() {
            self.lock().add(name, n);
        }
    }

    /// Raise gauge `name` to at least `value`. No-op when disabled.
    pub fn gauge_max(&self, name: &str, value: u64) {
        if self.is_enabled() {
            self.lock().gauge_max(name, value);
        }
    }

    /// Fold `value` into histogram `name`. No-op when disabled.
    pub fn observe(&self, name: &str, value: u64) {
        if self.is_enabled() {
            self.lock().observe(name, value);
        }
    }

    /// Fold a duration into the span summary at `path` directly,
    /// bypassing the thread-local span stack. Used for phases measured
    /// on worker threads and aggregated by the coordinator (the span
    /// stack is per-thread, so guard-based nesting cannot name them).
    pub fn record_span(&self, path: &str, duration: Duration) {
        if self.is_enabled() {
            self.lock().record_span(path, duration);
        }
    }

    /// Merge a locally accumulated batch into the registry. This is the
    /// preferred hot-path pattern: count into locals, flush once.
    /// No-op when disabled.
    pub fn record(&self, batch: Metrics) {
        if self.is_enabled() && !batch.is_empty() {
            self.lock().merge_from(batch);
        }
    }

    /// Open a timing span named `name`, nested under any span already
    /// open **on this thread**; the guard records `outer.inner` dotted
    /// paths into the registry when dropped, and emits a begin/end
    /// trace-event pair when tracing. Inert (no clock read, no
    /// allocation) when disabled.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        if !self.is_enabled() {
            return Span {
                recorder: self,
                name,
                start: None,
            };
        }
        SPAN_STACK.with(|stack| stack.borrow_mut().push(name));
        self.trace_begin(name);
        Span {
            recorder: self,
            name,
            start: Some(Instant::now()),
        }
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Metrics {
        self.lock().clone()
    }

    /// Drain the registry, leaving it empty (useful between benchmark
    /// iterations).
    pub fn take(&self) -> Metrics {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Metrics> {
        self.inner.metrics.lock().expect("telemetry registry lock")
    }

    fn lock_trace(&self) -> std::sync::MutexGuard<'_, TraceBuf> {
        self.inner.trace.lock().expect("telemetry trace lock")
    }
}

/// An RAII timing guard from [`Recorder::span`]. On drop it records the
/// elapsed wall-clock time under the dotted path of every span open on
/// this thread (`train`, `train.expand`, …) and closes the matching
/// trace event when tracing.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct Span<'r> {
    recorder: &'r Recorder,
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let elapsed = start.elapsed();
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = stack.join(".");
            stack.pop();
            path
        });
        self.recorder.record_span(&path, elapsed);
        self.recorder.trace_end(self.name);
    }
}

/// An RAII trace-only guard from [`Recorder::trace_span`]: closes the
/// begin event on drop, records nothing in the metrics registry.
#[must_use = "a trace span marks the scope it is bound to; binding to _ drops it immediately"]
pub struct TraceSpan<'r> {
    recorder: &'r Recorder,
    name: Option<String>,
}

impl Drop for TraceSpan<'_> {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            self.recorder.trace_end(&name);
        }
    }
}

/// A clock that only ticks when asked to: `start_if(false)` never reads
/// the monotonic clock and always reports a zero duration.
///
/// All phase timing in the engine routes through this type, gated on one
/// "is anything observing?" check (an enabled recorder), which is what
/// guarantees the disabled path pays no `Instant::now()` calls anywhere
/// — including branches that previously timed unconditionally.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Start the clock only when `enabled` is true.
    #[inline]
    pub fn start_if(enabled: bool) -> Stopwatch {
        Stopwatch(enabled.then(Instant::now))
    }

    /// Elapsed time since start (zero when the clock never started).
    #[inline]
    pub fn elapsed(self) -> Duration {
        self.0.map(|t| t.elapsed()).unwrap_or_default()
    }

    /// Whether the clock is running.
    pub fn is_running(self) -> bool {
        self.0.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let r = Recorder::disabled();
        r.add("c", 5);
        r.gauge_max("g", 5);
        r.observe("h", 5);
        {
            let _s = r.span("phase");
        }
        assert!(r.snapshot().is_empty());
        assert!(!r.is_enabled());
    }

    #[test]
    fn disabled_handles_are_shared() {
        let a = Recorder::disabled();
        let b = Recorder::default();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
    }

    #[test]
    fn clones_share_one_registry() {
        let r = Recorder::new();
        let c = r.clone();
        c.add("x", 1);
        r.add("x", 2);
        assert_eq!(r.snapshot().counter("x"), 3);
        assert_eq!(r.take().counter("x"), 3);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn spans_nest_into_dotted_paths() {
        let r = Recorder::new();
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let m = r.snapshot();
        let inner = m.span_stat("outer.inner").expect("inner recorded");
        let outer = m.span_stat("outer").expect("outer recorded");
        assert_eq!(inner.count, 1);
        assert!(outer.sum >= inner.sum, "outer contains inner");
    }

    #[test]
    fn sibling_threads_do_not_inherit_span_context() {
        let r = Recorder::new();
        let _outer = r.span("outer");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _worker = r.span("worker");
            });
        });
        // The worker's stack was empty, so its span is top-level.
        assert!(r.snapshot().span_stat("worker").is_some());
        assert!(r.snapshot().span_stat("outer.worker").is_none());
    }

    #[test]
    fn span_guards_emit_balanced_trace_events_when_tracing() {
        let r = Recorder::new();
        assert!(r.enable_tracing(1024));
        {
            let _outer = r.span("outer");
            let _inner = r.span("inner");
        }
        let trace = r.take_trace();
        let names: Vec<(&str, Phase)> = trace
            .events
            .iter()
            .map(|e| (e.name.as_str(), e.phase))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", Phase::Begin),
                ("inner", Phase::Begin),
                ("inner", Phase::End),
                ("outer", Phase::End),
            ]
        );
        // Metrics were still recorded alongside.
        assert!(r.snapshot().span_stat("outer.inner").is_some());
    }

    #[test]
    fn drain_trace_extracts_one_request_and_keeps_the_rest() {
        let r = Recorder::new();
        assert!(r.enable_tracing(1024));
        let a = TraceId::mint();
        let b = TraceId::mint();
        {
            let _s = trace::scope(a);
            r.trace_instant("a1");
        }
        {
            let _s = trace::scope(b);
            r.trace_instant("b1");
        }
        {
            let _s = trace::scope(a);
            r.trace_instant("a2");
        }
        let drained = r.drain_trace(a);
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|e| e.trace == a.as_u64()));
        let rest = r.take_trace();
        assert_eq!(rest.events.len(), 1);
        assert_eq!(rest.events[0].trace, b.as_u64());
    }

    #[test]
    fn stopwatch_only_ticks_when_enabled() {
        let off = Stopwatch::start_if(false);
        assert!(!off.is_running());
        assert_eq!(off.elapsed(), Duration::ZERO);
        let on = Stopwatch::start_if(true);
        assert!(on.is_running());
    }
}
