//! Sliding-window serve statistics: rolling RPS, error rate, and
//! per-op / per-grammar latency quantiles over the last N seconds.
//!
//! The lifetime histograms in the metrics registry answer "since the
//! server started"; operators watching a live service need "right now".
//! [`SlidingWindow`] is a ring of one-second slots keyed by absolute
//! server second — recording into a slot whose second has passed resets
//! it first, so the ring needs no timer thread and costs one modulo per
//! request. [`SlidingWindow::aggregate`] folds the still-fresh slots
//! into a [`WindowStats`] for the `stats` response, which `pgr top`
//! polls and renders.
//!
//! Time is passed in by the caller (seconds since server start), which
//! keeps the ring deterministic and directly testable without clocks.

use pgr_telemetry::names;
use pgr_telemetry::Hist;
use std::collections::BTreeMap;

/// One second's worth of request activity.
#[derive(Debug, Clone, Default)]
struct Slot {
    /// The absolute second (since server start) this slot holds data
    /// for; a slot whose second is stale is logically empty.
    second: u64,
    requests: u64,
    errors: u64,
    /// Requests refused by admission control (a subset of `errors`).
    rejected: u64,
    per_op: BTreeMap<String, Hist>,
    per_grammar: BTreeMap<String, Hist>,
    /// Requests coalesced per engine dispatch (1 = unbatched).
    batch_size: Hist,
    /// Oldest-request wait per dispatched batch, micros.
    batch_wait: Hist,
    /// Segment programs compiled by run requests.
    tier2_compiled: u64,
    /// Requests answered in-band with `deadline_exceeded`.
    deadline_exceeded: u64,
    /// Requests force-expired by the reactor watchdog (a subset of
    /// `deadline_exceeded`).
    force_expired: u64,
    /// Connections closed for sitting idle past the idle timeout.
    idle_closed: u64,
    /// Connections closed for exceeding the request-line byte bound.
    line_overflow: u64,
}

impl Slot {
    fn reset(&mut self, second: u64) {
        self.second = second;
        self.requests = 0;
        self.errors = 0;
        self.rejected = 0;
        self.per_op.clear();
        self.per_grammar.clear();
        self.batch_size = Hist::default();
        self.batch_wait = Hist::default();
        self.tier2_compiled = 0;
        self.deadline_exceeded = 0;
        self.force_expired = 0;
        self.idle_closed = 0;
        self.line_overflow = 0;
    }

    /// Whether the slot recorded anything at all (a batch dispatch or a
    /// rejection can land in a second with no completed requests).
    fn live(&self) -> bool {
        self.requests > 0
            || self.rejected > 0
            || self.batch_size.count > 0
            || self.tier2_compiled > 0
            || self.deadline_exceeded > 0
            || self.force_expired > 0
            || self.idle_closed > 0
            || self.line_overflow > 0
    }
}

/// A ring of per-second slots covering the trailing window.
#[derive(Debug)]
pub struct SlidingWindow {
    secs: u64,
    slots: Vec<Slot>,
}

/// The folded view of a window, ready for the `stats` response.
#[derive(Debug, Clone, Default)]
pub struct WindowStats {
    /// Window length in seconds.
    pub window_secs: u64,
    /// Requests completed inside the window.
    pub requests: u64,
    /// Requests answered with an error response inside the window.
    pub errors: u64,
    /// Requests refused by admission control inside the window (also
    /// counted in `errors`).
    pub rejected: u64,
    /// Latency summary per operation (`compress`, `run`, …), micros.
    pub per_op: BTreeMap<String, Hist>,
    /// Latency summary per grammar (hex id), micros.
    pub per_grammar: BTreeMap<String, Hist>,
    /// Requests coalesced per engine dispatch (1 = unbatched).
    pub batch_size: Hist,
    /// Oldest-request wait per dispatched batch, micros.
    pub batch_wait: Hist,
    /// Segment programs compiled by run requests inside the window.
    pub tier2_compiled: u64,
    /// Requests answered `deadline_exceeded` inside the window.
    pub deadline_exceeded: u64,
    /// Requests force-expired by the reactor watchdog inside the window
    /// (a subset of `deadline_exceeded`).
    pub force_expired: u64,
    /// Connections closed for idling past the idle timeout inside the
    /// window.
    pub idle_closed: u64,
    /// Connections closed for exceeding the request-line byte bound
    /// inside the window.
    pub line_overflow: u64,
}

impl WindowStats {
    /// Rolling requests per second over the window.
    pub fn rps(&self) -> f64 {
        self.requests as f64 / self.window_secs.max(1) as f64
    }

    /// Fraction of windowed requests that errored (0 when idle).
    pub fn error_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.errors as f64 / self.requests as f64
        }
    }

    /// Serialize as one compact JSON object (the `"window"` field of a
    /// `stats` response).
    pub fn to_json(&self) -> String {
        fn hist_json(h: &Hist) -> String {
            format!(
                "{{\"count\":{},\"p50\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                h.count,
                h.p50(),
                h.p90(),
                h.p95(),
                h.p99(),
                h.max
            )
        }
        fn map_json(map: &BTreeMap<String, Hist>) -> String {
            let fields: Vec<String> = map
                .iter()
                .map(|(k, h)| format!("{}:{}", crate::proto::json_string(k), hist_json(h)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        format!(
            "{{\"window_secs\":{},\"requests\":{},\"errors\":{},\"rejected\":{},\
             \"rps\":{:.3},\"error_rate\":{:.4},\"ops\":{},\"grammars\":{},\
             \"batch_size\":{},\"batch_wait\":{},\
             \"tier2_compiled\":{},\
             \"deadline_exceeded\":{},\"force_expired\":{},\
             \"idle_closed\":{},\"line_overflow\":{}}}",
            self.window_secs,
            self.requests,
            self.errors,
            self.rejected,
            self.rps(),
            self.error_rate(),
            map_json(&self.per_op),
            map_json(&self.per_grammar),
            hist_json(&self.batch_size),
            hist_json(&self.batch_wait),
            self.tier2_compiled,
            self.deadline_exceeded,
            self.force_expired,
            self.idle_closed,
            self.line_overflow,
        )
    }
}

impl SlidingWindow {
    /// A window covering the trailing `secs` seconds (min 1).
    pub fn new(secs: u64) -> SlidingWindow {
        let secs = secs.max(1);
        SlidingWindow {
            secs,
            slots: vec![Slot::default(); secs as usize],
        }
    }

    /// Record one completed request. `now_sec` is seconds since server
    /// start; `grammar` is the request's grammar id hex when one was
    /// resolved; `micros` is end-to-end latency.
    pub fn record(&mut self, now_sec: u64, op: &str, grammar: Option<&str>, micros: u64, ok: bool) {
        let slot = self.slot_at(now_sec);
        slot.requests += 1;
        if !ok {
            slot.errors += 1;
        }
        slot.per_op
            .entry(op.to_string())
            .or_default()
            .observe(micros);
        if let Some(g) = grammar {
            slot.per_grammar
                .entry(g.to_string())
                .or_default()
                .observe(micros);
        }
    }

    /// Record one admission-control rejection (the request was answered
    /// with an in-band `overloaded` error, not handled).
    pub fn record_rejected(&mut self, now_sec: u64) {
        let slot = self.slot_at(now_sec);
        slot.requests += 1;
        slot.errors += 1;
        slot.rejected += 1;
    }

    /// Record one engine dispatch of `size` coalesced requests whose
    /// oldest member waited `wait_micros` between arrival and dispatch.
    pub fn record_batch(&mut self, now_sec: u64, size: u64, wait_micros: u64) {
        let slot = self.slot_at(now_sec);
        slot.batch_size.observe(size);
        slot.batch_wait.observe(wait_micros);
    }

    /// Record the segment programs one run request compiled.
    pub fn record_tier2(&mut self, now_sec: u64, compiled: u64) {
        if compiled == 0 {
            return;
        }
        self.slot_at(now_sec).tier2_compiled += compiled;
    }

    /// Record one request answered in-band with `deadline_exceeded`;
    /// `forced` marks a reactor-watchdog force expiry (the worker missed
    /// the deadline by the grace factor) as opposed to a cooperative
    /// cancellation the worker reported itself.
    pub fn record_deadline(&mut self, now_sec: u64, forced: bool) {
        let slot = self.slot_at(now_sec);
        slot.deadline_exceeded += 1;
        if forced {
            slot.force_expired += 1;
        }
    }

    /// Record one connection closed for idling past the idle timeout.
    pub fn record_idle_closed(&mut self, now_sec: u64) {
        self.slot_at(now_sec).idle_closed += 1;
    }

    /// Record one connection closed for exceeding the request-line byte
    /// bound.
    pub fn record_line_overflow(&mut self, now_sec: u64) {
        self.slot_at(now_sec).line_overflow += 1;
    }

    /// The live slot for `now_sec`, reset first if its second is stale.
    fn slot_at(&mut self, now_sec: u64) -> &mut Slot {
        let idx = (now_sec % self.secs) as usize;
        let slot = &mut self.slots[idx];
        if slot.second != now_sec {
            slot.reset(now_sec);
        }
        slot
    }

    /// Fold every slot still inside the trailing window (relative to
    /// `now_sec`) into one [`WindowStats`].
    pub fn aggregate(&self, now_sec: u64) -> WindowStats {
        let oldest = now_sec.saturating_sub(self.secs.saturating_sub(1));
        let mut stats = WindowStats {
            window_secs: self.secs,
            ..WindowStats::default()
        };
        for slot in &self.slots {
            // Slot 0's default second of 0 is only live when second 0
            // really is in the window and something recorded into it.
            if slot.second < oldest || slot.second > now_sec || !slot.live() {
                continue;
            }
            stats.requests += slot.requests;
            stats.errors += slot.errors;
            stats.rejected += slot.rejected;
            stats.tier2_compiled += slot.tier2_compiled;
            stats.deadline_exceeded += slot.deadline_exceeded;
            stats.force_expired += slot.force_expired;
            stats.idle_closed += slot.idle_closed;
            stats.line_overflow += slot.line_overflow;
            stats.batch_size = stats.batch_size.merge(slot.batch_size);
            stats.batch_wait = stats.batch_wait.merge(slot.batch_wait);
            for (k, h) in &slot.per_op {
                let slot = stats.per_op.entry(k.clone()).or_default();
                *slot = slot.merge(*h);
            }
            for (k, h) in &slot.per_grammar {
                let slot = stats.per_grammar.entry(k.clone()).or_default();
                *slot = slot.merge(*h);
            }
        }
        stats
    }
}

/// The default window length served by `stats` (and rendered by
/// `pgr top`).
pub const DEFAULT_WINDOW_SECS: u64 = 60;

/// Convenience: the op token (`"compress"`) behind a
/// `serve.request.<op>.micros` histogram name, if `name` is one.
pub fn op_of_hist_name(name: &str) -> Option<&str> {
    name.strip_prefix(names::SERVE_REQUEST_PREFIX)?
        .strip_suffix(".micros")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_slots_aggregate_and_stale_slots_expire() {
        let mut w = SlidingWindow::new(3);
        w.record(0, "compress", Some("aa"), 100, true);
        w.record(1, "compress", Some("aa"), 200, true);
        w.record(2, "run", None, 300, false);

        let all = w.aggregate(2);
        assert_eq!(all.requests, 3);
        assert_eq!(all.errors, 1);
        assert_eq!(all.per_op["compress"].count, 2);
        assert_eq!(all.per_op["run"].count, 1);
        assert_eq!(all.per_grammar["aa"].count, 2);
        assert!((all.rps() - 1.0).abs() < 1e-9);
        assert!((all.error_rate() - 1.0 / 3.0).abs() < 1e-9);

        // Advance time: second 0 falls out of the 3s window at t=3.
        let later = w.aggregate(3);
        assert_eq!(later.requests, 2);

        // A new record at t=3 reuses (and resets) second 0's slot.
        w.record(3, "stats", None, 50, true);
        let at3 = w.aggregate(3);
        assert_eq!(at3.requests, 3);
        assert_eq!(at3.per_op["stats"].count, 1);
        // Only t=1's compress survives; t=0's was overwritten by t=3.
        assert_eq!(at3.per_op["compress"].count, 1);

        // Far future: everything expired.
        let empty = w.aggregate(100);
        assert_eq!(empty.requests, 0);
        assert_eq!(empty.error_rate(), 0.0);
    }

    #[test]
    fn window_json_parses_and_carries_quantiles() {
        let mut w = SlidingWindow::new(60);
        for i in 0..50 {
            w.record(5, "compress", Some("abcd"), 100 + i, i % 10 != 0);
        }
        let stats = w.aggregate(5);
        let text = stats.to_json();
        let doc = pgr_telemetry::json::parse(&text).expect("window JSON parses");
        use pgr_telemetry::json::Value;
        assert_eq!(doc.get("requests").and_then(Value::as_u64), Some(50));
        assert_eq!(doc.get("errors").and_then(Value::as_u64), Some(5));
        let op = doc.get("ops").unwrap().get("compress").unwrap();
        for field in ["count", "p50", "p90", "p95", "p99", "max"] {
            assert!(op.get(field).is_some(), "window op field {field}");
        }
        let p50 = op.get("p50").unwrap().as_u64().unwrap();
        assert!((100..=149).contains(&p50), "p50 = {p50}");
        assert!(doc.get("grammars").unwrap().get("abcd").is_some());
    }

    #[test]
    fn tier2_counters_roll_through_the_window() {
        let mut w = SlidingWindow::new(3);
        w.record_tier2(0, 2);
        w.record_tier2(1, 1);
        // Zero activity records nothing (and must not keep an otherwise
        // empty slot alive).
        w.record_tier2(2, 0);

        let all = w.aggregate(2);
        assert_eq!(all.tier2_compiled, 3);

        // Second 0 expires at t=3.
        let later = w.aggregate(3);
        assert_eq!(later.tier2_compiled, 1);

        let text = all.to_json();
        let doc = pgr_telemetry::json::parse(&text).expect("window JSON parses");
        use pgr_telemetry::json::Value;
        assert_eq!(doc.get("tier2_compiled").and_then(Value::as_u64), Some(3));
        assert!(doc.get("tier2_deopts").is_none());
    }

    #[test]
    fn robustness_counters_roll_through_the_window() {
        let mut w = SlidingWindow::new(3);
        w.record_deadline(0, false);
        w.record_deadline(0, true);
        w.record_idle_closed(1);
        w.record_line_overflow(1);

        let all = w.aggregate(2);
        assert_eq!(all.deadline_exceeded, 2);
        assert_eq!(all.force_expired, 1, "forced expiry is a subset");
        assert_eq!(all.idle_closed, 1);
        assert_eq!(all.line_overflow, 1);

        // A hygiene-only slot must count as live even with no requests.
        assert_eq!(all.requests, 0);

        // Second 0 expires at t=3.
        let later = w.aggregate(3);
        assert_eq!(later.deadline_exceeded, 0);
        assert_eq!(later.idle_closed, 1);

        let doc = pgr_telemetry::json::parse(&all.to_json()).expect("window JSON parses");
        use pgr_telemetry::json::Value;
        assert_eq!(
            doc.get("deadline_exceeded").and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(doc.get("force_expired").and_then(Value::as_u64), Some(1));
        assert_eq!(doc.get("idle_closed").and_then(Value::as_u64), Some(1));
        assert_eq!(doc.get("line_overflow").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn hist_names_map_back_to_ops() {
        assert_eq!(
            op_of_hist_name(names::SERVE_REQUEST_COMPRESS_MICROS),
            Some("compress")
        );
        assert_eq!(op_of_hist_name("serve.requests"), None);
        assert_eq!(op_of_hist_name("serve.request.run.errors"), None);
    }
}
