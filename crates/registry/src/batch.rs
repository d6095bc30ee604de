//! Same-grammar request batching for the serve reactor.
//!
//! Every compress request goes through here — a lone one is a batch of
//! one. Compress requests naming the same grammar that arrive within the
//! batch window are coalesced into one engine dispatch: their segments
//! share a single parallel stride over the compressor's worker pool,
//! amortizing per-call dispatch overhead the same way the engine's
//! `batch_bytes` machinery amortizes per-segment overhead. The [`Batcher`] only *schedules* — it holds pending
//! requests, enforces the per-grammar admission bound, and surfaces
//! flush deadlines; the reactor decides when to flush (immediately when
//! workers sit idle, at the window deadline otherwise) and the serve
//! layer turns a flushed [`Batch`] into engine work.
//!
//! Batches are keyed by the request's parsed `"grammar"` field (absent
//! is a key of its own, whose batch fails resolution), so two spellings
//! of the same grammar (full id vs. prefix) conservatively land in
//! different batches rather than paying a registry resolution on the
//! reactor thread. Mixed-grammar requests therefore never share a batch
//! by construction.

use crate::proto::Request;
use pgr_telemetry::{CancelToken, TraceId};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One request accepted off a connection, waiting to be handled.
#[derive(Debug)]
pub(crate) struct PendingRequest {
    /// Reactor token of the connection the request arrived on.
    pub conn: u64,
    /// Position in the connection's request order; responses are written
    /// back in `seq` order regardless of completion order.
    pub seq: u64,
    /// The request line as parsed at intake, or the in-band error for a
    /// line that is not JSON.
    pub request: Result<Request, String>,
    /// When the reactor finished framing the line — the zero point for
    /// end-to-end latency and batch wait.
    pub received: Instant,
    /// The request's trace id, minted at intake so even rejections carry
    /// one.
    pub trace: TraceId,
    /// The request's cancellation token, armed at intake with the
    /// effective deadline (per-request `timeout_ms` clamped to the
    /// server ceiling). The reactor's watchdog holds a clone and can
    /// fire it after the worker misses the deadline.
    pub cancel: CancelToken,
}

/// A finished request: the response line to write back, addressed to
/// the connection and sequence slot it answers.
pub(crate) struct Done {
    /// Reactor token of the connection to write to.
    pub conn: u64,
    /// The request's `seq`; the reactor writes responses in `seq` order.
    pub seq: u64,
    /// The serialized NDJSON response (no trailing newline).
    pub response: String,
}

/// A flushed group of same-grammar compress requests, ready for one
/// engine dispatch.
pub(crate) struct Batch {
    /// The `"grammar"` field shared by every member.
    pub grammar: Option<String>,
    /// The members, in arrival order. Never empty.
    pub requests: Vec<PendingRequest>,
}

struct Pending {
    requests: Vec<PendingRequest>,
    /// First-member arrival; the flush deadline is `opened + window`.
    opened: Instant,
}

/// Accumulates same-grammar compress requests until the reactor flushes
/// them (see the [module docs](self)).
pub(crate) struct Batcher {
    window: Duration,
    max_pending: usize,
    pending: HashMap<Option<String>, Pending>,
}

impl Batcher {
    /// A batcher holding at most `max_pending` requests per grammar,
    /// flushing due batches after `window`.
    pub fn new(window: Duration, max_pending: usize) -> Batcher {
        Batcher {
            window,
            max_pending: max_pending.max(1),
            pending: HashMap::new(),
        }
    }

    /// Add a request to its grammar's pending batch. Returns `false`,
    /// dropping the request for the caller to answer `overloaded`
    /// in-band, when the batch is already at the admission bound.
    pub fn push(&mut self, grammar: Option<String>, request: PendingRequest) -> bool {
        let pending = self.pending.entry(grammar).or_insert_with(|| Pending {
            requests: Vec::new(),
            opened: request.received,
        });
        if pending.requests.len() >= self.max_pending {
            return false;
        }
        pending.requests.push(request);
        true
    }

    /// Requests currently held across all grammars.
    pub fn held(&self) -> usize {
        self.pending.values().map(|p| p.requests.len()).sum()
    }

    /// The earliest flush deadline, for the reactor's poll timeout.
    /// `None` when nothing is pending.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.pending.values().map(|p| p.opened + self.window).min()
    }

    /// Flush one grammar's batch immediately (the adaptive path: workers
    /// are idle, so waiting out the window would only add latency).
    pub fn take(&mut self, grammar: &Option<String>) -> Option<Batch> {
        self.pending
            .remove_entry(grammar)
            .map(|(grammar, p)| Batch {
                grammar,
                requests: p.requests,
            })
    }

    /// Flush every batch whose window has expired by `now` — or every
    /// batch regardless of age when `force` is set (shutdown drain).
    pub fn take_due(&mut self, now: Instant, force: bool) -> Vec<Batch> {
        let window = self.window;
        let due: Vec<Option<String>> = self
            .pending
            .iter()
            .filter(|(_, p)| force || now.duration_since(p.opened) >= window)
            .map(|(g, _)| g.clone())
            .collect();
        due.into_iter().filter_map(|g| self.take(&g)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(grammar: &str) -> Option<String> {
        Some(grammar.to_string())
    }

    fn req(seq: u64, received: Instant) -> PendingRequest {
        PendingRequest {
            conn: 1,
            seq,
            request: Request::parse(r#"{"op":"compress"}"#),
            received,
            trace: TraceId::mint(),
            cancel: CancelToken::new(),
        }
    }

    #[test]
    fn same_grammar_coalesces_and_mixed_grammars_never_share() {
        let mut b = Batcher::new(Duration::from_micros(200), 8);
        let t0 = Instant::now();
        assert!(b.push(key("aaaa"), req(0, t0)));
        assert!(b.push(key("aaaa"), req(1, t0)));
        assert!(b.push(key("bbbb"), req(2, t0)));
        assert_eq!(b.held(), 3);

        let mut flushed = b.take_due(t0 + Duration::from_millis(1), false);
        flushed.sort_by(|x, y| x.grammar.cmp(&y.grammar));
        assert_eq!(flushed.len(), 2, "one batch per grammar");
        assert_eq!(flushed[0].grammar, key("aaaa"));
        assert_eq!(flushed[0].requests.len(), 2);
        assert_eq!(
            flushed[0]
                .requests
                .iter()
                .map(|r| r.seq)
                .collect::<Vec<_>>(),
            vec![0, 1],
            "arrival order preserved"
        );
        assert_eq!(flushed[1].grammar, key("bbbb"));
        assert_eq!(flushed[1].requests.len(), 1);
        assert_eq!(b.held(), 0);
    }

    #[test]
    fn window_gates_flush_until_deadline_or_force() {
        let mut b = Batcher::new(Duration::from_millis(10), 8);
        let t0 = Instant::now();
        assert!(b.push(key("aaaa"), req(0, t0)));
        assert_eq!(b.next_deadline(), Some(t0 + Duration::from_millis(10)));

        assert!(
            b.take_due(t0 + Duration::from_millis(1), false).is_empty(),
            "window not expired yet"
        );
        assert_eq!(b.held(), 1);

        let forced = b.take_due(t0 + Duration::from_millis(1), true);
        assert_eq!(forced.len(), 1, "force flushes regardless of age");
        assert!(b.next_deadline().is_none());
    }

    #[test]
    fn per_grammar_bound_rejects_overflow_without_dropping_others() {
        let mut b = Batcher::new(Duration::from_micros(200), 2);
        let t0 = Instant::now();
        assert!(b.push(key("aaaa"), req(0, t0)));
        assert!(b.push(key("aaaa"), req(1, t0)));
        assert!(!b.push(key("aaaa"), req(2, t0)), "bound hit");
        // A different grammar still has room.
        assert!(b.push(key("bbbb"), req(3, t0)));
        assert_eq!(b.held(), 3);
        // Flushing frees the bounded grammar again.
        assert!(b.take(&key("aaaa")).is_some());
        assert!(b.push(key("aaaa"), req(4, t0)));
    }

    #[test]
    fn immediate_take_preserves_singleton_latency() {
        let mut b = Batcher::new(Duration::from_millis(10), 8);
        let t0 = Instant::now();
        assert!(b.push(key("aaaa"), req(0, t0)));
        let batch = b.take(&key("aaaa")).expect("present");
        assert_eq!(batch.requests.len(), 1);
        assert!(b.take(&key("aaaa")).is_none());
    }
}
