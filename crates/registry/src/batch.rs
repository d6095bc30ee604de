//! The unit of work the serve reactor hands its worker pool, and what a
//! worker hands back.
//!
//! Every admitted request, whatever its op, becomes one
//! [`PendingRequest`] on the pool's queue, and the worker that takes it
//! handles it start to finish on its own thread, turning it into one
//! [`Done`] response for the reactor to write back in request order.

use crate::proto::Request;
use pgr_telemetry::{CancelToken, TraceId};
use std::time::Instant;

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
    /// end-to-end latency and queue wait.
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
