//! Cooperative cancellation: a shared deadline + cancelled flag that
//! long-running work checks at its natural batch boundaries.
//!
//! The serving path admits requests whose work is bounded only by their
//! size (the compressor's work is linear in it) and the VM fuel tank —
//! both of which can be seconds of wall clock on an adversarial input.
//! A [`CancelToken`] is
//! the lightweight contract between the request's owner (the serve
//! reactor, which knows the deadline) and the compute layers (segment
//! tiling and encoding, VM execution), which poll it at coarse
//! boundaries: every few dozen tree nodes, segment starts, every 65,536
//! VM steps.
//!
//! The design constraints mirror the rest of this crate:
//!
//! 1. **One relaxed load when unarmed.** A token with no deadline and no
//!    cancel request costs a single `AtomicBool` load per check, so the
//!    offline CLI pipeline (which never arms one) pays nothing
//!    measurable.
//! 2. **No clock reads unless armed.** `Instant::now()` is only touched
//!    once a deadline exists, and only at the coarse check points.
//! 3. **Clone-to-share.** The token is an `Arc` handle: the reactor
//!    keeps one clone to force-cancel from the event thread while the
//!    worker's clone rides through the engine layers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Sentinel meaning "no deadline" in [`Inner::deadline_micros`].
const NO_DEADLINE: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    /// True once a deadline is set or a cancel is requested; the
    /// fast-path gate for [`CancelToken::is_cancelled`].
    armed: AtomicBool,
    /// Explicit cancellation (the watchdog's lever), independent of the
    /// deadline.
    cancelled: AtomicBool,
    /// Deadline as microseconds after `base`; [`NO_DEADLINE`] when none.
    deadline_micros: AtomicU64,
    /// The token's birth instant; deadlines and `elapsed_ms` are both
    /// measured from here.
    base: Instant,
}

/// A cloneable cancellation handle carrying an optional deadline.
///
/// Checking is cheap and monotonic: once [`CancelToken::is_cancelled`]
/// returns true it stays true (the deadline never moves backwards and
/// the cancelled flag is never cleared).
#[derive(Clone, Debug)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl CancelToken {
    /// A fresh, unarmed token: never cancelled until someone arms it.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                armed: AtomicBool::new(false),
                cancelled: AtomicBool::new(false),
                deadline_micros: AtomicU64::new(NO_DEADLINE),
                base: Instant::now(),
            }),
        }
    }

    /// A fresh token that expires `deadline` from now.
    pub fn with_deadline(deadline: Duration) -> CancelToken {
        let token = CancelToken::new();
        token.set_deadline(deadline);
        token
    }

    /// A shared token that is never cancelled — the default threaded
    /// through paths with no serving deadline. Cloning it is one atomic
    /// increment; no per-call allocation.
    pub fn never() -> CancelToken {
        static NEVER: OnceLock<CancelToken> = OnceLock::new();
        NEVER.get_or_init(CancelToken::new).clone()
    }

    /// Arm (or tighten) the deadline to `deadline` from now. A later
    /// deadline than the current one is ignored: deadlines only shrink.
    pub fn set_deadline(&self, deadline: Duration) {
        let micros = u64::try_from(self.inner.base.elapsed().as_micros())
            .unwrap_or(u64::MAX - 1)
            .saturating_add(u64::try_from(deadline.as_micros()).unwrap_or(u64::MAX - 1));
        self.inner
            .deadline_micros
            .fetch_min(micros, Ordering::Relaxed);
        self.inner.armed.store(true, Ordering::Release);
    }

    /// Request cancellation now, regardless of any deadline.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
        self.inner.armed.store(true, Ordering::Release);
    }

    /// Whether the work should stop: explicitly cancelled, or past the
    /// deadline. One relaxed load when the token was never armed.
    pub fn is_cancelled(&self) -> bool {
        if !self.inner.armed.load(Ordering::Acquire) {
            return false;
        }
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        let deadline = self.inner.deadline_micros.load(Ordering::Relaxed);
        deadline != NO_DEADLINE
            && u64::try_from(self.inner.base.elapsed().as_micros()).unwrap_or(u64::MAX) >= deadline
    }

    /// Time left before the deadline (`None` when no deadline is set;
    /// zero once expired or cancelled).
    pub fn remaining(&self) -> Option<Duration> {
        let deadline = self.inner.deadline_micros.load(Ordering::Relaxed);
        if deadline == NO_DEADLINE {
            return None;
        }
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Some(Duration::ZERO);
        }
        let elapsed = u64::try_from(self.inner.base.elapsed().as_micros()).unwrap_or(u64::MAX);
        Some(Duration::from_micros(deadline.saturating_sub(elapsed)))
    }

    /// Milliseconds since the token was created — the `elapsed_ms`
    /// reported by structured `Cancelled` errors.
    pub fn elapsed_ms(&self) -> u64 {
        u64::try_from(self.inner.base.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_token_never_cancels() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn explicit_cancel_fires_across_clones() {
        let t = CancelToken::new();
        let worker = t.clone();
        assert!(!worker.is_cancelled());
        t.cancel();
        assert!(worker.is_cancelled());
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_expires() {
        let t = CancelToken::with_deadline(Duration::from_micros(1));
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_deadline_does_not_fire_early() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        let left = t.remaining().expect("deadline set");
        assert!(left > Duration::from_secs(3000), "remaining {left:?}");
    }

    #[test]
    fn deadlines_only_tighten() {
        let t = CancelToken::with_deadline(Duration::from_micros(1));
        t.set_deadline(Duration::from_secs(3600));
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.is_cancelled(), "later deadline must not loosen");
    }

    #[test]
    fn never_token_is_shared_and_inert() {
        let a = CancelToken::never();
        let b = CancelToken::never();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        assert!(!a.is_cancelled());
    }

    #[test]
    fn elapsed_ms_advances() {
        let t = CancelToken::new();
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.elapsed_ms() >= 1);
    }
}
