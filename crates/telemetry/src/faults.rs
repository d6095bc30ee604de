//! Deterministic fault injection for the robustness test suite.
//!
//! The hardening work (verbatim fallback, checksummed images,
//! panic-isolated workers) is only trustworthy if the degraded paths
//! are *executed*, not just written. This module gives the tests a
//! way to trip them on demand: the pipeline consults [`fire`] at a small
//! set of named [`FaultPoint`]s, and an installed [`FaultPlan`] decides —
//! deterministically — which occurrences fault.
//!
//! The design constraints mirror the [`Recorder`](crate::Recorder)
//! disabled fast path: when no plan is installed (the production state),
//! [`fire`] is a single relaxed atomic load and nothing else — no lock,
//! no counter traffic, no allocation. Only an enabled plan pays for
//! occurrence counting and mode evaluation.
//!
//! A plan binds to the thread that installs it, so tests running in
//! parallel never see each other's faults. Worker pools that act for
//! that thread carry the plan along explicitly, the way they carry the
//! trace id: the compressor's encoder workers and the VM's interpreter
//! thread capture [`current`] before spawning and enter [`scope`] in
//! each worker.
//!
//! Plans are deterministic by construction: [`FaultMode::Nth`] trips one
//! exact occurrence, and [`FaultMode::Seeded`] derives each verdict from
//! a splitmix64 hash of `(seed, point, occurrence index)` — the same seed
//! always faults the same occurrences, so a failing fuzz run is
//! replayable from its seed alone.
//!
//! ```
//! use pgr_telemetry::faults::{self, FaultMode, FaultPlan, FaultPoint};
//!
//! // Disabled (the default): nothing fires.
//! assert!(!faults::fire(FaultPoint::Parse));
//!
//! // Trip exactly the second parse.
//! let _guard = faults::install(
//!     FaultPlan::new().with(FaultPoint::Parse, FaultMode::Nth(2)),
//! );
//! assert!(!faults::fire(FaultPoint::Parse));
//! assert!(faults::fire(FaultPoint::Parse));
//! assert!(!faults::fire(FaultPoint::Parse));
//! assert_eq!(faults::fired(FaultPoint::Parse), 1);
//! ```

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A named place in the pipeline that asks [`fire`] whether to fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// `binfmt::read_program`: reading a program image from bytes.
    ImageRead = 0,
    /// The engine's per-segment shortest-derivation search (fires as a
    /// `NoParse`).
    Parse = 1,
    /// The engine's per-segment encode, after the tiling (fires as a
    /// panic inside the encoder worker, driving worker isolation).
    Encode = 2,
    /// The decompressor's per-segment derivation decode.
    Decode = 3,
}

/// Number of distinct [`FaultPoint`]s.
pub const POINT_COUNT: usize = 4;

impl FaultPoint {
    /// Every injection point, in discriminant order.
    pub const ALL: [FaultPoint; POINT_COUNT] = [
        FaultPoint::ImageRead,
        FaultPoint::Parse,
        FaultPoint::Encode,
        FaultPoint::Decode,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// When a [`FaultPoint`] faults, over its sequence of occurrences
/// (1-based, counted per installed plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultMode {
    /// Never fault (the default for every point).
    #[default]
    Never,
    /// Fault on every occurrence.
    Always,
    /// Fault on exactly the `n`th occurrence (1-based).
    Nth(u64),
    /// Fault each occurrence independently with probability
    /// `rate_per_1024 / 1024`, decided by a splitmix64 hash of
    /// `(seed, point, occurrence)` — deterministic for a fixed seed.
    Seeded {
        /// The reproducibility seed.
        seed: u64,
        /// Fault rate in 1024ths (1024 = always).
        rate_per_1024: u16,
    },
}

/// A per-point assignment of [`FaultMode`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    modes: [FaultMode; POINT_COUNT],
}

impl FaultPlan {
    /// A plan in which nothing faults.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Set the mode for one point (builder-style).
    pub fn with(mut self, point: FaultPoint, mode: FaultMode) -> FaultPlan {
        self.modes[point.index()] = mode;
        self
    }
}

/// Plans installed anywhere in the process. While it is zero, [`fire`]
/// is this one relaxed load; it publishes nothing (a plan reaches other
/// threads only through [`scope`], after they are spawned).
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

/// An installed plan and its tallies, shared by the installing thread and
/// the workers its plan is carried into.
struct Active {
    plan: FaultPlan,
    /// Occurrences seen per point since the plan was installed.
    seen: [AtomicU64; POINT_COUNT],
    /// Faults actually fired per point since the plan was installed.
    fired: [AtomicU64; POINT_COUNT],
}

thread_local! {
    /// The plan in force on this thread, if any.
    static CURRENT: RefCell<Option<Arc<Active>>> = const { RefCell::new(None) };
}

/// Keeps an installed [`FaultPlan`] active on the installing thread;
/// dropping it restores whatever plan that thread had before. It cannot
/// leave the thread.
pub struct FaultGuard {
    _scope: FaultScope,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        INSTALLED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Install `plan` on the calling thread until the returned guard drops.
///
/// The plan binds to this thread only — other threads, such as tests
/// running in parallel, never see it — and travels into worker threads
/// only where a pool carries it explicitly ([`current`] / [`scope`]).
/// Occurrence and fired counts start at zero.
pub fn install(plan: FaultPlan) -> FaultGuard {
    let active = Arc::new(Active {
        plan,
        seen: Default::default(),
        fired: Default::default(),
    });
    INSTALLED.fetch_add(1, Ordering::SeqCst);
    FaultGuard {
        _scope: scope(FaultContext(Some(active))),
    }
}

/// The plan in force on a thread, captured to carry into worker threads
/// (thread-locals do not cross `thread::scope`): take it with [`current`]
/// before spawning and install it in each worker with [`scope`], as the
/// trace id is carried with `trace::current`/`trace::scope_raw`.
#[derive(Clone, Default)]
pub struct FaultContext(Option<Arc<Active>>);

/// The plan in force on the calling thread (none, almost always).
pub fn current() -> FaultContext {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return FaultContext::default();
    }
    FaultContext(CURRENT.with(|c| c.borrow().clone()))
}

/// Put `context`'s plan in force on the calling thread until the returned
/// guard drops. Occurrences on every thread sharing one plan count
/// together, so `Nth(1)` still faults exactly once.
pub fn scope(context: FaultContext) -> FaultScope {
    FaultScope {
        prev: CURRENT.with(|c| c.replace(context.0)),
        _thread_bound: PhantomData,
    }
}

/// RAII guard from [`scope`]; restores the thread's previous plan.
#[must_use = "a scope carries the plan for the region it is bound to; binding to _ drops it immediately"]
pub struct FaultScope {
    prev: Option<Arc<Active>>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Ask whether this occurrence of `point` should fault.
///
/// With no plan installed anywhere this is a single relaxed atomic load
/// returning `false` — cheap enough for per-segment hot paths, in the
/// spirit of [`Recorder::is_enabled`](crate::Recorder::is_enabled).
#[inline]
pub fn fire(point: FaultPoint) -> bool {
    if INSTALLED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    fire_slow(point)
}

#[cold]
fn fire_slow(point: FaultPoint) -> bool {
    CURRENT.with(|c| {
        let c = c.borrow();
        let Some(active) = c.as_ref() else {
            return false;
        };
        let i = point.index();
        let n = active.seen[i].fetch_add(1, Ordering::SeqCst) + 1;
        let hit = match active.plan.modes[i] {
            FaultMode::Never => false,
            FaultMode::Always => true,
            FaultMode::Nth(k) => n == k,
            FaultMode::Seeded {
                seed,
                rate_per_1024,
            } => {
                splitmix64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)) ^ n) % 1024
                    < u64::from(rate_per_1024)
            }
        };
        if hit {
            active.fired[i].fetch_add(1, Ordering::SeqCst);
        }
        hit
    })
}

/// Occurrences of `point` seen under the calling thread's plan (0 with
/// none).
pub fn seen(point: FaultPoint) -> u64 {
    tally(|a| &a.seen[point.index()])
}

/// Faults fired at `point` under the calling thread's plan (0 with none).
pub fn fired(point: FaultPoint) -> u64 {
    tally(|a| &a.fired[point.index()])
}

fn tally(counter: impl Fn(&Active) -> &AtomicU64) -> u64 {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map_or(0, |a| counter(a).load(Ordering::SeqCst))
    })
}

/// The splitmix64 mixer (public-domain constants); a full-avalanche
/// 64-bit permutation, so per-occurrence verdicts are decorrelated.
/// Public because the chaos proxy and the retrying client reuse the
/// same seeded-determinism discipline for their fault/jitter decisions.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert_and_modes_are_deterministic() {
        // No plan: nothing fires, nothing is counted.
        assert!(!fire(FaultPoint::ImageRead));

        {
            let _g = install(FaultPlan::new().with(FaultPoint::Decode, FaultMode::Nth(3)));
            let pattern: Vec<bool> = (0..5).map(|_| fire(FaultPoint::Decode)).collect();
            assert_eq!(pattern, [false, false, true, false, false]);
            assert_eq!(seen(FaultPoint::Decode), 5);
            assert_eq!(fired(FaultPoint::Decode), 1);
            // Other points stay quiet.
            assert!(!fire(FaultPoint::Parse));
        }
        // Guard dropped: disabled again.
        assert!(!fire(FaultPoint::Decode));

        // Seeded mode replays identically for the same seed.
        let run = |seed| {
            let _g = install(FaultPlan::new().with(
                FaultPoint::Parse,
                FaultMode::Seeded {
                    seed,
                    rate_per_1024: 512,
                },
            ));
            (0..64).map(|_| fire(FaultPoint::Parse)).collect::<Vec<_>>()
        };
        let a = run(7);
        assert_eq!(a, run(7));
        assert_ne!(a, run(8), "different seeds should diverge");
        assert!(a.iter().any(|&b| b) && a.iter().any(|&b| !b));
    }

    #[test]
    fn plans_stay_on_their_thread_unless_carried() {
        let _g = install(FaultPlan::new().with(FaultPoint::Encode, FaultMode::Always));
        std::thread::scope(|s| {
            // A thread the plan was not carried into sees no plan.
            let stranger = s.spawn(|| fire(FaultPoint::Encode));
            assert!(!stranger.join().unwrap());
            // A carried plan fires, and its tallies are shared.
            let context = current();
            let worker = s.spawn(move || {
                let _scope = scope(context);
                fire(FaultPoint::Encode)
            });
            assert!(worker.join().unwrap());
        });
        assert_eq!(fired(FaultPoint::Encode), 1);
        assert!(fire(FaultPoint::Encode));
        assert_eq!(seen(FaultPoint::Encode), 2);
    }
}
