//! Minimal Linux `epoll` + `eventfd` bindings via direct syscalls.
//!
//! The build environment vendors no external crates, so there is no
//! `libc` to lean on; the reactor needs exactly four kernel facilities —
//! `epoll_create1`, `epoll_ctl`, `epoll_pwait`/`epoll_pwait2`, and
//! `eventfd2` — and this module provides them with inline `syscall`
//! instructions, gated to the architectures the project builds on
//! (x86-64 and aarch64 Linux). Everything socket-shaped still goes
//! through `std::os::unix::net` in nonblocking mode; only readiness
//! notification and the cross-thread wake primitive live here.
//!
//! `epoll_pwait2` (nanosecond timeouts, kernel ≥ 5.11) is preferred so
//! a timer due in under a millisecond doesn't round up to a
//! whole-millisecond sleep; on `ENOSYS` the poller downgrades once to
//! `epoll_pwait` with ceiling-rounded milliseconds and remembers.

use std::io;
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

// Syscall numbers for the supported architectures.
#[cfg(target_arch = "x86_64")]
mod nr {
    pub const READ: usize = 0;
    pub const WRITE: usize = 1;
    pub const CLOSE: usize = 3;
    pub const EPOLL_CTL: usize = 233;
    pub const EPOLL_PWAIT: usize = 281;
    pub const EVENTFD2: usize = 290;
    pub const EPOLL_CREATE1: usize = 291;
    pub const EPOLL_PWAIT2: usize = 441;
}
#[cfg(target_arch = "aarch64")]
mod nr {
    pub const EVENTFD2: usize = 19;
    pub const EPOLL_CREATE1: usize = 20;
    pub const EPOLL_CTL: usize = 21;
    pub const EPOLL_PWAIT: usize = 22;
    pub const CLOSE: usize = 57;
    pub const READ: usize = 63;
    pub const WRITE: usize = 64;
    pub const EPOLL_PWAIT2: usize = 441;
}

const EPOLL_CLOEXEC: usize = 0x80000;
const EPOLL_CTL_ADD: usize = 1;
const EPOLL_CTL_DEL: usize = 2;
const EPOLL_CTL_MOD: usize = 3;

/// Readiness bits (subset of the kernel's `EPOLL*` mask).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its writing half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EFD_NONBLOCK: usize = 0x800;
const EFD_CLOEXEC: usize = 0x80000;

const ENOSYS: i32 = 38;
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;

/// One readiness notification. x86-64 packs the struct (kernel ABI);
/// other architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// The caller's token, round-tripped verbatim.
    pub data: u64,
}

impl EpollEvent {
    /// The token this event is for.
    pub fn token(&self) -> u64 {
        // A copy, not a reference: the field may be unaligned on x86-64.
        self.data
    }

    /// The readiness bits.
    pub fn readiness(&self) -> u32 {
        self.events
    }
}

/// `struct timespec` as `epoll_pwait2` expects it.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Raw 6-argument syscall. Lower-arity calls pass zeros; the kernel only
/// reads the arguments each syscall declares.
///
/// # Safety
///
/// The caller must uphold the invariants of the specific syscall:
/// pointers valid for the kernel's declared access, fds owned.
#[cfg(target_arch = "x86_64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// See the x86-64 variant.
///
/// # Safety
///
/// As above.
#[cfg(target_arch = "aarch64")]
unsafe fn syscall6(
    n: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc #0",
        in("x8") n,
        inlateout("x0") a1 => ret,
        in("x1") a2,
        in("x2") a3,
        in("x3") a4,
        in("x4") a5,
        in("x5") a6,
        options(nostack),
    );
    ret
}

/// Fold a raw syscall return into `io::Result`.
fn check(ret: isize) -> io::Result<usize> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret as usize)
    }
}

fn close_fd(fd: RawFd) {
    // SAFETY: `fd` is an fd this module opened and owns.
    let _ = unsafe { syscall6(nr::CLOSE, fd as usize, 0, 0, 0, 0, 0) };
}

/// What a registered fd should be watched for. Level-triggered; error
/// and hang-up conditions are always reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Watch for readable data (and peer read-side hang-up).
    pub readable: bool,
    /// Watch for writable space.
    pub writable: bool,
}

impl Interest {
    fn mask(self) -> u32 {
        let mut m = 0;
        if self.readable {
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// An epoll instance: register fds with tokens, wait for readiness.
pub struct Poller {
    epfd: RawFd,
    /// Whether `epoll_pwait2` came back `ENOSYS` (pre-5.11 kernel).
    no_pwait2: AtomicBool,
}

impl Poller {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers involved.
        let epfd = check(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        Ok(Poller {
            epfd: epfd as RawFd,
            no_pwait2: AtomicBool::new(false),
        })
    }

    fn ctl(&self, op: usize, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let ptr = event
            .as_ref()
            .map_or(std::ptr::null(), |e| e as *const EpollEvent);
        // SAFETY: `ptr` is null (DEL) or points at a live EpollEvent for
        // the duration of the call; epfd and fd are owned by the caller.
        check(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                self.epfd as usize,
                op,
                fd as usize,
                ptr as usize,
                0,
                0,
            )
        })?;
        Ok(())
    }

    /// Register `fd` under `token`.
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Change what `fd` is watched for.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Deregister `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Wait for readiness, filling `events` from the front; returns how
    /// many fired. `None` blocks indefinitely; `Some(d)` wakes after at
    /// most `d` (nanosecond precision where the kernel supports
    /// `epoll_pwait2`, ceiling-rounded milliseconds otherwise).
    ///
    /// Signal interruptions are absorbed: the wait re-arms with the
    /// remaining time until the deadline genuinely passes (or forever
    /// for `None`). The old behaviour — reporting `EINTR` as zero
    /// events — fabricated a spurious timeout, which with `None` told
    /// an indefinitely-blocking caller that a deadline it never set had
    /// expired.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        if events.is_empty() {
            // maxevents must be positive, and rounding it up to 1 would
            // license the kernel to write past a zero-length slice.
            return Ok(0);
        }
        let start = std::time::Instant::now();
        loop {
            let remaining = match remaining_after(timeout, start.elapsed()) {
                Some(r) => r,
                // The deadline passed while we were being interrupted:
                // now it really is a timeout.
                None => return Ok(0),
            };
            match self.wait_once(events, remaining) {
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                other => return other,
            }
        }
    }

    /// One `epoll_pwait2`/`epoll_pwait` round; `EINTR` surfaces to the
    /// caller ([`Poller::wait`] re-arms with the remaining time).
    fn wait_once(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let ptr = events.as_mut_ptr() as usize;
        let cap = events.len();
        if !self.no_pwait2.load(Ordering::Relaxed) {
            let ts = timeout.map(|d| Timespec {
                tv_sec: d.as_secs() as i64,
                tv_nsec: i64::from(d.subsec_nanos()),
            });
            let ts_ptr = ts.as_ref().map_or(0, |t| t as *const Timespec as usize);
            // SAFETY: `ptr` addresses `cap` writable EpollEvents; the
            // timespec (if any) outlives the call; sigmask is null.
            let ret =
                unsafe { syscall6(nr::EPOLL_PWAIT2, self.epfd as usize, ptr, cap, ts_ptr, 0, 8) };
            match check(ret) {
                Ok(n) => return Ok(n),
                Err(e) if e.raw_os_error() == Some(ENOSYS) => {
                    self.no_pwait2.store(true, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
        let ms: usize = match timeout {
            None => usize::MAX, // -1 as the kernel's int timeout: block
            Some(d) => {
                let whole = d.as_millis();
                let ceil = whole + u128::from(u8::from(d.subsec_nanos() % 1_000_000 != 0));
                ceil.min(i32::MAX as u128) as usize
            }
        };
        // SAFETY: as above; timeout is by value.
        let ret = unsafe { syscall6(nr::EPOLL_PWAIT, self.epfd as usize, ptr, cap, ms, 0, 8) };
        check(ret)
    }

    /// Pretend `epoll_pwait2` already came back `ENOSYS`, forcing every
    /// subsequent wait down the millisecond `epoll_pwait` path.
    #[cfg(test)]
    fn force_ms_fallback(&self) {
        self.no_pwait2.store(true, Ordering::Relaxed);
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        close_fd(self.epfd);
    }
}

/// How much wait time is left after a signal interruption `elapsed`
/// into a wait armed with `timeout`. `None` means the deadline already
/// passed (a genuine timeout); `Some(None)` means keep blocking
/// indefinitely — an interrupted infinite wait must never report as a
/// timeout.
fn remaining_after(timeout: Option<Duration>, elapsed: Duration) -> Option<Option<Duration>> {
    match timeout {
        None => Some(None),
        Some(d) => {
            let left = d.checked_sub(elapsed)?;
            if left.is_zero() {
                return None;
            }
            Some(Some(left))
        }
    }
}

/// A nonblocking `eventfd` used to wake the reactor from worker threads
/// (and to request shutdown) — the explicit replacement for the old
/// racy connect-to-self wake.
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Create the eventfd (counter semantics, nonblocking, cloexec).
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: no pointers involved.
        let fd =
            check(unsafe { syscall6(nr::EVENTFD2, 0, EFD_NONBLOCK | EFD_CLOEXEC, 0, 0, 0, 0) })?;
        Ok(WakeFd { fd: fd as RawFd })
    }

    /// The fd to register with a [`Poller`].
    pub fn as_raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Make the fd readable. Safe from any thread; an already-pending
    /// wake (counter at max) is as good as another one, so `EAGAIN` is
    /// ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live stack variable to an owned fd.
        let _ = unsafe {
            syscall6(
                nr::WRITE,
                self.fd as usize,
                &one as *const u64 as usize,
                8,
                0,
                0,
                0,
            )
        };
    }

    /// Consume pending wakes so level-triggered polling quiesces.
    pub fn drain(&self) {
        let mut buf = 0u64;
        loop {
            // SAFETY: reads 8 bytes into a live stack variable from an
            // owned fd.
            let ret = unsafe {
                syscall6(
                    nr::READ,
                    self.fd as usize,
                    &mut buf as *mut u64 as usize,
                    8,
                    0,
                    0,
                    0,
                )
            };
            if ret < 0 {
                let errno = -ret as i32;
                if errno == EINTR {
                    continue;
                }
                debug_assert!(errno == EAGAIN, "eventfd read failed: errno {errno}");
                return;
            }
            // Counter semantics: one successful read clears it.
            return;
        }
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        close_fd(self.fd);
    }
}

// SAFETY: WakeFd is an fd; write(2) on an eventfd is thread-safe.
unsafe impl Send for WakeFd {}
// SAFETY: as above.
unsafe impl Sync for WakeFd {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn poller_reports_readability_and_tokens() {
        let poller = Poller::new().expect("epoll_create1");
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        poller
            .add(
                b.as_raw_fd(),
                7,
                Interest {
                    readable: true,
                    writable: false,
                },
            )
            .expect("epoll_ctl add");

        let mut events = [EpollEvent::default(); 8];
        // Nothing readable yet: a zero timeout returns promptly.
        let n = poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("epoll_wait");
        assert_eq!(n, 0);

        a.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("epoll_wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 7);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);

        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn wakefd_wakes_across_threads_and_drains() {
        let poller = Poller::new().expect("epoll_create1");
        let wake = std::sync::Arc::new(WakeFd::new().expect("eventfd2"));
        poller
            .add(
                wake.as_raw_fd(),
                1,
                Interest {
                    readable: true,
                    writable: false,
                },
            )
            .expect("epoll_ctl add");

        let peer = std::sync::Arc::clone(&wake);
        let handle = std::thread::spawn(move || peer.wake());
        let mut events = [EpollEvent::default(); 4];
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("epoll_wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 1);
        handle.join().unwrap();

        wake.drain();
        let n = poller
            .wait(&mut events, Some(Duration::ZERO))
            .expect("epoll_wait");
        assert_eq!(n, 0, "drained wake must quiesce level-triggered polling");
    }

    #[test]
    fn ms_fallback_path_reports_readiness_and_timeouts() {
        // Force the pre-5.11 `epoll_pwait` millisecond path and re-run
        // the basic readiness contract through it.
        let poller = Poller::new().expect("epoll_create1");
        poller.force_ms_fallback();
        let (mut a, b) = UnixStream::pair().expect("socketpair");
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        poller
            .add(
                b.as_raw_fd(),
                42,
                Interest {
                    readable: true,
                    writable: false,
                },
            )
            .expect("epoll_ctl add");

        let mut events = [EpollEvent::default(); 4];
        // Sub-millisecond timeouts ceiling-round to 1ms on this path;
        // either way the wait must return promptly with no events.
        let start = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_micros(300)))
            .expect("epoll_wait (ms fallback, sub-ms timeout)");
        assert_eq!(n, 0);
        assert!(start.elapsed() < Duration::from_millis(250));

        a.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("epoll_wait (ms fallback, readable)");
        assert_eq!(n, 1);
        assert_eq!(events[0].token(), 42);
        assert_ne!(events[0].readiness() & EPOLLIN, 0);
    }

    #[test]
    fn remaining_after_rearms_correctly() {
        // An interrupted infinite wait keeps blocking indefinitely —
        // this is the spurious-timeout bug the re-arm loop fixes.
        assert_eq!(remaining_after(None, Duration::from_secs(999)), Some(None));

        // Mid-wait interruption re-arms with the time left.
        assert_eq!(
            remaining_after(Some(Duration::from_millis(100)), Duration::from_millis(30)),
            Some(Some(Duration::from_millis(70)))
        );

        // Interruption at or past the deadline is a genuine timeout.
        assert_eq!(
            remaining_after(Some(Duration::from_millis(100)), Duration::from_millis(100)),
            None
        );
        assert_eq!(
            remaining_after(Some(Duration::from_millis(100)), Duration::from_millis(250)),
            None
        );

        // A zero timeout polls once and reports timeout on interruption.
        assert_eq!(remaining_after(Some(Duration::ZERO), Duration::ZERO), None);
    }

    #[test]
    fn sub_millisecond_timeouts_do_not_block() {
        let poller = Poller::new().expect("epoll_create1");
        let start = Instant::now();
        let mut events = [EpollEvent::default(); 1];
        let n = poller
            .wait(&mut events, Some(Duration::from_micros(300)))
            .expect("epoll_wait");
        assert_eq!(n, 0);
        assert!(
            start.elapsed() < Duration::from_millis(250),
            "a 300µs timeout must not block for long: {:?}",
            start.elapsed()
        );
    }
}
