//! The epoll-driven serve core: one event thread, a fixed worker pool,
//! per-connection NDJSON framing, and in-band backpressure.
//!
//! The event thread owns every socket. It accepts on the (nonblocking)
//! listener, reads whatever bytes are ready, frames complete request
//! lines, parses each exactly once into a typed [`Request`], and queues
//! it to the worker pool, whatever its op. The deadline watchdog, the
//! admission bound and the workers all read that one parse. The worker
//! that takes a request handles it start to finish on its own thread,
//! so the pool is the server's one level of parallelism. Workers never
//! touch a socket: they hand finished [`Done`] responses back through a
//! completion list and wake the event thread over an eventfd
//! ([`WakeFd`]), which writes each response on its connection in
//! request (`seq`) order — a protocol invariant pipelined clients rely
//! on, upheld for rejections too.
//!
//! Backpressure is layered and always in-band: beyond
//! [`ReactorConfig::max_connections`] a new connection gets one
//! `overloaded` line and is closed; beyond [`ReactorConfig::max_queue`]
//! requests waiting for a worker (`stats` and `shutdown` exempt), a
//! request is answered
//! `{"ok":false,"error":"overloaded","retry_after_ms":N}` without
//! touching an engine. A client that keeps pipelining past its own
//! unanswered requests has its reads paused until responses drain, so
//! per-connection buffers stay bounded as well.
//!
//! Shutdown is a drain, not a cliff: once a worker handles a `shutdown`
//! request the event thread stops accepting, pauses every read, and
//! keeps polling until every queued request has produced a response and
//! every response byte is written — then joins the pool and returns.

use crate::batch::{Done, PendingRequest};
use crate::proto::{line_text, Op, Request, ResponseLine};
use crate::serve::{handle_single, State};
use crate::sys::{
    EpollEvent, Interest, Poller, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use pgr_telemetry::{names, CancelToken, TraceId};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Reactor-specific knobs, split off [`crate::serve::ServeConfig`] by
/// [`crate::Server::run`].
pub(crate) struct ReactorConfig {
    /// Worker threads handling requests (0 = one per CPU).
    pub workers: usize,
    /// Connection-table bound.
    pub max_connections: usize,
    /// Bound on requests waiting for a worker (`stats` and `shutdown`
    /// exempt), and on one connection's unanswered pipeline (at least
    /// [`MIN_PIPELINE_BOUND`]).
    pub max_queue: usize,
    /// Evict connections silent this long with nothing in flight.
    pub idle_timeout: Option<Duration>,
    /// Per-connection request-line byte bound; overflow is answered
    /// in-band and the connection closed.
    pub max_line_bytes: usize,
}

/// How far past its deadline a request's worker may run before the
/// watchdog force-expires the request from the reactor side. Cooperative
/// cancellation (the worker polling its token) answers almost every
/// deadline; the watchdog is the backstop for a worker wedged between
/// cancellation points, so the *connection slot* is released even when
/// the worker is not.
const WATCHDOG_GRACE_FACTOR: u32 = 2;

/// Epoll token of the listener.
const LISTENER: u64 = 0;
/// Epoll token of the worker-completion eventfd.
const WAKE: u64 = 1;
/// First connection token.
const FIRST_CONN: u64 = 2;

/// `retry_after_ms` hint when the connection table is full.
const CONN_RETRY_AFTER_MS: u64 = 100;

/// `retry_after_ms` hint for a request refused at the queue bound.
const QUEUE_RETRY_AFTER_MS: u64 = 1;

/// The floor of the per-connection pipeline bound.
const MIN_PIPELINE_BOUND: u64 = 16;

/// One unit of work for the pool.
enum Work {
    /// A request, handled start to finish by the worker that takes it.
    Request(PendingRequest),
    /// Poison pill: the reactor is done, exit the worker loop.
    Shutdown,
}

/// What the event thread shares with the workers.
struct Pool {
    queue: Mutex<VecDeque<Work>>,
    available: Condvar,
    /// Requests handed to the pool whose responses have not yet been
    /// collected by the event thread — the shutdown-drain counter.
    outstanding: AtomicU64,
    /// Finished responses, drained by the event thread on wake.
    completions: Mutex<Vec<Done>>,
    wake: Arc<WakeFd>,
    state: Arc<State>,
}

impl Pool {
    fn push(&self, work: Work) {
        if matches!(work, Work::Request(_)) {
            self.outstanding.fetch_add(1, Ordering::Relaxed);
        }
        self.queue.lock().expect("work queue lock").push_back(work);
        self.available.notify_one();
    }
}

/// The worker loop: pop, handle, hand the response back, wake the
/// event thread.
fn worker(pool: &Pool) {
    loop {
        let work = {
            let mut queue = pool.queue.lock().expect("work queue lock");
            loop {
                if let Some(work) = queue.pop_front() {
                    break work;
                }
                queue = pool.available.wait(queue).expect("work queue lock");
            }
        };
        let Work::Request(req) = work else {
            return;
        };
        pool.state.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let done = handle_single(&pool.state, req);
        pool.completions
            .lock()
            .expect("completion list lock")
            .push(done);
        pool.wake.wake();
    }
}

/// One connection's reactor-side state.
struct Conn {
    /// This connection's epoll token — the address completions carry.
    token: u64,
    stream: UnixStream,
    /// Bytes read but not yet framed into a complete line.
    read_buf: Vec<u8>,
    /// Serialized responses waiting for the socket to accept them.
    write_buf: Vec<u8>,
    /// How much of `write_buf` is already written.
    write_pos: usize,
    /// Next sequence number to assign to an arriving request.
    next_seq: u64,
    /// The sequence number the next written response must carry.
    next_write: u64,
    /// Out-of-order completions parked until their turn.
    ready: BTreeMap<u64, String>,
    /// Peer sent EOF (or the read side failed): no more requests.
    read_closed: bool,
    /// What the poller currently watches this fd for.
    registered: Interest,
    /// Last moment the peer showed signs of life (bytes read, response
    /// written) — the idle-timeout clock.
    last_activity: Instant,
    /// Seqs the watchdog already answered with a synthesized
    /// `deadline_exceeded`; the worker's late completion for one of
    /// these must be discarded, not written as a duplicate response.
    expired: HashSet<u64>,
}

impl Conn {
    /// Requests accepted from this connection and not yet answered on
    /// the wire.
    fn in_flight(&self) -> u64 {
        self.next_seq - self.next_write
    }

    /// Whether every accepted request has been answered and flushed.
    fn flushed(&self) -> bool {
        self.in_flight() == 0 && self.write_pos == self.write_buf.len()
    }
}

/// One in-flight request the watchdog is timing: where its synthesized
/// answer would go, when to give up on the worker, and the token to
/// fire when doing so.
struct Watched {
    /// Force-expiry moment: `received + grace × deadline`.
    expire_at: Instant,
    /// The request's arrival, for the synthesized response's elapsed
    /// figure.
    received: Instant,
    cancel: CancelToken,
    trace_hex: String,
}

/// The reactor-side deadline watchdog: every request admitted with a
/// deadline is tracked from intake to completion, and one whose worker
/// misses the deadline by [`WATCHDOG_GRACE_FACTOR`] is answered
/// in-band from the event thread — the connection's slot frees even if
/// the worker never reports back.
#[derive(Default)]
struct Watchdog {
    entries: HashMap<(u64, u64), Watched>,
}

impl Watchdog {
    /// Start timing request (`conn`, `seq`).
    fn register(
        &mut self,
        conn: u64,
        seq: u64,
        received: Instant,
        deadline: Duration,
        cancel: CancelToken,
        trace_hex: String,
    ) {
        let grace = deadline.saturating_mul(WATCHDOG_GRACE_FACTOR);
        self.entries.insert(
            (conn, seq),
            Watched {
                expire_at: received + grace,
                received,
                cancel,
                trace_hex,
            },
        );
    }

    /// The request completed (or its connection vanished): stop timing.
    fn resolve(&mut self, conn: u64, seq: u64) {
        self.entries.remove(&(conn, seq));
    }

    /// Drop every entry belonging to a closed connection.
    fn forget_conn(&mut self, conn: u64) {
        self.entries.retain(|&(c, _), _| c != conn);
    }

    /// The earliest force-expiry moment, for the poll timeout.
    fn next_deadline(&self) -> Option<Instant> {
        self.entries.values().map(|w| w.expire_at).min()
    }

    /// Every entry due at `now`, removed and returned.
    fn take_due(&mut self, now: Instant) -> Vec<((u64, u64), Watched)> {
        let due: Vec<(u64, u64)> = self
            .entries
            .iter()
            .filter(|(_, w)| w.expire_at <= now)
            .map(|(&k, _)| k)
            .collect();
        due.into_iter()
            .filter_map(|k| self.entries.remove(&k).map(|w| (k, w)))
            .collect()
    }
}

/// The reactor proper. Runs on the calling thread until shutdown has
/// fully drained; returns early only on unrecoverable poller errors.
pub(crate) fn run(state: Arc<State>, listener: UnixListener, cfg: ReactorConfig) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let wake = Arc::new(WakeFd::new()?);
    let read_only = Interest {
        readable: true,
        writable: false,
    };
    poller.add(listener.as_raw_fd(), LISTENER, read_only)?;
    poller.add(wake.as_raw_fd(), WAKE, read_only)?;

    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.workers
    };
    let pool = Arc::new(Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        outstanding: AtomicU64::new(0),
        completions: Mutex::new(Vec::new()),
        wake: Arc::clone(&wake),
        state: Arc::clone(&state),
    });
    let mut pool_handles = Vec::with_capacity(workers);
    for _ in 0..workers {
        let pool = Arc::clone(&pool);
        pool_handles.push(std::thread::spawn(move || worker(&pool)));
    }

    // The bound on requests waiting for a worker, across all
    // connections.
    let queue_bound = cfg.max_queue.max(1) as u64;
    // The bound on one connection's unanswered pipeline; past it the
    // reactor stops reading that socket until responses drain.
    let pipeline_bound = queue_bound.max(MIN_PIPELINE_BOUND);

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut watchdog = Watchdog::default();
    let mut next_token = FIRST_CONN;
    let mut listening = true;
    let mut draining = false;
    let mut events = vec![EpollEvent::default(); 64];

    loop {
        let timeout = if draining {
            // Completions wake us; this is only a safety tick.
            Some(Duration::from_millis(20))
        } else {
            // Sleep until whichever fires first: a watchdog force-expiry
            // or an idle eviction.
            let mut next = watchdog.next_deadline();
            if let Some(idle) = cfg.idle_timeout {
                if let Some(oldest) = conns.values().map(|c| c.last_activity).min() {
                    let at = oldest + idle;
                    next = Some(next.map_or(at, |n| n.min(at)));
                }
            }
            next.map(|deadline| deadline.saturating_duration_since(Instant::now()))
        };
        let fired = poller.wait(&mut events, timeout)?;

        for event in &events[..fired] {
            let readiness = event.readiness();
            match event.token() {
                LISTENER => accept_ready(
                    &state,
                    &poller,
                    &listener,
                    &mut conns,
                    &mut next_token,
                    &cfg,
                    read_only,
                ),
                WAKE => wake.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue; // closed earlier this sweep
                    };
                    if readiness & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                        read_ready(conn);
                    }
                    if readiness & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0 {
                        write_some(conn);
                    }
                }
            }
        }

        // Apply worker completions before ingesting: park each response
        // under its seq, then write everything now in order. Ingest runs
        // after, so pipeline capacity these responses free up is usable
        // this very sweep — ingesting first could strand a burst's
        // framed-but-over-bound lines in read_buf with nothing left to
        // wake the poller (the completions that lifted the bound already
        // fired their one wake).
        let done = std::mem::take(&mut *pool.completions.lock().expect("completion list lock"));
        pool.outstanding
            .fetch_sub(done.len() as u64, Ordering::Relaxed);
        for d in done {
            watchdog.resolve(d.conn, d.seq);
            if let Some(conn) = conns.get_mut(&d.conn) {
                // A request the watchdog already force-expired was
                // answered from the event thread; the worker's late
                // completion must be discarded, not written twice.
                if conn.expired.remove(&d.seq) {
                    continue;
                }
                // The write path skips next_write past requests it gave
                // up on (peer died mid-pipeline); a completion arriving
                // for such a seq must be discarded — promote_ready never
                // visits seqs below next_write, so parking it would hold
                // `ready` non-empty and block reaping forever.
                if d.seq >= conn.next_write {
                    conn.ready.insert(d.seq, d.response);
                }
            }
            // A vanished connection means the peer hung up before its
            // answer: nothing to write to.
        }
        for conn in conns.values_mut() {
            promote_ready(conn);
        }

        // A worker saw `shutdown`: stop accepting, stop reading, and
        // drain.
        if !draining && !state.running.load(Ordering::SeqCst) {
            draining = true;
            if listening {
                let _ = poller.delete(listener.as_raw_fd());
                listening = false;
            }
        }

        // Frame and queue whatever the reads produced — and whatever a
        // paused pipeline still holds buffered, now that completions
        // have been applied. After this pass a connection only keeps a
        // framed-but-unqueued line while at its pipeline bound, and
        // the completions that lift the bound always wake the poller.
        for conn in conns.values_mut() {
            ingest(
                &state,
                &pool,
                &mut watchdog,
                conn,
                draining,
                pipeline_bound,
                queue_bound,
                cfg.max_line_bytes,
            );
        }

        let now = Instant::now();

        // Watchdog sweep: any request whose worker has blown through
        // the deadline *and* the grace window is answered from here —
        // the token is fired so the worker stops at its next
        // cancellation point, the synthesized response takes the
        // request's seq slot, and the worker's eventual completion is
        // discarded via `expired`.
        for ((conn_token, seq), w) in watchdog.take_due(now) {
            let Some(conn) = conns.get_mut(&conn_token) else {
                continue; // peer already gone; nothing to answer
            };
            if seq < conn.next_write || conn.ready.contains_key(&seq) {
                continue; // answered after all (or given up on)
            }
            w.cancel.cancel();
            let elapsed_ms = now.duration_since(w.received).as_millis() as u64;
            conn.ready.insert(
                seq,
                ResponseLine::deadline_exceeded(elapsed_ms, &w.trace_hex),
            );
            conn.expired.insert(seq);
            state.recorder.add(names::SERVE_DEADLINE_FORCE_EXPIRED, 1);
            state
                .window
                .lock()
                .expect("window lock")
                .record_deadline(state.start.elapsed().as_secs(), true);
            promote_ready(conn);
        }

        // Sync each connection's epoll interest with what it can
        // currently make progress on, and reap finished connections —
        // including ones idle past the idle timeout with nothing in
        // flight.
        let mut closed: Vec<u64> = Vec::new();
        for (&token, conn) in &mut conns {
            let idle_expired = !draining
                && cfg.idle_timeout.is_some_and(|idle| {
                    conn.flushed() && now.duration_since(conn.last_activity) >= idle
                });
            if idle_expired {
                state.recorder.add(names::SERVE_CONN_IDLE_CLOSED, 1);
                state
                    .window
                    .lock()
                    .expect("window lock")
                    .record_idle_closed(state.start.elapsed().as_secs());
            }
            let gone = conn.read_closed && conn.flushed() && conn.ready.is_empty();
            if gone || idle_expired || (draining && conn.flushed()) {
                let _ = poller.delete(conn.stream.as_raw_fd());
                closed.push(token);
                continue;
            }
            let want = Interest {
                readable: !draining && !conn.read_closed && conn.in_flight() < pipeline_bound,
                writable: conn.write_pos < conn.write_buf.len(),
            };
            if want != conn.registered
                && poller.modify(conn.stream.as_raw_fd(), token, want).is_ok()
            {
                conn.registered = want;
            }
        }
        for token in closed {
            watchdog.forget_conn(token);
            conns.remove(&token);
        }

        if draining
            && pool.outstanding.load(Ordering::Relaxed) == 0
            && conns.values().all(Conn::flushed)
        {
            break;
        }
    }

    for _ in 0..workers {
        pool.push(Work::Shutdown);
    }
    pool.available.notify_all();
    for handle in pool_handles {
        let _ = handle.join();
    }
    Ok(())
}

/// Accept every pending connection; beyond the table bound, answer one
/// `overloaded` line best-effort and close.
#[allow(clippy::too_many_arguments)]
fn accept_ready(
    state: &State,
    poller: &Poller,
    listener: &UnixListener,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    cfg: &ReactorConfig,
    read_only: Interest,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.len() >= cfg.max_connections.max(1) {
                    reject_connection(state, stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                if poller.add(stream.as_raw_fd(), token, read_only).is_err() {
                    continue;
                }
                state.recorder.add(names::SERVE_CONNECTIONS, 1);
                conns.insert(
                    token,
                    Conn {
                        token,
                        stream,
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        next_seq: 0,
                        next_write: 0,
                        ready: BTreeMap::new(),
                        read_closed: false,
                        registered: read_only,
                        last_activity: Instant::now(),
                        expired: HashSet::new(),
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Turn away a connection the table has no room for: one in-band
/// `overloaded` line (best effort — the socket buffer is empty, so a
/// short nonblocking write only fails if the peer is already gone).
fn reject_connection(state: &State, stream: UnixStream) {
    let mut stream = stream;
    record_rejection(state);
    let line = ResponseLine::overloaded(CONN_RETRY_AFTER_MS, &TraceId::mint().to_hex());
    let _ = stream.set_nonblocking(true);
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Count one admission-control rejection everywhere it is observable.
fn record_rejection(state: &State) {
    state.recorder.add(names::SERVE_REQUESTS, 1);
    state.recorder.add(names::SERVE_ERRORS, 1);
    state.recorder.add(names::SERVE_REJECTED_OVERLOAD, 1);
    state
        .window
        .lock()
        .expect("window lock")
        .record_rejected(state.start.elapsed().as_secs());
}

/// Read whatever is available into the connection's buffer. EOF and
/// read errors both mean "no more requests"; queued responses still get
/// written.
fn read_ready(conn: &mut Conn) {
    if conn.read_closed {
        return;
    }
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => {
                conn.read_buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.read_closed = true;
                return;
            }
        }
    }
}

/// Frame complete lines out of the read buffer, parse each once, and
/// admit it, up to the connection's pipeline bound. Every admitted
/// request gets a [`CancelToken`] armed with its effective deadline (the
/// request's own `timeout_ms`, clamped to the server ceiling) and, when
/// a deadline exists, a watchdog entry for reactor-side force expiry.
/// A request is queued to the pool while fewer than `queue_bound` wait
/// for a worker; `stats` and `shutdown` are exempt from the bound:
/// operators must be able to observe and stop an overloaded server.
#[allow(clippy::too_many_arguments)]
fn ingest(
    state: &Arc<State>,
    pool: &Pool,
    watchdog: &mut Watchdog,
    conn: &mut Conn,
    draining: bool,
    pipeline_bound: u64,
    queue_bound: u64,
    max_line_bytes: usize,
) {
    if draining {
        // Lines still buffered when shutdown lands were never accepted;
        // only already-dispatched requests are owed responses.
        return;
    }
    while conn.in_flight() < pipeline_bound {
        let nl = conn.read_buf.iter().position(|&b| b == b'\n');
        // One request line past the byte bound — framed or still
        // accumulating — is answered in-band and the connection closed:
        // an unbounded read buffer is how one adversarial peer balloons
        // the reactor's memory.
        let oversized = max_line_bytes > 0
            && match nl {
                Some(nl) => nl > max_line_bytes,
                None => conn.read_buf.len() > max_line_bytes,
            };
        if oversized {
            line_overflow(state, conn, max_line_bytes);
            return;
        }
        let Some(nl) = nl else {
            return;
        };
        let line: Vec<u8> = conn.read_buf.drain(..=nl).collect();
        let Some(text) = line_text(&line[..nl]) else {
            continue;
        };
        let received = Instant::now();
        let request = Request::parse(&text);
        let trace = TraceId::mint();
        let cancel = CancelToken::new();
        let requested = request.as_ref().ok().and_then(|r| r.timeout_ms);
        let deadline = state
            .effective_timeout_ms(requested)
            .map(Duration::from_millis);
        if let Some(d) = deadline {
            cancel.set_deadline(d);
        }
        let exempt = request
            .as_ref()
            .is_ok_and(|r| matches!(r.op, Op::Stats | Op::Shutdown));
        let admitted = exempt || state.queue_depth.load(Ordering::Relaxed) < queue_bound;
        let seq = conn.next_seq;
        conn.next_seq += 1;
        if admitted {
            if let Some(d) = deadline {
                watchdog.register(conn.token, seq, received, d, cancel.clone(), trace.to_hex());
            }
            // Counted in before a worker can count it out.
            bump_queue_depth(state);
            pool.push(Work::Request(PendingRequest {
                conn: conn.token,
                seq,
                request,
                received,
                trace,
                cancel,
            }));
        } else {
            record_rejection(state);
            conn.ready.insert(
                seq,
                ResponseLine::overloaded(QUEUE_RETRY_AFTER_MS, &trace.to_hex()),
            );
        }
        promote_ready(conn);
    }
}

/// Answer a request line that blew the byte bound and close the
/// connection: the in-band error takes the next seq slot (pipelined
/// responses ahead of it still drain in order), reads stop, and the
/// buffered oversize data is dropped.
fn line_overflow(state: &Arc<State>, conn: &mut Conn, max_line_bytes: usize) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    state.recorder.add(names::SERVE_LINE_OVERFLOW, 1);
    state
        .window
        .lock()
        .expect("window lock")
        .record_line_overflow(state.start.elapsed().as_secs());
    conn.ready.insert(
        seq,
        ResponseLine::err_traced(
            &format!("request line exceeds the {max_line_bytes}-byte bound"),
            &TraceId::mint().to_hex(),
            0,
        ),
    );
    conn.read_buf.clear();
    conn.read_buf.shrink_to_fit();
    conn.read_closed = true;
    promote_ready(conn);
}

/// Count a request into the queue-depth gauge.
fn bump_queue_depth(state: &State) {
    let depth = state.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    state.recorder.gauge_max(names::SERVE_QUEUE_DEPTH, depth);
}

/// Move responses whose turn has come from the parking map into the
/// write buffer, then push bytes.
fn promote_ready(conn: &mut Conn) {
    while let Some(response) = conn.ready.remove(&conn.next_write) {
        conn.write_buf.extend_from_slice(response.as_bytes());
        conn.write_buf.push(b'\n');
        conn.next_write += 1;
    }
    write_some(conn);
}

/// Write as much buffered response data as the socket accepts.
fn write_some(conn: &mut Conn) {
    while conn.write_pos < conn.write_buf.len() {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => break,
            Ok(n) => {
                conn.write_pos += n;
                // A freshly-written response resets the idle clock, so a
                // peer is never evicted the instant its slow answer
                // lands.
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Peer is gone: discard what it will never read so the
                // connection counts as flushed and can be reaped.
                conn.write_buf.clear();
                conn.write_pos = 0;
                conn.ready.clear();
                conn.next_write = conn.next_seq;
                conn.read_closed = true;
                return;
            }
        }
    }
    if conn.write_pos == conn.write_buf.len() {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
}
