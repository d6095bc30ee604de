//! The `pgr` request server: NDJSON over a Unix socket, backed by the
//! grammar registry.
//!
//! One [`Server`] owns one [`Registry`] and a sharded map of *engines* —
//! a [`Compressor`] that owns one loaded grammar and serves every
//! request that names that grammar. The one
//! transport is an epoll reactor (the `reactor` module), which is why
//! the crate supports Linux on x86_64 or aarch64 only: one event thread
//! owns every socket in nonblocking mode, frames NDJSON incrementally,
//! parses each line once into a typed request, and hands it to a fixed
//! worker pool; responses are written back in per-connection request
//! order however the pool completes them. Every `compress` is batched
//! (the `batch` module): same-grammar requests arriving within
//! [`ServeConfig::batch_window_us`] coalesce into one engine dispatch,
//! and a lone one is a batch of one. `decompress`/`run`/`stats`/
//! `shutdown` are handled one at a time. Both paths answer through the
//! same response-and-accounting tail.
//!
//! Admission control bounds the server, not the encoder's work: a
//! request's size is bounded by [`ServeConfig::max_line_bytes`] and its
//! time by its deadline (the tiler is linear in segment length, so
//! nothing else grows with a request);
//! [`ServeConfig::max_connections`] bounds the connection table and
//! [`ServeConfig::max_queue`] bounds each grammar's pending batch —
//! overflow is answered in-band with
//! `{"ok":false,"error":"overloaded","retry_after_ms":N}` rather than
//! queued unboundedly, counted under `serve.rejected.overload`. A worker
//! panic surfaces as that request's error response, not a dead server.
//!
//! Engines are evicted least-recently-used once
//! [`ServeConfig::max_engines`] are resident, and drop cleanly — each
//! engine's compressor owns its grammar, so a many-tenant server's
//! memory stays bounded.
//!
//! Every request is minted a [`TraceId`] and handled under its trace
//! scope, so spans recorded anywhere below — engine workers, the tiler,
//! the VM's interpreter thread — attribute back to the request.
//! Responses (success and error alike) carry the id in a `"trace"`
//! field; error responses also carry elapsed `"micros"`. With
//! [`ServeConfig::slow_ms`] set, any request over the threshold has its
//! full span tree appended to an NDJSON slow-trace log.
//!
//! Request latency lands in the `serve.request.<op>.micros` histograms
//! (pre-registered at bind, so `stats` always reports quantiles for
//! every op); errors land in `serve.request.<op>.errors`; and a
//! [`SlidingWindow`] keeps rolling RPS / error-rate / per-op and
//! per-grammar quantiles for the trailing minute. A `stats` request
//! snapshots all of it, including itself.

use crate::batch::{Batch, Done, PendingRequest};
use crate::id::GrammarId;
use crate::proto::{base64_decode, base64_encode, json_string, Op, Request, ResponseLine};
use crate::store::{Registry, RegistryError};
use crate::window::{SlidingWindow, DEFAULT_WINDOW_SECS};
use pgr_bytecode::{read_program_tagged, write_program_tagged, ImageKind, Program};
use pgr_core::{BatchEntry, Compressor, CompressorConfig};
use pgr_grammar::Nt;
use pgr_telemetry::{
    names, trace, CancelToken, Metrics, Recorder, Stopwatch, TraceId, DEFAULT_TRACE_CAPACITY,
};
use pgr_vm::{Vm, VmConfig, VmError};
use std::collections::HashMap;
use std::fmt;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::net::UnixListener;
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The operations the server understands (shutdown aside). Metric names
/// for each are pre-registered at bind.
pub const SERVE_OPS: [&str; 4] = ["compress", "decompress", "run", "stats"];

/// How a [`Server`] is put together.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registry root directory (created if missing).
    pub registry_root: PathBuf,
    /// Compressor worker threads per engine (0 = one per CPU).
    pub threads: usize,
    /// Telemetry destination. Pass an enabled recorder — `stats`
    /// responses snapshot it.
    pub recorder: Recorder,
    /// Slow-request threshold in milliseconds: any request at or over it
    /// has its span tree appended to the slow-trace log. `None` disables
    /// per-request tracing entirely.
    pub slow_ms: Option<u64>,
    /// Where the slow-trace NDJSON log goes. Defaults to the socket path
    /// with a `.slow.ndjson` extension. Ignored unless `slow_ms` is set.
    pub slow_trace: Option<PathBuf>,
    /// Request-handling worker threads in the reactor's pool (0 = one
    /// per CPU). Distinct from `threads`, which sizes each engine's
    /// *segment-encoding* fan-out within one dispatch.
    pub workers: usize,
    /// How long a pending same-grammar compress batch may wait for
    /// company, in microseconds. The reactor flushes early whenever
    /// workers sit idle, so a lone request never pays the window.
    pub batch_window_us: u64,
    /// Connection-table bound; connections beyond it are answered with
    /// an in-band `overloaded` line and closed.
    pub max_connections: usize,
    /// Per-grammar pending-batch bound (and, ×4, the bound on queued
    /// non-compress requests). Overflow is answered `overloaded`.
    pub max_queue: usize,
    /// Resident-engine bound: loading a grammar beyond it evicts the
    /// least-recently-used engine (which reloads on next use).
    pub max_engines: usize,
    /// Server-wide request deadline ceiling in milliseconds. A request's
    /// own `timeout_ms` field is clamped down to this; requests that
    /// declare none inherit it. `None` means no server-imposed deadline
    /// (per-request `timeout_ms` is still honored). Expiry is answered
    /// in-band as `{"ok":false,"error":"deadline_exceeded"}`.
    pub request_timeout_ms: Option<u64>,
    /// Close connections that have been silent (no readable bytes, no
    /// requests in flight) this long, in milliseconds. `None` keeps
    /// idle connections forever.
    pub idle_timeout_ms: Option<u64>,
    /// Per-connection bound on one request line's length in bytes; a
    /// peer that exceeds it is answered in-band and closed.
    pub max_line_bytes: usize,
    /// Size cap on the slow-trace NDJSON log. At the cap the log
    /// rotates once to `<path>.old` (replacing any previous rotation),
    /// so disk usage stays bounded at roughly twice the cap.
    pub slow_trace_max_bytes: u64,
}

/// Default [`ServeConfig::max_line_bytes`]: generous enough for large
/// base64 bytecode images, small enough that one adversarial peer
/// cannot balloon the reactor's memory.
pub const DEFAULT_MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Default [`ServeConfig::slow_trace_max_bytes`].
pub const DEFAULT_SLOW_TRACE_MAX_BYTES: u64 = 64 * 1024 * 1024;

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            registry_root: PathBuf::from("registry"),
            threads: 0,
            recorder: Recorder::new(),
            slow_ms: None,
            slow_trace: None,
            workers: 0,
            batch_window_us: 200,
            max_connections: 1024,
            max_queue: 64,
            max_engines: 64,
            request_timeout_ms: None,
            idle_timeout_ms: None,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            slow_trace_max_bytes: DEFAULT_SLOW_TRACE_MAX_BYTES,
        }
    }
}

/// A failure to stand the server up. Per-request failures are in-band
/// error responses, never this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Binding the Unix socket failed.
    Bind {
        /// The socket path.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// Opening the registry failed.
    Registry(RegistryError),
    /// Opening the slow-trace log failed.
    SlowLog {
        /// The log path.
        path: String,
        /// The OS error text.
        message: String,
    },
    /// The epoll reactor failed to stand up or died on a transport
    /// fault (never a per-request failure).
    Reactor {
        /// The OS error text.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { path, message } => {
                write!(f, "cannot bind socket {path}: {message}")
            }
            ServeError::Registry(_) => write!(f, "cannot open the grammar registry"),
            ServeError::SlowLog { path, message } => {
                write!(f, "cannot open slow-trace log {path}: {message}")
            }
            ServeError::Reactor { message } => {
                write!(f, "serve reactor failed: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Registry(e) => Some(e),
            ServeError::Bind { .. } | ServeError::SlowLog { .. } | ServeError::Reactor { .. } => {
                None
            }
        }
    }
}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> ServeError {
        ServeError::Registry(e)
    }
}

/// One loaded grammar: a compressor — which owns the grammar and its
/// pattern table — that every request for this grammar shares, and the
/// grammar's `<byte>` non-terminal, which `run` requests load with.
/// Dropping an evicted engine frees its grammar.
pub(crate) struct Engine {
    pub(crate) id: GrammarId,
    pub(crate) compressor: Compressor<'static>,
    byte_nt: Nt,
}

impl Engine {
    fn new(
        id: GrammarId,
        file: pgr_grammar::GrammarFile,
        config: CompressorConfig,
        recorder: Recorder,
    ) -> Arc<Engine> {
        Arc::new(Engine {
            id,
            compressor: Compressor::owning(file.grammar, file.start, config, recorder),
            byte_nt: file.byte_nt,
        })
    }

    /// Load a compressed program against this engine's grammar.
    fn vm<'a>(&'a self, program: &'a Program, config: VmConfig) -> Result<Vm<'a>, VmError> {
        Vm::new_compressed(
            program,
            self.compressor.grammar(),
            self.compressor.start(),
            self.byte_nt,
            config,
        )
    }
}

/// How many shards the engine map splits into. Requests hash by grammar
/// id, so multi-tenant load spreads across locks instead of serializing
/// on one.
const ENGINE_SHARD_COUNT: usize = 8;

struct ShardEntry {
    engine: Arc<Engine>,
    /// Global LRU tick at last use.
    last_used: u64,
}

/// The sharded, LRU-bounded engine map.
pub(crate) struct EngineShards {
    shards: Vec<Mutex<HashMap<GrammarId, ShardEntry>>>,
    max_engines: usize,
    /// Monotonic use counter; per-entry `last_used` snapshots order the
    /// LRU scan.
    clock: AtomicU64,
    /// Engines resident across all shards.
    resident: AtomicU64,
}

impl EngineShards {
    fn new(max_engines: usize) -> EngineShards {
        EngineShards {
            shards: (0..ENGINE_SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            max_engines: max_engines.max(1),
            clock: AtomicU64::new(0),
            resident: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, id: &GrammarId) -> &Mutex<HashMap<GrammarId, ShardEntry>> {
        // Grammar ids are SHA-256, so any byte is uniformly distributed.
        &self.shards[id.as_bytes()[0] as usize % self.shards.len()]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up an engine, refreshing its LRU position.
    fn get(&self, id: &GrammarId) -> Option<Arc<Engine>> {
        let mut shard = self.shard_of(id).lock().expect("engine shard lock");
        let entry = shard.get_mut(id)?;
        entry.last_used = self.tick();
        Some(Arc::clone(&entry.engine))
    }

    /// Insert an engine loaded outside the lock, evicting LRU engines
    /// first if the map is at its bound. If a racing loader beat us to
    /// this id, their engine wins (and ours drops) so the map never
    /// double-counts.
    fn insert(&self, engine: Arc<Engine>, recorder: &Recorder) -> Arc<Engine> {
        while self.resident.load(Ordering::Relaxed) >= self.max_engines as u64 {
            if !self.evict_lru(recorder) {
                break;
            }
        }
        let id = engine.id;
        let mut shard = self.shard_of(&id).lock().expect("engine shard lock");
        match shard.entry(id) {
            std::collections::hash_map::Entry::Occupied(mut racing) => {
                racing.get_mut().last_used = self.tick();
                Arc::clone(&racing.get().engine)
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(ShardEntry {
                    engine: Arc::clone(&engine),
                    last_used: self.tick(),
                });
                self.resident.fetch_add(1, Ordering::Relaxed);
                engine
            }
        }
    }

    /// Evict the globally least-recently-used engine. Shards are locked
    /// one at a time (scan, then re-lock the winner), so a concurrent
    /// touch can save an engine — the bound is enforced, strict LRU is
    /// best-effort. Returns whether anything was evicted.
    fn evict_lru(&self, recorder: &Recorder) -> bool {
        let mut oldest: Option<(usize, GrammarId, u64)> = None;
        for (si, shard) in self.shards.iter().enumerate() {
            let shard = shard.lock().expect("engine shard lock");
            for (id, entry) in shard.iter() {
                if oldest.is_none_or(|(_, _, t)| entry.last_used < t) {
                    oldest = Some((si, *id, entry.last_used));
                }
            }
        }
        let Some((si, id, seen)) = oldest else {
            return false;
        };
        let mut shard = self.shards[si].lock().expect("engine shard lock");
        if shard.get(&id).is_some_and(|e| e.last_used == seen) {
            shard.remove(&id);
            self.resident.fetch_sub(1, Ordering::Relaxed);
            recorder.add(names::SERVE_ENGINES_EVICTED, 1);
            true
        } else {
            // Touched (or already gone) since the scan: treat the
            // attempt as progress and let the caller re-check the bound.
            true
        }
    }

    /// Engines currently resident across all shards.
    pub(crate) fn len(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }
}

pub(crate) struct State {
    pub(crate) registry: Registry,
    pub(crate) engines: EngineShards,
    threads: usize,
    pub(crate) recorder: Recorder,
    pub(crate) running: AtomicBool,
    pub(crate) socket: PathBuf,
    /// Server start, the zero point for uptime and the sliding window.
    pub(crate) start: Instant,
    pub(crate) window: Mutex<SlidingWindow>,
    /// Requests accepted but not yet picked up by a worker (batch-held
    /// included); the live value behind `serve.queue.depth`.
    pub(crate) queue_depth: AtomicU64,
    /// Slow-request threshold in micros, when slow tracing is on.
    slow_micros: Option<u64>,
    /// The open slow-trace NDJSON log, when slow tracing is on.
    slow_log: Option<Mutex<SlowLog>>,
    /// Server-wide request deadline ceiling, when one is configured.
    pub(crate) request_timeout_ms: Option<u64>,
}

/// The slow-trace NDJSON log with a size cap and single-generation
/// rotation: at the cap the current file is renamed to `<path>.old`
/// (replacing any previous `.old`) and a fresh file is started, so an
/// unattended server's trace dump never grows past ~2× the cap.
struct SlowLog {
    path: PathBuf,
    file: File,
    /// Bytes appended to the current generation.
    written: u64,
    /// Rotation threshold; 0 disables the cap.
    cap: u64,
}

impl SlowLog {
    fn open(path: PathBuf, cap: u64) -> io::Result<SlowLog> {
        let file = File::options().create(true).append(true).open(&path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(SlowLog {
            path,
            file,
            written,
            cap,
        })
    }

    fn append(&mut self, chunk: &[u8]) {
        // Rotate before a write that would cross the cap — unless the
        // current generation is empty (one oversized record still lands
        // somewhere instead of rotating forever).
        if self.cap > 0 && self.written > 0 && self.written + chunk.len() as u64 > self.cap {
            let mut old = self.path.clone().into_os_string();
            old.push(".old");
            let _ = std::fs::rename(&self.path, &old);
            if let Ok(fresh) = File::options().create(true).append(true).open(&self.path) {
                self.file = fresh;
                self.written = 0;
            }
        }
        if self.file.write_all(chunk).is_ok() {
            self.written += chunk.len() as u64;
        }
        let _ = self.file.flush();
    }
}

/// What one request handler produced: the response under construction
/// ([`respond`] appends the trace id and closes it) and the grammar the
/// request resolved to, for per-grammar window accounting.
type Handled = (ResponseLine, Option<GrammarId>);

/// Render an error with its full `source()` chain, outermost first,
/// joined by `": "`, skipping a cause whose text the rendering so far
/// already ends with (a layer that quotes its source).
fn error_chain(e: &dyn std::error::Error) -> String {
    let mut out = e.to_string();
    let mut cur = e.source();
    while let Some(cause) = cur {
        let text = cause.to_string();
        if !out.ends_with(&text) {
            out.push_str(": ");
            out.push_str(&text);
        }
        cur = cause.source();
    }
    out
}

impl State {
    /// Get (loading and caching if needed) the engine for a grammar id.
    /// The registry read happens outside any shard lock; a racing load
    /// of the same id is resolved by [`EngineShards::insert`].
    fn engine_for(&self, id: GrammarId) -> Result<Arc<Engine>, RegistryError> {
        if let Some(engine) = self.engines.get(&id) {
            return Ok(engine);
        }
        let file = self.registry.load(&id)?;
        let config = CompressorConfig::builder().threads(self.threads).build();
        let engine = Engine::new(id, file, config, self.recorder.clone());
        let engine = self.engines.insert(engine, &self.recorder);
        self.recorder
            .gauge_max(names::SERVE_GRAMMARS_LOADED, self.engines.len());
        Ok(engine)
    }

    /// Resolve the engine for a request: an explicit `"grammar"` field
    /// (full id or prefix) wins; otherwise the image's embedded grammar
    /// id is used.
    fn engine_of_request(
        &self,
        grammar: Option<&str>,
        header_id: Option<GrammarId>,
    ) -> Result<Arc<Engine>, String> {
        let id = match grammar {
            Some(spec) => self.registry.resolve(spec).map_err(|e| error_chain(&e))?,
            None => header_id.ok_or(
                "no \"grammar\" field and the image carries no grammar id; \
                 pass one or re-compress with a registry grammar",
            )?,
        };
        self.engine_for(id).map_err(|e| error_chain(&e))
    }

    /// Retire a request's trace events: always drained (completed
    /// requests must not pool in the shared buffer), dumped to the
    /// slow-trace log only when the request was over threshold.
    fn retire_trace(&self, id: TraceId, op: &str, micros: u64) {
        let Some(log) = &self.slow_log else {
            return;
        };
        let events = self.recorder.drain_trace(id);
        let over = self.slow_micros.is_some_and(|t| micros >= t);
        if !over {
            return;
        }
        self.recorder.add(names::SERVE_SLOW_REQUESTS, 1);
        // Header line, then one line per event — all independently
        // parseable JSON, greppable by trace id.
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str(&format!(
            "{{\"trace\":\"{}\",\"op\":{},\"micros\":{micros},\"events\":{}}}\n",
            id.to_hex(),
            json_string(op),
            events.len(),
        ));
        for event in &events {
            out.push_str(&event.to_ndjson());
            out.push('\n');
        }
        log.lock().expect("slow log lock").append(out.as_bytes());
    }

    /// Clamp a request's declared `timeout_ms` to the server ceiling:
    /// the tighter of the two wins, and a request that declares none
    /// inherits the ceiling.
    pub(crate) fn effective_timeout_ms(&self, requested: Option<u64>) -> Option<u64> {
        match (requested, self.request_timeout_ms) {
            (Some(r), Some(c)) => Some(r.min(c)),
            (Some(r), None) => Some(r),
            (None, ceiling) => ceiling,
        }
    }
}

/// The fixed in-band error token for a request that ran past its
/// deadline. Clients match on it exactly, the same way they match
/// `overloaded`.
pub(crate) const DEADLINE_EXCEEDED: &str = "deadline_exceeded";

/// Fold a compression failure into a response message, collapsing
/// cancellation to the fixed `deadline_exceeded` token.
fn compress_error_message(e: &pgr_core::CompressError) -> String {
    match e {
        pgr_core::CompressError::Cancelled { .. } => DEADLINE_EXCEEDED.to_string(),
        other => error_chain(other),
    }
}

/// Fold a VM failure into a response message, collapsing cancellation
/// to the fixed `deadline_exceeded` token.
fn vm_error_message(e: &VmError) -> String {
    match e {
        VmError::Cancelled { .. } => DEADLINE_EXCEEDED.to_string(),
        other => error_chain(other),
    }
}

/// Pull and decode the request's base64 `"image"` field.
fn image_of(request: &Request) -> Result<(Program, ImageKind, Option<GrammarId>), String> {
    let text = request
        .image
        .as_deref()
        .ok_or("request needs a base64 \"image\" field")?;
    let bytes = base64_decode(text).ok_or("\"image\" is not valid base64")?;
    let (program, kind, raw_id) =
        read_program_tagged(&bytes).map_err(|e| format!("bad image: {}", error_chain(&e)))?;
    Ok((program, kind, raw_id.map(GrammarId::from_raw)))
}

fn handle_decompress(state: &State, request: &Request) -> Result<Handled, String> {
    let (program, kind, header_id) = image_of(request)?;
    if kind == ImageKind::Uncompressed {
        return Err("image is not compressed".into());
    }
    let engine = state.engine_of_request(request.grammar.as_deref(), header_id)?;
    let back = engine
        .compressor
        .decompress(&pgr_core::CompressedProgram { program })
        .map_err(|e| error_chain(&e))?;
    let image = write_program_tagged(&back, ImageKind::Uncompressed, None);
    Ok((
        ResponseLine::ok()
            .str_field("grammar", &engine.id.to_hex())
            .str_field("image", &base64_encode(&image))
            .num_field("bytes", back.code_size() as u64),
        Some(engine.id),
    ))
}

fn handle_run(state: &State, request: &Request, cancel: &CancelToken) -> Result<Handled, String> {
    let (program, kind, header_id) = image_of(request)?;
    let input = match request.input.as_deref() {
        Some(text) => base64_decode(text).ok_or("\"input\" is not valid base64")?,
        None => Vec::new(),
    };
    let config = VmConfig {
        input,
        recorder: state.recorder.clone(),
        cancel: cancel.clone(),
        ..VmConfig::default()
    };
    let (result, grammar, tier2) = match kind {
        ImageKind::Uncompressed => {
            let mut vm = Vm::new(&program, config).map_err(|e| vm_error_message(&e))?;
            let result = vm.run().map_err(|e| vm_error_message(&e))?;
            (result, None, vm.tier2_stats())
        }
        ImageKind::Compressed => {
            let engine = state.engine_of_request(request.grammar.as_deref(), header_id)?;
            let mut vm = engine
                .vm(&program, config)
                .map_err(|e| vm_error_message(&e))?;
            let result = vm.run().map_err(|e| vm_error_message(&e))?;
            (result, Some(engine.id), vm.tier2_stats())
        }
    };
    // Surface the segment programs this request compiled in the
    // sliding stats window, so `pgr top` shows compilation as it happens.
    state
        .window
        .lock()
        .expect("window lock")
        .record_tier2(state.start.elapsed().as_secs(), tier2.compiled);
    Ok((
        ResponseLine::ok()
            .int_field(
                "exit_code",
                i64::from(result.exit_code.unwrap_or_else(|| result.ret.i())),
            )
            .str_field("output", &base64_encode(&result.output))
            .num_field("steps", result.steps),
        grammar,
    ))
}

/// `stats` records its own latency *before* snapshotting, so the
/// response's `serve.request.stats.micros` histogram includes the very
/// request that produced it.
fn handle_stats(state: &State, received: Instant) -> Result<Handled, String> {
    state.recorder.observe(
        names::SERVE_REQUEST_STATS_MICROS,
        received.elapsed().as_micros() as u64,
    );
    let snapshot = state.recorder.snapshot();
    // `Metrics::to_json` pretty-prints across lines; NDJSON framing
    // needs the whole response on one. Metric names and values contain
    // no newlines, so dropping them is safe.
    let compact: String = snapshot.to_json().chars().filter(|c| *c != '\n').collect();
    let now_sec = state.start.elapsed().as_secs();
    let window = state.window.lock().expect("window lock").aggregate(now_sec);
    Ok((
        ResponseLine::ok()
            .raw_field("metrics", &compact)
            .raw_field("window", &window.to_json())
            .num_field("queue_depth", state.queue_depth.load(Ordering::Relaxed))
            .num_field("engines", state.engines.len())
            .num_field("uptime_secs", now_sec),
        None,
    ))
}

/// The in-band error for a handler that panicked.
const INTERNAL_PANIC: &str = "internal panic while handling request";

/// Handle one queued request that is not a `compress` (the reactor
/// batches every one of those; see [`handle_batch`]). Latency runs from
/// `req.received`, so queue wait is part of what the histograms see.
pub(crate) fn handle_single(state: &State, req: PendingRequest) -> Done {
    // The trace id is installed as this thread's trace scope: every span
    // below — the VM thread included, via explicit propagation —
    // attributes to this request.
    let _attribution = trace::scope(req.trace);
    state.recorder.add(names::SERVE_REQUESTS, 1);
    let request = match &req.request {
        Ok(request) => request,
        Err(message) => return respond(state, &req, "", Err(message.clone()), None),
    };
    let op = request.op.name();
    let handled = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let span = format!("serve.{}", if op.is_empty() { "request" } else { op });
        let _op_span = state.recorder.trace_span(&span);
        // A request whose deadline passed while it sat queued fails
        // cheaply here, before any engine or VM work starts. stats and
        // shutdown stay exempt: operators must be able to observe and
        // stop a wedged server.
        if req.cancel.is_cancelled() && matches!(request.op, Op::Decompress | Op::Run) {
            return Err(DEADLINE_EXCEEDED.to_string());
        }
        match &request.op {
            Op::Decompress => handle_decompress(state, request),
            Op::Run => handle_run(state, request, &req.cancel),
            Op::Stats => handle_stats(state, req.received),
            Op::Shutdown => {
                state.running.store(false, Ordering::SeqCst);
                Ok((ResponseLine::ok().bool_field("shutdown", true), None))
            }
            Op::Compress => unreachable!("the reactor batches every compress request"),
            Op::Unknown(other) => Err(format!(
                "unknown op {other:?} (expected compress/decompress/run/stats/shutdown)"
            )),
        }
    }))
    // A panic is this request's failure, not the server's: the guard
    // keeps a handler bug from tearing the connection down.
    .unwrap_or_else(|_| Err(INTERNAL_PANIC.to_string()));
    match handled {
        Ok((line, grammar)) => respond(state, &req, op, Ok(line), grammar),
        Err(message) => respond(state, &req, op, Err(message), None),
    }
}

/// The tail every request shares, batched or not: latency and error
/// counters, the sliding window (attributing the request to `grammar`),
/// the slow-trace log, and the response line addressed to the request's
/// connection slot.
fn respond(
    state: &State,
    req: &PendingRequest,
    op: &str,
    outcome: Result<ResponseLine, String>,
    grammar: Option<GrammarId>,
) -> Done {
    let micros = req.received.elapsed().as_micros() as u64;
    let known_op = SERVE_OPS.contains(&op);
    // stats records itself before snapshotting; the other ops land here.
    if known_op && op != "stats" {
        state
            .recorder
            .observe(&names::serve_request_micros(op), micros);
    }
    let trace_hex = req.trace.to_hex();
    let ok = outcome.is_ok();
    let deadline_hit = outcome.as_ref().is_err_and(|m| m == DEADLINE_EXCEEDED);
    let response = match outcome {
        Ok(line) => line.str_field("trace", &trace_hex).finish(),
        Err(message) => {
            state.recorder.add(names::SERVE_ERRORS, 1);
            if known_op {
                state.recorder.add(&names::serve_request_errors(op), 1);
            }
            if deadline_hit {
                state.recorder.add(names::SERVE_DEADLINE_EXCEEDED, 1);
            }
            ResponseLine::err_traced(&message, &trace_hex, micros)
        }
    };
    // Window accounting: known ops keep their name; everything else
    // (unknown ops, shutdown, unparseable lines) pools under "other" so
    // client typos can't grow the op map without bound.
    let window_op = if known_op { op } else { "other" };
    let grammar_hex = grammar.map(|g| g.to_hex());
    {
        let now_sec = state.start.elapsed().as_secs();
        let mut window = state.window.lock().expect("window lock");
        window.record(now_sec, window_op, grammar_hex.as_deref(), micros, ok);
        if deadline_hit {
            window.record_deadline(now_sec, false);
        }
    }
    state.retire_trace(req.trace, window_op, micros);
    Done {
        conn: req.conn,
        seq: req.seq,
        response,
    }
}

/// Take one distinct batched request as far as the engine: its
/// uncompressed program. Every member that sent it shares the verdict.
fn prepare(request: &Result<Request, String>) -> Result<Program, String> {
    let request = request.as_ref().map_err(String::clone)?;
    let (program, kind, _) = image_of(request)?;
    if kind == ImageKind::Compressed {
        return Err("image is already compressed".into());
    }
    Ok(program)
}

/// Handle one flushed compress batch: one engine dispatch for every
/// *distinct* request, fanned back out to each member.
///
/// Duplicate requests — the common case under closed-loop load, where
/// many clients compress the same artifact — are prepared and
/// compressed once; compression is deterministic, so their responses
/// differ only in trace id. Distinct requests become entries of one
/// [`Compressor::compress_batch`] call, sharing a single parallel
/// stride. Byte-for-byte, every response is identical
/// to what serial per-request dispatch would have produced.
pub(crate) fn handle_batch(state: &State, batch: Batch) -> Vec<Done> {
    // Engine work runs under a batch-level trace id (segment spans can't
    // be attributed to one member of a shared dispatch); each member's
    // response still carries its own per-request id.
    let batch_trace = TraceId::mint();
    let _attribution = trace::scope(batch_trace);
    let batch_sw = Stopwatch::start_if(true);

    // Dispatch-level telemetry: how many requests coalesced, and how
    // long the oldest member waited between arrival and dispatch.
    let size = batch.requests.len() as u64;
    state.recorder.add(names::SERVE_REQUESTS, size);
    let wait_micros = batch
        .requests
        .first()
        .map_or(0, |r| r.received.elapsed().as_micros() as u64);
    state.recorder.observe(names::SERVE_BATCH_SIZE, size);
    state
        .recorder
        .observe(names::SERVE_BATCH_WAIT_MICROS, wait_micros);
    state.window.lock().expect("window lock").record_batch(
        state.start.elapsed().as_secs(),
        size,
        wait_micros,
    );

    // Group identical requests.
    let mut distinct: Vec<&Result<Request, String>> = Vec::new();
    let mut group_of: Vec<usize> = Vec::with_capacity(batch.requests.len());
    {
        let mut index: HashMap<&Result<Request, String>, usize> = HashMap::new();
        for req in &batch.requests {
            let next = distinct.len();
            let g = *index.entry(&req.request).or_insert(next);
            if g == next {
                distinct.push(&req.request);
            }
            group_of.push(g);
        }
    }

    // Resolve the shared grammar once for the whole batch, then take each
    // distinct request as far as the engine: without one, every request
    // that got that far fails with the resolution error.
    let engine = state.engine_of_request(batch.grammar.as_deref(), None);
    let preps: Vec<Result<Program, String>> = distinct
        .iter()
        .map(|request| {
            let prepared = prepare(request)?;
            engine.as_ref().map_err(String::clone)?;
            Ok(prepared)
        })
        .collect();

    // Each distinct request is compressed once for every member that
    // sent it, so one member's short deadline must not kill work a more
    // patient member still wants: the group runs under the most
    // generous member's token (an undeadlined member wins outright).
    let group_cancel = |group: usize| -> CancelToken {
        let mut best: Option<&CancelToken> = None;
        for (req, &g) in batch.requests.iter().zip(&group_of) {
            if g != group {
                continue;
            }
            match req.cancel.remaining() {
                None => return req.cancel.clone(),
                Some(left) => {
                    if best.is_none_or(|b| b.remaining().is_some_and(|br| br < left)) {
                        best = Some(&req.cancel);
                    }
                }
            }
        }
        best.cloned().unwrap_or_else(CancelToken::never)
    };

    // One engine dispatch for everything prepared. Its span must end
    // before the batch trace is retired below, or the end event would
    // outlive the drain: an unpaired begin in the slow-log dump and an
    // orphan event left in the shared trace buffer.
    let op_span = state.recorder.trace_span("serve.compress");
    let mut answers = match &engine {
        Ok(engine) => dispatch(engine, &preps, group_cancel),
        Err(_) => Vec::new(),
    }
    .into_iter();
    let outcomes: Vec<Result<ResponseLine, String>> = preps
        .iter()
        .map(|prep| {
            prep.as_ref().map_err(String::clone)?;
            answers
                .next()
                .unwrap_or_else(|| Err(INTERNAL_PANIC.to_string()))
        })
        .collect();
    drop(op_span);

    // Fan back out: one response per member, through the shared tail.
    let grammar = engine.as_ref().ok().map(|e| e.id);
    let out = batch
        .requests
        .iter()
        .zip(&group_of)
        .map(|(req, &group)| respond(state, req, "compress", outcomes[group].clone(), grammar))
        .collect();
    // Retire the batch-level trace (engine spans accumulated here); it
    // reports to the slow log under the whole dispatch's elapsed time.
    state.retire_trace(
        batch_trace,
        "compress.batch",
        batch_sw.elapsed().as_micros() as u64,
    );
    out
}

/// Compress every prepared group of a batch in one engine dispatch,
/// answering each in group order; `cancel_of` gives a group's token.
fn dispatch(
    engine: &Engine,
    preps: &[Result<Program, String>],
    cancel_of: impl Fn(usize) -> CancelToken,
) -> Vec<Result<ResponseLine, String>> {
    let ready: Vec<(usize, &Program)> = preps
        .iter()
        .enumerate()
        .filter_map(|(group, prep)| Some((group, prep.as_ref().ok()?)))
        .collect();
    if ready.is_empty() {
        return Vec::new();
    }
    let entries: Vec<BatchEntry<'_>> = ready
        .iter()
        .map(|&(group, program)| BatchEntry {
            program,
            cancel: cancel_of(group),
        })
        .collect();
    let Ok(results) = std::panic::catch_unwind(AssertUnwindSafe(|| {
        engine.compressor.compress_batch(&entries)
    })) else {
        return vec![Err(INTERNAL_PANIC.to_string()); ready.len()];
    };
    results
        .into_iter()
        .map(|result| {
            let (cp, stats) = result.map_err(|e| compress_error_message(&e))?;
            let image = write_program_tagged(
                &cp.program,
                ImageKind::Compressed,
                Some(engine.id.as_bytes()),
            );
            Ok(ResponseLine::ok()
                .str_field("grammar", &engine.id.to_hex())
                .str_field("image", &base64_encode(&image))
                .num_field("original_bytes", stats.original_code as u64)
                .num_field("compressed_bytes", stats.compressed_code as u64)
                .num_field("fallback_segments", stats.fallback_segments as u64))
        })
        .collect()
}

/// A bound, not-yet-running request server.
pub struct Server {
    listener: UnixListener,
    workers: usize,
    batch_window_us: u64,
    max_connections: usize,
    max_queue: usize,
    idle_timeout_ms: Option<u64>,
    max_line_bytes: usize,
    state: Arc<State>,
}

impl Server {
    /// Bind `socket` (removing any stale socket file first), open the
    /// registry, and pre-register the serve metric names — every
    /// `serve.request.<op>.micros` histogram and `.errors` counter shows
    /// up in `stats` (quantiles and all) from the first response, not
    /// after the first request of each kind.
    ///
    /// # Errors
    ///
    /// [`ServeError::Bind`] / [`ServeError::Registry`] /
    /// [`ServeError::SlowLog`].
    pub fn bind(socket: impl AsRef<Path>, config: ServeConfig) -> Result<Server, ServeError> {
        let socket = socket.as_ref().to_path_buf();
        let registry = Registry::open(&config.registry_root)?;
        if socket.exists() {
            let _ = std::fs::remove_file(&socket);
        }
        let listener = UnixListener::bind(&socket).map_err(|e| ServeError::Bind {
            path: socket.display().to_string(),
            message: e.to_string(),
        })?;

        let mut pre = Metrics::new();
        for counter in [
            names::SERVE_CONNECTIONS,
            names::SERVE_REQUESTS,
            names::SERVE_ERRORS,
            names::SERVE_SLOW_REQUESTS,
            names::SERVE_REJECTED_OVERLOAD,
            names::SERVE_ENGINES_EVICTED,
            names::SERVE_DEADLINE_EXCEEDED,
            names::SERVE_DEADLINE_FORCE_EXPIRED,
            names::SERVE_CONN_IDLE_CLOSED,
            names::SERVE_LINE_OVERFLOW,
        ] {
            pre.add(counter, 0);
        }
        pre.gauge_max(names::SERVE_QUEUE_DEPTH, 0);
        pre.ensure_hist(names::SERVE_BATCH_SIZE);
        pre.ensure_hist(names::SERVE_BATCH_WAIT_MICROS);
        for op in SERVE_OPS {
            pre.ensure_hist(names::serve_request_micros(op));
            pre.add(names::serve_request_errors(op), 0);
        }
        config.recorder.record(pre);

        let slow_log = match config.slow_ms {
            Some(_) => {
                // Per-request tracing rides on the metrics recorder; the
                // buffer is drained request-by-request, so capacity only
                // bounds concurrent in-flight spans.
                config.recorder.enable_tracing(DEFAULT_TRACE_CAPACITY);
                let path = config
                    .slow_trace
                    .clone()
                    .unwrap_or_else(|| socket.with_extension("slow.ndjson"));
                let log =
                    SlowLog::open(path.clone(), config.slow_trace_max_bytes).map_err(|e| {
                        ServeError::SlowLog {
                            path: path.display().to_string(),
                            message: e.to_string(),
                        }
                    })?;
                Some(Mutex::new(log))
            }
            None => None,
        };

        Ok(Server {
            listener,
            workers: config.workers,
            batch_window_us: config.batch_window_us,
            max_connections: config.max_connections,
            max_queue: config.max_queue,
            idle_timeout_ms: config.idle_timeout_ms,
            max_line_bytes: config.max_line_bytes,
            state: Arc::new(State {
                registry,
                engines: EngineShards::new(config.max_engines),
                threads: config.threads,
                recorder: config.recorder,
                running: AtomicBool::new(true),
                socket,
                start: Instant::now(),
                window: Mutex::new(SlidingWindow::new(DEFAULT_WINDOW_SECS)),
                queue_depth: AtomicU64::new(0),
                slow_micros: config.slow_ms.map(|ms| ms.saturating_mul(1000)),
                slow_log,
                request_timeout_ms: config.request_timeout_ms,
            }),
        })
    }

    /// The socket path the server is listening on.
    pub fn socket(&self) -> &Path {
        &self.state.socket
    }

    /// Serve until a `shutdown` request arrives, then drain in-flight
    /// work, remove the socket file, and return.
    ///
    /// # Errors
    ///
    /// [`ServeError::Reactor`] when the event loop hits an
    /// unrecoverable I/O error (epoll or eventfd setup, listener
    /// registration).
    pub fn run(self) -> Result<(), ServeError> {
        let cfg = crate::reactor::ReactorConfig {
            workers: self.workers,
            batch_window: Duration::from_micros(self.batch_window_us.max(1)),
            max_connections: self.max_connections,
            max_queue: self.max_queue,
            idle_timeout: self.idle_timeout_ms.map(Duration::from_millis),
            max_line_bytes: self.max_line_bytes,
        };
        let result = crate::reactor::run(Arc::clone(&self.state), self.listener, cfg);
        let _ = std::fs::remove_file(&self.state.socket);
        result.map_err(|e| ServeError::Reactor {
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_grammar::{GrammarFile, InitialGrammar};
    use std::sync::Weak;

    fn sample_file() -> GrammarFile {
        let ig = InitialGrammar::build();
        GrammarFile::new(ig.grammar, ig.nt_start, ig.nt_byte)
    }

    fn engine(first_byte: u8, recorder: &Recorder) -> Arc<Engine> {
        let mut raw = [0u8; crate::id::ID_LEN];
        raw[0] = first_byte;
        Engine::new(
            GrammarId::from_raw(raw),
            sample_file(),
            CompressorConfig::builder().threads(1).build(),
            recorder.clone(),
        )
    }

    #[test]
    fn engine_shards_evict_lru_at_bound_and_drop_cleanly() {
        let recorder = Recorder::new();
        let shards = EngineShards::new(2);
        let a = shards.insert(engine(1, &recorder), &recorder);
        let weak_a: Weak<Engine> = Arc::downgrade(&a);
        let id_a = a.id;
        drop(a);
        let id_b = shards.insert(engine(2, &recorder), &recorder).id;
        assert_eq!(shards.len(), 2);

        // Touch A so B is the least-recently-used entry at the bound.
        assert!(shards.get(&id_a).is_some());
        let id_c = shards.insert(engine(3, &recorder), &recorder).id;
        assert_eq!(shards.len(), 2, "resident bound holds");
        assert!(shards.get(&id_b).is_none(), "LRU engine was evicted");
        assert!(shards.get(&id_a).is_some(), "recently-used engine survives");
        assert!(shards.get(&id_c).is_some(), "new engine is resident");
        assert_eq!(recorder.snapshot().counter(names::SERVE_ENGINES_EVICTED), 1);

        // Leak regression: before eviction existed, every engine's
        // grammar was `Box::leak`ed and lived until process exit. Evict
        // A (C is fresher) and prove its memory is actually released.
        assert!(shards.get(&id_c).is_some());
        let _d = shards.insert(engine(4, &recorder), &recorder);
        assert!(shards.get(&id_a).is_none());
        assert!(
            weak_a.upgrade().is_none(),
            "evicted engine must drop, grammar and compressor included"
        );
    }

    #[test]
    fn batch_trace_events_are_drained_when_the_batch_retires() {
        // Slow tracing at threshold 0: every batch dumps its trace. Each
        // dump must pair every begin with an end, and nothing may stay
        // behind in the shared buffer once the batches have retired.
        let dir = std::env::temp_dir().join(format!("pgr-batch-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let registry = Registry::open(dir.join("reg")).unwrap();
        let id_hex = registry
            .store(&sample_file(), "batch trace")
            .unwrap()
            .id
            .to_hex();
        let recorder = Recorder::new();
        let slow_log = dir.join("slow.ndjson");
        let server = Server::bind(
            dir.join("pgr.sock"),
            ServeConfig {
                registry_root: dir.join("reg"),
                recorder: recorder.clone(),
                threads: 1,
                slow_ms: Some(0),
                slow_trace: Some(slow_log.clone()),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let program =
            pgr_bytecode::asm::assemble("proc main frame=0 args=0\n\tRETV\nendproc\nentry main\n")
                .unwrap();
        let image = base64_encode(&pgr_bytecode::write_program(
            &program,
            ImageKind::Uncompressed,
        ));
        let line = format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{image}"}}"#);
        for seq in 0..4 {
            let batch = Batch {
                grammar: Some(id_hex.clone()),
                requests: vec![PendingRequest {
                    conn: 0,
                    seq,
                    request: Request::parse(&line),
                    received: Instant::now(),
                    trace: TraceId::mint(),
                    cancel: CancelToken::never(),
                }],
            };
            let done = handle_batch(&server.state, batch);
            assert!(
                done[0].response.contains(r#""ok":true"#),
                "{}",
                done[0].response
            );
        }

        let left = recorder.take_trace().events;
        assert!(left.is_empty(), "events outlived their batch: {left:?}");
        let log = std::fs::read_to_string(&slow_log).unwrap();
        let count = |needle: &str| log.matches(needle).count();
        assert_eq!(count(r#""op":"compress.batch""#), 4, "one dump per batch");
        assert_eq!(
            count(r#""ph":"B""#),
            count(r#""ph":"E""#),
            "unpaired span in the slow log:\n{log}"
        );
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn served_errors_print_each_cause_once() {
        // `DecompressError::Derivation` quotes its `DerivationError`
        // source, so the served string states it once.
        let e = pgr_core::DecompressError::Derivation {
            proc: "main".into(),
            error: pgr_grammar::derivation::DerivationError::BadRuleIndex {
                step: 3,
                nt: pgr_grammar::Nt(2),
                index: 10,
            },
        };
        assert_eq!(error_chain(&e), "main: step 3: N2 has no rule 10");
        // A layer that does not quote its source keeps the cause.
        let e = RegistryError::Codec(pgr_grammar::GrammarFileError::NotAGrammarFile);
        assert_eq!(
            error_chain(&e),
            "stored grammar failed to decode: not a PGRG grammar file"
        );
    }

    #[test]
    fn racing_inserts_of_one_id_share_an_engine() {
        let recorder = Recorder::new();
        let shards = EngineShards::new(4);
        let first = shards.insert(engine(9, &recorder), &recorder);
        let second = shards.insert(engine(9, &recorder), &recorder);
        assert!(Arc::ptr_eq(&first, &second), "existing entry wins the race");
        assert_eq!(shards.len(), 1);
    }
}
