//! The reusable compression engine.
//!
//! [`Compressor`] owns everything that is expensive to build and cheap to
//! share: the [`Tiler`] (whose pattern table costs a parse of every
//! rule) and the rule-index map used to serialize derivations. Construct
//! it once per trained grammar and reuse it across many programs — the
//! paper's pipeline compresses whole corpora under one grammar. Like the
//! paper (§4.1), the engine encodes each segment as its own shortest
//! derivation and keeps no memo, so a compress is a pure function of the
//! grammar and the program: nothing of one input stays behind for the
//! next.
//!
//! Within one [`Compressor::compress`] call the per-segment tilings are
//! independent, so they fan out across a small worker pool
//! ([`CompressorConfig::threads`]); results are reassembled in segment
//! order, which makes the output **byte-identical for every thread count**
//! (the integration tests assert this). Statistics are computed per
//! segment and combined with [`CompressionStats::merge`] — a commutative
//! monoid fold — instead of threading a `&mut` accumulator through the
//! pipeline.
//!
//! Two hot-path mechanics keep the fan-out cheap. Each worker owns one
//! [`TileScratch`] for its whole stint, so tiling scratch is allocated
//! once per worker and merely cleared between segments. And segments are
//! dispatched in contiguous *batches* of roughly
//! [`CompressorConfig::batch_bytes`] input bytes: bytecode corpora are
//! dominated by 3–15-byte statements, and batching amortizes the per-job
//! bookkeeping over many of them while still spreading long procedures
//! across the pool (batches are strided, results are keyed by job index,
//! so the output bytes never depend on either knob).
//!
//! The worker pool is scoped `std::thread` fan-out rather than a rayon
//! dependency: the build environment vendors no external crates, and the
//! strided batch split below gives the same determinism guarantees.

use crate::canonical::canonicalize_program;
use crate::compress::{decompress_program, CompressError, CompressedProgram, CompressionStats};
use crate::tile::{NoParse, TileScratch, Tiler};
use pgr_bytecode::{escape, instrs, Opcode, Procedure, Program};
use pgr_grammar::initial::tokenize_segment;
use pgr_grammar::{Grammar, Nt};
use pgr_telemetry::faults::{self, FaultPoint};
use pgr_telemetry::{names, trace, CancelToken, Metrics, Recorder, Stopwatch};
use std::borrow::Cow;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Wall-clock cost of each compression phase, surfaced on
/// [`CompressionStats`] when the engine carries an enabled [`Recorder`]
/// (all zero otherwise, so default-config stats stay comparable across
/// runs). This struct is the compatibility view of the `compress.*`
/// timing spans the recorder collects; the clock behind both is
/// [`Stopwatch`], which never reads the monotonic clock unless something
/// is observing.
///
/// `tokenize` and `parse` are summed across worker threads, so with
/// `threads > 1` they measure aggregate CPU time, not elapsed time;
/// `canonicalize` and `emit` run on the calling thread and are elapsed
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimings {
    /// Canonicalization of the input program.
    pub canonicalize: Duration,
    /// Byte-stream → terminal-token conversion, per segment.
    pub tokenize: Duration,
    /// Shortest-derivation search, by tiling (the hot phase).
    pub parse: Duration,
    /// Stream assembly and label-table rewriting.
    pub emit: Duration,
}

impl PhaseTimings {
    /// Componentwise sum (the merge used by the stats monoid).
    pub fn merge(self, other: PhaseTimings) -> PhaseTimings {
        PhaseTimings {
            canonicalize: self.canonicalize + other.canonicalize,
            tokenize: self.tokenize + other.tokenize,
            parse: self.parse + other.parse,
            emit: self.emit + other.emit,
        }
    }
}

/// Tuning knobs for [`Compressor`]. Acts as its builder:
///
/// ```
/// use pgr_core::CompressorConfig;
/// let config = CompressorConfig::default()
///     .threads(2)
///     .fallback(false);
/// assert_eq!(config.threads, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressorConfig {
    /// Worker threads for segment encoding. `0` means one per available
    /// CPU; `1` disables fan-out entirely (no threads are spawned).
    pub threads: usize,
    /// Approximate input bytes per dispatch batch: contiguous segments
    /// are grouped until their byte lengths reach this, and workers claim
    /// whole batches. `0` dispatches per segment. Never affects output
    /// bytes, only scheduling granularity.
    pub batch_bytes: usize,
    /// Degrade gracefully on segments that do not tokenize or have no
    /// derivation (see [`NoParse`]) by emitting the segment as a verbatim
    /// escape (`pgr_bytecode::escape`) instead of failing the whole
    /// program.
    /// On by default; disable for strict, fail-fast behavior
    /// (`pgr compress --no-fallback`).
    pub fallback: bool,
}

impl Default for CompressorConfig {
    fn default() -> CompressorConfig {
        CompressorConfig {
            threads: 0,
            batch_bytes: 1024,
            fallback: true,
        }
    }
}

/// Staged construction of a [`CompressorConfig`].
///
/// The builder exists so embedders that assemble a config from many
/// sources (CLI flags, service admission policy, per-tenant overrides)
/// have one place to do it, and so future knobs can grow validation
/// without breaking the chainable-field style:
///
/// ```
/// use pgr_core::CompressorConfig;
/// let config = CompressorConfig::builder()
///     .threads(2)
///     .batch_bytes(512)
///     .fallback(false)
///     .build();
/// assert_eq!(config.threads, 2);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CompressorConfigBuilder {
    config: CompressorConfig,
}

impl CompressorConfigBuilder {
    /// Set the worker-thread count (`0` = one per available CPU).
    pub fn threads(mut self, threads: usize) -> CompressorConfigBuilder {
        self.config.threads = threads;
        self
    }

    /// Does nothing: the engine keeps no derivation cache. Kept only
    /// until the next benchmark-only change, because `perfbench` still
    /// calls it.
    #[doc(hidden)]
    pub fn segment_cache_capacity(self, _capacity: usize) -> CompressorConfigBuilder {
        self
    }

    /// Set the dispatch-batch size in input bytes (`0` = per segment).
    pub fn batch_bytes(mut self, bytes: usize) -> CompressorConfigBuilder {
        self.config.batch_bytes = bytes;
        self
    }

    /// Enable or disable verbatim-escape fallback on parse failures.
    pub fn fallback(mut self, fallback: bool) -> CompressorConfigBuilder {
        self.config.fallback = fallback;
        self
    }

    /// Finish, yielding the configured [`CompressorConfig`].
    pub fn build(self) -> CompressorConfig {
        self.config
    }
}

impl CompressorConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> CompressorConfigBuilder {
        CompressorConfigBuilder::default()
    }

    /// Set the worker-thread count (`0` = one per available CPU).
    pub fn threads(mut self, threads: usize) -> CompressorConfig {
        self.threads = threads;
        self
    }

    /// Set the dispatch-batch size in input bytes (`0` = per segment).
    pub fn batch_bytes(mut self, bytes: usize) -> CompressorConfig {
        self.batch_bytes = bytes;
        self
    }

    /// Enable or disable verbatim-escape fallback on parse failures.
    pub fn fallback(mut self, fallback: bool) -> CompressorConfig {
        self.fallback = fallback;
        self
    }
}

/// Always zero: the engine keeps no derivation cache. Kept only until
/// the next benchmark-only change, because `perfbench` still reads it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub misses: u64,
}

/// One unit of parallel work: a straight-line segment of one procedure.
struct Job {
    proc: usize,
    range: Range<usize>,
}

/// How a procedure's compressed stream is assembled: segments and label
/// markers in code order.
enum Event {
    /// Append the derivation bytes of this job.
    Segment(usize),
    /// A `LABELV` at this original offset: record the current output
    /// length as its compressed offset.
    Label(usize),
}

/// Plan one canonical program: one job per non-empty straight-line
/// segment, and per procedure the assembly script whose
/// [`Event::Segment`] indices address those jobs.
fn plan_jobs(canon: &Program) -> (Vec<Job>, Vec<Vec<Event>>) {
    let mut jobs = Vec::new();
    let mut scripts: Vec<Vec<Event>> = Vec::with_capacity(canon.procs.len());
    for (pi, proc) in canon.procs.iter().enumerate() {
        let mut script = Vec::new();
        let mut seg_start = 0usize;
        for insn in instrs(&proc.code) {
            let insn = insn.expect("canonical code decodes");
            if insn.opcode == Opcode::LABELV {
                if insn.offset > seg_start {
                    script.push(Event::Segment(jobs.len()));
                    jobs.push(Job {
                        proc: pi,
                        range: seg_start..insn.offset,
                    });
                }
                script.push(Event::Label(insn.offset));
                seg_start = insn.offset + 1;
            }
        }
        if proc.code.len() > seg_start {
            script.push(Event::Segment(jobs.len()));
            jobs.push(Job {
                proc: pi,
                range: seg_start..proc.code.len(),
            });
        }
        scripts.push(script);
    }
    (jobs, scripts)
}

/// The product of one encoded segment.
struct EncodedSegment {
    bytes: Vec<u8>,
    /// Whether the segment was emitted as a verbatim escape rather than
    /// a derivation (parse failure + fallback).
    fallback: bool,
    tokenize: Duration,
    parse: Duration,
}

/// A reusable compression engine over one expanded grammar.
///
/// See the [module docs](self) for the design; see
/// [`Trained::compressor`](crate::pipeline::Trained::compressor) for the
/// usual way to obtain one. The engine either borrows its grammar or,
/// built with [`Compressor::owning`], owns it outright — the form a
/// long-lived engine that outlives its loader needs.
pub struct Compressor<'g> {
    grammar: Cow<'g, Grammar>,
    start: Nt,
    tiler: Tiler,
    index_map: Vec<usize>,
    threads: usize,
    batch_bytes: usize,
    fallback: bool,
    /// Whether the grammar left rule index `0xFF` of the start
    /// non-terminal unassigned, making the verbatim marker unambiguous.
    verbatim_ok: bool,
    recorder: Recorder,
}

impl<'g> Compressor<'g> {
    /// Build an engine with the default [`CompressorConfig`].
    pub fn new(grammar: &'g Grammar, start: Nt) -> Compressor<'g> {
        Compressor::with_config(grammar, start, CompressorConfig::default())
    }

    /// Build an engine with explicit configuration.
    pub fn with_config(
        grammar: &'g Grammar,
        start: Nt,
        config: CompressorConfig,
    ) -> Compressor<'g> {
        Compressor::with_recorder(grammar, start, config, Recorder::disabled())
    }

    /// Build an engine that reports `compress.*` counters and spans, and
    /// (via the embedded tiler) the `tiler.*` counters, into `recorder`.
    ///
    /// # Panics
    ///
    /// Panics, naming the rule, if `grammar` is not one the tiler can
    /// use (see [`Tiler::new`]).
    pub fn with_recorder(
        grammar: &'g Grammar,
        start: Nt,
        config: CompressorConfig,
        recorder: Recorder,
    ) -> Compressor<'g> {
        Compressor::build(Cow::Borrowed(grammar), start, config, recorder)
    }

    /// Like [`Compressor::with_recorder`], but the engine takes ownership
    /// of `grammar`, so it borrows from nothing and lives as long as its
    /// owner keeps it. Output is byte-identical to a borrowing engine's.
    pub fn owning(
        grammar: Grammar,
        start: Nt,
        config: CompressorConfig,
        recorder: Recorder,
    ) -> Compressor<'g> {
        Compressor::build(Cow::Owned(grammar), start, config, recorder)
    }

    fn build(
        grammar: Cow<'g, Grammar>,
        start: Nt,
        config: CompressorConfig,
        recorder: Recorder,
    ) -> Compressor<'g> {
        let threads = match config.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        Compressor {
            start,
            tiler: Tiler::with_recorder(&grammar, start, recorder.clone()),
            index_map: grammar.rule_index_map(),
            threads,
            batch_bytes: config.batch_bytes,
            fallback: config.fallback,
            verbatim_ok: grammar.rules_of(start).len() <= usize::from(escape::VERBATIM_MARKER),
            grammar,
            recorder,
        }
    }

    /// The telemetry handle this engine reports into (the shared disabled
    /// recorder unless built via [`Compressor::with_recorder`]).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Whether phase timing is being observed, by an enabled recorder.
    /// All `Instant::now` reads in the engine gate on this, so an engine
    /// with the disabled recorder never touches the clock.
    fn timings_on(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// The grammar this engine encodes against.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// The start non-terminal.
    pub fn start(&self) -> Nt {
        self.start
    }

    /// The resolved worker-thread count (never 0).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns zeros: the engine keeps no derivation cache. Kept only
    /// until the next benchmark-only change, because `perfbench` still
    /// reads it.
    #[doc(hidden)]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Compress a program under the engine's grammar: the same as
    /// [`Compressor::compress_cancellable`] with a token that never
    /// fires.
    ///
    /// The program is canonicalized first (see [`crate::canonical`]); the
    /// returned stats measure against the canonical form. Output is
    /// byte-identical for every `threads` setting.
    ///
    /// # Errors
    ///
    /// See [`CompressError`].
    pub fn compress(
        &self,
        program: &Program,
    ) -> Result<(CompressedProgram, CompressionStats), CompressError> {
        self.compress_cancellable(program, &CancelToken::never())
    }

    /// Compress a program under `cancel`, the owner's cancellation
    /// handle: the serving path's entry point. Output is byte-identical
    /// to [`Compressor::compress`]'s.
    ///
    /// The token is polled before canonicalizing, at segment boundaries
    /// and (inside the tiler) every few thousand tokens while a
    /// segment's tree is built and every few dozen tree nodes while it
    /// is tiled; a fired token yields [`CompressError::Cancelled`].
    /// Cancellation never degrades to verbatim fallback: the owner asked
    /// for the work to stop.
    ///
    /// # Errors
    ///
    /// See [`CompressError`].
    pub fn compress_cancellable(
        &self,
        program: &Program,
        cancel: &CancelToken,
    ) -> Result<(CompressedProgram, CompressionStats), CompressError> {
        // A token that fired before the call (a deadline that passed
        // while the request was queued) stops it before canonicalizing:
        // the cheapest cancellation point.
        if cancel.is_cancelled() {
            return Err(CompressError::Cancelled {
                elapsed_ms: cancel.elapsed_ms(),
            });
        }
        let timed = self.timings_on();
        let trace_canon = self.recorder.trace_span(names::SPAN_COMPRESS_CANONICALIZE);
        let sw = Stopwatch::start_if(timed);
        let canon = canonicalize_program(program)?;
        let canonicalize_time = sw.elapsed();
        drop(trace_canon);

        // Plan, then encode: fan the segments out across the worker
        // pool. Every job runs; the first failure in job (= code) order
        // is the one reported.
        let (jobs, scripts) = plan_jobs(&canon);
        let trace_encode = self.recorder.trace_span("compress.encode");
        let encoded = self.run_jobs(&canon, &jobs, cancel);
        drop(trace_encode);
        let encoded = encoded.into_iter().collect::<Result<Vec<_>, _>>()?;

        Ok(self.emit(canon, &scripts, &encoded, canonicalize_time, timed))
    }

    /// Reassemble procedures in order from their encoded segments,
    /// rewriting label tables to compressed-stream offsets (§3), and
    /// record the call's telemetry.
    fn emit(
        &self,
        canon: Program,
        scripts: &[Vec<Event>],
        encoded: &[EncodedSegment],
        canonicalize_time: Duration,
        timed: bool,
    ) -> (CompressedProgram, CompressionStats) {
        let trace_emit = self.recorder.trace_span(names::SPAN_COMPRESS_EMIT);
        let sw = Stopwatch::start_if(timed);
        let mut stats = CompressionStats::default();
        let mut out = canon.clone();
        for (pi, proc) in canon.procs.iter().enumerate() {
            let mut code = Vec::new();
            let mut label_map: Vec<(usize, u32)> = Vec::new();
            let mut proc_stats = CompressionStats {
                original_code: proc.code.len(),
                ..CompressionStats::default()
            };
            for event in &scripts[pi] {
                match *event {
                    Event::Segment(job) => {
                        let seg = &encoded[job];
                        code.extend_from_slice(&seg.bytes);
                        proc_stats = proc_stats.merge(CompressionStats {
                            segments: 1,
                            fallback_segments: usize::from(seg.fallback),
                            timings: PhaseTimings {
                                tokenize: seg.tokenize,
                                parse: seg.parse,
                                ..PhaseTimings::default()
                            },
                            ..CompressionStats::default()
                        });
                    }
                    Event::Label(offset) => label_map.push((offset, code.len() as u32)),
                }
            }
            let labels = proc
                .labels
                .iter()
                .map(|&old| {
                    label_map
                        .iter()
                        .find(|&&(o, _)| o == old as usize)
                        .map(|&(_, n)| n)
                        .expect("canonical labels point at markers")
                })
                .collect();
            proc_stats.compressed_code = code.len();
            stats = stats.merge(proc_stats);
            out.procs[pi] = Procedure {
                name: proc.name.clone(),
                frame_size: proc.frame_size,
                arg_size: proc.arg_size,
                code,
                labels,
                needs_trampoline: proc.needs_trampoline,
            };
        }
        stats.timings.canonicalize = canonicalize_time;
        stats.timings.emit = sw.elapsed();
        drop(trace_emit);

        if self.recorder.is_enabled() {
            let mut batch = Metrics::new();
            batch.add(names::COMPRESS_CALLS, 1);
            batch.add(names::COMPRESS_SEGMENTS, stats.segments as u64);
            batch.add(names::COMPRESS_ORIGINAL_BYTES, stats.original_code as u64);
            batch.add(
                names::COMPRESS_COMPRESSED_BYTES,
                stats.compressed_code as u64,
            );
            // Pinned by the metrics schema: always emitted, zero or not,
            // so schema validation sees the keys on every compress run.
            batch.add(
                names::COMPRESS_FALLBACK_SEGMENTS,
                stats.fallback_segments as u64,
            );
            // The worker phases are measured per segment on worker
            // threads and summed, so they land here as direct span
            // records rather than thread-local span guards.
            batch.record_span(
                names::SPAN_COMPRESS_CANONICALIZE,
                stats.timings.canonicalize,
            );
            batch.record_span(names::SPAN_COMPRESS_TOKENIZE, stats.timings.tokenize);
            batch.record_span(names::SPAN_COMPRESS_PARSE, stats.timings.parse);
            batch.record_span(names::SPAN_COMPRESS_EMIT, stats.timings.emit);
            self.recorder.record(batch);
        }

        (CompressedProgram { program: out }, stats)
    }

    /// Decompress a program compressed under this engine's grammar (the
    /// exact inverse of [`Compressor::compress`] on canonical inputs).
    ///
    /// # Errors
    ///
    /// See [`crate::compress::DecompressError`].
    pub fn decompress(
        &self,
        compressed: &CompressedProgram,
    ) -> Result<Program, crate::compress::DecompressError> {
        decompress_program(&self.grammar, self.start, compressed)
    }

    /// Run all jobs, preserving job-index order in the result.
    ///
    /// Jobs are grouped into contiguous batches of roughly
    /// [`CompressorConfig::batch_bytes`] input bytes; each worker claims
    /// batches in a stride (worker `w` takes batches `w`, `w + T`, …, so
    /// long procedures still spread across the pool) and reuses one
    /// [`TileScratch`] for everything it encodes.
    fn run_jobs(
        &self,
        canon: &Program,
        jobs: &[Job],
        cancel: &CancelToken,
    ) -> Vec<Result<EncodedSegment, CompressError>> {
        let encode = |scratch: &mut TileScratch, job: &Job| {
            self.encode_segment_isolated(scratch, &canon.procs[job.proc], job.range.clone(), cancel)
        };
        let threads = self.threads.min(jobs.len()).max(1);
        if threads == 1 {
            let mut scratch = TileScratch::new();
            return jobs.iter().map(|job| encode(&mut scratch, job)).collect();
        }
        let batches = plan_batches(jobs, self.batch_bytes);
        // Thread-locals don't cross `thread::scope`: capture the calling
        // thread's trace attribution and fault plan and re-install them in
        // each worker, so worker-lane events still carry the request's
        // trace id and a test's injected faults reach its workers only.
        let trace_ctx = trace::current();
        let fault_ctx = &faults::current();
        let mut slots: Vec<Option<Result<EncodedSegment, CompressError>>> =
            (0..jobs.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let batches = &batches;
            let encode = &encode;
            let workers: Vec<_> = (0..threads)
                .map(|w| {
                    scope.spawn(move || {
                        let _trace = trace::scope_raw(trace_ctx);
                        let _faults = faults::scope(fault_ctx.clone());
                        let mut scratch = TileScratch::new();
                        let mut done = Vec::new();
                        let mut b = w;
                        while b < batches.len() {
                            for i in batches[b].clone() {
                                done.push((i, encode(&mut scratch, &jobs[i])));
                            }
                            b += threads;
                        }
                        done
                    })
                })
                .collect();
            for worker in workers {
                for (i, result) in worker.join().expect("encoder worker panicked") {
                    slots[i] = Some(result);
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every job ran"))
            .collect()
    }

    /// Isolate one segment's encoding behind `catch_unwind`: a panic
    /// (a tiler bug, or the injected [`FaultPoint::Encode`] fault in the
    /// test harness) surfaces as a structured [`CompressError::WorkerPanic`]
    /// for that segment while every other segment — including the rest
    /// of this worker's batch stride — still encodes normally.
    fn encode_segment_isolated(
        &self,
        scratch: &mut TileScratch,
        proc: &Procedure,
        range: Range<usize>,
        cancel: &CancelToken,
    ) -> Result<EncodedSegment, CompressError> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            self.encode_segment(scratch, proc, range.clone(), cancel)
        }));
        attempt.unwrap_or_else(|payload| {
            Err(CompressError::WorkerPanic {
                proc: proc.name.clone(),
                segment_offset: range.start,
                message: panic_message(payload.as_ref()),
            })
        })
    }

    /// The graceful-degradation path: encode `raw` as a verbatim escape,
    /// or propagate `err` when fallback is disabled, the grammar kept no
    /// escape index, or the segment exceeds the escape's length field.
    fn fall_back(&self, raw: &[u8], err: CompressError) -> Result<Vec<u8>, CompressError> {
        if !self.fallback || !self.verbatim_ok {
            return Err(err);
        }
        escape::encode_verbatim(raw).ok_or(err)
    }

    /// Tokenize and encode one segment.
    fn encode_segment(
        &self,
        scratch: &mut TileScratch,
        proc: &Procedure,
        range: Range<usize>,
        cancel: &CancelToken,
    ) -> Result<EncodedSegment, CompressError> {
        // The segment boundary is the coarse cancellation point: a fired
        // deadline stops the compress before the next tokenize/parse.
        if cancel.is_cancelled() {
            return Err(CompressError::Cancelled {
                elapsed_ms: cancel.elapsed_ms(),
            });
        }
        // One enabled check per segment; workers never read the clock
        // unless someone is observing.
        let timed = self.timings_on();
        let raw = &proc.code[range.clone()];
        let _trace_seg = self.recorder.trace_span("compress.segment");

        let trace_tok = self.recorder.trace_span(names::SPAN_COMPRESS_TOKENIZE);
        let sw = Stopwatch::start_if(timed);
        let tokens = match tokenize_segment(raw) {
            Ok(tokens) => tokens,
            Err(error) => {
                let err = CompressError::Tokenize {
                    proc: proc.name.clone(),
                    error,
                };
                let bytes = self.fall_back(raw, err)?;
                return Ok(EncodedSegment {
                    bytes,
                    fallback: true,
                    tokenize: sw.elapsed(),
                    parse: Duration::default(),
                });
            }
        };
        let tokenize = sw.elapsed();
        drop(trace_tok);

        let trace_parse = self.recorder.trace_span(names::SPAN_COMPRESS_PARSE);
        let sw = Stopwatch::start_if(timed);
        let parsed = if faults::fire(FaultPoint::Parse) {
            Err(NoParse::NoDerivation { furthest: 0 })
        } else {
            self.tiler.tile(scratch, &tokens, Some(cancel))
        };
        let derivation = match parsed {
            Ok(derivation) => derivation,
            Err(NoParse::Cancelled { elapsed_ms }) => {
                // Cancellation never degrades to the verbatim escape:
                // the owner asked for the work to stop, and encoding the
                // escape would still burn time on a dead request.
                return Err(CompressError::Cancelled { elapsed_ms });
            }
            Err(error) => {
                let err = CompressError::NoParse {
                    proc: proc.name.clone(),
                    segment_offset: range.start,
                    error,
                };
                let bytes = self.fall_back(raw, err)?;
                return Ok(EncodedSegment {
                    bytes,
                    fallback: true,
                    tokenize,
                    parse: sw.elapsed(),
                });
            }
        };
        let bytes = derivation.to_bytes(&self.index_map);
        let parse = sw.elapsed();
        drop(trace_parse);

        if faults::fire(FaultPoint::Encode) {
            // A stand-in for a tiler bug: the worker's `catch_unwind`
            // must turn it into this segment's `WorkerPanic`.
            panic!("injected encode fault");
        }
        Ok(EncodedSegment {
            bytes,
            fallback: false,
            tokenize,
            parse,
        })
    }
}

/// Best-effort extraction of a panic payload's message (panics carry
/// `&str` or `String` in practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Group contiguous jobs into dispatch batches of roughly `batch_bytes`
/// input bytes, returned as ranges of job indices. `0` yields one batch
/// per job (the pre-batching dispatch granularity).
fn plan_batches(jobs: &[Job], batch_bytes: usize) -> Vec<Range<usize>> {
    let mut batches = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, job) in jobs.iter().enumerate() {
        acc += job.range.len();
        if acc >= batch_bytes.max(1) {
            batches.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < jobs.len() {
        batches.push(start..jobs.len());
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::decompress_program;
    use pgr_bytecode::asm::assemble;
    use pgr_grammar::InitialGrammar;

    const SAMPLE: &str = r#"
proc f frame=8 args=0
    ADDRLP 0
    INDIRU
    LIT1 1
    ADDU
    ADDRLP 0
    ASGNU
    label 0
    ADDRLP 0
    INDIRU
    LIT1 1
    ADDU
    ADDRLP 0
    ASGNU
    LIT1 1
    BrTrue 0
    RETV
endproc
entry f
"#;

    fn engines() -> (InitialGrammar, Vec<CompressorConfig>) {
        let ig = InitialGrammar::build();
        let configs = vec![
            CompressorConfig::default().threads(1),
            CompressorConfig::default().threads(2),
            CompressorConfig::default().threads(7),
            CompressorConfig::default().threads(3),
            CompressorConfig::default().threads(4).batch_bytes(0),
            CompressorConfig::default().threads(4).batch_bytes(3),
            CompressorConfig::default().threads(2).batch_bytes(1 << 20),
        ];
        (ig, configs)
    }

    #[test]
    fn batches_cover_all_jobs_exactly_once() {
        let jobs: Vec<Job> = [0..5, 5..9, 9..10, 10..40, 40..41]
            .into_iter()
            .map(|range| Job { proc: 0, range })
            .collect();
        for batch_bytes in [0, 1, 4, 9, 17, 1 << 20] {
            let batches = plan_batches(&jobs, batch_bytes);
            let flattened: Vec<usize> = batches.iter().cloned().flatten().collect();
            assert_eq!(
                flattened,
                (0..jobs.len()).collect::<Vec<_>>(),
                "batch_bytes={batch_bytes}"
            );
        }
        // Per-job granularity when batching is off.
        assert_eq!(plan_batches(&jobs, 0).len(), jobs.len());
        // One batch swallows everything when the budget is huge.
        assert_eq!(plan_batches(&jobs, 1 << 20).len(), 1);
        assert!(plan_batches(&[], 64).is_empty());
    }

    #[test]
    fn every_configuration_agrees_bytewise() {
        let (ig, configs) = engines();
        let prog = assemble(SAMPLE).unwrap();
        let reference = Compressor::with_config(
            &ig.grammar,
            ig.nt_start,
            CompressorConfig::default().threads(1),
        )
        .compress(&prog)
        .unwrap();
        for config in configs {
            let engine = Compressor::with_config(&ig.grammar, ig.nt_start, config);
            let got = engine.compress(&prog).unwrap();
            assert_eq!(got.0, reference.0, "config {config:?}");
            assert_eq!(got.1, reference.1, "config {config:?}");
        }
    }

    #[test]
    fn engine_reuse_roundtrips_many_programs() {
        let ig = InitialGrammar::build();
        let engine = Compressor::new(&ig.grammar, ig.nt_start);
        for body in ["RETV", "LIT1 3\n\tPOPU\n\tRETV", "label 0\n\tJUMPV 0"] {
            let src = format!("proc f frame=0 args=0\n\t{body}\nendproc\n");
            let prog = assemble(&src).unwrap();
            let (cp, _) = engine.compress(&prog).unwrap();
            let back = decompress_program(&ig.grammar, ig.nt_start, &cp).unwrap();
            assert_eq!(back, canonicalize_program(&prog).unwrap());
        }
    }

    #[test]
    fn timings_are_collected_only_on_request() {
        let ig = InitialGrammar::build();
        let prog = assemble(SAMPLE).unwrap();
        let silent = Compressor::with_config(
            &ig.grammar,
            ig.nt_start,
            CompressorConfig::default().threads(1),
        );
        let (_, stats) = silent.compress(&prog).unwrap();
        assert_eq!(stats.timings, PhaseTimings::default());

        let timed = Compressor::with_recorder(
            &ig.grammar,
            ig.nt_start,
            CompressorConfig::default().threads(1),
            Recorder::new(),
        );
        let (_, stats) = timed.compress(&prog).unwrap();
        assert!(stats.timings.parse > Duration::default());
    }

    #[test]
    fn recorder_collects_compress_and_tiler_metrics() {
        let ig = InitialGrammar::build();
        let recorder = Recorder::new();
        let engine = Compressor::with_recorder(
            &ig.grammar,
            ig.nt_start,
            CompressorConfig::default().threads(2),
            recorder.clone(),
        );
        let prog = assemble(SAMPLE).unwrap();
        let (_, stats) = engine.compress(&prog).unwrap();

        let m = recorder.snapshot();
        assert_eq!(m.counter(names::COMPRESS_CALLS), 1);
        assert_eq!(m.counter(names::COMPRESS_SEGMENTS), stats.segments as u64);
        assert_eq!(
            m.counter(names::COMPRESS_ORIGINAL_BYTES),
            stats.original_code as u64
        );
        assert_eq!(
            m.counter(names::TILER_SEGMENTS),
            stats.segments as u64,
            "every segment is exactly one tiling"
        );
        // An enabled recorder implies phase timing, surfaced both as
        // spans and on the compatibility stats view.
        assert!(m.span_total(names::SPAN_COMPRESS_PARSE) > Duration::ZERO);
        assert!(stats.timings.parse > Duration::ZERO);
    }

    #[test]
    fn builder_and_chained_config_agree() {
        let built = CompressorConfig::builder()
            .threads(3)
            .batch_bytes(256)
            .fallback(false)
            .build();
        let chained = CompressorConfig::default()
            .threads(3)
            .batch_bytes(256)
            .fallback(false);
        assert_eq!(built, chained);
        assert_eq!(
            CompressorConfig::builder().build(),
            CompressorConfig::default()
        );
        // The cache shims change nothing and report nothing.
        assert_eq!(
            CompressorConfig::builder()
                .segment_cache_capacity(17)
                .build(),
            CompressorConfig::default()
        );
        let ig = InitialGrammar::build();
        let engine = Compressor::new(&ig.grammar, ig.nt_start);
        engine.compress(&assemble(SAMPLE).unwrap()).unwrap();
        assert_eq!(engine.cache_stats(), CacheStats::default());
    }

    #[test]
    fn errors_match_the_sequential_path() {
        let ig = InitialGrammar::build();
        let mut prog = assemble("proc f frame=0 args=0\n\tRETV\nendproc\n").unwrap();
        prog.procs[0].code = vec![Opcode::ADDU as u8];
        for threads in [1, 4] {
            let engine = Compressor::with_config(
                &ig.grammar,
                ig.nt_start,
                CompressorConfig::default().threads(threads).fallback(false),
            );
            let err = engine.compress(&prog).unwrap_err();
            assert!(matches!(err, CompressError::NoParse { .. }), "{threads}");
        }
    }

    #[test]
    fn unparseable_segments_fall_back_to_verbatim_escapes() {
        let ig = InitialGrammar::build();
        let mut prog = assemble("proc f frame=0 args=0\n\tRETV\nendproc\n").unwrap();
        // A bare binary operator: valid instruction bytes, no derivation.
        prog.procs[0].code = vec![Opcode::ADDU as u8];
        for config in [
            CompressorConfig::default().threads(1),
            CompressorConfig::default().threads(4),
        ] {
            let engine = Compressor::with_config(&ig.grammar, ig.nt_start, config);
            let (cp, stats) = engine.compress(&prog).unwrap();
            assert_eq!(stats.fallback_segments, 1, "config {config:?}");
            let back = decompress_program(&ig.grammar, ig.nt_start, &cp).unwrap();
            assert_eq!(back, canonicalize_program(&prog).unwrap());
        }
    }

    #[test]
    fn injected_parse_faults_fall_back_to_verbatim() {
        let ig = InitialGrammar::build();
        let prog = assemble(SAMPLE).unwrap();
        let config = CompressorConfig::default().threads(1);
        let engine = Compressor::with_config(&ig.grammar, ig.nt_start, config);
        let strict = Compressor::with_config(&ig.grammar, ig.nt_start, config.fallback(false));

        // Every tiling faults: each segment degrades to verbatim and the
        // image round-trips, while strict mode surfaces the verdict.
        let guard = faults::install(
            faults::FaultPlan::new().with(FaultPoint::Parse, faults::FaultMode::Always),
        );
        let (cp, stats) = engine.compress(&prog).unwrap();
        let err = strict.compress(&prog).unwrap_err();
        drop(guard);
        assert_eq!(stats.fallback_segments, stats.segments);
        let back = decompress_program(&ig.grammar, ig.nt_start, &cp).unwrap();
        assert_eq!(back, canonicalize_program(&prog).unwrap());
        assert!(matches!(
            err,
            CompressError::NoParse {
                error: NoParse::NoDerivation { .. },
                ..
            }
        ));
    }

    #[test]
    fn a_fired_token_stops_the_compress_before_it_canonicalizes() {
        let ig = InitialGrammar::build();
        let engine = Compressor::with_config(
            &ig.grammar,
            ig.nt_start,
            CompressorConfig::default().threads(3),
        );
        // Code canonicalization rejects: a fired token must answer first.
        let mut undecodable = assemble("proc f frame=0 args=0\n\tRETV\nendproc\n").unwrap();
        undecodable.procs[0].code = vec![0xFF];
        assert!(matches!(
            engine.compress(&undecodable),
            Err(CompressError::Canon(_))
        ));
        let fired = CancelToken::new();
        fired.cancel();
        assert!(matches!(
            engine.compress_cancellable(&undecodable, &fired),
            Err(CompressError::Cancelled { .. })
        ));
        // A token that never fires gives `compress`'s bytes.
        let prog = assemble(SAMPLE).unwrap();
        let (got, _) = engine
            .compress_cancellable(&prog, &CancelToken::never())
            .unwrap();
        assert_eq!(got, engine.compress(&prog).unwrap().0);
    }
}
