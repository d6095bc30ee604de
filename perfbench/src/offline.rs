//! The two closed-loop workloads that call the library in-process:
//! `compress-heldout` (one `Compressor` over distinct held-out programs)
//! and `run-compressed` (`Vm::new_compressed` + `Vm::run` over compressed
//! images).

use crate::inputs::{self, Input, Rng, Stream};
use crate::report::{cpu_seconds, fnv1a, peak_rss_mib, reset_peak_rss, Report, FNV_OFFSET};
use crate::spans::{self, Totals};
use crate::stats::{geomean, median, summarize};
use crate::Ctx;
use pgr_bytecode::{write_program, ImageKind, Program};
use pgr_core::{canonicalize_program, CompressedProgram, Compressor, CompressorConfig, Trained};
use pgr_telemetry::{names, trace, Recorder, TraceId, DEFAULT_TRACE_CAPACITY};
use pgr_vm::{RunResult, Vm, VmConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Function-count range of held-out programs for `compress-heldout`
/// (about 0.5 to 10 KB of bytecode).
const HELDOUT_FUNCTIONS: (usize, usize) = (2, 18);
/// Held-out programs compressed per second of `--seconds`. The count is
/// fixed rather than timed, so the derivation cache sees the same work
/// on a fast or a slow machine; a shared two-vCPU host compresses about
/// 50 a second, so the loop lasts most of `--seconds`.
const HELDOUT_PER_SECOND: u64 = 45;
/// Inputs compressed first, whose compressed bytes are fingerprinted
/// and compressed again by a second engine that must match them.
const FINGERPRINTED: u64 = 24;
/// Held-out synth programs in the `run-compressed` image set.
const RUN_SYNTH: u64 = 10;
/// Programs whose hot loops dominate their run time; `vm.ns_per_step`
/// is measured on them.
const HOT_LOOPS: [&str; 3] = ["lzss", "life", "sort"];

/// What a set-up produced and how long it took.
pub struct Setup<T> {
    pub trained: Trained,
    pub out: T,
    /// Seconds of the whole set-up and of its training.
    pub setup_s: f64,
    pub train_s: f64,
}

/// Train the shared grammar and run `ready` on it (build the engine,
/// prepare images, one warm-up per op), timed.
pub fn setup<T>(train_set: &[Program], ready: impl FnOnce(&Trained) -> T) -> Setup<T> {
    let refs: Vec<&Program> = train_set.iter().collect();
    let t0 = Instant::now();
    let trained = pgr_core::train(&refs, &Default::default()).expect("training succeeds");
    let train_s = t0.elapsed().as_secs_f64();
    let out = ready(&trained);
    Setup {
        trained,
        out,
        setup_s: t0.elapsed().as_secs_f64(),
        train_s,
    }
}

/// Median seconds of a set-up and of its training over the first
/// set-up's `(setup_s, train_s)` and `SETUP_REPS - 1` more set-ups,
/// whose products are dropped at once. Offline workloads call this
/// after their measured loop: the heap that each training frees but the
/// allocator keeps varies by tens of MiB, and one set-up's worth of it
/// under the workload's peak memory is steady where three are not.
pub fn setup_medians<U>(
    first: (f64, f64),
    train_set: &[Program],
    mut ready: impl FnMut(&Trained) -> U,
) -> (f64, f64) {
    let mut totals = vec![first.0];
    let mut trains = vec![first.1];
    for _ in 1..SETUP_REPS {
        let again = setup(train_set, &mut ready);
        totals.push(again.setup_s);
        trains.push(again.train_s);
    }
    (median(&totals), median(&trains))
}

/// Total rules in the expanded grammar.
pub fn grammar_rules(trained: &Trained) -> usize {
    let g = trained.expanded();
    (0..g.nt_count())
        .map(|nt| g.rules_of(pgr_grammar::Nt(nt as u16)).len())
        .sum()
}

/// An enabled recorder with tracing on.
fn tracing_recorder() -> Recorder {
    let recorder = Recorder::new();
    assert!(recorder.enable_tracing(DEFAULT_TRACE_CAPACITY));
    recorder
}

/// Move everything `recorder` traced so far into `totals`.
fn drain_into(recorder: &Recorder, totals: &mut Totals) {
    let events: Vec<spans::Event> = recorder
        .take_trace()
        .events
        .iter()
        .filter_map(spans::Event::from_recorder)
        .collect();
    totals.add(&spans::build(&events));
}

/// Start counting the workload's peak memory from here, after one
/// set-up; noted when the kernel refuses, as the peak then includes
/// training.
fn start_peak_rss() {
    if !reset_peak_rss() {
        println!("# peak RSS could not be reset; it includes training");
    }
}

/// FNV-1a of the compressed image bytes of `cp`, chained onto `hash`.
fn fingerprint(hash: u64, cp: &CompressedProgram) -> u64 {
    fnv1a(hash, &write_program(&cp.program, ImageKind::Compressed))
}

/// Compress `inputs` again on a second engine, one thread and no
/// derivation cache, and compare the bytes' fingerprint with `expected`:
/// compression must not depend on the engine, its threads or its cache.
fn check_determinism(trained: &Trained, inputs: &[Input], expected: u64, report: &mut Report) {
    let second = trained.compressor_with(
        CompressorConfig::builder()
            .threads(1)
            .segment_cache_capacity(0)
            .build(),
    );
    let mut hash = FNV_OFFSET;
    for input in inputs {
        match second.compress(&input.program) {
            Ok((cp, _)) => hash = fingerprint(hash, &cp),
            Err(e) => report.mismatch(format!("second engine, {}: {e}", input.name)),
        }
    }
    if hash != expected {
        report.mismatch(format!(
            "the first {} inputs hash {expected:016x} compressed by the measured engine but {hash:016x} by a second engine",
            inputs.len()
        ));
    }
}

/// Check that every set-up repetition compressed its warm-up input to
/// the same bytes: training from one seed must repeat exactly.
fn check_repeatable(hashes: &[u64], report: &mut Report) {
    if hashes.windows(2).any(|w| w[0] != w[1]) {
        report.mismatch(format!(
            "set-up repetitions of one seed compressed the warm-up to different bytes: {hashes:016x?}"
        ));
    }
}

// ---- compress-heldout ----------------------------------------------------

/// Measured windows per run: throughput is taken in each window of
/// consecutive calls and the median reported, so a burst of load from
/// other tenants of the host moves one window, not the run.
pub const WINDOWS: usize = 8;

/// Median over [`WINDOWS`] consecutive chunks of `items` of
/// `ratio(chunk)`.
pub fn windowed<T>(items: &[T], ratio: impl Fn(&[T]) -> f64) -> f64 {
    let size = items.len().div_ceil(WINDOWS).max(1);
    let values: Vec<f64> = items.chunks(size).map(ratio).collect();
    median(&values)
}

/// One compress call: original bytes, wall and CPU seconds.
#[derive(Debug, Clone, Copy)]
struct Call {
    bytes: u64,
    wall: f64,
    cpu: f64,
}

/// What one pass of the compress loop measured.
#[derive(Debug, Default)]
struct CompressPass {
    calls: Vec<Call>,
    original: u64,
    compressed: u64,
    segments: u64,
    fallback: u64,
    cache_hits: u64,
    cache_lookups: u64,
    decompress_us: Vec<f64>,
    fingerprint: u64,
}

impl CompressPass {
    /// Original KiB per wall-clock second, median over windows.
    fn kib_s(&self) -> f64 {
        windowed(&self.calls, |w| {
            w.iter().map(|c| c.bytes).sum::<u64>() as f64
                / 1024.0
                / w.iter().map(|c| c.wall).sum::<f64>()
        })
    }

    /// Original KiB per CPU second of this process, median over windows.
    fn kib_cpu_s(&self) -> f64 {
        windowed(&self.calls, |w| {
            w.iter().map(|c| c.bytes).sum::<u64>() as f64
                / 1024.0
                / w.iter().map(|c| c.cpu).sum::<f64>().max(0.01)
        })
    }

    fn calls_ms(&self) -> Vec<f64> {
        self.calls.iter().map(|c| c.wall * 1e3).collect()
    }
}

/// Compress the first `count` inputs of `next_input` with `compressor`,
/// checking each round trip.
fn compress_loop(
    trained: &Trained,
    compressor: &Compressor<'_>,
    next_input: &mut dyn FnMut(u64) -> Input,
    count: u64,
    mut traced: Option<(&Recorder, &mut Totals)>,
    report: &mut Report,
) -> CompressPass {
    let recorder = traced.as_ref().map(|(r, _)| *r);
    let mut pass = CompressPass {
        fingerprint: FNV_OFFSET,
        ..CompressPass::default()
    };
    let before = compressor.cache_stats();
    for i in 0..count {
        let input = next_input(i);
        let scope = trace::scope(TraceId::from_u64(i + 1));
        let span = recorder.map(|r| r.trace_span("bench.compress"));
        let cpu0 = cpu_seconds(None);
        let t0 = Instant::now();
        let result = compressor.compress(black_box(&input.program));
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds(None) - cpu0;
        drop(span);
        drop(scope);
        report.attempted += 1;
        match result {
            Ok((cp, stats)) => {
                pass.calls.push(Call {
                    bytes: stats.original_code as u64,
                    wall,
                    cpu,
                });
                pass.original += stats.original_code as u64;
                pass.compressed += stats.compressed_code as u64;
                pass.segments += stats.segments as u64;
                pass.fallback += stats.fallback_segments as u64;
                if i < FINGERPRINTED {
                    pass.fingerprint = fingerprint(pass.fingerprint, &cp);
                }
                check_round_trip(trained, &input, &cp, &mut pass.decompress_us, report);
            }
            Err(e) => report.mismatch(format!("compress {}: {e}", input.name)),
        }
        if let Some((r, totals)) = traced.as_mut() {
            drain_into(r, totals);
        }
    }
    let after = compressor.cache_stats();
    pass.cache_hits = after.hits - before.hits;
    pass.cache_lookups = (after.hits + after.misses) - (before.hits + before.misses);
    pass
}

/// Decompress `cp` (timed) and compare with the canonical input.
fn check_round_trip(
    trained: &Trained,
    input: &Input,
    cp: &CompressedProgram,
    decompress_us: &mut Vec<f64>,
    report: &mut Report,
) {
    let t0 = Instant::now();
    let back = trained.decompress(cp);
    decompress_us.push(t0.elapsed().as_secs_f64() * 1e6);
    let canonical = canonicalize_program(&input.program).expect("generated programs are valid");
    match back {
        Ok(back) if back == canonical => {}
        Ok(_) => report.mismatch(format!("{}: round trip differs from the input", input.name)),
        Err(e) => report.mismatch(format!("{}: decompress failed: {e}", input.name)),
    }
}

/// The held-out inputs of `compress-heldout`: the ten samples, then
/// distinct synth programs.
fn heldout_source(seed: u64) -> impl FnMut(u64) -> Input {
    let samples = inputs::samples();
    move |i| match samples.get(i as usize) {
        Some(s) => s.clone(),
        None => inputs::synth_input(
            seed,
            Stream::Heldout,
            1 + i - samples.len() as u64,
            HELDOUT_FUNCTIONS,
        ),
    }
}

pub fn compress_heldout(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let train_set = inputs::training_set();
    let warmup = inputs::synth_input(ctx.seed, Stream::Heldout, 0, HELDOUT_FUNCTIONS);
    let ready = |t: &Trained| {
        let compressor = t.compressor_with(CompressorConfig::default());
        let (cp, _) = compressor
            .compress(&warmup.program)
            .expect("warm-up compresses");
        fingerprint(FNV_OFFSET, &cp)
    };
    let first = setup(&train_set, ready);
    let trained = &first.trained;
    let used = pgr_corpus::SAMPLES.len() as u64 + HELDOUT_PER_SECOND * ctx.seconds;

    // The set-up engine borrowed the grammar inside `setup`; build and
    // warm an identical one, untimed.
    start_peak_rss();
    let compressor = trained.compressor_with(CompressorConfig::default());
    compressor
        .compress(&warmup.program)
        .expect("warm-up compresses");
    let mut source = heldout_source(ctx.seed);
    let pass = compress_loop(trained, &compressor, &mut source, used, None, &mut report);
    let rss = peak_rss_mib(None).unwrap_or(0.0);
    let mut warm_hashes = vec![first.out];
    let (setup_s, train_s) = setup_medians((first.setup_s, first.train_s), &train_set, |t| {
        warm_hashes.push(ready(t));
    });
    check_repeatable(&warm_hashes, &mut report);
    inputs::assert_disjoint(
        ctx.seed,
        &[
            (Stream::Train, inputs::TRAIN_PROGRAMS),
            (Stream::Heldout, used + 1),
        ],
    );
    let mut source = heldout_source(ctx.seed);
    let fingerprinted: Vec<Input> = (0..FINGERPRINTED).map(&mut source).collect();
    check_determinism(trained, &fingerprinted, pass.fingerprint, &mut report);
    println!(
        "# compress-heldout: {used} programs ({} samples + synth), {:.1} KiB of bytecode, {:.3} s compressing ({:.2} CPU s); median of {WINDOWS} windows {:.1} KiB/s, {:.1} KiB/cpu-s; threads {}; peak RSS {rss:.1} MiB",
        pgr_corpus::SAMPLES.len(),
        pass.original as f64 / 1024.0,
        pass.calls.iter().map(|c| c.wall).sum::<f64>(),
        pass.calls.iter().map(|c| c.cpu).sum::<f64>(),
        pass.kib_s(),
        pass.kib_cpu_s(),
        compressor.threads(),
    );

    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("ok_ratio", ok_ratio(&report), "share");
    report.metric(
        "compress_ratio",
        pass.compressed as f64 / pass.original as f64,
        "share",
    );
    report.metric("compress_kib_s", pass.kib_s(), "KiB/s");
    report.metric("compress_kib_cpu_s", pass.kib_cpu_s(), "KiB/cpu-s");
    if !ctx.trace {
        return report;
    }

    // Traced phase: a fresh engine with an enabled, tracing recorder,
    // over the same inputs, each call under its own trace id.
    let recorder = tracing_recorder();
    let traced = trained.compressor_with_recorder(CompressorConfig::default(), recorder.clone());
    traced
        .compress(&warmup.program)
        .expect("warm-up compresses");
    let _ = recorder.take_trace();
    let _ = recorder.take();
    let mut totals = Totals::default();
    let mut source = heldout_source(ctx.seed);
    let traced_pass = compress_loop(
        trained,
        &traced,
        &mut source,
        used,
        Some((&recorder, &mut totals)),
        &mut report,
    );
    if traced_pass.fingerprint != pass.fingerprint {
        report.mismatch("compressed bytes differ with tracing on".into());
    }
    let m = recorder.snapshot();
    let calls = used as f64;
    let per_call_ms = |name: &str| totals.self_us(name) as f64 / 1e3 / calls;
    let items = (m.counter(names::EARLEY_ITEMS_PREDICTED)
        + m.counter(names::EARLEY_ITEMS_SCANNED)
        + m.counter(names::EARLEY_ITEMS_COMPLETED)) as f64;
    let parse_us = totals.self_us(names::SPAN_COMPRESS_PARSE) as f64;
    println!(
        "# traced self time by span ({} unpaired marks):",
        totals.unpaired
    );
    print!("{}", totals.table());

    report.metric("core.train_s", train_s, "s");
    report.metric("core.grammar_rules", grammar_rules(trained) as f64, "count");
    if let Some(s) = summarize(&pass.calls_ms()) {
        println!(
            "# core.compress_ms: p50 {:.3} ms, tail p{} {:.3} ms over {} calls",
            s.p50, s.tail_pct, s.tail, s.n
        );
        report.metric("core.compress_ms.p50", s.p50, "ms");
        report.metric("core.compress_ms.tail", s.tail, "ms");
    }
    report.metric(
        "core.cache_hit_ratio",
        pass.cache_hits as f64 / pass.cache_lookups.max(1) as f64,
        "share",
    );
    report.metric(
        "core.fallback_ratio",
        pass.fallback as f64 / pass.segments.max(1) as f64,
        "share",
    );
    report.metric(
        "core.canonicalize_ms",
        per_call_ms(names::SPAN_COMPRESS_CANONICALIZE),
        "ms",
    );
    report.metric(
        "core.tokenize_ms",
        per_call_ms(names::SPAN_COMPRESS_TOKENIZE),
        "ms",
    );
    report.metric("core.emit_ms", per_call_ms(names::SPAN_COMPRESS_EMIT), "ms");
    report.metric("core.decompress_us", median(&pass.decompress_us), "us");
    report.metric("earley.parse_ms", parse_us / 1e3 / calls, "ms");
    report.metric(
        "earley.items_per_token",
        items / m.counter(names::EARLEY_TOKENS).max(1) as f64,
        "count",
    );
    report.metric("earley.ns_per_item", parse_us * 1e3 / items.max(1.0), "ns");
    let busy = totals.busy_us().max(1) as f64;
    report.metric("share.earley", parse_us / busy, "share");
    report.metric(
        "share.vm",
        totals.self_us_prefix("vm.") as f64 / busy,
        "share",
    );
    report.metric(
        "telemetry.overhead_pct.compress_kib_s",
        100.0 * (pass.kib_s() / traced_pass.kib_s() - 1.0),
        "%",
    );
    report
}

fn ok_ratio(report: &Report) -> f64 {
    1.0 - report.failed as f64 / report.attempted.max(1) as f64
}

// ---- run-compressed ------------------------------------------------------

/// A compressed image with the answer its uncompressed run gave.
struct RunImage {
    name: String,
    plain: Program,
    compressed: CompressedProgram,
    answer: (i32, Vec<u8>),
    plain_ms: f64,
}

/// A run's exit status as the server reports it: `exit()`'s code, or
/// `main`'s return value.
fn exit_of(r: &RunResult) -> i32 {
    r.exit_code.unwrap_or_else(|| r.ret.i())
}

/// CPU seconds, runs, and steps of one image in one round.
#[derive(Debug, Clone, Copy, Default)]
struct Slice {
    cpu: f64,
    runs: u32,
    steps: u64,
}

/// What the run loop measured.
#[derive(Debug, Default)]
struct RunPass {
    /// Per image: load µs and load-plus-run ms of every run, Vm::run
    /// time, and steps.
    load_us: Vec<Vec<f64>>,
    total_ms: Vec<Vec<f64>>,
    run_ns: Vec<u128>,
    steps: Vec<u64>,
    /// Per round, per image.
    rounds: Vec<Vec<Slice>>,
    tier2: [u64; 3],
}

impl RunPass {
    fn medians_ms(&self) -> Vec<f64> {
        self.total_ms.iter().map(|v| median(v)).collect()
    }

    /// Geometric mean over images of CPU ms per load-plus-run, median
    /// over rounds.
    fn cpu_ms_geomean(&self) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| {
                geomean(
                    &r.iter()
                        .map(|s| (s.cpu * 1e3 / f64::from(s.runs)).max(1e-3))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        median(&per_round)
    }

    /// Million steps per CPU second, median over rounds.
    fn msteps_cpu_s(&self) -> f64 {
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| {
                r.iter().map(|s| s.steps).sum::<u64>() as f64
                    / r.iter().map(|s| s.cpu).sum::<f64>().max(0.01)
                    / 1e6
            })
            .collect();
        median(&per_round)
    }

    fn msteps_s(&self) -> f64 {
        let ns: u128 = self.run_ns.iter().sum();
        self.steps.iter().sum::<u64>() as f64 / (ns as f64 / 1e9) / 1e6
    }
}

/// Run the images in [`WINDOWS`] rounds; in each round, in a seeded
/// order, run each image back to back for an equal share of `budget`
/// (at least once), checking every answer. Equal time rather than equal
/// counts gives short programs enough runs for their CPU time to be
/// measured.
fn run_loop(
    trained: &Trained,
    images: &[RunImage],
    budget: Duration,
    recorder: &Recorder,
    totals: &mut Totals,
    order_seed: u64,
    report: &mut Report,
) -> RunPass {
    let n = images.len();
    let mut pass = RunPass {
        load_us: vec![Vec::new(); n],
        total_ms: vec![Vec::new(); n],
        run_ns: vec![0; n],
        steps: vec![0; n],
        rounds: Vec::new(),
        tier2: [0; 3],
    };
    let mut rng = Rng::new(order_seed);
    let mut order: Vec<usize> = (0..n).collect();
    let share = budget / (n * WINDOWS) as u32;
    let mut id = 0u64;
    for _ in 0..WINDOWS {
        rng.shuffle(&mut order);
        let mut round = vec![Slice::default(); n];
        for &k in &order {
            let img = &images[k];
            let start = Instant::now();
            let cpu0 = cpu_seconds(None);
            while round[k].runs == 0 || start.elapsed() < share {
                id += 1;
                let config = VmConfig {
                    recorder: recorder.clone(),
                    ..VmConfig::default()
                };
                let scope = trace::scope(TraceId::from_u64(id));
                let span = recorder.trace_span("bench.run");
                let t0 = Instant::now();
                let vm = Vm::new_compressed(
                    black_box(&img.compressed.program),
                    trained.expanded(),
                    trained.start(),
                    trained.initial().nt_byte,
                    config,
                );
                let t1 = Instant::now();
                let (result, tier2) = match vm {
                    Ok(mut vm) => (vm.run(), vm.tier2_stats()),
                    Err(e) => (Err(e), Default::default()),
                };
                let t2 = Instant::now();
                drop(span);
                drop(scope);
                if recorder.is_tracing() {
                    drain_into(recorder, totals);
                }
                report.attempted += 1;
                round[k].runs += 1;
                match result {
                    Ok(r) if (exit_of(&r), &r.output) == (img.answer.0, &img.answer.1) => {
                        pass.steps[k] += r.steps;
                        round[k].steps += r.steps;
                    }
                    Ok(r) => report.mismatch(format!(
                        "{}: compressed run exited {} with {} output bytes, plain run {} with {}",
                        img.name,
                        exit_of(&r),
                        r.output.len(),
                        img.answer.0,
                        img.answer.1.len()
                    )),
                    Err(e) => report.mismatch(format!("{}: compressed run failed: {e}", img.name)),
                }
                pass.load_us[k].push((t1 - t0).as_secs_f64() * 1e6);
                pass.total_ms[k].push((t2 - t0).as_secs_f64() * 1e3);
                pass.run_ns[k] += (t2 - t1).as_nanos();
                pass.tier2[0] += tier2.compiled;
                pass.tier2[1] += tier2.hits;
                pass.tier2[2] += tier2.deopts;
            }
            round[k].cpu = cpu_seconds(None) - cpu0;
        }
        pass.rounds.push(round);
    }
    pass
}

/// Held-out synth program `i` of a run image set: 2 + `i` functions, so
/// every seed draws the same spread of sizes.
pub fn run_synth(seed: u64, i: u64) -> Input {
    let functions = 2 + i as usize;
    inputs::synth_input(seed, Stream::Heldout, i, (functions, functions))
}

/// Run `program` uncompressed once: the reference answer and its time.
fn plain_run(name: &str, program: &Program) -> ((i32, Vec<u8>), f64) {
    let t0 = Instant::now();
    let r = Vm::new(program, VmConfig::default())
        .and_then(|mut vm| vm.run())
        .unwrap_or_else(|e| panic!("{name}: the uncompressed reference run failed: {e}"));
    ((exit_of(&r), r.output), t0.elapsed().as_secs_f64() * 1e3)
}

pub fn run_compressed(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let train_set = inputs::training_set();
    let mut programs = inputs::samples();
    programs.extend((0..RUN_SYNTH).map(|i| run_synth(ctx.seed, i)));
    inputs::assert_disjoint(
        ctx.seed,
        &[
            (Stream::Train, inputs::TRAIN_PROGRAMS),
            (Stream::Heldout, RUN_SYNTH),
        ],
    );
    let ready = |t: &Trained| {
        let compressor = t.compressor();
        let images: Vec<CompressedProgram> = programs
            .iter()
            .map(|p| {
                compressor
                    .compress(&p.program)
                    .expect("run images compress")
                    .0
            })
            .collect();
        let warm = &images[programs
            .iter()
            .position(|p| p.name == "calc")
            .expect("calc sample")];
        let mut vm = Vm::new_compressed(
            &warm.program,
            t.expanded(),
            t.start(),
            t.initial().nt_byte,
            VmConfig::default(),
        )
        .expect("warm-up loads");
        vm.run().expect("warm-up runs");
        images
    };
    let Setup {
        trained,
        out: compressed,
        setup_s: first_setup_s,
        train_s: first_train_s,
    } = setup(&train_set, ready);
    let mut images = Vec::new();
    for (input, cp) in programs.iter().zip(compressed) {
        let (answer, plain_ms) = plain_run(&input.name, &input.program);
        images.push(RunImage {
            name: input.name.clone(),
            plain: input.program.clone(),
            compressed: cp,
            answer,
            plain_ms,
        });
    }
    // Known answers of two samples, independent of the reference run.
    for (name, exit, output) in [
        ("8q", Some(92), None),
        ("sieve", Some(0), Some(&b"1229 "[..])),
    ] {
        let img = images
            .iter()
            .find(|i| i.name == name)
            .expect("sample present");
        if exit.is_some_and(|e| e != img.answer.0)
            || output.is_some_and(|o| !img.answer.1.starts_with(o))
        {
            report.mismatch(format!(
                "{name}: uncompressed run gave a wrong known answer"
            ));
        }
    }
    let ratio = images
        .iter()
        .map(|i| i.compressed.program.code_size())
        .sum::<usize>() as f64
        / images
            .iter()
            .map(|i| canonical_size(&i.plain))
            .sum::<usize>() as f64;

    let budget = Duration::from_secs(ctx.seconds);
    let mut totals = Totals::default();
    start_peak_rss();
    let pass = run_loop(
        &trained,
        &images,
        budget,
        &Recorder::disabled(),
        &mut totals,
        inputs::derive(ctx.seed, Stream::Schedule, 0),
        &mut report,
    );
    let rss = peak_rss_mib(None).unwrap_or(0.0);
    let (setup_s, train_s) = setup_medians((first_setup_s, first_train_s), &train_set, ready);
    let medians = pass.medians_ms();
    println!(
        "# run-compressed: {} images for {:.3} s in {WINDOWS} rounds, an equal share each",
        images.len(),
        budget.as_secs_f64()
    );
    for ((img, m), runs) in images.iter().zip(&medians).zip(&pass.total_ms) {
        println!(
            "#   {:<24} runs {:>5}  median load+run {:>10.3} ms  plain {:>10.3} ms",
            img.name,
            runs.len(),
            m,
            img.plain_ms
        );
    }

    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mib", rss, "MiB");
    report.metric("ok_ratio", ok_ratio(&report), "share");
    report.metric("compress_ratio", ratio, "share");
    report.metric("run_cpu_ms_geomean", pass.cpu_ms_geomean(), "cpu-ms");
    report.metric("run_msteps_cpu_s", pass.msteps_cpu_s(), "Msteps/cpu-s");
    report.metric("run_ms_geomean", geomean(&medians), "ms");
    report.metric("run_msteps_s", pass.msteps_s(), "Msteps/s");
    if !ctx.trace {
        return report;
    }

    // Traced phase: the same images under an enabled, tracing recorder.
    let recorder = tracing_recorder();
    let traced = run_loop(
        &trained,
        &images,
        budget,
        &recorder,
        &mut totals,
        inputs::derive(ctx.seed, Stream::Schedule, 1),
        &mut report,
    );
    let m = recorder.snapshot();
    println!(
        "# traced self time by span ({} unpaired marks):",
        totals.unpaired
    );
    print!("{}", totals.table());

    report.metric("core.train_s", train_s, "s");
    report.metric(
        "core.grammar_rules",
        grammar_rules(&trained) as f64,
        "count",
    );
    let loads: Vec<f64> = pass.load_us.iter().flatten().copied().collect();
    report.metric("vm.load_us", median(&loads), "us");
    let mut synth = Vec::new();
    for (img, m) in images.iter().zip(&medians) {
        if img.name.starts_with("synth-") {
            synth.push(*m);
        } else {
            report.metric(format!("vm.run_ms.{}", img.name), *m, "ms");
        }
    }
    report.metric("vm.run_ms.synth", geomean(&synth), "ms");
    let (hot_ns, hot_steps) = images
        .iter()
        .enumerate()
        .filter(|(_, i)| HOT_LOOPS.contains(&i.name.as_str()))
        .fold((0u128, 0u64), |(ns, st), (k, _)| {
            (ns + pass.run_ns[k], st + pass.steps[k])
        });
    report.metric(
        "vm.ns_per_step",
        hot_ns as f64 / hot_steps.max(1) as f64,
        "ns",
    );
    report.metric("vm.tier2.compiled", pass.tier2[0] as f64, "count");
    report.metric("vm.tier2.hits", pass.tier2[1] as f64, "count");
    report.metric("vm.tier2.deopts", pass.tier2[2] as f64, "count");
    report.metric("vm.tier2.deopts.traced", traced.tier2[2] as f64, "count");
    let hits = m.counter(names::VM_SEG_CACHE_HITS) as f64;
    let misses = m.counter(names::VM_SEG_CACHE_MISSES) as f64;
    report.metric(
        "vm.seg_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "share",
    );
    let slowdowns: Vec<f64> = images
        .iter()
        .zip(&medians)
        .map(|(i, m)| m / i.plain_ms)
        .collect();
    report.metric("vm.slowdown_vs_interp1", geomean(&slowdowns), "ratio");
    let busy = totals.busy_us().max(1) as f64;
    report.metric(
        "share.earley",
        totals.self_us(names::SPAN_COMPRESS_PARSE) as f64 / busy,
        "share",
    );
    report.metric(
        "share.vm",
        totals.self_us_prefix("vm.") as f64 / busy,
        "share",
    );
    report.metric(
        "telemetry.overhead_pct.run_ms_geomean",
        100.0 * (geomean(&traced.medians_ms()) / geomean(&medians) - 1.0),
        "%",
    );
    report
}

/// Code bytes of the canonical form, which compression measures against.
fn canonical_size(program: &Program) -> usize {
    canonicalize_program(program)
        .expect("generated programs are valid")
        .code_size()
}
