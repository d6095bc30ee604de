//! # pgr-cli
//!
//! The `pgr` command-line tool: drive the whole pipeline from a shell.
//!
//! ```text
//! pgr compile hello.c -o hello.pgrb [-O]      # C -> bytecode image
//! pgr disasm hello.pgrb                       # textual assembly
//! pgr train a.pgrb b.pgrb -o corp.pgrg        # expanded grammar
//! pgr compress hello.pgrb -g corp.pgrg -o hello.pgrc
//! pgr decompress hello.pgrc -o back.pgrb      # grammar via registry + image header
//! pgr run hello.pgrb                          # interp1
//! pgr run hello.pgrc -g corp.pgrg             # interp_nt, direct
//! pgr stats hello.pgrb                        # image + native sizes
//! pgr cgen -g corp.pgrg -o outdir             # generated C artifacts
//! pgr registry add corp.pgrg                  # content-addressed grammar store
//! pgr serve --socket pgr.sock                 # NDJSON request server
//! ```
//!
//! Grammars come from two places, uniformly: `-g` takes either a
//! `.pgrg` path or `id:HEX` (a full or prefix [`GrammarId`] resolved in
//! the registry named by `--registry`/`$PGR_REGISTRY`). Compressed
//! images carry their grammar's id in the image header, so `decompress`
//! / `run` / `verify` can omit `-g` entirely when a registry is
//! configured.
//!
//! The library entry point [`run`] is what the binary calls and what the
//! integration tests drive directly.

#![warn(missing_docs)]

use pgr::PgrError;
use pgr_bytecode::{
    read_program_tagged, validate_program, write_program, write_program_tagged, ImageKind, Program,
};
use pgr_core::{train, ExpanderConfig, TrainConfig};
use pgr_grammar::GrammarFile;
use pgr_registry::{op_of_hist_name, GrammarId, Registry, ServeConfig, Server};
use pgr_telemetry::{
    names, trace, JsonSink, Metrics, Recorder, Sink, Stopwatch, TableSink, TraceId,
    DEFAULT_TRACE_CAPACITY,
};
use pgr_vm::{Vm, VmConfig};
use std::path::Path;

/// Run the CLI with the given arguments (excluding the program name);
/// returns the process exit code.
///
/// # Errors
///
/// Returns a human-readable message for usage errors, I/O failures, and
/// pipeline failures.
pub fn run(args: &[String]) -> Result<i32, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "compile" => compile(rest),
        "disasm" => disasm(rest),
        "train" => cmd_train(rest),
        "compress" => compress(rest),
        "decompress" => decompress(rest),
        "run" => cmd_run(rest),
        "verify" => verify(rest),
        "stats" => stats(rest),
        "cgen" => cgen(rest),
        "metrics-check" => metrics_check(rest),
        "registry" => cmd_registry(rest),
        "serve" => cmd_serve(rest),
        "call" => cmd_call(rest),
        "chaos-proxy" => cmd_chaos_proxy(rest),
        "top" => cmd_top(rest),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(0)
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage: pgr <compile|disasm|train|compress|decompress|run|verify|stats|cgen|registry|serve|call|chaos-proxy|top|metrics-check|help> ...\n\
     \x20 compile <in.c> -o <out.pgrb> [-O]\n\
     \x20 disasm <in.pgrb>\n\
     \x20 train <in.pgrb>... -o <out.pgrg> [--cap N]\n\
     \x20 compress <in.pgrb> -g <grammar> -o <out.pgrc> [--threads N] [--batch-bytes N] [--timings]\n\
     \x20     [--no-fallback] [--trace-out <t.json>]\n\
     \x20 decompress <in.pgrc> [-g <grammar>] -o <out.pgrb>\n\
     \x20 run <in.pgrb|in.pgrc> [-g <grammar>] [--stdin TEXT] [--trace N]\n\
     \x20     [--segment-cache N] [--reference-walker] [--trace-out <t.json>]\n\
     \x20 verify <in.pgrb|in.pgrc> [-g <grammar>]\n\
     \x20 stats <in.pgrb>\n\
     \x20 cgen -g <grammar> [-p <image>] -o <dir>\n\
     \x20 registry <add <g.pgrg> [--label TEXT] | list | rm <id> | gc [<keep-id>...]>\n\
     \x20 serve --socket <path> [--threads N] [--workers N] [--batch-window-us N]\n\
     \x20     [--max-connections N] [--max-queue N] [--max-engines N]\n\
     \x20     [--request-timeout-ms N] [--idle-timeout-ms N] [--max-line-bytes N]\n\
     \x20     [--slow-ms N [--slow-trace <out.ndjson>] [--slow-trace-max-bytes N]]\n\
     \x20 call --socket <path> [<request-json>] [--timeout-ms N] [--retries N]\n\
     \x20     [--backoff-ms N] [--seed N] [--breaker-threshold N] [--verbose]\n\
     \x20 chaos-proxy --listen <sock> --upstream <sock> [--seed N] [--duration-ms N]\n\
     \x20     [--partial-per-1024 N] [--reset-per-1024 N] [--stall-per-1024 N]\n\
     \x20     [--stall-ms N] [--garbage-per-1024 N]\n\
     \x20 top --socket <path> [--interval-ms N] [--iterations N]\n\
     \x20 metrics-check <metrics.json>\n\
     a <grammar> is a .pgrg path or id:HEX (full id or unique prefix) looked up in\n\
     the registry; compressed images name their grammar in the header, so commands\n\
     reading them can omit -g when a registry is configured.\n\
     registry/serve take --registry <dir> (default: $PGR_REGISTRY)\n\
     serve supports Linux on x86_64 or aarch64 only (its transport is epoll)\n\
     train/compress/decompress/run also take:\n\
     \x20 --metrics <human|json>   emit pipeline telemetry (stderr by default)\n\
     \x20 --metrics-out <path>     write telemetry to a file (implies json)\n\
     compress/run also take:\n\
     \x20 --trace-out <path>       write a Chrome trace-event JSON span tree\n\
     compress stores a segment that is not postfix code verbatim; --no-fallback\n\
     fails instead, naming the procedure and segment offset"
        .to_string()
}

// ---- small argument helpers -------------------------------------------

fn opt_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], flag: &str) -> Result<&'a str, String> {
    opt_value(args, flag).ok_or_else(|| format!("missing {flag} <value>"))
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The flags `command` takes, space-separated: first those that take the
/// next argument as their value, then those that stand alone.
fn flags_of(command: &str) -> (&'static str, &'static str) {
    match command {
        "compile" => ("-o", "-O"),
        "train" => ("-o --cap --metrics --metrics-out", ""),
        "compress" => (
            "-o -g --registry --threads --batch-bytes --trace-out --metrics --metrics-out",
            "--timings --no-fallback",
        ),
        "decompress" => ("-o -g --registry --metrics --metrics-out", ""),
        "run" => (
            "-g --registry --stdin --trace --segment-cache --trace-out --metrics --metrics-out",
            "--reference-walker",
        ),
        "verify" => ("-g --registry", ""),
        "cgen" => ("-g --registry -p -o", ""),
        "registry add" => ("--registry --label", ""),
        "registry" => ("--registry", ""),
        "serve" => (
            "--socket --registry --threads --workers --batch-window-us --max-connections \
             --max-queue --max-engines --request-timeout-ms --idle-timeout-ms \
             --max-line-bytes --slow-ms --slow-trace --slow-trace-max-bytes \
             --metrics --metrics-out",
            "",
        ),
        "call" => (
            "--socket --timeout-ms --retries --backoff-ms --seed --breaker-threshold",
            "--verbose",
        ),
        "chaos-proxy" => (
            "--listen --upstream --seed --duration-ms --partial-per-1024 --reset-per-1024 \
             --stall-per-1024 --stall-ms --garbage-per-1024",
            "",
        ),
        "top" => ("--socket --interval-ms --iterations", ""),
        _ => ("", ""), // disasm, stats, metrics-check
    }
}

/// The positional arguments of `args`, after checking every flag against
/// the ones `command` takes.
///
/// # Errors
///
/// A flag the command does not take, or a valued flag with no value,
/// named.
fn positionals<'a>(args: &'a [String], command: &str) -> Result<Vec<&'a str>, String> {
    let (valued, switches) = flags_of(command);
    let takes = |list: &str, a: &str| list.split_whitespace().any(|f| f == a);
    let mut out = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(a) = args.next() {
        if takes(valued, a) {
            if args.next().is_none() {
                return Err(format!("{command}: {a} needs a value"));
            }
        } else if !a.starts_with('-') {
            out.push(a);
        } else if !takes(switches, a) {
            return Err(format!("{command}: unknown flag {a}"));
        }
    }
    Ok(out)
}

/// Like [`positionals`], for a command that takes none.
fn no_positionals(args: &[String], command: &str) -> Result<(), String> {
    match positionals(args, command)?.first() {
        Some(stray) => Err(format!("{command}: unexpected argument {stray:?}")),
        None => Ok(()),
    }
}

// ---- telemetry plumbing -----------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum MetricsMode {
    Human,
    Json,
}

/// Telemetry options shared by train/compress/decompress/run: an enabled
/// recorder plus where and how to render it when the command finishes.
struct MetricsOpts {
    mode: MetricsMode,
    out: Option<String>,
    recorder: Recorder,
}

/// Parse `--metrics <human|json>` / `--metrics-out <path>`. Returns
/// `None` (and a shared disabled recorder downstream) when neither flag
/// is present; `--metrics-out` alone implies JSON.
fn metrics_opts(args: &[String]) -> Result<Option<MetricsOpts>, String> {
    let mode = opt_value(args, "--metrics");
    let out = opt_value(args, "--metrics-out").map(str::to_owned);
    if mode.is_none() && out.is_none() {
        return Ok(None);
    }
    let mode = match mode {
        None | Some("json") => MetricsMode::Json,
        Some("human") => MetricsMode::Human,
        Some(other) => return Err(format!("bad --metrics {other:?} (expected human or json)")),
    };
    Ok(Some(MetricsOpts {
        mode,
        out,
        recorder: Recorder::new(),
    }))
}

/// The recorder commands thread through the pipeline: enabled when the
/// user asked for metrics, the shared disabled instance otherwise.
fn recorder_of(opts: &Option<MetricsOpts>) -> Recorder {
    opts.as_ref()
        .map_or_else(Recorder::disabled, |o| o.recorder.clone())
}

/// Render the accumulated metrics to the requested sink. A no-op when
/// metrics were not requested.
fn emit_metrics(opts: &Option<MetricsOpts>) -> Result<(), String> {
    let Some(opts) = opts else { return Ok(()) };
    let metrics = opts.recorder.snapshot();
    fn sink_to<W: std::io::Write>(mode: MetricsMode, w: W, m: &Metrics) -> std::io::Result<()> {
        match mode {
            MetricsMode::Human => TableSink(w).emit(m),
            MetricsMode::Json => JsonSink(w).emit(m),
        }
    }
    match &opts.out {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            sink_to(opts.mode, std::io::BufWriter::new(file), &metrics)
                .map_err(|e| format!("{path}: {e}"))
        }
        None => sink_to(opts.mode, std::io::stderr().lock(), &metrics).map_err(|e| e.to_string()),
    }
}

// ---- request tracing ----------------------------------------------------

/// Resolve a command's recorder together with `--trace-out`: tracing
/// rides on the metrics recorder when `--metrics` was also given, and on
/// a private enabled recorder (whose metrics are never emitted)
/// otherwise. Returns the recorder to thread through the pipeline and
/// the trace output path, if any.
fn recorder_and_trace(
    args: &[String],
    metrics: &Option<MetricsOpts>,
) -> (Recorder, Option<String>) {
    let out = opt_value(args, "--trace-out").map(str::to_owned);
    let recorder = match (metrics, &out) {
        (Some(o), _) => o.recorder.clone(),
        (None, Some(_)) => Recorder::new(),
        (None, None) => Recorder::disabled(),
    };
    if out.is_some() {
        recorder.enable_tracing(DEFAULT_TRACE_CAPACITY);
    }
    (recorder, out)
}

/// Drain the recorder's trace buffer and write it as Chrome trace-event
/// JSON (loadable in `chrome://tracing` / Perfetto). A no-op without
/// `--trace-out`.
fn write_trace(recorder: &Recorder, out: Option<&str>) -> Result<(), String> {
    let Some(path) = out else { return Ok(()) };
    let trace = recorder.take_trace();
    if trace.dropped > 0 {
        eprintln!(
            "warning: trace buffer overflowed; {} event(s) dropped",
            trace.dropped
        );
    }
    write_file(path, trace.to_chrome_json().as_bytes())?;
    eprintln!("trace: {} event(s) -> {path}", trace.events.len());
    Ok(())
}

fn read_file(path: &str) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("{path}: {e}"))
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

/// Read an image, returning the embedded grammar id (if any) along with
/// the program: commands reading compressed images use the id to find
/// the right grammar without a `-g` flag.
fn load_program(path: &str) -> Result<(Program, ImageKind, Option<GrammarId>), String> {
    let bytes = read_file(path)?;
    let (program, kind, raw_id) =
        read_program_tagged(&bytes).map_err(|e| format!("{path}: {e}"))?;
    Ok((program, kind, raw_id.map(GrammarId::from_raw)))
}

/// Render a pipeline failure with its full cause chain. All train /
/// compress / decompress / validate failures funnel through [`PgrError`]
/// so the CLI reports every layer of context, not just the top line.
fn pipeline_err(e: impl Into<PgrError>) -> String {
    e.into().report()
}

// ---- grammar files and the registry ------------------------------------

/// A grammar the CLI resolved, with its content address — the id is
/// what `compress` stamps into the output image header.
struct LoadedGrammar {
    file: GrammarFile,
    id: GrammarId,
}

/// The registry root: `--registry <dir>` wins, else `$PGR_REGISTRY`.
fn registry_root(args: &[String]) -> Option<String> {
    opt_value(args, "--registry")
        .map(str::to_owned)
        .or_else(|| std::env::var("PGR_REGISTRY").ok())
}

fn open_registry(args: &[String]) -> Result<Registry, String> {
    let root = registry_root(args)
        .ok_or("no registry configured (pass --registry <dir> or set $PGR_REGISTRY)")?;
    Registry::open(&root).map_err(pipeline_err)
}

fn grammar_of_bytes(origin: &str, bytes: &[u8]) -> Result<LoadedGrammar, String> {
    let file =
        GrammarFile::from_bytes(bytes).map_err(|e| format!("{origin}: {}", pipeline_err(e)))?;
    Ok(LoadedGrammar {
        id: GrammarId::of_bytes(bytes),
        file,
    })
}

/// Resolve a `-g` value: a `.pgrg` path, or `id:HEX` (full id or unique
/// prefix) looked up in the registry.
fn load_grammar_spec(args: &[String], spec: &str) -> Result<LoadedGrammar, String> {
    if let Some(hex) = spec.strip_prefix("id:") {
        let registry = open_registry(args)?;
        let id = registry.resolve(hex).map_err(pipeline_err)?;
        let bytes = registry.load_bytes(&id).map_err(pipeline_err)?;
        grammar_of_bytes(spec, &bytes)
    } else {
        grammar_of_bytes(spec, &read_file(spec)?)
    }
}

/// Find the grammar for a compressed image: an explicit `-g` wins;
/// otherwise the image header's grammar id is resolved in the registry.
fn grammar_for_image(
    args: &[String],
    input: &str,
    header_id: Option<GrammarId>,
) -> Result<LoadedGrammar, String> {
    if let Some(spec) = opt_value(args, "-g") {
        return load_grammar_spec(args, spec);
    }
    let id =
        header_id.ok_or_else(|| format!("{input}: image names no grammar; pass -g <grammar>"))?;
    let registry =
        open_registry(args).map_err(|e| format!("{input}: image names grammar {id}, but {e}"))?;
    let bytes = registry.load_bytes(&id).map_err(pipeline_err)?;
    grammar_of_bytes(&format!("registry grammar {id}"), &bytes)
}

/// Build the compressor configuration from the shared CLI flags
/// (`--threads`, `--batch-bytes`, `--no-fallback`) — the one place flag
/// parsing produces a [`pgr_core::CompressorConfig`].
fn compressor_config(args: &[String]) -> Result<pgr_core::CompressorConfig, String> {
    let mut builder = pgr_core::CompressorConfig::builder().fallback(!flag(args, "--no-fallback"));
    if let Some(v) = opt_value(args, "--threads") {
        builder = builder.threads(
            v.parse::<usize>()
                .map_err(|_| format!("bad --threads {v:?}"))?,
        );
    }
    if let Some(v) = opt_value(args, "--batch-bytes") {
        builder = builder.batch_bytes(
            v.parse::<usize>()
                .map_err(|_| format!("bad --batch-bytes {v:?}"))?,
        );
    }
    Ok(builder.build())
}

// ---- commands -----------------------------------------------------------

fn compile(args: &[String]) -> Result<i32, String> {
    let inputs = positionals(args, "compile")?;
    let [input] = inputs.as_slice() else {
        return Err("compile takes exactly one .c file".into());
    };
    let out = required(args, "-o")?;
    let optimize = args.iter().any(|a| a == "-O");
    let source = String::from_utf8(read_file(input)?).map_err(|_| format!("{input}: not UTF-8"))?;
    let program = pgr_minic::compile_with(&source, &pgr_minic::Options { optimize })
        .map_err(|e| format!("{input}:{e}"))?;
    validate_program(&program)
        .map_err(|e| format!("{input}: generated invalid code: {}", pipeline_err(e)))?;
    write_file(out, &write_program(&program, ImageKind::Uncompressed))?;
    eprintln!(
        "{input}: {} procedures, {} bytecode bytes -> {out}",
        program.procs.len(),
        program.code_size()
    );
    Ok(0)
}

fn disasm(args: &[String]) -> Result<i32, String> {
    let pos = positionals(args, "disasm")?;
    let [input] = pos.as_slice() else {
        return Err("disasm takes exactly one image".into());
    };
    let (program, kind, _) = load_program(input)?;
    if kind == ImageKind::Compressed {
        return Err(format!(
            "{input} holds compressed derivations; decompress it first"
        ));
    }
    print!("{}", pgr_bytecode::asm::disassemble(&program));
    Ok(0)
}

fn cmd_train(args: &[String]) -> Result<i32, String> {
    let inputs = positionals(args, "train")?;
    if inputs.is_empty() {
        return Err("train needs at least one training image".into());
    }
    let out = required(args, "-o")?;
    let cap = match opt_value(args, "--cap") {
        Some(v) => v.parse::<usize>().map_err(|_| format!("bad --cap {v:?}"))?,
        None => 256,
    };
    let mut programs = Vec::new();
    for path in &inputs {
        let (program, kind, _) = load_program(path)?;
        if kind == ImageKind::Compressed {
            return Err(format!("{path}: cannot train on compressed images"));
        }
        programs.push(program);
    }
    let refs: Vec<&Program> = programs.iter().collect();
    let metrics = metrics_opts(args)?;
    let config = TrainConfig {
        expander: ExpanderConfig {
            max_rules_per_nt: cap,
            ..ExpanderConfig::default()
        },
        recorder: recorder_of(&metrics),
    };
    let trained = train(&refs, &config).map_err(pipeline_err)?;
    let ig = trained.initial();
    let file = GrammarFile::new(trained.expanded().clone(), ig.nt_start, ig.nt_byte);
    write_file(out, &file.to_bytes())?;
    eprintln!(
        "trained on {} image(s): +{} rules, grammar {} bytes -> {out}",
        inputs.len(),
        trained.stats.rules_added,
        trained.grammar_size()
    );
    emit_metrics(&metrics)?;
    Ok(0)
}

fn compress(args: &[String]) -> Result<i32, String> {
    let pos = positionals(args, "compress")?;
    let [input] = pos.as_slice() else {
        return Err("compress takes exactly one image".into());
    };
    let out = required(args, "-o")?;
    let loaded = load_grammar_spec(args, required(args, "-g")?)?;
    let (program, kind, _) = load_program(input)?;
    if kind == ImageKind::Compressed {
        return Err(format!("{input} is already compressed"));
    }
    let timings = flag(args, "--timings");
    let metrics = metrics_opts(args)?;
    let (recorder, trace_out) = recorder_and_trace(args, &metrics);
    // An enabled recorder times the phases; `--timings` alone gives the
    // engine a private one, whose metrics are never emitted.
    let recorder = if timings && !recorder.is_enabled() {
        Recorder::new()
    } else {
        recorder
    };
    let config = compressor_config(args)?;
    let engine = pgr_core::Compressor::with_recorder(
        &loaded.file.grammar,
        loaded.file.start,
        config,
        recorder.clone(),
    );
    // One root trace id for the whole command; engine workers inherit it
    // and show up as their own lanes under this root span.
    let _trace_id = trace_out.as_ref().map(|_| trace::scope(TraceId::mint()));
    let root_span = recorder.trace_span("pgr.compress");
    let (cp, stats) = engine.compress(&program).map_err(pipeline_err)?;
    drop(root_span);
    // Stamp the grammar's content address into the image header, so
    // downstream commands (and the serve front end) can find the one
    // grammar that decodes this image without being told.
    write_file(
        out,
        &write_program_tagged(
            &cp.program,
            ImageKind::Compressed,
            Some(loaded.id.as_bytes()),
        ),
    )?;
    eprintln!(
        "{input}: {} -> {} code bytes ({:.0}%) -> {out}",
        stats.original_code,
        stats.compressed_code,
        100.0 * stats.ratio()
    );
    if stats.fallback_segments > 0 {
        eprintln!(
            "note: {} segment(s) stored verbatim (not postfix code)",
            stats.fallback_segments
        );
    }
    if timings {
        let t = stats.timings;
        eprintln!(
            "phases: canonicalize {:?}, tokenize {:?}, parse {:?}, emit {:?} ({} thread(s))",
            t.canonicalize,
            t.tokenize,
            t.parse,
            t.emit,
            engine.threads()
        );
    }
    write_trace(&recorder, trace_out.as_deref())?;
    emit_metrics(&metrics)?;
    Ok(0)
}

fn decompress(args: &[String]) -> Result<i32, String> {
    let pos = positionals(args, "decompress")?;
    let [input] = pos.as_slice() else {
        return Err("decompress takes exactly one image".into());
    };
    let out = required(args, "-o")?;
    let (program, kind, header_id) = load_program(input)?;
    if kind == ImageKind::Uncompressed {
        return Err(format!("{input} is not compressed"));
    }
    let loaded = grammar_for_image(args, input, header_id)?;
    let cp = pgr_core::CompressedProgram { program };
    let metrics = metrics_opts(args)?;
    let recorder = recorder_of(&metrics);
    let sw = Stopwatch::start_if(recorder.is_enabled());
    let back = pgr_core::compress::decompress_program(&loaded.file.grammar, loaded.file.start, &cp)
        .map_err(pipeline_err)?;
    if recorder.is_enabled() {
        recorder.record_span(names::SPAN_DECOMPRESS, sw.elapsed());
        recorder.add(names::DECOMPRESS_CALLS, 1);
        recorder.add(names::DECOMPRESS_BYTES, back.code_size() as u64);
    }
    write_file(out, &write_program(&back, ImageKind::Uncompressed))?;
    eprintln!(
        "{input}: decompressed to {} code bytes -> {out}",
        back.code_size()
    );
    emit_metrics(&metrics)?;
    Ok(0)
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let pos = positionals(args, "run")?;
    let [input] = pos.as_slice() else {
        return Err("run takes exactly one image".into());
    };
    let (program, kind, header_id) = load_program(input)?;
    let trace_limit = match opt_value(args, "--trace") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad --trace {v:?}"))?,
        None => 0,
    };
    let metrics = metrics_opts(args)?;
    let (recorder, trace_out) = recorder_and_trace(args, &metrics);
    let segment_cache_entries = match opt_value(args, "--segment-cache") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad --segment-cache {v:?}"))?,
        None => VmConfig::default().segment_cache_entries,
    };
    let config = VmConfig {
        input: opt_value(args, "--stdin").unwrap_or("").as_bytes().to_vec(),
        trace_limit,
        recorder: recorder.clone(),
        reference_walker: flag(args, "--reference-walker"),
        segment_cache_entries,
        ..VmConfig::default()
    };
    // Root trace id for the command; the VM's interpreter thread
    // inherits it and traces `vm.run` / per-procedure `vm.call` spans on
    // its own lane.
    let _trace_id = trace_out.as_ref().map(|_| trace::scope(TraceId::mint()));
    let root_span = recorder.trace_span("pgr.run");
    let result = match kind {
        ImageKind::Uncompressed => {
            let mut vm = Vm::new(&program, config).map_err(|e| e.to_string())?;
            vm.run().map_err(|e| e.to_string())?
        }
        ImageKind::Compressed => {
            let loaded = grammar_for_image(args, input, header_id)?;
            let mut vm = Vm::new_compressed(
                &program,
                &loaded.file.grammar,
                loaded.file.start,
                loaded.file.byte_nt,
                config,
            )
            .map_err(|e| e.to_string())?;
            vm.run().map_err(|e| e.to_string())?
        }
    };
    drop(root_span);
    write_trace(&recorder, trace_out.as_deref())?;
    for ev in &result.trace {
        eprintln!(
            "trace: #{:<3} depth {:<2} {} {}",
            ev.proc,
            ev.depth,
            ev.op,
            if ev.op.operand_bytes() > 0 {
                ev.operand.to_string()
            } else {
                String::new()
            }
        );
    }
    use std::io::Write as _;
    std::io::stdout()
        .write_all(&result.output)
        .map_err(|e| e.to_string())?;
    emit_metrics(&metrics)?;
    Ok(result.exit_code.unwrap_or_else(|| result.ret.i()))
}

/// `pgr verify <image>`: check an image end-to-end without executing
/// it — magic, version, section framing, and payload checksum (all
/// enforced by `read_program`), a byte-exact re-serialization, static
/// validation for uncompressed images, and (with `-g`) a decompression
/// round-trip for compressed ones. Exit 0 means the image is intact.
fn verify(args: &[String]) -> Result<i32, String> {
    let pos = positionals(args, "verify")?;
    let [input] = pos.as_slice() else {
        return Err("verify takes exactly one image".into());
    };
    let bytes = read_file(input)?;
    // Magic, version, lengths, and CRC32 are all checked here; any
    // mutation of the checksummed payload surfaces as an error.
    let (program, kind, raw_id) =
        read_program_tagged(&bytes).map_err(|e| format!("{input}: {e}"))?;
    // The format is canonical: re-encoding the parsed contents (with the
    // same grammar-id tag) must reproduce the file byte for byte, or
    // something survived parsing that the writer would never emit.
    if write_program_tagged(&program, kind, raw_id.as_ref()) != bytes {
        return Err(format!(
            "{input}: image is not the canonical serialization of its contents"
        ));
    }
    let header_id = raw_id.map(GrammarId::from_raw);
    match kind {
        ImageKind::Uncompressed => {
            validate_program(&program).map_err(|e| format!("{input}: {}", pipeline_err(e)))?;
            eprintln!(
                "{input}: OK — uncompressed, {} procedure(s), {} code bytes, checksum and validator pass",
                program.procs.len(),
                program.code_size()
            );
        }
        ImageKind::Compressed => {
            // `-g` wins; without it, an embedded grammar id plus a
            // configured registry is enough. Neither is an error —
            // framing and checksum checks already passed.
            let loaded = if opt_value(args, "-g").is_some()
                || (header_id.is_some() && registry_root(args).is_some())
            {
                Some(grammar_for_image(args, input, header_id)?)
            } else {
                None
            };
            match loaded {
                Some(loaded) => {
                    if let Some(id) = header_id {
                        if id != loaded.id {
                            return Err(format!(
                                "{input}: image was compressed with grammar {id}, \
                                 but the supplied grammar is {}",
                                loaded.id
                            ));
                        }
                    }
                    let cp = pgr_core::CompressedProgram { program };
                    let back = pgr_core::compress::decompress_program(
                        &loaded.file.grammar,
                        loaded.file.start,
                        &cp,
                    )
                    .map_err(|e| format!("{input}: {}", pipeline_err(e)))?;
                    validate_program(&back).map_err(|e| format!("{input}: {}", pipeline_err(e)))?;
                    eprintln!(
                        "{input}: OK — compressed, {} procedure(s), decompresses to {} valid code bytes",
                        cp.program.procs.len(),
                        back.code_size()
                    );
                }
                None => eprintln!(
                    "{input}: OK — compressed, {} procedure(s), checksum and framing pass \
                     (pass -g <grammar> or configure a registry to also check decompression)",
                    program.procs.len()
                ),
            }
        }
    }
    Ok(0)
}

fn stats(args: &[String]) -> Result<i32, String> {
    let pos = positionals(args, "stats")?;
    let [input] = pos.as_slice() else {
        return Err("stats takes exactly one image".into());
    };
    let (program, kind, _) = load_program(input)?;
    let s = pgr_bytecode::image::ImageStats::of(&program);
    println!("kind:          {kind:?}");
    println!("procedures:    {}", program.procs.len());
    println!("code:          {} B", s.code);
    println!("label tables:  {} B", s.label_tables);
    println!("descriptors:   {} B", s.descriptors);
    println!("global table:  {} B", s.global_table);
    println!("trampolines:   {} B", s.trampolines);
    println!("data/bss:      {}/{} B", s.data, s.bss);
    println!("image total:   {} B (interpreter not included)", s.total());
    if kind == ImageKind::Uncompressed {
        let n = pgr_native::measure_program(&program);
        println!("native est.:   {} B code, {} B total", n.code, n.total());
    }
    Ok(0)
}

/// Validate that `text` is a well-formed `pgr-metrics/2` document: the
/// shape `--metrics json` emits and `schema/metrics.schema.json` pins.
///
/// Checks the schema tag, that the four sections are objects, that
/// counters/gauges hold non-negative integers, and that histogram/span
/// entries carry their exact numeric field sets.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn check_metrics_json(text: &str) -> Result<(), String> {
    use pgr_telemetry::json::Value;

    let doc = pgr_telemetry::json::parse(text).map_err(|e| e.to_string())?;
    let root = doc.as_obj().ok_or("root is not an object")?;
    match root.get("schema").and_then(Value::as_str) {
        Some(s) if s == pgr_telemetry::SCHEMA => {}
        Some(s) => {
            return Err(format!(
                "schema is {s:?}, expected {:?}",
                pgr_telemetry::SCHEMA
            ))
        }
        None => return Err("missing \"schema\" string".into()),
    }
    let section = |name: &str| -> Result<&std::collections::BTreeMap<String, Value>, String> {
        root.get(name)
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("missing {name:?} object"))
    };
    for name in ["counters", "gauges"] {
        for (k, v) in section(name)? {
            if v.as_u64().is_none() {
                return Err(format!("{name}[{k:?}] is not a non-negative integer"));
            }
        }
    }
    for (name, fields) in [
        (
            "histograms",
            &["count", "sum", "min", "max", "p50", "p90", "p95", "p99"][..],
        ),
        ("spans", &["count", "total_ns", "min_ns", "max_ns"][..]),
    ] {
        for (k, v) in section(name)? {
            let entry = v
                .as_obj()
                .ok_or_else(|| format!("{name}[{k:?}] is not an object"))?;
            for field in fields {
                if entry.get(*field).and_then(Value::as_u64).is_none() {
                    return Err(format!("{name}[{k:?}] lacks integer field {field:?}"));
                }
            }
            if entry.len() != fields.len() {
                return Err(format!("{name}[{k:?}] has unexpected fields"));
            }
        }
    }
    Ok(())
}

fn metrics_check(args: &[String]) -> Result<i32, String> {
    let pos = positionals(args, "metrics-check")?;
    let [input] = pos.as_slice() else {
        return Err("metrics-check takes exactly one metrics JSON file".into());
    };
    let text = String::from_utf8(read_file(input)?).map_err(|_| format!("{input}: not UTF-8"))?;
    check_metrics_json(&text).map_err(|e| format!("{input}: {e}"))?;
    eprintln!("{input}: valid {} document", pgr_telemetry::SCHEMA);
    Ok(0)
}

fn cgen(args: &[String]) -> Result<i32, String> {
    no_positionals(args, "cgen")?;
    let out = required(args, "-o")?;
    let grammar = load_grammar_spec(args, required(args, "-g")?)?.file.grammar;
    std::fs::create_dir_all(out).map_err(|e| format!("{out}: {e}"))?;
    let dir = Path::new(out);
    let mut files = vec![
        ("interp1.c", pgr_vm::cgen::interp1_source()),
        ("tables.c", pgr_vm::cgen::rule_tables_source(&grammar)),
        ("interp_nt.c", pgr_vm::cgen::interp_nt_source()),
    ];
    if let Some(image) = opt_value(args, "-p") {
        let (program, _, _) = load_program(image)?;
        files.push(("package.c", pgr_vm::cgen::packaging_source(&program)));
    }
    for (name, content) in files {
        std::fs::write(dir.join(name), content).map_err(|e| format!("{name}: {e}"))?;
    }
    let sizes = pgr_vm::cgen::interpreter_sizes(&grammar);
    eprintln!(
        "wrote interp1.c/tables.c/interp_nt.c to {out} (modeled: initial {} B, compressed {} B)",
        sizes.initial, sizes.compressed
    );
    Ok(0)
}

// ---- registry and serve -------------------------------------------------

fn cmd_registry(args: &[String]) -> Result<i32, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("usage: pgr registry <add|list|rm|gc> ...".into());
    };
    let command = if sub == "add" {
        "registry add"
    } else {
        "registry"
    };
    let pos = positionals(rest, command)?;
    let registry = open_registry(args)?;
    match sub.as_str() {
        "add" => {
            let [path] = pos.as_slice() else {
                return Err("registry add takes exactly one .pgrg file".into());
            };
            let label = opt_value(rest, "--label").unwrap_or("");
            let bytes = read_file(path)?;
            let manifest = registry.store_bytes(&bytes, label).map_err(pipeline_err)?;
            println!("{}", manifest.id);
            eprintln!(
                "stored {path}: {} B, {} non-terminal(s), {} rule(s)",
                manifest.bytes, manifest.nt_count, manifest.rule_count
            );
            Ok(0)
        }
        "list" => {
            for m in registry.list().map_err(pipeline_err)? {
                println!(
                    "{}  {:>8} B  {:>4} NTs  {:>5} rules  {}",
                    m.id, m.bytes, m.nt_count, m.rule_count, m.label
                );
            }
            Ok(0)
        }
        "rm" => {
            let [spec] = pos.as_slice() else {
                return Err("registry rm takes exactly one id (or prefix)".into());
            };
            let id = registry.resolve(spec).map_err(pipeline_err)?;
            registry.remove(&id).map_err(pipeline_err)?;
            eprintln!("removed {id}");
            Ok(0)
        }
        "gc" => {
            let mut keep = Vec::new();
            for spec in pos {
                keep.push(registry.resolve(spec).map_err(pipeline_err)?);
            }
            let report = registry.gc(&keep).map_err(pipeline_err)?;
            eprintln!(
                "gc: removed {} grammar(s), pruned {} corrupt entr(ies)",
                report.removed.len(),
                report.pruned_corrupt.len()
            );
            Ok(0)
        }
        other => Err(format!("unknown registry subcommand {other:?}")),
    }
}

fn cmd_serve(args: &[String]) -> Result<i32, String> {
    no_positionals(args, "serve")?;
    let socket = required(args, "--socket")?;
    let root = registry_root(args)
        .ok_or("no registry configured (pass --registry <dir> or set $PGR_REGISTRY)")?;
    let threads = match opt_value(args, "--threads") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("bad --threads {v:?}"))?,
        None => 0, // one worker per CPU
    };
    let slow_ms = match opt_value(args, "--slow-ms") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("bad --slow-ms {v:?}"))?,
        ),
        None => None,
    };
    let uint = |name: &str, default: u64| -> Result<u64, String> {
        match opt_value(args, name) {
            Some(v) => v.parse::<u64>().map_err(|_| format!("bad {name} {v:?}")),
            None => Ok(default),
        }
    };
    let defaults = ServeConfig::default();
    let workers = uint("--workers", defaults.workers as u64)? as usize;
    let batch_window_us = uint("--batch-window-us", defaults.batch_window_us)?;
    let max_connections = uint("--max-connections", defaults.max_connections as u64)? as usize;
    let max_queue = uint("--max-queue", defaults.max_queue as u64)? as usize;
    let max_engines = uint("--max-engines", defaults.max_engines as u64)? as usize;
    let max_line_bytes = uint("--max-line-bytes", defaults.max_line_bytes as u64)? as usize;
    let slow_trace_max_bytes = uint("--slow-trace-max-bytes", defaults.slow_trace_max_bytes)?;
    let opt_uint = |name: &str| -> Result<Option<u64>, String> {
        match opt_value(args, name) {
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("bad {name} {v:?}")),
            None => Ok(None),
        }
    };
    let request_timeout_ms = opt_uint("--request-timeout-ms")?;
    let idle_timeout_ms = opt_uint("--idle-timeout-ms")?;
    let slow_trace: Option<std::path::PathBuf> = opt_value(args, "--slow-trace").map(Into::into);
    if slow_trace.is_some() && slow_ms.is_none() {
        return Err("--slow-trace needs --slow-ms <threshold>".into());
    }
    let slow_path = slow_trace
        .clone()
        .unwrap_or_else(|| Path::new(socket).with_extension("slow.ndjson"));
    let metrics = metrics_opts(args)?;
    // The server always records: `stats` responses snapshot the
    // recorder, so a disabled one would serve empty metrics.
    let recorder = match &metrics {
        Some(opts) => opts.recorder.clone(),
        None => Recorder::new(),
    };
    let server = Server::bind(
        socket,
        ServeConfig {
            registry_root: root.into(),
            threads,
            recorder,
            slow_ms,
            slow_trace,
            workers,
            batch_window_us,
            max_connections,
            max_queue,
            max_engines,
            request_timeout_ms,
            idle_timeout_ms,
            max_line_bytes,
            slow_trace_max_bytes,
        },
    )
    .map_err(pipeline_err)?;
    if let Some(ms) = slow_ms {
        eprintln!(
            "pgr serve: tracing requests >= {ms} ms to {}",
            slow_path.display()
        );
    }
    eprintln!("pgr serve: listening on {socket} (send {{\"op\":\"shutdown\"}} to stop)");
    server.run().map_err(pipeline_err)?;
    emit_metrics(&metrics)?;
    eprintln!("pgr serve: shut down");
    Ok(0)
}

/// `pgr call --socket <path> [<request-json>]`: send one request line
/// (or every stdin line when no positional is given) through the
/// retrying [`pgr_client::Client`] and print each response line to
/// stdout. `--timeout-ms` propagates the deadline; `--retries`,
/// `--backoff-ms`, `--seed`, and `--breaker-threshold` shape the retry
/// policy; `--verbose` reports the client's attempt/retry/breaker
/// counters on stderr. Exits 0 when every response was `ok`, 1 when any
/// answered in-band error, or an error when the transport gave out.
fn cmd_call(args: &[String]) -> Result<i32, String> {
    use pgr_client::{CallError, Client, ClientConfig};
    use std::io::BufRead as _;

    let pos = positionals(args, "call")?;
    let socket = required(args, "--socket")?;
    let uint = |name: &str, default: u64| -> Result<u64, String> {
        match opt_value(args, name) {
            Some(v) => v.parse::<u64>().map_err(|_| format!("bad {name} {v:?}")),
            None => Ok(default),
        }
    };
    let defaults = ClientConfig::default();
    let timeout_ms = match opt_value(args, "--timeout-ms") {
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("bad --timeout-ms {v:?}"))?,
        ),
        None => None,
    };
    let config = ClientConfig {
        socket: socket.into(),
        timeout_ms,
        max_retries: uint("--retries", u64::from(defaults.max_retries))? as u32,
        backoff_base_ms: uint("--backoff-ms", defaults.backoff_base_ms)?,
        seed: uint("--seed", defaults.seed)?,
        breaker_threshold: uint("--breaker-threshold", u64::from(defaults.breaker_threshold))?
            as u32,
        ..defaults
    };
    let verbose = flag(args, "--verbose");
    let mut client = Client::new(config);
    let requests: Vec<String> = if pos.is_empty() {
        std::io::stdin()
            .lock()
            .lines()
            .collect::<Result<_, _>>()
            .map_err(|e| format!("stdin: {e}"))?
    } else {
        pos.iter().map(|s| s.to_string()).collect()
    };
    let mut all_ok = true;
    for request in &requests {
        if request.trim().is_empty() {
            continue;
        }
        let response = client.call(request).map_err(|e| match e {
            CallError::BreakerOpen { .. } | CallError::RetriesExhausted { .. } => {
                format!("{socket}: {e}")
            }
            CallError::BadRequest(_) => e.to_string(),
        })?;
        println!("{}", response.line);
        all_ok &= response.ok;
    }
    if verbose {
        let s = client.stats();
        eprintln!(
            "pgr call: {} attempt(s), {} retr(ies), {} connect(s), \
             {} overloaded response(s) absorbed, breaker {:?}",
            s.attempts,
            s.retries,
            s.connects,
            s.overloaded,
            client.breaker(),
        );
    }
    Ok(i32::from(!all_ok))
}

/// `pgr chaos-proxy --listen <sock> --upstream <sock>`: run the
/// socket-level fault proxy (see [`pgr_registry::chaos`]) for
/// `--duration-ms` (0 = until killed), then print the fault counters.
/// All fault decisions derive from `--seed`, so a failing chaos run is
/// replayable from its command line alone.
fn cmd_chaos_proxy(args: &[String]) -> Result<i32, String> {
    use pgr_registry::{ChaosConfig, ChaosProxy};
    use std::sync::atomic::Ordering;

    no_positionals(args, "chaos-proxy")?;
    let listen = required(args, "--listen")?;
    let upstream = required(args, "--upstream")?;
    let d = ChaosConfig::default();
    let uint = |name: &str, default: u64| -> Result<u64, String> {
        match opt_value(args, name) {
            Some(v) => v.parse::<u64>().map_err(|_| format!("bad {name} {v:?}")),
            None => Ok(default),
        }
    };
    let rate = |name: &str, default: u16| -> Result<u16, String> {
        let v = uint(name, u64::from(default))?;
        u16::try_from(v.min(1024)).map_err(|_| format!("bad {name}"))
    };
    let config = ChaosConfig {
        seed: uint("--seed", d.seed)?,
        partial_write_per_1024: rate("--partial-per-1024", d.partial_write_per_1024)?,
        reset_per_1024: rate("--reset-per-1024", d.reset_per_1024)?,
        stall_per_1024: rate("--stall-per-1024", d.stall_per_1024)?,
        stall_ms: uint("--stall-ms", d.stall_ms)?,
        garbage_per_1024: rate("--garbage-per-1024", d.garbage_per_1024)?,
    };
    let duration_ms = uint("--duration-ms", 0)?;
    let proxy = ChaosProxy::start(Path::new(listen), Path::new(upstream), config)
        .map_err(|e| format!("{listen}: {e}"))?;
    eprintln!(
        "pgr chaos-proxy: {listen} -> {upstream} (seed {})",
        config.seed
    );
    if duration_ms == 0 {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_millis(duration_ms));
    let c = proxy.counters();
    eprintln!(
        "pgr chaos-proxy: {} connection(s), {} partial write(s), {} reset(s), \
         {} stall(s), {} garbage line(s)",
        c.connections.load(Ordering::SeqCst),
        c.partial_writes.load(Ordering::SeqCst),
        c.resets.load(Ordering::SeqCst),
        c.stalls.load(Ordering::SeqCst),
        c.garbage.load(Ordering::SeqCst),
    );
    proxy.stop();
    Ok(0)
}

/// Render one serve `stats` response (one NDJSON line) as the `pgr top`
/// screen: a header with uptime and rolling-window rates, then one row
/// per op combining windowed and lifetime latency quantiles, then the
/// window's per-grammar breakdown. Pure — `cmd_top` polls the socket
/// and repaints with this.
///
/// # Errors
///
/// When the response is not valid JSON, is an error response, or lacks
/// the `stats` shape.
pub fn render_top(response: &str) -> Result<String, String> {
    use pgr_telemetry::json::Value;
    use std::fmt::Write as _;

    let doc = pgr_telemetry::json::parse(response).map_err(|e| format!("bad stats JSON: {e}"))?;
    if doc.get("ok").and_then(Value::as_bool) != Some(true) {
        let why = doc
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("not a stats response");
        return Err(format!("server error: {why}"));
    }
    let window = doc.get("window").ok_or("stats response lacks \"window\"")?;
    let metrics = doc
        .get("metrics")
        .ok_or("stats response lacks \"metrics\"")?;
    let num = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64).unwrap_or(0);
    let fnum = |v: &Value, key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "pgr top — uptime {}s   window {}s   requests {}   rps {:.3}   errors {} ({:.2}%)",
        num(&doc, "uptime_secs"),
        num(window, "window_secs"),
        num(window, "requests"),
        fnum(window, "rps"),
        num(window, "errors"),
        100.0 * fnum(window, "error_rate"),
    );
    // Backpressure and batching at a glance: the live queue depth and
    // resident-engine count, the window's rejected count/rate, and the
    // window's batch-size / batch-wait quantiles.
    let rejected = num(window, "rejected");
    let win_requests = num(window, "requests");
    let rejected_pct = if win_requests == 0 {
        0.0
    } else {
        100.0 * rejected as f64 / win_requests as f64
    };
    let batch_size = window.get("batch_size");
    let batch_wait = window.get("batch_wait");
    let quant = |h: Option<&Value>, key: &str| h.map_or(0, |h| num(h, key));
    let _ = writeln!(
        out,
        "queue depth {}   engines {}   rejected {rejected} ({rejected_pct:.2}%)   \
         batch size p50/p99 {}/{}   batch wait µs p50/p99 {}/{}   \
         segments compiled {}",
        num(&doc, "queue_depth"),
        num(&doc, "engines"),
        quant(batch_size, "p50"),
        quant(batch_size, "p99"),
        quant(batch_wait, "p50"),
        quant(batch_wait, "p99"),
        num(window, "tier2_compiled"),
    );
    // Robustness counters: deadline expiries (and the subset the
    // reactor's watchdog had to force), idle evictions, and oversized
    // request lines, all within the rolling window.
    let _ = writeln!(
        out,
        "deadline exceeded {} (forced {})   idle closed {}   line overflow {}",
        num(window, "deadline_exceeded"),
        num(window, "force_expired"),
        num(window, "idle_closed"),
        num(window, "line_overflow"),
    );
    out.push('\n');
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>8} {:>8} | {:>9} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "op", "win", "p50", "p99", "life", "p50", "p90", "p95", "p99", "max"
    );

    // Every op the lifetime histograms know about (pre-registered at
    // bind, so all serve ops appear even before their first request),
    // joined with the rolling window's view.
    let hists = metrics.get("histograms").and_then(Value::as_obj);
    let win_ops = window.get("ops").and_then(Value::as_obj);
    let mut rows = 0;
    if let Some(hists) = hists {
        for (name, life) in hists {
            let Some(op) = op_of_hist_name(name) else {
                continue;
            };
            let win = win_ops.and_then(|m| m.get(op));
            let (wc, wp50, wp99) = match win {
                Some(w) => (num(w, "count"), num(w, "p50"), num(w, "p99")),
                None => (0, 0, 0),
            };
            let _ = writeln!(
                out,
                "{op:<12} {wc:>7} {wp50:>8} {wp99:>8} | {:>9} {:>8} {:>8} {:>8} {:>8} {:>9}",
                num(life, "count"),
                num(life, "p50"),
                num(life, "p90"),
                num(life, "p95"),
                num(life, "p99"),
                num(life, "max"),
            );
            rows += 1;
        }
    }
    if rows == 0 {
        out.push_str("(no serve.request.<op>.micros histograms yet)\n");
    }

    if let Some(grammars) = window.get("grammars").and_then(Value::as_obj) {
        if !grammars.is_empty() {
            out.push('\n');
            let _ = writeln!(
                out,
                "{:<20} {:>7} {:>8} {:>8} {:>9}",
                "grammar (window)", "count", "p50", "p99", "max"
            );
            for (id, h) in grammars {
                let short: String = id.chars().take(16).collect();
                let _ = writeln!(
                    out,
                    "{short:<20} {:>7} {:>8} {:>8} {:>9}",
                    num(h, "count"),
                    num(h, "p50"),
                    num(h, "p99"),
                    num(h, "max"),
                );
            }
        }
    }
    out.push_str("\nlatencies in micros — window columns roll, life columns accumulate\n");
    Ok(out)
}

/// `pgr top --socket <path>`: poll the server's `stats` op and repaint a
/// live latency/throughput table. `--interval-ms` sets the poll period
/// (default 1000); `--iterations N` stops after N paints (0 = forever,
/// the default) so scripts and tests can take one sample.
fn cmd_top(args: &[String]) -> Result<i32, String> {
    use std::io::{BufRead, BufReader, IsTerminal, Write as _};

    no_positionals(args, "top")?;
    let socket = required(args, "--socket")?;
    let interval_ms = match opt_value(args, "--interval-ms") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("bad --interval-ms {v:?}"))?,
        None => 1000,
    };
    let iterations = match opt_value(args, "--iterations") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("bad --iterations {v:?}"))?,
        None => 0,
    };
    let stream = std::os::unix::net::UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to {socket}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("{socket}: {e}"))?);
    let mut writer = stream;
    // Repaint via ANSI clear only when stdout is a live terminal;
    // redirected output gets plain appended frames.
    let clear = std::io::stdout().is_terminal();
    let mut painted = 0u64;
    loop {
        writeln!(writer, "{{\"op\":\"stats\"}}").map_err(|e| format!("{socket}: {e}"))?;
        let mut line = String::new();
        if reader
            .read_line(&mut line)
            .map_err(|e| format!("{socket}: {e}"))?
            == 0
        {
            return Err(format!("{socket}: server closed the connection"));
        }
        let screen = render_top(&line)?;
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{screen}");
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        painted += 1;
        if iterations != 0 && painted >= iterations {
            return Ok(0);
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}
