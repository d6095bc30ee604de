//! Machine-readable metric dumps: the `BENCH_*.json` hook.
//!
//! Every bench or experiment can ship its telemetry as a
//! `pgr-metrics/2` JSON document (the same shape `pgr ... --metrics
//! json` emits, so `pgr metrics-check` validates it). Dumps are written
//! to the directory named by the `PGR_BENCH_METRICS_DIR` environment
//! variable as `BENCH_<name>.json`; when the variable is unset the hook
//! is inert, so benches stay side-effect-free by default.
//!
//! `tables -- metrics` drives [`pipeline_metrics`] — an instrumented
//! train + self-compress of the gzip corpus — through this hook, which
//! makes the perf trajectory machine-readable from one command:
//!
//! ```text
//! PGR_BENCH_METRICS_DIR=out cargo run -p pgr-bench --release --bin tables -- metrics
//! pgr metrics-check out/BENCH_pipeline.json
//! ```

use pgr_core::{train, TrainConfig};
use pgr_corpus::{corpus, CorpusName};
use pgr_telemetry::Metrics;
use std::path::PathBuf;

/// The dump directory, when the `PGR_BENCH_METRICS_DIR` hook is armed.
pub fn metrics_dir() -> Option<PathBuf> {
    std::env::var_os("PGR_BENCH_METRICS_DIR").map(PathBuf::from)
}

/// Write `metrics` to `BENCH_<name>.json` under [`metrics_dir`].
/// Returns the path written, or `None` when the hook is unarmed.
///
/// # Errors
///
/// Propagates directory-creation and file-write failures.
pub fn dump(name: &str, metrics: &Metrics) -> std::io::Result<Option<PathBuf>> {
    let Some(dir) = metrics_dir() else {
        return Ok(None);
    };
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, metrics.to_json())?;
    Ok(Some(path))
}

/// Run an instrumented compress of the gzip corpus under its own trained
/// grammar (training itself is unobserved) and return exactly what a
/// `pgr compress --metrics json` run records: the `compress.*` and
/// `tiler.*` families. This is the `BENCH_compress.json` baseline
/// the repo commits and CI re-validates.
pub fn compress_metrics() -> Metrics {
    let c = corpus(CorpusName::Gzip);
    let trained = train(&c.refs(), &TrainConfig::default()).expect("gzip corpus trains");
    let recorder = pgr_telemetry::Recorder::new();
    let engine =
        trained.compressor_with_recorder(pgr_core::CompressorConfig::default(), recorder.clone());
    for p in &c.programs {
        engine.compress(p).expect("gzip corpus compresses");
    }
    recorder.snapshot()
}

/// Run an instrumented compressed execution of the 8-queens sample
/// under its own trained grammar and return exactly what a
/// `pgr run <image>.pgrc --metrics json` run records: the `vm.*` step,
/// call, walk, dispatch, segment-cache, and rule-program families. This
/// is the `BENCH_run.json` baseline the repo commits and CI
/// re-validates.
pub fn run_metrics() -> Metrics {
    let program = pgr_corpus::compile_sample("8q");
    let trained = train(&[&program], &TrainConfig::default()).expect("8q trains");
    let (cp, _) = trained.compress(&program).expect("8q compresses");
    let ig = trained.initial();
    let recorder = pgr_telemetry::Recorder::new();
    let config = pgr_vm::VmConfig {
        recorder: recorder.clone(),
        ..pgr_vm::VmConfig::default()
    };
    let mut vm = pgr_vm::Vm::new_compressed(
        &cp.program,
        trained.expanded(),
        ig.nt_start,
        ig.nt_byte,
        config,
    )
    .expect("8q image loads");
    vm.run().expect("8q runs");
    recorder.snapshot()
}

/// Run an instrumented train + self-compress of the gzip corpus and
/// return everything the pipeline recorded: trainer, validator, tiler,
/// and per-phase span metrics.
pub fn pipeline_metrics() -> Metrics {
    let recorder = pgr_telemetry::Recorder::new();
    let c = corpus(CorpusName::Gzip);
    let config = TrainConfig {
        recorder: recorder.clone(),
        ..TrainConfig::default()
    };
    let trained = train(&c.refs(), &config).expect("gzip corpus trains");
    let engine =
        trained.compressor_with_recorder(pgr_core::CompressorConfig::default(), recorder.clone());
    for p in &c.programs {
        engine.compress(p).expect("gzip corpus compresses");
    }
    recorder.snapshot()
}
