//! The pgr benchmark: one command per named workload.
//!
//! ```text
//! perfbench --workload <compress-heldout|run-compressed|serve-mixed>
//!           --seed N --seconds S --trace <0|1>
//!           [--pgr path/to/pgr] [--state dir]
//! ```
//!
//! Prints human-readable detail lines starting with `#`, then one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. Untraced runs
//! report the end-to-end metrics; traced runs (`--trace 1`) repeat the
//! untraced measurement, measure again with telemetry on, and report the
//! per-layer metrics, 0 for a layer the workload does not exercise.
//! Either way the metrics are exactly those BENCHMARK.json lists; what
//! else a run measured goes on `#` lines. Exits non-zero on any output
//! mismatch.

mod inputs;
mod offline;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// What a workload is run with.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Directory for `serve-mixed`'s registries, sockets, logs, and
    /// trace dumps.
    pub state: PathBuf,
    /// The `pgr` binary `serve-mixed` drives.
    pub pgr: PathBuf,
}

const WORKLOADS: [&str; 3] = ["compress-heldout", "run-compressed", "serve-mixed"];

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag).ok_or_else(|| format!("missing {flag}"))?;
        v.parse().map_err(|_| format!("bad {flag} {v:?}"))
    };
    let workload = value("--workload").ok_or("missing --workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("bad --trace {t}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok((
        workload,
        Ctx {
            seed: number("--seed")?,
            seconds,
            trace,
            state: PathBuf::from(value("--state").unwrap_or(".bench_build/perfbench-state")),
            pgr: PathBuf::from(value("--pgr").unwrap_or(".bench_build/release/pgr")),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = match workload.as_str() {
        "compress-heldout" => offline::compress_heldout(&ctx),
        "run-compressed" => offline::run_compressed(&ctx),
        _ => match serve::serve_mixed(&ctx) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("perfbench: serve-mixed: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let section = if ctx.trace { "per_layer" } else { "end_to_end" };
    let conformed = report::manifest_metrics(report::MANIFEST, section)
        .and_then(|wanted| report.conform(&wanted, ctx.trace));
    let conformed = match conformed {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &conformed.extra {
        println!("# {} {} {}", m.name, m.value, m.unit);
    }
    if !conformed.idle.is_empty() {
        println!(
            "# 0 for the layers {workload} does not exercise: {}",
            conformed.idle.join(", ")
        );
    }
    for m in &report.mismatches {
        eprintln!("perfbench: mismatch: {m}");
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
