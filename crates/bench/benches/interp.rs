//! Interpreter dispatch overhead: interp1 (uncompressed) vs interp_nt
//! (compressed). The paper's scenario tolerates interpretation overhead
//! (ROM-bound embedded code); this quantifies ours — and, since the VM
//! runs compressed code as compiled segment programs, decoded once and
//! cached, it also measures that path, and the same with the cache off
//! (every visit decodes), against the reference grammar walker. The
//! summary line at the end reports the plain-vs-compressed ratio for
//! every configuration so the README Performance table can quote one
//! number per row.

use criterion::{criterion_group, criterion_main, Criterion};
use pgr_core::{train, TrainConfig};
use pgr_corpus::compile_sample;
use pgr_vm::{Vm, VmConfig};
use std::time::{Duration, Instant};

/// Median-of-`samples` wall-clock for one run under `f`.
fn measure(samples: usize, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn bench_interp(c: &mut Criterion) {
    let program = compile_sample("8q");
    let trained = train(&[&program], &TrainConfig::default()).unwrap();
    let (cp, _) = trained.compress(&program).unwrap();
    let ig = trained.initial();

    let compressed_config = |reference_walker: bool, segment_cache_entries: usize| VmConfig {
        reference_walker,
        segment_cache_entries,
        ..VmConfig::default()
    };
    let run_compressed = |config: VmConfig| {
        let mut vm = Vm::new_compressed(
            &cp.program,
            trained.expanded(),
            ig.nt_start,
            ig.nt_byte,
            config,
        )
        .unwrap();
        std::hint::black_box(vm.run().unwrap());
    };

    let mut group = c.benchmark_group("interp");
    group.sample_size(10);
    group.bench_function("interp1_8q", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&program, VmConfig::default()).unwrap();
            std::hint::black_box(vm.run().unwrap());
        })
    });
    group.bench_function("interp_nt_8q", |b| {
        b.iter(|| run_compressed(compressed_config(false, 1024)))
    });
    group.bench_function("interp_nt_8q_nocache", |b| {
        b.iter(|| run_compressed(compressed_config(false, 0)))
    });
    group.bench_function("interp_nt_8q_reference", |b| {
        b.iter(|| run_compressed(compressed_config(true, 0)))
    });
    group.finish();

    // Plain-vs-compressed summary: one median per configuration, plus
    // the ratios the README quotes. The reference walker is the
    // "before"; the cached segment programs are the "after".
    let plain = measure(9, || {
        let mut vm = Vm::new(&program, VmConfig::default()).unwrap();
        std::hint::black_box(vm.run().unwrap());
    });
    let fast = measure(9, || run_compressed(compressed_config(false, 1024)));
    let nocache = measure(9, || run_compressed(compressed_config(false, 0)));
    let reference = measure(9, || run_compressed(compressed_config(true, 0)));
    let ratio = |a: Duration, b: Duration| a.as_secs_f64() / b.as_secs_f64();
    println!(
        "interp ratio (8q): plain {plain:.2?}; compressed {fast:.2?} ({:.2}x plain), \
         cache-off {nocache:.2?} ({:.2}x plain), reference {reference:.2?} ({:.2}x plain); \
         compressed is {:.2}x over the reference walker",
        ratio(fast, plain),
        ratio(nocache, plain),
        ratio(reference, plain),
        ratio(reference, fast),
    );

    // When the PGR_BENCH_METRICS_DIR hook is armed, ship the instrumented
    // compressed run as BENCH_run.json (the committed baseline).
    if pgr_bench::telemetry::metrics_dir().is_some() {
        let m = pgr_bench::telemetry::run_metrics();
        match pgr_bench::telemetry::dump("run", &m) {
            Ok(Some(path)) => println!("metrics dumped to {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("metrics dump failed: {e}"),
        }
    }
}

criterion_group!(benches, bench_interp);
criterion_main!(benches);
