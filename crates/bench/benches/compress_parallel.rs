//! Parallel-encoding scaling: the same corpus compressed by a 1-thread
//! engine and by an engine with one worker per CPU.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pgr_core::{train, CompressorConfig, TrainConfig};
use pgr_corpus::{corpus, CorpusName};

fn bench_compress_parallel(c: &mut Criterion) {
    let gzip = corpus(CorpusName::Gzip);
    let trained = train(&gzip.refs(), &TrainConfig::default()).unwrap();
    let cpus = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    let mut group = c.benchmark_group("compress_parallel");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(gzip.code_size() as u64));
    let mut threads: Vec<usize> = vec![1];
    if cpus > 1 {
        threads.push(cpus);
    }
    for t in threads {
        let engine = trained.compressor_with(CompressorConfig::default().threads(t));
        group.bench_with_input(BenchmarkId::new("threads", t), &t, |b, _| {
            b.iter(|| {
                for p in &gzip.programs {
                    std::hint::black_box(engine.compress(p).unwrap());
                }
            })
        });
    }
    group.finish();

    // When the PGR_BENCH_METRICS_DIR hook is armed, ship the instrumented
    // compress run as BENCH_compress.json (the committed baseline).
    if pgr_bench::telemetry::metrics_dir().is_some() {
        let m = pgr_bench::telemetry::compress_metrics();
        match pgr_bench::telemetry::dump("compress", &m) {
            Ok(Some(path)) => println!("metrics dumped to {}", path.display()),
            Ok(None) => {}
            Err(e) => eprintln!("metrics dump failed: {e}"),
        }
    }
}

criterion_group!(benches, bench_compress_parallel);
criterion_main!(benches);
