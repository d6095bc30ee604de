//! Telemetry overhead: compress throughput with the recorder disabled
//! (the default) must sit within noise of an uninstrumented build, and
//! the enabled cost should stay small. The disabled path is one cached
//! `bool` per flush site — the interpreter and encoder loops never touch
//! an atomic or the clock.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pgr_core::{train, CompressorConfig, TrainConfig};
use pgr_corpus::{corpus, CorpusName};
use pgr_telemetry::Recorder;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: defers entirely to the system allocator; only a counter is
// added on the allocation path.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Hard gate, checked before any throughput numbers are collected: the
/// disabled-recorder path (what every uninstrumented run pays, at every
/// flush site) must not allocate or read the clock, histogram-quantile
/// upgrade included. A regression here fails the bench run outright
/// instead of showing up as a few lost percent in the noise.
fn assert_disabled_path_is_free() {
    let r = Recorder::disabled();
    r.add("warm.up", 1);
    r.observe("warm.up.micros", 1);
    drop(r.span("warm.up.span"));
    drop(r.trace_span("warm.up.trace"));
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        r.add("fast.counter", i);
        r.observe("fast.hist", i);
        drop(r.span("fast.span"));
        drop(r.trace_span("fast.trace"));
        let sw = pgr_telemetry::Stopwatch::start_if(r.is_enabled());
        assert!(!sw.is_running(), "disabled stopwatch read the clock");
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "disabled telemetry fast path allocated");
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    assert_disabled_path_is_free();
    let gzip = corpus(CorpusName::Gzip);
    let trained = train(&gzip.refs(), &TrainConfig::default()).unwrap();

    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(gzip.code_size() as u64));

    let quiet = trained.compressor();
    group.bench_function("compress_disabled_recorder", |b| {
        b.iter(|| {
            for p in &gzip.programs {
                std::hint::black_box(quiet.compress(p).unwrap());
            }
        })
    });

    let recorder = Recorder::new();
    let loud = trained.compressor_with_recorder(CompressorConfig::default(), recorder.clone());
    group.bench_function("compress_enabled_recorder", |b| {
        b.iter(|| {
            for p in &gzip.programs {
                std::hint::black_box(loud.compress(p).unwrap());
            }
        })
    });
    let _ = recorder.take();

    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
