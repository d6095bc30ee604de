//! Expander throughput: forest build + greedy inline/contract loop.
//!
//! `train_synth_8x40` trains on eight generated programs of 40 functions
//! each, alternating flavours: the size and shape of the benchmark's
//! training set, whose forest is far larger than the two corpora's.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pgr_bytecode::Program;
use pgr_core::{train, TrainConfig};
use pgr_corpus::synth::{self, Flavor, SynthConfig};
use pgr_corpus::{corpus, CorpusName};

/// Eight 40-function synthetic programs, both flavours.
fn synth_8x40() -> Vec<Program> {
    (0..8u64)
        .map(|i| {
            synth::generate(&SynthConfig {
                seed: 0x8_40 + i,
                functions: 40,
                flavor: if i % 2 == 0 {
                    Flavor::Compiler
                } else {
                    Flavor::Numeric
                },
            })
        })
        .collect()
}

fn bench_training(c: &mut Criterion) {
    let gzip = corpus(CorpusName::Gzip);
    let eightq = corpus(CorpusName::EightQ);
    let synth = synth_8x40();
    let mut group = c.benchmark_group("training");
    group.sample_size(20);
    group.bench_function("train_8q", |b| {
        b.iter_batched(
            || eightq.refs(),
            |refs| train(&refs, &TrainConfig::default()).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("train_gzip_corpus", |b| {
        b.iter_batched(
            || gzip.refs(),
            |refs| train(&refs, &TrainConfig::default()).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("train_synth_8x40", |b| {
        b.iter_batched(
            || synth.iter().collect::<Vec<&Program>>(),
            |refs| train(&refs, &TrainConfig::default()).unwrap(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
