//! Expander throughput: forest build + greedy inline/contract loop.
//!
//! `train_synth_8x40` trains on eight generated programs of 40 functions
//! each, alternating flavours: the size and shape of the benchmark's
//! training set, whose forest is far larger than the two corpora's and
//! shares the most (under 8% of its tree nodes are distinct subtrees).
//! `expand_synth_8x40` times the greedy loop alone on that set: each
//! sample expands a clone of one prebuilt shared forest, so ingest
//! (validation, canonicalization, tokenizing, parsing into classes) is
//! out of the measurement. `train_8q` and `train_gzip_corpus` are the
//! legs with the least sharing.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pgr_bytecode::Program;
use pgr_core::{canonicalize_program, expand, train, ExpanderConfig, TrainConfig};
use pgr_corpus::synth::{self, Flavor, SynthConfig};
use pgr_corpus::{corpus, CorpusName};
use pgr_grammar::initial::tokenize_segment;
use pgr_grammar::{InitialGrammar, SharedForest};

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

/// The forest `train` expands: every segment of every canonicalized
/// procedure, parsed under the initial grammar into shared classes.
fn training_forest(ig: &InitialGrammar, programs: &[Program]) -> SharedForest {
    let mut forest = SharedForest::new();
    for program in programs {
        let canon = canonicalize_program(program).expect("synth programs canonicalize");
        for proc in &canon.procs {
            for range in proc.segments().expect("canonical code decodes") {
                let tokens = tokenize_segment(&proc.code[range]).expect("segment tokenizes");
                forest.add_segment(ig, &tokens).expect("segment parses");
            }
        }
    }
    forest
}

fn bench_training(c: &mut Criterion) {
    let gzip = corpus(CorpusName::Gzip);
    let eightq = corpus(CorpusName::EightQ);
    let synth = synth_8x40();
    let ig = InitialGrammar::build();
    let forest = training_forest(&ig, &synth);
    // As `train` configures the expander.
    let config = ExpanderConfig {
        escape_reserve: Some(ig.nt_start),
        ..ExpanderConfig::default()
    };
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
    group.bench_function("expand_synth_8x40", |b| {
        b.iter_batched(
            || (ig.grammar.clone(), forest.clone()),
            |(mut grammar, mut forest)| {
                let stats = expand(&mut grammar, &mut forest, &config);
                (stats, grammar, forest)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
