//! The shortest-derivation hot path itself, over every straight-line
//! segment of the gzip corpus under an expanded grammar: the compressor's
//! tiler against the reference Earley parser (fresh per-parse scratch,
//! and one reused [`ChartArena`]). No tokenizing, caching, or emit work
//! is in the loop, so the legs compare the two encoders alone; each
//! derivation is checked once to be equally short before timing starts.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pgr_bytecode::{instrs, Opcode};
use pgr_core::tile::{TileScratch, Tiler};
use pgr_core::{canonicalize_program, train, TrainConfig};
use pgr_corpus::{corpus, CorpusName};
use pgr_earley::{ChartArena, ShortestParser};
use pgr_grammar::initial::tokenize_segment;
use pgr_grammar::Terminal;

/// Every straight-line segment of the corpus, canonicalized and
/// tokenized — exactly the inputs the compressor hands the parser.
fn corpus_segments() -> (pgr_core::Trained, Vec<Vec<Terminal>>) {
    let gzip = corpus(CorpusName::Gzip);
    let trained = train(&gzip.refs(), &TrainConfig::default()).unwrap();
    let mut segments = Vec::new();
    for p in &gzip.programs {
        let canon = canonicalize_program(p).unwrap();
        for proc in &canon.procs {
            let mut seg_start = 0usize;
            let mut push = |range: std::ops::Range<usize>| {
                segments.push(tokenize_segment(&proc.code[range]).unwrap());
            };
            for insn in instrs(&proc.code) {
                let insn = insn.expect("canonical code decodes");
                if insn.opcode == Opcode::LABELV {
                    if insn.offset > seg_start {
                        push(seg_start..insn.offset);
                    }
                    seg_start = insn.offset + 1;
                }
            }
            if proc.code.len() > seg_start {
                push(seg_start..proc.code.len());
            }
        }
    }
    (trained, segments)
}

fn bench_earley_hot(c: &mut Criterion) {
    let (trained, segments) = corpus_segments();
    let parser = ShortestParser::new(trained.expanded());
    let start = trained.initial().nt_start;
    let tiler = Tiler::new(trained.expanded(), start);
    let tokens: u64 = segments.iter().map(|s| s.len() as u64).sum();
    println!(
        "earley_hot: {} segments, {} tokens, {} Earley table bytes, {} tiler table bytes",
        segments.len(),
        tokens,
        parser.table_bytes(),
        tiler.table_bytes()
    );
    let mut scratch = TileScratch::new();
    for s in &segments {
        let tiled = tiler.tile(&mut scratch, s, None).unwrap();
        assert_eq!(tiled.len(), parser.parse(start, s).unwrap().len());
    }

    let mut group = c.benchmark_group("earley_hot");
    group.sample_size(10);
    group.throughput(Throughput::Elements(tokens));
    group.bench_function("fresh_parser", |b| {
        b.iter(|| {
            for s in &segments {
                std::hint::black_box(parser.parse(start, s).unwrap());
            }
        })
    });
    group.bench_function("reused_arena", |b| {
        let mut arena = ChartArena::new();
        b.iter(|| {
            for s in &segments {
                std::hint::black_box(parser.parse_into(&mut arena, start, s).unwrap());
            }
        })
    });
    group.bench_function("tiler", |b| {
        b.iter(|| {
            for s in &segments {
                std::hint::black_box(tiler.tile(&mut scratch, s, None).unwrap());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_earley_hot);
criterion_main!(benches);
