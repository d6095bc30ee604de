//! Experiment implementations. Each function returns plain data so the
//! `tables` binary, the Criterion benches, and the integration tests can
//! share them.

use pgr_baselines::{huffman, lzsshuff, program_bytes, superop, tunstall};
use pgr_bytecode::image::ImageStats;
use pgr_bytecode::Program;
use pgr_core::{canonicalize_program, train, ExpanderConfig, TrainConfig, Trained};
use pgr_corpus::{corpus, corpus_with_options, Corpus, CorpusName};
use pgr_minic::Options;
use pgr_vm::cgen::interpreter_sizes;

/// Train on a corpus with the default (paper) configuration.
pub fn train_on(c: &Corpus) -> Trained {
    train(&c.refs(), &TrainConfig::default()).expect("corpora are valid")
}

/// Compress every program of a corpus under a trained grammar; returns
/// `(original bytes, compressed bytes)`. Builds one engine for the whole
/// corpus so its pattern table is built once.
pub fn compress_corpus(trained: &Trained, c: &Corpus) -> (usize, usize) {
    let engine = trained.compressor();
    let mut original = 0;
    let mut compressed = 0;
    for p in &c.programs {
        let (_, stats) = engine.compress(p).expect("corpora are in the language");
        original += stats.original_code;
        compressed += stats.compressed_code;
    }
    (original, compressed)
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Input name (gcc/lcc/gzip/8q).
    pub input: &'static str,
    /// Original bytecode bytes.
    pub original: usize,
    /// Compressed bytes under the gcc-trained grammar.
    pub on_gcc: usize,
    /// Compressed bytes under the lcc-trained grammar.
    pub on_lcc: usize,
}

/// E1 — Table 1. Returns the rows plus the two grammars' sizes.
pub fn e1() -> (Vec<E1Row>, usize, usize) {
    let corpora: Vec<Corpus> = CorpusName::ALL.iter().map(|&n| corpus(n)).collect();
    let gcc = &corpora[0];
    let lcc = &corpora[1];
    let trained_gcc = train_on(gcc);
    let trained_lcc = train_on(lcc);
    let rows = corpora
        .iter()
        .map(|c| {
            let (original, on_gcc) = compress_corpus(&trained_gcc, c);
            let (_, on_lcc) = compress_corpus(&trained_lcc, c);
            E1Row {
                input: c.name.label(),
                original,
                on_gcc,
                on_lcc,
            }
        })
        .collect();
    (rows, trained_gcc.grammar_size(), trained_lcc.grammar_size())
}

/// E2 — interpreter sizes for a grammar trained on the lcc corpus.
pub fn e2() -> pgr_vm::cgen::InterpreterSizes {
    let trained = train_on(&corpus(CorpusName::Lcc));
    interpreter_sizes(trained.expanded())
}

/// E3 — the gzip-calibration row for each corpus: `(name, input bytes,
/// compressed bytes)`.
pub fn e3() -> Vec<(&'static str, usize, usize)> {
    CorpusName::ALL
        .iter()
        .map(|&n| {
            let c = corpus(n);
            let data: Vec<u8> = c.programs.iter().flat_map(program_bytes).collect();
            let (_, size) = lzsshuff::compress(&data);
            (n.label(), data.len(), size.total())
        })
        .collect()
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct E4Row {
    /// Representation name.
    pub representation: &'static str,
    /// Total image bytes.
    pub bytes: usize,
}

/// E4 — Table 2 for the lcc corpus: whole-executable sizes.
pub fn e4() -> Vec<E4Row> {
    let c = corpus(CorpusName::Lcc);
    let trained = train_on(&c);
    let sizes = interpreter_sizes(trained.expanded());

    let mut uncompressed = 0usize;
    let mut compressed = 0usize;
    let mut native = 0usize;
    for p in &c.programs {
        let canon = canonicalize_program(p).expect("valid corpus");
        uncompressed += ImageStats::of(&canon).total();
        let (cp, _) = trained.compress(p).expect("valid corpus");
        compressed += ImageStats::of(&cp.program).total();
        native += pgr_native::measure_program(p).total();
    }
    vec![
        E4Row {
            representation: "Uncompressed bytecode",
            bytes: uncompressed + sizes.initial,
        },
        E4Row {
            representation: "Compressed bytecode",
            bytes: compressed + sizes.compressed,
        },
        E4Row {
            representation: "native x86 executable",
            bytes: native,
        },
    ]
}

/// E5 — optimizer interaction: `(unoptimized, optimized)` pairs of
/// (bytecode bytes, native code bytes, self-compressed bytes).
pub fn e5() -> [(usize, usize, usize); 2] {
    let mut out = [(0, 0, 0); 2];
    for (slot, optimize) in [false, true].into_iter().enumerate() {
        let c = corpus_with_options(CorpusName::Lcc, &Options { optimize });
        let trained = train_on(&c);
        let (_, compressed) = compress_corpus(&trained, &c);
        let native: usize = c
            .programs
            .iter()
            .map(|p| pgr_native::measure_program(p).code)
            .sum();
        out[slot] = (c.code_size(), native, compressed);
    }
    out
}

/// E6 — overhead accounting for the lcc corpus: aggregate image stats of
/// the compressed form, the grammar size, and how many bytes a
/// "straightforward recoding" of the grammar would save (the paper
/// estimates 1,863 B for its lcc grammar; we entropy-code our
/// serialization to get the analogous figure).
pub fn e6() -> (ImageStats, usize, usize) {
    let c = corpus(CorpusName::Lcc);
    let trained = train_on(&c);
    let mut agg = ImageStats::default();
    for p in &c.programs {
        let (cp, _) = trained.compress(p).expect("valid corpus");
        let s = ImageStats::of(&cp.program);
        agg.code += s.code;
        agg.label_tables += s.label_tables;
        agg.descriptors += s.descriptors;
        agg.global_table += s.global_table;
        agg.trampolines += s.trampolines;
        agg.data += s.data;
        agg.bss += s.bss;
    }
    let encoded = pgr_grammar::encode::encode_grammar(trained.expanded());
    let (_, recoded) = huffman::compress_bytes(&encoded);
    let slack = encoded.len().saturating_sub(recoded.total());
    (agg, trained.grammar_size(), slack)
}

/// E6b — the §6 "inline global addresses and branch offsets" estimate
/// over the compressed lcc images.
pub fn e6_inline_estimate() -> usize {
    let c = corpus(CorpusName::Lcc);
    let trained = train_on(&c);
    c.programs
        .iter()
        .map(|p| {
            let (cp, _) = trained.compress(p).expect("valid corpus");
            // Compressed operands still hold 2-byte indices for branches
            // and globals, so the estimate applies to the original form,
            // where the instruction stream is decodable.
            let _ = cp;
            pgr_bytecode::image::inline_tables_estimate(p)
        })
        .sum()
}

/// A1 — rule-cap sweep on the lcc corpus: `(cap, compressed bytes,
/// grammar bytes)`.
pub fn a1(caps: &[usize]) -> Vec<(usize, usize, usize)> {
    let c = corpus(CorpusName::Lcc);
    caps.iter()
        .map(|&cap| {
            let config = TrainConfig {
                expander: ExpanderConfig {
                    max_rules_per_nt: cap,
                    ..ExpanderConfig::default()
                },
                ..TrainConfig::default()
            };
            let trained = train(&c.refs(), &config).expect("valid corpus");
            let (_, compressed) = compress_corpus(&trained, &c);
            (cap, compressed, trained.grammar_size())
        })
        .collect()
}

/// A2 — grammar hygiene: subsumed-rule removal on, then off. Returns
/// `(live rules, grammar bytes, compressed bytes)` per setting, in that
/// order.
pub fn a2() -> [(usize, usize, usize); 2] {
    let c = corpus(CorpusName::Lcc);
    [true, false].map(|remove_subsumed| {
        let config = TrainConfig {
            expander: ExpanderConfig {
                remove_subsumed,
                ..ExpanderConfig::default()
            },
            ..TrainConfig::default()
        };
        let trained = train(&c.refs(), &config).expect("valid corpus");
        let (_, compressed) = compress_corpus(&trained, &c);
        (
            trained.expanded().live_rule_count(),
            trained.grammar_size(),
            compressed,
        )
    })
}

/// One baseline shoot-out row.
#[derive(Debug, Clone)]
pub struct A3Row {
    /// Input name.
    pub input: &'static str,
    /// Original bytes.
    pub original: usize,
    /// Grammar rewriting, self-trained (payload only, like the others).
    pub grammar: usize,
    /// Canonical Huffman (payload + header).
    pub huffman: usize,
    /// Tunstall k=12 with segment restarts (payload + dictionary).
    pub tunstall: usize,
    /// Superoperators (code + table).
    pub superop: usize,
    /// LZSS+Huffman (no random access; calibration only).
    pub lzss: usize,
}

/// A3 — baseline shoot-out, self-trained per corpus.
pub fn a3() -> Vec<A3Row> {
    CorpusName::ALL
        .iter()
        .map(|&n| {
            let c = corpus(n);
            let trained = train_on(&c);
            let (original, grammar) = compress_corpus(&trained, &c);
            let data: Vec<u8> = c.programs.iter().flat_map(program_bytes).collect();
            let (_, hs) = huffman::compress_bytes(&data);
            let (_, ls) = lzsshuff::compress(&data);
            // Tunstall over the segment structure of every procedure.
            let dict = tunstall::Dictionary::build(&data, 12);
            let mut segments: Vec<Vec<u8>> = Vec::new();
            for p in &c.programs {
                for proc in &p.procs {
                    for range in proc.segments().expect("valid corpus") {
                        segments.push(proc.code[range].to_vec());
                    }
                }
            }
            let seg_refs: Vec<&[u8]> = segments.iter().map(|s| s.as_slice()).collect();
            let ts = tunstall::compress_segmented(&dict, &seg_refs)
                .expect("dictionary built from the same data")
                .1;
            let refs = c.refs();
            let set = superop::train(&refs, 256);
            let ss: usize = c
                .programs
                .iter()
                .map(|p| superop::measure_program(&set, p).code)
                .sum::<usize>()
                + set.table_bytes();
            A3Row {
                input: n.label(),
                original,
                grammar,
                huffman: hs.total(),
                tunstall: ts.total(),
                superop: ss,
                lzss: ls.total(),
            }
        })
        .collect()
}

/// A5 — the typed-grammar exploration of §6 ("a more complex grammar
/// that tracked the datatype of each element on the stack did not do
/// significantly better"): train the untyped and the typed initial
/// grammars on the same corpus, compress the corpus under both; returns
/// `((untyped bytes, untyped grammar), (typed bytes, typed grammar))`.
///
/// The compressor tiles Appendix 2 parses only, so the typed corpus is
/// encoded with the reference Earley parser, which takes any grammar:
/// one byte per derivation step, as the compressor would emit.
pub fn a5() -> ((usize, usize), (usize, usize)) {
    use pgr_core::canonicalize_program as canon;
    use pgr_core::expander::expand;
    use pgr_earley::{ChartArena, ShortestParser};
    use pgr_grammar::initial::tokenize_segment;
    use pgr_grammar::typed::TypedGrammar;
    use pgr_grammar::{Forest, SharedForest};

    let c = corpus(CorpusName::Lcc);

    // Untyped (the shipping pipeline).
    let trained = train_on(&c);
    let (_, untyped_bytes) = compress_corpus(&trained, &c);
    let untyped = (untyped_bytes, trained.grammar_size());

    // Typed: same expander, same encoder, typed initial grammar.
    let tg = TypedGrammar::build();
    let mut grammar = tg.grammar.clone();
    // The typed parser relabels a literal once its consumer is seen, so
    // it builds a tree, which the expander works on in its shared form.
    let mut forest = Forest::new();
    for p in &c.programs {
        let p = canon(p).expect("valid corpus");
        for proc in &p.procs {
            for range in proc.segments().expect("valid corpus") {
                let tokens = tokenize_segment(&proc.code[range]).expect("valid corpus");
                tg.add_segment(&mut forest, &tokens).expect("typed parse");
            }
        }
    }
    let mut shared = SharedForest::from_forest(&forest);
    expand(&mut grammar, &mut shared, &ExpanderConfig::default());
    let parser = ShortestParser::new(&grammar);
    let mut arena = ChartArena::new();
    let mut typed_bytes = 0usize;
    for p in &c.programs {
        let p = canon(p).expect("valid corpus");
        for proc in &p.procs {
            for range in proc.segments().expect("valid corpus") {
                let tokens = tokenize_segment(&proc.code[range]).expect("valid corpus");
                let derivation = parser
                    .parse_into(&mut arena, tg.nt_start, &tokens)
                    .expect("typed language covers corpus");
                typed_bytes += derivation.len();
            }
        }
    }
    let typed = (typed_bytes, pgr_grammar::encode::grammar_size(&grammar));
    (untyped, typed)
}

/// A4 — greedy (training-forest) vs optimal (shortest-derivation)
/// self-encoding on the lcc corpus: `(greedy bytes, optimal bytes)`.
pub fn a4() -> (usize, usize) {
    let c = corpus(CorpusName::Lcc);
    let trained = train_on(&c);
    let greedy = trained.stats.derivation_after;
    let (_, optimal) = compress_corpus(&trained, &c);
    (greedy, optimal)
}

/// Render a percentage.
pub fn pct(part: usize, whole: usize) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.0}%", 100.0 * part as f64 / whole as f64)
    }
}

/// Shared helper for the interpreter-overhead bench: run a program both
/// ways and return the executed step counts.
pub fn run_both_ways(program: &Program) -> (u64, u64) {
    use pgr_vm::{Vm, VmConfig};
    let mut vm = Vm::new(program, VmConfig::default()).expect("loadable");
    let plain = vm.run().expect("runs").steps;
    let trained = train(&[program], &TrainConfig::default()).expect("valid");
    let (cp, _) = trained.compress(program).expect("valid");
    let ig = trained.initial();
    let mut cvm = Vm::new_compressed(
        &cp.program,
        trained.expanded(),
        ig.nt_start,
        ig.nt_byte,
        VmConfig::default(),
    )
    .expect("loadable");
    let compressed = cvm.run().expect("runs").steps;
    (plain, compressed)
}
