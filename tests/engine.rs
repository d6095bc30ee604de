//! Compressor-engine guarantees: parallel segment encoding is a pure
//! optimization — the compressed bytes, the stats, and the error
//! behaviour must be indistinguishable from the sequential path at every
//! configuration — and a reused engine compresses like a fresh one.

use pgr::core::{train, CompressorConfig, TrainConfig};
use pgr::corpus::synth::{generate_source, Flavor, SynthConfig};
use pgr::corpus::{corpus, CorpusName};
use proptest::prelude::*;

/// Every thread count produces byte-identical output and equal stats on
/// a full corpus — the strided fan-out must be invisible.
#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    let c = corpus(CorpusName::Gzip);
    let trained = train(&c.refs(), &TrainConfig::default()).unwrap();
    let sequential = trained.compressor_with(CompressorConfig::default().threads(1));
    let reference: Vec<_> = c
        .programs
        .iter()
        .map(|p| sequential.compress(p).unwrap())
        .collect();

    for threads in [1usize, 2, 3, 4, 8] {
        let engine = trained.compressor_with(CompressorConfig::default().threads(threads));
        for (p, (ref_cp, ref_stats)) in c.programs.iter().zip(&reference) {
            let (cp, stats) = engine.compress(p).unwrap();
            assert_eq!(&cp, ref_cp, "compressed bytes differ at threads={threads}");
            assert_eq!(&stats, ref_stats, "stats differ at threads={threads}");
        }
    }

    // Batch granularity is scheduling only: per-segment dispatch, small
    // batches, and one-batch-per-program all reproduce the reference.
    for (threads, batch) in [(4usize, 0usize), (3, 64), (2, 1 << 20)] {
        let engine = trained.compressor_with(
            CompressorConfig::default()
                .threads(threads)
                .batch_bytes(batch),
        );
        for (p, (ref_cp, ref_stats)) in c.programs.iter().zip(&reference) {
            let (cp, stats) = engine.compress(p).unwrap();
            assert_eq!(
                &cp, ref_cp,
                "bytes differ at threads={threads} batch={batch}"
            );
            assert_eq!(
                &stats, ref_stats,
                "stats differ at threads={threads} batch={batch}"
            );
        }
    }
}

/// Parallel decompression inputs round-trip exactly like sequential ones.
#[test]
fn parallel_roundtrip_matches_canonical_form() {
    let c = corpus(CorpusName::Gzip);
    let trained = train(&c.refs(), &TrainConfig::default()).unwrap();
    let engine = trained.compressor_with(CompressorConfig::default().threads(4));
    for p in &c.programs {
        let (cp, _) = engine.compress(p).unwrap();
        let back = engine.decompress(&cp).unwrap();
        assert_eq!(back, pgr::core::canonicalize_program(p).unwrap());
    }
}

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        any::<u64>(),
        1usize..5,
        prop_oneof![Just(Flavor::Compiler), Just(Flavor::Numeric)],
    )
        .prop_map(|(seed, functions, flavor)| SynthConfig {
            seed,
            functions,
            flavor,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A reused engine carries nothing from one input to the next:
    /// compressing the same program a second time returns exactly the
    /// first result, and both equal a fresh single-threaded engine's.
    #[test]
    fn reused_engine_compression_equals_cold(config in arb_config()) {
        let source = generate_source(&config);
        let program = pgr::minic::compile(&source).expect("valid mini-C");
        let trained = train(&[&program], &TrainConfig::default()).unwrap();

        let baseline = trained
            .compressor_with(CompressorConfig::default().threads(1))
            .compress(&program)
            .unwrap();

        let engine = trained.compressor();
        let cold = engine.compress(&program).unwrap();
        let warm = engine.compress(&program).unwrap();

        prop_assert_eq!(&cold, &baseline);
        prop_assert_eq!(&warm, &cold);
    }

    /// Thread-count and batch-size invariance holds for arbitrary
    /// generated programs, not just the fixed corpora.
    #[test]
    fn thread_counts_agree_on_generated_programs(config in arb_config()) {
        let source = generate_source(&config);
        let program = pgr::minic::compile(&source).expect("valid mini-C");
        let trained = train(&[&program], &TrainConfig::default()).unwrap();
        let reference = trained
            .compressor_with(CompressorConfig::default().threads(1))
            .compress(&program)
            .unwrap();
        for (threads, batch) in [(2usize, 1024usize), (5, 1024), (3, 0), (4, 129), (2, 1 << 20)] {
            let got = trained
                .compressor_with(
                    CompressorConfig::default().threads(threads).batch_bytes(batch),
                )
                .compress(&program)
                .unwrap();
            prop_assert_eq!(&got, &reference);
        }
    }

    /// A parser fed through one long-lived [`ChartArena`] must be
    /// indistinguishable from a fresh parse per segment: byte-identical
    /// derivations (hence identical costs) over every straight-line
    /// segment of an arbitrary program, under the expanded grammar.
    #[test]
    fn reused_arena_matches_fresh_parser_on_random_segments(config in arb_config()) {
        use pgr::bytecode::{instrs, Opcode};
        use pgr::earley::{ChartArena, ShortestParser};
        use pgr::grammar::initial::tokenize_segment;

        let source = generate_source(&config);
        let program = pgr::minic::compile(&source).expect("valid mini-C");
        let trained = train(&[&program], &TrainConfig::default()).unwrap();
        let start = trained.initial().nt_start;
        let parser = ShortestParser::new(trained.expanded());
        let mut arena = ChartArena::new();

        let canon = pgr::core::canonicalize_program(&program).unwrap();
        let mut segments = 0usize;
        for proc in &canon.procs {
            let mut ranges = Vec::new();
            let mut seg_start = 0usize;
            for insn in instrs(&proc.code) {
                let insn = insn.expect("canonical code decodes");
                if insn.opcode == Opcode::LABELV {
                    if insn.offset > seg_start {
                        ranges.push(seg_start..insn.offset);
                    }
                    seg_start = insn.offset + 1;
                }
            }
            if proc.code.len() > seg_start {
                ranges.push(seg_start..proc.code.len());
            }
            for range in ranges {
                let tokens = tokenize_segment(&proc.code[range]).unwrap();
                let fresh = parser.parse(start, &tokens);
                let reused = parser.parse_into(&mut arena, start, &tokens);
                prop_assert_eq!(fresh, reused);
                segments += 1;
            }
        }
        prop_assert!(segments > 0, "program produced no segments");
    }
}

// ---- telemetry --------------------------------------------------------

use pgr::telemetry::{Metrics, Recorder};
use std::time::Duration;

/// An arbitrary metrics batch drawing names from a small pool so merges
/// actually collide on keys.
fn arb_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")]
}

fn arb_metrics() -> impl Strategy<Value = Metrics> {
    let counter = (arb_name(), 0u64..1000);
    let gauge = (arb_name(), 0u64..1000);
    let obs = (arb_name(), 0u64..1000);
    let span = (arb_name(), 0u64..1_000_000);
    (
        prop::collection::vec(counter, 0..6),
        prop::collection::vec(gauge, 0..6),
        prop::collection::vec(obs, 0..6),
        prop::collection::vec(span, 0..6),
    )
        .prop_map(|(counters, gauges, obs, spans)| {
            let mut m = Metrics::new();
            for (k, v) in counters {
                m.add(k, v);
            }
            for (k, v) in gauges {
                m.gauge_max(k, v);
            }
            for (k, v) in obs {
                m.observe(k, v);
            }
            for (k, ns) in spans {
                m.record_span(k, Duration::from_nanos(ns));
            }
            m
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The metrics monoid: merge is associative and commutative, so
    /// per-worker batches can land in any grouping and any order.
    #[test]
    fn metrics_merge_is_associative_and_commutative(
        a in arb_metrics(),
        b in arb_metrics(),
        c in arb_metrics(),
    ) {
        let ab_c = a.clone().merge(b.clone()).merge(c.clone());
        let a_bc = a.clone().merge(b.clone().merge(c.clone()));
        prop_assert_eq!(&ab_c, &a_bc);

        let ab = a.clone().merge(b.clone());
        let ba = b.merge(a);
        prop_assert_eq!(&ab, &ba);

        // The empty batch is the identity.
        prop_assert_eq!(&ab_c.clone().merge(Metrics::new()), &ab_c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parallel and sequential compression record identical counter and
    /// gauge totals — the strided fan-out merges worker batches into the
    /// same sums the single-threaded path produces. (Spans are excluded:
    /// wall-clock durations are never deterministic.)
    #[test]
    fn parallel_and_sequential_record_identical_counters(config in arb_config()) {
        let source = generate_source(&config);
        let program = pgr::minic::compile(&source).expect("valid mini-C");
        let trained = train(&[&program], &TrainConfig::default()).unwrap();

        let mut totals = Vec::new();
        for threads in [1usize, 4] {
            let recorder = Recorder::new();
            let engine = trained.compressor_with_recorder(
                CompressorConfig::default().threads(threads),
                recorder.clone(),
            );
            engine.compress(&program).unwrap();
            let m = recorder.take();
            // `earley.arena.reuse` is the one intentionally
            // scheduling-dependent counter: each worker warms its own
            // arena, so more workers means fewer reuses. Everything
            // else must match exactly.
            let mut counters = m.counters().clone();
            counters.remove("earley.arena.reuse");
            totals.push((counters, m.gauges().clone()));
        }
        prop_assert_eq!(&totals[0], &totals[1]);
    }
}
