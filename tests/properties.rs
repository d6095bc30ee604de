//! Property tests over randomly generated programs: the pipeline's
//! invariants must hold for *every* program the compiler can emit, not
//! just the hand-picked samples.

use pgr::bytecode::validate_program;
use pgr::core::{canonicalize_program, train, TrainConfig};
use pgr::corpus::synth::{generate_source, Flavor, SynthConfig};
use pgr::earley::ShortestParser;
use pgr::grammar::initial::tokenize_segment;
use pgr::vm::{Vm, VmConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SynthConfig> {
    (
        any::<u64>(),
        1usize..6,
        prop_oneof![Just(Flavor::Compiler), Just(Flavor::Numeric)],
    )
        .prop_map(|(seed, functions, flavor)| SynthConfig {
            seed,
            functions,
            flavor,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every generated program compiles, validates, and every segment of
    /// its code is in the initial grammar's language (Earley agrees with
    /// the deterministic stack parser).
    #[test]
    fn generated_programs_are_in_the_language(config in arb_config()) {
        let source = generate_source(&config);
        let program = pgr::minic::compile(&source).expect("generator emits valid mini-C");
        validate_program(&program).expect("generator emits valid bytecode");

        let ig = pgr::grammar::InitialGrammar::build();
        let parser = ShortestParser::new(&ig.grammar);
        for proc in &program.procs {
            for range in proc.segments().unwrap() {
                let tokens = tokenize_segment(&proc.code[range.clone()]).unwrap();
                let d = parser.parse(ig.nt_start, &tokens).unwrap_or_else(|e| {
                    panic!("{}: segment {range:?} not in language: {e}", proc.name)
                });
                prop_assert_eq!(d.expand(&ig.grammar, ig.nt_start).unwrap(), tokens);
            }
        }
    }

    /// Self-training then compressing round-trips exactly and shrinks.
    #[test]
    fn compression_roundtrips_on_generated_programs(config in arb_config()) {
        let source = generate_source(&config);
        let program = pgr::minic::compile(&source).expect("valid mini-C");
        let trained = train(&[&program], &TrainConfig::default()).unwrap();
        let (compressed, stats) = trained.compress(&program).unwrap();
        let back = trained.decompress(&compressed).unwrap();
        prop_assert_eq!(back, canonicalize_program(&program).unwrap());
        // Self-compression shrinks once a program has any repetition;
        // tiny one-function programs may stay flat but must never grow
        // beyond the parse-tree bound.
        prop_assert!(stats.compressed_code <= stats.original_code * 3);
    }

    /// Compressed execution is behaviourally identical to uncompressed
    /// execution (or both fail to finish within the same small budget).
    #[test]
    fn execution_is_equivalent_on_generated_programs(config in arb_config()) {
        let source = generate_source(&config);
        let program = pgr::minic::compile(&source).expect("valid mini-C");
        let fuel = 3_000_000;
        let cfg = VmConfig { fuel, ..VmConfig::default() };

        let plain = Vm::new(&program, cfg.clone()).unwrap().run();
        let Ok(plain) = plain else {
            // Generated programs are bounded, but a tiny budget may trip:
            // skip instead of comparing divergent truncations (the two
            // interpreters meter fuel differently).
            return Ok(());
        };

        let trained = train(&[&program], &TrainConfig::default()).unwrap();
        let (compressed, _) = trained.compress(&program).unwrap();
        let ig = trained.initial();
        // The compressed interpreter also burns fuel on rule steps, so
        // give it proportional head-room.
        let ccfg = VmConfig { fuel: fuel * 8, ..VmConfig::default() };
        let direct = Vm::new_compressed(
            &compressed.program,
            trained.expanded(),
            ig.nt_start,
            ig.nt_byte,
            ccfg,
        )
        .unwrap()
        .run()
        .expect("compressed run completes within proportional budget");

        prop_assert_eq!(plain.output, direct.output);
        prop_assert_eq!(plain.ret, direct.ret);
        prop_assert_eq!(plain.exit_code, direct.exit_code);
    }

    /// Segments with no derivation must never break correctness: with
    /// half the tilings failing (a seeded `FaultPoint::Parse` plan),
    /// each failed segment degrades to a verbatim escape, the mixed
    /// image round-trips byte-identically, and all three interpreter
    /// paths execute it exactly like the uncompressed program. Strict
    /// mode (`--no-fallback`) instead names the failing segment's
    /// procedure and offset.
    #[test]
    fn parse_faults_degrade_to_verbatim_and_roundtrip(config in arb_config()) {
        use pgr::core::{CompressError, Compressor, CompressorConfig, NoParse};
        use pgr::telemetry::faults::{self, FaultMode, FaultPlan, FaultPoint};

        let source = generate_source(&config);
        let program = pgr::minic::compile(&source).expect("valid mini-C");
        let canonical = canonicalize_program(&program).unwrap();
        let trained = train(&[&program], &TrainConfig::default()).unwrap();
        let ig = trained.initial();
        // One worker and no derivation cache, so a plan sees every
        // segment and its verdicts land on the same segments in the
        // strict run below. A seeded plan fails each tiling with
        // probability 1/2, so it can spare every segment of a small
        // program: take the first plan seed from the case's own that
        // fails at least one.
        let engine = |fallback: bool| {
            Compressor::with_config(
                trained.expanded(),
                ig.nt_start,
                CompressorConfig::default()
                    .threads(1)
                    .segment_cache_capacity(0)
                    .fallback(fallback),
            )
        };
        let plan = |seed: u64| {
            FaultPlan::new().with(FaultPoint::Parse, FaultMode::Seeded { seed, rate_per_1024: 512 })
        };
        let (seed, compressed) = (0..64)
            .map(|i| {
                let seed = config.seed.wrapping_add(i);
                let _guard = faults::install(plan(seed));
                let (compressed, stats) = engine(true).compress(&program).unwrap();
                (seed, compressed, stats.fallback_segments)
            })
            .find(|&(_, _, fallback_segments)| fallback_segments >= 1)
            .map(|(seed, compressed, _)| (seed, compressed))
            .expect("one of 64 seeded plans fails some tiling");

        let back = pgr::core::compress::decompress_program(
            trained.expanded(),
            ig.nt_start,
            &compressed,
        )
        .unwrap();
        prop_assert!(back == canonical, "verbatim fallback broke the round-trip");

        // Behavioural equivalence on every interpreter path.
        let fuel = 3_000_000;
        if let Ok(plain) = Vm::new(&program, VmConfig { fuel, ..VmConfig::default() }).unwrap().run() {
            let variants = [
                ("fast path", VmConfig { fuel: fuel * 8, ..VmConfig::default() }),
                ("fast path, cache off", VmConfig { fuel: fuel * 8, segment_cache_entries: 0, ..VmConfig::default() }),
                ("reference walker", VmConfig { fuel: fuel * 8, reference_walker: true, ..VmConfig::default() }),
            ];
            for (label, ccfg) in variants {
                let got = Vm::new_compressed(
                    &compressed.program,
                    trained.expanded(),
                    ig.nt_start,
                    ig.nt_byte,
                    ccfg,
                )
                .unwrap()
                .run()
                .expect("escaped image runs within proportional budget");
                prop_assert!(plain.output == got.output, "{}: output diverged", label);
                prop_assert!(plain.ret == got.ret, "{}: return value diverged", label);
                prop_assert!(plain.exit_code == got.exit_code, "{}: exit code diverged", label);
            }
        }

        // Strict mode: the same plan, replayed from its first occurrence,
        // is a structured error naming the first failing segment.
        let guard = faults::install(plan(seed));
        let strict = engine(false).compress(&program);
        drop(guard);
        match strict.unwrap_err() {
            CompressError::NoParse { proc, segment_offset, error } => {
                prop_assert!(matches!(error, NoParse::NoDerivation { .. }),
                             "strict failure should carry the tiler's verdict, got {:?}", error);
                let failing = canonical.procs.iter().find(|p| p.name == proc);
                prop_assert!(failing.is_some(), "reported proc {:?} is not in the program", proc);
                prop_assert!(segment_offset < failing.unwrap().code.len(),
                             "segment offset {} out of range", segment_offset);
            }
            other => panic!("wanted NoParse, got {other:?}"),
        }
    }
}
