//! Cross-crate integration: the full paper pipeline over the real sample
//! programs — compile → validate → train → compress → decompress →
//! execute both representations.

use pgr::bytecode::validate_program;
use pgr::core::{canonicalize_program, train, TrainConfig};
use pgr::corpus::{compile_sample, corpus, CorpusName, SAMPLES};
use pgr::telemetry::{names, Recorder};
use pgr::vm::{Vm, VmConfig};

/// Compression round-trips exactly on every sample program.
#[test]
fn samples_compress_and_decompress_exactly() {
    let programs: Vec<_> = SAMPLES.iter().map(|(n, _)| compile_sample(n)).collect();
    let refs: Vec<_> = programs.iter().collect();
    let trained = train(&refs, &TrainConfig::default()).unwrap();
    for (program, (name, _)) in programs.iter().zip(SAMPLES) {
        let (compressed, stats) = trained.compress(program).unwrap();
        assert!(
            stats.compressed_code < stats.original_code,
            "{name}: {} -> {}",
            stats.original_code,
            stats.compressed_code
        );
        let back = trained.decompress(&compressed).unwrap();
        assert_eq!(back, canonicalize_program(program).unwrap(), "{name}");
        validate_program(&back).unwrap();
    }
}

/// Compressed execution equals uncompressed execution on fast samples.
#[test]
fn samples_run_identically_compressed() {
    for name in ["8q", "calc", "fmt", "sort"] {
        let program = compile_sample(name);
        let mut vm = Vm::new(&program, VmConfig::default()).unwrap();
        let plain = vm.run().unwrap_or_else(|e| panic!("{name}: {e}"));

        let trained = train(&[&program], &TrainConfig::default()).unwrap();
        let (compressed, _) = trained.compress(&program).unwrap();
        let ig = trained.initial();
        let mut cvm = Vm::new_compressed(
            &compressed.program,
            trained.expanded(),
            ig.nt_start,
            ig.nt_byte,
            VmConfig::default(),
        )
        .unwrap();
        let direct = cvm
            .run()
            .unwrap_or_else(|e| panic!("{name} compressed: {e}"));
        assert_eq!(plain.output, direct.output, "{name}");
        assert_eq!(plain.ret, direct.ret, "{name}");
        assert_eq!(plain.exit_code, direct.exit_code, "{name}");
    }
}

/// Each segment is decoded once and cached: on the recursive samples,
/// where a segment is re-entered before its first visit has left it,
/// the decodes still equal the cached programs.
#[test]
fn recursive_samples_decode_each_segment_once() {
    let programs: Vec<_> = SAMPLES.iter().map(|(n, _)| compile_sample(n)).collect();
    let refs: Vec<_> = programs.iter().collect();
    let trained = train(&refs, &TrainConfig::default()).unwrap();
    let ig = trained.initial();
    for name in ["8q", "sort"] {
        let (compressed, _) = trained.compress(&compile_sample(name)).unwrap();
        let recorder = Recorder::new();
        let config = VmConfig {
            recorder: recorder.clone(),
            ..VmConfig::default()
        };
        let mut vm = Vm::new_compressed(
            &compressed.program,
            trained.expanded(),
            ig.nt_start,
            ig.nt_byte,
            config,
        )
        .unwrap();
        vm.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        let m = recorder.snapshot();
        let compiled = m.counter(names::VM_TIER2_COMPILED);
        assert!(compiled > 0, "{name}");
        assert_eq!(m.counter(names::VM_SEG_CACHE_MISSES), compiled, "{name}");
        assert!(m.counter(names::VM_SEG_CACHE_HITS) > 0, "{name}");
    }
}

/// A run materializes only the memory it touches: on every sample,
/// plain or compressed, at most 64 KiB of the 2 MiB address space the
/// default configuration maps.
#[test]
fn samples_materialize_only_what_they_touch() {
    let programs: Vec<_> = SAMPLES.iter().map(|(n, _)| compile_sample(n)).collect();
    let refs: Vec<_> = programs.iter().collect();
    let trained = train(&refs, &TrainConfig::default()).unwrap();
    let ig = trained.initial();
    for (program, (name, _)) in programs.iter().zip(SAMPLES) {
        let (compressed, _) = trained.compress(program).unwrap();
        let mut plain = Vm::new(program, VmConfig::default()).unwrap();
        let mut packed = Vm::new_compressed(
            &compressed.program,
            trained.expanded(),
            ig.nt_start,
            ig.nt_byte,
            VmConfig::default(),
        )
        .unwrap();
        for (vm, form) in [(&mut plain, "plain"), (&mut packed, "compressed")] {
            vm.run().unwrap_or_else(|e| panic!("{name} {form}: {e}"));
            let bytes = vm.materialized_bytes();
            assert!(
                bytes <= 64 << 10,
                "{name} {form} materialized {bytes} bytes"
            );
        }
    }
}

/// A grammar trained on one corpus compresses a *different* corpus (the
/// cross-training column of Table 1), and self-training is at least as
/// good on the big corpora.
#[test]
fn cross_training_orders_as_in_table_1() {
    let gzip = corpus(CorpusName::Gzip);
    let eightq = corpus(CorpusName::EightQ);
    let trained_gzip = train(&gzip.refs(), &TrainConfig::default()).unwrap();
    let trained_8q = train(&eightq.refs(), &TrainConfig::default()).unwrap();

    let measure = |trained: &pgr::core::Trained, c: &pgr::corpus::Corpus| {
        let mut orig = 0;
        let mut comp = 0;
        for p in &c.programs {
            let (_, s) = trained.compress(p).unwrap();
            orig += s.original_code;
            comp += s.compressed_code;
        }
        comp as f64 / orig as f64
    };

    let gzip_self = measure(&trained_gzip, &gzip);
    let gzip_cross = measure(&trained_8q, &gzip);
    let q_self = measure(&trained_8q, &eightq);
    let q_cross = measure(&trained_gzip, &eightq);

    assert!(gzip_self < gzip_cross, "{gzip_self} vs {gzip_cross}");
    assert!(q_self < q_cross, "{q_self} vs {q_cross}");
    // Everything still beats no compression.
    assert!(gzip_cross < 1.0);
    assert!(q_cross < 1.0);
}

/// The compressed label tables support branching: a branchy program
/// (calc, with switches and loops) must execute correctly compressed
/// under a *foreign* grammar too.
#[test]
fn foreign_grammar_execution_is_correct() {
    let gzip = corpus(CorpusName::Gzip);
    let trained = train(&gzip.refs(), &TrainConfig::default()).unwrap();
    let program = compile_sample("calc");

    let mut vm = Vm::new(&program, VmConfig::default()).unwrap();
    let plain = vm.run().unwrap();

    let (compressed, _) = trained.compress(&program).unwrap();
    let ig = trained.initial();
    let mut cvm = Vm::new_compressed(
        &compressed.program,
        trained.expanded(),
        ig.nt_start,
        ig.nt_byte,
        VmConfig::default(),
    )
    .unwrap();
    let direct = cvm.run().unwrap();
    assert_eq!(plain.output, direct.output);
}

/// Training on the empty corpus yields the initial grammar: compression
/// under it *expands* (one byte per parse step), the paper's baseline
/// observation that the initial grammar is not a code.
#[test]
fn untrained_grammar_expands_programs() {
    let trained = train(&[], &TrainConfig::default()).unwrap();
    assert_eq!(trained.stats.rules_added, 0);
    let program = compile_sample("8q");
    let (_, stats) = trained.compress(&program).unwrap();
    assert!(stats.compressed_code > stats.original_code);
}
