//! Graceful-degradation tests, driven by the deterministic
//! fault-injection layer (`pgr::telemetry::faults`).
//!
//! Each test installs a [`FaultPlan`] and holds its guard for the whole
//! body: installation is serialized process-wide, so tests in this
//! binary never observe each other's faults. The plans use `Nth` (trip
//! one exact occurrence) or `Seeded` (replayable from the seed), so
//! every failure here reproduces byte-for-byte.

use pgr::bytecode::{binfmt, read_program, write_program, ImageKind};
use pgr::core::compress::decompress_program;
use pgr::core::{train, CompressError, Compressor, CompressorConfig, DecompressError, TrainConfig};
use pgr::telemetry::faults::{self, FaultMode, FaultPlan, FaultPoint};
use pgr::telemetry::{names, Recorder};
use pgr::vm::{Vm, VmConfig};

const SRC: &str = "int main(void) { int i; for (i = 0; i < 6; i++) putint(i * i); return i; }";

/// Train on the sample and hand back everything the tests need.
fn trained_sample() -> (pgr::bytecode::Program, pgr::core::Trained) {
    let program = pgr::minic::compile(SRC).unwrap();
    let trained = train(&[&program], &TrainConfig::default()).unwrap();
    (program, trained)
}

/// Run a compressed image on the fast path, the cache-off fast path,
/// and the reference walker; assert all three match the plain
/// interpreter's behaviour.
fn assert_runs_identically(
    program: &pgr::bytecode::Program,
    cp: &pgr::core::CompressedProgram,
    trained: &pgr::core::Trained,
) {
    let plain = Vm::new(program, VmConfig::default())
        .unwrap()
        .run()
        .unwrap();
    let ig = trained.initial();
    let variants = [
        ("fast path", VmConfig::default()),
        (
            "fast path, cache off",
            VmConfig {
                segment_cache_entries: 0,
                ..VmConfig::default()
            },
        ),
        (
            "reference walker",
            VmConfig {
                reference_walker: true,
                ..VmConfig::default()
            },
        ),
    ];
    for (label, config) in variants {
        let got = Vm::new_compressed(
            &cp.program,
            trained.expanded(),
            ig.nt_start,
            ig.nt_byte,
            config,
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(plain.output, got.output, "{label}: output diverged");
        assert_eq!(plain.ret, got.ret, "{label}: return value diverged");
        assert_eq!(
            plain.exit_code, got.exit_code,
            "{label}: exit code diverged"
        );
    }
}

#[test]
fn an_empty_plan_faults_nothing() {
    // Holding the gate with an all-Never plan: the full pipeline runs
    // exactly as in production.
    let _guard = faults::install(FaultPlan::new());
    for point in FaultPoint::ALL {
        assert!(!faults::fire(point));
    }
    let (program, trained) = trained_sample();
    let (cp, stats) = trained.compress(&program).unwrap();
    assert_eq!(stats.fallback_segments, 0);
    let ig = trained.initial();
    let back = decompress_program(trained.expanded(), ig.nt_start, &cp).unwrap();
    let bytes = write_program(&back, ImageKind::Uncompressed);
    assert!(read_program(&bytes).is_ok());
}

#[test]
fn injected_image_reads_fail_once_then_recover() {
    let program = pgr::minic::compile("int main(void) { return 3; }").unwrap();
    let bytes = write_program(&program, ImageKind::Uncompressed);
    let _guard = faults::install(FaultPlan::new().with(FaultPoint::ImageRead, FaultMode::Nth(1)));
    assert!(matches!(
        read_program(&bytes),
        Err(binfmt::BinError::Injected)
    ));
    // The fault tripped exactly once; the same bytes now parse.
    let (back, kind) = read_program(&bytes).unwrap();
    assert_eq!(kind, ImageKind::Uncompressed);
    assert_eq!(back, program);
    assert_eq!(faults::fired(FaultPoint::ImageRead), 1);
}

#[test]
fn injected_parse_failures_degrade_to_verbatim_and_run_identically() {
    let (program, trained) = trained_sample();
    let ig = trained.initial();
    let _guard = faults::install(FaultPlan::new().with(FaultPoint::Parse, FaultMode::Nth(1)));

    let recorder = Recorder::new();
    let engine = Compressor::with_recorder(
        trained.expanded(),
        ig.nt_start,
        CompressorConfig::default().threads(1),
        recorder.clone(),
    );
    let (cp, stats) = engine.compress(&program).unwrap();
    assert!(
        stats.fallback_segments >= 1,
        "the injected NoParse must fall back"
    );

    // The degraded image still decompresses to the canonical program…
    let clean = trained.compress(&program).map(|(cp, _)| cp).unwrap();
    let back = decompress_program(trained.expanded(), ig.nt_start, &cp).unwrap();
    let clean_back = decompress_program(trained.expanded(), ig.nt_start, &clean).unwrap();
    assert_eq!(
        back, clean_back,
        "fallback changed the decompressed program"
    );

    // …and executes identically on every interpreter path.
    assert_runs_identically(&program, &cp, &trained);

    // The hardening counters are pinned in the metrics schema: present
    // even when zero, counted when tripped.
    let m = recorder.snapshot();
    assert_eq!(
        m.counter(names::COMPRESS_FALLBACK_SEGMENTS),
        stats.fallback_segments as u64
    );
}

#[test]
fn strict_mode_reports_the_failing_segment() {
    let (program, trained) = trained_sample();
    let ig = trained.initial();
    let _guard = faults::install(FaultPlan::new().with(FaultPoint::Parse, FaultMode::Nth(1)));
    let engine = Compressor::with_config(
        trained.expanded(),
        ig.nt_start,
        CompressorConfig::default().threads(1).fallback(false),
    );
    match engine.compress(&program).unwrap_err() {
        CompressError::NoParse {
            proc,
            segment_offset,
            ..
        } => {
            assert!(
                program.procs.iter().any(|p| p.name == proc),
                "reported proc {proc:?} is not in the program"
            );
            let failing = program.procs.iter().find(|p| p.name == proc).unwrap();
            assert!(
                segment_offset < failing.code.len().max(1),
                "segment offset {segment_offset} out of range"
            );
        }
        other => panic!("wanted NoParse, got {other:?}"),
    }
}

#[test]
fn injected_worker_panics_are_isolated_and_the_engine_recovers() {
    let (program, trained) = trained_sample();
    let ig = trained.initial();
    let _guard = faults::install(FaultPlan::new().with(FaultPoint::Encode, FaultMode::Nth(1)));
    let engine = Compressor::with_config(
        trained.expanded(),
        ig.nt_start,
        CompressorConfig::default().threads(1),
    );
    // The injected panic fires inside an encoder worker, after its first
    // tiling; isolation turns it into a structured error instead of
    // tearing the process down.
    match engine.compress(&program).unwrap_err() {
        CompressError::WorkerPanic { message, .. } => {
            assert!(
                message.contains("injected"),
                "unexpected payload: {message}"
            )
        }
        other => panic!("wanted WorkerPanic, got {other:?}"),
    }
    // The same engine stays usable: the next compression round-trips.
    let (cp, _) = engine.compress(&program).unwrap();
    let back = decompress_program(trained.expanded(), ig.nt_start, &cp).unwrap();
    let rt = trained.compress(&back).map(|(cp2, _)| cp2);
    assert!(rt.is_ok(), "recovered engine produced a bad image");
    assert_runs_identically(&program, &cp, &trained);
}

#[test]
fn injected_decode_failures_surface_cleanly_then_recover() {
    let (program, trained) = trained_sample();
    let ig = trained.initial();
    let (cp, _) = trained.compress(&program).unwrap();
    let _guard = faults::install(FaultPlan::new().with(FaultPoint::Decode, FaultMode::Nth(1)));
    assert!(matches!(
        decompress_program(trained.expanded(), ig.nt_start, &cp),
        Err(DecompressError::Injected { .. })
    ));
    assert!(decompress_program(trained.expanded(), ig.nt_start, &cp).is_ok());
}

#[test]
fn seeded_fault_plans_replay_identically() {
    let (program, trained) = trained_sample();
    let ig = trained.initial();
    let run = |seed: u64| {
        let _guard = faults::install(FaultPlan::new().with(
            FaultPoint::Parse,
            FaultMode::Seeded {
                seed,
                rate_per_1024: 512,
            },
        ));
        let engine = Compressor::with_config(
            trained.expanded(),
            ig.nt_start,
            CompressorConfig::default().threads(1),
        );
        let (cp, stats) = engine.compress(&program).unwrap();
        (cp.program.procs[0].code.clone(), stats.fallback_segments)
    };
    let (code_a, fallbacks_a) = run(0xDEC0DE);
    let (code_b, fallbacks_b) = run(0xDEC0DE);
    assert_eq!(code_a, code_b, "same seed produced different images");
    assert_eq!(fallbacks_a, fallbacks_b);
}
