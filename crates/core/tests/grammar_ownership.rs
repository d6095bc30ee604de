//! An engine that owns its grammar is the same engine as one that
//! borrows it: ownership decides only who frees the grammar, never a
//! single output byte.

use pgr_core::{train, Compressor, CompressorConfig, TrainConfig};
use pgr_corpus::{compile_sample, SAMPLES};
use pgr_telemetry::Recorder;

#[test]
fn owning_and_borrowing_engines_emit_identical_bytes_on_every_sample() {
    let programs: Vec<_> = SAMPLES.iter().map(|(n, _)| compile_sample(n)).collect();
    let refs: Vec<_> = programs.iter().collect();
    let trained = train(&refs, &TrainConfig::default()).unwrap();
    let config = CompressorConfig::default().threads(2);
    let borrowing = Compressor::with_config(trained.expanded(), trained.start(), config);
    let owning = Compressor::owning(
        trained.expanded().clone(),
        trained.start(),
        config,
        Recorder::disabled(),
    );
    for (program, (name, _)) in programs.iter().zip(SAMPLES) {
        let (want, want_stats) = borrowing.compress(program).unwrap();
        let (got, got_stats) = owning.compress(program).unwrap();
        assert_eq!(got.program, want.program, "{name}");
        assert_eq!(got_stats, want_stats, "{name}");
        assert_eq!(
            owning.decompress(&got).unwrap(),
            borrowing.decompress(&want).unwrap(),
            "{name}"
        );
    }
}
