//! Inputs drawn from the workload seed: held-out programs, serve
//! programs, and arrival schedules, plus the training set, which is the
//! same for every workload seed. Every generator seed is derived through
//! a named stream, and the streams are checked to be disjoint before any
//! input is used.

use pgr_bytecode::Program;
use pgr_corpus::synth::{self, Flavor, SynthConfig};
use pgr_telemetry::faults::splitmix64;
use std::collections::HashSet;

/// The named seed streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Training programs for the shared grammar.
    Train = 1,
    /// Held-out programs compressed or run offline.
    Heldout = 2,
    /// Programs sent to `pgr serve`.
    Serve = 3,
    /// Everything that is not a program: orders, arrival times.
    Schedule = 4,
}

/// The seed the training stream is drawn under, whatever the workload
/// seed: the rules a training set fills the expander's budget with move
/// compression speed by up to a quarter, so a grammar trained per seed
/// would spread a speed metric across seeds by more than a change to the
/// code. Every seed therefore compresses and runs with one grammar.
pub const TRAIN_SEED: u64 = 0;

/// The generator seed of input `index` in `stream` under workload seed
/// `seed` (under [`TRAIN_SEED`] for the training stream).
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    let seed = match stream {
        Stream::Train => TRAIN_SEED,
        _ => seed,
    };
    splitmix64(splitmix64(splitmix64(seed) ^ stream as u64) ^ index)
}

/// A small deterministic generator for shuffles and arrival times.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Training set size: programs and functions per program.
pub const TRAIN_PROGRAMS: u64 = 8;
pub const TRAIN_FUNCTIONS: usize = 40;

/// A generated program and the generator seed it came from.
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub program: Program,
}

fn flavor_of(gen_seed: u64) -> Flavor {
    if gen_seed & 1 == 0 {
        Flavor::Compiler
    } else {
        Flavor::Numeric
    }
}

/// Input `index` of `stream`, with a function count from `functions`
/// (inclusive range) chosen by the same derived seed. Both flavours
/// occur, chosen by the seed's low bit.
pub fn synth_input(seed: u64, stream: Stream, index: u64, functions: (usize, usize)) -> Input {
    let gen_seed = derive(seed, stream, index);
    let mut rng = Rng::new(gen_seed);
    let functions = rng.range(functions.0, functions.1);
    let flavor = flavor_of(gen_seed);
    Input {
        name: format!("synth-{gen_seed:016x}"),
        program: synth::generate(&SynthConfig {
            seed: gen_seed,
            functions,
            flavor,
        }),
    }
}

/// The training programs, the same under every workload seed.
pub fn training_set() -> Vec<Program> {
    (0..TRAIN_PROGRAMS)
        .map(|i| {
            let gen_seed = derive(TRAIN_SEED, Stream::Train, i);
            synth::generate(&SynthConfig {
                seed: gen_seed,
                functions: TRAIN_FUNCTIONS,
                flavor: if i % 2 == 0 {
                    Flavor::Compiler
                } else {
                    Flavor::Numeric
                },
            })
        })
        .collect()
}

/// Check that the generator seeds a run uses in `streams` — each given
/// as `(stream, number of indices used)` — are pairwise distinct, so no
/// training program is also a test input.
pub fn assert_disjoint(seed: u64, streams: &[(Stream, u64)]) {
    let mut seen: HashSet<u64> = HashSet::new();
    for &(stream, count) in streams {
        for i in 0..count {
            let s = derive(seed, stream, i);
            assert!(
                seen.insert(s),
                "generator seed {s:#x} ({stream:?} #{i}) collides with another input"
            );
        }
    }
}

/// The embedded samples, compiled.
pub fn samples() -> Vec<Input> {
    pgr_corpus::SAMPLES
        .iter()
        .map(|(name, _)| Input {
            name: (*name).to_string(),
            program: pgr_corpus::compile_sample(name),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_disjoint_and_reproducible() {
        assert_disjoint(
            7,
            &[
                (Stream::Train, TRAIN_PROGRAMS),
                (Stream::Heldout, 5000),
                (Stream::Serve, 5000),
            ],
        );
        assert_eq!(derive(7, Stream::Serve, 3), derive(7, Stream::Serve, 3));
        assert_ne!(derive(7, Stream::Serve, 3), derive(8, Stream::Serve, 3));
    }

    #[test]
    fn every_seed_trains_on_the_same_programs() {
        assert_eq!(derive(7, Stream::Train, 3), derive(8, Stream::Train, 3));
        assert_eq!(training_set(), training_set());
        assert_disjoint(
            8,
            &[(Stream::Train, TRAIN_PROGRAMS), (Stream::Heldout, 5000)],
        );
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(3).shuffle(&mut a);
        Rng::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
