//! # pgr-core
//!
//! The primary contribution of *Bytecode Compression via Profiled Grammar
//! Rewriting* (Evans & Fraser, PLDI 2001): training-driven grammar
//! expansion and the compressor/decompressor built on it.
//!
//! The pipeline (paper Figure 1):
//!
//! ```text
//!            ┌ training ─────────────────────────────────────────┐
//! original   │  parser → parse forest → grammar expander          │  expanded
//! grammar  ──┤  (deterministic)          (inline + contract loop) ├─ grammar
//! + samples  └────────────────────────────────────────────────────┘
//!
//!            ┌ compression ──────────────────────────────────────┐
//! program  ──┤  postfix parse → min-cost tiling → derivation      ├─ compressed
//!            └────────────────────────────────────────────────────┘  bytecode
//! ```
//!
//! * [`train`] parses a training set into a forest and repeatedly inlines
//!   the most frequent (parent rule, slot, child rule) edge, contracting
//!   all its occurrences (§4.1, Fig. 2), until every non-terminal is
//!   saturated at 256 rules or no edge recurs.
//! * [`Trained::compress`] encodes a program as per-segment shortest
//!   derivations (one byte per rule) and rewrites each procedure's label
//!   table to compressed-stream offsets (§3, §4.1). The paper finds
//!   shortest derivations with Earley's parser; [`tile`] finds them as
//!   minimum-cost tilings of each segment's unique postfix parse, with
//!   the `pgr-earley` parser kept as the reference spec.
//! * [`Trained::decompress`] expands derivations back to the original
//!   bytecode; `decompress(compress(p))` equals the canonicalized `p`
//!   exactly, which the test suite checks everywhere.

#![warn(missing_docs)]

pub mod canonical;
pub mod compress;
pub mod engine;
pub mod expander;
pub mod pipeline;
pub mod tile;

pub use canonical::canonicalize_program;
pub use compress::{CompressError, CompressedProgram, CompressionStats, DecompressError};
pub use engine::{
    BatchEntry, CacheStats, Compressor, CompressorConfig, CompressorConfigBuilder, PhaseTimings,
};
pub use expander::{expand, expand_with, ExpanderConfig, ExpansionStats};
pub use pipeline::{train, TrainConfig, TrainError, Trained};
pub use tile::NoParse;
