//! The compressor and decompressor.
//!
//! "The compressed bytecode for a program is a specification of a shortest
//! derivation under the expanded grammar" (§2). Each straight-line segment
//! of a procedure is encoded as one derivation of `<start>`, one byte per
//! rule; the per-procedure label table is rewritten so that each entry
//! holds the compressed-stream offset of its segment (§3: the compressor
//! "rewrites the label table to reflect the new position of each label,
//! but the label table indices in the bytecode do not change").
//!
//! Decompression exists for verification (the real consumer of compressed
//! code is the generated interpreter in `pgr-vm`): it expands each
//! derivation back to bytecode and re-inserts the `LABELV` markers, and is
//! an exact inverse of compression on canonical programs.

use crate::canonical::CanonError;
use crate::engine::PhaseTimings;
use crate::tile::NoParse;
use pgr_bytecode::{escape, Opcode, Procedure, Program};
use pgr_grammar::derivation::DerivationError;
use pgr_grammar::initial::{detokenize, TokenizeError};
use pgr_grammar::{Derivation, Grammar, Nt};
use pgr_telemetry::faults::{self, FaultPoint};
use std::fmt;

/// A compressed program: same packaging as [`Program`] (descriptors,
/// label tables, global table, data), but every procedure's `code` holds
/// derivation bytes and every label offset points into that stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedProgram {
    /// The compressed image.
    pub program: Program,
}

/// Sizes (and, on request, phase timings) measured for one compression
/// run.
///
/// Stats form a commutative monoid under [`CompressionStats::merge`] with
/// `Default` as the identity: the engine computes them per segment and per
/// procedure, then folds, so no `&mut` accumulator threads through the
/// parallel encoding pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompressionStats {
    /// Canonical uncompressed code bytes.
    pub original_code: usize,
    /// Compressed code bytes.
    pub compressed_code: usize,
    /// Number of segments encoded.
    pub segments: usize,
    /// Segments that did not tokenize or had no derivation and were
    /// emitted as verbatim escapes instead (see
    /// [`CompressorConfig::fallback`](crate::engine::CompressorConfig::fallback)).
    pub fallback_segments: usize,
    /// Per-phase wall-clock cost; all zero unless the engine's recorder
    /// is enabled.
    pub timings: PhaseTimings,
}

impl CompressionStats {
    /// Compressed-to-original ratio (1.0 when nothing shrank).
    pub fn ratio(&self) -> f64 {
        if self.original_code == 0 {
            1.0
        } else {
            self.compressed_code as f64 / self.original_code as f64
        }
    }

    /// Combine two measurements (componentwise sum).
    pub fn merge(self, other: CompressionStats) -> CompressionStats {
        CompressionStats {
            original_code: self.original_code + other.original_code,
            compressed_code: self.compressed_code + other.compressed_code,
            segments: self.segments + other.segments,
            fallback_segments: self.fallback_segments + other.fallback_segments,
            timings: self.timings.merge(other.timings),
        }
    }
}

/// An error while compressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// Canonicalization failed (malformed input program).
    Canon(CanonError),
    /// A segment does not tokenize.
    Tokenize {
        /// Procedure name.
        proc: String,
        /// The underlying tokenizer error.
        error: TokenizeError,
    },
    /// A segment is not in the grammar's language (ill-formed postfix
    /// code; run the validator on the input). With fallback enabled the
    /// engine degrades to a verbatim escape instead of reporting this;
    /// see [`CompressorConfig::fallback`](crate::engine::CompressorConfig::fallback).
    NoParse {
        /// Procedure name.
        proc: String,
        /// Byte offset of the offending segment.
        segment_offset: usize,
        /// The tiler's report.
        error: NoParse,
    },
    /// An encoder worker panicked on this segment. The panic was caught
    /// at the segment boundary (`catch_unwind`), so other segments and
    /// the engine itself are unaffected; the payload's message is
    /// preserved here.
    WorkerPanic {
        /// Procedure name.
        proc: String,
        /// Byte offset of the offending segment.
        segment_offset: usize,
        /// The panic payload, if it was a string (the common case).
        message: String,
    },
    /// The request's `CancelToken` fired (deadline passed or the owner
    /// cancelled) before this entry finished encoding. Unlike a segment
    /// with no derivation this never degrades to verbatim fallback — the caller asked
    /// for the work to *stop*, not to be answered more cheaply.
    Cancelled {
        /// Milliseconds between the token's creation (request arrival)
        /// and the cancellation check that fired.
        elapsed_ms: u64,
    },
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Canon(e) => write!(f, "{e}"),
            CompressError::Tokenize { proc, error } => write!(f, "{proc}: {error}"),
            CompressError::NoParse {
                proc,
                segment_offset,
                error,
            } => write!(f, "{proc}: segment at {segment_offset}: {error}"),
            CompressError::WorkerPanic {
                proc,
                segment_offset,
                message,
            } => write!(
                f,
                "{proc}: segment at {segment_offset}: encoder worker panicked: {message}"
            ),
            CompressError::Cancelled { elapsed_ms } => {
                write!(f, "compression cancelled after {elapsed_ms} ms")
            }
        }
    }
}

impl std::error::Error for CompressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompressError::Canon(e) => Some(e),
            CompressError::Tokenize { error, .. } => Some(error),
            CompressError::NoParse { error, .. } => Some(error),
            CompressError::WorkerPanic { .. } => None,
            CompressError::Cancelled { .. } => None,
        }
    }
}

impl From<CanonError> for CompressError {
    fn from(e: CanonError) -> CompressError {
        CompressError::Canon(e)
    }
}

/// An error while decompressing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// A derivation failed to decode or expand.
    Derivation {
        /// Procedure name.
        proc: String,
        /// The underlying derivation error.
        error: DerivationError,
    },
    /// A derivation did not end exactly at the next segment boundary.
    Misaligned {
        /// Procedure name.
        proc: String,
        /// Stream offset of the misalignment.
        offset: usize,
    },
    /// The expanded token string is not well-formed instruction bytes
    /// (cannot happen for grammars built from the initial grammar).
    Detokenize {
        /// Procedure name.
        proc: String,
    },
    /// A verbatim escape's declared payload runs past the next segment
    /// boundary (or off the end of the stream).
    VerbatimOverrun {
        /// Procedure name.
        proc: String,
        /// Stream offset of the escape marker.
        offset: usize,
    },
    /// A deterministic fault-injection trip (test harness only).
    Injected {
        /// Procedure name.
        proc: String,
    },
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::Derivation { proc, error } => write!(f, "{proc}: {error}"),
            DecompressError::Misaligned { proc, offset } => {
                write!(f, "{proc}: derivation boundary mismatch at {offset}")
            }
            DecompressError::Detokenize { proc } => {
                write!(f, "{proc}: expanded tokens are not valid instructions")
            }
            DecompressError::VerbatimOverrun { proc, offset } => {
                write!(
                    f,
                    "{proc}: verbatim escape at {offset} overruns its segment"
                )
            }
            DecompressError::Injected { proc } => {
                write!(f, "{proc}: injected decode fault (test harness)")
            }
        }
    }
}

impl std::error::Error for DecompressError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecompressError::Derivation { error, .. } => Some(error),
            DecompressError::Misaligned { .. }
            | DecompressError::Detokenize { .. }
            | DecompressError::VerbatimOverrun { .. }
            | DecompressError::Injected { .. } => None,
        }
    }
}

/// Decompress one procedure.
fn decompress_procedure(
    grammar: &Grammar,
    start: Nt,
    proc: &Procedure,
) -> Result<Procedure, DecompressError> {
    // Unique segment boundaries, in stream order.
    let mut boundaries: Vec<u32> = proc.labels.clone();
    boundaries.sort_unstable();
    boundaries.dedup();

    // The escape marker is only unambiguous when the start non-terminal
    // kept its last one-byte rule index free (trained grammars always
    // do; see `ExpanderConfig::escape_reserve`).
    let verbatim_ok = grammar.rules_of(start).len() <= usize::from(escape::VERBATIM_MARKER);

    let mut out = Vec::new();
    let mut label_map: Vec<(u32, u32)> = Vec::new(); // compressed off -> new off
    let mut pos = 0usize;
    let mut bi = 0usize;
    loop {
        while bi < boundaries.len() && boundaries[bi] as usize == pos {
            label_map.push((boundaries[bi], out.len() as u32));
            out.push(Opcode::LABELV as u8);
            bi += 1;
        }
        if pos >= proc.code.len() {
            break;
        }
        if faults::fire(FaultPoint::Decode) {
            return Err(DecompressError::Injected {
                proc: proc.name.clone(),
            });
        }
        let limit = boundaries
            .get(bi)
            .map(|&b| b as usize)
            .unwrap_or(proc.code.len());
        if verbatim_ok && proc.code[pos] == escape::VERBATIM_MARKER {
            // A verbatim escape: copy the raw canonical bytes through.
            let end = match escape::decode_verbatim_header(&proc.code[pos..]) {
                Some(len) => pos + escape::VERBATIM_HEADER + len,
                None => proc.code.len() + 1, // truncated header
            };
            if end > limit {
                return Err(DecompressError::VerbatimOverrun {
                    proc: proc.name.clone(),
                    offset: pos,
                });
            }
            out.extend_from_slice(&proc.code[pos + escape::VERBATIM_HEADER..end]);
            pos = end;
            continue;
        }
        let (derivation, used) = Derivation::from_bytes(grammar, start, &proc.code[pos..])
            .map_err(|error| DecompressError::Derivation {
                proc: proc.name.clone(),
                error,
            })?;
        let end = pos + used;
        if end > limit {
            return Err(DecompressError::Misaligned {
                proc: proc.name.clone(),
                offset: pos,
            });
        }
        let tokens =
            derivation
                .expand(grammar, start)
                .map_err(|error| DecompressError::Derivation {
                    proc: proc.name.clone(),
                    error,
                })?;
        out.extend(detokenize(&tokens));
        pos = end;
    }

    let labels = proc
        .labels
        .iter()
        .map(|&c| {
            label_map
                .iter()
                .find(|(o, _)| *o == c)
                .map(|&(_, n)| n)
                .ok_or(DecompressError::Misaligned {
                    proc: proc.name.clone(),
                    offset: c as usize,
                })
        })
        .collect::<Result<_, _>>()?;

    Ok(Procedure {
        name: proc.name.clone(),
        frame_size: proc.frame_size,
        arg_size: proc.arg_size,
        code: out,
        labels,
        needs_trampoline: proc.needs_trampoline,
    })
}

/// Decompress a program: the exact inverse of
/// [`Compressor::compress`](crate::engine::Compressor::compress) on
/// canonical inputs.
///
/// # Errors
///
/// See [`DecompressError`].
pub fn decompress_program(
    grammar: &Grammar,
    start: Nt,
    compressed: &CompressedProgram,
) -> Result<Program, DecompressError> {
    let mut out = compressed.program.clone();
    out.procs = compressed
        .program
        .procs
        .iter()
        .map(|p| decompress_procedure(grammar, start, p))
        .collect::<Result<_, _>>()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::canonicalize_program;
    use crate::engine::Compressor;
    use pgr_bytecode::asm::assemble;
    use pgr_grammar::InitialGrammar;

    const SAMPLE: &str = r#"
proc check frame=0 args=4
    ADDRFP 0
    INDIRU
    LIT1 0
    NEU
    BrTrue 0
    LIT1 0
    ARGU
    ADDRGP 0
    CALLU
    POPU
    label 0
    RETV
endproc
native exit
entry check
"#;

    #[test]
    fn roundtrip_under_the_initial_grammar() {
        let ig = InitialGrammar::build();
        let prog = assemble(SAMPLE).unwrap();
        let engine = Compressor::new(&ig.grammar, ig.nt_start);
        let (cp, stats) = engine.compress(&prog).unwrap();
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.original_code, prog.procs[0].code.len());
        let back = decompress_program(&ig.grammar, ig.nt_start, &cp).unwrap();
        assert_eq!(back, canonicalize_program(&prog).unwrap());
    }

    #[test]
    fn label_table_points_at_segment_starts() {
        let ig = InitialGrammar::build();
        let prog = assemble(SAMPLE).unwrap();
        let (cp, _) = Compressor::new(&ig.grammar, ig.nt_start)
            .compress(&prog)
            .unwrap();
        let p = &cp.program.procs[0];
        assert_eq!(p.labels.len(), 1);
        let off = p.labels[0] as usize;
        assert!(off < p.code.len());
        // Decoding a derivation from the label offset succeeds and covers
        // the remainder of the stream (the RETV segment).
        let (d, used) = Derivation::from_bytes(&ig.grammar, ig.nt_start, &p.code[off..]).unwrap();
        assert_eq!(off + used, p.code.len());
        let tokens = d.expand(&ig.grammar, ig.nt_start).unwrap();
        assert_eq!(detokenize(&tokens), vec![pgr_bytecode::Opcode::RETV as u8]);
    }

    #[test]
    fn initial_grammar_compression_is_not_smaller() {
        // Under the unexpanded grammar the derivation has one byte per
        // parse-tree node, which is *larger* than the bytecode. That is
        // the paper's point: expansion is what buys compression.
        let ig = InitialGrammar::build();
        let prog = assemble(SAMPLE).unwrap();
        let (_, stats) = Compressor::new(&ig.grammar, ig.nt_start)
            .compress(&prog)
            .unwrap();
        assert!(stats.compressed_code > stats.original_code);
        assert!(stats.ratio() > 1.0);
    }

    #[test]
    fn ill_formed_code_reports_no_parse_in_strict_mode() {
        use crate::engine::CompressorConfig;

        let ig = InitialGrammar::build();
        let mut prog = assemble("proc f frame=0 args=0\n\tRETV\nendproc\n").unwrap();
        prog.procs[0].code = vec![pgr_bytecode::Opcode::ADDU as u8];
        let err = Compressor::with_config(
            &ig.grammar,
            ig.nt_start,
            CompressorConfig::default().fallback(false),
        )
        .compress(&prog)
        .unwrap_err();
        assert!(matches!(err, CompressError::NoParse { .. }));
    }

    #[test]
    fn verbatim_escapes_decompress_byte_identically() {
        use pgr_bytecode::escape;

        let ig = InitialGrammar::build();
        // Hand-build a compressed procedure mixing a real derivation and
        // a verbatim escape: [escape(ADDU)] LABELV [derivation(RETV)].
        let raw = vec![pgr_bytecode::Opcode::ADDU as u8];
        let escaped = escape::encode_verbatim(&raw).unwrap();
        let retv = tokenize(&[pgr_bytecode::Opcode::RETV as u8]);
        let derivation_bytes = crate::tile::Tiler::new(&ig.grammar, ig.nt_start)
            .tile(&mut crate::tile::TileScratch::new(), &retv, None)
            .unwrap()
            .to_bytes(&ig.grammar.rule_index_map());
        let mut code = escaped.clone();
        let label_off = code.len() as u32;
        code.extend_from_slice(&derivation_bytes);
        let mut proc = Procedure::new("mixed");
        proc.code = code;
        proc.labels = vec![label_off];
        let mut program = Program::new();
        program.procs.push(proc);
        let cp = CompressedProgram { program };

        let back = decompress_program(&ig.grammar, ig.nt_start, &cp).unwrap();
        assert_eq!(
            back.procs[0].code,
            [
                raw.clone(),
                vec![Opcode::LABELV as u8],
                vec![pgr_bytecode::Opcode::RETV as u8]
            ]
            .concat()
        );

        // An escape whose length overruns its segment is a clean error.
        let mut bad = cp.clone();
        bad.program.procs[0].code[1] = 0xEE; // huge declared length
        let err = decompress_program(&ig.grammar, ig.nt_start, &bad).unwrap_err();
        assert!(matches!(err, DecompressError::VerbatimOverrun { .. }));
    }

    fn tokenize(code: &[u8]) -> Vec<pgr_grammar::Terminal> {
        pgr_grammar::initial::tokenize_segment(code).unwrap()
    }

    #[test]
    fn empty_procedure_compresses_to_nothing() {
        let ig = InitialGrammar::build();
        let mut prog = Program::new();
        prog.procs.push(Procedure::new("empty"));
        let (cp, stats) = Compressor::new(&ig.grammar, ig.nt_start)
            .compress(&prog)
            .unwrap();
        assert_eq!(cp.program.procs[0].code.len(), 0);
        assert_eq!(stats.segments, 0);
        let back = decompress_program(&ig.grammar, ig.nt_start, &cp).unwrap();
        assert_eq!(back.procs[0].code.len(), 0);
    }
}
