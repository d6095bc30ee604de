//! The unified error type for the whole pipeline.
//!
//! Each subsystem has a precise error enum (`TrainError`, `CompressError`,
//! `DecompressError`, `ValidateError`); [`PgrError`] wraps them so
//! embedders and the CLI can hold one type end-to-end, and so `?` works
//! across phase boundaries. Every variant preserves its inner error via
//! [`std::error::Error::source`], giving a full cause chain down to the
//! leaf (`DecodeError`, `TokenizeError`, `NoParse`, …).

use pgr_bytecode::ValidateError;
use pgr_core::{CompressError, DecompressError, TrainError};
use pgr_grammar::GrammarFileError;
use pgr_registry::{RegistryError, ServeError};
use std::error::Error;
use std::fmt;

/// Any failure in the train → compress → decompress pipeline, in the
/// validation that guards it, or in the grammar storage and serving
/// layers around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PgrError {
    /// Grammar training failed.
    Train(TrainError),
    /// Compression failed.
    Compress(CompressError),
    /// Decompression failed.
    Decompress(DecompressError),
    /// A program failed static validation.
    Validate(ValidateError),
    /// A `.pgrg` grammar file failed to decode.
    GrammarFile(GrammarFileError),
    /// The grammar registry refused an operation.
    Registry(RegistryError),
    /// The request server failed to start.
    Serve(ServeError),
}

impl fmt::Display for PgrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgrError::Train(e) => write!(f, "training failed: {e}"),
            PgrError::Compress(e) => write!(f, "compression failed: {e}"),
            PgrError::Decompress(e) => write!(f, "decompression failed: {e}"),
            PgrError::Validate(e) => write!(f, "validation failed: {e}"),
            PgrError::GrammarFile(_) => write!(f, "grammar file rejected"),
            PgrError::Registry(_) => write!(f, "registry operation failed"),
            PgrError::Serve(_) => write!(f, "serve failed"),
        }
    }
}

impl Error for PgrError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PgrError::Train(e) => Some(e),
            PgrError::Compress(e) => Some(e),
            PgrError::Decompress(e) => Some(e),
            PgrError::Validate(e) => Some(e),
            PgrError::GrammarFile(e) => Some(e),
            PgrError::Registry(e) => Some(e),
            PgrError::Serve(e) => Some(e),
        }
    }
}

impl From<TrainError> for PgrError {
    fn from(e: TrainError) -> PgrError {
        PgrError::Train(e)
    }
}

impl From<CompressError> for PgrError {
    fn from(e: CompressError) -> PgrError {
        PgrError::Compress(e)
    }
}

impl From<DecompressError> for PgrError {
    fn from(e: DecompressError) -> PgrError {
        PgrError::Decompress(e)
    }
}

impl From<ValidateError> for PgrError {
    fn from(e: ValidateError) -> PgrError {
        PgrError::Validate(e)
    }
}

impl From<GrammarFileError> for PgrError {
    fn from(e: GrammarFileError) -> PgrError {
        PgrError::GrammarFile(e)
    }
}

impl From<RegistryError> for PgrError {
    fn from(e: RegistryError) -> PgrError {
        PgrError::Registry(e)
    }
}

impl From<ServeError> for PgrError {
    fn from(e: ServeError) -> PgrError {
        PgrError::Serve(e)
    }
}

impl PgrError {
    /// Render the error with its full cause chain, one `caused by:` line
    /// per source whose text the report does not already end with, for
    /// terminal diagnostics. Most layers quote their source, so a chain
    /// usually renders as one line:
    ///
    /// ```text
    /// decompression failed: main: step 3: N2 has no rule 10
    /// ```
    ///
    /// while a layer that only names the failure keeps its cause:
    ///
    /// ```text
    /// grammar file rejected
    ///   caused by: not a PGRG grammar file
    /// ```
    pub fn report(&self) -> String {
        error_chain(self)
    }
}

/// Render any error and its [`source`](Error::source) chain, one
/// indented `caused by:` line per level, skipping a level whose text
/// the rendering so far already ends with (a layer that quotes its
/// source).
pub fn error_chain(err: &dyn Error) -> String {
    let mut out = err.to_string();
    let mut cause = err.source();
    while let Some(e) = cause {
        let text = e.to_string();
        if !out.ends_with(&text) {
            out.push_str("\n  caused by: ");
            out.push_str(&text);
        }
        cause = e.source();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr_bytecode::{Opcode, Procedure, Program};
    use pgr_core::{train, TrainConfig};
    use pgr_grammar::InitialGrammar;

    fn undecodable_program() -> Program {
        let mut prog = Program::new();
        let mut proc = Procedure::new("f");
        proc.code = vec![0xff];
        prog.procs.push(proc);
        prog
    }

    #[test]
    fn train_errors_chain_to_the_leaf() {
        let prog = undecodable_program();
        let err: PgrError = train(&[&prog], &TrainConfig::default()).unwrap_err().into();
        assert!(matches!(err, PgrError::Train(_)));
        // PgrError -> TrainError -> ValidateError -> DecodeError
        let validate = err.source().unwrap().source().unwrap();
        let decode = validate.source().unwrap();
        assert!(decode.to_string().contains("invalid opcode"));
        assert!(decode.source().is_none());
    }

    #[test]
    fn compress_errors_chain_to_the_parser_report() {
        let ig = InitialGrammar::build();
        let mut prog = Program::new();
        let mut proc = Procedure::new("f");
        proc.code = vec![Opcode::ADDU as u8];
        prog.procs.push(proc);
        let err: PgrError = pgr_core::Compressor::with_config(
            &ig.grammar,
            ig.nt_start,
            pgr_core::CompressorConfig::default().fallback(false),
        )
        .compress(&prog)
        .unwrap_err()
        .into();
        assert_eq!(
            err.report(),
            "compression failed: f: segment at 0: input has no derivation (stuck near token 0)"
        );
    }

    #[test]
    fn validate_errors_wrap_directly() {
        let err: PgrError = pgr_bytecode::validate_program(&undecodable_program())
            .unwrap_err()
            .into();
        assert!(matches!(err, PgrError::Validate(_)));
        assert!(err.source().unwrap().source().is_some());
    }

    #[test]
    fn chain_renders_every_level() {
        // A layer that only names the failure keeps its cause's line.
        let err: PgrError = pgr_grammar::GrammarFile::from_bytes(b"junk")
            .unwrap_err()
            .into();
        assert_eq!(
            err.report(),
            "grammar file rejected\n  caused by: not a PGRG grammar file"
        );
        // A layer that quotes its cause prints the sentence once.
        let config = TrainConfig {
            expander: pgr_core::ExpanderConfig {
                max_rules_per_nt: 300,
                ..Default::default()
            },
            ..TrainConfig::default()
        };
        let err: PgrError = train(&[], &config).unwrap_err().into();
        assert_eq!(
            err.report(),
            "training failed: rule cap 300 is above 256: rule indices must fit one byte"
        );
        // Every level of a derivation error quotes the next.
        let sieve = pgr_corpus::compile_sample("sieve");
        let crc32 = pgr_corpus::compile_sample("crc32");
        let (image, _) = train(&[&sieve], &TrainConfig::default())
            .unwrap()
            .compress(&sieve)
            .unwrap();
        let foreign = train(&[&crc32], &TrainConfig::default()).unwrap();
        let err: PgrError = foreign.decompress(&image).unwrap_err().into();
        assert_eq!(
            err.report(),
            "decompression failed: main: step 3: N2 has no rule 10"
        );
    }
}
