//! The `.pgrg` grammar-file codec.
//!
//! A trained grammar travels between pipeline stages (and into the
//! registry) as a small container: magic, version, the two non-terminal
//! handles the compressed interpreter needs, then the compact
//! [`encode`](crate::encode) body. Historically this format lived in the
//! CLI as `write_grammar_file`/`read_grammar_file` returning
//! `Result<_, String>`; [`GrammarFile`] is the typed replacement every
//! embedder (CLI, registry, server) now shares.
//!
//! ```text
//! offset  size  field
//!      0     4  magic "PGRG"
//!      4     1  version (1)
//!      5     1  start non-terminal id
//!      6     1  byte non-terminal id
//!      7     …  encode::encode_grammar body
//! ```
//!
//! The serialization is canonical: `from_bytes(x).to_bytes() == x` for
//! every accepted `x`, which is what makes content-addressing (the
//! registry's `GrammarId` is a digest of these bytes) well-defined.

use crate::encode::{decode_grammar, encode_grammar, GrammarDecodeError};
use crate::grammar::Grammar;
use crate::initial::InitialGrammar;
use crate::postfix::{admit, Inadmissible};
use crate::symbol::Nt;
use std::fmt;

/// Grammar-file magic.
pub const MAGIC: &[u8; 4] = b"PGRG";

/// Current grammar-file version.
pub const VERSION: u8 = 1;

/// Bytes before the encoded grammar body: magic, version, start handle,
/// byte handle.
pub const HEADER_LEN: usize = 7;

/// A failure decoding a `.pgrg` grammar file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrammarFileError {
    /// The magic bytes are wrong (or the file is shorter than a header).
    NotAGrammarFile,
    /// The version byte is not one this build reads.
    UnsupportedVersion(u8),
    /// A non-terminal handle in the header is not declared by the body.
    BadHandle {
        /// Which handle ("start" or "byte").
        handle: &'static str,
        /// The out-of-range id.
        id: u16,
        /// How many non-terminals the body declares.
        nt_count: usize,
    },
    /// The grammar body is malformed.
    Grammar(GrammarDecodeError),
    /// The grammar decodes but is not one the compressor can encode
    /// against (see [`admit`]).
    Inadmissible(Inadmissible),
}

impl fmt::Display for GrammarFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarFileError::NotAGrammarFile => write!(f, "not a PGRG grammar file"),
            GrammarFileError::UnsupportedVersion(v) => {
                write!(f, "unsupported grammar version {v}")
            }
            GrammarFileError::BadHandle {
                handle,
                id,
                nt_count,
            } => write!(
                f,
                "{handle} non-terminal {id} out of range (grammar declares {nt_count})"
            ),
            GrammarFileError::Grammar(_) => write!(f, "malformed grammar body"),
            GrammarFileError::Inadmissible(_) => write!(f, "grammar not accepted"),
        }
    }
}

impl std::error::Error for GrammarFileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GrammarFileError::Grammar(e) => Some(e),
            GrammarFileError::Inadmissible(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GrammarDecodeError> for GrammarFileError {
    fn from(e: GrammarDecodeError) -> GrammarFileError {
        GrammarFileError::Grammar(e)
    }
}

/// A trained grammar plus the two non-terminal handles the compressed
/// interpreter needs, as serialized in a `.pgrg` file.
#[derive(Debug, Clone)]
pub struct GrammarFile {
    /// The expanded grammar.
    pub grammar: Grammar,
    /// The segment start symbol (`<start>` of Appendix 2).
    pub start: Nt,
    /// The literal-byte non-terminal (`<byte>`), used by `interp_nt` for
    /// stream operands.
    pub byte_nt: Nt,
}

impl GrammarFile {
    /// Bundle a grammar with its interpreter handles.
    pub fn new(grammar: Grammar, start: Nt, byte_nt: Nt) -> GrammarFile {
        GrammarFile {
            grammar,
            start,
            byte_nt,
        }
    }

    /// Serialize to the canonical `.pgrg` byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.push(VERSION);
        out.push(self.start.0 as u8);
        out.push(self.byte_nt.0 as u8);
        out.extend_from_slice(&encode_grammar(&self.grammar));
        out
    }

    /// Parse a `.pgrg` file.
    ///
    /// # Errors
    ///
    /// See [`GrammarFileError`]: bad magic/version, an out-of-range
    /// non-terminal handle, a malformed grammar body, or a grammar the
    /// compressor does not accept.
    pub fn from_bytes(bytes: &[u8]) -> Result<GrammarFile, GrammarFileError> {
        if bytes.len() < HEADER_LEN || &bytes[..4] != MAGIC {
            return Err(GrammarFileError::NotAGrammarFile);
        }
        if bytes[4] != VERSION {
            return Err(GrammarFileError::UnsupportedVersion(bytes[4]));
        }
        let start = Nt(u16::from(bytes[5]));
        let byte_nt = Nt(u16::from(bytes[6]));
        let grammar = decode_grammar(&bytes[HEADER_LEN..])?;
        let nt_count = grammar.nt_count();
        for (handle, nt) in [("start", start), ("byte", byte_nt)] {
            if usize::from(nt.0) >= nt_count {
                return Err(GrammarFileError::BadHandle {
                    handle,
                    id: nt.0,
                    nt_count,
                });
            }
        }
        admit(&grammar, start).map_err(GrammarFileError::Inadmissible)?;
        if byte_nt != InitialGrammar::build().nt_byte {
            return Err(GrammarFileError::Inadmissible(Inadmissible::Layout {
                nt_count,
                handle: "byte",
                id: byte_nt.0,
            }));
        }
        Ok(GrammarFile {
            grammar,
            start,
            byte_nt,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initial::InitialGrammar;

    fn sample() -> GrammarFile {
        let ig = InitialGrammar::build();
        GrammarFile::new(ig.grammar, ig.nt_start, ig.nt_byte)
    }

    #[test]
    fn roundtrips_canonically() {
        let file = sample();
        let bytes = file.to_bytes();
        let back = GrammarFile::from_bytes(&bytes).unwrap();
        assert_eq!(back.start, file.start);
        assert_eq!(back.byte_nt, file.byte_nt);
        assert_eq!(back.grammar.nt_count(), file.grammar.nt_count());
        // Canonical: decoding and re-encoding reproduces the bytes, the
        // property content-addressing relies on.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn rejects_bad_headers() {
        let bytes = sample().to_bytes();
        assert_eq!(
            GrammarFile::from_bytes(&bytes[..3]).unwrap_err(),
            GrammarFileError::NotAGrammarFile
        );
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            GrammarFile::from_bytes(&wrong_magic).unwrap_err(),
            GrammarFileError::NotAGrammarFile
        );
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert_eq!(
            GrammarFile::from_bytes(&wrong_version).unwrap_err(),
            GrammarFileError::UnsupportedVersion(9)
        );
    }

    #[test]
    fn rejects_out_of_range_handles() {
        let mut bytes = sample().to_bytes();
        bytes[5] = 200; // far beyond the initial grammar's NT count
        assert!(matches!(
            GrammarFile::from_bytes(&bytes).unwrap_err(),
            GrammarFileError::BadHandle {
                handle: "start",
                ..
            }
        ));
    }

    #[test]
    fn grammars_the_compressor_cannot_use_are_refused() {
        use crate::symbol::Symbol;
        let ig = InitialGrammar::build();
        let mut bad = ig.grammar.clone();
        // <x> ::= <v>: a value is not a statement.
        bad.add_rule(
            ig.nt_x,
            vec![Symbol::N(ig.nt_v)],
            crate::RuleOrigin::Original,
        );
        let bytes = GrammarFile::new(bad, ig.nt_start, ig.nt_byte).to_bytes();
        let err = GrammarFile::from_bytes(&bytes).unwrap_err();
        assert!(matches!(
            err,
            GrammarFileError::Inadmissible(Inadmissible::NotSentential { index: 3, .. })
        ));
        use std::error::Error as _;
        assert_eq!(
            err.source().unwrap().to_string(),
            "rule 3 of <x> is not a sentential form of <x>"
        );

        let mut swapped = sample().to_bytes();
        swapped[6] = 1; // byte handle names <v>
        assert!(matches!(
            GrammarFile::from_bytes(&swapped).unwrap_err(),
            GrammarFileError::Inadmissible(Inadmissible::Layout { handle: "byte", .. })
        ));
    }

    #[test]
    fn truncated_bodies_chain_to_the_decoder() {
        let bytes = sample().to_bytes();
        let err = GrammarFile::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert_eq!(
            err,
            GrammarFileError::Grammar(GrammarDecodeError::Truncated)
        );
        use std::error::Error as _;
        assert!(err.source().is_some());
    }
}
