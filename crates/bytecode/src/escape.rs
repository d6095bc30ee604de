//! The verbatim-segment escape encoding.
//!
//! Graceful degradation for the compressor: when a segment has no
//! derivation under the expanded grammar, the engine emits the segment
//! *verbatim* — a reserved
//! marker byte, a little-endian `u16` length, and the raw canonical
//! bytecode — instead of failing the whole program. The decompressor and
//! both compressed-mode interpreter paths recognize the marker and copy
//! or execute the raw bytes directly.
//!
//! The marker must be unambiguous against derivation bytes. A derivation
//! byte at a segment start indexes into the start non-terminal's rule
//! list, so `0xFF` is free exactly when that list has at most 255 rules;
//! the trainer reserves the last slot (`ExpanderConfig::escape_reserve`
//! in `pgr-core`) so saturation can never claim it. Consumers still
//! gate on the actual rule count — a grammar built without the
//! reservation simply has no escape available and stays strict.
//!
//! ```
//! use pgr_bytecode::escape::{self, VERBATIM_HEADER, VERBATIM_MARKER};
//!
//! let raw = [1u8, 2, 3];
//! let enc = escape::encode_verbatim(&raw).unwrap();
//! assert_eq!(enc[0], VERBATIM_MARKER);
//! assert_eq!(escape::decode_verbatim_header(&enc), Some(raw.len()));
//! assert_eq!(&enc[VERBATIM_HEADER..], &raw);
//! ```

/// The escape marker: the one start-rule index the trainer keeps
/// unassigned.
pub const VERBATIM_MARKER: u8 = 0xFF;

/// Bytes of escape framing before the raw payload: the marker plus a
/// little-endian `u16` payload length.
pub const VERBATIM_HEADER: usize = 3;

/// Longest raw segment an escape can carry (the `u16` length field's
/// range). Segments are delimited by `LABELV` markers and are far
/// shorter in practice.
pub const VERBATIM_MAX_LEN: usize = u16::MAX as usize;

/// Encode `raw` as a verbatim escape, or `None` if it exceeds
/// [`VERBATIM_MAX_LEN`].
pub fn encode_verbatim(raw: &[u8]) -> Option<Vec<u8>> {
    if raw.len() > VERBATIM_MAX_LEN {
        return None;
    }
    let mut out = Vec::with_capacity(VERBATIM_HEADER + raw.len());
    out.push(VERBATIM_MARKER);
    out.extend_from_slice(&(raw.len() as u16).to_le_bytes());
    out.extend_from_slice(raw);
    Some(out)
}

/// If `stream` begins with a complete escape header, return the raw
/// payload's length (the payload itself starts at
/// `stream[VERBATIM_HEADER..]` and is *not* bounds-checked here —
/// callers validate it against their own stream limits).
pub fn decode_verbatim_header(stream: &[u8]) -> Option<usize> {
    if stream.len() < VERBATIM_HEADER || stream[0] != VERBATIM_MARKER {
        return None;
    }
    Some(usize::from(u16::from_le_bytes([stream[1], stream[2]])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_and_rejects_oversize() {
        let raw: Vec<u8> = (0..=255).cycle().take(1000).collect();
        let enc = encode_verbatim(&raw).unwrap();
        assert_eq!(enc.len(), VERBATIM_HEADER + raw.len());
        assert_eq!(decode_verbatim_header(&enc), Some(raw.len()));
        assert_eq!(&enc[VERBATIM_HEADER..], &raw[..]);

        // Empty segments encode too (a program can have empty segments
        // between adjacent labels).
        assert_eq!(
            decode_verbatim_header(&encode_verbatim(&[]).unwrap()),
            Some(0)
        );

        assert!(encode_verbatim(&vec![0u8; VERBATIM_MAX_LEN]).is_some());
        assert!(encode_verbatim(&vec![0u8; VERBATIM_MAX_LEN + 1]).is_none());

        // Not an escape: wrong marker or truncated header.
        assert_eq!(decode_verbatim_header(&[0x00, 1, 0]), None);
        assert_eq!(decode_verbatim_header(&[VERBATIM_MARKER, 1]), None);
    }
}
