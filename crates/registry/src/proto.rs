//! The serve wire protocol: newline-delimited JSON over a Unix socket.
//!
//! Each request is one JSON object on one line; each response is one
//! JSON object on one line. Binary payloads (bytecode images, VM input
//! and output) travel as standard base64 strings, so the framing stays
//! plain text and a session can be driven by hand:
//!
//! ```text
//! → {"op":"compress","grammar":"9c0f…","image":"UEdSQg…"}
//! ← {"ok":true,"image":"UEdSQg…","original_bytes":120,"compressed_bytes":61}
//! → {"op":"stats"}
//! ← {"ok":true,"metrics":{ … }}
//! ```
//!
//! Errors are in-band — `{"ok":false,"error":"…"}` — and never tear down
//! the connection; only transport failures do. The base64 codec is
//! implemented here (RFC 4648, standard alphabet with padding) because
//! the build environment vendors no external crates.
//!
//! The reactor parses each request line exactly once, into a typed
//! `Request`; routing, admission, deadlines, batching, and the
//! handlers all read that one value.

use pgr_telemetry::json::{self, Value};
use std::borrow::Cow;

/// Standard base64 alphabet (RFC 4648 §4).
const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode bytes as standard padded base64.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = u32::from(b[0]) << 16 | u32::from(b[1]) << 8 | u32::from(b[2]);
        let quad = [
            B64[(n >> 18) as usize & 63],
            B64[(n >> 12) as usize & 63],
            B64[(n >> 6) as usize & 63],
            B64[n as usize & 63],
        ];
        let keep = chunk.len() + 1;
        for (i, c) in quad.into_iter().enumerate() {
            out.push(if i < keep { c as char } else { '=' });
        }
    }
    out
}

/// Decode standard base64 (padded or unpadded). Returns `None` on any
/// alphabet violation or impossible length.
pub fn base64_decode(text: &str) -> Option<Vec<u8>> {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some(u32::from(c - b'A')),
            b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let trimmed = text.trim_end_matches('=').as_bytes();
    if trimmed.len() % 4 == 1 {
        return None;
    }
    let mut out = Vec::with_capacity(trimmed.len() * 3 / 4);
    for chunk in trimmed.chunks(4) {
        let mut n = 0u32;
        for &c in chunk {
            n = n << 6 | val(c)?;
        }
        n <<= 6 * (4 - chunk.len()) as u32;
        let bytes = n.to_be_bytes();
        out.extend_from_slice(&bytes[1..chunk.len()]);
    }
    Some(out)
}

/// Escape a string for embedding in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a string as a complete JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// What a request asks the server to do.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    Compress,
    Decompress,
    Run,
    Stats,
    Shutdown,
    /// Anything else: the `op` text as sent, or empty when the field is
    /// missing or not a string.
    Unknown(String),
}

impl Op {
    /// The op as spelled on the wire.
    pub(crate) fn name(&self) -> &str {
        match self {
            Op::Compress => "compress",
            Op::Decompress => "decompress",
            Op::Run => "run",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
            Op::Unknown(text) => text,
        }
    }
}

/// One request line, parsed once at intake. Only the fields the server
/// reads are kept; a field of the wrong JSON type reads as absent.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Request {
    pub op: Op,
    /// Registry grammar id or unique prefix.
    pub grammar: Option<String>,
    /// Base64 bytecode image.
    pub image: Option<String>,
    /// Base64 VM input.
    pub input: Option<String>,
    /// The request's own deadline, when an exact non-negative integer
    /// (`1.5e3` is 1500).
    pub timeout_ms: Option<u64>,
}

impl Request {
    /// Parse one request line; the error is the in-band message for a
    /// line that is not JSON. A document that is not an object parses
    /// to a request with no fields (an unknown op).
    pub(crate) fn parse(line: &str) -> Result<Request, String> {
        let mut doc = match json::parse(line) {
            Ok(Value::Obj(fields)) => fields,
            Ok(_) => Default::default(),
            Err(e) => return Err(format!("bad request JSON: {e}")),
        };
        let mut text = |key: &str| match doc.remove(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        };
        let op = match text("op").unwrap_or_default().as_str() {
            "compress" => Op::Compress,
            "decompress" => Op::Decompress,
            "run" => Op::Run,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            other => Op::Unknown(other.to_string()),
        };
        let (grammar, image, input) = (text("grammar"), text("image"), text("input"));
        Ok(Request {
            op,
            grammar,
            image,
            input,
            timeout_ms: doc.get("timeout_ms").and_then(Value::as_u64),
        })
    }
}

/// The text of one framed request line (newline stripped), for
/// [`Request::parse`]: UTF-8 is trimmed; anything else is decoded
/// lossily and left untrimmed, so it still gets a JSON verdict. `None`
/// for a blank line, which is skipped without a response.
pub(crate) fn line_text(line: &[u8]) -> Option<Cow<'_, str>> {
    match std::str::from_utf8(line) {
        Ok(text) => Some(Cow::Borrowed(text.trim())).filter(|t| !t.is_empty()),
        Err(_) => Some(String::from_utf8_lossy(line)),
    }
}

/// Incrementally build one response line. Purely syntactic — the field
/// vocabulary lives with each request handler in [`crate::serve`].
#[derive(Debug, Default, Clone)]
pub struct ResponseLine {
    fields: Vec<String>,
}

impl ResponseLine {
    /// Start a success response (`"ok":true`).
    pub fn ok() -> ResponseLine {
        let mut r = ResponseLine::default();
        r.fields.push("\"ok\":true".to_string());
        r
    }

    /// Build a complete error response (`"ok":false` plus the message).
    pub fn err(message: &str) -> String {
        format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(message))
    }

    /// Build a complete error response carrying the request's trace id
    /// and end-to-end latency, so a failure line correlates with the
    /// slow-trace dump and server logs.
    pub fn err_traced(message: &str, trace_hex: &str, micros: u64) -> String {
        format!(
            "{{\"ok\":false,\"error\":\"{}\",\"trace\":\"{}\",\"micros\":{micros}}}",
            json_escape(message),
            json_escape(trace_hex),
        )
    }

    /// Build a complete admission-control rejection: an in-band
    /// `overloaded` error telling the client how long to back off before
    /// retrying. The error token is fixed so clients can match on it.
    pub fn overloaded(retry_after_ms: u64, trace_hex: &str) -> String {
        format!(
            "{{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":{retry_after_ms},\
             \"trace\":\"{}\"}}",
            json_escape(trace_hex),
        )
    }

    /// Build a complete deadline-expiry response: an in-band
    /// `deadline_exceeded` error with the elapsed time, so a stuck or
    /// slow request fails its own slot without tearing down the
    /// connection. The error token is fixed so clients can match on it.
    pub fn deadline_exceeded(elapsed_ms: u64, trace_hex: &str) -> String {
        format!(
            "{{\"ok\":false,\"error\":\"deadline_exceeded\",\"elapsed_ms\":{elapsed_ms},\
             \"trace\":\"{}\"}}",
            json_escape(trace_hex),
        )
    }

    /// Append a string field (JSON-escaped).
    pub fn str_field(mut self, key: &str, value: &str) -> ResponseLine {
        self.fields
            .push(format!("\"{key}\":\"{}\"", json_escape(value)));
        self
    }

    /// Append an integer field.
    pub fn num_field(mut self, key: &str, value: u64) -> ResponseLine {
        self.fields.push(format!("\"{key}\":{value}"));
        self
    }

    /// Append a signed integer field.
    pub fn int_field(mut self, key: &str, value: i64) -> ResponseLine {
        self.fields.push(format!("\"{key}\":{value}"));
        self
    }

    /// Append a boolean field.
    pub fn bool_field(mut self, key: &str, value: bool) -> ResponseLine {
        self.fields.push(format!("\"{key}\":{value}"));
        self
    }

    /// Append a field whose value is already serialized JSON (e.g. a
    /// metrics snapshot).
    pub fn raw_field(mut self, key: &str, json: &str) -> ResponseLine {
        self.fields.push(format!("\"{key}\":{json}"));
        self
    }

    /// Close the object.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base64_matches_rfc4648_vectors() {
        // RFC 4648 §10 test vectors.
        let vectors: &[(&[u8], &str)] = &[
            (b"", ""),
            (b"f", "Zg=="),
            (b"fo", "Zm8="),
            (b"foo", "Zm9v"),
            (b"foob", "Zm9vYg=="),
            (b"fooba", "Zm9vYmE="),
            (b"foobar", "Zm9vYmFy"),
        ];
        for (raw, encoded) in vectors {
            assert_eq!(base64_encode(raw), *encoded);
            assert_eq!(base64_decode(encoded).as_deref(), Some(*raw));
        }
    }

    #[test]
    fn base64_roundtrips_binary_and_rejects_junk() {
        let data: Vec<u8> = (0u16..=255).map(|b| b as u8).cycle().take(1021).collect();
        assert_eq!(base64_decode(&base64_encode(&data)).unwrap(), data);
        assert_eq!(base64_decode("not base64!"), None);
        assert_eq!(base64_decode("Zg"), Some(b"f".to_vec())); // unpadded ok
        assert_eq!(base64_decode("Z"), None); // impossible length
    }

    fn parsed(line: &str) -> Request {
        Request::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    #[test]
    fn requests_name_each_op() {
        for (wire, op) in [
            ("compress", Op::Compress),
            ("decompress", Op::Decompress),
            ("run", Op::Run),
            ("stats", Op::Stats),
            ("shutdown", Op::Shutdown),
        ] {
            let request = parsed(&format!(r#"{{"op":"{wire}"}}"#));
            assert_eq!(request.op, op);
            assert_eq!(request.op.name(), wire);
        }
    }

    #[test]
    fn missing_unknown_and_non_string_ops_are_unknown() {
        let unknown = |line: &str| parsed(line).op;
        assert_eq!(unknown("{}"), Op::Unknown(String::new()));
        assert_eq!(
            unknown(r#"{"op":"frobnicate"}"#),
            Op::Unknown("frobnicate".into())
        );
        assert_eq!(unknown(r#"{"op":"Stats"}"#), Op::Unknown("Stats".into()));
        assert_eq!(unknown(r#"{"op":5}"#), Op::Unknown(String::new()));
        assert_eq!(
            unknown(r#"{"op":{"op":"stats"}}"#),
            Op::Unknown(String::new())
        );
        // A nested object's `op` is not the request's.
        assert_eq!(
            unknown(r#"{"image":"AA==","x":{"op":"stats"},"op":"run"}"#),
            Op::Run
        );
        // Duplicate keys: the last one wins, as in the JSON parser.
        assert_eq!(unknown(r#"{"op":"stats","op":"run"}"#), Op::Run);
    }

    #[test]
    fn non_object_documents_carry_no_fields() {
        for line in ["[1,2]", r#""stats""#, "5", "null"] {
            let request = parsed(line);
            assert_eq!(request.op, Op::Unknown(String::new()), "{line}");
            assert_eq!(request.image, None);
            assert_eq!(request.timeout_ms, None);
        }
    }

    #[test]
    fn string_fields_of_the_wrong_type_read_as_absent() {
        let request = parsed(r#"{"op":"compress","grammar":7,"image":"AA==","input":null}"#);
        assert_eq!(request.grammar, None);
        assert_eq!(request.image.as_deref(), Some("AA=="));
        assert_eq!(request.input, None);
        let request = parsed(r#"{"op":"run","grammar":"9c0f","input":"Zm9v"}"#);
        assert_eq!(request.grammar.as_deref(), Some("9c0f"));
        assert_eq!(request.input.as_deref(), Some("Zm9v"));
    }

    #[test]
    fn a_budget_key_is_ignored() {
        // The server reads no `budget` field: the key parses like any
        // other unknown one.
        let plain = r#"{"op":"compress","grammar":"9c0f","image":"AA=="}"#;
        for budget in [
            r#""budget":{"max_items":500,"max_columns":20}"#,
            r#""budget":{"max_items":1}"#,
            r#""budget":null"#,
            r#""budget":[1]"#,
        ] {
            let line = plain.replacen('{', &format!("{{{budget},"), 1);
            assert_eq!(parsed(&line), parsed(plain), "{line}");
        }
    }

    #[test]
    fn timeouts_are_exact_non_negative_integers() {
        let timeout = |line: &str| parsed(line).timeout_ms;
        assert_eq!(timeout(r#"{"op":"run"}"#), None);
        assert_eq!(timeout(r#"{"timeout_ms":200}"#), Some(200));
        assert_eq!(timeout(r#"{"timeout_ms":1.5e3}"#), Some(1500));
        assert_eq!(timeout(r#"{"timeout_ms":1.5}"#), None);
        assert_eq!(timeout(r#"{"timeout_ms":-5}"#), None);
        assert_eq!(timeout(r#"{"timeout_ms":"200"}"#), None);
        assert_eq!(timeout(r#"{"x":{"timeout_ms":1}}"#), None);
    }

    #[test]
    fn escaped_strings_are_decoded() {
        let request = parsed(r#"{"op":"stats","grammar":"a\"b\\c","image":"\/AA=="}"#);
        assert_eq!(request.op, Op::Stats);
        assert_eq!(request.grammar.as_deref(), Some(r#"a"b\c"#));
        assert_eq!(request.image.as_deref(), Some("/AA=="));
        assert_eq!(parsed(r#"{"op":"st\u0061ts"}"#).op, Op::Stats);
        assert_eq!(parsed(r#"{"op":"\u0073hutdown"}"#).op, Op::Shutdown);
    }

    #[test]
    fn lines_that_are_not_json_get_the_parse_error_in_band() {
        assert_eq!(
            Request::parse("this is not json"),
            Err("bad request JSON: JSON error at byte 0: invalid literal".into())
        );
        assert_eq!(
            Request::parse(r#"{"op":"stats"} x"#),
            Err(
                "bad request JSON: JSON error at byte 15: trailing characters after the document"
                    .into()
            )
        );
        assert_eq!(
            Request::parse(r#"{"op":"stats""#),
            Err("bad request JSON: JSON error at byte 13: expected ',' or '}' in object".into())
        );
    }

    #[test]
    fn framed_lines_are_trimmed_utf8_or_lossy_bytes() {
        assert_eq!(
            line_text(b"  {\"op\":\"stats\"}\r").as_deref(),
            Some(r#"{"op":"stats"}"#)
        );
        assert_eq!(line_text(b" \t\r"), None);
        assert_eq!(line_text(b""), None);
        // Invalid UTF-8 decodes lossily, untrimmed: a stray byte inside a
        // string still leaves a valid request...
        let text = line_text(b"{\"op\":\"stats\",\"pad\":\"\xff\"} ").unwrap();
        assert_eq!(text, "{\"op\":\"stats\",\"pad\":\"\u{FFFD}\"} ");
        assert_eq!(parsed(&text).op, Op::Stats);
        // ...and one outside a string is a JSON error at its offset.
        let text = line_text(b" \xfe{}").unwrap();
        assert_eq!(text, " \u{FFFD}{}");
        assert_eq!(
            Request::parse(&text),
            Err("bad request JSON: JSON error at byte 1: expected a value".into())
        );
    }

    #[test]
    fn response_lines_are_valid_json() {
        let line = ResponseLine::ok()
            .str_field("image", "AA==")
            .num_field("bytes", 7)
            .int_field("exit_code", -1)
            .bool_field("shutdown", true)
            .raw_field("metrics", "{\"counters\":{}}")
            .finish();
        let doc = pgr_telemetry::json::parse(&line).expect("valid JSON");
        assert_eq!(
            doc.get("ok").and_then(pgr_telemetry::json::Value::as_str),
            None
        );
        assert_eq!(
            doc.get("bytes")
                .and_then(pgr_telemetry::json::Value::as_u64),
            Some(7)
        );
        let err = ResponseLine::err("bad \"quote\"\n");
        let doc = pgr_telemetry::json::parse(&err).expect("valid JSON");
        assert_eq!(
            doc.get("error")
                .and_then(pgr_telemetry::json::Value::as_str),
            Some("bad \"quote\"\n")
        );
    }
}
