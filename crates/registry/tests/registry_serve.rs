//! End-to-end tests for the grammar registry and the request server:
//! content-addressed round-trips, stale-id rejection, and a concurrent
//! serve session in which one request falls back to verbatim segments.

use pgr_bytecode::asm::assemble;
use pgr_bytecode::{read_program_tagged, write_program, write_program_tagged, ImageKind, Opcode};
use pgr_grammar::{GrammarFile, InitialGrammar, RuleOrigin};
use pgr_registry::{
    base64_decode, base64_encode, GrammarId, Registry, RegistryError, ServeConfig, Server,
};
use pgr_telemetry::json::{self, Value};
use pgr_telemetry::{names, Recorder};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// A throwaway directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("pgr-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sample_grammar() -> GrammarFile {
    let ig = InitialGrammar::build();
    GrammarFile::new(ig.grammar, ig.nt_start, ig.nt_byte)
}

/// A distinct grammar the compressor accepts: the initial grammar plus
/// `extra` copies of the inlined rule `<x> ::= RETV`, so each variant
/// has its own bytes and id.
fn variant_grammar(extra: usize) -> GrammarFile {
    let ig = InitialGrammar::build();
    let mut grammar = ig.grammar.clone();
    let retv = ig.rule_for_opcode(Opcode::RETV);
    for _ in 0..extra {
        let rhs = grammar.inlined_rhs(ig.x_leaf, 0, retv);
        let origin = RuleOrigin::Inlined {
            parent: ig.x_leaf,
            slot: 0,
            child: retv,
        };
        grammar.add_rule(ig.nt_x, rhs, origin);
    }
    GrammarFile::new(grammar, ig.nt_start, ig.nt_byte)
}

const SAMPLE: &str = r#"
proc f frame=8 args=0
    ADDRLP 0
    INDIRU
    LIT1 1
    ADDU
    ADDRLP 0
    ASGNU
    label 0
    ADDRLP 0
    INDIRU
    LIT1 1
    ADDU
    ADDRLP 0
    ASGNU
    LIT1 1
    BrTrue 0
    RETV
endproc
entry f
"#;

// ---- registry ----------------------------------------------------------

#[test]
fn store_load_roundtrip_is_byte_identical() {
    let scratch = Scratch::new("roundtrip");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let file = sample_grammar();
    let bytes = file.to_bytes();

    let manifest = registry.store(&file, "initial grammar").unwrap();
    assert_eq!(manifest.id, GrammarId::of_bytes(&bytes));
    assert_eq!(manifest.bytes, bytes.len() as u64);
    assert_eq!(manifest.nt_count, file.grammar.nt_count() as u64);
    assert_eq!(manifest.label, "initial grammar");

    // Byte-identical load, and an identical re-store is idempotent.
    assert_eq!(registry.load_bytes(&manifest.id).unwrap(), bytes);
    let again = registry.store_bytes(&bytes, "different label").unwrap();
    assert_eq!(again.id, manifest.id);
    assert_eq!(again.label, "initial grammar"); // first store wins

    // Listing and prefix resolution see it.
    let listed = registry.list().unwrap();
    assert_eq!(listed.len(), 1);
    assert_eq!(listed[0].id, manifest.id);
    let prefix = &manifest.id.to_hex()[..8];
    assert_eq!(registry.resolve(prefix).unwrap(), manifest.id);
    assert!(matches!(
        registry.resolve("ffff").unwrap_err(),
        RegistryError::NotFound { .. }
    ));
}

#[test]
fn stale_objects_are_rejected_and_gc_prunes_them() {
    let scratch = Scratch::new("stale");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let manifest = registry.store(&sample_grammar(), "").unwrap();
    let id = manifest.id;

    // Tamper with the stored object: the id no longer matches the
    // content, so the registry must refuse to serve it.
    let object = scratch.path(&format!("reg/objects/{}.pgrg", id.to_hex()));
    let mut bytes = std::fs::read(&object).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&object, &bytes).unwrap();

    match registry.load_bytes(&id).unwrap_err() {
        RegistryError::Corrupt { id: bad, found } => {
            assert_eq!(bad, id.to_hex());
            assert_ne!(found, id.to_hex());
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(registry.load(&id).is_err());

    // gc removes the corrupt entry (and nothing else).
    let good = registry.store(&variant_grammar(1), "survivor").unwrap();
    let report = registry.gc(&[]).unwrap();
    assert_eq!(report.pruned_corrupt, vec![id.to_hex()]);
    assert!(report.removed.is_empty());
    assert_eq!(registry.ids().unwrap(), vec![good.id]);

    // A keep-list evicts everything it does not name.
    let report = registry.gc(&[GrammarId::of_bytes(b"unrelated")]).unwrap();
    assert_eq!(report.removed, vec![good.id]);
    assert!(registry.ids().unwrap().is_empty());
}

// ---- serve -------------------------------------------------------------

/// One NDJSON request/response exchange over an existing connection.
fn exchange(stream: &mut UnixStream, request: &str) -> Value {
    writeln!(stream, "{request}").expect("send request");
    stream.flush().expect("flush request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    json::parse(&line).expect("response is JSON")
}

fn connect(socket: &Path) -> UnixStream {
    // The server binds the socket before its accept loop starts, but
    // give the spawn a moment on slow machines.
    for _ in 0..100 {
        if let Ok(stream) = UnixStream::connect(socket) {
            return stream;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server socket never came up at {}", socket.display());
}

/// A program whose two segments are not postfix code: the value pushed
/// before the label is still live after it, so neither segment parses
/// alone and the compressor stores both verbatim. It returns 42.
const LIVE_ACROSS_LABEL: &str = r#"
proc main frame=0 args=0
    LIT1 40
    label 0
    LIT1 2
    ADDU
    RETU
endproc
entry main
"#;

#[test]
fn concurrent_serve_with_a_degrading_neighbour() {
    let scratch = Scratch::new("serve");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let manifest = registry.store(&sample_grammar(), "serve test").unwrap();
    let id_hex = manifest.id.to_hex();

    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            threads: 2,
            recorder: Recorder::new(),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let program = assemble(SAMPLE).expect("assemble sample");
    let image_b64 = base64_encode(&write_program(&program, ImageKind::Uncompressed));
    let degrading_program = assemble(LIVE_ACROSS_LABEL).expect("assemble degrading program");
    let degrading_b64 = base64_encode(&write_program(&degrading_program, ImageKind::Uncompressed));

    // Fan out compress requests concurrently: postfix requests must
    // compress cleanly while a neighbour whose segments are not postfix
    // code degrades to verbatim fallback — on the same shared engine,
    // at the same time.
    let mut clients = Vec::new();
    for i in 0..4 {
        let socket = socket.clone();
        let id_hex = id_hex.clone();
        let degrading = i == 0;
        let image_b64 = if degrading {
            degrading_b64.clone()
        } else {
            image_b64.clone()
        };
        clients.push(std::thread::spawn(move || {
            let mut stream = connect(&socket);
            let resp = exchange(
                &mut stream,
                &format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{image_b64}"}}"#),
            );
            assert_eq!(
                resp.get("ok").and_then(Value::as_bool),
                Some(true),
                "compress failed: {resp:?}"
            );
            let fallback = resp
                .get("fallback_segments")
                .and_then(Value::as_u64)
                .unwrap();
            let image = resp
                .get("image")
                .and_then(Value::as_str)
                .unwrap()
                .to_string();
            (degrading, fallback, image)
        }));
    }
    let results: Vec<(bool, u64, String)> =
        clients.into_iter().map(|c| c.join().unwrap()).collect();

    let mut clean_image = None;
    let mut degraded_image = None;
    for (degrading, fallback, image) in &results {
        if *degrading {
            // Both segments degrade to verbatim escapes, but the request
            // still succeeds.
            assert_eq!(*fallback, 2, "both segments should degrade");
            degraded_image = Some(image.clone());
        } else {
            assert_eq!(*fallback, 0, "postfix requests must not degrade");
            clean_image = Some(image.clone());
        }
    }

    // Every produced image — degraded or not — decompresses back to its
    // canonical original, resolved purely from the image's embedded
    // grammar id (no "grammar" field).
    let canonical_image = write_program(
        &pgr_core::canonicalize_program(&program).unwrap(),
        ImageKind::Uncompressed,
    );
    let degrading_canonical_image = write_program(
        &pgr_core::canonicalize_program(&degrading_program).unwrap(),
        ImageKind::Uncompressed,
    );
    let mut stream = connect(&socket);
    for (degrading, _, image) in &results {
        let resp = exchange(
            &mut stream,
            &format!(r#"{{"op":"decompress","image":"{image}"}}"#),
        );
        let back = base64_decode(resp.get("image").and_then(Value::as_str).unwrap()).unwrap();
        let expected = if *degrading {
            &degrading_canonical_image
        } else {
            &canonical_image
        };
        assert_eq!(&back, expected, "round-trip must be byte-identical");
        assert_eq!(
            resp.get("grammar").and_then(Value::as_str),
            Some(id_hex.as_str())
        );
    }

    // The compressed image header names the grammar.
    let compressed = base64_decode(&clean_image.unwrap()).unwrap();
    let (_, kind, header_id) = read_program_tagged(&compressed).unwrap();
    assert_eq!(kind, ImageKind::Compressed);
    assert_eq!(header_id, Some(*manifest.id.as_bytes()));

    // `run` executes a compressed image via the registry grammar,
    // resolved from the image header alone.
    let halting = assemble("proc main frame=0 args=0\n\tRETV\nendproc\nentry main\n").unwrap();
    let halting_b64 = base64_encode(&write_program(&halting, ImageKind::Uncompressed));
    let resp = exchange(
        &mut stream,
        &format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{halting_b64}"}}"#),
    );
    let halting_compressed = resp
        .get("image")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    let resp = exchange(
        &mut stream,
        &format!(r#"{{"op":"run","image":"{halting_compressed}"}}"#),
    );
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{resp:?}"
    );
    assert_eq!(resp.get("exit_code").and_then(Value::as_u64), Some(0));

    // The degraded image runs like its plain original.
    for image in [degraded_image.unwrap(), degrading_b64] {
        let resp = exchange(&mut stream, &format!(r#"{{"op":"run","image":"{image}"}}"#));
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "{resp:?}"
        );
        assert_eq!(resp.get("exit_code").and_then(Value::as_u64), Some(42));
    }

    // Errors are in-band and do not poison the connection.
    let resp = exchange(&mut stream, r#"{"op":"compress","grammar":"beef"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert!(resp.get("error").and_then(Value::as_str).is_some());

    // Stats: pinned serve metrics are present, including the request
    // latency histograms and the stats request's own latency.
    let resp = exchange(&mut stream, r#"{"op":"stats"}"#);
    let metrics = resp.get("metrics").expect("metrics object");
    let counters = metrics.get("counters").expect("counters");
    assert!(
        counters
            .get(names::SERVE_REQUESTS)
            .and_then(Value::as_u64)
            .unwrap()
            >= 7
    );
    assert!(
        counters
            .get(names::SERVE_ERRORS)
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );
    let hists = metrics.get("histograms").expect("histograms");
    for name in [
        names::SERVE_REQUEST_COMPRESS_MICROS,
        names::SERVE_REQUEST_DECOMPRESS_MICROS,
        names::SERVE_REQUEST_RUN_MICROS,
        names::SERVE_REQUEST_STATS_MICROS,
    ] {
        assert!(
            hists.get(name).is_some(),
            "stats response missing histogram {name}"
        );
    }
    assert_eq!(
        metrics
            .get("gauges")
            .and_then(|g| g.get(names::SERVE_GRAMMARS_LOADED))
            .and_then(Value::as_u64),
        Some(1)
    );

    // Shut down and join; the socket file is gone afterwards.
    let resp = exchange(&mut stream, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap();
    assert!(!socket.exists());
}

#[test]
fn serve_rejects_unknown_grammars_and_bad_payloads() {
    let scratch = Scratch::new("serve-errs");
    Registry::open(scratch.path("reg")).unwrap();
    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());
    let mut stream = connect(&socket);

    for bad in [
        "this is not json",
        r#"{"op":"frobnicate"}"#,
        r#"{"op":"compress"}"#,
        r#"{"op":"compress","image":"!!!","grammar":"abcd"}"#,
        r#"{"op":"decompress","image":"AAAA"}"#,
    ] {
        let resp = exchange(&mut stream, bad);
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(false),
            "request {bad:?} must fail in-band"
        );
        assert!(resp.get("error").and_then(Value::as_str).is_some());
    }

    // A compressed image whose header names an absent grammar reports a
    // registry miss, with the id in the message.
    let program = assemble(SAMPLE).unwrap();
    let fake_id = [0xabu8; 32];
    let image = write_program_tagged(&program, ImageKind::Compressed, Some(&fake_id));
    let resp = exchange(
        &mut stream,
        &format!(
            r#"{{"op":"decompress","image":"{}"}}"#,
            base64_encode(&image)
        ),
    );
    let error = resp.get("error").and_then(Value::as_str).unwrap();
    assert!(
        error.contains("abab"),
        "error should name the missing id: {error}"
    );

    // A grammar the compressor cannot tile (here `<x> ::= <v>`: a value
    // is not a statement) is refused by the registry, and an object
    // planted in the store anyway is reported in-band, not panicked on.
    let ig = InitialGrammar::build();
    let mut bad = ig.grammar.clone();
    bad.add_rule(
        ig.nt_x,
        vec![pgr_grammar::Symbol::N(ig.nt_v)],
        RuleOrigin::Original,
    );
    let bad = GrammarFile::new(bad, ig.nt_start, ig.nt_byte).to_bytes();
    let registry = Registry::open(scratch.path("reg")).unwrap();
    assert!(registry.store_bytes(&bad, "bad").is_err());
    let bad_id = GrammarId::of_bytes(&bad).to_hex();
    std::fs::write(scratch.path(&format!("reg/objects/{bad_id}.pgrg")), &bad).unwrap();
    let plain = base64_encode(&write_program(&program, ImageKind::Uncompressed));
    let resp = exchange(
        &mut stream,
        &format!(r#"{{"op":"compress","grammar":"{bad_id}","image":"{plain}"}}"#),
    );
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    let error = resp.get("error").and_then(Value::as_str).unwrap();
    assert!(
        error.contains("not a sentential form"),
        "error should name the rule: {error}"
    );

    exchange(&mut stream, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();
}

#[test]
fn serve_traces_requests_and_dumps_slow_span_trees() {
    let scratch = Scratch::new("serve-trace");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let manifest = registry.store(&sample_grammar(), "trace test").unwrap();
    let id_hex = manifest.id.to_hex();

    let socket = scratch.path("pgr.sock");
    let slow_log = scratch.path("slow.ndjson");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            recorder: Recorder::new(),
            // Threshold 0: every request is "slow", so each one dumps
            // its span tree to the NDJSON log.
            slow_ms: Some(0),
            slow_trace: Some(slow_log.clone()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());
    let mut stream = connect(&socket);

    let trace_of = |resp: &Value| -> String {
        let hex = resp
            .get("trace")
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("response lacks trace id: {resp:?}"))
            .to_string();
        assert_eq!(hex.len(), 16, "trace id is 16 hex chars: {hex}");
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        hex
    };
    let mut seen = Vec::new();

    // Successful requests carry a per-request trace id. (A halting
    // program — SAMPLE spins forever, which `run` would not survive.)
    let program = assemble("proc main frame=0 args=0\n\tRETV\nendproc\nentry main\n").unwrap();
    let image_b64 = base64_encode(&write_program(&program, ImageKind::Uncompressed));
    let resp = exchange(
        &mut stream,
        &format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{image_b64}"}}"#),
    );
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    seen.push(trace_of(&resp));
    let compressed = resp
        .get("image")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    let resp = exchange(
        &mut stream,
        &format!(r#"{{"op":"run","image":"{compressed}"}}"#),
    );
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    seen.push(trace_of(&resp));

    // Errors carry the trace id and elapsed micros in-band, and bump the
    // per-op error counter.
    let resp = exchange(&mut stream, r#"{"op":"compress","grammar":"beef"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    seen.push(trace_of(&resp));
    assert!(
        resp.get("micros").and_then(Value::as_u64).is_some(),
        "error response lacks elapsed micros: {resp:?}"
    );

    // Stats: sliding-window aggregates with per-op quantiles, uptime,
    // the slow-request counter, and the per-op error counter.
    let resp = exchange(&mut stream, r#"{"op":"stats"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    seen.push(trace_of(&resp));
    assert!(resp.get("uptime_secs").and_then(Value::as_u64).is_some());
    let window = resp.get("window").expect("stats carries window object");
    assert!(window.get("window_secs").and_then(Value::as_u64).is_some());
    assert!(window.get("requests").and_then(Value::as_u64).unwrap() >= 3);
    assert!(window.get("errors").and_then(Value::as_u64).unwrap() >= 1);
    let ops = window.get("ops").expect("window carries per-op stats");
    let compress_win = ops.get("compress").expect("compress window entry");
    for field in ["count", "p50", "p90", "p95", "p99", "max"] {
        assert!(
            compress_win.get(field).and_then(Value::as_u64).is_some(),
            "window op entry lacks {field}: {compress_win:?}"
        );
    }
    assert!(
        window
            .get("grammars")
            .and_then(|g| g.get(&id_hex))
            .is_some(),
        "window lacks per-grammar entry for {id_hex}"
    );
    let counters = resp.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(
        counters
            .get(names::SERVE_SLOW_REQUESTS)
            .and_then(Value::as_u64)
            .unwrap()
            >= 3
    );
    assert!(
        counters
            .get(&pgr_telemetry::names::serve_request_errors("compress"))
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );

    exchange(&mut stream, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();

    // The slow log holds one header line per retired request followed by
    // that request's span events, all parseable NDJSON, and the header
    // trace ids match the ids the client saw in its responses.
    let text = std::fs::read_to_string(&slow_log).expect("slow trace NDJSON exists");
    let mut headers = Vec::new();
    let mut pending_events = 0u64;
    for line in text.lines() {
        let value = json::parse(line).expect("slow-log line parses as JSON");
        if pending_events == 0 {
            let trace = value.get("trace").and_then(Value::as_str).unwrap();
            assert!(value.get("op").and_then(Value::as_str).is_some());
            assert!(value.get("micros").and_then(Value::as_u64).is_some());
            pending_events = value.get("events").and_then(Value::as_u64).unwrap();
            headers.push(trace.to_string());
        } else {
            // Span events of the request the preceding header announced.
            assert!(value.get("name").and_then(Value::as_str).is_some());
            assert!(value.get("ph").and_then(Value::as_str).is_some());
            pending_events -= 1;
        }
    }
    assert_eq!(pending_events, 0, "slow log ends mid-request");
    assert!(headers.len() >= seen.len(), "every request dumps a tree");
    for id in &seen {
        assert!(
            headers.contains(id),
            "response trace {id} missing from slow log headers {headers:?}"
        );
    }
}

// ---- reactor: batching, backpressure, eviction, drain ------------------

/// Pipeline several request lines in one write (so they arrive in one
/// readiness sweep) and read back exactly as many responses, in order.
fn pipeline(stream: &mut UnixStream, requests: &[String]) -> Vec<Value> {
    let mut wire = String::new();
    for r in requests {
        wire.push_str(r);
        wire.push('\n');
    }
    stream.write_all(wire.as_bytes()).expect("pipeline write");
    stream.flush().expect("pipeline flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut responses = Vec::with_capacity(requests.len());
    for _ in requests {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        assert!(!line.is_empty(), "connection closed mid-pipeline");
        responses.push(json::parse(&line).expect("response is JSON"));
    }
    responses
}

#[test]
fn batched_compresses_are_byte_identical_to_serial_dispatch() {
    let scratch = Scratch::new("serve-batch");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let manifest = registry.store(&sample_grammar(), "").unwrap();
    let id_hex = manifest.id.to_hex();
    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            threads: 1,
            workers: 1,
            batch_window_us: 200_000,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let a = assemble(SAMPLE).unwrap();
    let b = assemble(&SAMPLE.replace("LIT1 1", "LIT1 7")).unwrap();
    let a64 = base64_encode(&write_program(&a, ImageKind::Uncompressed));
    let b64 = base64_encode(&write_program(&b, ImageKind::Uncompressed));
    let req_a = format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{a64}"}}"#);
    let req_b = format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{b64}"}}"#);

    // Serial reference: one request at a time, each its own dispatch.
    let mut serial = connect(&socket);
    let serial_a = exchange(&mut serial, &req_a);
    let serial_b = exchange(&mut serial, &req_b);
    let image_of = |resp: &Value| {
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "{resp:?}"
        );
        resp.get("image")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    };
    let serial_a_image = image_of(&serial_a);
    let serial_b_image = image_of(&serial_b);

    // Occupy the single worker so the pipelined burst is *held* and
    // coalesced rather than adaptively flushed one by one.
    writeln!(serial, "{req_a}").unwrap();
    serial.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(5));

    // Three same-grammar compresses (two identical lines) in one burst:
    // one engine dispatch, three responses, in request order.
    let mut burst = connect(&socket);
    let responses = pipeline(&mut burst, &[req_a.clone(), req_b.clone(), req_a.clone()]);
    // The occupied worker's own response still arrives.
    let mut reader = BufReader::new(serial.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(image_of(&json::parse(&line).unwrap()), serial_a_image);

    let expected = [&serial_a_image, &serial_b_image, &serial_a_image];
    let mut traces = std::collections::HashSet::new();
    for (resp, want) in responses.iter().zip(expected) {
        assert_eq!(
            &image_of(resp),
            want,
            "batched compress must be byte-identical to serial dispatch"
        );
        let trace = resp.get("trace").and_then(Value::as_str).unwrap();
        assert!(traces.insert(trace.to_string()), "trace ids stay distinct");
    }

    // The stats response proves a real multi-request dispatch happened.
    let resp = exchange(&mut serial, r#"{"op":"stats"}"#);
    let batch_size = resp
        .get("metrics")
        .and_then(|m| m.get("histograms"))
        .and_then(|h| h.get(names::SERVE_BATCH_SIZE))
        .expect("serve.batch.size histogram");
    assert!(
        batch_size.get("max").and_then(Value::as_u64).unwrap() >= 3,
        "burst of three must coalesce: {batch_size:?}"
    );
    let window = resp.get("window").expect("window");
    assert!(window.get("batch_size").is_some());
    assert!(window.get("batch_wait").is_some());
    assert!(
        resp.get("queue_depth").and_then(Value::as_u64).is_some(),
        "stats must expose live queue depth"
    );
    assert_eq!(resp.get("engines").and_then(Value::as_u64), Some(1));

    let resp = exchange(&mut serial, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap();
    assert!(!socket.exists());
}

#[test]
fn mixed_grammar_requests_never_share_a_batch() {
    let scratch = Scratch::new("serve-mixed");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let first = registry.store(&sample_grammar(), "a").unwrap();
    let second = registry.store(&variant_grammar(1), "b").unwrap();
    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            threads: 1,
            workers: 1,
            batch_window_us: 200_000,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let image = base64_encode(&write_program(
        &assemble(SAMPLE).unwrap(),
        ImageKind::Uncompressed,
    ));
    let req = |hex: &str| format!(r#"{{"op":"compress","grammar":"{hex}","image":"{image}"}}"#);
    let a_hex = first.id.to_hex();
    let b_hex = second.id.to_hex();

    // Interleave the two grammars in one burst: each response must name
    // the grammar its request asked for, whatever got batched with what.
    let mut stream = connect(&socket);
    let requests = [req(&a_hex), req(&b_hex), req(&a_hex), req(&b_hex)];
    let responses = pipeline(&mut stream, &requests);
    for (i, resp) in responses.iter().enumerate() {
        let want = if i % 2 == 0 { &a_hex } else { &b_hex };
        // Grammar B has one rule more than A, so its images differ —
        // but never cross into A's batch: a response that names a
        // grammar must name the right one.
        if resp.get("ok").and_then(Value::as_bool) == Some(true) {
            assert_eq!(
                resp.get("grammar").and_then(Value::as_str),
                Some(want.as_str()),
                "response {i} answered with the wrong grammar"
            );
        }
    }
    assert_eq!(
        responses[0].get("image").and_then(Value::as_str),
        responses[2].get("image").and_then(Value::as_str),
        "same request, same batch key, same bytes"
    );

    let resp = exchange(&mut stream, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap();
}

#[test]
fn queue_saturation_answers_overloaded_in_band_without_dropping_connections() {
    let scratch = Scratch::new("serve-overload");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let manifest = registry.store(&sample_grammar(), "").unwrap();
    let id_hex = manifest.id.to_hex();
    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            threads: 1,
            workers: 1,
            // A long window and a tiny queue: pipelining 4x the queue
            // bound must trip admission control, not grow a backlog.
            batch_window_us: 300_000,
            max_queue: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let image = base64_encode(&write_program(
        &assemble(SAMPLE).unwrap(),
        ImageKind::Uncompressed,
    ));
    let req = format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{image}"}}"#);
    let mut stream = connect(&socket);
    let burst: Vec<String> = std::iter::repeat_with(|| req.clone()).take(8).collect();
    let responses = pipeline(&mut stream, &burst);

    let (mut ok, mut overloaded) = (0, 0);
    for resp in &responses {
        if resp.get("ok").and_then(Value::as_bool) == Some(true) {
            ok += 1;
        } else {
            assert_eq!(
                resp.get("error").and_then(Value::as_str),
                Some("overloaded"),
                "rejections must be the fixed overloaded token: {resp:?}"
            );
            assert!(
                resp.get("retry_after_ms").and_then(Value::as_u64).unwrap() >= 1,
                "overloaded responses carry a backoff hint"
            );
            assert!(resp.get("trace").and_then(Value::as_str).is_some());
            overloaded += 1;
        }
    }
    assert_eq!(ok, 2, "exactly the queue bound is admitted");
    assert_eq!(overloaded, 6, "the rest is refused in-band");

    // The connection survived saturation; stats sees the rejections.
    let resp = exchange(&mut stream, r#"{"op":"stats"}"#);
    assert_eq!(
        resp.get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(names::SERVE_REJECTED_OVERLOAD))
            .and_then(Value::as_u64),
        Some(6)
    );
    assert_eq!(
        resp.get("window")
            .and_then(|w| w.get("rejected"))
            .and_then(Value::as_u64),
        Some(6)
    );

    let resp = exchange(&mut stream, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap();
}

#[test]
fn burst_past_pipeline_bound_completes_without_hanging() {
    let scratch = Scratch::new("serve-burst");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let manifest = registry.store(&sample_grammar(), "").unwrap();
    let id_hex = manifest.id.to_hex();
    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            threads: 1,
            workers: 1,
            // max_queue=4 puts the per-connection pipeline bound at its
            // floor of 16: a 20-line burst overruns it, so the last
            // lines sit framed-but-undispatched until responses drain.
            // Regression: when the bound-lifting completions all landed
            // in one wake (one flushed batch), those lines were stranded
            // forever — the reactor ingested before applying completions
            // and then had nothing left to wake it.
            max_queue: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let image = base64_encode(&write_program(
        &assemble(SAMPLE).unwrap(),
        ImageKind::Uncompressed,
    ));
    let req = format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{image}"}}"#);
    let mut stream = connect(&socket);
    // A hang must fail the test, not wedge the suite.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let burst: Vec<String> = std::iter::repeat_with(|| req.clone()).take(20).collect();
    let responses = pipeline(&mut stream, &burst);

    assert_eq!(responses.len(), 20, "every pipelined request is answered");
    let mut ok = 0;
    for resp in &responses {
        if resp.get("ok").and_then(Value::as_bool) == Some(true) {
            ok += 1;
        } else {
            assert_eq!(
                resp.get("error").and_then(Value::as_str),
                Some("overloaded"),
                "failures past the bound must be in-band rejections: {resp:?}"
            );
        }
    }
    assert!(
        ok >= 4,
        "at least one full batch beyond the stranded tail must succeed, got {ok}"
    );

    let resp = exchange(&mut stream, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap();
}

#[test]
fn aborted_connections_are_reaped_and_do_not_erode_capacity() {
    let scratch = Scratch::new("serve-abort");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let manifest = registry.store(&sample_grammar(), "").unwrap();
    let id_hex = manifest.id.to_hex();
    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            threads: 1,
            workers: 1,
            // One connection slot: a leaked entry for the aborted client
            // would lock every later client out as overloaded.
            max_connections: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let image = base64_encode(&write_program(
        &assemble(SAMPLE).unwrap(),
        ImageKind::Uncompressed,
    ));
    // Pipeline two requests and hang up before reading either response:
    // the first response's write fails against the closed peer, and the
    // second completes only afterwards. Regression: the connection-table
    // entry leaked (a completion below the skipped-ahead write cursor
    // parked forever), permanently consuming the only slot.
    {
        let mut aborted = connect(&socket);
        write!(
            aborted,
            "{{\"op\":\"stats\"}}\n{{\"op\":\"compress\",\"grammar\":\"{id_hex}\",\"image\":\"{image}\"}}\n"
        )
        .unwrap();
        aborted.flush().unwrap();
    } // dropped: peer aborts mid-pipeline

    // Give both requests time to complete against the dead connection.
    std::thread::sleep(std::time::Duration::from_millis(500));

    let mut stream = connect(&socket);
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let resp = exchange(&mut stream, r#"{"op":"stats"}"#);
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "the aborted connection must have been reaped, freeing its slot: {resp:?}"
    );

    let resp = exchange(&mut stream, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap();
}

#[test]
fn shutdown_drains_in_flight_and_batched_requests() {
    let scratch = Scratch::new("serve-drain");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let manifest = registry.store(&sample_grammar(), "").unwrap();
    let id_hex = manifest.id.to_hex();
    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            threads: 1,
            // Two workers: one can carry a slow compress while the other
            // takes the shutdown.
            workers: 2,
            // A long window: the second compress is still *held* (not
            // even dispatched) when shutdown lands, and must drain too.
            batch_window_us: 500_000,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // A slow request: many distinct segments, compressed fresh.
    let mut big = String::from("proc f frame=8 args=0\n");
    for i in 0..120 {
        big.push_str(&format!(
            "\tADDRLP {}\n\tINDIRU\n\tLIT1 {}\n\tADDU\n\tADDRLP 0\n\tASGNU\n",
            i % 8,
            (i * 7) % 250 + 1,
        ));
    }
    big.push_str("\tRETV\nendproc\nentry f\n");
    let slow64 = base64_encode(&write_program(
        &assemble(&big).unwrap(),
        ImageKind::Uncompressed,
    ));

    let mut slow_conn = connect(&socket);
    writeln!(
        slow_conn,
        r#"{{"op":"compress","grammar":"{id_hex}","image":"{slow64}"}}"#
    )
    .unwrap();
    slow_conn.flush().unwrap();
    // Give the reactor a beat to dispatch it, then park one more in the
    // batcher behind the long window.
    std::thread::sleep(std::time::Duration::from_millis(10));
    let small64 = base64_encode(&write_program(
        &assemble(SAMPLE).unwrap(),
        ImageKind::Uncompressed,
    ));
    let mut held_conn = connect(&socket);
    writeln!(
        held_conn,
        r#"{{"op":"compress","grammar":"{id_hex}","image":"{small64}"}}"#
    )
    .unwrap();
    held_conn.flush().unwrap();

    // Shutdown while the slow request is in flight and the small one is
    // still held in its batch window.
    let mut shutdown_conn = connect(&socket);
    let resp = exchange(&mut shutdown_conn, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));

    // Both outstanding requests still get their responses.
    for conn in [&mut slow_conn, &mut held_conn] {
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).expect("drained response");
        assert!(!line.is_empty(), "response must arrive before shutdown");
        let resp = json::parse(&line).expect("response is JSON");
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "in-flight request must complete during drain: {resp:?}"
        );
    }
    server_thread.join().unwrap();
    assert!(!socket.exists());
}

#[test]
fn engine_eviction_bounds_resident_engines() {
    let scratch = Scratch::new("serve-evict");
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let mut hexes = Vec::new();
    hexes.push(registry.store(&sample_grammar(), "g0").unwrap().id.to_hex());
    for extra in 1..=2 {
        let file = variant_grammar(extra);
        hexes.push(registry.store(&file, "gx").unwrap().id.to_hex());
    }
    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            threads: 1,
            max_engines: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    // Touch more grammars than may stay resident (success not required —
    // an engine loads before its request can fail), then loop back to
    // the first: it must reload transparently after eviction.
    let image = base64_encode(&write_program(
        &assemble(SAMPLE).unwrap(),
        ImageKind::Uncompressed,
    ));
    let mut stream = connect(&socket);
    for hex in hexes.iter().chain([&hexes[0]]) {
        let _ = exchange(
            &mut stream,
            &format!(r#"{{"op":"compress","grammar":"{hex}","image":"{image}"}}"#),
        );
    }
    let resp = exchange(
        &mut stream,
        &format!(
            r#"{{"op":"compress","grammar":"{}","image":"{image}"}}"#,
            hexes[0]
        ),
    );
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "evicted grammar must reload on demand: {resp:?}"
    );

    let resp = exchange(&mut stream, r#"{"op":"stats"}"#);
    assert_eq!(
        resp.get("engines").and_then(Value::as_u64),
        Some(1),
        "resident engines stay at the bound"
    );
    assert!(
        resp.get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(names::SERVE_ENGINES_EVICTED))
            .and_then(Value::as_u64)
            .unwrap()
            >= 3,
        "each over-bound load evicts"
    );

    let resp = exchange(&mut stream, r#"{"op":"shutdown"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    server_thread.join().unwrap();
}
