//! Each request line is parsed once, at intake, and every decision the
//! server makes about it — where it is routed, whether the singles bound
//! applies, what its deadline is — reads that one parse. These cases
//! pin the inputs on which a lexical scan of the raw line would disagree
//! with the JSON parser: nested and duplicate keys, escaped strings, and
//! numbers in exponent form.
//!
//! The bound cases share one setup: one worker, `max_queue: 1` (so the
//! singles bound is 4), a spinning `run` holding the worker, then one
//! pipelined burst of four queued `run`s followed by the probe line.

use pgr_bytecode::asm::assemble;
use pgr_bytecode::{write_program, ImageKind};
use pgr_grammar::{GrammarFile, InitialGrammar};
use pgr_registry::{base64_encode, Registry, ServeConfig, Server};
use pgr_telemetry::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("pgr-parse-{tag}-{}", std::process::id()));
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

/// A program that never halts: `run` on it ends only by deadline.
const SPIN: &str =
    "proc main frame=0 args=0\n\tlabel 0\n\tLIT1 1\n\tBrTrue 0\n\tRETV\nendproc\nentry main\n";
/// A program that halts immediately.
const HALT: &str = "proc main frame=0 args=0\n\tRETV\nendproc\nentry main\n";

fn image_b64(asm: &str) -> String {
    base64_encode(&write_program(
        &assemble(asm).expect("assemble"),
        ImageKind::Uncompressed,
    ))
}

fn connect(socket: &Path) -> UnixStream {
    for _ in 0..100 {
        if let Ok(stream) = UnixStream::connect(socket) {
            stream
                .set_read_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            return stream;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server socket never came up at {}", socket.display());
}

fn read_response(reader: &mut BufReader<UnixStream>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "connection closed instead of answering");
    json::parse(&line).expect("response is JSON")
}

/// One worker and `max_queue: 1`: the singles bound is 4 queued requests.
fn spawn_server(scratch: &Scratch) -> (PathBuf, std::thread::JoinHandle<()>) {
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let ig = InitialGrammar::build();
    registry
        .store(&GrammarFile::new(ig.grammar, ig.nt_start, ig.nt_byte), "")
        .unwrap();
    let socket = scratch.path("pgr.sock");
    let server = Server::bind(
        &socket,
        ServeConfig {
            registry_root: scratch.path("reg"),
            threads: 1,
            workers: 1,
            max_queue: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let thread = std::thread::spawn(move || server.run().unwrap());
    (socket, thread)
}

fn shutdown(socket: &Path, server: std::thread::JoinHandle<()>) {
    let mut stream = connect(socket);
    writeln!(stream, r#"{{"op":"shutdown"}}"#).unwrap();
    read_response(&mut BufReader::new(stream.try_clone().unwrap()));
    server.join().unwrap();
}

/// Hold the only worker with a spinning `run`, fill the singles queue
/// with four more `run`s, and send `probe` last in the same burst.
/// Returns the probe's response.
fn probe_behind_a_full_queue(tag: &str, probe: &str) -> Value {
    let scratch = Scratch::new(tag);
    let (socket, server) = spawn_server(&scratch);
    let mut stream = connect(&socket);
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let spin = image_b64(SPIN);
    writeln!(
        stream,
        r#"{{"op":"run","timeout_ms":800,"image":"{spin}"}}"#
    )
    .unwrap();
    stream.flush().unwrap();
    // Only a head start for the worker: a spinner still queued when the
    // burst lands takes one of the four slots itself, and the probe
    // meets a full queue either way.
    std::thread::sleep(Duration::from_millis(100));

    let halt = format!(r#"{{"op":"run","image":"{}"}}"#, image_b64(HALT));
    let mut burst = String::new();
    for _ in 0..4 {
        burst.push_str(&halt);
        burst.push('\n');
    }
    burst.push_str(probe);
    burst.push('\n');
    stream.write_all(burst.as_bytes()).unwrap();
    stream.flush().unwrap();

    let spinner = read_response(&mut reader);
    assert_eq!(
        spinner.get("error").and_then(Value::as_str),
        Some("deadline_exceeded"),
        "{spinner:?}"
    );
    for _ in 0..4 {
        read_response(&mut reader);
    }
    let answer = read_response(&mut reader);
    shutdown(&socket, server);
    answer
}

fn error_of(resp: &Value) -> Option<&str> {
    resp.get("error").and_then(Value::as_str)
}

#[test]
fn a_run_holding_a_nested_stats_op_is_bounded() {
    let halt = image_b64(HALT);
    let resp = probe_behind_a_full_queue(
        "nested",
        &format!(r#"{{"x":{{"op":"stats"}},"op":"run","image":"{halt}"}}"#),
    );
    assert_eq!(error_of(&resp), Some("overloaded"), "{resp:?}");
}

#[test]
fn a_duplicate_op_key_is_bounded_by_the_op_that_runs() {
    // The JSON parser keeps the last of duplicate keys, so this is a run.
    let halt = image_b64(HALT);
    let resp = probe_behind_a_full_queue(
        "dupkey",
        &format!(r#"{{"op":"stats","op":"run","image":"{halt}"}}"#),
    );
    assert_eq!(error_of(&resp), Some("overloaded"), "{resp:?}");
}

#[test]
fn an_escaped_stats_op_is_exempt_from_the_bound() {
    let resp = probe_behind_a_full_queue("escaped", r#"{"op":"st\u0061ts"}"#);
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{resp:?}"
    );
    assert!(resp.get("metrics").is_some(), "a stats answer: {resp:?}");
}

#[test]
fn an_exponent_timeout_is_the_deadline_it_spells() {
    let scratch = Scratch::new("exponent");
    let (socket, server) = spawn_server(&scratch);
    let mut stream = connect(&socket);
    let spin = image_b64(SPIN);
    let started = Instant::now();
    writeln!(
        stream,
        r#"{{"op":"run","timeout_ms":1.5e3,"image":"{spin}"}}"#
    )
    .unwrap();
    stream.flush().unwrap();
    let resp = read_response(&mut BufReader::new(stream.try_clone().unwrap()));
    let elapsed = started.elapsed();
    assert_eq!(error_of(&resp), Some("deadline_exceeded"), "{resp:?}");
    // 1.5e3 ms is 1.5 s; the watchdog backstop fires at twice that.
    assert!(
        elapsed >= Duration::from_millis(1_400) && elapsed < Duration::from_millis(3_500),
        "a 1.5e3 ms deadline expired after {elapsed:?}"
    );
    shutdown(&socket, server);
}
