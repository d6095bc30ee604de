//! Robustness tests for the serve loop: request deadlines with
//! cooperative cancellation (in a spinning run and in one long compress
//! segment), idle-connection eviction, request-line byte bounds,
//! slow-log rotation, and a seeded socket-level chaos run.
//!
//! The contract under test: a stuck or adversarial peer costs the
//! server *one request slot for one deadline*, never a worker, never a
//! connection-table slot, and never a neighbor's latency.

use pgr_bytecode::asm::assemble;
use pgr_bytecode::{write_program, ImageKind};
use pgr_grammar::{GrammarFile, InitialGrammar};
use pgr_registry::{base64_encode, ChaosConfig, ChaosProxy, Registry, ServeConfig, Server};
use pgr_telemetry::json::{self, Value};
use pgr_telemetry::names;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("pgr-robust-{tag}-{}", std::process::id()));
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

/// A program that never halts: `run` on it can only end by deadline (or
/// fuel, far later).
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
            return stream;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server socket never came up at {}", socket.display());
}

fn exchange(stream: &mut UnixStream, request: &str) -> Value {
    writeln!(stream, "{request}").expect("send request");
    stream.flush().expect("flush request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "connection closed instead of answering");
    json::parse(&line).expect("response is JSON")
}

/// Bind a server with robustness knobs and run it on a thread.
fn spawn_server(
    scratch: &Scratch,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (PathBuf, std::thread::JoinHandle<()>, String) {
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let manifest = registry.store(&sample_grammar(), "robustness").unwrap();
    let socket = scratch.path("pgr.sock");
    let mut config = ServeConfig {
        registry_root: scratch.path("reg"),
        threads: 1,
        ..ServeConfig::default()
    };
    tweak(&mut config);
    let server = Server::bind(&socket, config).unwrap();
    let thread = std::thread::spawn(move || server.run().unwrap());
    (socket, thread, manifest.id.to_hex())
}

#[test]
fn server_deadline_fails_the_stuck_request_in_band_while_neighbors_proceed() {
    let scratch = Scratch::new("deadline");
    let (socket, server_thread, id_hex) = spawn_server(&scratch, |c| {
        c.request_timeout_ms = Some(300);
        c.workers = 2;
    });

    // The stuck request: a spinning program under the 300 ms server
    // ceiling. Cooperative cancellation must answer it in-band well
    // within 2× the deadline — the watchdog's force-expiry bound.
    let spin64 = image_b64(SPIN);
    let mut stuck = connect(&socket);
    stuck
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    writeln!(stuck, r#"{{"op":"run","image":"{spin64}"}}"#).unwrap();
    stuck.flush().unwrap();

    // A neighbor on its own connection is served while the spin burns.
    let mut neighbor = connect(&socket);
    let halt64 = image_b64(HALT);
    let resp = exchange(
        &mut neighbor,
        &format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{halt64}"}}"#),
    );
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "neighbor must be served while a deadline burns: {resp:?}"
    );

    let mut reader = BufReader::new(stuck.try_clone().unwrap());
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("deadline answer arrives");
    let elapsed = started.elapsed();
    let resp = json::parse(&line).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    assert_eq!(
        resp.get("error").and_then(Value::as_str),
        Some("deadline_exceeded"),
        "{resp:?}"
    );
    assert!(
        elapsed <= Duration::from_millis(2 * 300 + 400),
        "in-band expiry must land within ~2x the deadline, took {elapsed:?}"
    );
    // The connection survived its own request's death.
    let resp = exchange(&mut stuck, r#"{"op":"stats"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    let counters = resp.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(
        counters
            .get(names::SERVE_DEADLINE_EXCEEDED)
            .and_then(Value::as_u64)
            .unwrap()
            >= 1,
        "deadline metric must count the expiry"
    );
    assert!(
        resp.get("window")
            .and_then(|w| w.get("deadline_exceeded"))
            .and_then(Value::as_u64)
            .unwrap()
            >= 1,
        "sliding window must see the expiry"
    );

    exchange(&mut stuck, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();
}

#[test]
fn per_request_timeout_is_honored_and_clamped_to_the_server_ceiling() {
    let scratch = Scratch::new("deadline-req");
    let (socket, server_thread, _) = spawn_server(&scratch, |c| {
        c.request_timeout_ms = Some(5_000);
        c.workers = 2;
    });

    // A request-supplied 200 ms deadline under a 5 s ceiling: the
    // request's own deadline governs.
    let spin64 = image_b64(SPIN);
    let mut stream = connect(&socket);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let resp = exchange(
        &mut stream,
        &format!(r#"{{"op":"run","timeout_ms":200,"image":"{spin64}"}}"#),
    );
    let elapsed = started.elapsed();
    assert_eq!(
        resp.get("error").and_then(Value::as_str),
        Some("deadline_exceeded"),
        "{resp:?}"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "the request's 200 ms deadline must govern, not the 5 s ceiling: {elapsed:?}"
    );
    // Expiry reports how long the request ran: cooperative expiry
    // carries `micros`, watchdog force-expiry carries `elapsed_ms`.
    assert!(
        resp.get("micros").and_then(Value::as_u64).is_some()
            || resp.get("elapsed_ms").and_then(Value::as_u64).is_some(),
        "expiry reports elapsed time: {resp:?}"
    );

    exchange(&mut stream, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();
}

/// One procedure whose body is `statements` frame-local updates
/// (`l[a] = l[b] op k`, eleven tokens each) drawn from `seed`: a single
/// straight-line segment of postfix code.
fn updates(statements: usize, seed: u64) -> String {
    let ops = ["ADDU", "SUBU", "MULU", "BANDU", "BORU"];
    let mut x = seed;
    let mut src = String::from("proc main frame=32 args=0\n");
    for _ in 0..statements {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = x >> 24;
        src.push_str(&format!(
            "\tADDRLP {}\n\tINDIRU\n\tLIT1 {}\n\t{}\n\tADDRLP {}\n\tASGNU\n",
            4 * (r % 8),
            (r >> 3) % 200,
            ops[(r >> 11) as usize % ops.len()],
            4 * ((r >> 14) % 8),
        ));
    }
    src.push_str("\tRETV\nendproc\nentry main\n");
    src
}

#[test]
fn a_deadline_bounds_one_long_segment() {
    let scratch = Scratch::new("deadline-segment");
    let (socket, server_thread, _) = spawn_server(&scratch, |c| c.workers = 1);
    // A grammar trained on updates of the same shape: its rules tile the
    // long segment with dozens of candidate patterns per node, so the
    // tiler's dynamic program, which polls the deadline, dominates the
    // request's cost.
    let training = assemble(&updates(400, 1)).unwrap();
    let trained = pgr_core::train(&[&training], &pgr_core::TrainConfig::default()).unwrap();
    let ig = trained.initial();
    let file = GrammarFile::new(trained.expanded().clone(), ig.nt_start, ig.nt_byte);
    let registry = Registry::open(scratch.path("reg")).unwrap();
    let id_hex = registry.store(&file, "updates").unwrap().id.to_hex();

    let mut stream = connect(&socket);
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let compress = |stream: &mut UnixStream, image: &str, extra: &str| {
        let started = Instant::now();
        let resp = exchange(
            stream,
            &format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{image}"{extra}}}"#),
        );
        (resp, started.elapsed())
    };

    // Calibrate on a tenth of the segment (the first request also loads
    // the engine, so take the faster of two): the tiler is linear, so
    // the long segment costs about ten times as much. Its deadline is a
    // quarter of that estimate.
    let mut tenth = Duration::MAX;
    for seed in [2, 3] {
        let (resp, elapsed) = compress(&mut stream, &image_b64(&updates(1_818, seed)), "");
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "{resp:?}"
        );
        tenth = tenth.min(elapsed);
    }
    let deadline = (tenth * 10 / 4).max(Duration::from_millis(20));

    // 18,182 updates: one segment of 200,003 tokens.
    let long = image_b64(&updates(18_182, 4));
    let extra = format!(r#","timeout_ms":{}"#, deadline.as_millis());
    let (resp, elapsed) = compress(&mut stream, &long, &extra);
    assert_eq!(
        resp.get("error").and_then(Value::as_str),
        Some("deadline_exceeded"),
        "deadline {deadline:?}: {resp:?}"
    );
    assert!(
        elapsed < deadline * 2,
        "the answer must land within twice the {deadline:?} deadline, took {elapsed:?}"
    );

    // The worker answered it itself (the reactor's watchdog did not
    // have to), and is free for the next request.
    let resp = exchange(&mut stream, r#"{"op":"stats"}"#);
    let counters = resp.get("metrics").and_then(|m| m.get("counters")).unwrap();
    let counter = |name: &str| counters.get(name).and_then(Value::as_u64).unwrap();
    assert_eq!(counter(names::SERVE_DEADLINE_EXCEEDED), 1);
    assert_eq!(counter(names::SERVE_DEADLINE_FORCE_EXPIRED), 0);
    let (resp, _) = compress(&mut stream, &image_b64(HALT), "");
    assert_eq!(
        resp.get("ok").and_then(Value::as_bool),
        Some(true),
        "{resp:?}"
    );

    exchange(&mut stream, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();
}

#[test]
fn idle_connections_are_evicted_and_active_ones_are_not() {
    let scratch = Scratch::new("idle");
    let (socket, server_thread, _) = spawn_server(&scratch, |c| {
        c.idle_timeout_ms = Some(150);
    });

    // An idle connection is closed after the timeout...
    let idle = connect(&socket);
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(idle.try_clone().unwrap());
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read EOF from eviction");
    assert_eq!(n, 0, "idle connection must be closed, got {line:?}");

    // ...while a connection that keeps talking (each exchange well
    // within the idle window) stays up across several windows' worth of
    // wall time.
    let mut active = connect(&socket);
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(80));
        let resp = exchange(&mut active, r#"{"op":"stats"}"#);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    }
    let resp = exchange(&mut active, r#"{"op":"stats"}"#);
    let counters = resp.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(
        counters
            .get(names::SERVE_CONN_IDLE_CLOSED)
            .and_then(Value::as_u64)
            .unwrap()
            >= 1,
        "eviction must be counted"
    );
    assert!(
        resp.get("window")
            .and_then(|w| w.get("idle_closed"))
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );

    exchange(&mut active, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();
}

#[test]
fn oversized_lines_are_answered_in_band_and_the_slot_is_reclaimed() {
    let scratch = Scratch::new("linebound");
    let (socket, server_thread, _) = spawn_server(&scratch, |c| {
        c.max_line_bytes = 1024;
        // One slot: a leaked entry for the bounced connection would lock
        // the follow-up client out.
        c.max_connections = 1;
    });

    let mut fat = connect(&socket);
    fat.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // 4 KiB of valid JSON on one line — four times the bound. The
    // server may answer and close mid-send (it needs only the first
    // 1 KiB to know), so a broken pipe here is fine: the in-band
    // answer is already queued on our side.
    let padding = "x".repeat(4096);
    let line = format!("{{\"op\":\"stats\",\"pad\":\"{padding}\"}}\n");
    match fat.write_all(line.as_bytes()) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => panic!("send oversized line: {e}"),
    }
    let mut reader = BufReader::new(fat.try_clone().unwrap());
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("in-band overflow answer");
    let resp = json::parse(&line).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
    let error = resp.get("error").and_then(Value::as_str).unwrap();
    assert!(
        error.contains("1024"),
        "overflow answer names the bound: {error}"
    );
    // After the answer, the connection is closed.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then closed");

    // The slot came back: the next client is served normally.
    let mut next = connect(&socket);
    next.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let resp = exchange(&mut next, r#"{"op":"stats"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    let counters = resp.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(
        counters
            .get(names::SERVE_LINE_OVERFLOW)
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );

    exchange(&mut next, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();
}

#[test]
fn peer_closing_mid_batch_with_flush_deadline_pending_does_not_wedge_the_flush() {
    let scratch = Scratch::new("midbatch");
    let (socket, server_thread, id_hex) = spawn_server(&scratch, |c| {
        c.workers = 1;
        // A long window so the second request is still *held* in the
        // batcher (flush deadline pending) when its peer hangs up.
        c.batch_window_us = 300_000;
    });

    let halt64 = image_b64(HALT);
    let req = format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{halt64}"}}"#);

    // Occupy the single worker so batches queue rather than flush
    // adaptively.
    let mut busy = connect(&socket);
    busy.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    writeln!(busy, "{req}").unwrap();
    busy.flush().unwrap();
    std::thread::sleep(Duration::from_millis(20));

    // A second peer parks a request in the batch window, then vanishes
    // before the flush deadline fires.
    {
        let mut doomed = connect(&socket);
        writeln!(doomed, "{req}").unwrap();
        doomed.flush().unwrap();
    } // dropped: peer closes with its request still held

    // The busy connection's own response arrives, and the server keeps
    // answering afterwards — the orphaned batch member's completion hit
    // a closed connection and was discarded, not wedged on.
    let mut reader = BufReader::new(busy.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("busy response");
    assert_eq!(
        json::parse(&line)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    std::thread::sleep(Duration::from_millis(400)); // past the flush deadline
    let resp = exchange(&mut busy, r#"{"op":"stats"}"#);
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));

    exchange(&mut busy, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();
}

#[test]
fn slow_log_rotates_at_the_byte_cap_instead_of_growing_without_bound() {
    let scratch = Scratch::new("slowlog");
    let slow_log = scratch.path("slow.ndjson");
    let cap: u64 = 4096;
    let (socket, server_thread, _) = {
        let log = slow_log.clone();
        spawn_server(&scratch, move |c| {
            c.slow_ms = Some(0); // every request is "slow"
            c.slow_trace = Some(log);
            c.slow_trace_max_bytes = cap;
        })
    };

    // Enough traced requests to overflow a 4 KiB cap several times.
    let mut stream = connect(&socket);
    for _ in 0..120 {
        let resp = exchange(&mut stream, r#"{"op":"stats"}"#);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    }
    exchange(&mut stream, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();

    let current = std::fs::metadata(&slow_log).expect("slow log exists").len();
    let rotated = slow_log.with_extension("ndjson.old");
    let old = std::fs::metadata(&rotated)
        .expect("rotation produced .old")
        .len();
    // One record may straddle the cap, so allow a record's worth of
    // slack — but the total on disk must be bounded by ~2× the cap, not
    // by the request count.
    let slack = 2048;
    assert!(
        current <= cap + slack,
        "current generation stays near the cap: {current} > {cap} + {slack}"
    );
    assert!(
        old <= cap + slack,
        "rotated generation stays near the cap: {old}"
    );
    // Both generations hold parseable NDJSON.
    for path in [&slow_log, &rotated] {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            json::parse(line).unwrap_or_else(|e| panic!("{}: bad line {e}", path.display()));
        }
    }
}

#[test]
fn seeded_chaos_never_hangs_the_server_and_healthy_peers_stay_byte_identical() {
    let scratch = Scratch::new("chaos");
    let (socket, server_thread, id_hex) = spawn_server(&scratch, |c| {
        c.workers = 2;
        c.request_timeout_ms = Some(2_000);
        c.max_connections = 32;
        c.max_line_bytes = 1 << 20;
    });

    // The fault proxy fronts the real socket; chaos clients go through
    // it, healthy clients go direct.
    let front = scratch.path("chaos.sock");
    let proxy = ChaosProxy::start(
        &front,
        &socket,
        ChaosConfig {
            seed: 1337,
            partial_write_per_1024: 256,
            reset_per_1024: 128,
            stall_per_1024: 128,
            stall_ms: 10,
            garbage_per_1024: 128,
        },
    )
    .unwrap();

    // Healthy reference: what a compress of HALT must always return.
    let halt64 = image_b64(HALT);
    let req = format!(r#"{{"op":"compress","grammar":"{id_hex}","image":"{halt64}"}}"#);
    let mut reference = connect(&socket);
    reference
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let golden = exchange(&mut reference, &req)
        .get("image")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    // Chaos churn: 24 connections through the proxy, each trying a few
    // requests; resets and garbage are expected, hangs are not.
    let churn = {
        let front = front.clone();
        let req = req.clone();
        std::thread::spawn(move || {
            for _ in 0..24 {
                let Ok(stream) = UnixStream::connect(&front) else {
                    continue;
                };
                stream
                    .set_read_timeout(Some(Duration::from_secs(5)))
                    .unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut w = stream;
                for _ in 0..4 {
                    if w.write_all(format!("{req}\n").as_bytes()).is_err() {
                        break;
                    }
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break; // reset; that connection is done
                    }
                }
            }
        })
    };

    // Healthy clients in parallel, direct to the server: every answer
    // must be ok and byte-identical to the golden image.
    let mut healthy = Vec::new();
    for _ in 0..3 {
        let socket = socket.clone();
        let req = req.clone();
        let golden = golden.clone();
        healthy.push(std::thread::spawn(move || {
            let mut stream = connect(&socket);
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            for _ in 0..10 {
                let resp = exchange(&mut stream, &req);
                assert_eq!(
                    resp.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "healthy peer failed during chaos: {resp:?}"
                );
                assert_eq!(
                    resp.get("image").and_then(Value::as_str),
                    Some(golden.as_str()),
                    "healthy peer got non-identical bytes during chaos"
                );
            }
        }));
    }
    for h in healthy {
        h.join().expect("healthy client panicked");
    }
    churn.join().expect("chaos churn panicked");
    proxy.stop();

    // Every chaos connection's slot came back: the connection table can
    // still seat a full house.
    let mut full_house = Vec::new();
    for _ in 0..8 {
        let mut stream = connect(&socket);
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let resp = exchange(&mut stream, r#"{"op":"stats"}"#);
        assert_eq!(
            resp.get("ok").and_then(Value::as_bool),
            Some(true),
            "slot not reclaimed after chaos: {resp:?}"
        );
        full_house.push(stream);
    }
    drop(full_house);

    let mut stream = connect(&socket);
    exchange(&mut stream, r#"{"op":"shutdown"}"#);
    server_thread.join().unwrap();
    assert!(!socket.exists());
}
