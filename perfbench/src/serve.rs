//! `serve-mixed`: an open loop against the real `pgr serve` binary.
//!
//! Arrivals at each fixed rate are a seeded Poisson process with a fixed
//! count (uniform arrival times in the step, sorted), half compress and
//! half run requests. One connection per op kind keeps a slow compress
//! response from holding up a run response behind it, since a
//! connection answers in request order; a one-CPU host gets a single
//! connection for both. Each request is timed from its due time. Errors
//! are counted, never retried.

use crate::inputs::{self, Input, Rng, Stream};
use crate::offline::{grammar_rules, run_synth, setup, setup_medians, Setup};
use crate::report::{cpu_seconds, peak_rss_mib, Report};
use crate::spans::{self, DumpLine, Totals};
use crate::stats::{
    backlog_grew, goodput, median, percentile, summarize, StatsDelta, StatsSnapshot, StepVerdict,
    Summary, Timing,
};
use crate::Ctx;
use pgr_bytecode::{read_program_tagged, write_program_tagged, ImageKind, Program};
use pgr_core::{canonicalize_program, CompressedProgram, Trained};
use pgr_grammar::GrammarFile;
use pgr_registry::proto::{base64_decode, base64_encode};
use pgr_registry::store::Registry;
use pgr_telemetry::json::{self, Value};
use pgr_telemetry::names;
use pgr_vm::{Vm, VmConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Latency limit on each op's tail for a rate to count as sustained.
const LIMIT_S: f64 = 0.25;
/// A step whose sends ran later than this at their tail (by the same
/// rule as latency tails) measured the generator, not the server: the
/// run is invalid. It is a fifth of the latency limit; on a shared
/// two-CPU host the generator's wake-ups run up to a few tens of
/// milliseconds late under load.
const LATE_BOUND_S: f64 = 0.05;
/// Offered rates in requests per second, both ops together, ascending.
/// The last is one the server cannot sustain today, so a throughput
/// gain can show. None lies between 70 and 360: on a shared two-CPU
/// host the capacity today moves between about 100 and 190 req/s with
/// the neighbours' load, and a step in that range would pass or fail
/// by it.
const RATES: [f64; 4] = [20.0, 35.0, 70.0, 360.0];
/// The rate the latency metrics are taken at: about half today's
/// goodput.
const REF_RATE: usize = 1;
/// Share of `--seconds` each step lasts. The overload step is short:
/// its queue fills within a second.
const STEP_SHARE: [f64; 4] = [0.15, 0.5, 0.25, 0.1];
/// How long before a send the generator stops blocking in reads and
/// starts polling, and how long it sleeps between polls.
const BLOCK_MARGIN_S: f64 = 0.025;
const POLL_S: f64 = 100e-6;
/// How long a step may take to drain after its last due time before
/// its unanswered requests count as lost.
const DRAIN: Duration = Duration::from_secs(10);
/// Function counts of compress-request programs (about 2 to 3 KB).
const COMPRESS_FUNCTIONS: (usize, usize) = (4, 5);
/// Held-out synth programs among the run images.
const RUN_SYNTH: u64 = 8;
/// Samples whose standalone run takes under about 25 ms.
const RUN_SAMPLES: [&str; 8] = [
    "8q", "sieve", "crc32", "matmul", "sort", "calc", "fmt", "mixed",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Compress,
    Run,
}

/// One scheduled request.
#[derive(Debug, Clone)]
struct Req {
    op: Op,
    /// Index into the compress inputs or the run images.
    input: usize,
    due: f64,
    line: String,
}

/// A request's fate.
#[derive(Debug, Clone)]
struct Outcome {
    timing: Timing,
    response: Option<String>,
}

/// A `pgr serve` child, stopped when dropped.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    fn spawn(
        ctx: &Ctx,
        registry: &Path,
        tag: &str,
        slow_trace: Option<&Path>,
    ) -> Result<Server, String> {
        let socket = ctx.state.join(format!("{tag}.sock"));
        let _ = std::fs::remove_file(&socket);
        let log = std::fs::File::create(ctx.state.join(format!("{tag}.log")))
            .map_err(|e| format!("serve log: {e}"))?;
        let mut cmd = Command::new(&ctx.pgr);
        cmd.arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--registry")
            .arg(registry);
        if let Some(path) = slow_trace {
            cmd.args(["--slow-ms", "0", "--slow-trace"]).arg(path);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ctx.pgr.display()))?;
        let mut server = Server { child, socket };
        let t0 = Instant::now();
        while UnixStream::connect(&server.socket).is_err() {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("pgr serve exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err("pgr serve did not start listening within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(server)
    }

    fn connect(&self) -> Result<UnixStream, String> {
        UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to shut down and wait for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = self
            .connect()
            .and_then(|mut c| call(&mut c, "{\"op\":\"shutdown\"}"));
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("pgr serve exited with {status}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("pgr serve did not shut down within 30 s".into()),
            }
        }
        reply.map(drop)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Send one request line and read one response line.
fn call(stream: &mut UnixStream, line: &str) -> Result<String, String> {
    stream
        .set_nonblocking(false)
        .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(60))))
        .and_then(|()| stream.write_all(format!("{line}\n").as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    if reply.is_empty() {
        return Err("server closed the connection".into());
    }
    Ok(reply.trim_end().to_string())
}

fn stats(stream: &mut UnixStream) -> Result<StatsSnapshot, String> {
    StatsSnapshot::parse(&call(stream, "{\"op\":\"stats\"}")?)
}

/// Switch `stream` between blocking and nonblocking reads, skipping the
/// system call when it is already in that mode.
fn set_blocking(stream: &UnixStream, mode: &mut Option<bool>, on: bool) -> io::Result<()> {
    if *mode != Some(on) {
        stream.set_nonblocking(!on)?;
        *mode = Some(on);
    }
    Ok(())
}

/// Drive one connection's slice of a step: send each request at its due
/// time (seconds after `t0`), and read responses as they come, which
/// arrive in request order. Returns one outcome per request and whether
/// every response arrived.
fn drive(stream: &mut UnixStream, reqs: &[&Req], t0: Instant) -> io::Result<(Vec<Outcome>, bool)> {
    let mut out: Vec<Outcome> = reqs
        .iter()
        .map(|r| Outcome {
            timing: Timing {
                due: r.due,
                sent: r.due,
                answered: None,
            },
            response: None,
        })
        .collect();
    let last_due = reqs.iter().map(|r| r.due).fold(0.0, f64::max);
    let drain_end = last_due + DRAIN.as_secs_f64();
    let (mut next, mut answered) = (0, 0);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut blocking = None;
    while answered < reqs.len() {
        let now = t0.elapsed().as_secs_f64();
        if next < reqs.len() && reqs[next].due <= now {
            set_blocking(stream, &mut blocking, true)?;
            while next < reqs.len() && reqs[next].due <= t0.elapsed().as_secs_f64() {
                stream.write_all(reqs[next].line.as_bytes())?;
                out[next].timing.sent = t0.elapsed().as_secs_f64();
                next += 1;
            }
            continue;
        }
        let wait = if next < reqs.len() {
            reqs[next].due - now
        } else {
            drain_end - now
        };
        if next == reqs.len() && wait <= 0.0 {
            break;
        }
        // Block in the read until well before the next send (a read
        // timeout can overrun by a kernel tick or two), then poll.
        if wait > 2.0 * BLOCK_MARGIN_S {
            set_blocking(stream, &mut blocking, true)?;
            stream.set_read_timeout(Some(Duration::from_secs_f64(wait - BLOCK_MARGIN_S)))?;
        } else {
            set_blocking(stream, &mut blocking, false)?;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(n) => {
                let at = t0.elapsed().as_secs_f64();
                buf.extend_from_slice(&chunk[..n]);
                let mut start = 0;
                while let Some(pos) = buf[start..].iter().position(|&b| b == b'\n') {
                    if answered < next {
                        out[answered].timing.answered = Some(at);
                        out[answered].response =
                            Some(String::from_utf8_lossy(&buf[start..start + pos]).into_owned());
                        answered += 1;
                    }
                    start += pos + 1;
                }
                buf.drain(..start);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if blocking == Some(false) {
                    std::thread::sleep(Duration::from_secs_f64(wait.clamp(0.0, POLL_S)));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    set_blocking(stream, &mut blocking, true)?;
    Ok((out, answered == reqs.len()))
}

/// A measured rate step.
struct Step {
    rate: f64,
    reqs: Vec<Req>,
    outcomes: Vec<Outcome>,
    before: StatsSnapshot,
    after: StatsSnapshot,
    client_cpu_s: f64,
    /// The server's peak resident set after the step, MiB.
    server_rss_mib: f64,
}

/// Whether a response line reports success.
fn ok_of(response: &Option<String>) -> bool {
    response
        .as_deref()
        .is_some_and(|r| r.starts_with("{\"ok\":true"))
}

impl Step {
    fn delta(&self) -> StatsDelta<'_> {
        StatsDelta {
            before: &self.before,
            after: &self.after,
        }
    }

    /// Latencies (seconds, from due) of successful requests of `op`.
    fn latencies(&self, op: Op) -> Vec<f64> {
        self.reqs
            .iter()
            .zip(&self.outcomes)
            .filter(|(r, o)| r.op == op && ok_of(&o.response))
            .filter_map(|(_, o)| o.timing.latency_from_due())
            .collect()
    }

    fn summary(&self, op: Op) -> Option<Summary> {
        summarize(&self.latencies(op))
    }

    fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !ok_of(&o.response)).count()
    }

    fn timings(&self) -> Vec<Timing> {
        self.outcomes.iter().map(|o| o.timing).collect()
    }

    fn verdict(&self) -> StepVerdict {
        StepVerdict {
            rate: self.rate,
            tails: [Op::Compress, Op::Run].map(|op| self.summary(op).map(|s| s.tail)),
            failed: self.failed(),
            backlog: backlog_grew(&self.timings(), LIMIT_S),
        }
    }

    fn lateness(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.timing.lateness()).collect()
    }

    /// Successful requests per second over the step, from the first send
    /// to the last answer. In the overload step, the server's capacity.
    fn throughput(&self) -> f64 {
        let done = self.outcomes.iter().filter(|o| ok_of(&o.response)).count();
        let first = self
            .outcomes
            .iter()
            .map(|o| o.timing.sent)
            .fold(f64::INFINITY, f64::min);
        let last = self
            .outcomes
            .iter()
            .filter_map(|o| o.timing.answered)
            .fold(0.0, f64::max);
        done as f64 / (last - first).max(1e-9)
    }

    /// Mean client latency from the send (not the due time), ms.
    fn client_mean_ms(&self, op: Op) -> f64 {
        let v: Vec<f64> = self
            .reqs
            .iter()
            .zip(&self.outcomes)
            .filter(|(r, o)| r.op == op && ok_of(&o.response))
            .filter_map(|(_, o)| o.timing.answered.map(|a| a - o.timing.sent))
            .collect();
        1e3 * v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    fn server_mean_ms(&self, op: Op) -> f64 {
        let name = match op {
            Op::Compress => names::SERVE_REQUEST_COMPRESS_MICROS,
            Op::Run => names::SERVE_REQUEST_RUN_MICROS,
        };
        self.delta().hist(name).mean() / 1e3
    }
}

/// Build the schedule: for each rate, a fixed count of uniform arrival
/// times over the step (a Poisson process given its count), balanced
/// between ops and shuffled.
fn schedule(
    seed: u64,
    seconds: u64,
    compress_lines: &[String],
    run_lines: &[String],
) -> Vec<(f64, Vec<Req>)> {
    let mut rng = Rng::new(inputs::derive(seed, Stream::Schedule, 0));
    let mut next_compress = 0;
    let mut deck: Vec<usize> = Vec::new();
    let mut steps = Vec::new();
    for (k, &rate) in RATES.iter().enumerate() {
        let dur = seconds as f64 * STEP_SHARE[k];
        let n = ((rate * dur / 2.0).round() as usize).max(1) * 2;
        let mut dues: Vec<f64> = (0..n).map(|_| rng.unit() * dur).collect();
        dues.sort_by(f64::total_cmp);
        let mut ops: Vec<Op> = (0..n)
            .map(|i| if i % 2 == 0 { Op::Compress } else { Op::Run })
            .collect();
        rng.shuffle(&mut ops);
        let reqs = dues
            .into_iter()
            .zip(ops)
            .map(|(due, op)| {
                let input = match op {
                    Op::Compress => {
                        next_compress += 1;
                        next_compress - 1
                    }
                    Op::Run => {
                        // Deal the run images like cards, so every step
                        // runs each image equally often.
                        if deck.is_empty() {
                            deck = (0..run_lines.len()).collect();
                            rng.shuffle(&mut deck);
                        }
                        deck.pop().expect("a refilled deck")
                    }
                };
                let line = match op {
                    Op::Compress => compress_lines[input].clone(),
                    Op::Run => run_lines[input].clone(),
                };
                Req {
                    op,
                    input,
                    due,
                    line,
                }
            })
            .collect();
        steps.push((rate, reqs));
    }
    steps
}

/// Compress requests the plan needs.
fn compress_count(seconds: u64) -> usize {
    RATES
        .iter()
        .zip(STEP_SHARE)
        .map(|(rate, share)| ((rate * seconds as f64 * share / 2.0).round() as usize).max(1))
        .sum()
}

/// Load connections: one per op kind, or a single one carrying both
/// when there is only one CPU for its thread.
fn connection_count(n_cpu: usize) -> usize {
    if n_cpu < 2 {
        1
    } else {
        2
    }
}

/// The connection that carries `op` among `n` connections.
fn connection_of(op: Op, n: usize) -> usize {
    match (op, n) {
        (Op::Run, 2) => 1,
        _ => 0,
    }
}

/// Run one step over `conns`, bracketed by `stats` snapshots.
fn run_step(
    conns: &mut [UnixStream],
    server: &Server,
    rate: f64,
    reqs: Vec<Req>,
) -> Result<Step, String> {
    let before = stats(&mut conns[0])?;
    let mut slices: Vec<Vec<usize>> = vec![Vec::new(); conns.len()];
    for (i, r) in reqs.iter().enumerate() {
        slices[connection_of(r.op, conns.len())].push(i);
    }
    let cpu0 = cpu_seconds(None);
    let t0 = Instant::now() + Duration::from_millis(5);
    let results: Vec<io::Result<(Vec<Outcome>, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&slices)
            .map(|(stream, slice)| {
                let mine: Vec<&Req> = slice.iter().map(|&i| &reqs[i]).collect();
                scope.spawn(move || drive(stream, &mine, t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    let client_cpu_s = cpu_seconds(None) - cpu0;
    let mut outcomes: Vec<Option<Outcome>> = vec![None; reqs.len()];
    for (c, (result, slice)) in results.into_iter().zip(&slices).enumerate() {
        let (outs, clean) = result.map_err(|e| format!("load connection {c}: {e}"))?;
        if !clean {
            // Responses still in flight would be read as the next
            // step's: start that connection afresh.
            conns[c] = server.connect()?;
        }
        for (&i, o) in slice.iter().zip(outs) {
            outcomes[i] = Some(o);
        }
    }
    let after = stats(&mut conns[0])?;
    Ok(Step {
        rate,
        reqs,
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every request driven"))
            .collect(),
        before,
        after,
        client_cpu_s,
        server_rss_mib: peak_rss_mib(Some(server.pid())).unwrap_or(0.0),
    })
}

/// A run image with its reference answer.
struct RunImage {
    name: String,
    answer: (i32, Vec<u8>),
}

/// Everything set-up produces.
struct Ready {
    server: Server,
    registry: PathBuf,
    run_images: Vec<Vec<u8>>,
    grammar_hex: String,
}

fn start_serving(
    ctx: &Ctx,
    t: &Trained,
    rep: usize,
    run_programs: &[Input],
    warm: &Input,
) -> Result<Ready, String> {
    let registry = ctx.state.join(format!("registry-{rep}"));
    let _ = std::fs::remove_dir_all(&registry);
    let file = GrammarFile::new(t.expanded().clone(), t.start(), t.initial().nt_byte);
    let manifest = Registry::open(&registry)
        .and_then(|r| r.store(&file, "perfbench"))
        .map_err(|e| format!("store grammar: {e}"))?;
    let server = Server::spawn(ctx, &registry, &format!("serve-{rep}"), None)?;
    let compressor = t.compressor();
    let run_images: Vec<Vec<u8>> = run_programs
        .iter()
        .map(|p| {
            let cp = compressor
                .compress(&p.program)
                .expect("run images compress")
                .0;
            write_program_tagged(
                &cp.program,
                ImageKind::Compressed,
                Some(manifest.id.as_bytes()),
            )
        })
        .collect();
    let grammar_hex = manifest.id.to_hex();
    warm_up(
        &server,
        &compress_line(&grammar_hex, &warm.program),
        &run_line(&run_images[0]),
    )?;
    Ok(Ready {
        server,
        registry,
        run_images,
        grammar_hex,
    })
}

/// One request of each op, each checked for success.
fn warm_up(server: &Server, compress: &str, run: &str) -> Result<(), String> {
    let mut c = server.connect()?;
    for line in [compress, run] {
        let reply = call(&mut c, line.trim_end())?;
        if !reply.starts_with("{\"ok\":true") {
            return Err(format!("warm-up request failed: {reply}"));
        }
    }
    Ok(())
}

fn compress_line(grammar_hex: &str, program: &Program) -> String {
    let image = write_program_tagged(program, ImageKind::Uncompressed, None);
    format!(
        "{{\"op\":\"compress\",\"grammar\":\"{grammar_hex}\",\"image\":\"{}\"}}\n",
        base64_encode(&image)
    )
}

fn run_line(image: &[u8]) -> String {
    format!(
        "{{\"op\":\"run\",\"image\":\"{}\"}}\n",
        base64_encode(image)
    )
}

/// Per-step detail line.
fn describe(step: &Step) -> String {
    let fmt = |s: Option<Summary>| match s {
        Some(s) => format!(
            "p50 {:>8.2} ms  p{} {:>8.2} ms (n={})",
            s.p50 * 1e3,
            s.tail_pct,
            s.tail * 1e3,
            s.n
        ),
        None => "too few samples".to_string(),
    };
    let late = step.lateness();
    let v = step.verdict();
    format!(
        "#   rate {:>5.1}/s  n {:>4}  ok {:>6.1}/s  compress {}  run {}  failed {}  backlog {}  late p99 {:.2} ms max {:.2} ms  server peak RSS {:.1} MiB  {}",
        step.rate,
        step.reqs.len(),
        step.throughput(),
        fmt(step.summary(Op::Compress)),
        fmt(step.summary(Op::Run)),
        v.failed,
        v.backlog,
        percentile(&late, 99.0) * 1e3,
        late.iter().copied().fold(0.0, f64::max) * 1e3,
        step.server_rss_mib,
        if v.sustained(LIMIT_S) { "sustained" } else { "not sustained" }
    )
}

/// Time `f` over `items`, median microseconds per call.
fn median_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let v: Vec<f64> = items
        .iter()
        .map(|x| {
            let t0 = Instant::now();
            f(x);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&v)
}

/// Check every response of `steps` against the inputs; returns the
/// summed compressed and original code bytes of successful compresses.
fn check_responses(
    trained: &Trained,
    steps: &[Step],
    canon: &[Program],
    images: &[RunImage],
    report: &mut Report,
) -> (u64, u64) {
    let (mut compressed, mut original) = (0u64, 0u64);
    for step in steps {
        for (req, out) in step.reqs.iter().zip(&step.outcomes) {
            let Some(line) = out
                .response
                .as_deref()
                .filter(|r| r.starts_with("{\"ok\":true"))
            else {
                continue;
            };
            let doc = match json::parse(line) {
                Ok(doc) => doc,
                Err(e) => {
                    report.mismatch(format!("unparsable response: {e}"));
                    continue;
                }
            };
            let field = |k: &str| doc.get(k).and_then(Value::as_str).unwrap_or("");
            match req.op {
                Op::Compress => {
                    let back = base64_decode(field("image"))
                        .ok_or("bad base64".to_string())
                        .and_then(|b| read_program_tagged(&b).map_err(|e| e.to_string()))
                        .and_then(|(p, kind, _)| {
                            if kind != ImageKind::Compressed {
                                return Err("image is not compressed".into());
                            }
                            trained
                                .decompress(&CompressedProgram { program: p })
                                .map_err(|e| e.to_string())
                        });
                    match back {
                        Ok(p) if p == canon[req.input] => {
                            let num = |k: &str| doc.get(k).and_then(Value::as_u64).unwrap_or(0);
                            compressed += num("compressed_bytes");
                            original += num("original_bytes");
                        }
                        Ok(_) => {
                            report.mismatch(format!("compress #{}: round trip differs", req.input))
                        }
                        Err(e) => report.mismatch(format!("compress #{}: {e}", req.input)),
                    }
                }
                Op::Run => {
                    let img = &images[req.input];
                    let exit = doc
                        .get("exit_code")
                        .and_then(Value::as_f64)
                        .map(|e| e as i32);
                    let output = base64_decode(field("output"));
                    if exit != Some(img.answer.0)
                        || output.as_deref() != Some(img.answer.1.as_slice())
                    {
                        report.mismatch(format!(
                            "run {}: server answered exit {exit:?}, reference exit {}",
                            img.name, img.answer.0
                        ));
                    }
                }
            }
        }
    }
    (compressed, original)
}

/// Run the whole plan against `server`.
fn run_plan(server: &Server, plan: &[(f64, Vec<Req>)], n_cpu: usize) -> Result<Vec<Step>, String> {
    let mut conns: Vec<UnixStream> = (0..connection_count(n_cpu))
        .map(|_| server.connect())
        .collect::<Result<_, _>>()?;
    let mut steps = Vec::new();
    for (rate, reqs) in plan {
        let step = run_step(&mut conns, server, *rate, reqs.clone())?;
        println!("{}", describe(&step));
        if let Some(late) = summarize(&step.lateness()) {
            if late.tail > LATE_BOUND_S {
                return Err(format!(
                    "invalid run: at {rate}/s the generator sent its p{} request {:.1} ms late (bound {:.0} ms)",
                    late.tail_pct,
                    late.tail * 1e3,
                    LATE_BOUND_S * 1e3
                ));
            }
        }
        steps.push(step);
    }
    Ok(steps)
}

pub fn serve_mixed(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    std::fs::create_dir_all(&ctx.state).map_err(|e| format!("state dir: {e}"))?;
    let n_cpu = std::thread::available_parallelism().map_or(1, usize::from);

    // Inputs: distinct compress programs, run images, the warm-up.
    let n_compress = compress_count(ctx.seconds);
    let warm = inputs::synth_input(ctx.seed, Stream::Serve, 0, COMPRESS_FUNCTIONS);
    let compress_inputs: Vec<Input> = (1..=n_compress as u64)
        .map(|i| inputs::synth_input(ctx.seed, Stream::Serve, i, COMPRESS_FUNCTIONS))
        .collect();
    let mut run_programs: Vec<Input> = inputs::samples()
        .into_iter()
        .filter(|s| RUN_SAMPLES.contains(&s.name.as_str()))
        .collect();
    run_programs.sort_by_key(|p| p.name != "calc");
    run_programs.extend((0..RUN_SYNTH).map(|i| run_synth(ctx.seed, i)));
    inputs::assert_disjoint(
        ctx.seed,
        &[
            (Stream::Train, inputs::TRAIN_PROGRAMS),
            (Stream::Heldout, RUN_SYNTH),
            (Stream::Serve, n_compress as u64 + 1),
        ],
    );
    let train_set = inputs::training_set();

    // Set-up: train, store, spawn, compress the run images, warm up.
    // The servers of the repetitions that only time set-up stop as soon
    // as they are ready.
    let mut rep = 0;
    let mut start = |t: &Trained| {
        rep += 1;
        start_serving(ctx, t, rep, &run_programs, &warm)
    };
    let Setup {
        trained,
        out: ready,
        setup_s,
        train_s,
    } = setup(&train_set, &mut start);
    let ready = ready?;
    let mut failed = Ok(());
    let (setup_s, train_s) = setup_medians((setup_s, train_s), &train_set, |t| {
        if let Err(e) = start(t) {
            failed = Err(e);
        }
    });
    failed?;

    // Reference answers and request lines (not timed as set-up).
    let mut run_images = Vec::new();
    for p in &run_programs {
        let r = Vm::new(&p.program, VmConfig::default())
            .and_then(|mut vm| vm.run())
            .map_err(|e| format!("{}: reference run failed: {e}", p.name))?;
        run_images.push(RunImage {
            name: p.name.clone(),
            answer: (r.exit_code.unwrap_or_else(|| r.ret.i()), r.output),
        });
    }
    for (name, exit, output) in [
        ("8q", Some(92), None),
        ("sieve", Some(0), Some(&b"1229 "[..])),
    ] {
        let img = run_images
            .iter()
            .find(|i| i.name == name)
            .expect("sample present");
        if exit.is_some_and(|e| e != img.answer.0)
            || output.is_some_and(|o| !img.answer.1.starts_with(o))
        {
            report.mismatch(format!("{name}: reference run gave a wrong known answer"));
        }
    }
    let canon: Vec<Program> = compress_inputs
        .iter()
        .map(|p| canonicalize_program(&p.program).expect("generated programs are valid"))
        .collect();
    let write_us = median_us(&compress_inputs, |p| {
        std::hint::black_box(write_program_tagged(
            &p.program,
            ImageKind::Uncompressed,
            None,
        ));
    });
    let compress_lines: Vec<String> = compress_inputs
        .iter()
        .map(|p| compress_line(&ready.grammar_hex, &p.program))
        .collect();
    let run_lines: Vec<String> = ready.run_images.iter().map(|i| run_line(i)).collect();
    let plan = schedule(ctx.seed, ctx.seconds, &compress_lines, &run_lines);
    println!(
        "# serve-mixed: {} compress programs ({:.0} B mean), {} run images, {} connections, rates {:?}/s, ref {}/s",
        compress_inputs.len(),
        compress_inputs.iter().map(|p| p.program.code_size()).sum::<usize>() as f64 / compress_inputs.len() as f64,
        run_lines.len(),
        connection_count(n_cpu),
        RATES,
        RATES[REF_RATE]
    );

    let cpu0 = cpu_seconds(None);
    let steps = run_plan(&ready.server, &plan, n_cpu)?;
    let client_cpu_s = cpu_seconds(None) - cpu0;
    ready.server.shutdown()?;

    let reference = &steps[REF_RATE];
    for step in &steps {
        report.attempted += step.reqs.len() as u64;
    }
    report.failed += reference.failed() as u64;
    let (compressed, original) =
        check_responses(&trained, &steps, &canon, &run_images, &mut report);
    let verdicts: Vec<StepVerdict> = steps.iter().map(Step::verdict).collect();
    let best = goodput(&verdicts, LIMIT_S);
    let late: Vec<f64> = steps.iter().flat_map(Step::lateness).collect();
    println!(
        "# harness: late p99 {:.3} ms, max {:.3} ms; client cpu {:.3} s (steps {:.3} s)",
        percentile(&late, 99.0) * 1e3,
        late.iter().copied().fold(0.0, f64::max) * 1e3,
        client_cpu_s,
        steps.iter().map(|s| s.client_cpu_s).sum::<f64>()
    );
    let top = steps.last().expect("at least one step");
    let ref_compress = reference
        .summary(Op::Compress)
        .ok_or("too few compress samples at the reference rate")?;
    let ref_run = reference
        .summary(Op::Run)
        .ok_or("too few run samples at the reference rate")?;
    println!(
        "# reference {}/s: compress tail p{} of {}, run tail p{} of {}; goodput {:?}/s; capacity {:.1} ok/s at {}/s offered",
        reference.rate,
        ref_compress.tail_pct,
        ref_compress.n,
        ref_run.tail_pct,
        ref_run.n,
        best,
        top.throughput(),
        top.rate
    );

    // Goodput can only land on a rate of the set. What the server
    // completes while overloaded is its capacity.
    let goodput_rps = steps
        .iter()
        .zip(&verdicts)
        .filter(|(_, v)| Some(v.rate) == best)
        .map(|(s, _)| s.throughput())
        .next()
        .unwrap_or(0.0);
    report.metric("setup_s", setup_s, "s");
    // Peak memory through the reference step: later steps overload the
    // server on purpose, and what a backlog holds is noise.
    report.metric("peak_rss_mib", reference.server_rss_mib, "MiB");
    report.metric(
        "ok_ratio",
        1.0 - reference.failed() as f64 / reference.reqs.len() as f64,
        "share",
    );
    report.metric(
        "compress_ratio",
        compressed as f64 / original.max(1) as f64,
        "share",
    );
    report.metric("goodput_rps", goodput_rps, "req/s");
    report.metric("compress_p50_ms", ref_compress.p50 * 1e3, "ms");
    report.metric("compress_tail_ms", ref_compress.tail * 1e3, "ms");
    report.metric("run_p50_ms", ref_run.p50 * 1e3, "ms");
    report.metric("run_tail_ms", ref_run.tail * 1e3, "ms");
    report.metric("serve.capacity_rps", top.throughput(), "req/s");
    if !ctx.trace {
        return Ok(report);
    }

    // Traced phase: restart the server with every request's span tree
    // dumped, and replay the reference step.
    let dump = ctx.state.join("slow.ndjson");
    let _ = std::fs::remove_file(&dump);
    let _ = std::fs::remove_file(dump.with_extension("ndjson.old"));
    let traced_server = Server::spawn(ctx, &ready.registry, "serve-traced", Some(&dump))?;
    warm_up(
        &traced_server,
        &compress_line(&ready.grammar_hex, &warm.program),
        &run_lines[0],
    )?;
    let traced = run_plan(&traced_server, &plan[REF_RATE..=REF_RATE], n_cpu)?;
    traced_server.shutdown()?;
    let traced = &traced[0];
    check_responses(
        &trained,
        std::slice::from_ref(traced),
        &canon,
        &run_images,
        &mut report,
    );
    report.attempted += traced.reqs.len() as u64;

    // Join each request to its span tree through the echoed trace id.
    let mut text = String::new();
    for path in [dump.with_extension("ndjson.old"), dump.clone()] {
        if let Ok(t) = std::fs::read_to_string(&path) {
            text.push_str(&t);
        }
    }
    let mut headers: HashMap<u64, (String, u64)> = HashMap::new();
    let mut events: BTreeMap<u64, Vec<spans::Event>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        match spans::parse_dump_line(line)? {
            DumpLine::Header { trace, op, micros } => {
                headers.insert(trace, (op, micros));
            }
            DumpLine::Event(e) => events.entry(e.trace).or_default().push(e),
        }
    }
    let mut totals = Totals::default();
    let mut handle_of: HashMap<u64, u64> = HashMap::new();
    let mut batch_handle = Vec::new();
    for (trace, evs) in &events {
        let forest = spans::build(evs);
        totals.add(&forest);
        let op_span = |name: &str| {
            forest
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_us())
                .sum::<u64>()
        };
        match headers.get(trace).map(|(op, _)| op.as_str()) {
            Some("run") => {
                handle_of.insert(*trace, op_span("serve.run"));
            }
            // The batch's own `serve.compress` span closes after its
            // trace is retired, so its handling time is the sum of the
            // engine phases under it.
            Some("compress.batch") => batch_handle.push(
                (op_span(names::SPAN_COMPRESS_CANONICALIZE)
                    + op_span("compress.encode")
                    + op_span(names::SPAN_COMPRESS_EMIT)) as f64,
            ),
            _ => {}
        }
    }
    println!(
        "# traced self time by span ({} unpaired marks):",
        totals.unpaired
    );
    print!("{}", totals.table());
    let trace_of = |o: &Outcome| -> Option<u64> {
        let doc = json::parse(o.response.as_deref()?).ok()?;
        u64::from_str_radix(doc.get("trace")?.as_str()?, 16).ok()
    };
    let mut compress_server_us = Vec::new();
    let mut run_queue_wait = Vec::new();
    let mut run_handle = Vec::new();
    for (req, out) in traced.reqs.iter().zip(&traced.outcomes) {
        let Some(id) = trace_of(out) else { continue };
        let Some((_, micros)) = headers.get(&id) else {
            continue;
        };
        match req.op {
            Op::Compress => compress_server_us.push(*micros as f64),
            Op::Run => {
                let handle = handle_of.get(&id).copied().unwrap_or(0) as f64;
                run_handle.push(handle);
                run_queue_wait.push(*micros as f64 - handle);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let d = reference.delta();
    let td = traced.delta();

    report.metric("core.train_s", train_s, "s");
    report.metric(
        "core.grammar_rules",
        grammar_rules(&trained) as f64,
        "count",
    );
    report.metric(
        "core.cache_hit_ratio",
        d.cache_hit_ratio().unwrap_or(0.0),
        "share",
    );
    report.metric(
        "core.fallback_ratio",
        d.counter(names::COMPRESS_FALLBACK_SEGMENTS) as f64
            / d.counter(names::COMPRESS_SEGMENTS).max(1) as f64,
        "share",
    );
    let compress_requests = td.hist(names::SERVE_REQUEST_COMPRESS_MICROS).count.max(1) as f64;
    let parse_us = totals.self_us(names::SPAN_COMPRESS_PARSE) as f64;
    let items = (td.counter(names::EARLEY_ITEMS_PREDICTED)
        + td.counter(names::EARLEY_ITEMS_SCANNED)
        + td.counter(names::EARLEY_ITEMS_COMPLETED)) as f64;
    report.metric("earley.parse_ms", parse_us / 1e3 / compress_requests, "ms");
    report.metric(
        "earley.items_per_token",
        items / td.counter(names::EARLEY_TOKENS).max(1) as f64,
        "count",
    );
    report.metric("earley.ns_per_item", parse_us * 1e3 / items.max(1.0), "ns");
    for (metric, span) in [
        ("core.canonicalize_ms", names::SPAN_COMPRESS_CANONICALIZE),
        ("core.tokenize_ms", names::SPAN_COMPRESS_TOKENIZE),
        ("core.emit_ms", names::SPAN_COMPRESS_EMIT),
    ] {
        report.metric(
            metric,
            totals.self_us(span) as f64 / 1e3 / compress_requests,
            "ms",
        );
    }
    let busy = totals.busy_us().max(1) as f64;
    report.metric("share.earley", parse_us / busy, "share");
    report.metric(
        "share.vm",
        totals.self_us_prefix("vm.") as f64 / busy,
        "share",
    );
    let seg_hits = td.counter(names::VM_SEG_CACHE_HITS) as f64;
    let seg_misses = td.counter(names::VM_SEG_CACHE_MISSES) as f64;
    report.metric(
        "vm.seg_cache_hit_ratio",
        seg_hits / (seg_hits + seg_misses).max(1.0),
        "share",
    );
    for (op, tag) in [(Op::Compress, "compress"), (Op::Run, "run")] {
        let server = reference.server_mean_ms(op);
        report.metric(format!("serve.server_ms.{tag}"), server, "ms");
        report.metric(
            format!("serve.transport_ms.{tag}"),
            reference.client_mean_ms(op) - server,
            "ms",
        );
    }
    let batch_wait_ms = |d: StatsDelta<'_>| d.hist(names::SERVE_BATCH_WAIT_MICROS).mean() / 1e3;
    report.metric("serve.batch_wait_ms", batch_wait_ms(d), "ms");
    report.metric(
        "serve.batch_wait_ms.max_rate",
        batch_wait_ms(top.delta()),
        "ms",
    );
    report.metric(
        "serve.batch_size",
        d.hist(names::SERVE_BATCH_SIZE).mean(),
        "count",
    );
    report.metric(
        "serve.queue_depth",
        top.after.gauge(names::SERVE_QUEUE_DEPTH) as f64,
        "count",
    );
    report.metric(
        "serve.rejected",
        (top.after.counter(names::SERVE_REJECTED_OVERLOAD)
            - steps[0].before.counter(names::SERVE_REJECTED_OVERLOAD)) as f64,
        "count",
    );
    report.metric("serve.tier2_deopts", d.tier2_deopts() as f64, "count");
    report.metric(
        "serve.tier2_deopts.max_rate",
        top.delta().tier2_deopts() as f64,
        "count",
    );
    let compress_handle = mean(&batch_handle) / 1e3;
    report.metric("serve.handle_ms.compress", compress_handle, "ms");
    report.metric("serve.handle_ms.run", mean(&run_handle) / 1e3, "ms");
    report.metric(
        "serve.queue_wait_ms.compress",
        mean(&compress_server_us) / 1e3 - batch_wait_ms(td) - compress_handle,
        "ms",
    );
    report.metric("serve.queue_wait_ms.run", mean(&run_queue_wait) / 1e3, "ms");

    // Codec layers, timed on this workload's own images and lines.
    let responses: Vec<&str> = reference
        .outcomes
        .iter()
        .filter_map(|o| o.response.as_deref())
        .collect();
    let images: Vec<Vec<u8>> = responses
        .iter()
        .filter_map(|r| json::parse(r).ok())
        .filter_map(|d| {
            d.get("image")
                .and_then(Value::as_str)
                .and_then(base64_decode)
        })
        .collect();
    report.metric("bytecode.write_us", write_us, "us");
    report.metric(
        "bytecode.read_us",
        median_us(&images, |b| {
            std::hint::black_box(read_program_tagged(b).expect("returned images read"));
        }),
        "us",
    );
    report.metric(
        "serve.json_parse_us",
        median_us(&responses, |r| {
            std::hint::black_box(json::parse(r).expect("responses parse"));
        }),
        "us",
    );
    let raw_images: Vec<Vec<u8>> = compress_inputs
        .iter()
        .map(|p| write_program_tagged(&p.program, ImageKind::Uncompressed, None))
        .collect();
    report.metric(
        "serve.base64_us",
        median_us(&raw_images, |b| {
            std::hint::black_box(base64_decode(&base64_encode(b)));
        }),
        "us",
    );
    report.metric("harness.late_ms.p99", percentile(&late, 99.0) * 1e3, "ms");
    report.metric(
        "harness.late_ms.max",
        late.iter().copied().fold(0.0, f64::max) * 1e3,
        "ms",
    );
    report.metric("harness.client_cpu_s", client_cpu_s, "s");
    let overhead = |a: Option<Summary>, b: Option<Summary>| match (a, b) {
        (Some(a), Some(b)) => 100.0 * (b.p50 / a.p50 - 1.0),
        _ => 0.0,
    };
    report.metric(
        "telemetry.overhead_pct.compress_p50_ms",
        overhead(
            reference.summary(Op::Compress),
            traced.summary(Op::Compress),
        ),
        "%",
    );
    report.metric(
        "telemetry.overhead_pct.run_p50_ms",
        overhead(reference.summary(Op::Run), traced.summary(Op::Run)),
        "%",
    );
    Ok(report)
}
