//! End-to-end CLI tests, driving the library entry point over real files
//! in a scratch directory.

use pgr_cli::run;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("pgr-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }

    fn write(&self, name: &str, content: &str) -> String {
        let p = self.path(name);
        std::fs::write(&p, content).unwrap();
        p
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

const HELLO: &str = r#"
int main(void) {
    int i;
    for (i = 0; i < 3; i++) putchar('x');
    return 7;
}
"#;

#[test]
fn compile_run_roundtrip() {
    let s = Scratch::new("basic");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    assert_eq!(run(&args(&["compile", &c, "-o", &image])).unwrap(), 0);
    // `run` returns the program's return value as the exit code.
    assert_eq!(run(&args(&["run", &image])).unwrap(), 7);
}

#[test]
fn full_pipeline_through_files() {
    let s = Scratch::new("pipeline");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    let grammar = s.path("hello.pgrg");
    let packed = s.path("hello.pgrc");
    let unpacked = s.path("back.pgrb");

    run(&args(&["compile", &c, "-o", &image])).unwrap();
    run(&args(&["train", &image, "-o", &grammar])).unwrap();
    run(&args(&["compress", &image, "-g", &grammar, "-o", &packed])).unwrap();

    // The compressed image holds less code, and its header names the
    // grammar that decodes it (the content address of the .pgrg file).
    let plain = std::fs::read(&image).unwrap();
    let packed_bytes = std::fs::read(&packed).unwrap();
    let (plain_prog, _, plain_id) = pgr_bytecode::read_program_tagged(&plain).unwrap();
    let (packed_prog, _, packed_id) = pgr_bytecode::read_program_tagged(&packed_bytes).unwrap();
    assert!(packed_prog.code_size() < plain_prog.code_size());
    assert_eq!(plain_id, None);
    let grammar_bytes = std::fs::read(&grammar).unwrap();
    assert_eq!(
        packed_id,
        Some(*pgr::registry::GrammarId::of_bytes(&grammar_bytes).as_bytes())
    );

    // Direct execution of the compressed image matches.
    assert_eq!(run(&args(&["run", &packed, "-g", &grammar])).unwrap(), 7);

    // Decompression restores a runnable uncompressed image.
    run(&args(&[
        "decompress",
        &packed,
        "-g",
        &grammar,
        "-o",
        &unpacked,
    ]))
    .unwrap();
    assert_eq!(run(&args(&["run", &unpacked])).unwrap(), 7);
}

#[test]
fn train_cap_flag_is_honoured() {
    let s = Scratch::new("cap");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    run(&args(&["compile", &c, "-o", &image])).unwrap();
    let small = s.path("small.pgrg");
    let large = s.path("large.pgrg");
    run(&args(&["train", &image, "-o", &small, "--cap", "16"])).unwrap();
    run(&args(&["train", &image, "-o", &large, "--cap", "256"])).unwrap();
    let small_len = std::fs::read(&small).unwrap().len();
    let large_len = std::fs::read(&large).unwrap().len();
    assert!(small_len <= large_len);
}

#[test]
fn cgen_emits_the_three_artifacts() {
    let s = Scratch::new("cgen");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    let grammar = s.path("hello.pgrg");
    run(&args(&["compile", &c, "-o", &image])).unwrap();
    run(&args(&["train", &image, "-o", &grammar])).unwrap();
    let outdir = s.path("gen");
    run(&args(&["cgen", "-g", &grammar, "-o", &outdir])).unwrap();
    for name in ["interp1.c", "tables.c", "interp_nt.c"] {
        let content = std::fs::read_to_string(std::path::Path::new(&outdir).join(name)).unwrap();
        assert!(!content.is_empty(), "{name}");
    }
}

#[test]
fn stats_and_disasm_work() {
    let s = Scratch::new("inspect");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    run(&args(&["compile", &c, "-o", &image])).unwrap();
    assert_eq!(run(&args(&["stats", &image])).unwrap(), 0);
    assert_eq!(run(&args(&["disasm", &image])).unwrap(), 0);
}

#[test]
fn errors_are_reported_not_panicked() {
    let s = Scratch::new("errors");
    // Unknown command.
    assert!(run(&args(&["frobnicate"])).is_err());
    // Missing file.
    assert!(run(&args(&["run", &s.path("absent.pgrb")])).is_err());
    // Bad C.
    let bad = s.write("bad.c", "int main( {");
    assert!(run(&args(&["compile", &bad, "-o", &s.path("x.pgrb")])).is_err());
    // Compressed image without a grammar.
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    let grammar = s.path("g.pgrg");
    let packed = s.path("hello.pgrc");
    run(&args(&["compile", &c, "-o", &image])).unwrap();
    run(&args(&["train", &image, "-o", &grammar])).unwrap();
    run(&args(&["compress", &image, "-g", &grammar, "-o", &packed])).unwrap();
    assert!(run(&args(&["run", &packed])).is_err());
    // Disassembling a compressed image is refused.
    assert!(run(&args(&["disasm", &packed])).is_err());
    // Training on compressed images is refused.
    assert!(run(&args(&["train", &packed, "-o", &s.path("y.pgrg")])).is_err());
    // A rule cap above 256 is refused before training, and writes nothing.
    let capped = s.path("cap300.pgrg");
    let err = run(&args(&["train", &image, "-o", &capped, "--cap", "300"])).unwrap_err();
    assert!(err.contains("rule cap 300 is above 256"), "{err}");
    assert!(!std::path::Path::new(&capped).exists());
    // Garbage grammar file.
    let junk = s.write("junk.pgrg", "not a grammar");
    assert!(run(&args(&[
        "compress",
        &image,
        "-g",
        &junk,
        "-o",
        &s.path("z.pgrc")
    ]))
    .is_err());
    // A well-formed grammar file the compressor cannot use (`<x> ::= <v>`
    // is no sentential form of `<x>`) is refused, naming the rule, by
    // `compress -g` and by the registry.
    let ig = pgr_grammar::InitialGrammar::build();
    let mut grammar = ig.grammar.clone();
    let rule = vec![pgr_grammar::Symbol::N(ig.nt_v)];
    grammar.add_rule(ig.nt_x, rule, pgr_grammar::RuleOrigin::Original);
    let bad = s.path("bad.pgrg");
    let file = pgr_grammar::GrammarFile::new(grammar, ig.nt_start, ig.nt_byte);
    std::fs::write(&bad, file.to_bytes()).unwrap();
    let refused = "rule 3 of <x> is not a sentential form of <x>";
    let out = s.path("bad.pgrc");
    let err = run(&args(&["compress", &image, "-g", &bad, "-o", &out])).unwrap_err();
    assert!(err.contains(refused), "{err}");
    let reg = s.path("reg");
    let err = run(&args(&["registry", "add", &bad, "--registry", &reg])).unwrap_err();
    assert!(err.contains(refused), "{err}");
}

#[test]
fn verify_refuses_an_image_laid_out_past_the_address_space() {
    // A bss near 4 GiB would wrap the VM's 32-bit layout: `pgr verify`
    // names the overflow for either kind of image, grammar or not.
    let s = Scratch::new("layout");
    let mut program =
        pgr_bytecode::asm::assemble("proc main frame=0 args=0\n\tRETV\nendproc\nentry main\n")
            .unwrap();
    program.bss_size = u32::MAX - 8;
    for (name, kind) in [
        ("wide.pgrb", pgr_bytecode::ImageKind::Uncompressed),
        ("wide.pgrc", pgr_bytecode::ImageKind::Compressed),
    ] {
        let path = s.path(name);
        std::fs::write(&path, pgr_bytecode::write_program(&program, kind)).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_pgr"))
            .args(["verify", &path])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{name}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("past the 32-bit address space"),
            "{name}: {stderr}"
        );
    }
}

#[test]
fn error_chains_print_each_sentence_once() {
    let s = Scratch::new("chains");
    let image = |name: &str| {
        let c = s.write(
            &format!("{name}.c"),
            pgr::corpus::sample_source(name).unwrap(),
        );
        let img = s.path(&format!("{name}.pgrb"));
        let grammar = s.path(&format!("{name}.pgrg"));
        run(&args(&["compile", &c, "-o", &img])).unwrap();
        run(&args(&["train", &img, "-o", &grammar])).unwrap();
        (img, grammar)
    };
    let (sieve, sieve_grammar) = image("sieve");
    let (_, crc32_grammar) = image("crc32");
    let packed = s.path("sieve.pgrc");
    run(&args(&[
        "compress",
        &sieve,
        "-g",
        &sieve_grammar,
        "-o",
        &packed,
    ]))
    .unwrap();
    // Every layer of the decompression failure quotes the next one.
    let back = s.path("back.pgrb");
    let err = run(&args(&[
        "decompress",
        &packed,
        "-g",
        &crc32_grammar,
        "-o",
        &back,
    ]))
    .unwrap_err();
    assert_eq!(err, "decompression failed: main: step 3: N2 has no rule 10");
    let capped = s.path("cap300.pgrg");
    let err = run(&args(&["train", &sieve, "-o", &capped, "--cap", "300"])).unwrap_err();
    assert_eq!(
        err,
        "training failed: rule cap 300 is above 256: rule indices must fit one byte"
    );
}

/// A program that never halts: a `run` of it ends at its deadline (or
/// when its fuel runs out).
const SPIN: &str =
    "proc main frame=0 args=0\n\tlabel 0\n\tLIT1 1\n\tBrTrue 0\n\tRETV\nendproc\nentry main\n";

#[test]
fn serve_flags_bound_the_queue_and_every_response_is_traced() {
    // One worker and a two-request queue, set on the command line. A
    // spinning `run` holds the worker; a pipelined burst of eight
    // compresses then splits into the two the queue admits and six
    // in-band `overloaded` answers, each with a 16-hex-digit trace id,
    // while `stats` and `shutdown` are admitted past the bound.
    let s = Scratch::new("overload");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    let grammar = s.path("hello.pgrg");
    let reg = s.path("reg");
    run(&args(&["compile", &c, "-o", &image])).unwrap();
    run(&args(&["train", &image, "-o", &grammar])).unwrap();
    let id = pgr_registry::Registry::open(&reg)
        .unwrap()
        .store_bytes(&std::fs::read(&grammar).unwrap(), "hello")
        .unwrap()
        .id
        .to_hex();
    let socket = s.path("pgr.sock");
    let serve = args(&[
        "serve",
        "--socket",
        &socket,
        "--registry",
        &reg,
        "--workers",
        "1",
        "--max-queue",
        "2",
    ]);
    let server = std::thread::spawn(move || run(&serve));
    let deadline = Instant::now() + Duration::from_secs(30);
    let connect = || loop {
        match UnixStream::connect(&socket) {
            Ok(stream) => {
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                break stream;
            }
            Err(e) if Instant::now() < deadline => {
                assert!(!server.is_finished(), "serve exited: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("serve never listened on {socket}: {e}"),
        }
    };
    let read = |reader: &mut BufReader<UnixStream>, what: &str| {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let value = pgr_telemetry::json::parse(&line)
            .unwrap_or_else(|e| panic!("{what}: {e:?} in {line:?}"));
        let trace = value.get("trace").and_then(|t| t.as_str()).unwrap_or("");
        assert!(
            trace.len() == 16 && trace.bytes().all(|b| b.is_ascii_hexdigit()),
            "{what} carries no 16-hex-digit trace id: {line}"
        );
        value
    };

    let spin = pgr_bytecode::write_program(
        &pgr_bytecode::asm::assemble(SPIN).unwrap(),
        pgr_bytecode::ImageKind::Uncompressed,
    );
    let holder = connect();
    (&holder)
        .write_all(
            format!(
                "{{\"op\":\"run\",\"timeout_ms\":1000,\"image\":\"{}\"}}\n",
                pgr_registry::base64_encode(&spin)
            )
            .as_bytes(),
        )
        .unwrap();
    // A head start for the worker, so the spin is running, not queued,
    // when the burst lands.
    std::thread::sleep(Duration::from_millis(100));

    let stream = connect();
    let encoded = pgr_registry::base64_encode(&std::fs::read(&image).unwrap());
    let request = format!("{{\"op\":\"compress\",\"grammar\":\"{id}\",\"image\":\"{encoded}\"}}\n");
    let burst = request.repeat(8) + "{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n";
    (&stream).write_all(burst.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let (mut ok, mut overloaded) = (0, 0);
    for i in 0..8 {
        let value = read(&mut reader, &format!("response {i}"));
        if value.get("ok").and_then(|v| v.as_bool()) == Some(true) {
            ok += 1;
        } else {
            assert_eq!(
                value.get("error").and_then(|e| e.as_str()),
                Some("overloaded")
            );
            overloaded += 1;
        }
    }
    assert_eq!((ok, overloaded), (2, 6));
    let stats = read(&mut reader, "stats");
    assert_eq!(
        stats
            .get("window")
            .and_then(|w| w.get("rejected"))
            .and_then(|r| r.as_u64()),
        Some(6),
        "{stats:?}"
    );
    let down = read(&mut reader, "shutdown");
    assert_eq!(down.get("ok").and_then(|v| v.as_bool()), Some(true));
    let held = read(&mut BufReader::new(holder), "spinning run");
    assert_eq!(held.get("ok").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(server.join().unwrap(), Ok(0));
}

#[test]
fn timings_flag_prints_measured_phases() {
    // `--timings` gives the engine an enabled recorder, which times the
    // phases without changing the compressed bytes.
    let s = Scratch::new("timings");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    let grammar = s.path("hello.pgrg");
    run(&args(&["compile", &c, "-o", &image])).unwrap();
    run(&args(&["train", &image, "-o", &grammar])).unwrap();
    let plain = s.path("plain.pgrc");
    run(&args(&["compress", &image, "-g", &grammar, "-o", &plain])).unwrap();
    let timed = s.path("timed.pgrc");
    let out = Command::new(env!("CARGO_BIN_EXE_pgr"))
        .args([
            "compress",
            &image,
            "-g",
            &grammar,
            "-o",
            &timed,
            "--timings",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    let phases = stderr
        .lines()
        .find(|l| l.starts_with("phases: canonicalize "))
        .unwrap_or_else(|| panic!("no phase line in {stderr:?}"));
    assert!(!phases.contains("parse 0ns"), "{phases}");
    assert_eq!(
        std::fs::read(&timed).unwrap(),
        std::fs::read(&plain).unwrap()
    );
}

#[test]
fn unknown_flags_are_refused_by_name() {
    let s = Scratch::new("flags");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    let grammar = s.path("g.pgrg");
    run(&args(&["compile", &c, "-o", &image])).unwrap();
    run(&args(&["train", &image, "-o", &grammar])).unwrap();
    // A deleted flag's value used to be taken for a second image.
    let packed = s.path("hello.pgrc");
    let err = run(&args(&[
        "compress",
        &image,
        "--earley-budget",
        "2",
        "-g",
        &grammar,
        "-o",
        &packed,
    ]))
    .unwrap_err();
    assert!(err.contains("unknown flag --earley-budget"), "{err}");
    assert!(!std::path::Path::new(&packed).exists());
    // `serve` never read its positionals, so it used to start anyway; it
    // must refuse before binding its socket.
    let socket = s.path("pgr.sock");
    let err = run(&args(&[
        "serve",
        "--socket",
        &socket,
        "--registry",
        &s.path("reg"),
        "--max-budget",
        "1000000,10000",
    ]))
    .unwrap_err();
    assert!(err.contains("unknown flag --max-budget"), "{err}");
    assert!(!std::path::Path::new(&socket).exists());
    // Nor does it take the flags of the compress batcher it no longer has.
    for (flag, value) in [("--threads", "2"), ("--batch-window-us", "200")] {
        let out = Command::new(env!("CARGO_BIN_EXE_pgr"))
            .args(["serve", "--socket", &socket, "--registry", &s.path("reg")])
            .args([flag, value])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("serve: unknown flag {flag}")),
            "{stderr}"
        );
        assert!(!std::path::Path::new(&socket).exists());
    }
    // A valued flag with nothing after it is named too.
    let err = run(&args(&["run", &image, "--stdin"])).unwrap_err();
    assert!(err.contains("--stdin needs a value"), "{err}");
}

#[test]
fn stdin_flag_feeds_getchar() {
    let s = Scratch::new("stdin");
    let c = s.write(
        "echo.c",
        "int main(void) { int c; int n = 0; \
         while ((c = getchar()) != -1) { putchar(c); n++; } return n; }",
    );
    let image = s.path("echo.pgrb");
    run(&args(&["compile", &c, "-o", &image])).unwrap();
    let code = run(&args(&["run", &image, "--stdin", "abc"])).unwrap();
    assert_eq!(code, 3);
}

#[test]
fn cgen_with_image_emits_packaging() {
    let s = Scratch::new("package");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    let grammar = s.path("hello.pgrg");
    run(&args(&["compile", &c, "-o", &image])).unwrap();
    run(&args(&["train", &image, "-o", &grammar])).unwrap();
    let outdir = s.path("gen");
    run(&args(&[
        "cgen", "-g", &grammar, "-p", &image, "-o", &outdir,
    ]))
    .unwrap();
    let pkg = std::fs::read_to_string(std::path::Path::new(&outdir).join("package.c")).unwrap();
    assert!(pkg.contains("proc _procs[]"));
    assert!(pkg.contains("void *_globals[]"));
    assert!(pkg.contains("int main(unsigned arg1)"));
}

#[test]
fn metrics_json_emits_documented_keys() {
    use pgr_telemetry::{json, names};

    let s = Scratch::new("metrics");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    let grammar = s.path("hello.pgrg");
    let packed = s.path("hello.pgrc");
    let unpacked = s.path("back.pgrb");
    run(&args(&["compile", &c, "-o", &image])).unwrap();

    let counter = |doc: &json::Value, key: &str| {
        doc.as_obj()
            .and_then(|o| o.get("counters"))
            .and_then(json::Value::as_obj)
            .and_then(|o| o.get(key))
            .and_then(json::Value::as_u64)
    };
    let has_span = |doc: &json::Value, key: &str| {
        doc.as_obj()
            .and_then(|o| o.get("spans"))
            .and_then(json::Value::as_obj)
            .is_some_and(|o| o.contains_key(key))
    };
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap();
        pgr_cli::check_metrics_json(&text).unwrap();
        json::parse(&text).unwrap()
    };

    // Train: trainer + validator counters, span tree under "train".
    let train_json = s.path("train.json");
    run(&args(&[
        "train",
        &image,
        "-o",
        &grammar,
        "--metrics",
        "json",
        "--metrics-out",
        &train_json,
    ]))
    .unwrap();
    let doc = load(&train_json);
    assert_eq!(counter(&doc, names::TRAIN_PROGRAMS), Some(1));
    assert!(counter(&doc, names::TRAIN_SEGMENTS).unwrap() > 0);
    assert!(counter(&doc, names::BYTECODE_VALIDATE_INSNS).unwrap() > 0);
    assert!(has_span(&doc, "train.expand"));

    // Compress: engine and tiler counters and phase spans.
    let compress_json = s.path("compress.json");
    run(&args(&[
        "compress",
        &image,
        "-g",
        &grammar,
        "-o",
        &packed,
        "--metrics",
        "json",
        "--metrics-out",
        &compress_json,
    ]))
    .unwrap();
    let doc = load(&compress_json);
    assert_eq!(counter(&doc, names::COMPRESS_CALLS), Some(1));
    let segments = counter(&doc, names::COMPRESS_SEGMENTS).unwrap();
    assert!(segments > 0);
    assert_eq!(counter(&doc, names::TILER_SEGMENTS), Some(segments));
    assert!(counter(&doc, names::TILER_CANDIDATES).unwrap() > 0);
    for span in [
        names::SPAN_COMPRESS_CANONICALIZE,
        names::SPAN_COMPRESS_TOKENIZE,
        names::SPAN_COMPRESS_PARSE,
        names::SPAN_COMPRESS_EMIT,
    ] {
        assert!(has_span(&doc, span), "missing span {span}");
    }

    // Decompress: round-trip counters.
    let decompress_json = s.path("decompress.json");
    run(&args(&[
        "decompress",
        &packed,
        "-g",
        &grammar,
        "-o",
        &unpacked,
        "--metrics",
        "json",
        "--metrics-out",
        &decompress_json,
    ]))
    .unwrap();
    let doc = load(&decompress_json);
    assert_eq!(counter(&doc, names::DECOMPRESS_CALLS), Some(1));
    assert!(counter(&doc, names::DECOMPRESS_BYTES).unwrap() > 0);
    assert!(has_span(&doc, names::SPAN_DECOMPRESS));

    // Run (compressed image): VM dispatch family and walk counters.
    let run_json = s.path("run.json");
    assert_eq!(
        run(&args(&[
            "run",
            &packed,
            "-g",
            &grammar,
            "--metrics",
            "json",
            "--metrics-out",
            &run_json,
        ]))
        .unwrap(),
        7
    );
    let doc = load(&run_json);
    assert!(counter(&doc, names::VM_STEPS).unwrap() > 0);
    assert!(counter(&doc, names::VM_RULES_WALKED).unwrap() > 0);
    assert!(
        counter(&doc, &names::vm_dispatch("RETI")).is_some()
            || counter(&doc, &names::vm_dispatch("RETU")).is_some()
    );

    // metrics-check accepts all four documents via the CLI too.
    for path in [&train_json, &compress_json, &decompress_json, &run_json] {
        assert_eq!(run(&args(&["metrics-check", path])).unwrap(), 0);
    }
    // ...and rejects garbage.
    let junk = s.write("junk.json", "{\"schema\": \"nope\"}");
    assert!(run(&args(&["metrics-check", &junk])).is_err());

    // --metrics human to stderr must not interfere with the exit code.
    assert_eq!(
        run(&args(&["run", &image, "--metrics", "human"])).unwrap(),
        7
    );

    // A bad mode is a usage error.
    assert!(run(&args(&["run", &image, "--metrics", "xml"])).is_err());
}

#[test]
fn registry_workflow_resolves_grammars_by_id() {
    let s = Scratch::new("registry");
    let c = s.write("hello.c", HELLO);
    let image = s.path("hello.pgrb");
    let grammar = s.path("hello.pgrg");
    let packed = s.path("hello.pgrc");
    let unpacked = s.path("back.pgrb");
    let reg = s.path("reg");

    run(&args(&["compile", &c, "-o", &image])).unwrap();
    run(&args(&["train", &image, "-o", &grammar])).unwrap();
    run(&args(&[
        "registry",
        "add",
        &grammar,
        "--registry",
        &reg,
        "--label",
        "cli test",
    ]))
    .unwrap();
    run(&args(&["registry", "list", "--registry", &reg])).unwrap();

    let grammar_bytes = std::fs::read(&grammar).unwrap();
    let id = pgr::registry::GrammarId::of_bytes(&grammar_bytes).to_hex();
    let id_spec = format!("id:{}", &id[..12]); // unique prefix resolution

    // compress with an id: spec instead of a path.
    run(&args(&[
        "compress",
        &image,
        "-g",
        &id_spec,
        "-o",
        &packed,
        "--registry",
        &reg,
    ]))
    .unwrap();

    // decompress / run / verify with NO -g at all: the image header
    // names the grammar, the registry supplies it.
    run(&args(&[
        "decompress",
        &packed,
        "-o",
        &unpacked,
        "--registry",
        &reg,
    ]))
    .unwrap();
    assert_eq!(run(&args(&["run", &unpacked])).unwrap(), 7);
    assert_eq!(
        run(&args(&["run", &packed, "--registry", &reg])).unwrap(),
        7
    );
    assert_eq!(
        run(&args(&["verify", &packed, "--registry", &reg])).unwrap(),
        0
    );

    // The registry-resolved decompression matches the path-based one.
    let via_path = s.path("back2.pgrb");
    run(&args(&[
        "decompress",
        &packed,
        "-g",
        &grammar,
        "-o",
        &via_path,
    ]))
    .unwrap();
    assert_eq!(
        std::fs::read(&unpacked).unwrap(),
        std::fs::read(&via_path).unwrap(),
        "registry-resolved and path-based flows must agree byte for byte"
    );

    // Without a registry, the header id alone is a clear error.
    let err = run(&args(&["decompress", &packed, "-o", &s.path("x.pgrb")])).unwrap_err();
    assert!(err.contains("registry"), "unhelpful error: {err}");

    // rm + gc.
    run(&args(&[
        "registry",
        "rm",
        &id_spec["id:".len()..],
        "--registry",
        &reg,
    ]))
    .unwrap();
    let err = run(&args(&[
        "compress",
        &image,
        "-g",
        &id_spec,
        "-o",
        &packed,
        "--registry",
        &reg,
    ]))
    .unwrap_err();
    assert!(err.contains("no grammar"), "unhelpful error: {err}");
    run(&args(&["registry", "gc", "--registry", &reg])).unwrap();
}

#[test]
fn trace_out_writes_perfetto_loadable_span_trees() {
    use pgr_telemetry::{json, trace};

    let s = Scratch::new("trace");
    let src = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../corpus/src/programs/eightq.c"
    );
    let image = s.path("8q.pgrb");
    let grammar = s.path("8q.pgrg");
    let packed = s.path("8q.pgrc");
    run(&args(&["compile", src, "-o", &image])).unwrap();
    run(&args(&["train", &image, "-o", &grammar])).unwrap();

    // Compress with two workers: a root span on the main lane plus a
    // lane per worker, all properly nested and all carrying one trace
    // id.
    let ctrace = s.path("compress-trace.json");
    run(&args(&[
        "compress",
        &image,
        "-g",
        &grammar,
        "-o",
        &packed,
        "--threads",
        "2",
        // Small batches so both workers demonstrably get work (and
        // lanes) even on the tiny 8q image.
        "--batch-bytes",
        "64",
        "--trace-out",
        &ctrace,
    ]))
    .unwrap();
    let text = std::fs::read_to_string(&ctrace).unwrap();
    let summary = trace::validate_chrome_trace(&text).expect("compress trace is well formed");
    assert!(summary.events > 0, "empty compress trace");
    assert!(
        summary.lanes >= 3,
        "main lane + 2 worker lanes expected: {summary:?}"
    );
    assert!(summary.max_depth >= 2, "flat compress trace: {summary:?}");

    // Every event carries the same nonzero trace id.
    let doc = json::parse(&text).unwrap();
    let events = doc.get("traceEvents").unwrap();
    let ids: std::collections::BTreeSet<String> = events
        .as_arr()
        .unwrap()
        .iter()
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(json::Value::as_str)
                .expect("event lacks args.trace")
                .to_string()
        })
        .collect();
    assert_eq!(ids.len(), 1, "more than one trace id in one command");
    assert_ne!(ids.iter().next().unwrap(), "0000000000000000");

    // Run the compressed 8-queens image: the VM's interpreter thread is
    // its own lane, and recursive vm.call spans nest at least three
    // deep (vm.run -> vm.call main -> vm.call <helper>).
    let rtrace = s.path("run-trace.json");
    let code = run(&args(&[
        "run",
        &packed,
        "-g",
        &grammar,
        "--trace-out",
        &rtrace,
    ]))
    .unwrap();
    assert_eq!(code, 92, "8q must still solve 92 boards");
    let text = std::fs::read_to_string(&rtrace).unwrap();
    let summary = trace::validate_chrome_trace(&text).expect("run trace is well formed");
    assert!(
        summary.lanes >= 2,
        "main + VM interpreter lanes expected: {summary:?}"
    );
    assert!(
        summary.max_depth >= 3,
        "recursive vm.call spans should nest >= 3 deep: {summary:?}"
    );
    let names: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"name\""))
        .flat_map(|l| {
            l.split("\"name\":\"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap())
        })
        .collect();
    assert!(names.contains(&"pgr.run"));
    assert!(names.contains(&"vm.run"));
    assert!(names.iter().any(|n| n.starts_with("vm.call ")));
}

#[test]
fn render_top_formats_a_stats_response() {
    let response = concat!(
        "{\"ok\":true,\"metrics\":{\"schema\":\"pgr-metrics/2\",\"counters\":{},",
        "\"gauges\":{},\"histograms\":{\"serve.request.compress.micros\":",
        "{\"count\":4,\"sum\":100,\"min\":10,\"max\":40,\"p50\":20,\"p90\":38,",
        "\"p95\":39,\"p99\":40}},\"spans\":{}},",
        "\"window\":{\"window_secs\":60,\"requests\":4,\"errors\":1,\"rps\":0.067,",
        "\"error_rate\":0.25,\"ops\":{\"compress\":{\"count\":4,\"p50\":20,",
        "\"p90\":38,\"p95\":39,\"p99\":40,\"max\":40}},\"grammars\":{},",
        "\"tier2_compiled\":3},",
        "\"uptime_secs\":42,\"trace\":\"00000000000000aa\"}",
    );
    let screen = pgr_cli::render_top(response).expect("stats response renders");
    assert!(screen.contains("uptime 42s"), "{screen}");
    assert!(screen.contains("compress"), "{screen}");
    assert!(screen.contains("rps 0.067"), "{screen}");
    assert!(screen.contains("segments compiled 3"), "{screen}");
    // Windowed and lifetime p50 both present on the compress row.
    let row = screen
        .lines()
        .find(|l| l.starts_with("compress"))
        .expect("compress row");
    assert!(row.matches("20").count() >= 2, "{row}");

    // Error responses surface as errors, not empty screens.
    let err = pgr_cli::render_top("{\"ok\":false,\"error\":\"nope\"}").unwrap_err();
    assert!(err.contains("nope"), "{err}");
    assert!(pgr_cli::render_top("not json").is_err());
}

/// Read one line from `reader`; the caller's read timeout turns a hang
/// into a test failure.
fn read_request(reader: &mut BufReader<UnixStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("request line arrives");
    assert!(
        line.ends_with('\n'),
        "connection closed mid-request: {line:?}"
    );
    line
}

#[test]
fn call_retries_an_overloaded_answer_no_sooner_than_its_hint() {
    const HINT_MS: u64 = 80;
    let s = Scratch::new("call");
    let socket = s.path("fake.sock");
    let listener = UnixListener::bind(&socket).unwrap();
    // A stand-in server: the first request is answered `overloaded` with
    // a retry hint, the retry `ok`. It reports how long the retry took.
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        read_request(&mut reader);
        let rejected_at = Instant::now();
        writeln!(
            writer,
            "{{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":{HINT_MS}}}"
        )
        .unwrap();
        read_request(&mut reader);
        let waited = rejected_at.elapsed();
        writeln!(writer, "{{\"ok\":true}}").unwrap();
        waited
    });
    let out = Command::new(env!("CARGO_BIN_EXE_pgr"))
        .args(["call", "--socket", &socket, "--retries", "4"])
        .args(["--backoff-ms", "20", "--seed", "7", "--verbose"])
        .arg(r#"{"op":"stats"}"#)
        .output()
        .unwrap();
    let waited = server.join().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert_eq!(stdout.trim(), r#"{"ok":true}"#);
    assert!(
        stderr.contains("2 attempt(s), 1 retr(ies), 1 connect(s), 1 overloaded"),
        "{stderr}"
    );
    assert!(
        waited >= Duration::from_millis(HINT_MS),
        "retried {waited:?} after the rejection, under its {HINT_MS} ms hint"
    );
}

#[test]
fn chaos_proxy_with_every_fault_rate_zero_forwards_a_line() {
    let s = Scratch::new("proxy");
    let upstream = s.path("upstream.sock");
    let listen = s.path("proxy.sock");
    let listener = UnixListener::bind(&upstream).unwrap();
    // An upstream that echoes one line back.
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let line = read_request(&mut BufReader::new(stream));
        writer.write_all(line.as_bytes()).unwrap();
    });
    let mut proxy = Command::new(env!("CARGO_BIN_EXE_pgr"))
        .args(["chaos-proxy", "--listen", &listen, "--upstream", &upstream])
        .args([
            "--seed",
            "42",
            "--partial-per-1024",
            "0",
            "--reset-per-1024",
            "0",
        ])
        .args(["--stall-per-1024", "0", "--garbage-per-1024", "0"])
        // Killed below once the line is back; the bound ends it if the
        // test fails first.
        .args(["--duration-ms", "60000"])
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let stream = loop {
        match UnixStream::connect(&listen) {
            Ok(stream) => break stream,
            Err(e) if Instant::now() < deadline => {
                assert!(proxy.try_wait().unwrap().is_none(), "proxy exited: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("proxy never listened on {listen}: {e}"),
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let request = "{\"op\":\"stats\",\"pad\":\"a line worth forwarding\"}\n";
    (&stream).write_all(request.as_bytes()).unwrap();
    let echoed = read_request(&mut BufReader::new(stream));
    let _ = proxy.kill();
    proxy.wait().unwrap();
    server.join().unwrap();
    assert_eq!(echoed, request);
}
