#!/usr/bin/env python3
"""Drive a running `pgr serve` instance end to end, stdlib-only (CI
runners have no extra packages).

    python3 ci/serve_smoke.py [--server-pid PID --max-hwm-kib KIB] \
        <socket> <grammar-id> <image.pgrb> [slow.ndjson]

Speaks the newline-delimited JSON protocol from pgr-registry's `serve`
module and checks the contract the docs promise:

  * an unknown op fails in-band without dropping the connection, and
    the error payload carries the request's trace id and elapsed micros,
  * every response (ok or not) carries a 16-hex-digit trace id,
  * compress -> decompress round-trips byte-identical on canonical
    images (the compressor canonicalizes, so the first round-trip maps
    the input to its canonical form and every later one is an identity),
  * the compressed image runs via its embedded grammar id alone
    (no "grammar" field in the request) with the same exit code and
    output as the uncompressed original,
  * stats reports a populated serve.request.<op>.micros histogram with
    quantile fields (p50/p90/p95/p99) for every op exercised, plus the
    sliding-window aggregates and uptime,
  * stats exposes the reactor's live queue depth and resident engine
    count, and the batching histograms (serve.batch.size,
    serve.batch.wait_micros) are populated once a compress has run,
  * with --server-pid and --max-hwm-kib, the server's peak resident
    set (VmHWM in /proc/<pid>/status), read after five plain and
    compressed run round-trips and before shutdown, is at most the
    ceiling,
  * shutdown is acknowledged before the server exits,
  * when a slow-trace path is given (the server ran with --slow-ms 0),
    the NDJSON dump exists, every line parses, and the header trace ids
    include the ids the client saw in its responses.

The caller is expected to validate the server's emitted metrics file
against schema/metrics.schema.json afterwards.
"""

import base64
import json
import socket
import sys


def fail(msg):
    print(f"serve smoke failure: {msg}", file=sys.stderr)
    sys.exit(1)


class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def call(self, **request):
        self.sock.sendall((json.dumps(request) + "\n").encode())
        line = self.reader.readline()
        if not line:
            fail(f"connection closed during {request.get('op')!r}")
        return json.loads(line)


TRACES = []


def trace_of(resp):
    """The response's trace id, checked for shape and collected."""
    trace = resp.get("trace")
    if not isinstance(trace, str) or len(trace) != 16:
        fail(f"response lacks a 16-hex trace id: {resp}")
    try:
        int(trace, 16)
    except ValueError:
        fail(f"trace id is not hex: {trace!r}")
    TRACES.append(trace)
    return trace


def check_slow_trace(path):
    """Every slow-log line parses; headers announce their event counts
    and cover the trace ids the client saw in its responses."""
    try:
        text = open(path).read()
    except OSError as e:
        fail(f"slow-trace dump missing: {e}")
    headers, pending = [], 0
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            value = json.loads(line)
        except ValueError as e:
            fail(f"{path}:{lineno}: not JSON ({e})")
        if pending == 0:
            for key in ("trace", "op", "micros", "events"):
                if key not in value:
                    fail(f"{path}:{lineno}: header lacks {key!r}: {value}")
            headers.append(value["trace"])
            pending = value["events"]
        else:
            if "name" not in value or "ph" not in value:
                fail(f"{path}:{lineno}: span event lacks name/ph: {value}")
            pending -= 1
    if pending:
        fail(f"{path} ends mid-request ({pending} events short)")
    missing = [t for t in TRACES if t not in headers]
    if missing:
        fail(f"response traces absent from slow log: {missing}")
    print(f"serve smoke: slow-trace dump ok ({len(headers)} request trees)")


def check_peak_rss(pid, ceiling_kib):
    """Fail when the server's peak resident set is above the ceiling."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        fields = dict(line.split(":", 1) for line in status if ":" in line)
    if "VmHWM" not in fields:
        fail(f"/proc/{pid}/status has no VmHWM line")
    kib = int(fields["VmHWM"].split()[0])
    print(f"serve smoke: server VmHWM {kib} KiB (ceiling {ceiling_kib} KiB)")
    if kib > ceiling_kib:
        fail(f"server peak RSS {kib} KiB is above the {ceiling_kib} KiB ceiling")


def main():
    argv = sys.argv[1:]
    gate = {}
    while argv and argv[0] in ("--server-pid", "--max-hwm-kib") and len(argv) > 1:
        gate[argv[0]] = int(argv[1])
        argv = argv[2:]
    if len(argv) not in (3, 4) or len(gate) not in (0, 2):
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path, grammar_id, image_path = argv[:3]
    slow_trace = argv[3] if len(argv) == 4 else None
    original = open(image_path, "rb").read()
    client = Client(path)

    bad = client.call(op="frobnicate")
    if bad.get("ok") is not False or "error" not in bad:
        fail(f"unknown op did not fail in-band: {bad}")
    trace_of(bad)
    if not isinstance(bad.get("micros"), int):
        fail(f"error payload lacks elapsed micros: {bad}")

    def compress(image_b64):
        packed = client.call(op="compress", grammar=grammar_id, image=image_b64)
        if not packed.get("ok"):
            fail(f"compress: {packed.get('error')}")
        if packed.get("grammar") != grammar_id:
            fail(f"compress stamped {packed.get('grammar')!r}, expected {grammar_id!r}")
        trace_of(packed)
        return packed

    def decompress(image_b64):
        # No "grammar" field: the server must resolve it from the
        # grammar id embedded in the compressed image's header.
        back = client.call(op="decompress", image=image_b64)
        if not back.get("ok"):
            fail(f"decompress: {back.get('error')}")
        trace_of(back)
        return back["image"]

    packed = compress(base64.b64encode(original).decode())
    canonical = decompress(packed["image"])
    again = decompress(compress(canonical)["image"])
    if again != canonical:
        fail("round-trip on the canonical image is not byte-identical")

    def run(image_b64):
        ran = client.call(op="run", image=image_b64)
        if not ran.get("ok"):
            fail(f"run: {ran.get('error')}")
        trace_of(ran)
        return ran

    images = (base64.b64encode(original).decode(), packed["image"])
    # With the memory gate on, the pair runs five times, so every worker
    # that serves a run reaches its steady footprint before the gate.
    for _ in range(5 if gate else 1):
        plain, compressed = (run(image) for image in images)
        if plain.get("exit_code") != 0:
            fail(f"uncompressed run exit code {plain.get('exit_code')!r}")
        for key in ("exit_code", "output"):
            if plain.get(key) != compressed.get(key):
                fail(
                    f"compressed run diverged on {key}: "
                    f"{plain.get(key)!r} vs {compressed.get(key)!r}"
                )

    stats = client.call(op="stats")
    if not stats.get("ok"):
        fail(f"stats: {stats.get('error')}")
    trace_of(stats)
    if not isinstance(stats.get("uptime_secs"), int):
        fail(f"stats lacks uptime_secs: {list(stats)}")
    histograms = stats["metrics"]["histograms"]
    for op in ("compress", "decompress", "run", "stats"):
        name = f"serve.request.{op}.micros"
        hist = histograms.get(name, {})
        if hist.get("count", 0) < 1:
            fail(f"stats lacks a populated {name} histogram")
        for q in ("p50", "p90", "p95", "p99"):
            if not isinstance(hist.get(q), int):
                fail(f"{name} lacks quantile {q}: {hist}")

    # Reactor surface: live queue depth and resident engines, plus the
    # batching histograms (every compress passes through the batcher, so
    # a singleton dispatch still records a batch of one).
    for field in ("queue_depth", "engines"):
        if not isinstance(stats.get(field), int):
            fail(f"stats lacks {field}: {list(stats)}")
    if stats["engines"] < 1:
        fail(f"stats reports no resident engines after compressing: {stats['engines']}")
    for name in ("serve.batch.size", "serve.batch.wait_micros"):
        hist = histograms.get(name)
        if not isinstance(hist, dict):
            fail(f"stats lacks the {name} histogram")
        if name == "serve.batch.size" and hist.get("count", 0) < 1:
            fail(f"{name} never recorded a dispatch: {hist}")

    window = stats.get("window")
    if not isinstance(window, dict):
        fail(f"stats lacks a window object: {list(stats)}")
    if window.get("requests", 0) < 1:
        fail(f"window saw no requests: {window}")
    if not isinstance(window.get("rejected"), int):
        fail(f"window lacks a rejected counter: {window}")
    for agg in ("batch_size", "batch_wait"):
        entry = window.get(agg)
        if not isinstance(entry, dict) or not isinstance(entry.get("count"), int):
            fail(f"window lacks a {agg} aggregate: {window}")
    for op, entry in window.get("ops", {}).items():
        for field in ("count", "p50", "p90", "p95", "p99", "max"):
            if not isinstance(entry.get(field), int):
                fail(f"window op {op!r} lacks {field}: {entry}")
    if "compress" not in window.get("ops", {}):
        fail(f"window lacks a compress entry: {window.get('ops')}")

    if gate:
        check_peak_rss(gate["--server-pid"], gate["--max-hwm-kib"])

    down = client.call(op="shutdown")
    if not down.get("ok"):
        fail(f"shutdown: {down.get('error')}")
    print("serve smoke: compress/decompress/run/stats round-trip ok")

    if slow_trace is not None:
        check_slow_trace(slow_trace)


if __name__ == "__main__":
    main()
