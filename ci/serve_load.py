#!/usr/bin/env python3
"""Closed-loop load generator for `pgr serve`, stdlib-only. Drive a
running server and print a JSON result line:

    python3 ci/serve_load.py <socket> <grammar-id> <image.pgrb> \
        [--connections N] [--duration S] [--warmup S] [--depth D]

Opens N Unix-socket connections and keeps D compress requests
outstanding on each (closed loop: responses immediately fund
replacement requests). The client usually shares a core with the
server, so it is built to spend as little CPU per request as possible:
one request line is prebuilt and reused verbatim, responses are
*counted* (newlines and `"ok":true` tokens scanned per recv chunk at C
speed, with an 8-byte carry so a token split across chunks still
counts) rather than parsed, and refills go out as one buffered write.
Requests completing during the warmup are discarded; the printed
result covers only the measurement window:

    {"rps": ..., "p50_us": ..., "p99_us": ..., "requests": ..., "errors": ...}

Latency is measured by probe sampling: each connection keeps one timed
request in flight at a time and clocks it when the response count
catches up, so a probe resolves at recv granularity. At --depth 1
every request is a probe and the quantiles are exact per-request
send-to-response times; at higher depths they include client-side
pipeline queueing and are the honest figure for a pipelining client,
not comparable to depth-1 numbers.
"""

import base64
import json
import selectors
import socket
import sys
import time

OK_TOKEN = b'"ok":true'
CARRY = len(OK_TOKEN) - 1


def fail(msg):
    print(f"serve load failure: {msg}", file=sys.stderr)
    sys.exit(1)


class Conn:
    """One closed-loop connection with `depth` requests outstanding."""

    def __init__(self, path, request):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.sock.setblocking(False)
        self.request = request
        self.out = b""
        self.outstanding = 0
        self.tail = b""  # carry for ok-tokens split across recv chunks
        self.probe_sent = None
        self.probe_due = 0

    def enqueue(self, n, now):
        if n <= 0:
            return
        if self.probe_sent is None:
            # Time the first request of this refill: it completes after
            # everything already in flight plus itself.
            self.probe_sent = now
            self.probe_due = self.outstanding + 1
        self.out += self.request * n
        self.outstanding += n

    def pump_out(self):
        """Write as much pending request data as the socket accepts."""
        while self.out:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                break
            self.out = self.out[n:]

    def count_ok(self, chunk):
        """Occurrences of `"ok":true` ending inside `chunk`, including
        ones that started in the previous chunk."""
        data = self.tail + chunk
        ok = 0
        idx = data.find(OK_TOKEN)
        while idx != -1:
            ok += 1
            idx = data.find(OK_TOKEN, idx + 1)
        self.tail = data[-CARRY:]
        return ok


def run_load(path, grammar_id, image_path, connections, duration, warmup, depth):
    image = base64.b64encode(open(image_path, "rb").read()).decode()
    request = (
        json.dumps({"op": "compress", "grammar": grammar_id, "image": image}) + "\n"
    ).encode()

    sel = selectors.DefaultSelector()
    conns = []
    now = time.perf_counter_ns()
    for _ in range(connections):
        conn = Conn(path, request)
        conns.append(conn)
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    for conn in conns:
        conn.enqueue(depth, now)
        conn.pump_out()

    start = time.perf_counter_ns()
    warm_end = start + int(warmup * 1e9)
    end = warm_end + int(duration * 1e9)
    requests = total_lines = total_ok = 0
    latencies = []
    measuring = False

    while True:
        now = time.perf_counter_ns()
        if now >= end:
            break
        if not measuring and now >= warm_end:
            measuring = True
        for key, events in sel.select(timeout=0.1):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                conn.pump_out()
                if not conn.out:
                    sel.modify(conn.sock, selectors.EVENT_READ, conn)
            if not events & selectors.EVENT_READ:
                continue
            try:
                chunk = conn.sock.recv(1 << 18)
            except BlockingIOError:
                continue
            if not chunk:
                fail("server closed a connection mid-run")
            now = time.perf_counter_ns()
            n = chunk.count(b"\n")
            ok = conn.count_ok(chunk)
            conn.outstanding -= n
            # Track totals over the whole run: a response split across
            # the warmup boundary would otherwise skew the window's
            # error count by one.
            total_lines += n
            total_ok += ok
            if measuring:
                requests += n
            if conn.probe_sent is not None:
                conn.probe_due -= n
                if conn.probe_due <= 0:
                    if measuring:
                        latencies.append((now - conn.probe_sent) // 1000)
                    conn.probe_sent = None
            was_blocked = bool(conn.out)
            conn.enqueue(n, now)
            conn.pump_out()
            if conn.out and not was_blocked:
                sel.modify(
                    conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn
                )

    elapsed = (time.perf_counter_ns() - warm_end) / 1e9
    for conn in conns:
        conn.sock.close()
    if not latencies:
        fail("no latency probes completed inside the measurement window")
    latencies.sort()

    def pct(p):
        return latencies[min(len(latencies) - 1, int(len(latencies) * p))]

    return {
        "rps": round(requests / elapsed, 1),
        "p50_us": pct(0.50),
        "p99_us": pct(0.99),
        "requests": requests,
        # A line straddling the cutoff can leave its ok-token counted
        # but its newline unread, so clamp at zero.
        "errors": max(0, total_lines - total_ok),
    }


def main():
    args = sys.argv[1:]
    if len(args) < 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    path, grammar_id, image_path = args[:3]
    opts = {"--connections": 64, "--duration": 5.0, "--warmup": 1.0, "--depth": 1}
    rest = args[3:]
    while rest:
        flag = rest.pop(0)
        if flag not in opts or not rest:
            print(__doc__, file=sys.stderr)
            sys.exit(2)
        opts[flag] = type(opts[flag])(rest.pop(0))
    result = run_load(
        path,
        grammar_id,
        image_path,
        opts["--connections"],
        opts["--duration"],
        opts["--warmup"],
        opts["--depth"],
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
