"""Loopback HTTP fixture: chartloop's own backends behind a stdlib server.

    python3 perfbench/loopback.py --corpus DIR

Serves ``SymbolicReasoner.complete`` at ``POST /reasoner`` and
``TableOracle.read`` at ``POST /reader`` on 127.0.0.1 (port 0, printed as
``PORT <n>``), in the JSON schema ``HttpReasoner`` and ``HttpReader`` speak.
It counts requests, accepted connections and body bytes, and times its own
compute per endpoint.  It stops when its standard input closes and then
prints those totals as one JSON line.  It runs in a child process so client
and server do not share an interpreter lock.  The server speaks HTTP/1.1, so
a client that keeps connections alive can do so.
"""

from __future__ import annotations

import argparse
import json
import select
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.connections = 0
        self.endpoints = {
            name: {"requests": 0, "errors": 0, "compute_ns": 0, "request_bytes": 0,
                   "response_bytes": 0}
            for name in ("reasoner", "reader")
        }


class CountingServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address, handler, stats: Stats, backends: dict):
        super().__init__(address, handler)
        self.stats = stats
        self.backends = backends

    def get_request(self):
        request = super().get_request()
        with self.stats.lock:
            self.stats.connections += 1
        return request


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body leave in one segment, with no Nagle delay, so the
    # fixture adds as little transport cost of its own as it can.
    disable_nagle_algorithm = True
    wbufsize = -1

    def log_message(self, format, *args):  # keep stderr quiet
        pass

    def do_POST(self):
        endpoint = self.path.strip("/")
        compute = self.server.backends.get(endpoint)
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length)
        status, elapsed = 200, 0
        try:
            if compute is None:
                raise LookupError(f"no endpoint {self.path}")
            payload = json.loads(body)
            start = time.perf_counter_ns()
            text = compute(payload)
            elapsed = time.perf_counter_ns() - start
            out = json.dumps({"text": text}).encode("utf-8")
        except Exception as exc:  # answer the client; the run counts the error
            status, out = 500, json.dumps({"error": repr(exc)}).encode("utf-8")
        if compute is not None:
            stats = self.server.stats
            with stats.lock:
                entry = stats.endpoints[endpoint]
                entry["requests"] += 1
                entry["errors"] += status != 200
                entry["compute_ns"] += elapsed
                entry["request_bytes"] += length
                entry["response_bytes"] += len(out)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(out)))
        self.end_headers()
        self.wfile.write(out)


def serve(corpus_dir: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from chartloop.datagen import load_corpus
    from chartloop.oracle import TableOracle
    from chartloop.symbolic import SymbolicReasoner

    reasoner = SymbolicReasoner()
    reader = TableOracle(load_corpus(corpus_dir).chart_index())
    backends = {
        "reasoner": lambda p: reasoner.complete(p["prompt"], p["stop"], p["temperature"],
                                                p["max_tokens"]),
        "reader": lambda p: reader.read(p["chart_ref"], p["query"]),
    }
    stats = Stats()
    server = CountingServer(("127.0.0.1", 0), Handler, stats, backends)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"PORT {server.server_address[1]}", flush=True)
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    thread.join()
    with stats.lock:
        print(json.dumps({"connections": stats.connections, "endpoints": stats.endpoints}),
              flush=True)
    return 0


class LoopbackServer:
    """Parent-side handle: starts the child server and collects its totals."""

    def __init__(self, corpus_dir: Path):
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--corpus", str(corpus_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.kill()
            raise RuntimeError(f"loopback server did not start (got {line!r})")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stop(self) -> dict:
        """Close the server's stdin, wait for it to exit, return its totals."""
        try:
            out, _ = self.process.communicate(input="", timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("loopback server did not stop") from None
        if self.process.returncode != 0:
            raise RuntimeError(f"loopback server exited with {self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        self.process.kill()
        self.process.communicate()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", required=True)
    return serve(parser.parse_args().corpus)


if __name__ == "__main__":
    sys.exit(main())
