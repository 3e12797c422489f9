"""Local embedding service for the remote-embed workload.

Speaks the remote provider protocol (``POST /embed``) over HTTP/1.1 with
keep-alive, so a client that reuses connections can show it. Each embed
request waits ``LATENCY_S``; every ``FAIL_EVERY``-th embed request gets a
one-time 503, which the client must retry. Vectors are a function of the
text alone, so results do not depend on batching or request order.

    GET  /stats  counters since the last reset, as JSON
    POST /reset  zero the counters

Run as a script, it prints ``port <n>`` once it listens and serves until
stdin closes or it is terminated.
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

DIMENSION = 32
LATENCY_S = 0.005
FAIL_EVERY = 50


def vector_for(text: str) -> list[float]:
    """Deterministic unit-scale vector from the text's digest."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=2 * DIMENSION).digest()
    return [v / 32768.0 for v in struct.unpack(f"<{DIMENSION}h", digest)]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def _send(self, status: int, payload: bytes = b"") -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404)
            return
        self._send(200, json.dumps(self.server.stats()).encode())

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        if self.path == "/reset":
            self.server.reset()
            self._send(200, b"{}")
            return
        if self.path != "/embed":
            self._send(404)
            return
        start = time.perf_counter()
        fail = self.server.count_request(first_on_connection=not self.counted)
        self.counted = True
        time.sleep(LATENCY_S)
        if fail:
            self._send(503)
        else:
            texts = json.loads(body)["texts"]
            payload = json.dumps({
                "dimension": DIMENSION,
                "embeddings": [vector_for(t) for t in texts],
            }).encode()
            self._send(200, payload)
        self.server.add_handler_time(time.perf_counter() - start)

    def log_message(self, *args) -> None:
        pass


class StubServer(ThreadingHTTPServer):
    """Thread per connection: an idle keep-alive connection from one client
    must not block the accept loop for the next."""

    daemon_threads = True

    def __init__(self) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.connections = 0
            self.failures = 0
            self.handler_s = 0.0

    def count_request(self, first_on_connection: bool) -> bool:
        """Count one embed request; True when it is scripted to fail."""
        with self._lock:
            self.requests += 1
            self.connections += first_on_connection
            fail = self.requests % FAIL_EVERY == 0
            self.failures += fail
            return fail

    def add_handler_time(self, seconds: float) -> None:
        with self._lock:
            self.handler_s += seconds

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "failures": self.failures,
                "handler_s": self.handler_s,
            }

    def handle_error(self, request, client_address) -> None:
        # a client that hangs up mid-response is not a server fault
        pass


def main() -> int:
    server = StubServer()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        sys.stdin.read()  # the benchmark closes stdin to stop the server
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
