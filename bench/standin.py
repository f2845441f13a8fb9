"""Loopback stand-in for an OpenAI-compatible chat completions endpoint.

It answers every completion request with ragfuse's own rule backend
(``RuleClient``, built from the questions file) after a fixed delay, and
omits ``usage`` so the client counts tokens itself. It binds 127.0.0.1 on an
ephemeral port, serves at most ``os.cpu_count()`` requests at once, prints
``port <n>`` on its first stdout line, and exits when its stdin closes, so it
never outlives the process that started it. ragfuse must be importable
(``PYTHONPATH=src``).

    POST /v1/chat/completions  the completion call
    GET  /stats                counters since the last reset, as JSON
    POST /reset                zero the counters

Run on its own for a manual check:

    PYTHONPATH=src python3 bench/standin.py --questions questions.jsonl --delay-ms 10
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from ragfuse.corpus import load_questions
from ragfuse.llm import CompletionRequest, RuleClient, RuleError

HANDLERS = os.cpu_count() or 1  # requests served at once


class Stats:
    """Request counters, billed tokens, handling time, and in-flight depth."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.prompt_tokens = 0
            self.errors = 0
            self.handle_s = 0.0
            self.inflight = 0
            self.inflight_max = 0
            self.inflight_area = 0.0  # integral of in-flight depth over time
            self.first_start: float | None = None
            self.last_end: float | None = None
            self._last_change = time.perf_counter()

    def _advance(self, now: float) -> None:
        self.inflight_area += self.inflight * (now - self._last_change)
        self._last_change = now

    def begin(self) -> float:
        now = time.perf_counter()
        with self._lock:
            self._advance(now)
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
            if self.first_start is None:
                self.first_start = now
        return now

    def end(self, started: float, prompt_tokens: int, ok: bool) -> None:
        now = time.perf_counter()
        with self._lock:
            self._advance(now)
            self.inflight -= 1
            self.last_end = now
            self.handle_s += now - started
            self.requests += 1
            self.prompt_tokens += prompt_tokens
            self.errors += 0 if ok else 1

    def snapshot(self) -> dict:
        with self._lock:
            span = (
                self.last_end - self.first_start
                if self.first_start is not None and self.last_end is not None
                else 0.0
            )
            return {
                "requests": self.requests,
                "prompt_tokens": self.prompt_tokens,
                "errors": self.errors,
                "handle_s": self.handle_s,
                "inflight_max": self.inflight_max,
                "inflight_mean": self.inflight_area / span if span > 0 else 0.0,
            }


def make_handler(client: RuleClient, delay_s: float, stats: Stats):
    gate = threading.BoundedSemaphore(HANDLERS)

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format: str, *args: object) -> None:
            pass

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self) -> None:
            if self.path == "/stats":
                self._reply(200, stats.snapshot())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self) -> None:
            if self.path == "/reset":
                stats.reset()
                self._reply(200, {})
                return
            with gate:
                started = stats.begin()
                tokens, ok = 0, False
                try:
                    body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                    prompt = "".join(m["content"] for m in body["messages"])
                    tokens = len(prompt.split())
                    time.sleep(delay_s)
                    text = client.complete(CompletionRequest(prompt_text=prompt)).text
                    self._reply(200, {"choices": [{"message": {"role": "assistant", "content": text}}]})
                    ok = True
                except (KeyError, TypeError, ValueError, RuleError) as exc:
                    self._reply(400, {"error": str(exc)})
                finally:
                    stats.end(started, tokens, ok)

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--questions", type=Path, required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    client = RuleClient(load_questions(args.questions))
    stats = Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(client, args.delay_ms / 1000.0, stats))
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"port {server.server_address[1]}", flush=True)
    sys.stdin.read()  # returns when the parent closes our stdin or exits
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
