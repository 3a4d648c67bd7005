"""Loopback OpenAI-compatible chat-completions stub for the curate-live workload.

Serves a scripted-backend script over HTTP/1.1 keep-alive. Each request is
mapped to the script key ``"<agent>:<record_id>"``: the agent from the system
message (which prompt template it is) and the record from the ``Problem:``
slot of the user message, looked up in the dataset. Cursor semantics match
the scripted backend, so a live run must produce the same outputs as a
scripted run. The standard ``n`` field returns ``n`` choices taken from ``n``
consecutive positions. ``usage`` counts words the way the scripted backend
does.

Every response is delayed by ``DELAY_S`` plus ``WORD_S`` per completion
word, which stands in for model latency (see the constants for how they were
chosen). The stub counts requests, new connections, errors and service time.

Control endpoints (not counted, nor are connections used only for them):
``GET /__stats``, ``POST /__reset``.

Usage:
    python3 bench/stub.py --script S.jsonl --dataset D.jsonl \\
        --templates src/cogforge/templates --port-file PORT
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# Injected latency. The per-request delay makes the stub's service time at
# least 90% of the client's summed call time: the client spends 2 to 3 ms
# per call (2-vCPU host, Python 3.11), so 20 ms leaves it about a tenth. The
# per-word delay makes a record's completion words (about 380 on
# curate-live) cost as much as its requests (about 11 x 20 ms), so fewer
# requests and fewer tokens both show in records_per_s.
DELAY_S = 0.020
WORD_S = 0.0006

# Which agent a template's system text belongs to.
TEMPLATE_AGENTS = {
    "critic": "critic",
    "rethinker_easy": "rethinker",
    "rethinker_hard": "rethinker",
    "rethinker_incorrect": "corruptor",
    "verifier": "verifier",
}


class StubError(ValueError):
    pass


class Script:
    """Cursor state and counters shared by the handler threads."""

    def __init__(self, script: dict[str, list[str]], problems: dict[str, str],
                 agents_by_system: dict[str, str]) -> None:
        self.script = script
        self.problems = problems
        self.agents_by_system = agents_by_system
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.cursors: dict[str, int] = {}
            self.requests = 0
            self.connections = 0
            self.errors = 0
            self.service_s = 0.0
            self.log: list[list] = []

    def key_for(self, body: dict) -> tuple[str, str, str]:
        """Return (script key, system text, user text) for a request body."""
        messages = body.get("messages")
        if not isinstance(messages, list):
            raise StubError("no messages")
        system = next((m.get("content") for m in messages if m.get("role") == "system"), None)
        user = next((m.get("content") for m in messages if m.get("role") == "user"), None)
        agent = self.agents_by_system.get(system)
        if agent is None or not isinstance(user, str):
            raise StubError("unrecognised system prompt")
        head, sep, rest = user.partition("Problem:\n")
        problem, sep2, _ = rest.partition("\n\nAnswer:\n")
        if head or not sep or not sep2 or problem not in self.problems:
            raise StubError("unrecognised problem slot")
        return f"{agent}:{self.problems[problem]}", system, user

    def take(self, key: str, n: int) -> tuple[int, list[str]]:
        with self.lock:
            responses = self.script.get(key)
            if responses is None:
                raise StubError(f"no script entry for key {key!r}")
            position = self.cursors.get(key, 0)
            if position + n > len(responses):
                raise StubError(f"script for key {key!r} exhausted")
            self.cursors[key] = position + n
            return position, responses[position:position + n]


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    state: Script

    def setup(self) -> None:
        super().setup()
        self.counted = False

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _send(self, status: int, payload: dict) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:
        if self.path != "/__stats":
            self._send(404, {"error": "not found"})
            return
        state = self.state
        with state.lock:
            stats = {
                "requests": state.requests, "connections": state.connections,
                "errors": state.errors, "service_s": state.service_s, "log": state.log,
            }
        self._send(200, stats)

    def do_POST(self) -> None:
        started = time.perf_counter()
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length)
        if self.path == "/__reset":
            self.state.reset()
            self._send(200, {"ok": True})
            return
        state = self.state
        if not self.counted:
            # A connection counts once it carries a completion request.
            self.counted = True
            with state.lock:
                state.connections += 1
        try:
            body = json.loads(raw)
            n = int(body.get("n", 1))
            if n < 1:
                raise StubError("n must be positive")
            key, system, user = state.key_for(body)
            position, texts = state.take(key, n)
        except (ValueError, TypeError, AttributeError) as exc:
            with state.lock:
                state.requests += 1
                state.errors += 1
            self._send(400, {"error": {"message": str(exc)}})
            return
        prompt_tokens = len(system.split()) + len(user.split())
        completion_tokens = sum(len(text.split()) for text in texts)
        time.sleep(DELAY_S + WORD_S * completion_tokens)
        self._send(200, {
            "id": f"stub-{key}-{position}",
            "object": "chat.completion",
            "model": body.get("model", "stub"),
            "choices": [
                {"index": i, "message": {"role": "assistant", "content": text},
                 "finish_reason": "stop"}
                for i, text in enumerate(texts)
            ],
            "usage": {
                "prompt_tokens": prompt_tokens,
                "completion_tokens": completion_tokens,
                "total_tokens": prompt_tokens + completion_tokens,
            },
        })
        elapsed = time.perf_counter() - started
        with state.lock:
            state.requests += 1
            state.service_s += elapsed
            state.log.append([key, position, n, elapsed, prompt_tokens + completion_tokens])


def load_state(script_path: str, dataset_path: str, templates_dir: str) -> Script:
    script = {}
    with open(script_path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                script[row["key"]] = [str(text) for text in row["responses"]]
    problems = {}
    with open(dataset_path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                row = json.loads(line)
                problems[row["problem"]] = str(row["id"])
    agents_by_system = {}
    for template, agent in TEMPLATE_AGENTS.items():
        with open(os.path.join(templates_dir, f"{template}.txt"), encoding="utf-8") as handle:
            text = handle.read()
        # Template files end with one newline that is not part of the prompt.
        agents_by_system[text[:-1] if text.endswith("\n") else text] = agent
    return Script(script, problems, agents_by_system)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--script", required=True)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--templates", required=True)
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args(argv)

    Handler.state = load_state(args.script, args.dataset, args.templates)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    signal.signal(signal.SIGTERM, lambda *_: threading.Thread(target=server.shutdown).start())
    tmp = args.port_file + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(str(server.server_address[1]))
    os.replace(tmp, args.port_file)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
