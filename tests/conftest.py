"""Shared fixtures: the hand-traced six-record script, a randomized script
generator for property tests, a keep-alive and a playbook loopback HTTP server,
a directory snapshot, a loader for the benchmark's modules, and the one
hypothesis profile."""

from __future__ import annotations

import importlib.util
import json
import os
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cogforge.agents import Agents
from cogforge.gateway import ChatRequest, ChatResponse, ScriptedBackend
from cogforge.records import CoTRecord

# Every @given test draws the same examples on each run, keeps no example
# database on disk and has no per-example deadline; each sets its own
# max_examples.
settings.register_profile("cogforge", derandomize=True, database=None, deadline=None)
settings.load_profile("cogforge")

# Hand-traced walk of the curation state machine (retry_cap=3, votes=3):
#   r1 medium, verifies first try            -> accepted as-is
#   r2 medium, verification fails 3 times    -> discarded
#   r3 easy, rewrite verifies, re-rates med  -> accepted rewrite, attempt 1
#   r4 easy, rewrites verify but re-rate easy every time -> discarded
#   r5 hard, mirror of r3                    -> accepted rewrite
#   r6 hard, rewrites never verify           -> discarded
SIX_RECORD_SCRIPT = {
    "critic:r1": ["medium"] * 3,
    "verifier:r1": ["YES"],
    "corruptor:r1": ["corrupted r1"],
    "critic:r2": ["medium"] * 3,
    "verifier:r2": ["NO", "NO", "NO"],
    "critic:r3": ["easy"] * 3 + ["medium"] * 3,
    "rethinker:r3": ["rewrite r3"],
    "verifier:r3": ["YES"],
    "corruptor:r3": ["corrupted r3"],
    "critic:r4": ["easy"] * 12,
    "rethinker:r4": ["rw r4 a", "rw r4 b", "rw r4 c"],
    "verifier:r4": ["YES", "YES", "YES"],
    "critic:r5": ["hard"] * 3 + ["medium"] * 3,
    "rethinker:r5": ["rewrite r5"],
    "verifier:r5": ["YES"],
    "corruptor:r5": ["corrupted r5"],
    "critic:r6": ["hard"] * 3,
    "rethinker:r6": ["rw r6 a", "rw r6 b", "rw r6 c"],
    "verifier:r6": ["NO", "NO", "NO"],
}


class CapturingBackend:
    """Scripted backend that also records every request it serves and counts
    the choices it returns."""

    def __init__(self, script: dict[str, list[str]], **kwargs):
        self.inner = ScriptedBackend(script, **kwargs)
        self.requests: list[ChatRequest] = []
        self.choices = 0

    def complete(self, request: ChatRequest) -> ChatResponse:
        self.requests.append(request)
        response = self.inner.complete(request)
        self.choices += len(response.choices)
        return response

    def sizes(self) -> list[int]:
        """The ``n`` of each request, in order."""
        return [request.n for request in self.requests]


def bench_module(name: str):
    """``bench/<name>.py`` loaded from its file: ``bench/`` is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"cogforge_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_dataset(n: int = 6) -> list[CoTRecord]:
    return [
        CoTRecord(id=f"r{i}", problem=f"problem {i}", answer=f"answer {i}", reasoning=f"trace {i}")
        for i in range(1, n + 1)
    ]


def snapshot(directory: Path) -> dict[str, bytes | None]:
    """Every file's bytes and every directory (None) under ``directory``."""
    return {str(path): None if path.is_dir() else path.read_bytes()
            for path in directory.rglob("*")}


@pytest.fixture(autouse=True)
def no_leftover_temp_files(tmp_path):
    """Fail a test that leaves a ``*.tmp`` file under its tmp_path: every
    writer must rename its temp file into place or remove it."""
    yield
    leftovers = sorted(str(path.relative_to(tmp_path)) for path in tmp_path.rglob("*.tmp"))
    assert not leftovers, f"temp files left behind: {leftovers}"


@pytest.fixture
def six_record_dataset() -> list[CoTRecord]:
    return make_dataset(6)


@pytest.fixture
def six_record_script() -> dict[str, list[str]]:
    return {key: list(values) for key, values in SIX_RECORD_SCRIPT.items()}


@pytest.fixture
def six_record_agents(six_record_script) -> Agents:
    return Agents(ScriptedBackend(six_record_script))


def random_script(
    rng: np.random.Generator, record_ids: list[str], retry_cap: int = 3, votes: int = 3
) -> dict[str, list[str]]:
    """Generous random scripts driving arbitrary state-machine walks.

    Sequences are long enough for any path (surplus entries stay unconsumed),
    rewrite texts are unique per record so the rewriter never degenerates, and
    every label is parseable so no walk aborts on AgentError.
    """
    levels = ["easy", "medium", "hard"]
    script: dict[str, list[str]] = {}
    for record_id in record_ids:
        critic_budget = votes * (1 + retry_cap)
        script[f"critic:{record_id}"] = [
            levels[int(rng.integers(3))] for _ in range(critic_budget)
        ]
        script[f"rethinker:{record_id}"] = [
            f"rewrite {record_id} #{i}" for i in range(retry_cap + 1)
        ]
        script[f"verifier:{record_id}"] = [
            ("YES" if rng.random() < 0.6 else "NO") for _ in range(2 * retry_cap)
        ]
        script[f"corruptor:{record_id}"] = [f"corrupted {record_id} #{i}" for i in range(2)]
    return script


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """Answers every POST with one ``medium`` choice over HTTP/1.1 keep-alive,
    and refuses every CONNECT with 502, as a proxy that will not tunnel."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out in two writes
    server: KeepAliveServer

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1
            self.connection_number = self.server.connections

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.record(self)
        data = json.dumps({
            "choices": [{"message": {"role": "assistant", "content": "medium"}}],
            "usage": {"prompt_tokens": 7, "completion_tokens": 1},
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        # With no Connection: close header the client cannot know.
        self.close_connection = self.server.close_after_first

    def do_CONNECT(self):
        self.server.record(self)
        self.send_error(502)

    def log_message(self, *args):
        pass


class KeepAliveServer(ThreadingHTTPServer):
    """Counts the connections it accepts and closes, and records each request
    with the connection that carried it. ``close_after_first`` makes it close
    every connection after the first response."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.lock = threading.Lock()
        self.closed_changed = threading.Condition(self.lock)
        self.connections = self.closed = 0
        self.seen: list[dict] = []
        self.close_after_first = False
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat/completions"

    def record(self, handler: _KeepAliveHandler) -> None:
        with self.lock:
            self.seen.append({"connection": handler.connection_number,
                              "command": handler.command, "target": handler.path,
                              "headers": dict(handler.headers)})

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.closed += 1
            self.closed_changed.notify_all()

    def wait_closed(self, count: int, timeout: float = 10.0) -> bool:
        """Whether ``count`` connections have been closed on the server's side
        (after the client closed them, or the server did) within the timeout."""
        with self.lock:
            return self.closed_changed.wait_for(lambda: self.closed >= count, timeout)


@pytest.fixture
def proxy_env(monkeypatch):
    """Clears the proxy variables the tests run under; a test sets its own."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    return monkeypatch


@pytest.fixture
def keepalive_server(proxy_env):
    """A KeepAliveServer on loopback, reached directly: no proxy is set."""
    server = KeepAliveServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class _ScriptedHTTPHandler(BaseHTTPRequestHandler):
    """Pops (status, payload) pairs off the server and records request bodies.
    A payload of bytes is sent as it is, any other as JSON."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.seen.append({"body": body, "auth": self.headers.get("Authorization")})
        status, payload = self.server.playbook.pop(0)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    """A _ScriptedHTTPHandler server on loopback, which answers from ``playbook``."""
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHTTPHandler)
    server.playbook = []
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
