"""Backends: scripted replay semantics and the HTTP client against a local server."""

from __future__ import annotations

import dataclasses
import json
import socket
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from cogforge.agents import Agents
from cogforge.gateway import (
    ChatRequest,
    ConfigError,
    Endpoint,
    HTTPBackend,
    ModelRole,
    ProviderError,
    SamplingParams,
    ScriptedBackend,
    ScriptExhausted,
    TransportError,
    UnknownKey,
    load_script,
)
from cogforge.records import ComplexityLevel, CoTRecord


def make_request(key: str = "critic:r1", n: int = 1) -> ChatRequest:
    return ChatRequest(model_role=ModelRole.LARGE, system="sys", user="usr", key=key, n=n)


class TestSamplingParams:
    def test_defaults(self):
        params = SamplingParams()
        assert params.temperature == 0.7
        assert params.top_p == 0.9
        assert params.top_k == 50
        assert params.validate() == []

    def test_invalid_flagged(self):
        bad = SamplingParams(temperature=-1.0, top_p=0.0, top_k=0, max_tokens=0)
        assert len(bad.validate()) == 4


class TestChatRequest:
    def test_empty_messages_rejected(self):
        with pytest.raises(ValueError):
            ChatRequest(model_role=ModelRole.BASE, system="", user="u")
        with pytest.raises(ValueError):
            ChatRequest(model_role=ModelRole.BASE, system="s", user="")

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError, match="n must"):
            make_request(n=0)

    def test_request_is_immutable(self):
        request = make_request()
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.system = "changed"


class TestScriptedBackend:
    def test_replays_in_sequence(self):
        backend = ScriptedBackend({"critic:r1": ["easy", "easy", "medium"]})
        texts = [backend.complete(make_request()).text for _ in range(3)]
        assert texts == ["easy", "easy", "medium"]

    def test_exhaustion_raises(self):
        backend = ScriptedBackend({"critic:r1": ["easy"]})
        backend.complete(make_request())
        with pytest.raises(ScriptExhausted):
            backend.complete(make_request())

    def test_unknown_key_strict(self):
        backend = ScriptedBackend({})
        with pytest.raises(UnknownKey):
            backend.complete(make_request("verifier:r9"))

    def test_missing_key_field_rejected(self):
        backend = ScriptedBackend({"critic:r1": ["easy"]})
        with pytest.raises(UnknownKey):
            backend.complete(ChatRequest(model_role=ModelRole.LARGE, system="s", user="u"))

    def test_deterministic_across_instances(self):
        script = {"critic:r1": ["easy", "medium"], "verifier:r1": ["YES"]}
        calls = ["critic:r1", "verifier:r1", "critic:r1"]
        one = ScriptedBackend(script)
        two = ScriptedBackend(script)
        assert [one.complete(make_request(k)).text for k in calls] == [
            two.complete(make_request(k)).text for k in calls
        ]

    def test_concurrent_consumption_is_exactly_once(self):
        responses = [str(i) for i in range(64)]
        backend = ScriptedBackend({"critic:r1": responses})
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda _: backend.complete(make_request()).text, range(64)))
        assert sorted(got, key=int) == responses

    def test_concurrent_batches_take_consecutive_positions_once(self):
        sizes = [1 + i % 3 for i in range(96)]
        responses = [str(i) for i in range(sum(sizes))]
        backend = ScriptedBackend({"critic:r1": responses})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda n: backend.complete(make_request(n=n)).choices, sizes))
        finally:
            sys.setswitchinterval(interval)
        for choices in got:
            assert [int(text) for text in choices] == list(
                range(int(choices[0]), int(choices[0]) + len(choices))
            )
        assert sorted((text for choices in got for text in choices), key=int) == responses

    def test_usage_counts_words(self):
        backend = ScriptedBackend({"critic:r1": ["two words"]})
        response = backend.complete(make_request())
        assert response.usage.completion_tokens == 2
        assert response.usage.prompt_tokens == 2
        assert response.usage.total == 4

    def test_empty_response_passes_through(self):
        backend = ScriptedBackend({"critic:r1": [""]})
        assert backend.complete(make_request()).text == ""

    def test_n_choices_take_consecutive_positions(self):
        backend = ScriptedBackend({"critic:r1": ["easy", "two words", "hard", "medium"]})
        response = backend.complete(make_request(n=3))
        assert response.choices == ("easy", "two words", "hard")
        assert response.text == "easy"
        # The prompt counts once per request, every choice's words count.
        assert response.usage.prompt_tokens == 2
        assert response.usage.completion_tokens == 4
        with pytest.raises(ScriptExhausted, match="2 requested, 1 of 4"):
            backend.complete(make_request(n=2))
        # The refused request consumed nothing.
        assert backend.complete(make_request()).choices == ("medium",)
        assert backend.history == ["critic:r1"] * 3


class TestLoadScript:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(
            json.dumps({"key": "critic:r1", "responses": ["easy", "medium"]}) + "\n"
            + "\n"
            + json.dumps({"key": "verifier:r1", "responses": ["YES"]}) + "\n"
        )
        script = load_script(str(path))
        assert script == {"critic:r1": ["easy", "medium"], "verifier:r1": ["YES"]}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "script.jsonl"
        row = json.dumps({"key": "critic:r1", "responses": ["easy"]})
        path.write_text(row + "\n" + row + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_script(str(path))

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_script(str(path))

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "script.jsonl"
        path.write_text(json.dumps({"key": "critic:r1"}) + "\n")
        with pytest.raises(ValueError, match="responses"):
            load_script(str(path))


class _ScriptedHTTPHandler(BaseHTTPRequestHandler):
    """Pops (status, payload) pairs off the server and records request bodies."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        self.server.seen.append({"body": body, "auth": self.headers.get("Authorization")})
        status, payload = self.server.playbook.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _ScriptedHTTPHandler)
    server.playbook = []
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def ok_payload(text: str) -> dict:
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 2},
    }


def backend_for(server, **kwargs) -> HTTPBackend:
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    endpoints = {ModelRole.LARGE: Endpoint(url=url, model="agent-xl")}
    kwargs.setdefault("sleep", lambda _s: None)
    return HTTPBackend(endpoints, **kwargs)


class TestHTTPBackend:
    def test_success_and_wire_format(self, http_server, monkeypatch):
        monkeypatch.setenv("COGFORGE_API_KEY", "sekrit")
        http_server.playbook.append((200, ok_payload("medium")))
        response = backend_for(http_server).complete(make_request())
        assert response.text == "medium"
        assert response.usage.prompt_tokens == 7
        assert response.usage.total == 9
        seen = http_server.seen[0]
        assert seen["auth"] == "Bearer sekrit"
        body = seen["body"]
        assert body["model"] == "agent-xl"
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert body["temperature"] == 0.7
        assert body["top_p"] == 0.9
        assert body["top_k"] == 50
        assert body["max_tokens"] == 1024
        assert "n" not in body

    def test_n_choices_on_the_wire(self, http_server):
        http_server.playbook.append((200, {
            "choices": [{"message": {"content": text}} for text in ("easy", None, "hard")],
            "usage": {"prompt_tokens": 7, "completion_tokens": 2},
        }))
        response = backend_for(http_server).complete(make_request(n=3))
        assert response.choices == ("easy", "", "hard")
        assert response.usage.total == 9
        assert http_server.seen[0]["body"]["n"] == 3

    @pytest.mark.parametrize("count", [0, 3])
    def test_no_choices_or_more_than_n_is_provider_error(self, http_server, count):
        http_server.playbook.append(
            (200, {"choices": [{"message": {"content": "easy"}}] * count})
        )
        with pytest.raises(ProviderError, match=f"{count} choices for n=2"):
            backend_for(http_server).complete(make_request(n=2))
        assert len(http_server.seen) == 1

    def test_provider_ignoring_n_costs_a_request_per_vote(self, http_server):
        # One choice per answer, as from a provider that ignores n: the
        # critic asks again for the votes still missing.
        http_server.playbook.extend(
            (200, ok_payload(text)) for text in ("easy", "blah", "hard", "easy")
        )
        record = CoTRecord(id="r1", problem="p", answer="a", reasoning="r")
        agents = Agents(backend_for(http_server)).for_record(record)
        assert agents.critique(record.reasoning) == (
            ComplexityLevel.EASY,
            [ComplexityLevel.EASY, ComplexityLevel.HARD, ComplexityLevel.EASY],
        )
        assert [seen["body"].get("n", 1) for seen in http_server.seen] == [3, 2, 2, 1]

    def test_client_error_is_immediate_provider_error(self, http_server):
        http_server.playbook.append((400, {"error": "bad request"}))
        with pytest.raises(ProviderError, match="HTTP 400"):
            backend_for(http_server).complete(make_request())
        assert len(http_server.seen) == 1

    def test_server_errors_retried_then_succeed(self, http_server):
        http_server.playbook.extend(
            [(500, {"error": "boom"}), (503, {"error": "busy"}), (200, ok_payload("hard"))]
        )
        assert backend_for(http_server).complete(make_request()).text == "hard"
        assert len(http_server.seen) == 3

    def test_server_errors_exhaust_to_provider_error(self, http_server):
        http_server.playbook.extend([(500, {"error": "boom"})] * 3)
        with pytest.raises(ProviderError, match="retries exhausted"):
            backend_for(http_server).complete(make_request())

    def test_connection_failure_is_transport_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        endpoints = {
            ModelRole.LARGE: Endpoint(url=f"http://127.0.0.1:{dead_port}/v1", model="m")
        }
        backend = HTTPBackend(endpoints, max_retries=2, sleep=lambda _s: None, timeout=2.0)
        with pytest.raises(TransportError, match="retries exhausted"):
            backend.complete(make_request())

    def test_unmapped_role_is_config_error(self, http_server):
        backend = backend_for(http_server)
        request = ChatRequest(model_role=ModelRole.BASE, system="s", user="u")
        with pytest.raises(ConfigError, match="base"):
            backend.complete(request)

    def test_malformed_payload_is_provider_error(self, http_server):
        http_server.playbook.append((200, {"surprise": True}))
        with pytest.raises(ProviderError, match="malformed"):
            backend_for(http_server).complete(make_request())

    @pytest.mark.parametrize("payload", [
        {"choices": [{"message": {"content": ["medium"]}}]},
        {"choices": [{"message": {"content": "medium"}}], "usage": [7, 2]},
        {"choices": [{"message": {"content": "medium"}}], "usage": "lots"},
        {"choices": [{"message": {"content": "medium"}}],
         "usage": {"prompt_tokens": None, "completion_tokens": 2}},
        ["not", "an", "object"],
    ])
    def test_malformed_content_or_usage_is_provider_error(self, http_server, payload):
        http_server.playbook.append((200, payload))
        with pytest.raises(ProviderError, match="malformed"):
            backend_for(http_server).complete(make_request())
        assert len(http_server.seen) == 1
