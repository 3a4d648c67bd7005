"""Shared fixtures: the hand-traced six-record script and a randomized
script generator for property tests."""

from __future__ import annotations

import numpy as np
import pytest

from cogforge.agents import Agents
from cogforge.gateway import ChatRequest, ChatResponse, ScriptedBackend
from cogforge.records import CoTRecord

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


def make_dataset(n: int = 6) -> list[CoTRecord]:
    return [
        CoTRecord(id=f"r{i}", problem=f"problem {i}", answer=f"answer {i}", reasoning=f"trace {i}")
        for i in range(1, n + 1)
    ]


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
