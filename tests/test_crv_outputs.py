"""Pinned curation outputs and agent-failure accounting inside the attempt loop."""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from conftest import SIX_RECORD_SCRIPT, make_dataset, random_script
from cogforge.agents import Agents
from cogforge.gateway import ScriptedBackend
from cogforge.jsonl import dump_row
from cogforge.pipeline import PipelineConfig, run_crv
from cogforge.records import CoTRecord

# SHA-256 over the serialised outputs of the walks below: curated, families,
# discards and stats. Re-recorded when the critic's votes became one request
# per round, because tokens_by_stage now counts each critic prompt once per
# request instead of once per vote.
OUTPUT_DIGEST = "3acbf334a43f6460dbb4eb7d4c1a41dbad591c340fd6c779431d96e9e7cb02b7"

# The same rows with tokens_by_stage left out, recorded before the critic's
# votes were batched: everything but the token accounting is unchanged.
OUTPUT_DIGEST_WITHOUT_TOKENS = "ec36305e2a3747ad1e7a24d02e93b8647f7254c43708a4bed6fb8186366466fb"

# Backend requests over all walks; it was 8792 with one request per critic vote.
BACKEND_REQUESTS = 5462


def _walks() -> list[tuple[list[CoTRecord], dict[str, list[str]]]]:
    """The six-record fixture and 200 random walks of 1-9 records."""
    walks = [(make_dataset(6), SIX_RECORD_SCRIPT)]
    rng = np.random.default_rng(0)
    for trial in range(200):
        dataset = make_dataset(1 + trial % 9)
        walks.append((dataset, random_script(rng, [record.id for record in dataset])))
    return walks


@functools.cache
def _pins() -> tuple[str, str, int]:
    """(digest, digest without tokens_by_stage, backend requests) over the walks."""
    full, untokened = hashlib.sha256(), hashlib.sha256()
    requests = 0
    for dataset, script in _walks():
        backend = ScriptedBackend(script)
        curated, families, stats, discards = run_crv(
            dataset, PipelineConfig(max_concurrency=2), Agents(backend)
        )
        requests += len(backend.history)
        rows = (
            [record.to_output_dict() for record in curated]
            + [family.to_dict() for family in families]
            + discards
        )
        summary = stats.to_dict()
        for row in rows + [summary]:
            full.update(dump_row(row).encode("utf-8") + b"\n")
        del summary["tokens_by_stage"]
        for row in rows + [summary]:
            untokened.update(dump_row(row).encode("utf-8") + b"\n")
    return full.hexdigest(), untokened.hexdigest(), requests


def test_output_digest():
    assert _pins()[0] == OUTPUT_DIGEST


def test_output_digest_without_tokens():
    assert _pins()[1] == OUTPUT_DIGEST_WITHOUT_TOKENS


def test_backend_request_count():
    assert _pins()[2] == BACKEND_REQUESTS


def test_unparseable_verdict_mid_loop_discards_with_attempts_so_far():
    # m: NO at attempt 1, then two unparseable verdicts at attempt 2.
    # e: rewrite verifies and re-rates easy at attempt 1 (recirculates), then
    #    the second rewrite's verdicts are unparseable at attempt 2.
    script = {
        "critic:m": ["medium"] * 3,
        "verifier:m": ["NO", "junk", "junk"],
        "critic:e": ["easy"] * 6,
        "rethinker:e": ["rw a", "rw b"],
        "verifier:e": ["YES", "junk", "junk"],
    }
    dataset = [
        CoTRecord(id=record_id, problem=f"problem {record_id}", answer="42", reasoning="trace")
        for record_id in ("m", "e")
    ]
    backend = ScriptedBackend(script)
    curated, families, stats, discards = run_crv(
        dataset, PipelineConfig(max_concurrency=1), Agents(backend)
    )
    assert curated == [] and families == []
    assert [(d["id"], d["attempts"]) for d in discards] == [("m", 2), ("e", 2)]
    assert all("unparseable" in d["reason"] for d in discards)
    assert stats.verified == 1
    assert stats.discarded == 2
    assert backend.history.count("rethinker:e") == 2
