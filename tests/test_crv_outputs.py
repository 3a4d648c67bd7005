"""Pinned curation outputs and agent-failure accounting inside the attempt loop."""

from __future__ import annotations

import hashlib

import numpy as np

from conftest import SIX_RECORD_SCRIPT, make_dataset, random_script
from cogforge.agents import Agents
from cogforge.gateway import ScriptedBackend
from cogforge.jsonl import dump_row
from cogforge.pipeline import PipelineConfig, run_crv
from cogforge.records import CoTRecord

# SHA-256 over the serialised outputs of the walks in test_output_digest, as
# produced by the two-loop state machine that preceded the single attempt loop.
OUTPUT_DIGEST = "9943e6b8bcd862b975f72c2cfdc16b13c0faf59464e91a3fa243f7732cfeca78"


def _output_rows(dataset: list[CoTRecord], script: dict[str, list[str]]) -> list[dict]:
    curated, families, stats, discards = run_crv(
        dataset, PipelineConfig(max_concurrency=2), Agents(ScriptedBackend(script))
    )
    return (
        [record.to_output_dict() for record in curated]
        + [family.to_dict() for family in families]
        + discards
        + [stats.to_dict()]
    )


def test_output_digest():
    """Curated, families, discards and stats over the six-record fixture and
    200 random walks of 1-9 records hash to the recorded digest."""
    digest = hashlib.sha256()
    walks = [(make_dataset(6), SIX_RECORD_SCRIPT)]
    rng = np.random.default_rng(0)
    for trial in range(200):
        dataset = make_dataset(1 + trial % 9)
        walks.append((dataset, random_script(rng, [record.id for record in dataset])))
    for dataset, script in walks:
        for row in _output_rows(dataset, script):
            digest.update(dump_row(row).encode("utf-8") + b"\n")
    assert digest.hexdigest() == OUTPUT_DIGEST


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
