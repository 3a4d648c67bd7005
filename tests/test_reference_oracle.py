"""run_crv on the benchmark's inputs: every record's exact outcome against the
reference walk, and its usage against plain ``str.split()`` counts.

``bench/reference.py`` restates the curation state machine without importing
the package, and ``bench/gen.py`` generates inputs with unparseable labels and
degenerate rewrites. Both are loaded from their files and left untouched.
"""

from __future__ import annotations

import random
import sys

import pytest
from conftest import bench_module

from cogforge import gateway
from cogforge.agents import Agents
from cogforge.gateway import ScriptedBackend
from cogforge.pipeline import (PipelineConfig, checkpoint_fingerprint, input_digests,
                               load_checkpoint, run_crv)
from cogforge.records import CoTRecord

reference = bench_module("reference")
gen = bench_module("gen")


@pytest.mark.parametrize("votes", [1, 3])
@pytest.mark.parametrize("retry_cap", [1, 2, 3])
def test_outputs_equal_the_reference_walk(retry_cap, votes):
    rows, script = gen.curation_inputs(random.Random(100 * retry_cap + votes), 200)
    dataset = [
        CoTRecord(id=row["id"], problem=row["problem"], answer=row["answer"],
                  reasoning=row["reasoning"])
        for row in rows
    ]
    config = PipelineConfig(retry_cap=retry_cap, votes=votes, max_concurrency=2)
    curated, families, stats, discards = run_crv(dataset, config, Agents(ScriptedBackend(script)))

    predictions = [reference.walk(row, script, retry_cap=retry_cap, votes=votes) for row in rows]
    problems = reference.check_curation(
        rows, predictions, [record.to_output_dict() for record in curated], discards,
        [family.to_dict() for family in families],
    )
    assert problems == []
    assert stats.rewritten == sum(p["status"] == reference.ACCEPTED_REWRITTEN for p in predictions)
    assert sum(stats.completions_by_stage.values()) == sum(p["calls"] for p in predictions)
    # The inputs reach every outcome: plain and rewritten acceptances, and discards.
    assert {p["status"] for p in predictions} == {
        reference.ACCEPTED_MEDIUM, reference.ACCEPTED_REWRITTEN, reference.DISCARDED,
    }


@pytest.mark.parametrize("concurrency", [1, 8])
def test_memoized_word_counts_equal_plain_split(tmp_path, monkeypatch, concurrency):
    """The scripted backend's bounded word-count memo, shared by the workers
    and switched between them as often as the interpreter allows, reports the
    stats and each record's usage that uncached counting does."""
    rows, script = gen.curation_inputs(random.Random(15), 200)
    dataset = [
        CoTRecord(id=row["id"], problem=row["problem"], answer=row["answer"],
                  reasoning=row["reasoning"])
        for row in rows
    ]

    def usage(name):
        path = str(tmp_path / f"{name}.checkpoint.json")
        config = PipelineConfig(max_concurrency=concurrency, checkpoint_path=path)
        agents = Agents(ScriptedBackend(script))
        stats = run_crv(dataset, config, agents)[2]
        inputs = input_digests(dataset)
        outcomes = load_checkpoint(path, inputs, checkpoint_fingerprint(inputs, config, agents),
                                   config.retry_cap)
        return stats.to_dict(), {
            record_id: outcome.tokens_by_stage for record_id, outcome in outcomes.items()
        }

    interval = sys.getswitchinterval()
    if concurrency > 1:
        sys.setswitchinterval(1e-6)
    try:
        memoized = usage("memoized")
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(gateway, "_word_count", lambda text: len(text.split()))
    assert memoized == usage("plain")
