"""Checkpointed curation does work linear in the number of records.

``run_crv`` runs over n and then 4n ``bench/gen.py`` records, each time with a
fresh ``--checkpoint`` file and then resumed from it, and the test counts its
work: backend requests, and bytes through ``dump_row`` (the checkpoint's
header, each appended row and each compaction, and the input digests). Each
count at 4n must be at most 4.6 times the count at n. Counts are exact, so
the gate holds on a host whose speed swings; a compaction after every record
(the quadratic snapshot that the append-only journal replaced) multiplies the
bytes by about 13.

What it cannot see: a quadratic that costs only CPU, such as a list
membership scan inside C code, moves neither count. ``pairs`` and
``loss-eval`` are not covered here.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

from cogforge import jsonl, pipeline
from cogforge.agents import Agents
from cogforge.gateway import ScriptedBackend
from cogforge.jsonl import dump_row
from cogforge.pipeline import PipelineConfig, run_crv
from cogforge.records import CoTRecord

BENCH = Path(__file__).resolve().parents[1] / "bench"
N = 50
GROWTH = 4
BOUND = 4.6


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"cogforge_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _bench_module("gen")


def checkpointed_work(tmp_path, monkeypatch, n: int) -> dict[str, int]:
    """Backend requests and ``dump_row`` bytes of a fresh checkpointed run
    over n records plus its resume."""
    rows, script = gen.curation_inputs(random.Random(9), n)
    dataset = [
        CoTRecord(id=row["id"], problem=row["problem"], answer=row["answer"],
                  reasoning=row["reasoning"])
        for row in rows
    ]
    counts = {"requests": 0, "dump_row_bytes": 0}

    def counting(row: dict) -> str:
        line = dump_row(row)
        counts["dump_row_bytes"] += len(line)
        return line

    monkeypatch.setattr(jsonl, "dump_row", counting)
    monkeypatch.setattr(pipeline, "dump_row", counting)
    config = PipelineConfig(max_concurrency=1, checkpoint_path=str(tmp_path / f"{n}.ckpt.json"))
    for _run in ("fresh", "resumed"):
        backend = ScriptedBackend(script)
        curated = run_crv(dataset, config, Agents(backend))[0]
        counts["requests"] += len(backend.history)
    assert curated
    return counts


def test_checkpointed_curate_work_is_linear(tmp_path, monkeypatch):
    small = checkpointed_work(tmp_path, monkeypatch, N)
    large = checkpointed_work(tmp_path, monkeypatch, GROWTH * N)
    for name in small:
        assert small[name] > 0, name
        ratio = large[name] / small[name]
        assert ratio <= BOUND, f"{name} grew {ratio:.2f}x for {GROWTH}x the records"
