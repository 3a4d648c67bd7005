"""Curation, ``pairs`` and ``loss-eval`` do work linear in their input, and
the preference commands stream.

Each case runs at n and then 4n ``bench/gen.py`` records or families and
counts its work. Each count at 4n must be at most 4.6 times the count at n.
Counts are exact, so the gate holds on a host whose speed swings.

- Checkpointed ``run_crv``, fresh and then resumed: backend requests, and
  bytes through ``dump_row`` (the checkpoint's header, each appended row and
  each compaction, and the input digests). A compaction after every record
  (the quadratic snapshot that the append-only journal replaced) multiplies
  the bytes by about 13.
- ``pairs`` and then ``loss-eval --output``: rows through ``read_rows``, and
  calls and bytes through ``dump_row``.
- Streaming, by the ``tracemalloc`` peak of each command: the ``pairs`` peak
  stays within 1.5 times as the families grow 4 times and as their texts grow
  4 times, and the ``loss-eval`` peak as the texts grow 4 times. A run over
  a few families comes first, so that loading the loss and numpy is in no
  peak. Every peak holds the writer's constant 1 MiB buffer; n is large
  enough that ``pairs`` collecting every family before it writes, or
  ``join_quads`` keeping each pair row whole, still breaks the bound.

What it cannot see: a quadratic that costs only CPU, such as a list
membership scan inside C code, moves none of these counts.
"""

from __future__ import annotations

import importlib.util
import logging
import random
import tracemalloc
from pathlib import Path

import pytest

from cogforge import cli, jsonl, pipeline
from cogforge.agents import Agents
from cogforge.gateway import ScriptedBackend
from cogforge.jsonl import dump_row
from cogforge.pipeline import PipelineConfig, run_crv
from cogforge.records import CoTRecord

BENCH = Path(__file__).resolve().parents[1] / "bench"
N = 50
FAMILIES = 200
GROWTH = 4
BOUND = 4.6
PEAK_BOUND = 1.5
TRACE_WORDS = (100, 200)


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


def preference_work(tmp_path, n: int, trace_words: tuple[int, int]) -> dict[str, int]:
    """Rows read, ``dump_row`` calls and bytes, and each command's
    ``tracemalloc`` peak, for ``pairs`` over n families and ``loss-eval
    --output`` over their pairs."""
    work = tmp_path / f"{n}-{trace_words[0]}"
    work.mkdir()
    families_path, pairs_path = str(work / "families.jsonl"), str(work / "pairs.jsonl")
    gen.write_jsonl(families_path, gen.families(random.Random(11), n, trace_words))
    counts = {"rows": 0, "dump_row_calls": 0, "dump_row_bytes": 0}
    read_rows, dump_row_ = cli.read_rows, jsonl.dump_row

    def counting_read_rows(*args, **kwargs):
        for row in read_rows(*args, **kwargs):
            counts["rows"] += 1
            yield row

    def counting_dump_row(row: dict) -> str:
        line = dump_row_(row)
        counts["dump_row_calls"] += 1
        counts["dump_row_bytes"] += len(line)
        return line

    def traced(name: str, argv: list[str]) -> None:
        # Log capture would keep a record of each skipped family in the peak.
        logging.disable(logging.WARNING)
        tracemalloc.start()
        try:
            assert cli.entrypoint(argv) == cli.EXIT_OK
            counts[f"{name}_peak"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            logging.disable(logging.NOTSET)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "read_rows", counting_read_rows)
        patch.setattr(jsonl, "dump_row", counting_dump_row)
        traced("pairs", ["pairs", "--families", families_path, "--output", pairs_path])
        pair_ids = [row["id"] for row in read_rows(pairs_path)]
        logprobs_path = str(work / "logprobs.jsonl")
        gen.write_jsonl(logprobs_path, gen.logprobs(random.Random(12), pair_ids))
        traced("loss_eval", ["loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path,
                             "--output", str(work / "report.jsonl")])
    return counts


@pytest.fixture(scope="module")
def preference_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("preference")
    preference_work(tmp_path, 10, TRACE_WORDS)  # warm-up: loads the loss and numpy
    longer = tuple(GROWTH * words for words in TRACE_WORDS)
    return {
        "small": preference_work(tmp_path, FAMILIES, TRACE_WORDS),
        "more_families": preference_work(tmp_path, GROWTH * FAMILIES, TRACE_WORDS),
        "longer_texts": preference_work(tmp_path, FAMILIES, longer),
    }


def test_preference_work_is_linear(preference_runs):
    small, large = preference_runs["small"], preference_runs["more_families"]
    for name in ("rows", "dump_row_calls", "dump_row_bytes"):
        assert small[name] > 0, name
        ratio = large[name] / small[name]
        assert ratio <= BOUND, f"{name} grew {ratio:.2f}x for {GROWTH}x the families"


@pytest.mark.parametrize("command, grown", [
    ("pairs", "more_families"), ("pairs", "longer_texts"), ("loss_eval", "longer_texts"),
])
def test_preference_commands_stream(preference_runs, command, grown):
    small, large = preference_runs["small"], preference_runs[grown]
    ratio = large[f"{command}_peak"] / small[f"{command}_peak"]
    assert ratio <= PEAK_BOUND, (
        f"{command} peak grew {ratio:.2f}x ({small[f'{command}_peak']} -> "
        f"{large[f'{command}_peak']} bytes) with {GROWTH}x {grown.replace('_', ' ')}")
