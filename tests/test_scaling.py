"""Curation, ``pairs`` and ``loss-eval`` do work linear in their input, and
the preference commands stream.

Each case runs at n and then 4n ``bench/gen.py`` records or families and
counts its work. Each count at 4n must be at most 4.6 times the count at n.
Counts are exact, so the gate holds on a host whose speed swings.

- ``curate`` at ``max_concurrency`` 1 and 4, counted apart in three runs:
  plain; with a fresh ``--checkpoint``, stopped at the second half of the
  records; and resumed from that checkpoint. Each counts the backend
  requests answered and the bytes through ``dump_row`` (the outputs, and
  with a checkpoint its header, each appended row, each compaction and the
  input digests). A compaction after every record (the quadratic snapshot
  that the append-only journal replaced) multiplies the bytes by about 13.
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

import logging
import random
import tracemalloc

import pytest
from conftest import bench_module

from cogforge import cli, jsonl, pipeline
from cogforge.gateway import ScriptedBackend
from cogforge.jsonl import dump_row

N = 50
FAMILIES = 200
GROWTH = 4
BOUND = 4.6
PEAK_BOUND = 1.5
TRACE_WORDS = (100, 200)

gen = bench_module("gen")


def curate_work(tmp_path, n: int, concurrency: int) -> dict[str, dict[str, int]]:
    """Backend requests answered and ``dump_row`` bytes of each ``curate``
    run over n records at ``concurrency`` workers: plain; with a fresh
    ``--checkpoint`` and a script without the second half's records, so the
    run stops at the first of them; and resumed with the whole script."""
    work = tmp_path / f"{n}-{concurrency}"
    work.mkdir()
    rows, script = gen.curation_inputs(random.Random(9), n)
    late = {row["id"] for row in rows[n // 2:]}
    first_half = {key: texts for key, texts in script.items() if key.split(":", 1)[1] not in late}
    input_path, checkpoint = str(work / "input.jsonl"), str(work / "run.ckpt.json")
    gen.write_jsonl(input_path, rows)
    config = work / "config.yaml"
    config.write_text(f"pipeline:\n  max_concurrency: {concurrency}\n", encoding="utf-8")
    runs = {"plain": (script, [], cli.EXIT_PARTIAL),
            "fresh": (first_half, ["--checkpoint", checkpoint], cli.EXIT_FATAL),
            "resumed": (script, ["--checkpoint", checkpoint], cli.EXIT_PARTIAL)}
    counts = {}
    for run, (run_script, flags, exit_code) in runs.items():
        script_path = str(work / f"{run}.script.jsonl")
        gen.write_script(script_path, run_script)
        backends = []
        tally = counts[run] = {"requests": 0, "dump_row_bytes": 0}

        def counting(row: dict) -> str:
            line = dump_row(row)
            tally["dump_row_bytes"] += len(line)  # workers call it only under run_crv's lock
            return line

        def recording(entries: dict[str, list[str]]) -> ScriptedBackend:
            backends.append(ScriptedBackend(entries))
            return backends[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "ScriptedBackend", recording)
            patch.setattr(jsonl, "dump_row", counting)
            patch.setattr(pipeline, "dump_row", counting)
            assert cli.entrypoint([
                "--config", str(config), "curate", "--input", input_path,
                "--output", str(work / f"{run}.jsonl"), "--mock-script", script_path, *flags,
            ]) == exit_code
        # A stopped run's workers may each ask once for a key the script lacks.
        tally["requests"] = sum(key in run_script for key in backends[0].history)
    return counts


@pytest.fixture(scope="module")
def curate_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("curate")
    return {concurrency: (curate_work(tmp_path, N, concurrency),
                          curate_work(tmp_path, GROWTH * N, concurrency))
            for concurrency in (1, 4)}


def assert_linear(small: dict[str, int], large: dict[str, int], what: str) -> None:
    for name in small:
        assert small[name] > 0, f"{name} of {what}"
        ratio = large[name] / small[name]
        assert ratio <= BOUND, f"{name} of {what} grew {ratio:.2f}x for {GROWTH}x the records"


def test_plain_curate_work_is_linear(curate_runs):
    for concurrency, (small, large) in curate_runs.items():
        assert_linear(small["plain"], large["plain"], f"plain curate at {concurrency}")


def test_checkpointed_curate_work_is_linear(curate_runs):
    for concurrency, (small, large) in curate_runs.items():
        for run in ("fresh", "resumed"):
            assert_linear(small[run], large[run], f"{run} curate at {concurrency}")


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
        pair_ids = [row["id"] for row in read_rows(pairs_path, {}, key=None)]
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
