"""Each input rule has one definition, applied at both boundaries.

A record's fields and a pipeline setting are checked by the CLI's readers
(``read_rows``, ``load_config``, ``load_checkpoint``) and by the library's
entry point ``run_crv``, through the same ``jsonl.Kind``s: each refused value
is refused in the same words at both, and each accepted value is cast the
same way at both.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest
import yaml
from conftest import SIX_RECORD_SCRIPT, make_dataset, random_script
from hypothesis import given, settings
from hypothesis import strategies as st

from cogforge.agents import Agents
from cogforge.cli import entrypoint
from cogforge.config import ConfigError, PipelineConfig, load_config
from cogforge.gateway import ScriptedBackend
from cogforge.jsonl import dump_row, write_rows
from cogforge.pipeline import run_crv
from cogforge.records import CoTRecord

RECORD = {"id": "r1", "problem": "problem 1", "answer": "answer 1", "reasoning": "trace 1"}


def write_script(tmp_path) -> str:
    path = tmp_path / "script.jsonl"
    write_rows(str(path), ({"key": key, "responses": responses}
                           for key, responses in SIX_RECORD_SCRIPT.items()))
    return str(path)


def curate(tmp_path, *flags: str, config: str | None = None) -> int:
    """The exit code of ``curate`` over ``in.jsonl`` with the six-record script."""
    return entrypoint([*(["--config", config] if config else []), "curate",
                       "--input", str(tmp_path / "in.jsonl"),
                       "--output", str(tmp_path / "out.jsonl"),
                       "--mock-script", write_script(tmp_path), *flags])


def refusal_of(code: int, capsys) -> str:
    """The one error line of a command that exited 1, after ``error: ``."""
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "", captured.err
    return captured.err.removeprefix("error: ").removesuffix("\n")


@pytest.mark.parametrize(("field", "value"), [
    ("id", ""), ("id", 5), ("problem", ""), ("problem", ["p"]), ("reasoning", None),
    ("problem", "p\ud800"),
    ("rewrite_count", -1), ("rewrite_count", 4), ("rewrite_count", True),
], ids=["empty-id", "int-id", "empty-problem", "list-problem", "null-reasoning",
        "lone-surrogate", "negative-count", "count-over-cap", "bool-count"])
def test_record_field_refused_in_the_readers_words(tmp_path, capsys, field, value):
    """``run_crv``'s words after ``record <id>: `` are the dataset reader's
    after ``<path>:<line>: ``. No dataset row holds ``rewrite_count``: its kind
    is the checkpoint's ``attempts``, refused after ``<path>: record 'r1': ``."""
    record = CoTRecord(**{**RECORD, field: value})
    with pytest.raises(ValueError) as caught:
        run_crv([record], PipelineConfig(), Agents(ScriptedBackend({})))
    library = str(caught.value).removeprefix(f"record {record.id!r}: ")

    if field != "rewrite_count":
        (tmp_path / "in.jsonl").write_text(json.dumps({**RECORD, field: value}) + "\n")
        cli = refusal_of(curate(tmp_path), capsys)
        assert cli.removeprefix(f"{tmp_path / 'in.jsonl'}:1: ") == library
        return
    write_rows(str(tmp_path / "in.jsonl"), [RECORD])
    checkpoint = tmp_path / "run.ckpt"
    assert curate(tmp_path, "--checkpoint", str(checkpoint)) == 0
    header = json.loads(checkpoint.read_text())
    header["completed"]["r1"]["attempts"] = value
    checkpoint.write_text(dump_row(header) + "\n")
    capsys.readouterr()
    cli = refusal_of(curate(tmp_path, "--checkpoint", str(checkpoint)), capsys)
    assert cli.removeprefix(f"{checkpoint}: record 'r1': ") == library.replace(
        "'rewrite_count'", "'attempts'")


@pytest.mark.parametrize(("field", "value"), [
    ("retry_cap", 0), ("retry_cap", "two"), ("retry_cap", 2.5), ("retry_cap", True),
    ("votes", 2), ("votes", -1), ("max_concurrency", 0), ("max_concurrency", "1e3"),
    ("verifier_role", "huge"), ("verifier_role", None), ("corruption_gate", 1),
    ("corruption_gate", "false"), ("checkpoint_path", ""), ("checkpoint_path", 7),
    ("checkpoint_path", "x\ud800"),
])
def test_pipeline_setting_refused_in_the_readers_words(tmp_path, capsys, field, value):
    """``run_crv``'s words after ``pipeline: `` are ``load_config``'s after
    ``<path>: pipeline: ``, and neither sends a request."""
    with pytest.raises(ConfigError) as caught:
        run_crv(make_dataset(1), PipelineConfig(**{field: value}), Agents(ScriptedBackend({})))
    library = str(caught.value).removeprefix("pipeline: ")

    config = tmp_path / "c.yaml"
    config.write_text(json.dumps({"pipeline": {field: value}}))  # JSON is YAML
    write_rows(str(tmp_path / "in.jsonl"), [RECORD])
    cli = refusal_of(curate(tmp_path, config=str(config)), capsys)
    assert cli.removeprefix(f"{config}: pipeline: ") == library


# Each pipeline setting in the forms a config may hold it: a whole number as
# an int, an integral float or a numeric string, a role as its string.
def forms(number: int):
    return st.sampled_from([number, float(number), str(number)])


SETTINGS = st.fixed_dictionaries({
    "retry_cap": st.integers(1, 3).flatmap(forms),
    "votes": st.sampled_from([1, 3]).flatmap(forms),
    "max_concurrency": st.integers(1, 3).flatmap(forms),
    "verifier_role": st.sampled_from(["base", "large"]),
    "corruption_gate": st.booleans(),
})
DATASET = make_dataset(6)
# Long enough for any walk under these settings; every label parses.
SCRIPT = random_script(np.random.default_rng(1401), [r.id for r in DATASET], retry_cap=3)


def run(config: PipelineConfig) -> tuple:
    """Everything a run yields: its rows, its stats and its checkpoint's fingerprint."""
    curated, families, stats, discards = run_crv(
        DATASET, config, Agents(ScriptedBackend({k: list(v) for k, v in SCRIPT.items()})))
    with open(config.checkpoint_path, encoding="utf-8") as handle:
        fingerprint = json.loads(handle.readline())["fingerprint"]
    return ([r.to_output_dict() for r in curated], [f.to_dict() for f in families],
            stats.to_dict(), discards, fingerprint)


@settings(max_examples=30)
@given(values=SETTINGS)
def test_library_settings_run_as_the_same_settings_loaded_from_yaml(values):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "c.yaml")
        with open(config_path, "w", encoding="utf-8") as handle:
            yaml.safe_dump({"pipeline": {**values, "checkpoint_path": f"{tmp}/yaml.ckpt"}},
                           handle)
        loaded = load_config(config_path).pipeline
        given_config = PipelineConfig(**values, checkpoint_path=f"{tmp}/library.ckpt")
        assert run(given_config) == run(loaded)
        # The caller's config is read, never cast in place.
        assert vars(given_config) == {**values, "checkpoint_path": f"{tmp}/library.ckpt"}
