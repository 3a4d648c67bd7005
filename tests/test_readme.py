"""README's examples run as written: its ``python`` block, every ``cogforge``
line of its ``sh`` blocks, and its ``yaml`` block, which shows the defaults."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from conftest import SIX_RECORD_SCRIPT, make_dataset

from cogforge.agents import Agents
from cogforge.cli import EXIT_OK, EXIT_PARTIAL, entrypoint
from cogforge.config import AppConfig, PipelineConfig, load_config
from cogforge.gateway import ScriptedBackend
from cogforge.jsonl import write_rows
from cogforge.pairs import build_pairs
from cogforge.pipeline import run_crv
from cogforge.records import BetaSchedule

README = Path(__file__).resolve().parent.parent / "README.md"

# Each command's exit code on the six-record fixture, which discards three records.
EXPECTED_EXIT = {"curate": EXIT_PARTIAL, "pairs": EXIT_OK, "loss-eval": EXIT_OK,
                 "selftest": EXIT_OK}


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      flags=re.MULTILINE | re.DOTALL)


def command_lines() -> list[list[str]]:
    """The arguments of each ``cogforge`` line of the sh blocks, continuation
    lines joined and comments dropped."""
    text = "\n".join(blocks("sh")).replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:] for line in text.splitlines()
            if line.startswith("cogforge ")]


def write_inputs(directory: Path) -> None:
    """The six-record fixture under the file names README uses, and a log-prob
    row for each pair id its families yield."""
    dataset = make_dataset()
    write_rows(str(directory / "dataset.jsonl"), (
        {"id": r.id, "problem": r.problem, "answer": r.answer, "reasoning": r.reasoning}
        for r in dataset))
    write_rows(str(directory / "script.jsonl"), (
        {"key": key, "responses": responses} for key, responses in SIX_RECORD_SCRIPT.items()))
    _curated, families, _stats, _discards = run_crv(
        dataset, PipelineConfig(max_concurrency=1), Agents(ScriptedBackend(SIX_RECORD_SCRIPT)))
    pair_ids = [pair.id for family in families for pair in build_pairs(family, BetaSchedule())]
    write_rows(str(directory / "logprobs.jsonl"), (
        {"id": pair_id, "lp_w_theta": -1.0 - n / 10, "lp_w_ref": -1.5, "lp_l_theta": -2.5,
         "lp_l_ref": -2.0}
        for n, pair_id in enumerate(pair_ids)))


def test_python_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (code,) = blocks("python")
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_command_lines_run(tmp_path, monkeypatch, capsys):
    lines = command_lines()
    commands = [next(arg for arg in argv if arg in EXPECTED_EXIT) for argv in lines]
    assert set(commands) == set(EXPECTED_EXIT)
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv, command in zip(lines, commands):
        try:
            code = entrypoint(argv)
        except SystemExit as exc:  # a usage error
            code = exc.code
        assert code == EXPECTED_EXIT[command], (argv, capsys.readouterr().err)


def test_yaml_block_holds_the_defaults(tmp_path):
    (text,) = blocks("yaml")
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    shown, default = load_config(str(path)), AppConfig()
    assert shown.sampling == default.sampling
    assert shown.pipeline == default.pipeline
    assert shown.schedule == default.schedule
    assert shown.templates_dir == default.templates_dir

