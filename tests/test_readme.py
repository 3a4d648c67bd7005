"""README's examples run as written: its ``python`` block, every ``cogforge``
line of its ``sh`` blocks, its ``yaml`` block, which shows the defaults, and
every example of its Refusals table, which is the list of refusals."""

from __future__ import annotations

import re
import shlex
import sys
from pathlib import Path

import pytest
from conftest import SIX_RECORD_SCRIPT, make_dataset, snapshot

from cogforge.agents import Agents
from cogforge.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, entrypoint
from cogforge.config import AppConfig, PipelineConfig, load_config
from cogforge.gateway import ScriptedBackend
from cogforge.jsonl import write_rows
from cogforge.loss import TokenPair, ToyPolicy, cogpo_loss, cogpo_token_loss
from cogforge.pairs import build_pairs
from cogforge.pipeline import checkpoint_fingerprint, input_digests, run_crv
from cogforge.records import BetaSchedule, CoTRecord, GapType, LogProbQuad, RecordFamily

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


def refusal_examples() -> list[tuple[int, str]]:
    """Each backticked example in the last column of the Refusals table, with
    its README line number."""
    examples, section = [], None
    for number, line in enumerate(README.read_text(encoding="utf-8").splitlines(), start=1):
        if line.startswith("## "):
            section = line
        elif section == "## Refusals" and line.startswith("| "):
            examples += [(number, example)
                         for example in re.findall(r"`([^`]+)`", line.rsplit("|", 2)[1])]
    return examples


# The small inputs the refusals are shown on. A family of a medium-rated
# record yields one large-gap pair, r1:large. s.jsonl is an empty script, so a
# request, were one sent, would fail with another text.
DATA = '{"id": "r1", "problem": "p", "answer": "a", "reasoning": "t"}\n'
FAMILY = ('{"id": "r1", "problem": "p", "answer": "a", "original_rating": "medium", '
          '"r_original": "t", "r_corrupted": "x"}\n')
PAIR = '{"id": "r1:large", "gap": "large"}\n'
LP = '{"id": "r1:large", "lp_w_theta": -1, "lp_w_ref": -1, "lp_l_theta": -2, "lp_l_ref": -2}\n'
CURATE = "curate --input data.jsonl --output o.jsonl --mock-script s.jsonl"
CURATED = {"data.jsonl": DATA, "s.jsonl": ""}
PAIRS = "pairs --families fam.jsonl --output p.jsonl"
LOSS = "loss-eval --pairs pairs.jsonl --logprobs lp.jsonl"
# A checkpoint for CURATED under the default config: <fingerprint> and
# <digest> stand for its fingerprint and r1's input digest. ROW is r1's
# outcome, but with 7 attempts where the cap is 3.
RESUME = f"{CURATE} --checkpoint run.ckpt"
HEADER = '{"completed": {}, "fingerprint": "<fingerprint>", "format": "cogforge-checkpoint-v6"}\n'
ROW = ('{"id": "r1", "input": "<digest>", "ratings": [{"rating": "medium"}], "rewrite": null, '
       '"discard_reason": null, "r_corrupted": null, "attempts": 7, "ever_verified": true, '
       '"completions_by_stage": {}, "tokens_by_stage": {}}\n')
# A live curate of DATA through a provider at <url> that answers with REPLY.
LIVE = ("--config live.yaml curate --input data.jsonl --output o.jsonl", {"data.jsonl": DATA,
        "live.yaml": "endpoints: {base: &e {url: '<url>', model: m}, large: *e}"})
REPLY = '{"choices": [{"message": {"content": "medium"}}], "usage": %s}'
POLICY = ToyPolicy(vocab_size=3, n_buckets=2)


def config(text: str, name: str = "c.yaml") -> tuple[str, dict]:
    return f"--config {name} {PAIRS}", {name: text, "fam.jsonl": FAMILY}


def loss(logprobs: str, pairs: str = PAIR) -> tuple[str, dict]:
    return LOSS, {"pairs.jsonl": pairs, "lp.jsonl": logprobs}


def resume(checkpoint: str) -> tuple[str, dict]:
    return RESUME, {**CURATED, "run.ckpt": checkpoint}


# Each example: the argv and the files of a command that prints it, and the
# provider's body for a live one; or for a library example, the call that
# raises it. A file's text is written as UTF-8, but \udcXX as the byte XX; a
# file of None is a directory.
REFUSALS = {
    "error: lp.jsonl:3: missing field 'lp_w_ref'": loss(
        LP + LP.replace("r1", "r2") + LP.replace("r1", "r3").replace(' "lp_w_ref": -1,', "")),
    "error: data.jsonl:1: field 'problem' is not a non-empty string: None": (
        CURATE, {**CURATED, "data.jsonl": DATA.replace('"p"', "null")}),
    "error: f.jsonl:2: field 'original_rating' is not a complexity level: 'Easy'": (
        "pairs --families f.jsonl --output p.jsonl",
        {"f.jsonl": FAMILY + FAMILY.replace('"r1"', '"r2"').replace('"medium"', '"Easy"')}),
    "error: lp.jsonl:3: field 'lp_w_ref' is not a number in float range: '1.5'": loss(
        LP + LP.replace("r1", "r2") + LP.replace("r1", "r3").replace('ref": -1', 'ref": "1.5"')),
    "error: lp.jsonl:1: field 'lp_w_theta' is not a number in float range: nan": loss(
        LP.replace('"lp_w_theta": -1', '"lp_w_theta": NaN')),
    "error: data.jsonl:3: duplicate id 'r1'": (
        CURATE, {**CURATED, "data.jsonl": DATA + DATA.replace("r1", "r2") + DATA}),
    "error: fam.jsonl:3: not valid UTF-8: byte 0xff (invalid start byte)": (
        PAIRS, {"fam.jsonl": FAMILY + FAMILY.replace("r1", "r2") + '{"id": "\udcff"}\n'}),
    "error: fam.jsonl:2: not valid JSON: arrays or objects nested too deeply": (
        PAIRS, {"fam.jsonl": FAMILY + "[" * 100_000 + "\n"}),
    "error: run.ckpt:3: not a checkpoint row": resume(
        HEADER + '{"id": "r1"}\n' + "[" * 100_000 + "\n"),
    "error: malformed provider response: arrays or objects nested too deeply": (
        *LIVE, "[" * 100_000),
    "error: c.yaml: mappings or sequences nested too deeply": config(
        "pipeline: " + "{a: " * sys.getrecursionlimit() + "}" * sys.getrecursionlimit() + "\n"),
    "error: lp.jsonl:1: not valid JSON: an integer literal of more than 4300 digits": loss(
        LP.replace('"lp_w_ref": -1', '"lp_w_ref": ' + "9" * 5000)),
    "error: malformed provider response: an integer literal of more than 4300 digits": (
        *LIVE, REPLY % ('{"prompt_tokens": ' + "9" * 5000 + "}")),
    "error: fam.jsonl:1: field 'r_original' holds a lone surrogate, which UTF-8 cannot encode: "
    "'x\\ud800y'": (PAIRS, {"fam.jsonl": FAMILY.replace('"t"', '"x\\ud800y"')}),
    "error: malformed provider response: content holds a lone surrogate: 're\\ud83dwrite'": (
        *LIVE, (REPLY % "{}").replace('"medium"', '"re\\ud83dwrite"')),
    "error: lp.jsonl: no log-prob row for pair id 'r1:large'": loss(""),
    "error: lp.jsonl: log-prob rows with no matching pair: ['r2:small']": loss(
        LP + LP.replace("r1:large", "r2:small")),
    "error: pairs.jsonl: no pairs": loss("", pairs=""),
    # The first family's pairs are not written either: p.jsonl keeps its bytes.
    "error: fam.jsonl: family r1: r_rewritten: present on a medium-rated family": (PAIRS, {
        "fam.jsonl": FAMILY.replace("r1", "r0") + FAMILY.replace('"t"', '"t", "r_rewritten": "w"'),
        "p.jsonl": "old bytes\n"}),
    "error: --output data.jsonl is the same file as --input; refusing to write over it": (
        CURATE.replace("o.jsonl", "data.jsonl"), CURATED),
    "error: --output fam.jsonl writes through fam.jsonl.tmp, which is --families; refusing to "
    "write over it": ("pairs --families fam.jsonl.tmp --output fam.jsonl",
                      {"fam.jsonl.tmp": FAMILY}),
    "error: --output o.jsonl writes through o.jsonl.tmp, which is a directory; refusing to write "
    "over it": (CURATE, {**CURATED, "o.jsonl.tmp": None}),
    "error: --discards out is a directory; refusing to write over it": (
        f"{CURATE} --discards out", {**CURATED, "out": None}),
    "error: --families nodir/f.jsonl: nodir is not a directory": (
        f"{CURATE} --families nodir/f.jsonl", CURATED),
    "error: c.yaml:2:1: while parsing a flow sequence, expected ',' or ']', but got "
    "'<stream end>'": config("pipeline: [unclosed\n"),
    "error: c.yaml: pipeline: unknown key 'retry_cpa' (did you mean 'retry_cap'?)": config(
        "pipeline: {retry_cpa: 7}\n"),
    "error: sched.yaml: schedule: beta ordering: requires beta_small < beta_medium < "
    "beta_large": config("schedule: {beta_small: 0.5, beta_medium: 0.2}\n", "sched.yaml"),
    "error: cfg.yaml:5: duplicate key 'pipeline'": config(
        "pipeline: {votes: 5}\nschedule:\n  beta_small: 0.1\n  beta_large: 0.9\n"
        "pipeline: {max_concurrency: 2}\n", "cfg.yaml"),
    "error: c.yaml: pipeline: field 'corruption_gate' is not a boolean: 'false'": config(
        "pipeline: {corruption_gate: 'false'}\n"),
    "error: c.yaml: pipeline: field 'retry_cap' is not a whole number >= 1: '7.5'": config(
        "pipeline: {retry_cap: '7.5'}\n"),
    "error: c.yaml: schedule: field 'beta_large' is not a finite number: 'big'": config(
        "schedule: {beta_large: big}\n"),
    "error: c.yaml: sampling: field 'top_p' is not a finite number in (0, 1]: inf": config(
        "sampling: {top_p: .inf}\n"),
    "error: c.yaml: pipeline: field 'verifier_role' is not 'base' or 'large': 'huge'": config(
        "pipeline: {verifier_role: huge}\n"),
    "error: c.yaml: pipeline: field 'checkpoint_path' is not a non-empty string or null: 7": (
        config("pipeline: {checkpoint_path: 7}\n")),
    "error: --checkpoint: field 'checkpoint_path' is not a non-empty string or null: ''": (
        f"{CURATE} --checkpoint ''", CURATED),
    "error: c.yaml: pipeline: field 'checkpoint_path' holds a lone surrogate, which UTF-8 cannot "
    "encode: 'x\\ud800'": config('pipeline: {checkpoint_path: "x\\ud800"}\n'),
    "error: prompts/verifier.txt: empty template": (f"--config c.yaml {CURATE}", {
        **CURATED, "c.yaml": "templates_dir: prompts\n", "prompts/critic.txt": "Rate.\n",
        "prompts/rethinker_easy.txt": "Expand.\n", "prompts/rethinker_hard.txt": "Shorten.\n",
        "prompts/rethinker_incorrect.txt": "Corrupt.\n", "prompts/verifier.txt": "\n"}),
    "error: c.yaml: endpoints.large: field 'model' is not a non-empty string: None": config(
        "endpoints: {large: {url: 'http://h:1/v1', model: null}}\n"),
    "error: no endpoints configured; supply a config file or --mock-script": (
        "curate --input data.jsonl --output o.jsonl", {"data.jsonl": DATA}),
    "error: run.ckpt: line 1 is not a cogforge-checkpoint-v6 header": resume(
        HEADER.replace("v6", "v5")),
    "error: run.ckpt: written for a different config or dataset": resume(
        HEADER.replace("<fingerprint>", "0" * 64)),
    "error: run.ckpt: record 'r1': field 'attempts' is not an integer from 0 to 3: 7": resume(
        HEADER + ROW),
    "error: run.ckpt:3: duplicate id 'r1'": resume(HEADER + ROW + ROW),
    "error: run.ckpt:1: duplicate key 'r1'": resume(HEADER.replace("{}", '{"r1": {}, "r1": {}}')),
    "error: malformed provider response: usage prompt_tokens is 7.9, not a non-negative "
    "integer": (*LIVE, REPLY % '{"prompt_tokens": 7.9}'),
    "ValueError: quads of [3, 4] values in one batch; need 4 values per row": lambda: cogpo_loss(
        [((-1.0, -1.5, -2.5), GapType.SMALL), (LogProbQuad(-1.0, -1.5, -2.5, -2.0), GapType.LARGE)],
        BetaSchedule()),
    "ValueError: schedule: the small gap's beta must be positive, got 0.0": lambda: build_pairs(
        RecordFamily("r1", "p", "a", "easy", "t", "w", "x"), BetaSchedule(beta_small=0.0)),
    "TokenOutOfRange: token 3 outside vocabulary of size 3": lambda: cogpo_token_loss(
        [TokenPair((0,), (3,), (2,), GapType.SMALL)], BetaSchedule(), POLICY, POLICY),
    "TypeError: token 1.0 is not an integer": lambda: cogpo_token_loss(
        [TokenPair((0,), (1.0,), (2,), GapType.SMALL)], BetaSchedule(), POLICY, POLICY),
}


def test_every_scenario_is_a_readme_example_once():
    examples = [example for _line, example in refusal_examples()]
    assert len(examples) == len(set(examples)), "an example README shows twice"
    assert set(REFUSALS) <= set(examples), f"not in README: {set(REFUSALS) - set(examples)}"


@pytest.mark.parametrize("line, example", [pytest.param(*entry, id=entry[1])
                                           for entry in refusal_examples()])
def test_refusal_example_is_what_its_scenario_prints(line, example, tmp_path, monkeypatch,
                                                      capsys, request):
    assert example in REFUSALS, f"README.md:{line}: no scenario for {example!r}"
    scenario = REFUSALS[example]
    if callable(scenario):
        with pytest.raises(Exception) as caught:
            scenario()
        assert f"{type(caught.value).__name__}: {caught.value}" == example
        return
    argv, files, *reply = scenario
    inputs = input_digests([CoTRecord("r1", "p", "a", "t")])
    tokens = {"<digest>": inputs["r1"], "<fingerprint>": checkpoint_fingerprint(
        inputs, PipelineConfig(), Agents(ScriptedBackend({})))}
    if reply:
        request.getfixturevalue("proxy_env")
        server = request.getfixturevalue("http_server")
        server.playbook.append((200, reply[0].encode()))
        tokens["<url>"] = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    for name, content in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        if content is None:
            path.mkdir()
            continue
        for token, value in tokens.items():
            content = content.replace(token, value)
        path.write_bytes(content.encode(errors="surrogateescape"))
    monkeypatch.chdir(tmp_path)
    before = snapshot(tmp_path)
    assert entrypoint(shlex.split(argv)) == EXIT_FATAL
    captured = capsys.readouterr()
    assert snapshot(tmp_path) == before
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[-1] == example and captured.err.endswith("\n")
    assert all(line.startswith("WARNING ") for line in lines[:-1]), captured.err
    for path in tmp_path.glob("*.tmp"):  # the scenario's own, unchanged
        path.rmdir() if path.is_dir() else path.unlink()
