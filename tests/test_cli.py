"""End-to-end command-line tests driven through the real entrypoint."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from cogforge import cli
from cogforge.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, _build_backend, entrypoint
from cogforge.config import load_config
from cogforge.jsonl import dump_row, read_rows

LN2 = 0.6931471805599453


def write_jsonl(path, rows) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(dump_row(row) + "\n")
    return str(path)


def write_script(path, script: dict[str, list[str]]) -> str:
    return write_jsonl(path, [{"key": k, "responses": v} for k, v in script.items()])


def dataset_rows(records) -> list[dict]:
    return [
        {"id": r.id, "problem": r.problem, "answer": r.answer, "reasoning": r.reasoning}
        for r in records
    ]


def last_json_line(capsys) -> dict:
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture
def curate_paths(tmp_path, six_record_dataset, six_record_script):
    input_path = write_jsonl(tmp_path / "input.jsonl", dataset_rows(six_record_dataset))
    script_path = write_script(tmp_path / "script.jsonl", six_record_script)
    return {
        "input": input_path,
        "script": script_path,
        "output": str(tmp_path / "curated.jsonl"),
        "tmp": tmp_path,
    }


class TestCurate:
    def test_six_record_run(self, curate_paths, capsys):
        code = entrypoint([
            "curate",
            "--input", curate_paths["input"],
            "--output", curate_paths["output"],
            "--mock-script", curate_paths["script"],
        ])
        assert code == EXIT_PARTIAL

        curated = list(read_rows(curate_paths["output"]))
        assert [row["id"] for row in curated] == ["r1", "r3", "r5"]
        assert [row["source"] for row in curated] == ["original", "rewritten", "rewritten"]
        assert all(row["verified"] for row in curated)
        assert all("rating" not in row for row in curated)

        discards = list(read_rows(str(curate_paths["tmp"] / "curated.discards.jsonl")))
        assert [row["id"] for row in discards] == ["r2", "r4", "r6"]
        families = list(read_rows(str(curate_paths["tmp"] / "curated.families.jsonl")))
        assert [row["id"] for row in families] == ["r1", "r3", "r5"]
        assert all(row["r_corrupted"] for row in families)

        stats = last_json_line(capsys)
        assert stats["intake_total"] == 6
        assert stats["final_size"] == 3
        assert stats["discarded"] == 3
        assert stats["rewritten"] == 2

    def test_explicit_sidecar_paths(self, curate_paths, capsys):
        discards_path = str(curate_paths["tmp"] / "d.jsonl")
        families_path = str(curate_paths["tmp"] / "f.jsonl")
        code = entrypoint([
            "curate",
            "--input", curate_paths["input"],
            "--output", curate_paths["output"],
            "--discards", discards_path,
            "--families", families_path,
            "--mock-script", curate_paths["script"],
        ])
        assert code == EXIT_PARTIAL
        assert len(list(read_rows(discards_path))) == 3
        assert len(list(read_rows(families_path))) == 3

    def test_empty_input_is_clean(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "empty.jsonl", [])
        script_path = write_script(tmp_path / "script.jsonl", {})
        code = entrypoint([
            "curate",
            "--input", input_path,
            "--output", str(tmp_path / "out.jsonl"),
            "--mock-script", script_path,
        ])
        assert code == EXIT_OK
        assert last_json_line(capsys)["intake_total"] == 0

    def test_missing_input_is_fatal(self, tmp_path, capsys):
        script_path = write_script(tmp_path / "script.jsonl", {})
        code = entrypoint([
            "curate",
            "--input", str(tmp_path / "absent.jsonl"),
            "--output", str(tmp_path / "out.jsonl"),
            "--mock-script", script_path,
        ])
        assert code == EXIT_FATAL
        assert "error:" in capsys.readouterr().err

    def test_no_backend_is_fatal(self, tmp_path, six_record_dataset, capsys):
        input_path = write_jsonl(tmp_path / "in.jsonl", dataset_rows(six_record_dataset))
        code = entrypoint([
            "curate", "--input", input_path, "--output", str(tmp_path / "out.jsonl"),
        ])
        assert code == EXIT_FATAL
        assert "endpoints" in capsys.readouterr().err

    def test_malformed_input_row_is_fatal(self, tmp_path, capsys):
        input_path = write_jsonl(tmp_path / "in.jsonl", [{"id": "r1", "problem": "p"}])
        script_path = write_script(tmp_path / "script.jsonl", {})
        code = entrypoint([
            "curate",
            "--input", input_path,
            "--output", str(tmp_path / "out.jsonl"),
            "--mock-script", script_path,
        ])
        assert code == EXIT_FATAL
        assert "missing field" in capsys.readouterr().err


class TestCurateResume:
    def run_baseline(self, curate_paths) -> dict[str, bytes]:
        tmp = curate_paths["tmp"]
        out = str(tmp / "baseline.jsonl")
        code = entrypoint([
            "curate",
            "--input", curate_paths["input"],
            "--output", out,
            "--mock-script", curate_paths["script"],
        ])
        assert code == EXIT_PARTIAL
        return {
            "curated": (tmp / "baseline.jsonl").read_bytes(),
            "discards": (tmp / "baseline.discards.jsonl").read_bytes(),
            "families": (tmp / "baseline.families.jsonl").read_bytes(),
        }

    def test_interrupt_then_resume_is_byte_identical(
        self, curate_paths, six_record_script, tmp_path, capsys
    ):
        baseline = self.run_baseline(curate_paths)
        summary = capsys.readouterr().out.splitlines()[-1]

        config_path = tmp_path / "serial.yaml"
        config_path.write_text(
            yaml.safe_dump({"pipeline": {"max_concurrency": 1}}), encoding="utf-8"
        )
        partial = {
            key: responses
            for key, responses in six_record_script.items()
            if key.endswith((":r1", ":r2", ":r3"))
        }
        partial_path = write_script(tmp_path / "partial.jsonl", partial)
        checkpoint_path = str(tmp_path / "run.checkpoint.json")
        out = str(curate_paths["tmp"] / "resumed.jsonl")

        code = entrypoint([
            "--config", str(config_path),
            "curate",
            "--input", curate_paths["input"],
            "--output", out,
            "--checkpoint", checkpoint_path,
            "--mock-script", partial_path,
        ])
        assert code == EXIT_FATAL
        with open(checkpoint_path, encoding="utf-8") as handle:
            saved = json.load(handle)
        assert set(saved["completed"]) == {"r1", "r2", "r3"}

        code = entrypoint([
            "--config", str(config_path),
            "curate",
            "--input", curate_paths["input"],
            "--output", out,
            "--checkpoint", checkpoint_path,
            "--mock-script", curate_paths["script"],
        ])
        assert code == EXIT_PARTIAL
        tmp = curate_paths["tmp"]
        assert (tmp / "resumed.jsonl").read_bytes() == baseline["curated"]
        assert (tmp / "resumed.discards.jsonl").read_bytes() == baseline["discards"]
        assert (tmp / "resumed.families.jsonl").read_bytes() == baseline["families"]
        # The resumed summary counts the agent calls of both runs.
        assert capsys.readouterr().out.splitlines()[-1] == summary

    def test_checkpoint_from_another_config_or_input_is_fatal(
        self, curate_paths, six_record_dataset, tmp_path, capsys
    ):
        checkpoint_path = str(tmp_path / "run.checkpoint.json")

        def curate(input_path, *extra):
            return entrypoint([
                *extra, "curate",
                "--input", input_path,
                "--output", str(tmp_path / "out.jsonl"),
                "--checkpoint", checkpoint_path,
                "--mock-script", curate_paths["script"],
            ])

        assert curate(curate_paths["input"]) == EXIT_PARTIAL
        config_path = tmp_path / "cap2.yaml"
        config_path.write_text(yaml.safe_dump({"pipeline": {"retry_cap": 2}}), encoding="utf-8")
        assert curate(curate_paths["input"], "--config", str(config_path)) == EXIT_FATAL
        assert "different config or dataset" in capsys.readouterr().err

        rows = dataset_rows(six_record_dataset)
        rows[0]["reasoning"] = "trace 1, edited"
        edited = write_jsonl(tmp_path / "edited.jsonl", rows)
        assert curate(edited) == EXIT_FATAL
        assert "different config or dataset" in capsys.readouterr().err


def family_rows() -> list[dict]:
    return [
        {
            "id": "fam-easy", "problem": "p1", "answer": "a1",
            "original_rating": "easy", "r_original": "short trace",
            "r_rewritten": "expanded trace", "r_corrupted": "wrong trace",
        },
        {
            "id": "fam-medium", "problem": "p2", "answer": "a2",
            "original_rating": "medium", "r_original": "medium trace",
            "r_rewritten": None, "r_corrupted": "broken trace",
        },
    ]


class TestBuildBackend:
    @pytest.mark.parametrize("concurrency, pooled", [(16, 16), (4, 10)])
    def test_http_pool_holds_a_connection_per_worker(self, tmp_path, concurrency, pooled):
        url = "https://gateway.example.com/v1/chat/completions"
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump({
            "endpoints": {"large": {"url": url, "model": "m"}},
            "pipeline": {"max_concurrency": concurrency},
        }))
        with _build_backend(load_config(str(config_path)), None) as backend:
            adapter = backend._session.get_adapter(url)
            assert adapter.poolmanager.connection_pool_kw["maxsize"] == pooled

    def test_curate_closes_the_http_backend(self, tmp_path, monkeypatch, capsys):
        closed = []
        monkeypatch.setattr(cli.HTTPBackend, "close", lambda self: closed.append(self))
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump({
            "endpoints": {"large": {"url": "http://127.0.0.1:9/v1", "model": "m"}},
        }))
        code = entrypoint([
            "--config", str(config_path), "curate",
            "--input", write_jsonl(tmp_path / "empty.jsonl", []),
            "--output", str(tmp_path / "out.jsonl"),
        ])
        assert code == EXIT_OK
        assert len(closed) == 1


class TestPairs:
    def test_standard_two_family_fixture(self, tmp_path, capsys):
        families_path = write_jsonl(tmp_path / "families.jsonl", family_rows())
        output_path = str(tmp_path / "pairs.jsonl")
        code = entrypoint(["pairs", "--families", families_path, "--output", output_path])
        assert code == EXIT_OK

        rows = list(read_rows(output_path))
        assert len(rows) == 4
        by_gap: dict[str, int] = {}
        for row in rows:
            by_gap[row["gap"]] = by_gap.get(row["gap"], 0) + 1
        assert by_gap == {"small": 1, "medium": 1, "large": 2}
        assert {row["id"] for row in rows} == {
            "fam-easy:small", "fam-easy:medium", "fam-easy:large", "fam-medium:large",
        }
        betas = {row["gap"]: row["beta"] for row in rows}
        assert betas == {"small": 0.1, "medium": 0.2, "large": 0.5}

        summary = last_json_line(capsys)
        assert summary == {
            "by_gap": {"large": 2, "medium": 1, "small": 1},
            "families": 2, "pairs": 4, "skipped": 0,
        }

    def test_family_without_members_is_skipped(self, tmp_path, capsys):
        rows = [{
            "id": "lonely", "problem": "p", "answer": "a",
            "original_rating": "medium", "r_original": "only trace",
            "r_rewritten": None, "r_corrupted": None,
        }]
        families_path = write_jsonl(tmp_path / "families.jsonl", rows)
        output_path = str(tmp_path / "pairs.jsonl")
        code = entrypoint(["pairs", "--families", families_path, "--output", output_path])
        assert code == EXIT_OK
        assert list(read_rows(output_path)) == []
        summary = last_json_line(capsys)
        assert summary["skipped"] == 1
        assert summary["pairs"] == 0
        assert summary["by_gap"] == {"small": 0, "medium": 0, "large": 0}

    def test_schedule_from_config(self, tmp_path, capsys):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(
            yaml.safe_dump({"schedule": {"beta_small": 0.2, "beta_medium": 0.4, "beta_large": 0.8}}),
            encoding="utf-8",
        )
        families_path = write_jsonl(tmp_path / "families.jsonl", family_rows())
        output_path = str(tmp_path / "pairs.jsonl")
        code = entrypoint([
            "--config", str(config_path), "pairs",
            "--families", families_path, "--output", output_path,
        ])
        assert code == EXIT_OK
        betas = {row["gap"]: row["beta"] for row in read_rows(output_path)}
        assert betas == {"small": 0.2, "medium": 0.4, "large": 0.8}

    def test_each_family_is_built_before_the_next_is_read(self, tmp_path, monkeypatch):
        events = []
        read_rows_, build_pairs_ = cli.read_rows, cli.build_pairs

        def traced_read_rows(*args, **kwargs):
            for row in read_rows_(*args, **kwargs):
                events.append(("read", row["id"]))
                yield row

        def traced_build_pairs(family, schedule):
            events.append(("build", family.id))
            return build_pairs_(family, schedule)

        monkeypatch.setattr(cli, "read_rows", traced_read_rows)
        monkeypatch.setattr(cli, "build_pairs", traced_build_pairs)
        families_path = write_jsonl(tmp_path / "families.jsonl", family_rows())
        code = entrypoint(["pairs", "--families", families_path,
                           "--output", str(tmp_path / "pairs.jsonl")])
        assert code == EXIT_OK
        assert events == [
            ("read", "fam-easy"), ("build", "fam-easy"),
            ("read", "fam-medium"), ("build", "fam-medium"),
        ]

    def test_failed_run_leaves_output_untouched(self, tmp_path, capsys):
        invalid = dict(family_rows()[1], r_rewritten="a rewrite a medium family cannot have")
        families_path = write_jsonl(tmp_path / "families.jsonl", [family_rows()[0], invalid])
        output = tmp_path / "pairs.jsonl"
        output.write_bytes(b"old bytes\n")
        code = entrypoint(["pairs", "--families", families_path, "--output", str(output)])
        assert code == EXIT_FATAL
        assert "fam-medium" in capsys.readouterr().err
        assert output.read_bytes() == b"old bytes\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "families.jsonl", "pairs.jsonl",
        ]


def pair_row(pair_id: str, gap: str) -> dict:
    return {
        "id": pair_id, "prompt": "p", "chosen": f"c-{pair_id}",
        "rejected": f"r-{pair_id}", "gap": gap, "beta": 0.0,
    }


def logprob_row(pair_id: str, diff: float = 0.0) -> dict:
    return {
        "id": pair_id, "lp_w_theta": diff, "lp_w_ref": 0.0,
        "lp_l_theta": 0.0, "lp_l_ref": 0.0,
    }


class TestLossEval:
    def test_zero_margins_give_ln2(self, tmp_path, capsys):
        pairs_path = write_jsonl(
            tmp_path / "pairs.jsonl",
            [pair_row("a", "small"), pair_row("b", "large")],
        )
        logprobs_path = write_jsonl(
            tmp_path / "lp.jsonl", [logprob_row("a"), logprob_row("b")]
        )
        code = entrypoint(["loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path])
        assert code == EXIT_OK
        summary = last_json_line(capsys)
        assert abs(summary["loss"] - LN2) < 1e-12
        assert summary["count"] == 2
        assert summary["mean_margin_by_gap"] == {"large": 0.0, "small": 0.0}

    def test_mixed_gap_fixture_value(self, tmp_path, capsys):
        pairs_path = write_jsonl(
            tmp_path / "pairs.jsonl",
            [pair_row("a", "small"), pair_row("b", "medium"), pair_row("c", "large")],
        )
        logprobs_path = write_jsonl(
            tmp_path / "lp.jsonl",
            [logprob_row("a", 5.0), logprob_row("b", 5.0), logprob_row("c", 5.0)],
        )
        report_path = str(tmp_path / "report.jsonl")
        code = entrypoint([
            "loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path,
            "--output", report_path,
        ])
        assert code == EXIT_OK
        summary = last_json_line(capsys)
        assert abs(summary["loss"] - 0.28874280199695973) < 1e-12
        assert summary["mean_margin_by_gap"]["small"] == pytest.approx(0.5, abs=1e-12)
        assert summary["mean_margin_by_gap"]["large"] == pytest.approx(2.5, abs=1e-12)

        rows = list(read_rows(report_path))
        assert [row["id"] for row in rows] == ["a", "b", "c"]
        assert rows[0]["beta"] == 0.1
        assert abs(rows[1]["loss_term"] - math.log1p(math.exp(-1.0))) < 1e-12

    def test_schedule_override(self, tmp_path, capsys):
        schedule_path = tmp_path / "sched.yaml"
        schedule = {"beta_small": 0.3, "beta_medium": 0.4, "beta_large": 0.9}
        schedule_path.write_text(yaml.safe_dump({"schedule": schedule}), encoding="utf-8")
        pairs_path = write_jsonl(tmp_path / "pairs.jsonl", [pair_row("a", "small")])
        logprobs_path = write_jsonl(tmp_path / "lp.jsonl", [logprob_row("a", 1.0)])
        code = entrypoint([
            "--config", str(schedule_path),
            "loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path,
        ])
        assert code == EXIT_OK
        summary = last_json_line(capsys)
        assert abs(summary["mean_margin_by_gap"]["small"] - 0.3) < 1e-12

    def test_malformed_yaml_is_a_config_error(self, tmp_path, capsys):
        bad_path = tmp_path / "bad.yaml"
        bad_path.write_text("pipeline: [unclosed\n", encoding="utf-8")
        pairs_path = write_jsonl(tmp_path / "pairs.jsonl", [pair_row("a", "small")])
        logprobs_path = write_jsonl(tmp_path / "lp.jsonl", [logprob_row("a")])
        code = entrypoint([
            "--config", str(bad_path),
            "loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path,
        ])
        assert code == EXIT_FATAL
        assert capsys.readouterr().err.startswith(f"error: {bad_path}: while parsing")

    def test_join_mismatch_is_fatal(self, tmp_path, capsys):
        pairs_path = write_jsonl(
            tmp_path / "pairs.jsonl", [pair_row("a", "small"), pair_row("b", "large")]
        )
        logprobs_path = write_jsonl(tmp_path / "lp.jsonl", [logprob_row("a")])
        code = entrypoint(["loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path])
        assert code == EXIT_FATAL
        assert "error:" in capsys.readouterr().err


def without(row: dict, field: str) -> dict:
    return {key: value for key, value in row.items() if key != field}


class TestMalformedRows:
    """A row the command cannot use is an `error:` naming the file and field."""

    @pytest.mark.parametrize("file, rows, field", [
        pytest.param("families", [without(family_rows()[0], "r_original")], "r_original",
                     id="family-without-r_original"),
        pytest.param("logprobs", [without(logprob_row("a"), "id")], "id",
                     id="logprob-without-id"),
        pytest.param("logprobs", [without(logprob_row("a"), "lp_l_ref")], "lp_l_ref",
                     id="logprob-without-lp_l_ref"),
        pytest.param("logprobs", [dict(logprob_row("a"), lp_w_theta=None)], "lp_w_theta",
                     id="logprob-null-value"),
        pytest.param("pairs", [without(pair_row("a", "small"), "gap")], "gap",
                     id="pair-without-gap"),
    ])
    def test_malformed_row_is_fatal(self, tmp_path, capsys, file, rows, field):
        paths = {
            "families": write_jsonl(tmp_path / "families.jsonl", family_rows()),
            "pairs": write_jsonl(tmp_path / "pairs.jsonl", [pair_row("a", "small")]),
            "logprobs": write_jsonl(tmp_path / "logprobs.jsonl", [logprob_row("a")]),
        }
        paths[file] = write_jsonl(tmp_path / f"{file}.jsonl", rows)
        if file == "families":
            argv = ["pairs", "--families", paths["families"],
                    "--output", str(tmp_path / "out.jsonl")]
        else:
            argv = ["loss-eval", "--pairs", paths["pairs"], "--logprobs", paths["logprobs"]]
        assert entrypoint(argv) == EXIT_FATAL
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[file]}:1: ")
        assert repr(field) in err


class TestSelftest:
    def test_clean_run_passes(self, capsys):
        code = entrypoint(["selftest"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "FAIL" not in out
        for name in ("gradient-check", "negative-control", "reduction", "stability", "prompt-golden"):
            assert name in out

    def test_injected_fault_is_caught(self, capsys):
        code = entrypoint(["selftest", "--inject-gradient-fault"])
        out = capsys.readouterr().out
        assert code == EXIT_FATAL
        assert any(line.startswith("gradient-check") and "FAIL" in line for line in out.splitlines())


    def test_python_m_cogforge_runs_selftest(self):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "cogforge", "selftest"], cwd=root, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == EXIT_OK, result.stderr
        assert "prompt-golden" in result.stdout


class TestColdStart:
    def test_curate_and_pairs_import_neither_numpy_nor_requests(self, tmp_path):
        # Nor yaml, without --config.
        # A None entry in sys.modules makes any import of that name fail.
        root = Path(__file__).resolve().parent.parent
        families = write_jsonl(tmp_path / "families.jsonl", [])
        dataset = write_jsonl(tmp_path / "dataset.jsonl", [])
        script = write_script(tmp_path / "script.jsonl", {})
        program = "\n".join([
            "import sys",
            "sys.modules['numpy'] = None",
            "sys.modules['requests'] = None",
            "sys.modules['yaml'] = None",
            "import cogforge",
            "from cogforge.cli import entrypoint",
            f"assert entrypoint(['pairs', '--families', {families!r},"
            f" '--output', {str(tmp_path / 'pairs.jsonl')!r}]) == 0",
            f"assert entrypoint(['curate', '--mock-script', {script!r}, '--input', {dataset!r},"
            f" '--output', {str(tmp_path / 'curated.jsonl')!r}]) == 0",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", program], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestParser:
    def test_missing_subcommand_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit):
            entrypoint([])

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit):
            entrypoint(["transmogrify"])

    # argparse's own usage-error status, 2, would read as EXIT_PARTIAL.
    @pytest.mark.parametrize("argv", [
        ["loss-eval", "--pairs", "p.jsonl", "--logprobs", "l.jsonl", "--schedule", "s.yaml"],
        ["pairs", "--families", "f.jsonl", "--output", "p.jsonl", "--no-such-flag"],
    ], ids=["removed-flag", "unknown-flag"])
    def test_unknown_flag_exits_fatal(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            entrypoint(argv)
        assert info.value.code == EXIT_FATAL
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_required_flag_exits_fatal(self, capsys):
        with pytest.raises(SystemExit) as info:
            entrypoint(["pairs"])
        assert info.value.code == EXIT_FATAL
        assert "required" in capsys.readouterr().err

    def test_help_still_exits_clean(self, capsys):
        with pytest.raises(SystemExit) as info:
            entrypoint(["--help"])
        assert info.value.code == EXIT_OK
