"""End-to-end command-line tests driven through the real entrypoint."""

from __future__ import annotations

import builtins
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection
from pathlib import Path

import pytest
import yaml
from conftest import SIX_RECORD_SCRIPT, make_dataset

from cogforge import cli, jsonl
from cogforge.agents import TEMPLATE_NAMES, PromptTemplate, load_templates
from cogforge.cli import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    _build_backend,
    entrypoint,
)
from cogforge.config import load_config
from cogforge.gateway import ChatRequest, ModelRole, ScriptedBackend
from cogforge.jsonl import dump_row, read_rows
from cogforge.records import LogProbQuad

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


def fail_writes_after(monkeypatch, rows: int) -> None:
    """Make the JSONL writer raise OSError once ``rows`` rows are written."""
    real_dump_row = jsonl.dump_row
    dumped = []

    def dump_row(row):
        if len(dumped) == rows:
            raise OSError("disk full")
        dumped.append(row)
        return real_dump_row(row)

    monkeypatch.setattr(jsonl, "dump_row", dump_row)


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

        curated = list(read_rows(curate_paths["output"], {}, key=None))
        assert [row["id"] for row in curated] == ["r1", "r3", "r5"]
        assert [row["source"] for row in curated] == ["original", "rewritten", "rewritten"]
        assert all(row["verified"] for row in curated)
        assert all("rating" not in row for row in curated)

        discards = list(read_rows(str(curate_paths["tmp"] / "curated.discards.jsonl"), {},
                                  key=None))
        assert [row["id"] for row in discards] == ["r2", "r4", "r6"]
        families = list(read_rows(str(curate_paths["tmp"] / "curated.families.jsonl"), {},
                                  key=None))
        assert [row["id"] for row in families] == ["r1", "r3", "r5"]
        assert all(row["r_corrupted"] for row in families)

        stats = last_json_line(capsys)
        assert stats["intake_total"] == 6
        assert stats["final_size"] == 3
        assert stats["discarded"] == 3
        assert stats["rewritten"] == 2

    @pytest.mark.parametrize("field, value", [
        ("id", ["r2"]), ("id", {"id": "r2"}), ("id", 2), ("id", 2.5), ("id", True), ("id", ""),
        ("problem", 5), ("answer", ["a"]), ("reasoning", {"text": "t"}), ("reasoning", False),
    ])
    def test_badly_typed_input_row_is_one_error_line(self, tmp_path, capsys, six_record_dataset,
                                                     field, value):
        """The row is refused before any backend call: with the empty script,
        a call would fail on a missing key instead."""
        rows = dataset_rows(six_record_dataset)
        rows[1][field] = value
        input_path = write_jsonl(tmp_path / "input.jsonl", rows)
        output = tmp_path / "curated.jsonl"
        code = entrypoint(["curate", "--input", input_path, "--output", str(output),
                           "--mock-script", write_script(tmp_path / "empty.jsonl", {})])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {input_path}:2: field {field!r} is not a non-empty "
                                f"string: {value!r}\n")
        assert not output.exists()

    def test_repeated_input_id_is_refused_naming_its_file(self, tmp_path, capsys,
                                                          six_record_dataset):
        rows = dataset_rows(six_record_dataset)
        rows[3]["id"] = "r1"
        input_path = write_jsonl(tmp_path / "input.jsonl", rows)
        output = tmp_path / "curated.jsonl"
        code = entrypoint(["curate", "--input", input_path, "--output", str(output),
                           "--mock-script", write_script(tmp_path / "empty.jsonl", {})])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {input_path}:4: duplicate id 'r1'\n"
        assert not output.exists()

    @pytest.mark.parametrize("text", ["", "\n"], ids=["empty", "newline"])
    def test_empty_template_is_refused_before_any_request(self, curate_paths, monkeypatch,
                                                          capsys, text):
        tmp = curate_paths["tmp"]
        templates_dir = tmp / "templates"
        templates_dir.mkdir()
        for name, template in load_templates().items():
            (templates_dir / f"{name}.txt").write_text(template.system_text + "\n")
        (templates_dir / "verifier.txt").write_text(text)
        config = tmp / "config.yaml"
        config.write_text(yaml.safe_dump({"templates_dir": str(templates_dir)}))
        requests = []
        monkeypatch.setattr(ScriptedBackend, "complete", requests.append)
        code = entrypoint([
            "--config", str(config), "curate",
            "--input", curate_paths["input"],
            "--output", curate_paths["output"],
            "--mock-script", curate_paths["script"],
            "--checkpoint", str(tmp / "run.ckpt"),
        ])
        assert code == EXIT_FATAL
        assert capsys.readouterr().err == (
            f"error: {templates_dir / 'verifier.txt'}: empty template\n")
        assert requests == []
        assert sorted(path.name for path in tmp.iterdir()) == [
            "config.yaml", "input.jsonl", "script.jsonl", "templates"]

    def test_template_that_is_not_utf8_is_refused_naming_its_file(self, curate_paths, capsys):
        tmp = curate_paths["tmp"]
        templates_dir = tmp / "templates"
        templates_dir.mkdir()
        for name, template in load_templates().items():
            (templates_dir / f"{name}.txt").write_text(template.system_text + "\n")
        (templates_dir / "critic.txt").write_bytes(b"Rate the trace.\n\xff\n")
        config = tmp / "config.yaml"
        config.write_text(yaml.safe_dump({"templates_dir": str(templates_dir)}))
        code = entrypoint([
            "--config", str(config), "curate",
            "--input", curate_paths["input"],
            "--output", curate_paths["output"],
            "--mock-script", curate_paths["script"],
        ])
        assert code == EXIT_FATAL
        assert capsys.readouterr().err == (
            f"error: {templates_dir / 'critic.txt'}:2: not valid UTF-8: byte 0xff "
            "(invalid start byte)\n")
        assert not os.path.exists(curate_paths["output"])

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
        assert len(list(read_rows(discards_path, {}, key=None))) == 3
        assert len(list(read_rows(families_path, {}, key=None))) == 3

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

    def test_path_setting_that_is_no_string_is_one_error_line(self, curate_paths, monkeypatch,
                                                              capsys):
        """Refused at load: an int path would be read as a file descriptor."""
        tmp = curate_paths["tmp"]
        monkeypatch.chdir(tmp)
        config = tmp / "config.yaml"
        config.write_text("pipeline:\n  checkpoint_path: 7\n", encoding="utf-8")
        code = entrypoint([
            "--config", str(config), "curate",
            "--input", curate_paths["input"],
            "--output", curate_paths["output"],
            "--mock-script", curate_paths["script"],
        ])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {config}: pipeline: field 'checkpoint_path' is not a "
                                "non-empty string or null: 7\n")
        assert sorted(path.name for path in tmp.iterdir()) == [
            "config.yaml", "input.jsonl", "script.jsonl"]

    @pytest.mark.parametrize("config_text, flags, text", [
        ("pipeline:\n  checkpoint_path: ''\n", [], "{config}: pipeline: field 'checkpoint_path'"),
        ("templates_dir: ''\n", [], "{config}: field 'templates_dir'"),
        ("", ["--checkpoint", ""], "--checkpoint: field 'checkpoint_path'"),
    ], ids=["checkpoint_path", "templates_dir", "--checkpoint"])
    def test_empty_path_setting_is_one_error_line(self, curate_paths, monkeypatch, capsys,
                                                  config_text, flags, text):
        """An empty path would run without a checkpoint, or read the templates
        from the working directory."""
        tmp = curate_paths["tmp"]
        monkeypatch.chdir(tmp)
        config = tmp / "config.yaml"
        config.write_text(config_text, encoding="utf-8")
        code = entrypoint([
            "--config", str(config), "curate",
            "--input", curate_paths["input"],
            "--output", curate_paths["output"],
            "--mock-script", curate_paths["script"], *flags,
        ])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {text.format(config=config)} is not a non-empty string "
                                "or null: ''\n")
        assert sorted(path.name for path in tmp.iterdir()) == [
            "config.yaml", "input.jsonl", "script.jsonl"]

    @pytest.mark.parametrize("config_text, text", [
        ('pipeline:\n  checkpoint_path: "x\\ud800"\n',
         "pipeline: field 'checkpoint_path' holds a lone surrogate, which UTF-8 cannot encode: "
         "'x\\ud800'"),
        ('templates_dir: "t\\ud800"\n',
         "field 'templates_dir' holds a lone surrogate, which UTF-8 cannot encode: 't\\ud800'"),
    ], ids=["checkpoint_path", "templates_dir"])
    def test_path_setting_the_file_system_cannot_encode_is_one_error_line(
            self, curate_paths, monkeypatch, capsys, config_text, text):
        """Refused at load, naming the file and the setting, not when the path is opened."""
        tmp = curate_paths["tmp"]
        monkeypatch.chdir(tmp)
        config = tmp / "config.yaml"
        config.write_text(config_text, encoding="utf-8")
        code = entrypoint([
            "--config", str(config), "curate",
            "--input", curate_paths["input"],
            "--output", curate_paths["output"],
            "--mock-script", curate_paths["script"],
        ])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}: {text}\n"
        assert sorted(path.name for path in tmp.iterdir()) == [
            "config.yaml", "input.jsonl", "script.jsonl"]

    def test_checkpoint_path_of_bytes_from_argv_is_taken(self, curate_paths, capsys):
        """argv decodes a byte that is no UTF-8 to a surrogate that os.fsencode
        turns back into the byte: a valid file name."""
        checkpoint = os.path.join(curate_paths["tmp"], os.fsdecode(b"ck\xff"))
        code = entrypoint([
            "curate", "--input", curate_paths["input"], "--output", curate_paths["output"],
            "--mock-script", curate_paths["script"], "--checkpoint", checkpoint,
        ])
        assert code == EXIT_PARTIAL, capsys.readouterr().err
        assert b"ck\xff" in os.listdir(os.fsencode(curate_paths["tmp"]))

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
        assert capsys.readouterr().err == f"error: {input_path}:1: missing field 'answer'\n"

    def test_malformed_script_row_is_fatal(self, tmp_path, six_record_dataset, capsys):
        input_path = write_jsonl(tmp_path / "in.jsonl", dataset_rows(six_record_dataset))
        script_path = write_jsonl(tmp_path / "script.jsonl", [{"key": "critic:r1", "responses": 5}])
        code = entrypoint([
            "curate", "--input", input_path, "--output", str(tmp_path / "out.jsonl"),
            "--mock-script", script_path,
        ])
        assert code == EXIT_FATAL
        assert capsys.readouterr().err == (
            f"error: {script_path}:1: field 'responses' is not a list of strings: 5\n")

    @pytest.mark.parametrize("failing, rows_before", [(0, 1), (1, 4), (2, 7)],
                             ids=["curated", "discards", "families"])
    def test_failed_write_leaves_that_output_untouched(
        self, curate_paths, monkeypatch, capsys, failing, rows_before
    ):
        """Each output (three rows apiece here) is replaced on its own: those
        written before the failing one are new, it and the rest are as they were."""
        tmp = curate_paths["tmp"]
        outputs = [tmp / "curated.jsonl", tmp / "curated.discards.jsonl",
                   tmp / "curated.families.jsonl"]
        for path in outputs:
            path.write_bytes(b"old bytes\n")
        fail_writes_after(monkeypatch, rows_before)
        code = entrypoint([
            "curate",
            "--input", curate_paths["input"],
            "--output", curate_paths["output"],
            "--mock-script", curate_paths["script"],
        ])
        assert code == EXIT_FATAL
        assert "disk full" in capsys.readouterr().err
        assert [path.read_bytes() == b"old bytes\n" for path in outputs] == [
            index >= failing for index in range(3)
        ]
        assert sorted(path.name for path in tmp.iterdir()) == sorted(
            ["input.jsonl", "script.jsonl"] + [path.name for path in outputs]
        )


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

        # Templates and sampling shape the responses too.
        templates_dir = tmp_path / "templates"
        templates_dir.mkdir()
        for name in TEMPLATE_NAMES:
            text = load_templates()[name].system_text
            (templates_dir / f"{name}.txt").write_text(
                text + (" Be brief." if name == "critic" else "") + "\n", encoding="utf-8"
            )
        for changed in ({"templates_dir": str(templates_dir)},
                        {"sampling": {"temperature": 0.0}}):
            config_path.write_text(yaml.safe_dump(changed), encoding="utf-8")
            assert curate(curate_paths["input"], "--config", str(config_path)) == EXIT_FATAL
            assert "different config or dataset" in capsys.readouterr().err

    def test_family_of_another_record_is_fatal(self, curate_paths, tmp_path, capsys):
        checkpoint_path = tmp_path / "run.checkpoint.json"
        argv = [
            "curate",
            "--input", curate_paths["input"],
            "--output", str(tmp_path / "out.jsonl"),
            "--checkpoint", str(checkpoint_path),
            "--mock-script", curate_paths["script"],
        ]
        assert entrypoint(argv) == EXIT_PARTIAL
        header = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        completed = header["completed"]
        # A v4-shaped row: a status and r3's family, no r_corrupted.
        del completed["r1"]["r_corrupted"]
        completed["r1"].update(status="accepted_rewritten", family={"id": "r3"})
        checkpoint_path.write_text(dump_row(header) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert entrypoint(argv) == EXIT_FATAL
        assert "record 'r1': missing field 'r_corrupted'" in capsys.readouterr().err

    def test_accepted_row_without_a_rating_is_fatal(self, curate_paths, tmp_path, capsys):
        checkpoint_path = tmp_path / "run.checkpoint.json"
        argv = [
            "curate",
            "--input", curate_paths["input"],
            "--output", str(tmp_path / "out.jsonl"),
            "--checkpoint", str(checkpoint_path),
            "--mock-script", curate_paths["script"],
        ]
        assert entrypoint(argv) == EXIT_PARTIAL
        header = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        row = header["completed"]["r1"]
        assert row["discard_reason"] is None
        row["ratings"] = []
        checkpoint_path.write_text(dump_row(header) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert entrypoint(argv) == EXIT_FATAL
        err = capsys.readouterr().err
        assert ("record 'r1': accepted, but not after a verified attempt ending rated medium"
                in err)
        assert "ComplexityLevel" not in err

    def test_discarded_row_with_a_bogus_rating_is_fatal(self, curate_paths, tmp_path, capsys):
        checkpoint_path = tmp_path / "run.checkpoint.json"
        argv = [
            "curate",
            "--input", curate_paths["input"],
            "--output", str(tmp_path / "out.jsonl"),
            "--checkpoint", str(checkpoint_path),
            "--mock-script", curate_paths["script"],
        ]
        assert entrypoint(argv) == EXIT_PARTIAL
        header = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        row = header["completed"]["r2"]
        assert row["discard_reason"] is not None
        row["ratings"][0]["rating"] = "bogus"
        checkpoint_path.write_text(dump_row(header) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert entrypoint(argv) == EXIT_FATAL
        captured = capsys.readouterr()
        assert ("record 'r2': field 'ratings' is not a list of objects whose rating is a "
                "complexity level: " in captured.err)
        assert "bogus" not in captured.out

    def test_rewritten_row_over_the_retry_cap_is_fatal(self, curate_paths, tmp_path, capsys):
        """An accepted rewrite claiming more attempts than retry_cap would be
        curated with that rewrite_count. The run refuses it before r6 is walked:
        with the empty script, any backend call would fail on r6 instead."""
        checkpoint_path = tmp_path / "run.checkpoint.json"
        argv = [
            "curate",
            "--input", curate_paths["input"],
            "--output", str(tmp_path / "out.jsonl"),
            "--checkpoint", str(checkpoint_path),
        ]
        assert entrypoint([*argv, "--mock-script", curate_paths["script"]]) == EXIT_PARTIAL
        header = json.loads(checkpoint_path.read_text(encoding="utf-8"))
        completed = header["completed"]
        assert completed["r5"]["rewrite"] is not None
        completed["r5"]["attempts"] = 99
        del completed["r6"]
        checkpoint_path.write_text(dump_row(header) + "\n", encoding="utf-8")
        (tmp_path / "out.jsonl").unlink()
        capsys.readouterr()
        empty_script = write_script(tmp_path / "empty.jsonl", {})
        assert entrypoint([*argv, "--mock-script", empty_script]) == EXIT_FATAL
        err = capsys.readouterr().err
        assert "record 'r5': field 'attempts' is not an integer from 0 to 3: 99" in err
        assert "r6" not in err
        assert not (tmp_path / "out.jsonl").exists()


# What a refusal says each field of a families, pairs or log-prob row "is not".
FIELD_WORDS = {
    "families": {"id": "a non-empty string", "problem": "a string", "answer": "a string",
                 "r_original": "a string", "r_rewritten": "a string or null",
                 "r_corrupted": "a string or null", "original_rating": "a complexity level"},
    "pairs": {"id": "a string", "gap": "a gap type"},
    "logprobs": {"id": "a string", **dict.fromkeys(
        ["lp_w_theta", "lp_w_ref", "lp_l_theta", "lp_l_ref"], "a number in float range")},
}


def refusal(path: str, file: str, field: str, value) -> str:
    """The one error line for a first row whose ``field`` holds ``value``."""
    return f"error: {path}:1: field {field!r} is not {FIELD_WORDS[file][field]}: {value!r}\n"


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
    @pytest.mark.parametrize("workers, requests_each", [(16, 16), (4, 10)])
    def test_http_pool_holds_a_connection_per_worker(
        self, tmp_path, keepalive_server, workers, requests_each
    ):
        config_path = tmp_path / "config.yaml"
        config_path.write_text(yaml.safe_dump({
            "endpoints": {"large": {"url": keepalive_server.url, "model": "m"}},
        }))
        request = ChatRequest(model_role=ModelRole.LARGE, system="s", user="u")
        barrier = threading.Barrier(workers)

        def work():
            barrier.wait(10)  # every worker is its own thread
            return [backend.complete(request).text for _ in range(requests_each)]

        with _build_backend(load_config(str(config_path)), None) as backend:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(work) for _ in range(workers)]
                texts = [future.result() for future in futures]
        assert texts == [["medium"] * requests_each] * workers
        assert keepalive_server.connections == workers
        assert len(keepalive_server.seen) == workers * requests_each
        assert keepalive_server.wait_closed(workers)

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


def stub_call(port: int, method: str, path: str) -> dict:
    connection = HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(method, path, body=b"{}" if method == "POST" else None)
        return json.loads(connection.getresponse().read())
    finally:
        connection.close()


@pytest.fixture(scope="module")
def six_record_stub(tmp_path_factory):
    """``bench/stub.py`` serving the six-record script over loopback in a
    child process; yields its port."""
    tmp = tmp_path_factory.mktemp("stub")
    port_file = tmp / "stub.port"
    with open(tmp / "stub.err", "wb") as err:
        stub = subprocess.Popen([
            sys.executable, str(Path(__file__).resolve().parents[1] / "bench" / "stub.py"),
            "--script", write_script(tmp / "script.jsonl", SIX_RECORD_SCRIPT),
            "--dataset", write_jsonl(tmp / "input.jsonl", dataset_rows(make_dataset(6))),
            "--templates", str(Path(cli.__file__).parent / "templates"),
            "--port-file", str(port_file),
        ], stdout=subprocess.DEVNULL, stderr=err)
    try:
        limit = time.monotonic() + 30
        while not port_file.exists():
            assert stub.poll() is None and time.monotonic() < limit, (tmp / "stub.err").read_text()
            time.sleep(0.02)
        yield int(port_file.read_text())
    finally:
        stub.terminate()
        try:
            stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            stub.kill()
            stub.wait()


class TestLiveCurate:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_live_run_equals_the_scripted_run(
        self, six_record_stub, curate_paths, proxy_env, capsys, workers
    ):
        tmp = curate_paths["tmp"]
        url = f"http://127.0.0.1:{six_record_stub}/v1/chat/completions"
        pipeline = {"max_concurrency": workers}
        scripted_config = tmp / "scripted.yaml"
        scripted_config.write_text(yaml.safe_dump({"pipeline": pipeline}))
        live_config = tmp / "live.yaml"
        live_config.write_text(yaml.safe_dump({
            "endpoints": {role: {"url": url, "model": "stub"} for role in ("base", "large")},
            "pipeline": pipeline,
        }))

        def curate(config, stem, *extra):
            code = entrypoint(["--config", str(config), "curate", "--input", curate_paths["input"],
                               "--output", str(tmp / f"{stem}.jsonl"), *extra])
            assert code == EXIT_PARTIAL
            outputs = [(tmp / f"{stem}{part}.jsonl").read_bytes()
                       for part in ("", ".families", ".discards")]
            return outputs, capsys.readouterr().out.splitlines()[-1]

        scripted = curate(scripted_config, "scripted", "--mock-script", curate_paths["script"])
        stub_call(six_record_stub, "POST", "/__reset")
        assert curate(live_config, "live") == scripted
        stats = stub_call(six_record_stub, "GET", "/__stats")
        assert (stats["errors"], stats["requests"], stats["connections"]) == (0, 34, workers)


class TestPairs:
    def test_standard_two_family_fixture(self, tmp_path, capsys):
        families_path = write_jsonl(tmp_path / "families.jsonl", family_rows())
        output_path = str(tmp_path / "pairs.jsonl")
        code = entrypoint(["pairs", "--families", families_path, "--output", output_path])
        assert code == EXIT_OK

        rows = list(read_rows(output_path, {}, key=None))
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

    def test_repeated_key_in_a_row_is_read_with_its_last_value(self, tmp_path, capsys):
        """json keeps a repeated key's last value; the family is medium, so it
        yields its one large pair, where an easy family would yield a medium one."""
        families = tmp_path / "families.jsonl"
        families.write_text('{"id": "f", "problem": "p", "answer": "a", "original_rating": '
                            '"easy", "original_rating": "medium", "r_original": "t", '
                            '"r_corrupted": "w"}\n', encoding="utf-8")
        output = str(tmp_path / "pairs.jsonl")
        assert entrypoint(["pairs", "--families", str(families), "--output", output]) == EXIT_OK
        assert list(read_rows(output, {}, key=None)) == [
            {"beta": 0.5, "chosen": "t", "gap": "large", "id": "f:large", "prompt": "p",
             "rejected": "w"}]
        assert last_json_line(capsys) == {"by_gap": {"large": 1, "medium": 0, "small": 0},
                                          "families": 1, "pairs": 1, "skipped": 0}

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
        assert list(read_rows(output_path, {}, key=None)) == []
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
        betas = {row["gap"]: row["beta"] for row in read_rows(output_path, {}, key=None)}
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
        assert capsys.readouterr().err == (f"error: {families_path}: family fam-medium: "
                                           "r_rewritten: present on a medium-rated family\n")
        assert output.read_bytes() == b"old bytes\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "families.jsonl", "pairs.jsonl",
        ]

    def test_repeated_family_id_is_refused(self, tmp_path, capsys):
        # Its pairs would repeat the first family's pair ids, which loss-eval cannot join.
        repeat = dict(family_rows()[1], id="fam-easy")
        families_path = write_jsonl(tmp_path / "fam.jsonl", [family_rows()[0], repeat])
        output = tmp_path / "pairs.jsonl"
        output.write_bytes(b"old bytes\n")
        code = entrypoint(["pairs", "--families", families_path, "--output", str(output)])
        assert code == EXIT_FATAL
        assert capsys.readouterr().err == (
            f"error: {families_path}:2: duplicate id 'fam-easy'\n")
        assert output.read_bytes() == b"old bytes\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["fam.jsonl", "pairs.jsonl"]

    @pytest.mark.parametrize("rows_before", [2, 400])
    def test_families_file_that_is_not_utf8_is_refused_naming_its_line(self, tmp_path, capsys,
                                                                        rows_before):
        """The reader decodes 8 KiB ahead of the line it parses; the refusal
        names the line that holds the byte, whichever chunk it falls in."""
        good = write_jsonl(tmp_path / "good.jsonl",
                           [dict(family_rows()[0], id=f"f{n}") for n in range(rows_before)])
        families = tmp_path / "families.jsonl"
        families.write_bytes(Path(good).read_bytes() + b'{"id": "\xff"}\n')
        output = tmp_path / "pairs.jsonl"
        code = entrypoint(["pairs", "--families", str(families), "--output", str(output)])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {families}:{rows_before + 1}: not valid UTF-8: "
                                "byte 0xff (invalid start byte)\n")
        assert not output.exists()

    @pytest.mark.parametrize("field, value", [
        ("id", ["a"]), ("id", 7), ("id", ""),
        ("problem", 5), ("answer", ["a1"]), ("r_original", {"text": "t"}),
        ("r_rewritten", ["x"]), ("r_corrupted", 7), ("r_corrupted", True),
        ("original_rating", "trivial"), ("original_rating", ["easy"]),
    ])
    def test_badly_typed_row_is_one_error_line(self, tmp_path, capsys, field, value):
        rows = family_rows()
        rows[0][field] = value
        families_path = write_jsonl(tmp_path / "families.jsonl", rows)
        output = tmp_path / "pairs.jsonl"
        code = entrypoint(["pairs", "--families", families_path, "--output", str(output)])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == refusal(families_path, "families", field, value)
        assert not output.exists()


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
    def test_empty_pairs_file_is_refused_naming_it(self, tmp_path, capsys):
        pairs_path = write_jsonl(tmp_path / "pairs.jsonl", [])
        logprobs_path = write_jsonl(tmp_path / "lp.jsonl", [])
        code = entrypoint(["loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {pairs_path}: no pairs\n"

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

        rows = list(read_rows(report_path, {}, key=None))
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
        assert capsys.readouterr().err == (f"error: {bad_path}:2:1: while parsing a flow sequence, "
                                           "expected ',' or ']', but got '<stream end>'\n")

    def test_failed_write_leaves_report_untouched(self, tmp_path, monkeypatch, capsys):
        pairs_path = write_jsonl(
            tmp_path / "pairs.jsonl",
            [pair_row("a", "small"), pair_row("b", "medium"), pair_row("c", "large")],
        )
        logprobs_path = write_jsonl(
            tmp_path / "lp.jsonl", [logprob_row("a"), logprob_row("b"), logprob_row("c")]
        )
        report = tmp_path / "report.jsonl"
        report.write_bytes(b"old bytes\n")
        fail_writes_after(monkeypatch, 1)
        code = entrypoint([
            "loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path,
            "--output", str(report),
        ])
        assert code == EXIT_FATAL
        assert "disk full" in capsys.readouterr().err
        assert report.read_bytes() == b"old bytes\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "lp.jsonl", "pairs.jsonl", "report.jsonl",
        ]

    def test_join_mismatch_is_fatal(self, tmp_path, capsys):
        pairs_path = write_jsonl(
            tmp_path / "pairs.jsonl", [pair_row("a", "small"), pair_row("b", "large")]
        )
        logprobs_path = write_jsonl(tmp_path / "lp.jsonl", [logprob_row("a")])
        code = entrypoint(["loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path])
        assert code == EXIT_FATAL
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("pair_ids, logprob_ids, file, text", [
        (["a:large", "a:large"], ["a:large"], "pairs", ":2: duplicate id 'a:large'"),
        (["a:large"], ["a:large", "a:large"], "lp", ":2: duplicate id 'a:large'"),
        (["a:large"], [], "lp", ": no log-prob row for pair id 'a:large'"),
        (["a:large"], ["a:large", "b:large"], "lp",
         ": log-prob rows with no matching pair: ['b:large']"),
    ], ids=["duplicate-pair", "duplicate-logprob", "no-logprob", "no-pair"])
    def test_join_refusal_names_its_file(self, tmp_path, capsys, pair_ids, logprob_ids, file,
                                         text):
        paths = {"pairs": write_jsonl(tmp_path / "pairs.jsonl",
                                      [pair_row(pair_id, "large") for pair_id in pair_ids]),
                 "lp": write_jsonl(tmp_path / "lp.jsonl", map(logprob_row, logprob_ids))}
        code = entrypoint(["loss-eval", "--pairs", paths["pairs"], "--logprobs", paths["lp"]])
        assert code == EXIT_FATAL
        assert capsys.readouterr().err == f"error: {paths[file]}{text}\n"

    @pytest.mark.parametrize("file, field, value", [
        ("logprobs", "id", ["a"]),
        ("pairs", "id", ["a"]),
        ("logprobs", "lp_w_theta", {"x": 1}),
        ("logprobs", "lp_w_theta", True),
        ("logprobs", "lp_w_ref", "1.5"),
        ("logprobs", "lp_l_ref", 10 ** 400),
        ("logprobs", "lp_l_theta", None),
        ("logprobs", "id", 7),
        ("pairs", "id", True),
        ("pairs", "id", 7),
        ("pairs", "id", None),
    ])
    def test_badly_typed_row_is_one_error_line(self, tmp_path, capsys, file, field, value):
        rows = {"pairs": [pair_row("a", "small")], "logprobs": [logprob_row("a")]}
        rows[file][0][field] = value
        paths = {"pairs": write_jsonl(tmp_path / "pairs.jsonl", rows["pairs"]),
                 "logprobs": write_jsonl(tmp_path / "lp.jsonl", rows["logprobs"])}
        code = entrypoint(["loss-eval", "--pairs", paths["pairs"],
                           "--logprobs", paths["logprobs"]])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == refusal(paths[file], file, field, value)

    def test_non_finite_beta_is_one_error_line(self, tmp_path, capsys):
        """An infinite beta would report a NaN loss and exit 0."""
        config = tmp_path / "config.yaml"
        config.write_text("schedule:\n  beta_large: .inf\n", encoding="utf-8")
        pairs_path = write_jsonl(tmp_path / "pairs.jsonl", [pair_row("a", "large")])
        logprobs_path = write_jsonl(tmp_path / "lp.jsonl", [logprob_row("a", 1.0)])
        code = entrypoint(["--config", str(config), "loss-eval", "--pairs", pairs_path,
                           "--logprobs", logprobs_path])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {config}: schedule: field 'beta_large' is not a finite "
                                "number: inf\n")

    @pytest.mark.parametrize("gap", [["small"], "tiny", None, 1, {"gap": "small"}])
    def test_gap_that_is_no_gap_type_is_one_error_line(self, tmp_path, capsys, gap):
        pairs_path = write_jsonl(tmp_path / "pairs.jsonl", [pair_row("a", gap)])
        logprobs_path = write_jsonl(tmp_path / "lp.jsonl", [logprob_row("a")])
        code = entrypoint(["loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == refusal(pairs_path, "pairs", "gap", gap)


class TestConfigFile:
    """Whatever is wrong with a config file, the command prints one
    ``error:`` line that names the file, and writes nothing."""

    def refused(self, tmp_path, capsys, content: bytes) -> str:
        config = tmp_path / "c.yaml"
        config.write_bytes(content)
        families = write_jsonl(tmp_path / "families.jsonl", family_rows())
        output = tmp_path / "pairs.jsonl"
        code = entrypoint(["--config", str(config), "pairs", "--families", families,
                           "--output", str(output)])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not output.exists()
        prefix = f"error: {config}"
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
        return captured.err[len(prefix):-1]

    @pytest.mark.parametrize("content, words", [
        (b"pipeline: [unclosed\n",
         ":2:1: while parsing a flow sequence, expected ',' or ']', but got '<stream end>'"),
        (b"x: !!python/object:os.system {}\n", ":1:4: could not determine a constructor for "
                                               "the tag 'tag:yaml.org,2002:python/object:os.system'"),
        (b"a: \x01\n", ": unacceptable character #x0001: special characters are not allowed "
                      'in "{config}", position 3'),
        (b"a: 1\n---\nb: 2\n",
         ":2:1: expected a single document in the stream, but found another document"),
        (b"pipeline: {max_concurrency: \xff}\n",
         ":1: not valid UTF-8: byte 0xff (invalid start byte)"),
        (b"? [a, b]\n: 1\n", ":1:3: while constructing a mapping, found unhashable key"),
    ], ids=["unclosed", "python-tag", "control-byte", "two-documents", "not-utf8",
            "unhashable-key"])
    def test_unreadable_file_is_one_line(self, tmp_path, capsys, content, words):
        assert self.refused(tmp_path, capsys, content) == words.format(config=tmp_path / "c.yaml")

    def test_value_the_constructor_refuses_is_one_line(self, tmp_path, capsys):
        """pyyaml reads 2001-13-01 as a date, and its constructor raises a ValueError."""
        assert self.refused(tmp_path, capsys, b"pipeline: {retry_cap: 2001-13-01}\n") == (
            ": month must be in 1..12")

    def test_unknown_key_is_one_line(self, tmp_path, capsys):
        assert self.refused(tmp_path, capsys, b"pipeline: {retry_cpa: 7}\n") == (
            ": pipeline: unknown key 'retry_cpa' (did you mean 'retry_cap'?)")

    def test_every_refusal_of_the_file_is_on_the_line(self, tmp_path, capsys):
        content = b"pipline: {}\nsampling: {top_k: 0}\nschedule: {beta_large: 0.15}\n"
        assert self.refused(tmp_path, capsys, content) == (
            ": unknown key 'pipline' (did you mean 'pipeline'?); "
            "sampling: field 'top_k' is not a whole number >= 1: 0; "
            "schedule: beta ordering: requires beta_small < beta_medium < beta_large")


class TestPreferenceOutputBytes:
    """`pairs` and `loss-eval --output` write pinned bytes over families whose
    texts mix plain ASCII with DEL, C0 controls, quotes, backslashes and
    non-ASCII characters, so every kind of row the writer sees is covered."""

    # SHA-256 of pairs.jsonl and of the loss-eval report, recorded while
    # dump_row had one encoder and one escaper: how it escapes each string,
    # and what it remembers of earlier rows, must not move them.
    PAIRS_DIGEST = "0f2b5c51620d4472f5be2d31c2e6413951265afcb6939bb80020ca7ea94773ec"
    REPORT_DIGEST = "33ff0a3e9b192740af4176bc22857256f47c78ce430945be5412415500cad57a"

    PLAIN = "abcdefghij klmnop 0123456789 .,;:()"
    # Per family: plain text, ASCII escapes with DEL, without it, non-ASCII.
    EXTRAS = [
        [],
        ["\x7f", '"', "\\", "\x00", "\n"],
        ['"', "\\", "\\u00e9", "\x01", "\t", "\x1f"],
        ["é", "×", "中文", "😀", "\u2028", "\x80", "\x7f", '"'],
    ]

    def family_rows(self) -> list[dict]:
        rng = random.Random(19)
        rows = []
        for n in range(80):
            extras = self.EXTRAS[n % 4]

            def text() -> str:
                chars = [rng.choice(self.PLAIN) for _ in range(rng.randint(5, 60))]
                for _ in range(rng.randint(1, 4) if extras else 0):
                    chars.insert(rng.randint(0, len(chars)), rng.choice(extras))
                return "".join(chars)

            rating = ("easy", "medium", "hard")[rng.randrange(3)]
            rows.append({
                "id": f"fam-{n}" + ("é" if n % 7 == 0 else ""),
                "problem": text(), "answer": text(),
                "original_rating": rating, "r_original": text(),
                "r_rewritten": None if rating == "medium" or n % 5 == 0 else text(),
                "r_corrupted": None if n % 11 == 0 else text(),
            })
        return rows

    def test_pairs_and_report_bytes_are_pinned(self, tmp_path):
        families_path = write_jsonl(tmp_path / "families.jsonl", self.family_rows())
        pairs_path = tmp_path / "pairs.jsonl"
        assert entrypoint(["pairs", "--families", families_path,
                           "--output", str(pairs_path)]) == EXIT_OK
        rng = random.Random(23)
        logprobs = [
            {"id": row["id"], **{field: rng.uniform(-40.0, -1.0) for field in LogProbQuad._fields}}
            for row in read_rows(str(pairs_path), {}, key=None)
        ]
        logprobs_path = write_jsonl(tmp_path / "lp.jsonl", logprobs)
        report_path = tmp_path / "report.jsonl"
        assert entrypoint(["loss-eval", "--pairs", str(pairs_path), "--logprobs", logprobs_path,
                           "--output", str(report_path)]) == EXIT_OK
        assert hashlib.sha256(pairs_path.read_bytes()).hexdigest() == self.PAIRS_DIGEST
        assert hashlib.sha256(report_path.read_bytes()).hexdigest() == self.REPORT_DIGEST


def without(row: dict, field: str) -> dict:
    return {key: value for key, value in row.items() if key != field}


class TestMalformedRows:
    """A row the command cannot use is an `error:` naming the file, the line
    and the field: the value it holds, or that it lacks the field."""

    @pytest.mark.parametrize("file, rows, text", [
        pytest.param("families", [without(family_rows()[0], "r_original")],
                     "missing field 'r_original'", id="family-without-r_original"),
        pytest.param("logprobs", [without(logprob_row("a"), "id")],
                     "missing field 'id'", id="logprob-without-id"),
        pytest.param("logprobs", [without(logprob_row("a"), "lp_l_ref")],
                     "missing field 'lp_l_ref'", id="logprob-without-lp_l_ref"),
        pytest.param("logprobs", [dict(logprob_row("a"), lp_w_theta=None)],
                     "field 'lp_w_theta' is not a number in float range: None",
                     id="logprob-null-value"),
        pytest.param("pairs", [without(pair_row("a", "small"), "gap")],
                     "missing field 'gap'", id="pair-without-gap"),
    ])
    def test_malformed_row_is_fatal(self, tmp_path, capsys, file, rows, text):
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
        assert capsys.readouterr().err == f"error: {paths[file]}:1: {text}\n"

    @pytest.mark.parametrize("literal, value", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")])
    def test_non_finite_logprob_is_refused_with_its_line(self, tmp_path, capsys, literal, value):
        """json reads these four literals as floats that are not finite; the
        row is refused as it is read, not by the loss core after the join."""
        pairs = write_jsonl(tmp_path / "pairs.jsonl", [pair_row("a", "small")])
        logprobs = tmp_path / "lp.jsonl"
        row = json.dumps(logprob_row("a")).replace('"lp_w_theta": 0.0', f'"lp_w_theta": {literal}')
        logprobs.write_text(row + "\n", encoding="utf-8")
        argv = ["loss-eval", "--pairs", pairs, "--logprobs", str(logprobs)]
        assert entrypoint(argv) == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {logprobs}:1: field 'lp_w_theta' is not a number in "
                                f"float range: {value}\n")


def snapshot(directory: Path) -> dict[str, bytes]:
    return {str(path): path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def write_lines(path: Path, lines: list[str]) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


DEEP = "[" * 100_000
LONG_INTEGER = "9" * 5000


class TestUnreadableValues:
    """Arrays nested past the interpreter's recursion limit, an integer
    literal past its digit limit and an unpaired \\ud800-\\udfff escape are
    refused where they are read: one `error:` line that names the file, no
    traceback, and no file written or changed."""

    def refusal(self, tmp_path, capsys, argv: list[str]) -> str:
        before = snapshot(tmp_path)
        assert entrypoint(argv) == EXIT_FATAL
        captured = capsys.readouterr()
        assert snapshot(tmp_path) == before
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        return captured.err[len("error: "):-1]

    def test_deep_family_row(self, tmp_path, capsys):
        families = write_lines(tmp_path / "fam.jsonl", [json.dumps(family_rows()[0]), DEEP])
        argv = ["pairs", "--families", families, "--output", str(tmp_path / "pairs.jsonl")]
        assert self.refusal(tmp_path, capsys, argv) == (
            f"{families}:2: not valid JSON: arrays or objects nested too deeply")

    @pytest.mark.parametrize("value, words", [
        (DEEP, "arrays or objects nested too deeply"),
        (LONG_INTEGER, f"an integer literal of more than {sys.get_int_max_str_digits()} digits"),
    ], ids=["deep", "long-integer"])
    def test_logprob_row(self, tmp_path, capsys, value, words):
        pairs = write_jsonl(tmp_path / "pairs.jsonl", [pair_row("a", "small")])
        row = json.dumps(logprob_row("a")).replace('"lp_w_ref": 0.0', f'"lp_w_ref": {value}')
        logprobs = write_lines(tmp_path / "lp.jsonl", [row])
        argv = ["loss-eval", "--pairs", pairs, "--logprobs", logprobs,
                "--output", str(tmp_path / "report.jsonl")]
        assert self.refusal(tmp_path, capsys, argv) == f"{logprobs}:1: not valid JSON: {words}"

    def test_deep_config(self, tmp_path, capsys, six_record_dataset):
        config = tmp_path / "deep.yaml"
        config.write_text("pipeline: " + "[" * 5000 + "]" * 5000 + "\n", encoding="utf-8")
        dataset = write_jsonl(tmp_path / "input.jsonl", dataset_rows(six_record_dataset))
        argv = ["--config", str(config), "curate", "--input", dataset,
                "--output", str(tmp_path / "out.jsonl")]
        assert self.refusal(tmp_path, capsys, argv) == (
            f"{config}: mappings or sequences nested too deeply")

    @pytest.mark.parametrize("text", ["x\ud800y", "\udfff", "re\ud83dwrite \U0001f600"],
                             ids=["lone-high", "lone-low", "half-emoji"])
    def test_lone_surrogate_in_a_family(self, tmp_path, capsys, text):
        row = dict(family_rows()[0], r_original=text)
        families = write_lines(tmp_path / "fam.jsonl", [json.dumps(row)])
        argv = ["pairs", "--families", families, "--output", str(tmp_path / "pairs.jsonl")]
        assert self.refusal(tmp_path, capsys, argv) == (
            f"{families}:1: field 'r_original' holds a lone surrogate, which UTF-8 cannot "
            f"encode: {text!r}")

    def test_lone_surrogate_in_a_dataset_row(self, tmp_path, capsys, curate_paths):
        rows = [{"id": "r1", "problem": "p\udc80", "answer": "a", "reasoning": "r"}]
        dataset = write_lines(tmp_path / "data.jsonl", [json.dumps(row) for row in rows])
        argv = ["curate", "--input", dataset, "--output", str(tmp_path / "out.jsonl"),
                "--mock-script", curate_paths["script"]]
        assert self.refusal(tmp_path, capsys, argv) == (
            f"{dataset}:1: field 'problem' holds a lone surrogate, which UTF-8 cannot "
            "encode: 'p\\udc80'")

    def test_lone_surrogate_in_a_script_response(self, tmp_path, capsys, curate_paths):
        script = write_lines(tmp_path / "script.jsonl", [
            json.dumps({"key": "critic:r1", "responses": ["hard"]}),
            json.dumps({"key": "rethinker:r1", "responses": ["re\ud83dwrite"]})])
        argv = ["curate", "--input", curate_paths["input"],
                "--output", str(tmp_path / "out.jsonl"), "--mock-script", script]
        assert self.refusal(tmp_path, capsys, argv) == (
            f"{script}:2: field 'responses' holds a lone surrogate, which UTF-8 cannot "
            "encode: ['re\\ud83dwrite']")

    @pytest.mark.parametrize("line", [1, 2])
    def test_deep_checkpoint_line(self, tmp_path, capsys, curate_paths, line):
        """A deep header is no header; a deep appended line is no checkpoint row."""
        checkpoint = tmp_path / "run.ckpt"
        argv = ["curate", "--input", curate_paths["input"], "--output", str(tmp_path / "out.jsonl"),
                "--checkpoint", str(checkpoint), "--mock-script", curate_paths["script"]]
        assert entrypoint(argv) == EXIT_PARTIAL
        header = checkpoint.read_text(encoding="utf-8").splitlines()[0]
        write_lines(checkpoint, [header, DEEP] if line == 2 else [DEEP])
        capsys.readouterr()
        assert self.refusal(tmp_path, capsys, argv) == (
            f"{checkpoint}:2: not a checkpoint row" if line == 2
            else f"{checkpoint}: line 1 is not a cogforge-checkpoint-v6 header")


@pytest.fixture
def command_files(tmp_path, six_record_dataset, six_record_script) -> dict[str, str]:
    """Every file a command may read, an existing checkpoint, two configs
    whose checkpoint path is curate's output or its derived families file,
    and a symlink and a dotted path that resolve to the dataset and the pairs."""
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"schedule": {"beta_small": 0.05}}), encoding="utf-8")
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "input.jsonl")
    (tmp_path / "checkpoint.json").write_text("a checkpoint\n", encoding="utf-8")
    for name, checkpoint in (("out", "out.jsonl"), ("families", "out.families.jsonl")):
        (tmp_path / f"checkpoint_{name}.yaml").write_text(yaml.safe_dump(
            {"pipeline": {"checkpoint_path": str(tmp_path / checkpoint)}}), encoding="utf-8")
    return {
        "config": str(config),
        "checkpoint_out_config": str(tmp_path / "checkpoint_out.yaml"),
        "checkpoint_families_config": str(tmp_path / "checkpoint_families.yaml"),
        "input": write_jsonl(tmp_path / "input.jsonl", dataset_rows(six_record_dataset)),
        "script": write_script(tmp_path / "script.jsonl", six_record_script),
        "families": write_jsonl(tmp_path / "families.jsonl", family_rows()),
        "pairs": write_jsonl(tmp_path / "pairs.jsonl", [pair_row("a", "small")]),
        "logprobs": write_jsonl(tmp_path / "lp.jsonl", [logprob_row("a")]),
        "checkpoint": str(tmp_path / "checkpoint.json"),
        "link": str(tmp_path / "link.jsonl"),
        "dotted_pairs": str(tmp_path / "sub" / ".." / "pairs.jsonl"),
        "out": str(tmp_path / "out.jsonl"),
        "out_families": str(tmp_path / "out.families.jsonl"),
    }


class TestOutputPaths:
    """A command refuses, before it reads any input row, an output path that
    is a directory or in none, that names another output or a file it reads,
    or whose temp file is a file it reads, and leaves every file as it was. ``curate`` checks after loading the config, so the checkpoint it reads is
    the config's ``pipeline.checkpoint_path`` unless ``--checkpoint`` is given."""

    CURATE = "--config {config} curate --input {input} --mock-script {script}"
    CASES = {
        "curate": {
            "output-is-input": (CURATE + " --output {input}", "--output", "--input"),
            "output-links-to-input": (CURATE + " --output {link}", "--output", "--input"),
            "output-is-config": (CURATE + " --output {config}", "--output", "--config"),
            "output-is-new-checkpoint": (CURATE + " --output {out} --checkpoint {out}",
                                         "--output", "--checkpoint"),
            "output-is-checkpoint": (CURATE + " --output {checkpoint} --checkpoint {checkpoint}",
                                     "--output", "--checkpoint"),
            "discards-is-output": (CURATE + " --output {out} --discards {out}",
                                   "--discards", "--output"),
            "derived-families-is-discards": (
                CURATE + " --output {out} --discards {out_families}", "--families", "--discards"),
            "families-is-script": (CURATE + " --output {out} --families {script}",
                                   "--families", "--mock-script"),
            "output-is-config-checkpoint": (
                "--config {checkpoint_out_config} curate --input {input} --mock-script {script}"
                " --output {out}", "--output", "pipeline.checkpoint_path"),
            "derived-families-is-config-checkpoint": (
                "--config {checkpoint_families_config} curate --input {input}"
                " --mock-script {script} --output {out}", "--families", "pipeline.checkpoint_path"),
        },
        "pairs": {
            "output-is-families": ("--config {config} pairs --families {families} "
                                   "--output {families}", "--output", "--families"),
            "families-links-to-output": ("--config {config} pairs --families {link} "
                                         "--output {input}", "--output", "--families"),
            "output-is-config": ("--config {config} pairs --families {families} "
                                 "--output {config}", "--output", "--config"),
        },
        "loss-eval": {
            "output-is-pairs": ("--config {config} loss-eval --pairs {pairs} "
                                "--logprobs {logprobs} --output {pairs}", "--output", "--pairs"),
            "output-resolves-to-pairs": ("--config {config} loss-eval --pairs {pairs} "
                                         "--logprobs {logprobs} --output {dotted_pairs}",
                                         "--output", "--pairs"),
            "output-is-logprobs": ("--config {config} loss-eval --pairs {pairs} "
                                   "--logprobs {logprobs} --output {logprobs}",
                                   "--output", "--logprobs"),
            "output-is-config": ("--config {config} loss-eval --pairs {pairs} "
                                 "--logprobs {logprobs} --output {config}",
                                 "--output", "--config"),
        },
    }

    def refuse(self, tmp_path, capsys, files, argv, output, owner):
        before = snapshot(tmp_path)
        assert entrypoint(argv.format(**files).split()) == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {output} ") and captured.err.count("\n") == 1
        assert f" is the same file as {owner}; refusing to write over it" in captured.err
        assert snapshot(tmp_path) == before

    @pytest.mark.parametrize("argv, output, owner", CASES["curate"].values(),
                             ids=CASES["curate"])
    def test_curate(self, tmp_path, capsys, command_files, argv, output, owner):
        self.refuse(tmp_path, capsys, command_files, argv, output, owner)

    @pytest.mark.parametrize("argv, output, owner", CASES["pairs"].values(),
                             ids=CASES["pairs"])
    def test_pairs(self, tmp_path, capsys, command_files, argv, output, owner):
        self.refuse(tmp_path, capsys, command_files, argv, output, owner)

    @pytest.mark.parametrize("argv, output, owner", CASES["loss-eval"].values(),
                             ids=CASES["loss-eval"])
    def test_loss_eval(self, tmp_path, capsys, command_files, argv, output, owner):
        self.refuse(tmp_path, capsys, command_files, argv, output, owner)

    # write_rows writes <path>.tmp and renames it over the <path> it replaces.
    # Each command here names that temp file, there beforehand as a copy of
    # another file: argv, then the key of the replaced path, the key of the
    # copied file, and the flags the refusal names.
    TEMP_CASES = {
        "curate": ("--config {config} curate --input {out}.tmp --mock-script {script}"
                   " --output {out}", "out", "input", "--output", "--input"),
        "pairs": ("--config {config} pairs --families {out}.tmp --output {out}",
                  "out", "families", "--output", "--families"),
        "loss-eval": ("--config {config} loss-eval --pairs {pairs} --logprobs {out}.tmp"
                      " --output {out}", "out", "logprobs", "--output", "--logprobs"),
        "checkpoint": ("--config {config} curate --input {new_checkpoint}.tmp"
                       " --mock-script {script} --output {out} --checkpoint {new_checkpoint}",
                       "new_checkpoint", "input", "--checkpoint", "--input"),
        # --discards is written after --output, through the file --output names.
        "curate-outputs": (CURATE + " --output {out}.tmp --discards {out}",
                           "out", "input", "--discards", "--output"),
    }

    @pytest.mark.parametrize("argv, replaced, copied, flag, owner", TEMP_CASES.values(),
                             ids=TEMP_CASES)
    def test_temp_file_is_no_file_the_command_names(self, tmp_path, capsys, command_files,
                                                    argv, replaced, copied, flag, owner):
        files = dict(command_files, new_checkpoint=str(tmp_path / "ck.json"))
        temp = Path(f"{files[replaced]}.tmp")
        temp.write_bytes(Path(files[copied]).read_bytes())
        before = snapshot(tmp_path)
        try:
            assert entrypoint(argv.format(**files).split()) == EXIT_FATAL
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: {flag} {files[replaced]} writes through {temp}, "
                                    f"which is {owner}; refusing to write over it\n")
            assert snapshot(tmp_path) == before
        finally:
            temp.unlink(missing_ok=True)

    # An output that cannot be written is refused before any work: curate's
    # script holds no key, so a request, if one were sent, would fail with
    # another text. argv, then the one stderr line.
    UNWRITABLE_CASES = {
        "curate-families-in-no-directory": (
            "curate --input {input} --mock-script {empty_script} --output {out}"
            " --families {nodir}/f.jsonl",
            "--families {nodir}/f.jsonl: {nodir} is not a directory"),
        "curate-discards-is-a-directory": (
            "curate --input {input} --mock-script {empty_script} --output {out} --discards {dir}",
            "--discards {dir} is a directory; refusing to write over it"),
        "curate-checkpoint-in-a-file": (
            "curate --input {input} --mock-script {empty_script} --output {out}"
            " --checkpoint {input}/ck.json",
            "--checkpoint {input}/ck.json: {input} is not a directory"),
        "pairs-output-is-a-directory": (
            "pairs --families {families} --output {dir}",
            "--output {dir} is a directory; refusing to write over it"),
        "loss-eval-output-is-a-directory": (
            "loss-eval --pairs {pairs} --logprobs {logprobs} --output {dir}",
            "--output {dir} is a directory; refusing to write over it"),
        "loss-eval-output-in-no-directory": (
            "loss-eval --pairs {pairs} --logprobs {logprobs} --output {nodir}/r.jsonl",
            "--output {nodir}/r.jsonl: {nodir} is not a directory"),
        # {held}.tmp is a directory, so write_rows could not write {held}.
        "curate-output-temp-is-a-directory": (
            "curate --input {input} --mock-script {empty_script} --output {held}",
            "--output {held} writes through {held}.tmp, which is a directory;"
            " refusing to write over it"),
        "curate-checkpoint-temp-is-a-directory": (
            "curate --input {input} --mock-script {empty_script} --output {out}"
            " --checkpoint {held}",
            "--checkpoint {held} writes through {held}.tmp, which is a directory;"
            " refusing to write over it"),
        "pairs-output-temp-is-a-directory": (
            "pairs --families {families} --output {held}",
            "--output {held} writes through {held}.tmp, which is a directory;"
            " refusing to write over it"),
        "loss-eval-output-temp-is-a-directory": (
            "loss-eval --pairs {pairs} --logprobs {logprobs} --output {held}",
            "--output {held} writes through {held}.tmp, which is a directory;"
            " refusing to write over it"),
    }

    @pytest.mark.parametrize("argv, refusal", UNWRITABLE_CASES.values(), ids=UNWRITABLE_CASES)
    def test_unwritable_output_is_refused_before_any_work(self, tmp_path, capsys, command_files,
                                                          argv, refusal):
        files = dict(command_files, dir=str(tmp_path / "sub"), nodir=str(tmp_path / "nodir"),
                     held=str(tmp_path / "held.jsonl"),
                     empty_script=write_script(tmp_path / "empty.jsonl", {}))
        held_temp = tmp_path / "held.jsonl.tmp"
        held_temp.mkdir()
        before = snapshot(tmp_path)
        try:
            assert entrypoint(argv.format(**files).split()) == EXIT_FATAL
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {refusal.format(**files)}\n"
            assert snapshot(tmp_path) == before
            assert [path.name for path in held_temp.iterdir()] == []
        finally:
            held_temp.rmdir()

    def test_distinct_paths_still_run(self, command_files, capsys):
        files = command_files
        assert entrypoint(["--config", files["config"], "pairs", "--families", files["families"],
                           "--output", files["out"]]) == EXIT_OK
        assert entrypoint(["--config", files["config"], "loss-eval", "--pairs", files["pairs"],
                           "--logprobs", files["pairs"]]) == EXIT_FATAL  # read twice: no refusal
        assert "same file" not in capsys.readouterr().err


class TestCollectorThreshold:
    """Commands run with a raised youngest-generation threshold, and the
    caller's thresholds come back however ``entrypoint`` ends."""

    CALLER = (650, 9, 11)

    @pytest.fixture(autouse=True)
    def caller_thresholds(self):
        original = gc.get_threshold()
        gc.set_threshold(*self.CALLER)
        yield
        gc.set_threshold(*original)

    def test_the_callers_thresholds_are_restored(self, curate_paths, monkeypatch, capsys):
        argv = ["curate", "--input", curate_paths["input"], "--output", curate_paths["output"],
                "--mock-script", curate_paths["script"]]
        families = str(curate_paths["tmp"] / "curated.families.jsonl")
        assert entrypoint(argv) == EXIT_PARTIAL
        assert gc.get_threshold() == self.CALLER
        assert entrypoint(["pairs", "--families", families, "--output",
                           str(curate_paths["tmp"] / "pairs.jsonl")]) == EXIT_OK
        assert gc.get_threshold() == self.CALLER
        assert entrypoint(["pairs", "--families", str(curate_paths["tmp"] / "missing.jsonl"),
                           "--output", str(curate_paths["tmp"] / "p.jsonl")]) == EXIT_FATAL
        assert gc.get_threshold() == self.CALLER
        with pytest.raises(SystemExit):
            entrypoint(["pairs", "--no-such-flag"])
        assert gc.get_threshold() == self.CALLER

        def failing(*_args, **_kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_crv", failing)
        with pytest.raises(RuntimeError):
            entrypoint(argv)
        assert gc.get_threshold() == self.CALLER

    def test_the_command_runs_with_the_raised_threshold(self, tmp_path, monkeypatch, capsys):
        seen = []
        load_config_ = cli.load_config

        def load_config(path):
            seen.append(gc.get_threshold())
            return load_config_(path)

        monkeypatch.setattr(cli, "load_config", load_config)
        families = write_jsonl(tmp_path / "families.jsonl", family_rows())
        assert entrypoint(["pairs", "--families", families,
                           "--output", str(tmp_path / "pairs.jsonl")]) == EXIT_OK
        assert seen == [(cli._YOUNG_GC_THRESHOLD, *self.CALLER[1:])]
        assert cli._YOUNG_GC_THRESHOLD > self.CALLER[0]


class TestExitFreeze:
    """A process that ran a command freezes its heap once, at exit, so the
    interpreter's final collections skip it; a caller keeps a normal
    collector for as long as it runs."""

    def test_a_process_freezes_its_heap_once_at_exit(self, tmp_path, capsys):
        families = write_jsonl(tmp_path / "families.jsonl", family_rows())
        assert entrypoint(["pairs", "--families", families,
                           "--output", str(tmp_path / "expected.jsonl")]) == EXIT_OK
        program = "\n".join([
            "import atexit, gc",
            "freezes = []",
            "freeze = gc.freeze",
            "def counted():",
            "    freezes.append(None)",
            "    freeze()",
            "gc.freeze = counted",
            # Registered first, so it runs last, after any hook a command queued.
            "atexit.register(lambda: print(len(freezes), gc.get_freeze_count() > 0))",
            "from cogforge.cli import entrypoint",
            "for n in range(3):",
            f"    assert entrypoint(['pairs', '--families', {families!r},"
            " '--output', f'pairs{n}.jsonl']) == 0",
        ])
        result = run_python(tmp_path, program)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "1 True"
        expected = (tmp_path / "expected.jsonl").read_bytes()
        assert expected.count(b"\n") == 4
        for n in range(3):
            assert (tmp_path / f"pairs{n}.jsonl").read_bytes() == expected

    def test_a_caller_is_left_unfrozen(self, tmp_path, capsys):
        families = write_jsonl(tmp_path / "families.jsonl", family_rows())
        assert entrypoint(["pairs", "--families", families,
                           "--output", str(tmp_path / "pairs.jsonl")]) == EXIT_OK
        assert gc.get_freeze_count() == 0
        assert entrypoint(["pairs", "--families", str(tmp_path / "missing.jsonl"),
                           "--output", str(tmp_path / "p.jsonl")]) == EXIT_FATAL
        assert gc.get_freeze_count() == 0
        with pytest.raises(SystemExit):
            entrypoint(["pairs", "--no-such-flag"])
        assert gc.get_freeze_count() == 0


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


    def test_prompt_that_differs_from_its_fixture_fails(self, monkeypatch, capsys):
        def templates():
            return {**load_templates(), "critic": PromptTemplate("Rate nothing.")}

        monkeypatch.setattr(cli, "load_templates", templates)
        code = entrypoint(["selftest"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_FATAL
        assert [line.split()[:2] for line in lines] == [
            ["gradient-check", "PASS"], ["negative-control", "PASS"], ["reduction", "PASS"],
            ["stability", "PASS"], ["prompt-golden", "FAIL"]]

    def test_fixture_that_cannot_be_read_fails(self, monkeypatch, capsys):
        def unreadable(name):
            raise OSError(f"no fixture {name}")

        monkeypatch.setattr(cli, "load_golden_fixture", unreadable)
        code = entrypoint(["selftest"])
        out = capsys.readouterr().out
        assert code == EXIT_FATAL
        assert out.splitlines()[-1].split() == [
            "prompt-golden", "FAIL", "fixture", "load", "failed:", "no", "fixture", "critic"]

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
        # Nor yaml, without --config, nor hashlib, without --checkpoint.
        # A None entry in sys.modules makes any import of that name fail.
        root = Path(__file__).resolve().parent.parent
        families = write_jsonl(tmp_path / "families.jsonl", [])
        dataset = write_jsonl(tmp_path / "dataset.jsonl", [])
        script = write_script(tmp_path / "script.jsonl", {})
        config = tmp_path / "live.yaml"
        config.write_text(yaml.safe_dump({
            "endpoints": {"large": {"url": "https://gateway.example/v1/chat/completions",
                                    "model": "m"}},
        }))
        program = "\n".join([
            "import sys",
            "sys.modules['numpy'] = None",
            "sys.modules['requests'] = None",
            "sys.modules['yaml'] = None",
            "sys.modules['hashlib'] = None",
            "import cogforge",
            "from cogforge.cli import entrypoint",
            f"assert entrypoint(['pairs', '--families', {families!r},"
            f" '--output', {str(tmp_path / 'pairs.jsonl')!r}]) == 0",
            f"assert entrypoint(['curate', '--mock-script', {script!r}, '--input', {dataset!r},"
            f" '--output', {str(tmp_path / 'curated.jsonl')!r}]) == 0",
            # A live run reads its endpoints from a config file; with no
            # input it sends no request and loads no HTTP client.
            "del sys.modules['yaml']",
            f"assert entrypoint(['--config', {str(config)!r}, 'curate', '--input', {dataset!r},"
            f" '--output', {str(tmp_path / 'live.jsonl')!r}]) == 0",
            "assert 'http.client' not in sys.modules",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", program], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr


def run_python(tmp_path, program: str) -> subprocess.CompletedProcess:
    """Run ``program`` in a fresh interpreter on this tree's sources."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", program], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )


class TestLoadedModules:
    """Which ``cogforge`` modules a command loads. This counts the entries in
    ``sys.modules`` of a fresh interpreter, not time: a layer the command does
    not run must stay unloaded, whatever loading it would cost."""

    PAIRS = {"cogforge", "cogforge.cli", "cogforge.config", "cogforge.jsonl", "cogforge.pairs",
             "cogforge.records"}

    def loaded_by(self, tmp_path, argv: list[str]) -> set[str]:
        program = "\n".join([
            "import contextlib, io, json, sys",
            "from cogforge.cli import entrypoint",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    code = entrypoint({argv!r})",
            "assert code in (0, 2), code",
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'cogforge')))",
        ])
        result = run_python(tmp_path, program)
        assert result.returncode == 0, result.stderr
        return set(json.loads(result.stdout))

    def test_import_cogforge_loads_no_submodule(self, tmp_path):
        result = run_python(tmp_path, "\n".join([
            "import sys",
            "import cogforge",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cogforge'))",
        ]))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "['cogforge']"

    def test_pairs_loads_neither_the_walk_the_client_nor_the_loss(self, tmp_path):
        families = write_jsonl(tmp_path / "families.jsonl", [])
        loaded = self.loaded_by(tmp_path, ["pairs", "--families", families,
                                           "--output", str(tmp_path / "pairs.jsonl")])
        assert "cogforge.pairs" in loaded
        assert loaded <= self.PAIRS

    def test_loss_eval_adds_only_the_loss(self, tmp_path):
        pairs_path = write_jsonl(tmp_path / "pairs.jsonl", [pair_row("a", "small")])
        logprobs_path = write_jsonl(tmp_path / "lp.jsonl", [logprob_row("a")])
        loaded = self.loaded_by(tmp_path, ["loss-eval", "--pairs", pairs_path,
                                           "--logprobs", logprobs_path])
        assert "cogforge.loss" in loaded
        assert loaded <= self.PAIRS | {"cogforge.loss"}

    def test_curate_loads_no_loss(self, curate_paths):
        loaded = self.loaded_by(curate_paths["tmp"], [
            "curate", "--input", curate_paths["input"], "--output", curate_paths["output"],
            "--mock-script", curate_paths["script"],
        ])
        assert "cogforge.pipeline" in loaded
        assert "cogforge.loss" not in loaded

    @pytest.mark.parametrize("config", [
        {"pipeline": {"max_concurrency": 2}},
        {"endpoints": {role: {"url": "http://127.0.0.1:1/v1/chat/completions", "model": "stub"}
                       for role in ("base", "large")}, "pipeline": {"max_concurrency": 2}},
    ], ids=["pipeline", "endpoints"])
    def test_a_config_that_loads_imports_no_difflib(self, tmp_path, config):
        """Only an unknown key's refusal looks for the closest field."""
        path = tmp_path / "config.yaml"
        path.write_text(json.dumps(config), encoding="utf-8")
        families = write_jsonl(tmp_path / "families.jsonl", [])
        result = run_python(tmp_path, "\n".join([
            "import contextlib, io, sys",
            "from cogforge.cli import entrypoint",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert entrypoint(['--config', {str(path)!r}, 'pairs', '--families',"
            f" {families!r}, '--output', 'pairs.jsonl']) == 0",
            "print('difflib' in sys.modules)",
        ]))
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_public_names_are_their_home_modules_objects(self):
        import cogforge

        assert len(cogforge.__all__) == len(set(cogforge.__all__)) == 54
        assert not {"margin", "format_complexity_report"} & set(cogforge.__all__)
        for name in cogforge.__all__:
            value = getattr(cogforge, name)
            home = sys.modules[value.__module__]
            assert home.__name__.startswith("cogforge.")
            assert getattr(home, name) is value, name
        assert set(cogforge.__all__) <= set(dir(cogforge))

    def test_unknown_names_raise_attribute_error(self):
        import cogforge

        with pytest.raises(AttributeError, match="no_such_name"):
            cogforge.no_such_name
        with pytest.raises(AttributeError, match="no_such_name"):
            cli.no_such_name
        with pytest.raises(ImportError):
            from cogforge import no_such_name


class TestReplacedNames:
    """What ``bench/traced.py`` wraps on ``cli`` is what the commands call, and
    a command's fatal error is one ``error:`` line, whichever layer raised it."""

    # The names bench/traced.py replaces on cli, by the command that calls them.
    WRAPPED = {
        "curate": {"load_config", "load_templates", "load_script", "run_crv"},
        "pairs": {"load_config", "build_pairs"},
        "loss-eval": {"load_config", "join_quads", "cogpo_loss"},
    }

    def test_replacements_are_called(self, curate_paths, monkeypatch, capsys):
        calls = []
        for name in set().union(*self.WRAPPED.values()):
            original = getattr(cli, name)

            def recording(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, recording)
        tmp = curate_paths["tmp"]
        pairs_path, logprobs_path = str(tmp / "pairs.jsonl"), str(tmp / "lp.jsonl")
        argvs = {
            "curate": ["curate", "--input", curate_paths["input"],
                       "--output", curate_paths["output"],
                       "--mock-script", curate_paths["script"]],
            "pairs": ["pairs", "--families", str(tmp / "curated.families.jsonl"),
                      "--output", pairs_path],
            "loss-eval": ["loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path],
        }
        for command, argv in argvs.items():
            calls.clear()
            assert entrypoint(argv) in (EXIT_OK, EXIT_PARTIAL)
            assert set(calls) == self.WRAPPED[command], command
            if command == "pairs":
                write_jsonl(logprobs_path,
                            [logprob_row(row["id"]) for row in read_rows(pairs_path, {}, key=None)])
        assert calls.count("cogpo_loss") == 1

    @pytest.mark.parametrize("error", [
        "GatewayError", "ConfigError", "CorruptCheckpoint", "DuplicateId", "JoinError",
        "OSError", "ValueError",
    ])
    def test_fatal_errors_are_one_line(self, curate_paths, monkeypatch, capsys, error):
        import cogforge

        exc_type = getattr(cogforge, error, None) or getattr(builtins, error)

        def failing(*_args, **_kwargs):
            raise exc_type("boom")

        monkeypatch.setattr(cli, "run_crv", failing)
        code = entrypoint(["curate", "--input", curate_paths["input"],
                           "--output", curate_paths["output"],
                           "--mock-script", curate_paths["script"]])
        assert code == EXIT_FATAL
        captured = capsys.readouterr()
        assert captured.err == "error: boom\n"
        assert not os.path.exists(curate_paths["output"])

    @pytest.mark.parametrize("error", [RuntimeError, KeyError, TypeError, AssertionError])
    def test_other_errors_are_not_swallowed(self, curate_paths, monkeypatch, error):
        def failing(*_args, **_kwargs):
            raise error("boom")

        monkeypatch.setattr(cli, "run_crv", failing)
        with pytest.raises(error, match="boom"):
            entrypoint(["curate", "--input", curate_paths["input"],
                        "--output", curate_paths["output"],
                        "--mock-script", curate_paths["script"]])

    def test_corrupt_checkpoint_from_a_lazily_loaded_pipeline(self, curate_paths):
        checkpoint = curate_paths["tmp"] / "checkpoint.json"
        checkpoint.write_text("not a checkpoint\n", encoding="utf-8")
        argv = ["curate", "--input", curate_paths["input"], "--output", curate_paths["output"],
                "--mock-script", curate_paths["script"], "--checkpoint", str(checkpoint)]
        result = run_python(curate_paths["tmp"], "\n".join([
            "import sys",
            "from cogforge.cli import entrypoint",
            "assert 'cogforge.pipeline' not in sys.modules",
            f"sys.exit(entrypoint({argv!r}))",
        ]))
        assert result.returncode == EXIT_FATAL
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "header" in result.stderr


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
