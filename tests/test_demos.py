"""Every script under demos/ runs to completion against the package in src/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cogforge.cli import entrypoint

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def run_demo(demo: Path, cwd: Path, *args: str) -> None:
    """Run ``demo`` in ``cwd``, a test's tmp_path, which is also its temp dir:
    what a demo makes with ``tempfile`` goes when pytest removes the tmp_path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(cwd)
    result = subprocess.run(
        [sys.executable, str(demo), *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    run_demo(demo, tmp_path)


def test_walkthrough_pairs_match_the_cli(tmp_path):
    """The walkthrough writes its pairs through build_pairs and to_dict; the
    pairs command over its families file writes the same bytes."""
    run_demo(ROOT / "demos" / "offline_curation_walkthrough.py", tmp_path,
             "--out-dir", str(tmp_path))
    assert entrypoint(["pairs", "--families", str(tmp_path / "families.jsonl"),
                       "--output", str(tmp_path / "cli-pairs.jsonl")]) == 0
    library = (tmp_path / "pairs.jsonl").read_bytes()
    assert library.count(b"\n") == 4
    assert (tmp_path / "cli-pairs.jsonl").read_bytes() == library
