"""Every name ``bench/traced.py`` wraps still exists and is still called.

The traced bench reports a layer's metrics as absent when the name it wraps
is gone, and times nothing when the program no longer calls that name where
it is wrapped. This test installs the bench's tracer in process and runs one
flow that reaches every wrapped name: ``curate --checkpoint`` twice (a run and
its resume), ``pairs``, ``loss-eval``, and one ``loss.grad_check`` call made
as the bench's ``run_steps`` makes it.
"""

from __future__ import annotations

import contextlib
import io
import json

from conftest import bench_module

from cogforge import cli, loss
from cogforge.jsonl import write_rows

traced = bench_module("traced")
gradcheck = bench_module("gradcheck")


def test_every_required_name_is_wrapped_and_called(tmp_path, six_record_dataset,
                                                    six_record_script):
    paths = {name: str(tmp_path / f"{name}.jsonl")
             for name in ("data", "script", "curated", "pairs", "lp", "report")}
    write_rows(paths["data"], [{"id": r.id, "problem": r.problem, "answer": r.answer,
                                "reasoning": r.reasoning} for r in six_record_dataset])
    write_rows(paths["script"], [{"key": key, "responses": responses}
                                 for key, responses in six_record_script.items()])
    curate = ["curate", "--input", paths["data"], "--output", paths["curated"],
              "--mock-script", paths["script"], "--checkpoint", str(tmp_path / "ck.json")]
    tracer = traced.Tracer()
    traced.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.entrypoint(curate) == cli.EXIT_PARTIAL
            assert cli.entrypoint(curate) == cli.EXIT_PARTIAL  # resumed from the checkpoint
            assert cli.entrypoint(["pairs", "--families", str(tmp_path / "curated.families.jsonl"),
                                   "--output", paths["pairs"]]) == cli.EXIT_OK
            with open(paths["pairs"], encoding="utf-8") as handle:
                pair_ids = [json.loads(line)["id"] for line in handle]
            write_rows(paths["lp"], [{"id": pair_id, "lp_w_theta": -1.0, "lp_w_ref": -1.5,
                                      "lp_l_theta": -2.5, "lp_l_ref": -2.0}
                                     for pair_id in pair_ids])
            assert cli.entrypoint(["loss-eval", "--pairs", paths["pairs"], "--logprobs",
                                   paths["lp"], "--output", paths["report"]]) == cli.EXIT_OK
        batch, schedule, policy, reference = gradcheck.make_case(1)
        assert loss.grad_check(batch, schedule, policy, reference).passed
    finally:
        tracer.uninstall()
    assert [name for name in traced.REQUIRES if name in tracer.missing] == []
    called = {span.name for span in tracer.spans}
    assert [name for name in traced.REQUIRES if name not in called] == []
