"""cogforge benchmark: curation (scripted, checkpointed, live) and the
preference numerics, run through the real CLI in child processes.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs are generated from --seed; the program sees only files):
  curate-scripted    ``curate --mock-script`` over 2000 records. The CPU-bound
                     path through pipeline, agents, records, jsonl and the
                     scripted backend; checkpoint and HTTP code is bypassed.
  curate-checkpoint  ``curate --checkpoint`` over 200 records, then the same
                     command again, which resumes from the completed
                     checkpoint. Checkpoint persistence dominates.
  curate-live        ``curate`` over 40 records against a loopback
                     OpenAI-compatible stub in its own process, with
                     per-request and per-word delays (``stub.DELAY_S`` and
                     ``stub.WORD_S``). Latency-bound: the stub's service time
                     is over 90% of the client's call time; requests and
                     completion words per record set the wall time.
  preference         ``pairs`` over 10k synthetic families with ~1 KB traces,
                     then ``loss-eval --output``. Only jsonl, pairs and loss
                     are involved.

Every workload also runs ``pairs`` and ``loss-eval`` on synthetic families
(1000 on the curate workloads) and ``loss.grad_check`` (vocab 16, 16
buckets, batch 16) in a child process, so every end-to-end metric is
measured on every workload. All curate runs use ``max_concurrency: 2``.

The run pins itself and its children to one vCPU (the stub goes to the
others). With ``--trace 0`` the end-to-end metrics are timed from outside the
child processes (``gradcheck_s`` around each call inside its child) and
rescaled to a reference CPU speed by the probe of ``bench/speed.py``, which
runs on the same vCPU; ``curate-live``'s ``records_per_s`` is set by the
stub's delays and stays wall time. Each is reported as the median over the
repetitions that fit in ``--seconds``. With
``--trace 1`` the workload's commands run in one child through
``cogforge.cli.entrypoint``, twice untraced and then with the span wrappers
of ``bench/traced.py``, and the per-layer metrics are reported.

Every output is checked against predictions made by ``bench/reference.py``
from the generated inputs. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
from traced import LAYER_METRICS, digest, layer_metrics  # noqa: E402

CONCURRENCY = 2
# Input records of the main command (families on preference).
SIZES = {
    "curate-scripted": 2000,
    "curate-checkpoint": 200,
    "curate-live": 40,
    "preference": 10000,
}
# Families for pairs and loss-eval on the curate workloads. A fixed-size
# synthetic set, not the curated families: how many records a seed's walk
# accepts varies, and pairs_per_s would vary with it.
CURATE_FAMILIES = 1000
# Rewrite length on curate-live: realistic, and independent of the record's
# trace-length class, so completion words per record vary little by seed.
LIVE_REWRITE_WORDS = (120, 180)
# grad_check calls per child process; each call is one gradcheck_s sample.
GRADCHECK_REPEAT = 2
# A workload's steps run in turn, as cycles, for --seconds. The first cycle
# always runs whole; after it, a step whose last run would not fit in the
# time left is skipped, and the run ends when no step fits. The report gives
# each metric's median. The host's speed changes from second to second, so
# a run takes many short samples spread over its whole length, each rescaled
# to the reference speed (speed.py).
RUN_DEADLINE_S = 170.0

# (name, unit); the same list is in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("families_per_s", "1/s"),
    ("pairs_per_s", "1/s"),
    ("gradcheck_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)

CLI = "import sys; from cogforge.cli import entrypoint; sys.exit(entrypoint())"


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def last_json(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else {}


class Session:
    """Runs child processes and keeps the operation and failure counts."""

    def __init__(self, root: str, work: str, deadline: float, spare_cpus: set[int]) -> None:
        self.root = root
        self.spare_cpus = spare_cpus
        self.work = work
        self.deadline = deadline
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env.pop("COGFORGE_API_KEY", None)
        self.attempted = 0
        self.failed = 0
        self.op_failed = False
        self.problems: list[str] = []
        self.peak_rss_kb = 0
        self.probe: subprocess.Popen | None = None
        self.speed: speed.SpeedLog | None = None
        self.factors: list[float] = []

    def begin(self) -> None:
        """Count one operation; checks that follow belong to it."""
        self.attempted += 1
        self.op_failed = False

    def fail(self, message: str) -> None:
        """Record a problem; the current operation counts as failed once."""
        self.problems.append(message)
        if not self.op_failed:
            self.op_failed = True
            self.failed += 1

    def start_probe(self) -> None:
        """Start the speed probe on this process's vCPU and wait for its first record."""
        path = os.path.join(self.work, "speed.bin")
        open(path, "wb").close()
        self.probe = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speed.py"), path],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.speed = speed.SpeedLog(path)
        limit = time.monotonic() + 30
        while not self.speed.ready():
            if self.probe.poll() is not None or time.monotonic() > limit:
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.01)

    def close(self) -> None:
        if self.probe is not None:
            self.probe.kill()
            self.probe.wait()
            self.probe = None

    def scaled(self, start: float, end: float) -> float:
        """Seconds of the monotonic interval [start, end] at the reference speed."""
        if self.probe is None or self.probe.poll() is not None:
            raise RuntimeError("the speed probe is not running")
        factor = self.speed.factor(start, end)
        self.factors.append(factor)
        return (end - start) * factor

    def run(self, args: list[str], label: str, ok=(0,), scaled=True) -> tuple[float, int, str]:
        """Run ``python args`` to completion; returns (seconds, exit code, stdout).

        The seconds are the wall time at the reference speed while the speed
        probe runs and ``scaled`` is true, else the wall time. Counts one
        operation, failed if the exit code is not in ``ok`` or a check that
        follows fails.
        """
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.monotonic()
            child = subprocess.Popen(
                [sys.executable, *args], stdout=out, stderr=err, env=self.env, cwd=self.root,
            )
            timer = threading.Timer(timeout, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            ended = time.monotonic()
        child.returncode = code = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.begin()
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        if code not in ok:
            with open(err_path, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-600:]
            self.fail(f"{label}: exit code {code}: {tail}")
        if scaled and self.probe is not None:
            return self.scaled(started, ended), code, stdout
        return ended - started, code, stdout

    def cli(self, argv: list[str], label: str, scaled=True) -> tuple[float, int, str]:
        # Exit code 2 means "completed with discards", which is success.
        return self.run(["-c", CLI, *argv], label, ok=(0, 2), scaled=scaled)


class Workload:
    """Inputs, commands and checks of one workload."""

    # One cycle; the cheap setup probe repeats so that it gets several samples.
    steps = ("setup_probe", "setup_probe", "main_once", "prefs_once", "gradcheck_once")

    def __init__(self, name: str, session: Session, seed: int, scale: float) -> None:
        self.name = name
        self.s = session
        self.n = max(4, int(SIZES[name] * scale))
        self.rng = random.Random(f"{name}:{seed}")
        self.checked: dict[str, str] = {}
        self.config = self.path("config.yaml")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(f"pipeline:\n  max_concurrency: {CONCURRENCY}\n")

    def path(self, name: str) -> str:
        return os.path.join(self.s.work, name)

    # ---- inputs

    def prepare_preference_inputs(self, n_families: int) -> None:
        self.families = gen.families(self.rng, n_families)
        self.families_path = self.path("families.jsonl")
        gen.write_jsonl(self.families_path, self.families)
        self.n_families = n_families
        self.pairs = reference.expected_pairs(self.families)
        self.logprobs = gen.logprobs(self.rng, [pair["id"] for pair in self.pairs])
        self.loss, self.margins = reference.loss_reference(self.pairs, self.logprobs)
        self.logprobs_path = self.path("logprobs.jsonl")
        gen.write_jsonl(self.logprobs_path, self.logprobs)
        self.gradcheck_seed = self.rng.randrange(1 << 30)

    def close(self) -> None:
        pass

    # ---- commands

    def pairs_argv(self) -> list[str]:
        return ["--config", self.config, "pairs", "--families", self.families_path,
                "--output", self.path("pairs.jsonl")]

    def loss_argv(self) -> list[str]:
        return ["--config", self.config, "loss-eval", "--pairs", self.path("pairs.jsonl"),
                "--logprobs", self.logprobs_path, "--output", self.path("report.jsonl")]

    def setup_probe(self) -> dict[str, float]:
        return {"setup_s": self.s.cli(self.setup_argv(), f"{self.name} setup")[0]}

    def prefs_once(self) -> dict[str, float]:
        pairs_s, code, _ = self.s.cli(self.pairs_argv(), "pairs")
        if code == 0:
            self.check_pairs()
        loss_s, code, stdout = self.s.cli(self.loss_argv(), "loss-eval")
        if code == 0:
            self.check_loss(stdout)
        return {
            "families_per_s": self.n_families / pairs_s,
            "pairs_per_s": len(self.pairs) / loss_s,
        }

    def gradcheck_once(self) -> dict[str, list[float]]:
        _, code, stdout = self.s.run(
            [os.path.join(HERE, "gradcheck.py"), "--seed", str(self.gradcheck_seed),
             "--repeat", str(GRADCHECK_REPEAT)], "grad_check"
        )
        report = last_json(stdout) if code == 0 else {}
        if code == 0 and not report.get("passed"):
            self.s.fail("grad_check: the analytic gradient disagrees with finite differences")
        return {"gradcheck_s": [self.s.scaled(*span) for span in report.get("intervals", [])]}

    def negative_control(self) -> None:
        _, code, stdout = self.s.run(
            [os.path.join(HERE, "gradcheck.py"), "--seed", str(self.gradcheck_seed), "--control"],
            "grad_check control",
        )
        if code == 0 and last_json(stdout).get("passed") is not False:
            self.s.fail("grad_check control: a corrupted gradient coordinate was not flagged")

    # ---- checks

    def same_as_checked(self, tag: str, paths: list[str]) -> bool:
        """True if these files were checked before with the same bytes;
        otherwise remember their digest and return False."""
        value = digest(paths)
        if self.checked.get(tag) == value:
            return True
        if tag in self.checked:
            self.s.fail(f"{tag}: output differs from the previous repetition")
            return True
        self.checked[tag] = value
        return False

    def check_pairs(self) -> None:
        path = self.path("pairs.jsonl")
        if self.same_as_checked("pairs", [path]):
            return
        expected = self.pairs
        got = 0
        counts = {"small": 0, "medium": 0, "large": 0}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                if got >= len(expected) or row != expected[got]:
                    self.s.fail(f"pairs: row {got} differs from the pair table")
                    return
                counts[row["gap"]] += 1
                got += 1
        if got != len(expected):
            self.s.fail(f"pairs: {got} rows, expected {len(expected)}")
            return
        want = self.expected_gap_counts()
        if counts != want:
            self.s.fail(f"pairs: counts by gap {counts} do not match the family mix {want}")

    def expected_gap_counts(self) -> dict[str, int]:
        """Pair counts by gap implied by the generated family mix."""
        counts = {"small": 0, "medium": 0, "large": 0}
        for family in self.families:
            if family["original_rating"] == "medium":
                counts["large"] += family["r_corrupted"] is not None
            else:
                counts["small"] += 1
                if family["r_corrupted"] is not None:
                    counts["medium"] += 1
                    counts["large"] += 1
        return counts

    def check_loss(self, stdout: str) -> None:
        summary = last_json(stdout)
        if summary.get("count") != len(self.pairs) or not reference.close(
            float(summary.get("loss", "nan")), self.loss
        ):
            self.s.fail(f"loss-eval: loss {summary.get('loss')} != numpy {self.loss}")
            return
        path = self.path("report.jsonl")
        if self.same_as_checked("report", [path]):
            return
        rows = read_jsonl(path)
        if [row["id"] for row in rows] != [pair["id"] for pair in self.pairs]:
            self.s.fail("loss-eval: report ids differ from the pairs")
            return
        for row, m in zip(rows, self.margins):
            if not (reference.close(row["margin"], float(m))
                    and reference.close(row["loss_term"], float(np.logaddexp(0.0, -m)))):
                self.s.fail(f"loss-eval: report row {row['id']} differs from numpy")
                return

    # ---- measurement

    def measure(self, seconds: float) -> dict[str, list[float]]:
        samples: dict[str, list[float]] = {}
        self.setup_probe()  # untimed: compiles bytecode and warms the page cache
        self.s.start_probe()
        end = time.monotonic() + seconds
        took: dict[str, float] = {}
        ran = True
        while ran:
            ran = False
            for step in self.steps:
                now = time.monotonic()
                if step in took and (now + took[step] > end or now > self.s.deadline):
                    continue
                for metric, value in getattr(self, step)().items():
                    samples.setdefault(metric, []).extend(
                        value if isinstance(value, list) else [value])
                took[step] = time.monotonic() - now
                ran = True
        self.negative_control()
        return samples

    def trace_steps(self) -> list[dict]:
        return [
            {"argv": self.pairs_argv()}, {"argv": self.loss_argv()},
            {"gradcheck": self.gradcheck_seed},
        ]

    def trace_outputs(self) -> list[str]:
        return [self.path("pairs.jsonl"), self.path("report.jsonl")]

    def check_traced(self, stdout: dict[str, str]) -> None:
        """Check the traced pass's outputs; ``stdout`` maps a command to its output."""
        self.check_pairs()
        self.check_loss(stdout["loss-eval"])

    def trace_context(self) -> dict:
        return {"records": self.n_families, "concurrency": CONCURRENCY, "accepted": set()}

    def stub_base(self) -> str | None:
        return None


class Curate(Workload):
    """Shared parts of the three curation workloads."""

    rewrite_words = None

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.dataset, self.script = gen.curation_inputs(self.rng, self.n, self.rewrite_words)
        self.dataset_path = self.path("dataset.jsonl")
        self.script_path = self.path("script.jsonl")
        self.empty_path = self.path("empty.jsonl")
        gen.write_jsonl(self.dataset_path, self.dataset)
        gen.write_script(self.script_path, self.script)
        open(self.empty_path, "w").close()
        self.predictions = [reference.walk(record, self.script) for record in self.dataset]
        self.accepted = {p["id"] for p in self.predictions if p["family"] is not None}
        self.expected_calls = sum(p["calls"] for p in self.predictions)
        self.prepare_preference_inputs(CURATE_FAMILIES)

    def outputs(self, stem: str = "out") -> list[str]:
        return [self.path(f"{stem}.jsonl"), self.path(f"{stem}.discards.jsonl"),
                self.path(f"{stem}.families.jsonl")]

    def curate_argv(self, dataset: str | None = None, stem: str = "out") -> list[str]:
        return ["--config", self.config, "curate", "--input", dataset or self.dataset_path,
                "--output", self.path(f"{stem}.jsonl"), "--mock-script", self.script_path]

    def setup_argv(self) -> list[str]:
        return self.curate_argv(self.empty_path, stem="empty-out")

    def check_curation(self, stem: str = "out") -> None:
        paths = self.outputs(stem)
        if self.same_as_checked(f"curate {stem}", paths):
            return
        problems = reference.check_curation(self.dataset, self.predictions, *map(read_jsonl, paths))
        for problem in problems:
            self.s.fail(f"curate: {problem}")

    def main_once(self) -> dict[str, float]:
        seconds, code, _ = self.s.cli(self.curate_argv(), "curate")
        if code in (0, 2):
            self.check_curation()
        return {"records_per_s": self.n / seconds}

    def trace_steps(self) -> list[dict]:
        return [{"argv": self.curate_argv()}] + super().trace_steps()

    def trace_outputs(self) -> list[str]:
        return self.outputs() + super().trace_outputs()

    def check_traced(self, stdout: dict[str, str]) -> None:
        self.check_curation()
        super().check_traced(stdout)

    def trace_context(self) -> dict:
        return {"records": self.n, "concurrency": CONCURRENCY, "accepted": self.accepted}


class CurateCheckpoint(Curate):
    def curate_argv(self, dataset: str | None = None, stem: str = "out") -> list[str]:
        return super().curate_argv(dataset, stem) + ["--checkpoint", self.path(f"{stem}.ckpt.json")]

    def main_once(self) -> dict[str, float]:
        checkpoint = self.path("out.ckpt.json")
        if os.path.exists(checkpoint):
            os.remove(checkpoint)
        sample = super().main_once()
        first = digest(self.outputs())
        # The identical command again resumes from the completed checkpoint.
        # Only the output files are compared: a resumed run's stdout summary
        # reports empty completions_by_stage (a known defect).
        _, code, _ = self.s.cli(self.curate_argv(), "curate resume")
        if code in (0, 2) and digest(self.outputs()) != first:
            self.s.fail("curate resume: outputs are not byte-identical to the first run")
        return sample

    def setup_probe(self) -> dict[str, float]:
        checkpoint = self.path("empty-out.ckpt.json")
        if os.path.exists(checkpoint):
            os.remove(checkpoint)
        return super().setup_probe()

    def trace_steps(self) -> list[dict]:
        steps = Curate.trace_steps(self)
        return [{"remove": [self.path("out.ckpt.json")]}, steps[0], steps[0]] + steps[1:]


class CurateLive(Curate):
    rewrite_words = LIVE_REWRITE_WORDS
    # The live run is long and sleep-bound, hence steady: one sample a run
    # is enough. The cheap steps repeat so that they get about as many
    # samples as on the other workloads.
    steps = ("main_once", "setup_probe", "setup_probe", "prefs_once", "gradcheck_once",
             "setup_probe", "setup_probe", "prefs_once", "gradcheck_once")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        port_file = self.path("stub.port")
        self.stub_err = open(self.path("stub.err"), "wb")
        self.stub = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"), "--script", self.script_path,
             "--dataset", self.dataset_path,
             "--templates", os.path.join(self.s.root, "src", "cogforge", "templates"),
             "--port-file", port_file],
            stdout=subprocess.DEVNULL, stderr=self.stub_err, env=self.s.env,
        )
        try:
            # The stub stands for a remote server: it runs off the client's
            # vCPU when there is another one.
            if self.s.spare_cpus:
                os.sched_setaffinity(self.stub.pid, self.s.spare_cpus)
            self.start()
        except BaseException:
            self.close()
            raise

    def start(self) -> None:
        """Wait for the stub's port, point the config at it and make the
        scripted reference outputs."""
        port_file = self.path("stub.port")
        limit = time.monotonic() + 30
        while not os.path.exists(port_file):
            if self.stub.poll() is not None or time.monotonic() > limit:
                raise RuntimeError("the loopback stub did not start")
            time.sleep(0.02)
        with open(port_file, encoding="utf-8") as handle:
            self.base = f"http://127.0.0.1:{handle.read().strip()}"
        with open(self.config, "w", encoding="utf-8") as handle:
            json.dump({
                "endpoints": {
                    role: {"url": f"{self.base}/v1/chat/completions", "model": "stub"}
                    for role in ("base", "large")
                },
                "pipeline": {"max_concurrency": CONCURRENCY},
            }, handle)
        # Scripted run on the same inputs: the live outputs must equal it.
        scripted = Curate.curate_argv(self, stem="scripted")
        _, code, _ = self.s.cli(scripted, "curate scripted reference")
        if code in (0, 2):
            self.check_curation("scripted")
            self.reference_digest = digest(self.outputs("scripted"))
        else:
            self.reference_digest = None

    def curate_argv(self, dataset: str | None = None, stem: str = "out") -> list[str]:
        return ["--config", self.config, "curate", "--input", dataset or self.dataset_path,
                "--output", self.path(f"{stem}.jsonl")]

    def stub_call(self, path: str, method: str = "GET") -> dict:
        data = b"{}" if method == "POST" else None
        request = urllib.request.Request(self.base + path, data=data, method=method)
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def main_once(self) -> dict[str, float]:
        self.stub_call("/__reset", "POST")
        # Wall time, not rescaled: the stub's delays, not CPU speed, set it.
        wall, code, _ = self.s.cli(self.curate_argv(), "curate live", scaled=False)
        self.count_requests(self.stub_call("/__stats"))
        if code in (0, 2) and digest(self.outputs()) != self.reference_digest:
            self.s.fail("curate live: outputs differ from the scripted run on the same inputs")
        return {"records_per_s": self.n / wall}

    def count_requests(self, stats: dict) -> None:
        """Fail the curate command just run if the stub answered a request
        with an error or saw more requests than the walk predicts (retries
        after no answer)."""
        if stats["errors"]:
            self.s.fail(f"stub: {stats['errors']} requests answered with an error")
        if stats["requests"] > self.expected_calls:
            self.s.fail(f"stub: {stats['requests']} requests, the walk predicts "
                        f"{self.expected_calls}")

    def trace_steps(self) -> list[dict]:
        return [{"post": self.base + "/__reset"}] + super().trace_steps()

    def check_traced(self, stdout: dict[str, str]) -> None:
        super().check_traced(stdout)
        if digest(self.outputs()) != self.reference_digest:
            self.s.fail("curate live: outputs differ from the scripted run on the same inputs")

    def stub_base(self) -> str | None:
        return self.base

    def close(self) -> None:
        self.stub.terminate()
        try:
            self.stub.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.stub.kill()
            self.stub.wait()
        self.stub_err.close()


class Preference(Workload):
    # pairs_per_s spreads most between runs here, so prefs runs twice a cycle.
    steps = ("setup_probe", "prefs_once", "prefs_once", "gradcheck_once")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.empty_path = self.path("empty.jsonl")
        open(self.empty_path, "w").close()
        self.prepare_preference_inputs(self.n)

    def setup_argv(self) -> list[str]:
        return ["--config", self.config, "pairs", "--families", self.empty_path,
                "--output", self.path("empty-pairs.jsonl")]

    def prefs_once(self) -> dict[str, float]:
        sample = super().prefs_once()
        sample["records_per_s"] = sample["families_per_s"]
        return sample


WORKLOADS = {
    "curate-scripted": Curate,
    "curate-checkpoint": CurateCheckpoint,
    "curate-live": CurateLive,
    "preference": Preference,
}


def traced_run(workload: Workload) -> dict[str, float]:
    s = workload.s
    plan = {
        "steps": workload.trace_steps(),
        "outputs": workload.trace_outputs(),
        "stub": workload.stub_base(),
        "spans_path": os.path.join(s.root, ".bench_work", f"spans-{workload.name}.jsonl"),
        "result_path": os.path.join(s.work, "traced.json"),
    }
    plan_path = os.path.join(s.work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    _, code, _ = s.run([os.path.join(HERE, "traced.py"), plan_path], "traced run")
    if code != 0:
        return {}
    with open(plan["result_path"], encoding="utf-8") as handle:
        result = json.load(handle)
    for index, run in enumerate(result["passes"]):
        for row in run["rows"]:
            s.begin()
            if row["rc"] not in (0, 2):
                s.fail(f"traced pass {index} step {row['step']}: exit code {row['rc']}")
        if run["stub"] is not None:
            workload.count_requests(run["stub"])
        if run["digest"] != result["passes"][0]["digest"]:
            s.fail(f"traced pass {index}: output files differ from the first pass")
    # The traced pass ran last, so the files on disk are its outputs.
    workload.check_traced({
        row["step"]["argv"][2]: row["stdout"]
        for row in result["passes"][-1]["rows"] if "argv" in row["step"]
    })
    spans = read_jsonl(plan["spans_path"])
    metrics, absent = layer_metrics(spans, result, workload.trace_context())
    if absent:
        print(f"absent (wrapped name missing): {', '.join(absent)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cogforge benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's input size (for exploration only)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cogforge", "cli.py")):
        print("error: run from the repository root; src/cogforge is missing", file=sys.stderr)
        return 2
    began = time.monotonic()
    # One vCPU for this process, its children and the speed probe, which
    # must share the vCPU whose speed it measures (see speed.py).
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    work = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    session = Session(root, work, began + RUN_DEADLINE_S, cpus - {max(cpus)})
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.workload, session, args.seed, args.scale)
        if args.trace:
            values = traced_run(workload)
            units = dict(LAYER_METRICS)
        else:
            samples = workload.measure(args.seconds)
            values = {}
            for name, _unit in END_TO_END:
                if name in samples:
                    values[name] = statistics.median(samples[name])
                    print(f"{name}: n={len(samples[name])} median={values[name]:.6g} "
                          f"min={min(samples[name]):.6g} max={max(samples[name]):.6g}")
            print("samples " + json.dumps(samples))
            if session.factors:
                print(f"speed factor (reference / measured speed): n={len(session.factors)} "
                      f"median={statistics.median(session.factors):.4g} "
                      f"min={min(session.factors):.4g} max={max(session.factors):.4g}")
            values["peak_rss_mb"] = session.peak_rss_kb / 1024.0
            values["success_rate"] = 1.0 - session.failed / max(1, session.attempted)
            units = dict(END_TO_END)
    finally:
        if workload is not None:
            workload.close()
        session.close()
        shutil.rmtree(work, ignore_errors=True)
    for problem in session.problems[:20]:
        print(f"check failed: {problem}")
    print(f"elapsed {time.monotonic() - began:.1f}s")
    print(json.dumps({
        "correct": session.failed == 0 and not session.problems,
        "attempted": max(1, session.attempted),
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
