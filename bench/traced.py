"""Traced in-process run: spans around the package's public functions.

The wrappers live here, outside the program. Each one replaces a function in
the namespace that calls it (``cogforge.cli.read_rows``, methods of
``Agents``, ...) and records a span: name, start, end, parent span and trace
id. The trace id is the record id taken from ``request.key`` (or from the
record an agent method receives), so all spans of one record share it; spans
without one inherit their parent's. Spans opened on a worker thread with no
open span of their own take the main thread's innermost open span as parent,
so every span but the root has a parent. Spans stay in memory and are written
out when the run ends.

A wrapped name that no longer exists is skipped and its metrics reported as
absent. Generator functions (``read_rows``) are timed only inside ``next()``.

Run as a child process by ``bench/run.py``:
    python3 bench/traced.py PLAN.json
The plan lists steps (CLI argv lists, file removals, HTTP posts, grad
checks). They run three times: untraced to warm up, untraced as the
baseline, and traced last, so the output files left on disk are the traced
pass's. After each pass the result records every step's wall time and exit
code, a digest of the plan's output files and, when the plan names a stub,
the stub's statistics for that pass. The spans file holds the traced pass's
spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import itertools
import json
import os
import sys
import threading
import time
import types
import urllib.request
from collections import defaultdict

BACKEND_NAMES = ("gateway.ScriptedBackend.complete", "gateway.HTTPBackend.complete")
PARSERS = ("records.parse_complexity", "records.parse_verdict")


class Span:
    __slots__ = ("id", "parent", "name", "trace", "start", "end", "busy", "intervals",
                 "thread", "error", "extra")

    def to_row(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, trace: str | None = None, push: bool = True) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span()
        span.id = next(self._ids)
        span.parent = parent.id if parent is not None else None
        span.name = name
        span.trace = trace if trace is not None else (parent.trace if parent is not None else None)
        span.thread = threading.get_ident()
        span.start = time.perf_counter()
        span.end = None
        span.busy = None
        span.intervals = None
        span.error = None
        span.extra = None
        if push:
            stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None):
        span = self.open(name, trace)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, owner, attr: str, name: str, trace_of=None, extra_of=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper, or note it missing."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(name)
            return
        tracer = self
        self._replaced.append((owner, attr, original))

        def trace(args):
            # A changed signature must cost the span its ids, not break the run.
            try:
                return trace_of(args) if trace_of else None
            except (AttributeError, IndexError, TypeError):
                return None

        def extra(args, result):
            try:
                return extra_of(args, result) if extra_of else None
            except (OSError, AttributeError, IndexError, TypeError):
                return None

        if inspect.isgeneratorfunction(original):
            @functools.wraps(original)
            def gen_wrapper(*args, **kwargs):
                span = tracer.open(name, trace(args), push=False)
                span.intervals = []
                span.busy = 0.0
                span.extra = extra(args, None)
                inner = original(*args, **kwargs)
                try:
                    while True:
                        t0 = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            t1 = time.perf_counter()
                            span.intervals.append((t0, t1))
                            span.busy += t1 - t0
                            span.end = t1
                        yield item
                finally:
                    inner.close()
            setattr(owner, attr, gen_wrapper)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, trace(args))
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.close(span)
                span.extra = extra(args, result)
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped name back, latest first."""
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)


def _key_record(request) -> str | None:
    key = getattr(request, "key", None)
    return key.split(":", 1)[1] if key and ":" in key else None


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, in the namespaces that call them."""
    import cogforge
    from cogforge import agents, cli, gateway, jsonl, loss, pipeline

    modules = [value for value in vars(cogforge).values() if isinstance(value, types.ModuleType)]
    # JSONL helpers are wrapped wherever a module imported them.
    for helper, name, extra in (
        ("read_rows", "jsonl.read_rows", lambda args, _r: os.path.getsize(args[0])),
        ("write_rows", "jsonl.write_rows", None),
    ):
        target = getattr(jsonl, helper, None)
        holders = [m for m in modules if m is not jsonl and getattr(m, helper, None) is target]
        if target is None or not holders:
            tracer.missing.append(name)
        for module in holders:
            tracer.wrap(module, helper, name, extra_of=extra)

    tracer.wrap(cli, "load_config", "config.load_config")
    tracer.wrap(cli, "load_templates", "agents.load_templates")
    tracer.wrap(cli, "load_script", "gateway.load_script")
    tracer.wrap(cli, "run_crv", "pipeline.run_crv")
    tracer.wrap(cli, "build_pairs", "pairs.build_pairs",
                extra_of=lambda _args, built: len(built) if built is not None else 0)
    tracer.wrap(cli, "join_quads", "loss.join_quads")
    tracer.wrap(cli, "cogpo_loss", "loss.cogpo_loss")
    tracer.wrap(pipeline, "save_checkpoint", "pipeline.save_checkpoint",
                extra_of=lambda args, _r: os.path.getsize(args[0]))
    tracer.wrap(pipeline, "load_checkpoint", "pipeline.load_checkpoint")
    tracer.wrap(pipeline, "validate_record", "records.validate_record")
    tracer.wrap(agents, "parse_complexity", "records.parse_complexity")
    tracer.wrap(agents, "parse_verdict", "records.parse_verdict")
    template_cls = getattr(agents, "PromptTemplate", None)
    if template_cls is None:
        tracer.missing.append("agents.render")
    else:
        tracer.wrap(template_cls, "render", "agents.render")
    agents_cls = getattr(agents, "Agents", None)
    record_of = {
        "critique": lambda args: args[1].id,
        "rerate": lambda args: args[1].id,
        "rethink": lambda args: args[5] if len(args) > 5 else None,
        "corrupt": lambda args: args[4] if len(args) > 4 else None,
        "verify": lambda args: args[4] if len(args) > 4 else None,
    }
    for method, trace_of in record_of.items():
        if agents_cls is None:
            tracer.missing.append(f"agents.{method}")
        else:
            tracer.wrap(agents_cls, method, f"agents.{method}", trace_of=trace_of)

    def key_and_tokens(args, response):
        return [getattr(args[1], "key", None), response.usage.total if response is not None else 0]

    for backend in ("ScriptedBackend", "HTTPBackend"):
        cls = getattr(gateway, backend, None)
        if cls is None:
            tracer.missing.append(f"gateway.{backend}.complete")
            continue
        tracer.wrap(cls, "complete", f"gateway.{backend}.complete",
                    trace_of=lambda args: _key_record(args[1]), extra_of=key_and_tokens)
    tracer.wrap(loss, "cogpo_token_loss", "loss.cogpo_token_loss")
    tracer.wrap(loss, "grad_check", "loss.grad_check")


def run_steps(steps: list[dict], tracer: Tracer | None) -> list[dict]:
    """Execute the plan's steps in order; returns one row per step."""
    from cogforge import cli, loss

    from gradcheck import make_case

    rows = []
    for step in steps:
        started = time.perf_counter()
        rc = 0
        stdout = io.StringIO()
        if "argv" in step:
            context = tracer.span("cli.entrypoint") if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(stdout), context:
                try:
                    rc = cli.entrypoint(step["argv"])
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
        elif "gradcheck" in step:
            batch, schedule, policy, reference = make_case(step["gradcheck"])
            context = tracer.span("bench.gradcheck") if tracer else contextlib.nullcontext()
            with context:
                report = loss.grad_check(batch, schedule, policy, reference)
            rc = 0 if report.passed else 1
        elif "remove" in step:
            for path in step["remove"]:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        elif "post" in step:
            request = urllib.request.Request(step["post"], data=b"{}", method="POST")
            with urllib.request.urlopen(request, timeout=30) as response:
                response.read()
        wall = time.perf_counter() - started
        rows.append({"step": step, "rc": rc, "wall": wall, "stdout": stdout.getvalue()})
    return rows


def digest(paths: list[str]) -> str:
    """SHA-1 of the files' bytes, in order."""
    h = hashlib.sha1()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def stub_stats(base: str | None) -> dict | None:
    if not base:
        return None
    with urllib.request.urlopen(base + "/__stats", timeout=30) as response:
        return json.loads(response.read())


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    passes = []
    tracer = Tracer()
    for traced in (False, False, True):
        if traced:
            install(tracer)
            root = tracer.open("bench.pass")
        rows = run_steps(plan["steps"], tracer if traced else None)
        if traced:
            tracer.close(root)
            tracer.uninstall()
        passes.append({"traced": traced, "rows": rows, "digest": digest(plan["outputs"]),
                       "stub": stub_stats(plan.get("stub"))})
    with open(plan["spans_path"], "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span.to_row()))
            handle.write("\n")
    with open(plan["result_path"], "w", encoding="utf-8") as handle:
        json.dump({"passes": passes, "missing": tracer.missing}, handle)
    return 0


# ---------------------------------------------------------------- analysis

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _duration(span: dict) -> float:
    if span["busy"] is not None:
        return span["busy"]
    return (span["end"] or span["start"]) - span["start"]


def _intervals(span: dict) -> list[tuple[float, float]]:
    if span["intervals"] is not None:
        return [tuple(i) for i in span["intervals"]]
    return [(span["start"], span["end"] or span["start"])]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.entrypoint_s", "s"), ("cli.self_s", "s"),
    ("config.load_config_s", "s"),
    ("agents.load_templates_s", "s"),
    ("gateway.load_script_s", "s"),
    ("jsonl.read_s", "s"), ("jsonl.write_s", "s"), ("jsonl.rows", "count"),
    ("jsonl.bytes_read", "bytes"),
    ("gateway.calls", "count"), ("gateway.call_p50_s", "s"), ("gateway.call_p99_s", "s"),
    ("gateway.server_s", "s"), ("gateway.server_frac", "ratio"),
    ("gateway.overhead_p50_s", "s"), ("gateway.overhead_p99_s", "s"),
    ("gateway.connections", "count"), ("gateway.retries", "count"),
    ("gateway.requests_per_record", "req/record"), ("gateway.tokens_per_record", "tokens/record"),
    ("agents.critique_calls", "count"), ("agents.critique_s", "s"),
    ("agents.requests_per_critique", "req/call"), ("agents.verify_s", "s"),
    ("agents.rethink_s", "s"), ("agents.corrupt_s", "s"), ("agents.render_s", "s"),
    ("agents.resamples", "count"),
    ("records.parse_s", "s"), ("records.validate_s", "s"),
    ("pipeline.run_crv_s", "s"), ("pipeline.self_s", "s"),
    ("pipeline.record_p50_s", "s"), ("pipeline.record_p99_s", "s"),
    ("pipeline.worker_busy_frac", "ratio"), ("pipeline.useful_request_frac", "ratio"),
    ("pipeline.checkpoint_s", "s"), ("pipeline.checkpoint_writes", "count"),
    ("pipeline.checkpoint_bytes_per_record", "bytes/record"), ("pipeline.load_checkpoint_s", "s"),
    ("pairs.build_s", "s"), ("pairs.built", "count"),
    ("loss.join_s", "s"), ("loss.cogpo_loss_s", "s"), ("loss.grad_check_s", "s"),
    ("loss.token_loss_calls", "count"),
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
    ("trace.record_ids", "count"), ("trace.orphan_spans", "count"),
)

# Metrics that cannot be computed when the named wrapper is missing.
REQUIRES = {
    "config.load_config": ("config.load_config_s",),
    "agents.load_templates": ("agents.load_templates_s",),
    "gateway.load_script": ("gateway.load_script_s",),
    "jsonl.read_rows": ("jsonl.read_s", "jsonl.rows", "jsonl.bytes_read"),
    "jsonl.write_rows": ("jsonl.write_s",),
    "pipeline.run_crv": ("pipeline.run_crv_s", "pipeline.self_s", "pipeline.worker_busy_frac"),
    "pipeline.save_checkpoint": ("pipeline.checkpoint_s", "pipeline.checkpoint_writes",
                                 "pipeline.checkpoint_bytes_per_record"),
    "pipeline.load_checkpoint": ("pipeline.load_checkpoint_s",),
    "records.validate_record": ("records.validate_s",),
    "records.parse_complexity": ("records.parse_s",),
    "records.parse_verdict": ("records.parse_s",),
    "agents.render": ("agents.render_s",),
    "agents.critique": ("agents.critique_calls", "agents.critique_s",
                        "agents.requests_per_critique"),
    "agents.verify": ("agents.verify_s",),
    "agents.rethink": ("agents.rethink_s",),
    "agents.corrupt": ("agents.corrupt_s",),
    "pairs.build_pairs": ("pairs.build_s", "pairs.built"),
    "loss.join_quads": ("loss.join_s",),
    "loss.cogpo_loss": ("loss.cogpo_loss_s",),
    "loss.grad_check": ("loss.grad_check_s",),
    "loss.cogpo_token_loss": ("loss.token_loss_calls",),
}


def layer_metrics(spans: list[dict], result: dict, context: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the spans of the traced pass.

    ``result`` is the result file of ``main``. ``context`` carries what the
    spans cannot know: ``records`` (input records curated per pass),
    ``concurrency`` and ``accepted`` (ids of records the reference walk
    accepts). Returns (metrics, absent names).
    """
    by_id = {span["id"]: span for span in spans}
    by_name: dict[str, list[dict]] = defaultdict(list)
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]].append(span)

    def total(name: str) -> float:
        return sum(_duration(span) for span in by_name[name])

    def self_time(name: str) -> float:
        out = 0.0
        for span in by_name[name]:
            inner = [i for child in children[span["id"]] for i in _intervals(child)]
            out += _duration(span) - _covered(inner, span["start"], span["end"] or span["start"])
        return out

    def ancestors(span: dict):
        parent = by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = by_id.get(parent["parent"])

    backend = [span for name in BACKEND_NAMES for span in by_name[name]]
    records = max(1, context["records"])
    baseline, traced_pass = result["passes"][1], result["passes"][-1]
    stub = traced_pass["stub"]
    client = {}
    for span in sorted(backend, key=lambda s: s["start"]):
        client.setdefault(span["trace"], []).append(span)
    call_times = [_duration(span) for span in backend]
    if stub:
        overheads = _overheads(backend, stub["log"])
        server_s = stub["service_s"]
        connections = stub["connections"]
        retries = max(0, stub["requests"] - len(backend))
        tokens = sum(entry[4] for entry in stub["log"])
        requests = stub["requests"]
    else:
        overheads = call_times
        server_s = 0.0
        connections = 0
        retries = 0
        tokens = sum(span["extra"][1] for span in backend if span["extra"])
        requests = len(backend)

    record_spans = [
        max(s["end"] for s in calls) - min(s["start"] for s in calls)
        for calls in client.values()
    ]
    run_crv = total("pipeline.run_crv")
    under: dict[int, int] = defaultdict(int)
    for span in backend:
        for ancestor in ancestors(span):
            under[ancestor["id"]] += 1
    critique_requests = sum(under[s["id"]] for s in by_name["agents.critique"])
    resamples = sum(1 for name in PARSERS for s in by_name[name] if s["error"])
    resamples += sum(
        max(0, under[s["id"]] - 1) for name in ("agents.rethink", "agents.corrupt")
        for s in by_name[name]
    )
    accepted = context.get("accepted") or set()
    untraced = sum(row["wall"] for row in baseline["rows"])
    traced = sum(row["wall"] for row in traced_pass["rows"])
    roots = [span for span in spans if span["parent"] is None]
    metrics = {
        "cli.entrypoint_s": total("cli.entrypoint"),
        "cli.self_s": self_time("cli.entrypoint"),
        "config.load_config_s": total("config.load_config"),
        "agents.load_templates_s": total("agents.load_templates"),
        "gateway.load_script_s": total("gateway.load_script"),
        "jsonl.read_s": total("jsonl.read_rows"),
        "jsonl.write_s": total("jsonl.write_rows"),
        "jsonl.rows": sum(len(s["intervals"]) - 1 for s in by_name["jsonl.read_rows"]
                          if s["intervals"]),
        "jsonl.bytes_read": sum(s["extra"] or 0 for s in by_name["jsonl.read_rows"]),
        "gateway.calls": len(backend),
        "gateway.call_p50_s": percentile(call_times, 50),
        "gateway.call_p99_s": percentile(call_times, 99),
        "gateway.server_s": server_s,
        "gateway.server_frac": server_s / sum(call_times) if stub and call_times else 0.0,
        "gateway.overhead_p50_s": percentile(overheads, 50),
        "gateway.overhead_p99_s": percentile(overheads, 99),
        "gateway.connections": connections,
        "gateway.retries": retries,
        "gateway.requests_per_record": requests / records,
        "gateway.tokens_per_record": tokens / records,
        "agents.critique_calls": len(by_name["agents.critique"]),
        "agents.critique_s": total("agents.critique"),
        "agents.requests_per_critique": critique_requests / max(1, len(by_name["agents.critique"])),
        "agents.verify_s": total("agents.verify"),
        "agents.rethink_s": total("agents.rethink"),
        "agents.corrupt_s": total("agents.corrupt"),
        "agents.render_s": total("agents.render"),
        "agents.resamples": resamples,
        "records.parse_s": total("records.parse_complexity") + total("records.parse_verdict"),
        "records.validate_s": total("records.validate_record"),
        "pipeline.run_crv_s": run_crv,
        "pipeline.self_s": self_time("pipeline.run_crv"),
        "pipeline.record_p50_s": percentile(record_spans, 50),
        "pipeline.record_p99_s": percentile(record_spans, 99),
        "pipeline.worker_busy_frac": (
            sum(record_spans) / (context["concurrency"] * run_crv) if run_crv else 0.0
        ),
        "pipeline.useful_request_frac": (
            sum(1 for s in backend if s["trace"] in accepted) / len(backend) if backend else 0.0
        ),
        "pipeline.checkpoint_s": total("pipeline.save_checkpoint"),
        "pipeline.checkpoint_writes": len(by_name["pipeline.save_checkpoint"]),
        "pipeline.checkpoint_bytes_per_record": (
            sum(s["extra"] or 0 for s in by_name["pipeline.save_checkpoint"]) / records
        ),
        "pipeline.load_checkpoint_s": total("pipeline.load_checkpoint"),
        "pairs.build_s": total("pairs.build_pairs"),
        "pairs.built": sum(s["extra"] or 0 for s in by_name["pairs.build_pairs"]),
        "loss.join_s": total("loss.join_quads"),
        "loss.cogpo_loss_s": total("loss.cogpo_loss"),
        "loss.grad_check_s": total("loss.grad_check"),
        "loss.token_loss_calls": len(by_name["loss.cogpo_token_loss"]),
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": (traced - untraced) / untraced if untraced else 0.0,
        "trace.spans": len(spans),
        "trace.record_ids": len({span["trace"] for span in spans if span["trace"]}),
        "trace.orphan_spans": sum(
            1 for span in spans
            if span["parent"] is not None and span["parent"] not in by_id
        ) + max(0, len(roots) - 1),
    }
    absent = sorted({metric for name in result.get("missing", []) for metric in REQUIRES.get(name, ())})
    for name in absent:
        metrics.pop(name, None)
    return metrics, absent


def _overheads(backend: list[dict], log: list[list]) -> list[float]:
    """Client call time minus the stub's service time, matched per key and
    in order: requests of one key arrive one after another."""
    served = defaultdict(list)
    for key, _position, _n, seconds, _tokens in log:
        served[key].append(seconds)
    calls = defaultdict(list)
    for span in sorted(backend, key=lambda s: s["start"]):
        if span["extra"]:
            calls[span["extra"][0]].append(_duration(span))
    out = []
    for key, durations in calls.items():
        for client_s, server_s in zip(durations, served.get(key, [])):
            out.append(client_s - server_s)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
