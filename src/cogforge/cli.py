"""Command-line driver.

Subcommands: curate (run the full curation pipeline), pairs (build preference
pairs from curated families), loss-eval (score externally computed
log-probabilities), selftest (numeric and prompt-conformance checks).

Exit codes are a stable contract: 0 clean, 1 fatal error (usage errors
included), 2 completed with some records discarded. The last stdout line of
curate/pairs/loss-eval is a single JSON object for machine consumption.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import logging
import math
import os
import sys
from collections.abc import Iterator

from .config import AppConfig, ConfigError, GatewayError, _cast, load_config
from .jsonl import read_rows, write_rows
from .pairs import EmptyFamily, assign_beta, build_pairs
from .records import (FAMILY_SCHEMA, LOGPROB_SCHEMA, PAIR_SCHEMA, RECORD_SCHEMA, BetaSchedule,
                      CoTRecord, GapType, LogProbQuad, RecordFamily)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2

# A command holds its rows (dicts, tuples, lists) until it ends and makes no
# cycles of them, yet at the interpreter's youngest-generation threshold (700
# on Python 3.11) the cycle collector scans them about 160 times during a
# loss-eval over 22.6k pairs. One batch-sized threshold lets a bench-sized
# command run without a collection; entrypoint restores the caller's.
_YOUNG_GC_THRESHOLD = 200_000

# The layers a command loads on first use, with the names this module takes
# from each: ``pairs`` never loads the CRV walk, the HTTP client or the loss.
_LAYERS = {
    "agents": ("GOLDEN_INPUTS", "TEMPLATE_NAMES", "Agents", "load_golden_fixture",
               "load_templates"),
    "gateway": ("HTTPBackend", "ScriptedBackend", "load_script"),
    "loss": ("TokenPair", "ToyPolicy", "cogpo_loss", "dpo_loss", "grad_check", "join_quads"),
    "pipeline": ("run_crv",),
}


def _load(*modules: str) -> None:
    """Import each of the ``modules`` in _LAYERS and bind its names here. A
    name already bound keeps its value, so a replacement set on this module
    (by a test or a tracer) is what the commands call."""
    for module in modules:
        layer = importlib.import_module(f".{module}", __package__)
        for name in _LAYERS[module]:
            globals().setdefault(name, getattr(layer, name))


def __getattr__(name: str):
    for module, names in _LAYERS.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here means a partial success."""

    def exit(self, status: int = EXIT_OK, message: str | None = None):
        super().exit(EXIT_FATAL if status == 2 else status, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cogforge",
        description="Curate chain-of-thought data and build gap-weighted preference pairs.",
    )
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    commands = parser.add_subparsers(dest="command", required=True)

    curate = commands.add_parser("curate", help="run the curation pipeline over a JSONL dataset")
    curate.add_argument("--input", required=True, help="input JSONL: id, problem, answer, reasoning")
    curate.add_argument("--output", required=True, help="curated-records JSONL")
    curate.add_argument("--discards", help="discard-log JSONL (default: derived from --output)")
    curate.add_argument("--families", help="record-families JSONL (default: derived from --output)")
    curate.add_argument("--checkpoint", help="interrupt/resume file: a header line, then one "
                        "JSON line appended per record; compacted when the run ends")
    curate.add_argument("--mock-script", help="scripted-backend JSONL for offline runs")
    curate.set_defaults(func=cmd_curate)

    pairs = commands.add_parser("pairs", help="build preference pairs from a families file")
    pairs.add_argument("--families", required=True, help="families JSONL from curate")
    pairs.add_argument("--output", required=True, help="pair JSONL")
    pairs.set_defaults(func=cmd_pairs)

    loss_eval = commands.add_parser(
        "loss-eval", help="evaluate the preference loss over external log-probabilities"
    )
    loss_eval.add_argument("--pairs", required=True, help="pair JSONL from the pairs subcommand")
    loss_eval.add_argument("--logprobs", required=True, help="log-prob JSONL keyed by pair id")
    loss_eval.add_argument("--output", help="per-pair report JSONL")
    loss_eval.set_defaults(func=cmd_loss_eval)

    selftest = commands.add_parser("selftest", help="run the built-in verification suite")
    selftest.add_argument("--inject-gradient-fault", action="store_true", help=argparse.SUPPRESS)
    selftest.set_defaults(func=cmd_selftest)
    return parser


def entrypoint(argv: list[str] | None = None) -> int:
    thresholds = gc.get_threshold()
    gc.set_threshold(_YOUNG_GC_THRESHOLD, *thresholds[1:])
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.func(args)
    except (GatewayError, OSError, ValueError) as exc:  # unusable data is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        gc.set_threshold(*thresholds)


def _refuse_overwrites(outputs: dict[str, str | None], reads: dict[str, str | None]) -> None:
    """Refuse an output path that names another output or a file the command
    reads, compared after ``os.path.realpath``: writing it would replace that
    file. Absent paths are skipped."""
    owners: dict[str, str] = {}
    for flag, path in reads.items():
        if path:
            owners.setdefault(os.path.realpath(path), flag)
    for flag, path in outputs.items():
        if not path:
            continue
        owner = owners.setdefault(os.path.realpath(path), flag)
        if owner != flag:
            raise ConfigError(f"{flag} {path} is the same file as {owner}; refusing to write over it")


def _derived_path(output: str, tag: str) -> str:
    stem, _ = os.path.splitext(output)
    return f"{stem}.{tag}.jsonl"


def _build_backend(config: AppConfig, mock_script: str | None):
    """The backend as a context manager: leaving it closes the connections an
    HTTP backend opened, one per worker thread and endpoint origin; the
    scripted backend holds nothing to close."""
    _load("gateway")
    if mock_script:
        return contextlib.nullcontext(ScriptedBackend(load_script(mock_script)))
    if not config.endpoints:
        raise ConfigError("no endpoints configured; supply a config file or --mock-script")
    return HTTPBackend(config.endpoints)


def _load_dataset(path: str) -> list[CoTRecord]:
    return [
        CoTRecord(id=row["id"], problem=row["problem"], answer=row["answer"],
                  reasoning=row["reasoning"])
        for row in read_rows(path, RECORD_SCHEMA)
    ]


def cmd_curate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    checkpoint_flag = "pipeline.checkpoint_path"
    if args.checkpoint is not None:
        checkpoint_flag = "--checkpoint"
        config.pipeline.checkpoint_path = _cast(checkpoint_flag, args.checkpoint, None)
    discards_path = args.discards or _derived_path(args.output, "discards")
    families_path = args.families or _derived_path(args.output, "families")
    _refuse_overwrites(
        {"--output": args.output, "--discards": discards_path, "--families": families_path},
        {"--config": args.config, "--input": args.input, "--mock-script": args.mock_script,
         checkpoint_flag: config.pipeline.checkpoint_path},
    )
    _load("agents", "pipeline")
    with _build_backend(config, args.mock_script) as backend:
        agents = Agents(
            backend,
            templates=load_templates(config.templates_dir),
            sampling=config.sampling,
        )
        dataset = _load_dataset(args.input)
        curated, families, stats, discards = run_crv(dataset, config.pipeline, agents)

    write_rows(args.output, [record.to_output_dict() for record in curated])
    write_rows(discards_path, discards)
    write_rows(families_path, [family.to_dict() for family in families])

    by_level = ", ".join(f"{level} {count}" for level, count in stats.intake_by_level.items())
    print(f"intake: {stats.intake_total} ({by_level})")
    print(f"curated: {stats.final_size} ({stats.rewritten} rewritten), discarded: {stats.discarded}")
    print(f"wrote {args.output}, {families_path}, {discards_path}")
    print(json.dumps(stats.to_dict(), sort_keys=True))
    return EXIT_PARTIAL if discards else EXIT_OK


def cmd_pairs(args: argparse.Namespace) -> int:
    _refuse_overwrites({"--output": args.output},
                       {"--config": args.config, "--families": args.families})
    config = load_config(args.config)
    counts = {gap.value: 0 for gap in GapType}
    families = skipped = 0

    def pair_rows() -> Iterator[dict]:
        # One family in memory at a time: its pairs are written as it is built.
        nonlocal families, skipped
        for row in read_rows(args.families, FAMILY_SCHEMA):
            families += 1
            try:
                built = build_pairs(RecordFamily.from_dict(row), config.schedule)
            except EmptyFamily as exc:
                log.warning("%s", exc)
                skipped += 1
                continue
            for pair in built:
                counts[pair.gap] += 1  # a GapType is a str equal to its value
                yield pair.to_dict()

    written = write_rows(args.output, pair_rows())
    print(f"families: {families} ({skipped} without constructible pairs)")
    print(f"pairs: {written} " + ", ".join(f"{gap} {n}" for gap, n in counts.items()))
    print(json.dumps(
        {"families": families, "skipped": skipped, "pairs": written, "by_gap": counts},
        sort_keys=True,
    ))
    return EXIT_OK


def cmd_loss_eval(args: argparse.Namespace) -> int:
    _refuse_overwrites({"--output": args.output}, {
        "--config": args.config, "--pairs": args.pairs, "--logprobs": args.logprobs})
    _load("loss")
    schedule = load_config(args.config).schedule
    # Generators, not lists: join_quads keeps only the id and gap of each pair row.
    joined = join_quads(read_rows(args.pairs, PAIR_SCHEMA),
                        read_rows(args.logprobs, LOGPROB_SCHEMA))
    report = cogpo_loss([(quad, gap) for _, quad, gap in joined], schedule)

    # Each gap's name and beta, resolved once per gap rather than once per pair.
    name = {gap: gap.value for gap in GapType}
    beta = {gap: assign_beta(gap, schedule) for gap in GapType}
    margin_sums: dict[str, list[float]] = {}
    for (_id, _quad, gap), m in zip(joined, report.margins):
        margin_sums.setdefault(name[gap], []).append(m)
    if args.output:
        write_rows(args.output, (
            {"id": pair_id, "gap": name[gap], "beta": beta[gap], "margin": m, "loss_term": term}
            for (pair_id, _quad, gap), m, term in zip(joined, report.margins, report.terms)
        ))
    mean_by_gap = {gap: sum(values) / len(values) for gap, values in sorted(margin_sums.items())}
    for gap, mean in mean_by_gap.items():
        print(f"mean margin ({gap}): {mean:.6f}")
    print(f"loss: {report.loss:.12f} over {len(joined)} pairs")
    print(json.dumps(
        {"loss": report.loss, "count": len(joined), "mean_margin_by_gap": mean_by_gap},
        sort_keys=True,
    ))
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    import numpy as np

    _load("agents", "loss")
    checks: list[tuple[str, bool, str]] = []
    schedule = BetaSchedule()

    rng = np.random.default_rng(7)
    policy = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
    reference = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
    batch = [
        TokenPair(prompt=(0, 1), chosen=(1, 2, 0), rejected=(2,), gap=GapType.SMALL),
        TokenPair(prompt=(2,), chosen=(0, 0), rejected=(1, 2), gap=GapType.MEDIUM),
        TokenPair(prompt=(1,), chosen=(2, 1), rejected=(0,), gap=GapType.LARGE),
        TokenPair(prompt=(0,), chosen=(1,), rejected=(2, 2), gap=GapType.LARGE),
    ]
    fault = (0, 1) if args.inject_gradient_fault else None
    gradient = grad_check(batch, schedule, policy, reference, corruption=fault)
    checks.append(
        ("gradient-check", gradient.passed, f"max rel err {gradient.max_rel_error:.2e}")
    )
    control = grad_check(batch, schedule, policy, reference, corruption=(1, 2))
    checks.append(
        ("negative-control", not control.passed, f"corrupted coordinate flagged at {control.worst_coordinate}")
    )

    degenerate = BetaSchedule(beta_small=0.3, beta_medium=0.3, beta_large=0.3)
    gaps = list(GapType)
    worst = 0.0
    for _ in range(200):
        quads = [
            LogProbQuad(*(rng.normal(-3.0, 2.0) for _ in range(4))) for _ in range(8)
        ]
        tagged = [(quad, gaps[int(rng.integers(3))]) for quad in quads]
        diff = abs(cogpo_loss(tagged, degenerate).loss - dpo_loss(quads, 0.3).loss)
        worst = max(worst, diff)
    checks.append(("reduction", worst < 1e-12, f"max deviation {worst:.2e}"))

    extremes = [-1e4, -100.0, 0.0, 100.0, 1e4]
    stable = all(
        math.isfinite(dpo_loss([LogProbQuad(m, 0.0, 0.0, 0.0)], 1.0).loss) for m in extremes
    )
    checks.append(("stability", stable, "margins swept over [-1e4, 1e4]"))

    try:
        templates = load_templates()
        conforming = True
        for name in TEMPLATE_NAMES:
            golden = load_golden_fixture(name)
            system, user = templates[name].render(**GOLDEN_INPUTS)
            if system != golden["system"] or user != golden["user"]:
                conforming = False
        checks.append(("prompt-golden", conforming, "rendered prompts vs golden fixtures"))
    except (OSError, KeyError, ValueError) as exc:
        checks.append(("prompt-golden", False, f"fixture load failed: {exc}"))

    width = max(len(name) for name, _ok, _note in checks) + 2
    for name, ok, note in checks:
        print(f"{name.ljust(width)}{'PASS' if ok else 'FAIL'}  {note}")
    return EXIT_OK if all(ok for _name, ok, _note in checks) else EXIT_FATAL
