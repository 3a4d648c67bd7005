"""Batch curation: rate each trace, rewrite and re-verify the unsuitable ones,
assemble the curated set, and checkpoint progress after every record.

Records are independent work items on a bounded worker pool. Output ordering
always follows input ordering, and with a scripted backend the whole run is a
pure function of (dataset, script, config). Agent failures discard the one
record; gateway failures abort the batch with the checkpoint intact.
"""

from __future__ import annotations

import copy
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass

from .agents import AgentError, Agents, direction_for
from .gateway import ConfigError, ModelRole
from .jsonl import write_json_atomic
from .records import (
    ComplexityLevel,
    CoTRecord,
    PipelineStats,
    RecordFamily,
    Source,
    validate_record,
)

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "cogforge-checkpoint-v1"

ACCEPTED_MEDIUM = "accepted_medium"
ACCEPTED_REWRITTEN = "accepted_rewritten"
DISCARDED = "discarded"


class DuplicateId(ValueError):
    """Two records (or curated outputs) share an id."""


class CorruptCheckpoint(RuntimeError):
    """The checkpoint file exists but cannot be trusted."""


@dataclass
class PipelineConfig:
    retry_cap: int = 3
    votes: int = 3
    max_concurrency: int = 4
    verifier_role: ModelRole = ModelRole.LARGE
    corruption_gate: bool = False
    checkpoint_path: str | None = None

    def validate(self) -> list[str]:
        violations = []
        if self.retry_cap < 1:
            violations.append("retry_cap: must be >= 1")
        if self.votes < 1 or self.votes % 2 == 0:
            violations.append("votes: must be a positive odd integer")
        if self.max_concurrency < 1:
            violations.append("max_concurrency: must be >= 1")
        return violations


@dataclass
class RecordOutcome:
    record: CoTRecord
    status: str
    family: RecordFamily | None = None
    discard_reason: str | None = None
    attempts: int = 0
    ever_verified: bool = False

    def to_checkpoint(self) -> dict:
        return {
            "status": self.status,
            "record": self.record.to_dict(),
            "family": self.family.to_dict() if self.family is not None else None,
            "discard_reason": self.discard_reason,
            "attempts": self.attempts,
            "ever_verified": self.ever_verified,
        }


def _process_record(record: CoTRecord, agents: Agents, config: PipelineConfig) -> RecordOutcome:
    """Walk one record through the CRV state machine.

    The critic rates the trace at intake. A medium trace is verified as it
    stands. An easy or hard trace is rethought, the rewrite verified, and a
    verified rewrite re-rated: medium accepts it, easy/hard makes it the next
    attempt's input. Both paths share one budget of ``retry_cap`` attempts; a
    NO verdict retries from the last trusted text. An AgentError discards the
    record with the attempts and verifications counted so far.
    """
    work = copy.deepcopy(record)
    outcome = RecordOutcome(record=work, status=DISCARDED)
    try:
        intake, votes = agents.critique(work, votes=config.votes)
        work.add_rating("intake", intake, votes)
        rewriting = intake != ComplexityLevel.MEDIUM
        text, level = work.reasoning, intake
        for attempt in range(1, config.retry_cap + 1):
            outcome.attempts = attempt
            candidate = text
            if rewriting:
                candidate = agents.rethink(
                    work.problem, work.answer, text, direction_for(level), work.id
                )
            if not agents.verify(work.problem, work.answer, candidate, work.id):
                # Retry from the last trusted text; the rewrite prompts
                # presume a correct input trace.
                continue
            outcome.ever_verified = True
            if rewriting:
                level, new_votes = agents.rerate(work, candidate, votes=config.votes)
                work.add_rating(f"re-rate-{attempt}", level, new_votes)
                if level != ComplexityLevel.MEDIUM:
                    text = candidate
                    continue
                work.source = Source.REWRITTEN
                work.rewrite_count = attempt
            outcome.family = RecordFamily(
                id=work.id, problem=work.problem, answer=work.answer, original_rating=intake,
                r_original=work.reasoning, r_rewritten=candidate if rewriting else None,
            )
            outcome.status = ACCEPTED_REWRITTEN if rewriting else ACCEPTED_MEDIUM
            work.reasoning = candidate
            work.verified = True
            break
        else:
            outcome.discard_reason = (
                f"no verified medium-rated rewrite within {config.retry_cap} attempts"
                if rewriting else f"medium trace failed verification {config.retry_cap} times"
            )
    except AgentError as exc:
        log.warning("record %s discarded: %s", work.id, exc)
        outcome.discard_reason = str(exc)

    if outcome.family is not None:
        try:
            outcome.family.r_corrupted = agents.corrupt(
                work.problem, work.answer, outcome.family.r_original, work.id
            )
        except AgentError as exc:
            # Acceptance stands; the family just cannot contribute
            # corruption-based pairs.
            log.warning("record %s: corruption failed, family kept without it: %s", work.id, exc)
    return outcome


def load_checkpoint(path: str) -> dict[str, dict]:
    """Read the completed-record map; absent file means a fresh run."""
    if not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from exc
    if not isinstance(obj, dict) or obj.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCheckpoint(f"{path}: missing or unknown format tag")
    completed = obj.get("completed")
    if not isinstance(completed, dict):
        raise CorruptCheckpoint(f"{path}: 'completed' is not an object")
    for record_id, row in completed.items():
        if not isinstance(row, dict) or row.get("status") not in (
            ACCEPTED_MEDIUM, ACCEPTED_REWRITTEN, DISCARDED,
        ):
            raise CorruptCheckpoint(f"{path}: malformed entry for record {record_id!r}")
    return dict(completed)


def save_checkpoint(path: str, completed: dict[str, dict]) -> None:
    write_json_atomic(path, {"format": CHECKPOINT_FORMAT, "completed": completed})


def run_crv(
    dataset: list[CoTRecord], config: PipelineConfig, agents: Agents
) -> tuple[list[CoTRecord], list[RecordFamily], PipelineStats, list[dict]]:
    """Curate a batch; returns (curated set, families, stats, discard rows).

    Fatal errors (gateway, config, corrupt checkpoint) propagate; per-record
    agent failures become discards. Progress is checkpointed after each record
    when config.checkpoint_path is set, and a resumed run reproduces the
    uninterrupted outputs byte for byte under the same scripted backend.
    """
    violations = config.validate()
    if violations:
        raise ConfigError("; ".join(violations))
    seen: set[str] = set()
    for record in dataset:
        if record.id in seen:
            raise DuplicateId(f"duplicate input id {record.id!r}")
        seen.add(record.id)
        problems = validate_record(record, retry_cap=config.retry_cap)
        if problems:
            raise ValueError(f"record {record.id}: {'; '.join(problems)}")

    completed: dict[str, dict] = {}
    if config.checkpoint_path:
        completed = load_checkpoint(config.checkpoint_path)
    todo = [record for record in dataset if record.id not in completed]
    if completed:
        log.info("resuming: %d of %d records already completed", len(completed), len(dataset))

    if todo:
        pool = ThreadPoolExecutor(max_workers=config.max_concurrency)
        try:
            futures = {
                pool.submit(_process_record, record, agents, config): record.id
                for record in todo
            }
            for future in as_completed(futures):
                outcome = future.result()
                completed[outcome.record.id] = outcome.to_checkpoint()
                if config.checkpoint_path:
                    save_checkpoint(config.checkpoint_path, completed)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    curated: list[CoTRecord] = []
    families: list[RecordFamily] = []
    discards: list[dict] = []
    stats = PipelineStats(intake_total=len(dataset))
    stats.intake_by_level = {level.value: 0 for level in ComplexityLevel}
    for record in dataset:
        row = completed[record.id]
        final = CoTRecord.from_dict(row["record"])
        if final.rating_history:
            intake = final.rating_history[0]["rating"]
        else:
            intake = "unrated"
        stats.intake_by_level[intake] = stats.intake_by_level.get(intake, 0) + 1
        if row["ever_verified"]:
            stats.verified += 1
        if row["status"] == DISCARDED:
            stats.discarded += 1
            discards.append(
                {"id": final.id, "reason": row["discard_reason"], "attempts": row["attempts"]}
            )
        else:
            if row["status"] == ACCEPTED_REWRITTEN:
                stats.rewritten += 1
            curated.append(final)
            families.append(RecordFamily.from_dict(row["family"]))
    stats.final_size = len(curated)
    stats.completions_by_stage, stats.tokens_by_stage = agents.usage_snapshot()

    curated = assemble_sft(curated)
    conservation = stats.validate()
    if conservation:
        raise RuntimeError("; ".join(conservation))
    return curated, families, stats, discards


def assemble_sft(accepted: list[CoTRecord]) -> list[CoTRecord]:
    """Union of accepted records; duplicate-free by id, all verified mediums."""
    seen: set[str] = set()
    for record in accepted:
        if record.id in seen:
            raise DuplicateId(f"duplicate curated id {record.id!r}")
        seen.add(record.id)
        if record.verified is not True or record.rating != ComplexityLevel.MEDIUM:
            raise ValueError(f"record {record.id} is not a verified medium-rated trace")
    return list(accepted)


def complexity_report(ratings: list[tuple[str, ComplexityLevel]]) -> dict[str, dict[str, int]]:
    """Per-tag counts by level; tags keep first-appearance order."""
    report: dict[str, dict[str, int]] = {}
    for tag, level in ratings:
        if tag not in report:
            report[tag] = {lvl.value: 0 for lvl in ComplexityLevel}
        report[tag][level.value] += 1
    return report


def format_complexity_report(report: dict[str, dict[str, int]]) -> str:
    """Rows easy/medium/hard, one column per tag."""
    if not report:
        return ""
    tags = list(report)
    width = max(len(tag) for tag in tags + ["medium"]) + 2
    lines = ["".ljust(width) + "".join(tag.rjust(width) for tag in tags)]
    for level in ComplexityLevel:
        cells = "".join(str(report[tag][level.value]).rjust(width) for tag in tags)
        lines.append(level.value.ljust(width) + cells)
    return "\n".join(lines)
