"""Batch curation: rate each trace, rewrite and re-verify the unsuitable ones,
assemble the curated set, and journal progress after every record.

Records are independent work items on a bounded worker pool. Output ordering
always follows input ordering, and with a scripted backend the whole run is a
pure function of (dataset, script, config). Agent failures discard the one
record; a gateway failure aborts the batch once the records in flight have
finished and been checkpointed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field

from .agents import AgentError, Agents, direction_for
from .config import PipelineConfig
from .gateway import ConfigError, GatewayError
from .jsonl import dump_row
from .records import (
    ComplexityLevel,
    CoTRecord,
    PipelineStats,
    RecordFamily,
    Source,
    validate_record,
)

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "cogforge-checkpoint-v3"

ACCEPTED_MEDIUM = "accepted_medium"
ACCEPTED_REWRITTEN = "accepted_rewritten"
DISCARDED = "discarded"


class DuplicateId(ValueError):
    """Two records (or curated outputs) share an id."""


class CorruptCheckpoint(RuntimeError):
    """The checkpoint file exists but cannot be trusted."""


@dataclass
class RecordOutcome:
    record: CoTRecord
    status: str
    family: RecordFamily | None = None
    discard_reason: str | None = None
    attempts: int = 0
    ever_verified: bool = False
    completions: dict[str, int] = field(default_factory=dict)
    tokens: dict[str, int] = field(default_factory=dict)

    def to_checkpoint(self) -> dict:
        return {
            "status": self.status,
            "record": self.record.to_dict(),
            "family": self.family.to_dict() if self.family is not None else None,
            "discard_reason": self.discard_reason,
            "attempts": self.attempts,
            "ever_verified": self.ever_verified,
            "completions_by_stage": self.completions,
            "tokens_by_stage": self.tokens,
        }

    @classmethod
    def from_checkpoint(cls, row: dict) -> RecordOutcome:
        family = row["family"]
        return cls(
            record=CoTRecord.from_dict(row["record"]),
            status=row["status"],
            family=RecordFamily.from_dict(family) if family is not None else None,
            discard_reason=row["discard_reason"],
            attempts=row["attempts"],
            ever_verified=row["ever_verified"],
            completions=row["completions_by_stage"],
            tokens=row["tokens_by_stage"],
        )


def _process_record(record: CoTRecord, agents: Agents, config: PipelineConfig) -> RecordOutcome:
    """Walk one record through the CRV state machine.

    The critic rates the trace at intake. A medium trace is verified as it
    stands. An easy or hard trace is rethought, the rewrite verified, and a
    verified rewrite re-rated: medium accepts it, easy/hard makes it the next
    attempt's input. Both paths share one budget of ``retry_cap`` attempts; a
    NO verdict retries from the last trusted text. An AgentError discards the
    record with the attempts and verifications counted so far. The outcome
    holds the record's agent usage, discarded or not.
    """
    work = copy.deepcopy(record)
    agents = agents.for_record(work, config)
    outcome = RecordOutcome(
        record=work, status=DISCARDED, completions=agents.completions, tokens=agents.tokens
    )
    try:
        intake, votes = agents.critique(work.reasoning, votes=config.votes)
        work.add_rating("intake", intake, votes)
        rewriting = intake != ComplexityLevel.MEDIUM
        text, level = work.reasoning, intake
        for attempt in range(1, config.retry_cap + 1):
            outcome.attempts = attempt
            candidate = text
            if rewriting:
                candidate = agents.rethink(text, direction_for(level))
            if not agents.verify(candidate):
                # Retry from the last trusted text; the rewrite prompts
                # presume a correct input trace.
                continue
            outcome.ever_verified = True
            if rewriting:
                level, new_votes = agents.critique(candidate, votes=config.votes)
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
            outcome.family.r_corrupted = agents.corrupt(outcome.family.r_original)
        except AgentError as exc:
            # Acceptance stands; the family just cannot contribute
            # corruption-based pairs.
            log.warning("record %s: corruption failed, family kept without it: %s", work.id, exc)
    return outcome


def checkpoint_fingerprint(dataset: list[CoTRecord], config: PipelineConfig) -> str:
    """SHA-256 over the settings that shape a record's outcome and over the
    input rows in order. Concurrency, paths and the backend are left out: a
    resume may change them and still reproduce the same outputs."""
    digest = hashlib.sha256()
    settings = {
        "retry_cap": config.retry_cap,
        "votes": config.votes,
        "verifier_role": config.verifier_role.value,
        "corruption_gate": config.corruption_gate,
    }
    for row in [settings] + [record.to_dict() for record in dataset]:
        digest.update(dump_row(row).encode("utf-8") + b"\n")
    return digest.hexdigest()


def _json_object(line: bytes) -> dict | None:
    try:
        row = json.loads(line)
    except ValueError:
        return None
    return row if isinstance(row, dict) else None


def _is_usage(value) -> bool:
    """A per-agent usage map: an object of integers."""
    return isinstance(value, dict) and all(type(count) is int for count in value.values())


def load_checkpoint(path: str, fingerprint: str | None = None) -> dict[str, dict]:
    """Read the completed-record map; absent file means a fresh run.

    Line 1 is the header (format tag, fingerprint, compacted map); each later
    line is one record appended as it completed. A last segment without its
    newline is a torn append and is dropped. Given a fingerprint, a header
    written for another config or dataset is refused. Every row must decode
    as a RecordOutcome with a known status, a family exactly when the status
    accepts the record, and two usage maps of integers.
    """
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    lines.pop()  # what follows the last newline: nothing, or a torn append
    header = _json_object(lines[0]) if lines else None
    if header is None or header.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCheckpoint(f"{path}: line 1 is not a {CHECKPOINT_FORMAT} header")
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise CorruptCheckpoint(f"{path}: written for a different config or dataset")
    completed = header.get("completed")
    if not isinstance(completed, dict):
        raise CorruptCheckpoint(f"{path}: 'completed' is not an object")
    for lineno, line in enumerate(lines[1:], start=2):
        row = _json_object(line)
        record_id = row.pop("id", None) if row is not None else None
        if not isinstance(record_id, str):
            raise CorruptCheckpoint(f"{path}:{lineno}: not a checkpoint row")
        completed[record_id] = row
    for record_id, row in completed.items():
        try:
            outcome = RecordOutcome.from_checkpoint(row)
        except (AttributeError, KeyError, TypeError, ValueError):
            outcome = None
        if not (outcome is not None
                and outcome.status in (ACCEPTED_MEDIUM, ACCEPTED_REWRITTEN, DISCARDED)
                and (outcome.family is None) == (outcome.status == DISCARDED)
                and _is_usage(outcome.completions) and _is_usage(outcome.tokens)):
            raise CorruptCheckpoint(f"{path}: malformed entry for record {record_id!r}")
    return completed


def save_checkpoint(path: str, completed: dict[str, dict], fingerprint: str | None = None) -> None:
    """Compact the map into a one-line header file, via a temp file and rename
    so a reader never sees it torn."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(dump_row(
            {"format": CHECKPOINT_FORMAT, "fingerprint": fingerprint, "completed": completed}
        ) + "\n")
    os.replace(tmp, path)


def run_crv(
    dataset: list[CoTRecord], config: PipelineConfig, agents: Agents
) -> tuple[list[CoTRecord], list[RecordFamily], PipelineStats, list[dict]]:
    """Curate a batch; returns (curated set, families, stats, discard rows).

    Fatal errors (gateway, config, corrupt checkpoint) propagate; per-record
    agent failures become discards. When config.checkpoint_path is set, each
    completed record is appended to the checkpoint, and the file is compacted
    when the run ends or aborts; before an abort propagates, records still in
    flight are finished and kept. A resumed run reproduces the uninterrupted
    outputs and stats byte for byte under the same scripted backend: the
    stats sum every record's journaled agent usage, whichever run paid it.
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
    journal = None
    path = config.checkpoint_path
    if path:
        fingerprint = checkpoint_fingerprint(dataset, config)
        completed = load_checkpoint(path, fingerprint)
        # Rewriting the header first drops a torn tail before any append.
        save_checkpoint(path, completed, fingerprint)
        journal = open(path, "a", encoding="utf-8")
    todo = [record for record in dataset if record.id not in completed]
    if completed:
        log.info("resuming: %d of %d records already completed", len(completed), len(dataset))

    def finish(outcome: RecordOutcome) -> None:
        row = outcome.to_checkpoint()
        completed[outcome.record.id] = row
        if journal is not None:
            journal.write(dump_row({"id": outcome.record.id, **row}) + "\n")
            journal.flush()

    pool = ThreadPoolExecutor(max_workers=config.max_concurrency)
    try:
        futures = {
            pool.submit(_process_record, record, agents, config): record.id for record in todo
        }
        try:
            for future in as_completed(futures):
                finish(future.result())
        except GatewayError as exc:
            # Keep the paid-for work of records already in flight.
            log.warning("aborting on %s: finishing the records in flight", type(exc).__name__)
            pool.shutdown(wait=True, cancel_futures=True)
            for future, record_id in futures.items():
                if (record_id not in completed and not future.cancelled()
                        and future.exception() is None):
                    finish(future.result())
            raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        if journal is not None:
            journal.close()
            save_checkpoint(path, completed, fingerprint)

    curated: list[CoTRecord] = []
    families: list[RecordFamily] = []
    discards: list[dict] = []
    stats = PipelineStats(intake_total=len(dataset))
    stats.intake_by_level = {level.value: 0 for level in ComplexityLevel}
    for record in dataset:
        outcome = RecordOutcome.from_checkpoint(completed[record.id])
        final = outcome.record
        intake = final.rating_history[0]["rating"] if final.rating_history else "unrated"
        stats.intake_by_level[intake] = stats.intake_by_level.get(intake, 0) + 1
        if outcome.ever_verified:
            stats.verified += 1
        for total, usage in ((stats.completions_by_stage, outcome.completions),
                             (stats.tokens_by_stage, outcome.tokens)):
            for agent, count in usage.items():
                total[agent] = total.get(agent, 0) + count
        if outcome.status == DISCARDED:
            stats.discarded += 1
            discards.append(
                {"id": final.id, "reason": outcome.discard_reason, "attempts": outcome.attempts}
            )
        else:
            if outcome.status == ACCEPTED_REWRITTEN:
                stats.rewritten += 1
            curated.append(final)
            families.append(outcome.family)
    stats.final_size = len(curated)

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
