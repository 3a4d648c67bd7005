"""Batch curation: rate each trace, rewrite and re-verify the unsuitable ones,
assemble the curated set, and journal progress after every record.

Records are independent work items. Up to ``max_concurrency`` long-lived
worker threads take them one at a time, in input order, and walk each to its
outcome. Output ordering always follows input ordering, and with a scripted
backend the whole run is a pure function of (dataset, script, config,
templates, sampling). Agent failures discard the one record; any other failure
aborts the batch once the records in flight have finished and been
checkpointed, and no record starts after it.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass, field, replace

from .agents import AgentError, Agents
from .config import PipelineConfig
from .gateway import ConfigError
from .jsonl import dump_row, write_rows
from .records import (
    ComplexityLevel,
    CoTRecord,
    PipelineStats,
    RecordFamily,
    Source,
    validate_record,
)

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "cogforge-checkpoint-v5"


class DuplicateId(ValueError):
    """Two records (or curated outputs) share an id."""


class CorruptCheckpoint(RuntimeError):
    """The checkpoint file exists but cannot be trusted."""


@dataclass
class RecordOutcome:
    """What one record's walk decided, and nothing that follows from it.

    Accepted exactly when ``discard_reason`` is None; ``r_corrupted`` is the
    corruptor's variant of the input trace (None if that failed). run_crv
    builds the family from the input record, ``record`` and this outcome.
    """

    record: CoTRecord
    discard_reason: str | None = None
    r_corrupted: str | None = None
    attempts: int = 0
    ever_verified: bool = False
    completions: dict[str, int] = field(default_factory=dict)
    tokens: dict[str, int] = field(default_factory=dict)

    def to_checkpoint(self) -> dict:
        return {
            "record": self.record.to_output_dict(),
            "discard_reason": self.discard_reason,
            "r_corrupted": self.r_corrupted,
            "attempts": self.attempts,
            "ever_verified": self.ever_verified,
            "completions_by_stage": self.completions,
            "tokens_by_stage": self.tokens,
        }

    @classmethod
    def from_checkpoint(cls, row: dict) -> RecordOutcome:
        return cls(
            record=CoTRecord.from_dict(row["record"]),
            discard_reason=row["discard_reason"],
            r_corrupted=row["r_corrupted"],
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
    record with the attempts and verifications counted so far. An accepted
    record's input trace is then corrupted; a failed corruption keeps the
    acceptance. The outcome holds the record's agent usage, discarded or not.
    """
    # History entries are only ever appended, so a fresh list keeps the
    # caller's record as it was.
    work = replace(record, rating_history=list(record.rating_history))
    agents = agents.for_record(work, config)
    outcome = RecordOutcome(record=work, completions=agents.completions, tokens=agents.tokens)
    try:
        intake, votes = agents.critique(work.reasoning)
        work.add_rating("intake", intake, votes)
        rewriting = intake != ComplexityLevel.MEDIUM
        text, level = work.reasoning, intake
        for attempt in range(1, config.retry_cap + 1):
            outcome.attempts = attempt
            candidate = text
            if rewriting:
                candidate = agents.rethink(text, level)
            if not agents.verify(candidate):
                # Retry from the last trusted text; the rewrite prompts
                # presume a correct input trace.
                continue
            outcome.ever_verified = True
            if rewriting:
                level, new_votes = agents.critique(candidate)
                work.add_rating(f"re-rate-{attempt}", level, new_votes)
                if level != ComplexityLevel.MEDIUM:
                    text = candidate
                    continue
                work.source = Source.REWRITTEN
                work.rewrite_count = attempt
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

    if outcome.discard_reason is None:
        try:
            outcome.r_corrupted = agents.corrupt(record.reasoning)
        except AgentError as exc:
            log.warning("record %s: corruption failed, family kept without it: %s", work.id, exc)
    return outcome


def _walked_soundly(record: CoTRecord, outcome: RecordOutcome) -> bool:
    """Every rating the walk appended is a ComplexityLevel, and an accepted
    walk rated the input at intake and ended on a verified medium trace. A
    discarded walk may have appended none (the critic abstained). Only an
    edited or foreign checkpoint row can fail this."""
    final = outcome.record
    walked = final.rating_history[len(record.rating_history):]
    try:
        for entry in walked:
            ComplexityLevel(entry["rating"])
    except (KeyError, TypeError, ValueError):
        return False
    return outcome.discard_reason is not None or (
        bool(walked) and final.verified is True and final.rating == ComplexityLevel.MEDIUM)


def checkpoint_fingerprint(dataset: list[CoTRecord], config: PipelineConfig, agents: Agents) -> str:
    """SHA-256 over the settings that shape a record's outcome (the walk's
    config, the agents' templates and sampling) and over the input rows in
    order. Concurrency, paths and the backend are left out: a resume may
    change them and still reproduce the same outputs."""
    import hashlib  # only --checkpoint runs pay the few ms it takes to load

    digest = hashlib.sha256()
    settings = {
        "retry_cap": config.retry_cap,
        "votes": config.votes,
        "verifier_role": config.verifier_role.value,
        "corruption_gate": config.corruption_gate,
        **agents.settings(),
    }
    for row in [settings] + [record.to_output_dict() for record in dataset]:
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


def load_checkpoint(path: str, fingerprint: str | None = None) -> dict[str, RecordOutcome]:
    """Read the completed records' outcomes by id; absent file means a fresh run.

    Line 1 is the header (format tag, fingerprint, compacted map); each later
    line is one record appended as it completed. A last segment without its
    newline is a torn append and is dropped. Given a fingerprint, a header
    written for another config or dataset is refused. Every row must decode
    as a RecordOutcome of the record it is filed under, with a string or null
    ``discard_reason`` (which decides acceptance) and ``r_corrupted``, and two
    integer usage maps.
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
    for record_id, row in completed.items():  # each row is replaced by its outcome
        try:
            outcome = RecordOutcome.from_checkpoint(row)
        except (AttributeError, KeyError, TypeError, ValueError):
            outcome = None
        if not (outcome is not None and outcome.record.id == record_id
                and {type(outcome.discard_reason), type(outcome.r_corrupted)} <= {str, type(None)}
                and _is_usage(outcome.completions) and _is_usage(outcome.tokens)):
            raise CorruptCheckpoint(f"{path}: malformed entry for record {record_id!r}")
        completed[record_id] = outcome
    return completed


def save_checkpoint(path: str, completed: dict[str, RecordOutcome],
                    fingerprint: str | None = None) -> None:
    """Compact the outcomes into a one-line header file; write_rows replaces
    the file whole, so a reader never sees it torn."""
    rows = {record_id: outcome.to_checkpoint() for record_id, outcome in completed.items()}
    write_rows(path, [{"format": CHECKPOINT_FORMAT, "fingerprint": fingerprint, "completed": rows}])


def run_crv(
    dataset: list[CoTRecord], config: PipelineConfig, agents: Agents
) -> tuple[list[CoTRecord], list[RecordFamily], PipelineStats, list[dict]]:
    """Curate a batch; returns (curated set, families, stats, discard rows).

    Fatal errors (gateway, config, corrupt checkpoint) propagate; per-record
    agent failures become discards. Each record ends as one RecordOutcome,
    appended to config.checkpoint_path (if set) as it completes; the file is
    compacted when the run ends or aborts. After any other failure, or a
    KeyboardInterrupt in the calling thread, no further record starts, and
    the first such error is raised once the records in flight are finished
    and kept. A resumed run reproduces the uninterrupted outputs and stats
    byte for byte under the same scripted backend: the stats sum every
    record's journaled agent usage, whichever run paid it. A journaled row
    whose walk appended a rating that is no ComplexityLevel, or an acceptance
    without its walk's intake rating or whose record is not a verified
    medium trace, is refused as CorruptCheckpoint.
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

    completed: dict[str, RecordOutcome] = {}
    journal = None
    path = config.checkpoint_path
    if path:
        fingerprint = checkpoint_fingerprint(dataset, config, agents)
        completed = load_checkpoint(path, fingerprint)
        for record in dataset:
            outcome = completed.get(record.id)
            if outcome is not None and not _walked_soundly(record, outcome):
                raise CorruptCheckpoint(f"{path}: malformed entry for record {record.id!r}")
        # Rewriting the header first drops a torn tail before any append.
        save_checkpoint(path, completed, fingerprint)
        journal = open(path, "a", encoding="utf-8")
    todo = [record for record in dataset if record.id not in completed]
    if completed:
        log.info("resuming: %d of %d records already completed", len(completed), len(dataset))

    # The lock guards the record iterator, the first failure, the count of
    # records in flight, `completed` and the journal: workers share them all.
    lock = threading.Lock()
    settled = threading.Condition(lock)  # notified as each record in flight ends
    pending = iter(todo)
    failure: BaseException | None = None
    in_flight = 0

    def finish(outcome: RecordOutcome) -> None:
        completed[outcome.record.id] = outcome
        if journal is not None:
            journal.write(dump_row({"id": outcome.record.id, **outcome.to_checkpoint()}) + "\n")
            journal.flush()

    def stop(exc: BaseException) -> None:
        """Hand out no further record; the first failure is the one raised."""
        nonlocal failure
        with lock:
            if failure is None:
                failure = exc
                log.warning("aborting on %s: finishing the records in flight", type(exc).__name__)

    def work() -> None:
        nonlocal in_flight
        while True:
            with lock:
                record = next(pending, None) if failure is None else None
                if record is None:
                    return
                in_flight += 1
            try:
                outcome = _process_record(record, agents, config)
                with lock:
                    finish(outcome)
            except BaseException as exc:
                stop(exc)
                return
            finally:
                with lock:
                    in_flight -= 1
                    settled.notify()

    workers = [threading.Thread(target=work, name=f"cogforge-crv-{n}")
               for n in range(min(config.max_concurrency, len(todo)))]
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    except BaseException as exc:  # a KeyboardInterrupt while waiting
        stop(exc)
        # An interrupted join() may mark a live thread stopped, so wait for
        # the records in flight instead; no new one starts after stop().
        with lock:
            settled.wait_for(lambda: in_flight == 0)
    finally:
        if journal is not None:
            with lock:
                journal.close()
                save_checkpoint(path, completed, fingerprint)
    if failure is not None:
        raise failure

    curated: list[CoTRecord] = []
    families: list[RecordFamily] = []
    discards: list[dict] = []
    stats = PipelineStats(intake_total=len(dataset))
    stats.intake_by_level = {level.value: 0 for level in ComplexityLevel}
    for record in dataset:
        outcome = completed[record.id]
        final = outcome.record
        # The first entry the record's walk appended; the input may carry older ones.
        walked = final.rating_history[len(record.rating_history):]
        intake = walked[0]["rating"] if walked else "unrated"
        stats.intake_by_level[intake] = stats.intake_by_level.get(intake, 0) + 1
        if outcome.ever_verified:
            stats.verified += 1
        for total, usage in ((stats.completions_by_stage, outcome.completions),
                             (stats.tokens_by_stage, outcome.tokens)):
            for agent, count in usage.items():
                total[agent] = total.get(agent, 0) + count
        if outcome.discard_reason is not None:
            stats.discarded += 1
            discards.append(
                {"id": final.id, "reason": outcome.discard_reason, "attempts": outcome.attempts}
            )
            continue
        # Judged by the intake, not the source: an input may arrive rewritten.
        rewritten = intake != ComplexityLevel.MEDIUM.value
        stats.rewritten += rewritten
        curated.append(final)
        families.append(RecordFamily(
            id=record.id, problem=record.problem, answer=record.answer,
            original_rating=ComplexityLevel(intake), r_original=record.reasoning,
            r_rewritten=final.reasoning if rewritten else None, r_corrupted=outcome.r_corrupted,
        ))
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
