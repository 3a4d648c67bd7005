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
from dataclasses import dataclass, field

from .agents import AgentError, Agents
from .config import SECTION_SCHEMAS, PipelineConfig, build
from .jsonl import BOOLEAN, STRING_OR_NULL, Kind, dump_row, refusal, write_rows
from .records import (_COMPLEXITY_WORDS, COMPLEXITY_LEVEL, ComplexityLevel, CoTRecord,
                      PipelineStats, RecordFamily, Source, rating_entry, record_schema,
                      validate_record)

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "cogforge-checkpoint-v6"


class DuplicateId(ValueError):
    """Two input records share an id."""


class CorruptCheckpoint(ValueError):
    """The checkpoint file exists but cannot be trusted."""


@dataclass
class RecordOutcome:
    """What one record's walk added to its input record, and nothing else.

    ``ratings`` are the rating entries the walk appended, intake first;
    ``rewrite`` is the accepted rewrite, None unless one was accepted.
    Accepted exactly when ``discard_reason`` is None; ``r_corrupted`` is the
    corruptor's variant of the input trace (None if that failed). The usage
    maps count the record's agent calls. _curate builds the curated record
    and the family from the input record and this outcome.
    """

    ratings: list[dict] = field(default_factory=list)
    rewrite: str | None = None
    discard_reason: str | None = None
    r_corrupted: str | None = None
    attempts: int = 0
    ever_verified: bool = False
    completions_by_stage: dict[str, int] = field(default_factory=dict)
    tokens_by_stage: dict[str, int] = field(default_factory=dict)

    def to_checkpoint(self, input_digest: str) -> dict:
        """The checkpoint row: the digest of the input row, then the fields."""
        return {"input": input_digest, **vars(self)}


_ROW_KEYS = RecordOutcome().to_checkpoint("").keys()


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
    agents = agents.for_record(record, config)
    outcome = RecordOutcome(completions_by_stage=agents.completions, tokens_by_stage=agents.tokens)
    try:
        intake, votes = agents.critique(record.reasoning)
        outcome.ratings.append(rating_entry("intake", intake, votes))
        rewriting = intake != ComplexityLevel.MEDIUM
        text, level = record.reasoning, intake
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
                outcome.ratings.append(rating_entry(f"re-rate-{attempt}", level, new_votes))
                if level != ComplexityLevel.MEDIUM:
                    text = candidate
                    continue
                outcome.rewrite = candidate
            break
        else:
            outcome.discard_reason = (
                f"no verified medium-rated rewrite within {config.retry_cap} attempts"
                if rewriting else f"medium trace failed verification {config.retry_cap} times"
            )
    except AgentError as exc:
        log.warning("record %s discarded: %s", record.id, exc)
        outcome.discard_reason = str(exc)

    if outcome.discard_reason is None:
        try:
            outcome.r_corrupted = agents.corrupt(record.reasoning)
        except AgentError as exc:
            log.warning("record %s: corruption failed, family kept without it: %s", record.id, exc)
    return outcome


def _curate(record: CoTRecord, outcome: RecordOutcome) -> tuple[CoTRecord, RecordFamily]:
    """The curated record and the family of an accepted walk over ``record``:
    the rewrite, if any, replaces the trace, and the walk's ratings follow
    the input's history."""
    rewrite, history = outcome.rewrite, record.rating_history + outcome.ratings
    if rewrite is None:
        curated = CoTRecord(record.id, record.problem, record.answer, record.reasoning,
                            record.source, history, record.rewrite_count, True)
    else:
        curated = CoTRecord(record.id, record.problem, record.answer, rewrite,
                            Source.REWRITTEN, history, outcome.attempts, True)
    return curated, RecordFamily(
        record.id, record.problem, record.answer, _COMPLEXITY_WORDS[outcome.ratings[0]["rating"]],
        record.reasoning, rewrite, outcome.r_corrupted,
    )


def input_digests(dataset: list[CoTRecord]) -> dict[str, str]:
    """Each input row's SHA-256 by record id, in input order. A checkpoint row
    names its record by this digest, and the fingerprint covers them all."""
    import hashlib  # only --checkpoint runs pay the few ms it takes to load

    return {
        record.id: hashlib.sha256(dump_row(record.to_output_dict()).encode("utf-8")).hexdigest()
        for record in dataset
    }


def checkpoint_fingerprint(inputs: dict[str, str], config: PipelineConfig, agents: Agents) -> str:
    """SHA-256 over the settings that shape a record's outcome (the walk's
    config, the agents' templates and sampling) and the input digests in
    order. Concurrency, paths and the backend are left out: a resume may
    change them and still reproduce the same outputs."""
    import hashlib

    settings = {name: getattr(config, name)  # dump_row writes a ModelRole as its value
                for name in ("retry_cap", "votes", "verifier_role", "corruption_gate")}
    digest = hashlib.sha256(dump_row({**settings, **agents.settings()}).encode("utf-8") + b"\n")
    digest.update("".join(inputs.values()).encode("ascii"))
    return digest.hexdigest()


class _RepeatedKey(Exception):
    """A JSON object names one key twice; args[0] is the key."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    row = dict(pairs)
    if len(row) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return row


def _json_object(path: str, lineno: int, line: bytes) -> dict | None:
    """Line ``lineno`` as a JSON object, None if it is none. An object at any
    depth that repeats a key is refused: json.loads would keep the last."""
    try:
        row = json.loads(line, object_pairs_hook=_unique_keys)
    except _RepeatedKey as exc:
        raise CorruptCheckpoint(f"{path}:{lineno}: duplicate key {exc.args[0]!r}") from None
    except (ValueError, RecursionError):  # RecursionError: nested past the recursion limit
        return None
    return row if isinstance(row, dict) else None


_COUNTS = Kind(lambda value: type(value) is dict and all(type(n) is int for n in value.values()),
               "an object of integers")


def _outcome_schema(retry_cap: int) -> dict[str, Kind]:
    """The kind of each field of a checkpoint row after ``input``."""
    return {
        "ratings": Kind(lambda value: type(value) is list and all(
            type(entry) is dict and COMPLEXITY_LEVEL.accepts(entry.get("rating"))
            for entry in value), "a list of objects whose rating is a complexity level"),
        "rewrite": STRING_OR_NULL, "discard_reason": STRING_OR_NULL, "r_corrupted": STRING_OR_NULL,
        "attempts": record_schema(retry_cap)["rewrite_count"],
        "ever_verified": BOOLEAN,
        "completions_by_stage": _COUNTS, "tokens_by_stage": _COUNTS,
    }


def _outcome_of(row, input_digest: str | None, schema: dict[str, Kind]) -> RecordOutcome:
    """The outcome a checkpoint row holds; a ValueError says what is unsound.

    A sound row has exactly the v6 fields, its ``input`` is the digest of the
    input record it is filed under (None: no such record), each other field
    is of its kind in ``schema``, and it obeys the two walk rules below. A
    discarded walk may have appended no rating (the critic abstained).
    """
    if type(row) is not dict or input_digest is None:
        raise ValueError("not in the input" if input_digest is None else f"not an object: {row!r}")
    missing, unknown = _ROW_KEYS - row.keys(), row.keys() - _ROW_KEYS
    if missing or unknown:
        raise ValueError(f"missing field {min(missing)!r}" if missing else
                         f"unknown field {min(unknown)!r}")
    digest = Kind(lambda value: value == input_digest, "the digest of its input row")
    if problem := refusal(row, {"input": digest, **schema}):
        raise ValueError(problem)
    del row["input"]
    outcome = RecordOutcome(**row)
    ratings, accepted = outcome.ratings, outcome.discard_reason is None
    if accepted and not (outcome.attempts >= 1 and outcome.ever_verified and ratings
                         and ratings[-1]["rating"] == ComplexityLevel.MEDIUM):
        raise ValueError("accepted, but not after a verified attempt ending rated medium")
    rewritten = accepted and ratings[0]["rating"] != ComplexityLevel.MEDIUM
    if rewritten != (outcome.rewrite is not None) or outcome.rewrite == "":
        raise ValueError(f"rewrite {outcome.rewrite!r}: an accepted walk from an easy or hard "
                         "intake holds one, a non-empty string, and no other walk does")
    return outcome


def load_checkpoint(path: str, inputs: dict[str, str], fingerprint: str,
                    retry_cap: int) -> dict[str, RecordOutcome]:
    """Read the completed records' outcomes by id; absent file means a fresh run.

    Line 1 is the header (format tag, fingerprint, compacted map); each later
    line is one record appended as it completed. A last segment without its
    newline is a torn append and is dropped; a row whose id the header or an
    earlier row holds is refused, as no run appends one, and so is a key
    repeated within one object, such as an id within the header. A header
    written for another config or dataset (another ``fingerprint``) is
    refused. Header and journal rows alike must pass _outcome_of against
    ``inputs`` (input_digests) and the run's ``retry_cap``, so a row filed
    under an id the dataset lacks, of another record, or with more attempts
    than the cap allows, is refused.
    """
    if not os.path.exists(path):
        return {}
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    lines.pop()  # what follows the last newline: nothing, or a torn append
    header = _json_object(path, 1, lines[0]) if lines else None
    if header is None or header.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCheckpoint(f"{path}: line 1 is not a {CHECKPOINT_FORMAT} header")
    if header.get("fingerprint") != fingerprint:
        raise CorruptCheckpoint(f"{path}: written for a different config or dataset")
    completed = header.get("completed")
    if not isinstance(completed, dict):
        raise CorruptCheckpoint(f"{path}: 'completed' is not an object")
    for lineno, line in enumerate(lines[1:], start=2):
        row = _json_object(path, lineno, line)
        record_id = row.pop("id", None) if row is not None else None
        if not isinstance(record_id, str):
            raise CorruptCheckpoint(f"{path}:{lineno}: not a checkpoint row")
        if record_id in completed:
            raise CorruptCheckpoint(f"{path}:{lineno}: duplicate id {record_id!r}")
        completed[record_id] = row
    schema = _outcome_schema(retry_cap)
    for record_id, row in completed.items():  # each row is replaced by its outcome
        try:
            completed[record_id] = _outcome_of(row, inputs.get(record_id), schema)
        except ValueError as exc:
            raise CorruptCheckpoint(f"{path}: record {record_id!r}: {exc}") from None
    return completed


def save_checkpoint(path: str, completed: dict[str, RecordOutcome], inputs: dict[str, str],
                    fingerprint: str) -> None:
    """Compact the outcomes into a one-line header file; write_rows replaces
    the file whole, so a reader never sees it torn."""
    rows = {record_id: outcome.to_checkpoint(inputs[record_id])
            for record_id, outcome in completed.items()}
    write_rows(path, [{"format": CHECKPOINT_FORMAT, "fingerprint": fingerprint, "completed": rows}])


def _drop_torn_tail(path: str) -> bool:
    """Cut what follows the last newline of a checkpoint load_checkpoint has
    read, a torn append, so the next append starts a line; a complete file is
    not written. Returns whether the file holds rows after its header."""
    with open(path, "rb+") as handle:
        data = handle.read()
        end = data.rindex(b"\n") + 1
        if end < len(data):
            handle.truncate(end)
    return data.index(b"\n") + 1 < end


def run_crv(
    dataset: list[CoTRecord], config: PipelineConfig, agents: Agents
) -> tuple[list[CoTRecord], list[RecordFamily], PipelineStats, list[dict]]:
    """Curate a batch; returns (curated set, families, stats, discard rows).

    The settings are cast, into a copy, as ``load_config`` casts a file's.
    Fatal errors (gateway, config, corrupt checkpoint) propagate; per-record
    agent failures become discards. Each record ends as one RecordOutcome,
    appended to config.checkpoint_path (if set) as it completes: a fresh run
    writes the header first, a resume appends after the rows it loaded. The
    file is compacted into one header line when the run ends or aborts,
    unless it already is one. After any other failure, or a
    KeyboardInterrupt in the calling thread, no further record starts, and
    the first such error is raised once the records in flight are finished
    and kept. A resumed run reproduces the uninterrupted outputs and stats
    byte for byte under the same scripted backend: the stats sum every
    record's journaled agent usage, whichever run paid it, and fresh and
    journaled outcomes alike become curated records and families through
    _curate. A checkpoint row that load_checkpoint finds unsound is refused
    as CorruptCheckpoint before any record starts.
    """
    config = build(PipelineConfig(), vars(config), SECTION_SCHEMAS["pipeline"], "pipeline: ")
    seen: set[str] = set()
    for record in dataset:
        if problem := validate_record(record, retry_cap=config.retry_cap):
            raise ValueError(f"record {record.id!r}: {problem}")
        if record.id in seen:
            raise DuplicateId(f"duplicate input id {record.id!r}")
        seen.add(record.id)

    completed: dict[str, RecordOutcome] = {}
    journal = None
    compact = False  # whether the journal holds rows to fold into its header
    path = config.checkpoint_path
    if path:
        inputs = input_digests(dataset)
        fingerprint = checkpoint_fingerprint(inputs, config, agents)
        completed = load_checkpoint(path, inputs, fingerprint, config.retry_cap)
        if os.path.exists(path):
            compact = _drop_torn_tail(path)
        else:
            save_checkpoint(path, completed, inputs, fingerprint)
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

    def finish(record_id: str, outcome: RecordOutcome) -> None:
        nonlocal compact
        completed[record_id] = outcome
        if journal is not None:
            row = {"id": record_id, **outcome.to_checkpoint(inputs[record_id])}
            journal.write(dump_row(row) + "\n")
            journal.flush()
            compact = True

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
                    finish(record.id, outcome)
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
                if compact:
                    save_checkpoint(path, completed, inputs, fingerprint)
    if failure is not None:
        raise failure

    curated: list[CoTRecord] = []
    families: list[RecordFamily] = []
    discards: list[dict] = []
    stats = PipelineStats(intake_total=len(dataset))
    stats.intake_by_level = {level.value: 0 for level in ComplexityLevel}
    for record in dataset:
        outcome = completed[record.id]
        intake = outcome.ratings[0]["rating"] if outcome.ratings else "unrated"
        stats.intake_by_level[intake] = stats.intake_by_level.get(intake, 0) + 1
        if outcome.ever_verified:
            stats.verified += 1
        for total, usage in ((stats.completions_by_stage, outcome.completions_by_stage),
                             (stats.tokens_by_stage, outcome.tokens_by_stage)):
            for agent, count in usage.items():
                total[agent] = total.get(agent, 0) + count
        if outcome.discard_reason is not None:
            stats.discarded += 1
            discards.append(
                {"id": record.id, "reason": outcome.discard_reason, "attempts": outcome.attempts}
            )
            continue
        # Judged by the intake, not the source: an input may arrive rewritten.
        stats.rewritten += outcome.rewrite is not None
        final, family = _curate(record, outcome)
        curated.append(final)
        families.append(family)
    stats.final_size = len(curated)
    return curated, families, stats, discards


def complexity_report(ratings: list[tuple[str, ComplexityLevel]]) -> dict[str, dict[str, int]]:
    """Per-tag counts by level; tags keep first-appearance order."""
    report: dict[str, dict[str, int]] = {}
    for tag, level in ratings:
        if tag not in report:
            report[tag] = {lvl.value: 0 for lvl in ComplexityLevel}
        report[tag][level.value] += 1
    return report

