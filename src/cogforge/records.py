"""Domain types, schema validation, and label parsing shared by all modules."""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import NamedTuple

from .jsonl import NON_EMPTY_STRING, NUMBER, STRING, STRING_OR_NULL, Kind, one_of, refusal


class ParseError(ValueError):
    """Raised when a model output cannot be parsed as a known label."""


class ComplexityLevel(str, Enum):
    """Three-way complexity rating of a reasoning trace."""

    EASY = "easy"
    MEDIUM = "medium"
    HARD = "hard"


class Source(str, Enum):
    """Provenance of a reasoning trace."""

    ORIGINAL = "original"
    REWRITTEN = "rewritten"


class GapType(str, Enum):
    """Preference-quality distance between the members of a pair."""

    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


# Each level's value, and None for an abstention: a dict lookup is cheaper than ``.value``.
_LEVEL_VALUES = {None: None, **{level: level.value for level in ComplexityLevel}}


def rating_entry(stage: str, rating: ComplexityLevel, votes: list[ComplexityLevel | None]) -> dict:
    """One rating round as ``rating_history`` keeps it, each level a plain str;
    None marks an abstention."""
    return {"stage": stage, "rating": _LEVEL_VALUES[rating],
            "votes": [_LEVEL_VALUES[vote] for vote in votes]}


@dataclass
class CoTRecord:
    """One training tuple: problem, verified answer, reasoning trace, provenance.

    ``rating_history`` keeps every rating round (all votes, not just the
    winner) so curation decisions stay auditable.
    """

    id: str
    problem: str
    answer: str
    reasoning: str
    source: Source = Source.ORIGINAL
    rating_history: list[dict] = field(default_factory=list)
    rewrite_count: int = 0
    verified: bool | None = None

    def to_output_dict(self) -> dict:
        """The one row shape: curated output, and the input row a checkpoint
        digests. Its keys are the fields, ``source`` a str that ``dump_row``
        writes as its value; ``dump_row`` sorts the keys."""
        return vars(self).copy()


# What jsonl.read_rows checks of each input row, declared beside the type it fills.
RECORD_SCHEMA = dict.fromkeys(("id", "problem", "answer", "reasoning"), NON_EMPTY_STRING)


@functools.cache
def record_schema(retry_cap: int) -> dict[str, Kind]:
    """What validate_record checks, built once per cap: RECORD_SCHEMA, and a
    ``rewrite_count`` of the kind a checkpoint row's ``attempts`` has too."""
    return {**RECORD_SCHEMA, "rewrite_count": Kind(
        lambda value: type(value) is int and 0 <= value <= retry_cap,
        f"an integer from 0 to {retry_cap}")}


@dataclass
class RecordFamily:
    """All reasoning variants of one problem, keyed by the intake rating.

    ``r_rewritten`` is only ever present when the rewrite passed verification
    and was re-rated medium; a medium-rated family never carries one, which
    ``build_pairs`` checks.
    """

    id: str
    problem: str
    answer: str
    original_rating: ComplexityLevel
    r_original: str
    r_rewritten: str | None = None
    r_corrupted: str | None = None

    def to_dict(self) -> dict:
        """The families-file row. Its keys are the fields, ``original_rating``
        a str that ``dump_row`` writes as its value; ``dump_row`` sorts the keys."""
        return vars(self).copy()

    @classmethod
    def from_dict(cls, row: dict) -> RecordFamily:
        """The family a row holds; ``read_rows`` has checked it against
        FAMILY_SCHEMA, so its rating is a level's value."""
        return cls(row["id"], row["problem"], row["answer"],
                   _COMPLEXITY_WORDS[row["original_rating"]], row["r_original"],
                   row.get("r_rewritten"), row.get("r_corrupted"))


COMPLEXITY_LEVEL = one_of([level.value for level in ComplexityLevel], "a complexity level")
FAMILY_SCHEMA = {
    "id": NON_EMPTY_STRING, "problem": STRING, "answer": STRING,
    "original_rating": COMPLEXITY_LEVEL, "r_original": STRING,
    "r_rewritten": STRING_OR_NULL, "r_corrupted": STRING_OR_NULL,
}


@dataclass
class PreferencePair:
    """A (prompt, chosen, rejected) triple, its gap and its beta; a plain row,
    not frozen, so quick to build. ``build_pairs`` keeps chosen and rejected
    distinct and beta positive."""

    id: str
    prompt: str
    chosen: str
    rejected: str
    gap: GapType
    beta: float

    def to_dict(self) -> dict:
        """The pairs-file row: the fields, ``gap`` a str that ``dump_row`` writes as its value."""
        return vars(self).copy()


PAIR_SCHEMA = {"id": STRING, "gap": one_of([gap.value for gap in GapType], "a gap type")}


@dataclass(frozen=True)
class BetaSchedule:
    """The beta of each gap type."""

    beta_small: float = 0.1
    beta_medium: float = 0.2
    beta_large: float = 0.5


class LogProbQuad(NamedTuple):
    """The four sequence log-probabilities behind one preference margin:
    policy/reference crossed with chosen/rejected. A named tuple, so it equals
    its plain 4-tuple; ``loss._rows`` packs either form into the loss core's rows."""

    lp_w_theta: float
    lp_w_ref: float
    lp_l_theta: float
    lp_l_ref: float


LOGPROB_SCHEMA = {"id": STRING, **dict.fromkeys(LogProbQuad._fields, NUMBER)}


@dataclass
class PipelineStats:
    """Batch-level accounting for one curation run.

    ``intake_total`` always equals ``final_size + discarded``. Per stage,
    ``completions_by_stage`` counts returned choices and ``tokens_by_stage``
    the backend's usage, which counts a prompt once per request however many
    choices it asks for. Both sum the usage journaled with every record's
    outcome, so a resumed run reports the whole run's totals.
    """

    intake_total: int = 0
    intake_by_level: dict[str, int] = field(default_factory=dict)
    rewritten: int = 0
    verified: int = 0
    discarded: int = 0
    final_size: int = 0
    completions_by_stage: dict[str, int] = field(default_factory=dict)
    tokens_by_stage: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


_COMPLEXITY_WORDS = {level.value: level for level in ComplexityLevel}
_VERDICT_WORDS = {"yes": True, "no": False}


@functools.lru_cache(maxsize=256)
def _label_word(text: str) -> str:
    """``text`` trimmed of surrounding whitespace and a single trailing period,
    and case-folded. Models repeat a few spellings, so the last 256 are kept."""
    return text.strip().removesuffix(".").casefold()


def _parse_label(text: str, words: dict, kind: str):
    """The label ``words`` maps the output's ``_label_word`` to; anything
    looser risks misclassifying free-form output as a label. Any other output
    is a ParseError naming the ``kind`` of label."""
    if not text:
        raise ParseError("empty model output")
    word = _label_word(text)
    if word not in words:
        raise ParseError(f"not a {kind}: {text!r}")
    return words[word]


def parse_complexity(text: str) -> ComplexityLevel:
    """Parse a one-word complexity label (easy/medium/hard) from raw output."""
    return _parse_label(text, _COMPLEXITY_WORDS, "complexity label")


def parse_verdict(text: str) -> bool:
    """Parse a one-word YES/NO verdict from raw output."""
    return _parse_label(text, _VERDICT_WORDS, "YES/NO verdict")


def validate_record(record: CoTRecord, retry_cap: int) -> str | None:
    """``jsonl.refusal``'s words for the first field of ``record`` that
    ``record_schema(retry_cap)`` refuses; None for a sound record. Id
    uniqueness is a dataset-level property, checked where datasets are assembled."""
    return refusal(vars(record), record_schema(retry_cap))
