"""Domain types, schema validation, and label parsing shared by all modules."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import NamedTuple

from .jsonl import NON_EMPTY_STRING, NUMBER, STRING, STRING_OR_NULL, one_of


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


@dataclass
class RecordFamily:
    """All reasoning variants of one problem, keyed by the intake rating.

    ``r_rewritten`` is only ever present when the rewrite passed verification
    and was re-rated medium; a medium-rated family never carries one.
    """

    id: str
    problem: str
    answer: str
    original_rating: ComplexityLevel
    r_original: str
    r_rewritten: str | None = None
    r_corrupted: str | None = None

    def validate(self) -> list[str]:
        violations = []
        if not self.id:
            violations.append("id: empty")
        if self.original_rating == ComplexityLevel.MEDIUM and self.r_rewritten is not None:
            violations.append("r_rewritten: present on a medium-rated family")
        return violations

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
    """A (prompt, chosen, rejected) triple, its gap and its beta; not frozen, so quick to build."""

    id: str
    prompt: str
    chosen: str
    rejected: str
    gap: GapType
    beta: float

    def __post_init__(self) -> None:
        if self.chosen == self.rejected:
            raise ValueError(f"pair {self.id}: chosen and rejected are byte-identical")
        if not self.beta > 0:
            raise ValueError(f"pair {self.id}: beta must be positive, got {self.beta}")

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

    def validate(self) -> list[str]:
        """Strict ordering check, applied at config load (not at construction,
        so tests may build degenerate schedules on purpose)."""
        violations = []
        if not 0 < self.beta_small:
            violations.append("beta_small: must be positive")
        if not self.beta_small < self.beta_medium < self.beta_large:
            violations.append("beta ordering: requires beta_small < beta_medium < beta_large")
        return violations


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

    def validate(self) -> list[str]:
        violations = []
        if self.intake_total != self.final_size + self.discarded:
            violations.append(
                f"conservation: intake {self.intake_total} != "
                f"final {self.final_size} + discarded {self.discarded}"
            )
        return violations

    def to_dict(self) -> dict:
        return asdict(self)


_COMPLEXITY_WORDS = {level.value: level for level in ComplexityLevel}
_VERDICT_WORDS = {"yes": True, "no": False}


def _parse_label(text: str, words: dict, kind: str):
    """The label ``words`` maps the output to once it is trimmed of surrounding
    whitespace and a single trailing period and case-folded; anything looser
    risks misclassifying free-form output as a label. Any other output is a
    ParseError naming the ``kind`` of label."""
    if not text:
        raise ParseError("empty model output")
    word = text.strip().removesuffix(".").casefold()
    if word not in words:
        raise ParseError(f"not a {kind}: {text!r}")
    return words[word]


def parse_complexity(text: str) -> ComplexityLevel:
    """Parse a one-word complexity label (easy/medium/hard) from raw output."""
    return _parse_label(text, _COMPLEXITY_WORDS, "complexity label")


def parse_verdict(text: str) -> bool:
    """Parse a one-word YES/NO verdict from raw output."""
    return _parse_label(text, _VERDICT_WORDS, "YES/NO verdict")


def validate_record(record: CoTRecord, retry_cap: int = 3) -> list[str]:
    """Check one record against the schema; violations are data, not faults.

    Returns an empty list iff the record is well-formed. Each violation names
    the offending field and the rule it breaks. Id uniqueness is a
    dataset-level property and is checked where datasets are assembled.
    """
    violations = [f"{name}: empty" for name in RECORD_SCHEMA if not getattr(record, name)]
    if record.rewrite_count < 0:
        violations.append("rewrite_count: negative")
    elif record.rewrite_count > retry_cap:
        violations.append("rewrite_count: exceeds cap")
    return violations
