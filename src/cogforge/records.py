"""Domain types, schema validation, and label parsing shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


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
    CORRUPTED = "corrupted"


class GapType(str, Enum):
    """Preference-quality distance between the members of a pair."""

    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


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
    rating: ComplexityLevel | None = None
    rating_history: list[dict] = field(default_factory=list)
    rewrite_count: int = 0
    verified: bool | None = None

    def add_rating(self, stage: str, rating: ComplexityLevel, votes: list[ComplexityLevel | None]) -> None:
        self.rating = rating
        self.rating_history.append(
            {
                "stage": stage,
                "rating": rating.value,
                "votes": [v.value if v is not None else None for v in votes],
            }
        )

    def to_output_dict(self) -> dict:
        """Row shape for the curated-output JSONL."""
        return {
            "id": self.id,
            "problem": self.problem,
            "answer": self.answer,
            "reasoning": self.reasoning,
            "source": self.source.value,
            "rating_history": self.rating_history,
            "rewrite_count": self.rewrite_count,
            "verified": self.verified,
        }

    def to_dict(self) -> dict:
        rating = self.rating.value if self.rating is not None else None
        return {**self.to_output_dict(), "rating": rating}

    @classmethod
    def from_dict(cls, row: dict) -> CoTRecord:
        rating = row.get("rating")
        return cls(
            id=row["id"],
            problem=row["problem"],
            answer=row["answer"],
            reasoning=row["reasoning"],
            source=Source(row.get("source", "original")),
            rating=ComplexityLevel(rating) if rating else None,
            rating_history=list(row.get("rating_history", [])),
            rewrite_count=int(row.get("rewrite_count", 0)),
            verified=row.get("verified"),
        )


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
        return {
            "id": self.id,
            "problem": self.problem,
            "answer": self.answer,
            "original_rating": self.original_rating.value,
            "r_original": self.r_original,
            "r_rewritten": self.r_rewritten,
            "r_corrupted": self.r_corrupted,
        }

    @classmethod
    def from_dict(cls, row: dict) -> RecordFamily:
        return cls(
            id=row["id"],
            problem=row["problem"],
            answer=row["answer"],
            original_rating=ComplexityLevel(row["original_rating"]),
            r_original=row["r_original"],
            r_rewritten=row.get("r_rewritten"),
            r_corrupted=row.get("r_corrupted"),
        )


@dataclass(frozen=True)
class PreferencePair:
    """A (prompt, chosen, rejected) triple labeled with its gap and resolved beta."""

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
        return {
            "id": self.id,
            "prompt": self.prompt,
            "chosen": self.chosen,
            "rejected": self.rejected,
            "gap": self.gap.value,
            "beta": self.beta,
        }


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


@dataclass(frozen=True)
class LogProbQuad:
    """The four sequence log-probabilities behind one preference margin:
    policy/reference crossed with chosen/rejected."""

    lp_w_theta: float
    lp_w_ref: float
    lp_l_theta: float
    lp_l_ref: float


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
        return {
            "intake_total": self.intake_total,
            "intake_by_level": self.intake_by_level,
            "rewritten": self.rewritten,
            "verified": self.verified,
            "discarded": self.discarded,
            "final_size": self.final_size,
            "completions_by_stage": self.completions_by_stage,
            "tokens_by_stage": self.tokens_by_stage,
        }


_COMPLEXITY_WORDS = {level.value: level for level in ComplexityLevel}
_VERDICT_WORDS = {"yes": True, "no": False}


def _normalize_keyword(text: str) -> str:
    """Trim surrounding whitespace, drop a single trailing period, case-fold.

    Anything looser risks misclassifying free-form output as a label.
    """
    stripped = text.strip()
    if stripped.endswith("."):
        stripped = stripped[:-1]
    return stripped.casefold()


def parse_complexity(text: str) -> ComplexityLevel:
    """Parse a one-word complexity label (easy/medium/hard) from raw output."""
    if not text:
        raise ParseError("empty model output")
    word = _normalize_keyword(text)
    if word not in _COMPLEXITY_WORDS:
        raise ParseError(f"not a complexity label: {text!r}")
    return _COMPLEXITY_WORDS[word]


def parse_verdict(text: str) -> bool:
    """Parse a one-word YES/NO verdict from raw output."""
    if not text:
        raise ParseError("empty model output")
    word = _normalize_keyword(text)
    if word not in _VERDICT_WORDS:
        raise ParseError(f"not a YES/NO verdict: {text!r}")
    return _VERDICT_WORDS[word]


def validate_record(record: CoTRecord, retry_cap: int = 3) -> list[str]:
    """Check one record against the schema; violations are data, not faults.

    Returns an empty list iff the record is well-formed. Each violation names
    the offending field and the rule it breaks. Id uniqueness is a
    dataset-level property and is checked where datasets are assembled.
    """
    violations = []
    if not record.id:
        violations.append("id: empty")
    if not record.problem:
        violations.append("problem: empty")
    if not record.answer:
        violations.append("answer: empty")
    if not record.reasoning:
        violations.append("reasoning: empty")
    if record.rewrite_count < 0:
        violations.append("rewrite_count: negative")
    elif record.rewrite_count > retry_cap:
        violations.append("rewrite_count: exceeds cap")
    if record.source == Source.CORRUPTED and record.verified:
        violations.append("verified: a corrupted trace cannot be verified")
    return violations
