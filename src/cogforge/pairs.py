"""Builds gap-labeled preference pairs from record families.

Pair enumeration per family, by the rating the family entered curation with:

==================  =========================  ======
original rating     (chosen, rejected)         gap
==================  =========================  ======
easy or hard        (rewritten, original)      small
easy or hard        (original, corrupted)      medium
easy or hard        (rewritten, corrupted)     large
medium              (original, corrupted)      large
==================  =========================  ======

The chosen member always strictly dominates the rejected one under
(correct and suitable) > (correct but unsuitable) > incorrect. Partial
families emit the subset of constructible pairs.
"""

from __future__ import annotations

import logging

from .jsonl import refusal
from .records import (FAMILY_SCHEMA, BetaSchedule, ComplexityLevel, GapType, PreferencePair,
                      RecordFamily)

log = logging.getLogger(__name__)


class EmptyFamily(ValueError):
    """A family with no constructible pair (no corruption and no rewrite)."""


# The table above, by rating: chosen, rejected, gap and its value (``.value`` is slow).
_CANDIDATES = {ComplexityLevel.MEDIUM: (("r_original", "r_corrupted", GapType.LARGE, "large"),)}
_CANDIDATES[ComplexityLevel.EASY] = _CANDIDATES[ComplexityLevel.HARD] = (
    ("r_rewritten", "r_original", GapType.SMALL, "small"),
    ("r_original", "r_corrupted", GapType.MEDIUM, "medium"),
    ("r_rewritten", "r_corrupted", GapType.LARGE, "large"),
)
_BETA_FIELDS = {gap: f"beta_{gap.value}" for gap in GapType}
_ID = {"id": FAMILY_SCHEMA["id"]}


def assign_beta(gap: GapType, schedule: BetaSchedule) -> float:
    """Resolve the preference strength for a gap; wider gap, larger beta."""
    return getattr(schedule, _BETA_FIELDS[gap])


def build_pairs(family: RecordFamily, schedule: BetaSchedule) -> list[PreferencePair]:
    """Emit every pair whose members exist in the family.

    A candidate whose chosen and rejected texts coincide (possible only under
    degenerate rewrites) is skipped with a warning rather than emitted. A
    family whose id FAMILY_SCHEMA refuses or with a rewrite on a medium rating,
    and a schedule whose beta for a candidate's gap is not positive, are refused.
    """
    if words := refusal(vars(family), _ID):
        raise ValueError(f"family: {words}")
    if family.original_rating == ComplexityLevel.MEDIUM and family.r_rewritten is not None:
        raise ValueError(f"family {family.id}: r_rewritten: present on a medium-rated family")

    members = vars(family)
    built: list[PreferencePair] = []
    for chosen_field, rejected_field, gap, name in _CANDIDATES[family.original_rating]:
        chosen, rejected = members[chosen_field], members[rejected_field]
        if chosen is None or rejected is None:
            continue
        beta = assign_beta(gap, schedule)
        if not beta > 0:
            raise ValueError(f"schedule: the {name} gap's beta must be positive, got {beta}")
        pair_id = f"{family.id}:{name}"
        if chosen == rejected:
            log.warning("family %s: skipping degenerate %s pair: pair %s: chosen and rejected "
                        "are byte-identical", family.id, name, pair_id)
            continue
        built.append(PreferencePair(pair_id, family.problem, chosen, rejected, gap, beta))
    if not built:
        raise EmptyFamily(f"family {family.id}: no constructible pair")
    return built
