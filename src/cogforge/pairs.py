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

from .records import BetaSchedule, ComplexityLevel, GapType, PreferencePair, RecordFamily

log = logging.getLogger(__name__)


class EmptyFamily(ValueError):
    """A family with no constructible pair (no corruption and no rewrite)."""


def assign_beta(gap: GapType, schedule: BetaSchedule) -> float:
    """Resolve the preference strength for a gap; wider gap, larger beta."""
    if gap == GapType.SMALL:
        return schedule.beta_small
    if gap == GapType.MEDIUM:
        return schedule.beta_medium
    return schedule.beta_large


def build_pairs(family: RecordFamily, schedule: BetaSchedule) -> list[PreferencePair]:
    """Emit every pair whose members exist in the family.

    A candidate whose chosen and rejected texts coincide (possible only under
    degenerate rewrites) is skipped with a warning rather than emitted.
    """
    violations = family.validate()
    if violations:
        raise ValueError(f"family {family.id}: {'; '.join(violations)}")

    candidates: list[tuple[str | None, str | None, GapType]] = []
    if family.original_rating == ComplexityLevel.MEDIUM:
        candidates.append((family.r_original, family.r_corrupted, GapType.LARGE))
    else:
        candidates.append((family.r_rewritten, family.r_original, GapType.SMALL))
        candidates.append((family.r_original, family.r_corrupted, GapType.MEDIUM))
        candidates.append((family.r_rewritten, family.r_corrupted, GapType.LARGE))

    built: list[PreferencePair] = []
    for chosen, rejected, gap in candidates:
        if chosen is None or rejected is None:
            continue
        try:
            built.append(
                PreferencePair(
                    id=f"{family.id}:{gap.value}",
                    prompt=family.problem,
                    chosen=chosen,
                    rejected=rejected,
                    gap=gap,
                    beta=assign_beta(gap, schedule),
                )
            )
        except ValueError as exc:
            log.warning("family %s: skipping degenerate %s pair: %s", family.id, gap.value, exc)
    if not built:
        raise EmptyFamily(f"family {family.id}: no constructible pair")
    return built

