"""Preference-pair construction and beta assignment."""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogforge.config import SECTION_SCHEMAS, refusals
from cogforge.pairs import EmptyFamily, assign_beta, build_pairs
from cogforge.records import BetaSchedule, ComplexityLevel, GapType, RecordFamily

SCHEDULE = BetaSchedule()


def easy_family(**overrides) -> RecordFamily:
    fields = {
        "id": "f1",
        "problem": "p",
        "answer": "a",
        "original_rating": ComplexityLevel.EASY,
        "r_original": "terse trace",
        "r_rewritten": "expanded trace",
        "r_corrupted": "wrong trace",
    }
    fields.update(overrides)
    return RecordFamily(**fields)


class TestAssignBeta:
    def test_default_schedule_values(self):
        assert assign_beta(GapType.SMALL, SCHEDULE) == 0.1
        assert assign_beta(GapType.MEDIUM, SCHEDULE) == 0.2
        assert assign_beta(GapType.LARGE, SCHEDULE) == 0.5

    def test_monotone_for_valid_schedules(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            small = float(rng.uniform(0.01, 1.0))
            medium = small + float(rng.uniform(0.01, 1.0))
            large = medium + float(rng.uniform(0.01, 1.0))
            schedule = BetaSchedule(beta_small=small, beta_medium=medium, beta_large=large)
            assert refusals(vars(schedule), SECTION_SCHEMAS["schedule"], "") == []
            resolved = [assign_beta(g, schedule) for g in (GapType.SMALL, GapType.MEDIUM, GapType.LARGE)]
            assert resolved[0] < resolved[1] < resolved[2]


class TestBuildPairs:
    def test_full_easy_family_yields_three_pairs(self):
        pairs = build_pairs(easy_family(), SCHEDULE)
        assert len(pairs) == 3
        by_gap = {p.gap: p for p in pairs}
        assert by_gap[GapType.SMALL].chosen == "expanded trace"
        assert by_gap[GapType.SMALL].rejected == "terse trace"
        assert by_gap[GapType.SMALL].beta == 0.1
        assert by_gap[GapType.MEDIUM].chosen == "terse trace"
        assert by_gap[GapType.MEDIUM].rejected == "wrong trace"
        assert by_gap[GapType.MEDIUM].beta == 0.2
        assert by_gap[GapType.LARGE].chosen == "expanded trace"
        assert by_gap[GapType.LARGE].rejected == "wrong trace"
        assert by_gap[GapType.LARGE].beta == 0.5
        assert all(p.prompt == "p" for p in pairs)

    def test_full_hard_family_is_symmetric(self):
        family = easy_family(
            original_rating=ComplexityLevel.HARD,
            r_original="convoluted trace",
            r_rewritten="simplified trace",
        )
        pairs = build_pairs(family, SCHEDULE)
        by_gap = {p.gap: p for p in pairs}
        assert len(pairs) == 3
        assert by_gap[GapType.SMALL].chosen == "simplified trace"
        assert by_gap[GapType.SMALL].rejected == "convoluted trace"
        assert by_gap[GapType.LARGE].chosen == "simplified trace"
        assert by_gap[GapType.LARGE].rejected == "wrong trace"

    def test_medium_family_yields_single_large_pair(self):
        family = easy_family(
            original_rating=ComplexityLevel.MEDIUM, r_rewritten=None,
        )
        pairs = build_pairs(family, SCHEDULE)
        assert len(pairs) == 1
        assert pairs[0].gap == GapType.LARGE
        assert pairs[0].chosen == "terse trace"
        assert pairs[0].rejected == "wrong trace"

    def test_easy_family_without_corruption(self):
        pairs = build_pairs(easy_family(r_corrupted=None), SCHEDULE)
        assert [p.gap for p in pairs] == [GapType.SMALL]

    def test_easy_family_without_rewrite(self):
        pairs = build_pairs(easy_family(r_rewritten=None), SCHEDULE)
        assert [p.gap for p in pairs] == [GapType.MEDIUM]

    def test_medium_family_without_corruption_is_empty(self):
        family = easy_family(
            original_rating=ComplexityLevel.MEDIUM, r_rewritten=None, r_corrupted=None,
        )
        with pytest.raises(EmptyFamily):
            build_pairs(family, SCHEDULE)

    def test_easy_family_with_neither_is_empty(self):
        with pytest.raises(EmptyFamily):
            build_pairs(easy_family(r_rewritten=None, r_corrupted=None), SCHEDULE)

    def test_invalid_family_rejected(self):
        family = easy_family(original_rating=ComplexityLevel.MEDIUM)
        with pytest.raises(ValueError, match="r_rewritten"):
            build_pairs(family, SCHEDULE)
        # A library caller's only guard: the CLI's FAMILY_SCHEMA refuses an empty id first.
        with pytest.raises(ValueError, match=r"^family: field 'id' is not a non-empty string: ''$"):
            build_pairs(easy_family(id=""), SCHEDULE)
        # An id FAMILY_SCHEMA refuses would make pair ids such as 7:large.
        with pytest.raises(ValueError, match=r"^family: field 'id' is not a non-empty string: 7$"):
            build_pairs(easy_family(id=7), SCHEDULE)

    def test_degenerate_members_skipped(self, caplog):
        family = easy_family(r_corrupted="expanded trace")  # equals the rewrite
        with caplog.at_level("WARNING"):
            pairs = build_pairs(family, SCHEDULE)
        assert sorted(p.gap.value for p in pairs) == ["medium", "small"]
        assert any("degenerate" in message for message in caplog.messages)

    def test_pair_ids_are_family_scoped(self):
        pairs = build_pairs(easy_family(), SCHEDULE)
        assert sorted(p.id for p in pairs) == ["f1:large", "f1:medium", "f1:small"]

    def test_pair_count_never_exceeds_three(self):
        assert len(build_pairs(easy_family(), SCHEDULE)) <= 3

    def test_nonpositive_beta_refuses_the_schedule(self, caplog):
        """A schedule with a non-positive beta is refused, naming the gap and
        its beta; no pair is dropped as degenerate for it."""
        with caplog.at_level("WARNING"), pytest.raises(ValueError) as refused:
            build_pairs(easy_family(), BetaSchedule(beta_small=0.0))
        assert str(refused.value) == "schedule: the small gap's beta must be positive, got 0.0"
        assert caplog.messages == []

        nonpositive = BetaSchedule(beta_small=-0.3, beta_medium=-0.2, beta_large=0.0)
        with pytest.raises(ValueError, match="the medium gap's beta must be positive, got -0.2") \
                as refused:
            build_pairs(easy_family(r_rewritten=None), nonpositive)
        assert not isinstance(refused.value, EmptyFamily)


# The module docstring's table: per original rating, (chosen, rejected, gap).
TABLE = {
    "easy": [("r_rewritten", "r_original", "small"), ("r_original", "r_corrupted", "medium"),
             ("r_rewritten", "r_corrupted", "large")],
    "medium": [("r_original", "r_corrupted", "large")],
}
TABLE["hard"] = TABLE["easy"]
MEMBERS = ("r_original", "r_rewritten", "r_corrupted")
# Few texts, so that chosen and rejected often coincide.
TEXTS = st.sampled_from(["a", "b", "c"])


class _Messages(logging.Handler):
    def __init__(self) -> None:
        super().__init__()
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


class TestAgainstTheTable:
    @settings(max_examples=200)
    @given(rating=st.sampled_from(list(TABLE)), original=TEXTS,
           rewritten=st.none() | TEXTS, corrupted=st.none() | TEXTS,
           betas=st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3))
    @example(rating="medium", original="a", rewritten="b", corrupted="c", betas=[0.1, 0.2, 0.5])
    @example(rating="hard", original="a", rewritten="a", corrupted="a", betas=[0.1, 0.2, 0.5])
    def test_build_pairs_matches_the_table(self, rating, original, rewritten, corrupted, betas):
        family = RecordFamily(id="f", problem="q", answer="a",
                              original_rating=ComplexityLevel(rating), r_original=original,
                              r_rewritten=rewritten, r_corrupted=corrupted)
        schedule = BetaSchedule(*betas)
        texts = dict(zip(MEMBERS, (original, rewritten, corrupted)))
        beta = dict(zip(("small", "medium", "large"), betas))

        expected, degenerate = [], []
        for chosen, rejected, gap in TABLE[rating]:
            if texts[chosen] is None or texts[rejected] is None:
                continue
            if texts[chosen] == texts[rejected]:
                degenerate.append(f"family f: skipping degenerate {gap} pair: pair f:{gap}: "
                                  "chosen and rejected are byte-identical")
            else:
                expected.append((f"f:{gap}", "q", texts[chosen], texts[rejected], gap, beta[gap]))

        handler = _Messages()
        logger = logging.getLogger("cogforge.pairs")
        logger.addHandler(handler)
        try:
            if rating == "medium" and rewritten is not None:
                with pytest.raises(ValueError, match="r_rewritten: present on a medium-rated"):
                    build_pairs(family, schedule)
                degenerate = []  # refused before any pair is built
            elif not expected:
                with pytest.raises(EmptyFamily, match="family f: no constructible pair"):
                    build_pairs(family, schedule)
            else:
                built = build_pairs(family, schedule)
                assert [(p.id, p.prompt, p.chosen, p.rejected, p.gap.value, p.beta)
                        for p in built] == expected
                assert all(type(p.gap) is GapType for p in built)
        finally:
            logger.removeHandler(handler)
        assert handler.messages == degenerate
