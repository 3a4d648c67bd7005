"""Preference-pair construction and beta assignment."""

from __future__ import annotations

import numpy as np
import pytest

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
            assert schedule.validate() == []
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
