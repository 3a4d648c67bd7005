"""Domain types, schema validation, and label parsing."""

from __future__ import annotations

import pytest

from cogforge.jsonl import dump_row
from cogforge.records import (
    BetaSchedule,
    ComplexityLevel,
    CoTRecord,
    GapType,
    ParseError,
    PipelineStats,
    PreferencePair,
    RecordFamily,
    Source,
    parse_complexity,
    parse_verdict,
    rating_entry,
    validate_record,
)


class TestParseComplexity:
    def test_plain_words(self):
        assert parse_complexity("easy") == ComplexityLevel.EASY
        assert parse_complexity("medium") == ComplexityLevel.MEDIUM
        assert parse_complexity("hard") == ComplexityLevel.HARD

    def test_case_and_whitespace_normalized(self):
        assert parse_complexity("  Easy \n") == ComplexityLevel.EASY
        assert parse_complexity("MEDIUM") == ComplexityLevel.MEDIUM

    def test_single_trailing_period_dropped(self):
        assert parse_complexity("hard.") == ComplexityLevel.HARD

    def test_double_period_rejected(self):
        with pytest.raises(ParseError):
            parse_complexity("hard..")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_complexity("")

    def test_sentence_rejected(self):
        with pytest.raises(ParseError):
            parse_complexity("I think this is easy")

    def test_verdict_word_rejected(self):
        with pytest.raises(ParseError):
            parse_complexity("yes")


class TestParseVerdict:
    def test_yes_no(self):
        assert parse_verdict("YES") is True
        assert parse_verdict("NO") is False

    def test_normalization(self):
        assert parse_verdict(" yes. ") is True
        assert parse_verdict("No\n") is False

    def test_unknown_rejected(self):
        with pytest.raises(ParseError):
            parse_verdict("maybe")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_verdict("")


def make_record(**overrides) -> CoTRecord:
    fields = {
        "id": "x1",
        "problem": "what is 2+2",
        "answer": "4",
        "reasoning": "add the numbers",
    }
    fields.update(overrides)
    return CoTRecord(**fields)


class TestValidateRecord:
    def test_valid_record_has_no_violations(self):
        assert validate_record(make_record()) == []

    def test_empty_fields_flagged(self):
        record = make_record(id="", problem="", answer="", reasoning="")
        violations = validate_record(record)
        assert len(violations) == 4

    def test_negative_rewrite_count(self):
        record = make_record()
        record.rewrite_count = -1
        assert any("rewrite_count" in v for v in validate_record(record))

    def test_rewrite_count_over_cap(self):
        record = make_record()
        record.rewrite_count = 4
        assert any("exceeds cap" in v for v in validate_record(record, retry_cap=3))
        assert validate_record(record, retry_cap=4) == []


class TestCoTRecord:
    def test_rating_history_keeps_votes(self):
        record = make_record()
        record.rating_history.append(
            rating_entry("intake", ComplexityLevel.MEDIUM, [ComplexityLevel.MEDIUM] * 3))
        assert record.rating_history[-1]["rating"] == ComplexityLevel.MEDIUM
        assert record.rating_history[0]["votes"] == ["medium", "medium", "medium"]

    def test_rating_reads_the_latest_round(self):
        record = make_record()
        assert record.rating_history == []
        record.rating_history.append(
            rating_entry("intake", ComplexityLevel.EASY, [ComplexityLevel.EASY] * 3))
        assert record.rating_history[-1]["rating"] == ComplexityLevel.EASY
        record.rating_history.append(
            rating_entry("re-rate-1", ComplexityLevel.MEDIUM, [ComplexityLevel.MEDIUM, None]))
        assert record.rating_history[-1]["rating"] == ComplexityLevel.MEDIUM
        assert "rating" not in record.to_output_dict()

    def test_output_dict_shape(self):
        row = make_record().to_output_dict()
        assert set(row) == {
            "id", "problem", "answer", "reasoning", "source",
            "rating_history", "rewrite_count", "verified",
        }


class TestRecordFamily:
    def test_round_trip(self):
        family = RecordFamily(
            id="f1", problem="p", answer="a", original_rating=ComplexityLevel.EASY,
            r_original="orig", r_rewritten="new", r_corrupted="bad",
        )
        assert RecordFamily.from_dict(family.to_dict()) == family

    def test_medium_family_must_not_carry_rewrite(self):
        family = RecordFamily(
            id="f1", problem="p", answer="a", original_rating=ComplexityLevel.MEDIUM,
            r_original="orig", r_rewritten="new",
        )
        assert any("r_rewritten" in v for v in family.validate())

    def test_valid_medium_family(self):
        family = RecordFamily(
            id="f1", problem="p", answer="a", original_rating=ComplexityLevel.MEDIUM,
            r_original="orig",
        )
        assert family.validate() == []


class TestPreferencePair:
    def test_identical_members_rejected(self):
        with pytest.raises(ValueError):
            PreferencePair(id="p", prompt="q", chosen="same", rejected="same",
                           gap=GapType.SMALL, beta=0.1)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            PreferencePair(id="p", prompt="q", chosen="a", rejected="b",
                           gap=GapType.SMALL, beta=0.0)


class TestRowShapes:
    """The rows a caller writes with dump_row, whatever each holds for an enum."""

    def test_rows_equal_the_rows_with_every_enum_spelled_as_its_value(self):
        intake = rating_entry("intake", ComplexityLevel.HARD,
                              [ComplexityLevel.HARD, None, ComplexityLevel.HARD])
        rerate = rating_entry("re-rate-2", ComplexityLevel.MEDIUM, [ComplexityLevel.MEDIUM] * 3)
        spelled_intake = {"stage": "intake", "rating": "hard", "votes": ["hard", None, "hard"]}
        spelled_rerate = {"stage": "re-rate-2", "rating": "medium", "votes": ["medium"] * 3}
        assert dump_row(intake) == dump_row(spelled_intake)
        assert dump_row(rerate) == dump_row(spelled_rerate)
        # A rating entry holds plain strings, not the members.
        for entry in (intake, rerate):
            assert all(type(word) is str for word in (entry["rating"], *filter(None, entry["votes"])))

        original = make_record(rating_history=[intake])
        rewritten = make_record(reasoning="shorter", source=Source.REWRITTEN,
                                rating_history=[intake, rerate], rewrite_count=2, verified=True)
        family = RecordFamily("x1", "what is 2+2", "4", ComplexityLevel.HARD,
                              "add the numbers", "shorter", None)
        common = {"id": "x1", "problem": "what is 2+2", "answer": "4"}
        assert dump_row(original.to_output_dict()) == dump_row({
            **common, "reasoning": "add the numbers", "source": "original",
            "rating_history": [spelled_intake], "rewrite_count": 0, "verified": None,
        })
        assert dump_row(rewritten.to_output_dict()) == dump_row({
            **common, "reasoning": "shorter", "source": "rewritten",
            "rating_history": [spelled_intake, spelled_rerate], "rewrite_count": 2,
            "verified": True,
        })
        assert dump_row(family.to_dict()) == dump_row({
            **common, "original_rating": "hard", "r_original": "add the numbers",
            "r_rewritten": "shorter", "r_corrupted": None,
        })


class TestBetaSchedule:
    def test_defaults_are_valid(self):
        assert BetaSchedule().validate() == []

    def test_ordering_enforced(self):
        assert BetaSchedule(beta_small=0.5, beta_medium=0.2, beta_large=0.1).validate()
        assert BetaSchedule(beta_small=0.2, beta_medium=0.2, beta_large=0.5).validate()

    def test_nonpositive_small_flagged(self):
        assert any("beta_small" in v for v in BetaSchedule(beta_small=0.0).validate())


class TestPipelineStats:
    def test_conservation_holds(self):
        stats = PipelineStats(intake_total=6, final_size=3, discarded=3)
        assert stats.validate() == []

    def test_conservation_violation_flagged(self):
        stats = PipelineStats(intake_total=6, final_size=3, discarded=2)
        assert any("conservation" in v for v in stats.validate())
