"""Domain types, schema validation, and label parsing."""

from __future__ import annotations

import pytest

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

    def test_corrupted_source_cannot_be_verified(self):
        record = make_record()
        record.source = Source.CORRUPTED
        record.verified = True
        assert any("corrupted" in v for v in validate_record(record))


class TestCoTRecord:
    def test_round_trip(self):
        record = make_record()
        record.add_rating("intake", ComplexityLevel.EASY, [ComplexityLevel.EASY, None, ComplexityLevel.EASY])
        record.verified = True
        clone = CoTRecord.from_dict(record.to_dict())
        assert clone == record

    def test_rating_history_keeps_votes(self):
        record = make_record()
        record.add_rating("intake", ComplexityLevel.MEDIUM, [ComplexityLevel.MEDIUM] * 3)
        assert record.rating == ComplexityLevel.MEDIUM
        assert record.rating_history[0]["votes"] == ["medium", "medium", "medium"]

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
