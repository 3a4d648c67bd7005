"""Domain types, schema validation, and label parsing."""

from __future__ import annotations

import pytest
from conftest import bench_module

from cogforge.config import ConfigError, load_config
from cogforge.jsonl import dump_row
from cogforge.records import (
    BetaSchedule,
    ComplexityLevel,
    CoTRecord,
    ParseError,
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


class TestRepeatedSpellings:
    """The benchmark's label spellings parse the same on every call: a
    remembered spelling gives the first call's label, and an unparseable one
    is refused each time."""

    gen = bench_module("gen")

    def parse_twice(self, parse, text):
        outcomes = []
        for _ in range(2):
            try:
                outcomes.append(parse(text))
            except ParseError as exc:
                outcomes.append(str(exc))
        return outcomes

    def test_level_spellings(self):
        for level, spellings in self.gen.LEVEL_SPELLINGS.items():
            for text in spellings:
                assert self.parse_twice(parse_complexity, text) == [ComplexityLevel(level)] * 2

    def test_verdict_spellings(self):
        for verdict, spellings in self.gen.VERDICT_SPELLINGS.items():
            for text in spellings:
                assert self.parse_twice(parse_verdict, text) == [verdict] * 2

    def test_bad_labels_raise_every_time(self):
        for text in self.gen.BAD_LABELS:
            for parse in (parse_complexity, parse_verdict):
                first, second = self.parse_twice(parse, text)
                assert type(first) is str and first == second, (parse, text)
        # A level spelling is no verdict, and a verdict spelling no level.
        for text in self.gen.LEVEL_SPELLINGS["easy"]:
            assert self.parse_twice(parse_verdict, text) == [f"not a YES/NO verdict: {text!r}"] * 2
        for text in self.gen.VERDICT_SPELLINGS[True]:
            assert self.parse_twice(parse_complexity, text) == (
                [f"not a complexity label: {text!r}"] * 2)


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
        assert validate_record(make_record(), retry_cap=3) is None

    def test_empty_fields_flagged(self):
        # The first field RECORD_SCHEMA refuses, in read_rows' words.
        record = make_record(id="", problem="", answer="", reasoning="")
        assert validate_record(record, retry_cap=3) == "field 'id' is not a non-empty string: ''"

    def test_negative_rewrite_count(self):
        record = make_record()
        record.rewrite_count = -1
        assert validate_record(record, retry_cap=3) == (
            "field 'rewrite_count' is not an integer from 0 to 3: -1")

    def test_rewrite_count_over_cap(self):
        record = make_record()
        record.rewrite_count = 4
        assert validate_record(record, retry_cap=3) == (
            "field 'rewrite_count' is not an integer from 0 to 3: 4")
        assert validate_record(record, retry_cap=4) is None


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
    """A schedule's rules are checked where a config file is loaded."""

    @staticmethod
    def load(tmp_path, small: float, medium: float, large: float) -> BetaSchedule:
        path = tmp_path / "sched.yaml"
        path.write_text(f"schedule: {{beta_small: {small}, beta_medium: {medium}, "
                        f"beta_large: {large}}}\n", encoding="utf-8")
        return load_config(str(path)).schedule

    def test_defaults_are_valid(self, tmp_path):
        assert self.load(tmp_path, 0.1, 0.2, 0.5) == BetaSchedule()

    def test_ordering_enforced(self, tmp_path):
        for betas in ((0.5, 0.2, 0.1), (0.2, 0.2, 0.5)):
            with pytest.raises(ConfigError, match="schedule: beta ordering"):
                self.load(tmp_path, *betas)

    def test_nonpositive_small_flagged(self, tmp_path):
        with pytest.raises(ConfigError, match="field 'beta_small' is not a finite number > 0"):
            self.load(tmp_path, 0.0, 0.2, 0.5)

