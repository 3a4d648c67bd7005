"""Agent operations: prompt conformance, voting, rewrite rules, verification."""

from __future__ import annotations

import numpy as np
import pytest

from cogforge.agents import (
    GOLDEN_INPUTS,
    TEMPLATE_NAMES,
    USER_LAYOUT,
    AgentError,
    Agents,
    CorruptionNotIncorrect,
    load_golden_fixture,
    load_templates,
)
from conftest import CapturingBackend
from cogforge.config import PipelineConfig
from cogforge.gateway import ModelRole, SamplingParams, ScriptedBackend, ScriptExhausted
from cogforge.records import ComplexityLevel, CoTRecord, ParseError, parse_complexity


# What an unbound Agents holds: what every record shares, and no record.
UNBOUND_STATE = {"_backend", "_templates", "_sampling", "_record"}


def make_record(record_id: str = "x1") -> CoTRecord:
    return CoTRecord(id=record_id, problem="p", answer="a", reasoning="r")


class TestTemplates:
    def test_rendered_prompts_match_golden_fixtures(self):
        templates = load_templates()
        for name in TEMPLATE_NAMES:
            golden = load_golden_fixture(name)
            system, user = templates[name].render(**GOLDEN_INPUTS)
            assert system == golden["system"], name
            assert user == golden["user"], name

    def test_render_is_deterministic(self):
        template = load_templates()["critic"]
        assert template.render("p", "a", "r") == template.render("p", "a", "r")

    # Text that a format string, a %-layout or an escaper would treat as
    # markup, and text that is none.
    SLOT_VALUES = ("P?", "{", "}", "{problem}", "{{answer}}", "%s", "%%", "%(problem)s",
                   "back\\slash \\n", "line\nbreak\r\n", "\t\x00", "é ∫ 問題 🙂", "")

    def test_user_layout_slots(self):
        template = load_templates()["verifier"]
        _system, user = template.render("P?", "A!", "R...")
        assert user == "Problem:\nP?\n\nAnswer:\nA!\n\nReasoning Process:\nR..."
        assert user == USER_LAYOUT.format(problem="P?", answer="A!", reasoning="R...")
        for value in self.SLOT_VALUES:
            for problem, answer, reasoning in [(value, "a", "r"), ("p", value, "r"),
                                               ("p", "a", value), (value, value, value)]:
                _system, user = template.render(problem, answer, reasoning)
                assert user == USER_LAYOUT.format(problem=problem, answer=answer,
                                                  reasoning=reasoning), (problem, answer, reasoning)

    def test_exactly_one_word_constraints_present(self):
        templates = load_templates()
        assert templates["critic"].system_text.endswith(
            "You must output exactly one word: easy, medium, or hard."
        )
        assert templates["verifier"].system_text.endswith(
            "You must output exactly one word: YES or NO."
        )

    def test_directory_override_strips_one_trailing_newline(self, tmp_path):
        for name in TEMPLATE_NAMES:
            (tmp_path / f"{name}.txt").write_text("first line\nsecond line\n")
        templates = load_templates(str(tmp_path))
        assert templates["critic"].system_text == "first line\nsecond line"

    def test_missing_template_file_fails(self, tmp_path):
        with pytest.raises(OSError):
            load_templates(str(tmp_path))

    def test_agents_require_all_templates(self):
        templates = load_templates()
        del templates["verifier"]
        with pytest.raises(ValueError, match="verifier"):
            Agents(ScriptedBackend({}), templates=templates)


def _parses(text: str) -> bool:
    try:
        parse_complexity(text)
    except ParseError:
        return False
    return True


def sequential_critique(sequence: list[str], votes: int):
    """The one-request-per-completion critic loop: each unparseable vote is
    re-sampled once, then abstains. Returns the outcome ((level, votes),
    AgentError or ScriptExhausted) and how many labels it consumed."""
    position = 0
    cast = []
    for _ in range(votes):
        vote = None
        for _attempt in range(2):
            if position == len(sequence):
                return ScriptExhausted, position
            position += 1
            if _parses(sequence[position - 1]):
                vote = parse_complexity(sequence[position - 1])
                break
        cast.append(vote)
    if sum(1 for vote in cast if vote is None) * 2 > votes:
        return AgentError, position
    for level in ComplexityLevel:
        if sum(1 for vote in cast if vote == level) * 2 > votes:
            return (level, cast), position
    return (ComplexityLevel.MEDIUM, cast), position


class TestCritique:
    def test_majority_two_of_three(self):
        backend = CapturingBackend({"critic:x1": ["easy", "medium", "easy"]})
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        level, votes = agents.critique("r")
        assert level == ComplexityLevel.EASY
        assert votes == [ComplexityLevel.EASY, ComplexityLevel.MEDIUM, ComplexityLevel.EASY]
        assert backend.sizes() == [3]

    def test_three_way_tie_falls_back_to_medium(self):
        backend = CapturingBackend({"critic:x1": ["easy", "medium", "hard"]})
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        level, _votes = agents.critique("r")
        assert level == ComplexityLevel.MEDIUM
        assert backend.sizes() == [3]

    def test_majority_is_permutation_invariant(self):
        orders = [
            ["hard", "hard", "easy"],
            ["hard", "easy", "hard"],
            ["easy", "hard", "hard"],
        ]
        results = []
        for order in orders:
            backend = CapturingBackend({"critic:x1": order})
            agents = Agents(backend).for_record(make_record(), PipelineConfig())
            level, _ = agents.critique("r")
            results.append(level)
            assert backend.sizes() == [3]
        assert results == [ComplexityLevel.HARD] * 3

    def test_unparseable_vote_gets_one_resample(self):
        backend = CapturingBackend({"critic:x1": ["blah", "easy", "easy", "easy"]})
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        level, votes = agents.critique("r")
        assert level == ComplexityLevel.EASY
        assert votes == [ComplexityLevel.EASY] * 3
        assert backend.sizes() == [3, 1]

    def test_failed_resample_counts_as_abstention(self):
        script = {"critic:x1": ["blah", "blah", "medium", "medium"]}
        backend = CapturingBackend(script)
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        level, votes = agents.critique("r")
        assert level == ComplexityLevel.MEDIUM
        assert votes == [None, ComplexityLevel.MEDIUM, ComplexityLevel.MEDIUM]
        assert backend.sizes() == [3, 1]

    def test_abstention_majority_is_agent_error(self):
        backend = CapturingBackend({"critic:x1": ["blah"] * 6})
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        with pytest.raises(AgentError, match="abstained"):
            agents.critique("r")
        assert backend.sizes() == [3, 2, 1]

    def test_single_vote_mode(self):
        backend = CapturingBackend({"critic:x1": ["hard"]})
        agents = Agents(backend).for_record(make_record(), PipelineConfig(votes=1))
        level, votes = agents.critique("r")
        assert level == ComplexityLevel.HARD
        assert votes == [ComplexityLevel.HARD]
        assert backend.sizes() == [1]

    def test_no_strict_majority_with_abstention(self):
        # one easy, one hard, one abstention: nothing exceeds half of 3
        script = {"critic:x1": ["easy", "blah", "blah", "hard"]}
        backend = CapturingBackend(script)
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        level, votes = agents.critique("r")
        assert level == ComplexityLevel.MEDIUM
        assert votes == [ComplexityLevel.EASY, None, ComplexityLevel.HARD]
        assert backend.sizes() == [3, 1]

    def test_batched_votes_replay_the_sequential_loop(self):
        """Over random critic sequences, one request per round gives the
        outcome of one request per completion and consumes the same labels."""
        rng = np.random.default_rng(0)
        labels = ["easy", "medium", "hard", " Hard.", "EASY"]
        junk = ["blah", "", "easy medium", "mediumish", "hard!"]
        for trial in range(600):
            votes = (1, 3, 5)[trial % 3]
            sequence = [
                str(rng.choice(junk)) if rng.random() < 0.3 else str(rng.choice(labels))
                for _ in range(int(rng.integers(1, 9)))
            ]
            want, consumed = sequential_critique(sequence, votes)
            backend = CapturingBackend({"critic:x1": sequence})
            try:
                bound = Agents(backend).for_record(make_record(), PipelineConfig(votes=votes))
                got = bound.critique("r")
            except (AgentError, ScriptExhausted) as exc:
                got = type(exc)
            assert got == want, (sequence, votes)
            if want is ScriptExhausted:
                # The refused request asked for more labels than were left
                # and consumed none of them.
                assert backend.choices + backend.sizes()[-1] > len(sequence)
            else:
                assert backend.choices == consumed, (sequence, votes)
            if all(_parses(text) for text in sequence[:votes]) and len(sequence) >= votes:
                assert backend.sizes() == [votes], (sequence, votes)

    def test_rerate_is_a_critique_of_the_candidate(self):
        backend = CapturingBackend({"critic:x1": ["medium"]})
        agents = Agents(backend).for_record(make_record(), PipelineConfig(votes=1))
        level, _ = agents.critique("the rewritten trace")
        assert level == ComplexityLevel.MEDIUM
        assert "the rewritten trace" in backend.requests[0].user
        assert "Reasoning Process:\nthe rewritten trace" in backend.requests[0].user


class TestRethink:
    def test_expand_uses_extension_template(self):
        backend = CapturingBackend({"rethinker:x1": ["longer trace"]})
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        text = agents.rethink("r", ComplexityLevel.EASY)
        assert text == "longer trace"
        assert backend.requests[0].system.startswith(
            "You are a helpful assistant who is highly skilled at extending"
        )
        assert backend.requests[0].key == "rethinker:x1"

    def test_simplify_uses_simplification_template(self):
        backend = CapturingBackend({"rethinker:x1": ["shorter trace"]})
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        agents.rethink("r", ComplexityLevel.HARD)
        assert backend.requests[0].system.startswith(
            "You are a helpful assistant who is highly skilled at simplifying"
        )

    def test_unchanged_output_resampled_once(self):
        agents = Agents(ScriptedBackend({"rethinker:x1": ["same", "different"]}))
        agents = agents.for_record(make_record(), PipelineConfig())
        assert agents.rethink("same", ComplexityLevel.EASY) == "different"

    def test_empty_twice_is_agent_error(self):
        agents = Agents(ScriptedBackend({"rethinker:x1": ["", ""]})).for_record(
            make_record(), PipelineConfig())
        with pytest.raises(AgentError, match="empty or unchanged"):
            agents.rethink("r", ComplexityLevel.EASY)

    def test_medium_is_never_rewritten(self):
        backend = CapturingBackend({"rethinker:x1": ["rewrite"]})
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        with pytest.raises(ValueError, match="never rewritten"):
            agents.rethink("r", ComplexityLevel.MEDIUM)
        assert backend.requests == []


GATED = PipelineConfig(corruption_gate=True)


class TestCorrupt:
    def test_returns_corrupted_text_without_gate(self):
        backend = CapturingBackend({"corruptor:x1": ["wrong trace"]})
        agents = Agents(backend).for_record(make_record(), PipelineConfig())
        assert agents.corrupt("r") == "wrong trace"
        assert all(req.key == "corruptor:x1" for req in backend.requests)
        assert backend.requests[0].system.startswith(
            "You are an assistant who is skilled at converting correct"
        )

    def test_gate_accepts_candidate_that_fails_verification(self):
        script = {"corruptor:x1": ["bad 1"], "verifier:x1": ["NO"]}
        agents = Agents(ScriptedBackend(script)).for_record(make_record(), GATED)
        assert agents.corrupt("r") == "bad 1"

    def test_gate_resamples_when_candidate_verifies(self):
        script = {"corruptor:x1": ["bad 1", "bad 2"], "verifier:x1": ["YES", "NO"]}
        agents = Agents(ScriptedBackend(script)).for_record(make_record(), GATED)
        assert agents.corrupt("r") == "bad 2"

    def test_gate_exhaustion_raises(self):
        script = {"corruptor:x1": ["bad 1", "bad 2"], "verifier:x1": ["YES", "YES"]}
        agents = Agents(ScriptedBackend(script)).for_record(make_record(), GATED)
        with pytest.raises(CorruptionNotIncorrect):
            agents.corrupt("r")

    def test_identical_output_twice_is_agent_error(self):
        agents = Agents(ScriptedBackend({"corruptor:x1": ["r", "r"]})).for_record(
            make_record(), PipelineConfig())
        with pytest.raises(AgentError):
            agents.corrupt("r")


class TestVerify:
    def test_yes_and_no(self):
        agents = Agents(ScriptedBackend({"verifier:x1": ["YES", "NO"]})).for_record(
            make_record(), PipelineConfig())
        assert agents.verify("r") is True
        assert agents.verify("r") is False

    def test_resample_path(self):
        agents = Agents(ScriptedBackend({"verifier:x1": ["maybe", "NO"]}))
        agents = agents.for_record(make_record(), PipelineConfig())
        assert agents.verify("r") is False

    def test_unparseable_twice_is_agent_error(self):
        agents = Agents(ScriptedBackend({"verifier:x1": ["maybe", "dunno"]}))
        agents = agents.for_record(make_record(), PipelineConfig())
        with pytest.raises(AgentError, match="unparseable"):
            agents.verify("r")

    def test_verifier_role_is_configurable(self):
        backend = CapturingBackend({"verifier:x1": ["YES"], "critic:x1": ["easy"]})
        config = PipelineConfig(votes=1, verifier_role=ModelRole.BASE)
        agents = Agents(backend).for_record(make_record(), config)
        agents.verify("r")
        agents.critique("r")
        roles = {req.key: req.model_role for req in backend.requests}
        assert roles["verifier:x1"] == ModelRole.BASE
        assert roles["critic:x1"] == ModelRole.LARGE


class TestUsageTracking:
    def test_snapshot_counts_completions_and_tokens(self):
        script = {"critic:x1": ["easy", "easy", "easy"], "verifier:x1": ["YES"]}
        agents = Agents(ScriptedBackend(script))
        bound = agents.for_record(make_record(), PipelineConfig())
        bound.critique("r")
        bound.verify("r")
        assert bound.completions == {"critic": 3, "verifier": 1}
        assert bound.tokens["critic"] > 0 and bound.tokens["verifier"] > 0
        assert vars(agents).keys() == UNBOUND_STATE

    def test_critic_prompt_counts_once_per_request(self):
        script = {"critic:x1": ["easy", "easy", "easy"], "critic:x2": ["easy"]}
        agents = Agents(ScriptedBackend(script))
        three_votes = agents.for_record(make_record("x1"), PipelineConfig())
        three_votes.critique("r")
        one_vote = agents.for_record(make_record("x2"), PipelineConfig(votes=1))
        one_vote.critique("r")
        assert three_votes.completions == {"critic": 3} and one_vote.completions == {"critic": 1}
        # The same prompt once plus one word per vote: three votes cost two
        # words more than one vote.
        assert three_votes.tokens["critic"] - one_vote.tokens["critic"] == 2


class TestBoundCopy:
    def test_for_record_keeps_the_subclass_and_shares_what_every_record_shares(self):
        class Tallying(Agents):
            pass

        script = {"critic:x1": ["easy"] * 3}
        agents = Tallying(ScriptedBackend(script), sampling=SamplingParams(temperature=0.1))
        agents.extra = "kept"
        config = PipelineConfig(votes=1)
        bound = agents.for_record(make_record(), config)
        assert type(bound) is Tallying and bound is not agents
        assert bound._backend is agents._backend and bound._templates is agents._templates
        assert bound._sampling is agents._sampling and bound.extra == "kept"
        assert bound._record == make_record() and bound._config is config
        assert bound.completions == {} and bound.tokens == {}

        bound.critique("r")
        assert bound.completions == {"critic": 1} and bound.tokens["critic"] > 0
        assert vars(agents).keys() == UNBOUND_STATE | {"extra"}
        assert agents._record is None

    @pytest.mark.parametrize("operation, args", [
        ("critique", ("r",)), ("rethink", ("r", ComplexityLevel.EASY)),
        ("verify", ("r",)), ("corrupt", ("r",)),
    ], ids=["critique", "rethink", "verify", "corrupt"])
    def test_unbound_agents_refuse_to_call(self, operation, args):
        agents = Agents(ScriptedBackend({}))
        with pytest.raises(RuntimeError, match="for_record"):
            getattr(agents, operation)(*args)
        assert vars(agents).keys() == UNBOUND_STATE
