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
    RewriteDirection,
    direction_for,
    load_golden_fixture,
    load_templates,
)
from conftest import CapturingBackend
from cogforge.config import PipelineConfig
from cogforge.gateway import ModelRole, ScriptedBackend, ScriptExhausted
from cogforge.records import ComplexityLevel, CoTRecord, ParseError, parse_complexity


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

    def test_user_layout_slots(self):
        _system, user = load_templates()["verifier"].render("P?", "A!", "R...")
        assert user == "Problem:\nP?\n\nAnswer:\nA!\n\nReasoning Process:\nR..."
        assert user == USER_LAYOUT.format(problem="P?", answer="A!", reasoning="R...")

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


class TestDirectionFor:
    def test_mapping(self):
        assert direction_for(ComplexityLevel.EASY) == RewriteDirection.EXPAND
        assert direction_for(ComplexityLevel.HARD) == RewriteDirection.SIMPLIFY

    def test_medium_has_no_direction(self):
        with pytest.raises(ValueError):
            direction_for(ComplexityLevel.MEDIUM)


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
        agents = Agents(backend).for_record(make_record())
        level, votes = agents.critique("r")
        assert level == ComplexityLevel.EASY
        assert votes == [ComplexityLevel.EASY, ComplexityLevel.MEDIUM, ComplexityLevel.EASY]
        assert backend.sizes() == [3]

    def test_three_way_tie_falls_back_to_medium(self):
        backend = CapturingBackend({"critic:x1": ["easy", "medium", "hard"]})
        agents = Agents(backend).for_record(make_record())
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
            agents = Agents(backend).for_record(make_record())
            level, _ = agents.critique("r")
            results.append(level)
            assert backend.sizes() == [3]
        assert results == [ComplexityLevel.HARD] * 3

    def test_unparseable_vote_gets_one_resample(self):
        backend = CapturingBackend({"critic:x1": ["blah", "easy", "easy", "easy"]})
        agents = Agents(backend).for_record(make_record())
        level, votes = agents.critique("r")
        assert level == ComplexityLevel.EASY
        assert votes == [ComplexityLevel.EASY] * 3
        assert backend.sizes() == [3, 1]

    def test_failed_resample_counts_as_abstention(self):
        script = {"critic:x1": ["blah", "blah", "medium", "medium"]}
        backend = CapturingBackend(script)
        agents = Agents(backend).for_record(make_record())
        level, votes = agents.critique("r")
        assert level == ComplexityLevel.MEDIUM
        assert votes == [None, ComplexityLevel.MEDIUM, ComplexityLevel.MEDIUM]
        assert backend.sizes() == [3, 1]

    def test_abstention_majority_is_agent_error(self):
        backend = CapturingBackend({"critic:x1": ["blah"] * 6})
        agents = Agents(backend).for_record(make_record())
        with pytest.raises(AgentError, match="abstained"):
            agents.critique("r")
        assert backend.sizes() == [3, 2, 1]

    def test_single_vote_mode(self):
        backend = CapturingBackend({"critic:x1": ["hard"]})
        agents = Agents(backend).for_record(make_record())
        level, votes = agents.critique("r", votes=1)
        assert level == ComplexityLevel.HARD
        assert votes == [ComplexityLevel.HARD]
        assert backend.sizes() == [1]

    def test_even_or_nonpositive_votes_rejected(self):
        backend = CapturingBackend({})
        agents = Agents(backend).for_record(make_record())
        with pytest.raises(ValueError):
            agents.critique("r", votes=2)
        with pytest.raises(ValueError):
            agents.critique("r", votes=0)
        assert backend.sizes() == []

    def test_no_strict_majority_with_abstention(self):
        # one easy, one hard, one abstention: nothing exceeds half of 3
        script = {"critic:x1": ["easy", "blah", "blah", "hard"]}
        backend = CapturingBackend(script)
        agents = Agents(backend).for_record(make_record())
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
                got = Agents(backend).for_record(make_record()).critique("r", votes=votes)
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
        agents = Agents(backend).for_record(make_record())
        level, _ = agents.critique("the rewritten trace", votes=1)
        assert level == ComplexityLevel.MEDIUM
        assert "the rewritten trace" in backend.requests[0].user
        assert "Reasoning Process:\nthe rewritten trace" in backend.requests[0].user


class TestRethink:
    def test_expand_uses_extension_template(self):
        backend = CapturingBackend({"rethinker:x1": ["longer trace"]})
        agents = Agents(backend).for_record(make_record())
        text = agents.rethink("r", RewriteDirection.EXPAND)
        assert text == "longer trace"
        assert backend.requests[0].system.startswith(
            "You are a helpful assistant who is highly skilled at extending"
        )
        assert backend.requests[0].key == "rethinker:x1"

    def test_simplify_uses_simplification_template(self):
        backend = CapturingBackend({"rethinker:x1": ["shorter trace"]})
        agents = Agents(backend).for_record(make_record())
        agents.rethink("r", RewriteDirection.SIMPLIFY)
        assert backend.requests[0].system.startswith(
            "You are a helpful assistant who is highly skilled at simplifying"
        )

    def test_unchanged_output_resampled_once(self):
        agents = Agents(ScriptedBackend({"rethinker:x1": ["same", "different"]}))
        agents = agents.for_record(make_record())
        assert agents.rethink("same", RewriteDirection.EXPAND) == "different"

    def test_empty_twice_is_agent_error(self):
        agents = Agents(ScriptedBackend({"rethinker:x1": ["", ""]})).for_record(make_record())
        with pytest.raises(AgentError, match="empty or unchanged"):
            agents.rethink("r", RewriteDirection.EXPAND)


GATED = PipelineConfig(corruption_gate=True)


class TestCorrupt:
    def test_returns_corrupted_text_without_gate(self):
        backend = CapturingBackend({"corruptor:x1": ["wrong trace"]})
        agents = Agents(backend).for_record(make_record())
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
        agents = Agents(ScriptedBackend({"corruptor:x1": ["r", "r"]})).for_record(make_record())
        with pytest.raises(AgentError):
            agents.corrupt("r")


class TestVerify:
    def test_yes_and_no(self):
        agents = Agents(ScriptedBackend({"verifier:x1": ["YES", "NO"]})).for_record(make_record())
        assert agents.verify("r") is True
        assert agents.verify("r") is False

    def test_resample_path(self):
        agents = Agents(ScriptedBackend({"verifier:x1": ["maybe", "NO"]}))
        agents = agents.for_record(make_record())
        assert agents.verify("r") is False

    def test_unparseable_twice_is_agent_error(self):
        agents = Agents(ScriptedBackend({"verifier:x1": ["maybe", "dunno"]}))
        agents = agents.for_record(make_record())
        with pytest.raises(AgentError, match="unparseable"):
            agents.verify("r")

    def test_empty_inputs_rejected(self):
        agents = Agents(ScriptedBackend({}))
        with pytest.raises(ValueError):
            agents.for_record(CoTRecord(id="x1", problem="", answer="a", reasoning="r")).verify("r")
        with pytest.raises(ValueError):
            agents.for_record(make_record()).verify("")

    def test_verifier_role_is_configurable(self):
        backend = CapturingBackend({"verifier:x1": ["YES"], "critic:x1": ["easy"]})
        config = PipelineConfig(verifier_role=ModelRole.BASE)
        agents = Agents(backend).for_record(make_record(), config)
        agents.verify("r")
        agents.critique("r", votes=1)
        roles = {req.key: req.model_role for req in backend.requests}
        assert roles["verifier:x1"] == ModelRole.BASE
        assert roles["critic:x1"] == ModelRole.LARGE


class TestUsageTracking:
    def test_snapshot_counts_completions_and_tokens(self):
        script = {"critic:x1": ["easy", "easy", "easy"], "verifier:x1": ["YES"]}
        agents = Agents(ScriptedBackend(script))
        bound = agents.for_record(make_record())
        bound.critique("r")
        bound.verify("r")
        assert bound.completions == {"critic": 3, "verifier": 1}
        assert bound.tokens["critic"] > 0 and bound.tokens["verifier"] > 0
        assert agents.completions == {} and agents.tokens == {}

    def test_critic_prompt_counts_once_per_request(self):
        script = {"critic:x1": ["easy", "easy", "easy"], "critic:x2": ["easy"]}
        agents = Agents(ScriptedBackend(script))
        three_votes = agents.for_record(make_record("x1"))
        three_votes.critique("r")
        one_vote = agents.for_record(make_record("x2"))
        one_vote.critique("r", votes=1)
        assert three_votes.completions == {"critic": 3} and one_vote.completions == {"critic": 1}
        # The same prompt once plus one word per vote: three votes cost two
        # words more than one vote.
        assert three_votes.tokens["critic"] - one_vote.tokens["critic"] == 2

    def test_unbound_agents_refuse_to_call(self):
        agents = Agents(ScriptedBackend({"critic:x1": ["easy"]}))
        with pytest.raises(RuntimeError, match="for_record"):
            agents.critique("r", votes=1)
