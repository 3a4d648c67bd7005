"""Loss numerics: margins, both objectives, the toy policy, gradient checks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cogforge.loss import (
    EmptyBatch,
    JoinError,
    NonFinite,
    NonPositiveBeta,
    TokenOutOfRange,
    TokenPair,
    ToyPolicy,
    beta_dpo_adjust,
    cogpo_loss,
    cogpo_token_loss,
    dpo_loss,
    grad_check,
    join_quads,
    margin,
    quad_from_tokens,
    sequence_logprob,
)
from cogforge.records import BetaSchedule, GapType, LogProbQuad

LN2 = 0.6931471805599453
GAPS = (GapType.SMALL, GapType.MEDIUM, GapType.LARGE)


def random_quads(rng: np.random.Generator, n: int) -> list[LogProbQuad]:
    return [LogProbQuad(*(float(v) for v in rng.normal(-3.0, 2.0, 4))) for _ in range(n)]


class TestMargin:
    def test_symmetric_cancellation(self):
        quad = LogProbQuad(-1.0, -1.0, -2.0, -2.0)
        assert margin(quad, 0.1) == 0.0
        assert margin(quad, 0.5) == 0.0

    def test_direct_substitution(self):
        quad = LogProbQuad(-1.0, -1.5, -2.5, -2.0)
        assert abs(margin(quad, 0.1) - 0.1) < 1e-12

    def test_beta_linearity_exact(self):
        rng = np.random.default_rng(11)
        for quad in random_quads(rng, 50):
            assert margin(quad, 0.4) == 2.0 * margin(quad, 0.2)

    def test_antisymmetry_under_swap(self):
        rng = np.random.default_rng(12)
        for quad in random_quads(rng, 50):
            swapped = LogProbQuad(
                lp_w_theta=quad.lp_l_theta, lp_w_ref=quad.lp_l_ref,
                lp_l_theta=quad.lp_w_theta, lp_l_ref=quad.lp_w_ref,
            )
            assert margin(swapped, 0.3) == -margin(quad, 0.3)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            margin(LogProbQuad(math.nan, 0.0, 0.0, 0.0), 0.1)
        with pytest.raises(NonFinite):
            margin(LogProbQuad(0.0, -math.inf, 0.0, 0.0), 0.1)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            margin(LogProbQuad(0.0, 0.0, 0.0, 0.0), 0.0)


class TestDpoLoss:
    def test_zero_margin_gives_ln2(self):
        report = dpo_loss([LogProbQuad(-1.0, -1.0, -2.0, -2.0)], beta=0.2)
        assert abs(report.loss - LN2) < 1e-12
        assert report.margins == [0.0]

    def test_symmetric_margin_pair(self):
        quads = [LogProbQuad(1.0, 0.0, 0.0, 0.0), LogProbQuad(-1.0, 0.0, 0.0, 0.0)]
        report = dpo_loss(quads, beta=1.0)
        assert abs(report.loss - 0.8132616875182228) < 1e-12

    def test_saturation_to_zero(self):
        report = dpo_loss([LogProbQuad(1e4, 0.0, 0.0, 0.0)], beta=1.0)
        assert 0.0 <= report.loss < 1e-300

    def test_monotone_decreasing_in_margin(self):
        losses = [
            dpo_loss([LogProbQuad(m, 0.0, 0.0, 0.0)], beta=1.0).loss
            for m in (-5.0, -1.0, 0.0, 1.0, 5.0)
        ]
        assert losses == sorted(losses, reverse=True)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_stability_sweep(self):
        for m in (-1e4, -100.0, 0.0, 100.0, 1e4):
            loss = dpo_loss([LogProbQuad(m, 0.0, 0.0, 0.0)], beta=1.0).loss
            assert math.isfinite(loss)

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatch):
            dpo_loss([], beta=0.1)


class TestCogpoLoss:
    def test_mixed_gap_fixture(self):
        # raw log-ratio difference 5.0 in each quad; margins 0.5, 1.0, 2.5
        quad = LogProbQuad(5.0, 0.0, 0.0, 0.0)
        report = cogpo_loss([(quad, g) for g in GAPS], BetaSchedule())
        assert abs(report.loss - 0.28874280199695973) < 1e-12
        assert abs(report.margins[0] - 0.5) < 1e-12
        assert abs(report.margins[1] - 1.0) < 1e-12
        assert abs(report.margins[2] - 2.5) < 1e-12

    def test_single_gap_collapses_to_dpo(self):
        rng = np.random.default_rng(13)
        quads = random_quads(rng, 16)
        tagged = [(q, GapType.LARGE) for q in quads]
        assert abs(cogpo_loss(tagged, BetaSchedule()).loss - dpo_loss(quads, 0.5).loss) < 1e-12

    def test_degenerate_schedule_reduces_to_dpo_1000_batches(self):
        rng = np.random.default_rng(14)
        degenerate = BetaSchedule(beta_small=0.25, beta_medium=0.25, beta_large=0.25)
        for _ in range(1000):
            quads = random_quads(rng, 8)
            tagged = [(q, GAPS[int(rng.integers(3))]) for q in quads]
            diff = abs(cogpo_loss(tagged, degenerate).loss - dpo_loss(quads, 0.25).loss)
            assert diff < 1e-12

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatch):
            cogpo_loss([], BetaSchedule())


class TestBetaDpoAdjust:
    def test_fixed_point_is_exact(self):
        for beta in (0.1, 0.2, 0.5):
            for alpha in (0.0, 0.5, 2.0):
                assert beta_dpo_adjust(beta, alpha, m_i=1.25, m_0=1.25) == beta

    def test_direct_substitution(self):
        assert abs(beta_dpo_adjust(0.2, 0.5, m_i=1.0, m_0=0.0) - 0.3) < 1e-12

    def test_nonpositive_result_rejected(self):
        with pytest.raises(NonPositiveBeta):
            beta_dpo_adjust(0.1, 1.0, m_i=-2.0, m_0=0.0)
        with pytest.raises(NonPositiveBeta):
            beta_dpo_adjust(0.1, 1.0, m_i=-1.0, m_0=0.0)  # exactly zero

    def test_affine_and_monotone_in_differential(self):
        values = [beta_dpo_adjust(0.2, 0.5, m, 0.0) for m in (0.0, 1.0, 2.0, 3.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        steps = [b - a for a, b in zip(values, values[1:])]
        assert all(abs(step - steps[0]) < 1e-12 for step in steps)

    def test_invalid_input_beta_rejected(self):
        with pytest.raises(ValueError):
            beta_dpo_adjust(0.0, 0.5, 1.0, 0.0)


class TestToyPolicy:
    def test_rows_normalize_to_one(self):
        policy = ToyPolicy(vocab_size=5, n_buckets=3, rng=np.random.default_rng(1))
        for bucket in range(3):
            total = float(np.exp(policy.log_softmax()[bucket]).sum())
            assert abs(total - 1.0) < 1e-12

    def test_bucket_hash_is_stable(self):
        # FNV-1a over (token+1) values; frozen expected hashes
        policy = ToyPolicy(vocab_size=3, n_buckets=2)
        assert policy.bucket(()) == 2166136261 % 2
        assert policy.bucket((0, 1)) == 3983810698 % 2
        assert policy.bucket((2,)) == 101473970 % 2
        other = ToyPolicy(vocab_size=3, n_buckets=2, rng=np.random.default_rng(99))
        assert other.bucket((0, 1)) == policy.bucket((0, 1))

    def test_snapshot_is_independent(self):
        policy = ToyPolicy(vocab_size=2, n_buckets=1)
        frozen = policy.snapshot()
        policy.logits[0, 0] += 5.0
        assert frozen.logits[0, 0] != policy.logits[0, 0]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ToyPolicy(vocab_size=2, n_buckets=2, logits=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            ToyPolicy(vocab_size=0, n_buckets=1)


class TestSequenceLogprob:
    def test_uniform_logits(self):
        policy = ToyPolicy(vocab_size=4, n_buckets=2, logits=np.zeros((2, 4)))
        value = sequence_logprob(policy, prompt=(0,), response=(1, 2, 3))
        assert abs(value - 3 * math.log(0.25)) < 1e-12

    def test_empty_response_is_zero(self):
        policy = ToyPolicy(vocab_size=4, n_buckets=2)
        assert sequence_logprob(policy, prompt=(0, 1), response=()) == 0.0

    def test_one_hot_favoring_logits(self):
        logits = np.array([[10.0, 0.0]])
        policy = ToyPolicy(vocab_size=2, n_buckets=1, logits=logits)
        per_step = -math.log1p(math.exp(-10.0))
        got = sequence_logprob(policy, prompt=(), response=(0, 0))
        assert abs(got - 2 * per_step) < 1e-12

    def test_always_nonpositive(self):
        rng = np.random.default_rng(15)
        policy = ToyPolicy(vocab_size=6, n_buckets=4, rng=rng)
        for _ in range(100):
            prompt = tuple(int(t) for t in rng.integers(0, 6, size=rng.integers(0, 4)))
            response = tuple(int(t) for t in rng.integers(0, 6, size=rng.integers(1, 6)))
            assert sequence_logprob(policy, prompt, response) <= 0.0

    def test_token_out_of_range(self):
        policy = ToyPolicy(vocab_size=3, n_buckets=2)
        with pytest.raises(TokenOutOfRange):
            sequence_logprob(policy, prompt=(3,), response=(0,))
        with pytest.raises(TokenOutOfRange):
            sequence_logprob(policy, prompt=(), response=(0, -1))


def small_batch() -> list[TokenPair]:
    return [
        TokenPair(prompt=(0, 1), chosen=(1, 2, 0), rejected=(2,), gap=GapType.SMALL),
        TokenPair(prompt=(2,), chosen=(0, 0), rejected=(1, 2), gap=GapType.MEDIUM),
        TokenPair(prompt=(1,), chosen=(2, 1), rejected=(0,), gap=GapType.LARGE),
        TokenPair(prompt=(0,), chosen=(1,), rejected=(2, 2), gap=GapType.LARGE),
    ]


class TestCogpoTokenLoss:
    def test_matches_manual_quads(self):
        rng = np.random.default_rng(16)
        policy = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
        reference = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
        batch = small_batch()
        report = cogpo_token_loss(batch, BetaSchedule(), policy, reference)
        tagged = [(quad_from_tokens(policy, reference, p), p.gap) for p in batch]
        manual = cogpo_loss(tagged, BetaSchedule())
        assert report.loss == manual.loss
        assert report.margins == manual.margins
        assert report.gradient is None

    def test_identical_policies_have_zero_margins(self):
        policy = ToyPolicy(vocab_size=3, n_buckets=2, rng=np.random.default_rng(17))
        report = cogpo_token_loss(small_batch(), BetaSchedule(), policy, policy.snapshot())
        assert all(m == 0.0 for m in report.margins)
        assert abs(report.loss - LN2) < 1e-12


class TestGradCheck:
    def test_randomized_policies_pass(self):
        rng = np.random.default_rng(18)
        for _ in range(3):
            policy = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
            reference = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
            report = grad_check(small_batch(), BetaSchedule(), policy, reference)
            assert report.passed, f"max rel error {report.max_rel_error}"
            assert report.max_rel_error < 1e-4

    def test_snapshot_reference_passes(self):
        policy = ToyPolicy(vocab_size=4, n_buckets=3, rng=np.random.default_rng(19))
        report = grad_check(small_batch(), BetaSchedule(), policy)
        assert report.passed

    def test_negative_control_detected(self):
        rng = np.random.default_rng(20)
        policy = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
        reference = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
        report = grad_check(
            small_batch(), BetaSchedule(), policy, reference, corruption=(1, 2)
        )
        assert not report.passed
        assert report.worst_coordinate == (1, 2)

    def test_single_token_vocabulary_edge(self):
        policy = ToyPolicy(vocab_size=1, n_buckets=1)
        batch = [TokenPair(prompt=(), chosen=(0,), rejected=(0, 0), gap=GapType.SMALL)]
        report = grad_check(batch, BetaSchedule(), policy)
        assert report.passed
        analytic = cogpo_token_loss(
            batch, BetaSchedule(), policy, policy.snapshot(), with_gradient=True
        )
        assert float(np.abs(analytic.gradient).max()) == 0.0

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError):
            grad_check(small_batch(), BetaSchedule(), ToyPolicy(3, 2), epsilon=0.0)


class TestJoinQuads:
    def pair_row(self, pair_id: str, gap: str = "small") -> dict:
        return {"id": pair_id, "gap": gap}

    def logprob_row(self, pair_id: str) -> dict:
        return {"id": pair_id, "lp_w_theta": -1.0, "lp_w_ref": -1.5,
                "lp_l_theta": -2.5, "lp_l_ref": -2.0}

    def test_complete_join(self):
        joined = join_quads(
            [self.pair_row("a"), self.pair_row("b", "large")],
            [self.logprob_row("b"), self.logprob_row("a")],
        )
        assert [(pair_id, gap) for pair_id, _q, gap in joined] == [
            ("a", GapType.SMALL), ("b", GapType.LARGE),
        ]
        assert joined[0][1].lp_w_theta == -1.0

    def test_missing_logprob_rejected(self):
        with pytest.raises(JoinError, match="no log-prob row"):
            join_quads([self.pair_row("a")], [])

    def test_extra_logprob_rejected(self):
        with pytest.raises(JoinError, match="no matching pair"):
            join_quads([self.pair_row("a")], [self.logprob_row("a"), self.logprob_row("zz")])

    def test_duplicate_logprob_rejected(self):
        with pytest.raises(JoinError, match="duplicate"):
            join_quads([self.pair_row("a")], [self.logprob_row("a"), self.logprob_row("a")])

    def test_logprobs_drained_before_pairs_are_pulled(self):
        events = []
        logprobs = [self.logprob_row("b"), self.logprob_row("a")]

        def logprob_rows():
            for row in logprobs:
                events.append(("logprob", row["id"]))
                yield row

        def pair_rows():
            for row in [self.pair_row("a"), self.pair_row("b", "large")]:
                events.append(("pair", row["id"]))
                # The join keeps each log-prob row's four floats, not the row.
                for logprob in logprobs:
                    logprob.clear()
                yield row

        joined = join_quads(pair_rows(), logprob_rows())
        assert events == [("logprob", "b"), ("logprob", "a"), ("pair", "a"), ("pair", "b")]
        assert [(pair_id, gap) for pair_id, _q, gap in joined] == [
            ("a", GapType.SMALL), ("b", GapType.LARGE),
        ]
        assert joined[1][1] == LogProbQuad(-1.0, -1.5, -2.5, -2.0)
