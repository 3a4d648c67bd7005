"""Loss numerics: margins, both objectives, the toy policy, gradient checks."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from cogforge import loss
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
    quad_from_tokens,
    sequence_logprob,
)
from cogforge.jsonl import read_rows
from cogforge.records import LOGPROB_SCHEMA, PAIR_SCHEMA, BetaSchedule, GapType, LogProbQuad
from test_loss_pin import make_case as benchmark_shape_case

LN2 = 0.6931471805599453
GAPS = (GapType.SMALL, GapType.MEDIUM, GapType.LARGE)


def random_quads(rng: np.random.Generator, n: int) -> list[LogProbQuad]:
    return [LogProbQuad(*(float(v) for v in rng.normal(-3.0, 2.0, 4))) for _ in range(n)]


class TestMargin:
    """A quad's beta-scaled margin, as the loss core reports it."""

    def test_symmetric_cancellation(self):
        quad = LogProbQuad(-1.0, -1.0, -2.0, -2.0)
        assert dpo_loss([quad], 0.1).margins[0] == 0.0
        assert dpo_loss([quad], 0.5).margins[0] == 0.0

    def test_direct_substitution(self):
        quad = LogProbQuad(-1.0, -1.5, -2.5, -2.0)
        assert abs(dpo_loss([quad], 0.1).margins[0] - 0.1) < 1e-12

    def test_beta_linearity_exact(self):
        rng = np.random.default_rng(11)
        for quad in random_quads(rng, 50):
            assert dpo_loss([quad], 0.4).margins[0] == 2.0 * dpo_loss([quad], 0.2).margins[0]

    def test_antisymmetry_under_swap(self):
        rng = np.random.default_rng(12)
        for quad in random_quads(rng, 50):
            swapped = LogProbQuad(
                lp_w_theta=quad.lp_l_theta, lp_w_ref=quad.lp_l_ref,
                lp_l_theta=quad.lp_w_theta, lp_l_ref=quad.lp_w_ref,
            )
            assert dpo_loss([swapped], 0.3).margins[0] == -dpo_loss([quad], 0.3).margins[0]

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            dpo_loss([LogProbQuad(math.nan, 0.0, 0.0, 0.0)], 0.1).margins[0]
        with pytest.raises(NonFinite):
            dpo_loss([LogProbQuad(0.0, -math.inf, 0.0, 0.0)], 0.1).margins[0]

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError):
            dpo_loss([LogProbQuad(0.0, 0.0, 0.0, 0.0)], 0.0).margins[0]


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


class TestLossCore:
    @pytest.mark.parametrize("rows, betas, counted", [
        (5, [0.1], 1), (5, [0.1, 0.2, 0.5], 3), (5, [0.1] * 6, 6), (5, 0.1, 1),
        (2, np.full((2, 2), 0.1), 4), (0, [0.1], 1),
    ])
    def test_wrong_beta_count_names_both_counts(self, rows, betas, counted):
        with pytest.raises(ValueError, match=f"^{counted} betas for {rows} rows"):
            loss._mean_loss(np.zeros((rows, 4)), betas, "no rows")

    def test_returns_arrays(self):
        quads = np.array([[0.0, 0.0, -1.0, 0.0]] * 3)
        margins, terms = loss._mean_loss(quads, [0.1] * 3, "no rows")
        assert isinstance(margins, np.ndarray) and isinstance(terms, np.ndarray)
        assert margins.tolist() == [0.1] * 3
        assert np.abs(terms - math.log1p(math.exp(-0.1))).max() < 1e-15


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

    def test_steps_bucket_every_prefix(self):
        rng = np.random.default_rng(5)
        policy = ToyPolicy(vocab_size=7, n_buckets=5, rng=rng)
        cases = [((), ()), ((), (3,)), ((1, 2), ()), ((), (0, 6, 6, 1))]
        for _ in range(200):
            prompt = tuple(int(t) for t in rng.integers(0, 7, size=rng.integers(0, 6)))
            response = tuple(int(t) for t in rng.integers(0, 7, size=rng.integers(0, 9)))
            cases.append((prompt, response))
        want = np.zeros((len(cases), policy.n_buckets, policy.vocab_size))
        for row, (prompt, response) in enumerate(cases):
            for i, token in enumerate(response):
                want[row, policy.bucket(prompt + response[:i]), token] += 1
        counts = loss._step_counts(policy, cases)
        assert counts.tolist() == want.reshape(len(cases), -1).tolist()

    def test_steps_hash_each_token_once(self, monkeypatch):
        updates = 0
        fnv1a = loss._fnv1a

        def counting(h, token):
            nonlocal updates
            updates += 1
            return fnv1a(h, token)

        monkeypatch.setattr(loss, "_fnv1a", counting)
        policy = ToyPolicy(vocab_size=4, n_buckets=16)
        for prompt_len, response_len in ((0, 0), (0, 64), (8, 1), (8, 1024)):
            updates = 0
            loss._step_counts(policy, [((1,) * prompt_len, (2,) * response_len)])
            assert updates <= prompt_len + response_len, (prompt_len, response_len)

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


def non_square_case(seed: int) -> tuple[list[TokenPair], ToyPolicy, ToyPolicy]:
    """Vocabulary 5, 3 buckets, batch 7 with uneven response lengths (one
    response empty), and a reference with 4 buckets."""
    rng = np.random.default_rng(seed)
    policy = ToyPolicy(vocab_size=5, n_buckets=3, rng=rng)
    reference = ToyPolicy(vocab_size=5, n_buckets=4, rng=rng)

    def tokens(n: int) -> tuple[int, ...]:
        return tuple(int(t) for t in rng.integers(0, 5, size=n))

    lengths = [(2, 4, 1), (0, 3, 2), (1, 1, 5), (3, 2, 0), (0, 6, 3), (2, 1, 1), (1, 5, 4)]
    batch = [
        TokenPair(prompt=tokens(p), chosen=tokens(c), rejected=tokens(r), gap=GAPS[i % 3])
        for i, (p, c, r) in enumerate(lengths)
    ]
    return batch, policy, reference


def assert_matches_loop_reference(batch, policy, reference, epsilon: float = 1e-5) -> None:
    """Finite differences with one whole-loss evaluation per probe, as a loop:
    the analytic gradient and ``grad_check`` both agree with it to 1e-6."""
    schedule = BetaSchedule()
    analytic = cogpo_token_loss(batch, schedule, policy, reference, with_gradient=True).gradient
    probe = policy.snapshot()
    numeric = np.empty_like(analytic)
    for b in range(policy.n_buckets):
        for v in range(policy.vocab_size):
            probe.logits[b, v] = policy.logits[b, v] + epsilon
            up = cogpo_token_loss(batch, schedule, probe, reference).loss
            probe.logits[b, v] = policy.logits[b, v] - epsilon
            down = cogpo_token_loss(batch, schedule, probe, reference).loss
            probe.logits[b, v] = policy.logits[b, v]
            numeric[b, v] = (up - down) / (2 * epsilon)
    rel = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4
    )
    assert rel.max() < 1e-6
    report = grad_check(batch, schedule, policy, reference, epsilon=epsilon)
    assert report.max_rel_error < 1e-6


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


def pinned_case(name: str, seed: int) -> tuple[list[TokenPair], ToyPolicy, ToyPolicy]:
    """The benchmark-shape and non-square cases at a seed, or ``selftest``'s
    batch, whose two policies come from seed 7."""
    if name == "benchmark":
        return benchmark_shape_case(seed)
    if name == "non-square":
        return non_square_case(seed)
    rng = np.random.default_rng(seed)
    return small_batch(), ToyPolicy(3, 2, rng=rng), ToyPolicy(3, 2, rng=rng)


# (case, seed, corrupted coordinate) -> the (max_rel_error, worst_coordinate,
# passed) of grad_check, clean and with that coordinate corrupted, recorded
# while every probe still pushed every pair through the loss core.
GRAD_CHECK_PINS = {
    ("benchmark", 1, (1, 2)): (
        (7.428758021059412e-08, (15, 5), True), (0.9998093426629836, (1, 2), False)),
    ("benchmark", 2, (1, 2)): (
        (7.951762647862362e-08, (10, 15), True), (1.00031255915827, (1, 2), False)),
    ("benchmark", 3, (1, 2)): (
        (6.743603486307198e-08, (15, 5), True), (0.9920861247593437, (1, 2), False)),
    ("benchmark", 4, (1, 2)): (
        (6.87096268824159e-08, (10, 11), True), (0.9987915430590655, (1, 2), False)),
    ("benchmark", 5, (1, 2)): (
        (5.7565807356638784e-08, (9, 7), True), (1.0012717746953261, (1, 2), False)),
    ("benchmark", 6, (1, 2)): (
        (6.048220374172178e-08, (3, 6), True), (0.9776930292218151, (1, 2), False)),
    ("benchmark", 7, (1, 2)): (
        (5.786046948096264e-08, (11, 11), True), (1.000017486029736, (1, 2), False)),
    ("benchmark", 8, (1, 2)): (
        (1.3182380493724673e-07, (6, 13), True), (1.0001340500413336, (1, 2), False)),
    ("benchmark", 9, (1, 2)): (
        (1.3008576048225296e-07, (0, 2), True), (0.9996922705271127, (1, 2), False)),
    ("benchmark", 10, (1, 2)): (
        (6.07362654636047e-08, (1, 15), True), (1.000304281883032, (1, 2), False)),
    ("benchmark", 11, (1, 2)): (
        (1.2188607436715293e-07, (14, 14), True), (0.9897184800346291, (1, 2), False)),
    ("benchmark", 12, (1, 2)): (
        (1.1396350715968491e-07, (10, 5), True), (0.9998373427618378, (1, 2), False)),
    ("benchmark", 13, (1, 2)): (
        (9.24808428622026e-08, (14, 14), True), (0.9985049632997433, (1, 2), False)),
    ("benchmark", 14, (1, 2)): (
        (7.556885686329541e-08, (2, 11), True), (1.0034484823806928, (1, 2), False)),
    ("benchmark", 15, (1, 2)): (
        (7.135207978929345e-08, (1, 5), True), (0.9996518967687799, (1, 2), False)),
    ("benchmark", 16, (1, 2)): (
        (7.828320673988753e-08, (8, 12), True), (1.0000146049196337, (1, 2), False)),
    ("benchmark", 17, (1, 2)): (
        (5.142270609836181e-08, (7, 5), True), (1.003722496778496, (1, 2), False)),
    ("benchmark", 18, (1, 2)): (
        (1.0125767178692714e-07, (5, 1), True), (0.9998496900056701, (1, 2), False)),
    ("benchmark", 19, (1, 2)): (
        (7.959760957213619e-08, (1, 12), True), (1.0192784860313826, (1, 2), False)),
    ("benchmark", 20, (1, 2)): (
        (1.8189806382795117e-07, (1, 9), True), (1.0000576684647906, (1, 2), False)),
    ("non-square", 31, (1, 3)): (
        (2.139291066725116e-09, (2, 3), True), (0.9452716801711945, (1, 3), False)),
    ("non-square", 32, (1, 3)): (
        (2.887885745461002e-09, (1, 1), True), (1.0080155746364183, (1, 3), False)),
    ("non-square", 33, (1, 3)): (
        (2.4622567681241835e-09, (0, 1), True), (0.9450233640224244, (1, 3), False)),
    ("selftest", 7, (0, 1)): (
        (4.223803039027162e-09, (0, 0), True), (1.1338331609685832, (0, 1), False)),
    ("selftest", 7, (1, 2)): (
        (4.223803039027162e-09, (0, 0), True), (1.0210758837759204, (1, 2), False)),
}


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

    @pytest.mark.parametrize("coordinate", [(b, v) for b in range(2) for v in range(3)])
    def test_every_corrupted_coordinate_is_the_worst(self, coordinate):
        rng = np.random.default_rng(21)
        policy = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
        reference = ToyPolicy(vocab_size=3, n_buckets=2, rng=rng)
        report = grad_check(small_batch(), BetaSchedule(), policy, reference, corruption=coordinate)
        assert not report.passed
        assert report.worst_coordinate == coordinate

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_shape_passes(self, seed):
        batch, policy, reference = benchmark_shape_case(seed)
        report = grad_check(batch, BetaSchedule(), policy, reference)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_matches_per_coordinate_reference(self):
        """One loss evaluation per probe, as a loop: both it and the batched
        check agree with the analytic gradient to 1e-6 everywhere."""
        batch, policy, reference = benchmark_shape_case(4)
        assert_matches_loop_reference(batch, policy, reference)

    def test_non_square_matches_per_coordinate_reference(self):
        """At a shape where vocabulary, buckets, batch and the reference's
        buckets all differ, a swapped axis cannot pass unnoticed."""
        batch, policy, reference = non_square_case(31)
        assert {len(p.chosen) for p in batch} | {len(p.rejected) for p in batch} >= {0, 1, 4}
        assert_matches_loop_reference(batch, policy, reference)

    @pytest.mark.parametrize("coordinate", [(0, 0), (0, 4), (2, 0), (2, 4), (1, 3)])
    def test_non_square_corrupted_corner_is_the_worst(self, coordinate):
        batch, policy, reference = non_square_case(32)
        report = grad_check(batch, BetaSchedule(), policy, reference, corruption=coordinate)
        assert not report.passed
        assert report.worst_coordinate == coordinate

    def test_walks_each_response_once(self, monkeypatch):
        batch, policy, reference = non_square_case(33)
        walked: list[int] = []
        token_loss_calls = 0
        step_counts = loss._step_counts
        exact = loss.cogpo_token_loss

        def counting_walks(policy, sequences):
            walked.extend(id(policy) for _ in sequences)
            return step_counts(policy, sequences)

        def counting_loss(*args, **kwargs):
            nonlocal token_loss_calls
            token_loss_calls += 1
            return exact(*args, **kwargs)

        monkeypatch.setattr(loss, "_step_counts", counting_walks)
        monkeypatch.setattr(loss, "cogpo_token_loss", counting_loss)
        assert grad_check(batch, BetaSchedule(), policy, reference).passed
        assert walked.count(id(policy)) == 2 * len(batch)
        assert walked.count(id(reference)) == 2 * len(batch)
        assert len(walked) == 4 * len(batch)
        assert token_loss_calls == 1

        # A reference of the policy's shape takes the same steps: one walk.
        walked.clear()
        same_shape = ToyPolicy(policy.vocab_size, policy.n_buckets, rng=np.random.default_rng(34))
        assert grad_check(batch, BetaSchedule(), policy, same_shape).passed
        assert len(walked) == 2 * len(batch)
        assert token_loss_calls == 2

    @pytest.mark.parametrize("case", sorted(GRAD_CHECK_PINS))
    def test_report_matches_pin(self, case):
        name, seed, coordinate = case
        batch, policy, reference = pinned_case(name, seed)
        for corruption, pin in zip((None, coordinate), GRAD_CHECK_PINS[case]):
            report = grad_check(batch, BetaSchedule(), policy, reference, corruption=corruption)
            assert repr((report.max_rel_error, report.worst_coordinate, report.passed)) == repr(pin)

    @pytest.mark.parametrize("name, seed", [
        ("benchmark", 1), ("benchmark", 2), ("non-square", 31), ("selftest", 7), ("no-steps", 8)])
    def test_core_sees_only_the_pairs_a_probe_moves(self, monkeypatch, name, seed):
        """A probe of row b moves only the pairs with a step in row b, so the
        core gets 2V quads per such (row, pair), after the base pass's batch;
        with no step anywhere it gets no probe quads at all."""
        if name == "no-steps":
            policy = ToyPolicy(3, 2, rng=np.random.default_rng(seed))
            batch, reference = [TokenPair((0, 1), (), (), GapType.MEDIUM)], policy.snapshot()
        else:
            batch, policy, reference = pinned_case(name, seed)
        core_rows: list[int] = []
        core = loss._mean_loss

        def counting_core(quads, betas, empty):
            core_rows.append(len(quads))
            return core(quads, betas, empty)

        monkeypatch.setattr(loss, "_mean_loss", counting_core)
        assert grad_check(batch, BetaSchedule(), policy, reference).passed
        moved = {(policy.bucket(pair.prompt + response[:i]), index)
                 for index, pair in enumerate(batch)
                 for response in (pair.chosen, pair.rejected) for i in range(len(response))}
        assert core_rows == [len(batch)] + [2 * policy.vocab_size * len(moved)] * bool(moved)
        if name == "benchmark":
            assert len(moved) < policy.n_buckets * len(batch) / 2

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatch):
            grad_check([], BetaSchedule(), ToyPolicy(3, 2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_analytic_coordinate_fails(self, monkeypatch, bad):
        exact = loss.cogpo_token_loss

        def faulty(*args, **kwargs):
            report = exact(*args, **kwargs)
            report.gradient[3, 4] = report.gradient[7, 2] = bad
            return report

        monkeypatch.setattr(loss, "cogpo_token_loss", faulty)
        batch, policy, reference = benchmark_shape_case(1)
        report = grad_check(batch, BetaSchedule(), policy, reference)
        assert not report.passed
        assert report.worst_coordinate == (3, 4)  # the first in row-major order
        assert report.max_rel_error == math.inf


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

    def refusal(self, tmp_path, pair_rows: list[dict], logprob_rows: list[dict]) -> str:
        """The refusal of the rows once written to files and joined as
        ``loss-eval`` reads them, with the directory left out."""
        files = {"pairs.jsonl": pair_rows, "lp.jsonl": logprob_rows}
        for name, rows in files.items():
            (tmp_path / name).write_text("".join(json.dumps(row) + "\n" for row in rows),
                                         encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            join_quads(read_rows(str(tmp_path / "pairs.jsonl"), PAIR_SCHEMA, key="id"),
                       read_rows(str(tmp_path / "lp.jsonl"), LOGPROB_SCHEMA, key="id"))
        return str(caught.value).replace(f"{tmp_path}{os.sep}", "")

    @pytest.mark.parametrize("field, value, kind", [
        ("id", ["a"], "a string"), ("id", 7, "a string"),
        ("lp_w_theta", {"x": 1}, "a number in float range"),
        ("lp_w_theta", True, "a number in float range"),
        ("lp_w_ref", "1.5", "a number in float range"),
        ("lp_l_theta", None, "a number in float range"),
        ("lp_l_ref", 10 ** 400, "a number in float range"),
    ], ids=["list-id", "int-id", "object", "boolean", "string", "null", "over-float-range"])
    def test_badly_typed_logprob_row_rejected(self, tmp_path, field, value, kind):
        row = dict(self.logprob_row("a"), **{field: value})
        assert self.refusal(tmp_path, [self.pair_row("a")], [row]) == (
            f"lp.jsonl:1: field {field!r} is not {kind}: {value!r}")

    def test_badly_typed_pair_id_rejected(self, tmp_path):
        assert self.refusal(tmp_path, [self.pair_row(["a"])], [self.logprob_row("a")]) == (
            "pairs.jsonl:1: field 'id' is not a string: ['a']")

    @pytest.mark.parametrize("file, field, value, text", [
        ("logprobs", "lp_w_theta", True,
         "log-prob row 'a': field 'lp_w_theta' is not a number in float range: True"),
        ("logprobs", "lp_w_ref", "1.5",
         "log-prob row 'a': field 'lp_w_ref' is not a number in float range: '1.5'"),
        ("logprobs", "lp_l_theta", None,
         "log-prob row 'a': field 'lp_l_theta' is not a number in float range: None"),
        ("logprobs", "lp_l_ref", 10 ** 400,
         f"log-prob row 'a': field 'lp_l_ref' is not a number in float range: {10 ** 400!r}"),
        ("logprobs", "id", 7, "log-prob row id 7: field 'id' is not a string"),
        ("logprobs", "id", ["a"], "log-prob row id ['a']: field 'id' is not a string"),
        ("pairs", "id", 7, "pair row id 7: field 'id' is not a string"),
        ("pairs", "id", None, "pair row id None: field 'id' is not a string"),
    ])
    def test_refusal_texts(self, tmp_path, file, field, value, text):
        """``text`` is the refusal ``join_quads`` gave when it checked types
        itself. The same row is still refused, at the file boundary: named by
        file and line in place of its id, with the same field clause, and
        always with the value."""
        rows = {"pairs": self.pair_row("a"), "logprobs": self.logprob_row("a")}
        rows[file][field] = value
        clause = text[text.index("field "):].removesuffix(f": {value!r}")
        name = {"pairs": "pairs.jsonl", "logprobs": "lp.jsonl"}[file]
        assert self.refusal(tmp_path, [rows["pairs"]], [rows["logprobs"]]) == (
            f"{name}:1: {clause}: {value!r}")

    def test_integer_logprobs_are_numbers(self):
        row = dict(self.logprob_row("a"), lp_w_theta=-1, lp_l_ref=0)
        (_id, quad, _gap), = join_quads([self.pair_row("a")], [row])
        assert quad == LogProbQuad(-1.0, -1.5, -2.5, 0.0)

    @pytest.mark.parametrize("gap", [["small"], "tiny", None, 1, {"gap": "small"}],
                             ids=["list", "unknown", "null", "int", "object"])
    def test_gap_that_is_no_gap_type_is_its_value_error(self, tmp_path, gap):
        assert self.refusal(tmp_path, [self.pair_row("a", gap)], [self.logprob_row("a")]) == (
            f"pairs.jsonl:1: field 'gap' is not a gap type: {gap!r}")

    def test_every_gap_joins_as_its_member(self):
        rows = [self.pair_row(gap.value + "-id", gap.value) for gap in GapType]
        joined = join_quads(rows, [self.logprob_row(row["id"]) for row in rows])
        assert [gap for _id, _q, gap in joined] == list(GapType)
        assert all(type(gap) is GapType for _id, _q, gap in joined)

    @pytest.mark.parametrize("value", [-1, 0, 10 ** 300, np.float64(-1.25)],
                             ids=["negative-int", "zero", "300-digit-int", "numpy-float"])
    def test_number_that_is_no_float_joins_as_a_float(self, value):
        row = dict(self.logprob_row("a"), lp_l_theta=value)
        (_id, quad, _gap), = join_quads([self.pair_row("a")], [row])
        assert type(quad) is LogProbQuad
        assert quad == (-1.0, -1.5, float(value), -2.0)
        assert [type(v) for v in quad] == [float] * 4

    def test_bad_value_before_a_missing_field_is_refused(self, tmp_path):
        row = self.logprob_row("a")
        row["lp_w_theta"] = False
        del row["lp_l_ref"]
        assert self.refusal(tmp_path, [self.pair_row("a")], [row]) == (
            "lp.jsonl:1: field 'lp_w_theta' is not a number in float range: False")

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


class TestLogProbQuad:
    """A quad is a named tuple of its four log-probs, so a batch of quads is
    the (n, 4) rows the loss core reads."""

    def test_keyword_construction_and_field_access(self):
        quad = LogProbQuad(lp_w_theta=-1.0, lp_w_ref=-1.5, lp_l_theta=-2.5, lp_l_ref=-2.0)
        assert (quad.lp_w_theta, quad.lp_w_ref, quad.lp_l_theta, quad.lp_l_ref) == (
            -1.0, -1.5, -2.5, -2.0)
        assert quad == LogProbQuad(-1.0, -1.5, -2.5, -2.0)
        assert quad != LogProbQuad(-1.0, -1.5, -2.5, -2.5)
        assert quad == (-1.0, -1.5, -2.5, -2.0)
        assert len({quad, LogProbQuad(-1.0, -1.5, -2.5, -2.0)}) == 1

    def test_immutable(self):
        quad = LogProbQuad(-1.0, -1.5, -2.5, -2.0)
        with pytest.raises(AttributeError):
            quad.lp_w_theta = 0.0
        assert quad.lp_w_theta == -1.0

    def test_a_batch_is_its_rows(self):
        quads = random_quads(np.random.default_rng(3), 5)
        rows = loss._rows(iter(quads))
        assert rows.dtype == float and rows.shape == (5, 4)
        assert rows.tolist() == [list(quad) for quad in quads]
        assert np.array_equal(loss._rows([tuple(quad) for quad in quads]), rows)
        assert loss._rows([]).shape == (0, 4)

    def test_a_quad_holding_a_string_is_refused(self):
        with pytest.raises(TypeError):
            dpo_loss([LogProbQuad("1.5", 0.0, 0.0, 0.0)], beta=0.1)

    @pytest.mark.parametrize("quads, shape", [
        ([(1.0, 2.0, 3.0, 4.0, 5.0)], r"\(1, 5\)"),
        ([(1.0, 2.0, 3.0)], r"\(1, 3\)"),
        ([(1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 3.0)], r"\[3, 4\] values"),
    ], ids=["five-values", "three-values", "ragged"])
    def test_rows_that_are_not_quads_are_refused(self, quads, shape):
        with pytest.raises(ValueError, match=shape):
            dpo_loss(quads, beta=0.1)
