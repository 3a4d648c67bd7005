"""Preference-loss numerics: margins, the gap-weighted objective, a miniature
differentiable policy, and finite-difference gradient verification.

The loss is always computed as softplus(-margin) rather than the literal
-log(sigmoid(margin)); the two are identical mathematically and the softplus
form neither overflows nor loses the tail for margins out to +/-1e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pairs import assign_beta
from .records import BetaSchedule, GapType, LogProbQuad


class EmptyBatch(ValueError):
    """Loss over zero pairs is undefined."""


class NonFinite(ValueError):
    """A log-probability input was NaN or infinite."""


class NonPositiveBeta(ValueError):
    """The reward-differential adjustment drove beta to zero or below."""


class TokenOutOfRange(ValueError):
    """A token id falls outside the policy's vocabulary."""


class JoinError(ValueError):
    """Pair rows and log-prob rows do not join one-to-one on id."""


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def softplus(x: float) -> float:
    return float(np.logaddexp(0.0, x))


def margin(q: LogProbQuad, beta: float) -> float:
    """Beta-scaled policy-vs-reference log-ratio difference, chosen minus rejected."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not q.is_finite():
        raise NonFinite(f"non-finite log-probability in {q}")
    return beta * ((q.lp_w_theta - q.lp_w_ref) - (q.lp_l_theta - q.lp_l_ref))


@dataclass
class LossReport:
    loss: float
    margins: list[float]
    gradient: np.ndarray | None = None


def _mean_loss(terms: list[tuple[LogProbQuad, float]], empty: str) -> LossReport:
    """Mean softplus(-margin) over (quad, beta) terms, summed in input order."""
    if not terms:
        raise EmptyBatch(empty)
    margins = [margin(q, beta) for q, beta in terms]
    loss = sum(softplus(-m) for m in margins) / len(margins)
    return LossReport(loss=loss, margins=margins)


def dpo_loss(quads: list[LogProbQuad], beta: float) -> LossReport:
    """Mean softplus(-margin) at a single preference strength."""
    return _mean_loss([(q, beta) for q in quads], "no quads")


def cogpo_loss(pairs: list[tuple[LogProbQuad, GapType]], schedule: BetaSchedule) -> LossReport:
    """Mean softplus(-margin) with each pair's beta resolved by its gap."""
    return _mean_loss([(q, assign_beta(gap, schedule)) for q, gap in pairs], "no pairs")


def beta_dpo_adjust(beta_i: float, alpha: float, m_i: float, m_0: float) -> float:
    """Instance-level beta scaling by reward differential: beta * (1 + alpha*(M_i - M_0))."""
    if not beta_i > 0:
        raise ValueError(f"beta_i must be positive, got {beta_i}")
    adjusted = beta_i * (1.0 + alpha * (m_i - m_0))
    if not adjusted > 0:
        raise NonPositiveBeta(
            f"adjusted beta {adjusted} <= 0 (beta_i={beta_i}, alpha={alpha}, differential={m_i - m_0})"
        )
    return adjusted


class ToyPolicy:
    """Tabular softmax policy over a tiny vocabulary.

    Every context prefix hashes to one of ``n_buckets`` rows of a logit
    matrix; next-token log-probabilities are that row's log-softmax. The hash
    is FNV-1a over token values, so bucketing is stable across processes.
    """

    def __init__(
        self,
        vocab_size: int,
        n_buckets: int,
        logits: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if vocab_size < 1 or n_buckets < 1:
            raise ValueError("vocab_size and n_buckets must be positive")
        self.vocab_size = vocab_size
        self.n_buckets = n_buckets
        if logits is not None:
            logits = np.asarray(logits, dtype=float)
            if logits.shape != (n_buckets, vocab_size):
                raise ValueError(f"logits shape {logits.shape} != {(n_buckets, vocab_size)}")
            self.logits = logits.copy()
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            self.logits = rng.normal(0.0, 1.0, size=(n_buckets, vocab_size))

    def bucket(self, context: tuple[int, ...]) -> int:
        h = 0x811C9DC5
        for token in context:
            h ^= (token + 1) & 0xFFFFFFFF
            h = (h * 0x01000193) & 0xFFFFFFFF
        return h % self.n_buckets

    def log_probs(self, bucket: int) -> np.ndarray:
        row = self.logits[bucket]
        shifted = row - row.max()
        return shifted - math.log(float(np.exp(shifted).sum()))

    def snapshot(self) -> ToyPolicy:
        """Immutable-by-convention copy, used as the frozen reference."""
        return ToyPolicy(self.vocab_size, self.n_buckets, logits=self.logits)


def sequence_logprob(
    policy: ToyPolicy, prompt: tuple[int, ...], response: tuple[int, ...]
) -> float:
    """Sum of per-step log-softmax probabilities of the response under the policy."""
    for token in tuple(prompt) + tuple(response):
        if not 0 <= token < policy.vocab_size:
            raise TokenOutOfRange(f"token {token} outside vocabulary of size {policy.vocab_size}")
    total = 0.0
    context = tuple(prompt)
    for token in response:
        total += float(policy.log_probs(policy.bucket(context))[token])
        context = context + (token,)
    return total


@dataclass(frozen=True)
class TokenPair:
    """A preference pair at token level, for the toy policy."""

    prompt: tuple[int, ...]
    chosen: tuple[int, ...]
    rejected: tuple[int, ...]
    gap: GapType


def quad_from_tokens(policy: ToyPolicy, reference: ToyPolicy, pair: TokenPair) -> LogProbQuad:
    return LogProbQuad(
        lp_w_theta=sequence_logprob(policy, pair.prompt, pair.chosen),
        lp_w_ref=sequence_logprob(reference, pair.prompt, pair.chosen),
        lp_l_theta=sequence_logprob(policy, pair.prompt, pair.rejected),
        lp_l_ref=sequence_logprob(reference, pair.prompt, pair.rejected),
    )


def cogpo_token_loss(
    batch: list[TokenPair],
    schedule: BetaSchedule,
    policy: ToyPolicy,
    reference: ToyPolicy,
    with_gradient: bool = False,
) -> LossReport:
    """Gap-weighted loss through the toy policy, optionally with the analytic
    gradient w.r.t. the policy logits (reference held fixed)."""
    report = _mean_loss(
        [(quad_from_tokens(policy, reference, pair), assign_beta(pair.gap, schedule))
         for pair in batch],
        "no token pairs",
    )
    if not with_gradient:
        return report

    grad = np.zeros_like(policy.logits)
    n = len(batch)
    for pair, m in zip(batch, report.margins):
        beta = assign_beta(pair.gap, schedule)
        # dLoss/dmargin = -sigmoid(-margin)/n; the margin is beta-linear in
        # the chosen log-prob and anti-linear in the rejected one.
        for response, sign in ((pair.chosen, -1.0), (pair.rejected, 1.0)):
            coef = sign * _sigmoid(-m) * beta / n
            context = tuple(pair.prompt)
            for token in response:
                bucket = policy.bucket(context)
                probs = np.exp(policy.log_probs(bucket))
                grad[bucket] += coef * (-probs)
                grad[bucket, token] += coef
                context = context + (token,)
    report.gradient = grad
    return report


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_coordinate: tuple[int, int]
    epsilon: float
    tolerance: float
    passed: bool


def grad_check(
    batch: list[TokenPair],
    schedule: BetaSchedule,
    policy: ToyPolicy,
    reference: ToyPolicy | None = None,
    epsilon: float = 1e-5,
    tolerance: float = 1e-4,
    corruption: tuple[int, int] | None = None,
) -> GradCheckReport:
    """Compare the analytic gradient against central finite differences.

    ``corruption`` shifts one analytic coordinate by +1.0 as a negative
    control; the report must then fail on that coordinate. Failure is a report
    outcome, never an exception.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    reference = reference if reference is not None else policy.snapshot()
    analytic = cogpo_token_loss(batch, schedule, policy, reference, with_gradient=True).gradient
    if corruption is not None:
        analytic = analytic.copy()
        analytic[corruption] += 1.0

    max_rel = 0.0
    worst = (0, 0)
    for b in range(policy.n_buckets):
        for v in range(policy.vocab_size):
            probe = policy.snapshot()
            probe.logits[b, v] += epsilon
            up = cogpo_token_loss(batch, schedule, probe, reference).loss
            probe.logits[b, v] -= 2 * epsilon
            down = cogpo_token_loss(batch, schedule, probe, reference).loss
            numeric = (up - down) / (2 * epsilon)
            a = float(analytic[b, v])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            if rel > max_rel:
                max_rel = rel
                worst = (b, v)
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_coordinate=worst,
        epsilon=epsilon,
        tolerance=tolerance,
        passed=max_rel < tolerance,
    )


def join_quads(
    pair_rows: list[dict], logprob_rows: list[dict]
) -> list[tuple[str, LogProbQuad, GapType]]:
    """One-to-one join of pair rows with externally computed log-probs by id."""
    by_id: dict[str, dict] = {}
    for row in logprob_rows:
        if row["id"] in by_id:
            raise JoinError(f"duplicate log-prob id {row['id']!r}")
        by_id[row["id"]] = row
    joined = []
    for pair_row in pair_rows:
        pair_id = pair_row["id"]
        if pair_id not in by_id:
            raise JoinError(f"no log-prob row for pair id {pair_id!r}")
        row = by_id.pop(pair_id)
        quad = LogProbQuad(
            lp_w_theta=float(row["lp_w_theta"]),
            lp_w_ref=float(row["lp_w_ref"]),
            lp_l_theta=float(row["lp_l_theta"]),
            lp_l_ref=float(row["lp_l_ref"]),
        )
        joined.append((pair_id, quad, GapType(pair_row["gap"])))
    if by_id:
        leftover = sorted(by_id)
        raise JoinError(f"log-prob rows with no matching pair: {leftover[:5]}")
    return joined
