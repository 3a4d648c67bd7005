"""Preference-loss numerics: margins, the gap-weighted objective, a miniature
differentiable policy, and finite-difference gradient verification.

Every loss goes through one numpy core, ``_mean_loss``, over arrays of
log-prob quads and betas. It computes each pair's term as softplus(-margin)
rather than the literal -log(sigmoid(margin)); the two are identical
mathematically and the softplus form neither overflows nor loses the tail for
margins out to +/-1e4.

numpy is imported inside the functions that use it, not at module level, so
that the commands that never touch the loss (``curate`` and ``pairs``) start
without loading it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .pairs import assign_beta
from .records import BetaSchedule, GapType, LogProbQuad

if TYPE_CHECKING:
    import numpy as np


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


@dataclass
class LossReport:
    loss: float
    margins: list[float]
    gradient: np.ndarray | None = None
    terms: list[float] = field(default_factory=list)


def _rows(quads: Iterable[LogProbQuad]) -> np.ndarray:
    import numpy as np

    return np.array([(q.lp_w_theta, q.lp_w_ref, q.lp_l_theta, q.lp_l_ref) for q in quads])


def _mean_loss(quads: np.ndarray, betas: Sequence[float], empty: str) -> LossReport:
    """The loss core: mean softplus(-margin) over rows of (lp_w_theta, lp_w_ref,
    lp_l_theta, lp_l_ref) with one beta per row, plus each row's margin and term."""
    import numpy as np

    betas = np.asarray(betas, dtype=float)
    if len(quads) == 0:
        raise EmptyBatch(empty)
    if not np.all(betas > 0):
        raise ValueError(f"beta must be positive, got {betas[~(betas > 0)][0]}")
    finite = np.isfinite(quads).all(axis=1)
    if not finite.all():
        raise NonFinite(f"non-finite log-probability in {quads[~finite][0].tolist()}")
    margins = betas * ((quads[:, 0] - quads[:, 1]) - (quads[:, 2] - quads[:, 3]))
    terms = np.logaddexp(0.0, -margins)
    return LossReport(loss=float(terms.mean()), margins=margins.tolist(), terms=terms.tolist())


def margin(q: LogProbQuad, beta: float) -> float:
    """Beta-scaled policy-vs-reference log-ratio difference, chosen minus rejected."""
    return dpo_loss([q], beta).margins[0]


def dpo_loss(quads: list[LogProbQuad], beta: float) -> LossReport:
    """Mean softplus(-margin) at a single preference strength."""
    return _mean_loss(_rows(quads), [beta] * len(quads), "no quads")


def cogpo_loss(pairs: list[tuple[LogProbQuad, GapType]], schedule: BetaSchedule) -> LossReport:
    """Mean softplus(-margin) with each pair's beta resolved by its gap."""
    betas = [assign_beta(gap, schedule) for _, gap in pairs]
    return _mean_loss(_rows(q for q, _ in pairs), betas, "no pairs")


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
        import numpy as np

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

    def log_softmax(self) -> np.ndarray:
        """Next-token log-probabilities of every bucket, one row each."""
        import numpy as np

        shifted = self.logits - self.logits.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def steps(
        self, prompt: tuple[int, ...], response: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucket and token index arrays of the response's steps, after
        checking that every token is in the vocabulary."""
        import numpy as np

        for token in (*prompt, *response):
            if not 0 <= token < self.vocab_size:
                raise TokenOutOfRange(f"token {token} outside vocabulary of size {self.vocab_size}")
        buckets = [self.bucket((*prompt, *response[:i])) for i in range(len(response))]
        return np.array(buckets, dtype=int), np.array(response, dtype=int)

    def snapshot(self) -> ToyPolicy:
        """Immutable-by-convention copy, used as the frozen reference."""
        return ToyPolicy(self.vocab_size, self.n_buckets, logits=self.logits)


def sequence_logprob(
    policy: ToyPolicy, prompt: tuple[int, ...], response: tuple[int, ...]
) -> float:
    """Sum of per-step log-softmax probabilities of the response under the policy."""
    buckets, tokens = policy.steps(prompt, response)
    return float(policy.log_softmax()[buckets, tokens].sum())


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


def _token_objective(
    batch: list[TokenPair], schedule: BetaSchedule, policy: ToyPolicy, reference: ToyPolicy
) -> Callable[..., LossReport]:
    """Walks every response once under each policy and returns the token loss
    as a function of a policy log-softmax table, optionally with the analytic
    gradient w.r.t. the policy logits (reference held fixed)."""
    import numpy as np

    sequences = [(p.prompt, response) for p in batch for response in (p.chosen, p.rejected)]
    walks = [policy.steps(prompt, response) for prompt, response in sequences]
    ref = [sequence_logprob(reference, prompt, response) for prompt, response in sequences]
    betas = np.array([assign_beta(p.gap, schedule) for p in batch], dtype=float)

    def objective(table: np.ndarray, with_gradient: bool = False) -> LossReport:
        lp = [float(table[buckets, tokens].sum()) for buckets, tokens in walks]
        quads = np.column_stack((lp[0::2], ref[0::2], lp[1::2], ref[1::2]))
        report = _mean_loss(quads, betas, "no token pairs")
        if with_gradient:
            # dLoss/dmargin = -sigmoid(-margin)/n; the margin is beta-linear in
            # the chosen log-prob and anti-linear in the rejected one. Each step
            # adds coef * (onehot(token) - softmax(bucket)) to its bucket's row.
            weight = np.exp(-np.logaddexp(0.0, report.margins)) * betas / len(batch)
            report.gradient = np.zeros_like(table)
            for (buckets, tokens), coef in zip(walks, np.column_stack((-weight, weight)).ravel()):
                np.add.at(report.gradient, buckets, -coef * np.exp(table[buckets]))
                np.add.at(report.gradient, (buckets, tokens), coef)
        return report

    return objective


def cogpo_token_loss(
    batch: list[TokenPair],
    schedule: BetaSchedule,
    policy: ToyPolicy,
    reference: ToyPolicy,
    with_gradient: bool = False,
) -> LossReport:
    """Gap-weighted loss through the toy policy, optionally with the analytic
    gradient w.r.t. the policy logits (reference held fixed)."""
    objective = _token_objective(batch, schedule, policy, reference)
    return objective(policy.log_softmax(), with_gradient)


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
        analytic[corruption] += 1.0

    objective = _token_objective(batch, schedule, policy, reference)
    probe = policy.snapshot()
    max_rel = 0.0
    worst = (0, 0)
    for b in range(policy.n_buckets):
        for v in range(policy.vocab_size):
            probe.logits[b, v] += epsilon
            up = objective(probe.log_softmax()).loss
            probe.logits[b, v] -= 2 * epsilon
            down = objective(probe.log_softmax()).loss
            probe.logits[b, v] = policy.logits[b, v]
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
    pair_rows: Iterable[dict], logprob_rows: Iterable[dict]
) -> list[tuple[str, LogProbQuad, GapType]]:
    """One-to-one join of pair rows with externally computed log-probs by id.

    The log-prob rows are drained first, down to four floats each; the pair
    rows are then consumed one at a time, and only their id and gap are kept.
    """
    by_id: dict[str, tuple[float, float, float, float]] = {}
    for row in logprob_rows:
        if row["id"] in by_id:
            raise JoinError(f"duplicate log-prob id {row['id']!r}")
        by_id[row["id"]] = (float(row["lp_w_theta"]), float(row["lp_w_ref"]),
                            float(row["lp_l_theta"]), float(row["lp_l_ref"]))
    joined = []
    for pair_row in pair_rows:
        pair_id = pair_row["id"]
        if pair_id not in by_id:
            raise JoinError(f"no log-prob row for pair id {pair_id!r}")
        joined.append((pair_id, LogProbQuad(*by_id.pop(pair_id)), GapType(pair_row["gap"])))
    if by_id:
        leftover = sorted(by_id)
        raise JoinError(f"log-prob rows with no matching pair: {leftover[:5]}")
    return joined
