"""Preference-loss numerics: margins, the gap-weighted objective, a miniature
differentiable policy, and finite-difference gradient verification.

Every loss goes through one numpy core, ``_mean_loss``, over arrays of
log-prob quads and betas. It computes each pair's term as softplus(-margin)
rather than the literal -log(sigmoid(margin)); the two are identical
mathematically and the softplus form neither overflows nor loses the tail for
margins out to +/-1e4.

``grad_check`` verifies the analytic gradient of the token-level loss against
central finite differences. Each probe is the whole loss at perturbed logits,
taken through the same core; the probes of one bucket row (two per logit)
are evaluated together, one core call per row, holding 2V tables of B x V
floats. A NaN or infinite gradient coordinate fails the check.

numpy is imported inside the functions that use it, not at module level, so
that the commands that never touch the loss (``curate`` and ``pairs``) start
without loading it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import reduce
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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a 2-D logit array."""
    import numpy as np

    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


_FNV_OFFSET = 0x811C9DC5


def _fnv1a(h: int, token: int) -> int:
    """One FNV-1a update: the 32-bit hash of a context extended by ``token``."""
    return ((h ^ ((token + 1) & 0xFFFFFFFF)) * 0x01000193) & 0xFFFFFFFF


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
        return reduce(_fnv1a, context, _FNV_OFFSET) % self.n_buckets

    def log_softmax(self) -> np.ndarray:
        """Next-token log-probabilities of every bucket, one row each."""
        return _log_softmax(self.logits)

    def steps(
        self, prompt: tuple[int, ...], response: tuple[int, ...]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bucket and token index arrays of the response's steps, after
        checking that every token is in the vocabulary. Step i's bucket is
        ``bucket(prompt + response[:i])``, with the hash carried forward one
        token at a time."""
        import numpy as np

        for token in (*prompt, *response):
            if not 0 <= token < self.vocab_size:
                raise TokenOutOfRange(f"token {token} outside vocabulary of size {self.vocab_size}")
        h = reduce(_fnv1a, prompt, _FNV_OFFSET)
        buckets = []
        for token in response:
            buckets.append(h % self.n_buckets)
            h = _fnv1a(h, token)
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


def _token_walks(
    batch: list[TokenPair], schedule: BetaSchedule, policy: ToyPolicy, reference: ToyPolicy
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[float], np.ndarray]:
    """Each response's (bucket, token) walk under the policy, chosen then
    rejected for every pair; each response's reference log-prob, in the same
    order; and each pair's beta."""
    import numpy as np

    sequences = [(p.prompt, response) for p in batch for response in (p.chosen, p.rejected)]
    walks = [policy.steps(prompt, response) for prompt, response in sequences]
    ref_table = reference.log_softmax()
    ref = [float(ref_table[reference.steps(prompt, response)].sum())
           for prompt, response in sequences]
    betas = np.array([assign_beta(p.gap, schedule) for p in batch], dtype=float)
    return walks, ref, betas


def cogpo_token_loss(
    batch: list[TokenPair],
    schedule: BetaSchedule,
    policy: ToyPolicy,
    reference: ToyPolicy,
    with_gradient: bool = False,
) -> LossReport:
    """Gap-weighted loss through the toy policy, optionally with the analytic
    gradient w.r.t. the policy logits (reference held fixed)."""
    import numpy as np

    walks, ref, betas = _token_walks(batch, schedule, policy, reference)
    table = policy.log_softmax()
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

    Each probe's loss is the whole objective at logits shifted by +/-epsilon
    in one coordinate, computed through the loss core and independently of
    the gradient code. Probes are evaluated one bucket row at a time: for row
    b, 2V probed log-softmax tables are held at once (row b of each is the
    log-softmax of the shifted row, every other row the base table), every
    response's log-prob is read from all of them through a per-response
    (bucket, token) count matrix, and the 2V * batch quads go through the
    loss core in one call. The extra memory of one such evaluation is the 2V
    tables of B x V floats; the count matrix (2 * batch rows of B x V) is
    built once.

    A coordinate whose analytic or numeric value is NaN or infinite has an
    infinite relative error, so the check fails with it as the worst
    coordinate: the first in row-major order of those with the largest error.

    ``corruption`` shifts one analytic coordinate by +1.0 as a negative
    control; the report must then fail on that coordinate. Failure is a report
    outcome, never an exception.
    """
    import numpy as np

    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    reference = reference if reference is not None else policy.snapshot()
    analytic = cogpo_token_loss(batch, schedule, policy, reference, with_gradient=True).gradient
    if corruption is not None:
        analytic[corruption] += 1.0

    walks, ref, betas = _token_walks(batch, schedule, policy, reference)
    n_buckets, vocab = policy.logits.shape
    counts = np.zeros((len(walks), n_buckets * vocab))
    for row, (buckets, tokens) in zip(counts, walks):
        np.add.at(row, buckets * vocab + tokens, 1.0)
    # Probe p < V shifts logit p of the row by +epsilon; probe V + p by -epsilon.
    shifts = epsilon * np.concatenate((np.eye(vocab), -np.eye(vocab)))
    base = policy.log_softmax()
    tables = np.repeat(base[np.newaxis], 2 * vocab, axis=0)
    quads = np.empty((2 * vocab, len(batch), 4))
    quads[:, :, 1], quads[:, :, 3] = ref[0::2], ref[1::2]
    probe_betas = np.tile(betas, 2 * vocab)
    numeric = np.empty_like(analytic)
    for b in range(n_buckets):
        tables[:, b] = _log_softmax(policy.logits[b] + shifts)
        lp = tables.reshape(2 * vocab, -1) @ counts.T
        quads[:, :, 0], quads[:, :, 2] = lp[:, 0::2], lp[:, 1::2]
        terms = _mean_loss(quads.reshape(-1, 4), probe_betas, "no token pairs").terms
        losses = np.array(terms).reshape(2 * vocab, -1).mean(axis=1)
        numeric[b] = (losses[:vocab] - losses[vocab:]) / (2 * epsilon)
        tables[:, b] = base[b]

    with np.errstate(invalid="ignore"):
        rel = np.where(
            np.isfinite(analytic) & np.isfinite(numeric),
            np.abs(analytic - numeric)
            / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-4),
            np.inf,
        )
    b, v = np.unravel_index(np.argmax(rel), rel.shape)
    max_rel = float(rel[b, v])
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_coordinate=(int(b), int(v)),
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
