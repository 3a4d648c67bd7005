"""Preference-loss numerics: margins, the gap-weighted objective, a miniature
differentiable policy, and finite-difference gradient verification.

Every loss goes through one numpy core, ``_mean_loss``, over arrays of
log-prob quads and betas. It computes each pair's term as softplus(-margin)
rather than the literal -log(sigmoid(margin)); the two are identical
mathematically and the softplus form neither overflows nor loses the tail for
margins out to +/-1e4. The core returns arrays; ``LossReport`` holds the
loss, margins and terms as a float and lists.

At token level each response is walked once per policy shape into a row of
step counts: how often it takes each (bucket, token) cell of the B x V logit
table. A response's log-prob is its count row dotted with the log-softmax
table, and the analytic gradient of the token-level loss is one product of
the per-response coefficients with the count matrix.

``grad_check`` verifies that gradient against central finite differences.
Each probe is the whole loss at logits shifted by +/-epsilon in one
coordinate, taken through the same core and never through gradient code. A
probe of row b changes only that row's log-softmax, so every probe's
log-probs come from one batched product of the B x 2V probed-minus-base rows
with each response's counts in its row b. It moves only the pairs with a step
in row b: their quads go through the core in one call, and every other pair
keeps its term from the base pass. A NaN or infinite gradient coordinate
fails the check.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import itemgetter

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


@dataclass
class LossReport:
    loss: float
    margins: list[float]
    terms: list[float]
    gradient: np.ndarray | None = None


def _rows(quads: Iterable[LogProbQuad]) -> np.ndarray:
    """The quads as the core's rows, one per quad. numpy reads a list of
    named tuples several times slower than plain floats, since a tuple
    subclass misses its fast path, so ``struct`` packs the quads' values into
    one buffer of doubles and numpy shapes that. A value that is not a number,
    such as a string, is refused with a ``TypeError``, never converted; quads
    of unequal lengths are refused here, since a flat buffer would hide
    them."""
    quads = list(quads)
    if not quads:
        return np.empty((0, 4))
    widths = set(map(len, quads))
    if len(widths) > 1:
        raise ValueError(f"quads of {sorted(widths)} values in one batch; need 4 values per row")
    try:
        packed = struct.pack(f"{len(quads) * widths.pop()}d", *chain.from_iterable(quads))
    except struct.error as exc:
        raise TypeError(f"a quad holds a value that is not a number: {exc}") from exc
    return np.frombuffer(packed).reshape(len(quads), -1)


def _mean_loss(
    quads: np.ndarray, betas: Sequence[float], empty: str
) -> tuple[np.ndarray, np.ndarray]:
    """The loss core, over rows of (lp_w_theta, lp_w_ref, lp_l_theta,
    lp_l_ref) with one beta per row: each row's margin and its term
    softplus(-margin). A batch's loss is the mean of its terms."""
    betas = np.asarray(betas, dtype=float)
    if betas.shape != (len(quads),):
        raise ValueError(f"{betas.size} betas for {len(quads)} rows; need one beta per row")
    if len(quads) == 0:
        raise EmptyBatch(empty)
    if quads.ndim != 2 or quads.shape[1] != 4:
        raise ValueError(f"log-prob rows of shape {quads.shape}; need 4 values per row")
    if not np.all(betas > 0):
        raise ValueError(f"beta must be positive, got {betas[~(betas > 0)][0]}")
    if not np.isfinite(quads).all():
        finite = np.isfinite(quads).all(axis=1)
        raise NonFinite(f"non-finite log-probability in {quads[~finite][0].tolist()}")
    margins = betas * ((quads[:, 0] - quads[:, 1]) - (quads[:, 2] - quads[:, 3]))
    return margins, np.logaddexp(0.0, -margins)


def _report(margins: np.ndarray, terms: np.ndarray) -> LossReport:
    return LossReport(loss=float(terms.mean()), margins=margins.tolist(), terms=terms.tolist())


def dpo_loss(quads: list[LogProbQuad], beta: float) -> LossReport:
    """Mean softplus(-margin) at a single preference strength."""
    return _report(*_mean_loss(_rows(quads), [beta] * len(quads), "no quads"))


def cogpo_loss(pairs: list[tuple[LogProbQuad, GapType]], schedule: BetaSchedule) -> LossReport:
    """Mean softplus(-margin) with each pair's beta resolved by its gap."""
    beta_of = {gap: assign_beta(gap, schedule) for gap in GapType}
    betas = [beta_of[gap] for _, gap in pairs]
    return _report(*_mean_loss(_rows(q for q, _ in pairs), betas, "no pairs"))


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
    """Log-softmax along the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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

    def snapshot(self) -> ToyPolicy:
        """Immutable-by-convention copy, used as the frozen reference."""
        return ToyPolicy(self.vocab_size, self.n_buckets, logits=self.logits)


def _step_counts(
    policy: ToyPolicy, sequences: Sequence[tuple[tuple[int, ...], tuple[int, ...]]]
) -> np.ndarray:
    """One row of B * V counts per (prompt, response): how often the
    response's steps take each (bucket, token) cell of the policy's table.
    Step i takes token ``response[i]`` in bucket ``bucket(prompt +
    response[:i])``. Each sequence is walked once: every prompt and response
    token's range is checked, and the hash is carried forward one token at a
    time. A token that is not an integer fails the range check or the hash
    with a TypeError, which is raised again naming the token."""
    vocab, width = policy.vocab_size, policy.n_buckets * policy.vocab_size
    cells = []
    for row, (prompt, response) in enumerate(sequences):
        h, start, tokens = _FNV_OFFSET, len(prompt), (*prompt, *response)
        try:
            for i, token in enumerate(tokens):
                if not 0 <= token < vocab:
                    raise TokenOutOfRange(f"token {token} outside vocabulary of size {vocab}")
                if i >= start:
                    cells.append(row * width + h % policy.n_buckets * vocab + token)
                h = _fnv1a(h, token)
        except TypeError:
            raise TypeError(f"token {token!r} is not an integer") from None
    counts = np.bincount(np.array(cells, dtype=np.intp), minlength=len(sequences) * width)
    return counts.reshape(len(sequences), width).astype(float)


def _logprobs(counts: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each count row's log-prob under a log-softmax table. Each row is summed
    on its own, so a response's log-prob does not depend on the rows around it."""
    return (counts * table.ravel()).sum(axis=1)


def sequence_logprob(
    policy: ToyPolicy, prompt: tuple[int, ...], response: tuple[int, ...]
) -> float:
    """Sum of per-step log-softmax probabilities of the response under the policy."""
    return float(_logprobs(_step_counts(policy, [(prompt, response)]), policy.log_softmax())[0])


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each response's step counts under the policy (a 2 * batch x B * V
    matrix, chosen then rejected for every pair) and log-prob under the
    reference, in the same order; and each pair's beta. Step counts depend
    only on the vocabulary size and the bucket count, so every response is
    walked once per shape: once when the reference has the policy's shape, as
    a snapshot does, and once under each policy otherwise."""
    sequences = [(p.prompt, response) for p in batch for response in (p.chosen, p.rejected)]
    ref_counts = _step_counts(reference, sequences)
    same_shape = (reference.vocab_size, reference.n_buckets) == (
        policy.vocab_size, policy.n_buckets)
    counts = ref_counts if same_shape else _step_counts(policy, sequences)
    ref = _logprobs(ref_counts, reference.log_softmax())
    betas = np.array([assign_beta(p.gap, schedule) for p in batch], dtype=float)
    return counts, ref, betas


def cogpo_token_loss(
    batch: list[TokenPair],
    schedule: BetaSchedule,
    policy: ToyPolicy,
    reference: ToyPolicy,
    with_gradient: bool = False,
    *,
    walks: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> LossReport:
    """Gap-weighted loss through the toy policy, optionally with the analytic
    gradient w.r.t. the policy logits (reference held fixed). ``walks`` is the
    batch's ``_token_walks`` when the caller has already taken them."""
    counts, ref, betas = walks if walks is not None else _token_walks(
        batch, schedule, policy, reference)
    table = policy.log_softmax()
    lp = _logprobs(counts, table)
    quads = np.column_stack((lp[0::2], ref[0::2], lp[1::2], ref[1::2]))
    margins, terms = _mean_loss(quads, betas, "no token pairs")
    report = _report(margins, terms)
    if with_gradient:
        # dLoss/dmargin = -sigmoid(-margin)/n; the margin is beta-linear in
        # the chosen log-prob and anti-linear in the rejected one. Each step
        # adds coef * (onehot(token) - softmax(bucket)) to its bucket's row,
        # so the gradient is g - rowsum(g) * softmax for g = coef @ counts.
        weight = np.exp(-np.logaddexp(0.0, margins)) * betas / len(batch)
        coef = np.column_stack((-weight, weight)).ravel()
        g = (coef @ counts).reshape(table.shape)
        report.gradient = g - g.sum(axis=1, keepdims=True) * np.exp(table)
    return report


# grad_check passes when every coordinate's relative error is below this.
GRAD_CHECK_TOLERANCE = 1e-4


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_coordinate: tuple[int, int]
    passed: bool


def grad_check(
    batch: list[TokenPair],
    schedule: BetaSchedule,
    policy: ToyPolicy,
    reference: ToyPolicy | None = None,
    epsilon: float = 1e-5,
    corruption: tuple[int, int] | None = None,
) -> GradCheckReport:
    """Compare the analytic gradient against central finite differences.

    Every response is walked once per shape, into the count matrix of
    ``_token_walks``; the analytic gradient is one ``cogpo_token_loss`` call
    over those walks. Each probe's loss is the whole objective at logits
    shifted by +/-epsilon in one coordinate, computed through the loss core
    and independently of the gradient code. Probe p of row b changes only row
    b of the log-softmax table, so a response's log-prob under it is its base
    log-prob plus (probed row - base row) dotted with the response's counts in
    row b. One batched product of the B x 2V x V row differences with the
    B x V x (2 * batch) count slices gives every probe's log-probs. A pair
    neither of whose responses steps in row b keeps its base log-probs under
    the row's probes, so its quad and term are the base pass's, taken from
    that pass's report; only the 2V quads of each (row, pair) that steps in
    the row go through the loss core, in one call. Each probe's loss is still
    the mean of all batch terms, in pair order. The extra memory is
    O(B * 2V * (V + batch)) floats: the row differences, the probed
    log-probs, the probe terms, and the quads with their margins and terms
    of the (row, pair) combinations that move.

    A coordinate whose analytic or numeric value is NaN or infinite has an
    infinite relative error, so the check fails with it as the worst
    coordinate: the first in row-major order of those with the largest error.

    ``corruption`` shifts one analytic coordinate by +1.0 as a negative
    control; the report must then fail on that coordinate. Failure is a report
    outcome, never an exception.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    reference = reference if reference is not None else policy.snapshot()
    walks = _token_walks(batch, schedule, policy, reference)
    report = cogpo_token_loss(batch, schedule, policy, reference, with_gradient=True, walks=walks)
    analytic = report.gradient
    if corruption is not None:
        analytic[corruption] += 1.0

    counts, ref, betas = walks
    n_buckets, vocab = policy.logits.shape
    base = policy.log_softmax()
    # Probe p < V of row b shifts logit (b, p) by +epsilon; probe V + p by -epsilon.
    shifts = epsilon * np.concatenate((np.eye(vocab), -np.eye(vocab)))
    delta = _log_softmax(policy.logits[:, np.newaxis] + shifts) - base[:, np.newaxis]
    by_row = np.ascontiguousarray(counts.reshape(len(counts), n_buckets, vocab).transpose(1, 2, 0))
    lp = _logprobs(counts, base) + np.matmul(delta, by_row)
    # Pair i moves under the probes of row b when either response steps in row b.
    steps = by_row.any(axis=1)
    rows, moved = np.nonzero(steps[:, 0::2] | steps[:, 1::2])
    terms = np.empty((n_buckets, 2 * vocab, len(batch)))
    terms[...] = report.terms
    if len(moved):
        quads = np.empty((len(moved), 2 * vocab, 4))
        quads[..., 0], quads[..., 2] = lp[rows, :, 2 * moved], lp[rows, :, 2 * moved + 1]
        quads[..., 1], quads[..., 3] = ref[2 * moved, np.newaxis], ref[2 * moved + 1, np.newaxis]
        probe_betas = np.repeat(betas[moved], 2 * vocab)
        _, moved_terms = _mean_loss(quads.reshape(-1, 4), probe_betas, "no token pairs")
        terms[rows, :, moved] = moved_terms.reshape(len(moved), 2 * vocab)
    losses = terms.mean(axis=2)
    numeric = (losses[:, :vocab] - losses[:, vocab:]) / (2 * epsilon)

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
        passed=max_rel < GRAD_CHECK_TOLERANCE,
    )


_quad_values = itemgetter(*LogProbQuad._fields)
_GAPS = {gap.value: gap for gap in GapType}


def join_quads(
    pair_rows: Iterable[dict], logprob_rows: Iterable[dict]
) -> list[tuple[str, LogProbQuad, GapType]]:
    """One-to-one join of pair rows with externally computed log-probs by id.

    The rows come checked by ``read_rows`` against ``PAIR_SCHEMA`` and
    ``LOGPROB_SCHEMA``, each with unique ids. The log-prob rows are drained
    first, down to four floats each; the pair rows are then consumed one at a
    time, and only their id and gap are kept. A pair id with no log-prob row,
    or a log-prob row left over, is a ``JoinError``.
    """
    by_id: dict[str, LogProbQuad] = {}
    for row in logprob_rows:
        w_theta, w_ref, l_theta, l_ref = quad = _quad_values(row)
        if not type(w_theta) is type(w_ref) is type(l_theta) is type(l_ref) is float:
            quad = map(float, quad)
        by_id[row["id"]] = LogProbQuad._make(quad)
    joined = []
    for pair_row in pair_rows:
        pair_id = pair_row["id"]
        quad = by_id.pop(pair_id, None)
        if quad is None:
            raise JoinError(f"no log-prob row for pair id {pair_id!r}")
        joined.append((pair_id, quad, _GAPS[pair_row["gap"]]))
    if by_id:
        leftover = sorted(by_id)
        raise JoinError(f"log-prob rows with no matching pair: {leftover[:5]}")
    return joined
