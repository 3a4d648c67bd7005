"""Run ``cogforge.loss.grad_check`` on a seeded toy problem and time it.

The problem has a fixed shape (vocabulary 16, 16 buckets, batch 16, fixed
sequence lengths), so its cost does not depend on the seed; the seed picks
the logits, tokens and gaps. ``--repeat R`` runs the check R times in this
process and times each call, so interpreter start and imports are not part
of the figure. Prints one JSON line: whether every call passed, the largest
relative error and each call's start and end in ``time.monotonic()``
seconds, which ``bench/run.py`` rescales with the speed probe.

Usage: python3 bench/gradcheck.py --seed N [--repeat R] [--control]

``--control`` corrupts one analytic coordinate; the check must then fail.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

VOCAB = 16
BUCKETS = 16
BATCH = 16
PROMPT_LEN, CHOSEN_LEN, REJECTED_LEN = 2, 3, 3
CONTROL_COORDINATE = (1, 2)


def make_case(seed: int):
    """Return (batch, schedule, policy, reference) for ``grad_check``."""
    import numpy as np

    from cogforge.loss import TokenPair, ToyPolicy
    from cogforge.records import BetaSchedule, GapType

    rng = np.random.default_rng(seed)
    policy = ToyPolicy(VOCAB, BUCKETS, rng=rng)
    reference = ToyPolicy(VOCAB, BUCKETS, rng=rng)
    gaps = list(GapType)

    def tokens(n: int) -> tuple[int, ...]:
        return tuple(int(t) for t in rng.integers(0, VOCAB, size=n))

    batch = [
        TokenPair(
            prompt=tokens(PROMPT_LEN), chosen=tokens(CHOSEN_LEN), rejected=tokens(REJECTED_LEN),
            gap=gaps[int(rng.integers(len(gaps)))],
        )
        for _ in range(BATCH)
    ]
    return batch, BetaSchedule(), policy, reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--control", action="store_true")
    args = parser.parse_args(argv)

    from cogforge.loss import grad_check

    batch, schedule, policy, reference = make_case(args.seed)
    intervals, reports = [], []
    for _ in range(args.repeat):
        started = time.monotonic()
        reports.append(grad_check(
            batch, schedule, policy, reference,
            corruption=CONTROL_COORDINATE if args.control else None,
        ))
        intervals.append((started, time.monotonic()))
    print(json.dumps({
        "passed": all(report.passed for report in reports),
        "max_rel_error": max(report.max_rel_error for report in reports),
        "intervals": intervals,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
