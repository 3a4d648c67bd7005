"""Loss numbers pinned to values recorded before the loss core was vectorised.

The token-level case has the shape of the benchmark's grad-check problem
(vocabulary 16, 16 buckets, batch 16, prompt 2 and responses 3 tokens long),
built inline from a seed. Its loss, margins and two gradient checksums were
recorded with the pure-Python loss and must hold to 1e-12.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from cogforge.cli import entrypoint
from cogforge.jsonl import read_rows, write_rows
from cogforge.loss import TokenPair, ToyPolicy, cogpo_token_loss
from cogforge.records import BetaSchedule, GapType

VOCAB = BUCKETS = BATCH = 16
PROMPT_LEN, RESPONSE_LEN = 2, 3
TOLERANCE = 1e-12
WEIGHTS = np.random.default_rng(0).normal(size=BUCKETS * VOCAB)

# loss-eval's loss over 200 seeded pairs
LOSS_EVAL_PIN = 0.940321624967764

# seed -> (loss, abs(g).sum(), g.ravel() @ WEIGHTS, margins)
PINS = {
    1: (0.6822558305386872, 0.7855641007565448, 0.03302069906787012, [
        0.5899781713395831, 0.45572031397321244, -0.16138533950454015, 1.1602307079712295,
        3.6342415453265153, 0.1363760933065512, 0.6777718903422372, -0.2715840247438203,
        0.3045146829006612, -0.7613883478424537, -0.5392836997813882, -0.8289915928426332,
        0.11410171200917496, 0.20629103608843488, -0.49877835543301324, -0.44285668152778257,
    ]),
    2: (0.7783451504705818, 0.6792579441467306, 0.008729210491725758, [
        0.20764121448571338, -0.4498430715557673, 0.13546824582132952, -0.3092069241964306,
        -0.3511904222280974, -0.3897537115365352, 0.3105012984765802, 0.07289374722351703,
        0.08445750319689581, 0.16532730484137428, 1.3628989049195637, 0.8798216536951662,
        -0.10397705721828548, 0.18858533896287177, -0.11082704796160564, -2.403001757486157,
    ]),
    3: (0.7240571052178097, 0.8389305720806577, -0.00022526529567225284, [
        -0.9290133331142668, -0.08583718697442198, 0.5513600747169978, -0.8776050877553896,
        0.9573747068308077, 0.1718024739929593, 0.16480523903690258, -1.1276852840910336,
        -0.5619014934918845, -0.7321181310868106, 0.02921425811801566, 2.344169127174845,
        0.43715504258078575, -0.03824610153579702, 1.2174608412117274, 0.2645932075585485,
    ]),
}


def make_case(seed: int):
    rng = np.random.default_rng(seed)
    policy = ToyPolicy(VOCAB, BUCKETS, rng=rng)
    reference = ToyPolicy(VOCAB, BUCKETS, rng=rng)
    gaps = list(GapType)

    def tokens(n: int) -> tuple[int, ...]:
        return tuple(int(t) for t in rng.integers(0, VOCAB, size=n))

    batch = [
        TokenPair(
            prompt=tokens(PROMPT_LEN), chosen=tokens(RESPONSE_LEN), rejected=tokens(RESPONSE_LEN),
            gap=gaps[int(rng.integers(len(gaps)))],
        )
        for _ in range(BATCH)
    ]
    return batch, policy, reference


@pytest.mark.parametrize("seed", sorted(PINS))
def test_token_loss_matches_pins(seed):
    loss, abs_sum, weighted, margins = PINS[seed]
    batch, policy, reference = make_case(seed)
    report = cogpo_token_loss(batch, BetaSchedule(), policy, reference, with_gradient=True)
    assert abs(report.loss - loss) < TOLERANCE
    assert np.abs(np.array(report.margins) - margins).max() < TOLERANCE
    assert abs(float(np.abs(report.gradient).sum()) - abs_sum) < TOLERANCE
    assert abs(float(report.gradient.ravel() @ WEIGHTS) - weighted) < TOLERANCE


def test_loss_eval_terms_average_to_loss(tmp_path, capsys):
    rng = np.random.default_rng(5)
    gaps = [gap.value for gap in GapType]
    ids = [f"p{i}" for i in range(200)]
    pairs_path, logprobs_path, output = (
        str(tmp_path / name) for name in ("pairs.jsonl", "logprobs.jsonl", "report.jsonl")
    )
    write_rows(pairs_path, [{"id": i, "gap": gaps[int(rng.integers(3))]} for i in ids])
    write_rows(logprobs_path, [
        dict(zip(("id", "lp_w_theta", "lp_w_ref", "lp_l_theta", "lp_l_ref"),
                 (i, *(float(v) for v in rng.normal(-3.0, 2.0, 4)))))
        for i in ids
    ])
    code = entrypoint([
        "loss-eval", "--pairs", pairs_path, "--logprobs", logprobs_path, "--output", output,
    ])
    assert code == 0
    loss = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["loss"]
    terms = [row["loss_term"] for row in read_rows(output, {}, key=None)]
    assert len(terms) == len(ids)
    assert abs(loss - LOSS_EVAL_PIN) < TOLERANCE
    assert abs(sum(terms) / len(terms) - loss) < TOLERANCE

