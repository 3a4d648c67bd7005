"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of its ``random.Random``: the same seed
gives byte-identical inputs. Nothing is imported from the package under test
or from its test suite.

The curation inputs are a dataset plus a scripted-backend script keyed
``"<agent>:<record_id>"``. Each key holds the largest number of responses any
walk of the state machine can consume (retry_cap 3, votes 3), so no walk
exhausts its script; the walk each record takes is decided by the labels.
"""

from __future__ import annotations

import json
import random

RETRY_CAP = 3
VOTES = 3
# Upper bounds on script positions one record can consume: every critique
# round may re-sample each vote once, and there are at most 1 + RETRY_CAP
# rounds; every verify and every rewrite may re-sample once.
CRITIC_BUDGET = 2 * VOTES * (1 + RETRY_CAP)
VERIFIER_BUDGET = 2 * RETRY_CAP
RETHINKER_BUDGET = 2 * RETRY_CAP
CORRUPTOR_BUDGET = 2

LEVELS = ("easy", "medium", "hard")
INTAKE_MIX = (0.35, 0.35, 0.30)
# Surface variants the parsers must accept (trim, one trailing period, case).
LEVEL_SPELLINGS = {
    "easy": ("easy", "Easy", "EASY.", " easy\n"),
    "medium": ("medium", "Medium.", "MEDIUM", "medium\n"),
    "hard": ("hard", "Hard.", " HARD", "hard"),
}
VERDICT_SPELLINGS = {True: ("YES", "Yes.", "yes", " YES\n"), False: ("NO", "No.", "no", "NO\n")}
# Labels no parser accepts: they drive the re-sample and abstention paths.
BAD_LABELS = ("", "probably medium", "Easy-ish.", "I would say hard", "maybe", "N/A")
BAD_LABEL_RATE = 0.03
DEGENERATE_REWRITE_RATE = 0.03
# Per-record verifier YES rates; a record draws one, so some records pass
# on the first attempt and some exhaust the retry budget.
YES_RATES = (0.45, 0.7, 0.9)
# Trace-length classes in words: terse, balanced, long-winded.
TRACE_WORDS = ((12, 30), (40, 90), (110, 200))

_SYLLABLES = (
    "ka", "lo", "mi", "ter", "sun", "va", "re", "dor", "pli", "qua", "ne", "six",
    "ro", "tam", "bel", "fu", "gro", "hin", "jet", "zo",
)


class Texts:
    """Deterministic filler text assembled from a pool of sentences."""

    def __init__(self, rng: random.Random, pool_size: int = 600) -> None:
        words = sorted({
            rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES) + rng.choice(("", "s", "ed", "ing"))
            for _ in range(400)
        })
        self.sentences = []
        for _ in range(pool_size):
            n = rng.randint(6, 14)
            sentence = " ".join(rng.choice(words) for _ in range(n))
            self.sentences.append((sentence[0].upper() + sentence[1:] + ".", n))

    def text(self, rng: random.Random, words: int) -> str:
        parts = []
        count = 0
        while count < words:
            sentence, n = self.sentences[rng.randrange(len(self.sentences))]
            parts.append(sentence)
            count += n
        return " ".join(parts)


def _label(rng: random.Random, level: str) -> str:
    if rng.random() < BAD_LABEL_RATE:
        return rng.choice(BAD_LABELS)
    return rng.choice(LEVEL_SPELLINGS[level])


def _biased_level(rng: random.Random, favoured: str, p: float) -> str:
    if rng.random() < p:
        return favoured
    return rng.choice([level for level in LEVELS if level != favoured])


def stratified(rng: random.Random, values, weights, n: int) -> list:
    """``n`` draws whose class counts follow ``weights`` as closely as
    integers allow, in random order; the totals a workload depends on then
    vary little from seed to seed."""
    total = sum(weights)
    out = []
    for value, weight in zip(values, weights):
        out += [value] * int(n * weight / total)
    out += rng.choices(values, weights=weights, k=n - len(out))
    rng.shuffle(out)
    return out


def curation_inputs(
    rng: random.Random, n: int, rewrite_words: tuple[int, int] | None = None
) -> tuple[list[dict], dict[str, list[str]]]:
    """Return (dataset rows, script) for ``n`` records.

    ``rewrite_words`` fixes the length range of rethinker and corruptor
    outputs; by default it follows the record's own trace-length class.
    """
    texts = Texts(rng)
    dataset: list[dict] = []
    script: dict[str, list[str]] = {}
    intakes = stratified(rng, LEVELS, INTAKE_MIX, n)
    yes_rates = stratified(rng, YES_RATES, (1,) * len(YES_RATES), n)
    lengths = stratified(rng, TRACE_WORDS, (1,) * len(TRACE_WORDS), n)
    for index in range(n):
        rid = f"r{index:06d}"
        lo, hi = lengths[index]
        dataset.append({
            "id": rid,
            "problem": f"[{rid}] {texts.text(rng, rng.randint(8, 24))}",
            "answer": texts.text(rng, rng.randint(2, 6)),
            "reasoning": texts.text(rng, rng.randint(lo, hi)),
        })
        intake = intakes[index]
        # The first 2*VOTES critic positions serve the intake round (with
        # room for re-samples); later positions serve re-rates, which lean
        # towards medium so some rewrites are accepted.
        critic = [_label(rng, _biased_level(rng, intake, 0.85)) for _ in range(2 * VOTES)]
        critic += [
            _label(rng, _biased_level(rng, "medium", 0.6))
            for _ in range(CRITIC_BUDGET - 2 * VOTES)
        ]
        yes_rate = yes_rates[index]
        verifier = [
            rng.choice(BAD_LABELS) if rng.random() < BAD_LABEL_RATE
            else rng.choice(VERDICT_SPELLINGS[rng.random() < yes_rate])
            for _ in range(VERIFIER_BUDGET)
        ]
        rw_lo, rw_hi = rewrite_words or (lo, hi)

        def rewrites(tag: str, count: int) -> list[str]:
            return [
                "" if rng.random() < DEGENERATE_REWRITE_RATE
                else f"({tag} {rid} v{i}) {texts.text(rng, rng.randint(rw_lo, rw_hi))}"
                for i in range(count)
            ]

        script[f"critic:{rid}"] = critic
        script[f"verifier:{rid}"] = verifier
        script[f"rethinker:{rid}"] = rewrites("rewrite", RETHINKER_BUDGET)
        script[f"corruptor:{rid}"] = rewrites("corrupt", CORRUPTOR_BUDGET)
    return dataset, script


# Family mix for the preference workload: (rating, has rewrite, has
# corruption, weight). Medium families never carry a rewrite; a medium
# family without a corruption has no constructible pair and is skipped.
FAMILY_MIX = (
    ("medium", False, True, 0.28),
    ("medium", False, False, 0.02),
    ("easy", True, True, 0.32),
    ("easy", True, False, 0.03),
    ("hard", True, True, 0.32),
    ("hard", True, False, 0.03),
)


def families(rng: random.Random, n: int, trace_words: tuple[int, int] = (100, 200)) -> list[dict]:
    """Synthetic record families shaped like the ``curate`` families file."""
    texts = Texts(rng)
    kinds = stratified(rng, FAMILY_MIX, [entry[3] for entry in FAMILY_MIX], n)
    rows = []
    for index in range(n):
        fid = f"f{index:06d}"
        rating, has_rewrite, has_corruption, _ = kinds[index]

        def trace(tag: str) -> str:
            return f"({tag} {fid}) {texts.text(rng, rng.randint(*trace_words))}"

        rows.append({
            "id": fid,
            "problem": f"[{fid}] {texts.text(rng, rng.randint(8, 24))}",
            "answer": texts.text(rng, rng.randint(2, 6)),
            "original_rating": rating,
            "r_original": trace("original"),
            "r_rewritten": trace("rewritten") if has_rewrite else None,
            "r_corrupted": trace("corrupted") if has_corruption else None,
        })
    return rows


def logprobs(rng: random.Random, pair_ids: list[str]) -> list[dict]:
    """Four sequence log-probabilities per pair id, as an external scorer
    would produce them."""
    rows = []
    for pair_id in pair_ids:
        ref_w = rng.uniform(-120.0, -10.0)
        ref_l = rng.uniform(-120.0, -10.0)
        rows.append({
            "id": pair_id,
            "lp_w_theta": ref_w + rng.gauss(0.5, 3.0),
            "lp_w_ref": ref_w,
            "lp_l_theta": ref_l + rng.gauss(-0.5, 3.0),
            "lp_l_ref": ref_l,
        })
    return rows


def write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False))
            handle.write("\n")


def write_script(path: str, script: dict[str, list[str]]) -> None:
    write_jsonl(path, ({"key": key, "responses": values} for key, values in script.items()))
