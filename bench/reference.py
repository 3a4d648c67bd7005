"""Reference model of the curation state machine, pair table and loss.

The benchmark checks the program's output files against predictions made
here from the generated inputs alone. Nothing in this module imports the
package under test; it restates the documented behaviour:

* critique: ``votes`` votes, each unparseable vote re-sampled once and then
  counted as an abstention; more than half abstaining discards the record; a
  strict majority wins, otherwise the rating is medium.
* verify: one re-sample on an unparseable verdict, then the record is
  discarded.
* rewrite (rethinker, corruptor): one re-sample on empty or unchanged
  output, then the record (or, for the corruptor, the corruption) fails.
* medium records are verified up to ``retry_cap`` times; easy and hard ones
  are rewritten, verified and re-rated against the same shared budget.
"""

from __future__ import annotations

import math

import numpy as np

ACCEPTED_MEDIUM = "accepted_medium"
ACCEPTED_REWRITTEN = "accepted_rewritten"
DISCARDED = "discarded"

BETA = {"small": 0.1, "medium": 0.2, "large": 0.5}


class _Discard(Exception):
    pass


def _keyword(text: str) -> str:
    stripped = text.strip()
    if stripped.endswith("."):
        stripped = stripped[:-1]
    return stripped.casefold()


class _Cursor:
    def __init__(self, script: dict[str, list[str]], rid: str) -> None:
        self.script = script
        self.rid = rid
        self.positions: dict[str, int] = {}
        self.calls = 0

    def next(self, agent: str) -> str:
        key = f"{agent}:{self.rid}"
        position = self.positions.get(key, 0)
        self.positions[key] = position + 1
        self.calls += 1
        return self.script[key][position]


def _critique(cursor: _Cursor, votes: int) -> tuple[str, list[str | None]]:
    cast: list[str | None] = []
    for _ in range(votes):
        vote = None
        for _attempt in range(2):
            word = _keyword(cursor.next("critic"))
            if word in ("easy", "medium", "hard"):
                vote = word
                break
        cast.append(vote)
    if sum(1 for vote in cast if vote is None) * 2 > votes:
        raise _Discard
    for level in ("easy", "medium", "hard"):
        if sum(1 for vote in cast if vote == level) * 2 > votes:
            return level, cast
    return "medium", cast


def _verify(cursor: _Cursor) -> bool:
    for _attempt in range(2):
        word = _keyword(cursor.next("verifier"))
        if word in ("yes", "no"):
            return word == "yes"
    raise _Discard


def _rewrite(cursor: _Cursor, agent: str, current: str) -> str:
    for _attempt in range(2):
        text = cursor.next(agent)
        if text and text != current:
            return text
    raise _Discard


def walk(record: dict, script: dict[str, list[str]], retry_cap: int = 3, votes: int = 3) -> dict:
    """Predict one record's outcome: status, attempts, final reasoning,
    rewrite_count, rating history, family and backend calls."""
    cursor = _Cursor(script, record["id"])
    original = record["reasoning"]
    history: list[dict] = []
    status = DISCARDED
    attempts = 0
    final = original
    rewrite_count = 0
    rewritten = None
    intake = None
    try:
        intake, cast = _critique(cursor, votes)
        history.append({"stage": "intake", "rating": intake, "votes": cast})
        if intake == "medium":
            for attempt in range(1, retry_cap + 1):
                attempts = attempt
                if _verify(cursor):
                    status = ACCEPTED_MEDIUM
                    break
        else:
            current = original
            for attempt in range(1, retry_cap + 1):
                attempts = attempt
                rewrite = _rewrite(cursor, "rethinker", current)
                if not _verify(cursor):
                    continue
                rating, cast = _critique(cursor, votes)
                history.append({"stage": f"re-rate-{attempt}", "rating": rating, "votes": cast})
                if rating == "medium":
                    status = ACCEPTED_REWRITTEN
                    final = rewrite
                    rewrite_count = attempt
                    rewritten = rewrite
                    break
                current = rewrite
    except _Discard:
        status = DISCARDED
    family = None
    if status != DISCARDED:
        try:
            corrupted = _rewrite(cursor, "corruptor", original)
        except _Discard:
            corrupted = None
        family = {
            "id": record["id"],
            "problem": record["problem"],
            "answer": record["answer"],
            "original_rating": intake,
            "r_original": original,
            "r_rewritten": rewritten,
            "r_corrupted": corrupted,
        }
    return {
        "id": record["id"],
        "status": status,
        "attempts": attempts,
        "reasoning": final,
        "rewrite_count": rewrite_count,
        "rating_history": history,
        "family": family,
        "calls": cursor.calls,
    }


def check_curation(
    dataset: list[dict], predictions: list[dict], curated: list[dict], discards: list[dict],
    families: list[dict],
) -> list[str]:
    """Compare the curated, discards and families files with the walk.

    Returns the list of mismatches (empty when every record agrees).
    """
    problems: list[str] = []
    accepted = [p for p in predictions if p["status"] != DISCARDED]
    dropped = [p for p in predictions if p["status"] == DISCARDED]
    if [row.get("id") for row in curated] != [p["id"] for p in accepted]:
        problems.append(f"curated ids differ from prediction ({len(curated)} vs {len(accepted)})")
    if [row.get("id") for row in discards] != [p["id"] for p in dropped]:
        problems.append(f"discard ids differ from prediction ({len(discards)} vs {len(dropped)})")
    if [row.get("id") for row in families] != [p["id"] for p in accepted]:
        problems.append("family ids differ from prediction")
    if problems:
        return problems
    by_id = {record["id"]: record for record in dataset}
    for row, want in zip(curated, accepted):
        source = "rewritten" if want["status"] == ACCEPTED_REWRITTEN else "original"
        record = by_id[want["id"]]
        expected = {
            "reasoning": want["reasoning"],
            "rewrite_count": want["rewrite_count"],
            "source": source,
            "verified": True,
            "rating_history": want["rating_history"],
            "problem": record["problem"],
            "answer": record["answer"],
        }
        for field, value in expected.items():
            if row.get(field) != value:
                problems.append(f"{want['id']}: curated {field} differs from prediction")
    for row, want in zip(discards, dropped):
        if row.get("attempts") != want["attempts"]:
            problems.append(f"{want['id']}: discard attempts {row.get('attempts')} != {want['attempts']}")
    for row, want in zip(families, accepted):
        if row != want["family"]:
            problems.append(f"{want['id']}: family differs from prediction")
    return problems[:20]


def expected_pairs(families: list[dict]) -> list[dict]:
    """The pair table: (chosen, rejected, gap) by the family's intake rating."""
    pairs = []
    for family in families:
        if family["original_rating"] == "medium":
            candidates = [("large", family["r_original"], family["r_corrupted"], "large")]
        else:
            candidates = [
                ("small", family["r_rewritten"], family["r_original"], "small"),
                ("medium", family["r_original"], family["r_corrupted"], "medium"),
                ("large", family["r_rewritten"], family["r_corrupted"], "large"),
            ]
        for label, chosen, rejected, gap in candidates:
            if chosen is None or rejected is None or chosen == rejected:
                continue
            pairs.append({
                "id": f"{family['id']}:{label}",
                "prompt": family["problem"],
                "chosen": chosen,
                "rejected": rejected,
                "gap": gap,
                "beta": BETA[gap],
            })
    return pairs


def loss_reference(pairs: list[dict], logprobs: list[dict]) -> tuple[float, np.ndarray]:
    """Mean softplus(-margin) recomputed with numpy from the generated
    log-probs; returns (loss, margins in pair order)."""
    by_id = {row["id"]: row for row in logprobs}
    quads = np.array(
        [
            [by_id[p["id"]][k] for k in ("lp_w_theta", "lp_w_ref", "lp_l_theta", "lp_l_ref")]
            for p in pairs
        ],
        dtype=np.float64,
    ).reshape(-1, 4)
    betas = np.array([BETA[p["gap"]] for p in pairs], dtype=np.float64)
    margins = betas * ((quads[:, 0] - quads[:, 1]) - (quads[:, 2] - quads[:, 3]))
    return float(np.mean(np.logaddexp(0.0, -margins))), margins


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)
