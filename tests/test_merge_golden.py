"""Merged (key, score) lists pinned to recorded output.

``tests/data/merge_golden.json`` holds, for every question of the bundled
fixture, the merged structures that ``merge_substructures`` returns
under the acceptance suite's oracle split (``gamma=2``, stratified dev,
seed 13, five folds) with the default ``MergeConfig``: each structure's
canonical key and score, in rank order. A second section holds the
fold-0 questions under deterministic soft probabilities, so that scores
strictly between 0 and 1 are pinned too.

Scores are compared with ``==``: a faster merger must return exactly the
same structures with bit-identical scores.

Regenerate (only when the merge semantics change on purpose) with
``PYTHONPATH=src python -m tests.test_merge_golden``.
"""

from __future__ import annotations

import json
import re
import zlib
from collections import Counter
from pathlib import Path

import pytest

from kbqg.evaluation import Dataset, make_folds, split_fold
from kbqg.merging import ROUND_COUNTS, MergeConfig, merge_substructures
from kbqg.mining import contained_frequent_keys, mine
from kbqg.toydata import build_dataset

GOLDEN = Path(__file__).parent / "data" / "merge_golden.json"
GAMMA, SEED, FOLDS = 2, 13, 5


def soft_probs(pattern, catalog, qid: str) -> dict:
    """Confident but imperfect predictions: within 0.03 of the oracle's
    0/1, except about one substructure in seventeen, which sits in
    [0.3, 0.7]."""
    probs = {}
    for key in catalog.substructures:
        u = zlib.crc32(f"{qid}|{key.canonical}".encode()) / 2 ** 32
        if u < 0.06:
            probs[key] = 0.3 + 0.4 * (u / 0.06)
        else:
            w = (u - 0.06) / 0.94
            probs[key] = 1.0 - 0.03 * w if key in pattern else 0.03 * w
    return probs


def _merged(probs, catalog) -> list[list]:
    return [[s.key.canonical, s.score]
            for s in merge_substructures(probs, catalog, MergeConfig())]


def fold_catalogs():
    pairs = Dataset("mini", build_dataset()).pairs
    assignments = make_folds(pairs, FOLDS, SEED)
    for fold in range(FOLDS):
        train_pairs, _dev, test_pairs = split_fold(pairs, assignments, fold,
                                                   SEED, "stratified")
        yield fold, mine(train_pairs, GAMMA), test_pairs


def compute() -> dict:
    oracle: dict[str, dict] = {}
    soft: dict[str, list] = {}
    for fold, catalog, test_pairs in fold_catalogs():
        per_q = {}
        for pair in test_pairs:
            pattern = contained_frequent_keys(pair.query, catalog)
            probs = {k: float(k in pattern) for k in catalog.substructures}
            per_q[pair.qid] = _merged(probs, catalog)
            if fold == 0:
                soft[pair.qid] = _merged(soft_probs(pattern, catalog, pair.qid), catalog)
        oracle[str(fold)] = per_q
    return {"gamma": GAMMA, "seed": SEED, "folds": FOLDS,
            "oracle": oracle, "soft_fold0": soft}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def computed():
    return compute()


def test_golden_covers_every_fixture_question(golden):
    qids = [q for per_q in golden["oracle"].values() for q in per_q]
    assert len(qids) == len(set(qids)) == 40
    assert len(golden["soft_fold0"]) == 8


def test_oracle_merges_match_golden_exactly(golden, computed):
    for fold, per_q in golden["oracle"].items():
        for qid, expected in per_q.items():
            assert computed["oracle"][fold][qid] == expected, (fold, qid)


def test_soft_merges_match_golden_exactly(golden, computed):
    for qid, expected in golden["soft_fold0"].items():
        assert computed["soft_fold0"][qid] == expected, qid


def test_fold0_oracle_round_counts():
    """The score bound saves keying and scoring, not enumeration: over
    rounds 1-2 of the fold-0 questions, ``generated`` and
    ``failed_restrictions`` count every unification considered."""
    _fold, catalog, test_pairs = next(fold_catalogs())
    totals = Counter()
    for pair in test_pairs:
        pattern = contained_frequent_keys(pair.query, catalog)
        probs = {k: float(k in pattern) for k in catalog.substructures}
        rounds = []
        merge_substructures(probs, catalog, MergeConfig(), rounds_out=rounds)
        for r in rounds[1:]:
            decided = sum(r[name] for name in ROUND_COUNTS if name != "generated")
            assert r["generated"] == decided + len(r["members"]), (pair.qid, r["round"])
            totals.update({name: r[name] for name in ROUND_COUNTS})
    assert (totals["generated"], totals["failed_restrictions"]) == (113_858, 99_752)
    assert totals["cut_by_bound"] > 0


def dump(doc: dict) -> str:
    """JSON with one [key, score] pair per line."""
    text = json.dumps(doc, indent=1)
    return re.sub(r"\[\s*(\"[^\"]*\"),\s*([^\s\]]+)\s*\]", r"[\1, \2]", text) + "\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(dump(compute()), encoding="utf-8")
    print(f"wrote {GOLDEN}")
