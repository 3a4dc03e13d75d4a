"""Trained predictors pinned to recorded output.

``tests/data/train_golden.json`` holds, for five small training runs on
fold 0 of the bundled fixture (``gamma=2``, stratified dev, seed 13), every
trained model's output on all 40 fixture questions plus its
``dev_accuracy``:

- ``bilstm_dev``: attention-BiLSTM predictors early-stopped on the fold's
  dev pairs;
- ``bilstm_split``: the same, with the dev slice held out of the training
  pairs internally;
- ``bilstm_lr0``: the same as ``bilstm_dev`` at learning rate 0;
- ``classifier``: the whole-structure softmax classifier (one probability
  vector per question);
- ``bow``: the bag-of-words logistic baseline.

Values are compared within 1e-10: a rewritten or batched training loop
must reproduce the same parameters up to floating-point reassociation.

Regenerate (only when training semantics change on purpose) with
``PYTHONPATH=src python -m tests.test_train_golden``.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import pytest

from kbqg.evaluation import Dataset, make_folds, split_fold
from kbqg.mining import mine
from kbqg.predictor import (
    TrainConfig,
    mention_spans_of,
    preprocess,
    train,
    train_structure_classifier,
)
from kbqg.toydata import build_dataset

GOLDEN = Path(__file__).parent / "data" / "train_golden.json"
GAMMA, SEED, FOLDS, FOLD = 2, 13, 5, 0
TOL = 1e-10
RUNS = ("bilstm_dev", "bilstm_split", "bilstm_lr0", "classifier", "bow")


def _cfg(**kw) -> TrainConfig:
    base = dict(d_e=8, d_h=8, learning_rate=1e-2, epochs=6, batch_size=8,
                patience=2, seed=SEED)
    base.update(kw)
    return TrainConfig(**base)


def _per_model(models, seqs) -> dict:
    return {key.canonical: {"dev_accuracy": model.dev_accuracy,
                            "probs": [model.predict_proba(s) for s in seqs]}
            for key, model in models.items()}


def compute() -> dict:
    pairs = Dataset("mini", build_dataset()).pairs
    assignments = make_folds(pairs, FOLDS, SEED)
    train_pairs, dev_pairs, _test = split_fold(pairs, assignments, FOLD, SEED,
                                               "stratified")
    catalog = mine(train_pairs, GAMMA)
    seqs = [preprocess(p.question, mention_spans_of(p)) for p in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        runs = {
            "bilstm_dev": _per_model(train(train_pairs, catalog, _cfg(), dev_pairs),
                                     seqs),
            "bilstm_split": _per_model(train(train_pairs, catalog, _cfg()), seqs),
            "bilstm_lr0": _per_model(train(train_pairs, catalog,
                                           _cfg(learning_rate=0.0), dev_pairs),
                                     seqs),
            "bow": _per_model(train(train_pairs, catalog, _cfg(), dev_pairs,
                                    predictor="bow"), seqs),
        }
        clf = train_structure_classifier(train_pairs, catalog, _cfg(), dev_pairs)
    runs["classifier"] = {
        "keys": [k.canonical for k in clf.keys],
        "dev_accuracy": clf.dev_accuracy,
        "probs": [[float(p) for p in clf.probabilities(s)] for s in seqs],
    }
    return {"gamma": GAMMA, "seed": SEED, "fold": FOLD,
            "questions": [p.qid for p in pairs], "runs": runs}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def computed():
    return compute()


def _close(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= TOL


def test_golden_covers_every_fixture_question_and_run(golden, computed):
    assert len(golden["questions"]) == 40
    assert computed["questions"] == golden["questions"]
    assert sorted(golden["runs"]) == sorted(RUNS)
    assert all(golden["runs"][r] for r in RUNS)


@pytest.mark.parametrize("run", [r for r in RUNS if r != "classifier"])
def test_per_substructure_models_match_golden(golden, computed, run):
    expected, got = golden["runs"][run], computed["runs"][run]
    assert sorted(got) == sorted(expected)
    for key, doc in expected.items():
        assert _close(got[key]["dev_accuracy"], doc["dev_accuracy"]), key
        for qi, (p, q) in enumerate(zip(got[key]["probs"], doc["probs"],
                                        strict=True)):
            assert _close(p, q), (key, qi, p, q)


def test_structure_classifier_matches_golden(golden, computed):
    expected, got = golden["runs"]["classifier"], computed["runs"]["classifier"]
    assert got["keys"] == expected["keys"]
    assert _close(got["dev_accuracy"], expected["dev_accuracy"])
    for qi, (row, exp_row) in enumerate(zip(got["probs"], expected["probs"],
                                            strict=True)):
        assert all(_close(p, q) for p, q in zip(row, exp_row, strict=True)), qi


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
