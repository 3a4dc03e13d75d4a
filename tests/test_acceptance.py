"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 1-8 and 10
are self-contained; criterion 9 (external-dataset evaluation) runs only
when the environment points at a real dataset and KB, and otherwise
records that the optional inputs were not supplied.
"""

import os
import random
import time
import warnings

import numpy as np
import pytest

from kbqg import nn
from kbqg.canon import canonical_key
from kbqg.evaluation import (
    Dataset,
    PipelineConfig,
    load_dataset,
    run_pipeline,
)
from kbqg.kb import KnowledgeBase, execute, load_kb
from kbqg.merging import MergeConfig, merge_substructures
from kbqg.mining import contained_frequent_keys, enumerate_substructures, mine
from kbqg.predictor import (
    TrainConfig,
    mention_spans_of,
    predict_all,
    preprocess,
    train,
)
from kbqg.ranking import score_containment
from kbqg.sparql import parse_query
from kbqg.toydata import build_dataset, build_kb, build_merge_corpus, build_signal_corpus

from .graphgen import random_graph, relabeled_copy
from .oracles import (
    oracle_execute_pattern,
    oracle_is_equivalent,
    oracle_substructure_classes,
)

warnings.filterwarnings("ignore", category=UserWarning)

TRAIN_CONFIG = TrainConfig(d_e=24, d_h=24, learning_rate=5e-3, epochs=60,
                           batch_size=8, patience=1000, seed=13)


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def mini_dataset():
    return Dataset("mini", build_dataset())


@pytest.fixture(scope="module")
def toy_kb():
    return build_kb()


def _config(**kw):
    base = dict(gamma=2, train=TRAIN_CONFIG, setting="full", predictor="bilstm",
                linking="gold", dev_policy="stratified", seed=13)
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def trained_clean_34(mini_dataset, toy_kb):
    return run_pipeline(mini_dataset, toy_kb, _config(), folds=[3, 4])


@pytest.fixture(scope="module")
def trained_noisy_34(mini_dataset, toy_kb):
    return run_pipeline(mini_dataset, toy_kb,
                        _config(distractors=4, distractor_factor=0.9),
                        folds=[3, 4])


def test_criterion_1_equivalence_matches_bruteforce_on_500_pairs():
    rng = random.Random(20240501)
    start = time.monotonic()
    agree = 0
    for trial in range(500):
        a = random_graph(rng, max_triples=5)
        if trial % 2 == 0:
            b = relabeled_copy(a, rng)
        else:
            b = random_graph(rng, max_triples=5)
        impl = canonical_key(a) == canonical_key(b)
        brute = oracle_is_equivalent(a, b)
        assert impl == brute, f"disagreement on pair {trial}"
        agree += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"500/500 pairs agree with brute-force bijection search "
               f"in {elapsed:.1f}s")


def test_criterion_2_substructure_enumeration_matches_subset_bruteforce():
    rng = random.Random(77)
    for trial in range(100):
        g = random_graph(rng, max_triples=5)
        impl = enumerate_substructures(g)
        oracle = oracle_substructure_classes(g)
        assert len(impl) == len(oracle), f"count mismatch on graph {trial}"
        for rep in oracle:
            hits = [k for k, r in impl.items() if oracle_is_equivalent(rep, r)]
            assert len(hits) == 1, f"class mismatch on graph {trial}"
    _report(2, "100/100 graphs match brute-force connected-subset enumeration")


def test_criterion_3_ideal_condition_scores_exact(mini_dataset):
    catalog = mine(mini_dataset.pairs, 2)
    checked = 0
    for key, entry in catalog.structures.items():
        pattern = catalog.containment[key]
        probs = {k: (1.0 if k in pattern else 0.0) for k in catalog.substructures}
        gold_score = score_containment(pattern, probs, catalog)
        assert gold_score == 1.0
        for other in catalog.structures:
            if catalog.containment[other] != pattern:
                other_score = score_containment(catalog.containment[other],
                                                probs, catalog)
                assert other_score == 0.0
                checked += 1
    _report(3, f"gold structures score exactly 1.0; {checked} "
               f"different-pattern scores are exactly 0.0")


def test_criterion_4_planted_merge_soundness():
    pairs, gold = build_merge_corpus()
    catalog = mine(pairs, 10)
    gold_key = canonical_key(gold)
    assert gold_key not in catalog.structures
    pattern = contained_frequent_keys(gold, catalog)
    probs = {k: (1.0 if k in pattern else 0.0) for k in catalog.substructures}
    cfg = MergeConfig(k_max=2, theta=0.3, tau=5, delta=2)
    out = merge_substructures(probs, catalog, cfg)
    keys = {s.key for s in out}
    assert gold_key in keys, "gold unseen structure not produced"
    for s in out:
        assert s.representative.is_connected()
        assert s.representative.triple_count <= 5
        assert s.representative.aggregation_count <= 2
    _report(4, f"gold unseen structure produced; all {len(out)} outputs "
               f"connected, <=5 triples, <=2 aggregations")


def test_criterion_5_gradients_and_attention():
    rng = np.random.default_rng(4242)
    params = nn.init_params(vocab_size=9, d_e=4, d_h=4, n_out=1, rng=rng)
    ids = [1, 5, 2, 7, 0]
    eps = 1e-4
    for y in (0.0, 1.0):
        cache = nn.forward(params, ids, 4)
        grads = nn.backward(params, cache, y)
        for name, p in params.items():
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = p[idx]
                p[idx] = old + eps
                lp = nn.loss_from_cache(nn.forward(params, ids, 4), y)
                p[idx] = old - eps
                lm = nn.loss_from_cache(nn.forward(params, ids, 4), y)
                p[idx] = old
                num = (lp - lm) / (2 * eps)
                an = grads[name][idx]
                rel = abs(num - an) / max(abs(num) + abs(an), 1e-6)
                assert rel <= 1e-3, f"{name}[{idx}] rel={rel:.2e}"
    check_rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        length = int(check_rng.integers(1, 10))
        seq = check_rng.integers(0, 9, size=length)
        alpha = nn.forward(params, seq, 4)["alpha"]
        worst = max(worst, abs(alpha.sum() - 1.0))
        assert abs(alpha.sum() - 1.0) <= 1e-6
    _report(5, f"all parameter gradients within 1e-3 of central differences; "
               f"attention sums within {worst:.1e} of 1 on 1000 inputs")


def test_criterion_6_planted_signal_learning():
    pairs = build_signal_corpus(2000, seed=5)
    train_pairs, test_pairs = pairs[:1600], pairs[1600:]
    catalog = mine(train_pairs, 150)
    # the signal is separable, so 6 epochs (well within the 50 allowed)
    # converge; early stopping never fires on separable data because the
    # dev loss keeps shrinking
    cfg = TrainConfig(d_e=16, d_h=16, learning_rate=1e-2, epochs=6,
                      batch_size=32, patience=50, seed=11)
    start = time.monotonic()
    models = train(train_pairs, catalog, cfg)
    elapsed = time.monotonic() - start
    hits = {k: [0, 0] for k in models}
    for pair in test_pairs:
        seq = preprocess(pair.question, mention_spans_of(pair))
        pattern = contained_frequent_keys(pair.query, catalog)
        for k, p in predict_all(models, seq).items():
            hits[k][0] += ((p >= 0.5) == (k in pattern))
            hits[k][1] += 1
    accuracies = {k: h / t for k, (h, t) in hits.items()}
    worst = min(accuracies.values())
    assert worst >= 0.95, f"worst held-out accuracy {worst:.3f}"
    assert elapsed < 300.0, f"training took {elapsed:.0f}s"
    _report(6, f"{len(models)} predictors trained in {elapsed:.0f}s; "
               f"worst held-out accuracy {worst:.3f}")


def test_criterion_7_end_to_end(mini_dataset, toy_kb, trained_clean_34):
    oracle_report = run_pipeline(mini_dataset, toy_kb, _config(predictor="oracle"))
    f1_mean, _ = oracle_report.f1
    assert f1_mean == 1.0, oracle_report.summary()
    trained_f1, _ = trained_clean_34.f1
    assert trained_f1 >= 0.85, trained_clean_34.summary()
    _report(7, f"oracle predictors: F1=1.000 over 5 folds; trained "
               f"predictors: F1={trained_f1:.3f}")


def test_criterion_8_noisy_linking_gap(trained_clean_34, trained_noisy_34):
    p1_clean, _ = trained_clean_34.precision_at_1
    p5_clean, _ = trained_clean_34.precision_at_5
    p1_noisy, _ = trained_noisy_34.precision_at_1
    p5_noisy, _ = trained_noisy_34.precision_at_5
    d1 = p1_clean - p1_noisy
    d5 = p5_clean - p5_noisy
    print(f"\n  clean: P@1={p1_clean:.3f} P@5={p5_clean:.3f}")
    print(f"  noisy: P@1={p1_noisy:.3f} P@5={p5_noisy:.3f}")
    assert d1 > d5, f"P@1 drop {d1:.3f} not greater than P@5 drop {d5:.3f}"
    _report(8, f"4 distractors at 0.9x degrade P@1 by {d1:.3f} vs "
               f"P@5 by {d5:.3f}")


def test_criterion_9_external_dataset_is_optional(tmp_path):
    dataset_path = os.environ.get("KBQG_DATASET")
    kb_path = os.environ.get("KBQG_KB")
    if not dataset_path or not kb_path:
        _report(9, "external dataset/KB not supplied; bundled suites 1-8 "
                   "are the binding acceptance bar")
        return
    dataset = load_dataset(dataset_path)
    kb = load_kb(kb_path, os.environ.get("KBQG_SCHEMA"))
    config = PipelineConfig(gamma=30, predictor="bow", linking="gold")
    report = run_pipeline(dataset, kb, config, folds=[0])
    out = tmp_path / "external_report.json"
    import json

    with open(out, "w", encoding="utf-8") as f:
        json.dump(report.to_json(), f)
    _report(9, f"external evaluation completed: {report.summary()}")


def test_criterion_10_executor_against_nested_loop_oracle():
    rng = random.Random(31337)
    instances = 0
    attempts = 0
    while instances < 200 and attempts < 1200:
        attempts += 1
        symbols = [f":s{i}" for i in range(rng.randint(6, 14))]
        n_facts = rng.randint(20, 1000)
        facts = [(rng.choice(symbols), f":p{rng.randint(0, 3)}", rng.choice(symbols))
                 for _ in range(n_facts)]
        facts += [(s, "a", f":C{rng.randint(0, 1)}") for s in symbols[: len(symbols) // 2]]
        kb = KnowledgeBase()
        for fact in facts:
            kb.add_fact(*fact)
        g = random_graph(rng, max_triples=3)
        if g.aggregation_count or g.target is None:
            continue
        from kbqg.graph import LITERAL, Vertex, build_graph

        verts = []
        for v in g.vertices:
            if v.kind == "entity" or v.kind == LITERAL:
                verts.append(Vertex(v.id, v.kind, rng.choice(symbols)))
            elif v.kind == "class":
                verts.append(Vertex(v.id, v.kind, f":C{rng.randint(0, 1)}"))
            else:
                verts.append(v)
        g = build_graph(verts, g.triples, g.target)
        from kbqg.kb import UnboundTargetError

        try:
            got = execute(g, kb).values
        except UnboundTargetError:
            continue
        assert got == frozenset(oracle_execute_pattern(g, facts))
        instances += 1
    assert instances == 200

    # hand-built aggregate fixtures
    kb = KnowledgeBase()
    for film, runtime in ((":a", "146"), (":b", "185"), (":c", "149")):
        kb.add_fact(film, ":runtime", runtime)
        kb.add_fact(film, ":director", ":K")
        kb.add_fact(film, "a", ":Film")
    count_q = parse_query("SELECT (COUNT(?f) AS ?c) WHERE "
                          "{ ?f rdf:type :Film . ?f :director :K }")
    assert execute(count_q, kb).aggregate == 3
    second = parse_query("SELECT ?r WHERE { ?f :runtime ?r } "
                         "ORDER BY DESC(?r) LIMIT 1 OFFSET 1")
    assert execute(second, kb).values == frozenset({"149"})
    _report(10, "200 random instances match the nested-loop join oracle; "
                "COUNT and offset-1 selection fixtures verified")
