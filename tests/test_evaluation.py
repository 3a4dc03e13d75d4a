import json
import warnings
from fractions import Fraction

import pytest

from kbqg.evaluation import (
    Dataset,
    PipelineConfig,
    answer_f1,
    gold_candidates,
    is_complex,
    load_dataset,
    make_folds,
    run_pipeline,
    split_fold,
    symbol_pools,
    training_fraction_sweep,
)
from kbqg.kb import AnswerSet
from kbqg.mining import MAX_TRIPLES, mine
from kbqg.predictor import TrainConfig
from kbqg.sparql import parse_query
from kbqg.toydata import build_dataset, build_kb, data_dir

warnings.filterwarnings("ignore", category=UserWarning)


@pytest.fixture(scope="module")
def mini():
    return Dataset("mini", build_dataset())


@pytest.fixture(scope="module")
def kb():
    return build_kb()


def oracle_config(**kw):
    base = dict(gamma=2, setting="full", predictor="oracle", linking="gold",
                dev_policy="stratified", seed=13)
    base.update(kw)
    return PipelineConfig(**base)


def test_load_dataset_mini():
    ds = load_dataset(data_dir() / "mini_dataset.json")
    assert len(ds.pairs) == 40
    assert ds.skipped == 0
    assert all(p.mentions for p in ds.pairs)


def test_load_dataset_skips_unsupported(tmp_path):
    records = [
        {"question": "ok?", "sparql": "SELECT ?x WHERE { ?x :p :E }"},
        {"question": "union?", "sparql":
            "SELECT ?x WHERE { { ?x :p :E } UNION { ?x :q :E } }"},
        {"question": "broken", "sparql": "SELECT WHERE {"},
        # more triples than mining enumerates
        {"question": "chain?", "sparql": "SELECT ?x0 WHERE { %s }" % " . ".join(
            f"?x{i} :p ?x{i + 1}" for i in range(MAX_TRIPLES + 1))},
    ]
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    ds = load_dataset(path)
    assert len(ds.pairs) == 1
    assert ds.skipped == 3
    assert mine(ds.pairs, 0).structures


def test_answer_f1_cases():
    s = lambda *xs: AnswerSet(values=frozenset(xs))
    assert answer_f1(s("a", "b"), s("a", "b")) == 1.0
    assert answer_f1(s("a"), s("b")) == 0.0
    assert answer_f1(s("a", "b"), s("b", "c")) == pytest.approx(0.5)
    assert answer_f1(s(), s()) == 1.0
    assert answer_f1(s(), s("a")) == 0.0
    agg = lambda v: AnswerSet(aggregate=v, is_aggregate=True)
    assert answer_f1(agg(3), agg(3)) == 1.0
    assert answer_f1(agg(3), agg(Fraction(3, 1))) == 1.0
    assert answer_f1(agg(3), agg(4)) == 0.0
    assert answer_f1(agg(3), s("3")) == 0.0


def test_is_complex():
    assert not is_complex(parse_query("SELECT ?x WHERE { ?x :p :E }"))
    assert is_complex(parse_query("SELECT ?x WHERE { ?x :p :E . ?x :q ?y }"))
    assert is_complex(parse_query("SELECT (COUNT(?x) AS ?c) WHERE { ?x :p :E }"))


def test_fold_determinism(mini):
    f1 = make_folds(mini.pairs, 5, 13)
    f2 = make_folds(mini.pairs, 5, 13)
    assert f1 == f2
    f3 = make_folds(mini.pairs, 5, 14)
    assert f1 != f3
    all_idx = sorted(i for fold in f1 for i in fold)
    assert all_idx == list(range(len(mini.pairs)))
    tr, dev, te = split_fold(mini.pairs, f1, 0, 13, "stratified")
    tr2, dev2, te2 = split_fold(mini.pairs, f1, 0, 13, "stratified")
    assert [p.qid for p in tr] == [p.qid for p in tr2]
    assert len(tr) + len(dev) + len(te) == len(mini.pairs)


def test_gold_candidates_cover_gold_symbols(mini):
    pair = mini.pairs[0]
    kinds = {(c.kind, c.symbol) for c in gold_candidates(pair)}
    assert ("property", ":director") in kinds
    pools = symbol_pools(mini.pairs, build_kb())
    assert ":S_Kubrick" in pools["entity"]
    assert ":director" in pools["property"]
    assert ":S_Kubrick" in pools["entity_pools"]
    assert all(":Jaws" != s for s in pools["entity_pools"][":S_Kubrick"]
               if not build_kb().classes_of(s) & {":Person"})


def test_perfect_oracle_end_to_end(mini, kb):
    report = run_pipeline(mini, kb, oracle_config(), folds=[1])
    assert report.fold_reports[0].f1 == 1.0
    assert report.fold_reports[0].precision_at_1 == 1.0


def test_full_vs_merge_only_oracle(mini, kb):
    full = run_pipeline(mini, kb, oracle_config(), folds=[2])
    merge_only = run_pipeline(mini, kb, oracle_config(setting="merge-only"),
                              folds=[2])
    assert full.fold_reports[0].f1 >= merge_only.fold_reports[0].f1


def test_rank_w_sub_oracle_handles_seen_structures(mini, kb):
    report = run_pipeline(mini, kb, oracle_config(setting="rank-w-sub"), folds=[0])
    # every fold-0 test structure exists in training, so no merger needed
    assert report.fold_reports[0].f1 == 1.0


def test_rank_wo_sub_runs_end_to_end(mini, kb):
    cfg = PipelineConfig(gamma=2, setting="rank-wo-sub", predictor="bilstm",
                         linking="gold", dev_policy="stratified", seed=13,
                         train=TrainConfig(d_e=16, d_h=16, learning_rate=5e-3,
                                           epochs=30, batch_size=8,
                                           patience=100, seed=13))
    report = run_pipeline(mini, kb, cfg, folds=[0])
    assert report.fold_reports[0].f1 >= 0.5
    assert report.setting == "rank-wo-sub"


def test_training_fraction_trend_with_oracle(mini, kb):
    out = training_fraction_sweep(mini, kb, oracle_config(), [0.3, 1.0])
    lo = out[0.3].fold_reports[0].f1
    hi = out[1.0].fold_reports[0].f1
    assert hi >= lo


def test_gazetteer_linking_without_a_linker_is_an_error(mini, kb):
    config = oracle_config(linking="gazetteer")
    with pytest.raises(ValueError, match="gazetteer linking needs a linker"):
        run_pipeline(mini, kb, config, folds=[0])
    with pytest.raises(ValueError, match="gazetteer linking needs a linker"):
        training_fraction_sweep(mini, kb, config, [1.0])


@pytest.mark.parametrize("field, value", [
    ("gamma", -1), ("folds", 1), ("folds", 0), ("top_k", 0), ("distractors", -1),
])
def test_pipeline_config_rejects_out_of_range_settings(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineConfig(**{field: value})
    PipelineConfig(gamma=0, folds=2, top_k=1, distractors=0)


def test_same_seed_gives_identical_reports(mini, kb):
    r1 = run_pipeline(mini, kb, oracle_config(), folds=[1])
    r2 = run_pipeline(mini, kb, oracle_config(), folds=[1])
    assert r1.to_json() == r2.to_json()


def test_load_dataset_accepts_field_aliases(tmp_path):
    records = [{"corrected_question": "who directed Jaws?",
                "sparql_query": "SELECT ?p WHERE { :Jaws :director ?p }"}]
    path = tmp_path / "lcq.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    ds = load_dataset(path)
    assert len(ds.pairs) == 1
    assert ds.pairs[0].question == "who directed Jaws?"


def test_report_json_shape(mini, kb):
    report = run_pipeline(mini, kb, oracle_config(), folds=[0])
    doc = report.to_json()
    assert doc["setting"] == "full"
    assert len(doc["folds"]) == 1
    assert len(doc["folds"][0]["questions"]) == len(report.fold_reports[0].records)
    assert 0.0 <= doc["aggregate"]["f1_mean"] <= 1.0
    assert "±" in report.summary()
