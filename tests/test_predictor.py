import threading
import warnings

import numpy as np
import pytest

from kbqg import predictor
from kbqg.mining import TrainingPair, mine
from kbqg.predictor import (
    DegenerateLabelWarning,
    BowLogisticModel,
    ConstantModel,
    PredictorModel,
    TokenSequence,
    TrainConfig,
    load_models,
    predict_all,
    preprocess,
    save_models,
    train,
    train_structure_classifier,
)
from kbqg.sparql import parse_query
from kbqg.toydata import build_signal_corpus


def test_preprocess_replaces_mention_with_entity_token():
    q = "How many movies did Stanley Kubrick direct?"
    start = q.index("Stanley Kubrick")
    seq = preprocess(q, [(start, start + len("Stanley Kubrick"))])
    assert seq.tokens == ("how", "many", "movies", "did", "<entity>", "direct")


def test_preprocess_without_mentions():
    seq = preprocess("Who directed Jaws?")
    assert seq.tokens == ("who", "directed", "jaws")


def test_preprocess_adjacent_mentions():
    q = "AB CD fine"
    seq = preprocess(q, [(0, 2), (3, 5)])
    assert seq.tokens == ("<entity>", "<entity>", "fine")
    with pytest.raises(ValueError):
        preprocess(q, [(0, 3), (2, 5)])


def test_token_sequence_must_be_nonempty():
    with pytest.raises(ValueError):
        TokenSequence(())
    # all-punctuation questions degrade to <unk>
    assert preprocess("???").tokens == ("<unk>",)


def _keyword_corpus(n_pos=8, n_neg=8):
    pos_q = "how many gadgets did Acme Corp make?"
    neg_q = "who made the gadget for Acme Corp?"
    pos = parse_query("SELECT (COUNT(?g) AS ?c) WHERE { ?g :maker :Acme }")
    neg = parse_query("SELECT ?p WHERE { :Gadget :maker ?p }")
    pairs = []
    for i in range(n_pos):
        pairs.append(TrainingPair(pos_q, pos, (), f"p{i}"))
    for i in range(n_neg):
        pairs.append(TrainingPair(neg_q, neg, (), f"n{i}"))
    return pairs


def small_cfg(**kw):
    base = dict(d_e=8, d_h=8, learning_rate=1e-2, epochs=12, batch_size=4,
                patience=100, seed=7)
    base.update(kw)
    return TrainConfig(**base)


def test_train_learns_keyword_fixture_and_is_deterministic():
    pairs = _keyword_corpus()
    catalog = mine(pairs, 2)
    models1 = train(pairs, catalog, small_cfg())
    models2 = train(pairs, catalog, small_cfg())
    count_key = next(k for k in catalog.substructures if k.agg_count == 1
                     and k.triple_count == 1)
    seq_pos = preprocess("how many gadgets did Foo make?")
    seq_neg = preprocess("who made the gadget?")
    m = models1[count_key]
    assert m.predict_proba(seq_pos) > 0.8
    assert m.predict_proba(seq_neg) < 0.2
    # bit-identical reruns
    m2 = models2[count_key]
    for name in m.params:
        np.testing.assert_array_equal(m.params[name], m2.params[name])


def test_zero_learning_rate_leaves_parameters_at_init():
    pairs = _keyword_corpus(4, 4)
    catalog = mine(pairs, 2)
    cfg_zero = small_cfg(learning_rate=0.0, epochs=1)
    models = train(pairs, catalog, cfg_zero)
    import kbqg.nn as nn
    from kbqg.predictor import _model_seed

    key = next(iter(models))
    model = models[key]
    rng = _model_seed(cfg_zero.seed, key)
    init = nn.init_params(len(model.vocab), cfg_zero.d_e, cfg_zero.d_h, 1, rng)
    for name in init:
        np.testing.assert_array_equal(model.params[name], init[name])


def test_degenerate_label_set_falls_back_to_constant():
    # one structure only: every substructure is all-positive
    pairs = _keyword_corpus(6, 0)
    catalog = mine(pairs, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        models = train(pairs, catalog, small_cfg())
    assert any(issubclass(w.category, DegenerateLabelWarning) for w in caught)
    model = next(iter(models.values()))
    assert isinstance(model, ConstantModel)
    assert model.probability == 0.95  # prevalence 1.0 clamped


def test_predict_all_empty_and_full():
    assert predict_all({}, preprocess("anything")) == {}
    pairs = _keyword_corpus()
    catalog = mine(pairs, 2)
    models = train(pairs, catalog, small_cfg())
    probs = predict_all(models, preprocess("how many gadgets did Foo make?"))
    assert set(probs) == set(catalog.substructures)
    assert all(0.0 < p < 1.0 for p in probs.values())


def test_bow_baseline_same_interface():
    pairs = _keyword_corpus()
    catalog = mine(pairs, 2)
    models = train(pairs, catalog, small_cfg(), predictor="bow")
    for key, model in models.items():
        assert isinstance(model, BowLogisticModel)
        p, alpha = model.forward(preprocess("how many gadgets did Foo make?"))
        assert 0.0 < p < 1.0
        assert abs(alpha.sum() - 1.0) < 1e-9
    count_key = next(k for k in catalog.substructures if k.agg_count == 1
                     and k.triple_count == 1)
    assert models[count_key].predict_proba(
        preprocess("how many gadgets did Foo make?")) > 0.8


def test_model_save_load_roundtrip(tmp_path):
    pairs = _keyword_corpus()
    catalog = mine(pairs, 2)
    models = train(pairs, catalog, small_cfg())
    save_models(models, tmp_path / "models")
    loaded = load_models(tmp_path / "models")
    assert set(loaded) == set(models)
    seq = preprocess("how many gadgets did Acme make?")
    for key in models:
        a, b = models[key], loaded[key]
        assert a.predict_proba(seq) == pytest.approx(b.predict_proba(seq), abs=0.0)
        if isinstance(a, PredictorModel):
            for name in a.params:
                np.testing.assert_array_equal(a.params[name], b.params[name])


def test_training_order_independence():
    pairs = _keyword_corpus()
    catalog = mine(pairs, 2)
    cfg = small_cfg()
    models = train(pairs, catalog, cfg)
    # retraining a single substructure in isolation gives the same weights
    single = {k: catalog.substructures[k] for k in list(catalog.substructures)[:1]}
    from kbqg.mining import SubstructureCatalog
    catalog_single = SubstructureCatalog(catalog.gamma, catalog.structures, single)
    models_single = train(pairs, catalog_single, cfg)
    key = next(iter(single))
    for name in models[key].params:
        np.testing.assert_array_equal(models[key].params[name],
                                      models_single[key].params[name])


def test_signal_corpus_heldout_accuracy_small():
    pairs = build_signal_corpus(n=240, seed=5)
    train_pairs, test_pairs = pairs[:200], pairs[200:]
    catalog = mine(train_pairs, 20)
    cfg = TrainConfig(d_e=16, d_h=16, learning_rate=5e-3, epochs=15, batch_size=16,
                      patience=4, seed=3)
    models = train(train_pairs, catalog, cfg)
    from kbqg.mining import contained_frequent_keys
    from kbqg.predictor import mention_spans_of

    total = correct = 0
    for pair in test_pairs:
        seq = preprocess(pair.question, mention_spans_of(pair))
        pattern = contained_frequent_keys(pair.query, catalog)
        for key, p in predict_all(models, seq).items():
            total += 1
            correct += ((p >= 0.5) == (key in pattern))
    assert correct / total >= 0.9


def test_structure_classifier_ranks_gold_first():
    pairs = _keyword_corpus()
    catalog = mine(pairs, 2)
    clf = train_structure_classifier(pairs, catalog, small_cfg(epochs=20))
    from kbqg.canon import canonical_key

    ranked = clf.rank(preprocess("how many gadgets did Foo make?"), catalog)
    gold = canonical_key(pairs[0].query)
    assert ranked[0].key == gold
    probs = clf.probabilities(preprocess("who made the gadget?"))
    assert abs(probs.sum() - 1.0) < 1e-9


def _fold0():
    """``train``'s arguments on fixture fold 0, with early stopping that
    stops the models after different epochs."""
    from kbqg.evaluation import Dataset, make_folds, split_fold
    from kbqg.toydata import build_dataset

    pairs = Dataset("mini", build_dataset()).pairs
    train_pairs, dev_pairs, _test = split_fold(pairs, make_folds(pairs, 5, 13), 0, 13,
                                               "stratified")
    cfg = small_cfg(epochs=12, batch_size=8, patience=0, seed=13)
    return train_pairs, mine(train_pairs, 2), cfg, dev_pairs


def test_stacked_models_equal_models_fitted_alone_under_early_stopping(monkeypatch):
    import kbqg.nn as nn
    from kbqg.mining import SubstructureCatalog

    train_pairs, catalog, cfg, dev_pairs = _fold0()
    # one stack of every model, against each model alone
    monkeypatch.setattr(predictor, "_cpu_count", lambda: 1)
    stack_sizes = []
    stack_losses = nn.stack_losses

    def spy(cache, y):
        stack_sizes.append(len(y))
        return stack_losses(cache, y)

    monkeypatch.setattr(nn, "stack_losses", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stacked = train(train_pairs, catalog, cfg, dev_pairs)
        # one dev pass per epoch; models leave the stack after different epochs
        assert len(set(stack_sizes)) >= 3, stack_sizes
        assert stack_sizes[0] == sum(isinstance(m, PredictorModel) for m in stacked.values())
        for key, model in stacked.items():
            single = SubstructureCatalog(catalog.gamma, catalog.structures,
                                         {key: catalog.substructures[key]})
            stack_sizes.clear()
            alone = train(train_pairs, single, cfg, dev_pairs)[key]
            assert type(alone) is type(model)
            if isinstance(model, PredictorModel):
                assert set(stack_sizes) == {1}
                assert alone.dev_accuracy == model.dev_accuracy
                # a step pads to the longest example among the stack's
                # minibatches, which moves sums by rounding only; the
                # tolerance is that of the training golden test
                for name in model.params:
                    np.testing.assert_allclose(model.params[name], alone.params[name],
                                               rtol=0, atol=1e-10, err_msg=name)


def _train_quietly(*args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateLabelWarning)
        return train(*args)


@pytest.fixture(scope="module")
def fold0_one_stack():
    """Fold-0 BiLSTMs under early stopping, fitted as one stack."""
    args = _fold0()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(predictor, "_cpu_count", lambda: 1)
        return args, _train_quietly(*args)


@pytest.mark.parametrize("cpus", [2, 3])
def test_shards_equal_one_stack(fold0_one_stack, monkeypatch, cpus):
    args, one_stack = fold0_one_stack
    monkeypatch.setattr(predictor, "_cpu_count", lambda: cpus)
    sharded = _train_quietly(*args)
    assert list(sharded) == list(one_stack)
    for key, model in one_stack.items():
        assert type(sharded[key]) is type(model)
        if isinstance(model, PredictorModel):
            assert sharded[key].dev_accuracy == model.dev_accuracy
            for name in model.params:
                np.testing.assert_allclose(sharded[key].params[name], model.params[name],
                                           rtol=0, atol=1e-10, err_msg=name)


def test_more_cpus_than_models_gives_one_shard_per_model(fold0_one_stack, monkeypatch):
    args, one_stack = fold0_one_stack
    n_bilstm = sum(isinstance(m, PredictorModel) for m in one_stack.values())
    assert n_bilstm >= 2
    shard_sizes = []
    fit = predictor._fit

    def spy(params, seqs, labels, *rest, **kw):
        shard_sizes.append(len(labels))
        return fit(params, seqs, labels, *rest, **kw)

    monkeypatch.setattr(predictor, "_cpu_count", lambda: n_bilstm + 5)
    monkeypatch.setattr(predictor, "_fit", spy)
    _train_quietly(*args)
    assert shard_sizes == [1] * n_bilstm


def test_an_error_in_one_shard_propagates_and_leaves_no_thread(fold0_one_stack,
                                                                monkeypatch):
    args, _one_stack = fold0_one_stack
    calls = []
    lock = threading.Lock()
    fit = predictor._fit

    def fail_all_but_the_first_shard(*a, **kw):
        with lock:
            calls.append(None)
            first = len(calls) == 1
        if not first:
            raise RuntimeError("shard failed")
        return fit(*a, **kw)

    monkeypatch.setattr(predictor, "_cpu_count", lambda: 3)
    monkeypatch.setattr(predictor, "_fit", fail_all_but_the_first_shard)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="shard failed"):
        _train_quietly(*args)
    assert len(calls) == 3
    assert threading.active_count() == before


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("epochs", -1), ("patience", -1),
    ("learning_rate", -1.0), ("learning_rate", float("nan")),
])
def test_train_config_rejects_values_training_cannot_use(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})
    TrainConfig(learning_rate=0.0, epochs=0, patience=0, batch_size=1)


def test_train_rejects_an_unknown_predictor_family():
    pairs = _keyword_corpus()
    with pytest.raises(ValueError, match="unknown predictor family 'oracle'"):
        train(pairs, mine(pairs, 2), small_cfg(), predictor="oracle")
