import json
import warnings

import pytest

from kbqg import canon
from kbqg.canon import canonical_key
from kbqg.evaluation import gold_candidates
from kbqg.kb import execute
from kbqg.merging import MergeConfig
from kbqg.mining import contained_frequent_keys, mine
from kbqg.pipeline import (
    ModelCatalogMismatchError,
    QueryGenerator,
    combine_rankings,
)
from kbqg.predictor import TrainConfig, load_models, save_models, train
from kbqg.ranking import EXISTING, MERGED, ScoredStructure
from kbqg.sparql import parse_query
from kbqg.toydata import build_dataset, build_kb

warnings.filterwarnings("ignore", category=UserWarning)


def test_combine_rankings_prefers_existing_on_duplicate_keys():
    g = parse_query("SELECT ?x WHERE { ?x :p :E }")
    key = canonical_key(g)
    existing = [ScoredStructure(key, g, 0.5, EXISTING, 7)]
    merged = [ScoredStructure(key, g, 0.5, MERGED, 0)]
    combined = combine_rankings(existing, merged)
    assert len(combined) == 1
    assert combined[0].provenance == EXISTING
    assert combined[0].train_count == 7


def test_generator_validates_setting():
    pairs = build_dataset()
    catalog = mine(pairs, 2)
    kb = build_kb()
    with pytest.raises(ValueError):
        QueryGenerator(catalog, {}, kb, setting="bogus")
    with pytest.raises(ValueError):
        QueryGenerator(catalog, {}, kb, setting="rank-wo-sub")


def test_generator_rejects_models_missing_from_a_saved_models_dir(tmp_path):
    pairs = build_dataset()
    catalog = mine(pairs, 2)
    kb = build_kb()
    cfg = TrainConfig()
    save_models(train(pairs, catalog, cfg, predictor="bow"), tmp_path, cfg)
    QueryGenerator(catalog, load_models(tmp_path), kb)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    dropped = manifest["models"].pop(3)
    (tmp_path / dropped["file"]).unlink()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    models = load_models(tmp_path)
    missing = next(k for k in catalog.substructures if k not in models)
    with pytest.raises(ModelCatalogMismatchError, match="missing") as err:
        QueryGenerator(catalog, models, kb)
    assert repr(missing.canonical) in str(err.value)
    assert "extra []" in str(err.value)


@pytest.fixture(scope="module")
def oracle_generator():
    pairs = build_dataset()
    catalog = mine(pairs, 2)
    return pairs, QueryGenerator(catalog, {}, build_kb(), MergeConfig(),
                                 setting="full")


def test_generate_trace_with_oracle_probs(oracle_generator):
    pairs, generator = oracle_generator
    pair = next(p for p in pairs if p.qid == "s4-0")
    pattern = contained_frequent_keys(pair.query, generator.catalog)
    probs = {k: (1.0 if k in pattern else 0.0)
             for k in generator.catalog.substructures}
    trace = generator.generate(pair.question,
                               [(m.start, m.end) for m in pair.mentions],
                               gold_candidates(pair), probs_override=probs)
    assert trace.error is None
    assert trace.results
    top = trace.results[0]
    assert top.structure_rank == 0
    answer = execute(top.query, generator.kb)
    assert answer == execute(pair.query, generator.kb)
    # the trace records ranked structures and probabilities for inspection
    assert trace.ranked[0].score == 1.0
    assert trace.top_probabilities(2)[0][1] == 1.0


def test_generate_reports_error_when_nothing_grounds(oracle_generator):
    pairs, generator = oracle_generator
    pair = pairs[0]
    probs = {k: 0.5 for k in generator.catalog.substructures}
    trace = generator.generate("question with no usable candidates", (), [],
                               probs_override=probs)
    assert trace.error is not None
    assert trace.results == []


def test_merge_only_setting_ranks_merged_provenance(oracle_generator):
    pairs, _ = oracle_generator
    catalog = mine(pairs, 2)
    generator = QueryGenerator(catalog, {}, build_kb(), MergeConfig(),
                               setting="merge-only")
    pair = next(p for p in pairs if p.qid == "s3-0")
    pattern = contained_frequent_keys(pair.query, catalog)
    probs = {k: (1.0 if k in pattern else 0.0) for k in catalog.substructures}
    from kbqg.predictor import preprocess

    _, ranked, merged = generator.rank(
        preprocess(pair.question, [(m.start, m.end) for m in pair.mentions]),
        probs)
    assert ranked == merged
    assert all(s.provenance == MERGED for s in ranked)
    assert ranked[0].key == canonical_key(pair.query)


def test_canonicalization_error_goes_to_the_trace_error(oracle_generator, monkeypatch):
    pairs, generator = oracle_generator
    pair = next(p for p in pairs if p.qid == "s4-0")
    pattern = contained_frequent_keys(pair.query, generator.catalog)
    probs = {k: (1.0 if k in pattern else 0.0) for k in generator.catalog.substructures}
    monkeypatch.setattr(canon, "MAX_LEAVES", 0)
    canon.canonical_form.cache_clear()
    trace = generator.generate(pair.question, [(m.start, m.end) for m in pair.mentions],
                               gold_candidates(pair), probs_override=probs)
    assert "leaf budget" in trace.error
    assert trace.tokens and trace.probabilities == {}
    assert trace.ranked == [] and trace.merged == [] and trace.results == []


def test_overlapping_mention_spans_go_to_the_trace_error():
    generator = QueryGenerator(mine(build_dataset(), 2), {}, build_kb(),
                               setting="rank-w-sub")
    trace = generator.generate("who directed The Shining?", [(13, 20), (17, 24)])
    assert "overlapping mention spans" in trace.error
    assert trace.tokens == () and trace.probabilities == {}
    assert trace.ranked == [] and trace.merged == [] and trace.results == []
