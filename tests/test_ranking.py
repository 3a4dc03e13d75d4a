import math
import random

import pytest

from kbqg.canon import canonical_key
from kbqg.mining import TrainingPair, contained_frequent_keys, mine
from kbqg.ranking import (
    MissingProbabilityError,
    rank_existing,
    score_containment,
)
from kbqg.sparql import parse_query

from .oracles import oracle_score


def tp(qid, sparql):
    return TrainingPair(qid, parse_query(sparql), (), qid)


def two_fragment_catalog():
    """TS = {A-only, A+B}, FS* = {A, B} with A = var->entity triple and
    B = the ISA fragment."""
    pairs = [tp(f"a{i}", "SELECT ?x WHERE { ?x :p :E }") for i in range(4)]
    pairs += [tp(f"b{i}", "SELECT ?x WHERE { ?x :p :E . ?x a :C }") for i in range(3)]
    return mine(pairs, 2)


def test_direct_arithmetic_two_substructures():
    catalog = two_fragment_catalog()
    a_key = canonical_key(parse_query("SELECT ?x WHERE { ?x :p :E }"))
    b_key = next(k for k in catalog.substructures if k != a_key
                 and k.triple_count == 1)
    s = catalog.structures[a_key].representative  # contains A only
    probs = {a_key: 0.9, b_key: 0.2}
    probs.update({k: 0.0 for k in catalog.substructures if k not in probs})
    score = score_containment(contained_frequent_keys(s, catalog), probs, catalog)
    assert score == pytest.approx(0.9 * 0.8, abs=1e-12)


def test_ideal_condition_scores_exactly_one_and_zero():
    catalog = two_fragment_catalog()
    for key, entry in catalog.structures.items():
        pattern = catalog.containment[key]
        probs = {k: (1.0 if k in pattern else 0.0) for k in catalog.substructures}
        contained = contained_frequent_keys(entry.representative, catalog)
        assert score_containment(contained, probs, catalog) == 1.0
        for other, oentry in catalog.structures.items():
            if catalog.containment[other] != pattern:
                contained = contained_frequent_keys(oentry.representative, catalog)
                assert score_containment(contained, probs, catalog) == 0.0


def test_log_space_matches_direct_product_oracle():
    rng = random.Random(12)
    keys = [f"k{i}" for i in range(40)]

    class FakeCatalog:
        substructures = {k: None for k in keys}
        containment = {}

    for trial in range(20):
        probs = {k: rng.uniform(0.01, 0.99) for k in keys}
        contained = frozenset(k for k in keys if rng.random() < 0.5)
        got = score_containment(contained, probs, FakeCatalog())
        want = oracle_score(contained, probs)
        assert got == pytest.approx(want, rel=1e-12)


def test_missing_probability_raises():
    catalog = two_fragment_catalog()
    entry = next(iter(catalog.structures.values()))
    with pytest.raises(MissingProbabilityError):
        score_containment(contained_frequent_keys(entry.representative, catalog), {},
                          catalog)


def test_rank_existing_sorting_and_tiebreaks():
    catalog = two_fragment_catalog()
    a_key = canonical_key(parse_query("SELECT ?x WHERE { ?x :p :E }"))
    probs = {k: 0.5 for k in catalog.substructures}
    ranked = rank_existing(probs, catalog)
    # equal probabilities of 0.5 make every structure score 0.25; the
    # 4-count structure must come first by training count
    assert len(ranked) == 2
    assert ranked[0].score == pytest.approx(ranked[1].score)
    assert ranked[0].train_count == 4
    assert ranked[0].key == a_key


def test_identical_patterns_score_identically():
    # two different structures whose frequent-pattern sets coincide
    pairs = [tp(f"a{i}", "SELECT ?x WHERE { ?x :p :E }") for i in range(4)]
    pairs += [tp("w0", "SELECT ?b WHERE { ?a :p :E . ?b :q ?a }")]
    pairs += [tp("w1", "SELECT ?b WHERE { ?a :p :E . ?b :p ?a }")]
    catalog = mine(pairs, 3)  # only the 1-triple fragments are frequent
    k_w0 = canonical_key(parse_query("SELECT ?b WHERE { ?a :p :E . ?b :q ?a }"))
    k_w1 = canonical_key(parse_query("SELECT ?b WHERE { ?a :p :E . ?b :p ?a }"))
    assert k_w0 != k_w1
    assert catalog.containment[k_w0] == catalog.containment[k_w1]
    rng = random.Random(3)
    probs = {k: rng.uniform(0.05, 0.95) for k in catalog.substructures}
    reps = [catalog.structures[k].representative for k in (k_w0, k_w1)]
    s0, s1 = (score_containment(contained_frequent_keys(r, catalog), probs, catalog)
              for r in reps)
    assert s0 == s1


def test_monotone_in_contained_probability():
    catalog = two_fragment_catalog()
    a_key = canonical_key(parse_query("SELECT ?x WHERE { ?x :p :E }"))
    both_key = next(k for k in catalog.structures if k != a_key)
    rep = catalog.structures[both_key].representative
    others = {k: 0.4 for k in catalog.substructures}
    lo = dict(others)
    lo[a_key] = 0.3
    hi = dict(others)
    hi[a_key] = 0.9
    contained = contained_frequent_keys(rep, catalog)
    assert (score_containment(contained, hi, catalog)
            >= score_containment(contained, lo, catalog))


def test_ranking_is_iteration_order_independent():
    catalog = two_fragment_catalog()
    rng = random.Random(4)
    probs = {k: rng.uniform(0.1, 0.9) for k in catalog.substructures}
    first = [s.key for s in rank_existing(probs, catalog)]
    # rebuild the catalog with reversed insertion order
    import kbqg.mining as mining

    rev = mining.SubstructureCatalog(
        catalog.gamma,
        dict(reversed(list(catalog.structures.items()))),
        dict(reversed(list(catalog.substructures.items()))))
    second = [s.key for s in rank_existing(probs, rev)]
    assert first == second


def test_ranked_jsonl_output(tmp_path):
    import json

    from kbqg.io import write_json_lines
    from kbqg.ranking import ranked_records

    catalog = two_fragment_catalog()
    probs = {k: 0.7 for k in catalog.substructures}
    ranked = rank_existing(probs, catalog)
    path = tmp_path / "ranked.jsonl"
    write_json_lines(path, ranked_records(ranked))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [l["rank"] for l in lines] == [0, 1]
    assert all({"key", "score", "provenance", "representative"} <= set(l)
               for l in lines)


def test_clamping_keeps_interior_probabilities_positive():
    catalog = two_fragment_catalog()
    a_key = canonical_key(parse_query("SELECT ?x WHERE { ?x :p :E }"))
    rep = catalog.structures[a_key].representative
    # a wrongly-confident near-zero probability must not zero the score
    probs = {k: 1e-12 for k in catalog.substructures}
    probs[a_key] = 1e-12
    score = score_containment(contained_frequent_keys(rep, catalog), probs, catalog)
    assert score > 0.0
    assert math.isfinite(score)
