import math

import pytest

from kbqg.canon import canonical_key, is_substructure
from kbqg.graph import QueryGraph
from kbqg.merging import (
    ROUND_COUNTS,
    MergeConfig,
    merge_pair,
    merge_substructures,
    passes_restrictions,
)
from kbqg.mining import mine
from kbqg.ranking import score_containment
from kbqg.sparql import parse_query
from kbqg.toydata import build_merge_corpus
from kbqg.mining import contained_frequent_keys

from .oracles import oracle_is_equivalent, oracle_merge_pair, reference_merge_substructures


def strip_target(g: QueryGraph) -> QueryGraph:
    return QueryGraph(g.vertices, g.triples, None)


def test_merge_pair_produces_shared_variable_join():
    count_isa = strip_target(parse_query(
        "SELECT (COUNT(?v) AS ?c) WHERE { ?v rdf:type :Class1 }"))
    one_triple = strip_target(parse_query("SELECT ?v WHERE { ?v :p :Ent1 }"))
    merged = merge_pair(count_isa, one_triple)
    target_structure = parse_query(
        "SELECT (COUNT(?u) AS ?c) WHERE { ?u rdf:type :Film . ?u :director :T_B }")
    assert canonical_key(target_structure) in merged


def test_merge_pair_without_unifiable_kinds_gives_union_only():
    lit = strip_target(parse_query('SELECT ?x WHERE { ?x :p "abc" }'))
    agg = strip_target(parse_query("SELECT (COUNT(?v) AS ?c) WHERE { ?v a :C }"))
    merged = merge_pair(lit, agg, max_shared_labels=0)
    # only the variable pair (?x, ?v) is unifiable plus the bare union
    assert len(merged) == 2
    assert any(not g.is_connected() for g in merged.values())


def test_merge_pair_matches_exhaustive_oracle_on_small_inputs():
    cases = [
        ("SELECT ?x WHERE { ?x :p :E }", "SELECT ?y WHERE { ?y :q :F }"),
        ("SELECT ?x WHERE { ?x :p :E }", "SELECT ?y WHERE { :F :q ?y }"),
        ("SELECT ?x WHERE { ?x :p ?y }", "SELECT ?a WHERE { ?a :r ?b }"),
        ("SELECT ?x WHERE { ?x :p :E . ?x a :C }", "SELECT ?y WHERE { ?y :q ?z }"),
    ]
    for qa, qb in cases:
        a = strip_target(parse_query(qa))
        b = strip_target(parse_query(qb))
        impl = merge_pair(a, b)
        oracle = oracle_merge_pair(a, b)
        assert len(impl) == len(oracle)
        for rep in oracle:
            hits = [k for k, g in impl.items() if oracle_is_equivalent(g, rep)]
            assert len(hits) == 1


def test_merge_pair_soundness_inputs_are_substructures():
    a = strip_target(parse_query("SELECT ?x WHERE { ?x :p :E . ?x :q ?y }"))
    b = strip_target(parse_query("SELECT ?z WHERE { ?z a :C }"))
    for key, merged in merge_pair(a, b).items():
        assert is_substructure(a, merged)
        assert is_substructure(b, merged)


def test_restriction_filter_and_idempotence():
    cfg = MergeConfig(tau=3, delta=1)
    small = parse_query("SELECT ?x WHERE { ?x :p :E . ?x :q ?y }")
    big = parse_query(
        "SELECT ?x WHERE { ?x :p :E . ?x :q ?y . ?y :r :F . ?y :s ?z }")
    assert passes_restrictions(strip_target(small), cfg)
    assert not passes_restrictions(strip_target(big), cfg)
    counted = parse_query(
        "SELECT (COUNT(?x) AS ?c) WHERE { ?x :p :E . ?x :q ?y } "
        "ORDER BY DESC(?y) LIMIT 1")
    assert counted.aggregation_count == 2
    assert not passes_restrictions(strip_target(counted), cfg)
    # filtering twice equals filtering once
    graphs = [strip_target(small), strip_target(big), strip_target(counted)]
    once = [g for g in graphs if passes_restrictions(g, cfg)]
    twice = [g for g in once if passes_restrictions(g, cfg)]
    assert once == twice


def test_merge_config_validation():
    with pytest.raises(ValueError):
        MergeConfig(k_max=0)
    with pytest.raises(ValueError):
        MergeConfig(theta=1.5)
    with pytest.raises(ValueError):
        MergeConfig(tau=0)


@pytest.mark.parametrize("beam", [0, -1])
def test_merge_config_rejects_a_beam_below_one(beam):
    # a beam of -1 would slice off all but one candidate, and 0 would keep none
    with pytest.raises(ValueError, match="beam"):
        MergeConfig(beam=beam)


def merge_fixture():
    pairs, gold = build_merge_corpus()
    catalog = mine(pairs, 10)
    pattern = contained_frequent_keys(gold, catalog)
    probs = {k: (1.0 if k in pattern else 0.0) for k in catalog.substructures}
    return catalog, gold, probs


def test_unseen_structure_reachable_by_merging():
    catalog, gold, probs = merge_fixture()
    gold_key = canonical_key(gold)
    assert gold_key not in catalog.structures  # unseen as a full query
    assert gold_key in catalog.substructures   # frequent as a fragment
    cfg = MergeConfig(k_max=2, theta=0.3, tau=5, delta=2)
    out = merge_substructures(probs, catalog, cfg)
    keys = {s.key for s in out}
    assert gold_key in keys
    for s in out:
        assert passes_restrictions(s.representative, cfg)
        assert s.score > cfg.theta
        assert s.provenance == "merged"
    assert len(keys) == len(out)  # deduplicated


def test_merge_outputs_contain_seed_set():
    catalog, gold, probs = merge_fixture()
    cfg = MergeConfig(k_max=2, theta=0.3)
    out_keys = {s.key for s in merge_substructures(probs, catalog, cfg)}
    seeds = set()
    for key in catalog.frequent_keys:
        rep = catalog.substructures[key].representative
        if passes_restrictions(rep, cfg):
            score = score_containment(
                contained_frequent_keys(rep, catalog), probs, catalog)
            if score > cfg.theta:
                seeds.add(key)
    assert seeds and seeds <= out_keys


def test_merge_rounds_debug_dump():
    catalog, gold, probs = merge_fixture()
    rounds = []
    merge_substructures(probs, catalog, MergeConfig(k_max=2, theta=0.3),
                        rounds_out=rounds)
    assert [r["round"] for r in rounds] == [0, 1, 2]
    assert all("members" in r for r in rounds)
    assert rounds[0]["members"], "seed round must be recorded"
    member = rounds[0]["members"][0]
    assert {"key", "score", "graph"} <= set(member)
    for r in rounds:
        assert set(ROUND_COUNTS) <= set(r)
        assert all(r[name] >= 0 for name in ROUND_COUNTS)
        decided = sum(r[name] for name in ROUND_COUNTS if name != "generated")
        assert r["generated"] == decided + len(r["members"]), r["round"]
    assert rounds[0]["generated"] == len(catalog.substructures)
    assert rounds[1]["generated"] > rounds[1]["failed_restrictions"] > 0


def skewed_probs(probs):
    """"?v :p Ent" certain and "?v :p ?w" barely predicted: merging them
    builds chains whose other parts were predicted absent."""
    by_canonical = {k.canonical: k for k in probs}
    skewed = {k: 0.0 for k in probs}
    skewed[by_canonical["e|v//1 p0 0"]] = 1.0
    skewed[by_canonical["v|v//1 p0 0"]] = 0.55
    return skewed


def test_merge_round_counts_under_skewed_probabilities():
    catalog, _gold, probs = merge_fixture()
    skewed = skewed_probs(probs)
    cfg = MergeConfig(k_max=2, theta=0.3)
    rounds = []
    out = merge_substructures(skewed, catalog, cfg, rounds_out=rounds)
    assert sum(r["below_theta"] for r in rounds[1:]) > 0
    for r in rounds:
        decided = sum(r[name] for name in ROUND_COUNTS if name != "generated")
        assert r["generated"] == decided + len(r["members"])
    assert [(s.key.canonical, s.score) for s in out] == \
        reference_merge_substructures(skewed, catalog, cfg)


def test_empty_contained_set_returns_seeds_only():
    catalog, gold, probs = merge_fixture()
    low = {k: 0.0 for k in probs}
    cfg = MergeConfig(k_max=2, theta=0.3)
    # no substructure has probability > 0.5, and every score with an
    # all-zero vector is the indicator of the empty pattern
    out = merge_substructures(low, catalog, cfg)
    empty_pattern_seeds = [
        k for k in catalog.frequent_keys
        if not contained_frequent_keys(catalog.substructures[k].representative,
                                       catalog)]
    assert {s.key for s in out} == set(empty_pattern_seeds)


def test_merging_keeps_scores_just_above_theta():
    catalog, _gold, probs = merge_fixture()
    skewed = skewed_probs(probs)
    lowest = min(score for _key, score in
                 reference_merge_substructures(skewed, catalog, MergeConfig(theta=0.3)))
    for theta in (math.nextafter(lowest, 0.0), lowest):
        cfg = MergeConfig(theta=theta)
        got = [(s.key.canonical, s.score) for s in merge_substructures(skewed, catalog, cfg)]
        expected = reference_merge_substructures(skewed, catalog, cfg)
        assert got == expected
        assert any(score == lowest for _key, score in got) == (theta < lowest)
