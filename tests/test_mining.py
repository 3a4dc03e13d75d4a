import json
import random

import pytest

from kbqg.canon import canonical_key, is_equivalent
from kbqg.mining import (
    EmptyTrainingDataError,
    Mention,
    QueryTooLargeError,
    TrainingPair,
    collect_structures,
    contained_frequent_keys,
    enumerate_substructures,
    graph_from_json,
    graph_to_json,
    load_catalog,
    mine,
    save_catalog,
    tally_substructures,
)
from kbqg.sparql import parse_query
from kbqg.toydata import build_dataset

from .graphgen import random_graph
from .oracles import oracle_is_equivalent, oracle_substructure_classes


def tp(question, sparql, qid=None):
    return TrainingPair(question, parse_query(sparql), (), qid)


def test_mention_validation():
    with pytest.raises(ValueError):
        Mention(5, 3, "x")
    with pytest.raises(ValueError):
        TrainingPair("short", parse_query("SELECT ?x WHERE { ?x :p :E }"),
                     (Mention(0, 99, "way too long"),))
    with pytest.raises(ValueError):
        TrainingPair("overlap here", parse_query("SELECT ?x WHERE { ?x :p :E }"),
                     (Mention(0, 7, "overlap"), Mention(4, 9, "lap h")))


def test_collect_structures_merges_renamings():
    pairs = [tp("q1", "SELECT ?x WHERE { ?x :director :E }"),
             tp("q2", "SELECT ?who WHERE { ?who :starring :F }")]
    out = collect_structures(pairs)
    assert len(out) == 1
    entry = next(iter(out.values()))
    assert entry.count == 2


def test_collect_structures_counts_sum_and_distinct_reps():
    # 10 queries over 4 structures with counts 4, 3, 2, 1
    sparqls = (
        ["SELECT ?x WHERE { ?x :p0 :E }"] * 4
        + ["SELECT ?x WHERE { :E :p0 ?x }"] * 3
        + ["SELECT ?x WHERE { ?x :p0 :E . ?x a :C }"] * 2
        + ["SELECT (COUNT(?x) AS ?c) WHERE { ?x :p0 :E }"]
    )
    pairs = [tp(f"q{i}", s) for i, s in enumerate(sparqls)]
    out = collect_structures(pairs)
    assert sorted(e.count for e in out.values()) == [1, 2, 3, 4]
    assert sum(e.count for e in out.values()) == len(pairs)
    reps = [e.representative for e in out.values()]
    for i, a in enumerate(reps):
        for b in reps[i + 1:]:
            assert not oracle_is_equivalent(a, b)


def test_enumerate_substructures_single_triple():
    g = parse_query("SELECT ?x WHERE { ?x :p :E }")
    assert len(enumerate_substructures(g)) == 1


def test_enumerate_substructures_includes_count_isa_fragment():
    full = parse_query(
        "SELECT (COUNT(?u) AS ?c) WHERE { ?u rdf:type :Film . ?u :director :T_Burton }")
    frag = parse_query("SELECT (COUNT(?v) AS ?c) WHERE { ?v rdf:type :AnyClass }")
    subs = enumerate_substructures(full)
    assert canonical_key(frag) in subs
    assert canonical_key(full) in subs  # a structure contains itself


def test_enumerate_substructures_matches_bruteforce_oracle():
    rng = random.Random(42)
    for _ in range(12):
        g = random_graph(rng, max_triples=4)
        impl = enumerate_substructures(g)
        oracle = oracle_substructure_classes(g)
        assert len(impl) == len(oracle)
        for rep in oracle:
            matches = [k for k, r in impl.items() if oracle_is_equivalent(rep, r)]
            assert len(matches) == 1


def test_enumerate_substructures_path_graph_count():
    g = parse_query("SELECT ?a WHERE { ?a :p0 ?b . ?b :p1 ?c . ?c :p2 ?d . ?d :p3 :E }")
    impl = enumerate_substructures(g)
    oracle = oracle_substructure_classes(g)
    assert len(impl) == len(oracle)


def test_size_cap():
    body = " . ".join(f"?x{i} :p{i} ?y{i}" for i in range(13))
    g = parse_query(f"SELECT ?x0 WHERE {{ {body} }}")
    with pytest.raises(QueryTooLargeError):
        enumerate_substructures(g)


def test_mine_empty_and_gamma_zero():
    with pytest.raises(EmptyTrainingDataError):
        mine([], 0)
    pair = tp("q", "SELECT ?x WHERE { ?x :p :E . ?x a :C }")
    catalog = mine([pair], 0)
    assert set(catalog.substructures) == set(enumerate_substructures(pair.query))


def test_mine_planted_frequency_threshold():
    planted = "SELECT ?x WHERE { ?x :seen :E . ?x a :C }"
    others = "SELECT ?x WHERE { ?x :other ?y }"
    pairs = [tp(f"p{i}", planted) for i in range(12)]
    pairs += [tp(f"o{i}", others) for i in range(8)]
    planted_key = canonical_key(parse_query(planted))
    catalog = mine(pairs, 10)
    assert planted_key in catalog.substructures
    assert catalog.substructures[planted_key].count == 12
    catalog12 = mine(pairs, 12)
    assert planted_key not in catalog12.substructures


def test_containment_counts_queries_not_embeddings():
    # the 1-triple var->entity substructure embeds twice in this query but
    # the query counts once
    g = "SELECT ?x WHERE { ?x :p :E . ?x :q :F }"
    frag_key = canonical_key(parse_query("SELECT ?x WHERE { ?x :p :E }"))
    tally = tally_substructures([tp("q", g)])
    assert tally[frag_key].count == 1


def test_own_structure_is_in_ts_and_frequent_set_is_connected():
    pairs = [tp(f"q{i}", "SELECT ?x WHERE { ?x :p :E . ?x :q ?y }")
             for i in range(4)]
    catalog = mine(pairs, 2)
    assert canonical_key(pairs[0].query) in catalog.structures
    for entry in catalog.substructures.values():
        assert entry.representative.is_connected()


def test_gamma_monotonicity():
    rng = random.Random(9)
    pairs = [TrainingPair(f"q{i}", random_graph(rng, 3), (), str(i))
             for i in range(15)]
    sizes = []
    for gamma in (0, 1, 2, 4, 8):
        sizes.append(len(mine(pairs, gamma).substructures))
    assert sizes == sorted(sizes, reverse=True)


def test_downward_closure_on_fixture():
    pairs = [tp(f"q{i}", "SELECT (COUNT(?u) AS ?c) WHERE "
                         "{ ?u rdf:type :Film . ?u :director :T }")
             for i in range(5)]
    catalog = mine(pairs, 0)
    tally = tally_substructures(pairs)
    for key, entry in catalog.structures.items():
        for sub_key in enumerate_substructures(entry.representative):
            assert tally[sub_key].count >= entry.count


def test_containment_flags_agree_with_is_substructure():
    from kbqg.canon import is_substructure

    pairs = [tp("a", "SELECT ?x WHERE { ?x :p :E . ?x a :C }"),
             tp("b", "SELECT ?x WHERE { ?x :p :E . ?x a :C }"),
             tp("c", "SELECT ?x WHERE { ?x :p :E }"),
             tp("d", "SELECT ?x WHERE { :E :p ?x }")]
    catalog = mine(pairs, 0)
    for skey, entry in catalog.structures.items():
        for fkey, fentry in catalog.substructures.items():
            expected = is_substructure(fentry.representative, entry.representative)
            assert (fkey in catalog.containment[skey]) == expected


@pytest.mark.parametrize("source", ["fixture", "random"])
def test_catalog_rows_equal_enumerated_rows(source):
    if source == "fixture":
        catalog = mine(build_dataset(), 2)
    else:
        rng = random.Random(7)
        graphs = [random_graph(rng, max_triples=5) for _ in range(8)]
        catalog = mine([TrainingPair(f"q{i}", g) for i, g in enumerate(graphs * 2)], 1)
    for table in (catalog.structures, catalog.substructures):
        for key, entry in table.items():
            inside = enumerate_substructures(entry.representative)
            assert catalog.containment[key] == frozenset(
                k for k in catalog.substructures if k in inside)
    assert len(catalog.containment) == len(catalog.structures.keys() | catalog.substructures)


def test_contained_frequent_keys_for_unmined_query():
    pairs = [tp(f"q{i}", "SELECT ?x WHERE { ?x :p :E . ?x a :C }")
             for i in range(3)]
    catalog = mine(pairs, 1)
    novel = parse_query("SELECT ?x WHERE { ?x :p :E . ?x a :C . ?x :q ?y }")
    keys = contained_frequent_keys(novel, catalog)
    assert canonical_key(parse_query("SELECT ?x WHERE { ?x :p :E }")) in keys


def test_catalog_json_roundtrip(tmp_path):
    pairs = [tp(f"q{i}", "SELECT (COUNT(?u) AS ?c) WHERE "
                         "{ ?u rdf:type :Film . ?u :director :T }")
             for i in range(4)]
    catalog = mine(pairs, 1)
    path = tmp_path / "catalog.json"
    save_catalog(catalog, path)
    assert "containment" not in json.loads(path.read_text())
    loaded = load_catalog(path)
    assert loaded.gamma == catalog.gamma
    assert list(loaded.structures) == list(catalog.structures)
    assert list(loaded.substructures) == list(catalog.substructures)
    # rows of the structures and of the frequent substructures
    assert len(catalog.containment) > len(catalog.structures)
    assert loaded.containment == catalog.containment
    for name in ("structures", "substructures"):
        for key, entry in getattr(catalog, name).items():
            assert is_equivalent(getattr(loaded, name)[key].representative,
                                 entry.representative)
    # a file that still carries the derived rows loads the same
    doc = json.loads(path.read_text())
    doc["containment"] = {"stale": [0]}
    path.write_text(json.dumps(doc))
    assert load_catalog(path).containment == catalog.containment


def test_graph_json_roundtrip():
    g = parse_query("SELECT ?x WHERE { ?x :p ?y } ORDER BY DESC(?y) LIMIT 1 OFFSET 2")
    back = graph_from_json(json.loads(json.dumps(graph_to_json(g))))
    assert back == g
