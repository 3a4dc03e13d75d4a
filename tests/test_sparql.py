import random

import pytest

from kbqg.canon import canonical_key, is_equivalent
from kbqg.graph import AGG_RESULT, CLASS, ENTITY, ISA, MAXATN, MINATN
from kbqg.sparql import (
    QuerySyntaxError,
    UnsupportedFeatureError,
    parse_query,
    serialize_query,
)

from .graphgen import random_graph


def test_count_query_with_isa_and_property():
    g = parse_query(
        "SELECT (COUNT(?u) AS ?c) WHERE { ?u rdf:type :Film . ?u :director :T_Burton }")
    labels = sorted(str(t.label) for t in g.triples)
    assert labels == [":director", "COUNT", "ISA"]
    assert g.kind_of(g.target) == AGG_RESULT
    kinds = sorted(v.kind for v in g.vertices)
    assert kinds == [AGG_RESULT, CLASS, ENTITY, "variable"]


def test_minimal_select():
    g = parse_query("SELECT ?x WHERE { ?x :p :E }")
    assert g.triple_count == 1
    assert len(g.vertices) == 2
    assert g.target == "?x"


def test_order_by_maps_to_maxatn_with_offset_plus_one():
    g = parse_query(
        "SELECT ?x WHERE { ?x :p ?y } ORDER BY DESC(?y) LIMIT 1 OFFSET 1")
    order = [t for t in g.triples if t.label.is_builtin and t.label.builtin == MAXATN]
    assert len(order) == 1
    assert g.vertex_by_id[order[0].object].surface == "2"
    g2 = parse_query("SELECT ?x WHERE { ?x :p ?y } ORDER BY ASC(?y) LIMIT 1")
    order2 = [t for t in g2.triples if t.label.is_builtin and t.label.builtin == MINATN]
    assert g2.vertex_by_id[order2[0].object].surface == "1"


def test_roundtrip_preserves_key_and_surfaces():
    queries = [
        "SELECT ?x WHERE { ?x :p :E }",
        "SELECT ?p WHERE { :The_Shining :director ?p }",
        "SELECT (COUNT(?u) AS ?c) WHERE { ?u rdf:type :Film . ?u :director :T_Burton }",
        "SELECT (AVG(?r) AS ?a) WHERE { ?f :director :X . ?f :runtime ?r }",
        "SELECT ?x WHERE { ?x :p ?y } ORDER BY DESC(?y) LIMIT 1 OFFSET 1",
        "SELECT ?x WHERE { ?x :p ?y . ?y :q \"some text\" }",
        'SELECT ?x WHERE { ?x :height 190 }',
    ]
    for text in queries:
        g = parse_query(text)
        back = parse_query(serialize_query(g))
        assert is_equivalent(g, back), text
        assert canonical_key(g) == canonical_key(back)
        surf = sorted(v.surface for v in g.vertices if v.surface)
        surf_back = sorted(v.surface for v in back.vertices if v.surface)
        assert surf == surf_back, text


def test_roundtrip_on_random_graphs():
    rng = random.Random(17)
    done = 0
    for _ in range(40):
        g = random_graph(rng)
        if g.target is None:
            continue
        try:
            text = serialize_query(g)
        except ValueError:
            continue  # pure-aggregate pattern, not expressible
        back = parse_query(text)
        assert canonical_key(back) == canonical_key(g)
        done += 1
    assert done >= 15


def test_unsupported_features_raise():
    for text in [
        "SELECT ?x WHERE { ?x :p :E . FILTER(?x > 5) }",
        "SELECT ?x WHERE { { ?x :p :E } UNION { ?x :q :E } }",
        "SELECT ?x WHERE { ?x :p :E } GROUP BY ?x",
        "SELECT ?x WHERE { OPTIONAL { ?x :p :E } }",
    ]:
        with pytest.raises(UnsupportedFeatureError):
            parse_query(text)


def test_syntax_errors():
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT WHERE { ?x :p :E }")
    with pytest.raises(QuerySyntaxError):
        parse_query("SELECT ?x WHERE { ?x :p }")
    with pytest.raises(QuerySyntaxError):
        parse_query("")
    # a declared prefix is a name that ends in ":", with no local part
    for declaration in ("PREFIX dbo:film <http://x/>", "PREFIX <http://x/>"):
        with pytest.raises(QuerySyntaxError, match="bad PREFIX declaration"):
            parse_query(declaration + " SELECT ?x WHERE { ?x dbo:director :E }")


def test_ask_takes_first_variable_as_target():
    g = parse_query("ASK WHERE { ?x :p :E . ?x :q ?y }")
    assert g.target == "?x"
    with pytest.raises(UnsupportedFeatureError):
        parse_query("ASK { :E :p :F }")


def test_duplicate_triples_deduplicated():
    g = parse_query("SELECT ?x WHERE { ?x :p :E . ?x :p :E }")
    assert g.triple_count == 1


def test_prefix_declarations_expand():
    g = parse_query(
        "PREFIX dbo: <http://dbpedia.org/ontology/> "
        "SELECT ?x WHERE { ?x dbo:director dbo:Nope }")
    labels = [t.label.name for t in g.triples]
    assert labels == ["http://dbpedia.org/ontology/director"]


def test_isa_detected_through_a_and_rdf_type():
    g1 = parse_query("SELECT ?x WHERE { ?x a :Film }")
    g2 = parse_query("SELECT ?x WHERE { ?x rdf:type :Film }")
    assert is_equivalent(g1, g2)
    assert all(t.label.builtin == ISA for t in g1.triples)


def test_bare_aggregate_without_as():
    g = parse_query("SELECT COUNT(?u) WHERE { ?u :p :E }")
    assert g.kind_of(g.target) == AGG_RESULT


def test_multiple_projection_variables_unsupported():
    with pytest.raises(UnsupportedFeatureError):
        parse_query("SELECT ?x ?y WHERE { ?x :p ?y }")
