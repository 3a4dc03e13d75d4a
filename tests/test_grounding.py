import numpy as np
import pytest

from kbqg.canon import canonical_key
from kbqg.graph import (
    AGG_RESULT,
    ENTITY,
    LITERAL,
    Triple,
    VARIABLE,
    Vertex,
    build_graph,
    builtin,
    user,
)
from kbqg.grounding import (
    DictionaryLinker,
    LinkingCandidate,
    NoValidGroundingError,
    enumerate_assignments,
    extract_literal_candidates,
    ground,
    placeholder_slots,
    validate_grammar,
    with_distractors,
)
from kbqg.kb import execute
from kbqg.ranking import EXISTING, ScoredStructure
from kbqg.sparql import parse_query
from kbqg.toydata import build_gazetteer, build_kb


def scored(sparql_or_graph, score=1.0, count=1):
    g = sparql_or_graph
    if isinstance(g, str):
        g = parse_query(g)
    return ScoredStructure(canonical_key(g), g, score, EXISTING, count)


def cand(kind, symbol, score=1.0, mention=None):
    return LinkingCandidate(mention or symbol, kind, symbol, score)


def test_validate_grammar_fig_style_query_ok():
    q = parse_query(
        "SELECT (COUNT(?u) AS ?c) WHERE { ?u rdf:type :Film . ?u :director :T_B }")
    assert validate_grammar(q)


def test_validate_grammar_agg_result_with_extra_edge_fails():
    verts = [Vertex("?x", VARIABLE), Vertex("?c", AGG_RESULT),
             Vertex("e", ENTITY, ":E")]
    trips = [Triple("?x", builtin("COUNT"), "?c"), Triple("?c", user(":p"), "e")]
    g = build_graph(verts, trips, "?c")
    assert not validate_grammar(g)


def test_validate_grammar_isa_object_must_be_class():
    verts = [Vertex("?x", VARIABLE), Vertex("e", ENTITY, ":E")]
    g = build_graph(verts, [Triple("?x", builtin("ISA"), "e")], "?x")
    assert not validate_grammar(g)


def test_validate_grammar_order_offset_positive_integer():
    verts = [Vertex("?x", VARIABLE), Vertex("n", LITERAL, "0")]
    g = build_graph(verts, [Triple("?x", builtin("MAXATN"), "n")], "?x")
    assert not validate_grammar(g)
    verts2 = [Vertex("?x", VARIABLE), Vertex("n", LITERAL, "2")]
    g2 = build_graph(verts2, [Triple("?x", builtin("MAXATN"), "n")], "?x")
    assert validate_grammar(g2)


def test_validate_grammar_needs_target():
    g = parse_query("SELECT ?x WHERE { ?x :p :E }")
    from kbqg.graph import QueryGraph

    assert validate_grammar(g)
    assert not validate_grammar(QueryGraph(g.vertices, g.triples, None))


def test_placeholder_slots():
    structure = parse_query(
        'SELECT ?x WHERE { ?x Prop1 Ent1 . ?x rdf:type Class1 . ?x Prop2 "Lit1" }')
    slots = placeholder_slots(structure)
    kinds = sorted(k for k, _ in slots)
    assert kinds == ["class", "entity", "literal", "property", "property"]
    # order-offset literals are not slots
    ordered = parse_query(
        "SELECT ?x WHERE { ?x Prop1 Ent1 . ?x Prop2 ?r } ORDER BY DESC(?r) LIMIT 1")
    kinds2 = sorted(k for k, _ in placeholder_slots(ordered))
    assert kinds2 == ["entity", "property", "property"]


def test_enumerate_assignments_best_first_matches_sort_oracle():
    slots = [
        [cand("entity", ":a", 1.0), cand("entity", ":b", 0.7), cand("entity", ":c", 0.4)],
        [cand("property", ":p", 0.9), cand("property", ":q", 0.5)],
        [cand("class", ":C", 1.0), cand("class", ":D", 0.3)],
    ]
    seq = list(enumerate_assignments(slots))
    scores = [s for _, s in seq]
    assert scores == sorted(scores, reverse=True)
    import itertools

    assert len(seq) == 3 * 2 * 2
    expected = sorted((a.score * b.score * c.score
                       for a, b, c in itertools.product(*slots)), reverse=True)
    assert scores == pytest.approx(expected)


def test_enumerate_assignments_empty_slot_list():
    assert list(enumerate_assignments([])) == [((), 1.0)]
    assert list(enumerate_assignments([[]])) == []


def test_single_candidate_single_combination():
    kb = build_kb()
    structure = scored("SELECT ?p WHERE { :The_Shining :director ?p }")
    results = ground([structure], [cand("entity", ":The_Shining"),
                                   cand("property", ":director")], kb)
    assert len(results) == 1
    assert execute(results[0].query, kb).values == frozenset({":S_Kubrick"})


def test_gold_linking_grounds_fig_style_count_query():
    kb = build_kb()
    structure = scored(
        "SELECT (COUNT(?u) AS ?c) WHERE { ?u rdf:type :Film . ?u :director :X }")
    candidates = [cand("entity", ":S_Kubrick"), cand("property", ":director"),
                  cand("class", ":Film")]
    results = ground([structure], candidates, kb)
    assert execute(results[0].query, kb).aggregate == 3


def test_rank_order_respected_and_validation_cascade():
    kb = build_kb()
    # wrong-direction structure ranked first: its correct-symbol grounding
    # is blocked by the domain check, so the second structure wins
    wrong = scored("SELECT ?p WHERE { :Placeholder :director ?p }", score=0.9)
    right = scored("SELECT ?f WHERE { ?f :director :Placeholder }", score=0.8)
    candidates = [cand("entity", ":S_Kubrick"), cand("property", ":director")]
    results = ground([wrong, right], candidates, kb, top_k=1)
    assert results[0].structure_rank == 1
    assert execute(results[0].query, kb).values == frozenset(
        {":The_Shining", ":Barry_Lyndon", ":Space_Odyssey"})


def test_no_valid_grounding_raises():
    kb = build_kb()
    s = scored("SELECT ?f WHERE { ?f :director :X }")
    with pytest.raises(NoValidGroundingError):
        ground([s], [cand("entity", ":Nobody_Here"), cand("property", ":director")], kb)
    # a slot kind with no candidate skips the structure entirely
    with pytest.raises(NoValidGroundingError):
        ground([s], [cand("entity", ":S_Kubrick")], kb)


def test_returned_queries_execute_nonempty():
    kb = build_kb()
    structures = [scored("SELECT ?f WHERE { ?f :director :X }", 0.9, 5),
                  scored("SELECT ?p WHERE { :F :director ?p }", 0.5, 5)]
    candidates = [cand("entity", ":S_Kubrick"), cand("entity", ":The_Shining", 0.9),
                  cand("property", ":director")]
    results = ground(structures, candidates, kb, top_k=5)
    assert results
    for r in results:
        assert not execute(r.query, kb).is_empty


def test_results_carry_the_answers_grounding_computed():
    kb = build_kb()
    structures = [scored("SELECT ?f WHERE { ?f :director :X }", 0.9, 5),
                  scored("SELECT (COUNT(?f) AS ?c) WHERE { ?f :director :X }", 0.8, 5)]
    candidates = [cand("entity", ":S_Kubrick"), cand("entity", ":T_Burton", 0.9),
                  cand("property", ":director")]
    results = ground(structures, candidates, kb, top_k=5)
    assert any(r.answers.is_aggregate for r in results)
    for r in results:
        assert r.answers == execute(r.query, kb)
        assert not r.answers.is_empty


def test_merged_structure_tries_targets():
    kb = build_kb()
    g = parse_query("SELECT ?c WHERE { ?f :director :X . ?f :country ?c }")
    from kbqg.graph import QueryGraph

    no_target = QueryGraph(g.vertices, g.triples, None)
    s = ScoredStructure(canonical_key(no_target), no_target, 1.0, "merged", 0)
    candidates = [cand("entity", ":A_Varda"), cand("property", ":director"),
                  cand("property", ":country")]
    results = ground([s], candidates, kb, top_k=3)
    answers = [execute(r.query, kb) for r in results]
    assert any(a.values == {":France"} for a in answers)


def test_literal_extraction():
    cands = extract_literal_candidates('films longer than 120 minutes called "Duel"')
    symbols = {c.symbol for c in cands}
    assert symbols == {"120", "Duel"}
    assert all(c.kind == "literal" for c in cands)


def test_dictionary_linker_longest_match():
    linker = build_gazetteer()
    spans, candidates = linker.link("How many films did Stanley Kubrick direct?")
    surfaces = {c.mention.lower() for c in candidates}
    assert "stanley kubrick" in surfaces
    entity_symbols = {c.symbol for c in candidates if c.kind == "entity"}
    assert ":S_Kubrick" in entity_symbols
    assert any(s == (19, 34) for s in spans)
    prop_symbols = {c.symbol for c in candidates if c.kind == "property"}
    assert ":director" in prop_symbols


def test_dictionary_linker_keeps_a_repeated_row_once(tmp_path):
    linker = DictionaryLinker()
    linker.add("jaws", "entity", ":Jaws")
    linker.add("Jaws", "entity", ":Jaws")
    linker.add("JAWS", "class", ":Jaws")
    path = tmp_path / "gaz.tsv"
    path.write_text("jaws\tentity\t:Jaws\ndirected\tproperty\t:director\n"
                    "Jaws\tentity\t:Jaws\njaws\tentity\t:Jaws_2\n", encoding="utf-8")
    for one, symbols in [(linker, [("entity", ":Jaws"), ("class", ":Jaws")]),
                         (DictionaryLinker.from_file(path),
                          [("entity", ":Jaws"), ("entity", ":Jaws_2")])]:
        spans, candidates = one.link("who directed jaws?")
        assert spans == [(13, 17)]
        assert [(c.kind, c.symbol) for c in candidates if c.mention == "jaws"] == symbols


def test_candidate_file_roundtrip(tmp_path):
    from kbqg.grounding import load_candidates, save_candidates

    candidates = [
        LinkingCandidate("stanley kubrick", "entity", ":S_Kubrick", 1.0, (19, 34)),
        LinkingCandidate("stanley kubrick", "entity", ":S_King", 0.4, (19, 34)),
        LinkingCandidate("direct", "property", ":director", 1.0),
    ]
    path = tmp_path / "cands.json"
    save_candidates(candidates, path)
    back = load_candidates(path)
    assert {(c.mention, c.kind, c.symbol, c.score, c.span) for c in back} == \
        {(c.mention, c.kind, c.symbol, c.score, c.span) for c in candidates}


def test_with_distractors_scores_and_pools():
    rng = np.random.default_rng(3)
    base = [cand("entity", ":S_Kubrick")]
    pools = {"entity": [":S_Kubrick", ":T_Burton", ":Jaws", ":C_Nolan"]}
    out = with_distractors(base, pools, n=2, factor=0.9, rng=rng)
    assert len(out) == 3
    added = [c for c in out if c.symbol != ":S_Kubrick"]
    assert all(c.score == pytest.approx(0.9) for c in added)
    restricted = with_distractors(base, pools, 2, 0.9, rng,
                                  entity_pools={":S_Kubrick": [":T_Burton"]})
    assert {c.symbol for c in restricted} == {":S_Kubrick", ":T_Burton"}
