import gc
import random
from fractions import Fraction

import pytest

from kbqg.graph import ISA, LITERAL, Triple, VARIABLE, Vertex, build_graph, builtin, user
from kbqg.io import InputError, read_rows
from kbqg.kb import (
    AnswerSet,
    KnowledgeBase,
    NonNumericAggregateError,
    UnboundTargetError,
    check_domain_range,
    execute,
    load_kb,
    load_schema,
)
from kbqg.sparql import parse_query
from kbqg.toydata import data_dir

from .graphgen import random_graph
from .oracles import oracle_execute_pattern


def small_kb():
    kb = KnowledgeBase()
    kb.add_fact(":The_Shining", ":director", ":S_Kubrick")
    kb.add_fact(":Barry_Lyndon", ":director", ":S_Kubrick")
    kb.add_fact(":Space_Odyssey", ":director", ":S_Kubrick")
    kb.add_fact(":Ed_Wood", ":director", ":T_Burton")
    for f in (":The_Shining", ":Barry_Lyndon", ":Space_Odyssey", ":Ed_Wood"):
        kb.add_fact(f, "a", ":Film")
    kb.add_fact(":S_Kubrick", "a", ":Person")
    kb.add_fact(":T_Burton", "a", ":Person")
    return kb


def test_load_kb_counts_and_types(tmp_path):
    path = tmp_path / "kb.tsv"
    path.write_text(":a\t:p\t:b\n:a\t:p\t:c\n:a\ta\t:C\n:a\t:p\t:b\n"
                    "# comment\n:d\t:q\t:e\n", encoding="utf-8")
    kb = load_kb(path)
    assert kb.fact_count == 4  # duplicate collapsed; the type fact counts
    assert kb.classes_of(":a") == {":C"}


def test_load_kb_reports_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(":a\t:p\t:b\nonly two\n", encoding="utf-8")
    with pytest.raises(InputError, match="2"):
        load_kb(path)


def test_load_kb_rejects_space_separated_line(tmp_path):
    path = tmp_path / "spaces.tsv"
    path.write_text(":a\t:p\t:b\n:c :p :d\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"{path}:2:"):
        load_kb(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_kb_leaves_gc_state_as_it_was(tmp_path, enabled):
    good = tmp_path / "kb.tsv"
    good.write_text(":a\t:p\t:b\n:a\ta\t:C\n", encoding="utf-8")
    bad = tmp_path / "bad.tsv"
    bad.write_text(":a\t:p\t:b\nonly two\n", encoding="utf-8")
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert load_kb(good).classes_of(":a") == {":C"}
        assert gc.isenabled() is enabled
        with pytest.raises(InputError):
            load_kb(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_class_index_matches_types():
    path = data_dir() / "toy_kb.tsv"
    kb = load_kb(path)
    types = {tuple(parts) for _, parts in read_rows(path) if parts[1] == "a"}

    def by_scan(cls):
        return {e for e, _, c in types if c == cls}

    classes = {c for _, _, c in types}
    assert classes
    for cls in classes:
        assert kb.entities_of_class(cls) == by_scan(cls)
    cls = sorted(classes)[0]
    member = sorted(kb.entities_of_class(cls))[0]
    added = [(":New_Entity", "a", cls), (member, "a", cls),   # a repeated type fact
             (":New_Entity", "a", ":New_Class")]
    for fact in added:
        kb.add_fact(*fact)
    types.update(added)
    for c in classes | {":New_Class"}:
        assert kb.entities_of_class(c) == by_scan(c)
    assert ":New_Entity" in kb.entities_of_class(cls)
    assert kb.entities_of_class(":No_Such_Class") == set()


def test_load_schema(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("domain :director :Film\nrange :director :Person\n"
                    "disjoint :Film :Person\n", encoding="utf-8")
    schema = load_schema(path)
    assert schema.domains[":director"] == ":Film"
    assert schema.are_disjoint(":Person", ":Film")
    path2 = tmp_path / "bad.txt"
    path2.write_text("oops :p :c\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_schema(path2)


def test_count_query_on_fixture():
    kb = small_kb()
    q = parse_query("SELECT (COUNT(?u) AS ?c) WHERE "
                    "{ ?u rdf:type :Film . ?u :director :S_Kubrick }")
    ans = execute(q, kb)
    assert ans.is_aggregate and ans.aggregate == 3
    assert not ans.is_empty


def test_empty_pattern_result():
    kb = small_kb()
    q = parse_query("SELECT ?x WHERE { ?x :director :Nobody }")
    ans = execute(q, kb)
    assert ans.is_empty and ans.values == frozenset()


def test_maxatn_selects_nth_largest():
    kb = KnowledgeBase()
    for person, height in ((":a", "190"), (":b", "185"), (":c", "180")):
        kb.add_fact(person, ":height", height)
    q = parse_query("SELECT ?h WHERE { ?p :height ?h } "
                    "ORDER BY DESC(?h) LIMIT 1 OFFSET 1")
    assert execute(q, kb).values == frozenset({"185"})
    # MINATN with N=1 is the smallest
    q2 = parse_query("SELECT ?h WHERE { ?p :height ?h } ORDER BY ASC(?h) LIMIT 1")
    assert execute(q2, kb).values == frozenset({"180"})
    # offset beyond the rows: empty
    q3 = parse_query("SELECT ?h WHERE { ?p :height ?h } "
                     "ORDER BY DESC(?h) LIMIT 1 OFFSET 9")
    assert execute(q3, kb).is_empty


def test_maxatn_n1_equals_max_row():
    kb = KnowledgeBase()
    for f, r in ((":x", "10"), (":y", "25"), (":z", "17")):
        kb.add_fact(f, ":runtime", r)
    top = parse_query("SELECT ?f WHERE { ?f :runtime ?r } ORDER BY DESC(?r) LIMIT 1")
    assert execute(top, kb).values == frozenset({":y"})


def test_avg_is_exact_fraction():
    kb = KnowledgeBase()
    for f, r in ((":x", "1"), (":y", "2")):
        kb.add_fact(f, ":runtime", r)
    q = parse_query("SELECT (AVG(?r) AS ?a) WHERE { ?f :runtime ?r }")
    assert execute(q, kb).aggregate == Fraction(3, 2)


def test_non_numeric_aggregate_raises():
    kb = small_kb()
    q = parse_query("SELECT (AVG(?p) AS ?a) WHERE { ?f :director ?p }")
    with pytest.raises(NonNumericAggregateError):
        execute(q, kb)


def test_count_zero_reads_as_empty_answer():
    kb = small_kb()
    q = parse_query("SELECT (COUNT(?u) AS ?c) WHERE { ?u :director :Nobody }")
    ans = execute(q, kb)
    assert ans.aggregate == 0 and ans.is_empty


def test_unbound_target():
    verts = [Vertex("?x", VARIABLE), Vertex("?y", VARIABLE), Vertex("?z", VARIABLE),
             Vertex("e", "entity", ":E")]
    trips = [Triple("?x", user(":p"), "e"), Triple("?y", user(":p"), "?z")]
    g = build_graph(verts, trips, "?x")
    kb = KnowledgeBase()
    kb.add_fact(":A", ":p", ":E")
    kb.add_fact(":B", ":p", ":C")
    assert execute(g, kb).values == frozenset({":A"})


def test_execute_agrees_with_nested_loop_oracle():
    rng = random.Random(99)
    symbols = [f":s{i}" for i in range(12)]
    facts = [(rng.choice(symbols), f":p{rng.randint(0, 2)}", rng.choice(symbols))
             for _ in range(300)]
    facts += [(s, "a", f":C{rng.randint(0, 1)}") for s in symbols[:6]]
    kb = KnowledgeBase()
    for fact in facts:
        kb.add_fact(*fact)

    checked = 0
    for _ in range(90):
        g = random_graph(rng, max_triples=3)
        if g.aggregation_count or g.target is None:
            continue
        # remap surfaces into KB symbols so joins sometimes succeed
        verts = []
        for v in g.vertices:
            if v.kind == "entity":
                verts.append(Vertex(v.id, v.kind, rng.choice(symbols)))
            elif v.kind == "class":
                verts.append(Vertex(v.id, v.kind, f":C{rng.randint(0, 1)}"))
            elif v.kind == LITERAL:
                verts.append(Vertex(v.id, v.kind, rng.choice(symbols)))
            else:
                verts.append(v)
        g = build_graph(verts, g.triples, g.target)
        try:
            got = execute(g, kb).values
        except UnboundTargetError:
            continue
        assert got == frozenset(oracle_execute_pattern(g, facts))
        checked += 1
    assert checked >= 25


def test_type_facts_are_seen_only_by_isa():
    kb = KnowledgeBase()
    kb.add_fact(":x", "a", ":C")
    kb.add_fact(":x", "a", ":C")          # a repeated type fact
    kb.add_fact(":x", ":p", ":y")
    kb.add_fact(":x", ":p", ":y")         # a repeated fact
    assert kb.fact_count == 2
    verts = [Vertex("?s", VARIABLE), Vertex("?o", VARIABLE)]
    for label in (user("a"), user("ISA"), user(":p"), builtin(ISA)):
        g = build_graph(verts, [Triple("?s", label, "?o")], "?o")
        expected = {":C"} if label.is_builtin else {":y"} if label.name == ":p" else set()
        assert execute(g, kb).values == frozenset(expected), label


def test_monotone_under_added_facts():
    kb = KnowledgeBase()
    kb.add_fact(":a", ":p", ":b")
    q = parse_query("SELECT ?x WHERE { ?x :p ?y }")
    before = execute(q, kb).values
    kb.add_fact(":c", ":p", ":d")
    after = execute(q, kb).values
    assert before <= after


def test_domain_range_checks():
    kb = small_kb()
    kb.schema.domains[":director"] = ":Film"
    kb.schema.ranges[":director"] = ":Person"
    kb.schema.disjoint.add(frozenset((":Film", ":Person")))

    # entity subject whose classes lack the domain class
    bad = parse_query("SELECT ?v WHERE { :S_Kubrick :director ?v }")
    assert check_domain_range(bad, kb) is False
    good = parse_query("SELECT ?v WHERE { :The_Shining :director ?v }")
    assert check_domain_range(good, kb) is True

    # property without declarations imposes nothing
    free = parse_query("SELECT ?v WHERE { :S_Kubrick :unknown ?v }")
    assert check_domain_range(free, kb) is True

    # one variable pulled into two disjoint classes
    conflict = parse_query("SELECT ?x WHERE { ?x :director ?p . ?p :director ?q }")
    assert check_domain_range(conflict, kb) is False


def test_answerset_equality():
    assert AnswerSet(values=frozenset({"a"})) == AnswerSet(values=frozenset({"a"}))
    assert AnswerSet(aggregate=3, is_aggregate=True) == \
        AnswerSet(aggregate=Fraction(3), is_aggregate=True)
    assert AnswerSet(aggregate=3, is_aggregate=True) != AnswerSet(values=frozenset({"3"}))
