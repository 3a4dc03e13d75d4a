"""Equivalence, substructure and canonical-form checks against the
brute-force bijection oracle."""

import gc
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbqg import canon, merging
from kbqg.canon import (
    CanonicalizationError,
    canonical_form,
    canonical_key,
    canonicalize,
    compile_graph,
    find_embedding,
    find_isomorphism,
    is_equivalent,
    is_substructure,
    key_prefix,
)
from kbqg.graph import (
    AGG_RESULT,
    BUILTIN_LABELS,
    COUNT,
    ENTITY,
    LITERAL,
    MAXATN,
    ORDER_LABELS,
    Triple,
    VARIABLE,
    Vertex,
    build_graph,
    builtin,
    induced_subgraph,
    user,
)
from kbqg.merging import merge_pair
from kbqg.sparql import parse_query

from .graphgen import random_graph, relabeled_copy
from .oracles import oracle_is_equivalent, oracle_is_substructure, reference_canonical_form

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

FIG_STYLE_COUNT_QUERY = (
    "SELECT (COUNT(?u) AS ?c) WHERE { ?u rdf:type :Film . ?u :director :T_Burton }")


def pool(seed, n, max_triples=5):
    rng = random.Random(seed)
    return [random_graph(rng, max_triples) for _ in range(n)]


def test_variable_renaming_is_equivalent():
    a = parse_query("SELECT ?x WHERE { ?x :p :E . ?x :q ?y }")
    b = parse_query("SELECT ?m WHERE { ?m :p :E . ?m :q ?n }")
    assert is_equivalent(a, b)
    assert canonical_key(a) == canonical_key(b)


def test_direction_distinguishes_the_two_simple_structures():
    a = parse_query("SELECT ?x WHERE { ?x :p :E }")
    b = parse_query("SELECT ?x WHERE { :E :p ?x }")
    assert not is_equivalent(a, b)
    assert canonical_key(a) != canonical_key(b)


def test_builtins_map_to_themselves():
    cnt = parse_query("SELECT (COUNT(?v) AS ?c) WHERE { ?v :p :E }")
    mx = parse_query("SELECT (MAX(?v) AS ?c) WHERE { ?v :p :E }")
    assert not is_equivalent(cnt, mx)
    assert not oracle_is_equivalent(cnt, mx)


def test_order_offset_participates_in_equivalence():
    a = parse_query("SELECT ?x WHERE { ?x :p ?y } ORDER BY DESC(?y) LIMIT 1 OFFSET 1")
    b = parse_query("SELECT ?x WHERE { ?x :p ?y } ORDER BY DESC(?y) LIMIT 1 OFFSET 2")
    c = parse_query("SELECT ?z WHERE { ?z :r ?w } ORDER BY DESC(?w) LIMIT 1 OFFSET 1")
    assert not is_equivalent(a, b)
    assert is_equivalent(a, c)


def test_witness_bijection_fixes_builtins():
    g1 = parse_query(FIG_STYLE_COUNT_QUERY)
    g2 = parse_query(
        "SELECT (COUNT(?m) AS ?k) WHERE { ?m rdf:type :Band . ?m :member :X }")
    f, g = find_isomorphism(g1, g2)
    assert f is not None
    for label, image in g.items():
        if label in BUILTIN_LABELS:
            assert image == label


def test_chain_relabelings_share_one_key():
    base = parse_query("SELECT ?a WHERE { ?a :p0 ?b . ?b :p1 ?c . ?c :p2 :E }")
    keys = set()
    names = ["?a", "?b", "?c"]
    for perm in permutations(["?x", "?y", "?z"]):
        rename = dict(zip(names, perm))
        verts = []
        for v in base.vertices:
            if v.kind == VARIABLE:
                verts.append(Vertex(rename[v.id], VARIABLE))
            else:
                verts.append(v)
        trips = [Triple(rename.get(t.subject, t.subject), t.label,
                        rename.get(t.object, t.object)) for t in base.triples]
        keys.add(canonical_key(build_graph(verts, trips, rename["?a"])))
    assert len(keys) == 1


def test_substructure_count_isa_within_full_structure():
    sub = parse_query("SELECT (COUNT(?v) AS ?c) WHERE { ?v rdf:type :Film }")
    full = parse_query(FIG_STYLE_COUNT_QUERY)
    assert is_substructure(sub, full)
    assert not is_substructure(full, sub)


def test_substructure_reflexive_and_disjoint_negative():
    g = parse_query(FIG_STYLE_COUNT_QUERY)
    assert is_substructure(g, g)
    two = parse_query("SELECT ?x WHERE { ?x :p ?y . ?y :q :E }")
    one = parse_query("SELECT ?x WHERE { ?x :r :F }")
    assert not is_substructure(two, one)
    assert oracle_is_substructure(two, one) is False


def test_equivalence_agrees_with_bruteforce_oracle():
    graphs = pool(101, 40)
    rng = random.Random(7)
    checked = 0
    for i in range(0, len(graphs) - 1, 2):
        a, b = graphs[i], graphs[i + 1]
        assert is_equivalent(a, b) == oracle_is_equivalent(a, b)
        checked += 1
        c = relabeled_copy(a, rng)
        assert is_equivalent(a, c)
        assert oracle_is_equivalent(a, c)
    assert checked >= 19


def test_canonical_key_agrees_with_equivalence_on_pool():
    graphs = pool(202, 24, max_triples=4)
    for i, a in enumerate(graphs):
        for b in graphs[i + 1:]:
            same_key = canonical_key(a) == canonical_key(b)
            assert same_key == is_equivalent(a, b)


def test_equivalence_is_an_equivalence_relation():
    rng = random.Random(33)
    graphs = pool(303, 12, max_triples=4)
    for g in graphs:
        assert is_equivalent(g, g)
    for g in graphs:
        h = relabeled_copy(g, rng)
        assert is_equivalent(g, h) and is_equivalent(h, g)
        k = relabeled_copy(h, rng)
        assert is_equivalent(g, k)


def test_substructure_partial_order_properties():
    graphs = pool(404, 14, max_triples=4)
    for g in graphs:
        assert is_substructure(g, g)
    for a in graphs[:8]:
        for b in graphs[:8]:
            if is_substructure(a, b) and is_substructure(b, a):
                assert is_equivalent(a, b)
    # transitivity on nested chains built by construction
    small = parse_query("SELECT ?x WHERE { ?x :p :E }")
    mid = parse_query("SELECT ?x WHERE { ?x :p :E . ?x :q ?y }")
    big = parse_query("SELECT ?x WHERE { ?x :p :E . ?x :q ?y . ?y :r :F }")
    assert is_substructure(small, mid) and is_substructure(mid, big)
    assert is_substructure(small, big)


def test_substructure_agrees_with_subset_oracle():
    rng = random.Random(55)
    graphs = pool(505, 16, max_triples=4)
    pairs = [(graphs[i], graphs[j]) for i in range(len(graphs))
             for j in rng.sample(range(len(graphs)), 3)]
    for a, b in pairs[:36]:
        assert is_substructure(a, b) == oracle_is_substructure(a, b)


def assert_embeds(a, b, witness):
    """The witness maps a's vertices and user labels one-to-one, fixes
    built-ins, and takes a's triples to distinct triples of b."""
    f, g = witness
    assert set(f) == {v.id for v in a.vertices}
    assert len(set(f.values())) == len(f)
    assert len({g[name] for name in a.user_labels}) == len(a.user_labels)
    assert all(g[t.label.builtin] == t.label.builtin for t in a.triples if t.label.is_builtin)
    image = {Triple(f[t.subject], t.label if t.label.is_builtin else user(g[t.label.name]),
                    f[t.object]) for t in a.triples}
    assert len(image) == len(a.triples) and image <= set(b.triples)


def offset_graph(rng):
    """A random graph with at least one MAXATN/MINATN offset literal."""
    while True:
        g = random_graph(rng, max_triples=3)
        if g.order_values:
            return g


def shares_an_offset(g):
    objects = [t.object for t in g.triples if t.label.builtin in ORDER_LABELS]
    return len(objects) != len(set(objects))


@settings(max_examples=100, deadline=None)
@given(seeds, seeds, seeds)
def test_substructure_of_a_merge_agrees_with_subset_oracle(seed_x, seed_y, seed_pick):
    # a merge may unify two offset literals of equal value, so a triple
    # subset can keep one ORDER edge onto that literal and drop the other
    rng = random.Random(seed_pick)
    x = offset_graph(random.Random(seed_x))
    y = offset_graph(random.Random(seed_y))
    merges = list(merge_pair(x, y).values())
    shared = [m for m in merges if shares_an_offset(m)]
    for b in rng.sample(shared, min(1, len(shared))) + [rng.choice(merges)]:
        part = induced_subgraph(b, rng.sample(b.triples, rng.randint(1, len(b.triples))))
        for a in (x, y, relabeled_copy(part, rng), random_graph(rng, max_triples=3)):
            found = is_substructure(a, b)
            assert found == oracle_is_substructure(a, b), (str(a), str(b))
            if found:
                assert_embeds(a, b, find_embedding(a, b))


def test_a_literal_that_is_both_an_offset_and_a_property_value():
    both = build_graph(
        [Vertex("?x", VARIABLE), Vertex("?y", VARIABLE), Vertex("n", LITERAL, "2")],
        [Triple("?x", user(":p"), "n"), Triple("?y", builtin(MAXATN), "n")])
    plain = build_graph([Vertex("?x", VARIABLE), Vertex("L", LITERAL, "Lit")],
                        [Triple("?x", user(":p"), "L")])

    def offset(value):
        return build_graph([Vertex("?y", VARIABLE), Vertex("m", LITERAL, value)],
                           [Triple("?y", builtin(MAXATN), "m")])

    for a, inside in ((plain, True), (offset("2"), True), (offset("3"), False)):
        assert is_substructure(a, both) is inside
        assert oracle_is_substructure(a, both) is inside
        assert not is_substructure(both, a)
    assert_embeds(plain, both, find_embedding(plain, both))


def test_a_plain_variable_may_map_to_an_aggregation_result():
    # without its COUNT edge, ?c is a plain variable of the subset
    counted = build_graph(
        [Vertex("?x", VARIABLE), Vertex("?c", AGG_RESULT), Vertex("e", ENTITY, ":E")],
        [Triple("?x", builtin(COUNT), "?c"), Triple("?c", user(":p"), "e")])
    plain = build_graph([Vertex("?v", VARIABLE), Vertex("f", ENTITY, ":F")],
                        [Triple("?v", user(":q"), "f")])
    assert is_substructure(plain, counted) and oracle_is_substructure(plain, counted)
    assert find_embedding(plain, counted)[0]["?v"] == "?c"
    assert not is_substructure(counted, plain)


def test_canonical_key_is_deterministic_and_stringy():
    g = parse_query(FIG_STYLE_COUNT_QUERY)
    k1 = canonical_key(g)
    k2 = canonical_key(parse_query(FIG_STYLE_COUNT_QUERY))
    assert k1.canonical == k2.canonical
    assert k1.triple_count == 3
    assert k1.agg_count == 1
    assert isinstance(k1.canonical, str) and k1.canonical


def test_value_mismatch_blocks_order_unification():
    a = build_graph(
        [Vertex("?x", VARIABLE), Vertex("n", "literal", "2")],
        [Triple("?x", builtin("MAXATN"), "n")], "?x")
    b = build_graph(
        [Vertex("?x", VARIABLE), Vertex("n", "literal", "3")],
        [Triple("?x", builtin("MAXATN"), "n")], "?x")
    assert not is_equivalent(a, b)
    assert not oracle_is_equivalent(a, b)


# ---------------------------------------------------------------------------
# the coded canonicalizer against the reference on dicts of tuple colours


def symmetric_graph(rng):
    """Two or three copies of a random graph that share one variable, or
    a cycle of variables on one label: refinement alone leaves cells of
    several atoms, so the search individualizes and visits several leaves."""
    copies = rng.randint(2, 3)
    if rng.random() < 0.3:
        ids = [f"?c{i}" for i in range(copies + 1)]
        return build_graph([Vertex(v, VARIABLE) for v in ids],
                           [Triple(ids[i], user(":p"), ids[(i + 1) % len(ids)])
                            for i in range(len(ids))], rng.choice([None, ids[0]]))
    g = random_graph(rng, max_triples=3)
    hubs = [v.id for v in g.vertices if v.kind == VARIABLE]
    hub = rng.choice(hubs) if hubs else None

    def copy_id(vid, i):
        return vid if vid == hub else f"{vid}_{i}"

    vertices = {copy_id(v.id, i): Vertex(copy_id(v.id, i), v.kind, v.surface)
                for i in range(copies) for v in g.vertices}
    triples = [Triple(copy_id(t.subject, i), t.label, copy_id(t.object, i))
               for i in range(copies) for t in g.triples]
    target = copy_id(g.target, 0) if g.target else None
    return build_graph(list(vertices.values()), triples, target)


def assert_matches_reference(g):
    key, rep, _leaves = reference_canonical_form(g)
    assert canonical_form.__wrapped__(g) == (key, rep), str(g)


@settings(max_examples=300, deadline=None)
@given(seeds)
def test_canonical_form_matches_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_graph(rng, max_triples=6)
    assert_matches_reference(g)
    assert_matches_reference(relabeled_copy(g, rng))


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_canonical_form_matches_reference_on_symmetric_graphs(seed):
    assert_matches_reference(symmetric_graph(random.Random(seed)))


def test_symmetric_graphs_take_several_leaves(monkeypatch):
    graphs = [symmetric_graph(random.Random(seed)) for seed in range(40)]
    several = [g for g in graphs if reference_canonical_form(g)[2] > 1]
    assert len(several) >= 10
    # the leaf budget is read when a search runs
    monkeypatch.setattr(canon, "MAX_LEAVES", 1)
    for g in several:
        with pytest.raises(CanonicalizationError):
            canonical_form.__wrapped__(g)


@settings(max_examples=150, deadline=None)
@given(seeds)
def test_canonical_form_matches_reference_with_offset_literals(seed):
    rng = random.Random(seed)
    g = offset_graph(rng)
    assert_matches_reference(g)
    assert_matches_reference(relabeled_copy(g, rng))


@settings(max_examples=60, deadline=None)
@given(seeds, seeds)
def test_every_merge_union_is_keyed_as_the_reference_keys_it(seed_x, seed_y):
    x = random_graph(random.Random(seed_x), max_triples=3)
    y = random_graph(random.Random(seed_y), max_triples=3)
    for key, union in merge_pair(x, y).items():
        ref_key, ref_rep, _leaves = reference_canonical_form(union)
        assert (ref_key, ref_rep) == (key, union)
        assert_matches_reference(union)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_every_key_starts_with_its_sorted_vertex_parts(seed):
    # the prefix that lets a merge skip a union sorting after the beam
    rng = random.Random(seed)
    g = random_graph(rng, max_triples=6)
    coded = [compile_graph(h) for h in (g, relabeled_copy(g, rng), symmetric_graph(rng),
                                        offset_graph(rng))]
    keys = [canonicalize(c)[0] for c in coded]
    real = merging.canonicalize

    def recorded(union):
        result = real(union)
        coded.append(union)
        keys.append(result[0])
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(merging, "canonicalize", recorded)
        merge_pair(random_graph(rng, max_triples=3), offset_graph(rng))
    for c, key in zip(coded, keys, strict=True):
        assert key.canonical.startswith(key_prefix(c.parts)), key.canonical


def test_matching_leaves_no_cyclic_garbage():
    rng = random.Random(7)
    graphs = [random_graph(rng, max_triples=4) for _ in range(10)]
    gc.collect()
    gc.disable()
    try:
        for a in graphs:
            for b in graphs:
                is_substructure(a, b)
                find_isomorphism(a, b)
        assert gc.collect() == 0
    finally:
        gc.enable()
