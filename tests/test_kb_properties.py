"""Property tests for the KB executor.

The join iterates index entries as they are, so its solutions come in no
fixed order. These tests check it against the nested-loop oracle on
random small KBs and random connected patterns, and check that every
answer, aggregates and MAXATN/MINATN included, stays the same when the
same facts are added in another order, and that adding facts never
shrinks the answer of a query without aggregation or ordering.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from kbqg.graph import (
    AGG_RESULT,
    AVG,
    CLASS,
    COUNT,
    ENTITY,
    ISA,
    LITERAL,
    MAX,
    MAXATN,
    MIN,
    MINATN,
    Triple,
    VARIABLE,
    Vertex,
    build_graph,
    builtin,
    user,
)
from kbqg.kb import KnowledgeBase, execute

from .oracles import oracle_execute_pattern

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

ENTITIES = [f":e{i}" for i in range(4)]
CLASSES = [":C0", ":C1"]
PROPERTIES = [":p0", ":p1"]
NUMERIC = ":n"
# repeated and mixed-width values, so that aggregates see duplicates and
# lexicographic and numeric order differ
NUMBERS = ["1", "2", "3", "10", "1.5"]

# the shape of one pattern triple: (label, subject end, object end); an end
# is "var" or the kind of constant it holds
SHAPES = [
    (ISA, ENTITY, CLASS),        # ISA, both ends bound
    (ISA, "var", CLASS),         # ISA with a bound class
    (ISA, ENTITY, "var"),        # ISA with a bound subject
    (ISA, "var", "var"),
    ("user", ENTITY, "var"),     # user triple bound at the subject
    ("user", "var", ENTITY),     # ... at the object
    ("user", ENTITY, ENTITY),    # ... at both ends
    ("user", "var", "var"),      # ... at neither end
    (NUMERIC, "var", "var"),
    (NUMERIC, ENTITY, "var"),
    (NUMERIC, "var", LITERAL),
]


def random_facts(rng: random.Random) -> list[tuple[str, str, str]]:
    facts = [(rng.choice(ENTITIES), rng.choice(PROPERTIES), rng.choice(ENTITIES))
             for _ in range(rng.randint(0, 30))]
    facts += [(rng.choice(ENTITIES), NUMERIC, rng.choice(NUMBERS))
              for _ in range(rng.randint(2, 12))]
    facts += [(rng.choice(ENTITIES), "a", rng.choice(CLASSES))
              for _ in range(rng.randint(2, 8))]
    return facts


def kb_of(facts) -> KnowledgeBase:
    kb = KnowledgeBase()
    for fact in facts:
        kb.add_fact(*fact)
    return kb


class PatternBuilder:
    """A random connected pattern, grown one triple at a time: after the
    first, each triple shares at least one vertex with the pattern."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.vertices: dict[str, Vertex] = {}
        self.triples: list[Triple] = []
        self.sealed: set[str] = set()   # vertices no later triple joins at

    def fresh(self, end: str) -> str:
        n = len(self.vertices)
        if end == "var":
            vid = f"?v{n}"
            self.vertices[vid] = Vertex(vid, VARIABLE)
        else:
            pool = {ENTITY: ENTITIES, CLASS: CLASSES, LITERAL: NUMBERS}[end]
            vid = f"c{n}"
            self.vertices[vid] = Vertex(vid, end, self.rng.choice(pool))
        return vid

    def existing(self, end: str) -> list[str]:
        kind = VARIABLE if end == "var" else end
        return [vid for vid, v in self.vertices.items()
                if v.kind == kind and vid not in self.sealed]

    def end(self, end: str, found: list[str], anchored: bool) -> str:
        if found and (anchored or self.rng.random() < 0.3):
            return self.rng.choice(found)
        return self.fresh(end)

    def add(self, label: str, s_end: str, o_end: str) -> tuple[str, str]:
        # the vertices there were before this triple; the anchor end joins
        # the pattern at one of them (either end can when both match)
        found = [self.existing(s_end), self.existing(o_end)]
        ends = [i for i in (0, 1) if found[i]]
        anchor = self.rng.choice(ends) if ends else None
        s = self.end(s_end, found[0], anchor == 0)
        o = self.end(o_end, found[1], anchor == 1)
        if label == ISA:
            edge = builtin(ISA)
        else:
            edge = user(self.rng.choice(PROPERTIES) if label == "user" else NUMERIC)
        self.triples.append(Triple(s, edge, o))
        return s, o

    def joinable(self, shape) -> bool:
        return not self.triples or any(self.existing(e) for e in shape[1:])


def random_query(rng: random.Random, op: str | None = None):
    """A connected pattern of 1-3 triples with a variable target. ``op``
    starts the pattern with a ``:n`` triple, grows it by 0-2 triples that
    do not join at the number, and adds an aggregate over the number
    (whose result is the target) or a MAXATN/MINATN triple on it."""
    b = PatternBuilder(rng)
    if op is not None:
        _, num = b.add(NUMERIC, "var", "var")
        b.sealed.add(num)
    while len(b.triples) < 3 and (not b.triples or rng.random() < 0.5):
        b.add(*rng.choice([shape for shape in SHAPES if b.joinable(shape)]))
    if op is None:
        if not b.existing("var"):
            b.add(NUMERIC, ENTITY, "var")
        return build_graph(b.vertices.values(), b.triples, rng.choice(b.existing("var")))
    variables = b.existing("var") + [num]
    if op in (MAXATN, MINATN):
        b.vertices["n"] = Vertex("n", LITERAL, str(rng.randint(1, 3)))
        b.triples.append(Triple(num, builtin(op), "n"))
        return build_graph(b.vertices.values(), b.triples, rng.choice(variables))
    arg = num if op != COUNT else rng.choice(variables)
    b.vertices["?agg"] = Vertex("?agg", AGG_RESULT)
    b.triples.append(Triple(arg, builtin(op), "?agg"))
    return build_graph(b.vertices.values(), b.triples, "?agg")


def outcome(q, kb):
    try:
        return execute(q, kb)
    except ValueError as e:
        return type(e).__name__


@settings(max_examples=300, deadline=None)
@given(seeds, seeds)
def test_execute_matches_nested_loop_oracle(kb_seed, query_seed):
    facts = random_facts(random.Random(kb_seed))
    q = random_query(random.Random(query_seed))
    assert q.is_connected()
    ans = execute(q, kb_of(facts))
    assert not ans.is_aggregate
    assert ans.values == frozenset(oracle_execute_pattern(q, facts)), str(q)


@settings(max_examples=300, deadline=None)
@given(seeds, seeds, seeds,
       st.sampled_from([None, COUNT, AVG, MAX, MIN, MAXATN, MINATN]))
def test_execute_ignores_fact_order(kb_seed, query_seed, shuffle_seed, op):
    facts = random_facts(random.Random(kb_seed))
    shuffled = facts[:]
    random.Random(shuffle_seed).shuffle(shuffled)
    q = random_query(random.Random(query_seed), op)
    assert q.is_connected()
    assert outcome(q, kb_of(facts)) == outcome(q, kb_of(shuffled)), str(q)


@settings(max_examples=300, deadline=None)
@given(seeds, seeds, seeds)
def test_adding_facts_never_shrinks_a_plain_answer(kb_seed, more_seed, query_seed):
    facts = random_facts(random.Random(kb_seed))
    more = facts + random_facts(random.Random(more_seed))
    q = random_query(random.Random(query_seed))
    before, after = execute(q, kb_of(facts)), execute(q, kb_of(more))
    assert not before.is_aggregate
    assert before.values <= after.values, str(q)
