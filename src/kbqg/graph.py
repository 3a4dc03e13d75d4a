"""Vertex/edge-labeled query graphs.

A query is a finite set of directed, labeled triples over vertices that are
variables, entities, classes, literals or aggregation-result variables.
Edge labels are either one of the seven built-in properties (COUNT, AVG,
MAX, MIN, MAXATN, MINATN, ISA) or a user-defined property name.

Graphs are immutable after construction and hashable, so they can be used
as cache keys and shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

# ---------------------------------------------------------------------------
# vertex kinds

VARIABLE = "variable"
ENTITY = "entity"
CLASS = "class"
LITERAL = "literal"
AGG_RESULT = "agg_result"

VERTEX_KINDS = (VARIABLE, ENTITY, CLASS, LITERAL, AGG_RESULT)

# ---------------------------------------------------------------------------
# built-in edge labels

COUNT = "COUNT"
AVG = "AVG"
MAX = "MAX"
MIN = "MIN"
MAXATN = "MAXATN"
MINATN = "MINATN"
ISA = "ISA"

#: built-ins that connect a plain variable to an aggregation-result variable
AGG_CONNECTORS = frozenset({COUNT, AVG, MAX, MIN})
#: built-ins expressing an ORDER BY ... LIMIT 1 OFFSET N-1 selection
ORDER_LABELS = frozenset({MAXATN, MINATN})
#: every built-in label
BUILTIN_LABELS = AGG_CONNECTORS | ORDER_LABELS | {ISA}
#: labels counted against the max-aggregations cap of the merger
AGGREGATION_LABELS = AGG_CONNECTORS | ORDER_LABELS


class GraphError(ValueError):
    """Raised when a graph violates a structural invariant."""


@dataclass(frozen=True, slots=True)
class EdgeLabel:
    """Either a fixed built-in property or a user-defined property name."""

    builtin: str | None = None
    name: str | None = None

    def __post_init__(self):
        if (self.builtin is None) == (self.name is None):
            raise GraphError("edge label needs exactly one of builtin/name")
        if self.builtin is not None and self.builtin not in BUILTIN_LABELS:
            raise GraphError(f"unknown built-in label {self.builtin!r}")

    @property
    def is_builtin(self) -> bool:
        return self.builtin is not None

    def sort_key(self) -> tuple:
        if self.builtin is not None:
            return (0, self.builtin)
        return (1, self.name)

    def __str__(self) -> str:
        return self.builtin if self.builtin is not None else self.name


def builtin(label: str) -> EdgeLabel:
    return EdgeLabel(builtin=label)


def user(name: str) -> EdgeLabel:
    return EdgeLabel(name=name)


@dataclass(frozen=True, slots=True)
class Vertex:
    """One graph vertex.

    Variables and aggregation-result variables carry no surface symbol;
    entities, classes and literals carry one (a KB symbol in a concrete
    query, a placeholder such as ``Ent1`` in a query structure).
    """

    id: str
    kind: str
    surface: str | None = None

    def __post_init__(self):
        if self.kind not in VERTEX_KINDS:
            raise GraphError(f"unknown vertex kind {self.kind!r}")
        if self.kind in (VARIABLE, AGG_RESULT):
            if self.surface is not None:
                raise GraphError(f"{self.kind} vertex {self.id!r} must not have a surface")
        elif not self.surface:
            raise GraphError(f"{self.kind} vertex {self.id!r} needs a surface symbol")


@dataclass(frozen=True, slots=True)
class Triple:
    subject: str
    label: EdgeLabel
    object: str

    def sort_key(self) -> tuple:
        return (self.subject, self.label.sort_key(), self.object)

    def __str__(self) -> str:
        return f"<{self.subject}, {self.label}, {self.object}>"


@dataclass(frozen=True)
class QueryGraph:
    """An immutable query graph with an optional answer (target) vertex.

    Use :func:`build_graph` instead of the raw constructor; it normalizes
    ordering, deduplicates triples and checks the invariants.
    """

    vertices: tuple[Vertex, ...]
    triples: tuple[Triple, ...]
    target: str | None = None

    @cached_property
    def vertex_by_id(self) -> dict[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def user_labels(self) -> tuple[str, ...]:
        seen = []
        for t in self.triples:
            if not t.label.is_builtin and t.label.name not in seen:
                seen.append(t.label.name)
        return tuple(sorted(seen))

    @cached_property
    def order_values(self) -> dict[str, str]:
        """Vertex id -> surface, for literals that are MAXATN/MINATN objects.

        These values take part in structural equivalence; other surfaces
        do not.
        """
        out = {}
        for t in self.triples:
            if t.label.is_builtin and t.label.builtin in ORDER_LABELS:
                v = self.vertex_by_id[t.object]
                if v.kind == LITERAL:
                    out[t.object] = v.surface
        return out

    def kind_of(self, vid: str) -> str:
        return self.vertex_by_id[vid].kind

    @property
    def triple_count(self) -> int:
        return len(self.triples)

    @property
    def aggregation_count(self) -> int:
        return sum(1 for t in self.triples
                   if t.label.is_builtin and t.label.builtin in AGGREGATION_LABELS)

    def is_connected(self) -> bool:
        """Connectivity of the triple graph (triples adjacent iff they share a vertex)."""
        if not self.triples:
            return False
        by_vertex: dict[str, list[int]] = {}
        for i, t in enumerate(self.triples):
            by_vertex.setdefault(t.subject, []).append(i)
            by_vertex.setdefault(t.object, []).append(i)
        seen = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            t = self.triples[i]
            for vid in (t.subject, t.object):
                for j in by_vertex[vid]:
                    if j not in seen:
                        seen.add(j)
                        frontier.append(j)
        return len(seen) == len(self.triples)

    def __str__(self) -> str:
        body = ", ".join(str(t) for t in self.triples)
        tgt = f" -> {self.target}" if self.target else ""
        return "{" + body + "}" + tgt


def derive_var_kind(vid: str, triples) -> str:
    """A vertex is an aggregation result iff it is the object of COUNT/AVG/MAX/MIN."""
    for t in triples:
        if t.object == vid and t.label.is_builtin and t.label.builtin in AGG_CONNECTORS:
            return AGG_RESULT
    return VARIABLE


def build_graph(vertices, triples, target: str | None = None) -> QueryGraph:
    """Normalize and validate a query graph.

    Checks: unique vertex ids, non-empty triple set, triple endpoints
    present, no isolated vertices, surface rules per kind, and the
    derived variable/aggregation-result distinction. Duplicate triples
    are dropped silently.
    """
    verts = tuple(sorted(vertices, key=lambda v: v.id))
    ids = [v.id for v in verts]
    if len(set(ids)) != len(ids):
        raise GraphError("duplicate vertex ids")
    trips = tuple(sorted(set(triples), key=Triple.sort_key))
    if not trips:
        raise GraphError("a query graph needs at least one triple")
    by_id = {v.id: v for v in verts}
    used: set[str] = set()
    for t in trips:
        for vid in (t.subject, t.object):
            if vid not in by_id:
                raise GraphError(f"triple {t} references unknown vertex {vid!r}")
            used.add(vid)
    isolated = set(ids) - used
    if isolated:
        raise GraphError(f"isolated vertices: {sorted(isolated)}")
    for v in verts:
        if v.kind in (VARIABLE, AGG_RESULT) and derive_var_kind(v.id, trips) != v.kind:
            raise GraphError(
                f"vertex {v.id!r} has kind {v.kind} but the triples imply "
                f"{derive_var_kind(v.id, trips)}")
    if target is not None:
        if target not in by_id:
            raise GraphError(f"target {target!r} is not a vertex")
        if by_id[target].kind not in (VARIABLE, AGG_RESULT):
            raise GraphError("target must be a variable or an aggregation result")
    return QueryGraph(verts, trips, target)


def induced_subgraph(g: QueryGraph, triples) -> QueryGraph:
    """Subgraph on a subset of triples, with vertex kinds re-derived.

    Dropping an aggregation triple turns its result vertex back into a
    plain variable; surfaces and other kinds are intrinsic and kept.
    """
    trips = tuple(sorted(set(triples), key=Triple.sort_key))
    if not trips:
        raise GraphError("empty triple subset")
    keep = set()
    for t in trips:
        keep.add(t.subject)
        keep.add(t.object)
    verts = []
    for v in g.vertices:
        if v.id not in keep:
            continue
        if v.kind in (VARIABLE, AGG_RESULT):
            verts.append(Vertex(v.id, derive_var_kind(v.id, trips)))
        else:
            verts.append(v)
    target = g.target if g.target in keep else None
    if target is not None:
        kinds = {v.id: v.kind for v in verts}
        if kinds[target] not in (VARIABLE, AGG_RESULT):
            target = None
    return build_graph(verts, trips, target)
