"""Mining query structures and frequent connected query substructures.

From a corpus of (question, query) training pairs we collect the set of
all query structures (one entry per equivalence class, with counts) and
the set of substructures contained in more than ``gamma`` distinct
training queries. Substructures are generated exhaustively from the
non-empty, connected subsets of each query's triples to tally them;
disconnected subsets are skipped. Which frequent substructures a
structure contains is decided by ``contained_frequent_keys`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .canon import StructureKey, canonical_form, canonical_key, is_substructure
from .graph import (
    EdgeLabel,
    QueryGraph,
    Triple,
    Vertex,
    build_graph,
    induced_subgraph,
)
from .io import located, read_json, write_json

#: queries larger than this are rejected rather than enumerated (2^n subsets)
MAX_TRIPLES = 12


class EmptyTrainingDataError(ValueError):
    pass


class QueryTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class Mention:
    """A gold entity-mention annotation: [start, end) character span."""

    start: int
    end: int
    surface: str

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(f"bad mention span [{self.start}, {self.end})")


@dataclass(frozen=True)
class TrainingPair:
    question: str
    query: QueryGraph
    mentions: tuple[Mention, ...] = ()
    qid: str | None = None

    def __post_init__(self):
        spans = sorted((m.start, m.end) for m in self.mentions)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            if s2 < e1:
                raise ValueError("overlapping mentions")
        for m in self.mentions:
            if m.end > len(self.question):
                raise ValueError("mention span outside question")
            if self.question[m.start:m.end] != m.surface:
                raise ValueError(f"mention surface {m.surface!r} is not the question "
                                 f"text {self.question[m.start:m.end]!r} at [{m.start}, {m.end})")


@dataclass(frozen=True)
class CatalogEntry:
    key: StructureKey
    representative: QueryGraph
    count: int


@dataclass
class SubstructureCatalog:
    """Mined structures (TS), frequent substructures (FS*) and containment.

    Both tables are kept smallest first. ``containment[s]`` is the set of
    frequent-substructure keys contained in ``s``, for every mined
    structure and every frequent substructure; it is the sufficient
    statistic for scoring. The rows are derived with
    ``contained_frequent_keys``, each from the rows of strictly smaller
    frequent substructures.
    """

    gamma: int
    structures: dict[StructureKey, CatalogEntry] = field(default_factory=dict)
    substructures: dict[StructureKey, CatalogEntry] = field(default_factory=dict)
    containment: dict[StructureKey, frozenset[StructureKey]] = field(init=False)

    def __post_init__(self):
        self.structures = {k: self.structures[k]
                           for k in sorted(self.structures, key=StructureKey.sort_key)}
        self.substructures = {k: self.substructures[k]
                              for k in sorted(self.substructures, key=StructureKey.sort_key)}
        self.containment = {}
        for table in (self.substructures, self.structures):
            for key, e in table.items():
                self.containment[key] = contained_frequent_keys(e.representative, self, key)

    @property
    def frequent_keys(self) -> list[StructureKey]:
        return list(self.substructures)


def collect_structures(pairs) -> dict[StructureKey, CatalogEntry]:
    """All query structures in the corpus, with per-structure query counts.

    The stored representative is the canonically renamed placeholder form
    of the first query seen for each structure.
    """
    out: dict[StructureKey, CatalogEntry] = {}
    for pair in pairs:
        key, rep = canonical_form(pair.query)
        if key in out:
            entry = out[key]
            out[key] = CatalogEntry(key, entry.representative, entry.count + 1)
        else:
            out[key] = CatalogEntry(key, rep, 1)
    return out


def enumerate_substructures(g: QueryGraph) -> dict[StructureKey, QueryGraph]:
    """One representative per distinct structure among the connected,
    non-empty triple subsets of ``g`` (including ``g`` itself when it is
    connected)."""
    n = len(g.triples)
    if n > MAX_TRIPLES:
        raise QueryTooLargeError(f"{n} triples (limit {MAX_TRIPLES})")
    triples = list(g.triples)
    adj: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = triples[i], triples[j]
            if {a.subject, a.object} & {b.subject, b.object}:
                adj[i].add(j)
                adj[j].add(i)

    out: dict[StructureKey, QueryGraph] = {}
    # grow connected subsets from each start triple, only adding triples with
    # a higher index than the start to avoid revisiting
    seen: set[frozenset[int]] = set()
    stack: list[frozenset[int]] = [frozenset([i]) for i in range(n)]
    seen.update(stack)
    while stack:
        subset = stack.pop()
        sub = induced_subgraph(g, [triples[i] for i in subset])
        sub = QueryGraph(sub.vertices, sub.triples, None)
        key, rep = canonical_form(sub)
        out.setdefault(key, rep)
        frontier = set().union(*(adj[i] for i in subset)) - subset
        for j in frontier:
            nxt = subset | {j}
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return out


def tally_substructures(pairs) -> dict[StructureKey, CatalogEntry]:
    """Count, for every substructure, the number of distinct training
    queries containing it (a query containing it twice counts once)."""
    out: dict[StructureKey, CatalogEntry] = {}
    for pair in pairs:
        for key, rep in enumerate_substructures(pair.query).items():
            if key in out:
                entry = out[key]
                out[key] = CatalogEntry(key, entry.representative, entry.count + 1)
            else:
                out[key] = CatalogEntry(key, rep, 1)
    return out


def mine(pairs, gamma: int) -> SubstructureCatalog:
    """Build the structure/substructure catalog at frequency threshold gamma.

    A substructure is frequent when strictly more than ``gamma`` distinct
    training queries contain it.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyTrainingDataError("no training pairs")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    structures = collect_structures(pairs)
    tally = tally_substructures(pairs)
    frequent = {k: e for k, e in tally.items() if e.count > gamma}
    return SubstructureCatalog(gamma, structures, frequent)


def contained_frequent_keys(g: QueryGraph, catalog: SubstructureCatalog,
                            key: StructureKey | None = None,
                            known: frozenset[StructureKey] = frozenset()
                            ) -> frozenset[StructureKey]:
    """Frequent-substructure keys contained in ``g``, whose structure key
    is ``key`` (default: ``canonical_key(g)``): its catalog row if it has
    one, or else those that embed in ``g``.

    ``known`` are frequent substructures that ``g`` is known to contain:
    a merge contains every one that either input contains. Each other
    frequent substructure is embedded into ``g`` (``is_substructure``),
    smallest first, instead of enumerating and canonicalizing every
    connected triple subset of ``g``. By downward closure, a substructure
    with an absent frequent part is absent without a test, and a present
    one brings its frequent parts along. An embedding of a substructure
    as large as ``g`` covers all of ``g``, so at that size only ``g``'s
    own structure can be contained.
    """
    if key is None:
        key = canonical_key(g)
    row = catalog.containment.get(key)
    if row is not None:
        return row
    size = g.triple_count
    found = set(known)
    absent: set[StructureKey] = set()
    for k, entry in catalog.substructures.items():
        if k.triple_count >= size:
            break
        if k in found:
            continue
        parts = catalog.containment[k]
        if not parts & absent and is_substructure(entry.representative, g):
            found |= parts
        else:
            absent.add(k)
    if key in catalog.substructures:
        found.add(key)
    return frozenset(found)


# ---------------------------------------------------------------------------
# JSON persistence

CATALOG_VERSION = 1


def graph_to_json(g: QueryGraph) -> dict:
    return {
        "vertices": [[v.id, v.kind, v.surface] for v in g.vertices],
        "triples": [[t.subject,
                     ["b", t.label.builtin] if t.label.is_builtin else ["u", t.label.name],
                     t.object] for t in g.triples],
        "target": g.target,
    }


def graph_from_json(doc: dict) -> QueryGraph:
    vertices = [Vertex(vid, kind, surface) for vid, kind, surface in doc["vertices"]]
    triples = []
    for s, (tag, name), o in doc["triples"]:
        label = EdgeLabel(builtin=name) if tag == "b" else EdgeLabel(name=name)
        triples.append(Triple(s, label, o))
    return build_graph(vertices, triples, doc.get("target"))


def key_to_json(key: StructureKey) -> dict:
    return {"canonical": key.canonical, "triple_count": key.triple_count,
            "agg_count": key.agg_count}


def key_from_json(doc: dict) -> StructureKey:
    return StructureKey(doc["canonical"], doc["triple_count"], doc["agg_count"])


def save_catalog(catalog: SubstructureCatalog, path) -> None:
    """Write the two tables; the containment rows are derived on load."""
    doc = {"version": CATALOG_VERSION, "gamma": catalog.gamma}
    for name in ("structures", "substructures"):
        doc[name] = [{"key": key_to_json(e.key), "count": e.count,
                      "representative": graph_to_json(e.representative)}
                     for e in getattr(catalog, name).values()]
    write_json(path, doc)


def load_catalog(path) -> SubstructureCatalog:
    """Read a catalog file; a ``containment`` field of older files is
    ignored. Each key must be its representative's canonical key."""
    doc = read_json(path, CATALOG_VERSION)
    tables: dict[str, dict[StructureKey, CatalogEntry]] = {}
    for name in ("structures", "substructures"):
        table = tables[name] = {}
        with located(path, name):
            for i, item in enumerate(doc[name]):
                with located(path, f"{name}[{i}]"):
                    key = key_from_json(item["key"])
                    if key in table:
                        raise ValueError(f"duplicate key {key.canonical!r}")
                    rep = graph_from_json(item["representative"])
                    if canonical_key(rep) != key:
                        raise ValueError(f"key {key.canonical!r} is not the key of "
                                         "its representative")
                    table[key] = CatalogEntry(key, rep, item["count"])
    with located(path, "gamma"):
        gamma = doc["gamma"]
    with located(path, "containment"):
        return SubstructureCatalog(gamma, tables["structures"], tables["substructures"])
