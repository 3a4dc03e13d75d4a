"""Mining query structures and frequent connected query substructures.

From a corpus of (question, query) training pairs we collect the set of
all query structures (one entry per equivalence class, with counts) and
the set of substructures contained in more than ``gamma`` distinct
training queries. Substructures are generated exhaustively from the
non-empty, connected subsets of each query's triples; disconnected
subsets are skipped.
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


@dataclass(frozen=True)
class CatalogEntry:
    key: StructureKey
    representative: QueryGraph
    count: int


@dataclass
class SubstructureCatalog:
    """Mined structures (TS), frequent substructures (FS*) and containment.

    ``containment[s]`` is the set of frequent-substructure keys contained
    in structure ``s``; it is the sufficient statistic for scoring.
    """

    gamma: int
    structures: dict[StructureKey, CatalogEntry] = field(default_factory=dict)
    substructures: dict[StructureKey, CatalogEntry] = field(default_factory=dict)
    containment: dict[StructureKey, frozenset[StructureKey]] = field(default_factory=dict)

    @property
    def frequent_keys(self) -> list[StructureKey]:
        return sorted(self.substructures, key=StructureKey.sort_key)

    def structure_entries(self) -> list[CatalogEntry]:
        return [self.structures[k] for k in sorted(self.structures, key=StructureKey.sort_key)]


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
    containment: dict[StructureKey, frozenset[StructureKey]] = {}
    for key, entry in structures.items():
        contained = set(enumerate_substructures(entry.representative))
        containment[key] = frozenset(k for k in frequent if k in contained)
    return SubstructureCatalog(gamma, structures, frequent, containment)


def contained_frequent_keys(g: QueryGraph, catalog: SubstructureCatalog) -> frozenset[StructureKey]:
    """Frequent-substructure keys contained in ``g``: its mined
    containment row, or else those that embed in ``g``."""
    row = catalog.containment.get(canonical_key(g))
    if row is not None:
        return row
    return frozenset(k for k, e in catalog.substructures.items()
                     if is_substructure(e.representative, g))


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
    subs = catalog.frequent_keys
    sub_index = {k: i for i, k in enumerate(subs)}
    doc = {
        "version": CATALOG_VERSION,
        "gamma": catalog.gamma,
        "structures": [
            {"key": key_to_json(e.key), "count": e.count,
             "representative": graph_to_json(e.representative)}
            for e in catalog.structure_entries()],
        "substructures": [
            {"key": key_to_json(catalog.substructures[k].key),
             "count": catalog.substructures[k].count,
             "representative": graph_to_json(catalog.substructures[k].representative)}
            for k in subs],
        "containment": {
            e.key.canonical: sorted(sub_index[k] for k in catalog.containment[e.key])
            for e in catalog.structure_entries()},
    }
    write_json(path, doc)


def load_catalog(path) -> SubstructureCatalog:
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
                    table[key] = CatalogEntry(key, graph_from_json(item["representative"]),
                                              item["count"])
    subs = list(tables["substructures"])
    by_canonical = {k.canonical: k for k in tables["structures"]}
    containment = {}
    with located(path, "containment"):
        for canon, indices in doc["containment"].items():
            containment[by_canonical[canon]] = frozenset(subs[i] for i in indices)
    with located(path, "gamma"):
        return SubstructureCatalog(doc["gamma"], tables["structures"],
                                   tables["substructures"], containment)
