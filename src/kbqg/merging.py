"""Building new query structures by merging frequent substructures.

A merge of two structures is a disjoint union in which zero or more
same-kind vertex pairs (never aggregation-result variables; offset
literals only with equal offsets) and zero or more user-defined
edge-label pairs are unified. Merging is applied iteratively: seed
candidates are the frequent substructures whose own score beats the
threshold; each round merges every predicted-contained substructure with
every current candidate, keeps results that are connected, small enough
and score above the threshold, and the final output is the union of all
rounds.

The work per round is cut in three ways, none of which changes the
output:

* Restrictions first. Connectivity, the triple cap tau and the
  aggregation cap delta do not change under renaming, so ``merge_pair``
  checks them on the raw union and canonicalizes only the survivors. A
  union with no unified vertex is always disconnected and is never
  built, one that unifies a vertex of two connected inputs is always
  connected and is not checked, and a vertex unification that cannot
  bring the union down to tau triples is skipped before any label
  unification is tried.
* Keys before representatives. ``merge_pair`` canonicalizes a union
  for its key only and keeps the first union found per key; the
  canonical representative is built only for the candidates that
  survive theta and the beam and enter the next round and the result.
* Known parts. A merge contains every frequent substructure that either
  input contains, so ``contained_frequent_keys`` is given those and
  tests only the others. The resulting containment pattern is scored
  exactly as ``rank_existing`` scores a mined structure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .canon import StructureKey, canonical_form, uncached_key
from .graph import (
    AGG_RESULT,
    AGGREGATION_LABELS,
    GraphError,
    QueryGraph,
    Triple,
    Vertex,
    build_graph,
    user,
)
from .mining import SubstructureCatalog, contained_frequent_keys, graph_to_json
from .ranking import MERGED, ScoredStructure, score_containment


@dataclass(frozen=True)
class MergeConfig:
    k_max: int = 2          # merge iterations
    theta: float = 0.3      # score threshold
    tau: int = 5            # max triples
    delta: int = 2          # max aggregations
    beam: int = 200         # best-scoring candidates kept per iteration

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        if self.tau < 1 or self.delta < 0:
            raise ValueError("bad tau/delta")


def passes_restrictions(g: QueryGraph, cfg: MergeConfig) -> bool:
    return (g.is_connected()
            and g.triple_count <= cfg.tau
            and g.aggregation_count <= cfg.delta)


def _rename_apart(b: QueryGraph) -> QueryGraph:
    """Prefix b's vertex ids and user label names so they are disjoint
    from any other structure's."""
    verts = [Vertex("b#" + v.id, v.kind, v.surface) for v in b.vertices]
    triples = []
    for t in b.triples:
        label = t.label if t.label.is_builtin else user("b#" + t.label.name)
        triples.append(Triple("b#" + t.subject, label, "b#" + t.object))
    return build_graph(verts, triples, "b#" + b.target if b.target else None)


def _unifiable(a: QueryGraph, va: Vertex, b: QueryGraph, vb: Vertex) -> bool:
    if va.kind != vb.kind or va.kind == AGG_RESULT:
        return False
    # offset literals only unify with offset literals of equal value
    return a.order_values.get(va.id, "") == b.order_values.get(vb.id, "")


def _injective(pairs) -> bool:
    return (len({p[0] for p in pairs}) == len(pairs)
            and len({p[1] for p in pairs}) == len(pairs))


def _unite(a: QueryGraph, b: QueryGraph, vmap: dict[str, str], lmap: dict[str, str],
           restrict: MergeConfig | None, connected: bool) -> QueryGraph | None:
    """The union of a and a renamed-apart b with b's vertices ``vmap``
    and user labels ``lmap`` identified with a's; None if it is not a
    valid graph or, given ``restrict``, fails the restrictions. With
    ``connected`` (both inputs are connected) a union that unifies a
    vertex is connected without a check."""
    triples = set(a.triples)
    for t in b.triples:
        label = t.label
        if not label.is_builtin and label.name in lmap:
            label = user(lmap[label.name])
        triples.add(Triple(vmap.get(t.subject, t.subject), label,
                           vmap.get(t.object, t.object)))
    if restrict is not None and (
            len(triples) > restrict.tau
            or sum(1 for t in triples if t.label.is_builtin
                   and t.label.builtin in AGGREGATION_LABELS) > restrict.delta):
        return None
    verts = list(a.vertices) + [v for v in b.vertices if v.id not in vmap]
    try:
        merged = build_graph(verts, triples, None)
    except GraphError:
        return None
    if restrict is not None and not (connected and vmap) and not merged.is_connected():
        return None
    return merged


def merge_pair(a: QueryGraph, b: QueryGraph,
               max_shared_vertices: int = 2,
               max_shared_labels: int = 1,
               restrict: MergeConfig | None = None,
               counts: Counter | None = None) -> dict[StructureKey, QueryGraph]:
    """All structures obtainable by unifying up to ``max_shared_vertices``
    vertex pairs and ``max_shared_labels`` user-label pairs of the disjoint
    union of a and b, deduplicated by canonical key: each key maps to the
    first union found with it, as built (not the canonical representative,
    which ``canonical_form`` gives).

    Without ``restrict`` the bare disjoint union is included. With it,
    only results that pass ``passes_restrictions(., restrict)`` are
    returned, and the others are rejected before canonicalization.
    ``counts``, when given, has ``generated`` increased by the number of
    unifications considered and ``failed_restrictions`` by those rejected
    unbuilt or uncanonicalized (restrictions, or not a valid graph).
    """
    b = _rename_apart(b)
    vertex_pairs = [(va.id, vb.id) for va in a.vertices for vb in b.vertices
                    if _unifiable(a, va, b, vb)]
    label_pairs = [(la, lb) for la in a.user_labels for lb in b.user_labels]
    label_maps = [{lb: la for la, lb in combo}
                  for l in range(max_shared_labels + 1)
                  for combo in combinations(label_pairs, l) if _injective(combo)]
    union_size = len(a.triples) + len(b.triples)
    connected = a.is_connected() and b.is_connected()

    out: dict[StructureKey, QueryGraph] = {}
    generated = failed = 0
    for k in range(max_shared_vertices + 1):
        for combo in combinations(vertex_pairs, k):
            if not _injective(combo):
                continue
            generated += len(label_maps)
            vmap = {vb: va for va, vb in combo}
            if restrict is not None:
                # only a b-triple with both ends unified can coincide with
                # an a-triple, so this is a lower bound on the result size
                shared = sum(1 for t in b.triples if t.subject in vmap and t.object in vmap)
                if k == 0 or union_size - shared > restrict.tau:
                    failed += len(label_maps)
                    continue
            for lmap in label_maps:
                merged = _unite(a, b, vmap, lmap, restrict, connected)
                if merged is None:
                    failed += 1
                    continue
                out.setdefault(uncached_key(merged), merged)
    if counts is not None:
        counts.update(generated=generated, failed_restrictions=failed)
    return out


ROUND_COUNTS = ("generated", "failed_restrictions", "duplicates", "below_theta",
                "cut_by_beam")


def merge_substructures(probs: dict[StructureKey, float],
                        catalog: SubstructureCatalog,
                        cfg: MergeConfig,
                        rounds_out: list | None = None) -> list[ScoredStructure]:
    """Iteratively merge predicted-contained frequent substructures.

    Seeds are the frequent substructures scoring above theta; each of the
    ``k_max`` rounds merges every substructure with predicted probability
    above 0.5 into every current candidate, keeps the connected results
    within the size and aggregation caps that score above theta, and the
    union over all rounds is returned (deduplicated by canonical key,
    best scores first).

    Passing a list as ``rounds_out`` collects one JSON-ready dict per
    round (the seed set and each iteration's survivors) for inspection.
    Each also counts what happened to the round's candidates; ``generated``
    equals the sum of the other counts in ``ROUND_COUNTS`` plus the number
    of members. ``generated`` and ``failed_restrictions`` count
    unifications (``merge_pair``'s counts; in the seed round, frequent
    substructures), ``duplicates`` those that gave a structure already
    seen this round, and the rest distinct structures.
    """
    reps = {k: e.representative for k, e in catalog.substructures.items()}
    patterns = dict(catalog.containment)
    scores: dict[StructureKey, float] = {}

    def record_round(label, members, counts):
        if rounds_out is None:
            return
        rounds_out.append({
            "round": label,
            **{name: counts[name] for name in ROUND_COUNTS},
            "members": [{"key": k.canonical, "score": scores[k],
                         "graph": graph_to_json(members[k])}
                        for k in sorted(members, key=StructureKey.sort_key)],
        })

    counts = Counter(generated=len(reps))
    current: dict[StructureKey, QueryGraph] = {}
    for key, rep in reps.items():
        if not passes_restrictions(rep, cfg):
            counts["failed_restrictions"] += 1
            continue
        scores[key] = score_containment(patterns[key], probs, catalog)
        if scores[key] > cfg.theta:
            current[key] = rep
        else:
            counts["below_theta"] += 1
    result: dict[StructureKey, QueryGraph] = dict(current)
    record_round(0, current, counts)

    contained = [key for key in catalog.frequent_keys if probs.get(key, 0.0) > 0.5]
    for _round in range(cfg.k_max):
        counts = Counter()
        seen: set[StructureKey] = set()
        merged: dict[StructureKey, QueryGraph] = {}
        for skey in contained:
            for mkey in sorted(current, key=StructureKey.sort_key):
                candidates = merge_pair(reps[skey], current[mkey],
                                        restrict=cfg, counts=counts)
                for ckey, crep in candidates.items():
                    if ckey in seen:
                        continue
                    seen.add(ckey)
                    if ckey not in scores:
                        patterns[ckey] = contained_frequent_keys(
                            crep, catalog, ckey, patterns[skey] | patterns[mkey])
                        scores[ckey] = score_containment(patterns[ckey], probs, catalog)
                    if scores[ckey] > cfg.theta:
                        merged[ckey] = crep
                    else:
                        counts["below_theta"] += 1
        counts["duplicates"] = counts["generated"] - counts["failed_restrictions"] - len(seen)
        if len(merged) > cfg.beam:
            counts["cut_by_beam"] = len(merged) - cfg.beam
            best_keys = sorted(merged, key=lambda k: (-scores[k], k.sort_key()))[:cfg.beam]
            merged = {k: merged[k] for k in best_keys}
        # only the survivors get their canonical representative
        merged = {k: canonical_form(g)[1] for k, g in merged.items()}
        result.update(merged)
        current = merged
        record_round(_round + 1, current, counts)
        if not current:
            break

    out = [ScoredStructure(key, rep, scores[key], MERGED)
           for key, rep in result.items()]
    out.sort(key=ScoredStructure.rank_key)
    return out
