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

The work per round is cut in four ways, none of which changes the
output:

* Restrictions first. Connectivity, the triple cap tau and the
  aggregation cap delta do not change under renaming, so ``merge_pair``
  checks them on the raw union and canonicalizes only the survivors. A
  union with no unified vertex is always disconnected and is never
  considered, one that unifies a vertex of two connected inputs is
  always connected and is not checked, and a vertex unification that
  cannot bring the union down to tau triples is skipped before any
  label unification is tried.
* Keys before graphs. ``merge_pair`` compiles its two inputs once
  (``canon.compile_graph``), assembles each union's integer triples
  from their index maps, checks the restrictions on them and
  canonicalizes the union in that coded form. It keeps, per key, the
  first coded union found and its best colouring, and decodes the
  canonical representative (``canon.representative``) only when the
  key is looked up. That is the representative ``canonical_form``
  gives the union, so it is never canonicalized again.
  ``merge_substructures`` looks up only keys that are new to the
  question, whose containment pattern it needs.
* Known parts. A merge contains every frequent substructure that either
  input contains, so ``contained_frequent_keys`` is given those and
  tests only the others. The resulting containment pattern is scored
  exactly as ``rank_existing`` scores a mined structure.
* Bounds before keys. Every union of two inputs contains the frequent
  substructures that either input contains, so its score is at most U,
  the score of those with every substructure predicted above 0.5 added:
  each other substructure then gets the larger of its two terms, and
  float addition and ``exp`` are non-decreasing, so the bound holds exactly,
  not just up to rounding. Once a round has ``beam`` members, let w be
  the last of its best ``beam`` (by score, then sort key); the round's
  ``beam``-th best member only gets better from then on. A union whose
  ``(-U, sort key)`` comes after w's ranks strictly behind it, so it
  cannot make the beam. Hence a pair whose U is at most theta or
  below w's score keys none of its unions, and a key new to the question
  that falls behind w is neither decoded nor scored. A pair whose U
  equals w's score keys only the unions that may sort before w
  (``merge_pair``'s ``last``). The canonical search never moves an atom
  out of its initial cell, so a key starts with its vertex parts in
  sorted order (``canon.key_prefix``), known before any search: a union
  with more triples than w, or as many and a prefix that sorts after
  the start of w's string, sorts after w and is not canonicalized.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations, product

from .canon import (
    AGGREGATION_CODES,
    CodedGraph,
    StructureKey,
    canonicalize,
    compile_graph,
    initial_colors,
    key_prefix,
    representative,
)
from .graph import AGG_RESULT, QueryGraph
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
        if self.beam < 1:
            raise ValueError("beam must be >= 1")


def passes_restrictions(g: QueryGraph, cfg: MergeConfig) -> bool:
    return (g.is_connected()
            and g.triple_count <= cfg.tau
            and g.aggregation_count <= cfg.delta)


def _injective(pairs) -> bool:
    return (len({p[0] for p in pairs}) == len(pairs)
            and len({p[1] for p in pairs}) == len(pairs))


def _connected(ends) -> bool:
    """Whether triples, given by their (subject, object) atoms, are
    connected through shared vertices."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for s, o in ends:
        parent[find(s)] = find(o)
    return len({find(x) for x in parent}) == 1


class _Unions(Mapping):
    """``merge_pair``'s result. It holds, per key, the coded form of the
    first union found with it and that union's best colouring, and
    decodes the representative when the key is looked up."""

    def __init__(self, found: dict[StructureKey, tuple[CodedGraph, list[int]]]):
        self._found = found

    def __getitem__(self, key: StructureKey) -> QueryGraph:
        return representative(*self._found[key])

    def __contains__(self, key) -> bool:
        return key in self._found

    def __iter__(self):
        return iter(self._found)

    def __len__(self) -> int:
        return len(self._found)


def merge_pair(a: QueryGraph, b: QueryGraph,
               max_shared_vertices: int = 2,
               max_shared_labels: int = 1,
               restrict: MergeConfig | None = None,
               counts: Counter | None = None,
               last: tuple[int, str] | None = None) -> Mapping[StructureKey, QueryGraph]:
    """All structures obtainable by unifying up to ``max_shared_vertices``
    vertex pairs and ``max_shared_labels`` user-label pairs of the disjoint
    union of a and b, deduplicated by canonical key: each key maps to its
    canonical representative, as ``canonical_form`` gives it.

    Every union is checked and keyed in coded form (``canon.CodedGraph``),
    and a representative is decoded only when its key is looked up, so a
    caller that reads only the keys builds no graph.

    Without ``restrict`` the bare disjoint union is included. With it,
    only results that pass ``passes_restrictions(., restrict)`` are
    returned, and the others are rejected before canonicalization.
    With ``last``, the sort key ``(n, L)`` of a structure w, a union
    that passes them is not keyed either when its key must sort after
    w's: when it has t triples and ``(t, P) > (n, L[:len(P)])``, where P
    is ``canon.key_prefix`` of its atoms' parts, the start of its key.
    Every key of at most w's sort key is still returned, so
    ``last=(0, "")`` keys nothing. ``counts``, when given, has
    ``generated`` increased by the number of unifications considered,
    ``failed_restrictions`` by those rejected and ``cut_by_bound`` by
    those not keyed for ``last``.
    """
    ca, cb = compile_graph(a), compile_graph(b)
    na = len(ca.colors)
    # a's and b's initial colours on one scale; a union has the atoms of
    # both but the unified b atoms, whose colours equal their partners'
    colors = initial_colors(ca.parts + cb.parts)
    a_colors, b_colors = colors[:na], colors[na:]
    # compiled atoms are the user labels, then the vertices; a vertex's
    # part is its kind initial and offset value, so two vertices unify
    # when their parts are equal and not an aggregation result's
    la, lb = len(a.user_labels), len(b.user_labels)
    vertex_pairs = [(i, j) for i in range(la, na) for j in range(lb, len(cb.parts))
                    if ca.parts[i] == cb.parts[j] != AGG_RESULT[0]]
    label_combos = [combo for l in range(max_shared_labels + 1)
                    for combo in combinations(product(range(la), range(lb)), l)
                    if _injective(combo)]
    a_triples = set(ca.triples)
    b_builtins = [(s, code, o) for s, p, code, o in cb.triples if p < 0]
    b_users = [(s, p, o) for s, p, _code, o in cb.triples if p >= 0]
    union_size = len(ca.triples) + len(cb.triples)
    connected = a.is_connected() and b.is_connected()

    found: dict[StructureKey, tuple[CodedGraph, list[int]]] = {}
    generated = failed = capped = 0
    for k in range(max_shared_vertices + 1):
        for combo in combinations(vertex_pairs, k):
            if not _injective(combo):
                continue
            generated += len(label_combos)
            index = {j: i for i, j in combo}
            if restrict is not None:
                # only a b-triple with both ends unified can coincide with
                # an a-triple, so this is a lower bound on the result size
                shared = sum(1 for s, _p, _c, o in cb.triples if s in index and o in index)
                if k == 0 or union_size - shared > restrict.tau:
                    failed += len(label_combos)
                    continue
            # the union's atoms: a's, b's other vertices, b's other labels;
            # the vertices and the built-in triples do not depend on the labels
            vertex_colors, vertex_parts = list(a_colors), list(ca.parts)
            for j in range(lb, len(cb.colors)):
                if j not in index:
                    index[j] = len(vertex_parts)
                    vertex_colors.append(b_colors[j])
                    vertex_parts.append(cb.parts[j])
            fixed = a_triples | {(index[s], -1, code, index[o]) for s, code, o in b_builtins}
            if restrict is not None and (
                    sum(1 for t in fixed if t[2] in AGGREGATION_CODES) > restrict.delta
                    or not (connected or _connected(
                        [(t[0], t[3]) for t in fixed]
                        + [(index[s], index[o]) for s, _p, o in b_users]))):
                failed += len(label_combos)
                continue
            # the most triples a union keyed here may have: the vertex
            # parts, and so the key prefix, do not depend on the labels
            cap = None
            if last is not None:
                prefix = key_prefix(vertex_parts)
                cap = last[0] - (prefix > last[1][:len(prefix)])
            nv = ca.nv + cb.nv - k
            for lcombo in label_combos:
                lindex = {j: i for i, j in lcombo}
                union_colors, parts = list(vertex_colors), list(vertex_parts)
                for j in range(lb):
                    if j not in lindex:
                        lindex[j] = len(parts)
                        union_colors.append(b_colors[j])
                        parts.append(None)
                triples = fixed | {(index[s], lindex[p], -1, index[o]) for s, p, o in b_users}
                if restrict is not None and len(triples) > restrict.tau:
                    failed += 1
                    continue
                if cap is not None and len(triples) > cap:
                    capped += 1
                    continue
                coded = CodedGraph(union_colors, parts, list(triples), nv)
                key, best = canonicalize(coded)
                found.setdefault(key, (coded, best))
    if counts is not None:
        counts.update(generated=generated, failed_restrictions=failed,
                      cut_by_bound=capped)
    return _Unions(found)


ROUND_COUNTS = ("generated", "failed_restrictions", "cut_by_bound", "duplicates",
                "below_theta", "cut_by_beam")


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
    substructures). ``cut_by_bound`` counts the unions that the score
    bound kept from being keyed and the new keys it kept from being
    scored, one per union that gave them (another pair may give such a
    key again). ``duplicates`` counts the other keyed unions whose
    structure an earlier union of the round gave, and ``below_theta``
    and ``cut_by_beam`` count distinct structures.
    """
    reps = {k: e.representative for k, e in catalog.substructures.items()}
    patterns = dict(catalog.containment)
    scores: dict[StructureKey, float] = {}
    # the representative of each scored key
    graphs: dict[StructureKey, QueryGraph] = dict(reps)

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
    likely = frozenset(contained)
    for _round in range(cfg.k_max):
        counts = Counter()
        seen: set[StructureKey] = set()
        merged: dict[StructureKey, QueryGraph] = {}
        # (-score, sort key) of the best ``beam`` members, best first
        ranked: list[tuple] = []
        for skey in contained:
            for mkey in sorted(current, key=StructureKey.sort_key):
                known = patterns[skey] | patterns[mkey]
                # U: the best score of any pattern that contains ``known``
                bound = score_containment(known | likely, probs, catalog)
                # the member that a union must beat, once the beam is full
                w = ranked[-1] if len(ranked) == cfg.beam else None
                last = None
                if bound <= cfg.theta or (w is not None and -w[0] > bound):
                    last = (0, "")
                elif w is not None and -w[0] >= bound:
                    last = w[1]
                candidates = merge_pair(reps[skey], current[mkey],
                                        restrict=cfg, counts=counts, last=last)
                for ckey in candidates:
                    if ckey in seen:
                        continue
                    if ckey not in scores:
                        if len(ranked) == cfg.beam and ranked[-1] < (-bound, ckey.sort_key()):
                            counts["cut_by_bound"] += 1
                            continue
                        graphs[ckey] = candidates[ckey]
                        patterns[ckey] = contained_frequent_keys(graphs[ckey], catalog,
                                                                 ckey, known)
                        scores[ckey] = score_containment(patterns[ckey], probs, catalog)
                    seen.add(ckey)
                    if scores[ckey] > cfg.theta:
                        merged[ckey] = graphs[ckey]
                        insort(ranked, (-scores[ckey], ckey.sort_key()))
                        del ranked[cfg.beam:]
                    else:
                        counts["below_theta"] += 1
        counts["duplicates"] = (counts["generated"] - counts["failed_restrictions"]
                                - counts["cut_by_bound"] - len(seen))
        if len(merged) > cfg.beam:
            counts["cut_by_beam"] = len(merged) - cfg.beam
            best_keys = sorted(merged, key=lambda k: (-scores[k], k.sort_key()))[:cfg.beam]
            merged = {k: merged[k] for k in best_keys}
        result.update(merged)
        current = merged
        record_round(_round + 1, current, counts)
        if not current:
            break

    out = [ScoredStructure(key, rep, scores[key], MERGED)
           for key, rep in result.items()]
    out.sort(key=ScoredStructure.rank_key)
    return out
