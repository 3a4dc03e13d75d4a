"""Structural equivalence, substructure testing and canonical forms.

Two query graphs are structurally equivalent when there is a vertex
bijection f and an edge-label bijection g such that (i) f preserves the
vertex kind (and, for MAXATN/MINATN offset literals, the offset value),
(ii) g maps user-defined properties to user-defined properties and fixes
every built-in, and (iii) the triple sets correspond exactly under (f, g).
A graph ``a`` is a substructure of ``b`` when some subset of b's
triples, with vertex kinds re-derived, is equivalent to ``a``. One
backtracking search (VF2-style; Cordella et al., TPAMI 2004),
``find_embedding``, decides both relations; an isomorphism is an
embedding between graphs of equal size.

The canonical form assigns every equivalence class a deterministic byte
string: iterative color refinement over vertices *and* user-defined label
symbols, followed by individualization of ambiguous cells, taking the
lexicographically least serialization over all refinement leaves. Queries
here are tiny (a handful of triples), so the worst-case backtracking is
cheap, and agreement with the bijection definition is oracle-checked in
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graph import (
    AGG_RESULT,
    CLASS,
    ENTITY,
    LITERAL,
    VARIABLE,
    QueryGraph,
    Triple,
    Vertex,
    build_graph,
    user,
)

# Guard against pathological symmetry blowing up the refinement search;
# never reached by graphs within the mining size cap.
MAX_LEAVES = 50_000


class CanonicalizationError(RuntimeError):
    pass


@dataclass(frozen=True)
class StructureKey:
    """Canonical identifier of a query structure (an equivalence class)."""

    canonical: str
    triple_count: int
    agg_count: int

    def __str__(self) -> str:
        return self.canonical

    def sort_key(self) -> tuple:
        return (self.triple_count, self.canonical)


# ---------------------------------------------------------------------------
# embedding search


def _ordered_triples(g: QueryGraph) -> list[Triple]:
    """Order triples so each one shares a vertex with an earlier one if possible."""
    remaining = list(g.triples)
    out = [remaining.pop(0)]
    seen = {out[0].subject, out[0].object}
    while remaining:
        for i, t in enumerate(remaining):
            if t.subject in seen or t.object in seen:
                break
        else:
            i = 0
        t = remaining.pop(i)
        out.append(t)
        seen.add(t.subject)
        seen.add(t.object)
    return out


def find_embedding(a: QueryGraph, b: QueryGraph):
    """Witness (f, g) that ``a`` is a substructure of ``b``, or None.

    f maps a's vertex ids one-to-one to b's, and g maps a's edge labels
    one-to-one to b's with built-ins fixed, so that every triple of ``a``
    maps to a distinct triple of ``b``. On those image triples a vertex
    is an aggregation result or an offset literal exactly when its
    preimage is one, so a plain variable may map to an aggregation
    result, and only an offset of ``a`` is compared by value.
    """
    ta = _ordered_triples(a)
    tb = b.triples
    offsets = a.order_values
    f: dict[str, str] = {}
    g: dict[str, str] = {}
    f_used: set[str] = set()
    g_used: set[str] = set()
    # injective f and g already keep the images of a's triples distinct;
    # skipping b's matched triples only prunes the search
    t_used = [False] * len(tb)

    def try_bind(av: str, bv: str, added: list[str]) -> bool:
        bound = f.get(av)
        if bound is not None:
            return bound == bv
        ka, kb = a.kind_of(av), b.kind_of(bv)
        if bv in f_used or (ka != kb and (ka, kb) != (VARIABLE, AGG_RESULT)):
            return False
        if av in offsets and b.vertex_by_id[bv].surface != offsets[av]:
            return False
        f[av] = bv
        f_used.add(bv)
        added.append(av)
        return True

    def match(i: int) -> bool:
        if i == len(ta):
            return True
        t = ta[i]
        for j, u in enumerate(tb):
            if t_used[j]:
                continue
            label_added = None
            if t.label.is_builtin or u.label.is_builtin:
                if u.label != t.label:
                    continue
            elif t.label.name in g:
                if g[t.label.name] != u.label.name:
                    continue
            elif u.label.name in g_used:
                continue
            else:
                g[t.label.name] = u.label.name
                g_used.add(u.label.name)
                label_added = t.label.name
            added: list[str] = []
            if try_bind(t.subject, u.subject, added) and try_bind(t.object, u.object, added):
                t_used[j] = True
                if match(i + 1):
                    return True
                t_used[j] = False
            for av in added:
                f_used.discard(f.pop(av))
            if label_added is not None:
                g_used.discard(g.pop(label_added))
        return False

    if not match(0):
        return None
    g.update((t.label.builtin, t.label.builtin) for t in a.triples if t.label.is_builtin)
    return f, g


def find_isomorphism(a: QueryGraph, b: QueryGraph):
    """Witness (f, g) for a ≅ b, or None: an embedding between graphs of
    equal size, so f and g are bijections."""
    if len(a.triples) != len(b.triples) or len(a.vertices) != len(b.vertices):
        return None
    return find_embedding(a, b)


def is_equivalent(a: QueryGraph, b: QueryGraph) -> bool:
    return find_isomorphism(a, b) is not None


def is_substructure(a: QueryGraph, b: QueryGraph) -> bool:
    """True iff some subset of b's triples induces a subgraph equivalent to a."""
    if len(a.triples) > len(b.triples):
        return False
    builtins_a = sorted(t.label.builtin for t in a.triples if t.label.is_builtin)
    builtins_b = [t.label.builtin for t in b.triples if t.label.is_builtin]
    for lab in builtins_a:
        if builtins_a.count(lab) > builtins_b.count(lab):
            return False
    return find_embedding(a, b) is not None


# ---------------------------------------------------------------------------
# canonical form

_V = "v"  # vertex atom tag
_P = "p"  # user-label atom tag


def _initial_colors(g: QueryGraph) -> dict[tuple, tuple]:
    colors: dict[tuple, tuple] = {}
    ov = g.order_values
    for v in g.vertices:
        colors[(_V, v.id)] = (0, v.kind, ov.get(v.id, ""))
    for name in g.user_labels:
        colors[(_P, name)] = (1,)
    return colors


def _rank(colors: dict) -> dict[tuple, int]:
    distinct = sorted(set(colors.values()))
    index = {c: i for i, c in enumerate(distinct)}
    return {atom: index[c] for atom, c in colors.items()}


def _refine(g: QueryGraph, colors: dict[tuple, int]) -> dict[tuple, int]:
    n = len(colors)
    while True:
        contribs: dict[tuple, list] = {atom: [] for atom in colors}
        for t in g.triples:
            s, o = (_V, t.subject), (_V, t.object)
            if t.label.is_builtin:
                lc: tuple = (-1, t.label.builtin)
            else:
                p = (_P, t.label.name)
                lc = (colors[p],)
                contribs[p].append(("l", colors[s], colors[o]))
            contribs[s].append(("s", lc, colors[o]))
            contribs[o].append(("o", lc, colors[s]))
        sigs = {atom: (colors[atom], tuple(sorted(contribs[atom]))) for atom in colors}
        colors = _rank(sigs)
        k = len(set(colors.values()))
        if k == n or k == len(colors):
            return colors
        n = k


def _cells(colors: dict[tuple, int]) -> list[list[tuple]]:
    groups: dict[int, list[tuple]] = {}
    for atom, c in colors.items():
        groups.setdefault(c, []).append(atom)
    return [sorted(groups[c]) for c in sorted(groups)]


def _leaf_string(g: QueryGraph, colors: dict[tuple, int]) -> str:
    order = sorted(colors, key=lambda atom: colors[atom])
    v_index: dict[str, int] = {}
    p_index: dict[str, int] = {}
    vparts = []
    ov = g.order_values
    for atom in order:
        tag, name = atom
        if tag == _V:
            v_index[name] = len(v_index)
            vert = g.vertex_by_id[name]
            vparts.append(f"{vert.kind[0]}{ov.get(name, '')}")
        else:
            p_index[name] = len(p_index)
    tparts = []
    for t in g.triples:
        lab = t.label.builtin if t.label.is_builtin else f"p{p_index[t.label.name]}"
        tparts.append(f"{v_index[t.subject]} {lab} {v_index[t.object]}")
    return "|".join(vparts) + "//" + ";".join(sorted(tparts))


def _search(g: QueryGraph, colors: dict[tuple, int], state: dict) -> None:
    colors = _refine(g, colors)
    cells = _cells(colors)
    target_cell = next((c for c in cells if len(c) > 1), None)
    if target_cell is None:
        state["leaves"] += 1
        if state["leaves"] > MAX_LEAVES:
            raise CanonicalizationError("canonical search exceeded leaf budget")
        s = _leaf_string(g, colors)
        if state["best"] is None or s < state["best"]:
            state["best"] = s
            state["best_colors"] = colors
        return
    for atom in target_cell:
        branched = {a: (c, 1) for a, c in colors.items()}
        branched[atom] = (colors[atom], 0)
        _search(g, _rank(branched), state)


def _canonicalize(g: QueryGraph) -> tuple[StructureKey, dict[tuple, int]]:
    state = {"best": None, "best_colors": None, "leaves": 0}
    _search(g, _rank(_initial_colors(g)), state)
    key = StructureKey(state["best"], g.triple_count, g.aggregation_count)
    return key, state["best_colors"]


def uncached_key(g: QueryGraph) -> StructureKey:
    """``canonical_key`` without the cache and without building a
    representative: for graphs canonicalized once, such as merge unions."""
    return _canonicalize(g)[0]


@lru_cache(maxsize=8192)
def canonical_form(g: QueryGraph) -> tuple[StructureKey, QueryGraph]:
    """Canonical key plus the canonically renamed placeholder representative.

    Equivalent graphs yield an identical key and an identical representative
    (up to the preserved target vertex). All surfaces are erased to
    placeholders (Ent1, Class1, Lit1, ...) except MAXATN/MINATN offsets,
    which keep their value; user-defined labels become Prop1, Prop2, ...
    """
    key, colors = _canonicalize(g)

    order = sorted(colors, key=lambda atom: colors[atom])
    ov = g.order_values
    rename: dict[str, str] = {}
    label_rename: dict[str, str] = {}
    new_verts = []
    counters = {ENTITY: 0, CLASS: 0, LITERAL: 0, "var": 0}
    for atom in order:
        tag, name = atom
        if tag == _P:
            label_rename[name] = f"Prop{len(label_rename) + 1}"
            continue
        vert = g.vertex_by_id[name]
        if vert.kind in (ENTITY, CLASS, LITERAL):
            counters[vert.kind] += 1
            prefix = {ENTITY: "Ent", CLASS: "Class", LITERAL: "Lit"}[vert.kind]
            surface = ov.get(name) or f"{prefix}{counters[vert.kind]}"
            new_id = f"{prefix}{counters[vert.kind]}"
            new_verts.append(Vertex(new_id, vert.kind, surface))
        else:
            counters["var"] += 1
            new_id = f"?v{counters['var']}"
            new_verts.append(Vertex(new_id, vert.kind))
        rename[name] = new_id
    new_triples = []
    for t in g.triples:
        lab = t.label if t.label.is_builtin else user(label_rename[t.label.name])
        new_triples.append(Triple(rename[t.subject], lab, rename[t.object]))
    target = rename[g.target] if g.target is not None else None
    rep = build_graph(new_verts, new_triples, target)
    return key, rep


def canonical_key(g: QueryGraph) -> StructureKey:
    """The canonical key, through the ``canonical_form`` cache; see
    ``uncached_key`` for graphs seen only once."""
    return canonical_form(g)[0]
