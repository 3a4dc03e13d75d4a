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

The search runs on an integer coding of the graph (``CodedGraph``).
``compile_graph`` numbers the atoms in their sorted (tag, name) order:
user labels, then vertices. Colours are dense ranks, and a triple is
``(subject, label atom, built-in code, object)``. A refinement
signature is the atom's colour and the sorted tuple of one integer per
incident triple: the mixed-radix number of (role, label code, other
colour), with the roles label < object < subject and the built-ins, in
name order, coded below every user label's colour. These integers sort
exactly as the nested tuples of those fields, so every refinement
ranks the atoms as the tuple signatures would. Individualizing an atom
keeps its colour and moves the rest of its cell and every higher colour
up by one, which is the ranking of (colour, 0 for the atom and 1
otherwise). The search therefore visits the same leaves in the same
order and reaches the same least string: the keys, the best leaf's
colours and the representatives (target included) are those of the
tuple form, which the test suite keeps as a reference.

``representative`` is the one decoder from a coded graph and a best
colouring to the canonical placeholder graph. A merge union
(``merging.merge_pair``) is numbered otherwise than ``compile_graph``
would number the union as a graph. Atom order decides only which of
several equal least leaves is found first, so it cannot change a key;
without a target it cannot change the representative either, because
the decoder reads the colouring only through what the leaf string
records. The vertex of colour c takes the kind and offset of the
string's c-th part and is numbered among the earlier vertices of its
kind, the label of colour ``nv + i`` becomes ``Prop{i + 1}``, and each
triple is one entry of the string. Two colourings with the same leaf
string therefore decode to the same graph, however the atoms are
numbered, and a union decoded from its merge's numbering equals the
``canonical_form`` representative of that union. A target is not in
the string, so a targeted graph is decoded from ``compile_graph``'s
numbering, as ``canonical_form`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .graph import (
    AGG_RESULT,
    AGGREGATION_LABELS,
    BUILTIN_LABELS,
    CLASS,
    ENTITY,
    LITERAL,
    VARIABLE,
    VERTEX_KINDS,
    QueryGraph,
    Triple,
    Vertex,
    build_graph,
    builtin,
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

    try:
        found = match(0)
    finally:
        # ``match`` reaches itself through its closure cell; emptying the
        # cells breaks that cycle, so each call's state is freed at once
        del match, try_bind
    if not found:
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

#: built-in labels in name order; a built-in's code is its index here, and
#: a user label's code is its colour plus ``_NB``, so built-ins sort first
_BUILTINS = tuple(sorted(BUILTIN_LABELS))
_NB = len(_BUILTINS)
_BUILTIN_CODE = {name: i for i, name in enumerate(_BUILTINS)}
#: codes of the labels counted against the merger's aggregation cap
AGGREGATION_CODES = frozenset(_BUILTIN_CODE[name] for name in AGGREGATION_LABELS)


class CodedGraph(NamedTuple):
    """A graph compiled for canonicalization. Its atoms (vertices and
    user labels) are numbered, and atom ``i`` has:

    - ``colors[i]``, its initial colour: below the atom count, and
      ordered as ``initial_colors`` orders the atoms.
    - ``parts[i]``, its part of a leaf string (kind initial and offset
      value, such as ``"v"`` or ``"l3"``), or None for a label.

    Each triple is ``(s, p, code, o)``: subject and object atoms, the
    label atom or -1, and the built-in code or -1. ``nv`` counts the
    vertex atoms.
    """

    colors: list[int]
    parts: list[str | None]
    triples: list[tuple[int, int, int, int]]
    nv: int


def initial_colors(parts) -> list[int]:
    """Initial colour of each atom, from its leaf part: vertices by kind
    and offset value, then every label in one colour."""
    keys = [(1, "") if part is None else (0, part) for part in parts]
    index = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [index[k] for k in keys]


def compile_graph(g: QueryGraph) -> CodedGraph:
    """``g``'s coded form. Its atoms are ``g.user_labels`` and then
    ``g.vertices``, in order: the sorted (tag, name) order of the atoms."""
    labels = {name: i for i, name in enumerate(g.user_labels)}
    nl = len(labels)
    vindex = {v.id: nl + i for i, v in enumerate(g.vertices)}
    ov = g.order_values
    parts = [None] * nl + [f"{v.kind[0]}{ov.get(v.id, '')}" for v in g.vertices]
    triples = [(vindex[t.subject], -1, _BUILTIN_CODE[t.label.builtin], vindex[t.object])
               if t.label.is_builtin else
               (vindex[t.subject], labels[t.label.name], -1, vindex[t.object])
               for t in g.triples]
    return CodedGraph(initial_colors(parts), parts, triples, len(g.vertices))


def _refine(builtins, users, r: int, colors: list[int]) -> tuple[list[int], int]:
    """Colour refinement to a stable partition; returns the colours and
    their number.

    An atom's signature is its colour and the sorted codes of its
    triples: ``(tag, x, y)`` in radix ``r``, with tag 0 for a label
    (x, y the end colours), 1 for an object and 2 for a subject (x the
    label code, y the other end's colour). Colours are below the atom
    count and label codes below ``r``, so the codes sort like the
    tuples they stand for. ``builtins`` holds ``(s, o, subject code,
    object code)`` of each built-in triple without its end colours, and
    ``users`` holds ``(s, p, o)`` of each user triple.
    """
    n = len(colors)
    r2 = r * r
    subject_tag = 2 * r2
    k_prev = n
    while True:
        contribs: list[list[int]] = [[] for _ in range(n)]
        for s, o, s_base, o_base in builtins:
            contribs[s].append(s_base + colors[o])
            contribs[o].append(o_base + colors[s])
        for s, p, o in users:
            cs, co = colors[s], colors[o]
            lc = (_NB + colors[p]) * r
            contribs[p].append(cs * r + co)
            contribs[s].append(subject_tag + lc + co)
            contribs[o].append(r2 + lc + cs)
        sigs = [(c, tuple(sorted(x))) for c, x in zip(colors, contribs)]
        distinct = sorted(set(sigs))
        index = {sig: i for i, sig in enumerate(distinct)}
        colors = [index[sig] for sig in sigs]
        k = len(distinct)
        if k == k_prev or k == n:
            return colors, k
        k_prev = k


def _leaf_string(coded: CodedGraph, colors: list[int]) -> str:
    """The serialization under a discrete colouring. Vertices take the
    colours below ``nv`` and labels the rest, so a vertex's colour is its
    position and a label's is ``nv`` plus its index."""
    order = [0] * len(colors)
    for atom, c in enumerate(colors):
        order[c] = atom
    parts, nv = coded.parts, coded.nv
    tparts = sorted([
        f"{colors[s]} {_BUILTINS[code] if p < 0 else f'p{colors[p] - nv}'} {colors[o]}"
        for s, p, code, o in coded.triples])
    return "|".join([parts[order[c]] for c in range(nv)]) + "//" + ";".join(tparts)


def canonicalize(coded: CodedGraph) -> tuple[StructureKey, list[int]]:
    """The key, and the colouring of the first leaf that gives it (the
    input of ``representative``): refine, then individualize each atom of
    the first non-singleton cell in atom order and search depth first,
    keeping the least leaf string."""
    n = len(coded.colors)
    r = n + _NB
    builtins = [(s, o, 2 * r * r + code * r, r * r + code * r)
                for s, p, code, o in coded.triples if p < 0]
    users = [(s, p, o) for s, p, _code, o in coded.triples if p >= 0]
    limit = MAX_LEAVES
    best: str | None = None
    best_colors: list[int] = []
    leaves = 0
    stack = [coded.colors]
    while stack:
        colors, k = _refine(builtins, users, r, stack.pop())
        if k == n:
            leaves += 1
            if leaves > limit:
                raise CanonicalizationError("canonical search exceeded leaf budget")
            s = _leaf_string(coded, colors)
            if best is None or s < best:
                best, best_colors = s, colors
            continue
        ordered = sorted(colors)
        cell = next(ordered[i] for i in range(n - 1) if ordered[i] == ordered[i + 1])
        # the chosen atom keeps the cell's colour; the cell's others and
        # every later colour move up by one
        shifted = [c + (c >= cell) for c in colors]
        for atom in reversed(range(n)):   # popped in atom order
            if colors[atom] == cell:
                branched = list(shifted)
                branched[atom] = cell
                stack.append(branched)
    aggs = sum(1 for t in coded.triples if t[2] in AGGREGATION_CODES)
    return StructureKey(best, len(coded.triples), aggs), best_colors


#: each built-in label, in ``_BUILTINS`` order, shared by every representative
_BUILTIN_EDGES = tuple(builtin(name) for name in _BUILTINS)
#: vertex kind by its initial, the first character of a vertex's part
_KINDS = {kind[0]: kind for kind in VERTEX_KINDS}
#: placeholder id prefix per kind; variables of either kind are ``?v``
_PLACEHOLDERS = {ENTITY: "Ent", CLASS: "Class", LITERAL: "Lit"}


def representative(coded: CodedGraph, colors: list[int],
                   target: int | None = None) -> QueryGraph:
    """The canonical placeholder graph of ``coded`` under the discrete
    colouring ``colors`` (a best leaf's), with the ``target`` atom as its
    target.

    Atoms are renamed in colour order. Entities, classes and literals
    become Ent1, Class1, Lit1, ..., with the id as surface except
    MAXATN/MINATN offsets, which keep their value; variables and
    aggregation results become ?v1, ?v2, ...; user labels become
    Prop1, Prop2, ...
    """
    nv = coded.nv
    order = [0] * len(colors)
    for atom, c in enumerate(colors):
        order[c] = atom
    counters: dict[str, int] = {}
    ids: dict[int, str] = {}
    verts = []
    for atom in order[:nv]:
        part = coded.parts[atom]
        kind = _KINDS[part[0]]
        prefix = _PLACEHOLDERS.get(kind, "?v")
        counters[prefix] = counters.get(prefix, 0) + 1
        ids[atom] = new_id = f"{prefix}{counters[prefix]}"
        surface = (part[1:] or new_id) if kind in _PLACEHOLDERS else None
        verts.append(Vertex(new_id, kind, surface))
    props = [user(f"Prop{i + 1}") for i in range(len(colors) - nv)]
    triples = [Triple(ids[s], _BUILTIN_EDGES[code] if p < 0 else props[colors[p] - nv], ids[o])
               for s, p, code, o in coded.triples]
    return build_graph(verts, triples, None if target is None else ids[target])


@lru_cache(maxsize=8192)
def canonical_form(g: QueryGraph) -> tuple[StructureKey, QueryGraph]:
    """Canonical key plus the canonically renamed placeholder representative.

    Equivalent graphs yield an identical key and an identical representative
    (up to the preserved target vertex); see ``representative``.
    """
    coded = compile_graph(g)
    key, colors = canonicalize(coded)
    target = (None if g.target is None
              else len(g.user_labels) + [v.id for v in g.vertices].index(g.target))
    return key, representative(coded, colors, target)


def canonical_key(g: QueryGraph) -> StructureKey:
    """The canonical key, through the ``canonical_form`` cache."""
    return canonical_form(g)[0]
