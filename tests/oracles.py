"""Independent reference implementations used as test oracles.

Each function here re-derives an answer from first principles (exhaustive
enumeration, naive products, a second forward-pass implementation) so the
library code can be checked against it. None of it shares algorithms with
the package beyond the data types.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

from kbqg.graph import AGG_RESULT, ISA, QueryGraph, VARIABLE


def _vertex_tag(g: QueryGraph, vid: str) -> tuple:
    return (g.kind_of(vid), g.order_values.get(vid, ""))


def oracle_is_equivalent(a: QueryGraph, b: QueryGraph) -> bool:
    """Brute force over all kind-respecting vertex bijections and all
    label bijections, checking the triple correspondence directly."""
    if len(a.vertices) != len(b.vertices) or len(a.triples) != len(b.triples):
        return False
    groups_a: dict[tuple, list[str]] = {}
    groups_b: dict[tuple, list[str]] = {}
    for v in a.vertices:
        groups_a.setdefault(_vertex_tag(a, v.id), []).append(v.id)
    for v in b.vertices:
        groups_b.setdefault(_vertex_tag(b, v.id), []).append(v.id)
    if set(groups_a) != set(groups_b):
        return False
    if any(len(groups_a[t]) != len(groups_b[t]) for t in groups_a):
        return False
    builtins_a = sorted(t.label.builtin for t in a.triples if t.label.is_builtin)
    builtins_b = sorted(t.label.builtin for t in b.triples if t.label.is_builtin)
    if builtins_a != builtins_b:
        return False
    labs_a, labs_b = list(a.user_labels), list(b.user_labels)
    if len(labs_a) != len(labs_b):
        return False

    tags = sorted(groups_a)
    b_triples = {(t.subject, ("b", t.label.builtin) if t.label.is_builtin
                  else ("u", t.label.name), t.object) for t in b.triples}

    for perm_choice in product(*(permutations(groups_b[t]) for t in tags)):
        f = {}
        for tag, perm in zip(tags, perm_choice):
            for av, bv in zip(groups_a[tag], perm):
                f[av] = bv
        for lab_perm in permutations(labs_b):
            gmap = dict(zip(labs_a, lab_perm))
            image = set()
            for t in a.triples:
                lab = (("b", t.label.builtin) if t.label.is_builtin
                       else ("u", gmap[t.label.name]))
                image.add((f[t.subject], lab, f[t.object]))
            if image == b_triples:
                return True
    return False


def connected_triple_subsets(g: QueryGraph):
    """All non-empty subsets of triples whose vertex-sharing graph is
    connected, via direct union-find over each subset."""
    triples = list(g.triples)
    for size in range(1, len(triples) + 1):
        for subset in combinations(triples, size):
            parents: dict[str, str] = {}

            def find(x):
                while parents[x] != x:
                    parents[x] = parents[parents[x]]
                    x = parents[x]
                return x

            for t in subset:
                for vid in (t.subject, t.object):
                    parents.setdefault(vid, vid)
                ra, rb = find(t.subject), find(t.object)
                parents[ra] = rb
            roots = {find(v) for v in parents}
            if len(roots) == 1:
                yield subset


def oracle_substructure_classes(g: QueryGraph) -> list[QueryGraph]:
    """One representative per equivalence class among the connected triple
    subsets of g, deduplicated with the brute-force bijection oracle."""
    from kbqg.graph import induced_subgraph

    reps: list[QueryGraph] = []
    for subset in connected_triple_subsets(g):
        sub = induced_subgraph(g, subset)
        sub = QueryGraph(sub.vertices, sub.triples, None)
        if not any(oracle_is_equivalent(sub, r) for r in reps):
            reps.append(sub)
    return reps


def oracle_containment_pattern(g: QueryGraph, catalog) -> frozenset:
    """Keys of the catalog's frequent substructures that are equivalent,
    by the brute-force bijection oracle, to a connected triple subset of g."""
    classes = oracle_substructure_classes(g)
    return frozenset(k for k, e in catalog.substructures.items()
                     if any(oracle_is_equivalent(e.representative, c) for c in classes))


def oracle_is_substructure(a: QueryGraph, b: QueryGraph) -> bool:
    from kbqg.graph import induced_subgraph

    if len(a.triples) > len(b.triples):
        return False
    for subset in combinations(b.triples, len(a.triples)):
        sub = induced_subgraph(b, subset)
        if oracle_is_equivalent(a, QueryGraph(sub.vertices, sub.triples, None)):
            return True
    return False


# ---------------------------------------------------------------------------
# executor oracle


def oracle_execute_pattern(q: QueryGraph, facts) -> set[str]:
    """Naive cartesian-product join over per-triple fact lists for an
    aggregate-free query; returns the target's bindings. ``facts`` are the
    raw ``(subject, property, object)`` rows the KB was built from, where
    property ``a`` is rdf:type, so the join reads nothing of the KB."""
    pattern = [t for t in q.triples if not t.label.is_builtin or t.label.builtin == ISA]
    facts = set(facts)   # a repeated row is one fact
    per_triple = []
    for t in pattern:
        if t.label.is_builtin:
            rows = [(s, o) for (s, p, o) in facts if p == "a"]
        else:
            rows = [(s, o) for (s, p, o) in facts if p == t.label.name != "a"]
        per_triple.append(rows)

    def term(vid):
        v = q.vertex_by_id[vid]
        return None if v.kind in (VARIABLE, AGG_RESULT) else v.surface

    answers = set()
    for combo in product(*per_triple):
        binding: dict[str, str] = {}
        ok = True
        for t, (s, o) in zip(pattern, combo):
            for vid, val in ((t.subject, s), (t.object, o)):
                const = term(vid)
                if const is not None:
                    if const != val:
                        ok = False
                elif binding.setdefault(vid, val) != val:
                    ok = False
            if not ok:
                break
        if ok and q.target in binding:
            answers.add(binding[q.target])
    return answers


# ---------------------------------------------------------------------------
# network forward-pass oracle (list-based re-implementation)


def _sig(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def oracle_forward(params, token_ids, d_h: int):
    """Second implementation of the attention BiLSTM forward pass using
    plain python lists; returns (probability, attention weights)."""
    emb = params["emb"].tolist()
    xs = [emb[i] for i in token_ids]
    d_e = len(xs[0])

    def lstm(seq, W, b):
        W, b = W.tolist(), b.tolist()
        h = [0.0] * d_h
        c = [0.0] * d_h
        out = []
        for x in seq:
            zcat = list(x) + h
            z = [sum(W[r][k] * zcat[k] for k in range(d_e + d_h)) + b[r]
                 for r in range(4 * d_h)]
            i = [_sig(z[r]) for r in range(d_h)]
            f = [_sig(z[d_h + r]) for r in range(d_h)]
            o = [_sig(z[2 * d_h + r]) for r in range(d_h)]
            g = [math.tanh(z[3 * d_h + r]) for r in range(d_h)]
            c = [f[r] * c[r] + i[r] * g[r] for r in range(d_h)]
            h = [o[r] * math.tanh(c[r]) for r in range(d_h)]
            out.append(h)
        return out

    hf = lstm(xs, params["W_f"], params["b_f"])
    hb = lstm(xs[::-1], params["W_b"], params["b_b"])[::-1]
    hs = [hf[t] + hb[t] for t in range(len(xs))]

    W_att = params["W_att"].tolist()
    b_att = params["b_att"].tolist()
    v_att = params["v_att"].tolist()
    scores = []
    for h in hs:
        u = [math.tanh(sum(W_att[r][k] * h[k] for k in range(2 * d_h)) + b_att[r])
             for r in range(2 * d_h)]
        scores.append(sum(v_att[r] * u[r] for r in range(2 * d_h)))
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    total = sum(exps)
    alpha = [e / total for e in exps]
    qvec = [sum(alpha[t] * hs[t][r] for t in range(len(hs))) for r in range(2 * d_h)]
    w_out = params["W_out"].tolist()[0]
    logit = sum(w_out[r] * qvec[r] for r in range(2 * d_h)) + float(params["b_out"][0])
    return _sig(logit), alpha


def oracle_bce_loss(probs, labels) -> float:
    total = 0.0
    for p, y in zip(probs, labels):
        total += -math.log(p) if y else -math.log(1.0 - p)
    return total


# ---------------------------------------------------------------------------
# scoring oracle


def oracle_score(contained_keys, probs: dict) -> float:
    """Direct product form of the joint-probability score, no log space,
    no clamping."""
    score = 1.0
    for key, p in probs.items():
        score *= p if key in contained_keys else (1.0 - p)
    return score


# ---------------------------------------------------------------------------
# merge oracle


def oracle_merge_pair(a: QueryGraph, b: QueryGraph,
                      max_shared_vertices: int = 2,
                      max_shared_labels: int = 1) -> list[QueryGraph]:
    """Exhaustive unification enumeration for tiny inputs, deduplicated
    with the brute-force equivalence oracle."""
    from kbqg.graph import GraphError, Triple, Vertex, build_graph, user

    b_verts = {"B" + v.id: Vertex("B" + v.id, v.kind, v.surface) for v in b.vertices}
    b_triples = []
    for t in b.triples:
        lab = t.label if t.label.is_builtin else user("B" + t.label.name)
        b_triples.append(Triple("B" + t.subject, lab, "B" + t.object))
    b_labels = ["B" + name for name in b.user_labels]

    pairs = []
    for va in a.vertices:
        for vb in b.vertices:
            if va.kind != vb.kind or va.kind == AGG_RESULT:
                continue
            if a.order_values.get(va.id, "") != b.order_values.get(vb.id, ""):
                continue
            pairs.append((va.id, "B" + vb.id))
    lab_pairs = [(la, lb) for la in a.user_labels for lb in b_labels]

    reps: list[QueryGraph] = []
    for k in range(0, max_shared_vertices + 1):
        for vcombo in combinations(pairs, k):
            if len({p[0] for p in vcombo}) < k or len({p[1] for p in vcombo}) < k:
                continue
            vmap = {pb: pa for pa, pb in vcombo}
            for m in range(0, max_shared_labels + 1):
                for lcombo in combinations(lab_pairs, m):
                    if len({p[0] for p in lcombo}) < m or len({p[1] for p in lcombo}) < m:
                        continue
                    lmap = {lb: la for la, lb in lcombo}
                    verts = list(a.vertices) + [v for vid, v in sorted(b_verts.items())
                                                if vid not in vmap]
                    triples = list(a.triples)
                    for t in b_triples:
                        lab = t.label
                        if not lab.is_builtin and lab.name in lmap:
                            lab = user(lmap[lab.name])
                        triples.append(Triple(vmap.get(t.subject, t.subject), lab,
                                              vmap.get(t.object, t.object)))
                    try:
                        merged = build_graph(verts, set(triples), None)
                    except GraphError:
                        continue
                    if not any(oracle_is_equivalent(merged, r) for r in reps):
                        reps.append(merged)
    return reps


def reference_merge_substructures(probs, catalog, cfg) -> list[tuple[str, float]]:
    """Merging without shortcuts: every candidate of the unrestricted
    ``merge_pair`` that passes the restrictions is scored from the
    containment pattern that full substructure enumeration gives.
    Returns (canonical key, score) in rank order."""
    from kbqg.merging import merge_pair, passes_restrictions
    from kbqg.mining import enumerate_substructures
    from kbqg.ranking import score_containment

    scores = {}

    def score(key, rep):
        if key not in scores:
            inside = enumerate_substructures(rep)
            pattern = frozenset(k for k in catalog.substructures if k in inside)
            scores[key] = score_containment(pattern, probs, catalog)
        return scores[key]

    current = {}
    for key in catalog.frequent_keys:
        rep = catalog.substructures[key].representative
        if passes_restrictions(rep, cfg) and score(key, rep) > cfg.theta:
            current[key] = rep
    result = dict(current)
    contained = [k for k in catalog.frequent_keys if probs[k] > 0.5]
    for _ in range(cfg.k_max):
        merged = {}
        for skey in contained:
            srep = catalog.substructures[skey].representative
            for mkey in sorted(current, key=lambda k: k.sort_key()):
                for ckey, crep in merge_pair(srep, current[mkey]).items():
                    if passes_restrictions(crep, cfg) and score(ckey, crep) > cfg.theta:
                        merged[ckey] = crep
        best = sorted(merged, key=lambda k: (-scores[k], k.sort_key()))[:cfg.beam]
        current = {k: merged[k] for k in best}
        result.update(current)
        if not current:
            break
    ranked = sorted(result, key=lambda k: (-scores[k], k.triple_count, k.canonical))
    return [(k.canonical, scores[k]) for k in ranked]


# ---------------------------------------------------------------------------
# canonical-form reference (colour refinement on dicts of tuple colours)

_V = "v"  # vertex atom tag
_P = "p"  # user-label atom tag


def _ref_initial_colors(g: QueryGraph) -> dict[tuple, tuple]:
    colors: dict[tuple, tuple] = {}
    ov = g.order_values
    for v in g.vertices:
        colors[(_V, v.id)] = (0, v.kind, ov.get(v.id, ""))
    for name in g.user_labels:
        colors[(_P, name)] = (1,)
    return colors


def _ref_rank(colors: dict) -> dict[tuple, int]:
    distinct = sorted(set(colors.values()))
    index = {c: i for i, c in enumerate(distinct)}
    return {atom: index[c] for atom, c in colors.items()}


def _ref_refine(g: QueryGraph, colors: dict[tuple, int]) -> dict[tuple, int]:
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
        colors = _ref_rank(sigs)
        k = len(set(colors.values()))
        if k == n or k == len(colors):
            return colors
        n = k


def _ref_cells(colors: dict[tuple, int]) -> list[list[tuple]]:
    groups: dict[int, list[tuple]] = {}
    for atom, c in colors.items():
        groups.setdefault(c, []).append(atom)
    return [sorted(groups[c]) for c in sorted(groups)]


def _ref_leaf_string(g: QueryGraph, colors: dict[tuple, int]) -> str:
    order = sorted(colors, key=lambda atom: colors[atom])
    v_index: dict[str, int] = {}
    p_index: dict[str, int] = {}
    vparts = []
    ov = g.order_values
    for tag, name in order:
        if tag == _V:
            v_index[name] = len(v_index)
            vparts.append(f"{g.vertex_by_id[name].kind[0]}{ov.get(name, '')}")
        else:
            p_index[name] = len(p_index)
    tparts = []
    for t in g.triples:
        lab = t.label.builtin if t.label.is_builtin else f"p{p_index[t.label.name]}"
        tparts.append(f"{v_index[t.subject]} {lab} {v_index[t.object]}")
    return "|".join(vparts) + "//" + ";".join(sorted(tparts))


def _ref_search(g: QueryGraph, colors: dict[tuple, int], state: dict) -> None:
    colors = _ref_refine(g, colors)
    target_cell = next((c for c in _ref_cells(colors) if len(c) > 1), None)
    if target_cell is None:
        state["leaves"] += 1
        s = _ref_leaf_string(g, colors)
        if state["best"] is None or s < state["best"]:
            state["best"] = s
            state["best_colors"] = colors
        return
    for atom in target_cell:
        branched = {a: (c, 1) for a, c in colors.items()}
        branched[atom] = (colors[atom], 0)
        _ref_search(g, _ref_rank(branched), state)


def reference_canonical_form(g: QueryGraph):
    """(key, representative, leaves) by refinement and individualization
    on dicts keyed by (tag, name) atoms with nested-tuple signatures; the
    representative renames atoms in the order of the best leaf's colours."""
    from kbqg.canon import StructureKey
    from kbqg.graph import CLASS, ENTITY, LITERAL, Triple, Vertex, build_graph, user

    state = {"best": None, "best_colors": None, "leaves": 0}
    _ref_search(g, _ref_rank(_ref_initial_colors(g)), state)
    key = StructureKey(state["best"], g.triple_count, g.aggregation_count)
    colors = state["best_colors"]
    ov = g.order_values
    rename: dict[str, str] = {}
    label_rename: dict[str, str] = {}
    new_verts = []
    counters = {ENTITY: 0, CLASS: 0, LITERAL: 0, "var": 0}
    prefixes = {ENTITY: "Ent", CLASS: "Class", LITERAL: "Lit"}
    for tag, name in sorted(colors, key=lambda atom: colors[atom]):
        if tag == _P:
            label_rename[name] = f"Prop{len(label_rename) + 1}"
            continue
        vert = g.vertex_by_id[name]
        if vert.kind in prefixes:
            counters[vert.kind] += 1
            new_id = f"{prefixes[vert.kind]}{counters[vert.kind]}"
            new_verts.append(Vertex(new_id, vert.kind, ov.get(name) or new_id))
        else:
            counters["var"] += 1
            new_id = f"?v{counters['var']}"
            new_verts.append(Vertex(new_id, vert.kind))
        rename[name] = new_id
    new_triples = [Triple(rename[t.subject],
                          t.label if t.label.is_builtin else user(label_rename[t.label.name]),
                          rename[t.object]) for t in g.triples]
    target = rename[g.target] if g.target is not None else None
    return key, build_graph(new_verts, new_triples, target), state["leaves"]


def reference_merge_pair(a: QueryGraph, b: QueryGraph, max_shared_vertices: int = 2,
                         max_shared_labels: int = 1, restrict=None):
    """``merge_pair`` without shortcuts: b is renamed apart from a, and
    every unification, in ``merge_pair``'s order, is built as a graph,
    checked with ``passes_restrictions`` and keyed with
    ``reference_canonical_form``. Returns the first union per key, and
    the numbers of unifications generated and rejected (invalid, or
    failing ``restrict``)."""
    from kbqg.graph import GraphError, Triple, Vertex, build_graph, user
    from kbqg.merging import passes_restrictions

    # b's names get a prefix that no name of a starts with
    prefix = "b#"
    while any(name.startswith(prefix) for name in (*a.vertex_by_id, *a.user_labels)):
        prefix += "#"
    b = build_graph(
        [Vertex(prefix + v.id, v.kind, v.surface) for v in b.vertices],
        [Triple(prefix + t.subject,
                t.label if t.label.is_builtin else user(prefix + t.label.name),
                prefix + t.object) for t in b.triples],
        prefix + b.target if b.target else None)
    vertex_pairs = [(va.id, vb.id) for va in a.vertices for vb in b.vertices
                    if va.kind == vb.kind and va.kind != AGG_RESULT
                    and a.order_values.get(va.id, "") == b.order_values.get(vb.id, "")]
    label_pairs = [(la, lb) for la in a.user_labels for lb in b.user_labels]

    def injective(pairs):
        return all(len({p[i] for p in pairs}) == len(pairs) for i in (0, 1))

    label_maps = [{lb: la for la, lb in combo} for m in range(max_shared_labels + 1)
                  for combo in combinations(label_pairs, m) if injective(combo)]
    out = {}
    generated = failed = 0
    for k in range(max_shared_vertices + 1):
        for combo in combinations(vertex_pairs, k):
            if not injective(combo):
                continue
            vmap = {vb: va for va, vb in combo}
            for lmap in label_maps:
                generated += 1
                triples = set(a.triples) | {
                    Triple(vmap.get(t.subject, t.subject),
                           t.label if t.label.is_builtin else user(lmap.get(t.label.name,
                                                                            t.label.name)),
                           vmap.get(t.object, t.object)) for t in b.triples}
                verts = list(a.vertices) + [v for v in b.vertices if v.id not in vmap]
                try:
                    union = build_graph(verts, triples, None)
                except GraphError:
                    failed += 1
                    continue
                if restrict is not None and not passes_restrictions(union, restrict):
                    failed += 1
                    continue
                out.setdefault(reference_canonical_form(union)[0], union)
    return out, generated, failed
