"""Grounding ranked query structures into executable queries.

Structures are tried strictly in rank order. For each structure, the
placeholder slots (entity/class/literal vertices and user-defined
property labels) are filled from kind-matching linking candidates, in
non-increasing order of the overall linking score (the product of the
chosen candidates' scores, enumerated with a best-first priority queue).
Every filled query runs through the validation cascade: grammar check,
domain/range check, then an empty-result check against the KB. Passing
queries are collected until ``top_k`` results are found.

A real entity/relation linker is deliberately out of scope; the
:class:`DictionaryLinker` gazetteer mock stands in for one and can inject
scored distractor candidates for noisy-linking experiments.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field

import numpy as np

from .canon import StructureKey
from .graph import (
    AGG_CONNECTORS,
    AGG_RESULT,
    CLASS,
    ENTITY,
    ISA,
    LITERAL,
    ORDER_LABELS,
    QueryGraph,
    Triple,
    VARIABLE,
    Vertex,
    build_graph,
    user,
)
from .io import InputError, located, read_json, read_rows, write_json
from .kb import (
    AnswerSet,
    KnowledgeBase,
    NonNumericAggregateError,
    UnboundTargetError,
    check_domain_range,
    execute,
)
from .ranking import ScoredStructure
from .sparql import serialize_query

KIND_ENTITY = "entity"
KIND_PROPERTY = "property"
KIND_CLASS = "class"
KIND_LITERAL = "literal"

LINK_KINDS = (KIND_ENTITY, KIND_PROPERTY, KIND_CLASS, KIND_LITERAL)

#: filled queries tried per structure before ``ground`` moves to the next one
BUDGET_PER_STRUCTURE = 10_000


class NoValidGroundingError(RuntimeError):
    pass


@dataclass(frozen=True)
class LinkingCandidate:
    mention: str
    kind: str
    symbol: str
    score: float
    span: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown linking kind {self.kind!r}")
        if not 0.0 < self.score <= 1.0:
            raise ValueError("candidate score must be in (0, 1]")


@dataclass(frozen=True)
class GroundingResult:
    query: QueryGraph
    structure_key: StructureKey
    assignment: dict
    linking_score: float
    structure_rank: int
    structure_score: float
    answers: AnswerSet

    def __hash__(self):
        return hash((self.structure_key, self.linking_score))


# ---------------------------------------------------------------------------
# grammar validation


def validate_grammar(q: QueryGraph) -> bool:
    """Built-in argument-kind rules plus target validity.

    COUNT/AVG/MAX/MIN must connect a variable to an aggregation-result
    vertex that has no other incident edge; MAXATN/MINATN need a variable
    subject and a positive-integer literal object; ISA needs a variable
    subject and a class object; the target must exist and be a variable
    or aggregation result.
    """
    kinds = {v.id: v.kind for v in q.vertices}
    for t in q.triples:
        if not t.label.is_builtin:
            if AGG_RESULT in (kinds[t.subject], kinds[t.object]):
                return False
            continue
        b = t.label.builtin
        if b in AGG_CONNECTORS:
            if kinds[t.subject] != VARIABLE or kinds[t.object] != AGG_RESULT:
                return False
        elif b in ORDER_LABELS:
            if kinds[t.subject] != VARIABLE or kinds[t.object] != LITERAL:
                return False
            surface = q.vertex_by_id[t.object].surface
            if not surface.isdigit() or int(surface) < 1:
                return False
        elif b == ISA:
            if kinds[t.subject] != VARIABLE or kinds[t.object] != CLASS:
                return False
    for v in q.vertices:
        if v.kind != AGG_RESULT:
            continue
        for t in q.triples:
            if t.subject == v.id:
                return False
            if t.object == v.id and (not t.label.is_builtin
                                     or t.label.builtin not in AGG_CONNECTORS):
                return False
    if q.target is None or q.target not in kinds:
        return False
    return kinds[q.target] in (VARIABLE, AGG_RESULT)


# ---------------------------------------------------------------------------
# slots and assignment enumeration


def placeholder_slots(structure: QueryGraph) -> list[tuple[str, str]]:
    """(slot kind, slot name) pairs needing a symbol: entity/class/plain
    literal vertices and user-defined property labels."""
    slots: list[tuple[str, str]] = []
    order_literals = set(structure.order_values)
    for v in structure.vertices:
        if v.kind == ENTITY:
            slots.append((KIND_ENTITY, v.id))
        elif v.kind == CLASS:
            slots.append((KIND_CLASS, v.id))
        elif v.kind == LITERAL and v.id not in order_literals:
            slots.append((KIND_LITERAL, v.id))
    for name in structure.user_labels:
        slots.append((KIND_PROPERTY, name))
    return slots


def enumerate_assignments(slot_candidates: list[list[LinkingCandidate]]):
    """Yield (choice tuple, score product) in non-increasing score order.

    Each slot's candidate list must be sorted by descending score; the
    classic lazy k-best product enumeration over index vectors is used.
    """
    if not slot_candidates:
        yield (), 1.0
        return
    if any(not options for options in slot_candidates):
        return
    start = tuple(0 for _ in slot_candidates)

    def product(idx):
        p = 1.0
        for slot, i in enumerate(idx):
            p *= slot_candidates[slot][i].score
        return p

    heap = [(-product(start), start)]
    seen = {start}
    while heap:
        neg, idx = heapq.heappop(heap)
        yield tuple(slot_candidates[s][i] for s, i in enumerate(idx)), -neg
        for slot in range(len(idx)):
            if idx[slot] + 1 < len(slot_candidates[slot]):
                nxt = idx[:slot] + (idx[slot] + 1,) + idx[slot + 1:]
                if nxt not in seen:
                    seen.add(nxt)
                    heapq.heappush(heap, (-product(nxt), nxt))


def _fill(structure: QueryGraph, assignment: dict[tuple[str, str], str],
          target: str) -> QueryGraph:
    verts = []
    for v in structure.vertices:
        if (KIND_ENTITY, v.id) in assignment:
            verts.append(Vertex(v.id, ENTITY, assignment[(KIND_ENTITY, v.id)]))
        elif (KIND_CLASS, v.id) in assignment:
            verts.append(Vertex(v.id, CLASS, assignment[(KIND_CLASS, v.id)]))
        elif (KIND_LITERAL, v.id) in assignment:
            verts.append(Vertex(v.id, LITERAL, assignment[(KIND_LITERAL, v.id)]))
        else:
            verts.append(v)
    triples = []
    for t in structure.triples:
        label = t.label
        if not label.is_builtin and (KIND_PROPERTY, label.name) in assignment:
            label = user(assignment[(KIND_PROPERTY, label.name)])
        triples.append(Triple(t.subject, label, t.object))
    return build_graph(verts, triples, target)


def candidate_targets(structure: QueryGraph) -> list[str]:
    """Target choices for a structure that stores none: aggregation
    results first (they are the natural answers of aggregate queries),
    then plain variables, deterministically ordered."""
    if structure.target is not None:
        return [structure.target]
    aggs = sorted(v.id for v in structure.vertices if v.kind == AGG_RESULT)
    plain = sorted(v.id for v in structure.vertices if v.kind == VARIABLE)
    return aggs + plain


def ground(ranked_structures: list[ScoredStructure],
           candidates: list[LinkingCandidate],
           kb: KnowledgeBase,
           top_k: int = 5) -> list[GroundingResult]:
    """Fill, validate and execute structures in rank order; collect up to
    ``top_k`` passing queries. Raises NoValidGroundingError when every
    combination across every structure fails."""
    by_kind: dict[str, list[LinkingCandidate]] = {k: [] for k in LINK_KINDS}
    for c in candidates:
        by_kind[c.kind].append(c)
    for k in by_kind:
        by_kind[k].sort(key=lambda c: (-c.score, c.symbol, c.mention))
    mentions_per_kind = {k: len({(c.mention, c.span) for c in by_kind[k]})
                         for k in by_kind}

    results: list[GroundingResult] = []
    seen_queries: set[str] = set()
    for rank, scored in enumerate(ranked_structures):
        structure = scored.representative
        slots = placeholder_slots(structure)
        slot_candidates = [by_kind[kind] for kind, _name in slots]
        if any(not options for options in slot_candidates):
            continue  # a slot kind with no candidates: skip this structure
        # a combination uses each question mention at most once, provided
        # the question offers enough mentions of that kind
        injective_kinds = {kind for kind, _ in slots
                           if mentions_per_kind[kind] >=
                           sum(1 for k2, _ in slots if k2 == kind) > 1}
        targets = candidate_targets(structure)
        if not targets:
            continue
        attempts = 0
        for choice, lscore in enumerate_assignments(slot_candidates):
            if attempts >= BUDGET_PER_STRUCTURE or len(results) >= top_k:
                break
            used: dict[str, set] = {}
            clash = False
            for (kind, _name), cand in zip(slots, choice):
                if kind in injective_kinds:
                    ident = (cand.mention, cand.span)
                    if ident in used.setdefault(kind, set()):
                        clash = True
                        break
                    used[kind].add(ident)
            if clash:
                continue
            assignment = {slot: cand.symbol for slot, cand in zip(slots, choice)}
            for target in targets:
                attempts += 1
                if attempts > BUDGET_PER_STRUCTURE:
                    break
                grounded = _fill(structure, assignment, target)
                if not validate_grammar(grounded):
                    continue
                if not check_domain_range(grounded, kb):
                    continue
                try:
                    answers = execute(grounded, kb)
                except (NonNumericAggregateError, UnboundTargetError):
                    continue
                if answers.is_empty:
                    continue
                dedupe = serialize_query(grounded)
                if dedupe in seen_queries:
                    continue
                seen_queries.add(dedupe)
                results.append(GroundingResult(
                    grounded, scored.key,
                    {f"{kind}:{name}": sym for (kind, name), sym in assignment.items()},
                    lscore, rank, scored.score, answers))
                if len(results) >= top_k:
                    break
        if len(results) >= top_k:
            break
    if not results:
        raise NoValidGroundingError("no structure produced a valid non-empty query")
    return results


# ---------------------------------------------------------------------------
# question-derived literal candidates

_NUMBER_RE = re.compile(r"\b\d+(?:\.\d+)?\b")
_QUOTED_RE = re.compile(r"\"([^\"]+)\"|'([^']+)'")


def extract_literal_candidates(question: str) -> list[LinkingCandidate]:
    """Numbers and quoted strings in the question, offered as literal
    slot fillers with score 1."""
    out = []
    seen = set()
    for m in _NUMBER_RE.finditer(question):
        if m.group() not in seen:
            seen.add(m.group())
            out.append(LinkingCandidate(m.group(), KIND_LITERAL, m.group(), 1.0,
                                        (m.start(), m.end())))
    for m in _QUOTED_RE.finditer(question):
        text = m.group(1) or m.group(2)
        if text not in seen:
            seen.add(text)
            out.append(LinkingCandidate(text, KIND_LITERAL, text, 1.0,
                                        (m.start(), m.end())))
    return out


# ---------------------------------------------------------------------------
# per-question candidate files


def save_candidates(candidates: list[LinkingCandidate], path) -> None:
    """Write candidates grouped per mention:
    [{mention, kind, span?, candidates: [{symbol, score}]}, ...]."""
    groups: dict[tuple, list[LinkingCandidate]] = {}
    for c in candidates:
        groups.setdefault((c.mention, c.kind, c.span), []).append(c)
    doc = []
    for (mention, kind, span), members in sorted(
            groups.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        doc.append({
            "mention": mention,
            "kind": kind,
            "span": list(span) if span else None,
            "candidates": [{"symbol": c.symbol, "score": c.score}
                           for c in sorted(members, key=lambda c: -c.score)],
        })
    write_json(path, doc)


def load_candidates(path) -> list[LinkingCandidate]:
    doc = read_json(path)
    if not isinstance(doc, list):
        raise InputError(path, 1, "expected a JSON array of mention groups")
    out = []
    for i, group in enumerate(doc):
        with located(path, f"group {i}"):
            span = None
            if group.get("span"):
                start, end = group["span"]
                span = (int(start), int(end))
            for c in group["candidates"]:
                out.append(LinkingCandidate(group["mention"], group["kind"],
                                            c["symbol"], float(c["score"]), span))
    return out


# ---------------------------------------------------------------------------
# dictionary linker mock


@dataclass
class DictionaryLinker:
    """Exact-match gazetteer linker: surface phrase -> scored symbols.

    Stands in for an external entity/relation linking system. Matches the
    longest non-overlapping gazetteer phrases in the question (score 1.0)
    and reports entity mention spans for ``<entity>`` replacement.
    """

    entries: dict[str, list[tuple[str, str]]] = field(default_factory=dict)

    def add(self, surface: str, kind: str, symbol: str) -> None:
        """Link ``surface``, in any case, to ``symbol``; a repeated
        (kind, symbol) of one lowercased surface is kept once."""
        symbols = self.entries.setdefault(surface.lower(), [])
        if (kind, symbol) not in symbols:
            symbols.append((kind, symbol))

    @classmethod
    def from_file(cls, path) -> "DictionaryLinker":
        """TSV gazetteer: surface <tab> kind <tab> symbol, with a kind in
        ``LINK_KINDS`` and a non-blank surface and symbol."""
        linker = cls()
        for lineno, parts in read_rows(path):
            if len(parts) != 3:
                raise InputError(path, lineno, "expected 3 tab-separated fields, "
                                 f"got {len(parts)}")
            surface, kind, symbol = parts
            if kind not in LINK_KINDS:
                raise InputError(path, lineno, f"unknown kind {kind!r}, "
                                 f"expected one of {', '.join(LINK_KINDS)}")
            if not surface.strip() or not symbol.strip():
                raise InputError(path, lineno, "empty surface or symbol")
            linker.add(surface, kind, symbol)
        return linker

    def link(self, question: str) -> tuple[list[tuple[int, int]], list[LinkingCandidate]]:
        """Entity mention spans plus linking candidates for the question."""
        text = question.lower()
        phrases = sorted(self.entries, key=len, reverse=True)
        taken: list[tuple[int, int]] = []
        matches: list[tuple[int, int, str]] = []
        for phrase in phrases:
            start = 0
            while True:
                pos = text.find(phrase, start)
                if pos < 0:
                    break
                end = pos + len(phrase)
                word_bounded = ((pos == 0 or not text[pos - 1].isalnum())
                                and (end == len(text) or not text[end].isalnum()))
                overlaps = any(not (end <= s or pos >= e) for s, e in taken)
                if word_bounded and not overlaps:
                    taken.append((pos, end))
                    matches.append((pos, end, phrase))
                start = pos + 1
        matches.sort()
        spans = []
        candidates = []
        for pos, end, phrase in matches:
            for kind, symbol in self.entries[phrase]:
                candidates.append(LinkingCandidate(question[pos:end], kind, symbol,
                                                   1.0, (pos, end)))
                if kind == KIND_ENTITY:
                    spans.append((pos, end))
        spans = sorted(set(spans))
        return spans, candidates


def with_distractors(candidates: list[LinkingCandidate],
                     pools: dict[str, list[str]],
                     n: int, factor: float,
                     rng: np.random.Generator,
                     entity_pools: dict[str, list[str]] | None = None
                     ) -> list[LinkingCandidate]:
    """Append ``n`` same-kind distractor symbols per candidate, each scored
    ``factor`` times the true candidate's score. ``entity_pools`` narrows
    the pool for a specific entity (e.g. to entities of the same class)."""
    out = list(candidates)
    for c in candidates:
        if entity_pools and c.kind == KIND_ENTITY and c.symbol in entity_pools:
            pool = [s for s in entity_pools[c.symbol] if s != c.symbol]
        else:
            pool = [s for s in pools.get(c.kind, []) if s != c.symbol]
        if not pool:
            continue
        picks = rng.choice(len(pool), size=min(n, len(pool)), replace=False)
        for i in sorted(picks.tolist()):
            out.append(LinkingCandidate(c.mention, c.kind, pool[i],
                                        max(min(c.score * factor, 1.0), 1e-9), c.span))
    return out
