"""In-memory knowledge base: fact storage, schema metadata and a query
executor for the supported query-graph semantics.

Facts live in two nested maps, ``objects[p][s]`` and ``subjects[p][o]``,
with rdf:type as one more property, stored under ``TYPE_KEY``.

The KB file format is UTF-8, one tab-separated ``subject property object``
triple per line, with ``a`` accepted as shorthand for rdf:type; a line
with any other number of tabs, or with an empty field, is rejected.
Blank lines and lines starting with ``#`` are skipped. The optional
schema file holds lines ``domain <prop> <class>``, ``range <prop> <class>``
and ``disjoint <class> <class>``.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from fractions import Fraction

from .graph import (
    AGG_CONNECTORS,
    AGG_RESULT,
    AVG,
    CLASS,
    COUNT,
    ENTITY,
    ISA,
    LITERAL,
    MAX,
    MAXATN,
    ORDER_LABELS,
    QueryGraph,
    Triple,
    VARIABLE,
)
from .io import InputError, read_rows

RDF_TYPE_SHORTHAND = "a"
#: the fact maps' key for rdf:type: the ISA label's ``name``, which no
#: user-defined property name can equal
TYPE_KEY = None


class NonNumericAggregateError(ValueError):
    pass


class UnboundTargetError(ValueError):
    pass


def parse_number(text: str):
    """Parse a literal as an exact number (int or Fraction), or None."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


@dataclass
class Schema:
    domains: dict[str, str] = field(default_factory=dict)
    ranges: dict[str, str] = field(default_factory=dict)
    disjoint: set[frozenset[str]] = field(default_factory=set)

    def are_disjoint(self, c1: str, c2: str) -> bool:
        return frozenset((c1, c2)) in self.disjoint


@dataclass
class KnowledgeBase:
    """Immutable-after-load fact store: ``objects[p][s]`` -> the objects
    and ``subjects[p][o]`` -> the subjects of ``p``'s facts."""

    objects: dict[str | None, dict[str, set[str]]] = field(default_factory=dict)
    subjects: dict[str | None, dict[str, set[str]]] = field(default_factory=dict)
    schema: Schema = field(default_factory=Schema)

    def add_fact(self, s: str, p: str, o: str) -> None:
        p = TYPE_KEY if p == RDF_TYPE_SHORTHAND else p
        self.objects.setdefault(p, {}).setdefault(s, set()).add(o)
        self.subjects.setdefault(p, {}).setdefault(o, set()).add(s)

    def classes_of(self, entity: str) -> set[str]:
        return self.objects.get(TYPE_KEY, {}).get(entity, set())

    def entities_of_class(self, cls: str) -> set[str]:
        """The entities typed ``cls``: the index's own set, which callers
        must not modify."""
        return self.subjects.get(TYPE_KEY, {}).get(cls, set())

    @property
    def fact_count(self) -> int:
        return sum(len(objects) for by_subject in self.objects.values()
                   for objects in by_subject.values())


def load_kb(path, schema_path=None) -> KnowledgeBase:
    """Load a KB file. The cyclic garbage collector is paused while the
    indexes are built: every container the loader allocates stays alive
    in them, so its collections would free nothing. One collection of
    the young generations afterwards moves the indexes to the oldest
    generation, so the young collections of later work do not traverse
    them."""
    kb = KnowledgeBase()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for lineno, parts in read_rows(path):
            if len(parts) != 3:
                raise InputError(path, lineno, "expected 3 tab-separated fields, "
                                 f"got {len(parts)}")
            if "" in parts:
                raise InputError(path, lineno, "empty subject, property or object")
            kb.add_fact(*parts)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect(1)
    if schema_path is not None:
        kb.schema = load_schema(schema_path)
    return kb


def load_schema(path) -> Schema:
    schema = Schema()
    for lineno, parts in read_rows(path, sep=None):
        if len(parts) != 3 or parts[0] not in ("domain", "range", "disjoint"):
            raise InputError(path, lineno, f"bad schema line {' '.join(parts)!r}")
        kind, a, b = parts
        if kind == "domain":
            schema.domains[a] = b
        elif kind == "range":
            schema.ranges[a] = b
        else:
            schema.disjoint.add(frozenset((a, b)))
    return schema


# ---------------------------------------------------------------------------
# execution


@dataclass(frozen=True)
class AnswerSet:
    """Bindings of the target vertex: a set of symbols, or one aggregate value."""

    values: frozenset[str] = frozenset()
    aggregate: object = None
    is_aggregate: bool = False

    @property
    def is_empty(self) -> bool:
        """Empty means: no set bindings, no aggregate input rows, or a zero
        count. COUNT yields an int, AVG a Fraction, so a legitimate average
        of zero does not read as empty."""
        if self.is_aggregate:
            return self.aggregate is None or (
                isinstance(self.aggregate, int) and self.aggregate == 0)
        return not self.values


def format_answer(ans: AnswerSet | None) -> str | None:
    """One-line text of an answer: ``{a, b}`` (sorted) for a set,
    ``=x`` for an aggregate (an AVG fraction as a float), None for none."""
    if ans is None:
        return None
    if ans.is_aggregate:
        agg = ans.aggregate
        if isinstance(agg, Fraction):
            return f"={float(agg):g}"
        return f"={agg}"
    return "{" + ", ".join(sorted(ans.values)) + "}"


def _pattern_triples(q: QueryGraph) -> list[Triple]:
    return [t for t in q.triples
            if not t.label.is_builtin or t.label.builtin == ISA]


_HOLDS = (None,)   # the entry of a fully bound triple that holds


def _solutions(q: QueryGraph, kb: KnowledgeBase) -> list[dict[str, str]]:
    """All variable bindings satisfying the basic graph pattern (user
    triples + ISA), by backtracking join.

    At each step the join extends with the remaining triple whose index
    entry, looked up under the current binding, is smallest (lowest
    position on ties), and iterates that entry as it is: no candidate
    list is built or sorted. The entries are ``objects[p][s]``,
    ``subjects[p][o]`` and ``objects[p]`` (sized by its subjects, for a
    triple free at both ends), where an ISA triple's ``p`` is its label
    name, ``TYPE_KEY``; a fully bound triple is a 0/1 membership test. The
    solutions therefore come in no fixed order, and nothing downstream
    depends on one: set answers are a frozenset, aggregates run over
    distinct values, and MAXATN/MINATN sort the rows by (value, full
    sorted row).
    """
    pattern = _pattern_triples(q)
    if not pattern:
        return []

    def term(vid):
        v = q.vertex_by_id[vid]
        if v.kind in (VARIABLE, AGG_RESULT):
            return None, vid
        return v.surface, vid

    # (objects[p], subjects[p], subject const, subject vid, object const, object vid)
    plan = [(kb.objects.get(t.label.name, {}), kb.subjects.get(t.label.name, {}),
             *term(t.subject), *term(t.object)) for t in pattern]
    solutions: list[dict[str, str]] = []

    def entry(step, binding: dict[str, str]):
        """The index entry behind ``step`` under ``binding``, and what its
        items bind: "s" or "o" (that end's values), "so" (both ends) or
        "" (nothing: the triple is fully bound, and the entry has one
        item if it holds, none otherwise)."""
        by_subject, by_object, sconst, svid, oconst, ovid = step
        s = sconst if sconst is not None else binding.get(svid)
        o = oconst if oconst is not None else binding.get(ovid)
        if s is not None:
            objects = by_subject.get(s, ())
            return (objects, "o") if o is None else (_HOLDS if o in objects else (), "")
        if o is not None:
            return by_object.get(o, ()), "s"
        return by_subject, "so"

    def extend(remaining: list, binding: dict[str, str]) -> None:
        if not remaining:
            solutions.append(dict(binding))
            return
        best = None
        for i, step in enumerate(remaining):
            found, ends = entry(step, binding)
            if not found:
                return
            if best is None or len(found) < len(best[1]):
                best = (i, found, ends)
        idx, found, ends = best
        _, _, _, svid, _, ovid = remaining[idx]
        rest = remaining[:idx] + remaining[idx + 1:]
        if ends == "":
            extend(rest, binding)
        elif ends != "so":
            vid = svid if ends == "s" else ovid
            for value in found:
                binding[vid] = value
                extend(rest, binding)
            del binding[vid]
        else:
            for s, objects in found.items():
                for o in objects:
                    if svid == ovid and s != o:
                        continue
                    binding[svid] = s
                    binding[ovid] = o
                    extend(rest, binding)
            binding.pop(svid, None)
            binding.pop(ovid, None)

    extend(plan, {})
    return solutions


def _numeric(value: str, context: str):
    num = parse_number(value)
    if num is None:
        raise NonNumericAggregateError(f"{context}: non-numeric value {value!r}")
    return num


def execute(q: QueryGraph, kb: KnowledgeBase) -> AnswerSet:
    """Evaluate a grounded query graph.

    The basic graph pattern is joined over the facts; MAXATN/MINATN
    triples then keep only the solution row whose subject value is the
    N-th largest/smallest (ties broken by the full sorted row, so results
    are deterministic); finally COUNT/AVG/MAX/MIN bind the aggregate of
    the subject variable's distinct bindings to their result variable.
    """
    if q.target is None:
        raise UnboundTargetError("query has no target")
    rows = _solutions(q, kb)

    order_triples = sorted(
        (t for t in q.triples if t.label.is_builtin and t.label.builtin in ORDER_LABELS),
        key=Triple.sort_key)
    for t in order_triples:
        n = int(q.vertex_by_id[t.object].surface)
        var = t.subject
        keyed = []
        for row in rows:
            if var not in row:
                raise UnboundTargetError(f"order variable {var} unbound")
            num = parse_number(row[var])
            sort_val = num if num is not None else row[var]
            keyed.append((sort_val, tuple(sorted(row.items())), row))
        # non-numeric keys fall back to lexicographic comparison
        if keyed and any(isinstance(k[0], str) for k in keyed):
            keyed = [(str(k[0]), k[1], k[2]) for k in keyed]
        keyed.sort(key=lambda k: (k[0], k[1]), reverse=(t.label.builtin == MAXATN))
        rows = [keyed[n - 1][2]] if len(keyed) >= n else []

    agg_triples = [t for t in q.triples
                   if t.label.is_builtin and t.label.builtin in AGG_CONNECTORS]
    target_agg = next((t for t in agg_triples if t.object == q.target), None)
    if target_agg is not None:
        var = target_agg.subject
        values = {row[var] for row in rows if var in row}
        fn = target_agg.label.builtin
        if fn == COUNT:
            return AnswerSet(aggregate=len(values), is_aggregate=True)
        if not values:
            return AnswerSet(aggregate=None, is_aggregate=True)
        nums = sorted(_numeric(v, fn) for v in values)
        if fn == AVG:
            return AnswerSet(aggregate=Fraction(sum(nums), len(nums)), is_aggregate=True)
        return AnswerSet(aggregate=nums[-1] if fn == MAX else nums[0], is_aggregate=True)

    if rows and q.target not in rows[0]:
        raise UnboundTargetError(f"target {q.target} not bound by the pattern")
    return AnswerSet(values=frozenset(row[q.target] for row in rows))


def check_domain_range(q: QueryGraph, kb: KnowledgeBase) -> bool:
    """Schema consistency of a grounded query.

    Every vertex accumulates the classes imposed on it by property
    domains/ranges and ISA constraints. An entity with known types must
    carry each imposed class; a variable's imposed classes must not be
    declared disjoint. Properties without declarations impose nothing.
    """
    schema = kb.schema
    imposed: dict[str, set[str]] = {}

    def impose(vid: str, cls: str) -> None:
        imposed.setdefault(vid, set()).add(cls)

    for t in q.triples:
        if t.label.is_builtin:
            if t.label.builtin == ISA:
                obj = q.vertex_by_id[t.object]
                if obj.kind == CLASS:
                    impose(t.subject, obj.surface)
            continue
        dom = schema.domains.get(t.label.name)
        if dom is not None:
            impose(t.subject, dom)
        rng = schema.ranges.get(t.label.name)
        if rng is not None and q.vertex_by_id[t.object].kind != LITERAL:
            impose(t.object, rng)

    for vid, classes in imposed.items():
        v = q.vertex_by_id[vid]
        if v.kind == ENTITY:
            known = kb.classes_of(v.surface)
            if known and any(c not in known for c in classes):
                return False
        elif v.kind in (VARIABLE, AGG_RESULT):
            classes = sorted(classes)
            for i, c1 in enumerate(classes):
                for c2 in classes[i + 1:]:
                    if schema.are_disjoint(c1, c2):
                        return False
        # literal/class vertices: nothing to check
    return True
