"""Reference query evaluator, written apart from ``kbqg.kb``.

It reads the same TSV fact files into hash tables keyed on (predicate,
subject) and (predicate, object), and evaluates a ``kbqg`` query graph
as a sequence of hash joins: the bindings found so far are joined with
one pattern triple at a time, probing the hash on the triple's bound
end. It then applies ORDER ... LIMIT 1 OFFSET selections and the COUNT, AVG,
MAX and MIN aggregates with the semantics the README of ``kbqg``
documents. Only the graph data types are shared with the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from kbqg.graph import AGG_CONNECTORS, AGG_RESULT, ISA, MAXATN, ORDER_LABELS, VARIABLE

TYPE = "a"


@dataclass(frozen=True)
class Answer:
    """A set of bindings, or one aggregate value."""

    values: frozenset = frozenset()
    aggregate: object = None
    is_aggregate: bool = False

    @property
    def is_empty(self) -> bool:
        if self.is_aggregate:
            return self.aggregate is None or (
                isinstance(self.aggregate, int) and self.aggregate == 0)
        return not self.values

    def same_as(self, program_answer) -> bool:
        """Equality with a ``kbqg.kb.AnswerSet``."""
        if self.is_aggregate != program_answer.is_aggregate:
            return False
        if self.is_aggregate:
            return self.aggregate == program_answer.aggregate
        return self.values == program_answer.values

    @classmethod
    def from_doc(cls, doc: dict) -> "Answer":
        """Read a gold answer as the scale generator writes it."""
        if "values" in doc:
            return cls(values=frozenset(doc["values"]))
        return cls(aggregate=number(doc["aggregate"]), is_aggregate=True)


def number(text: str):
    """An exact int or Fraction, or None when the text is not numeric."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def f1(predicted: Answer | None, gold: Answer) -> float:
    """Set F1 over answer elements; aggregates score 1 on an exact match."""
    if predicted is None or predicted.is_aggregate != gold.is_aggregate:
        return 0.0
    if gold.is_aggregate:
        return float(predicted.aggregate == gold.aggregate)
    if not predicted.values and not gold.values:
        return 1.0
    common = len(predicted.values & gold.values)
    if common == 0:
        return 0.0
    precision = common / len(predicted.values)
    recall = common / len(gold.values)
    return 2 * precision * recall / (precision + recall)


class RefKB:
    """Facts grouped by predicate and hashed on subject and on object;
    ``a`` lines form the type relation."""

    def __init__(self, pairs: set[tuple[str, str, str]]):
        self.by_predicate: dict[str, list[tuple[str, str]]] = {}
        self.by_subject: dict[tuple[str, str], list[str]] = {}
        self.by_object: dict[tuple[str, str], list[str]] = {}
        for s, p, o in sorted(pairs):
            self.by_predicate.setdefault(p, []).append((s, o))
            self.by_subject.setdefault((p, s), []).append(o)
            self.by_object.setdefault((p, o), []).append(s)

    @classmethod
    def load(cls, path) -> "RefKB":
        facts = set()
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                s, p, o = line.split("\t")
                facts.add((s, p, o))
        return cls(facts)

    # -- joins -------------------------------------------------------------

    def _size(self, pred, s, o) -> int:
        if s is not None and o is not None:
            return 1
        if s is not None:
            return len(self.by_subject.get((pred, s), ()))
        if o is not None:
            return len(self.by_object.get((pred, o), ()))
        return len(self.by_predicate.get(pred, ()))

    def _matches(self, pred, s, o) -> list[tuple[str, str]]:
        """Facts of one predicate, selected through the hash on whichever
        end is known."""
        if s is not None and o is not None:
            return [(s, o)] if o in self.by_subject.get((pred, s), ()) else []
        if s is not None:
            return [(s, x) for x in self.by_subject.get((pred, s), ())]
        if o is not None:
            return [(x, o) for x in self.by_object.get((pred, o), ())]
        return self.by_predicate.get(pred, [])

    def solutions(self, q) -> list[dict[str, str]]:
        """Every binding of the pattern variables. Each step joins the
        current bindings with the pattern triple that has the fewest
        matching facts given what is bound, probing the hash on the bound
        end of that triple."""
        patterns = []
        for t in q.triples:
            if t.label.is_builtin and t.label.builtin != ISA:
                continue
            ends = []
            for vid in (t.subject, t.object):
                v = q.vertex_by_id[vid]
                ends.append((vid, None) if v.kind in (VARIABLE, AGG_RESULT)
                            else (None, v.surface))
            patterns.append((TYPE if t.label.is_builtin else t.label.name, *ends))
        if not patterns:
            return []
        rows: list[dict[str, str]] = [{}]
        while patterns and rows:
            probe = rows[0]

            def estimate(pat):
                pred, (sv, sc), (ov, oc) = pat
                return self._size(pred, sc if sv is None else probe.get(sv),
                                  oc if ov is None else probe.get(ov))

            pat = min(patterns, key=estimate)
            patterns.remove(pat)
            pred, (sv, sc), (ov, oc) = pat
            out = []
            for row in rows:
                s = sc if sv is None else row.get(sv)
                o = oc if ov is None else row.get(ov)
                for fs, fo in self._matches(pred, s, o):
                    if sv is not None and sv == ov and fs != fo:
                        continue
                    new = dict(row)
                    if sv is not None:
                        new[sv] = fs
                    if ov is not None:
                        new[ov] = fo
                    out.append(new)
            rows = out
        return rows

    # -- evaluation --------------------------------------------------------

    def evaluate(self, q) -> Answer:
        rows = self.solutions(q)
        orders = sorted((t for t in q.triples
                         if t.label.is_builtin and t.label.builtin in ORDER_LABELS),
                        key=lambda t: t.sort_key())
        for t in orders:
            n = int(q.vertex_by_id[t.object].surface)
            keys = []
            for row in rows:
                value = row[t.subject]
                num = number(value)
                keys.append(value if num is None else num)
            if any(isinstance(k, str) for k in keys):
                keys = [str(k) for k in keys]
            ranked = sorted(zip(keys, (tuple(sorted(r.items())) for r in rows), rows),
                            key=lambda k: (k[0], k[1]), reverse=t.label.builtin == MAXATN)
            rows = [ranked[n - 1][2]] if len(ranked) >= n else []

        agg = next((t for t in q.triples if t.label.is_builtin
                    and t.label.builtin in AGG_CONNECTORS and t.object == q.target), None)
        if agg is None:
            return Answer(values=frozenset(row[q.target] for row in rows))
        values = {row[agg.subject] for row in rows if agg.subject in row}
        if agg.label.builtin == "COUNT":
            return Answer(aggregate=len(values), is_aggregate=True)
        if not values:
            return Answer(aggregate=None, is_aggregate=True)
        nums = [number(v) for v in values]
        if any(n is None for n in nums):
            raise ValueError(f"non-numeric value under {agg.label.builtin}")
        if agg.label.builtin == "AVG":
            return Answer(aggregate=Fraction(sum(nums), len(nums)), is_aggregate=True)
        pick = max if agg.label.builtin == "MAX" else min
        return Answer(aggregate=pick(nums), is_aggregate=True)
