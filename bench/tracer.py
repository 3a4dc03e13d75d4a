"""Spans and counts recorded around the public functions of ``kbqg``.

The tracer patches each traced function at every module that holds a
reference to it, so call sites stay apart: ``grounding.execute`` (the
non-empty check in grounding) and ``evaluation.execute`` (gold answers
and re-scoring) are separate sites of ``kb.execute``. Nothing inside
``src/`` is changed.

Spans carry a name, start, end, parent span and question id. They are
kept in memory as columns and written out when the run ends. Each site
also accumulates its call count, total time and self time (its time
minus the time of the traced calls it made).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (defining module, attribute) of every traced function; methods are
# given as "Class.method"
TRACED = [
    ("kbqg.sparql", "parse_query"),
    ("kbqg.canon", "canonical_form"),
    ("kbqg.mining", "mine"),
    ("kbqg.mining", "enumerate_substructures"),
    ("kbqg.mining", "contained_frequent_keys"),
    ("kbqg.predictor", "train"),
    ("kbqg.predictor", "predict_all"),
    ("kbqg.nn", "forward"),
    ("kbqg.nn", "backward"),
    ("kbqg.ranking", "rank_existing"),
    ("kbqg.ranking", "containment_pattern"),
    ("kbqg.merging", "merge_substructures"),
    ("kbqg.merging", "merge_pair"),
    ("kbqg.grounding", "ground"),
    ("kbqg.grounding", "validate_grammar"),
    ("kbqg.kb", "check_domain_range"),
    ("kbqg.kb", "execute"),
    ("kbqg.kb", "load_kb"),
    ("kbqg.kb", "load_schema"),
    ("kbqg.kb", "KnowledgeBase.entities_of_class"),
    ("kbqg.evaluation", "load_dataset"),
    ("kbqg.evaluation", "build_generator"),
    ("kbqg.evaluation", "evaluate_questions"),
    ("kbqg.evaluation", "answer_f1"),
    ("kbqg.pipeline", "QueryGenerator.generate"),
    ("kbqg.pipeline", "QueryGenerator.rank"),
]


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Wraps the functions listed in ``functions`` (default: every
    traced layer function) while installed."""

    def __init__(self, functions=TRACED):
        self.functions = functions
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.qids: list[str] = [""]
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_qid = array("i")
        self.stats: dict[str, list] = {}   # site -> [calls, total s, self s]
        self.counts: dict[str, float] = {}
        self._stack: list[list] = []       # [span index, child time]
        self._qid = 0
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- question ids -----------------------------------------------------

    def set_question(self, qid: str) -> None:
        self.qids.append(qid)
        self._qid = len(self.qids) - 1

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- patching ---------------------------------------------------------

    def _wrap(self, site: str, fn, on_enter=None, on_exit=None):
        name_id = self._name_id.setdefault(site, len(self.names))
        if name_id == len(self.names):
            self.names.append(site)
        stat = self.stats.setdefault(site, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        cols = (self.span_name, self.span_start, self.span_end,
                self.span_parent, self.span_qid)

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            index = len(cols[0])
            cols[0].append(name_id)
            cols[3].append(stack[-1][0] if stack else -1)
            cols[4].append(self._qid)
            cols[2].append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            cols[1].append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                cols[2][index] = end
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_exit is not None:
                on_exit(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hooks: dict[str, tuple] | None = None) -> None:
        """Patch every traced function at every site that refers to it.
        ``hooks`` maps a site name to (on_enter, on_exit) callbacks, called
        as ``on_enter(args, kwargs)`` and ``on_exit(args, result)``."""
        hooks = hooks or {}
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "kbqg" or name.startswith("kbqg.")}
        for module_name, attr in self.functions:
            owner = modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                site = f"{_short(module_name)}.{attr}"
                self.originals[site] = fn
                self._patch(cls, meth, self._wrap(site, fn, *hooks.get(site, (None, None))))
                continue
            fn = getattr(owner, attr)
            self.originals[f"{_short(module_name)}.{attr}"] = fn
            for mod_name, mod in sorted(modules.items()):
                if getattr(mod, attr, None) is fn:
                    site = f"{_short(mod_name)}.{attr}"
                    self._patch(mod, attr, self._wrap(site, fn, *hooks.get(site, (None, None))))

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- results ----------------------------------------------------------

    def site(self, name: str) -> tuple[int, float, float]:
        calls, total, self_time = self.stats.get(name, (0, 0.0, 0.0))
        return calls, total, self_time

    def durations(self, name: str) -> list[float]:
        """Duration of every span of one site, in call order."""
        name_id = self._name_id.get(name)
        return [end - start for n, start, end in
                zip(self.span_name, self.span_start, self.span_end) if n == name_id]

    def function(self, attr: str) -> tuple[int, float, float]:
        """Calls, total and self time of one function over all its sites."""
        calls = total = self_time = 0
        for site, (c, t, s) in self.stats.items():
            if site.rsplit(".", 1)[-1] == attr:
                calls, total, self_time = calls + c, total + t, self_time + s
        return calls, total, self_time

    def self_time_table(self) -> list[tuple[str, int, float, float]]:
        rows = [(site, c, t, s) for site, (c, t, s) in self.stats.items() if c]
        return sorted(rows, key=lambda r: -r[3])

    def dump(self, path) -> Path:
        """Write the spans as columns: ``<path>.npz`` holds name, start,
        end, parent and question-id arrays; ``<path>.json`` names the ids
        and holds the per-site totals."""
        import numpy as np

        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 qid=np.frombuffer(self.span_qid, dtype=np.int32))
        doc = {"names": self.names, "qids": self.qids,
               "sites": {site: {"calls": c, "total_s": t, "self_s": s}
                         for site, c, t, s in self.self_time_table()},
               "counts": self.counts}
        path.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n",
                                             encoding="utf-8")
        return path.with_suffix(".npz")
