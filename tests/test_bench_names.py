"""The benchmark under ``bench/`` finds the functions it traces and times
by name, with ``getattr``: every name it lists must exist in ``kbqg``.

The lists are read from the benchmark's files without running them.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def listed(filename: str, name: str) -> list[tuple[str, str]]:
    """The literal list assigned to ``name`` in ``bench/<filename>``."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError(f"{filename} assigns no {name}")


NAMES = sorted(set(listed("tracer.py", "TRACED") + listed("workloads.py", "ROUND_FUNCTIONS")))


@pytest.mark.parametrize("module_name, attr", NAMES, ids=[f"{m}.{a}" for m, a in NAMES])
def test_benchmark_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:   # "Class.method", looked up in the class itself
        cls_name, method = attr.split(".")
        assert method in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_canonical_form_keeps_the_cache_interface_the_benchmark_calls():
    # the benchmark clears the cache, reads its hit counts and times the
    # uncached function
    from kbqg.canon import canonical_form

    for attr in ("cache_clear", "cache_info", "__wrapped__"):
        assert callable(getattr(canonical_form, attr))


def test_merge_pair_takes_the_arguments_and_gives_the_result_the_benchmark_uses():
    # the benchmark replays recorded calls with ``restrict=`` and ``counts=``
    # and counts each result's candidates with ``len``
    from collections import Counter

    from kbqg.merging import MergeConfig, merge_pair
    from kbqg.sparql import parse_query

    a = parse_query("SELECT ?x WHERE { ?x :p :E }")
    b = parse_query("SELECT ?y WHERE { ?y :q ?z }")
    counts = Counter()
    result = merge_pair(a, b, restrict=MergeConfig(), counts=counts)
    assert len(result) == len(list(result)) > 0
    assert counts["generated"] > 0
