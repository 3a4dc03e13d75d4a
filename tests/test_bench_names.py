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
