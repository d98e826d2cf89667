"""Every boundary that the benchmark's tracer wraps must exist in hkforge.

`bench/spans.py` looks each `(module, attribute path)` of `BOUNDARIES` up by
name when it instruments a run, so deleting or renaming one of them breaks
`bench/run.py --trace 1`.  The file is read with `ast`, not imported, because
importing it needs numpy.
"""

import ast
import importlib
import os

import pytest

import hkforge.groebner
import hkforge.ideals
import hkforge.invariants

SPANS = os.path.join(os.path.dirname(__file__), "..", "bench", "spans.py")


def _boundaries() -> list[tuple[str, str]]:
    with open(SPANS, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("bench/spans.py defines no BOUNDARIES list")


BOUNDARIES = _boundaries()


def test_boundaries_were_found():
    assert ("ideals", "Ideal.colon") in BOUNDARIES


@pytest.mark.parametrize("module_name, path", BOUNDARIES, ids=[".".join(b) for b in BOUNDARIES])
def test_boundary_resolves(module_name, path):
    home = importlib.import_module(f"hkforge.{module_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, path))


def test_buchberger_is_one_object_in_every_module_that_calls_it():
    # The tracer patches the name in each module that holds the same object.
    assert hkforge.ideals.buchberger is hkforge.groebner.buchberger
    assert hkforge.invariants.buchberger is hkforge.groebner.buchberger
