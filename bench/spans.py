"""Spans and counters at the public boundaries of the hkforge modules.

``instrument`` replaces each boundary function with a wrapper that appends a
span (name, start, end, parent, case id, flag) to in-memory columns.  A
function imported by name into other modules is replaced in every module
that holds it, and a method in every class attribute that aliases it (so
``__radd__`` is traced with ``__add__``).  Nothing in the package is edited
on disk; ``Instrumentation.restore`` puts the originals back.

``summarize`` turns the columns into per-name calls, busy time (the union
of the name's intervals, so a nested call of the same name is not counted
twice) and self time (span duration minus the part its children cover).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

# (module, attribute path, span name, flag probe or None).  The probe turns
# the return value into the span's flag, counted by the ratio metrics.
BOUNDARIES = [
    ("cli", "main", "cli.main", None),
    ("problem", "load_problem", "problem.load", None),
    ("parsing", "parse_polynomial", "parsing.parse_polynomial", None),
    ("poly", "Polynomial.__mul__", "poly.mul", None),
    ("poly", "Polynomial.__add__", "poly.add", None),
    ("poly", "Polynomial.__sub__", "poly.add", None),
    ("poly", "Polynomial.substitute_linear", "poly.substitute_linear", None),
    ("poly", "Polynomial.multiply_monomial", "poly.multiply_monomial", None),
    ("groebner", "buchberger", "groebner.buchberger", None),
    ("groebner", "normal_form", "groebner.normal_form", lambda r: r.is_zero()),
    ("groebner", "s_polynomial", "groebner.s_polynomial", None),
    ("groebner", "GroebnerBasis.colength", "groebner.colength", None),
    ("ideals", "Ideal.groebner", "ideals.groebner", None),
    ("ideals", "Ideal.intersect", "ideals.intersect", None),
    ("ideals", "Ideal.colon", "ideals.colon", None),
    ("linkage", "link", "linkage.link", None),
    ("linkage", "corner_power", "linkage.corner_power", None),
    ("linkage", "hk_table", "linkage.hk_table", None),
    ("linkage", "reciprocity_report", "linkage.reciprocity_report", None),
    ("invariants", "group_closure", "invariants.group_closure", None),
    ("invariants", "reynolds", "invariants.reynolds", None),
    ("invariants", "invariant_basis", "invariants.invariant_basis", None),
    ("invariants", "noether_ideal", "invariants.noether_ideal", None),
    ("oracle", "colength_bruteforce", "oracle.colength_bruteforce", lambda r: r is None),
    ("oracle", "MacaulayFrame.__init__", "oracle.frame", None),
    ("oracle", "MacaulayFrame.add_row", "oracle.add_row", bool),
]

LAYERS = ("cli", "problem", "parsing", "poly", "groebner", "ideals", "linkage",
          "invariants", "oracle")


class Tracer:
    """Span columns in memory; ``current_case`` tags every span opened."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.case = array("I")
        self.flag = array("b")
        self.stack: list[int] = []
        self.current_case = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, probe=None):
        nid = self.name_id(name)
        names, starts, ends, parents, cases, flags = (
            self.name, self.start, self.end, self.parent, self.case, self.flag)
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            cases.append(self.current_case)
            flags.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None and probe(result):
                flags[idx] = 1
            return result

        return traced

    def columns(self) -> dict:
        """Copies of the span columns as int64 arrays."""
        return {
            key: np.array(column, dtype=np.int64)
            for key, column in (("name", self.name), ("start", self.start), ("end", self.end),
                                ("parent", self.parent), ("case", self.case), ("flag", self.flag))
        }

    def clear(self):
        for column in (self.name, self.start, self.end, self.parent, self.case, self.flag):
            del column[:]


@dataclass
class Instrumentation:
    patched: list

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()


def instrument(tracer: Tracer) -> Instrumentation:
    """Wrap every boundary in every loaded hkforge module that holds it."""
    modules = [m for n, m in list(sys.modules.items()) if n == "hkforge" or n.startswith("hkforge.")]
    patched = []
    for module_name, path, span, probe in BOUNDARIES:
        home = sys.modules[f"hkforge.{module_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(home, cls_name)
            original = vars(cls)[attr]
            wrapper = tracer.wrap(span, original, probe)
            for alias, value in list(vars(cls).items()):
                if value is original:
                    patched.append((cls, alias, original))
                    setattr(cls, alias, wrapper)
        else:
            original = getattr(home, path)
            wrapper = tracer.wrap(span, original, probe)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, alias, original))
                        setattr(module, alias, wrapper)
    return Instrumentation(patched)


def save(path: str, names: list[str], cols: dict):
    """Write span columns and the name table to a compressed .npz file."""
    np.savez_compressed(path, names=np.array(names), **cols)


def summarize(names: list[str], cols: dict) -> dict:
    """Per span name: calls, busy_ns, self_ns, flagged (outermost spans only
    count as calls and busy; self time sums over every span)."""
    name, parent = cols["name"], cols["parent"]
    dur = cols["end"] - cols["start"]
    covered = np.zeros(len(name), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_ns = dur - covered
    # A span nested in a span of its own name (__sub__ calling __add__) is
    # part of that call: walk every span's ancestors level by level.
    outer = np.ones(len(name), dtype=bool)
    anc = parent.copy()
    while (live := anc >= 0).any():
        outer[live] &= name[anc[live]] != name[live]
        anc[live] = parent[anc[live]]
    out = {}
    for nid, label in enumerate(names):
        mine = name == nid
        top = mine & outer
        out[label] = {
            "calls": int(top.sum()),
            "busy_ns": int(dur[top].sum()),
            "self_ns": int(self_ns[mine].sum()),
            "flagged": int(cols["flag"][top].sum()),
        }
    return out


def groebner_hits(names: list[str], cols: dict) -> int:
    """Ideal.groebner calls that returned without running buchberger."""
    if "ideals.groebner" not in names:
        return 0
    gid = names.index("ideals.groebner")
    bid = names.index("groebner.buchberger") if "groebner.buchberger" in names else -1
    name, parent = cols["name"], cols["parent"]
    reached = np.zeros(len(name), dtype=bool)
    anc = np.where(name == bid)[0]
    while len(anc):
        anc = parent[anc]
        anc = anc[anc >= 0]
        reached[anc] = True
    return int(((name == gid) & ~reached).sum())
