import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest

import hkforge
from hkforge import oracle
from hkforge.errors import ResourceCap, RingMismatch
from hkforge.oracle import MacaulayFrame, colength_bruteforce
from hkforge.poly import PolyRing


def ring2():
    return PolyRing(5, ("x", "y"))


def test_truncated_colength_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert MacaulayFrame(R, [x**2, x * y, y**2], 3).colength == 3
    assert MacaulayFrame(R, [x**3, y**3], 6).colength == 9
    assert MacaulayFrame(R, [x**3, y**3], 7).colength == 9


def test_stabilized_colength(monkeypatch):
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert colength_bruteforce(R, [x**5, y**5, x * y]) == 9
    assert colength_bruteforce(R, [x**2, x * y, y**2]) == 3
    assert colength_bruteforce(R, [x + y, x * y]) == 2
    assert colength_bruteforce(R, [x, y]) == 1
    # The certificate for 9 needs x^5 and y^5 below D; the bound is read per call.
    monkeypatch.setattr(oracle, "MAX_DEGREE", 3)
    assert colength_bruteforce(R, [x**5, y**5, x * y]) is None
    assert colength_bruteforce(R, [x, y]) == 1


def test_non_primary_ideal_never_stabilizes(monkeypatch):
    R = ring2()
    x = R.variable(0)
    monkeypatch.setattr(oracle, "MAX_DEGREE", 9)
    assert colength_bruteforce(R, [x]) is None


def test_membership_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert MacaulayFrame(R, [x + y, x * y], 5).contains(x**2)
    assert not MacaulayFrame(R, [x], 5).contains(y)
    assert MacaulayFrame(R, [x], 3).contains(R.zero())


def test_membership_of_a_polynomial_of_another_ring_is_refused():
    # Columns are packed per ring, so a foreign polynomial would be misread.
    R, other = ring2(), PolyRing(5, ("a", "b", "c"))
    with pytest.raises(RingMismatch):
        MacaulayFrame(R, [R.variable(0)], 3).contains(other.variable(1))


def test_membership_respects_truncation_semantics():
    # the frame decides membership in I + m^D: x^3 lies in m^3, x and x^2 do not
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    frame = MacaulayFrame(R, [y], 3)
    assert frame.contains(x**3)
    assert not frame.contains(x**2)
    assert not frame.contains(x)
    assert frame.contains(y + x**4)


def test_monotone_in_added_generators():
    rng = random.Random(99)
    R = ring2()
    for _ in range(10):
        gens = [R.variable(i) ** rng.randint(1, 4) for i in range(2)]
        base = colength_bruteforce(R, gens)
        extra = R.monomial(
            (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 4)
        )
        bigger = colength_bruteforce(R, gens + [extra])
        assert bigger is not None and base is not None
        assert bigger <= base


def test_column_cap_trips():
    R = PolyRing(5, ("a", "b", "c", "d"))
    with pytest.raises(ResourceCap):
        MacaulayFrame(R, [R.variable(0)], 60)


def test_rank_and_vector_roundtrip():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    frame = MacaulayFrame(R, [x + y], 3)
    assert frame.rank == len(frame.pivots)
    assert frame.contains(x + y)
    assert frame.contains((x + y) * x)
    assert not frame.contains(x)


def test_grown_frame_equals_fresh_frame():
    rng = random.Random(7)
    for p, names in ((2, ("x",)), (5, ("x", "y")), (3, ("x", "y", "z"))):
        R = PolyRing(p, names)
        for _ in range(6):
            gens = [
                R.from_terms(
                    (tuple(rng.randint(0, 3) for _ in names), rng.randint(1, p - 1))
                    for _ in range(rng.randint(1, 3))
                )
                for _ in range(rng.randint(1, 3))
            ]
            probes = [g * R.variable(0) + R.variable(len(names) - 1) ** 2 for g in gens]
            start, k = rng.randint(1, 3), rng.randint(1, 4)
            grown = MacaulayFrame(R, gens, start)
            for _ in range(k):
                grown.grow()
            fresh = MacaulayFrame(R, gens, start + k)
            assert grown.bound == fresh.bound == start + k
            below = lambda frame: {e for e in frame.pivots if frame.degree(e) < frame.bound}
            assert below(grown) == below(fresh)
            assert grown.colength == fresh.colength
            assert [grown.contains(f) for f in probes] == [fresh.contains(f) for f in probes]


def test_rows_past_the_engines_field_are_columns_of_the_frame():
    # p = 2 has the narrowest packed fields; x^top * x^k passes their top.
    R = PolyRing(2, ("x", "y"))
    x, y = R.variable(0), R.variable(1)
    wide = R.monomial((R.max_degree, 0)) + y
    probes = [x**2, x**3, y, x * y + x**2, wide, x**2 + wide]
    for bound in (1, 3, 5):
        frame, plain = MacaulayFrame(R, [wide, x**3], bound), MacaulayFrame(R, [y, x**3], bound)
        assert frame.colength == plain.colength
        assert [frame.contains(f) for f in probes] == [plain.contains(f) for f in probes]
    assert colength_bruteforce(R, [wide, x**3]) == colength_bruteforce(R, [y, x**3]) == 3


def test_oracle_stays_independent_of_the_engine():
    # The oracle cross-checks the engine, so it may share neither the
    # engine's algorithms nor its packed monomials.
    engine = {"groebner", "ideals", "linkage", "invariants"}
    packed = {
        "terms", "pack", "unpack", "guard", "heap_key", "heap_flip", "width",
        "span", "leading_monomial", "multiply_monomial", "divides", "lcm",
    }
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported = {(node.module or "").split(".")[-1]} | {a.name for a in node.names}
            assert not imported & engine, ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not {a.name.split(".")[-1] for a in node.names} & engine, ast.unparse(node)
        elif isinstance(node, ast.Attribute):
            assert node.attr not in packed, ast.unparse(node)


def test_growing_past_the_column_cap_trips():
    R = PolyRing(5, ("a", "b", "c"))
    frame = MacaulayFrame(R, [R.variable(0) ** 60], 48)
    with pytest.raises(ResourceCap, match="20825 truncation columns exceed 20000"):
        frame.grow()


def test_import_leaves_numpy_out():
    src = Path(hkforge.__file__).resolve().parents[1]
    code = "import sys, hkforge, hkforge.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
