from fractions import Fraction

import pytest

from hkforge.errors import PreconditionViolated
from hkforge.invariants import group_closure
from hkforge.poly import PolyRing
from hkforge.scalar import prime_modulus, render_rational

# Every place a modulus enters the library, each returning the p it keeps.
MODULUS_CHECKS = {
    "prime_modulus": prime_modulus,
    "PolyRing": lambda p: PolyRing(p, ("x",)).p,
    "group_closure": lambda p: group_closure(p, [[[1]]]).p,
}


def test_field_construction_validates_modulus():
    for name, check in MODULUS_CHECKS.items():
        for p in (2, 7, 2**31 - 1):
            assert check(p) == p, name
        for p in (1, 4, -5, True, 5.0):
            with pytest.raises(PreconditionViolated, match=f"^modulus {p!r} is not prime$"):
                check(p)
        with pytest.raises(PreconditionViolated, match=r"^modulus 2147483659 exceeds 2\^31$"):
            check(2**31 + 11)


def test_rational_helpers():
    assert render_rational(Fraction(3, 2)) == "3/2"
    assert render_rational(Fraction(6, 4)) == "3/2"
    assert render_rational(Fraction(4, 2)) == "2/1"
    assert render_rational(Fraction(0)) == "0/1"
    assert render_rational(Fraction(-3, 6)) == "-1/2"
