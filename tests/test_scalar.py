import random

import pytest

from hkforge.errors import DivisionByZero, PreconditionViolated
from hkforge.scalar import PrimeField, rational, render_rational


def test_field_construction_validates_modulus():
    PrimeField(2)
    PrimeField(7)
    with pytest.raises(PreconditionViolated):
        PrimeField(1)
    with pytest.raises(PreconditionViolated):
        PrimeField(4)
    with pytest.raises(PreconditionViolated):
        PrimeField(-5)
    with pytest.raises(PreconditionViolated):
        PrimeField(2**31 + 11)


def test_normalize_and_basic_ops():
    F = PrimeField(7)
    assert F.normalize(-1) == 6
    assert F.normalize(7) == 0
    assert F.normalize(3 + 5) == 1
    assert F.normalize(3 - 5) == 5
    assert F.normalize(3 * 5) == 1
    assert F.normalize(-2) == 5
    assert F.normalize(-7) == 0


def test_inverse_and_division():
    F = PrimeField(13)
    for a in range(1, 13):
        assert a * F.inv(a) % 13 == 1
    with pytest.raises(DivisionByZero):
        F.inv(0)


def test_pow_matches_builtin():
    F = PrimeField(11)
    for a in range(11):
        for e in range(8):
            assert F.pow(a, e) == pow(a, e, 11)
    assert F.pow(3, -1) == F.inv(3)
    assert F.pow(3, -2) == F.inv(3 * 3 % 11)
    with pytest.raises(DivisionByZero):
        F.pow(0, -1)


def test_randomized_inverse_against_builtin():
    rng = random.Random(20240817)
    for p in (3, 101, 32003):
        F = PrimeField(p)
        for _ in range(50):
            a = rng.randrange(1, p)
            assert F.inv(a) == pow(a, -1, p)


def test_rational_helpers():
    assert rational(6, 4) == rational(3, 2)
    assert render_rational(rational(3, 2)) == "3/2"
    assert render_rational(rational(4, 2)) == "2/1"
    assert render_rational(rational(0)) == "0/1"
    with pytest.raises(DivisionByZero):
        rational(1, 0)
