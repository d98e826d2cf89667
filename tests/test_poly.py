import itertools
import random

import pytest

from hkforge.errors import NotAPowerOfP, PreconditionViolated, ResourceCap, RingMismatch
from hkforge.poly import (
    MonomialOrder,
    PolyRing,
    monomials_of_degree,
)


def ring2(p=5, order=None):
    return PolyRing(p, ("x", "y"), order)


def rand_poly(R, rng, terms=3, maxexp=3):
    f = R.zero()
    for _ in range(terms):
        e = tuple(rng.randint(0, maxexp) for _ in range(R.n))
        f = f + R.monomial(e, rng.randint(1, R.p - 1))
    return f


def test_ring_validation():
    with pytest.raises(PreconditionViolated):
        PolyRing(5, ())
    with pytest.raises(PreconditionViolated):
        PolyRing(5, ("x", "x"))
    with pytest.raises(PreconditionViolated):
        PolyRing(5, tuple(f"v{i}" for i in range(17)))


def test_order_parse_and_names():
    assert MonomialOrder.parse("lex").name == "lex"
    assert MonomialOrder.parse("grevlex").name == "grevlex"
    assert MonomialOrder.parse("elim(2)").name == "elim(2)"
    with pytest.raises(PreconditionViolated):
        MonomialOrder.parse("degrevlex")
    with pytest.raises(PreconditionViolated):
        MonomialOrder.elim(0)


def test_lex_vs_grevlex_disagree_classically():
    lex = MonomialOrder.lex()
    grevlex = MonomialOrder.grevlex()
    # x > y^3 in lex, but deg wins in grevlex
    assert lex.key((1, 0)) > lex.key((0, 3))
    assert grevlex.key((1, 0)) < grevlex.key((0, 3))
    # grevlex tie-break at equal degree: x^2*y*z > x*y^3? degrees 4 vs 4,
    # compare reversed negated exponents
    g3 = MonomialOrder.grevlex()
    assert g3.key((2, 1, 1)) < g3.key((1, 3, 0))
    assert g3.key((1, 1, 0)) > g3.key((1, 0, 1))


def test_elim_order_blocks_dominate():
    order = MonomialOrder.elim(1)
    # any positive power of the first variable beats everything without it
    assert order.key((1, 0, 0)) > order.key((0, 5, 5))
    assert order.key((0, 2, 0)) > order.key((0, 1, 1))  # grevlex on the tail


def test_orders_are_multiplicative_and_total():
    monos = [e for d in range(4) for e in monomials_of_degree(3, d)]
    for order in (MonomialOrder.lex(), MonomialOrder.grevlex(), MonomialOrder.elim(1)):
        key = order.key
        for a, b in itertools.combinations(monos, 2):
            assert key(a) != key(b)  # total on distinct monomials
        one = (0, 0, 0)
        for a in monos:
            if a != one:
                assert key(a) > key(one)  # 1 is the least monomial
        for a, b in itertools.combinations(monos, 2):
            for m in monos[:8]:
                am = tuple(x + y for x, y in zip(a, m))
                bm = tuple(x + y for x, y in zip(b, m))
                assert (key(am) > key(bm)) == (key(a) > key(b))


def test_monomial_counts():
    assert len(monomials_of_degree(2, 3)) == 4
    assert len(monomials_of_degree(3, 4)) == 15
    assert sum(len(monomials_of_degree(2, d)) for d in range(5)) == 15
    assert monomials_of_degree(1, 7) == [(7,)]


def test_arithmetic_basics():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    f = x + y
    assert (f - f).is_zero()
    assert f + 0 == f
    assert str(f * f) == "x^2 + 2*x*y + y^2"
    assert str((x - y) * (x + y)) == "x^2 + 4*y^2"
    assert (3 * f) * 2 == f  # 6 = 1 mod 5
    assert f**0 == R.one()
    assert f**1 == f


def test_canonical_rendering():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    f = x**2 * y + 4 * y**3
    assert str(f) == "x^2*y + 4*y^3"
    assert str(R.zero()) == "0"
    assert str(R.constant(3)) == "3"
    assert str(x) == "x"
    assert str(2 * x * y**2) == "2*x*y^2"


def test_ring_mismatch_is_rejected():
    a = ring2().variable(0)
    b = PolyRing(7, ("x", "y")).variable(0)
    c = PolyRing(5, ("x", "z")).variable(0)
    d = ring2(order=MonomialOrder.lex()).variable(0)
    for other in (b, c, d):
        with pytest.raises(RingMismatch):
            a + other


def test_convert_between_orders():
    R = ring2()
    L = ring2(order=MonomialOrder.lex())
    x, y = R.variable(0), R.variable(1)
    f = x + y**3
    g = L.convert(f)
    assert g.leading_exponents() == (1, 0)
    assert f.leading_exponents() == (0, 3)
    assert R.convert(g) == f
    with pytest.raises(RingMismatch):
        PolyRing(7, ("x", "y")).convert(f)


def test_frobenius_power_definition_and_validation():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    f = x + 2 * y
    assert f.frobenius_power(1) == f
    assert f.frobenius_power(5) == x**5 + 2 * y**5
    assert f.frobenius_power(25) == x**25 + 2 * y**25
    for bad in (0, 2, 10, 24):
        with pytest.raises(NotAPowerOfP):
            f.frobenius_power(bad)
    with pytest.raises(ResourceCap):
        f.frobenius_power(5**7)


def test_power_of_one_term_scales_its_monomial():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    term = 3 * x**2 * y
    product = R.one()
    for e in range(12):
        assert term**e == product
        product = product * term
    assert (2 * x) ** 25 == R.monomial((25, 0), pow(2, 25, 5))
    assert R.constant(3) ** 4 == R.constant(81)
    # Too wide: the ResourceCap that the repeated products raise.
    big = x ** (R.max_degree // 2)
    with pytest.raises(ResourceCap, match="too wide") as single:
        big**3
    with pytest.raises(ResourceCap) as general:
        big * big * big
    assert str(single.value) == str(general.value)
    assert x**R.max_degree == R.monomial((R.max_degree, 0))
    with pytest.raises(ResourceCap, match="too wide"):
        y ** (R.max_degree + 1)


def test_frobenius_power_is_the_pth_power():
    rng = random.Random(42)
    for p in (2, 3, 5):
        R = PolyRing(p, ("x", "y"))
        for _ in range(8):
            f = rand_poly(R, rng)
            assert f.frobenius_power(p) == f**p


def test_substitute_linear_composition_and_identity():
    rng = random.Random(7)
    R = ring2()
    ident = [[1, 0], [0, 1]]
    swap = [[0, 1], [1, 0]]
    shear = [[1, 1], [0, 1]]
    for _ in range(6):
        f = rand_poly(R, rng)
        assert f.substitute_linear(ident) == f
        # column action: apply h then g equals applying the product gh
        gh = [[sum(shear[i][k] * swap[k][j] for k in range(2)) % 5 for j in range(2)] for i in range(2)]
        assert f.substitute_linear(swap).substitute_linear(shear) == f.substitute_linear(gh)
    x, y = R.variable(0), R.variable(1)
    assert x.substitute_linear(swap) == y
    assert y.substitute_linear(shear) == x + y
    with pytest.raises(RingMismatch):
        x.substitute_linear([[1, 0]])


def test_partial_derivative():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    f = x**3 * y + 2 * x * y
    assert f.partial_derivative(0) == 3 * x**2 * y + 2 * y
    assert f.partial_derivative(1) == x**3 + 2 * x
    # characteristic kills p-th powers
    assert (x**5).partial_derivative(0).is_zero()
    with pytest.raises(PreconditionViolated):
        f.partial_derivative(2)


def test_monic_and_leading_data():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    f = 3 * x**2 + y
    assert f.monic().leading_coefficient() == 1
    assert f.monic() == x**2 + 2 * y
    assert f.leading_exponents() == (2, 0)
    with pytest.raises(PreconditionViolated):
        R.zero().leading_exponents()


def test_hash_and_equality():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert hash(x + y) == hash(y + x)
    assert x + y == y + x
    assert len({x + y, y + x, x - y}) == 2
