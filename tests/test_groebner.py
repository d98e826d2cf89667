import random

import pytest

from hkforge import groebner
from hkforge.errors import EmptyVariety, ResourceCap
from hkforge.groebner import (
    GroebnerBasis,
    buchberger,
    normal_form,
    s_polynomial,
)
from hkforge.oracle import MacaulayFrame, colength_bruteforce
from hkforge.poly import MonomialOrder, PolyRing


def ring2(p=5, order=None):
    return PolyRing(p, ("x", "y"), order)


def rand_mprimary_gens(R, rng, maxdeg=3):
    gens = [R.variable(i) ** rng.randint(1, maxdeg) for i in range(R.n)]
    for _ in range(rng.randint(1, 2)):
        f = R.zero()
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(R.n))
            f = f + R.monomial(e, rng.randint(1, R.p - 1))
        gens.append(f)
    return gens


def test_normal_form_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert normal_form(x**2, [x]).is_zero()
    G = buchberger(R, [x**2 - y])
    assert G.normal_form(x**2 * y + y) == y**2 + y
    f = x * y + 3
    assert G.normal_form(G.normal_form(f)) == G.normal_form(f)


def test_normal_form_is_linear():
    rng = random.Random(5)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    G = buchberger(R, [x**2 + y, y**2])
    for _ in range(10):
        f = R.monomial((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 4))
        g = R.monomial((rng.randint(0, 3), rng.randint(0, 3)), rng.randint(1, 4))
        c = rng.randint(0, 4)
        assert G.normal_form(f + g) == G.normal_form(f) + G.normal_form(g)
        assert G.normal_form(f * c) == G.normal_form(f) * c


def test_buchberger_worked_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)

    G = buchberger(R, [x, y])
    assert set(G.basis) == {x, y}

    G = buchberger(R, [x * y, x + y])
    assert set(G.basis) == {x + y, y**2}

    L = ring2(order=MonomialOrder.lex())
    xl, yl = L.variable(0), L.variable(1)
    G = buchberger(L, [xl**2 - yl, yl**2 - xl])
    assert yl**4 - yl in set(G.basis)
    # elimination really found the resultant: substituting any root of the
    # univariate part works only through membership, checked via the oracle
    assert MacaulayFrame(L, [xl**2 - yl, yl**2 - xl], 10).contains((yl**4 - yl).frobenius_power(1))


def test_reduced_basis_is_canonical():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    a = buchberger(R, [x * y, x + y])
    b = buchberger(R, [x + y, x * y, 2 * (x + y)])
    assert a.basis == b.basis
    for g in a.basis:
        assert g.leading_coefficient() == 1
        for other in a.basis:
            if other is g:
                continue
            for e, _ in g.exponent_terms():
                assert not all(
                    u <= v for u, v in zip(other.leading_exponents(), e)
                )


def test_input_generators_are_contained():
    rng = random.Random(11)
    for _ in range(5):
        R = ring2()
        gens = rand_mprimary_gens(R, rng)
        G = buchberger(R, gens)
        for g in gens:
            assert G.contains(g)


def test_spoly_criterion_holds():
    rng = random.Random(12)
    for _ in range(5):
        R = ring2()
        G = buchberger(R, rand_mprimary_gens(R, rng))
        assert G.verify()


def test_colength_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert buchberger(R, [x, y]).colength() == 1
    assert buchberger(R, [x**3, y**3]).colength() == 9
    assert type(buchberger(R, [x**3, y**3]).colength()) is int
    assert buchberger(R, [x**2, x * y, y**2]).colength() == 3
    assert buchberger(R, [x * y]).colength() is None
    assert buchberger(R, []).colength() is None
    assert buchberger(R, [x + 1, x]).colength() == 0  # unit ideal


def test_krull_dim_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert buchberger(R, [x * y]).krull_dim() == 1
    assert buchberger(R, [x**2, x * y, y**2]).krull_dim() == 0
    R3 = PolyRing(5, ("x", "y", "z"))
    assert buchberger(R3, [R3.variable(0)]).krull_dim() == 2
    assert buchberger(R3, []).krull_dim() == 3
    with pytest.raises(EmptyVariety):
        buchberger(R, [R.one()]).krull_dim()


def test_contains_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    G = buchberger(R, [x + y, x * y])
    assert G.contains(x**2)
    assert G.contains(R.zero())
    assert not buchberger(R, [x]).contains(y)


def test_colength_is_order_independent():
    rng = random.Random(13)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        nv = rng.choice([2, 3])
        names = tuple("xyz"[:nv])
        R = PolyRing(p, names)
        gens = rand_mprimary_gens(R, rng)
        c_grevlex = buchberger(R, gens).colength()
        L = PolyRing(p, names, MonomialOrder.lex())
        c_lex = buchberger(L, [L.convert(g) for g in gens]).colength()
        assert c_grevlex == c_lex


def test_oracle_agreement_randomized():
    rng = random.Random(14)
    for _ in range(20):
        p = rng.choice([2, 3, 5])
        nv = rng.choice([2, 3])
        R = PolyRing(p, tuple("xyz"[:nv]))
        gens = rand_mprimary_gens(R, rng)
        assert buchberger(R, gens).colength() == colength_bruteforce(R, gens)


def test_frobenius_shortcut_on_reduced_bases():
    rng = random.Random(15)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        R = PolyRing(p, ("x", "y"))
        gens = rand_mprimary_gens(R, rng)
        G = buchberger(R, gens)
        Gq = buchberger(R, [g.frobenius_power(p) for g in gens])
        expected = sorted(
            (g.frobenius_power(p) for g in G.basis),
            key=lambda h: R.order.key(h.leading_exponents()),
            reverse=True,
        )
        assert list(Gq.basis) == expected


def test_resource_caps_trip(monkeypatch):
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    gens = [x**3 - y, x * y**2 - x - 1, y**3 - x**2]
    with monkeypatch.context() as mp:
        mp.setattr(groebner, "MAX_PAIRS", 1)
        with pytest.raises(ResourceCap, match="pair budget 1 exhausted"):
            buchberger(R, gens)
    with monkeypatch.context() as mp:
        mp.setattr(groebner, "MAX_TERMS", 2)
        with pytest.raises(ResourceCap, match="term budget 2 exhausted"):
            buchberger(R, gens)
    # Both constants are read at each call: under the defaults it completes.
    buchberger(R, gens)


def test_pair_budget_counts_only_reduced_pairs(monkeypatch):
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    monkeypatch.setattr(groebner, "MAX_PAIRS", 0)
    # Coprime leading terms: the one pair is discarded, never reduced.
    assert buchberger(R, [x**2 + y, y**3]).colength() == 6


@pytest.mark.parametrize(
    "order", [MonomialOrder.lex(), MonomialOrder.elim(2), MonomialOrder("grevlex")]
)
def test_lex_and_elim_finish_on_a_zero_dimensional_ideal(order):
    # Queuing every pair spent the default term budget under lex and elim(2).
    R = PolyRing(3, ("x", "y", "z"), order)
    x, y, z = (R.variable(i) for i in range(3))
    gens = [x**2 + y**2 * z + y * z**2, x**2 * y**2 + x * z**2 + 1, x**2 * y * z**2 + 2 * x**2 + 1]
    G = buchberger(R, gens)
    assert G.colength() == 27
    assert G.verify()
    assert all(G.contains(g) for g in gens)


def test_staircase_is_an_antichain():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    G = buchberger(R, [x**3, x * y, y**2])
    stairs = G.staircase()
    assert sorted(stairs) == [(0, 2), (1, 1), (3, 0)]
    for a in stairs:
        for b in stairs:
            if a != b:
                assert not all(u <= v for u, v in zip(a, b))


def test_s_polynomial_cancels_leading_terms():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    f = (x**2 + y).monic()
    g = (x * y + 1).monic()
    s = s_polynomial(f, g)
    lcm = (2, 1)
    assert all(e != lcm for e, _ in s.exponent_terms())


def test_zero_ideal_basis():
    R = ring2()
    G = buchberger(R, [])
    assert isinstance(G, GroebnerBasis)
    assert not G.basis
    assert G.normal_form(R.variable(0)) == R.variable(0)
