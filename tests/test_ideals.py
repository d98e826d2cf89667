import random
import threading

import pytest

from hkforge import ideals
from hkforge.errors import EmptyVariety, InternalError, PreconditionViolated
from hkforge.groebner import buchberger
from hkforge.ideals import Ideal, QuotientPresentation, _exact_divide
from hkforge.oracle import MacaulayFrame
from hkforge.parsing import parse_polynomial
from hkforge.poly import MonomialOrder, PolyRing


def ring2(p=5):
    return PolyRing(p, ("x", "y"))


def test_intersect_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert Ideal.of(x).intersect(Ideal.of(y)).equals(Ideal.of(x * y))
    assert Ideal.of(x**2, x * y).intersect(Ideal.of(y)).equals(Ideal.of(x * y))
    I = Ideal.of(x**2, x * y + y**2)
    assert I.intersect(I).equals(I)


def test_intersect_membership_both_ways():
    # oracle certificate for (x^2, xy) cap (y) = (xy)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    meet = Ideal.of(x**2, x * y).intersect(Ideal.of(y))
    for g in meet.groebner().basis:
        assert MacaulayFrame(R, [x**2, x * y], 8).contains(g)
        assert MacaulayFrame(R, [y], 8).contains(g)
    assert meet.contains(x * y)


def test_colon_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert Ideal.of(x**2, y**2).colon(Ideal.of(x, y)).equals(
        Ideal.of(x**2, x * y, y**2)
    )
    assert Ideal.of(x**2, x * y).colon(Ideal.of(x)).equals(Ideal.of(x, y))
    I = Ideal.of(x**3, y)
    # a divisor holding a nonzero constant is (1): the dividend comes back
    assert I.colon(Ideal.of(R.one())) is I
    assert I.colon(Ideal.of(x, R.constant(3))) is I
    with pytest.raises(PreconditionViolated):
        I.colon(Ideal(R, []))


def test_colon_galois_connection_and_antitonicity():
    rng = random.Random(21)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    for _ in range(8):
        I = Ideal.of(x ** rng.randint(1, 3), y ** rng.randint(1, 3))
        J = Ideal.of(
            R.monomial((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 4)),
            x + rng.randint(0, 4) * y,
        )
        Q = I.colon(J)
        # J * (I : J) lies inside I
        for f in J.gens:
            for g in Q.gens:
                assert I.contains(f * g)
        bigger = Ideal(R, I.gens + (x * y,))
        assert bigger.colon(J).contains_ideal(I.colon(J)) or bigger.equals(I)
        # antitone in the second argument: J ext contains J, so (I : J_ext) c (I : J)
        J_ext = Ideal(R, J.gens + (y ** rng.randint(1, 2),))
        assert I.colon(J).contains_ideal(I.colon(J_ext))


def test_colon_by_an_ideal_inside_i_is_the_unit_ideal(monkeypatch):
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = Ideal.of(x**2, x * y, y**3)
    calls = []
    intersect = Ideal.intersect
    monkeypatch.setattr(
        Ideal, "intersect", lambda self, other: calls.append(1) or intersect(self, other)
    )
    Q = I.colon(Ideal.of(x**2, x * y + y**3, x**3))
    assert calls == []
    assert Q.groebner().basis == (R.one(),)
    assert Q.is_unit()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_colon_runs_buchberger_twice_per_generator_outside_i_but_once(monkeypatch, k):
    # One elimination for each generator g outside I and one intersection for
    # each part after the first; the generators of I cap (g) are divided by g
    # as they come, with no basis of their own.
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = Ideal.of(x**3, y**3)
    I.groebner()
    J = Ideal(R, [x + y, x * y, y**2][:k])
    runs = []
    buchberger = ideals.buchberger
    monkeypatch.setattr(
        ideals, "buchberger", lambda ring, gens: runs.append(1) or buchberger(ring, gens)
    )
    Q = I.colon(J)
    assert len(runs) == 2 * k - 1
    monkeypatch.undo()
    assert all(I.contains(f * g) for f in J.gens for g in Q.gens)


def test_colon_skips_generators_inside_i():
    rng = random.Random(22)
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    for _ in range(6):
        I = Ideal.of(x ** rng.randint(1, 3), y ** rng.randint(1, 3), x * y)
        outside = [g for g in (x + rng.randint(1, 4) * y, y, R.one()) if not I.contains(g)]
        inside = [f * x * y for f in (x, R.one(), y + 2)]
        mixed = inside[:1] + outside + inside[1:]
        assert I.colon(Ideal(R, mixed)).equals(I.colon(Ideal(R, outside)))


def test_bracket_power_examples():
    R2 = PolyRing(2, ("x", "y"))
    assert R2.variable(0) ** 2 in set(
        Ideal(R2, [R2.variable(0), R2.variable(1)]).bracket_power(2).gens
    )
    R3 = PolyRing(3, ("x", "y"))
    x3, y3 = R3.variable(0), R3.variable(1)
    assert Ideal.of(x3 + y3).bracket_power(3).equals(Ideal.of(x3**3 + y3**3))


def test_bracket_commutes_with_colon_over_polynomial_ring():
    rng = random.Random(22)
    for _ in range(6):
        p = rng.choice([2, 3, 5])
        R = PolyRing(p, ("x", "y"))
        x, y = R.variable(0), R.variable(1)
        I = Ideal.of(x ** rng.randint(1, 3), y ** rng.randint(1, 3))
        J = Ideal.of(x ** rng.randint(1, 2) * y ** rng.randint(0, 1), x + y)
        lhs = I.colon(J).bracket_power(p)
        rhs = I.bracket_power(p).colon(J.bracket_power(p))
        assert lhs.equals(rhs)


def test_exact_divide_detects_non_multiples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert _exact_divide((x + y) * (x**2 + 3 * y), x + y) == x**2 + 3 * y
    with pytest.raises(InternalError):
        _exact_divide(x**2 + y, x + y)


def test_m_primary_and_dim():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert Ideal.of(x**2, y**3).is_m_primary()
    assert not Ideal.of(x).is_m_primary()
    with pytest.raises(EmptyVariety):
        Ideal.of(x, x + 1).is_m_primary()
    assert Ideal.of(x).krull_dim() == 1


def test_cached_basis_and_a_lex_basis_generate_one_ideal():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = Ideal.of(x**2 - y, y**2 - x)
    g_grevlex = I.groebner()
    assert g_grevlex is I.groebner()  # cached object comes back
    assert g_grevlex.ring is R
    lex = R.with_order(MonomialOrder.lex())
    g_lex = buchberger(lex, [lex.convert(g) for g in I.lift_gens])
    # both bases generate the same ideal: mutual membership of generators
    for g in g_grevlex.basis:
        assert g_lex.contains(g_lex.ring.convert(g))
    for g in g_lex.basis:
        assert g_grevlex.contains(g_grevlex.ring.convert(g))


def test_gb_cache_under_concurrent_access():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    I = Ideal.of(x**3 - y, y**3 - x)
    results = []

    def worker():
        results.append(I.groebner())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r.basis == results[0].basis for r in results)


def test_quotient_presentation_ci_check():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    node = QuotientPresentation(R, [x * y])
    assert node.dim == 1
    R3 = PolyRing(5, ("x", "y", "z"))
    x3, y3, z3 = (R3.variable(i) for i in range(3))
    # (xy, xz) = x(y,z) has dimension 2, not 3 - 2 = 1: not a CI
    with pytest.raises(PreconditionViolated):
        QuotientPresentation(R3, [x3 * y3, x3 * z3])
    with pytest.raises(PreconditionViolated):
        QuotientPresentation(R, [x, y, x + y])


def test_isolated_singularity_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    assert QuotientPresentation(R, [x * y]).is_isolated_singularity()
    R3 = PolyRing(5, ("x", "y", "z"))
    x3, y3, z3 = (R3.variable(i) for i in range(3))
    assert QuotientPresentation(
        R3, [x3**2 + y3**2 + z3**2]
    ).is_isolated_singularity()
    R2 = PolyRing(2, ("x", "y"))
    assert not QuotientPresentation(R2, [R2.variable(0) ** 2]).is_isolated_singularity()
    assert QuotientPresentation(R, ()).is_isolated_singularity()


def test_full_ci_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    free = QuotientPresentation(R, ())
    assert free.is_full_ci(free.ideal([x**3, y**3]))
    assert not free.is_full_ci(free.ideal([x]))
    assert not free.is_full_ci(free.ideal([]))
    node = QuotientPresentation(R, [x * y])
    assert node.is_full_ci(node.ideal([x + y]))
    assert not node.is_full_ci(node.ideal([x]))  # (x, xy) has colength infinity


def test_r_colength_examples():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    node = QuotientPresentation(R, [x * y])
    assert node.ideal([x, y]).colength() == 1
    assert node.ideal([x + y]).colength() == 2
    m_bracket = node.ideal([x, y]).bracket_power(5)
    assert m_bracket.colength() == 9
    assert node.ideal([x, y]).is_m_primary()


def test_r_ideal_lift_contains_relations():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    node = QuotientPresentation(R, [x * y])
    I = node.ideal([x + y])
    assert I.contains(x * y)
    assert Ideal(R, I.lift_gens).contains(x * y)
    # bracket lifts keep the relations un-bracketed
    assert I.bracket_power(5).contains(x * y)


def test_r_colon_restores_double_link():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    node = QuotientPresentation(R, [x * y])
    I = node.ideal([x, y])
    a = node.ideal([x + y])
    J = a.colon(I)
    assert J.equals(I)  # self-linked
    assert a.colon(J).equals(I)


def spy_buchberger(monkeypatch) -> list:
    """Record (ring, input generators, returned basis) of every Buchberger run."""
    calls = []
    buchberger = ideals.buchberger

    def spy(ring, gens):
        G = buchberger(ring, gens)
        calls.append((ring, tuple(gens), G.basis))
        return G

    monkeypatch.setattr(ideals, "buchberger", spy)
    return calls


@pytest.mark.parametrize(
    "p, names, relation, I_gens, a_gens, len_J",
    [
        (5, ("x", "y"), "x*y", ["x", "y"], ["x + y"], 1),
        (5, ("x", "y", "z"), "x^2 + y^2 + z^2", ["y", "z"], ["y", "z^3"], 4),
    ],
    ids=["node", "sphere"],
)
def test_colon_result_is_not_run_through_buchberger_twice(
    monkeypatch, p, names, relation, I_gens, a_gens, len_J
):
    R = PolyRing(p, names)
    P = QuotientPresentation(R, [parse_polynomial(relation, R)])
    I = P.ideal([parse_polynomial(s, R) for s in I_gens])
    a = P.ideal([parse_polynomial(s, R) for s in a_gens])
    calls = spy_buchberger(monkeypatch)
    assert a.colon(I).colength() == len_J
    for k, (ring, gens, _) in enumerate(calls):
        for earlier_ring, _, basis in calls[:k]:
            if earlier_ring == ring:
                assert gens != basis + P.ci_gens


def test_ideals_of_s_live_over_the_presentation_with_no_relations():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    S = Ideal.of(x).presentation
    assert S.ring is R and S.ci_gens == () and S.dim == R.n
    assert Ideal(R, [y]).presentation.ci_gens == ()
    node = QuotientPresentation(R, [x * y])
    meet = node.ideal([x]).intersect(node.ideal([y]))
    assert meet.presentation.ci_gens == () and meet.presentation.dim == 2
    assert meet.lift_gens == meet.gens


def test_zero_ideal_of_presentation():
    R = ring2()
    x, y = R.variable(0), R.variable(1)
    P = QuotientPresentation(R, [x**2, y**2])
    assert P.zero_ideal().colength() == 4
    free = QuotientPresentation(R, ())
    assert free.zero_ideal().colength() is None
