"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each, and
frozen Hilbert-Kunz rows of two Fermat hypersurfaces.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every numeric check is exact equality on integers or Fractions; nothing is
compared with a tolerance.
"""

import functools
import random
import time
from fractions import Fraction

from hkforge.errors import IdentityViolation, InternalError
from hkforge.groebner import buchberger
from hkforge.ideals import Ideal, QuotientPresentation
from hkforge.invariants import (
    group_closure,
    noether_bound_value,
    noether_ideal,
)
from hkforge.linkage import (
    FINITE,
    INFINITE_PD,
    gorenstein_parity_check,
    hk_table,
    link,
    reciprocity_report,
)
from hkforge.oracle import colength_bruteforce
from hkforge.poly import PolyRing, monomials_of_degree


def _criterion(n):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {n}: FAIL")
                raise
            print(f"ACCEPTANCE {n}: PASS")

        return run

    return wrap


def rand_mprimary_gens(R, rng, maxdeg=3):
    gens = [R.variable(i) ** rng.randint(1, maxdeg) for i in range(R.n)]
    for _ in range(rng.randint(1, 2)):
        f = R.zero()
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(R.n))
            f = f + R.monomial(e, rng.randint(1, R.p - 1))
        gens.append(f)
    return gens


def node_instance():
    R = PolyRing(5, ("x", "y"))
    x, y = R.variable(0), R.variable(1)
    P = QuotientPresentation(R, [x * y])
    return P.ideal([x, y]), P.ideal([x + y])


def sphere_instance():
    R = PolyRing(5, ("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    P = QuotientPresentation(R, [x**2 + y**2 + z**2])
    return P.ideal([y, z]), P.ideal([y, z**3])


@_criterion(1)
def test_criterion_01_bracket_colength_scaling():
    # colength(I^[q]) = q^n * colength(I) over a polynomial ring
    rng = random.Random(101)
    rings = [PolyRing(2, ("x", "y"))] * 8 + [PolyRing(3, ("x", "y"))] * 8 + [
        PolyRing(5, ("x", "y", "z"))
    ] * 4
    for R in rings:
        I = Ideal(R, rand_mprimary_gens(R, rng))
        base = I.colength()
        for q in (R.p, R.p**2):
            assert I.bracket_power(q).colength() == q**R.n * base


@_criterion(2)
def test_criterion_02_smith_identity_at_q_one():
    # len(R/I) + len(R/(a:I)) = len(R/a) for every link in sight
    R2 = PolyRing(5, ("x", "y"))
    x, y = R2.variable(0), R2.variable(1)
    free = QuotientPresentation(R2, ())
    I = free.ideal([x, y])
    a = free.ideal([x**2, y**2])
    L = link(I, a)
    assert (I.colength(), L.J.colength(), a.colength()) == (1, 3, 4)
    assert 1 + 3 == 4

    for I, a in (node_instance(), sphere_instance()):
        L = link(I, a)
        assert I.colength() + L.J.colength() == a.colength()

    rng = random.Random(102)
    nodeP = QuotientPresentation(R2, [x * y])
    R3 = PolyRing(5, ("x", "y", "z"))
    x3, y3, z3 = (R3.variable(i) for i in range(3))
    sphereP = QuotientPresentation(R3, [x3**2 + y3**2 + z3**2])

    cases = []
    for _ in range(5):
        e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
        cases.append((free, [x**e1, y**e2], [x ** rng.randint(1, 2) * y]))
    for _ in range(4):
        c = rng.randint(1, 4)
        cases.append((nodeP, [x + c * y], [x ** rng.randint(1, 2)]))
    for _ in range(3):
        k = rng.randint(1, 3)
        cases.append((sphereP, [y3, z3**k], [z3 ** rng.randint(1, 2)]))

    checked = 0
    for P, a_gens, extra in cases:
        a = P.ideal(a_gens)
        I = P.ideal(list(a_gens) + extra)
        if I.is_unit():
            continue
        L = link(I, a)
        assert I.colength() + L.J.colength() == a.colength()
        checked += 1
    assert checked >= 10


@_criterion(3)
def test_criterion_03_vraciu_identity_every_row():
    # len(corner_q) + len(R/J^[q]) = len(R/a^[q]) on every computed row,
    # and a violation is wired to exit code 5
    reports = [
        reciprocity_report(*node_instance(), 2),
        reciprocity_report(*sphere_instance(), 1),
    ]
    R = PolyRing(5, ("x", "y"))
    x, y = R.variable(0), R.variable(1)
    free = QuotientPresentation(R, ())
    reports.append(
        reciprocity_report(free.ideal([x, y]), free.ideal([x**2, y**2]), 2)
    )
    rows = 0
    for report in reports:
        for r in report.rows:
            assert r.len_corner + r.len_j == r.len_a
            rows += 1
    assert rows == 8
    assert IdentityViolation("witness").exit_code == 5
    assert issubclass(IdentityViolation, InternalError)


@_criterion(4)
def test_criterion_04_node_reciprocity_table():
    started = time.perf_counter()
    I, a = node_instance()
    report = reciprocity_report(I, a, 2)
    for r in report.rows:
        q = r.q
        assert (r.len_i, r.len_j, r.len_a, r.len_corner) == (
            2 * q - 1,
            2 * q - 1,
            2 * q,
            1,
        )
        assert r.deviation == 2 * q - 2
        assert r.smith_ok == (q == 1)
    assert [r.q for r in report.rows] == [1, 5, 25]
    assert not report.reciprocity_all_q
    assert report.pd_probe == INFINITE_PD
    assert report.linkage.self_linked
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"node reciprocity took {elapsed:.2f}s"


@_criterion(5)
def test_criterion_05_sphere_reciprocity_table():
    report = reciprocity_report(*sphere_instance(), 1)
    frozen = {1: (2, 4, 6, 2), 5: (50, 100, 150, 50)}
    for r in report.rows:
        assert (r.len_i, r.len_j, r.len_a, r.len_corner) == frozen[r.q]
        assert r.deviation == 0
        assert r.smith_ok
    assert report.reciprocity_all_q
    assert report.pd_probe == FINITE
    assert report.isolated_singularity


@_criterion(6)
def test_criterion_06_sign_group_multiplicity_is_sharp():
    bound = noether_bound_value(2, 2)
    for p in (5, 7):
        R = PolyRing(p, ("x", "y"))
        G = group_closure(p, [[[p - 1, 0], [0, p - 1]]])
        result = noether_ideal(R, G)
        assert result.colength == 3
        assert result.d_stop == 2
        assert result.e_hk == Fraction(3, 2)
        assert result.e_hk == bound.bound  # the bound is attained
    R7 = PolyRing(7, ("x", "y"))
    r3 = noether_ideal(R7, group_closure(7, [[[2, 0], [0, 4]]]))
    assert r3.e_hk == Fraction(5, 3)
    assert r3.e_hk <= noether_bound_value(2, 3).bound


@_criterion(7)
def test_criterion_07_group_degree_monomials_are_invariant_multiples():
    groups = [
        (5, [[[1, 0], [0, 1]]]),
        (5, [[[4, 0], [0, 4]]]),
        (7, [[[2, 0], [0, 4]]]),
        (5, [[[2, 0], [0, 3]]]),
        (7, [[[3, 0], [0, 5]]]),
        (7, [[[0, 1], [1, 0]], [[0, 6], [1, 6]]]),
    ]
    seen_orders = set()
    for p, gens in groups:
        R = PolyRing(p, ("x", "y"))
        G = group_closure(p, gens)
        seen_orders.add(G.order)
        ideal = Ideal(R, noether_ideal(R, G).generators)
        for exps in monomials_of_degree(2, G.order):
            assert ideal.contains(R.monomial(exps))
    assert seen_orders == {1, 2, 3, 4, 6}


@_criterion(8)
def test_criterion_08_squares_lengths_and_parity():
    # total length n + 2 for the sum-of-squares rings, n = 2, 3, 4
    R2 = PolyRing(7, ("x1", "x2"))
    a1, a2 = R2.variable(0), R2.variable(1)
    P2 = QuotientPresentation(R2, [a1**2 - a2**2, a1 * a2])
    assert P2.zero_ideal().colength() == 4

    for n, expected in ((3, 5), (4, 6)):
        names = tuple(f"x{i + 1}" for i in range(n))
        R = PolyRing(5, names)
        v = [R.variable(i) for i in range(n)]
        rel = [v[0] ** 2 - v[i] ** 2 for i in range(1, n)]
        rel += [v[i] * v[j] for i in range(n) for j in range(i + 1, n)]
        ideal = Ideal(R, rel)
        assert ideal.colength() == expected
        assert colength_bruteforce(R, rel) == expected

    # parity: dual numbers are self-linked with even total length
    R1 = PolyRing(5, ("x",))
    x = R1.variable(0)
    P1 = QuotientPresentation(R1, [x**2])
    report = gorenstein_parity_check(P1.ideal([x]))
    assert report.self_linked
    assert report.total_length == 2

    # and so is the n = 2 squares ring at its distinguished hyperplane
    R5 = PolyRing(5, ("x1", "x2"))
    b1, b2 = R5.variable(0), R5.variable(1)
    P5 = QuotientPresentation(R5, [b1**2 - b2**2, b1 * b2])
    report = gorenstein_parity_check(P5.ideal([b1 + 2 * b2]))
    assert report.self_linked
    assert report.total_length == 4


@_criterion(9)
def test_criterion_09_engine_self_checks():
    rng = random.Random(109)
    R = PolyRing(5, ("x", "y"))
    x, y = R.variable(0), R.variable(1)

    # every reduced basis passes the S-polynomial criterion
    for gens in ([x**2, y**2], [x * y, x + y], [x**3 - y, y**2 - x]):
        assert buchberger(R, gens).verify()

    # colength does not depend on the monomial order
    from hkforge.poly import MonomialOrder

    for _ in range(20):
        gens = rand_mprimary_gens(R, rng)
        grev = buchberger(R, gens).colength()
        lexR = R.with_order(MonomialOrder.lex())
        assert buchberger(lexR, [lexR.convert(g) for g in gens]).colength() == grev

    # the reduced basis of I^[q] is the q-th power of the reduced basis
    for _ in range(10):
        gens = rand_mprimary_gens(R, rng)
        G = buchberger(R, gens)
        bracket = buchberger(R, [g.frobenius_power(5) for g in gens])
        assert tuple(g.frobenius_power(5) for g in G.basis) == bracket.basis

    # colengths agree with the Macaulay brute-force oracle
    for _ in range(20):
        gens = rand_mprimary_gens(R, rng)
        assert buchberger(R, gens).colength() == colength_bruteforce(R, gens)


@_criterion(10)
def test_criterion_10_node_normalized_lengths():
    I, _ = node_instance()
    rows = hk_table(I, 2)
    norms = [norm for _, _, _, norm in rows]
    assert norms == [Fraction(1), Fraction(9, 5), Fraction(49, 25)]
    for (_, q, length, norm) in rows:
        assert norm == Fraction(2 * q - 1, q)
    assert norms[0] < norms[1] < norms[2]
    assert all(n < 2 for n in norms)


def fermat_maximal_ideal(p, n, d):
    """The maximal ideal of F_p[x_1..x_n]/(x_1^d + ... + x_n^d)."""
    R = PolyRing(p, tuple(f"x{i + 1}" for i in range(n)))
    v = [R.variable(i) for i in range(n)]
    P = QuotientPresentation(R, [sum((x**d for x in v[1:]), v[0] ** d)])
    return P.ideal(v)


def test_frozen_fermat_cubic_rows():
    # x^3 + y^3 + z^3 over F_7 (p = 1 mod 3): every row is 9/4 q^2 - 5/4.
    rows = hk_table(fermat_maximal_ideal(7, 3, 3), 3)
    assert [(q, length) for _, q, length, _ in rows] == [
        (1, 1),
        (7, 109),
        (49, 5401),
        (343, 264709),
    ]
    assert all(4 * length == 9 * q**2 - 5 for _, q, length, _ in rows)


def test_frozen_fermat_quartic_rows():
    # x^4 + y^4 + z^4 + w^4 over F_5.
    rows = hk_table(fermat_maximal_ideal(5, 4, 4), 3)
    assert [(q, length) for _, q, length, _ in rows] == [
        (1, 1),
        (5, 339),
        (25, 43017),
        (125, 5379051),
    ]
