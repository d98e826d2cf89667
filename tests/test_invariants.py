import glob
import os
import random
from fractions import Fraction

import pytest

import hkforge.cli as cli
from hkforge import invariants
from hkforge.errors import (
    InternalError,
    ModularCase,
    PreconditionViolated,
    ResourceCap,
)
from hkforge.ideals import Ideal
from hkforge.invariants import (
    group_closure,
    invariant_basis,
    noether_bound_value,
    noether_ideal,
    reynolds,
)
from hkforge.poly import PolyRing, monomials_of_degree
from hkforge.problem import load_problem

ROOT = os.path.join(os.path.dirname(__file__), "..")
GROUP_FILES = sorted(
    path for path in glob.glob(os.path.join(ROOT, "problems", "*.json"))
    if load_problem(path).group is not None
)

MINUS_I = [[4, 0], [0, 4]]
MINUS_I_F7 = [[6, 0], [0, 6]]
DIAG24_F7 = [[2, 0], [0, 4]]
DIAG23_F5 = [[2, 0], [0, 3]]
KLEIN4_F5 = [[[4, 0], [0, 1]], [[1, 0], [0, 4]]]
S3_F7 = [[[0, 1], [1, 0]], [[0, 6], [1, 6]]]
DIAG35_F7 = [[3, 0], [0, 5]]


def test_group_closure_orders():
    assert group_closure(5, [MINUS_I]).order == 2
    assert group_closure(7, [DIAG24_F7]).order == 3
    assert group_closure(5, [[[1, 0], [0, 1]]]).order == 1
    assert group_closure(5, [DIAG23_F5]).order == 4
    assert group_closure(5, KLEIN4_F5).order == 4
    assert group_closure(7, S3_F7).order == 6
    assert group_closure(7, [DIAG35_F7]).order == 6


def test_group_closure_contains_identity_and_inverses():
    G = group_closure(7, S3_F7)
    ident = ((1, 0), (0, 1))
    assert ident in G.elements
    elements = set(G.elements)
    for m in G.elements:
        # some power of m is its inverse in a finite group
        assert any(
            tuple(
                tuple(sum(m[i][k] * n[k][j] for k in range(2)) % 7 for j in range(2))
                for i in range(2)
            )
            == ident
            for n in elements
        )


def test_group_closure_errors(monkeypatch):
    with pytest.raises(PreconditionViolated):
        group_closure(5, [[[1, 0], [2, 0]]])  # singular
    with pytest.raises(ModularCase):
        group_closure(5, [[[1, 1], [0, 1]]])  # order 5 = p
    monkeypatch.setattr(invariants, "MAX_GROUP", 3)
    with pytest.raises(ResourceCap, match="group order exceeds cap 3"):
        group_closure(7, [DIAG35_F7])
    with pytest.raises(PreconditionViolated):
        group_closure(5, [])


def test_action_is_a_homomorphism():
    rng = random.Random(41)
    R = PolyRing(7, ("x", "y"))
    G = group_closure(7, S3_F7)
    for _ in range(5):
        f = R.monomial(
            (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 6)
        ) + R.monomial((rng.randint(0, 2), rng.randint(0, 2)), rng.randint(1, 6))
        for g in G.elements[:3]:
            for h in G.elements[:3]:
                gh = tuple(
                    tuple(
                        sum(g[i][k] * h[k][j] for k in range(2)) % 7
                        for j in range(2)
                    )
                    for i in range(2)
                )
                assert f.substitute_linear(gh) == f.substitute_linear(h).substitute_linear(g)


def test_reynolds_examples_and_idempotence():
    R = PolyRing(5, ("x", "y"))
    x, y = R.variable(0), R.variable(1)
    G = group_closure(5, [MINUS_I])
    assert reynolds(x, G).is_zero()
    assert reynolds(x**2, G) == x**2
    f = x**2 + 3 * x * y
    assert reynolds(reynolds(f, G), G) == reynolds(f, G)
    for g in G.elements:
        assert reynolds(f, G).substitute_linear(g) == reynolds(f, G)


def test_invariant_basis_examples():
    R = PolyRing(5, ("x", "y"))
    G = group_closure(5, [MINUS_I])
    assert invariant_basis(R, G, 1) == []
    basis2 = invariant_basis(R, G, 2)
    assert [str(f) for f in basis2] == ["x^2", "x*y", "y^2"]

    R7 = PolyRing(7, ("x", "y"))
    G3 = group_closure(7, [DIAG24_F7])
    basis = invariant_basis(R7, G3, 2)
    assert [str(f) for f in basis] == ["x*y"]
    with pytest.raises(PreconditionViolated):
        invariant_basis(R, G, 0)


CORPUS = [
    # (p, generators, order, d_stop, colength, e_hk)
    (5, [[[1, 0], [0, 1]]], 1, 1, 1, Fraction(1)),
    (5, [MINUS_I], 2, 2, 3, Fraction(3, 2)),
    (7, [MINUS_I_F7], 2, 2, 3, Fraction(3, 2)),
    (7, [DIAG24_F7], 3, 3, 5, Fraction(5, 3)),
    (5, [DIAG23_F5], 4, 4, 7, Fraction(7, 4)),
    (5, KLEIN4_F5, 4, 3, 4, Fraction(1)),
    (7, S3_F7, 6, 4, 6, Fraction(1)),
    (7, [DIAG35_F7], 6, 6, 11, Fraction(11, 6)),
]


def test_noether_ideal_corpus_values():
    for p, gens, order, d_stop, colength, e_hk in CORPUS:
        R = PolyRing(p, ("x", "y"))
        G = group_closure(p, gens)
        assert G.order == order
        result = noether_ideal(R, G)
        assert result.d_stop == d_stop, (p, gens)
        assert result.colength == colength, (p, gens)
        assert result.e_hk == e_hk, (p, gens)
        assert result.d_stop <= G.order


def test_noether_ideal_generators_are_invariant():
    for p, gens, *_ in CORPUS:
        R = PolyRing(p, ("x", "y"))
        G = group_closure(p, gens)
        result = noether_ideal(R, G)
        for f in result.generators:
            for g in G.elements:
                assert f.substitute_linear(g) == f


def test_all_group_degree_monomials_lie_in_the_ideal():
    for p, gens, order, *_ in CORPUS:
        R = PolyRing(p, ("x", "y"))
        G = group_closure(p, gens)
        ideal = Ideal(R, noether_ideal(R, G).generators)
        for exps in monomials_of_degree(2, order):
            assert ideal.contains(R.monomial(exps)), (p, gens, exps)


def test_e_hk_respects_the_binomial_bound():
    for p, gens, order, _, _, e_hk in CORPUS:
        bound = noether_bound_value(2, order)
        assert e_hk <= bound.bound
        assert e_hk <= bound.two_var_bound


def test_bound_values():
    b = noether_bound_value(2, 2)
    assert b.bound == Fraction(3, 2)
    assert b.two_var_bound == Fraction(3, 2)
    assert b.hs_bound == 3
    assert noether_bound_value(2, 3).bound == Fraction(2)
    assert noether_bound_value(1, 1).bound == Fraction(1)
    b3 = noether_bound_value(3, 4)
    assert b3.bound == Fraction(5)
    assert b3.two_var_bound is None and b3.hs_bound is None
    with pytest.raises(PreconditionViolated):
        noether_bound_value(0, 2)


def test_bound_is_sharp_for_sign_group():
    R = PolyRing(5, ("x", "y"))
    G = group_closure(5, [MINUS_I])
    result = noether_ideal(R, G)
    assert result.e_hk == noether_bound_value(2, 2).bound


def test_convention_independence_of_the_two_models():
    # the sign group is symmetric: both action conventions give the same ideal
    R = PolyRing(5, ("x", "y"))
    G = group_closure(5, [MINUS_I])
    transposed = group_closure(
        5, [[[row[j] for row in m] for j in range(2)] for m in [MINUS_I]]
    )
    a = noether_ideal(R, G)
    b = noether_ideal(R, transposed)
    assert Ideal(R, a.generators).equals(Ideal(R, b.generators))
    # a non-symmetric order-2 model: the ideals may differ between models,
    # the numbers may not
    refl = [[1, 1], [0, 4]]
    refl_t = [[1, 0], [1, 4]]
    ra = noether_ideal(R, group_closure(5, [refl]))
    rb = noether_ideal(R, group_closure(5, [refl_t]))
    assert ra.colength == rb.colength == 2
    assert ra.e_hk == rb.e_hk == Fraction(1)
    assert ra.d_stop == rb.d_stop


def test_mismatched_spaces_rejected():
    R3 = PolyRing(5, ("x", "y", "z"))
    G = group_closure(5, [MINUS_I])
    with pytest.raises(PreconditionViolated):
        noether_ideal(R3, G)
    with pytest.raises(PreconditionViolated):
        reynolds(R3.variable(0), G)


def _images_needed(ring, G, d, orbit_sums):
    """How many of degree d's Reynolds images the pivot loop needs: up to
    the last one that adds a pivot, and 0 when none does."""
    rows = [[(e, 1)] for e in monomials_of_degree(ring.n, d)]
    pivots, needed = {}, 0
    for k, image in enumerate(orbit_sums(ring, G, d, rows), 1):
        g = ring._from_dict(image)
        while not g.is_zero() and g.leading_monomial() in pivots:
            g = g - pivots[g.leading_monomial()] * g.leading_coefficient()
        if not g.is_zero():
            pivots[g.leading_monomial()] = g.monic()
            needed = k
    return needed


@pytest.mark.parametrize("path", GROUP_FILES, ids=os.path.basename)
def test_each_degree_pulls_images_up_to_its_last_pivot(path, monkeypatch):
    problem = load_problem(path)
    G = group_closure(problem.ring.p, problem.group)
    original = invariants._orbit_sums
    pulled = {}

    def spy(ring, group, d, rows):
        pulled[d] = 0
        for image in original(ring, group, d, rows):
            pulled[d] += 1
            yield image

    monkeypatch.setattr(invariants, "_orbit_sums", spy)
    result = noether_ideal(problem.ring, G)
    for d in range(1, result.d_stop + 1):
        needed = _images_needed(problem.ring, G, d, original)
        # A degree with no invariants never calls _orbit_sums.
        assert pulled.get(d, 0) == needed and (d in pulled) == (needed > 0), d


def test_a_count_above_the_reynolds_rank_is_an_internal_error(monkeypatch, capsys):
    counts = invariants._invariant_counts

    def one_too_many(G, top):
        out = counts(G, top)
        out[2] += 1
        return out

    monkeypatch.setattr(invariants, "_invariant_counts", one_too_many)
    R = PolyRing(5, ("x", "y"))
    with pytest.raises(InternalError, match="degree 2"):
        invariant_basis(R, group_closure(5, [MINUS_I]), 2)
    assert invariant_basis(R, group_closure(5, [MINUS_I]), 4)
    code = cli.main(["invariant", "--in", os.path.join(ROOT, "problems", "order2.json")])
    out, err = capsys.readouterr()
    assert code == 5 and out == "" and "degree 2" in err
