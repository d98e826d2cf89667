import gc
import json
import os
import random
from fractions import Fraction

import pytest

from hkforge import cli, ideals
from hkforge.errors import DoubleLinkFailed, IdentityViolation, PreconditionViolated
from hkforge.ideals import Ideal, QuotientPresentation
from hkforge.linkage import (
    FINITE,
    INFINITE_PD,
    LinkageDatum,
    corner_power,
    gorenstein_parity_check,
    hk_table,
    link,
    reciprocity_report,
)
from hkforge.poly import PolyRing
from hkforge.problem import load_problem

PROBLEMS = os.path.join(os.path.dirname(__file__), "..", "problems")


def free2(p=5):
    R = PolyRing(p, ("x", "y"))
    return R, QuotientPresentation(R, ())


def node():
    R = PolyRing(5, ("x", "y"))
    x, y = R.variable(0), R.variable(1)
    P = QuotientPresentation(R, [x * y])
    return R, P, P.ideal([x, y]), P.ideal([x + y])


def sphere():
    R = PolyRing(5, ("x", "y", "z"))
    x, y, z = (R.variable(i) for i in range(3))
    P = QuotientPresentation(R, [x**2 + y**2 + z**2])
    return R, P, P.ideal([y, z]), P.ideal([y, z**3])


def test_link_regular_example():
    R, P = free2()
    x, y = R.variable(0), R.variable(1)
    L = link(P.ideal([x, y]), P.ideal([x**2, y**2]))
    assert L.J.equals(P.ideal([x**2, x * y, y**2]))
    assert not L.degenerate and not L.self_linked


def test_link_node_is_self_linked():
    # A self-linked J is I itself, so J^[q] is I^[q], basis and all.
    _, _, I, a = node()
    L = link(I, a)
    assert L.J is I
    assert L.self_linked


def test_link_sphere_m_is_self_linked():
    # The sphere's ring with I = m = (x, y, z) and a = (y, z).
    R, P, _, _ = sphere()
    x, y, z = (R.variable(i) for i in range(3))
    I = P.ideal([x, y, z])
    assert link(I, P.ideal([y, z])).J is I


def test_sphere_m_reciprocity_runs_no_lift_twice(monkeypatch, capsys, tmp_path):
    # J is I, so each J^[q] takes I^[q]'s basis from the presentation.  The
    # runs over S[t] are the colons' eliminations, which are not lifts.
    path = tmp_path / "sphere-m.json"
    path.write_text(json.dumps({
        "p": 5, "vars": ["x", "y", "z"], "quotient": ["x^2 + y^2 + z^2"],
        "ideals": {"I": ["x", "y", "z"], "a": ["y", "z"]},
    }))
    runs = []
    buchberger = ideals.buchberger

    def spy(ring, gens):
        if ring.names == ("x", "y", "z"):
            runs.append(frozenset(gens))
        return buchberger(ring, gens)

    monkeypatch.setattr(ideals, "buchberger", spy)
    report = run_json(
        capsys, "reciprocity", "--in", str(path), "--ideal", "I", "--ci", "a", "--nmax", "2"
    )
    assert [r["deviation"] for r in report["rows"]] == [0, 24, 624]
    assert [r["len_I"] for r in report["rows"]] == [1, 37, 937]
    assert report["verdicts"]["self_linked"]
    assert len(runs) == len(set(runs))


def test_reciprocity_leaves_no_reference_cycle():
    # The presentation's bases point at the ring, not back at it, so a
    # report and every basis behind it are freed by reference counting.
    gc.collect()
    gc.disable()
    try:
        R, P, I, a = node()
        report = reciprocity_report(I, a, 2)
        del R, P, I, a, report
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fixture", [node, sphere], ids=["node", "sphere"])
def test_link_runs_buchberger_on_the_lift_of_a_once(monkeypatch, fixture):
    _, P, I, a = fixture()
    runs = []
    buchberger = ideals.buchberger

    def spy(ring, gens):
        runs.append(tuple(gens))
        return buchberger(ring, gens)

    monkeypatch.setattr(ideals, "buchberger", spy)
    link(I, a)
    assert runs.count(a.gens + P.ci_gens) == 1


def test_degenerate_link(monkeypatch):
    R, P = free2()
    x, y = R.variable(0), R.variable(1)
    a = P.ideal([x**2, y**2])
    meets = []
    intersect = Ideal.intersect
    monkeypatch.setattr(
        Ideal, "intersect", lambda self, other: meets.append(other) or intersect(self, other)
    )
    L = link(a, a)
    assert L.degenerate
    assert L.J.is_unit()
    # (a : (1)) is a itself: the back-link and every corner run no elimination
    assert a.colon(L.J) is a
    # reciprocity still trivially consistent: len_J = 0 at every q
    rep = reciprocity_report(a, a, 1)
    assert all(r.len_j == 0 for r in rep.rows)
    assert all(r.smith_ok for r in rep.rows)
    assert rep.linkage.degenerate
    assert rep.rows[1].corner.equals(a.bracket_power(5))
    assert meets == []


def test_link_preconditions():
    R, P = free2()
    x, y = R.variable(0), R.variable(1)
    I = P.ideal([x, y])
    with pytest.raises(PreconditionViolated):
        link(I, P.ideal([x**2]))  # not full length
    with pytest.raises(PreconditionViolated):
        link(I, P.ideal([x**2, x * y]))  # not m-primary
    with pytest.raises(PreconditionViolated):
        link(P.ideal([x**2, y**2]), P.ideal([x, y**3]))  # a not inside I
    with pytest.raises(PreconditionViolated):
        link(P.ideal([x]), P.ideal([x**2, y**2]))  # a not inside I either


def run_json(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_ideals_of_s_give_the_cli_rows_of_regular2(capsys):
    # Ideal.of builds ideals over S, the presentation with no relations, which
    # is what regular2.json declares; Smith's polynomial-ring reciprocity
    # leaves no deviation at any q.
    path = os.path.join(PROBLEMS, "regular2.json")
    R = PolyRing(5, ("x", "y"))
    x, y = R.variable(0), R.variable(1)
    I, a = Ideal.of(x, y), Ideal.of(x**2, y**2)

    table = hk_table(I, 2)
    assert [length for _, _, length, _ in table] == [1, 25, 625]
    rows = run_json(capsys, "hk", "--in", path, "--ideal", "I", "--nmax", "2")["rows"]
    assert [(n, q, length) for n, q, length, _ in table] == [
        (r["n"], r["q"], r["length"]) for r in rows
    ]

    J = run_json(capsys, "link", "--in", path, "--ideal", "I", "--ci", "a")["J"]
    assert link(I, a).J.reduced_generators() == J

    report = reciprocity_report(I, a, 2)
    lengths = [(r.len_i, r.len_j, r.len_a, r.len_corner) for r in report.rows]
    assert lengths == [(1, 3, 4, 1), (25, 75, 100, 25), (625, 1875, 2500, 625)]
    rows = run_json(
        capsys, "reciprocity", "--in", path, "--ideal", "I", "--ci", "a", "--nmax", "2"
    )["rows"]
    assert lengths == [(r["len_I"], r["len_J"], r["len_a"], r["len_corner"]) for r in rows]
    assert all(r.deviation == 0 and r.smith_ok for r in report.rows)
    assert report.reciprocity_all_q and report.pd_probe == FINITE


def test_corner_power_examples():
    R, P = free2()
    x, y = R.variable(0), R.variable(1)
    I = P.ideal([x, y])
    a = P.ideal([x**2, y**2])
    L = link(I, a)
    assert corner_power(L, 1).equals(I)
    assert corner_power(L, 5).equals(I.bracket_power(5))

    _, _, In, an = node()
    Ln = link(In, an)
    corner = corner_power(Ln, 5)
    assert corner.equals(In)
    assert corner.colength() == 1


def test_deviation_values():
    R, P = free2()
    x, y = R.variable(0), R.variable(1)
    rows = reciprocity_report(P.ideal([x, y]), P.ideal([x**2, y**2]), n_max=2).rows
    assert rows[1].deviation == 0
    assert rows[0].deviation == 0

    _, _, In, an = node()
    rows = reciprocity_report(In, an, n_max=2).rows
    assert rows[0].deviation == 0
    assert rows[1].deviation == 8
    assert rows[2].deviation == 48


def test_pd_probe():
    # At n_max = 0 the probe reads a row at q = p^2.
    _, _, In, an = node()
    assert reciprocity_report(In, an, 0).pd_probe == INFINITE_PD

    R, P = free2()
    x, y = R.variable(0), R.variable(1)
    assert reciprocity_report(P.ideal([x, y]), P.ideal([x**2, y**2]), 0).pd_probe == FINITE

    _, _, Is, as_ = sphere()
    assert reciprocity_report(Is, as_, 0).pd_probe == FINITE


def test_hk_table_maximal_ideal_f2():
    R = PolyRing(2, ("x", "y"))
    P = QuotientPresentation(R, ())
    rows = hk_table(P.ideal([R.variable(0), R.variable(1)]), 3)
    assert [(n, q, length) for n, q, length, _ in rows] == [
        (0, 1, 1),
        (1, 2, 4),
        (2, 4, 16),
        (3, 8, 64),
    ]
    assert all(norm == Fraction(1) for _, _, _, norm in rows)


def test_hk_table_node():
    _, P, I, a = node()
    rows = hk_table(I, 2)
    assert [r[2] for r in rows] == [1, 9, 49]
    assert [r[3] for r in rows] == [Fraction(1), Fraction(9, 5), Fraction(49, 25)]
    rows_a = hk_table(a, 2)
    assert [r[2] for r in rows_a] == [2, 10, 50]
    assert all(r[3] == Fraction(2) for r in rows_a)


def test_hk_table_runs_buchberger_once_per_distinct_input(monkeypatch):
    # I^[1] is I, so the m-primary check and the q = 1 row share one basis.
    rng = random.Random(7)
    R, P, _, _ = node()
    x, y = R.variable(0), R.variable(1)
    I = P.ideal([x ** rng.randint(1, 3) + rng.randint(1, 4) * y, y ** rng.randint(1, 3)])
    runs = []
    buchberger = ideals.buchberger

    def spy(ring, gens):
        runs.append((ring.signature(), tuple(gens)))
        return buchberger(ring, gens)

    monkeypatch.setattr(ideals, "buchberger", spy)
    rows = hk_table(I, 2)
    assert len(runs) == len(set(runs)) == len(rows)
    assert I.bracket_power(1) is I


def test_hk_table_preconditions():
    _, P, I, a = node()
    with pytest.raises(PreconditionViolated):
        hk_table(I, -1)
    R = PolyRing(5, ("x", "y"))
    free = QuotientPresentation(R, ())
    with pytest.raises(PreconditionViolated):
        hk_table(free.ideal([R.variable(0)]), 1)  # not m-primary


def test_reciprocity_node_report():
    _, _, I, a = node()
    rep = reciprocity_report(I, a, 2)
    assert [(r.len_i, r.len_j, r.len_a, r.len_corner) for r in rep.rows] == [
        (1, 1, 2, 1),
        (9, 9, 10, 1),
        (49, 49, 50, 1),
    ]
    assert [r.deviation for r in rep.rows] == [0, 8, 48]
    assert not rep.reciprocity_all_q
    assert rep.pd_probe == INFINITE_PD
    assert rep.linkage.self_linked and not rep.linkage.degenerate
    assert I.presentation.dim == 1
    assert rep.isolated_singularity
    # self-link symmetry
    assert all(r.len_i == r.len_j for r in rep.rows)
    # the deviation is exactly the reciprocity defect
    assert all(r.len_i + r.len_j - r.len_a == r.deviation for r in rep.rows)


def test_reciprocity_regular_report():
    R, P = free2()
    x, y = R.variable(0), R.variable(1)
    rep = reciprocity_report(P.ideal([x, y]), P.ideal([x**2, y**2]), 1)
    assert (rep.rows[0].len_i, rep.rows[0].len_j, rep.rows[0].len_a) == (1, 3, 4)
    assert (rep.rows[1].len_i, rep.rows[1].len_j, rep.rows[1].len_a) == (25, 75, 100)
    assert rep.reciprocity_all_q
    assert rep.pd_probe == FINITE


def test_reciprocity_sphere_report_frozen_values():
    _, _, I, a = sphere()
    rep = reciprocity_report(I, a, 1)
    assert [(r.len_i, r.len_j, r.len_a, r.len_corner) for r in rep.rows] == [
        (2, 4, 6, 2),
        (50, 100, 150, 50),
    ]
    assert all(r.deviation == 0 for r in rep.rows)
    assert rep.reciprocity_all_q
    assert rep.pd_probe == FINITE
    assert I.presentation.dim == 2
    assert rep.rows[1].normalized_i == Fraction(2)
    assert rep.rows[1].normalized_j == Fraction(4)
    assert rep.rows[1].normalized_a == Fraction(6)


def test_parameter_ideal_identity_is_asserted(monkeypatch):
    R, P = free2()
    x, y = R.variable(0), R.variable(1)
    I, a = P.ideal([x, y]), P.ideal([x**2, y**2])
    assert [r.len_a for r in reciprocity_report(I, a, 1).rows] == [4, 100]
    a5 = a.bracket_power(5).gens
    colength = Ideal.colength
    monkeypatch.setattr(
        Ideal, "colength", lambda self: colength(self) + (self.gens == a5)
    )
    with pytest.raises(IdentityViolation, match="parameter-ideal identity fails at q = 5"):
        reciprocity_report(I, a, 1)


@pytest.mark.parametrize(
    "target, q, bump, n_max, match",
    [
        ("J", 5, 1, 1, "corner identity fails at q = 5"),
        ("I", 5, -1, 1, "negative deviation -1 at q = 5"),
        # The corner at q = 1 is I, so there the corner identity is the
        # length identity len_I + len_J = len_a.
        ("J", 1, 1, 0, "corner identity fails at q = 1"),
        # With --nmax 0 the probe at p^2 asserts its row's identities too.
        ("J", 25, 1, 0, "corner identity fails at q = 25"),
        ("a", 25, 1, 0, "parameter-ideal identity fails at q = 25"),
    ],
    ids=[
        "corner-report",
        "deviation-report",
        "length-at-1-report",
        "corner-nmax0-probe",
        "parameter-nmax0-probe",
    ],
)
def test_row_identities_are_asserted(monkeypatch, target, q, bump, n_max, match):
    _, _, I, a = sphere()
    L = link(I, a)
    gens = getattr(L, target).bracket_power(q).gens
    colength = Ideal.colength
    monkeypatch.setattr(
        Ideal, "colength", lambda self: colength(self) + bump * (self.gens == gens)
    )
    with pytest.raises(IdentityViolation, match=match):
        reciprocity_report(I, a, n_max)


def test_reciprocity_rows_build_each_ideal_once(monkeypatch, capsys):
    # The q = 1 corner is I by double linkage; every other corner is one
    # colon whose a^[q] and J^[q] find their bases in the presentation's
    # cache, so no Groebner input is run twice.  The sphere's link
    # J = (x^2, z^2, y) drops x^2 = -y^2 - z^2 mod C, so of J^[q]'s
    # generators only z^(2q) lies outside a^[q]: one intersection per colon.
    # At q > 1 the corner comes back as (y^q, z^q, C), whose lift has the
    # generator set of I^[q]'s, so its length runs no Buchberger of its own.
    _, _, I, a = sphere()
    L = link(I, a)
    assert corner_power(L, 1) is L.I
    runs, colons, meets = [], [], []
    buchberger = ideals.buchberger
    colon = Ideal.colon
    intersect = Ideal.intersect

    def spy(ring, gens):
        runs.append((ring.signature(), tuple(gens)))
        return buchberger(ring, gens)

    def counting_colon(self, other):
        colons.append(other)
        return colon(self, other)

    def counting_intersect(self, other):
        meets.append(other)
        return intersect(self, other)

    monkeypatch.setattr(ideals, "buchberger", spy)
    monkeypatch.setattr(Ideal, "colon", counting_colon)
    monkeypatch.setattr(Ideal, "intersect", counting_intersect)
    problem = os.path.join(os.path.dirname(__file__), "..", "problems", "sphere.json")
    argv = ["reciprocity", "--in", problem, "--ideal", "I", "--ci", "a", "--nmax", "3"]
    assert cli.main(argv) == 0
    assert len(runs) == len({(sig, frozenset(gens)) for sig, gens in runs}) == 20
    assert len(colons) == 2 + 3  # link's two, then one per q > 1
    assert len(meets) == 5  # (a : I), (a : J), then one per q > 1
    assert json.loads(capsys.readouterr().out)["rows"][3]["len_corner"] == 2 * 125**2


def test_reciprocity_sphere_through_q_3125_frozen_values():
    # With J = (z^2, y) each corner is one elimination, so q = 5^5 runs
    # within the default term budget.
    _, _, I, a = sphere()
    rep = reciprocity_report(I, a, 5)
    assert [(r.q, r.len_i, r.len_j, r.len_a, r.len_corner) for r in rep.rows] == [
        (5**n, 2 * 25**n, 4 * 25**n, 6 * 25**n, 2 * 25**n) for n in range(6)
    ]
    assert all(r.deviation == 0 for r in rep.rows)
    assert rep.reciprocity_all_q
    assert rep.pd_probe == FINITE


def test_reciprocity_rejects_zero_dimensional_rings():
    R = PolyRing(5, ("x", "y"))
    x, y = R.variable(0), R.variable(1)
    P = QuotientPresentation(R, [x**2, y**2])
    with pytest.raises(PreconditionViolated):
        reciprocity_report(P.ideal([x]), P.ideal([x]), 1)


def test_reciprocity_probe_when_nmax_zero():
    _, _, I, a = node()
    rep = reciprocity_report(I, a, 0)
    assert len(rep.rows) == 1
    assert rep.pd_probe == INFINITE_PD  # probed at p^2 behind the scenes


def randomized_links():
    """Seeded (I, a) pairs over the free plane, the node and the sphere; a
    pair whose I is the unit ideal is left out."""
    rng = random.Random(31)
    R2 = PolyRing(5, ("x", "y"))
    x, y = R2.variable(0), R2.variable(1)
    free = QuotientPresentation(R2, ())
    nodeP = QuotientPresentation(R2, [x * y])
    R3 = PolyRing(5, ("x", "y", "z"))
    x3, y3, z3 = (R3.variable(i) for i in range(3))
    sphereP = QuotientPresentation(R3, [x3**2 + y3**2 + z3**2])

    cases = []
    for _ in range(4):
        e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
        a = [x**e1, y**e2]
        extra = x ** rng.randint(1, 2) * y ** rng.randint(0, 1)
        cases.append((free, a, [extra]))
    for _ in range(3):
        c = rng.randint(1, 4)
        a = [x + c * y]
        cases.append((nodeP, a, [x ** rng.randint(1, 2)]))
    for _ in range(3):
        k = rng.randint(1, 3)
        a = [y3, z3**k]
        cases.append((sphereP, a, [z3 ** rng.randint(1, 2)]))

    pairs = []
    for P, a_gens, extra in cases:
        a = P.ideal(a_gens)
        I = P.ideal(list(a_gens) + extra)
        if not I.is_unit():
            pairs.append((I, a))
    return pairs


def test_randomized_smith_identity_over_three_presentations():
    pairs = randomized_links()
    for I, a in pairs:
        L = link(I, a)
        assert I.colength() + L.J.colength() == a.colength()
    assert len(pairs) >= 10


def reference_link(I, a):
    """`link` as it was before J was made irredundant: J is (a : I) exactly
    as the colon returns it, generators repeating C included."""
    P = I.presentation
    if not P.is_full_ci(a) or not I.contains_ideal(a) or not I.is_m_primary():
        raise PreconditionViolated("not a linkage pair")
    J = a.colon(I)
    degenerate = J.is_unit()
    back = a.colon(J)
    if not back.equals(I):
        raise DoubleLinkFailed(f"(a : J) != I for I = {I!r}, a = {a!r}")
    return LinkageDatum(I=I, a=a, J=J, degenerate=degenerate)


def differential_links():
    """(I, a) by name: the problem files node, regular2 and sphere; sphere
    links ((y, z^j) + extra, (y, z^k)), whose colon's J holds a generator
    that the others and C give; and the randomized links."""
    out = {}
    for name in ("node", "regular2", "sphere"):
        problem = load_problem(os.path.join(PROBLEMS, f"{name}.json"))
        out[name] = (problem.ideal("I"), problem.ideal("a"))
    R, P, _, _ = sphere()
    x, y, z = (R.variable(i) for i in range(3))
    for k, j, extra in [(2, 1, []), (4, 1, []), (3, 2, [x * z]), (4, 2, [x * z])]:
        name = f"sphere-k{k}-j{j}" + ("-xz" if extra else "")
        out[name] = (P.ideal([y, z**j] + extra), P.ideal([y, z**k]))
    for k, pair in enumerate(randomized_links()):
        out[f"random{k}"] = pair
    return out


DIFFERENTIAL_LINKS = differential_links()


@pytest.mark.parametrize(
    "pair", list(DIFFERENTIAL_LINKS.values()), ids=list(DIFFERENTIAL_LINKS)
)
def test_irredundant_link_matches_the_colon_as_returned(pair):
    # Dropping a generator that lies in the others plus C keeps J^[q] + C,
    # so every bracket power, corner and back-link has the same reduced
    # basis as with the J the colon returned.
    I, a = pair
    L, ref = link(I, a), reference_link(I, a)
    assert L.degenerate == ref.degenerate
    assert L.J.groebner().basis == ref.J.groebner().basis
    assert a.colon(L.J).groebner().basis == a.colon(ref.J).groebner().basis
    p = I.ring.p
    for q in (1, p, p * p):
        J_q, ref_q = L.J.bracket_power(q), ref.J.bracket_power(q)
        assert J_q.groebner().basis == ref_q.groebner().basis
        a_q = a.bracket_power(q)
        assert a_q.colon(J_q).groebner().basis == a_q.colon(ref_q).groebner().basis
    gens = L.J.gens
    assert len(gens) <= len(ref.J.gens)
    for k, g in enumerate(gens):
        others = Ideal(I.ring, gens[:k] + gens[k + 1 :], L.I.presentation)
        assert not others.contains(g)


def test_sphere_link_drops_the_generator_that_repeats_c():
    # x^2 = -y^2 - z^2 mod C, so of the colon's (x^2, z^2, y) only (z^2, y)
    # is kept: dim R = 2 generators, where the Krull skip stops the tests.
    R, _, I, a = sphere()
    x, y, z = (R.variable(i) for i in range(3))
    assert reference_link(I, a).J.gens == (x**2, z**2, y)
    assert link(I, a).J.gens == (z**2, y)


def test_link_with_at_most_dim_generators_runs_no_membership_test(monkeypatch):
    # Fewer than dim S elements, C included, generate no m-primary ideal but
    # (1), so a J on at most dim R generators is kept without a test.
    R, P = free2()
    x, y = R.variable(0), R.variable(1)
    I, a = P.ideal([x, y**2]), P.ideal([x**2, y**2])
    assert len(a.colon(I).gens) == P.dim
    tested = []
    contains = Ideal.contains
    monkeypatch.setattr(
        Ideal, "contains", lambda self, f: tested.append(self) or contains(self, f)
    )
    assert link(I, a).J.equals(I)
    assert tested and all(ideal is I or ideal is a for ideal in tested)


def test_parity_examples():
    R1 = PolyRing(5, ("x",))
    x = R1.variable(0)
    P = QuotientPresentation(R1, [x**2])
    report = gorenstein_parity_check(P.ideal([x]))
    assert report.self_linked
    assert report.total_length == 2

    R2 = PolyRing(5, ("x", "y"))
    x2, y2 = R2.variable(0), R2.variable(1)
    P2 = QuotientPresentation(R2, [x2**2, y2**2])
    report = gorenstein_parity_check(P2.ideal([x2 * y2]))
    assert not report.self_linked
    assert report.total_length == 4

    R7 = PolyRing(7, ("x1", "x2"))
    a1, a2 = R7.variable(0), R7.variable(1)
    P7 = QuotientPresentation(R7, [a1**2 - a2**2, a1 * a2])
    report = gorenstein_parity_check(P7.ideal([a1 + 3 * a2]))
    assert report.total_length == 4  # n + 2 for n = 2


def test_parity_self_linked_witness_mod5():
    # (x1 + 2 x2) is self-linked because 2^2 = -1 mod 5
    R = PolyRing(5, ("x1", "x2"))
    a1, a2 = R.variable(0), R.variable(1)
    P = QuotientPresentation(R, [a1**2 - a2**2, a1 * a2])
    report = gorenstein_parity_check(P.ideal([a1 + 2 * a2]))
    assert report.self_linked
    assert report.total_length == 4


def test_parity_runs_buchberger_on_c_once(monkeypatch, capsys):
    # The complete-intersection check runs it on the presentation's zero
    # ideal, whose basis then gives len(R) and answers the colon's
    # membership tests too.
    path = os.path.join(PROBLEMS, "dualnumbers.json")
    C = load_problem(path).presentation.ci_gens
    runs = []
    buchberger = ideals.buchberger

    def spy(ring, gens):
        runs.append(tuple(gens))
        return buchberger(ring, gens)

    monkeypatch.setattr(ideals, "buchberger", spy)
    report = run_json(capsys, "parity", "--in", path, "--ideal", "I")
    assert report["self_linked"] and report["total_length"] == 2
    assert runs.count(C) == 1


def test_parity_requires_dimension_zero():
    R = PolyRing(5, ("x", "y"))
    P = QuotientPresentation(R, [R.variable(0) * R.variable(1)])
    with pytest.raises(PreconditionViolated):
        gorenstein_parity_check(P.ideal([R.variable(0)]))


def test_identity_violation_names_exit_five():
    assert IdentityViolation("boom").exit_code == 5
