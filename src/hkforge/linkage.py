"""Linkage, corner powers, Hilbert-Kunz tables and reciprocity reports.

Given an m-primary ideal I and a full complete-intersection ideal a inside
it, the link is J = (a : I) and the corner power at q is

    corner(q) = (a^[q] : J^[q])

which always contains I^[q].  The deviation colength(I^[q]) - colength(corner)
is nonnegative, vanishes for all q exactly when I has finite projective
dimension over a CI presentation, and ties the four lengths together through
an identity that is asserted, not assumed: a violation raises an internal
error because it would be an engine bug.

`link` keeps J irredundant over R: it drops each generator that lies in the
ideal of the others plus C, such as x^2 = -y^2 - z^2 on the sphere
x^2 + y^2 + z^2 = 0.  That is exact.  If g = sum r_i h_i + c with c in C,
then g^q = sum r_i^q h_i^q + c^q and c^q lies in C, so J^[q] + C, and with
it every corner, every length and every reduced basis printed, is the same
ideal as for the J the colon returned; a colon by J^[q] just runs one
elimination fewer per dropped generator outside a^[q].  A J on at most
dim R generators is kept untested: dropping one would leave fewer than
n = dim S elements, C's included, to generate J + C, and by Krull's height
theorem those generate no ideal of height n.  J + C is m-primary, or is (1)
on the single generator 1, which C alone does not give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DoubleLinkFailed,
    IdentityViolation,
    PreconditionViolated,
    ResourceCap,
)
from .ideals import Ideal

FINITE = "finite"
INFINITE_PD = "infinite"


@dataclass
class LinkageDatum:
    I: Ideal
    a: Ideal
    J: Ideal
    degenerate: bool

    @property
    def self_linked(self) -> bool:
        return self.I.equals(self.J)


def link(I: Ideal, a: Ideal) -> LinkageDatum:
    """J = (a : I), irredundant over R (see the module docstring), with
    every linkage precondition and (a : J) = I checked."""
    P, Q = I.presentation, a.presentation
    if Q.ring != P.ring or Q.ci_gens != P.ci_gens:
        raise PreconditionViolated("I and a live over different presentations")
    if not P.is_full_ci(a):
        raise PreconditionViolated(
            f"a must be {P.dim} elements generating an m-primary ideal"
        )
    if not I.contains_ideal(a):
        raise PreconditionViolated("a is not contained in I")
    if not I.is_m_primary():
        raise PreconditionViolated("I is not m-primary")
    J = _irredundant(a.colon(I), P.dim)
    degenerate = J.is_unit()
    back = a.colon(J)
    if not back.equals(I):
        raise DoubleLinkFailed(f"(a : J) != I for I = {I!r}, a = {a!r}")
    return LinkageDatum(I=I, a=a, J=J, degenerate=degenerate)


def _irredundant(J: Ideal, dim: int) -> Ideal:
    """J less each generator, in the order they come (largest leading term
    first), that lies in the ideal of the generators still kept plus C.

    A generator that is dropped leaves J as the ideal its membership test
    just built, basis included, so no Groebner input runs twice.  The tests
    stop once at most dim R generators are left (the Krull skip of the
    module docstring).
    """
    gens = list(J.gens)
    i = 0
    while len(gens) > dim and i < len(gens):
        rest = gens[:i] + gens[i + 1 :]
        smaller = Ideal(J.ring, rest, J.presentation)
        if smaller.contains(gens[i]):
            gens, J = rest, smaller
        else:
            i += 1
    return J


@dataclass
class HKRow:
    n: int
    q: int
    len_i: int
    len_j: int
    len_a: int
    len_corner: int
    deviation: int
    smith_ok: bool
    normalized_i: Fraction
    normalized_j: Fraction
    normalized_a: Fraction
    corner: Ideal


def _row(L: LinkageDatum, q: int) -> HKRow:
    """The reciprocity row at q, with its identities asserted.

    I^[q], J^[q] and a^[q] are built once each.  The corner is I itself at
    q = 1, by the double link that `link` proved, and (a^[q] : J^[q]) taken on
    this very a^[q] otherwise, so the colon reuses the basis behind len_a.  At
    q = 1 the corner identity len_corner + len_J = len_a is the length
    identity len_I + len_J = len_a.
    """
    n = L.I.presentation.ring.bracket_level(q)
    I_q, J_q, a_q = (ideal.bracket_power(q) for ideal in (L.I, L.J, L.a))
    len_i, len_j, len_a = I_q.colength(), J_q.colength(), a_q.colength()
    scale = q**L.I.presentation.dim
    if len_a != scale * L.a.colength():
        raise IdentityViolation(
            f"parameter-ideal identity fails at q = {q}: "
            f"{len_a} != {scale} * {L.a.colength()}"
        )
    corner = L.I if q == 1 else a_q.colon(J_q)
    len_corner = corner.colength()
    dev = len_i - len_corner
    if dev < 0:
        raise IdentityViolation(f"negative deviation {dev} at q = {q}")
    if len_corner + len_j != len_a:
        raise IdentityViolation(
            f"corner identity fails at q = {q}: {len_corner} + {len_j} != {len_a}"
        )
    return HKRow(
        n=n,
        q=q,
        len_i=len_i,
        len_j=len_j,
        len_a=len_a,
        len_corner=len_corner,
        deviation=dev,
        smith_ok=len_i + len_j == len_a,
        normalized_i=Fraction(len_i, scale),
        normalized_j=Fraction(len_j, scale),
        normalized_a=Fraction(len_a, scale),
        corner=corner,
    )


def corner_power(L: LinkageDatum, q: int) -> Ideal:
    """(a^[q] : J^[q]); q = 1 returns I itself by double linkage."""
    return L.I if q == 1 else L.a.bracket_power(q).colon(L.J.bracket_power(q))


@dataclass
class ReciprocityReport:
    rows: list[HKRow]
    linkage: LinkageDatum
    reciprocity_all_q: bool
    pd_probe: str
    isolated_singularity: bool


def hk_table(I: Ideal, n_max: int) -> list[tuple[int, int, int, Fraction]]:
    """Rows (n, q, colength of I^[q], colength/q^dim) for n = 0..n_max."""
    P = I.presentation
    if n_max < 0:
        raise PreconditionViolated("n_max must be >= 0")
    if not I.is_m_primary():
        raise PreconditionViolated("Hilbert-Kunz table needs an m-primary ideal")
    p = P.ring.p
    d = P.dim
    rows = []
    for n in range(n_max + 1):
        q = p**n
        try:
            length = I.bracket_power(q).colength()
        except ResourceCap as exc:
            exc.completed = n - 1
            raise
        rows.append((n, q, length, Fraction(length, q**d)))
    return rows


def reciprocity_report(I: Ideal, a: Ideal, n_max: int) -> ReciprocityReport:
    """One row per q = p^n with all four lengths and both identities.

    The corner identity len_corner + len_J = len_a and the parameter-ideal
    identity len_a(q) = q^dim * len_a(1) (a^[q] is again a system of
    parameters of the Cohen-Macaulay ring R) must hold on every row; at
    q = 1 the corner is I, so the first row also asserts len_I + len_J =
    len_a.  Violations raise IdentityViolation.  Reciprocity at higher q is
    recorded, not enforced: its failure is exactly the
    infinite-projective-dimension signal, which pd_probe reads off the last
    row, or at n_max = 0 off a row at q = p^2 (at q = 1 the corner is I).
    """
    P = I.presentation
    if P.dim < 1:
        raise PreconditionViolated("reciprocity needs a positive-dimensional ring")
    if n_max < 0:
        raise PreconditionViolated("n_max must be >= 0")
    L = link(I, a)
    p = P.ring.p
    rows = [_row(L, p**n) for n in range(n_max + 1)]
    probe = rows[-1] if n_max >= 1 else _row(L, p * p)
    return ReciprocityReport(
        rows=rows,
        linkage=L,
        reciprocity_all_q=all(r.smith_ok for r in rows),
        pd_probe=FINITE if probe.deviation == 0 else INFINITE_PD,
        isolated_singularity=P.is_isolated_singularity(),
    )


@dataclass
class ParityReport:
    self_linked: bool
    total_length: int


def gorenstein_parity_check(I: Ideal) -> ParityReport:
    """Over I's zero-dimensional CI quotient R: if (0 : I) = I then len(R) is
    even.

    A non-self-linked I is reported, not errored; an odd length for a
    self-linked I contradicts the duality pairing len(R) = 2*len(R/I) and
    raises IdentityViolation.  The presentation's zero ideal, whose basis
    its complete-intersection check computed, gives len(R) and answers the
    colon's membership tests.
    """
    if I.presentation.dim != 0:
        raise PreconditionViolated("parity check needs a zero-dimensional ring")
    zero = I.presentation.zero_ideal()
    total = zero.colength()
    if total is None:
        raise PreconditionViolated("quotient ring is not finite length")
    annihilator = zero.colon(I)
    self_linked = annihilator.equals(I)
    if self_linked and total % 2 != 0:
        raise IdentityViolation(
            f"self-linked ideal in a ring of odd length {total}"
        )
    return ParityReport(self_linked=self_linked, total_length=total)
