"""Ideal-level calculus and complete-intersection quotient presentations.

One class, `Ideal`, covers ideals of S and of a quotient R = S/C.  An ideal
of R is its own generators plus the `QuotientPresentation` it lives over;
S itself is the presentation with no relations.  An ideal is never reduced
mod C.  Every query (Groebner basis, membership, equality, colength,
dimension) runs on its lift, the generators followed by the relations of C,
which is exact for the m-primary ideals this package accepts.  A bracket
power raises only the generators, so C stays un-bracketed, and a colon comes
back over the presentation of the dividend.  `intersect` returns an ideal
over S.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .errors import EmptyVariety, InternalError, PreconditionViolated
from .groebner import GroebnerBasis, buchberger
from .poly import MonomialOrder, Polynomial, PolyRing


class Ideal:
    """An ideal of R = S/C over `presentation` (by default S, with no
    relations), with one Groebner basis of its lift, in the ring's order.
    It keeps no other state: an ideal built twice is two objects, and a
    caller that wants one basis shares the object."""

    __slots__ = ("ring", "gens", "presentation", "_basis")

    def __init__(
        self,
        ring: PolyRing,
        gens: Sequence[Polynomial],
        presentation: Optional["QuotientPresentation"] = None,
    ):
        for g in gens:
            ring.check_same(g.ring)
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        self.presentation = (
            presentation if presentation is not None else QuotientPresentation(ring)
        )
        self._basis: Optional[GroebnerBasis] = None

    @classmethod
    def of(cls, *gens: Polynomial) -> "Ideal":
        if not gens:
            raise PreconditionViolated("Ideal.of needs at least one generator")
        return cls(gens[0].ring, gens)

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.gens) or '0'})"

    @property
    def lift_gens(self) -> tuple[Polynomial, ...]:
        """Generators of the preimage in S: own generators, then C."""
        return self.gens + self.presentation.ci_gens

    def groebner(self) -> GroebnerBasis:
        if self._basis is None:
            self._basis = buchberger(self.ring, self.lift_gens)
        return self._basis

    # -- boolean queries ------------------------------------------------------

    def contains(self, f: Polynomial) -> bool:
        return self.groebner().contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.gens)

    def equals(self, other: "Ideal") -> bool:
        self.ring.check_same(other.ring)
        return self.groebner().basis == other.groebner().basis

    def is_zero(self) -> bool:
        return not self.lift_gens

    def is_unit(self) -> bool:
        return self.groebner().is_unit_ideal()

    def is_m_primary(self) -> bool:
        if self.is_unit():
            raise EmptyVariety("the unit ideal is not proper")
        return self.colength() is not None

    # -- numeric queries ------------------------------------------------------

    def colength(self) -> Optional[int]:
        return self.groebner().colength()

    def krull_dim(self) -> int:
        return self.groebner().krull_dim()

    # -- constructions --------------------------------------------------------

    def bracket_power(self, q: int) -> "Ideal":
        """{g^q} + C over R: independent of the chosen lifts.  I^[1] is I
        itself; any other q gives a new ideal, with no Groebner basis yet."""
        self.ring.bracket_level(q)
        if q == 1:
            return self
        gens = tuple(g.frobenius_power(q) for g in self.gens)
        return Ideal(self.ring, gens, self.presentation)

    def intersect(self, other: "Ideal") -> "Ideal":
        """Lift of I cap lift of J, an ideal over S: eliminate t from
        t*I + (1-t)*J in S[t] under elim(1).  The t-free part of that basis
        generates the intersection and, for every order of the ring, is its
        reduced basis under grevlex, converted to the ring's order.

        The generators enter in grevlex, whose packed monomials are the
        t-free ones of S[t]: t*g shifts each term by the packed t, and
        (1-t)*g is the terms of t*(-g) followed by those of g, already in
        order."""
        self.ring.check_same(other.ring)
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, ())
        ring = self.ring
        grevlex = ring.with_order(MonomialOrder.grevlex())
        ext = ring.elimination_ring()
        t = ext.variable(0).leading_monomial()
        p = ring.p
        gens = []
        for g in self.lift_gens:
            terms = grevlex.convert(g).terms
            gens.append(Polynomial(ext, tuple([(m + t, c) for m, c in terms])))
        for g in other.lift_gens:
            terms = grevlex.convert(g).terms
            gens.append(Polynomial(ext, tuple([(m + t, p - c) for m, c in terms]) + terms))
        G = buchberger(ext, gens)
        # Under elim(1) the leading term has the largest t-degree, and the
        # t-free monomials are exactly those below the packed t.
        kept = [g.terms for g in G.basis if g.leading_monomial() < t]
        return Ideal(ring, [ring.convert(Polynomial(grevlex, terms)) for terms in kept])

    def colon(self, other: "Ideal") -> "Ideal":
        """(I : J) as the intersection over generators g of (I cap (g))/g.

        The g run over the lift of J and the result lives over the
        presentation of I.  The generators `intersect` returns for I cap (g)
        are divided by g as they are, with no basis of their own.  A
        generator g in I has (I : (g)) = (1), the identity for the
        intersection, so it is skipped; when every g is in I the colon is (1).
        A J with a nonzero constant among its generators is (1), and
        (I : (1)) = I, so then I itself comes back, basis and all, with
        no membership test and no elimination.
        """
        self.ring.check_same(other.ring)
        if other.is_zero():
            raise PreconditionViolated("colon by the zero ideal")
        if any(g.is_constant() for g in other.lift_gens):
            return self
        result: Optional[Ideal] = None
        for g in other.lift_gens:
            if self.contains(g):
                continue
            meet = self.intersect(Ideal(self.ring, [g]))
            part = Ideal(self.ring, [_exact_divide(h, g) for h in meet.gens])
            result = part if result is None else result.intersect(part)
        gens = result.gens if result is not None else (self.ring.one(),)
        return Ideal(self.ring, gens, self.presentation)

    def reduced_generators(self) -> list[str]:
        return [str(g) for g in self.groebner().basis]


def _exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g when g divides f exactly; anything else is an engine bug."""
    if g.is_zero():
        raise InternalError("exact division by zero")
    ring = f.ring
    inv_lc = pow(g.leading_coefficient(), -1, ring.p)
    lt = g.leading_monomial()
    quotient = []
    work = f
    while not work.is_zero():
        e, c = work.terms[0]
        if not ring.divides(lt, e):
            raise InternalError(f"exact division failed: {f} by {g}")
        mono, coeff = e - lt, c * inv_lc % ring.p
        quotient.append((mono, coeff))
        work = work - g.multiply_monomial(mono, coeff)
    # Each step removes the leading term, so the quotient comes out sorted.
    return Polynomial(ring, tuple(quotient))


class QuotientPresentation:
    """R = S/C for a complete intersection C = (g_1..g_c); c = 0 means R = S."""

    __slots__ = ("ring", "ci_gens", "dim", "_zero_basis")

    def __init__(self, ring: PolyRing, ci_gens: Sequence[Polynomial] = ()):
        for g in ci_gens:
            ring.check_same(g.ring)
        self.ring = ring
        self.ci_gens = tuple(g for g in ci_gens if not g.is_zero())
        expected = ring.n - len(self.ci_gens)
        if expected < 0:
            raise PreconditionViolated("more quotient relations than variables")
        # The zero ideal of R has C as its lift, so it takes the basis the
        # check computes.  Kept as a basis, not an ideal, which would point
        # back here and leave every presentation in a reference cycle.
        self._zero_basis: Optional[GroebnerBasis] = None
        if self.ci_gens:
            self._zero_basis = Ideal(ring, self.ci_gens).groebner()
            actual = self._zero_basis.krull_dim()
            if actual != expected:
                raise PreconditionViolated(
                    f"not a complete intersection: dim {actual}, expected {expected}"
                )
        self.dim = expected

    def __repr__(self):
        rel = ", ".join(str(g) for g in self.ci_gens)
        return f"{self.ring!r}/({rel})" if rel else f"{self.ring!r}"

    def ideal(self, gens: Sequence[Polynomial]) -> Ideal:
        return Ideal(self.ring, gens, self)

    def zero_ideal(self) -> Ideal:
        zero = Ideal(self.ring, (), self)
        zero._basis = self._zero_basis
        return zero

    def is_isolated_singularity(self) -> bool:
        """Jacobian criterion: C + (c x c minors) has finite colength, which
        for (1) is 0."""
        c = len(self.ci_gens)
        if c == 0:
            return True
        jac = [
            [g.partial_derivative(j) for j in range(self.ring.n)] for g in self.ci_gens
        ]
        minors = []
        for cols in itertools.combinations(range(self.ring.n), c):
            minors.append(_determinant([[row[j] for j in cols] for row in jac]))
        return Ideal(self.ring, self.ci_gens + tuple(minors)).colength() is not None

    def is_full_ci(self, ideal: Ideal) -> bool:
        """Is `ideal` dim-R many elements generating an m-primary R-ideal?"""
        if not ideal.gens or len(ideal.gens) != self.dim:
            return False
        return ideal.colength() is not None and not ideal.is_unit()


def _determinant(matrix: list[list[Polynomial]]) -> Polynomial:
    """Cofactor expansion; the Jacobian blocks here are tiny (c <= n <= 16)."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    ring = matrix[0][0].ring
    result = ring.zero()
    for j, entry in enumerate(matrix[0]):
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(size) if k != j] for row in matrix[1:]]
        term = entry * _determinant(minor)
        result = result + (term if j % 2 == 0 else -term)
    return result
