"""Finite matrix groups acting on polynomials, Reynolds averaging and the
ideal generated by positive-degree invariants.

The action is by linear substitution x_j -> sum_i M[i][j] x_i, which makes
(gh).f = g.(h.f).  Everything requires p coprime to the group order; the
Reynolds operator divides by |G|.

The invariant ideal nR is accumulated degree by degree and the loop stops at
the first degree d where every degree-d monomial already reduces to zero:
any higher-degree invariant lies in m^d, hence in the accumulated ideal.
That degree is asserted to be at most |G|; crossing the bound can only mean
an implementation bug or a modular leak, so it is an internal error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Optional, Sequence

from .errors import (
    ModularCase,
    NoetherBoundViolated,
    PreconditionViolated,
    ResourceCap,
)
from .groebner import GroebnerBasis, buchberger, normal_form
from .ideals import Ideal
from .poly import Polynomial, PolyRing, monomials_of_degree
from .scalar import PrimeField, rational

DEFAULT_MAX_GROUP = 5000

Matrix = tuple[tuple[int, ...], ...]


def default_max_group() -> int:
    return int(os.environ.get("HKFORGE_MAX_GROUP", DEFAULT_MAX_GROUP))


def _normalize_matrix(field: PrimeField, m: Sequence[Sequence[int]], n: int) -> Matrix:
    if len(m) != n or any(len(row) != n for row in m):
        raise PreconditionViolated(f"group matrices must be {n}x{n}")
    return tuple(tuple(field.normalize(a) for a in row) for row in m)


def _mat_mul(p: int, a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )


def _is_invertible(field: PrimeField, m: Matrix) -> bool:
    """Gaussian elimination over F_p; singular matrices have no group action."""
    p = field.p
    n = len(m)
    rows = [list(r) for r in m]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = field.inv(rows[col][col])
        rows[col] = [a * inv % p for a in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[col])]
    return True


@dataclass(frozen=True)
class MatrixGroup:
    field: PrimeField
    n: int
    elements: tuple[Matrix, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def p(self) -> int:
        return self.field.p


def group_closure(
    p: int | PrimeField,
    gens: Sequence[Sequence[Sequence[int]]],
    cap: Optional[int] = None,
) -> MatrixGroup:
    """Breadth-first multiplicative closure of the generating matrices."""
    field = p if isinstance(p, PrimeField) else PrimeField(p)
    if cap is None:
        cap = default_max_group()
    if not gens:
        raise PreconditionViolated("a group needs at least one generator")
    n = len(gens[0])
    mats = [_normalize_matrix(field, g, n) for g in gens]
    for m in mats:
        if not _is_invertible(field, m):
            raise PreconditionViolated(f"matrix {m} is singular over F_{field.p}")
    identity = tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in mats:
                b = _mat_mul(field.p, a, g)
                if b not in seen:
                    seen.add(b)
                    if len(seen) > cap:
                        raise ResourceCap(f"group order exceeds cap {cap}")
                    nxt.append(b)
        frontier = nxt
    if gcd(len(seen), field.p) != 1:
        raise ModularCase(
            f"group order {len(seen)} is divisible by the characteristic {field.p}"
        )
    return MatrixGroup(field, n, tuple(sorted(seen)))


def reynolds(
    f: Polynomial, G: MatrixGroup, tables: Optional[list[list[list[tuple]]]] = None
) -> Polynomial:
    """(1/|G|) sum of the orbit of f; an idempotent projection onto invariants.

    The orbit is summed into one term dict and sorted once.  tables holds
    ``PolyRing.linear_powers`` of every group element, in the order of
    G.elements and of degree at least deg f; it is built here when omitted.
    """
    ring = f.ring
    if ring.field != G.field or ring.n != G.n:
        raise PreconditionViolated("polynomial and group live over different spaces")
    if tables is None:
        degree = max(f.total_degree(), 0)
        tables = [ring.linear_powers(m, degree) for m in G.elements]
    acc = f.substitute_into({}, tables)
    p = ring.p
    scale = G.field.inv(G.order % p)
    return ring._from_dict({e: c * scale % p for e, c in acc.items()})


def invariant_basis(
    ring: PolyRing,
    G: MatrixGroup,
    d: int,
    tables: Optional[list[list[list[tuple]]]] = None,
) -> list[Polynomial]:
    """Basis of the degree-d invariants: Reynolds images, row-reduced.

    Rows are reduced against each other in descending monomial order, so the
    output is deterministic and each basis element has a distinct leading
    monomial.  The powers of every element's images of the variables are
    shared by all monomials: tables holds them as ``reynolds`` takes them,
    of degree at least d, and is built here when omitted.
    """
    if d < 1:
        raise PreconditionViolated("degree must be >= 1")
    if tables is None:
        tables = [ring.linear_powers(m, d) for m in G.elements]
    pivots: dict[int, Polynomial] = {}
    for exps in monomials_of_degree(ring.n, d):
        g = reynolds(ring.monomial(exps), G, tables)
        while not g.is_zero():
            holder = pivots.get(g.leading_monomial())
            if holder is None:
                break
            g = g - holder * g.leading_coefficient()
        if not g.is_zero():
            pivots[g.leading_monomial()] = g.monic()
    return [pivots[k] for k in sorted(pivots, key=ring.key, reverse=True)]


@dataclass
class InvariantIdealResult:
    group_order: int
    generators_by_degree: dict[int, list[Polynomial]]
    d_stop: int
    colength: int
    e_hk: Fraction
    ideal: Ideal

    @property
    def generators(self) -> list[Polynomial]:
        out = []
        for d in sorted(self.generators_by_degree):
            out.extend(self.generators_by_degree[d])
        return out


def noether_ideal(ring: PolyRing, G: MatrixGroup) -> InvariantIdealResult:
    """The ideal of R generated by all positive-degree invariants.

    Accumulates invariant_basis degree by degree; stops at the first degree
    whose monomials all reduce to zero against the accumulated basis.  The
    stop degree may not exceed |G|.  Each element's table of linear powers
    is built once and grown by one power per degree.
    """
    if ring.field != G.field or ring.n != G.n:
        raise PreconditionViolated("ring and group live over different spaces")
    by_degree: dict[int, list[Polynomial]] = {}
    gens: list[Polynomial] = []
    basis: Optional[GroebnerBasis] = None
    tables = [ring.linear_powers(m, 1) for m in G.elements]
    for d in range(1, G.order + 1):
        for table in tables:
            ring.grow_powers(table, d)
        layer = invariant_basis(ring, G, d, tables)
        if layer:
            by_degree[d] = layer
            gens.extend(layer)
            basis = buchberger(ring, gens)
        if basis is not None and all(
            normal_form(ring.monomial(e), basis.basis).is_zero()
            for e in monomials_of_degree(ring.n, d)
        ):
            ideal = Ideal(ring, tuple(gens))
            colength = basis.colength()
            return InvariantIdealResult(
                group_order=G.order,
                generators_by_degree=by_degree,
                d_stop=d,
                colength=int(colength),
                e_hk=rational(int(colength), G.order),
                ideal=ideal,
            )
    raise NoetherBoundViolated(
        f"invariant ideal not saturated by degree |G| = {G.order}"
    )


@dataclass(frozen=True)
class MultiplicityBound:
    bound: Fraction
    two_var_bound: Optional[Fraction]
    hs_bound: Optional[int]


def noether_bound_value(n: int, g: int) -> MultiplicityBound:
    """Upper bounds for e_hk of an invariant ring: C(n-1+g, n)/g in general,
    and for n = 2 also the sharper (g+1)/2 plus the integer bound g+1 on the
    ordinary multiplicity (reported only, never computed here)."""
    if n < 1 or g < 1:
        raise PreconditionViolated("need n >= 1 and g >= 1")
    bound = rational(comb(n - 1 + g, n), g)
    if n == 2:
        return MultiplicityBound(bound, rational(g + 1, 2), g + 1)
    return MultiplicityBound(bound, None, None)
