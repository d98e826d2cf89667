"""Brute-force linear-algebra verifiers, independent of the Groebner engine.

A `MacaulayFrame` holds the whole products g*m of the generators with
monomials in echelon form, columns lowest degree first and pivots at lowest
terms.  Terms of degree >= D span m^D, and truncating below D kills exactly
the rows whose pivot has degree >= D, so dim_k S/(I + m^D) is C(n+D-1, n)
minus the pivots of degree < D.  Raising D to D+1 adds the products of
lowest degree D, whose reduction touches only degrees >= D, so one frame
serves every bound (Mora's local degree order).
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import comb
from operator import add
from typing import Iterable, Optional, Sequence

from .errors import PreconditionViolated, ResourceCap
from .poly import Polynomial, PolyRing, monomials_of_degree

MAX_COLUMNS = 20000
DEFAULT_D_MAX = 64


def _lift(f: Polynomial) -> dict:
    """Terms keyed by (degree,) + exponents, so tuple order is column order."""
    return {(sum(e),) + e: c for e, c in f.exponent_terms()}


class MacaulayFrame:
    """Echelon basis, pivot at the lowest term, of the generator products."""

    def __init__(self, ring: PolyRing, gens: Sequence[Polynomial], bound: int):
        if bound < 1:
            raise PreconditionViolated("degree bound must be >= 1")
        for g in gens:
            ring.check_same(g.ring)
        self.ring = ring
        self.gens = [_lift(g) for g in gens if not g.is_zero()]
        self.pivots: dict[tuple, tuple] = {}  # pivot -> other terms, pivot coefficient 1
        self.bound = 0
        for _ in range(bound):
            self.grow()

    def grow(self) -> None:
        """Raise the bound D by one: add the products with lowest degree D."""
        d, n = self.bound, self.ring.n
        columns = comb(n + d, n)  # monomials of degree < D+1
        if columns > MAX_COLUMNS:
            raise ResourceCap(f"{columns} truncation columns exceed {MAX_COLUMNS}")
        for terms in self.gens:
            k = d - min(terms)[0]  # degree of the multipliers
            for m in monomials_of_degree(n, k) if k >= 0 else ():
                self.add_row({tuple(map(add, e, (k,) + m)): c for e, c in terms.items()})
        self.bound = d + 1

    def _reduce(self, work: dict) -> Optional[tuple]:
        """Cancel lowest terms by pivot rows; return the first without one."""
        p = self.ring.p
        heap = sorted(work)  # a sorted list is a heap
        while heap:
            e = heappop(heap)
            c = work[e]
            if not c:
                continue
            row = self.pivots.get(e)
            if row is None:
                return e
            work[e] = 0
            for t, r in row:
                if t not in work:
                    heappush(heap, t)
                work[t] = (work.get(t, 0) - c * r) % p
        return None

    def add_row(self, row: dict) -> bool:
        """Reduce a lifted row into the frame; True if the rank grew."""
        e = self._reduce(row)
        if e is not None:
            inv = self.ring.field.inv(row.pop(e))
            self.pivots[e] = tuple((t, c * inv % self.ring.p) for t, c in row.items() if c)
        return e is not None

    @property
    def rank(self) -> int:
        """Rank of the frame truncated below the bound."""
        return sum(1 for e in self.pivots if e[0] < self.bound)

    @property
    def colength(self) -> int:
        return comb(self.ring.n + self.bound - 1, self.ring.n) - self.rank

    def contains(self, f: Polynomial) -> bool:
        """Membership of f in I + m^D: no term below D survives reduction."""
        e = self._reduce(_lift(f))
        return e is None or e[0] >= self.bound


def colength_bruteforce(
    ring: PolyRing, gens: Iterable[Polynomial], d_max: int = DEFAULT_D_MAX
) -> Optional[int]:
    """Stabilized brute-force colength; None when not certified by d_max.

    Certificate: values at D and D+1 agree and every pure power x_i^(D-1)
    lies in the frame, which forces I + m^D = I and hence finiteness.
    """
    frame = MacaulayFrame(ring, list(gens), 1)
    prev, prev_pure = None, False
    while frame.bound < d_max:
        frame.grow()
        value = frame.colength
        if value == prev and prev_pure:
            return value
        prev = value
        pure = (ring.variable(i) ** (frame.bound - 1) for i in range(ring.n))
        prev_pure = all(map(frame.contains, pure))
    return None


def membership_bruteforce(
    f: Polynomial, ring: PolyRing, gens: Sequence[Polynomial], bound: int
) -> bool:
    """True iff f lies in I + m^bound; callers pick a stabilized bound."""
    if f.total_degree() >= bound:
        raise PreconditionViolated("membership bound must exceed deg f")
    return MacaulayFrame(ring, gens, bound).contains(f)
