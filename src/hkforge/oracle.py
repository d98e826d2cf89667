"""Brute-force linear-algebra verifiers, independent of the Groebner engine.

A `MacaulayFrame` holds the whole products g*m of the generators with
monomials in echelon form, columns lowest degree first and pivots at lowest
terms.  Terms of degree >= D span m^D, and truncating below D kills exactly
the rows whose pivot has degree >= D, so dim_k S/(I + m^D) is C(n+D-1, n)
minus the pivots of degree < D.  Raising D to D+1 adds the products of
lowest degree D, whose reduction touches only degrees >= D, so one frame
serves every bound (Mora's local degree order).

Two module constants bound that growth, and both are read at call time,
not when this module is imported: ``MAX_DEGREE``, the last D that
``colength_bruteforce`` tries, and ``MAX_COLUMNS``, the most monomials below
D that a frame may hold.  No CLI flag changes either one.

Columns
-------
A column is one int, packed by the frame itself: from the top field down,
the total degree, then e_1, ..., e_n.  Int order is then the order of the
tuples (deg,) + e, so the lowest column is the least int, a row shift by a
multiplier is one ``+`` and a column's degree is one shift.  No field can
carry: the bound D never passes MAX_COLUMNS, since the C(n+D-1, n) columns
below it number at least D, so every row term has degree below the
generators' largest degree plus MAX_COLUMNS, and the field width is fixed
from that sum when the frame is made.  A probe's terms of degree >= D never
decide membership and are left out, so a probe cannot overflow a field.

The packing is read from ``exponent_terms()``, not taken from
``PolyRing``'s packed monomials: the oracle checks the engine, so a packing
fault in ``poly`` must not be able to hide in both.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import comb
from typing import Iterable, Optional, Sequence

from .errors import PreconditionViolated, ResourceCap
from .poly import Polynomial, PolyRing, monomials_of_degree

MAX_COLUMNS = 20000
MAX_DEGREE = 64


class MacaulayFrame:
    """Echelon basis, pivot at the lowest term, of the generator products."""

    def __init__(self, ring: PolyRing, gens: Sequence[Polynomial], bound: int):
        if bound < 1:
            raise PreconditionViolated("degree bound must be >= 1")
        for g in gens:
            ring.check_same(g.ring)
        self.ring = ring
        self.p = ring.p
        lifted = [g.exponent_terms() for g in gens if not g.is_zero()]
        top = max((sum(e) for terms in lifted for e, _ in terms), default=0)
        self._bits = (top + MAX_COLUMNS).bit_length()
        self._degree_shift = ring.n * self._bits
        self.gens = [{self._column(e, sum(e)): c for e, c in terms} for terms in lifted]
        self.pivots: dict[int, tuple] = {}  # pivot -> other terms, pivot coefficient 1
        self._pivots_of_degree: dict[int, int] = {}
        self.bound = 0
        for _ in range(bound):
            self.grow()

    def _column(self, e: Sequence[int], degree: int) -> int:
        column = degree
        for x in e:
            column = (column << self._bits) | x
        return column

    def degree(self, column: int) -> int:
        """Total degree of a column: its top field."""
        return column >> self._degree_shift

    def grow(self) -> None:
        """Raise the bound D by one: add the products with lowest degree D."""
        d, n = self.bound, self.ring.n
        columns = comb(n + d, n)  # monomials of degree < D+1
        if columns > MAX_COLUMNS:
            raise ResourceCap(f"{columns} truncation columns exceed {MAX_COLUMNS}")
        multipliers: dict[int, list[int]] = {}
        for terms in self.gens:
            k = d - self.degree(min(terms))  # degree of the multipliers
            if k < 0:
                continue
            if k not in multipliers:
                multipliers[k] = [self._column(m, k) for m in monomials_of_degree(n, k)]
            for m in multipliers[k]:
                self.add_row({e + m: c for e, c in terms.items()})
        self.bound = d + 1

    def _reduce(self, work: dict) -> Optional[int]:
        """Cancel lowest terms by pivot rows; return the first without one."""
        p = self.p
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
        """Reduce a row of packed columns into the frame; True if the rank grew."""
        e = self._reduce(row)
        if e is not None:
            inv = pow(row.pop(e), -1, self.p)
            self.pivots[e] = tuple((t, c * inv % self.p) for t, c in row.items() if c)
            d = self.degree(e)
            self._pivots_of_degree[d] = self._pivots_of_degree.get(d, 0) + 1
        return e is not None

    @property
    def rank(self) -> int:
        """Rank of the frame truncated below the bound."""
        return sum(k for d, k in self._pivots_of_degree.items() if d < self.bound)

    @property
    def colength(self) -> int:
        return comb(self.ring.n + self.bound - 1, self.ring.n) - self.rank

    def _member(self, work: dict) -> bool:
        """No term below D survives the reduction of a row of columns."""
        e = self._reduce(work)
        return e is None or self.degree(e) >= self.bound

    def contains(self, f: Polynomial) -> bool:
        """Membership of f in I + m^D."""
        self.ring.check_same(f.ring)
        work = {}
        for e, c in f.exponent_terms():
            degree = sum(e)
            if degree < self.bound:
                work[self._column(e, degree)] = c
        return self._member(work)

    def contains_pure_powers(self) -> bool:
        """Every x_i^(D-1) lies in I + m^D."""
        k, n = self.bound - 1, self.ring.n
        powers = (self._column([k if j == i else 0 for j in range(n)], k) for i in range(n))
        return all(self._member({column: 1}) for column in powers)


def colength_bruteforce(ring: PolyRing, gens: Iterable[Polynomial]) -> Optional[int]:
    """Stabilized brute-force colength; None when not certified by D = MAX_DEGREE.

    Certificate: values at D and D+1 agree and every pure power x_i^(D-1)
    lies in the frame, which forces I + m^D = I and hence finiteness.  A
    frame that would pass ``MAX_COLUMNS`` first raises ResourceCap.
    """
    frame = MacaulayFrame(ring, list(gens), 1)
    prev, prev_pure = None, False
    while frame.bound < MAX_DEGREE:
        frame.grow()
        value = frame.colength
        if value == prev and prev_pure:
            return value
        prev = value
        prev_pure = frame.contains_pure_powers()
    return None
