"""Buchberger's algorithm, reduced Groebner bases, colength and dimension.

Pair selection uses the normal strategy: smallest lcm total degree first,
ties broken by pair index, so runs are deterministic.  Every basis element
is kept monic and the final basis is interreduced, which makes reduced
bases canonical and ideal equality a tuple comparison.

Pairs are queued by the Gebauer-Moeller update (Gebauer and Moeller, JSC 6,
1988; Becker and Weispfenning, Groebner Bases, section 5.5), run once for
each input generator and once for each new remainder h.  It works over a
live set: the basis elements whose leading terms no later element divides.
A new pair (g, h), g live, is dropped when the lcm of a new pair not yet
checked or already kept divides its lcm (criterion M; of equal lcms one is
kept), and then when LT(g) and LT(h) are coprime (criterion F).  A queued
pair (a, b) is dropped when LT(h) divides lcm(a, b) and that lcm differs
from lcm(a, h) and from lcm(b, h) (criterion B_k).  Then every g with
LT(h) | LT(g) leaves the live set, though not the basis, which reductions
still use.  Only the pairs kept are reduced, and only those count against
the pair budget.  The update computes lcm(g, h) once per live g; criterion M
then tests divisibility of those ints by subtraction and mask, and B_k calls
no ``lcm`` at all: LT(a) and LT(h) both divide lcm(a, b), so their lcm is
lcm(a, b) exactly when the variable fields of their fieldwise maximum (one
masked select) are those of lcm(a, b).

Reduction (``_reduce``, behind ``normal_form``) keeps its working
polynomial as a term dict and a heap of ``PolyRing.heap_key`` ints; it
sorts nothing, and the remainder comes out already in order.  Polynomials
are built sorted once per result, never once per reduction step.  An S-pair
is reduced in place: its term dict is built from the two basis tails
shifted to the pair's queued lcm (``_s_pair``), with the leading terms,
which cancel, left out, so no S-polynomial is made; ``s_polynomial``
remains for ``verify`` and callers outside.  Monomials are the ring's packed
ints (see ``poly``): a product is one ``+``, a divisibility test one
subtraction and mask.  Colength, dimension and Hilbert function all read
the Hilbert-series numerator of S/in(I), which each basis computes once by
sweeping the leading exponents along the last variable (``_hilbert_numerator``).

Every ``buchberger`` run has two budgets, the module constants
``MAX_PAIRS`` (pairs reduced) and ``MAX_TERMS`` (terms charged by its
reductions), read when the run starts; the CLI's ``--max-pairs`` and
``--max-terms`` rebind them for one command.
"""

from __future__ import annotations

import heapq
from math import comb, factorial
from operator import itemgetter
from typing import Optional, Sequence

from .errors import EmptyVariety, ResourceCap, RingMismatch
from .poly import Exponents, Polynomial, PolyRing

MAX_PAIRS = 50_000
MAX_TERMS = 1_000_000


class _Budget:
    """Counts terms touched during reductions; trips ResourceCap when spent."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int):
        self.used += amount
        if self.limit is not None and self.used > self.limit:
            raise ResourceCap(f"term budget {self.limit} exhausted")


def _reducer(g: Polynomial) -> tuple[int, tuple, int, int]:
    """What ``_reduce`` reads of a monic basis element: its leading monomial,
    its other terms, the number of all its terms (the budget charge) and its
    span."""
    return g.terms[0][0], g.terms[1:], len(g.terms), g.span


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    budget: Optional[_Budget] = None,
) -> Polynomial:
    """Fully reduce f: no term of the result is divisible by any basis LT.

    Deterministic: the greatest reducible term is rewritten by the first
    matching element of the basis sequence.  Basis elements must be monic.
    Each rewrite charges the budget len(reducer.terms).
    """
    ring = f.ring
    for g in basis:
        if g.ring != ring:
            raise RingMismatch(f"{g.ring!r} vs {ring!r}")
    return _reduce(ring, dict(f.terms), [_reducer(g) for g in basis], budget)


def _reduce(
    ring: PolyRing,
    work: dict[int, int],
    reducers: Sequence[tuple[int, tuple, int, int]],
    budget: Optional[_Budget] = None,
) -> Polynomial:
    """``normal_form`` of the term dict ``work`` (packed monomial to nonzero
    coefficient, consumed) against a list of ``_reducer`` entries, which a
    caller whose basis only grows keeps and extends instead of rebuilding.

    The dict is the working polynomial; a min-heap of the heap keys of its
    monomials pops the greatest term without re-sorting.  An entry whose
    monomial cancelled is skipped when popped (lazy deletion).  Terms come
    off the heap in descending order, so the irreducible ones already form
    the sorted result.  A monic reducer's leading term cancels the popped
    term exactly, so only its tail is added.
    """
    p = ring.p
    guard, flip, check_product = ring.guard, ring.heap_flip, ring.check_product
    heappop, heappush = heapq.heappop, heapq.heappush
    heap = [e ^ flip for e in work]
    heapq.heapify(heap)
    tail: list[tuple[int, int]] = []
    while heap:
        e = heappop(heap) ^ flip
        c = work.pop(e, None)
        if c is None:
            continue
        for lt, rest, size, span in reducers:
            if not (e - lt) & guard:
                break
        else:
            tail.append((e, c))
            continue
        if budget is not None:
            budget.charge(size)
        shift = e - lt
        check_product(shift, span)
        for eg, cg in rest:
            m = eg + shift
            old = work.get(m)
            if old is None:
                work[m] = -c * cg % p
                heappush(heap, m ^ flip)
            else:
                new = (old - c * cg) % p
                if new:
                    work[m] = new
                else:
                    del work[m]
    return Polynomial(ring, tuple(tail))


def _s_pair(
    ring: PolyRing,
    f: tuple[int, tuple, int, int],
    g: tuple[int, tuple, int, int],
    gamma: int,
) -> dict[int, int]:
    """The term dict of the S-polynomial of two ``_reducer`` entries whose
    leading monomials have lcm gamma: the shifted tails, f's minus g's.  The
    leading terms, both gamma with coefficient 1, cancel and are left out.
    Checks that the shifts fit in the order ``s_polynomial`` does."""
    lt_f, rest_f, _, span_f = f
    lt_g, rest_g, _, span_g = g
    shift_f, shift_g = gamma - lt_f, gamma - lt_g
    ring.check_product(shift_f, span_f)
    ring.check_product(shift_g, span_g)
    p = ring.p
    work = {m + shift_f: c for m, c in rest_f}
    for m, c in rest_g:
        m += shift_g
        # m absent leaves -c, which is nonzero; only a present term can cancel.
        new = (work.get(m, 0) - c) % p
        if new:
            work[m] = new
        else:
            del work[m]
    return work


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S-polynomial of two monic polynomials in the same ring."""
    f.ring.check_same(g.ring)
    a, b = f.leading_monomial(), g.leading_monomial()
    gamma = f.ring.lcm(a, b)
    return f.multiply_monomial(gamma - a, 1) - g.multiply_monomial(gamma - b, 1)


def _interreduce(ring: PolyRing, basis: list[Polynomial]) -> tuple[Polynomial, ...]:
    """Minimalize then tail-reduce: the unique reduced basis, sorted by LT."""
    def key(g):
        return ring.key(g.leading_monomial())

    # A divisor's leading term is never the greater, so in ascending order
    # each element need only be tested against the minimal ones kept before
    # it: by transitivity, a dropped divisor has a kept divisor of its own.
    divides = ring.divides
    minimal: list[Polynomial] = []
    lts: list[int] = []
    for g in sorted({g.monic() for g in basis if not g.is_zero()}, key=key):
        lt = g.leading_monomial()
        if not any(divides(h, lt) for h in lts):
            minimal.append(g)
            lts.append(lt)
    # LT(g) divides no term below it, so g never rewrites its own tail and
    # reducing the tail against all of them equals normal_form(g, others).
    reducers = [_reducer(g) for g in minimal]
    reduced = [
        Polynomial(ring, g.terms[:1] + _reduce(ring, dict(g.terms[1:]), reducers).terms)
        for g in minimal
    ]
    reduced.sort(key=key, reverse=True)
    return tuple(reduced)


def buchberger(ring: PolyRing, gens: Sequence[Polynomial]) -> "GroebnerBasis":
    """Reduced Groebner basis of the ideal generated by gens.

    Budget overruns (reduced pairs past ``MAX_PAIRS``, or reduction work
    past ``MAX_TERMS`` terms) raise ResourceCap rather than hang.
    """
    for g in gens:
        ring.check_same(g.ring)
    max_pairs = MAX_PAIRS
    budget = _Budget(MAX_TERMS)
    lcm, guard = ring.lcm, ring.guard
    # For the lcm-free B_k test: a field's guard bit shifted down to its
    # lowest bit, times ``field``, fills the field (a masked select as in
    # ``PolyRing._field_max``), and ``var_mask`` covers the variable fields,
    # which determine the degree fields that ``lcm`` recounts.
    top, field = ring.width - 1, (1 << ring.width) - 1
    var_mask = sum(block[1] for block in ring._blocks)
    basis: list[Polynomial] = []
    reducers: list[tuple[int, tuple, int, int]] = []
    lts: list[int] = []
    live: list[int] = []
    # (deg(lcm), i, j, lcm) with i < j; the first three entries are the key.
    heap: list[tuple[int, int, int, int]] = []

    def update(h: Polynomial):
        """Gebauer-Moeller UPDATE: add h and queue only the pairs kept."""
        nonlocal heap, live
        k = len(basis)
        t = h.leading_monomial()
        basis.append(h)
        reducers.append(_reducer(h))
        lts.append(t)
        # Criterion M: a candidate (g, h) goes when the lcm of a later
        # candidate or of one already kept divides its own (no guard bit
        # set in the difference).  Coprime candidates, whose lcm is the
        # product, stay as rivals, and criterion F drops them from the queue.
        gammas = [lcm(lts[i], t) for i in live]
        kept: list[int] = []
        pairs = []
        for pos, (i, gamma) in enumerate(zip(live, gammas)):
            if gamma == lts[i] + t:
                kept.append(gamma)
            elif all(map(guard.__and__, map(gamma.__sub__, gammas[pos + 1 :] + kept))):
                kept.append(gamma)
                pairs.append((ring.degree(gamma), i, k, gamma))
        # Criterion B_k: LT(h) divides lcm(a, b) and differs from both other
        # lcms.  lcm(LT(a), LT(h)) is lcm(a, b) exactly when the variable
        # fields of the fieldwise maximum agree; both divide lcm(a, b), so
        # the maximum fits its fields.
        queued = []
        for entry in heap:
            gamma = entry[3]
            if (gamma - t) & guard:
                queued.append(entry)
                continue
            for a in (lts[entry[1]], lts[entry[2]]):
                pick = (((a - t) & guard) >> top) * field
                if not (((a & ~pick) | (t & pick)) ^ gamma) & var_mask:
                    queued.append(entry)
                    break
        heap = queued + pairs
        heapq.heapify(heap)
        live = [i for i in live if (lts[i] - t) & guard] + [k]

    for g in dict.fromkeys(g.monic() for g in gens if not g.is_zero()):
        update(g)

    processed = 0
    while heap:
        _, i, j, gamma = heapq.heappop(heap)
        processed += 1
        if processed > max_pairs:
            raise ResourceCap(f"pair budget {max_pairs} exhausted")
        work = _s_pair(ring, reducers[i], reducers[j], gamma)
        remainder = _reduce(ring, work, reducers, budget)
        if not remainder.is_zero():
            update(remainder.monic())

    # Each element off the live set has its leading term divided by a live
    # one's, so the live set alone gives the same reduced basis.
    return GroebnerBasis(ring, _interreduce(ring, [basis[i] for i in live]))


class GroebnerBasis:
    """A reduced Groebner basis with staircase combinatorics on top."""

    __slots__ = ("ring", "basis", "_series")

    def __init__(self, ring: PolyRing, basis: tuple[Polynomial, ...]):
        self.ring = ring
        self.basis = tuple(basis)
        self._series: Optional[tuple[dict[int, int], int, Optional[int]]] = None

    def __eq__(self, other):
        if not isinstance(other, GroebnerBasis):
            return NotImplemented
        return self.ring == other.ring and self.basis == other.basis

    def __repr__(self):
        return f"GroebnerBasis[{'; '.join(str(g) for g in self.basis)}]"

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def is_unit_ideal(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.basis)

    def staircase(self) -> list[Exponents]:
        """Minimal generators of the leading-term ideal (an antichain): the
        leading exponents, since ``_interreduce`` kept no divisible one."""
        return [g.leading_exponents() for g in self.basis]

    def normal_form(self, f: Polynomial) -> Polynomial:
        self.ring.check_same(f.ring)
        return normal_form(f, self.basis)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def verify(self) -> bool:
        """S-polynomial criterion: every pair reduces to zero."""
        for i in range(len(self.basis)):
            for j in range(i):
                if not normal_form(s_polynomial(self.basis[i], self.basis[j]), self.basis).is_zero():
                    return False
        return True

    def _hilbert(self) -> tuple[dict[int, int], int, Optional[int]]:
        """K(t) of S/in(I), the Krull dimension and the colength, computed
        once.  With S_j = sum_e c_e C(e, j), K's j-th Taylor coefficient at
        t = 1, K/(1 - t)^n has a pole of order n - j at 1 for the least j with
        S_j != 0, and for j = n it is a polynomial with value (-1)^n S_n at 1.
        One pass over K sums c_e e (e - 1) .. (e - j + 1) = j! c_e C(e, j)."""
        if self._series is None:
            n = self.ring.n
            numerator = _hilbert_numerator(self.staircase())
            falling = [0] * (n + 1)
            for e, c in numerator.items():
                for j in range(n + 1):
                    falling[j] += c
                    c *= e - j
            j = next((j for j in range(n) if falling[j]), n)
            colength = (-1) ** n * falling[n] // factorial(n) if j == n else None
            self._series = (numerator, n - j, colength)
        return self._series

    def colength(self) -> Optional[int]:
        """Number of standard monomials; None for positive dimension."""
        return self._hilbert()[2]

    def krull_dim(self) -> int:
        if self.is_unit_ideal():
            raise EmptyVariety("the unit ideal has empty vanishing locus")
        return self._hilbert()[1]

    def hilbert_function(self, d: int) -> int:
        """dim (S/in(I))_d, which is dim (S/I)_d for homogeneous I:
        sum over e <= d of c_e C(d - e + n - 1, n - 1)."""
        n = self.ring.n
        return sum(c * comb(d - e + n - 1, n - 1) for e, c in self._hilbert()[0].items() if e <= d)


def _hilbert_numerator(exps: Sequence[Exponents]) -> dict[int, int]:
    """K(t) of S/M as {degree: nonzero coefficient}, where S/M has Hilbert
    series K(t)/(1 - t)^n and exps, not necessarily minimal, generate M.

    Sweeps the last variable (the slice idea of Bigatti, "Computation of
    Hilbert-Poincare series", JPAA 119, 1997).  The heights of x_n from one
    breakpoint b of its exponents up to the next, b', share the slice of the
    generators with last exponent at most b, and add (t^b - t^b') K(slice);
    those past the last add t^b K(slice).  A pure power of x_n makes the
    slice the unit ideal, K = 0, and ends the sweep.  In one variable
    K = 1 - t^a for the least a, so in two a running minimum is the slice.
    """
    if not exps:
        return {0: 1}
    n = len(exps[0])
    if n == 1:
        a = min(e[0] for e in exps)
        return {0: 1, a: -1} if a else {}
    numerator: dict[int, int] = {}
    prev = 0
    if n == 2:
        # 1 - t^low for the slices a generator has entered, 1 before.
        numerator[0], low = 1, None
        for a, b in sorted(exps, key=itemgetter(1)):
            if low is not None and b > prev:
                numerator[prev + low] = numerator.get(prev + low, 0) - 1
                numerator[b + low] = numerator.get(b + low, 0) + 1
            prev = b
            if low is None or a < low:
                low = a
                if not low:
                    break
        if low is not None:
            numerator[prev + low] = numerator.get(prev + low, 0) - 1
    else:
        slice_: list[Exponents] = []
        for e in sorted(exps, key=itemgetter(-1)):
            if e[-1] > prev:
                for d, c in _hilbert_numerator(slice_).items():
                    numerator[d + prev] = numerator.get(d + prev, 0) + c
                    numerator[d + e[-1]] = numerator.get(d + e[-1], 0) - c
                prev = e[-1]
            slice_.append(e[:-1])
            if not any(slice_[-1]):
                break
        else:
            for d, c in _hilbert_numerator(slice_).items():
                numerator[d + prev] = numerator.get(d + prev, 0) + c
    return {d: c for d, c in numerator.items() if c}
