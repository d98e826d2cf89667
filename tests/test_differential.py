"""Differential tests: the dict-and-heap kernels, the Gebauer-Moeller pair
update and the grown Macaulay frame against the plain code they replaced,
kept here as references.

``reference_normal_form`` is the re-sorting reduction loop (``work - step``
on whole polynomials), and ``reference_substitute`` builds the image of
every term from powers of the image polynomials.  The new kernels must give
identical polynomials and charge the term budget identically.
``reference_frame`` is the dense Macaulay frame rebuilt at every degree
bound D, with truncated rows and the leading monomial as pivot; the grown
frame must give the same colengths, memberships and certified values.
``reference_buchberger`` queues every pair and skips a coprime one when it is
popped; ``buchberger`` must return the identical reduced basis.
"""

import heapq

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hkforge import groebner
from hkforge.errors import ResourceCap
from hkforge.groebner import _Budget, _interreduce, buchberger, normal_form, s_polynomial
from hkforge.invariants import group_closure, reynolds
from hkforge.oracle import MacaulayFrame, colength_bruteforce
from hkforge.poly import (
    MonomialOrder,
    PolyRing,
    exponents_divide,
    exponents_lcm,
    exponents_sub,
    monomials_of_degree,
)

PRIMES = (2, 3, 5, 7, 101)
NAMES = ("x", "y", "z", "w")


def reference_normal_form(f, basis, budget=None):
    lts = [g.leading_exponents() for g in basis]
    tail = []
    work = f
    while not work.is_zero():
        e, c = work.terms[0]
        reducer = None
        for lt, g in zip(lts, basis):
            if exponents_divide(lt, e):
                reducer = g
                break
        if reducer is None:
            tail.append((e, c))
            work = work.ring.from_terms(work.terms[1:])
        else:
            step = reducer.multiply_monomial(exponents_sub(e, reducer.leading_exponents()), c)
            if budget is not None:
                budget.charge(len(step.terms))
            work = work - step
    return f.ring.from_terms(tail)


def reference_buchberger(ring, gens, max_terms):
    budget = _Budget(max_terms)
    basis = list(dict.fromkeys(g.monic() for g in gens if not g.is_zero()))
    lts = [g.leading_exponents() for g in basis]
    heap = [(sum(exponents_lcm(lts[i], lts[j])), i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(heap)
    while heap:
        _, i, j = heapq.heappop(heap)
        if all(min(x, y) == 0 for x, y in zip(lts[i], lts[j])):
            continue
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis, budget)
        if remainder.is_zero():
            continue
        basis.append(remainder.monic())
        lts.append(remainder.leading_exponents())
        for i in range(len(basis) - 1):
            heapq.heappush(heap, (sum(exponents_lcm(lts[i], lts[-1])), i, len(basis) - 1))
    return _interreduce(ring, basis)


def reference_substitute(f, matrix):
    R = f.ring
    images = [
        R.from_terms((R.variable(i).terms[0][0], matrix[i][j]) for i in range(R.n))
        for j in range(R.n)
    ]
    result = R.zero()
    for e, c in f.terms:
        part = R.constant(c)
        for j, exp in enumerate(e):
            if exp:
                part = part * images[j] ** exp
        result = result + part
    return result


def reference_frame(R, gens, bound):
    """Dense frame at one bound: (colength of I + m^bound, membership test)."""
    p = R.p
    basis = sorted(
        (e for d in range(bound) for e in monomials_of_degree(R.n, d)),
        key=R.order.key,
        reverse=True,
    )
    column = {e: i for i, e in enumerate(basis)}
    pivots = {}

    def reduce(f):
        v = [0] * len(basis)
        for e, c in f.terms:
            if e in column:
                v[column[e]] = c
        for j in range(len(v)):
            if v[j] and j not in pivots:
                return v, j
            if v[j]:
                v = [(a - v[j] * b) % p for a, b in zip(v, pivots[j])]
        return v, None

    for g in gens:
        if g.is_zero():
            continue
        low = min(sum(e) for e, _ in g.terms)
        for d in range(max(bound - low, 0)):
            for m in monomials_of_degree(R.n, d):
                v, j = reduce(g.multiply_monomial(m, 1))
                if j is not None:
                    inv = pow(v[j], -1, p)
                    pivots[j] = [a * inv % p for a in v]
    return len(basis) - len(pivots), lambda f: reduce(f)[1] is None


def reference_colength_bruteforce(R, gens, d_max):
    prev, prev_pure = None, False
    for bound in range(2, d_max + 1):
        value, contains = reference_frame(R, gens, bound)
        if value == prev and prev_pure:
            return value
        prev = value
        prev_pure = all(contains(R.variable(i) ** (bound - 1)) for i in range(R.n))
    return None


@st.composite
def rings(draw, max_vars=4):
    n = draw(st.integers(1, max_vars))
    kind = draw(st.sampled_from(("lex", "grevlex", "elim")))
    order = MonomialOrder.elim(draw(st.integers(1, n))) if kind == "elim" else MonomialOrder(kind)
    return PolyRing(draw(st.sampled_from(PRIMES)), NAMES[:n], order)


def polys(R, max_terms=6, max_exp=4):
    term = st.tuples(
        st.tuples(*[st.integers(0, max_exp)] * R.n), st.integers(1, R.p - 1)
    )
    return st.lists(term, max_size=max_terms).map(R.from_terms)


@st.composite
def reductions(draw, max_vars=4, max_exp=3):
    R = draw(rings(max_vars))
    f = draw(polys(R, max_terms=8, max_exp=5))
    basis = [
        g.monic()
        for g in draw(st.lists(polys(R, max_terms=4, max_exp=max_exp), max_size=4))
        if not g.is_zero()
    ]
    return f, basis


@settings(max_examples=300, deadline=None)
@given(reductions())
def test_normal_form_matches_reference_loop(case):
    f, basis = case
    budget, reference_budget = _Budget(None), _Budget(None)
    assert normal_form(f, basis, budget) == reference_normal_form(f, basis, reference_budget)
    assert budget.used == reference_budget.used


@settings(max_examples=50, deadline=None)
@given(reductions(max_vars=3, max_exp=2), st.integers(1, 3))
def test_normal_form_matches_reference_on_groebner_bases(case, power):
    f, gens = case
    R = f.ring
    # Pure powers make the ideal m-primary, which keeps the bases small.
    gens = gens + [R.variable(i) ** power for i in range(R.n)]
    G = buchberger(R, gens).basis
    budget, reference_budget = _Budget(None), _Budget(None)
    assert normal_form(f, G, budget) == reference_normal_form(f, G, reference_budget)
    assert budget.used == reference_budget.used


@settings(max_examples=200, deadline=None)
@given(rings(), st.data())
def test_heap_key_is_key_reversed(R, data):
    exps = data.draw(
        st.lists(st.tuples(*[st.integers(0, 5)] * R.n), min_size=2, max_size=12, unique=True)
    )
    order = R.order
    assert sorted(exps, key=order.heap_key) == sorted(exps, key=order.key, reverse=True)
    a, b = exps[0], exps[1]
    assert (order.heap_key(a) < order.heap_key(b)) == (order.key(a) > order.key(b))


@settings(max_examples=100, deadline=None)
@given(rings(max_vars=3), st.data())
def test_substitute_linear_matches_reference(R, data):
    f = data.draw(polys(R, max_terms=4, max_exp=3))
    matrix = data.draw(
        st.lists(st.lists(st.integers(-R.p, 2 * R.p), min_size=R.n, max_size=R.n),
                 min_size=R.n, max_size=R.n)
    )
    assert f.substitute_linear(matrix) == reference_substitute(f, matrix)


GROUPS = [
    (5, [[[4, 0], [0, 4]]]),
    (5, [[[4, 0], [0, 1]], [[1, 0], [0, 4]]]),
    (7, [[[0, 1], [1, 0]], [[0, 6], [1, 6]]]),
    (7, [[[3, 0], [0, 5]]]),
    (7, [[[1, 1], [6, 0]]]),
    (5, [[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[4, 0, 0], [0, 1, 0], [0, 0, 1]]]),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GROUPS), st.data())
def test_reynolds_is_the_naive_orbit_sum(group, data):
    p, gens = group
    G = group_closure(p, gens)
    R = PolyRing(p, NAMES[: G.n], MonomialOrder(data.draw(st.sampled_from(("lex", "grevlex")))))
    f = data.draw(polys(R, max_terms=4, max_exp=3))
    orbit_sum = R.zero()
    for m in G.elements:
        orbit_sum = orbit_sum + f.substitute_linear(m)
    expected = orbit_sum * G.field.inv(G.order % p)
    assert reynolds(f, G) == expected
    degree = max(f.total_degree(), 0) + data.draw(st.integers(0, 2))
    tables = [R.linear_powers(m, degree) for m in G.elements]
    assert reynolds(f, G, tables) == expected


@settings(max_examples=150, deadline=None)
@given(rings(max_vars=3), st.data())
def test_grown_frame_matches_dense_reference(R, data):
    gens = data.draw(st.lists(polys(R, max_terms=3, max_exp=3), min_size=1, max_size=3))
    # Pure powers make the ideal m-primary, so the colength often certifies by d_max.
    powers = data.draw(st.lists(st.integers(1, 5), min_size=R.n, max_size=R.n))
    if data.draw(st.booleans()):
        gens = gens + [R.variable(i) ** k for i, k in enumerate(powers)]
    probes = data.draw(st.lists(polys(R, max_terms=3, max_exp=4), max_size=4))
    d_max = 7
    assert colength_bruteforce(R, gens, d_max=d_max) == reference_colength_bruteforce(R, gens, d_max)
    frame = MacaulayFrame(R, gens, 1)
    for bound in range(1, d_max + 1):
        if bound > 1:
            frame.grow()
        colength, contains = reference_frame(R, gens, bound)
        assert frame.colength == colength
        assert [frame.contains(f) for f in probes] == [contains(f) for f in probes]


@settings(max_examples=200, deadline=None)
@given(rings(max_vars=3), st.data())
def test_buchberger_matches_all_pairs_reference(R, data):
    gens = data.draw(st.lists(polys(R, max_terms=4, max_exp=3), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        powers = data.draw(st.lists(st.integers(1, 4), min_size=R.n, max_size=R.n))
        gens = gens + [R.variable(i) ** k for i, k in enumerate(powers)]
    try:
        expected = reference_buchberger(R, gens, max_terms=20_000)
    except ResourceCap:
        assume(False)
    # The basis is the distinct monic inputs, then each nonzero remainder.
    lts = [g.leading_exponents() for g in dict.fromkeys(g.monic() for g in gens if not g.is_zero())]
    queued = []
    heapify, heappush = heapq.heapify, heapq.heappush

    # Pair queue entries start (sum(lcm), i, j); reduction heaps hold pairs.
    def heapify_spy(heap):
        queued.extend(entry[1:3] for entry in heap if len(entry) > 2)
        heapify(heap)

    def heappush_spy(heap, entry):
        if len(entry) > 2:
            queued.append(entry[1:3])
        heappush(heap, entry)

    def normal_form_spy(f, basis, budget=None):
        remainder = normal_form(f, basis, budget)
        if budget is not None and not remainder.is_zero():
            lts.append(remainder.leading_exponents())
        return remainder

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heapq, "heapify", heapify_spy)
        mp.setattr(heapq, "heappush", heappush_spy)
        mp.setattr(groebner, "normal_form", normal_form_spy)
        G = buchberger(R, gens, max_terms=200_000)
    assert G.basis == expected
    assert all(i < j and any(map(min, lts[i], lts[j])) for i, j in set(queued))
