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
``reference_intersect`` is the intersection that embedded exponent tuples
into an S[t] built per call and multiplied by t and 1 - t; ``intersect``
must return identical generators in the same order.
``reference_gm_buchberger`` is the Gebauer-Moeller loop that built each
S-polynomial and called ``lcm`` in every test of its update; ``buchberger``
must pop the same pairs and charge the same terms.
``naive_reynolds`` sums the ``substitute_linear`` images of the orbit, and
``reference_invariant_basis`` runs the pivot loop on orbit sums grown one
variable at a time; the Kronecker kernel behind ``reynolds`` and
``invariant_basis`` must give identical polynomials, on the fixed groups and
on densely conjugated ones over primes up to 2^31 - 1.  The Molien counts
must equal the ranks the reference pivot loop finds, and Faddeev-LeVerrier
the principal-minor sums ``reference_elementary``.  ``group_closure`` must
reject as singular exactly the generators that the Gaussian elimination
``reference_is_invertible`` finds singular over F_p.
The packed-monomial operations of ``PolyRing`` must agree with their
definitions on exponent tuples, and reduced bases with sympy's, when sympy
is installed.  ``reference_count_standard`` is the split-and-minimalize
recursion the staircase sweep replaced; both must equal a box count.  The
colength, Krull dimension and Hilbert function that the Hilbert-series
numerator gives must equal that box count, the subset scan
``reference_krull_dim`` and the divisibility count
``reference_hilbert_function``.
"""

import heapq
import itertools
from operator import le

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hkforge import groebner, invariants, oracle
from hkforge.errors import ModularCase, PreconditionViolated, ResourceCap
from hkforge.groebner import (
    _Budget,
    _interreduce,
    _hilbert_numerator,
    _reduce,
    buchberger,
    normal_form,
    s_polynomial,
)
from hkforge.ideals import Ideal
from hkforge.invariants import (
    _elementary,
    _invariant_counts,
    group_closure,
    invariant_basis,
    reynolds,
)
from hkforge.oracle import MacaulayFrame, colength_bruteforce
from hkforge.poly import MAX_VARS, MonomialOrder, PolyRing, monomials_of_degree

PRIMES = (2, 3, 5, 7, 101)
LARGEST_PRIME = 2147483647
NAMES = ("x", "y", "z", "w")


def exponents_divide(a, b):
    """True when monomial a divides monomial b componentwise."""
    return all(map(le, a, b))


def exponents_lcm(a, b):
    return tuple(map(max, a, b))


def exponents_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def reference_normal_form(f, basis, budget=None):
    lts = [g.leading_exponents() for g in basis]
    tail = []
    work = f
    while not work.is_zero():
        e, c = work.exponent_terms()[0]
        reducer = None
        for lt, g in zip(lts, basis):
            if exponents_divide(lt, e):
                reducer = g
                break
        if reducer is None:
            tail.append((e, c))
            work = work.ring.from_terms(work.exponent_terms()[1:])
        else:
            shift = work.ring.pack(exponents_sub(e, reducer.leading_exponents()))
            step = reducer.multiply_monomial(shift, c)
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
        R.from_terms((R.variable(i).leading_exponents(), matrix[i][j]) for i in range(R.n))
        for j in range(R.n)
    ]
    result = R.zero()
    for e, c in f.exponent_terms():
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
        for e, c in f.exponent_terms():
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
        low = min(sum(e) for e, _ in g.exponent_terms())
        for d in range(max(bound - low, 0)):
            for m in monomials_of_degree(R.n, d):
                v, j = reduce(g.multiply_monomial(R.pack(m), 1))
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


def _minimalize(exps):
    return frozenset(e for e in exps if not any(o != e and exponents_divide(o, e) for o in exps))


def reference_count_standard(lts, n, memo):
    """count(M) = count(M + (x_i^k)) + count(M : x_i^k) for a mixed generator
    g with k = g_i its largest exponent; a pure-power box is the product of
    its minimal exponents."""
    cached = memo.get(lts)
    if cached is not None:
        return cached
    mixed = None
    box = [None] * n
    for e in lts:
        support = [i for i in range(n) if e[i]]
        if len(support) == 1:
            i = support[0]
            if box[i] is None or e[i] < box[i]:
                box[i] = e[i]
        elif mixed is None or sum(e) < sum(mixed):
            mixed = e
    if mixed is None:
        result = 1
        for a in box:
            result *= a
    else:
        i = max(range(n), key=lambda v: mixed[v])
        k = mixed[i]
        cap = tuple(k if v == i else 0 for v in range(n))
        plus = _minimalize({e for e in lts if not exponents_divide(cap, e)} | {cap})
        colon = _minimalize(
            {tuple(max(x - k, 0) if v == i else x for v, x in enumerate(e)) for e in lts}
        )
        result = reference_count_standard(plus, n, memo) + reference_count_standard(colon, n, memo)
    memo[lts] = result
    return result


def box_count(exps):
    """Monomials inside the pure-power box that no generator divides."""
    n = len(exps[0])
    box = [min(e[i] for e in exps if e[i] and sum(e) == e[i]) for i in range(n)]
    return sum(
        not any(exponents_divide(e, m) for e in exps)
        for m in itertools.product(*(range(b) for b in box))
    )


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
    packed = [R.pack(e) for e in exps]
    assert sorted(packed, key=R.heap_key) == sorted(packed, key=R.key, reverse=True)
    a, b = packed[0], packed[1]
    assert (R.heap_key(a) < R.heap_key(b)) == (R.key(a) > R.key(b))


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


def naive_reynolds(f, G):
    """(1/|G|) times the sum of the substitute_linear images of f."""
    orbit_sum = f.ring.zero()
    for m in G.elements:
        orbit_sum = orbit_sum + f.substitute_linear(m)
    return orbit_sum * pow(G.order % G.p, -1, G.p)


def reference_invariant_basis(R, G, top):
    """invariant_basis for every degree up to top, from naive orbit sums: the
    image of x^e under each element is that of x^e / x_j times x_j's image,
    j the first variable of x^e, and the rows go through the same pivot loop."""
    one = (0,) * R.n
    images = []
    for m in G.elements:
        columns = [
            R.from_terms((tuple(int(k == i) for k in range(R.n)), m[i][j]) for i in range(R.n))
            for j in range(R.n)
        ]
        images.append((columns, {one: R.one()}))
    scale = pow(G.order % G.p, -1, G.p)
    bases = {}
    for d in range(1, top + 1):
        pivots = {}
        for e in monomials_of_degree(R.n, d):
            j = next(i for i, a in enumerate(e) if a)
            below = tuple(a - (i == j) for i, a in enumerate(e))
            g = R.zero()
            for columns, memo in images:
                memo[e] = memo[below] * columns[j]
                g = g + memo[e]
            g = g * scale
            while not g.is_zero() and g.leading_monomial() in pivots:
                g = g - pivots[g.leading_monomial()] * g.leading_coefficient()
            if not g.is_zero():
                pivots[g.leading_monomial()] = g.monic()
        bases[d] = [pivots[k] for k in sorted(pivots, key=R.key, reverse=True)]
    return bases


KERNEL_PRIMES = PRIMES + (LARGEST_PRIME,)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _mat_mul(p, a, b):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _inverse(p, a):
    """Gauss-Jordan inverse of an invertible matrix mod p."""
    n = len(a)
    rows = [list(row) + unit for row, unit in zip(a, _identity(n))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] % p)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _root_of_unity(p, k):
    """An element of exact multiplicative order k in F_p; k divides p - 1."""
    for a in range(2, p):
        z = pow(a, (p - 1) // k, p)
        if all(pow(z, k // q, p) != 1 for q in range(2, k + 1) if k % q == 0):
            return z
    return 1


def conjugated(p, gens, change):
    """A g A^-1 for every generator g: the same group in the coordinates of A."""
    inverse = _inverse(p, change)
    return [_mat_mul(p, _mat_mul(p, change, g), inverse) for g in gens]


@st.composite
def dense_groups(draw, max_order=24):
    """(p, generators): some of a cyclic shift, a swap and diag(z, 1, .., 1),
    z a root of unity, conjugated by a random dense matrix.  When they make
    a group of order divisible by p or above max_order, diag(z, 1, .., 1)
    alone stands in."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    n = draw(st.integers(1, 4))
    k = draw(st.sampled_from([k for k in (1, 2, 3, 4, 6) if (p - 1) % k == 0]))
    diagonal = _identity(n)
    diagonal[0][0] = _root_of_unity(p, k)
    menu = [diagonal]
    if n > 1:
        menu.append([[int(j == (i + 1) % n) for j in range(n)] for i in range(n)])
        swap = _identity(n)
        swap[0][0] = swap[1][1] = 0
        swap[0][1] = swap[1][0] = 1
        menu.append(swap)
    gens = draw(st.lists(st.sampled_from(menu), min_size=1, max_size=2))
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "MAX_GROUP", max_order)
            group_closure(p, gens)
    except (ModularCase, ResourceCap):
        gens = [diagonal]  # of order k, which divides p - 1
    # A dense change of coordinates, invertible as a lower unitriangular
    # times an upper triangular matrix with a nonzero diagonal.
    a = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    lower = [[1 if i == j else a[i * n + j] * (j < i) for j in range(n)] for i in range(n)]
    upper = [[max(a[i * n + j], 1) if i == j else a[i * n + j] * (j > i) for j in range(n)]
             for i in range(n)]
    return p, conjugated(p, gens, _mat_mul(p, lower, upper))


@st.composite
def forms(draw, R, max_degree=8, max_terms=4):
    """Sums of 1 to max_terms terms of degree at most max_degree."""
    terms = []
    for _ in range(draw(st.integers(1, max_terms))):
        cuts = sorted(draw(st.lists(st.integers(0, draw(st.integers(0, max_degree))),
                                    min_size=R.n - 1, max_size=R.n - 1)))
        top = draw(st.integers(cuts[-1] if cuts else 0, max_degree))
        e = tuple(b - a for a, b in zip([0] + cuts, cuts + [top]))
        terms.append((e, draw(st.integers(1, R.p - 1))))
    return R.from_terms(terms)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from(GROUPS), dense_groups()), st.data())
def test_reynolds_is_the_naive_orbit_sum(group, data):
    p, gens = group
    G = group_closure(p, gens)
    R = PolyRing(p, NAMES[: G.n], MonomialOrder(data.draw(st.sampled_from(("lex", "grevlex")))))
    f = data.draw(forms(R))
    assert reynolds(f, G) == naive_reynolds(f, G)


# GROUPS in dense coordinates; the last is a cyclic shift of order 3 over F_101.
CONJUGATED_GROUPS = [
    (p, conjugated(p, gens, [[2, 1], [1, 1]])) for p, gens in GROUPS if len(gens[0]) == 2
] + [
    (101, conjugated(101, [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]], [[1, 2, 3], [0, 5, 7], [4, 0, 9]])),
]


@pytest.mark.parametrize("p, gens", GROUPS + CONJUGATED_GROUPS)
def test_invariant_basis_is_the_naive_pivot_loop(p, gens):
    G = group_closure(p, gens)
    R = PolyRing(p, NAMES[: G.n])
    expected = reference_invariant_basis(R, G, G.order)
    for d in range(1, G.order + 1):
        assert invariant_basis(R, G, d) == expected[d]


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "MAX_DEGREE", d_max)
        value = colength_bruteforce(R, gens)
    assert value == reference_colength_bruteforce(R, gens, d_max)
    frame = MacaulayFrame(R, gens, 1)
    for bound in range(1, d_max + 1):
        if bound > 1:
            frame.grow()
        colength, contains = reference_frame(R, gens, bound)
        assert frame.colength == colength
        assert [frame.contains(f) for f in probes] == [contains(f) for f in probes]


def reference_intersect(I, J):
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, ())
    aux = "t"
    while aux in ring.names:
        aux += "_"
    ext = PolyRing(ring.p, (aux,) + ring.names, MonomialOrder.elim(1))

    def embed(f):
        return ext.from_terms(((0,) + e, c) for e, c in f.exponent_terms())

    t = ext.variable(0)
    gens = [t * embed(g) for g in I.lift_gens]
    gens += [(ext.one() - t) * embed(g) for g in J.lift_gens]
    kept = []
    for g in buchberger(ext, gens).basis:
        terms = g.exponent_terms()
        if all(e[0] == 0 for e, _ in terms):
            kept.append(ring.from_terms((e[1:], c) for e, c in terms))
    return Ideal(ring, kept)


def _intersect_outcome(intersect, I, J):
    try:
        return [(g.ring, g.terms) for g in intersect(I, J).gens]
    except ResourceCap as cap:
        return str(cap)


@settings(max_examples=150, deadline=None)
@given(rings(max_vars=3), st.data())
def test_intersect_matches_tuple_embedding_reference(R, data):
    I, J = (
        Ideal(R, data.draw(st.lists(polys(R, max_terms=3, max_exp=3), max_size=3)))
        for _ in range(2)
    )
    outcome = _intersect_outcome(Ideal.intersect, I, J)
    assert outcome == _intersect_outcome(reference_intersect, I, J)


def test_intersect_names_its_auxiliary_variable_past_the_ring_names():
    R = PolyRing(5, ("t", "t_", "x"))
    t, t_, x = (R.variable(i) for i in range(3))
    assert R.elimination_ring().names == ("t__", "t", "t_", "x")
    assert R.elimination_ring() is R.elimination_ring()
    I, J = Ideal.of(t**2, t_ * x), Ideal.of(t * t_ + x**2, t_**3)
    meet = I.intersect(J)
    assert [g.terms for g in meet.gens] == [g.terms for g in reference_intersect(I, J).gens]
    assert all(I.contains(g) and J.contains(g) for g in meet.gens)


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

    # Pair queue entries start (deg(lcm), i, j); reduction heaps hold ints.
    def heapify_spy(heap):
        queued.extend(entry[1:3] for entry in heap if isinstance(entry, tuple) and len(entry) > 2)
        heapify(heap)

    def heappush_spy(heap, entry):
        if isinstance(entry, tuple) and len(entry) > 2:
            queued.append(entry[1:3])
        heappush(heap, entry)

    def reduce_spy(ring, work, reducers, budget=None):
        remainder = _reduce(ring, work, reducers, budget)
        if budget is not None and not remainder.is_zero():
            lts.append(remainder.leading_exponents())
        return remainder

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heapq, "heapify", heapify_spy)
        mp.setattr(heapq, "heappush", heappush_spy)
        mp.setattr(groebner, "_reduce", reduce_spy)
        mp.setattr(groebner, "MAX_TERMS", 200_000)
        G = buchberger(R, gens)
    assert G.basis == expected
    assert all(i < j and any(map(min, lts[i], lts[j])) for i, j in set(queued))


def reference_gm_buchberger(ring, gens, max_terms):
    """The Gebauer-Moeller loop as it was before S-pairs were reduced in
    place: ``_reduce(s_polynomial(f, g))`` and ``ring.lcm`` in every test of
    the update.  Returns the (i, j) pops, the terms charged and the basis,
    or the ResourceCap message in place of the basis."""
    budget = _Budget(max_terms)
    divides, lcm = ring.divides, ring.lcm
    basis, lts, live, heap, pops = [], [], [], [], []

    def update(h):
        nonlocal heap, live
        k = len(basis)
        t = h.leading_monomial()
        basis.append(h)
        lts.append(t)
        candidates = []
        for i in live:
            gamma = lcm(lts[i], t)
            candidates.append((i, gamma, gamma == lts[i] + t))
        kept = []
        for pos, (i, gamma, coprime) in enumerate(candidates):
            rivals = candidates[pos + 1 :] + kept
            if coprime or not any(divides(r[1], gamma) for r in rivals):
                kept.append((i, gamma, coprime))
        heap = [
            entry
            for entry in heap
            if not divides(t, entry[3])
            or lcm(lts[entry[1]], t) == entry[3]
            or lcm(lts[entry[2]], t) == entry[3]
        ]
        heap.extend((ring.degree(gamma), i, k, gamma) for i, gamma, coprime in kept if not coprime)
        heapq.heapify(heap)
        live = [i for i in live if not divides(t, lts[i])] + [k]

    try:
        for g in dict.fromkeys(g.monic() for g in gens if not g.is_zero()):
            update(g)
        while heap:
            _, i, j, _ = heapq.heappop(heap)
            pops.append((i, j))
            remainder = normal_form(s_polynomial(basis[i], basis[j]), basis, budget)
            if not remainder.is_zero():
                update(remainder.monic())
    except ResourceCap as exc:
        return pops, budget.used, str(exc)
    return pops, budget.used, _interreduce(ring, [basis[i] for i in live])


@settings(max_examples=200, deadline=None)
@given(rings(max_vars=3), st.data())
def test_buchberger_pops_the_pairs_of_the_lcm_update(R, data):
    gens = data.draw(st.lists(polys(R, max_terms=4, max_exp=3), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        powers = data.draw(st.lists(st.integers(1, 4), min_size=R.n, max_size=R.n))
        gens = gens + [R.variable(i) ** k for i, k in enumerate(powers)]
    max_terms = data.draw(st.sampled_from((20_000, 40, 200)))
    expected = reference_gm_buchberger(R, gens, max_terms)
    pops, budgets = [], []
    heappop = heapq.heappop

    # Pair queue entries are tuples; reduction heaps hold ints.
    def heappop_spy(heap):
        entry = heappop(heap)
        if isinstance(entry, tuple):
            pops.append(entry[1:3])
        return entry

    class BudgetSpy(_Budget):
        __slots__ = ()

        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heapq, "heappop", heappop_spy)
        mp.setattr(groebner, "_Budget", BudgetSpy)
        mp.setattr(groebner, "MAX_TERMS", max_terms)
        try:
            result = buchberger(R, gens).basis
        except ResourceCap as exc:
            result = str(exc)
    assert (pops, budgets[0].used, result) == expected


def _outcome(reduce, budget):
    """A reduction's remainder, or its ResourceCap message, and the terms
    charged before it returned."""
    try:
        return reduce(), budget.used
    except ResourceCap as exc:
        return str(exc), budget.used


def _s_pair_outcomes(R, f, g, others, limit):
    """The S-pair of f and g reduced in place and reduced as a polynomial."""
    reducers = [groebner._reducer(h) for h in [f, g] + others]
    in_place, reference = _Budget(limit), _Budget(limit)

    def reduce_in_place():
        gamma = R.lcm(f.leading_monomial(), g.leading_monomial())
        work = groebner._s_pair(R, reducers[0], reducers[1], gamma)
        return _reduce(R, work, reducers, in_place)

    def reduce_polynomial():
        return _reduce(R, dict(s_polynomial(f, g).terms), reducers, reference)

    return _outcome(reduce_in_place, in_place), _outcome(reduce_polynomial, reference)


@settings(max_examples=300, deadline=None)
@given(rings(), st.data())
def test_s_pair_reduced_in_place_matches_its_reduced_s_polynomial(R, data):
    nonzero = polys(R, max_terms=5, max_exp=4).filter(lambda h: not h.is_zero())
    f, g = data.draw(nonzero).monic(), data.draw(nonzero).monic()
    limit = data.draw(st.none() | st.integers(0, 40))
    if data.draw(st.booleans()):
        # A term at the top of its field, so the lcm or a shifted tail may
        # not fit and both reductions must raise ResourceCap; a finite term
        # budget ends a reduction that would walk the field down.
        i = data.draw(st.integers(0, R.n - 1))
        top = tuple(R.max_degree - data.draw(st.integers(0, 2)) if j == i else 0 for j in range(R.n))
        if data.draw(st.booleans()):
            f, g = g, f
        f = f + R.monomial(top)
        assume(not f.is_zero())
        f = f.monic()
        limit = 40 if limit is None else limit
    drawn = data.draw(st.lists(polys(R, max_terms=4, max_exp=3), max_size=3))
    others = [h.monic() for h in drawn if not h.is_zero()]
    in_place, reference = _s_pair_outcomes(R, f, g, others, limit)
    assert in_place == reference


@pytest.mark.parametrize("order", ["lex", "grevlex", "elim(1)"])
def test_s_pair_reduced_in_place_raises_where_its_s_polynomial_does(order):
    R = PolyRing(5, ("x", "y"), MonomialOrder.parse(order))
    x, y = R.variable(0), R.variable(1)
    # Under lex and elim(1), x > y^D and the shift y of the tail y^D leaves
    # the field; under grevlex y^D leads and lcm(y^D, xy) does not fit.
    f, g = x + R.monomial((0, R.max_degree)), x * y + 1
    for first, second in ((f, g), (g, f)):
        in_place, reference = _s_pair_outcomes(R, first, second, [], None)
        assert in_place == reference
        assert in_place[0].startswith("exponent too wide")
    # A term budget that runs out part way through the reduction.
    f, g = x**2 + y + 1, x * y + x + y
    in_place, reference = _s_pair_outcomes(R, f, g, [x + y**2, y**3 - 1], 4)
    assert in_place == reference
    assert in_place[0] == "term budget 4 exhausted"


@st.composite
def packed_rings(draw):
    n = draw(st.sampled_from((1, 2, 3, 4, MAX_VARS)))
    kind = draw(st.sampled_from(("lex", "grevlex", "elim")))
    order = MonomialOrder.elim(draw(st.integers(1, n))) if kind == "elim" else MonomialOrder(kind)
    p = draw(st.sampled_from(PRIMES + (LARGEST_PRIME,)))
    return PolyRing(p, [f"x{i}" for i in range(n)], order)


def exponents(R, total):
    """Exponent tuples of degree at most total: a composition of a drawn
    degree, so single exponents reach total too."""

    @st.composite
    def draw_exponents(draw):
        degree = draw(st.integers(0, total) | st.sampled_from((0, 1, total)))
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=R.n - 1, max_size=R.n - 1)))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))

    return draw_exponents()


@settings(max_examples=300, deadline=None)
@given(packed_rings(), st.data())
def test_packed_operations_match_their_tuple_definitions(R, data):
    # Half the limit keeps a product in range; the full limit tests the masks.
    a, b = (
        data.draw(exponents(R, data.draw(st.sampled_from((R.max_degree // 2, R.max_degree)))))
        for _ in range(2)
    )
    ma, mb = R.pack(a), R.pack(b)
    assert R.unpack(ma) == a and R.unpack(mb) == b
    assert R.degree(ma) == sum(a)
    assert R.divides(ma, mb) == exponents_divide(a, b)
    if exponents_divide(a, b):
        assert R.unpack(mb - ma) == exponents_sub(b, a)
    # Each packed result is the tuple one, or too wide exactly when that is.
    product = tuple(x + y for x, y in zip(a, b))
    try:
        expected = R.pack(product)
    except ResourceCap:
        with pytest.raises(ResourceCap):
            R.check_product(ma, mb)
        with pytest.raises(ResourceCap):
            R.monomial(a) * R.monomial(b)
    else:
        R.check_product(ma, mb)
        assert ma + mb == expected
        assert R.monomial(a) * R.monomial(b) == R.monomial(product)
    try:
        expected = R.pack(exponents_lcm(a, b))
    except ResourceCap:
        with pytest.raises(ResourceCap):
            R.lcm(ma, mb)
    else:
        assert R.lcm(ma, mb) == expected


@settings(max_examples=200, deadline=None)
@given(packed_rings(), st.data())
def test_packed_keys_sort_like_the_orders(R, data):
    exps = data.draw(st.lists(exponents(R, R.max_degree), min_size=2, max_size=10, unique=True))
    packed = [R.pack(e) for e in exps]
    ascending = [R.pack(e) for e in sorted(exps, key=R.order.key)]
    assert sorted(packed, key=R.key) == ascending
    assert sorted(packed, key=R.heap_key) == ascending[::-1]


@settings(max_examples=200, deadline=None)
@given(packed_rings(), st.data())
def test_elimination_ring_packs_t_free_monomials_as_grevlex(R, data):
    assume(R.n < MAX_VARS)
    ext = R.elimination_ring()
    grevlex = R.with_order(MonomialOrder.grevlex())
    exps = data.draw(st.lists(exponents(R, R.max_degree), min_size=1, max_size=6, unique=True))
    packed = [grevlex.pack(e) for e in exps]
    assert [ext.pack((0,) + e) for e in exps] == packed
    assert sorted(packed, key=ext.key) == sorted(packed, key=grevlex.key)


@settings(max_examples=200, deadline=None)
@given(packed_rings(), st.data())
def test_products_past_the_field_raise_resource_cap(R, data):
    a = data.draw(exponents(R, R.max_degree))
    i = data.draw(st.integers(0, R.n - 1))
    b = tuple(R.max_degree - a[i] + 1 if j == i else 0 for j in range(R.n))
    with pytest.raises(ResourceCap):
        R.pack(tuple(x + y for x, y in zip(a, b)))
    with pytest.raises(ResourceCap):
        R.monomial(a) * (R.monomial(b) + 1)
    with pytest.raises(ResourceCap):
        (R.monomial(b) + 1).multiply_monomial(R.pack(a), 1)
    if R.order.kind != "elim":
        # lex and grevlex keep the total degree in one field.
        top = tuple(R.max_degree if j == i else 0 for j in range(R.n))
        too_wide = sum(exponents_lcm(a, top)) > R.max_degree
        try:
            R.lcm(R.pack(a), R.pack(top))
            assert not too_wide
        except ResourceCap:
            assert too_wide


def _monic_terms(terms, p):
    """A polynomial as the set of its (exponents, coefficient) terms, scaled
    to leading coefficient 1 mod p; terms come leading term first."""
    inv = pow(terms[0][1] % p, -1, p)
    return frozenset((tuple(e), c * inv % p) for e, c in terms if c % p)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reduced_bases_match_sympy(data):
    sympy = pytest.importorskip("sympy")
    n = data.draw(st.integers(1, 3))
    order = data.draw(st.sampled_from(("lex", "grevlex")))
    R = PolyRing(data.draw(st.sampled_from(PRIMES)), NAMES[:n], MonomialOrder(order))
    gens = data.draw(st.lists(polys(R, max_terms=3, max_exp=3), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        gens = gens + [R.variable(i) ** data.draw(st.integers(1, 4)) for i in range(n)]
    assume(any(not g.is_zero() for g in gens))
    try:
        ours = buchberger(R, gens).basis
    except ResourceCap:
        assume(False)
    symbols = sympy.symbols(NAMES[:n])
    exprs = [
        sum(c * sympy.Mul(*(s**k for s, k in zip(symbols, e))) for e, c in g.exponent_terms())
        for g in gens
        if not g.is_zero()
    ]
    theirs = sympy.groebner(exprs, *symbols, modulus=R.p, order=order)
    expected = {_monic_terms(sympy.Poly(h, *symbols).terms(order=order), R.p) for h in theirs.exprs}
    assert {_monic_terms(g.exponent_terms(), R.p) for g in ours} == expected


@st.composite
def staircases(draw):
    """Monomial generators, some of them multiples or copies of others, in
    any order.  A pure power of a variable is drawn or dropped, so the
    staircase may be infinite; then (n, generators)."""
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.one_of(st.none(), st.integers(1, 6)), min_size=n, max_size=n))
    exps = [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(sizes) if a]
    exps += draw(st.lists(st.tuples(*[st.integers(0, 7)] * n), max_size=8))
    exps = [e for e in exps if any(e)]
    if exps:
        for e in draw(st.lists(st.sampled_from(exps), max_size=3)):
            shift = draw(st.tuples(*[st.integers(0, 2)] * n))
            exps.append(tuple(map(sum, zip(e, shift))))
    return n, draw(st.permutations(exps))


def reference_krull_dim(exps, n):
    """The subset scan the numerator replaced: the most variables whose
    span contains no generator's support."""
    supports = [sum(1 << i for i in range(n) if e[i]) for e in exps]
    return max(
        bin(mask).count("1") for mask in range(1 << n) if all(s & ~mask for s in supports)
    )


def reference_hilbert_function(exps, n, d):
    """Degree-d monomials that no generator divides."""
    return sum(
        not any(exponents_divide(e, m) for e in exps) for m in monomials_of_degree(n, d)
    )


@settings(max_examples=500, deadline=None)
@given(staircases(), st.lists(st.integers(0, 16), min_size=1, max_size=3))
def test_staircase_sweep_matches_split_recursion_and_box_count(staircase, degrees):
    n, exps = staircase
    R = PolyRing(5, NAMES[:n])
    basis = buchberger(R, [R.from_terms([(e, 1)]) for e in exps])
    # Copies and multiples among the generators leave K unchanged.
    assert _hilbert_numerator(exps) == basis._hilbert()[0]
    if all(any(e[i] and sum(e) == e[i] for e in exps) for i in range(n)):
        expected = box_count(exps)
        assert reference_count_standard(_minimalize(set(exps)), n, {}) == expected
        assert basis.colength() == expected
    else:
        assert basis.colength() is None
    assert basis.krull_dim() == reference_krull_dim(exps, n)
    for d in degrees:
        assert basis.hilbert_function(d) == reference_hilbert_function(exps, n, d)


def reference_determinant(a):
    """Laplace expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * reference_determinant([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(len(a))
    )


def reference_elementary(a):
    """e_k as the sum of the k x k principal minors."""
    n = len(a)
    return [
        sum(
            reference_determinant([[a[i][j] for j in subset] for i in subset])
            for subset in itertools.combinations(range(n), k)
        )
        for k in range(1, n + 1)
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                       min_size=n, max_size=n)
))
def test_faddeev_leverrier_is_the_principal_minor_sums(a):
    assert _elementary(tuple(map(tuple, a))) == reference_elementary(a)


COUNT_PRIMES = (2, 3, 5, 7, 13)
MAX_COUNTED_ORDER = 120


def reference_is_invertible(p, m):
    """Gaussian elimination over F_p."""
    n = len(m)
    rows = [[a % p for a in row] for row in m]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [a * inv % p for a in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(a - c * b) % p for a, b in zip(rows[r], rows[col])]
    return True


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(COUNT_PRIMES).flatmap(lambda p: st.tuples(
    st.just(p),
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2 * p, 2 * p), min_size=n, max_size=n),
                           min_size=n, max_size=n)
    ),
)))
# Singular mod p though det = p over Z, as given or once reduced mod p.
@example((2, [[1, 1], [1, 3]]))
@example((3, [[2, 1], [1, 2]]))
@example((5, [[2, 1], [1, 3]]))
@example((5, [[7, 2], [1, 1]]))
@example((5, [[7, 1], [-4, 3]]))
@example((7, [[2, 1], [1, 4]]))
@example((13, [[2, 1, 0], [1, 7, 0], [0, 0, 1]]))
def test_group_closure_rejects_the_generators_gaussian_elimination_finds_singular(case):
    p, m = case
    # MAX_GROUP = 1 stops the closure at its first new element, after the check.
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "MAX_GROUP", 1)
            group_closure(p, [m])
        outcome = None
    except PreconditionViolated as exc:
        outcome = str(exc)
    except ResourceCap:
        outcome = None
    normalized = tuple(tuple(a % p for a in row) for row in m)
    if reference_is_invertible(p, m):
        assert outcome is None
    else:
        assert outcome == f"matrix {normalized} is singular over F_{p}"


def _power(p, a, e):
    result = _identity(len(a))
    for _ in range(e):
        result = _mat_mul(p, result, a)
    return result


def _order(p, a):
    """Multiplicative order of an invertible matrix mod p."""
    power, k = [list(row) for row in a], 1
    while power != _identity(len(a)):
        power, k = _mat_mul(p, power, a), k + 1
    return k


def _small_prime_to_p_power(draw, p, a):
    """A power of a whose order is prime to p and at most MAX_COUNTED_ORDER:
    a^(p^s m / t) for a divisor t of m, where a has order p^s m, p not | m."""
    order = _order(p, a)
    wild = 1
    while order % (wild * p) == 0:
        wild *= p
    tame = order // wild
    orders = [t for t in range(min(tame, MAX_COUNTED_ORDER), 0, -1) if tame % t == 0]
    t = draw(st.sampled_from(orders))
    return _power(p, _power(p, a, wild), tame // t)


@st.composite
def counted_groups(draw):
    """(p, generators) of a group of order at most MAX_COUNTED_ORDER and
    prime to p, from one or two generators.  Each is the identity, a scalar,
    a monomial matrix or a random invertible matrix, replaced by a power of
    order prime to p; the monomial ones share one random change of
    coordinates, so two of them often make a small nonabelian group, and
    random ones often have eigenvalues outside F_p.  When two generators
    make a group that is too large or has order divisible by p, the first
    one alone stands in."""
    p = draw(st.sampled_from(COUNT_PRIMES))
    n = draw(st.integers(1, 3))
    units = st.integers(1, p - 1)
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    change = [[1 if i == j else entries[i * n + j] * (j < i) for j in range(n)] for i in range(n)]
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("monomial", "random", "scalar", "identity")))
        if kind == "identity":
            a = _identity(n)
        elif kind == "scalar":
            c = draw(units)
            a = [[c if i == j else 0 for j in range(n)] for i in range(n)]
        elif kind == "monomial":
            perm = draw(st.permutations(range(n)))
            monomial = [[draw(units) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
            a = conjugated(p, [monomial], change)[0]
        else:
            # Lower unitriangular times upper triangular with a nonzero
            # diagonal: invertible, and dense.
            a = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
            lower = [[1 if i == j else a[i * n + j] * (j < i) for j in range(n)] for i in range(n)]
            upper = [[max(a[i * n + j], 1) if i == j else a[i * n + j] * (j > i) for j in range(n)]
                     for i in range(n)]
            a = _mat_mul(p, lower, upper)
        gens.append(_small_prime_to_p_power(draw, p, a))
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(invariants, "MAX_GROUP", MAX_COUNTED_ORDER)
            group_closure(p, gens)
    except (ModularCase, ResourceCap):
        gens = gens[:1]
    return p, gens


@settings(max_examples=300, deadline=None)
@given(counted_groups())
@example((2, [_identity(3)]))  # the trivial group, p <= n
@example((3, [[[2, 0, 0], [0, 2, 0], [0, 0, 2]]]))  # -I, p <= n
@example((7, [[[3, 0], [0, 3]]]))  # scalars of order 6
@example((7, [[[0, 6], [1, 0]]]))  # order 4, eigenvalues outside F_7
def test_molien_counts_are_the_reynolds_ranks(group):
    p, gens = group
    G = group_closure(p, gens)
    R = PolyRing(p, NAMES[: G.n])
    top = 7 if G.order <= 40 else 4
    ranks = reference_invariant_basis(R, G, top)
    assert _invariant_counts(G, top) == [1] + [len(ranks[d]) for d in range(1, top + 1)]
