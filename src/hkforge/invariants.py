"""Finite matrix groups acting on polynomials, Reynolds averaging and the
ideal generated by positive-degree invariants.

The action is by linear substitution x_j -> sum_i M[i][j] x_i, which makes
(gh).f = g.(h.f).  A `MatrixGroup` carries its modulus p, a plain int as
on `PolyRing`, and acts only on rings with the same p.  Everything requires
p coprime to the group order; the Reynolds operator divides by |G|, taking
1/|G| mod p with the builtin ``pow``.

Reynolds by Kronecker substitution
----------------------------------
All Reynolds images of one degree d are computed in integer arithmetic
(Kronecker substitution; Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", JSC 44, 2009).  The image of x_j under
g is L_{g,j} = sum_i M[i][j] x_i with entries in [0, p).  It is set to
x_0 = 1 and packed as one int, x_i -> 2^(w * B^(i-1)) for i >= 1 with
B = d + 1, so the monomial x_1^a_1 .. x_{n-1}^a_{n-1} of a product is the
slot sum_i a_i B^(i-1) of w bits.  A form of degree d has every a_i <= d < B,
so distinct monomials get distinct slots, and x_0's exponent is d minus
the rest.  For each element the powers L^0 .. L^d are one chain of integer
products, and |G| R(x^e) = sum_g prod_j L_{g,j}^{e_j} is a sum of products
of those ints.

No slot carries into its neighbour.  Every coefficient of prod_j L^{e_j},
taken over Z, is nonnegative and at most the product's value at x = 1,
which is at most (n(p - 1))^d; the orbit sum of a form whose coefficients add up to W
is then at most |G| W (n(p - 1))^d in every slot, and W = 1 for a
monomial.  The slot width w is that bound's bit length rounded up to whole
bytes, so 2^w exceeds it, and each sum is decoded once: ``to_bytes`` and
one slice per degree-d monomial give the exact integer coefficients, which
are reduced mod p and scaled by 1/|G|.  B and w both grow with d, so the
packed powers are rebuilt for every degree.

Counting before computing
-------------------------
Before it decodes a single image, ``invariant_basis`` knows how many
invariants degree d has.  With p not dividing |G| the modules over F_p G are
semisimple, and Molien's formula holds with Brauer characters (Benson,
*Polynomial Invariants of Finite Groups*, 1993):

    dim (S^G)_d = (1/|G|) sum_g h_d(lambda_1(g), .., lambda_n(g)),

where the lambda_i(g) are the eigenvalues of g lifted to roots of unity of
order prime to p and h_d is the complete homogeneous symmetric polynomial.
``_invariant_counts(G, top)`` evaluates it in Z/p^k:

- Precision: k is the least with p^k > C(n + top - 1, n - 1), the number of
  degree-top monomials.  A count is a rank, at most that number, so its
  residue mod p^k is the count itself for every d <= top.
- Lift: g~ = g^E mod p^k with E = p^(k-1) (p^-(k-1) mod |G|).  Over the
  p-adic integers the integer matrix g is T U with T of finite order prime
  to p (T^|G| = I, eigenvalues the lifted lambda_i) and U = I mod p
  commuting with T.  E = 1 mod |G|, so g~ = g mod p and T^E = T, and the
  factor p^(k-1) kills U: U^(p^(k-1)) = I mod p^k.  So g~ = T mod p^k, and
  its characteristic polynomial mod p^k has the lifted eigenvalues as roots.
- Coefficients: e_1 .. e_n of g~ by Faddeev-LeVerrier on the integer
  matrix, every division exact over Z, reduced mod p^k (principal-minor
  sums would cost 2^n determinants, and n goes up to 16).  Then
  h_d = sum_{i <= min(n, d)} (-1)^(i-1) e_i h_(d-i) needs no division, and
  the count is |G|^-1 sum_classes |class| h_d mod p^k.
- Class key: the characteristic polynomial mod p.  Elements with the same
  key have the same eigenvalues, hence the same lifts and the same h_d, so
  one element per class is lifted.

The counts assume that ``G.elements`` is a group, as ``group_closure``
builds it: Molien's formula averages over a group, and for a set that is
not closed under products it counts nothing.  They are kept on the group in
one band that reaches |G|, the last degree ``noether_ideal`` can visit; the
lifts, not the band's length, are most of their cost.

The loop may stop at the count.  The Reynolds operator maps S_d onto
(S^G)_d, so the images of the degree-d monomials span it; once the pivot
rows number dim (S^G)_d, every later image lies in their span and would
reduce to zero, so the basis is the one the whole loop would build.  A
degree whose count is 0 pulls no image.  A degree that runs out of images
short of its count is an engine bug and raises ``InternalError``.

The invariant ideal nR is accumulated degree by degree and the loop stops at
the first degree d where the accumulated basis has Hilbert function 0
(``GroebnerBasis.hilbert_function``, read off the Hilbert-series numerator
of the leading-term ideal): every degree-d monomial is then a leading
monomial's multiple, and any higher-degree invariant lies in m^d, hence in
the accumulated ideal.  That degree is asserted to be at most |G| (Noether's
bound); crossing it can only mean an implementation bug or a modular leak,
so it is an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from operator import mul
from typing import Iterator, Optional, Sequence

from .errors import (
    InternalError,
    ModularCase,
    NoetherBoundViolated,
    PreconditionViolated,
    ResourceCap,
)
from .groebner import GroebnerBasis, buchberger
from .poly import Exponents, Polynomial, PolyRing, monomials_of_degree
from .scalar import prime_modulus

MAX_GROUP = 5000

Matrix = tuple[tuple[int, ...], ...]


def _normalize_matrix(p: int, m: Sequence[Sequence[int]], n: int) -> Matrix:
    if len(m) != n or any(len(row) != n for row in m):
        raise PreconditionViolated(f"group matrices must be {n}x{n}")
    return tuple(tuple(a % p for a in row) for row in m)


def _mat_mul(p: int, a: Matrix, b: Matrix) -> Matrix:
    columns = list(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) % p for col in columns]) for row in a])


def _mat_pow(q: int, a: Matrix, e: int) -> Matrix:
    """a^e mod q by squaring; a^0 is the identity."""
    n = len(a)
    result = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    while e:
        if e & 1:
            result = _mat_mul(q, result, a)
        e >>= 1
        if e:
            a = _mat_mul(q, a, a)
    return result


def _elementary(a: Matrix) -> list[int]:
    """e_1 .. e_n of an integer matrix's eigenvalues, by Faddeev-LeVerrier:
    with P_1 = A, c_k = -tr(P_k) / k and P_(k+1) = A (P_k + c_k I), the
    characteristic polynomial is sum_k c_k x^(n-k) and e_k = (-1)^k c_k.
    Every division is exact over Z; of P_n only the trace is needed."""
    n = len(a)
    trace_a = sum([a[i][i] for i in range(n)])
    product, trace = a, trace_a
    es = []
    for k in range(1, n + 1):
        c = -trace // k
        es.append(-c if k & 1 else c)
        if k == n:
            break
        columns = tuple(zip(*product))
        if k == n - 1:
            trace = sum([sum(map(mul, row, columns[i])) for i, row in enumerate(a)]) + c * trace_a
        else:
            product = [
                [sum(map(mul, row, col)) + c * x for col, x in zip(columns, row)] for row in a
            ]
            trace = sum([product[i][i] for i in range(n)])
    return es


@dataclass(frozen=True)
class MatrixGroup:
    p: int
    n: int
    elements: tuple[Matrix, ...]
    # dim (S^G)_d for d = 0, 1, ..: the band of Molien counts that
    # ``invariant_basis`` reads and widens when a degree passes it.
    _counts: list[int] = field(default_factory=list, init=False, repr=False, compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)


def _invariant_counts(G: MatrixGroup, top: int) -> list[int]:
    """dim (S^G)_d for d = 0 .. top by Molien's formula, evaluated in Z/p^k
    (see "Counting before computing" in the module docstring)."""
    p, n = G.p, G.n
    q = p
    while q <= comb(n + top - 1, n - 1):
        q *= p
    # One element and the size of each class of elements with the same
    # characteristic polynomial mod p.
    classes: dict[tuple[int, ...], list] = {}
    for g in G.elements:
        classes.setdefault(tuple([e % p for e in _elementary(g)]), [g, 0])[1] += 1
    exponent = q // p * pow(q // p, -1, G.order)
    totals = [0] * (top + 1)
    for g, size in classes.values():
        # h_d = sum_i (-1)^(i-1) e_i h_(d-i); signed[i - 1] = (-1)^(i-1) e_i.
        lifted = _elementary(_mat_pow(q, g, exponent))
        signed = [e if i & 1 else -e for i, e in enumerate(lifted, 1)]
        h = [1]
        for d in range(1, top + 1):
            h.append(sum(map(mul, signed, reversed(h[-n:]))) % q)
        totals = [t + size * x for t, x in zip(totals, h)]
    scale = pow(G.order, -1, q)
    return [t * scale % q for t in totals]


def group_closure(p: int, gens: Sequence[Sequence[Sequence[int]]]) -> MatrixGroup:
    """Breadth-first multiplicative closure of the generating matrices; a
    closure past ``MAX_GROUP`` elements, read at call time, raises ResourceCap."""
    p = prime_modulus(p)
    if not gens:
        raise PreconditionViolated("a group needs at least one generator")
    n = len(gens[0])
    mats = [_normalize_matrix(p, g, n) for g in gens]
    for m in mats:
        # e_n of the eigenvalues is det(m) over Z.
        if _elementary(m)[-1] % p == 0:
            raise PreconditionViolated(f"matrix {m} is singular over F_{p}")
    identity = tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in mats:
                b = _mat_mul(p, a, g)
                if b not in seen:
                    seen.add(b)
                    if len(seen) > MAX_GROUP:
                        raise ResourceCap(f"group order exceeds cap {MAX_GROUP}")
                    nxt.append(b)
        frontier = nxt
    if gcd(len(seen), p) != 1:
        raise ModularCase(
            f"group order {len(seen)} is divisible by the characteristic {p}"
        )
    return MatrixGroup(p, n, tuple(sorted(seen)))


def _orbit_sums(
    ring: PolyRing, G: MatrixGroup, d: int, rows: Sequence[Sequence[tuple[Exponents, int]]]
) -> Iterator[dict[int, int]]:
    """Reynolds images of degree-d forms by Kronecker substitution.

    Each row is a form given as (exponents, coefficient) pairs, every
    exponent vector of degree d and every coefficient in [0, p); each image
    comes out as a term dict for ``ring._from_dict``.  The packed powers of
    every element's variable images are built once per call and shared by
    all rows (see the module docstring for the packing and its slot width).
    """
    if d > ring.max_degree:
        raise ring._too_wide()
    n, p = ring.n, ring.p
    weight = max((sum(c for _, c in row) for row in rows), default=0)
    slot = ((G.order * weight * (n * (p - 1)) ** d).bit_length() + 7) // 8
    base = d + 1
    shifts = [0] + [8 * slot * base ** (i - 1) for i in range(1, n)]
    # columns[j][k][g]: the packed k-th power of x_j's image under the g-th
    # element.  Elements that share a column share its powers.
    columns = []
    for j in range(n):
        chains: dict[tuple[int, ...], list[int]] = {}
        per_element = []
        for m in G.elements:
            image = tuple(m[i][j] for i in range(n))
            if image not in chains:
                packed = sum(a << s for a, s in zip(image, shifts))
                chain = [1]
                for _ in range(d):
                    chain.append(chain[-1] * packed)
                chains[image] = chain
            per_element.append(chains[image])
        columns.append(list(zip(*per_element)))
    # Byte offset of each degree-d monomial's slot: x_0 is set to 1, and
    # x_i (i >= 1) counts base^(i-1) slots.
    degree_d = monomials_of_degree(n, d)
    offsets = [slot * sum(a * base ** (i - 1) for i, a in enumerate(e) if i) for e in degree_d]
    monos = [ring.pack(e) for e in degree_d]
    size = slot * base ** (n - 1)
    scale = pow(G.order % p, -1, p)
    from_bytes = int.from_bytes
    for row in rows:
        total = 0
        for e, c in row:
            products = columns[0][e[0]]
            for j in range(1, n):
                products = map(mul, products, columns[j][e[j]])
            total += c * sum(products)
        packed = total.to_bytes(size, "little")
        coefficients = [from_bytes(packed[o : o + slot], "little") % p for o in offsets]
        yield {m: c * scale % p for m, c in zip(monos, coefficients) if c}


def reynolds(f: Polynomial, G: MatrixGroup) -> Polynomial:
    """(1/|G|) sum of the orbit of f; an idempotent projection onto invariants.

    Each homogeneous component of f is one row of ``_orbit_sums``.
    """
    ring = f.ring
    if ring.p != G.p or ring.n != G.n:
        raise PreconditionViolated("polynomial and group live over different spaces")
    components: dict[int, list[tuple[Exponents, int]]] = {}
    for m, c in f.terms:
        components.setdefault(ring.degree(m), []).append((ring.unpack(m), c))
    acc: dict[int, int] = {}
    for d, row in components.items():
        (image,) = _orbit_sums(ring, G, d, [row])
        acc.update(image)
    return ring._from_dict(acc)


def invariant_basis(ring: PolyRing, G: MatrixGroup, d: int) -> list[Polynomial]:
    """Basis of the degree-d invariants: Reynolds images, row-reduced.

    Rows are reduced against each other in descending monomial order, so the
    output is deterministic and each basis element has a distinct leading
    monomial.  The images of the degree-d monomials come from one
    ``_orbit_sums`` call, each reduced as a term dict, and are pulled only
    until the rows number the Molien count (see "Counting before computing"
    in the module docstring).
    """
    if ring.p != G.p or ring.n != G.n:
        raise PreconditionViolated("ring and group live over different spaces")
    if d < 1:
        raise PreconditionViolated("degree must be >= 1")
    if d > ring.max_degree:
        # _orbit_sums's width check, made before a degree is skipped.
        raise ring._too_wide()
    if len(G._counts) <= d:
        # The band reaches |G|, the last degree noether_ideal can visit; only
        # a direct call past it widens the band, to d.
        G._counts[:] = _invariant_counts(G, max(d, G.order))
    count = G._counts[d]
    if not count:
        return []
    p, key = ring.p, ring.key
    # Monic pivot rows as term dicts, keyed by their leading monomials.
    pivots: dict[int, dict[int, int]] = {}
    rows = [[(e, 1)] for e in monomials_of_degree(ring.n, d)]
    for acc in _orbit_sums(ring, G, d, rows):
        while acc:
            lead = max(acc, key=key)
            holder = pivots.get(lead)
            if holder is None:
                scale = pow(acc[lead], -1, p)
                pivots[lead] = {m: c * scale % p for m, c in acc.items()}
                break
            c = acc[lead]
            for m, a in holder.items():
                value = (acc.get(m, 0) - c * a) % p
                if value:
                    acc[m] = value
                else:
                    del acc[m]
        if len(pivots) == count:
            break
    else:
        raise InternalError(
            f"degree {d}: the Reynolds images span {len(pivots)} of the "
            f"{count} invariants that Molien's formula counts"
        )
    return [ring._from_dict(pivots[k]) for k in sorted(pivots, key=key, reverse=True)]


@dataclass
class InvariantIdealResult:
    group_order: int
    generators: list[Polynomial]
    d_stop: int
    colength: int
    e_hk: Fraction


def noether_ideal(ring: PolyRing, G: MatrixGroup) -> InvariantIdealResult:
    """The ideal of R generated by all positive-degree invariants.

    Accumulates invariant_basis degree by degree; stops at the first degree
    d where the accumulated basis has ``hilbert_function(d) == 0``.  nR is
    homogeneous, so its standard monomials of degree d span (S/nR)_d, and
    that test says (S/nR)_d = 0, i.e. every degree-d monomial reduces to
    zero.  The stop degree may not exceed |G|.
    """
    if ring.p != G.p or ring.n != G.n:
        raise PreconditionViolated("ring and group live over different spaces")
    gens: list[Polynomial] = []
    basis: Optional[GroebnerBasis] = None
    for d in range(1, G.order + 1):
        layer = invariant_basis(ring, G, d)
        if layer:
            gens.extend(layer)
            # The reduced basis of the degrees below generates what gens did.
            basis = buchberger(ring, (basis.basis if basis is not None else ()) + tuple(layer))
        if basis is not None and basis.hilbert_function(d) == 0:
            colength = basis.colength()
            return InvariantIdealResult(
                group_order=G.order,
                generators=gens,
                d_stop=d,
                colength=colength,
                e_hk=Fraction(colength, G.order),
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
    bound = Fraction(comb(n - 1 + g, n), g)
    if n == 2:
        return MultiplicityBound(bound, Fraction(g + 1, 2), g + 1)
    return MultiplicityBound(bound, None, None)
