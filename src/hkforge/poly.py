"""Multivariate polynomials over F_p with pluggable monomial orders.

A polynomial is an immutable, canonically sorted list of
(exponent tuple, nonzero int coefficient) terms.  Coefficients are plain
ints reduced mod p; the ring object owns the field and the active order.
Frobenius powers, linear substitution and partial derivatives live here
because they are term-level rewrites.

Arithmetic that combines many terms collects them in one
``dict[exponents -> coefficient]`` and sorts once, in ``PolyRing._from_dict``,
when the result is built; no intermediate ``Polynomial`` is made.  Products
and linear substitution share one dict-multiply loop (``_mul_into``), and
``MonomialOrder.heap_key`` lets a reduction keep its terms in a min-heap
whose top is the greatest monomial (see ``groebner.normal_form``).
"""

from __future__ import annotations

from operator import add, le, neg
from typing import Iterable, Sequence

from .errors import NotAPowerOfP, PreconditionViolated, ResourceCap, RingMismatch
from .scalar import PrimeField

MAX_VARS = 16
# Bracket exponents are capped at p^6: beyond desk scale, and exponent
# vectors stay small enough to print and count.
MAX_BRACKET_LEVEL = 6

Exponents = tuple[int, ...]


def _grevlex_key(e: Exponents):
    return (sum(e), tuple(map(neg, reversed(e))))


def _grevlex_heap_key(e: Exponents):
    return (-sum(e), e[::-1])


class MonomialOrder:
    """Total multiplicative monomial order: lex, grevlex or elim(k).

    elim(k) compares the first k exponents by grevlex and breaks ties by
    grevlex on the rest, so the first k variables dominate (elimination
    block).
    """

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int = 0):
        if kind not in ("lex", "grevlex", "elim"):
            raise PreconditionViolated(f"unknown monomial order {kind!r}")
        if kind == "elim" and block < 1:
            raise PreconditionViolated("elim order needs a positive block size")
        self.kind = kind
        self.block = block if kind == "elim" else 0

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls("lex")

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls("grevlex")

    @classmethod
    def elim(cls, block: int) -> "MonomialOrder":
        return cls("elim", block)

    @classmethod
    def parse(cls, text: str) -> "MonomialOrder":
        text = text.strip()
        if text == "lex":
            return cls.lex()
        if text == "grevlex":
            return cls.grevlex()
        if text.startswith("elim(") and text.endswith(")"):
            return cls.elim(int(text[5:-1]))
        raise PreconditionViolated(f"unknown monomial order {text!r}")

    @property
    def name(self) -> str:
        return f"elim({self.block})" if self.kind == "elim" else self.kind

    def key(self, e: Exponents):
        """Sort key: greater key means greater monomial."""
        if self.kind == "grevlex":
            return _grevlex_key(e)
        if self.kind == "lex":
            return e
        k = self.block
        return (_grevlex_key(e[:k]), _grevlex_key(e[k:]))

    def heap_key(self, e: Exponents):
        """Negated sort key: a smaller heap_key means a greater monomial, so
        the top of a ``heapq`` min-heap is the leading term."""
        if self.kind == "grevlex":
            return _grevlex_heap_key(e)
        if self.kind == "lex":
            return tuple(map(neg, e))
        k = self.block
        return (_grevlex_heap_key(e[:k]), _grevlex_heap_key(e[k:]))

    def compare(self, a: Exponents, b: Exponents) -> int:
        if len(a) != len(b):
            raise RingMismatch("exponent vectors of different lengths")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        return f"MonomialOrder({self.name})"


def exponents_divide(a: Exponents, b: Exponents) -> bool:
    """True when monomial a divides monomial b componentwise."""
    return all(map(le, a, b))


def exponents_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def exponents_sub(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def _mul_into(acc: dict, a, b, p: int) -> dict:
    """Add the product of two term sequences into acc, coefficients mod p.

    The one multiply loop behind ``Polynomial.__mul__`` and linear
    substitution.  Zero coefficients may stay in acc; ``_from_dict`` drops
    them.
    """
    get = acc.get
    for ea, ca in a:
        for eb, cb in b:
            e = tuple(map(add, ea, eb))
            acc[e] = (get(e, 0) + ca * cb) % p
    return acc


def monomials_of_degree(nvars: int, degree: int) -> list[Exponents]:
    """All exponent tuples of the given total degree, first variable heaviest."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for head in range(degree, -1, -1):
        for tail in monomials_of_degree(nvars - 1, degree - head):
            out.append((head,) + tail)
    return out


class PolyRing:
    """F_p[x_1..x_n] together with the active monomial order."""

    __slots__ = ("field", "names", "order", "n", "_zero_exps")

    def __init__(self, p: int | PrimeField, names: Sequence[str], order: MonomialOrder | None = None):
        self.field = p if isinstance(p, PrimeField) else PrimeField(p)
        names = tuple(names)
        if not names:
            raise PreconditionViolated("a ring needs at least one variable")
        if len(names) > MAX_VARS:
            raise PreconditionViolated(f"more than {MAX_VARS} variables")
        if len(set(names)) != len(names):
            raise PreconditionViolated("duplicate variable names")
        self.names = names
        self.order = order if order is not None else MonomialOrder.grevlex()
        self.n = len(names)
        self._zero_exps = (0,) * self.n

    @property
    def p(self) -> int:
        return self.field.p

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.field.p, self.names, self.order))

    def __repr__(self):
        return f"F_{self.p}[{','.join(self.names)}] ({self.order.name})"

    def signature(self):
        return (self.p, self.names, self.order.name)

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        if order == self.order:
            return self
        return PolyRing(self.field, self.names, order)

    def check_same(self, other: "PolyRing"):
        if self != other:
            raise RingMismatch(f"{self!r} vs {other!r}")

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, ((self._zero_exps, c),))

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.n:
            raise PreconditionViolated(f"variable index {i} out of range")
        e = tuple(1 if j == i else 0 for j in range(self.n))
        return Polynomial(self, ((e, 1),))

    def monomial(self, exps: Exponents, coeff: int = 1) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.n or any(x < 0 for x in exps):
            raise RingMismatch(f"bad exponent vector {exps} for {self!r}")
        coeff %= self.p
        if coeff == 0:
            return self.zero()
        return Polynomial(self, ((exps, coeff),))

    def from_terms(self, terms: Iterable[tuple[Exponents, int]]) -> "Polynomial":
        """Canonicalize arbitrary (exponents, coefficient) pairs."""
        acc: dict[Exponents, int] = {}
        p = self.p
        for exps, c in terms:
            exps = tuple(exps)
            if len(exps) != self.n or any(x < 0 for x in exps):
                raise RingMismatch(f"bad exponent vector {exps} for {self!r}")
            acc[exps] = (acc.get(exps, 0) + c) % p
        return self._from_dict(acc)

    def _from_dict(self, acc: dict[Exponents, int]) -> "Polynomial":
        key = self.order.key
        items = tuple(
            (e, c) for e, c in sorted(acc.items(), key=lambda t: key(t[0]), reverse=True) if c
        )
        return Polynomial(self, items)

    def linear_powers(self, matrix: Sequence[Sequence[int]], degree: int) -> list[list[tuple]]:
        """Powers of the images of the variables under x_j -> sum_i M[i][j] x_i.

        ``table[j][k]`` holds the terms of (sum_i M[i][j] x_i)^k for
        0 <= k <= degree.  Build it once per matrix and degree and hand it to
        ``Polynomial.substitute_into`` for every polynomial of degree at most
        ``degree``.
        """
        n = self.n
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise RingMismatch(f"substitution matrix must be {n}x{n}")
        p = self.p
        units = [self.variable(i).terms[0][0] for i in range(n)]
        one = ((self._zero_exps, 1),)
        table = []
        for j in range(n):
            image = tuple(
                (units[i], matrix[i][j] % p) for i in range(n) if matrix[i][j] % p
            )
            powers = [one]
            for _ in range(degree):
                powers.append(
                    tuple((e, c) for e, c in _mul_into({}, powers[-1], image, p).items() if c)
                )
            table.append(powers)
        return table

    def convert(self, f: "Polynomial") -> "Polynomial":
        """Re-sort a polynomial from a ring that differs only in its order."""
        if f.ring.field != self.field or f.ring.names != self.names:
            raise RingMismatch(f"{f.ring!r} vs {self!r}")
        if f.ring.order == self.order:
            return f
        return self._from_dict(dict(f.terms))

    def bracket_level(self, q: int) -> int:
        """Validate q = p^n and return n; enforces the p^6 cap."""
        if q < 1:
            raise NotAPowerOfP(f"{q} is not a power of {self.p}")
        n = 0
        t = q
        while t > 1:
            if t % self.p:
                raise NotAPowerOfP(f"{q} is not a power of {self.p}")
            t //= self.p
            n += 1
        if n > MAX_BRACKET_LEVEL:
            raise ResourceCap(f"bracket exponent {q} exceeds p^{MAX_BRACKET_LEVEL}")
        return n


class Polynomial:
    """Immutable canonical polynomial; do not call directly, use a PolyRing."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: tuple[tuple[Exponents, int], ...]):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or self.terms[0][0] == self.ring._zero_exps

    def leading_exponents(self) -> Exponents:
        if not self.terms:
            raise PreconditionViolated("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self) -> int:
        if not self.terms:
            raise PreconditionViolated("zero polynomial has no leading term")
        return self.terms[0][1]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def constant_term(self) -> int:
        for e, c in self.terms:
            if e == self.ring._zero_exps:
                return c
        return 0

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        p = self.ring.p
        for e, c in other.terms:
            acc[e] = (acc.get(e, 0) + c) % p
        return self.ring._from_dict(acc)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, tuple((e, p - c) for e, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if c == 0:
                return self.ring.zero()
            p = self.ring.p
            return Polynomial(self.ring, tuple((e, a * c % p) for e, a in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return self.ring._from_dict(_mul_into({}, self.terms, other.terms, self.ring.p))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise PreconditionViolated("negative polynomial power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        inv = self.ring.field.inv(lc)
        return self * inv

    def multiply_monomial(self, exps: Exponents, coeff: int) -> "Polynomial":
        """Fast multiply by coeff * x^exps; stays sorted, no re-sort needed."""
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(
            self.ring,
            tuple((tuple(map(add, e, exps)), c * coeff % p) for e, c in self.terms),
        )

    # -- characteristic-p and calculus rewrites ------------------------------

    def frobenius_power(self, q: int) -> "Polynomial":
        """f^q for q = p^n: exponents scale by q, coefficients go to c^q."""
        self.ring.bracket_level(q)
        field = self.ring.field
        return Polynomial(
            self.ring,
            tuple(
                (tuple(x * q for x in e), field.pow(c, q)) for e, c in self.terms
            ),
        )

    def substitute_linear(self, matrix: Sequence[Sequence[int]]) -> "Polynomial":
        """Image under x_j -> sum_i M[i][j] x_i (column action)."""
        table = self.ring.linear_powers(matrix, max(self.total_degree(), 0))
        return self.ring._from_dict(self.substitute_into({}, table))

    def substitute_into(self, acc: dict, table: list[list[tuple]]) -> dict:
        """Add the image of self under a linear substitution into the term
        dict acc and return acc; table comes from ``PolyRing.linear_powers``
        with a degree of at least deg self."""
        p = self.ring.p
        one = ((self.ring._zero_exps, 1),)
        for e, c in self.terms:
            factors = [table[j][k] for j, k in enumerate(e) if k] or [one]
            part = ((self.ring._zero_exps, c),)
            for factor in factors[:-1]:
                part = tuple(_mul_into({}, part, factor, p).items())
            _mul_into(acc, part, factors[-1], p)
        return acc

    def partial_derivative(self, i: int) -> "Polynomial":
        if not 0 <= i < self.ring.n:
            raise PreconditionViolated(f"variable index {i} out of range")
        p = self.ring.p
        acc: dict[Exponents, int] = {}
        for e, c in self.terms:
            if e[i] == 0:
                continue
            coeff = c * e[i] % p
            if coeff == 0:
                continue
            e2 = e[:i] + (e[i] - 1,) + e[i + 1 :]
            acc[e2] = (acc.get(e2, 0) + coeff) % p
        return self.ring._from_dict(acc)

    # -- identity and rendering ----------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring.signature(), self.terms))
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for e, c in self.terms:
            factors = []
            for name, exp in zip(names, e):
                if exp == 1:
                    factors.append(name)
                elif exp > 1:
                    factors.append(f"{name}^{exp}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over F_{self.ring.p}>"
