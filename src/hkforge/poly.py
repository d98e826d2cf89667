"""Multivariate polynomials over F_p with pluggable monomial orders.

A polynomial is an immutable, canonically sorted tuple of
(monomial, nonzero int coefficient) terms.  Coefficients are plain ints
reduced mod p; the ring owns the modulus p, the active order and the
packing of monomials.  Frobenius powers and partial derivatives live here
because they are term-level rewrites; linear substitution, the reference
group action, is plain polynomial arithmetic.

Packed monomials
----------------
A monomial is one Python int, packed by its ring (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007).  It holds one field per variable plus one degree
field per block of the order, and each field is ``width`` bits whose top
bit is a guard bit that a valid monomial keeps 0.  From the least
significant field up, the order picks the layout:

- lex: the total degree, then x_n, ..., x_1;
- grevlex: x_1, ..., x_n, then the total degree;
- elim(k): x_{k+1}, ..., x_n and their degree, then x_1, ..., x_k and theirs.

A degree field is a monomial's degree in its block, so every field adds
under multiplication and the kernels work on whole ints:

- the product of two monomials is ``a + b``;
- a divides b exactly when ``(b - a) & ring.guard`` is 0, and then the
  exponent difference is ``b - a``;
- ``ring.lcm`` is the fieldwise maximum (one masked select) with the degree
  fields recounted by one multiplication each;
- ``ring.key(m)``, m XOR a mask, sorts like ``MonomialOrder.key``: it
  complements the variable fields of the graded blocks, so integer
  comparison is the order.  ``ring.heap_key(m) = m ^ ring.heap_flip``
  complements the other fields, so the least heap key is the greatest
  monomial, and the same XOR maps a heap key back to its monomial.

Width rule: a field holds ``(p**MAX_BRACKET_LEVEL).bit_length() + 32`` value
bits, so a block degree up to ``ring.max_degree``, 2^32 times the largest
bracket power, fits: 46 bits at p = 5, 218 at p = 2^31 - 1.  The width is
fixed when the ring is made.  A monomial whose block degree does not fit is
too wide for the ring and raises ``ResourceCap`` (exit 4) wherever one can
arise: packing a tuple, a product (checked once per ``multiply_monomial``,
reduction step or polynomial product against the other factor's ``span``),
an lcm or a Frobenius power.

Tuples remain only at the boundaries: ``pack``/``from_terms``/``monomial``
take them, ``unpack``/``exponent_terms``/``leading_exponents`` and printing
give them back, ``MonomialOrder.key`` defines the orders on them, and the
staircase count (``groebner``'s sweep over the last variable) works on them.
The oracle reads ``exponent_terms`` and packs its columns itself, so that it
shares no packing with the engine it checks.  ``Ideal.intersect`` reuses
packed monomials as they are: ``elimination_ring`` lays S[t] out so that its
t-free monomials are grevlex S's.

Arithmetic that combines many terms collects them in one
``dict[monomial -> coefficient]`` and sorts once, in ``PolyRing._from_dict``,
when the result is built; no intermediate ``Polynomial`` is made.

A packed monomial holds one monomial; the Reynolds operator in
``invariants`` packs a whole polynomial into one int instead (Kronecker
substitution, slots of whole bytes), multiplies those ints, and hands the
decoded coefficients to ``_from_dict`` keyed by ``pack``ed monomials.
"""

from __future__ import annotations

from functools import reduce
from operator import neg
from typing import Iterable, Sequence

from .errors import NotAPowerOfP, PreconditionViolated, ResourceCap, RingMismatch
from .scalar import prime_modulus

MAX_VARS = 16
# Bracket exponents are capped at p^6: beyond desk scale, and exponent
# vectors stay small enough to print and count.
MAX_BRACKET_LEVEL = 6
# Value bits of a packed field beyond those of p^MAX_BRACKET_LEVEL.
_HEADROOM_BITS = 32

Exponents = tuple[int, ...]


def _grevlex_key(e: Exponents):
    return (sum(e), tuple(map(neg, reversed(e))))


class MonomialOrder:
    """Total multiplicative monomial order: lex, grevlex or elim(k).

    elim(k) compares the first k exponents by grevlex and breaks ties by
    grevlex on the rest, so the first k variables dominate (elimination
    block).  ``key`` is the definition on exponent tuples; a ring sorts its
    packed monomials by ``PolyRing.key``, which agrees with it.
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
            try:
                return cls.elim(int(text[5:-1]))
            except ValueError:
                pass  # a block that is not an integer names no order
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


def _layout_runs(order: MonomialOrder, n: int) -> list[tuple[list[int], bool]]:
    """The packed layout an order picks, from the least significant field
    up: runs of variable indices, each graded (variable fields complemented
    in the key, degree field above them) or not (lex: degree field below,
    nothing complemented)."""
    if order.kind == "lex":
        return [(list(range(n - 1, -1, -1)), False)]
    if order.kind == "grevlex":
        return [(list(range(n)), True)]
    k = min(order.block, n)
    return [(run, True) for run in (list(range(k, n)), list(range(k))) if run]


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
    """F_p[x_1..x_n] together with the active monomial order and the packing
    of its monomials (see the module docstring)."""

    __slots__ = (
        "p", "names", "order", "n",
        "width", "max_degree", "guard", "heap_flip",
        "_key_flip", "_shifts", "_field_shifts", "_units", "_blocks", "_elimination",
    )

    def __init__(self, p: int, names: Sequence[str], order: MonomialOrder | None = None):
        self.p = prime_modulus(p)
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
        self._lay_out()
        self._elimination = None

    def _lay_out(self):
        """Place the fields of the order's blocks and build the masks."""
        value_bits = (self.p**MAX_BRACKET_LEVEL).bit_length() + _HEADROOM_BITS
        w = self.width = value_bits + 1
        limit = self.max_degree = (1 << value_bits) - 1
        shifts = [0] * self.n
        field_shifts, units = [], [0] * self.n
        # Per block: its variables, the mask of their fields, the multiplier
        # that sums those fields into the field of the last one, the shift of
        # that field, and the shift of the block's degree field.
        blocks = []
        key_flip = 0
        for run, graded in _layout_runs(self.order, self.n):
            pos = len(field_shifts)
            first = pos if graded else pos + 1
            degree_shift = (first + len(run) if graded else pos) * w
            for i, v in enumerate(run):
                shifts[v] = (first + i) * w
                units[v] = (1 << shifts[v]) | (1 << degree_shift)
            var_mask = sum(limit << shifts[v] for v in run)
            if graded:
                key_flip |= var_mask
            ones = sum(1 << (j * w) for j in range(len(run)))
            top = (first + len(run) - 1) * w
            blocks.append((tuple(run), var_mask, ones, top, degree_shift))
            field_shifts += [(first + i) * w for i in range(len(run))] + [degree_shift]
        self._shifts = tuple(shifts)
        self._field_shifts = tuple(field_shifts)
        self._units = tuple(units)
        self._blocks = tuple(blocks)
        self.guard = sum(1 << (s + w - 1) for s in field_shifts)
        self._key_flip = key_flip
        self.heap_flip = sum(limit << s for s in field_shifts) ^ key_flip

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PolyRing)
            and self.p == other.p
            and self.names == other.names
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.p, self.names, self.order))

    def __repr__(self):
        return f"F_{self.p}[{','.join(self.names)}] ({self.order.name})"

    def signature(self):
        return (self.p, self.names, self.order.name)

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        if order == self.order:
            return self
        return PolyRing(self.p, self.names, order)

    def check_same(self, other: "PolyRing"):
        if self != other:
            raise RingMismatch(f"{self!r} vs {other!r}")

    def elimination_ring(self) -> "PolyRing":
        """S[t] under elim(1), t a fresh first variable; built once per ring.

        Its t-free monomials pack exactly as grevlex S packs them: the same
        width, with the x-block fields first.  A grevlex term list of S is
        therefore one of S[t] as it stands, t*m is m plus the packed t, and
        a t-free term list of S[t] is one of grevlex S.
        """
        if self._elimination is None:
            aux = "t"
            while aux in self.names:
                aux += "_"
            ext = PolyRing(self.p, (aux,) + self.names, MonomialOrder.elim(1))
            grevlex = self.with_order(MonomialOrder.grevlex())
            assert ext.width == grevlex.width and ext._units[1:] == grevlex._units
            self._elimination = ext
        return self._elimination

    # -- packed monomials -----------------------------------------------------

    def _too_wide(self) -> ResourceCap:
        return ResourceCap(
            f"exponent too wide for the {self.width - 1}-bit packed field of {self!r}"
        )

    def pack(self, exps: Iterable[int]) -> int:
        """The packed monomial of an exponent vector."""
        exps = tuple(exps)
        if len(exps) != self.n or any(x < 0 for x in exps):
            raise RingMismatch(f"bad exponent vector {exps} for {self!r}")
        m = 0
        for run, _, _, _, degree_shift in self._blocks:
            degree = sum(exps[v] for v in run)
            if degree > self.max_degree:
                raise self._too_wide()
            m |= degree << degree_shift
            for v in run:
                m |= exps[v] << self._shifts[v]
        return m

    def unpack(self, m: int) -> Exponents:
        """The exponent vector of a packed monomial."""
        limit = self.max_degree
        return tuple([(m >> s) & limit for s in self._shifts])

    def _fields(self, m: int) -> list[int]:
        """Every field of a packed monomial, degree fields included, read
        without the guard bits masked off."""
        mask = (1 << self.width) - 1
        return [(m >> s) & mask for s in self._field_shifts]

    def degree(self, m: int) -> int:
        """Total degree of a packed monomial: the sum of its degree fields."""
        limit = self.max_degree
        return sum((m >> block[4]) & limit for block in self._blocks)

    def key(self, m: int) -> int:
        """Sort key of a packed monomial: greater key, greater monomial."""
        return m ^ self._key_flip

    def heap_key(self, m: int) -> int:
        """Reversed sort key, so a min-heap pops the greatest monomial first;
        XOR with ``heap_flip`` again maps it back."""
        return m ^ self.heap_flip

    def divides(self, a: int, b: int) -> bool:
        return not (b - a) & self.guard

    def _field_max(self, a: int, b: int) -> int:
        """Fieldwise maximum, degree fields included, in one masked select."""
        w = self.width
        # A set guard bit in a - b marks a field where a is smaller (or equal
        # with a borrow from below, where either pick is right).
        pick_b = (((a - b) & self.guard) >> (w - 1)) * ((1 << w) - 1)
        return (a & ~pick_b) | (b & pick_b)

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum with the degree fields recounted; ResourceCap
        when a degree of the lcm does not fit its field."""
        field = (1 << self.width) - 1
        top = self._field_max(a, b)
        for _, var_mask, ones, shift, degree_shift in self._blocks:
            vars_only = top & var_mask
            count = (vars_only * ones >> shift) & field
            top = (top & ~(field << degree_shift)) | (count << degree_shift)
        if top & self.guard:
            raise self._too_wide()
        return top

    def check_product(self, a: int, b: int) -> None:
        """ResourceCap unless a + b fits; with b a ``span`` this vouches for
        every product of a with the terms spanned."""
        if (a + b) & self.guard:
            raise self._too_wide()

    # -- polynomials ----------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.p
        if c == 0:
            return self.zero()
        return Polynomial(self, ((0, c),))

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.n:
            raise PreconditionViolated(f"variable index {i} out of range")
        return Polynomial(self, ((self._units[i], 1),))

    def monomial(self, exps: Exponents, coeff: int = 1) -> "Polynomial":
        m = self.pack(exps)
        coeff %= self.p
        if coeff == 0:
            return self.zero()
        return Polynomial(self, ((m, coeff),))

    def from_terms(self, terms: Iterable[tuple[Exponents, int]]) -> "Polynomial":
        """Canonicalize arbitrary (exponents, coefficient) pairs."""
        acc: dict[int, int] = {}
        p = self.p
        for exps, c in terms:
            m = self.pack(exps)
            acc[m] = (acc.get(m, 0) + c) % p
        return self._from_dict(acc)

    def _from_dict(self, acc: dict[int, int]) -> "Polynomial":
        # The monomials with nonzero coefficients, sorted by the packed key.
        ordered = sorted(filter(acc.get, acc), key=self._key_flip.__xor__, reverse=True)
        return Polynomial(self, tuple([(m, acc[m]) for m in ordered]))

    def convert(self, f: "Polynomial") -> "Polynomial":
        """Re-sort a polynomial from a ring that differs only in its order."""
        if f.ring.p != self.p or f.ring.names != self.names:
            raise RingMismatch(f"{f.ring!r} vs {self!r}")
        if f.ring.order == self.order:
            return f
        return self.from_terms(f.exponent_terms())

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

    __slots__ = ("ring", "terms", "_hash", "_span")

    def __init__(self, ring: PolyRing, terms: tuple[tuple[int, int], ...]):
        self.ring = ring
        self.terms = terms
        self._hash = None
        self._span = None

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    def leading_monomial(self) -> int:
        if not self.terms:
            raise PreconditionViolated("zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_exponents(self) -> Exponents:
        return self.ring.unpack(self.leading_monomial())

    def leading_coefficient(self) -> int:
        if not self.terms:
            raise PreconditionViolated("zero polynomial has no leading term")
        return self.terms[0][1]

    def exponent_terms(self) -> tuple[tuple[Exponents, int], ...]:
        """The terms with exponent tuples in place of packed monomials."""
        unpack = self.ring.unpack
        return tuple((unpack(m), c) for m, c in self.terms)

    @property
    def span(self) -> int:
        """Fieldwise maximum of the packed monomials, degree fields included:
        ``ring.check_product(m, f.span)`` vouches for m times every term."""
        if self._span is None:
            self._span = reduce(self.ring._field_max, (m for m, _ in self.terms), 0)
        return self._span

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
        ring = self.ring
        ring.check_product(self.span, other.span)
        p = ring.p
        acc: dict[int, int] = {}
        get = acc.get
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = ea + eb
                acc[e] = (get(e, 0) + ca * cb) % p
        return ring._from_dict(acc)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise PreconditionViolated("negative polynomial power")
        if len(self.terms) == 1:
            # One term: its exponents scale by e, under frobenius_power's
            # width check.
            ((m, c),) = self.terms
            ring = self.ring
            if max(ring._fields(m)) * e > ring.max_degree:
                raise ring._too_wide()
            return Polynomial(ring, ((m * e, pow(c, e, ring.p)),))
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
        return self * pow(lc, -1, self.ring.p)

    def multiply_monomial(self, mono: int, coeff: int) -> "Polynomial":
        """Fast multiply by coeff times the packed monomial mono; stays
        sorted, no re-sort needed."""
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        self.ring.check_product(mono, self.span)
        return Polynomial(
            self.ring, tuple((m + mono, c * coeff % p) for m, c in self.terms)
        )

    # -- characteristic-p and calculus rewrites ------------------------------

    def frobenius_power(self, q: int) -> "Polynomial":
        """f^q for q = p^n: exponents scale by q, coefficients go to c^q."""
        ring = self.ring
        ring.bracket_level(q)
        if self.terms and max(ring._fields(self.span)) * q > ring.max_degree:
            raise ring._too_wide()
        p = ring.p
        return Polynomial(ring, tuple((m * q, pow(c, q, p)) for m, c in self.terms))

    def substitute_linear(self, matrix: Sequence[Sequence[int]]) -> "Polynomial":
        """Image under x_j -> sum_i M[i][j] x_i (column action): the sum of
        c * prod_j image_j^e_j over the terms, in plain polynomial arithmetic."""
        ring = self.ring
        n = ring.n
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise RingMismatch(f"substitution matrix must be {n}x{n}")
        images = [
            sum((ring.variable(i) * matrix[i][j] for i in range(n)), ring.zero())
            for j in range(n)
        ]
        result = ring.zero()
        for m, c in self.terms:
            part = ring.constant(c)
            for image, k in zip(images, ring.unpack(m)):
                if k:
                    part = part * image**k
            result = result + part
        return result

    def partial_derivative(self, i: int) -> "Polynomial":
        ring = self.ring
        if not 0 <= i < ring.n:
            raise PreconditionViolated(f"variable index {i} out of range")
        p = ring.p
        shift, unit, limit = ring._shifts[i], ring._units[i], ring.max_degree
        acc: dict[int, int] = {}
        for m, c in self.terms:
            coeff = c * ((m >> shift) & limit) % p
            if coeff:
                acc[m - unit] = coeff
        return ring._from_dict(acc)

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
        for e, c in self.exponent_terms():
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
