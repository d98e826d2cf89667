"""Exact arithmetic: prime fields F_p and arbitrary-precision rationals.

Field elements are plain integers in [0, p); the `PrimeField` object owns
the modulus, inverses and powers, and callers reduce sums and products with
``% p``.  Rationals are `fractions.Fraction`, which already keeps the
canonical reduced form with a positive denominator.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import DivisionByZero, PreconditionViolated, ResourceCap

MAX_MODULUS = 2**31


def is_prime(n: int) -> bool:
    """Trial-division primality test; exact for every n we accept."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field F_p.  Member values are ints reduced into [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise PreconditionViolated(f"modulus {p!r} is not prime")
        if p >= MAX_MODULUS:
            raise PreconditionViolated(f"modulus {p} exceeds 2^31")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"F_{self.p}"

    def normalize(self, a: int) -> int:
        return a % self.p

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        """a**e in F_p; a negative e needs a nonzero base."""
        if e < 0 and a % self.p == 0:
            raise DivisionByZero(f"inverse of 0 in F_{self.p}")
        return pow(a, e, self.p)


def rational(num: int, den: int = 1) -> Fraction:
    """Canonical reduced rational with positive denominator."""
    if den == 0:
        raise DivisionByZero("rational with zero denominator")
    return Fraction(num, den)


def render_rational(q: Fraction) -> str:
    """Fixed "num/den" rendering used by every serializer; ResourceCap when a
    part has more digits than Python converts to a string."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceCap(f"rational exceeds the {limit}-digit limit for printing") from None
