"""Exact arithmetic: prime fields F_p and arbitrary-precision rationals.

Field elements are plain integers in [0, p); the `PrimeField` object owns
the modulus, inverses and powers, and callers reduce sums and products with
``% p``.  Rationals are `fractions.Fraction`, which already keeps the
canonical reduced form with a positive denominator.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisionByZero, PreconditionViolated

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
        """Multiplicative inverse by the extended Euclidean algorithm."""
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in F_{self.p}")
        # Invariant: r = s*a (mod p) for both tracked pairs.
        r0, r1 = self.p, a
        s0, s1 = 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        return s0 % self.p

    def pow(self, a: int, e: int) -> int:
        """a**e by square-and-multiply; negative e inverts first."""
        a %= self.p
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = result * base % self.p
            base = base * base % self.p
            e >>= 1
        return result


def rational(num: int, den: int = 1) -> Fraction:
    """Canonical reduced rational with positive denominator."""
    if den == 0:
        raise DivisionByZero("rational with zero denominator")
    return Fraction(num, den)


def render_rational(q: Fraction) -> str:
    """Fixed "num/den" rendering used by every serializer."""
    return f"{q.numerator}/{q.denominator}"
