"""Exact arithmetic: prime fields F_p and arbitrary-precision rationals.

A field is its modulus p, a plain int: elements are ints in [0, p), callers
reduce sums and products with ``% p``, and inverses and powers are the
builtin ``pow``.  Rationals are `fractions.Fraction`, which already keeps
the canonical reduced form with a positive denominator.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import PreconditionViolated, ResourceCap

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


def prime_modulus(p: int) -> int:
    """p itself when it is a prime below 2^31; PreconditionViolated otherwise."""
    if not isinstance(p, int) or not is_prime(p):
        raise PreconditionViolated(f"modulus {p!r} is not prime")
    if p >= MAX_MODULUS:
        raise PreconditionViolated(f"modulus {p} exceeds 2^31")
    return p


def render_rational(q: Fraction) -> str:
    """Fixed "num/den" rendering used by every serializer; ResourceCap when a
    part has more digits than Python converts to a string."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise digit_limit_exceeded() from None


def digit_limit_exceeded() -> ResourceCap:
    limit = sys.get_int_max_str_digits()
    return ResourceCap(f"rational exceeds the {limit}-digit limit for printing")
