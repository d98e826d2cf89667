import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hkforge.errors import ParseError, UnknownVariable
from hkforge.parsing import parse_polynomial
from hkforge.poly import PolyRing


@pytest.fixture
def ring():
    return PolyRing(5, ("x", "y", "z"))


def random_polynomial(ring, rng):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 4) for _ in ring.names)
        terms[exps] = rng.randint(1, ring.p - 1)
    return ring.from_terms(terms.items())


def test_round_trip(ring):
    rng = random.Random(20240817)
    for _ in range(200):
        f = random_polynomial(ring, rng)
        assert parse_polynomial(str(f), ring) == f


def test_canonical_form(ring):
    f = parse_polynomial("x^2*y + 4*y^3", ring)
    assert str(f) == "x^2*y + 4*y^3"


def test_expression_power(ring):
    f = parse_polynomial("(x + y)^2", ring)
    x, y = ring.variable(0), ring.variable(1)
    assert f == x**2 + 2 * x * y + y**2


def test_whitespace_and_newlines(ring):
    a = parse_polynomial("x^2+  3*x*y\n+ z", ring)
    b = parse_polynomial("x^2 + 3*x*y + z", ring)
    assert a == b


def test_leading_minus(ring):
    f = parse_polynomial("-x + y", ring)
    assert f == ring.variable(1) - ring.variable(0)
    assert parse_polynomial("-3", ring) == ring.constant(2)


def test_constants_reduce_mod_p(ring):
    assert parse_polynomial("7", ring) == ring.constant(2)
    assert parse_polynomial("5*x", ring).is_zero()
    assert parse_polynomial("0", ring).is_zero()


def test_subtraction_chains(ring):
    x, y, z = (ring.variable(i) for i in range(3))
    assert parse_polynomial("x - y - z", ring) == x - y - z
    assert parse_polynomial("x - (y - z)", ring) == x - y + z


def test_nested_parens(ring):
    x, y = ring.variable(0), ring.variable(1)
    f = parse_polynomial("((x + y)^2 + 1)^2", ring)
    assert f == ((x + y) ** 2 + ring.one()) ** 2


def test_implicit_coefficient_products(ring):
    f = parse_polynomial("2*x*3*y", ring)
    assert f == ring.monomial((1, 1, 0), 6 % 5)


def test_unknown_variable(ring):
    with pytest.raises(UnknownVariable) as exc:
        parse_polynomial("x + w^2", ring)
    msg = str(exc.value)
    assert "w" in msg
    assert "line 1" in msg and "column 5" in msg


def test_syntax_error_positions(ring):
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x +", ring)
    assert "line 1" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x ^ y", ring)
    assert "column 5" in str(exc.value)
    with pytest.raises(ParseError):
        parse_polynomial("x + \n* y", ring)


def test_error_line_numbers_track_newlines(ring):
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x +\ny +\n$", ring)
    assert "line 3" in str(exc.value)


def test_trailing_garbage(ring):
    with pytest.raises(ParseError):
        parse_polynomial("x + y) ", ring)
    with pytest.raises(ParseError):
        parse_polynomial("x y", ring)


def test_empty_input(ring):
    with pytest.raises(ParseError):
        parse_polynomial("", ring)
    with pytest.raises(ParseError):
        parse_polynomial("   \n ", ring)


def test_unbalanced_parens(ring):
    with pytest.raises(ParseError):
        parse_polynomial("(x + y", ring)


def test_monomial_exponent_ceiling(ring):
    f = parse_polynomial("x^1000", ring)
    assert f.leading_exponents() == (1000, 0, 0)
    with pytest.raises(ParseError):
        parse_polynomial("x^1000001", ring)


def test_expression_exponent_ceiling(ring):
    parse_polynomial("(x + y)^10", ring)
    with pytest.raises(ParseError):
        parse_polynomial("(x + y)^513", ring)
    # a parenthesized single term still counts as a plain monomial
    f = parse_polynomial("(x)^600", ring)
    assert f.leading_exponents() == (600, 0, 0)


def test_negative_exponent_rejected(ring):
    with pytest.raises(ParseError):
        parse_polynomial("x^-2", ring)


def test_unicode_digits_that_int_accepts_parse(ring):
    x = ring.variable(0)
    assert parse_polynomial("x^٣", ring) == x**3
    assert parse_polynomial("３*x", ring) == 3 * x


MIXED_ALPHABET = "0123456789٣３²xyzé_+-*^()  \t\n"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=MIXED_ALPHABET, max_size=24))
def test_malformed_input_raises_only_parse_errors(text):
    ring = PolyRing(5, ("x", "y", "z"))
    try:
        parse_polynomial(text, ring)
    except ParseError:
        pass
