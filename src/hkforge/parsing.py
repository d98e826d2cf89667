"""Recursive-descent parser for polynomial expressions.

Grammar (whitespace insensitive, integers reduced mod p):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nonneg-integer)?
    atom   := integer | variable | '(' expr ')'

Powers apply to any atom, so "(x+y)^2" expands.  The renderer in poly emits
a subset of this grammar, so parse(render(f)) = f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UnknownVariable
from .poly import Polynomial, PolyRing

# Exponent ceilings: monomial powers are cheap, expanded expression powers
# are not, so the latter get a much smaller ceiling.
MAX_MONOMIAL_EXPONENT = 1_000_000
MAX_EXPRESSION_EXPONENT = 512


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.var_index = {name: i for i, name in enumerate(ring.names)}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def integer(self) -> int:
        """The value of the integer token under the cursor, consumed."""
        tok = self.expect("int")
        try:
            return int(tok.text)
        except ValueError:
            # Python's integer string-conversion limit (4300 digits by default).
            raise ParseError(f"integer of {len(tok.text)} digits is too long", tok.line, tok.col) from None

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.col,
            )
        return self.advance()

    def parse_expr(self) -> Polynomial:
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        result = self.parse_term()
        if negate:
            result = -result
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            result = result + rhs if op.kind == "+" else result - rhs
        return result

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Polynomial:
        base, is_atom_simple = self.parse_atom()
        if self.peek().kind != "^":
            return base
        caret = self.advance()
        exponent = self.integer()
        limit = MAX_MONOMIAL_EXPONENT if is_atom_simple else MAX_EXPRESSION_EXPONENT
        if exponent > limit:
            raise ParseError(f"exponent {exponent} exceeds limit {limit}", caret.line, caret.col)
        return base**exponent

    def parse_atom(self) -> tuple[Polynomial, bool]:
        """Returns (polynomial, single-term flag for the exponent ceiling)."""
        tok = self.peek()
        if tok.kind == "int":
            return self.ring.constant(self.integer()), True
        if tok.kind == "name":
            self.advance()
            index = self.var_index.get(tok.text)
            if index is None:
                raise UnknownVariable(f"unknown variable {tok.text!r}", tok.line, tok.col)
            return self.ring.variable(index), True
        if tok.kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner, len(inner.terms) <= 1
        raise ParseError(
            f"expected a factor, found {tok.text or 'end of input'!r}", tok.line, tok.col
        )


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    parser = _Parser(_tokenize(text), ring)
    try:
        result = parser.parse_expr()
    except RecursionError:
        tok = parser.peek()
        raise ParseError("parentheses nested too deeply", tok.line, tok.col) from None
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"trailing input starting at {end.text!r}", end.line, end.col)
    return result
