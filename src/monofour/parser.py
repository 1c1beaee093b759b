"""Text grammar for operator expressions.

Atoms `x`, `dx` (differential algebra) and `s`, `T`, `Ti` (shift
algebra), integer and `a/b` rational literals, the operators
`+ - * ^`, and parentheses; whitespace is insignificant.  At rank d
the differential atoms `x1`...`xd` and `dx1`...`dxd` name the
coordinates, and bare `x`, `dx` mean coordinate 1.  Parsing
produces normalized operators, so parse -> print -> parse is the
identity on normal forms.  Errors carry the 0-based character offset
where the problem was found.
"""

from __future__ import annotations

from fractions import Fraction

from .ore import ShiftOp, WeylOp

WEYL_ATOMS = ("x", "dx")
SHIFT_ATOMS = ("s", "T", "Ti")
ALGEBRAS = ("weyl", "shift")


class OperatorSyntaxError(ValueError):
    """Malformed expression; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnknownAtomError(OperatorSyntaxError):
    """A name that is not an atom of the requested algebra."""


class _Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind, value, position):
        self.kind = kind
        self.value = value
        self.position = position


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise OperatorSyntaxError("expected digits after '/'", j + 1)
                den = int(text[j + 1 : k])
                if not den:
                    raise OperatorSyntaxError("zero denominator", j + 1)
                tokens.append(_Token("number", Fraction(int(text[i:j]), den), i))
                i = k
            else:
                tokens.append(_Token("number", Fraction(int(text[i:j])), i))
                i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise OperatorSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, algebra: str, rank: int):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.rank = rank

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise OperatorSyntaxError(f"expected {kind!r}", tok.position)
        return self.advance()

    # expr := term { (+|-) term }
    def expr(self):
        acc = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            acc = acc + rhs if op.kind == "+" else acc - rhs
        return acc

    # term := factor { '*' factor }
    def term(self):
        acc = self.factor()
        while self.peek().kind == "*":
            self.advance()
            acc = acc * self.factor()
        return acc

    # factor := '-' factor | primary [ '^' integer ]
    def factor(self):
        if self.peek().kind == "-":
            self.advance()
            return -self.factor()
        base = self.primary()
        while self.peek().kind == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "number" or tok.value.denominator != 1 or tok.value < 0:
                raise OperatorSyntaxError(
                    "exponent must be a nonnegative integer", tok.position
                )
            self.advance()
            base = base ** int(tok.value)
        return base

    def primary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return self.scalar(tok.value)
        if tok.kind == "name":
            self.advance()
            return self.atom(tok)
        if tok.kind == "(":
            self.advance()
            inner = self.expr()
            self.expect(")")
            return inner
        raise OperatorSyntaxError("expected an atom, literal, or '('", tok.position)

    def scalar(self, value: Fraction):
        if self.algebra == "weyl":
            return WeylOp.const(value, self.rank)
        return ShiftOp.t_power(0, value)

    def atom(self, tok: _Token):
        name = tok.value
        if self.algebra == "weyl":
            base = name.rstrip("0123456789")
            if base in WEYL_ATOMS:
                i = int(name[len(base):] or 1)
                if not 1 <= i <= self.rank:
                    raise UnknownAtomError(
                        f"atom {name!r} names coordinate {i}, outside 1..{self.rank}",
                        tok.position,
                    )
                make = WeylOp.x if base == "x" else WeylOp.dx
                return make(i - 1, self.rank)
            if name in SHIFT_ATOMS:
                raise UnknownAtomError(
                    f"atom {name!r} belongs to the shift algebra, not weyl",
                    tok.position,
                )
        else:
            if name == "s":
                return ShiftOp.s()
            if name == "T":
                return ShiftOp.t_power(1)
            if name == "Ti":
                return ShiftOp.t_power(-1)
            if name in WEYL_ATOMS:
                raise UnknownAtomError(
                    f"atom {name!r} belongs to the weyl algebra, not shift",
                    tok.position,
                )
        raise UnknownAtomError(f"unknown atom {name!r}", tok.position)


def parse_operator(text: str, algebra: str, rank: int = 1):
    """Parse an expression into a normalized operator of the given algebra."""
    if algebra not in ALGEBRAS:
        raise ValueError(f"algebra must be one of {ALGEBRAS}")
    if rank < 1:
        raise ValueError("rank must be positive")
    if algebra == "shift" and rank != 1:
        raise ValueError("the shift algebra has no higher-rank form")
    parser = _Parser(_tokenize(text), algebra, rank)
    result = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise OperatorSyntaxError(
            f"unexpected trailing {trailing.kind!r}", trailing.position
        )
    return result
