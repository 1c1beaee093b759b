"""Text grammar for operator expressions.

Atoms `x`, `dx` (differential algebra) and `s`, `T`, `Ti` (shift
algebra), integer and `a/b` rational literals, the operators
`+ - * ^`, and parentheses; whitespace is insignificant.  At rank d
the differential atoms `x1`...`xd` and `dx1`...`dxd` name the
coordinates, and bare `x`, `dx` mean coordinate 1.  An exponent is
any literal whose value is a nonnegative integer, so `x^4/2` is x^2.
Parsing produces normalized operators, so parse -> print -> parse is the
identity on normal forms.  Errors carry the 0-based character offset
where the problem was found.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .ore import ShiftOp, WeylOp
from .scalars.poly import UnsupportedInputError, at_least, at_most, one_of

WEYL_ATOMS = ("x", "dx")
SHIFT_ATOMS = ("s", "T", "Ti")
ALGEBRAS = ("weyl", "shift")


class OperatorSyntaxError(UnsupportedInputError):
    """Malformed expression; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class UnknownAtomError(OperatorSyntaxError):
    """A name that is not an atom of the requested algebra."""


def _tokenize(text: str) -> list[tuple]:
    """(kind, value, offset) triples ending with an "end" token.  A number
    is an int, or a Fraction when it is written a/b; digits are what
    `int()` reads (`str.isdecimal`), so `²` is an unexpected character;
    digits past the int-to-str digit limit are refused at their offset."""
    tokens = []
    append = tokens.append
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in "+-*^()":
            append((ch, ch, i))
            i += 1
        elif ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            try:
                num = int(text[i:j])
            except ValueError:
                raise OperatorSyntaxError(f"literal of {j - i} digits is too long", i) from None
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdecimal():
                    k += 1
                if k == j + 1:
                    raise OperatorSyntaxError("expected digits after '/'", j + 1)
                try:
                    den = int(text[j + 1 : k])
                except ValueError:
                    raise OperatorSyntaxError(
                        f"literal of {k - j - 1} digits is too long", j + 1) from None
                if not den:
                    raise OperatorSyntaxError("zero denominator", j + 1)
                append(("number", Fraction(num, den), i))
                i = k
            else:
                append(("number", num, i))
                i = j
        elif ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            append(("name", text[i:j], i))
            i = j
        else:
            raise OperatorSyntaxError(f"unexpected character {ch!r}", i)
    append(("end", None, n))
    return tokens


# The atoms are built once and shared: operators are immutable, and a
# product or sum never writes into its operands' terms.
_SHIFT_OPS = {"s": ShiftOp.s(), "T": ShiftOp.t_power(1), "Ti": ShiftOp.t_power(-1)}


@lru_cache(maxsize=256)
def _weyl_atom(base: str, i: int, rank: int) -> WeylOp:
    make = WeylOp.x if base == "x" else WeylOp.dx
    return make(i - 1, rank)


class _Parser:
    """Recursive descent over the tokens.  A subexpression without atoms
    stays an int or Fraction; it becomes an operator only where it meets
    one (through the operators' scalar arithmetic) or at the end."""

    def __init__(self, tokens, algebra: str, rank: int):
        self.tokens = tokens
        self.pos = 0
        self.weyl = algebra == "weyl"
        self.rank = rank

    def expect(self, kind: str) -> None:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise OperatorSyntaxError(f"expected {kind!r}", tok[2])
        self.pos += 1

    # expr := term { (+|-) term }
    def expr(self):
        acc = self.term()
        while True:
            kind = self.tokens[self.pos][0]
            if kind == "+":
                self.pos += 1
                acc = acc + self.term()
            elif kind == "-":
                self.pos += 1
                acc = acc - self.term()
            else:
                return acc

    # term := factor { '*' factor }
    def term(self):
        acc = self.factor()
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            acc = acc * self.factor()
        return acc

    # factor := '-' factor | primary [ '^' integer ]
    def factor(self):
        tokens = self.tokens
        if tokens[self.pos][0] == "-":
            self.pos += 1
            return -self.factor()
        base = self.primary()
        while tokens[self.pos][0] == "^":
            kind, value, position = tokens[self.pos + 1]
            # any literal whose value is a nonnegative integer, such as 4/2
            if kind != "number" or value.denominator != 1:
                raise OperatorSyntaxError(
                    "exponent must be a nonnegative integer", position
                )
            self.pos += 2
            base = base ** int(value)
        return base

    def primary(self):
        kind, value, position = self.tokens[self.pos]
        if kind == "number":
            self.pos += 1
            return value
        if kind == "name":
            self.pos += 1
            return self.atom(value, position)
        if kind == "(":
            self.pos += 1
            inner = self.expr()
            self.expect(")")
            return inner
        raise OperatorSyntaxError("expected an atom, literal, or '('", position)

    def atom(self, name: str, position: int):
        if self.weyl:
            base = name.rstrip("0123456789")
            if base in WEYL_ATOMS:
                i = int(name[len(base):] or 1)
                if not 1 <= i <= self.rank:
                    raise UnknownAtomError(
                        f"atom {name!r} names coordinate {i}, outside 1..{self.rank}",
                        position,
                    )
                return _weyl_atom(base, i, self.rank)
            if name in SHIFT_ATOMS:
                raise UnknownAtomError(
                    f"atom {name!r} belongs to the shift algebra, not weyl", position
                )
        else:
            op = _SHIFT_OPS.get(name)
            if op is not None:
                return op
            if name in WEYL_ATOMS:
                raise UnknownAtomError(
                    f"atom {name!r} belongs to the weyl algebra, not shift", position
                )
        raise UnknownAtomError(f"unknown atom {name!r}", position)


def parse_operator(text: str, algebra: str, rank: int = 1):
    """Parse an expression into a normalized operator of the given algebra."""
    one_of("algebra", algebra, ALGEBRAS)
    at_least("rank", rank, 1)
    if algebra == "shift":
        at_most("shift algebra rank", rank, 1)
    parser = _Parser(_tokenize(text), algebra, rank)
    result = parser.expr()
    kind, _, position = parser.tokens[parser.pos]
    if kind != "end":
        raise OperatorSyntaxError(f"unexpected trailing {kind!r}", position)
    if isinstance(result, (WeylOp, ShiftOp)):
        return result
    return WeylOp.const(result, rank) if parser.weyl else ShiftOp.t_power(0, result)
