"""Tests for the operator-expression parser.

The load-bearing property is the round-trip: parsing an operator's
printed form recovers the operator, across a 200-case corpus that
includes every relation literal the engines construct.  The parser
before literals stayed scalars, kept below as `ref_parse_operator`,
judges the current one on seeded random and corrupted expressions.
"""

import random
import re
import sys
from fractions import Fraction

import pytest

from monofour import mellin, ore
from monofour.ore import ShiftOp, WeylOp
from monofour.parser import (
    _SHIFT_OPS,
    ALGEBRAS,
    SHIFT_ATOMS,
    WEYL_ATOMS,
    OperatorSyntaxError,
    UnknownAtomError,
    _weyl_atom,
    parse_operator,
)
from monofour.scalars.poly import Poly, UnsupportedInputError, at_least, at_most, frac, one_of


def rand_shift(rng, max_level=2, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        level = rng.randint(-max_level, max_level)
        coeffs = tuple(
            Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, max_deg + 1))
        )
        if any(coeffs):
            terms[level] = Poly(coeffs)
    return ShiftOp(terms)


def rand_weyl(rng, max_pow=2, max_terms=3, rank=1):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.randint(0, max_pow) for _ in range(rank))
        beta = tuple(rng.randint(0, max_pow) for _ in range(rank))
        terms[(alpha, beta)] = frac(rng.randint(-3, 3))
    return WeylOp(rank, terms)


class TestWeylParsing:
    def test_product_expansion(self):
        op = parse_operator("dx*(x-1)", "weyl")
        assert str(op) == "1 - dx + x*dx"

    def test_expansion_matches_constructed(self):
        op = parse_operator("dx*(x-1)", "weyl")
        x, dx = WeylOp.x(), WeylOp.dx()
        assert op == dx * (x - WeylOp.const(1))

    def test_scalars_and_fractions(self):
        assert parse_operator("3/4", "weyl") == WeylOp.const(Fraction(3, 4))
        assert parse_operator("-2", "weyl") == WeylOp.const(-2)

    def test_powers(self):
        op = parse_operator("x^2*dx^2", "weyl")
        assert op == WeylOp.x() * WeylOp.x() * WeylOp.dx() * WeylOp.dx()

    def test_power_binds_tighter_than_product(self):
        assert parse_operator("2*x^2", "weyl") == WeylOp.const(2) * WeylOp.x() ** 2

    def test_unary_minus(self):
        assert parse_operator("-dx^2", "weyl") == -(WeylOp.dx() ** 2)
        assert parse_operator("3 - -x", "weyl") == WeylOp.const(3) + WeylOp.x()

    def test_whitespace_insensitive(self):
        spaced = parse_operator("  x ^ 2  * dx -  1/2 ", "weyl")
        dense = parse_operator("x^2*dx-1/2", "weyl")
        assert spaced == dense

    def test_noncommutative_order_respected(self):
        assert parse_operator("dx*x", "weyl") != parse_operator("x*dx", "weyl")
        assert parse_operator("dx*x - x*dx", "weyl") == WeylOp.const(1)

    def test_higher_rank_atoms(self):
        op = parse_operator("x*dx", "weyl", rank=1)
        assert op.rank == 1

    def test_indexed_coordinates(self):
        op = parse_operator("x2*dx1 + dx3^2", "weyl", rank=3)
        want = WeylOp.x(1, 3) * WeylOp.dx(0, 3) + WeylOp.dx(2, 3) ** 2
        assert op == want
        # bare x and dx still name coordinate 1, at every rank
        assert parse_operator("x*dx", "weyl", rank=2) == parse_operator("x1*dx1", "weyl", rank=2)
        assert parse_operator("x1*dx1", "weyl") == parse_operator("x*dx", "weyl")

    @pytest.mark.parametrize(
        "text,rank,position",
        [("x3", 2, 0), ("1 + dx0", 2, 4), ("x*x2", 1, 2), ("dx4*x1", 3, 0)],
    )
    def test_coordinate_index_out_of_range(self, text, rank, position):
        with pytest.raises(UnknownAtomError) as exc:
            parse_operator(text, "weyl", rank=rank)
        assert exc.value.position == position
        assert f"outside 1..{rank}" in str(exc.value)


class TestShiftParsing:
    def test_kernel_relation_literal(self):
        op = parse_operator("(s+1) - Ti*s", "shift")
        assert str(op) == "Ti*(-s) + (1 + s)"

    def test_kernel_relation_matches_module(self):
        parsed = parse_operator("(s+1) - Ti*s", "shift")
        (relation,) = mellin.kernel_module().relations
        assert parsed == relation

    def test_exp_relation_matches_module(self):
        parsed = parse_operator("1 - Ti*s", "shift")
        (relation,) = mellin.shift_exp_module().relations
        assert parsed == relation

    def test_commutation_is_applied(self):
        # s*T normalizes to T*(s+1): the shift moves past the variable.
        assert parse_operator("s*T", "shift") == parse_operator("T*(s+1)", "shift")

    def test_inverse_levels(self):
        op = parse_operator("Ti^2 + T^3*(2*s)", "shift")
        assert op == ShiftOp({-2: Poly((1,)), 3: Poly((0, 2))})

    def test_t_times_ti_is_one(self):
        assert parse_operator("T*Ti", "shift") == ShiftOp.t_power(0, 1)
        assert parse_operator("Ti*T", "shift") == ShiftOp.t_power(0, 1)

    def test_rank_must_be_one(self):
        with pytest.raises(ValueError):
            parse_operator("s", "shift", rank=2)


class TestErrors:
    def test_dangling_operator_position(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("s + +", "shift")
        assert exc.value.position == 4

    def test_empty_input(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("", "weyl")
        assert exc.value.position == 0

    def test_negative_exponent(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("x^-2", "weyl")
        assert exc.value.position == 2

    def test_unclosed_paren(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("(x+1", "weyl")
        assert exc.value.position == 4

    def test_incomplete_fraction(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("2/", "weyl")
        assert exc.value.position == 2

    @pytest.mark.parametrize("text,algebra,position", [
        ("2/0", "weyl", 2), ("x + 13/00*dx", "weyl", 7), ("s*(1/0)", "shift", 5),
    ])
    def test_zero_denominator(self, text, algebra, position):
        with pytest.raises(OperatorSyntaxError, match="zero denominator") as exc:
            parse_operator(text, algebra)
        assert exc.value.position == position

    def test_unexpected_character(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("x$", "weyl")
        assert exc.value.position == 1

    def test_trailing_tokens(self):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator("x x", "weyl")
        assert exc.value.position == 2

    def test_shift_atom_in_weyl_mode(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse_operator("T", "weyl")
        assert exc.value.position == 0
        assert "shift" in str(exc.value)

    def test_weyl_atom_in_shift_mode(self):
        with pytest.raises(UnknownAtomError) as exc:
            parse_operator("s + x", "shift")
        assert exc.value.position == 4
        assert "weyl" in str(exc.value)

    def test_unknown_algebra(self):
        with pytest.raises(ValueError):
            parse_operator("x", "clifford")

    def test_error_message_carries_offset(self):
        with pytest.raises(OperatorSyntaxError, match="offset 4"):
            parse_operator("s + +", "shift")

    @pytest.mark.parametrize("text,algebra,message", [
        # str.isdigit accepts superscripts, which int() refuses
        ("x^\u00b2", "weyl", "unexpected character '\u00b2' at offset 2"),
        ("\u00b3*s", "shift", "unexpected character '\u00b3' at offset 0"),
        ("1/\u00b2", "weyl", "expected digits after '/' at offset 2"),
        ("2\u00b9", "shift", "unexpected character '\u00b9' at offset 1"),
    ])
    def test_superscript_digits_are_not_digits(self, text, algebra, message):
        with pytest.raises(OperatorSyntaxError) as exc:
            parse_operator(text, algebra)
        assert str(exc.value) == message

    def test_other_decimal_digits_are_literals(self):
        # int() reads every Unicode decimal digit, e.g. ARABIC-INDIC THREE
        assert parse_operator("\u0663*x", "weyl") == parse_operator("3*x", "weyl")


class TestDigitLimit:
    """The interpreter refuses int-to-str conversions past a digit limit
    (4300 by default): such a literal is refused at its offset, and a
    result with such a coefficient is refused when printed."""

    @pytest.mark.parametrize("text,algebra,position", [
        ("1" * 5000, "weyl", 0), ("x + 2/" + "3" * 5000, "weyl", 6),
        ("s*" + "4" * 4301, "shift", 2),
    ], ids=["integer", "denominator", "shift"])
    def test_long_literal_refused_at_its_offset(self, text, algebra, position):
        with pytest.raises(OperatorSyntaxError, match="digits is too long") as exc:
            parse_operator(text, algebra)
        assert exc.value.position == position

    @pytest.mark.parametrize("text,algebra", [
        ("3^10000", "weyl"), ("3^10000*x + dx", "weyl"), ("(1/3)^10000*x", "weyl"),
        ("3^10000*s*T", "shift"),
    ])
    def test_long_coefficient_refused_when_printed(self, text, algebra):
        op = parse_operator(text, algebra)
        with pytest.raises(UnsupportedInputError, match="a coefficient is too long to print"):
            str(op)

    def test_literal_at_the_limit_still_parses(self):
        text = "9" * (sys.get_int_max_str_digits() or 4300)
        assert parse_operator(text, "weyl") == WeylOp.const(int(text))


class TestLiterals:
    """An exponent is any literal whose value is a nonnegative integer,
    and a subexpression without atoms is a scalar of the algebra."""

    @pytest.mark.parametrize("text,want", [
        ("x^4/2", "x^2"), ("x^2/1", "x^2"), ("x^0/5", "1"), ("x^2^3", "x^6"),
        ("(1/2)^2*x", "1/4*x"), ("0*x", "0"), ("x*0 + dx", "dx"), ("2^3 - 8", "0"),
        ("(2/4)^0", "1"), ("-3/6*x", "-1/2*x"),
    ])
    def test_exponent_and_scalar_values(self, text, want):
        assert str(parse_operator(text, "weyl")) == want

    @pytest.mark.parametrize("text,position", [("x^1/2", 2), ("x^2/3", 2), ("x^(2)", 2), ("x^x", 2)])
    def test_non_integer_exponents_refused(self, text, position):
        with pytest.raises(OperatorSyntaxError, match="exponent must be a nonnegative integer") as exc:
            parse_operator(text, "weyl")
        assert exc.value.position == position

    @pytest.mark.parametrize("text,weyl,shift", [
        ("7", "7", "7"), ("-1/3", "-1/3", "-1/3"), ("4/2", "2", "2"), ("0", "0", "0"),
        ("1 - 1", "0", "0"), ("(3)^2 * 2", "18", "18"),
    ])
    def test_bare_literal_is_an_operator(self, text, weyl, shift):
        for rank in (1, 2):
            op = parse_operator(text, "weyl", rank=rank)
            assert type(op) is WeylOp and op.rank == rank and str(op) == weyl
        op = parse_operator(text, "shift")
        assert type(op) is ShiftOp and str(op) == shift

    def test_literals_meet_shift_atoms(self):
        assert parse_operator("2*T*1/2", "shift") == ShiftOp.t_power(1)
        assert parse_operator("(1/3)*s + 1", "shift") == ShiftOp({0: Poly((1, Fraction(1, 3)))})
        assert parse_operator("T*3 - 3*T", "shift") == ShiftOp()


# Relation literals the engines construct; the round-trip corpus must
# cover all of them.
ENGINE_LITERALS_SHIFT = [
    "(s+1) - Ti*s",          # kernel module relation
    "1 - Ti*s",              # exponential module relation
    "s - 1/2",               # scaling eigen-relation at 1/2
    "s - 1/3",
    "s",                     # eigen-relation at 0
    "T - 1",                 # point module at 1 after the variable map
    "T",                     # the variable itself
    "Ti*(-s) + (1 + s)",     # kernel relation, printed form
    "T^2*(5/3)",
    "-s - 1",                # inversion-twist image of s
    "-Ti",                   # inversion-twist image of T
]

ENGINE_LITERALS_WEYL = [
    "x*dx",                  # the Euler operator
    "x - 1",                 # point relation at 1
    "1 - dx",                # exponential relation
    "x*dx + x",
    "dx*(x-1)",              # differential-side kernel relation
    "-3/7*x + x^2*dx",
    "0",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", ENGINE_LITERALS_SHIFT)
    def test_shift_literal_round_trip(self, text):
        op = parse_operator(text, "shift")
        assert parse_operator(str(op), "shift") == op

    @pytest.mark.parametrize("text", ENGINE_LITERALS_WEYL)
    def test_weyl_literal_round_trip(self, text):
        op = parse_operator(text, "weyl")
        assert parse_operator(str(op), "weyl") == op

    def test_corpus_of_200(self):
        rng = random.Random(20260823)
        corpus = []
        for text in ENGINE_LITERALS_SHIFT:
            corpus.append(("shift", parse_operator(text, "shift")))
        for text in ENGINE_LITERALS_WEYL:
            corpus.append(("weyl", parse_operator(text, "weyl")))
        while len(corpus) < 200:
            if rng.random() < 0.5:
                corpus.append(("shift", rand_shift(rng)))
            else:
                corpus.append(("weyl", rand_weyl(rng)))
        assert len(corpus) == 200
        for algebra, op in corpus:
            assert parse_operator(str(op), algebra) == op

    def test_transformed_operators_round_trip(self):
        rng = random.Random(5)
        for _ in range(25):
            w = rand_weyl(rng)
            image = ore.fourier_auto(w)
            assert parse_operator(str(image), "weyl") == image
            sh = ore.mellin_op(w)
            assert parse_operator(str(sh), "shift") == sh

    @pytest.mark.parametrize("rank", [2, 3])
    def test_higher_rank_round_trip(self, rank):
        rng = random.Random(rank)
        for _ in range(60):
            w = rand_weyl(rng, max_pow=3, max_terms=4, rank=rank)
            for op in (w, ore.fourier_auto(w)):
                again = parse_operator(str(op), "weyl", rank=rank)
                assert again == op
                assert str(again) == str(op)


# The parser before tokens became tuples and literals stayed scalars,
# kept as the reference: one _Token object per token, and every literal
# and atom built as an operator before any arithmetic.
class RefToken:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind, value, position):
        self.kind = kind
        self.value = value
        self.position = position


def ref_too_long(digits: int) -> bool:
    """True when int() refuses a literal of this many digits (a limit of 0
    means none)."""
    limit = sys.get_int_max_str_digits()
    return limit != 0 and digits > limit


def ref_tokenize(text: str):
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
            if ref_too_long(j - i):
                raise OperatorSyntaxError(f"literal of {j - i} digits is too long", i)
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise OperatorSyntaxError("expected digits after '/'", j + 1)
                if ref_too_long(k - j - 1):
                    raise OperatorSyntaxError(f"literal of {k - j - 1} digits is too long", j + 1)
                den = int(text[j + 1 : k])
                if not den:
                    raise OperatorSyntaxError("zero denominator", j + 1)
                tokens.append(RefToken("number", Fraction(int(text[i:j]), den), i))
                i = k
            else:
                tokens.append(RefToken("number", Fraction(int(text[i:j])), i))
                i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(RefToken("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(RefToken(ch, ch, i))
            i += 1
            continue
        raise OperatorSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(RefToken("end", None, n))
    return tokens


class RefParser:
    def __init__(self, tokens, algebra: str, rank: int):
        self.tokens = tokens
        self.pos = 0
        self.algebra = algebra
        self.rank = rank

    def peek(self) -> RefToken:
        return self.tokens[self.pos]

    def advance(self) -> RefToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> RefToken:
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

    def atom(self, tok: RefToken):
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


def ref_parse_operator(text: str, algebra: str, rank: int = 1):
    one_of("algebra", algebra, ALGEBRAS)
    at_least("rank", rank, 1)
    if algebra == "shift":
        at_most("shift algebra rank", rank, 1)
    parser = RefParser(ref_tokenize(text), algebra, rank)
    result = parser.expr()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise OperatorSyntaxError(
            f"unexpected trailing {trailing.kind!r}", trailing.position
        )
    return result


def rand_expression(rng, algebra, rank, depth):
    """A random expression in the grammar: atoms (indexed ones too, such as
    x2 or dx01), int and a/b literals, + - * ^, unary minus, parentheses
    and uneven whitespace."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.35:
            num = str(rng.randint(0, 12))
            if rng.random() < 0.4:
                num += f"/{rng.randint(1, 6)}"
            return num
        if algebra == "shift":
            return rng.choice(SHIFT_ATOMS)
        name = rng.choice(WEYL_ATOMS)
        if rank > 1 or rng.random() < 0.2:
            name += rng.choice(("", "0")) + str(rng.randint(1, rank))
        return name
    kind = rng.choice(("+", "-", "*", "*", "neg", "pow", "paren"))
    sub = rand_expression(rng, algebra, rank, depth - 1)
    if kind == "neg":
        return f"-{sub}"
    if kind == "paren":
        return f"({sub})"
    if kind == "pow":
        exponent = rng.choice(("0", "1", "2", "3", "4/2", "6/3", "0/7"))
        return f"({sub})^{exponent}"
    space = rng.choice(("", " ", "  "))
    return f"{sub}{space}{kind}{space}{rand_expression(rng, algebra, rank, depth - 1)}"


CORRUPTION = "xdsTi0123/+-*^() \t$.e"


def corrupt(rng, text):
    """text with one to three characters deleted, inserted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.choice(("delete", "insert", "replace"))
        if edit == "insert" or not chars or i == len(chars):
            chars.insert(i, rng.choice(CORRUPTION))
        elif edit == "delete":
            del chars[i]
        else:
            chars[i] = rng.choice(CORRUPTION)
    return "".join(chars)


def outcome(parse, text, algebra, rank):
    try:
        op = parse(text, algebra, rank)
    except Exception as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "position", None))
    return ("parsed", type(op), getattr(op, "rank", None), op, str(op))


# A corruption can glue digits onto an exponent; both parsers would then
# expand powers such as (x + dx)^31, which only costs time.
HUGE_POWER = re.compile(r"\^\s*(\d{2}|[5-9])")


class TestReferenceParser:
    @pytest.mark.parametrize("algebra,rank", [("weyl", 1), ("weyl", 2), ("shift", 1)])
    def test_random_expressions(self, algebra, rank):
        rng = random.Random(1400 + rank + (algebra == "shift"))
        parsed = 0
        for _ in range(400):
            text = rand_expression(rng, algebra, rank, 4)
            got = outcome(parse_operator, text, algebra, rank)
            assert got == outcome(ref_parse_operator, text, algebra, rank), text
            parsed += got[0] == "parsed"
        assert parsed > 300

    @pytest.mark.parametrize("algebra,rank", [("weyl", 1), ("weyl", 2), ("shift", 1)])
    def test_corrupted_expressions(self, algebra, rank):
        rng = random.Random(1410 + rank + (algebra == "shift"))
        kinds = set()
        for _ in range(600):
            text = corrupt(rng, rand_expression(rng, algebra, rank, 3))
            if HUGE_POWER.search(text):
                continue
            got = outcome(parse_operator, text, algebra, rank)
            assert got == outcome(ref_parse_operator, text, algebra, rank), text
            kinds.add(got[1])
        assert {OperatorSyntaxError, UnknownAtomError, WeylOp if algebra == "weyl" else ShiftOp} <= kinds

    @pytest.mark.parametrize("text,algebra,rank", [
        ("", "weyl", 1), ("x", "clifford", 1), ("x", "weyl", 0), ("s", "shift", 2),
        ("((x)", "weyl", 1), ("x)", "weyl", 1), ("3 3", "shift", 1), ("T^", "shift", 1),
        ("dx3", "weyl", 2), ("1/0", "shift", 1), ("x^-1", "weyl", 1), ("--2", "weyl", 3),
        # literals past the int-to-str digit limit, as numerator and as denominator
        ("1" * 5000, "weyl", 1), ("x + 2/" + "3" * 5000, "weyl", 1),
        ("s*" + "4" * 4301 + "/7", "shift", 1),
    ], ids=lambda v: f"{len(v)} characters" if isinstance(v, str) and len(v) > 40 else None)
    def test_edge_cases(self, text, algebra, rank):
        assert outcome(parse_operator, text, algebra, rank) == outcome(
            ref_parse_operator, text, algebra, rank)


class TestSharedAtoms:
    def test_parses_return_the_shared_atoms(self):
        assert parse_operator("x", "weyl") is _weyl_atom("x", 1, 1)
        assert parse_operator("(dx2)", "weyl", rank=2) is _weyl_atom("dx", 2, 2)
        for name in SHIFT_ATOMS:
            assert parse_operator(name, "shift") is _SHIFT_OPS[name]

    def test_atoms_unchanged_after_parses_and_products(self):
        atoms = dict(_SHIFT_OPS)
        for rank in (1, 2):
            for base in WEYL_ATOMS:
                for i in range(1, rank + 1):
                    atoms[(base, i, rank)] = _weyl_atom(base, i, rank)
        before = {key: dict(op.terms) for key, op in atoms.items()}
        rng = random.Random(1420)
        for n in range(1000):
            algebra, rank = (("weyl", 1), ("weyl", 2), ("shift", 1))[n % 3]
            a = parse_operator(rand_expression(rng, algebra, rank, 3), algebra, rank)
            b = parse_operator(rng.choice(("x", "dx", "x^1", "(x)*1")) if algebra == "weyl"
                               else rng.choice(SHIFT_ATOMS + ("T^1", "1*s")), algebra, rank)
            for op in (a * b, b * a, a + b, b - a, -b, b * 2, 0 * b, b ** 2):
                # a result is the atom itself or holds terms of its own
                assert op is b or op.terms is not b.terms
        for key, op in atoms.items():
            assert op.terms == before[key], key
        for name in SHIFT_ATOMS:
            assert _SHIFT_OPS[name] is atoms[name]
        assert str(_SHIFT_OPS["s"]) == "s" and str(_weyl_atom("dx", 2, 2)) == "dx2"

    def test_atom_cache_is_bounded(self):
        maxsize = _weyl_atom.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
