"""Tests for the operator-expression parser.

The load-bearing property is the round-trip: parsing an operator's
printed form recovers the operator, across a 200-case corpus that
includes every relation literal the engines construct.
"""

import random
from fractions import Fraction

import pytest

from monofour import mellin, ore
from monofour.ore import ShiftOp, WeylOp
from monofour.parser import (
    OperatorSyntaxError,
    UnknownAtomError,
    parse_operator,
)
from monofour.scalars import Poly, frac


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
