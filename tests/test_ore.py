"""Tests for the operator algebras: shift, Weyl, Laurent-Weyl.

Oracle notes.  Fixed expected values below were derived by hand from the
defining commutation rules and checked against an independent expansion:
s*T = T*(s+1) by moving s across T one step; dx*x = x*dx + 1 and its
iterates via the Leibniz rule; Mellin images via x -> T, x*dx -> s on
monomials.  Structural laws (associativity, homomorphism, involution,
round trips) are checked on deterministic pseudroandom samples.
"""

import operator
import random
from fractions import Fraction
from functools import reduce
from itertools import product
from math import comb, factorial

import pytest

from monofour.scalars.cyclotomic import CycScalar, zeta
from monofour.scalars.poly import Poly, UnsupportedInputError, at_least, at_most, frac
from monofour.ore import (
    LaurentWeylOp,
    ShiftOp,
    WeylOp,
    _WeylBase,
    _laurent_key,
    _merged,
    _normal_product,
    _trusted,
    antipode,
    falling,
    falling_poly,
    fourier_auto,
    inverse_mellin_op,
    inversion_twist,
    mellin_op,
    to_laurent,
)
from test_scalars import RefPoly

S = ShiftOp.s()
T = ShiftOp.t_power(1)
Ti = ShiftOp.t_power(-1)
X = WeylOp.x()
DX = WeylOp.dx()
LX = LaurentWeylOp.x()
LDX = LaurentWeylOp.dx()


def x_power(a: int, c=1) -> LaurentWeylOp:
    """c * x^a in the Laurent algebra, a < 0 allowed."""
    return LaurentWeylOp(1, {((a,), (0,)): c})


def rand_shift(rng, max_level=2, max_deg=2, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        j = rng.randint(-max_level, max_level)
        coeffs = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, max_deg + 1)))
        terms[j] = terms.get(j, Poly()) + Poly(coeffs)
    return ShiftOp(terms)


def rand_weyl(rng, cls=WeylOp, rank=1, max_pow=2, max_terms=3, min_x=0):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        alpha = tuple(rng.randint(min_x, max_pow) for _ in range(rank))
        beta = tuple(rng.randint(0, max_pow) for _ in range(rank))
        terms[(alpha, beta)] = frac(rng.randint(-3, 3))
    return cls(rank, terms)


class TestShiftAlgebra:
    def test_commutation_rule(self):
        assert S * T == ShiftOp({1: Poly((1, 1))})
        assert T * S == ShiftOp({1: Poly.x()})
        assert Ti * S == ShiftOp({-1: Poly.x()})
        assert S * Ti == ShiftOp({-1: Poly((-1, 1))})

    def test_t_and_inverse_cancel(self):
        assert T * Ti == 1
        assert Ti * T == 1

    def test_polynomials_commute(self):
        p = ShiftOp.t_power(0, Poly((1, 2, 3)))
        q = ShiftOp.t_power(0, Poly((-1, 0, 1)))
        assert p * q == q * p

    def test_power(self):
        assert (S * T) ** 2 == S * T * S * T
        assert T**3 == ShiftOp.t_power(3)

    def test_scalar_coercion(self):
        assert S + 1 == ShiftOp({0: Poly((1, 1))})
        assert 2 * T == ShiftOp.t_power(1, 2)
        assert (1 - Ti * S).coeff(-1) == -Poly.x()
        # a polynomial on the left multiplies from the left
        assert Poly.x() * T == S * T != T * S == T * Poly.x()

    def test_associativity_random(self):
        rng = random.Random(20260823)
        for _ in range(1000):
            a, b, c = (rand_shift(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_distributivity_random(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rand_shift(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c

    def test_str_forms(self):
        assert ShiftOp().to_str() == "0"
        assert S.to_str() == "s"
        assert T.to_str() == "T"
        assert Ti.to_str() == "Ti"
        assert (ShiftOp.t_power(2) * 3).to_str() == "T^2*(3)"
        assert (S * T).to_str() == "T*(1 + s)"
        assert (1 + Ti * S).to_str() == "Ti*(s) + (1)"
        assert ShiftOp.t_power(-2).to_str() == "Ti^2"


class TestWeylAlgebra:
    def test_basic_commutator(self):
        assert DX * X == X * DX + 1
        assert X * DX - DX * X == WeylOp.const(-1)

    def test_iterated_commutators(self):
        assert DX**2 * X == X * DX**2 + 2 * DX
        assert DX * X**2 == X**2 * DX + 2 * X
        assert DX**3 * X**2 == X**2 * DX**3 + 6 * X * DX**2 + 6 * DX

    def test_rank_two_coordinates_commute(self):
        x1 = WeylOp.x(0, rank=2)
        x2 = WeylOp.x(1, rank=2)
        d1 = WeylOp.dx(0, rank=2)
        d2 = WeylOp.dx(1, rank=2)
        assert x1 * x2 == x2 * x1
        assert d1 * x2 == x2 * d1
        assert d1 * x1 == x1 * d1 + 1
        assert d2 * x2 == x2 * d2 + 1

    def test_laurent_negative_powers(self):
        xi = x_power(-1)
        assert LX * xi == 1
        # dx * x^-1 = x^-1 dx - x^-2.
        assert LDX * xi == xi * LDX - x_power(-2)

    def test_plain_weyl_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            WeylOp(1, {((-1,), (0,)): 1})

    def test_associativity_random(self):
        rng = random.Random(99)
        for _ in range(300):
            a, b, c = (rand_weyl(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
        for _ in range(100):
            a, b, c = (rand_weyl(rng, rank=2) for _ in range(3))
            assert (a * b) * c == a * (b * c)
        for _ in range(200):
            a, b, c = (rand_weyl(rng, cls=LaurentWeylOp, min_x=-2) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_str_forms(self):
        assert (X * DX + 1 - DX).to_str() == "1 - dx + x*dx"
        assert (WeylOp.x(1, rank=2) * WeylOp.dx(0, rank=2)).to_str() == "x2*dx1"
        assert x_power(-1).to_str() == "x^-1"


class TestMellin:
    def test_generator_images(self):
        assert mellin_op(LX) == T
        assert mellin_op(LDX) == Ti * S
        assert mellin_op(LX * LDX) == S
        assert mellin_op(x_power(-1)) == Ti

    def test_contract_example(self):
        op = LDX * (LX - 1)
        assert mellin_op(op) == (S + 1) - Ti * S

    def test_falling_polys(self):
        assert falling_poly(0) == Poly.const(1)
        assert falling_poly(2) == Poly.x() * (Poly.x() - 1)

    def test_homomorphism_random(self):
        rng = random.Random(11)
        for _ in range(150):
            a = rand_weyl(rng, cls=LaurentWeylOp, min_x=-2)
            b = rand_weyl(rng, cls=LaurentWeylOp, min_x=-2)
            assert mellin_op(a * b) == mellin_op(a) * mellin_op(b)

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(100):
            a = rand_weyl(rng, cls=LaurentWeylOp, min_x=-2)
            assert inverse_mellin_op(mellin_op(a)) == a
        for _ in range(100):
            sh = rand_shift(rng)
            assert mellin_op(inverse_mellin_op(sh)) == sh

    def test_inverse_on_shift_generators(self):
        assert inverse_mellin_op(S) == LX * LDX
        assert inverse_mellin_op(T) == LX
        assert inverse_mellin_op(Ti * S) == LDX


class TestFourierAutomorphism:
    def test_generator_images(self):
        assert fourier_auto(X) == -DX
        assert fourier_auto(DX) == X
        assert fourier_auto(X * DX) == -DX * X == -X * DX - 1

    def test_homomorphism_random(self):
        rng = random.Random(17)
        for _ in range(150):
            a, b = rand_weyl(rng), rand_weyl(rng)
            assert fourier_auto(a * b) == fourier_auto(a) * fourier_auto(b)
        for _ in range(50):
            a, b = rand_weyl(rng, rank=2), rand_weyl(rng, rank=2)
            assert fourier_auto(a * b) == fourier_auto(a) * fourier_auto(b)

    def test_square_is_antipode(self):
        rng = random.Random(19)
        for _ in range(100):
            a = rand_weyl(rng)
            assert fourier_auto(fourier_auto(a)) == antipode(a)
        for _ in range(50):
            a = rand_weyl(rng, rank=2)
            assert fourier_auto(fourier_auto(a)) == antipode(a)

    def test_fourth_power_is_identity(self):
        rng = random.Random(23)
        for _ in range(50):
            a = rand_weyl(rng)
            out = a
            for _ in range(4):
                out = fourier_auto(out)
            assert out == a

    def test_antipode_homomorphism(self):
        rng = random.Random(29)
        for _ in range(100):
            a, b = rand_weyl(rng), rand_weyl(rng)
            assert antipode(a * b) == antipode(a) * antipode(b)
            assert antipode(antipode(a)) == a

    def test_rejects_laurent(self):
        with pytest.raises(UnsupportedInputError):
            fourier_auto(x_power(-1))

    def test_antipode_of_a_laurent_operator_stays_laurent(self):
        w = x_power(-3, 2) + LX * LDX
        image = antipode(w)
        assert type(image) is LaurentWeylOp
        assert image == x_power(-3, -2) + LX * LDX
        assert antipode(image) == w


class TestInversionTwist:
    def test_generator_images_affine(self):
        assert inversion_twist(S) == -(S + 1)
        assert inversion_twist(T) == -Ti
        assert inversion_twist(Ti) == -T

    def test_generator_images_plain(self):
        assert inversion_twist(S, "plain") == -S
        assert inversion_twist(T, "plain") == -Ti

    @pytest.mark.parametrize("variant", ["affine", "plain"])
    def test_homomorphism_random(self, variant):
        rng = random.Random(31)
        for _ in range(200):
            a, b = rand_shift(rng), rand_shift(rng)
            got = inversion_twist(a * b, variant)
            assert got == inversion_twist(a, variant) * inversion_twist(b, variant)

    @pytest.mark.parametrize("variant", ["affine", "plain"])
    def test_involution(self, variant):
        rng = random.Random(37)
        for _ in range(100):
            a = rand_shift(rng)
            assert inversion_twist(inversion_twist(a, variant), variant) == a

    @pytest.mark.parametrize("variant", ["affine", "plain"])
    def test_matches_composition_reference(self, variant):
        # p(s) T^j goes to (-1)^j p(-s + c) T^-j; the reference composes
        # p with -s + c by Horner on Fractions, with no Taylor shift.
        c = -1 if variant == "affine" else 0
        rng = random.Random(43)
        for _ in range(100):
            ops = {}
            for j in range(-3, 4):
                if rng.random() < 0.6:
                    ops[j] = Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                   for _ in range(rng.randint(1, 6))])
            sh = ShiftOp(ops)
            want = ShiftOp({
                -j: Poly(RefPoly(p.coeffs).compose_linear(-1, c).coeffs) * (-1 if j % 2 else 1)
                for j, p in sh.terms.items()
            })
            assert inversion_twist(sh, variant) == want

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            inversion_twist(S, "mystery")

    def test_twist_of_ladder_relation(self):
        # The up-ladder relation T - (s+1) twists to s - Ti (affine).
        rel = T - (S + 1)
        assert inversion_twist(rel) == S - Ti


class TestGeneratorRange:
    # x(i, rank) and dx(i, rank) returned 1 for a coordinate outside the rank
    @pytest.mark.parametrize("cls", [WeylOp, LaurentWeylOp])
    @pytest.mark.parametrize("make", ["x", "dx"])
    @pytest.mark.parametrize("i, rank, message", [
        (5, 1, "coordinate 5 outside 0..0"),
        (-1, 1, "coordinate -1 outside 0..0"),
        (1, 1, "coordinate 1 outside 0..0"),
        (0, 0, "rank 0 must be at least 1"),
        (0, -2, "rank -2 must be at least 1"),
    ])
    def test_out_of_range_refused(self, cls, make, i, rank, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            getattr(cls, make)(i, rank)

    def test_weyl_coordinates_beyond_rank_one(self):
        with pytest.raises(ValueError, match="coordinate 5 outside 0..1"):
            WeylOp.x(5, 2)
        with pytest.raises(ValueError, match="coordinate 2 outside 0..1"):
            WeylOp.dx(2, 2)
        assert str(WeylOp.x(1, 3) * WeylOp.dx(2, 3)) == "x2*dx3"


class TestHelpers:
    def test_to_laurent(self):
        w = X * DX + 2
        lw = to_laurent(w)
        assert isinstance(lw, LaurentWeylOp)
        assert lw == LX * LDX + 2


# The previous bodies of fourier_auto and mellin_op, kept as references:
# the Fourier map re-derived the Leibniz rule per coordinate and summed one
# operator per output term; the Mellin map summed one ShiftOp per term.
def ref_fourier_auto(w: WeylOp) -> WeylOp:
    rank = w.rank
    out = WeylOp(rank)
    for (alpha, beta), c in w.terms.items():
        combos = [((), (), Fraction(1))]
        for i in range(rank):
            # (-dx)^alpha_i * x^beta_i, normal ordered:
            # dx^a x^b = sum_k C(a,k) falling(b,k) x^(b-k) dx^(a-k)
            a, b = alpha[i], beta[i]
            coords = []
            sign = -1 if a % 2 else 1
            for k in range(min(a, b) + 1):
                cc = comb(a, k) * falling(b, k) * sign
                if cc:
                    coords.append((b - k, a - k, cc))
            new = []
            for al, be, acc in combos:
                for xa, xb, cc in coords:
                    new.append((al + (xa,), be + (xb,), acc * cc))
            combos = new
        for al, be, acc in combos:
            out = out + WeylOp(rank, {(al, be): c * acc})
    return out


def ref_mellin_op(w) -> ShiftOp:
    out = ShiftOp()
    for ((a,), (b,)), c in w.terms.items():
        out = out + ShiftOp({a - b: falling_poly(b) * c})
    return out


def oracle_operators(cls=WeylOp, rank=1, min_x=0, seed=0, count=60):
    """Zero, constants, monomials with powers 4 and two of their products
    (many Leibniz terms), then seeded sums with powers up to 4."""
    zero = (0,) * rank
    ops = [cls(rank), cls.const(1, rank), cls.const(Fraction(-5, 3), rank)]
    ops += [cls(rank, {((min_x,) * rank, (4,) * rank): Fraction(2, 7)})]
    ops += [cls(rank, {((4,) * rank, zero): -1}), cls(rank, {((4,) * rank, (4,) * rank): 1})]
    ops += [ops[3] * ops[4], ops[4] * ops[5]]
    rng = random.Random(seed)
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            alpha = tuple(rng.randint(min_x, 4) for _ in range(rank))
            beta = tuple(rng.randint(0, 4) for _ in range(rank))
            terms[(alpha, beta)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        ops.append(cls(rank, terms))
    return ops


class TestOperatorMapOracles:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_fourier_matches_reference(self, rank):
        for w in oracle_operators(rank=rank, seed=100 + rank):
            got, want = fourier_auto(w), ref_fourier_auto(w)
            assert got == want
            assert str(got) == str(want)

    @pytest.mark.parametrize("cls,min_x", [(WeylOp, 0), (LaurentWeylOp, -4)])
    def test_mellin_matches_reference(self, cls, min_x):
        for w in oracle_operators(cls=cls, min_x=min_x, seed=200 + min_x):
            got, want = mellin_op(w), ref_mellin_op(w)
            assert got == want
            assert str(got) == str(want)

    def test_mellin_collects_shared_levels(self):
        # x*dx -> s and x^2*dx^2 -> s(s-1) land on level 0 and sum to s^2.
        w = X**2 * DX**2 + X * DX
        assert mellin_op(w) == ref_mellin_op(w) == ShiftOp({0: Poly((0, 0, 1))})


def ref_weyl_to_str(self):
    """The Weyl printer from before `term_str` and `signed_sum`."""
    if self.is_zero:
        return "0"
    keys = sorted(self.terms)
    pieces = []
    for k in keys:
        c = self.terms[k]
        mono = self._monomial_str(*k)
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        elif c == -1:
            body = f"-{mono}"
        else:
            body = f"{c}*{mono}"
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        out += " - " + body[1:] if body.startswith("-") else " + " + body
    return out


class TestValueProtocol:
    @pytest.mark.parametrize("cls,rank,min_x", [
        (WeylOp, 1, 0), (WeylOp, 2, 0), (WeylOp, 3, 0), (LaurentWeylOp, 1, -4),
    ], ids=["weyl-rank1", "weyl-rank2", "weyl-rank3", "laurent"])
    def test_weyl_prints_as_the_reference(self, cls, rank, min_x):
        rng = random.Random(400 + 10 * rank + min_x)
        pool = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))
        ops = oracle_operators(cls=cls, rank=rank, min_x=min_x, seed=rank, count=20)
        for _ in range(100):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                alpha = tuple(rng.randint(min_x, 3) for _ in range(rank))
                beta = tuple(rng.randint(0, 3) for _ in range(rank))
                terms[(alpha, beta)] = rng.choice(pool)
            ops.append(cls(rank, terms))
        for w in ops:
            want = ref_weyl_to_str(w)
            assert (str(w), repr(w)) == (want, f"{cls.__name__}({want})")

    def test_truth_subtraction_and_immutability(self):
        for zero, value in ((ShiftOp(), T * S), (WeylOp(2), WeylOp.x(1, 2)),
                            (LaurentWeylOp(), x_power(-1))):
            assert not zero and value
            assert value - value == zero and 0 - value == -value
            assert repr(value) == f"{type(value).__name__}({value.to_str()})"
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                value.terms = {}
        with pytest.raises(ValueError, match="rank mismatch"):
            WeylOp.x(0, 2) - X
        with pytest.raises(TypeError):
            S - X

    @pytest.mark.parametrize("name", ["is_zero", "__eq__", "__hash__", "__add__", "__radd__",
                                      "__neg__", "__mul__", "__rmul__", "__pow__"])
    def test_each_method_is_written_once(self, name):
        # the shift and Weyl types read the value protocol from one class
        owners = {next(c for c in cls.__mro__ if name in vars(c))
                  for cls in (ShiftOp, WeylOp, LaurentWeylOp)}
        assert len(owners) == 1


class TestBinaryPower:
    """`**` squares only while bits of the exponent remain."""

    @pytest.mark.parametrize("cls,base", [
        (ShiftOp, T * S + 1),
        (_WeylBase, X * DX + 2 * X),
        (_WeylBase, LX * LDX - x_power(-1)),
        (_WeylBase, WeylOp.x(0, 2) * WeylOp.dx(1, 2) + WeylOp.dx(0, 2)),
    ], ids=["shift", "weyl", "laurent", "weyl-rank2"])
    def test_product_count_and_value(self, cls, base, monkeypatch):
        counts = {"squarings": 0, "products": 0}
        plain_mul = cls.__mul__

        def counting_mul(a, b):
            counts["products"] += 1
            counts["squarings"] += a is b
            return plain_mul(a, b)

        one = base * 0 + 1
        repeated = [one]
        for _ in range(20):
            repeated.append(repeated[-1] * base)
        monkeypatch.setattr(cls, "__mul__", counting_mul)
        for n in range(21):
            counts.update(squarings=0, products=0)
            power = base**n
            assert counts["squarings"] == max(n.bit_length() - 1, 0), n
            assert counts["products"] == max(n.bit_length() + bin(n).count("1") - 2, 0), n
            assert power == repeated[n] and str(power) == str(repeated[n])
            assert type(power) is type(base)

    def test_scalar_powers_match_repeated_products(self):
        for base, one in ((Poly((1, -2, 3)), Poly.const(1)),
                          (zeta(5) + Fraction(1, 3), CycScalar.from_rational(1, 5))):
            acc = one
            for n in range(21):
                assert base**n == acc and str(base**n) == str(acc)
                acc = acc * base


# The public constructors' bodies from before the trusted constructor, kept
# as references: arithmetic and the operator maps now build their results
# without validation, so each result must come out of these unchanged.
def ref_weyl_terms(cls, rank, terms):
    """The validated terms of `cls(rank, terms)`, as `_WeylBase.__init__`
    (and the Laurent rank check) computed them."""
    if cls.laurent:
        at_most("Laurent rank", at_least("Laurent rank", rank, 1), 1)
    clean = {}
    if terms:
        for key, c in terms.items():
            alpha, beta = key
            alpha = (alpha,) if isinstance(alpha, int) else tuple(alpha)
            beta = (beta,) if isinstance(beta, int) else tuple(beta)
            if len(alpha) != rank or len(beta) != rank:
                raise ValueError("multi-index length does not match rank")
            if any(b < 0 for b in beta):
                raise ValueError("negative power of dx")
            if not cls.laurent and any(a < 0 for a in alpha):
                raise ValueError("negative power of x in the plain Weyl algebra")
            c = frac(c)
            if c:
                k = (alpha, beta)
                if k in clean:
                    c = clean[k] + c
                    if c:
                        clean[k] = c
                    else:
                        del clean[k]
                else:
                    clean[k] = c
    return clean


def ref_shift_terms(terms):
    """The terms of `ShiftOp(terms)`, as `ShiftOp.__init__` computed them."""
    clean = {}
    if terms:
        for j, p in terms.items():
            if not isinstance(p, Poly):
                p = Poly.const(p)
            if not p.is_zero:
                clean[j] = p
    return clean


def assert_normal(op):
    """op is in the normal form the public constructor would give it."""
    if isinstance(op, ShiftOp):
        assert op.terms == ref_shift_terms(op.terms) and op == ShiftOp(op.terms)
        for j, p in op.terms.items():
            assert type(j) is int and type(p) is Poly and not p.is_zero
        return
    assert op.terms == ref_weyl_terms(type(op), op.rank, op.terms)
    assert op == type(op)(op.rank, op.terms)
    for (alpha, beta), c in op.terms.items():
        # an int when integral, else a Fraction with denominator > 1
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
        assert c != 0
        assert type(alpha) is tuple and type(beta) is tuple
        assert len(alpha) == len(beta) == op.rank
        assert all(type(e) is int for e in alpha + beta)


COEFF_POOL = (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4))


def seeded_operator(rng, cls, rank, min_x):
    """A public-constructor operator with up to three terms, zero and
    repeated keys included."""
    if cls is ShiftOp:
        return ShiftOp({rng.randint(-2, 2): Poly([rng.choice(COEFF_POOL)
                                                  for _ in range(rng.randint(0, 3))])
                        for _ in range(rng.randint(0, 3))})
    terms = {}
    for _ in range(rng.randint(0, 3)):
        alpha = tuple(rng.randint(min_x, 2) for _ in range(rank))
        beta = tuple(rng.randint(0, 2) for _ in range(rank))
        terms[(alpha, beta)] = rng.choice(COEFF_POOL)
    return cls(rank, terms)


TRUSTED_KINDS = [(WeylOp, 1, 0), (WeylOp, 2, 0), (WeylOp, 3, 0), (LaurentWeylOp, 1, -2),
                 (ShiftOp, 1, 0)]


class TestTrustedConstructorOracle:
    @pytest.mark.parametrize("cls,rank,min_x", TRUSTED_KINDS,
                             ids=["weyl1", "weyl2", "weyl3", "laurent", "shift"])
    def test_results_are_in_normal_form(self, cls, rank, min_x):
        # 300 pairs per kind: 3000 seeded operators over the five kinds.
        rng = random.Random(1100 + 10 * rank + min_x + (cls is ShiftOp))
        for _ in range(300):
            a = seeded_operator(rng, cls, rank, min_x)
            b = seeded_operator(rng, cls, rank, min_x)
            if rng.random() < 0.2:
                b = b - a  # a + b cancels a's terms
            c = rng.choice(COEFF_POOL)
            results = [a + b, a - b, b - a, a * b, b * a, -a, a * c, c * a, a + c, c - a,
                       a ** rng.randint(0, 3 if rank < 3 else 2)]
            if cls is WeylOp:
                results += [fourier_auto(a), fourier_auto(fourier_auto(b))]
            if cls is not ShiftOp:
                results.append(antipode(a))
            if cls is ShiftOp:
                results += [inverse_mellin_op(a), mellin_op(inverse_mellin_op(b))]
            elif rank == 1:
                results += [mellin_op(a), inverse_mellin_op(mellin_op(b))]
            for op in results:
                assert_normal(op)

    def test_constructors_in_normal_form(self):
        ops = [ShiftOp.s(), ShiftOp.t_power(0), ShiftOp(), ShiftOp.t_power(-2, Fraction(1, 2)),
               ShiftOp.t_power(3, 0), ShiftOp.t_power(0, Poly()), ShiftOp.t_power(0, S.coeff(0)),
               ShiftOp.t_power(0, Fraction(-2, 3))]
        for cls, rank in ((WeylOp, 1), (WeylOp, 3), (LaurentWeylOp, 1)):
            ops += [cls.x(rank - 1, rank), cls.dx(0, rank), cls.const(0, rank),
                    cls.const(Fraction(3, 4), rank), cls.const(1, rank), cls(rank)]
        for op in ops:
            assert_normal(op)

    @pytest.mark.parametrize("cls,rank,terms,message", [
        (WeylOp, 1, {((0,), (-1,)): 1}, "negative power of dx"),
        (LaurentWeylOp, 1, {(-2, -1): 1}, "negative power of dx"),
        (WeylOp, 1, {((-1,), (0,)): 1}, "negative power of x in the plain Weyl algebra"),
        (WeylOp, 2, {((0,), (0,)): 1}, "multi-index length does not match rank"),
        (WeylOp, 1, {((0, 0), (0,)): 1}, "multi-index length does not match rank"),
        (LaurentWeylOp, 2, None, "Laurent rank 2 must be at most 1"),
        (LaurentWeylOp, 3, {((0,), (0,)): 1}, "Laurent rank 3 must be at most 1"),
    ])
    def test_public_refusals_unchanged(self, cls, rank, terms, message):
        for build in (cls, lambda rank, terms: ref_weyl_terms(cls, rank, terms)):
            with pytest.raises(ValueError) as exc:
                build(rank, terms)
            assert str(exc.value) == message

    def test_laurent_rank_and_rank_mismatch_refused(self):
        L = LaurentWeylOp
        for make in (lambda: L.x(0, 2), lambda: L.dx(0, 2), lambda: L.const(1, 2),
                     lambda: L(2)):
            with pytest.raises(UnsupportedInputError, match="^Laurent rank 2 must be at most 1$"):
                make()
        for make in (lambda: L.const(1, 0), lambda: L(0), lambda: L(-1, {})):
            with pytest.raises(UnsupportedInputError, match="^Laurent rank -?[01] must be at least 1$"):
                make()
        for a, b in ((WeylOp.x(0, 2), X), (X, WeylOp.dx(1, 2))):
            for op in (operator.add, operator.sub, operator.mul, operator.eq):
                with pytest.raises(ValueError, match="^rank mismatch$"):
                    op(a, b)


# The body of _normal_product before it was memoised, kept as the
# reference: a list of (alpha, beta, int) triples built coordinate by
# coordinate.
def ref_normal_product(a1, b1, a2, b2):
    factors_per_coord = []
    for i in range(len(a1)):
        coords = []
        for k in range(b1[i] + 1):
            c = comb(b1[i], k) * falling(a2[i], k)
            if c:
                coords.append((a1[i] + a2[i] - k, b1[i] + b2[i] - k, c))
        factors_per_coord.append(coords)
    combos = [((), (), 1)]
    for coords in factors_per_coord:
        new = []
        for alpha, beta, c in combos:
            for a, b, c2 in coords:
                new.append((alpha + (a,), beta + (b,), c * c2))
        combos = new
    return combos


class TestNormalProductKernel:
    def assert_matches(self, quadruples):
        for a1, b1, a2, b2 in quadruples:
            want = ref_normal_product(a1, b1, a2, b2)
            # the first call may compute, the second reads the cache
            for _ in range(2):
                got = _normal_product(a1, b1, a2, b2)
                assert type(got) is tuple and list(got) == want

    def test_rank_one_every_quadruple_up_to_four(self):
        exps = [(e,) for e in range(5)]
        self.assert_matches(product(exps, repeat=4))

    def test_rank_two(self):
        # Every quadruple of multi-indices with entries <= 2 (6561), then a
        # seeded sample with entries <= 4: all 390 625 of those take ~14 s.
        small = list(product(range(3), repeat=2))
        self.assert_matches(product(small, repeat=4))
        rng = random.Random(14)
        exps = list(product(range(5), repeat=2))
        self.assert_matches(tuple(rng.choice(exps) for _ in range(4)) for _ in range(4000))

    def test_laurent_exponents(self):
        # negative x powers (the Laurent algebra) go through the same kernel
        exps = [(e,) for e in range(-3, 3)]
        self.assert_matches(
            (a1, b1, a2, b2) for a1, a2 in product(exps, repeat=2)
            for b1, b2 in product([(0,), (1,), (3,)], repeat=2))

    def test_cache_is_bounded(self):
        maxsize = _normal_product.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16
        for a in range(maxsize + 50):
            _normal_product((a,), (1,), (1,), (0,))
        assert _normal_product.cache_info().currsize <= maxsize


class TestScalarPaths:
    def test_shift_times_scalar_matches_the_full_product(self):
        rng = random.Random(41)
        for _ in range(200):
            a = rand_shift(rng)
            for c in (0, 1, -2, Fraction(3, 5), Fraction(-7, 2)):
                want = a * ShiftOp.t_power(0, c)
                for got in (a * c, c * a):
                    assert got == want and str(got) == str(want)
                    assert_normal(got)


# The Weyl arithmetic from before integral coefficients were held as ints,
# kept as the reference: one Fraction per coefficient, a sum added onto a
# copy and then cleared of zeros, and the Newton coefficients of the
# inverse Mellin map divided out in Fractions.
class RefWeyl:
    """A Weyl or Laurent operator as a dict of Fraction coefficients."""

    _monomial_str = _WeylBase._monomial_str

    def __init__(self, rank, terms):
        self.rank = rank
        self.terms = {k: frac(c) for k, c in terms.items() if c}

    @property
    def is_zero(self):
        return not self.terms

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            zero = (0,) * self.rank
            return RefWeyl(self.rank, {(zero, zero): other})
        return other

    def _summed(self, pairs):
        out = dict(self.terms)
        for k, v in pairs:
            out[k] = out[k] + v if k in out else v
        return RefWeyl(self.rank, out)

    def __add__(self, other):
        return self._summed(self._coerce(other).terms.items())

    def __sub__(self, other):
        return self._summed((k, -c) for k, c in self._coerce(other).terms.items())

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefWeyl(self.rank, {k: c * other for k, c in self.terms.items()})
        return RefWeyl(self.rank, {})._summed(
            ((alpha, beta), c1 * c2 * n)
            for (a1, b1), c1 in self.terms.items()
            for (a2, b2), c2 in other.terms.items()
            for alpha, beta, n in ref_normal_product(a1, b1, a2, b2))

    def fourier(self):
        # x^alpha dx^beta -> (-1)^|alpha| dx^alpha x^beta, normal ordered
        zero = (0,) * self.rank
        return RefWeyl(self.rank, {})._summed(
            ((a, b), c * (-1) ** sum(alpha) * n)
            for (alpha, beta), c in self.terms.items()
            for a, b, n in ref_normal_product(zero, alpha, beta, zero))

    def __str__(self):
        return ref_weyl_to_str(self)


def ref_inverse_mellin(sh: ShiftOp) -> RefWeyl:
    """p(s) = sum_b Delta^b p(0) / b! * s(s-1)...(s-b+1), in Fractions."""
    terms = {}
    for j, p in sh.terms.items():
        values = [sum(c * i**k for k, c in enumerate(p.coeffs)) for i in range(p.degree + 1)]
        for b in range(len(values)):
            terms[((j + b,), (b,))] = values[0] / factorial(b)
            values = [y - x for x, y in zip(values, values[1:])]
    return RefWeyl(1, terms)


def assert_matches_ref(got, want: RefWeyl):
    assert got.terms == want.terms
    assert str(got) == str(want)
    assert_normal(got)


HALVES = (1, -1, 2, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3),
          Fraction(-5, 3))
SEVENTHS = (0, 1, -3, Fraction(1, 7), Fraction(-4, 7), Fraction(5, 2), Fraction(-1, 6))


class TestIntegerCoefficients:
    @pytest.mark.parametrize("cls,rank,min_x", [
        (WeylOp, 1, 0), (WeylOp, 2, 0), (WeylOp, 3, 0), (LaurentWeylOp, 1, -2),
    ], ids=["weyl-rank1", "weyl-rank2", "weyl-rank3", "laurent"])
    def test_arithmetic_matches_fraction_reference(self, cls, rank, min_x):
        # halves and thirds, so that sums, products and scalings land on
        # integers as well as off them
        rng = random.Random(2400 + 10 * rank + min_x)

        def draw():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                alpha = tuple(rng.randint(min_x, 2) for _ in range(rank))
                beta = tuple(rng.randint(0, 2) for _ in range(rank))
                terms[(alpha, beta)] = rng.choice(HALVES)
            return cls(rank, terms), RefWeyl(rank, terms)

        for _ in range(150):
            (a, ra), (b, rb) = draw(), draw()
            if rng.random() < 0.3:
                b, rb = b - a * 2, rb - ra * 2  # a + b and a - b cancel terms
            c = rng.choice(HALVES + (0, Fraction(4, 2)))
            cases = [(a + b, ra + rb), (a - b, ra - rb), (b - a, rb - ra), (a * b, ra * rb),
                     (a * c, ra * c), (c * a, ra * c), (a + c, ra + c), (c + a, ra + c),
                     (a - c, ra - c), (c - a, c - ra)]
            if cls is WeylOp:
                cases += [(fourier_auto(a), ra.fourier()),
                          (fourier_auto(fourier_auto(b)), rb.fourier().fourier())]
            if rank == 1:
                image = mellin_op(a)
                cases.append((inverse_mellin_op(image), ref_inverse_mellin(image)))
            for got, want in cases:
                assert_matches_ref(got, want)

    def test_inverse_mellin_matches_fraction_reference(self):
        # halves and thirds, then sevenths and degrees up to 5, so that
        # Newton coefficients land off the integers at b >= 2 from levels
        # with p.den > 1 as well as on them
        rng = random.Random(2450)
        pools = [(HALVES + (0,), 4)] * 300 + [(SEVENTHS, 6)] * 300
        off_integers = 0
        for pool, length in pools:
            sh = ShiftOp({rng.randint(-2, 2): Poly([rng.choice(pool)
                                                    for _ in range(rng.randint(0, length))])
                          for _ in range(rng.randint(0, 3))})
            got = inverse_mellin_op(sh)
            assert_matches_ref(got, ref_inverse_mellin(sh))
            for ((a,), (b,)), c in got.terms.items():
                if b >= 2 and type(c) is Fraction and sh.terms[a - b].den > 1:
                    off_integers += 1
        assert off_integers >= 100

    def test_inverse_mellin_keys_are_shared_and_fresh_equal(self):
        sh = Fraction(1, 2) * T**2 * S**3 - Ti * (S - Fraction(2, 3)) + 5
        first, second = inverse_mellin_op(sh), inverse_mellin_op(sh)
        assert first == second and len(first.terms) == 6
        for key, again in zip(sorted(first.terms), sorted(second.terms)):
            (a,), (b,) = key
            fresh = ((a,), (b,))
            assert key == fresh and hash(key) == hash(fresh)
            assert type(key) is tuple and all(type(part) is tuple for part in key)
            assert key is again  # one cached key for both results
        assert mellin_op(first) == sh

    def test_key_cache_is_bounded(self):
        maxsize = _laurent_key.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16
        for a in range(maxsize + 50):
            _laurent_key(a, 1)
        assert _laurent_key.cache_info().currsize <= maxsize
        # a key evicted and built again is still the fresh tuple
        assert _laurent_key(0, 1) == ((0,), (1,))

    def test_each_normalising_step_gives_ints(self):
        half, key = Fraction(1, 2), ((1,), (0,))
        one = ((0,), (0,))
        ops = {
            "sum": half * X + half * X,
            "difference": X * 2 - half * X - half * X,
            "scalar product": (half * X) * 2,
            "scalar on the left": 2 * (half * X),
            "product": (half * X) * (2 * DX) - X * DX + X,
            "constructor": WeylOp(1, {key: Fraction(2, 2)}),
            "generator": X,
        }
        for name, op in ops.items():
            assert op.terms == {key: 1} and type(op.terms[key]) is int, name
        for op in (X + half + half, X + Fraction(2, 2), Fraction(4, 4) - -X,
                   WeylOp.const(Fraction(4, 4)) + X):
            assert type(op.terms[one]) is int and op.terms[one] == 1
        assert type(DX.terms[((0,), (1,))]) is int
        assert type(fourier_auto(half * X * X * 2).terms[((0,), (2,))]) is int
        # 2*T^2*(s^2 - s) + Ti*(3) + s^3 - 1 has integer Newton coefficients
        sh = 2 * T**2 * (S * S - S) + Ti * 3 + S**3 - 1
        back = inverse_mellin_op(sh)
        assert all(type(c) is int for c in back.terms.values()) and len(back.terms) == 6
        assert mellin_op(back) == sh

    def test_scalar_in_a_sum_adds_one_term(self, monkeypatch):
        # the literal goes straight into the zero-exponent key: no constant
        # operator is built on the way
        def refuse(*args):
            raise AssertionError("a constant operator was built")

        for cls in (WeylOp, LaurentWeylOp):
            monkeypatch.setattr(cls, "const", classmethod(refuse))
        monkeypatch.setattr(ShiftOp, "t_power", classmethod(refuse))
        w = WeylOp.x(0, 2) * WeylOp.dx(1, 2)
        assert str(w + 1 - Fraction(3, 2)) == "-1/2 + x1*dx2"
        assert str(Fraction(3, 2) - w) == "3/2 - x1*dx2"
        assert str(LX + 2) == "2 + x"
        assert str(T * S + 2 - Fraction(1, 3)) == "(5/3) + T*(s)"
        assert str(1 - (S + 1)) == "-s"
        assert S - S + 0 == ShiftOp() and str(0 + X - 0) == "x"
        # a bool is an int, and adds as 1 did when it became a constant first
        assert (str(X + True), str(True + S)) == ("1 + x", "1 + s")


# The body of ShiftOp._products before the level-sum kernel, kept as the
# reference: one shifted Poly product per pair of terms, the Polys summed
# per level by _merged.
def ref_shift_products(a: ShiftOp, b: ShiftOp) -> ShiftOp:
    return _trusted(ShiftOp, _merged([(i + j, p.shift(j) * q)
                                      for i, p in a.terms.items() for j, q in b.terms.items()]))


def ref_shift_power(a: ShiftOp, n: int) -> ShiftOp:
    return reduce(ref_shift_products, [a] * n, ShiftOp.t_power(0))


def assert_same_shift(got: ShiftOp, want: ShiftOp):
    assert got.terms == want.terms and str(got) == str(want)
    assert_normal(got)


class TestShiftLevelSums:
    def test_products_and_powers_match_reference(self):
        rng = random.Random(2700)
        for _ in range(400):
            a = seeded_operator(rng, ShiftOp, 1, 0)
            b = seeded_operator(rng, ShiftOp, 1, 0)
            if rng.random() < 0.2:
                b = b - a
            assert_same_shift(a * b, ref_shift_products(a, b))
            assert_same_shift(b * a, ref_shift_products(b, a))
            n = rng.randint(0, 3)
            assert_same_shift(a ** n, ref_shift_power(a, n))

    def test_denominators_meeting_on_one_level(self):
        # level 0 receives 1/2 * 1/5 (over 10) from T*Ti and 1/3 * 1/2
        # (over 6) from Ti*T, summed over 30
        a = T * Fraction(1, 2) + Ti * Fraction(1, 3)
        b = Ti * Fraction(1, 5) + T * Fraction(1, 2)
        got = a * b
        assert_same_shift(got, ref_shift_products(a, b))
        assert got.coeff(0) == Fraction(4, 15)
        # the command line that CI runs: denominators 2, 3 and 5 on level 0
        half, third = Fraction(1, 2), Fraction(1, 3)
        c = (half * T + third * S) * (Ti * S + Fraction(1, 5)) - Fraction(1, 6) * S**2
        assert str(c) == "Ti*(-1/3*s + 1/3*s^2) + (17/30*s - 1/6*s^2) + T*(1/10)"
        left, right = half * T + third * S, Ti * S + Fraction(1, 5)
        assert_same_shift(left * right, ref_shift_products(left, right))

    def test_a_level_that_cancels_to_zero(self):
        # 1/2 * 2/3 and 1/3 * -1 meet on level 0 and cancel
        a = T * Fraction(1, 2) + Ti * Fraction(1, 3)
        b = Ti * Fraction(2, 3) - T
        got = a * b
        assert_same_shift(got, ref_shift_products(a, b))
        assert got.levels() == [-2, 2] and 0 not in got.terms
        # s and -(s + 2) cancel on level 0 only after their Taylor shifts
        # by 1 and -1: (Ti*s)(T) = s + 1 and (T*(s + 2))(Ti) = s + 1
        a = Ti * S - T * (S + 2)
        b = T + Ti
        got = a * b
        assert_same_shift(got, ref_shift_products(a, b))
        assert got.levels() == [-2, 2] and 0 not in got.terms

    def test_negative_levels(self):
        a = Ti**2 * (Fraction(1, 2) * S + Fraction(1, 3))
        b = Ti * (S**2 - Fraction(1, 5)) + T**3 * Fraction(2, 7)
        for x, y in ((a, b), (b, a), (a, a), (b, b)):
            got = x * y
            assert_same_shift(got, ref_shift_products(x, y))
        assert (a * b).levels() == [-3, 1] and (a * a).levels() == [-4]
        assert_same_shift(a ** 3, ref_shift_power(a, 3))
