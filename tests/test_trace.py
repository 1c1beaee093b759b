"""Tests for the exact trace-function calculus.

Worked examples are frozen as oracles: kernel values, transform images
of delta functions, the four-case closed form for the paired kernel sum,
Gauss-sum products, and the measured scalars of the diagnostic checks.
Brute-force double sums serve as independent oracles for the counting
shortcuts, and character orthogonality is checked exhaustively for
small fields.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from monofour import checks, trace
from monofour.scalars import cyclotomic
from monofour.scalars.cyclotomic import CycScalar, zeta
from monofour.scalars.ffield import Fq
from monofour.scalars.poly import UnsupportedInputError
from monofour.trace import (
    CharacterTable,
    TraceFunction,
    check_BL2,
    check_CV,
    check_P2B,
    check_fbneq,
    check_keythm,
    check_lem_mon_shadow,
    check_mon_equivalence,
    conv_Gm,
    diag_propB3,
    four_B,
    four_psi,
    gauss_g_diagnostic,
    gauss_sum,
    gauss_suite,
    kernel_pair_sum,
    monodromic_span_basis,
    power_count_trace,
    scaling_orbits,
    scaling_sum_zero_basis,
    t_B,
    t_B_units,
)


class TestTraceFunction:
    def test_delta_and_value(self):
        f = TraceFunction.delta(5, 2)
        assert f.value(2) == 1
        assert f.value(0) == 0
        assert f.values == (0, 0, 1, 0, 0)

    def test_constant_and_zero(self):
        assert TraceFunction.constant(3, 2, Fraction(7)).value((1, 2)) == 7
        assert TraceFunction.zero(3, 2).values == (0,) * 9

    def test_values_in_lex_order(self):
        f = TraceFunction(3, 2, [Fraction(i) for i in range(9)])
        assert list(f.points()) == [(a, b) for a in range(3) for b in range(3)]
        assert all(f.value(p) == 3 * p[0] + p[1] for p in f.points())

    def test_arithmetic(self):
        a = TraceFunction.delta(3, 1)
        b = TraceFunction.delta(3, 2)
        s = a - b
        assert s.value(1) == 1 and s.value(2) == -1 and s.value(0) == 0
        assert (s - a) == -b
        assert (-a).value(1) == -1
        assert a.scale(Fraction(5)).value(1) == 5

    def test_mixed_cyclotomic_values(self):
        f = TraceFunction(5, 1, [zeta(4), Fraction(1), zeta(4), Fraction(0), zeta(4, 3)])
        g = f.scale(2)
        assert g.value(0) == zeta(4) + zeta(4)
        assert (f - f) == TraceFunction.zero(5, 1)

    def test_immutable(self):
        f = TraceFunction.delta(3, 0)
        with pytest.raises(AttributeError, match="^TraceFunction is immutable$"):
            f.rank = 2

    def test_points_outside_the_space_are_refused(self):
        f = TraceFunction.delta(3, (1, 2))
        for bad in ((-1, 0), (3, 0), (1,), (1, 2, 0)):
            with pytest.raises(UnsupportedInputError, match="not a point of F_3"):
                f.value(bad)
        for bad in ((-1,), (3,), 5, (0, 9)):
            with pytest.raises(UnsupportedInputError, match="not a point of F_3"):
                TraceFunction.delta(3, bad)
        assert f.value((1, 2)) == 1 and TraceFunction.delta(3, 2).value(2) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            TraceFunction(3, 2, [Fraction(0)] * 8)

    def test_rank_below_one_is_refused(self):
        for build in (
            lambda: TraceFunction.constant(3, -1, 0),  # 3**-1 once sized the table
            lambda: TraceFunction.constant(3, 0, 0),
            lambda: TraceFunction.delta(3, ()),
            lambda: TraceFunction(3, 0, [5]),
            lambda: four_B(TraceFunction(3, 0, [5])),
        ):
            with pytest.raises(UnsupportedInputError, match=r"^dimension d = -?\d must be at least 1$"):
                build()

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            TraceFunction.delta(3, 0) - TraceFunction.delta(5, 0)


class TestCharacterTable:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 9])
    def test_additive_character_sums_to_zero(self, q):
        table = CharacterTable(q)
        acc = CycScalar.from_rational(Fraction(0))
        for a in range(q):
            acc = table.psi(a) + acc
        assert acc.is_zero

    @pytest.mark.parametrize("q", [3, 5, 7, 11])
    def test_multiplicative_orthogonality(self, q):
        table = CharacterTable(q)
        field = Fq(q)
        for k in range(q - 1):
            acc = Fraction(0)
            for a in field.units():
                acc = table.chi(k, a) + acc
            if k == 0:
                assert acc == q - 1
            else:
                assert (acc + 0).is_zero

    def test_chi_vanishes_at_zero(self):
        assert CharacterTable(7).chi(2, 0) == 0

    def test_chi_order(self):
        table = CharacterTable(7)
        assert [table.chi_order(k) for k in range(6)] == [1, 6, 3, 2, 3, 6]

    def test_chars_with_order_dividing(self):
        table = CharacterTable(7)
        assert table.chars_with_order_dividing(3) == [0, 2, 4]
        assert table.chars_with_order_dividing(1) == [0]
        with pytest.raises(ValueError):
            table.chars_with_order_dividing(4)

    def test_q2_only_trivial(self):
        table = CharacterTable(2)
        assert table.chars_with_order_dividing(1) == [0]
        assert table.chi(0, 1) == 1

    def test_prime_power_trace_character(self):
        table = CharacterTable(9)
        field = Fq(9)
        for a in range(9):
            assert table.psi(a) == zeta(3, field.frobenius_trace(a))


class TestKernel:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 9])
    def test_values_and_sum(self, q):
        f = t_B(q)
        assert f.value(1) == 1 - q
        assert f.value(0) == 1
        assert all(f.value(x) == 1 for x in range(q) if x != 1)
        assert sum(f.values) == 0

    def test_units_restriction(self):
        f = t_B_units(5)
        assert f.value(0) == 0
        assert f.value(1) == -4
        assert f.value(2) == 1


class TestFourB:
    def test_delta_zero_is_minus_one(self):
        g = four_B(TraceFunction.delta(5, 0))
        assert g == TraceFunction.constant(5, 1, Fraction(-1))

    def test_delta_one_is_minus_kernel(self):
        assert four_B(TraceFunction.delta(5, 1)) == -t_B(5)

    def test_sign_in_rank_two(self):
        g = four_B(TraceFunction.delta(3, (0, 0)))
        assert g == TraceFunction.constant(3, 2, Fraction(1))

    def test_linear(self):
        a = TraceFunction.delta(5, 2)
        b = TraceFunction.delta(5, 3)
        # a + 3b, written as a - (-3)b
        assert four_B(a - b.scale(Fraction(-3))) == four_B(a) - four_B(b).scale(Fraction(-3))


class TestConvGm:
    def test_delta_one_is_identity(self):
        f = TraceFunction(7, 1, [Fraction(i * i - 3) for i in range(7)])
        assert conv_Gm(TraceFunction.delta(7, 1), f) == f

    def test_kernel_against_delta_zero(self):
        g = conv_Gm(t_B_units(5), TraceFunction.delta(5, 0))
        assert g == TraceFunction.delta(5, 0).scale(Fraction(-1))

    def test_rank_two(self):
        f = TraceFunction.delta(3, (1, 2))
        g = conv_Gm(TraceFunction.delta(3, 2), f)
        assert g == TraceFunction.delta(3, (2, 1))

    def test_fraction_zeros_keep_their_type(self):
        # f is Fraction(0) on the line of (0, 1) and int 0 off its support
        field = Fq(3)
        vals = [0] * 9
        vals[1] = vals[2] = Fraction(0)
        vals[3] = 1
        f = TraceFunction(field, 2, vals)
        got = conv_Gm(t_B_units(field), f)
        assert_same_table(got, ref_conv_Gm(t_B_units(field), f))
        assert [type(v) for v in got.values] == [int, Fraction, Fraction] + [int] * 6
        half = TraceFunction(field, 1, [0, Fraction(1, 2), 0])
        got = conv_Gm(half, TraceFunction.delta(field, (1, 0)))
        assert_same_table(got, ref_conv_Gm(half, TraceFunction.delta(field, (1, 0))))
        assert all(type(v) is Fraction for v in got.values)

    def test_convolver_must_be_rank_one(self):
        with pytest.raises(ValueError):
            conv_Gm(TraceFunction.delta(3, (0, 0)), TraceFunction.delta(3, 0))


def brute_pair_sum(q, d, w, u):
    field = Fq(q)
    kernel = t_B(field)

    def dot(a, b):
        acc = 0
        for x, y in zip(a, b):
            acc = field.sub(acc, field.neg(field.mul(x, y)))
        return acc

    acc = Fraction(0)
    for xi in product(range(q), repeat=d):
        acc += kernel.value(dot(w, xi)) * kernel.value(dot(xi, u))
    return acc


class TestKernelPairSum:
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
    def test_rank_one_exhaustive_vs_brute_force(self, q):
        for w in range(q):
            for u in range(q):
                assert kernel_pair_sum(q, 1, (w,), (u,)) == brute_pair_sum(q, 1, (w,), (u,))

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_four_case_closed_form(self, q):
        for w in range(q):
            for u in range(q):
                s = kernel_pair_sum(q, 1, (w,), (u,))
                if w == 0 and u == 0:
                    assert s == q
                elif w == 0 or u == 0:
                    assert s == 0
                elif w == u:
                    assert s == q * q - q
                else:
                    assert s == -q

    def test_points_outside_the_space_are_refused(self):
        for w, u in (((1,), (1,)), ((1, 0), (1, 0, 0)), ((5,), (5,)), ((0, -1), (0, 1))):
            with pytest.raises(UnsupportedInputError, match=r"not a point of F_3\^2"):
                kernel_pair_sum(3, 2, w, u)
        with pytest.raises(UnsupportedInputError, match=r"not a point of F_3\^1"):
            kernel_pair_sum(3, 1, (5,), (5,))

    def test_rank_below_one_is_refused(self):
        for d, w in ((0, ()), (-1, ())):
            with pytest.raises(UnsupportedInputError, match=rf"^dimension d = {d} must be at least 1$"):
                kernel_pair_sum(3, d, w, w)

    def test_rank_two_vs_brute_force(self):
        q = 3
        for w in product(range(q), repeat=2):
            for u in product(range(q), repeat=2):
                assert kernel_pair_sum(q, 2, w, u) == brute_pair_sum(q, 2, w, u)


# ---------------------------------------------------------------------------
# Reference oracles: the per-term forms of the kernel transform and of the
# multiplicative convolution.  The engine buckets support points by the
# value of the dot product and maps indices through multiplication tables;
# these loop over every term with Fraction accumulators and method calls.
# ---------------------------------------------------------------------------


def ref_dot(field, v, xi):
    """<v, xi> = sum_i v_i xi_i, one field operation at a time."""
    acc = 0
    for vi, xi_i in zip(v, xi):
        acc = field.sub(acc, field.neg(field.mul(vi, xi_i)))
    return acc


# The references sum term by term from the int 0, so each value has the
# type and conductor of the chained sum: an int for int terms, a Fraction
# once a Fraction enters, and a CycScalar at the lcm of every cyclotomic
# operand's conductor, zeros included.


def ref_kernel_transform(f, kernel):
    field, d = f.field, f.rank
    support = [(p, v) for p, v in f.items() if v]
    sign = (-1) ** (d % 2)
    out = []
    for xi in product(range(field.q), repeat=d):
        acc = 0
        for v, val in support:
            acc = acc + val * kernel[ref_dot(field, v, xi)]
        out.append(acc * sign)
    return TraceFunction(field, d, out)


def ref_conv_Gm(g, f):
    """The convolution term by term.  A term whose g value is a rational
    zero is left out when f has no cyclotomic value: it adds nothing, and
    0 * Fraction would make an int sum a Fraction."""
    field, d = f.field, f.rank
    rational_f = not any(isinstance(x, CycScalar) for x in f.values)
    out = []
    for v in f.points():
        acc = 0
        for lam in field.units():
            gl = g.values[lam]
            if rational_f and not isinstance(gl, CycScalar) and gl == 0:
                continue
            li = field.inv(lam)
            moved = tuple(field.mul(li, c) for c in v)
            acc = acc + gl * f.value(moved)
        out.append(acc)
    return TraceFunction(field, d, out)


def ref_four_psi(f):
    table = CharacterTable(f.field)
    return ref_kernel_transform(f, [table.psi(a) for a in range(f.q)])


# (11, 1), (11, 2) and (16, 1) are the largest spaces the profile rows run
ORACLE_SPACES = [(q, d) for q in (2, 3, 4, 5, 7, 8, 9, 11) for d in (1, 2)] + [
    (16, 1), (2, 3), (3, 3)]
VALUE_KINDS = ("int", "fraction", "cyclotomic", "mixed")


def random_values(rng, field, n, kind):
    conductors = sorted({field.p, max(field.q - 1, 1)})
    vals = []
    for _ in range(n):
        pick = rng.choice(("int", "fraction", "cyclotomic")) if kind == "mixed" else kind
        if rng.random() < 0.4:
            vals.append(0)
        elif pick == "int":
            vals.append(rng.randint(-3, 3))
        elif pick == "fraction":
            vals.append(Fraction(rng.randint(-7, 7), rng.choice((2, 3, 4))))
        else:
            cond = rng.choice(conductors)
            vals.append(zeta(cond, rng.randrange(cond)) * rng.randint(-2, 2)
                        + Fraction(rng.randint(-2, 2), 3))
    return vals


def random_function(rng, field, d, kind):
    return TraceFunction(field, d, random_values(rng, field, field.q**d, kind))


def oracle_cases():
    for q, d in ORACLE_SPACES:
        for kind in VALUE_KINDS:
            # cyclotomic values on the larger spaces make the per-term
            # reference too slow to be worth it; ints cover them
            if kind in ("cyclotomic", "mixed") and q**d > 25:
                continue
            yield q, d, kind


def assert_same_table(got, want):
    """Equal values, printed alike, of one type and, for cyclotomic
    values, one conductor: str(zeta(6) * 0) is '0' as for the int 0."""
    assert got == want
    assert [str(v) for v in got.values] == [str(v) for v in want.values]
    assert [(type(v), getattr(v, "conductor", None)) for v in got.values] == [
        (type(v), getattr(v, "conductor", None)) for v in want.values]


class TestTransformOracles:
    @pytest.mark.parametrize("q,d,kind", list(oracle_cases()))
    def test_four_B_matches_per_term_reference(self, q, d, kind):
        field = Fq(q)
        rng = random.Random(q * 100 + d * 10 + VALUE_KINDS.index(kind))
        kernel = t_B(field).values
        for _ in range(2):
            f = random_function(rng, field, d, kind)
            assert_same_table(four_B(f), ref_kernel_transform(f, kernel))

    @pytest.mark.parametrize("q,d,kind", list(oracle_cases()))
    def test_four_psi_matches_per_term_reference(self, q, d, kind):
        field = Fq(q)
        rng = random.Random(q * 100 + d * 10 + VALUE_KINDS.index(kind) + 5)
        f = random_function(rng, field, d, kind)
        assert_same_table(four_psi(f), ref_four_psi(f))

    @pytest.mark.parametrize("q,d,kind", list(oracle_cases()))
    def test_conv_Gm_matches_per_term_reference(self, q, d, kind):
        field = Fq(q)
        rng = random.Random(q * 100 + d * 10 + VALUE_KINDS.index(kind) + 7)
        table = CharacterTable(field)
        convolvers = [
            t_B_units(field),
            TraceFunction(field, 1, random_values(rng, field, q, kind)),
            table.psi_function(),
            table.chi_function(1),
            power_count_trace(field, 2),
            # cyclotomic zeros: they add nothing but their conductor
            TraceFunction(field, 1, [v * 0 for v in table.psi_function().values]),
        ]
        f = random_function(rng, field, d, kind)
        for g in convolvers:
            assert_same_table(conv_Gm(g, f), ref_conv_Gm(g, f))

    @pytest.mark.parametrize("q,d", [(3, 3), (4, 2), (5, 2), (7, 1)])
    def test_pair_sums_equal_the_literal_double_transform(self, q, d):
        field = Fq(q)
        points = list(product(range(q), repeat=d))
        for w in points:
            twice = four_B(four_B(TraceFunction.delta(field, w)))
            sums = [kernel_pair_sum(q, d, w, u) for u in points]
            assert sums == list(twice.values)

    @pytest.mark.parametrize("q,d", [(5, 2), (3, 3), (4, 2)])
    def test_keythm_counting_path_matches_literal_path(self, monkeypatch, q, d):
        field = Fq(q)
        literal = check_keythm(field, d)
        assert literal["verdict"] is True
        monkeypatch.setattr(trace, "_LITERAL_BOUND", 0)
        assert check_keythm(field, d) == literal

    @pytest.mark.parametrize("q,d", [(2, 2), (5, 1), (4, 2), (9, 1)])
    def test_four_psi_of_zero_tables(self, q, d):
        # no support: the int 0 everywhere, whatever the zeros' types
        field = Fq(q)
        zeros = [0, Fraction(0), zeta(max(q - 1, 1)) * 0, zeta(7) * 0]
        for f in (TraceFunction.zero(field, d),
                  TraceFunction(field, d, [zeros[i % 4] for i in range(q**d)])):
            got = four_psi(f)
            assert_same_table(got, ref_four_psi(f))
            assert all(type(v) is int for v in got.values)
        # next to a support, zeros are still outside it and add no conductor
        f = TraceFunction(field, d, [0, 2] + [zeros[3]] * (q**d - 2))
        got = four_psi(f)
        assert_same_table(got, ref_four_psi(f))
        assert {v.conductor for v in got.values} == {field.p}

    @pytest.mark.parametrize("q,d", [(3, 2), (5, 1), (4, 2), (9, 1)])
    def test_four_psi_of_fraction_tables(self, q, d):
        field = Fq(q)
        rng = random.Random(q * 10 + d)
        f = TraceFunction(field, d, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                                     for _ in range(q**d)])
        got = four_psi(f)
        assert_same_table(got, ref_four_psi(f))
        assert {v.conductor for v in got.values} == {field.p}

    @pytest.mark.parametrize("q", [3, 4, 5, 7])
    def test_conv_Gm_with_one_cyclotomic_line(self, q):
        # f is cyclotomic on the line of (0, 1) only: with a rational g,
        # every other line keeps the chained rational sum
        field = Fq(q)
        rng = random.Random(q)
        line = set(field.units())  # (0, lam) sits at index lam
        vals = [zeta(field.p, rng.randrange(field.p)) * rng.randint(1, 2) if i in line
                else rng.choice((0, 1, -2, Fraction(1, 2), Fraction(0))) for i in range(q * q)]
        f = TraceFunction(field, 2, vals)
        for g in (t_B_units(field), TraceFunction(field, 1, [0, Fraction(1, 3)] + [0] * (q - 2))):
            got = conv_Gm(g, f)
            assert_same_table(got, ref_conv_Gm(g, f))
            kinds = [isinstance(v, CycScalar) for v in got.values]
            assert kinds == [i in line for i in range(q * q)]

    @pytest.mark.parametrize("q,d", [(3, 2), (5, 1), (7, 1), (4, 2)])
    def test_conv_Gm_with_cyclotomic_zeros_in_f(self, q, d):
        # a zero adds nothing to a sum but its conductor, line by line
        field = Fq(q)
        rng = random.Random(q * 10 + d)
        zeros = (zeta(3) * 0, zeta(5) * 0, zeta(field.p) * 0)
        vals = [rng.choice(zeros + (0, 1, Fraction(-1, 2))) for _ in range(q**d)]
        f = TraceFunction(field, d, vals)
        table = CharacterTable(field)
        for g in (t_B_units(field), table.psi_function(), table.chi_function(1)):
            assert_same_table(conv_Gm(g, f), ref_conv_Gm(g, f))

    def test_tables_hold_ints(self):
        assert all(type(v) is int for v in t_B(5).values + t_B_units(5).values)
        assert all(type(v) is int for v in TraceFunction.delta(3, (1, 2)).values)
        assert all(type(v) is int for v in power_count_trace(7, 3).values)
        assert all(type(v) is int for v in four_B(TraceFunction.delta(5, 2)).values)


class TestLineTable:
    """The cached lines through 0, and the span basis read from them,
    against constructions one field operation at a time."""

    @pytest.mark.parametrize("q,d", ORACLE_SPACES)
    def test_lines_cover_every_point_once(self, q, d):
        field = Fq(q)
        points = list(product(range(q), repeat=d))
        lines = trace._lines(field, d)
        covered = [i for _, moved in lines for i in moved]
        assert sorted(covered) == list(range(q**d))
        assert lines[0][1] == [0]
        reps = [points[moved[0]] for _, moved in lines]
        assert reps == sorted(reps)
        for dots, moved in lines:
            rep = points[moved[0]]
            assert dots == [ref_dot(field, v, rep) for v in points]
            if any(rep):
                assert moved == [points.index(tuple(field.mul(lam, c) for c in rep))
                                 for lam in field.units()]
                assert rep == min(points[i] for i in moved)

    @pytest.mark.parametrize("q,d,n", [(5, 2, 4), (4, 2, 3), (7, 1, 3)])
    def test_span_basis_from_field_operations(self, q, d, n):
        # int indicators, then one chi_k eigenfunction per orbit, orbits
        # ordered by their first point
        field, table = Fq(q), CharacterTable(q)
        points = list(product(range(q), repeat=d))

        def orbit(p):
            return [tuple(field.mul(lam, c) for c in p) for lam in field.units()]

        reps = [p for p in points if any(p) and min(orbit(p)) == p]
        want = [TraceFunction.delta(field, (0,) * d)]
        for k in table.chars_with_order_dividing(n):
            for rep in reps:
                vals = [0] * q**d
                for lam, v in zip(field.units(), orbit(rep)):
                    vals[points.index(v)] = table.chi(k, lam) if k else 1
                want.append(TraceFunction(field, d, vals))
        got = monodromic_span_basis(field, d, n)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_table(g, w)


class TestIndexTables:
    """The cached F_q^d index tables, shared by every transform and
    convolution of one process, against the per-term references."""

    def test_interleaved_fields_and_pairings(self):
        trace._index_tables.cache_clear()
        rng = random.Random(1013)
        spaces = [(Fq(5), 2), (Fq(4), 2), (Fq(5), 1), (Fq(4), 1)]
        for _ in range(2):
            for field, d in spaces:
                table = CharacterTable(field)
                f = random_function(rng, field, d, "mixed")
                assert_same_table(four_B(f), ref_kernel_transform(f, t_B(field).values))
                assert_same_table(four_psi(f), ref_four_psi(f))
                for g in (t_B_units(field), table.chi_function(1)):
                    assert_same_table(conv_Gm(g, f), ref_conv_Gm(g, f))
        assert trace._index_tables.cache_info().currsize == len(spaces)

    def test_spaces_above_the_bound_are_not_cached(self):
        field = Fq(17)  # 289 points in rank 2
        assert field.q**2 > trace._TABLE_POINTS
        trace._index_tables.cache_clear()
        rng = random.Random(17)
        vals = [0] * field.q**2
        for i in rng.sample(range(len(vals)), 3):
            vals[i] = rng.randint(1, 3)
        f = TraceFunction(field, 2, vals)
        assert_same_table(four_B(f), ref_kernel_transform(f, t_B(field).values))
        assert_same_table(conv_Gm(t_B_units(field), f), ref_conv_Gm(t_B_units(field), f))
        assert trace._index_tables.cache_info().currsize == 0

    def test_cache_is_bounded(self):
        trace._index_tables.cache_clear()
        spaces = [(q, d) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16) for d in (1, 2)]
        for q, d in spaces:
            four_B(TraceFunction.delta(q, (1,) * d))
        info = trace._index_tables.cache_info()
        assert len(spaces) > info.maxsize == info.currsize
        assert info.misses == len(spaces)


class TestTransformSquared:
    @pytest.mark.parametrize("q,d", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2)])
    def test_identity_holds_exhaustively(self, q, d):
        report = check_keythm(q, d)
        assert report["verdict"] is True
        assert report["mode"] == "exhaustive"
        assert report["failures"] == 0

    def test_hand_computed_rank_one(self):
        f = TraceFunction.delta(3, 2)
        lhs = four_B(four_B(f))
        rhs = conv_Gm(t_B_units(3), f).scale(Fraction(-3))
        assert lhs == rhs

    def test_constant_function_case(self):
        f = TraceFunction.constant(3, 1, Fraction(1))
        assert four_B(four_B(f)) == conv_Gm(t_B_units(3), f).scale(Fraction(-3))

    def test_counting_path_matches_literal(self):
        # above the literal-squaring size bound the counting expansion takes over
        report = check_keythm(11, 2)
        assert report["verdict"] is True
        assert report["mode"] == "exhaustive"


class TestScalingSumZero:
    @pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_square_is_power_scaling(self, q, d):
        report = check_CV(q, d)
        assert report["verdict"] is True
        assert report["stable"] is True
        assert report["control_rejected"] is True

    def test_subspace_dimension(self):
        assert check_CV(3, 1)["subspace_dim"] == 1
        assert check_CV(5, 2)["subspace_dim"] == 18

    def test_character_eigenfunction_directly(self):
        table = CharacterTable(5)
        f = table.chi_function(1)
        assert four_B(four_B(f)) == f.scale(Fraction(25))

    def test_basis_lies_in_subspace(self):
        field = Fq(5)
        for f in scaling_sum_zero_basis(field, 1):
            assert f.value(0) == 0
            assert sum(f.value(x) for x in field.units()) == 0

    @pytest.mark.parametrize("q,d", [(5, 1), (3, 2), (4, 2)])
    def test_membership_reads_the_origin_and_every_orbit(self, q, d):
        field = Fq(q)
        basis = scaling_sum_zero_basis(field, d)
        assert all(trace._in_scaling_sum_zero(f) for f in basis)
        origin = TraceFunction.delta(field, (0,) * d)
        assert not trace._in_scaling_sum_zero(origin)
        assert not trace._in_scaling_sum_zero(basis[-1] - origin)
        assert not trace._in_scaling_sum_zero(TraceFunction.delta(field, (1,) * d))


class TestInvertedCharacterSum:
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_reproduces_negative_kernel(self, q):
        report = check_P2B(q)
        assert report["verdict"] is True
        assert report["value_at_0"] == "-1"
        assert report["value_at_1"] == str(q - 1)

    def test_requires_prime_field(self):
        with pytest.raises(ValueError):
            check_P2B(4)

    def test_a_negated_kernel_fails(self, monkeypatch):
        real = trace.t_B
        monkeypatch.setattr(trace, "t_B", lambda field: -real(field))
        report = check_P2B(5)
        assert report["verdict"] is False
        assert report["value_at_0"] == "-1"


class TestTransformFactorization:
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_rank_one(self, q):
        assert check_BL2(q, 1)["verdict"] is True

    def test_rank_two(self):
        assert check_BL2(3, 2)["verdict"] is True

    def test_requires_prime_field(self):
        with pytest.raises(ValueError):
            check_BL2(9)


# The _spread calls of the full profile's bl2 rows at seed 7: each line's
# buckets are spread once for four_psi, and g once and each line of
# four_psi(f) once for conv_Gm.
BL2_FULL_SPREADS = 1883


def test_bl2_spreads_each_operand_once_per_line(monkeypatch):
    calls = []
    real = cyclotomic._spread

    def counted(x, n):
        calls.append(n)
        return real(x, n)

    monkeypatch.setattr(cyclotomic, "_spread", counted)
    monkeypatch.setattr(trace, "_spread", counted)
    rows = [params for check_id, params in checks.profile_tasks("full") if check_id == "bl2"]
    assert len(rows) == 6
    for params in rows:
        assert checks.run_check("bl2", dict(params, seed=7)).verdict == "pass"
    assert len(calls) == BL2_FULL_SPREADS


class TestValueSeparation:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_values(self, q):
        report = check_fbneq(q)
        assert report["verdict"] is True
        assert report["delta0_is_minus_one"] is True
        assert report["delta1_is_minus_tB"] is True

    def test_transforms_differ_on_odd_prime(self):
        assert check_fbneq(5)["differs_from_character_transform"] is True

    def test_q2_no_comparison(self):
        assert check_fbneq(2)["differs_from_character_transform"] is None


class TestPowerCountKernel:
    def test_square_counts_q5(self):
        f = power_count_trace(5, 2)
        assert [f.value(x) for x in range(5)] == [0, 2, 0, 0, 2]

    def test_n1_is_unit_indicator(self):
        f = power_count_trace(7, 1)
        assert all(f.value(x) == 1 for x in range(1, 7))
        assert f.value(0) == 0

    def test_full_order_concentrates_at_one(self):
        f = power_count_trace(7, 6)
        assert f.value(1) == 6
        assert all(f.value(x) == 0 for x in range(7) if x != 1)

    def test_total_mass(self):
        assert sum(power_count_trace(7, 3).values) == 6


class TestGaussSums:
    def test_product_identity_q5(self):
        table = CharacterTable(5)
        field = Fq(5)
        for k in (1, 2, 3):
            prod = gauss_sum(5, k) * gauss_sum(5, -k) * table.chi(k, field.neg(1))
            assert prod == 5

    def test_quadratic_square_q7(self):
        g = gauss_sum(7, 3)
        assert g * g == -7

    def test_trivial_character_sum(self):
        assert gauss_sum(5, 0) == -1

    @pytest.mark.parametrize("q,n", [(5, 4), (7, 2), (7, 3), (7, 6)])
    def test_suite_verdicts(self, q, n):
        report = gauss_suite(q, n)
        assert report["verdict"] is True
        assert report["point_count_matches_character_sum"] is True
        assert all(v == str(q) for v in report["gauss_products"].values())

    def test_suite_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_suite(5, 3)


class TestGaussConvolutionDiagnostic:
    def brute_convolution(self, q, n):
        field = Fq(q)
        t0 = power_count_trace(field, n)
        tg = four_psi(t0)
        gvals = list(tg.values)
        gvals[0] = Fraction(0)
        tg = TraceFunction(field, 1, gvals)
        ivals = [Fraction(0)] + [tg.value(field.inv(lam)) for lam in field.units()]
        return conv_Gm(TraceFunction(field, 1, ivals), tg)

    @pytest.mark.parametrize("q,n", [(5, 1), (5, 2), (5, 4), (7, 2), (7, 3), (7, 6)])
    def test_closed_form(self, q, n):
        # conv(x) = (q-1) * (q * t0(-x) - (q-1)) on units, 0 at the origin
        field = Fq(q)
        t0 = power_count_trace(field, n)
        conv = self.brute_convolution(q, n)
        assert conv.value(0) == 0
        for x in field.units():
            expect = Fraction(q - 1) * (Fraction(q) * t0.value(field.neg(x)) - (q - 1))
            assert conv.value(x) == expect

    def test_n1_proportional(self):
        report = gauss_g_diagnostic(5, 1)
        assert report["verdict"] == "diagnostic"
        assert report["proportional"] is True
        assert report["scalar"] == "4"

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2)])
    def test_higher_order_not_proportional(self, q, n):
        report = gauss_g_diagnostic(q, n)
        assert report["verdict"] == "diagnostic"
        assert report["proportional"] is False
        assert report["scalar"] is None


class TestRestrictedKernelDiagnostic:
    @pytest.mark.parametrize("q", [3, 5])
    def test_n1_measured_scalar(self, q):
        field = Fq(q)
        brute = conv_Gm(power_count_trace(field, 1), t_B_units(field))
        assert all(brute.value(x) == -1 for x in field.units())
        assert brute.value(0) == 0
        report = diag_propB3(q, 1)
        assert report["verdict"] == "diagnostic"
        assert report["proportional"] is True
        assert report["scalar"] == str(Fraction(-1, q))

    @pytest.mark.parametrize("q,n", [(3, 2), (5, 2)])
    def test_higher_order_reports_values(self, q, n):
        report = diag_propB3(q, n)
        assert report["verdict"] == "diagnostic"
        assert report["proportional"] is False
        assert len(report["lhs_on_units"]) == q - 1

    def test_twist_shift_recorded(self):
        report = diag_propB3(5, 1)
        assert report["twist_shift"] == {"twist": -1, "shift": -2}


class TestEigenfunctionConvolution:
    def test_in_eigenspace_factor(self):
        report = check_lem_mon_shadow(7, 3, 2)
        assert report["verdict"] is True
        assert report["in_eigenspace"] is True
        assert report["factor"] == "6"

    def test_out_of_eigenspace_annihilated(self):
        report = check_lem_mon_shadow(7, 3, 1)
        assert report["verdict"] is True
        assert report["in_eigenspace"] is False
        assert report["factor"] == "0"

    def test_order_four(self):
        report = check_lem_mon_shadow(5, 4, 1)
        assert report["verdict"] is True
        assert report["factor"] == "4"

    def test_trivial_character(self):
        assert check_lem_mon_shadow(5, 1, 0)["verdict"] is True

    def test_limit_gap_documented(self):
        assert "q-1" in check_lem_mon_shadow(7, 3, 2)["pro_limit_note"]


class TestScalingOrbits:
    @pytest.mark.parametrize("q,d", [(3, 1), (5, 1), (3, 2), (5, 2)])
    def test_partition(self, q, d):
        orbits = scaling_orbits(q, d)
        points = [p for orbit in orbits for p in orbit]
        assert len(points) == len(set(points)) == q**d - 1
        assert len(orbits) == (q**d - 1) // (q - 1)


class TestScalingEigenSpan:
    def test_basis_dimension(self):
        # 1 (origin) + orbits * n for n | q-1
        assert len(monodromic_span_basis(5, 1, 4)) == 5
        assert len(monodromic_span_basis(5, 2, 2)) == 1 + 6 + 6
        assert len(monodromic_span_basis(3, 1, 1)) == 2

    def test_transform_conjugates_eigenfunctions(self):
        field = Fq(5)
        table = CharacterTable(field)
        f = table.chi_function(1)
        g = four_B(f)
        for lam in field.units():
            moved = TraceFunction(field, 1, [g.value(field.mul(lam, x)) for x in range(5)])
            assert moved == g.scale(table.chi(-1, lam))

    @pytest.mark.parametrize("q,d,n", [(5, 1, 4), (3, 1, 2), (3, 1, 1), (3, 2, 2), (5, 2, 2)])
    def test_invertible_on_span(self, q, d, n):
        report = check_mon_equivalence(q, d, n)
        assert report["verdict"] is True
        assert report["preserved"] is True
        assert report["image_rank"] == report["span_dim"]

    def test_q3_full_space_determinant(self):
        # the transform matrix on the whole rank-one space over F_3 has
        # determinant -9, so invertibility genuinely holds there
        cols = [four_B(TraceFunction.delta(3, w)).values for w in range(3)]
        m = [[cols[j][i] for j in range(3)] for i in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        assert det == -9
        assert check_mon_equivalence(3, 1, 2)["full_space"] is True
