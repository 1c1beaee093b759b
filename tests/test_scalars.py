import operator
import random
import sys
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from monofour.scalars import (
    CycScalar,
    Fq,
    Poly,
    RatFun,
    UnsupportedInputError,
    cyclotomic_poly,
    poly_gcd,
    poly_rank,
    rational_rank,
    zeta,
)
from monofour.scalars import cyclotomic, ffield, ratfun, snf
from monofour.scalars.cyclotomic import _phi, _zeta_powers, sum_of_products
from monofour.scalars.poly import frac, integer_coeffs, synthetic_division, taylor_coeffs
from monofour.scalars.snf import CERT_PRIME, int_smith, poly_smith
from monofour.scalars.ratfun import linear_factors, partial_fractions, rational_roots
from monofour.mellin import EquivariantModule, torsion_by_point_ranks
from monofour.trace import _cyc_rank, four_B, gauss_sum, monodromic_span_basis

S = Poly.x()


def divides(a: Poly, b: Poly) -> bool:
    """a | b in k[s]: zero divides only zero."""
    return b.is_zero if a.is_zero else (b % a).is_zero


def P(*coeffs):
    return Poly(coeffs)


class TestPoly:
    def test_construction_strips_trailing_zeros(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).is_zero
        assert P().degree == -1

    def test_arithmetic(self):
        assert (S + 1) * (S - 1) == S**2 - 1
        assert (S + 2) ** 2 == S**2 + 4 * S + 4
        assert P(Fraction(1, 2)) * 2 == P(1)

    def test_divmod(self):
        q, r = divmod(S**2 - 1, S - 1)
        assert q == S + 1 and r.is_zero
        q, r = divmod(S**2 + 1, S + 1)
        assert q == S - 1 and r == P(2)

    def test_gcd(self):
        assert poly_gcd(S**2 - 1, S - 1) == S - 1
        assert poly_gcd(S, S + 1) == P(1)
        assert poly_gcd(Poly(), S**3) == S**3
        assert poly_gcd(2 * S + 2, 4 * S + 4) == S + 1  # monic output

    def test_shift(self):
        assert S.shift(1) == S + 1
        assert (S**2).shift(1) == S**2 + 2 * S + 1
        assert (S**2 - S).shift(-1) == S**2 - 3 * S + 2

    def test_eval_and_compose(self):
        p = S**3 - 2 * S + 1
        assert p.eval(2) == 5

    def test_str_ascending(self):
        assert (1 + 2 * S - S**2).to_str() == "1 + 2*s - s^2"
        assert Poly().to_str() == "0"


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


@st.composite
def polys(draw, max_degree=4):
    coeffs = draw(st.lists(small_fracs, max_size=max_degree + 1))
    return Poly(coeffs)


class TestPolyProperties:
    @given(polys(), polys(), polys())
    @settings(max_examples=100, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(polys(), polys())
    @settings(max_examples=100, deadline=None)
    def test_divmod_identity(self, a, b):
        if b.is_zero:
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


class TestRatFun:
    def test_normalization(self):
        f = RatFun(2 * S + 2, 4 * S)
        assert f.num == Fraction(1, 2) * S + Fraction(1, 2)
        assert f.den == S
        assert RatFun(S**2 - 1, S - 1) == RatFun(S + 1)

    def test_arithmetic(self):
        one_over_s = RatFun(1, S)
        assert one_over_s + RatFun(1, S + 1) == RatFun(2 * S + 1, S * (S + 1))
        assert one_over_s * S == RatFun(1)
        assert 1 / one_over_s == RatFun(S)

    def test_shift_and_valuation(self):
        f = RatFun(1, S + 1)
        assert f.shift(1) == RatFun(1, S + 2)
        assert f.shift(-1) == RatFun(1, S)
        # valuations are read off the multiplicities of linear_factors
        assert linear_factors(f.den) == ({Fraction(-1): 1}, Poly.const(1))
        assert linear_factors(RatFun((S - 2) ** 3, S).num)[0] == {Fraction(2): 3}

    def test_partial_fractions_telescoping(self):
        poly_part, parts = partial_fractions(RatFun(1, S * (S + 1)))
        assert poly_part.is_zero
        assert parts == [
            (Fraction(-1), (Fraction(-1),)),
            (Fraction(0), (Fraction(1),)),
        ]

    def test_partial_fractions_single_pole(self):
        poly_part, parts = partial_fractions(RatFun(1, S + 1))
        assert poly_part.is_zero
        assert parts == [(Fraction(-1), (Fraction(1),))]

    def test_partial_fractions_higher_order(self):
        poly_part, parts = partial_fractions(RatFun(S**2 + 1, (S - 2) ** 2))
        assert poly_part == P(1)
        assert parts == [(Fraction(2), (Fraction(4), Fraction(5)))]

    def test_partial_fractions_rejects_irrational_poles(self):
        with pytest.raises(UnsupportedInputError):
            partial_fractions(RatFun(1, S**2 + 1))

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-4, max_value=4),
                st.integers(min_value=1, max_value=2),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda t: t[0],
        ),
        polys(max_degree=3),
    )
    @settings(max_examples=500, deadline=None)
    def test_partial_fractions_round_trip(self, pole_spec, num):
        den = Poly.const(1)
        for pole, mult in pole_spec:
            den = den * (S - pole) ** mult
        f = RatFun(num, den)
        poly_part, parts = partial_fractions(f)
        total = RatFun(poly_part)
        for a, coefs in parts:
            for k, c in enumerate(coefs, start=1):
                total = total + RatFun(Poly.const(c), (S - a) ** k)
        assert total == f


# ---------------------------------------------------------------------------
# The synthetic-division kernel against the Poly-level references it replaced.
# ---------------------------------------------------------------------------


def reference_shift(p: Poly, c) -> Poly:
    """p(s + c) by Horner's scheme with Poly arithmetic."""
    out = Poly()
    for coef in reversed(p.coeffs):
        out = out * Poly((Fraction(c), 1)) + Poly.const(coef)
    return out


def reference_valuation(p: Poly, a) -> int:
    lin = Poly((-Fraction(a), 1))
    k = 0
    while True:
        q, r = divmod(p, lin)
        if not r.is_zero:
            return k
        p, k = q, k + 1


def reference_partial_fractions(f: RatFun):
    """Principal parts from the full Taylor shift of rem and cofactor."""
    poly_part, rem = divmod(f.num, f.den)
    if rem.is_zero:
        return poly_part, []
    roots = {a: reference_valuation(f.den, a) for a in rational_roots(f.den)}
    parts = []
    for a in sorted(roots):
        m = roots[a]
        g = f.den // Poly((-a, 1)) ** m
        num, den = list(rem.shift(a).coeffs), list(g.shift(a).coeffs)
        num += [Fraction(0)] * m
        den += [Fraction(0)] * m
        h = []
        for j in range(m):
            acc = num[j] - sum(h[i] * den[j - i] for i in range(j))
            h.append(acc / den[0])
        parts.append((a, tuple(h[m - k] for k in range(1, m + 1))))
    return poly_part, parts


def _random_poly(rng, degree, rational=True):
    pool = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 7] if rational else [1]))
            for _ in range(degree + 1)]
    pool[-1] = pool[-1] or Fraction(1)
    return Poly(pool)


def _product(factors) -> Poly:
    """prod (d*s - n)^m over (n, d, m); scaled by a non-unit constant."""
    out = Poly.const(-3)
    for n, d, m in factors:
        out = out * Poly((-n, d)) ** m
    return out


class TestSyntheticDivisionKernel:
    def test_division_identity(self):
        rng = random.Random(11)
        for _ in range(60):
            p = _random_poly(rng, rng.randint(0, 9))
            a = Fraction(rng.randint(-7, 7), rng.randint(1, 4))
            q, r = synthetic_division(list(p.coeffs), a)
            assert Poly(q) * Poly((-a, 1)) + Poly.const(r) == p
            assert r == p.eval(a)
        assert synthetic_division([], 3) == ([], 0)

    def test_shift_matches_poly_horner_and_compose(self):
        rng = random.Random(12)
        for _ in range(80):
            p = _random_poly(rng, rng.randint(0, 12), rational=rng.random() < 0.5)
            c = rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 5))])
            assert p.shift(c) == reference_shift(p, c)
            assert p.shift(c).shift(-c) == p

    def test_truncated_taylor_is_a_prefix(self):
        rng = random.Random(13)
        for _ in range(40):
            p = _random_poly(rng, rng.randint(0, 10))
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            full = reference_shift(p, a).coeffs
            for m in range(0, 4):
                assert taylor_coeffs(list(p.coeffs), a, m) == list(full[:m])

    def test_valuation_matches_repeated_division(self):
        rng = random.Random(14)
        for _ in range(60):
            points = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
            num = _product([(a.numerator, a.denominator, rng.randint(0, 4)) for a in points[:2]])
            den = _product([(points[2].numerator, points[2].denominator, rng.randint(0, 3))])
            num = num * _random_poly(rng, 2)
            f = RatFun(num, den)
            zeros, poles = linear_factors(f.num)[0], linear_factors(f.den)[0]
            for a in points + [Fraction(1, 5), Fraction(0)]:
                want = reference_valuation(f.num, a) - reference_valuation(f.den, a)
                assert zeros.get(a, 0) - poles.get(a, 0) == want

    def test_rational_roots_of_known_products(self):
        rng = random.Random(15)
        for _ in range(40):
            roots = {}
            for _ in range(rng.randint(1, 4)):
                d = rng.choice([1, 1, 2, 3, 5])
                n = rng.choice([0, rng.randint(-12, 12), rng.randint(1000, 1100)])
                roots[Fraction(n, d)] = rng.randint(1, 4)
            p = _product([(a.numerator, a.denominator, m) for a, m in roots.items()])
            assert rational_roots(p) == roots
            assert linear_factors(p) == (roots, Poly.const(p.lc))

    def test_rational_roots_edge_cases(self):
        # root at 0 of multiplicity 4, non-monic, constant term above 10^6
        p = _product([(0, 1, 4), (1009, 2, 2), (-1013, 1, 1), (7, 3, 3)])
        assert abs(Poly(p.coeffs[4:]).coeffs[0]) > 10**6
        assert rational_roots(p) == {
            Fraction(0): 4, Fraction(1009, 2): 2, Fraction(-1013): 1, Fraction(7, 3): 3
        }
        assert rational_roots(Poly.const(5)) == {}
        with pytest.raises(ValueError):
            rational_roots(Poly())
        with pytest.raises(UnsupportedInputError):
            rational_roots((S**2 + 1) * (S - 2))
        roots, rest = linear_factors(2 * (S**2 + 2) ** 2 * (S - 2) ** 3 * S)
        assert roots == {Fraction(2): 3, Fraction(0): 1}
        assert rest == 2 * (S**2 + 2) ** 2

    def test_partial_fractions_match_full_shift_reference(self):
        rng = random.Random(16)
        for _ in range(40):
            poles = {}
            for _ in range(rng.randint(1, 4)):
                poles[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))] = rng.randint(1, 4)
            den = _product([(a.numerator, a.denominator, m) for a, m in poles.items()])
            f = RatFun(_random_poly(rng, rng.randint(0, den.degree + 2)), den)
            assert partial_fractions(f) == reference_partial_fractions(f)


class TestKnownPoleKernel:
    """The partial-fraction kernel on a known pole map, against the root
    search of partial_fractions on the reduced quotient."""

    def test_unreduced_input_matches_reduced_root_search(self):
        rng = random.Random(23)
        for _ in range(40):
            poles = {}
            for _ in range(rng.randint(1, 4)):
                poles[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))] = rng.randint(1, 3)
            den = _product([(a.numerator, a.denominator, m) for a, m in poles.items()])
            num = _random_poly(rng, rng.randint(0, den.degree + 2))
            if rng.random() < 0.5:  # cancel part of a pole
                a = rng.choice(sorted(poles))
                num = num * Poly((-a, 1)) ** rng.randint(1, poles[a])
            poly_part, parts = ratfun._partial_fractions(num, den, poles)
            ref_poly, ref_parts = partial_fractions(RatFun(num, den))
            assert poly_part == ref_poly
            assert [a for a, _ in parts] in ([], sorted(poles))
            trimmed = {}
            for a, coefs in parts:
                coefs = list(coefs)
                while coefs and not coefs[-1]:
                    coefs.pop()
                if coefs:
                    trimmed[a] = tuple(coefs)
            assert trimmed == dict(ref_parts)

    def test_wrong_pole_map_fails_the_guard(self):
        f = RatFun(S**3 + 2, (S - 1) ** 2 * (2 * S + 1) * S)
        poles = rational_roots(f.den)
        assert ratfun._partial_fractions(f.num, f.den, poles) == partial_fractions(f)
        for wrong in (
            {a: m for a, m in poles.items() if a != 1},
            poles | {Fraction(1): 1},
            poles | {Fraction(1): 3},
            poles | {Fraction(5): 1},
        ):
            with pytest.raises((AssertionError, ZeroDivisionError)):
                ratfun._partial_fractions(f.num, f.den, wrong)


class TestSmith:
    def test_single_entry(self):
        _, d, _ = poly_smith([[S]])
        assert d == [[S]]

    def test_diagonal_input(self):
        _, d, _ = poly_smith([[P(1), Poly()], [Poly(), S**2]])
        assert d[0][0] == P(1) and d[1][1] == S**2

    def test_derived_example(self):
        u, d, v = poly_smith([[S, S + 1], [Poly(), S - 1]])
        assert d[0][0] == P(1)
        assert d[1][1] == (S * (S - 1)).monic()
        assert d[0][1].is_zero and d[1][0].is_zero

    def test_transform_invertibility(self):
        m = [[S, S + 1], [Poly(), S - 1]]
        u, d, v = poly_smith(m)
        for t in (u, v):
            det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
            assert det.degree == 0 and not det.is_zero

    def test_divisibility_chain(self):
        m = [[S**2, S], [S, P(1)]]
        _, d, _ = poly_smith(m)
        prev = d[0][0]
        for i in range(1, 2):
            cur = d[i][i]
            if not cur.is_zero:
                assert divides(prev, cur)
            prev = cur

    @given(
        st.lists(
            st.lists(polys(max_degree=2), min_size=2, max_size=2),
            min_size=2,
            max_size=3,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_random_matrices(self, m):
        u, d, v = poly_smith(m)  # internal assertion checks U*M*V == D
        k = min(len(m), len(m[0]))
        for i in range(k):
            for j in range(k):
                if i != j:
                    assert d[i][j].is_zero
        prev = None
        for i in range(k):
            cur = d[i][i]
            if prev is not None and not prev.is_zero and not cur.is_zero:
                assert divides(prev, cur)
            prev = cur

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(
            snf, "_mat_mul", lambda a, b: [[Poly() for _ in b[0]] for _ in a]
        )
        with pytest.raises(AssertionError, match="verification failed"):
            poly_smith([[S]])

    def test_int_smith(self):
        _, d, _ = int_smith([[2, 4], [6, 8]])
        assert d[0][0] == 2 and d[1][1] == 4
        _, d, _ = int_smith([[1, 0], [0, 0]])
        assert d[0][0] == 1 and d[1][1] == 0

    def test_int_smith_properties(self):
        rng = random.Random(41)
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            _, d, _ = int_smith(m)  # internal assertion checks U*M*V == D
            for i in range(rows):
                for j in range(cols):
                    if i != j:
                        assert d[i][j] == 0
            diag = [d[i][i] for i in range(min(rows, cols))]
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 if a else b == 0

    def test_int_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(snf, "_mat_mul", lambda a, b: [[0 for _ in b[0]] for _ in a])
        with pytest.raises(AssertionError, match="verification failed"):
            int_smith([[2, 4], [6, 8]])


def _smith_rank(m):
    _, d, _ = poly_smith(m)
    return sum(1 for i in range(min(len(m), len(m[0]))) if not d[i][i].is_zero)


def _random_matrix(rng, rows, cols):
    def entry():
        if rng.random() < 0.3:
            return Poly()
        return Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])

    return [[entry() for _ in range(cols)] for _ in range(rows)]


SHAPES = {"square": (3, 3), "wide": (2, 4), "tall": (4, 2), "wide3": (3, 5), "tall3": (5, 3)}


class TestPolyRank:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_smith_and_evaluation_oracle(self, shape):
        rows, cols = SHAPES[shape]
        rng = random.Random(20260823 + rows * 10 + cols)
        for _ in range(15):
            m = _random_matrix(rng, rows, cols)
            rank = poly_rank(m)
            assert rank == _smith_rank(m)
            if rows <= cols:
                module = EquivariantModule(rows, tuple(tuple(r) for r in m))
                assert torsion_by_point_ranks(module) == (rank == rows)

    @pytest.mark.parametrize("shape", ("square", "wide", "wide3", "tall3"))
    def test_dependent_row_lowers_rank(self, shape):
        rows, cols = SHAPES[shape]
        rng = random.Random(7 + rows * 10 + cols)
        for _ in range(10):
            m = _random_matrix(rng, rows, cols)
            # the last row becomes a Q[s]-combination of the others
            qs = [Poly([rng.randint(-2, 2) for _ in range(2)]) for _ in range(rows - 1)]
            m[-1] = [sum((q * r[k] for q, r in zip(qs, m)), Poly()) for k in range(cols)]
            rank = poly_rank(m)
            assert rank < rows
            assert rank == _smith_rank(m)
            if rows <= cols:
                module = EquivariantModule(rows, tuple(tuple(r) for r in m))
                assert not torsion_by_point_ranks(module)

    def test_zero_and_empty(self):
        assert poly_rank([[Poly()] * 3 for _ in range(2)]) == 0
        assert poly_rank([]) == 0
        assert poly_rank([[S**2 - 1]]) == 1

    def test_known_ranks(self):
        assert poly_rank([[S, S + 1], [Poly(), S - 1]]) == 2
        assert poly_rank([[S, S**2], [P(1), S]]) == 1  # second column is s times the first
        assert poly_rank([[Poly(), S], [Poly(), P(1)]]) == 1

    def test_inexact_division_raises(self, monkeypatch):
        exact = Poly.__divmod__
        monkeypatch.setattr(Poly, "__divmod__", lambda a, b: (exact(a, b)[0], P(1)))
        # the third row is the sum of the first two, so the modular
        # certificate cannot answer and Bareiss elimination runs
        m = [[S, P(1), Poly()], [P(1), S, P(1)], [S + 1, S + 1, P(1)]]
        with pytest.raises(AssertionError, match="inexact division"):
            poly_rank(m)

    def test_full_rank_is_certified_without_elimination(self, monkeypatch):
        exact = Poly.__divmod__
        monkeypatch.setattr(Poly, "__divmod__", lambda a, b: (exact(a, b)[0], P(1)))
        m = [[S, P(1), Poly()], [P(1), S, P(1)], [Poly(), P(1), S]]
        assert poly_rank(m) == 3


def reference_poly_smith(m):
    """Smith form over Q[s] with its own elimination, kept from before the
    Z and Q[s] routines were merged, as a reference for (U, D, V)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(row) for row in m]
    u = [[P(1) if i == j else Poly() for j in range(rows)] for i in range(rows)]
    v = [[P(1) if i == j else Poly() for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):
        for k in range(cols):
            d[i][k] = d[i][k] - q * d[j][k]
        for k in range(rows):
            u[i][k] = u[i][k] - q * u[j][k]

    def col_op(i, j, q):
        for k in range(rows):
            d[k][i] = d[k][i] - q * d[k][j]
        for k in range(cols):
            v[k][i] = v[k][i] - q * v[k][j]

    t = 0
    while t < min(rows, cols):
        pivot, best = None, None
        for i in range(t, rows):
            for j in range(t, cols):
                if not d[i][j].is_zero:
                    deg = d[i][j].degree
                    if best is None or deg < best:
                        best, pivot = deg, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        d[t], d[pi] = d[pi], d[t]
        u[t], u[pi] = u[pi], u[t]
        for k in range(rows):
            d[k][t], d[k][pj] = d[k][pj], d[k][t]
        for k in range(cols):
            v[k][t], v[k][pj] = v[k][pj], v[k][t]
        dirty = False
        for i in range(t + 1, rows):
            if not d[i][t].is_zero:
                q, r = divmod(d[i][t], d[t][t])
                row_op(i, t, q)
                dirty = dirty or not r.is_zero
        for j in range(t + 1, cols):
            if not d[t][j].is_zero:
                q, r = divmod(d[t][j], d[t][t])
                col_op(j, t, q)
                dirty = dirty or not r.is_zero
        if dirty:
            continue
        offender = None
        for i in range(t + 1, rows):
            if any(not divides(d[t][t], d[i][j]) for j in range(t + 1, cols)):
                offender = i
                break
        if offender is not None:
            row_op(t, offender, P(-1))
            continue
        t += 1
    for i in range(min(rows, cols)):
        if not d[i][i].is_zero and d[i][i].lc != 1:
            c = 1 / d[i][i].lc
            d[i] = [x * c for x in d[i]]
            u[i] = [x * c for x in u[i]]
    return u, d, v


def _reference_rank(m):
    _, d, _ = reference_poly_smith(m)
    return sum(1 for i in range(min(len(m), len(m[0]))) if not d[i][i].is_zero)


def reference_lowest_terms(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Lowest terms by the Euclidean gcd, then a monic denominator, with
    none of RatFun's shortcuts for zero and constant parts."""
    g = poly_gcd(num, den)
    if not g.is_zero and g.degree > 0:
        num, den = num // g, den // g
    lc = den.lc
    if lc != 1:
        num = num * (1 / lc)
        den = den * (1 / lc)
    return num, den


def _planted_pairs(seed, count=60):
    """Pairs of degree at most 8 over Q: a planted common factor (rational
    roots, some repeated, sometimes s^2 + 2) times random cofactors, and
    every fourth pair two independent polynomials."""
    rng = random.Random(seed)
    pairs = []
    for k in range(count):
        common = Poly.const(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
        if k % 4:
            for _ in range(rng.randint(0, 3)):
                root = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                common = common * Poly((-root, 1)) ** rng.randint(1, 2)
            if rng.random() < 0.3:
                common = common * P(2, 0, 1)
        room = max(0, 8 - common.degree)
        num = common * _random_poly(rng, rng.randint(0, room))
        den = common * _random_poly(rng, rng.randint(0, room))
        pairs.append((num, den))
    pairs += [(S, S + 5), (5 * S + 1, (5 * S + 1) * (S + 2)), ((S - 3) * (S + 2), S - 3)]
    return pairs


class TestModularCertificates:
    """RatFun's lowest terms against the Euclidean reference and the value
    they represent, and poly_rank's full-rank certificate against the
    Bareiss elimination it falls back to."""

    def test_integer_coeffs(self):
        coeffs = [Fraction(1, 2), Fraction(-3, 4), 0, 6]
        ints, content = integer_coeffs(coeffs)
        assert ints == [2, -3, 0, 24] and content == Fraction(1, 4)
        assert integer_coeffs([-4, 6]) == ([-2, 3], 2)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lowest_terms_match_euclid(self, seed):
        for num, den in _planted_pairs(seed):
            f = RatFun(num, den)
            assert (f.num, f.den) == reference_lowest_terms(num, den)
            assert f.num * den == num * f.den and f.den.lc == 1
            assert str(f) == str(RatFun(*reference_lowest_terms(num, den)))

    def test_zero_and_constant_parts(self):
        assert (RatFun(Poly(), 3 * S + 1).num, RatFun(Poly(), 3 * S + 1).den) == (Poly(), P(1))
        f = RatFun(P(4), 2 * S**2 + 2)
        assert (f.num, f.den) == (P(2), S**2 + 1)
        g = RatFun(2 * S**2 + 2, P(Fraction(2, 3)))
        assert (g.num, g.den) == (3 * S**2 + 3, P(1))

    def test_certificate_bound_is_spurious_mod_a_small_prime(self):
        # s and s + 5 are coprime over Q but equal mod 5
        f = RatFun(S, S + 5)
        assert (f.num, f.den) == (S, S + 5)

    def test_rank_certificate_bounds_rank_from_below(self):
        # the certificate point is 3 mod 5
        assert snf._RANK_POINT % 5 == 3
        assert snf._rank_at_point([[S - 3]], 5) == 0
        assert snf._rank_at_point([[S - 3]], CERT_PRIME) == 1
        assert snf._rank_at_point([[P(Fraction(1, 5), 1), S]], 5) is None

    def test_rank_falls_back_mod_a_small_prime(self, monkeypatch):
        monkeypatch.setattr(snf, "CERT_PRIME", 5)
        special = [
            [[S - 3]],
            [[S - 3, Poly()], [Poly(), S + 2]],
            [[P(Fraction(1, 5), 1), S], [S, P(1)]],
            [[P(Fraction(2, 5)), S, S + 1], [S, P(1), P(1)]],
        ]
        rng = random.Random(55)
        randoms = [_random_matrix(rng, *SHAPES[shape]) for shape in sorted(SHAPES) for _ in range(4)]
        for m in special + randoms:
            assert poly_rank(m) == _reference_rank(m)
        assert [poly_rank(m) for m in special] == [1, 2, 2, 2]


def reference_int_smith(m):
    """Smith form over Z with its own elimination, kept from before the
    Z and Q[s] routines were merged, as a reference for (U, D, V)."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):
        for k in range(cols):
            d[i][k] -= q * d[j][k]
        for k in range(rows):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):
        for k in range(rows):
            d[k][i] -= q * d[k][j]
        for k in range(cols):
            v[k][i] -= q * v[k][j]

    t = 0
    while t < min(rows, cols):
        pivot, best = None, None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best, pivot = abs(d[i][j]), (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        d[t], d[pi] = d[pi], d[t]
        u[t], u[pi] = u[pi], u[t]
        for k in range(rows):
            d[k][t], d[k][pj] = d[k][pj], d[k][t]
        for k in range(cols):
            v[k][t], v[k][pj] = v[k][pj], v[k][t]
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                row_op(i, t, d[i][t] // d[t][t])
                dirty = dirty or d[i][t] != 0
        for j in range(t + 1, cols):
            if d[t][j]:
                col_op(j, t, d[t][j] // d[t][t])
                dirty = dirty or d[t][j] != 0
        if dirty:
            continue
        offender = None
        for i in range(t + 1, rows):
            if any(d[i][j] % d[t][t] != 0 for j in range(t + 1, cols)):
                offender = i
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        t += 1
    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return u, d, v


class TestSmithMatchesReference:
    @pytest.mark.parametrize("ell,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
    def test_int_smith_on_subgroup_shapes(self, ell, r):
        # subgroup_order builds n x (n + k) matrices with entries up to ell^r
        L = ell**r
        rng = random.Random(1000 * ell + r)
        for _ in range(40):
            n, k = rng.randint(1, 8), rng.randint(0, 4)
            m = [[rng.randint(-L, L) if rng.random() < 0.7 else 0 for _ in range(n + k)]
                 for _ in range(n)]
            assert int_smith(m) == reference_int_smith(m)

    def test_int_smith_degenerate_shapes(self):
        for m in ([], [[]], [[0, 0], [0, 0]], [[-3]], [[0], [-4], [6]], [[4, -6, 0]]):
            assert int_smith(m) == reference_int_smith(m)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_poly_smith(self, shape):
        rows, cols = SHAPES[shape]
        rng = random.Random(31 + rows * 10 + cols)
        for _ in range(12):
            m = _random_matrix(rng, rows, cols)
            assert poly_smith(m) == reference_poly_smith(m)


class TestRationalRank:
    def test_planted_dependent_rows(self):
        rng = random.Random(5)
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                 for _ in range(rows)]
            for _ in range(rng.randint(0, 3)):
                # append a rational combination of the rows so far
                cs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in m]
                m.append([sum((c * row[j] for c, row in zip(cs, m)), Fraction(0))
                          for j in range(cols)])
            rank = rational_rank(m)
            assert rank <= min(rows, cols)
            assert rank == poly_rank([[P(x) for x in row] for row in m])

    def test_known_ranks(self):
        assert rational_rank([]) == 0
        assert rational_rank([[0, 0], [0, 0]]) == 0
        assert rational_rank([[1, 2], [2, 4]]) == 1
        assert rational_rank([[0, 1], [1, 0], [1, 1]]) == 2
        assert rational_rank([[Fraction(1, 2), 1, 0], [0, 0, 3], [1, 2, 3]]) == 2


class TestFq:
    def test_prime_field(self):
        f = Fq(7)
        assert f.sub(3, f.neg(5)) == 1
        assert f.mul(3, 5) == 1
        assert f.inv(3) == 5
        assert f.neg(2) == 5
        assert f.pow(3, 6) == 1

    def test_generator_and_dlog(self):
        for q in (2, 3, 5, 7, 9, 11):
            f = Fq(q)
            g = f.generator
            seen = {f.pow(g, k) for k in range(q - 1)}
            assert len(seen) == q - 1
            for a in f.units():
                assert f.pow(g, f.dlog(a)) == a

    def test_extension_field(self):
        f = Fq(4)
        assert f.p == 2 and f.e == 2
        # x^2 + x + 1 is the least irreducible over F_2.
        assert f.modulus == [1, 1, 1]
        for a in f.units():
            assert f.mul(a, f.inv(a)) == 1
        assert f.pow(2, 3) == 1  # alpha has order 3

    def test_extension_field_f9(self):
        f = Fq(9)
        assert f.p == 3 and f.e == 2
        for a in f.units():
            assert f.pow(a, 8) == 1

    def test_frobenius_trace(self):
        f = Fq(4)
        traces = {a: f.frobenius_trace(a) for a in range(f.q)}
        # Trace is F_2-linear onto the prime field; half the elements map to 0.
        assert set(traces.values()) <= {0, 1}
        assert sum(1 for v in traces.values() if v == 0) == 2

    def test_deterministic_modulus(self):
        assert Fq(8).modulus == [1, 1, 0, 1]  # x^3 + x + 1


def ref_poly_mul_mod(a, b, modulus, p):
    """The earlier product in F_p[x]/(modulus), with its own remainder loop."""
    e = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    for k in range(len(out) - 1, e - 1, -1):
        c = out[k]
        if c:
            out[k] = 0
            for i in range(e):
                out[k - e + i] = (out[k - e + i] - c * modulus[i]) % p
    out = out[:e]
    return out + [0] * (e - len(out))


def ref_is_irreducible(coeffs, p):
    """The earlier trial-division irreducibility test, with its own loop."""
    e = len(coeffs) - 1
    if e <= 1:
        return e == 1
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    if e <= 3:
        return True
    for deg in range(2, e // 2 + 1):
        for enc in range(p**deg):
            div = [(enc // p**i) % p for i in range(deg)] + [1]
            rem = list(coeffs)
            while len(rem) - 1 >= deg:
                while rem and rem[-1] == 0:
                    rem.pop()
                if len(rem) - 1 < deg:
                    break
                k = len(rem) - 1 - deg
                c = rem[-1]
                for i, dc in enumerate(div):
                    rem[k + i] = (rem[k + i] - c * dc) % p
            if not any(rem):
                return False
    return True


PRIME_POWERS = [q for q in range(2, 122) if len({p for p in range(2, q + 1)
                if q % p == 0 and all(p % d for d in range(2, p))}) == 1]


class TestFiniteFieldOracle:
    """`fp_rem` against the earlier hand-written remainder loops."""

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_tables_match_reference_construction(self, q, monkeypatch):
        field = Fq(q)
        monkeypatch.setattr(ffield, "_poly_mul_mod", ref_poly_mul_mod)
        monkeypatch.setattr(ffield, "_is_irreducible", ref_is_irreducible)
        ref = object.__new__(Fq)
        Fq.__init__(ref, q)
        assert ref is not field
        assert (field.p, field.e, field.modulus, field.generator) == (
            ref.p, ref.e, ref.modulus, ref.generator)
        for table in ("_add", "_mul", "_neg", "_inv", "_dlog"):
            assert getattr(field, table) == getattr(ref, table), table

    def test_irreducibility_matches_reference(self):
        for p, e in ((2, 4), (2, 5), (2, 6), (3, 4), (5, 4)):
            for enc in range(p**e):
                coeffs = [(enc // p**i) % p for i in range(e)] + [1]
                assert ffield._is_irreducible(coeffs, p) == ref_is_irreducible(coeffs, p)

    def test_product_matches_reference(self):
        rng = random.Random(8)
        for p, e in ((2, 3), (2, 6), (3, 4), (5, 2), (11, 2)):
            modulus = ffield._find_modulus(p, e)
            for _ in range(50):
                a = [rng.randrange(p) for _ in range(e)]
                b = [rng.randrange(p) for _ in range(e)]
                assert ffield._poly_mul_mod(a, b, modulus, p) == ref_poly_mul_mod(a, b, modulus, p)

    def test_remainder_of_planted_division(self):
        # a = q*b + r with deg r < deg b has exactly one remainder, r.
        rng = random.Random(81)
        for _ in range(400):
            p = rng.choice((2, 3, 5, 7, 11, 13))
            deg_b = rng.randint(0, 5)
            b = [rng.randrange(p) for _ in range(deg_b)] + [rng.randrange(1, p)]
            q = [rng.randrange(p) for _ in range(rng.randint(0, 5))]
            r = [rng.randrange(p) for _ in range(deg_b)]
            a = r + [0] * max(0, len(q) + deg_b - len(r))
            for i, x in enumerate(q):
                for j, y in enumerate(b):
                    a[i + j] += x * y
            a = [c + p * rng.randint(-3, 3) for c in a]
            b = [c - p * rng.randint(0, 2) for c in b] + [p] * rng.randint(0, 2)
            while r and not r[-1]:
                r.pop()
            assert ffield.fp_rem(a, b, p) == r

    def test_remainder_by_zero_mod_p(self):
        with pytest.raises(ZeroDivisionError):
            ffield.fp_rem([1, 2], [3, 0, 6], 3)

    def test_refused_sizes_leave_no_cache_entry(self):
        for q in (200, 6, 1):
            with pytest.raises(ValueError):
                Fq(q)
            assert q not in Fq._cache
        assert Fq(7) is Fq(7) is Fq._cache[7]

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_pow_matches_repeated_products(self, q):
        field = Fq(q)
        for a in range(field.q):
            for n in (-2, -1, 0, 1, 2, 3, q - 2, q - 1, q, 2 * q + 1):
                if a == 0 and n < 0:
                    with pytest.raises(ZeroDivisionError):
                        field.pow(a, n)
                    continue
                base = field.inv(a) if n < 0 else a
                want = 1
                for _ in range(abs(n)):
                    want = field.mul(want, base)
                assert field.pow(a, n) == want, (a, n)

    def test_field_is_its_own_entry_point(self):
        for q in (2, 4, 9, 121):
            field = Fq(q)
            assert Fq(field) is field is Fq(q)
            assert Fq(Fq(field)).modulus == field.modulus


class TestCycScalar:
    def test_zeta_powers_sum_to_zero(self):
        for p in (2, 3, 5, 7):
            total = CycScalar.from_rational(0, p)
            for k in range(p):
                total = total + zeta(p, k)
            assert total.is_zero

    def test_norm_identity(self):
        # prod_{k=1}^{p-1} (1 - zeta^k) == p
        for p in (2, 3, 5, 7):
            prod = CycScalar.from_rational(1, p)
            for k in range(1, p):
                prod = prod * (CycScalar.from_rational(1, p) - zeta(p, k))
            assert prod == p

    def test_cross_conductor_equality(self):
        assert zeta(2) == CycScalar.from_rational(-1)
        assert zeta(4, 2) == -1
        assert zeta(6, 3) == -1
        assert zeta(3) == zeta(6, 2)

    def test_mixed_conductor_product(self):
        z6 = zeta(3) * zeta(2)  # primitive 6th root
        assert z6**6 == 1
        assert z6**3 == -1
        assert not (z6**2 == 1)

    def test_mixed_operands_both_orders(self):
        # trace functions hold int, Fraction and CycScalar values side by
        # side and combine them with plain operators in either order
        z = zeta(3) + 2
        for x in (2, Fraction(-3, 4), CycScalar.from_rational(Fraction(1, 2), 5), zeta(4)):
            c = x if isinstance(x, CycScalar) else CycScalar.from_rational(x)
            assert isinstance(x + z, CycScalar) and isinstance(x * z, CycScalar)
            assert x + z == z + x == c + z
            assert x - z == c - z and z - x == z - c
            assert x * z == z * x == c * z
            assert (x == z) is (c == z) is (z == x) is False
            assert x + z - x == z and not (x - c)
        for x in (3, Fraction(3), CycScalar.from_rational(3, 7)):
            assert x == CycScalar.from_rational(3) and CycScalar.from_rational(3, 4) == x
        assert not (zeta(2) + 1) and not (1 + zeta(2)) and not (Fraction(1) + zeta(2))
        assert bool(zeta(3)) and not CycScalar.from_rational(0, 5)

    def test_rationality(self):
        a = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
        assert a == -1
        assert str(a) == "-1"

    def test_cyclotomic_polys(self):
        assert cyclotomic_poly(1) == S - 1
        assert cyclotomic_poly(2) == S + 1
        assert cyclotomic_poly(4) == S**2 + 1
        assert cyclotomic_poly(6) == S**2 - S + 1
        assert cyclotomic_poly(12) == S**4 - S**2 + 1

    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(small_fracs, min_size=1, max_size=4),
        st.lists(small_fracs, min_size=1, max_size=4),
        st.lists(small_fracs, min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, n, ca, cb, cc):
        phi = cyclotomic_poly(n).degree
        a = CycScalar(n, ca[:phi])
        b = CycScalar(n, cb[:phi])
        c = CycScalar(n, cc[:phi])
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


# Reference oracles for the cached root-of-unity table: the Poly-remainder
# forms of zeta, of the embedding at a multiple conductor, and of the sum
# and product, which reduce by Phi_n per call.


def ref_zeta(n, k=1):
    red = Poly.monomial(k % n, 1) % cyclotomic_poly(n)
    return CycScalar(n, red.coeffs)


def ref_promote(x, m):
    stride = m // x.conductor
    acc = Poly()
    for i, c in enumerate(x.coeffs):
        if c:
            acc = acc + Poly.monomial(i * stride, c)
    return CycScalar(m, (acc % cyclotomic_poly(m)).coeffs)


def ref_mul(a, b):
    m = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
    pa, pb = Poly(ref_promote(a, m).coeffs), Poly(ref_promote(b, m).coeffs)
    return CycScalar(m, ((pa * pb) % cyclotomic_poly(m)).coeffs)


def ref_plus(a, b, sign):
    m = a.conductor * b.conductor // gcd(a.conductor, b.conductor)
    pa, pb = Poly(ref_promote(a, m).coeffs), Poly(ref_promote(b, m).coeffs)
    return CycScalar(m, ((pa + pb * sign) % cyclotomic_poly(m)).coeffs)


# every conductor dividing p(q-1) for a field size q <= 11
ORACLE_CONDUCTORS = sorted(
    {n for q in (2, 3, 4, 5, 7, 8, 9, 11) for n in range(1, Fq(q).p * (q - 1) + 1)
     if Fq(q).p * (q - 1) % n == 0}
)


def random_cyc(rng, n):
    phi = cyclotomic_poly(n).degree
    return CycScalar(n, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(phi)])


class TestCyclotomicOracles:
    def test_conductor_list(self):
        assert ORACLE_CONDUCTORS == [
            1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 14, 20, 21, 22, 24, 42, 55, 110
        ]

    @pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
    def test_zeta_matches_poly_remainder(self, n):
        for k in range(-n, 2 * n + 1):
            got, want = zeta(n, k), ref_zeta(n, k)
            assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)

    @pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
    def test_promote_matches_poly_remainder(self, n):
        rng = random.Random(n)
        for m in ORACLE_CONDUCTORS:
            if m % n:
                continue
            for x in (random_cyc(rng, n), zeta(n, rng.randrange(n)), CycScalar.from_rational(3, n)):
                got, want = x + CycScalar(m, ()), ref_promote(x, m)
                assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)

    @pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
    def test_product_matches_poly_remainder(self, n):
        rng = random.Random(1000 + n)
        others = [m for m in ORACLE_CONDUCTORS if m <= 24 or m == n]
        for m in others:
            if (n * m // gcd(n, m)) > 110:
                continue
            a, b = random_cyc(rng, n), random_cyc(rng, m)
            for got, want in ((a * b, ref_mul(a, b)), (a + b, ref_plus(a, b, 1)),
                              (a - b, ref_plus(a, b, -1))):
                assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)
            assert (a == b) is ref_plus(a, b, -1).is_zero
            # a value equals its image at a multiple conductor, and
            # differs from it after any change
            image = ref_promote(a, n * m // gcd(n, m))
            assert (a == image) is (image == a) is True
            assert (a == image + zeta(m)) is (image + zeta(m) == a) is False


# References for the integer layer: CycScalar as a tuple of Fractions and
# rational_rank as forward elimination on Fractions, both as they were
# before integer numerators and Bareiss elimination.  The two printers are
# the per-class ones from before `term_str` and `signed_sum`.


def ref_poly_to_str(self, var="s"):
    if self.is_zero:
        return "0"
    pieces = []
    for k, c in enumerate(self.coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(c)
        else:
            v = var if k == 1 else f"{var}^{k}"
            if c == 1:
                body = v
            elif c == -1:
                body = f"-{v}"
            else:
                body = f"{c}*{v}"
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        if body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out


def ref_cyc_to_str(self):
    n = self.conductor
    var = f"z{n}"
    pieces = []
    for k, c in enumerate(self.coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(c)
        else:
            v = var if k == 1 else f"{var}^{k}"
            if c == 1:
                body = v
            elif c == -1:
                body = f"-{v}"
            else:
                body = f"{c}*{v}"
        pieces.append(body)
    if not pieces:
        return "0"
    out = pieces[0]
    for body in pieces[1:]:
        out += " - " + body[1:] if body.startswith("-") else " + " + body
    return out


class RefCycScalar:
    """Element of the cyclotomic ring with a fixed conductor, one Fraction
    per coefficient."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor, coeffs):
        phi = _phi(conductor)
        cs = [frac(c) for c in coeffs]
        if len(cs) > phi:
            raise ValueError("representative too long for conductor")
        cs += [Fraction(0)] * (phi - len(cs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RefCycScalar is immutable")

    @classmethod
    def from_rational(cls, c, conductor=1):
        return cls(conductor, (frac(c),))

    def promote(self, m):
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError("can only promote to a multiple conductor")
        stride = m // n
        powers = _zeta_powers(m)
        out = [0] * _phi(m)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, z in enumerate(powers[i * stride]):
                    if z:
                        out[j] += c * z
        return RefCycScalar(m, out)

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = RefCycScalar.from_rational(other)
        n, m = self.conductor, other.conductor
        if n == m:
            return self, other
        l = n * m // gcd(n, m)
        return self.promote(l), other.promote(l)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, RefCycScalar)):
            a, b = self._pair(other)
            return RefCycScalar(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return RefCycScalar(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RefCycScalar)):
            a, b = self._pair(other)
            return RefCycScalar(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            return RefCycScalar(self.conductor, tuple(x * c for x in self.coeffs))
        if not isinstance(other, RefCycScalar):
            return NotImplemented
        a, b = self._pair(other)
        phi = len(a.coeffs)
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        n = a.conductor
        powers = _zeta_powers(n)
        out = [Fraction(0)] * phi
        for k, c in enumerate(prod):
            if c:
                row = powers[k % n]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return RefCycScalar(a.conductor, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = RefCycScalar.from_rational(1, self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RefCycScalar)):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    __hash__ = None

    to_str = ref_cyc_to_str


def ref_rational_rank(rows):
    """Rank of a matrix with rational entries, by forward elimination."""
    mat = [[Fraction(c) for c in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        if rank == len(mat):
            break
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        top = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / top[col]
                mat[i] = [a - f * b for a, b in zip(mat[i], top)]
        rank += 1
    return rank


def ref_cyc_rank(vectors):
    """_cyc_rank by Fraction flattening on RefCycScalar values."""
    def ref(x):
        return RefCycScalar(x.conductor, x.coeffs) if isinstance(x, CycScalar) else x

    vectors = [[ref(x) for x in vec] for vec in vectors]
    cond = 1
    for vec in vectors:
        for x in vec:
            if isinstance(x, RefCycScalar):
                cond = cond * x.conductor // gcd(cond, x.conductor)
    phi = _phi(cond)
    rows = []
    for vec in vectors:
        promoted = [
            (x if isinstance(x, RefCycScalar) else RefCycScalar.from_rational(x)).promote(cond)
            for x in vec
        ]
        for j in range(phi):
            zj = RefCycScalar(cond, _zeta_powers(cond)[j])
            row = []
            for x in promoted:
                row.extend((zj * x).coeffs)
            rows.append(row)
    return ref_rational_rank(rows) // phi


MIXED_CONDUCTORS = (1, 2, 3, 4, 5, 6, 8, 10, 12)


@st.composite
def scalar_pairs(draw):
    """(value, reference) for an int, a Fraction or a cyclotomic scalar."""
    kind = draw(st.sampled_from(("int", "fraction", "cyclotomic")))
    if kind == "int":
        v = draw(st.integers(min_value=-6, max_value=6))
        return v, v
    if kind == "fraction":
        v = draw(small_fracs)
        return v, v
    n = draw(st.sampled_from(MIXED_CONDUCTORS))
    cs = draw(st.lists(small_fracs, max_size=_phi(n)))
    return CycScalar(n, cs), RefCycScalar(n, cs)


def assert_matches_reference(got, want):
    if not isinstance(want, RefCycScalar):
        assert type(got) is type(want) and got == want
        return
    assert isinstance(got, CycScalar)
    assert (got.conductor, got.coeffs, str(got)) == (want.conductor, want.coeffs, want.to_str())
    assert all(type(c) is Fraction for c in got.coeffs)
    assert all(type(x) is int for x in got.numerators)
    # canonical: lowest terms, and zero is 0/1
    assert got.denominator > 0 and gcd(got.denominator, *got.numerators) == 1


class TestIntegerCyclotomicOracle:
    @given(scalar_pairs(), scalar_pairs(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=300, deadline=None)
    def test_arithmetic_matches_fraction_reference(self, a, b, k):
        (x, rx), (y, ry) = a, b
        for op in (operator.add, operator.sub, operator.mul):
            assert_matches_reference(op(x, y), op(rx, ry))
            assert_matches_reference(op(y, x), op(ry, rx))
        assert (x == y) is (rx == ry) and (y == x) is (ry == rx)
        if isinstance(x, CycScalar):
            assert_matches_reference(-x, -rx)
            assert_matches_reference(x**k, rx**k)
            assert x.is_zero == all(c == 0 for c in rx.coeffs)

    @pytest.mark.parametrize("n", ORACLE_CONDUCTORS)
    def test_zeta_and_promote_match_fraction_reference(self, n):
        rng = random.Random(2000 + n)
        for m in ORACLE_CONDUCTORS:
            if m % n:
                continue
            x = random_cyc(rng, n)
            assert_matches_reference(x + CycScalar(m, ()), RefCycScalar(n, x.coeffs).promote(m))
        for k in range(n):
            assert_matches_reference(zeta(n, k), RefCycScalar(n, _zeta_powers(n)[k]))


def planted_rational_matrix(rng, rows, cols):
    """rows x cols with independent rows of small fractions, then dependent,
    zero and zero-column structure planted in, rows shuffled."""
    indep = rng.randint(0, min(rows, cols))
    m = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7))) for _ in range(cols)]
         for _ in range(indep)]
    while len(m) < rows:
        if not m or rng.random() < 0.2:
            m.append([Fraction(0)] * cols)
            continue
        cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in m]
        m.append([sum((c * row[j] for c, row in zip(cs, m)), Fraction(0)) for j in range(cols)])
    for j in rng.sample(range(cols), rng.randint(0, cols // 2)):
        for row in m:
            row[j] = Fraction(0)
    rng.shuffle(m)
    # integral entries as ints, as the callers pass them
    return [[x.numerator if x.denominator == 1 else x for x in row] for row in m]


def printing_coeffs(rng, size):
    """size coefficients drawn from zero, +-1, small ints and Fractions."""
    pool = (0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4))
    return [rng.choice(pool) for _ in range(size)]


class TestValueProtocol:
    """The shared protocol of the exact types: printing against the
    per-class printers it replaced, truth, subtraction and immutability."""

    def test_poly_and_ratfun_print_as_the_reference(self):
        rng = random.Random(91)
        samples = [Poly(), P(1), P(-1), P(0, 1), P(0, -1), P(Fraction(-1, 2), 0, 1)]
        samples += [Poly(printing_coeffs(rng, rng.randint(1, 6))) for _ in range(200)]
        for p in samples:
            want = ref_poly_to_str(p)
            assert (str(p), repr(p)) == (want, f"Poly({want})")
            assert p.to_str("z7") == ref_poly_to_str(p, "z7")
        for num, den in zip(samples[::2], samples[1::2]):
            if den.is_zero:
                continue
            r = RatFun(num, den)
            want = (ref_poly_to_str(r.num) if r.is_poly else
                    f"({ref_poly_to_str(r.num)})/({ref_poly_to_str(r.den)})")
            assert (str(r), repr(r)) == (want, f"RatFun({want})")

    @pytest.mark.parametrize("n", range(1, 13))
    def test_cyclotomic_prints_as_the_reference(self, n):
        rng = random.Random(300 + n)
        samples = [CycScalar(n, ()), CycScalar.from_rational(-1, n)]
        samples += [zeta(n, k) for k in range(n)]
        samples += [CycScalar(n, printing_coeffs(rng, rng.randint(0, _phi(n))))
                    for _ in range(40)]
        for x in samples:
            want = ref_cyc_to_str(x)
            assert (str(x), repr(x)) == (want, f"CycScalar({n}, {want})")

    def test_truth_is_nonzero(self):
        for zero, one in ((Poly(), S), (RatFun(0), RatFun(S, S + 1)),
                          (CycScalar(5, ()), zeta(5))):
            assert not zero and zero.is_zero
            assert one and not one.is_zero

    def test_subtraction_accepts_what_addition_accepts(self):
        r = RatFun(1, S)
        diff = S - r
        assert type(diff) is RatFun and diff == RatFun(S**2 - 1, S)
        assert type(r - S) is RatFun and r - S == -diff
        assert 3 - S == P(3, -1) and S - Fraction(1, 2) == P(Fraction(-1, 2), 1)
        with pytest.raises(TypeError):
            S - "3"
        with pytest.raises(TypeError):
            S - zeta(3)
        assert zeta(4) - 1 == zeta(4) + (-1) and 1 - zeta(4) == -(zeta(4) - 1)

    def test_immutable_with_the_type_name(self):
        for value in (S, RatFun(1, S), zeta(3)):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                value.anything = 1


class TestRationalRankOracle:
    @pytest.mark.parametrize("shape", ["square", "wide", "tall"])
    def test_matches_fraction_elimination(self, shape):
        rng = random.Random(("square", "wide", "tall").index(shape) + 71)
        for _ in range(80):
            n, k = rng.randint(1, 7), rng.randint(1, 5)
            rows, cols = {"square": (n, n), "wide": (n, n + k), "tall": (n + k, n)}[shape]
            m = planted_rational_matrix(rng, rows, cols)
            before = [list(row) for row in m]
            assert rational_rank(m) == ref_rational_rank(m)
            assert m == before  # the input is not modified

    def test_large_integer_entries(self):
        rng = random.Random(73)
        for _ in range(20):
            base = [[rng.randint(-10**12, 10**12) for _ in range(6)] for _ in range(4)]
            m = base + [[a - 3 * b for a, b in zip(base[0], base[1])]]
            assert rational_rank(m) == ref_rational_rank(m) == 4

    def test_inexact_division_raises(self):
        # rational_rank and poly_rank share one elimination loop.  Here a
        # subtraction that comes out one too large spoils the 2-minors of
        # the first step, so the next division, by the pivot 3, is inexact.
        class Skewed(int):
            def __mul__(self, other):
                return Skewed(int(self) * int(other))

            __rmul__ = __mul__

            def __sub__(self, other):
                return int(self) - int(other) + 1

        m = [[3, 1, 2], [1, 2, 1], [2, 1, 5]]
        assert rational_rank(m) == ref_rational_rank(m) == 3
        skewed = [[SimpleNamespace(numerator=Skewed(x), denominator=1) for x in row]
                  for row in m]
        with pytest.raises(AssertionError, match="inexact division"):
            rational_rank(skewed)

    def test_cyc_rank_on_planted_dependent_rows(self):
        rng = random.Random(74)
        for _ in range(25):
            n = rng.choice((3, 4, 5, 8, 12))

            def entry():
                pick = rng.random()
                if pick < 0.25:
                    return rng.randint(-3, 3)
                if pick < 0.4:
                    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                return random_cyc(rng, rng.choice([c for c in (1, 2, n) if n % c == 0]))

            width = rng.randint(1, 4)
            base = [[entry() for _ in range(width)] for _ in range(rng.randint(1, 3))]
            planted = []
            for _ in range(rng.randint(1, 2)):
                cs = [random_cyc(rng, n) for _ in base]
                planted.append([sum((c * row[j] for c, row in zip(cs, base)), 0)
                                for j in range(width)])
            m = base + planted
            rng.shuffle(m)
            rank = _cyc_rank(base)
            assert _cyc_rank(m) == rank == ref_cyc_rank(m) == ref_cyc_rank(base)
            assert rank <= min(len(base), width)


def flat_cyc_rank(vectors):
    """_cyc_rank by integer flattening, the body it had before the
    modular rank: each row v, scaled by the lcm D of its denominators,
    gives the phi integer rows of zeta^j * D * v, whose rational rank is
    phi times the cyclotomic rank."""
    cond = 1
    for vec in vectors:
        for x in vec:
            if isinstance(x, CycScalar):
                cond = cond * x.conductor // gcd(cond, x.conductor)
    phi = _phi(cond)
    powers = [zeta(cond, j) for j in range(phi)]
    rows = []
    for vec in vectors:
        promoted = [
            ref_promote(x, cond) if isinstance(x, CycScalar) else CycScalar.from_rational(x, cond)
            for x in vec
        ]
        scale = 1
        for x in promoted:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        ints = [x * scale for x in promoted]
        for zj in powers:
            row = []
            for x in ints:
                row.extend((zj * x).numerators)
            rows.append(row)
    rank = rational_rank(rows)
    assert rank % phi == 0
    return rank // phi


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def prime_factors(n):
    return [l for l in range(2, n + 1) if n % l == 0 and trial_division_is_prime(l)]


def mon_equivalence_matrices(q, d, n):
    """The three matrices whose ranks check_mon_equivalence compares."""
    basis = monodromic_span_basis(q, d, n)
    base = [list(f.values) for f in basis]
    images = [list(four_B(f).values) for f in basis]
    return [base, images, base + images]


class SmallInt(int):
    pass


class TestOperandDispatch:
    """CycScalar tests its own type before Fraction's ABC check, with the
    same results for ints, int subclasses and Fractions."""

    def test_rational_operands_of_every_kind(self):
        z = zeta(5)
        for c in (3, True, SmallInt(3), Fraction(3, 4), Fraction(6, 2)):
            r = CycScalar.from_rational(c, 5)
            assert_same_scalar(z + c, z + r)
            assert_same_scalar(c + z, r + z)
            assert_same_scalar(z - c, z - r)
            assert_same_scalar(c - z, r - z)
            assert_same_scalar(z * c, z * r)
            assert_same_scalar(c * z, r * z)
            assert (z == c) is False and (r == c) is True and (c == r) is True

    def test_other_operands_are_refused(self):
        z = zeta(5)
        for other in (1.5, "1", None, S):
            assert z.__add__(other) is NotImplemented
            assert z.__mul__(other) is NotImplemented
            assert z.__eq__(other) is NotImplemented
        with pytest.raises(TypeError):
            z + 1.5

    def test_cyclotomic_operands_run_no_abc_check(self):
        z, w, h = zeta(7), zeta(3), Fraction(1, 2)
        # h * z is left out: Fraction.__mul__ runs its own isinstance
        # tests before it returns NotImplemented
        ops = [lambda: z * w, lambda: z + w, lambda: z - w, lambda: z == w,
               lambda: z * 2, lambda: z + h, lambda: z * h, lambda: 3 * z]
        for op in ops:
            op()  # fills the conductor caches
        calls = []

        def profiler(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "__instancecheck__":
                calls.append(frame.f_back.f_code.co_name)

        sys.setprofile(profiler)
        try:
            for op in ops:
                op()
        finally:
            sys.setprofile(None)
        assert calls == []


class TestSplitPrimes:
    # Carmichael numbers, and strong pseudoprimes to every base up to 7,
    # up to 23 and up to 37 (the last needs the base 41)
    COMPOSITES = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 3215031751,
                  3825123056546413051, 318665857834031151167461)

    def test_miller_rabin_matches_trial_division(self):
        assert [n for n in range(3000) if cyclotomic._is_prime(n)] == [
            n for n in range(3000) if trial_division_is_prime(n)]

    def test_miller_rabin_rejects_pseudoprimes(self):
        for n in self.COMPOSITES:
            assert not cyclotomic._is_prime(n)
        assert cyclotomic._is_prime(2**61 - 1) and cyclotomic._is_prime(CERT_PRIME)
        assert not cyclotomic._is_prime((2**61 - 1) * 8191)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_split_primes_carry_a_primitive_root(self, n):
        primes = [cyclotomic.split_prime(n, i) for i in range(3)]
        assert [p for p, _ in primes] == sorted({p for p, _ in primes})
        for p, omega in primes:
            assert 2**61 < p < 2**62 and (p - 1) % n == 0
            assert cyclotomic._is_prime(p)
            assert all(pow(a, p - 1, p) == 1 for a in (2, 3, 5, 7))
            assert pow(omega, n, p) == 1
            assert all(pow(omega, n // l, p) != 1 for l in prime_factors(n))
            # Phi_n(omega) = 0 mod p, so zeta_n -> omega is a ring map
            assert sum(c * pow(omega, k, p) for k, c in enumerate(cyclotomic_poly(n).nums)) % p == 0
        # found once, then kept
        assert cyclotomic.split_prime(n, 1) is primes[1]


class TestCycRank:
    def test_empty_and_zero_matrices(self):
        zero6 = zeta(6) * 0
        cases = [[], [[]], [[], []], [[0]], [[0, 0], [0, 0]], [[Fraction(0), zero6]],
                 [[zero6], [0], [zeta(5) * 0]]]
        for m in cases:
            assert _cyc_rank(m) == ref_cyc_rank(m) == 0

    @pytest.mark.parametrize("n", [1, 3, 5, 12])
    def test_planted_bad_prime(self, n, monkeypatch):
        """An entry that vanishes at the first split prime: that prime
        reads rank 1, and the primes after it find rank 2."""
        from monofour import trace

        seen = []

        def recording(a, p):
            seen.append(snf._rank_mod_p(a, p))
            return seen[-1]

        monkeypatch.setattr(trace, "_rank_mod_p", recording)
        p, omega = cyclotomic.split_prime(n, 0)
        one = CycScalar.from_rational(1, n)
        bad = [p, Fraction(p, 7)]
        if n > 1:
            bad += [zeta(n) - omega, (zeta(n) - omega) * Fraction(3, 7)]
        for x in bad:
            for m in ([[one, 0], [0, x]], [[one, 0], [0, x], [one, x]]):
                seen.clear()
                assert _cyc_rank(m) == 2 == flat_cyc_rank(m)
                assert seen[0] == 1 and max(seen) == 2

    def test_rank_deficient_input_takes_primes_past_the_bound(self, monkeypatch):
        from monofour import trace

        used = []

        def counting(n, i):
            used.append(i)
            return cyclotomic.split_prime(n, i)

        monkeypatch.setattr(trace, "split_prime", counting)
        v = [zeta(7, k) * 1000 + k for k in range(5)]
        m = [v, [x * zeta(7, 3) for x in v], [x * Fraction(2, 9) for x in v]]
        assert _cyc_rank(m) == 1 == flat_cyc_rank(m)
        assert len(used) > 1  # 1 < min(3, 5), and the bound exceeds one prime

    def test_mon_equivalence_prime_count(self, monkeypatch):
        """Hadamard's l2 bound over the r+1 largest rows: the three
        matrices of check_mon_equivalence(11, 2, 2) (50 x 121 combined,
        rank 25, phi = 4) take 12 split primes in all."""
        from monofour import trace

        used = []

        def counting(n, i):
            used.append(i)
            return cyclotomic.split_prime(n, i)

        monkeypatch.setattr(trace, "split_prime", counting)
        assert trace.check_mon_equivalence(11, 2, 2)["verdict"] is True
        assert len(used) == 12

    @pytest.mark.parametrize("q,d,n", [(13, 1, 12), (7, 2, 6)])
    def test_mon_equivalence_matrices(self, q, d, n):
        for m in mon_equivalence_matrices(q, d, n):
            rank = _cyc_rank(m)
            assert rank == ref_cyc_rank(m) == flat_cyc_rank(m)

    @pytest.mark.parametrize("q,d,n", [(7, 1, 3), (11, 1, 2), (5, 2, 4)])
    def test_profile_matrices_against_flattening(self, q, d, n):
        for m in mon_equivalence_matrices(q, d, n):
            assert _cyc_rank(m) == flat_cyc_rank(m)

    def test_planted_rank_matrices(self):
        rng = random.Random(75)
        for _ in range(300):
            n = rng.choice((1, 3, 4, 5, 7, 8, 12, 15))
            divisors = [c for c in range(1, n + 1) if n % c == 0]
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)

            def entry():
                pick = rng.random()
                if pick < 0.2:
                    return rng.randint(-3, 3)
                if pick < 0.35:
                    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if pick < 0.45:
                    return zeta(n) * 0
                # entries of every conductor dividing n, in one matrix
                return random_cyc(rng, rng.choice(divisors))

            indep = rng.randint(0, min(rows, cols))
            m = [[entry() for _ in range(cols)] for _ in range(indep)]
            while len(m) < rows:
                cs = [random_cyc(rng, n) for _ in m]
                m.append([sum((c * row[j] for c, row in zip(cs, m)), 0) for j in range(cols)])
            rng.shuffle(m)
            rank = _cyc_rank(m)
            assert rank == flat_cyc_rank(m)
            assert rank <= indep


def test_cyc_rank_bound_covers_the_r_plus_1_largest_rows():
    """det = p, the first split prime, on rows whose l1 norms are below
    p, beside a zero row: p reads rank 1, and only a bound over the two
    largest rows, whose product exceeds p, goes on to a second prime."""
    p = cyclotomic.split_prime(1, 0)[0]
    a = 2**31
    d = p // a + 1
    m = [[0, 0], [a, 1], [a * d - p, d]]
    assert max(a + 1, a * d - p + d) < p
    assert _cyc_rank(m) == 2 == flat_cyc_rank(m)


@st.composite
def operands(draw):
    """An int, a Fraction with a non-unit denominator, or a cyclotomic
    value of a mixed conductor, zero included."""
    kind = draw(st.sampled_from(("int", "fraction", "cyclotomic", "cyclotomic zero")))
    if kind == "int":
        return draw(st.integers(min_value=-6, max_value=6))
    if kind == "fraction":
        return draw(small_fracs)
    n = draw(st.sampled_from(MIXED_CONDUCTORS))
    if kind == "cyclotomic zero":
        return CycScalar(n, [])
    return CycScalar(n, draw(st.lists(small_fracs, max_size=_phi(n))))


def chained_sum(pairs):
    acc = 0
    for a, b in pairs:
        acc = acc + a * b
    return acc


def assert_same_scalar(got, want):
    assert type(got) is type(want)
    assert getattr(got, "conductor", None) == getattr(want, "conductor", None)
    assert got == want and str(got) == str(want)
    if isinstance(want, CycScalar):
        assert (got.numerators, got.denominator) == (want.numerators, want.denominator)


class TestSumOfProducts:
    def test_empty_sum_is_the_int_zero(self):
        assert_same_scalar(sum_of_products([]), 0)
        assert_same_scalar(sum_of_products(iter(())), 0)

    @given(st.lists(st.tuples(operands(), operands()), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_chained_sum(self, pairs):
        assert_same_scalar(sum_of_products(pairs), chained_sum(pairs))
        assert_same_scalar(sum_of_products(iter(pairs)), chained_sum(pairs))
        # a product of two cyclotomic values is itself a sum_of_products,
        # so the chained sum is also taken on the Fraction-tuple reference
        def ref(x):
            return RefCycScalar(x.conductor, x.coeffs) if isinstance(x, CycScalar) else x

        assert_matches_reference(sum_of_products(pairs),
                                 chained_sum([(ref(a), ref(b)) for a, b in pairs]))

    def test_seeded_sums_with_denominators(self):
        rng = random.Random(76)
        for _ in range(200):
            pairs = []
            for _ in range(rng.randint(0, 7)):
                pair = []
                for _ in range(2):
                    pick = rng.random()
                    if pick < 0.2:
                        pair.append(rng.randint(-4, 4))
                    elif pick < 0.4:
                        pair.append(Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5, 12))))
                    elif pick < 0.5:
                        pair.append(zeta(rng.choice((2, 6, 10)), rng.randrange(10)) * 0)
                    else:
                        pair.append(random_cyc(rng, rng.choice((1, 3, 4, 5, 8, 10, 12, 15))))
                pairs.append(tuple(pair))
            assert_same_scalar(sum_of_products(pairs), chained_sum(pairs))

    def test_cyclotomic_zeros_keep_their_conductor(self):
        got = sum_of_products([(3, zeta(7) * 0), (Fraction(1, 2), 2), (zeta(4), 0)])
        assert_same_scalar(got, chained_sum([(3, zeta(7) * 0), (Fraction(1, 2), 2), (zeta(4), 0)]))
        assert (got.conductor, str(got)) == (28, "1")

    def test_rational_sums_keep_their_type(self):
        for pairs in ([(2, 3), (True, 4)], [(Fraction(1, 2), 4)], [(0, Fraction(1, 3)), (1, 1)]):
            assert_same_scalar(sum_of_products(pairs), chained_sum(pairs))

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11])
    def test_gauss_sums_match_the_chained_sum(self, q):
        from monofour.trace import CharacterTable

        table = CharacterTable(q)
        for k in range(q - 1):
            want = chained_sum(
                (table.chi(k, x), table.psi(x)) for x in range(1, q))
            assert_same_scalar(gauss_sum(q, k), want)


# The Fraction-tuple Poly from before int numerators over one denominator,
# kept as the reference for the integer layout.  Its shift is the Horner
# composition with s + c, so it shares no kernel with Poly.shift.
class RefPoly:
    """Polynomial with one Fraction per coefficient, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def _coerce(other):
        if isinstance(other, (int, Fraction)):
            return RefPoly((other,))
        return other if isinstance(other, RefPoly) else NotImplemented

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RefPoly(a * other for a in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return RefPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return RefPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = RefPoly((1,))
        for _ in range(n):
            out = out * self
        return out

    def __divmod__(self, other):
        other = self._coerce(other)
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            c = rem[-1] / other.lc
            q[k] = c
            for i, oc in enumerate(other.coeffs):
                rem[k + i] -= c * oc
        return RefPoly(q), RefPoly(rem)

    def monic(self):
        return self if self.is_zero else self * (1 / self.lc)

    def eval(self, a):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * frac(a) + c
        return acc

    def compose_linear(self, a, b):
        lin = RefPoly((b, a))
        out = RefPoly()
        for coef in reversed(self.coeffs):
            out = out * lin + coef
        return out

    def shift(self, c):
        return self.compose_linear(1, c)

    to_str = ref_poly_to_str


@st.composite
def poly_operands(draw):
    """(value, reference) for an int, a Fraction or a polynomial."""
    kind = draw(st.sampled_from(("int", "fraction", "poly", "poly", "poly")))
    if kind == "int":
        v = draw(st.integers(min_value=-6, max_value=6))
        return v, v
    if kind == "fraction":
        v = draw(small_fracs)
        return v, v
    coeff = st.one_of(st.integers(min_value=-6, max_value=6), small_fracs,
                      st.integers(), st.fractions(max_denominator=10**12))
    cs = draw(st.lists(coeff, max_size=6))
    return Poly(cs), RefPoly(cs)


def assert_canonical(p):
    """Int numerators without a trailing zero over a positive int
    denominator, in lowest terms; zero is ()/1."""
    assert type(p.nums) is tuple and all(type(x) is int for x in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert type(p.den) is int and p.den > 0 and gcd(p.den, *p.nums) == 1
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == tuple(Fraction(x, p.den) for x in p.nums)


def assert_poly_matches(got, want):
    if not isinstance(want, RefPoly):
        assert type(got) is type(want) and got == want
        return
    assert type(got) is Poly
    assert got.coeffs == want.coeffs and str(got) == want.to_str()
    assert_canonical(got)


class TestIntegerPolyOracle:
    @given(poly_operands(), poly_operands(), small_fracs,
           st.integers(min_value=-4, max_value=4))
    @settings(max_examples=400, deadline=None)
    def test_arithmetic_matches_fraction_reference(self, a, b, c, k):
        (x, rx), (y, ry) = a, b
        for op in (operator.add, operator.sub, operator.mul):
            assert_poly_matches(op(x, y), op(rx, ry))
            assert_poly_matches(op(y, x), op(ry, rx))
        assert (x == y) is (rx == ry) and (y == x) is (ry == rx)
        for (p, rp), (q, rq) in ((a, b), (b, a)):
            if not isinstance(p, Poly):
                continue
            if q != 0:
                got, want = divmod(p, q), divmod(rp, rq)
                assert_poly_matches(got[0], want[0])
                assert_poly_matches(got[1], want[1])
                assert_poly_matches(p // q, want[0])
                assert_poly_matches(p % q, want[1])
            assert_poly_matches(-p, -rp)
            assert_poly_matches(p ** abs(k), rp ** abs(k))
            assert_poly_matches(p.monic(), rp.monic())
            for t in (c, k):
                value = p.eval(t)
                assert type(value) is Fraction and value == rp.eval(t)
                assert_poly_matches(p.shift(t), rp.shift(t))
            assert p.lc == rp.lc and p.degree == len(rp.coeffs) - 1
            assert p == Poly(rp.coeffs) and hash(p) == hash(Poly(rp.coeffs))
            assert_canonical(p)

    def test_division_falls_back_to_fractions(self):
        # 3 does not divide the leading numerators 1 and 2: the quotient
        # leaves the integers part way through.
        p, q = P(1, 2, 0, 1), P(-1, 3)
        got, want = divmod(p, q), divmod(RefPoly(p.coeffs), RefPoly(q.coeffs))
        assert got[0].coeffs == want[0].coeffs and got[1].coeffs == want[1].coeffs
        assert got[0] == P(Fraction(19, 27), Fraction(1, 9), Fraction(1, 3))
        assert got[1] == P(Fraction(46, 27))
        assert_canonical(got[0])
        assert_canonical(got[1])

    def test_zero_and_constants(self):
        zero = Poly()
        assert (zero.nums, zero.den) == ((), 1) == (P(0, 0).nums, P(Fraction(0, 7)).den)
        assert P(Fraction(4, 6), 2).nums == (2, 6) and P(Fraction(4, 6), 2).den == 3
        assert zero == 0 and P(3) == 3 and P(Fraction(1, 2)) == Fraction(1, 2)
        assert P(Fraction(1, 2)) != 1 and zero != Fraction(1, 2)
        assert zero.eval(Fraction(5, 3)) == 0 and type(zero.eval(2)) is Fraction
