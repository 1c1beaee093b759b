"""Tests for the windowed equivariant module layer.

Expected values are frozen from hand computations with the defining
rules: the right action f*(T^j p) = f(s+j) p, the ladder recurrences,
and partial-fraction bookkeeping.  Torsion verdicts are cross-checked
against an independent evaluation-rank oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monofour.mellin import (
    EquivariantModule,
    Factored,
    Fiber,
    LadderFamily,
    NotAMorphismError,
    NotMonodromicError,
    OrbitPointError,
    WindowError,
    WindowedLattice,
    embed_in_Ks,
    equivariant_free,
    euler_eigen_module,
    exp_ladder,
    exp_square_check,
    fourier_B_monodromic,
    fourier_presentation,
    hom_to_free_vanishes,
    kernel_module,
    localization_identity_check,
    mellin_module,
    monodromic_test,
    monodromization_check,
    orbit_decomposition_check,
    orbit_pole_lattice,
    point_module,
    pole_ladder,
    rational_right_action,
    shift_exp_module,
    skyscraper_freeness_check,
    tensor_equivariant,
    torsion_by_point_ranks,
    twisted_exp_ladder,
    weyl_kernel_module,
    windowed_equivariant,
)
from monofour import checks, mellin
from monofour.ore import CyclicPresentation, ShiftOp, WeylOp, antipode, inversion_twist
from monofour.scalars import ratfun
from monofour.scalars.snf import poly_smith, rational_rank
from monofour.scalars.poly import Poly, UnsupportedInputError, at_least, poly_gcd, poly_lcm
from monofour.scalars.ratfun import RatFun, linear_factors

S = ShiftOp.s()
T = ShiftOp.t_power(1)
Ti = ShiftOp.t_power(-1)

B_GEN = RatFun(1, Poly((1, 1)))  # 1/(s+1)
FREE_SHIFT = CyclicPresentation("shift", ())
WEYL_EXP = CyclicPresentation("weyl", (1 - WeylOp.dx(),))  # relation 1 - dx


def s_plus(c) -> Poly:
    return Poly((c, 1))


def func(ladder: LadderFamily, j: int) -> RatFun:
    """The ladder's j-th function, expanded to a RatFun."""
    return ladder._value(j).to_ratfun()


# k[s]/(s) and the diagonal presentation of the skyscraper window
# sum over |i| <= 4 of k[s]/(s-i)^2, built directly.
CYCLIC_AT_ZERO = EquivariantModule(1, ((Poly.x(),),))
SKYSCRAPER_WINDOW = EquivariantModule(
    9,
    tuple(
        tuple(s_plus(-i) ** 2 if i == j else Poly() for j in range(-4, 5))
        for i in range(-4, 5)
    ),
)


class TestRightAction:
    def test_shift_is_argument_translation(self):
        f = RatFun(1, s_plus(1))
        assert rational_right_action(f, T) == RatFun(1, s_plus(2))
        assert rational_right_action(f, Ti) == RatFun(1, Poly.x())

    def test_polynomial_acts_by_multiplication(self):
        f = RatFun(1, s_plus(1))
        assert rational_right_action(f, S) == RatFun(Poly.x(), s_plus(1))

    def test_kernel_generator_is_annihilated(self):
        rel = kernel_module().single_relation()
        assert rational_right_action(B_GEN, rel).num.is_zero

    def test_exp_relation_does_not_annihilate_one(self):
        rel = shift_exp_module().single_relation()
        got = rational_right_action(RatFun(1), rel)
        assert got == RatFun(Poly((1, -1)))  # 1 - s


class TestEmbed:
    def test_kernel_module_embeds_on_simple_pole(self):
        lat = embed_in_Ks(kernel_module(), B_GEN, 10)
        assert len(lat.generators) == 21
        expected = WindowedLattice(
            0, 10, [RatFun(1, s_plus(i)) for i in range(-10, 11)]
        )
        assert lat.same_lattice(expected)
        assert set(lat.generators) == set(expected.generators)

    def test_constant_image_rejected_with_value(self):
        with pytest.raises(NotAMorphismError) as exc:
            embed_in_Ks(kernel_module(), RatFun(1), 10)
        assert "got 1" in str(exc.value)

    def test_acceptance_is_exactly_annihilation(self):
        rel = kernel_module().single_relation()
        candidates = [
            B_GEN,
            B_GEN * Fraction(7, 3),
            RatFun(1, Poly.x()),
            RatFun(1, s_plus(1) * s_plus(1)),
            RatFun(s_plus(3), s_plus(1)),
        ]
        for f in candidates:
            annihilated = rational_right_action(f, rel).num.is_zero
            if annihilated:
                embed_in_Ks(kernel_module(), f, 6)
            else:
                with pytest.raises(NotAMorphismError):
                    embed_in_Ks(kernel_module(), f, 6)

    def test_acceptance_stable_under_rational_scaling(self):
        for c in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
            lat = embed_in_Ks(kernel_module(), B_GEN * c, 4)
            assert lat.same_lattice(embed_in_Ks(kernel_module(), B_GEN, 4))

    def test_exp_module_has_no_rational_embedding(self):
        for f in (RatFun(1), RatFun(1, Poly.x()), RatFun(s_plus(1)), B_GEN):
            with pytest.raises(NotAMorphismError):
                embed_in_Ks(shift_exp_module(), f, 4)

    def test_pole_spread_beyond_window_is_an_error(self):
        wide = RatFun(1, Poly.x() * s_plus(50))
        with pytest.raises(WindowError):
            embed_in_Ks(FREE_SHIFT, wide, 10)

    def test_poles_on_two_orbits_unsupported(self):
        mixed = RatFun(1, Poly.x() * s_plus(Fraction(1, 2)))
        with pytest.raises(UnsupportedInputError):
            embed_in_Ks(FREE_SHIFT, mixed, 10)

    def test_pole_free_image_spans_full_window(self):
        lat = embed_in_Ks(FREE_SHIFT, RatFun(1), 3)
        assert len(lat.generators) == 7

    def test_image_poles_off_z_set_the_lattice_orbit(self):
        # poles at -3/2 and 1/2, zero at 5/2: the orbit 1/2 + Z, offsets -2 and 0
        image = RatFun(s_plus(Fraction(-5, 2)), s_plus(Fraction(3, 2)) * s_plus(Fraction(-1, 2)))
        lat = embed_in_Ks(FREE_SHIFT, image, 3)
        assert lat.chi == Fraction(1, 2) and lat._content.chi == Fraction(1, 2)
        # shifts k keep both poles within 3 of the orbit's 0: -3 <= k <= 1
        assert lat.generators == tuple(image.shift(k) for k in range(-3, 2))
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            embed_in_Ks(FREE_SHIFT, image * RatFun(1, Poly.x()), 3)
        with pytest.raises(UnsupportedInputError, match="without rational roots"):
            embed_in_Ks(FREE_SHIFT, image * RatFun(1, Poly((1, 0, 1))), 3)
        # a zero off the orbit of the poles is refused as well
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            embed_in_Ks(FREE_SHIFT, image * RatFun(s_plus(Fraction(-1, 3))), 3)


class TestFiber:
    def test_off_orbit_fiber_generated_by_one(self):
        lat = embed_in_Ks(kernel_module(), B_GEN, 10)
        fib = lat.fiber(Fraction(1, 2))
        assert fib.generator == RatFun(1)
        assert fib.generator_label == "1"

    def test_orbit_fiber_generated_by_local_pole(self):
        lat = embed_in_Ks(kernel_module(), B_GEN, 10)
        fib = lat.fiber(-3)
        assert fib.generator == RatFun(1, s_plus(3))

    def test_exp_fiber_picks_deepest_ladder_element(self):
        e = exp_ladder(4)
        fib = e.fiber(2)
        assert fib.generator == func(e, -3)
        assert fib.generator_label == "e[-3]"

    def test_fiber_outside_window_raises(self):
        lat = embed_in_Ks(kernel_module(), B_GEN, 4)
        with pytest.raises(WindowError):
            lat.fiber(20)
        with pytest.raises(WindowError):
            exp_ladder(4).fiber(9)


class TestTensor:
    def test_window_mismatch_raises(self):
        with pytest.raises(WindowError):
            tensor_equivariant(pole_ladder(3), 0, 5)
        with pytest.raises(WindowError):
            tensor_equivariant(WindowedLattice(0, 2, [RatFun(1)]), 0, 3)
        # at radius N the ladder has no pole at 3, so the fiber there is
        # generated by 1 and the step from 1/(s-2) vanishes: the check
        # takes its lines one wider than the tower
        assert tensor_equivariant(pole_ladder(3), 0, 3) == {i: int(i < 3) for i in range(-2, 4)}
        assert tensor_equivariant(pole_ladder(4), 0, 3) == {i: 1 for i in range(-2, 4)}


class TestMonodromicTest:
    def test_translation_delta_is_not_torsion(self):
        em = windowed_equivariant(CyclicPresentation("shift", (T - 1,)), 6)
        assert em.nrows == 13 and em.ncols == 12
        assert not monodromic_test(em)

    def test_eigen_relation_is_torsion(self):
        em = windowed_equivariant(
            CyclicPresentation("shift", (S - Fraction(1, 2),)), 6
        )
        assert monodromic_test(em)

    def test_kernel_module_window_has_free_summand(self):
        assert not monodromic_test(windowed_equivariant(kernel_module(), 6))

    def test_skyscraper_window_is_torsion(self):
        assert monodromic_test(SKYSCRAPER_WINDOW)

    def test_free_module_is_not_torsion(self):
        assert not monodromic_test(equivariant_free(3))
        assert monodromic_test(EquivariantModule(0, ()))

    def test_against_evaluation_rank_oracle(self):
        rng = random.Random(20260823)
        cases = 0
        for _ in range(20):
            levels = rng.sample((-1, 0, 1), rng.randint(1, 3))
            terms = {}
            for j in levels:
                coeffs = tuple(
                    Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))
                )
                if any(coeffs):
                    terms[j] = Poly(coeffs)
            rel = ShiftOp(terms)
            pres = CyclicPresentation(
                "shift", () if rel.terms == {} else (rel,)
            )
            em = windowed_equivariant(pres, 3)
            assert monodromic_test(em) == torsion_by_point_ranks(em)
            cases += 1
        assert cases == 20

    def test_rank_test_agrees_with_smith_form(self):
        # Every module whose verdict is frozen above: the rank routine and
        # the Smith diagonal see the same rank, so each verdict is kept.
        modules = [
            windowed_equivariant(CyclicPresentation("shift", (T - 1,)), 6),
            windowed_equivariant(CyclicPresentation("shift", (S - Fraction(1, 2),)), 6),
            windowed_equivariant(kernel_module(), 6),
            windowed_equivariant(shift_exp_module(), 4),
            SKYSCRAPER_WINDOW,
            CYCLIC_AT_ZERO,
            equivariant_free(1),
        ]
        for em in modules:
            _, d, _ = poly_smith(em.matrix)
            smith_rank = sum(
                1 for i in range(min(em.nrows, em.ncols)) if not d[i][i].is_zero
            )
            assert monodromic_test(em) == (smith_rank == em.nrows)

    def test_window_stability(self):
        for pres in (
            CyclicPresentation("shift", (T - 1,)),
            CyclicPresentation("shift", (S - Fraction(1, 2),)),
            kernel_module(),
            shift_exp_module(),
        ):
            v4 = monodromic_test(windowed_equivariant(pres, 4))
            v6 = monodromic_test(windowed_equivariant(pres, 6))
            assert v4 == v6


def ref_torsion_by_point_ranks(m: EquivariantModule) -> bool:
    """The evaluation-rank oracle as it was before it stopped at the rank
    cap: Fraction evaluations at s = 101, 102, ..., through all bound + 1
    points unless a rank reaches the row count."""
    if m.nrows == 0:
        return True
    if m.ncols == 0:
        return False
    rows = m.matrix
    bound = sum(max((e.degree for e in row if not e.is_zero), default=0) for row in rows)
    best = 0
    for k in range(bound + 1):
        t = Fraction(101 + k)
        num = [[entry.eval(t) for entry in row] for row in rows]
        best = max(best, rational_rank(num))
        if best == m.nrows:
            return True
    return best == m.nrows


COEFFS = st.integers(-3, 3) | st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)
POLYS = st.lists(COEFFS, max_size=4).map(Poly)
AT_101 = Poly((-101, 1))


@st.composite
def poly_matrices(draw):
    """A Poly matrix, square, tall or wide, with at least one column."""
    shape = draw(st.sampled_from(("square", "tall", "wide")))
    small, large = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rows, cols = {
        "square": (small, small),
        "tall": (small + large, small),
        "wide": (small, small + large),
    }[shape]
    return [[draw(POLYS) for _ in range(cols)] for _ in range(rows)]


@st.composite
def windowed_presentations(draw):
    """A random cyclic shift presentation, as mon-test draws them but with
    rational coefficients, on windows 0-5."""
    terms = {}
    for j in draw(st.sets(st.integers(-2, 2), min_size=1, max_size=3)):
        p = draw(POLYS)
        if not p.is_zero:
            terms[j] = p
    rel = ShiftOp(terms)
    pres = CyclicPresentation("shift", () if not rel.terms else (rel,))
    return windowed_equivariant(pres, draw(st.integers(0, 5)))


def _module(rows) -> EquivariantModule:
    return EquivariantModule(len(rows), tuple(tuple(r) for r in rows))


def _count_rational_rank(monkeypatch) -> list:
    """Record the row count of every rational_rank call the oracle makes."""
    calls = []
    real = mellin.rational_rank

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(mellin, "rational_rank", counting)
    return calls


class TestTorsionByPointRanks:
    """The oracle that stops at min(rows, cols) and evaluates in integers
    gives the verdict of the reference that tries every point."""

    @settings(max_examples=100, deadline=None)
    @given(windowed_presentations())
    def test_windowed_presentations(self, em):
        assert torsion_by_point_ranks(em) == ref_torsion_by_point_ranks(em)

    @settings(max_examples=100, deadline=None)
    @given(poly_matrices())
    def test_random_matrices(self, rows):
        em = _module(rows)
        assert torsion_by_point_ranks(em) == ref_torsion_by_point_ranks(em)

    @settings(max_examples=80, deadline=None)
    @given(poly_matrices(), st.data())
    def test_rank_drops_at_the_first_point(self, rows, data):
        # one row vanishes at s = 101, so the first point stays below the
        # cap whenever the rows are independent over k(s)
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = [AT_101 * e for e in rows[i]]
        em = _module(rows)
        assert torsion_by_point_ranks(em) == ref_torsion_by_point_ranks(em)

    @settings(max_examples=80, deadline=None)
    @given(poly_matrices(), st.data())
    def test_dependent_row(self, rows, data):
        # the last row becomes a Q[s]-combination of the others, with
        # rational coefficients, so its entries' denominators differ
        qs = [data.draw(POLYS) for _ in rows[:-1]]
        rows[-1] = [
            sum((q * r[k] for q, r in zip(qs, rows)), Poly()) for k in range(len(rows[0]))
        ]
        em = _module(rows)
        assert torsion_by_point_ranks(em) == ref_torsion_by_point_ranks(em)
        assert not torsion_by_point_ranks(em)

    @settings(max_examples=40, deadline=None)
    @given(poly_matrices(), st.data())
    def test_zero_row(self, rows, data):
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = [Poly()] * len(rows[i])
        em = _module(rows)
        assert not torsion_by_point_ranks(em)
        assert not ref_torsion_by_point_ranks(em)

    def test_no_columns(self):
        for em, torsion in (
            (equivariant_free(1), False),
            (equivariant_free(3), False),
            (EquivariantModule(0, ()), True),
        ):
            assert torsion_by_point_ranks(em) == ref_torsion_by_point_ranks(em) == torsion

    def test_goes_past_a_point_below_the_cap(self, monkeypatch):
        calls = _count_rational_rank(monkeypatch)
        assert torsion_by_point_ranks(_module([[AT_101, Poly((1,))], [Poly(), AT_101]]))
        assert calls == [2, 2]
        calls.clear()
        assert not torsion_by_point_ranks(_module([[AT_101], [Poly((5, 1))]]))
        assert calls == [2]

    @pytest.mark.parametrize(
        "params,limit",
        [({"count": 20, "seed": 20260823}, 20), ({"count": 40, "window": 4}, 40)],
    )
    def test_mon_test_rank_calls(self, monkeypatch, params, limit):
        calls = _count_rational_rank(monkeypatch)
        assert checks.run_check("mon-test", params).verdict == "pass"
        assert len(calls) <= limit


class TestHomToFree:
    def test_kernel_lattice_admits_no_bounded_maps(self):
        lat = embed_in_Ks(kernel_module(), B_GEN, 10)
        verdict, witness = hom_to_free_vanishes(lat, 5)
        assert verdict is True and witness is None

    def test_unit_lattice_has_constant_witness(self):
        lat = WindowedLattice(0, 10, [RatFun(1)], ["1"])
        verdict, witness = hom_to_free_vanishes(lat, 5)
        assert verdict is False
        assert len(witness) == 1 and not witness[0].is_zero

    def test_small_window_is_an_error(self):
        lat = embed_in_Ks(kernel_module(), B_GEN, 10)
        with pytest.raises(WindowError):
            hom_to_free_vanishes(lat, 10)

    def test_witness_satisfies_syzygies(self):
        lat = WindowedLattice(
            0, 5, [RatFun(1, Poly.x()), RatFun(1, Poly.x())], ["a", "b"]
        )
        verdict, witness = hom_to_free_vanishes(lat, 2)
        assert verdict is False
        h1, h2 = witness
        assert h1 == h2  # the duplicate-generator syzygy
        assert not (h1.is_zero and h2.is_zero)


class TestLocalization:
    def test_kernel_lattice_trivializes_off_orbit(self):
        lat = embed_in_Ks(kernel_module(), B_GEN, 10)
        points = [Fraction(1, 2), Fraction(-3, 2), Fraction(1, 3)]
        assert localization_identity_check(lat, points) is True

    def test_orbit_point_rejected(self):
        lat = WindowedLattice(
            Fraction(1, 2), 6, [RatFun(1, s_plus(Fraction(-1, 2)))], ["g"]
        )
        with pytest.raises(OrbitPointError):
            localization_identity_check(lat, [Fraction(1, 2)])

    def test_pole_at_test_point_rejected(self):
        # a pole at 1/2 is off the lattice's orbit Z, so the generator
        # carrying it is refused before any test point is read
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            WindowedLattice(0, 6, [RatFun(1, s_plus(Fraction(-1, 2)))], ["g"])

    def test_non_window_zero_blocks_identity(self):
        lat = WindowedLattice(0, 6, [RatFun(s_plus(-7))], ["g"])
        assert localization_identity_check(lat, [Fraction(1, 3)]) is False
        assert localization_identity_check(WindowedLattice(0, 6, [RatFun(s_plus(-6))]), [Fraction(1, 3)])


class TestSkyscraperFreeness:
    def test_kernel_module_integral_orbit(self):
        rep = skyscraper_freeness_check("kernel", 0, 1, 6)
        assert rep["verdict"] is True
        assert len(rep["fibers"]) == 13
        assert all(row["free_rank_one"] for row in rep["fibers"])
        by_i = {row["i"]: row for row in rep["fibers"]}
        assert by_i[0]["generator"] == "b[-1]"
        assert by_i[2]["generator"] == "b[-3]"

    def test_exp_module_half_orbit(self):
        rep = skyscraper_freeness_check("exp", Fraction(1, 2), 2, 4)
        assert rep["verdict"] is True
        assert rep["ladder_law"] is True
        assert rep["shift_units_recorded"] is True  # f_(j+1) = f_j(s+1) (s+1)
        by_i = {row["i"]: row for row in rep["fibers"]}
        assert by_i[1]["generator"] == "e[-2]"

    def test_exp_recurrence_exact(self):
        e = exp_ladder(7)
        for i in range(-6, 7):
            assert func(e, -i) == func(e, -i - 1) * s_plus(-i)

    def test_kernel_shift_carries_generator_to_generator(self):
        b = pole_ladder(7)
        for j in range(-6, 6):
            assert func(b, j).shift(1) == func(b, j + 1)

    def test_kernel_shift_law_is_tested(self, monkeypatch):
        # f_j = 1/(s + 2j + 1): f_{-i-1}(s + 1) = 1/(s - 2i) is not f_{-i}
        def skewed(radius):
            return LadderFamily("b", {
                j: RatFun(Poly.const(1), Poly((2 * j + 1, 1)))
                for j in range(-radius, radius + 1)
            })

        monkeypatch.setitem(mellin._LADDERS, "kernel", skewed)
        rep = skyscraper_freeness_check("kernel", 0, 1, 3)
        assert rep["shift_units_recorded"] is False and rep["verdict"] is False

    def test_exp_shift_law_is_tested(self, monkeypatch):
        # f_j = s e_j keeps the ladder law and every fiber free, but its
        # step f_(j+1)/f_j(s+1) is s, not s+1
        def scaled(radius):
            e = exp_ladder(radius)
            return LadderFamily("e", {j: mellin._linear(0) * e._value(j) for j in e.indices()})

        monkeypatch.setitem(mellin._LADDERS, "exp", scaled)
        rep = skyscraper_freeness_check("exp", 0, 1, 3)
        assert rep["ladder_law"] is True
        assert all(row["free_rank_one"] for row in rep["fibers"])
        assert rep["shift_units_recorded"] is False and rep["verdict"] is False
        report = checks.run_check("propDmod3", {"chi": "0", "n": 1, "window": 3})
        assert report.verdict == "fail"
        assert report.witness["kernel"]["verdict"] is True
        assert report.witness["exp"]["verdict"] is False

    def test_bad_inputs(self):
        with pytest.raises(UnsupportedInputError):
            skyscraper_freeness_check("Q", 0, 1, 4)
        # the one-letter names are not aliases of the module kinds
        with pytest.raises(UnsupportedInputError, match="unknown module kind 'B'"):
            skyscraper_freeness_check("B", 0, 1, 4)
        with pytest.raises(UnsupportedInputError):
            skyscraper_freeness_check("kernel", 0, 7, 4)


class TestMonodromization:
    def test_integral_orbit_order_one(self):
        rep = monodromization_check(0, 1, 8)
        assert rep["verdict"] is True
        assert rep["kernel"]["verdict"] and rep["exp"]["verdict"]

    def test_half_orbit_order_three(self):
        rep = monodromization_check(Fraction(1, 2), 3, 6)
        assert rep["verdict"] is True

    def test_free_control_is_identity(self):
        rep = monodromization_check(0, 1, 8)
        assert rep["control_free"]["verdict"] is True

    def test_units_nonzero(self):
        rep = monodromization_check(Fraction(1, 3), 2, 4)
        for key in ("kernel", "exp", "control_free"):
            assert list(rep[key]) == ["verdict", "units"]
            assert list(rep[key]["units"]) == [str(i) for i in range(-3, 5)]
            for v in rep[key]["units"].values():
                assert Fraction(v) != 0

    def test_empty_window_has_no_units(self):
        rep = monodromization_check(Fraction(1, 2), 4, 0)
        assert rep["verdict"] is True
        assert all(rep[key] == {"verdict": True, "units": {}} for key in ("kernel", "exp", "control_free"))


class TestExpSquare:
    def test_affine_twist_reproduces_kernel_lattice(self):
        rep = exp_square_check(6)
        assert rep["verdict"] is True
        assert rep["witness"] == [1, 0]
        stage = rep["stages"]["(1,0)"]
        assert stage["relation"] and stage["generates"] and stage["kernel_match"]
        assert stage["unit"] == "1"
        assert stage["target_agrees"] is True

    def test_control_has_no_relation_candidate(self):
        rep = exp_square_check(6, control=True)
        assert rep["verdict"] is False
        assert rep["relation_witnesses"] == []

    def test_plain_twist_fails_lattice_identification(self):
        rep = exp_square_check(6, variant="plain")
        assert rep["verdict"] is False
        assert rep["relation_witnesses"] == [[2, 0]]
        stage = rep["stages"]["(2,0)"]
        assert stage["relation"] is True
        assert stage["kernel_match"] is False

    def test_witness_orbit_is_the_pole_ladder_on_the_nose(self):
        N = 6
        tw, e, b = twisted_exp_ladder(N), exp_ladder(N), pole_ladder(N)
        for k in range(-N + 1, N - 1):
            assert func(tw, 1 + k) * func(e, k) == func(b, k)

    def test_window_stability(self):
        assert exp_square_check(4)["verdict"] == exp_square_check(6)["verdict"]
        assert (
            exp_square_check(4, variant="plain")["verdict"]
            == exp_square_check(6, variant="plain")["verdict"]
        )

    def test_small_window_raises(self):
        with pytest.raises(WindowError):
            exp_square_check(2)


class TestLadders:
    def test_twisted_affine_values(self):
        tw = twisted_exp_ladder(4)
        assert func(tw, 0) == RatFun(1)
        assert func(tw, 1) == RatFun(1, s_plus(1))
        assert func(tw, -1) == RatFun(Poly.x())
        assert func(tw, 2) == RatFun(1, s_plus(1) * s_plus(2))

    def test_twisted_plain_values(self):
        tw = twisted_exp_ladder(4, "plain")
        assert func(tw, 1) == RatFun(1, Poly.x())
        assert func(tw, -1) == RatFun(Poly((-1, 1)))

    def test_unknown_variant(self):
        with pytest.raises(UnsupportedInputError, match="^unknown twist variant 'other'$"):
            twisted_exp_ladder(4, "other")

    def test_immutable_with_the_type_name(self):
        ladder = pole_ladder(2)
        for value in (ladder, ladder.as_lattice(), ladder._value(0)):
            with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
                value.radius = 1

    def test_twisted_relation_matches_twisted_presentation(self):
        # The inversion twist of the exponential relation rewrites
        # T^j (s+j) to T^(j-1); the affine ladder satisfies exactly that.
        rel = inversion_twist(shift_exp_module().single_relation())
        assert rel == 1 - T * Poly((1, 1))
        tw = twisted_exp_ladder(5)
        for j in range(-4, 5):
            assert func(tw, j) * s_plus(j) == func(tw, j - 1)

    def test_exp_ladder_matches_its_presentation(self):
        e = exp_ladder(5)
        for j in range(-4, 5):
            assert func(e, j + 1) == func(e, j) * s_plus(j + 1)

    def test_ladder_window_bounds(self):
        with pytest.raises(WindowError):
            func(exp_ladder(3), 4)


LADDERS = {
    "pole": lambda: pole_ladder(4),
    "exp": lambda: exp_ladder(4),
    "twisted-affine": lambda: twisted_exp_ladder(4),
    "twisted-plain": lambda: twisted_exp_ladder(4, "plain"),
}


def _fresh_lattice(ladder: LadderFamily) -> WindowedLattice:
    idx = ladder.indices()
    return WindowedLattice(
        0,
        ladder.radius,
        [func(ladder, j) for j in idx],
        [f"{ladder.label}[{j}]" for j in idx],
    )


class TestLadderLatticeCache:
    @pytest.mark.parametrize("kind", sorted(LADDERS))
    def test_lattice_built_once(self, kind):
        ladder = LADDERS[kind]()
        assert ladder.as_lattice() is ladder.as_lattice()

    @pytest.mark.parametrize("kind", sorted(LADDERS))
    def test_fibers_match_fresh_lattice(self, kind):
        ladder = LADDERS[kind]()
        fresh = _fresh_lattice(ladder)
        for a in fresh.window_points():
            for n in (1, 2):
                assert ladder.fiber(a, n) == fresh.fiber(a, n)
        assert ladder.as_lattice().same_lattice(fresh)

    def test_lattice_is_built_lazily(self):
        ladder = exp_ladder(4)
        func(ladder, 2)
        assert ladder._lattice is None
        ladder.fiber(0)
        assert ladder._lattice is ladder.as_lattice()


# ---------------------------------------------------------------------------
# Content oracle: the lcm/gcd sweep over all generators, with valuations by
# repeated division, against the lattice's valuation-map content.
# ---------------------------------------------------------------------------


def reference_content(gens) -> RatFun:
    q = Poly.const(1)
    for g in gens:
        q = poly_lcm(q, g.den)
    nums = [g.num * (q // g.den) for g in gens]
    g0 = nums[0]
    for p in nums[1:]:
        g0 = poly_gcd(g0, p)
    return RatFun(g0, q)


def reference_valuation(f: RatFun, a) -> int:
    lin = Poly((-Fraction(a), 1))

    def order(p):
        k = 0
        while True:
            q, r = divmod(p, lin)
            if not r.is_zero:
                return k
            p, k = q, k + 1

    return order(f.num) - order(f.den)


def reference_contains(content: RatFun, f: RatFun) -> bool:
    return f.num.is_zero or RatFun(f.num * content.den, f.den * content.num).den.degree == 0


def reference_fiber_generator(lat: WindowedLattice, content: RatFun, a):
    """(generator, label) of the fiber at a, as the lattice chose it
    before the valuation maps: 1 when it generates, else the last
    generator of least valuation."""
    if reference_valuation(content, a) == 0 and reference_contains(content, RatFun(1)):
        return RatFun(1), "1"
    best = None
    for k, g in enumerate(lat.generators):
        v = reference_valuation(g, a)
        if best is None or v <= best[0]:
            best = (v, k)
    return lat.generators[best[1]], lat.labels[best[1]]


def reference_hom_images(lat: WindowedLattice, content: RatFun) -> list[Poly]:
    images = []
    for g in lat.generators:
        ratio = RatFun(g.num * content.den, g.den * content.num)
        assert ratio.den.degree == 0
        images.append(ratio.num * Poly.const(1 / ratio.den.coeffs[0]))
    return images


def assert_matches_reference(lat: WindowedLattice, extra_points=()):
    ref = reference_content(lat.generators)
    assert lat.content.num == ref.num
    assert lat.content.den == ref.den
    for a in list(lat.window_points()) + list(extra_points):
        a = Fraction(a)
        assert lat.valuation(a) == reference_valuation(ref, a), a
        gen, label = reference_fiber_generator(lat, ref, a)
        for n in (1, 2):
            assert lat.fiber(a, n) == Fiber(a, n, gen, label), a
    assert lat.contains(RatFun(1)) == reference_contains(ref, RatFun(1))
    assert lat.contains(ref) and lat.same_lattice(WindowedLattice(lat.chi, lat.radius, [ref]))
    return ref


@pytest.fixture(scope="module")
def quick_grid_lattices():
    """Every distinct lattice the quick profile's mellin checks build."""
    built = {}

    class Recording(WindowedLattice):
        __slots__ = ()

        def __init__(self, chi, radius, generators, labels=None):
            super().__init__(chi, radius, generators, labels)
            built.setdefault((self.chi, self.radius, self.generators), self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mellin, "WindowedLattice", Recording)
        for check_id, params in checks.profile_tasks("quick"):
            if checks.CHECKS[check_id].engine.startswith("mellin."):
                checks.run_check(check_id, params)
    return list(built.values())


def _random_factor_lattice(rng, chi, radius):
    points = [chi + i for i in range(-radius - 1, radius + 2)]
    gens = []
    for _ in range(rng.randint(1, 4)):
        num, den = Poly.const(rng.choice([1, -2, Fraction(3, 4), 5])), Poly.const(1)
        for a in rng.sample(points, rng.randint(0, 4)):
            e = rng.choice([-3, -2, -1, 1, 2])
            if e > 0:
                num = num * Poly((-a, 1)) ** e
            else:
                den = den * Poly((-a, 1)) ** -e
        gens.append(RatFun(num, den))
    return WindowedLattice(chi, radius, gens)


class TestContentOracle:
    def test_quick_grid_lattices_match_reference(self, quick_grid_lattices):
        kinds = {(lat.chi, lat.radius, len(lat.generators)) for lat in quick_grid_lattices}
        # orbit lattices on three orbits, both ladders, exp-square, embedding
        assert len(quick_grid_lattices) >= 15 and len(kinds) >= 6
        for lat in quick_grid_lattices:
            assert_matches_reference(lat, [lat.chi + Fraction(2, 5)])

    @pytest.mark.parametrize("kind", ["pole", "exp"])
    def test_ladder_lattices_radius_nine(self, kind):
        ladder = pole_ladder(9) if kind == "pole" else exp_ladder(9)
        assert_matches_reference(ladder.as_lattice())

    @pytest.mark.parametrize("seed", range(12))
    def test_random_lattices_with_off_orbit_points(self, seed):
        rng = random.Random(7000 + seed)
        chi = rng.choice([Fraction(0), Fraction(1, 2), Fraction(1, 3)])
        off_orbit = [chi + Fraction(2, 5), Fraction(-7, 3), Fraction(11, 4)]
        lat = _random_factor_lattice(rng, chi, rng.randint(2, 5))
        ref = assert_matches_reference(lat, off_orbit)
        other = _random_factor_lattice(rng, chi, lat.radius)
        for f in list(other.generators) + [RatFun(1), ref * s_plus(-chi - 1), ref / s_plus(3 - chi)]:
            assert lat.contains(f) == reference_contains(ref, f)
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            lat.contains(ref * s_plus(-off_orbit[0]))
        assert lat.same_lattice(other) == (
            reference_contains(ref, reference_content(other.generators))
            and reference_contains(reference_content(other.generators), ref)
        )
        bound = lat.radius - 1
        verdict, images = hom_to_free_vanishes(lat, bound)
        want = reference_hom_images(lat, ref)
        assert verdict == (max(p.degree for p in want) > bound)
        assert images is None if verdict else images == want

    def test_non_split_residual(self):
        # a factor without rational roots has no offset on any orbit: the
        # lattice refuses it, in a numerator or a denominator
        q = Poly((1, 0, 1))  # s^2 + 1
        for g in (RatFun(q * Poly((2, 1)), Poly((-1, 1)) ** 2), RatFun(Poly((0, 1)), q)):
            with pytest.raises(UnsupportedInputError, match="without rational roots"):
                WindowedLattice(0, 8, [RatFun(1), g])

    def test_single_generator_content_keeps_its_constant(self):
        g = RatFun(Poly((6, 3)), Poly((0, 2)))  # (3s + 6)/(2s)
        lat = WindowedLattice(0, 3, [g])
        assert lat.content == g
        assert hom_to_free_vanishes(lat, 2) == (False, [Poly.const(1)])


def ref_orbit_decomposition_check(chi, n: int, N: int, samples: int = 5) -> dict:
    """orbit_decomposition_check as it ran on the poles chi + i themselves,
    in Fraction arithmetic when chi is not an integer: the reference for
    the check in orbit coordinates."""
    at_least("order n =", n, 1)
    at_least("window radius", N, 0)
    chi = mellin._normalize_chi(chi)
    rng = random.Random(20260823)
    points = [chi + i for i in range(-N, N + 1)]
    poles = dict.fromkeys(points, n)
    den = Poly.const(1)
    for i in range(-N, N + 1):
        den = den * s_plus(-(chi + i)) ** n
    cofactors = {
        (i, k): den // s_plus(-(chi + i)) ** k
        for i in range(-N, N + 1)
        for k in range(1, n + 1)
    }
    failures = []
    for _ in range(samples):
        table = {key: Fraction(rng.randint(-5, 5)) for key in cofactors}
        num = Poly()
        for key, c in table.items():
            if c:
                num = num + cofactors[key] * Poly.const(c)
        _, parts = ratfun._partial_fractions(num, den, poles)
        got = {}
        for a, coefs in parts:
            i = int(a - chi)
            for k, c in enumerate(coefs, start=1):
                if c:
                    got[(i, k)] = c
        want = {key: c for key, c in table.items() if c}
        if got != want:
            failures.append({"expected": len(want), "got": len(got)})
    return {
        "verdict": not failures,
        "dimension": (2 * N + 1) * n,
        "points": len(points),
        "samples": samples,
        "failures": failures,
    }


class TestOrbitDecomposition:
    def test_integral_orbit(self):
        rep = orbit_decomposition_check(0, 2, 5)
        assert rep["verdict"] is True
        assert rep["dimension"] == 22

    def test_half_orbit(self):
        rep = orbit_decomposition_check(Fraction(1, 2), 3, 4)
        assert rep["verdict"] is True
        assert rep["failures"] == []

    @pytest.mark.parametrize(
        "chi", [0, Fraction(1, 2), Fraction(1, 3), Fraction(4, 3), Fraction(-2, 3)]
    )
    def test_reports_match_the_dense_reference(self, chi):
        for n in (1, 2, 3):
            for N in (0, 2, 4):
                got = orbit_decomposition_check(chi, n, N)
                assert got == ref_orbit_decomposition_check(chi, n, N), (n, N)

    def test_profile_rows_give_the_kernel_integer_poles(self, monkeypatch):
        kernel = mellin._partial_fractions
        keys = []

        def recording(num, den, poles):
            keys.extend(poles)
            return kernel(num, den, poles)

        monkeypatch.setattr(mellin, "_partial_fractions", recording)
        chis = set()
        for profile in ("quick", "full"):
            for check_id, params in checks.profile_tasks(profile):
                if check_id == "eq3-decomp":
                    assert checks.run_check(check_id, params).verdict == "pass"
                    chis.add(Fraction(params["chi"]))
        assert any(chi.denominator > 1 for chi in chis)
        assert keys and all(type(key) is int for key in keys)


def _same_up_to_sign(a: WeylOp, b: WeylOp) -> bool:
    return a == b or a == b * Fraction(-1)


class TestFourierPresentation:
    def test_delta_maps_to_structure_relation(self):
        out = fourier_presentation(point_module(0))
        assert [str(r) for r in out.relations] == ["dx"]

    def test_exp_maps_to_one_minus_x(self):
        out = fourier_presentation(WEYL_EXP)
        assert out.relations == (1 - WeylOp.x(),)

    def test_twice_is_antipode_up_to_normalization(self):
        X, DX = WeylOp.x(), WeylOp.dx()
        samples = [
            X - 1,
            1 - DX,
            X * DX - Fraction(1, 2),
            DX * (X - 1),
            X * X + DX,
        ]
        for r in samples:
            pres = CyclicPresentation("weyl", (r,))
            twice = fourier_presentation(fourier_presentation(pres))
            assert _same_up_to_sign(twice.relations[0], antipode(r))

    def test_rejects_non_weyl(self):
        with pytest.raises(UnsupportedInputError):
            fourier_presentation(kernel_module())


class TestFourierBMonodromic:
    def test_translation_delta_refused(self):
        with pytest.raises(NotMonodromicError) as exc:
            fourier_B_monodromic(point_module(1))
        diag = exc.value.diagnostic
        assert diag["rows"] == 13 and diag["cols"] == 12

    def test_eigen_module_transforms(self):
        m = euler_eigen_module(Fraction(1, 2))
        out = fourier_B_monodromic(m)
        assert out.relations == fourier_presentation(m).relations

    def test_zero_module_passes_through(self):
        m = CyclicPresentation("weyl", (WeylOp.const(1),))
        out = fourier_B_monodromic(m)
        assert out.relations == (WeylOp.const(1),)

    def test_exp_module_refused(self):
        with pytest.raises(NotMonodromicError):
            fourier_B_monodromic(WEYL_EXP)

    def test_kernel_presentation_mellin_image(self):
        sh = mellin_module(weyl_kernel_module())
        assert sh.single_relation() == kernel_module().single_relation()


# ---------------------------------------------------------------------------
# Factored values against the point-keyed reference and dense RatFun
# arithmetic.
# ---------------------------------------------------------------------------


class RefFactored:
    """The Fraction-keyed Factored from before orbit coordinates, kept as
    the reference: const * prod (s - a)^exps[a] over rational points a."""

    __slots__ = ("const", "exps")

    def __init__(self, const=1, exps=None):
        self.const, self.exps = Fraction(const), exps or {}

    @classmethod
    def from_ratfun(cls, f: RatFun) -> "RefFactored":
        zeros, num = linear_factors(f.num)
        poles, den = linear_factors(f.den)
        assert num.degree == den.degree == 0
        exps = dict(zeros)
        for a, m in poles.items():
            exps[a] = -m
        return cls(num.lc, exps)

    def __mul__(self, other):
        exps = dict(self.exps)
        for a, e in other.exps.items():
            e += exps.get(a, 0)
            if e:
                exps[a] = e
            else:
                del exps[a]
        return RefFactored(self.const * other.const, exps)

    def __truediv__(self, other):
        inverse = {a: -e for a, e in other.exps.items()}
        return self * RefFactored(1 / other.const, inverse)

    def __eq__(self, other):
        return (self.const, self.exps) == (other.const, other.exps)

    @property
    def is_constant(self):
        return not self.exps

    def shift(self, k):
        k = Fraction(k)
        return RefFactored(self.const, {a - k: e for a, e in self.exps.items()})

    def valuation(self, a):
        return self.exps.get(Fraction(a), 0)

    def eval(self, a):
        a = Fraction(a)
        out = self.const
        for p, e in self.exps.items():
            out *= (a - p) ** e
        return out

    def to_ratfun(self):
        num, den = Poly.const(self.const), Poly.const(1)
        for a, e in self.exps.items():
            if e > 0:
                num = num * s_plus(-a) ** e
            else:
                den = den * s_plus(-a) ** -e
        return RatFun(num, den)


def on_orbit(ref: RefFactored, chi) -> Factored:
    """The reference value keyed by offsets on chi + Z, built without a
    root search; every point of `ref` lies on the orbit."""
    exps = {}
    for a, e in ref.exps.items():
        u = a - chi
        assert u.denominator == 1, (a, chi)
        exps[int(u)] = e
    return Factored(ref.const, exps, chi)


ORBITS = [Fraction(0), Fraction(1, 2), Fraction(1, 3)]
OFF_ORBIT = [Fraction(2, 5), Fraction(-7, 3), Fraction(11, 4), Fraction(-1, 7)]


@st.composite
def ref_values(draw, chi):
    """A reference value with its factors on chi + Z."""
    points = [chi + i for i in range(-4, 5)]
    exps = {}
    for a in draw(st.lists(st.sampled_from(points), max_size=5, unique=True)):
        exps[a] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    const = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 7)))
    return RefFactored(const, exps)


@st.composite
def pairs(draw):
    """(chi, reference value, the same value keyed on chi + Z)."""
    chi = draw(st.sampled_from(ORBITS))
    ref = draw(ref_values(chi))
    return chi, ref, on_orbit(ref, chi)


def dense(v) -> RatFun:
    """A point-keyed reference value by dense RatFun products, one linear
    factor at a time."""
    out = RatFun(v.const)
    for a, e in v.exps.items():
        lin = RatFun(s_plus(-a))
        for _ in range(abs(e)):
            out = out * lin if e > 0 else out / lin
    return out


SHIFTS = st.sampled_from([-3, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
POINTS = st.sampled_from(
    [Fraction(k, d) for k in range(-6, 7) for d in (1, 2, 3, 5)]
)


class TestFactored:
    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_expansion_and_round_trip(self, pair):
        chi, ref, v = pair
        f = dense(ref)
        assert v.chi == chi and v.to_ratfun() == ref.to_ratfun() == f
        assert v.to_ratfun() is v.to_ratfun()
        assert Factored.from_ratfun(f, chi) == v
        assert RefFactored.from_ratfun(f) == ref
        assert v.is_constant == ref.is_constant

    @settings(max_examples=150, deadline=None)
    @given(pairs(), st.data())
    def test_product_and_quotient(self, pair, data):
        chi, ref_u, u = pair
        ref_v = data.draw(ref_values(chi))
        v = on_orbit(ref_v, chi)
        assert u * v == on_orbit(ref_u * ref_v, chi)
        assert u / v == on_orbit(ref_u / ref_v, chi)
        assert (u * v).to_ratfun() == dense(ref_u) * dense(ref_v)
        assert (u / v).to_ratfun() == dense(ref_u) / dense(ref_v)
        assert (u == v) == (ref_u == ref_v) == (dense(ref_u) == dense(ref_v))
        assert u / u == Factored()

    @settings(max_examples=150, deadline=None)
    @given(pairs(), SHIFTS)
    def test_shift_moves_the_keys(self, pair, k):
        chi, ref, v = pair
        shifted = v.shift(k)
        moved = chi - k
        assert shifted.chi == moved - (moved.numerator // moved.denominator)
        assert shifted == on_orbit(ref.shift(k), moved)
        assert shifted.to_ratfun() == dense(ref).shift(k)
        if Fraction(k).denominator == 1:
            assert {i + k for i in shifted.exps} == set(v.exps)

    @settings(max_examples=150, deadline=None)
    @given(pairs(), POINTS)
    def test_valuation_and_eval(self, pair, a):
        chi, ref, v = pair
        for p in [a, *ref.exps, *OFF_ORBIT]:
            assert v.valuation(p) == ref.valuation(p)
        if ref.valuation(a) < 0:
            with pytest.raises(ZeroDivisionError):
                v.eval(a)
        else:
            assert v.eval(a) == ref.eval(a)

    @settings(max_examples=100, deadline=None)
    @given(pairs(), st.data())
    def test_product_across_two_orbits(self, pair, data):
        chi, ref_u, u = pair
        other = data.draw(st.sampled_from([c for c in ORBITS if c != chi]))
        ref_v = data.draw(ref_values(other))
        v = on_orbit(ref_v, other)
        # a constant lives on every orbit and takes the other operand's
        if u.is_constant or v.is_constant:
            side = other if u.is_constant else chi
            assert (u * v).chi == side and u * v == on_orbit(ref_u * ref_v, side)
            assert (u / v).chi == side and u / v == on_orbit(ref_u / ref_v, side)
        else:
            for op in (lambda a, b: a * b, lambda a, b: a / b):
                with pytest.raises(UnsupportedInputError, match="one orbit"):
                    op(u, v)
        c = Factored(ref_u.const)
        assert (c * v).chi == other and c * v == on_orbit(RefFactored(ref_u.const) * ref_v, other)
        assert v * c == c * v
        # values on two orbits are equal only when both are the same constant
        assert (u == v) == (ref_u == ref_v and u.is_constant)
        assert Factored(ref_v.const, None, chi) == Factored(ref_v.const, None, other)

    def test_input_off_one_orbit_is_refused(self):
        half = Fraction(1, 2)
        with pytest.raises(UnsupportedInputError, match="without rational roots"):
            Factored.from_ratfun(RatFun(Poly.x(), Poly((2, 0, 1))))  # s/(s^2 + 2)
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            Factored.from_ratfun(RatFun(s_plus(-half), Poly.x()))  # a zero at 1/2, a pole at 0
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            Factored.from_ratfun(RatFun(s_plus(1)), half)
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            _ = Factored(2, {0: 1}) * Factored(1, {1: -1}, half)
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            WindowedLattice(0, 2, [Factored(1, {0: -1}), Factored(1, {0: -1}, half)])
        # constants cross orbits, and the default orbit of a pole-free value
        # is that of its least zero
        assert (Factored(3) * Factored(1, {1: -1}, half)).chi == half
        assert Factored.from_ratfun(RatFun(s_plus(-half))) == Factored(1, {0: 1}, half)

    def test_unreduced_orbit_shares_keys(self):
        third, four_thirds = Fraction(1, 3), Fraction(4, 3)
        assert Factored(2, {0: 1, -2: -1}, four_thirds) == Factored(2, {1: 1, -1: -1}, third)
        lat = orbit_pole_lattice(four_thirds, 2, 3)
        assert lat.chi == four_thirds and lat._content.chi == third
        assert lat._content.exps == {i: -2 for i in range(-2, 5)}
        assert all(g.chi == third for g in lat._gens)
        wider = orbit_pole_lattice(third, 2, 4)
        assert lat.valuation(four_thirds + 3) == wider.valuation(four_thirds + 3) == -2
        assert lat.fiber(four_thirds + 3) == wider.fiber(four_thirds + 3)
        for outside in (four_thirds + 4, four_thirds - 4):
            with pytest.raises(WindowError):
                lat.fiber(outside)
        wider.fiber(four_thirds - 4)  # third - 3 is inside the radius-4 window
        assert_matches_reference(lat, [four_thirds + Fraction(2, 5), Fraction(1, 2)])
        assert localization_identity_check(lat, [Fraction(1, 2)])
        # the window of radius 1 at 4/3 is 1/3 + {0, 1, 2}: a zero at 7/3 is
        # inside it, one at -2/3 is not
        inside = WindowedLattice(four_thirds, 1, [RatFun(s_plus(Fraction(-7, 3)))])
        outside = WindowedLattice(four_thirds, 1, [RatFun(s_plus(Fraction(2, 3)))])
        assert localization_identity_check(inside, [Fraction(1, 2)])
        assert not localization_identity_check(outside, [Fraction(1, 2)])

    def test_off_orbit_points_read_valuation_zero(self):
        # zeros at 1/2 and poles at -1/3, off Z: a lattice on Z refuses them
        g0 = RatFun(s_plus(Fraction(-1, 2)) ** 2 * Poly.x(), s_plus(Fraction(1, 3)))
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            WindowedLattice(0, 3, [g0])
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            Factored.from_ratfun(g0, 0)
        # a Factored generator keyed on another orbit is refused, a
        # constant one is moved onto the lattice's orbit
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            WindowedLattice(0, 3, [Factored(1, {0: -1}, 0), Factored(1, {0: -1}, Fraction(1, 2))])
        assert WindowedLattice(0, 3, [Factored(3, None, Fraction(1, 2))]).content == RatFun(3)
        # a point off the orbit has valuation 0 and a fiber generated by 1
        built = orbit_pole_lattice(0, 2, 3)
        assert [built.valuation(a) for a in OFF_ORBIT] == [0] * len(OFF_ORBIT)
        assert built.fiber(Fraction(2, 5), 2) == Fiber(Fraction(2, 5), 2, RatFun(1), "1")
        assert built.contains(Factored(1, {0: -1}, 0))
        assert built.contains(Factored(5, None, Fraction(1, 2)))
        with pytest.raises(UnsupportedInputError, match="one orbit"):
            built.contains(Factored(1, {0: -1}, Fraction(1, 2)))

    def test_lattice_of_factored_and_dense_generators_agree(self):
        rng = random.Random(20260823)
        for chi in ORBITS:
            refs = []
            for _ in range(4):
                exps = {chi + rng.randint(-3, 3): rng.choice([-2, -1, 1, 2]) for _ in range(3)}
                refs.append(RefFactored(rng.randint(1, 5), exps))
            factored = WindowedLattice(chi, 4, [on_orbit(g, chi) for g in refs])
            dense_lat = WindowedLattice(chi, 4, [dense(g) for g in refs])
            assert factored.generators == dense_lat.generators
            assert factored.content == dense_lat.content
            assert factored.same_lattice(dense_lat)
            for a in factored.window_points() + OFF_ORBIT:
                assert factored.fiber(a, 2) == dense_lat.fiber(a, 2)
            # lattices on two orbits are the same only when both contents
            # are constants
            other = ORBITS[(ORBITS.index(chi) + 1) % len(ORBITS)]
            there = WindowedLattice(other, 4, [on_orbit(g.shift(chi - other), other) for g in refs])
            assert there._content.exps == factored._content.exps
            assert factored._content.exps
            assert not there.same_lattice(factored) and not factored.same_lattice(there)
            units = [WindowedLattice(c, 4, [Factored(2, None, c)]) for c in (chi, other)]
            assert units[0].same_lattice(units[1]) and units[1].same_lattice(units[0])

    def test_common_zero_takes_the_least_order(self):
        s = Poly.x()
        lat = WindowedLattice(0, 3, [
            RatFun(s**2 * s_plus(-1)),
            RatFun(s**3, s_plus(2)),
            RatFun(s**4 * s_plus(-1), s_plus(2) ** 2),
        ])
        assert assert_matches_reference(lat) == RatFun(s**2, s_plus(2) ** 2)
        assert lat.valuation(0) == 2 and lat.valuation(1) == 0

    def test_ladder_values_expand_to_their_recurrences(self):
        def recurrence(step):
            # f_0 = 1 and f_(j+1) = step(j) f_j, by dense RatFun arithmetic
            funcs = {0: RatFun(1)}
            for j in range(5):
                funcs[j + 1] = funcs[j] * step(j)
            for j in range(0, -5, -1):
                funcs[j - 1] = funcs[j] / step(j - 1)
            return funcs

        expected = {
            "b": {j: RatFun(1, s_plus(j + 1)) for j in range(-5, 6)},
            "e": recurrence(lambda j: RatFun(s_plus(j + 1))),
            "e~a": recurrence(lambda j: RatFun(1, s_plus(j + 1))),
            "e~p": recurrence(lambda j: RatFun(1, s_plus(j))),
        }
        for ladder in (pole_ladder(5), exp_ladder(5), twisted_exp_ladder(5),
                       twisted_exp_ladder(5, "plain")):
            assert ladder.indices() == list(range(-5, 6))
            for j in ladder.indices():
                v = ladder._value(j)
                points = {v.chi + i: e for i, e in v.exps.items()}
                assert func(ladder, j) == dense(RefFactored(v.const, points))
                assert func(ladder, j) == expected[ladder.label][j]


class TestTensorUnits:
    def test_shift_unit_is_the_ratio_of_fiber_generators(self):
        # g_k = c_k/(s - k) generates the fiber at k, and T carries g_k to
        # (c_k/c_(k-1)) g_(k-1), so the tensored tower records that unit.
        consts = {k: Fraction(k + 5, 7 - k) for k in range(-3, 4)}
        gens = [RatFun(Poly.const(consts[k]), s_plus(-k)) for k in range(-3, 4)]
        line = WindowedLattice(0, 3, gens)
        assert tensor_equivariant(line, 0, 3) == {k: consts[k] / consts[k - 1] for k in range(-2, 4)}

    def test_ladder_units_are_derived_from_the_step_factor(self):
        assert pole_ladder(4).step_factor() == Factored()
        assert exp_ladder(4).step_factor().to_ratfun() == RatFun(s_plus(1))
        # where the fiber generator is 1 the exponential unit is s+1 at the
        # point; at chi = 0 the generators from 0 up are ladder elements
        # that the step carries one onto the next
        for chi, units in ((0, [-2, -1, 1, 1, 1, 1]),
                           (Fraction(1, 2), [Fraction(k, 2) for k in range(-3, 8, 2)])):
            assert list(tensor_equivariant(exp_ladder(4), chi, 3).values()) == units
            assert tensor_equivariant(pole_ladder(4), chi, 3) == {i: 1 for i in range(-2, 4)}

    def test_a_step_with_a_zero_records_unit_zero(self):
        # f_j = s (s+1) ... (s+j-1) has step factor s; every fiber generator
        # is 1, so the unit at i is i - 1 and vanishes at i = 1
        assert tensor_equivariant(rising_ladder(4), 0, 3) == {i: i - 1 for i in range(-2, 4)}

    def test_an_index_dependent_step_factor_is_refused(self):
        with pytest.raises(UnsupportedInputError, match="depends on the index"):
            tensor_equivariant(power_ladder(4), 0, 3)


def rising_ladder(radius: int) -> LadderFamily:
    """f_j = s (s+1) ... (s+j-1), j >= 0: step factor s."""
    funcs = {0: RatFun(1)}
    for j in range(radius):
        funcs[j + 1] = funcs[j] * RatFun(s_plus(j))
    return LadderFamily("r", funcs)


def power_ladder(radius: int) -> LadderFamily:
    """f_j = s^j: f_(j+1)(s)/f_j(s+1) = s^(j+1)/(s+1)^j depends on j."""
    return LadderFamily("p", {j: Factored(1, {0: j} if j else None)
                              for j in range(-radius, radius + 1)})


class RefTower:
    """The earlier skyscraper family record: a window of fibers
    k[s]/(s-chi-i)^order with shift units down_units[i]."""

    def __init__(self, chi, radius, order, labels, down_units):
        self.chi, self.radius, self.order = chi, radius, order
        self.labels, self.down_units = labels, down_units


def ref_skyscraper_tower(chi, n: int, N: int) -> RefTower:
    """The earlier tower: unit 1 at every step."""
    chi = Fraction(chi)
    chi = Fraction(0) if chi.denominator == 1 else chi
    labels = {i: f"1/(s-({chi}+{i}))^{n}" for i in range(-N, N + 1)}
    return RefTower(chi, N, n, labels, {i: Fraction(1) for i in range(-N + 1, N + 1)})


def ref_tensor_equivariant(fam: RefTower, line) -> RefTower:
    """The earlier tensor product of a tower and a line: the fiber
    generators' ratios, times the tower's own units."""
    if line.radius < fam.radius:
        raise WindowError("window mismatch in tensor product")
    labels, units, gens = {}, {}, {}
    for i in range(-fam.radius, fam.radius + 1):
        fib = line.fiber(fam.chi + i, fam.order)
        gens[i] = fib._generator
        labels[i] = f"{fam.labels[i]} (x) {fib.generator_label}"
    factor = line.step_factor() if isinstance(line, LadderFamily) else Factored()
    for i in range(-fam.radius + 1, fam.radius + 1):
        ratio = gens[i].shift(1) * factor / gens[i - 1]
        point = fam.chi + i - 1
        unit = ratio.eval(point) if ratio.valuation(point) == 0 else Fraction(0)
        units[i] = fam.down_units[i] * unit
    return RefTower(fam.chi, fam.radius, fam.order, labels, units)


def ref_family_isomorphism(f1: RefTower, f2: RefTower) -> bool:
    """The earlier isomorphism test of two towers on one window: equal
    orders, nonzero units, and the scaling sequence built inductively."""
    assert (f1.chi, f1.radius) == (f2.chi, f2.radius)
    c, ok = Fraction(1), f1.order == f2.order
    for i in range(-f1.radius + 1, f1.radius + 1):
        u1, u2 = f1.down_units[i], f2.down_units[i]
        if not (ok and u1 and u2):
            return False
        c = c * u1 / u2
    return ok


def ref_units(chi, n: int, N: int, line) -> tuple[dict, bool]:
    """Units and verdict of the line by the earlier pipeline."""
    tower = ref_skyscraper_tower(chi, n, N)
    tensored = ref_tensor_equivariant(tower, line)
    return tensored.down_units, ref_family_isomorphism(tensored, tower)


class TestTensorOracle:
    """The units dict against the earlier tower, tensor and isomorphism."""

    @pytest.mark.parametrize("profile", ["quick", "full"])
    def test_every_dmodmon_row(self, profile):
        rows = [p for cid, p in checks.profile_tasks(profile) if cid == "dmodmon"]
        assert rows
        for p in rows:
            chi, n, N = Fraction(p["chi"]), p["n"], p["window"]
            rep = monodromization_check(chi, n, N)
            orbit = ref_skyscraper_tower(chi, n, N).chi
            lines = {"kernel": pole_ladder(N + 1), "exp": exp_ladder(N + 1),
                     "control_free": WindowedLattice(orbit, N + 1, [RatFun(1)])}
            verdicts = []
            for kind, line in lines.items():
                units, verdict = ref_units(chi, n, N, line)
                assert tensor_equivariant(line, orbit, N) == units
                assert rep[kind] == {"verdict": verdict,
                                     "units": {str(i): str(u) for i, u in units.items()}}
                verdicts.append(verdict)
            assert rep["verdict"] is all(verdicts)

    def test_a_step_with_a_zero(self):
        for chi in (0, Fraction(1, 2)):
            units, verdict = ref_units(chi, 2, 3, rising_ladder(4))
            assert tensor_equivariant(rising_ladder(4), chi, 3) == units
            assert all(units.values()) is verdict is (chi != 0)

    def test_an_index_dependent_step_factor_is_refused_by_both(self):
        for units in (lambda: ref_units(0, 1, 3, power_ladder(4)),
                      lambda: tensor_equivariant(power_ladder(4), 0, 3)):
            with pytest.raises(UnsupportedInputError, match="depends on the index"):
                units()


def _count_linear_factors(monkeypatch) -> dict:
    """Count ratfun.linear_factors calls through every module-level
    binding of it in the package."""
    import sys

    from monofour.scalars import ratfun

    calls = {"n": 0}
    original = ratfun.linear_factors

    def counting(p):
        calls["n"] += 1
        return original(p)

    for name, module in list(sys.modules.items()):
        if name == "monofour" or name.startswith("monofour."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


class TestNoRootSearchOnBuiltValues:
    def test_quick_mellin_rows_make_no_root_search(self, monkeypatch):
        calls = _count_linear_factors(monkeypatch)
        rows = 0
        for check_id, params in checks.profile_tasks("quick"):
            spec = checks.CHECKS[check_id]
            if spec.engine.startswith("mellin.") and check_id != "mellin-b-embed":
                assert checks.run_check(check_id, params).verdict in ("pass", "diagnostic")
                rows += 1
        assert rows == 41
        assert calls["n"] == 0

    def test_embedding_factors_the_image_once(self, monkeypatch):
        calls = _count_linear_factors(monkeypatch)
        lat = embed_in_Ks(kernel_module(), B_GEN, 6)
        assert calls["n"] == 2  # the image's numerator and denominator
        # the pole at -1 moves over the window -6..6
        assert lat.generators == tuple(RatFun(1, s_plus(c)) for c in range(-6, 7))
        assert calls["n"] == 2

    def test_user_ratfun_is_factored_at_the_boundary(self, monkeypatch):
        calls = _count_linear_factors(monkeypatch)
        lat = WindowedLattice(0, 3, [RatFun(Poly.x()), RatFun(Poly.x() * s_plus(1))])
        assert calls["n"] == 4
        assert lat.fiber(Fraction(1, 2)).generator_label == "g1"
        assert lat.fiber(-1).generator_label == "g0"
        assert lat.contains(Factored()) is False
        assert calls["n"] == 4
        assert lat.contains(RatFun(Poly.x() * 3)) and calls["n"] == 6
