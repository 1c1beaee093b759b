"""Tests for cyclic group algebra arithmetic and pro-system checks.

Hand-expanded products, transition images, and annihilator computations
are frozen as oracles; ring axioms are checked exhaustively on monomial
generators and on random elements; the named checks run over the full
small-parameter grid they advertise.
"""

import random
from itertools import product
from math import gcd

import pytest

from monofour import checks, groupalg
from monofour.scalars import snf
from monofour.scalars.poly import UnsupportedInputError
from monofour.scalars.snf import int_smith
from monofour.groupalg import (
    GroupAlgebraElem,
    augmentation_kernel_check,
    ga_elem,
    ga_monomial,
    ga_mul,
    ga_one,
    in_subgroup,
    is_unit,
    pro_nzd_check,
    sigma,
    solve_mod_kernel,
    subgroup_order,
    t_gen,
    transition,
    twisted_tensor,
    twisted_tensor_check,
    twisted_transition,
    unit_surjectivity_check,
)


def _random_elem(rng, ell, r, n):
    return ga_elem(ell, r, n, [rng.randrange(ell**r) for _ in range(n)])


def _add(a: GroupAlgebraElem, b: GroupAlgebraElem) -> GroupAlgebraElem:
    """Coefficientwise sum, the ring addition the axioms below are about."""
    assert (a.ell, a.r, a.n) == (b.ell, b.r, b.n)
    return ga_elem(a.ell, a.r, a.n, [x + y for x, y in zip(a.coeffs, b.coeffs)])


class TestElemBasics:
    def test_coefficients_reduced(self):
        a = ga_elem(2, 2, 3, [5, -1, 4])
        assert a.coeffs == (1, 3, 0)

    def test_str(self):
        assert str(ga_elem(2, 2, 3, [2, 1, 3])) == "2 + t + 3*t^2"
        assert str(ga_elem(3, 1, 2, [0, 0])) == "0"

    def test_length_validation(self):
        with pytest.raises(ValueError):
            GroupAlgebraElem(2, 1, 3, (1, 0))

    def test_parameter_mismatch(self):
        with pytest.raises(ValueError):
            ga_one(2, 1, 3) - ga_one(2, 2, 3)
        with pytest.raises(ValueError):
            ga_mul(ga_one(2, 1, 3), ga_one(2, 1, 4))

    def test_sub_and_neg(self):
        a = ga_elem(3, 1, 2, [2, 1])
        assert (a - a).is_zero
        assert (ga_elem(3, 1, 2, [0, 0]) - a).coeffs == (1, 2)

    def test_augmentation(self):
        # the augmentation is the coefficient sum mod ell^r
        assert sum(sigma(2, 2, 3).coeffs) % 4 == 3
        assert sum((t_gen(2, 2, 3) - ga_one(2, 2, 3)).coeffs) % 4 == 0


class TestRingAxioms:
    @pytest.mark.parametrize("ell,r,n", [(2, 1, 6), (2, 2, 5), (3, 1, 4)])
    def test_monomials_exhaustive(self, ell, r, n):
        for i in range(n):
            for j in range(n):
                ti = ga_monomial(ell, r, n, i)
                tj = ga_monomial(ell, r, n, j)
                assert ga_mul(ti, tj) == ga_monomial(ell, r, n, i + j)
                assert ga_mul(ti, tj) == ga_mul(tj, ti)

    def test_identity(self):
        rng = random.Random(20260823)
        for _ in range(10):
            a = _random_elem(rng, 3, 2, 5)
            assert ga_mul(ga_one(3, 2, 5), a) == a

    def test_commutative_associative_random(self):
        rng = random.Random(20260823)
        for _ in range(20):
            a, b, c = (_random_elem(rng, 2, 2, 6) for _ in range(3))
            assert ga_mul(a, b) == ga_mul(b, a)
            assert ga_mul(ga_mul(a, b), c) == ga_mul(a, ga_mul(b, c))
            assert ga_mul(a, _add(b, c)) == _add(ga_mul(a, b), ga_mul(a, c))


class TestFrozenProducts:
    def test_square_of_t_minus_one_mod_four(self):
        tm1 = t_gen(2, 2, 2) - ga_one(2, 2, 2)
        assert ga_mul(tm1, tm1) == ga_elem(2, 2, 2, [2, 2])
        assert ga_mul(tm1, tm1) == ga_elem(2, 2, 2, [-2 * c for c in tm1.coeffs])

    @pytest.mark.parametrize("ell,r,n", [(2, 2, 3), (3, 1, 4), (2, 1, 6)])
    def test_full_sum_annihilates_t_minus_one(self, ell, r, n):
        tm1 = t_gen(ell, r, n) - ga_one(ell, r, n)
        assert ga_mul(sigma(ell, r, n), tm1).is_zero


class TestTransition:
    def test_generator_to_generator(self):
        assert transition(t_gen(2, 2, 6), 3) == t_gen(2, 2, 3)

    def test_full_sum_collapses_with_fiber_size(self):
        assert transition(sigma(2, 2, 6), 3) == ga_elem(2, 2, 3, [2, 2, 2])

    def test_functorial(self):
        a = ga_elem(2, 2, 12, range(12))
        assert transition(transition(a, 6), 3) == transition(a, 3)

    def test_ring_homomorphism_on_monomials(self):
        for i in range(6):
            for j in range(6):
                ti, tj = ga_monomial(2, 2, 6, i), ga_monomial(2, 2, 6, j)
                assert transition(ga_mul(ti, tj), 3) == ga_mul(
                    transition(ti, 3), transition(tj, 3)
                )

    def test_ring_homomorphism_random(self):
        rng = random.Random(20260823)
        for _ in range(15):
            a, b = _random_elem(rng, 3, 2, 6), _random_elem(rng, 3, 2, 6)
            assert transition(_add(a, b), 2) == _add(transition(a, 2), transition(b, 2))
            assert transition(ga_mul(a, b), 2) == ga_mul(transition(a, 2), transition(b, 2))

    def test_non_divisor_rejected(self):
        with pytest.raises(ValueError):
            transition(t_gen(2, 1, 6), 4)


class TestSubgroupHelpers:
    def test_sum_zero_kernel_order(self):
        gens = solve_mod_kernel([[1, 1, 1]], 3, 4)
        assert subgroup_order(gens, 3, 4) == 16

    def test_subgroup_order_diagonal(self):
        assert subgroup_order([[2, 0], [0, 2]], 2, 4) == 4

    def test_membership(self):
        gens = [[2, 2]]
        assert in_subgroup(gens, 2, 4, [2, 2])
        assert not in_subgroup(gens, 2, 4, [1, 1])


def appendix_matrices(monkeypatch):
    """(vectors, ncols, L) of every subgroup_order and solve_mod_kernel
    call that the appendix rows of the full profile make."""
    seen = []

    def record(name):
        real = getattr(groupalg, name)

        def wrapper(vectors, ncols, L):
            seen.append(([list(v) for v in vectors], ncols, L))
            return real(vectors, ncols, L)

        monkeypatch.setattr(groupalg, name, wrapper)

    record("subgroup_order")
    record("solve_mod_kernel")
    for check_id, params in checks.profile_tasks("full"):
        if check_id.startswith("appendix-"):
            checks.run_check(check_id, params)
    monkeypatch.undo()
    return seen


def smith_subgroup_order(gens, ncols: int, L: int) -> int:
    """Reference: L^n over the product of the Smith diagonal of the
    matrix with the gens and L*e_i as columns."""
    cols = [list(g) for g in gens]
    cols += [[L if j == i else 0 for j in range(ncols)] for i in range(ncols)]
    _, D, _ = int_smith([[col[i] for col in cols] for i in range(ncols)])
    index = 1
    for i in range(ncols):
        index *= D[i][i]
    return L**ncols // index


class TestSubgroupOrderOracle:
    """subgroup_order triangularises mod L; int_smith, which certifies
    U*M*V = D, is the reference."""

    def test_every_matrix_of_the_full_profiles_appendix_rows(self, monkeypatch):
        seen = appendix_matrices(monkeypatch)
        assert len(seen) == 360
        for vectors, ncols, L in seen:
            assert subgroup_order(vectors, ncols, L) == smith_subgroup_order(vectors, ncols, L)

    def test_seeded_random_matrices(self):
        rng = random.Random(2024)
        for _ in range(400):
            n = rng.randint(1, 6)
            L = rng.choice([2, 4, 8, 3, 9, 27, 6, 12, 25, 1])
            gens = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n + rng.randint(0, 3))]
            if rng.random() < 0.3:
                gens[0] = [sum(rng.randint(-2, 2) * g[i] for g in gens[1:]) for i in range(n)]
            assert subgroup_order(gens, n, L) == smith_subgroup_order(gens, n, L)

    def test_no_generators(self):
        assert subgroup_order([], 3, 8) == 1
        assert subgroup_order([[8, 16, -8]], 3, 8) == 1


def reference_solve_mod_kernel(rows, ncols: int, L: int) -> list[list[int]]:
    """The earlier kernel: columns of V from int_smith, which certifies
    U*M*V = D, each scaled by L/gcd(d_i, L)."""
    if not rows:
        return [
            [1 if i == j else 0 for j in range(ncols)] for i in range(ncols)
        ]
    _, D, V = int_smith([list(r) for r in rows])
    gens = []
    for i in range(ncols):
        d = D[i][i] if i < len(D) and i < len(D[0]) else 0
        mult = L // gcd(abs(d), L) if d else 1
        col = [(V[row][i] * mult) % L for row in range(ncols)]
        if any(col):
            gens.append(col)
    return gens


def assert_same_kernel(rows, ncols, L):
    got = solve_mod_kernel(rows, ncols, L)
    want = reference_solve_mod_kernel(rows, ncols, L)
    assert subgroup_order(got, ncols, L) == subgroup_order(want, ncols, L)
    assert all(in_subgroup(want, ncols, L, g) for g in got)
    assert all(in_subgroup(got, ncols, L, g) for g in want)


class TestKernelOracle:
    """solve_mod_kernel triangularises mod L and certifies its answer;
    the earlier Smith-based kernel is the reference."""

    def test_every_matrix_of_the_full_profiles_appendix_rows(self, monkeypatch):
        seen = appendix_matrices(monkeypatch)
        assert len(seen) == 360
        for rows, ncols, L in seen:
            assert_same_kernel(rows, ncols, L)

    def test_seeded_random_matrices(self):
        rng = random.Random(2025)
        for k in range(400):
            ncols = rng.randint(1, 6)
            L = rng.choice([1, 2, 4, 8, 3, 9, 27, 6, 12, 25])
            # no rows, square, or up to three rows more than columns
            nrows = 0 if k % 20 == 0 else rng.randint(1, ncols + 3)
            rows = [[rng.randint(-40, 40) for _ in range(ncols)] for _ in range(nrows)]
            if rows and rng.random() < 0.3:
                rows[rng.randrange(nrows)] = [0] * ncols
            if nrows > 1 and rng.random() < 0.3:
                rows[0] = [sum(rng.randint(-2, 2) * r[i] for r in rows[1:]) for i in range(ncols)]
            assert_same_kernel(rows, ncols, L)

    def test_small_frozen_kernels(self):
        assert solve_mod_kernel([], 2, 4) == [[1, 0], [0, 1]]
        assert solve_mod_kernel([[0, 0]], 2, 4) == [[1, 0], [0, 1]]
        assert solve_mod_kernel([[2]], 1, 4) == [[2]]
        tm1 = t_gen(3, 2, 6) - ga_one(3, 2, 6)
        assert solve_mod_kernel(groupalg._mult_matrix(tm1), 6, 9) == [[1] * 6]

    def test_certificate_catches_a_dropped_kernel_row(self, monkeypatch):
        real = groupalg._triangularise

        def lossy(rows, ncols, L):
            index, rest = real(rows, ncols, L)
            return index, rest[:-1]

        monkeypatch.setattr(groupalg, "_triangularise", lossy)
        tm1 = t_gen(2, 2, 3) - ga_one(2, 2, 3)
        with pytest.raises(AssertionError, match="miss part of the kernel"):
            solve_mod_kernel(groupalg._mult_matrix(tm1), 3, 4)

    def test_certificate_catches_a_wrong_generator(self, monkeypatch):
        real = groupalg._triangularise

        def shifted(rows, ncols, L):
            index, rest = real(rows, ncols, L)
            return index, [[(x + 1) % L for x in row] for row in rest]

        monkeypatch.setattr(groupalg, "_triangularise", shifted)
        with pytest.raises(AssertionError, match="not annihilated"):
            solve_mod_kernel([[1, 1, 1]], 3, 4)

    def test_no_runtime_caller_of_int_smith(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("int_smith ran")

        monkeypatch.setattr(snf, "int_smith", boom)
        assert not hasattr(groupalg, "int_smith")
        for check_id, params in checks.profile_tasks("quick"):
            if check_id.startswith("appendix-"):
                assert checks.run_check(check_id, params).verdict == "pass"


class TestRefusedSizes:
    # the guards raise the typed error, which the CLI reports in one line
    @pytest.mark.parametrize("call", [
        lambda: unit_surjectivity_check(2, 1, 1, 7),
        lambda: unit_surjectivity_check(2, 4, 1, 3),
        lambda: unit_surjectivity_check(2, 1, 2, 3),
        lambda: pro_nzd_check(2, 1, 3, m=7),
    ])
    def test_typed_error(self, monkeypatch, call):
        def work(*args, **kwargs):
            raise AssertionError("the engine ran on refused input")

        monkeypatch.setattr(groupalg, "_units_of", work)
        monkeypatch.setattr(groupalg, "solve_mod_kernel", work)
        with pytest.raises(UnsupportedInputError):
            call()


class TestAugmentationKernel:
    def test_frozen_small_case(self):
        report = augmentation_kernel_check(2, 2, 3)
        assert report["verdict"] is True
        assert report["kernel_order"] == 16
        assert report["ideal_order"] == 16
        assert all(entry["verified"] for entry in report["basis"])

    def test_level_one_degenerate(self):
        report = augmentation_kernel_check(2, 1, 1)
        assert report["verdict"] is True
        assert report["kernel_order"] == 1

    def test_grid(self):
        for ell in (2, 3):
            for r in (1, 2):
                for n in range(1, 7):
                    if n % ell == 0:
                        continue
                    assert augmentation_kernel_check(ell, r, n)["verdict"] is True

    def test_non_classical_case_flagged(self):
        report = augmentation_kernel_check(2, 1, 2)
        assert report["verdict"] is True
        assert report["classical_case"] is False

    def test_cofactor_display(self):
        report = augmentation_kernel_check(2, 2, 3)
        assert report["basis"][1] == {
            "element": "3 + t^2",
            "cofactor": "1 + t",
            "verified": True,
        }


class TestAugmentationLevels:
    # ell = 0 and n = 0 divided by zero, r = -1 failed on a Fraction
    # modulus; each is now refused before any work runs
    @pytest.mark.parametrize("ell, r, n, message", [
        (0, 2, 3, "ell must be prime"),
        (2, 2, 0, "n = 0 must be at least 1"),
        (2, -1, 3, "r = -1"),
    ])
    def test_bad_levels_refused(self, monkeypatch, ell, r, n, message):
        def work(*args, **kwargs):
            raise AssertionError("the engine ran on refused input")

        monkeypatch.setattr(groupalg, "solve_mod_kernel", work)
        with pytest.raises(UnsupportedInputError, match=message):
            augmentation_kernel_check(ell, r, n)


class TestProNzd:
    def test_smallest_case(self):
        report = pro_nzd_check(2, 1, 1)
        assert report["verdict"] is True
        assert report["m"] == 2
        assert report["annihilator_order"] == 2
        assert report["annihilator_is_sigma_multiples"] is True
        assert report["sigma_image"] == "0"

    def test_frozen_level_twelve(self):
        report = pro_nzd_check(2, 2, 3, m=12)
        assert report["verdict"] is True
        assert report["annihilator_is_sigma_multiples"] is True

    def test_negative_control(self):
        report = pro_nzd_check(2, 2, 3, m=6)
        assert report["verdict"] is False
        assert report["sigma_image"] == "2 + 2*t + 2*t^2"
        assert report["nonzero_images"]

    def test_doubling_suffices_at_modulus_two(self):
        # with modulus 2 the fiber size m/n = 2 already kills the image
        assert pro_nzd_check(2, 1, 3, m=6)["verdict"] is True

    def test_grid_with_default_level(self):
        for ell in (2, 3):
            for r in (1, 2):
                for n in range(1, 7):
                    if n % ell == 0:
                        continue
                    report = pro_nzd_check(ell, r, n)
                    assert report["verdict"] is True
                    assert report["annihilator_is_sigma_multiples"] is True

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            pro_nzd_check(2, 1, 3, m=7)


class TestUnitDetection:
    def test_monomials_are_units(self):
        assert is_unit(t_gen(2, 2, 3))

    def test_t_minus_one_not_a_unit(self):
        assert not is_unit(t_gen(3, 1, 4) - ga_one(3, 1, 4))

    def test_scalar_level_one(self):
        assert is_unit(ga_elem(3, 2, 1, [7]))
        assert not is_unit(ga_elem(3, 2, 1, [6]))

    def test_unit_count_mod_two_level_three(self):
        # (Z/2)[Z/3] has 8 elements; units are those coprime to x^3-1
        units = [
            v
            for v in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
            if is_unit(ga_elem(2, 1, 3, v))
        ]
        assert len(units) == 3


def ref_fl_gcd_is_one(a, b, ell):
    """The earlier Euclid over F_ell with its own reduce and divmod."""
    def reduce(coeffs):
        out = [c % ell for c in coeffs]
        while out and out[-1] == 0:
            out.pop()
        return out

    def divmod_(a, b):
        a = list(a)
        inv = pow(b[-1], -1, ell)
        while len(a) >= len(b) and a:
            if a[-1] == 0:
                a.pop()
                continue
            c = (a[-1] * inv) % ell
            off = len(a) - len(b)
            for i, x in enumerate(b):
                a[i + off] = (a[i + off] - c * x) % ell
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        return a

    a, b = reduce(a), reduce(b)
    while b:
        a, b = b, divmod_(a, b)
    return len(a) == 1


def ref_is_unit(a):
    if a.n == 1:
        return a.coeffs[0] % a.ell != 0
    return ref_fl_gcd_is_one(list(a.coeffs), [-1] + [0] * (a.n - 1) + [1], a.ell)


class TestUnitOracle:
    """`is_unit` and the memoised `_units_of` against the earlier gcd."""

    @pytest.mark.parametrize("ell,r,n", [(2, 2, 3), (3, 2, 2), (2, 1, 6), (3, 1, 4)])
    def test_every_vector_matches_reference(self, ell, r, n):
        L = ell**r
        expected = []
        for vec in product(range(L), repeat=n):
            elem = GroupAlgebraElem(ell, r, n, vec)
            assert is_unit(elem) == ref_is_unit(elem), vec
            if ref_is_unit(elem):
                expected.append(elem)
        assert list(groupalg._units_of(ell, r, n)) == expected

    def test_level_one_needs_no_special_case(self):
        for ell, r in ((2, 1), (3, 2), (5, 1)):
            for c in range(ell**r):
                elem = ga_elem(ell, r, 1, [c])
                assert is_unit(elem) == ref_is_unit(elem) == (c % ell != 0)


class TestUnitSurjectivity:
    def test_frozen_examples(self):
        assert unit_surjectivity_check(2, 1, 1, 3)["verdict"] is True
        assert unit_surjectivity_check(3, 1, 2, 4)["verdict"] is True

    def test_identity_shortcut(self):
        report = unit_surjectivity_check(3, 2, 6, 6)
        assert report["verdict"] is True
        assert report["method"] == "identity"

    def test_size_guard(self):
        with pytest.raises(ValueError):
            unit_surjectivity_check(2, 1, 1, 7)
        with pytest.raises(ValueError):
            unit_surjectivity_check(2, 4, 1, 3)

    def test_divisibility_guard(self):
        with pytest.raises(ValueError):
            unit_surjectivity_check(2, 1, 2, 3)

    def test_coset_search_path(self):
        report = unit_surjectivity_check(3, 2, 1, 5)
        assert report["verdict"] is True
        assert report["method"] == "coset_search"

    def test_grid(self):
        for ell in (2, 3):
            for r in (1, 2):
                for n in range(1, 7):
                    for nprime in range(n, 7):
                        if nprime % n or n % ell == 0 or nprime % ell == 0:
                            continue
                        report = unit_surjectivity_check(ell, r, n, nprime)
                        assert report["verdict"] is True, (ell, r, n, nprime)


class TestTwistedModules:
    def test_tensor_adds_twists(self):
        out = twisted_tensor((6, 1), (3, -1))
        assert out == (3, 0)

    def test_unit_tensor(self):
        assert twisted_tensor((4, 0), (4, 0)) == (4, 0)

    def test_level_incompatibility(self):
        with pytest.raises(ValueError):
            twisted_tensor((4, 1), (3, 1))
        with pytest.raises(ValueError):
            twisted_transition((4, 1), 3)

    def test_associative(self):
        a = (12, 2)
        b = (6, -1)
        c = (3, 1)
        assert twisted_tensor(twisted_tensor(a, b), c) == twisted_tensor(
            a, twisted_tensor(b, c)
        )

    def test_check_report(self):
        report = twisted_tensor_check()
        assert report["verdict"] is True
        assert report["twists_add"] is True
        assert report["associative"] is True
        assert report["transition_compatible"] is True
