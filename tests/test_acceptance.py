"""Acceptance suite: the eleven shipping criteria, one outcome line each.

Each test computes its verdict, appends a PASS/FAIL line to
ACCEPTANCE_LINES (echoed in the terminal summary), and then asserts.
Budgeted criteria also assert their wall-time limits.
"""

import json
import time
from fractions import Fraction

from monofour import checks, groupalg, mellin, trace
from monofour.ore import CyclicPresentation
from monofour.parser import parse_operator

ACCEPTANCE_LINES = []


def record(num, description, fn):
    start = time.perf_counter()
    try:
        ok, detail = fn()
    except Exception as exc:
        ACCEPTANCE_LINES.append(
            f"criterion {num:2d}: FAIL - {description} (crashed: {exc!r})"
        )
        raise
    elapsed = time.perf_counter() - start
    suffix = f" [{detail}]" if detail else ""
    line = (
        f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - "
        f"{description}{suffix} ({elapsed:.1f}s)"
    )
    ACCEPTANCE_LINES.append(line)
    assert ok, line
    return elapsed


def test_criterion_01_transform_square_identity_grid():
    def body():
        grid = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2)]
        start = time.perf_counter()
        failures = []
        for q, d in grid:
            rep = trace.check_keythm(q, d)
            if not rep["verdict"]:
                failures.append((q, d))
        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 10.0
        return ok, f"{len(grid)} grid points, {elapsed:.2f}s < 10s"

    record(1, "transform squared equals scaled unit convolution, exhaustively", body)


def test_criterion_02_scaling_sum_zero_eigenvalue():
    def body():
        failures = []
        for q in (3, 5):
            for d in (1, 2):
                rep = trace.check_CV(q, d)
                if not (rep["verdict"] and rep["stable"]):
                    failures.append((q, d))
        return not failures, "4 grid points, subspace stable"

    record(2, "transform squares to q^(d+1) on the sum-zero subspace", body)


def test_criterion_03_inverted_character_sum_and_factorization():
    def body():
        failures = []
        for q in (3, 5, 7):
            if not trace.check_P2B(q)["verdict"]:
                failures.append(("p2b", q))
            if not trace.check_BL2(q, 1)["verdict"]:
                failures.append(("bl2", q))
        return not failures, "q in {3,5,7}, exact cyclotomic arithmetic"

    record(3, "inverted character sum equals negated kernel; transform factors", body)


def test_criterion_04_delta_images():
    def body():
        failures = [q for q in (2, 3, 5, 7) if not trace.check_fbneq(q)["verdict"]]
        return not failures, "delta at 0 -> constant -1, delta at 1 -> negated kernel"

    record(4, "transform separates from additive transform on delta functions", body)


def test_criterion_05_shift_algebra_suite():
    def body():
        start = time.perf_counter()
        failures = []

        # (a) symbol-exact images of the canonical differential modules
        mk = mellin.mellin_module(mellin.weyl_kernel_module())
        me = mellin.mellin_module(CyclicPresentation("weyl", (parse_operator("1 - dx", "weyl"),)))
        if list(mk.relations) != [parse_operator("(s+1) - Ti*s", "shift")]:
            failures.append("kernel relation")
        if list(me.relations) != [parse_operator("1 - Ti*s", "shift")]:
            failures.append("exp relation")

        # (b) embedding accepts 1/(s+1) and refuses 1
        if checks.run_check("mellin-b-embed").verdict != "pass":
            failures.append("embed")

        # (c, d) pole-lattice and monodromization grid; the skyscraper
        # checks take no fiber order, their verdict being the same for all
        for chi in ("0", "1/2", "1/3"):
            for n in (1, 2, 3):
                params = {"chi": chi, "n": n, "window": 8}
                for cid in ("propDmod1", "propDmod2"):
                    if checks.run_check(cid, dict(params)).verdict != "pass":
                        failures.append((cid, chi, n))
            for cid in ("propDmod3", "dmodmon"):
                if checks.run_check(cid, {"chi": chi, "window": 8}).verdict != "pass":
                    failures.append((cid, chi))

        # (e) squared exponential witness with failing control
        if checks.run_check("exp-square", {"window": 6}).verdict != "pass":
            failures.append("exp-square")

        # (f) transform substitution squared is the antipode
        if checks.run_check("fourier-antipode").verdict != "pass":
            failures.append("fourier-antipode")

        # (g) torsion test agrees with the evaluation-rank oracle
        if checks.run_check("mon-test", {"count": 20}).verdict != "pass":
            failures.append("mon-test")

        elapsed = time.perf_counter() - start
        ok = not failures and elapsed < 60.0
        return ok, f"parts a-g, {elapsed:.1f}s < 60s" + (
            f"; failures={failures}" if failures else ""
        )

    record(5, "shift-algebra module suite passes end to end", body)


def test_criterion_06_window_stability():
    def body():
        mismatches = []

        def verdict(cid, **params):
            return checks.run_check(cid, params).verdict

        # embedding: window 8 vs 10
        if verdict("mellin-b-embed", window=8) != verdict("mellin-b-embed", window=10):
            mismatches.append("mellin-b-embed")
        for chi in ("0", "1/2", "1/3"):
            for n in (1, 2, 3):
                for cid in ("propDmod1", "propDmod2"):
                    a = verdict(cid, chi=chi, n=n, window=8)
                    b = verdict(cid, chi=chi, n=n, window=10)
                    if a != b:
                        mismatches.append((cid, chi, n))
            for cid in ("propDmod3", "dmodmon"):
                if verdict(cid, chi=chi, window=8) != verdict(cid, chi=chi, window=10):
                    mismatches.append((cid, chi))
        if verdict("exp-square", window=6) != verdict("exp-square", window=8):
            mismatches.append("exp-square")
        if verdict("mon-test", window=3) != verdict("mon-test", window=5):
            mismatches.append("mon-test")
        return not mismatches, "all boolean verdicts agree at radii N and N+2"

    record(6, "windowed verdicts are stable under enlarging the radius", body)


def test_criterion_07_gauss_suite():
    def body():
        failures = []
        for q, n in [(5, 4), (7, 2), (7, 3), (7, 6)]:
            rep = trace.gauss_suite(q, n)
            if not rep["verdict"]:
                failures.append((q, n))
            # independent point-count oracle for the power-count kernel
            fn = trace.power_count_trace(q, n)
            F = trace.CharacterTable(q).field
            zero = F.sub(F.e, F.e)
            for x in range(F.q):
                count = sum(1 for y in range(F.q) if F.pow(y, n) == x)
                expected = count - 1 if x == zero else count
                if fn.value((x,)) != expected:
                    failures.append(("oracle", q, n, x))
        return not failures, "products g*g_bar*sign = q; point counts exact"

    record(7, "opposite Gauss sums multiply to q; kernels match point counts", body)


def test_criterion_08_group_algebra_suite():
    def body():
        failures = []
        for ell in (2, 3):
            for r in (1, 2):
                for n in range(1, 7):
                    if not groupalg.augmentation_kernel_check(ell, r, n)["verdict"]:
                        failures.append(("aug", ell, r, n))
                    if not groupalg.pro_nzd_check(ell, r, n)["verdict"]:
                        failures.append(("nzd", ell, r, n))
                    if ell ** r > 2 and groupalg.pro_nzd_check(
                        ell, r, n, m=2 * n
                    )["verdict"]:
                        failures.append(("nzd-control", ell, r, n))
                for n, nprime in [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 6), (3, 6)]:
                    if not groupalg.unit_surjectivity_check(ell, r, n, nprime)[
                        "verdict"
                    ]:
                        failures.append(("units", ell, r, n, nprime))
        if not groupalg.twisted_tensor_check()["verdict"]:
            failures.append("tensor")
        return not failures, "ell in {2,3}, r <= 2, n <= 6, with negative controls"

    record(8, "group-algebra suite: augmentation, annihilators, units, twists", body)


def test_criterion_09_eigenfunction_convolution():
    def body():
        failures = []
        notes = set()
        for q, n in [(7, 3), (5, 4)]:
            ct = trace.CharacterTable(q)
            for k in ct.chars_with_order_dividing(n):
                rep = trace.check_lem_mon_shadow(q, n, k)
                if not rep["verdict"]:
                    failures.append((q, n, k))
                notes.add(rep["pro_limit_note"])
        documented = all("q" in note for note in notes) and notes
        return (
            not failures and bool(documented),
            "factor q-1 at finite level; limit discrepancy documented",
        )

    record(9, "convolution scales eigenfunctions by q-1 inside the eigenspace", body)


def test_criterion_10_diagnostics_terminate():
    def body():
        failures = []
        for cid in ("propB3-diagnostic", "gauss-g-diagnostic"):
            for q in (3, 5):
                for n in (1, 2):
                    rep = checks.run_check(cid, {"q": q, "n": n})
                    if rep.verdict != "diagnostic" or rep.exit_code != 2:
                        failures.append((cid, q, n))
                    witness_text = json.dumps(rep.to_dict())
                    if "no expected constant asserted" not in witness_text:
                        failures.append((cid, q, n, "missing caveat"))
        return not failures, "verdict 'diagnostic', exit code 2, measured scalars only"

    record(10, "convention-dependent checks report measurements, never assert", body)


def test_criterion_11_determinism_and_budget():
    def body():
        def strip(result):
            return json.dumps(
                {
                    **result,
                    "reports": [
                        {k: v for k, v in rep.items() if k != "elapsed"}
                        for rep in result["reports"]
                    ],
                },
                sort_keys=True,
            )

        start = time.perf_counter()
        first = checks.run_all("quick", seed=20260823)
        elapsed = time.perf_counter() - start
        second = checks.run_all("quick", seed=20260823)
        identical = strip(first) == strip(second)
        all_pass = first["verdict"] == "pass"
        ok = identical and all_pass and elapsed < 60.0
        return ok, (
            f"{len(first['reports'])} reports, byte-identical minus timings, "
            f"{elapsed:.1f}s < 60s"
        )

    record(11, "quick verification profile is deterministic and fast", body)
