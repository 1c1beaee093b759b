"""Tests for the check registry, dispatch, and profile runner."""

import hashlib
import inspect
import json
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monofour import checks, groupalg, mellin, ore, trace
from monofour.reports import CheckReport
from test_reports import validate_report_dict
from monofour.scalars.poly import UnsupportedInputError

ENGINES = {"trace": trace, "mellin": mellin, "ore": ore, "groupalg": groupalg}

DIAGNOSTIC_CHECKS = {"gauss-g-diagnostic", "propB3-diagnostic"}


def stripped(report_dict):
    return {k: v for k, v in report_dict.items() if k != "elapsed"}


class TestRegistry:
    def test_registry_has_24_checks(self):
        assert len(checks.CHECK_IDS) == 24
        assert len(set(checks.CHECK_IDS)) == 24

    @pytest.mark.parametrize("check_id", checks.CHECK_IDS)
    def test_statement_nonempty(self, check_id):
        assert checks.CHECKS[check_id].statement.strip()

    @pytest.mark.parametrize("check_id", checks.CHECK_IDS)
    def test_engine_mapping_resolves(self, check_id):
        engine = checks.CHECKS[check_id].engine
        module_name, _, operation = engine.partition(".")
        assert module_name in ENGINES, engine
        assert hasattr(ENGINES[module_name], operation), engine

    def test_each_check_maps_to_one_operation(self):
        for spec in checks.CHECKS.values():
            assert spec.engine.count(".") == 1

    def test_every_engine_module_is_covered(self):
        modules = {spec.engine.split(".")[0] for spec in checks.CHECKS.values()}
        assert modules == set(ENGINES)

    @pytest.mark.parametrize(
        "check_id", [cid for cid in checks.CHECK_IDS if checks.CHECKS[cid].runner is None]
    )
    def test_runnerless_engine_binds_defaults(self, check_id):
        spec = checks.CHECKS[check_id]
        module_name, _, operation = spec.engine.partition(".")
        inspect.signature(getattr(ENGINES[module_name], operation)).bind(**spec.defaults)

    def test_runnerless_dispatch_resolves_engine_per_call(self, monkeypatch):
        calls = []
        engine = trace.check_fbneq

        def recording(**params):
            calls.append(params)
            return engine(**params)

        monkeypatch.setattr(trace, "check_fbneq", recording)
        report = checks.run_check("fbneq", {"q": 2})
        assert calls == [{"q": 2}]
        assert report.verdict == "pass" and report.witness["q"] == 2


class TestRunCheck:
    @pytest.mark.parametrize("check_id", checks.CHECK_IDS)
    def test_default_run_produces_valid_report(self, check_id):
        report = checks.run_check(check_id)
        assert report.check == check_id
        data = report.to_dict()
        validate_report_dict(data)
        if check_id in DIAGNOSTIC_CHECKS:
            assert report.verdict == "diagnostic"
            assert report.exit_code == 2
        else:
            assert report.verdict == "pass"
            assert report.exit_code == 0

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            checks.run_check("nonsense")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            checks.run_check("keythm", {"ell": 3})

    def test_none_parameters_use_defaults(self):
        a = checks.run_check("p2b", {"q": None})
        b = checks.run_check("p2b")
        assert stripped(a.to_dict()) == stripped(b.to_dict())

    def test_parameters_merge_overrides(self):
        report = checks.run_check("keythm", {"q": 5})
        assert report.parameters["q"] == 5
        assert report.parameters["d"] == 1

    def test_chi_accepts_fraction_strings(self):
        report = checks.run_check("propDmod1", {"chi": "1/2", "n": 2})
        assert report.verdict == "pass"
        assert report.witness["chi"] == "1/2" or str(report.witness["chi"]) == "1/2"

    def test_deterministic_given_seed(self):
        a = checks.run_check("mon-test", {"seed": 11, "count": 5})
        b = checks.run_check("mon-test", {"seed": 11, "count": 5})
        assert stripped(a.to_dict()) == stripped(b.to_dict())

    def test_statement_embedded_in_report(self):
        report = checks.run_check("appendix-tensor")
        assert report.statement == checks.CHECKS["appendix-tensor"].statement

    # degenerate input is refused with the typed error, never given a verdict
    @pytest.mark.parametrize(
        "check_id,params,first_work",
        [
            ("keythm", {"d": 0}, (trace, "t_B_units")),
            ("mon-equivalence", {"d": 0}, (trace, "monodromic_span_basis")),
            ("appendix-units", {"n": 0}, (groupalg, "_units_of")),
            ("appendix-nzd", {"ell": 4}, (groupalg, "solve_mod_kernel")),
            ("mon-test", {"count": -3}, (mellin, "windowed_equivariant")),
            ("fourier-antipode", {"count": -1}, (checks, "fourier_auto")),
            ("cv-equivalence", {"d": 0}, (trace, "scaling_sum_zero_basis")),
            ("cv-equivalence", {"d": -1}, (trace, "scaling_sum_zero_basis")),
            ("bl2", {"d": 0}, (trace, "CharacterTable")),
            ("bl2", {"d": -1}, (trace, "CharacterTable")),
            # q^d above the size bounds: keythm grew without limit at 3^12
            ("keythm", {"q": 3, "d": 12}, (trace, "t_B_units")),
            ("keythm", {"q": 13, "d": 3}, (trace, "t_B_units")),
            ("keythm", {"q": 3, "d": 100000}, (trace, "t_B_units")),
            ("cv-equivalence", {"q": 17, "d": 2}, (trace, "scaling_sum_zero_basis")),
            ("bl2", {"q": 17, "d": 2}, (trace, "CharacterTable")),
            ("mon-equivalence", {"q": 7, "d": 3, "n": 2}, (trace, "monodromic_span_basis")),
        ],
    )
    def test_degenerate_parameters_refused_before_work(
        self, monkeypatch, check_id, params, first_work
    ):
        def work(*args, **kwargs):
            raise AssertionError("the engine ran on refused input")

        monkeypatch.setattr(*first_work, work)
        with pytest.raises(UnsupportedInputError):
            checks.run_check(check_id, params)

    # the character order n must be at least 1 and divide q - 1
    @pytest.mark.parametrize("n", [0, -3, 4])
    @pytest.mark.parametrize("check_id", [
        "gauss-suite", "gauss-g-diagnostic", "propB3-diagnostic",
        "lem-mon-shadow", "mon-equivalence",
    ])
    def test_character_order_refused_before_work(self, monkeypatch, check_id, n):
        def work(*args, **kwargs):
            raise AssertionError("the engine ran on refused input")

        monkeypatch.setattr(trace, "CharacterTable", work)
        monkeypatch.setattr(trace, "power_count_trace", work)
        with pytest.raises(UnsupportedInputError, match=f"n = {n} must be a positive divisor"):
            checks.run_check(check_id, {"q": 7, "n": n})


    # a window radius below 0 or a pole order below 1 leaves nothing to
    # check, and chi must be a rational literal
    @pytest.mark.parametrize(
        "check_id, params, message",
        [
            ("eq3-decomp", {"window": -1}, "window radius -1"),
            ("eq3-decomp", {"n": 0}, "order n = 0"),
            ("propDmod1", {"n": 0}, "order n = 0"),
            ("propDmod1", {"window": -1}, "window radius -1"),
            ("propDmod1", {"chi": "1/0"}, "not a rational number"),
            ("propDmod1", {"chi": "half"}, "not a rational number"),
            ("propDmod2", {"n": 0}, "order n = 0"),
            ("propDmod2", {"window": -1}, "window radius -1"),
            ("propDmod3", {"window": -1}, "window radius -1"),
            ("propDmod3", {"n": 0}, "order n = 0"),
            ("dmodmon", {"window": -1}, "window radius -1"),
            ("dmodmon", {"n": 0}, "order n = 0"),
            ("dmodmon", {"n": 5}, "fiber order 5"),
            ("dmodmon", {"chi": "half"}, "not a rational number"),
        ],
    )
    def test_window_and_order_refused_before_work(self, monkeypatch, check_id, params, message):
        def work(*args, **kwargs):
            raise AssertionError("the engine ran on refused input")

        monkeypatch.setattr(mellin, "WindowedLattice", work)
        monkeypatch.setattr(mellin, "LadderFamily", work)
        monkeypatch.setattr(mellin, "tensor_equivariant", work)
        monkeypatch.setattr(mellin, "_partial_fractions", work)
        with pytest.raises(UnsupportedInputError, match=message):
            checks.run_check(check_id, params)


    # a negative window or degree bound gave a vacuous pass
    @pytest.mark.parametrize("check_id, params, first_work, message", [
        ("mon-test", {"window": -1}, (mellin, "monodromic_test"), "window radius -1"),
        ("propDmod1", {"degree_bound": -1}, (mellin.Factored, "__truediv__"), "degree bound -1"),
    ])
    def test_vacuous_mellin_inputs_refused(self, monkeypatch, check_id, params, first_work, message):
        def work(*args, **kwargs):
            raise AssertionError("the engine ran on refused input")

        monkeypatch.setattr(*first_work, work)
        with pytest.raises(UnsupportedInputError, match=message):
            checks.run_check(check_id, params)

    # lem-mon-shadow reads chi as a character index, so a non-integral
    # chi is refused rather than truncated (1/2 would run as index 0)
    @pytest.mark.parametrize("chi", ["1/2", "5/2", Fraction(-7, 2)])
    def test_lem_mon_shadow_refuses_non_integral_chi(self, monkeypatch, chi):
        def work(*args, **kwargs):
            raise AssertionError("the engine ran on refused input")

        monkeypatch.setattr(trace, "CharacterTable", work)
        monkeypatch.setattr(trace, "power_count_trace", work)
        with pytest.raises(UnsupportedInputError, match=f"^chi = {Fraction(chi)} must be an integer$"):
            checks.run_check("lem-mon-shadow", {"chi": chi})

    @pytest.mark.parametrize("chi, index", [(-1, -1), ("4/2", 2)])
    def test_lem_mon_shadow_integral_chi(self, chi, index):
        report = checks.run_check("lem-mon-shadow", {"q": 7, "n": 3, "chi": chi})
        assert report.verdict == "pass"
        assert report.witness["chi_index"] == index


# Boundary values of every parameter a check reads: each domain's edge,
# one step outside it, a non-rational and a zero-denominator chi.  Draws
# inside the domains stay small: q^d <= 81, windows <= 4, counts <= 3.
BOUNDARY_VALUES = {
    "q": [2, 3, 4, 9, 1, 0, 6, 122],
    "d": [1, 2, 0, -1],
    "n": [1, 2, 4, 5, 0, -1],
    "chi": ["0", "1/2", "-4/3", 2, Fraction(1, 3), "1/0", "half"],
    "window": [0, 1, 3, 4, -1, 2],
    "degree_bound": [0, 2, -1],
    "count": [1, 3, 0, -1],
    "seed": [0, 7],
    "variant": ["affine", "plain", "x"],
    "ell": [2, 3, 4, 1, 0],
    "r": [1, 2, 3, 0, -1],
    "nprime": [1, 6, 7, 0],
}
# (q, d) at the edge of the small draws, and just above the q^d bounds
# (256 for cv-equivalence, bl2 and mon-equivalence; 2187 for keythm)
SIZE_PAIRS = [(3, 4), (17, 2), (13, 3), (2, 12)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_boundary_draws_give_a_report_or_the_typed_refusal(data):
    check_id = data.draw(st.sampled_from(checks.CHECK_IDS))
    params = {
        key: data.draw(st.sampled_from(BOUNDARY_VALUES[key]))
        for key in sorted(checks.CHECKS[check_id].defaults)
    }
    if {"q", "d"} <= params.keys() and data.draw(st.booleans()):
        params["q"], params["d"] = data.draw(st.sampled_from(SIZE_PAIRS))
    try:
        report = checks.run_check(check_id, params)
    except UnsupportedInputError:
        return
    assert isinstance(report, CheckReport)


class TestNegativeControls:
    def test_exp_square_control_must_fail_for_pass(self):
        report = checks.run_check("exp-square")
        assert report.witness["control_verdict"] is False

    def test_nzd_control_present_when_modulus_large(self):
        report = checks.run_check("appendix-nzd", {"ell": 3, "r": 1, "n": 4})
        assert report.witness["control_applicable"] is True
        assert report.witness["control"]["verdict"] is False

    def test_nzd_control_skipped_at_modulus_two(self):
        report = checks.run_check("appendix-nzd", {"ell": 2, "r": 1, "n": 3})
        assert report.witness["control_applicable"] is False
        assert report.verdict == "pass"

    def test_embed_rejection_is_part_of_verdict(self):
        report = checks.run_check("mellin-b-embed")
        assert report.witness["rejection"]

    def test_fb_fl_refusal_recorded(self):
        report = checks.run_check("fb-fl-agree")
        assert report.witness["control_refused"] is True
        assert report.witness["control_diagnostic"]

    def test_dmodmon_fails_on_a_step_with_a_zero(self, monkeypatch):
        # f_j = s (s+1) ... (s+j-1): the step factor s vanishes at 0, where
        # every fiber generator is 1, so the derived unit there is 0
        def rising_ladder(radius):
            funcs = {0: mellin._ONE}
            for j in range(radius):
                funcs[j + 1] = funcs[j] * mellin._linear(-j)
            return mellin.LadderFamily("r", funcs)

        monkeypatch.setitem(mellin._LADDERS, "exp", rising_ladder)
        report = checks.run_check("dmodmon", {"chi": "0", "n": 2, "window": 3})
        assert report.verdict == "fail"
        assert report.witness["exp_factor"] is False
        assert report.witness["kernel_factor"] and report.witness["free_control"]
        # off the integer orbit the factor s never vanishes
        assert checks.run_check("dmodmon", {"chi": "1/2", "n": 2, "window": 3}).verdict == "pass"


class TestProfiles:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            checks.profile_tasks("overnight")

    def test_quick_covers_every_check(self):
        covered = {check_id for check_id, _ in checks.profile_tasks("quick")}
        assert covered == set(checks.CHECK_IDS)

    def test_full_extends_quick(self):
        quick = checks.profile_tasks("quick")
        full = checks.profile_tasks("full")
        assert len(full) > len(quick)
        assert full[: len(quick)] == quick

    def test_profile_params_are_valid(self):
        for profile in ("quick", "full"):
            for check_id, params in checks.profile_tasks(profile):
                defaults = checks.CHECKS[check_id].defaults
                unknown = set(params) - set(defaults)
                assert not unknown, (profile, check_id, unknown)

    def test_profile_enumeration_is_deterministic(self):
        assert checks.profile_tasks("quick") == checks.profile_tasks("quick")
        assert checks.profile_tasks("full") == checks.profile_tasks("full")

    def test_seed_reaches_only_seeded_checks(self):
        tasks = checks.profile_tasks("quick")
        seeded = {cid for cid, _ in tasks if checks.CHECKS[cid].seeded}
        assert "mon-test" in seeded and "fourier-antipode" not in seeded
        assert "p2b" not in seeded


# sha256 over json.dumps(to_dict(include_elapsed=False), sort_keys=True) of
# every trace.* and groupalg.* row of the full profile, in profile order,
# seed 7.  Recorded from the per-term engines, whose tables held Fractions;
# the engines now hold ints where the values are integral and must print
# the same witnesses byte for byte.
NUMBER_THEORY_FULL_SEED7_SHA256 = (
    "2392a1f4186b3e3304778fd20b7120a5680c4b7c7084765f8e913e7167e59d04"
)


def test_number_theory_witnesses_are_pinned():
    digest = hashlib.sha256()
    rows = 0
    for check_id, params in checks.profile_tasks("full"):
        spec = checks.CHECKS[check_id]
        if spec.engine.split(".")[0] not in ("trace", "groupalg"):
            continue
        if spec.seeded:
            params = dict(params, seed=7)
        report = checks.run_check(check_id, params)
        digest.update(json.dumps(report.to_dict(include_elapsed=False), sort_keys=True).encode())
        rows += 1
    assert rows == 124
    assert digest.hexdigest() == NUMBER_THEORY_FULL_SEED7_SHA256


# The same digest over every mellin.* and ore.* row of the quick profile,
# seed 7.  These witnesses print operators and labels (the mon-test and
# fb-fl-agree relations, the propDmod3 generators), so the digest pins the
# printers of Poly, RatFun, ShiftOp and the Weyl operators.
MELLIN_OPERATOR_QUICK_SEED7_SHA256 = (
    "537ffe463e4cd05c1308cdde4f35810030c146572d655435da39616c77445e7b"
)


def test_mellin_and_operator_witnesses_are_pinned():
    digest = hashlib.sha256()
    rows = 0
    for check_id, params in checks.profile_tasks("quick"):
        spec = checks.CHECKS[check_id]
        if spec.engine.split(".")[0] not in ("mellin", "ore"):
            continue
        if spec.seeded:
            params = dict(params, seed=7)
        report = checks.run_check(check_id, params)
        digest.update(json.dumps(report.to_dict(include_elapsed=False), sort_keys=True).encode())
        rows += 1
    assert rows == 43
    assert digest.hexdigest() == MELLIN_OPERATOR_QUICK_SEED7_SHA256


# The same digest over every mellin.* and ore.* row of the full profile,
# seed 7: the large windows (eq3-decomp at 6, exp-square at 8 and 10, the
# radius 10 and 12 grids) are where poly_rank's full-rank certificate
# does most of its work.
MELLIN_OPERATOR_FULL_SEED7_SHA256 = (
    "be614d10e6ac73bf4affd06026d2890ed489b17eb56394a94e9336fe84f65020"
)


def test_full_mellin_and_operator_witnesses_are_pinned():
    digest = hashlib.sha256()
    rows = 0
    for check_id, params in checks.profile_tasks("full"):
        spec = checks.CHECKS[check_id]
        if spec.engine.split(".")[0] not in ("mellin", "ore"):
            continue
        if spec.seeded:
            params = dict(params, seed=7)
        report = checks.run_check(check_id, params)
        digest.update(json.dumps(report.to_dict(include_elapsed=False), sort_keys=True).encode())
        rows += 1
    assert rows == 93
    assert digest.hexdigest() == MELLIN_OPERATOR_FULL_SEED7_SHA256


# sha256 over every check report of run_all for (quick, 7), (quick, None),
# (full, 7) and (full, None), in run order: each report without its
# elapsed time, as json.dumps(report, sort_keys=True), concatenated.  The
# pins above cover full at seed 7 by engine; this adds quick's
# number-theory rows and both unseeded runs.
WHOLE_PROFILE_SHA256 = "c57c485ffd4931ecc384eaab0548297c9457fcc52afcca4819eb422f2f3171d7"


def test_whole_profile_digest_is_pinned():
    digest = hashlib.sha256()
    for profile, seed in (("quick", 7), ("quick", None), ("full", 7), ("full", None)):
        for report in checks.run_all(profile, seed=seed)["reports"]:
            digest.update(json.dumps(stripped(report), sort_keys=True).encode())
    assert digest.hexdigest() == WHOLE_PROFILE_SHA256


class TestRunAllSmall:
    """run_all plumbing on a tiny synthetic profile; the real quick/full
    grids are exercised by the acceptance suite."""

    @pytest.fixture()
    def tiny_profile(self, monkeypatch):
        tasks = [
            ("keythm", {"q": 2, "d": 1}),
            ("propB3-diagnostic", {"q": 3, "n": 1}),
            ("appendix-tensor", {}),
            ("keythm", {"q": 3, "d": 1}),
        ]
        monkeypatch.setitem(checks.PROFILES, "tiny", lambda: list(tasks))
        return tasks

    def test_reports_merged_by_check_then_order(self, tiny_profile):
        out = checks.run_all("tiny")
        got = [(r["check"], r["parameters"].get("q")) for r in out["reports"]]
        assert got == [
            ("keythm", 2),
            ("keythm", 3),
            ("propB3-diagnostic", 3),
            ("appendix-tensor", None),
        ]

    def test_counts_and_verdict(self, tiny_profile):
        out = checks.run_all("tiny")
        assert out["counts"] == {"pass": 3, "fail": 0, "diagnostic": 1, "error": 0}
        assert out["verdict"] == "pass"

    def test_raising_engine_becomes_error_report(self, tiny_profile, monkeypatch):
        def boom(**params):
            raise ZeroDivisionError(f"no inverse at q={params['q']}")

        monkeypatch.setattr(trace, "check_keythm", boom)
        out = checks.run_all("tiny", seed=5)
        assert out["counts"] == {"pass": 1, "fail": 0, "diagnostic": 1, "error": 2}
        assert out["verdict"] == "error"
        errors = [r for r in out["reports"] if r["verdict"] == "error"]
        assert [r["check"] for r in errors] == ["keythm", "keythm"]
        assert errors[0]["witness"] == {
            "type": "ZeroDivisionError",
            "message": "no inverse at q=2",
        }
        assert errors[0]["parameters"] == {"q": 2, "d": 1, "seed": 5}
        for rep in out["reports"]:
            validate_report_dict(rep)

    def test_error_outranks_fail(self, monkeypatch):
        def boom(**params):
            raise RuntimeError("engine broke")

        def fails(**params):
            return {"verdict": False}

        tasks = [("keythm", {"q": 2, "d": 1}), ("appendix-tensor", {})]
        monkeypatch.setitem(checks.PROFILES, "tiny", lambda: list(tasks))
        monkeypatch.setattr(trace, "check_keythm", boom)
        monkeypatch.setattr(groupalg, "twisted_tensor_check", fails)
        out = checks.run_all("tiny")
        assert out["counts"] == {"pass": 0, "fail": 1, "diagnostic": 0, "error": 1}
        assert out["verdict"] == "error"

    @pytest.mark.parametrize(
        "bad_task, message",
        [(("no-such-check", {}), "unknown check"), (("keythm", {"w": 1}), "no parameter")],
    )
    def test_bad_task_raises_before_its_engine_runs(self, monkeypatch, bad_task, message):
        def never(**params):
            raise AssertionError("the engine of a bad task may not run")

        # an engine that ran would become an error report, not a ValueError
        tasks = [("appendix-tensor", {}), bad_task]
        monkeypatch.setitem(checks.PROFILES, "tiny", lambda: list(tasks))
        monkeypatch.setattr(trace, "check_keythm", never)
        with pytest.raises(ValueError, match=message):
            checks.run_all("tiny")

    def test_seed_recorded_and_applied(self, tiny_profile):
        out = checks.run_all("tiny", seed=99)
        assert out["seed"] == 99
        keythm_reports = [r for r in out["reports"] if r["check"] == "keythm"]
        assert all(r["parameters"]["seed"] == 99 for r in keythm_reports)
        diag = [r for r in out["reports"] if r["check"] == "propB3-diagnostic"]
        assert "seed" not in diag[0]["parameters"]

    def test_deterministic_json(self, tiny_profile):
        def strip_all(d):
            return json.dumps(
                {
                    **d,
                    "reports": [stripped(r) for r in d["reports"]],
                },
                sort_keys=True,
            )

        a = checks.run_all("tiny", seed=5)
        b = checks.run_all("tiny", seed=5)
        assert strip_all(a) == strip_all(b)

    def test_reports_validate(self, tiny_profile):
        out = checks.run_all("tiny")
        for rep in out["reports"]:
            validate_report_dict(rep)

    def test_one_job_runs_in_calling_thread(self, tiny_profile, monkeypatch):
        threads = []
        run_check = checks.run_check

        def recording(check_id, params):
            threads.append(threading.get_ident())
            return run_check(check_id, params)

        monkeypatch.setattr(checks, "run_check", recording)
        checks.run_all("tiny", seed=5, jobs=1)
        assert threads == [threading.get_ident()] * len(tiny_profile)
        checks.run_all("tiny", seed=5)
        assert threads == [threading.get_ident()] * (2 * len(tiny_profile))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_refused(self, tiny_profile, monkeypatch, jobs):
        def never(check_id, params):
            raise AssertionError("no check may run")

        monkeypatch.setattr(checks, "run_check", never)
        with pytest.raises(ValueError, match="at least 1"):
            checks.run_all("tiny", jobs=jobs)

    def test_jobs_above_one_refused(self, tiny_profile, monkeypatch):
        def never(check_id, params):
            raise AssertionError("no check may run")

        monkeypatch.setattr(checks, "run_check", never)
        before = threading.active_count()
        with pytest.raises(UnsupportedInputError, match="^jobs = 2 must be at most 1$"):
            checks.run_all("tiny", jobs=2)
        assert threading.active_count() == before
