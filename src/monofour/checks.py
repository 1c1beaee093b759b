"""Named verification checks: registry, dispatch, and profile runner.

Each check id maps to exactly one operation in one engine module; the
registry records that mapping together with a one-line statement of
the property under test.  `run_check` produces a CheckReport and
`run_all` executes a profile's whole parameter grid serially in the
calling thread, merging reports in a fixed order so output is
deterministic apart from wall times.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import groupalg, mellin, ore, trace
from .ore import CyclicPresentation, ShiftOp, WeylOp, antipode, fourier_auto
from .reports import VERDICTS, CheckReport, verdict_label
from .scalars import Poly, RatFun, UnsupportedInputError, frac


def _orbit_pole_lattice(chi: Fraction, n: int, N: int) -> mellin.WindowedLattice:
    """Lattice generated by the order-n poles along the orbit chi + Z."""
    gens, labels = [], []
    for i in range(-N, N + 1):
        lin = Poly((-(chi + i), Fraction(1)))
        den = Poly.const(1)
        for _ in range(n):
            den = den * lin
        gens.append(RatFun(Poly.const(1), den))
        labels.append(f"1/(s-({chi + i}))^{n}")
    return mellin.WindowedLattice(chi, N, gens, labels)


def _chi_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(str(value))


# ---------------------------------------------------------------------------
# Runners for checks that convert parameters or combine engine calls.  Each
# returns (verdict_value, witness) where verdict_value is a bool or the
# string "diagnostic".  A check without a runner calls its engine with the
# merged parameters, and the engine's report is its witness.
# ---------------------------------------------------------------------------


def _run_lem_mon_shadow(p):
    chi_index = int(_chi_fraction(p["chi"]))
    rep = trace.check_lem_mon_shadow(p["q"], p["n"], chi_index)
    return rep["verdict"], rep


def _run_mellin_b_embed(p):
    N = p["window"]
    module = mellin.kernel_module()
    image = RatFun(Poly.const(1), Poly((Fraction(1), Fraction(1))))
    lattice = mellin.embed_in_Ks(module, image, N)
    accepted = len(lattice.generators) == 2 * N + 1
    try:
        mellin.embed_in_Ks(module, RatFun(Poly.const(1), Poly.const(1)), N)
        rejection = None
    except mellin.NotAMorphismError as exc:
        rejection = str(exc)
    witness = {
        "window": N,
        "accepted_image": "1/(1 + s)",
        "lattice_generators": len(lattice.generators),
        "rejected_image": "1",
        "rejection": rejection,
    }
    return accepted and rejection is not None, witness


def _run_propDmod1(p):
    chi = _chi_fraction(p["chi"])
    lattice = _orbit_pole_lattice(chi, p["n"], p["window"])
    vanishes, images = mellin.hom_to_free_vanishes(lattice, p["degree_bound"])
    witness = {
        "chi": chi,
        "n": p["n"],
        "window": p["window"],
        "degree_bound": p["degree_bound"],
        "nonzero_map": None if vanishes else [str(h) for h in images],
    }
    return vanishes, witness


def _run_propDmod2(p):
    chi = _chi_fraction(p["chi"])
    lattice = _orbit_pole_lattice(chi, p["n"], p["window"])
    points = [chi + Fraction(2, 5), chi - Fraction(7, 5), chi + Fraction(1, 7)]
    ok = mellin.localization_identity_check(lattice, points)
    witness = {
        "chi": chi,
        "n": p["n"],
        "window": p["window"],
        "test_points": [str(a) for a in points],
    }
    return ok, witness


def _run_propDmod3(p):
    chi = _chi_fraction(p["chi"])
    reports = {
        kind: mellin.skyscraper_freeness_check(kind, chi, p["n"], p["window"])
        for kind in ("kernel", "exp")
    }
    verdict = all(rep["verdict"] for rep in reports.values())
    witness = {
        kind: {
            "verdict": rep["verdict"],
            "generators": sorted(
                {row["generator"] for row in rep["fibers"]}
            ),
            "ladder_law": rep["ladder_law"],
        }
        for kind, rep in reports.items()
    }
    witness["chi"] = chi
    witness["n"] = p["n"]
    witness["window"] = p["window"]
    return verdict, witness


def _run_dmodmon(p):
    chi = _chi_fraction(p["chi"])
    rep = mellin.monodromization_check(chi, p["n"], p["window"])
    witness = {
        "chi": chi,
        "n": p["n"],
        "window": p["window"],
        "kernel_factor": rep["kernel"]["verdict"],
        "exp_factor": rep["exp"]["verdict"],
        "free_control": rep["control_free"]["verdict"],
    }
    return rep["verdict"], witness


def _run_exp_square(p):
    main = mellin.exp_square_check(p["window"], variant=p["variant"])
    control = mellin.exp_square_check(p["window"], variant=p["variant"], control=True)
    verdict = main["verdict"] is True and control["verdict"] is False
    witness = {
        "window": p["window"],
        "variant": p["variant"],
        "witness_powers": main.get("witness"),
        "relation_witnesses": main.get("relation_witnesses"),
        "fiber_ranks_all_one": main.get("fiber_ranks_all_one"),
        "control_verdict": control["verdict"],
    }
    return verdict, witness


def _require_count(p) -> None:
    """A sample of fewer than one case would pass or fail vacuously."""
    if p["count"] < 1:
        raise UnsupportedInputError(f"count must be at least 1, got {p['count']}")


def _run_mon_test(p):
    _require_count(p)
    rng = random.Random(p["seed"])
    agreements = 0
    cases = []
    for _ in range(p["count"]):
        levels = rng.sample((-1, 0, 1), rng.randint(1, 3))
        terms = {}
        for j in levels:
            coeffs = tuple(
                Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))
            )
            if any(coeffs):
                terms[j] = Poly(coeffs)
        rel = ShiftOp(terms)
        pres = CyclicPresentation("shift", () if not rel.terms else (rel,))
        em = mellin.windowed_equivariant(pres, p["window"])
        got = mellin.monodromic_test(em)
        oracle = mellin.torsion_by_point_ranks(em)
        cases.append({"relation": str(rel), "torsion": got, "oracle": oracle})
        if got == oracle:
            agreements += 1
    witness = {
        "count": p["count"],
        "agreements": agreements,
        "window": p["window"],
        "sample": cases[:5],
    }
    return agreements == p["count"], witness


def _run_eq3_decomp(p):
    chi = _chi_fraction(p["chi"])
    rep = mellin.orbit_decomposition_check(chi, p["n"], p["window"])
    return rep["verdict"], rep


def _run_fourier_antipode(p):
    _require_count(p)
    rng = random.Random(p["seed"])
    failures = 0
    for _ in range(p["count"]):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            alpha = (rng.randint(0, 2),)
            beta = (rng.randint(0, 2),)
            terms[(alpha, beta)] = frac(rng.randint(-3, 3))
        w = WeylOp(1, terms)
        if fourier_auto(fourier_auto(w)) != antipode(w):
            failures += 1
    witness = {"count": p["count"], "failures": failures}
    return failures == 0, witness


def _run_fb_fl_agree(p):
    chi = _chi_fraction(p["chi"])
    module = mellin.euler_eigen_module(chi)
    transformed = mellin.fourier_B_monodromic(module, N=p["window"])
    try:
        mellin.fourier_B_monodromic(mellin.point_module(1), N=p["window"])
        control = None
    except mellin.NotMonodromicError as exc:
        control = exc.diagnostic
    witness = {
        "chi": chi,
        "window": p["window"],
        "input_relations": [str(r) for r in module.relations],
        "transformed_relations": [str(r) for r in transformed.relations],
        "control_refused": control is not None,
        "control_diagnostic": control,
    }
    return control is not None, witness


def _run_appendix_nzd(p):
    main = groupalg.pro_nzd_check(p["ell"], p["r"], p["n"])
    control_applicable = p["ell"] ** p["r"] > 2
    control = (
        groupalg.pro_nzd_check(p["ell"], p["r"], p["n"], m=2 * p["n"])
        if control_applicable
        else None
    )
    verdict = main["verdict"] and (control is None or control["verdict"] is False)
    witness = {
        "main": main,
        "control_applicable": control_applicable,
        "control": control,
    }
    return verdict, witness


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    engine: str  # "module.operation" this check dispatches to
    statement: str
    defaults: dict
    runner: object = None
    seeded: bool = False


_SPECS = [
    CheckSpec(
        "keythm",
        "trace.check_keythm",
        "Applying the kernel transform twice equals -q^d times "
        "multiplicative convolution with the unit-restricted kernel.",
        {"q": 3, "d": 1, "seed": 0},
        seeded=True,
    ),
    CheckSpec(
        "cv-equivalence",
        "trace.check_CV",
        "On functions whose scaling-orbit sums vanish, the kernel "
        "transform squares to q^(d+1) and preserves the subspace.",
        {"q": 3, "d": 1},
    ),
    CheckSpec(
        "p2b",
        "trace.check_P2B",
        "The inverted-argument additive character sum reproduces the "
        "negative of the kernel function exactly in cyclotomic integers.",
        {"q": 3},
    ),
    CheckSpec(
        "bl2",
        "trace.check_BL2",
        "The kernel transform factors as a multiplicative convolution "
        "applied after the additive-character transform.",
        {"q": 3, "d": 1, "seed": 0},
        seeded=True,
    ),
    CheckSpec(
        "fbneq",
        "trace.check_fbneq",
        "The kernel transform sends the delta at 0 to the constant -1 and "
        "the delta at 1 to the negated kernel, separating it from the "
        "additive-character transform.",
        {"q": 3},
    ),
    CheckSpec(
        "gauss-suite",
        "trace.gauss_suite",
        "Power-count kernels match character sums and opposite Gauss sums "
        "multiply to q times the sign of the character at -1.",
        {"q": 5, "n": 4},
    ),
    CheckSpec(
        "gauss-g-diagnostic",
        "trace.gauss_g_diagnostic",
        "Measures the self-convolution of the transformed power-count "
        "kernel against scalar multiples of the kernel itself, reporting "
        "the observed scalar without asserting one.",
        {"q": 5, "n": 1},
    ),
    CheckSpec(
        "propB3-diagnostic",
        "trace.diag_propB3",
        "Measures convolution of the power-count kernel with the "
        "unit-restricted kernel against the bookkeeping scalar q, "
        "reporting the observed proportionality without asserting it.",
        {"q": 3, "n": 1},
    ),
    CheckSpec(
        "mon-equivalence",
        "trace.check_mon_equivalence",
        "The kernel transform preserves the span of scaling "
        "eigenfunctions and is invertible on it over the cyclotomic field.",
        {"q": 3, "d": 1, "n": 2},
    ),
    CheckSpec(
        "lem-mon-shadow",
        "trace.check_lem_mon_shadow",
        "Convolution with the power-count kernel scales a character "
        "eigenfunction by q-1 inside its eigenspace and kills it outside.",
        {"q": 7, "n": 3, "chi": 2},
        runner=_run_lem_mon_shadow,
    ),
    CheckSpec(
        "mellin-b-embed",
        "mellin.embed_in_Ks",
        "The kernel module embeds into rational functions with generator "
        "image 1/(s+1), and the constant image 1 is refused.",
        {"window": 8},
        runner=_run_mellin_b_embed,
    ),
    CheckSpec(
        "propDmod1",
        "mellin.hom_to_free_vanishes",
        "Every polynomial-valued linear map out of the orbit pole lattice "
        "vanishes under the degree cap.",
        {"chi": "0", "n": 1, "window": 8, "degree_bound": 5},
        runner=_run_propDmod1,
    ),
    CheckSpec(
        "propDmod2",
        "mellin.localization_identity_check",
        "Away from its orbit the pole lattice is the unit lattice: fibers "
        "at off-orbit points are free of rank one generated by 1.",
        {"chi": "0", "n": 1, "window": 8},
        runner=_run_propDmod2,
    ),
    CheckSpec(
        "propDmod3",
        "mellin.skyscraper_freeness_check",
        "Order-n skyscraper fibers of the kernel and exponential modules "
        "are free of rank one with the expected named generators.",
        {"chi": "0", "n": 1, "window": 8},
        runner=_run_propDmod3,
    ),
    CheckSpec(
        "dmodmon",
        "mellin.monodromization_check",
        "Tensoring a skyscraper tower with the kernel or exponential "
        "module reproduces the tower, matching the free-module control.",
        {"chi": "0", "n": 1, "window": 8},
        runner=_run_dmodmon,
    ),
    CheckSpec(
        "exp-square",
        "mellin.exp_square_check",
        "The inverted exponential module tensored with the exponential "
        "module admits a generator satisfying the kernel relation; the "
        "plain product control finds none.",
        {"window": 6, "variant": "affine"},
        runner=_run_exp_square,
    ),
    CheckSpec(
        "mon-test",
        "mellin.monodromic_test",
        "Torsion detection on windowed equivariant modules agrees with a "
        "direct evaluation-rank oracle on random presentations.",
        {"count": 20, "window": 3, "seed": 20260823},
        runner=_run_mon_test,
        seeded=True,
    ),
    CheckSpec(
        "eq3-decomp",
        "mellin.orbit_decomposition_check",
        "Partial fractions decompose the windowed orbit algebra into "
        "skyscraper summands with exact round-trip of coefficients.",
        {"chi": "0", "n": 2, "window": 5},
        runner=_run_eq3_decomp,
    ),
    CheckSpec(
        "fourier-antipode",
        "ore.fourier_auto",
        "The transform substitution applied twice equals the antipode "
        "substitution on random differential operators.",
        {"count": 1000, "seed": 20260823},
        runner=_run_fourier_antipode,
        seeded=True,
    ),
    CheckSpec(
        "fb-fl-agree",
        "mellin.fourier_B_monodromic",
        "The kernel-based transform of an eigen-presentation agrees with "
        "the substitution transform, and non-torsion inputs are refused "
        "with a diagnostic.",
        {"chi": "1/2", "window": 6},
        runner=_run_fb_fl_agree,
    ),
    CheckSpec(
        "appendix-augmentation",
        "groupalg.augmentation_kernel_check",
        "The coefficient-sum kernel of the cyclic group algebra is the "
        "ideal generated by t-1, with explicit cofactors.",
        {"ell": 2, "r": 2, "n": 3},
    ),
    CheckSpec(
        "appendix-nzd",
        "groupalg.pro_nzd_check",
        "The annihilator of t-1 at a sufficiently deep level dies under "
        "transition, while the shallow-level control leaves a nonzero "
        "image.",
        {"ell": 2, "r": 2, "n": 3},
        runner=_run_appendix_nzd,
    ),
    CheckSpec(
        "appendix-units",
        "groupalg.unit_surjectivity_check",
        "Transition maps between cyclic group algebras are surjective on "
        "unit groups.",
        {"ell": 2, "r": 1, "n": 1, "nprime": 3},
    ),
    CheckSpec(
        "appendix-tensor",
        "groupalg.twisted_tensor_check",
        "Twist indices of formal rank-one modules add under tensor, "
        "associatively and compatibly with transitions.",
        {},
    ),
]

CHECKS = {spec.check_id: spec for spec in _SPECS}
_ENGINE_MODULES = {"trace": trace, "mellin": mellin, "groupalg": groupalg, "ore": ore}
CHECK_IDS = tuple(spec.check_id for spec in _SPECS)


def _merged_params(check_id: str, params: dict | None) -> tuple[CheckSpec, dict]:
    """The check's spec and its defaults overridden by the given
    parameters; unknown check ids and parameters raise ValueError."""
    if check_id not in CHECKS:
        raise ValueError(f"unknown check {check_id!r}")
    spec = CHECKS[check_id]
    merged = dict(spec.defaults)
    for key, value in (params or {}).items():
        if value is None:
            continue
        if key not in spec.defaults:
            raise ValueError(f"check {check_id!r} takes no parameter {key!r}")
        merged[key] = value
    return spec, merged


def run_check(check_id: str, params: dict | None = None) -> CheckReport:
    """Execute one named check and wrap the outcome in a CheckReport."""
    spec, merged = _merged_params(check_id, params)
    start = time.perf_counter()
    if spec.runner is None:
        # looked up per call, so that a rebound engine attribute is used
        module_name, fn_name = spec.engine.split(".")
        witness = getattr(_ENGINE_MODULES[module_name], fn_name)(**merged)
        verdict_value = witness["verdict"]
    else:
        verdict_value, witness = spec.runner(merged)
    elapsed = time.perf_counter() - start
    return CheckReport(
        check=check_id,
        parameters=merged,
        verdict=verdict_label(verdict_value),
        witness=witness,
        statement=spec.statement,
        elapsed=elapsed,
    )


# ---------------------------------------------------------------------------
# Profiles.
# ---------------------------------------------------------------------------


def _grid(check_id: str, rows: list[dict]) -> list[tuple[str, dict]]:
    return [(check_id, row) for row in rows]


def _quick_profile() -> list[tuple[str, dict]]:
    tasks = []
    tasks += _grid(
        "keythm",
        [{"q": q, "d": d} for q, d in [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2)]],
    )
    tasks += _grid(
        "cv-equivalence",
        [{"q": q, "d": d} for q, d in [(3, 1), (3, 2), (5, 1), (5, 2)]],
    )
    tasks += _grid("p2b", [{"q": q} for q in (3, 5, 7)])
    tasks += _grid("bl2", [{"q": q, "d": d} for q, d in [(3, 1), (5, 1), (7, 1), (3, 2)]])
    tasks += _grid("fbneq", [{"q": q} for q in (2, 3, 5, 7)])
    tasks += _grid(
        "gauss-suite", [{"q": q, "n": n} for q, n in [(5, 4), (7, 2), (7, 3), (7, 6)]]
    )
    tasks += _grid(
        "gauss-g-diagnostic",
        [{"q": q, "n": n} for q, n in [(3, 1), (3, 2), (5, 1), (5, 2)]],
    )
    tasks += _grid(
        "propB3-diagnostic",
        [{"q": q, "n": n} for q, n in [(3, 1), (3, 2), (5, 1), (5, 2)]],
    )
    tasks += _grid(
        "mon-equivalence",
        [{"q": q, "d": d, "n": n} for q, d, n in [(3, 1, 2), (5, 1, 4), (3, 2, 2)]],
    )
    tasks += _grid(
        "lem-mon-shadow",
        [{"q": q, "n": n, "chi": c} for q, n, c in [(7, 3, 2), (7, 3, 1), (5, 4, 1)]],
    )
    tasks += _grid("mellin-b-embed", [{"window": 8}])
    dmod_grid = [
        {"chi": chi, "n": n, "window": 8}
        for chi in ("0", "1/2", "1/3")
        for n in (1, 2, 3)
    ]
    tasks += _grid("propDmod1", [dict(row, degree_bound=5) for row in dmod_grid])
    tasks += _grid("propDmod2", dmod_grid)
    tasks += _grid("propDmod3", dmod_grid)
    tasks += _grid("dmodmon", dmod_grid)
    tasks += _grid("exp-square", [{"window": 6}])
    tasks += _grid("mon-test", [{"count": 20}])
    tasks += _grid(
        "eq3-decomp",
        [{"chi": "0", "n": 2, "window": 5}, {"chi": "1/2", "n": 3, "window": 4}],
    )
    tasks += _grid("fourier-antipode", [{"count": 1000}])
    tasks += _grid("fb-fl-agree", [{"chi": "1/2"}])
    appendix_grid = [
        {"ell": ell, "r": r, "n": n}
        for ell in (2, 3)
        for r in (1, 2)
        for n in range(1, 7)
    ]
    tasks += _grid("appendix-augmentation", appendix_grid)
    tasks += _grid("appendix-nzd", appendix_grid)
    tasks += _grid(
        "appendix-units",
        [
            {"ell": ell, "r": r, "n": n, "nprime": nprime}
            for ell, r, n, nprime in [
                (2, 1, 1, 3),
                (2, 2, 1, 5),
                (2, 2, 3, 3),
                (3, 1, 2, 4),
                (3, 2, 1, 2),
                (3, 2, 2, 4),
            ]
        ],
    )
    tasks += _grid("appendix-tensor", [{}])
    return tasks


def _full_profile() -> list[tuple[str, dict]]:
    tasks = _quick_profile()
    tasks += _grid("keythm", [{"q": 11, "d": 1}, {"q": 7, "d": 2}, {"q": 11, "d": 2}])
    tasks += _grid("cv-equivalence", [{"q": 7, "d": 1}, {"q": 7, "d": 2}, {"q": 11, "d": 1}])
    tasks += _grid("p2b", [{"q": 11}])
    tasks += _grid("bl2", [{"q": 11, "d": 1}, {"q": 5, "d": 2}])
    tasks += _grid("fbneq", [{"q": 9}, {"q": 11}])
    tasks += _grid(
        "gauss-suite",
        [{"q": q, "n": n} for q, n in [(11, 2), (11, 5), (11, 10), (9, 4), (9, 8)]],
    )
    tasks += _grid("gauss-g-diagnostic", [{"q": 7, "n": 1}, {"q": 7, "n": 3}])
    tasks += _grid("propB3-diagnostic", [{"q": 7, "n": 1}, {"q": 7, "n": 6}])
    tasks += _grid(
        "mon-equivalence",
        [{"q": q, "d": d, "n": n} for q, d, n in [(7, 1, 6), (7, 1, 3), (5, 2, 4), (11, 1, 2)]],
    )
    tasks += _grid(
        "lem-mon-shadow",
        [{"q": q, "n": n, "chi": c} for q, n, c in [(11, 5, 2), (11, 5, 1), (7, 6, 1)]],
    )
    tasks += _grid("mellin-b-embed", [{"window": 12}])
    deep_grid = [
        {"chi": chi, "n": n, "window": w}
        for chi in ("0", "1/2", "1/3")
        for n in (1, 2, 3)
        for w in (10, 12)
    ]
    tasks += _grid("propDmod1", [dict(row, degree_bound=5) for row in deep_grid])
    tasks += _grid("propDmod2", deep_grid)
    tasks += _grid(
        "propDmod3",
        [{"chi": chi, "n": n, "window": 10} for chi in ("0", "1/2") for n in (2, 3)],
    )
    tasks += _grid(
        "dmodmon",
        [{"chi": chi, "n": n, "window": 10} for chi in ("0", "1/2") for n in (1, 3)],
    )
    tasks += _grid("exp-square", [{"window": 8}, {"window": 10}])
    tasks += _grid("mon-test", [{"count": 40, "window": 4}])
    tasks += _grid("eq3-decomp", [{"chi": "1/3", "n": 3, "window": 6}])
    tasks += _grid("fourier-antipode", [{"count": 2000}])
    tasks += _grid("fb-fl-agree", [{"chi": "1/3", "window": 8}])
    tasks += _grid("appendix-units", [{"ell": 2, "r": 2, "n": 3, "nprime": 6}, {"ell": 3, "r": 1, "n": 1, "nprime": 4}])
    return tasks


PROFILES = {"quick": _quick_profile, "full": _full_profile}


def profile_tasks(profile: str) -> list[tuple[str, dict]]:
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    return PROFILES[profile]()


def run_all(profile: str = "quick", seed: int | None = None, jobs: int = 1) -> dict:
    """Run a profile's whole grid in the calling thread; deterministic
    merge order.  The checks are CPU-bound Python, so jobs is 1: any other
    value is refused.

    An unknown check id or parameter raises ValueError before that
    check's engine runs.  A check whose engine raises becomes an `error`
    report whose witness holds the exception's type and message, and the
    run goes on; `monofour verify` on that check shows the traceback.  The
    run's verdict is `error` if any check raised, else `fail` if any failed.
    Each task goes through the module-global `run_check`, looked up per
    call, so a wrapper bound there sees every check of the run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1:
        raise ValueError(f"checks run serially; jobs must be 1, got {jobs}")
    reports = []
    for check_id, params in profile_tasks(profile):
        spec, merged = _merged_params(check_id, params)
        if seed is not None and spec.seeded:
            params = dict(params, seed=seed)
            merged["seed"] = seed
        start = time.perf_counter()
        try:
            reports.append(run_check(check_id, params))
        except Exception as exc:  # one raising check must not abort the profile
            reports.append(
                CheckReport(
                    check=spec.check_id,
                    parameters=merged,
                    verdict="error",
                    witness={"type": type(exc).__name__, "message": str(exc)},
                    statement=spec.statement,
                    elapsed=time.perf_counter() - start,
                )
            )
    order = {check_id: i for i, check_id in enumerate(CHECK_IDS)}
    indexed = sorted(
        range(len(reports)), key=lambda i: (order[reports[i].check], i)
    )
    final = [reports[i] for i in indexed]
    counts = dict.fromkeys(VERDICTS, 0)
    for rep in final:
        counts[rep.verdict] += 1
    return {
        "profile": profile,
        "seed": seed,
        "counts": counts,
        "verdict": "error" if counts["error"] else "fail" if counts["fail"] else "pass",
        "reports": [rep.to_dict() for rep in final],
    }
