"""Workload inputs, one measured pass over them, and the output oracles.

verify-quick        `checks.run_all("quick", seed, jobs=1)`, the profile users run
                    (`monofour verify-all --profile quick --jobs 1`).
number-theory       every `trace.*` and `groupalg.*` row of the `full` profile,
                    run one by one through `checks.run_check`.
operator-roundtrip  seeded random Weyl and shift expressions: parse, print,
                    re-parse, Mellin round trip, and the Fourier map twice.

Every item is checked after the timed region, and a pass goes on past a
failing or raising item.  Each item also yields a digest of its output,
so passes with the same seed can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import time

from exprs import apply_tree, random_expressions, render, shift_action, weyl_action

WORKLOADS = ("verify-quick", "number-theory", "operator-roundtrip")
JOBS = 1
ROUNDTRIP_COUNT = 2000
ROUNDTRIP_DEPTH = 4
ROUNDTRIP_MAX_DEGREE = 6
ACTION_EXPONENTS = (-2, 0, 1, 3)

# Tiny sizes for the smoke tests; never used by a measured run.
TINY_QUICK_CHECKS = ("keythm", "p2b", "fbneq", "propB3-diagnostic", "appendix-tensor")
TINY_ROUNDTRIP = 40


def expected_verdict(check_id: str) -> str:
    """The hand-written oracle for check verdicts."""
    return "diagnostic" if check_id.endswith("-diagnostic") else "pass"


def _digest(payload) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pass:
    """Outcome of one pass: per-item verdicts, digests and latencies."""

    def __init__(self):
        self.ok: list[bool] = []
        self.digests: list[str] = []
        self.latencies_s: list[float] = []
        self.errors: list[str] = []
        self.run_all_overhead_s = 0.0

    def record(self, ok: bool, digest: str, problem: str | None = None) -> None:
        self.ok.append(ok)
        self.digests.append(digest)
        if problem is not None and len(self.errors) < 10:
            self.errors.append(problem)


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, tiny: bool = False):
    from monofour import checks

    if workload == "verify-quick":
        profile = "quick"
        if tiny:
            # A reduced grid registered under its own name, so that the
            # same run_all code path runs; the program is a fresh process.
            rows = [t for t in checks.profile_tasks("quick") if t[0] in TINY_QUICK_CHECKS]
            picked = {}
            for check_id, params in rows:
                picked.setdefault(check_id, (check_id, params))
            profile = "perfbench-tiny"
            checks.PROFILES[profile] = lambda: list(picked.values())
        return {"profile": profile, "seed": seed, "size": len(checks.profile_tasks(profile))}
    if workload == "number-theory":
        items = []
        for check_id, params in checks.profile_tasks("full"):
            spec = checks.CHECKS[check_id]
            if spec.engine.split(".")[0] not in ("trace", "groupalg"):
                continue
            params = dict(params)
            if spec.seeded:
                params["seed"] = seed
            items.append((check_id, params))
        if tiny:
            small = {}
            for check_id, params in items:
                if params.get("q", 0) <= 3 and params.get("n", 1) <= 2:
                    small.setdefault(check_id, (check_id, params))
            items = list(small.values())
        return items
    if workload == "operator-roundtrip":
        count = TINY_ROUNDTRIP if tiny else ROUNDTRIP_COUNT
        return [(algebra, tree, render(tree)) for algebra, tree in
                random_expressions(seed, count, ROUNDTRIP_DEPTH, ROUNDTRIP_MAX_DEGREE)]
    raise ValueError(f"unknown workload {workload!r}")


def input_count(workload: str, inputs) -> int:
    return inputs["size"] if workload == "verify-quick" else len(inputs)


# ---------------------------------------------------------------------------
# One pass.  `TIMED[workload](inputs, between_items)` returns a function of
# no arguments that runs the pass and returns what the oracle needs; only
# that call is measured.  It calls `between_items()` after every item,
# where the measurement may take a speed reading.
# ---------------------------------------------------------------------------


def timed_verify_quick(inputs, between_items):
    from monofour import checks

    run_check = checks.run_check

    def run_check_then_mark(*args, **kwargs):
        try:
            return run_check(*args, **kwargs)
        finally:
            between_items()

    def run():
        # run_all looks run_check up in its module on every call.
        checks.run_check = run_check_then_mark
        try:
            return checks.run_all(inputs["profile"], seed=inputs["seed"], jobs=JOBS)
        finally:
            checks.run_check = run_check

    return run


def check_verify_quick(inputs, result, wall_s: float, expected) -> Pass:
    out = Pass()
    if isinstance(result, BaseException):
        for _ in range(inputs["size"]):
            out.record(False, "raised", f"run_all raised {type(result).__name__}: {result}")
        return out
    reports = result["reports"]
    elapsed = 0.0
    for rep in reports:
        elapsed += rep["elapsed"]
        out.latencies_s.append(rep["elapsed"])
        payload = {k: v for k, v in rep.items() if k != "elapsed"}
        want = expected(rep["check"])
        problem = None
        if rep["verdict"] != want:
            problem = f"{rep['check']} {rep['parameters']}: {rep['verdict']} != {want}"
        out.record(problem is None, _digest(payload), problem)
    for _ in range(inputs["size"] - len(reports)):
        out.record(False, "missing", "run_all returned fewer reports than grid points")
    out.run_all_overhead_s = wall_s - elapsed
    return out


def timed_number_theory(inputs, between_items):
    from monofour import checks

    def run():
        results = []
        for check_id, params in inputs:
            t0 = time.perf_counter()
            try:
                rep = checks.run_check(check_id, params)
                outcome = (rep.verdict, rep.to_dict(include_elapsed=False))
            except Exception as exc:  # a raising check is a failed item, not a dead pass
                outcome = exc
            results.append((outcome, time.perf_counter() - t0))
            between_items()
        return results

    return run


def check_number_theory(inputs, results, wall_s: float, expected) -> Pass:
    out = Pass()
    for (check_id, params), (outcome, latency) in zip(inputs, results):
        out.latencies_s.append(latency)
        if isinstance(outcome, Exception):
            out.record(False, "raised", f"{check_id} {params}: {type(outcome).__name__}: {outcome}")
            continue
        verdict, payload = outcome
        want = expected(check_id)
        problem = None if verdict == want else f"{check_id} {params}: {verdict} != {want}"
        out.record(problem is None, _digest(payload), problem)
    return out


def timed_operator_roundtrip(inputs, between_items):
    from monofour import ore, parser

    def one(algebra, text):
        op = parser.parse_operator(text, algebra)
        printed = str(op)
        again = parser.parse_operator(printed, algebra)
        if algebra == "weyl":
            image = ore.mellin_op(op)
            back = ore.inverse_mellin_op(image)
            twice = ore.fourier_auto(ore.fourier_auto(op))
        else:
            back = ore.inverse_mellin_op(op)
            image = ore.mellin_op(back)
            twice = None
        return op, printed, again, image, back, twice

    def run():
        results = []
        perf = time.perf_counter
        for algebra, _tree, text in inputs:
            t0 = perf()
            try:
                outcome = one(algebra, text)
            except Exception as exc:  # a raising item is a failed item, not a dead pass
                outcome = exc
            results.append((outcome, perf() - t0))
            between_items()
        return results

    return run


def _roundtrip_problem(algebra, tree, outcome) -> str | None:
    from monofour import ore

    op, printed, again, image, back, twice = outcome
    if again != op or str(again) != printed:
        return "parse(print(op)) != op"
    if algebra == "weyl":
        if back != ore.to_laurent(op):
            return "inverse_mellin_op(mellin_op(w)) != w"
        if twice != ore.antipode(op):
            return "fourier_auto^2 != antipode"
        actions = (weyl_action(op.terms, k) for k in ACTION_EXPONENTS)
        images = (shift_action(image.terms, k) for k in ACTION_EXPONENTS)
    else:
        if image != op:
            return "mellin_op(inverse_mellin_op(t)) != t"
        actions = (shift_action(op.terms, k) for k in ACTION_EXPONENTS)
        images = (weyl_action(back.terms, k) for k in ACTION_EXPONENTS)
    for k, got, got_image in zip(ACTION_EXPONENTS, actions, images):
        want = apply_tree(tree, {k: 1})
        if got != want:
            return f"normal form acts wrongly on x^{k}"
        if got_image != want:
            return f"Mellin image acts wrongly on x^{k}"
    return None


def check_operator_roundtrip(inputs, results, wall_s: float, expected) -> Pass:
    out = Pass()
    for (algebra, tree, text), (outcome, latency) in zip(inputs, results):
        out.latencies_s.append(latency)
        if isinstance(outcome, Exception):
            out.record(False, "raised", f"{algebra} {text!r}: {type(outcome).__name__}: {outcome}")
            continue
        problem = _roundtrip_problem(algebra, tree, outcome)
        _op, printed, _again, image, back, twice = outcome
        digest = _digest(f"{printed}|{image}|{back}|{twice}")
        out.record(problem is None, digest, None if problem is None else f"{algebra} {text!r}: {problem}")
    return out


TIMED = {
    "verify-quick": timed_verify_quick,
    "number-theory": timed_number_theory,
    "operator-roundtrip": timed_operator_roundtrip,
}
CHECK = {
    "verify-quick": check_verify_quick,
    "number-theory": check_number_theory,
    "operator-roundtrip": check_operator_roundtrip,
}
