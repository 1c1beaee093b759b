"""The monofour benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured pass runs in a fresh
interpreter (perfbench/worker.py), one after another: a closed loop
with one client, one process and one thread.  With --trace 0 the last
line of output reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it reports the per-layer metrics from passes traced from
outside, alternating with untraced passes that give the tracing
overhead.  The line before it is a JSON record of how the run was made
and what it saw (cores, Python, commit, seed, per-pass figures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

MIN_PASSES = 2  # two passes with one seed are compared byte for byte
SETUP_SAMPLES = 5  # set-up-only processes, on top of one per pass
RUN_LIMIT_S = 170  # a run must finish within 180 s

# Layer metrics: (tracer name, fields).  Units follow from the field.
LAYER_FIELDS = [
    ("scalars.poly.mul", ("calls", "self_s")),
    ("scalars.poly.divmod", ("calls", "self_s")),
    ("scalars.poly.add", ("calls", "self_s")),
    ("scalars.poly.sub", ("calls", "self_s")),
    ("scalars.poly.init", ("calls",)),
    ("scalars.poly.gcd", ("calls", "self_s")),
    ("scalars.poly.lcm", ("calls", "self_s")),
    ("scalars.snf.poly_smith", ("calls", "self_s")),
    ("scalars.snf.int_smith", ("calls", "self_s")),
    ("scalars.snf.rational_rank", ("calls", "self_s")),
    ("scalars.ratfun.partial_fractions", ("calls", "incl_s")),
    ("scalars.cyclotomic.mul", ("calls", "self_s")),
    ("mellin.lattice_init", ("calls", "incl_s")),
    ("mellin.as_lattice", ("calls",)),
    ("mellin.monodromic_test", ("calls", "incl_s")),
    ("mellin.torsion_by_point_ranks", ("calls", "incl_s")),
    ("mellin.tensor_equivariant", ("calls", "incl_s")),
    ("mellin.orbit_decomposition_check", ("calls", "incl_s")),
    ("trace.four_B", ("calls", "self_s")),
    ("trace.conv_Gm", ("calls", "self_s")),
    ("trace.kernel_pair_sum", ("calls", "self_s")),
    ("trace.gauss_sum", ("calls", "self_s")),
    ("groupalg.subgroup_order", ("calls", "incl_s")),
    ("groupalg.solve_mod_kernel", ("calls", "incl_s")),
    ("groupalg.ga_mul", ("calls", "incl_s")),
    ("ore.weyl_mul", ("calls", "self_s")),
    ("ore.shift_mul", ("calls", "self_s")),
    ("ore.mellin_op", ("incl_s",)),
    ("ore.inverse_mellin_op", ("incl_s",)),
    ("ore.fourier_auto", ("incl_s",)),
    ("parser.parse_operator", ("calls", "self_s")),
    ("reports.to_dict", ("incl_s",)),
]
_FIELD_INDEX = {"calls": 0, "incl_s": 1, "self_s": 2}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def worker(self, *extra) -> dict:
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
               "--seed", str(self.args.seed), *extra]
        if self.args.tiny:
            cmd.append("--tiny")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run time limit reached")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer values: median over traced passes of each raw figure."""
    values: dict[str, list[float]] = {}

    def put(name, value):
        values.setdefault(name, []).append(value)

    for p in traced:
        layers = p["layers"]
        stats, observed = layers["stats"], layers["observed"]

        def get(name, field):
            rec = stats.get(name)
            return rec[_FIELD_INDEX[field]] if rec else 0

        for name, fields in LAYER_FIELDS:
            for field in fields:
                put(f"{name}.{field}", get(name, field))
        gcds = get("scalars.poly.gcd", "calls")
        put("scalars.poly.gcd.trivial_frac", observed.get("scalars.poly.gcd.trivial", 0) / gcds if gcds else 0)
        put("scalars.snf.poly_smith.max_cells", observed.get("scalars.snf.poly_smith.max_cells", 0))
        tensors = get("mellin.tensor_equivariant", "calls")
        put("mellin.as_lattice_per_tensor", get("mellin.as_lattice", "calls") / tensors if tensors else 0)
        parse_s = get("parser.parse_operator", "incl_s")
        put("parser.chars_per_s", observed.get("parser.chars", 0) / parse_s if parse_s else 0)
        from_checks = layers["per_check_s"]
        for check_id in _check_ids():
            put(f"checks.run_check.{check_id}.s", from_checks.get(check_id, 0.0))
    out = {name: _median(vs) for name, vs in values.items()}
    out["checks.run_all.overhead_s"] = _median([p["run_all_overhead_s"] for p in untraced])
    out["tracing.overhead_ratio"] = (
        _median([p["scaled_wall_s"] for p in traced])
        / _median([p["scaled_wall_s"] for p in untraced])
    )
    return out


def tally(passes: list[dict]) -> tuple[int, int, int, str]:
    """Items attempted and failed over all passes, and the run's digest.

    An item fails when its oracle fails, or when its output digest
    differs from the first pass's: passes with one seed, traced or not,
    must agree byte for byte.
    """
    reference = passes[0]["digests"]
    attempted = failed = mismatched = 0
    for p in passes:
        attempted += len(p["ok"])
        for ok, digest, ref in zip(p["ok"], p["digests"], reference):
            mismatched += digest != ref
            failed += not ok or digest != ref
        extra = abs(len(p["digests"]) - len(reference))
        mismatched += extra
        failed += extra
    return attempted, failed, mismatched, hashlib.sha256("".join(reference).encode()).hexdigest()


def _check_ids():
    sys.path.insert(0, str(ROOT / "src"))
    from monofour.checks import CHECK_IDS

    return CHECK_IDS


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "monofour").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"monofour_commit": commit, "monofour_source_sha256": digest.hexdigest()}


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "monofour" / "__init__.py").is_file():
        return _fail("no monofour sources under src/monofour; run from the root of a checkout")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    runner = Runner(args)

    runner.worker("--setup-only")  # writes bytecode caches; not measured
    setups = [runner.worker("--setup-only") for _ in range(SETUP_SAMPLES)]

    traced, untraced, durations = [], [], []
    t_start = time.monotonic()
    while True:
        want_traced = bool(args.trace) and len(traced) < len(untraced)
        extra = ["--traced"] if want_traced else []
        if want_traced:
            spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
            extra += ["--spans", str(spans)]
        t0 = time.monotonic()
        result = runner.worker(*extra)
        durations.append(time.monotonic() - t0)
        (traced if want_traced else untraced).append(result)
        setups.append(result)
        if args.trace and len(traced) < len(untraced):
            continue  # traced runs go in untraced/traced pairs
        step = sum(durations[-2:]) if args.trace else durations[-1]
        if len(durations) >= MIN_PASSES and time.monotonic() - t_start + step > args.seconds:
            break

    attempted, failed, mismatched, run_digest = tally(untraced + traced)
    errors = [e for p in untraced + traced for e in p["errors"]]

    latencies_ms = [s * 1000 for p in untraced for s in p["latencies_s"]]
    end_to_end = {
        "wall_s": _median([p["scaled_wall_s"] for p in untraced]),
        "cpu_s": _median([p["scaled_cpu_s"] for p in untraced]),
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in untraced]),
        "setup_s": _median([p["scaled_setup_s"] for p in setups]),
    }
    section, values = ("per_layer", layer_metrics(traced, untraced)) if args.trace else (
        "end_to_end", end_to_end)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jobs": workloads.JOBS,
        "run_seconds": args.seconds,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        **_source_identity(),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "unscaled_wall_s": _median([p["wall_s"] for p in untraced]),
        "unscaled_cpu_s": _median([p["cpu_s"] for p in untraced]),
        "unscaled_setup_s": _median([p["setup_s"] for p in setups]),
        "speed_cuts": [p["cuts"] for p in untraced],
        "setup_samples": len(setups),
        "item_p50_ms": _percentile(latencies_ms, 50),
        "item_p99_ms": _percentile(latencies_ms, 99),
        "item_latency_samples": len(latencies_ms),
        "fail_frac": failed / attempted if attempted else 1.0,
        "fail_base": attempted,
        "digest_mismatches": mismatched,
        "verdict_digest": run_digest,
        "errors": errors[:10],
    }
    if args.trace:
        record["spans_recorded"] = [p["layers"]["spans"] for p in traced]
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="monofour benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke tests")
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, FileNotFoundError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
