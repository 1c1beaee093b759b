"""One measured pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--traced] [--setup-only] [--tiny]

Prints one JSON object.  Set-up time is the cold import of monofour,
monofour.checks and monofour.cli plus generating the inputs, which every
CLI call pays.  The pass is timed after that; CPU time and peak memory
are this process's own (it starts no children).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CALIBRATION_ROUNDS = 60
# Times are reported at a reference machine speed.  On shared boxes the
# speed of one core swings by up to 2x, in spells of seconds to minutes,
# so the pass is cut into segments of at least PROBE_GAP_S at item
# boundaries, the calibration loop is timed at each cut, and a segment
# of t seconds counts as t * CALIBRATION_REF_S / (the mean calibration
# time at its two ends): seconds on a machine where the loop takes
# CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.025
PROBE_GAP_S = 0.5
SETUP_CALIBRATION_REPEAT = 3  # set-up is short; read the speed right after it for longer


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def calibrate(repeat: int = 1) -> float:
    """Seconds for a fixed exact-arithmetic loop that uses no monofour code,
    averaged over `repeat` runs of it.

    Polynomial products over Fraction coefficients, the same kind of work
    the program does, so the loop slows down when the machine does.
    """
    from fractions import Fraction

    a = [Fraction(i + 1, 2 * i + 3) for i in range(10)]
    b = [Fraction(7 - i, i + 2) for i in range(10)]
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS * repeat):
        out = [Fraction(0)] * 19
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        tuple(c for c in out if c)
    return (time.perf_counter() - t0) / repeat


class SpeedProbe:
    """Calibration times at the cuts of a pass, and the pass time they give."""

    def __init__(self):
        self.cuts: list[tuple[float, float, float]] = []  # (start, end, calibration_s)

    def cut(self, repeat: int = 1) -> None:
        start = time.perf_counter()
        calibration_s = calibrate(repeat)
        self.cuts.append((start, time.perf_counter(), calibration_s))

    def between_items(self) -> None:
        if time.perf_counter() - self.cuts[-1][1] >= PROBE_GAP_S:
            self.cut()

    def totals(self) -> tuple[float, float, float]:
        """(pass seconds without the cuts, the same at reference speed, seconds in cuts)."""
        wall = scaled = 0.0
        for (_, left_end, left_cal), (right_start, _, right_cal) in zip(self.cuts, self.cuts[1:]):
            segment = right_start - left_end
            wall += segment
            scaled += segment * CALIBRATION_REF_S * 2 / (left_cal + right_cal)
        in_cuts = sum(end - start for start, end, _ in self.cuts)
        return wall, scaled, in_cuts


def run_pass(workload: str, seed: int, traced: bool = False, setup_only: bool = False,
             tiny: bool = False, expected=None, spans_path: Path | None = None) -> dict:
    t_setup = time.perf_counter()
    import monofour  # noqa: F401
    import monofour.checks  # noqa: F401
    import monofour.cli  # noqa: F401

    import workloads

    inputs = workloads.make_inputs(workload, seed, tiny)
    setup_s = time.perf_counter() - t_setup
    out = {"setup_s": setup_s, "items": workloads.input_count(workload, inputs)}
    if setup_only:
        out["scaled_setup_s"] = setup_s * CALIBRATION_REF_S / calibrate(SETUP_CALIBRATION_REPEAT)
        return out

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    probe = SpeedProbe()
    run = workloads.TIMED[workload](inputs, probe.between_items)
    cpu0 = _cpu_s()
    probe.cut(SETUP_CALIBRATION_REPEAT)  # also reads the speed set-up ran at
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # the oracle counts every item of a dead pass as failed
        result = exc
    probe.cut()
    wall_s, scaled_wall_s, in_cuts = probe.totals()
    cpu_s = _cpu_s() - cpu0 - in_cuts  # the cuts are pure CPU work
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = _layers(tracer, t0, spans_path) if tracer is not None else None

    check = workloads.CHECK[workload]
    outcome = check(inputs, result, wall_s, expected or workloads.expected_verdict)
    out.update(
        scaled_setup_s=setup_s * CALIBRATION_REF_S / probe.cuts[0][2],
        wall_s=wall_s,
        cpu_s=cpu_s,
        scaled_wall_s=scaled_wall_s,
        scaled_cpu_s=cpu_s * scaled_wall_s / wall_s,
        cuts=len(probe.cuts),
        peak_rss_mb=peak_rss_mb,
        ok=outcome.ok,
        digests=outcome.digests,
        latencies_s=outcome.latencies_s,
        errors=outcome.errors,
        run_all_overhead_s=outcome.run_all_overhead_s,
        layers=layers,
    )
    return out


def _layers(tracer, t0: float, spans_path: Path | None) -> dict:
    """Raw per-layer totals, taken before the oracle runs."""
    stats = tracer.stats()
    per_check: dict[str, float] = {}
    span_rows = []
    for name, thread, start, end, parent, root, label in tracer.spans:
        if start is None:
            continue
        if name == "checks.run_check":
            per_check[label] = per_check.get(label, 0.0) + (end - start)
        span_rows.append({"name": name, "thread": thread, "start_s": start - t0,
                          "dur_s": end - start, "parent": parent, "root": root, "label": label})
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(span_rows))
    return {
        "stats": {name: list(rec) for name, rec in stats.items()},
        "observed": dict(tracer.observed),
        "per_check_s": per_check,
        "spans": len(span_rows),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", type=Path, default=None, help="write the traced spans here")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    out = run_pass(args.workload, args.seed, traced=args.traced, setup_only=args.setup_only,
                   tiny=args.tiny, spans_path=args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
