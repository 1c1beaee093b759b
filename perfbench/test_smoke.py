"""Smoke tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import exprs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    record = json.loads(record_line)
    for key in ("usable_cores", "python", "python_implementation", "monofour_commit",
                "seed", "workload", "jobs", "verdict_digest", "fail_frac", "fail_base",
                "item_p50_ms", "item_p99_ms", "item_latency_samples"):
        assert key in record
    assert record["fail_frac"] == 0 and record["digest_mismatches"] == 0


@pytest.mark.parametrize("workload", ["verify-quick", "number-theory"])
def test_wrong_expected_verdict_raises_fail_frac(workload):
    def expected(check_id):
        return "fail"

    passes = [worker.run_pass(workload, 3, tiny=True, expected=expected) for _ in range(2)]
    attempted, failed, mismatched, _ = run.tally(passes)
    assert mismatched == 0
    assert failed == attempted > 0


def test_digest_mismatch_counts_as_failure():
    first = worker.run_pass("operator-roundtrip", 3, tiny=True)
    second = dict(first, digests=list(first["digests"]))
    second["digests"][0] = "0" * 16
    attempted, failed, mismatched, _ = run.tally([first, second])
    assert (failed, mismatched) == (1, 1)
    assert attempted == 2 * workloads.TINY_ROUNDTRIP


def test_evaluator_rejects_a_wrong_normal_form():
    from monofour import ore, parser

    tree = ("mul", ("atom", "dx"), ("atom", "x"))  # dx*x = x*dx + 1
    assert exprs.apply_tree(tree, {3: Fraction(1)}) == {3: 4}
    right = parser.parse_operator("dx*x", "weyl")
    wrong = parser.parse_operator("x*dx", "weyl")

    def outcome(op):
        image = ore.mellin_op(op)
        return op, str(op), op, image, ore.inverse_mellin_op(image), ore.fourier_auto(ore.fourier_auto(op))

    assert workloads._roundtrip_problem("weyl", tree, outcome(right)) is None
    assert "acts wrongly" in workloads._roundtrip_problem("weyl", tree, outcome(wrong))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _bench("--workload", "number-theory", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
