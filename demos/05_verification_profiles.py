"""
Named checks, reports, and verification profiles
================================================

Every identity the engines certify is also exposed as a named check:
a registry entry that dispatches to one engine operation, returns a
structured report with a plain-English statement, and serializes to
JSON.  Profiles run whole parameter grids serially with a
deterministic merge order.
"""

import json

from monofour import checks

# The registry: 24 named checks, each mapping to one engine operation.
print(f"{len(checks.CHECK_IDS)} registered checks")
for cid in checks.CHECK_IDS[:6]:
    print(f"  {cid:22s} -> {checks.CHECKS[cid].engine}")
print("  ...")

# Running a check gives a report with verdict, witness, and timing.
# Exit codes: pass -> 0, fail -> 1, diagnostic -> 2.
report = checks.run_check("keythm", {"q": 5, "d": 1})
print("\nkeythm(q=5, d=1):", report.verdict, "exit", report.exit_code)
print("statement:", report.statement)

# Diagnostics are first class: comparisons whose expected constant is
# convention-dependent report the measured scalar without asserting.
diag = checks.run_check("propB3-diagnostic", {"q": 5, "n": 1})
print("\npropB3-diagnostic:", diag.verdict, "exit", diag.exit_code)
print("measured scalar:", diag.witness["scalar"])

# Reports serialize to JSON with sorted keys; identical inputs yield
# identical output (timings aside), so runs can be diffed.
print("\n" + diag.to_json(pretty=False, include_elapsed=False)[:120] + "...")

# A profile is a fixed grid of (check, parameters) tasks.  The quick
# profile covers every check at the acceptance-grid sizes.
tasks = checks.profile_tasks("quick")
print(f"\nquick profile: {len(tasks)} tasks over {len({c for c, _ in tasks})} checks")

# run_all executes the grid in this thread and merges results in
# registry order; the aggregate verdict fails if any check fails.
result = checks.run_all("quick", seed=1)
print("aggregate:", result["verdict"], json.dumps(result["counts"]))
slowest = max(result["reports"], key=lambda r: r["elapsed"])
print(f"slowest: {slowest['check']} at {slowest['elapsed']:.2f}s")
