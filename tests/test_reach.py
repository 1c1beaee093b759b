"""Reach: every public function and method of the package is entered
by some entry point.

The test runs the entry points under `sys.setprofile`: `run_all` on
the quick and full profiles, the five demos, the README's fenced Python
blocks, and `cli.main` on the README and CI command lines, a power in
the shift algebra, and one malformed command line.  Entered functions
are keyed by their code object's file and first line, so a method
counts as reached only when that very method runs, not when any
attribute of the same name is read, as a scan of the source by name
would count it.  A public non-dunder function or method of a top-level
class that never runs fails the test, unless `UNENTERED_PUBLIC_ALLOWED`
names it with its reason.
"""

import ast
import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from monofour import checks, cli

from test_imports import MODULES, PACKAGE

REPO = PACKAGE.parent.parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# Public names that no entry point enters, by the reason each one stays.
UNENTERED_PUBLIC_ALLOWED = {
    # Bound by perfbench/tracer.py or workloads.py; goes when a benchmark
    # change re-points the tracer (ROADMAP item 3).
    "scalars/snf.py:poly_smith",  # wrapped as scalars.snf.poly_smith
    "scalars/snf.py:int_smith",  # wrapped as scalars.snf.int_smith
    "scalars/ratfun.py:partial_fractions",  # wrapped as scalars.ratfun.partial_fractions
    "scalars/ratfun.py:rational_roots",  # run only by the wrapped partial_fractions
    "trace.py:kernel_pair_sum",  # wrapped as trace.kernel_pair_sum
    "scalars/poly.py:poly_lcm",  # wrapped as scalars.poly.lcm
    "scalars/poly.py:Poly.coeffs",  # read by perfbench/exprs.py's shift action
    "ore.py:inverse_mellin_op",  # wrapped, and run by operator-roundtrip
    "ore.py:to_laurent",  # operator-roundtrip checks inverse_mellin_op against it
    # Test oracles.
    "mellin.py:WindowedLattice.same_lattice",  # lattice equality in the Mellin tests
    "scalars/poly.py:Poly.eval",  # evaluation at a point in the Poly and ratfun tests
    "scalars/cyclotomic.py:CycScalar.coeffs",  # the Fraction view the cyclotomic oracles read
    # Value protocol: ExactValue.__bool__ reads is_zero.
    "scalars/ratfun.py:RatFun.is_zero",
    # Read by tests/test_acceptance.py.
    "scalars/ffield.py:Fq.sub",  # criterion 07's field axioms
}

# Command lines from the README and CI, a power in the shift algebra,
# and one malformed command line.
COMMANDS = [line.split() for line in (
    "reduce --algebra shift (s*T+1)^2",
    "reduce --algebra shift (s+1)-Ti*s",
    "reduce --algebra weyl dx*(x-1)",
    "reduce --algebra weyl x^²",
    "mellin x*dx --pretty",
    "fourier x^2*dx-3/7*x",
    "fourier --rank 2 x1*dx2-dx1*x1",
    "trace --q 5 --object B --pretty",
    "trace --q 9 --object psi",
    "verify keythm --q 3 --d 1",
    "verify keythm --q 8 --d 2",
    "verify cv-equivalence --q 8 --d 2",
    "verify cv-equivalence --d 0",
    "verify mon-equivalence --q 7 --d 2 --n 6",
    "verify mon-test --count 40 --window 6",
    "verify mellin-b-embed --window 4",
    "verify propDmod2 --chi 4/3 --n 2 --window 3",
    "verify propDmod3 --chi 1/2 --window 4",
    "verify propDmod3 --chi 4/3 --window 3",
    "verify dmodmon --chi 4/3 --window 3",
    "verify dmodmon --chi 2/3 --window 12",
    "verify dmodmon --n 2",
    "verify exp-square --window 12",
    "verify fourier-antipode",
    "verify fourier-antipode --count 5",
    "verify eq3-decomp --n 2 --window 3",
    "verify lem-mon-shadow --q 7 --n 3 --chi 1/2",
    "verify appendix-augmentation --ell 0",
    "verify appendix-augmentation --ell 2 --r 3 --n 8",
    "verify appendix-nzd --ell 2 --r 3 --n 3",
    "verify appendix-units --ell 3 --r 2 --n 2 --nprime 4",
    "verify appendix-units --ell 2 --r 2 --n 3 --nprime 6",
    "verify appendix-units --ell 3 --r 2 --n 1 --nprime 5",
    "verify no-such-check",
    "reduce --algebra weyl " + "1" * 5000,
    "reduce --algebra weyl 3^10000",
    "reduce --algebra weyl 3^10000000",
    "mellin 3^10000*x",
)]


def public_code_keys(sources: dict[str, str]) -> dict[tuple[str, int], str]:
    """(module, first line) of each public top-level function and public
    method of a top-level class, dunders aside, to `module:qualname`.
    The first line is that of the first decorator, as in `co_firstlineno`."""

    def first_line(node):
        return min([node.lineno] + [d.lineno for d in node.decorator_list])

    out = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_"):
                out[module, first_line(node)] = f"{module}:{node.name}"
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                        out[module, first_line(item)] = f"{module}:{node.name}.{item.name}"
    return out


def entered_code_keys(run) -> set[tuple[str, int]]:
    """(module, first line) of each function of the package that `run()`
    enters."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    old = sys.getprofile()
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(old)
        threading.setprofile(None)
    root = str(PACKAGE) + "/"
    return {(f[len(root):], line) for f, line in seen if f.startswith(root)}


def run_entry_points():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        checks.run_all("quick")
        checks.run_all("full")
        for demo in sorted((REPO / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        for block in re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S):
            exec(compile(block, "README.md", "exec"), {})
        for argv in COMMANDS:
            cli.main(argv)


@pytest.fixture(scope="module")
def unentered():
    # A fresh interpreter, so no cache filled by an earlier test hides a call.
    tests = Path(__file__).resolve().parent
    path = [str(PACKAGE.parent), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    script = ("import json, test_reach as t\n"
              "print(json.dumps(sorted(t.entered_code_keys(t.run_entry_points))))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    entered = {tuple(key) for key in json.loads(proc.stdout)}
    sources = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
    public = public_code_keys(sources)
    return {public[key] for key in public.keys() - entered}


def test_every_public_function_is_entered(unentered):
    assert sorted(unentered - UNENTERED_PUBLIC_ALLOWED) == []


def test_every_allowed_name_is_defined_and_unentered(unentered):
    # An entry goes from the allow-list once an entry point runs it or it
    # is deleted.
    assert sorted(UNENTERED_PUBLIC_ALLOWED - unentered) == []


class TestDetector:
    def test_keys_a_method_by_its_own_lines(self):
        sources = {
            "a.py": "class A:\n    def run(self):\n        return 1\n\n"
                    "    @property\n    def size(self):\n        return 0\n\n"
                    "class B:\n    def run(self):\n        return 2\n\n"
                    "def _private():\n    pass\n",
        }
        assert public_code_keys(sources) == {
            ("a.py", 2): "a.py:A.run", ("a.py", 5): "a.py:A.size", ("a.py", 10): "a.py:B.run"}

    def test_a_method_of_the_same_name_is_not_entered(self):
        # B.run shares A.run's name, so a scan by name counts it as read;
        # keyed by its code object, it is not entered.  A property is
        # keyed by its decorator's line on both sides.
        source = ("class A:\n    def run(self):\n        return self.size\n\n"
                  "    @property\n    def size(self):\n        return 0\n\n"
                  "class B:\n    def run(self):\n        return 2\n")
        namespace = {}
        exec(compile(source, str(PACKAGE / "planted.py"), "exec"), namespace)
        entered = entered_code_keys(lambda: namespace["A"]().run())
        public = public_code_keys({"planted.py": source})
        assert [public[key] for key in public.keys() - entered] == ["planted.py:B.run"]
