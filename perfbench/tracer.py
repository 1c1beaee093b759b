"""Per-layer accounting, installed from outside the program.

The tracer replaces public functions and methods of monofour with
wrappers.  Every wrapper counts calls and records inclusive time and
self time (its own time minus the time of wrapped calls made inside
it).  Wrappers marked as spans also keep a record (name, thread, start,
end, parent, root) in memory, so the coarse boundaries -- `run_check`
and each check's engine function -- can be written out after the pass.

Each thread has its own call stack, because `checks.run_all` runs its
checks on a pool worker thread even with one job.

A function imported by name into other modules (`from .poly import
poly_gcd`) has one binding per importing module; `install` replaces
every binding that is the same object, or calls through the other
bindings would go missing.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._thread_stats: list[dict] = []
        self._counters: dict[str, itertools.count] = {}
        self.spans: list[list] = []
        self.observed: dict[str, float] = {}

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            # stack frames are [name, child_time, span_index]
            state = ([], {}, {})  # stack, stats, active depth by name
            self._local.state = state
            self._thread_stats.append(state[1])
            return state

    def wrap(self, name: str, fn, span: bool = False, observe=None):
        """Return a wrapper of `fn` that accounts its calls under `name`.

        `observe(args, result)` runs after each call, inside its timed
        interval.
        """
        state_of = self._state
        spans = self.spans

        def wrapper(*args, **kwargs):
            stack, stats, active = state_of()
            span_index = None
            if span:
                parent = stack[-1][2] if stack else None
                root = spans[parent][5] if parent is not None else len(spans)
                span_index = len(spans)
                label = args[0] if args and isinstance(args[0], str) else None
                spans.append([name, threading.get_ident(), None, None, parent, root, label])
            frame = [name, 0.0, span_index if span else (stack[-1][2] if stack else None)]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                dt = _perf() - t0
                stack.pop()
                depth = active[name] - 1
                active[name] = depth
                if stack:
                    stack[-1][1] += dt
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if depth == 0:
                    rec[1] += dt
                rec[2] += dt - frame[1]
                if span:
                    spans[span_index][2] = t0
                    spans[span_index][3] = t0 + dt

        return wrapper

    def count_only(self, name: str, fn):
        """Cheapest wrapper: a call count, no timing."""
        counter = self._counters.setdefault(name, itertools.count())
        bump = counter.__next__

        def wrapper(*args, **kwargs):
            bump()
            return fn(*args, **kwargs)

        return wrapper

    def add(self, key: str, value: float) -> None:
        self.observed[key] = self.observed.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.observed[key] = max(self.observed.get(key, 0), value)

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """Merged (calls, incl_s, self_s) per name over all threads."""
        out: dict[str, list] = {}
        for per_thread in self._thread_stats:
            for name, (calls, incl, self_s) in per_thread.items():
                rec = out.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += incl
                rec[2] += self_s
        for name, counter in self._counters.items():
            # after n calls, next() on the counter returns n
            out.setdefault(name, [0, 0.0, 0.0])[0] += next(counter)
        return {name: tuple(rec) for name, rec in out.items()}


def rebind_everywhere(old, new, package: str = "monofour") -> int:
    """Point every module-level binding of `old` in `package` at `new`."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every monofour layer."""
    from monofour import checks, groupalg, mellin, ore, parser, reports, trace
    from monofour.scalars import cyclotomic, poly, ratfun, snf

    def function(name, fn, **kw):
        if rebind_everywhere(fn, tracer.wrap(name, fn, **kw)) == 0:
            raise RuntimeError(f"no binding of {fn.__qualname__} found for {name}")

    def method(name, cls, attrs, **kw):
        wrapper = tracer.wrap(name, getattr(cls, attrs[0]), **kw)
        for attr in attrs:
            setattr(cls, attr, wrapper)

    # scalars: hot methods are aggregated only, never recorded as spans.
    P = poly.Poly
    method("scalars.poly.mul", P, ("__mul__", "__rmul__"))
    method("scalars.poly.add", P, ("__add__", "__radd__"))
    method("scalars.poly.sub", P, ("__sub__",))
    method("scalars.poly.divmod", P, ("__divmod__",))
    P.__init__ = tracer.count_only("scalars.poly.init", P.__init__)

    def gcd_result(args, result):
        if result.degree == 0:
            tracer.add("scalars.poly.gcd.trivial", 1)

    function("scalars.poly.gcd", poly.poly_gcd, observe=gcd_result)
    function("scalars.poly.lcm", poly.poly_lcm)

    def smith_shape(args, result):
        m = args[0]
        tracer.maximum("scalars.snf.poly_smith.max_cells", len(m) * (len(m[0]) if m else 0))

    function("scalars.snf.poly_smith", snf.poly_smith, observe=smith_shape)
    function("scalars.snf.int_smith", snf.int_smith)
    function("scalars.snf.rational_rank", snf.rational_rank)
    function("scalars.ratfun.partial_fractions", ratfun.partial_fractions)
    method("scalars.cyclotomic.mul", cyclotomic.CycScalar, ("__mul__", "__rmul__"))

    # mellin
    method("mellin.lattice_init", mellin.WindowedLattice, ("__init__",))
    method("mellin.as_lattice", mellin.LadderFamily, ("as_lattice",))
    for name in ("monodromic_test", "torsion_by_point_ranks", "tensor_equivariant",
                 "orbit_decomposition_check"):
        function(f"mellin.{name}", getattr(mellin, name))

    # trace and groupalg
    for name in ("four_B", "conv_Gm", "kernel_pair_sum", "gauss_sum"):
        function(f"trace.{name}", getattr(trace, name))
    for name in ("subgroup_order", "solve_mod_kernel", "ga_mul"):
        function(f"groupalg.{name}", getattr(groupalg, name))

    # ore: the products are the methods; the module-level weyl_mul and
    # ore_mul only delegate to them.
    method("ore.weyl_mul", ore._WeylBase, ("__mul__",))
    method("ore.shift_mul", ore.ShiftOp, ("__mul__",))
    for name in ("mellin_op", "inverse_mellin_op", "fourier_auto"):
        function(f"ore.{name}", getattr(ore, name))

    def parsed_chars(args, result):
        tracer.add("parser.chars", len(args[0]))

    function("parser.parse_operator", parser.parse_operator, observe=parsed_chars)

    # checks: spans at run_check and at each check's engine function.
    modules = {"trace": trace, "mellin": mellin, "groupalg": groupalg, "ore": ore}
    for engine in sorted({spec.engine for spec in checks.CHECKS.values()}):
        module_name, fn_name = engine.split(".")
        function(f"engine.{engine}", getattr(modules[module_name], fn_name), span=True)
    function("checks.run_check", checks.run_check, span=True)
    function("checks.run_all", checks.run_all, span=True)
    method("reports.to_dict", reports.CheckReport, ("to_dict",))
