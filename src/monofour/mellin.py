"""Windowed equivariant modules over k[s] and their verification toolkit.

The shift algebra acts on the rational function field k(s) on the right by
f*T = f(s+1), f*p(s) = p*f.  Cyclic shift-algebra modules are studied
through two concrete windowed realizations:

* WindowedLattice - a finitely generated k[s]-submodule of k(s), tracked
  inside a symmetric window of points chi + i, |i| <= N; over the PID
  k[s] such a lattice is free of rank one on its content generator;
* LadderFamily - a line of rational functions f_j indexed by a window of
  integers, with the shift acting by index translation (semilinear in s);
  this realizes modules such as the exponential one whose shift action is
  not argument translation.

Lattice generators and ladder functions are Factored values on one orbit
chi + Z: a constant and a map from the int offsets i of the factors
(s - chi - i) to exponents.  The engine builds them from the linear
factors it chooses, so products, shifts, valuations and fibers are dict
operations on int keys and no root search runs on them; only a RatFun
handed in from outside is factored, once, and refused unless all its
roots are rational and on one orbit.  Points become offsets only at the
public boundary, and the RatFun views are expanded on first use.

On top of these the module provides the canonical cyclic presentations
(simple-pole kernel modules on both sides of the Mellin identification,
the exponential module), lattice fibers, the shift units of a skyscraper
tower tensored with a line, torsion tests, and the named verification
routines.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .scalars.poly import (
    Immutable, Poly, UnsupportedInputError, at_least, at_most, frac, one_of, rational,
)
from .scalars.ratfun import RatFun, _partial_fractions, linear_factors
from .scalars.snf import poly_rank, rational_rank
from .ore import (
    TWIST_VARIANTS,
    CyclicPresentation,
    ShiftOp,
    WeylOp,
    fourier_auto,
    mellin_op,
)

MAX_FIBER_ORDER = 4


class NotAMorphismError(ValueError):
    """Proposed generator image is not annihilated by the relations."""


class WindowError(UnsupportedInputError):
    """A window is too small for the requested computation."""


class OrbitPointError(UnsupportedInputError):
    """A test point lies on the lattice's orbit."""


class NotMonodromicError(ValueError):
    """Input module fails the torsion test that licenses the transform."""

    def __init__(self, message: str, diagnostic: dict | None = None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


def _ratfun(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    return RatFun(x)


def rational_right_action(f: RatFun, op: ShiftOp) -> RatFun:
    """Right action of the shift algebra on k(s): f*(T^j p) = f(s+j)*p."""
    f = _ratfun(f)
    out = RatFun(0)
    for j, p in op.terms.items():
        out = out + f.shift(j) * p
    return out


# ---------------------------------------------------------------------------
# Canonical cyclic presentations.
# ---------------------------------------------------------------------------

_S = ShiftOp.s()
_Ti = ShiftOp.t_power(-1)


def kernel_module() -> CyclicPresentation:
    """Simple-pole kernel module: shift relation (s+1) - T^-1 s."""
    return CyclicPresentation("shift", ((_S + 1) - _Ti * _S,))


def shift_exp_module() -> CyclicPresentation:
    """Exponential module on the shift side: relation 1 - T^-1 s."""
    return CyclicPresentation("shift", (1 - _Ti * _S,))


def weyl_kernel_module() -> CyclicPresentation:
    """Differential-side module whose Mellin image is the kernel module:
    relation dx*(x-1)."""
    return CyclicPresentation("weyl", (WeylOp.dx() * (WeylOp.x() - 1),))


def point_module(c) -> CyclicPresentation:
    """Delta module at the point c: relation x - c."""
    return CyclicPresentation("weyl", (WeylOp.x() - frac(c),))


def euler_eigen_module(chi) -> CyclicPresentation:
    """Eigenmodule of the Euler operator: relation x*dx - chi."""
    return CyclicPresentation("weyl", (WeylOp.x() * WeylOp.dx() - frac(chi),))


def mellin_module(m: CyclicPresentation) -> CyclicPresentation:
    """Transport a rank-1 differential presentation across x -> T, x dx -> s."""
    if m.algebra != "weyl":
        raise UnsupportedInputError("Mellin transport needs a rank-1 differential presentation")
    return CyclicPresentation("shift", tuple(mellin_op(r) for r in m.relations))


# ---------------------------------------------------------------------------
# Factored values on an orbit.
# ---------------------------------------------------------------------------


_F0, _F1 = Fraction(0), Fraction(1)  # shared defaults, so no call builds them


class Factored(Immutable):
    """A nonzero rational function factored on one orbit chi + Z:
    const * prod (s - chi - i)^exps[i].

    `chi` is the orbit's representative in [0, 1) (the constructor
    reduces any other chi and moves the keys to match), and `exps` maps
    int offsets to nonzero exponents.  A product adds the maps and a
    shift moves the keys or the orbit.  A constant lives on every orbit;
    a product of two non-constant values on two orbits is refused, and
    values on two orbits are equal only when both are the same constant.
    """

    __slots__ = ("const", "chi", "exps", "_dense")

    def __init__(self, const=_F1, exps=None, chi=_F0):
        chi, base = _orbit(chi)
        if base and exps:
            exps = {i + base: e for i, e in exps.items()}
        object.__setattr__(self, "const", frac(const))
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "exps", exps or {})
        object.__setattr__(self, "_dense", None)

    @classmethod
    def from_ratfun(cls, f: RatFun, chi=None) -> "Factored":
        """Factor a nonzero RatFun by rational-root search on the orbit
        chi + Z (by default that of its least pole, else of its least
        zero, else Z): the one place where a value is factored rather
        than built factored.  A factor without rational roots, or a root
        off the orbit, is refused."""
        zeros, num = linear_factors(f.num)
        poles, den = linear_factors(f.den)
        if num.degree > 0 or den.degree > 0:
            raise UnsupportedInputError(f"{f} has a factor without rational roots")
        chi = _orbit(min(poles or zeros, default=0) if chi is None else chi)[0]
        exps = {}
        for roots, sign in ((zeros, 1), (poles, -1)):
            for a, m in roots.items():
                u = a - chi
                if u.denominator != 1:
                    raise UnsupportedInputError(
                        f"{f} has the root {a} off the one orbit {chi} + Z")
                exps[u.numerator] = sign * m
        out = cls(num.lc, exps, chi)
        object.__setattr__(out, "_dense", f)
        return out

    def _on_orbit(self, chi: Fraction) -> "Factored":
        """The same value keyed on the orbit of the representative chi,
        which only a constant can move to."""
        if chi == self.chi:
            return self
        if self.exps:
            raise UnsupportedInputError(f"{self} does not lie on the one orbit {chi} + Z")
        return Factored(self.const, None, chi)

    def __mul__(self, other: "Factored") -> "Factored":
        if other.chi != self.chi:
            if self.exps:
                other = other._on_orbit(self.chi)
            else:
                self = self._on_orbit(other.chi)
        exps = dict(self.exps)
        for i, e in other.exps.items():
            e += exps.get(i, 0)
            if e:
                exps[i] = e
            else:
                del exps[i]
        return Factored(self.const * other.const, exps, self.chi)

    def __truediv__(self, other: "Factored") -> "Factored":
        inverse = {i: -e for i, e in other.exps.items()}
        return self * Factored(1 / other.const, inverse, other.chi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Factored):
            return NotImplemented
        return (self.const == other.const and self.exps == other.exps
                and (self.chi == other.chi or not self.exps))

    def __repr__(self) -> str:
        return f"Factored({self.const}, {self.exps}, {self.chi})"

    @property
    def is_constant(self) -> bool:
        return not self.exps

    def shift(self, k) -> "Factored":
        """f(s + k): the factor (s - chi - i) becomes (s - (chi - k) - i),
        and the constructor reduces the orbit chi - k."""
        return Factored(self.const, self.exps, self.chi - frac(k))

    def valuation(self, a) -> int:
        u = frac(a) - self.chi
        return self.exps.get(u.numerator, 0) if u.denominator == 1 else 0

    def eval(self, a) -> Fraction:
        u = frac(a) - self.chi
        out = self.const
        for i, e in self.exps.items():
            out *= (u - i) ** e
        return out

    def to_ratfun(self) -> RatFun:
        if self._dense is None:
            num, den = Poly.const(self.const), Poly.const(1)
            for i, e in self.exps.items():
                if e > 0:
                    num = num * _linear_power(self.chi + i, e)
                else:
                    den = den * _linear_power(self.chi + i, -e)
            object.__setattr__(self, "_dense", RatFun(num, den))
        return self._dense


def _orbit(chi) -> tuple[Fraction, int]:
    """The representative of the orbit chi + Z in [0, 1), and the offset
    of chi from it."""
    chi = frac(chi)
    base = chi.numerator // chi.denominator
    return (chi - base if base else chi), base


def _linear(i: int, e: int = 1, chi=_F0) -> Factored:
    """(s - chi - i)^e."""
    return Factored(_F1, {i: e}, chi)


_ONE = Factored()


def _factored(f, chi) -> Factored:
    """f as a Factored value: a RatFun or a scalar is factored here, once,
    on the orbit chi + Z."""
    if isinstance(f, Factored):
        return f
    f = _ratfun(f)
    if f.is_zero:
        raise ValueError("zero generator in lattice")
    return Factored.from_ratfun(f, chi)


# ---------------------------------------------------------------------------
# Windowed lattices in k(s).
# ---------------------------------------------------------------------------


class WindowedLattice(Immutable):
    """Finitely generated k[s]-submodule of k(s), windowed at chi + [-N, N].

    Over the PID k[s] the lattice is free of rank one on its content
    generator (gcd of numerators over the common denominator).  The
    generators are Factored values on the orbit of chi (a RatFun one is
    factored once, here; a generator off the orbit is refused), and the
    window is kept as offsets from the orbit's representative, so
    lattices at chi = 1/3 and 4/3 share keys.  The content's map is the
    pointwise minimum of the generators' maps; at a point off the orbit
    every valuation is 0.  `generators` and `content` are the RatFuns,
    built on first use.
    """

    __slots__ = ("chi", "radius", "labels", "_base", "_gens", "_content", "_generators")

    def __init__(self, chi, radius: int, generators, labels=None):
        chi = frac(chi)
        orbit, base = _orbit(chi)
        gens = tuple(_factored(g, orbit)._on_orbit(orbit) for g in generators)
        if labels is None:
            labels = tuple(f"g{k}" for k in range(len(gens)))
        if not gens:
            raise ValueError("empty lattice")
        # The pointwise minimum of the maps, a missing offset counting as 0:
        # a negative entry can come from any generator, and a positive
        # minimum needs the offset in every generator.
        exps = {}
        for g in gens:
            for i, e in g.exps.items():
                if e < exps.get(i, 0):
                    exps[i] = e
        for i in set(gens[0].exps).intersection(*(g.exps for g in gens[1:])):
            v = min(g.exps[i] for g in gens)
            if v > 0:
                exps[i] = v
        const = gens[0].const if len(gens) == 1 else 1
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_gens", gens)
        object.__setattr__(self, "_content", Factored(const, exps, orbit))
        object.__setattr__(self, "_generators", None)

    @property
    def generators(self) -> tuple[RatFun, ...]:
        if self._generators is None:
            object.__setattr__(self, "_generators", tuple(g.to_ratfun() for g in self._gens))
        return self._generators

    @property
    def content(self) -> RatFun:
        """The content generator, expanded from its factored form on first use."""
        return self._content.to_ratfun()

    def window_points(self) -> list[Fraction]:
        return [self.chi + i for i in range(-self.radius, self.radius + 1)]

    def valuation(self, a) -> int:
        return self._content.valuation(a)

    def contains(self, f) -> bool:
        own = self._content
        if not isinstance(f, Factored):
            f = _ratfun(f)
            if f.num.is_zero:
                return True
            f = Factored.from_ratfun(f, own.chi)
        f = f._on_orbit(own.chi)
        return all(f.exps.get(i, 0) >= own.exps.get(i, 0) for i in f.exps.keys() | own.exps.keys())

    def same_lattice(self, other: "WindowedLattice") -> bool:
        """Equality as submodules of k(s) (contents agree up to a rational)."""
        mine, theirs = self._content, other._content
        return mine.exps == theirs.exps and (mine.chi == theirs.chi or not mine.exps)

    def agrees_on_points(self, other: "WindowedLattice", points) -> bool:
        return all(
            self.valuation(a) == other.valuation(a) for a in points
        )

    def fiber(self, a, n: int = 1) -> "Fiber":
        a = frac(a)
        u = a - self._content.chi
        if u.denominator == 1 and abs(u.numerator - self._base) > self.radius:
            raise WindowError(f"point {a} outside window of radius {self.radius}")
        if self.valuation(a) == 0 and self.contains(_ONE):
            gen, label = _ONE, "1"
        else:
            best = None
            for k, g in enumerate(self._gens):
                v = g.exps.get(u.numerator, 0) if u.denominator == 1 else 0
                if best is None or v <= best[0]:
                    best = (v, k)
            gen, label = self._gens[best[1]], self.labels[best[1]]
        return Fiber(a, n, gen, label)


class Fiber(Immutable):
    """Fiber of a windowed module at a point, over k[s]/(s-a)^n.  A lattice
    fiber keeps its generator Factored; `generator` is its RatFun, built
    on first use."""

    __slots__ = ("point", "order", "_generator", "generator_label")

    def __init__(self, point: Fraction, order: int, generator: Factored | RatFun,
                 generator_label: str):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_generator", generator)
        object.__setattr__(self, "generator_label", generator_label)

    @property
    def generator(self) -> RatFun:
        g = self._generator
        return g.to_ratfun() if isinstance(g, Factored) else g

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fiber):
            return NotImplemented
        return (self.point, self.order, self.generator, self.generator_label) == (
            other.point, other.order, other.generator, other.generator_label)


# ---------------------------------------------------------------------------
# Ladder families: shift acts by index translation.
# ---------------------------------------------------------------------------


class LadderFamily(Immutable):
    """Window of rational functions f_j with the shift acting by j -> j+1.

    The s-action is literal multiplication; the shift action is recorded
    as index translation, which is semilinear but in general is not
    argument translation on the functions.  The f_j are kept Factored,
    on the orbit Z.
    """

    __slots__ = ("label", "radius", "_values", "_lattice")

    def __init__(self, label: str, funcs: dict[int, Factored | RatFun]):
        radius = max(abs(j) for j in funcs)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "_values", {j: _factored(f, _F0) for j, f in funcs.items()})
        object.__setattr__(self, "_lattice", None)

    def _value(self, j: int) -> Factored:
        if j not in self._values:
            raise WindowError(f"ladder index {j} outside window")
        return self._values[j]

    def indices(self) -> list[int]:
        return sorted(self._values)

    def as_lattice(self) -> WindowedLattice:
        """The lattice spanned by the window, built on the first call and
        kept."""
        if self._lattice is None:
            idx = self.indices()
            object.__setattr__(self, "_lattice", WindowedLattice(
                _F0,
                self.radius,
                [self._values[j] for j in idx],
                [f"{self.label}[{j}]" for j in idx],
            ))
        return self._lattice

    def fiber(self, a, n: int = 1) -> Fiber:
        return (self._lattice or self.as_lattice()).fiber(a, n)

    def step_factor(self) -> Factored:
        """The factor f_(j+1)(s)/f_j(s+1), which makes the index step
        argument translation followed by multiplication: 1 on the pole
        ladder, s+1 on the exponential one.  A ladder whose factor
        depends on j is refused."""
        values = self._values
        factors = [values[j + 1] / values[j].shift(1) for j in values if j + 1 in values]
        if any(f != factors[0] for f in factors):
            raise UnsupportedInputError(f"ladder {self.label}'s step factor depends on the index")
        return factors[0] if factors else _ONE


def pole_ladder(radius: int) -> LadderFamily:
    """Kernel-module realization: f_j = 1/(s+j+1), shift = index step,
    which here coincides with argument translation."""
    funcs = {j: _linear(-j - 1, -1) for j in range(-radius, radius + 1)}
    return LadderFamily("b", funcs)


def exp_ladder(radius: int) -> LadderFamily:
    """Exponential-module realization: f_0 = 1 and f_{j+1} = (s+j+1) f_j,
    so f_j is a product of ascending linear factors (or their reciprocal)."""
    funcs = {0: _ONE}
    for j in range(0, radius):
        funcs[j + 1] = funcs[j] * _linear(-j - 1)
    for j in range(0, -radius, -1):
        funcs[j - 1] = funcs[j] * _linear(-j, -1)
    return LadderFamily("e", funcs)


def twisted_exp_ladder(radius: int, variant: str = "affine") -> LadderFamily:
    """Inversion twist of the exponential ladder: f_0 = 1 and
    f_{j+1} = f_j/(s+j+1) (affine) or f_j/(s+j) (plain)."""
    one_of("twist variant", variant, TWIST_VARIANTS)
    c = 1 if variant == "affine" else 0
    funcs = {0: _ONE}
    for j in range(0, radius):
        funcs[j + 1] = funcs[j] * _linear(-j - c, -1)
    for j in range(0, -radius, -1):
        funcs[j - 1] = funcs[j] * _linear(1 - j - c)
    return LadderFamily(f"e~{variant[0]}", funcs)


def embed_in_Ks(m: CyclicPresentation, image_of_generator, N: int) -> WindowedLattice:
    """Embed a cyclic shift module into k(s) through a proposed generator image.

    The image must be annihilated by every relation under the right
    action; the returned lattice is generated by the shifted images whose
    poles stay inside the window.  The image is factored once, and its
    shifts move the factored value.
    """
    if m.algebra != "shift":
        raise UnsupportedInputError("embedding is defined for shift presentations")
    f = _ratfun(image_of_generator)
    if f.num.is_zero:
        raise NotAMorphismError("the zero image embeds nothing")
    for r in m.relations:
        got = rational_right_action(f, r)
        if not got.num.is_zero:
            raise NotAMorphismError(
                f"relation {r} does not annihilate the image: got {got}"
            )
    image = Factored.from_ratfun(f)  # on the orbit of its least pole
    poles = sorted(i for i, e in image.exps.items() if e < 0)
    k_lo, k_hi = (poles[-1] - N, poles[0] + N) if poles else (-N, N)
    if k_lo > k_hi:
        raise WindowError("window too small for the image's pole spread")
    gens = [image.shift(k) for k in range(k_lo, k_hi + 1)]
    labels = [f"g*T^{k}" for k in range(k_lo, k_hi + 1)]
    return WindowedLattice(image.chi, N, gens, labels)


# ---------------------------------------------------------------------------
# Pole lattices along an orbit.
# ---------------------------------------------------------------------------


def _normalize_chi(chi) -> Fraction:
    chi = rational("chi =", chi)
    return Fraction(0) if chi.denominator == 1 else chi


def orbit_pole_lattice(chi: Fraction, n: int, N: int) -> WindowedLattice:
    """Lattice generated by the order-n poles along the orbit chi + Z."""
    at_least("order n =", n, 1)
    at_least("window radius", N, 0)
    gens, labels = [], []
    for i in range(-N, N + 1):
        gens.append(_linear(i, -n, chi))
        labels.append(f"1/(s-({chi + i}))^{n}")
    return WindowedLattice(chi, N, gens, labels)


def orbit_decomposition_check(chi, n: int, window: int) -> dict:
    """Verify that the windowed lattice of n-th order poles along chi + Z
    splits, modulo polynomials, as the direct sum of its principal parts.

    Five random combinations of the natural basis are decomposed by partial
    fractions at the known poles and the coefficients must round-trip
    exactly.  The check runs in u = s - chi: s -> u + chi is a k-algebra
    isomorphism that moves the poles chi + i to i and keeps the
    coefficient of each 1/(s - chi - i)^k as that of 1/(u - i)^k, so the
    arithmetic, on integer poles, is the same for every chi.
    """
    at_least("order n =", n, 1)
    N = at_least("window radius", window, 0)
    rational("chi =", chi)  # nothing below reads it
    rng = random.Random(20260823)
    samples = 5
    poles = dict.fromkeys(range(-N, N + 1), n)
    den = Poly.const(1)
    for i in range(-N, N + 1):
        den = den * _linear_power(i, n)
    cofactors = {
        (i, k): den // _linear_power(i, k)
        for i in range(-N, N + 1)
        for k in range(1, n + 1)
    }
    failures = []
    for _ in range(samples):
        table = {key: rng.randint(-5, 5) for key in cofactors}
        num = Poly()
        for key, c in table.items():
            if c:
                num = num + cofactors[key] * c
        _, parts = _partial_fractions(num, den, poles)
        got = {}
        for i, coefs in parts:
            for k, c in enumerate(coefs, start=1):
                if c:
                    got[(i, k)] = c
        want = {key: c for key, c in table.items() if c}
        if got != want:
            failures.append({"expected": len(want), "got": len(got)})
    return {
        "verdict": not failures,
        "dimension": (2 * N + 1) * n,
        "points": len(poles),
        "samples": samples,
        "failures": failures,
    }


def _linear_power(a, k: int) -> Poly:
    return Poly((-a, 1)) ** k


# ---------------------------------------------------------------------------
# Equivariant modules presented by matrices, and the torsion test.
# ---------------------------------------------------------------------------


class EquivariantModule(Immutable):
    """Finitely presented k[s]-module: cokernel of a nrows x ncols matrix."""

    __slots__ = ("nrows", "matrix")

    def __init__(self, nrows: int, matrix: tuple):
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "matrix", matrix)

    @property
    def ncols(self) -> int:
        return len(self.matrix[0]) if self.matrix and self.matrix[0] else 0


def equivariant_free(rank: int = 1) -> EquivariantModule:
    return EquivariantModule(rank, tuple(tuple() for _ in range(rank)))


def windowed_equivariant(m: CyclicPresentation, N: int) -> EquivariantModule:
    """Windowed k[s]-module of a cyclic shift presentation: generators are
    the window translates of the cyclic generator, relations are the
    window translates of the defining relation."""
    if m.algebra != "shift":
        raise UnsupportedInputError("windowing is defined for shift presentations")
    at_least("window radius", N, 0)
    rel = m.single_relation()
    nrows = 2 * N + 1
    if rel is None:
        return equivariant_free(nrows)
    levels = rel.levels()
    zero = Poly()
    cols = []
    for a in range(-N, N + 1):
        if all(-N <= i + a <= N for i in levels):
            col = [zero] * nrows
            for i in levels:
                col[i + a + N] = rel.coeff(i).shift(a)
            cols.append(col)
    matrix = tuple(tuple(col[r] for col in cols) for r in range(nrows))
    return EquivariantModule(nrows, matrix)


def monodromic_test(m: EquivariantModule) -> bool:
    """True iff the presented module is k[s]-torsion: the presentation
    matrix has full row rank over k(s)."""
    if m.nrows == 0:
        return True
    if m.ncols == 0:
        return False
    return poly_rank(m.matrix) == m.nrows


def torsion_by_point_ranks(m: EquivariantModule) -> bool:
    """Independent torsion oracle: the rank over k(s) equals the maximal
    rank of evaluations at more points than any minor determinant has
    roots.

    The points are s = 101, 102, ...; no rank exceeds min(rows, cols), so
    the first point whose rank reaches it settles the answer.  Each row,
    scaled by the lcm of its entries' denominators (which keeps the
    rank), is evaluated in integers by Horner on the numerators, and
    ranked by exact elimination, not by poly_rank's modular certificate.
    """
    if m.nrows == 0:
        return True
    if m.ncols == 0:
        return False
    rows, bound = [], 0
    for row in m.matrix:
        den = lcm(*(e.den for e in row))
        rows.append([(e.nums[::-1], den // e.den) for e in row])
        bound += max((e.degree for e in row if not e.is_zero), default=0)
    cap = min(m.nrows, m.ncols)
    best = 0
    for t in range(101, 102 + bound):
        num = []
        for row in rows:
            vals = []
            for nums, scale in row:
                acc = 0
                for c in nums:
                    acc = acc * t + c
                vals.append(acc * scale)
            num.append(vals)
        best = max(best, rational_rank(num))
        if best == cap:
            break
    return best == m.nrows


# ---------------------------------------------------------------------------
# Tensor products.
# ---------------------------------------------------------------------------


def tensor_equivariant(line, chi, N: int) -> dict[int, Fraction]:
    """Shift units of the skyscraper tower k[s]/(s-chi-i)^n, |i| <= N
    (unit 1 at every step), tensored over k[s] with a free-rank-one line,
    a LadderFamily or a WindowedLattice, under the diagonal semilinear
    shift action; the order n survives and plays no part.  The unit at
    chi+i, -N < i <= N, is step(g_i)/g_(i-1) at chi+i-1, where g_i
    generates the line's fiber at chi+i; the step is argument translation,
    times LadderFamily.step_factor on a ladder.  A ratio with a zero or a
    pole there maps no fiber onto the next, and records the unit 0."""
    if line.radius < N:
        raise WindowError("window mismatch in tensor product")
    gens = [line.fiber(chi + i)._generator for i in range(-N, N + 1)]
    factor = line.step_factor() if isinstance(line, LadderFamily) else _ONE
    units = {}
    for i in range(-N + 1, N + 1):
        ratio = gens[i + N].shift(1) * factor / gens[i + N - 1]
        point = chi + i - 1
        units[i] = ratio.eval(point) if ratio.valuation(point) == 0 else _F0
    return units


# ---------------------------------------------------------------------------
# Verification operations.
# ---------------------------------------------------------------------------


def hom_to_free_vanishes(m: WindowedLattice, degree_bound: int):
    """Decide whether every k[s]-map from the lattice to k[s], with all
    generator images of degree <= degree_bound, is zero.

    A k[s]-linear map out of a rank-one lattice inside k(s) is
    multiplication by a fixed rational function c, and c keeps every
    generator polynomial exactly when c is a polynomial multiple of the
    inverse of the lattice content.  The minimal admissible images are
    therefore generator/content; all maps vanish under the degree cap
    precisely when one of those minimal images already exceeds it.
    For the simple-pole lattice the image of 1 picks up every window
    factor, hence vanishes once the window outgrows the degree bound.
    Returns (verdict, witness) where a witness is a nonzero admissible
    list of generator images.
    """
    at_least("degree bound", degree_bound, 0)
    if m.radius <= degree_bound:
        raise WindowError("window radius must exceed the degree bound")
    quotients = [g / m._content for g in m._gens]
    for q in quotients:
        if any(e < 0 for e in q.exps.values()):
            raise AssertionError("generator/content must be polynomial")
    max_degree = max(sum(q.exps.values()) for q in quotients)
    if max_degree > degree_bound:
        return True, None
    return False, [q.to_ratfun().num for q in quotients]


def localization_identity_check(m: WindowedLattice, test_points) -> bool:
    """True iff the lattice becomes the unit lattice after inverting the
    window's linear factors: 1 generates each test-point fiber, and 1
    lies in the lattice once the window factors are inverted."""
    for a in test_points:
        a = frac(a)
        if (a - m.chi).denominator == 1:
            raise OrbitPointError(f"test point {a} lies on the orbit {m.chi} + Z")
    return not any(
        v > 0 and abs(i - m._base) > m.radius for i, v in m._content.exps.items()
    )


_LADDERS = {"kernel": pole_ladder, "exp": exp_ladder}


def skyscraper_freeness_check(kind: str, chi, n: int, N: int) -> dict:
    """Check that every window fiber of the canonical module `kind`
    ("kernel" or "exp") is free of rank one on its named generator, and
    that the shift carries each generator to the next.

    The named generators are 1/(s-i) for the kernel module and the
    (-i-1)-st ladder element for the exponential module; in both cases
    the shift, index translation, carries the generator at chi+i to the
    one at chi+i-1.  The check tests that step as argument translation
    times the module's factor, f_(j+1) = f_j(s+1) * step, with step 1 on
    the kernel ladder and s+1 on the exponential one.
    """
    one_of("module kind", kind, _LADDERS)
    chi = _normalize_chi(chi)
    at_most("fiber order", at_least("order n =", n, 1), MAX_FIBER_ORDER)
    at_least("window radius", N, 0)
    ladder = _LADDERS[kind](N + 1)
    lattice = ladder.as_lattice()
    rows = []
    all_free = True
    for i in range(-N, N + 1):
        a = chi + i
        j = -i - 1
        named = ladder._value(j)
        named_label = f"{ladder.label}[{j}]"
        v_named = named.valuation(a)
        v_content = lattice.valuation(a)
        free = v_named == v_content
        all_free = all_free and free
        rows.append(
            {
                "i": i,
                "point": str(a),
                "generator": named_label,
                "generator_valuation": v_named,
                "content_valuation": v_content,
                "free_rank_one": free,
            }
        )
    ladder_law = True
    if kind == "exp":
        for i in range(-N, N + 1):
            lhs = ladder._value(-i)
            rhs = ladder._value(-i - 1) * _linear(i)
            if lhs != rhs:
                ladder_law = False
    else:
        for i in range(-N, N + 1):
            # The named generator at chi+i is 1/(s-i); (s-i) times it is 1.
            prod = ladder._value(-i - 1) * _linear(i)
            if prod != _ONE:
                ladder_law = False
    step = _ONE if kind == "kernel" else _linear(-1)
    shift_ok = all(
        ladder._value(-i - 1).shift(1) * step == ladder._value(-i) for i in range(-N + 1, N + 1)
    )
    verdict = all_free and ladder_law and shift_ok
    return {
        "verdict": verdict,
        "kind": kind,
        "chi": str(chi),
        "order": n,
        "window": N,
        "fibers": rows,
        "ladder_law": ladder_law,
        "shift_units_recorded": shift_ok,
    }


def monodromization_check(chi, n: int, N: int) -> dict:
    """Tensor the skyscraper tower with the kernel and exponential modules
    and verify both give back the tower, with the free module as a
    control: the tensored tower is isomorphic to the tower exactly when
    every shift unit is nonzero.

    The units are derived from the lines' fiber generators
    (tensor_equivariant), so a step that is no isomorphism of fibers
    records the unit 0 and fails; on the exponential ladder at chi = 0,
    N = 3 they are -2, -1, 1, 1, 1, 1.
    """
    chi = _normalize_chi(chi)
    at_most("fiber order", at_least("order n =", n, 1), MAX_FIBER_ORDER)
    at_least("window radius", N, 0)
    lines = {kind: ladder(N + 1) for kind, ladder in _LADDERS.items()}
    lines["control_free"] = WindowedLattice(chi, N + 1, [_ONE], ["1"])
    results = {}
    for kind, line in lines.items():
        units = tensor_equivariant(line, chi, N)
        results[kind] = {
            "verdict": all(units.values()),
            "units": {str(i): str(u) for i, u in units.items()},
        }
    return {
        "verdict": all(rep["verdict"] for rep in results.values()),
        "chi": str(chi),
        "order": n,
        "window": N,
        **results,
    }


def exp_square_check(N: int, variant: str = "affine", control: bool = False) -> dict:
    """Search for a generator of the (twisted exp) x (exp) tensor window
    that satisfies the kernel-module relation and reproduces the
    simple-pole lattice exactly.

    Candidates are the pure tensors at index pairs |a|, |b| <= 2.  Each
    passing candidate is reported with three stages: the kernel relation
    (s+1) g = s (g T^-1) on the diagonal orbit, generation of the full
    tensor window, and on-the-nose identification with the simple-pole
    lattice (all products g_k (s+k+1) equal to one common rational
    constant).  With control=True the twisted factor is replaced by the
    exponential ladder itself; no candidate then satisfies the relation.
    """
    if N < 3:
        raise WindowError("need window radius at least 3 for the candidate search")
    left = exp_ladder(N) if control else twisted_exp_ladder(N, variant)
    right = exp_ladder(N)
    products = []
    labels = []
    for a in range(-N, N + 1):
        for b in range(-N, N + 1):
            products.append(left._value(a) * right._value(b))
            labels.append(f"{left.label}[{a}]*{right.label}[{b}]")
    full = WindowedLattice(0, N, products, labels)
    target = pole_ladder(N).as_lattice()
    interior = [Fraction(m) for m in range(-(N - 1), N)]
    stages = {}
    witness = None
    relation_witnesses = []
    for a in range(-2, 3):
        for b in range(-2, 3):
            cand = left._value(a) * right._value(b)
            lhs = cand * _linear(-1)
            rhs = left._value(a - 1) * right._value(b - 1) * _linear(0)
            relation_ok = lhs == rhs
            stage = {"relation": relation_ok}
            if relation_ok:
                relation_witnesses.append((a, b))
                ks = [
                    k
                    for k in range(-2 * N, 2 * N + 1)
                    if -N <= a + k <= N and -N <= b + k <= N
                ]
                orbit = {k: left._value(a + k) * right._value(b + k) for k in ks}
                orbit_lat = WindowedLattice(
                    0,
                    N,
                    [orbit[k] for k in ks],
                    [f"T^{k}(g)" for k in ks],
                )
                stage["generates"] = orbit_lat.agrees_on_points(full, interior)
                vals = [orbit[k] * _linear(-k - 1) for k in ks]
                same = all(v == vals[0] for v in vals)
                const = same and vals[0].is_constant
                stage["kernel_match"] = same and const
                if const:
                    stage["unit"] = str(vals[0].const)
                stage["target_agrees"] = orbit_lat.agrees_on_points(target, interior)
                if stage["generates"] and stage["kernel_match"] and witness is None:
                    witness = (a, b)
            stages[f"({a},{b})"] = stage
    return {
        "verdict": witness is not None,
        "variant": "exp-control" if control else variant,
        "window": N,
        "witness": list(witness) if witness else None,
        "relation_witnesses": [list(w) for w in relation_witnesses],
        "stages": stages,
    }


def fourier_presentation(m: CyclicPresentation) -> CyclicPresentation:
    """Apply the Fourier automorphism x -> -dx, dx -> x to every relation;
    a relation with all-negative coefficients is rescaled by -1."""
    if m.algebra != "weyl":
        raise UnsupportedInputError("the Fourier transform acts on Weyl presentations")
    out = []
    for r in m.relations:
        img = fourier_auto(r)
        if img.terms and all(c < 0 for c in img.terms.values()):
            img = img * Fraction(-1)
        out.append(img)
    return CyclicPresentation("weyl", tuple(out))


def fourier_B_monodromic(m: CyclicPresentation, N: int = 6) -> CyclicPresentation:
    """Fourier transform licensed by monodromicity: the windowed Mellin
    image must be torsion, otherwise the transform is refused with the
    Smith-form diagnostic."""
    shift_side = mellin_module(m)
    em = windowed_equivariant(shift_side, N)
    if not monodromic_test(em):
        diag = {
            "window": N,
            "rows": em.nrows,
            "cols": em.ncols,
            "relations": [str(r) for r in shift_side.relations],
        }
        raise NotMonodromicError(
            "input is not monodromic: windowed Mellin image has a free summand",
            diag,
        )
    return fourier_presentation(m)
