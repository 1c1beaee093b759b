"""Exact trace-function calculus on finite vector spaces.

Functions F_q^d -> Q(zeta) are stored as dense tables with exact
scalars: Python ints where the values are integers, Fractions only
where they are not, promoted to cyclotomics only when characters
enter.  The central kernel is the function t_B on F_q: 1 away from 1
and 1-q at 1, so that its total sum vanishes and its value at 0 is 1.
The associated transform

    four_B(f)(xi) = (-1)^d * sum_v f(v) * t_B(<v, xi>),

with the dot product <v, xi> = sum_i v_i xi_i, is studied alongside
the additive-character transform four_psi, built on psi_1(x) =
zeta_p^Tr(x), multiplicative convolution over F_q^x, power-count
kernels, Gauss sums, and a family of named verification checks.  Every
check does exact arithmetic; randomized modes are seeded and reported.

The dot product and psi_1 lose no generality.  Any nondegenerate
bilinear form v^T P xi is the dot product after the substitution
xi -> P xi, and every other additive character is psi_a(x) =
psi_1(a x) for a unit a, that is, psi_1 after the scaling x -> a x.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod

from .scalars.cyclotomic import (
    CycScalar, _spread, _sum_spread, split_prime, sum_of_products, zeta,
)
from .scalars.ffield import Fq
from .scalars.poly import (
    Immutable, UnsupportedInputError, at_least, at_most, divides, prime, rational,
)
from .scalars.snf import _rank_mod_p


class TraceFunction(Immutable):
    """Dense exact-valued function on F_q^d, points in lexicographic order.
    A rank d < 1 is refused."""

    __slots__ = ("field", "rank", "values")

    def __init__(self, q, rank: int, values):
        at_least("dimension d =", rank, 1)
        field = Fq(q)
        values = tuple(values)
        if len(values) != field.q**rank:
            raise ValueError("table size mismatch")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "values", values)

    @property
    def q(self) -> int:
        return self.field.q

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, q, rank: int = 1) -> "TraceFunction":
        return cls.constant(q, rank, 0)

    @classmethod
    def constant(cls, q, rank: int, value) -> "TraceFunction":
        at_least("dimension d =", rank, 1)  # before q**rank sizes the table
        field = Fq(q)
        return cls(field, rank, [value] * field.q**rank)

    @classmethod
    def delta(cls, q, point) -> "TraceFunction":
        field = Fq(q)
        point = _point(field.q, point)
        vals = [0] * field.q ** len(point)
        vals[_index(field.q, point)] = 1
        return cls(field, len(point), vals)

    # -- access -----------------------------------------------------------

    def points(self):
        return _points(self.q, self.rank)

    def value(self, point):
        q = self.field.q
        return self.values[_index(q, _point(q, point, self.rank))]

    def items(self):
        return zip(self.points(), self.values)

    # -- arithmetic -------------------------------------------------------

    def _compat(self, other: "TraceFunction"):
        if self.field is not other.field or self.rank != other.rank:
            raise ValueError("trace functions live on different spaces")

    def __sub__(self, other: "TraceFunction") -> "TraceFunction":
        self._compat(other)
        return TraceFunction(
            self.field, self.rank,
            [a - b for a, b in zip(self.values, other.values)],
        )

    def __neg__(self) -> "TraceFunction":
        return TraceFunction(self.field, self.rank, [-v for v in self.values])

    def scale(self, c) -> "TraceFunction":
        return TraceFunction(self.field, self.rank, [v * c for v in self.values])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceFunction):
            return NotImplemented
        if self.field is not other.field or self.rank != other.rank:
            return False
        return all(a == b for a, b in zip(self.values, other.values))

    __hash__ = None

    def __repr__(self) -> str:
        return f"TraceFunction(q={self.q}, d={self.rank})"


def _point(q: int, point, d: int | None = None) -> tuple:
    """point as a tuple of coordinates; refused unless each is one of
    0..q-1 and, when d is given, there are d of them."""
    point = (point,) if isinstance(point, int) else tuple(point)
    coords = range(q)
    if (d is not None and len(point) != d) or not all(a in coords for a in point):
        raise UnsupportedInputError(f"{point} is not a point of F_{q}^{len(point) if d is None else d}")
    return point


def _points(q: int, d: int):
    return list(product(range(q), repeat=d))

def _index(q: int, point: tuple) -> int:
    idx = 0
    for a in point:
        idx = idx * q + a
    return idx


# ---------------------------------------------------------------------------
# Characters.
# ---------------------------------------------------------------------------


class CharacterTable:
    """Additive and multiplicative characters of F_q with exact values.

    The additive character is psi(a) = zeta_p^tr(a) through the absolute
    trace; multiplicative characters are indexed by an integer k
    with chi_k(g^j) = zeta_(q-1)^(k j) for the stored generator g.
    """

    def __init__(self, q):
        self.field = Fq(q)

    @property
    def q(self) -> int:
        return self.field.q

    def psi(self, a: int) -> CycScalar:
        return zeta(self.field.p, self.field.frobenius_trace(a))

    def psi_function(self) -> TraceFunction:
        return TraceFunction(self.field, 1, [self.psi(a) for a in range(self.q)])

    def chi(self, k: int, a: int):
        if a == 0:
            return 0
        if self.q == 2:
            return 1
        return zeta(self.q - 1, k * self.field.dlog(a))

    def chi_function(self, k: int) -> TraceFunction:
        return TraceFunction(self.field, 1, [self.chi(k, a) for a in range(self.q)])

    def chi_order(self, k: int) -> int:
        m = self.q - 1
        return m // gcd(k, m)

    def chars_with_order_dividing(self, n: int) -> list[int]:
        divides("n =", n, "q-1 =", self.q - 1)
        return list(range(0, self.q - 1, (self.q - 1) // n))


# ---------------------------------------------------------------------------
# Kernels and transforms.
# ---------------------------------------------------------------------------


def t_B(q) -> TraceFunction:
    """The kernel on F_q: value 1 away from 1 and 1-q at 1."""
    field = Fq(q)
    vals = [1] * field.q
    vals[1] = 1 - field.q
    return TraceFunction(field, 1, vals)


def t_B_units(q) -> TraceFunction:
    """t_B restricted to F_q^x (value 0 at the origin)."""
    f = t_B(q)
    vals = list(f.values)
    vals[0] = 0
    return TraceFunction(f.field, 1, vals)


def four_B(f: TraceFunction) -> TraceFunction:
    """Kernel transform: g(xi) = (-1)^d sum_v f(v) t_B(<v, xi>).

    t_B is 1 - q [x = 1], so g(lam c) = (-1)^d (sum f - q B_c[lam^-1]),
    B_c[b] the sum of f over <v, c> = b: O(1) per xi once the buckets of
    its line exist.
    """
    q, inverses = f.q, f.field._inv[1:]
    total = sum(val for val in f.values if val)
    return _kernel_transform(f, lambda buckets: (
        total - q * buckets[b] if b in buckets else total for b in inverses))


def four_psi(f: TraceFunction) -> TraceFunction:
    """Additive-character transform: g(xi) = (-1)^d sum_v f(v) psi_1(<v, xi>).

    Every nonzero value lies in one bucket of each line, so each g(xi)
    has the conductor N = lcm(p, conductors of f's nonzero values).
    psi_1(a) is the single term x^(Tr(a) N/p) of Z[x]/(x^N - 1); each
    line's buckets are spread once, and each xi is one _sum_spread.
    """
    field = f.field
    n = lcm(field.p, *(v.conductor for v in f.values if isinstance(v, CycScalar) and v))
    stride = n // field.p
    psi = [([(field.frobenius_trace(a) * stride, 1)], 1) for a in range(f.q)]

    def line_values(buckets):
        if not buckets:  # the zero function: the empty sum is the int 0
            return [0] * (f.q - 1)
        spread = [(b, _spread(t, n)) for b, t in buckets.items()]
        return (_sum_spread([(psi[row[b]], t) for b, t in spread], n) for row in field._mul[1:])

    return _kernel_transform(f, line_values)


def _kernel_transform(f: TraceFunction, line_values) -> TraceFunction:
    """(-1)^d sum_v f(v) kernel(<v, xi>) for every xi, one line through 0
    at a time.

    Since <v, lam c> = lam <v, c>, one pass over the support fills the
    buckets B_c[b] = sum of f over <v, c> = b for the whole line of c;
    line_values(B_c) yields the kernel sums at lam c, lam in
    field.units() order.  Every sum still covers the whole support, so
    each value has the type and conductor of the chained per-term sum.
    """
    field, d = f.field, f.rank
    support = [(i, val) for i, val in enumerate(f.values) if val]
    out = [0] * len(f.values)
    for dots, moved in _lines(field, d):
        buckets = {}
        for i, val in support:
            b = dots[i]
            buckets[b] = buckets[b] + val if b in buckets else val
        for i, g in zip(moved, line_values(buckets)):
            out[i] = -g if d % 2 else g
    return TraceFunction(field, d, out)


def conv_Gm(g: TraceFunction, f: TraceFunction) -> TraceFunction:
    """Multiplicative convolution: (g * f)(v) = sum_{l != 0} g(l) f(l^-1 v).

    Each value is written in the conductor the full per-term sum has.
    On int tables f's support is spread along the lines through 0,
    out[lam j] += g(lam) f(j), in O(|supp f| (q-1)) steps.  Otherwise
    every value on a line reads the same f values, so its conductor N is
    the lcm of g's cyclotomic conductors and f's on that line: g is
    spread once per N, f's line once, and each value is one _sum_spread.
    A line with no cyclotomic value keeps the chained rational sum, so
    g(lam) 0 is Fraction(0) when either operand is a Fraction.
    """
    if g.rank != 1:
        raise ValueError("convolver must live on F_q")
    if g.field is not f.field:
        raise ValueError("field mismatch")
    field, d, fvals, gvals = f.field, f.rank, f.values, g.values
    # units() is 1..q-1, so mu c sits at position mu - 1 of its line
    mul, units, lines = field._mul, field.units(), _lines(field, d)
    out = [0] * len(fvals)
    if all(type(x) is int for x in fvals + gvals):
        terms = [(lam, gvals[lam]) for lam in units if gvals[lam]]
        out[0] = fvals[0] * sum(gl for _, gl in terms)
        for _, moved in lines[1:]:
            for mu, j in zip(units, moved):
                if fvals[j]:
                    for lam, gl in terms:
                        out[moved[mul[lam][mu] - 1]] += gl * fvals[j]
        return TraceFunction(field, d, out)
    # a zero term adds no value, but a cyclotomic one can widen the
    # conductor of the sum; only terms that are rational zeros are skipped,
    # and all q - 1 are kept once f has a cyclotomic value
    rational_f = not any(isinstance(x, CycScalar) for x in fvals)
    terms = [
        (field._inv[lam], gl) for lam, gl in enumerate(gvals)
        if lam and (gl or not rational_f or isinstance(gl, CycScalar))
    ]
    g_conductors = [gl.conductor for _, gl in terms if isinstance(gl, CycScalar)]
    g_spread = {}  # conductor -> g's terms spread at it

    def line_sums(fline, picks):
        """For each pick list, the sum of gl f(l^-1 v) over the terms, the
        f values read from fline: the chained sum on a rational line,
        else one _sum_spread at the line's conductor."""
        conductors = g_conductors + [x.conductor for x in fline if isinstance(x, CycScalar)]
        if not conductors:
            return [sum(gl * fline[k] for (_, gl), k in zip(terms, ks)) for ks in picks]
        n = lcm(*conductors)
        if n not in g_spread:
            g_spread[n] = [_spread(gl, n) for _, gl in terms]
        gs, fs = g_spread[n], [_spread(x, n) for x in fline]
        return [_sum_spread(zip(gs, [fs[k] for k in ks]), n) for ks in picks]

    out[0] = line_sums([fvals[0]], [[0] * len(terms)])[0]
    picks = [[mul[li][mu] - 1 for li, _ in terms] for mu in units]
    for _, moved in lines[1:]:
        for v, value in zip(moved, line_sums([fvals[j] for j in moved], picks)):
            out[v] = value
    return TraceFunction(field, d, out)


_TABLE_POINTS = 256  # the line tables of F_q^d are cached up to this size


@lru_cache(maxsize=16)
def _index_tables(field: Fq, d: int) -> list[tuple[list, list]]:
    """The lines through 0 of F_q^d, each once, ordered by their first
    point c in lexicographic order, as pairs (dots, moved): dots[v] =
    <v, c> for every v in lexicographic order, and moved[k] the index of
    lam c for the k-th unit lam in field.units() order.  The origin is
    its own line, with moved = [0]."""
    q, add, mul = field.q, field._add, field._mul
    seen, lines = set(), []
    for i, c in enumerate(_points(q, d)):
        if i not in seen:
            moved = [_index(q, [row[a] for a in c]) for row in mul[1:]] if i else [0]
            seen.update(moved)
            dots = [0]
            for a in c:  # one coordinate at a time
                dots = [add[x][y] for x in dots for y in mul[a]]
            lines.append((dots, moved))
    return lines


def _lines(field: Fq, d: int) -> list[tuple[list, list]]:
    """The line table of F_q^d, cached up to _TABLE_POINTS points."""
    return (_index_tables if field.q**d <= _TABLE_POINTS else _index_tables.__wrapped__)(field, d)


def kernel_pair_sum(q, d: int, w: tuple, u: tuple) -> int:
    """Exact value of sum_xi t_B(<w, xi>) t_B(<xi, u>).

    Expanding t_B = 1 - q [argument = 1] reduces the sum to counts of
    solutions of one or two linear equations over F_q, so the value
    comes from a dependence test on w and u rather than a q^d-term loop.
    A rank d < 1, or a w or u that is not a point of F_q^d, raises
    UnsupportedInputError.
    """
    at_least("dimension d =", d, 1)
    field = Fq(q)
    return _pair_sum_row(field, d, _point(field.q, w, d), [_point(field.q, u, d)])[0]


def _pair_sum_row(field: Fq, d: int, w: tuple, us) -> list[int]:
    """sum_xi t_B(<w, xi>) t_B(<xi, u>) for each point u (a tuple) in us.
    The sum is q^d - q #{w.xi = 1} - q #{u.xi = 1} + q^2 #{w.xi = 1 = u.xi}.
    One equation has q^(d-1) solutions when its form is nonzero; two have
    q^(d-2) when the forms are independent, q^(d-1) when they are equal,
    and none otherwise.  So the sum is q^d when w = u = 0, (q-1) q^d
    when u = w != 0, -q^d when u = lam w for lam != 0, 1, and 0 otherwise.
    """
    q, mul = field.q, field._mul
    qd = q**d
    if not any(w):
        return [0 if any(u) else qd for u in us]
    multiples = {
        tuple(mul[lam][x] for x in w): (q - 1) * qd if lam == 1 else -qd
        for lam in field.units()
    }
    return [multiples.get(u, 0) for u in us]


def scaling_orbits(q, d: int) -> list[list[tuple]]:
    """Orbits of the scaling action of F_q^x on nonzero points of F_q^d:
    the lines through 0 but the origin, each in field.units() order."""
    field = Fq(q)
    points = _points(field.q, d)
    return [[points[i] for i in moved] for _, moved in _lines(field, d)[1:]]


# ---------------------------------------------------------------------------
# Named checks.
# ---------------------------------------------------------------------------

EXHAUSTIVE_BOUND = 625
_LITERAL_BOUND = 81  # apply four_B twice literally up to this space size
# The largest q^d a check accepts: keythm's random mode up to 3^7, and the
# exhaustive checks cv-equivalence, bl2 and mon-equivalence up to 2^8.
KEYTHM_MAX_POINTS = 2187
MAX_POINTS = 256


def _space_size(field: Fq, d: int, bound: int) -> int:
    """q^d, refused for d < 1 and above bound.  No d above the bound's bit
    length fits for any q >= 2, so q**d is formed only below it."""
    at_most("dimension d =", at_least("dimension d =", d, 1), bound.bit_length())
    return at_most("q^d =", field.q**d, bound)


def check_keythm(q, d: int, seed: int = 0) -> dict:
    """Transform-squared identity: four_B(four_B(f)) = -q^d conv(t_B|units, f).

    Exhaustive over the delta basis (plus a constant function) when
    q^d <= 625; otherwise four random integer-valued functions.
    Small spaces apply the transform twice literally; larger ones use
    the exact linear-count expansion of the double sum.

    The identity needs <v, xi> = <xi, v>, which the dot product
    <v, xi> = sum_i v_i xi_i satisfies.  A nondegenerate form v^T P xi is
    the dot product after xi -> P xi, so another form adds no new case.
    d < 1 and q^d above KEYTHM_MAX_POINTS raise UnsupportedInputError
    before any transform runs.
    """
    field = Fq(q)
    q = field.q
    qd = _space_size(field, d, KEYTHM_MAX_POINTS)
    tjb = t_B_units(field)
    scale = -qd
    points = _points(q, d)
    pair_rows = {}  # w -> [kernel pair sum at (w, u) for every u]

    def lhs(f: TraceFunction) -> TraceFunction:
        if qd <= _LITERAL_BOUND:
            return four_B(four_B(f))
        vals = [0] * qd
        for w, c in zip(points, f.values):
            if not c:
                continue
            if w not in pair_rows:
                pair_rows[w] = _pair_sum_row(field, d, w, points)
            vals = [x + c * y for x, y in zip(vals, pair_rows[w])]
        return TraceFunction(field, d, vals)

    def rhs(f: TraceFunction) -> TraceFunction:
        return conv_Gm(tjb, f).scale(scale)

    cases = []
    if qd <= EXHAUSTIVE_BOUND:
        mode = "exhaustive"
        for w in points:
            cases.append(TraceFunction.delta(field, w))
        cases.append(TraceFunction.constant(field, d, 1))
    else:
        mode = "random"
        rng = random.Random(seed)
        for _ in range(4):
            cases.append(
                TraceFunction(field, d, [rng.randint(-3, 3) for _ in range(qd)])
            )
    failures = sum(1 for f in cases if lhs(f) != rhs(f))
    return {
        "verdict": failures == 0,
        "q": q,
        "d": d,
        "mode": mode,
        "cases": len(cases),
        "failures": failures,
    }


def scaling_sum_zero_basis(q, d: int) -> list[TraceFunction]:
    """Basis of {f : sum_l f(l v) = 0 for every v}: per scaling orbit,
    differences against the orbit representative."""
    field = Fq(q)
    basis = []
    for orbit in scaling_orbits(field, d):
        rep = orbit[0]
        for v in orbit[1:]:
            basis.append(
                TraceFunction.delta(field, v) - TraceFunction.delta(field, rep)
            )
    return basis


def _in_scaling_sum_zero(f: TraceFunction) -> bool:
    # the origin is the first line; every other line is a scaling orbit
    values = f.values
    return not any(sum(values[i] for i in moved) for _, moved in _lines(f.field, f.rank))


def check_CV(q, d: int) -> dict:
    """On the scaling-sum-zero subspace, four_B squares to q^(d+1) and
    preserves the subspace; a constant function is the negative control.
    d < 1 and q^d above MAX_POINTS raise UnsupportedInputError."""
    field = Fq(q)
    q = field.q
    _space_size(field, d, MAX_POINTS)
    basis = scaling_sum_zero_basis(field, d)
    factor = q ** (d + 1)
    images = [four_B(f) for f in basis]
    stable = all(_in_scaling_sum_zero(g) for g in images)
    identity_holds = all(four_B(g) == f.scale(factor) for f, g in zip(basis, images))
    const = TraceFunction.constant(field, d, 1)
    control_in = _in_scaling_sum_zero(const)
    control_identity = four_B(four_B(const)) == const.scale(factor)
    return {
        "verdict": identity_holds and stable and not control_in and not control_identity,
        "q": q,
        "d": d,
        "subspace_dim": len(basis),
        "stable": stable,
        "identity_holds": identity_holds,
        "control_rejected": not control_in and not control_identity,
    }


def check_P2B(q) -> dict:
    """Inverted-argument character sum reproduces -t_B:
    sum_{l != 0} psi(-l^-1) psi(l^-1 x) = -t_B(x), exactly in Z[zeta_p]."""
    field = Fq(q)
    q = prime("q", field.q)
    table = CharacterTable(field)
    target = -t_B(field)
    values = []
    ok = True
    for x in range(q):
        acc = 0
        for lam in field.units():
            li = field.inv(lam)
            acc = acc + table.psi(field.neg(li)) * table.psi(field.mul(li, x))
        values.append(acc)
        if acc != target.value(x):
            ok = False
    return {
        "verdict": ok,
        "q": q,
        "value_at_0": str(values[0]),
        "value_at_1": str(values[1]),
    }


def check_BL2(q, d: int = 1, seed: int = 0) -> dict:
    """Kernel transform factors through the character transform:
    four_B(f) = -conv(l -> psi(-l^-1), four_psi(f)) on a delta basis, two
    random functions and zero.  A q that is not prime, d < 1 and q^d above
    MAX_POINTS raise UnsupportedInputError."""
    field = Fq(q)
    q = prime("q", field.q)
    _space_size(field, d, MAX_POINTS)
    table = CharacterTable(field)
    gvals = [0] + [table.psi(field.neg(field.inv(lam))) for lam in field.units()]
    g = TraceFunction(field, 1, gvals)
    cases = [TraceFunction.delta(field, w) for w in _points(q, d)]
    rng = random.Random(seed)
    for _ in range(2):
        cases.append(
            TraceFunction(field, d, [rng.randint(-2, 2) for _ in range(q**d)])
        )
    cases.append(TraceFunction.zero(field, d))
    failures = 0
    for f in cases:
        lhs = four_B(f)
        rhs = -conv_Gm(g, four_psi(f))
        if lhs != rhs:
            failures += 1
    return {
        "verdict": failures == 0,
        "q": q,
        "d": d,
        "cases": len(cases),
        "failures": failures,
    }


def check_fbneq(q) -> dict:
    """Value identities separating the kernel transform from the character
    transform: four_B(delta_0) is the constant -1 and four_B(delta_1) is
    -t_B; on a prime field the two transforms differ on delta_1.

    The deeper mapping-space statement behind these values is not
    detectable from value tables; this check verifies the value-level
    identities only and says so in the report.
    """
    field = Fq(q)
    q = field.q
    d0 = four_B(TraceFunction.delta(field, 0))
    d1 = four_B(TraceFunction.delta(field, 1))
    const_ok = d0 == TraceFunction.constant(field, 1, -1)
    kernel_ok = d1 == -t_B(field)
    differs = None
    if field.e == 1 and q > 2:
        differs = d1 != four_psi(TraceFunction.delta(field, 1))
    return {
        "verdict": const_ok and kernel_ok and differs is not False,
        "q": q,
        "delta0_is_minus_one": const_ok,
        "delta1_is_minus_tB": kernel_ok,
        "differs_from_character_transform": differs,
        "note": "value-level identities only; mapping-space comparison is not "
        "detectable from trace tables",
    }


# ---------------------------------------------------------------------------
# Power-count kernels, Gauss sums, and the diagnostic suite.
# ---------------------------------------------------------------------------


def power_count_trace(q, n: int) -> TraceFunction:
    """x -> #{y in F_q^x : y^n = x} on F_q^x, 0 at the origin."""
    field = Fq(q)
    counts = [0] * field.q
    for y in field.units():
        counts[field.pow(y, n)] += 1
    counts[0] = 0
    return TraceFunction(field, 1, counts)


def gauss_sum(q, k: int) -> CycScalar:
    """Classical character sum sum_{x != 0} chi_k(x) psi_1(x)."""
    field = Fq(q)
    table = CharacterTable(field)
    return sum_of_products((table.chi(k, x), table.psi(x)) for x in field.units())


def gauss_suite(q, n: int) -> dict:
    """Power-count kernel versus character sums, and the Gauss-sum product
    identity g(chi)g(chi^-1)chi(-1) = q for every nontrivial chi of order
    dividing n; the convolution comparison is attached as a diagnostic."""
    field = Fq(q)
    q = field.q
    divides("n =", n, "q-1 =", q - 1)
    table = CharacterTable(field)
    t0 = power_count_trace(field, n)
    chars = table.chars_with_order_dividing(n)
    char_sum_ok = True
    for x in field.units():
        acc = 0
        for k in chars:
            acc = acc + table.chi(k, x)
        if acc != t0.value(x):
            char_sum_ok = False
    products = {}
    product_ok = True
    minus_one = field.neg(1)
    for k in chars:
        if k % (q - 1) == 0:
            continue
        prod = gauss_sum(field, k) * gauss_sum(field, -k) * table.chi(k, minus_one)
        products[str(k)] = str(prod)
        if prod != q:
            product_ok = False
    return {
        "verdict": char_sum_ok and product_ok,
        "q": q,
        "n": n,
        "point_count_matches_character_sum": char_sum_ok,
        "gauss_products": products,
        "gauss_product_identity": product_ok,
        "diagnostic": gauss_g_diagnostic(field, n),
    }


def _proportionality(lhs: TraceFunction, candidates) -> tuple[bool, str | None, str | None]:
    """Find a scalar c with lhs = c * candidate on the units, trying the
    named candidates in order; candidates are rational-valued."""
    units = list(lhs.field.units())
    for name, cand in candidates:
        if any(lhs.value(x) * cand.value(y) != lhs.value(y) * cand.value(x)
               for x in units for y in units):
            continue
        anchor = next((x for x in units if cand.value(x)), None)
        if anchor is None:
            continue
        if any(lhs.value(x) for x in units if not cand.value(x)):
            continue
        c = lhs.value(anchor) * (Fraction(1) / Fraction(cand.value(anchor)))
        return True, name, str(c)
    return False, None, None


def gauss_g_diagnostic(q, n: int) -> dict:
    """Convolution of the inverted character-transformed power-count kernel
    with itself, compared against scalar multiples of the power-count
    kernels; reports the measured scalar instead of asserting one."""
    field = Fq(q)
    q = field.q
    divides("n =", n, "q-1 =", q - 1)
    t0 = power_count_trace(field, n)
    tG_full = four_psi(t0)
    gvals = list(tG_full.values)
    gvals[0] = 0
    tG = TraceFunction(field, 1, gvals)
    ivals = [0] + [tG.value(field.inv(lam)) for lam in field.units()]
    tIG = TraceFunction(field, 1, ivals)
    conv = conv_Gm(tIG, tG)
    reflected = TraceFunction(
        field, 1,
        [0] + [t0.value(field.neg(x)) for x in field.units()],
    )
    proportional, name, scalar = _proportionality(
        conv, [("power_count", t0), ("power_count_reflected", reflected)]
    )
    return {
        "verdict": "diagnostic",
        "q": q,
        "n": n,
        "proportional": proportional,
        "candidate": name,
        "scalar": scalar,
        "note": "measured comparison; no expected constant asserted",
    }


def diag_propB3(q, n: int) -> dict:
    """Convolution of the power-count kernel with the restricted t_B,
    compared against q times the power-count kernel (the bookkeeping
    scalar of one inverse twist and two inverse shifts); the measured
    proportionality scalar is reported, not asserted."""
    field = Fq(q)
    q = field.q
    divides("n =", n, "q-1 =", q - 1)
    t0 = power_count_trace(field, n)
    lhs = conv_Gm(t0, t_B_units(field))
    # One inverse twist multiplies traces by q, and two inverse shifts by
    # (-1)^2 = 1.
    rhs_base = t0.scale(Fraction(q))
    proportional, name, scalar = _proportionality(lhs, [("q_times_power_count", rhs_base)])
    return {
        "verdict": "diagnostic",
        "q": q,
        "n": n,
        "twist_shift": {"twist": -1, "shift": -2},
        "proportional": proportional,
        "candidate": name,
        "scalar": scalar,
        "lhs_on_units": [str(lhs.value(x)) for x in field.units()],
        "note": "measured comparison; no expected constant asserted",
    }


def check_lem_mon_shadow(q, n: int, chi) -> dict:
    """Convolution with the power-count kernel acts on a character
    eigenfunction by the factor q-1 when the character's order divides n,
    and by 0 otherwise.  The corresponding limit statement carries the
    factor q; the finite level sees q-1 and the report says so.  chi is
    the character's index, an integer or its literal."""
    chi_index = rational("chi =", chi, integral=True)
    field = Fq(q)
    q = field.q
    divides("n =", n, "q-1 =", q - 1)
    table = CharacterTable(field)
    f = table.chi_function(chi_index)
    order = table.chi_order(chi_index)
    in_eigenspace = n % order == 0
    factor = q - 1 if in_eigenspace else 0
    conv = conv_Gm(power_count_trace(field, n), f)
    verdict = conv == f.scale(factor)
    return {
        "verdict": verdict,
        "q": q,
        "n": n,
        "chi_index": chi_index,
        "chi_order": order,
        "in_eigenspace": in_eigenspace,
        "factor": str(factor),
        "pro_limit_note": "finite-level factor is q-1; the limit statement "
        "carries q instead",
    }


# ---------------------------------------------------------------------------
# Monodromic span and the equivalence shadow.
# ---------------------------------------------------------------------------


def monodromic_span_basis(q, d: int, n: int) -> list[TraceFunction]:
    """Scaling-eigenfunction span: the delta at 0, one indicator per
    scaling orbit, and per orbit one eigenfunction for each nontrivial
    character of order dividing n."""
    field = Fq(q)
    q = field.q
    divides("n =", n, "q-1 =", q - 1)
    table = CharacterTable(field)
    basis = [TraceFunction.delta(field, tuple([0] * d))]
    orbits = [moved for _, moved in _lines(field, d)[1:]]
    for k in table.chars_with_order_dividing(n):  # k = 0 gives the indicators
        for moved in orbits:
            vals = [0] * q**d
            for lam, i in zip(field.units(), moved):
                vals[i] = table.chi(k, lam) if k else 1
            basis.append(TraceFunction(field, d, vals))
    return basis


def _cyc_rank(vectors) -> int:
    """Rank over Q(zeta_N) of row vectors with int, Fraction and
    cyclotomic entries, N the lcm of the entries' conductors.

    Each row is scaled by the lcm of its denominators, so its entries lie
    in Z[zeta_N], and sent to F_p by zeta_N -> omega for split primes
    p = 1 mod N (cyclotomic.split_prime).  A minor that is nonzero mod p
    is nonzero, so each rank mod p is a lower bound, and one equal to
    min(rows, cols) is the rank.  Otherwise primes are added until the
    square of their product exceeds H^phi(N), H the product of the r+1
    largest row scores s_i = sum_j l1(x_ij)^2 of the rows' numerators, r
    the largest rank seen; then r is the rank.  Only r+1 rows enter an
    (r+1)-minor D, and every complex embedding sends x_ij into the disc
    of radius l1(x_ij), so 0 < |N(D)| <= H^(phi(N)/2) by Hadamard's bound
    if D is nonzero; if it vanished mod every prime, their product would
    divide N(D).  Comparing squares keeps the bound in integers.
    """
    cond = 1
    for vec in vectors:
        for x in vec:
            if isinstance(x, CycScalar):
                cond = lcm(cond, x.conductor)
    # every entry as its nonzero terms (exponent of zeta_N, integer)
    cleared, scores = [], []
    for vec in vectors:
        scale = lcm(*(x.denominator for x in vec))
        row, score = [], 0
        for x in vec:
            if isinstance(x, CycScalar):
                stride, c = cond // x.conductor, scale // x.denominator
                terms = [(i * stride, c * a) for i, a in enumerate(x.numerators) if a]
            else:
                terms = [(0, x.numerator * (scale // x.denominator))] if x else []
            score += sum(abs(a) for _, a in terms) ** 2
            row.append(terms)
        cleared.append(row)
        scores.append(max(score, 1))
    scores.sort(reverse=True)
    phi = len(zeta(cond).numerators)
    full = min(len(vectors), len(vectors[0])) if vectors else 0
    rank, modulus, i = 0, 1, 0
    while rank < full and modulus**2 <= prod(scores[: rank + 1]) ** phi:
        p, omega = split_prime(cond, i)
        powers = [pow(omega, k, p) for k in range(cond)]
        rows = [
            [sum(a * powers[k] for k, a in terms) % p for terms in row]
            for row in cleared
        ]
        rank = max(rank, _rank_mod_p(rows, p))
        modulus *= p
        i += 1
    return rank


def check_mon_equivalence(q, d: int, n: int) -> dict:
    """The kernel transform restricted to the scaling-eigenfunction span
    is invertible over the cyclotomic field and preserves the span.
    d < 1 and q^d above MAX_POINTS raise UnsupportedInputError."""
    field = Fq(q)
    q = field.q
    _space_size(field, d, MAX_POINTS)
    basis = monodromic_span_basis(field, d, n)
    images = [four_B(f) for f in basis]
    base_rows = [list(f.values) for f in basis]
    image_rows = [list(f.values) for f in images]
    k = len(basis)
    rank_base = _cyc_rank(base_rows)
    rank_images = _cyc_rank(image_rows)
    preserved = _cyc_rank(base_rows + image_rows) == rank_base
    invertible = rank_images == k and rank_base == k and preserved
    return {
        "verdict": invertible,
        "q": q,
        "d": d,
        "n": n,
        "span_dim": k,
        "full_space": k == q**d,
        "image_rank": rank_images,
        "preserved": preserved,
    }
