"""Rational functions in s over the rationals, with partial fractions."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

from .poly import Poly, frac, poly_gcd

Scalar = Union[int, Fraction]


class UnsupportedInputError(ValueError):
    """Raised when an input is outside the supported exact-computation range."""


def _coerce_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


class RatFun:
    """Quotient of polynomials, kept reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if not g.is_zero and g.degree > 0:
            num, den = num // g, den // g
        lc = den.lc
        if lc != 1:
            num = num * (1 / lc)
            den = den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFun":
        return cls(p, Poly.const(1))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_poly(self) -> bool:
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_poly:
            raise ValueError("denominator is not constant")
        return self.num

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFun":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __sub__(self, other) -> "RatFun":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFun":
        return (-self) + other

    def __mul__(self, other) -> "RatFun":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = _coerce_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RatFun":
        return _coerce_ratfun(other) / self

    def shift(self, c: Scalar) -> "RatFun":
        """Return f(s + c)."""
        return RatFun(self.num.shift(c), self.den.shift(c))

    def valuation_at(self, a: Scalar) -> int:
        """Order of vanishing at s = a; poles give negative values."""
        if self.is_zero:
            raise ValueError("valuation of zero is undefined")
        a = frac(a)
        lin = Poly((-a, 1))
        v = 0
        num = self.num
        while num.eval(a) == 0:
            num = num // lin
            v += 1
        den = self.den
        while den.eval(a) == 0:
            den = den // lin
            v -= 1
        return v

    def eval(self, a: Scalar) -> Fraction:
        d = self.den.eval(a)
        if d == 0:
            raise ZeroDivisionError(f"pole at {a}")
        return self.num.eval(a) / d

    def to_str(self, var: str = "s") -> str:
        if self.is_poly:
            return self.num.to_str(var)
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"RatFun({self.to_str()})"


def _coerce_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RatFun(_coerce_poly(x), Poly.const(1))
    return NotImplemented


def rational_roots(p: Poly) -> dict[Fraction, int]:
    """Rational roots of p with multiplicities, by trial division.

    Raises UnsupportedInputError if a nonconstant factor without rational
    roots remains.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    roots: dict[Fraction, int] = {}
    # Search roots on the squarefree part: repeated factors would blow up
    # the constant term and with it the rational-root trial division.
    rem_sf = _squarefree_part(p)
    while rem_sf.degree > 0:
        root = _find_rational_root(rem_sf)
        if root is None:
            raise UnsupportedInputError(
                f"nonconstant factor without rational roots: {rem_sf}"
            )
        lin = Poly((-root, 1))
        rem_sf = rem_sf // lin
        mult = 0
        q = p
        while True:
            qq, r = divmod(q, lin)
            if not r.is_zero:
                break
            q = qq
            mult += 1
        roots[root] = mult
    return roots


def _squarefree_part(p: Poly) -> Poly:
    deriv = Poly(tuple(k * c for k, c in enumerate(p.coeffs) if k))
    if deriv.is_zero:
        return p
    return p // poly_gcd(p, deriv)


def _find_rational_root(p: Poly) -> Fraction | None:
    # Clear denominators, then apply the rational root theorem.
    denom = 1
    for c in p.coeffs:
        denom = lcm(denom, c.denominator)
    ints = [int(c * denom) for c in p.coeffs]
    while ints and ints[0] == 0:
        # s = 0 is a root
        if p.eval(0) == 0:
            return Fraction(0)
        ints = ints[1:]
    if not ints:
        return Fraction(0)
    const, lead = abs(ints[0]), abs(ints[-1])
    for num in _divisors(const):
        for den in _divisors(lead):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p.eval(cand) == 0:
                    return cand
    return None


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def partial_fractions(
    f: RatFun,
) -> tuple[Poly, list[tuple[Fraction, tuple[Fraction, ...]]]]:
    """Decompose f as polynomial part plus principal parts at rational poles.

    Returns (poly_part, parts) where each entry of parts is
    (pole a, (c_1, ..., c_m)) with c_k the coefficient of 1/(s-a)^k.
    Poles are sorted ascending. Raises UnsupportedInputError when the
    denominator has a factor without rational roots.
    """
    poly_part, rem = divmod(f.num, f.den)
    if rem.is_zero:
        return poly_part, []
    den_roots = rational_roots(f.den)
    parts: list[tuple[Fraction, tuple[Fraction, ...]]] = []
    for a in sorted(den_roots):
        m = den_roots[a]
        lin = Poly((-a, 1))
        g = f.den
        for _ in range(m):
            g = g // lin
        # Taylor-expand rem/g around s = a; the first m series coefficients
        # give the principal part: coefficient of 1/(s-a)^k is h[m-k].
        num_sh = rem.shift(a)
        g_sh = g.shift(a)
        h = _series_quotient(num_sh, g_sh, m)
        coefs = tuple(h[m - k] for k in range(1, m + 1))
        parts.append((a, coefs))
    # Exactness guard: recombination must reproduce f.  Checked as a
    # polynomial identity over the common denominator to avoid
    # normalizing intermediate sums.
    acc = poly_part * f.den
    for a, coefs in parts:
        lin = Poly((-a, 1))
        for k, c in enumerate(coefs, start=1):
            if c:
                acc = acc + (f.den // lin**k) * Poly.const(c)
    if acc != f.num:
        raise AssertionError("partial fraction recombination mismatch")
    return poly_part, parts


def _series_quotient(num: Poly, den: Poly, order: int) -> list[Fraction]:
    """First `order` power series coefficients of num/den at 0 (den(0) != 0)."""
    a = list(num.coeffs) + [Fraction(0)] * order
    b = list(den.coeffs) + [Fraction(0)] * order
    b0 = b[0]
    if b0 == 0:
        raise ZeroDivisionError("series division by vanishing constant term")
    h: list[Fraction] = []
    for j in range(order):
        acc = a[j]
        for i in range(j):
            acc -= h[i] * b[j - i]
        h.append(acc / b0)
    return h
