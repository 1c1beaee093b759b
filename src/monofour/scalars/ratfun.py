"""Rational functions in s over the rationals, with partial fractions;
and the helpers by which every module refuses input outside its domain
with the typed error."""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .cyclotomic import _is_prime
from .poly import (
    ExactValue,
    Poly,
    UnsupportedInputError,
    frac,
    integer_coeffs,
    plain,
    plain_coeffs,
    poly_gcd,
    synthetic_division,
    taylor_coeffs,
)

Scalar = Union[int, Fraction]


# The refusals.  Each returns the value it accepts, after one test, and
# builds its message only when it refuses; `name` is printed just before
# the value, as in "window radius -1" or "n = 0".


def at_least(name: str, value, low):
    if value < low:
        raise UnsupportedInputError(f"{name} {value} must be at least {low}")
    return value


def at_most(name: str, value, high):
    if value > high:
        raise UnsupportedInputError(f"{name} {value} must be at most {high}")
    return value


def divides(name: str, value: int, multiple_name: str, multiple: int) -> int:
    if value < 1 or multiple % value:
        raise UnsupportedInputError(
            f"{name} {value} must be a positive divisor of {multiple_name} {multiple}")
    return value


def prime(name: str, value: int) -> int:
    if not _is_prime(value):
        raise UnsupportedInputError(f"{name} must be prime, got {value}")
    return value


def rational(name: str, value, integral: bool = False):
    """value as a Fraction, read from its literal ('2/3', 4) unless it is
    one; with `integral`, as an int, and a non-integer is refused."""
    try:
        x = value if isinstance(value, Fraction) else Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise UnsupportedInputError(f"{name} {value!r} is not a rational number") from None
    if not integral:
        return x
    if x.denominator != 1:
        raise UnsupportedInputError(f"{name} {x} must be an integer")
    return x.numerator


def one_of(name: str, value, choices):
    if value not in choices:
        raise UnsupportedInputError(f"unknown {name} {value!r}")
    return value


def _coerce_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


class RatFun(ExactValue):
    """Quotient of polynomials, kept reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _coerce_poly(num)
        den = _coerce_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            den = Poly.const(1)
        elif num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            num, den = num // g, den // g
        lc = den.lc
        if lc != 1:
            num = num * (1 / lc)
            den = den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_poly(self) -> bool:
        return self.den.degree == 0

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

    def to_str(self, var: str = "s") -> str:
        if self.is_poly:
            return self.num.to_str(var)
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"


def _coerce_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction, Poly)):
        return RatFun(_coerce_poly(x), Poly.const(1))
    return NotImplemented


def _deflate(coeffs: list, a) -> tuple[int, list]:
    """Multiplicity of the root a of a nonzero coefficient list, and the
    cofactor left after dividing out (s - a) that many times."""
    mult = 0
    while len(coeffs) > 1:
        quotient, r = synthetic_division(coeffs, a)
        if r:
            break
        coeffs = quotient
        mult += 1
    return mult, coeffs


def linear_factors(p: Poly) -> tuple[dict[Fraction, int], Poly]:
    """Rational roots of p with multiplicities, and the cofactor of p
    (leading coefficient included) that has no rational root."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    coeffs = plain_coeffs(p)
    roots: dict[Fraction, int] = {}
    zeros = 0
    while coeffs[zeros] == 0:
        zeros += 1
    if zeros:
        roots[Fraction(0)] = zeros
        coeffs = coeffs[zeros:]
    while len(coeffs) > 1:
        root = _find_rational_root(coeffs)
        if root is None:
            break
        roots[root], coeffs = _deflate(coeffs, plain(root))
    return roots, Poly(coeffs)


def rational_roots(p: Poly) -> dict[Fraction, int]:
    """Rational roots of p with multiplicities, by trial division.

    Raises UnsupportedInputError if a nonconstant factor without rational
    roots remains.
    """
    roots, rest = linear_factors(p)
    if rest.degree > 0:
        raise UnsupportedInputError(f"nonconstant factor without rational roots: {rest}")
    return roots


def _find_rational_root(coeffs: list) -> Fraction | None:
    """A rational root of a polynomial with nonzero constant term, or None.

    Denominators are cleared, and each candidate n/d of the rational root
    theorem is tested by homogeneous Horner in integers.  Numerators are
    found by trial division up to the square root of the constant term, so
    small roots are found after few trials.
    """
    ints = integer_coeffs(coeffs)[0][::-1]  # leading coefficient first
    const, dens = abs(ints[-1]), _divisors(ints[0])
    d = 1
    while d * d <= const:
        if const % d == 0:
            for num in (d, const // d):
                for den in dens:
                    for n in (num, -num):
                        acc, scale = 0, 1
                        for c in ints:
                            acc = acc * n + c * scale
                            scale *= den
                        if acc == 0:
                            return Fraction(n, den)
        d += 1
    return None


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, from its factorization by trial
    division; the bound shrinks as factors come out, so powers of small
    primes (leading coefficients of cleared products) cost little."""
    n = abs(n)
    divs = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            divs = [d * p**e for d in divs for e in range(k + 1)]
        p += 1
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


def partial_fractions(
    f: RatFun,
) -> tuple[Poly, list[tuple[Fraction, tuple[Fraction, ...]]]]:
    """Decompose f as polynomial part plus principal parts at rational poles.

    Returns (poly_part, parts) where each entry of parts is
    (pole a, (c_1, ..., c_m)) with c_k the coefficient of 1/(s-a)^k.
    Poles are sorted ascending. Raises UnsupportedInputError when the
    denominator has a factor without rational roots.
    """
    return _partial_fractions(f.num, f.den, rational_roots(f.den))


def _partial_fractions(
    num: Poly, den: Poly, poles: dict[Fraction, int]
) -> tuple[Poly, list[tuple[Fraction, tuple[Fraction, ...]]]]:
    """partial_fractions of num/den, for a den that is a constant times
    prod (s - a)^poles[a]; num and den need not be coprime, and a
    coefficient of a pole that cancels comes out 0.  A wrong pole map
    fails the recombination guard."""
    poly_part, rem = divmod(num, den)
    if rem.is_zero:
        return poly_part, []
    rem_c, den_c = plain_coeffs(rem), plain_coeffs(den)
    parts: list[tuple[Fraction, tuple[Fraction, ...]]] = []
    cofactors = []
    for a in sorted(poles):
        m = poles[a]
        pa = plain(a)
        g = den_c
        for _ in range(m):
            g = synthetic_division(g, pa)[0]
        cofactors.append(Poly(g))
        # Taylor-expand rem/g around s = a; the first m series coefficients
        # give the principal part: coefficient of 1/(s-a)^k is h[m-k].
        h = _series_quotient(taylor_coeffs(rem_c, pa, m), taylor_coeffs(g, pa, m), m)
        parts.append((a, tuple(h[m - k] for k in range(1, m + 1))))
    # Exactness guard: recombination must reproduce num/den.  Checked as a
    # polynomial identity over the common denominator to avoid
    # normalizing intermediate sums; the cofactors den/(s-a)^k are
    # multiplied up from den/(s-a)^m, and must arrive back at den.
    acc = poly_part * den
    for (a, coefs), cofactor in zip(parts, cofactors):
        lin = Poly((-a, 1))
        for c in reversed(coefs):
            if c:
                acc = acc + cofactor * c
            cofactor = cofactor * lin
        if cofactor != den:
            raise AssertionError("partial fraction cofactor mismatch")
    if acc != num:
        raise AssertionError("partial fraction recombination mismatch")
    return poly_part, parts


def _series_quotient(num: list, den: list, order: int) -> list:
    """First `order` power series coefficients at 0 of num/den, given
    their first `order` coefficients (den[0] != 0)."""
    a = list(num) + [0] * order
    b = list(den) + [0] * order
    b0 = b[0]
    if b0 == 0:
        raise ZeroDivisionError("series division by vanishing constant term")
    h: list = []
    for j in range(order):
        acc = a[j]
        for i in range(j):
            acc -= h[i] * b[j - i]
        h.append(frac(acc) / b0)
    return h
