"""Dense univariate polynomials over the rationals."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]

# The prime of the modular certificates in ratfun and snf (a Mersenne
# prime, so a chance coincidence mod p has probability about 2^-61).
CERT_PRIME = 2**61 - 1


def frac(x: Scalar | str) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def binary_power(base, n: int, one):
    """base**n for an int n >= 0 by right-to-left binary powering (Knuth,
    TAOCP Vol. 2, §4.6.3, Algorithm A): n.bit_length() - 1 squarings, one
    product per further set bit, and `one` is returned only for n = 0."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if not n:
            return one if out is None else out
        base = base * base


class ExactValue:
    """The value protocol shared by the exact types: immutable, true when
    nonzero, subtraction through negation and addition, and printed by
    `to_str()`.  A subclass defines `is_zero`, `__add__`, `__neg__` and
    `to_str`; setting its slots goes through `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self) -> bool:
        return not self.is_zero

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_str()})"


def term_str(c, mono: str) -> str:
    """The coefficient c times the printed monomial `mono` ('' for 1)."""
    if not mono:
        return str(c)
    if c == 1:
        return mono
    if c == -1:
        return f"-{mono}"
    return f"{c}*{mono}"


def signed_sum(terms) -> str:
    """Printed terms joined by ' + ', or by ' - ' before a negative term;
    '0' for no terms.  No printed term contains ' + ', so the joined
    ' + -' marks exactly the negative terms after the first."""
    return " + ".join(terms).replace(" + -", " - ") or "0"


class Poly(ExactValue):
    """Polynomial with Fraction coefficients, index = degree.

    Immutable; trailing zero coefficients are stripped, so the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "Poly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            return Poly(tuple(a * c for a in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return binary_power(self, n, Poly.const(1))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        rem = list(self.coeffs)
        d, lc = other.degree, other.lc
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            c = rem[-1] / lc
            q[k] = c
            for i, oc in enumerate(other.coeffs):
                rem[k + i] -= c * oc
        return Poly(q), Poly(rem)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        if self.is_zero:
            return other.is_zero
        return (other % self).is_zero

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self * (1 / self.lc)

    def eval(self, a: Scalar) -> Fraction:
        a = frac(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def shift(self, c: Scalar) -> "Poly":
        """Return p(s + c)."""
        c = frac(c)
        if c == 0 or self.is_zero:
            return self
        return Poly(taylor_coeffs(plain_coeffs(self), plain(c)))

    def compose_linear(self, a: Scalar, b: Scalar) -> "Poly":
        """Return p(a*s + b)."""
        lin = Poly((frac(b), frac(a)))
        out = Poly()
        for coef in reversed(self.coeffs):
            out = out * lin + Poly.const(coef)
        return out

    def to_str(self, var: str = "s") -> str:
        return signed_sum(
            term_str(c, "" if k == 0 else var if k == 1 else f"{var}^{k}")
            for k, c in enumerate(self.coeffs)
            if c
        )


def plain(x: Fraction) -> int | Fraction:
    """x as an int when it is integral: int arithmetic is many times
    cheaper than Fraction arithmetic."""
    return x.numerator if x.denominator == 1 else x


def plain_coeffs(p: Poly) -> list:
    """The coefficients of p (ascending) with integral ones as ints."""
    return [plain(c) for c in p.coeffs]


def integer_coeffs(coeffs) -> tuple[list[int], Fraction]:
    """The primitive integer list A and the positive content c with
    coeffs == c * A, for int or Fraction coefficients not all zero."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints], Fraction(g, den)


def synthetic_division(coeffs: list, a) -> tuple[list, Scalar]:
    """Divide sum(coeffs[i] * s**i) by (s - a) by Horner's scheme.

    Returns (quotient coefficients, remainder) in whatever number type
    the inputs have; no Poly is built.  The remainder is the value at a.
    """
    if not coeffs:
        return [], 0
    quotient = coeffs[1:]
    acc = 0
    for i in range(len(coeffs) - 1, 0, -1):
        acc = acc * a + coeffs[i]
        quotient[i - 1] = acc
    return quotient, acc * a + coeffs[0]


def taylor_coeffs(coeffs: list, a, order: int | None = None) -> list:
    """The first `order` (default: all) coefficients of p(s + a), i.e. the
    Taylor coefficients of p at a, as the remainders of repeated synthetic
    division by (s - a) (the classical Taylor shift; von zur Gathen and
    Gerhard, ISSAC 1997)."""
    out = []
    for _ in range(len(coeffs) if order is None else min(order, len(coeffs))):
        coeffs, r = synthetic_division(coeffs, a)
        out.append(r)
    return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, p) is the monic multiple of p."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return Poly()
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()
