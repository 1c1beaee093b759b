"""Dense univariate polynomials over the rationals; and the typed error,
with the helpers by which every module refuses input outside its domain."""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable, Union

Scalar = Union[int, Fraction]


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


class UnsupportedInputError(ValueError):
    """Raised when an input is outside the supported exact-computation range."""


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


# The first thirteen primes as Miller-Rabin bases decide primality for
# every n < 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 86, 2017),
# far above the split primes of cyclotomic.split_prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Immutable:
    """A slots base that refuses attribute writes; a subclass sets its
    slots through `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class ExactValue(Immutable):
    """The value protocol shared by the exact types: immutable, true when
    nonzero, subtraction through negation and addition, and printed by
    `to_str()`.  A subclass defines `is_zero`, `__add__`, `__neg__` and
    `to_str`."""

    __slots__ = ()

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
    """The coefficient c times the printed monomial `mono` ('' for 1); a
    coefficient past the int-to-str digit limit is refused."""
    try:
        if not mono:
            return str(c)
        if c == 1:
            return mono
        if c == -1:
            return f"-{mono}"
        return f"{c}*{mono}"
    except ValueError:
        raise UnsupportedInputError("a coefficient is too long to print") from None


def signed_sum(terms) -> str:
    """Printed terms joined by ' + ', or by ' - ' before a negative term;
    '0' for no terms.  No printed term contains ' + ', so the joined
    ' + -' marks exactly the negative terms after the first."""
    return " + ".join(terms).replace(" + -", " - ") or "0"


class Poly(ExactValue):
    """Polynomial over the rationals, index = degree.

    Stored as a tuple `nums` of Python int numerators over one positive
    int `den`, in lowest terms: `nums` has no trailing zero and
    gcd(den, *nums) = 1, so the zero polynomial is ()/1 with degree -1
    and equal values have equal fields.  `coeffs` is the same value as
    a tuple of Fractions, built on first use.  Sums, products, division,
    evaluation and shifts run on the ints, with the content kept apart in
    the denominator (Collins, J. ACM 14, 1967; Brown, J. ACM 18, 1971).
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        nums, den = _cleared([c if type(c) is int else frac(c) for c in coeffs])
        _init(self, nums, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = self._coeffs
        if cs is None:
            den = self.den
            cs = tuple(Fraction(x, den) for x in self.nums)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls((c,))

    @classmethod
    def x(cls) -> "Poly":
        return _poly((0, 1))

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "Poly":
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def lc(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        return Fraction(self.nums[-1], self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            nums = (other.numerator,) if other else ()
            return self.nums == nums and self.den == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def _plus(self, other, sign: int) -> "Poly":
        """self + sign * other over the least common denominator."""
        if isinstance(other, Poly):
            b, db = other.nums, other.den
        else:
            b, db = (other.numerator,), other.denominator
        a, da = self.nums, self.den
        if da == db:
            sa, sb, den = 1, sign, da
        else:
            den = lcm(da, db)
            sa, sb = den // da, sign * (den // db)
        return _poly([x * sa + y * sb for x, y in zip_longest(a, b, fillvalue=0)], den)

    # Operand tests name Poly first: isinstance returns at once on an
    # exact type match, while a miss against Fraction, an ABC, runs
    # ABCMeta.__instancecheck__.

    def __add__(self, other) -> "Poly":
        if isinstance(other, (Poly, int, Fraction)):
            return self._plus(other, 1)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":  # one pass, not through negation
        if isinstance(other, (Poly, int, Fraction)):
            return self._plus(other, -1)
        return NotImplemented

    def __neg__(self) -> "Poly":
        return _poly([-x for x in self.nums], self.den)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return _poly(convolve(self.nums, other.nums), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return _poly([x * c for x in self.nums], self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return binary_power(self, n, _poly((1,)))

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        """Long division on the numerators.  A quotient term stays an int
        while the divisor's leading numerator divides exactly; otherwise
        it is a Fraction, and the rest of the division runs on Fractions."""
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        b = other.nums
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        # self = A/da and other = B/db; A = Q*B + R gives
        # self = (Q*db/da)*other + R/da.
        d, lc = len(b) - 1, b[-1]
        rem = list(self.nums)
        q = [0] * max(0, len(rem) - d)
        exact = True
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + d]
            if c:
                if c % lc:
                    c, exact = Fraction(c, lc), False
                else:
                    c //= lc
                q[k] = c
                for i in range(d):
                    rem[k + i] -= c * b[i]
        da, db = self.den, other.den
        if exact:
            return _poly([x * db for x in q], da), _poly(rem[:d], da)
        return Poly(q) * Fraction(db, da), Poly(rem[:d]) * Fraction(1, da)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        nums = self.nums
        if not nums:
            return self
        if nums[-1] < 0:
            return _poly([-x for x in nums], -nums[-1])
        return _poly(nums, nums[-1])

    def eval(self, a: Scalar) -> Fraction:
        """p(a) as a Fraction; a rational a = n/m goes through homogeneous
        Horner in integers, sum(A_i n^i m^(deg - i)) / (den m^deg)."""
        nums = self.nums
        if not nums:
            return Fraction(0)
        a = frac(a)
        n, m = a.numerator, a.denominator
        acc, scale = 0, 1
        for c in reversed(nums):
            acc = acc * n + c * scale
            scale *= m
        return Fraction(acc, self.den * m ** (len(nums) - 1))

    def shift(self, c: Scalar) -> "Poly":
        """Return p(s + c).  For c = n/m, p(s + n/m) * m^deg is the Taylor
        shift by n of B_i = A_i m^(deg - i), with coefficient k scaled
        by m^k, so the shift runs on ints."""
        if type(c) is not int:
            c = frac(c)
        if not c or not self.nums:
            return self
        nums, n, m = self.nums, c.numerator, c.denominator
        if m == 1:
            return _poly(taylor_coeffs(list(nums), n), self.den)
        d = len(nums) - 1
        b = [x * m ** (d - i) for i, x in enumerate(nums)]
        out = [x * m**k for k, x in enumerate(taylor_coeffs(b, n))]
        return _poly(out, self.den * m**d)

    def to_str(self, var: str = "s") -> str:
        # an integral int prints as the equal Fraction does
        cs = self.nums if self.den == 1 else self.coeffs
        return signed_sum(
            term_str(c, "" if k == 0 else var if k == 1 else f"{var}^{k}")
            for k, c in enumerate(cs)
            if c
        )


def _cleared(values) -> tuple[list[int], int]:
    """Int or Fraction values as int numerators over the lcm of their
    denominators, and that lcm."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _init(out: Poly, nums, den: int) -> Poly:
    """Fill the slots of `out` with nums/den: trailing zeros stripped and
    the fraction reduced to lowest terms."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    nums = nums[:n]
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
    setter = object.__setattr__
    setter(out, "nums", tuple(nums))
    setter(out, "den", den)
    setter(out, "_coeffs", None)
    return out


def _poly(nums, den: int = 1) -> Poly:
    """The Poly nums/den, for a sequence of int numerators (ascending,
    trailing zeros allowed) and a positive int denominator.  Internal
    code that already holds ints builds its results through this."""
    return _init(object.__new__(Poly), nums, den)


def convolve(a, b) -> list[int]:
    """The coefficients of the product of two int coefficient sequences
    (ascending); [] when either is empty."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def plain(x: Fraction) -> int | Fraction:
    """x as an int when it is integral: int arithmetic is many times
    cheaper than Fraction arithmetic."""
    return x.numerator if x.denominator == 1 else x


def plain_coeffs(p: Poly) -> list:
    """The coefficients of p (ascending) with integral ones as ints."""
    if p.den == 1:
        return list(p.nums)
    return [plain(c) for c in p.coeffs]


def integer_coeffs(coeffs) -> tuple[list[int], Fraction]:
    """The primitive integer list A and the positive content c with
    coeffs == c * A, for int or Fraction coefficients not all zero."""
    ints, den = _cleared(coeffs)
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
