"""Exact cyclotomic scalars: elements of Q[x]/Phi_N(x).

Values of different conductors meet at the least common multiple N of
their conductors: zeta_n^i is x^(i N/n) in Z[x]/(x^N - 1), a ring
embedding because a primitive N-th root raised to N/n is a primitive
n-th root.  A product, and a sum or comparison across conductors, is
summed there by `sum_of_products` and folded into Q[x]/Phi_N once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .poly import ExactValue, Poly, Scalar, _cleared, _is_prime, _poly, binary_power, frac


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> Poly:
    """The n-th cyclotomic polynomial, computed by exact division."""
    if n < 1:
        raise ValueError("conductor must be positive")
    num = Poly.monomial(n, 1) - 1
    for d in range(1, n):
        if n % d == 0:
            num = num // cyclotomic_poly(d)
    return num


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    return cyclotomic_poly(n).degree


@lru_cache(maxsize=None)
def _zeta_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_n for k = 0 .. n-1, as phi(n) integer coefficients each.

    Phi_n is monic with integer coefficients, so every remainder is
    integral; x^k comes from x^(k-1) by one shift and one subtraction of
    a multiple of Phi_n.  Since x^n = 1 mod Phi_n, entry k mod n serves
    every exponent k.
    """
    phi = _phi(n)
    low = [-c for c in cyclotomic_poly(n).nums[:phi]]  # x^phi mod Phi_n
    out = [tuple(int(i == k) for i in range(phi)) for k in range(phi)]
    cs = low
    for _ in range(phi, n):
        out.append(tuple(cs))
        top = cs[-1]
        cs = [0] + cs[:-1]
        if top:
            cs = [c + top * r for c, r in zip(cs, low)]
    return tuple(out)


class CycScalar(ExactValue):
    """Element of the cyclotomic ring with a fixed conductor.

    Stored as integer `numerators` over one positive `denominator`, in
    lowest terms: the denominator is coprime to the numerators' content,
    and zero is 0/1, so equal values at one conductor have equal fields.
    `coeffs` is the same value as a tuple of Fractions, built on first
    use, and `_terms` the last expansion `sum_of_products` made of it,
    so a value summed many times at one conductor is expanded once.
    """

    __slots__ = ("conductor", "numerators", "denominator", "_coeffs", "_terms")

    def __init__(self, conductor: int, coeffs):
        phi = _phi(conductor)
        cs = [frac(c) for c in coeffs]
        if len(cs) > phi:
            raise ValueError("representative too long for conductor")
        nums, den = _cleared(cs)
        _init(self, conductor, nums + [0] * (phi - len(cs)), den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = self._coeffs
        if cs is None:
            den = self.denominator
            cs = tuple(Fraction(x, den) for x in self.numerators)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @classmethod
    def from_rational(cls, c: Scalar, conductor: int = 1) -> "CycScalar":
        if not isinstance(c, int):
            c = frac(c)
        nums = [0] * _phi(conductor)
        nums[0] = c.numerator
        return _cyc(conductor, nums, c.denominator)

    # Operand tests name CycScalar first: isinstance returns at once on
    # an exact type match, while a miss against Fraction, an ABC, runs
    # ABCMeta.__instancecheck__.

    def _plus(self, other, sign: int) -> "CycScalar":
        """self + sign * other over the least common denominator; across
        conductors, one sum_of_products at the lcm."""
        if not isinstance(other, CycScalar):
            other = CycScalar.from_rational(other, self.conductor)
        elif other.conductor != self.conductor:
            return sum_of_products(((self, 1), (other, sign)))
        da, db = self.denominator, other.denominator
        if da == db:
            sa, sb, den = 1, sign, da
        else:
            den = lcm(da, db)
            sa, sb = den // da, sign * (den // db)
        nums = [x * sa + y * sb for x, y in zip(self.numerators, other.numerators)]
        return _cyc(self.conductor, nums, den)

    def __add__(self, other):
        if isinstance(other, (CycScalar, int, Fraction)):
            return self._plus(other, 1)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.conductor, [-x for x in self.numerators], self.denominator)

    def __sub__(self, other):  # one pass, not through negation
        if isinstance(other, (CycScalar, int, Fraction)):
            return self._plus(other, -1)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, CycScalar):
            return sum_of_products(((self, other),))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = other.numerator
        return _cyc(
            self.conductor,
            [x * c for x in self.numerators],
            self.denominator * other.denominator,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        return binary_power(self, n, CycScalar.from_rational(1, self.conductor))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycScalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycScalar.from_rational(other, self.conductor)
        elif other.conductor != self.conductor:
            return not self._plus(other, -1)
        return self.denominator == other.denominator and self.numerators == other.numerators

    __hash__ = None  # cross-conductor equality makes hashing unreliable

    @property
    def is_zero(self) -> bool:
        return not any(self.numerators)

    def to_str(self) -> str:
        return _poly(self.numerators, self.denominator).to_str(f"z{self.conductor}")

    def __repr__(self) -> str:
        return f"CycScalar({self.conductor}, {self.to_str()})"


def _init(out: CycScalar, conductor: int, nums, den: int) -> CycScalar:
    """Fill the slots of `out` with nums/den reduced to lowest terms."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
    setter = object.__setattr__
    setter(out, "conductor", conductor)
    setter(out, "numerators", tuple(nums))
    setter(out, "denominator", den)
    setter(out, "_coeffs", None)
    setter(out, "_terms", None)
    return out


def _cyc(conductor: int, nums, den: int = 1) -> CycScalar:
    """The CycScalar nums/den at `conductor`, from phi(conductor) integer
    numerators and a positive integer denominator."""
    return _init(object.__new__(CycScalar), conductor, nums, den)


def zeta(n: int, k: int = 1) -> CycScalar:
    """The primitive n-th root of unity raised to the k-th power."""
    return _cyc(n, _zeta_powers(n)[k % n])


def sum_of_products(pairs):
    """The sum of a * b over the (a, b) pairs, equal in value, type and
    conductor to the chained `acc = 0; acc = acc + a * b`: the int 0 for
    no pairs, and with a cyclotomic operand a CycScalar at the lcm N of
    every cyclotomic operand's conductor, zeros included.

    With one, the terms are summed as integer numerators in
    Z[x]/(x^N - 1) over one denominator, zeta_n^i at x^(i N/n), and
    folded into Q[x]/Phi_N once, through _zeta_powers.
    """
    pairs = list(pairs)
    n = 0  # the lcm of the cyclotomic conductors; 0 while there is none
    for a, b in pairs:
        if isinstance(a, CycScalar):
            n = lcm(n or 1, a.conductor)
        if isinstance(b, CycScalar):
            n = lcm(n or 1, b.conductor)
    if not n:
        return sum(a * b for a, b in pairs)
    acc = [0] * (2 * n - 1)
    den = 1
    for a, b in pairs:
        ta, da = _spread(a, n)
        tb, db = _spread(b, n)
        if not (ta and tb):
            continue
        d = da * db
        if den % d:
            grown = lcm(den, d)
            acc = [x * (grown // den) for x in acc]
            den = grown
        scale = den // d
        for i, x in ta:
            x *= scale
            for j, y in tb:
                acc[i + j] += x * y
    for k in range(n, 2 * n - 1):
        acc[k - n] += acc[k]
    phi = _phi(n)
    out = acc[:phi]
    powers = _zeta_powers(n)
    for k in range(phi, n):
        c = acc[k]
        if c:
            for i, z in enumerate(powers[k]):
                if z:
                    out[i] += c * z
    return _cyc(n, out, den)


def _spread(x, n: int) -> tuple[list[tuple[int, int]], int]:
    """The nonzero terms (exponent, numerator) of x in Z[x]/(x^n - 1),
    zeta_m^i at x^(i n/m), and its denominator; a CycScalar keeps the
    terms of its last n."""
    if isinstance(x, CycScalar):
        memo = x._terms
        if memo is None or memo[0] != n:
            stride = n // x.conductor
            memo = (n, [(i * stride, c) for i, c in enumerate(x.numerators) if c])
            object.__setattr__(x, "_terms", memo)
        return memo[1], x.denominator
    return ([(0, x.numerator)] if x else []), x.denominator


@lru_cache(maxsize=None)
def split_prime(n: int, i: int) -> tuple[int, int]:
    """(p, omega) for the i-th prime p > 2^61 with p = 1 mod n, in
    increasing order, and omega a primitive n-th root of unity mod p.

    Phi_n splits into linear factors mod such a p, so zeta_n -> omega is
    a ring map Z[zeta_n] -> F_p.  Each prime is found when first asked
    for, and kept.
    """
    p = split_prime(n, i - 1)[0] + n if i else (2**61 // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    return p, _root_of_unity(n, p)


def _root_of_unity(n: int, p: int) -> int:
    """A primitive n-th root of unity mod a prime p = 1 mod n: the first
    g^((p-1)/n) that is a root of Phi_n.  Since p does not divide n,
    x^n - 1 has no repeated root mod p, so a root of Phi_n has order n."""
    nums = cyclotomic_poly(n).nums
    powers = (pow(g, (p - 1) // n, p) for g in range(2, p))
    return next(w for w in powers if sum(c * pow(w, k, p) for k, c in enumerate(nums)) % p == 0)
