"""Exact cyclotomic scalars: elements of Q[x]/Phi_N(x).

Mixed-conductor arithmetic promotes both operands to the least common
multiple conductor via x -> x^(M/N), which is a ring embedding because a
primitive M-th root raised to M/N is a primitive N-th root.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Union

from .poly import Poly, frac

Scalar = Union[int, Fraction]


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
    low = [-int(c) for c in cyclotomic_poly(n).coeffs[:phi]]  # x^phi mod Phi_n
    out = [tuple(int(i == k) for i in range(phi)) for k in range(phi)]
    cs = low
    for _ in range(phi, n):
        out.append(tuple(cs))
        top = cs[-1]
        cs = [0] + cs[:-1]
        if top:
            cs = [c + top * r for c, r in zip(cs, low)]
    return tuple(out)


class CycScalar:
    """Element of the cyclotomic ring with a fixed conductor."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        phi = _phi(conductor)
        cs = [frac(c) for c in coeffs]
        if len(cs) > phi:
            raise ValueError("representative too long for conductor")
        cs += [Fraction(0)] * (phi - len(cs))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("CycScalar is immutable")

    @classmethod
    def from_rational(cls, c: Scalar, conductor: int = 1) -> "CycScalar":
        return cls(conductor, (frac(c),))

    def promote(self, m: int) -> "CycScalar":
        """Inflate to conductor m (the current conductor must divide m)."""
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError("can only promote to a multiple conductor")
        stride = m // n
        powers = _zeta_powers(m)
        out = [0] * _phi(m)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, z in enumerate(powers[i * stride]):
                    if z:
                        out[j] += c * z
        return CycScalar(m, out)

    def _pair(self, other) -> tuple["CycScalar", "CycScalar"]:
        if isinstance(other, (int, Fraction)):
            other = CycScalar.from_rational(other)
        if not isinstance(other, CycScalar):
            raise TypeError(f"cannot combine CycScalar with {type(other).__name__}")
        n, m = self.conductor, other.conductor
        if n == m:
            return self, other
        l = lcm(n, m)
        return self.promote(l), other.promote(l)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            a, b = self._pair(other)
            return CycScalar(
                a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            )
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return CycScalar(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, CycScalar)):
            a, b = self._pair(other)
            return CycScalar(
                a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
            )
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            return CycScalar(self.conductor, tuple(x * c for x in self.coeffs))
        if not isinstance(other, CycScalar):
            return NotImplemented
        a, b = self._pair(other)
        phi = len(a.coeffs)
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        n = a.conductor
        powers = _zeta_powers(n)
        out = [Fraction(0)] * phi
        for k, c in enumerate(prod):
            if c:
                row = powers[k % n]
                for i in range(phi):
                    if row[i]:
                        out[i] += c * row[i]
        return CycScalar(a.conductor, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers not supported")
        out = CycScalar.from_rational(1, self.conductor)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, CycScalar)):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    __hash__ = None  # cross-conductor equality makes hashing unreliable

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def to_str(self) -> str:
        n = self.conductor
        var = f"z{n}"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                body = str(c)
            else:
                v = var if k == 1 else f"{var}^{k}"
                if c == 1:
                    body = v
                elif c == -1:
                    body = f"-{v}"
                else:
                    body = f"{c}*{v}"
            pieces.append(body)
        if not pieces:
            return "0"
        out = pieces[0]
        for body in pieces[1:]:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
        return out

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"CycScalar({self.conductor}, {self.to_str()})"


def zeta(n: int, k: int = 1) -> CycScalar:
    """The primitive n-th root of unity raised to the k-th power."""
    return CycScalar(n, _zeta_powers(n)[k % n])
