"""Noncommutative operator algebras.

Two algebras are provided, with exact rational coefficients throughout
(a Weyl coefficient is an int when integral, else a Fraction):

* the shift algebra, generated by s, T, T^-1 with the commutation rule
  s*T = T*(s+1); normal form puts T-powers on the left and polynomials
  in s on the right, so every element is a finite sum T^j * p_j(s);
* the Weyl algebra in d variables (dx*x = x*dx + 1), together with its
  Laurent variant in one variable where x is invertible.

The module also houses the Mellin identification between the Laurent
algebra and the shift algebra (x -> T, dx -> T^-1 s), the Fourier
automorphism of the Weyl algebra (x -> -dx, dx -> x) and the inversion
twist of the shift algebra.  Products and the Fourier map share one
normal-ordering kernel, the Leibniz rule
dx^a x^b = sum_k C(a,k) b(b-1)...(b-k+1) x^(b-k) dx^(a-k).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Union

from .scalars import Poly, UnsupportedInputError, frac
from .scalars.poly import ExactValue, Immutable, _poly, binary_power, plain, signed_sum, term_str
from .scalars.ratfun import at_least, at_most, one_of

Scalar = Union[int, Fraction]


def falling(a: int, k: int) -> int:
    """Falling factorial a(a-1)...(a-k+1); valid for negative a."""
    out = 1
    for i in range(k):
        out *= a - i
    return out


@lru_cache(maxsize=None)
def falling_poly(b: int) -> Poly:
    """s(s-1)...(s-b+1) as a polynomial; the Mellin image of dx^b is
    T^-b times this."""
    out = Poly.const(1)
    for i in range(b):
        out = out * (Poly.x() - i)
    return out


def _trusted(cls, terms: dict, rank: int | None = None):
    """The operator of type `cls` (and `rank`, for the Weyl types) whose
    terms are `terms`, a dict already in normal form: no zero value,
    Poly values for ShiftOp, and for the Weyl types tuple keys of
    length `rank` and int values, or a Fraction where not integral.
    Nothing is checked; the public constructors validate user input."""
    out = object.__new__(cls)
    if rank is not None:
        object.__setattr__(out, "rank", rank)
    object.__setattr__(out, "terms", terms)
    return out


def _merged(pairs, start: dict | None = None) -> dict:
    """The (key, nonzero value) pairs summed per key onto a copy of
    `start`: a key whose sum is zero is deleted, and an integral Fraction
    is stored as an int."""
    out = dict(start) if start else {}
    for k, v in pairs:
        if k in out:
            v = out[k] + v
            if not v:
                del out[k]
                continue
        out[k] = plain(v) if type(v) is Fraction else v
    return out


class _Operator(ExactValue):
    """The value protocol of the operator algebras, written once.  A value
    is a dict `terms` in normal form (see `_trusted`); a subclass supplies
    `_coerce` (an operand as an operator of its own kind and rank, or
    NotImplemented; `_coerce(1)` is the unit), `_scalar_term` (a nonzero
    scalar as the one (key, value) term it adds to a sum) and `_products`
    (the (key, coefficient) terms of a product before they are summed)."""

    __slots__ = ()
    rank = None  # the shift algebra has none; the Weyl types shadow it with a slot

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def _plus(self, other, sign: int):
        """self + sign * other, touching only the keys of other."""
        if isinstance(other, (int, Fraction)):
            pairs = (self._scalar_term(other if sign > 0 else -other),) if other else ()
        else:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
            pairs = other.terms.items()
            if sign < 0:
                pairs = ((k, -c) for k, c in pairs)
        return _trusted(type(self), _merged(pairs, self.terms), self.rank)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return _trusted(type(self), {k: -c for k, c in self.terms.items()}, self.rank)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a scalar commutes with every generator, so it scales each term
            terms = _merged((k, c * other) for k, c in self.terms.items()) if other else {}
            return _trusted(type(self), terms, self.rank)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _trusted(type(self), _merged(self._products(other)), self.rank)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, n: int):
        at_least("operator power", n, 0)
        return binary_power(self, n, None) if n else self._coerce(1)


class ShiftOp(_Operator):
    """Element of the shift algebra in normal form sum_j T^j * p_j(s)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[int, Poly] = {}
        if terms:
            for j, p in terms.items():
                if not isinstance(p, Poly):
                    p = Poly.const(p)
                if not p.is_zero:
                    clean[j] = p
        object.__setattr__(self, "terms", clean)

    @classmethod
    def s(cls) -> "ShiftOp":
        return _trusted(cls, {0: Poly.x()})

    @classmethod
    def t_power(cls, j: int, coeff: "Scalar | Poly" = 1) -> "ShiftOp":
        p = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
        return _trusted(cls, {j: p} if p else {})

    def levels(self) -> list[int]:
        return sorted(self.terms)

    def coeff(self, j: int) -> Poly:
        p = self.terms.get(j)
        return Poly() if p is None else p

    @staticmethod
    def _scalar_term(c: Scalar) -> tuple:
        return 0, _poly((c.numerator,), c.denominator)

    @staticmethod
    def _coerce(other):
        if isinstance(other, ShiftOp):
            return other
        if isinstance(other, (int, Fraction, Poly)):
            return ShiftOp.t_power(0, other)
        return NotImplemented

    def _products(self, other) -> list:
        # (T^i p)(T^j q) = T^(i+j) p(s+j) q
        return [(i + j, p.shift(j) * q)
                for i, p in self.terms.items() for j, q in other.terms.items()]

    def to_str(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        many = len(self.terms) > 1
        for j in self.levels():
            p = self.terms[j]
            if j == 0:
                tpart = ""
            elif j == 1:
                tpart = "T"
            elif j > 1:
                tpart = f"T^{j}"
            elif j == -1:
                tpart = "Ti"
            else:
                tpart = f"Ti^{-j}"
            if not tpart:
                pieces.append(f"({p})" if many else str(p))
            elif p == 1:
                pieces.append(tpart)
            else:
                pieces.append(f"{tpart}*({p})")
        return " + ".join(pieces)


class _WeylBase(_Operator):
    """Shared implementation for the Weyl algebra and its Laurent variant."""

    __slots__ = ("rank", "terms")
    laurent = False

    def __init__(self, rank: int = 1, terms=None):
        if self.laurent:
            at_most("Laurent rank", at_least("Laurent rank", rank, 1), 1)
        pairs = []
        if terms:
            for key, c in terms.items():
                alpha, beta = key
                alpha = (alpha,) if isinstance(alpha, int) else tuple(alpha)
                beta = (beta,) if isinstance(beta, int) else tuple(beta)
                if len(alpha) != rank or len(beta) != rank:
                    raise UnsupportedInputError("multi-index length does not match rank")
                if any(b < 0 for b in beta):
                    raise UnsupportedInputError("negative power of dx")
                if not self.laurent and any(a < 0 for a in alpha):
                    raise UnsupportedInputError("negative power of x in the plain Weyl algebra")
                c = frac(c)
                if c:
                    pairs.append(((alpha, beta), c))
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", _merged(pairs))

    @classmethod
    def _unit(cls, rank: int, alpha: tuple, beta: tuple, c: Scalar) -> "_WeylBase":
        """c * x^alpha dx^beta, for multi-indices of length rank that are
        already valid."""
        if cls.laurent:
            at_most("Laurent rank", at_least("Laurent rank", rank, 1), 1)
        return _trusted(cls, {(alpha, beta): c} if c else {}, rank)

    @classmethod
    def x(cls, i: int = 0, rank: int = 1) -> "_WeylBase":
        alpha = _coordinate(i, rank)
        return cls._unit(rank, alpha, (0,) * rank, 1)

    @classmethod
    def dx(cls, i: int = 0, rank: int = 1) -> "_WeylBase":
        beta = _coordinate(i, rank)
        return cls._unit(rank, (0,) * rank, beta, 1)

    @classmethod
    def const(cls, c: Scalar, rank: int = 1) -> "_WeylBase":
        return cls._unit(rank, (0,) * rank, (0,) * rank, plain(frac(c)))

    def _scalar_term(self, c: Scalar) -> tuple:
        zero = (0,) * self.rank
        return (zero, zero), plain(c)

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return type(self).const(other, self.rank)
        if isinstance(other, type(self)):
            if other.rank != self.rank:
                raise ValueError("rank mismatch")
            return other
        return NotImplemented

    def _products(self, other) -> list:
        pairs = []
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                c12 = c1 * c2
                for alpha, beta, n in _normal_product(a1, b1, a2, b2):
                    pairs.append(((alpha, beta), c12 if n == 1 else c12 * n))
        return pairs

    def _monomial_str(self, alpha, beta) -> str:
        parts = []
        for i in range(self.rank):
            name = "x" if self.rank == 1 else f"x{i + 1}"
            if alpha[i] == 1:
                parts.append(name)
            elif alpha[i] != 0:
                parts.append(f"{name}^{alpha[i]}")
        for i in range(self.rank):
            name = "dx" if self.rank == 1 else f"dx{i + 1}"
            if beta[i] == 1:
                parts.append(name)
            elif beta[i] != 0:
                parts.append(f"{name}^{beta[i]}")
        return "*".join(parts)

    def to_str(self) -> str:
        return signed_sum(
            term_str(self.terms[k], self._monomial_str(*k)) for k in sorted(self.terms)
        )


@lru_cache(maxsize=4096)
def _normal_product(a1, b1, a2, b2) -> tuple:
    """Normal-order (x^a1 dx^b1)(x^a2 dx^b2) coordinate by coordinate, as
    a tuple of (alpha, beta, int coefficient) triples.  Memoised: the
    products and the Fourier map meet the same few exponent quadruples
    over and over."""
    combos = (((), (), 1),)
    for i in range(len(a1)):
        coords = []
        for k in range(b1[i] + 1):
            c = comb(b1[i], k) * falling(a2[i], k)
            if c:
                coords.append((a1[i] + a2[i] - k, b1[i] + b2[i] - k, c))
        combos = tuple(
            (alpha + (a,), beta + (b,), c * c2)
            for alpha, beta, c in combos
            for a, b, c2 in coords
        )
    return combos


class WeylOp(_WeylBase):
    """Polynomial differential operator in normal order x^alpha dx^beta."""

    __slots__ = ()
    laurent = False


class LaurentWeylOp(_WeylBase):
    """Rank-1 differential operator with x invertible."""

    __slots__ = ()
    laurent = True


def _coordinate(i: int, rank: int) -> tuple[int, ...]:
    """The multi-index of the i-th coordinate at the given rank."""
    at_least("rank", rank, 1)
    if not 0 <= i < rank:
        raise UnsupportedInputError(f"coordinate {i} outside 0..{rank - 1}")
    return tuple(1 if k == i else 0 for k in range(rank))


def to_laurent(w: WeylOp) -> LaurentWeylOp:
    if w.rank != 1:
        raise UnsupportedInputError("only rank-1 operators restrict to the torus")
    return LaurentWeylOp(1, dict(w.terms))


def mellin_op(w: "LaurentWeylOp | WeylOp") -> ShiftOp:
    """Image under the identification x -> T, x*dx -> s.

    A normal-form monomial x^a dx^b maps to T^(a-b) * s(s-1)...(s-b+1).
    """
    if w.rank != 1:
        raise UnsupportedInputError("the Mellin identification is rank 1")
    return _trusted(ShiftOp, _merged(
        (a - b, falling_poly(b) * c) for ((a,), (b,)), c in w.terms.items()
    ))


def inverse_mellin_op(sh: ShiftOp) -> LaurentWeylOp:
    """Two-sided inverse of mellin_op, via Newton forward differences."""
    terms: dict = {}
    for j, p in sh.terms.items():
        # p(s) = sum_b c_b * s(s-1)...(s-b+1) with c_b = Delta^b p(0) / b!,
        # read from one integer difference table of den*p(0), ..., den*p(deg)
        nums = p.nums
        values = [sum(c * i**k for k, c in enumerate(nums)) for i in range(len(nums))]
        for b in range(len(nums)):
            if values[0]:
                terms[((j + b,), (b,))] = plain(Fraction(values[0], p.den * factorial(b)))
            values = [y - x for x, y in zip(values, values[1:])]
    return _trusted(LaurentWeylOp, terms, 1)


def fourier_auto(w: WeylOp) -> WeylOp:
    """Algebra automorphism x_i -> -dx_i, dx_i -> x_i, in normal form."""
    if not isinstance(w, WeylOp):
        raise UnsupportedInputError("the Fourier automorphism acts on the plain Weyl algebra")
    # x^alpha dx^beta -> (-dx)^alpha x^beta = (-1)^|alpha| dx^alpha x^beta.
    zero = (0,) * w.rank
    pairs = []
    for (alpha, beta), c in w.terms.items():
        if sum(alpha) % 2:
            c = -c
        for a, b, n in _normal_product(zero, alpha, beta, zero):
            pairs.append(((a, b), c if n == 1 else c * n))
    return _trusted(WeylOp, _merged(pairs), w.rank)


def antipode(w: WeylOp) -> WeylOp:
    """The substitution x -> -x, dx -> -dx, an automorphism of the plain
    and of the Laurent algebra alike."""
    return _trusted(type(w), {
        (alpha, beta): -c if (sum(alpha) + sum(beta)) % 2 else c
        for (alpha, beta), c in w.terms.items()
    }, w.rank)


TWIST_VARIANTS = ("affine", "plain")


def inversion_twist(sh: ShiftOp, variant: str = "affine") -> ShiftOp:
    """Automorphism of the shift algebra induced by the coordinate inversion
    that sends a point to minus its reciprocal.

    Both variants send T to -T^-1.  The "plain" variant sends s to -s
    (the chain-rule image of the Euler operator); the "affine" variant
    sends s to -s-1, the adjoint-corrected form appropriate for right
    modules.  The affine variant is the default: it is the one validated
    by the exponential-square check, while the plain variant fails it.
    Both are involutions and preserve the defining commutation rule.
    """
    one_of("twist variant", variant, TWIST_VARIANTS)
    c = -1 if variant == "affine" else 0
    out: dict[int, Poly] = {}
    for j, p in sh.terms.items():
        # p(-s + c) is p(s + c) with its odd coefficients negated, and
        # T^j goes to (-1)^j T^-j.
        q = p.shift(c)
        out[-j] = _poly([-x if (k + j) % 2 else x for k, x in enumerate(q.nums)], q.den)
    return ShiftOp(out)


class CyclicPresentation(Immutable):
    """Cyclic right module D/(g)D over one of the operator algebras.

    algebra is "shift" or "weyl"; relations are stored in normal form.
    The zero relation presents the free module of rank 1; a unit relation
    presents the zero module.
    """

    __slots__ = ("algebra", "relations")

    def __init__(self, algebra: str, relations):
        object.__setattr__(self, "algebra", one_of("algebra", algebra, ("shift", "weyl")))
        object.__setattr__(self, "relations", tuple(relations))

    def single_relation(self):
        nonzero = [r for r in self.relations if r]
        if len(nonzero) > 1:
            raise UnsupportedInputError("only single-relation presentations supported")
        return nonzero[0] if nonzero else None

