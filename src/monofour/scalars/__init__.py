"""Exact arithmetic substrate: rationals, polynomials, rational functions,
Smith normal forms, small finite fields, cyclotomic scalars."""

from fractions import Fraction

from .poly import Poly, frac, poly_gcd
from .ratfun import RatFun, UnsupportedInputError
from .snf import poly_rank, rational_rank
from .ffield import Fq
from .cyclotomic import CycScalar, cyclotomic_poly, zeta

Rational = Fraction

__all__ = [
    "Rational",
    "Fraction",
    "frac",
    "Poly",
    "poly_gcd",
    "RatFun",
    "UnsupportedInputError",
    "poly_rank",
    "rational_rank",
    "Fq",
    "CycScalar",
    "cyclotomic_poly",
    "zeta",
]
