"""Exact arithmetic substrate: rationals, polynomials, rational functions,
Smith normal forms, small finite fields, cyclotomic scalars."""

from fractions import Fraction

from .poly import Poly, frac, poly_gcd
from .ratfun import RatFun, UnsupportedInputError, partial_fractions
from .snf import int_smith, poly_rank, poly_smith, rational_rank
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
    "partial_fractions",
    "UnsupportedInputError",
    "poly_smith",
    "poly_rank",
    "int_smith",
    "rational_rank",
    "Fq",
    "CycScalar",
    "cyclotomic_poly",
    "zeta",
]
