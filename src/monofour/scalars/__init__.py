"""Exact arithmetic substrate: rationals, polynomials, rational functions,
Smith normal forms, small finite fields, cyclotomic scalars."""

from fractions import Fraction

from .poly import Poly, UnsupportedInputError, frac, poly_gcd
from .ratfun import RatFun
from .snf import poly_rank, rational_rank
from .ffield import Fq
from .cyclotomic import CycScalar, cyclotomic_poly, zeta

__all__ = [
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
