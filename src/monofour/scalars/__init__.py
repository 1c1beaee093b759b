"""Exact arithmetic substrate: rationals, polynomials, rational functions,
Smith normal forms, small finite fields, cyclotomic scalars.

Each name is imported from the submodule that defines it; `poly` also
holds the typed error and the refusal helpers every module uses."""
