"""Small finite fields F_q with table-based arithmetic.

Elements are integers 0..q-1. For prime q the encoding is the residue
itself; for q = p^e an element sum(c_i * alpha^i) is encoded in base p as
sum(c_i * p^i), where alpha is a root of a fixed irreducible modulus.
The modulus is the lexicographically least monic irreducible of degree e
over F_p (comparing coefficient tuples from the constant term up), so a
given (p, e) always yields the same tables.
"""

from __future__ import annotations

from .poly import UnsupportedInputError, at_least, at_most, convolve

_MAX_Q = 121


def _factor_prime_power(q: int) -> tuple[int, int]:
    at_least("field size", q, 2)
    p = None
    for cand in range(2, q + 1):
        if q % cand == 0:
            p = cand
            break
    e = 0
    n = q
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise UnsupportedInputError(f"field size {q} is not a prime power")
    return p, e


def fp_rem(a, b, p: int) -> list[int]:
    """Remainder of a by b over F_p, p prime (Knuth, TAOCP Vol. 2, §4.6.1,
    Algorithm D).

    Polynomials are coefficient sequences from the constant term up; b
    must be nonzero mod p.  The remainder is reduced mod p, has degree
    below deg b and carries no trailing zeros.
    """
    rem = [c % p for c in a]
    div = [c % p for c in b]
    while div and not div[-1]:
        div.pop()
    if not div:
        raise ZeroDivisionError("polynomial division by zero mod p")
    d = len(div) - 1
    inv = pow(div[-1], -1, p)
    for k in range(len(rem) - 1 - d, -1, -1):
        c = rem[k + d] * inv % p
        if c:
            for i in range(d):
                rem[k + i] = (rem[k + i] - c * div[i]) % p
    del rem[d:]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    e = len(modulus) - 1
    rem = fp_rem(convolve(a, b), modulus, p)
    return rem + [0] * (e - len(rem))


def _is_irreducible(coeffs: list[int], p: int) -> bool:
    """Check irreducibility of a monic polynomial over F_p by trial division."""
    e = len(coeffs) - 1
    if e <= 1:
        return e == 1
    # Root check covers degrees 2 and 3 completely.
    for a in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    if e <= 3:
        return True
    # Trial division by monic polynomials of degree 2..e//2.
    for deg in range(2, e // 2 + 1):
        for enc in range(p**deg):
            div = [(enc // p**i) % p for i in range(deg)] + [1]
            if not fp_rem(coeffs, div, p):
                return False
    return True


def _find_modulus(p: int, e: int) -> list[int]:
    for enc in range(p**e):
        coeffs = [(enc // p**i) % p for i in range(e)] + [1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible modulus found")


class Fq:
    """The finite field with q elements, q = p^e <= 121.

    One instance per q: `Fq(q)` returns the cached field, and a field
    passed in place of q is returned as it is, so every engine takes
    either an int or an `Fq`.
    """

    _cache: dict[int, "Fq"] = {}

    def __new__(cls, q: "int | Fq"):
        if isinstance(q, Fq):
            return q
        field = cls._cache.get(q)
        if field is None:
            # refuse q before caching, so a refused size leaves no entry
            _factor_prime_power(at_most("field size", q, _MAX_Q))
            field = cls._cache[q] = super().__new__(cls)
        return field

    def __init__(self, q: "int | Fq"):
        if hasattr(self, "q"):
            return
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        if e == 1:
            self.modulus = None
            self._add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self._mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            self.modulus = _find_modulus(p, e)
            polys = [[(enc // p**i) % p for i in range(e)] for enc in range(q)]
            self._add = [
                [
                    sum(((polys[a][i] + polys[b][i]) % p) * p**i for i in range(e))
                    for b in range(q)
                ]
                for a in range(q)
            ]
            self._mul = []
            for a in range(q):
                row = []
                for b in range(q):
                    prod = _poly_mul_mod(polys[a], polys[b], self.modulus, p)
                    row.append(sum(prod[i] * p**i for i in range(e)))
                self._mul.append(row)
        self._neg = [0] * q
        for a in range(q):
            for b in range(q):
                if self._add[a][b] == 0:
                    self._neg[a] = b
                    break
        self.generator = self._find_generator()
        # g^k for k < q-1, and its inverse map on the units
        self._exp = [1]
        for _ in range(q - 2):
            self._exp.append(self._mul[self._exp[-1]][self.generator])
        self._dlog: list[int | None] = [None] * q
        for k, a in enumerate(self._exp):
            self._dlog[a] = k
        self._inv = [None] + [self._exp[-self._dlog[a] % (q - 1)] for a in range(1, q)]

    def _find_generator(self) -> int:
        for g in range(1, self.q):
            seen = set()
            acc = 1
            for _ in range(self.q - 1):
                seen.add(acc)
                acc = self._mul[acc][g]
            if len(seen) == self.q - 1:
                return g
        raise AssertionError("no multiplicative generator")

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def pow(self, a: int, n: int) -> int:
        """a^n as g^(n * dlog a mod q-1); 0^0 = 1, and 0^n = 0 for n > 0."""
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0 if n else 1
        return self._exp[n * self._dlog[a] % (self.q - 1)]

    def dlog(self, a: int) -> int:
        """Discrete log base the fixed generator; a must be nonzero."""
        if a == 0:
            raise ValueError("dlog of 0")
        return self._dlog[a]

    def frobenius_trace(self, a: int) -> int:
        """Trace to the prime field, as an integer in [0, p)."""
        if self.e == 1:
            return a
        acc = a
        total = a
        for _ in range(self.e - 1):
            acc = self.pow(acc, self.p)
            total = self._add[total][acc]
        return total  # lies in the prime subfield, encoded as itself

    def units(self) -> range:
        return range(1, self.q)

    def __repr__(self) -> str:
        return f"Fq({self.q})"
