"""Smith normal forms over Z and over Q[s], and exact ranks."""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, _cleared, synthetic_division

Matrix = list[list[Poly]]

# The prime of poly_rank's full-rank certificate (a Mersenne prime, so a
# chance coincidence mod p has probability about 2^-61).
CERT_PRIME = 2**61 - 1

# The point at which poly_rank's certificate evaluates a matrix: an integer
# far from the small rationals where the checks' presentations drop rank.
_RANK_POINT = 1_000_003


def _mat_mul(a: list[list], b: list[list]) -> list[list]:
    """Matrix product over Z or Q[s]; an entry with no nonzero term is 0."""
    cols = len(b[0]) if b else 0
    return [
        [sum(x * b[k][j] for k, x in enumerate(row) if x) for j in range(cols)]
        for row in a
    ]


def _smith(m: list[list], zero, one, size, unit) -> tuple[list[list], list[list], list[list]]:
    """Smith normal form over a Euclidean domain, by elimination on pivots
    of least size.

    `size` ranks pivots (abs on Z, degree on Q[s]); `unit(x)` is the
    unit that normalises a diagonal entry x (its sign on Z, its inverse
    leading coefficient on Q[s]).  Returns (U, D, V) with U*M*V = D,
    U and V invertible, D diagonal with d_i | d_{i+1}, followed by zeros.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(row) for row in m]
    u = [[one if i == j else zero for j in range(rows)] for i in range(rows)]
    v = [[one if i == j else zero for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):  # row_i -= q * row_j
        for k in range(cols):
            d[i][k] = d[i][k] - q * d[j][k]
        for k in range(rows):
            u[i][k] = u[i][k] - q * u[j][k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for k in range(rows):
            d[k][i] = d[k][i] - q * d[k][j]
        for k in range(cols):
            v[k][i] = v[k][i] - q * v[k][j]

    t = 0
    while t < min(rows, cols):
        # Find a pivot of minimal size in the trailing block.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j]:
                    s = size(d[i][j])
                    if best is None or s < best:
                        best, pivot = s, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        d[t], d[pi] = d[pi], d[t]
        u[t], u[pi] = u[pi], u[t]
        for k in range(rows):
            d[k][t], d[k][pj] = d[k][pj], d[k][t]
        for k in range(cols):
            v[k][t], v[k][pj] = v[k][pj], v[k][t]
        p = d[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                row_op(i, t, d[i][t] // p)
                dirty = dirty or bool(d[i][t])
        for j in range(t + 1, cols):
            if d[t][j]:
                col_op(j, t, d[t][j] // p)
                dirty = dirty or bool(d[t][j])
        if dirty:
            continue
        # The pivot divides everything in its row and column; enforce that
        # it divides the rest of the block too.
        offender = next(
            (i for i in range(t + 1, rows) for j in range(t + 1, cols) if d[i][j] % p),
            None,
        )
        if offender is not None:
            row_op(t, offender, -one)  # add the offending row to the pivot row
            continue
        t += 1

    for i in range(min(rows, cols)):
        c = unit(d[i][i])
        if c != 1:
            d[i] = [x * c for x in d[i]]
            u[i] = [x * c for x in u[i]]
    if _mat_mul(_mat_mul(u, m), v) != d:
        raise AssertionError("Smith normal form verification failed")
    return u, d, v


def int_smith(m: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form over Z: (U, D, V) with U*M*V = D, det U, det V = ±1,
    and a nonnegative diagonal."""
    return _smith(m, 0, 1, abs, lambda x: -1 if x < 0 else 1)


def poly_smith(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form over Q[s]: (U, D, V) with U*M*V = D, U and V
    invertible over Q[s], and monic nonzero diagonal entries."""
    return _smith(m, Poly(), Poly.const(1), lambda p: p.degree, lambda p: 1 / p.lc if p else 1)


def poly_rank(m: Matrix) -> int:
    """Rank over Q(s) of a polynomial matrix.

    Full rank is certified mod CERT_PRIME at one point (_rank_at_point);
    any other answer comes from fraction-free elimination over Q[s]
    (_bareiss_rank).
    """
    full = min(len(m), len(m[0])) if m else 0
    if full and _rank_at_point(m, CERT_PRIME) == full:
        return full
    return _bareiss_rank([list(row) for row in m])


def _rank_at_point(m: Matrix, p: int) -> int | None:
    """Rank over F_p of M(_RANK_POINT), or None when the denominator of an
    entry vanishes mod p.

    It is a lower bound on the rank over Q(s): a minor that is nonzero
    mod p at the point is a nonzero minor of M.
    """
    a = []
    for row in m:
        values = []
        for x in row:
            if x.den % p == 0:
                return None
            value = synthetic_division(list(x.nums), _RANK_POINT)[1]
            values.append(value * pow(x.den, -1, p) % p)
        a.append(values)
    return _rank_mod_p(a, p)


def _rank_mod_p(a: list[list[int]], p: int) -> int:
    """Rank over F_p of a matrix of residues in 0 .. p-1, by row
    reduction; the rows of `a` are replaced as it runs."""
    rows = len(a)
    rank = 0
    for c in range(len(a[0]) if rows else 0):
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, rows):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], top)]
        rank += 1
    return rank


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a matrix with int or Fraction entries.

    Each row is scaled by the lcm of its denominators, which keeps the
    rank, and the integer matrix goes through _bareiss_rank.
    """
    return _bareiss_rank([_cleared(r)[0] for r in rows])


def _bareiss_rank(a: list[list]) -> int:
    """Rank of a matrix over Z or Q[s] by fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968); the rows of `a` are replaced as it
    runs.

    After k pivots every trailing entry is a (k+1)-minor, so each update
    p*a_ik - a_i*a_rk divides exactly by the previous pivot; a nonzero
    remainder means the elimination went wrong and raises.
    """
    rows = len(a)
    prev = 1
    rank = 0
    for c in range(len(a[0]) if rows else 0):
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[c]
        tail = top[c + 1:]
        # column c is never read again, so only the entries right of it
        # are updated
        for i in range(rank + 1, rows):
            row = a[i]
            ai = row[c]
            if ai:
                new = [p * x - ai * y for x, y in zip(row[c + 1:], tail)]
            else:
                new = [p * x for x in row[c + 1:]]
            if any([x % prev for x in new]):
                raise AssertionError("fraction-free elimination: inexact division")
            row[c + 1:] = [x // prev for x in new]
        prev = p
        rank += 1
    return rank
