"""Smith normal forms over Q[s] and over Z, plus small exact linear algebra."""

from __future__ import annotations

from fractions import Fraction

from .poly import Poly, poly_gcd

Matrix = list[list[Poly]]


def _identity(n: int) -> Matrix:
    return [
        [Poly.const(1) if i == j else Poly() for j in range(n)] for i in range(n)
    ]


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[Poly() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = a[i][k]
            if aik.is_zero:
                continue
            for j in range(cols):
                if not b[k][j].is_zero:
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


def poly_smith(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form over Q[s]: returns (U, D, V) with U*M*V = D.

    U and V are invertible over Q[s]; D is diagonal with monic nonzero
    entries satisfying d_i | d_{i+1}, followed by zeros.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(row) for row in m]
    u = _identity(rows)
    v = _identity(cols)

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

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for k in range(rows):
            d[k][i], d[k][j] = d[k][j], d[k][i]
        for k in range(cols):
            v[k][i], v[k][j] = v[k][j], v[k][i]

    t = 0
    while t < min(rows, cols):
        # Find a pivot of minimal degree in the trailing block.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if not d[i][j].is_zero:
                    deg = d[i][j].degree
                    if best is None or deg < best:
                        best, pivot = deg, (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        row_swap(t, pi)
        col_swap(t, pj)
        dirty = False
        for i in range(t + 1, rows):
            if not d[i][t].is_zero:
                q, r = divmod(d[i][t], d[t][t])
                row_op(i, t, q)
                if not r.is_zero:
                    dirty = True
        for j in range(t + 1, cols):
            if not d[t][j].is_zero:
                q, r = divmod(d[t][j], d[t][t])
                col_op(j, t, q)
                if not r.is_zero:
                    dirty = True
        if dirty:
            continue
        # Pivot divides everything in its row and column; enforce that it
        # divides the rest of the block too.
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if not (d[t][t].divides(d[i][j])):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, Poly.const(-1))  # add offending row to pivot row
            continue
        t += 1

    # Normalize diagonal entries to monic.
    for i in range(min(rows, cols)):
        if not d[i][i].is_zero and d[i][i].lc != 1:
            c = 1 / d[i][i].lc
            for k in range(cols):
                d[i][k] = d[i][k] * c
            for k in range(rows):
                u[i][k] = u[i][k] * c
    check = _mat_mul(_mat_mul(u, [list(row) for row in m]), v)
    if check != d:
        raise AssertionError("Smith normal form verification failed")
    return u, d, v


def poly_rank(m: Matrix) -> int:
    """Rank over Q(s) of a polynomial matrix, by fraction-free (Bareiss)
    elimination over Q[s].

    After k pivots every trailing entry is a (k+1)-minor of M, so each
    update p*a_ik - a_i*a_rk divides exactly by the previous pivot; a
    nonzero remainder means the elimination went wrong and raises.
    """
    a = [list(row) for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    prev = Poly.const(1)
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        piv = next((i for i in range(rank, rows) if not a[i][c].is_zero), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, rows):
            row = a[i]
            ai = row[c]
            for k in range(c + 1, cols):
                x = p * row[k]
                if not (ai.is_zero or top[k].is_zero):
                    x = x - ai * top[k]
                if not x.is_zero:
                    x, r = divmod(x, prev)
                    if not r.is_zero:
                        raise AssertionError("fraction-free elimination: inexact division")
                row[k] = x
        prev = p
        rank += 1
    return rank


def kernel_basis(m: Matrix) -> list[list[Poly]]:
    """Basis of the right kernel of M over Q[s], as column vectors."""
    _, d, v = poly_smith(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = sum(
        1 for i in range(min(rows, cols)) if not d[i][i].is_zero
    )
    return [[v[k][j] for k in range(cols)] for j in range(rank, cols)]


def poly_det(m: Matrix) -> "Fraction | Poly":
    """Determinant of a square polynomial matrix, by fraction-free expansion."""
    n = len(m)
    if n == 0:
        return Poly.const(1)
    if n == 1:
        return m[0][0]
    det = Poly()
    for j in range(n):
        if m[0][j].is_zero:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = m[0][j] * poly_det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def int_smith(m: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form over Z: (U, D, V) with U*M*V = D, det U, det V = ±1."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(row) for row in m]
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(i, j, q):
        for k in range(cols):
            d[i][k] -= q * d[j][k]
        for k in range(rows):
            u[i][k] -= q * u[j][k]

    def col_op(i, j, q):
        for k in range(rows):
            d[k][i] -= q * d[k][j]
        for k in range(cols):
            v[k][i] -= q * v[k][j]

    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best, pivot = abs(d[i][j]), (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        d[t], d[pi] = d[pi], d[t]
        u[t], u[pi] = u[pi], u[t]
        for k in range(rows):
            d[k][t], d[k][pj] = d[k][pj], d[k][t]
        for k in range(cols):
            v[k][t], v[k][pj] = v[k][pj], v[k][t]
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = d[i][t] // d[t][t]
                row_op(i, t, q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = d[t][j] // d[t][t]
                col_op(j, t, q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)
            continue
        t += 1

    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            for k in range(cols):
                d[i][k] = -d[i][k]
            for k in range(rows):
                u[i][k] = -u[i][k]
    # Verification.
    check = [
        [sum(u[i][a] * m[a][b] for a in range(rows)) for b in range(cols)]
        for i in range(rows)
    ]
    check = [
        [sum(check[i][a] * v[a][j] for a in range(cols)) for j in range(cols)]
        for i in range(rows)
    ]
    if check != d:
        raise AssertionError("integer Smith normal form verification failed")
    return u, d, v


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    mat = [[Fraction(c) for c in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [c * inv for c in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat, pivots


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a matrix with rational entries."""
    if not rows:
        return 0
    return len(_rref(rows)[1])


def rational_solve_dim(rows: list[list[Fraction]]) -> int:
    """Dimension of the solution space of the homogeneous system rows*x = 0."""
    if not rows:
        return 0
    return len(rows[0]) - rational_rank(rows)


def rational_kernel_basis(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the solution space of rows*x = 0, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][free]
        basis.append(vec)
    return basis
