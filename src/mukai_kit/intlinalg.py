"""Exact integer/rational linear algebra.

All routines work on plain Python ints (arbitrary precision) or
``fractions.Fraction``; floats never enter.  Matrices are row-major lists of
lists and are never mutated in place by the public functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvariantError


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det_bareiss(m) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def signature(gram) -> tuple[int, int]:
    """Signature (p, q) of a non-degenerate symmetric integer matrix.

    Congruent diagonalization over the rationals; a zero diagonal pivot is
    repaired by adding a row/column with a non-zero off-diagonal entry.
    """
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    p = q = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                raise ValueError("degenerate block in signature computation")
            for t in range(n):
                a[k][t] += a[j][t]
            for t in range(n):
                a[t][k] += a[t][j]
        piv = a[k][k]
        if piv > 0:
            p += 1
        else:
            q += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                c = a[i][k] / piv
                for t in range(k, n):
                    a[i][t] -= c * a[k][t]
                for t in range(k, n):
                    a[t][i] -= c * a[t][k]
    return p, q


def hnf_columns(m) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style Hermite form: returns (h, u) with h = m @ u, u unimodular.

    Columns of ``h`` are echelonized left-to-right with non-negative pivots;
    zero columns are pushed to the right.  Deterministic for fixed input.
    """
    rows, cols = len(m), len(m[0])
    h = [row[:] for row in m]
    u = identity(cols)

    def col_op_add(dst, src, q):
        for i in range(rows):
            h[i][dst] += q * h[i][src]
        for i in range(cols):
            u[i][dst] += q * u[i][src]

    def col_swap(i, j):
        for r in range(rows):
            h[r][i], h[r][j] = h[r][j], h[r][i]
        for r in range(cols):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def col_neg(j):
        for r in range(rows):
            h[r][j] = -h[r][j]
        for r in range(cols):
            u[r][j] = -u[r][j]

    pivot_col = 0
    for r in range(rows):
        if pivot_col >= cols:
            break
        # gcd-reduce the row segment [pivot_col:] into one pivot
        while True:
            nz = [c for c in range(pivot_col, cols) if h[r][c] != 0]
            if not nz:
                break
            # move the smallest non-zero entry (by abs) to pivot_col
            c0 = min(nz, key=lambda c: abs(h[r][c]))
            if c0 != pivot_col:
                col_swap(c0, pivot_col)
            if all(h[r][c] % h[r][pivot_col] == 0
                   for c in range(pivot_col + 1, cols)):
                for c in range(pivot_col + 1, cols):
                    if h[r][c] != 0:
                        col_op_add(c, pivot_col, -(h[r][c] // h[r][pivot_col]))
                break
            for c in range(pivot_col + 1, cols):
                if h[r][c] != 0:
                    col_op_add(c, pivot_col, -(h[r][c] // h[r][pivot_col]))
        if h[r][pivot_col] != 0:
            if h[r][pivot_col] < 0:
                col_neg(pivot_col)
            # reduce entries to the left of the pivot in this row
            for c in range(pivot_col):
                q = h[r][c] // h[r][pivot_col]
                if q:
                    col_op_add(c, pivot_col, -q)
            pivot_col += 1
    return h, u


def integer_kernel(m) -> list[list[int]]:
    """Basis (list of columns) of {x integer : m @ x = 0}; saturated."""
    h, u = hnf_columns(m)
    rows = len(m)
    cols = len(m[0])
    ker = []
    for c in range(cols):
        if all(h[r][c] == 0 for r in range(rows)):
            ker.append([u[r][c] for r in range(cols)])
    return ker


def snf(m) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (d, s, t) with s @ m @ t = d.

    ``d`` is diagonal with d[i] | d[i+1] and non-negative entries;
    ``s`` and ``t`` are unimodular.
    """
    rows, cols = len(m), len(m[0])
    a = [row[:] for row in m]
    s = identity(rows)
    t = identity(cols)

    def row_op(dst, src, q):
        for j in range(cols):
            a[dst][j] += q * a[src][j]
        for j in range(rows):
            s[dst][j] += q * s[src][j]

    def col_op(dst, src, q):
        for i in range(rows):
            a[i][dst] += q * a[i][src]
        for i in range(cols):
            t[i][dst] += q * t[i][src]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        s[i], s[j] = s[j], s[i]

    def col_swap(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    def row_neg(i):
        for j in range(cols):
            a[i][j] = -a[i][j]
        for j in range(rows):
            s[i][j] = -s[i][j]

    k = 0
    while k < min(rows, cols):
        # find smallest non-zero pivot in the trailing block
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0 and (best is None
                                     or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != k:
            row_swap(bi, k)
        if bj != k:
            col_swap(bj, k)
        # clear row and column k
        dirty = False
        for i in range(k + 1, rows):
            if a[i][k] != 0:
                q = a[i][k] // a[k][k]
                row_op(i, k, -q)
                if a[i][k] != 0:
                    dirty = True
        for j in range(k + 1, cols):
            if a[k][j] != 0:
                q = a[k][j] // a[k][k]
                col_op(j, k, -q)
                if a[k][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        viol = None
        for i in range(k + 1, rows):
            for j in range(k + 1, cols):
                if a[i][j] % a[k][k] != 0:
                    viol = i
                    break
            if viol is not None:
                break
        if viol is not None:
            row_op(k, viol, 1)
            continue
        if a[k][k] < 0:
            row_neg(k)
        k += 1
    d = [[a[i][j] if i == j else 0 for j in range(cols)] for i in range(rows)]
    return d, s, t


def invariant_factors(m) -> list[int]:
    """Non-zero diagonal entries of the Smith form, in divisibility order."""
    d, _, _ = snf(m)
    out = [d[i][i] for i in range(min(len(d), len(d[0]))) if d[i][i] != 0]
    return out


def solve_one_equation(row: list[int], target: int) -> list[int] | None:
    """Integer solution x of sum(row[i] * x[i]) = target, or None."""
    n = len(row)
    # fold with extended gcd: g = gcd(row), coeffs expressing g
    coeffs = [0] * n
    g = 0
    for i, a in enumerate(row):
        if a == 0:
            continue
        if g == 0:
            g = abs(a)
            coeffs = [0] * n
            coeffs[i] = 1 if a > 0 else -1
        else:
            g2, x, y = xgcd(g, a)
            coeffs = [c * x for c in coeffs]
            coeffs[i] += y
            g = g2
    if g == 0:
        return None if target != 0 else [0] * n
    if target % g != 0:
        return None
    q = target // g
    return [c * q for c in coeffs]


def complete_primitive(col: list[int]) -> list[list[int]]:
    """Unimodular matrix whose first column is the given primitive vector."""
    n = len(col)
    d, s, t = snf([[c] for c in col])
    if d[0][0] != 1:
        raise ValueError("vector is not primitive")
    # s @ col = e1  =>  col = s^{-1} e1: first column of s^{-1}
    sinv = mat_inverse_unimodular(s)
    u = [row[:] for row in sinv]
    # u's first column equals col up to the t-scalar (+-1)
    if t[0][0] == -1:
        for i in range(n):
            u[i][0] = -u[i][0]
    if [u[i][0] for i in range(n)] != list(col):
        raise InvariantError("completion does not start with the column")
    return u


def mat_inverse_unimodular(m) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (integer output)."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        inv[k], inv[piv] = inv[piv], inv[k]
        c = a[k][k]
        a[k] = [x / c for x in a[k]]
        inv[k] = [x / c for x in inv[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[k])]
    out = []
    for row in inv:
        irow = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
            irow.append(int(x))
        out.append(irow)
    return out


def gram_of(basis_cols: list[list[int]], gram) -> list[list[int]]:
    """Gram matrix of the given integer columns under ``gram``."""
    k = len(basis_cols)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        gi = mat_vec(gram, basis_cols[i])
        for j in range(k):
            out[i][j] = sum(gi[r] * basis_cols[j][r] for r in range(len(gi)))
    return out
