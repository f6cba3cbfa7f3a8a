"""Exact integer linear algebra.

Two kernels carry the module: the column Hermite form with its unimodular
transform and its inverse (:func:`hnf_columns`), under kernels, unimodular
inverses, primitive completion and the Smith form, and the fraction-free
Bareiss determinant (:func:`det_bareiss`), under the adjugate.  Every kernel
returns plain Python ints (arbitrary precision); none returns a rational,
and floats never enter.  :func:`dot` and :func:`mat_vec` also accept
``fractions`` rationals.  Matrices are row-major lists of lists and are
never mutated in place by the public functions.
"""

from __future__ import annotations

import math
from operator import mul

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
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def dot(x, y):
    """x . y, exact for ints and rationals alike."""
    return sum(map(mul, x, y))


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[dot(row, col) for col in cols] for row in a]


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def det_bareiss(m) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
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


def diagonalize(gram) -> tuple[list[list[int]], list[int]]:
    """Congruent diagonalization, fraction-free, of a non-degenerate symmetric
    integer matrix: (t, pivots) with t^T gram t = diag(pivots), t integer
    and invertible.

    Step k clears column k below the pivot p by row i <- (p/g) row i -
    (c/g) row k with c = a[i][k], g = gcd(p, c), the same on column i and
    on column i of t.  Each step is a congruence, so the pivot signs give
    the signature.  A zero pivot is repaired by adding row/column j with
    a[k][j] != 0, or subtracting it.
    """
    n = len(gram)
    a = [[int(x) for x in row] for row in gram]
    cols = identity(n)                  # cols[i] is column i of t

    def combine(i, x, k, y):
        """row, column and t-column i <- x (that of i) + y (that of k)."""
        a[i] = [x * u + y * w for u, w in zip(a[i], a[k])]
        for row in a:
            row[i] = x * row[i] + y * row[k]
        cols[i] = [x * u + y * w for u, w in zip(cols[i], cols[k])]

    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                raise ValueError("degenerate block in signature computation")
            combine(k, 1, j, -1 if a[j][j] == -2 * a[k][j] else 1)
        p = a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                g = math.gcd(p, a[i][k])
                combine(i, p // g, k, -a[i][k] // g)
    return transpose(cols), [a[k][k] for k in range(n)]


def signature(gram) -> tuple[int, int]:
    """Signature (p, q) of a non-degenerate symmetric integer matrix: the
    signs of the :func:`diagonalize` pivots."""
    pivots = diagonalize(gram)[1]
    p = sum(x > 0 for x in pivots)
    return p, len(pivots) - p


def hnf_columns(m) -> tuple[list, list, list]:
    """Column-style Hermite form: returns (h, u, u_inv) with h = m @ u, u
    unimodular and u_inv = u^-1, each column step u <- u E mirrored as the
    row step u_inv <- E^-1 u_inv.

    Columns of ``h`` are echelonized left-to-right with non-negative pivots;
    zero columns are pushed to the right.  Deterministic for fixed input.
    A matrix with no rows gives ([], [], []).
    """
    cols = len(m[0]) if m else 0
    h = [list(row) for row in m]
    u, u_inv = identity(cols), identity(cols)
    hu = h + u              # the rows of h and u take the same column steps

    def col_add(dst, src, q):
        for row in hu:
            row[dst] += q * row[src]
        u_inv[src] = [a - q * b for a, b in zip(u_inv[src], u_inv[dst])]

    def col_swap(i, j):
        for row in hu:
            row[i], row[j] = row[j], row[i]
        u_inv[i], u_inv[j] = u_inv[j], u_inv[i]

    def col_neg(j):
        for row in hu:
            row[j] = -row[j]
        u_inv[j] = [-x for x in u_inv[j]]

    pivot_col = 0
    for hr in h:
        if pivot_col >= cols:
            break
        # gcd-reduce the row segment [pivot_col:] into one pivot
        while True:
            nz = [c for c in range(pivot_col, cols) if hr[c] != 0]
            if not nz:
                break
            # move the smallest non-zero entry (by abs) to pivot_col
            c0 = min(nz, key=lambda c: abs(hr[c]))
            if c0 != pivot_col:
                col_swap(c0, pivot_col)
            for c in range(pivot_col + 1, cols):
                if hr[c] != 0:
                    col_add(c, pivot_col, -(hr[c] // hr[pivot_col]))
            if not any(hr[pivot_col + 1:]):
                break
        if hr[pivot_col] != 0:
            if hr[pivot_col] < 0:
                col_neg(pivot_col)
            # reduce entries to the left of the pivot in this row
            for c in range(pivot_col):
                q = hr[c] // hr[pivot_col]
                if q:
                    col_add(c, pivot_col, -q)
            pivot_col += 1
    return h, u, u_inv


def integer_kernel(m) -> list[list[int]]:
    """Basis (list of columns) of {x integer : m @ x = 0}; saturated."""
    h, u, _ = hnf_columns(m)
    return [[row[c] for row in u] for c in range(len(u))
            if not any(row[c] for row in h)]


def snf(m) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (d, s, t) with s @ m @ t = d.

    ``d`` is diagonal with d[i] | d[i+1] and non-negative entries;
    ``s`` and ``t`` are unimodular.  Column and row Hermite forms alternate
    until the matrix is diagonal, with its zeros last; then one unimodular
    2 x 2 step per side turns each pair (p, q) of diagonal entries into
    (gcd, lcm).  A matrix with no entries is its own form.
    """
    if not m or not m[0]:
        return [[] for _ in m], identity(len(m)), []
    a, t, _ = hnf_columns(m)
    s = identity(len(m))
    while True:
        h, u, _ = hnf_columns(transpose(a))     # row operations on a
        a, s = transpose(h), mat_mul(transpose(u), s)
        if not any(x for i, row in enumerate(a)
                   for j, x in enumerate(row) if i != j):
            break
        a, u, _ = hnf_columns(a)
        t = mat_mul(t, u)
    d = [a[i][i] for i in range(min(len(a), len(a[0])))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            p, q = d[i], d[j]
            if p and q % p:
                # [[x, y], [-q/g, p/g]] diag(p, q) [[1, -y q/g], [1, x p/g]]
                # = diag(g, p q/g)
                g, x, y = xgcd(p, q)
                p, q = p // g, q // g
                d[i], d[j] = g, g * p * q
                s[i], s[j] = ([x * e + y * f for e, f in zip(s[i], s[j])],
                              [p * f - q * e for e, f in zip(s[i], s[j])])
                for row in t:
                    row[i], row[j] = (row[i] + row[j],
                                      x * p * row[j] - y * q * row[i])
    return [[d[i] if i == j else 0 for j in range(len(t))]
            for i in range(len(s))], s, t


def invariant_factors(m) -> list[int]:
    """Non-zero diagonal entries of the Smith form, in divisibility order."""
    d, _, _ = snf(m)
    return [row[i] for i, row in enumerate(d) if i < len(row) and row[i]]


def complete_primitive(col: list[int]) -> list[list[int]]:
    """Unimodular matrix whose first column is the given primitive vector.

    The Hermite transform u of the row col^T has col^T u = e_1^T, so the
    transposed inverse of u starts with col.
    """
    h, _, u_inv = hnf_columns([col])
    if h[0][0] != 1:
        raise ValueError("vector is not primitive")
    if u_inv[0] != list(col):
        raise InvariantError("completion does not start with the column")
    return transpose(u_inv)


def adjugate(m) -> list[list[int]]:
    """Integer adjugate of a square integer matrix: entry (i, j) is
    (-1)^(i+j) times the determinant of m without row j and column i, so
    m adj(m) = adj(m) m = det(m) I, singular m included."""
    n = len(m)
    return [[(-1) ** (i + j) * det_bareiss(
                [row[:i] + row[i + 1:] for k, row in enumerate(m) if k != j])
             for j in range(n)] for i in range(n)]


def mat_inverse_unimodular(m) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (integer output).

    The Hermite form of a unimodular m is the identity, so the transform u
    with m @ u = h is the inverse; any other m raises ValueError.
    """
    h, u, _ = hnf_columns(m)
    if h != identity(len(m)):
        raise ValueError("matrix is not unimodular")
    return u


def gram_of(basis_cols: list[list[int]], gram) -> list[list[int]]:
    """Gram matrix of the given integer columns under ``gram``."""
    images = [mat_vec(gram, col) for col in basis_cols]
    return [[dot(gi, col) for col in basis_cols] for gi in images]
