"""Short-vector enumeration for positive definite integer quadratic forms.

Fincke-Pohst, level-synchronous: fix the coordinates from the last one
down, expanding every partial vector of a level over its whole integer
range at once (``np.repeat`` plus offsets).  Only one vector of each pair
{x, -x} is expanded: while the coordinates fixed so far are all zero the
next one runs over t >= 0 only, which the exact symmetry of the interval
bounds makes lossless.

All arithmetic is exact, in Python ints.  Bareiss elimination gives
M_k = D_k S_k (D_k the leading k x k minor, S_k the Schur complement of its
block), and x^T S_k x is the least of x^T q x over real x_0..x_{k-1}.  So
x_k = t needs (a t + beta)^2 <= beta^2 + a (D_k bound - x'^T M_k[1:, 1:] x'),
with a = M_k[0, 0], beta = M_k[0, 1:] x' and x' = x_{k+1..}, and
``math.isqrt`` gives t's exact range, a t + beta being an integer.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def short_vectors(q, bound, include_zero: bool = False) -> np.ndarray:
    """All integer x with x^T q x <= bound, one per +-x, as an int64 array.

    q is an integer form: an integer array, an object array of integers,
    or nested lists of ints; any other entries raise TypeError.  Rows are
    sorted lex; the representative of {x, -x} has positive first non-zero
    coordinate.  The zero vector is a row only with ``include_zero``; a
    negative bound gives no rows.
    """
    q = np.asarray(q)
    n = q.shape[0]
    if not all(isinstance(x, numbers.Integral) for x in q.flat):
        raise TypeError("short_vectors needs an integer form")
    if bound < 0:
        return np.zeros((0, n), dtype=np.int64)
    bound, m, dk, levels = math.floor(bound), q.astype(object), 1, []
    for _ in range(n):      # Bareiss: (D_k, M_k) for k = 0 .. n-1
        if m[0, 0] <= 0:
            raise ValueError("form is not positive definite")
        levels.append((dk, m))
        dk, m = m[0, 0], (m[0, 0] * m[1:, 1:]
                          - np.outer(m[1:, 0], m[0, 1:])) // dk
    xs = np.zeros((1, n), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        dk, m = levels[k]
        tail = xs[:, k + 1:].astype(object)
        beta = tail @ m[0, 1:]
        r = beta * beta + m[0, 0] * (
            dk * bound - ((tail @ m[1:, 1:]) * tail).sum(axis=1))
        root = np.frompyfunc(math.isqrt, 1, 1)(r)
        lo = (-((root + beta) // m[0, 0])).astype(np.int64)
        hi = ((root - beta) // m[0, 0]).astype(np.int64)
        # +-x symmetry: x_k >= 0 while every coordinate above k is zero
        np.maximum(lo, 0, out=lo, where=~xs[:, k + 1:].any(axis=1))
        counts = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(len(xs)), counts)
        starts = np.cumsum(counts) - counts
        xs = xs[parent]
        xs[:, k] = lo[parent] + np.arange(len(parent)) - starts[parent]
    if not include_zero:
        xs = xs[xs.any(axis=1)]
    # canonical sign: flip the rows whose first non-zero coordinate is < 0
    first = xs[np.arange(len(xs)), np.argmax(xs != 0, axis=1)]
    xs[first < 0] *= -1
    return xs[np.lexsort(xs.T[::-1])]
