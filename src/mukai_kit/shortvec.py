"""Short-vector enumeration for positive definite quadratic forms.

Classic Fincke-Pohst: Cholesky-factor the form, then depth-first search the
coordinate tree with exact interval bounds per level.  Inputs are float
matrices (the majorant forms are built numerically); the bound should carry
a safety margin when completeness against an exact criterion is needed.
"""

from __future__ import annotations

import numpy as np

from .lattice import _sign_canonical


def _ldl(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """q = L D L^T with unit lower-triangular L, positive diagonal D."""
    n = q.shape[0]
    l = np.eye(n)
    d = np.zeros(n)
    a = q.astype(float).copy()
    for k in range(n):
        d[k] = a[k, k]
        if d[k] <= 0:
            raise ValueError("form is not positive definite")
        for i in range(k + 1, n):
            l[i, k] = a[i, k] / d[k]
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                a[i, j] -= l[i, k] * l[j, k] * d[k]
                a[j, i] = a[i, j]
    return l, d


def short_vectors(q: np.ndarray, bound: float,
                  include_zero: bool = False) -> list[tuple[int, ...]]:
    """All integer x with x^T q x <= bound, one per +-x, sorted lex.

    The representative of {x, -x} has positive first non-zero coordinate.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if bound < 0:
        return []
    l, d = _ldl(q)
    # Q(x) = sum_k d[k] (x_k + sum_{i>k} l[i,k] x_i)^2
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def descend(k: int, remaining: float):
        # levels from last coordinate down to 0
        offset = sum(l[i, k] * x[i] for i in range(k + 1, n))
        if d[k] <= 0:
            return
        remaining = max(remaining, 0.0)
        half_width = (remaining / d[k]) ** 0.5
        lo = int(np.ceil(-half_width - offset - 1e-12))
        hi = int(np.floor(half_width - offset + 1e-12))
        for t in range(lo, hi + 1):
            x[k] = t
            used = d[k] * (t + offset) ** 2
            if used > remaining + 1e-9:
                continue
            if k == 0:
                vec = tuple(x)
                if any(vec):
                    out.append(vec)
                elif include_zero:
                    out.append(vec)
            else:
                descend(k - 1, remaining - used)
        x[k] = 0

    descend(n - 1, float(bound))
    return sorted({_sign_canonical(v) for v in out})
