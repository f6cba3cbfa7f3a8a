"""Float reference for the exact short-vector path, for tests only.

The library enumerates integer forms exactly (``shortvec.short_vectors``)
and decides P0 membership on the exact rationals of a frame
(``domain.in_P0``).  This module holds their float counterparts as
independent oracles: the LDL^T factorisation, the level-synchronous
Fincke-Pohst enumeration with an absolute slack of 1e-12 on each range and
1e-9 on the partial norm, the float majorant Q+ = 2 G pi_P - G of a frame's
plane, and a float ``in_P0`` with a 1e-8 |z| tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from mukai_kit import domain as dm


def ldl(q) -> tuple[np.ndarray, np.ndarray]:
    """q = L D L^T with unit lower-triangular L, positive diagonal D."""
    a = np.array(q, dtype=float)
    n = a.shape[0]
    l = np.eye(n)
    d = np.zeros(n)
    for k in range(n):
        d[k] = a[k, k]
        if d[k] <= 0:
            raise ValueError("form is not positive definite")
        l[k + 1:, k] = a[k + 1:, k] / d[k]
        a[k + 1:, k + 1:] -= d[k] * np.outer(l[k + 1:, k], l[k + 1:, k])
    return l, d


def float_short_vectors(q, bound, include_zero=False) -> np.ndarray:
    """Every integer x with x^T q x <= bound (within the slack), one per
    +-x, sign-canonical and sorted lex, as an int64 array: level-synchronous
    Fincke-Pohst on the LDL^T factors, x_k >= 0 while x_{k+1..} = 0.
    """
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if bound < 0:
        return np.zeros((0, n), dtype=np.int64)
    l, d = ldl(q)
    remaining = np.array([float(bound)])
    # Q(x) = sum_k d[k] (x_k + sum_{i>k} l[i,k] x_i)^2; level k fixes x_k
    xs = np.zeros((1, n), dtype=np.int64)
    for k in range(n - 1, -1, -1):
        offset = np.zeros(len(xs))
        for i in range(k + 1, n):
            offset = offset + l[i, k] * xs[:, i]
        half_width = np.sqrt(np.maximum(remaining, 0.0) / d[k])
        lo = np.ceil(-half_width - offset - 1e-12).astype(np.int64)
        hi = np.floor(half_width - offset + 1e-12).astype(np.int64)
        np.maximum(lo, 0, out=lo, where=~xs[:, k + 1:].any(axis=1))
        counts = np.maximum(hi - lo + 1, 0)
        parent = np.repeat(np.arange(len(xs)), counts)
        starts = np.cumsum(counts) - counts
        t = lo[parent] + np.arange(len(parent)) - starts[parent]
        used = d[k] * (t + offset[parent]) ** 2
        keep = used <= remaining[parent] + 1e-9
        parent, t = parent[keep], t[keep]
        remaining = remaining[parent] - used[keep]
        xs = xs[parent]
        xs[:, k] = t
    if not include_zero:
        xs = xs[xs.any(axis=1)]
    first = xs[np.arange(len(xs)), np.argmax(xs != 0, axis=1)]
    xs[first < 0] *= -1
    return xs[np.lexsort(xs.T[::-1])]


def majorant_matrix(frame: dm.FrameVec) -> np.ndarray:
    """Positive definite majorant Q+ = 2 G pi_P - G of the ambient form.

    For a root delta: Q+(delta) = 2 |delta_P|^2 + 2, so roots with small
    projection onto the frame plane are exactly the Q+-short ones.
    """
    g = dm.gram_np(frame.lattice)
    b = np.stack([frame.re, frame.im], axis=1)
    pi = b @ np.linalg.solve(frame.plane_gram(), b.T @ g)
    q = 2.0 * (g @ pi) - g
    return 0.5 * (q + q.T)


def float_in_P0(frame: dm.FrameVec) -> dm.P0Certificate:
    """``in_P0`` in floats: the Q+ <= 10 candidates of the float majorant,
    and ``is_in`` iff every candidate has |z.delta| > 1e-8 max(|z|, 1)."""
    lat = frame.lattice
    xs = float_short_vectors(majorant_matrix(frame), 10.0)
    gram = np.array(lat.gram_rows())
    roots = xs[np.einsum("ij,jk,ik->i", xs, gram, xs) == -2]
    lam_min = float(np.linalg.eigvalsh(frame.plane_gram())[0])
    radius = 2.0 * math.sqrt(max(lam_min, 0.0))
    vals = abs(frame.z @ dm.gram_np(lat) @ roots.T.astype(float))
    best, witness = math.inf, None
    if len(vals):
        i = int(np.argmin(vals))
        best, witness = float(vals[i]), lat.vector(roots[i].tolist())
    is_in = best > 1e-8 * max(float(np.linalg.norm(frame.z)), 1.0)
    return dm.P0Certificate(is_in, best, witness, radius, len(roots))
