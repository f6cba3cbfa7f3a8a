import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import domain as dm
from mukai_kit.lattice import _sign_canonical
from mukai_kit.shortvec import _ldl, short_vectors


def _short_vectors_recursive(q, bound, include_zero=False):
    """Reference: depth-first Fincke-Pohst over the whole ellipsoid, one
    Python call per partial vector, then sign-canonical and sorted."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if bound < 0:
        return []
    l, d = _ldl(q)
    out = []
    x = [0] * n

    def descend(k, remaining):
        offset = sum(l[i, k] * x[i] for i in range(k + 1, n))
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
                if any(x) or include_zero:
                    out.append(tuple(x))
            else:
                descend(k - 1, remaining - used)
        x[k] = 0

    descend(n - 1, float(bound))
    return sorted({_sign_canonical(v) for v in out})


def _same(q, bound, include_zero=False):
    got = short_vectors(q, bound, include_zero)
    assert got.dtype == np.int64 and got.shape[1] == np.shape(q)[0]
    assert list(map(tuple, got.tolist())) == \
        _short_vectors_recursive(q, bound, include_zero)
    return got


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(
           lambda n: st.lists(st.integers(-3, 3), min_size=n * n,
                              max_size=n * n)),
       st.floats(1.0, 3.0), st.floats(-1.0, 8.0), st.booleans())
def test_short_vectors_matches_recursive(entries, shift, bound, include_zero):
    n = int(round(len(entries) ** 0.5))
    a = np.array(entries, dtype=float).reshape(n, n)
    q = a @ a.T + shift * np.eye(n)
    _same(q, bound, include_zero)
    # integral forms put lattice points exactly on the boundary
    _same(np.rint(q), round(bound), include_zero)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([[[2]], [[4]], [[2, 0], [0, -2]],
                        [[2, 0, 0], [0, -2, 0], [0, 0, -2]]]),
       st.integers(0, 2 ** 16))
def test_short_vectors_majorants(ns, seed):
    # Q+ of random exp frames at ranks 3-5, at the wall-candidate bound
    lat = mk.mukai_lattice(ns)
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    gl = sp.gram_L_np()
    pos = int(np.argmax(np.diag(gl)))
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=sp.rho)
    b = rng.uniform(-0.2, 0.2, size=sp.rho)
    b[pos] = rng.uniform(0.6, 2.0)
    pt = dm.tube_point(sp, a, b)
    q = dm.majorant_matrix(dm.exp_frame(pt))
    bound = 2.0 + 8.0 * max(1.0, 1.0 / pt.y_norm2())
    for include_zero in (False, True):
        _same(q, bound, include_zero)


def test_short_vectors_edge_bounds():
    q = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert _same(q, -0.5).shape == (0, 2)
    assert _same(q, 0.0).shape == (0, 2)
    assert _same(q, 0.0, include_zero=True).tolist() == [[0, 0]]
    assert _same(q, 2.0).tolist() == [[0, 1], [1, -1], [1, 0]]
    with pytest.raises(ValueError):
        short_vectors(-q, 1.0)
