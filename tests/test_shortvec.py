import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import domain as dm
from mukai_kit import intlinalg as ila
from mukai_kit.lattice import _sign_canonical
from mukai_kit.shortvec import short_vectors

from float_oracle import float_short_vectors, majorant_matrix


def _same(q, bound):
    got = short_vectors(q, bound)
    assert got.dtype == np.int64 and got.shape[1] == np.shape(q)[0]
    assert got.tolist() == float_short_vectors(q, bound,
                                               include_zero=False).tolist()
    return got


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(
           lambda n: st.lists(st.integers(-3, 3), min_size=n * n,
                              max_size=n * n)),
       st.integers(1, 3), st.integers(-1, 8))
def test_short_vectors_matches_recursive(entries, shift, bound):
    # integral forms put lattice points exactly on the boundary; the float
    # enumeration of float_oracle keeps them by its slack
    n = int(round(len(entries) ** 0.5))
    a = np.array(entries).reshape(n, n)
    _same(a @ a.T + shift * np.eye(n, dtype=int), bound)


def _frame_basis(frame):
    """Re z and Im z as one integer basis of the frame's plane."""
    basis = []
    for part in (frame.re, frame.im):
        xs = [F(float(x)) for x in part]
        s = math.lcm(*(x.denominator for x in xs))
        basis.append([int(x * s) for x in xs])
    return basis


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([[[2]], [[4]], [[2, 0], [0, -2]],
                        [[2, 0, 0], [0, -2, 0], [0, 0, -2]]]),
       st.integers(0, 2 ** 16))
def test_short_vectors_majorants(ns, seed):
    # Q+ of random exp frames at ranks 3-5, at the wall-candidate bound:
    # the exact integer majorant det(P) Q+ of the frame's rationals against
    # the float majorant and the float enumeration
    lat = mk.mukai_lattice(ns)
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    gl = sp.gram_L_np()
    pos = int(np.argmax(np.diag(gl)))
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=sp.rho)
    b = rng.uniform(-0.2, 0.2, size=sp.rho)
    b[pos] = rng.uniform(0.6, 2.0)
    pt = dm.tube_point(sp, a, b)
    frame = dm.exp_frame(pt)
    det, q = dm._majorant(lat.gram_rows(), _frame_basis(frame))
    bound = 2.0 + 8.0 * max(1.0, 1.0 / pt.y_norm2())
    got = short_vectors(q, F(bound) * det)
    assert got.tolist() == float_short_vectors(
        majorant_matrix(frame), bound, include_zero=False).tolist()


def test_short_vectors_edge_bounds():
    q = np.array([[2, 1], [1, 2]])
    assert _same(q, -0.5).shape == (0, 2)
    assert _same(q, 0.0).shape == (0, 2)
    assert _same(q, 2.0).tolist() == [[0, 1], [1, -1], [1, 0]]
    with pytest.raises(ValueError):
        short_vectors(-q, 1.0)


def test_short_vectors_rejects_non_integer_forms():
    # one code path: float and rational entries raise before any work
    for q in (np.array([[2.0, 1.0], [1.0, 2.0]]), [[2.5, 0], [0, 2]],
              np.array([[F(2), 0], [0, F(5, 2)]], dtype=object)):
        with pytest.raises(TypeError, match="integer form"):
            short_vectors(q, 2)
    # integer object arrays, numpy ints included, stay exact
    q = np.array([[np.int64(2), 1], [1, 2]], dtype=object)
    assert short_vectors(q, 2).tolist() == [[0, 1], [1, -1], [1, 0]]


def _box_scan(q, bound):
    """Reference: every x of the box |x_i| <= sqrt(bound (q^-1)_ii), which
    holds the ellipsoid, with exact x^T q x <= bound; sign-canonical."""
    n = len(q)
    adj, det = ila.adjugate(q), ila.det_bareiss(q)      # q^-1 = adj / det
    axes = [np.arange(-r, r + 1) for r in
            (math.isqrt(bound * adj[i][i] // det) for i in range(n))]
    xs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    assert int(np.abs(xs).max()) ** 2 * n * n * max(
        abs(x) for row in q for x in row) < 2 ** 62
    keep = np.einsum("ij,jk,ik->i", xs, np.array(q), xs) <= bound
    return sorted({_sign_canonical(tuple(x)) for x in xs[keep].tolist()
                   if any(x)})


@st.composite
def _integer_form(draw):
    """(q, x): q = s (A A^T + n I) + E, A with entries in {-1, 0, 1} and
    |E_ij| <= s / (4 n), so q is positive definite with condition number
    below 2 n + 2 and entries up to 10^9; x a short integer vector."""
    n = draw(st.integers(1, 4))
    s = draw(st.integers(10 ** 3, 10 ** 9 // (n * n + n)))
    a = np.array(draw(st.lists(st.integers(-1, 1), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    e = draw(st.lists(st.integers(-(s // (4 * n)), s // (4 * n)),
                      min_size=n * n, max_size=n * n))
    q = [[s * (int(x) + n * (i == j)) + e[min(i, j) * n + max(i, j)]
          for j, x in enumerate(row)] for i, row in enumerate(a @ a.T)]
    x = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return q, x


@settings(max_examples=150, deadline=None)
@given(_integer_form())
def test_short_vectors_exact_on_integer_forms(form):
    # the bound Q(x) puts x exactly on the ellipsoid; an integer form is
    # enumerated exactly, so x is a row and the rows are the box scan's
    q, x = form
    bound = ila.dot(x, ila.mat_vec(q, x))
    got = short_vectors(q, bound)
    assert got.dtype == np.int64
    want = _box_scan(q, bound)
    assert list(map(tuple, got.tolist())) == want
    assert not any(x) or _sign_canonical(tuple(x)) in want


def test_short_vectors_exact_edge_cases():
    # the float enumeration loses (1, -2), which lies on the bound
    q = [[9 * 10 ** 7, 8 * 10 ** 7], [8 * 10 ** 7, 9 * 10 ** 7]]
    assert [1, -2] in short_vectors(q, 13 * 10 ** 7).tolist()
    assert [1, -2] not in float_short_vectors(q, 13 * 10 ** 7).tolist()
    q = [[2, 1], [1, 2]]
    assert short_vectors(q, -1).shape == (0, 2)
    assert short_vectors(q, 1).shape == (0, 2)
    assert short_vectors(q, 2).tolist() == [[0, 1], [1, -1], [1, 0]]
    # entries past int64: Python ints throughout
    big = [[x * 10 ** 30 for x in row] for row in q]
    assert short_vectors(big, 2 * 10 ** 30).tolist() == \
        [[0, 1], [1, -1], [1, 0]]
    with pytest.raises(ValueError):
        short_vectors([[-2, 1], [1, -2]], 1)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
           lambda n: st.lists(st.integers(-2, 2), min_size=n * n,
                              max_size=n * n)),
       st.integers(1, 3), st.integers(0, 8), st.integers(2 ** 61, 2 ** 64))
@example([1, -1, 0, 1], 1, 2, 2 ** 62)  # K M = [[3, -1], [-1, 2]] 2^62
def test_short_vectors_scaled_past_int64(entries, shift, bound, k):
    # K M on nested Python ints for a small positive definite M has entries
    # of 62 bits and more, among them the range [2^63, 2^64) that a plain
    # np.asarray reads as float64; x^T (K M) x <= K B iff x^T M x <= B
    n = int(round(len(entries) ** 0.5))
    a = np.array(entries).reshape(n, n)
    m = (a @ a.T + shift * np.eye(n, dtype=int)).tolist()
    scaled = [[k * x for x in row] for row in m]
    assert short_vectors(scaled, k * bound).tolist() == \
        short_vectors(m, bound).tolist()
