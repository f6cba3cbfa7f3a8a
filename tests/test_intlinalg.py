import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mukai_kit import intlinalg as ila
from mukai_kit.lattice import preset


def rand_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_xgcd_basic():
    g, x, y = ila.xgcd(12, 18)
    assert g == 6 and 12 * x + 18 * y == 6
    g, x, y = ila.xgcd(-4, 6)
    assert g == 2 and -4 * x + 6 * y == 2
    assert ila.xgcd(0, 0)[0] == 0


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_identity(a, b):
    g, x, y = ila.xgcd(a, b)
    assert a * x + b * y == g
    assert g >= 0


def test_det_bareiss():
    assert ila.det_bareiss([[0, 1], [1, 0]]) == -1
    assert ila.det_bareiss([[2]]) == 2
    assert ila.det_bareiss([[1, 2], [2, 4]]) == 0
    assert ila.det_bareiss([[0, 0, -1], [0, 2, 0], [-1, 0, 0]]) == -2
    # tuple rows, as in IntegerLattice.gram, are copied, not assigned into
    assert ila.det_bareiss(((0, 1), (1, 0))) == -1
    assert ila.det_bareiss(((0, 0, -1), (0, 2, 0), (-1, 0, 0))) == -2


def test_signature_hyperbolic():
    assert ila.signature([[0, 1], [1, 0]]) == (1, 1)
    assert ila.signature([[2]]) == (1, 0)
    assert ila.signature([[-2]]) == (0, 1)
    assert ila.signature([[0, 0, -1], [0, 6, 0], [-1, 0, 0]]) == (2, 1)


def test_signature_zero_pivot_repair():
    # adding row 1 to row 0 would leave the pivot 0 + 2 - 2 = 0
    assert ila.signature([[0, 1], [1, -2]]) == (1, 1)
    assert ila.signature([[0, 0, 1], [0, -2, 0], [1, 0, -2]]) == (1, 2)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 6))
    upper = {(i, j): draw(st.integers(-6, 6))
             for i in range(n) for j in range(i, n)}
    return [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
@example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])  # U + U
@example(preset("full_mukai").gram_rows())
@example([[0, 1], [1, -2]])
@example([[0, 0, 1], [0, -2, 0], [1, 0, -2]])
def test_diagonalize_matches_eigenvalue_signs(gram):
    # T^T G T = diag(pivots) with T integer and invertible, and the pivot
    # signs are the eigenvalue signs (|eigenvalue| >= 36^-5 here, far above
    # the float error)
    assume(ila.det_bareiss(gram) != 0)
    t, pivots = ila.diagonalize(gram)
    assert all(type(x) is int for row in t for x in row)
    assert ila.det_bareiss(t) != 0
    n = len(gram)
    assert ila.mat_mul(ila.mat_mul(ila.transpose(t), gram), t) == [
        [pivots[i] if i == j else 0 for j in range(n)] for i in range(n)]
    vals = np.linalg.eigvalsh(np.array(gram, dtype=float))
    p = int((vals > 0).sum())
    assert sum(x > 0 for x in pivots) == p
    assert ila.signature(gram) == (p, n - p)


def test_hnf_reproduces_input():
    rng = random.Random(11)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        h, u, u_inv = ila.hnf_columns(m)
        assert ila.mat_mul(m, u) == h
        assert abs(ila.det_bareiss(u)) == 1
        assert ila.mat_mul(u, u_inv) == ila.identity(len(u))
    assert ila.hnf_columns([]) == ([], [], [])


def test_integer_kernel():
    k = ila.integer_kernel([[1, 2, 3]])
    assert len(k) == 2
    for col in k:
        assert col[0] + 2 * col[1] + 3 * col[2] == 0
    assert ila.integer_kernel([[1, 0], [0, 1]]) == []
    assert ila.integer_kernel([]) == []


def test_snf_invariants():
    rng = random.Random(5)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_matrix(rng, rows, cols)
        d, s, t = ila.snf(m)
        assert ila.mat_mul(ila.mat_mul(s, m), t) == d
        assert abs(ila.det_bareiss(s)) == 1
        assert abs(ila.det_bareiss(t)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for a, b in zip(diag, diag[1:]):
            if a != 0 and b != 0:
                assert b % a == 0
            if a == 0:
                assert b == 0
        assert all(x >= 0 for x in diag)


def _determinantal_divisors(m):
    """Reference Smith diagonal: d_1 ... d_k is the gcd of the k x k
    minors of m (Bareiss determinants), up to the rank."""
    rows, cols = len(m), len(m[0])
    diag, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = math.gcd(*(ila.det_bareiss([[m[i][j] for j in cs] for i in rs])
                       for rs in itertools.combinations(range(rows), k)
                       for cs in itertools.combinations(range(cols), k)))
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return [[draw(st.integers(-6, 6)) for _ in range(cols)]
            for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(small_matrices())
@example([[2, 0, 0], [0, 0, 0], [0, 0, -3]])    # zero in the middle
@example([[2, 1], [1, -4]])
@example([])
def test_snf_matches_determinantal_divisors(m):
    d, s, t = ila.snf(m)
    assert ila.mat_mul(ila.mat_mul(s, m), t) == d
    if not m:
        assert d == s == t == []
        return
    rows, cols = len(m), len(m[0])
    assert abs(ila.det_bareiss(s)) == abs(ila.det_bareiss(t)) == 1
    diag = _determinantal_divisors(m)
    assert d == [[diag[i] if i == j and i < len(diag) else 0
                  for j in range(cols)] for i in range(rows)]
    assert ila.invariant_factors(m) == diag


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 6))
    m = [[draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        m[-1] = [2 * x for x in m[0]]           # singular
    return m


@settings(max_examples=200, deadline=None)
@given(square_matrices())
@example([[1, 2], [2, 4]])
@example([[0, 0], [0, 0]])
@example([])
def test_adjugate_times_matrix_is_det(m):
    adj = ila.adjugate(m)
    n, det = len(m), ila.det_bareiss(m)
    assert ila.mat_mul(m, adj) == ila.mat_mul(adj, m) == [
        [det if i == j else 0 for j in range(n)] for i in range(n)]
    assert ila.adjugate(tuple(map(tuple, m))) == adj


def test_invariant_factors_e8():
    # E8 Cartan matrix is unimodular
    from mukai_kit.lattice import _E8_GRAM
    assert ila.invariant_factors(_E8_GRAM) == [1] * 8


def test_complete_primitive():
    u = ila.complete_primitive([2, 3, 5])
    assert [u[i][0] for i in range(3)] == [2, 3, 5]
    assert abs(ila.det_bareiss(u)) == 1
    with pytest.raises(ValueError):
        ila.complete_primitive([2, 4])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=7))
@example([1])
@example([-1, 0, 0])
@example([0, 0, 6, 10, 15])
def test_complete_primitive_starts_with_the_vector(col):
    assume(math.gcd(*col) == 1)
    u = ila.complete_primitive(col)
    assert [row[0] for row in u] == col
    assert abs(ila.det_bareiss(u)) == 1


def test_mat_inverse_unimodular():
    m = [[1, 2], [1, 3]]
    inv = ila.mat_inverse_unimodular(m)
    assert ila.mat_mul(m, inv) == ila.identity(2)
    assert ila.mat_inverse_unimodular([]) == []  # the 0 x 0 matrix


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_mat_inverse_unimodular_matches_rational(n, data):
    # a product of elementary integer matrices (row additions, swaps and
    # negations) with entries up to 10^6 is unimodular
    m = ila.identity(n)
    ops = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                    st.integers(-1000, 1000), st.sampled_from("asn"))
    for i, j, q, kind in data.draw(st.lists(ops, max_size=40)):
        if kind == "s":
            m[i], m[j] = m[j], m[i]
        elif kind == "n":
            m[i] = [-x for x in m[i]]
        elif i != j:
            row = [x + q * y for x, y in zip(m[i], m[j])]
            if max(map(abs, row)) <= 10 ** 6:
                m[i] = row
    inv = ila.mat_inverse_unimodular(m)
    det = ila.det_bareiss(m)                    # +-1, its own inverse
    assert inv == [[det * x for x in row] for row in ila.adjugate(m)]
    assert ila.mat_mul(m, inv) == ila.identity(n)
    # scaling a row by k != +-1, or repeating a row, leaves GL_n(Z)
    i = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(2, 50) | st.integers(-50, -2) | st.just(0))
    bad = [row[:] for row in m]
    bad[i] = [k * x for x in bad[i]]
    with pytest.raises(ValueError, match="not unimodular"):
        ila.mat_inverse_unimodular(bad)
    if n > 1:
        bad = [row[:] for row in m]
        bad[i] = bad[(i + 1) % n][:]
        with pytest.raises(ValueError, match="not unimodular"):
            ila.mat_inverse_unimodular(bad)


def test_smith_form_of_the_empty_matrix():
    assert ila.snf([]) == ([], [], [])
    assert ila.invariant_factors([]) == []
    assert ila.snf([[], []]) == ([[], []], [[1, 0], [0, 1]], [])
