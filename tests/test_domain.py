import dataclasses
import functools
import itertools
import json
import math
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mukai_kit as mk
from mukai_kit import cusps
from mukai_kit import domain as dm
from mukai_kit import intlinalg as ila
from mukai_kit.cli import main as cli_main
from mukai_kit.lattice import _sign_canonical as lattice_sign_canonical
from mukai_kit.shortvec import short_vectors
from mukai_kit.errors import (
    DegenerateAtVError,
    InvariantError,
    NonPositiveDetError,
    NotPositiveError,
    UnboundedBoxError,
)

import float_oracle
from float_oracle import float_in_P0, float_short_vectors, majorant_matrix
from root_oracle import orient_root, root_vectors


@pytest.fixture(scope="module")
def rank3():
    lat = mk.preset("mukai_rank1(1)")
    return lat, dm.split_at(lat.vector([0, 0, 1]))


@pytest.fixture(scope="module")
def rank4():
    lat = mk.mukai_lattice([[2, 0], [0, -2]], "rank4")
    return lat, dm.split_at(lat.vector([0, 0, 0, 1]))


def rand_tube(split, rng, spread=2.0):
    rho = split.rho
    gl = split.gram_L_np()
    while True:
        a = rng.normal(size=rho) * spread
        b = rng.normal(size=rho)
        # push b into the positive cone along a positive eigen-direction
        vals, vecs = np.linalg.eigh(gl)
        b = b + (abs(b @ gl @ b) + 1.0) ** 0.5 * vecs[:, -1] * 2.0
        if b @ gl @ b > 0.05:
            return dm.tube_point(split, a, b)


# -- Exp / theta / q / log --------------------------------------------------------

def test_exp_frame_examples(rank3):
    lat, sp = rank3
    z = dm.exp_frame(dm.tube_point(sp, [0], [2])).z
    assert np.allclose(z, [1, 2j, -4])
    z2 = dm.exp_frame(dm.tube_point(sp, [1], [1])).z
    assert np.allclose(z2, [1, 1 + 1j, 2j])


def test_exp_frame_normalization(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(0)
    for _ in range(100):
        pt = rand_tube(sp, rng)
        fr = dm.exp_frame(pt)
        assert abs(fr.pair_v(sp.v) + 1.0) < 1e-12
        assert abs(complex(dm.pairing(lat, fr.z, fr.z))) < 1e-9


def test_exp_rejects_nonpositive(rank3):
    lat, sp = rank3
    with pytest.raises((NotPositiveError, UnboundedBoxError, ValueError)):
        dm.tube_point(sp, [0.0], [0.0])


def test_theta_projectivity(rank3):
    lat, sp = rank3
    fr = dm.exp_frame(dm.tube_point(sp, [0.3], [1.2]))
    scaled = dm.FrameVec(lat, 3.0 * fr.z)
    assert dm.proj_distance(dm.theta(fr), dm.theta(scaled)) < 1e-12


def test_theta_gl2_fibers(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(1)
    for _ in range(100):
        pt = rand_tube(sp, rng)
        fr = dm.exp_frame(pt)
        t = rng.normal(size=(2, 2))
        if np.linalg.det(t) <= 0:
            t = t @ np.array([[0.0, 1.0], [1.0, 0.0]])
        moved = dm.gl2_act(fr, t)
        assert dm.proj_distance(dm.theta(moved), dm.theta(fr)) < 1e-9


def test_q_section_examples(rank3):
    lat, sp = rank3
    z = np.array([2, 4j, -8], dtype=complex)
    p = dm.PeriodPoint(lat, z).validate()
    w = dm.q_section(p, sp.v)
    assert np.allclose(w.z, [1, 2j, -4])
    # section property: q_v . theta restricted to the z.v = -1 slice
    fr = dm.exp_frame(dm.tube_point(sp, [0.7], [1.4]))
    again = dm.q_section(dm.theta(fr), sp.v)
    assert np.max(np.abs(again.z - fr.z)) < 1e-10


def test_q_section_degenerate(rank3):
    lat, sp = rank3
    # z with z.v0 = 0: v0 itself spans an isotropic direction of the plane?
    # use the f-side point: z built from the split at f pairs to 0 with... v0
    z = np.array([0, 1j, -0.0], dtype=complex)  # placeholder non-frame
    p = dm.PeriodPoint(lat, np.array([0.0 + 0j, 0, 1.0]))
    with pytest.raises(DegenerateAtVError):
        dm.q_section(p, lat.vector([0, 0, 1]))


def test_tube_roundtrip(rank3, rank4):
    for lat, sp in (rank3, rank4):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(300):
            pt = rand_tube(sp, rng)
            back = dm.log_tube(dm.exp_point(pt), sp)
            worst = max(worst,
                        float(np.max(np.abs(back.x - pt.x))),
                        float(np.max(np.abs(back.y - pt.y))))
        assert worst < 1e-10


def test_equivariance(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(3)
    roots = list(map(lat.vector, mk.vectors_of_norm(lat, -2, 3)))
    gens = [mk.reflection(d) for d in roots] + [mk.minus_identity(lat)]
    for _ in range(50):
        g = gens[rng.integers(0, len(gens))]
        for _ in range(rng.integers(1, 3)):
            g = g.compose(gens[rng.integers(0, len(gens))])
        pt = rand_tube(sp, rng)
        w = g.apply(sp.v)
        if not mk.is_standard(w):
            continue
        lhs = dm.apply_isometry_point(g, dm.exp_point(pt))
        rhs = dm.exp_point(dm.apply_isometry_tube(g, pt))
        assert dm.proj_distance(lhs, rhs) < 1e-10


# -- row pairings against the matmul oracle -----------------------------------

def _row_pair(data, n, complex_u, complex_w):
    """Two real or complex float arrays of n columns that pair row by row:
    one row each, N rows each, or one row against N."""
    one, many = (n,), (data.draw(st.integers(1, 5)), n)
    shapes = data.draw(st.sampled_from([(one, one), (many, many),
                                        (one, many), (many, one)]))
    floats = st.floats(-1e3, 1e3, allow_subnormal=False)

    def draw(shape, is_complex):
        x = data.draw(arrays(np.float64, shape, elements=floats))
        if is_complex:
            x = x + 1j * data.draw(arrays(np.float64, shape, elements=floats))
        return x

    return draw(shapes[0], complex_u), draw(shapes[1], complex_w)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


_PAIRING_LATTICES = (mk.preset("mukai_rank1(1)"),
                     mk.mukai_lattice([[2, 0], [0, -2]], "rank4"),
                     mk.mukai_lattice([[2, 1, 0], [1, -2, 0], [0, 0, -4]]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PAIRING_LATTICES), st.booleans(), st.booleans(),
       st.data())
def test_pairing_matches_matmul_oracle(lat, complex_u, complex_w, data):
    u, w = _row_pair(data, lat.rank, complex_u, complex_w)
    _same_bits(dm.pairing(lat, u, w), float_oracle.pairing(lat, u, w))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PAIRING_LATTICES), st.booleans(), st.booleans(),
       st.data())
def test_proj_distance_matches_matmul_oracle(lat, complex_a, complex_b,
                                             data):
    a, b = _row_pair(data, lat.rank, complex_a, complex_b)
    assume(np.all(np.linalg.norm(a, axis=-1) > 1e-3)
           and np.all(np.linalg.norm(b, axis=-1) > 1e-3))
    got = dm.proj_distance(dm.PeriodPoint(lat, a), dm.PeriodPoint(lat, b))
    _same_bits(got, float_oracle.proj_distance(a, b))


# -- plane projector ----------------------------------------------------------

def test_projector_is_a_self_adjoint_idempotent(rank3, rank4):
    for lat, sp in (rank3, rank4):
        rng = np.random.default_rng(7)
        g = lat.gram_np
        for _ in range(20):
            fr = dm.exp_frame(rand_tube(sp, rng))
            pi = fr.projector()
            tol = 1e-9 * max(1.0, float(np.max(np.abs(pi))))
            assert np.max(np.abs(pi @ pi - pi)) < tol
            # G-self-adjoint: (pi x).y = x.(pi y)
            assert np.max(np.abs(pi.T @ g - g @ pi)) < tol * np.max(abs(g))
            assert np.max(np.abs(pi @ fr.re - fr.re)) < tol * max(
                1.0, float(np.max(np.abs(fr.re))))
            assert abs(np.trace(pi) - 2.0) < 1e-9


def test_projector_rejects_a_plane_that_is_not_positive(rank4):
    lat, _ = rank4
    # in (r, l1, l2, s): (0,1,0,0)^2 = 2, (0,0,1,0)^2 = (1,0,0,1)^2 = -2;
    # an indefinite, a negative definite and a degenerate plane
    planes = [([0, 1, 0, 0], [0, 0, 1, 0]), ([1, 0, 0, 1], [0, 0, 1, 0]),
              ([0, 1, 0, 0], [0, 1, 0, 0])]
    for re, im in planes:
        z = np.array(re, dtype=float) + 1j * np.array(im, dtype=float)
        with pytest.raises(NotPositiveError):
            dm.FrameVec(lat, z).projector()


# -- GL2 factorization -------------------------------------------------------------

def test_gl2_act_identity_and_rotation(rank3):
    lat, sp = rank3
    fr = dm.exp_frame(dm.tube_point(sp, [0.1], [1.0]))
    same = dm.gl2_act(fr, np.eye(2))
    assert np.max(np.abs(same.z - fr.z)) == 0
    # conformal rotation by pi/2 multiplies by i
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    moved = dm.gl2_act(fr, rot)
    assert np.max(np.abs(moved.z - 1j * fr.z)) < 1e-12
    with pytest.raises(NonPositiveDetError):
        dm.gl2_act(fr, np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_gl2_factor_roundtrip(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(4)
    for _ in range(50):
        pt = rand_tube(sp, rng)
        t = rng.normal(size=(2, 2))
        if np.linalg.det(t) <= 0:
            t = t[::-1]
        fr = dm.gl2_act(dm.exp_frame(pt), t)
        pt2, t2 = dm.gl2_factor(fr, sp)
        assert np.max(np.abs(t - t2)) < 1e-10
        assert np.max(np.abs(pt2.x - pt.x)) < 1e-9
    # scalar frame
    fr = dm.exp_frame(dm.tube_point(sp, [0.0], [1.0]))
    _, t3 = dm.gl2_factor(dm.FrameVec(lat, 3.0 * fr.z), sp)
    assert np.allclose(t3, 3.0 * np.eye(2))


# -- wall membership ----------------------------------------------------------------

PAIR_TOL = 1e-9


def _wall_membership(p, delta, v):
    """Float oracle: classify a period point against the walls of one root
    as 'on_D', 'on_A', 'on_C' or 'off', deciding "real" with a relative
    tolerance scaled by |z.v|."""
    zd = p.pair_v(delta)
    zv = p.pair_v(v)
    scale = float(np.linalg.norm(p.z))
    dnorm = float(np.linalg.norm(np.array(delta.coords, dtype=float)))
    if abs(zd) <= PAIR_TOL * scale * max(dnorm, 1.0):
        return "on_D"
    if abs(zv) <= PAIR_TOL * scale:
        raise DegenerateAtVError("z.v = 0")
    w = -zd / zv
    vd = v.dot(delta)
    if abs(w.imag) <= PAIR_TOL * max(1.0, abs(w)):
        if -vd > 0 and w.real <= PAIR_TOL:
            return "on_A"
        if vd == 0:
            return "on_C"
    return "off"


def _point_walls(split, delta, a, b):
    """Kinds whose wall of delta meets the zero-width box at (a, b)."""
    box = dm.TubeBox.make(split, a, a, b, b)
    verdicts = {kind: dm.wall_meets_box(split, box, delta, kind)
                for kind in "ACD"}
    assert None not in verdicts.values()   # a point box is always decided
    return {kind for kind, verdict in verdicts.items() if verdict}


def test_wall_membership_cases(rank3, rank4):
    # the exact zero-width-box verdicts, and the float oracle's names
    lat, sp = rank3
    lat4, sp4 = rank4
    c_delta = lat4.vector([0, 0, 1, 0])
    for split, delta, a, b, kinds, name in [
            (sp, lat.vector([1, 0, 1]), [0.0], [0.7], {"A"}, "on_A"),
            (sp, lat.vector([1, 0, 1]), [0.37], [1.9], set(), "off"),
            (sp4, c_delta, [0.3, 0.0], [0.0, 2.5], {"C"}, "on_C"),
            (sp4, c_delta, [0.0, 0.0], [0.0, 2.5], {"C", "D"}, "on_D")]:
        assert _point_walls(split, delta, a, b) == kinds
        p = dm.exp_point(dm.tube_point(split, a, b))
        assert _wall_membership(p, delta, split.v) == name


# -- wall enumeration ----------------------------------------------------------------

def test_no_A_walls_above_two(rank3):
    lat, sp = rank3
    box = dm.TubeBox.make(sp, [F(-1, 4)], [F(1, 4)], [F(15, 8)], [F(17, 8)])
    walls = dm.enumerate_walls_region(sp, box)
    assert [w for w in walls if w.kind == "A"] == []


def test_wall_enumeration_vs_bruteforce(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(7)
    for _ in range(12):
        a0 = F(int(rng.integers(-8, 8)), 8)
        da = F(int(rng.integers(1, 9)), 8)
        b0 = F(int(rng.integers(2, 12)), 8)
        db = F(int(rng.integers(1, 8)), 8)
        box = dm.TubeBox.make(sp, [a0], [a0 + da], [b0], [b0 + db])
        got = {(w.kind, w.root.coords)
               for w in dm.enumerate_walls_region(sp, box)}
        want = {(w.kind, w.root.coords)
                for w in dm.enumerate_walls_bruteforce(sp, box, 10)}
        assert got == want


def test_wall_refinement_union(rank3):
    lat, sp = rank3
    box = dm.TubeBox.make(sp, [F(-1)], [F(1)], [F(1, 2)], [F(3, 2)])
    whole = {(w.kind, w.root.coords)
             for w in dm.enumerate_walls_region(sp, box)}
    left = dm.TubeBox.make(sp, [F(-1)], [F(0)], [F(1, 2)], [F(3, 2)])
    right = dm.TubeBox.make(sp, [F(0)], [F(1)], [F(1, 2)], [F(3, 2)])
    parts = {(w.kind, w.root.coords)
             for w in dm.enumerate_walls_region(sp, left)} | \
            {(w.kind, w.root.coords)
             for w in dm.enumerate_walls_region(sp, right)}
    assert parts == whole
    assert len(whole) < 100  # locally finite


# -- root data -------------------------------------------------------------------

def _solve_integer_columns(bmat, target):
    """Solve bmat @ x = target exactly; bmat has full column rank."""
    rows, cols = len(bmat), len(bmat[0])
    a = [[F(bmat[i][j]) for j in range(cols)] + [F(target[i])]
         for i in range(rows)]
    piv_rows = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_rows.append(c)
        r += 1
        if r == cols:
            break
    x = [F(0)] * cols
    for i, c in enumerate(piv_rows):
        x[c] = a[i][cols]
    for i in range(r, rows):
        if a[i][cols] != 0:
            raise ValueError("inconsistent system")
    out = []
    for xi in x:
        if xi.denominator != 1:
            raise ValueError("solution is not integral")
        out.append(int(xi))
    return out


def _root_data_by_elimination(split, delta):
    """Reference: (c, d) from the pairings, lam by Fraction elimination."""
    d = -split.v.dot(delta)
    c = -split.f.dot(delta)
    rest = [x - c * vi - d * fi for x, vi, fi
            in zip(delta.coords, split.v.coords, split.f.coords)]
    bmat = [list(row) for row in zip(*split.comp)]
    return c, d, tuple(_solve_integer_columns(bmat, rest))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([[[2]], [[6]], [[2, 0], [0, -2]], [[2, 1], [1, -2]],
                        [[2, 0, 0], [0, -2, 0], [0, 0, -2]]]),
       st.sampled_from(["v0", "v1", "twisted", "doubled", "bent"]),
       st.data())
def test_root_data_matches_elimination(ns, variant, data):
    # splits at v0 = (0, .., 0, 1), v1 = (1, 0, .., 0) and v1 moved by a
    # line twist (which fixes v0) match the reference.  Hand-built splits:
    # "doubled" scales R by 2, not a basis, so root_data raises; "bent"
    # replaces f by f + v, still a basis (f no longer isotropic), so the
    # pairings do not give (c, d) but root_data still inverts root_from_data
    lat = mk.mukai_lattice(ns)
    v0 = lat.vector([0] * (lat.rank - 1) + [1])
    v1 = lat.vector([1] + [0] * (lat.rank - 1))
    if variant == "twisted":
        l = data.draw(st.lists(st.integers(-3, 3), min_size=lat.ns_rank,
                               max_size=lat.ns_rank))
        v1 = mk.line_twist_isometry(lat, l).apply(v1)
    sp = dm.split_at(v0 if variant in ("v0", "doubled", "bent") else v1)
    coords = data.draw(st.lists(st.integers(-6, 6), min_size=lat.rank,
                                max_size=lat.rank))
    delta = lat.vector(coords)
    if variant == "doubled":
        sp = dm.HyperbolicSplit(
            lat, sp.v, sp.f, tuple(tuple(2 * x for x in c) for c in sp.comp),
            tuple(tuple(4 * x for x in r) for r in sp.gram_L))
        with pytest.raises(ValueError, match="not unimodular"):
            sp.root_data(delta)
        return
    if variant == "bent":
        sp = dm.HyperbolicSplit(lat, sp.v, sp.f + sp.v, sp.comp, sp.gram_L)
    else:
        assert sp.root_data(delta) == _root_data_by_elimination(sp, delta)
    assert sp.root_from_data(*sp.root_data(delta)) == delta


def _quotient_gram_by_elimination(v):
    """Reference L(v) Gram: v's coordinates in the integer_kernel basis of
    v^perp by Fraction elimination, then the same completion."""
    lat = v.lattice
    perp = mk.orthogonal_complement(v)
    k = len(perp)
    bmat = [[perp[c][r] for c in range(k)] for r in range(lat.rank)]
    u = ila.complete_primitive(_solve_integer_columns(bmat, list(v.coords)))
    newb = ila.mat_mul(bmat, u)
    cols = [[newb[r][c] for r in range(lat.rank)] for c in range(1, k)]
    return tuple(map(tuple, ila.gram_of(cols, lat.gram_rows())))


@pytest.mark.parametrize("lat, divs", [
    (mk.preset("U"), [1]), (mk.preset("mukai_rank1(1)"), [1]),
    (mk.preset("mukai_rank1(4)"), [1, 2]),
    (mk.preset("mukai_rank1(9)"), [1, 3]),
    (mk.preset("mukai_rank1(12)"), [1, 2]),
    (mk.mukai_lattice([[2, 0], [0, -2]], "diag(2,-2)"), [1, 2]),
    (mk.mukai_lattice([[2, 1], [1, -2]], "[[2,1],[1,-2]]"), [1]),
    (mk.mukai_lattice([[4, 0], [0, -6]], "diag(4,-6)"), [1]),
    (mk.direct_sum(mk.hyperbolic_plane(2), mk.preset("bracket(2)")), [2]),
    (mk.direct_sum(mk.hyperbolic_plane(3), mk.preset("bracket(-4)")), [3]),
    (mk.direct_sum(mk.hyperbolic_plane(), mk.hyperbolic_plane(2)), [1, 2]),
], ids=lambda x: x.label if isinstance(x, mk.IntegerLattice) else "")
def test_quotient_lattice_matches_elimination(lat, divs):
    # every primitive isotropic vector of the box, of every divisibility
    # the lattice has
    vecs = [lat.vector(c) for c in
            cusps.enumerate_isotropic(lat, 10 if lat.rank <= 3 else 3)]
    assert sorted({mk.divisibility(v) for v in vecs}) == divs
    for v in vecs:
        assert mk.quotient_lattice(v).gram == _quotient_gram_by_elimination(v)


# -- exact wall test ---------------------------------------------------------------
#
# Reference oracles: the former rank-one closed form (exact) and the former
# dense-grid semi-decision for rank(L) >= 2 (may miss a wall that meets the
# box between grid points), and exact ambient pairings in Fractions.

def _corner_im_range(split, box, delta):
    """Range of Im(z.delta) = b^T G_L (lam - d a) over the box corners."""
    gl = split.gram_L
    _, d, lam = split.root_data(delta)
    vals = []
    for ac, bc in box.corners():
        u = [l - d * x for l, x in zip(lam, ac)]
        vals.append(sum(gl[i][j] * bc[i] * u[j]
                        for i in range(len(u)) for j in range(len(u))))
    return min(vals), max(vals)


def _rank1_meets_box(split, box, delta, kind):
    """Former closed-form test for rank(L) = 1: the A-wall foot is a = lam/d
    and it reaches b with m b^2 <= 2/d^2 (A), = 2/d^2 (D)."""
    _, d, lam = split.root_data(delta)
    if kind == "C":
        lo, hi = _corner_im_range(split, box, delta)
        return d == 0 and lo <= 0 <= hi
    if d == 0 or (kind == "A" and d < 0):
        return False
    if not box.a_lo[0] <= F(lam[0], d) <= box.a_hi[0]:
        return False
    m = split.gram_L[0][0]
    sq = sorted((box.b_lo[0] ** 2, box.b_hi[0] ** 2))
    target = F(2, d * d)
    if kind == "A":
        return m * sq[0] <= target
    return m * sq[0] <= target <= m * sq[1]


def _grid_meets_box(split, box, delta, kind, grid=12):
    """Former dense-grid semi-decision for A- and D-walls, d > 0."""
    c, d, lam = split.root_data(delta)
    gl = split.gram_L_np()
    lam = np.array(lam, dtype=float)
    rho = split.rho
    lo, hi = _corner_im_range(split, box, delta)
    if lo > 0 or hi < 0:
        return False
    axes = [np.linspace(float(lo), float(hi), grid)
            for lo, hi in zip(box.a_lo + box.b_lo, box.a_hi + box.b_hi)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")],
                   axis=1)
    a, b = pts[:, :rho], pts[:, rho:]
    glam = gl @ lam
    im = b @ glam - d * np.einsum("pi,ij,pj->p", b, gl, a)
    re = (-c + a @ glam - 0.5 * d * (np.einsum("pi,ij,pj->p", a, gl, a)
                                     - np.einsum("pi,ij,pj->p", b, gl, b)))
    tol = 1e-9
    scale = max(1.0, float(np.max(np.abs(im))), float(np.max(np.abs(re))))
    re_ok = ((lambda r: r <= tol * scale) if kind == "A"
             else (lambda r: np.abs(r) <= 1e-6 * scale))
    if bool(np.any((np.abs(im) <= tol * scale) & re_ok(re))):
        return True
    # Im sign changes along the last b-axis, Re interpolated (quadratic)
    im_g, re_g = im.reshape((grid,) * 2 * rho), re.reshape((grid,) * 2 * rho)
    i0, i1 = im_g[..., :-1], im_g[..., 1:]
    cross = (i0 * i1) < 0
    t = np.divide(i0, i0 - i1, out=np.zeros_like(i0), where=cross)
    q2 = 0.5 * d * gl[-1, -1] * (axes[-1][1] - axes[-1][0]) ** 2
    r0, r1 = re_g[..., :-1], re_g[..., 1:]
    return bool(np.any(cross & re_ok(r0 + (r1 - r0 - q2) * t + q2 * t * t)))


def _exact_z_delta(split, a, b, delta):
    """(Re, Im) of z.delta at chart point (a, b), in Fractions, from the
    ambient Gram matrix: z = x + iy - (y^2/2) v with canonical lifts."""
    g = split.lattice.gram

    def dot(x, y):
        return sum(g[i][j] * x[i] * y[j]
                   for i in range(len(x)) for j in range(len(y)))

    def comb(base, coeffs):
        return [base[i] + sum(c * col[i] for c, col in zip(coeffs, split.comp))
                for i in range(len(base))]

    v = split.v.coords
    x = comb(split.f.coords, a)
    x = [xi + dot(x, x) / 2 * vi for xi, vi in zip(x, v)]
    y = comb([0] * len(v), b)
    y = [yi + dot(y, x) * vi for yi, vi in zip(y, v)]
    dl = delta.coords
    return dot(x, dl) - dot(y, y) / 2 * dot(v, dl), dot(y, dl)


def _classify(split, delta, a, b):
    pt = dm.exp_point(dm.tube_point(split, [float(x) for x in a],
                                    [float(x) for x in b]))
    return _wall_membership(pt, delta, split.v)


def _check_witness(split, delta, kind, points):
    """A True verdict's witness lies on the wall, exactly and under
    _wall_membership.  A two-point D witness shares a or b, so the segment
    joining its points stays on Im = 0; bisect it to Re(z.delta) ~ 0."""
    values = [_exact_z_delta(split, a, b, delta) for a, b in points]
    assert all(im == 0 for _, im in values)
    if len(points) == 1:
        (a, b), = points
        assert values[0][0] <= 0 if kind == "A" else values[0][0] == 0
        assert _classify(split, delta, a, b) in ("on_A", "on_D")
        return
    assert kind == "D" and values[0][0] < 0 < values[1][0]
    (a0, b0), (a1, b1) = points
    assert a0 == a1 or b0 == b1

    def at(t):
        return ([x + t * (y - x) for x, y in zip(a0, a1)],
                [x + t * (y - x) for x, y in zip(b0, b1)])

    # Re(z.delta) is quadratic along the segment: interpolate it exactly
    r_mid, im_mid = _exact_z_delta(split, *at(F(1, 2)), delta)
    assert im_mid == 0
    r0, r1 = values[0][0], values[1][0]

    def re(t):
        return (r0 * (1 - t) * (1 - 2 * t) + 4 * r_mid * t * (1 - t)
                + r1 * t * (2 * t - 1))

    lo, hi = F(0), F(1)
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if re(mid) < 0 else (lo, mid)
    assert _classify(split, delta, *at(lo)) == "on_D"


def _box_in(split, draw, pos):
    """A chart box with eighth endpoints and b-coordinate pos dominant."""
    rho = split.rho
    eighths = st.integers(-8, 8).map(lambda n: F(n, 8))
    a_lo = [draw(eighths) for _ in range(rho)]
    a_hi = [x + F(draw(st.integers(0, 8)), 8) for x in a_lo]
    b_lo = [F(draw(st.integers(-4, 4)), 8) for _ in range(rho)]
    b_lo[pos] = F(draw(st.integers(3, 12)), 8)
    b_hi = [x + F(draw(st.integers(0, 4)), 8) for x in b_lo]
    try:
        return dm.TubeBox.make(split, a_lo, a_hi, b_lo, b_hi)
    except UnboundedBoxError:
        assume(False)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_rank1_wall_test_matches_closed_form(n, data):
    lat = mk.preset(f"mukai_rank1({n})")
    sp = dm.split_at(lat.vector([0, 0, 1]))
    box = _box_in(sp, data.draw, 0)
    for r in map(lat.vector, mk.vectors_of_norm(lat, -2, 6)):
        for kind in "ACD":
            verdict = dm.wall_meets_box(sp, box, r, kind)
            assert verdict is _rank1_meets_box(sp, box, r, kind)


@st.composite
def _rank1_boxes(draw):
    """(n, a_lo, a_hi, b_lo, b_hi) on mukai_rank1(n): |a| <= 2 with small
    denominators, so endpoints fall on feet a = lam/d; b in either cone
    component, often at a D-point height b^2 = 1/(n d^2) when n is a
    square; zero widths when two draws agree."""
    n = draw(st.integers(1, 12))
    q = draw(st.integers(1, 6))
    a_lo, a_hi = sorted(F(draw(st.integers(-2 * q, 2 * q)), q)
                        for _ in range(2))
    root = math.isqrt(n)
    tips = [F(1, root * d) for d in range(1, 5)] if root * root == n else []
    ends = [F(k, 16) for k in range(2, 33)] + tips * 8
    b_lo, b_hi = sorted(draw(st.sampled_from(ends)) for _ in range(2))
    if draw(st.booleans()):
        b_lo, b_hi = -b_hi, -b_lo
    return n, a_lo, a_hi, b_lo, b_hi


def _rank1_root_bound(split, box):
    """Exact bound on the coordinates (d, lam, c) of every oriented root
    whose wall meets a box of mukai_rank1(n), where v, f and R are unit
    vectors: a wall through (a, b) has a = lam/d and g d^2 b^2 <= 2, so
    d <= D with g D^2 min b^2 <= 2, |lam| <= d max|a| and
    c = (g lam^2 + 2) / (2 d)."""
    assert (split.v.coords, split.f.coords, split.comp) == \
        ((0, 0, 1), (1, 0, 0), ((0, 1, 0),))
    g = split.gram_L[0][0]
    b2 = min(x * x for x in box.b_lo + box.b_hi)
    a_max = max(abs(x) for x in box.a_lo + box.a_hi)
    bound, d = 1, 1
    while g * d * d * b2 <= 2:
        lam = math.floor(d * a_max)
        bound = max(bound, d, lam, (g * lam * lam + 2) // (2 * d))
        d += 1
    return bound


@settings(max_examples=60, deadline=None)
@given(_rank1_boxes())
@example((1, F(-1), F(1), F(1, 2), F(1)))        # b_lo = 1/d at d = 2
@example((1, F(-1), F(1), F(-1), F(-1, 2)))      # the other component
@example((4, F(0), F(3, 2), F(1, 8), F(1, 4)))   # b_hi = 1/(2d) at d = 2
@example((4, F(1, 2), F(1, 2), F(1, 4), F(1, 4)))  # a point: a foot, a tip
@example((3, F(-1, 3), F(-1, 3), F(1, 4), F(3, 4)))  # zero-width a
def test_rank1_walls_closed_form(case):
    # the closed-form listing against the general path over the majorant
    # scan (same verdicts, same order) and against the former rank-one test
    # over every root of a proven coordinate bound
    n, a_lo, a_hi, b_lo, b_hi = case
    lat = mk.preset(f"mukai_rank1({n})")
    sp = dm.split_at(lat.vector([0, 0, 1]))
    box = dm.TubeBox.make(sp, [a_lo], [a_hi], [b_lo], [b_hi])
    got = [(w.kind, w.root.coords, w.undecided)
           for w in dm.enumerate_walls_region(sp, box)]
    general = dm.enumerate_walls_region(sp, box, candidates=root_vectors(
        sp, dm._roots_near(sp, box.a_lo, box.a_hi, list(box.b_corners()))))
    assert got == [(w.kind, w.root.coords, w.undecided) for w in general]
    want = {(kind, r.coords) for r in map(lat.vector, mk.vectors_of_norm(
        lat, -2, _rank1_root_bound(sp, box))) if sp.v.dot(r) < 0
            for kind in "AD" if _rank1_meets_box(sp, box, r, kind)}
    assert {(kind, coords) for kind, coords, _ in got} == want
    # past 2^63 in a: the integer translate a -> a + t is an isometry that
    # takes the foot lam/d to (lam + d t)/d, on Python ints throughout
    t = 2 ** 63 + 5
    far = dm.TubeBox.make(sp, [a_lo + t], [a_hi + t], [b_lo], [b_hi])
    g = sp.gram_L[0][0]
    moved = []
    for kind, (d, lam, _), _ in got:
        lam += d * t
        moved.append((kind, sp.root_from_data((g * lam * lam + 2) // (2 * d),
                                              d, (lam,)).coords, False))
    far_walls = dm.enumerate_walls_region(sp, far)
    assert [(w.kind, w.root.coords, w.undecided)
            for w in far_walls] == sorted(moved)
    assert all(w.root.dot(w.root) == -2 for w in far_walls)


def test_rank1_walls_make_no_candidate_scan(monkeypatch):
    # at rho = 1 the default listing runs no majorant scan, no short-vector
    # search and no per-root test
    lat = mk.preset("mukai_rank1(1)")
    sp = dm.split_at(lat.vector([0, 0, 1]))
    box = dm.TubeBox.make(sp, [-1], [1], [F(1, 2)], [F(3, 2)])
    want = dm.enumerate_walls_region(sp, box)

    def refuse(*args, **kwargs):
        raise AssertionError("called at rho = 1")

    for name in ("_roots_near", "short_vectors", "wall_meets_box"):
        monkeypatch.setattr(dm, name, refuse)
    assert dm.enumerate_walls_region(sp, box) == want
    assert {w.kind for w in want} == {"A", "D"}
    # a box built without TubeBox.make that reaches b = 0, where the
    # listing would never end, is refused
    with pytest.raises(UnboundedBoxError, match="leaves the positive cone"):
        dm.enumerate_walls_region(sp, dataclasses.replace(box, b_lo=(F(0),)))


_HIGHER = {"rank4": ([[2, 0], [0, -2]], 3), "rank5": ([[2, 0, 0], [0, -2, 0],
                                                     [0, 0, -2]], 2)}


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_HIGHER)), st.data())
def test_exact_wall_test_witnesses_and_misses(name, data):
    ns, bound = _HIGHER[name]
    lat = mk.mukai_lattice(ns)
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    pos = int(np.argmax(np.diag(sp.gram_L)))
    box = _box_in(sp, data.draw, pos)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    samples = []
    for _ in range(12):
        a = [float(l + (h - l) * t) for l, h, t in
             zip(box.a_lo, box.a_hi, rng.uniform(size=sp.rho))]
        b = [float(l + (h - l) * t) for l, h, t in
             zip(box.b_lo, box.b_hi, rng.uniform(size=sp.rho))]
        samples.append(dm.exp_point(dm.tube_point(sp, a, b)))
    for r in map(lat.vector, mk.vectors_of_norm(lat, -2, bound)):
        delta, d = orient_root(sp, r)
        if d == 0:
            continue
        verdicts = {}
        for kind in "AD":
            verdict, points = dm._wall_search(
                sp.gram_L, box, d, sp.root_data(delta)[2], kind)
            verdicts[kind] = verdict
            if verdict:
                assert dm.wall_meets_box(sp, box, delta, kind) is True
                _check_witness(sp, delta, kind, points)
            elif verdict is False:
                banned = ("on_A", "on_D") if kind == "A" else ("on_D",)
                assert all(_wall_membership(p, delta, sp.v) not in banned
                           for p in samples)
        # the D-wall lies inside the A-wall
        assert verdicts["A"] is not False or verdicts["D"] is False


def _roots_near_box_union(split, box, safety=4.0):
    """Reference for the candidates: the union of one majorant
    enumeration per sample point (the centre and the 4^rho corners), each
    at the bound B, filtered for -2 one LatVec at a time."""
    bound = 2.0 + 2.0 * safety * max(1.0, 1.0 / float(box.min_y_norm2()))
    cands = set()
    for a, b in [box.center(), *box.corners()]:
        frame = dm.exp_frame(dm.tube_point(split, [float(x) for x in a],
                                           [float(x) for x in b]))
        cands.update(map(tuple, float_short_vectors(
            majorant_matrix(frame), bound).tolist()))
    roots = [split.lattice.vector(c) for c in sorted(cands)]
    return [w for w in roots if w.norm2 == -2]


_COVER_LATTICES = {"mukai_rank1(1)": [[2]], "mukai_rank1(4)": [[8]],
                   **{name: ns for name, (ns, _) in _HIGHER.items()}}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_COVER_LATTICES)), st.data())
def test_cover_contains_corner_union(name, data):
    # the (d, lam) candidates give every wall of the per-sample union;
    # walls only they give must be certified by an exact witness
    lat = mk.mukai_lattice(_COVER_LATTICES[name])
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    box = _box_in(sp, data.draw, int(np.argmax(np.diag(sp.gram_L))))
    # y^2 >= 1/4 keeps B <= 34: lower boxes enumerate 10^4-10^6 vectors
    # per sample at rank 5, seconds each for the reference
    assume(box.min_y_norm2() >= F(1, 4))
    rows = dm._roots_near(sp, box.a_lo, box.a_hi, list(box.b_corners()))
    union = _roots_near_box_union(sp, box)
    # the rows are distinct Python-int rows (c, d, *lam), oriented and in
    # scan order (d never decreases): enumerate_walls_region and
    # wall_crossings read them with no orientation pass
    assert len(set(rows)) == len(rows)
    assert all(type(x) is int for row in rows for x in row)
    assert [d for _, d, *_ in rows] == sorted(d for _, d, *_ in rows)
    for c, d, *lam in rows:
        assert d >= 0
        if d == 0:
            assert c == 0 and tuple(lam) == lattice_sign_canonical(tuple(lam))
    cover = root_vectors(sp, rows)
    assert all(sp.v.dot(w) <= 0 and w.norm2 == -2 for w in cover)

    def walls(cands):
        return {(w.kind, w.root.coords, w.undecided) for w in
                dm.enumerate_walls_region(sp, box, candidates=cands)}

    _assert_contains_witnessed(sp, box, walls(cover), walls(union))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(_HIGHER)), st.data())
def test_explicit_candidates_decode_to_the_default_rows(name, data):
    # the default rows as LatVecs, shuffled, of random signs and with
    # repeats, give back the default listing: the decode on entry orients
    # and deduplicates them as the scan does
    lat = mk.mukai_lattice(_HIGHER[name][0])
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    box = _box_in(sp, data.draw, int(np.argmax(np.diag(sp.gram_L))))
    assume(box.min_y_norm2() >= F(1, 4))
    roots = root_vectors(sp, dm._roots_near(sp, box.a_lo, box.a_hi,
                                            list(box.b_corners())))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    picks = rng.integers(len(roots), size=len(roots) // 2) if roots else []
    candidates = roots + [roots[i] for i in picks]
    rng.shuffle(candidates)
    candidates = [-w if flip else w for w, flip in
                  zip(candidates, rng.integers(2, size=len(candidates)))]

    def listing(**kwargs):
        return [(w.kind, w.root.coords, w.undecided) for w in
                dm.enumerate_walls_region(sp, box, **kwargs)]

    assert listing(candidates=candidates) == listing()


def _walls_reference(split, box, candidates=None):
    """Oracle: the enumeration loop that tests A and D for every oriented
    candidate, even after a proven A-miss, and deduplicates C-walls by
    their image."""
    if candidates is None:
        candidates = root_vectors(split, dm._roots_near(
            split, box.a_lo, box.a_hi, list(box.b_corners())))
    walls = {}

    def test(kind, root):
        verdict = dm.wall_meets_box(split, box, root, kind)
        if verdict is not False:
            walls[(kind, root.coords)] = verdict is None

    for delta in candidates:
        delta, d = orient_root(split, delta)
        if d > 0:
            test("A", delta)
            test("D", delta)
        elif ("C", delta.coords) not in walls:
            test("C", delta)
    return [(kind, coords, undecided)
            for (kind, coords), undecided in sorted(walls.items())]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_COVER_LATTICES)),
       st.sampled_from(["box", "point", "both signs"]), st.data())
def test_walls_region_matches_reference_loop(name, how, data):
    # one pass per root (A, then D only after no proven A-miss; each
    # oriented root once) lists the walls of the loop that tests them all
    lat = mk.mukai_lattice(_COVER_LATTICES[name])
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    pos = int(np.argmax(np.diag(sp.gram_L)))
    candidates = None
    if how == "point":
        # (a, b) = (lam/d, b) has u = 0, so it lies on the A-wall of
        # delta when y^2 <= 2/d^2
        roots = [w for w, d in (orient_root(sp, lat.vector(r)) for r
                             in mk.vectors_of_norm(lat, -2, 3)) if d]
        _, d, lam = sp.root_data(data.draw(st.sampled_from(roots)))
        b = [F(data.draw(st.integers(-1, 1)), 16 * d) for _ in range(sp.rho)]
        b[pos] = F(1, 2 * d)
        assume(0 < ila.dot(b, ila.mat_vec(sp.gram_L, b)) <= F(2, d * d))
        a = [F(x, d) for x in lam]
        box = dm.TubeBox.make(sp, a, a, b, b)
    else:
        box = _box_in(sp, data.draw, pos)
        assume(box.min_y_norm2() >= F(1, 4))
        if how == "both signs":
            candidates = [w for r in mk.vectors_of_norm(lat, -2, 3)
                          for w in (lat.vector(r), -lat.vector(r))]
    got = [(w.kind, w.root.coords, w.undecided) for w in
           dm.enumerate_walls_region(sp, box, candidates=candidates)]
    assert got == _walls_reference(sp, box, candidates)
    if how == "point":
        assert ("A", sp.root_from_data(
            (ila.dot(lam, ila.mat_vec(sp.gram_L, lam)) + 2) // (2 * d), d,
            lam).coords, False) in got


def _assert_contains_witnessed(split, box, got, want):
    """Every wall of want is in got, and every wall only in got has an
    exact witness (a certified meeting for a C-wall)."""
    assert want <= got
    for kind, coords, _ in got - want:
        delta = split.lattice.vector(coords)
        if kind == "C":
            assert dm.wall_meets_box(split, box, delta, kind) is True
            continue
        _, d, lam = split.root_data(delta)
        verdict, points = dm._wall_search(split.gram_L, box, d, lam, kind)
        assert verdict is True
        _check_witness(split, delta, kind, points)


def _wall_coord_bound(split, box):
    """Coordinate bound on every root whose wall meets the box, for a
    diagonal G_L of rank one, or of rank two and signature (1, 1).

    delta = c v + d f + R lam, u = lam/d - a.  Through (a, b) a wall needs
    b^T G_L u = 0 and N_b(u) = -u^T G_L u <= 2/d^2 - y^2 (d > 0), or
    N_b(lam) = 2 (d = 0).  In rank one u = 0 and d^2 y^2 <= 2.  In rank
    two, G_L = diag(-g, g) up to order, with p the positive index, s the
    other and t = b_s/b_p: u_p = t u_s, N_b(u) = g u_s^2 (1 - t^2) and
    y^2 = g b_p^2 (1 - t^2), so d |u_i| <= r = |b_p| sqrt(2/y^2) for both
    i.  Hence |lam_i| <= d max|a| + r =: l and |lam^T G_L lam| <= g l^2,
    so |c| <= (g l^2 + 2) / (2 d).  v, f and the columns of R are unit
    vectors (Mukai lattices split at the last basis vector), so the
    coordinates of delta are d, lam and c.
    """
    gl = split.gram_L
    g = max(row[i] for i, row in enumerate(gl))
    assert gl in (((g,),), ((g, 0), (0, -g)), ((-g, 0), (0, g)))
    y2 = float(box.min_y_norm2())
    b_p = max(abs(float(x)) for i, row in enumerate(gl) if row[i] > 0
              for x in (box.b_lo[i], box.b_hi[i]))
    r = 0.0 if split.rho == 1 else b_p * math.sqrt(2 / y2)
    a_max = max(abs(float(x)) for x in box.a_lo + box.a_hi)
    out = r
    for d in range(1, math.isqrt(math.floor(2 / y2)) + 1):
        lam = d * a_max + r
        out = max(out, d, lam, (g * lam * lam + 2) / (2 * d))
    return math.ceil(out) + 1


# name: (NS Gram, max |a|, least y^2 of a box)
_WIDE = {**{f"mukai_rank1({n})": ([[2 * n]], 6, F(1, 4))
            for n in range(1, 7)},
         "rank4": (_HIGHER["rank4"][0], F(3, 2), F(1))}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(_WIDE)), st.data())
def test_wide_box_walls_vs_bruteforce(name, data):
    # boxes up to 12 wide in a (3 at rank 4, where the brute-force cube
    # holds about bound^2 roots, each tested exactly): every wall of the
    # coordinate scan is found, and walls beyond it carry exact witnesses
    ns, a_max, y2_min = _WIDE[name]
    lat = mk.mukai_lattice(ns)
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    pos = int(np.argmax(np.diag(sp.gram_L)))
    units = st.integers(int(-8 * a_max), 0).map(lambda n: F(n, 8))
    a_lo = [data.draw(units) for _ in range(sp.rho)]
    a_hi = [min(x + F(data.draw(st.integers(0, int(16 * a_max))), 8), a_max)
            for x in a_lo]
    b_lo = [F(data.draw(st.integers(-4, 4)), 8) for _ in range(sp.rho)]
    b_lo[pos] = F(data.draw(st.integers(2, 12)), 8)
    b_hi = [x + F(data.draw(st.integers(0, 4)), 8) for x in b_lo]
    try:
        box = dm.TubeBox.make(sp, a_lo, a_hi, b_lo, b_hi)
    except UnboundedBoxError:
        assume(False)
    assume(box.min_y_norm2() >= y2_min)

    def walls(found):
        return {(w.kind, w.root.coords, w.undecided) for w in found}

    _assert_contains_witnessed(
        sp, box, walls(dm.enumerate_walls_region(sp, box)),
        walls(dm.enumerate_walls_bruteforce(sp, box,
                                            _wall_coord_bound(sp, box))))


def test_rank4_enumeration_vs_bruteforce(rank4):
    # the exact filter against the former grid filter over a coordinate
    # scan: the grid is a semi-decision, so every wall it finds must be
    # found, and every wall only the exact test finds must carry a witness
    lat, sp = rank4
    boxes = [
        dm.TubeBox.make(sp, [F(-1, 2), F(-1, 2)], [F(1, 2), F(1, 2)],
                        [F(-1, 4), F(2)], [F(1, 4), F(11, 4)]),
        dm.TubeBox.make(sp, [F(0), F(-1, 4)], [F(1), F(3, 4)],
                        [F(0), F(3, 4)], [F(1, 2), F(5, 4)]),
    ]
    extra_seen = 0
    for box in boxes:
        walls = dm.enumerate_walls_region(sp, box)
        assert not any(w.undecided for w in walls)
        got = {(w.kind, w.root.coords) for w in walls}
        want = set()
        for r in map(lat.vector, mk.vectors_of_norm(lat, -2, 4)):
            delta, d = orient_root(sp, r)
            if d > 0:
                want |= {(kind, delta.coords) for kind in "AD"
                         if _grid_meets_box(sp, box, delta, kind)}
            else:
                lam = lattice_sign_canonical(sp.root_data(delta)[2])
                rep = sp.root_from_data(0, 0, lam)
                lo, hi = _corner_im_range(sp, box, rep)
                if lo <= 0 <= hi:
                    want.add(("C", rep.coords))
        assert want <= got
        for kind, coords in got - want:
            _, d, lam = sp.root_data(lat.vector(coords))
            verdict, points = dm._wall_search(sp.gram_L, box, d, lam, kind)
            assert verdict is True
            _check_witness(sp, lat.vector(coords), kind, points)
            extra_seen += 1
    assert extra_seen > 0  # the second box has walls between grid points


def test_near_touching_wall_is_undecided(tmp_path):
    # delta = (1, -1, -1, 1): d = 1, lam = (-1, -1).  On Im = 0 in this box,
    # F = b^T G b - u^T G u - 2 is least on the edge b = (beta, 3/4),
    # u_2 = -3/4, where it equals -2 beta^2 + 81 / (128 beta^2) - 2 > 0:
    # both walls miss the box, but only by about 1e-8, far below what
    # WALL_TEST_DEPTH levels of bisection can resolve.
    gram = [[0, 0, 0, -1], [0, 2, 0, 0], [0, 0, -2, 0], [-1, 0, 0, 0]]
    lat = mk.make_lattice(gram, mukai=True)
    sp = dm.split_at(lat.vector([0, 0, 0, 1]))
    assert sp.gram_L == ((-2, 0), (0, 2))
    beta = F(539655057, 2 ** 30)
    margin = -2 * beta ** 2 + F(81, 128) / beta ** 2 - 2
    assert 0 < margin < F(1, 10 ** 7)
    box = dm.TubeBox.make(sp, [F(0), F(-1, 4)], [F(1), F(3, 4)],
                          [F(0), F(3, 4)], [beta, F(5, 4)])
    delta = lat.vector([1, -1, -1, 1])
    assert dm.wall_meets_box(sp, box, delta, "A") is None
    assert dm.wall_meets_box(sp, box, delta, "D") is None
    walls = dm.enumerate_walls_region(sp, box)
    assert {(w.kind, w.root.coords) for w in walls if w.undecided} == \
        {("A", delta.coords), ("D", delta.coords)}
    # the CLI lists them under their own key, and only then
    lat_file = tmp_path / "rank4.json"
    lat_file.write_text(json.dumps({"mukai": True, "gram": gram}))
    box_arg = json.dumps({"a_lo": ["0", "-1/4"], "a_hi": ["1", "3/4"],
                          "b_lo": ["0", "3/4"], "b_hi": [str(beta), "5/4"]})
    out = tmp_path / "walls.json"
    assert cli_main(["walls", "--lattice", str(lat_file), "--box", box_arg,
                     "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    undecided = {(w["kind"], tuple(w["root_coords"]))
                 for w in payload["undecided_walls"]}
    assert undecided == {("A", delta.coords), ("D", delta.coords)}
    assert not undecided & {(w["kind"], tuple(w["root_coords"]))
                            for w in payload["walls"]}
    svg = tmp_path / "walls.svg"
    assert cli_main(["walls", "--lattice", str(lat_file), "--box", box_arg,
                     "--format", "svg", "--out", str(svg)]) == 0
    assert "undecided_walls=2" in svg.read_text()
    csv = tmp_path / "walls.csv"
    assert cli_main(["walls", "--lattice", str(lat_file), "--box", box_arg,
                     "--format", "csv", "--out", str(csv)]) == 0
    assert "undecided_walls=2" in csv.read_text().splitlines()[0]
    # a box well clear of the walls decides them and has no such key
    box_arg = box_arg.replace(str(beta), "1/2")
    assert cli_main(["walls", "--lattice", str(lat_file), "--box", box_arg,
                     "--out", str(out)]) == 0
    assert "undecided_walls" not in json.loads(out.read_text())


def test_rank4_c_wall_detection(rank4):
    lat, sp = rank4
    box = dm.TubeBox.make(sp, [F(-1, 2), F(-1, 2)], [F(1, 2), F(1, 2)],
                          [F(-1, 4), F(2)], [F(1, 4), F(3)])
    walls = dm.enumerate_walls_region(sp, box)
    kinds = {w.kind for w in walls}
    assert "C" in kinds
    c_roots = [w.root.coords for w in walls if w.kind == "C"]
    assert (0, 0, 1, 0) in c_roots
    # d = 0: z.delta = -2 a_0 - 2i b_0 for this root, so its D-wall needs
    # a_0 = 0 as well as b_0 = 0
    delta = lat.vector([0, 0, 1, 0])
    assert dm.wall_meets_box(sp, box, delta, "D") is True
    off = dm.TubeBox.make(sp, [F(1, 4), F(-1, 2)], [F(1, 2), F(1, 2)],
                          [F(-1, 4), F(2)], [F(1, 4), F(3)])
    assert dm.wall_meets_box(sp, off, delta, "C") is True
    assert dm.wall_meets_box(sp, off, delta, "D") is False
    assert dm.wall_meets_box(sp, off, delta, "A") is False
    edge = dm.TubeBox.make(sp, [F(0), F(-1, 2)], [F(1, 2), F(1, 2)],
                           [F(-1, 4), F(2)], [F(1, 4), F(3)])
    assert dm.wall_meets_box(sp, edge, delta, "D") is True


def test_bisection_halves_share_the_midpoint():
    ibox = (3, [-2, 0], [1, 4], [5, 1], [6, 2])
    for d in (1, 5):
        left, right = dm._bisect(ibox, d)
        s, w_lo, w_hi, b_lo, b_hi = ibox
        k = 1 if d == 1 else 2  # widest in u = w / d, then in b
        scale = left[0] // s
        assert right[0] == left[0] and scale in (1, 2)
        lo = [x * scale for x in w_lo + b_lo]
        hi = [x * scale for x in w_hi + b_hi]
        left_lo, left_hi = left[1] + left[3], left[2] + left[4]
        right_lo, right_hi = right[1] + right[3], right[2] + right[4]
        assert left_lo == lo and right_hi == hi
        assert left_hi[k] == right_lo[k] == (lo[k] + hi[k]) // 2
        assert all(left_hi[i] == hi[i] and right_lo[i] == lo[i]
                   for i in range(4) if i != k)


def test_wall_tangent_at_u_zero_is_certified():
    # delta = v + f (d = 1, lam = 0): on Im = 0, F = b^T G b - u^T G u - 2
    # >= b^T G b - 2 >= 0 here, with equality only at u = 0, b = (3/4, 5/4).
    # No bisection of [-2/3, 1/3] reaches a = 0, but w = 0 lies on every
    # b-section, so both walls are certified at that single point.
    lat = mk.mukai_lattice([[2, 0], [0, -2]])
    sp = dm.split_at(lat.vector([0, 0, 0, 1]))
    assert sp.gram_L == ((-2, 0), (0, 2))
    box = dm.TubeBox.make(sp, [F(-2, 3)] * 2, [F(1, 3)] * 2,
                          [F(0), F(5, 4)], [F(3, 4), F(3, 2)])
    delta = sp.root_from_data(1, 1, (0, 0))
    for kind in "AD":
        verdict, points = dm._wall_search(sp.gram_L, box, 1, (0, 0), kind)
        assert verdict is True
        assert points == [((0, 0), (F(3, 4), F(5, 4)))]
        _check_witness(sp, delta, kind, points)


def test_box_validation(rank4):
    lat, sp = rank4
    with pytest.raises(UnboundedBoxError):
        dm.TubeBox.make(sp, [0, 0], [0, 0], [2, 0], [3, 0])  # negative square
    with pytest.raises(UnboundedBoxError):
        dm.TubeBox.make(sp, [0, 0], [-1, 0], [0, 2], [0, 3])  # empty


_DIAG_NS = {1: [[2]], 2: [[2, 0], [0, -2]], 3: [[2, 0, 0], [0, -2, 0],
                                            [0, 0, -2]]}


@pytest.mark.parametrize("rho", sorted(_DIAG_NS))
def test_direct_box_checks_itself(rho):
    # a TubeBox built without make is checked as make checks it
    lat = mk.mukai_lattice(_DIAG_NS[rho])
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    assert np.argmax(np.diag(sp.gram_L)) == rho - 1
    zero, e0 = (F(0),) * rho, (F(1),) + (F(0),) * (rho - 1)
    b_lo, b_hi = zero[1:] + (F(1),), (F(1, 5),) * (rho - 1) + (F(6, 5),)
    ok = dm.TubeBox(sp, zero, (F(1),) * rho, b_lo, b_hi)
    assert ok == dm.TubeBox.make(sp, zero, [1] * rho, b_lo, b_hi)
    bad = {"empty box": dict(a_lo=e0, a_hi=(F(0),) + (F(1),) * (rho - 1)),
           "box leaves the positive cone": dict(b_lo=zero, b_hi=e0),
           "box dimension mismatch": dict(b_lo=(F(1),) * (rho + 1))}
    for message, ends in bad.items():
        with pytest.raises(UnboundedBoxError, match=message):
            dataclasses.replace(ok, **ends)
    # int ends are exact rationals; a float end is refused, in a or in b
    assert dataclasses.replace(ok, a_hi=(1,) * rho) == ok
    for ends in (dict(a_lo=(0.5,) + zero[1:]), dict(b_hi=b_hi[:-1] + (1.5,))):
        with pytest.raises(InvariantError, match="box ends must be exact"):
            dataclasses.replace(ok, **ends)


def test_box_endpoints_exact(rank3):
    lat, sp = rank3
    box = dm.TubeBox.make(sp, [0.1], ["1/2"], [1], [F(2)])
    assert box.a_lo == (F(0.1),) and box.a_lo != (F(1, 10),)
    assert (box.a_hi, box.b_lo, box.b_hi) == ((F(1, 2),), (F(1),), (F(2),))


def _second_order(gl, h, k=None) -> tuple[int, int]:
    """Oracle: bounds of x^T G y over |x_i| <= h_i, |y_j| <= k_j (y = x if
    k is None), one term per entry of G."""
    lo = hi = 0
    for i, row in enumerate(gl):
        for j, g in enumerate(row):
            t = g * h[i] * (h[j] if k is None else k[j])
            if k is None and i == j:
                lo, hi = lo + min(t, 0), hi + max(t, 0)
            else:
                lo, hi = lo - abs(t), hi + abs(t)
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_centred_bounds_match_second_order(n, data):
    # _f_sign_on_zero_set bounds x^T G x over |x| <= h by _qform_range on
    # [-h, h], and x^T G y over |x| <= h, |y| <= k by sum |g_ij| h_i k_j
    entries = st.integers(-9, 9)
    gl = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gl[i][j] = gl[j][i] = data.draw(entries)
    widths = st.lists(st.integers(0, 50), min_size=n, max_size=n)
    h, k = data.draw(widths), data.draw(widths)
    assert dm._qform_range(gl, [-x for x in h], h) == _second_order(gl, h)
    assert sum(abs(g) * x * y for row, x in zip(gl, h)
               for g, y in zip(row, k)) == _second_order(gl, h, k)[1]


# -- region predicates ----------------------------------------------------------------

def test_in_P0(rank3):
    lat, sp = rank3
    fr = dm.exp_frame(dm.tube_point(sp, [0.21], [2.0]))
    cert = dm.in_P0(fr)
    assert cert.is_in and cert.min_abs_pairing > 0
    # point orthogonal to a constructed root: a = 0, b = 1 hits (1,0,1)
    fr2 = dm.exp_frame(dm.tube_point(sp, [0.0], [1.0]))
    cert2 = dm.in_P0(fr2)
    assert not cert2.is_in
    assert cert2.witness is not None
    # perturbation below the exclusion radius keeps membership
    fr3 = dm.exp_frame(dm.tube_point(sp, [0.21 + 1e-6], [2.0]))
    assert dm.in_P0(fr3).is_in


def test_in_P0_on_the_wall_and_one_ulp_off(rank3):
    # a = 0, b = 1 pairs to zero with the root (1, 0, 1) exactly; one ulp
    # off it the frame is in P0, which the 1e-8 |z| float tolerance missed
    lat, sp = rank3
    on = dm.in_P0(dm.exp_frame(dm.tube_point(sp, [0.0], [1.0])))
    assert not on.is_in and on.witness == lat.vector([1, 0, 1])
    off_frame = dm.exp_frame(dm.tube_point(sp, [0.0], [1.0 + 2.0 ** -52]))
    off = dm.in_P0(off_frame)
    assert off.is_in and off.witness == lat.vector([1, 0, 1])
    assert 0 < off.min_abs_pairing < 1e-15
    assert not float_in_P0(off_frame).is_in


_P0_NS = [[[2]], [[4]], [[2, 0], [0, -2]],
          [[2, 0, 0], [0, -2, 0], [0, 0, -2]]]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_P0_NS), st.integers(0, 2 ** 16),
       st.sampled_from(["uniform", "half-integer a", "dyadic"]))
@example(_P0_NS[3], 4610, "dyadic")     # a root on the bound: see below
def test_in_P0_matches_float_oracle(ns, seed, kind):
    # the float in_P0 as the oracle, on frames away from its tolerance:
    # uniform chart points, half-integer a, and dyadic (a, b) whose frames
    # are exact, so that some lie on a root's hyperplane
    lat = mk.mukai_lattice(ns)
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    pos = int(np.argmax(np.diag(sp.gram_L_np())))
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        a = rng.uniform(-1, 1, size=sp.rho)
    else:
        a = rng.integers(-4, 5, size=sp.rho) / 2
    if kind == "dyadic":
        b = rng.integers(-1, 2, size=sp.rho) / 4
        b[pos] = rng.integers(2, 9) / 4
    else:
        b = rng.uniform(-0.2, 0.2, size=sp.rho)
        b[pos] = rng.uniform(0.6, 2.0)
    frame = dm.exp_frame(dm.tube_point(sp, a, b))
    want = float_in_P0(frame)
    scale = max(float(np.linalg.norm(frame.z)), 1.0)
    assume(not 0 < want.min_abs_pairing < 1e-6 * scale)
    got = dm.in_P0(frame)
    assert dataclasses.replace(
        got, candidates_checked=want.candidates_checked) == want
    # the float enumeration may drop a candidate exactly on Q+ = 10
    lo, hi = (float_in_P0(frame, 10.0 + eps).candidates_checked
              for eps in (-1e-6, 1e-6))
    assert lo <= got.candidates_checked <= hi


def test_in_P0_counts_the_candidate_on_the_bound():
    # the root (8, -17, -1, -17, 0) has majorant value Q+ = 10 exactly at
    # this exact dyadic frame, and in_P0 lists the candidates Q+ <= 10
    lat = mk.mukai_lattice(_P0_NS[3])
    sp = dm.split_at(lat.vector([0, 0, 0, 0, 1]))
    frame = dm.exp_frame(dm.tube_point(sp, [0.0, -2.0, -2.0],
                                       [0.25, 0.25, 0.5]))
    gram = lat.gram_rows()
    det, q = dm._majorant(gram, dm._integral(
        [[F(x) for x in part] for part in (frame.re, frame.im)])[1])
    delta = [8, -17, -1, -17, 0]
    assert F(ila.dot(delta, ila.mat_vec(q, delta)), det) == 10
    roots = dm._short_roots(gram, q, 10 * det).tolist()
    assert len(roots) == 76 and delta in roots
    assert dm.in_P0(frame).candidates_checked == 76


def test_region_gt2(rank3):
    lat, sp = rank3
    assert dm.region_gt2(dm.tube_point(sp, [0], [2]))       # y^2 = 8
    assert not dm.region_gt2(dm.tube_point(sp, [0], [0.5]))  # y^2 = 1/2
    assert not dm.region_gt2(dm.tube_point(sp, [0], [1.0]))  # y^2 = 2 strict
    # a Python bool, decided on the exact chart rationals
    assert dm.region_gt2(dm.tube_point(sp, [0.3], [1.0 + 2.0**-52])) is True
    assert dm.region_gt2(dm.tube_point(sp, [0.3], [1.0])) is False


def test_readme_library_example():
    # the README's "Library example" block runs as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1]
    exec(block.split("```python\n", 1)[1].split("```", 1)[0], {})


def test_in_L_region(rank3, rank4):
    lat, sp = rank3
    amp = [1.0]
    assert dm.in_L_region(dm.tube_point(sp, [0.0], [2.0]), amp)
    # point on a constructed A-wall: a=0, m b^2 < 2
    assert not dm.in_L_region(dm.tube_point(sp, [0.0], [0.7]), amp)
    lat4, sp4 = rank4
    amp4 = [0.1, 1.0]
    assert dm.in_L_region(dm.tube_point(sp4, [0, 0], [0.05, 3.0]), amp4)
    assert not dm.in_L_region(dm.tube_point(sp4, [0, 0], [-0.3, 2.0]), amp4)
    with pytest.raises(Exception):
        dm.in_L_region(dm.tube_point(sp4, [0, 0], [0.05, 3.0]), [1.0, 0.0])


def test_in_L_region_sees_separating_root():
    # G_L = diag(-4, 2): the L-root lam = (5, 7) separates b from y_amp,
    # which is close to the light cone (y_amp^2 = 0.004)
    lat = mk.mukai_lattice([[2, 0], [0, -4]])
    sp = dm.split_at(lat.vector([0, 0, 0, 1]))
    assert sp.gram_L == ((-4, 0), (0, 2))
    b, amp, lam = np.array([1.0, 1.9]), np.array([0.7064, 1.0]), [5, 7]
    gl = sp.gram_L_np()
    assert lam @ gl @ lam == -2 and (b @ gl @ lam) * (amp @ gl @ lam) < 0
    assert not dm.in_L_region(dm.tube_point(sp, [0, 0], b), amp)


def test_point_predicates_reject_batches(rank3):
    lat, sp = rank3
    batch = dm.tube_point(sp, [[0.1], [0.0]], [[1.0], [0.7]])
    with pytest.raises(ValueError, match="one point"):
        dm.on_A_wall(batch)
    with pytest.raises(ValueError, match="one point"):
        dm.in_L_region(batch, [1.0])
    with pytest.raises(ValueError, match="one point"):
        dm.region_gt2(batch)
    # each row alone is answered: the second lies on an A-wall
    assert dm.on_A_wall(dm.tube_point(sp, [0.1], [1.0])) is None
    assert dm.on_A_wall(dm.tube_point(sp, [0.0], [0.7])) is not None
    assert dm.in_L_region(dm.tube_point(sp, [0.1], [1.0]), [1.0])
    assert not dm.in_L_region(dm.tube_point(sp, [0.0], [0.7]), [1.0])


def _point_oracle(split, a, b, amp, roots):
    """Float oracle at one chart point over the given candidate roots:
    (the roots with an A-wall through the point, in_L_region).

    in_L_region: the cone check, then no L(v)-root wall through the point
    or with Im(z.delta) of opposite signs at b and at amp, then no A-wall
    through the point.  Only roots with |Im(z.delta)| below 1e-6 of the
    scale go to _wall_membership; the others are off every wall."""
    g = split.lattice.gram_np
    coords = np.array([w.coords for w in roots], dtype=float)
    p = dm.exp_point(dm.tube_point(split, a, b))
    im = (p.z @ g @ coords.T).imag
    near = np.abs(im) <= 1e-6 * np.linalg.norm(p.z) * np.abs(coords).max()
    labels = {w.coords: _wall_membership(p, w, split.v)
              for w, flag in zip(roots, near) if flag}
    on_a = [w.coords for w in roots if split.v.dot(w) < 0
            and labels.get(w.coords) in ("on_A", "on_D")]
    gl = split.gram_L_np()
    if np.asarray(b) @ gl @ np.asarray(amp) <= 0:
        return on_a, False
    p_amp = dm.exp_point(dm.tube_point(split, a, amp))
    im_amp = (p_amp.z @ g @ coords.T).imag
    for w, s_b, s_amp in zip(roots, im, im_amp):
        if not split.v.dot(w) and (labels.get(w.coords, "off") != "off"
                                   or s_b * s_amp < 0):
            return on_a, False
    return on_a, not on_a


# name: (NS Gram, a-coordinates, b-coordinates of the positive index, of
# the others)
_POINTS = {
    **{f"mukai_rank1({n})": ([[2 * n]], np.arange(-8, 9) / 8,
                             [0.25, 0.5, 0.625, 0.75, 1.0, 1.25, 1.5], [])
       for n in (1, 2, 3)},
    "rank4": (_HIGHER["rank4"][0], [-0.5, 0.0, 0.5], [0.75, 1.0, 1.5],
              [-0.25, 0.0, 0.25]),
}


@pytest.mark.parametrize("name", sorted(_POINTS))
def test_point_predicates_match_float_oracle(name):
    # at dyadic chart points the exact predicates agree with the float
    # oracle over every root of a coordinate box holding each wall that
    # meets the points' bounding box
    ns, a_axis, b_pos, b_rest = _POINTS[name]
    lat = mk.mukai_lattice(ns)
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    pos = int(np.argmax(np.diag(sp.gram_L)))
    b_axes = [b_pos if i == pos else b_rest for i in range(sp.rho)]
    hull = dm.TubeBox.make(sp, [min(a_axis)] * sp.rho, [max(a_axis)] * sp.rho,
                           [min(x) for x in b_axes], [max(x) for x in b_axes])
    roots = {orient_root(sp, lat.vector(c))[0] for c in
             mk.vectors_of_norm(lat, -2, _wall_coord_bound(sp, hull))}
    roots = sorted(roots, key=lambda w: w.coords)
    amp = [1.0 if i == pos else 0.125 for i in range(sp.rho)]
    hits = 0
    for a in itertools.product(a_axis, repeat=sp.rho):
        for b in itertools.product(*b_axes):
            on_a, in_l = _point_oracle(sp, a, b, amp, roots)
            got = dm.on_A_wall(dm.tube_point(sp, a, b))
            assert (got is not None) == bool(on_a)
            assert got is None or got.coords in on_a
            hits += got is not None
            assert dm.in_L_region(dm.tube_point(sp, a, b), amp) is in_l
    assert hits


def test_point_predicates_on_and_off_walls():
    # points built exactly on a wall from its root are on it; 1e-12 off,
    # where the former float predicates still saw the wall, they are not
    for n in (1, 2, 3):
        lat = mk.preset(f"mukai_rank1({n})")
        sp = dm.split_at(lat.vector([0, 0, 1]))
        for r in map(lat.vector, mk.vectors_of_norm(lat, -2, 6)):
            delta, d = orient_root(sp, r)
            _, _, (lam,) = sp.root_data(delta)
            if d not in (1, 2, 4) or abs(lam) > d:
                continue
            b = [1 / (2 * d)]       # y^2 = n / (2 d^2) <= 2 / d^2
            on = dm.tube_point(sp, [lam / d], b)
            assert dm.on_A_wall(on) == delta
            assert not dm.in_L_region(on, [1.0])
            for eps in (1e-12, -1e-12):
                off = dm.tube_point(sp, [lam / d + eps], b)
                assert dm.on_A_wall(off) is None
                assert dm.in_L_region(off, [1.0])
    # rank five, G_L = diag(-2, -2, 2): u = lam/d - a = 0 puts the point
    # on the A-wall of a root with d = 1 when y^2 <= 2
    lat = mk.mukai_lattice(_HIGHER["rank5"][0])
    sp = dm.split_at(lat.vector([0, 0, 0, 0, 1]))
    assert sp.gram_L == ((-2, 0, 0), (0, -2, 0), (0, 0, 2))
    b = [0.125, 0.0, 0.5]
    seen = 0
    for r in map(lat.vector, mk.vectors_of_norm(lat, -2, 2)):
        delta, d = orient_root(sp, r)
        if d != 1:
            continue
        lam = list(sp.root_data(delta)[2])
        assert dm.on_A_wall(dm.tube_point(sp, lam, b)) is not None
        lam[0] += 1e-12
        assert dm.on_A_wall(dm.tube_point(sp, lam, b)) is None
        seen += 1
    assert seen
    # rank four, G_L = diag(-2, 2): the L-root lam = (1, 0) has its C-wall
    # at b_0 = 0; y^2 = 8 > 2 keeps A-walls away
    lat = mk.mukai_lattice(_HIGHER["rank4"][0])
    sp = dm.split_at(lat.vector([0, 0, 0, 1]))
    assert sp.gram_L == ((-2, 0), (0, 2))
    amp = [0.125, 1.0]
    assert not dm.in_L_region(dm.tube_point(sp, [0, 0], [0.0, 2.0]), amp)
    assert dm.in_L_region(dm.tube_point(sp, [0, 0], [1e-12, 2.0]), amp)
    assert not dm.in_L_region(dm.tube_point(sp, [0, 0], [-1e-12, 2.0]), amp)


def _on_A_wall_oracle(split, a, b):
    """The former on_A_wall: every _roots_near candidate of the point,
    lex order, through the exact A-test on its zero-width box."""
    box = dm.TubeBox.make(split, a, a, b, b)
    rows = dm._roots_near(split, a, a, [b])
    return next((w for w in root_vectors(split, rows)
                 if dm.wall_meets_box(split, box, w, "A")), None)


def _in_L_region_oracle(split, a, b, y_amp):
    """The former in_L_region past its checks of y_amp: the cone component,
    no L(v)-root through b or separating it from y_amp, no A-wall."""
    gl = split.gram_L
    if ila.dot(b, ila.mat_vec(gl, y_amp)) <= 0:
        return False
    for lam in dm._cone_roots(gl, [y_amp, b])[-1].tolist():
        g_lam = ila.mat_vec(gl, lam)
        s_amp, s_b = ila.dot(y_amp, g_lam), ila.dot(b, g_lam)
        if s_b == 0 or s_amp * s_b < 0:
            return False
    return _on_A_wall_oracle(split, a, b) is None


_PREDICATE_NS = {**{f"mukai_rank1({n})": [[2 * n]] for n in range(1, 7)},
                 "diag(2, -2)": _DIAG_NS[2], "diag(2, -2, -2)": _DIAG_NS[3],
                 "diag(2, -4)": [[2, 0], [0, -4]]}


@functools.cache
def _predicate_split(name):
    """(split, L(v)-roots with entries in [-3, 3]) of a _PREDICATE_NS
    lattice; G_L is diagonal with its one positive entry last."""
    lat = mk.mukai_lattice(_PREDICATE_NS[name])
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    roots = [lam for lam in itertools.product(range(-3, 4), repeat=sp.rho)
             if ila.dot(lam, ila.mat_vec(sp.gram_L, lam)) == -2]
    return sp, roots


def _dyadic(lo, hi, den):
    return st.integers(lo * den, hi * den).map(lambda n: F(n, den))


@st.composite
def _predicate_points(draw):
    """(lattice name, a, b, y_amp): exact dyadic chart points, free, at
    the feet a = lam/d of A-walls (at rho = 1 also on the tip g d^2 b^2 =
    2 where it is dyadic) or, at rho >= 2, on the C-wall of an L(v)-root."""
    names = sorted(_PREDICATE_NS)
    name = draw(st.sampled_from([x for x in names if "rank1" in x])
                | st.sampled_from([x for x in names if "rank1" not in x]))
    sp, roots = _predicate_split(name)
    gl, rho = sp.gram_L, sp.rho
    a = [draw(_dyadic(-2, 2, 32)) for _ in range(rho)]
    b = [draw(_dyadic(-1, 1, 128)) / 2 for _ in range(rho - 1)]
    b.append(draw(_dyadic(-1, 3, 64)))
    kind = draw(st.sampled_from(["free", "foot"] + ["C"] * (rho > 1)))
    if kind == "foot":     # b of order 1/d, where the feet's A-walls reach
        d = draw(st.sampled_from([1, 2, 4, 8] if rho == 1 else [1, 2]))
        a = [F(draw(st.integers(-2 * d, 2 * d)), d) for _ in range(rho)]
        b = [x / (2 * d) for x in b[:-1]] + [F(draw(st.integers(1, 32)),
                                                32 * d)]
        n = gl[0][0] // 2
        if rho == 1 and math.isqrt(n) ** 2 == n and draw(st.booleans()):
            b = [F(1, d * math.isqrt(n))]
    elif kind == "C":
        lam = draw(st.sampled_from(roots))
        s = ila.dot(b, ila.mat_vec(gl, lam))
        b = [x + s / 2 * l for x, l in zip(b, lam)]   # b^T G_L lam = 0
    amp = [draw(_dyadic(-1, 1, 8)) for _ in range(rho - 1)] + [F(1)]
    if draw(st.booleans()):
        amp = b    # no root separates b from itself
    assume(ila.dot(b, ila.mat_vec(gl, b)) > 0)
    assume(ila.dot(amp, ila.mat_vec(gl, amp)) > 0)
    return name, a, b, amp


@settings(max_examples=200, deadline=None)
@given(_predicate_points())
@example(("diag(2, -4)", [F(0)] * 2, [F(1.0), F(1.9)], [F(0.7064), F(1.0)]))
def test_point_predicates_match_candidate_loop_oracles(point):
    # the point predicates read the wall listing of their zero-width box;
    # they agree with the candidate loops they replaced, at rho = 1 too,
    # where the listing is the closed form of _rank1_walls.  The example
    # is test_in_L_region_sees_separating_root's point: lam = (5, 7)
    # separates b from y_amp
    name, a, b, amp = point
    sp = _predicate_split(name)[0]
    pt = dm.tube_point(sp, [float(x) for x in a], [float(x) for x in b])
    assert [list(map(F, c)) for c in pt.chart()] == [a, b]
    assert dm.on_A_wall(pt) == _on_A_wall_oracle(sp, a, b)
    assert dm.in_L_region(pt, [float(x) for x in amp]) is \
        _in_L_region_oracle(sp, a, b, amp)
