import math

import numpy as np
import pytest

import mukai_kit as mk
from mukai_kit import domain as dm, geodesics as gd
from mukai_kit.errors import NotInLieAlgebraError


@pytest.fixture(scope="module")
def rank3():
    lat = mk.preset("mukai_rank1(1)")
    return lat, dm.split_at(lat.vector([0, 0, 1]))


@pytest.fixture(scope="module")
def rank4():
    lat = mk.mukai_lattice([[2, 0], [0, -2]], "rank4")
    return lat, dm.split_at(lat.vector([0, 0, 0, 1]))


@pytest.fixture(scope="module")
def rank5():
    lat = mk.mukai_lattice([[2, 1, 0], [1, -2, 0], [0, 0, -4]], "rank5")
    return lat, dm.split_at(lat.vector([0, 0, 0, 0, 1]))


def sample_points(split, rng, n, spread=1.5):
    rho = split.rho
    gl = split.gram_L_np()
    vals, vecs = np.linalg.eigh(gl)
    out = []
    while len(out) < n:
        a = rng.normal(size=rho) * spread
        b = rng.normal(size=rho) * 0.4 + vecs[:, -1] * (1.0 + abs(rng.normal()))
        if b @ gl @ b > 0.1:
            out.append(dm.tube_point(split, a, b))
    return out


# -- Lie algebra / Killing form ----------------------------------------------------

def test_so_basis_dimension(rank3):
    lat, _ = rank3
    basis = gd.so_basis(lat)
    assert len(basis) == lat.rank * (lat.rank - 1) // 2
    for x in basis:
        x.validate(1e-12)


def test_killing_symmetric(rank3):
    lat, _ = rank3
    b = gd.so_basis(lat)
    for x in b:
        for y in b:
            assert abs(gd.killing_form(x, y) - gd.killing_form(y, x)) < 1e-12


def test_killing_k_m_orthogonal(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(0)
    pt = sample_points(sp, rng, 1)[0]
    plane = gd.PlaneFrame.from_frame(dm.exp_frame(pt))
    for x in gd.so_basis(lat):
        k, m = gd.cartan_project(x, plane)
        assert abs(gd.killing_form(k, m)) < 1e-9
        assert np.max(np.abs(k.matrix + m.matrix - x.matrix)) < 1e-12


def test_killing_positive_on_m(rank3, rank4):
    for lat, sp in (rank3, rank4):
        rng = np.random.default_rng(1)
        pt = sample_points(sp, rng, 1)[0]
        plane = gd.PlaneFrame.from_frame(dm.exp_frame(pt))
        basis = gd.m_basis(lat, plane)
        rho = lat.rank - 2
        assert len(basis) == 2 * rho
        gram = np.array([[gd.killing_form(x, y) for y in basis]
                         for x in basis])
        assert np.all(np.linalg.eigvalsh(gram) > 0)
        # random m-elements have positive Killing norm
        for _ in range(20):
            c = rng.normal(size=len(basis))
            x = gd.LieElem(lat, sum(ci * bi.matrix
                                    for ci, bi in zip(c, basis)))
            assert gd.killing_form(x, x) > 0


def test_lie_validation(rank3):
    lat, _ = rank3
    with pytest.raises(NotInLieAlgebraError):
        gd.LieElem(lat, np.eye(lat.rank)).validate()


def test_cartan_blocks(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(2)
    pt = sample_points(sp, rng, 1)[0]
    fr = dm.exp_frame(pt)
    plane = gd.PlaneFrame.from_frame(fr)
    pi = plane.projector()
    for x in gd.so_basis(lat):
        k, m = gd.cartan_project(x, plane)
        # m swaps P and P^perp
        assert np.max(np.abs(pi @ m.matrix @ pi)) < 1e-9
        comp = np.eye(lat.rank) - pi
        assert np.max(np.abs(comp @ m.matrix @ comp)) < 1e-9
        # k preserves them
        assert np.max(np.abs(comp @ k.matrix @ pi)) < 1e-9
        assert np.max(np.abs(pi @ k.matrix @ comp)) < 1e-9
        # already-in-m element projects to itself
        _, mm = gd.cartan_project(m, plane)
        assert np.max(np.abs(mm.matrix - m.matrix)) < 1e-9


# -- generator of the cusp direction -------------------------------------------------

def test_a_generator_action(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(3)
    pt = sample_points(sp, rng, 1)[0]
    a = gd.a_generator(pt)
    a.validate(1e-12)
    v0 = sp.v_np()
    x1 = -pt.x
    assert np.max(np.abs(a.matrix @ v0 - v0)) < 1e-12
    assert np.max(np.abs(a.matrix @ x1 + x1)) < 1e-12
    plane = gd.PlaneFrame.from_frame(dm.exp_frame(pt))
    k, _ = gd.cartan_project(a, plane)
    assert np.max(np.abs(k.matrix)) < 1e-10


def test_one_param_group_law(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(4)
    pt = sample_points(sp, rng, 1)[0]
    a = gd.a_generator(pt)
    g1 = gd.one_param(a, 0.7)
    g2 = gd.one_param(a, -1.2)
    g3 = gd.one_param(a, -0.5)
    assert np.max(np.abs(g1 @ g2 - g3)) < 1e-10
    assert np.max(np.abs(gd.one_param(a, 0.0) - np.eye(lat.rank))) < 1e-14
    # eigen-action at lambda = ln 2
    g = gd.one_param(a, math.log(2.0))
    assert np.max(np.abs(g @ sp.v_np() - 2.0 * sp.v_np())) < 1e-12
    assert np.max(np.abs(g @ pt.x - 0.5 * pt.x)) < 1e-12
    # preserves the Gram form
    gm = dm.gram_np(lat)
    assert np.max(np.abs(g.T @ gm @ g - gm)) < 1e-10


def test_one_param_matches_tube_formula(rank3, rank4):
    for lat, sp in (rank3, rank4):
        rng = np.random.default_rng(5)
        worst = 0.0
        for pt in sample_points(sp, rng, 30):
            lam = float(rng.uniform(-3, 3))
            g = gd.one_param(gd.a_generator(pt), lam)
            lhs = dm.theta(dm.FrameVec(lat, g @ dm.exp_frame(pt).z))
            rhs = gd.geodesic_point(pt, lam)
            worst = max(worst, dm.proj_distance(lhs, rhs))
        assert worst < 1e-9


def test_geodesic_point_scaling(rank3):
    lat, sp = rank3
    pt = dm.tube_point(sp, [0.2], [1.0])
    p0 = gd.geodesic_point(pt, 0.0)
    assert dm.proj_distance(p0, dm.exp_point(pt)) < 1e-12
    pt_t = dm.log_tube(gd.geodesic_point(pt, 1.0), sp)
    assert abs(pt_t.y_norm2() - math.exp(2.0) * pt.y_norm2()) < 1e-6


# -- closed-form chart metric ----------------------------------------------------

def _chart_of_frame(split, z):
    """Chart coordinates (a, b) of theta([z])."""
    p = dm.theta(dm.FrameVec(split.lattice, z))
    return np.concatenate(dm.log_tube(p, split).chart())


def reference_chart_metric(split, pt, eps=1e-6):
    """Killing metric from the Lie algebra: a B-orthonormal basis of m_P,
    pushed to the chart by symmetric differences of exp(+-eps m); the metric
    is the inverse Gram of that chart frame."""
    lat = split.lattice
    z = dm.exp_frame(pt).z
    basis = gd.m_basis(lat, gd.PlaneFrame.from_frame(dm.FrameVec(lat, z)))
    assert len(basis) == 2 * split.rho
    eye = np.eye(lat.rank)
    cols = []
    for x in basis:
        m = x.matrix
        m2 = 0.5 * eps * eps * (m @ m)
        cols.append((_chart_of_frame(split, (eye + eps * m + m2) @ z)
                     - _chart_of_frame(split, (eye - eps * m + m2) @ z))
                    / (2.0 * eps))
    dinv = np.linalg.inv(np.stack(cols, axis=1))
    return dinv.T @ dinv


def test_chart_metric_matches_lie_reference(rank3, rank4, rank5):
    for lat, sp in (rank3, rank4, rank5):
        rng = np.random.default_rng(11)
        for pt in sample_points(sp, rng, 10):
            g = gd.chart_metric(sp, pt)
            ref = reference_chart_metric(sp, pt)
            assert np.max(np.abs(g - ref)) <= 1e-7 * np.max(np.abs(ref))


def test_metric_derivative_matches_central_differences(rank3, rank4, rank5):
    for lat, sp in (rank3, rank4, rank5):
        rho = sp.rho
        gl = sp.gram_L_np()
        rng = np.random.default_rng(12)
        for pt in sample_points(sp, rng, 5):
            a, b = pt.chart()
            dh = gd._tube_hessian_grad(gl, b)
            assert np.allclose(dh, dh.transpose(1, 0, 2), rtol=0, atol=1e-12)
            assert np.allclose(dh, dh.transpose(2, 1, 0), rtol=0, atol=1e-12)
            step = 1e-5
            for k in range(rho):
                e = step * np.eye(rho)[k]
                fd = (gd.chart_metric(sp, dm.tube_point(sp, a, b + e))
                      - gd.chart_metric(sp, dm.tube_point(sp, a, b - e))
                      ) / (2 * step)
                exact = rho * np.kron(np.eye(2), dh[k])
                assert np.max(np.abs(fd - exact)) <= \
                    1e-7 * max(1.0, np.max(np.abs(exact)))


def test_speed_is_sqrt_two_rho(rank3, rank4, rank5):
    # h is homogeneous of degree -2, so h(b)(b, b) = 2 at every b
    for lat, sp in (rank3, rank4, rank5):
        rng = np.random.default_rng(13)
        for pt in sample_points(sp, rng, 5):
            for t in (-1.5, 0.0, 2.0):
                assert abs(gd.speed(pt, t) - math.sqrt(2 * sp.rho)) < 1e-12


# -- speed ---------------------------------------------------------------------------

def test_speed_constant(rank3):
    lat, sp = rank3
    rng = np.random.default_rng(6)
    for pt in sample_points(sp, rng, 5):
        s0 = gd.speed(pt, 0.0)
        assert s0 > 0
        for t in (0.5, -1.0, 2.0):
            assert abs(gd.speed(pt, t) - s0) / s0 < 1e-6


def test_speed_metric_scaling(rank3):
    # Killing norm scales as sqrt(c) under B -> c B; the rank-3 rho factor
    # is 1, so compare against a hand-scaled metric evaluation.
    lat, sp = rank3
    pt = dm.tube_point(sp, [0.1], [1.3])
    g = gd.chart_metric(sp, pt)
    a0, b0 = pt.chart()
    vel = np.concatenate([np.zeros(1), b0])
    s = math.sqrt(float(vel @ g @ vel))
    assert abs(s - gd.speed(pt, 0.0)) < 1e-6
    s_scaled = math.sqrt(float(vel @ (4.0 * g) @ vel))
    assert abs(s_scaled - 2.0 * s) < 1e-9


# -- independent oracle -----------------------------------------------------------

def test_oracle_agreement_and_convergence(rank3):
    lat, sp = rank3
    pt = dm.tube_point(sp, [0.3], [1.1])
    res400 = gd.geodesic_oracle(pt, 2.0, 400)
    dev400 = gd.oracle_deviation(pt, res400)
    res800 = gd.geodesic_oracle(pt, 2.0, 800)
    dev800 = gd.oracle_deviation(pt, res800)
    assert dev400 < 5e-6
    assert dev800 < dev400 / 2.0  # at least first-order convergence
    assert res800.energy_drift < 1e-4


def test_oracle_zero_length(rank3):
    lat, sp = rank3
    pt = dm.tube_point(sp, [0.3], [1.1])
    res = gd.geodesic_oracle(pt, 0.0, 100)
    assert dm.proj_distance(
        dm.exp_point(pt),
        dm.exp_point(dm.tube_point(sp, res.chart[0][:1],
                                   res.chart[0][1:]))) < 1e-12


def test_oracle_rejects_few_steps(rank3):
    lat, sp = rank3
    pt = dm.tube_point(sp, [0.3], [1.1])
    with pytest.raises(ValueError):
        gd.geodesic_oracle(pt, 1.0, 50)


def test_oracle_energy_drift_guard(rank3):
    from mukai_kit.errors import StepTooLargeError
    lat, sp = rank3
    pt = dm.tube_point(sp, [0.3], [1.1])
    with pytest.raises(StepTooLargeError):
        gd.geodesic_oracle(pt, 8.0, 100)  # far too coarse for this span


# -- degenerations and neighborhoods ----------------------------------------------

def test_linear_degeneration_path(rank3):
    lat, sp = rank3
    path = gd.linear_degeneration(sp, [0.3], [0.8])
    pt = path.at(2.0)
    a, b = pt.chart()
    assert np.allclose(a, [0.3]) and np.allclose(b, [1.6])


def test_piecewise_path_lookup(rank3):
    lat, sp = rank3
    path = gd.PathSpec("piecewise_tube", sp,
                       samples=((0.0, (0.1,), (1.0,)),
                                (1.0, (0.2,), (1.5,)),
                                (2.0, (0.3,), (2.0,))))
    a, b = path.at(1.0).chart()
    assert np.allclose(a, [0.2]) and np.allclose(b, [1.5])
    a, b = path.at(5.0).chart()
    assert np.allclose(b, [2.0])


def test_looijenga_monotone_entry(rank3):
    from fractions import Fraction as F
    lat, sp = rank3
    box = dm.TubeBox.make(sp, [F(-1)], [F(1)], [F(1)], [F(2)])
    path = gd.linear_degeneration(sp, [0.3], [0.8])
    flags = []
    for t in np.linspace(0.2, 8.0, 25):
        p = dm.exp_point(path.at(float(t)))
        flags.append(gd.looijenga_member(p, sp, box))
    # once inside, stays inside
    first = flags.index(True)
    assert all(flags[first:])
    assert not all(flags)  # starts outside


def test_looijenga_zero_shift_and_opposite_cone(rank3):
    from fractions import Fraction as F
    lat, sp = rank3
    box = dm.TubeBox.make(sp, [F(-1)], [F(1)], [F(1)], [F(2)])
    inside = dm.exp_point(dm.tube_point(sp, [0.0], [1.5]))
    assert gd.looijenga_member(inside, sp, box)
    # opposite cone component: y < 0 side never enters
    p_opp = dm.PeriodPoint(lat, np.conj(dm.exp_point(
        dm.tube_point(sp, [0.0], [1.5])).z))
    assert not gd.looijenga_member(p_opp, sp, box)
