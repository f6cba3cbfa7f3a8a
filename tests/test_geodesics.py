import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import domain as dm, geodesics as gd
from mukai_kit.errors import (
    DegenerateAtVError,
    NotHyperbolicError,
    NotInLieAlgebraError,
    StepTooLargeError,
)


LATTICES = {
    3: mk.preset("mukai_rank1(1)"),
    4: mk.mukai_lattice([[2, 0], [0, -2]], "rank4"),
    5: mk.mukai_lattice([[2, 1, 0], [1, -2, 0], [0, 0, -4]], "rank5"),
}
SPLITS = {n: dm.split_at(lat.vector([0] * (n - 1) + [1]))
          for n, lat in LATTICES.items()}


@pytest.fixture(scope="module")
def rank3():
    return LATTICES[3], SPLITS[3]


@pytest.fixture(scope="module")
def rank4():
    return LATTICES[4], SPLITS[4]


@pytest.fixture(scope="module")
def rank5():
    return LATTICES[5], SPLITS[5]


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


# -- reference oracles: the generic Christoffel contraction -----------------------

def _tube_hessian_grad(gl, b):
    """dh[k, i, j] = d h_ij / d b_k, fully symmetric in (k, i, j)."""
    u = gl @ b
    q = float(b @ u)
    gu = gl * u[:, None, None]  # gu[k, i, j] = G_ij u_k
    sym = gu + gu.transpose(1, 0, 2) + gu.transpose(2, 1, 0)
    uuu = np.multiply.outer(np.outer(u, u), u)
    return 4.0 * sym / q**2 - 16.0 * uuu / q**3


def reference_accel(gl, b, v):
    """(a'', b'') from the full dh tensor, an einsum and Sherman-Morrison.

    g = rho (h + h) depends on b alone; with T(x, y) = dh(x, ., y) the
    geodesic equation reads
      a'' = -h^{-1} T(b', a'),  b'' = -h^{-1} (T(b', b') - T(a', a')) / 2
    """
    rho = len(b)
    x = v.reshape(2, rho)
    t = np.einsum("kij,pk,qj->pqi", _tube_hessian_grad(gl, b), x, x)
    f = np.stack([2.0 * t[1, 0], t[1, 1] - t[0, 0]])
    # Sherman-Morrison on h = -2 G_L/Q + 4 u u^T/Q^2
    h_inv = (np.outer(b, b)
             - 0.5 * (b @ gl @ b) * np.linalg.inv(gl.astype(float)))
    return -0.5 * (f @ h_inv).ravel()


def reference_norm2(gl, b, v):
    """rho (h + h)(v, v) through the Hessian matrix."""
    rho = len(b)
    x = v.reshape(2, rho)  # rows: a- and b-part
    return rho * float(np.sum((x @ gd._tube_hessian(gl, b)) * x))


def reference_oracle(pt, t_max, steps, drift_tol=1e-4):
    """geodesic_oracle's midpoint loop with every step on numpy arrays.

    The steps run in np.longdouble (80-bit extended on x86-64).  Where the
    tube Hessian is ill-conditioned, float64 loses digits in the dh
    contraction, Sherman-Morrison and the energy that the closed form
    keeps: at Q = 0.134 (condition number about 2.5e4) the float64 loop
    ended 6e-11 from a 40-digit run of the same map, the closed form 2e-15.
    """
    if steps < 100:
        raise ValueError("steps must be >= 100")
    sp = pt.split
    rho = sp.rho
    a0, b0 = pt.chart()
    q = np.concatenate([a0, b0]).astype(np.longdouble)
    qdot = np.concatenate([np.zeros(rho), b0]).astype(np.longdouble)
    gl = sp.gram_L_np().astype(np.longdouble)
    h = t_max / steps
    ts = [0.0]
    samples = [q.copy()]
    e0 = reference_norm2(gl, b0, qdot)
    max_drift = 0.0
    for k in range(steps):
        if h == 0.0:
            break
        a1 = reference_accel(gl, q[rho:], qdot)
        qm = q + 0.5 * h * qdot
        vm = qdot + 0.5 * h * a1
        a2 = reference_accel(gl, qm[rho:], vm)
        q = q + h * vm
        qdot = qdot + h * a2
        ts.append((k + 1) * h)
        samples.append(q.copy())
        e = reference_norm2(gl, q[rho:], qdot)
        max_drift = max(max_drift, abs(e - e0) / e0)
        if max_drift > drift_tol:
            raise StepTooLargeError(
                f"energy drift {max_drift:.2e} after step {k + 1}")
        local = h * math.sqrt(reference_norm2(gl, q[rho:], a2 - a1) / e)
        if local > drift_tol:
            raise StepTooLargeError(
                f"local error {local:.2e} at step {k + 1}")
    return gd.OracleResult(np.array(ts), np.stack(samples).astype(float),
                           float(max_drift))


# -- Lie algebra / Killing form ----------------------------------------------------

def _assert_in_lie_algebra(x):
    # tighter than LieElem.validate's fixed 1e-10
    g, m = x.lattice.gram_np, x.matrix
    assert np.max(np.abs(m.T @ g + g @ m)) <= 1e-12 * max(1.0,
                                                          np.max(np.abs(m)))


def test_so_basis_dimension(rank3):
    lat, _ = rank3
    basis = gd.so_basis(lat)
    assert len(basis) == lat.rank * (lat.rank - 1) // 2
    for x in basis:
        _assert_in_lie_algebra(x)


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
    plane = dm.exp_frame(pt)
    for x in gd.so_basis(lat):
        k, m = gd.cartan_project(x, plane)
        assert abs(gd.killing_form(k, m)) < 1e-9
        assert np.max(np.abs(k.matrix + m.matrix - x.matrix)) < 1e-12


def test_killing_positive_on_m(rank3, rank4):
    for lat, sp in (rank3, rank4):
        rng = np.random.default_rng(1)
        pt = sample_points(sp, rng, 1)[0]
        plane = dm.exp_frame(pt)
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
    plane = fr
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
    _assert_in_lie_algebra(a)
    v0 = sp.v_np()
    x1 = -pt.x
    assert np.max(np.abs(a.matrix @ v0 - v0)) < 1e-12
    assert np.max(np.abs(a.matrix @ x1 + x1)) < 1e-12
    plane = dm.exp_frame(pt)
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
    gm = lat.gram_np
    assert np.max(np.abs(g.T @ gm @ g - gm)) < 1e-10


def test_one_param_rejects_non_hyperbolic_element(rank3):
    # (2A)^3 = 8A != 2A: the sinh/cosh closed form does not apply
    lat, sp = rank3
    pt = sample_points(sp, np.random.default_rng(4), 1)[0]
    with pytest.raises(NotHyperbolicError):
        gd.one_param(gd.LieElem(lat, 2 * gd.a_generator(pt).matrix), 0.3)


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
    basis = gd.m_basis(lat, dm.FrameVec(lat, z))
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
            dh = _tube_hessian_grad(gl, b)
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
    lat, sp = rank3
    pt = dm.tube_point(sp, [0.3], [1.1])
    with pytest.raises(StepTooLargeError):
        gd.geodesic_oracle(pt, 8.0, 100)  # far too coarse for this span


def test_oracle_rejects_non_finite_span(rank3):
    lat, sp = rank3
    pt = dm.tube_point(sp, [0.3], [1.1])
    for t_max in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t_max must be finite"):
            gd.geodesic_oracle(pt, t_max, 100)


def test_oracle_non_finite_energy_raises(rank4):
    # b^T G_L b overflows to inf, so every Gram entry over Q is inf / inf
    lat, sp = rank4
    pt = dm.tube_point(sp, [0.0, 0.0], [0.0, 1.5e154])
    with pytest.raises(StepTooLargeError,
                       match="energy drift nan after step 1"):
        gd.geodesic_oracle(pt, 1.0, 100)


def test_oracle_half_plane_scales_past_gram_overflow(rank3):
    # at rho = 1 the steps run in s = w / Im z, where b^T G_L b overflowing
    # does not matter; the half-plane equation and the midpoint map both
    # commute with z -> lambda z, so the run at 1e154 times y0 is the run
    # at y0 scaled
    lat, sp = rank3
    big = gd.geodesic_oracle(dm.tube_point(sp, [0.0], [1.5e154]), 1.0, 100)
    small = gd.geodesic_oracle(dm.tube_point(sp, [0.0], [1.5]), 1.0, 100)
    assert np.all(np.isfinite(big.chart)) and big.energy_drift <= 1e-12
    np.testing.assert_allclose(big.chart[:, 1], 1e154 * small.chart[:, 1],
                               rtol=1e-12, atol=0)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SPLITS)), st.data())
def test_closed_form_accel_matches_einsum(n, data):
    sp = SPLITS[n]
    rho = sp.rho
    gl = sp.gram_L_np()

    def vec():
        return np.array(data.draw(st.lists(st.floats(-2.0, 2.0),
                                           min_size=rho, max_size=rho)))

    b = data.draw(st.floats(0.5, 3.0)) * np.linalg.eigh(gl)[1][:, -1] \
        + 0.3 * vec()
    # well inside the positive cone: near its boundary the reference's
    # G_L^{-1} and Sherman-Morrison lose digits the closed form keeps
    assume(b @ gl @ b > 0.5 * (b @ b))
    ap, bp = vec(), vec()
    # a non-ray velocity: a' != 0 and b' not parallel to b
    assume(np.max(np.abs(ap)) > 0.1)
    assume(np.linalg.norm(bp - (bp @ b) / (b @ b) * b)
           > 0.1 * np.linalg.norm(bp))
    v = np.concatenate([ap, bp])
    wpp, norm2 = gd._accel(gl.tolist(), b.tolist(), (ap + 1j * bp).tolist())
    acc = np.concatenate([np.real(wpp), np.imag(wpp)])
    ref = reference_accel(gl, b, v)
    assert np.max(np.abs(np.array(acc) - ref)) <= 1e-12 * np.max(np.abs(ref))
    e_ref = reference_norm2(gl, b, v)
    assert abs(rho * norm2 - e_ref) <= 1e-12 * abs(e_ref)


def test_closed_form_accel_keeps_the_ray(rank3, rank4, rank5):
    # a' = 0, b' = b: a'' = 0 and b'' = b
    for lat, sp in (rank3, rank4, rank5):
        gl = sp.gram_L_np().tolist()
        for pt in sample_points(sp, np.random.default_rng(14), 5):
            b = pt.chart()[1].tolist()
            wpp, _ = gd._accel(gl, b, [complex(0.0, x) for x in b])
            assert [x.real for x in wpp] == [0.0] * sp.rho
            assert np.allclose([x.imag for x in wpp], b, rtol=1e-14, atol=0)


def _step_outcome(oracle, pt, t_max, steps):
    """The result, or the exception's class, kind and step number."""
    try:
        return oracle(pt, t_max, steps), None
    except StepTooLargeError as exc:
        msg = str(exc)
        return None, (type(exc), msg.split()[0],
                      int(re.search(r"step (\d+)", msg).group(1)))


def test_oracle_matches_reference_loop(rank3, rank4, rank5):
    starts = [(rank3, [0.3], [1.1]), (rank3, [-0.4], [0.7]),
              (rank4, [0.2, -0.1], [0.15, 1.1]),
              (rank5, [0.1, 0.2, -0.1], [0.3, 0.1, 1.0])]
    passed = raised = 0
    for (lat, sp), a, b in starts:
        pt = dm.tube_point(sp, a, b)
        for span in (1.0, 2.0, 4.0, 8.0, 16.0):
            for steps in (100, 200, 400, 2000):
                got, err = _step_outcome(gd.geodesic_oracle, pt, span, steps)
                ref, ref_err = _step_outcome(reference_oracle, pt, span,
                                             steps)
                assert err == ref_err, (lat.label, span, steps)
                if err:
                    raised += 1
                    continue
                passed += 1
                np.testing.assert_array_equal(got.ts, ref.ts)
                scale = np.maximum(1.0, np.abs(ref.chart).max(axis=1))
                assert np.all(np.abs(got.chart - ref.chart).max(axis=1)
                              <= 1e-12 * scale), (lat.label, span, steps)
                assert abs(got.energy_drift - ref.energy_drift) <= 1e-12
    assert passed and raised


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SPLITS)), st.integers(0, 2 ** 16),
       st.floats(-4.0, 12.0), st.integers(100, 400))
# h = 0.012: a local error estimate of about 0.71e-4, a factor 1.4 from the
# bound, which a misscaled estimate crosses
@example(3, 0, 2.4, 200)
@example(4, 0, 2.4, 200)
# Q = 0.134 on the way: a float64 reference ended 6.1e-11 off, its energy
# drift 2.43e-11 against the closed form's 0
@example(5, 2866, 1.0, 100)
@example(5, 14293, 1.0, 100)
@example(5, 62141, 1.0, 100)
def test_oracle_matches_reference_loop_at_random_starts(n, seed, span, steps):
    # where longdouble is double (arm64 macOS, Windows) the reference keeps
    # float64's error, and the three draws above cannot pass
    assume(np.finfo(np.longdouble).eps < np.finfo(float).eps
           or (n, seed) not in {(5, 2866), (5, 14293), (5, 62141)})
    pt = sample_points(SPLITS[n], np.random.default_rng(seed), 1)[0]
    ref, ref_err = _step_outcome(reference_oracle, pt, span, steps)
    # skip draws with an estimate within 1e-9 relative of the 1e-4 bound:
    # there the reference itself ends differently at 1e-4 (1 +- 1e-9)
    for tol in (1e-4 * (1 - 1e-9), 1e-4 * (1 + 1e-9)):
        near = _step_outcome(
            lambda *a: reference_oracle(*a, drift_tol=tol), pt, span, steps)
        assume(near[1] == ref_err)
    got, err = _step_outcome(gd.geodesic_oracle, pt, span, steps)
    assert err == ref_err
    if err:
        return
    np.testing.assert_array_equal(got.ts, ref.ts)
    scale = np.maximum(1.0, np.abs(ref.chart).max(axis=1))
    assert np.all(np.abs(got.chart - ref.chart).max(axis=1) <= 1e-12 * scale)
    assert abs(got.energy_drift - ref.energy_drift) <= 1e-12


# -- degenerations and neighborhoods ----------------------------------------------

def test_linear_degeneration_path(rank3):
    lat, sp = rank3
    path = gd.linear_degeneration(sp, [0.3], [0.8])
    pt = path.at(2.0)
    a, b = pt.chart()
    assert np.allclose(a, [0.3]) and np.allclose(b, [1.6])


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


def _looijenga_grid(p, split, box, n):
    """Reference: the cone test at the n^rho grid points k of the y-box.
    A grid witness is a witness, so the grid can only miss."""
    try:
        pt = dm.log_tube(p, split)
    except DegenerateAtVError:
        return False
    gl = split.gram_L_np()
    ref = np.array([float(l + h) for l, h in zip(box.b_lo, box.b_hi)])
    axes = [np.linspace(float(l), float(h), n)
            for l, h in zip(box.b_lo, box.b_hi)]
    ks = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1,
                                                                  split.rho)
    w = pt.chart()[1] - ks
    return bool(np.any(((w @ gl * w).sum(-1) > 0) & (w @ gl @ ref > 0)))


def test_looijenga_exact_where_the_grid_misses(rank4):
    # the y-box K meets y - C+ only near k = (0, 49/25), between the 5 x 5
    # grid points: w = y - k = (0, 1/25) has Q(w) = 2/625 > 0, w.ref > 0
    from fractions import Fraction as F
    lat, sp = rank4
    box = dm.TubeBox.make(sp, [-1, -1], [1, 1], [F(-11, 10), F(49, 25)],
                          [F(3, 10), F(5, 2)])
    p = dm.exp_point(dm.tube_point(sp, [0.3, 0.1], [0, 2]))
    assert not _looijenga_grid(p, sp, box, 5)
    assert gd.looijenga_member(p, sp, box)


def test_looijenga_undecided_where_an_isometry_may_clear_the_box(rank4):
    # the reflection in the root (0, 0, 1, 0) fixes v0, keeps orientation
    # and maps b = (0.9, 1.3) to (-0.9, 1.3), which the cone test certifies,
    # so the cone test's miss at (0.9, 1.3) proves nothing
    from fractions import Fraction as F
    lat, sp = rank4
    box = dm.TubeBox.make(sp, [-1, -1], [1, 1], [F(-19, 20), 1],
                          [F(-17, 20), F(6, 5)])

    def member(b):
        return gd.looijenga_member(
            dm.exp_point(dm.tube_point(sp, [0, 0], b)), sp, box)

    assert member([-0.9, 1.3]) is True
    assert member([0.9, 1.3]) is None
    # Q(y) = 9/50 < 39/200 = min_K Q: no isometry clears the box
    assert member([0.0, 0.3]) is False
    # the conjugate of b = (0, 1.3) has y = (0, -1.3), Q(y) >= min_K Q, in
    # the cone component opposite to K, which every isometry fixing v keeps
    assert member([0.0, 1.3]) is None
    p = dm.exp_point(dm.tube_point(sp, [0, 0], [0, 1.3]))
    conj = dm.PeriodPoint(lat, np.conj(p.z))
    assert gd.looijenga_member(conj, sp, box) is False


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 16))
def test_looijenga_exact_holds_every_grid_witness(n, seed):
    # y-boxes and points of both cone components around a cone direction
    # of G_L (diag(2) at rank 3, diag(-2, 2) at rank 4)
    from fractions import Fraction as F
    sp = SPLITS[n]
    rng = np.random.default_rng(seed)
    pos = int(np.argmax(np.diag(sp.gram_L_np())))
    lo = [F(int(rng.integers(-6, 5)), 10) for _ in range(sp.rho)]
    lo[pos] = F(int(rng.integers(19, 40)), 10)
    hi = [x + F(int(rng.integers(0, 15)), 10) for x in lo]
    box = dm.TubeBox.make(sp, [-1] * sp.rho, [1] * sp.rho, lo, hi)
    b = rng.uniform(-1.5, 1.5, size=sp.rho)
    b[pos] = rng.uniform(1.6, 6.0) * rng.choice([1, -1], p=[0.8, 0.2])
    p = dm.exp_point(dm.tube_point(sp, rng.uniform(-1, 1, size=sp.rho), b))
    exact = gd.looijenga_member(p, sp, box)
    assert exact or not _looijenga_grid(p, sp, box, 9)
