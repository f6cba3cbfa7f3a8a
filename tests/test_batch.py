"""Batched chart points against their sample-by-sample forms.

The per-sample loops below are the reference oracles: each calls the scalar
maps (a batch of one) once per sample, in the order the batch replaces.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import charges as ch, domain as dm, geodesics as gd
from mukai_kit.errors import (
    DegenerateAtVError,
    NotPositiveError,
    SamplingTooCoarseError,
)

LATTICES = {
    3: mk.preset("mukai_rank1(1)"),
    4: mk.mukai_lattice([[2, 0], [0, -2]], "rank4"),
    5: mk.mukai_lattice([[2, 1, 0], [1, -2, 0], [0, 0, -4]], "rank5"),
}
SPLITS = {n: dm.split_at(lat.vector([0] * (n - 1) + [1]))
          for n, lat in LATTICES.items()}


# -- reference oracles: the per-sample loops ----------------------------------

def factor_path_loop(samples, split, branch_offset=0):
    """Sample-by-sample factorization; the reference for ch.factor_path."""
    lat = split.lattice
    ts, lifts = [], []
    max_resid = 0.0
    prev_phi = None
    for t, zvec in samples:
        zvec = np.asarray(zvec, dtype=complex)
        pt, tmat = dm.gl2_factor(dm.FrameVec(lat, zvec), split)
        recon = dm.gl2_act(dm.exp_frame(pt), tmat)
        resid = float(np.max(np.abs(recon.z - zvec)))
        max_resid = max(max_resid,
                        resid / max(1.0, float(np.max(np.abs(zvec)))))
        raw = math.atan2(tmat[1, 0], tmat[0, 0]) / math.pi
        # the winding check runs on the lift without the branch offset
        if prev_phi is None:
            phi = raw
        else:
            phi = raw + 2.0 * round((prev_phi - raw) / 2.0)
            if abs(phi - prev_phi) >= 0.5:
                raise SamplingTooCoarseError(
                    f"winding jump {abs(phi - prev_phi):.3f} at t = {t}")
        prev_phi = phi
        ts.append(float(t))
        lifts.append(ch.LiftedGL2.make(tmat, phi + 2.0 * branch_offset))
    return ts, lifts, max_resid


def oracle_deviation_loop(pt, result):
    """One oracle row and one geodesic point at a time."""
    rho = pt.split.rho
    worst = 0.0
    for t, row in zip(result.ts, result.chart):
        p_oracle = dm.exp_point(dm.tube_point(pt.split, row[:rho], row[rho:]))
        p_formula = gd.geodesic_point(pt, float(t))
        worst = max(worst, float(dm.proj_distance(p_oracle, p_formula)))
    return worst


def speed_loop(pt, t):
    """The metric evaluated at one time."""
    sp = pt.split
    a0, b0 = pt.chart()
    b = math.exp(t) * b0
    vel = np.concatenate([np.zeros(sp.rho), b])
    g = gd.chart_metric(sp, dm.tube_point(sp, a0, b))
    return math.sqrt(float(vel @ g @ vel))


# -- strategies ---------------------------------------------------------------

def _cone_point(split, draw):
    """Chart coordinates (a, b), b in the positive cone; the flag says
    whether b^2 >= 1/2."""
    gl = split.gram_L_np()
    pos = int(np.argmax(np.diag(gl)))
    a = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(split.rho)])
    b = np.array([draw(st.floats(-0.3, 0.3)) for _ in range(split.rho)])
    b[pos] = draw(st.floats(0.8, 1.5))
    return a, b, float(b @ gl @ b) >= 0.5


def _rotation(phi):
    c, s = math.cos(math.pi * phi), math.sin(math.pi * phi)
    return np.array([[c, -s], [s, c]])


@st.composite
def paths(draw):
    """(rank, samples): z(t) = Exp_v(pt(t)) . R(rate t) T0 on a segment."""
    n = draw(st.sampled_from(sorted(LATTICES)))
    sp = SPLITS[n]
    a0, b0, ok0 = _cone_point(sp, draw)
    a1, b1, ok1 = _cone_point(sp, draw)
    rate = draw(st.floats(-5.0, 5.0))
    count = draw(st.integers(2, 80))
    base = np.eye(2) + np.array(draw(st.lists(st.floats(-0.3, 0.3),
                                              min_size=4, max_size=4))
                                ).reshape(2, 2)
    ts = np.linspace(0.0, 1.0, count)
    tmats = np.array([_rotation(rate * t) @ base for t in ts])
    if not (ok0 and ok1 and np.all(np.linalg.det(tmats) > 0)):
        return n, []
    frames = dm.exp_frame(dm.tube_point(sp, a0 + np.outer(ts, a1 - a0),
                                        b0 + np.outer(ts, b1 - b0)))
    return n, list(zip(ts.tolist(), dm.gl2_act(frames, tmats).z))


def _deep_cusp_frame(split, a, b):
    """A frame so far into the cusp that theta(z).v is numerically 0."""
    return dm.exp_frame(dm.tube_point(split, a, 1e6 * np.asarray(b))).z


def _flat_frame(split):
    """z = v + i f spans a hyperbolic plane: theta rejects it."""
    return split.v_np() + 1j * split.f_np()


# -- factor_path --------------------------------------------------------------

def _outcome(fn):
    try:
        return "ok", fn()
    except (SamplingTooCoarseError, NotPositiveError, DegenerateAtVError) as e:
        return type(e), str(e)


def _first_failing(samples, split, branch_offset):
    """Index of the sample at which the loop raises, which it does."""
    lo, hi = 0, len(samples)  # the loop passes on samples[:lo], not on [:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _outcome(lambda: factor_path_loop(samples[:mid], split,
                                             branch_offset))[0] == "ok":
            lo = mid
        else:
            hi = mid
    return hi - 1


@settings(max_examples=60, deadline=None)
@given(paths(), st.data())
def test_factor_path_matches_loop(path, data):
    n, samples = path
    sp = SPLITS[n]
    samples = list(samples)
    # optionally spoil some samples: a non-positive frame, or one at z.v ~ 0
    for _ in range(data.draw(st.integers(0, 2)) if samples else 0):
        k = data.draw(st.integers(0, len(samples) - 1))
        a, b, _ = _cone_point(sp, data.draw)
        bad = data.draw(st.sampled_from([_flat_frame(sp),
                                         _deep_cusp_frame(sp, a, b)]))
        samples[k] = (samples[k][0], bad)
    want = _outcome(lambda: factor_path_loop(samples, sp, 1))
    got = _outcome(lambda: ch.factor_path(samples, sp, 1))
    if want[0] != "ok":
        assert got == want
        # the same branch offset as above: at a jump of exactly half a turn
        # the offset's rounding decides the winding check
        k = _first_failing(samples, sp, 1)
        assert _outcome(lambda: ch.factor_path(samples[:k], sp, 1))[0] == "ok"
        assert _outcome(lambda: ch.factor_path(samples[:k + 1], sp, 1)) == want
        return
    assert got[0] == "ok", got
    ts, lifts, resid = want[1]
    res = got[1]
    assert res.ts == ts
    assert len(res.tube_path.x) == len(samples)
    assert abs(res.max_residual - resid) <= 1e-12
    for g_batch, g_loop in zip(res.lifts, lifts, strict=True):
        assert np.max(np.abs(g_batch.t_np() - g_loop.t_np())) <= 1e-12
        assert abs(g_batch.phi0 - g_loop.phi0) <= 1e-12


@pytest.mark.parametrize("offset", [0, 1])
def test_winding_check_ignores_branch_offset(offset):
    # z(t) = R(t).(1, i, -1), R(t) the rotation by a hair under pi t: the
    # phase steps by 0.49999999999999994, under half a turn at any offset
    sp = SPLITS[3]
    frame = dm.exp_frame(dm.tube_point(sp, [0.0], [1.0]))
    assert frame.z.tolist() == [1, 1j, -1]
    rate = math.nextafter(1.0, 0.0)
    samples = [(t, dm.gl2_act(frame, _rotation(rate * t)).z)
               for t in (0.0, 0.5, 1.0)]
    got = [g.phi0 for g in ch.factor_path(samples, sp, offset).lifts]
    want = [g.phi0 for g in factor_path_loop(samples, sp, offset)[1]]
    assert got == want
    assert got == pytest.approx([2 * offset + k / 2 for k in range(3)],
                                rel=0, abs=1e-15)


def test_deep_cusp_sample_is_degenerate():
    sp = SPLITS[3]
    with pytest.raises(DegenerateAtVError, match="^z.v = 0$"):
        ch.factor_path([(0.0, _deep_cusp_frame(sp, [0.1], [1.0]))], sp)
    with pytest.raises(NotPositiveError):
        ch.factor_path([(0.0, _flat_frame(sp))], sp)


def test_later_stage_failure_in_an_earlier_sample_decides():
    # sample 2 fails theta (a first stage); sample 1 only the phase check
    sp = SPLITS[3]
    z = dm.exp_frame(dm.tube_point(sp, [0.1], [1.0])).z
    samples = [(0.0, z), (1.0, -z), (2.0, _flat_frame(sp))]
    with pytest.raises(SamplingTooCoarseError, match="at t = 1.0"):
        factor_path_loop(samples, sp)
    with pytest.raises(SamplingTooCoarseError, match="at t = 1.0"):
        ch.factor_path(samples, sp)


# -- geodesic checks ----------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(LATTICES)), st.data())
def test_speed_matches_loop(n, data):
    sp = SPLITS[n]
    a, b, ok = _cone_point(sp, data.draw)
    if not ok:
        return
    pt = dm.tube_point(sp, a, b)
    ts = np.array(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1,
                                     max_size=12)))
    got = gd.speed(pt, ts)
    want = [speed_loop(pt, t) for t in ts.tolist()]
    assert np.max(np.abs(got - want)) <= 1e-12
    # the metric is evaluated, not assumed: h(b)(b, b) = 2 at every b
    assert np.max(np.abs(got - math.sqrt(2 * sp.rho))) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(LATTICES)), st.data())
def test_oracle_deviation_matches_loop(n, data):
    sp = SPLITS[n]
    a, b, ok = _cone_point(sp, data.draw)
    if not ok:
        return
    pt = dm.tube_point(sp, a, b)
    res = gd.geodesic_oracle(pt, data.draw(st.floats(0.0, 0.5)), 100)
    assert abs(gd.oracle_deviation(pt, res)
               - oracle_deviation_loop(pt, res)) <= 1e-12


# -- validation parity --------------------------------------------------------

def _spoil(split, x, y, check):
    """Rows (x, y) that fail ``check`` and pass every check before it."""
    r = split.comp_np()[:, 0]
    return {"x^2": (x + 0.1 * r, y),
            "x.v": (2.0 * x, y),
            "y.v": (x, y + 0.1 * split.f_np()),
            "y.x": (x, y + 0.1 * split.v_np()),
            "y^2": (x, 0.0 * y)}[check]


def _raised(fn):
    with pytest.raises((ValueError, NotPositiveError)) as info:
        fn()
    return type(info.value), str(info.value), getattr(info.value, "row", None)


CHECKS = ("x^2", "x.v", "y.v", "y.x", "y^2")


@pytest.mark.parametrize("n", sorted(LATTICES))
@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("k", [0, 3, 6])
def test_tube_validation_parity(n, check, k):
    sp = SPLITS[n]
    rng = np.random.default_rng(k)
    pts = dm.tube_point(sp, rng.normal(size=(7, sp.rho)) * 0.3,
                        np.tile(_cone_b(sp), (7, 1)))
    xb, yb = _spoil(sp, pts.x[k], pts.y[k], check)
    kind, message, _ = _raised(dm.TubePoint(sp, xb, yb).validate)
    assert message.startswith(check)
    x, y = pts.x.copy(), pts.y.copy()
    x[k], y[k] = xb, yb
    assert _raised(dm.TubePoint(sp, x, y).validate) == (kind, message, k)
    # with a second bad row after it, the earlier one still decides
    if k < 6:
        other = CHECKS[(CHECKS.index(check) + 2) % len(CHECKS)]
        x[6], y[6] = _spoil(sp, pts.x[6], pts.y[6], other)
        assert _raised(dm.TubePoint(sp, x, y).validate) == (kind, message, k)


def _cone_b(split):
    gl = split.gram_L_np()
    b = np.zeros(split.rho)
    b[int(np.argmax(np.diag(gl)))] = 1.0
    return b


@pytest.mark.parametrize("n", sorted(LATTICES))
@pytest.mark.parametrize("k", [0, 2, 4])
def test_frame_positivity_parity(n, k):
    sp = SPLITS[n]
    frames = dm.exp_frame(dm.tube_point(
        sp, np.linspace(-0.5, 0.5, 5)[:, None] * np.ones(sp.rho),
        np.tile(_cone_b(sp), (5, 1))))
    bad = _flat_frame(sp)
    for check in (lambda z: dm.FrameVec(sp.lattice, z).validate(),
                  lambda z: dm.theta(dm.FrameVec(sp.lattice, z))):
        kind, message, _ = _raised(lambda: check(bad))
        z = frames.z.copy()
        z[k] = bad
        assert _raised(lambda: check(z)) == (kind, message, k)
        if k < 4:
            z[4] = 0.0  # a second, later bad row
            assert _raised(lambda: check(z)) == (kind, message, k)
