import decimal
import math
from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import charges as ch, domain as dm, lattice
from mukai_kit.lattice import _sign_canonical
from mukai_kit.errors import (
    InconsistentLiftError,
    MukaiKitError,
    NonPositiveOmegaError,
    NonPositiveRankError,
    NotHyperbolicError,
    SamplingTooCoarseError,
    ZeroChargeError,
)


def charge_on_ray(lat, v, h, n):
    """(Re, Im) of the charge of v at Exp(0 + i n h), exact in n.

    Re = n^2 h^2 r / 2 - s, Im = n (h.c1).
    """
    h = [int(x) for x in h]
    h2 = lattice.ns_pair(lat, h, h)
    hc = lattice.ns_pair(lat, h, list(v.ns_part))
    n = F(n)
    return (F(n * n * h2 * v.r, 2) - v.s, n * hc)


def mu_slope(v, h):
    """Numeric slope mu_h(v) = h.c1 / r of a Mukai vector."""
    hc = lattice.ns_pair(v.lattice, [int(x) for x in h], v.ns_part)
    return F(hc, v.r)


@pytest.fixture(scope="module")
def rank3():
    lat = mk.preset("mukai_rank1(1)")
    return lat, dm.split_at(lat.vector([0, 0, 1]))


# -- exp classes and charges -----------------------------------------------------

def test_exp_class_examples(rank3):
    lat, sp = rank3
    z = ch.exp_class(lat, [0], [2])
    assert np.allclose(z.z, [1, 2j, -4])
    z2 = ch.exp_class(lat, [1], [1])
    assert np.allclose(z2.z, [1, 1 + 1j, 2j])
    assert abs(ch.central_charge(z, lat.vector([0, 0, 1])) + 1) < 1e-12
    with pytest.raises(NonPositiveOmegaError):
        ch.exp_class(lat, [0], [0])


def test_central_charge_bilinear(rank3):
    lat, sp = rank3
    z = ch.exp_class(lat, [0.3], [1.7])
    u = lat.vector([2, -1, 3])
    w = lat.vector([0, 4, 1])
    lhs = ch.central_charge(z, u.scale(3) + w.scale(-2))
    rhs = 3 * ch.central_charge(z, u) - 2 * ch.central_charge(z, w)
    assert abs(lhs - rhs) < 1e-12
    # exact rational bilinearity on the large-volume ray
    n = F(7, 3)
    for a, b in ((3, -2), (5, 1), (-4, 7)):
        lin = u.scale(a) + w.scale(b)
        re_l, im_l = charge_on_ray(lat, lin, [1], n)
        re_u, im_u = charge_on_ray(lat, u, [1], n)
        re_w, im_w = charge_on_ray(lat, w, [1], n)
        assert re_l == a * re_u + b * re_w
        assert im_l == a * im_u + b * im_w


def test_charge_on_ray_example(rank3):
    lat, _ = rank3
    vE = lat.vector([1, 1, 0])
    re, im = charge_on_ray(lat, vE, [1], 3)
    assert (re, im) == (F(9), F(6))  # n^2 + 2in at n = 3


def test_phase_convention():
    assert ch.phase(-5.0) == 1.0
    assert ch.phase(1j) == 0.5
    assert abs(ch.phase(-1j) - 1.5) < 1e-12
    assert ch.phase(3.0) == 0.0
    assert ch.heart_phase(-2.0) == 1.0
    with pytest.raises(ZeroChargeError):
        ch.phase(0)


# -- lifted GL2 ---------------------------------------------------------------------

def test_sigma_shift_algebra():
    s1 = ch.sigma_shift(1.0)
    s2 = s1.compose(s1)
    assert np.allclose(s2.t_np(), np.eye(2))
    assert s2.phi0 == pytest.approx(2.0)
    assert s2.winding == 1
    s0 = ch.sigma_shift(0.0)
    assert np.allclose(s0.t_np(), np.eye(2)) and s0.phi0 == 0.0
    comp = ch.sigma_shift(0.25).compose(ch.sigma_shift(0.5))
    assert comp.phi0 == pytest.approx(0.75)


def test_lift_consistency_validation():
    with pytest.raises(InconsistentLiftError):
        ch.LiftedGL2.make(np.eye(2), 0.5)
    g = ch.LiftedGL2.make(np.eye(2), 4.0)
    assert g.winding == 2


def test_phase_map_properties():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.normal(size=(2, 2))
        if np.linalg.det(t) <= 0:
            t = t[::-1]
        g = ch.LiftedGL2.make(t, math.atan2(t[1, 0], t[0, 0]) / math.pi)
        phi = float(rng.uniform(-2, 2))
        assert g.phase_map(phi + 1.0) == pytest.approx(g.phase_map(phi) + 1.0,
                                                       abs=1e-9)


def _phase_map_by_continuation(g, phi):
    """Reference: the lift continued from 0 to phi, 32 steps per unit, each
    step taking the lift of the raw phase nearest the running value."""
    t = g.t_np()
    cur = g.phi0
    n = max(1, int(abs(phi) * 32))
    for p in [phi * i / n for i in range(1, n)] + [phi]:
        vec = t @ [math.cos(math.pi * p), math.sin(math.pi * p)]
        r = math.atan2(vec[1], vec[0]) / math.pi
        cur = r + 2.0 * round((cur - r) / 2.0)
    return cur


_ENTRY = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1, 1]),
                   st.floats(-2, 2))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRY, min_size=4, max_size=4), st.integers(-3, 3),
       st.floats(-6, 6))
def test_phase_map_matches_continuation(entries, winding, phi):
    # a nearly singular T leaves both sides to rounding
    t = np.array(entries).reshape(2, 2)
    assume(np.linalg.cond(t) < 1e6)
    if np.linalg.det(t) < 0:
        t = t[::-1]
    g = ch.LiftedGL2.make(t, ch._col_phase(t) + 2 * winding)
    assert g.phase_map(phi) == pytest.approx(
        _phase_map_by_continuation(g, phi), abs=1e-12)


def test_phase_shift_on_charges(rank3):
    lat, _ = rank3
    rng = np.random.default_rng(1)
    z = ch.exp_class(lat, [0.2], [1.5])
    for _ in range(1000):
        lam = float(rng.uniform(-3, 3))
        v = lat.vector([int(rng.integers(-5, 6)) for _ in range(3)])
        zc = ch.central_charge(z, v)
        if abs(zc) < 1e-9:
            continue
        shifted = ch.central_charge(
            dm.gl2_act(z, ch.sigma_shift(lam).t_np()), v)
        assert abs(shifted - zc * np.exp(1j * math.pi * lam)) < 1e-9 * abs(zc)
        assert ch.phase(shifted) == pytest.approx(
            (ch.phase(zc) + lam) % 2.0, abs=1e-9)


def test_theta_invariance_under_lift(rank3):
    lat, sp = rank3
    fr = dm.exp_frame(dm.tube_point(sp, [0.1], [1.2]))
    g = ch.sigma_shift(0.37)
    assert dm.proj_distance(dm.theta(dm.gl2_act(fr, g.t_np())),
                            dm.theta(fr)) < 1e-10


# -- path factorization ---------------------------------------------------------------

def rotation(phi):
    c, s = math.cos(math.pi * phi), math.sin(math.pi * phi)
    return np.array([[c, -s], [s, c]])


def build_path(sp, winding_rate, n_samples, t_end=1.0, base=None):
    ts = np.linspace(0.0, t_end, n_samples)
    samples = []
    for t in ts:
        pt = dm.tube_point(sp, [0.2 + 0.1 * t], [1.0 + 0.5 * t])
        tmat = rotation(winding_rate * t)
        if base is not None:
            tmat = tmat @ base
        fr = dm.gl2_act(dm.exp_frame(pt), tmat)
        samples.append((float(t), fr.z))
    return samples


def test_factor_trivial_path(rank3):
    lat, sp = rank3
    samples = build_path(sp, 0.0, 50)
    res = ch.factor_path(samples, sp)
    assert res.max_residual < 1e-10
    for g in res.lifts:
        assert np.allclose(g.t_np(), np.eye(2), atol=1e-9)
        assert abs(g.phi0) < 1e-9


def test_factor_recovers_winding(rank3):
    lat, sp = rank3
    for rate in (1.0, -2.0, 3.0):
        samples = build_path(sp, rate, 200)
        res = ch.factor_path(samples, sp)
        assert res.max_residual < 1e-9
        assert res.lifts[-1].phi0 == pytest.approx(rate, abs=1e-9)


def test_factor_even_shift_ambiguity(rank3):
    lat, sp = rank3
    samples = build_path(sp, 1.5, 120)
    res0 = ch.factor_path(samples, sp)
    res1 = ch.factor_path(samples, sp, branch_offset=2)
    for g0, g1 in zip(res0.lifts, res1.lifts):
        assert np.allclose(g0.t_np(), g1.t_np())
        assert g1.phi0 - g0.phi0 == pytest.approx(4.0, abs=1e-12)


def test_factor_coarse_sampling_detected(rank3):
    lat, sp = rank3
    samples = build_path(sp, 5.0, 8)  # ~0.71 phase step
    with pytest.raises(SamplingTooCoarseError):
        ch.factor_path(samples, sp)


# -- wall crossings ---------------------------------------------------------------------

def _sampled_crossings(frame_at, t0, t1, split, candidates):
    """Oracle: bracket and bisect wall events of z(t) against candidate roots.

    ``frame_at(t)`` returns the FrameVec of the path at time t (with
    z.v != 0 throughout).  A-events are sign changes of Im z.delta with
    Re z.delta <= 0 at the crossing (roots pairing negatively with v);
    C-events are sign changes of Im z.delta for roots orthogonal to v;
    D-events additionally have |z.delta| = 0 at the crossing.  The path is
    sampled at 401 grid times and each sign change bisected to 1e-9 in t.
    """
    events = []
    samples = 400
    grid = np.linspace(t0, t1, samples + 1)
    # one wall per oriented root, one C-wall per image in L(v)
    worklist = list(dict.fromkeys(dm._orient_root(split, delta)
                                  for delta in candidates))
    if not worklist:
        return events
    # z.delta on the grid: the grid frames once, all candidates in one product
    g = dm.gram_np(split.lattice)
    roots = np.array([delta.coords for delta, _ in worklist], dtype=float)
    grid_vals = np.array([frame_at(t).z for t in grid]) @ g @ roots.T
    for dv, col, (delta, d) in zip(roots, grid_vals.T, worklist):
        def f(t, dv=dv):
            return complex(frame_at(t).z @ g @ dv)

        vals = col.tolist()
        scale = max(1e-12, max(abs(v) for v in vals))
        zero_tol = 1e-12 * scale

        def emit(tstar, fstar, side):
            if d > 0:
                if fstar.real <= 1e-9 * scale:
                    kind = "D" if abs(fstar.real) <= 1e-7 * scale else "A"
                    events.append(dm.WallEvent(tstar, kind, delta, side))
            else:
                kind = "D" if abs(fstar.real) <= 1e-7 * scale else "C"
                events.append(dm.WallEvent(tstar, kind, delta, side))

        for i in range(samples + 1):
            if abs(vals[i].imag) <= zero_tol:
                before = vals[i - 1].imag if i > 0 else -vals[min(i + 1, samples)].imag
                after = vals[i + 1].imag if i < samples else -before
                emit(float(grid[i]), vals[i],
                     (int(math.copysign(1, before)),
                      int(math.copysign(1, after))))
        for i in range(samples):
            a, b = vals[i], vals[i + 1]
            if abs(a.imag) <= zero_tol or abs(b.imag) <= zero_tol:
                continue
            if a.imag * b.imag >= 0:
                continue
            lo, hi = grid[i], grid[i + 1]
            flo = a
            while hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if flo.imag * fm.imag <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            tstar = 0.5 * (lo + hi)
            emit(tstar, f(tstar),
                 (int(math.copysign(1, a.imag)),
                  int(math.copysign(1, b.imag))))
    events.sort(key=lambda e: (e.t, e.kind, e.root.coords))
    return events


def _segment_frames(split, start, end):
    """frame_at(t) along the chart segment from start to end, in floats."""
    (a0, b0), (a1, b1) = ([np.array([float(x) for x in c]) for c in p]
                          for p in (start, end))

    def frame_at(t):
        return dm.exp_frame(dm.tube_point(split, a0 + t * (a1 - a0),
                                          b0 + t * (b1 - b0)))
    return frame_at


def test_wall_crossing_bracketing(rank3):
    lat, sp = rank3
    start, end = ([F("-0.513")], [F("0.6")]), ([F("0.487")], [F("0.6")])
    ev = dm.wall_crossings(sp, start, end)
    assert len(ev) == 1
    assert ev[0].kind == "A" and ev[0].root.coords == (1, 0, 1)
    assert ev[0].t == pytest.approx(0.513, abs=1e-8)

    rev = dm.wall_crossings(sp, end, start)
    assert len(rev) == 1
    assert rev[0].t == pytest.approx(1.0 - 0.513, abs=1e-8)
    assert rev[0].side_change == tuple(reversed(ev[0].side_change))


def test_no_events_in_large_volume(rank3):
    lat, sp = rank3
    assert dm.wall_crossings(sp, ([0.3], [1.5]), ([0.3], [4.5])) == []


def test_segment_inside_a_wall_hyperplane_raises(rank3):
    # a = 0 keeps Im(z.delta) = 0 for (1, 0, 1), whose A-wall holds b <= 1;
    # the sampler reported one A event per grid sample there
    lat, sp = rank3
    with pytest.raises(ValueError, match=r"root \(1, 0, 1\)"):
        dm.wall_crossings(sp, ([0], [F(1, 2)]), ([0], [2]))
    # ... also when the segment starts above the wall and enters it
    with pytest.raises(ValueError, match=r"root \(1, 0, 1\)"):
        dm.wall_crossings(sp, ([0], [2]), ([0], [F(1, 2)]))
    # on the same hyperplane above the A-wall nothing is crossed
    assert dm.wall_crossings(sp, ([0], [F(3, 2)]), ([0], [2])) == []


def test_tangent_crossing_keeps_its_side():
    # u = lam/d - a = (t - 1/2, 0) for the root c = d = 1, lam = 0 on
    # G_L = diag(-2, 2): Im = b^T G_L u = -(t - 1/2)^2 / 2 touches zero at
    # t = 1/2, where y^2 = 1/2 puts the point on the A-wall
    lat = mk.mukai_lattice([[2, 0], [0, -2]])
    sp = dm.split_at(lat.vector([0, 0, 0, 1]))
    assert sp.gram_L == ((-2, 0), (0, 2))
    root = sp.root_from_data(1, 1, (0, 0))
    start, end = ([F(1, 2), 0], [F(-1, 8), F(1, 2)]), \
        ([F(-1, 2), 0], [F(1, 8), F(1, 2)])
    ev = [e for e in dm.wall_crossings(sp, start, end) if e.root == root]
    assert [(e.t, e.kind, e.side_change) for e in ev] == [(0.5, "A", (-1, -1))]
    frame_at = _segment_frames(sp, start, end)
    g = dm.gram_np(lat)
    for t in (0.49, 0.51):
        assert (frame_at(t).z @ g @ np.array(root.coords, float)).imag < 0


def test_d_crossing_beyond_the_sampler_box(rank3):
    # a = 2/5, b = 1/5 is the D point of (5, 2, 1): d = 5, y^2 = 2/25
    lat, sp = rank3
    start, end = ([F(3, 10)], [F(1, 5)]), ([F(1, 2)], [F(1, 5)])
    ev = [e for e in dm.wall_crossings(sp, start, end)
          if e.root.coords == (5, 2, 1)]
    assert [(e.t, e.kind) for e in ev] == [(0.5, "D")]
    sampled = _sampled_crossings(_segment_frames(sp, start, end), 0.0, 1.0,
                                 sp, [r.vec for r in mk.roots_in_box(lat, 3)])
    assert all(e.root.coords != (5, 2, 1) for e in sampled)


@pytest.mark.parametrize("p, q, disc, m", [
    (1, 1, 2, 3), (-7, 3, 5, 11), (3, -1, 7, -4),
    (10**9, -1, 10**17 + 3, 3 * 10**9), (5, 0, 0, 8),
    # 2^-135 above (below) the midpoint of two floats whose lower (upper)
    # neighbour has the even mantissa, where a tie would round wrong
    (2**53 + 1 - 2**80, 1, 2**160 + 1, 2**54),
    (2**53 + 3 + 2**80, -1, 2**160 + 1, 2**54)])
def test_crossing_times_are_nearest_floats(p, q, disc, m):
    # t = (p + q sqrt(disc)) / m against a 60-digit decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        exact = (Decimal(p) + q * Decimal(disc).sqrt()) / m
    assert dm._nearest_float((p, q, disc, m)) == float(exact)


_SEGMENT_LATTICES = {"rank3": [[2]], "rank4": [[2, 0], [0, -2]]}


def _rational(draw, lo, hi, den=8):
    return F(draw(st.integers(lo * den, hi * den)), den)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_SEGMENT_LATTICES)), st.data())
@example("rank3", None)
def test_segment_crossings_match_sampler(name, data):
    """The exact events hold every event of the 401-sample oracle (t to
    1e-6, kind, root), and each event's wall meets the segment's bounding
    box by the exact box test."""
    lat = mk.mukai_lattice(_SEGMENT_LATTICES[name])
    sp = dm.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    if data is None:     # the D point of (5, 2, 1), t = 1/2
        start, end = ([F(3, 10)], [F(1, 5)]), ([F(1, 2)], [F(1, 5)])
    else:
        draw = data.draw
        pos = int(np.argmax(np.diag(sp.gram_L)))

        def b_point():
            # the positive-norm coordinate dominates the others (G_L is
            # diagonal with entries +-2), so both ends lie in one component
            b = [_rational(draw, -1, 1) / 2 for _ in range(sp.rho)]
            b[pos] = _rational(draw, 1, 10) / 8 + sum(map(abs, b)) - abs(b[pos])
            return b
        start = ([_rational(draw, -2, 2) for _ in range(sp.rho)], b_point())
        end = ([_rational(draw, -2, 2) for _ in range(sp.rho)], b_point())
    try:
        events = dm.wall_crossings(sp, start, end)
    except ValueError as exc:
        # only a segment on a wall's Im = 0 hyperplane may raise
        coords = tuple(int(x) for x in
                       str(exc).rsplit("(", 1)[1].rstrip(")").split(","))
        frame_at = _segment_frames(sp, start, end)
        root = np.array(coords, dtype=float)
        g = dm.gram_np(lat)
        assert all(abs((frame_at(t).z @ g @ root).imag) < 1e-9
                   for t in (0.0, 0.37, 1.0))
        return
    oracle = _sampled_crossings(_segment_frames(sp, start, end), 0.0, 1.0, sp,
                                [r.vec for r in mk.roots_in_box(lat, 4)])
    for e in oracle:
        match = [g for g in events if (g.kind, g.root) == (e.kind, e.root)
                 and abs(g.t - e.t) <= 1e-6]
        assert match, (e, events)
    lo = [min(x, y) for x, y in zip(start[0], end[0])]
    hi = [max(x, y) for x, y in zip(start[0], end[0])]
    b_lo = [min(x, y) for x, y in zip(start[1], end[1])]
    b_hi = [max(x, y) for x, y in zip(start[1], end[1])]
    try:
        box = dm.TubeBox.make(sp, lo, hi, b_lo, b_hi)
    except mk.errors.UnboundedBoxError:
        return
    walls = {(w.kind, w.root.coords) for w in dm.enumerate_walls_region(
        sp, box, candidates=[e.root for e in events])}
    for e in events:
        # a box enumeration lists only the C-wall of a d = 0 root
        kind = "C" if sp.v.dot(e.root) == 0 else e.kind
        assert (kind, e.root.coords) in walls


# -- large-volume threshold ----------------------------------------------------------

def test_threshold_worked_example(rank3):
    lat, _ = rank3
    vE = lat.vector([1, 1, 0])
    vA = lat.vector([1, 0, 1])
    n0, certs = ch.large_volume_threshold(vE, [vA], [1])
    assert n0 == 2
    assert certs[0].branch == "quadratic"
    assert not ch.threshold_inequality_holds(vE, vA, [1], 1)
    for n in range(2, 101):
        assert ch.threshold_inequality_holds(vE, vA, [1], n)


def test_threshold_equal_slope_branch(rank3):
    lat, _ = rank3
    vE = lat.vector([1, 1, 0])
    same = lat.vector([2, 2, -5])  # mu = 2 = mu(E)
    n0, certs = ch.large_volume_threshold(vE, [same], [1])
    assert n0 == 1 and certs[0].branch == "equal_slope"


def test_threshold_empty_candidates(rank3):
    lat, _ = rank3
    n0, certs = ch.large_volume_threshold(lat.vector([1, 1, 0]), [], [1])
    assert n0 == 1 and certs == []


def test_threshold_preconditions(rank3):
    lat, _ = rank3
    with pytest.raises(NonPositiveRankError):
        ch.large_volume_threshold(lat.vector([0, 1, 0]), [], [1])
    with pytest.raises(Exception):
        ch.large_volume_threshold(lat.vector([1, -1, 0]), [], [1])
    # Exp(i n h) needs h^2 > 0 and h in NS
    lat4 = mk.mukai_lattice([[2, 0], [0, -2]])
    vE, vA = lat4.vector([1, 1, -1, 0]), lat4.vector([1, 0, 0, 1])
    for h in ([1, 1], [0, 1]):          # h^2 = 0 and h^2 < 0
        with pytest.raises(NonPositiveOmegaError):
            ch.large_volume_threshold(vE, [vA], h)
    with pytest.raises(ValueError, match="h must be an NS-vector"):
        ch.large_volume_threshold(vE, [vA], [1])


def test_threshold_randomized_protocol(rank3):
    lat, _ = rank3
    rng = np.random.default_rng(2)
    done = 0
    while done < 30:
        r = int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        s = int(rng.integers(-4, 5))
        vE = lat.vector([r, c, s])
        cands = []
        for _ in range(int(rng.integers(1, 5))):
            cands.append(lat.vector([int(rng.integers(1, 4)),
                                     int(rng.integers(-3, 4)),
                                     int(rng.integers(-4, 5))]))
        try:
            n0, _ = ch.large_volume_threshold(vE, cands, [1])
        except Exception:
            continue
        done += 1
        for n in (n0, n0 + 7, n0 + 100):
            assert all(ch.threshold_inequality_holds(vE, a, [1], n)
                       for a in cands)
        if n0 > 1:
            assert any(not ch.threshold_inequality_holds(vE, a, [1], n0 - 1)
                       for a in cands)


def _holds_fractions(vE, vA, h, n):
    """Reference: the phase inequality at integer n, over Fractions."""
    reE, imE = charge_on_ray(vE.lattice, vE, h, n)
    muE, muA = mu_slope(vE, h), mu_slope(vA, h)
    if muA >= muE:
        return True  # no constraint branch
    rhs = -(F(vE.s, vE.r) - F(vA.s, vA.r)) / (n * (muE - muA))
    return reE / imE > rhs


def _int_sqrt_floor(x):
    """Largest integer k with k^2 <= x (x >= 0 rational)."""
    k = math.isqrt(x.numerator // x.denominator)
    while F((k + 1) * (k + 1)) <= x:
        k += 1
    while F(k * k) > x:
        k -= 1
    return k


def _threshold_fractions(vE, candidates, h):
    """Reference: the quadratic solver over Fractions.

    Returns n0 and (branch, n_min, bound) per candidate.
    """
    lat = vE.lattice
    h = [int(x) for x in h]
    h2 = lattice.ns_pair(lat, h, h)
    hcE = lattice.ns_pair(lat, h, vE.ns_part)
    muE, nuE = F(hcE, vE.r), F(vE.s, vE.r)
    n0, rows = 1, []
    for vA in candidates:
        muA, nuA = mu_slope(vA, h), F(vA.s, vA.r)
        if muA >= muE:
            rows.append(("equal_slope" if muA == muE else "higher_slope",
                         1, None))
            continue
        rhs = -(nuE - nuA) / (muE - muA)
        bound = (2 * vE.s + 2 * hcE * rhs) / F(h2 * vE.r)
        n_min = _int_sqrt_floor(bound) + 1 if bound >= 1 else 1
        rows.append(("quadratic", n_min, bound))
        n0 = max(n0, n_min)
    return n0, rows


_THRESHOLD_NS = {"<2>": [[2]], "<6>": [[6]], "U": [[0, 1], [1, 0]],
                 "<2>+<-2>": [[2, 0], [0, -2]], "A2": [[2, -1], [-1, 2]],
                 "<2>+<-2>+<-2>": [[2, 0, 0], [0, -2, 0], [0, 0, -2]],
                 "<2>+U": [[2, 0, 0], [0, 0, 1], [0, 1, 0]]}
# coordinates near 2^40 push the cross-multiplied products past int64;
# small r and c1 with a large s give large quadratic bounds and n0
_SMALL = st.integers(-6, 6)
_COORD = st.one_of(_SMALL, st.integers(-2 ** 41, 2 ** 41))
_RANK = st.one_of(st.integers(1, 6), st.integers(2 ** 39, 2 ** 41))


@st.composite
def _threshold_instances(draw):
    """(vE, candidates, h) meeting the preconditions: r > 0, h^2 > 0 and
    h.c_E > 0; candidates of any slope, some of exactly E's slope."""
    lat = mk.mukai_lattice(_THRESHOLD_NS[draw(st.sampled_from(
        sorted(_THRESHOLD_NS)))])
    k = lat.ns_rank

    def r_c(steep):
        return (draw(st.integers(1, 6) if steep else _RANK),
                draw(st.lists(_SMALL if steep else _COORD,
                              min_size=k, max_size=k)))

    h = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    assume(lattice.ns_pair(lat, h, h) > 0)
    r_e, c_e = r_c(draw(st.booleans()))
    hc = lattice.ns_pair(lat, h, c_e)
    assume(hc != 0)
    c_e = [x if hc > 0 else -x for x in c_e]
    vE = lat.vector([r_e, *c_e, draw(_COORD)])
    cands = []
    for kind in draw(st.lists(st.sampled_from(["equal", "free", "steep"]),
                              min_size=1, max_size=4)):
        if kind == "equal":
            t = draw(st.integers(1, 3))
            r, ns_part = t * r_e, [t * x for x in c_e]
        else:
            r, ns_part = r_c(kind == "steep")
        cands.append(lat.vector([r, *ns_part, draw(_COORD)]))
    return vE, cands, h


_R3 = mk.preset("mukai_rank1(1)")
# against vE = (1, 1, 0) and h = [1], A = (1, 0, s) has bound s: here
# m^2 - 1 and m^2, on either side of a square beyond float precision
_M = 2 ** 60 + 1
_HUGE = (_R3.vector([1, 1, 0]), [_R3.vector([1, 0, _M * _M - 1]),
                                 _R3.vector([1, 0, _M * _M])], [1])


@settings(max_examples=150, deadline=None)
@given(_threshold_instances(), st.data())
@example((_R3.vector([1, 1, 0]), [_R3.vector([1, 0, 1]),        # lower
                                  _R3.vector([2, 2, -5]),       # equal
                                  _R3.vector([1, 3, 0])], [1]),  # higher
         None)
@example(_HUGE, None)
def test_threshold_kernel_vs_fractions(inst, data):
    vE, cands, h = inst
    n0, rows = _threshold_fractions(vE, cands, h)
    ns = {1, 2, n0 - 1, n0, n0 + 1, n0 + 37, n0 + 100}
    if data is not None:
        ns.add(data.draw(st.integers(1, n0 + 100)))
    ns = sorted(n for n in ns if n >= 1)
    want = [[_holds_fractions(vE, a, h, n) for a in cands] for n in ns]
    assert ch.threshold_holds(vE, cands, h, ns) == want
    assert [[ch.threshold_inequality_holds(vE, a, h, n) for a in cands]
            for n in ns] == want
    # n0 is the boundary: nothing fails from n0 on, something fails below
    assert all(map(all, want[ns.index(n0):]))
    assert n0 == 1 or not all(want[ns.index(n0 - 1)])


@settings(max_examples=150, deadline=None)
@given(_threshold_instances())
@example((_R3.vector([1, 1, 0]), [_R3.vector([1, 0, 1]),
                                  _R3.vector([2, 2, -5]),
                                  _R3.vector([1, 3, 0])], [1]))
@example(_HUGE)
def test_large_volume_threshold_vs_fraction_solver(inst):
    vE, cands, h = inst
    n0, certs = ch.large_volume_threshold(vE, cands, h)
    want_n0, want = _threshold_fractions(vE, cands, h)
    assert n0 == want_n0
    assert [(c.branch, c.n_min, c.to_json()["bound"]) for c in certs] == [
        (b, n, None if bound is None else str(bound))
        for b, n, bound in want]
    assert [c.candidate for c in certs] == cands


# -- boundary beta search ---------------------------------------------------------------

def test_beta_search_rank4():
    lat = mk.mukai_lattice([[2, 0], [0, -2]], "rank4")
    c_root = lat.vector([0, 0, 1, 0])
    cert = ch.boundary_beta_search(lat, c_root, k=0, eta=[2, 0])
    val = cert.window_value
    assert F(-1) < val < F(0)
    # k shifted by 1 shifts the window value by 1
    cert1 = ch.boundary_beta_search(lat, c_root, k=1, eta=[2, 0])
    assert F(-1) < cert1.window_value < F(0)
    with pytest.raises(NonPositiveOmegaError):
        ch.boundary_beta_search(lat, c_root, k=0, eta=[1, 0])  # eta^2 = 2


def test_beta_search_conditions_hold():
    lat = mk.mukai_lattice([[2, 0], [0, -2]], "rank4")
    c_root = lat.vector([0, 0, 1, 0])
    cert = ch.boundary_beta_search(lat, c_root, k=0, eta=[2, 0],
                                   coord_bound=6)
    beta = [float(b) for b in cert.beta]
    eta = [2.0, 0.0]
    z = ch.exp_class(lat, beta, eta)
    gm = dm.gram_np(lat)
    for root in mk.roots_in_box(lat, 6):
        val = complex(z.z @ gm @ np.array(root.vec.coords, dtype=float))
        assert abs(val) > 1e-9                       # condition (1)
        if -lat.vector([0, 0, 0, 1]).dot(root.vec) > 0:
            in_r_le0 = abs(val.imag) < 1e-9 and val.real <= 0
            assert not in_r_le0                      # condition (2)


def _beta_check_fractions(lat, roots, c_ns, k, eta, beta):
    """Reference: conditions (1)-(3) at beta, one root at a time, exact."""
    ns = [row[1:-1] for row in lat.gram_rows()[1:-1]]
    kns = len(ns)

    def nsp(a, b):
        return sum(a[i] * ns[i][j] * b[j]
                   for i in range(kns) for j in range(kns))

    c_ns = [F(x) for x in c_ns]
    if not (F(-1) < nsp(beta, c_ns) + k < F(0)):
        return False
    b_eta, half = nsp(beta, eta), F(nsp(beta, beta) - nsp(eta, eta), 2)
    for delta in roots:
        r, s = delta.r, delta.s
        l = [F(x) for x in delta.ns_part]
        if nsp(l, eta) - r * b_eta == 0:      # Im z.delta
            re = nsp(l, beta) - r * half - s
            if re == 0 or (r > 0 and re < 0):
                return False
            if r == 0 and l != c_ns and l != [-x for x in c_ns]:
                raise ValueError("eta is not generic on the facet")
    return True


def _roots_orthogonal_to(lat, eta):
    """Reference: the NS-roots l with l.eta = 0, one per +-l, by a scan of
    the box |l_i| <= sqrt(2 (M^-1)_ii) + 1 around the majorant ellipsoid
    M(l) = 2 (l.eta)^2 / eta^2 - l^2 <= 2 that holds them."""
    ns = np.array([row[1:-1] for row in lat.gram_rows()[1:-1]])
    d = math.lcm(*(F(x).denominator for x in eta))
    e = np.array([int(F(x) * d) for x in eta], dtype=object)
    ge = ns.astype(object) @ e              # Python ints: eta may be huge
    m = 2.0 * np.outer(ge, ge).astype(float) / float(ge @ e) - ns
    radii = np.sqrt(2.0 * np.diag(np.linalg.inv(m))).astype(int) + 1
    box = np.stack(np.meshgrid(*[np.arange(-r, r + 1) for r in radii],
                               indexing="ij"), -1).reshape(-1, len(ns))
    hits = box[(box.astype(object) @ ge == 0)
               & (np.einsum("ij,jk,ik->i", box, ns, box) == -2)]
    return {_sign_canonical(tuple(l)) for l in hits.tolist()}


def _beta_search_oracle(lat, c_root, k, eta, bound):
    """Reference: search beta0 + t eta, t = 0, +-1/256, ..., +-63/256, in turn.

    beta0 = (k + 1/2)/2 C; each candidate goes through
    ``_beta_check_fractions``, which raises on non-generic eta, after
    ``_roots_orthogonal_to`` has checked genericity outside the box.
    """
    c_ns = list(c_root.ns_part)
    if lattice.ns_pair(lat, eta, eta) <= 2:
        raise NonPositiveOmegaError("eta^2 must exceed 2")
    if _roots_orthogonal_to(lat, eta) != {_sign_canonical(tuple(c_ns))}:
        raise ValueError("eta is not generic on the facet")
    roots = [r.vec for r in mk.roots_in_box(lat, bound)]
    for t in (F(sign * num, 256) for num in range(64) for sign in (1, -1)):
        beta = [F(2 * k + 1, 4) * c + t * x for c, x in zip(c_ns, eta)]
        if _beta_check_fractions(lat, roots, c_ns, k, eta, beta):
            return ch.BetaCertificate(
                tuple(beta), lattice.ns_pair(lat, beta, c_ns) + k, len(roots))
    raise LookupError("no beta among the 128 candidates")


def _outcome(fn):
    try:
        return fn().to_json()
    except (MukaiKitError, ValueError) as exc:
        return type(exc).__name__, str(exc) if type(exc) is ValueError else ""


_BETA_LATTICES = {"rank4": [[2, 0], [0, -2]], "rank4b": [[6, 0], [0, -2]],
                  "rank5": [[2, 0, 0], [0, -2, 0], [0, 0, -2]]}


@st.composite
def _hyperbolic_ns(draw):
    """A name of ``_BETA_LATTICES`` or diag(2a, -2, -2b); C = e_1 in each."""
    name = draw(st.sampled_from(sorted(_BETA_LATTICES) + ["diag"]))
    if name != "diag":
        return _BETA_LATTICES[name]
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[2 * a, 0, 0], [0, -2, 0], [0, 0, -2 * b]]


@settings(max_examples=60, deadline=None)
@given(_hyperbolic_ns(), st.integers(2, 3),
       st.builds(lambda n, d, neg: F(-n if neg else n, d),
                 st.integers(2, 12), st.integers(1, 3), st.booleans()),
       st.builds(F, st.integers(-4, 4), st.integers(1, 4)),
       st.integers(-5, 5))
@example(_BETA_LATTICES["rank5"], 3, F(2), F(0), 0)     # not generic
@example(_BETA_LATTICES["rank4"], 3, F(3), F(0), 0)
@example(_BETA_LATTICES["rank5"], 3, F(2), F(2, 3), -5)
@example(_BETA_LATTICES["rank4b"], 2, F(1, 2), F(0), 1)  # eta^2 = 3/2
@example([[4, 0, 0], [0, -2, 0], [0, 0, -2]], 2, F(3), F(4), 0)  # (2, 0, 3)
def test_closed_form_beta_vs_search_oracle(ns, bound, x0, x2, k):
    # eta on the facet eta.C = 0 (C = e_1 of a diagonal hyperbolic block)
    lat = mk.mukai_lattice(ns)
    c_root = lat.vector([0, 0, 1] + [0] * (len(ns) - 1))
    eta = [x0, F(0), x2][:len(ns)]
    want = _outcome(lambda: _beta_search_oracle(lat, c_root, k, eta, bound))
    got = _outcome(lambda: ch.boundary_beta_search(lat, c_root, k, eta,
                                                   coord_bound=bound))
    assert got == want


def test_beta_search_huge_inputs_stay_exact():
    # k = 10^15 gives beta numerators near 10^15, exact as Fractions
    lat = mk.mukai_lattice([[2, 0], [0, -2]])
    c_root = lat.vector([0, 0, 1, 0])
    k = 10 ** 15
    cert = ch.boundary_beta_search(lat, c_root, k, [2, 0], coord_bound=3)
    roots = [r.vec for r in mk.roots_in_box(lat, 3)]
    assert _beta_check_fractions(lat, roots, [0, 1], k, [F(2), F(0)],
                                 list(cert.beta))
    assert F(-1) < cert.window_value < F(0)
    # NS.E = (2^63 - 2, 0, 2): the root l = (2, 1, 2) has l.(NS.E) = 2^64,
    # which int64 wraps to 0 (a false non-generic verdict)
    lat5 = mk.mukai_lattice(_BETA_LATTICES["rank5"])
    c5 = lat5.vector([0, 0, 1, 0, 0])
    eta = [2 ** 62 - 1, 0, -1]
    cert = ch.boundary_beta_search(lat5, c5, 0, eta, coord_bound=2)
    assert cert.to_json() == _beta_search_oracle(lat5, c5, 0, eta,
                                                 2).to_json()


def test_beta_search_rejects_non_generic_eta():
    lat = mk.mukai_lattice(_BETA_LATTICES["rank5"])
    with pytest.raises(ValueError, match="not generic"):
        ch.boundary_beta_search(lat, lat.vector([0, 0, 1, 0, 0]), 0,
                                [2, 0, 0], coord_bound=3)


@pytest.mark.parametrize("eta, bound, root", [
    ([17, 0, 24], 8, (12, 0, 17)), ([3, 0, 4], 2, (2, 0, 3))])
def test_beta_search_rejects_roots_outside_the_box(eta, bound, root):
    # NS = diag(4, -2, -2), C = (0, 1, 0): the root orthogonal to eta lies
    # outside |coords| <= bound, and z = exp(beta0 + i eta) pairs to 0
    # with (0; root; 0), so no box-limited scan may certify eta
    lat = mk.mukai_lattice([[4, 0, 0], [0, -2, 0], [0, 0, -2]])
    assert max(root) > bound and lattice.ns_pair(lat, root, root) == -2
    assert lattice.ns_pair(lat, root, eta) == 0
    assert _roots_orthogonal_to(lat, eta) == {(0, 1, 0), root}
    with pytest.raises(ValueError, match="not generic"):
        ch.boundary_beta_search(lat, lat.vector([0, 0, 1, 0, 0]), 0, eta,
                                coord_bound=bound)


def test_beta_search_ns_with_zero_diagonal():
    # NS = [[0, 1], [1, -2]] is hyperbolic; its signature needs the
    # zero-pivot repair that subtracts, not adds, the second row
    lat = mk.mukai_lattice([[0, 1], [1, -2]])
    c_root = lat.vector([0, 0, 1, 0])
    cert = ch.boundary_beta_search(lat, c_root, 2, [4, 2], coord_bound=3)
    assert cert.to_json() == _beta_search_oracle(lat, c_root, 2, [F(4), F(2)],
                                                 3).to_json()


@pytest.mark.parametrize("ns, c_ns", [
    ([[2, 0, 0], [0, -2, 0], [0, 0, 2]], [0, 1, 0]),    # signature (2, 1)
    ([[2, 1, 0], [1, 2, 0], [0, 0, -2]], [0, 0, 1]),    # signature (2, 1)
])
def test_beta_search_rejects_non_hyperbolic_ns(ns, c_ns):
    # beta0 need not be off the walls unless eta-perp is negative definite
    lat = mk.mukai_lattice(ns)
    with pytest.raises(NotHyperbolicError):
        ch.boundary_beta_search(lat, lat.vector([0] + c_ns + [0]), 1,
                                [2, 0, 0], coord_bound=3)


# -- cohomological actions ---------------------------------------------------------------

def test_coh_actions(rank3):
    lat, _ = rank3
    shift = ch.coh_action(lat, "shift")
    assert shift.matrix == mk.minus_identity(lat).matrix
    tw = ch.coh_action(lat, "spherical_twist", [1, 0, 1])
    assert tw.matrix == mk.reflection(lat.vector([1, 0, 1])).matrix
    # twist along a root orthogonal to v0 fixes v0 (rank-4 case)
    lat4 = mk.mukai_lattice([[2, 0], [0, -2]], "rank4")
    v0 = lat4.vector([0, 0, 0, 1])
    tw4 = ch.coh_action(lat4, "spherical_twist", [0, 0, 1, 0])
    assert tw4.apply(v0) == v0
    lt = ch.coh_action(lat, "line_twist", [1])
    assert lt.apply(lat.vector([0, 0, 1])).coords == (0, 0, 1)
    assert lt.apply(lat.vector([1, 0, 0])).coords == (1, 1, 1)
    with pytest.raises(Exception):
        ch.coh_action(lat, "spherical_twist", [0, 1, 0])  # square 2, not -2
