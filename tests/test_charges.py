import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import charges as ch, domain as dm, lattice
from mukai_kit.errors import (
    InconsistentLiftError,
    NonPositiveOmegaError,
    NonPositiveRankError,
    SamplingTooCoarseError,
    ZeroChargeError,
)


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
        re_l, im_l = ch.charge_on_ray(lat, lin, [1], n)
        re_u, im_u = ch.charge_on_ray(lat, u, [1], n)
        re_w, im_w = ch.charge_on_ray(lat, w, [1], n)
        assert re_l == a * re_u + b * re_w
        assert im_l == a * im_u + b * im_w


def test_charge_on_ray_example(rank3):
    lat, _ = rank3
    vE = lat.vector([1, 1, 0])
    re, im = ch.charge_on_ray(lat, vE, [1], 3)
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

def test_wall_crossing_bracketing(rank3):
    lat, sp = rank3
    cands = [r.vec for r in mk.roots_in_box(lat, 3)]

    def frame_at(t):
        return dm.exp_frame(dm.tube_point(sp, [t - 0.513], [0.6]))

    ev = ch.wall_crossings(frame_at, 0.0, 1.0, sp, cands)
    assert len(ev) == 1
    assert ev[0].kind == "A" and ev[0].root.coords == (1, 0, 1)
    assert ev[0].t == pytest.approx(0.513, abs=1e-8)

    rev = ch.wall_crossings(lambda t: frame_at(1.0 - t), 0.0, 1.0, sp, cands)
    assert len(rev) == 1
    assert rev[0].t == pytest.approx(1.0 - 0.513, abs=1e-8)
    assert rev[0].side_change == tuple(reversed(ev[0].side_change))


def test_no_events_in_large_volume(rank3):
    lat, sp = rank3
    cands = [r.vec for r in mk.roots_in_box(lat, 4)]
    ev = ch.wall_crossings(
        lambda t: dm.exp_frame(dm.tube_point(sp, [0.3], [1.5 + t])),
        0.0, 3.0, sp, cands)
    assert ev == []


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


def _outcome(fn):
    try:
        return fn()
    except ValueError:
        return "not generic"


_BETA_LATTICES = {"rank4": [[2, 0], [0, -2]], "rank4b": [[6, 0], [0, -2]],
                  "rank5": [[2, 0, 0], [0, -2, 0], [0, 0, -2]]}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(_BETA_LATTICES)), st.integers(2, 3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.tuples(st.integers(-8, 8), st.sampled_from([1, 2, 4])),
                min_size=3, max_size=3),
       st.integers(-3, 3))
@example("rank5", 3, [2, 0, 0], [(0, 1), (1, 4), (0, 1)], 0)   # not generic
@example("rank4", 3, [3, 0, 0], [(1, 2), (1, 4), (0, 1)], 0)
@example("rank5", 3, [2, 0, 2], [(-3, 4), (1, 8), (1, 4)], 0)  # both kinds
def test_beta_check_vs_fractions(name, bound, eta_raw, beta_raw, k):
    # eta on the facet eta.C = 0 (C = e_1 of a diagonal block); betas on
    # the searched line, plus one at random simple rationals with k set to
    # pass the window, which sits on walls far more often
    ns = _BETA_LATTICES[name]
    kns = len(ns)
    lat = mk.mukai_lattice(ns)
    c_ns = [0, 1] + [0] * (kns - 2)
    eta = [F(eta_raw[0] or 1), F(0)] + [F(x) for x in eta_raw[2:kns]]
    roots = mk.roots_in_box(lat, bound)
    vecs = [r.vec for r in roots]
    base = [F(2 * k + 1, 4) * c for c in c_ns]
    cases = [([base[i] + F(sign * num, 16) * eta[i] for i in range(kns)], k)
             for num in range(3) for sign in (1, -1)]
    beta = [F(a, b) for a, b in beta_raw[:kns]]
    cases.append((beta, -math.floor(ns[1][1] * beta[1]) - 1))
    for beta, kb in cases:
        want = _outcome(lambda: _beta_check_fractions(
            lat, vecs, c_ns, kb, eta, beta))
        got = _outcome(lambda: ch._first_clear_beta(
            lat, roots, c_ns, kb, eta, [beta]))
        assert got == {True: 0, False: None}.get(want, want), beta


def test_beta_search_huge_k_uses_python_ints(monkeypatch):
    # beta numerators near 1e15 overflow int64 in 2 S^2 Re z.delta
    dtypes = []

    def spy(magnitude):
        dtypes.append(lattice._int_dtype(magnitude))
        return dtypes[-1]

    monkeypatch.setattr(ch, "_int_dtype", spy)
    lat = mk.mukai_lattice([[2, 0], [0, -2]])
    c_root = lat.vector([0, 0, 1, 0])
    k = 10 ** 15
    cert = ch.boundary_beta_search(lat, c_root, k, [2, 0], coord_bound=3)
    assert dtypes == [object]
    roots = [r.vec for r in mk.roots_in_box(lat, 3)]
    assert _beta_check_fractions(lat, roots, [0, 1], k, [F(2), F(0)],
                                 list(cert.beta))
    assert F(-1) < cert.window_value < F(0)


def test_beta_search_rejects_non_generic_eta():
    lat = mk.mukai_lattice(_BETA_LATTICES["rank5"])
    with pytest.raises(ValueError, match="not generic"):
        ch.boundary_beta_search(lat, lat.vector([0, 0, 1, 0, 0]), 0,
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
