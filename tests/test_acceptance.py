"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import importlib.util
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import mukai_kit as mk
from mukai_kit import charges as ch, cusps, domain as dm, geodesics as gd
from mukai_kit import intlinalg as ila
from mukai_kit.cli import main as cli_main

from float_oracle import float_short_vectors, majorant_matrix

# criterion 10's invocations live once, in the A/B byte harness
ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "ab_bytes", ROOT / "tools" / "ab_bytes.py")
ab_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bytes)

RANK4_NS = [[2, 0], [0, -2]]
RANK5_NS = [[2, 0, 0], [0, -2, 0], [0, 0, -2]]


def _sample_tube(split, rng, spread=1.5):
    rho = split.rho
    gl = split.gram_L_np()
    vals, vecs = np.linalg.eigh(gl)
    while True:
        a = rng.normal(size=rho) * spread
        b = rng.normal(size=rho) * 0.4 + vecs[:, -1] * (1.0 + abs(rng.normal()))
        if b @ gl @ b > 0.1:
            return dm.tube_point(split, a, b)


def _presets_with_split():
    out = []
    for name in ("mukai_rank1(1)", "mukai_rank1(3)"):
        lat = mk.preset(name)
        out.append((name, lat, dm.split_at(lat.vector([0, 0, 1]))))
    lat4 = mk.mukai_lattice(RANK4_NS, "rank4")
    out.append(("rank4", lat4, dm.split_at(lat4.vector([0, 0, 0, 1]))))
    uu = mk.direct_sum(mk.preset("U"), mk.preset("U"), label="U+U")
    out.append(("U+U", uu, dm.split_at(uu.vector([1, 0, 0, 0]))))
    return out


# -- criterion 1 --------------------------------------------------------------------

def test_criterion_1_exact_lattice_layer():
    """10^4 exact randomized checks; quotient invariants on the presets."""
    rng = random.Random(20240811)
    lattices = [mk.preset(f"mukai_rank1({n})") for n in range(1, 7)]
    lattices.append(mk.direct_sum(mk.preset("U"), mk.preset("U"),
                                  label="U+U"))
    roots_per_lat = {
        lat.label: list(map(lat.vector, mk.vectors_of_norm(lat, -2, 3)))
        for lat in lattices}
    checks = 0
    while checks < 10_000:
        lat = lattices[rng.randrange(len(lattices))]
        n = lat.rank
        w = lat.vector([rng.randint(-9, 9) for _ in range(n)])
        if w.is_zero():
            continue
        # divisibility = gcd(G v) divides every pairing
        d = mk.divisibility(w)
        assert d == math.gcd(*w.gram_image())
        w2 = lat.vector([rng.randint(-9, 9) for _ in range(n)])
        assert mk.pair(w, w2) % d == 0
        checks += 1
        roots = roots_per_lat[lat.label]
        if roots:
            delta = roots[rng.randrange(len(roots))]
            s = mk.reflection(delta)
            m = [list(r) for r in s.matrix]
            g = lat.gram_rows()
            assert ila.mat_mul(ila.mat_mul(ila.transpose(m), g), m) == g
            assert ila.mat_mul(m, m) == ila.identity(n)
            checks += 1
    # quotient invariants for standard vectors
    quotient_checks = 0
    for lat in lattices:
        p, q = lat.signature
        vs = [v for v in map(lat.vector, cusps.enumerate_isotropic(lat, 3))
              if mk.is_standard(v)]
        for v in vs[:20]:
            lv = mk.quotient_lattice(v)
            assert lv.signature == (p - 1, q - 1)
            assert abs(lv.det) == abs(lat.det)
            assert lv.is_even
            quotient_checks += 1
    assert quotient_checks > 20
    print(f"\nPASS criterion 1: {checks} exact checks, "
          f"{quotient_checks} quotient invariants")


# -- criterion 2 --------------------------------------------------------------------

def test_criterion_2_tube_roundtrip_and_equivariance():
    """log_v(exp_v) = id to 1e-10 (10^3 points/preset); equivariance 1e-10."""
    tol = 1e-10
    total = 0
    for name, lat, sp in _presets_with_split():
        rng = np.random.default_rng(hash(name) % 2**32)
        worst = 0.0
        for _ in range(1000):
            pt = _sample_tube(sp, rng)
            back = dm.log_tube(dm.exp_point(pt), sp)
            worst = max(worst,
                        float(np.max(np.abs(back.x - pt.x))),
                        float(np.max(np.abs(back.y - pt.y))))
            total += 1
        assert worst < tol, f"{name}: roundtrip {worst}"
    # equivariance under 50 random reflection products
    lat = mk.preset("mukai_rank1(2)")
    sp = dm.split_at(lat.vector([0, 0, 1]))
    roots = list(map(lat.vector, mk.vectors_of_norm(lat, -2, 4)))
    rng = np.random.default_rng(7)
    worst_eq = 0.0
    for _ in range(50):
        g = mk.reflection(roots[rng.integers(0, len(roots))])
        for _ in range(int(rng.integers(0, 3))):
            g = g.compose(mk.reflection(roots[rng.integers(0, len(roots))]))
        pt = _sample_tube(sp, rng)
        lhs = dm.apply_isometry_point(g, dm.exp_point(pt))
        rhs = dm.exp_point(dm.apply_isometry_tube(g, pt))
        worst_eq = max(worst_eq, dm.proj_distance(lhs, rhs))
    assert worst_eq < tol, f"equivariance {worst_eq}"
    print(f"\nPASS criterion 2: {total} roundtrips < {tol}, "
          f"equivariance worst {worst_eq:.2e}")


# -- criterion 3 --------------------------------------------------------------------

def test_criterion_3_geodesic_agreement():
    """one_param vs tube formula <= 1e-9; oracle <= 1e-6 at 1e4 steps;
    speed constancy to relative 1e-6."""
    worst = 0.0
    for name, lat, sp in (( "rank3", mk.preset("mukai_rank1(1)"), None),
                          ("rank4", mk.mukai_lattice(RANK4_NS, "r4"), None)):
        v0 = lat.vector([0] * (lat.rank - 1) + [1])
        sp = dm.split_at(v0)
        rng = np.random.default_rng(13)
        for _ in range(100):
            pt = _sample_tube(sp, rng)
            lam = float(rng.uniform(-3.0, 3.0))
            g = gd.one_param(gd.a_generator(pt), lam)
            lhs = dm.theta(dm.FrameVec(lat, g @ dm.exp_frame(pt).z))
            worst = max(worst, dm.proj_distance(lhs,
                                                gd.geodesic_point(pt, lam)))
    assert worst <= 1e-9, f"one-param deviation {worst}"

    lat = mk.preset("mukai_rank1(1)")
    sp = dm.split_at(lat.vector([0, 0, 1]))
    pt = dm.tube_point(sp, [0.3], [1.1])
    res = gd.geodesic_oracle(pt, 2.0, 10_000)
    dev = gd.oracle_deviation(pt, res)
    assert dev <= 1e-6, f"oracle deviation {dev}"

    rng = np.random.default_rng(5)
    worst_speed = 0.0
    for _ in range(5):
        p = _sample_tube(sp, rng)
        s0 = gd.speed(p, 0.0)
        for t in (-2.0, -0.5, 1.0, 2.5):
            worst_speed = max(worst_speed, abs(gd.speed(p, t) - s0) / s0)
    assert worst_speed <= 1e-6, f"speed variation {worst_speed}"
    print(f"\nPASS criterion 3: one-param {worst:.2e} <= 1e-9, "
          f"oracle {dev:.2e} <= 1e-6 (1e4 steps), "
          f"speed var {worst_speed:.2e} <= 1e-6")


# -- criterion 4 --------------------------------------------------------------------

def test_criterion_4_cartan_structure():
    """a(v0,x) inside m_P to 1e-10; Killing positive definite on m_P."""
    worst_k = 0.0
    for name, lat, sp in _presets_with_split():
        rng = np.random.default_rng(3)
        for _ in range(10):
            pt = _sample_tube(sp, rng)
            a = gd.a_generator(pt)
            plane = dm.exp_frame(pt)
            k, _ = gd.cartan_project(a, plane)
            worst_k = max(worst_k, float(np.max(np.abs(k.matrix))))
            basis = gd.m_basis(lat, plane)
            rho = lat.rank - 2
            assert len(basis) == 2 * rho
            gram = np.array([[gd.killing_form(x, y) for y in basis]
                             for x in basis])
            eigs = np.linalg.eigvalsh(gram)
            assert np.all(eigs > 0), f"{name}: non-positive Killing"
    assert worst_k <= 1e-10, f"k-component {worst_k}"
    print(f"\nPASS criterion 4: k-component {worst_k:.2e} <= 1e-10, "
          f"B positive definite on m_P (all 2 rho eigenvalues > 0)")


# -- criterion 5 --------------------------------------------------------------------

def test_criterion_5_wall_completeness():
    """Majorant enumeration == brute force on 20 random rank-3 boxes;
    y^2 > 2 implies no A-wall through the point (10^3 samples)."""
    lat = mk.preset("mukai_rank1(1)")
    sp = dm.split_at(lat.vector([0, 0, 1]))
    rng = np.random.default_rng(42)
    walls_seen = 0
    for trial in range(20):
        a0 = F(int(rng.integers(-8, 8)), 8)
        da = F(int(rng.integers(1, 9)), 8)
        b0 = F(int(rng.integers(2, 12)), 8)
        db = F(int(rng.integers(1, 8)), 8)
        box = dm.TubeBox.make(sp, [a0], [a0 + da], [b0], [b0 + db])
        got = {(w.kind, w.root.coords)
               for w in dm.enumerate_walls_region(sp, box)}
        want = {(w.kind, w.root.coords)
                for w in dm.enumerate_walls_bruteforce(sp, box, 10)}
        assert got == want, f"box {trial}: {got ^ want}"
        walls_seen += len(got)
    # D_{>2} inside D_A
    hits = 0
    for _ in range(1000):
        a = float(rng.normal() * 3)
        y2_target = 2.0 + float(rng.uniform(0.01, 20.0))
        b = math.sqrt(y2_target / 2.0)  # G_L = [2]
        pt = dm.tube_point(sp, [a], [b])
        assert pt.y_norm2() > 2.0
        assert dm.on_A_wall(pt) is None
        hits += 1
    print(f"\nPASS criterion 5: 20 boxes exact set equality "
          f"({walls_seen} walls), {hits} points with y^2 > 2 avoid A-walls")


# -- criterion 6 --------------------------------------------------------------------

def test_criterion_6_fricke_census():
    """Full cusp census equals the classical Fricke count for n = 1..6.

    The Fricke curve counts every zero-dimensional cusp; for n = 4 one of
    the two classes has divisibility 2 ((2,1,2) in U+<8>), so the standard
    bucket alone is compared against the partner-count oracle instead.
    """
    expected = []
    got = []
    for n in range(1, 7):
        lat = mk.preset(f"mukai_rank1({n})")
        rep = cusps.cusp_census(lat, height=20, word_depth=6, root_bound=8)
        oracle = cusps.fricke_cusp_count(n)
        expected.append(oracle)
        got.append(rep.count)
    assert got == expected == [1, 1, 1, 2, 1, 2]
    # standard bucket: Fourier-Mukai partner counts 2^{max(0, omega(n)-1)}
    std_expected = [1, 1, 1, 1, 1, 2]
    std_got = [cusps.standard_cusp_census(
        mk.preset(f"mukai_rank1({n})"), height=20, word_depth=6,
        root_bound=8).count for n in range(1, 7)]
    assert std_got == std_expected
    print(f"\nPASS criterion 6: census {got} == fricke oracle {expected}; "
          f"standard buckets {std_got}")


# -- criterion 7 --------------------------------------------------------------------

def _rotation(phi):
    c, s = math.cos(math.pi * phi), math.sin(math.pi * phi)
    return np.array([[c, -s], [s, c]])


def test_criterion_7_factorization_contract():
    """50 constructed paths with windings up to +-5 recovered to 1e-9 up to
    a global even shift, and the even-shift ambiguity realized exactly."""
    lat = mk.preset("mukai_rank1(1)")
    sp = dm.split_at(lat.vector([0, 0, 1]))
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(50):
        rate = float(rng.uniform(-5.0, 5.0))
        base = rng.normal(size=(2, 2)) * 0.3 + np.eye(2)
        if np.linalg.det(base) <= 0:
            base = np.eye(2)
        n_samples = max(60, int(abs(rate) * 30) + 30)
        ts = np.linspace(0.0, 1.0, n_samples)
        samples = []
        truth = []
        for t in ts:
            pt = dm.tube_point(sp, [0.2 + 0.3 * t], [1.0 + 0.4 * t])
            tmat = _rotation(rate * t) @ base
            samples.append(
                (float(t), dm.gl2_act(dm.exp_frame(pt), tmat).z))
            truth.append(tmat)
        res = ch.factor_path(samples, sp)
        assert res.max_residual < 1e-9
        # T recovered exactly; phase recovered up to one global even shift
        # (continuous truth: a rotation by pi*rate*t adds rate*t to the
        # phase of the base column)
        base_phase = math.atan2(base[1, 0], base[0, 0]) / math.pi
        offsets = set()
        for g, tmat, t in zip(res.lifts, truth, ts):
            worst = max(worst, float(np.max(np.abs(g.t_np() - tmat))))
            true_phase = rate * t + base_phase
            diff = g.phi0 - true_phase
            offsets.add(round(diff / 2.0))
            worst = max(worst, abs(diff - 2.0 * round(diff / 2.0)))
        assert len(offsets) == 1, "winding offset must be global"
    assert worst <= 1e-9, f"factorization error {worst}"
    # the even-shift ambiguity between two valid outputs
    samples = samples[:80]
    res_a = ch.factor_path(samples, sp)
    res_b = ch.factor_path(samples, sp, branch_offset=3)
    diffs = {round(b.phi0 - a.phi0, 12)
             for a, b in zip(res_a.lifts, res_b.lifts)}
    assert diffs == {6.0}
    print(f"\nPASS criterion 7: 50 paths, max error {worst:.2e} <= 1e-9, "
          f"even-shift ambiguity realized (Sigma_6 offset)")


# -- criterion 8 --------------------------------------------------------------------

def test_criterion_8_large_volume_threshold():
    """Worked instance gives n0 = 2 with brute confirmation; 100 random
    instances pass the confirm-at-boundary protocol."""
    lat = mk.preset("mukai_rank1(1)")
    vE = lat.vector([1, 1, 0])
    vA = lat.vector([1, 0, 1])
    n0, _ = ch.large_volume_threshold(vE, [vA], [1])
    assert n0 == 2
    assert not ch.threshold_inequality_holds(vE, vA, [1], 1)
    for n in range(2, 101):
        assert ch.threshold_inequality_holds(vE, vA, [1], n)

    rng = np.random.default_rng(123)
    done = 0
    max_n0 = 0
    while done < 100:
        lat_n = mk.preset(f"mukai_rank1({int(rng.integers(1, 4))})")
        vE = lat_n.vector([int(rng.integers(1, 4)),
                           int(rng.integers(1, 5)),
                           int(rng.integers(-5, 6))])
        cands = [lat_n.vector([int(rng.integers(1, 4)),
                               int(rng.integers(-4, 5)),
                               int(rng.integers(-6, 7))])
                 for _ in range(int(rng.integers(1, 6)))]
        try:
            n0, certs = ch.large_volume_threshold(vE, cands, [1])
        except Exception:
            continue
        done += 1
        max_n0 = max(max_n0, n0)
        for n in range(n0, n0 + 101):
            assert all(ch.threshold_inequality_holds(vE, a, [1], n)
                       for a in cands), (vE, n)
        if n0 > 1:
            assert any(
                not ch.threshold_inequality_holds(vE, a, [1], n0 - 1)
                for a in cands)
    print(f"\nPASS criterion 8: worked instance n0 = 2 confirmed on [2,100], "
          f"100 randomized instances (max n0 = {max_n0})")


# -- criterion 9 --------------------------------------------------------------------

def _verify_beta(lat, c_root, k, eta, cert):
    v0 = lat.vector([0] * (lat.rank - 1) + [1])
    beta = [float(b) for b in cert.beta]
    z = ch.exp_class(lat, beta, [float(e) for e in eta])
    gm = lat.gram_np
    # full majorant candidate set at the point plus a coordinate box
    cands = set(map(tuple, mk.vectors_of_norm(lat, -2, 6).tolist()))
    q = majorant_matrix(z)
    om2 = float(np.asarray(eta, dtype=float)
                @ np.array([row[1:-1] for row in lat.gram_rows()[1:-1]],
                           dtype=float) @ np.asarray(eta, dtype=float))
    for coords in map(tuple, float_short_vectors(
            q, 2.0 + 8.0 * max(1.0, 1.0 / om2)).tolist()):
        w = lat.vector(coords)
        if w.norm2 == -2:
            cands.add(coords)
            cands.add(tuple(-c for c in coords))
    checked = 0
    for coords in sorted(cands):
        delta = lat.vector(coords)
        val = complex(z.z @ gm @ np.array(coords, dtype=float))
        assert abs(val) > 1e-9, f"condition 1 fails at {coords}"
        if -v0.dot(delta) > 0:
            assert not (abs(val.imag) < 1e-9 and val.real <= 0), \
                f"condition 2 fails at {coords}"
        checked += 1
    # window condition, exact over rationals
    ns = [row[1:-1] for row in lat.gram_rows()[1:-1]]
    kdim = lat.ns_rank
    bc = sum(cert.beta[i] * ns[i][j] * F(c_root.ns_part[j])
             for i in range(kdim) for j in range(kdim))
    assert F(-1) < bc + k < F(0)
    assert bc + k == cert.window_value
    return checked


def test_criterion_9_beta_search():
    """Constructed instances with a (-2)-class and facet vector; all three
    conditions verified against the majorant candidate set, window exact.

    Rank-one NS blocks are positive definite and contain no (-2)-classes,
    so the smallest possible instances have NS rank 2 (total rank 4) and
    NS rank 3 (total rank 5).
    """
    total = 0
    lat4 = mk.mukai_lattice(RANK4_NS, "rank4")
    c4 = lat4.vector([0, 0, 1, 0])
    for k in (-2, 0, 3):
        cert = ch.boundary_beta_search(lat4, c4, k, [2, 0])
        total += _verify_beta(lat4, c4, k, [2, 0], cert)
    lat5 = mk.mukai_lattice(RANK5_NS, "rank5")
    c5 = lat5.vector([0, 0, 1, 0, 0])
    for k in (0, 1):
        cert = ch.boundary_beta_search(lat5, c5, k, [2, 0, 1])
        total += _verify_beta(lat5, c5, k, [2, 0, 1], cert)
    print(f"\nPASS criterion 9: 5 instances, {total} root conditions "
          f"verified, window exact over rationals")


# -- criterion 10 -------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    """Every subcommand with fixed config produces byte-identical output."""
    jobs = [argv for _, argv in ab_bytes.criterion_10_jobs(tmp_path)]
    for i, args in enumerate(jobs):
        a = tmp_path / f"out-{i}-a"
        b = tmp_path / f"out-{i}-b"
        assert cli_main(args + ["--out", str(a)]) == 0, args[0]
        assert cli_main(args + ["--out", str(b)]) == 0, args[0]
        assert a.read_bytes() == b.read_bytes(), f"{args[0]} differs"
    print(f"\nPASS criterion 10: {len(jobs)} subcommand invocations "
          f"byte-identical across repeated runs")
