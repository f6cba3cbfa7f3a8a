from fractions import Fraction as F

import numpy as np
import pytest

import mukai_kit as mk
from mukai_kit import domain as dm
from mukai_kit.errors import (
    DegenerateAtVError,
    NonPositiveDetError,
    NotPositiveError,
    UnboundedBoxError,
)


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
    roots = [r.vec for r in mk.roots_in_box(lat, 3)]
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

def test_wall_membership_cases(rank3, rank4):
    lat, sp = rank3
    v0 = sp.v
    delta = lat.vector([1, 0, 1])
    on_a = dm.exp_point(dm.tube_point(sp, [0.0], [0.7]))
    assert dm.wall_membership(on_a, delta, v0) == "on_A"
    off = dm.exp_point(dm.tube_point(sp, [0.37], [1.9]))
    assert dm.wall_membership(off, delta, v0) == "off"
    lat4, sp4 = rank4
    c_delta = lat4.vector([0, 0, 1, 0])
    on_c = dm.exp_point(dm.tube_point(sp4, [0.3, 0.0], [0.0, 2.5]))
    assert dm.wall_membership(on_c, c_delta, sp4.v) == "on_C"
    on_d = dm.exp_point(dm.tube_point(sp4, [0.0, 0.0], [0.0, 2.5]))
    assert dm.wall_membership(on_d, c_delta, sp4.v) == "on_D"


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
    left, right = box.split_along("a", 0)
    parts = {(w.kind, w.root.coords)
             for w in dm.enumerate_walls_region(sp, left)} | \
            {(w.kind, w.root.coords)
             for w in dm.enumerate_walls_region(sp, right)}
    assert parts == whole
    assert len(whole) < 100  # locally finite


def test_rank4_enumeration_vs_bruteforce(rank4):
    # the numeric A/D filter and the exact C filter agree with a coordinate
    # scan on fixed rank-4 boxes (candidate completeness of the majorant)
    lat, sp = rank4
    boxes = [
        dm.TubeBox.make(sp, [F(-1, 2), F(-1, 2)], [F(1, 2), F(1, 2)],
                        [F(-1, 4), F(2)], [F(1, 4), F(11, 4)]),
        dm.TubeBox.make(sp, [F(0), F(-1, 4)], [F(1), F(3, 4)],
                        [F(0), F(3, 4)], [F(1, 2), F(5, 4)]),
    ]
    for box in boxes:
        got = {(w.kind, w.root.coords)
               for w in dm.enumerate_walls_region(sp, box)}
        want = {(w.kind, w.root.coords)
                for w in dm.enumerate_walls_bruteforce(sp, box, 4)}
        assert got == want


def test_rank4_c_wall_detection(rank4):
    lat, sp = rank4
    box = dm.TubeBox.make(sp, [F(-1, 2), F(-1, 2)], [F(1, 2), F(1, 2)],
                          [F(-1, 4), F(2)], [F(1, 4), F(3)])
    walls = dm.enumerate_walls_region(sp, box)
    kinds = {w.kind for w in walls}
    assert "C" in kinds
    c_roots = [w.root.coords for w in walls if w.kind == "C"]
    assert (0, 0, 1, 0) in c_roots


def test_box_validation(rank4):
    lat, sp = rank4
    with pytest.raises(UnboundedBoxError):
        dm.TubeBox.make(sp, [0, 0], [0, 0], [2, 0], [3, 0])  # negative square
    with pytest.raises(UnboundedBoxError):
        dm.TubeBox.make(sp, [0, 0], [-1, 0], [0, 2], [0, 3])  # empty


def test_box_endpoints_exact(rank3):
    lat, sp = rank3
    box = dm.TubeBox.make(sp, [0.1], ["1/2"], [1], [F(2)])
    assert box.a_lo == (F(0.1),) and box.a_lo != (F(1, 10),)
    assert (box.a_hi, box.b_lo, box.b_hi) == ((F(1, 2),), (F(1),), (F(2),))


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


def test_region_gt2(rank3):
    lat, sp = rank3
    assert dm.region_gt2(dm.tube_point(sp, [0], [2]))       # y^2 = 8
    assert not dm.region_gt2(dm.tube_point(sp, [0], [0.5]))  # y^2 = 1/2
    assert not dm.region_gt2(dm.tube_point(sp, [0], [1.0]))  # y^2 = 2 strict


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


def test_orientation_flags(rank3):
    lat, sp = rank3
    assert dm.orientation_flag(mk.reflection(lat.vector([1, 0, 1])))
    assert dm.orientation_flag(mk.minus_identity(lat))
    assert dm.orientation_flag(mk.line_twist_isometry(lat, [2]))
    tagged = dm.with_orientation(mk.reflection(lat.vector([1, 0, 1])))
    assert tagged.plus_flag is True


def test_wall_membership_requires_root(rank3):
    from mukai_kit.errors import NotARootError
    lat, sp = rank3
    p = dm.exp_point(dm.tube_point(sp, [0.1], [1.4]))
    with pytest.raises(NotARootError):
        dm.wall_membership(p, lat.vector([1, 0, 0]), sp.v)
