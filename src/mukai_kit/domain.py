"""Period domain, tube model and wall-and-chamber structure.

Points of the period domain are complex lines [z] with z^2 = 0, z.zbar > 0;
equivalently oriented positive-definite 2-planes span(Re z, Im z).  For a
standard vector v the tube model writes points as x + iy with canonical lifts

    x.v = -1, x^2 = 0      (x = x~ + (x~^2 / 2) v for any lift x~)
    y.v = 0,  y.x = 0, y^2 > 0

and Exp_v(x + iy) = x + iy - (y^2 / 2) v, the unique frame with z.v = -1.

Chart coordinates: the hyperbolic frame (f | R | v) of v, as the census
builds it, splits off the plane <v, f>; the complement basis R models
L(v) = v^perp / v, and (a, b) in R^rho x R^rho
parametrize x = f + R a (+ lift correction), y = R b (+ lift correction).
For a root delta = c v + d f + R lam (all integer) one gets

    Im(z.delta) = b^T G_R (lam - d a)
    Re(z.delta) = -c + a^T G_R lam - d/2 (a^T G_R a - b^T G_R b)

which make wall tests over coordinate boxes exact rational whenever the
box endpoints are rational.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

import numpy as np

from . import intlinalg as ila
from .errors import (
    AmpNotInPositiveConeError,
    DegenerateAtVError,
    InvariantError,
    NonFiniteError,
    NonPositiveDetError,
    NotPositiveError,
    UnboundedBoxError,
)
from .lattice import (
    IntegerLattice,
    Isometry,
    LatVec,
    hyperbolic_frame,
    vectors_of_norm,
    _int_dtype,
    _sign_canonical,
)
from .shortvec import short_vectors

PAIR_TOL = 1e-9
# Bisection levels after which an exact wall test reports undecided.
WALL_TEST_DEPTH = 24

def pairing(lat: IntegerLattice, u, w):
    """Bilinear pairing of coordinate vectors (real or complex, no bar).

    Arguments of shape (N, n) pair row by row; a single vector broadcasts.
    """
    # vecdot conjugates its first argument; conjugating it first undoes that
    return np.vecdot(np.conj(np.asarray(u) @ lat.gram_np), w)


def _raise_first(*checks):
    """Raise what a row-by-row loop raises first, recording its row as ``row``.

    ``checks`` are (mask, error type, message) in the order one row is
    checked; a mask holds one flag per row (0-d for a single point).
    """
    bad = checks[0][0]
    for mask, _, _ in checks[1:]:
        bad = bad | mask
    if not bad.any():
        return
    row = int(np.flatnonzero(bad)[0])
    for mask, kind, message in checks:
        if np.ravel(mask)[row]:
            exc = kind(message)
            exc.row = row
            raise exc


# ---------------------------------------------------------------------------
# hyperbolic split and tube points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicSplit:
    """Split N = <v, f> + R with v standard, f isotropic, v.f = -1: the
    hyperbolic frame (f | R | v) of v, or a hand-built split."""

    lattice: IntegerLattice
    v: LatVec
    f: LatVec
    comp: tuple[tuple[int, ...], ...]     # columns: basis of <v,f>^perp
    gram_L: tuple[tuple[int, ...], ...]   # Gram of the complement basis

    @property
    def rho(self) -> int:
        return len(self.comp)

    @cached_property
    def _arrays(self) -> dict[str, np.ndarray]:
        """Read-only float copies: R as columns (n x rho), G_L and its
        inverse, v and f."""
        gl = np.array(self.gram_L, dtype=float)
        arrays = {"comp": np.array(self.comp, dtype=float).T, "gram_L": gl,
                  "gram_L_inv": np.linalg.inv(gl),
                  "v": np.array(self.v.coords, dtype=float),
                  "f": np.array(self.f.coords, dtype=float)}
        for a in arrays.values():
            a.setflags(write=False)
        return arrays

    def comp_np(self) -> np.ndarray:
        return self._arrays["comp"]

    def gram_L_np(self) -> np.ndarray:
        return self._arrays["gram_L"]

    def v_np(self) -> np.ndarray:
        return self._arrays["v"]

    def f_np(self) -> np.ndarray:
        return self._arrays["f"]

    @cached_property
    def _basis(self) -> list[tuple[int, ...]]:
        """The basis matrix (v | f | R), one row per coordinate."""
        return list(zip(self.v.coords, self.f.coords, *self.comp))

    @cached_property
    def _basis_inverse(self) -> list[list[int]]:
        """Inverse of (v | f | R): unimodular at a standard vector, where
        N = <v, f> + R; a hand-built split that is no basis raises
        ValueError."""
        return ila.mat_inverse_unimodular(self._basis)

    def root_data(self, delta: LatVec) -> tuple[int, int, tuple[int, ...]]:
        """(c, d, lam) with delta = c v + d f + R lam, all integers."""
        c, d, *lam = ila.mat_vec(self._basis_inverse, delta.coords)
        return c, d, tuple(lam)

    def root_from_data(self, c: int, d: int, lam) -> LatVec:
        return self.lattice.vector(ila.mat_vec(self._basis, (c, d, *lam)))


def split_at(v: LatVec) -> HyperbolicSplit:
    """The split read off :func:`~mukai_kit.lattice.hyperbolic_frame`."""
    f, *comp, _ = hyperbolic_frame(v)
    gl = ila.gram_of(comp, v.lattice.gram)
    return HyperbolicSplit(v.lattice, v, LatVec(v.lattice, f), tuple(comp),
                           tuple(map(tuple, gl)))


@dataclass(frozen=True)
class TubePoint:
    """Canonical representative (x, y) of a tube-domain point.

    x and y have shape (n,) for one point, or (N, n) for a batch of N points
    whose methods work row by row.
    """

    split: HyperbolicSplit
    x: np.ndarray
    y: np.ndarray

    def y_norm2(self):
        return pairing(self.split.lattice, self.y, self.y)

    @np.errstate(over="ignore")     # a y^2 past the float range is inf > 0
    def validate(self):
        """Check the conditions of a canonical lift, in floats, on a lift
        built elsewhere; tube_point and log_tube meet them by construction."""
        g = self.split.lattice.gram_np
        x, y, vv = self.x, self.y, self.split.v_np()
        xg, yg = x @ g, y @ g
        _raise_first(
            (abs(np.vecdot(xg, x)) > 1e-9, ValueError, "x^2 != 0"),
            (abs(np.vecdot(xg, vv) + 1.0) > 1e-9, ValueError, "x.v != -1"),
            (abs(np.vecdot(yg, vv)) > 1e-9, ValueError, "y.v != 0"),
            (abs(np.vecdot(yg, x)) > 1e-9, ValueError, "y.x != 0"),
            (np.vecdot(yg, y) <= 0, NotPositiveError, "y^2 <= 0"))
        return self

    def chart(self) -> tuple[np.ndarray, np.ndarray]:
        """Chart coordinates (a, b) in the complement basis."""
        sp = self.split
        m, inv = sp.lattice.gram_np @ sp.comp_np(), sp._arrays["gram_L_inv"]
        return self.x @ m @ inv.T, self.y @ m @ inv.T


def tube_point(split: HyperbolicSplit, a, b) -> TubePoint:
    """Tube point with chart coordinates (a, b); b must be in the cone.

    (N, rho) coordinate arrays, broadcast together, give a batch of N points.
    The lift is canonical by construction, so only two things are checked:
    the first row whose lift is not finite raises NonFiniteError, the first
    with y^2 <= 0 NotPositiveError (a y^2 past the float range is inf > 0).
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    r = split.comp_np()
    with np.errstate(over="ignore", invalid="ignore"):
        pt = _lift(split, split.f_np() + a @ r.T, b @ r.T)
        zero = 0.0 * split.v_np()   # x.0 is NaN where x has an inf or NaN
        _raise_first((np.isnan(pt.x.dot(zero) + pt.y.dot(zero)),
                      NonFiniteError, "tube point lift overflowed"),
                     (pt.y_norm2() <= 0, NotPositiveError, "y^2 <= 0"))
    return pt


def _lift(split: HyperbolicSplit, x_raw, y_raw) -> TubePoint:
    """Canonical lifts x = x~ + (x~^2 / 2) v, y = y~ + (y~.x) v of lifts
    with x~.v = -1 and y~.v = 0."""
    lat, vv = split.lattice, split.v_np()
    x = x_raw + 0.5 * pairing(lat, x_raw, x_raw)[..., None] * vv
    return TubePoint(split, x, y_raw + pairing(lat, y_raw, x)[..., None] * vv)


# ---------------------------------------------------------------------------
# frames and period points
# ---------------------------------------------------------------------------
# Like tube points, frames and period points hold z of shape (n,) or, for a
# batch, (N, n); every map below works row by row.

@dataclass(frozen=True)
class FrameVec:
    """z in N_C whose real 2-plane span(Re z, Im z) is positive definite."""

    lattice: IntegerLattice
    z: np.ndarray  # complex

    @property
    def re(self) -> np.ndarray:
        return self.z.real

    @property
    def im(self) -> np.ndarray:
        return self.z.imag

    def plane_gram(self) -> np.ndarray:
        b = np.stack([self.re, self.im], axis=-1)
        return np.swapaxes(b, -1, -2) @ self.lattice.gram_np @ b

    def validate(self):
        m = self.plane_gram()
        ok = (np.linalg.det(m) > 0) & (np.trace(m, axis1=-2, axis2=-1) > 0)
        _raise_first((~ok, NotPositiveError,
                      "span(Re z, Im z) is not a positive plane"))
        return self

    def projector(self) -> np.ndarray:
        """G-orthogonal projector onto span(Re z, Im z), which must be a
        positive plane."""
        b = np.stack([self.re, self.im], axis=-1)
        bt_g = np.swapaxes(b, -1, -2) @ self.lattice.gram_np
        return b @ np.linalg.solve(self.validate().plane_gram(), bt_g)

    def pair_v(self, v: LatVec):
        return pairing(self.lattice, self.z, np.array(v.coords, dtype=float))


@dataclass(frozen=True)
class PeriodPoint:
    """Projective class [z] with z^2 = 0, z.zbar > 0 (stored representative).

    When a reference v with z.v != 0 is supplied the representative is
    scale-normalized to z.v = -1.
    """

    lattice: IntegerLattice
    z: np.ndarray  # complex, z^2 = 0

    def validate(self):
        scale = np.linalg.norm(self.z, axis=-1) ** 2
        _raise_first(
            (abs(pairing(self.lattice, self.z, self.z)) > 1e-8 * scale,
             ValueError, "z^2 != 0"),
            (~(pairing(self.lattice, self.z, np.conj(self.z)).real > 0),
             ValueError, "z.zbar <= 0"))
        return self

    pair_v = FrameVec.pair_v


def proj_distance(p: PeriodPoint, q: PeriodPoint):
    """Projective (Fubini-Study sine) distance between complex lines.

    Computed as the norm of the component of q orthogonal to p, which is
    stable for nearly-equal lines (no 1 - cos^2 cancellation).
    """
    a, b = p.z, q.z
    ab = np.vecdot(a, b) / np.vecdot(a, a).real
    resid = b - ab[..., None] * a
    return np.sqrt(np.vecdot(resid, resid).real / np.vecdot(b, b).real)


def exp_frame(pt: TubePoint) -> FrameVec:
    """Exp_v: the unique frame z = x + iy - (y^2/2) v with z.v = -1, z^2 = 0."""
    y2 = pt.y_norm2()
    _raise_first((y2 <= 0, NotPositiveError, "y^2 <= 0"))
    z = pt.x - 0.5 * y2[..., None] * pt.split.v_np() + 1j * pt.y
    return FrameVec(pt.split.lattice, z)


def theta(frame: FrameVec) -> PeriodPoint:
    """Projection P(N) -> D(N): the isotropic line of the oriented plane.

    Gram-Schmidt conformalizes the frame; frames in one GL2+ orbit map to
    the same projective class.
    """
    lat = frame.lattice
    u, w = frame.re, frame.im
    uu = pairing(lat, u, u)
    # rows that fail have no square root; they raise below
    with np.errstate(invalid="ignore", divide="ignore"):
        e1 = u / np.sqrt(uu)[..., None]
        w1 = w - pairing(lat, w, e1)[..., None] * e1
        ww = pairing(lat, w1, w1)
        e2 = w1 / np.sqrt(ww)[..., None]
    _raise_first(((uu <= 0) | (ww <= 0), NotPositiveError,
                  "frame plane is not positive"))
    return PeriodPoint(lat, e1 + 1j * e2)


def exp_point(pt: TubePoint) -> PeriodPoint:
    """exp_v = theta after Exp_v; an isomorphism onto its image."""
    return PeriodPoint(pt.split.lattice, exp_frame(pt).z)


def q_section(p: PeriodPoint, v: LatVec) -> FrameVec:
    """Section of theta: the representative with z.v = -1, z^2 = 0; the
    first row with |z.v| < PAIR_TOL |z| raises DegenerateAtVError."""
    zv = p.pair_v(v)
    _raise_first((abs(zv) < PAIR_TOL * np.linalg.norm(p.z, axis=-1),
                  DegenerateAtVError, "z.v = 0"))
    return FrameVec(p.lattice, -p.z / zv[..., None])


def log_tube(p: PeriodPoint, split: HyperbolicSplit) -> TubePoint:
    """Inverse of exp_v: tube coordinates of a period point."""
    w = q_section(p, split.v)
    return _lift(split, w.re, w.im)


# ---------------------------------------------------------------------------
# GL2+ action on frames
# ---------------------------------------------------------------------------

def gl2_act(frame: FrameVec, t) -> FrameVec:
    """Column action: Re' = T00 Re + T01 Im, Im' = T10 Re + T11 Im.

    A conformal T = [[p, -q], [q, p]] acts as multiplication by p + iq, so
    the first column of T read as a complex number gives the phase.  A
    batch of frames takes one 2 x 2 matrix per row, shape (N, 2, 2).
    """
    t = np.asarray(t, dtype=float)
    _raise_first((np.linalg.det(t) <= 0, NonPositiveDetError, "det T <= 0"))
    cols = t[..., 0, :] + 1j * t[..., 1, :]
    return FrameVec(frame.lattice,
                    cols[..., :1] * frame.re + cols[..., 1:] * frame.im)


def gl2_factor(frame: FrameVec, split: HyperbolicSplit
               ) -> tuple[TubePoint, np.ndarray]:
    """Write z = gl2_act(Exp_v(pt), T); T is unique for z.v != 0.

    A batch of frames gives a batch of tube points and T of shape (N, 2, 2).
    theta raises NotPositiveError on a frame that is no positive plane, and
    log_tube (through q_section) DegenerateAtVError where z.v = 0.
    """
    pt = log_tube(theta(frame), split)
    w = exp_frame(pt)
    m = w.plane_gram()
    bg = np.stack([w.re, w.im], axis=-2) @ frame.lattice.gram_np
    # rows of T: the coefficients of Re z and of Im z, one solve each (a
    # two-column solve rounds T differently and moves factor output bytes)
    return pt, np.stack([np.linalg.solve(m, bg @ part[..., None])[..., 0]
                         for part in (frame.re, frame.im)], axis=-2)


# ---------------------------------------------------------------------------
# isometries acting on the domain
# ---------------------------------------------------------------------------

def apply_isometry_point(g: Isometry, p: PeriodPoint) -> PeriodPoint:
    return PeriodPoint(p.lattice, g.matrix_np @ p.z)


def apply_isometry_tube(g: Isometry, pt: TubePoint) -> TubePoint:
    """g . (x + iy) in the tube model of w = g.v (lifts stay canonical)."""
    sp = split_at(g.apply(pt.split.v))
    return TubePoint(sp, g.matrix_np @ pt.x, g.matrix_np @ pt.y)


# ---------------------------------------------------------------------------
# walls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Wall:
    """Wall in the period domain relative to v.

    kind 'A': roots pairing negatively with v, locus -z.delta / z.v real <= 0;
    kind 'C': roots orthogonal to v, locus -z.delta / z.v real (depends only
    on the image of the root in L(v)); kind 'D': z.delta = 0.  A region
    enumeration marks a wall ``undecided`` when the exact test could
    neither certify nor exclude that it meets the region.
    """

    kind: str
    root: LatVec
    v: LatVec
    undecided: bool = False

    def sort_key(self):
        return (self.kind, self.root.coords)

    def to_json(self) -> dict:
        return {"kind": self.kind, "root_coords": list(self.root.coords),
                "v": list(self.v.coords)}


# -- boxes and exact wall tests -------------------------------------------------

@dataclass(frozen=True)
class TubeBox:
    """Product box in chart coordinates: a in [a_lo, a_hi], b in [b_lo, b_hi].

    The constructor checks that the endpoints are rationals (no floats),
    their order and dimension, and that the b-corners share a cone component.
    """

    split: HyperbolicSplit
    a_lo: tuple[Fraction, ...]
    a_hi: tuple[Fraction, ...]
    b_lo: tuple[Fraction, ...]
    b_hi: tuple[Fraction, ...]

    def __post_init__(self):
        ends = (self.a_lo, self.a_hi, self.b_lo, self.b_hi)
        if any(len(x) != self.split.rho for x in ends):
            raise UnboundedBoxError("box dimension mismatch")
        if not all(isinstance(x, Rational) for e in ends for x in e):
            raise InvariantError("box ends must be exact rationals")
        if any(l > h for l, h in zip(self.a_lo + self.b_lo,
                                     self.a_hi + self.b_hi)):
            raise UnboundedBoxError("empty box")
        _check_cone(self.split.gram_L, list(self.b_corners()), "box")

    @staticmethod
    def make(split: HyperbolicSplit, a_lo, a_hi, b_lo, b_hi) -> "TubeBox":
        """The box with its endpoints read as Fractions."""
        return TubeBox(split, *(tuple(Fraction(x) for x in ends)
                                for ends in (a_lo, a_hi, b_lo, b_hi)))

    def a_corners(self):
        return itertools.product(*zip(self.a_lo, self.a_hi))

    def b_corners(self):
        return itertools.product(*zip(self.b_lo, self.b_hi))

    def corners(self):
        return itertools.product(self.a_corners(), self.b_corners())

    def center(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        a = tuple((l + h) / 2 for l, h in zip(self.a_lo, self.a_hi))
        b = tuple((l + h) / 2 for l, h in zip(self.b_lo, self.b_hi))
        return a, b

    def min_y_norm2(self) -> Fraction:
        gl = self.split.gram_L
        return min(ila.dot(c, ila.mat_vec(gl, c)) for c in self.b_corners())

    @cached_property
    def scaled(self) -> tuple:
        """(S, S a_lo, S a_hi, S b_lo, S b_hi) as integers, S the common
        denominator of the endpoints."""
        s, ends = _integral([self.a_lo, self.a_hi, self.b_lo, self.b_hi])
        return (s, *ends)


def _integral(points) -> tuple[int, list[list[int]]]:
    """(S, the points times S): S is the common denominator of the
    rational coordinates, so the scaled points are integral."""
    s = math.lcm(*(x.denominator for p in points for x in p))
    return s, [[x.numerator * (s // x.denominator) for x in p]
               for p in points]


def _check_cone(gl, points, what: str) -> None:
    """Raise UnboundedBoxError unless the b-points lie in one component of
    the positive cone (then so does their convex hull)."""
    points = _integral(points)[1]
    gp = [ila.mat_vec(gl, p) for p in points]
    if any(ila.dot(p, g) <= 0 for p, g in zip(points, gp)):
        raise UnboundedBoxError(f"{what} leaves the positive cone")
    if any(ila.dot(points[0], g) <= 0 for g in gp[1:]):
        raise UnboundedBoxError(f"{what} spans both cone components")


def _int_box(box: TubeBox, lam, d: int) -> tuple:
    """Integer form (S, w_lo, w_hi, b_lo, b_hi) of a box for the root data.

    w = lam - d a (d >= 0) and b range over [w_lo, w_hi] / S and
    [b_lo, b_hi] / S, with S the common denominator of the endpoints.
    """
    s, a_lo, a_hi, b_lo, b_hi = box.scaled
    return (s, [l * s - d * h for l, h in zip(lam, a_hi)],
            [l * s - d * x for l, x in zip(lam, a_lo)], b_lo, b_hi)


def _linear_range(g, lo, hi) -> tuple:
    """Exact range of g^T x over the box [lo, hi]."""
    return (sum(min(x * l, x * h) for x, l, h in zip(g, lo, hi)),
            sum(max(x * l, x * h) for x, l, h in zip(g, lo, hi)))


def _im_range_over_box(gl, ibox) -> tuple[int, int]:
    """Exact range of b^T G_L w over an integer box: S^2 Im(z.delta), divided
    by d when d > 0.

    For each b-corner the form is linear in w, so its range over the w-box
    is exact; the extrema over b are attained at corners.
    """
    _, w_lo, w_hi, b_lo, b_hi = ibox
    los, his = zip(*(_linear_range(ila.mat_vec(gl, beta), w_lo, w_hi)
                     for beta in itertools.product(*zip(b_lo, b_hi))))
    return min(los), max(his)


def _qform_range(gl, lo, hi) -> tuple[int, int]:
    """Natural interval bounds of x^T G x over the integer box [lo, hi];
    exact in rank one."""
    n = len(lo)
    q_lo = q_hi = 0
    for i in range(n):
        for j in range(i, n):
            if i == j:
                sq = (lo[i] * lo[i], hi[i] * hi[i])
                ends = (0 if lo[i] <= 0 <= hi[i] else min(sq), max(sq))
            else:
                prods = [x * y for x in (lo[i], hi[i]) for y in (lo[j], hi[j])]
                ends = (min(prods), max(prods))
            g = gl[i][j] * (1 if i == j else 2)
            q_lo += min(g * ends[0], g * ends[1])
            q_hi += max(g * ends[0], g * ends[1])
    return q_lo, q_hi


def _f_sign_on_zero_set(gl, d, ibox) -> int:
    """+1 (-1) if F = b^T G b - u^T G u - 2/d^2 is provably positive
    (negative) wherever Im(z.delta) = 0 in the box, 0 if neither is proven.

    First natural interval bounds: on Im = 0, u is G-orthogonal to the
    timelike b, so u^T G u <= 0 and F >= b^T G b - 2/d^2.  Then centred
    forms of the Lagrangian K F + m Im, which equals K F on Im = 0, at the
    multipliers m / K that cancel one first-order term (the kinks of the
    bound as a function of m / K); their error is second order in the box.
    """
    s, w_lo, w_hi, b_lo, b_hi = ibox
    qb, qw = _qform_range(gl, b_lo, b_hi), _qform_range(gl, w_lo, w_hi)
    dd, lim = d * d, 2 * s * s
    if dd * qb[0] - min(qw[1], 0) > lim:
        return 1
    if dd * qb[1] - qw[0] < lim:
        return -1
    # coordinates doubled: centre C = lo + hi, half-width H = hi - lo
    cw = [l + h for l, h in zip(w_lo, w_hi)]
    cb = [l + h for l, h in zip(b_lo, b_hi)]
    hw = [h - l for l, h in zip(w_lo, w_hi)]
    hb = [h - l for l, h in zip(b_lo, b_hi)]
    gw, gb = ila.mat_vec(gl, cw), ila.mat_vec(gl, cb)
    f_c = dd * ila.dot(cb, gb) - ila.dot(cw, gw) - 4 * lim
    im_c = ila.dot(cb, gw)
    grad_f = [-2 * x for x in gw] + [2 * dd * x for x in gb]
    grad_im = gb + gw
    widths = hw + hb
    bw, bb = (_qform_range(gl, [-x for x in h], h) for h in (hw, hb))
    cross = sum(abs(g) * x * y for row, x in zip(gl, hb)
                for g, y in zip(row, hw))
    mults = [(1, 0)] + [(abs(k), -g if k > 0 else g)
                        for g, k in zip(grad_f, grad_im) if k]
    for k, m in mults:
        mid = k * f_c + m * im_c
        lin = sum(abs(k * g + m * t) * h
                  for g, t, h in zip(grad_f, grad_im, widths))
        if mid - lin + k * (dd * bb[0] - bw[1]) - abs(m) * cross > 0:
            return 1
        if mid + lin + k * (dd * bb[1] - bw[0]) + abs(m) * cross < 0:
            return -1
    return 0


@functools.cache
def _edges(n: int) -> tuple[tuple[int, int], ...]:
    """Index pairs of the corners (itertools.product order) joined by edges."""
    return tuple((i, i | 1 << k) for k in range(n) for i in range(1 << n)
                 if not i & 1 << k)


def _edge_zeros(corners, values):
    """Points (num, den), den > 0, where a form linear along each edge
    vanishes on the edges of a box with the given corners and values."""
    out = []
    for i, j in _edges(len(corners[0])):
        v0, v1 = values[i], values[j]
        if v0 == 0:
            out.append((corners[i], 1))
        if v1 == 0:
            out.append((corners[j], 1))
        if v0 * v1 < 0:
            den = v1 - v0
            num = [v1 * x - v0 * y for x, y in zip(corners[i], corners[j])]
            if den < 0:
                den, num = -den, [-x for x in num]
            out.append((num, den))
    return out


def _f_sign(gl, d, s, w, b) -> int:
    """Sign of F = b^T G b - u^T G u - 2/d^2 at u = w/d, for points
    w = (num, den) and b = (num, den) in units of 1/(S den)."""
    (wn, wd), (bn, bd) = w, b
    val = (d * d * wd * wd * ila.dot(bn, ila.mat_vec(gl, bn))
           - bd * bd * ila.dot(wn, ila.mat_vec(gl, wn))
           - 2 * (s * wd * bd) ** 2)
    return (val > 0) - (val < 0)


def _witness(gl, d, ibox, kind):
    """Exact points of the box on the wall, or None if none is found.

    With w or b fixed, Im is linear along the box edges in the other
    variable, so its zeros there are rational and span the convex section
    of Im = 0 at that w or b.  A: a zero with F <= 0.  D: a zero with
    F = 0, or two zeros in one section with F of opposite signs, between
    which F vanishes on the segment joining them.
    """
    s, w_lo, w_hi, b_lo, b_hi = ibox
    wc = [(w, 1) for w in itertools.product(*zip(w_lo, w_hi))]
    bc = [(b, 1) for b in itertools.product(*zip(b_lo, b_hi))]

    def zeros(fixed, corners):
        g = ila.mat_vec(gl, fixed[0])
        return _edge_zeros([c for c, _ in corners],
                           [ila.dot(c, g) for c, _ in corners])

    # w = 0 lies on every b-section, where F is least (u^T G u <= 0 on Im = 0)
    origin = ([([0] * len(w_lo), 1)]
              if all(l <= 0 <= h for l, h in zip(w_lo, w_hi)) else [])
    w_pts = [(w, b) for b in bc for w in zeros(b, wc) + origin]
    b_pts = [(w, b) for w in wc for b in zeros(w, bc)]
    if kind == "A":
        return next(([p] for p in w_pts + b_pts
                     if _f_sign(gl, d, s, *p) <= 0), None)
    sections = ([[(w, b) for b in zeros(w, bc)]
                 for w in wc + [w for w, _ in w_pts]]
                + [[(w, b) for w in zeros(b, wc) + origin]
                   for b in bc + [b for _, b in b_pts]])
    for section in sections:
        found = {}
        for p in section:
            sign = _f_sign(gl, d, s, *p)
            if sign == 0:
                return [p]
            found.setdefault(sign, p)
        if len(found) == 2:
            return [found[-1], found[1]]
    return None


def _bisect(ibox, d):
    """Halve the box across its widest chart coordinate (u = w/d, b)."""
    s, w_lo, w_hi, b_lo, b_hi = ibox
    los, his = w_lo + b_lo, w_hi + b_hi
    rho = len(w_lo)
    k = max(range(2 * rho),
            key=lambda i: (his[i] - los[i]) * (1 if i < rho else d))
    if (los[k] + his[k]) % 2:
        s, los, his = 2 * s, [2 * x for x in los], [2 * x for x in his]
    mid = (los[k] + his[k]) // 2
    left, right = list(his), list(los)
    left[k] = right[k] = mid
    return [(s, los[:rho], left[:rho], los[rho:], left[rho:]),
            (s, right[:rho], his[:rho], right[rho:], his[rho:])]


def _wall_search(gl, box: TubeBox, d: int, lam, kind: str):
    """(verdict, witness) of the exact A- or D-wall test of the oriented
    root data (d > 0, lam) over G_L = ``gl``.

    The verdict is True, False or None (undecided at WALL_TEST_DEPTH); a
    True verdict comes with a witness, a list of chart points (a, b) of
    Fractions: one point on the wall, or for D two points with the same a
    or the same b and Re(z.delta) negative, then positive, joined by a
    segment on Im = 0.
    """
    level = [_int_box(box, lam, d)]
    for depth in range(WALL_TEST_DEPTH + 1):
        survivors = []
        for ibox in level:
            lo, hi = _im_range_over_box(gl, ibox)
            if lo > 0 or hi < 0:
                continue
            sign = _f_sign_on_zero_set(gl, d, ibox)
            if sign > 0 or (sign < 0 and kind == "D"):
                continue
            points = _witness(gl, d, ibox, kind)
            if points is not None:
                s = ibox[0]  # a = (lam - w) / d
                return True, [
                    (tuple(Fraction(l * s * wd - x, s * wd * d)
                           for l, x in zip(lam, wn)),
                     tuple(Fraction(x, s * bd) for x in bn))
                    for (wn, wd), (bn, bd) in points]
            survivors.append(ibox)
        if not survivors:
            return False, None
        level = [half for ibox in survivors for half in _bisect(ibox, d)]
    return None, None


def wall_meets_box(split: HyperbolicSplit, box: TubeBox, delta: LatVec,
                   kind: str) -> bool | None:
    """Does the wall of the given kind and root meet the box?

    Exact and three-valued: True (meets, certified by an exact point on
    the wall), False (misses, proven) or None (undecided: a tangent or
    boundary-touching wall that bisection to WALL_TEST_DEPTH levels could
    neither certify nor exclude).  With delta = c v + d f + R lam and
    u = lam/d - a, Im(z.delta) = d b^T G_L u and
    Re(z.delta) = -1/d + (d/2)(b^T G_L b - u^T G_L u); the A-wall is
    Im = 0, Re <= 0 (d > 0) and the D-wall is z.delta = 0.  C-walls
    (d = 0, Im = b^T G_L lam) and D-walls with d = 0 are linear and always
    decided.  In rank one, Im = 0 forces u = 0 and every test is decided
    without bisection.
    """
    if kind not in ("A", "C", "D"):
        raise ValueError(f"unknown wall kind {kind!r}")
    c, d, lam = split.root_data(delta)
    if (kind == "A" and d <= 0) or (kind == "C" and d != 0):
        return False
    if d < 0:
        d, lam = -d, [-x for x in lam]
    if d:
        return _wall_search(split.gram_L, box, d, lam, kind)[0]
    # d = 0: z.delta = -c + a^T G_L lam + i b^T G_L lam, a and b apart
    lo, hi = _im_range_over_box(split.gram_L, _int_box(box, lam, 0))
    if kind == "C" or not lo <= 0 <= hi:
        return lo <= 0 <= hi
    lo, hi = _linear_range(ila.mat_vec(split.gram_L, lam), box.a_lo, box.a_hi)
    return lo <= c <= hi


# -- candidate roots ------------------------------------------------------------

def _majorant(g, basis) -> tuple[int, list[list[int]]]:
    """(det P, det P (2 G pi_S - G)) as integers, for an integer basis B
    (one or two vectors) of a positive subspace S with Gram matrix P.

    2 G pi_S - G = 2 (G B) P^-1 (G B)^T - G is the majorant of G at S,
    positive definite where S is a maximal positive subspace.  A root
    delta takes 2 |delta_S|^2 + 2 there: 2 exactly when delta is
    orthogonal to S.  For one vector e it is 2 G e (G e)^T - Q(e) G.
    """
    gb = [ila.mat_vec(g, e) for e in basis]
    p = [[ila.dot(x, e) for e in basis] for x in gb]
    h = ila.mat_mul(ila.adjugate(p), gb)    # det P * P^-1 (G B)^T
    det = ila.det_bareiss(p)
    return det, [[2 * ila.dot(x, y) - det * gij
                  for y, gij in zip(zip(*h), row)]
                 for x, row in zip(zip(*gb), g)]


def _short_roots(gram, q, bound) -> np.ndarray:
    """The rows x of ``short_vectors(q, bound)`` with x.G.x = -2."""
    xs, norms = _norms(gram, short_vectors(q, bound))
    return xs[norms == -2]


def _norms(gram, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(xs, x.G.x per row) for an integer Gram matrix G = ``gram``, in an
    integer dtype wide enough for every intermediate."""
    size = int(np.abs(xs).max(initial=0))
    xs = xs.astype(_int_dtype(size * size * sum(abs(x) for row in gram
                                                  for x in row)))
    return xs, np.einsum("ij,jk,ik->i", xs, np.array(gram, dtype=xs.dtype),
                         xs)


def _cone_roots(gl, points) -> tuple[list[int], int, Fraction, Fraction,
                                      np.ndarray]:
    """(E, Q(E), k, y2_min, roots) for cone points p (Fractions) of one
    component.

    E is a positive integer multiple of their mean e, and M_e =
    2 G_L e e^T G_L / Q(e) - G_L is the majorant of G_L at e.  For b in
    the convex hull of the points and u with b^T G_L u = 0, reverse
    Cauchy-Schwarz gives M_e(u) <= k N_b(u), where N_b(u) = -u^T G_L u,
    k = 2 K - 1 and K = max (e^T G_L p)^2 / (Q(e) y2_min), y2_min =
    min Q(p): (e^T G_L b)^2 and Q(b) take their extremes over the hull at
    the points, because e^T G_L b is linear and positive there and
    sqrt(Q) is concave on the cone.  ``roots`` are the lam with
    lam^T G_L lam = -2 and M_e(lam) <= 2 k, one per +-lam: every root
    orthogonal to a point of the hull, where N_b(lam) = 2.  They come
    from ``short_vectors`` on the integer form Q(E) M_e of ``_majorant``.
    """
    s, points = _integral(points)   # k is the same for S p
    e = [sum(col) for col in zip(*points)]
    qe, q = _majorant(gl, [e])
    gps = [ila.mat_vec(gl, p) for p in points]
    y2_min = min(ila.dot(p, gp) for p, gp in zip(points, gps))
    k = Fraction(2 * max(ila.dot(e, gp) ** 2 for gp in gps), qe * y2_min) - 1
    return (e, qe, k, Fraction(y2_min, s * s),
            _short_roots(gl, q, math.floor(2 * k * qe)))


def _floor_add_sqrt(q: Fraction, x: Fraction) -> int:
    """floor(q + sqrt(x)) for rationals q and x >= 0, exactly."""
    m = q.denominator
    return (q.numerator + math.isqrt(math.floor(m * m * x))) // m


def _roots_near(split: HyperbolicSplit, a_lo, a_hi, b_points
                ) -> list[tuple[int, ...]]:
    """The oriented rows (c, d, *lam), Python ints, of the roots whose
    A-, C- or D-wall can meet a chart region: a in the box [a_lo, a_hi],
    b in the hull of the cone points ``b_points`` (Fractions).  Not yet
    listed: the D-walls of the roots c v + lam with c != 0 and d = 0
    (ROADMAP item 1).  The rows are distinct, d >= 0, and c = 0 with a
    sign-canonical lam at d = 0; d = 0 comes first, in ``short_vectors``
    order, then d = 1, 2, ... in the lex order of lam.  At rho = 1 (no
    d = 0 roots) only ``wall_crossings`` still scans: ``_rank1_walls``
    lists the walls of boxes and so of the point predicates.

    Write delta = c v + d f + R lam with d >= 0 (up to sign) and, for
    d > 0, u = lam/d - a.  An A- or D-wall passes through (a, b) only if
    b^T G_L u = 0 and y^2 + N_b(u) <= 2/d^2 (y^2 = b^T G_L b >= y2_min);
    a C-wall (d = 0) only if b^T G_L lam = 0, where N_b(lam) = 2.  With
    e the mean of the b-points, ``_cone_roots`` bounds M_e by k N_b on
    b^T G_L u = 0, so every such root has

        M_e(lam - d a) <= k (2 - d^2 y2_min),   d^2 y2_min <= 2.

    At d = 0 these are its ``roots``.  At d >= 1, lam_i lies within
    r_i = sqrt(k (2 - d^2 y2_min) (M_e^-1)_ii) of d a_i, with M_e^-1 =
    2 e e^T / Q(e) - G_L^-1: one integer box per d, where
    c = (lam^T G_L lam + 2) / (2 d) must be an integer.  Every bound is
    an exact rational.
    """
    gl = split.gram_L
    e, qe, k, y2_min, l_roots = _cone_roots(gl, b_points)
    adj, det = ila.adjugate(gl), ila.det_bareiss(gl)
    m_inv = [Fraction(2 * x * x, qe) - Fraction(adj[i][i], det)
             for i, x in enumerate(e)]
    rows = [(0, 0, *lam) for lam in l_roots.tolist()]
    d = 1
    while d * d * y2_min <= 2:
        r2 = [k * (2 - d * d * y2_min) * m for m in m_inv]
        axes = [np.arange(-_floor_add_sqrt(-d * lo, x),
                          _floor_add_sqrt(d * hi, x) + 1)
                for lo, hi, x in zip(a_lo, a_hi, r2)]
        lam, norms = _norms(gl, np.stack(np.meshgrid(*axes, indexing="ij"),
                                         axis=-1).reshape(-1, split.rho))
        keep = (norms + 2) % (2 * d) == 0
        rows += [((n + 2) // (2 * d), d, *row) for n, row
                 in zip(norms[keep].tolist(), lam[keep].tolist())]
        d += 1
    return rows


def _root_rows(split: HyperbolicSplit, roots) -> list[tuple[int, ...]]:
    """Roots of any sign, repeats allowed, as the distinct oriented rows
    of ``_roots_near``: the sign with d = -v.delta > 0, or at d = 0 the
    C-wall row, since a C-wall depends only on lam up to sign."""
    def row(delta):
        c, d, lam = split.root_data(delta)
        if d == 0:
            return (0, 0, *_sign_canonical(lam))
        return (c, d, *lam) if d > 0 else (-c, -d, *(-x for x in lam))
    return list(dict.fromkeys(map(row, roots)))


def _rank1_walls(split: HyperbolicSplit, box: TubeBox) -> list[Wall]:
    """The walls meeting a box at rho = 1 in closed form, on Python ints:
    G_L = (g > 0) has no roots, so d > 0 and there are no C-walls, and
    Im(z.delta) = d b g (lam/d - a) is 0 only at a = lam/d, where the A-wall
    is g d^2 b^2 <= 2 (Re(z.delta) <= 0) and its top end the D-wall; b^2 > 0
    on a checked box, so the loop ends."""
    g = split.gram_L[0][0]
    (a_lo,), (a_hi,) = box.a_lo, box.a_hi
    b2_lo, b2_hi = sorted((box.b_lo[0] ** 2, box.b_hi[0] ** 2))
    walls = []
    d = 1
    while g * d * d * b2_lo <= 2:
        kinds = ("A", "D") if g * d * d * b2_hi >= 2 else ("A",)
        for lam in range(math.ceil(d * a_lo), math.floor(d * a_hi) + 1):
            c, r = divmod(g * lam * lam + 2, 2 * d)
            if not r:
                root = split.root_from_data(c, d, (lam,))
                walls += [Wall(kind, root, split.v) for kind in kinds]
        d += 1
    return sorted(walls, key=Wall.sort_key)


def enumerate_walls_region(split: HyperbolicSplit, box: TubeBox,
                           candidates: list[LatVec] | None = None
                           ) -> list[Wall]:
    """All walls meeting a compact chart box.

    At rho = 1 the default is the closed-form listing ``_rank1_walls``.
    Otherwise the candidates default to the ``_roots_near`` rows of the
    box, which hold every root whose wall can meet it, except the D-walls
    of the roots c v + lam with c != 0 and d = 0 (ROADMAP item 1).
    Explicit ``candidates`` (roots of any sign, repeats allowed) are
    decoded once, on entry, into the same rows (``_root_rows``), so a
    C-wall is listed once per image in L(v), by its root of d = c = 0.

    Each row is tested once per kind by the exact three-valued test
    ``wall_meets_box``; walls it leaves undecided are listed too, with
    ``undecided`` set.  The D-test runs only when the A-test has not
    proved a miss: the D-wall lies inside the A-wall, and both tests
    bisect alike, so every sub-box the A-test drops the D-test drops too.
    """
    if candidates is None and split.rho == 1:
        return _rank1_walls(split, box)
    rows = (_roots_near(split, box.a_lo, box.a_hi, list(box.b_corners()))
            if candidates is None else _root_rows(split, candidates))
    walls = []
    for c, d, *lam in rows:
        delta = split.root_from_data(c, d, lam)
        for kind in ("A", "D") if d else ("C",):
            verdict = wall_meets_box(split, box, delta, kind)
            if verdict is False:
                break
            walls.append(Wall(kind, delta, split.v, undecided=verdict is None))
    return sorted(walls, key=Wall.sort_key)


def enumerate_walls_bruteforce(split: HyperbolicSplit, box: TubeBox,
                               coord_bound: int = 10) -> list[Wall]:
    """Oracle: scan all roots with |coords| <= coord_bound, same filters;
    kept in the package only because ``perfbench/oracles.py`` imports it."""
    lat = split.lattice
    return enumerate_walls_region(split, box, candidates=[
        lat.vector(c) for c in vectors_of_norm(lat, -2, coord_bound)])


# -- wall crossings along chart segments ----------------------------------------

@dataclass(frozen=True)
class WallEvent:
    """The ``kind`` wall of ``root`` met at t, the float nearest the exact
    time, with the signs of Im(z.root) just before and after it."""

    t: float
    kind: str
    root: LatVec
    side_change: tuple[int, int]


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign_at(poly, t) -> int:
    """Sign of c0 + c1 t + c2 t^2 at t = (p + q sqrt(disc)) / m: m^2 times
    it is x + y sqrt(disc), compared by squares where x and y disagree."""
    (c0, c1, c2), (p, q, disc, m) = poly, t
    x = c2 * (p * p + q * q * disc) + c1 * m * p + c0 * m * m
    y = (2 * c2 * p + c1 * m) * q
    sx, sy = _sign(x), _sign(y) * (disc > 0)
    return (sx or sy) if sx * sy >= 0 else sx * _sign(x * x - y * y * disc)


def _unit_zeros(c0, c1, c2) -> list[tuple[int, int, int, int]]:
    """The zeros (p, q, disc, m) in [0, 1] of a non-zero c0 + c1 t + c2 t^2,
    t = (p + q sqrt(disc)) / m with q = 0 where t is rational."""
    disc = c1 * c1 - 4 * c2 * c0
    r = math.isqrt(max(disc, 0))
    if c2 == 0:
        zeros = [(-c0, 0, 0, c1)] if c1 else []
    elif r * r == disc:
        zeros = {(-c1 + e * r, 0, 0, 2 * c2) for e in (-1, 1)}
    else:
        zeros = [(-c1, e, disc, 2 * c2) for e in (-1, 1)] if disc > 0 else []
    return [t for t in zeros
            if _sign_at((0, 1, 0), t) >= 0 and _sign_at((1, -1, 0), t) >= 0]


def _nearest_float(t) -> float:
    """The float nearest t = (p + q sqrt(disc)) / m: integer square roots
    bracket it ever tighter until both ends round alike."""
    p, q, disc, m = t
    k = 64 if q else 0
    while True:
        r = math.isqrt(q * q * disc << 2 * k)  # |q| sqrt(disc) 2^k - r in [0, 1)
        lo = (p << k) + (r if q >= 0 else -r - 1)
        ends = {float(Fraction(x, m << k)) for x in (lo, lo + (q != 0))}
        if len(ends) == 1:
            return ends.pop()
        k *= 2


def wall_crossings(split: HyperbolicSplit, start, end) -> list[WallEvent]:
    """Every wall event along a chart segment, exactly, sorted by
    (t, kind, root).

    The segment runs from ``start`` = (a0, b0) to ``end`` = (a1, b1),
    chart points read as exact rationals, over t in [0, 1]; b0 and b1 must
    lie in one cone component.  The ``_roots_near`` rows over its
    a-bounding box and {b0, b1} hold every root whose wall it can meet.
    For a row (c, d, *lam), I(t) = Im(z.delta) = b^T G_L (lam - d a) and
    R(t) = Re(z.delta) = -c + a^T G_L lam - (d/2)(a^T G_L a - b^T G_L b)
    are rational quadratics in t.  At a zero t* of I in [0, 1] the exact
    sign of R gives an A event (d > 0, R < 0), a C event (d = 0, R != 0),
    a D event (R = 0) or none (d > 0, R > 0); ``side_change`` is (-s, s)
    at a simple zero where I' has sign s, (s, s) at a double zero of
    I = s X^2.  A segment inside the hyperplane I = 0 of a root whose wall
    it meets raises ValueError naming the first such root in scan order.
    """
    gl = split.gram_L
    pts = [[Fraction(x) for x in c] for c in (*start, *end)]  # a0 b0 a1 b1
    if len(pts) != 4 or any(len(c) != split.rho for c in pts):
        raise ValueError("start and end must be chart points (a, b)")
    _check_cone(gl, pts[1::2], "segment")
    s, (a0, b0, a1, b1) = _integral(pts)
    da, db = ([y - x for x, y in zip(*c)] for c in ((a0, a1), (b0, b1)))
    ga0, gda, gb0, gdb = (ila.mat_vec(gl, x) for x in (a0, da, b0, db))
    # coefficients in t of S^2 b^T G_L a and of S^2 (a^T G_L a - b^T G_L b)
    ba = (ila.dot(b0, ga0), ila.dot(b0, gda) + ila.dot(db, ga0),
          ila.dot(db, gda))
    aa_bb = (ila.dot(a0, ga0) - ila.dot(b0, gb0),
             2 * (ila.dot(a0, gda) - ila.dot(b0, gdb)),
             ila.dot(da, gda) - ila.dot(db, gdb))
    near = _roots_near(split, list(map(min, pts[0], pts[2])),
                       list(map(max, pts[0], pts[2])), pts[1::2])
    events = []
    for c, d, *lam in near:
        g_lam = ila.mat_vec(gl, lam)
        im = (s * ila.dot(b0, g_lam) - d * ba[0],                    # S^2 I
              s * ila.dot(db, g_lam) - d * ba[1], -d * ba[2])
        re = (2 * s * (ila.dot(a0, g_lam) - c * s) - d * aa_bb[0],  # 2 S^2 R
              2 * s * ila.dot(da, g_lam) - d * aa_bb[1], -d * aa_bb[2])
        if not any(im):
            # R <= 0 somewhere on [0, 1] iff R(0) <= 0 or R has a zero there
            if d == 0 or re[0] <= 0 or _unit_zeros(*re):
                root = split.root_from_data(c, d, lam)
                raise ValueError("the segment lies in the Im(z.delta) = 0 "
                                 f"hyperplane of the root {root.coords}")
            continue
        for t in _unit_zeros(*im):
            sign_re = _sign_at(re, t)
            if d == 0 or sign_re <= 0:
                slope = _sign_at((im[1], 2 * im[2], 0), t)
                events.append(WallEvent(
                    _nearest_float(t),
                    "D" if sign_re == 0 else "A" if d else "C",
                    split.root_from_data(c, d, lam),
                    (-slope, slope) if slope else (_sign(im[2]),) * 2))
    return sorted(events, key=lambda e: (e.t, e.kind, e.root.coords))


# ---------------------------------------------------------------------------
# region membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class P0Certificate:
    is_in: bool
    min_abs_pairing: float
    witness: LatVec | None
    exclusion_radius: float
    candidates_checked: int


def in_P0(frame: FrameVec) -> P0Certificate:
    """No root pairs to zero with z, with a quantitative certificate.

    Re z and Im z count as the exact rationals of their floats.  A root
    with z.delta = 0 is orthogonal to their plane P, of majorant value
    Q+(delta) = 2 exactly (``_majorant``), so the candidates Q+ <= 10 hold
    every such root.  Any other root keeps |z.delta| > exclusion_radius =
    2 sqrt(lam_min), lam_min the least eigenvalue of P's Gram matrix.
    """
    lat = frame.validate().lattice
    gram = lat.gram_rows()
    xs = [[Fraction(x) for x in part] for part in (frame.re, frame.im)]
    det, q = _majorant(gram, _integral(xs)[1])
    roots, values = _norms(q, _short_roots(gram, q, 10 * det))
    lam_min = float(np.linalg.eigvalsh(frame.plane_gram())[0])
    radius = 2.0 * math.sqrt(max(lam_min, 0.0))
    vals = abs(frame.z @ lat.gram_np @ roots.T.astype(float))
    best, witness = math.inf, None
    if len(vals):
        i = int(np.argmin(vals))
        best, witness = float(vals[i]), lat.vector(roots[i].tolist())
    is_in = 2 * det not in values.tolist()
    return P0Certificate(is_in, best, witness, radius, len(roots))


def _chart_rationals(pt: TubePoint, name: str):
    """Chart coordinates (a, b) of one point, as the exact rationals of
    their floats; a batch raises ValueError."""
    if pt.x.ndim != 1:
        raise ValueError(f"{name} takes one point, not a batch")
    return tuple([Fraction(x) for x in c] for c in pt.chart())


def region_gt2(pt: TubePoint) -> bool:
    """Strictly y^2 > 2 (no A-wall can pass), exact on the point's chart
    rationals.  One point only: a batch raises ValueError."""
    b = _chart_rationals(pt, "region_gt2")[1]
    return ila.dot(b, ila.mat_vec(pt.split.gram_L, b)) > 2


def _point_walls(split: HyperbolicSplit, a, b) -> list[Wall]:
    """The walls ``enumerate_walls_region`` lists on the zero-width box at
    the chart point (a, b), less undecided ones (a point box has none)."""
    return [w for w in enumerate_walls_region(
        split, TubeBox.make(split, a, a, b, b)) if not w.undecided]


def on_A_wall(pt: TubePoint) -> LatVec | None:
    """Return a root whose A-wall contains the point, if any does: the
    first A-wall of ``_point_walls`` at the point's chart coordinates, as
    the exact rationals of their floats.  One point only: a batch raises
    ValueError."""
    walls = _point_walls(pt.split, *_chart_rationals(pt, "on_A_wall"))
    return next((w.root for w in walls if w.kind == "A"), None)


def in_L_region(pt: TubePoint, y_amp) -> bool:
    """Distinguished-chamber membership.

    True iff y lies in the chamber of the witness y_amp (no L(v)-root wall
    separates them) and the point's wall listing (``_point_walls``) holds
    no A- or C-wall; a D-wall lies inside its A-wall.  y_amp is given in
    chart coordinates; it and the point count as the exact rationals of
    their floats.  One point only: a batch raises ValueError.
    """
    a, b = _chart_rationals(pt, "in_L_region")
    gl = pt.split.gram_L
    y_amp = [Fraction(x) for x in y_amp]
    if len(y_amp) != len(gl):
        raise ValueError("y_amp has the wrong length")
    g_amp = ila.mat_vec(gl, y_amp)
    if ila.dot(y_amp, g_amp) <= 0:
        raise AmpNotInPositiveConeError("y_amp^2 <= 0")
    if ila.dot(b, g_amp) <= 0:
        return False  # opposite cone component
    # chamber agreement along the segment [y_amp, b]
    for lam in _cone_roots(gl, [y_amp, b])[-1].tolist():
        g_lam = ila.mat_vec(gl, lam)
        if ila.dot(y_amp, g_lam) * ila.dot(b, g_lam) < 0:
            return False
    return not any(w.kind in "AC" for w in _point_walls(pt.split, a, b))
