"""Period domain, tube model and wall-and-chamber structure.

Points of the period domain are complex lines [z] with z^2 = 0, z.zbar > 0;
equivalently oriented positive-definite 2-planes span(Re z, Im z).  For a
standard vector v the tube model writes points as x + iy with canonical lifts

    x.v = -1, x^2 = 0      (x = x~ + (x~^2 / 2) v for any lift x~)
    y.v = 0,  y.x = 0, y^2 > 0

and Exp_v(x + iy) = x + iy - (y^2 / 2) v, the unique frame with z.v = -1.

Chart coordinates: after splitting off the hyperbolic plane <v, f> the
complement basis R models L(v) = v^perp / v, and (a, b) in R^rho x R^rho
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

import numpy as np

from . import intlinalg as ila
from .errors import (
    AmpNotInPositiveConeError,
    DegenerateAtVError,
    NonPositiveDetError,
    NotPositiveError,
    UnboundedBoxError,
)
from .lattice import (
    IntegerLattice,
    Isometry,
    LatVec,
    standard_to_hyperbolic,
    _int_dtype,
    _sign_canonical,
)
from .shortvec import short_vectors

PAIR_TOL = 1e-9
# Bisection levels after which an exact wall test reports undecided.
WALL_TEST_DEPTH = 24

_GRAM_CACHE: dict[tuple, np.ndarray] = {}


def gram_np(lat: IntegerLattice) -> np.ndarray:
    g = _GRAM_CACHE.get(lat.gram)
    if g is None:
        g = np.array(lat.gram_rows(), dtype=float)
        g.setflags(write=False)
        _GRAM_CACHE[lat.gram] = g
    return g


def pairing(lat: IntegerLattice, u, w):
    """Bilinear pairing of coordinate vectors (real or complex, no bar).

    Arguments of shape (N, n) pair row by row; a single vector broadcasts.
    """
    return _rowdot(np.asarray(u) @ gram_np(lat), w)


def _rowdot(u, w):
    """Row-wise u . w, rounded as the 1-D product u @ w is."""
    return (u[..., None, :] @ np.asarray(w)[..., :, None])[..., 0, 0]


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
    """Split N = <v, f> + R with v standard, f isotropic, v.f = -1."""

    lattice: IntegerLattice
    v: LatVec
    f: LatVec
    comp: tuple[tuple[int, ...], ...]     # columns: basis of <v,f>^perp
    gram_L: tuple[tuple[int, ...], ...]   # Gram of the complement basis

    @property
    def rho(self) -> int:
        return len(self.comp)

    @cached_property
    def _comp_np(self) -> np.ndarray:
        a = np.array(self.comp, dtype=float).T  # n x rho, columns
        a.setflags(write=False)
        return a

    @cached_property
    def _gram_L_np(self) -> np.ndarray:
        a = np.array(self.gram_L, dtype=float)
        a.setflags(write=False)
        return a

    @cached_property
    def _gram_L_inv(self) -> np.ndarray:
        a = np.linalg.inv(self._gram_L_np)
        a.setflags(write=False)
        return a

    def comp_np(self) -> np.ndarray:
        return self._comp_np

    def gram_L_np(self) -> np.ndarray:
        return self._gram_L_np

    def v_np(self) -> np.ndarray:
        return self._v_np

    @cached_property
    def _v_np(self) -> np.ndarray:
        a = np.array(self.v.coords, dtype=float)
        a.setflags(write=False)
        return a

    def f_np(self) -> np.ndarray:
        return self._f_np

    @cached_property
    def _f_np(self) -> np.ndarray:
        a = np.array(self.f.coords, dtype=float)
        a.setflags(write=False)
        return a

    @cached_property
    def _comp_left_inverse(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(P, s): an integer rho x n matrix P with P R = s I, s > 0.

        P = s G_L^-1 R^T G.  At a standard vector N = <v, f> + R, so s = 1
        and P is an exact integer left inverse of R.
        """
        g = self.lattice.gram_rows()
        rows = ila.mat_mul(ila.mat_inverse_rational(self.gram_L),
                           [ila.mat_vec(g, col) for col in self.comp])
        s = math.lcm(*(x.denominator for row in rows for x in row))
        return tuple(tuple(int(x * s) for x in row) for row in rows), s

    def root_data(self, delta: LatVec) -> tuple[int, int, tuple[int, ...]]:
        """(c, d, lam) with delta = c v + d f + R lam, all integers.

        Raises ValueError when no such integers exist.
        """
        d = -self.v.dot(delta)
        c = -self.f.dot(delta)
        rest = [x - c * vi - d * fi for x, vi, fi
                in zip(delta.coords, self.v.coords, self.f.coords)]
        p, s = self._comp_left_inverse
        lam = [sum(a * x for a, x in zip(row, rest)) for row in p]
        # R lam = s rest, with lam still scaled by s
        if any(sum(col[i] * l for col, l in zip(self.comp, lam)) != s * x
               for i, x in enumerate(rest)):
            raise ValueError("inconsistent system")
        if any(l % s for l in lam):
            raise ValueError("solution is not integral")
        return c, d, tuple(l // s for l in lam)

    def root_from_data(self, c: int, d: int, lam) -> LatVec:
        coords = [c * self.v.coords[i] + d * self.f.coords[i]
                  + sum(self.comp[j][i] * lam[j] for j in range(self.rho))
                  for i in range(self.lattice.rank)]
        return self.lattice.vector(coords)


def split_at(v: LatVec) -> HyperbolicSplit:
    e, f, comp = standard_to_hyperbolic(v)
    gl = ila.gram_of(comp, v.lattice.gram_rows())
    return HyperbolicSplit(v.lattice, e, f,
                           tuple(tuple(c) for c in comp),
                           tuple(tuple(r) for r in gl))


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
    def validate(self, tol: float = 1e-9):
        g = gram_np(self.split.lattice)
        x, y, vv = self.x, self.y, self.split.v_np()
        xg, yg = x @ g, y @ g
        _raise_first(
            (abs(_rowdot(xg, x)) > tol, ValueError, "x^2 != 0"),
            (abs(_rowdot(xg, vv) + 1.0) > tol, ValueError, "x.v != -1"),
            (abs(_rowdot(yg, vv)) > tol, ValueError, "y.v != 0"),
            (abs(_rowdot(yg, x)) > tol, ValueError, "y.x != 0"),
            (_rowdot(yg, y) <= 0, NotPositiveError, "y^2 <= 0"))
        return self

    def chart(self) -> tuple[np.ndarray, np.ndarray]:
        """Chart coordinates (a, b) in the complement basis."""
        sp = self.split
        m = gram_np(sp.lattice) @ sp.comp_np()
        return self.x @ m @ sp._gram_L_inv.T, self.y @ m @ sp._gram_L_inv.T


def tube_point(split: HyperbolicSplit, a, b) -> TubePoint:
    """Tube point with chart coordinates (a, b); b must be in the cone.

    (N, rho) coordinate arrays, broadcast together, give a batch of N points.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    r = split.comp_np()
    return tube_from_lifts(split, split.f_np() + a @ r.T, b @ r.T)


def tube_from_lifts(split: HyperbolicSplit, x_raw, y_raw,
                    validate: bool = True) -> TubePoint:
    """Canonicalize arbitrary lifts: x.(v) = -1 assumed, y.v = 0 assumed."""
    lat = split.lattice
    vv = split.v_np()
    x_raw = np.asarray(x_raw, dtype=float)
    y_raw = np.asarray(y_raw, dtype=float)
    x = x_raw + 0.5 * pairing(lat, x_raw, x_raw)[..., None] * vv
    y = y_raw + pairing(lat, y_raw, x)[..., None] * vv
    pt = TubePoint(split, x, y)
    if validate:
        pt.validate()
    return pt


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
        return np.swapaxes(b, -1, -2) @ gram_np(self.lattice) @ b

    def validate(self):
        m = self.plane_gram()
        ok = (np.linalg.det(m) > 0) & (np.trace(m, axis1=-2, axis2=-1) > 0)
        _raise_first((~ok, NotPositiveError,
                      "span(Re z, Im z) is not a positive plane"))
        return self

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

    def validate(self, tol: float = 1e-8):
        scale = np.linalg.norm(self.z, axis=-1) ** 2
        _raise_first(
            (abs(pairing(self.lattice, self.z, self.z)) > tol * scale,
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
    ab = _rowdot(a.conj(), b) / _rowdot(a.conj(), a).real
    resid = b - ab[..., None] * a
    return np.sqrt(_rowdot(resid.conj(), resid).real
                   / _rowdot(b.conj(), b).real)


def exp_frame(pt: TubePoint) -> FrameVec:
    """Exp_v: the unique frame z = x + iy - (y^2/2) v with z.v = -1, z^2 = 0."""
    y2 = pt.y_norm2()
    _raise_first((y2 <= 0, NotPositiveError, "y^2 <= 0"))
    z = pt.x - 0.5 * y2[..., None] * pt.split.v_np() + 1j * pt.y
    return FrameVec(pt.split.lattice, z)


def theta(frame: FrameVec, vref: LatVec | None = None) -> PeriodPoint:
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
    p = PeriodPoint(lat, e1 + 1j * e2)
    if vref is not None:
        return PeriodPoint(lat, q_section(p, vref).z)
    return p


def exp_point(pt: TubePoint) -> PeriodPoint:
    """exp_v = theta after Exp_v; an isomorphism onto its image."""
    return PeriodPoint(pt.split.lattice, exp_frame(pt).z)


def q_section(p: PeriodPoint, v: LatVec) -> FrameVec:
    """Section of theta: the representative with z.v = -1, z^2 = 0."""
    zv = p.pair_v(v)
    _raise_first((abs(zv) < PAIR_TOL * np.linalg.norm(p.z, axis=-1),
                  DegenerateAtVError,
                  "z.v = 0: point at infinity relative to v"))
    return FrameVec(p.lattice, -p.z / zv[..., None])


def log_tube(p: PeriodPoint, split: HyperbolicSplit) -> TubePoint:
    """Inverse of exp_v: tube coordinates of a period point."""
    w = q_section(p, split.v)
    return tube_from_lifts(split, w.re, w.im, validate=False)


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
    """
    p = theta(frame)
    zv = p.pair_v(split.v)
    _raise_first((abs(zv) < PAIR_TOL * np.linalg.norm(p.z, axis=-1),
                  DegenerateAtVError, "z.v = 0"))
    pt = log_tube(p, split)
    w = exp_frame(pt)
    m = w.plane_gram()
    bg = np.stack([w.re, w.im], axis=-2) @ gram_np(frame.lattice)
    # rows of T: the coefficients of Re z and of Im z, one solve each (a
    # two-column solve rounds T differently and moves factor output bytes)
    return pt, np.stack([np.linalg.solve(m, bg @ part[..., None])[..., 0]
                         for part in (frame.re, frame.im)], axis=-2)


# ---------------------------------------------------------------------------
# isometries acting on the domain
# ---------------------------------------------------------------------------

def apply_isometry_frame(g: Isometry, frame: FrameVec) -> FrameVec:
    return FrameVec(frame.lattice, g.matrix_np @ frame.z)


def apply_isometry_point(g: Isometry, p: PeriodPoint) -> PeriodPoint:
    return PeriodPoint(p.lattice, g.matrix_np @ p.z)


def apply_isometry_tube(g: Isometry, pt: TubePoint) -> TubePoint:
    """g . (x + iy) in the tube model of w = g.v (lifts stay canonical)."""
    sp = split_at(g.apply(pt.split.v))
    return TubePoint(sp, g.matrix_np @ pt.x, g.matrix_np @ pt.y)


def reference_frame(lat: IntegerLattice) -> FrameVec:
    """A fixed frame spanning a positive 2-plane (eigenvector construction)."""
    g = gram_np(lat)
    vals, vecs = np.linalg.eigh(g)
    pos = [i for i in range(len(vals)) if vals[i] > 0]
    if len(pos) < 2:
        raise NotPositiveError("lattice has no positive 2-plane")
    p1 = vecs[:, pos[-1]]
    p2 = vecs[:, pos[-2]]
    return FrameVec(lat, p1 + 1j * p2).validate()


def orientation_flag(g: Isometry, reference: FrameVec | None = None) -> bool:
    """True iff g preserves the component of the reference oriented plane.

    The cross Gram of the image plane against the reference plane is
    non-singular for positive planes; its determinant sign detects the
    component.
    """
    ref = reference if reference is not None else reference_frame(g.lattice)
    img = apply_isometry_frame(g, ref)
    gm = gram_np(g.lattice)
    b_ref = np.stack([ref.re, ref.im], axis=1)
    b_img = np.stack([img.re, img.im], axis=1)
    cross = b_img.T @ gm @ b_ref
    return bool(np.linalg.det(cross) > 0)


def with_orientation(g: Isometry,
                     reference: FrameVec | None = None) -> Isometry:
    return g.with_flag(orientation_flag(g, reference))


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


def wall_membership(p: PeriodPoint, delta: LatVec, v: LatVec,
                    tol: float = PAIR_TOL) -> str:
    """Classify a period point against the walls of one root.

    Returns 'on_D', 'on_A', 'on_C' or 'off'.  "Real" is decided with a
    relative tolerance scaled by |z.v|.
    """
    if delta.norm2 != -2:
        from .errors import NotARootError
        raise NotARootError("wall membership needs a root")
    zd = p.pair_v(delta)
    zv = p.pair_v(v)
    scale = float(np.linalg.norm(p.z))
    dvec = np.array(delta.coords, dtype=float)
    dnorm = float(np.linalg.norm(dvec))
    if abs(zd) <= tol * scale * max(dnorm, 1.0):
        return "on_D"
    if abs(zv) <= tol * scale:
        raise DegenerateAtVError("z.v = 0")
    w = -zd / zv
    vd = v.dot(delta)
    if abs(w.imag) <= tol * max(1.0, abs(w)):
        if -vd > 0 and w.real <= tol:
            return "on_A"
        if vd == 0:
            return "on_C"
    return "off"


# -- boxes and exact wall tests -------------------------------------------------

@dataclass(frozen=True)
class TubeBox:
    """Product box in chart coordinates: a in [a_lo, a_hi], b in [b_lo, b_hi].

    Endpoints are stored as exact rationals.  The b-corners must all lie in
    one component of the positive cone.
    """

    split: HyperbolicSplit
    a_lo: tuple[Fraction, ...]
    a_hi: tuple[Fraction, ...]
    b_lo: tuple[Fraction, ...]
    b_hi: tuple[Fraction, ...]

    @staticmethod
    def make(split: HyperbolicSplit, a_lo, a_hi, b_lo, b_hi) -> "TubeBox":
        box = TubeBox(split,
                      tuple(Fraction(x) for x in a_lo),
                      tuple(Fraction(x) for x in a_hi),
                      tuple(Fraction(x) for x in b_lo),
                      tuple(Fraction(x) for x in b_hi))
        rho = split.rho
        if (len(box.a_lo), len(box.a_hi), len(box.b_lo), len(box.b_hi)) != \
                (rho, rho, rho, rho):
            raise UnboundedBoxError("box dimension mismatch")
        if any(l > h for l, h in zip(box.a_lo, box.a_hi)) or \
                any(l > h for l, h in zip(box.b_lo, box.b_hi)):
            raise UnboundedBoxError("empty box")
        corners = [(c, _gvec(split.gram_L, c)) for c in box.b_corners()]
        for c, gc in corners:
            if _dot(c, gc) <= 0:
                raise UnboundedBoxError("box leaves the positive cone")
        for c, gc in corners[1:]:
            if _dot(corners[0][0], gc) <= 0:
                raise UnboundedBoxError("box spans both cone components")
        return box

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
        return min(_dot(c, _gvec(gl, c)) for c in self.b_corners())

    def split_along(self, axis: str, index: int) -> tuple["TubeBox", "TubeBox"]:
        """Bisect along one a- or b-coordinate (for refinement tests)."""
        if axis == "a":
            mid = (self.a_lo[index] + self.a_hi[index]) / 2
            hi = list(self.a_hi)
            lo = list(self.a_lo)
            hi[index] = mid
            lo[index] = mid
            return (TubeBox.make(self.split, self.a_lo, tuple(hi),
                                 self.b_lo, self.b_hi),
                    TubeBox.make(self.split, tuple(lo), self.a_hi,
                                 self.b_lo, self.b_hi))
        mid = (self.b_lo[index] + self.b_hi[index]) / 2
        hi = list(self.b_hi)
        lo = list(self.b_lo)
        hi[index] = mid
        lo[index] = mid
        return (TubeBox.make(self.split, self.a_lo, self.a_hi,
                             self.b_lo, tuple(hi)),
                TubeBox.make(self.split, self.a_lo, self.a_hi,
                             tuple(lo), self.b_hi))


def _gvec(gl, x):
    return [sum(g * t for g, t in zip(row, x)) for row in gl]


def _dot(x, y):
    return sum(s * t for s, t in zip(x, y))


def _int_box(box: TubeBox, lam, d: int) -> tuple:
    """Integer form (S, w_lo, w_hi, b_lo, b_hi) of a box for the root data.

    w = lam - d a (d >= 0) and b range over [w_lo, w_hi] / S and
    [b_lo, b_hi] / S, with S the common denominator of the endpoints.
    """
    s = math.lcm(*(x.denominator for x in
                   box.a_lo + box.a_hi + box.b_lo + box.b_hi))

    def scaled(xs):
        return [x.numerator * (s // x.denominator) for x in xs]

    a_lo, a_hi = scaled(box.a_lo), scaled(box.a_hi)
    return (s, [l * s - d * h for l, h in zip(lam, a_hi)],
            [l * s - d * x for l, x in zip(lam, a_lo)],
            scaled(box.b_lo), scaled(box.b_hi))


def _im_range_over_box(gl, ibox) -> tuple[int, int]:
    """Exact range of b^T G_L w over an integer box: S^2 Im(z.delta), divided
    by d when d > 0.

    For each b-corner the form is linear in w, so its range over the w-box
    is exact; the extrema over b are attained at corners.
    """
    _, w_lo, w_hi, b_lo, b_hi = ibox
    lo = hi = None
    for beta in itertools.product(*zip(b_lo, b_hi)):
        g = _gvec(gl, beta)
        mn = sum(min(x * l, x * h) for x, l, h in zip(g, w_lo, w_hi))
        mx = sum(max(x * l, x * h) for x, l, h in zip(g, w_lo, w_hi))
        lo = mn if lo is None else min(lo, mn)
        hi = mx if hi is None else max(hi, mx)
    return lo, hi


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


def _second_order(gl, h, k=None) -> tuple[int, int]:
    """Bounds of x^T G y over |x_i| <= h_i, |y_j| <= k_j (y = x if k is None)."""
    lo = hi = 0
    for i, row in enumerate(gl):
        for j, g in enumerate(row):
            t = g * h[i] * (h[j] if k is None else k[j])
            if k is None and i == j:
                lo, hi = lo + min(t, 0), hi + max(t, 0)
            else:
                lo, hi = lo - abs(t), hi + abs(t)
    return lo, hi


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
    gw, gb = _gvec(gl, cw), _gvec(gl, cb)
    f_c = dd * _dot(cb, gb) - _dot(cw, gw) - 4 * lim
    im_c = _dot(cb, gw)
    grad_f = [-2 * x for x in gw] + [2 * dd * x for x in gb]
    grad_im = gb + gw
    widths = hw + hb
    bw, bb = _second_order(gl, hw), _second_order(gl, hb)
    cross = _second_order(gl, hb, hw)[1]
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
    val = (d * d * wd * wd * _dot(bn, _gvec(gl, bn))
           - bd * bd * _dot(wn, _gvec(gl, wn)) - 2 * (s * wd * bd) ** 2)
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
        g = _gvec(gl, fixed[0])
        return _edge_zeros([c for c, _ in corners],
                           [_dot(c, g) for c, _ in corners])

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


def _wall_search(split: HyperbolicSplit, box: TubeBox, delta: LatVec,
                 kind: str):
    """(verdict, witness) of the exact A- or D-wall test.

    The verdict is True, False or None (undecided at WALL_TEST_DEPTH); a
    True verdict comes with a witness, a list of chart points (a, b) of
    Fractions: one point on the wall, or for D two points with the same a
    or the same b and Re(z.delta) negative, then positive, joined by a
    segment on Im = 0.
    """
    _, d, lam = split.root_data(delta)
    if kind == "A" and d <= 0:
        return False, None
    if d < 0:
        d, lam = -d, [-x for x in lam]
    gl = split.gram_L
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
    if split.v.dot(delta) != 0:
        return kind != "C" and _wall_search(split, box, delta, kind)[0]
    if kind == "A":
        return False
    # d = 0: z.delta = -c + a^T G_L lam + i b^T G_L lam, a and b apart
    c, _, lam = split.root_data(delta)
    lo, hi = _im_range_over_box(split.gram_L, _int_box(box, lam, 0))
    if kind == "C" or not lo <= 0 <= hi:
        return lo <= 0 <= hi
    g = _gvec(split.gram_L, lam)
    return (sum(min(x * l, x * h) for x, l, h in zip(g, box.a_lo, box.a_hi))
            <= c <=
            sum(max(x * l, x * h) for x, l, h in zip(g, box.a_lo, box.a_hi)))


# -- candidate roots ------------------------------------------------------------

def majorant_matrix(frame: FrameVec) -> np.ndarray:
    """Positive definite majorant Q+ = 2 G pi_P - G of the ambient form.

    For a root delta: Q+(delta) = 2 |delta_P|^2 + 2, so roots with small
    projection onto the frame plane are exactly the Q+-short ones.
    """
    g = gram_np(frame.lattice)
    b = np.stack([frame.re, frame.im], axis=1)
    pi = b @ np.linalg.solve(frame.plane_gram(), b.T @ g)
    q = 2.0 * (g @ pi) - g
    return 0.5 * (q + q.T)


def _short_roots(gram, q: np.ndarray, bound: float) -> np.ndarray:
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
    from ``short_vectors`` on the integer form Q(E) M_e.
    """
    s = math.lcm(*(x.denominator for p in points for x in p))
    e = [int(sum(col) * s) for col in zip(*points)]
    ge = _gvec(gl, e)
    qe = _dot(e, ge)
    y2_min = min(_dot(p, _gvec(gl, p)) for p in points)
    k = 2 * max(_dot(ge, p) ** 2 for p in points) / (qe * y2_min) - 1
    q = [[2 * x * y - qe * g for y, g in zip(ge, row)]
         for x, row in zip(ge, gl)]
    return e, qe, k, y2_min, _short_roots(gl, np.array(q, dtype=float),
                                          math.floor(2 * k * qe))


def _floor_add_sqrt(q: Fraction, x: Fraction) -> int:
    """floor(q + sqrt(x)) for rationals q and x >= 0, exactly."""
    m = q.denominator
    return (q.numerator + math.isqrt(math.floor(m * m * x))) // m


def _roots_near_box(split: HyperbolicSplit, box: TubeBox) -> list[LatVec]:
    """Every root whose A-, C- or D-wall can meet the box, lex order.

    Write delta = c v + d f + R lam with d >= 0 (up to sign) and, for
    d > 0, u = lam/d - a.  An A- or D-wall passes through (a, b) only if
    b^T G_L u = 0 and y^2 + N_b(u) <= 2/d^2 (y^2 = b^T G_L b >= y2_min);
    a C-wall (d = 0) only if b^T G_L lam = 0, where N_b(lam) = 2.  With
    e the b-centre of the box, ``_cone_roots`` bounds M_e by k N_b on
    b^T G_L u = 0, so every such root has

        M_e(lam - d a) <= k (2 - d^2 y2_min),   d^2 y2_min <= 2.

    At d = 0 these are its ``roots``.  At d >= 1, lam_i lies within
    r_i = sqrt(k (2 - d^2 y2_min) (M_e^-1)_ii) of d a_i, with M_e^-1 =
    2 e e^T / Q(e) - G_L^-1: one integer box per d, where
    c = (lam^T G_L lam + 2) / (2 d) must be an integer.  Every bound is
    an exact rational.
    """
    gl = split.gram_L
    e, qe, k, y2_min, l_roots = _cone_roots(gl, list(box.b_corners()))
    g_inv = ila.mat_inverse_rational(gl)
    m_inv = [Fraction(2 * x * x, qe) - g_inv[i][i] for i, x in enumerate(e)]
    roots = [split.root_from_data(0, 0, lam) for lam in l_roots.tolist()]
    d = 1
    while d * d * y2_min <= 2:
        r2 = [k * (2 - d * d * y2_min) * m for m in m_inv]
        axes = [np.arange(-_floor_add_sqrt(-d * lo, x),
                          _floor_add_sqrt(d * hi, x) + 1)
                for lo, hi, x in zip(box.a_lo, box.a_hi, r2)]
        lam, norms = _norms(gl, np.stack(np.meshgrid(*axes, indexing="ij"),
                                         axis=-1).reshape(-1, split.rho))
        keep = (norms + 2) % (2 * d) == 0
        roots += [split.root_from_data((n + 2) // (2 * d), d, row) for n, row
                  in zip(norms[keep].tolist(), lam[keep].tolist())]
        d += 1
    return sorted(roots, key=lambda w: w.coords)


def _orient_root(split: HyperbolicSplit, delta: LatVec) -> tuple[LatVec, int]:
    """Sign-normalize: return (root, d) with d = -v.root >= 0."""
    d = -split.v.dot(delta)
    if d < 0:
        return -delta, -d
    return delta, d


def enumerate_walls_region(split: HyperbolicSplit, box: TubeBox,
                           candidates: list[LatVec] | None = None
                           ) -> list[Wall]:
    """All walls meeting a compact chart box.

    The candidates default to ``_roots_near_box``, which holds every root
    whose wall can meet the box.

    Every candidate passes the exact three-valued test ``wall_meets_box``;
    walls it leaves undecided are listed too, with ``undecided`` set.
    C-walls are deduplicated by their image in L(v) and reported with the
    representative root having zero v- and f-components.
    """
    if candidates is None:
        candidates = _roots_near_box(split, box)
    walls: dict[tuple, Wall] = {}

    def test(kind, root):
        verdict = wall_meets_box(split, box, root, kind)
        if verdict is not False:
            walls[(kind, root.coords)] = Wall(kind, root, split.v,
                                              undecided=verdict is None)

    for delta in candidates:
        delta, d = _orient_root(split, delta)
        if d > 0:
            test("A", delta)
            test("D", delta)
        else:
            lam = _sign_canonical(split.root_data(delta)[2])
            rep = split.root_from_data(0, 0, lam)
            if ("C", rep.coords) not in walls:
                test("C", rep)
    return sorted(walls.values(), key=lambda w: w.sort_key())


def enumerate_walls_bruteforce(split: HyperbolicSplit, box: TubeBox,
                               coord_bound: int = 10) -> list[Wall]:
    """Oracle: scan all roots with |coords| <= coord_bound, same filters."""
    from .lattice import roots_in_box
    cands = [r.vec for r in roots_in_box(split.lattice, coord_bound)]
    return enumerate_walls_region(split, box, candidates=cands)


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

    def to_json(self) -> dict:
        return {"is_in": self.is_in,
                "min_abs_pairing": self.min_abs_pairing,
                "witness": list(self.witness.coords) if self.witness else None,
                "exclusion_radius": self.exclusion_radius,
                "candidates_checked": self.candidates_checked}


def in_P0(frame: FrameVec, margin: float = 2.0,
          tol: float = 1e-8) -> P0Certificate:
    """No root pairs to zero with z, with a quantitative certificate.

    Roots with z.delta = 0 lie in the plane's orthogonal complement and have
    majorant value exactly 2; the candidate list Q+ <= 2 + 2 margin^2 is
    therefore complete for them, and any non-candidate root keeps
    |z.delta| > exclusion_radius.
    """
    lat = frame.lattice
    roots = _short_roots(lat.gram_rows(), majorant_matrix(frame),
                         2.0 + 2.0 * margin ** 2)
    lam_min = float(np.linalg.eigvalsh(frame.plane_gram())[0])
    radius = margin * math.sqrt(max(lam_min, 0.0))
    vals = abs(frame.z @ gram_np(lat) @ roots.T.astype(float))
    best, witness = math.inf, None
    if len(vals):
        i = int(np.argmin(vals))
        best, witness = float(vals[i]), lat.vector(roots[i].tolist())
    is_in = best > tol * max(float(np.linalg.norm(frame.z)), 1.0)
    return P0Certificate(is_in, best, witness, radius, len(roots))


def region_gt2(pt: TubePoint) -> bool:
    """Strictly y^2 > 2 (inside the region where no A-wall can pass)."""
    return pt.y_norm2() > 2.0


def on_A_wall(pt: TubePoint, tol: float = 1e-9) -> LatVec | None:
    """Return a root whose A-wall contains the point, if any does.

    The candidates are those of the zero-width box at the point's chart
    coordinates, taken as the exact rationals of their floats.
    """
    frame = exp_frame(pt)
    a, b = pt.chart()
    g = gram_np(pt.split.lattice)
    for w in _roots_near_box(pt.split, TubeBox.make(pt.split, a, a, b, b)):
        w, d = _orient_root(pt.split, w)
        if d <= 0:
            continue
        zd = complex(frame.z @ g @ np.array(w.coords, dtype=float))
        if abs(zd.imag) <= tol and zd.real <= tol:
            return w
    return None


def in_L_region(pt: TubePoint, y_amp, tol: float = 1e-9) -> bool:
    """Distinguished-chamber membership.

    True iff y lies in the chamber of the witness y_amp (no L(v)-root wall
    separates them) and no A-wall passes through the point.  y_amp is
    given in chart coordinates.
    """
    sp = pt.split
    gl = sp.gram_L_np()
    y_amp = np.asarray(y_amp, dtype=float)
    amp2 = float(y_amp @ gl @ y_amp)
    if amp2 <= 0:
        raise AmpNotInPositiveConeError("y_amp^2 <= 0")
    _, b = pt.chart()
    if float(b @ gl @ y_amp) <= 0:
        return False  # opposite cone component
    # chamber agreement along the segment [y_amp, b], exact rationals of
    # its float ends
    ends = [tuple(map(Fraction, p)) for p in (y_amp, b)]
    for l in _cone_roots(sp.gram_L, ends)[-1].astype(float):
        s_amp = float(y_amp @ gl @ l)
        s_b = float(b @ gl @ l)
        if abs(s_b) <= tol or s_amp * s_b < 0:
            return False
    return on_A_wall(pt, tol=tol) is None
