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
    _sign_canonical,
)
from .shortvec import short_vectors

PAIR_TOL = 1e-9

_GRAM_CACHE: dict[tuple, np.ndarray] = {}


def gram_np(lat: IntegerLattice) -> np.ndarray:
    g = _GRAM_CACHE.get(lat.gram)
    if g is None:
        g = np.array(lat.gram_rows(), dtype=float)
        g.setflags(write=False)
        _GRAM_CACHE[lat.gram] = g
    return g


def pairing(lat: IntegerLattice, u, w):
    """Bilinear pairing of coordinate vectors (real or complex, no bar)."""
    return np.asarray(u) @ gram_np(lat) @ np.asarray(w)


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

    def root_data(self, delta: LatVec) -> tuple[int, int, tuple[int, ...]]:
        """(c, d, lam) with delta = c v + d f + R lam, all integers."""
        d = -self.v.dot(delta)
        c = -self.f.dot(delta)
        rest = [delta.coords[i] - c * self.v.coords[i] - d * self.f.coords[i]
                for i in range(self.lattice.rank)]
        cols = [list(col) for col in self.comp]
        bmat = [[cols[j][i] for j in range(len(cols))]
                for i in range(self.lattice.rank)]
        from .lattice import _solve_integer_columns
        lam = _solve_integer_columns(bmat, rest)
        return c, d, tuple(lam)

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
    """Canonical representative (x, y) of a tube-domain point."""

    split: HyperbolicSplit
    x: np.ndarray
    y: np.ndarray

    @property
    def v(self) -> LatVec:
        return self.split.v

    def y_norm2(self) -> float:
        return float(pairing(self.split.lattice, self.y, self.y))

    def validate(self, tol: float = 1e-9):
        lat = self.split.lattice
        vv = self.split.v_np()
        if abs(pairing(lat, self.x, self.x)) > tol:
            raise ValueError("x^2 != 0")
        if abs(pairing(lat, self.x, vv) + 1.0) > tol:
            raise ValueError("x.v != -1")
        if abs(pairing(lat, self.y, vv)) > tol:
            raise ValueError("y.v != 0")
        if abs(pairing(lat, self.y, self.x)) > tol:
            raise ValueError("y.x != 0")
        if self.y_norm2() <= 0:
            raise NotPositiveError("y^2 <= 0")
        return self

    def chart(self) -> tuple[np.ndarray, np.ndarray]:
        """Chart coordinates (a, b) in the complement basis."""
        sp = self.split
        g = gram_np(sp.lattice)
        gl_inv = sp._gram_L_inv
        r = sp.comp_np()
        a = gl_inv @ (r.T @ g @ self.x)
        b = gl_inv @ (r.T @ g @ self.y)
        return a, b


def tube_point(split: HyperbolicSplit, a, b, validate: bool = True) -> TubePoint:
    """Tube point with chart coordinates (a, b); b must be in the cone."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    x_raw = split.f_np() + split.comp_np() @ a
    y_raw = split.comp_np() @ b
    return tube_from_lifts(split, x_raw, y_raw, validate=validate)


def tube_from_lifts(split: HyperbolicSplit, x_raw, y_raw,
                    validate: bool = True) -> TubePoint:
    """Canonicalize arbitrary lifts: x.(v) = -1 assumed, y.v = 0 assumed."""
    lat = split.lattice
    vv = split.v_np()
    x_raw = np.asarray(x_raw, dtype=float)
    y_raw = np.asarray(y_raw, dtype=float)
    x = x_raw + 0.5 * float(pairing(lat, x_raw, x_raw)) * vv
    y = y_raw + float(pairing(lat, y_raw, x)) * vv
    pt = TubePoint(split, x, y)
    if validate:
        pt.validate()
    return pt


# ---------------------------------------------------------------------------
# frames and period points
# ---------------------------------------------------------------------------

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
        g = gram_np(self.lattice)
        b = np.stack([self.re, self.im], axis=1)
        return b.T @ g @ b

    def validate(self):
        m = self.plane_gram()
        if not (np.linalg.det(m) > 0 and np.trace(m) > 0):
            raise NotPositiveError("span(Re z, Im z) is not a positive plane")
        return self

    def pair_v(self, v: LatVec) -> complex:
        return complex(pairing(self.lattice, self.z,
                                np.array(v.coords, dtype=float)))


@dataclass(frozen=True)
class PeriodPoint:
    """Projective class [z] with z^2 = 0, z.zbar > 0 (stored representative).

    When a reference v with z.v != 0 is supplied the representative is
    scale-normalized to z.v = -1.
    """

    lattice: IntegerLattice
    z: np.ndarray  # complex, z^2 = 0

    def validate(self, tol: float = 1e-8):
        scale = float(np.linalg.norm(self.z)) ** 2
        if abs(complex(pairing(self.lattice, self.z, self.z))) > tol * scale:
            raise ValueError("z^2 != 0")
        if not complex(pairing(self.lattice, self.z,
                               np.conj(self.z))).real > 0:
            raise ValueError("z.zbar <= 0")
        return self

    def pair_v(self, v: LatVec) -> complex:
        return complex(pairing(self.lattice, self.z,
                                np.array(v.coords, dtype=float)))


def proj_distance(p: PeriodPoint, q: PeriodPoint) -> float:
    """Projective (Fubini-Study sine) distance between complex lines.

    Computed as the norm of the component of q orthogonal to p, which is
    stable for nearly-equal lines (no 1 - cos^2 cancellation).
    """
    a, b = p.z, q.z
    na = np.vdot(a, a).real
    nb = np.vdot(b, b).real
    resid = b - (np.vdot(a, b) / na) * a
    return float(np.sqrt(np.vdot(resid, resid).real / nb))


def exp_frame(pt: TubePoint) -> FrameVec:
    """Exp_v: the unique frame z = x + iy - (y^2/2) v with z.v = -1, z^2 = 0."""
    y2 = pt.y_norm2()
    if y2 <= 0:
        raise NotPositiveError("y^2 <= 0")
    z = pt.x - 0.5 * y2 * pt.split.v_np() + 1j * pt.y
    return FrameVec(pt.split.lattice, z)


def theta(frame: FrameVec, vref: LatVec | None = None) -> PeriodPoint:
    """Projection P(N) -> D(N): the isotropic line of the oriented plane.

    Gram-Schmidt conformalizes the frame; frames in one GL2+ orbit map to
    the same projective class.
    """
    lat = frame.lattice
    g = gram_np(lat)
    u = frame.re
    w = frame.im
    uu = float(u @ g @ u)
    if uu <= 0:
        raise NotPositiveError("frame plane is not positive")
    e1 = u / math.sqrt(uu)
    w1 = w - float(w @ g @ e1) * e1
    ww = float(w1 @ g @ w1)
    if ww <= 0:
        raise NotPositiveError("frame plane is not positive")
    e2 = w1 / math.sqrt(ww)
    p = PeriodPoint(lat, e1 + 1j * e2)
    if vref is not None:
        return PeriodPoint(lat, q_section(p, vref).z)
    return p


def exp_point(pt: TubePoint) -> PeriodPoint:
    """exp_v = theta after Exp_v; an isomorphism onto its image."""
    z = exp_frame(pt).z
    return PeriodPoint(pt.split.lattice, z)


def q_section(p: PeriodPoint, v: LatVec) -> FrameVec:
    """Section of theta: the representative with z.v = -1, z^2 = 0."""
    zv = p.pair_v(v)
    if abs(zv) < PAIR_TOL * float(np.linalg.norm(p.z)):
        raise DegenerateAtVError("z.v = 0: point at infinity relative to v")
    return FrameVec(p.lattice, -p.z / zv)


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
    the first column of T read as a complex number gives the phase.
    """
    t = np.asarray(t, dtype=float)
    if np.linalg.det(t) <= 0:
        raise NonPositiveDetError("det T <= 0")
    re = t[0, 0] * frame.re + t[0, 1] * frame.im
    im = t[1, 0] * frame.re + t[1, 1] * frame.im
    return FrameVec(frame.lattice, re + 1j * im)


def gl2_factor(frame: FrameVec, split: HyperbolicSplit
               ) -> tuple[TubePoint, np.ndarray]:
    """Write z = gl2_act(Exp_v(pt), T); T is unique for z.v != 0."""
    p = theta(frame)
    zv = p.pair_v(split.v)
    if abs(zv) < PAIR_TOL * float(np.linalg.norm(p.z)):
        raise DegenerateAtVError("z.v = 0")
    pt = log_tube(p, split)
    w = exp_frame(pt)
    m = w.plane_gram()
    g = gram_np(frame.lattice)
    basis = np.stack([w.re, w.im], axis=1)
    rhs_re = basis.T @ g @ frame.re
    rhs_im = basis.T @ g @ frame.im
    c_re = np.linalg.solve(m, rhs_re)
    c_im = np.linalg.solve(m, rhs_im)
    t = np.array([[c_re[0], c_re[1]], [c_im[0], c_im[1]]])
    return pt, t


# ---------------------------------------------------------------------------
# isometries acting on the domain
# ---------------------------------------------------------------------------

def apply_isometry_frame(g: Isometry, frame: FrameVec) -> FrameVec:
    m = np.array([list(r) for r in g.matrix], dtype=float)
    return FrameVec(frame.lattice, m @ frame.z)


def apply_isometry_point(g: Isometry, p: PeriodPoint) -> PeriodPoint:
    m = np.array([list(r) for r in g.matrix], dtype=float)
    return PeriodPoint(p.lattice, m @ p.z)


def apply_isometry_tube(g: Isometry, pt: TubePoint) -> TubePoint:
    """g . (x + iy) in the tube model of w = g.v (lifts stay canonical)."""
    m = np.array([list(r) for r in g.matrix], dtype=float)
    w = g.apply(pt.split.v)
    sp = split_at(w)
    return TubePoint(sp, m @ pt.x, m @ pt.y)


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
    on the image of the root in L(v)); kind 'D': z.delta = 0.
    """

    kind: str
    root: LatVec
    v: LatVec

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
        gl = [[Fraction(x) for x in row] for row in split.gram_L]
        corners = list(box.b_corners())
        for c in corners:
            if _qform(gl, c) <= 0:
                raise UnboundedBoxError("box leaves the positive cone")
        c0 = corners[0]
        for c in corners[1:]:
            if _bilin(gl, c0, c) <= 0:
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
        gl = [[Fraction(x) for x in row] for row in self.split.gram_L]
        return min(_qform(gl, c) for c in self.b_corners())

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


def _qform(gl, x):
    return sum(gl[i][j] * x[i] * x[j]
               for i in range(len(x)) for j in range(len(x)))


def _bilin(gl, x, y):
    return sum(gl[i][j] * x[i] * y[j]
               for i in range(len(x)) for j in range(len(x)))


def _im_range_over_box(gl, lam, d, box: TubeBox) -> tuple[Fraction, Fraction]:
    """Exact range of Im(z.delta) = b^T G_L (lam - d a) over the box.

    The function is multilinear in (a, b) jointly, so the extrema are
    attained at corners.
    """
    lam = [Fraction(x) for x in lam]
    vals = []
    for ac in box.a_corners():
        u = [lam[i] - d * ac[i] for i in range(len(lam))]
        for bc in box.b_corners():
            vals.append(_bilin(gl, bc, u))
    return min(vals), max(vals)


def wall_meets_box(split: HyperbolicSplit, box: TubeBox, delta: LatVec,
                   kind: str, grid: int = 12) -> bool:
    """Does the wall of the given kind and root meet the box?

    Exact rational decision for kind 'C' (any rank) and for all kinds when
    L(v) has rank one; a dense-grid check otherwise (documented numeric).
    """
    gl = [[Fraction(x) for x in row] for row in split.gram_L]
    c, d, lam = split.root_data(delta)
    rho = split.rho
    if kind == "C":
        if d != 0:
            return False
        lo, hi = _im_range_over_box(gl, lam, 0, box)
        return lo <= 0 <= hi
    if kind == "A" and d <= 0:
        return False
    if rho == 1:
        m = gl[0][0]
        lam0 = Fraction(lam[0])
        if kind in ("A", "D") and d != 0:
            # wall foot at a = lam/d; reachable b: m b^2 <= 2/d^2 (A),
            # = 2/d^2 (D)
            if not (box.a_lo[0] <= lam0 / d <= box.a_hi[0]):
                return False
            b0, b1 = box.b_lo[0], box.b_hi[0]
            lo_sq = min(b0 * b0, b1 * b1)
            hi_sq = max(b0 * b0, b1 * b1)
            target = Fraction(2, d * d)
            if kind == "A":
                return m * lo_sq <= target
            return m * lo_sq <= target <= m * hi_sq
        if kind == "D" and d == 0:
            return False  # no rank-one roots orthogonal to v
        return False
    # numeric path for rank >= 2
    return _wall_meets_box_numeric(split, box, c, d, lam, kind, grid)


def _wall_meets_box_numeric(split, box, c, d, lam, kind, grid):
    """Dense-grid semi-decision for L-rank >= 2 (vectorized).

    Im(z.delta) is affine in the last b-coordinate for fixed remaining
    coordinates; zeros are located by sign change along that axis and the
    Re-condition is evaluated at the interpolated zero (Re is quadratic in
    that coordinate, evaluated exactly from its three profile values).
    """
    gl = split.gram_L_np()
    lam = np.array([float(x) for x in lam])
    rho = split.rho
    # cheap exact pre-reject: Im is multilinear, extrema at box corners
    corner_vals = []
    for ac in box.a_corners():
        av = np.array([float(x) for x in ac])
        u = gl @ (lam - d * av)
        for bc in box.b_corners():
            corner_vals.append(float(np.array([float(x) for x in bc]) @ u))
    if min(corner_vals) > 0 or max(corner_vals) < 0:
        return False
    axes = [np.linspace(float(lo), float(hi), grid)
            for lo, hi in zip(box.a_lo, box.a_hi)] + \
           [np.linspace(float(lo), float(hi), grid)
            for lo, hi in zip(box.b_lo, box.b_hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    a = pts[:, :rho]
    b = pts[:, rho:]
    glam = gl @ lam
    im = np.einsum("pi,i->p", b, glam) - d * np.einsum("pi,ij,pj->p",
                                                       b, gl, a)
    re = (-c + a @ glam
          - 0.5 * d * (np.einsum("pi,ij,pj->p", a, gl, a)
                       - np.einsum("pi,ij,pj->p", b, gl, b)))
    tol = 1e-9
    scale = max(1.0, float(np.max(np.abs(im))), float(np.max(np.abs(re))))
    on_zero = np.abs(im) <= tol * scale
    if kind == "C" and bool(np.any(on_zero)):
        return True
    if kind == "A" and bool(np.any(on_zero & (re <= tol * scale))):
        return True
    if kind == "D" and bool(np.any(on_zero & (np.abs(re) <= 1e-6 * scale))):
        return True
    # sign changes along the last b-axis
    shape = (grid,) * (2 * rho)
    im_g = im.reshape(shape)
    re_g = re.reshape(shape)
    i0, i1 = im_g[..., :-1], im_g[..., 1:]
    cross = (i0 * i1) < 0
    if not bool(np.any(cross)):
        return False
    if kind == "C":
        return True
    # interpolate the zero and evaluate Re there; Re is quadratic in the
    # last coordinate, reconstructed from the two cell endpoints and the
    # quadratic coefficient q2 = d/2 gl[-1,-1] (constant in that variable)
    step = axes[-1][1] - axes[-1][0] if grid > 1 else 1.0
    denom = i0 - i1
    s = np.divide(i0, denom, out=np.zeros_like(i0), where=cross)
    q2 = 0.5 * d * gl[-1, -1] * step * step
    r0, r1 = re_g[..., :-1], re_g[..., 1:]
    lin = (r1 - r0) - q2
    re_at = r0 + lin * s + q2 * s * s
    if kind == "A":
        return bool(np.any(cross & (re_at <= tol * scale)))
    return bool(np.any(cross & (np.abs(re_at) <= 1e-6 * scale)))


# -- candidate roots ------------------------------------------------------------

def majorant_matrix(frame: FrameVec) -> np.ndarray:
    """Positive definite majorant Q+ = 2 G pi_P - G of the ambient form.

    For a root delta: Q+(delta) = 2 |delta_P|^2 + 2, so roots with small
    projection onto the frame plane are exactly the Q+-short ones.
    """
    lat = frame.lattice
    g = gram_np(lat)
    b = np.stack([frame.re, frame.im], axis=1)
    m = b.T @ g @ b
    pi = b @ np.linalg.solve(m, b.T @ g)
    q = 2.0 * (g @ pi) - g
    return 0.5 * (q + q.T)


def _roots_near_box(split: HyperbolicSplit, box: TubeBox,
                    safety: float = 4.0) -> list[LatVec]:
    """Majorant-bounded candidate roots for walls meeting the box.

    On an A-wall through a box point, |delta_P|^2 <= 1 / y^2; plane drift
    across the box is absorbed by the safety factor.  Candidates are then
    subjected to exact membership filters, so inflating the bound only
    costs time.
    """
    lat = split.lattice
    y2_min = float(box.min_y_norm2())
    bound = 2.0 + 2.0 * safety * max(1.0, 1.0 / y2_min)
    sample_pts = [box.center()] + list(box.corners())
    cands: set[tuple[int, ...]] = set()
    for a, b in sample_pts:
        frame = exp_frame(tube_point(split,
                                     [float(x) for x in a],
                                     [float(x) for x in b]))
        q = majorant_matrix(frame)
        for vec in short_vectors(q, bound):
            cands.add(vec)
    out = []
    for coords in sorted(cands):
        w = lat.vector(coords)
        if w.norm2 == -2:
            out.append(w)
    return out


def _orient_root(split: HyperbolicSplit, delta: LatVec) -> tuple[LatVec, int]:
    """Sign-normalize: return (root, d) with d = -v.root >= 0."""
    d = -split.v.dot(delta)
    if d < 0:
        return -delta, -d
    return delta, d


def enumerate_walls_region(split: HyperbolicSplit, box: TubeBox,
                           safety: float = 4.0,
                           candidates: list[LatVec] | None = None
                           ) -> list[Wall]:
    """All walls meeting a compact chart box, via majorant enumeration.

    Every candidate passes the exact (rank-one L) or dense-grid interval
    test; C-walls are deduplicated by their image in L(v) and reported with
    the representative root having zero v- and f-components.
    """
    lat = split.lattice
    if candidates is None:
        candidates = _roots_near_box(split, box, safety=safety)
    walls: dict[tuple, Wall] = {}
    gl = [[Fraction(x) for x in row] for row in split.gram_L]
    for delta in candidates:
        delta, d = _orient_root(split, delta)
        c, d2, lam = split.root_data(delta)
        if d2 > 0:
            if wall_meets_box(split, box, delta, "A"):
                walls[("A", delta.coords)] = Wall("A", delta, split.v)
            if wall_meets_box(split, box, delta, "D"):
                walls[("D", delta.coords)] = Wall("D", delta, split.v)
        elif d2 == 0:
            lam_c = _sign_canonical(lam)
            rep = split.root_from_data(0, 0, lam_c)
            if ("C", rep.coords) not in walls and \
                    wall_meets_box(split, box, rep, "C"):
                walls[("C", rep.coords)] = Wall("C", rep, split.v)
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
    q = majorant_matrix(frame)
    cands = [lat.vector(c) for c in short_vectors(q, 2.0 + 2.0 * margin ** 2)]
    cands = [w for w in cands if w.norm2 == -2]
    g = gram_np(lat)
    m = frame.plane_gram()
    lam_min = float(np.linalg.eigvalsh(m)[0])
    radius = margin * math.sqrt(max(lam_min, 0.0))
    best = math.inf
    witness = None
    for w in cands:
        val = abs(complex((frame.z @ g @ np.array(w.coords, dtype=float))))
        if val < best:
            best = val
            witness = w
    scale = float(np.linalg.norm(frame.z))
    is_in = best > tol * max(scale, 1.0)
    return P0Certificate(is_in, best if cands else math.inf, witness,
                         radius, len(cands))


def region_gt2(pt: TubePoint) -> bool:
    """Strictly y^2 > 2 (inside the region where no A-wall can pass)."""
    return pt.y_norm2() > 2.0


def on_A_wall(pt: TubePoint, safety: float = 4.0,
              tol: float = 1e-9) -> LatVec | None:
    """Return a root whose A-wall contains the point, if any candidate does."""
    frame = exp_frame(pt)
    lat = pt.split.lattice
    y2 = pt.y_norm2()
    q = majorant_matrix(frame)
    bound = 2.0 + 2.0 * safety * max(1.0, 1.0 / y2)
    g = gram_np(lat)
    for coords in short_vectors(q, bound):
        w = lat.vector(coords)
        if w.norm2 != -2:
            continue
        w, d = _orient_root(pt.split, w)
        if d <= 0:
            continue
        zd = complex(frame.z @ g @ np.array(w.coords, dtype=float))
        if abs(zd.imag) <= tol and zd.real <= tol:
            return w
    return None


def in_L_region(pt: TubePoint, y_amp, safety: float = 4.0,
                tol: float = 1e-9) -> bool:
    """Distinguished-chamber membership.

    True iff y lies in the chamber of the witness y_amp (no L(v)-root wall
    separates them over the candidate set) and no A-wall passes through the
    point.  y_amp is given in chart coordinates.
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
    # chamber agreement along the segment [y_amp, b]
    for l in _l_root_candidates(sp, [y_amp, b, 0.5 * (y_amp + b)]):
        s_amp = float(y_amp @ gl @ l)
        s_b = float(b @ gl @ l)
        if abs(s_b) <= tol or s_amp * s_b < 0:
            return False
    return on_A_wall(pt, safety=safety, tol=tol) is None


def _l_root_candidates(split: HyperbolicSplit, cone_points,
                       margin: float = 2.0) -> list[np.ndarray]:
    """Roots of L(v) whose walls could meet the given cone points."""
    gl = split.gram_L_np()
    rho = split.rho
    if rho == 1:
        return []  # positive definite rank-one L has no -2 vectors
    out: set[tuple[int, ...]] = set()
    for w in cone_points:
        w = np.asarray(w, dtype=float)
        w2 = float(w @ gl @ w)
        if w2 <= 0:
            continue
        pi = np.outer(w, w @ gl) / w2
        q = 2.0 * (gl @ pi) - gl
        q = 0.5 * (q + q.T)
        for coords in short_vectors(q, 2.0 + 2.0 * margin ** 2):
            vec = np.array(coords, dtype=float)
            if abs(float(vec @ gl @ vec) + 2.0) < 1e-9:
                out.add(coords)
    return [np.array(c, dtype=float) for c in sorted(out)]
