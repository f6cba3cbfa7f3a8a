"""Killing metric, Cartan decomposition, and geodesics of the period domain.

The isometry Lie algebra so(N_R) = {X : X^T G + G X = 0} splits at a
positive 2-plane P into k_P (preserving P and its complement) and m_P
(swapping them); the Killing form B(X, Y) = (rank - 2) Tr(XY) is positive
definite on m_P and induces the invariant metric.

For a tube point x + iy over v0 the hyperbolic plane spanned by (v0, -x)
yields a one-parameter subgroup acting as x + iy -> x + i e^lambda y; these
orbits are the linear degenerations into the cusp [v0], and they are
geodesics.  An independent verification oracle integrates the geodesic ODE
in chart coordinates (a, b), where the Killing metric has the closed form
rho (h + h), h the Hessian of the Kahler potential -log(b^T G_L b) of the
type IV tube; with u = G_L b and Q = b.u its Christoffel contraction is
h^{-1} dh(x, ., y) = (2/Q)((x^T G_L y) b - (u.x) y - (u.y) x).  At rho = 1
the tube is the upper half-plane and the oracle steps z'' = -i w^2 / Im z.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from . import intlinalg as ila
from .errors import (
    DegenerateAtVError,
    NonFiniteError,
    NotHyperbolicError,
    NotInLieAlgebraError,
    StepTooLargeError,
)
from .domain import (
    FrameVec,
    HyperbolicSplit,
    PeriodPoint,
    TubeBox,
    TubePoint,
    exp_point,
    log_tube,
    proj_distance,
    tube_point,
    _chart_rationals,
)
from .lattice import IntegerLattice


# ---------------------------------------------------------------------------
# Lie algebra elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieElem:
    """Element of so(N_R): X^T G + G X = 0."""

    lattice: IntegerLattice
    matrix: np.ndarray

    def validate(self):
        g = self.lattice.gram_np
        x = self.matrix
        resid = np.max(np.abs(x.T @ g + g @ x))
        scale = max(1.0, float(np.max(np.abs(x))))
        if resid > 1e-10 * scale:
            raise NotInLieAlgebraError(f"X^T G + G X residual {resid:.2e}")
        return self


def so_basis(lat: IntegerLattice) -> tuple[LieElem, ...]:
    """Basis u w^T G - w u^T G over coordinate pairs u = e_i, w = e_j."""
    g = lat.gram_np
    n = lat.rank
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            x = np.zeros((n, n))
            x[i, :] += g[j, :]
            x[j, :] -= g[i, :]
            out.append(LieElem(lat, x))
    return tuple(out)


def killing_form(x: LieElem, y: LieElem) -> float:
    """B(X, Y) = rho Tr(X Y) with rho = rank - 2."""
    x.validate()
    y.validate()
    rho = x.lattice.rank - 2
    return float(rho * np.trace(x.matrix @ y.matrix))


def cartan_project(x: LieElem, frame: FrameVec
                   ) -> tuple[LieElem, LieElem]:
    """X = k + m with k preserving the frame's plane P and P^perp, m
    swapping them.

    Uses the G-orthogonal involution s = 2 pi_P - 1: k and m are the +1/-1
    conjugation eigenparts, and the split is B-orthogonal.
    """
    x.validate()
    s = 2.0 * frame.projector() - np.eye(x.lattice.rank)
    sxs = s @ x.matrix @ s
    k = LieElem(x.lattice, 0.5 * (x.matrix + sxs))
    m = LieElem(x.lattice, 0.5 * (x.matrix - sxs))
    return k, m


def m_basis(lat: IntegerLattice, frame: FrameVec) -> list[LieElem]:
    """B-orthonormal basis of m_P (dimension 2 rho), P the frame's plane."""
    s = 2.0 * frame.projector() - np.eye(lat.rank)
    rho = lat.rank - 2
    basis: list[np.ndarray] = []
    for x in so_basis(lat):
        m = 0.5 * (x.matrix - s @ x.matrix @ s)
        if np.max(np.abs(m)) <= 1e-9:
            continue
        w = m.copy()
        for b in basis:
            w -= rho * np.trace(w @ b) * b
        nrm2 = rho * np.trace(w @ w)
        if nrm2 > 1e-9:
            basis.append(w / math.sqrt(nrm2))
        if len(basis) == 2 * rho:
            break
    return [LieElem(lat, b) for b in basis]


# ---------------------------------------------------------------------------
# the cusp-direction generator and its one-parameter subgroup
# ---------------------------------------------------------------------------

def a_generator(pt: TubePoint) -> LieElem:
    """Generator acting as +1 on v0, -1 on x1 = -x, 0 on their complement.

    Exponentials scale y: exp(lambda A) exp_v(x + iy) = exp_v(x + i e^lambda y).
    """
    lat = pt.split.lattice
    g = lat.gram_np
    v0 = pt.split.v_np()
    x1 = -pt.x
    a = np.outer(v0, g @ x1) - np.outer(x1, g @ v0)
    return LieElem(lat, a)


def one_param(a: LieElem, lam: float) -> np.ndarray:
    """exp(lambda A) = I + sinh(lambda) A + (cosh(lambda) - 1) A^2.

    The closed form holds for the hyperbolic generators A^3 = A that
    ``a_generator`` builds; any other element raises NotHyperbolicError.
    """
    a.validate()
    m = a.matrix
    m2 = m @ m
    scale = max(1.0, float(np.max(np.abs(m))))
    if not np.max(np.abs(m2 @ m - m)) < 1e-9 * scale:
        raise NotHyperbolicError("one_param needs A^3 = A")
    return (np.eye(a.lattice.rank)
            + math.sinh(lam) * m
            + (math.cosh(lam) - 1.0) * m2)


def geodesic_point(pt: TubePoint, t: float | np.ndarray) -> PeriodPoint:
    """exp_v(x + i e^t y): the constant-speed geodesic through the point."""
    y = np.multiply.outer(np.exp(t), pt.y)
    return exp_point(TubePoint(pt.split, np.broadcast_to(pt.x, y.shape), y))


# ---------------------------------------------------------------------------
# chart metric and speed
# ---------------------------------------------------------------------------

def _tube_hessian(gl: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hessian of -log Q at b: -2 G_L/Q + 4 u u^T/Q^2, u = G_L b, Q = b.u.

    Rows of an (N, rho) array b give N Hessians.
    """
    u = b @ gl
    q = b[..., None, :] @ u[..., :, None]
    return -2.0 * gl / q + 4.0 * (u[..., :, None] * u[..., None, :]) / (q * q)


def chart_metric(split: HyperbolicSplit, pt: TubePoint) -> np.ndarray:
    """Killing metric in the chart coordinates (a, b) at the given point.

    The tube is the type IV domain with Kahler potential -log(b^T G_L b);
    the Killing metric is rho (h + h) on (a, b), h the potential's Hessian.
    A batch of N points gives N metrics, shape (N, 2 rho, 2 rho).
    """
    _, b = pt.chart()
    return split.rho * np.kron(np.eye(2), _tube_hessian(split.gram_L_np(), b))


def speed(pt: TubePoint, t: float | np.ndarray):
    """Killing norm of the velocity of s -> exp_v(x + i e^s y) at s = t.

    In the chart the path is s -> (a0, e^s b0), with velocity (0, e^t b0).
    An array of times gives one speed each, from one metric evaluation.
    """
    sp = pt.split
    a0, b0 = pt.chart()
    b = np.multiply.outer(np.exp(t), b0)
    vel = np.concatenate([np.zeros_like(b), b], axis=-1)
    g = chart_metric(sp, tube_point(sp, a0, b))
    return np.sqrt(vel[..., None, :] @ g @ vel[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# independent geodesic oracle (chart ODE with analytic Christoffels)
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    ts: np.ndarray
    chart: np.ndarray       # samples x (2 rho)
    energy_drift: float


def _accel(gl: list, b: list, w: list, norms=None) -> list:
    """z'' at b for w = z' = a' + i b', on plain floats and complex numbers,
    from sigma and mu over Q as in geodesic_oracle, then (h + h)(x, x) at b
    for each x in norms, (w,) by default."""
    u = [sum(map(mul, r, b)) for r in gl]
    gw = [sum(map(mul, r, w)) for r in gl]
    q = sum(map(mul, u, b))
    sigma = sum(map(mul, u, w)) / q
    mu = sum(map(mul, gw, w)) / q
    c, d = 1j * mu, -2j * sigma
    out = [[c * bi + d * wi for bi, wi in zip(b, w)]]
    for x in (w,) if norms is None else norms:
        gx, sx = ((gw, sigma) if x is w else
                  ([sum(map(mul, r, x)) for r in gl], sum(map(mul, u, x)) / q))
        xgx = sum(map(mul, gx, map(complex.conjugate, x))).real
        out.append(4.0 * (sx * sx.conjugate()).real - 2.0 * xgx / q)
    return out


def _half_plane_steps(z: complex, h: float):
    """Midpoint steps at rho = 1 in s = w / Im z, finite where Q overflows:
    yields z and (h + h) of w and of a2 - a1, 2 |s|^2 and 2 |ds|^2."""
    w = a1 = complex(0.0, z.imag)  # z'' = -i w^2 / Im z = w at the start
    s, ds = 1j, 0.0
    while True:
        yield z, 2.0 * abs(s) ** 2, 2.0 * abs(ds) ** 2
        vm = w + 0.5 * h * a1
        a2 = -1j * vm * (vm / (z + 0.5 * h * w).imag)
        z, w = z + h * vm, w + h * a2
        s, ds = w / z.imag, (a2 - a1) / z.imag
        a1 = -1j * w * s


def _chart_steps(gl: list, z: list, h: float):
    """Midpoint steps at rho >= 2 on lists, yielding as _half_plane_steps."""
    w = [complex(0.0, x.imag) for x in z]
    (a1, e), e_da = _accel(gl, [x.imag for x in z], w), 0.0
    while True:
        yield z, e, e_da
        vm = [v + 0.5 * h * a for v, a in zip(w, a1)]
        a2, = _accel(gl, [x.imag + 0.5 * h * v.imag for x, v in zip(z, w)],
                     vm, ())
        z = [x + h * v for x, v in zip(z, vm)]
        w = [v + h * a for v, a in zip(w, a2)]
        a1, e, e_da = _accel(gl, [x.imag for x in z], w,
                             (w, [y - x for x, y in zip(a1, a2)]))


def geodesic_oracle(pt: TubePoint, t_max: float, steps: int) -> OracleResult:
    """Integrate the geodesic ODE in the chart, independent of one_param.

    Explicit midpoint steps on q'' = -Gamma(q)(q', q') for g = rho (h + h):
    a'' = -h^{-1} T(b', a'), b'' = -h^{-1} (T(b', b') - T(a', a')) / 2 with
    T(x, y) = dh(x, ., y).  Put u = G_L b, Q = b.u, s_x = u.x, m_xy =
    x^T G_L y.  h^{-1} = b b^T - (Q/2) G_L^{-1} maps G_L y to s_y b - (Q/2) y
    and u to (Q/2) b, so dh = 4 sym(G_L (x) u)/Q^2 - 16 u (x) u (x) u/Q^3
    gives h^{-1} T(x, y) = (2/Q)(m_xy b - s_x y - s_y x).  In z = a + i b
    with w = z', sigma = u.w and mu = w^T G_L w (complex bilinear) the two
    equations are the real and imaginary parts of one:
        z'' = w' = (i/Q)(mu b - 2 sigma w),
        g(q')(q', q') = rho (4 |sigma|^2/Q^2 - 2 Re(conj(w)^T G_L w)/Q).
    At rho = 1 (G_L = [g]) it is the half-plane equation z'' = -i w^2 / Im z,
    energy 2 |w|^2 / (Im z)^2: g and rho cancel, so a step works on one
    complex scalar.  At rho >= 2 a step takes two accelerations: midpoint, end.

    The initial velocity is that of s -> x + i e^s y at s = 0, i.e. (0, y).
    Relative energy drift beyond 1e-4 raises.  The midpoint map keeps these
    geodesics on their ray and conserves the energy exactly, so the local
    error estimate h |a2 - a1| / |q'| of each step is held to 1e-4 as
    well (rho cancels in both); a non-finite drift or estimate raises.
    """
    if steps < 100:
        raise ValueError("steps must be >= 100")
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    a0, b0 = pt.chart()
    z = list(map(complex, a0.tolist(), b0.tolist()))
    h = t_max / steps
    walk = (_half_plane_steps(z[0], h) if pt.split.rho == 1 else
            _chart_steps(pt.split.gram_L_np().tolist(), z, h))
    z, e0, _ = next(walk)
    samples, max_drift = [z], 0.0
    for k in range(steps):
        if h == 0.0:
            break
        z, e, e_da = next(walk)
        samples.append(z)
        max_drift = max(abs(e - e0) / e0, max_drift)  # keeps a NaN drift
        if not (max_drift <= 1e-4):
            raise StepTooLargeError(
                f"energy drift {max_drift:.2e} after step {k + 1}")
        local = h * math.sqrt(e_da / e)
        if not (local <= 1e-4):
            raise StepTooLargeError(
                f"local error {local:.2e} at step {k + 1}")
    chart = np.array(samples).reshape(len(samples), -1)
    return OracleResult(h * np.arange(len(samples)),
                        np.concatenate([chart.real, chart.imag], axis=1),
                        max_drift)


@np.errstate(over="ignore", invalid="ignore")
def oracle_deviation(pt: TubePoint, result: OracleResult) -> float:
    """Max projective distance between oracle samples and geodesic_point."""
    oracle = exp_point(tube_point(pt.split, *np.split(result.chart, 2, 1)))
    dev = float(np.max(proj_distance(oracle, geodesic_point(pt, result.ts))))
    if not math.isfinite(dev):
        raise NonFiniteError(f"oracle deviation {dev}: a point overflowed")
    return dev


# ---------------------------------------------------------------------------
# linear degenerations and Looijenga neighborhoods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSpec:
    """The linear degeneration t -> exp_v(x0 + i t y0) in the tube model of
    v, in chart coordinates a0 = x0, b0 = y0."""

    split: HyperbolicSplit
    a0: tuple[float, ...]
    b0: tuple[float, ...]

    def at(self, t: float | np.ndarray) -> TubePoint:
        """The tube point at time t; an array of times gives a batch."""
        return tube_point(self.split, self.a0, np.multiply.outer(t, self.b0))


def linear_degeneration(split: HyperbolicSplit, x0, y0) -> PathSpec:
    tube_point(split, x0, y0)  # checks y0^2 > 0
    return PathSpec(split, tuple(float(x) for x in x0),
                    tuple(float(x) for x in y0))


def looijenga_member(p: PeriodPoint, split: HyperbolicSplit,
                     box: TubeBox) -> bool | None:
    """Membership in U(K, v), the translation semigroup times the box closed
    under the isometries h fixing v: True, False, or None when undecided.

    The x-part of the semigroup is all of L(v)_R, so for h = 1 membership
    is the cone condition: some k in the y-box K (its boundary included:
    the closure of the semigroup orbit) with y - k in the positive cone
    component of the box centre ``ref``.  The h act on y through O+(L(v)),
    which is trivial at rho = 1, so there the cone test is the answer.  At
    rho >= 2 a failed cone test is False when y lies in the other cone
    component (y.ref < 0), which O+(L(v)) keeps, or when Q(y) < min_K Q:
    h.y = k + c with c in the closed cone gives Q(y) = Q(h.y) >= Q(k), and
    the minimum sits at a corner of K as sqrt(Q) is concave on the cone.
    Otherwise it is None.

    Exact on the chart rationals of y: W = y - K meets that component iff
    Q has a positive maximum on W with w.ref >= 0, where w.ref > 0 as
    ref-perp is negative definite.  That is the critical point G_JJ w_J =
    -G_JI w_I of Q on a face of W (J its free coordinates) where G_JJ is
    invertible; on a singular face Q is constant along a kernel line.
    """
    try:
        pt = log_tube(p, split)
    except DegenerateAtVError:
        return False
    gl = split.gram_L
    y = _chart_rationals(pt, "looijenga_member")[1]
    ref = ila.mat_vec(gl, [l + h for l, h in zip(box.b_lo, box.b_hi)])
    sides = [(c - h, c - l) for c, l, h in zip(y, box.b_lo, box.b_hi)]
    for face in itertools.product((0, 1, None), repeat=split.rho):
        free = [i for i, f in enumerate(face) if f is None]
        w = [0 if f is None else s[f] for f, s in zip(face, sides)]
        g_jj = [[gl[i][j] for j in free] for i in free]
        det = ila.det_bareiss(g_jj)
        if det == 0:
            continue
        w_j = ila.mat_vec(ila.adjugate(g_jj),
                          [-x for x in ila.mat_vec([gl[i] for i in free], w)])
        for i, x in zip(free, w_j):
            w[i] = Fraction(x, det)
        if (all(lo <= x <= hi for x, (lo, hi) in zip(w, sides))
                and ila.dot(w, ila.mat_vec(gl, w)) > 0
                and ila.dot(w, ref) > 0):
            return True
    if (split.rho == 1 or ila.dot(y, ref) < 0
            or ila.dot(y, ila.mat_vec(gl, y)) < box.min_y_norm2()):
        return False
    return None
