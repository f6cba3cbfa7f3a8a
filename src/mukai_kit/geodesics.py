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
type IV tube.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (
    DegenerateAtVError,
    DegeneratePlaneError,
    EmptyBoxError,
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
    gram_np,
    log_tube,
    proj_distance,
    tube_point,
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

    def validate(self, tol: float = 1e-10):
        g = gram_np(self.lattice)
        x = self.matrix
        resid = np.max(np.abs(x.T @ g + g @ x))
        scale = max(1.0, float(np.max(np.abs(x))))
        if resid > tol * scale:
            raise NotInLieAlgebraError(f"X^T G + G X residual {resid:.2e}")
        return self


_SO_BASIS_CACHE: dict[tuple, tuple] = {}


def so_basis(lat: IntegerLattice) -> tuple[LieElem, ...]:
    """Basis u w^T G - w u^T G over coordinate pairs u = e_i, w = e_j."""
    cached = _SO_BASIS_CACHE.get(lat.gram)
    if cached is not None:
        return cached
    g = gram_np(lat)
    n = lat.rank
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            x = np.zeros((n, n))
            x[i, :] += g[j, :]
            x[j, :] -= g[i, :]
            x.setflags(write=False)
            out.append(LieElem(lat, x))
    _SO_BASIS_CACHE[lat.gram] = tuple(out)
    return _SO_BASIS_CACHE[lat.gram]


def killing_form(x: LieElem, y: LieElem) -> float:
    """B(X, Y) = rho Tr(X Y) with rho = rank - 2."""
    x.validate()
    y.validate()
    rho = x.lattice.rank - 2
    return float(rho * np.trace(x.matrix @ y.matrix))


@dataclass(frozen=True)
class PlaneFrame:
    """Positive definite 2-plane given by two spanning vectors."""

    lattice: IntegerLattice
    p1: np.ndarray
    p2: np.ndarray

    @staticmethod
    def from_frame(frame: FrameVec) -> "PlaneFrame":
        return PlaneFrame(frame.lattice, frame.re.copy(), frame.im.copy())

    def basis(self) -> np.ndarray:
        return np.stack([self.p1, self.p2], axis=1)

    def projector(self) -> np.ndarray:
        """G-orthogonal projector onto the plane."""
        g = gram_np(self.lattice)
        b = self.basis()
        m = b.T @ g @ b
        if np.linalg.det(m) <= 0 or np.trace(m) <= 0:
            raise DegeneratePlaneError("plane is not positive definite")
        return b @ np.linalg.solve(m, b.T @ g)


def cartan_project(x: LieElem, plane: PlaneFrame
                   ) -> tuple[LieElem, LieElem]:
    """X = k + m with k preserving P and P^perp, m swapping them.

    Uses the G-orthogonal involution s = 2 pi_P - 1: k and m are the +1/-1
    conjugation eigenparts, and the split is B-orthogonal.
    """
    x.validate()
    s = 2.0 * plane.projector() - np.eye(x.lattice.rank)
    sxs = s @ x.matrix @ s
    k = LieElem(x.lattice, 0.5 * (x.matrix + sxs))
    m = LieElem(x.lattice, 0.5 * (x.matrix - sxs))
    return k, m


def m_basis(lat: IntegerLattice, plane: PlaneFrame,
            tol: float = 1e-9) -> list[LieElem]:
    """B-orthonormal basis of m_P (dimension 2 rho)."""
    s = 2.0 * plane.projector() - np.eye(lat.rank)
    rho = lat.rank - 2
    basis: list[np.ndarray] = []
    for x in so_basis(lat):
        m = 0.5 * (x.matrix - s @ x.matrix @ s)
        if np.max(np.abs(m)) <= tol:
            continue
        w = m.copy()
        for b in basis:
            w -= rho * np.trace(w @ b) * b
        nrm2 = rho * np.trace(w @ w)
        if nrm2 > tol:
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
    g = gram_np(lat)
    v0 = pt.split.v_np()
    x1 = -pt.x
    a = np.outer(v0, g @ x1) - np.outer(x1, g @ v0)
    return LieElem(lat, a)


def one_param(a: LieElem, lam: float) -> np.ndarray:
    """exp(lambda A): exact sinh/cosh block form when A^3 = A, Pade otherwise."""
    a.validate()
    m = a.matrix
    if np.max(np.abs(m @ m @ m - m)) < 1e-9 * max(1.0, float(np.max(np.abs(m)))):
        return (np.eye(a.lattice.rank)
                + math.sinh(lam) * m
                + (math.cosh(lam) - 1.0) * (m @ m))
    return expm(lam * m)


def geodesic_point(pt: TubePoint, t: float) -> PeriodPoint:
    """exp_v(x + i e^t y): the constant-speed geodesic through the point."""
    scaled = TubePoint(pt.split, pt.x, math.exp(t) * pt.y)
    return exp_point(scaled)


# ---------------------------------------------------------------------------
# chart metric and speed
# ---------------------------------------------------------------------------

def _tube_hessian(gl: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hessian of -log Q at b: -2 G_L/Q + 4 u u^T/Q^2, u = G_L b, Q = b.u."""
    u = gl @ b
    q = float(b @ u)
    return -2.0 * gl / q + 4.0 * np.outer(u, u) / (q * q)


def _tube_hessian_grad(gl: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dh[k, i, j] = d h_ij / d b_k, fully symmetric in (k, i, j)."""
    u = gl @ b
    q = float(b @ u)
    gu = gl * u[:, None, None]  # gu[k, i, j] = G_ij u_k
    sym = gu + gu.transpose(1, 0, 2) + gu.transpose(2, 1, 0)
    uuu = np.multiply.outer(np.outer(u, u), u)
    return 4.0 * sym / q**2 - 16.0 * uuu / q**3


def chart_metric(split: HyperbolicSplit, pt: TubePoint) -> np.ndarray:
    """Killing metric in the chart coordinates (a, b) at the given point.

    The tube is the type IV domain with Kahler potential -log(b^T G_L b);
    the Killing metric is rho (h + h) on (a, b), h the potential's Hessian.
    """
    _, b = pt.chart()
    return split.rho * np.kron(np.eye(2), _tube_hessian(split.gram_L_np(), b))


def speed(pt: TubePoint, t: float) -> float:
    """Killing norm of the velocity of s -> exp_v(x + i e^s y) at s = t.

    In the chart the path is s -> (a0, e^s b0), with velocity (0, e^t b0).
    """
    sp = pt.split
    a0, b0 = pt.chart()
    b = math.exp(t) * b0
    vel = np.concatenate([np.zeros(sp.rho), b])
    g = chart_metric(sp, tube_point(sp, a0, b))
    return math.sqrt(float(vel @ g @ vel))


# ---------------------------------------------------------------------------
# independent geodesic oracle (chart ODE with analytic Christoffels)
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    ts: np.ndarray
    chart: np.ndarray       # samples x (2 rho)
    energy_drift: float

    def points(self, split: HyperbolicSplit) -> list[PeriodPoint]:
        rho = split.rho
        return [exp_point(tube_point(split, row[:rho], row[rho:]))
                for row in self.chart]


def geodesic_oracle(pt: TubePoint, t_max: float, steps: int,
                    drift_tol: float = 1e-4) -> OracleResult:
    """Integrate the geodesic ODE in the chart, independent of one_param.

    Explicit midpoint steps on q'' = -Gamma(q)(q', q') with Christoffel
    symbols from the exact derivative of the closed-form chart metric.  The
    initial velocity is that of s -> x + i e^s y at s = 0, i.e. (0, y).  Energy
    g(q')(q', q') is monitored; drift beyond ``drift_tol`` raises.  The
    midpoint map keeps these geodesics on their ray and conserves the energy
    exactly, so the local error estimate h |a2 - a1| / |q'| of each step is
    held to ``drift_tol`` as well.
    """
    if steps < 100:
        raise ValueError("steps must be >= 100")
    sp = pt.split
    rho = sp.rho
    a0, b0 = pt.chart()
    q = np.concatenate([a0, b0])
    qdot = np.concatenate([np.zeros(rho), b0])
    gl = sp.gram_L_np()
    gl_inv = np.linalg.inv(gl)

    def norm2(hb: np.ndarray, w: np.ndarray) -> float:
        x = w.reshape(2, rho)  # rows: a- and b-part
        return rho * float(np.sum((x @ hb) * x))

    def accel(qv: np.ndarray, vv: np.ndarray) -> np.ndarray:
        # g = rho (h + h) depends on b alone; with T(x, y) = dh(x, ., y)
        # the geodesic equation reads
        #   a'' = -h^{-1} T(b', a'),  b'' = -h^{-1} (T(b', b') - T(a', a')) / 2
        b = qv[rho:]
        x = vv.reshape(2, rho)
        t = np.einsum("kij,pk,qj->pqi", _tube_hessian_grad(gl, b), x, x)
        f = np.stack([2.0 * t[1, 0], t[1, 1] - t[0, 0]])
        # Sherman-Morrison on h = -2 G_L/Q + 4 u u^T/Q^2
        h_inv = np.outer(b, b) - 0.5 * float(b @ gl @ b) * gl_inv
        return -0.5 * (f @ h_inv).ravel()

    h = t_max / steps if steps else 0.0
    ts = [0.0]
    samples = [q.copy()]
    e0 = norm2(_tube_hessian(gl, b0), qdot)
    max_drift = 0.0
    for k in range(steps):
        if h == 0.0:
            break
        a1 = accel(q, qdot)
        qm = q + 0.5 * h * qdot
        vm = qdot + 0.5 * h * a1
        a2 = accel(qm, vm)
        q = q + h * vm
        qdot = qdot + h * a2
        ts.append((k + 1) * h)
        samples.append(q.copy())
        hb = _tube_hessian(gl, q[rho:])
        e = norm2(hb, qdot)
        max_drift = max(max_drift, abs(e - e0) / e0)
        if max_drift > drift_tol:
            raise StepTooLargeError(
                f"energy drift {max_drift:.2e} after step {k + 1}")
        local = h * math.sqrt(norm2(hb, a2 - a1) / e)
        if local > drift_tol:
            raise StepTooLargeError(
                f"local error {local:.2e} at step {k + 1}")
    return OracleResult(np.array(ts), np.stack(samples), max_drift)


def oracle_deviation(pt: TubePoint, result: OracleResult) -> float:
    """Max projective distance between oracle samples and geodesic_point."""
    worst = 0.0
    for t, row in zip(result.ts, result.chart):
        rho = pt.split.rho
        p_oracle = exp_point(tube_point(pt.split, row[:rho], row[rho:]))
        p_formula = geodesic_point(pt, float(t))
        worst = max(worst, proj_distance(p_oracle, p_formula))
    return worst


# ---------------------------------------------------------------------------
# linear degenerations and Looijenga neighborhoods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSpec:
    """Path in the tube model of v.

    kind 'linear_degeneration': t -> exp_v(x0 + i t y0) in chart coordinates;
    kind 'piecewise_tube': explicit (t, a, b) samples.
    """

    kind: str
    split: HyperbolicSplit
    a0: tuple[float, ...] = ()
    b0: tuple[float, ...] = ()
    samples: tuple = ()

    def at(self, t: float) -> TubePoint:
        if self.kind == "linear_degeneration":
            return tube_point(self.split, np.array(self.a0),
                              t * np.array(self.b0))
        ts = [s[0] for s in self.samples]
        if not ts:
            raise ValueError("empty piecewise path")
        idx = int(np.searchsorted(ts, t))
        idx = min(max(idx, 0), len(ts) - 1)
        _, a, b = self.samples[idx]
        return tube_point(self.split, np.array(a), np.array(b))


def linear_degeneration(split: HyperbolicSplit, x0, y0) -> PathSpec:
    p = tube_point(split, x0, y0)  # validates the tube data
    del p
    return PathSpec("linear_degeneration", split,
                    tuple(float(x) for x in x0),
                    tuple(float(x) for x in y0))


def looijenga_member(p: PeriodPoint, split: HyperbolicSplit, box: TubeBox,
                     gamma_v_gens=None, word_depth: int = 2,
                     cone_grid: int = 5) -> bool:
    """Membership in U(K, v): translation semigroup times the box.

    The x-part of the semigroup is all of L(v)_R, so membership reduces to
    the cone condition: some k in the y-box with y - k in the positive cone
    component of the box.  Optionally closes over supplied isometries fixing
    v (breadth-first, bounded word length); without closure the test is
    sufficient, not necessary.
    """
    if any(l > h for l, h in zip(box.b_lo, box.b_hi)):
        raise EmptyBoxError("empty neighborhood box")
    sp = split
    gl = sp.gram_L_np()
    ref = np.array([0.5 * float(l + h)
                    for l, h in zip(box.b_lo, box.b_hi)])

    def cone_test(bvec: np.ndarray) -> bool:
        axes = [np.linspace(float(l), float(h), cone_grid)
                for l, h in zip(box.b_lo, box.b_hi)]
        for kpt in itertools.product(*axes):
            w = bvec - np.array(kpt)
            if float(w @ gl @ w) > 0 and float(w @ gl @ ref) > 0:
                return True
        # k on the boundary of the box counts (closure of the semigroup orbit)
        return False

    candidates = [p]
    if gamma_v_gens:
        seen = set()
        frontier = [p]
        for _ in range(word_depth):
            nxt = []
            for q in frontier:
                for g in gamma_v_gens:
                    if g.apply(sp.v) != sp.v:
                        raise ValueError("generator does not fix v")
                    m = np.array([list(r) for r in g.matrix], dtype=float)
                    img = PeriodPoint(q.lattice, m @ q.z)
                    key = tuple(np.round(img.z / np.max(np.abs(img.z)), 9))
                    if key not in seen:
                        seen.add(key)
                        nxt.append(img)
            candidates.extend(nxt)
            frontier = nxt
    for q in candidates:
        try:
            pt = log_tube(q, sp)
        except DegenerateAtVError:
            continue
        _, b = pt.chart()
        if cone_test(np.asarray(b)):
            return True
    return False
