"""Central charges, lifted GL2+ bookkeeping, path factorization, thresholds.

Charges pair Mukai vectors against a complex vector z; the geometric family
is Exp(beta + i omega) = (1, beta + i omega, (beta + i omega)^2 / 2).  The
universal cover of GL2+(R) is represented as (T, phi0): a positive 2x2
matrix together with a lift of the phase of its first column, read as the
complex number T[0,0] + i T[1,0].  Phases phi satisfy Z = r exp(i pi phi)
with r > 0 and phi in [0, 2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InconsistentLiftError,
    MukaiKitError,
    NoSolutionInBoundError,
    NonPositiveDetError,
    NonPositiveOmegaError,
    NonPositiveRankError,
    NonPositiveSlopeError,
    NotARootError,
    SamplingTooCoarseError,
    ZeroChargeError,
)
from .domain import (
    FrameVec,
    HyperbolicSplit,
    PeriodPoint,
    TubePoint,
    exp_frame,
    gl2_act,
    gl2_factor,
    gram_np,
    pairing,
)
from .lattice import (
    IntegerLattice,
    Isometry,
    LatVec,
    line_twist_isometry,
    minus_identity,
    ns_block,
    ns_pair,
    reflection,
    roots_in_box,
    _int_dtype,
    _sign_canonical,
)


# ---------------------------------------------------------------------------
# charges and phases
# ---------------------------------------------------------------------------

def exp_class(lat: IntegerLattice, beta, omega) -> FrameVec:
    """Exp(beta + i omega) = (1, beta + i omega, (beta + i omega)^2 / 2)."""
    if not lat.mukai:
        raise ValueError("exp_class needs an (r, NS, s)-form lattice")
    k = lat.ns_rank
    beta = np.asarray(beta, dtype=float)
    omega = np.asarray(omega, dtype=float)
    ns = np.array(ns_block(lat), dtype=float)
    om2 = float(omega @ ns @ omega)
    if om2 <= 0:
        raise NonPositiveOmegaError("omega^2 <= 0")
    bc = beta + 1j * omega
    half_sq = 0.5 * complex(bc @ ns @ bc)
    z = np.concatenate([[1.0 + 0j], bc, [half_sq]])
    return FrameVec(lat, z)


def central_charge(z: FrameVec | PeriodPoint, v: LatVec) -> complex:
    """Z(v) = v.z, complex-bilinear in both arguments."""
    return complex(pairing(v.lattice, np.array(v.coords, dtype=float), z.z))


def phase(zval: complex) -> float:
    """The unique phi in [0, 2) with Z = r exp(i pi phi), r > 0."""
    if zval == 0:
        raise ZeroChargeError("phase of 0 undefined")
    phi = cmath.phase(zval) / math.pi  # (-1, 1]
    return phi if phi >= 0 else phi + 2.0


def heart_phase(zval: complex) -> float:
    """Derived view with values in (0, 1]: phases of objects of a heart."""
    phi = phase(zval)
    return phi if 0 < phi <= 1 else phi - 1.0 if phi > 1 else 1.0


def mu_slope(v: LatVec, h) -> Fraction:
    """Numeric slope mu_h(v) = h.c1 / r of a Mukai vector (plumbing)."""
    hc = ns_pair(v.lattice, [int(x) for x in h], v.ns_part)
    if v.r == 0:
        raise NonPositiveRankError("slope needs r != 0")
    return Fraction(hc, v.r)


# ---------------------------------------------------------------------------
# the universal cover of GL2+
# ---------------------------------------------------------------------------

def _col_phase(t: np.ndarray) -> float:
    """Phase in (-1, 1] of the first column of T as a complex number."""
    return math.atan2(t[1, 0], t[0, 0]) / math.pi


@dataclass(frozen=True)
class LiftedGL2:
    """(T, phi0): T in GL2+(R) plus a lift of the phase of its first column.

    exp(i pi phi0) must be a positive multiple of T[0,0] + i T[1,0]; the
    even integer spacing of valid lifts realizes the deck group of the
    universal cover.
    """

    t: tuple[tuple[float, float], tuple[float, float]]
    phi0: float

    @staticmethod
    def make(t, phi0: float) -> "LiftedGL2":
        t = np.asarray(t, dtype=float)
        if np.linalg.det(t) <= 0:
            raise NonPositiveDetError("det T <= 0")
        raw = _col_phase(t)
        k = (phi0 - raw) / 2.0
        if abs(k - round(k)) > 1e-9:
            raise InconsistentLiftError(
                f"phi0 = {phi0} is not a lift of the column phase {raw}")
        return LiftedGL2(tuple(map(tuple, t.tolist())), float(phi0))

    def t_np(self) -> np.ndarray:
        return np.array(self.t, dtype=float)

    @property
    def winding(self) -> int:
        """Number of even half-turns carried by the lift."""
        return round((self.phi0 - _col_phase(self.t_np())) / 2.0)

    def phase_map(self, phi: float, steps: int = 16) -> float:
        """The lifted circle map f with f(0) = phi0, f(phi + 1) = f(phi) + 1.

        T induces an orientation-preserving degree-one circle map; the lift
        is continued stepwise from 0 to phi.
        """
        t = self.t_np()

        def raw(p: float) -> float:
            vec = t @ np.array([math.cos(math.pi * p), math.sin(math.pi * p)])
            return math.atan2(vec[1], vec[0]) / math.pi

        cur = self.phi0
        n = max(1, int(abs(phi) * 2 * steps))
        for i in range(1, n + 1):
            r = raw(phi * i / n)
            # choose the lift of r nearest to the running value
            cur = r + 2.0 * round((cur - r) / 2.0)
        return cur

    def compose(self, other: "LiftedGL2") -> "LiftedGL2":
        """Element acting as self followed by other (right action order)."""
        t = other.t_np() @ self.t_np()
        phi = other.phase_map(self.phi0)
        return LiftedGL2.make(t, phi)


def sigma_shift(lam: float) -> LiftedGL2:
    """Sigma_lambda = (exp(i pi lambda), phi -> phi + lambda)."""
    c, s = math.cos(math.pi * lam), math.sin(math.pi * lam)
    return LiftedGL2.make([[c, -s], [s, c]], lam)


def lifted_identity() -> LiftedGL2:
    return sigma_shift(0.0)


# ---------------------------------------------------------------------------
# path factorization
# ---------------------------------------------------------------------------

@dataclass
class FactorizationResult:
    ts: list[float]
    tube_path: TubePoint          # the batch of all samples' tube points
    lifts: list[LiftedGL2]
    max_residual: float


def factor_path(samples: list[tuple[float, np.ndarray]],
                split: HyperbolicSplit,
                branch_offset: int = 0) -> FactorizationResult:
    """Factor z(t) = Exp_v(pt(t)) . g(t) with a continuous lift g(t).

    ``samples`` are (t, z) pairs with z.v != 0; consecutive factors must
    differ by less than half a turn or the winding is ambiguous.  The output
    is unique up to one global even shift, selected by ``branch_offset``
    (lift of the initial phase in (-1, 1] plus 2 * branch_offset).

    All samples are factored as one batch; an error is the one that the
    lowest failing sample meets first.
    """
    lat = split.lattice
    zs = np.array([z for _, z in samples], dtype=complex).reshape(
        len(samples), lat.rank)
    try:
        tube, tmats = gl2_factor(FrameVec(lat, zs), split)
        recon = gl2_act(exp_frame(tube), tmats).z
    except (MukaiKitError, ValueError) as exc:
        # an earlier sample may fail a later stage, or the phase check
        if getattr(exc, "row", 0):
            factor_path(samples[:exc.row], split, branch_offset)
        raise
    resid = float(np.max(np.max(abs(recon - zs), axis=-1)
                         / np.maximum(1.0, np.max(abs(zs), axis=-1)),
                         initial=0.0))
    ts = [float(t) for t, _ in samples]
    lifts: list[LiftedGL2] = []
    prev_phi = _col_phase(tmats[0]) if len(tmats) else 0.0
    for t, tmat in zip(ts, tmats):
        r = _col_phase(tmat)
        # decided without the offset, whose rounding could tip a half turn
        k = round((prev_phi - r) / 2.0)
        phi = r + 2.0 * k
        if abs(phi - prev_phi) >= 0.5:
            raise SamplingTooCoarseError(
                f"winding jump {abs(phi - prev_phi):.3f} at t = {t}")
        prev_phi = phi
        lifts.append(LiftedGL2.make(tmat, r + 2.0 * (k + branch_offset)))
    return FactorizationResult(ts, tube, lifts, resid)


# ---------------------------------------------------------------------------
# wall-crossing events along paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WallEvent:
    t: float
    kind: str
    root: LatVec
    side_change: tuple[int, int]
    t_interval: tuple[float, float] = (0.0, 0.0)

    def to_json(self) -> dict:
        return {"t": self.t, "kind": self.kind,
                "root_coords": list(self.root.coords),
                "side_change": list(self.side_change),
                "t_interval": list(self.t_interval)}


def wall_crossings(frame_at, t0: float, t1: float,
                   split: HyperbolicSplit,
                   candidates: list[LatVec],
                   samples: int = 400,
                   tol_t: float = 1e-9) -> list[WallEvent]:
    """Bracket and bisect wall events of z(t) against candidate roots.

    ``frame_at(t)`` returns the FrameVec of the path at time t (with
    z.v != 0 throughout).  A-events are sign changes of Im z.delta with
    Re z.delta <= 0 at the crossing (roots pairing negatively with v);
    C-events are sign changes of Im z.delta for roots orthogonal to v;
    D-events additionally have |z.delta| = 0 at the crossing.
    """
    events: list[WallEvent] = []
    grid = np.linspace(t0, t1, samples + 1)
    seen_a: set[tuple] = set()
    seen_c: set[tuple] = set()
    worklist: list[tuple[LatVec, int]] = []
    for delta in candidates:
        d = -split.v.dot(delta)
        if d < 0:
            delta = -delta
            d = -d
        if d > 0:
            if delta.coords in seen_a:
                continue
            seen_a.add(delta.coords)
            worklist.append((delta, d))
        else:
            # one wall per image in L(v); canonical sign, zero v-component
            lam = _sign_canonical(split.root_data(delta)[2])
            if lam in seen_c:
                continue
            seen_c.add(lam)
            worklist.append((split.root_from_data(0, 0, lam), 0))
    if not worklist:
        return events
    # z.delta on the grid: the grid frames once, all candidates in one product
    g = gram_np(split.lattice)
    roots = np.array([delta.coords for delta, _ in worklist], dtype=float)
    grid_vals = np.array([frame_at(t).z for t in grid]) @ g @ roots.T
    for dv, col, (delta, d) in zip(roots, grid_vals.T, worklist):
        def f(t: float, dv=dv) -> complex:
            return complex(frame_at(t).z @ g @ dv)

        vals = col.tolist()
        scale = max(1e-12, max(abs(v) for v in vals))
        zero_tol = 1e-12 * scale

        def emit(tstar: float, fstar: complex, side, interval):
            if d > 0:
                if fstar.real <= 1e-9 * scale:
                    kind = "D" if abs(fstar.real) <= 1e-7 * scale else "A"
                    events.append(WallEvent(tstar, kind, delta, side,
                                            interval))
            else:
                kind = "D" if abs(fstar.real) <= 1e-7 * scale else "C"
                events.append(WallEvent(tstar, kind, delta, side, interval))

        for i in range(samples + 1):
            if abs(vals[i].imag) <= zero_tol:
                before = vals[i - 1].imag if i > 0 else -vals[min(i + 1, samples)].imag
                after = vals[i + 1].imag if i < samples else -before
                emit(float(grid[i]), vals[i],
                     (int(math.copysign(1, before)),
                      int(math.copysign(1, after))),
                     (float(grid[i]), float(grid[i])))
        for i in range(samples):
            a, b = vals[i], vals[i + 1]
            if abs(a.imag) <= zero_tol or abs(b.imag) <= zero_tol:
                continue
            if a.imag * b.imag >= 0:
                continue
            lo, hi = grid[i], grid[i + 1]
            flo = a
            while hi - lo > tol_t:
                mid = 0.5 * (lo + hi)
                fm = f(mid)
                if flo.imag * fm.imag <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            tstar = 0.5 * (lo + hi)
            emit(tstar, f(tstar),
                 (int(math.copysign(1, a.imag)),
                  int(math.copysign(1, b.imag))),
                 (float(lo), float(hi)))
    events.sort(key=lambda e: (e.t, e.kind, e.root.coords))
    return events


# ---------------------------------------------------------------------------
# large-volume threshold (exact rational)
# ---------------------------------------------------------------------------

def charge_on_ray(lat: IntegerLattice, v: LatVec, h, n: Fraction
                  ) -> tuple[Fraction, Fraction]:
    """(Re, Im) of the charge of v at Exp(0 + i n h), exact in n.

    Re = n^2 h^2 r / 2 - s, Im = n (h.c1).
    """
    h = [int(x) for x in h]
    h2 = ns_pair(lat, h, h)
    hc = ns_pair(lat, h, list(v.ns_part))
    n = Fraction(n)
    return (Fraction(n * n * h2 * v.r, 2) - v.s, n * hc)


@dataclass
class ThresholdCertificate:
    candidate: LatVec
    branch: str                  # "quadratic" | "equal_slope" | "higher_slope"
    n_min: int                   # minimal n >= 1 satisfying the inequality
    bound: Fraction | None       # the quadratic bound n^2 > bound, if any

    def to_json(self) -> dict:
        return {"candidate": list(self.candidate.coords),
                "branch": self.branch, "n_min": self.n_min,
                "bound": str(self.bound) if self.bound is not None else None}


def large_volume_threshold(vE: LatVec, candidates: list[LatVec], h
                           ) -> tuple[int, list[ThresholdCertificate]]:
    """Minimal n0 with the phase inequality for all n >= n0, exactly.

    For a destabilizing candidate A with slope below that of E, the
    inequality Re Z_n(E) / Im Z_n(E) > -(nu(E) - nu(A)) / (n (mu(E) - mu(A)))
    reduces (n > 0, Im Z_n(E) > 0) to the quadratic condition

        n^2 > (2 s_E + 2 (h.c_E) RHS) / (h^2 r_E),
        RHS = -(nu_E - nu_A) / (mu_E - mu_A),

    solved over exact rationals.  Candidates of equal slope sit on the
    negative real axis and impose no constraint; higher slopes make the
    difference leave the upper half-plane, likewise no constraint.
    """
    lat = vE.lattice
    if vE.r <= 0:
        raise NonPositiveRankError("r(E) must be > 0")
    h = [int(x) for x in h]
    h2 = ns_pair(lat, h, h)
    hcE = ns_pair(lat, h, list(vE.ns_part))
    muE = Fraction(hcE, vE.r)
    if muE <= 0:
        raise NonPositiveSlopeError("mu(E) must be > 0")
    nuE = Fraction(vE.s, vE.r)
    n0 = 1
    certs: list[ThresholdCertificate] = []
    for vA in candidates:
        if vA.r <= 0:
            raise NonPositiveRankError("candidates need r > 0")
        muA = Fraction(ns_pair(lat, h, list(vA.ns_part)), vA.r)
        nuA = Fraction(vA.s, vA.r)
        if muA == muE:
            certs.append(ThresholdCertificate(vA, "equal_slope", 1, None))
            continue
        if muA > muE:
            certs.append(ThresholdCertificate(vA, "higher_slope", 1, None))
            continue
        rhs = -(nuE - nuA) / (muE - muA)
        bound = (2 * vE.s + 2 * hcE * rhs) / Fraction(h2 * vE.r)
        n_min = 1
        if bound >= 1:
            n_min = _int_sqrt_floor(bound) + 1
        certs.append(ThresholdCertificate(vA, "quadratic", n_min, bound))
        n0 = max(n0, n_min)
    return n0, certs


def _int_sqrt_floor(x: Fraction) -> int:
    """Largest integer k with k^2 <= x (x >= 0 rational)."""
    k = math.isqrt(x.numerator // x.denominator)
    while Fraction((k + 1) * (k + 1)) <= x:
        k += 1
    while Fraction(k * k) > x:
        k -= 1
    return k


def threshold_inequality_holds(vE: LatVec, vA: LatVec, h, n: int) -> bool:
    """Direct evaluation of the phase inequality at integer n (oracle)."""
    lat = vE.lattice
    reE, imE = charge_on_ray(lat, vE, h, n)
    muE = mu_slope(vE, h)
    muA = mu_slope(vA, h)
    nuE = Fraction(vE.s, vE.r)
    nuA = Fraction(vA.s, vA.r)
    if muA >= muE:
        return True  # no constraint branch
    rhs = -(nuE - nuA) / (n * (muE - muA))
    return reE / imE > rhs


def candidate_box(lat: IntegerLattice, r_max: int, c_bound: int,
                  s_bound: int) -> list[LatVec]:
    """All (r, c1, s) with 0 < r <= r_max, |c1| <= c_bound, |s| <= s_bound."""
    import itertools
    k = lat.ns_rank
    out = []
    for r in range(1, r_max + 1):
        for c in itertools.product(range(-c_bound, c_bound + 1), repeat=k):
            for s in range(-s_bound, s_bound + 1):
                out.append(lat.vector((r,) + c + (s,)))
    return out


# ---------------------------------------------------------------------------
# boundary-point construction near a C-type wall
# ---------------------------------------------------------------------------

@dataclass
class BetaCertificate:
    beta: tuple[Fraction, ...]
    window_value: Fraction          # beta.C + k, inside (-1, 0)
    roots_checked: int

    def to_json(self) -> dict:
        return {"beta": [str(b) for b in self.beta],
                "window_value": str(self.window_value),
                "roots_checked": self.roots_checked}


def boundary_beta_search(lat: IntegerLattice, c_root: LatVec, k: int,
                         eta, coord_bound: int = 8,
                         denominator: int = 64) -> BetaCertificate:
    """Construct a rational beta with exp(i eta + beta) away from all walls.

    Conditions, verified exactly over the candidate root set
    |coords| <= coord_bound:
      (1) exp(i eta + beta).delta != 0 for every root,
      (2) exp(i eta + beta).delta not in R_{<=0} for roots of positive rank,
      (3) beta.C + k in (-1, 0).
    eta must satisfy eta.C = 0, eta^2 > 2 and eta.l != 0 for every NS-root
    l != +-C in the candidate set.
    """
    if not lat.mukai:
        raise ValueError("beta search needs an (r, NS, s)-form lattice")
    kns = lat.ns_rank
    eta = [Fraction(x) for x in eta]
    if len(eta) != kns:
        raise ValueError("eta must be an NS-vector")
    c_ns = list(c_root.ns_part)
    if c_root.r != 0 or c_root.s != 0:
        raise NotARootError("C must be an NS-class (0, C, 0)")
    if ns_pair(lat, c_ns, c_ns) != -2:
        raise NotARootError("C^2 != -2")
    if ns_pair(lat, eta, eta) <= 2:
        raise NonPositiveOmegaError("eta^2 must exceed 2")
    if ns_pair(lat, eta, c_ns) != 0:
        raise ValueError("eta must lie on the facet eta.C = 0")

    roots = roots_in_box(lat, coord_bound)

    # base point: beta0 = t C with beta0.C = -(k + 1/2), i.e. t = (k + 1/2)/2;
    # perturb along eta to dodge the finitely many equalities
    base = [Fraction(k * 2 + 1, 4) * c for c in c_ns]
    betas = [[base[i] + Fraction(sign * num, denominator * 4) * eta[i]
              for i in range(kns)]
             for num in range(denominator) for sign in (1, -1)]
    found = _first_clear_beta(lat, roots, c_ns, k, eta, betas)
    if found is None:
        raise NoSolutionInBoundError("no beta found; enlarge the search box")
    beta = betas[found]
    return BetaCertificate(tuple(beta), ns_pair(lat, beta, c_ns) + k,
                           len(roots))


def _first_clear_beta(lat: IntegerLattice, roots, c_ns, k: int, eta,
                      betas) -> int | None:
    """Index of the first beta meeting conditions (1)-(3) on the roots.

    None when no beta does.  At each beta the first root, in root order,
    that breaks (1) or (2) or is an r = 0 root other than +-C with
    Im z.delta = 0 decides: the former rejects the beta, the latter raises
    ValueError (eta is not generic on the facet).

    All betas and eta are integer vectors B, H over one scale S, so each
    beta is tested on every root at once with integer arrays holding
    S^2 Im z.delta and 2 S^2 Re z.delta.
    """
    kns = len(c_ns)
    scale = math.lcm(*(x.denominator for x in eta),
                     *(x.denominator for beta in betas
                       for x in beta))
    hs = [int(x * scale) for x in eta]
    bss = [[int(x * scale) for x in beta] for beta in betas]
    hm = max(map(abs, hs))
    bm = max(abs(x) for bs in bss for x in bs)
    ns = ns_block(lat)
    cb = max((max(map(abs, r.vec.coords)) for r in roots), default=0)
    dtype = _int_dtype(
        cb * sum(abs(x) for row in ns for x in row)
        * (scale * hm + bm * hm + 2 * scale * bm + bm * bm + hm * hm)
        + 2 * scale * scale * cb)
    coords = np.array([r.vec.coords for r in roots],
                      dtype=dtype).reshape(len(roots), kns + 2)
    r, s, ls = coords[:, 0], coords[:, -1], coords[:, 1:-1]
    l_ns = ls @ np.array(ns, dtype=dtype).reshape(kns, kns)
    l_eta = l_ns @ np.array(hs, dtype=dtype)
    on_c = (np.all(ls == c_ns, axis=1)
            | np.all(ls == [-x for x in c_ns], axis=1))
    hh = ns_pair(lat, hs, hs)
    for i, (beta, bs) in enumerate(zip(betas, bss)):
        if not (-1 < ns_pair(lat, beta, c_ns) + k < 0):
            continue
        # z.delta at z = (1, beta + i eta, (beta + i eta)^2 / 2), scaled
        im = scale * l_eta - r * ns_pair(lat, bs, hs)
        re = (2 * scale * (l_ns @ np.array(bs, dtype=dtype))
              - r * (ns_pair(lat, bs, bs) - hh) - 2 * scale * scale * s)
        flat = im == 0
        # condition (1), or (2): R_{<=0}
        fails = flat & ((re == 0) | ((r > 0) & (re < 0)))
        # r = 0 roots off the facet must have im != 0
        bad = np.flatnonzero(fails | (flat & (r == 0) & ~on_c))
        if len(bad) == 0:
            return i
        if not fails[bad[0]]:
            raise ValueError("eta is not generic on the facet")
    return None


# ---------------------------------------------------------------------------
# cohomological actions of auto-equivalences
# ---------------------------------------------------------------------------

def coh_action(lat: IntegerLattice, kind: str, data=None) -> Isometry:
    """Integer isometry realized by an auto-equivalence on the lattice.

    kind 'shift': -id; 'spherical_twist': the reflection in a (-2)-vector;
    'line_twist': multiplication by exp(l).  Gram preservation is verified
    exactly by the Isometry constructor.
    """
    if kind == "shift":
        return minus_identity(lat)
    if kind == "spherical_twist":
        delta = data if isinstance(data, LatVec) else lat.vector(data)
        return reflection(delta)
    if kind == "line_twist":
        return line_twist_isometry(lat, data)
    raise ValueError(f"unknown action kind {kind!r}")
