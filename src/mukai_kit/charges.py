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
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InconsistentLiftError,
    MukaiKitError,
    NonPositiveDetError,
    NonPositiveOmegaError,
    NonPositiveRankError,
    NonPositiveSlopeError,
    NotARootError,
    NotHyperbolicError,
    NotMukaiFormError,
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
    pairing,
    _cone_roots,
)
from .intlinalg import dot, mat_vec, signature
from .lattice import (
    IntegerLattice,
    LatVec,
    count_of_norm,
    ns_block,
    ns_pair,
)


# ---------------------------------------------------------------------------
# charges and phases
# ---------------------------------------------------------------------------

def exp_class(lat: IntegerLattice, beta, omega) -> FrameVec:
    """Exp(beta + i omega) = (1, beta + i omega, (beta + i omega)^2 / 2)."""
    if not lat.mukai:
        raise NotMukaiFormError("exp_class needs an (r, NS, s)-form lattice")
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

    def phase_map(self, phi: float) -> float:
        """The lifted circle map f with f(0) = phi0, f(phi + 1) = f(phi) + 1.

        Write T = R_alpha S with S > 0: the angle from u to T u stays in
        (alpha - pi/2, alpha + pi/2), so f(phi) - phi - phi0 lies in (-1, 1)
        and f(phi) is the lift of the raw phase r at phi nearest phi + phi0.
        """
        vec = self.t_np() @ [math.cos(math.pi * phi), math.sin(math.pi * phi)]
        r = math.atan2(vec[1], vec[0]) / math.pi
        return r + 2.0 * round((phi + self.phi0 - r) / 2.0)

    def compose(self, other: "LiftedGL2") -> "LiftedGL2":
        """Element acting as self followed by other (right action order)."""
        t = other.t_np() @ self.t_np()
        phi = other.phase_map(self.phi0)
        return LiftedGL2.make(t, phi)


def sigma_shift(lam: float) -> LiftedGL2:
    """Sigma_lambda = (exp(i pi lambda), phi -> phi + lambda)."""
    c, s = math.cos(math.pi * lam), math.sin(math.pi * lam)
    return LiftedGL2.make([[c, -s], [s, c]], lam)


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
    # no LiftedGL2.make: gl2_act checked det T > 0, phi0 lifts r by design
    rows = [tuple(map(tuple, m)) for m in tmats.tolist()]
    raws = [math.atan2(m[1][0], m[0][0]) / math.pi for m in rows]
    lifts: list[LiftedGL2] = []
    prev_phi = raws[0] if raws else 0.0
    for t, m, r in zip(ts, rows, raws):
        # decided without the offset, whose rounding could tip a half turn
        k = round((prev_phi - r) / 2.0)
        phi = r + 2.0 * k
        if abs(phi - prev_phi) >= 0.5:
            raise SamplingTooCoarseError(
                f"winding jump {abs(phi - prev_phi):.3f} at t = {t}")
        prev_phi = phi
        lifts.append(LiftedGL2(m, r + 2.0 * (k + branch_offset)))
    return FactorizationResult(ts, tube, lifts, resid)


# ---------------------------------------------------------------------------
# large-volume threshold (exact, cross-multiplied integers)
# ---------------------------------------------------------------------------

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


def _slope_gaps(vE: LatVec, candidates: list[LatVec], h
                ) -> tuple[int, int, list[tuple[int, int]]]:
    """h^2, h.c_E and (dmu, dnu) per candidate, preconditions checked.

    dmu = (h.c_E) r_A - (h.c_A) r_E and dnu = s_E r_A - s_A r_E are
    mu_E - mu_A and nu_E - nu_A times r_E r_A > 0.
    """
    if not vE.lattice.mukai:
        raise NotMukaiFormError("threshold needs an (r, NS, s)-form lattice")
    if vE.r <= 0:
        raise NonPositiveRankError("r(E) must be > 0")
    h = [int(x) for x in h]
    if len(h) != len(vE.ns_part):
        raise ValueError("h must be an NS-vector")
    hn = mat_vec(ns_block(vE.lattice), h)
    h2 = dot(hn, h)
    if h2 <= 0:
        raise NonPositiveOmegaError("h^2 must be > 0")
    rE, sE = vE.r, vE.s
    hcE = dot(hn, vE.ns_part)
    if hcE <= 0:
        raise NonPositiveSlopeError("mu(E) must be > 0")
    gaps = []
    for vA in candidates:
        rA = vA.r
        if rA <= 0:
            raise NonPositiveRankError("candidates need r > 0")
        gaps.append((hcE * rA - dot(hn, vA.ns_part) * rE,
                     sE * rA - vA.s * rE))
    return h2, hcE, gaps


def large_volume_threshold(vE: LatVec, candidates: list[LatVec], h
                           ) -> tuple[int, list[ThresholdCertificate]]:
    """Minimal n0 with the phase inequality for all n >= n0, exactly.

    For a destabilizing candidate A with slope below that of E, the
    inequality Re Z_n(E) / Im Z_n(E) > -(nu(E) - nu(A)) / (n (mu(E) - mu(A)))
    at Exp(i n h), h^2 > 0, reduces (n > 0, Im Z_n(E) > 0) to n^2 > bound,

        bound = 2 (s_E dmu - (h.c_E) dnu) / (h^2 r_E dmu),

    with dmu > 0 and dnu from ``_slope_gaps``; n_min = isqrt(floor(bound))
    + 1 when bound >= 1.  Candidates of equal slope sit on the negative
    real axis and impose no constraint; higher slopes make the difference
    leave the upper half-plane, likewise no constraint.
    """
    h2, hcE, gaps = _slope_gaps(vE, candidates, h)
    n0 = 1
    certs: list[ThresholdCertificate] = []
    for vA, (dmu, dnu) in zip(candidates, gaps):
        if dmu <= 0:
            certs.append(ThresholdCertificate(
                vA, "equal_slope" if dmu == 0 else "higher_slope", 1, None))
            continue
        num, den = 2 * (vE.s * dmu - hcE * dnu), h2 * vE.r * dmu
        n_min = math.isqrt(num // den) + 1 if num >= den else 1
        certs.append(ThresholdCertificate(vA, "quadratic", n_min,
                                          Fraction(num, den)))
        n0 = max(n0, n_min)
    return n0, certs


def threshold_holds(vE: LatVec, candidates: list[LatVec], h, ns
                    ) -> list[list[bool]]:
    """The phase inequality of each candidate at each integer n, exactly.

    Row i holds the verdicts at ns[i].  Cross-multiplied by the positive
    2 (h.c_E) dmu, the inequality at n reads
    (n^2 h^2 r_E - 2 s_E) dmu + 2 dnu (h.c_E) > 0; it holds outright when
    dmu <= 0 (no constraint branch).
    """
    h2, hcE, gaps = _slope_gaps(vE, candidates, h)
    rows = []
    for n in ns:
        a = n * n * h2 * vE.r - 2 * vE.s
        rows.append([dmu <= 0 or a * dmu + 2 * dnu * hcE > 0
                     for dmu, dnu in gaps])
    return rows


def threshold_inequality_holds(vE: LatVec, vA: LatVec, h, n: int) -> bool:
    """The phase inequality of vA against vE at one integer n >= 1."""
    return threshold_holds(vE, [vA], h, [n])[0][0]


def candidate_box(lat: IntegerLattice, r_max: int, c_bound: int,
                  s_bound: int) -> list[LatVec]:
    """All (r, c1, s) with 0 < r <= r_max, |c1| <= c_bound, |s| <= s_bound."""
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
                         eta, coord_bound: int = 8) -> BetaCertificate:
    """beta0 = (k + 1/2)/2 C: exp(beta0 + i eta) avoids every wall.

    Needs eta.C = 0, eta^2 > 2, NS of signature (1, rho - 1) as for a K3,
    and eta.l != 0 for every NS-root l != +-C.  Then z = exp(beta0 + i eta)
    has, for every root delta, z.delta != 0, z.delta not in R_{<=0} if
    r > 0, and beta0.C + k = -1/2.  ``roots_checked`` counts the roots
    with |coords| <= coord_bound.

    Proof: beta0.eta = 0, so a root delta = (r, l, s) with Im z.delta =
    l.eta = 0 has 2r Re z.delta = r^2 eta^2 - 2 - (l - r beta0)^2 > 0 for
    r != 0, as eta-perp is negative definite; for r = 0, l = +-C gives
    Re z.delta = -+(k + 1/2) - s != 0, and any other l is non-generic.
    """
    if not lat.mukai:
        raise NotMukaiFormError(
            "beta search needs an (r, NS, s)-form lattice")
    eta = [Fraction(x) for x in eta]
    if len(eta) != lat.ns_rank:
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
    ns = ns_block(lat)
    sig = signature(ns)
    if sig != (1, lat.ns_rank - 1):
        raise NotHyperbolicError(f"NS has signature {sig}, not (1, rho - 1)")

    # genericity: at the point eta, _cone_roots lists the NS-roots l.eta = 0
    if len(_cone_roots(ns, [eta])[-1]) != 1:
        raise ValueError("eta is not generic on the facet")
    return BetaCertificate(tuple(Fraction((2 * k + 1) * c, 4) for c in c_ns),
                           Fraction(-1, 2),
                           count_of_norm(lat, -2, coord_bound))
