"""Output checks for benchmark jobs.

Each factory returns a function that takes the bytes a job wrote with
``--out`` and raises :class:`CheckError` when they are wrong.  The checks
recompute the answer by a route that does not share the code path under
test: numpy coordinate scans instead of the kernels' enumerators, the
closed-form chart formulas instead of frame pairings, exact ``Fraction``
arithmetic instead of the solvers.  Two checks lean on the package on
purpose: the census count is compared with the classical Fricke formula
``cusps.fricke_cusp_count``, and rank-one wall sets with the coordinate
scan ``domain.enumerate_walls_bruteforce``, which shares only the final
per-root filter with the region enumerator.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

# Float tolerances pinned by the acceptance suite.
FACTOR_TOL = 1e-9
REL_TOL = 1e-9


class CheckError(Exception):
    """A job's output disagrees with its oracle."""


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _json(out: bytes) -> dict:
    try:
        return json.loads(out)
    except ValueError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


def _csv_rows(out: bytes) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in out.decode().splitlines()
             if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def mukai_gram(ns) -> list[list[int]]:
    """Gram of U + NS in (r, NS..., s) coordinates."""
    k = len(ns)
    n = k + 2
    g = [[0] * n for _ in range(n)]
    g[0][n - 1] = g[n - 1][0] = -1
    for i in range(k):
        for j in range(k):
            g[1 + i][1 + j] = ns[i][j]
    return g


def norm_scan(gram, bound: int, norm: int) -> set[tuple[int, ...]]:
    """All non-zero integer x with max|x_i| <= bound and x.x = norm."""
    n = len(gram)
    axis = np.arange(-bound, bound + 1, dtype=np.int64)
    grid = np.stack(np.meshgrid(*[axis] * n, indexing="ij"),
                    axis=-1).reshape(-1, n)
    g = np.array(gram, dtype=np.int64)
    norms = np.einsum("vi,ij,vj->v", grid, g, grid)
    hits = grid[norms == norm]
    return {tuple(int(c) for c in row) for row in hits if any(row)}


def ellipsoid_scan(q: np.ndarray, bound: float) -> list[tuple[int, ...]]:
    """All non-zero integer x with x^T q x <= bound, q positive definite.

    Scans the bounding box |x_i| <= sqrt(bound * (q^-1)_ii) of the
    ellipsoid, so it shares nothing with a Fincke-Pohst tree search.
    """
    n = q.shape[0]
    half = np.floor(np.sqrt(bound * np.diag(np.linalg.inv(q))) + 1e-9)
    axes = [np.arange(-int(h), int(h) + 1) for h in half]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"),
                    axis=-1).reshape(-1, n).astype(float)
    vals = np.einsum("vi,ij,vj->v", grid, q, grid)
    keep = grid[vals <= bound + 1e-9]
    return [tuple(int(c) for c in row) for row in keep if any(row)]


def fricke_count(n: int) -> int:
    """Cusp number of the Fricke group Gamma_0(n)+ (classical formula)."""
    from mukai_kit.cusps import fricke_cusp_count
    return fricke_cusp_count(n)


def bruteforce_walls(preset: str, box: dict) -> list[tuple[str, tuple]]:
    """Walls of a rank-one box from the coordinate scan with bound 10."""
    import mukai_kit as mk
    from mukai_kit import domain
    lat = mk.preset(preset)
    split = domain.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
    tb = domain.TubeBox.make(
        split, *[[Fraction(x) for x in box[k]]
                 for k in ("a_lo", "a_hi", "b_lo", "b_hi")])
    return sorted((w.kind, w.root.coords)
                  for w in domain.enumerate_walls_bruteforce(split, tb, 10))


# -- census-exact -------------------------------------------------------------

def census(n: int):
    def check(out: bytes):
        got = _json(out)["count"]
        want = fricke_count(n)
        _require(got == want, f"census count {got} != Fricke count {want}")
    return check


def roots(gram, bound: int):
    def check(out: bytes):
        payload = _json(out)
        got = [tuple(r) for r in payload["roots"]]
        _require(payload["root_bound"] == bound, "root bound not echoed")
        _require(len(got) == len(set(got)), "duplicate roots")
        want = norm_scan(gram, bound, -2)
        _require(set(got) == want,
                 f"{len(set(got) ^ want)} roots differ from the grid scan")
    return check


def _threshold_holds(vE, vA, m: int, n: int) -> bool:
    """Phase inequality at integer n on the NS block <m>, with h = [1].

    Re Z_n(E) / Im Z_n(E) > -(nu_E - nu_A) / (n (mu_E - mu_A)) for
    candidates of lower slope; other candidates impose nothing.  Vectors
    are (r, c1, s), so h.c1 = m c1 and h^2 = m.
    """
    rE, cE, sE = vE
    rA, cA, sA = vA
    muE, muA = Fraction(m * cE, rE), Fraction(m * cA, rA)
    if muA >= muE:
        return True
    re = Fraction(n * n * m * rE, 2) - sE
    im = n * m * cE
    rhs = -(Fraction(sE, rE) - Fraction(sA, rA)) / (n * (muE - muA))
    return re / im > rhs


def threshold(m: int, vE, cands):
    def check(out: bytes):
        payload = _json(out)
        n0 = payload["n0"]
        _require(payload["confirmed"] is True, "solver did not confirm")
        _require(isinstance(n0, int) and n0 >= 1, f"bad n0 {n0!r}")
        for n in range(n0, n0 + 101):
            _require(all(_threshold_holds(vE, a, m, n) for a in cands),
                     f"inequality fails at n = {n} >= n0 = {n0}")
        _require(n0 == 1 or any(not _threshold_holds(vE, a, m, n0 - 1)
                                for a in cands),
                 f"inequality already holds at n0 - 1 = {n0 - 1}")
    return check


def beta_search(ns, c_ns, k: int, eta):
    """Criterion-9 re-check: window exact, wall conditions at the point."""
    gram = mukai_gram(ns)
    kns = len(ns)

    def nsp(a, b):
        return sum(a[i] * ns[i][j] * b[j]
                   for i in range(kns) for j in range(kns))

    def check(out: bytes):
        cert = _json(out)["certificate"]
        beta = [Fraction(b) for b in cert["beta"]]
        window = nsp(beta, c_ns) + k
        _require(Fraction(-1) < window < 0, f"window {window} not in (-1, 0)")
        _require(window == Fraction(cert["window_value"]),
                 "window value not echoed exactly")
        g = np.array(gram, dtype=float)
        bc = np.array([float(b) for b in beta]) + 1j * np.array(eta, float)
        nsf = np.array(ns, dtype=float)
        z = np.concatenate([[1.0], bc, [0.5 * (bc @ nsf @ bc)]])
        plane = np.stack([z.real, z.imag], axis=1)
        pi = plane @ np.linalg.solve(plane.T @ g @ plane, plane.T @ g)
        q = 2.0 * (g @ pi) - g
        q = 0.5 * (q + q.T)
        eta2 = float(np.array(eta, float) @ nsf @ np.array(eta, float))
        cands = norm_scan(gram, 6, -2)
        for x in ellipsoid_scan(q, 2.0 + 8.0 * max(1.0, 1.0 / eta2)):
            if sum(x[i] * gram[i][j] * x[j] for i in range(len(x))
                   for j in range(len(x))) == -2:
                cands.add(x)
                cands.add(tuple(-c for c in x))
        for delta in cands:
            val = complex(z @ g @ np.array(delta, dtype=float))
            _require(abs(val) > 1e-9, f"z.delta = 0 at {delta}")
            if delta[0] > 0:  # -v0.delta = r > 0
                _require(not (abs(val.imag) < 1e-9 and val.real <= 0),
                         f"z.delta on the negative real axis at {delta}")
    return check


# -- geodesic-flow ------------------------------------------------------------

def geodesic(tol: float, steps: int):
    def check(out: bytes):
        rep = _json(out)["report"]
        _require(rep["steps"] == steps and rep["tol"] == tol,
                 "report does not echo steps and tol")
        _require(rep["max_dev"] <= tol,
                 f"oracle deviation {rep['max_dev']} > tol {tol}")
    return check


def factor(truth_phase=None):
    """``truth_phase(t)``: generated phase of the GL2 factor at t.

    None means a linear degeneration, whose factor carries no rotation.
    The recovered lift must match the truth up to one global even shift.
    """
    def check(out: bytes):
        payload = _json(out)
        _require(payload["max_residual"] <= FACTOR_TOL,
                 f"residual {payload['max_residual']} > {FACTOR_TOL}")
        trace = payload["trace"]
        truth = [truth_phase(s["t"]) if truth_phase else 0.0 for s in trace]
        diffs = [s["phi"] - p for s, p in zip(trace, truth)]
        shift = 2.0 * round(diffs[0] / 2.0)
        worst = max(abs(d - shift) for d in diffs)
        _require(worst <= FACTOR_TOL,
                 f"lift off the generated phase by {worst:.2e}")
        want = truth[-1] - truth[0]
        _require(abs(payload["winding"] - want) <= 2 * FACTOR_TOL,
                 f"winding {payload['winding']} != generated {want}")
    return check


def angle_phase(rate: float, base: np.ndarray):
    """Phase of the first column of R(rate t) @ base, continued in t."""
    base_phase = math.atan2(base[1, 0], base[0, 0]) / math.pi
    return lambda t: rate * t + base_phase


def degenerate(gram_l, x0, y0, csv_format: bool):
    """y(t) = t y0 along t -> x0 + i t y0, so y2 = t^2 y0^T G_L y0."""
    rho = len(x0)
    y02 = sum(y0[i] * gram_l[i][j] * y0[j]
              for i in range(rho) for j in range(rho))

    def check(out: bytes):
        if csv_format:
            header, rows = _csv_rows(out)
            _require(header[-1] == "y2", "csv header lacks y2")
        else:
            rows = _json(out)["samples"]
        _require(len(rows) > 0, "no samples")
        for row in rows:
            t, a, b, y2 = row[0], row[1:1 + rho], row[1 + rho:-1], row[-1]
            _require(all(_close(x, w) for x, w in zip(a, x0)),
                     f"a drifted at t = {t}")
            _require(all(_close(x, t * w) for x, w in zip(b, y0)),
                     f"b != t y0 at t = {t}")
            _require(_close(y2, t * t * y02), f"y2 != t^2 y0^2 at t = {t}")
    return check


# -- wall-scan ----------------------------------------------------------------

def walls_rank1(preset: str, box: dict, fmt: str):
    """Rank-one wall sets against the bound-10 coordinate scan.

    csv: the chamber raster must induce the same partition as the signs of
    Im z.delta = m b (l - r a), with m, b > 0, over the scanned walls.
    svg: one line per A or D wall, by kind.
    """
    def check(out: bytes):
        want = bruteforce_walls(preset, box)
        if fmt == "json":
            got = sorted((w["kind"], tuple(w["root_coords"]))
                         for w in _json(out)["walls"])
            _require(got == want, f"walls {got} != coordinate scan {want}")
        elif fmt == "svg":
            text = out.decode()
            for kind in ("A", "D"):
                n_got = text.count(f'<line class="{kind}"')
                n_want = sum(1 for w in want if w[0] == kind)
                _require(n_got == n_want,
                         f"{n_got} {kind}-lines, scan has {n_want} walls")
            _require(text.count("<line") == len(want), "stray svg lines")
        else:
            _check_raster(out, want, box)
    return check


def _check_raster(out: bytes, walls, box, samples: int = 32):
    """``samples``: the CLI's default raster size per axis."""
    header, rows = _csv_rows(out)
    _require(header == ["a0", "b0", "chamber_id"], "bad raster header")
    _require(len(rows) == samples * samples, "raster size")
    a_axis = np.linspace(float(Fraction(box["a_lo"][0])),
                         float(Fraction(box["a_hi"][0])), samples)
    b_axis = np.linspace(float(Fraction(box["b_lo"][0])),
                         float(Fraction(box["b_hi"][0])), samples)
    pairs: dict[int, tuple] = {}
    sigs: dict[tuple, int] = {}
    for idx, (a0, b0, cid) in enumerate(rows):
        _require(a0 == a_axis[idx % samples] and b0 == b_axis[idx // samples],
                 f"raster point {idx} off the grid")
        feet = [root[1] - root[0] * a0 for _, root in walls]
        if any(abs(f) < 1e-9 for f in feet):
            continue  # on a wall: sign is a rounding accident
        sig = tuple(f > 0 for f in feet)
        _require(pairs.setdefault(int(cid), sig) == sig
                 and sigs.setdefault(sig, int(cid)) == int(cid),
                 f"chamber id {int(cid)} disagrees with wall signs")


def walls_higher(gram):
    """rho >= 2: every root has square -2 and the d-sign of its kind.

    No independent wall-set oracle exists here until the grid filter is
    replaced by an exact test, so completeness is not checked.
    """
    n = len(gram)

    def check(out: bytes):
        walls = _json(out)["walls"]
        keys = [(w["kind"], tuple(w["root_coords"])) for w in walls]
        _require(len(keys) == len(set(keys)), "duplicate walls")
        for w in walls:
            d = w["root_coords"]
            sq = sum(d[i] * gram[i][j] * d[j]
                     for i in range(n) for j in range(n))
            _require(sq == -2, f"wall root {d} has square {sq}")
            _require(w["v"] == [0] * (n - 1) + [1], "wall not relative to v0")
            if w["kind"] in ("A", "D"):
                _require(d[0] > 0, f"{w['kind']}-wall root {d} has d <= 0")
            else:
                _require(w["kind"] == "C" and d[0] == 0 and d[-1] == 0,
                         f"C-wall root {d} has a v- or f-component")
    return check
