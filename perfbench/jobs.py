"""Seeded job generators for the benchmark workloads.

A workload is a fixed list of job slots, repeated in rounds.  The seed
picks each slot's parameters in every round: preset n, height, root bound,
box position and size, start point, steps, winding, k and eta.  Keeping
the slot list fixed keeps a round's cost and its spread of job times close
from seed to seed, so the end-to-end figures are comparable across seeds.
The program sees only the generated command lines and input files.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles


@dataclass
class Job:
    key: str                        # unique per generated input
    cmd: str                        # CLI subcommand
    args: list[str]                 # flags, without --out
    check: Callable[[bytes], None]  # raises oracles.CheckError


def _q(x: float, den: int = 100) -> Fraction:
    return Fraction(round(x * den), den)


def _box(a_lo, a_hi, b_lo, b_hi) -> dict:
    return {k: [str(x) for x in v] for k, v in
            (("a_lo", a_lo), ("a_hi", a_hi), ("b_lo", b_lo), ("b_hi", b_hi))}


def _vec(xs) -> str:
    return json.dumps([round(float(x), 4) for x in xs])


class Inputs:
    """Writes the generated input files and caches lattice chart data."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)
        self._charts: dict[tuple, tuple] = {}

    def write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text)
        return str(path)

    def lattice(self, ns) -> str:
        label = "ns" + "_".join(str(x) for row in ns for x in row)
        name = f"{label}.json"
        path = self.root / name
        if not path.exists():
            self.write(name, json.dumps({"label": label, "mukai": True,
                                         "gram": oracles.mukai_gram(ns)}))
        return str(path)

    def chart(self, ns) -> tuple[list[list[int]], int]:
        """Gram of L(v0) in the program's chart basis, and the index of its
        positive direction (the NS blocks used here are diagonal)."""
        key = tuple(map(tuple, ns))
        if key not in self._charts:
            import mukai_kit as mk
            from mukai_kit import domain
            lat = mk.mukai_lattice(ns, "chart")
            split = domain.split_at(lat.vector([0] * (lat.rank - 1) + [1]))
            gl = [list(r) for r in split.gram_L]
            pos = [i for i in range(len(gl)) if gl[i][i] > 0]
            if len(pos) != 1 or any(gl[i][j] for i in range(len(gl))
                                    for j in range(len(gl)) if i != j):
                raise ValueError(f"unexpected chart Gram {gl}")
            self._charts[key] = (gl, pos[0])
        return self._charts[key]


def _rank4(a: int):
    return [[2 * a, 0], [0, -2]]


def _rank5(a: int):
    return [[2 * a, 0, 0], [0, -2, 0], [0, 0, -2]]


# -- census-exact: integer kernels --------------------------------------------

def _beta_job(key, rng, inp, ns, bound):
    kns = len(ns)
    c_ns = [0, 1] + [0] * (kns - 2)
    c_root = [0] + c_ns + [0]
    ns_roots = oracles.norm_scan(ns, bound, -2)
    while True:
        eta = [rng.choice([2, 3]), 0] + [rng.choice([0, 1])
                                         for _ in range(kns - 2)]
        eta2 = sum(eta[i] * ns[i][j] * eta[j]
                   for i in range(kns) for j in range(kns))
        # eta must be generic on the facet: eta.l != 0 for NS roots l != +-C
        generic = all(sum(eta[i] * ns[i][j] * l[j] for i in range(kns)
                          for j in range(kns)) != 0
                      for l in ns_roots
                      if list(l) not in (c_ns, [-x for x in c_ns]))
        if eta2 > 2 and generic:
            break
    k = rng.randint(-2, 3) if kns == 2 else rng.randint(-1, 2)
    args = ["--lattice", inp.lattice(ns), "--c-root", json.dumps(c_root),
            "--k", str(k), "--eta", json.dumps(eta),
            "--root-bound", str(bound)]
    return Job(key, "beta-search", args,
               oracles.beta_search(ns, c_ns, k, eta))


def _threshold_job(key, rng, boxed: bool):
    n = rng.randint(1, 3)
    vE = (rng.randint(1, 3), rng.randint(1, 4), rng.randint(-5, 5))
    args = ["--preset", f"mukai_rank1({n})", "--vE", json.dumps(vE),
            "--h", "[1]"]
    if boxed:
        r_max, c_b, s_b = 2, 3, 3
        cands = [(r, c, s) for r in range(1, r_max + 1)
                 for c in range(-c_b, c_b + 1) for s in range(-s_b, s_b + 1)]
        args += ["--cand-rank", str(r_max), "--cand-c", str(c_b),
                 "--cand-s", str(s_b)]
    else:
        cands = [(rng.randint(1, 3), rng.randint(-4, 4), rng.randint(-6, 6))
                 for _ in range(rng.randint(1, 6))]
        args += ["--candidates", json.dumps(cands)]
    return Job(key, "threshold", args, oracles.threshold(2 * n, vE, cands))


def census_exact(rng: random.Random, r: int, inp: Inputs) -> list[Job]:
    jobs = []
    for n in range(1, 7):
        h = rng.randint(16, 20)
        jobs.append(Job(f"r{r}.cusps{n}", "cusps",
                        ["--preset", f"mukai_rank1({n})", "--height", str(h),
                         "--root-bound", "8", "--word-depth", "6"],
                        oracles.census(n)))
    n, bound = rng.randint(1, 6), rng.randint(8, 10)
    jobs.append(Job(f"r{r}.roots3", "roots",
                    ["--preset", f"mukai_rank1({n})",
                     "--root-bound", str(bound)],
                    oracles.roots(oracles.mukai_gram([[2 * n]]), bound)))
    for key, ns, bound in (("roots4", _rank4(rng.randint(1, 3)), 6),
                           ("roots5", _rank5(rng.randint(1, 2)), 5)):
        jobs.append(Job(f"r{r}.{key}", "roots",
                        ["--lattice", inp.lattice(ns),
                         "--root-bound", str(bound)],
                        oracles.roots(oracles.mukai_gram(ns), bound)))
    jobs.append(_beta_job(f"r{r}.beta4", rng, inp, _rank4(rng.randint(1, 3)),
                          8))
    jobs.append(_beta_job(f"r{r}.beta5", rng, inp, _rank5(rng.randint(1, 2)),
                          5))
    jobs.append(_threshold_job(f"r{r}.thr", rng, boxed=False))
    jobs.append(_threshold_job(f"r{r}.thrbox", rng, boxed=True))
    rng.shuffle(jobs)
    return jobs


# -- geodesic-flow: float kernels ---------------------------------------------

def _rank4_point(rng, inp, ns):
    """Start data (x0, y0) in the chart of a rank-4 lattice, y0 in the cone."""
    gl, pos = inp.chart(ns)
    x0 = [rng.uniform(-0.3, 0.3) for _ in gl]
    y0 = [rng.uniform(-0.2, 0.2) for _ in gl]
    y0[pos] = rng.uniform(0.9, 1.3)
    return gl, x0, y0


def _rotation(phi: float) -> np.ndarray:
    c, s = math.cos(math.pi * phi), math.sin(math.pi * phi)
    return np.array([[c, -s], [s, c]])


def _path_csv(key, rng, inp):
    """Criterion-7 path: z(t) = Exp(pt(t)) acted on by R(rate t) base."""
    import mukai_kit as mk
    from mukai_kit import domain
    n = rng.randint(1, 3)
    preset = f"mukai_rank1({n})"
    lat = mk.preset(preset)
    split = domain.split_at(lat.vector([0, 0, 1]))
    rate = rng.uniform(-5.0, 5.0)
    base = np.eye(2) + 0.3 * np.array([[rng.gauss(0, 1) for _ in range(2)]
                                       for _ in range(2)])
    if np.linalg.det(base) <= 0:
        base = np.eye(2)
    a0, b0 = rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.1)
    lines = []
    for t in np.linspace(0.0, 1.0, 180):  # enough for |rate| <= 5
        pt = domain.tube_point(split, [a0 + 0.3 * t], [b0 + 0.4 * t])
        z = domain.gl2_act(domain.exp_frame(pt), _rotation(rate * t) @ base).z
        row = [t] + list(z.real) + list(z.imag)
        lines.append(",".join(repr(float(x)) for x in row))
    path = inp.write(f"{key}.csv", "\n".join(lines) + "\n")
    return Job(key, "factor", ["--preset", preset, "--path", path],
               oracles.factor(oracles.angle_phase(rate, base)))


def _path_spec(key, rng, inp, rho):
    if rho == 1:
        lat_args = ["--preset", f"mukai_rank1({rng.randint(1, 3)})"]
        x0, y0 = [rng.uniform(-0.5, 0.5)], [rng.uniform(0.6, 1.2)]
    else:
        ns = _rank4(rng.randint(1, 2))
        lat_args = ["--lattice", inp.lattice(ns)]
        _, x0, y0 = _rank4_point(rng, inp, ns)
    spec = {"kind": "linear_degeneration", "x0": x0, "y0": y0,
            "t0": 1.0, "t1": round(rng.uniform(3.0, 4.0), 2),
            "samples": 150}
    path = inp.write(f"{key}.json", json.dumps(spec))
    return Job(key, "factor", lat_args + ["--path-spec", path],
               oracles.factor(None))


def geodesic_flow(rng: random.Random, r: int, inp: Inputs) -> list[Job]:
    # Step counts and sample counts vary little, so a round costs about the
    # same for every seed: the geodesics (500-540 steps at rank one, 150-160
    # at rank two, about 2.5 s each) take most of it.
    jobs = []
    for key in ("geo1a", "geo1b"):
        steps = rng.randint(500, 540)
        jobs.append(Job(f"r{r}.{key}", "geodesic",
                        ["--preset", f"mukai_rank1({rng.randint(1, 3)})",
                         "--x0", _vec([rng.uniform(-0.5, 0.5)]),
                         "--y0", _vec([rng.uniform(0.8, 1.3)]),
                         "--t-max", "1.0", "--steps", str(steps),
                         "--tol", "1e-06"],
                        oracles.geodesic(1e-6, steps)))
    ns = _rank4(rng.randint(1, 2))
    _, x0, y0 = _rank4_point(rng, inp, ns)
    steps = rng.randint(150, 160)
    jobs.append(Job(f"r{r}.geo2", "geodesic",
                    ["--lattice", inp.lattice(ns), "--x0", _vec(x0),
                     "--y0", _vec(y0), "--t-max", "0.5",
                     "--steps", str(steps), "--tol", "1e-06"],
                    oracles.geodesic(1e-6, steps)))
    for i in range(3):
        jobs.append(_path_csv(f"r{r}.path{i}", rng, inp))
    for rho in (1, 2):
        jobs.append(_path_spec(f"r{r}.spec{rho}", rng, inp, rho))
    # degenerations: rank one as JSON, rank two as CSV
    n = rng.randint(1, 6)
    x0, y0 = [rng.uniform(-0.5, 0.5)], [rng.uniform(0.6, 1.2)]
    jobs.append(_degenerate_job(f"r{r}.deg1", rng,
                                ["--preset", f"mukai_rank1({n})"],
                                [[2 * n]], x0, y0, "json"))
    ns = _rank4(rng.randint(1, 3))
    gl, x0, y0 = _rank4_point(rng, inp, ns)
    jobs.append(_degenerate_job(f"r{r}.deg2", rng,
                                ["--lattice", inp.lattice(ns)],
                                gl, x0, y0, "csv"))
    rng.shuffle(jobs)
    return jobs


def _degenerate_job(key, rng, lat_args, gram_l, x0, y0, fmt):
    x0 = [round(x, 4) for x in x0]
    y0 = [round(y, 4) for y in y0]
    args = lat_args + ["--x0", json.dumps(x0), "--y0", json.dumps(y0),
                       "--t0", "1.0",
                       "--t1", str(round(rng.uniform(5, 10), 2)),
                       "--samples", str(rng.randint(50, 80)),
                       "--format", fmt]
    return Job(key, "degenerate", args,
               oracles.degenerate(gram_l, x0, y0, fmt == "csv"))


# -- wall-scan: the region enumerator -----------------------------------------

def _rank1_box(rng, n: int) -> dict:
    """Box in the chart of mukai_rank1(n) whose walls all have roots with
    coordinates of size <= 10, the bound of the coordinate-scan oracle.

    A root (d, l, c) with d > 0 meets the box only if d <= 1/(sqrt(n) b_lo)
    and l/d lies in [a_lo, a_hi]; then c = (n l^2 + 1)/d, so |a| <=
    sqrt((10 - 1/d)/(n d)) keeps c <= 10.
    """
    b_lo = _q(rng.uniform(0.35, 0.6))
    b_hi = b_lo + _q(rng.uniform(0.5, 1.2))
    d_max = math.floor(1.0 / (math.sqrt(n) * float(b_lo)))
    a_max = (math.sqrt((10 - 1 / d_max) / (n * d_max)) if d_max >= 1
             else 1.5)
    a_max = min(a_max, 1.5) * 0.95
    width = min(rng.uniform(0.5, 1.5), 2 * a_max)
    centre = rng.uniform(-(a_max - width / 2), a_max - width / 2)
    a_lo = _q(centre - width / 2)
    a_hi = _q(centre + width / 2)
    a_lo = max(a_lo, -_q(a_max, 1000))
    a_hi = min(a_hi, _q(a_max, 1000))
    return _box([a_lo], [a_hi], [b_lo], [b_hi])


def wall_scan(rng: random.Random, r: int, inp: Inputs) -> list[Job]:
    jobs = []
    ns_rank1 = list(range(1, 7)) + [rng.randint(1, 6) for _ in range(3)]
    fmts = ["json", "csv", "svg"] * 3
    rng.shuffle(fmts)
    for i, (n, fmt) in enumerate(zip(ns_rank1, fmts)):
        box = _rank1_box(rng, n)
        preset = f"mukai_rank1({n})"
        jobs.append(Job(f"r{r}.walls1.{i}", "walls",
                        ["--preset", preset, "--box", json.dumps(box),
                         "--format", fmt],
                        oracles.walls_rank1(preset, box, fmt)))
    for i in range(3):
        ns = _rank4(rng.randint(1, 3))
        gl, pos = inp.chart(ns)
        shift = [rng.randint(-1, 1) for _ in gl]
        a_lo = [t + _q(rng.uniform(0, 0.5)) for t in shift]
        a_hi = [x + Fraction(1, 2) for x in a_lo]
        b_lo = [_q(rng.uniform(-0.25, 0.05)) for _ in gl]
        b_lo[pos] = _q(rng.uniform(0.8, 1.2))
        b_hi = [x + Fraction(1, 5) for x in b_lo]
        b_hi[pos] = b_lo[pos] + Fraction(3, 10)
        jobs.append(Job(f"r{r}.walls2.{i}", "walls",
                        ["--lattice", inp.lattice(ns), "--box",
                         json.dumps(_box(a_lo, a_hi, b_lo, b_hi))],
                        oracles.walls_higher(oracles.mukai_gram(ns))))
    # rank three: integer translates of one high-b box.  Translations are
    # isometries of the tube, so every seed costs the same two grid tests;
    # low-b boxes cost tens of grid tests and do not fit a run.
    ns = _rank5(1)
    gl, pos = inp.chart(ns)
    for i in range(2):
        shift = [rng.randint(-2, 2) for _ in gl]
        b_lo = [Fraction(0)] * 3
        b_hi = [Fraction(1, 10)] * 3
        b_lo[pos], b_hi[pos] = Fraction(3), Fraction(16, 5)
        box = _box([Fraction(t) for t in shift],
                   [t + Fraction(1, 5) for t in shift], b_lo, b_hi)
        jobs.append(Job(f"r{r}.walls3.{i}", "walls",
                        ["--lattice", inp.lattice(ns),
                         "--box", json.dumps(box)],
                        oracles.walls_higher(oracles.mukai_gram(ns))))
    rng.shuffle(jobs)
    return jobs


WORKLOADS: dict[str, Callable[[random.Random, int, Inputs], list[Job]]] = {
    "census-exact": census_exact,
    "geodesic-flow": geodesic_flow,
    "wall-scan": wall_scan,
}


def generate(workload: str, seed: int, rounds: int,
             root: Path) -> list[list[Job]]:
    """``rounds`` rounds of jobs; round r draws from its own seeded stream."""
    inp = Inputs(root)
    make = WORKLOADS[workload]
    return [make(random.Random(f"{seed}/{workload}/{r}"), r, inp)
            for r in range(rounds)]
