"""Spans around the public functions of every mukai_kit module.

:meth:`Tracer.install` wraps each public module-level function of the
layer modules and rebinds the wrapper at every module attribute, and every
module-level dict entry, that holds the same function object.  That covers
from-imports such as ``domain.short_vectors`` and the names ``charges`` and
``geodesics`` import from ``domain``; calls through the ``ila.`` alias
resolve to the wrapped module attribute.  Methods (``LatVec.dot``,
``TubeBox.make``) stay unwrapped, so their time is their caller's self
time.  Spans are recorded only while a job runs, so input generation and
output checks leave no trace.  They stay in compact arrays in memory until
:meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "lattice", "intlinalg", "domain", "geodesics", "cusps",
          "charges", "shortvec", "serialize")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _roots_in_box(c, a, k, res, s):
    lat, bound = _arg(a, k, 0, "lat"), _arg(a, k, 1, "bound")
    c["roots_points"] += (2 * bound + 1) ** lat.rank
    c["roots_found"] += len(res)


def _enumerate_isotropic(c, a, k, res, s):
    lat, height = _arg(a, k, 0, "lat"), _arg(a, k, 1, "height")
    c["iso_grid"] += (2 * height + 1) ** lat.rank
    c["iso_vectors"] += len(res)


def _walls_region(c, a, k, res, s):
    c[f"walls_rho{_arg(a, k, 0, 'split').rho}_s"] += s


def _tally(key, value):
    """Counter that adds ``value(args, kwargs, result)`` under ``key``."""
    def count(c, a, k, res, s):
        c[key] += value(a, k, res)
    return count


# Work counters read from arguments and return values at the layer boundary:
# qualified name -> fn(counts, args, kwargs, result, seconds).
COUNTERS = {
    "lattice.roots_in_box": _roots_in_box,
    "cusps.enumerate_isotropic": _enumerate_isotropic,
    "cusps.default_generators": _tally(
        "generators", lambda a, k, res: len(res)),
    "cusps.orbit_partition": _tally(
        "frontier", lambda a, k, res: sum(res.frontier_sizes)),
    "charges.boundary_beta_search": _tally(
        "beta_roots", lambda a, k, res: res.roots_checked),
    "charges.large_volume_threshold": _tally(
        "thr_cands", lambda a, k, res: len(_arg(a, k, 1, "candidates"))),
    "geodesics.geodesic_oracle": _tally(
        "oracle_steps", lambda a, k, res: _arg(a, k, 2, "steps")),
    "charges.factor_path": _tally(
        "factor_samples", lambda a, k, res: len(_arg(a, k, 0, "samples"))),
    "domain.wall_meets_box": _tally("wall_hits", lambda a, k, res: bool(res)),
    "domain.enumerate_walls_region": _walls_region,
    "shortvec.short_vectors": _tally(
        "short_returned", lambda a, k, res: len(res)),
    "serialize.atomic_write": _tally(
        "bytes_written",
        lambda a, k, res: len(_arg(a, k, 1, "text").encode())),
}

# Per-layer metrics, in the order they are reported: (name, unit).
KERNEL_METRICS = (
    ("lattice.roots_in_box.s", "s"),
    ("lattice.roots_in_box.points_scanned", "count"),
    ("lattice.roots_in_box.yield", "ratio"),
    ("cusps.enumerate_isotropic.s", "s"),
    ("cusps.enumerate_isotropic.grid_points", "count"),
    ("cusps.isotropic_vectors", "count"),
    ("cusps.default_generators.s", "s"),
    ("cusps.generators", "count"),
    ("cusps.orbit_partition.s", "s"),
    ("cusps.orbit_partition.frontier_states", "count"),
    ("lattice.quotient_lattice.calls", "count"),
    ("lattice.quotient_lattice.s", "s"),
    ("intlinalg.hnf_columns.calls", "count"),
    ("intlinalg.snf.calls", "count"),
    ("charges.boundary_beta_search.s", "s"),
    ("charges.beta_roots_checked", "count"),
    ("charges.large_volume_threshold.s", "s"),
    ("charges.threshold_candidates", "count"),
    ("geodesics.geodesic_oracle.s", "s"),
    ("geodesics.oracle_steps", "count"),
    ("geodesics.chart_metric.calls", "count"),
    ("geodesics.chart_metric_per_step", "ratio"),
    ("geodesics.oracle_deviation.s", "s"),
    ("geodesics.speed.s", "s"),
    ("domain.tube_point.calls", "count"),
    ("domain.exp_frame.calls", "count"),
    ("charges.factor_path.s", "s"),
    ("charges.factor_path.samples", "count"),
    ("domain.enumerate_walls_region.rho1_s", "s"),
    ("domain.enumerate_walls_region.rho2_s", "s"),
    ("domain.enumerate_walls_region.rho3_s", "s"),
    ("domain.wall_meets_box.calls", "count"),
    ("domain.wall_meets_box.hit_ratio", "ratio"),
    ("shortvec.short_vectors.s", "s"),
    ("shortvec.short_vectors.returned", "count"),
    ("serialize.bytes_written", "B"),
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.self_share": "ratio",
                      f"{layer}.calls": "count", f"{layer}.errors": "count"})
    units.update(KERNEL_METRICS)
    units.update({"trace.overhead_ratio": "ratio", "trace.spans": "count"})
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("I")
        self.error = array("b")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.job_id: int | None = None   # spans are recorded only in a job
        self._restore: list[tuple] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, qual: str, fn):
        idx = self._index.setdefault(qual, len(self.names))
        if idx == len(self.names):
            self.names.append(qual)
        count = COUNTERS.get(qual)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.job_id is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            i = len(tracer.start)
            tracer.name.append(idx)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.job.append(tracer.job_id)
            tracer.error.append(0)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.error[i] = 1
                raise
            finally:
                tracer.end[i] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result,
                      tracer.end[i] - tracer.start[i])
            return result
        return traced

    def install(self):
        wrapped: dict[types.FunctionType, types.FunctionType] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mukai_kit.{layer}")
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType)
                        and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrapped[val] = self._wrap(f"{layer}.{attr}", val)
        mods = [m for n, m in list(sys.modules.items())
                if n == "mukai_kit" or n.startswith("mukai_kit.")]
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
                    self._restore.append((vars(mod), attr, val))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if (isinstance(item, types.FunctionType)
                                and item in wrapped):
                            val[key] = wrapped[item]
                            self._restore.append((val, key, item))

    def uninstall(self):
        for where, key, original in reversed(self._restore):
            where[key] = original
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "job": np.frombuffer(self.job, dtype=np.uint32),
                "error": np.frombuffer(self.error, dtype=np.int8)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        a = self.arrays()
        name, parent = a["name"].astype(np.int64), a["parent"].astype(np.int64)
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_t = dur - covered
        n_names = max(len(self.names), 1)
        by_name_s = np.bincount(name, weights=dur, minlength=n_names)
        by_name_calls = np.bincount(name, minlength=n_names)
        layer_of = np.array([LAYERS.index(q.split(".")[0])
                             for q in self.names] or [0])
        layer = layer_of[name]
        total_self = float(self_t.sum())
        out: dict[str, float] = {}
        for li, lname in enumerate(LAYERS):
            mask = layer == li
            s = float(self_t[mask].sum())
            out[f"{lname}.self_s"] = s
            out[f"{lname}.self_share"] = s / total_self if total_self else 0.0
            out[f"{lname}.calls"] = int(mask.sum())
            out[f"{lname}.errors"] = int(a["error"][mask].sum())

        def total(qual):
            i = self._index.get(qual)
            return float(by_name_s[i]) if i is not None else 0.0

        def calls(qual):
            i = self._index.get(qual)
            return int(by_name_calls[i]) if i is not None else 0

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        oracle_steps = int(c["oracle_steps"])
        out.update({
            "lattice.roots_in_box.s": total("lattice.roots_in_box"),
            "lattice.roots_in_box.points_scanned": int(c["roots_points"]),
            "lattice.roots_in_box.yield": ratio(c["roots_found"],
                                                c["roots_points"]),
            "cusps.enumerate_isotropic.s": total("cusps.enumerate_isotropic"),
            "cusps.enumerate_isotropic.grid_points": int(c["iso_grid"]),
            "cusps.isotropic_vectors": int(c["iso_vectors"]),
            "cusps.default_generators.s": total("cusps.default_generators"),
            "cusps.generators": int(c["generators"]),
            "cusps.orbit_partition.s": total("cusps.orbit_partition"),
            "cusps.orbit_partition.frontier_states": int(c["frontier"]),
            "lattice.quotient_lattice.calls":
                calls("lattice.quotient_lattice"),
            "lattice.quotient_lattice.s": total("lattice.quotient_lattice"),
            "intlinalg.hnf_columns.calls": calls("intlinalg.hnf_columns"),
            "intlinalg.snf.calls": calls("intlinalg.snf"),
            "charges.boundary_beta_search.s":
                total("charges.boundary_beta_search"),
            "charges.beta_roots_checked": int(c["beta_roots"]),
            "charges.large_volume_threshold.s":
                total("charges.large_volume_threshold"),
            "charges.threshold_candidates": int(c["thr_cands"]),
            "geodesics.geodesic_oracle.s": total("geodesics.geodesic_oracle"),
            "geodesics.oracle_steps": oracle_steps,
            "geodesics.chart_metric.calls": calls("geodesics.chart_metric"),
            "geodesics.chart_metric_per_step": ratio(
                self._calls_under("geodesics.chart_metric",
                                  "geodesics.geodesic_oracle", name, parent),
                oracle_steps),
            "geodesics.oracle_deviation.s":
                total("geodesics.oracle_deviation"),
            "geodesics.speed.s": total("geodesics.speed"),
            "domain.tube_point.calls": calls("domain.tube_point"),
            "domain.exp_frame.calls": calls("domain.exp_frame"),
            "charges.factor_path.s": total("charges.factor_path"),
            "charges.factor_path.samples": int(c["factor_samples"]),
            "domain.enumerate_walls_region.rho1_s": c["walls_rho1_s"],
            "domain.enumerate_walls_region.rho2_s": c["walls_rho2_s"],
            "domain.enumerate_walls_region.rho3_s": c["walls_rho3_s"],
            "domain.wall_meets_box.calls": calls("domain.wall_meets_box"),
            "domain.wall_meets_box.hit_ratio": ratio(
                c["wall_hits"], calls("domain.wall_meets_box")),
            "shortvec.short_vectors.s": total("shortvec.short_vectors"),
            "shortvec.short_vectors.returned": int(c["short_returned"]),
            "serialize.bytes_written": int(c["bytes_written"]),
            "trace.overhead_ratio": overhead_ratio,
            "trace.spans": len(dur),
        })
        return out

    def _calls_under(self, child: str, ancestor: str, name, parent) -> int:
        """Spans of ``child`` with an ``ancestor`` span above them."""
        ci, ai = self._index.get(child), self._index.get(ancestor)
        if ci is None or ai is None:
            return 0
        rows = np.flatnonzero(name == ci)
        up = parent[rows]
        inside = np.zeros(len(rows), dtype=bool)
        while np.any(up >= 0):
            live = up >= 0
            inside[live] |= name[up[live]] == ai
            up = np.where(live, parent[np.maximum(up, 0)], -1)
        return int(inside.sum())
