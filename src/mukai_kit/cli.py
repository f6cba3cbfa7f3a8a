"""Batch command-line front end.

Subcommands: lattice | roots | walls | cusps | geodesic | factor |
threshold | degenerate | beta-search.  A JSON config file supplies
defaults; explicit flags win.  Exit codes: 0 ok, 1 verification failure,
2 bad input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import ConfigError, MukaiKitError
from . import charges, cusps, domain, geodesics, lattice, serialize


def _load_lattice(cfg: dict) -> lattice.IntegerLattice:
    if cfg.get("preset"):
        return lattice.preset(cfg["preset"])
    if cfg.get("lattice"):
        src = cfg["lattice"]
        if isinstance(src, str):
            with open(src) as fh:
                src = json.load(fh)
        if not isinstance(src, dict):
            raise ConfigError("a lattice file holds a JSON object")
        return lattice.make_lattice(_nested("gram", src["gram"], 2),
                                    src.get("label", ""),
                                    bool(src.get("mukai", False)))
    if cfg.get("gram"):
        return lattice.make_lattice(_cfg_list(cfg, "gram", depth=2),
                                    mukai=bool(cfg.get("mukai", False)))
    raise ConfigError("no lattice given: use --preset, --lattice or --gram")


_KINDS = {int: "an integer", Fraction: "a rational number",
          float: "a finite number"}


def _nested(key: str, val, depth: int, kind=int):
    """val as a ``kind`` (int, Fraction or float), or as lists nested
    ``depth`` deep of them.  A leaf is an int, float or string: int takes
    integral floats and decimal-integer strings, Fraction reads the number
    as written (0.1 is 1/10), float must be finite.  Bools, other values
    and wrong shapes raise ConfigError."""
    if depth:
        if not isinstance(val, list):
            raise ConfigError(f"{key} must be a list, got {val}")
        return [_nested(f"{key}[{i}]", x, depth - 1, kind)
                for i, x in enumerate(val)]
    if isinstance(val, (int, float, str)) and not isinstance(val, bool) \
            and not (kind is int and isinstance(val, float) and val % 1):
        with contextlib.suppress(ValueError, OverflowError):
            x = kind(str(val) if kind is Fraction else val)
            if kind is not float or math.isfinite(x):
                return x
    raise ConfigError(f"{key} must be {_KINDS[kind]}, got {val}")


def _cfg_int(cfg: dict, key: str, default) -> int:
    """cfg[key] (or ``default``) as an int."""
    return _nested(key, cfg.get(key, default), 0)


def _cfg_list(cfg: dict, key: str, default=None, depth: int = 1,
              kind=int) -> list:
    """cfg[key] (or ``default``), JSON text or lists, as ``kind`` values
    ``depth`` deep."""
    val = cfg.get(key, default)
    return _nested(key, json.loads(val) if isinstance(val, str) else val,
                   depth, kind)


def _job_hash(cfg: dict) -> str:
    """Hash of the compute-relevant config (output destination excluded)."""
    core = {k: v for k, v in cfg.items() if k not in ("out",)}
    return serialize.config_hash(core)


def _emit(command: str, cfg: dict, payload: dict, table: str | None = None):
    fmt = cfg.get("format", "json")
    formats = ["json"] + [f for f in ("csv", "svg") if f"_{f}" in payload]
    if fmt not in formats:
        raise ConfigError(f"{command} has no {fmt} output; its formats are "
                          + ", ".join(formats))
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_hash"] = _job_hash(cfg)
    out = cfg.get("out")
    if table:
        print(table)
    if out:
        if fmt == "json":
            serialize.atomic_write(out, serialize.pretty_json(payload))
        else:
            serialize.atomic_write(out, payload[f"_{fmt}"])
    elif not table:
        print(serialize.pretty_json(payload), end="")


def _v0_split(lat) -> domain.HyperbolicSplit:
    if not lat.mukai:
        raise ConfigError("this command needs an (r, NS, s)-form lattice")
    v0 = lat.vector([0] * (lat.rank - 1) + [1])
    return domain.split_at(v0)


# -- subcommands ------------------------------------------------------------

def cmd_lattice(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    disc = lattice.discriminant_group(lat)
    p, q = lat.signature
    payload = {
        "label": lat.label, "rank": lat.rank, "signature": [p, q],
        "det": lat.det, "disc_group": disc, "even": lat.is_even,
        "gram": lat.gram_rows(),
    }
    disc_str = " x ".join(f"Z/{d}" for d in disc) or "trivial"
    table = (f"{lat.label or 'lattice'}: rank {lat.rank}, "
             f"signature ({p},{q}), det {lat.det}, disc {disc_str}")
    _emit("lattice", cfg, payload, table if cfg.get("out") else None)
    return 0


def cmd_roots(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    bound = _cfg_int(cfg, "root_bound", 4)
    roots = lattice.vectors_of_norm(lat, -2, bound).tolist()
    payload = {"root_bound": bound, "roots": roots}
    payload["_csv"] = serialize.csv_text(
        [f"c{i}" for i in range(lat.rank)], roots,
        meta={"config_hash": _job_hash(cfg),
              "version": __version__})
    _emit("roots", cfg, payload)
    return 0


def _parse_box(cfg: dict, split) -> tuple[dict, domain.TubeBox]:
    """The --box object and the chart box it names."""
    box = cfg.get("box")
    if box is None:
        raise ConfigError("walls need --box")
    if isinstance(box, str):
        box = json.loads(box)
    if not isinstance(box, dict):
        raise ConfigError("box must be a JSON object {a_lo, a_hi, b_lo, b_hi}")
    return box, domain.TubeBox.make(split, *(
        _nested(f"box.{key}", box[key], 1, Fraction)
        for key in ("a_lo", "a_hi", "b_lo", "b_hi")))


def _chamber_ids(signs: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """One id per distinct sign row among the rows ``inside``, numbered by
    first appearance; -1 for the rows outside."""
    ids = np.full(len(signs), -1)
    if inside.any():
        _, first, inv = np.unique(signs[inside], axis=0, return_index=True,
                                  return_inverse=True)
        ids[inside] = np.argsort(np.argsort(first))[inv]
    return ids


def cmd_walls(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    sp = _v0_split(lat)
    raw_box, box = _parse_box(cfg, sp)
    found = domain.enumerate_walls_region(sp, box)
    walls = [w for w in found if not w.undecided]
    undecided = [w for w in found if w.undecided]
    payload = {"walls": [w.to_json() for w in walls], "box": raw_box}
    meta = {"config_hash": _job_hash(cfg), "version": __version__}
    if undecided:
        payload["undecided_walls"] = [w.to_json() for w in undecided]
        meta["undecided_walls"] = len(undecided)
    if cfg.get("format") == "csv":
        # raster of chamber ids over a 2D slice (first a- and b-coordinates
        # vary; all others pinned to the box midpoint), from the signs of
        # Im(z.delta) = b^T G_L (lam - d a); -1 where y^2 <= 0
        grid = _cfg_int(cfg, "samples", 32)
        a_mid, b_mid = box.center()
        a = np.tile([float(x) for x in a_mid], (grid * grid, 1))
        b = np.tile([float(x) for x in b_mid], (grid * grid, 1))
        a_axis = np.linspace(float(box.a_lo[0]), float(box.a_hi[0]), grid)
        b_axis = np.linspace(float(box.b_lo[0]), float(box.b_hi[0]), grid)
        a[:, 0] = np.tile(a_axis, grid)
        b[:, 0] = np.repeat(b_axis, grid)
        gl = sp.gram_L_np()
        bg = b @ gl
        y2 = np.einsum("pi,pi->p", bg, b)
        signs = np.zeros((grid * grid, len(walls)), dtype=int)
        for k, w in enumerate(walls):
            _, d, lam = sp.root_data(w.root)
            im = np.einsum("pi,pi->p", bg, np.array(lam, dtype=float) - d * a)
            signs[:, k] = np.sign(im)
        a_txt, b_txt = ([float.__repr__(x) for x in axis.tolist()]
                        for axis in (a_axis, b_axis))
        rows = zip(a_txt * grid, [x for x in b_txt for _ in a_txt],
                   _chamber_ids(signs, y2 > 0).tolist())
        payload["_csv"] = serialize.csv_text(["a0", "b0", "chamber_id"],
                                             rows, meta=meta)
    if cfg.get("format") == "svg":
        # 2D slice: first a- and b-coordinates vary, the rest pinned at the
        # box midpoint; line art only
        segs = []
        a_mid, b_mid = box.center()
        for w in walls:
            c, d, lam = sp.root_data(w.root)
            if w.kind in ("A", "D") and d != 0 and sp.rho == 1:
                m = sp.gram_L[0][0]
                a = float(Fraction(lam[0], d))
                btip = (2.0 / (m * d * d)) ** 0.5
                b0 = float(box.b_lo[0])
                segs.append(((a, b0), (a, btip), w.kind))
            elif w.kind == "C":
                # the wall omega.l = 0 restricted to the slice is the
                # horizontal line of b0 where (G_L lam).b = 0
                gl_lam = [sum(g * x for g, x in zip(row, lam))
                          for row in sp.gram_L]
                if gl_lam[0] == 0:
                    continue
                b0 = -sum(g * float(b) for g, b in
                          zip(gl_lam[1:], b_mid[1:])) / gl_lam[0]
                if float(box.b_lo[0]) <= b0 <= float(box.b_hi[0]):
                    segs.append(((float(box.a_lo[0]), b0),
                                 (float(box.a_hi[0]), b0), "C"))
        payload["_svg"] = serialize.svg_segments(segs, meta=meta)
    _emit("walls", cfg, payload)
    return 0


def cmd_cusps(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    height = _cfg_int(cfg, "height", 20)
    bound = _cfg_int(cfg, "root_bound", 8)
    depth = _cfg_int(cfg, "word_depth", 6)
    fn = (cusps.standard_cusp_census if cfg.get("standard_only")
          else cusps.cusp_census)
    report = fn(lat, height, word_depth=depth, root_bound=bound)
    payload = report.to_json()
    rows = [f"  div {r.div}: rep {list(r.rep.coords)}, orbit size "
            f"{r.orbit_size_found}, disc {list(r.disc_group)}"
            for r in report.records]
    table = (f"census of {lat.label or 'lattice'} at height {height}: "
             f"{report.count} classes\n" + "\n".join(rows))
    _emit("cusps", cfg, payload, table if cfg.get("out") else None)
    return 0


def cmd_geodesic(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    sp = _v0_split(lat)
    x0 = _cfg_list(cfg, "x0", "[0.0]", kind=float)
    y0 = _cfg_list(cfg, "y0", "[1.0]", kind=float)
    t_max = _nested("t_max", cfg.get("t_max", 2.0), 0, float)
    steps = _cfg_int(cfg, "steps", 1000)
    tol = _nested("tol", cfg.get("tol", 1e-6), 0, float)
    pt = domain.tube_point(sp, x0, y0)
    result = geodesics.geodesic_oracle(pt, t_max, steps)
    dev = geodesics.oracle_deviation(pt, result)
    speeds = geodesics.speed(pt, np.linspace(0.0, t_max, 5)).tolist()
    stride = max(1, steps // 100)
    ts = result.ts[::stride]
    rows = [(t,) + tuple(row) + (s,) for t, row, s in zip(
        ts.tolist(), result.chart[::stride].tolist(),
        geodesics.speed(pt, ts).tolist())]
    payload = {
        "report": {"max_dev": dev, "tol": tol, "steps": steps,
                   "energy_drift": result.energy_drift,
                   "speed_samples": speeds},
        "samples": rows,
    }
    payload["_csv"] = serialize.csv_text(
        ["t"] + [f"a{i}" for i in range(sp.rho)]
        + [f"b{i}" for i in range(sp.rho)] + ["speed"],
        rows, meta={"config_hash": _job_hash(cfg),
                    "version": __version__})
    _emit("geodesic", cfg, payload)
    return 0 if dev <= tol else 1


def cmd_factor(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    sp = _v0_split(lat)
    samples = []
    if cfg.get("path_spec"):
        spec = cfg["path_spec"]
        if isinstance(spec, str):
            with open(spec) as fh:
                spec = json.load(fh)
        if spec.get("kind") != "linear_degeneration":
            raise ConfigError("path-spec supports kind linear_degeneration")
        path = geodesics.linear_degeneration(
            sp, _cfg_list(spec, "x0", kind=float),
            _cfg_list(spec, "y0", kind=float))
        ts = np.linspace(_nested("t0", spec.get("t0", 1.0), 0, float),
                         _nested("t1", spec.get("t1", 4.0), 0, float),
                         _cfg_int(spec, "samples", 100))
        samples = list(zip(ts.tolist(), domain.exp_frame(path.at(ts)).z))
    elif cfg.get("path"):
        n, rows = lat.rank, []
        with open(cfg["path"]) as fh:
            for i, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("t,"):
                    continue
                row = [float(x) for x in line.split(",")]
                if len(row) != 1 + 2 * n:
                    raise ConfigError(f"path line {i} has {len(row)} columns,"
                                      f" not 1 + 2 * rank = {1 + 2 * n}")
                rows.append(row)
        vals = np.array(rows).reshape(len(rows), 1 + 2 * n)
        samples = list(zip(vals[:, 0].tolist(),
                           vals[:, 1:1 + n] + 1j * vals[:, 1 + n:]))
    else:
        raise ConfigError("factor needs --path CSV or --path-spec JSON")
    if not samples:
        raise ConfigError("factor needs at least one path sample")
    res = charges.factor_path(samples, sp)
    tol = _nested("tol", cfg.get("tol", 1e-9), 0, float)
    payload = {
        "max_residual": res.max_residual,
        "tol": tol,
        "trace": [{"t": t, "T": g.t, "phi": g.phi0}
                  for t, g in zip(res.ts, res.lifts)],
        "winding": res.lifts[-1].phi0 - res.lifts[0].phi0,
    }
    _emit("factor", cfg, payload)
    return 0 if res.max_residual <= tol else 1


def cmd_threshold(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    vE = lat.vector(_cfg_list(cfg, "vE"))
    h = _cfg_list(cfg, "h", "[1]")
    if cfg.get("candidates"):
        cands = [lat.vector(c)
                 for c in _cfg_list(cfg, "candidates", depth=2)]
    else:
        r_max = _cfg_int(cfg, "cand_rank", vE.coords[0])
        cands = charges.candidate_box(lat, r_max,
                                      _cfg_int(cfg, "cand_c", 2),
                                      _cfg_int(cfg, "cand_s", 2))
    n0, certs = charges.large_volume_threshold(vE, cands, h)
    # confirm at the boundary: holds for [n0, n0+100], fails at n0 - 1
    *above, below = charges.threshold_holds(vE, cands, h,
                                            (n0, n0 + 37, n0 + 100, n0 - 1))
    confirmed = all(map(all, above)) and (n0 == 1 or not all(below))
    payload = {"n0": n0, "confirmed": confirmed,
               "certificates": [c.to_json() for c in certs]}
    _emit("threshold", cfg, payload)
    return 0 if confirmed else 1


def cmd_degenerate(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    sp = _v0_split(lat)
    x0 = _cfg_list(cfg, "x0", "[0.0]", kind=float)
    y0 = _cfg_list(cfg, "y0", "[1.0]", kind=float)
    t0 = _nested("t0", cfg.get("t0", 1.0), 0, float)
    t1 = _nested("t1", cfg.get("t1", 10.0), 0, float)
    n = _cfg_int(cfg, "samples", 50)
    ts = np.linspace(t0, t1, n)
    pts = geodesics.linear_degeneration(sp, x0, y0).at(ts)
    a, b = pts.chart()
    rows = [(t,) + tuple(ai) + tuple(bi) + (y2,) for t, ai, bi, y2 in zip(
        ts.tolist(), a.tolist(), b.tolist(), pts.y_norm2().tolist())]
    payload = {"samples": rows}
    payload["_csv"] = serialize.csv_text(
        ["t"] + [f"a{i}" for i in range(sp.rho)]
        + [f"b{i}" for i in range(sp.rho)] + ["y2"],
        rows, meta={"config_hash": _job_hash(cfg),
                    "version": __version__})
    _emit("degenerate", cfg, payload)
    return 0


def cmd_beta_search(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    c_root = lat.vector(_cfg_list(cfg, "c_root"))
    k = _cfg_int(cfg, "k", 0)
    eta = _cfg_list(cfg, "eta", kind=Fraction)
    bound = _cfg_int(cfg, "root_bound", 8)
    cert = charges.boundary_beta_search(lat, c_root, k, eta,
                                        coord_bound=bound)
    _emit("beta-search", cfg, {"certificate": cert.to_json()})
    return 0


_COMMANDS = {
    "lattice": cmd_lattice,
    "roots": cmd_roots,
    "walls": cmd_walls,
    "cusps": cmd_cusps,
    "geodesic": cmd_geodesic,
    "factor": cmd_factor,
    "threshold": cmd_threshold,
    "degenerate": cmd_degenerate,
    "beta-search": cmd_beta_search,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mukai-kit",
        description="lattice toolkit for K3 Kahler moduli")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file (flags win)")
        sp.add_argument("--preset")
        sp.add_argument("--lattice", help="lattice JSON file")
        sp.add_argument("--gram", help="inline Gram matrix JSON")
        sp.add_argument("--mukai", action="store_true", default=None)
        sp.add_argument("--height", type=int)
        sp.add_argument("--root-bound", dest="root_bound", type=int)
        sp.add_argument("--word-depth", dest="word_depth", type=int)
        sp.add_argument("--standard-only", dest="standard_only",
                        action="store_true", default=None)
        sp.add_argument("--box", help="JSON {a_lo, a_hi, b_lo, b_hi}")
        sp.add_argument("--tol", type=float)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=["json", "csv", "svg"])
        sp.add_argument("--x0")
        sp.add_argument("--y0")
        sp.add_argument("--t-max", dest="t_max", type=float)
        sp.add_argument("--t0", type=float)
        sp.add_argument("--t1", type=float)
        sp.add_argument("--steps", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--path", help="CSV path samples for factor")
        sp.add_argument("--path-spec", dest="path_spec",
                        help="PathSpec JSON for factor")
        sp.add_argument("--vE")
        sp.add_argument("--h")
        sp.add_argument("--candidates")
        sp.add_argument("--cand-rank", dest="cand_rank", type=int)
        sp.add_argument("--cand-c", dest="cand_c", type=int)
        sp.add_argument("--cand-s", dest="cand_s", type=int)
        sp.add_argument("--c-root", dest="c_root")
        sp.add_argument("--k", type=int)
        sp.add_argument("--eta")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        cfg[key] = val
    try:
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MukaiKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"bad input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
