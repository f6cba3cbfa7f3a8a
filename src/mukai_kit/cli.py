"""Batch command-line front end.

Subcommands: lattice | roots | walls | cusps | geodesic | factor |
threshold | degenerate | beta-search, all sharing one set of flags.  A JSON
config file supplies defaults; explicit flags win.  A subcommand only
computes its payload; ``main`` loads the lattice, stamps the job with its
config hash and version, and writes the payload: to ``--out`` in the
``--format`` asked (printing the summary table, if the command has one),
else as JSON to stdout.  Exit codes: 0 ok, 1 verification failure, 2 bad
input.
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
from . import intlinalg as ila


def _json_object(name: str, val, inline: bool = False) -> dict:
    """``val`` as a JSON object: a dict as it is, a string as the path of a
    JSON file or, if ``inline``, as JSON text.  Any other JSON value raises
    ConfigError."""
    if isinstance(val, str):
        if inline:
            val = json.loads(val)
        else:
            with open(val) as fh:
                val = json.load(fh)
    if not isinstance(val, dict):
        raise ConfigError(f"{name} must be a JSON object, "
                          f"got {type(val).__name__}")
    return val


def _load_lattice(cfg: dict) -> lattice.IntegerLattice:
    if cfg.get("preset"):
        return lattice.preset(cfg["preset"])
    if cfg.get("lattice"):
        src = _json_object("a lattice file", cfg["lattice"])
        if "gram" not in src:
            raise ConfigError("a lattice file needs gram")
        return lattice.make_lattice(_nested("gram", src["gram"], 2),
                                    src.get("label", ""),
                                    bool(src.get("mukai", False)))
    if cfg.get("gram"):
        return lattice.make_lattice(_cfg(cfg, "gram", depth=2),
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
        with contextlib.suppress(ArithmeticError, ValueError):
            x = kind(str(val) if kind is Fraction else val)
            if kind is not float or math.isfinite(x):
                return x
    raise ConfigError(f"{key} must be {_KINDS[kind]}, got {val}")


def _cfg(cfg: dict, key: str, default=None, depth: int = 0, kind=int):
    """cfg[key] (or ``default``) as ``_nested`` reads it; at depth > 0 a
    string is JSON text of the lists."""
    val = cfg.get(key, default)
    if depth and isinstance(val, str):
        val = json.loads(val)
    return _nested(key, val, depth, kind)


def _chart_start(cfg: dict, sp, x0=None, y0=None) -> list[list[float]]:
    """cfg's x0 and y0 (or the defaults) as chart vectors of length rho."""
    vecs = [_cfg(cfg, k, d, depth=1, kind=float) for k, d in
            (("x0", x0), ("y0", y0))]
    for key, vec in zip(("x0", "y0"), vecs):
        if len(vec) != sp.rho:
            raise ConfigError(f"{key} has {len(vec)} entries, but the chart "
                              f"has rho = {sp.rho}")
    return vecs


def _meta(cfg: dict) -> dict:
    """The hash of the compute-relevant config (output destination
    excluded) and the version, which every output carries."""
    core = {k: v for k, v in cfg.items() if k != "out"}
    return {"config_hash": serialize.config_hash(core),
            "version": __version__}


def _emit(command: str, cfg: dict, meta: dict, payload: dict,
          table: str | None):
    """Write the payload, stamped with the job's ``meta``, as ``--format``
    asks to ``--out`` after printing the summary ``table``; without
    ``--out``, print the payload's JSON instead."""
    fmt = cfg.get("format", "json")
    formats = ["json"] + [f for f in ("csv", "svg") if f"_{f}" in payload]
    if fmt not in formats:
        raise ConfigError(f"{command} has no {fmt} output; its formats are "
                          + ", ".join(formats))
    payload = {**payload, "config_hash": meta["config_hash"],
               "version": meta["version"]}
    out = cfg.get("out")
    if not out:
        print(serialize.pretty_json(payload), end="")
        return
    if table:
        print(table)
    serialize.atomic_write(out, serialize.pretty_json(payload)
                           if fmt == "json" else payload[f"_{fmt}"])


def _v0_split(lat) -> domain.HyperbolicSplit:
    if not lat.mukai:
        raise ConfigError("this command needs an (r, NS, s)-form lattice")
    v0 = lat.vector([0] * (lat.rank - 1) + [1])
    return domain.split_at(v0)


# -- subcommands: cmd_x(cfg, lat, meta) -> (payload, table, exit code) -----

def cmd_lattice(cfg: dict, lat, meta: dict):
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
    return payload, table, 0


def cmd_roots(cfg: dict, lat, meta: dict):
    bound = _cfg(cfg, "root_bound", 4)
    roots = serialize.Table(lattice.vectors_of_norm(lat, -2, bound))
    payload = {"root_bound": bound, "roots": roots, "_csv": serialize.csv_text(
        [f"c{i}" for i in range(lat.rank)], roots, meta=meta)}
    return payload, None, 0


def _parse_box(cfg: dict, split) -> tuple[dict, domain.TubeBox]:
    """The --box object and the chart box it names."""
    if cfg.get("box") is None:
        raise ConfigError("walls need --box")
    box = _json_object("box", cfg["box"], inline=True)
    keys = ("a_lo", "a_hi", "b_lo", "b_hi")
    if missing := [key for key in keys if key not in box]:
        raise ConfigError(f"box needs {', '.join(missing)}")
    return box, domain.TubeBox.make(split, *(
        _nested(f"box.{key}", box[key], 1, Fraction) for key in keys))


def _chamber_ids(signs: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """One id per distinct sign row among the rows ``inside``, numbered by
    first appearance; -1 for the rows outside."""
    # one void key per int8 row, behind a zero column so that a box without
    # walls still has 1-byte keys; return_index gives first appearances
    rows = np.zeros((int(inside.sum()), signs.shape[1] + 1), dtype=np.int8)
    rows[:, 1:] = signs[inside]
    keys = rows.view(np.dtype((np.void, rows.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    ids = np.full(len(signs), -1)
    ids[inside] = np.argsort(np.argsort(first))[group]
    return ids


def _raster_csv(a_txt, b_txt, ids: list[int], meta: dict) -> str:
    """The raster CSV, a varying fastest, in one str.join over the axis
    texts and the int.__repr__ of the ids, each spelled once."""
    parts = ["\n"] * (4 * len(ids))
    parts[0::4] = [a + "," for a in a_txt] * len(b_txt)
    parts[1::4] = [b + "," for b in b_txt for _ in a_txt]
    parts[2::4] = map(int.__repr__, ids)
    return serialize.csv_text(["a0", "b0", "chamber_id"], [],
                              meta=meta) + "".join(parts)


def cmd_walls(cfg: dict, lat, meta: dict):
    sp = _v0_split(lat)
    raw_box, box = _parse_box(cfg, sp)
    found = domain.enumerate_walls_region(sp, box)
    walls = [w for w in found if not w.undecided]
    undecided = [w for w in found if w.undecided]
    payload = {"walls": [w.to_json() for w in walls], "box": raw_box}
    if undecided:
        payload["undecided_walls"] = [w.to_json() for w in undecided]
        meta["undecided_walls"] = len(undecided)
    if cfg.get("format") == "csv":
        # raster of chamber ids over a 2D slice (first a- and b-coordinates
        # vary; all others pinned to the box midpoint), from the signs of
        # Im(z.delta) = b^T G_L (lam - d a); -1 where y^2 <= 0
        grid = _cfg(cfg, "samples", 32)
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
        payload["_csv"] = _raster_csv(
            a_txt, b_txt, _chamber_ids(signs, y2 > 0).tolist(), meta)
    if cfg.get("format") == "svg":
        # 2D slice: first a- and b-coordinates vary, the rest pinned at the
        # box midpoint; line art only
        segs = []
        b_mid = box.center()[1]
        for w in walls:
            _, d, lam = sp.root_data(w.root)
            if w.kind in ("A", "D") and d != 0 and sp.rho == 1:
                m = sp.gram_L[0][0]
                a = float(Fraction(lam[0], d))
                btip = (2.0 / (m * d * d)) ** 0.5
                b0 = float(box.b_lo[0])
                segs.append(((a, b0), (a, btip), w.kind))
            elif w.kind == "C":
                # the wall omega.l = 0 restricted to the slice is the
                # horizontal line of b0 where (G_L lam).b = 0
                gl_lam = ila.mat_vec(sp.gram_L, lam)
                if gl_lam[0] == 0:
                    continue
                b0 = -sum(g * float(b) for g, b in
                          zip(gl_lam[1:], b_mid[1:])) / gl_lam[0]
                if float(box.b_lo[0]) <= b0 <= float(box.b_hi[0]):
                    segs.append(((float(box.a_lo[0]), b0),
                                 (float(box.a_hi[0]), b0), "C"))
        payload["_svg"] = serialize.svg_segments(segs, meta=meta)
    return payload, None, 0


def cmd_cusps(cfg: dict, lat, meta: dict):
    height = _cfg(cfg, "height", 20)
    bound = _cfg(cfg, "root_bound", 8)
    depth = _cfg(cfg, "word_depth", 6)
    fn = (cusps.standard_cusp_census if cfg.get("standard_only")
          else cusps.cusp_census)
    report = fn(lat, height, word_depth=depth, root_bound=bound)
    rows = [f"  div {r.div}: rep {list(r.rep.coords)}, orbit size "
            f"{r.orbit_size_found}, disc {list(r.disc_group)}"
            for r in report.records]
    table = (f"census of {lat.label or 'lattice'} at height {height}: "
             f"{report.count} classes\n" + "\n".join(rows))
    return report.to_json(), table, 0


def _chart_samples(sp, last: str, columns, meta: dict) -> dict:
    """The ``samples`` table of t, the chart's a and b and a ``last``
    column, and its CSV."""
    rows = serialize.Table(np.column_stack(columns))
    return {"samples": rows, "_csv": serialize.csv_text(
        ["t"] + [f"a{i}" for i in range(sp.rho)]
        + [f"b{i}" for i in range(sp.rho)] + [last], rows, meta=meta)}


def cmd_geodesic(cfg: dict, lat, meta: dict):
    sp = _v0_split(lat)
    x0, y0 = _chart_start(cfg, sp, "[0.0]", "[1.0]")
    t_max = _cfg(cfg, "t_max", 2.0, kind=float)
    steps = _cfg(cfg, "steps", 1000)
    tol = _cfg(cfg, "tol", 1e-6, kind=float)
    pt = domain.tube_point(sp, x0, y0)
    result = geodesics.geodesic_oracle(pt, t_max, steps)
    dev = geodesics.oracle_deviation(pt, result)
    stride = max(1, steps // 100)
    ts = result.ts[::stride]
    speeds = geodesics.speed(
        pt, np.concatenate([np.linspace(0.0, t_max, 5), ts]))
    payload = {
        "report": {"max_dev": dev, "tol": tol, "steps": steps,
                   "energy_drift": result.energy_drift,
                   "speed_samples": speeds[:5].tolist()},
        **_chart_samples(sp, "speed", [ts, result.chart[::stride],
                                       speeds[5:]], meta),
    }
    return payload, None, 0 if dev <= tol else 1


def cmd_factor(cfg: dict, lat, meta: dict):
    sp = _v0_split(lat)
    samples = []
    if cfg.get("path_spec"):
        spec = _json_object("a path-spec file", cfg["path_spec"])
        if spec.get("kind") != "linear_degeneration":
            raise ConfigError("path-spec supports kind linear_degeneration")
        path = geodesics.linear_degeneration(sp, *_chart_start(spec, sp))
        ts = np.linspace(_cfg(spec, "t0", 1.0, kind=float),
                         _cfg(spec, "t1", 4.0, kind=float),
                         _cfg(spec, "samples", 100))
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
    tol = _cfg(cfg, "tol", 1e-9, kind=float)
    payload = {
        "max_residual": res.max_residual,
        "tol": tol,
        "trace": [{"t": t, "T": g.t, "phi": g.phi0}
                  for t, g in zip(res.ts, res.lifts)],
        "winding": res.lifts[-1].phi0 - res.lifts[0].phi0,
    }
    return payload, None, 0 if res.max_residual <= tol else 1


def cmd_threshold(cfg: dict, lat, meta: dict):
    vE = lat.vector(_cfg(cfg, "vE", depth=1))
    h = _cfg(cfg, "h", "[1]", depth=1)
    if cfg.get("candidates"):
        cands = [lat.vector(c) for c in _cfg(cfg, "candidates", depth=2)]
    else:
        r_max = _cfg(cfg, "cand_rank", vE.coords[0])
        cands = charges.candidate_box(lat, r_max, _cfg(cfg, "cand_c", 2),
                                      _cfg(cfg, "cand_s", 2))
    n0, certs = charges.large_volume_threshold(vE, cands, h)
    # confirm at the boundary: holds for [n0, n0+100], fails at n0 - 1
    *above, below = charges.threshold_holds(vE, cands, h,
                                            (n0, n0 + 37, n0 + 100, n0 - 1))
    confirmed = all(map(all, above)) and (n0 == 1 or not all(below))
    payload = {"n0": n0, "confirmed": confirmed,
               "certificates": [c.to_json() for c in certs]}
    return payload, None, 0 if confirmed else 1


def cmd_degenerate(cfg: dict, lat, meta: dict):
    sp = _v0_split(lat)
    x0, y0 = _chart_start(cfg, sp, "[0.0]", "[1.0]")
    ts = np.linspace(_cfg(cfg, "t0", 1.0, kind=float),
                     _cfg(cfg, "t1", 10.0, kind=float),
                     _cfg(cfg, "samples", 50))
    pts = geodesics.linear_degeneration(sp, x0, y0).at(ts)
    a, b = pts.chart()
    return _chart_samples(sp, "y2", [ts, a, b, pts.y_norm2()], meta), None, 0


def cmd_beta_search(cfg: dict, lat, meta: dict):
    c_root = lat.vector(_cfg(cfg, "c_root", depth=1))
    k = _cfg(cfg, "k", 0)
    eta = _cfg(cfg, "eta", depth=1, kind=Fraction)
    bound = _cfg(cfg, "root_bound", 8)
    cert = charges.boundary_beta_search(lat, c_root, k, eta,
                                        coord_bound=bound)
    return {"certificate": cert.to_json()}, None, 0


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
    """One parser for every subcommand: all of them share the flags."""
    p = argparse.ArgumentParser(
        prog="mukai-kit",
        description="lattice toolkit for K3 Kahler moduli")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("command", choices=_COMMANDS)
    p.add_argument("--config", help="JSON config file (flags win)")
    p.add_argument("--preset")
    p.add_argument("--lattice", help="lattice JSON file")
    p.add_argument("--gram", help="inline Gram matrix JSON")
    p.add_argument("--mukai", action="store_true", default=None)
    p.add_argument("--height", type=int)
    p.add_argument("--root-bound", type=int)
    p.add_argument("--word-depth", type=int)
    p.add_argument("--standard-only", action="store_true", default=None)
    p.add_argument("--box", help="JSON {a_lo, a_hi, b_lo, b_hi}")
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv", "svg"])
    p.add_argument("--x0")
    p.add_argument("--y0")
    p.add_argument("--t-max", type=float)
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--path", help="CSV path samples for factor")
    p.add_argument("--path-spec", help="PathSpec JSON for factor")
    p.add_argument("--vE")
    p.add_argument("--h")
    p.add_argument("--candidates")
    p.add_argument("--cand-rank", type=int)
    p.add_argument("--cand-c", type=int)
    p.add_argument("--cand-s", type=int)
    p.add_argument("--c-root")
    p.add_argument("--k", type=int)
    p.add_argument("--eta")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _json_object("a config file", args.config) if args.config else {}
        cfg.update((key, val) for key, val in vars(args).items()
                   if key not in ("command", "config") and val is not None)
        lat = _load_lattice(cfg)
        meta = _meta(cfg)
        payload, table, code = _COMMANDS[args.command](cfg, lat, meta)
        _emit(args.command, cfg, meta, payload, table)
        return code
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
