"""Batch command-line front end.

Subcommands: lattice | roots | walls | cusps | geodesic | factor |
threshold | degenerate | beta-search.  A JSON config file supplies
defaults; explicit flags win.  Exit codes: 0 ok, 1 verification failure,
2 bad input.
"""

from __future__ import annotations

import argparse
import json
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
        gram = src["gram"]
        return lattice.make_lattice(gram, src.get("label", ""),
                                    bool(src.get("mukai", False)))
    if cfg.get("gram"):
        return lattice.make_lattice(json.loads(cfg["gram"]),
                                    mukai=bool(cfg.get("mukai", False)))
    raise ConfigError("no lattice given: use --preset, --lattice or --gram")


def _job_hash(cfg: dict) -> str:
    """Hash of the compute-relevant config (output destination excluded)."""
    core = {k: v for k, v in cfg.items() if k not in ("out",)}
    return serialize.config_hash(core)


def _emit(cfg: dict, payload: dict, text_table: str | None = None):
    payload = dict(payload)
    payload["version"] = __version__
    payload["config_hash"] = _job_hash(cfg)
    out = cfg.get("out")
    fmt = cfg.get("format", "json")
    if text_table:
        print(text_table)
    if out:
        if fmt == "json":
            serialize.atomic_write(out, serialize.pretty_json(payload))
        elif fmt == "csv":
            serialize.atomic_write(out, payload["_csv"])
        elif fmt == "svg":
            serialize.atomic_write(out, payload["_svg"])
        else:
            raise ConfigError(f"unknown format {fmt!r}")
    elif not text_table:
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
    _emit(cfg, payload, table if cfg.get("out") else None)
    return 0


def cmd_roots(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    bound = int(cfg.get("root_bound", 4))
    roots = lattice.roots_in_box(lat, bound)
    payload = {"root_bound": bound,
               "roots": [list(r.vec.coords) for r in roots]}
    payload["_csv"] = serialize.csv_text(
        [f"c{i}" for i in range(lat.rank)],
        [r.vec.coords for r in roots],
        meta={"config_hash": _job_hash(cfg),
              "version": __version__})
    _emit(cfg, payload)
    return 0


def _parse_box(cfg: dict, split) -> domain.TubeBox:
    box = cfg.get("box")
    if box is None:
        raise ConfigError("walls need --box")
    if isinstance(box, str):
        box = json.loads(box)
    return domain.TubeBox.make(split,
                               [Fraction(str(x)) for x in box["a_lo"]],
                               [Fraction(str(x)) for x in box["a_hi"]],
                               [Fraction(str(x)) for x in box["b_lo"]],
                               [Fraction(str(x)) for x in box["b_hi"]])


def cmd_walls(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    sp = _v0_split(lat)
    box = _parse_box(cfg, sp)
    walls = domain.enumerate_walls_region(sp, box)
    payload = {"walls": [w.to_json() for w in walls],
               "box": json.loads(cfg["box"]) if isinstance(cfg.get("box"), str)
               else cfg.get("box")}
    if cfg.get("format") == "csv":
        # raster of chamber ids over a 2D slice (first a- and b-coordinates
        # vary; all others pinned to the box midpoint)
        grid = int(cfg.get("samples", 32))
        a_mid, b_mid = box.center()
        a_axis = np.linspace(float(box.a_lo[0]), float(box.a_hi[0]), grid)
        b_axis = np.linspace(float(box.b_lo[0]), float(box.b_hi[0]), grid)
        gm = domain.gram_np(lat)
        ids: dict[tuple, int] = {}
        rows = []
        for bb in b_axis:
            for aa in a_axis:
                a_vec = [aa] + [float(x) for x in a_mid[1:]]
                b_vec = [bb] + [float(x) for x in b_mid[1:]]
                try:
                    fr = domain.exp_frame(domain.tube_point(sp, a_vec, b_vec))
                except Exception:
                    rows.append((float(aa), float(bb), -1))
                    continue
                signs = []
                for w in walls:
                    val = complex(fr.z @ gm
                                  @ np.array(w.root.coords, dtype=float))
                    signs.append(1 if val.imag > 0 else
                                 (-1 if val.imag < 0 else 0))
                key = tuple(signs)
                ids.setdefault(key, len(ids))
                rows.append((float(aa), float(bb), ids[key]))
        payload["_csv"] = serialize.csv_text(
            ["a0", "b0", "chamber_id"], rows,
            meta={"config_hash": _job_hash(cfg), "version": __version__})
    if cfg.get("format") == "svg":
        # 2D slice: first a- and b-coordinates vary, the rest pinned at the
        # box midpoint; line art only
        segs = []
        a_mid, b_mid = box.center()
        glf = sp.gram_L_np()
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
                # horizontal line b0 = rhs / coef
                gl_lam = glf @ np.array([float(x) for x in lam])
                coef = gl_lam[0]
                if abs(coef) < 1e-12:
                    continue
                rhs = -sum(gl_lam[j] * float(b_mid[j])
                           for j in range(1, sp.rho))
                b0 = rhs / coef
                if float(box.b_lo[0]) <= b0 <= float(box.b_hi[0]):
                    segs.append(((float(box.a_lo[0]), b0),
                                 (float(box.a_hi[0]), b0), "C"))
        payload["_svg"] = serialize.svg_segments(
            segs, meta={"config_hash": _job_hash(cfg),
                        "version": __version__})
    _emit(cfg, payload)
    return 0


def cmd_cusps(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    height = int(cfg.get("height", 20))
    bound = int(cfg.get("root_bound", 8))
    depth = int(cfg.get("word_depth", 6))
    fn = (cusps.standard_cusp_census if cfg.get("standard_only")
          else cusps.cusp_census)
    report = fn(lat, height, word_depth=depth, root_bound=bound)
    payload = report.to_json()
    rows = [f"  div {r.div}: rep {list(r.rep.coords)}, orbit size "
            f"{r.orbit_size_found}, disc {list(r.disc_group)}"
            for r in report.records]
    table = (f"census of {lat.label or 'lattice'} at height {height}: "
             f"{report.count} classes\n" + "\n".join(rows))
    _emit(cfg, payload, table if cfg.get("out") else None)
    return 0


def cmd_geodesic(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    sp = _v0_split(lat)
    x0 = json.loads(str(cfg.get("x0", "[0.0]")))
    y0 = json.loads(str(cfg.get("y0", "[1.0]")))
    t_max = float(cfg.get("t_max", 2.0))
    steps = int(cfg.get("steps", 1000))
    tol = float(cfg.get("tol", 1e-6))
    pt = domain.tube_point(sp, x0, y0)
    result = geodesics.geodesic_oracle(pt, t_max, steps)
    dev = geodesics.oracle_deviation(pt, result)
    speeds = [geodesics.speed(pt, t)
              for t in np.linspace(0.0, t_max, 5)]
    stride = max(1, steps // 100)
    rows = []
    for t, row in list(zip(result.ts, result.chart))[::stride]:
        rows.append((float(t),) + tuple(float(c) for c in row)
                    + (geodesics.speed(pt, float(t)),))
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
    _emit(cfg, payload)
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
        path = geodesics.linear_degeneration(sp, spec["x0"], spec["y0"])
        for t in np.linspace(float(spec.get("t0", 1.0)),
                             float(spec.get("t1", 4.0)),
                             int(spec.get("samples", 100))):
            samples.append((float(t), domain.exp_frame(path.at(float(t))).z))
    elif cfg.get("path"):
        with open(cfg["path"]) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#") or line.startswith("t,"):
                    continue
                vals = [float(x) for x in line.split(",")]
                t = vals[0]
                n = lat.rank
                z = (np.array(vals[1:1 + n])
                     + 1j * np.array(vals[1 + n:1 + 2 * n]))
                samples.append((t, z))
    else:
        raise ConfigError("factor needs --path CSV or --path-spec JSON")
    res = charges.factor_path(samples, sp)
    tol = float(cfg.get("tol", 1e-9))
    payload = {
        "max_residual": res.max_residual,
        "tol": tol,
        "trace": [{"t": t, "T": [list(r) for r in g.t],
                   "phi": g.phi0} for t, g in zip(res.ts, res.lifts)],
        "winding": res.lifts[-1].phi0 - res.lifts[0].phi0,
    }
    _emit(cfg, payload)
    return 0 if res.max_residual <= tol else 1


def cmd_threshold(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    vE = lat.vector(json.loads(str(cfg["vE"])))
    h = json.loads(str(cfg.get("h", "[1]")))
    if cfg.get("candidates"):
        cands = [lat.vector(c) for c in json.loads(str(cfg["candidates"]))]
    else:
        r_max = int(cfg.get("cand_rank", vE.coords[0]))
        cands = charges.candidate_box(lat, r_max,
                                      int(cfg.get("cand_c", 2)),
                                      int(cfg.get("cand_s", 2)))
    n0, certs = charges.large_volume_threshold(vE, cands, h)
    # confirm at the boundary: holds for [n0, n0+100], fails at n0 - 1
    confirmed = all(
        charges.threshold_inequality_holds(vE, c.candidate, h, n)
        for c in certs for n in (n0, n0 + 37, n0 + 100))
    fails_below = n0 == 1 or any(
        not charges.threshold_inequality_holds(vE, c.candidate, h, n0 - 1)
        for c in certs)
    payload = {"n0": n0, "confirmed": bool(confirmed and fails_below),
               "certificates": [c.to_json() for c in certs]}
    _emit(cfg, payload)
    return 0 if confirmed and fails_below else 1


def cmd_degenerate(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    sp = _v0_split(lat)
    x0 = json.loads(str(cfg.get("x0", "[0.0]")))
    y0 = json.loads(str(cfg.get("y0", "[1.0]")))
    t0 = float(cfg.get("t0", 1.0))
    t1 = float(cfg.get("t1", 10.0))
    n = int(cfg.get("samples", 50))
    path = geodesics.linear_degeneration(sp, x0, y0)
    rows = []
    for t in np.linspace(t0, t1, n):
        pt = path.at(float(t))
        a, b = pt.chart()
        rows.append((float(t),) + tuple(map(float, a)) + tuple(map(float, b))
                    + (pt.y_norm2(),))
    payload = {"samples": rows}
    payload["_csv"] = serialize.csv_text(
        ["t"] + [f"a{i}" for i in range(sp.rho)]
        + [f"b{i}" for i in range(sp.rho)] + ["y2"],
        rows, meta={"config_hash": _job_hash(cfg),
                    "version": __version__})
    _emit(cfg, payload)
    return 0


def cmd_beta_search(cfg: dict) -> int:
    lat = _load_lattice(cfg)
    c_root = lat.vector(json.loads(str(cfg["c_root"])))
    k = int(cfg.get("k", 0))
    eta = [Fraction(str(x)) for x in json.loads(str(cfg["eta"]))]
    bound = int(cfg.get("root_bound", 8))
    cert = charges.boundary_beta_search(lat, c_root, k, eta,
                                        coord_bound=bound)
    _emit(cfg, {"certificate": cert.to_json()})
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
    except (KeyError, ValueError, OSError) as exc:
        print(f"bad input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
