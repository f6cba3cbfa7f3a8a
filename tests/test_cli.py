import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import mukai_kit as mk
from mukai_kit import domain as dm
from mukai_kit.cli import main


def run(args):
    return main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_lattice_summary(tmp_path, capsys):
    out = tmp_path / "lat.json"
    assert run(["lattice", "--preset", "mukai_rank1(3)",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["signature"] == [2, 1]
    assert data["det"] == -6
    assert data["disc_group"] == [6]
    table = capsys.readouterr().out
    assert "signature (2,1)" in table and "det -6" in table


def test_lattice_u(capsys):
    assert run(["lattice", "--preset", "U"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["signature"] == [1, 1] and data["det"] == -1
    assert data["disc_group"] == []


def test_bad_gram_exit_code(capsys):
    assert run(["lattice", "--gram", "[[0,1],[2,0]]"]) == 2
    assert "NonSymmetric" in capsys.readouterr().err


def test_missing_lattice_exit_code(capsys):
    assert run(["roots"]) == 2


def test_roots_csv(tmp_path):
    out = tmp_path / "roots.csv"
    assert run(["roots", "--preset", "U", "--root-bound", "3",
                "--format", "csv", "--out", str(out)]) == 0
    text = out.read_text()
    assert "-1,1" in text and "1,-1" in text


def test_walls_json_and_svg(tmp_path):
    box = json.dumps({"a_lo": ["-1"], "a_hi": ["1"],
                      "b_lo": ["0.5"], "b_hi": ["1.5"]})
    out = tmp_path / "walls.json"
    assert run(["walls", "--preset", "mukai_rank1(1)", "--box", box,
                "--out", str(out)]) == 0
    walls = json.loads(out.read_text())["walls"]
    assert any(w["kind"] == "A" for w in walls)
    svg = tmp_path / "walls.svg"
    assert run(["walls", "--preset", "mukai_rank1(1)", "--box", box,
                "--format", "svg", "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_walls_wide_box(tmp_path):
    # eight units wide in a: the brute-force scan finds 25 walls, among
    # them the A-wall (1, -2, 5) at a = +-2
    box = json.dumps({"a_lo": ["-4"], "a_hi": ["4"],
                      "b_lo": ["0.5"], "b_hi": ["0.6"]})
    out = tmp_path / "walls.json"
    assert run(["walls", "--preset", "mukai_rank1(1)", "--box", box,
                "--out", str(out)]) == 0
    walls = json.loads(out.read_text())["walls"]
    assert len(walls) == 25
    assert {"kind": "A", "root_coords": [1, -2, 5], "v": [0, 0, 1]} in walls


def test_walls_golden_digests(tmp_path):
    # the criterion-10 walls outputs, pinned to the bytes of the rank-one
    # closed-form test and the exp_frame raster they replaced
    import hashlib
    box = json.dumps({"a_lo": ["-1"], "a_hi": ["1"],
                      "b_lo": ["0.5"], "b_hi": ["1.5"]})
    want = [
        ([], "9d77bbf070f8a33c64d418f86b6fda8e"
             "2dbca71fbf8d97ba239f082e16c8a197"),
        (["--format", "svg"], "7e1b7e24b45ab12fa53c2cbe12889835"
                              "5cd8767c020afe29f7162e649c088b43"),
        (["--format", "csv"], "2f429c4bac15f706a4296503c6fb620a"
                              "7dfde3c838dd824db69d77cbc8e9cccd"),
    ]
    for i, (fmt, digest) in enumerate(want):
        out = tmp_path / f"walls-{i}"
        assert run(["walls", "--preset", "mukai_rank1(1)", "--box", box,
                    *fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(read(out)).hexdigest() == digest, fmt


def test_walls_golden_digests_higher_rank(tmp_path):
    # rank(L) = 3 and 2 outputs of the majorant-cover enumerator, pinned to
    # the bytes of the per-corner union it replaced: the rank-3 box is the
    # wall-scan high-b box on diag(2, -2, -2) at shift 0 (two C-walls), the
    # rank-2 box on diag(2, -2) has one wall of each kind
    import hashlib
    mukai = {2: [[0, 0, 0, -1], [0, 2, 0, 0], [0, 0, -2, 0], [-1, 0, 0, 0]],
             3: [[0, 0, 0, 0, -1], [0, 2, 0, 0, 0], [0, 0, -2, 0, 0],
                 [0, 0, 0, -2, 0], [-1, 0, 0, 0, 0]]}
    cases = [
        (3, {"a_lo": ["0", "0", "0"], "a_hi": ["1/5", "1/5", "1/5"],
             "b_lo": ["0", "0", "3"], "b_hi": ["1/10", "1/10", "16/5"]},
         "c0ba0042bff046fd546514c3ae7d7aee18f7eabbc143ab5883b20f6fecb81a20"),
        (2, {"a_lo": ["-1/4", "0"], "a_hi": ["1/4", "1/2"],
             "b_lo": ["-1/5", "9/10"], "b_hi": ["0", "6/5"]},
         "7066d31b112d9de1702158b2bae5e86cc0309220a16943e514d64941e16c0ee0"),
    ]
    for rho, box, digest in cases:
        out = tmp_path / f"walls-rho{rho}"
        assert run(["walls", "--gram", json.dumps(mukai[rho]), "--mukai",
                    "--box", json.dumps(box), "--out", str(out)]) == 0
        assert hashlib.sha256(read(out)).hexdigest() == digest, rho


def test_parser_built_once():
    from mukai_kit import cli
    assert cli._build_parser() is cli._build_parser()


def test_cusps_command(tmp_path):
    out = tmp_path / "census.json"
    assert run(["cusps", "--preset", "mukai_rank1(6)", "--height", "14",
                "--root-bound", "8", "--word-depth", "6",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 2
    assert data["height"] == 14


def test_geodesic_command(tmp_path):
    out = tmp_path / "geo.json"
    code = run(["geodesic", "--preset", "mukai_rank1(1)",
                "--x0", "[0.3]", "--y0", "[1.1]", "--t-max", "1.0",
                "--steps", "400", "--tol", "1e-5", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())["report"]
    assert rep["max_dev"] <= 1e-5
    speeds = rep["speed_samples"]
    assert max(speeds) - min(speeds) < 1e-6 * speeds[0]


def test_geodesic_verification_failure(tmp_path):
    out = tmp_path / "geo.json"
    code = run(["geodesic", "--preset", "mukai_rank1(1)",
                "--x0", "[0.3]", "--y0", "[1.1]", "--t-max", "1.0",
                "--steps", "150", "--tol", "1e-12", "--out", str(out)])
    assert code == 1  # impossible tolerance: verification failed, not crash


@pytest.mark.parametrize("t_max", ["nan", "inf"])
def test_geodesic_non_finite_span(tmp_path, capsys, t_max):
    out = tmp_path / "geo.json"
    code = run(["geodesic", "--preset", "mukai_rank1(1)", "--x0", "[0.3]",
                "--y0", "[1.1]", "--t-max", t_max, "--steps", "200",
                "--out", str(out)])
    assert code == 2
    assert "bad input" in capsys.readouterr().err
    assert not out.exists()


def test_geodesic_overflowing_deviation(tmp_path, capsys):
    # the oracle integrates this start, but its period vectors overflow:
    # a typed error, not a NaN deviation reported as a failed check
    out = tmp_path / "geo.json"
    code = run(["geodesic", "--preset", "mukai_rank1(1)", "--x0", "[0.0]",
                "--y0", "[1e100]", "--t-max", "1.0", "--steps", "200",
                "--out", str(out)])
    assert code == 2
    assert "NonFiniteError" in capsys.readouterr().err
    assert not out.exists()


def test_geodesic_values_pinned(tmp_path):
    # the criterion-10 geodesic config, whose repeat runs criterion 10 only
    # compares with each other: pinned here, oracle edits stay within ulps
    out = tmp_path / "geo.json"
    assert run(["geodesic", "--preset", "mukai_rank1(1)", "--x0", "[0.3]",
                "--y0", "[1.1]", "--t-max", "1.0", "--steps", "200",
                "--tol", "1e-4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["report"]["max_dev"] == pytest.approx(
        1.478729310692873e-06, rel=0, abs=1e-12)
    assert data["report"]["energy_drift"] == pytest.approx(
        6.661338147750939e-16, rel=0, abs=1e-12)
    assert data["samples"][-1] == pytest.approx(
        [1.0, 0.3, 2.9900975991660275, 1.414213562373095], rel=0, abs=1e-12)


def _write_path_csv(path, sp, lat, rate=1.0, n=120):
    rows = []
    for t in np.linspace(0.0, 1.0, n):
        pt = dm.tube_point(sp, [0.2], [1.0 + 0.5 * t])
        c, s = math.cos(math.pi * rate * t), math.sin(math.pi * rate * t)
        fr = dm.gl2_act(dm.exp_frame(pt), np.array([[c, -s], [s, c]]))
        rows.append([t] + list(fr.z.real) + list(fr.z.imag))
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"v{i}" for i in range(2 * lat.rank)) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def test_factor_command(tmp_path):
    lat = mk.preset("mukai_rank1(1)")
    sp = dm.split_at(lat.vector([0, 0, 1]))
    csv = tmp_path / "path.csv"
    _write_path_csv(csv, sp, lat, rate=3.0)
    out = tmp_path / "trace.json"
    assert run(["factor", "--preset", "mukai_rank1(1)", "--path", str(csv),
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["winding"] == pytest.approx(3.0, abs=1e-8)


def test_factor_csv_without_samples(tmp_path, capsys):
    csv = tmp_path / "path.csv"
    csv.write_text("# a comment and no samples\n")
    assert run(["factor", "--preset", "mukai_rank1(1)", "--path", str(csv),
                "--out", str(tmp_path / "trace.json")]) == 2
    assert "at least one path sample" in capsys.readouterr().err


def test_factor_path_spec_without_samples(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "linear_degeneration", "x0": [0.2],
                                "y0": [1.0], "samples": 0}))
    assert run(["factor", "--preset", "mukai_rank1(1)", "--path-spec",
                str(spec), "--out", str(tmp_path / "trace.json")]) == 2
    assert "at least one path sample" in capsys.readouterr().err


def test_threshold_command(tmp_path):
    out = tmp_path / "th.json"
    assert run(["threshold", "--preset", "mukai_rank1(1)",
                "--vE", "[1,1,0]", "--h", "[1]",
                "--candidates", "[[1,0,1]]", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n0"] == 2 and data["confirmed"]


def test_degenerate_command(tmp_path):
    out = tmp_path / "deg.csv"
    assert run(["degenerate", "--preset", "mukai_rank1(1)",
                "--x0", "[0.2]", "--y0", "[0.9]", "--t0", "1", "--t1", "5",
                "--samples", "9", "--format", "csv", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 10


def test_beta_search_command(tmp_path):
    out = tmp_path / "beta.json"
    lat_file = tmp_path / "lat.json"
    lat_file.write_text(json.dumps(
        {"label": "rank4", "mukai": True,
         "gram": [[0, 0, 0, -1], [0, 2, 0, 0], [0, 0, -2, 0],
                  [-1, 0, 0, 0]]}))
    assert run(["beta-search", "--lattice", str(lat_file),
                "--c-root", "[0,0,1,0]", "--k", "0", "--eta", "[2,0]",
                "--out", str(out)]) == 0
    cert = json.loads(out.read_text())["certificate"]
    from fractions import Fraction
    assert Fraction(-1) < Fraction(cert["window_value"]) < 0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "mukai_rank1(2)"}))
    assert run(["lattice", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["det"] == -4
    # flags win over config
    assert run(["lattice", "--config", str(cfg),
                "--preset", "mukai_rank1(3)"]) == 0
    assert json.loads(capsys.readouterr().out)["det"] == -6


def test_determinism_byte_identical(tmp_path):
    box = json.dumps({"a_lo": ["-1"], "a_hi": ["1"],
                      "b_lo": ["0.5"], "b_hi": ["1.5"]})
    jobs = [
        (["lattice", "--preset", "mukai_rank1(3)"], "lat"),
        (["roots", "--preset", "mukai_rank1(1)", "--root-bound", "4"], "rt"),
        (["walls", "--preset", "mukai_rank1(1)", "--box", box], "wl"),
        (["cusps", "--preset", "mukai_rank1(4)", "--height", "10"], "cu"),
        (["threshold", "--preset", "mukai_rank1(1)", "--vE", "[1,1,0]",
          "--h", "[1]", "--candidates", "[[1,0,1]]"], "th"),
        (["degenerate", "--preset", "mukai_rank1(1)", "--x0", "[0.2]",
          "--y0", "[0.9]", "--format", "csv"], "dg"),
    ]
    for args, tag in jobs:
        a = tmp_path / f"{tag}-a"
        b = tmp_path / f"{tag}-b"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert read(a) == read(b), f"{tag} not deterministic"


def test_entry_point_subprocess():
    # the child imports the same package as this process, wherever the
    # test run put it on sys.path (pytest's pythonpath does not reach it)
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(mk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "mukai_kit.cli",
                           "lattice", "--preset", "U"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["det"] == -1
