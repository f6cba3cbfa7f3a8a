import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mukai_kit as mk
from mukai_kit import domain as dm
from mukai_kit.cli import _chamber_ids, main


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


def _chamber_ids_loop(signs, inside):
    """The raster's ids point by point: a dict of sign rows seen so far."""
    ids: dict[tuple, int] = {}
    return [ids.setdefault(tuple(row), len(ids)) if ok else -1
            for row, ok in zip(signs.tolist(), inside.tolist())]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.integers(0, 3), st.data())
def test_chamber_ids_match_dict_loop(n, width, data):
    # width 0 is a box without walls; rows outside the cone get -1
    signs = np.array(data.draw(st.lists(
        st.lists(st.integers(-1, 1), min_size=width, max_size=width),
        min_size=n, max_size=n)), dtype=int).reshape(n, width)
    inside = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                         max_size=n)), dtype=bool)
    assert _chamber_ids(signs, inside).tolist() == _chamber_ids_loop(signs,
                                                                     inside)


def test_walls_csv_without_walls(tmp_path):
    out = tmp_path / "walls.csv"
    box = json.dumps({"a_lo": ["1/3"], "a_hi": ["2/5"],
                      "b_lo": ["3"], "b_hi": ["4"]})
    assert run(["walls", "--preset", "mukai_rank1(1)", "--box", box,
                "--format", "csv", "--samples", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()[2:]
    assert lines[:4] == ["0.3333333333333333,3.0,0",
                         "0.3666666666666667,3.0,0", "0.4,3.0,0",
                         "0.3333333333333333,3.5,0"]
    assert len(lines) == 9 and {x.split(",")[2] for x in lines} == {"0"}


_RANK4_GRAM = json.dumps([[0, 0, 0, -1], [0, 2, 0, 0], [0, 0, -2, 0],
                          [-1, 0, 0, 0]])
_RANK5_GRAM = json.dumps([[0, 0, 0, 0, -1], [0, 2, 0, 0, 0], [0, 0, -2, 0, 0],
                          [0, 0, 0, -2, 0], [-1, 0, 0, 0, 0]])
_UU_GRAM = json.dumps([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def test_exact_golden_digests(tmp_path):
    # the criterion-10 exact jobs (beta-search on an inline Gram, so the
    # config hash holds no file path), plus roots and beta-search at rank
    # 5, pinned to the bytes of json.dumps and the per-root object path
    import hashlib
    cases = [
        (["lattice", "--preset", "mukai_rank1(3)"],
         "c10058ea2d4a6c3c9f491fdf6e4b3925c78602a0d238e9b84215e82dc3f6abe4"),
        (["roots", "--preset", "mukai_rank1(1)", "--root-bound", "4"],
         "eeb5f244bcc5b70e6a7b4125e6ca26b11e761548684ddb9dde4ac4e7b7db50c5"),
        (["cusps", "--preset", "mukai_rank1(6)", "--height", "12"],
         "543b12e2b515d3f4cf6d8c690dcd59c9fbe241a7446958610d39601fcc70fced"),
        (["threshold", "--preset", "mukai_rank1(1)", "--vE", "[1,1,0]",
          "--h", "[1]", "--candidates", "[[1,0,1]]"],
         "b39b880ee0143b4db6c4b99d837abda9238cb1f22942f3a795d131d3e3347b76"),
        (["beta-search", "--gram", _RANK4_GRAM, "--mukai", "--c-root",
          "[0,0,1,0]", "--k", "0", "--eta", "[2,0]"],
         "4c25c892b5ac54eb9bd32779157eb92b0bf2f0f22baf37ad28465810fa59fbd8"),
        (["roots", "--gram", _RANK5_GRAM, "--mukai", "--root-bound", "5"],
         "b8182bf3698bd52134ab003537080b739a6ecab3fececc8e0c5ab30d3dd4a196"),
        (["roots", "--gram", _RANK5_GRAM, "--mukai", "--root-bound", "5",
          "--format", "csv"],
         "14d20ea9afc56463d2152fa2c8997bb93d27f15a33132868a5dd946d90426590"),
        (["beta-search", "--gram", _RANK5_GRAM, "--mukai", "--c-root",
          "[0,0,1,0,0]", "--k", "1", "--eta", "[2,0,1]", "--root-bound", "5"],
         "e19783f42d74c648412c111367aac5e79b7a65acb2bde6dad0d143a526f59519"),
        # the 98-candidate box threshold, and beta-search at a fractional eta
        (["threshold", "--preset", "mukai_rank1(2)", "--vE", "[2,3,-1]",
          "--h", "[1]", "--cand-rank", "2", "--cand-c", "3", "--cand-s", "3"],
         "fe4657c84fb76ec8f8c66c0d138d1a979688f164e32c6ccd70ff369070890666"),
        (["beta-search", "--gram", _RANK4_GRAM, "--mukai", "--c-root",
          "[0,0,1,0]", "--k", "0", "--eta", '["3/2",0]'],
         "9df5a7a8df3725b10048fc3e45cd1b708dbae01b14bd3320c9b8b27b214e2b57"),
        # the orbit-sweep census path, on U + <2> + <-2> and on U + U
        (["cusps", "--gram", _RANK4_GRAM, "--mukai", "--height", "4"],
         "a4a549dfe837b18e4c456e70b042c6d08d5b800c0ba44537a31f91a4d1482ce4"),
        (["cusps", "--gram", _RANK4_GRAM, "--mukai", "--height", "6",
          "--standard-only"],
         "34a77d0c580d742ffcfc17d5454ff08a1be7066cfbf15b124a7027c83f44c121"),
        (["cusps", "--gram", _UU_GRAM, "--height", "3"],
         "8755f27f155ef7ceb47358f8597e20cac5de6cd961ec1fefa48c03638b47c726"),
    ]
    for i, (args, digest) in enumerate(cases):
        out = tmp_path / f"exact-{i}"
        assert run(args + ["--out", str(out)]) == 0
        assert hashlib.sha256(read(out)).hexdigest() == digest, args


def test_float_payloads_match_oracle_writer(tmp_path, monkeypatch):
    # geodesic, factor and degenerate floats vary by platform in the last
    # ulps, so instead of digests: the writer equals json.dumps on them
    from mukai_kit import serialize
    from test_serialize import oracle_csv_text, oracle_pretty_json
    seen = []
    pretty, csv_text = serialize.pretty_json, serialize.csv_text

    def checked_pretty(obj):
        seen.append("json")
        assert pretty(obj) == oracle_pretty_json(obj)
        return pretty(obj)

    def checked_csv(header, rows, meta=None):
        seen.append("csv")
        assert csv_text(header, rows, meta) == oracle_csv_text(header, rows,
                                                               meta)
        return csv_text(header, rows, meta)

    monkeypatch.setattr(serialize, "pretty_json", checked_pretty)
    monkeypatch.setattr(serialize, "csv_text", checked_csv)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "linear_degeneration", "x0": [0.2],
                                "y0": [0.9], "t1": 3.0, "samples": 40}))
    jobs = [
        ["geodesic", "--preset", "mukai_rank1(1)", "--x0", "[0.3]",
         "--y0", "[1.1]", "--t-max", "1.0", "--steps", "200",
         "--tol", "1e-4"],
        ["geodesic", "--gram", _RANK4_GRAM, "--mukai", "--x0", "[0.1,0.2]",
         "--y0", "[0.3,1.5]", "--steps", "150", "--tol", "1e-3"],
        ["factor", "--preset", "mukai_rank1(1)", "--path-spec", str(spec)],
        ["degenerate", "--preset", "mukai_rank1(1)", "--x0", "[0.2]",
         "--y0", "[0.9]"],
        ["degenerate", "--gram", _RANK4_GRAM, "--mukai", "--x0", "[0.2,0.1]",
         "--y0", "[0.3,1.5]", "--format", "csv"],
    ]
    for i, args in enumerate(jobs):
        assert run(args + ["--out", str(tmp_path / f"float-{i}")]) == 0
    assert seen.count("json") == 4 and seen.count("csv") == 4


@pytest.mark.parametrize("command, args, fmt, formats", [
    ("cusps", ["--preset", "mukai_rank1(2)", "--height", "8"], "csv",
     "json"),
    ("roots", ["--preset", "U", "--root-bound", "2"], "svg", "json, csv"),
])
def test_unsupported_format_exit_code(tmp_path, capsys, command, args, fmt,
                                      formats):
    out = tmp_path / f"x.{fmt}"
    assert run([command, *args, "--format", fmt, "--out", str(out)]) == 2
    cap = capsys.readouterr()
    assert cap.out == "" and not out.exists()
    assert f"{command} has no {fmt} output" in cap.err
    assert cap.err.rstrip().endswith(f"its formats are {formats}")


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


def test_cusps_rank1_n10_matches_fricke(tmp_path):
    # the orbit sweep reported 6 classes here; Fricke gives 2
    out = tmp_path / "census.json"
    assert run(["cusps", "--preset", "mukai_rank1(10)", "--height", "20",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == 2


def test_cusps_negative_word_depth_exit_code(capsys):
    assert run(["cusps", "--preset", "mukai_rank1(2)", "--height", "12",
                "--word-depth", "-1"]) == 2
    assert "word depth" in capsys.readouterr().err


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
    assert "t_max must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, cfg, message", [
    (["--tol", "nan"], {}, "tol must be a finite number, got nan"),
    ([], {"t_max": True}, "t_max must be a finite number, got True"),
    ([], {"tol": "1e-3x"}, "tol must be a finite number, got 1e-3x"),
])
def test_geodesic_float_inputs_checked(tmp_path, capsys, args, cfg, message):
    conf = tmp_path / "cfg.json"
    conf.write_text(json.dumps(cfg))
    out = tmp_path / "geo.json"
    assert run(["geodesic", "--preset", "mukai_rank1(1)", "--x0", "[0.3]",
                "--y0", "[1.1]", "--steps", "100", "--config", str(conf),
                "--out", str(out)] + args) == 2
    assert message in capsys.readouterr().err
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


@pytest.mark.parametrize("edit, columns", [
    (lambda row: row + ["0.5", "-0.5"], 9),
    (lambda row: row[:-1], 6),
], ids=["two_extra_columns", "one_column_short"])
def test_factor_csv_row_width_checked(tmp_path, capsys, edit, columns):
    # rank 3: a row is t, three real parts and three imaginary parts
    lat = mk.preset("mukai_rank1(3)")
    csv = tmp_path / "path.csv"
    _write_path_csv(csv, dm.split_at(lat.vector([0, 0, 1])), lat, n=20)
    lines = csv.read_text().splitlines()
    lines[6] = ",".join(edit(lines[6].split(",")))
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "trace.json"
    assert run(["factor", "--preset", "mukai_rank1(3)", "--path", str(csv),
                "--out", str(out)]) == 2
    assert (f"path line 7 has {columns} columns, not 1 + 2 * rank = 7"
            in capsys.readouterr().err)
    assert not out.exists()


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


@pytest.mark.parametrize("spec, args, message", [
    ({"t0": float("nan")}, [], "t0 must be a finite number, got nan"),
    ({"t1": True}, [], "t1 must be a finite number, got True"),
    ({}, ["--tol", "inf"], "tol must be a finite number, got inf"),
])
def test_factor_float_inputs_checked(tmp_path, capsys, spec, args, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "linear_degeneration", "x0": [0.2],
                                "y0": [1.0], "samples": 20, **spec}))
    assert run(["factor", "--preset", "mukai_rank1(1)", "--path-spec",
                str(path), "--out", str(tmp_path / "trace.json")] + args) == 2
    assert message in capsys.readouterr().err


def test_threshold_command(tmp_path):
    out = tmp_path / "th.json"
    assert run(["threshold", "--preset", "mukai_rank1(1)",
                "--vE", "[1,1,0]", "--h", "[1]",
                "--candidates", "[[1,0,1]]", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n0"] == 2 and data["confirmed"]


def test_threshold_bad_h_exits_2(capsys):
    # Exp(i n h) needs h^2 > 0 and h in NS
    args = ["threshold", "--gram", _RANK4_GRAM, "--mukai",
            "--vE", "[1,1,-1,0]", "--candidates", "[[1,0,0,1]]"]
    for h in ("[1,1]", "[0,1]"):        # h^2 = 0 and h^2 = -2
        assert run(args + ["--h", h]) == 2
        assert "NonPositiveOmegaError" in capsys.readouterr().err
    assert run(["threshold", "--preset", "mukai_rank1(1)", "--vE", "[1,1,0]",
                "--h", "[1,2]", "--candidates", "[[1,0,0]]"]) == 2
    assert "h must be an NS-vector" in capsys.readouterr().err


@pytest.mark.parametrize("shift", [1, -1])
def test_threshold_confirmation_rejects_wrong_n0(tmp_path, monkeypatch, shift):
    # n0 + 1 passes the checks at and above n0 but not the one at n0 - 1;
    # n0 - 1 fails the check at n0
    from mukai_kit import charges
    solve = charges.large_volume_threshold

    def off_by_one(vE, cands, h):
        n0, certs = solve(vE, cands, h)
        return n0 + shift, certs

    monkeypatch.setattr(charges, "large_volume_threshold", off_by_one)
    out = tmp_path / "th.json"
    assert run(["threshold", "--preset", "mukai_rank1(1)", "--vE", "[1,1,0]",
                "--h", "[1]", "--candidates", "[[1,0,1]]",
                "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["n0"] == 2 + shift and data["confirmed"] is False


def test_degenerate_command(tmp_path):
    out = tmp_path / "deg.csv"
    assert run(["degenerate", "--preset", "mukai_rank1(1)",
                "--x0", "[0.2]", "--y0", "[0.9]", "--t0", "1", "--t1", "5",
                "--samples", "9", "--format", "csv", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines()
             if l and not l.startswith("#")]
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 10


@pytest.mark.parametrize("flag, value", [("--t0", "nan"), ("--t1", "inf"),
                                         ("--t0", "inf")])
def test_degenerate_non_finite_times_exit_2(tmp_path, capsys, flag, value):
    out = tmp_path / "deg.json"
    assert run(["degenerate", "--preset", "mukai_rank1(1)", "--x0", "[0.2]",
                "--y0", "[0.9]", flag, value, "--out", str(out)]) == 2
    assert f"{flag[2:]} must be a finite number" in capsys.readouterr().err
    assert not out.exists()


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


def test_beta_search_non_hyperbolic_ns_exits_2(capsys):
    # NS = diag(2, -2, 2) has signature (2, 1), so beta0 need not be
    # off the walls
    assert run(["beta-search", "--mukai", "--gram",
                "[[0,0,0,0,-1],[0,2,0,0,0],[0,0,-2,0,0],[0,0,0,2,0],"
                "[-1,0,0,0,0]]", "--c-root", "[0,0,1,0,0]", "--k", "1",
                "--eta", "[-2,0,0]", "--root-bound", "3"]) == 2
    assert "NotHyperbolicError" in capsys.readouterr().err


@pytest.mark.parametrize("eta, bound", [("[17,0,24]", []),
                                        ("[3,0,4]", ["--root-bound", "2"])])
def test_beta_search_root_outside_the_box_exits_2(eta, bound, tmp_path,
                                                  capsys):
    # NS = diag(4, -2, -2): (12, 0, 17) and (2, 0, 3) are roots orthogonal
    # to these eta, outside the default and the given coordinate box
    out = tmp_path / "beta.json"
    assert run(["beta-search", "--mukai", "--gram",
                "[[0,0,0,0,-1],[0,4,0,0,0],[0,0,-2,0,0],[0,0,0,-2,0],"
                "[-1,0,0,0,0]]", "--c-root", "[0,0,1,0,0]", "--k", "0",
                "--eta", eta, "--out", str(out)] + bound) == 2
    assert "not generic" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["beta-search", "--gram", _RANK4_GRAM, "--mukai", "--c-root", "[0,0,1,0]",
     "--eta", '["1/0",0]'],
    ["walls", "--preset", "mukai_rank1(1)", "--box",
     '{"a_lo":["1/0"],"a_hi":["1"],"b_lo":["1/2"],"b_hi":["3/2"]}'],
])
def test_zero_denominator_exits_2(args, capsys):
    assert run(args) == 2
    assert "bad input: ZeroDivisionError" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [
    ("beta-search", "k"), ("beta-search", "root_bound"),
    ("roots", "root_bound"), ("cusps", "height"), ("cusps", "word_depth"),
    ("threshold", "cand_c"),
])
def test_config_non_integral_int_exits_2(tmp_path, capsys, command, key):
    cfg = tmp_path / "cfg.json"
    base = {"gram": _RANK4_GRAM, "mukai": True, "c_root": "[0,0,1,0]",
            "eta": "[2,0]", "vE": "[1,1,0,0]", "h": "[1,0]"}
    for bad in (1.5, True):
        cfg.write_text(json.dumps({**base, key: bad}))
        assert run([command, "--config", str(cfg)]) == 2
        assert (f"{key} must be an integer, got {bad}"
                in capsys.readouterr().err)
    # an integral float is the integer it names
    cfg.write_text(json.dumps({"gram": _RANK4_GRAM, "mukai": True,
                               "c_root": "[0,0,1,0]", "eta": "[2,0]",
                               "k": 2.0}))
    assert run(["beta-search", "--config", str(cfg)]) == 0
    from_cfg = json.loads(capsys.readouterr().out)["certificate"]
    assert run(["beta-search", "--config", str(cfg), "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["certificate"] == from_cfg


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


def test_cli_import_needs_no_scipy():
    # numpy is the only runtime dependency: importing the CLI, and with it
    # every module of the package, loads no scipy module
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(mk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, mukai_kit.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_THRESHOLD = ["threshold", "--preset", "mukai_rank1(1)"]


@pytest.mark.parametrize("args, message", [
    (_THRESHOLD + ["--vE", "[1.7,1,0]", "--h", "[1]",
                   "--candidates", "[[1,0,1]]"], "vE[0] must be an integer"),
    (_THRESHOLD + ["--vE", "[1,1,0]", "--h", "[1.9]",
                   "--candidates", "[[1,0,1]]"], "h[0] must be an integer"),
    (_THRESHOLD + ["--vE", "[1,1,0]", "--h", "[1]",
                   "--candidates", "[[1,0.5,1]]"],
     "candidates[0][1] must be an integer"),
    (_THRESHOLD + ["--vE", "5", "--h", "[1]"], "vE must be a list"),
    (["beta-search", "--gram", _RANK4_GRAM, "--mukai", "--c-root",
      "[0,0,1.9,0]", "--k", "0", "--eta", "[2,0]"],
     "c_root[2] must be an integer"),
    (["lattice", "--gram", "[[2.5]]"],
     "gram[0][0] must be an integer, got 2.5"),
    (["lattice", "--gram", "[[true]]"], "gram[0][0] must be an integer"),
    (["lattice", "--gram", "5"], "gram must be a list"),
    (["lattice", "--gram", "null"], "gram must be a list"),
    (["lattice", "--gram", "[[1e400]]"], "gram[0][0] must be an integer"),
    (["lattice", "--gram", "[1, 2]"], "gram[0] must be a list"),
    (["walls", "--preset", "mukai_rank1(1)", "--box", "[1,2]"],
     "box must be a JSON object"),
])
def test_malformed_integer_input_exits_2(args, message, capsys):
    # no truncation of non-integral numbers and no traceback on wrong shapes
    assert run(args) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["walls", "--preset", "mukai_rank1(1)", "--box",
      '{"a_lo":1,"a_hi":[1],"b_lo":[1],"b_hi":[2]}'],
     "box.a_lo must be a list, got 1"),
    (["walls", "--preset", "mukai_rank1(1)", "--box",
      '{"a_lo":[true],"a_hi":[1],"b_lo":[1],"b_hi":[2]}'],
     "box.a_lo[0] must be a rational number, got True"),
    (["degenerate", "--preset", "mukai_rank1(1)", "--x0", "5"],
     "x0 must be a list, got 5"),
    (["geodesic", "--preset", "mukai_rank1(1)", "--y0", "[NaN]"],
     "y0[0] must be a finite number, got nan"),
    (["beta-search", "--gram", _RANK4_GRAM, "--mukai", "--c-root",
      "[0,0,1,0]", "--eta", "5"], "eta must be a list, got 5"),
])
def test_malformed_vector_input_exits_2(args, message, capsys):
    # rational and float vectors get the shape check of integer inputs
    assert run(args) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_walls_point_box_on_l_root_wall(capsys):
    # a zero-width box at a rational b on an L-root wall: the root lies
    # exactly on the bound of the d = 0 candidate enumeration
    from fractions import Fraction
    b = ["569/10", "-207/10", "-319/5"]
    box = {"a_lo": ["0"] * 3, "a_hi": ["0"] * 3, "b_lo": b, "b_hi": b}
    assert run(["walls", "--mukai", "--gram", _RANK5_GRAM,
                "--box", json.dumps(box)]) == 0
    got = {(w["kind"], tuple(w["root_coords"]))
           for w in json.loads(capsys.readouterr().out)["walls"]}
    lat = mk.make_lattice(json.loads(_RANK5_GRAM), mukai=True)
    sp = dm.split_at(lat.vector([0, 0, 0, 0, 1]))
    b = [Fraction(x) for x in b]
    want = {(w.kind, w.root.coords) for w in dm.enumerate_walls_bruteforce(
        sp, dm.TubeBox.make(sp, [0] * 3, [0] * 3, b, b), 4)}
    assert got == want == {("C", (0, -3, 3, -1, 0))}


def test_empty_gram_exits_2(capsys):
    assert run(["lattice", "--gram", "[]"]) == 2
    assert "DegenerateError: Gram matrix is empty" in capsys.readouterr().err


def test_integer_input_forms(tmp_path, capsys):
    # integral floats and decimal-integer strings name the integers they
    # spell, inline and in lattice files (which store big ints as strings)
    assert run(_THRESHOLD + ["--vE", "[1,1,0]", "--h", "[1]",
                             "--candidates", "[[1,0,1]]"]) == 0
    want = json.loads(capsys.readouterr().out)
    assert run(_THRESHOLD + ["--vE", '[1.0,"1",0]', "--h", '["1"]',
                             "--candidates", "[[1,0.0,1]]"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["certificates"] == want["certificates"]
    lat_file = tmp_path / "lat.json"
    lat_file.write_text(json.dumps(
        {"mukai": True, "gram": [[0, 0, "-1"], [0, 2.0, 0], [-1, 0, 0]]}))
    assert run(["lattice", "--lattice", str(lat_file)]) == 0
    assert json.loads(capsys.readouterr().out)["gram"] == \
        [[0, 0, -1], [0, 2, 0], [-1, 0, 0]]
    lat_file.write_text(json.dumps([[2]]))
    assert run(["lattice", "--lattice", str(lat_file)]) == 2
    assert "config error: a lattice file" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["beta-search", "--mukai", "--gram",
     "[[0,0,0,1],[0,2,0,0],[0,0,-2,0],[1,0,0,0]]", "--c-root", "[0,0,1,0]",
     "--k", "0", "--eta", "[2,0]"],
    ["threshold", "--mukai", "--gram", "[[0,0,1],[0,2,0],[1,0,0]]",
     "--vE", "[1,1,0]", "--h", "[1]", "--candidates", "[[1,0,1]]"],
    ["cusps", "--mukai", "--gram", "[[0,0,1],[0,2,0],[1,0,0]]"],
])
def test_mukai_flag_on_plus_u_gram_exits_2(args, capsys):
    # the (r, s) block pairs as +U, not as the -r s' - r' s of (r, NS, s)
    assert run(args) == 2
    assert "NotMukaiFormError" in capsys.readouterr().err


@pytest.mark.parametrize("args,count", [
    (["--preset", "U", "--height", "2"], 1),
    (["--gram", "[[2,1],[1,-4]]", "--height", "3"], 2)])
def test_cusps_on_rank2_lattices(args, count, capsys):
    # L(v) of a rank-2 lattice has rank 0: an empty Gram, a trivial group.
    # (1, 1) and (2, -1) of 2(a + 2b)(a - b) share no root to merge them.
    assert run(["cusps"] + args) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    assert len(records) == count
    for rec in records:
        assert rec["Lv_gram"] == [] and rec["disc_group"] == []
