"""Byte-for-byte A/B check of two mukai-kit source trees.

    python3 tools/ab_bytes.py PARENT CHANGE

PARENT and CHANGE are source checkouts (each with ``src/mukai_kit``).  One
round of each benchmark workload at seeds 1, 7 and 41 is generated with
PARENT's ``perfbench/jobs.py`` and package, together with the
criterion-10 invocations (``criterion_10_jobs``, which
``tests/test_acceptance.py`` also runs), into one inputs directory that
both trees read: ``config_hash`` covers input file paths, so the trees
must see the same ones.  Every job then runs through both trees, each run
in a fresh interpreter, once printing its JSON to stdout and once with
``--out``.  The exit code and the sha256 of stdout and of the output file
are compared.  Each tree's acceptance suite also runs once, in a fresh
interpreter with that tree's ``src`` first on the path, and its
``PASS criterion`` lines are compared.  Every difference is printed, and
the exit code is 1 if there is any.  A last line gives the ``src/`` line
count of both trees, as ``wc -l src/mukai_kit/*.py`` counts it.

    python3 tools/ab_bytes.py PARENT CHANGE --pairs N [--workload W] [--seed S]

runs N alternating pairs of ``perfbench/run.py --trace 0`` per workload
(every workload, or W) instead: pair i runs both trees at seed S + i
(default PAIR_SEED, away from the byte-check seeds), PARENT first in even
pairs and CHANGE first in odd ones, each run in a fresh copy of its tree's
``src``, ``perfbench`` and ``BENCHMARK.json`` for ``run_seconds`` of
PARENT's ``BENCHMARK.json``.  For each end-to-end metric it prints every
run, both medians, PARENT's quartiles, "better in k/N", whether the gain
rule holds (the change better in at least 9/10 of the pairs, ties counting
for neither, and the medians apart by more than PARENT's interquartile
distance) and whether the change's median stays within the metric's bound.
A metric whose PARENT interquartile distance exceeds its bound times
PARENT's median is "unresolved", unless every change run beats every
parent run: that spread hides a regression of the bound's size.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SEEDS = (1, 7, 41)
WORKERS = 2
PAIR_SEED = 5001

# one job in a fresh interpreter: argv[1] is the tree's src directory
_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from mukai_kit.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _rotation(phi: float):
    import numpy as np
    c, s = math.cos(math.pi * phi), math.sin(math.pi * phi)
    return np.array([[c, -s], [s, c]])


def criterion_10_jobs(inputs: Path) -> list[tuple[str, list[str]]]:
    """The subcommand invocations of criterion 10, with their input files
    written under ``inputs`` (the package on sys.path builds the path)."""
    from mukai_kit import domain as dm
    from mukai_kit import lattice
    inputs.mkdir(parents=True, exist_ok=True)
    lat_file = inputs / "rank4.json"
    lat_file.write_text(json.dumps(
        {"label": "rank4", "mukai": True,
         "gram": [[0, 0, 0, -1], [0, 2, 0, 0], [0, 0, -2, 0],
                  [-1, 0, 0, 0]]}))
    import numpy as np
    sp = dm.split_at(lattice.preset("mukai_rank1(1)").vector([0, 0, 1]))
    lines = []
    for t in np.linspace(0.0, 1.0, 80):
        pt = dm.tube_point(sp, [0.2], [1.0 + 0.3 * t])
        fr = dm.gl2_act(dm.exp_frame(pt), _rotation(2.0 * t))
        row = [t] + list(fr.z.real) + list(fr.z.imag)
        lines.append(",".join(repr(float(x)) for x in row) + "\n")
    path_csv = inputs / "path.csv"
    path_csv.write_text("".join(lines))
    box = json.dumps({"a_lo": ["-1"], "a_hi": ["1"],
                      "b_lo": ["0.5"], "b_hi": ["1.5"]})
    rank1 = ["--preset", "mukai_rank1(1)"]
    jobs = [
        ["lattice", "--preset", "mukai_rank1(3)"],
        ["roots", *rank1, "--root-bound", "4"],
        ["walls", *rank1, "--box", box],
        ["walls", *rank1, "--box", box, "--format", "svg"],
        ["walls", *rank1, "--box", box, "--format", "csv"],
        ["cusps", "--preset", "mukai_rank1(6)", "--height", "12"],
        ["geodesic", *rank1, "--x0", "[0.3]", "--y0", "[1.1]",
         "--t-max", "1.0", "--steps", "200", "--tol", "1e-4"],
        ["factor", *rank1, "--path", str(path_csv)],
        ["threshold", *rank1, "--vE", "[1,1,0]", "--h", "[1]",
         "--candidates", "[[1,0,1]]"],
        ["degenerate", *rank1, "--x0", "[0.2]", "--y0", "[0.9]",
         "--format", "csv"],
        ["beta-search", "--lattice", str(lat_file), "--c-root",
         "[0,0,1,0]", "--k", "0", "--eta", "[2,0]"],
    ]
    return [(f"criterion-10/{i}.{argv[0]}", argv) for i, argv in
            enumerate(jobs)]


def generate(tree: Path, inputs: Path) -> list[tuple[str, list[str]]]:
    """(id, argv) of every job, inputs written with ``tree``'s generator
    and package, each seed in its own subdirectory."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import jobs
    found = []
    for seed in SEEDS:
        for workload in sorted(jobs.WORKLOADS):
            (rnd,) = jobs.generate(workload, seed, 1, inputs / f"s{seed}")
            found += [(f"{workload}/s{seed}/{job.key}", [job.cmd, *job.args])
                      for job in rnd]
    return found + criterion_10_jobs(inputs / "criterion-10")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(tree: Path, argv: list[str], out: Path | None) -> dict:
    """Exit code and the sha256 of stdout (and of ``out``) of one job."""
    extra = [] if out is None else ["--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, str(tree / "src"), *argv, *extra],
        capture_output=True, timeout=600, check=False)
    record = {"exit": proc.returncode, "stdout": _sha(proc.stdout)}
    if out is not None:
        record["file"] = _sha(out.read_bytes()) if out.exists() else None
    return record


def run_all(tree: Path, jobs, outdir: Path) -> dict:
    """{(id, mode): record} for every job, mode "stdout" or "out"."""
    outdir.mkdir(parents=True, exist_ok=True)
    tasks = [((job_id, mode), argv,
              None if mode == "stdout" else outdir / f"{n}.out")
             for n, (job_id, argv) in enumerate(jobs)
             for mode in ("stdout", "out")]
    with ThreadPoolExecutor(WORKERS) as pool:
        records = pool.map(lambda t: run_one(tree, t[1], t[2]), tasks)
        return {key: rec for (key, _, _), rec in zip(tasks, records)}


def differences(parent: dict, change: dict) -> list[str]:
    """One line per (job, mode, field) whose value differs."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key, {}), change.get(key, {})
        for field in sorted(a.keys() | b.keys()):
            if a.get(field) != b.get(field):
                lines.append(f"{key[0]} [{key[1]}] {field}: "
                             f"{a.get(field)} != {b.get(field)}")
    return lines


def src_lines(tree: Path) -> int:
    """The newlines in ``tree``'s ``src/mukai_kit/*.py``, as ``wc -l``
    counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "mukai_kit").glob("*.py"))


def acceptance_output(tree: Path) -> str:
    """stdout of ``tree``'s acceptance suite, run in a fresh interpreter
    with the tree's ``src`` first on the path."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q",
         "-s", "-p", "no:cacheprovider"], cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True, timeout=600, check=False)
    return proc.stdout


def pass_lines(output: str) -> dict[str, str]:
    """{"criterion N": text} of every ``PASS criterion N: text`` line."""
    found = {}
    for line in output.splitlines():
        if line.startswith("PASS criterion"):
            key, _, text = line.removeprefix("PASS ").partition(": ")
            found[key] = text
    return found


def pass_line_differences(parent: str, change: str) -> list[str]:
    """One line per criterion whose PASS line differs between the two
    acceptance outputs, or is in only one of them."""
    a, b = pass_lines(parent), pass_lines(change)
    return [f"{key}: {a.get(key)} != {b.get(key)}"
            for key in dict.fromkeys([*a, *b]) if a.get(key) != b.get(key)]


def bench_run(tree: Path, workload: str, seed: int, seconds: float,
              work: Path) -> dict:
    """The result line of one ``perfbench/run.py --trace 0`` run in a fresh
    copy of the files of ``tree`` that a run reads."""
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".bench_build")
        for name in ("src", "perfbench"):
            shutil.copytree(tree / name, copy / name, ignore=skip)
        shutil.copy2(tree / "BENCHMARK.json", copy)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True, timeout=1800,
            check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exit {proc.returncode} on {tree}: "
                           f"{proc.stderr.strip()[-500:]}")
    return result_line(proc.stdout)


def result_line(stdout: str) -> dict:
    """The JSON result of a perfbench run: the last line of its stdout."""
    return json.loads(stdout.strip().splitlines()[-1])


def pair_summary(name: str, better: str, bound: float, parent: list[float],
                 change: list[float]) -> list[str]:
    """The lines reporting one metric over paired runs: every run, then
    the medians, PARENT's quartiles, the pairs won, the gain rule, the
    bound on the change's median and, where PARENT's spread is wider than
    that bound, "unresolved" unless every change run beats every parent
    run."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                 else parent * 3)
    holds = wins >= 0.9 * len(parent) and sign * (mc - mp) > q3 - q1
    worse = sign * (mp - mc) / abs(mp) if mp else 0.0
    unresolved = (q3 - q1 > bound * abs(mp)
                  and min(sign * c for c in change)
                  <= max(sign * p for p in parent))
    return [
        f"  {name} parent: {' '.join(f'{x:.4g}' for x in parent)}",
        f"  {name} change: {' '.join(f'{x:.4g}' for x in change)}",
        f"  {name}: median {mp:.4g} -> {mc:.4g} "
        f"({(mc - mp) / abs(mp) if mp else 0.0:+.1%}), parent quartiles "
        f"{q1:.4g}-{q3:.4g}, better in {wins}/{len(parent)}, gain rule "
        f"{'holds' if holds else 'not met'}, "
        f"{'within' if worse <= bound else 'beyond'} bound {bound:g}"
        f"{', unresolved' if unresolved else ''}"]


def pairs_main(trees: list[Path], spec: dict, workloads: list[str],
               pairs: int, seed: int) -> None:
    """Run ``pairs`` alternating pairs per workload and print the report."""
    seconds = spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        for workload in workloads:
            runs: tuple[list, list] = ([], [])
            for i in range(pairs):
                for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                    runs[side].append(bench_run(
                        trees[side], workload, seed + i, seconds, Path(tmp)))
            print(f"{workload}: {pairs} pairs, seeds {seed}-"
                  f"{seed + pairs - 1}, {seconds} s runs")
            for side, name in enumerate(("parent", "change")):
                failed = sum(r["failed"] for r in runs[side])
                attempted = sum(r["attempted"] for r in runs[side])
                print(f"  {name}: {failed} of {attempted} jobs failed")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                print("\n".join(pair_summary(
                    name, metric["better"], metric["bound"],
                    *([r["metrics"][name]["value"] for r in side]
                      for side in runs))), flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--pairs", type=int, default=0,
                   help="run N alternating perfbench pairs per workload "
                        "instead of the byte check")
    p.add_argument("--workload", help="only this workload (with --pairs)")
    p.add_argument("--seed", type=int, default=PAIR_SEED,
                   help="seed of the first pair (with --pairs)")
    args = p.parse_args(argv)
    trees = [t.resolve() for t in (args.parent, args.change)]
    for tree in trees:
        if not (tree / "src" / "mukai_kit" / "__init__.py").is_file():
            p.error(f"no package source under {tree / 'src'}")
    if args.pairs < 0:
        p.error("--pairs must be >= 0")
    if args.pairs:
        spec = json.loads((trees[0] / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload and args.workload not in names:
            p.error(f"--workload must be one of {', '.join(names)}")
        pairs_main(trees, spec, [args.workload] if args.workload else names,
                   args.pairs, args.seed)
        return 0
    with tempfile.TemporaryDirectory(prefix="ab-bytes-") as tmp:
        work = Path(tmp)
        jobs = generate(trees[0], work / "inputs")
        parent, change = (run_all(tree, jobs, work / side) for tree, side
                          in zip(trees, ("parent", "change")))
        diff = differences(parent, change)
    accepted = [acceptance_output(tree) for tree in trees]
    pass_diff = pass_line_differences(*accepted)
    for line in diff + pass_diff:
        print(line)
    for side, records in (("parent", parent), ("change", change)):
        failed = sum(rec["exit"] != 0 for rec in records.values())
        print(f"{side}: {len(records)} runs, {failed} with a non-zero exit")
    print(f"{len(jobs)} jobs, {len(diff)} differences")
    counts = [len(pass_lines(out)) for out in accepted]
    print(f"acceptance PASS lines: {counts[0]} in parent, {counts[1]} in "
          f"change, {len(pass_diff)} differences")
    lines = [src_lines(tree) for tree in trees]
    print(f"src/ lines: {lines[0]} in parent, {lines[1]} in change "
          f"({lines[1] - lines[0]:+d})")
    return 1 if diff or pass_diff else 0


if __name__ == "__main__":
    sys.exit(main())
