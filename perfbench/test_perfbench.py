"""Self-test of the benchmark.

Every workload runs one round green, a corrupted oracle answer makes jobs
fail, a traced run reports exactly the per-layer metrics BENCHMARK.json
lists, and run.py refuses to run without the package source.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _setup(workload, tmp_path, seed=7):
    rounds, _ = run.setup(workload, seed, 0, tmp_path / "inputs",
                          time.perf_counter())
    assert len(rounds) == 1
    (tmp_path / "out").mkdir()
    return rounds, run.Runner(tmp_path / "out")


@pytest.mark.parametrize("workload", sorted(run.ROUND_SECONDS))
def test_one_round_is_green(workload, tmp_path):
    rounds, runner = _setup(workload, tmp_path)
    times = runner.rounds(rounds)
    runner.probe(rounds[0], times)
    assert runner.failures == []
    assert len(times) == len(rounds[0])
    assert runner.attempted > len(times)        # the probe ran too
    metrics = run.end_to_end(times, 0, runner, [0.5])
    assert set(run.gated_metrics(0)) <= set(metrics)
    assert metrics["fail_ratio"][0] == 0


def test_corrupted_census_answer_fails(tmp_path, monkeypatch):
    import oracles
    fricke = oracles.fricke_count
    monkeypatch.setattr(oracles, "fricke_count", lambda n: fricke(n) + 1)
    rounds, runner = _setup("census-exact", tmp_path)
    census = [[job for job in rounds[0] if job.cmd == "cusps"]]
    times = runner.rounds(census)
    metrics = run.end_to_end(times, len(runner.failures), runner, [0.5])
    assert metrics["fail_ratio"][0] > 0
    assert len(runner.failures) == len(census[0])
    assert all("Fricke" in reason for _, reason in runner.failures)


def test_traced_jobs_report_every_per_layer_metric(tmp_path):
    import mukai_kit.domain
    import mukai_kit.shortvec
    from tracing import Tracer, metric_units
    rounds, runner = _setup("wall-scan", tmp_path)
    jobs = [[job for job in rounds[0] if job.key.split(".")[1] != "walls3"]]
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        runner.rounds(jobs)
    finally:
        tracer.uninstall()
    assert runner.failures == []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    values = tracer.metrics(overhead_ratio=1.0)
    assert set(values) == set(metric_units())
    assert values["domain.wall_meets_box.calls"] > 0
    assert values["shortvec.short_vectors.returned"] > 0
    assert sum(values[f"{layer}.self_share"] for layer in
               ("geodesics", "cusps")) < 0.05
    # the wrappers are gone, including the from-import in domain
    assert mukai_kit.domain.short_vectors is mukai_kit.shortvec.short_vectors
    assert not hasattr(mukai_kit.domain.short_vectors, "__wrapped__")


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wall-scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
