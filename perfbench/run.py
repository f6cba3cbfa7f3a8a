"""mukai-kit benchmark: seeded batch CLI workloads, checked against oracles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One closed-loop client runs the workload's jobs through
``mukai_kit.cli.main(argv)`` in this process, one at a time, in whole
rounds; ``--seconds`` over the workload's nominal round length sets how
many.  Each output is checked by ``oracles`` between jobs, off the clock; after the timed phase
one job per subcommand is re-run and must give the same bytes.

With ``--trace 0`` the last line of output holds the end-to-end metrics;
with ``--trace 1`` it holds per-layer metrics: half the rounds run untraced
and are then replayed with every public function of the package wrapped
(see ``tracing``).  Work files go to
``.bench_build/perfbench`` in the checkout and are removed at exit, except
the span file of the last traced run of each workload.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
# Fresh interpreters that repeat the set-up, before and after the timed
# phase, so set-up samples span the run rather than one moment of it.
SETUP_CHILDREN_BEFORE, SETUP_CHILDREN_AFTER = 2, 3
# Nominal round lengths (job time on a 2-vCPU x86 VM); a run of S seconds
# makes round(S / length) rounds.  The count is fixed in advance: stopping
# on the clock would end runs early exactly when their first rounds were
# slow, which widens the spread between runs.
ROUND_SECONDS = {"census-exact": 9.0, "geodesic-flow": 9.0,
                 "wall-scan": 7.0}
# Layers that should take (almost) no self time on each workload.
IDLE_LAYERS = {"census-exact": ("geodesics", "domain"),
               "geodesic-flow": ("lattice", "cusps", "shortvec"),
               "wall-scan": ("geodesics", "cusps")}

_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pathlib import Path
import run
print(run.setup(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]),
                Path(sys.argv[5]), t0)[1])
"""


class SetupError(Exception):
    pass


def setup(workload: str, seed: int, seconds: float, inputs: Path, t0: float):
    """Import the package from the checkout and generate the inputs.

    Returns the rounds of jobs and the seconds since ``t0``.
    """
    if not (SRC / "mukai_kit" / "__init__.py").is_file():
        raise SetupError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import mukai_kit.cli  # noqa: F401  (numpy; scipy via geodesics)
    if Path(mukai_kit.__file__).resolve().parent != SRC / "mukai_kit":
        raise SetupError(f"imported {mukai_kit.__file__}, not the checkout")
    import jobs
    n_rounds = max(1, round(seconds / ROUND_SECONDS[workload]))
    rounds = jobs.generate(workload, seed, n_rounds, inputs)
    return rounds, time.perf_counter() - t0


def child_setup_seconds(workload, seed, seconds, where: Path) -> float:
    """Set-up time of a fresh interpreter doing the same set-up."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(HERE), workload, str(seed),
         str(seconds), str(where)],
        capture_output=True, text=True, timeout=120, check=False)
    shutil.rmtree(where, ignore_errors=True)
    if proc.returncode != 0:
        raise SetupError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Runner:
    """Executes jobs in process and keeps the verdict on each output."""

    outdir: Path
    tracer: object = None
    outputs: dict = field(default_factory=dict)    # key -> verified bytes
    failures: list = field(default_factory=list)   # (key, reason)
    attempted: int = 0

    def execute(self, job, suffix: str):
        from mukai_kit import cli
        out = self.outdir / f"{job.key}.{suffix}"
        argv = [job.cmd, *job.args, "--out", str(out)]
        sink = io.StringIO()
        err = None
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            t = time.perf_counter()
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as exc:
                rc, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
        if err is None and rc != 0:
            err = f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
        return dt, (out.read_bytes() if err is None else None), err

    def verify(self, job, data: bytes):
        import oracles
        seen = self.outputs.get(job.key)
        if seen is not None:
            return None if seen == data else "bytes differ from an earlier run"
        try:
            job.check(data)
        except oracles.CheckError as exc:
            return f"check failed: {exc}"
        except Exception as exc:  # malformed output is a failed job
            return f"check raised {type(exc).__name__}: {exc}"
        self.outputs[job.key] = data
        return None

    def timed(self, job, job_id: int) -> float:
        if self.tracer is not None:
            self.tracer.job_id = job_id
        try:
            dt, data, err = self.execute(job, "out")
        finally:
            if self.tracer is not None:
                self.tracer.job_id = None
        self.attempted += 1
        err = err or self.verify(job, data)
        if err:
            self.failures.append((job.key, err))
        return dt

    def rounds(self, rounds) -> list[float]:
        """Run the rounds in order; returns the job times."""
        times: list[float] = []
        for job in (job for rnd in rounds for job in rnd):
            times.append(self.timed(job, len(times)))
        return times

    def probe(self, first_round, times):
        """Re-run the quickest job of each subcommand; bytes must repeat."""
        quickest = {}
        for job, dt in zip(first_round, times):
            if job.cmd not in quickest or dt < quickest[job.cmd][1]:
                quickest[job.cmd] = (job, dt)
        for job, _ in quickest.values():
            _, data, err = self.execute(job, "probe")
            self.attempted += 1
            if err is None and data != self.outputs.get(job.key):
                err = "determinism probe: output bytes differ"
            if err:
                self.failures.append((job.key, err))


def git_sha(root: Path):
    """HEAD of the checkout, or None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def pin_environment() -> bool:
    """Fix the environment before numpy loads; children inherit it.

    The jobs are single-threaded, so numpy's BLAS pool is held to one
    thread and the client uses one core.  MUKAI_KIT_THREADS enters every
    output's config_hash, so it is removed to keep output bytes independent
    of the caller's environment.  Returns whether it was set.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return os.environ.pop("MUKAI_KIT_THREADS", None) is not None


def run_record(args, n_rounds: int, n_jobs: int,
               threads_given: bool) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": n_rounds, "timed_jobs": n_jobs,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "git_sha": git_sha(ROOT),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "MUKAI_KIT_THREADS": "unset",
        "MUKAI_KIT_THREADS_removed": threads_given,
    }


def end_to_end(times, timed_failed: int, runner, setups) -> dict:
    """name -> (value, unit, sample count)."""
    ok = len(times) - timed_failed
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] \
        if len(times) > 1 else times[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "jobs_per_s": (ok / sum(times), "1/s", len(times)),
        "job_p50_s": (statistics.median(times), "s", len(times)),
        "job_p90_s": (p90, "s", len(times)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "fail_ratio": (len(runner.failures) / runner.attempted, "-",
                       runner.attempted),
    }


def gated_metrics(trace: int) -> list[str]:
    """Names BENCHMARK.json lists for this mode; they make the result line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure_traced(args, rounds, runner):
    """Half the rounds untraced, then the same rounds traced."""
    from tracing import Tracer, metric_units
    rounds = rounds[:max(1, len(rounds) // 2)]
    half = runner.rounds(rounds)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        times = runner.rounds(rounds)
    finally:
        tracer.uninstall()
        runner.tracer = None
    runner.probe(rounds[0], times)
    tracer.save(BUILD / f"trace-{args.workload}.npz")
    values = tracer.metrics(overhead_ratio=sum(half) / sum(times))
    units = metric_units()
    idle = IDLE_LAYERS[args.workload]
    share = sum(values[f"{layer}.self_share"] for layer in idle)
    note = (f"{'+'.join(idle)} take {share:.3%} of self time "
            f"(expected under 5% on {args.workload})")
    metrics = {k: (values[k], units[k], len(times)) for k in units}
    return metrics, [note], len(rounds), len(times)


def measure(args, rounds, runner, own_setup, work):
    """The timed phase, with set-up samples from fresh interpreters taken
    before and after it."""
    def child_setups(count):
        return [child_setup_seconds(args.workload, args.seed, args.seconds,
                                    work / "setup") for _ in range(count)]

    setups = [own_setup] + child_setups(SETUP_CHILDREN_BEFORE)
    times = runner.rounds(rounds)
    timed_failed = len(runner.failures)
    runner.probe(rounds[0], times)
    setups += child_setups(SETUP_CHILDREN_AFTER)
    metrics = end_to_end(times, timed_failed, runner, setups)
    p90 = metrics["job_p90_s"][0]
    beyond = sum(t > p90 for t in times)
    note = (f"job_p90_s has {beyond} jobs beyond it"
            + ("" if beyond >= 10 else " (under 10: indicative only)"))
    return metrics, [note], len(rounds), len(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")

    threads_given = pin_environment()
    work = BUILD / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        gated = gated_metrics(args.trace)
        rounds, own_setup = setup(args.workload, args.seed, args.seconds,
                                  work / "inputs", T0)
        (work / "out").mkdir(parents=True)
        runner = Runner(work / "out")
        if args.trace:
            metrics, notes, n_rounds, n_jobs = measure_traced(
                args, rounds, runner)
        else:
            metrics, notes, n_rounds, n_jobs = measure(
                args, rounds, runner, own_setup, work)
        record = run_record(args, n_rounds, n_jobs, threads_given)
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, reason in runner.failures:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    print("run_record " + json.dumps(record, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
