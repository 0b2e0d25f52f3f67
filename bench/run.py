"""vexlp benchmark: one closed-loop client running CLI jobs in-process.

    python3 bench/run.py --workload liouville --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`, never from an installed copy.  The workload's jobs are drawn from
`--seed` (see workloads.py); each job runs `vexlp.cli.main` in this
process, one after another, for whole cycles of jobs until the next cycle
would end after `--seconds`.  Every output is checked against the
mathematics.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the benchmark cannot run at all.
"""

from __future__ import annotations

import os

# BLAS pools would add threads the jobs do not need; the cap also reaches
# every child process through the inherited environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7
REFERENCE_SEED = 20231112
# reference time after a job, as a share of that job's time; before the first job
REFERENCE_SHARE = 0.1
REFERENCE_FIRST_S = 1.0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["liouville", "decay", "volume-growth"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and generate inputs, print 'ready', exit (set-up timing)")
    return ap.parse_args(argv)


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_program():
    """Import vexlp from this checkout's src/ and fail if it is not there."""
    src = ROOT / "src"
    if not (src / "vexlp" / "__init__.py").is_file():
        fail(f"no vexlp sources under {src}")
    sys.path.insert(0, str(src))
    import vexlp

    if Path(vexlp.__file__).resolve().parent != (src / "vexlp").resolve():
        fail(f"imported vexlp from {vexlp.__file__}, not {src}")
    return vexlp


def git_commit() -> str:
    # the ceiling keeps git from taking up a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(vexlp, args) -> dict:
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = getattr(umath, "__cpu_features__", {})
    return {
        "vexlp": vexlp.__version__,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_baseline": list(getattr(umath, "__cpu_baseline__", [])),
        "cpu_dispatch": [f for f in getattr(umath, "__cpu_dispatch__", []) if found.get(f)],
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class SetupProbes:
    """Wall time from starting a fresh interpreter to its first job being ready.

    Host speed changes over seconds, so the probes are spread over the run:
    one before the first job, then at most one between jobs on an even
    schedule, and the rest after the last job.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
                     args.workload, "--seed", str(args.seed), "--setup-probe"]
        self.interval = args.seconds / SETUP_PROBES
        self.times: list[float] = []
        self.start = time.perf_counter()

    def probe(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        self.times.append(elapsed)

    def between_jobs(self) -> None:
        due = (time.perf_counter() - self.start) >= len(self.times) * self.interval
        if due and len(self.times) < SETUP_PROBES:
            self.probe()

    def median(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


def reference_once() -> float:
    """Wall time of a fixed numpy computation shaped like the program's work.

    1M box samples under a shell-and-cusp membership mask, like a Monte
    Carlo volume, then a loop of power sums, like a modular inside a norm's
    bisection.  It calls nothing in vexlp, so a change to the program leaves
    it alone, while the host's speed moves it and the jobs alike.  Samples
    come in batches of 100k, so that its memory stays below every job's and
    peak_rss_mb remains the program's.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(REFERENCE_SEED)
    for _ in range(10):
        x = rng.random((100_000, 3)) * 2.0 - 1.0
        r2 = np.einsum("ij,ij->i", x, x)
        inside = (r2 < 1.0) & (r2 > 0.25) & (x[:, 1] ** 2 + x[:, 2] ** 2 < np.abs(x[:, 0]) ** 1.3)
        np.count_nonzero(inside)
    y = rng.random(200_000) + 0.1
    lam = 1.0
    for _ in range(40):
        np.sum((y / lam) ** 3.7)
        lam *= 1.01
    return time.perf_counter() - start


def reference_s(seconds: float) -> float:
    """Median time of the reference, repeated for `seconds` and at least once.

    One repetition takes about 0.09 s and its time varies by several
    percent; a long job gets a longer, steadier reading of the host.
    """
    times = [reference_once()]
    end = time.perf_counter() + seconds - times[0]
    while time.perf_counter() < end:
        times.append(reference_once())
    return statistics.median(times)


class Run:
    """Job loop state: timings, failures and relative errors."""

    def __init__(self, workloads, out: Path):
        self.workloads = workloads
        self.out = out
        self.job_s: list[float] = []      # passed and failed jobs alike
        self.job_ref: list[float] = []    # untraced job times in reference units
        self.cycle_job_s: list[float] = []    # mean job time of each untraced cycle
        self.cycle_job_ref: list[float] = []  # the same in reference units
        self.ref_s: list[float] = []
        self.rel_err: list[float] = []
        self.attempted = 0
        self.failed = 0

    def job(self, job, tracer=None) -> float:
        job_id = self.attempted
        self.attempted += 1
        out = self.out / f"job{job_id}"
        if tracer is not None:
            tracer.job = job_id
            tracer.install()
        start = time.perf_counter()
        try:
            try:
                outcome = self.workloads.execute(job, out)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            verdict = self.workloads.check(job, outcome, out)
        except Exception:  # a crashing job counts as failed; the loop goes on
            verdict = self.workloads.Verdict([traceback.format_exc()])
        shutil.rmtree(out, ignore_errors=True)
        self.job_s.append(elapsed)
        status = "FAILED" if verdict.problems else "ok"
        print(f"job {job_id} {job.kind} {elapsed:.3f}s {status}", flush=True)
        if verdict.problems or verdict.notes:
            print(f"{status if verdict.problems else 'NOTE'} {job.workload}/{job.kind} "
                  f"job {job_id}: {' '.join(job.calls[0])}", file=sys.stderr)
            for line in verdict.problems + verdict.notes:
                print(f"  {line}", file=sys.stderr)
        if verdict.problems:
            self.failed += 1
        else:
            self.rel_err.extend(verdict.rel_err)
        return elapsed


def run_untraced(run: Run, cycles, seconds: float, setup: SetupProbes) -> None:
    """Runs whole cycles, timing the reference before the first job and after each.

    A job's time in reference units is its wall time divided by the mean of
    the reference times just before and just after it.  The host's speed
    drifts by tens of percent over minutes, and it moves both alike.
    """
    start = time.perf_counter()
    setup.probe()
    run.ref_s.append(reference_s(REFERENCE_FIRST_S))
    for jobs in cycles:
        cycle_start = time.perf_counter()
        times, ref_times = [], []
        for job in jobs:
            times.append(run.job(job))
            run.ref_s.append(reference_s(REFERENCE_SHARE * times[-1]))
            ref_times.append(times[-1] / statistics.fmean(run.ref_s[-2:]))
            setup.between_jobs()
        run.job_ref.extend(ref_times)
        run.cycle_job_s.append(statistics.fmean(times))
        run.cycle_job_ref.append(statistics.fmean(ref_times))
        now = time.perf_counter()
        if now - start + (now - cycle_start) > seconds:
            break


def run_traced(run: Run, cycles, seconds: float):
    """Runs each job untraced and traced back to back, alternating which goes first."""
    import tracing

    tracer = tracing.Tracer()
    plain = traced = 0.0
    first_traced: set[int] = set()
    n_cycles = 0
    start = time.perf_counter()
    for jobs in cycles:
        t0 = time.perf_counter()
        for i, job in enumerate(jobs):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if not with_trace:
                    plain += run.job(job)
                    continue
                if n_cycles == 0:
                    first_traced.add(run.attempted)
                traced += run.job(job, tracer)
        n_cycles += 1
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    metrics = tracing.layer_metrics(tracer.spans, first_traced, n_cycles)
    metrics["trace.overhead"] = traced / plain - 1.0
    return metrics, tracer


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    return {
        # a cycle holds one job of each kind, so every kind moves its mean
        "job_ref.p50": statistics.median(run.cycle_job_ref),
        "jobs_per_ref": (run.attempted - run.failed) / sum(run.job_ref),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (run.attempted - run.failed) / run.attempted,
        # no passing output leaves nothing to measure; `correct` is false then
        "rel_err.p25": statistics.quantiles(run.rel_err, n=4)[0] if run.rel_err else 0.0,
    }


def main(argv=None) -> int:
    # a terminated run still removes its temporary outputs on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    vexlp = import_program()
    import workloads

    cycles = workloads.cycles(args.workload, args.seed)
    first = next(cycles)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    fp = fingerprint(vexlp, args)
    print("fingerprint " + json.dumps(fp, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    cycles = itertools.chain([first], cycles)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="jobs-") as tmp:
        run = Run(workloads, Path(tmp))
        if args.trace:
            metrics, tracer = run_traced(run, cycles, args.seconds)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans_path, {"fingerprint": fp})
            print(f"spans written to {spans_path.relative_to(ROOT)}", flush=True)
        else:
            setup = SetupProbes(args)
            run_untraced(run, cycles, args.seconds, setup)
            metrics = end_to_end(run, setup.median())
            print(f"wall times: job_s.p50 {statistics.median(run.cycle_job_s):.6g} s, "
                  f"jobs_per_s {(run.attempted - run.failed) / sum(run.job_s):.6g} 1/s, "
                  f"reference {statistics.median(run.ref_s):.6g} s", flush=True)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        fail(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    print(f"{args.workload}: {run.attempted} jobs, {run.failed} failed")
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>16.6g} {m['unit']}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
