"""Checks on the benchmark's own counters.

    python3 bench/selfcheck.py

1. Traces the README `liouville` job in this process and asserts its
   reference counts: 36 node-set requests, 18 of them distinct, 12 norms
   and 237 evaluations of the modular inside the norm roots.
2. Runs `run.py --trace 1` twice for each workload with seed 1, each in
   a fresh process, and asserts that every per-layer metric with unit
   `count` or `bytes` is the same in both runs.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from run import OUT, ROOT, import_program

README_LIOUVILLE = (
    "liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
    "--field", '{"name":"decaying_solenoidal","rate":2}',
    "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6",
    "--samples", "200000", "--seed", "7",
)
README_COUNTS = {
    "norms.node_sets": 36,
    "norms.luxemburg_norm.calls": 12,
    "norms.rho_evals": 237,
}
README_DISTINCT_NODE_SETS = 18
EXACT_UNITS = ("count", "bytes")
SEED = 1


def readme_reference() -> list[str]:
    import tracing
    import workloads

    job = workloads.Job("liouville", "readme", (README_LIOUVILLE,),
                        {"conclusion": "decay-confirmed"})
    tracer = tracing.Tracer()
    tracer.job = 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="selfcheck-") as tmp:
        tracer.install()
        try:
            outcome = workloads.execute(job, Path(tmp))
        finally:
            tracer.uninstall()
        problems = workloads.check(job, outcome, Path(tmp)).problems
    metrics = tracing.layer_metrics(tracer.spans, {0}, 1)
    for name, want in README_COUNTS.items():
        if metrics[name] != want:
            problems.append(f"README liouville: {name} = {metrics[name]}, expected {want}")
    distinct = round(metrics["norms.node_sets.unique_ratio"] * metrics["norms.node_sets"])
    if distinct != README_DISTINCT_NODE_SETS:
        problems.append(f"README liouville: {distinct} distinct node sets, "
                        f"expected {README_DISTINCT_NODE_SETS}")
    return problems


def traced_counts(workload: str) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} traced run exited {proc.returncode}:\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in EXACT_UNITS}


def main() -> int:
    import_program()

    problems = readme_reference()
    print("README liouville reference:", "FAIL" if problems else "ok")
    for workload in ("liouville", "decay", "volume-growth"):
        first, second = (traced_counts(workload) for _ in range(2))
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        if diff:
            problems.append(f"{workload}: counts differ between same-seed runs: {diff}")
        print(f"{workload}: {len(first)} counts", "differ" if diff else "repeat exactly")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
