"""Seed-driven jobs for each workload and the oracle that checks their outputs.

A workload is an endless sequence of *cycles*; a cycle is a fixed rotation
of job kinds (for example cylinder, power cusp, counterexample) whose
parameters and Monte Carlo seeds are drawn from the workload seed.  Every
run measures whole cycles, so each run has the same mix of kinds and only
the drawn parameters differ between seeds.

The oracle checks properties that follow from the mathematics, not golden
bytes: decay tiers, fitted slopes against exact certificates computed here
in rational arithmetic, and volume-growth slopes against the closed forms.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from vexlp import cli, estimates

RADII = [8.0 * 2**k for k in range(6)]
GRID = ["--grid-start", "8", "--grid-factor", "2", "--grid-count", "6"]
# the README's margin between a fitted slope and its certified bound
SLOPE_MARGIN = 0.15
# On the shrinking-cusp preset alone, a decay slope may exceed certificate +
# SLOPE_MARGIN by this much.  This is a known defect: the inner piece holds
# only a handful of nodes at the largest radii (bench/README.md).  The cap is
# a fixed number, not a multiple of the program's own error bars, so noisier
# sparse-piece norms fail the check instead of widening it.  The largest
# excess seen in 88 draws from this workload's band was 0.126.
SHRINK_CUSP_EXCESS = 0.2
# band around the closed-form volume-growth slope (acceptance criterion 4)
GROWTH_BAND = 0.1


@dataclass(frozen=True)
class Job:
    workload: str
    kind: str
    calls: tuple[tuple[str, ...], ...]   # CLI argv lists, run in order
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    codes: list[int]
    slope: float | None = None            # volume-growth: fitted growth slope


# ---------------------------------------------------------------------------
# parameter draws; every value is a short decimal so the CLI gets it exactly


def _dec(x: float) -> str:
    return f"{x:.2f}"


# Preset parameters are drawn in narrow bands around the README's values
# (outer 4, inner 5, gamma and sigma 1/2, rate 2).  Each norm's error bar
# scales with them: across the admissible bands the median relative error
# of a decay job moves sevenfold with the outer exponent and twofold with
# the inner one, so wide draws would make rel_err.p25 and job times a
# function of the seed rather than of the program.  The shrinking cusp
# draws a wider band, which holds the case where its slope defect was found
# (outer 3.79, sigma 0.56).
OUTER = "4"


def _cylinder(rng: random.Random) -> dict:
    return {"kind": "cylinder", "inner": _dec(rng.uniform(4.8, 5.2)), "outer": OUTER}


def _power_cusp(rng: random.Random) -> dict:
    # inner stays below (6*gamma+3)/(2*gamma) >= 5.72 for gamma <= 0.55
    return {"kind": "power_cusp", "gamma": _dec(rng.uniform(0.45, 0.55)),
            "inner": _dec(rng.uniform(4.9, 5.1)), "outer": OUTER}


def _shrink_cusp(rng: random.Random) -> dict:
    return {"kind": "shrink_cusp", "sigma": _dec(rng.uniform(0.4, 0.6)),
            "outer": _dec(rng.uniform(3.7, 4.3))}


def _preset_flags(spec: dict) -> list[str]:
    flags = ["--preset", spec["kind"]]
    for name in ("inner", "outer", "gamma", "sigma"):
        if name in spec:
            flags += [f"--{name}", str(spec[name])]
    return flags


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(1, 2**31))


# ---------------------------------------------------------------------------
# cycles


def _liouville_job(kind: str, spec: dict, fieldspec: dict, pressure: dict | None,
                   expect: str, rng: random.Random) -> Job:
    argv = ["liouville", *_preset_flags(spec), "--field", json.dumps(fieldspec),
            *GRID, "--samples", "200000", "--seed", _seed(rng)]
    if pressure is not None:
        argv += ["--pressure", json.dumps(pressure)]
    return Job("liouville", kind, (tuple(argv),), {"conclusion": expect})


def _liouville_cycle(rng: random.Random) -> list[Job]:
    def decaying():
        return {"name": "decaying_solenoidal", "rate": float(_dec(rng.uniform(1.8, 2.2)))}

    counter_spec = _cylinder(rng) if rng.random() < 0.5 else _power_cusp(rng)
    return [
        _liouville_job("cylinder", _cylinder(rng), decaying(), None, "decay-confirmed", rng),
        _liouville_job("power_cusp", _power_cusp(rng), decaying(), None,
                       "decay-confirmed", rng),
        _liouville_job("counterexample", counter_spec, {"name": "gradient_counterexample"},
                       {"name": "counterexample"}, "hypotheses-violated", rng),
    ]


def _decay_cycle(rng: random.Random) -> list[Job]:
    jobs = []
    for draw in (_cylinder, _power_cusp, _shrink_cusp):
        spec = draw(rng)
        argv = ["decay", *_preset_flags(spec), *GRID, "--samples", "1000000",
                "--seed", _seed(rng)]
        jobs.append(Job("decay", spec["kind"], (tuple(argv),), {"spec": spec}))
    return jobs


def _shell(R: float) -> dict:
    return {"type": "annulus", "inner": R / 2, "outer": R}


def _volume_cycle(rng: random.Random) -> list[Job]:
    gamma = float(_dec(rng.uniform(0.25, 0.75)))
    sigma = float(_dec(rng.uniform(0.25, 0.9)))
    pieces = [
        ("tube", lambda R: {"type": "intersect", "first": _shell(R),
                            "second": {"type": "cylinder"}}, {"target": 1.0}),
        ("widening_cusp", lambda R: {"type": "intersect", "first": _shell(R),
                                     "second": {"type": "power_cusp", "gamma": gamma}},
         {"target": 2 * gamma + 1}),
        # the small-R "pancake" only lowers this slope; the bound is all that holds
        ("shrinking_cusp", lambda R: {"type": "intersect", "first": _shell(R),
                                      "second": {"type": "shrink_cusp", "sigma": sigma}},
         {"at_most": 1 - sigma}),
        ("outside_tube", lambda R: {"type": "diff", "keep": _shell(R),
                                    "remove": {"type": "cylinder"}}, {"target": 3.0}),
    ]
    jobs = []
    for kind, region, expect in pieces:
        calls = tuple(
            ("volume", "--region", json.dumps(region(R)), "--method", "monte_carlo",
             "--samples", "1000000", "--seed", _seed(rng))
            for R in RADII
        )
        jobs.append(Job("volume-growth", kind, calls, expect))
    return jobs


CYCLES = {
    "liouville": _liouville_cycle,
    "decay": _decay_cycle,
    "volume-growth": _volume_cycle,
}


def cycles(workload: str, seed: int) -> Iterator[list[Job]]:
    """Endless, deterministic sequence of job cycles for a workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield CYCLES[workload](rng)


# ---------------------------------------------------------------------------
# running one job


def _call_dir(out: Path, i: int) -> Path:
    return out / f"call{i}"


def _volume(out: Path) -> dict:
    return json.loads((out / "volume.json").read_text())["result"]


def execute(job: Job, out: Path) -> Outcome:
    """Run a job's CLI calls in this process; volume-growth also fits the growth slope."""
    codes = []
    for i, argv in enumerate(job.calls):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main([*argv, "--out", str(_call_dir(out, i))]))
    outcome = Outcome(codes)
    if job.workload == "volume-growth" and all(c == 0 for c in codes):
        values = [_volume(_call_dir(out, i))["value"] for i in range(len(job.calls))]
        outcome.slope = estimates.fit_decay(RADII, values).slope
    return outcome


# ---------------------------------------------------------------------------
# oracle


def max_exponent(spec: dict, term: str) -> Fraction:
    """Largest certified decay exponent -k + d * (p - k') / p over both pieces.

    alpha pairs the Laplacian scaling k = 2 with the 2-conjugate, beta the
    gradient scaling k = 1 with the 3-conjugate; d is the shell growth of
    the piece (1 tube, 2*gamma+1 widening cusp, 1-sigma shrinking cusp, 3
    outside), and the infinite inner exponent of the shrinking cusp has
    reciprocal conjugate 1.
    """
    k_scale, k_conj = (2, 2) if term == "alpha" else (1, 3)
    kind = spec["kind"]
    if kind == "cylinder":
        d_inner = Fraction(1)
    elif kind == "power_cusp":
        d_inner = 2 * Fraction(spec["gamma"]) + 1
    else:
        d_inner = 1 - Fraction(spec["sigma"])

    def inv_conj(p):
        return Fraction(1) if p is None else (p - k_conj) / p

    p_inner = None if kind == "shrink_cusp" else Fraction(spec["inner"])
    return max(-k_scale + d_inner * inv_conj(p_inner),
               -k_scale + 3 * inv_conj(Fraction(spec["outer"])))


def _read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    rel_err: list[float] = field(default_factory=list)   # error bar / |value| per output


def check(job: Job, outcome: Outcome, out: Path) -> Verdict:
    """Check a job's outputs against the mathematics."""
    expected_codes = [0] * len(job.calls)
    if outcome.codes != expected_codes:
        return Verdict([f"exit codes {outcome.codes}, expected {expected_codes}"])
    return _CHECKS[job.workload](job, outcome, out)


def _check_liouville(job, outcome, out):
    v = Verdict()
    report = json.loads((_call_dir(out, 0) / "liouville.json").read_text())
    if report["conclusion"] != job.expect["conclusion"]:
        v.problems.append(f"conclusion {report['conclusion']!r}, "
                          f"expected {job.expect['conclusion']!r}")
    rows = _read_rows(_call_dir(out, 0) / "liouville.csv")
    if len(rows) != len(RADII):
        v.problems.append(f"{len(rows)} rows, expected {len(RADII)}")
    for row in rows:
        values = [float(row[c]) for c in
                  ("alpha", "beta1", "beta2", "beta", "lap_norm", "grad_norm")]
        error = float(row["errors"])
        if not _finite(values + [error]):
            v.problems.append(f"non-finite value at R={row['R']}")
            continue
        # one error bar per row: relate it to the row's largest output
        v.rel_err.append(error / max(abs(x) for x in values))
    return v


def _check_decay(job, outcome, out):
    v = Verdict()
    spec = job.expect["spec"]
    fits = json.loads((_call_dir(out, 0) / "decay.json").read_text())["fits"]
    rows = _read_rows(_call_dir(out, 0) / "decay.csv")
    if len(rows) != 2 * len(RADII):
        v.problems.append(f"{len(rows)} rows, expected {2 * len(RADII)}")
    for row in rows:
        norm, error = float(row["norm"]), float(row["abs_error"])
        if not (_finite([norm, error]) and norm > 0):
            v.problems.append(f"bad {row['kind']} norm {norm} +/- {error} at R={row['R']}")
            continue
        v.rel_err.append(error / norm)
    if v.problems:
        return v
    allowed = SHRINK_CUSP_EXCESS if spec["kind"] == "shrink_cusp" else 0.0
    for kind, term in (("laplacian", "alpha"), ("gradient", "beta")):
        bound = float(max_exponent(spec, term)) + SLOPE_MARGIN
        excess = fits[kind]["slope"] - bound
        if excess > 0:
            message = (f"{kind} slope {fits[kind]['slope']:.4f} above {term} bound "
                       f"{bound:.4f} by {excess:.4f}")
            (v.notes if excess <= allowed else v.problems).append(message)
    return v


def _check_volume(job, outcome, out):
    v = Verdict()
    for i in range(len(job.calls)):
        est = _volume(_call_dir(out, i))
        if not (_finite([est["value"], est["std_error"]]) and est["value"] > 0):
            v.problems.append(f"bad volume {est} at R={RADII[i]}")
            continue
        v.rel_err.append(est["std_error"] / est["value"])
    slope = outcome.slope
    if "target" in job.expect and not abs(slope - job.expect["target"]) <= GROWTH_BAND:
        v.problems.append(f"growth slope {slope}, expected {job.expect['target']} "
                          f"+/- {GROWTH_BAND}")
    if "at_most" in job.expect and not slope <= job.expect["at_most"] + GROWTH_BAND:
        v.problems.append(f"growth slope {slope} above {job.expect['at_most']} "
                          f"+ {GROWTH_BAND}")
    return v


_CHECKS = {
    "liouville": _check_liouville,
    "decay": _check_decay,
    "volume-growth": _check_volume,
}
