"""Per-layer spans recorded from outside the program.

A `Tracer` rebinds the public functions and methods of each vexlp module
(and the names other modules imported from them) to wrappers that record a
span: name, start, end, parent span and job id, plus a few work counts
taken from the arguments or the result.  Spans stay in memory while the
jobs run; `layer_metrics` turns them into the per-layer metrics, and
`Tracer.dump` writes them out when the run ends.  Nothing is installed
unless `install` is called, and `uninstall` restores every original.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from vexlp import cli, cutoff, estimates, exponents, fields, norms, regions

_CONTAINS = "regions.contains"


def _rows(x) -> int:
    shape = np.shape(x)
    return 1 if len(shape) == 1 else int(shape[0])


def _points_arg(args, kwargs, result):
    return {"points": _rows(args[1])}


def _contains_work(args, kwargs, result):
    return {"points": _rows(args[1]), "accepted": int(np.count_nonzero(result))}


def _node_set_work(args, kwargs, result):
    domain, quad = args[0], args[1]
    return {"points": int(result.points.shape[0]), "key": repr((domain, quad))}


def _region_subclasses():
    todo, found = list(regions.Region.__subclasses__()), []
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "_contains_batch" in cls.__dict__:
            found.append(cls)
    return found


def _probes():
    """(span name, [(owner, attribute), ...], work extractor) for every wrapped callable."""
    return [
        # norms
        ("norms.luxemburg_norm",
         [(norms, "luxemburg_norm"), (estimates, "luxemburg_norm")],
         lambda a, k, r: {"evaluations": int(r.evaluations)}),
        ("norms.node_sets", [(norms, "_build_nodes")], _node_set_work),
        ("norms.modular", [(norms, "modular"), (fields, "modular")], None),
        ("norms.integrate_many",
         [(norms, "integrate_many"), (estimates, "integrate_many")], None),
        # regions
        ("regions.box_sample", [(regions.Box, "sample")],
         lambda a, k, r: {"points": int(r.shape[0])}),
        (_CONTAINS, [(cls, "_contains_batch") for cls in _region_subclasses()],
         _contains_work),
        ("regions.envelope", [(regions.Region, "envelope")],
         lambda a, k, r: {"boxes": len(r.boxes)}),
        ("regions.volume", [(regions.Region, "volume")], None),
        # fields; every scalar field a workload evaluates is a pressure
        ("fields.velocity", [(fields.VectorField3, "__call__")], _points_arg),
        ("fields.pressure", [(fields.ScalarField3, "__call__")], _points_arg),
        ("fields.membership_scan",
         [(fields, "membership_scan"), (estimates, "membership_scan")], None),
        # cutoff and exponents
        ("cutoff.grad", [(cutoff.RadialCutoff, "grad")], _points_arg),
        ("cutoff.laplacian", [(cutoff.RadialCutoff, "laplacian")], _points_arg),
        ("exponents.eval", [(exponents.ExponentField, "__call__")], _points_arg),
        # estimates
        *[(f"estimates.{fn}", [(estimates, fn)], None)
          for fn in ("liouville_pipeline", "alpha_term", "beta_terms",
                     "cutoff_norm_decay", "predicted_exponent", "fit_decay")],
        # cli
        ("cli.config", [(cli, "build_parser"), (cli, "config_from_args")], None),
        ("cli.write", [(cli, "write_csv"), (cli, "write_json")],
         lambda a, k, r: {"bytes": Path(a[0]).stat().st_size}),
        ("cli.main", [(cli, "main")], None),
    ]


class Tracer:
    """Records spans around the wrapped callables while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [id, name, start_ns, end_ns, parent, job, work]
        self.job = -1
        self._stack: list[int] = []
        self._names: list[str] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, targets, work in _probes():
            for owner, attr in targets:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, work))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, original, work):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # nested membership tests (Intersect -> first, ...) belong to the outer one
            if name == _CONTAINS and tracer._names and tracer._names[-1] == _CONTAINS:
                return original(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            tracer._names.append(name)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer._names.pop()
                tracer.spans.append([sid, name, start, end, parent, tracer.job, None])
            if work is not None:  # children were appended earlier, so this span is last
                tracer.spans[-1][6] = work(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: Path, header: dict) -> None:
        fields_ = ["id", "name", "start_ns", "end_ns", "parent", "job", "work"]
        with path.open("w") as fh:
            json.dump({**header, "span_fields": fields_, "spans": self.spans}, fh)


def layer_metrics(spans, count_jobs: set[int], cycles: int) -> dict[str, float]:
    """Per-layer metrics from recorded spans.

    Counts cover the jobs in ``count_jobs`` (one cycle, so they repeat
    exactly for a fixed seed); self times are seconds per cycle, averaged
    over the ``cycles`` traced cycles.
    """
    child_ns: dict[int, int] = defaultdict(int)
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            child_ns[span[4]] += span[3] - span[2]
            children[span[4]].append(span)

    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    keys_per_job: dict[int, set] = defaultdict(set)
    rho_node_evals = 0
    for sid, name, start, end, parent, job, counts in spans:
        self_s[name] += (end - start - child_ns[sid]) / 1e9
        if job not in count_jobs:
            continue
        calls[name] += 1
        for key, value in (counts or {}).items():
            if key == "key":
                keys_per_job[job].add(value)
            else:
                work[f"{name}.{key}"] += value
        if name == "norms.luxemburg_norm":
            nodes = sum((c[6] or {}).get("points", 0)
                        for c in children[sid] if c[1] == "norms.node_sets")
            rho_node_evals += (counts or {}).get("evaluations", 0) * nodes

    requests = calls["norms.node_sets"]
    distinct = sum(len(keys) for keys in keys_per_job.values())
    tested = work[f"{_CONTAINS}.points"]

    def per_cycle(name):
        return self_s[name] / cycles

    out = {
        "norms.luxemburg_norm.calls": calls["norms.luxemburg_norm"],
        "norms.luxemburg_norm.self_s": per_cycle("norms.luxemburg_norm"),
        "norms.rho_evals": work["norms.luxemburg_norm.evaluations"],
        "norms.rho_node_evals": rho_node_evals,
        "norms.node_sets": requests,
        "norms.node_sets.unique_ratio": distinct / requests if requests else 0.0,
        "norms.node_sets.points": work["norms.node_sets.points"],
        "norms.node_sets.self_s": per_cycle("norms.node_sets"),
        "norms.modular.calls": calls["norms.modular"],
        "norms.modular.self_s": per_cycle("norms.modular"),
        "norms.integrate_many.calls": calls["norms.integrate_many"],
        "norms.integrate_many.self_s": per_cycle("norms.integrate_many"),
        "regions.box_sample.points": work["regions.box_sample.points"],
        "regions.box_sample.self_s": per_cycle("regions.box_sample"),
        "regions.contains.calls": calls[_CONTAINS],
        "regions.contains.points": tested,
        "regions.contains.self_s": per_cycle(_CONTAINS),
        "regions.envelope.calls": calls["regions.envelope"],
        "regions.envelope.boxes": work["regions.envelope.boxes"],
        "regions.volume.calls": calls["regions.volume"],
        "regions.volume.self_s": per_cycle("regions.volume"),
        "regions.accept_ratio": work[f"{_CONTAINS}.accepted"] / tested if tested else 0.0,
        "fields.velocity.points": work["fields.velocity.points"],
        "fields.velocity.self_s": per_cycle("fields.velocity"),
        "fields.pressure.points": work["fields.pressure.points"],
        "fields.pressure.self_s": per_cycle("fields.pressure"),
        "fields.membership_scan.calls": calls["fields.membership_scan"],
        "fields.membership_scan.self_s": per_cycle("fields.membership_scan"),
        "cutoff.grad.points": work["cutoff.grad.points"],
        "cutoff.grad.self_s": per_cycle("cutoff.grad"),
        "cutoff.laplacian.points": work["cutoff.laplacian.points"],
        "cutoff.laplacian.self_s": per_cycle("cutoff.laplacian"),
        "exponents.eval.points": work["exponents.eval.points"],
        "exponents.eval.self_s": per_cycle("exponents.eval"),
    }
    for fn in ("liouville_pipeline", "alpha_term", "beta_terms", "cutoff_norm_decay",
               "predicted_exponent", "fit_decay"):
        out[f"estimates.{fn}.self_s"] = per_cycle(f"estimates.{fn}")
    out["estimates.fit_decay.calls"] = calls["estimates.fit_decay"]
    out["cli.config.self_s"] = per_cycle("cli.config")
    out["cli.write.bytes"] = work["cli.write.bytes"]
    out["cli.write.self_s"] = per_cycle("cli.write")
    out["cli.main.self_s"] = per_cycle("cli.main")
    return out
