"""Batch command line interface with reproducible JSON configuration.

Every operation is a subcommand reading one JSON config file plus flag
overrides; no environment variables.  Each run writes a CSV table and a
JSON report into the output directory and prints a one-line verdict.
Exit status: 0 for a completed run (informative outcomes included), 2
when an explicit check fails, 1 for usage errors.

Floating-point output is printed with 17 significant digits.  Identical
configurations reproduce byte-identical files on the same machine and
numpy build; across builds the last digits may differ, since numpy's SIMD
exp/log/pow kernels can differ from libm by an ulp.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import estimates, fields, norms
from .errors import ConfigError, PresetConstraintError, ToolkitError
from .exponents import (
    ExponentField,
    ExponentPiece,
    PresetSpec,
    constant_field,
    preset,
)
from .norms import Quadrature
from .regions import (
    Annulus,
    Ball,
    Complement,
    Cylinder,
    CylinderSegment,
    Diff,
    Intersect,
    PowerCusp,
    Region,
    ShrinkCusp,
    TruncatedPowerCusp,
    TruncatedShrinkCusp,
)

COMMANDS = (
    "norm",
    "volume",
    "decay",
    "energy",
    "alpha-beta",
    "certify",
    "lemmas",
    "liouville",
)


def fmt(x: Any) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# ---------------------------------------------------------------------------
# configuration grammar


def region_from_dict(d: dict) -> Region:
    try:
        kind = d["type"]
        if kind == "ball":
            return Ball(tuple(d.get("center", (0.0, 0.0, 0.0))), d.get("radius", 1.0))
        if kind == "annulus":
            return Annulus(d["inner"], d["outer"])
        if kind == "cylinder":
            return Cylinder()
        if kind == "cylinder_segment":
            return CylinderSegment(d["half_length"])
        if kind == "power_cusp":
            return PowerCusp(d["gamma"])
        if kind == "shrink_cusp":
            return ShrinkCusp(d["sigma"])
        if kind == "truncated_power_cusp":
            return TruncatedPowerCusp(d["gamma"], d["length"])
        if kind == "truncated_shrink_cusp":
            return TruncatedShrinkCusp(d["sigma"], d["length"])
        if kind == "complement":
            return Complement(region_from_dict(d["of"]))
        if kind == "intersect":
            return Intersect(region_from_dict(d["first"]), region_from_dict(d["second"]))
        if kind == "diff":
            return Diff(region_from_dict(d["keep"]), region_from_dict(d["remove"]))
    except KeyError as exc:
        raise ConfigError(f"region spec {d!r} is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad region spec {d!r}: {exc}") from None
    raise ConfigError(f"unknown region type {d.get('type')!r}")


def field_from_dict(d: dict):
    name = d.get("name")
    if name == "zero":
        return fields.zero_vector()
    if name == "gradient_counterexample":
        return fields.gradient_counterexample()[0]
    if name == "decaying_solenoidal":
        if "rate" not in d:
            raise ConfigError("decaying_solenoidal needs a positive 'rate'")
        return fields.decaying_solenoidal(d["rate"])
    if name == "gaussian":
        return fields.gaussian_scalar()
    if name == "inverse_quadratic":
        return fields.inverse_quadratic_scalar()
    if name == "constant":
        return fields.constant_scalar(d.get("value", 1.0))
    raise ConfigError(f"unknown field {name!r}")


def pressure_from_dict(d: Optional[dict]):
    name = (d or {"name": "zero"}).get("name")
    if name == "zero":
        return fields.zero_scalar()
    if name in ("counterexample", "gradient_counterexample"):
        return fields.gradient_counterexample()[1]
    if name == "constant":
        return fields.constant_scalar(d.get("value", 0.0))
    raise ConfigError(f"unknown pressure field {name!r}")


def _exponent_value(v) -> float:
    return math.inf if v in ("inf", "+inf") else float(Fraction(str(v)))


def exponent_from_dict(d: dict) -> ExponentField:
    if "constant" in d:
        return constant_field(_exponent_value(d["constant"]))
    if "pieces" in d:
        pieces = tuple(
            (region_from_dict(p["region"]), ExponentPiece.constant(_exponent_value(p["value"])))
            for p in d["pieces"]
        )
        return ExponentField(pieces, ExponentPiece.constant(_exponent_value(d["default"])))
    spec = preset_spec_from_dict(d)
    return preset(spec, validate=d.get("validate", True))


def preset_spec_from_dict(d: dict) -> PresetSpec:
    try:
        return PresetSpec.make(
            kind=d["kind"],
            outer=str(d["outer"]),
            inner=None if d.get("inner") is None else str(d["inner"]),
            gamma=None if d.get("gamma") is None else str(d["gamma"]),
            sigma=None if d.get("sigma") is None else str(d["sigma"]),
        )
    except KeyError as exc:
        raise ConfigError(f"preset spec {d!r} is missing field {exc}") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad preset spec {d!r}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """One reproducible run; round-trips through JSON unchanged."""

    command: str
    out_dir: str = "out"
    quadrature: dict = field(default_factory=dict)
    region: Optional[dict] = None
    exponent: Optional[dict] = None
    fieldspec: Optional[dict] = None
    pressure: Optional[dict] = None
    r_grid: Optional[dict] = None       # {"start": .., "factor": .., "count": ..}
    radii: Optional[list] = None        # explicit radii, e.g. for energy
    kind: Optional[str] = None          # decay: laplacian | gradient
    method: Optional[str] = None        # volume: analytic | monte_carlo
    term: Optional[str] = None          # certify: alpha | beta | both
    validate: bool = True
    tolerances: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def public_dict(self) -> dict:
        """Config as echoed into reports: independent of the output path."""
        d = asdict(self)
        d.pop("out_dir")
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "command" not in d:
            raise ConfigError("config needs a 'command' field")
        return cls(**d)

    def quad(self) -> Quadrature:
        q = dict(self.quadrature)
        scheme = q.get("scheme", "mc")
        if scheme == "strat":
            scheme = "stratified_mc"
        if scheme in ("mc", "stratified_mc") and q.get("seed") is None:
            raise ConfigError(
                "Monte Carlo schemes require an explicit 'seed' (config or --seed)"
            )
        try:
            return Quadrature(
                scheme=scheme,
                n=int(q.get("n", 200000)),
                seed=int(q.get("seed", 0) or 0),
                strata=int(q.get("strata", 0)),
                rel_tol=float(q.get("rel_tol", 1e-4)),
                truncation_radius=float(q.get("truncation_radius", 8.0)),
            )
        except ValueError as exc:
            raise ConfigError(f"bad quadrature spec: {exc}") from None

    def grid(self) -> list[float]:
        if self.radii:
            return [float(r) for r in self.radii]
        if not self.r_grid:
            raise ConfigError("this command needs 'r_grid' or 'radii'")
        g = self.r_grid
        try:
            start, factor, count = float(g["start"]), float(g["factor"]), int(g["count"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad r_grid {g!r}: {exc}") from None
        if count < 4:
            raise ConfigError("r_grid count must be at least 4 for decay commands")
        return [start * factor**k for k in range(count)]


# ---------------------------------------------------------------------------
# output helpers


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonify) + "\n")


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


# ---------------------------------------------------------------------------
# subcommand runners; each returns (exit_code, verdict_line)


def run_norm(cfg: RunConfig, out: Path):
    if cfg.exponent is None or cfg.fieldspec is None:
        raise ConfigError("'norm' needs 'exponent' and 'fieldspec'")
    f = field_from_dict(cfg.fieldspec)
    p = exponent_from_dict(cfg.exponent)
    region = region_from_dict(cfg.region) if cfg.region else None
    res = norms.luxemburg_norm(f, p, region, cfg.quad())
    write_csv(
        out / "norm.csv",
        ["value", "abs_error", "status", "evaluations"],
        [[res.value, res.abs_error, res.status, res.evaluations]],
    )
    write_json(out / "norm.json", {"config": cfg.public_dict(), "result": asdict(res)})
    return 0, f"norm: value={fmt(res.value)} status={res.status}"


def run_volume(cfg: RunConfig, out: Path):
    if cfg.region is None:
        raise ConfigError("'volume' needs a 'region'")
    region = region_from_dict(cfg.region)
    method = cfg.method or "analytic"
    if method == "monte_carlo":
        q = cfg.quad()
        est = region.volume(method, n=q.n, seed=q.seed, strata=q.strata)
    else:
        est = region.volume(method)
    write_csv(
        out / "volume.csv",
        ["value", "std_error", "method"],
        [[est.value, est.std_error, method]],
    )
    write_json(out / "volume.json", {"config": cfg.public_dict(), "result": asdict(est)})
    return 0, f"volume: {fmt(est.value)} +/- {fmt(est.std_error)} ({method})"


def run_decay(cfg: RunConfig, out: Path):
    if cfg.exponent is None:
        raise ConfigError("'decay' needs an 'exponent' (preset) spec")
    spec = preset_spec_from_dict(cfg.exponent)
    p = preset(spec, validate=cfg.validate)
    kinds = [cfg.kind] if cfg.kind in ("laplacian", "gradient") else ["laplacian", "gradient"]
    grid = cfg.grid()
    rows, summary = [], {}
    for kind in kinds:
        conj = p.conjugate(2 if kind == "laplacian" else 3)
        rep = estimates.cutoff_norm_decay(kind, conj, grid, cfg.quad())
        for R, v, e in zip(rep.total.radii, rep.total.values, rep.norm_errors):
            rows.append([kind, R, v, e])
        summary[kind] = {
            "slope": rep.total.slope,
            "intercept": rep.total.intercept,
            "max_residual": rep.total.max_residual,
        }
    write_csv(out / "decay.csv", ["kind", "R", "norm", "abs_error"], rows)
    write_json(out / "decay.json", {"config": cfg.public_dict(), "fits": summary})
    slopes = " ".join(f"{k}={fmt(v['slope'])}" for k, v in summary.items())
    return 0, f"decay: fitted slopes {slopes}"


def run_energy(cfg: RunConfig, out: Path):
    if cfg.fieldspec is None:
        raise ConfigError("'energy' needs a 'fieldspec'")
    u = field_from_dict(cfg.fieldspec)
    P = pressure_from_dict(cfg.pressure)
    radii = cfg.radii
    if not radii:
        raise ConfigError("'energy' needs explicit 'radii'")
    # the identity check defaults to the deterministic product rule
    quad = cfg.quad() if cfg.quadrature.get("scheme") else Quadrature(scheme="radial")
    tol = cfg.tolerances.get("gap_tol", 1e-2)
    rows, verdicts = [], []
    for R in radii:
        rep = estimates.energy_identity_check(u, P, float(R), quad, gap_tol=tol)
        rows.append(
            [rep.radius, rep.lhs, rep.alpha, rep.beta, rep.rel_gap, rep.residual_sup,
             "withheld" if rep.verdict is None else str(rep.verdict)]
        )
        verdicts.append(rep.verdict)
    write_csv(
        out / "energy.csv",
        ["R", "lhs", "alpha", "beta", "rel_gap", "residual_sup", "verdict"],
        rows,
    )
    write_json(out / "energy.json", {"config": cfg.public_dict(), "rows": rows})
    failed = any(v is False for v in verdicts)
    line = "energy: " + ("check failed" if failed else "ok")
    return (2 if failed else 0), line


def run_alpha_beta(cfg: RunConfig, out: Path):
    if cfg.fieldspec is None:
        raise ConfigError("'alpha-beta' needs a 'fieldspec'")
    u = field_from_dict(cfg.fieldspec)
    P = pressure_from_dict(cfg.pressure)
    quad = cfg.quad()
    rows, majorant_ok = [], True
    for i, R in enumerate(cfg.grid()):
        q_i = quad.with_seed(quad.seed + 31 * i)
        a, a_err = estimates.alpha_term(R, u, q_i)
        flux = estimates.beta_terms(R, u, P, q_i)
        majorant_ok &= flux.majorant_ok
        rows.append([R, a, flux.beta1, flux.beta2, flux.beta, max(a_err, *flux.errors)])
    write_csv(
        out / "alpha-beta.csv",
        ["R", "alpha", "beta1", "beta2", "beta", "errors"],
        rows,
    )
    write_json(
        out / "alpha-beta.json",
        {"config": cfg.public_dict(), "rows": rows, "majorant_ok": majorant_ok},
    )
    line = "alpha-beta: majorant " + ("holds" if majorant_ok else "violated")
    return (0 if majorant_ok else 2), line


def run_certify(cfg: RunConfig, out: Path):
    if cfg.exponent is None:
        raise ConfigError("'certify' needs an 'exponent' preset spec")
    d = dict(cfg.exponent)
    d.setdefault("outer", 4)
    kind = d.get("kind")
    if kind not in ("cylinder", "power_cusp", "shrink_cusp"):
        raise ConfigError(f"certify needs a preset kind, got {kind!r}")
    bound_kind = "cusp" if kind == "power_cusp" else kind
    bound = estimates.admissible_upper_bound(
        bound_kind,
        Fraction(str(d["outer"])),
        gamma=None if d.get("gamma") is None else Fraction(str(d["gamma"])),
    )
    rows = []
    payload: dict[str, Any] = {
        "config": cfg.public_dict(),
        "upper_bound": bound if isinstance(bound, Fraction) else "inf",
        "upper_bound_float": float(bound),
    }
    certified = None
    if d.get("inner") is not None or kind == "shrink_cusp":
        spec = preset_spec_from_dict(d)
        if cfg.validate:
            spec.validate()
        terms = ["alpha", "beta"] if cfg.term in (None, "both") else [cfg.term]
        certs = {}
        certified = True
        for term in terms:
            cert = estimates.predicted_exponent(spec, term)
            certified &= cert.overall
            certs[term] = {
                "overall": cert.overall,
                "entries": [
                    {
                        "piece": e.piece,
                        "growth": e.growth,
                        "inv_conjugate": e.inv_conjugate,
                        "exponent": e.exponent,
                        "negative": e.negative,
                    }
                    for e in cert.entries
                ],
            }
            for e in cert.entries:
                rows.append(
                    [term, e.piece, str(e.growth), str(e.inv_conjugate),
                     str(e.exponent), e.negative]
                )
        payload["certificates"] = certs
        payload["certified"] = certified
    write_csv(
        out / "certify.csv",
        ["term", "piece", "growth", "inv_conjugate", "exponent", "negative"],
        rows,
    )
    write_json(out / "certify.json", payload)
    line = f"certify: upper bound {float(bound):g}"
    if certified is not None:
        line += f" certified={certified}"
    failed = cfg.validate and certified is False
    return (2 if failed else 0), line


def run_lemmas(cfg: RunConfig, out: Path):
    if cfg.exponent is None or cfg.region is None:
        raise ConfigError("'lemmas' needs 'exponent' and 'region'")
    p = exponent_from_dict(cfg.exponent)
    region = region_from_dict(cfg.region)
    f = field_from_dict(cfg.fieldspec or {"name": "inverse_quadratic"})
    quad = cfg.quad()
    checks = {
        "lemma1": norms.lemma1_check(p, region, quad),
        "lemma2": norms.lemma2_check(f, p, region, quad),
        "restriction": norms.restriction_identity_check(f, p, region, quad),
    }
    if p.declared_lower > 2:
        checks["power_identity"] = norms.power_identity_check(f, p, 2, region, quad)
    # doubling the exponent splits 1/p into two equal halves
    doubled = p.divided_by(0.5)
    checks["holder"] = norms.holder_check(
        f, fields.constant_scalar(1.0), p, doubled, doubled, region, quad
    )
    rows = [
        [name, c.lhs, c.rhs, c.deviation, c.tolerance, c.passed]
        for name, c in checks.items()
    ]
    write_csv(
        out / "lemmas.csv",
        ["check", "lhs", "rhs", "deviation", "tolerance", "passed"],
        rows,
    )
    write_json(
        out / "lemmas.json",
        {"config": cfg.public_dict(), "checks": {k: asdict(v) for k, v in checks.items()}},
    )
    n_pass = sum(c.passed for c in checks.values())
    line = f"lemmas: {n_pass}/{len(checks)} passed"
    return (0 if n_pass == len(checks) else 2), line


def run_liouville(cfg: RunConfig, out: Path):
    if cfg.exponent is None or cfg.fieldspec is None:
        raise ConfigError("'liouville' needs 'exponent' (preset) and 'fieldspec'")
    spec = preset_spec_from_dict(cfg.exponent)
    u = field_from_dict(cfg.fieldspec)
    P = pressure_from_dict(cfg.pressure)
    margin = cfg.tolerances.get("slope_margin", estimates.SLOPE_MARGIN)
    report = estimates.liouville_pipeline(
        spec, u, P, cfg.grid(), cfg.quad(), validate=cfg.validate, slope_margin=margin
    )
    rows = [
        [r["R"], r["alpha"], r["beta1"], r["beta2"], r["beta"],
         r["lap_norm"], r["grad_norm"], r["errors"]]
        for r in report.table()
    ]
    write_csv(
        out / "liouville.csv",
        ["R", "alpha", "beta1", "beta2", "beta", "lap_norm", "grad_norm", "errors"],
        rows,
    )
    write_json(
        out / "liouville.json",
        {
            "config": cfg.public_dict(),
            "conclusion": report.conclusion,
            "note": report.note,
            "membership": {
                "velocity": report.velocity_scan.verdict,
                "pressure": report.pressure_scan.verdict,
            },
            "fits": {
                k: None if f is None else {"slope": f.slope, "intercept": f.intercept}
                for k, f in report.fits.items()
            },
            "certificates": {
                "alpha": {
                    "overall": report.alpha_certificate.overall,
                    "max_exponent": report.alpha_certificate.max_exponent(),
                },
                "beta": {
                    "overall": report.beta_certificate.overall,
                    "max_exponent": report.beta_certificate.max_exponent(),
                },
            },
        },
    )
    return 0, f"liouville: {report.conclusion}"


RUNNERS = {
    "norm": run_norm,
    "volume": run_volume,
    "decay": run_decay,
    "energy": run_energy,
    "alpha-beta": run_alpha_beta,
    "certify": run_certify,
    "lemmas": run_lemmas,
    "liouville": run_liouville,
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise ConfigError(message)


CSV_COLUMNS = {
    "norm": "value,abs_error,status,evaluations",
    "volume": "value,std_error,method",
    "decay": "kind,R,norm,abs_error",
    "energy": "R,lhs,alpha,beta,rel_gap,residual_sup,verdict",
    "alpha-beta": "R,alpha,beta1,beta2,beta,errors",
    "certify": "term,piece,growth,inv_conjugate,exponent,negative",
    "lemmas": "check,lhs,rhs,deviation,tolerance,passed",
    "liouville": "R,alpha,beta1,beta2,beta,lap_norm,grad_norm,errors",
}

SUBCOMMAND_HELP = {
    "norm": "Luxemburg norm of a field against an exponent spec",
    "volume": "region volume, analytic or Monte Carlo",
    "decay": "cutoff-derivative norm decay over a radius grid",
    "energy": "localized energy identity check",
    "alpha-beta": "shell energy terms over a radius grid",
    "certify": "exact decay-exponent certificate and inner-exponent threshold",
    "lemmas": "norm lemma, restriction, power and Hoelder checks on one region",
    "liouville": "full decay verification pipeline",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="vexlp", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(
            name,
            add_help=True,
            help=SUBCOMMAND_HELP[name],
            description=(
                f"{SUBCOMMAND_HELP[name]}. Writes {name}.csv with the fixed "
                f"columns {CSV_COLUMNS[name]} (floats at 17 significant digits) "
                f"and {name}.json."
            ),
        )
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quad", type=str, default=None, choices=["radial", "mc", "strat"])
        p.add_argument("--samples", type=int, default=None, help="MC sample budget")
        p.add_argument("--tol", type=float, default=None, help="norm bisection rel tol")
        p.add_argument("--region", type=str, default=None, help="region spec as JSON")
        p.add_argument("--field", type=str, default=None, help="field spec as JSON")
        p.add_argument("--pressure", type=str, default=None, help="pressure spec as JSON")
        p.add_argument("--exponent", type=str, default=None, help="exponent spec as JSON")
        p.add_argument("--preset", type=str, default=None,
                       choices=["cylinder", "power_cusp", "shrink_cusp"])
        p.add_argument("--inner", type=str, default=None)
        p.add_argument("--outer", type=str, default=None)
        p.add_argument("--gamma", type=str, default=None)
        p.add_argument("--sigma", type=str, default=None)
        p.add_argument("--grid-start", type=float, default=None)
        p.add_argument("--grid-factor", type=float, default=None)
        p.add_argument("--grid-count", type=int, default=None)
        p.add_argument("--radii", type=str, default=None, help="comma-separated radii")
        p.add_argument("--kind", type=str, default=None, choices=["laplacian", "gradient"])
        p.add_argument("--method", type=str, default=None,
                       choices=["analytic", "monte_carlo"])
        p.add_argument("--term", type=str, default=None, choices=["alpha", "beta", "both"])
        p.add_argument("--no-validate", action="store_true")
    return parser


def _parse_json_flag(name: str, text: Optional[str]) -> Optional[dict]:
    if text is None:
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--{name} is not valid JSON: {exc}") from None


def config_from_args(args: argparse.Namespace) -> RunConfig:
    base: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            base = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config file {path} is not readable JSON: {exc}") from None
        if not isinstance(base, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    base["command"] = args.command
    if args.out:
        base["out_dir"] = args.out
    quad = dict(base.get("quadrature", {}))
    if args.quad:
        quad["scheme"] = args.quad
    if args.samples is not None:
        quad["n"] = args.samples
    if args.seed is not None:
        quad["seed"] = args.seed
    if args.tol is not None:
        quad["rel_tol"] = args.tol
    if quad:
        base["quadrature"] = quad
    for flag, key in (("region", "region"), ("field", "fieldspec"),
                      ("pressure", "pressure"), ("exponent", "exponent")):
        val = _parse_json_flag(flag, getattr(args, flag))
        if val is not None:
            base[key] = val
    if args.preset:
        spec = dict(base.get("exponent") or {})
        spec["kind"] = args.preset
        for nm in ("inner", "outer", "gamma", "sigma"):
            if getattr(args, nm) is not None:
                spec[nm] = getattr(args, nm)
        base["exponent"] = spec
    if args.grid_start is not None or args.grid_factor is not None or args.grid_count is not None:
        g = dict(base.get("r_grid") or {})
        if args.grid_start is not None:
            g["start"] = args.grid_start
        if args.grid_factor is not None:
            g["factor"] = args.grid_factor
        if args.grid_count is not None:
            g["count"] = args.grid_count
        base["r_grid"] = g
    if args.radii:
        try:
            base["radii"] = [float(r) for r in args.radii.split(",")]
        except ValueError:
            raise ConfigError(
                f"--radii must be comma-separated numbers, got {args.radii!r}"
            ) from None
    for nm in ("kind", "method", "term"):
        if getattr(args, nm) is not None:
            base[nm] = getattr(args, nm)
    if args.no_validate:
        base["validate"] = False
    return RunConfig.from_dict(base)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise ConfigError(f"choose a subcommand: {', '.join(COMMANDS)}")
        cfg = config_from_args(args)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        code, line = RUNNERS[cfg.command](cfg, out)
        print(line)
        return code
    except (ConfigError, PresetConstraintError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
