"""Batch command line interface with reproducible JSON configuration.

Every operation is a subcommand reading one JSON config file plus flag
overrides; no environment variables.  Each run writes a CSV table and a
JSON report into the output directory and prints a one-line verdict.
Exit status: 0 for a completed run (informative outcomes included), 2
when an explicit check fails, 1 for usage errors.

Two tables at the end of this module drive the interface.  ``COMMANDS``
gives each subcommand its help text, CSV columns and runner; a runner
returns ``(rows, payload, exit_code, verdict_line)`` and ``main`` writes
both output files.  ``FLAGS`` gives each flag the config key it
overrides, its value type or choices, and its help; the parser, the
flag-over-config merge and the type and key checks of config values all
read it, so every flag is its config key.

Floating-point output is printed with 17 significant digits.  Identical
configurations reproduce byte-identical files on the same machine and
numpy build; across builds the last digits may differ, since numpy's SIMD
exp/log/pow kernels can differ from libm by an ulp.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from . import estimates, fields, norms
from .errors import ConfigError, PresetConstraintError, ToolkitError
from .exponents import (
    PRESET_KINDS,
    ExponentField,
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
    Diff,
    Intersect,
    PowerCusp,
    Region,
    ShrinkCusp,
)


def fmt(x: Any) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


# ---------------------------------------------------------------------------
# configuration grammar


def _spec(d, what: str, keys=None) -> dict:
    """``d`` as a JSON object; given ``keys``, one holding no other key."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} spec must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(keys)) if keys is not None else ()
    if unknown:
        raise ConfigError(f"unknown {what} spec keys: {', '.join(unknown)}")
    return d


def _finite(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{key!r} must be a finite number, got {value!r}")
    return value


def _number(d: dict, key: str, default: Optional[float] = None) -> float:
    """``d[key]`` as a finite number; without a default the key is required."""
    return _finite(key, d[key] if default is None else d.get(key, default))


def _point(d: dict, key: str, default: tuple) -> tuple:
    values = d.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{key!r} must be a list of finite numbers, got {values!r}")
    return tuple(_finite(key, v) for v in values)


# a grammar entry: the keys its spec may hold besides its type or name, and
# its builder; a truncated family is the family class with an axial bound
REGION_TYPES = {
    "ball": ("center radius", lambda d: Ball(_point(d, "center", (0.0, 0.0, 0.0)),
                                             _number(d, "radius", 1.0))),
    "annulus": ("inner outer", lambda d: Annulus(_number(d, "inner"), _number(d, "outer"))),
    "cylinder": ("", lambda d: Cylinder()),
    "cylinder_segment": ("half_length", lambda d: Cylinder(_number(d, "half_length"))),
    "power_cusp": ("gamma", lambda d: PowerCusp(_number(d, "gamma"))),
    "shrink_cusp": ("sigma", lambda d: ShrinkCusp(_number(d, "sigma"))),
    "truncated_power_cusp": ("gamma length", lambda d: PowerCusp(_number(d, "gamma"),
                                                                 _number(d, "length"))),
    "truncated_shrink_cusp": ("sigma length", lambda d: ShrinkCusp(_number(d, "sigma"),
                                                                   _number(d, "length"))),
    "complement": ("of", lambda d: Complement(region_from_dict(d["of"]))),
    "intersect": ("first second", lambda d: Intersect(region_from_dict(d["first"]),
                                                      region_from_dict(d["second"]))),
    "diff": ("keep remove", lambda d: Diff(region_from_dict(d["keep"]),
                                           region_from_dict(d["remove"]))),
}

# every built field carries the `fields.Decay` its builder declares
FIELD_TYPES = {
    "zero": ("", lambda d: fields.zero_vector()),
    "gradient_counterexample": ("", lambda d: fields.gradient_counterexample()[0]),
    "decaying_solenoidal": ("rate", lambda d: fields.decaying_solenoidal(_number(d, "rate"))),
    "gaussian": ("", lambda d: fields.gaussian_scalar()),
    "inverse_quadratic": ("", lambda d: fields.inverse_quadratic_scalar()),
    "constant": ("value", lambda d: fields.constant_scalar(_number(d, "value", 1.0))),
}

PRESSURE_TYPES = {
    "zero": ("", lambda d: fields.zero_scalar()),
    "counterexample": ("", lambda d: fields.gradient_counterexample()[1]),
    "gradient_counterexample": ("", lambda d: fields.gradient_counterexample()[1]),
    "constant": ("value", lambda d: fields.constant_scalar(_number(d, "value", 0.0))),
}


def _build(types: dict, d, key: str, what: str):
    """Look up ``d[key]`` in a grammar table and build it from ``d``, which
    may hold only the keys the entry declares."""
    name = _spec(d, what).get(key)
    if not isinstance(name, str) or name not in types:
        raise ConfigError(f"unknown {what} {key} {name!r}")
    keys, builder = types[name]
    try:
        return builder(_spec(d, what, {key, *keys.split()}))
    except KeyError as exc:
        raise ConfigError(f"{what} spec {d!r} is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what} spec {d!r}: {exc}") from None


def region_from_dict(d: dict) -> Region:
    return _build(REGION_TYPES, d, "type", "region")


def field_from_dict(d: dict):
    return _build(FIELD_TYPES, d, "name", "field")


def pressure_from_dict(d: Optional[dict]):
    return _build(PRESSURE_TYPES, d or {"name": "zero"}, "name", "pressure")


def velocity_from_dict(d: dict) -> fields.VectorField3:
    u = field_from_dict(d)
    if not isinstance(u, fields.VectorField3):
        raise ConfigError(f"field {d['name']!r} is scalar; this command needs a velocity")
    return u


def _exponent_value(v) -> float:
    return math.inf if v in ("inf", "+inf") else float(Fraction(str(v)))


def exponent_from_dict(d: dict, validate: bool) -> ExponentField:
    try:
        if "constant" in _spec(d, "exponent"):
            return constant_field(_exponent_value(_spec(d, "exponent", {"constant"})["constant"]))
        if "pieces" in d:
            _spec(d, "exponent", {"pieces", "default"})
            pieces = tuple(
                (region_from_dict(p["region"]), _exponent_value(p["value"]))
                for p in (_spec(e, "exponent piece", {"region", "value"}) for e in d["pieces"])
            )
            return ExponentField(pieces, _exponent_value(d["default"]))
    except KeyError as exc:
        raise ConfigError(f"exponent spec {d!r} is missing field {exc}") from None
    except (OverflowError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad exponent spec {d!r}: {exc}") from None
    return preset(preset_spec_from_dict(d), validate=validate)


def preset_spec_from_dict(d: dict) -> PresetSpec:
    _spec(d, "preset", {"kind", "inner", "outer", "gamma", "sigma"})
    try:
        return PresetSpec.make(
            kind=d["kind"],
            outer=str(d["outer"]),
            **{k: str(d[k]) for k in ("inner", "gamma", "sigma") if d.get(k) is not None},
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
        _check_types(d)
        return cls(**{k: v for k, v in d.items() if v is not None})  # null: the default

    def quad(self) -> Quadrature:
        """The quadrature; an absent or null key takes its default, and
        without a scheme, the command's default scheme."""
        q = {k: v for k, v in self.quadrature.items() if v is not None}
        q["scheme"] = q.get("scheme") or COMMANDS[self.command].scheme
        if q["scheme"] == "mc" and "seed" not in q:
            raise ConfigError(
                "Monte Carlo schemes require an explicit 'seed' (config or --seed)"
            )
        try:
            return Quadrature(**q)  # _check_types has checked each value's type
        except ValueError as exc:
            raise ConfigError(f"bad quadrature spec: {exc}") from None

    def tolerance(self, key: str, default: float) -> float:
        """A 'tolerances' entry; absent or null means the default."""
        value = self.tolerances.get(key)
        return default if value is None else value

    def grid(self, fit: bool = False) -> list[float]:
        """Positive finite radii from 'radii' or 'r_grid'; a decay fit needs
        at least four of them, strictly increasing, and so does every r_grid."""
        if not (self.radii or self.r_grid):
            raise ConfigError("this command needs 'r_grid' or 'radii'")
        g = self.r_grid
        try:
            if self.radii:
                radii = [float(r) for r in self.radii]
            else:
                start, factor, count = float(g["start"]), float(g["factor"]), int(g["count"])
                radii = [start * factor**k for k in range(count)]
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad radii {self.radii or g!r}: {exc!r}") from None
        if not all(0.0 < r < math.inf for r in radii):
            raise ConfigError(f"radii must be positive and finite, got {radii}")
        if len(radii) < 4 and (fit or not self.radii):
            raise ConfigError(f"a radius grid needs at least 4 radii, got {radii}")
        if fit and any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError(f"a decay fit needs strictly increasing radii, got {radii}")
        return radii


# ---------------------------------------------------------------------------
# output helpers


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a non-finite float is written as "inf", "-inf" or "nan",
    and a Fraction as its string, such as "9/2"."""
    path.write_text(json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _strict(obj):
    if isinstance(obj, Fraction) or isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# subcommand runners; each returns (csv_rows, json_payload, exit_code,
# verdict_line), and main adds the config to the payload


def run_norm(cfg: RunConfig):
    f = field_from_dict(cfg.fieldspec)
    p = exponent_from_dict(cfg.exponent, cfg.validate)
    region = region_from_dict(cfg.region) if cfg.region else None
    res = norms.luxemburg_norm(f, p, region, cfg.quad())
    line = f"norm: value={fmt(res.value)} status={res.status}"
    return [list(astuple(res))], {"result": asdict(res)}, 0, line


def run_volume(cfg: RunConfig):
    region = region_from_dict(cfg.region)
    method = cfg.method or "analytic"
    if method == "monte_carlo":
        q = cfg.quad()
        est = region.volume(method, n=q.n, seed=q.seed)
    else:
        est = region.volume(method)
    line = f"volume: {fmt(est.value)} +/- {fmt(est.std_error)} ({method})"
    return [[est.value, est.std_error, method]], {"result": asdict(est)}, 0, line


def run_decay(cfg: RunConfig):
    spec = preset_spec_from_dict(cfg.exponent)
    p = preset(spec, validate=cfg.validate)
    grid = cfg.grid(fit=True)
    pairs = [(kind, p.conjugate(k)) for kind, _, k in estimates.TERMS.values()
             if cfg.kind in (None, kind)]
    rows, summary = [], {}
    for rep in estimates.cutoff_norm_decays(pairs, grid, cfg.quad()):
        for R, v, e in zip(rep.total.radii, rep.total.values, rep.norm_errors):
            rows.append([rep.kind, R, v, e])
        summary[rep.kind] = {
            "slope": rep.total.slope,
            "intercept": rep.total.intercept,
            "max_residual": rep.total.max_residual,
        }
    slopes = " ".join(f"{k}={fmt(v['slope'])}" for k, v in summary.items())
    return rows, {"fits": summary}, 0, f"decay: fitted slopes {slopes}"


def run_energy(cfg: RunConfig):
    u = velocity_from_dict(cfg.fieldspec)
    P = pressure_from_dict(cfg.pressure)
    quad = cfg.quad()
    tol = cfg.tolerance("gap_tol", 1e-2)
    rows, verdicts = [], []
    for R in cfg.grid():
        rep = estimates.energy_identity_check(u, P, R, quad, gap_tol=tol)
        # the report's fields are the CSV columns, the verdict last
        rows.append([*astuple(rep)[:-1], "withheld" if rep.verdict is None else str(rep.verdict)])
        verdicts.append(rep.verdict)
    failed = any(v is False for v in verdicts)
    line = "energy: " + ("check failed" if failed else "ok")
    return rows, {"rows": rows}, (2 if failed else 0), line


def run_alpha_beta(cfg: RunConfig):
    u = velocity_from_dict(cfg.fieldspec)
    P = pressure_from_dict(cfg.pressure)
    rows, majorant_ok = [], True
    for R, cut, q_i in estimates.shells(cfg.grid(), cfg.quad()):
        a, a_err, flux = estimates.shell_terms(R, u, P, q_i, cut)
        majorant_ok &= flux.majorant_ok
        rows.append([R, a, flux.beta1, flux.beta2, flux.beta, max(a_err, *flux.errors)])
    line = "alpha-beta: majorant " + ("holds" if majorant_ok else "violated")
    return rows, {"rows": rows, "majorant_ok": majorant_ok}, (0 if majorant_ok else 2), line


def run_certify(cfg: RunConfig):
    spec = preset_spec_from_dict({"outer": 4, **cfg.exponent})
    bound = spec.inner_cap()
    payload = {"upper_bound": bound, "upper_bound_float": float(bound)}
    rows, code, line = [], 0, f"certify: upper bound {float(bound):g}"
    if spec.inner is not None or spec.kind == "shrink_cusp":
        if cfg.validate:
            spec.validate()
        terms = list(estimates.TERMS) if cfg.term in (None, "both") else [cfg.term]
        certs = {term: estimates.predicted_exponent(spec, term) for term in terms}
        certified = all(cert.overall for cert in certs.values())
        # a certificate entry's fields are the CSV columns, term first
        rows = [list(astuple(e)) for cert in certs.values() for e in cert.entries]
        payload["certificates"] = {
            term: {"overall": cert.overall, "entries": [
                {k: v for k, v in asdict(e).items() if k != "term"} for e in cert.entries]}
            for term, cert in certs.items()
        }
        payload["certified"] = certified
        line += f" certified={certified}"
        code = 2 if cfg.validate and not certified else 0
    return rows, payload, code, line


def run_lemmas(cfg: RunConfig):
    p = exponent_from_dict(cfg.exponent, cfg.validate)
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
    # a check report's fields are the CSV columns after the check's name
    rows = [[name, *astuple(c)[:5]] for name, c in checks.items()]
    n_pass = sum(c.passed for c in checks.values())
    line = f"lemmas: {n_pass}/{len(checks)} passed"
    payload = {"checks": {k: asdict(v) for k, v in checks.items()}}
    return rows, payload, (0 if n_pass == len(checks) else 2), line


def run_liouville(cfg: RunConfig):
    spec = preset_spec_from_dict(cfg.exponent)
    u = velocity_from_dict(cfg.fieldspec)
    P = pressure_from_dict(cfg.pressure)
    margin = cfg.tolerance("slope_margin", estimates.SLOPE_MARGIN)
    report = estimates.liouville_pipeline(
        spec, u, P, cfg.grid(fit=True), cfg.quad(), validate=cfg.validate, slope_margin=margin)
    rows = [list(astuple(r)) for r in report.rows]  # a row's fields are the CSV columns
    hypotheses = {"velocity": report.velocity, "pressure": report.pressure}
    payload = {
        "conclusion": report.conclusion,
        "note": report.note,
        "membership": {
            name: {"verdict": m.verdict,
                   "margins": None if m.margins is None else {
                       e.piece: {"margin": e.margin, "necessary": e.necessary}
                       for e in m.margins}}
            for name, m in hypotheses.items()
        },
        "fits": {
            k: None if f is None else {"slope": f.slope, "intercept": f.intercept}
            for k, f in report.fits.items()
        },
        "certificates": {
            term: {"overall": cert.overall, "max_exponent": cert.max_exponent()}
            for term, cert in (("alpha", report.alpha_certificate),
                               ("beta", report.beta_certificate))
        },
    }
    return rows, payload, 0, f"liouville: {report.conclusion}"


# ---------------------------------------------------------------------------
# the command table


class Command(NamedTuple):
    help: str
    columns: str            # the CSV header; floats are printed at 17 significant digits
    needs: tuple[str, ...]  # config fields the runner cannot do without
    run: Callable[[RunConfig], tuple[list, dict, int, str]]
    scheme: str = "mc"      # the quadrature scheme when none is given


COMMANDS = {
    "norm": Command(
        "Luxemburg norm of a field against an exponent spec",
        "value,abs_error,status,evaluations", ("exponent", "fieldspec"), run_norm),
    "volume": Command(
        "region volume, analytic or Monte Carlo",
        "value,std_error,method", ("region",), run_volume),
    "decay": Command(
        "cutoff-derivative norm decay over a radius grid",
        "kind,R,norm,abs_error", ("exponent",), run_decay, "radial"),
    "energy": Command(
        "localized energy identity check",
        "R,lhs,alpha,beta,rel_gap,residual_sup,verdict", ("fieldspec", "radii"), run_energy,
        "radial"),
    "alpha-beta": Command(
        "shell energy terms over a radius grid",
        "R,alpha,beta1,beta2,beta,errors", ("fieldspec",), run_alpha_beta, "radial"),
    "certify": Command(
        "exact decay-exponent certificate and inner-exponent threshold",
        "term,piece,growth,inv_conjugate,exponent,negative", ("exponent",), run_certify),
    "lemmas": Command(
        "norm lemma, restriction, power and Hoelder checks on one region",
        "check,lhs,rhs,deviation,tolerance,passed", ("exponent", "region"), run_lemmas),
    "liouville": Command(
        "full decay verification pipeline",
        "R,alpha,beta1,beta2,beta,lap_norm,grad_norm,errors", ("exponent", "fieldspec"),
        run_liouville, "radial"),
}


# ---------------------------------------------------------------------------
# the flag table


class Value(NamedTuple):
    what: str                    # names the type in usage errors
    parse: Callable[[str], Any]  # flag text -> config value; raises ValueError
    types: tuple[type, ...]      # the types a config-file value may have


TEXT = Value("a string", str, (str,))
INTEGER = Value("an integer", int, (int,))
NUMBER = Value("a number", float, (int, float))
RATIONAL = Value("a number or a fraction string", str, (str, int, float))
OBJECT = Value("a JSON object", json.loads, (dict,))
NUMBERS = Value("a list of numbers", lambda t: [float(r) for r in t.split(",")], (list,))
SWITCH = Value("true or false", bool, (bool,))


class Flag(NamedTuple):
    name: Optional[str]  # None for a config key without a flag
    key: Optional[str]   # the dotted config key it writes; --config has none
    value: Value
    help: str
    choices: tuple[str, ...] = ()


FLAGS = (
    Flag("--config", None, TEXT, "JSON config file"),
    Flag("--out", "out_dir", TEXT, "output directory"),
    Flag("--seed", "quadrature.seed", INTEGER, "Monte Carlo seed"),
    Flag("--quad", "quadrature.scheme", TEXT,
         "quadrature rule (default: {scheme}; mc needs --seed)", ("radial", "mc")),
    Flag("--samples", "quadrature.n", INTEGER, "MC sample budget"),
    Flag("--tol", "quadrature.rel_tol", NUMBER, "norm bisection rel tol"),
    Flag("--region", "region", OBJECT, "region spec as JSON"),
    Flag("--field", "fieldspec", OBJECT, "field spec as JSON"),
    Flag("--pressure", "pressure", OBJECT, "pressure spec as JSON"),
    Flag("--exponent", "exponent", OBJECT, "exponent spec as JSON"),
    Flag("--preset", "exponent.kind", TEXT, "exponent preset", PRESET_KINDS),
    Flag("--inner", "exponent.inner", RATIONAL, "preset inner exponent"),
    Flag("--outer", "exponent.outer", RATIONAL, "preset outer exponent"),
    Flag("--gamma", "exponent.gamma", RATIONAL, "widening-cusp power"),
    Flag("--sigma", "exponent.sigma", RATIONAL, "shrinking-cusp power"),
    Flag("--grid-start", "r_grid.start", NUMBER, "first grid radius"),
    Flag("--grid-factor", "r_grid.factor", NUMBER, "ratio of successive grid radii"),
    Flag("--grid-count", "r_grid.count", INTEGER, "number of grid radii"),
    Flag("--radii", "radii", NUMBERS, "comma-separated radii"),
    Flag("--kind", "kind", TEXT, "decay norm (default: both)", ("laplacian", "gradient")),
    Flag("--method", "method", TEXT, "volume method", ("analytic", "monte_carlo")),
    Flag("--term", "term", TEXT, "certified term", ("alpha", "beta", "both")),
    Flag("--no-validate", "validate", SWITCH, "skip the preset constraint checks"),
    # config keys without a flag
    Flag(None, "tolerances.gap_tol", NUMBER, "energy identity relative gap"),
    Flag(None, "tolerances.slope_margin", NUMBER, "decay slope margin over the certificate"),
)


def _holder(d: dict, key: str, create: bool = False) -> Optional[dict]:
    """The object holding a dotted key's last part; None when absent."""
    for part in key.split(".")[:-1]:
        if d.get(part) is None:
            if not create:
                return None
            d[part] = {}
        d = d[part]
        if not isinstance(d, dict):
            raise ConfigError(f"config field {part!r} must be a JSON object, got {d!r}")
    return d


# the config objects whose every key is a FLAGS key; region, exponent and
# field specs follow grammars of their own
_FLAG_OBJECTS = ("quadrature", "tolerances", "r_grid")


def _check_types(d: dict) -> None:
    for flag in filter(lambda f: f.key, FLAGS):
        v = (_holder(d, flag.key) or {}).get(flag.key.rsplit(".", 1)[-1])
        # JSON true/false are Python ints, so only a switch takes them
        ok = (isinstance(v, flag.value.types) and (not isinstance(v, bool) or flag.value is SWITCH)
              and (not flag.choices or v in flag.choices))
        if v is not None and not ok:
            what = f"one of {', '.join(flag.choices)}" if flag.choices else flag.value.what
            raise ConfigError(f"config field {flag.key!r} must be {what}, got {v!r}")
    keys = {flag.key for flag in FLAGS}
    for top in _FLAG_OBJECTS:  # each is a JSON object or absent by now
        unknown = sorted({f"{top}.{k}" for k in d.get(top) or {}} - keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise ConfigError(message)


@functools.cache  # built once per process; parsing leaves no state on it
def build_parser() -> _Parser:
    parser = _Parser(prog="vexlp", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(
            name,
            help=command.help,
            description=(
                f"{command.help}. Writes {name}.csv with the fixed columns "
                f"{command.columns} (floats at 17 significant digits) and {name}.json."
            ),
        )
        for flag in filter(lambda f: f.name, FLAGS):
            how = (dict(action="store_const", const=False) if flag.value is SWITCH
                   else dict(choices=flag.choices or None))
            p.add_argument(flag.name, dest=flag.key or "config",
                           help=flag.help.format(scheme=command.scheme), **how)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config file, if any, with each given flag written over its key."""
    base: dict = {}
    if args.config:
        try:
            base = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config file {args.config} is not readable JSON: {exc}") from None
        if not isinstance(base, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    base["command"] = args.command
    for flag in FLAGS:
        text = vars(args).get(flag.key)
        if text is None:
            continue
        try:
            value = flag.value.parse(text)
        except ValueError:
            value = None
        if not isinstance(value, flag.value.types):
            raise ConfigError(f"{flag.name} must be {flag.value.what}, got {text!r}")
        _holder(base, flag.key, create=True)[flag.key.rsplit(".", 1)[-1]] = value
    return RunConfig.from_dict(base)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise ConfigError(f"choose a subcommand: {', '.join(COMMANDS)}")
        cfg = config_from_args(args)
        command = COMMANDS[cfg.command]
        missing = [k for k in command.needs if not getattr(cfg, k)]
        if missing:
            raise ConfigError(f"'{cfg.command}' needs {' and '.join(map(repr, missing))}")
        rows, payload, code, line = command.run(cfg)
        out = Path(cfg.out_dir)  # made only once the run got past its specs
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / f"{cfg.command}.csv", command.columns.split(","), rows)
        write_json(out / f"{cfg.command}.json", {"config": cfg.public_dict(), **payload})
        print(line)
        return code
    except (ConfigError, PresetConstraintError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
