"""CLI behavior: golden outputs, determinism, config round-trip, exit codes."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import platform
import re
import signal
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexlp import __version__, cli, estimates, fields, norms, regions
from vexlp.cli import COMMANDS, RunConfig, main, region_from_dict
from vexlp.errors import ConfigError
from vexlp.regions import Cylinder, PowerCusp, ShrinkCusp

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "norm": ["norm", "--field", '{"name":"gaussian"}', "--exponent", '{"constant":2}',
             "--quad", "radial"],
    "volume": ["volume", "--region", '{"type":"ball","radius":1}',
               "--method", "monte_carlo", "--samples", "20000", "--seed", "3"],
    "decay": ["decay", "--preset", "cylinder", "--inner", "5", "--outer", "4",
              "--kind", "laplacian", "--grid-start", "8", "--grid-factor", "2",
              "--grid-count", "4", "--samples", "20000", "--seed", "3"],
    "energy": ["energy", "--field", '{"name":"gradient_counterexample"}',
               "--pressure", '{"name":"counterexample"}', "--radii", "4"],
    "alpha-beta": ["alpha-beta", "--field", '{"name":"decaying_solenoidal","rate":2}',
                   "--grid-start", "8", "--grid-factor", "2", "--grid-count", "4",
                   "--samples", "20000", "--seed", "3"],
    "certify": ["certify", "--preset", "power_cusp", "--gamma", "1/2",
                "--inner", "5", "--outer", "4"],
    "lemmas": ["lemmas", "--preset", "cylinder", "--inner", "5", "--outer", "4",
               "--region", '{"type":"ball","radius":2}',
               "--samples", "20000", "--seed", "3"],
    "liouville": ["liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
                  "--field", '{"name":"zero"}', "--grid-start", "8",
                  "--grid-factor", "2", "--grid-count", "4",
                  "--samples", "20000", "--seed", "3"],
}


# The goldens were written on another machine and numpy build.  numpy's
# SIMD exp/log/pow kernels differ from libm in the last ulp, so the 17-digit
# output moves by a few ulps across builds: at most 23 ulps of scale between
# the goldens and numpy 2.4.6 on AVX-512.  The bound is about 4,500 ulps of
# scale, far below every reported error bar (norm: abs_error/value = 2.1e-5).
GOLDEN_REL_TOL = 1e-12

# Columns computed by cancellation drift by ulps of the magnitudes they are
# computed from, not of their own small value.  (command, column) -> scale,
# read from the golden record (CSV row, JSON row or JSON object) holding it.
# Every other float is scaled by its own magnitude.
CANCELLATION_SCALES = {
    # estimates.beta_terms: beta = sum of grad(cutoff).u (|u|^2/2 + P), and
    # |beta| <= beta1/2 + beta2 (beta1 = sum |grad||u|^3, beta2 = sum |grad||P||u|)
    ("alpha-beta", "beta"): lambda r: r["beta1"] / 2 + r["beta2"],
    ("liouville", "beta"): lambda r: r["beta1"] / 2 + r["beta2"],
    # estimates.energy_identity_check: beta is 0 for the counterexample
    # (|u|^2/2 + P = 0) and enters only as rhs = alpha + beta against lhs
    ("energy", "beta"): lambda r: abs(r["lhs"]),
    # estimates.energy_identity_check: rel_gap = |lhs - rhs| / max(|lhs|, |rhs|)
    ("energy", "rel_gap"): lambda r: 1.0,
    # norms.*_check: deviation = max(0, lhs - rhs) (lemma1, lemma2),
    # |lhs - rhs| (restriction), |lhs - rhs| / |rhs| (power_identity), lhs / rhs (holder)
    ("lemmas", "deviation"): lambda r: max(abs(r["lhs"]), abs(r["rhs"])),
}


def fingerprint() -> dict:
    """The build a run's floats depend on: vexlp, Python, numpy and the
    SIMD extensions numpy dispatches to."""
    try:
        found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        found = ["unknown"]
    return {"vexlp": __version__, "python": platform.python_version(),
            "numpy": np.__version__, "simd": list(found)}


def _golden_fingerprint(name: str):
    """The fingerprint stored when the golden case was last written."""
    path = GOLDEN / "FINGERPRINT.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    return stored.get(name, "unknown (written before fingerprints were kept)")


def _csv_value(text: str):
    """A CSV cell as int, float, or string (names, booleans, fractions)."""
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _csv_cells(text: str) -> dict:
    """Flatten a CSV table to {path: (value, column, record)}."""
    rows = list(csv.reader(io.StringIO(text)))
    cells = {"header": (rows[0], None, None), "rows": (len(rows) - 1, None, None)}
    for i, row in enumerate(rows[1:], start=1):
        record = {c: _csv_value(v) for c, v in zip(rows[0], row)}
        cells[f"row {i}"] = (f"{len(row)} cells", None, None)
        for c, v in record.items():
            cells[f"row {i} column {c!r}"] = (v, c, record)
    return cells


def _json_cells(node, header: list, path="$", column=None, record=None) -> dict:
    """Flatten a JSON report to {path: (value, column, record)}.

    Containers map to a tag naming their keys or length.  A leaf's column
    is its key, or its CSV header name inside a ``rows`` table; its record
    is the object or table row holding it.
    """
    if isinstance(node, dict):
        cells = {path: (f"object {sorted(node)}", None, None)}
        for k, v in node.items():
            cells |= _json_cells(v, header, f"{path}.{k}", k, node)
    elif isinstance(node, list):
        cells = {path: (f"array of {len(node)}", None, None)}
        for i, v in enumerate(node):
            if column == "rows" and isinstance(v, list):
                row = dict(zip(header, v))
                cells[f"{path}[{i}]"] = (f"array of {len(v)}", None, None)
                for j, (c, x) in enumerate(row.items()):
                    cells |= _json_cells(x, header, f"{path}[{i}][{j}] ({c})", c, row)
            else:
                cells |= _json_cells(v, header, f"{path}[{i}]", column, record)
    else:
        cells = {path: (node, column, record)}
    return cells


def _golden_mismatches(name: str, file: str, want_cells: dict, got_cells: dict) -> list:
    """Exact match for structure, strings, booleans and ints; finite floats
    within GOLDEN_REL_TOL of their scale."""
    problems = [
        f"{file} {path}: only in the {'golden' if path in want_cells else 'produced'} file"
        for path in sorted(want_cells.keys() ^ got_cells.keys())
    ]
    for path, (want, column, record) in want_cells.items():
        if path not in got_cells:
            continue
        got = got_cells[path][0]
        where = f"{file} {path}: golden {want!r}, produced {got!r}"
        if type(got) is not type(want):
            problems.append(f"{where}: types differ")
        elif isinstance(want, float) and math.isfinite(want):
            scale_of = CANCELLATION_SCALES.get((name, column))
            scale = scale_of(record) if scale_of else abs(want)
            bound = GOLDEN_REL_TOL * scale
            if not abs(got - want) <= bound:
                problems.append(f"{where}: |diff| {abs(got - want):.3e} > bound "
                                f"{bound:.3e} = {GOLDEN_REL_TOL:g} * scale {scale!r}")
        elif not (got == want or (want != want and got != got)):
            problems.append(where)
    return problems


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    """Each subcommand matches its committed goldens to GOLDEN_REL_TOL, and
    repeats its own output byte for byte on the same machine."""
    out, again = tmp_path / "a", tmp_path / "b"
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert main(CASES[name] + ["--out", str(again)]) == 0
    header = (GOLDEN / name / f"{name}.csv").read_text().splitlines()[0].split(",")
    problems = []
    for golden_file in sorted((GOLDEN / name).iterdir()):
        produced_file = out / golden_file.name
        assert produced_file.read_bytes() == (again / golden_file.name).read_bytes(), \
            f"{golden_file.name} differs between two runs on this machine"
        produced = produced_file.read_text()
        if golden_file.suffix == ".csv":
            for row in list(csv.reader(io.StringIO(produced)))[1:]:
                for cell in row:
                    if isinstance(_csv_value(cell), float):
                        assert cell == f"{float(cell):.17g}", \
                            f"{golden_file.name}: {cell!r} is not printed with 17 significant digits"
            want_cells = _csv_cells(golden_file.read_text())
            got_cells = _csv_cells(produced)
        else:
            want_cells = _json_cells(json.loads(golden_file.read_text()), header)
            got_cells = _json_cells(json.loads(produced), header)
        problems += _golden_mismatches(name, golden_file.name, want_cells, got_cells)
    assert not problems, "\n".join(
        [f"{name} differs from tests/golden/{name}",
         f"  golden written on: {_golden_fingerprint(name)}",
         f"  this run: {fingerprint()}"] + problems
    )


def test_repeated_runs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(CASES["liouville"] + ["--out", str(a)]) == 0
    assert main(CASES["liouville"] + ["--out", str(b)]) == 0
    assert (a / "liouville.csv").read_bytes() == (b / "liouville.csv").read_bytes()
    assert (a / "liouville.json").read_bytes() == (b / "liouville.json").read_bytes()


def test_liouville_json_explains_an_undeclared_decay(tmp_path, monkeypatch):
    # a velocity built without its decay leaves its hypothesis undecided, with
    # no margins and no scan, while the zero pressure is read off its certificate
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    for module in (fields, estimates):
        monkeypatch.setattr(module, "membership_scan", no_scan)
    keys, build = cli.FIELD_TYPES["decaying_solenoidal"]
    monkeypatch.setitem(cli.FIELD_TYPES, "decaying_solenoidal",
                        (keys, lambda d: dataclasses.replace(build(d), decay=None)))
    argv = ["liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
            "--field", '{"name":"decaying_solenoidal","rate":0.78}', "--grid-start", "8",
            "--grid-factor", "2", "--grid-count", "6", "--out", str(tmp_path)]
    assert main(argv) == 0
    report = json.loads((tmp_path / "liouville.json").read_text())
    assert report["conclusion"] == "inconclusive"
    assert report["note"] == ("membership undecided for the velocity: the field declares "
                              "no decay; give it one (`fields.Decay`)")
    assert report["membership"]["velocity"] == {"verdict": "undecided", "margins": None}
    assert report["membership"]["pressure"]["verdict"] == "member"
    assert "scans" not in report


SLOW_RATE_PRESETS = {
    "cylinder": ["--preset", "cylinder", "--inner", "5", "--outer", "4"],
    "power_cusp": ["--preset", "power_cusp", "--gamma", "1/2", "--inner", "5", "--outer", "4"],
    "shrink_cusp": ["--preset", "shrink_cusp", "--sigma", "1/2", "--outer", "4"],
}


@pytest.mark.parametrize("rate", [0.70, 0.76, 0.78, 0.80])
@pytest.mark.parametrize("preset", sorted(SLOW_RATE_PRESETS))
def test_the_velocity_certificate_splits_slow_rates_at_three_quarters(preset, rate, tmp_path):
    # |u| ~ |x|^-rate on a cone outside every inner piece, against the outer
    # exponent 4 and the outer growth 3: u lies in L^p(.) iff 4 rate > 3,
    # which the scans could not tell at 0.78 (its increments fall by 0.92)
    argv = ["liouville", *SLOW_RATE_PRESETS[preset], "--field",
            json.dumps({"name": "decaying_solenoidal", "rate": rate}), "--grid-start", "8",
            "--grid-factor", "2", "--grid-count", "6", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    report = json.loads((tmp_path / "liouville.json").read_text())
    velocity = report["membership"]["velocity"]
    assert set(velocity) == {"verdict", "margins"} and "scans" not in report
    assert velocity["margins"]["outer"] == {
        "margin": str(4 * Fraction(str(rate)) - 3), "necessary": True}
    assert not velocity["margins"]["inner"]["necessary"]
    if rate < 0.75:
        assert velocity["verdict"] == "not-member"
        assert report["conclusion"] == "hypotheses-violated"
    else:
        assert velocity["verdict"] == "member"
        assert report["conclusion"] != "hypotheses-violated"


def test_every_command_has_a_golden_case():
    assert set(CASES) == set(COMMANDS)


def test_config_round_trip():
    cfg = RunConfig.from_dict(
        {
            "command": "liouville",
            "quadrature": {"scheme": "mc", "n": 1000, "seed": 7},
            "exponent": {"kind": "cylinder", "inner": "5", "outer": "4"},
            "fieldspec": {"name": "zero"},
            "r_grid": {"start": 8, "factor": 2, "count": 4},
        }
    )
    again = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_config_file_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "command": "volume",
        "region": {"type": "cylinder_segment", "half_length": 10},
    }))
    out = tmp_path / "o"
    code = main(["volume", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    row = (out / "volume.csv").read_text().splitlines()[1]
    assert row.startswith("62.83185307179586")


def test_region_grammar_boolean_nodes():
    region = region_from_dict(
        {
            "type": "diff",
            "keep": {"type": "annulus", "inner": 1, "outer": 2},
            "remove": {"type": "cylinder"},
        }
    )
    import numpy as np

    assert not region.contains(np.array([1.5, 0.0, 0.0]))
    assert region.contains(np.array([0.0, 1.5, 0.0]))


def test_unknown_config_field_rejected():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"command": "norm", "bogus": 1})


def test_mc_requires_seed(tmp_path):
    code = main(["norm", "--field", '{"name":"gaussian"}',
                 "--exponent", '{"constant":2}', "--out", str(tmp_path / "x")])
    assert code == 1


def test_usage_error_names_constraint(tmp_path, capsys):
    code = main(["liouville", "--preset", "power_cusp", "--gamma", "0.5",
                 "--inner", "7", "--outer", "4", "--field", '{"name":"zero"}',
                 "--grid-start", "8", "--grid-factor", "2", "--grid-count", "4",
                 "--seed", "1", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "(6*gamma+3)/(2*gamma)" in err


def test_unknown_field_usage_error(tmp_path):
    code = main(["norm", "--field", '{"name":"nope"}', "--exponent",
                 '{"constant":2}', "--seed", "1", "--out", str(tmp_path / "x")])
    assert code == 1


def test_certify_limit_case_prints_known_threshold(tmp_path, capsys):
    code = main(["certify", "--preset", "power_cusp", "--gamma", "1",
                 "--outer", "4", "--out", str(tmp_path / "c")])
    assert code == 0
    assert "upper bound 4.5" in capsys.readouterr().out


def test_certify_validation_off_reports_failing_certificate(tmp_path, capsys):
    out = tmp_path / "c"
    code = main(["certify", "--preset", "power_cusp", "--gamma", "0.5",
                 "--inner", "7", "--outer", "4", "--no-validate", "--out", str(out)])
    assert code == 0
    assert "certified=False" in capsys.readouterr().out
    payload = json.loads((out / "certify.json").read_text())
    entries = payload["certificates"]["beta"]["entries"]
    assert any(e["exponent"] == "1/7" for e in entries)


def test_liouville_counterexample_informative_exit(tmp_path, capsys):
    code = main(["liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
                 "--field", '{"name":"gradient_counterexample"}',
                 "--pressure", '{"name":"counterexample"}',
                 "--grid-start", "8", "--grid-factor", "2", "--grid-count", "4",
                 "--samples", "20000", "--seed", "3", "--out", str(tmp_path / "x")])
    assert code == 0
    assert "hypotheses-violated" in capsys.readouterr().out


def test_grid_count_minimum(tmp_path):
    code = main(["decay", "--preset", "cylinder", "--inner", "5", "--outer", "4",
                 "--grid-start", "8", "--grid-factor", "2", "--grid-count", "3",
                 "--samples", "1000", "--seed", "1", "--out", str(tmp_path / "x")])
    assert code == 1


def test_decay_defaults_to_the_radial_rule(tmp_path, capsys):
    # decay's norms are deterministic by default, so they need no seed;
    # Monte Carlo still does
    argv = ["decay", "--preset", "cylinder", "--inner", "5", "--outer", "4",
            "--grid-start", "8", "--grid-factor", "2", "--grid-count", "4"]
    assert main(argv + ["--out", str(tmp_path / "radial")]) == 0
    assert main(argv + ["--quad", "mc", "--out", str(tmp_path / "mc")]) == 1
    assert "require an explicit 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
     "--field", '{"name":"decaying_solenoidal","rate":2}',
     "--grid-start", "8", "--grid-factor", "2", "--grid-count", "4"],
    ["alpha-beta", "--field", '{"name":"decaying_solenoidal","rate":2}',
     "--grid-start", "8", "--grid-factor", "2", "--grid-count", "4"],
], ids=["liouville", "alpha-beta"])
def test_liouville_and_alpha_beta_default_to_the_radial_rule(argv, tmp_path, capsys):
    # the shell terms and cutoff norms are deterministic by default, so two
    # seedless runs write the same bytes; Monte Carlo still needs a seed
    first = _outputs(argv, tmp_path / "first")
    assert _outputs(argv, tmp_path / "second") == first
    assert main(argv + ["--quad", "mc", "--out", str(tmp_path / "mc")]) == 1
    assert "require an explicit 'seed'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (CASES["energy"], "gap_tol"),
    (CASES["liouville"] + ["--field", '{"name":"decaying_solenoidal","rate":2}'], "slope_margin"),
], ids=["energy", "liouville"])
def test_null_tolerance_means_the_default(argv, key, tmp_path):
    (tmp_path / "run.json").write_text(json.dumps({"tolerances": {key: None}}))
    assert main(argv + ["--config", str(tmp_path / "run.json"),
                        "--out", str(tmp_path / "out")]) == 0


def test_malformed_radii_usage_error(tmp_path, capsys):
    code = main(["energy", "--field", '{"name":"gradient_counterexample"}',
                 "--pressure", '{"name":"counterexample"}', "--radii", "4,x",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "usage error: --radii" in capsys.readouterr().err


def test_malformed_config_file_usage_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text("{bad")
    code = main(["volume", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "usage error: config file" in capsys.readouterr().err


def test_lemmas_shrink_cusp_writes_json(tmp_path):
    # the lemma checks' verdicts are plain bools, so the JSON report serializes
    out = tmp_path / "lemmas"
    code = main(["lemmas", "--preset", "shrink_cusp", "--sigma", "1/2", "--outer", "4",
                 "--region", '{"type":"intersect","first":{"type":"annulus","inner":4,'
                 '"outer":8},"second":{"type":"cylinder"}}',
                 "--samples", "20000", "--seed", "7", "--out", str(out)])
    assert code in (0, 2)
    checks = json.loads((out / "lemmas.json").read_text())["checks"]
    assert set(checks) == {"lemma1", "lemma2", "restriction", "power_identity", "holder"}
    assert all(type(c["passed"]) is bool for c in checks.values())


# ---------------------------------------------------------------------------
# config values of the wrong type, and inputs that used to hang

GAUSSIAN_NORM = ["norm", "--field", '{"name":"gaussian"}', "--quad", "radial"]
COUNTEREXAMPLE = {"fieldspec": {"name": "gradient_counterexample"},
                  "pressure": {"name": "counterexample"}}
CYLINDER = {"kind": "cylinder", "inner": "5", "outer": "4"}
SMALL_MC = {"scheme": "mc", "n": 1000, "seed": 1}
GRID = {"start": 8, "factor": 2, "count": 4}

WRONG_TYPES = {
    "quadrature-not-object": (["volume"], {"region": {"type": "ball"}, "quadrature": 5}),
    "radii-not-numbers": (["energy"], {**COUNTEREXAMPLE, "radii": [4, "x"]}),
    "r_grid-not-object": (["decay"], {"exponent": CYLINDER, "quadrature": SMALL_MC,
                                      "r_grid": 5}),
    "tolerances-not-object": (["energy"], {**COUNTEREXAMPLE, "radii": [4],
                                           "tolerances": [1]}),
    "field-not-object": (["norm", "--field", "[1]", "--exponent", '{"constant":2}',
                          "--quad", "radial"], None),
    "exponent-not-rational": (GAUSSIAN_NORM + ["--exponent", '{"constant":"x"}'], None),
    "volume-method-unknown": (["volume"], {"region": {"type": "ball"}, "method": "foo"}),
    "decay-kind-unknown": (["decay"], {"exponent": CYLINDER, "quadrature": SMALL_MC,
                                       "r_grid": GRID, "kind": "foo"}),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPES))
def test_wrongly_typed_config_is_usage_error(name, tmp_path, capsys):
    argv, config = WRONG_TYPES[name]
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "run.json")]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "usage error: " in capsys.readouterr().err


MC_VOLUME = {"region": {"type": "ball"}, "method": "monte_carlo"}
# a key the flag table does not list, inside an object whose keys it all lists
UNKNOWN_KEYS = {
    "samples": (["volume"], {**MC_VOLUME, "quadrature": {"samples": 10, "seed": 1}}),
    "strata": (["volume"], {**MC_VOLUME, "quadrature": {"strata": 8, "seed": 1}}),
    "truncation_radius": (["norm"], {"fieldspec": {"name": "gaussian"},
                                     "exponent": {"constant": 2},
                                     "quadrature": {"truncation_radius": 16, "seed": 1}}),
    "cont": (["decay"], {"exponent": CYLINDER, "r_grid": {**GRID, "cont": 9}}),
    "gap": (["energy"], {**COUNTEREXAMPLE, "radii": [4], "tolerances": {"gap": 0.1}}),
}


@pytest.mark.parametrize("key", sorted(UNKNOWN_KEYS))
def test_unknown_nested_config_key_is_usage_error(key, tmp_path, capsys):
    argv, config = UNKNOWN_KEYS[key]
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(argv + ["--config", str(tmp_path / "run.json"),
                        "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "usage error: unknown config keys" in err and f".{key}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scheme", ["strat", "stratified_mc"])
def test_old_scheme_names_are_usage_errors(scheme, tmp_path, capsys):
    assert main(["volume", "--quad", scheme, "--out", str(tmp_path / "out")]) == 1
    assert f"usage error: argument --quad: invalid choice: '{scheme}'" in \
        capsys.readouterr().err
    (tmp_path / "run.json").write_text(json.dumps(
        {**MC_VOLUME, "quadrature": {"scheme": scheme, "seed": 1}}))
    assert main(["volume", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out")]) == 1
    assert f"must be one of radial, mc, got '{scheme}'" in capsys.readouterr().err


def test_null_quadrature_keys_mean_the_default(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps(
        {**MC_VOLUME, "quadrature": {"seed": 1, "n": None, "rel_tol": None}}))
    assert main(["volume", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out")]) == 0


# JSON true where a number belongs: (command, config, the key the error names)
BOOLEANS = {
    "quadrature.n": (["volume"], {**MC_VOLUME, "quadrature": {"seed": 1, "n": True}},
                     "config field 'quadrature.n'"),
    "quadrature.seed": (["volume"], {**MC_VOLUME, "quadrature": {"seed": True}},
                        "config field 'quadrature.seed'"),
    "quadrature.rel_tol": (["volume"], {**MC_VOLUME, "quadrature": {"seed": 1, "rel_tol": True}},
                           "config field 'quadrature.rel_tol'"),
    "r_grid.count": (["decay"], {"exponent": CYLINDER, "r_grid": {**GRID, "count": True}},
                     "config field 'r_grid.count'"),
    "exponent.inner": (["certify"], {"exponent": {**CYLINDER, "inner": True}},
                       "config field 'exponent.inner'"),
    "region.radius": (["volume"], {"region": {"type": "ball", "radius": True},
                                   "method": "analytic"},
                      "'radius' must be a finite number, got True"),
}


@pytest.mark.parametrize("key", sorted(BOOLEANS))
def test_json_boolean_for_a_number_is_usage_error(key, tmp_path, capsys):
    argv, config, message = BOOLEANS[key]
    (tmp_path / "run.json").write_text(json.dumps(config))
    assert main(argv + ["--config", str(tmp_path / "run.json"),
                        "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "usage error: " in err and message in err


def test_validate_still_takes_a_json_boolean(tmp_path):
    (tmp_path / "run.json").write_text(json.dumps(
        {"region": {"type": "ball"}, "method": "analytic", "validate": True}))
    assert main(["volume", "--config", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out")]) == 0


# a cylinder preset below its admissible band (inner must exceed 9/2)
LOW_INNER = ["--preset", "cylinder", "--inner", "4", "--outer", "4"]
VALIDATE_RUNS = {
    "norm": ["norm", *LOW_INNER, "--field", '{"name":"gaussian"}', "--quad", "radial"],
    "lemmas": ["lemmas", *LOW_INNER, "--region", '{"type":"annulus","inner":2,"outer":4}',
               "--samples", "2000", "--seed", "7"],
}


@pytest.mark.parametrize("command", sorted(VALIDATE_RUNS))
def test_no_validate_reaches_the_exponent(command, tmp_path, capsys):
    argv = VALIDATE_RUNS[command]
    assert main(argv + ["--out", str(tmp_path / "checked")]) == 1
    assert "cylinder preset needs inner exponent > 9/2" in capsys.readouterr().err
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--no-validate", "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / f"{command}.json").exists()


@pytest.mark.parametrize("command", sorted(VALIDATE_RUNS))
def test_preset_spec_rejects_a_stray_key(command, tmp_path, capsys):
    argv = VALIDATE_RUNS[command] + [
        "--exponent", '{"kind":"cylinder","inner":4,"outer":4,"validate":false}']
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "usage error: unknown preset spec keys: validate" in capsys.readouterr().err


NORM_ARGS = ["--field", '{"name":"gaussian"}', "--quad", "radial"]
# one run per grammar whose spec holds a key no entry of it declares; each
# used to exit 0 with the key ignored, or fail with a misleading message
STRAY_KEYS = {
    "region": (["volume", "--region", '{"type":"ball","centre":[5,0,0],"radius":1}'],
               "unknown region spec keys: centre"),
    "field": (["norm", "--exponent", '{"constant":3}', "--region", '{"type":"ball"}',
               "--field", '{"name":"constant","valeu":3}', "--quad", "radial"],
              "unknown field spec keys: valeu"),
    "cusp-length": (["volume", "--region", '{"type":"power_cusp","gamma":0.5,"length":4}'],
                    "unknown region spec keys: length"),
    "pressure": (["alpha-beta", "--field", '{"name":"zero"}', "--radii", "4,8",
                  "--pressure", '{"name":"constant","value":1,"rate":2}', "--quad", "radial"],
                 "unknown pressure spec keys: rate"),
    "constant-exponent": (["norm", "--exponent", '{"constant":3,"default":4}', *NORM_ARGS],
                          "unknown exponent spec keys: default"),
    "pieces-exponent": (["norm", "--exponent", '{"pieces":[],"default":3,"kind":"cylinder"}',
                         *NORM_ARGS], "unknown exponent spec keys: kind"),
    "piece-entry": (["norm", "--exponent", '{"pieces":[{"region":{"type":"ball"},"value":3,'
                     '"valeu":4}],"default":3}', *NORM_ARGS],
                    "unknown exponent piece spec keys: valeu"),
}


@pytest.mark.parametrize("case", sorted(STRAY_KEYS))
def test_a_stray_spec_key_is_a_usage_error(case, tmp_path, capsys):
    argv, message = STRAY_KEYS[case]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_segment_and_truncated_names_build_the_family_class():
    assert region_from_dict({"type": "cylinder_segment", "half_length": 10}) == Cylinder(10.0)
    assert region_from_dict({"type": "truncated_power_cusp", "gamma": 0.5,
                             "length": 4}) == PowerCusp(0.5, 4.0)
    assert region_from_dict({"type": "truncated_shrink_cusp", "sigma": 0.5,
                             "length": 4}) == ShrinkCusp(0.5, 4.0)


def test_a_bad_spec_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["volume", "--region", '{"type":"nope"}', "--out", str(out)]) == 1
    assert "usage error: unknown region type 'nope'" in capsys.readouterr().err
    assert not out.exists()


def test_region_numbers_keep_the_missing_field_message():
    with pytest.raises(ConfigError, match="missing field 'outer'"):
        region_from_dict({"type": "annulus", "inner": 1})


README_LIOUVILLE = ["liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
                    "--field", '{"name":"decaying_solenoidal","rate":2}',
                    "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6",
                    "--quad", "mc", "--samples", "20000"]
NORM_ON_A_BALL = ["norm", "--field", '{"name":"gaussian"}', "--exponent", '{"constant":3}',
                  "--region", '{"type":"ball","radius":2}', "--samples", "20000", "--seed", "1"]


def _outputs(argv, out: Path) -> list:
    """Run argv into out; the bytes of its CSV and JSON."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out)]) == 0
    return [(out / f"{argv[0]}.{ext}").read_bytes() for ext in ("csv", "json")]


def test_the_readme_liouville_job_draws_no_random_numbers(tmp_path, monkeypatch):
    # both hypotheses are read off their certificates and every other stage
    # runs on the radial rule, so a job that cannot seed a generator writes
    # the bytes it writes when it can; the golden case likewise
    argv = ["liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",  # the README's
            "--field", '{"name":"decaying_solenoidal","rate":2}',
            "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6"]
    want = _outputs(argv, tmp_path / "seeding")

    def refuse(*args, **kwargs):
        raise AssertionError("the job seeded a random generator")

    monkeypatch.setattr(norms, "_memo", None)
    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    assert _outputs(argv, tmp_path / "not-seeding") == want
    out = tmp_path / "golden-case"
    _outputs(CASES["liouville"], out)
    cells = _csv_cells((out / "liouville.csv").read_text())
    golden = _csv_cells((GOLDEN / "liouville" / "liouville.csv").read_text())
    assert not _golden_mismatches("liouville", "liouville.csv", golden, cells)


def test_the_readme_liouville_job_evaluates_each_field_once_per_node_set(tmp_path, monkeypatch):
    # one integrand per shell: u and P once on the fine and once on the
    # coarse rule of each of the 6 shells, and each distinct radial rule
    # built once: the 6 cutoff-norm rules in one grid pass, then 6 shell-terms rules
    from vexlp import estimates, fields

    counts, passes = {"u": 0, "P": 0, "integrate_many": 0}, []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    rules = norms._radial_rules
    monkeypatch.setattr(norms, "_radial_rules",
                        lambda keys, p: passes.append(keys) or rules(keys, p))
    monkeypatch.setattr(norms, "_memo", None)
    monkeypatch.setattr(fields.VectorField3, "__call__", counted("u", fields.VectorField3.__call__))
    monkeypatch.setattr(fields.ScalarField3, "__call__", counted("P", fields.ScalarField3.__call__))
    monkeypatch.setattr(estimates, "integrate_many",
                        counted("integrate_many", estimates.integrate_many))
    argv = ["liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",  # the README's
            "--field", '{"name":"decaying_solenoidal","rate":2}',
            "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6"]
    _outputs(argv, tmp_path)
    assert counts == {"u": 12, "P": 12, "integrate_many": 6}
    built = [key for keys in passes for key in keys]
    assert [len(keys) for keys in passes] == [6] + [1] * 6
    assert len(set(built)) == len(built) == 12


def test_the_readme_decay_job_cuts_every_arc_in_one_pass(tmp_path, monkeypatch):
    # both cutoff norms of all 6 shells read one grid pass: one _polar_arcs call
    calls, polar_arcs = [], norms._polar_arcs
    monkeypatch.setattr(norms, "_polar_arcs", lambda r, p: calls.append(r.size) or polar_arcs(r, p))
    monkeypatch.setattr(norms, "_memo", None)
    argv = ["decay", "--preset", "cylinder", "--inner", "5", "--outer", "4",  # the README's
            "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6"]
    _outputs(argv, tmp_path)
    assert calls == [6 * 2 * (32 + 16)]  # 6 shells of 2 cells, 32 radii a cell, 16 coarse


def test_liouville_without_shell_term_fits_is_inconclusive(tmp_path):
    # at R = 1e100 |u|^2 ~ R^-4 underflows, so alpha, beta1, beta2 and beta
    # read 0 on every row and no fit has three values above the zero floor
    argv = ["liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
            "--field", '{"name":"decaying_solenoidal","rate":2}',
            "--grid-start", "1e100", "--grid-factor", "2", "--grid-count", "4"]
    _outputs(argv, tmp_path)
    report = json.loads((tmp_path / "liouville.json").read_text())
    assert report["fits"]["alpha"] is None and report["fits"]["beta1"] is None
    assert report["conclusion"] == "inconclusive"
    assert report["note"].startswith("no alpha or beta1 decay fit")


# a strictly increasing grid whose radii are one ulp apart: floating point
# cannot tell their logarithms apart, so no slope can be fitted
ULP_GRID = ["--preset", "cylinder", "--inner", "5", "--outer", "4", "--grid-start", "8",
            "--grid-factor", "1.0000000000000002", "--grid-count", "4"]


def test_decay_on_a_grid_of_equal_logarithms_is_an_error(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RankWarning included
        assert main(["decay", *ULP_GRID, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: a decay fit needs radii whose logarithms differ in floating point")


def test_liouville_on_a_grid_of_equal_logarithms_is_inconclusive(tmp_path):
    argv = ["liouville", *ULP_GRID, "--field", '{"name":"decaying_solenoidal","rate":2}']
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _outputs(argv, tmp_path)
    report = json.loads((tmp_path / "liouville.json").read_text())
    assert set(report["fits"].values()) == {None}
    assert report["conclusion"] == "inconclusive"
    assert report["note"].startswith("no alpha or beta1 decay fit, since a decay fit needs radii "
                                     "whose logarithms differ in floating point")
    assert "zero floor" not in report["note"]


def test_back_to_back_jobs_write_the_same_bytes(tmp_path, monkeypatch):
    # node sets are kept between jobs in one process: a cold run, a warm
    # one, and one after a run with another seed must agree to the byte
    from vexlp import norms

    monkeypatch.setattr(norms, "_memo", None)
    cold = _outputs(README_LIOUVILLE + ["--seed", "7"], tmp_path / "cold")
    assert _outputs(README_LIOUVILLE + ["--seed", "7"], tmp_path / "warm") == cold
    _outputs(README_LIOUVILLE + ["--seed", "8"], tmp_path / "other")
    assert _outputs(README_LIOUVILLE + ["--seed", "7"], tmp_path / "after-other") == cold


def test_the_shared_parser_keeps_no_state_between_runs(tmp_path, capsys):
    # main reuses one parser per process: a usage error between two equal
    # runs must change neither their bytes nor its own exit status
    first = _outputs(CASES["volume"], tmp_path / "first")
    assert main(["volume", "--quad", "nope", "--out", str(tmp_path / "bad")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert _outputs(CASES["volume"], tmp_path / "second") == first


@pytest.mark.parametrize("change", [["--seed", "2"], ["--samples", "30000"],
                                    ["--region", '{"type":"ball","radius":3}']],
                         ids=["seed", "samples", "region"])
def test_a_job_after_a_near_twin_writes_its_cold_bytes(change, tmp_path, monkeypatch):
    # the twin's last node set differs from this job's first in one part of
    # the key only, so a key that dropped that part would reuse it
    from vexlp import norms

    monkeypatch.setattr(norms, "_memo", None)
    _outputs(NORM_ON_A_BALL, tmp_path / "twin")
    warm = _outputs(NORM_ON_A_BALL + change, tmp_path / "after-twin")
    monkeypatch.setattr(norms, "_memo", None)
    assert _outputs(NORM_ON_A_BALL + change, tmp_path / "cold") == warm


@pytest.fixture
def ten_second_alarm():
    def timed_out(signum, frame):
        raise TimeoutError("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("flags", [["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"],
                                   ["--samples", "-5"], ["--samples", "0"]],
                         ids=["tol-0", "tol-negative", "tol-nan", "samples-negative", "samples-0"])
def test_bad_quadrature_budget_is_usage_error(flags, tmp_path, capsys, ten_second_alarm):
    argv = ["norm", "--field", '{"name":"gaussian"}', "--exponent", '{"constant":2}',
            "--seed", "1", *flags, "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "usage error: bad quadrature spec" in capsys.readouterr().err


def test_tiny_rel_tol_bisection_stops(ten_second_alarm):
    from vexlp.exponents import constant_field
    from vexlp.fields import gaussian_scalar
    from vexlp.norms import Quadrature, luxemburg_norm

    quad = Quadrature(scheme="radial", rel_tol=1e-300)
    res = luxemburg_norm(gaussian_scalar(), constant_field(2.0), None, quad)
    coarse = luxemburg_norm(gaussian_scalar(), constant_field(2.0), None,
                            Quadrature(scheme="radial"))
    assert res.status == "finite"
    assert abs(res.value - coarse.value) <= coarse.abs_error


def test_lemmas_on_a_velocity_field(tmp_path):
    # the Hoelder check multiplies the field by the constant 1
    code = main(["lemmas", "--preset", "cylinder", "--inner", "5", "--outer", "4",
                 "--region", '{"type":"ball","radius":2}',
                 "--field", '{"name":"gradient_counterexample"}',
                 "--samples", "2000", "--seed", "3", "--out", str(tmp_path)])
    assert code in (0, 2)
    assert json.loads((tmp_path / "lemmas.json").read_text())["checks"]["holder"]["passed"]


def test_radial_lemmas_read_no_seed(tmp_path, monkeypatch):
    # under the radial rule lemma 1 reads p's bounds and lemma 2 its sup of
    # |f| off the rule's own nodes, so no check draws (a run with envelope
    # sampling refused writes its bytes), and lhs <= sup * norm(1) on shared nodes
    def refuse(*args, **kwargs):
        raise AssertionError("a check drew over an envelope")

    monkeypatch.setattr(regions.Envelope, "strata", refuse)
    argv = ["lemmas", "--preset", "cylinder", "--inner", "5", "--outer", "4", "--region",
            '{"type":"annulus","inner":2,"outer":4}', "--quad", "radial"]
    for seed in (1, 2):
        assert main(argv + ["--seed", str(seed), "--out", str(tmp_path / str(seed))]) == 0
    assert (tmp_path / "1" / "lemmas.csv").read_bytes() == (tmp_path / "2" / "lemmas.csv").read_bytes()
    checks = [json.loads((tmp_path / seed / "lemmas.json").read_text())["checks"] for seed in "12"]
    assert checks[0] == checks[1] and checks[0]["lemma2"]["passed"]


def test_malformed_region_center_is_usage_error():
    with pytest.raises(ConfigError, match="three finite coordinates"):
        region_from_dict({"type": "ball", "center": [1, 0], "radius": 2})


def test_preset_parameter_flags_override_config_preset(tmp_path):
    # each flag writes only its own config key, so --inner applies to a
    # preset read from --config even without --preset
    (tmp_path / "run.json").write_text(json.dumps(
        {"exponent": {"kind": "power_cusp", "gamma": "1/2", "inner": "5", "outer": "4"}}))
    out = tmp_path / "out"
    code = main(["certify", "--config", str(tmp_path / "run.json"), "--inner", "11/2",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "certify.json").read_text())
    assert payload["config"]["exponent"] == {"kind": "power_cusp", "gamma": "1/2",
                                             "inner": "11/2", "outer": "4"}
    assert payload["certified"] is True


def test_an_infinite_norm_writes_strict_json(tmp_path):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert main(["norm", "--field", '{"name":"constant","value":1e40}',
                 "--exponent", '{"constant":2}', "--quad", "radial", "--out", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "norm.json").read_text(), parse_constant=refuse)["result"]
    assert (result["value"], result["abs_error"], result["status"]) == ("inf", "inf", "infinite")


def test_the_pieces_form_matches_its_preset(tmp_path):
    field = ["--field", '{"name":"inverse_quadratic"}', "--quad", "radial"]
    pieces = '{"pieces":[{"region":{"type":"cylinder"},"value":5}],"default":4}'
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["norm", "--exponent", pieces, *field, "--out", str(tmp_path / "a")]) == 0
        assert main(["norm", "--preset", "cylinder", "--inner", "5", "--outer", "4", *field,
                     "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "norm.csv").read_text() == (tmp_path / "b" / "norm.csv").read_text()


GAUSSIAN_RADIAL = ["--field", '{"name":"gaussian"}', "--quad", "radial"]
CYLINDER_FLAGS = ["--preset", "cylinder", "--inner", "5", "--outer", "4"]
BALL_1E160 = '{"type":"ball","radius":1e160}'
BALL_1E104 = '{"type":"ball","radius":1e104}'
POWER_CUSP_1E160 = '{"type":"truncated_power_cusp","gamma":0.5,"length":1e160}'
# runs that end in an error no other test or snapshot reaches: argv, stderr text
ERROR_PATHS = {
    "radial-off-a-shell": (["norm", *GAUSSIAN_RADIAL, "--exponent", '{"constant":2}', "--region",
                            '{"type":"cylinder_segment","half_length":3}'],
                           "error: the radial rule needs an origin-centered ball or shell"),
    "scalar-velocity": (["energy", "--field", '{"name":"gaussian"}', "--radii", "4"],
                        "is scalar; this command needs a velocity"),
    "gamma-validated": (["liouville", "--preset", "power_cusp", "--gamma", "3/2", "--inner", "5",
                         "--outer", "4", "--field", '{"name":"zero"}', "--grid-start", "8",
                         "--grid-factor", "2", "--grid-count", "4", "--seed", "1"],
                        "power_cusp preset needs 0 < gamma < 1; got 3/2"),
    "no-inner-unvalidated": (["norm", "--preset", "cylinder", "--outer", "4", "--no-validate",
                              *GAUSSIAN_RADIAL], "cylinder preset needs an inner exponent"),
    "gamma-unvalidated": (["norm", "--preset", "power_cusp", "--gamma", "3/2", "--inner", "5",
                           "--outer", "4", "--no-validate", *GAUSSIAN_RADIAL],
                          "power_cusp preset needs 0 < gamma < 1; got 3/2"),
    "sigma-unvalidated": (["norm", "--preset", "shrink_cusp", "--sigma", "3/2", "--outer", "4",
                           "--no-validate", *GAUSSIAN_RADIAL],
                          "shrink_cusp preset needs 0 < sigma < 1; got 3/2"),
    "certify-gamma": (["certify", "--preset", "power_cusp", "--gamma", "3/2", "--outer", "4"],
                      "cusp exponent must lie in (0, 1]"),
    "config-not-object": (["volume", "--config", "{list}"], "must hold a JSON object"),
    "no-subcommand": ([], "choose a subcommand"),
    # a layout without the conjugate its certificate pairs with (p <= k)
    "certify-no-2-conjugate": (["certify", "--preset", "cylinder", "--inner", "2", "--outer", "4",
                                "--no-validate"], "numerator 2 needs every piece bound > 2"),
    "certify-no-3-conjugate": (["certify", "--preset", "power_cusp", "--gamma", "1/2", "--inner",
                                "3", "--outer", "4", "--no-validate"],
                               "numerator 3 needs every piece bound > 3"),
    "certify-alpha-no-2-conjugate": (["certify", "--preset", "power_cusp", "--gamma", "1/2",
                                      "--inner", "1", "--outer", "4", "--no-validate", "--term",
                                      "alpha"], "numerator 2 needs every piece bound > 2"),
    # exponents and cusp powers whose floats do not exist or round out of range
    "decay-inner-1e400": (["decay", "--preset", "cylinder", "--inner", "1e400", "--outer", "4",
                           "--radii", "2,4,8,16"], "preset exponents must be at most"),
    "norm-inner-1e400": (["norm", "--preset", "cylinder", "--inner", "1e400", "--outer", "4",
                          *GAUSSIAN_RADIAL], "preset exponents must be at most"),
    "norm-constant-1e400": (["norm", *GAUSSIAN_RADIAL, "--exponent", '{"constant":"1e400"}'],
                            "bad exponent spec"),
    "certify-gamma-1e-400": (["certify", "--preset", "power_cusp", "--gamma", "1e-400", "--inner",
                              "5", "--outer", "4"], "the inner cap (6*gamma+3)/(2*gamma) exceeds"),
    "decay-gamma-1e-400": (["decay", "--preset", "power_cusp", "--gamma", "1e-400", "--inner", "5",
                            "--outer", "4", "--radii", "2,4,8,16"],
                           "power_cusp preset needs 0 < gamma < 1 as a float; it rounds to 0.0"),
    # sizes whose square overflows a float
    **{f"{argv[0]}-radius-1e160": (argv, "cutoff radius must exceed 1 and have a finite square")
       for argv in (["decay", *CYLINDER_FLAGS, "--radii", "2,4,8,1e160"],
                    ["alpha-beta", "--field", '{"name":"decaying_solenoidal","rate":2}',
                     "--radii", "2,4,8,1e160"],
                    ["liouville", *CYLINDER_FLAGS, "--field", '{"name":"zero"}',
                     "--radii", "2,4,8,1e160", "--seed", "1", "--samples", "1000"],
                    ["energy", "--field", '{"name":"zero"}', "--radii", "1e160"])},
    **{name: (argv, "is too large: its square overflows a float") for name, argv in {
        "volume-ball-1e160": ["volume", "--region", BALL_1E160],
        "volume-mc-ball-1e160": ["volume", "--region", BALL_1E160, "--method", "monte_carlo",
                                 "--seed", "1", "--samples", "1000"],
        "volume-annulus-1e160": ["volume", "--region",
                                 '{"type":"annulus","inner":1,"outer":1e160}'],
        "norm-ball-1e160": ["norm", "--field", '{"name":"gaussian"}', "--exponent",
                            '{"constant":2}', "--region", BALL_1E160, "--seed", "1",
                            "--samples", "10"],
        "lemmas-ball-1e160": ["lemmas", *CYLINDER_FLAGS, "--region", BALL_1E160, "--seed", "1",
                              "--samples", "1000"]}.items()},
    # sizes whose square passes the radius check but whose volume overflows a float
    **{name: (argv, "envelope volume overflows a float") for name, argv in {
        "energy-radius-1e104": ["energy", "--field", '{"name":"zero"}', "--radii", "1e104"],
        "lemmas-power-cusp-1e160": ["lemmas", *CYLINDER_FLAGS, "--region", POWER_CUSP_1E160,
                                    "--seed", "1", "--samples", "1000"],
        "volume-mc-ball-1e104": ["volume", "--region", BALL_1E104, "--method", "monte_carlo",
                                 "--seed", "1", "--samples", "1000"],
        "norm-ball-1e104": ["norm", "--field", '{"name":"gaussian"}', "--exponent",
                            '{"constant":2}', "--region", BALL_1E104, "--seed", "1",
                            "--samples", "1000"]}.items()},
    **{name: (["volume", "--region", region], f"{kind} volume overflows a float")
       for name, kind, region in (
           ("volume-ball-1e104", "Ball", BALL_1E104),
           ("volume-annulus-1e104", "Annulus", '{"type":"annulus","inner":1,"outer":1e104}'),
           ("volume-power-cusp-1e160", "PowerCusp", POWER_CUSP_1E160))},
}


@pytest.mark.parametrize("command", ["liouville", "alpha-beta", "decay"])
def test_a_radial_rule_past_the_float_range_is_an_error(command, tmp_path, capsys):
    # at radius 1e150 the cutoff's square is finite but the shell's volume,
    # and with it the radial rule's weights, is not: a named error, no NaN
    # rows and no numpy warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, *CYLINDER_FLAGS, "--field",
                     '{"name":"decaying_solenoidal","rate":2}', "--grid-start", "1e150",
                     "--grid-factor", "2", "--grid-count", "4", "--out", str(tmp_path)]) == 1
    assert not caught
    assert capsys.readouterr().err == "error: Annulus volume overflows a float\n"
    assert not list(tmp_path.iterdir())


def test_a_shell_variance_past_the_float_range_is_no_error(tmp_path):
    # at radius 1e100 a Monte Carlo stratum volume squares past the float range;
    # the variance is then inf, and the fit drops the norm there, under its zero floor
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["decay", *CYLINDER_FLAGS, "--radii", "2,4,8,1e100", "--quad", "mc",
                     "--seed", "1", "--samples", "1000", "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader((tmp_path / "decay.csv").open()))
    assert [float(r["R"]) for r in rows] == [2.0, 4.0, 8.0] * 2


@pytest.mark.parametrize("case", sorted(ERROR_PATHS))
def test_error_paths_exit_1_with_their_message(case, tmp_path, capsys):
    argv, message = ERROR_PATHS[case]
    (tmp_path / "list.json").write_text("[1]")
    argv = [str(tmp_path / "list.json") if a == "{list}" else a for a in argv]
    out = ["--out", str(tmp_path / "out")] if argv else []  # flags need a subcommand
    assert main(argv + out) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lemmas_over_an_empty_region_is_a_named_error(tmp_path, capsys):
    # lemma 1 reads p's bounds off its norm's in-domain nodes; where there
    # are none it names the error, with no traceback and no output
    region = ('{"type":"intersect","first":{"type":"ball","radius":1},'
              '"second":{"type":"annulus","inner":2,"outer":3}}')
    argv = ["lemmas", *CYLINDER_FLAGS, "--region", region, "--samples", "5000", "--seed", "1"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Intersect holds none of its") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_flag_table_keeps_every_flag_and_config_field(capsys):
    from vexlp.cli import FLAGS
    from vexlp.norms import Quadrature

    flags = [f.name for f in FLAGS if f.name]
    assert len(flags) == len(set(flags)) == 23
    assert len(RunConfig.__dataclass_fields__) == 14
    top = {f.key.split(".")[0] for f in FLAGS if f.key}
    assert top == set(RunConfig.__dataclass_fields__) - {"command"}
    quad_keys = {f.key.split(".")[1] for f in FLAGS if (f.key or "").startswith("quadrature.")}
    assert quad_keys == set(Quadrature.__dataclass_fields__)
    assert [f.key for f in FLAGS if not f.name] == ["tolerances.gap_tol",
                                                    "tolerances.slope_margin"]
    with pytest.raises(SystemExit):
        main(["decay", "--help"])
    help_text = capsys.readouterr().out
    assert "{laplacian,gradient}" in help_text and "kind,R,norm,abs_error" in help_text
    assert "(default: radial;" in help_text
    with pytest.raises(SystemExit):
        main(["liouville", "--help"])
    assert "(default: radial;" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# property: every input ends in an exit code, never in a traceback or a hang

_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                    st.floats(-2.0, 20.0), st.just(1e160), st.just(1e104),
                    st.sampled_from(["x", "9/2", "1/2", "inf", "", "1e400", "1e-400"]),
                    st.lists(st.integers(0, 4), max_size=2))
_REGION = st.one_of(
    st.sampled_from([
        {"type": "ball", "radius": 1},
        {"type": "ball", "center": [1, 0], "radius": 2},
        {"type": "annulus", "inner": 1, "outer": 2},
        {"type": "cylinder"},
        {"type": "power_cusp", "gamma": 0.5},
        {"type": "truncated_power_cusp", "gamma": 0.5, "length": 4},
        {"type": "truncated_shrink_cusp", "sigma": 0.5, "length": 4},
        {"type": "intersect", "first": {"type": "annulus", "inner": 2, "outer": 4},
         "second": {"type": "cylinder"}},
        {"type": "diff", "keep": {"type": "ball", "radius": 2}, "remove": {"type": "cylinder"}},
        {"type": "complement", "of": 5},
    ]),
    st.fixed_dictionaries({"type": st.sampled_from(["ball", "annulus", "nope"])},
                          optional={"radius": _SCALAR, "inner": _SCALAR, "outer": _SCALAR}),
    _SCALAR,
)
_EXPONENT = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["cylinder", "power_cusp", "shrink_cusp", "foo"])},
        optional={"inner": st.sampled_from(["5", "6", 5, "x", None]),
                  "outer": st.sampled_from(["4", "7/2", 4, 3, "x"]),
                  "gamma": st.sampled_from(["1/2", 0.5, 2, "x"]),
                  "sigma": st.sampled_from(["1/2", 0.5, 0, "x"])}),
    st.fixed_dictionaries({"constant": _SCALAR}),
    st.fixed_dictionaries({"pieces": st.sampled_from([[{"region": {"type": "ball"},
                                                        "value": 3}], [1], 5]),
                           "default": _SCALAR}),
    _SCALAR,
)
_FIELD = st.one_of(
    st.fixed_dictionaries(
        {"name": st.sampled_from(["zero", "gradient_counterexample", "decaying_solenoidal",
                                  "gaussian", "inverse_quadratic", "constant",
                                  "counterexample", "nope"])},
        optional={"rate": _SCALAR, "value": _SCALAR}),
    _SCALAR,
)
_NUMBERS = st.lists(st.one_of(st.floats(0.5, 40.0), st.just(1e160)), min_size=4, max_size=5)
# per config field: values of the right shape mixed with wrong ones
_CONFIG_VALUES = {
    "region": _REGION,
    "exponent": _EXPONENT,
    "fieldspec": _FIELD,
    "pressure": _FIELD,
    "quadrature": st.one_of(_SCALAR, st.fixed_dictionaries({}, optional={
        "scheme": st.sampled_from(["mc", "radial", "strat", "foo", 3]),
        "seed": _SCALAR, "rel_tol": st.sampled_from([1e-4, 1e-3, 0, -1, 2, "x", None]),
        # misspelled or removed keys
        "sede": _SCALAR, "strata": st.integers(-1, 4)})),
    "r_grid": st.one_of(_SCALAR, st.fixed_dictionaries({}, optional={
        "start": st.one_of(st.floats(-2.0, 16.0), _SCALAR),
        "factor": st.one_of(st.floats(0.5, 3.0), _SCALAR),
        "count": st.one_of(st.integers(0, 5), _SCALAR)})),
    "radii": st.one_of(_NUMBERS, st.lists(_SCALAR, min_size=1, max_size=4), _SCALAR),
    "kind": st.one_of(st.sampled_from(["laplacian", "gradient"]), _SCALAR),
    "method": st.one_of(st.sampled_from(["analytic", "monte_carlo"]), _SCALAR),
    "term": st.one_of(st.sampled_from(["alpha", "beta", "both"]), _SCALAR),
    "validate": _SCALAR,
    "tolerances": st.one_of(_SCALAR, st.fixed_dictionaries(
        {}, optional={"gap_tol": _SCALAR, "slope_margin": _SCALAR})),
    "out_dir": _SCALAR,
    "bogus": _SCALAR,
}
_OVERRIDE = st.sampled_from(sorted(_CONFIG_VALUES)).flatmap(
    lambda key: st.tuples(st.just(key), _CONFIG_VALUES[key]))
# a config per command that runs as it stands; the test perturbs it
_BASES = {
    "norm": {"fieldspec": {"name": "gaussian"}, "exponent": {"constant": 2},
             "quadrature": {"scheme": "radial"}},
    "volume": {"region": {"type": "ball"}, "method": "monte_carlo", "quadrature": {"seed": 3}},
    "decay": {"exponent": CYLINDER, "r_grid": GRID, "kind": "gradient",
              "quadrature": {"seed": 3}},
    "energy": {**COUNTEREXAMPLE, "radii": [4]},
    "alpha-beta": {"fieldspec": {"name": "decaying_solenoidal", "rate": 2}, "r_grid": GRID,
                   "quadrature": {"seed": 3}},
    "certify": {"exponent": {"kind": "power_cusp", "gamma": "1/2", "inner": "5", "outer": "4"}},
    "lemmas": {"exponent": CYLINDER, "region": {"type": "ball", "radius": 2},
               "quadrature": {"seed": 3}},
    "liouville": {"exponent": CYLINDER, "fieldspec": {"name": "zero"}, "r_grid": GRID,
                  "quadrature": {"seed": 3}},
}
_JSON_TEXT = st.one_of(st.sampled_from(["{bad", "[1]", "5", "null"]),
                       st.one_of(_REGION, _EXPONENT, _FIELD).map(json.dumps))
_FLAG = st.one_of(
    st.tuples(st.sampled_from(["--seed", "--grid-count"]),
              st.one_of(st.integers(-2, 5).map(str), st.just("x"))),
    st.tuples(st.sampled_from(["--tol", "--grid-start", "--grid-factor"]),
              st.sampled_from(["0", "-1", "1e-300", "1e-3", "0.5", "2", "8", "1e160", "nan", "inf",
                               "x"])),
    st.tuples(st.just("--radii"), st.one_of(
        _NUMBERS.map(lambda rs: ",".join(f"{r:g}" for r in rs)), st.just("4,x"))),
    st.tuples(st.sampled_from(["--inner", "--outer", "--gamma", "--sigma"]),
              st.sampled_from(["5", "4", "1/2", "0", "x", "inf", "1e400", "1e-400"])),
    st.tuples(st.sampled_from(["--region", "--field", "--pressure", "--exponent"]), _JSON_TEXT),
    st.tuples(st.just("--quad"), st.sampled_from(["radial", "mc", "strat", "bad"])),
    st.tuples(st.just("--preset"), st.sampled_from(["cylinder", "power_cusp", "shrink_cusp"])),
    st.tuples(st.just("--kind"), st.sampled_from(["laplacian", "gradient"])),
    st.tuples(st.just("--method"), st.sampled_from(["analytic", "monte_carlo"])),
    st.tuples(st.just("--term"), st.sampled_from(["alpha", "beta", "both"])),
    st.just(("--no-validate",)),
)


@st.composite
def _runs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    config = None
    if draw(st.integers(0, 3)):
        base = _BASES[draw(st.sampled_from([command] * 3 + sorted(_BASES)))]
        config = {**base, **dict(draw(st.lists(_OVERRIDE, max_size=2)))}
    flags = draw(st.lists(_FLAG, max_size=3))
    # every run stays small: at most 2,000 samples and grids of at most 5 radii
    samples = draw(st.integers(-2, 2000))
    return command, config, [part for flag in flags for part in flag], samples


@settings(max_examples=200, deadline=None)
@given(run=_runs())
def test_main_never_raises(run):
    command, config, flags, samples = run
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *flags]
        if config is not None:
            Path(tmp, "run.json").write_text(json.dumps(config))
            argv += ["--config", str(Path(tmp, "run.json"))]
        argv += ["--samples", str(samples), "--out", str(Path(tmp, "out"))]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
