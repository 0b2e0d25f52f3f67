"""Write the output of every documented CLI run to one directory tree.

    python tests/cli_snapshot.py OUT
    python tests/cli_snapshot.py --goldens [CASE ...]
    python tests/cli_snapshot.py --compare OLD NEW

Runs each `CASES` entry of `tests/test_cli.py`, each `vexlp` command of the
README examples block (parsed from README.md, with its `--out` replaced)
and the few `EXTRA` runs below, in this process, against the `vexlp`
package of this checkout.  Each run writes `OUT/<name>/<command>.csv`,
`OUT/<name>/<command>.json` and `OUT/<name>/stdout` (the lines printed
to stdout and stderr, then the exit code).  A change keeps the same-machine output contract when

    diff -r OUT_BEFORE OUT_AFTER

is empty for snapshots of the two checkouts taken on one machine.  pytest
does not collect this file; a snapshot takes a few seconds.

With ``--goldens`` it rewrites ``tests/golden/<case>/`` from `CASES` (the
named cases, or all of them) and records this machine's fingerprint for
each in ``tests/golden/FINGERPRINT.json``, which the golden test prints
next to its own when a case no longer matches.

With ``--compare`` it prints every cell of two snapshot trees that moved:
each CSV and JSON leaf whose value differs, with its relative move and,
for a number, the move in units of its row's error bar (the old
``abs_error``, ``errors`` or ``std_error`` of the CSV row or JSON object
holding it).  Other files that differ are named.  It exits 1 when
anything moved, as ``diff`` does.
"""

from __future__ import annotations

import contextlib
import io
import json
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_cli import CASES, GOLDEN, _csv_cells, _json_cells, fingerprint  # noqa: E402
from vexlp.cli import main  # noqa: E402

# runs outside CASES and the README that reach the Monte Carlo norm, an
# infinite exponent piece, the radial shell terms, the piece-aware radial
# rule on the shrinking cusp, the bounded tube and widening cusp of the
# region grammar, a shell or ball minus the tube, and the `pieces` exponent
# form (`norm-pieces-bounded` puts every bounded piece region of the grammar
# under the radial rule); with the README `liouville` run, the two `liouville-*-200k` runs
# cover every job kind of the `liouville` benchmark workload at its size.
# `liouville-mc` and `alpha-beta-mc` are the README runs on Monte Carlo, at
# 200k samples and seed 7, and `decay-mc` reaches the Monte Carlo cutoff norms.
# The two `volume-mc-shell-*-cusp` runs count envelope strata that the region
# decides (wholly outside the shell) without drawing them.  The three
# `certify-*` runs reach the certificate kinds the README does not: the
# shrinking cusp, the tube's beta term alone, and an inner exponent past the
# float range, which the certificate keeps exact.  `norm-mc-shrink-cusp-sup`
# is a Monte Carlo norm set by the sup on the infinite piece, and
# `energy-decaying` reaches a non-zero momentum residual on the probe points.
# `decay-power-cusp` is the README grid on the widening cusp, the middle job
# kind of the `decay` benchmark workload, and `norm-pieces-many` a radial norm
# whose nodes meet nine distinct exponent values, so its modular sums nine
# terms by numpy's pairwise reduce (fewer than eight are summed in order).
# `liouville-rate-0.78` is a velocity in the space whose membership scan
# could not tell (its increments fall by about 0.92 a shell); its
# certificate's outer margin is 4 * 0.78 - 3 = 3/25.
# The two `*-shrink-cusp-1.7` runs take radii that are not power-of-two
# rescalings of one another, and their first shell, [1, 2], holds the cusp
# side's radial break at r = 1.284.  `lemmas-radial` is the README `lemmas`
# run on the radial rule, where no check draws.
EXTRA = {
    "certify-shrink-cusp": ["certify", "--preset", "shrink_cusp", "--sigma", "1/2", "--outer", "4"],
    "certify-cylinder-beta": ["certify", "--preset", "cylinder", "--inner", "5", "--outer", "4",
                              "--term", "beta"],
    "certify-cylinder-1e400": ["certify", "--preset", "cylinder", "--inner", "1e400",
                               "--outer", "4"],
    "liouville-mc": [
        "liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
        "--field", '{"name":"decaying_solenoidal","rate":2}', "--grid-start", "8",
        "--grid-factor", "2", "--grid-count", "6", "--quad", "mc", "--samples", "200000",
        "--seed", "7"],
    "alpha-beta-mc": [
        "alpha-beta", "--field", '{"name":"decaying_solenoidal","rate":2}',
        "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6",
        "--quad", "mc", "--samples", "200000", "--seed", "7"],
    "norm-mc-cylinder": [
        "norm", "--field", '{"name":"inverse_quadratic"}', "--preset", "cylinder",
        "--inner", "5", "--outer", "4", "--samples", "50000", "--seed", "2"],
    "norm-mc-shrink-cusp": [
        "norm", "--field", '{"name":"inverse_quadratic"}', "--preset", "shrink_cusp",
        "--sigma", "1/2", "--outer", "4", "--samples", "50000", "--seed", "2"],
    "norm-mc-shrink-cusp-sup": [
        "norm", "--field", '{"name":"decaying_solenoidal","rate":2}', "--preset", "shrink_cusp",
        "--sigma", "1/2", "--outer", "4", "--region", '{"type":"ball","radius":16}',
        "--samples", "200000", "--seed", "7"],
    "energy-decaying": ["energy", "--field", '{"name":"decaying_solenoidal","rate":2}',
                        "--radii", "4,8"],
    "alpha-beta-radial": [
        "alpha-beta", "--field", '{"name":"gradient_counterexample"}',
        "--pressure", '{"name":"counterexample"}', "--radii", "4,8,16", "--quad", "radial"],
    "liouville-shrink-cusp": [
        "liouville", "--preset", "shrink_cusp", "--sigma", "0.5", "--outer", "4",
        "--field", '{"name":"decaying_solenoidal","rate":2}', "--grid-start", "8",
        "--grid-factor", "2", "--grid-count", "6", "--samples", "200000", "--seed", "7"],
    "liouville-power-cusp": [
        "liouville", "--preset", "power_cusp", "--gamma", "1/2", "--inner", "5",
        "--outer", "4", "--field", '{"name":"gradient_counterexample"}',
        "--pressure", '{"name":"counterexample"}', "--grid-start", "8",
        "--grid-factor", "2", "--grid-count", "4", "--samples", "20000", "--seed", "3"],
    "liouville-power-cusp-200k": [
        "liouville", "--preset", "power_cusp", "--gamma", "1/2", "--inner", "5",
        "--outer", "4", "--field", '{"name":"decaying_solenoidal","rate":2}',
        "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6",
        "--samples", "200000", "--seed", "7"],
    "liouville-counterexample-200k": [
        "liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
        "--field", '{"name":"gradient_counterexample"}', "--pressure", '{"name":"counterexample"}',
        "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6",
        "--samples", "200000", "--seed", "7"],
    "liouville-rate-0.78": [
        "liouville", "--preset", "cylinder", "--inner", "5", "--outer", "4",
        "--field", '{"name":"decaying_solenoidal","rate":0.78}', "--grid-start", "8",
        "--grid-factor", "2", "--grid-count", "6"],
    "decay-mc": [
        "decay", "--preset", "cylinder", "--inner", "5", "--outer", "4", "--grid-start", "8",
        "--grid-factor", "2", "--grid-count", "6", "--quad", "mc", "--samples", "1000000",
        "--seed", "7"],
    "decay-shrink-cusp": [
        "decay", "--preset", "shrink_cusp", "--sigma", "1/2", "--outer", "4",
        "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6"],
    "decay-shrink-cusp-1.7": [
        "decay", "--preset", "shrink_cusp", "--sigma", "1/2", "--outer", "4",
        "--grid-start", "2", "--grid-factor", "1.7", "--grid-count", "6"],
    "liouville-shrink-cusp-1.7": [
        "liouville", "--preset", "shrink_cusp", "--sigma", "1/2", "--outer", "4",
        "--field", '{"name":"decaying_solenoidal","rate":2}',
        "--grid-start", "2", "--grid-factor", "1.7", "--grid-count", "6"],
    "volume-mc-cylinder-segment": [
        "volume", "--region", '{"type":"cylinder_segment","half_length":10}',
        "--method", "monte_carlo", "--samples", "100000", "--seed", "3"],
    "volume-mc-truncated-power-cusp": [
        "volume", "--region", '{"type":"truncated_power_cusp","gamma":0.5,"length":4}',
        "--method", "monte_carlo", "--samples", "100000", "--seed", "3"],
    "volume-mc-shell-power-cusp": [
        "volume", "--region", '{"type":"intersect","first":{"type":"annulus","inner":128,'
        '"outer":256},"second":{"type":"power_cusp","gamma":0.5}}',
        "--method", "monte_carlo", "--samples", "1000000", "--seed", "3"],
    "volume-mc-shell-shrink-cusp": [
        "volume", "--region", '{"type":"intersect","first":{"type":"annulus","inner":4,'
        '"outer":8},"second":{"type":"shrink_cusp","sigma":0.5}}',
        "--method", "monte_carlo", "--samples", "1000000", "--seed", "3"],
    "lemmas-shell-cylinder-segment": [
        "lemmas", "--preset", "cylinder", "--inner", "5", "--outer", "4", "--region",
        '{"type":"intersect","first":{"type":"annulus","inner":2,"outer":4},'
        '"second":{"type":"cylinder_segment","half_length":3}}',
        "--samples", "50000", "--seed", "3"],
    "volume-mc-diff": [
        "volume", "--region", '{"type":"diff","keep":{"type":"annulus","inner":32,"outer":64},'
        '"remove":{"type":"cylinder"}}',
        "--method", "monte_carlo", "--samples", "100000", "--seed", "3"],
    "lemmas-radial": [
        "lemmas", "--preset", "cylinder", "--inner", "5", "--outer", "4", "--region",
        '{"type":"annulus","inner":2,"outer":4}', "--quad", "radial"],
    "lemmas-diff": [
        "lemmas", "--preset", "cylinder", "--inner", "5", "--outer", "4", "--region",
        '{"type":"diff","keep":{"type":"ball","radius":4},"remove":{"type":"cylinder"}}',
        "--samples", "50000", "--seed", "3"],
    "norm-pieces": [
        "norm", "--exponent", '{"pieces":[{"region":{"type":"cylinder"},"value":5}],"default":4}',
        "--field", '{"name":"inverse_quadratic"}', "--quad", "radial"],
    "norm-pieces-bounded": [
        "norm", "--exponent", '{"pieces":['
        '{"region":{"type":"ball","center":[-3,0,0],"radius":2},"value":6},'
        '{"region":{"type":"truncated_power_cusp","gamma":0.5,"length":5},"value":5},'
        '{"region":{"type":"truncated_shrink_cusp","sigma":0.5,"length":4},"value":4.5},'
        '{"region":{"type":"diff","keep":{"type":"cylinder_segment","half_length":6},'
        '"remove":{"type":"ball","radius":2}},"value":5.5}],"default":4}',
        "--field", '{"name":"inverse_quadratic"}', "--quad", "radial"],
    "decay-power-cusp": [
        "decay", "--preset", "power_cusp", "--gamma", "1/2", "--inner", "5", "--outer", "4",
        "--grid-start", "8", "--grid-factor", "2", "--grid-count", "6"],
    "norm-pieces-many": [
        "norm", "--exponent", '{"pieces":['
        '{"region":{"type":"ball","center":[-5.5,0,0],"radius":1},"value":6},'
        '{"region":{"type":"ball","center":[-3,0,0],"radius":1},"value":7},'
        '{"region":{"type":"ball","center":[3,0,0],"radius":1},"value":8},'
        '{"region":{"type":"ball","center":[5.5,0,0],"radius":1},"value":9},'
        '{"region":{"type":"truncated_power_cusp","gamma":0.5,"length":1.5},"value":5},'
        '{"region":{"type":"truncated_shrink_cusp","sigma":0.5,"length":1},"value":4.5},'
        '{"region":{"type":"ball","radius":0.5},"value":3},'
        '{"region":{"type":"cylinder_segment","half_length":7.5},"value":5.5}],"default":4}',
        "--field", '{"name":"inverse_quadratic"}', "--quad", "radial"],
}


def readme_runs() -> dict[str, list[str]]:
    """The `vexlp` commands of the README examples block, without `--out`."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    runs = {}
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        if not argv or argv[0] != "vexlp":
            continue
        if "--out" in argv:
            at = argv.index("--out")
            del argv[at:at + 2]
        runs[f"readme-{len(runs) + 1}-{argv[1]}"] = argv[1:]
    return runs


def snapshot(name: str, argv: list[str], out: Path) -> None:
    target = out / name
    target.mkdir(parents=True)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = main(argv + ["--out", str(target)])
    (target / "stdout").write_text(f"{printed.getvalue()}exit {code}\n")


def run_all(out: Path) -> None:
    runs = {**CASES, **readme_runs(), **EXTRA}
    for name, argv in runs.items():
        snapshot(name, argv, out)
        print(name, (out / name / "stdout").read_text().splitlines()[0])


def write_goldens(names: list[str]) -> None:
    unknown = set(names) - set(CASES)
    if unknown:
        sys.exit(f"no golden case {sorted(unknown)}; cases: {', '.join(CASES)}")
    stamp = GOLDEN / "FINGERPRINT.json"
    stamps = json.loads(stamp.read_text()) if stamp.exists() else {}
    for name in names or list(CASES):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(CASES[name] + ["--out", str(GOLDEN / name)])
        if code != 0:
            sys.exit(f"golden case {name} exited {code}")
        stamps[name] = fingerprint()
        print(name, "written")
    stamp.write_text(json.dumps(stamps, indent=2, sort_keys=True) + "\n")


# the columns holding a row's error bar, one per command family
ERROR_COLUMNS = ("abs_error", "errors", "std_error")


def _cells(path: Path) -> dict:
    """A snapshot file as {cell path: (value, column, record)}, the JSON
    rows named by the header of the run's CSV."""
    if path.suffix == ".csv":
        return _csv_cells(path.read_text())
    table = path.with_suffix(".csv")
    header = table.read_text().splitlines()[0].split(",") if table.exists() else []
    return _json_cells(json.loads(path.read_text()), header)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _move(a, b, record) -> str:
    """b - a relative to a, and in units of the record's error bar."""
    text = f", rel {abs(b - a) / abs(a):.2e}" if a else ", rel inf"
    for column in ERROR_COLUMNS:
        bar = record.get(column) if isinstance(record, dict) else None
        if _is_number(bar) and bar > 0:
            return text + f", {abs(b - a) / bar:.3g} x {column} {bar:.3g}"
    return text + ", no bar"


def compare(old: Path, new: Path) -> int:
    """Print each cell that moved between two snapshot trees; the count."""
    moved = 0
    for name in sorted({p.relative_to(old) for p in old.rglob("*") if p.is_file()}
                       | {p.relative_to(new) for p in new.rglob("*") if p.is_file()}):
        a, b = old / name, new / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {old if a.exists() else new}")
            moved += 1
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        if a.suffix not in (".csv", ".json"):
            print(f"{name}: differs")
            moved += 1
            continue
        want, got = _cells(a), _cells(b)
        for path in sorted(want.keys() ^ got.keys()):
            print(f"{name} {path}: only in {'OLD' if path in want else 'NEW'}")
            moved += 1
        for path, (x, _, record) in want.items():
            if path not in got or got[path][0] == x:
                continue
            y = got[path][0]
            numbers = _is_number(x) and _is_number(y)
            print(f"{name} {path}: {x!r} -> {y!r}" + (_move(x, y, record) if numbers else ""))
            moved += 1
    return moved


if __name__ == "__main__":
    if len(sys.argv) >= 2 and sys.argv[1] == "--goldens":
        write_goldens(sys.argv[2:])
        sys.exit()
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(1 if compare(Path(sys.argv[2]), Path(sys.argv[3])) else 0)
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/cli_snapshot.py OUT | --goldens [CASE ...]"
                 " | --compare OLD NEW")
    out = Path(sys.argv[1])
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    run_all(out)
