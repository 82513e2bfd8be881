"""Golden outputs of the command line on a fixed scenario matrix.

Every scenario runs ``main`` in-process into a fresh directory.  Its exit
code, stdout, stderr, the list of files written, the result table and the
manifest are compared with the recording under ``tests/golden/<scenario>``:

- exit codes, stdout, stderr, table headers, row counts, strings, ints and
  manifest keys exactly, with the output directory written as ``<out>``;
- floats within RTOL relative, table floats also within RTOL times their
  column's largest absolute value in the golden (a cell near a zero
  crossing is held to its column's scale, not to the rounding that
  recorded it); eigenvalue columns may also move by twice the manifest's
  ``eigenvalue_error_bound`` (a spread or a deviation is a difference of
  two eigenvalues);
- the numpy and python entries of ``versions`` describe the environment,
  not the program, and are not compared.

Tables longer than MAX_ROWS rows are stored thinned to every step-th row;
``run.json`` records the full row count and the step.

To re-record after a deliberate output change (state it in CHANGES.md),
naming the scenarios to re-record, or none to re-record them all:

    PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

from ncqmlab.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUT = "<out>"
MAX_ROWS = 101
RTOL = 1e-12
EIGENVALUE_COLUMNS = ("E_n", "spread", "full_E_n", "deviation")
ENVIRONMENT_VERSIONS = ("numpy", "python")


class Scenario(NamedTuple):
    name: str
    argv: tuple
    config: dict | None = None     # written to a file passed as --config
    out_is_file: bool = False      # --out names an existing plain file


_RUNS = (
    Scenario("spectrum-theta", ("spectrum", "--theta", "0.3", "--B", "1",
                                "--n-max", "10", "--k", "3")),
    Scenario("spectrum-commutative",
             ("spectrum", "--theta", "0", "--B", "2.5", "--m", "1.5",
              "--e", "2", "--n-max", "16", "--k", "4")),
    Scenario("spectrum-config", ("spectrum", "--k", "3"),
             config={"theta": 0.0, "B": 2.0, "e": 0.5, "n_max": 10,
                     "k": 2}),
    # the charge is folded into the field: kappa = 1 - theta e B = 0.4
    Scenario("spectrum-charge", ("spectrum", "--theta", "0.3", "--B", "1",
                                 "--e", "2", "--n-max", "20", "--k", "3")),
    # small theta B, where a subtractive form of the rep lost digits
    Scenario("spectrum-small-theta", ("spectrum", "--theta", "1e-12",
                                      "--B", "1", "--n-max", "10",
                                      "--k", "3")),
    # a weak field: each gap omega_B = 1e-6 is wide against the 1e-9
    # relative gap rule, though narrow in absolute terms
    Scenario("spectrum-weak-field", ("spectrum", "--B", "1e-6", "--k", "3")),
    Scenario("star", ("star", "--theta", "0.2", "--B", "1", "--k", "3")),
    Scenario("star-charge", ("star", "--theta", "0.3", "--B", "1.5",
                             "--e", "2", "--m", "0.5", "--k", "4")),
    Scenario("sw", ("sw", "--theta", "0.4", "--curlyB", "0.5", "--k", "2")),
    Scenario("trajectory-symmetric",
             ("trajectory", "--theta", "0.25", "--B", "0", "--curlyB", "2",
              "--gauge", "symmetric", "--T", "16", "--h", "0.005",
              "--xi0", "1,0,0,0")),
    Scenario("trajectory-landau",
             ("trajectory", "--theta", "0.1", "--B", "0", "--curlyB", "3",
              "--gauge", "landau", "--T", "16", "--h", "0.005",
              "--xi0", "0.5,0.2,0.1,0")),
    Scenario("trajectory-charge",
             ("trajectory", "--theta", "0.2", "--B", "0", "--curlyB", "1.5",
              "--e", "2", "--T", "16", "--h", "0.005", "--xi0", "1,0.5,0,0")),
    Scenario("peierls", ("peierls", "--B", "50", "--lam", "0.1", "--k", "2",
                         "--n-max", "12")),
    Scenario("peierls-charge", ("peierls", "--B", "20", "--e", "0.5",
                                "--lam", "0.1", "--k", "2", "--n-max", "12")),
    Scenario("peierls-weyl",
             ("peierls", "--B", "20", "--lam", "0.05", "--potential",
              "0.5,0.1", "--prescription", "weyl", "--n-max", "12",
              "--k", "2")),
    # a weak field, answered by the Fock-Darwin levels Omega, 2 Omega -
    # omega_B/2; the n_max = 8 basis below is too small for it
    Scenario("peierls-weak-field",
             ("peierls", "--B", "0.75", "--m", "1.5", "--lam", "0.05",
              "--k", "2", "--n-max", "12")),
    Scenario("peierls-large-basis", ("peierls", "--n-max", "120")),
    Scenario("check-algebra", ("check-algebra", "--theta", "0.3", "--B", "1",
                               "--seed", "7")),
    Scenario("check-algebra-singular",
             ("check-algebra", "--theta", "0.5", "--B", "2")),
)

_REFUSALS = (
    # exit 2: malformed configuration
    Scenario("n-max-too-small", ("spectrum", "--n-max", "2")),
    Scenario("trajectory-direct-field", ("trajectory", "--B", "1")),
    Scenario("unknown-config-key", ("star",), config={"Theta": 0.1}),
    Scenario("bad-list-flag", ("trajectory", "--xi0", "1,a,0,0")),
    # exit 3: outside the domain of the route
    Scenario("sw-past-pole", ("sw", "--theta", "0.4", "--curlyB", "2.5")),
    Scenario("spectrum-zero-field-theta",
             ("spectrum", "--theta", "0.3", "--B", "0", "--n-max", "8")),
    Scenario("spectrum-zero-field",
             ("spectrum", "--theta", "0", "--B", "0", "--n-max", "8")),
    # kappa = 1 - theta e B = -0.2: the rep's coefficients would be complex
    Scenario("spectrum-negative-kappa",
             ("spectrum", "--theta", "0.3", "--B", "1", "--e", "4",
              "--n-max", "8")),
    Scenario("peierls-unresolved",
             ("peierls", "--B", "1e-3", "--n-max", "10")),
    Scenario("peierls-partly-polluted",
             ("peierls", "--B", "0.75", "--m", "1.5", "--lam", "0.05",
              "--k", "2", "--n-max", "8")),
    Scenario("spectrum-unresolved",
             ("spectrum", "--theta", "0.3", "--B", "1", "--n-max", "12",
              "--k", "40")),
    # exit 1: the output directory cannot be made
    Scenario("out-is-a-file", ("spectrum", "--theta", "0.3", "--n-max", "8",
                               "--k", "2"), out_is_file=True),
)

SCENARIOS = tuple(
    run._replace(name=f"{run.name}-{fmt}", argv=run.argv + ("--format", fmt))
    for run in _RUNS for fmt in ("csv", "json")
) + _REFUSALS


def run_scenario(scenario: Scenario, workdir: Path) -> dict:
    """Run one scenario under ``workdir``; the outputs land in
    ``workdir/out``.  Returns exit code and captured streams with the
    output directory written as OUT."""
    out = workdir / "out"
    argv = list(scenario.argv) + ["--out", str(out)]
    if scenario.config is not None:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(scenario.config))
        argv += ["--config", str(config_path)]
    if scenario.out_is_file:
        out.write_text("")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    written = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    return {
        "exit": code,
        "stdout": stdout.getvalue().replace(str(out), OUT),
        "stderr": stderr.getvalue().replace(str(out), OUT),
        "files": written,
    }


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_table(path: Path) -> dict:
    """Columns of a CSV or JSON result table, in file order."""
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    header, *rows = list(csv.reader(io.StringIO(text)))
    return {name: [_cell(row[i]) for row in rows]
            for i, name in enumerate(header)}


def _thin_step(rows: int) -> int:
    return max(1, math.ceil((rows - 1) / (MAX_ROWS - 1)))


def _normalized_manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    for key in ENVIRONMENT_VERSIONS:
        manifest["versions"].pop(key, None)
    return manifest


def float_scale(values: list) -> float:
    """The largest absolute value among the floats of a column."""
    return max((abs(v) for v in values if isinstance(v, float)), default=0.0)


def golden_columns(golden: Path, files: list):
    """(table file, column, golden values, abs_tol, allowance) of each golden
    table column: the allowance is twice the eigenvalue_error_bound in an
    eigenvalue column, else 0, and abs_tol max(allowance, RTOL * scale)."""
    bound = 0.0
    for name in files:
        if name.endswith("_manifest.json"):
            manifest = json.loads((golden / name).read_text())
            bound = manifest.get("eigenvalue_error_bound", 0.0)
    for name in files:
        if not name.endswith("_manifest.json"):
            for column, want in read_table(golden / name).items():
                allowance = 2.0 * bound if column in EIGENVALUE_COLUMNS \
                    else 0.0
                tol = max(RTOL * float_scale(want), allowance)
                yield name, column, want, tol, allowance


def assert_matches(got, want, where: str, abs_tol: float = 0.0) -> None:
    """Exact structure, keys, strings and ints; floats within RTOL."""
    if isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=abs_tol), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict), f"{where}: {got!r} is not an object"
        assert list(got) == list(want), f"{where}: keys {list(got)}"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}", abs_tol)
    elif isinstance(want, list):
        assert isinstance(got, list), f"{where}: {got!r} is not a list"
        assert len(got) == len(want), f"{where}: {len(got)} items"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]", abs_tol)
    else:
        assert type(got) is type(want) and got == want, \
            f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
def test_cli_matches_golden(scenario, tmp_path):
    golden = GOLDEN / scenario.name
    record = json.loads((golden / "run.json").read_text())
    result = run_scenario(scenario, tmp_path)
    for key in ("exit", "stdout", "stderr", "files"):
        assert result[key] == record[key], f"{scenario.name}: {key}"
    out = tmp_path / "out"
    got = {}
    for name in record["files"]:
        if name.endswith("_manifest.json"):
            want = _normalized_manifest(golden / name)
            manifest = _normalized_manifest(out / name)
            manifest["config"]["out"] = OUT
            assert_matches(manifest, want, name)
        else:
            got[name] = read_table(out / name)
            assert list(got[name]) == list(read_table(golden / name)), \
                f"{name}: header {list(got[name])}"
    for name, column, want, tol, _ in golden_columns(golden, record["files"]):
        rows, step = record["rows"][name]
        values = got[name][column]
        assert len(values) == rows, f"{name}.{column}: {len(values)} rows"
        assert_matches(values[::step], want, f"{name}.{column}", tol)


PLANTED = 1e-10     # the relative deviation every column must reject


def test_planted_deviation_is_rejected_in_every_float_column():
    """Each float cell of every golden table, moved by PLANTED times its
    column's float_scale (PLANTED itself in a column of zeros) past the
    column's eigenvalue allowance, fails the comparison; the unmoved golden
    passes it."""
    planted = 0
    for scenario in SCENARIOS:
        golden = GOLDEN / scenario.name
        files = json.loads((golden / "run.json").read_text())["files"]
        for name, column, want, tol, allowance in golden_columns(golden,
                                                                 files):
            where = f"{scenario.name}/{name}.{column}"
            assert_matches(list(want), want, where, tol)
            shift = PLANTED * (float_scale(want) or 1.0) + allowance
            for i, value in enumerate(want):
                if isinstance(value, float):
                    got = want[:i] + [value + shift] + want[i + 1:]
                    with pytest.raises(AssertionError):
                        assert_matches(got, want, f"{where}[{i}]", tol)
                    planted += 1
    assert planted > 0


def record_golden(scenario: Scenario) -> None:
    """Run a scenario and store its outputs as its golden record."""
    golden = GOLDEN / scenario.name
    shutil.rmtree(golden, ignore_errors=True)
    golden.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        result = run_scenario(scenario, Path(tmp))
        out = Path(tmp) / "out"
        result["rows"] = {}
        for name in result["files"]:
            text = (out / name).read_text()
            if name.endswith("_manifest.json"):
                text = text.replace(json.dumps(str(out)), json.dumps(OUT))
            else:
                rows = len(next(iter(read_table(out / name).values())))
                step = _thin_step(rows)
                result["rows"][name] = [rows, step]
                if step > 1 and name.endswith(".csv"):
                    header, *lines = text.splitlines(keepends=True)
                    text = header + "".join(lines[::step])
                elif step > 1:
                    table = json.loads(text)
                    text = json.dumps({k: v[::step] for k, v in table.items()},
                                      indent=2) + "\n"
            (golden / name).write_text(text)
    (golden / "run.json").write_text(
        json.dumps({"argv": list(scenario.argv), "config": scenario.config,
                    **result}, indent=2) + "\n")


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = set(names) - {scenario.name for scenario in SCENARIOS}
    if unknown:
        sys.exit(f"unknown scenarios: {', '.join(sorted(unknown))}")
    for scenario in SCENARIOS:
        if not names or scenario.name in names:
            record_golden(scenario)
            print(f"recorded {scenario.name}")
