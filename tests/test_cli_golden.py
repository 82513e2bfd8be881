"""Golden outputs of the command line on a fixed scenario matrix.

Every scenario runs ``main`` in-process into a fresh directory.  Its exit
code, stdout, stderr, the list of files written, the result table and the
manifest are compared with the recording under ``tests/golden/<scenario>``:

- exit codes, stdout, stderr, table headers, row counts, strings, ints and
  manifest keys exactly, with the output directory written as ``<out>``;
- floats within RTOL relative; eigenvalue columns may also move by twice
  the manifest's ``eigenvalue_error_bound`` (a spread or a deviation is a
  difference of two eigenvalues);
- the numpy and python entries of ``versions`` describe the environment,
  not the program, and are not compared.

Tables longer than MAX_ROWS rows are stored thinned to every step-th row;
``run.json`` records the full row count and the step.

To re-record after a deliberate output change (state it in CHANGES.md):

    PYTHONPATH=src python tests/test_cli_golden.py
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
    Scenario("check-algebra", ("check-algebra", "--theta", "0.3", "--B", "1",
                               "--seed", "7")),
    Scenario("check-algebra-singular",
             ("check-algebra", "--theta", "0.5", "--B", "2")),
)

_REFUSALS = (
    # exit 2: malformed configuration
    Scenario("n-max-too-small", ("spectrum", "--n-max", "2")),
    Scenario("trajectory-direct-field", ("trajectory", "--B", "1")),
    Scenario("peierls-dense-limit", ("peierls", "--n-max", "120")),
    Scenario("unknown-config-key", ("star",), config={"Theta": 0.1}),
    Scenario("bad-list-flag", ("trajectory", "--xi0", "1,a,0,0")),
    # exit 3: outside the domain of the route
    Scenario("sw-past-pole", ("sw", "--theta", "0.4", "--curlyB", "2.5")),
    Scenario("spectrum-zero-field-theta",
             ("spectrum", "--theta", "0.3", "--B", "0", "--n-max", "8")),
    Scenario("spectrum-zero-field",
             ("spectrum", "--theta", "0", "--B", "0", "--n-max", "8")),
    Scenario("peierls-unresolved",
             ("peierls", "--B", "1e-3", "--n-max", "10")),
    Scenario("peierls-partly-polluted",
             ("peierls", "--B", "0.75", "--m", "1.5", "--lam", "0.05",
              "--k", "2", "--n-max", "12")),
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
    bound = 0.0
    for name in record["files"]:
        if name.endswith("_manifest.json"):
            want = _normalized_manifest(golden / name)
            got = _normalized_manifest(out / name)
            got["config"]["out"] = OUT
            assert_matches(got, want, name)
            bound = want.get("eigenvalue_error_bound", 0.0)
    for name in record["files"]:
        if name.endswith("_manifest.json"):
            continue
        want, got = read_table(golden / name), read_table(out / name)
        assert list(got) == list(want), f"{name}: header {list(got)}"
        rows, step = record["rows"][name]
        for column, values in got.items():
            assert len(values) == rows, f"{name}.{column}: {len(values)} rows"
            tol = 2.0 * bound if column in EIGENVALUE_COLUMNS else 0.0
            assert_matches(values[::step], want[column], f"{name}.{column}",
                           tol)


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
    for scenario in SCENARIOS:
        record_golden(scenario)
        print(f"recorded {scenario.name}")
    sys.exit(0)
