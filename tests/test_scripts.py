"""Smoke tests of the scripts/ studies: each main() on tiny inputs writes
its table with the documented columns.  The scenario digest must print the
same lines on every run, with no temporary path in them."""

import csv
import importlib.util
import tempfile
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, argv, columns, rows", [
    pytest.param(
        "gauge_frequency_study",
        ["--thetas", "0.1", "--T", "16", "--h", "2e-3"],
        ["theta", "gauge", "F12", "omega_predicted", "omega_fitted",
         "energy_drift"], 2, id="gauge_frequency_study"),
    pytest.param(
        "peierls_strong_field", ["--fields", "10", "--n-max", "12", "--k", "2"],
        ["B", "n", "epsilon_n", "full_E_n", "deviation", "relative"], 2,
        id="peierls_strong_field"),
    pytest.param(
        "spectrum_convergence", ["--n-max-list", "12"],
        ["theta", "n_max", "E0_adapted", "E1_adapted", "E2_adapted",
         "E0_error_adapted", "E0_error_unit"], 2, id="spectrum_convergence"),
])
def test_script_writes_its_table(tmp_path, name, argv, columns, rows):
    assert load_script(name).main(argv + ["--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{name}.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == columns
    assert len(table) == rows + 1
    assert all(len(row) == len(columns) for row in table[1:])


def test_scenario_digest_is_stable_and_path_free(capsys):
    digest = load_script("scenario_digest")
    names = ["star-csv", "star-json", "n-max-too-small", "out-is-a-file"]
    assert digest.main(names) == 0
    first = capsys.readouterr().out
    # a second run writes into other temporary directories, same bytes
    assert digest.main(names) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert [line for line in lines if line.startswith("== ")] == \
        [f"== {name}" for name in names]
    assert [line for line in lines if line.startswith("exit ")] == \
        ["exit 0", "exit 0", "exit 2", "exit 1"]
    files = [line.split() for line in lines if line.startswith("file ")]
    assert [name for _, name, _ in files] == [
        "star.csv", "star_manifest.json", "star.json", "star_manifest.json"]
    assert all(len(sha) == 64 and int(sha, 16) >= 0 for _, _, sha in files)
    assert "<out>" in first and tempfile.gettempdir() not in first


def test_scenario_digest_refuses_unknown_names(capsys):
    assert load_script("scenario_digest").main(["no-such-scenario"]) == 2
    assert "no-such-scenario" in capsys.readouterr().err
