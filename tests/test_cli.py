"""Tests for the scenario-runner command line interface.

The contract under test: strict config validation with itemized error
messages (exit 2), domain failures mapped to exit 3, internal failures to
exit 1; flags override config-file values; every run writes a result
table (CSV or JSON) plus a JSON manifest; tabular output is byte-stable.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ncqmlab import cli
from ncqmlab.cli import (
    COMMANDS,
    KEYS,
    build_parser,
    emit_table,
    main,
    merge_cli,
    validate_config,
)
from ncqmlab.errors import ConfigError, NCQMError
from ncqmlab.peierls import radial_coefficients, radial_potential
from ncqmlab.polysymbol import x1, x2


class TestValidateConfig:
    def test_minimal_config_fills_defaults(self):
        config = validate_config({"command": "spectrum"})
        assert config.command == "spectrum"
        assert config.theta == 0.0
        assert config.B == 1.0
        assert config.n_max == 30
        assert config.k == 5
        assert config.gauge == "symmetric"
        assert config.prescription == "antinormal"
        assert config.format == "csv"
        assert config.xi0 == (1.0, 0.0, 0.0, 0.0)
        assert config.potential == (1.0,)

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigError, match="unknown key: 'Theta'"):
            validate_config({"command": "spectrum", "Theta": 0.1})

    def test_missing_command_rejected(self):
        with pytest.raises(ConfigError, match="command must be one of"):
            validate_config({"theta": 0.1})

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError, match="command must be one of"):
            validate_config({"command": "spectra"})

    def test_errors_are_itemized(self):
        # one message listing every problem, not just the first
        with pytest.raises(ConfigError) as err:
            validate_config({
                "command": "spectrum", "bogus": 1, "gauge": "radial",
                "h": 0.0,
            })
        message = str(err.value)
        assert "unknown key: 'bogus'" in message
        assert "gauge must be symmetric or landau" in message
        assert "h must be positive" in message

    def test_numeric_strings_are_coerced(self):
        config = validate_config({"command": "star", "theta": "0.25"})
        assert config.theta == 0.25

    def test_non_numeric_field_rejected(self):
        with pytest.raises(ConfigError, match="theta must be a number"):
            validate_config({"command": "star", "theta": "abc"})

    def test_non_finite_field_rejected(self):
        with pytest.raises(ConfigError, match="B must be finite"):
            validate_config({"command": "star", "B": math.inf})

    def test_integer_bounds(self):
        with pytest.raises(ConfigError, match="n_max must be >= 4"):
            validate_config({"command": "spectrum", "n_max": 2})
        with pytest.raises(ConfigError, match="k must be >= 1"):
            validate_config({"command": "spectrum", "k": 0})
        with pytest.raises(ConfigError, match="unknown key: 'N'"):
            validate_config({"command": "peierls", "N": -1})

    def test_fractional_integer_rejected(self):
        # int() of inf or nan raises; they must still read as config errors
        for value in (10.5, math.inf, math.nan, "ten"):
            with pytest.raises(ConfigError, match="n_max must be an integer"):
                validate_config({"command": "spectrum", "n_max": value})

    def test_json_booleans_are_not_numbers(self, tmp_path, capsys):
        # float() and int() read true and false as 1 and 0
        with pytest.raises(ConfigError,
                           match=r"xi0 must be a list of numbers; got \[True"):
            validate_config({"command": "trajectory",
                             "xi0": [True, 0.0, 0.0, 0.0]})
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"k": True, "theta": False}))
        assert main(["star", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: theta must be a number; got False" in err
        assert "k must be an integer; got True" in err

    def test_whole_float_accepted_as_integer(self):
        config = validate_config({"command": "spectrum", "n_max": 12.0})
        assert config.n_max == 12

    def test_enums_case_insensitive(self):
        config = validate_config({
            "command": "peierls", "gauge": "Landau", "format": "JSON",
            "prescription": "WEYL",
        })
        assert config.gauge == "landau"
        assert config.format == "json"
        assert config.prescription == "weyl"

    def test_bad_enums_rejected(self):
        for key, value, match in (
            ("gauge", "radial", "gauge must be symmetric or landau"),
            ("format", "xml", "format must be csv or json"),
            ("prescription", "wick", "prescription must be weyl"),
        ):
            with pytest.raises(ConfigError, match=match):
                validate_config({"command": "spectrum", key: value})

    def test_potential_must_be_numeric_list(self):
        with pytest.raises(ConfigError, match="potential must be a list"):
            validate_config({"command": "peierls", "potential": "r^2"})
        with pytest.raises(ConfigError, match="potential coefficients"):
            validate_config({"command": "peierls",
                             "potential": [1.0, math.nan]})

    def test_xi0_shape_and_values(self):
        with pytest.raises(ConfigError, match="exactly four components"):
            validate_config({"command": "trajectory", "xi0": [1, 0, 0]})
        with pytest.raises(ConfigError, match="xi0 must be a list"):
            validate_config({"command": "trajectory", "xi0": "origin"})

    def test_step_size_constraints(self):
        with pytest.raises(ConfigError, match="h must be positive"):
            validate_config({"command": "trajectory", "h": -1e-3})
        with pytest.raises(ConfigError, match="T must be at least one step"):
            validate_config({"command": "trajectory", "T": 1e-4, "h": 1e-3})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError, match="must be a JSON object"):
            validate_config(["spectrum"])

    def test_params_roundtrip(self):
        config = validate_config({
            "command": "spectrum", "theta": 0.3, "B": 2.0, "e": 1.5,
            "m": 0.5,
        })
        params = config.params()
        assert (params.theta, params.B, params.e, params.m) == \
            (0.3, 2.0, 1.5, 0.5)


class TestRadialPotential:
    def test_single_coefficient_is_r_squared(self):
        V = radial_potential((1.0,))
        assert V.allclose(x1() ** 2 + x2() ** 2)

    def test_two_coefficients(self):
        V = radial_potential((0.5, 2.0))
        r2 = x1() ** 2 + x2() ** 2
        assert V.allclose(0.5 * r2 + 2.0 * r2 ** 2)
        assert V.degree == 4

    def test_zero_coefficients_skipped(self):
        assert radial_potential((0.0,)).is_zero
        V = radial_potential((0.0, 1.0))
        assert V.allclose((x1() ** 2 + x2() ** 2) ** 2)

    @pytest.mark.parametrize("c", [(1.0,), (0.5, 2.0), (0.0, 1.0),
                                   (-0.3, 0.0, 0.25)])
    def test_radial_coefficients_read_back_the_trap(self, c):
        assert radial_coefficients(radial_potential(c)) == [0.0, *c]


class TestEmitTable:
    COLUMNS = {"n": [0, 1, 2], "E_n": [0.5, 1.5, 2.4999999999999996]}

    def test_csv_layout_and_precision(self, tmp_path):
        path = str(tmp_path / "t.csv")
        emit_table(self.COLUMNS, "csv", path)
        text = (tmp_path / "t.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "n,E_n"
        assert text.endswith("\n")
        # floats are written via repr: round-trips exactly
        value = lines[3].split(",")[1]
        assert float(value) == 2.4999999999999996

    def test_csv_byte_stable(self, tmp_path):
        path_a = str(tmp_path / "a.csv")
        path_b = str(tmp_path / "b.csv")
        emit_table(self.COLUMNS, "csv", path_a)
        emit_table(self.COLUMNS, "csv", path_b)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_json_preserves_column_order(self, tmp_path):
        path = str(tmp_path / "t.json")
        emit_table(self.COLUMNS, "json", path)
        loaded = json.loads((tmp_path / "t.json").read_text())
        assert list(loaded) == ["n", "E_n"]
        assert loaded["E_n"][1] == 1.5

    def test_numpy_arrays_accepted(self, tmp_path):
        path = str(tmp_path / "t.json")
        emit_table({"v": np.arange(3.0)}, "json", path)
        assert json.loads((tmp_path / "t.json").read_text())["v"] == \
            [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("columns", [
        {"n": [0, 1, -7, 2 ** 62]},
        {"x": [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1]},
        {"s": ['say "hi"', "back\\slash", "θ ≥ 0", "tab\tand\nline", "é"]},
        {"empty": []},
        {"a": [], "b": []},
        {},
        {"n": np.arange(3), "E_n": np.array([0.5, math.nan, -0.0]),
         "label": np.array(["a", 'b"c', "ü"]), "ok": [True, False, True]},
    ], ids=["int", "float", "str", "empty-column", "empty-columns",
            "no-columns", "mixed"])
    def test_json_is_the_indent_2_dump(self, tmp_path, columns):
        # the JSON text is assembled per column by the C encoder; it must
        # be exactly what the pure-Python indent=2 encoder writes
        path = tmp_path / "t.json"
        emit_table(columns, "json", str(path))
        want = json.dumps({name: np.asarray(column).tolist()
                           for name, column in columns.items()}, indent=2)
        assert path.read_text(encoding="utf-8") == want + "\n"

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(NCQMError, match="equal length"):
            emit_table({"a": [1], "b": [1, 2]}, "csv",
                       str(tmp_path / "t.csv"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nested_columns_rejected(self, tmp_path, fmt):
        with pytest.raises(NCQMError, match="one-dimensional"):
            emit_table({"a": [[1, 2], [3, 4]]}, fmt,
                       str(tmp_path / f"t.{fmt}"))

    def test_no_stale_temp_file_left(self, tmp_path):
        emit_table(self.COLUMNS, "csv", str(tmp_path / "t.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


class TestMergeCli:
    def test_flags_override_config_file(self, tmp_path):
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"theta": 0.5, "k": 3}))
        parser_args = [
            "spectrum", "--config", str(config_path), "--theta", "0.2",
        ]
        config = merge_cli(build_parser().parse_args(parser_args))
        assert config.theta == 0.2    # flag wins
        assert config.k == 3          # file survives where no flag given
        assert config.n_max == 30     # defaults fill the rest

    def test_missing_config_file(self):
        args = build_parser().parse_args(
            ["spectrum", "--config", "/nonexistent/run.json"])
        with pytest.raises(ConfigError, match="config file not found"):
            merge_cli(args)

    def test_invalid_json_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        args = build_parser().parse_args(
            ["spectrum", "--config", str(bad)])
        with pytest.raises(ConfigError, match="not valid JSON"):
            merge_cli(args)

    def test_list_flags_parsed(self):
        args = build_parser().parse_args([
            "trajectory", "--xi0", "1,0,0.5,0", "--potential", "0.1,0.05",
        ])
        config = merge_cli(args)
        assert config.xi0 == (1.0, 0.0, 0.5, 0.0)
        assert config.potential == (0.1, 0.05)

    @pytest.mark.parametrize("flag, value", [("--xi0", "-1,0,0,0"),
                                             ("--potential", "-0.5,1")])
    def test_negative_list_flag_reads_as_the_equals_form(self, flag, value):
        def config(argv):
            return merge_cli(build_parser().parse_args(
                cli.join_list_values(["trajectory", *argv, "--theta", "-1"])))

        spaced = config([flag, value])
        assert spaced == config([f"{flag}={value}"])
        assert getattr(spaced, flag[2:])[0] == float(value.split(",")[0])
        assert spaced.theta == -1.0

    @pytest.mark.parametrize("flag, value", [("--theta", "-2e-1"),
                                             ("--B", "-1e-7"),
                                             ("--B", "-1.5")])
    def test_negative_number_flag_reads_as_the_equals_form(self, tmp_path,
                                                           flag, value):
        # argparse takes -2e-1 for an option unless it is joined to its flag
        def written(argv, out):
            assert main(["spectrum", *argv, "--n-max", "8", "--k", "2",
                         "--out", str(out)]) == 0
            return (out / "spectrum.csv").read_bytes()

        assert written([flag, value], tmp_path / "spaced") == \
            written([f"{flag}={value}"], tmp_path / "joined")

    def test_bad_list_flag(self):
        args = build_parser().parse_args(["trajectory", "--xi0", "1,a,0,0"])
        with pytest.raises(ConfigError, match="comma-separated number list"):
            merge_cli(args)

    def test_number_flag_reads_as_the_config_file_does(self, tmp_path,
                                                       capsys):
        # the config table is the one type check of a number flag
        def n_max(argv):
            try:
                return merge_cli(build_parser().parse_args(argv)).n_max
            except ConfigError as exc:
                return str(exc).split("; got")[0]

        config_path = tmp_path / "run.json"
        for text, expected in (("1e2", 100),
                               ("2.5", "n_max must be an integer")):
            config_path.write_text(json.dumps({"n_max": float(text)}))
            assert n_max(["spectrum", "--n-max", text]) == expected
            assert n_max(["spectrum", "--config", str(config_path)]) == \
                expected
        assert main(["spectrum", "--n-max", "2.5",
                     "--out", str(tmp_path)]) == 2
        assert "config error: n_max must be an integer; got '2.5'" in \
            capsys.readouterr().err


class TestMainExitCodes:
    def test_config_error_exits_2(self, tmp_path, capsys):
        code = main(["spectrum", "--n-max", "2", "--out", str(tmp_path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_domain_error_exits_3(self, tmp_path, capsys):
        # the constant-field map is undefined past its pole
        code = main(["sw", "--theta", "0.4", "--curlyB", "2.5",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "domain error" in capsys.readouterr().err

    def test_internal_failure_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        code = main(["spectrum", "--theta", "0.3", "--n-max", "8",
                     "--k", "2", "--out", str(blocker)])
        assert code == 1

    def test_failed_write_leaves_no_temp_file(self, tmp_path, capsys):
        # the rename onto a directory fails after the temporary file is made
        (tmp_path / "spectrum.csv").mkdir()
        code = main(["spectrum", "--theta", "0.3", "--n-max", "8",
                     "--k", "2", "--out", str(tmp_path)])
        assert code == 1
        assert "Is a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spectrum.csv"]

    @pytest.mark.parametrize("argv", [
        pytest.param(["spectrum", "--theta", "0.3", "--B", "0",
                      "--n-max", "8"], id="0.3"),
        pytest.param(["spectrum", "--theta", "0", "--B", "0",
                      "--n-max", "8"], id="0"),
        pytest.param(["spectrum", "--theta", "0", "--B", "1", "--e", "0"],
                     id="spectrum-e0"),
        pytest.param(["peierls", "--B", "20", "--e", "0", "--n-max", "12"],
                     id="peierls-e0"),
        pytest.param(["star", "--B", "0"], id="star-B0"),
        pytest.param(["sw", "--curlyB", "0"], id="sw-curlyB0"),
    ])
    def test_spectrum_refuses_zero_field(self, tmp_path, capsys, argv):
        # e B = 0 is a continuous spectrum: any "levels" would be artefacts
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 3
        assert "no Landau structure" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, where", [
        (["peierls", "--B", "1e-3", "--n-max", "10"], "n_max = 10"),
        (["spectrum", "--theta", "0.3", "--B", "1", "--n-max", "12",
          "--k", "40"], "need 40"),
    ])
    def test_unresolved_basis_exits_3(self, tmp_path, capsys, argv, where):
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "domain error" in err
        assert where in err and "raise n_max" in err

    @pytest.mark.parametrize("k", ["1", "5"])
    def test_peierls_refuses_levels_outside_the_basis(self, tmp_path,
                                                      capsys, k):
        # lam V dips to its lowest near g = 498, far past the interior of
        # the default n_max = 30 basis, whatever k asks for
        code = main(["peierls", "--B", "20", "--potential=-1,0.01",
                     "--k", k, "--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"domain error: the lowest levels of lam V (k = {k})" in err
        assert "outside the interior of n_max = 30" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, named", [
        (["peierls", "--B", "20", "--lam", "-0.1"],
         "lam = -0.1 and c_1 = 1.0"),
        (["peierls", "--B", "20", "--potential", "1,-0.5"],
         "lam = 0.1 and c_2 = -0.5"),
    ])
    def test_peierls_refuses_potential_unbounded_below(self, tmp_path,
                                                        capsys, argv, named):
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "domain error: lam V is unbounded below" in err
        assert named in err
        assert not list(tmp_path.iterdir())

    def test_failed_check_exits_1_after_writing(self, tmp_path, capsys,
                                                monkeypatch):
        import ncqmlab.reps
        monkeypatch.setattr(ncqmlab.reps, "table_residual",
                            lambda rep: 1e-3)
        code = main(["check-algebra", "--theta", "0.3", "--B", "1.0",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "landau_rep_residual" in err
        assert "symmetric_rep_residual" in err
        assert "jacobi_standard" not in err
        table = (tmp_path / "check_algebra.csv").read_text()
        assert "landau_rep_residual,0.001,fail" in table
        assert (tmp_path / "check_algebra_manifest.json").exists()

    def test_trajectory_rejects_direct_field(self, tmp_path, capsys):
        code = main(["trajectory", "--B", "1.0", "--out", str(tmp_path)])
        assert code == 2
        assert "curlyB" in capsys.readouterr().err

    def test_bad_choice_flag_is_a_config_error(self, tmp_path, capsys):
        # the config table checks a choice flag, not argparse: no SystemExit
        code = main(["trajectory", "--B", "0", "--gauge", "x",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "config error: gauge must be symmetric or landau" in \
            capsys.readouterr().err


class TestMainRuns:
    def test_spectrum_run_writes_table_and_manifest(self, tmp_path, capsys):
        code = main([
            "spectrum", "--theta", "0.3", "--B", "1.0", "--n-max", "10",
            "--k", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "spectrum.csv" in out
        table = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert table[0] == "n,E_n,multiplicity,spread"
        assert len(table) == 3
        manifest = json.loads(
            (tmp_path / "spectrum_manifest.json").read_text())
        assert manifest["config"]["command"] == "spectrum"
        assert manifest["config"]["theta"] == 0.3
        assert manifest["kappa"] == pytest.approx(0.7)
        assert set(manifest["versions"]) == {"ncqmlab", "numpy", "python"}
        # adapted basis: one block per shell of equal n1 + n2
        assert manifest["blocks"] == 2 * 10 + 1
        assert 0.0 <= manifest["eigenvalue_error_bound"] <= 1e-12

    def test_spectrum_at_n_max_120(self, tmp_path):
        # dim 14641: sparse operators, one dense block per shell
        code = main(["spectrum", "--B", "1.5", "--m", "2.0", "--n-max",
                     "120", "--k", "3", "--format", "json",
                     "--out", str(tmp_path)])
        assert code == 0
        table = json.loads((tmp_path / "spectrum.json").read_text())
        np.testing.assert_allclose(table["E_n"],
                                   (1.5 / 2.0) * (np.arange(3) + 0.5),
                                   rtol=1e-9)
        manifest = json.loads(
            (tmp_path / "spectrum_manifest.json").read_text())
        assert manifest["blocks"] == 2 * 120 + 1

    def test_star_run_json(self, tmp_path):
        code = main([
            "star", "--theta", "0.2", "--B", "1.0", "--k", "3",
            "--format", "json", "--out", str(tmp_path),
        ])
        assert code == 0
        table = json.loads((tmp_path / "star.json").read_text())
        # the disentangled spectrum reproduces |B|(n + 1/2)
        np.testing.assert_allclose(table["E_n"], [0.5, 1.5, 2.5],
                                   rtol=0, atol=1e-12)
        manifest = json.loads((tmp_path / "star_manifest.json").read_text())
        assert manifest["Lambda_bar_times_Bbar"] == pytest.approx(
            1.0, abs=1e-14)
        assert manifest["jacobi_residual"] <= 1e-12

    def test_sw_run(self, tmp_path):
        code = main([
            "sw", "--theta", "0.4", "--curlyB", "0.5", "--k", "2",
            "--format", "json", "--out", str(tmp_path),
        ])
        assert code == 0
        table = json.loads((tmp_path / "sw.json").read_text())
        np.testing.assert_allclose(table["E_n"], [0.25, 0.75],
                                   rtol=0, atol=1e-12)
        manifest = json.loads((tmp_path / "sw_manifest.json").read_text())
        assert manifest["B_check"] == pytest.approx(0.625)

    def test_trajectory_run(self, tmp_path):
        code = main([
            "trajectory", "--theta", "0.25", "--B", "0", "--curlyB", "2.0",
            "--gauge", "symmetric", "--T", "16", "--h", "0.005",
            "--xi0", "1,0,0,0", "--out", str(tmp_path),
        ])
        assert code == 0
        manifest = json.loads(
            (tmp_path / "trajectory_manifest.json").read_text())
        assert manifest["omega_predicted"] == pytest.approx(2.25)
        assert manifest["omega_fitted"] == pytest.approx(2.25, rel=1e-3)
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,p1,p2,v1,v2"

    def test_peierls_run(self, tmp_path):
        code = main([
            "peierls", "--B", "50", "--lam", "0.1", "--k", "2",
            "--n-max", "12", "--format", "json", "--out", str(tmp_path),
        ])
        assert code == 0
        table = json.loads((tmp_path / "peierls.json").read_text())
        np.testing.assert_allclose(table["epsilon_n"], [0.004, 0.008],
                                   rtol=0, atol=1e-12)
        assert max(abs(d) for d in table["deviation"]) < 1e-5
        manifest = json.loads(
            (tmp_path / "peierls_manifest.json").read_text())
        assert manifest["omega_B"] == pytest.approx(50.0)
        # one block per angular momentum l = g - n in [-12, 12]
        assert manifest["blocks"] == 2 * 12 + 1
        assert manifest["eigenvalue_error_bound"] == 0.0

    def test_check_algebra_regular(self, tmp_path):
        # the second point has kappa = 1 - theta B = 1.1e-16: tiny, not 0
        for B in ("1.0", "3.333333333333333"):
            out = tmp_path / B
            code = main([
                "check-algebra", "--theta", "0.3", "--B", B, "--seed", "7",
                "--format", "json", "--out", str(out),
            ])
            assert code == 0
            table = json.loads((out / "check_algebra.json").read_text())
            assert "jacobi_exotic" in table["check"]
            assert "symmetric_rep_residual" in table["check"]
            assert all(s == "ok" for s in table["status"])
            manifest = json.loads(
                (out / "check_algebra_manifest.json").read_text())
            assert manifest["singular"] is False

    def test_check_algebra_singular_warns_but_succeeds(self, tmp_path,
                                                       capsys):
        code = main([
            "check-algebra", "--theta", "0.5", "--B", "2.0",
            "--format", "json", "--out", str(tmp_path),
        ])
        assert code == 0
        assert "kappa = 0" in capsys.readouterr().err
        table = json.loads((tmp_path / "check_algebra.json").read_text())
        assert "jacobi_exotic" not in table["check"]
        assert table["status"][table["check"].index("kappa")] == "singular"
        # the symmetric-gauge rep exists at kappa = 0, with det = 0
        assert table["value"][table["check"].index(
            "symmetric_rep_residual")] == 0.0
        manifest = json.loads(
            (tmp_path / "check_algebra_manifest.json").read_text())
        assert manifest["singular"] is True

    def test_byte_stable_across_runs(self, tmp_path):
        args = ["spectrum", "--theta", "0.3", "--n-max", "8", "--k", "2"]
        main(args + ["--out", str(tmp_path / "one")])
        main(args + ["--out", str(tmp_path / "two")])
        assert (tmp_path / "one" / "spectrum.csv").read_bytes() == \
            (tmp_path / "two" / "spectrum.csv").read_bytes()


class TestUnits:
    """hbar = c = 1 in every route, so the charge e is the one coupling: at
    theta = 0 the Fock spectrum, the star route and the constant-field
    Seiberg-Witten route all give E_n = |e B|/m (n + 1/2)."""

    @staticmethod
    def energies(tmp_path, argv) -> list:
        out = tmp_path / argv[0]
        assert main(argv + ["--format", "json", "--out", str(out)]) == 0
        return json.loads((out / f"{argv[0]}.json").read_text())["E_n"]

    @pytest.mark.parametrize("e", [0.5, 2.0])
    @pytest.mark.parametrize("m", [0.5, 1.5])
    def test_routes_agree_at_theta_zero(self, tmp_path, e, m):
        B = 1.5
        omega_B = abs(e * B) / m
        units = ["--theta", "0", "--e", str(e), "--m", str(m), "--k", "3"]
        closed = [omega_B * (n + 0.5) for n in range(3)]
        for argv in (["spectrum", "--B", str(B), "--n-max", "10"],
                     ["star", "--B", str(B)],
                     ["sw", "--curlyB", str(B)]):
            got = self.energies(tmp_path, argv + units)
            assert got == pytest.approx(closed, rel=1e-9, abs=0.0), argv[0]
        out = tmp_path / "peierls"
        assert main(["peierls", "--B", str(B), "--lam", "0.05", "--k", "2",
                     "--n-max", "16", "--out", str(out)] + units[2:6]) == 0
        manifest = json.loads((out / "peierls_manifest.json").read_text())
        assert manifest["omega_B"] == pytest.approx(omega_B, rel=1e-15)

    def test_star_field_strength_carries_the_charge(self, tmp_path):
        out = tmp_path / "star"
        assert main(["star", "--theta", "0.3", "--B", "1.5", "--e", "2",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "star_manifest.json").read_text())
        assert manifest["field_strength_constant"] == pytest.approx(1.5)

    def test_sw_carries_the_charge(self, tmp_path):
        got = self.energies(tmp_path, ["sw", "--theta", "0.4", "--curlyB",
                                       "0.5", "--e", "2", "--k", "2"])
        assert got == pytest.approx([0.5, 1.5], rel=1e-12)


class TestConfigTable:
    # one non-default value per config key
    NON_DEFAULT = {
        "theta": 0.3, "B": 1.5, "e": 2.0, "m": 0.5, "T": 20.0, "h": 0.002,
        "lam": 0.2, "curlyB": 2.0, "n_max": 12, "k": 3, "seed": 7, "gauge": "landau", "prescription": "weyl",
        "format": "json", "potential": [0.5, 0.25],
        "xi0": [0.0, 1.0, 0.0, 0.5],
    }
    @staticmethod
    def flag(key: str, value) -> list:
        text = (",".join(map(str, value)) if isinstance(value, list)
                else str(value))
        return ["--" + key.replace("_", "-"), text]

    def test_flags_are_the_flagged_keys(self):
        assert set(self.NON_DEFAULT) | {"out"} == {key.name for key in KEYS}
        parser = build_parser()
        for command in COMMANDS:
            for key, value in {**self.NON_DEFAULT, "out": "x"}.items():
                argv = [command] + self.flag(key, value)
                assert getattr(parser.parse_args(argv), key) is not None

    def test_every_key_round_trips_into_the_manifest(self, tmp_path):
        for key in KEYS:
            assert self.NON_DEFAULT.get(key.name) != key.default, key.name
        argv = ["check-algebra", "--out", str(tmp_path / "out")]
        for key, value in self.NON_DEFAULT.items():
            argv += self.flag(key, value)
        assert main(argv) == 0
        manifest = json.loads(
            (tmp_path / "out" / "check_algebra_manifest.json").read_text())
        assert manifest["config"] == {
            **self.NON_DEFAULT, "command": "check-algebra",
            "out": str(tmp_path / "out")}

    def test_choice_flags_are_case_insensitive(self, tmp_path):
        out = tmp_path / "out"
        assert main(["star", "--format", "JSON", "--out", str(out)]) == 0
        manifest = json.loads((out / "star_manifest.json").read_text())
        assert manifest["config"]["format"] == "json"
        assert sorted(p.name for p in out.iterdir()) == [
            "star.json", "star_manifest.json"]

    def test_main_builds_one_parser_per_process(self, tmp_path, monkeypatch,
                                                capsys):
        built = []

        def counted():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for fmt in ("csv", "json"):
                assert main(["star", "--format", fmt,
                             "--out", str(tmp_path / fmt)]) == 0
            with pytest.raises(SystemExit):
                main(["--help"])
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        # build_parser still makes a fresh parser, with the same help
        assert build_parser() is not build_parser()
        assert capsys.readouterr().out.endswith(build_parser().format_help())

    def test_help_lists_the_choices(self):
        text = build_parser().format_help()
        for choices in ("{symmetric,landau}", "{weyl,normal,antinormal}",
                        "{csv,json}"):
            assert choices in text

    def test_removed_option_n_is_unknown(self, tmp_path, capsys):
        # N, hbar and c are no options: units put hbar = c = 1
        config_path = tmp_path / "run.json"
        for key in ("N", "hbar", "c"):
            with pytest.raises(SystemExit) as exc:
                main(["peierls", "--" + key, "2", "--out", str(tmp_path)])
            assert exc.value.code == 2
            config_path.write_text(json.dumps({key: 2}))
            code = main(["peierls", "--config", str(config_path),
                         "--out", str(tmp_path)])
            assert code == 2
            assert f"unknown key: {key!r}" in capsys.readouterr().err

    def test_readme_table_lists_every_key_and_flag(self):
        readme = Path(__file__).parent.parent / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        start = lines.index("| key | flag | default | meaning |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            rows.append(tuple(cell.strip().strip("`")
                              for cell in line.strip("|").split("|")[:2]))
        assert rows == [(key.name, "--" + key.name.replace("_", "-"))
                        for key in KEYS]


# The public scipy packages each command loads: only the sparse Fock
# matrices need scipy, so the closed-form routes and the classical flow
# load none of it.
_SCIPY_PACKAGES = {
    ("star", "--theta", "0.3", "--B", "1"): [],
    ("sw", "--theta", "0.3", "--curlyB", "0.5"): [],
    ("check-algebra", "--theta", "0.3"): [],
    ("trajectory", "--B", "0", "--theta", "0.25", "--curlyB", "2"): [],
    ("spectrum", "--theta", "0.3", "--n-max", "10", "--k", "3"):
        ["scipy", "scipy.sparse"],
    ("peierls", "--B", "20", "--n-max", "12", "--k", "2"):
        ["scipy", "scipy.sparse"],
}


@pytest.mark.parametrize("argv,packages", _SCIPY_PACKAGES.items(),
                         ids=[argv[0] for argv in _SCIPY_PACKAGES])
def test_command_loads_only_the_scipy_it_needs(tmp_path, argv, packages):
    code = (
        "import json, sys\n"
        "from ncqmlab import cli\n"
        "assert cli.main(json.loads(sys.argv[1])) == 0\n"
        "print(json.dumps(sorted(\n"
        "    name for name, module in sys.modules.items()\n"
        "    if name.split('.')[0] == 'scipy' and hasattr(module, '__path__')\n"
        "    and not any(part.startswith('_') for part in name.split('.')))))\n"
    )
    src = str(Path(cli.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code,
         json.dumps(list(argv) + ["--out", str(tmp_path)])],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert json.loads(out.stdout.splitlines()[-1]) == packages
