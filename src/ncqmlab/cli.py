"""Scenario runner: every computation in the package as a reproducible
command with structured config input and byte-stable tabular output.

Configuration comes from an optional JSON file (--config) overridden by
command-line flags; flags win.  Each run writes a result table (CSV or
JSON) plus a run manifest echoing the effective config, versions, and
residual diagnostics, all atomically (write to a temp name, then rename).

Exit codes: 0 success, 2 config error, 3 domain error, 1 internal failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, NCQMError
from .params import NCParams, kappa, is_singular


def _key(default, help_text, **meta):
    """One config key: its default and help, plus optional metadata that
    drives validation (minimum, choices, items naming a list's entries,
    length)."""
    return dataclasses.field(default=default,
                             metadata={"help": help_text, **meta})


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """The config table: every key with its default.  validate_config
    reports problems in field order.  Units put hbar = c = 1, so the
    charge e is the one coupling (see params)."""

    command: str
    theta: float = _key(0.0, "noncommutativity theta")
    B: float = _key(1.0, "magnetic field B of the phase-space structure")
    e: float = _key(1.0, "charge")
    m: float = _key(1.0, "mass")
    T: float = _key(30.0, "trajectory duration")
    h: float = _key(1e-3, "trajectory step")
    lam: float = _key(0.1, "potential strength for peierls")
    curlyB: float = _key(1.0, "field of the vector potential (sw, trajectory)")
    n_max: int = _key(30, "per-mode occupation cutoff", minimum=4)
    k: int = _key(5, "number of levels", minimum=1)
    seed: int = _key(0, "random seed of check-algebra's sample points",
                     minimum=0)
    gauge: str = _key("symmetric", "trajectory gauge",
                      choices=("symmetric", "landau"))
    prescription: str = _key("antinormal", "peierls ordering prescription",
                             choices=("weyl", "normal", "antinormal"))
    format: str = _key("csv", "table format", choices=("csv", "json"))
    potential: tuple = _key((1.0,), "radial coefficients c1,c2,... for "
                            "V = sum c_k r^(2k)", items="coefficients")
    xi0: tuple = _key((1.0, 0.0, 0.0, 0.0), "initial state x1,x2,p1,p2",
                      items="components", length=4)
    out: str = _key(".", "output directory")

    def params(self) -> NCParams:
        return NCParams(theta=self.theta, B=self.B, e=self.e, m=self.m)


KEYS = tuple(key for key in dataclasses.fields(ScenarioConfig)
             if key.name != "command")
_LIST_FLAGS = tuple("--" + key.name.replace("_", "-") for key in KEYS
                    if type(key.default) is tuple)
_NUMBER_NAMES = ("zero", "one", "two", "three", "four")


def _real(value) -> float:
    """float(value), refusing the JSON booleans that float() reads as 1
    and 0."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _validate_key(key: dataclasses.Field, value, errors: list):
    """The value of one key coerced to its type, appending any problem to
    ``errors`` (the default stands in for a value that cannot be read)."""
    name, meta, kind = key.name, key.metadata, type(key.default)
    if kind is float:
        try:
            value = _real(value)
        except (TypeError, ValueError):
            errors.append(f"{name} must be a number; got {value!r}")
            return 0.0
        if not np.isfinite(value):
            errors.append(f"{name} must be finite; got {value!r}")
        return value
    if kind is int:
        minimum = meta.get("minimum")
        if not isinstance(value, int) or isinstance(value, bool):
            try:
                whole = int(_real(value))
            except (TypeError, ValueError, OverflowError):
                whole = None
            if whole is None or whole != float(value):
                errors.append(f"{name} must be an integer; got {value!r}")
                return minimum
            value = whole
        if value < minimum:
            errors.append(f"{name} must be >= {minimum}; got {value}")
        return value
    if kind is tuple:
        try:
            items = tuple(_real(v) for v in value)
        except (TypeError, ValueError):
            errors.append(f"{name} must be a list of numbers; got {value!r}")
            items = key.default
        length = meta.get("length")
        if length is not None and len(items) != length:
            errors.append(f"{name} must have exactly "
                          f"{_NUMBER_NAMES[length]} {meta['items']}")
        if not all(np.isfinite(v) for v in items):
            errors.append(f"{name} {meta['items']} must be finite")
        return items
    choices = meta.get("choices")
    if choices:
        value = str(value).lower()
        if value not in choices:
            errors.append(f"{name} must be {', '.join(choices[:-1])} or "
                          f"{choices[-1]}; got {value!r}")
        return value
    return str(value)


def validate_config(raw: dict) -> ScenarioConfig:
    """Strict schema validation of a raw config mapping.

    Unknown keys are rejected; every numeric field must be finite.  Keys
    left out take their ScenarioConfig defaults.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    errors = [f"unknown key: {key!r}"
              for key in sorted(set(raw) - {"command"}
                                - {key.name for key in KEYS})]
    command = raw.get("command")
    if command not in COMMANDS:
        errors.append(
            f"command must be one of {', '.join(COMMANDS)}; got {command!r}"
        )
    values = {key.name: _validate_key(key, raw.get(key.name, key.default),
                                      errors)
              for key in KEYS}
    if values["h"] <= 0:
        errors.append("h must be positive")
    if values["T"] < values["h"]:
        errors.append("T must be at least one step h")
    if errors:
        raise ConfigError("; ".join(errors))
    return ScenarioConfig(command=command, **values)


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through path.tmp and a rename; on failure the
    temporary file is removed, if it was made, and NCQMError raised."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.remove(tmp)
        except OSError:
            pass    # never made, already gone, or not a file of ours
        raise NCQMError(f"failed writing {path}: {exc}") from exc


def _json_column(cells: list) -> str:
    """One column as ``json.dumps(..., indent=2)`` lays it out one level
    down, built by the C encoder: ``json`` uses it only without ``indent``,
    so the item separator carries the newline and indentation instead."""
    if not cells:
        return "[]"
    return "[\n    " + json.dumps(cells, separators=(",\n    ", ": "))[1:-1] \
        + "\n  ]"


def emit_table(columns: dict, fmt: str, path: str) -> str:
    """Write named equal-length arrays as CSV (header row, '.' decimals,
    newline-terminated; repr of each float, str of anything else) or JSON
    (flat object of arrays, the text of ``json.dumps(..., indent=2)``);
    byte-stable."""
    arrays = [np.asarray(column) for column in columns.values()]
    if len({len(values) for values in arrays}) > 1:
        raise NCQMError("table columns must have equal length")
    if any(values.ndim != 1 for values in arrays):
        raise NCQMError("table columns must be one-dimensional")
    cells = [values.tolist() for values in arrays]
    if fmt == "csv":
        rows = zip(*(map(repr if values.dtype.kind == "f" else str, column)
                     for values, column in zip(arrays, cells)))
        text = "\n".join([",".join(columns), *map(",".join, rows)]) + "\n"
    elif columns:
        text = "{\n  " + ",\n  ".join(
            f"{json.dumps(name)}: {_json_column(column)}"
            for name, column in zip(columns, cells)) + "\n}\n"
    else:
        text = "{}\n"
    _atomic_write(path, text)
    return path


def _write_manifest(config: ScenarioConfig, extra: dict, path: str) -> str:
    manifest = {
        "config": dataclasses.asdict(config),
        "versions": {
            "ncqmlab": __version__,
            "numpy": np.__version__,
            "python": "%d.%d" % sys.version_info[:2],
        },
    }
    manifest.update(extra)
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


# --- command implementations -------------------------------------------

def _run_spectrum(config: ScenarioConfig):
    from . import fock
    from .peierls import magnetic_rep

    params = config.params()
    rep = magnetic_rep(params)
    space = fock.FockSpace(config.n_max, scale=fock.suggested_scale(rep))
    ops = fock.realize_rep(rep, space)
    H = fock.kinetic_hamiltonian(ops, params.m)
    result = fock.spectrum(H, config.k)
    clusters = fock.dominant_clusters(result, config.k)
    columns = {
        "n": list(range(config.k)),
        "E_n": [c.mean for c in clusters],
        "multiplicity": [c.multiplicity for c in clusters],
        "spread": [c.spread for c in clusters],
    }
    extra = {
        "kappa": kappa(rep.params),
        "basis_scale": space.scale,
        "eigenvalue_error_bound": result.error_bound,
        "blocks": result.blocks,
    }
    return columns, extra


def _run_star(config: ScenarioConfig):
    from .star import bbar_of_B, star_landau_spectrum, \
        star_commutation_table, symmetric_star_gauge

    params = config.params()
    eff = bbar_of_B(params.B, params)
    result = star_landau_spectrum(params, eff.Bbar, config.k)
    table = star_commutation_table(symmetric_star_gauge(eff.Bbar, params.e),
                                   params.theta)
    columns = {
        "n": list(range(config.k)),
        "E_n": list(result),
    }
    extra = {
        "Bbar": eff.Bbar,
        "Lambda_bar": eff.Lambda_bar,
        "Lambda_bar_times_Bbar": eff.Lambda_bar * eff.Bbar,
        "m_star": eff.m_star,
        "e_star": eff.e_star,
        "field_strength_constant":
            table["field_strength"].eval((0.0, 0.0)).real,
        "jacobi_residual": table["jacobi_residual"],
    }
    return columns, extra


def _run_sw(config: ScenarioConfig):
    from .star import sw_constant_field

    params = config.params()
    eff, result = sw_constant_field(config.curlyB, params, config.k)
    columns = {
        "n": list(range(config.k)),
        "E_n": list(result),
    }
    extra = {
        "B_check": eff.B_check,
        "m_check": eff.m_check,
        "Bbar": eff.Bbar,
        "B_physical": eff.B_physical,
    }
    return columns, extra


def _run_trajectory(config: ScenarioConfig):
    from .dynamics import dominant_fit, minimal_coupling_trajectory

    traj = minimal_coupling_trajectory(config.params(), config.gauge,
                                       config.curlyB, config.xi0, config.T,
                                       config.h)
    columns = {
        "t": traj.times,
        "x1": traj.states[:, 0],
        "x2": traj.states[:, 1],
        "p1": traj.states[:, 2],
        "p2": traj.states[:, 3],
        "v1": traj.velocities[:, 0],
        "v2": traj.velocities[:, 1],
    }
    fit = dominant_fit(traj)
    extra = {
        "F12": traj.F12,
        "omega_predicted": traj.omega,
        "omega_step": traj.omega_step,
        "omega_fitted": fit.omega,
        "fit_residual_rms": fit.residual_rms,
        "fit_crossings": fit.n_crossings,
        "energy_drift": traj.energy_drift,
    }
    return columns, extra


def _run_peierls(config: ScenarioConfig):
    from .peierls import peierls_spectrum, radial_potential

    params = config.params()
    V = radial_potential(config.potential)
    result = peierls_spectrum(V, config.lam, params, config.k,
                              n_max=config.n_max,
                              prescription=config.prescription)
    columns = {
        "n": list(range(config.k)),
        "epsilon_n": list(result.epsilon_n),
        "full_E_n": list(result.full_E_n),
        "deviation": list(result.deviations()),
    }
    extra = {
        "omega_B": result.omega_B,
        "prescription": config.prescription,
        "potential": list(config.potential),
        "lam": config.lam,
        "eigenvalue_error_bound": result.error_bound,
        "blocks": result.blocks,
    }
    return columns, extra


# check-algebra passes a Jacobi tensor and a commutator-table residual no
# larger than these (largest entry).
JACOBI_LIMIT = 1e-10
TABLE_LIMIT = 1e-12


def _run_check_algebra(config: ScenarioConfig):
    from .reps import symmetric_gauge_rep, landau_gauge_rep, table_residual
    from .structures import symplectic_matrix, jacobi_residual, \
        StructureKind

    params = config.params()
    singular = is_singular(params)
    points = np.random.default_rng(config.seed).uniform(-1.0, 1.0, (10, 4))

    def jacobi_max(kind: StructureKind) -> float:
        structure = symplectic_matrix(params, kind)
        return max(float(np.max(np.abs(jacobi_residual(structure, pt))))
                   for pt in points)

    # (check, value, limit); the kappa row has no limit and reads
    # "singular" at kappa = 0
    rows = [("kappa", kappa(params), None),
            ("jacobi_standard", jacobi_max(StructureKind.STANDARD),
             JACOBI_LIMIT),
            ("landau_rep_residual", table_residual(landau_gauge_rep(params)),
             TABLE_LIMIT)]
    warnings = []
    if singular:
        warnings.append(
            "kappa = 0: singular (degenerate) noncommutative phase space; "
            "exotic structure undefined, representations not invertible"
        )
    else:
        rows.append(("jacobi_exotic", jacobi_max(StructureKind.EXOTIC),
                     JACOBI_LIMIT))
    if kappa(params) >= 0:
        rows.append(("symmetric_rep_residual",
                     table_residual(symmetric_gauge_rep(params)),
                     TABLE_LIMIT))
    checks, values, limits = zip(*rows)
    statuses = [("singular" if singular else "ok") if limit is None
                else "ok" if value <= limit else "fail"
                for value, limit in zip(values, limits)]
    columns = {"check": checks, "value": values, "status": statuses}
    extra = {"warnings": warnings, "seed": config.seed,
             "kappa": kappa(params), "singular": singular}
    return columns, extra


_RUNNERS = {
    "spectrum": _run_spectrum,
    "star": _run_star,
    "sw": _run_sw,
    "trajectory": _run_trajectory,
    "peierls": _run_peierls,
    "check-algebra": _run_check_algebra,
}
COMMANDS = tuple(_RUNNERS)


def run_scenario(config: ScenarioConfig) -> dict:
    """Execute one scenario; returns the output paths and diagnostics.

    A table with per-check statuses (check-algebra) is written in full,
    then any row whose status is ``fail`` raises NCQMError (exit 1)
    naming the failed checks.
    """
    columns, extra = _RUNNERS[config.command](config)
    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        raise NCQMError(f"failed making {config.out}: {exc}") from exc
    stem = config.command.replace("-", "_")
    table_path = os.path.join(config.out, f"{stem}.{config.format}")
    manifest_path = os.path.join(config.out, f"{stem}_manifest.json")
    emit_table(columns, config.format, table_path)
    _write_manifest(config, extra, manifest_path)
    for warning in extra.get("warnings", ()):
        print(f"warning: {warning}", file=sys.stderr)
    failed = [check for check, status in zip(columns.get("check", ()),
                                             columns.get("status", ()))
              if status == "fail"]
    if failed:
        raise NCQMError(f"{config.command} wrote {table_path}; failed "
                        f"checks: {', '.join(failed)}")
    return {"table": table_path, "manifest": manifest_path, **extra}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: the command, --config and a flag for
    each key of the config table (n_max as --n-max).  Every flag is read
    as text; validate_config checks its type and choice as it checks a
    config file."""
    parser = argparse.ArgumentParser(
        prog="ncqmlab",
        description="noncommutative quantum mechanics laboratory",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of config keys; flags win")
    for key in KEYS:
        choices = key.metadata.get("choices")
        parser.add_argument(
            "--" + key.name.replace("_", "-"), default=None,
            metavar="{%s}" % ",".join(choices) if choices else None,
            help=f"{key.metadata['help']} (default {key.default!r})")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") \
            from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return raw


def _parse_list(text: str, key: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{key} must be a comma-separated number list: "
                          f"{text!r}") from exc


def merge_cli(args: argparse.Namespace) -> ScenarioConfig:
    """Config file (if given) overridden by explicit flags; flags win."""
    raw = {}
    if args.config:
        raw.update(_load_config_file(args.config))
    raw["command"] = args.command
    for key in KEYS:
        value = getattr(args, key.name)
        if value is not None:
            raw[key.name] = (_parse_list(value, key.name)
                             if type(key.default) is tuple else value)
    return validate_config(raw)


def join_list_values(argv) -> list:
    """argv with ``--xi0 -1,0,0,0`` joined to ``--xi0=-1,0,0,0`` for each
    list flag: argparse takes a separate ``-1,...`` for an option."""
    joined = []
    for token in argv:
        if (joined and joined[-1] in _LIST_FLAGS and token.startswith("-")
                and not token.startswith("--")):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main reads every command line with."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(join_list_values(
        sys.argv[1:] if argv is None else argv))
    try:
        config = merge_cli(args)
        result = run_scenario(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except NCQMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print(f"wrote {result['table']} and {result['manifest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
