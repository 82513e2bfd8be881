"""The four workloads.  Each has three parts:

- ``draw(rng)``: one pass's inputs, plain numbers drawn from the seed;
- ``run(inputs, ops, workdir)``: the timed pass, calling ncqmlab only
  through its public entry points, each call wrapped by ``ops.call``;
- ``check(inputs, outputs, first)``: the untimed checks against closed forms
  (see ``checks``), returning failure messages.

Basis sizes, step counts and orbit lengths are constants, so every pass does
the same work on fresh parameters.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ncqmlab import NCParams, cli
from ncqmlab.dynamics import (
    dominant_frequency,
    integrate,
    minimal_coupling_trajectory,
)
from ncqmlab.fock import (
    FockSpace,
    build_canonical_ops,
    dominant_clusters,
    kinetic_hamiltonian,
    realize_rep,
    spectrum,
    suggested_scale,
)
from ncqmlab.peierls import (
    adapted_space,
    landau_projectors,
    peierls_spectrum,
    projector_sinc,
    truncated_commutators,
)
from ncqmlab.polysymbol import p1, p2, x1, x2
from ncqmlab.reps import (
    symmetric_gauge_rep,
    symmetric_vector_potential,
    vector_potential_rep,
)
from ncqmlab.structures import (
    StructureKind,
    jacobi_residual,
    symplectic_matrix,
    symplectic_matrix_field,
)

import checks


class Ops:
    """Counts the operations of a run and times each one through a tracer.

    An operation is one call into ncqmlab.  It fails when it raises or when
    ``ok`` rejects its result; a failed operation returns None (or its
    rejected result) and the pass goes on.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, span: str, fn: Callable, ok: Callable | None = None):
        self.attempted += 1
        with self.tracer.span(span):
            try:
                result = fn()
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                result = None
                self._fail(span, f"{type(exc).__name__}: {exc}")
        if result is not None and ok is not None and not ok(result):
            self._fail(span, f"rejected result {result!r}")
        return result

    def peak(self, metric: str):
        return self.tracer.peak(metric)

    def _fail(self, span: str, message: str) -> None:
        self.failed += 1
        self.errors.append(f"{span}: {message}")


@dataclass(frozen=True)
class Workload:
    draw: Callable
    run: Callable
    check: Callable


def _u(rng, low: float, high: float) -> float:
    return float(rng.uniform(low, high))


def _vec(rng, low: float, high: float, size: int = 4) -> list:
    return [float(v) for v in rng.uniform(low, high, size)]


# --- landau-spectrum ---------------------------------------------------

# Bases realized at each size.  The unit-scale basis runs only at n_max=28:
# at n_max=20 `dominant_clusters` reports a drifted pair of ground-level
# copies as a second level for some fields (B near 1.55), on some seeds only.
SPECTRUM_BASES = {20: ("adapted",), 28: ("adapted", "unit")}
# Levels asked of each basis; the unit-scale basis resolves fewer.
SPECTRUM_LEVELS = {"adapted": 3, "unit": 2}


def draw_spectrum(rng) -> dict:
    return {"theta": _u(rng, 0.05, 0.3),
            "B_symmetric": _u(rng, 1.45, 1.85),
            "B_vector": _u(rng, 1.45, 1.85)}


def run_spectrum(inp: dict, ops: Ops, _workdir) -> dict:
    sym = NCParams(theta=inp["theta"], B=inp["B_symmetric"])
    vec = NCParams(theta=0.0, B=inp["B_vector"])
    reps = (("symmetric", sym, symmetric_gauge_rep(sym)),
            ("vector-potential", vec,
             vector_potential_rep(symmetric_vector_potential(vec.B), vec)))
    results = []
    for n_max, bases in SPECTRUM_BASES.items():
        for name, params, rep in reps:
            for basis in bases:
                scale = suggested_scale(rep) if basis == "adapted" else 1.0
                space = FockSpace(n_max, scale=scale)
                count = SPECTRUM_LEVELS[basis]
                with ops.peak("fock.realize_peak_mb"):
                    realized = ops.call("fock.realize",
                                        lambda: realize_rep(rep, space))
                    H = ops.call("fock.hamiltonian",
                                 lambda: kinetic_hamiltonian(realized,
                                                             params.m))
                with ops.peak("fock.spectrum_peak_mb"):
                    result = ops.call("fock.spectrum",
                                      lambda: spectrum(H, count))
                clusters = ops.call("fock.clusters",
                                    lambda: dominant_clusters(result, count))
                results.append((f"{name}/{basis}/n_max={n_max}", params.B,
                                basis, clusters))
    return {"results": results}


def check_spectrum(_inp: dict, out: dict, _first: bool) -> list[str]:
    failures = []
    for label, B, basis, clusters in out["results"]:
        if clusters is None:
            continue
        rtol = (checks.LEVEL_RTOL_ADAPTED if basis == "adapted"
                else checks.LEVEL_RTOL_UNIT)
        failures += checks.check_levels(
            label, [c.mean for c in clusters],
            [c.multiplicity for c in clusters], B, rtol)
    return failures


# --- landau-truncation -------------------------------------------------

TRUNCATION_N_MAX = 24
TRUNCATION_LEVELS = 2
PEIERLS_N_MAX = 20
PEIERLS_K = 3


def draw_truncation(rng) -> dict:
    weak = _u(rng, 8.0, 16.0)
    return {"B": _u(rng, 0.6, 2.0), "lam": _u(rng, 0.05, 0.2),
            "c_quadratic": _u(rng, 0.5, 1.5), "c_quartic": _u(rng, 0.5, 1.5),
            "B_weak": weak, "B_strong": weak * _u(rng, 3.0, 5.0)}


def run_truncation(inp: dict, ops: Ops, _workdir) -> dict:
    params = NCParams(theta=0.0, B=inp["B"])
    space = ops.call("peierls.adapted_space",
                     lambda: adapted_space(params, TRUNCATION_N_MAX))
    with ops.peak("peierls.projectors_peak_mb"):
        ps = ops.call("peierls.projectors",
                      lambda: landau_projectors(params, space,
                                                TRUNCATION_LEVELS))
    canon = ops.call("fock.canonical", lambda: build_canonical_ops(space))
    reports = []
    for N in range(TRUNCATION_LEVELS + 1):
        with ops.peak("peierls.commutators_peak_mb"):
            reports.append(ops.call(
                "peierls.commutators",
                lambda: truncated_commutators(ps, N, (canon.X1, canon.X2),
                                              (canon.P1, canon.P2), params)))
    H = ops.call("fock.hamiltonian",
                 lambda: kinetic_hamiltonian(ps.ops, params.m))
    sincs = [ops.call("peierls.sinc",
                      lambda: projector_sinc(H, n, ps.level_energies[n]))
             for n in range(TRUNCATION_LEVELS + 1)]
    r2 = x1() ** 2 + x2() ** 2
    traps = {"quadratic": inp["c_quadratic"] * r2,
             "quartic": inp["c_quartic"] * r2 * r2}
    peierls = {}
    for trap, V in traps.items():
        for field in ("B_weak", "B_strong"):
            strong = NCParams(theta=0.0, B=inp[field])
            peierls[trap, field] = ops.call(
                "peierls.spectrum",
                lambda: peierls_spectrum(V, inp["lam"], strong, PEIERLS_K,
                                         n_max=PEIERLS_N_MAX))
    return {"projectors": ps, "reports": reports, "sincs": sincs,
            "peierls": peierls}


def check_truncation(inp: dict, out: dict, _first: bool) -> list[str]:
    B = inp["B"]
    failures = []
    ps = out["projectors"]
    if ps is not None:
        failures += checks.check_projectors(
            "projectors", [P.matrix for P in ps.projectors],
            ps.level_energies, B)
    for N, report in enumerate(out["reports"]):
        if report is not None:
            failures += checks.check_commutators(f"commutators N={N}",
                                                 report, N, B)
    for n, sinc in enumerate(out["sincs"]):
        if sinc is not None and ps is not None:
            failures += checks.check_sinc(
                f"sinc n={n}", sinc.matrix, ps.projectors[n].matrix,
                ps.interior_columns(n))
    for field in ("B_weak", "B_strong"):
        result = out["peierls"]["quadratic", field]
        if result is not None:
            failures += checks.check_quadratic_peierls(
                f"quadratic trap at B={inp[field]:g}", result.full_E_n,
                result.epsilon_n, inp[field], inp["lam"], inp["c_quadratic"])
    weak = out["peierls"]["quartic", "B_weak"]
    strong = out["peierls"]["quartic", "B_strong"]
    if weak is not None and strong is not None:
        def relative(r):
            return abs(r.deviations()[0]) / r.epsilon_n[0]
        failures += checks.check_deviation_shrinks(
            "quartic trap", relative(weak), relative(strong))
    return failures


# --- classical-orbits --------------------------------------------------

ORBIT_T = 10.0
ORBIT_H = 1e-3
GENERAL_T = 3.0
JACOBI_POINTS = 10
GAUGES = ("symmetric", "landau")


def _draw_gauge_orbit(rng, gauge: str, curlyB_range: tuple,
                      theta_range: tuple) -> dict:
    """A minimally coupled orbit whose velocity starts at angle phi with
    |cos phi| >= 1/2, so v1(t) = |v| cos(omega t + phi) does not start at
    its mean: dominant_frequency fails on such signals (see CHANGES.md).
    Positions, speed and angle are drawn; the momenta are solved for."""
    theta, curlyB = _u(rng, *theta_range), _u(rng, *curlyB_range)
    x = _vec(rng, -0.5, 0.5, 2)
    speed = _u(rng, 0.5, 1.5)
    phi = _u(rng, -math.pi / 3, math.pi / 3) + math.pi * int(rng.integers(2))
    A = checks.standard_omega(theta, 0.0) \
        @ checks.minimal_coupling_hessian(gauge, curlyB)
    v0 = speed * np.array([math.cos(phi), math.sin(phi)])
    p = np.linalg.solve(A[:2, 2:], v0 - A[:2, :2] @ x)
    return {"theta": theta, "curlyB": curlyB,
            "xi0": x + [float(v) for v in p]}


def draw_orbits(rng) -> dict:
    gauges = {gauge: _draw_gauge_orbit(rng, gauge, (3.5, 5.0), (0.1, 0.4))
              for gauge in GAUGES}
    quartic = {"theta": _u(rng, 0.1, 0.4), "B": _u(rng, 0.5, 1.5),
               "omega0": _u(rng, 0.8, 1.2), "lam": _u(rng, 0.1, 0.4),
               "xi0": _vec(rng, -0.6, 0.6)}
    exotic = {"theta": _u(rng, 0.1, 0.3), "b0": _u(rng, 0.8, 1.2),
              "b1": _u(rng, -0.5, 0.5), "b2": _u(rng, -0.5, 0.5),
              "xi0": _vec(rng, -0.4, 0.4)}
    points = [_vec(rng, -0.5, 0.5) for _ in range(JACOBI_POINTS)]
    return {"gauges": gauges, "quartic": quartic, "exotic": exotic,
            "points": points}


def run_orbits(inp: dict, ops: Ops, _workdir) -> dict:
    quadratic = {}
    for gauge, g in inp["gauges"].items():
        params = NCParams(theta=g["theta"], B=0.0)
        traj = ops.call("dynamics.orbit_quadratic",
                        lambda: minimal_coupling_trajectory(
                            params, gauge, g["curlyB"], g["xi0"], ORBIT_T,
                            ORBIT_H))
        omega = ops.call("dynamics.fit", lambda: dominant_frequency(traj))
        quadratic[gauge] = (traj, omega)

    r2 = x1(4) ** 2 + x2(4) ** 2
    kinetic = 0.5 * (p1() ** 2 + p2() ** 2)
    q = inp["quartic"]
    trap = symplectic_matrix(NCParams(theta=q["theta"], B=q["B"]),
                             StructureKind.STANDARD)
    H_quartic = kinetic + 0.5 * q["omega0"] ** 2 * r2 + q["lam"] * r2 * r2
    quartic = ops.call("dynamics.orbit_general",
                       lambda: integrate(trap, H_quartic, q["xi0"],
                                         GENERAL_T, ORBIT_H))

    x = inp["exotic"]
    field = x["b0"] + x["b1"] * x1() + x["b2"] * x2() ** 2
    exotic = symplectic_matrix_field(x["theta"], field, StructureKind.EXOTIC)
    standard = symplectic_matrix_field(x["theta"], field,
                                       StructureKind.STANDARD)
    exotic_orbit = ops.call("dynamics.orbit_general",
                            lambda: integrate(exotic, kinetic + 0.5 * r2,
                                              x["xi0"], GENERAL_T, ORBIT_H))
    jacobi = [(pt,
               ops.call("structures.jacobi",
                        lambda: jacobi_residual(standard, pt)),
               ops.call("structures.jacobi",
                        lambda: jacobi_residual(exotic, pt)))
              for pt in inp["points"]]
    return {"quadratic": quadratic, "quartic": quartic,
            "exotic": exotic_orbit, "jacobi": jacobi}


def _sample_rows(n_rows: int) -> list:
    return sorted({0, n_rows // 4, n_rows // 2, 3 * n_rows // 4, n_rows - 1})


def check_orbits(inp: dict, out: dict, _first: bool) -> list[str]:
    failures = []
    for gauge, (traj, omega) in out["quadratic"].items():
        g = inp["gauges"][gauge]
        want = checks.gauge_frequency(gauge, g["curlyB"], g["theta"])
        if traj is not None:
            failures += checks.check_quadratic_orbit(
                f"{gauge} gauge", traj.times, traj.states, traj.velocities,
                traj.energy, g["theta"], gauge, g["curlyB"],
                _sample_rows(len(traj.times)))
            failures += checks.compare(f"{gauge} gauge predicted omega",
                                       traj.omega, want, rtol=1e-12)
        if omega is not None:
            failures += checks.check_frequency(f"{gauge} gauge", omega, want)

    q, x = inp["quartic"], inp["exotic"]
    for label, traj, (H, rhs) in (
            ("quartic trap", out["quartic"],
             checks.quartic_trap(q["theta"], q["B"], q["omega0"], q["lam"])),
            ("exotic structure", out["exotic"],
             checks.exotic_trap(x["theta"], x["b0"], x["b1"], x["b2"]))):
        if traj is not None:
            failures += checks.check_general_orbit(
                label, traj.times, traj.states, traj.energy, H, rhs,
                _sample_rows(len(traj.times)))

    zero = np.zeros((4, 4, 4))
    for pt, J_standard, J_exotic in out["jacobi"]:
        if J_standard is not None:
            want = checks.jacobi_standard(x["theta"], x["b1"],
                                          2.0 * x["b2"] * pt[1])
            failures += checks.check_jacobi("standard structure",
                                            J_standard, want)
        if J_exotic is not None:
            failures += checks.check_jacobi("exotic structure", J_exotic,
                                            zero)
    return failures


# --- cli-scenarios -----------------------------------------------------

CLI_COMMANDS = ("spectrum", "star", "sw", "trajectory", "peierls",
                "check-algebra")
FORMATS = ("csv", "json")
CLI_SPECTRUM_N_MAX = 26
CLI_PEIERLS_N_MAX = 22
CLI_LEVELS = 3
CLI_STAR_LEVELS = 5
TRAJECTORY_T = 6.0
TRAJECTORY_H = 1e-3
# Inputs the program should refuse with a domain error (exit 3).  Both fail
# on every run today, so they do not depend on the seed.
REFUSALS = (("spectrum", "--B=0", "--n-max=8"),
            ("peierls", "--B=1e-3", "--n-max=10"))


def draw_cli(rng) -> dict:
    return {
        "spectrum": {"theta": _u(rng, 0.05, 0.35), "B": _u(rng, 0.6, 1.6)},
        "star": {"theta": _u(rng, 0.1, 0.5), "B": _u(rng, 0.5, 2.0)},
        "sw": {"theta": _u(rng, 0.1, 0.4), "curlyB": _u(rng, 0.3, 1.5)},
        "trajectory": _draw_gauge_orbit(rng, "symmetric", (5.0, 6.0),
                                        (0.1, 0.25)),
        "peierls": {"B": _u(rng, 10.0, 40.0), "lam": _u(rng, 0.05, 0.2),
                    "c1": _u(rng, 0.5, 1.5)},
        "check-algebra": {"theta": _u(rng, 0.1, 0.5), "B": _u(rng, 0.5, 1.5),
                          "seed": int(rng.integers(0, 2**31))},
    }


def cli_argv(command: str, p: dict) -> list:
    """Flags for one command; floats travel as repr, so the CLI parses back
    exactly the numbers the checks use."""
    if command == "spectrum":
        flags = {"theta": p["theta"], "B": p["B"],
                 "n-max": CLI_SPECTRUM_N_MAX, "k": CLI_LEVELS}
    elif command == "star":
        flags = {"theta": p["theta"], "B": p["B"], "k": CLI_STAR_LEVELS}
    elif command == "sw":
        flags = {"theta": p["theta"], "curlyB": p["curlyB"],
                 "k": CLI_STAR_LEVELS}
    elif command == "trajectory":
        flags = {"theta": p["theta"], "B": 0.0, "curlyB": p["curlyB"],
                 "gauge": "symmetric", "T": TRAJECTORY_T, "h": TRAJECTORY_H,
                 "xi0": ",".join(repr(v) for v in p["xi0"])}
    elif command == "peierls":
        flags = {"B": p["B"], "lam": p["lam"], "potential": repr(p["c1"]),
                 "k": CLI_LEVELS, "n-max": CLI_PEIERLS_N_MAX}
    else:
        flags = {"theta": p["theta"], "B": p["B"], "seed": p["seed"]}
    return [command] + [f"--{key}={value!r}" if isinstance(value, float)
                        else f"--{key}={value}"
                        for key, value in flags.items()]


def run_cli(argv: list) -> tuple:
    """cli.main in-process with its output captured: (exit code, stderr)."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:     # argparse rejects its input this way
            code = exc.code
    return code, stderr.getvalue()


def _exits(code: int) -> Callable:
    return lambda result: result[0] == code


def run_cli_pass(inp: dict, ops: Ops, workdir: str) -> dict:
    argvs = {}
    for command in CLI_COMMANDS:
        base = cli_argv(command, inp[command])
        for fmt in FORMATS:
            argv = base + [f"--format={fmt}",
                           f"--out={os.path.join(workdir, fmt)}"]
            argvs[command, fmt] = argv
            ops.call(f"cli.{command}", lambda: run_cli(argv), ok=_exits(0))
    for refusal in REFUSALS:
        argv = list(refusal) + [f"--out={os.path.join(workdir, 'refusal')}"]
        ops.call("cli.refusal", lambda: run_cli(argv), ok=_exits(3))
    return {"argvs": argvs, "workdir": workdir}


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _cli_files(workdir: str, command: str, fmt: str) -> tuple:
    stem = command.replace("-", "_")
    folder = os.path.join(workdir, fmt)
    return (os.path.join(folder, f"{stem}.{fmt}"),
            os.path.join(folder, f"{stem}_manifest.json"))


def _check_command(command: str, p: dict, table: dict,
                   manifest: dict) -> list[str]:
    """One command's parsed table and manifest against closed forms."""
    c = checks
    label = f"cli {command}"
    if command == "spectrum":
        kap = 1.0 - p["B"] * p["theta"]
        root = math.sqrt(kap)
        scale = math.sqrt(abs(((1.0 + root) / 2.0)
                              / ((1.0 - root) / p["theta"])))
        return (c.check_levels(label, table["E_n"], table["multiplicity"],
                               p["B"], c.LEVEL_RTOL_ADAPTED)
                + c.compare(f"{label} kappa", manifest["kappa"], kap,
                            rtol=1e-12)
                + c.compare(f"{label} basis scale", manifest["basis_scale"],
                            scale, rtol=1e-9))
    if command == "star":
        u = p["theta"] * p["B"]
        bbar = (2.0 / p["theta"]) * (math.sqrt(1.0 + u) - 1.0)
        return (c.compare(f"{label} E_n", table["E_n"],
                          c.landau_levels(p["B"], CLI_STAR_LEVELS),
                          rtol=1e-12)
                + c.compare(f"{label} Bbar", manifest["Bbar"], bbar,
                            rtol=1e-9)
                + c.compare(f"{label} Lambda_bar", manifest["Lambda_bar"],
                            1.0 + 0.25 * p["theta"] * bbar, rtol=1e-9)
                + c.compare(f"{label} Lambda_bar*Bbar",
                            manifest["Lambda_bar_times_Bbar"], p["B"],
                            rtol=1e-12))
    if command == "sw":
        u = p["theta"] * p["curlyB"]
        bbar = (2.0 / p["theta"]) * (1.0 / math.sqrt(1.0 - u) - 1.0)
        return (c.compare(f"{label} E_n", table["E_n"],
                          c.landau_levels(p["curlyB"], CLI_STAR_LEVELS),
                          rtol=1e-12)
                + c.compare(f"{label} B_check", manifest["B_check"],
                            p["curlyB"] / (1.0 - u), rtol=1e-12)
                + c.compare(f"{label} m_check", manifest["m_check"],
                            1.0 / (1.0 - u), rtol=1e-12)
                + c.compare(f"{label} Bbar", manifest["Bbar"], bbar,
                            rtol=1e-9))
    if command == "trajectory":
        states = np.column_stack([table[k] for k in ("x1", "x2", "p1", "p2")])
        velocities = np.column_stack([table["v1"], table["v2"]])
        S = c.minimal_coupling_hessian("symmetric", p["curlyB"])
        energy = 0.5 * np.einsum("ni,ij,nj->n", states, S, states)
        times = np.asarray(table["t"])
        omega = c.gauge_frequency("symmetric", p["curlyB"], p["theta"])
        return (c.compare(f"{label} times", times,
                          TRAJECTORY_H * np.arange(len(times)), rtol=1e-12)
                + c.check_quadratic_orbit(
                    label, times, states, velocities, energy, p["theta"],
                    "symmetric", p["curlyB"], _sample_rows(len(times)))
                + c.compare(f"{label} F12", manifest["F12"], omega,
                            rtol=1e-12)
                + c.compare(f"{label} omega_predicted",
                            manifest["omega_predicted"], omega, rtol=1e-12)
                + c.check_frequency(label, manifest["omega_fitted"], omega)
                + c.at_most(f"{label} energy_drift", manifest["energy_drift"],
                            c.ENERGY_DRIFT * max(1.0, abs(energy[0]))))
    if command == "peierls":
        full = np.asarray(table["full_E_n"])
        eps = np.asarray(table["epsilon_n"])
        return (c.check_quadratic_peierls(label, full, eps, p["B"], p["lam"],
                                          p["c1"])
                + c.compare(f"{label} deviation", table["deviation"],
                            full - 0.5 * abs(p["B"]) - eps,
                            atol=1e-9 * abs(p["B"]))
                + c.compare(f"{label} omega_B", manifest["omega_B"],
                            abs(p["B"]), rtol=1e-12))
    names = ["kappa", "jacobi_standard", "landau_rep_residual",
             "jacobi_exotic", "symmetric_rep_residual"]
    if table["check"] != names:
        return [f"{label}: checks {table['check']} != {names}"]
    failures = c.compare(f"{label} kappa", table["value"][0],
                         1.0 - p["B"] * p["theta"], rtol=1e-12)
    for name, value in zip(names[1:], table["value"][1:]):
        failures += c.at_most(f"{label} {name}", abs(value), 1e-10)
    if any(status != "ok" for status in table["status"]):
        failures.append(f"{label}: statuses {table['status']}")
    return failures


def check_cli(inp: dict, out: dict, first: bool) -> list[str]:
    """Tables parsed back from both formats, checked against closed forms
    and against each other; on the first pass every command is run again
    and must write byte-identical files."""
    failures = []
    workdir = out["workdir"]
    for command in CLI_COMMANDS:
        tables, manifests = {}, {}
        for fmt in FORMATS:
            table_path, manifest_path = _cli_files(workdir, command, fmt)
            table, manifest = _read(table_path), _read(manifest_path)
            if table is None or manifest is None:
                continue      # the run failed and was counted as such
            parse = (checks.parse_csv_table if fmt == "csv"
                     else checks.parse_json_table)
            tables[fmt] = parse(table.decode())
            manifests[fmt] = manifest
            failures += _check_command(command, inp[command], tables[fmt],
                                       json.loads(manifest))
            if first:
                run_cli(out["argvs"][command, fmt])
                if (_read(table_path), _read(manifest_path)) != (table,
                                                                  manifest):
                    failures.append(f"cli {command} {fmt}: a repeated run "
                                    "wrote different bytes")
        if len(tables) == 2:
            failures += checks.check_tables_equal(
                f"cli {command}", tables["csv"], tables["json"])
    return failures


WORKLOADS = {
    "landau-spectrum": Workload(draw_spectrum, run_spectrum, check_spectrum),
    "landau-truncation": Workload(draw_truncation, run_truncation,
                                  check_truncation),
    "classical-orbits": Workload(draw_orbits, run_orbits, check_orbits),
    "cli-scenarios": Workload(draw_cli, run_cli_pass, check_cli),
}
