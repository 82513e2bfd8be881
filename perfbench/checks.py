"""Closed forms and output checks, written apart from ncqmlab.

Every check compares a program output with a closed form or with a
computation made here (scipy's ``expm`` and ``solve_ivp``), never with a
stored copy of an earlier output.  A check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

# Relative tolerance on Landau level means.  The adapted basis realizes the
# levels to roundoff; the unit-scale basis converges geometrically in n_max
# and is held to a looser bound.
LEVEL_RTOL_ADAPTED = 1e-10
LEVEL_RTOL_UNIT = 2e-7
FREQUENCY_RTOL = 1e-6
ORBIT_ATOL = 1e-8
ENERGY_DRIFT = 1e-9
COEFFICIENT_ATOL = 1e-8
PROJECTOR_ATOL = 1e-10
PEIERLS_RTOL = 1e-9
JACOBI_ATOL = 1e-10


def compare(label: str, got, want, rtol: float = 0.0,
            atol: float = 0.0) -> list[str]:
    """One message if any |got - want| exceeds atol + rtol |want|."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != expected {want.shape}"]
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if got.size and (not np.all(np.isfinite(got)) or np.max(excess) > 0):
        worst = int(np.argmax(excess))
        return [f"{label}: got {got.flat[worst]!r}, expected "
                f"{want.flat[worst]!r} (rtol {rtol:g}, atol {atol:g})"]
    return []


def at_most(label: str, value: float, bound: float) -> list[str]:
    if not value <= bound:
        return [f"{label}: {value!r} exceeds {bound:g}"]
    return []


# --- Landau levels and the Peierls regime ------------------------------

def landau_levels(B: float, count: int, e: float = 1.0, m: float = 1.0,
                  hbar: float = 1.0, c: float = 1.0) -> np.ndarray:
    """E_n = hbar |e B| / (m c) (n + 1/2), independent of theta."""
    return hbar * abs(e * B) / (m * c) * (np.arange(count) + 0.5)


def check_levels(label: str, means, multiplicities, B: float,
                 rtol: float) -> list[str]:
    out = compare(f"{label} level means", means,
                  landau_levels(B, len(means)), rtol=rtol)
    if min(multiplicities, default=0) < 2:
        out.append(f"{label}: a reported level has multiplicity "
                   f"{min(multiplicities, default=0)} < 2")
    return out


def check_projectors(label: str, projectors, energies, B: float) -> list[str]:
    """Each P_n Hermitian and idempotent, P_n P_m = 0, energies E_n."""
    out = []
    for n, P in enumerate(projectors):
        out += at_most(f"{label} P_{n} Hermiticity defect",
                       float(np.max(np.abs(P - P.conj().T))), PROJECTOR_ATOL)
        out += at_most(f"{label} P_{n} idempotency defect",
                       float(np.max(np.abs(P @ P - P))), PROJECTOR_ATOL)
        for mth in range(n):
            out += at_most(f"{label} P_{n} P_{mth} overlap",
                           float(np.max(np.abs(P @ projectors[mth]))),
                           PROJECTOR_ATOL)
    out += compare(f"{label} level energies", energies,
                   landau_levels(B, len(energies)), rtol=LEVEL_RTOL_ADAPTED)
    return out


def commutator_coefficients(N: int, B: float, e: float = 1.0,
                            hbar: float = 1.0, c: float = 1.0) -> dict:
    """The closed truncated-commutator laws on the guiding interior."""
    want = {
        "coefficient_X1X2": -(hbar * c / (e * B)) * (N + 1),
        "coefficient_P1P2": -(hbar * e * B / (4.0 * c)) * (N + 1),
        "coefficient_X1P1": hbar * (1.0 - (N + 1) / 2.0),
        "coefficient_X2P2": hbar * (1.0 - (N + 1) / 2.0),
        "coefficient_X1P2": 0.0,
        "coefficient_X2P1": 0.0,
    }
    if N > 0:
        want["coefficient_X1P1_lower"] = hbar
        want["coefficient_X2P2_lower"] = hbar
    return want


def check_commutators(label: str, report: dict, N: int, B: float) -> list[str]:
    out = []
    for key, value in commutator_coefficients(N, B).items():
        if key not in report:
            out.append(f"{label}: report lacks {key}")
            continue
        out += compare(f"{label} {key}", report[key], value,
                       atol=COEFFICIENT_ATOL * max(1.0, abs(value)))
    return out


def check_sinc(label: str, sinc_matrix, projector, interior) -> list[str]:
    """The sinc selector equals P_n on the guiding-interior columns."""
    defect = float(np.max(np.abs((sinc_matrix - projector) @ interior)))
    return at_most(f"{label} sinc defect on interior columns", defect, 1e-8)


def two_frequency_levels(B: float, lam: float, c1: float, count: int,
                         e: float = 1.0, m: float = 1.0, hbar: float = 1.0,
                         c: float = 1.0) -> np.ndarray:
    """Lowest levels of Pi^2/2m + lam c1 r^2: two decoupled oscillators of
    frequencies Omega +- omega_B/2, Omega = sqrt(omega_B^2/4 + 2 lam c1/m)."""
    omega_B = abs(e * B) / (m * c)
    Omega = math.sqrt(omega_B ** 2 / 4.0 + 2.0 * lam * c1 / m)
    plus, minus = Omega + omega_B / 2.0, Omega - omega_B / 2.0
    ladder = sorted(hbar * (plus * (a + 0.5) + minus * (b + 0.5))
                    for a in range(count) for b in range(count))
    return np.array(ladder[:count])


def lowest_level_levels(B: float, lam: float, c1: float, count: int,
                        e: float = 1.0, hbar: float = 1.0,
                        c: float = 1.0) -> np.ndarray:
    """epsilon_n = 2 lam c1 (hbar c / |e B|) (n + 1) for V = c1 r^2 with
    anti-normal ordering on the lowest Landau level."""
    return 2.0 * lam * c1 * hbar * c / abs(e * B) * (np.arange(count) + 1.0)


def check_quadratic_peierls(label: str, full_E, epsilon, B: float,
                            lam: float, c1: float) -> list[str]:
    k = len(full_E)
    return (compare(f"{label} full_E_n", full_E,
                    two_frequency_levels(B, lam, c1, k), rtol=PEIERLS_RTOL)
            + compare(f"{label} epsilon_n", epsilon,
                      lowest_level_levels(B, lam, c1, k), rtol=PEIERLS_RTOL))


def check_deviation_shrinks(label: str, relative_weak: float,
                            relative_strong: float) -> list[str]:
    if not relative_strong < relative_weak:
        return [f"{label}: relative deviation {relative_strong!r} at the "
                f"stronger field is not below {relative_weak!r}"]
    return []


# --- classical orbits --------------------------------------------------

def standard_omega(theta: float, B: float) -> np.ndarray:
    """Standard structure in xi = (x1, x2, p1, p2) ordering."""
    return np.array([[0.0, theta, 1.0, 0.0],
                     [-theta, 0.0, 0.0, 1.0],
                     [-1.0, 0.0, 0.0, B],
                     [0.0, -1.0, -B, 0.0]])


def minimal_coupling_hessian(gauge: str, curlyB: float, e: float = 1.0,
                             c: float = 1.0, m: float = 1.0) -> np.ndarray:
    """S with H = xi^T S xi / 2 for H = (p - (e/c) A(x))^2 / 2m."""
    g = e * curlyB / c
    if gauge == "symmetric":      # A = (-B x2/2, B x1/2)
        L = np.array([[0.0, g / 2.0, 1.0, 0.0], [-g / 2.0, 0.0, 0.0, 1.0]])
    else:                         # A = (0, B x1)
        L = np.array([[0.0, 0.0, 1.0, 0.0], [-g, 0.0, 0.0, 1.0]])
    return L.T @ L / m


def gauge_frequency(gauge: str, curlyB: float, theta: float, e: float = 1.0,
                    c: float = 1.0, m: float = 1.0) -> float:
    """|F12|/m: a (1 + theta a / 4) in the symmetric gauge, a in the Landau
    gauge, with a = e curlyB / c."""
    a = e * curlyB / c
    F12 = a * (1.0 + 0.25 * theta * a) if gauge == "symmetric" else a
    return abs(F12) / m


def check_quadratic_orbit(label: str, times, states, velocities, energy,
                          theta: float, gauge: str, curlyB: float,
                          rows) -> list[str]:
    """States at the given rows equal expm(t Omega S) xi0; velocities equal
    the first two components of Omega S xi; energy is conserved."""
    A = standard_omega(theta, 0.0) @ minimal_coupling_hessian(gauge, curlyB)
    xi0 = np.asarray(states[0])
    out = []
    for i in rows:
        want = expm(times[i] * A) @ xi0
        out += compare(f"{label} state at t={times[i]:g}", states[i], want,
                       atol=ORBIT_ATOL * max(1.0, float(np.max(np.abs(xi0)))))
        out += compare(f"{label} velocity at t={times[i]:g}", velocities[i],
                       (A @ np.asarray(states[i]))[:2], rtol=1e-12,
                       atol=1e-12)
    scale = max(1.0, abs(float(energy[0])))
    out += at_most(f"{label} energy drift",
                   float(np.max(np.abs(np.asarray(energy) - energy[0]))),
                   ENERGY_DRIFT * scale)
    return out


def check_frequency(label: str, fitted: float, expected: float) -> list[str]:
    return compare(f"{label} fitted frequency", fitted, expected,
                   rtol=FREQUENCY_RTOL)


def quartic_trap(theta: float, B: float, omega0: float, lam: float):
    """(H, rhs) for H = p^2/2 + omega0^2 r^2/2 + lam r^4, standard structure."""
    Omega = standard_omega(theta, B)

    def H(xi):
        r2 = xi[0] ** 2 + xi[1] ** 2
        return 0.5 * (xi[2] ** 2 + xi[3] ** 2) + 0.5 * omega0 ** 2 * r2 \
            + lam * r2 ** 2

    def rhs(_t, xi):
        r2 = xi[0] ** 2 + xi[1] ** 2
        radial = omega0 ** 2 + 4.0 * lam * r2
        return Omega @ np.array([radial * xi[0], radial * xi[1],
                                 xi[2], xi[3]])

    return H, rhs


def exotic_trap(theta: float, b0: float, b1: float, b2: float):
    """(H, rhs) for H = (p^2 + r^2)/2 under the exotic structure with field
    B(x) = b0 + b1 x1 + b2 x2^2: Omega(x) = standard(theta, B(x)) / kappa(x),
    kappa(x) = 1 - theta B(x)."""

    def H(xi):
        return 0.5 * float(np.dot(xi, xi))

    def rhs(_t, xi):
        B = b0 + b1 * xi[0] + b2 * xi[1] ** 2
        return standard_omega(theta, B) @ xi / (1.0 - theta * B)

    return H, rhs


def check_general_orbit(label: str, times, states, energy, H, rhs,
                        rows) -> list[str]:
    """States at the given rows agree with DOP853 at tolerance 1e-12, and
    energy is conserved and equals H(xi0)."""
    t_eval = np.array([times[i] for i in rows])
    ref = solve_ivp(rhs, (0.0, float(times[-1])), np.asarray(states[0]),
                    method="DOP853", t_eval=t_eval, rtol=1e-12, atol=1e-12)
    out = []
    if not ref.success:
        return [f"{label}: reference integration failed: {ref.message}"]
    for col, i in enumerate(rows):
        out += compare(f"{label} state at t={times[i]:g}", states[i],
                       ref.y[:, col], atol=ORBIT_ATOL)
    out += compare(f"{label} initial energy", energy[0], H(states[0]),
                   atol=1e-12)
    scale = max(1.0, abs(float(energy[0])))
    out += at_most(f"{label} energy drift",
                   float(np.max(np.abs(np.asarray(energy) - energy[0]))),
                   ENERGY_DRIFT * scale)
    return out


def jacobi_standard(theta: float, dB1: float, dB2: float) -> np.ndarray:
    """Jacobi tensor of the standard structure with field B(x): totally
    antisymmetric, J^{x1 p1 p2} = theta d2B and J^{x2 p1 p2} = -theta d1B."""
    J = np.zeros((4, 4, 4))
    for x_index, value in ((0, theta * dB2), (1, -theta * dB1)):
        triple = (x_index, 2, 3)
        for perm in itertools.permutations(range(3)):
            inversions = sum(perm[a] > perm[b]
                             for a in range(3) for b in range(a + 1, 3))
            J[tuple(triple[p] for p in perm)] = (-1) ** inversions * value
    return J


def check_jacobi(label: str, tensor, expected) -> list[str]:
    return compare(f"{label} Jacobi tensor", tensor, expected,
                   atol=JACOBI_ATOL)


# --- CLI tables --------------------------------------------------------

def _number_or_text(values: list[str]) -> list:
    try:
        return [float(v) for v in values]
    except ValueError:
        return values


def parse_csv_table(text: str) -> dict:
    """Header row plus rows; numeric columns become floats."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return {name: _number_or_text([row[i] for row in body])
            for i, name in enumerate(header)}


def parse_json_table(text: str) -> dict:
    return {name: [float(v) if isinstance(v, (int, float)) else v
                   for v in values]
            for name, values in json.loads(text).items()}


def check_tables_equal(label: str, csv_table: dict,
                       json_table: dict) -> list[str]:
    if list(csv_table) != list(json_table):
        return [f"{label}: CSV columns {list(csv_table)} != JSON columns "
                f"{list(json_table)}"]
    for name in csv_table:
        if csv_table[name] != json_table[name]:
            return [f"{label}: column {name} differs between CSV and JSON"]
    return []
