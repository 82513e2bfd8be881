"""Classical dynamics: fixed-step RK4 integration of xi' = Omega(xi) grad H,
minimally coupled trajectories in the two standard gauges, and sub-grid
frequency extraction.

``integrate`` compiles the flow numerators sum_j entries_ij d_jH, the
structure denominator and H once into a ``MonomialTable``.  An affine flow
(every numerator of degree <= 1 over a constant denominator) is stepped by
the RK4 step matrix R(hA): for a linear ODE one RK4 step is exactly that
product.  It is not the exact propagator expm(hA), so the trajectory and
its energy drift are RK4's, and so is ``omega_step``, the frequency it
steps at.  About 2 sqrt(n) small products with blocked powers of R(hA)
carry an n-step orbit in strides of sqrt(n) steps, and one product fills
in every state; this agrees with one product per step within n * 1e-15
of the states' size.  Any other flow runs the RK4 stages on plain
floats in one generated loop, with the flow rows' straight-line code
written out in all four stages; its coefficients are arguments, so each
flow shape is compiled once per process, and its states have the bits of
one call of the table's ``scalar()`` function per stage.  Velocities and
energy come from that function on the columns of all states at once; a
state or energy that is not finite means the orbit diverged, and is
refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (ArityMismatch, ConfigError, InsufficientData,
                     SingularStructure, StepTooLarge)
from .params import NCParams
from .polysymbol import MonomialTable, PolySymbol, compiled, p1, p2
from .reps import landau_vector_potential, symmetric_vector_potential
from .structures import PoissonStructure, StructureKind, symplectic_matrix


class Gauge(str, Enum):
    SYMMETRIC = "symmetric"
    LANDAU = "landau"


@dataclass(frozen=True)
class Trajectory:
    """A fixed-step phase-space trajectory xi(t) = (x1, x2, p1, p2).

    ``velocities`` are the exact flow velocities (the first two components
    of Omega grad H evaluated along the trajectory), not finite differences.
    """

    times: np.ndarray          # (n,)
    states: np.ndarray         # (n, 4)
    velocities: np.ndarray     # (n, 2)
    h: float
    energy: np.ndarray         # (n,) H along the trajectory
    F12: float | None = None   # effective field strength, when applicable
    omega: float | None = None  # |F12|/m, when applicable
    omega_step: float | None = None  # max |arg eig R(hA)| / h, if affine

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if self.h <= 0:
            raise ValueError("step must be positive")
        for arr in (self.times, self.states, self.velocities, self.energy):
            arr.setflags(write=False)

    @property
    def energy_drift(self) -> float:
        return float(np.max(np.abs(self.energy - self.energy[0])))


# Rows of the compiled flow table: the numerators of xi' (0-3), the
# structure denominator and the energy.
_DEN, _ENERGY = 4, 5


def _flow_table(s: PoissonStructure, H: PolySymbol) -> MonomialTable:
    """Compile xi'_i = sum_j entries_ij d_jH / den and H into one table.

    The gradient and the energy are read as real parts; a structure entry
    that is not real is refused, as the flow would not be real.
    """
    if H.arity != 4:
        raise ArityMismatch("Hamiltonian must be an arity-4 symbol")
    if not all(entry.is_real for row in s.entries for entry in row):
        raise ValueError("structure entries must evaluate real")
    grad = [H.diff(j).real() for j in range(4)]
    numerators = [sum((row[j] * grad[j] for j in range(4)),
                      PolySymbol.zero(4)) for row in s.entries]
    return MonomialTable(numerators + [s.denominator, H.real()])


def _affine_step(table: MonomialTable, h: float) -> np.ndarray | None:
    """The RK4 step matrix R(hA) on (xi, 1), when the flow is affine.

    For xi' = A xi + b with constant A and b, one RK4 step is exactly
    multiplication by the stability polynomial R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24 of the augmented matrix [[A, b], [0, 0]].  Returns None
    when a numerator has degree above 1 or the denominator is not constant.
    """
    degree = table.exponents.sum(axis=1)
    flow, den = table.coeffs[:_DEN], table.coeffs[_DEN]
    if flow[:, degree > 1].any() or den[degree > 0].any():
        return None
    hA = np.zeros((5, 5))
    hA[:4, :4] = h * flow[:, degree == 1] @ table.exponents[degree == 1]
    hA[:4, 4] = h * flow[:, degree == 0].sum(axis=1)
    hA /= den.sum()
    step = np.eye(5)
    for k in (4, 3, 2, 1):
        step = np.eye(5) + (hA / k) @ step
    return step


def _affine_states(step: np.ndarray, xi0: np.ndarray,
                   n_steps: int) -> np.ndarray:
    """The n_steps + 1 states of the affine orbit from xi0 under the step
    matrix R: with w = isqrt(n_steps), state w j + i is R^i c_j, where
    c_0 = (xi0, 1) and c_j = R^w c_{j-1}."""
    w = math.isqrt(n_steps)
    powers = np.empty((w + 1, 5, 5))
    powers[0] = np.eye(5)
    for i in range(w):
        np.dot(step, powers[i], out=powers[i + 1])
    carries = np.empty((n_steps // w + 1, 5))
    carries[0] = np.append(xi0, 1.0)
    for j in range(1, len(carries)):
        np.dot(powers[w], carries[j - 1], out=carries[j])
    # row j of the product holds the states R^i c_j for i < w, in turn
    states = np.dot(carries, powers[:w, :4].reshape(4 * w, 5).T)
    return states.reshape(-1, 4)[:n_steps + 1]


# the state the generated RK4 loop carries, and the point each stage
# evaluates the flow at
_STATE = ("a", "b", "c", "d")
_STAGE = ("v0", "v1", "v2", "v3")


def _rk4_loop(table: MonomialTable) -> Callable[..., list]:
    """loop(a, b, c, d, h, n): the components of the n + 1 states of the
    RK4 orbit from (a, b, c, d), in one flat list.

    The flow rows' straight-line code is written out in each of the four
    stages, so a step makes no call and builds no tuple but its state's.
    A denominator row of exactly 1.0 is neither tested nor divided by, as
    x / 1.0 == x.  The coefficients are the defaults of the trailing
    parameters, so each flow shape is compiled once per process.
    """
    # the stages read the flow rows only; the energy row is read in bulk
    lines, rows, coefficients = table[:_ENERGY].straight_line(_STAGE)
    *numerators, den = rows
    point = ", ".join(_STAGE)
    state = ", ".join(_STATE)
    body = ["half = 0.5 * h", "sixth = h / 6.0", f"out = [{state}]",
            "for _ in range(n):"]
    for stage, step in enumerate(("", "half", "half", "h"), start=1):
        body += [f"    {v} = {x} + {step} * k{stage - 1}{i}" if step
                 else f"    {v} = {x}"
                 for i, (v, x) in enumerate(zip(_STAGE, _STATE))]
        body += [f"    {line}" for line in lines]
        if den == "1.0":
            body += [f"    k{stage}{i} = {row}"
                     for i, row in enumerate(numerators)]
            continue
        body += [f"    den = {den}",
                 "    if den == 0:",
                 "        raise SingularStructure(",
                 f"            f'structure singular at point {{({point})}}')"]
        body += [f"    k{stage}{i} = ({row}) / den"
                 for i, row in enumerate(numerators)]
    body += [f"    {x} += sixth * (k1{i} + 2.0 * k2{i} + 2.0 * k3{i} + k4{i})"
             for i, x in enumerate(_STATE)]
    body += [f"    out += ({state})", "return out"]
    parameters = [*_STATE, "h", "n",
                  *(f"c{k}" for k in range(len(coefficients)))]
    source = "\n".join([f"def loop({', '.join(parameters)}):",
                        *(f"    {line}" for line in body)])
    return compiled(source, "loop", tuple(coefficients),
                    {"SingularStructure": SingularStructure})


def _rk4_states(table: MonomialTable, xi0: np.ndarray, h: float,
                n_steps: int) -> np.ndarray:
    """The n_steps + 1 states of the fixed-step RK4 orbit from xi0."""
    out = _rk4_loop(table)(*map(float, xi0), float(h), n_steps)
    return np.array(out).reshape(n_steps + 1, 4)


def _require_finite(times: np.ndarray, finite: np.ndarray) -> None:
    """StepTooLarge at the first time a state or energy is not finite: the
    orbit diverged, and a NaN drift would pass any bound."""
    if not finite.all():
        raise StepTooLarge(
            f"orbit diverged to a non-finite value at "
            f"t = {times[np.argmin(finite)]:.6g}; reduce h")


# the bound on |H(t) - H(0)|, scaled by max(1, |H(0)|), past which an orbit
# is refused; integrate reads it when called
MAX_ENERGY_DRIFT = 1e-6


def integrate(s: PoissonStructure, H: PolySymbol, xi0, T: float,
              h: float) -> Trajectory:
    """Explicit fixed-step RK4 on xi' = Omega(xi) grad H(xi), with the flow
    compiled once per call (see the module docstring).

    ``MAX_ENERGY_DRIFT`` guards the result: if |H(t) - H(0)| ever exceeds
    it (scaled by max(1, |H(0)|)), the step was too coarse for this
    problem and StepTooLarge is raised.  A state or energy that is not
    finite raises StepTooLarge whatever the bound.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    if T < h:
        raise ValueError("total time T must be at least one step")
    xi0 = np.asarray(xi0, dtype=float)
    if xi0.shape != (4,) or not np.isfinite(xi0).all():
        raise ValueError(
            "xi0 must have four finite components (x1, x2, p1, p2)")
    table = _flow_table(s, H)
    n_steps = int(round(T / h))
    step = _affine_step(table, h)
    if step is None:
        states, omega_step = _rk4_states(table, xi0, h, n_steps), None
    else:
        states = _affine_states(step, xi0, n_steps)
        eigenvalues = np.linalg.eigvals(step[:4, :4])
        omega_step = float(np.max(np.abs(np.angle(eigenvalues)))) / h

    times = h * np.arange(n_steps + 1)
    _require_finite(times, np.isfinite(states).all(axis=1))
    values = table(states)
    _require_finite(times, np.isfinite(values[:, _ENERGY]))
    if not np.all(values[:, _DEN]):
        raise SingularStructure("structure singular on the trajectory")
    velocities = values[:, :2] / values[:, _DEN, None]
    energy = values[:, _ENERGY]
    drift = np.max(np.abs(energy - energy[0]))
    scale = max(1.0, abs(energy[0]))
    if drift > MAX_ENERGY_DRIFT * scale:
        raise StepTooLarge(
            f"energy drift {drift:.3e} exceeds bound "
            f"{MAX_ENERGY_DRIFT * scale:.3e}; reduce h"
        )
    return Trajectory(times, states, velocities, h, energy,
                      omega_step=omega_step)


def gauge_potential(gauge: Gauge, curlyB: float) -> tuple:
    """The two standard vector potentials with curl = curlyB."""
    if Gauge(gauge) is Gauge.SYMMETRIC:
        return symmetric_vector_potential(curlyB)
    return landau_vector_potential(curlyB)


def effective_field_strength(gauge: Gauge, curlyB: float, theta: float,
                             coupling: float = 1.0) -> float:
    """The gauge-dependent classical field strength F12 of the deformed
    brackets: a(1 + theta a/4) in the symmetric gauge and a in the Landau
    gauge, with a = coupling * curlyB."""
    a = coupling * curlyB
    if Gauge(gauge) is Gauge.SYMMETRIC:
        return a * (1.0 + 0.25 * theta * a)
    return a


def minimal_coupling_trajectory(params: NCParams, gauge: Gauge,
                                curlyB: float, xi0, T: float,
                                h: float) -> Trajectory:
    """Integrate H = (p - e A(x))^2 / 2m under the standard structure
    with B = 0 and the given noncommutativity theta.

    The velocity components oscillate at omega = |F12|/m where F12 depends
    on the gauge choice; the trajectory record carries both.  A nonzero
    params.B is refused with ConfigError: the field enters through curlyB.
    """
    if params.B != 0.0:
        raise ConfigError(
            "trajectory uses the B = 0 structure; set the field via curlyB"
        )
    A1, A2 = (a.embed(4, (0, 1)) for a in gauge_potential(gauge, curlyB))
    pi1 = p1() - params.e * A1
    pi2 = p2() - params.e * A2
    H = (0.5 / params.m) * (pi1 * pi1 + pi2 * pi2)
    s = symplectic_matrix(params, StructureKind.STANDARD)
    traj = integrate(s, H, xi0, T, h)
    F12 = effective_field_strength(gauge, curlyB, params.theta, params.e)
    return replace(traj, F12=F12, omega=abs(F12) / params.m)


@dataclass(frozen=True)
class FrequencyFit:
    """Least-squares sinusoid fit y ~ a cos(wt) + b sin(wt) + c."""

    omega: float
    amplitude: float
    offset: float
    residual_rms: float
    n_crossings: int


# Gauss-Newton steps in omega that fit_sinusoid takes at most.
_FIT_ITERATIONS = 50


def _linear_fit(basis: np.ndarray, values: np.ndarray) -> tuple:
    """(coefficients, residual) of the linear least-squares fit of values
    by the basis columns.

    fit_sinusoid's columns are cos(omega t), sin(omega t) and 1; over the
    five or more periods the fit requires they are near-orthogonal, so the
    normal equations are well conditioned.
    """
    coeffs = np.linalg.solve(basis.T @ basis, basis.T @ values)
    return coeffs, values - basis @ coeffs


def fit_sinusoid(times: np.ndarray, values: np.ndarray) -> FrequencyFit:
    """Fit a single sinusoid, seeding the frequency from zero crossings of
    the centered signal (two crossings per period).

    Variable projection (Golub & Pereyra 1973; Kaufman 1975): at each
    omega, (a, b, c) is the linear fit, so the fit is a Gauss-Newton
    iteration in omega alone.  With residual r, model derivative
    d = t (b cos(omega t) - a sin(omega t)) and P d its part orthogonal to
    the three basis columns, the step is (P d . r) / |P d|^2, which equals
    (d . r) / |P d|^2 as r is orthogonal to the columns.  Omega stops when
    a step is within 1e-15 of it, or after _FIT_ITERATIONS steps.  As the
    amplitude is always the linear fit's, a signal starting at its mean
    does not start the fit flat.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    centered = values - np.mean(values)
    amp0 = float(np.max(np.abs(centered)))
    span = np.max(values) - np.min(values)
    if span <= 1e-12 * (1.0 + np.max(np.abs(values))):
        raise InsufficientData("signal is constant; no oscillation to fit")
    signs = np.sign(centered)
    signs[signs == 0] = 1.0
    crossing_idx = np.nonzero(np.diff(signs) != 0)[0]
    if len(crossing_idx) < 10:
        raise InsufficientData(
            f"only {len(crossing_idx) / 2:.1f} oscillation periods visible; "
            "at least 5 required"
        )
    t_first = times[crossing_idx[0]]
    t_last = times[crossing_idx[-1]]
    w = np.pi * (len(crossing_idx) - 1) / (t_last - t_first)

    # a step that is not a number, or an overflow, leaves omega or the rms
    # non-finite, which is refused below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_FIT_ITERATIONS):
            cos, sin = np.cos(w * times), np.sin(w * times)
            basis = np.column_stack([cos, sin, np.ones_like(times)])
            (a, b, c), resid = _linear_fit(basis, values)
            d_perp = _linear_fit(basis, times * (b * cos - a * sin))[1]
            # sums, not dots: OpenBLAS threads a ddot of 10^4 or more
            # entries, which took 7 ms a call on a 2-core host
            step = np.sum(d_perp * resid) / np.sum(d_perp * d_perp)
            w += step
            if not abs(step) > 1e-15 * abs(w):
                break
        rms = float(np.sqrt(np.mean(resid ** 2)))
    if not (np.isfinite(w) and abs(w) > 0 and rms <= 0.2 * max(amp0, 1e-12)):
        raise InsufficientData("sinusoid fit failed to converge on the signal")
    return FrequencyFit(abs(float(w)), float(np.hypot(a, b)), float(c),
                        rms, len(crossing_idx))


def dominant_fit(traj: Trajectory) -> FrequencyFit:
    """The least-squares sinusoid fit of v1(t)."""
    return fit_sinusoid(traj.times, traj.velocities[:, 0])


def dominant_frequency(traj: Trajectory) -> float:
    """The dominant angular frequency of v1(t) by least-squares sinusoid fit."""
    return dominant_fit(traj).omega
