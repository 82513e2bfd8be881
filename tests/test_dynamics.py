"""Tests for classical flows under the deformed brackets.

Oracles
-------
* Free motion and the commutative harmonic oscillator have closed-form
  trajectories; the integrator must land on them.
* The deformed Newton law m x'' + kappa grad V - B eps x' - m theta
  eps d/dt(grad V) = 0 is checked by second-order finite differences, so
  the residual must shrink ~ h^2 under step refinement.
* For V = 0 the flow is theta-independent (theta multiplies grad_x H).
* Constant rescaling of the whole bracket matrix by 1/kappa is a time
  reparametrization t -> t/kappa: integrating the rescaled structure with
  step h must reproduce the original structure with step h/kappa up to
  rounding.
* ``oracle_integrate`` is the per-stage ``PolySymbol.eval`` RK4 loop the
  compiled steppers replace.  The step-matrix route for affine flows and
  the compiled-table route for every other flow must agree with it.
* ``stage_call_states`` calls the flow table's ``scalar()`` function once
  per RK4 stage.  The generated loop that ``integrate`` runs on every
  other flow inlines those stages, so its states must equal the oracle's
  bit for bit, and it must refuse the same stage point.
* ``step_loop_states`` steps an affine orbit one product ``xi = R @ xi``
  at a time, where ``integrate`` uses blocked powers of R.  Affine orbits,
  their velocities and energies must agree with it within n_steps * 1e-15
  of each array's size, and their deformed Newton-law residuals within
  what the finite differences make of the states' deviation.
* On an affine flow, RK4 turns a rotation at omega by omega h (1 -
  (omega h)^4 / 120) per step, to leading order, so ``omega_step`` must
  sit that far below omega.
* ``oracle_fit`` is scipy's Levenberg-Marquardt ``least_squares`` over all
  four parameters, started from the orbit's predicted frequency.  The
  variable-projection fit minimizes the same sum of squares, so on
  minimally coupled orbits its frequency must agree with the oracle's to
  FIT_OMEGA_RTOL.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import least_squares

from ncqmlab.errors import (ArityMismatch, ConfigError, InsufficientData,
                            SingularStructure, StepTooLarge)
from ncqmlab.params import NCParams
from ncqmlab.polysymbol import MonomialTable, PolySymbol, p1, p2, x1, x2
from ncqmlab.structures import (PoissonStructure, StructureKind,
                                symplectic_matrix, symplectic_matrix_field)
from ncqmlab import dynamics, polysymbol
from ncqmlab.dynamics import (
    _DEN,
    _ENERGY,
    _affine_step,
    _flow_table,
    _rk4_states,
    Gauge,
    Trajectory,
    dominant_frequency,
    effective_field_strength,
    fit_sinusoid,
    gauge_potential,
    integrate,
    minimal_coupling_trajectory,
)
from oracles import eom_residual


def harmonic_setup(theta, B, omega0=1.0, m=1.0):
    p = NCParams(theta=theta, B=B, m=m)
    s = symplectic_matrix(p, StructureKind.STANDARD)
    V = (0.5 * m * omega0 ** 2) * (x1(4) ** 2 + x2(4) ** 2)
    H = (0.5 / m) * (p1() * p1() + p2() * p2()) + V
    return p, s, H, V


class TestIntegrate:
    def test_free_particle_is_exact(self):
        # B = 0 removes the momentum-momentum bracket: straight-line motion
        p, s, H, _ = harmonic_setup(0.3, 0.0)
        H_free = (0.5) * (p1() * p1() + p2() * p2())
        xi0 = np.array([0.2, -0.4, 1.0, 0.5])
        traj = integrate(s, H_free, xi0, T=4.0, h=1e-2)
        # grad_x H = 0: the deformed terms drop out and x(t) = x0 + p t
        expected = xi0[:2] + np.outer(traj.times, xi0[2:])
        np.testing.assert_allclose(traj.states[:, :2], expected, atol=1e-12)
        np.testing.assert_allclose(
            traj.states[:, 2:], np.tile(xi0[2:], (len(traj.times), 1)), atol=1e-12
        )

    def test_momentum_bracket_drives_cyclotron_rotation(self):
        # with {p1, p2} = B and no potential, the momenta rotate at B/m:
        # pdot_1 = B p2 / m, pdot_2 = -B p1 / m
        B = 1.5
        p, s, _, _ = harmonic_setup(0.3, B)
        H_free = (0.5) * (p1() * p1() + p2() * p2())
        xi0 = np.array([0.2, -0.4, 1.0, 0.5])
        traj = integrate(s, H_free, xi0, T=4.0, h=1e-3)
        phase = B * traj.times
        expected_p1 = xi0[2] * np.cos(phase) + xi0[3] * np.sin(phase)
        expected_p2 = -xi0[2] * np.sin(phase) + xi0[3] * np.cos(phase)
        np.testing.assert_allclose(traj.states[:, 2], expected_p1, atol=1e-10)
        np.testing.assert_allclose(traj.states[:, 3], expected_p2, atol=1e-10)

    def test_newton_limit(self):
        # theta = B = 0: commutative oscillator, x1(t) = cos(t) exactly
        _, s, H, _ = harmonic_setup(0.0, 0.0)
        traj = integrate(s, H, (1.0, 0.0, 0.0, 0.0), T=5.0, h=1e-3)
        np.testing.assert_allclose(
            traj.states[:, 0], np.cos(traj.times), atol=1e-10
        )
        np.testing.assert_allclose(
            traj.states[:, 2], -np.sin(traj.times), atol=1e-10
        )

    def test_theta_independence_of_free_motion(self):
        # with V = 0, theta never enters the flow: trajectories coincide
        xi0 = (0.5, -0.2, 0.8, 0.3)
        H_free = (0.5) * (p1() * p1() + p2() * p2())
        trajs = []
        for theta in (0.0, 0.7):
            p = NCParams(theta=theta, B=1.2)
            s = symplectic_matrix(p, StructureKind.STANDARD)
            trajs.append(integrate(s, H_free, xi0, T=3.0, h=1e-2))
        np.testing.assert_array_equal(trajs[0].states, trajs[1].states)

    def test_energy_conservation(self):
        p, s, H, _ = harmonic_setup(0.3, 1.5)
        traj = integrate(s, H, (1.0, 0.0, 0.0, 0.5), T=10.0, h=1e-3)
        assert traj.energy_drift <= 1e-8

    def test_step_too_large(self):
        p, s, H, _ = harmonic_setup(0.0, 0.0, omega0=5.0)
        with pytest.raises(StepTooLarge):
            integrate(s, H, (1.0, 0.0, 0.0, 0.0), T=10.0, h=0.5)

    @pytest.mark.filterwarnings("error")
    def test_diverging_orbit_raises(self):
        # h = 0.3 on a stiff quartic trap blows the orbit up to inf and NaN,
        # where a drift of NaN compares False against any bound; such an
        # orbit is refused, before numpy reads it, even with the drift
        # guard off
        s = symplectic_matrix(NCParams(theta=0.2, B=1.0),
                              StructureKind.STANDARD)
        r2 = x1(4) ** 2 + x2(4) ** 2
        H = 0.5 * (p1() ** 2 + p2() ** 2) + 0.5 * r2 + 2.0 * r2 * r2
        for bound in (1e-6, None):
            with pytest.raises(StepTooLarge, match="non-finite"):
                integrate(s, H, (1.5, 0.5, 1.0, 1.0), T=40.0, h=0.3,
                          max_energy_drift=bound)

    def test_drift_guard_can_be_disabled(self):
        p, s, H, _ = harmonic_setup(0.0, 0.0, omega0=5.0)
        traj = integrate(s, H, (1.0, 0.0, 0.0, 0.0), T=10.0, h=0.5,
                         max_energy_drift=None)
        assert traj.energy_drift > 1e-6  # inaccurate, but returned

    def test_input_validation(self):
        p, s, H, _ = harmonic_setup(0.1, 0.5)
        with pytest.raises(ValueError):
            integrate(s, H, (0, 0, 0, 0), T=1.0, h=0.0)
        with pytest.raises(ValueError):
            integrate(s, H, (0, 0, 0, 0), T=0.001, h=1.0)
        with pytest.raises(ValueError):
            integrate(s, H, (0, 0, 0), T=1.0, h=0.01)
        with pytest.raises(ValueError):
            integrate(s, H, (math.nan, 0, 0, 0), T=1.0, h=0.01)
        with pytest.raises(ArityMismatch):
            integrate(s, x1() + x2(), (0, 0, 0, 0), T=1.0, h=0.01)

    def test_position_dependent_field_integrates(self):
        # exotic structure with B(x) = 1 + x1/2 still conserves energy
        theta = 0.2
        Bx = PolySymbol.constant(2, 1.0) + 0.5 * x1()
        s = symplectic_matrix_field(theta, Bx, StructureKind.EXOTIC)
        H = 0.5 * (p1() * p1() + p2() * p2()) + 0.5 * (x1(4) ** 2 + x2(4) ** 2)
        traj = integrate(s, H, (0.4, 0.0, 0.0, 0.3), T=5.0, h=1e-3)
        assert traj.energy_drift <= 1e-8


def oracle_integrate(s, H, xi0, T, h):
    """RK4 on xi' = Omega(xi) grad H(xi) by evaluating every symbol at every
    stage: the reference for ``integrate``.  Returns states, velocities and
    energy."""
    grads = [H.diff(i) for i in range(4)]

    def field(xi):
        return s.matrix_at(xi) @ np.array([g.eval(xi).real for g in grads])

    n_steps = int(round(T / h))
    states = np.empty((n_steps + 1, 4))
    states[0] = xi = np.asarray(xi0, dtype=float)
    for step in range(n_steps):
        k1 = field(xi)
        k2 = field(xi + 0.5 * h * k1)
        k3 = field(xi + 0.5 * h * k2)
        k4 = field(xi + h * k3)
        xi = xi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[step + 1] = xi
    velocities = np.array([field(state)[:2] for state in states])
    energy = np.array([H.eval(state).real for state in states])
    return states, velocities, energy


VARIABLES = (x1(4), x2(4), p1(), p2())
# every exponent tuple of total degree <= 4 in four variables
EXPONENTS = [(a, b, c, d) for a in range(5) for b in range(5)
             for c in range(5) for d in range(5) if a + b + c + d <= 4]
coefficient = st.floats(-2.0, 2.0, allow_nan=False)
small = st.floats(-1.0, 1.0, allow_nan=False)
point = st.tuples(*[st.floats(-1.5, 1.5, allow_nan=False)] * 4)


@st.composite
def polynomials(draw, max_terms=8):
    terms = draw(st.dictionaries(st.sampled_from(EXPONENTS),
                                 st.tuples(coefficient, coefficient),
                                 max_size=max_terms))
    return PolySymbol(4, {e: complex(re, im) for e, (re, im) in terms.items()})


@st.composite
def quadratic_hamiltonians(draw, linear: bool):
    """H = xi S xi / 2 (+ g . xi) with S symmetric positive definite, so
    every orbit stays on a compact level set of H."""
    M = np.array(draw(st.lists(small, min_size=16, max_size=16))).reshape(4, 4)
    S = M @ M.T + np.eye(4)
    H = PolySymbol.zero(4)
    for i in range(4):
        for j in range(4):
            H = H + (0.5 * S[i, j]) * VARIABLES[i] * VARIABLES[j]
    if linear:
        for var, g in zip(VARIABLES, draw(st.lists(small, min_size=4,
                                                   max_size=4))):
            H = H + g * var
    return H


def _absolute_terms(poly: PolySymbol, pt) -> float:
    """sum |c| |monomial| at pt: the scale rounding error is relative to."""
    return sum(abs(c.real) * math.prod(abs(x) ** e for x, e in zip(pt, expo))
               for expo, c in poly.terms.items())


class TestMonomialTable:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(polynomials(), min_size=1, max_size=5),
           st.lists(point, min_size=1, max_size=6))
    def test_matches_eval_at_points_and_over_arrays(self, rows, points):
        table = MonomialTable([row.real() for row in rows])
        bulk = table(np.array(points))
        assert bulk.shape == (len(points), len(rows))
        scalar = table.scalar()
        for n, pt in enumerate(points):
            single = table(np.array(pt))
            straight = scalar(*pt)
            for r, row in enumerate(rows):
                want = row.eval(pt).real
                tol = 1e-12 * max(_absolute_terms(row, pt), 1e-300)
                assert abs(single[r] - want) <= tol
                assert abs(bulk[n, r] - want) <= tol
                assert abs(straight[r] - want) <= tol

    def test_bulk_evaluation_spans_blocks(self):
        table = MonomialTable([x1(4) * p2() - 2.0 * x2(4) ** 3])
        pts = np.random.default_rng(0).uniform(-1, 1, size=(5000, 4))
        want = pts[:, 0] * pts[:, 3] - 2.0 * pts[:, 1] ** 3
        np.testing.assert_allclose(table(pts)[:, 0], want, rtol=1e-14,
                                   atol=1e-15)

    def test_refuses_complex_coefficients(self):
        with pytest.raises(ValueError):
            MonomialTable([1j * x1(4)])
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                MonomialTable([PolySymbol(4, {(1, 0, 0, 0): bad})])
        with pytest.raises(ArityMismatch):
            MonomialTable([x1(2), p1()])


def _assert_matches_oracle(traj, oracle, bound):
    """States, velocities and energies each within ``bound`` times
    max(1, that array's own largest magnitude): rounding is relative to
    the values it rounds, and the velocities can be many times the
    states."""
    for got, want in zip((traj.states, traj.velocities, traj.energy),
                         oracle):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= bound * scale


class TestCompiledSteppers:
    """``integrate`` against the per-stage symbol-evaluation RK4 loop."""

    @settings(max_examples=25, deadline=None)
    @given(st.booleans(), st.data(), small, small,
           st.sampled_from([StructureKind.STANDARD, StructureKind.EXOTIC]),
           st.tuples(*[small] * 4))
    def test_step_matrix_matches_oracle(self, linear, data, theta, B, kind,
                                        xi0):
        # RK4 on an affine flow is one product with the stability
        # polynomial R(hA); the two differ only by rounding, which the
        # repeated product accumulates at most linearly in the steps
        if kind is StructureKind.EXOTIC and abs(1.0 - theta * B) < 0.2:
            theta = 0.0
        H = data.draw(quadratic_hamiltonians(linear))
        s = symplectic_matrix(NCParams(theta=theta, B=B), kind)
        T, h = 2.0, 1e-2
        traj = integrate(s, H, xi0, T, h, max_energy_drift=None)
        oracle = oracle_integrate(s, H, xi0, T, h)
        n_steps = len(traj.times) - 1
        _assert_matches_oracle(traj, oracle, n_steps * 1e-15)

    @settings(max_examples=4, deadline=None)
    @given(st.floats(0.1, 0.4), st.floats(0.5, 1.5), st.floats(0.1, 0.4),
           st.tuples(*[st.floats(-0.6, 0.6)] * 4))
    def test_general_stepper_matches_oracle_on_quartic_trap(
            self, theta, B, lam, xi0):
        r2 = x1(4) ** 2 + x2(4) ** 2
        H = 0.5 * (p1() ** 2 + p2() ** 2) + 0.5 * r2 + lam * r2 * r2
        s = symplectic_matrix(NCParams(theta=theta, B=B),
                              StructureKind.STANDARD)
        traj = integrate(s, H, xi0, 1.0, 1e-3)
        _assert_matches_oracle(traj, oracle_integrate(s, H, xi0, 1.0, 1e-3),
                               1e-13)
        assert traj.omega_step is None

    @settings(max_examples=4, deadline=None)
    @given(st.floats(0.1, 0.3), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5),
           st.tuples(*[st.floats(-0.4, 0.4)] * 4))
    def test_general_stepper_matches_oracle_on_exotic_field(
            self, theta, b1, b2, xi0):
        field = 1.0 + b1 * x1() + b2 * x2() ** 2
        s = symplectic_matrix_field(theta, field, StructureKind.EXOTIC)
        H = 0.5 * (p1() ** 2 + p2() ** 2) + 0.5 * (x1(4) ** 2 + x2(4) ** 2)
        traj = integrate(s, H, xi0, 1.0, 1e-3)
        _assert_matches_oracle(traj, oracle_integrate(s, H, xi0, 1.0, 1e-3),
                               1e-13)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 0.4), st.floats(-0.5, 0.5), st.floats(0.1, 0.4),
           st.booleans(), st.tuples(*[st.floats(-2.0, 2.0)] * 4))
    def test_stage_rows_equal_the_full_table_rows(self, theta, b1, lam,
                                                  exotic, pt):
        # the RK4 stages call the flow rows alone; the energy row is read
        # only in bulk, so dropping it must not move a single bit
        r2 = x1(4) ** 2 + x2(4) ** 2
        H = 0.5 * (p1() ** 2 + p2() ** 2) + 0.5 * r2 + lam * r2 * r2
        if exotic:
            field = 1.0 + b1 * x1() + lam * x2() ** 2
            s = symplectic_matrix_field(theta, field, StructureKind.EXOTIC)
        else:
            s = symplectic_matrix(NCParams(theta=theta, B=1.0 + b1),
                                  StructureKind.STANDARD)
        table = _flow_table(s, H)
        stages = table[:_ENERGY].scalar()(*pt)
        assert len(stages) == _ENERGY
        assert stages == table.scalar()(*pt)[:_ENERGY]

    def test_complex_structure_entry_refused(self):
        _, s, H, _ = harmonic_setup(0.2, 0.5)
        entries = [list(row) for row in s.entries]
        entries[0][1], entries[1][0] = 0.2j * PolySymbol.constant(4, 1.0), \
            -0.2j * PolySymbol.constant(4, 1.0)
        custom = PoissonStructure(tuple(tuple(row) for row in entries))
        with pytest.raises(ValueError):
            integrate(custom, H, (1.0, 0.0, 0.0, 0.0), T=1.0, h=1e-2)

    @pytest.mark.parametrize("xi0,H,h", [
        # kappa(x) = 1 - x1 vanishes at the starting point
        ((1.0, 0.0, 0.0, 0.0), harmonic_setup(0.0, 0.0)[2], 1e-2),
        # x1' = 2 / kappa(x) = 4 at x1 = 1/2, so the second RK4 stage
        # lands on x1 = 1/2 + (h/2) * 4 = 1 and no state does
        ((0.5, 0.0, 0.0, 0.0), 2.0 * p1(), 0.25),
    ], ids=["state", "stage"])
    def test_zero_denominator_refused(self, xi0, H, h):
        s = symplectic_matrix_field(1.0, x1(), StructureKind.EXOTIC)
        with pytest.raises(SingularStructure):
            integrate(s, H, xi0, T=h, h=h)

    @pytest.mark.parametrize("H", [
        0.5 * (p1() ** 2 + p2() ** 2) + 0.5 * (x1(4) ** 2 + x2(4) ** 2),
        0.5 * (p1() ** 2 + p2() ** 2) + (x1(4) ** 2 + x2(4) ** 2) ** 2,
    ], ids=["quadratic", "quartic"])
    def test_symbols_are_not_evaluated_per_step(self, H, monkeypatch):
        # the flow is compiled once per call: symbol evaluations must not
        # grow with the number of steps, and once a shape is compiled,
        # four times the steps compile nothing more
        calls = []
        evaluate = PolySymbol.eval

        def counting_eval(self, pt):
            calls.append(1)
            return evaluate(self, pt)

        monkeypatch.setattr(PolySymbol, "eval", counting_eval)
        monkeypatch.setattr(polysymbol, "_SHAPES", {})
        s = symplectic_matrix(NCParams(theta=0.2, B=0.5),
                              StructureKind.STANDARD)
        counts, compiles = [], []
        for T in (0.1, 0.2, 0.4):
            calls.clear()
            integrate(s, H, (0.5, 0.0, 0.0, 0.3), T=T, h=1e-3)
            counts.append(len(calls))
            compiles.append(len(polysymbol._SHAPES))
        assert counts[0] == counts[1] == counts[2]
        assert 0 < compiles[0] == compiles[2]

    def test_affine_products_grow_as_the_root_of_the_steps(self,
                                                           monkeypatch):
        # blocked powers: four times the steps take about twice the small
        # products, where one product per step would take four times
        calls = []
        dot = np.dot

        def counting_dot(*args, **kwargs):
            calls.append(1)
            return dot(*args, **kwargs)

        monkeypatch.setattr(np, "dot", counting_dot)
        _, s, H, _ = harmonic_setup(0.2, 0.5)
        counts = []
        for T in (0.25, 1.0):
            calls.clear()
            integrate(s, H, (0.5, 0.0, 0.0, 0.3), T=T, h=1e-3)
            counts.append(len(calls))
        assert 0 < counts[1] <= 2.1 * counts[0]

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(list(Gauge)), st.floats(0.0, 0.4),
           st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(0.01, 0.05))
    def test_omega_step_lags_by_rk4_phase_error(self, gauge, theta, curlyB,
                                                m, omega_h):
        # arg R(i z) = z - z^5 / 120 + O(z^7) for z = omega h
        params = NCParams(theta=theta, B=0.0, m=m)
        omega = abs(effective_field_strength(gauge, curlyB, theta)) / m
        h = omega_h / omega
        traj = minimal_coupling_trajectory(params, gauge, curlyB,
                                           (1.0, 0.0, 0.0, 0.0), 50 * h, h)
        lag = -omega * omega_h ** 4 / 120.0
        assert abs((traj.omega_step - traj.omega) / lag - 1.0) <= 0.01


def stage_call_states(table, xi0, h, n_steps):
    """RK4 on plain floats with one call of the flow rows' ``scalar()``
    function per stage: the stepper the generated loop replaces, and its
    bitwise oracle."""
    states = np.empty((n_steps + 1, 4))
    states[0] = xi0
    rows = table[:_ENERGY].scalar()

    def field(xi: tuple) -> tuple:
        n1, n2, n3, n4, den = rows(*xi)
        if den == 0:
            raise SingularStructure(f"structure singular at point {xi}")
        return n1 / den, n2 / den, n3 / den, n4 / den

    half, sixth = 0.5 * h, h / 6.0
    a, b, c, d = map(float, xi0)
    out = []
    for _ in range(n_steps):
        k1 = field((a, b, c, d))
        k2 = field((a + half * k1[0], b + half * k1[1],
                    c + half * k1[2], d + half * k1[3]))
        k3 = field((a + half * k2[0], b + half * k2[1],
                    c + half * k2[2], d + half * k2[3]))
        k4 = field((a + h * k3[0], b + h * k3[1],
                    c + h * k3[2], d + h * k3[3]))
        a += sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        b += sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        c += sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        d += sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        out.append((a, b, c, d))
    states[1:] = out
    return states


def assert_same_bits(got, want):
    """Equal bit for bit, except that a NaN need only meet a NaN: its sign
    bit is not part of the arithmetic's contract."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# coefficients that include the exactly written 0, 1.0 and -1.0
exact_or_drawn = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                           st.floats(-2.0, 2.0, allow_nan=False))


@st.composite
def general_flows(draw):
    """(structure, H): H of degree <= 4 and a standard or exotic
    structure, with a constant field or a field B(x) of degree <= 2."""
    H = PolySymbol(4, draw(st.dictionaries(st.sampled_from(EXPONENTS),
                                           exact_or_drawn, max_size=10)))
    B = PolySymbol(2, draw(st.dictionaries(
        st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
        exact_or_drawn, max_size=4)))
    kind = draw(st.sampled_from([StructureKind.STANDARD,
                                 StructureKind.EXOTIC]))
    theta = draw(exact_or_drawn)
    if kind is StructureKind.EXOTIC and (1.0 - theta * B).is_zero:
        theta = 0.0
    return symplectic_matrix_field(theta, B, kind), H


class TestGeneratedLoopIsBitwise:
    """The generated RK4 loop against the per-stage-call stepper."""

    # orbits may overflow: the bulk rows of a diverged orbit warn
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(general_flows(), st.tuples(*[st.floats(-1.5, 1.5)] * 4),
           st.sampled_from([1e-2, 0.1, 0.25]), st.integers(1, 40))
    def test_states_equal_the_stage_call_oracle(self, flow, xi0, h,
                                                n_steps):
        s, H = flow
        table = _flow_table(s, H)
        xi0 = np.array(xi0)
        outcomes = []
        for stepper in (_rk4_states, stage_call_states):
            try:
                outcomes.append(stepper(table, xi0, h, n_steps))
            except SingularStructure as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        if isinstance(want, str):
            assert got == want
            return
        assert_same_bits(got, want)
        if _affine_step(table, h) is not None:
            return
        # integrate runs the same loop on every flow that is not affine
        try:
            traj = integrate(s, H, xi0, n_steps * h, h,
                             max_energy_drift=None)
        except StepTooLarge:
            assert not (np.isfinite(want).all()
                        and np.isfinite(table(want)[:, _ENERGY]).all())
        except SingularStructure:
            assert not table(want)[:, _DEN].all()
        else:
            assert traj.states.tobytes() == want.tobytes()

    def test_orbits_of_one_shape_compile_once(self, monkeypatch):
        # two quartic traps that differ only in coefficient values share
        # one loop and one bulk table: the second call compiles nothing,
        # and each orbit is its own coefficients' orbit
        monkeypatch.setattr(polysymbol, "_SHAPES", {})
        r2 = x1(4) ** 2 + x2(4) ** 2
        orbits = []
        for theta, B, lam in ((0.2, 0.5, 0.3), (0.3, 1.1, 0.7)):
            s = symplectic_matrix(NCParams(theta=theta, B=B),
                                  StructureKind.STANDARD)
            H = 0.5 * (p1() ** 2 + p2() ** 2) + 0.5 * r2 + lam * r2 * r2
            traj = integrate(s, H, (0.5, 0.1, 0.0, 0.3), T=0.2, h=1e-3)
            want = stage_call_states(_flow_table(s, H), traj.states[0],
                                     1e-3, 200)
            assert traj.states.tobytes() == want.tobytes()
            orbits.append(traj.states)
            if len(orbits) == 1:
                shapes = dict(polysymbol._SHAPES)
        assert polysymbol._SHAPES == shapes
        assert sum(source.startswith("def loop") for source in shapes) == 1
        assert not np.array_equal(orbits[0], orbits[1])


def step_loop_states(step, xi0, n_steps):
    """The affine orbit one product R @ (xi, 1) per step: the sequential
    oracle of the blocked powers."""
    states = np.empty((n_steps + 1, 4))
    states[0] = xi0
    xi = np.append(xi0, 1.0)
    for n in range(n_steps):
        xi = step @ xi
        states[n + 1] = xi[:4]
    return states


@contextlib.contextmanager
def step_loop():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamics, "_affine_states", step_loop_states)
        yield


def assert_near_step_loop(traj, want):
    assert traj.times.tobytes() == want.times.tobytes()
    _assert_matches_oracle(traj, (want.states, want.velocities, want.energy),
                           (len(want.times) - 1) * 1e-15)


class TestAffineOrbitsMatchTheStepLoop:
    """Blocked powers of the step matrix against one product per step."""

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(list(Gauge)), st.floats(0.0, 0.4),
           st.floats(0.5, 2.0), st.sampled_from([1.0, -1.0, 2.0, 0.5]),
           st.floats(0.5, 2.0), st.tuples(*[small] * 4))
    def test_minimal_coupling_orbits(self, gauge, theta, curlyB, e, m, xi0):
        params = NCParams(theta=theta, B=0.0, e=e, m=m)
        traj = minimal_coupling_trajectory(params, gauge, curlyB, xi0,
                                           T=4.0, h=5e-3)
        with step_loop():
            want = minimal_coupling_trajectory(params, gauge, curlyB, xi0,
                                               T=4.0, h=5e-3)
        assert_near_step_loop(traj, want)

    @settings(max_examples=20, deadline=None)
    @given(st.booleans(), st.data(), small, small,
           st.sampled_from([StructureKind.STANDARD, StructureKind.EXOTIC]),
           st.tuples(*[small] * 4))
    def test_quadratic_hamiltonians(self, linear, data, theta, B, kind, xi0):
        if kind is StructureKind.EXOTIC and abs(1.0 - theta * B) < 0.2:
            theta = 0.0
        H = data.draw(quadratic_hamiltonians(linear))
        s = symplectic_matrix(NCParams(theta=theta, B=B), kind)
        traj = integrate(s, H, xi0, 2.0, 1e-2, max_energy_drift=None)
        with step_loop():
            want = integrate(s, H, xi0, 2.0, 1e-2, max_energy_drift=None)
        assert_near_step_loop(traj, want)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(0.05, 0.4), st.floats(-0.9, 0.9), st.floats(0.5, 1.5),
           st.tuples(*[small] * 4))
    def test_eom_residual(self, theta, B, omega0, xi0):
        p, s, H, V = harmonic_setup(theta, B, omega0)
        h = 1e-3
        traj = integrate(s, H, xi0, T=6.0, h=h)
        with step_loop():
            want_traj = integrate(s, H, xi0, T=6.0, h=h)
        assert_near_step_loop(traj, want_traj)
        got, want = eom_residual(traj, p, V), eom_residual(want_traj, p, V)
        # the second difference carries a state deviation times 4 / h^2 (m
        # = 1); the first differences and the gradient add less than that
        moved = np.max(np.abs(traj.states - want_traj.states))
        assert np.max(np.abs(got - want)) <= 8.0 * moved / h**2
        assert abs(np.max(np.abs(got)) - np.max(np.abs(want))) \
            <= 8.0 * moved / h**2


class TestTrajectoryRecord:
    def test_arrays_are_frozen(self):
        _, s, H, _ = harmonic_setup(0.1, 0.4)
        traj = integrate(s, H, (1.0, 0.0, 0.0, 0.0), T=1.0, h=1e-2)
        with pytest.raises((ValueError, RuntimeError)):
            traj.states[0, 0] = 99.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(
                times=np.zeros(3),
                states=np.zeros((4, 4)),
                velocities=np.zeros((4, 2)),
                h=0.1,
                energy=np.zeros(4),
            )

    def test_velocities_are_flow_velocities(self):
        # for H = p^2/2m + V under the standard structure,
        # xdot_i = p_i/m + theta eps_ij d_jV
        theta = 0.3
        p, s, H, V = harmonic_setup(theta, 0.9)
        traj = integrate(s, H, (1.0, 0.2, -0.1, 0.4), T=1.0, h=1e-2)
        for idx in (0, len(traj.times) // 2, -1):
            state = traj.states[idx]
            gradV = np.array([V.diff(i).eval(state).real for i in range(2)])
            expected = state[2:] / p.m + theta * np.array([gradV[1], -gradV[0]])
            np.testing.assert_allclose(traj.velocities[idx], expected, atol=1e-12)


class TestEOMResidual:
    def test_harmonic_residual_small(self):
        p, s, H, V = harmonic_setup(0.3, 1.5)
        traj = integrate(s, H, (1.0, 0.0, 0.0, 0.5), T=5.0, h=1e-3)
        res = eom_residual(traj, p, V)
        assert np.max(np.abs(res)) <= 1e-5

    def test_residual_shrinks_quadratically(self):
        # the residual is dominated by the O(h^2) finite-difference error,
        # so halving h should cut it by about 4
        p, s, H, V = harmonic_setup(0.25, 1.0)
        xi0 = (1.0, 0.0, 0.0, 0.5)
        res_coarse = eom_residual(integrate(s, H, xi0, T=4.0, h=2e-3), p, V)
        res_fine = eom_residual(integrate(s, H, xi0, T=4.0, h=1e-3), p, V)
        ratio = np.max(np.abs(res_coarse)) / np.max(np.abs(res_fine))
        assert 3.0 <= ratio <= 5.0

    def test_commutative_limit_is_newton(self):
        p, s, H, V = harmonic_setup(0.0, 0.0)
        traj = integrate(s, H, (1.0, 0.0, 0.0, 0.0), T=4.0, h=1e-3)
        res = eom_residual(traj, p, V)
        assert np.max(np.abs(res)) <= 1e-6

    def test_arity_validation(self):
        p, s, H, V = harmonic_setup(0.1, 0.2)
        traj = integrate(s, H, (1.0, 0.0, 0.0, 0.0), T=1.0, h=1e-2)
        with pytest.raises(ArityMismatch):
            eom_residual(traj, p, PolySymbol.variable(3, 0))


class TestReparametrization:
    def test_constant_rescaling_is_time_change(self):
        # scaling the bracket matrix by 1/kappa and the step by kappa
        # produces the identical RK4 arithmetic: states match exactly
        theta, B = 0.3, 2.0  # kappa = 0.4
        kap = 1.0 - theta * B
        p = NCParams(theta=theta, B=B)
        s_std = symplectic_matrix(p, StructureKind.STANDARD)
        s_exo = symplectic_matrix(p, StructureKind.EXOTIC)
        H = 0.5 * (p1() * p1() + p2() * p2()) + 0.5 * (x1(4) ** 2 + x2(4) ** 2)
        xi0 = (1.0, 0.0, 0.0, 0.5)
        h = 1e-3
        fast = integrate(s_exo, H, xi0, T=1.0, h=h)
        slow = integrate(s_std, H, xi0, T=1.0 / kap, h=h / kap)
        np.testing.assert_allclose(fast.states, slow.states, atol=1e-12)


class TestMinimalCoupling:
    def test_gauge_potentials_have_the_right_curl(self):
        for gauge in (Gauge.SYMMETRIC, Gauge.LANDAU):
            A1, A2 = gauge_potential(gauge, 2.0)
            curl = A2.diff(0) - A1.diff(1)
            assert curl.allclose(PolySymbol.constant(2, 2.0))

    def test_effective_field_strength_values(self):
        # symmetric: a(1 + theta a/4); landau: a; with a = coupling * curlyB
        assert effective_field_strength(Gauge.SYMMETRIC, 2.0, 0.25) == \
            pytest.approx(2.0 * (1 + 0.25 * 2.0 / 4))
        assert effective_field_strength(Gauge.LANDAU, 2.0, 0.25) == \
            pytest.approx(2.0)
        assert effective_field_strength("symmetric", 4.0, 0.5, coupling=0.5) == \
            pytest.approx(2.0 * (1 + 0.5 * 2.0 / 4))

    def test_requires_zero_algebra_field(self):
        p = NCParams(theta=0.25, B=1.0)
        with pytest.raises(ConfigError, match="curlyB"):
            minimal_coupling_trajectory(p, Gauge.SYMMETRIC, 2.0,
                                        (1, 0, 0, 0), T=1.0, h=1e-2)

    @pytest.mark.parametrize("gauge,expected", [
        (Gauge.SYMMETRIC, 2.25),
        (Gauge.LANDAU, 2.0),
    ])
    def test_fitted_frequency_tracks_gauge(self, gauge, expected):
        # shortened version of the frequency experiment: T=16 at h=2e-3
        # still shows > 5 periods of the expected oscillation
        p = NCParams(theta=0.25, B=0.0)
        traj = minimal_coupling_trajectory(
            p, gauge, 2.0, (1.0, 0.0, 0.0, 0.5), T=16.0, h=2e-3
        )
        assert traj.omega == pytest.approx(expected, abs=1e-12)
        fitted = dominant_frequency(traj)
        assert fitted == pytest.approx(expected, rel=1e-3)


# In sweeps over both gauges, theta in [-0.4, 0.4], curlyB in [1, 5],
# e in {0.5, 1, 2}, m in [0.5, 2], any starting phase, T in {10, 16} and
# h in {1e-3, 5e-3}, the two fits differed by at most 2.6e-14 relative;
# the trajectory goldens gate omega_fitted at 1e-12.
FIT_OMEGA_RTOL = 1e-12


def oracle_fit(times, values, omega0):
    """(omega, rms residual) of least_squares over (a, b, c, omega), from
    omega0 and the linear least-squares amplitudes there."""
    def model(q):
        a, b, c, w = q
        return a * np.cos(w * times) + b * np.sin(w * times) + c

    basis = np.column_stack([np.cos(omega0 * times),
                             np.sin(omega0 * times), np.ones_like(times)])
    q0 = np.append(np.linalg.lstsq(basis, values, rcond=None)[0], omega0)
    sol = least_squares(lambda q: model(q) - values, q0, method="lm",
                        xtol=1e-14, ftol=1e-14)
    return abs(sol.x[3]), float(np.sqrt(np.mean(sol.fun ** 2)))


def assert_fit_matches_oracle(traj):
    fit = fit_sinusoid(traj.times, traj.velocities[:, 0])
    omega, rms = oracle_fit(traj.times, traj.velocities[:, 0], traj.omega)
    assert fit.omega == pytest.approx(omega, rel=FIT_OMEGA_RTOL, abs=0)
    # both sit at the roundoff floor of the same sum of squares
    assert fit.residual_rms <= rms + 1e-12 * fit.amplitude


class TestFrequencyFit:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(list(Gauge)), st.floats(0.05, 0.4),
           st.floats(3.5, 5.0), st.tuples(*[st.floats(-0.5, 0.5)] * 2),
           st.floats(0.5, 1.5), st.floats(-math.pi, math.pi))
    # in both gauges v1 is proportional to p1 - A1, so with cos(phi) = 0
    # it starts at zero, its mean
    @example(Gauge.LANDAU, 0.25, 4.0, (0.3, -0.2), 1.0, math.pi / 2)
    @example(Gauge.SYMMETRIC, 0.25, 4.0, (0.0, 0.0), 1.0, -math.pi / 2)
    def test_matches_least_squares_oracle(self, gauge, theta, curlyB, x,
                                          speed, phi):
        A = MonomialTable(list(gauge_potential(gauge, curlyB)))(x)
        p = speed * np.array([math.cos(phi), math.sin(phi)]) + A
        traj = minimal_coupling_trajectory(
            NCParams(theta=theta), gauge, curlyB, (*x, *p), 10.0, 1e-3)
        assert_fit_matches_oracle(traj)

    def test_synthetic_recovery(self):
        t = np.linspace(0.0, 20.0, 4001)
        y = 1.3 * np.cos(3.0 * t + 0.4) - 0.2
        fit = fit_sinusoid(t, y)
        assert fit.omega == pytest.approx(3.0, abs=1e-9)
        assert fit.amplitude == pytest.approx(1.3, abs=1e-9)
        assert fit.offset == pytest.approx(-0.2, abs=1e-9)

    def test_signal_starting_at_its_mean(self):
        # v1 starts at its mean, so a fit seeded with amplitude
        # (v1(0) - mean, 0) starts flat; the linear fit does not
        traj = minimal_coupling_trajectory(
            NCParams(theta=0.37205200595938115), "landau",
            4.506356472553741,
            (0.7050217316665073, -0.2421813224372562,
             -0.03440568847825154, 0.3182872532694735), 10.0, 1e-3)
        assert dominant_frequency(traj) == pytest.approx(traj.omega,
                                                         rel=1e-6)
        assert traj.omega == 4.506356472553741
        assert_fit_matches_oracle(traj)

    def test_constant_signal_rejected(self):
        t = np.linspace(0.0, 10.0, 101)
        with pytest.raises(InsufficientData):
            fit_sinusoid(t, np.full_like(t, 2.5))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_fit_is_refused_without_warnings(self):
        # the normal equations overflow, so the step and omega turn NaN
        t = np.linspace(0.0, 20.0, 2001)
        with pytest.raises(InsufficientData, match="failed to converge"):
            fit_sinusoid(t, 1e300 * np.cos(3.0 * t))

    def test_too_few_periods_rejected(self):
        t = np.linspace(0.0, 3.0, 301)
        with pytest.raises(InsufficientData):
            fit_sinusoid(t, np.cos(2.0 * t))  # < 1 full period visible

    def test_badly_nonsinusoidal_signal_rejected(self):
        # two incommensurate tones of similar size: residual stays large
        t = np.linspace(0.0, 40.0, 4001)
        y = np.cos(2.0 * t) + 0.9 * np.cos(math.e * t)
        with pytest.raises(InsufficientData):
            fit_sinusoid(t, y)
