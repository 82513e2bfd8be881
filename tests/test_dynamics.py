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
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncqmlab.errors import (ArityMismatch, InsufficientData,
                            SingularStructure, StepTooLarge)
from ncqmlab.params import NCParams
from ncqmlab.polysymbol import MonomialTable, PolySymbol, p1, p2, x1, x2
from ncqmlab.structures import (PoissonStructure, StructureKind,
                                symplectic_matrix, symplectic_matrix_field)
from ncqmlab.dynamics import (
    _ENERGY,
    _flow_table,
    Gauge,
    Trajectory,
    dominant_frequency,
    effective_field_strength,
    eom_residual,
    fit_sinusoid,
    gauge_potential,
    integrate,
    minimal_coupling_trajectory,
)


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
        custom = PoissonStructure(StructureKind.CUSTOM,
                                  tuple(tuple(row) for row in entries))
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
        # grow with the number of steps
        calls = []
        evaluate = PolySymbol.eval

        def counting_eval(self, pt):
            calls.append(1)
            return evaluate(self, pt)

        monkeypatch.setattr(PolySymbol, "eval", counting_eval)
        s = symplectic_matrix(NCParams(theta=0.2, B=0.5),
                              StructureKind.STANDARD)
        counts = []
        for T in (0.1, 0.2):
            calls.clear()
            integrate(s, H, (0.5, 0.0, 0.0, 0.3), T=T, h=1e-3)
            counts.append(len(calls))
        assert counts[0] == counts[1]


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
        assert res.max_abs <= 1e-5

    def test_residual_shrinks_quadratically(self):
        # the residual is dominated by the O(h^2) finite-difference error,
        # so halving h should cut it by about 4
        p, s, H, V = harmonic_setup(0.25, 1.0)
        xi0 = (1.0, 0.0, 0.0, 0.5)
        res_coarse = eom_residual(integrate(s, H, xi0, T=4.0, h=2e-3), p, V)
        res_fine = eom_residual(integrate(s, H, xi0, T=4.0, h=1e-3), p, V)
        ratio = res_coarse.max_abs / res_fine.max_abs
        assert 3.0 <= ratio <= 5.0

    def test_commutative_limit_is_newton(self):
        p, s, H, V = harmonic_setup(0.0, 0.0)
        traj = integrate(s, H, (1.0, 0.0, 0.0, 0.0), T=4.0, h=1e-3)
        res = eom_residual(traj, p, V)
        assert res.max_abs <= 1e-6

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
        with pytest.raises(ValueError):
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


class TestFrequencyFit:
    def test_synthetic_recovery(self):
        t = np.linspace(0.0, 20.0, 4001)
        y = 1.3 * np.cos(3.0 * t + 0.4) - 0.2
        fit = fit_sinusoid(t, y)
        assert fit.omega == pytest.approx(3.0, abs=1e-9)
        assert fit.amplitude == pytest.approx(1.3, abs=1e-9)
        assert fit.offset == pytest.approx(-0.2, abs=1e-9)

    def test_signal_starting_at_its_mean(self):
        # v1 starts at its mean, so a fit seeded with amplitude
        # (v1(0) - mean, 0) starts flat; the linear seed does not
        traj = minimal_coupling_trajectory(
            NCParams(theta=0.37205200595938115), "landau",
            4.506356472553741,
            (0.7050217316665073, -0.2421813224372562,
             -0.03440568847825154, 0.3182872532694735), 10.0, 1e-3)
        assert dominant_frequency(traj) == pytest.approx(traj.omega,
                                                         rel=1e-6)
        assert traj.omega == 4.506356472553741

    def test_constant_signal_rejected(self):
        t = np.linspace(0.0, 10.0, 101)
        with pytest.raises(InsufficientData):
            fit_sinusoid(t, np.full_like(t, 2.5))

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
