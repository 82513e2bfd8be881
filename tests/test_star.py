"""Tests for the polynomial star-product engine.

Oracles
-------
* moyal products of low monomials are written out by hand:
  x1 star x2 = x1 x2 + i theta/2, [x1 star, x2] = i theta.
* Bbar is defined by Lambda_bar(Bbar) * Bbar = B; the closed form is
  verified by substituting back into that defining relation.
* The constant-field map has B_check = B / (1 - e theta B) and the
  spectrum (|e B|/m)(n + 1/2); both recomputed directly here.
* star_landau_spectrum is cross-checked against a number-basis
  diagonalization of the minimally coupled Hamiltonian built from the
  same gauge data.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncqmlab.errors import ArityMismatch, DomainError
from ncqmlab.params import NCParams
from ncqmlab.polysymbol import PolySymbol, x1, x2
from ncqmlab import fock
from ncqmlab.reps import symmetric_gauge_rep
from ncqmlab.star import (
    GaugePotential,
    StarOp,
    bbar_of_B,
    field_strength,
    lambda_bar,
    moyal_star,
    star_commutation_table,
    star_commutator,
    star_landau_spectrum,
    star_op_bracket,
    sw_constant_field,
    sw_first_order,
    symmetric_star_gauge,
)
from oracles import (apply_star_operator, commutator, interior_residual,
                     quantize_poly)


def poly_strategy(max_degree=4, max_terms=6):
    exponent = st.tuples(
        st.integers(0, max_degree), st.integers(0, max_degree)
    ).filter(lambda e: sum(e) <= max_degree)
    coeff = st.complex_numbers(
        min_magnitude=0.0, max_magnitude=3.0,
        allow_nan=False, allow_infinity=False,
    )
    return st.dictionaries(exponent, coeff, max_size=max_terms).map(
        lambda d: PolySymbol(2, d)
    )


def real_poly_strategy(max_degree=3, max_terms=5):
    exponent = st.tuples(
        st.integers(0, max_degree), st.integers(0, max_degree)
    ).filter(lambda e: sum(e) <= max_degree)
    coeff = st.floats(-3.0, 3.0).map(complex)
    return st.dictionaries(exponent, coeff, max_size=max_terms).map(
        lambda d: PolySymbol(2, d)
    )


class TestMoyalProduct:
    def test_monomial_oracle(self):
        theta = 0.2
        prod = moyal_star(x1(), x2(), theta)
        expected = x1() * x2() + PolySymbol.constant(2, 0.1j)
        assert prod.allclose(expected)
        prod_rev = moyal_star(x2(), x1(), theta)
        expected_rev = x1() * x2() - PolySymbol.constant(2, 0.1j)
        assert prod_rev.allclose(expected_rev)

    def test_coordinate_commutator(self):
        for theta in (0.0, 0.3, -1.2):
            comm = star_commutator(x1(), x2(), theta)
            assert comm.allclose(PolySymbol.constant(2, 1j * theta))

    def test_reduces_to_pointwise_at_zero_theta(self):
        f = x1() ** 2 * x2() + 3.0 * x2()
        g = x1() - x2() ** 3
        assert moyal_star(f, g, 0.0).allclose(f * g)

    def test_constants_are_central(self):
        c = PolySymbol.constant(2, 2.5)
        f = x1() ** 2 + x2()
        assert star_commutator(c, f, 0.7).allclose(PolySymbol.zero(2))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityMismatch):
            moyal_star(x1(), PolySymbol.variable(4, 0), 0.3)

    def test_quadratic_example_by_hand(self):
        # x1^2 star x2^2 = x1^2 x2^2 + 2 i theta/2 * (2 x1)(2 x2)/2 ...
        # expand the terminating series explicitly for degree 2 x degree 2:
        # k=0: x1^2 x2^2
        # k=1: (i theta/2) d1(x1^2) d2(x2^2) = (i theta/2)(2x1)(2x2)
        # k=2: (i theta/2)^2/2! d1^2(x1^2) d2^2(x2^2) = (i theta/2)^2/2 * 2*2
        theta = 0.4
        got = moyal_star(x1() ** 2, x2() ** 2, theta)
        expected = (
            x1() ** 2 * x2() ** 2
            + (0.5j * theta * 4.0) * (x1() * x2())
            + PolySymbol.constant(2, (0.5j * theta) ** 2 * 2.0)
        )
        assert got.allclose(expected)


@settings(max_examples=40, deadline=None)
@given(f=poly_strategy(), g=poly_strategy(), h=poly_strategy(),
       theta=st.floats(-1.0, 1.0))
def test_associativity(f, g, h, theta):
    lhs = moyal_star(moyal_star(f, g, theta), h, theta)
    rhs = moyal_star(f, moyal_star(g, h, theta), theta)
    scale = max(1.0, f.max_abs_coeff() * g.max_abs_coeff() * h.max_abs_coeff())
    assert lhs.allclose(rhs, tol=1e-9 * scale)


@settings(max_examples=40, deadline=None)
@given(f=poly_strategy(), g=poly_strategy(), theta=st.floats(-1.0, 1.0))
def test_conjugation_antihomomorphism(f, g, theta):
    lhs = moyal_star(f, g, theta).conj()
    rhs = moyal_star(g.conj(), f.conj(), theta)
    scale = max(1.0, f.max_abs_coeff() * g.max_abs_coeff())
    assert lhs.allclose(rhs, tol=1e-10 * scale)


@settings(max_examples=30, deadline=None)
@given(V=poly_strategy(max_degree=3), psi=poly_strategy(max_degree=3),
       theta=st.floats(-1.0, 1.0))
def test_star_operator_dual_route_agrees(V, psi, theta):
    # the Moyal series and the Weyl-ordered differential operator
    assert moyal_star(V, psi, theta).allclose(
        apply_star_operator(V, psi, theta), tol=1e-12)


class TestGaugePotential:
    def test_component_validation(self):
        with pytest.raises(ArityMismatch):
            GaugePotential((x1(),))
        with pytest.raises(ArityMismatch):
            GaugePotential((x1(), PolySymbol.variable(4, 0)))

    def test_symmetric_star_gauge_components(self):
        A = symmetric_star_gauge(3.0)
        assert A.A[0].allclose(-1.5 * x2())
        assert A.A[1].allclose(1.5 * x1())


class TestFieldStrength:
    def test_symmetric_gauge_constant_field(self):
        # F12 = Bbar + e theta Bbar^2/4 = Lambda_bar * Bbar
        theta, bbar = 0.2, 1.0
        F = field_strength(symmetric_star_gauge(bbar), theta)
        assert F.allclose(PolySymbol.constant(2, lambda_bar(bbar, 1.0, theta) * bbar))

    def test_landau_type_gauge_has_no_star_correction(self):
        # A = (0, B x1): the components star-commute, so F12 = B exactly
        B = 2.0
        A = GaugePotential((PolySymbol.zero(2), B * x1()))
        for theta in (0.0, 0.3, 1.5):
            assert field_strength(A, theta).allclose(PolySymbol.constant(2, B))

    def test_position_dependent_field(self):
        # A = (0, B x1 + gamma x1^2): still x2-free, so no star correction
        B, gamma, theta = 3.0, 0.5, 0.3
        A = GaugePotential((PolySymbol.zero(2), B * x1() + gamma * x1() ** 2))
        expected = PolySymbol.constant(2, B) + (2.0 * gamma) * x1()
        assert field_strength(A, theta).allclose(expected)


class TestDisentangling:
    def test_bbar_defining_relation(self):
        p = NCParams(theta=0.1, B=0.0)
        eff = bbar_of_B(3.0, p)
        # Lambda_bar(Bbar) * Bbar must reproduce the physical B
        assert eff.Lambda_bar * eff.Bbar == pytest.approx(3.0, abs=1e-12)
        assert eff.Bbar == pytest.approx(
            2.0 * (math.sqrt(1.3) - 1.0) / 0.1, rel=1e-14
        )

    def test_effective_mass_and_charge(self):
        p = NCParams(theta=0.1, B=0.0, m=2.0)
        eff = bbar_of_B(3.0, p)
        assert eff.m_star == pytest.approx(2.0 / eff.Lambda_bar ** 2)
        assert eff.e_star == pytest.approx(1.0 / eff.Lambda_bar)

    def test_stable_across_tiny_theta(self):
        # the naive closed form sqrt(1+u)-1 loses ~eps/u relative digits
        # for tiny u; the rationalized form must hold the defining relation
        # at 1e-13 across the whole range
        for log_theta in range(-16, 0):
            p = NCParams(theta=10.0 ** log_theta, B=0.0)
            eff = bbar_of_B(1.0, p)
            assert eff.Lambda_bar * eff.Bbar == pytest.approx(1.0, abs=1e-13)

    def test_domain_error_beyond_branch_point(self):
        with pytest.raises(DomainError):
            bbar_of_B(-30.0, NCParams(theta=0.1, B=0.0))

    def test_zero_theta_identity(self):
        eff = bbar_of_B(2.0, NCParams(theta=0.0, B=0.0))
        assert eff.Bbar == pytest.approx(2.0)
        assert eff.Lambda_bar == pytest.approx(1.0)

    def test_spectrum_with_pinned_field(self):
        # Bbar chosen so that Lambda_bar * Bbar = B: spectrum is |B|(n+1/2)
        p = NCParams(theta=0.1, B=0.0)
        eff = bbar_of_B(3.0, p)
        res = star_landau_spectrum(p, eff.Bbar, 3)
        np.testing.assert_allclose(
            res, 3.0 * (np.arange(3) + 0.5), atol=1e-12
        )

    def test_spectrum_with_theta_independent_bbar(self):
        # fixing Bbar instead gives Lambda_bar * Bbar (n + 1/2)
        theta, bbar = 0.2, 1.0
        p = NCParams(theta=theta, B=0.0)
        res = star_landau_spectrum(p, bbar, 4)
        omega = lambda_bar(bbar, 1.0, theta) * bbar
        np.testing.assert_allclose(
            res, omega * (np.arange(4) + 0.5), atol=1e-12
        )

    def test_zero_theta_recovers_commutative_landau(self):
        p = NCParams(theta=0.0, B=0.0)
        res = star_landau_spectrum(p, 2.0, 2)
        np.testing.assert_allclose(res, [1.0, 3.0], atol=1e-14)

    @pytest.mark.parametrize("p, bbar", [
        (NCParams(theta=0.2, B=0.0), 0.0),
        (NCParams(e=0.0), 1.0),
    ])
    def test_zero_coupling_refused(self, p, bbar):
        # e B = 0 is a free particle: a continuous spectrum, no levels
        with pytest.raises(DomainError, match="no Landau structure"):
            star_landau_spectrum(p, bbar, 3)


class TestStarSpectrumCrossCheck:
    def test_against_number_basis_diagonalization(self):
        """Minimal coupling in the star formalism, realized as matrices.

        Pi_j = P_j - e A_j(X) on a faithful realization of the coordinate
        algebra gives [Pi_1, Pi_2] = i Lambda_bar Bbar, so the kinetic
        Hamiltonian must show Landau levels at Lambda_bar Bbar (n + 1/2).
        """
        theta, bbar = 0.2, 1.0
        p = NCParams(theta=theta, B=0.0)
        space = fock.FockSpace(24)
        ops = fock.realize_rep(symmetric_gauge_rep(p), space)
        A1, A2 = symmetric_star_gauge(bbar).A
        Pi1 = ops.P1 - quantize_poly(A1, ops.X1, ops.X2)
        Pi2 = ops.P2 - quantize_poly(A2, ops.X1, ops.X2)

        omega = lambda_bar(bbar, 1.0, theta) * bbar
        comm = commutator(Pi1, Pi2)
        assert interior_residual(comm, 1.0j * omega, degree=2) <= 1e-10

        H = 0.5 * (Pi1 @ Pi1 + Pi2 @ Pi2)
        evals = np.linalg.eigvalsh(H.matrix)
        targets = star_landau_spectrum(p, bbar, 3)
        for target in targets:
            assert np.min(np.abs(evals - target)) <= 1e-6


class TestSeibergWitten:
    def test_residual_vanishes_for_random_data(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            coeffs_a1 = rng.uniform(-2, 2, size=4)
            coeffs_a2 = rng.uniform(-2, 2, size=4)
            base = [x1(), x2(), x1() * x2(), x1() ** 2]
            A = GaugePotential((
                sum((c * m for c, m in zip(coeffs_a1, base)), PolySymbol.zero(2)),
                sum((c * m for c, m in zip(coeffs_a2, base)), PolySymbol.zero(2)),
            ))
            lam = rng.uniform(-1, 1) * x1() * x2() + rng.uniform(-1, 1) * x2() ** 2
            out = sw_first_order(A, lam, PolySymbol.zero(2), theta=0.4)
            for comp in out["residual"]:
                assert comp.max_abs_coeff() <= 1e-10

    def test_map_shifts_potential_at_first_order(self):
        # shift_i = -(e/2) theta^{kl} A_k (d_l A_i + F_{l i}) with
        # theta^{12} = +theta, theta^{21} = -theta.  For A = (0, B x1):
        #   shift_1: only k=2 survives (A_1 = 0), forcing l=1, and both
        #            d_1 A_1 and F_{11} vanish  =>  shift_1 = 0
        #   shift_2: k=2, l=1 gives +(e theta/2) A_2 (d_1 A_2 + F_{12})
        #            = (e theta/2)(B x1)(B + B) = e theta B^2 x1
        B, theta, e = 2.0, 0.3, 1.0
        A = GaugePotential((PolySymbol.zero(2), B * x1()), e=e)
        out = sw_first_order(A, PolySymbol.zero(2), PolySymbol.zero(2), theta)
        expected_2 = (e * theta * B * B) * x1()
        got_1 = out["A_check"][0] - A.A[0]
        got_2 = out["A_check"][1] - A.A[1]
        assert got_1.allclose(PolySymbol.zero(2), tol=1e-12)
        assert got_2.allclose(expected_2, tol=1e-12)

    def test_field_strength_map_quadratic_term(self):
        B, theta, e = 2.0, 0.3, 1.0
        A = GaugePotential((PolySymbol.zero(2), B * x1()), e=e)
        out = sw_first_order(A, PolySymbol.zero(2), PolySymbol.zero(2), theta)
        expected = PolySymbol.constant(2, B + e * theta * B * B)
        assert out["F_check"].allclose(expected, tol=1e-12)

    def test_wavefunction_shift(self):
        theta, e = 0.4, 1.0
        A = symmetric_star_gauge(2.0)
        psi = x1() + x2() ** 2
        out = sw_first_order(A, PolySymbol.zero(2), psi, theta)
        # psi_check = psi - (e theta/2)(A1 d2 psi - A2 d1 psi)
        A1, A2 = A.A
        expected = psi + (-0.5 * e * theta) * (
            A1 * psi.diff(1) - A2 * psi.diff(0)
        )
        assert out["psi_check"].allclose(expected, tol=1e-12)


class TestConstantFieldMap:
    def test_oracle_values(self):
        p = NCParams(theta=0.4, B=0.0)
        eff, res = sw_constant_field(0.5, p, k=3)
        # u = 0.2: B_check = 0.5/0.8 = 0.625, m_check = 1.25
        assert eff.B_check == pytest.approx(0.625, rel=1e-14)
        assert eff.m_check == pytest.approx(1.25, rel=1e-14)
        # spectrum is theta-independent: (|e B|/m)(n+1/2)
        np.testing.assert_allclose(
            res, 0.5 * (np.arange(3) + 0.5), atol=1e-14
        )

    def test_spectrum_theta_independent(self):
        for theta in (0.0, 0.1, 0.4):
            p = NCParams(theta=theta, B=0.0)
            _, res = sw_constant_field(2.0, p, k=4)
            np.testing.assert_allclose(
                res, 2.0 * (np.arange(4) + 0.5), atol=1e-14
            )

    def test_bbar_consistency_with_field_strength(self):
        # the returned Bbar realizes B_check through the symmetric gauge
        p = NCParams(theta=0.4, B=0.0)
        eff, _ = sw_constant_field(0.5, p)
        F = field_strength(symmetric_star_gauge(eff.Bbar), 0.4)
        assert F.allclose(PolySymbol.constant(2, eff.B_check), tol=1e-12)

    def test_domain_error_at_singularity(self):
        p = NCParams(theta=0.4, B=0.0)
        with pytest.raises(DomainError):
            sw_constant_field(2.5, p)
        with pytest.raises(DomainError):
            sw_constant_field(3.0, p)

    @pytest.mark.parametrize("curlyB, e", [(0.0, 1.0), (0.5, 0.0)])
    def test_zero_coupling_refused(self, curlyB, e):
        with pytest.raises(DomainError, match="no Landau structure"):
            sw_constant_field(curlyB, NCParams(theta=0.4, e=e))

    def test_zero_theta_identity_map(self):
        p = NCParams(theta=0.0, B=0.0)
        eff, _ = sw_constant_field(1.5, p)
        assert eff.B_check == pytest.approx(1.5)
        assert eff.Bbar == pytest.approx(1.5)


class TestStarOperatorAlgebra:
    def test_momentum_function_bracket(self):
        # [p_1, g star] = -i (d1 g) star
        theta = 0.3
        g = x1() ** 2 * x2()
        a = StarOp((1.0, 0.0), PolySymbol.zero(2))
        b = StarOp((0.0, 0.0), g)
        out = star_op_bracket(a, b, theta)
        assert out.fn.allclose(-1j * g.diff(0))

    def test_commutation_table_symmetric_gauge(self):
        theta, bbar = 0.2, 1.0
        table = star_commutation_table(symmetric_star_gauge(bbar), theta)
        lam = lambda_bar(bbar, 1.0, theta)
        t = table["table"]
        assert t[("x1", "x2")].allclose(PolySymbol.constant(2, 0.2j))
        assert t[("Pi1", "Pi2")].allclose(
            PolySymbol.constant(2, 1j * lam * bbar), tol=1e-12
        )
        # position-momentum entries pick up theta-dependent corrections
        assert t[("x1", "Pi1")].allclose(
            PolySymbol.constant(2, 1j * (1 + theta * bbar / 2)), tol=1e-12
        )
        assert t[("x1", "Pi2")].allclose(PolySymbol.zero(2), tol=1e-12)
        assert table["jacobi_residual"] <= 1e-12

    def test_commutation_table_position_dependent_gauge(self):
        theta = 0.3
        B, gamma = 3.0, 0.5
        A = GaugePotential((PolySymbol.zero(2), B * x1() + gamma * x1() ** 2))
        table = star_commutation_table(A, theta)
        F = table["field_strength"]
        expected_F = PolySymbol.constant(2, B) + (2 * gamma) * x1()
        assert F.allclose(expected_F, tol=1e-12)
        assert table["table"][("Pi1", "Pi2")].allclose(1j * expected_F, tol=1e-12)
        assert table["jacobi_residual"] <= 1e-12

    def test_jacobi_closes_for_random_gauges(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            A = GaugePotential((
                rng.uniform(-1, 1) * x2() + rng.uniform(-1, 1) * x1() * x2(),
                rng.uniform(-1, 1) * x1() + rng.uniform(-1, 1) * x1() ** 2,
            ))
            table = star_commutation_table(A, 0.4)
            assert table["jacobi_residual"] <= 1e-11


def test_star_imports_no_fock_layer():
    # the closed-form routes return plain arrays, so importing star loads
    # neither the Fock layer nor scipy.sparse
    code = ("import sys, ncqmlab.star; "
            "print('ncqmlab.fock' in sys.modules, 'scipy.sparse' in sys.modules)")
    src = os.path.dirname(os.path.dirname(fock.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "False"]
