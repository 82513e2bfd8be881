"""Tests for linear and momentum-gauge representations of the deformed algebra.

Oracles
-------
* The commutator table of any faithful representation must equal the
  deformed-algebra target entrywise, and its matrix determinant must equal
  kappa = 1 - theta*B (computed here from first principles for a
  4x4 linear map acting on canonical xi = (X1, X2, P1, P2)).
* Decoupled generators K_i = P_hat_i -/+ X_hat_j / theta must commute with
  the X_hat pair and satisfy [K1, K2] = -i*kappa/theta.
* The library's symmetric-gauge rep is the a = 1, plus-branch member of
  the oracles module's two-branch family, bit for bit; every member is
  faithful.
* Momentum-gauge potentials A_tilde(p) of the oracles module carry
  curl(A_tilde) = theta; gauge changes are generated by a scalar function
  alpha with A_to = A_from + grad(alpha).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncqmlab.errors import ArityMismatch, NegativeKappa
from ncqmlab.params import NCParams, is_singular, kappa
from ncqmlab.polysymbol import PolySymbol
from ncqmlab.reps import (
    commutator_table,
    landau_gauge_rep,
    symmetric_gauge_rep,
    symmetric_vector_potential,
    table_residual,
    target_table,
    vector_potential_rep,
)
from oracles import (allclose, decouple, det, gauge_function,
                     landau_momentum_gauge, symmetric_gauge_family,
                     symmetric_momentum_gauge)

# [x_i, p_j] = i delta_ij in xi = (x1, x2, p1, p2) order
CANONICAL_OMEGA = np.array(
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)


def brute_commutator_table(matrix: np.ndarray) -> np.ndarray:
    """Independent oracle: table_ij = (M Omega M^T)_ij for linear maps."""
    return matrix @ CANONICAL_OMEGA @ matrix.T


class TestTargetTable:
    def test_layout(self):
        p = NCParams(theta=0.3, B=2.0)
        t = target_table(p)
        # rows and columns in xi = (X1, X2, P1, P2) order
        expected = np.array(
            [
                [0.0, 0.3, 1.0, 0.0],
                [-0.3, 0.0, 0.0, 1.0],
                [-1.0, 0.0, 0.0, 2.0],
                [0.0, -1.0, -2.0, 0.0],
            ]
        )
        np.testing.assert_allclose(t, expected, atol=0.0)

    def test_antisymmetric(self):
        t = target_table(NCParams(theta=0.7, B=-1.3))
        np.testing.assert_allclose(t + t.T, 0.0, atol=0.0)

    def test_entries_use_bare_algebra_parameters(self):
        # the table is a statement about the algebra itself: the momentum
        # entry is B, regardless of the charge used in dynamics
        p = NCParams(theta=0.2, B=3.0, e=2.0)
        t = target_table(p)
        assert t[2, 3] == pytest.approx(3.0, abs=0.0)


class TestLandauGaugeRep:
    def test_table_matches_target(self):
        p = NCParams(theta=0.3, B=2.0)
        rep = landau_gauge_rep(p)
        np.testing.assert_allclose(
            commutator_table(rep), target_table(p), atol=1e-14
        )
        assert table_residual(rep) <= 1e-14

    def test_brute_force_table_oracle(self):
        p = NCParams(theta=0.5, B=-1.2)
        rep = landau_gauge_rep(p)
        np.testing.assert_allclose(
            commutator_table(rep), brute_commutator_table(rep.matrix), atol=1e-14
        )

    def test_determinant_equals_kappa(self):
        for theta, B in [(0.3, 2.0), (0.1, -4.0), (0.0, 1.0), (1.0, 1.0)]:
            p = NCParams(theta=theta, B=B)
            rep = landau_gauge_rep(p)
            assert det(rep) == pytest.approx(kappa(p), abs=1e-13)

    def test_works_at_any_kappa_sign(self):
        # the triangular construction has no branch cut
        p = NCParams(theta=0.5, B=3.0)  # kappa = -0.5
        rep = landau_gauge_rep(p)
        assert table_residual(rep) <= 1e-14
        assert det(rep) == pytest.approx(-0.5, abs=1e-13)

    def test_singular_at_kappa_zero(self):
        p = NCParams(theta=0.5, B=2.0)  # kappa = 0
        rep = landau_gauge_rep(p)
        assert det(rep) == pytest.approx(0.0, abs=1e-14)
        assert is_singular(p)


class TestSymmetricGaugeRep:
    @pytest.mark.parametrize("p", [NCParams(theta=0.3, B=2.0),
                                   NCParams(theta=0.0, B=-1.5),
                                   NCParams(theta=-1e-9, B=2.0),
                                   NCParams(theta=0.5, B=2.0)])
    def test_library_rep_is_the_unit_plus_member(self, p):
        rep = symmetric_gauge_rep(p)
        member = symmetric_gauge_family(p)
        assert np.array_equal(rep.matrix, member.matrix)
        assert (rep.c, rep.d) == (member.c, member.d)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_table_and_determinant(self, a, branch):
        p = NCParams(theta=0.3, B=2.0)
        rep = symmetric_gauge_family(p, a=a, branch=branch)
        assert table_residual(rep) <= 1e-12
        assert det(rep) == pytest.approx(kappa(p), abs=1e-12)

    def test_coefficient_formulas(self):
        # c = (1 + sqrt(kappa)) / (2a), d = (a/theta) (1 - sqrt(kappa))
        p = NCParams(theta=0.3, B=2.0)
        root = np.sqrt(kappa(p))
        a = 1.25
        rep = symmetric_gauge_family(p, a=a, branch="plus")
        assert rep.c == pytest.approx((1 + root) / (2 * a), rel=1e-14)
        assert rep.d == pytest.approx((a / 0.3) * (1 - root), rel=1e-14)
        repint = symmetric_gauge_family(p, a=a, branch="minus")
        assert repint.c == pytest.approx((1 - root) / (2 * a), rel=1e-14)
        assert repint.d == pytest.approx((a / 0.3) * (1 + root), rel=1e-14)

    def test_branches_are_distinct_but_both_faithful(self):
        p = NCParams(theta=0.4, B=1.0)
        plus = symmetric_gauge_family(p, branch="plus")
        minus = symmetric_gauge_family(p, branch="minus")
        assert not np.allclose(plus.matrix, minus.matrix)
        for rep in (plus, minus):
            np.testing.assert_allclose(
                commutator_table(rep), target_table(p), atol=1e-12
            )

    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_plus_branch_at_zero_theta_is_the_symmetric_potential(self, a):
        # c = 1/a, d = a B / 2: on the canonical pair (a X_j, P_j / a) the
        # rep is X_j, P_j - A_j(X) with A = (-B x2/2, B x1/2)
        p = NCParams(theta=0.0, B=-1.5)
        rep = symmetric_gauge_family(p, a=a)
        assert (rep.c, rep.d) == (1.0 / a, a * p.B / 2.0)
        assert table_residual(rep) == 0.0
        assert det(rep) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("theta", [1e-3, 1e-5, 1e-9, 1e-12, -1e-9])
    def test_small_theta_loses_no_digits(self, theta):
        # the form (a/theta)(1 - sqrt(kappa)) loses about |log10 theta B|
        # digits of d to cancellation: a table residual of 8.2e-8 at
        # theta = 1e-9, B = 1
        p = NCParams(theta=theta, B=2.0)
        rep = symmetric_gauge_rep(p)
        assert table_residual(rep) <= 4e-16
        d = p.B / (1.0 + np.sqrt(kappa(p)))
        assert rep.d == pytest.approx(d, rel=1e-15)

    def test_negative_kappa_rejected(self):
        with pytest.raises(NegativeKappa):
            symmetric_gauge_rep(NCParams(theta=0.5, B=3.0))

    def test_kappa_zero_is_degenerate_not_an_error(self):
        p = NCParams(theta=0.5, B=2.0)
        rep = symmetric_gauge_rep(p)
        assert det(rep) == pytest.approx(0.0, abs=1e-14)
        assert table_residual(rep) <= 1e-12


class TestDecouple:
    def test_k_commutator_value(self):
        p = NCParams(theta=0.3, B=2.0)
        kk, _ = decouple(p)
        assert kk == pytest.approx(-kappa(p) / 0.3, abs=1e-13)

    def test_k_commutes_with_positions(self):
        p = NCParams(theta=0.25, B=-1.5)
        _, xk = decouple(p, symmetric_gauge_rep(p))
        np.testing.assert_allclose(xk, 0.0, atol=1e-13)

    def test_central_at_kappa_zero(self):
        # at the singular point the K pair commutes with everything:
        # the effective degrees of freedom drop from two to one
        p = NCParams(theta=0.5, B=2.0)
        kk, xk = decouple(p)
        assert abs(kk) <= 1e-13
        np.testing.assert_allclose(xk, 0.0, atol=1e-13)

    def test_degenerate_eigenfunction_family(self):
        """At kappa=0 the operator K2 = P2 + X1/theta acts on the family
        psi = f(x1) * exp(i (lam - x1/theta) x2) as multiplication by lam,
        for ANY profile f: a one-parameter family of eigenfunctions.

        Conjugating by the phase shifts p2 -> p2 + (lam - x1/theta); on the
        symbol level the shifted K2 must collapse to the constant lam plus a
        pure p2 term that annihilates x2-independent profiles.
        """
        theta = 0.5
        lam = 0.7
        x1 = PolySymbol.variable(4, 0)
        p2 = PolySymbol.variable(4, 3)
        k2_symbol = p2 + x1 * (1.0 / theta)
        shifted = (p2 + lam - x1 * (1.0 / theta)) + x1 * (1.0 / theta)
        assert shifted.allclose(p2 + lam)
        # sanity: the unshifted symbol is not already diagonal
        assert not k2_symbol.allclose(p2 + lam)


class TestMomentumGauges:
    def test_symmetric_gauge_curl(self):
        theta = 0.4
        a1, a2 = symmetric_momentum_gauge(theta)
        curl = a1.diff(1) - a2.diff(0)
        assert curl.allclose(PolySymbol.constant(2, theta))

    def test_landau_gauge_curl(self):
        theta = 0.4
        a1, a2 = landau_momentum_gauge(theta)
        curl = a1.diff(1) - a2.diff(0)
        assert curl.allclose(PolySymbol.constant(2, theta))

    def test_gauge_function_exactness(self):
        theta = 0.6
        src = symmetric_momentum_gauge(theta)
        dst = landau_momentum_gauge(theta)
        alpha = gauge_function(src, dst)
        for j in range(2):
            diff = dst[j] - src[j]
            assert allclose(diff, alpha.diff(j), 1e-13)

    def test_gauge_function_between_custom_gauges(self):
        theta = 0.5
        p1 = PolySymbol.variable(2, 0)
        p2 = PolySymbol.variable(2, 1)
        src = (p2 * theta, PolySymbol.zero(2))
        dst = (p2 * (theta / 2), p1 * (-theta / 2))
        alpha = gauge_function(src, dst)
        for j in range(2):
            diff = dst[j] - src[j]
            assert allclose(diff, alpha.diff(j), 1e-13)


class TestVectorPotentialRep:
    def test_symmetric_potential_field(self):
        B = 2.5
        A = symmetric_vector_potential(B)
        rep = vector_potential_rep(A, NCParams(theta=0.0, B=B))
        field = rep.field
        assert field.allclose(PolySymbol.constant(2, B))

    def test_position_dependent_field(self):
        # A = (0, x1 + x1^2) has curl 1 + 2 x1
        x1 = PolySymbol.variable(2, 0)
        A = (PolySymbol.zero(2), x1 + x1 * x1)
        rep = vector_potential_rep(A, NCParams(theta=0.0, B=1.0))
        expected = PolySymbol.constant(2, 1.0) + x1 * 2.0
        assert rep.field.allclose(expected)

    def test_components_of_another_arity_rejected(self):
        A = (PolySymbol.zero(2), PolySymbol.variable(4, 0))
        with pytest.raises(ArityMismatch, match="arity-2"):
            vector_potential_rep(A, NCParams(theta=0.0, B=1.0))


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(-0.9, 0.9),
    B=st.floats(-2.0, 2.0),
)
def test_landau_rep_table_always_matches(theta, B):
    p = NCParams(theta=theta, B=B)
    rep = landau_gauge_rep(p)
    assert table_residual(rep) <= 1e-12
    assert abs(det(rep) - kappa(p)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(0.05, 0.9),
    B=st.floats(-2.0, 2.0),
    a=st.floats(0.3, 3.0),
)
def test_symmetric_rep_table_always_matches(theta, B, a):
    p = NCParams(theta=theta, B=B)
    if kappa(p) < 0.0:
        with pytest.raises(NegativeKappa):
            symmetric_gauge_rep(p)
        return
    rep = symmetric_gauge_family(p, a=a)
    assert table_residual(rep) <= 1e-11
    assert abs(det(rep) - kappa(p)) <= 1e-11
