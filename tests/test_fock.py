"""Tests for the truncated two-mode number-basis engine.

Oracles
-------
* Ladder matrix elements a|n> = sqrt(n)|n-1> are written out directly.
* The symmetrized (Weyl) monomial has an independent brute-force oracle:
  the average over all distinct orderings of the factors.
* Quantized radial monomials on a central-commutator pair have closed-form
  diagonals: r^2 -> 2 theta (n + 1/2) (Weyl), r^4 -> (2 theta)^2 (n+1)(n+2)
  (anti-normal) and (2 theta)^2 n(n-1) (normal).
* Landau level energies omega_B (n + 1/2) with omega_B = |e B|/m
  are recomputed here from the parameter record.
"""

import math
from itertools import permutations

import numpy as np
import pytest

from ncqmlab.errors import (
    DomainError,
    NonHermitian,
    ThetaNonPositive,
    UnresolvedSpectrum,
)
from ncqmlab.params import NCParams
from ncqmlab.peierls import boundary_weights, lowest_unpolluted
from ncqmlab.polysymbol import PolySymbol, x1, x2
from ncqmlab.fock import (
    Cluster,
    FockOperator,
    FockSpace,
    Prescription,
    SpectrumResult,
    build_canonical_ops,
    cluster_eigenvalues,
    dominant_clusters,
    kinetic_hamiltonian,
    ladder,
    poly_of_commuting,
    quantize_matrix_pair,
    realize_rep,
    spectrum,
    suggested_scale,
)
from ncqmlab.reps import (
    LinearRep,
    commutator_table,
    landau_gauge_rep,
    symmetric_gauge_rep,
    symmetric_vector_potential,
    vector_potential_rep,
)
from oracles import (commutator, interior_residual, landau_closed_forms,
                     quantize_poly, realize, symmetric_gauge_family,
                     symmetric_momentum_gauge, unitary_from_hermitian)


def unpolluted(H: FockOperator, k: int) -> np.ndarray:
    """H's lowest k eigenvalues through the one pollution rule."""
    return lowest_unpolluted(H.solve().eigenvalues, boundary_weights(H), k,
                             "n_max", H.space.n_max)


def weyl_average_reference(e1: int, e2: int, X1: np.ndarray,
                           X2: np.ndarray) -> np.ndarray:
    """Brute-force multiset-permutation average (small degrees)."""
    word = (0,) * e1 + (1,) * e2
    mats = (X1, X2)
    seen = set(permutations(word))
    total = np.zeros_like(X1)
    for order in seen:
        prod = np.eye(X1.shape[0], dtype=complex)
        for idx in order:
            prod = prod @ mats[idx]
        total += prod
    return total / len(seen)


class TestFockSpace:
    def test_dimension_and_occupations(self):
        space = FockSpace(4)
        assert space.dim == 25
        occ = space.occupations
        assert occ.shape == (25, 2)
        # first block runs over the second mode
        np.testing.assert_array_equal(occ[:5, 0], 0)
        np.testing.assert_array_equal(occ[:5, 1], np.arange(5))

    def test_interior_mask(self):
        space = FockSpace(6)
        mask = space.interior_mask(1)
        occ = space.occupations
        np.testing.assert_array_equal(
            mask, (occ[:, 0] <= 4) & (occ[:, 1] <= 4)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FockSpace(3)
        with pytest.raises(ValueError):
            FockSpace(6, scale=0.0)

    def test_interior_needs_room(self):
        with pytest.raises(ValueError):
            FockSpace(4).interior_mask(3)


class TestLadder:
    def test_matrix_elements(self):
        space = FockSpace(5)
        a = ladder(space, 0)
        occ = space.occupations
        for row in range(space.dim):
            for col in range(space.dim):
                n1, n2 = occ[col]
                expected = 0.0
                if n1 >= 1 and (occ[row] == (n1 - 1, n2)).all():
                    expected = math.sqrt(n1)
                assert a.matrix[row, col] == pytest.approx(expected, abs=0.0)

    def test_commutator_is_one_below_cutoff(self):
        space = FockSpace(6)
        for mode in (0, 1):
            a = ladder(space, mode)
            comm = commutator(a, a.dagger())
            assert interior_residual(comm, 1.0, degree=1) <= 1e-14

    def test_modes_commute(self):
        space = FockSpace(5)
        a0, a1 = ladder(space, 0), ladder(space, 1)
        assert np.max(np.abs(commutator(a0, a1).matrix)) == 0.0


class TestCanonicalOps:
    def test_canonical_commutators(self):
        space = FockSpace(8)
        ops = build_canonical_ops(space)
        assert interior_residual(commutator(ops.X1, ops.P1), 1.0j) <= 1e-13
        assert interior_residual(commutator(ops.X2, ops.P2), 1.0j) <= 1e-13
        assert interior_residual(commutator(ops.X1, ops.X2), 0.0) <= 1e-13
        assert interior_residual(commutator(ops.X1, ops.P2), 0.0) <= 1e-13

    def test_hermitian(self):
        ops = build_canonical_ops(FockSpace(6))
        for op in ops.as_tuple():
            assert op.hermitian_flag

    def test_scale_stretches_position(self):
        s = 1.7
        unit = build_canonical_ops(FockSpace(6))
        stretched = build_canonical_ops(FockSpace(6, scale=s))
        np.testing.assert_allclose(
            stretched.X1.matrix, s * unit.X1.matrix, atol=1e-14
        )
        np.testing.assert_allclose(
            stretched.P1.matrix, unit.P1.matrix / s, atol=1e-14
        )


class TestFockOperatorAlgebra:
    def test_degree_bookkeeping(self):
        ops = build_canonical_ops(FockSpace(6))
        quad = ops.X1 @ ops.X1
        assert quad.degree == 2
        assert (quad + ops.X1).degree == 2

    def test_scalar_arithmetic(self):
        ops = build_canonical_ops(FockSpace(6))
        shifted = ops.X1 + 2.5
        np.testing.assert_allclose(
            shifted.matrix, ops.X1.matrix + 2.5 * np.eye(49), atol=0.0
        )
        np.testing.assert_allclose(
            (1.0 - ops.X1).matrix, np.eye(49) - ops.X1.matrix, atol=0.0
        )

    def test_space_mismatch_rejected(self):
        a = build_canonical_ops(FockSpace(6)).X1
        b = build_canonical_ops(FockSpace(8)).X1
        with pytest.raises(ValueError):
            _ = a + b

    def test_hermitian_flag_detects_defect(self):
        space = FockSpace(4)
        mat = np.zeros((space.dim, space.dim))
        mat[0, 1] = 1.0
        assert not FockOperator(mat, space).hermitian_flag

    @pytest.mark.parametrize("vectors", [True, False])
    def test_solve_refuses_non_hermitian(self, vectors):
        space = FockSpace(4)
        mat = np.zeros((space.dim, space.dim))
        mat[0, 1] = 1.0
        op = FockOperator(mat, space)
        for _ in range(2):
            with pytest.raises(NonHermitian):
                op.solve(vectors)
        assert op._solves == {}

    def test_interior_residual_scalar_and_matrix_targets(self):
        space = FockSpace(6)
        ops = build_canonical_ops(space)
        comm = commutator(ops.X1, ops.P1)
        scalar = interior_residual(comm, 1.0j, degree=1)
        matrix = interior_residual(comm, 1.0j * np.eye(space.dim), degree=1)
        assert scalar == pytest.approx(matrix, abs=1e-15)


class TestRealizeRep:
    def test_linear_rep_realizes_algebra(self):
        """reps and fock share the xi = (x1, x2, p1, p2) order: every
        interior commutator of the realized operators is i times the
        entry of reps.commutator_table, for the gauge reps and for random
        real maps alike."""
        p = NCParams(theta=0.3, B=2.0)
        space = FockSpace(10, scale=1.3)
        rng = np.random.default_rng(11)
        reps = [landau_gauge_rep(p), symmetric_gauge_rep(p),
                symmetric_gauge_family(p, a=0.7, branch="minus")]
        reps += [LinearRep(rng.uniform(-2.0, 2.0, (4, 4)), p)
                 for _ in range(4)]
        for rep in reps:
            ops = realize_rep(rep, space).as_tuple()
            table = commutator_table(rep)
            for i in range(4):
                for j in range(i + 1, 4):
                    residual = interior_residual(
                        commutator(ops[i], ops[j]), 1.0j * table[i, j])
                    assert residual <= 1e-12 * max(1.0, abs(table[i, j]))
        # the named fields of both gauge reps read the algebra itself
        for rep in reps[:2]:
            ops = realize_rep(rep, space)
            assert interior_residual(commutator(ops.X1, ops.X2), 0.3j) <= 1e-12
            assert interior_residual(commutator(ops.P1, ops.P2), 2.0j) <= 1e-12
            assert interior_residual(commutator(ops.X1, ops.P1), 1.0j) <= 1e-12
            assert interior_residual(commutator(ops.X2, ops.P1), 0.0) <= 1e-12

    def test_momentum_gauge_realizes_algebra(self):
        theta = 0.4
        space = FockSpace(10)
        ops = realize(symmetric_momentum_gauge(theta), space)
        assert interior_residual(commutator(ops.X1, ops.X2),
                                 1.0j * theta) <= 1e-12
        # momenta stay canonical exactly
        assert np.max(np.abs(commutator(ops.P1, ops.P2).matrix)) <= 1e-14
        assert interior_residual(commutator(ops.X1, ops.P1), 1.0j) <= 1e-12

    def test_vector_potential_rep_realizes_field(self):
        p = NCParams(theta=0.0, B=2.0, e=0.5)
        space = FockSpace(10)
        rep = vector_potential_rep(symmetric_vector_potential(2.0), p)
        ops = realize_rep(rep, space)
        # [P1 - e A1, P2 - e A2] = i e B
        target = 1.0j * 0.5 * 2.0
        assert interior_residual(commutator(ops.P1, ops.P2), target) <= 1e-12
        assert np.max(np.abs(commutator(ops.X1, ops.X2).matrix)) <= 1e-14

    def test_unsupported_rep_rejected(self):
        with pytest.raises(TypeError):
            realize_rep(object(), FockSpace(4))


class TestWeylSymmetrization:
    def test_mccoy_matches_permutation_average(self):
        # noncommuting pair with central commutator i*theta
        p = NCParams(theta=0.4, B=0.0)
        space = FockSpace(12)  # degree-6 monomials need interior room
        ops = realize_rep(symmetric_gauge_rep(p), space)
        M1, M2 = ops.X1.matrix, ops.X2.matrix
        for e1 in range(4):
            for e2 in range(4):
                monomial = PolySymbol(2, {(e1, e2): 1.0})
                lhs = quantize_poly(monomial, ops.X1, ops.X2).matrix
                rhs = weyl_average_reference(e1, e2, M1, M2)
                # the two symmetrized forms agree as operators; on the
                # truncated space they differ only in the corrupted
                # boundary shells, so compare interior blocks
                mask = space.interior_mask(max(e1 + e2, 1))
                block = np.ix_(mask, mask)
                assert np.max(np.abs(lhs[block] - rhs[block])) <= 1e-11


class TestQuantize:
    def test_weyl_on_commuting_pair_is_plain_evaluation(self):
        space = FockSpace(8)
        ops = build_canonical_ops(space)
        V = x1() ** 2 * x2() + 3.0 * x2() ** 2
        direct = (
            ops.X1.matrix @ ops.X1.matrix @ ops.X2.matrix
            + 3.0 * ops.X2.matrix @ ops.X2.matrix
        )
        quantized = quantize_matrix_pair(V, ops.X1.matrix, ops.X2.matrix)
        assert np.max(np.abs(quantized - direct)) <= 1e-12

    @staticmethod
    def _central_pair(theta: float, dim: int):
        a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
        root = math.sqrt(theta / 2.0)
        U1 = root * (a + a.conj().T)
        U2 = 1.0j * root * (a.conj().T - a)
        return U1, U2

    def test_weyl_radial_square(self):
        theta = 0.4
        U1, U2 = self._central_pair(theta, 12)
        r2 = x1() ** 2 + x2() ** 2
        Q = quantize_matrix_pair(r2, U1, U2, Prescription.WEYL)
        n = np.arange(10)
        np.testing.assert_allclose(
            np.diag(Q).real[:10], 2.0 * theta * (n + 0.5), atol=1e-12
        )

    def test_antinormal_radial_fourth_power(self):
        theta = 0.4
        U1, U2 = self._central_pair(theta, 14)
        r4 = (x1() ** 2 + x2() ** 2) ** 2
        Q = quantize_matrix_pair(r4, U1, U2, "antinormal", theta=theta)
        n = np.arange(10)
        target = (2.0 * theta) ** 2 * (n + 1.0) * (n + 2.0)
        np.testing.assert_allclose(np.diag(Q).real[:10], target, atol=1e-10)

    def test_normal_radial_fourth_power(self):
        theta = 0.4
        U1, U2 = self._central_pair(theta, 14)
        r4 = (x1() ** 2 + x2() ** 2) ** 2
        Q = quantize_matrix_pair(r4, U1, U2, Prescription.NORMAL, theta=theta)
        n = np.arange(10)
        target = (2.0 * theta) ** 2 * n * (n - 1.0)
        np.testing.assert_allclose(np.diag(Q).real[:10], target, atol=1e-10)

    def test_prescriptions_differ_by_ordering_terms(self):
        theta = 0.3
        U1, U2 = self._central_pair(theta, 10)
        r2 = x1() ** 2 + x2() ** 2
        w = quantize_matrix_pair(r2, U1, U2, Prescription.WEYL)
        nm = quantize_matrix_pair(r2, U1, U2, Prescription.NORMAL, theta=theta)
        an = quantize_matrix_pair(r2, U1, U2, Prescription.ANTINORMAL, theta=theta)
        # r^2: normal = 2 theta n, Weyl = 2 theta (n + 1/2), anti = 2 theta (n+1)
        assert np.diag(w - nm).real[0] == pytest.approx(theta, abs=1e-12)
        assert np.diag(an - w).real[0] == pytest.approx(theta, abs=1e-12)

    def test_ordered_prescriptions_need_positive_theta(self):
        U1, U2 = self._central_pair(0.3, 8)
        r2 = x1() ** 2 + x2() ** 2
        with pytest.raises(ThetaNonPositive):
            quantize_matrix_pair(r2, U1, U2, Prescription.NORMAL)
        with pytest.raises(ThetaNonPositive):
            quantize_matrix_pair(r2, U1, U2, "antinormal", theta=-0.5)

    def test_complex_coefficients_rejected(self):
        U1, U2 = self._central_pair(0.3, 8)
        with pytest.raises(ValueError):
            quantize_matrix_pair(1.0j * x1(), U1, U2)


class TestPolyOfCommuting:
    def test_matches_direct_evaluation(self):
        space = FockSpace(8)
        ops = build_canonical_ops(space)
        poly = 2.0 * x1() ** 2 - x2() + 0.5
        op = poly_of_commuting(poly, ops.X1, ops.X2)
        direct = (
            2.0 * ops.X1.matrix @ ops.X1.matrix
            - ops.X2.matrix
            + 0.5 * np.eye(space.dim)
        )
        assert np.max(np.abs(op.matrix - direct)) <= 1e-12

    def test_complex_coefficients_flagged(self):
        ops = build_canonical_ops(FockSpace(6))
        with pytest.raises(NonHermitian):
            poly_of_commuting(1.0j * x1(), ops.X1, ops.X2)

    def test_arity_checked(self):
        ops = build_canonical_ops(FockSpace(6))
        with pytest.raises(ValueError):
            poly_of_commuting(PolySymbol.variable(4, 0), ops.X1, ops.X2)


class TestSpectrumMachinery:
    def test_cluster_eigenvalues_groups_degenerate_copies(self):
        evals = np.array([0.5, 0.5 + 1e-13, 0.5 + 2e-13, 1.5, 1.5 + 1e-13, 3.0])
        groups = cluster_eigenvalues(evals)
        assert [len(g) for g in groups] == [3, 2, 1]

    def test_spectrum_and_dominant_clusters(self):
        # synthetic diagonal operator with Landau-like degeneracy pattern:
        # fat degenerate levels plus a lone truncation straggler at 0.9
        space = FockSpace(4)  # dim 25
        levels = np.concatenate(
            [
                np.full(10, 0.5),
                [0.9],
                np.full(5, 1.5),
                np.linspace(2.5, 9.0, 9),
            ]
        )
        H = FockOperator(np.diag(np.sort(levels)), space)
        res = spectrum(H, 10)
        doms = dominant_clusters(res, 2)
        assert [c.mean for c in doms] == pytest.approx([0.5, 1.5])
        assert [c.multiplicity for c in doms] == [10, 5]

    def test_dominant_clusters_ambiguity(self):
        space = FockSpace(4)
        H = FockOperator(np.diag(np.linspace(0.0, 5.0, 25)), space)
        res = spectrum(H, 10)
        with pytest.raises(UnresolvedSpectrum):
            dominant_clusters(res, 3)

    def test_spectrum_requires_hermitian(self):
        space = FockSpace(4)
        mat = np.zeros((25, 25))
        mat[0, 1] = 1.0
        with pytest.raises(NonHermitian):
            spectrum(FockOperator(mat, space), 3)

    def test_pollution_filter_removes_subground_artifacts(self):
        # strong constant field: truncation corrupts edge states and the
        # corrupted eigenvalues dive BELOW the physical ground state
        B = 50.0
        p = NCParams(theta=0.0, B=B)
        rep = vector_potential_rep(symmetric_vector_potential(B), p)
        space = FockSpace(12, scale=suggested_scale(rep))
        H = kinetic_hamiltonian(realize_rep(rep, space))
        raw = np.linalg.eigvalsh(H.matrix)
        filtered = unpolluted(H, 6)
        assert raw[0] < 0.95 * (B / 2.0)  # artifact present below E_0
        assert filtered[0] == pytest.approx(B / 2.0, rel=1e-9)

    def test_everything_polluted_raises(self):
        space = FockSpace(4)
        # free-hopping chain: every eigenvector is delocalized across the
        # whole basis, so all of them carry weight on the boundary shells
        dim = space.dim
        mat = np.diag(np.ones(dim - 1), 1) + np.diag(np.ones(dim - 1), -1)
        with pytest.raises(UnresolvedSpectrum,
                           match="every eigenvector is boundary-polluted"):
            unpolluted(FockOperator(mat, space), 3)

    def test_unresolved_levels_are_domain_refusals(self):
        space = FockSpace(4)
        H = FockOperator(np.diag(np.linspace(0.0, 5.0, 25)), space)
        with pytest.raises(UnresolvedSpectrum, match="raise n_max") as err:
            dominant_clusters(spectrum(H, 10), 3)
        assert isinstance(err.value, DomainError)
        chain = np.diag(np.ones(24), 1) + np.diag(np.ones(24), -1)
        with pytest.raises(UnresolvedSpectrum, match="n_max = 4"):
            unpolluted(FockOperator(chain, space), 3)

    def test_fewer_clean_eigenvectors_than_asked_is_refused(self):
        # a diagonal operator's eigenvectors are basis states; the 9 with
        # both occupations <= 2 carry no weight on the boundary shells
        H = FockOperator(np.diag(np.arange(25.0)), FockSpace(4))
        with pytest.raises(UnresolvedSpectrum,
                           match="only 9 of 10 eigenvectors .* n_max = 4"):
            unpolluted(H, 10)
        assert len(unpolluted(H, 9)) == 9

    def test_drifted_copies_count_as_one_level(self):
        # a pair of drifted ground-level copies 3e-7 above the level
        # qualifies as a cluster of its own, but is not a second level
        space = FockSpace(4)  # dim 25
        levels = np.concatenate([
            np.full(8, 0.5), np.full(2, 0.5 + 3e-7), np.full(4, 1.5),
            np.linspace(2.5, 9.0, 11),
        ])
        res = spectrum(FockOperator(np.diag(levels), space), 14)
        ground, first = dominant_clusters(res, 2)
        assert ground.multiplicity == 10
        assert ground.mean == pytest.approx(0.5 + 0.2 * 3e-7, abs=1e-15)
        assert ground.spread == pytest.approx(3e-7, rel=1e-9)
        assert (first.mean, first.multiplicity) == (1.5, 4)


class TestLandauPhysics:
    def test_kinetic_spectrum_with_nondefault_couplings(self):
        p = NCParams(theta=0.0, B=1.0, e=2.0 / 3.0, m=1.5)
        rep = vector_potential_rep(symmetric_vector_potential(1.0), p)
        space = FockSpace(16, scale=suggested_scale(rep))
        H = kinetic_hamiltonian(realize_rep(rep, space), m=1.5)
        res = spectrum(H, 40)
        doms = dominant_clusters(res, 3)
        omega_B = abs(2.0 / 3.0 * 1.0) / 1.5
        for n, cluster in enumerate(doms):
            assert cluster.mean == pytest.approx(omega_B * (n + 0.5), rel=1e-9)

    def test_unit_basis_does_not_report_the_ground_level_twice(self):
        # at n_max = 20 a drifted pair of ground-level copies forms its
        # own qualifying cluster at this field
        B = 1.5450825775222456
        p = NCParams(theta=0.0, B=B)
        rep = vector_potential_rep(symmetric_vector_potential(B), p)
        H = kinetic_hamiltonian(realize_rep(rep, FockSpace(20)))
        doms = dominant_clusters(spectrum(H, 2), 2)
        np.testing.assert_allclose([c.mean for c in doms],
                                   B * (np.arange(2) + 0.5), rtol=2e-7)

    def test_spectrum_reports_blocks_and_bound(self):
        p = NCParams(theta=0.3, B=1.0)
        rep = symmetric_gauge_rep(p)
        for scale, blocks in ((suggested_scale(rep), 2 * 10 + 1), (1.0, 2)):
            H = kinetic_hamiltonian(realize_rep(rep, FockSpace(10,
                                                               scale=scale)))
            res = spectrum(H, 3)
            assert res.blocks == blocks
            assert res.error_bound <= 1e-13 * np.max(np.abs(H.matrix)) \
                * H.space.dim
            dense = np.linalg.eigvalsh(H.matrix)
            assert np.max(np.abs(res.eigenvalues - dense[:3])) <= \
                res.error_bound + 1e-12 * np.max(np.abs(dense))

    def test_closed_forms(self):
        p = NCParams(theta=0.3, B=2.0)
        energies, omega_B, density_of_states = landau_closed_forms(p, k=4)
        np.testing.assert_allclose(
            energies, 2.0 * (np.arange(4) + 0.5), atol=1e-14
        )
        assert omega_B == pytest.approx(2.0)
        assert density_of_states == pytest.approx(
            abs(2.0 / (1 - 0.6)) / (2 * math.pi)
        )


class TestSuggestedScale:
    def test_symmetric_family_balance(self):
        p = NCParams(theta=0.3, B=2.0)
        rep = symmetric_gauge_family(p, a=1.2)
        assert suggested_scale(rep) == pytest.approx(
            math.sqrt(abs(rep.c / rep.d))
        )

    def test_vector_potential_balance(self):
        p = NCParams(theta=0.0, B=4.0, e=4.0)
        rep = vector_potential_rep(symmetric_vector_potential(4.0), p)
        assert suggested_scale(rep) == pytest.approx(
            math.sqrt(2.0 / (4.0 * 4.0))
        )

    def test_default_for_momentum_gauge(self):
        assert suggested_scale(symmetric_momentum_gauge(0.4)) == 1.0


class TestUnitary:
    def test_exactly_unitary(self):
        space = FockSpace(6)
        ops = build_canonical_ops(space)
        G = ops.X1 @ ops.X1 + ops.P1 @ ops.P1
        U = unitary_from_hermitian(G)
        assert np.max(np.abs(U @ U.conj().T - np.eye(space.dim))) <= 1e-12

    def test_non_hermitian_generator_rejected(self):
        space = FockSpace(4)
        mat = np.zeros((25, 25))
        mat[0, 1] = 1.0
        with pytest.raises(NonHermitian):
            unitary_from_hermitian(FockOperator(mat, space))
