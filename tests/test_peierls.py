"""Tests for Landau-level projectors, truncated operators, and the
strong-field Peierls approximation.

Oracles
-------
* Level energies and degeneracies of the symmetric-gauge Landau problem
  are known in closed form (hbar = c = 1): E_n = omega_B*(n + 1/2) with
  omega_B = |eB|/m, and on the adapted truncated space level n keeps
  exactly n_max - n states.
* The truncated commutator laws are checked against independently built
  canonical operators: with Pi_N the rank-(N+1) level projector,
      [X1t, X2t] = -i (N+1)/(eB) P_N
      [P1t, P2t] = -i (eB/4)(N+1) P_N
      [Xit, Pjt] = i delta_ij (Pi_{N-1} + (1 - (N+1)/2) P_N).
* The lowest-level effective spectra of radial potentials have closed
  forms per ordering: for V = r^2 and s = 1/(eB),
  anti-normal gives 2|s|*lam*(n+1), Weyl 2|s|*lam*(n+1/2), normal
  2|s|*lam*n; for V = r^4 anti-normal gives 4 s^2 lam (n+1)(n+2).  The
  general closed form is checked against the matrix route it replaced
  (oracles.ladder_effective_spectrum: V quantized on a truncated ladder,
  a dense eigh and a boundary filter), and its search over the guiding
  index against a scan of every g up to Cauchy's bound.
* The full spectrum of Pi^2/2m + lam c1 r^2 is the Fock-Darwin spectrum,
  two decoupled oscillators of frequencies Omega +- omega_B/2 with
  Omega = sqrt(omega_B^2/4 + 2 lam c1/m); its lowest branch runs
  E_n = Omega + n*(Omega - omega_B/2).
* landau_projectors reads its levels off the exact shell blocks of the
  adapted basis; the clustering route it replaced (resolve_levels on the
  block solve, each guiding index read back from G1^2 + G2^2) is kept
  here as its oracle (clustering_levels), with its per-level rotation of
  W^dag G^2 W as a second (rotation_guiding_indices).
* peierls_spectrum solves on the Landau-level basis; the Cartesian route
  (the minimally coupled representation on the adapted two-mode basis,
  with V from poly_of_commuting) is kept here as its oracle.
"""

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial import Polynomial
from hypothesis import example, given, settings, strategies as st

from ncqmlab.errors import (
    DomainError,
    NegativeKappa,
    NonHermitian,
    UnresolvedSpectrum,
)
from ncqmlab.fock import (
    FockOperator,
    FockSpace,
    block_eigh,
    build_canonical_ops,
    dominant_clusters,
    kinetic_hamiltonian,
    poly_of_commuting,
    realize_rep,
    resolve_levels,
    spectral_sum,
    spectrum,
    suggested_scale,
)
from ncqmlab.params import NCParams
from ncqmlab.peierls import (
    ORDERING_SIGMA,
    _guiding_energy,
    Prescription,
    adapted_space,
    boundary_weights,
    effective_potential_spectrum,
    landau_projectors,
    lowest_unpolluted,
    magnetic_rep,
    peierls_spectrum,
    projector_sinc,
    radial_coefficients,
    radial_potential,
    sinc_profile,
    truncated_commutators,
)
from ncqmlab.polysymbol import PolySymbol
from ncqmlab.star import bbar_of_B, star_landau_spectrum, sw_constant_field
from oracles import (cumulative, eigenvector_columns,
                     ladder_effective_spectrum)

X1SYM = PolySymbol.variable(2, 0)
X2SYM = PolySymbol.variable(2, 1)
R2 = X1SYM * X1SYM + X2SYM * X2SYM


@pytest.fixture(scope="module")
def landau_setup():
    """One shared n_max=20 Landau problem at B=1 with levels 0..2."""
    params = NCParams(theta=0.0, B=1.0)
    space = adapted_space(params, 20)
    ps = landau_projectors(params, space, 2)
    return params, space, ps


class TestPreconditions:
    def test_landau_projectors_reject_noncommutative_plane(self):
        with pytest.raises(DomainError, match="commutative plane"):
            landau_projectors(NCParams(theta=0.3, B=1.0), FockSpace(8), 1)

    def test_adapted_space_rejects_zero_field(self):
        with pytest.raises(DomainError, match="no Landau structure"):
            adapted_space(NCParams(theta=0.0, B=0.0), 10)

    @pytest.mark.parametrize("params", [
        NCParams(theta=0.3, B=0.0),
        NCParams(theta=0.3, B=1.0, e=0.0),
        NCParams(theta=0.0, B=0.0),
    ])
    def test_magnetic_rep_refuses_zero_coupling(self, params):
        # the symmetric-gauge rep exists at B = 0, but a free particle has
        # no Landau levels to realize
        with pytest.raises(DomainError, match="no Landau structure"):
            magnetic_rep(params)

    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.3])
    def test_adapted_space_at_any_theta(self, theta):
        # the basis length of the rep that spectrum realizes, on which
        # every shell below the cutoff holds one state of each level
        params = NCParams(theta=theta, B=1.5)
        rep = magnetic_rep(params)
        space = adapted_space(params, 10)
        assert space.scale == suggested_scale(rep)
        H = kinetic_hamiltonian(realize_rep(rep, space), params.m)
        levels = dominant_clusters(spectrum(H, 3), 3)
        assert [c.multiplicity for c in levels] == [10, 9, 8]

    def test_negative_level_count_rejected(self, landau_setup):
        params, space, _ = landau_setup
        with pytest.raises(ValueError):
            landau_projectors(params, space, -1)

    def test_level_too_close_to_truncation_rejected(self, landau_setup):
        params, space, _ = landau_setup
        with pytest.raises(ValueError):
            landau_projectors(params, space, 6)  # needs N <= n_max/4

    def test_unresolved_levels_are_a_domain_refusal(self):
        # the unit-scale basis joins the shells into two parity blocks,
        # so no shell is exact on its own
        with pytest.raises(UnresolvedSpectrum,
                           match="build the space with adapted_space") as err:
            landau_projectors(NCParams(theta=0.0, B=1.0), FockSpace(12), 1)
        assert isinstance(err.value, DomainError)


class TestExactShells:
    """Level n holds one state from each exact shell n..n_max - 1: rank
    n_max - n at every n_max, with no boundary-shell state admitted."""

    @staticmethod
    def ranks(B: float, n_max: int, N: int):
        params = NCParams(theta=0.0, B=B)
        ps = landau_projectors(params, adapted_space(params, n_max), N)
        np.testing.assert_allclose(ps.level_energies,
                                   abs(B) * (np.arange(N + 1) + 0.5),
                                   rtol=1e-13, atol=0.0)
        return [basis.shape[1] for basis in ps.bases]

    @pytest.mark.parametrize("B, n_max", [(1.3, 36), (1.3, 40), (1.0, 60)])
    def test_boundary_shells_join_no_level(self, B, n_max):
        # clustering_levels admits boundary-shell states here: ranks
        # [37, 35, 34] and [42, 40, 38] at B = 1.3, [69, 66, 63] at B = 1
        assert self.ranks(B, n_max, 2) == [n_max, n_max - 1, n_max - 2]

    @pytest.mark.parametrize("n_max", [9, 13, 31])
    def test_odd_truncation_answers(self, n_max):
        # clustering_levels refuses every odd n_max: a boundary-shell
        # eigenvector shares the lowest level's energy
        assert self.ranks(1.0, n_max, 1) == [n_max, n_max - 1]

    def test_levels_up_to_n_max_over_four_answer(self):
        # N = 4 at n_max = 20, where clustering_levels refuses
        assert self.ranks(1.0, 20, 4) == [20, 19, 18, 17, 16]


def _signed(magnitudes):
    return st.builds(lambda sign, x: sign * x, st.sampled_from([1.0, -1.0]),
                     magnitudes)


@settings(max_examples=80, deadline=None)
@given(theta=st.one_of(st.just(0.0), st.sampled_from([0.5, -0.5]),
                       _signed(st.floats(1e-14, 1e-3))),
       B=_signed(st.floats(0.25, 3.0)), e=_signed(st.floats(0.25, 3.0)),
       m=st.floats(0.5, 2.0), pole=st.one_of(st.none(),
                                              st.floats(-0.05, 1e-3)))
@example(theta=0.3, B=1.0, e=2.0, m=1.0, pole=None)
@example(theta=0.5, B=1.0, e=2.0, m=1.0, pole=0.0)
@example(theta=-0.5, B=1.0, e=-2.0, m=0.5, pole=1e-9)
@example(theta=0.3, B=1.0, e=4.0, m=1.0, pole=None)
def test_magnetic_rep_levels_agree_with_every_route(theta, B, e, m, pole):
    # the charge folded into the field: at every theta, on the adapted
    # basis, the levels are |eB|/m (n + 1/2) with multiplicity n_max - n,
    # and they are star's and sw's wherever those routes answer; with
    # |theta| = 1/2, ``pole`` moves B to put kappa = 1 - theta e B there
    if pole is not None and abs(theta) == 0.5:
        B = (1.0 - pole) / (theta * e)
    params = NCParams(theta=theta, B=B, e=e, m=m)
    if 1.0 - e * B * theta < 0.0:
        with pytest.raises(NegativeKappa):
            magnetic_rep(params)
        return
    rep = magnetic_rep(params)
    space = FockSpace(12, scale=suggested_scale(rep))
    H = kinetic_hamiltonian(realize_rep(rep, space), m)
    levels = dominant_clusters(spectrum(H, 3), 3)
    energies = [level.mean for level in levels]
    np.testing.assert_allclose(energies, abs(e * B) / m * (np.arange(3) + 0.5),
                               rtol=1e-13, atol=0.0)
    assert [level.multiplicity for level in levels] == [12, 11, 10]
    routes = (lambda: star_landau_spectrum(params, bbar_of_B(B, params).Bbar,
                                           3),
              lambda: sw_constant_field(B, params, 3)[1])
    for route in routes:
        try:
            other = route()
        except DomainError:
            continue
        np.testing.assert_allclose(energies, other, rtol=1e-13, atol=0.0)


class TestProjectors:
    def test_level_energies(self, landau_setup):
        _, _, ps = landau_setup
        np.testing.assert_allclose(
            ps.level_energies, [0.5, 1.5, 2.5], rtol=0, atol=1e-9)

    def test_level_multiplicities(self, landau_setup):
        # The adapted scale makes degeneracy exact: level n keeps
        # n_max - n states on the truncated space.
        _, space, ps = landau_setup
        mults = [basis.shape[1] for basis in ps.bases]
        assert mults == [space.n_max - n for n in range(3)]
        for P, m in zip(ps.projectors, mults):
            assert np.trace(P.matrix).real == pytest.approx(m, abs=1e-9)

    def test_projectors_hermitian_idempotent(self, landau_setup):
        _, _, ps = landau_setup
        for P in ps.projectors:
            M = P.matrix
            assert np.max(np.abs(M - M.conj().T)) <= 1e-12
            assert np.max(np.abs(M @ M - M)) <= 1e-10

    def test_projectors_mutually_orthogonal(self, landau_setup):
        _, _, ps = landau_setup
        for n in range(3):
            for m in range(n + 1, 3):
                prod = ps.projectors[n].matrix @ ps.projectors[m].matrix
                assert np.max(np.abs(prod)) <= 1e-10

    def test_cumulative_is_rank_sum_projector(self, landau_setup):
        _, space, ps = landau_setup
        Pi = cumulative(ps).matrix
        assert np.max(np.abs(Pi @ Pi - Pi)) <= 1e-10
        expected_rank = sum(space.n_max - n for n in range(3))
        assert np.trace(Pi).real == pytest.approx(expected_rank, abs=1e-8)

    def test_guiding_indices_consecutive_from_zero(self, landau_setup):
        # column g of each level basis reads <v|G^2|v> = (2g+1)/|b|
        params, _, ps = landau_setup
        b = params.e * params.B
        G_sq = guiding_radius(ps.ops, b)
        for basis in ps.bases:
            radius = (basis.conj().multiply(G_sq @ basis)).sum(axis=0).real
            np.testing.assert_allclose((abs(b) * radius - 1.0) / 2.0,
                                       np.arange(basis.shape[1]),
                                       rtol=0, atol=1e-10)

    def test_interior_g_cut_and_columns(self, landau_setup):
        _, space, ps = landau_setup
        cut = ps.interior_g_cut()
        # the top level, n = 2, reaches g = n_max - 3
        assert cut == (space.n_max - 3) // 2
        for n in range(3):
            cols = ps.interior_columns(n)
            assert cols.shape[1] == cut + 1
            # columns stay orthonormal
            gram = (cols.conj().T @ cols).toarray()
            assert np.max(np.abs(gram - np.eye(cols.shape[1]))) <= 1e-10

    def test_each_basis_column_lives_on_one_shell(self, landau_setup):
        # the columns come straight from the shell blocks of the solve:
        # each is nonzero on one value of n1 + n2 only
        _, space, ps = landau_setup
        shell = space.occupations.sum(axis=1)
        for basis in ps.bases:
            assert basis.format == "csr"
            columns = basis.tocsc()
            for j in range(columns.shape[1]):
                part = slice(columns.indptr[j], columns.indptr[j + 1])
                rows = columns.indices[part][columns.data[part] != 0]
                assert len(np.unique(shell[rows])) == 1

    def test_guiding_center_radius_is_diagonal_within_levels(self,
                                                             landau_setup):
        # Within level n the basis diagonalizes G1^2 + G2^2 with
        # eigenvalues (2g+1)/|b|; spot-check level 1.
        params, _, ps = landau_setup
        b = params.e * params.B
        G_sq = guiding_radius(ps.ops, b)
        W = ps.interior_columns(1)
        block = (W.conj().T @ G_sq @ W).toarray()
        g = np.arange(W.shape[1])
        expected = np.diag((1.0 / abs(b)) * (2.0 * g + 1.0))
        np.testing.assert_allclose(block, expected, rtol=0, atol=1e-8)


def guiding_radius(ops, b: float) -> sp.csr_array:
    """G1^2 + G2^2 in CSR, G1 = X1 + P2/b, G2 = X2 - P1/b."""
    G1 = ops.X1 + (1.0 / b) * ops.P2
    G2 = ops.X2 - (1.0 / b) * ops.P1
    return (G1 @ G1 + G2 @ G2).stored


def clustering_levels(params: NCParams, space: FockSpace, N: int):
    """The oracle: the clustering route landau_projectors replaced.  The
    levels are resolve_levels of the block solve, and each member's
    guiding index is read back from <v|G^2|v> = (2g+1)/|b|.  Returns the
    solve and the member positions of levels 0..N, or None where that
    route refused (too few levels, or an index off the integers)."""
    ops = realize_rep(magnetic_rep(params), space)
    solve = block_eigh(kinetic_hamiltonian(ops, params.m).stored)
    levels = resolve_levels(solve.eigenvalues)
    if len(levels) < N + 1:
        return None
    b = params.e * params.B
    G_sq = guiding_radius(ops, b)
    for members in levels[:N + 1]:
        W = eigenvector_columns(solve, members)
        radius = (W.conj().multiply(G_sq @ W)).sum(axis=0).real
        g = (abs(b) * radius - 1.0) / 2.0
        if np.any(np.abs(g - np.rint(g)) > 1e-6):
            return None
    return solve, levels[:N + 1]


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(4, 40), B=_signed(st.floats(0.05, 20.0)),
       e=_signed(st.floats(0.25, 3.0)), m=st.floats(0.5, 2.0),
       N=st.integers(0, 10))
@example(n_max=36, B=1.3, e=1.0, m=1.0, N=9)
@example(n_max=31, B=-1.0, e=2.0, m=0.5, N=7)
def test_projectors_read_the_exact_shells(n_max, B, e, m, N):
    # rank n_max - n, energy omega_B (n + 1/2), each column an eigenvector
    # of H and of G^2 with g its column index; wherever the clustering
    # oracle finds n_max - n members, it builds the same projector
    N = min(N, n_max // 4)
    params = NCParams(theta=0.0, B=B, e=e, m=m)
    space = adapted_space(params, n_max)
    ps = landau_projectors(params, space, N)
    omega = params.omega_B
    b = params.e * params.B
    assert [basis.shape[1] for basis in ps.bases] == \
        [n_max - n for n in range(N + 1)]
    np.testing.assert_allclose(ps.level_energies,
                               omega * (np.arange(N + 1) + 0.5),
                               rtol=0.0, atol=1e-12 * omega)
    H = kinetic_hamiltonian(ps.ops, m).stored
    G_sq = guiding_radius(ps.ops, b)
    for E, basis in zip(ps.level_energies, ps.bases):
        residual = (H @ basis - E * basis).toarray()
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-12 * omega
        g = np.arange(basis.shape[1])
        radius = (basis.conj().T @ (G_sq @ basis)).toarray()
        defect = np.max(np.abs(radius - np.diag((2.0 * g + 1.0) / abs(b))))
        assert defect <= 1e-12 * (2 * n_max + 1) / abs(b)
    oracle = clustering_levels(params, space, N)
    if oracle is None:
        return
    solve, levels = oracle
    for n, members in enumerate(levels):
        if len(members) != n_max - n:
            continue
        indicator = np.zeros(space.dim)
        indicator[members] = 1.0
        difference = spectral_sum(solve, indicator) - ps.projectors[n].stored
        assert abs(difference).max() <= 1e-12, n


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(8, 24), B=st.floats(0.3, 3.0),
       e=st.sampled_from([0.5, 1.0, 2.0]))
def test_projectors_and_spectrum_share_one_level_rule(n_max, B, e):
    # spectrum reads its levels off fock.resolve_levels, landau_projectors
    # off the exact shells: the energies agree, and each resolved level
    # holds the projector's n_max - n states (more only where boundary-shell
    # states share its energy)
    params = NCParams(theta=0.0, B=B, e=e)
    space = adapted_space(params, n_max)
    N = n_max // 4
    ps = landau_projectors(params, space, N)
    H = kinetic_hamiltonian(realize_rep(magnetic_rep(params), space), params.m)
    levels = spectrum(H, 1).levels[:N + 1]
    np.testing.assert_allclose(ps.level_energies[:len(levels)],
                               [level.mean for level in levels], rtol=1e-12)
    for n, (P, level) in enumerate(zip(ps.projectors, levels)):
        assert np.trace(P.matrix).real == pytest.approx(n_max - n, abs=1e-9)
        assert level.multiplicity >= n_max - n


def rotation_guiding_indices(params: NCParams, space: FockSpace, N: int):
    """The second oracle: the per-level guiding-center eigensolve of the
    clustering route.  The eigenvectors of each resolve_levels level, as
    dense columns W, are rotated to diagonalize W^dag G^2 W.  Returns the
    ascending guiding indices of levels 0..N as floats, or None where that
    route refused (too few levels, or an index off the integers)."""
    ops = realize_rep(magnetic_rep(params), space)
    solve = block_eigh(kinetic_hamiltonian(ops, params.m).stored)
    levels = resolve_levels(solve.eigenvalues)
    if len(levels) < N + 1:
        return None
    b = params.e * params.B
    G_sq = guiding_radius(ops, b).toarray()
    indices = []
    for members in levels[:N + 1]:
        W = eigenvector_columns(solve, members).toarray()
        g = (abs(b) * np.linalg.eigvalsh(W.conj().T @ G_sq @ W) - 1.0) / 2.0
        if np.any(np.abs(g - np.rint(g)) > 1e-6):
            return None
        indices.append(g)
    return indices


@pytest.mark.parametrize("e", [0.5, 1.0])
@pytest.mark.parametrize("B", [0.6, 1.0, 1.3, 2.0, -1.5])
def test_guiding_indices_match_the_rotation_oracle(B, e):
    # column g of each level basis is a G^2 eigenvector: <v|G^2|v> reads g,
    # and wherever the rotation oracle answers, it finds every one of these
    # indices (its levels may also hold boundary-shell states)
    params = NCParams(theta=0.0, B=B, e=e)
    b = params.e * params.B
    for n_max in range(4, 27):
        space = adapted_space(params, n_max)
        N = n_max // 4
        ps = landau_projectors(params, space, N)
        oracle = rotation_guiding_indices(params, space, N)
        G_sq = guiding_radius(ps.ops, b)
        for n, basis in enumerate(ps.bases):
            radius = (basis.conj().multiply(G_sq @ basis)).sum(axis=0).real
            g = (abs(b) * np.asarray(radius).ravel() - 1.0) / 2.0
            np.testing.assert_array_equal(np.rint(g),
                                          np.arange(basis.shape[1]))
            if oracle is None:
                continue
            nearest = oracle[n][np.abs(g[:, None] - oracle[n]).argmin(axis=1)]
            np.testing.assert_allclose(g, nearest, rtol=0, atol=1e-12,
                                       err_msg=f"n_max = {n_max}, n = {n}")


class TestSincProfile:
    def test_unit_argument_is_exact(self):
        for n in range(5):
            assert sinc_profile(1.0, n) == 1.0

    def test_vanishes_at_other_level_ratios(self):
        # h = E_m/E_n = (2m+1)/(2n+1) makes the numerator hit a sinc zero.
        for n in range(4):
            for m in range(8):
                if m == n:
                    continue
                h = (2 * m + 1) / (2 * n + 1)
                assert abs(sinc_profile(h, n)) <= 1e-12

    def test_scalar_and_array_shapes(self):
        assert isinstance(sinc_profile(0.7, 2), float)
        out = sinc_profile(np.array([0.5, 1.0, 3.0]), 1)
        assert out.shape == (3,)
        assert out[1] == 1.0

    def test_tail_bound(self):
        # |f(h)| <= 2/(h+1) because |sinc| <= 1.
        h = np.linspace(0.0, 40.0, 1001)
        assert np.all(np.abs(sinc_profile(h, 3)) <= 2.0 / (h + 1.0) + 1e-15)


class TestProjectorSinc:
    def test_matches_clustered_projectors_on_interior(self, landau_setup):
        params, _, ps = landau_setup
        H = kinetic_hamiltonian(ps.ops, params.m)
        for n in range(3):
            Psinc = projector_sinc(H, n, ps.level_energies[n])
            diff = Psinc.matrix - ps.projectors[n].matrix
            W = ps.interior_columns(n)
            assert np.max(np.abs(diff @ W)) <= 1e-8

    def test_rejects_nonhermitian_operator(self, landau_setup):
        _, space, ps = landau_setup
        M = np.zeros((space.dim, space.dim), dtype=complex)
        M[0, 1] = 1.0
        bad = FockOperator(M, space, degree=1)
        with pytest.raises(NonHermitian):
            projector_sinc(bad, 0, 0.5)


@pytest.fixture(scope="module")
def reports(landau_setup):
    """Truncated-commutator reports for the canonical pair at N = 0, 1, 2."""
    params, space, ps = landau_setup
    canon = build_canonical_ops(space)
    X = (canon.X1, canon.X2)
    P = (canon.P1, canon.P2)
    return {N: truncated_commutators(ps, N, X, P, params)
            for N in (0, 1, 2)}


class TestTruncatedCommutators:
    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_position_commutator_law(self, reports, N):
        rep = reports[N]
        assert rep["predicted_X1X2"] == pytest.approx(-(N + 1))
        assert rep["coefficient_X1X2"] == pytest.approx(-(N + 1), rel=1e-10)
        assert rep["residual_X1X2"] <= 1e-10

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_momentum_commutator_law(self, reports, N):
        rep = reports[N]
        assert rep["coefficient_P1P2"] == pytest.approx(-(N + 1) / 4.0,
                                                        rel=1e-10)
        assert rep["residual_P1P2"] <= 1e-10

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_cross_commutator_law(self, reports, N):
        rep = reports[N]
        top = 1.0 - 0.5 * (N + 1)
        assert rep["coefficient_X1P1"] == pytest.approx(top, abs=1e-10)
        assert rep["coefficient_X2P2"] == pytest.approx(top, abs=1e-10)
        assert abs(rep["coefficient_X1P2"]) <= 1e-10
        assert abs(rep["coefficient_X2P1"]) <= 1e-10
        assert rep["residual_norm"] <= 1e-10

    @pytest.mark.parametrize("N", [1, 2])
    def test_canonical_commutator_restored_below_top_level(self, reports, N):
        # The Pi_{N-1} term: levels below N see the untruncated i.
        assert reports[N]["coefficient_X1P1_lower"] == pytest.approx(
            1.0, rel=1e-10)
        assert reports[N]["coefficient_X1X2_lower"] == pytest.approx(
            0.0, abs=1e-10)

    def test_no_lower_levels_at_base_truncation(self, reports):
        assert "coefficient_X1P1_lower" not in reports[0]

    def test_cross_coefficient_approaches_canonical(self, reports):
        # Watching level 0 while the truncation rank grows: 1/2 at N=0,
        # then exactly 1 once level 0 is no longer the top level.
        seq = [reports[0]["coefficient_X1P1"],
               reports[1]["coefficient_X1P1_lower"],
               reports[2]["coefficient_X1P1_lower"]]
        np.testing.assert_allclose(seq, [0.5, 1.0, 1.0], rtol=0, atol=1e-10)
        assert np.all(np.diff(seq) >= -1e-12)

    def test_kinetic_momenta_compress_to_zero_on_lowest_level(
            self, landau_setup):
        # The minimally coupled momenta are pure inter-level ladders, so
        # their lowest-level compression vanishes -- the closed laws are
        # statements about the canonical pair, not the kinetic one.
        params, _, ps = landau_setup
        X = (ps.ops.X1, ps.ops.X2)
        P = (ps.ops.P1, ps.ops.P2)
        rep = truncated_commutators(ps, 0, X, P, params)
        assert abs(rep["coefficient_X1P1"]) <= 1e-10
        assert abs(rep["coefficient_P1P2"]) <= 1e-10
        assert rep["coefficient_X1X2"] == pytest.approx(-1.0, rel=1e-10)

    def test_report_is_json_serializable(self, reports):
        for rep in reports.values():
            round_trip = json.loads(json.dumps(rep))
            assert round_trip["N"] == rep["N"]
            assert round_trip["g_cut"] == rep["g_cut"]

    def test_rank_beyond_projector_set_rejected(self, reports, landau_setup):
        params, space, ps = landau_setup
        canon = build_canonical_ops(space)
        with pytest.raises(ValueError):
            truncated_commutators(ps, 3, (canon.X1, canon.X2),
                                  (canon.P1, canon.P2), params)


class TestEffectivePotentialSpectrum:
    PARAMS = NCParams(theta=0.0, B=1.0)
    R2 = [0.0, 1.0]     # V = r^2 as radial coefficients

    def test_antinormal_matches_exact_lowest_level_compression(self):
        # s = 1 here, so eps_n = 2*lam*(n+1).
        _, ev = effective_potential_spectrum(self.R2, 0.1, self.PARAMS, 4)
        np.testing.assert_allclose(ev, 0.2 * np.arange(1, 5),
                                   rtol=0, atol=1e-12)

    def test_weyl_and_normal_orderings_differ_by_half_step(self):
        _, weyl = effective_potential_spectrum(
            self.R2, 0.1, self.PARAMS, 3, Prescription.WEYL)
        _, normal = effective_potential_spectrum(
            self.R2, 0.1, self.PARAMS, 3, Prescription.NORMAL)
        np.testing.assert_allclose(weyl, 0.2 * (np.arange(3) + 0.5),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(normal, 0.2 * np.arange(3),
                                   rtol=0, atol=1e-12)
        # normal order leaves g = 0 exactly empty
        assert normal[0] == 0.0

    def test_prescription_accepts_string(self):
        _, ev = effective_potential_spectrum(self.R2, 0.1, self.PARAMS, 3,
                                             "weyl")
        np.testing.assert_allclose(ev, [0.1, 0.3, 0.5], rtol=0, atol=1e-12)

    def test_zero_strength_gives_zero_spectrum(self):
        _, ev = effective_potential_spectrum(self.R2, 0.0, self.PARAMS, 3)
        np.testing.assert_array_equal(ev, np.zeros(3))

    def test_negative_field_uses_magnitude_of_cell_area(self):
        params = NCParams(theta=0.0, B=-2.0)   # |s| = 1/2
        _, ev = effective_potential_spectrum(self.R2, 0.1, params, 3)
        np.testing.assert_allclose(ev, 0.1 * np.arange(1, 4),
                                   rtol=0, atol=1e-12)

    def test_quartic_antinormal_closed_form(self):
        _, ev = effective_potential_spectrum([0.0, 0.0, 1.0], 1.0,
                                             self.PARAMS, 3)
        n = np.arange(3)
        np.testing.assert_allclose(ev, 4.0 * (n + 1) * (n + 2),
                                   rtol=1e-12, atol=1e-10)

    @pytest.mark.parametrize("k", [1, 5])
    def test_lowest_values_of_a_dipping_trap_whatever_k(self, k):
        # lam V = 0.1 (-r^2 + 0.01 r^4) at B = 20 dips to its lowest near
        # g = 498; a k-sized window of g read its top instead
        g, ev = effective_potential_spectrum(
            [0.0, -1.0, 0.01], 0.1, NCParams(theta=0.0, B=20.0), k)
        assert ev[0] == -2.4950000000000006
        assert np.all(np.abs(g - 498.5) <= k) and np.all(np.diff(ev) >= 0)

    def test_rejects_wrong_arity_potential(self):
        # the effective system is reached through peierls_spectrum, which
        # reads the coefficients off an arity-2 V only
        with pytest.raises(ValueError):
            peierls_spectrum(PolySymbol.variable(4, 0), 0.1,
                             NCParams(theta=0.0, B=10.0), 2, n_max=12)


# The closed form and the ladder route differ in rounding only: over 1000
# draws of this kind (both signs of e, and zero coefficients, as well) the
# largest difference was 3.0e-15 of the largest |value| the ladder keeps.
CLOSED_FORM_RTOL = 1e-12


@settings(max_examples=60, deadline=None)
@given(c0=st.floats(-1.0, 1.0),
       lower=st.lists(st.floats(-1.0, 1.0), max_size=2),
       leading=st.floats(0.01, 1.0), B=st.floats(2.0, 60.0),
       sign=st.sampled_from([1.0, -1.0]), e=st.sampled_from([0.5, 1.0, 2.0]),
       lam=st.floats(0.01, 2.0), k=st.integers(1, 8),
       prescription=st.sampled_from(list(Prescription)))
def test_closed_form_matches_ladder_oracle(c0, lower, leading, B, sign, e,
                                           lam, k, prescription):
    coeffs = [c0, *lower, leading]
    params = NCParams(theta=0.0, B=sign * B, e=e)
    g, ev = effective_potential_spectrum(coeffs, lam, params, k,
                                         prescription)
    V = coeffs[0] + radial_potential(coeffs[1:])
    kept = ladder_effective_spectrum(V, lam, params, k, prescription)
    # the ladder keeps the states g < len(kept); of the lowest k, those it
    # holds are its own lowest (a trap that dips further out has the rest
    # past it: see test_candidates_match_a_scan_of_every_g)
    inside = g < len(kept)
    assert len(ev) == k
    # eigh rounds to the scale of the whole ladder, not of the lowest k
    np.testing.assert_allclose(
        ev[inside], kept[:np.count_nonzero(inside)], rtol=0,
        atol=CLOSED_FORM_RTOL * np.max(np.abs(kept)))


def falling_products(g, top: int) -> list:
    """g (g-1) ... (g-n+1) for n = 0..top, for an array or a Polynomial g."""
    falling = [g ** 0]
    for n in range(top):
        falling.append(falling[-1] * (g - n))
    return falling


def cauchy_limit(coeffs, params, sigma) -> float:
    """A g above every real critical point of epsilon: Cauchy's bound on
    the roots of its derivative, with the falling products expanded by
    numpy.polynomial."""
    falling = falling_products(Polynomial([0.0, 1.0]), len(coeffs) - 1)
    slope = _guiding_energy(coeffs, 1.0, params, sigma, falling).deriv().coef
    return 1.0 + np.max(np.abs(slope[:-1] / slope[-1]), initial=0.0)


@settings(max_examples=60, deadline=None)
@given(c0=st.floats(-1.0, 1.0),
       lower=st.lists(st.floats(-1.0, 1.0), max_size=2),
       leading=st.floats(0.01, 1.0), B=st.floats(2.0, 60.0),
       sign=st.sampled_from([1.0, -1.0]), e=st.sampled_from([0.5, 1.0, 2.0]),
       lam=st.floats(0.01, 2.0), lam_sign=st.sampled_from([1.0, -1.0]),
       k=st.integers(1, 8), prescription=st.sampled_from(list(Prescription)))
@example(c0=0.0, lower=[-1.0], leading=0.01, B=20.0, sign=1.0, e=1.0,
         lam=0.1, lam_sign=1.0, k=5, prescription=Prescription.ANTINORMAL)
def test_candidates_match_a_scan_of_every_g(c0, lower, leading, B, sign, e,
                                            lam, lam_sign, k, prescription):
    # lam c_K > 0: the signs of lam and of the leading coefficient agree
    coeffs = [c0, *lower, lam_sign * leading]
    params = NCParams(theta=0.0, B=sign * B, e=e)
    lam = lam_sign * lam
    g, ev = effective_potential_spectrum(coeffs, lam, params, k,
                                         prescription)
    sigma = ORDERING_SIGMA[Prescription(prescription)]
    every = np.arange(math.ceil(cauchy_limit(coeffs, params, sigma)) + k + 2,
                      dtype=float)
    scanned = _guiding_energy(coeffs, lam, params, sigma,
                              falling_products(every, len(coeffs) - 1))
    np.testing.assert_array_equal(ev, np.sort(scanned)[:k])
    np.testing.assert_array_equal(scanned[g.astype(int)], ev)


class TestPeierlsSpectrum:
    def test_strong_field_matches_two_frequency_oscillator(self):
        lam, B = 0.1, 50.0
        params = NCParams(theta=0.0, B=B)
        res = peierls_spectrum(R2, lam, params, 3, n_max=20)
        Omega = np.sqrt(B * B / 4.0 + 2.0 * lam)
        lowest_branch = Omega + np.arange(3) * (Omega - B / 2.0)
        np.testing.assert_allclose(res.full_E_n, lowest_branch,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.epsilon_n,
                                   (2.0 * lam / B) * np.arange(1, 4),
                                   rtol=0, atol=1e-12)
        assert res.omega_B == pytest.approx(B)

    def test_deviations_definition_and_size(self):
        lam, B = 0.1, 50.0
        params = NCParams(theta=0.0, B=B)
        res = peierls_spectrum(R2, lam, params, 2, n_max=20)
        dev = res.deviations()
        np.testing.assert_array_equal(
            dev, (res.full_E_n - 0.5 * res.omega_B) - res.epsilon_n)
        # analytic deviation of the ground level:
        # (Omega - B/2) - 2 lam/B, fourth order in the trap frequency
        Omega = np.sqrt(B * B / 4.0 + 2.0 * lam)
        expected = (Omega - B / 2.0) - 2.0 * lam / B
        assert dev[0] == pytest.approx(expected, rel=1e-6)
        assert abs(dev[0]) / res.epsilon_n[0] < 1e-4

    def test_zero_potential_collapses_to_pure_landau(self):
        params = NCParams(theta=0.0, B=10.0)
        res = peierls_spectrum(R2, 0.0, params, 3, n_max=12)
        np.testing.assert_allclose(res.deviations(), np.zeros(3),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(res.full_E_n, np.full(3, 5.0),
                                   rtol=0, atol=1e-9)

    def test_reports_the_eigensolve_bound(self):
        # a radial trap conserves l = g - n exactly, even in the box:
        # one block per l in [-n_max, n_max], nothing dropped between them
        n_max = 12
        for V in (R2, 0.5 * R2 + 0.2 * R2 * R2):
            for B in (50.0, -7.0):
                res = peierls_spectrum(V, 0.1, NCParams(theta=0.0, B=B), 2,
                                       n_max=n_max)
                assert res.blocks == 2 * n_max + 1
                assert res.error_bound == 0.0

    def test_weak_field_is_unresolved(self):
        with pytest.raises(UnresolvedSpectrum, match="n_max = 10"):
            peierls_spectrum(R2, 0.1, NCParams(theta=0.0, B=1e-3), 2,
                             n_max=10)

    def test_weak_field_answers_on_a_large_enough_basis(self):
        # omega_B = 0.5: the two lowest levels are Omega and
        # 2 Omega - omega_B/2; at n_max = 8 only one of them is free of
        # boundary weight
        params = NCParams(theta=0.0, B=0.75, m=1.5)
        res = peierls_spectrum(R2, 0.05, params, 2, n_max=12)
        np.testing.assert_allclose(res.full_E_n,
                                   fock_darwin_levels(params, 0.05, 2),
                                   rtol=1e-13, atol=0)
        with pytest.raises(UnresolvedSpectrum, match="only 1 of 2"):
            peierls_spectrum(R2, 0.05, params, 2, n_max=8)

    @pytest.mark.parametrize("k", [1, 5])
    def test_levels_outside_the_interior_are_unresolved(self, k):
        # lam V dips to its lowest near g = 498; the box's top shells would
        # answer for it, and exit 0 with wrong values
        V = -R2 + 0.01 * R2 * R2
        with pytest.raises(UnresolvedSpectrum,
                           match="outside the interior of n_max = 30") as err:
            peierls_spectrum(V, 0.1, NCParams(theta=0.0, B=20.0), k,
                             n_max=30)
        g = int(str(err.value).split("g = ")[1].split(",")[0])
        assert abs(g - 498.5) <= k
        # a quartic H has degree 4, so the interior ends 8 shells inside
        assert f"raise n_max to at least {g + 8}" in str(err.value)

    def test_noncommutative_plane_rejected(self):
        with pytest.raises(DomainError):
            peierls_spectrum(R2, 0.1, NCParams(theta=0.2, B=10.0), 2,
                             n_max=30)

    @pytest.mark.parametrize("V", [X1SYM * X1SYM,
                                   R2 + X1SYM * X1SYM * X2SYM * X2SYM,
                                   R2 + X1SYM])
    def test_non_radial_potential_rejected(self, V):
        with pytest.raises(DomainError, match="radial V"):
            peierls_spectrum(V, 0.1, NCParams(theta=0.0, B=10.0), 2,
                             n_max=12)

    @pytest.mark.parametrize("V, lam, named", [
        (R2, -0.1, "lam = -0.1 and c_1 = 1.0"),
        (R2 - 0.5 * R2 * R2, 0.1, "lam = 0.1 and c_2 = -0.5"),
        (-R2 + 0.5 * R2 * R2 - 0.25 * R2 * R2 * R2, 0.1, "c_3 = -0.25"),
    ])
    def test_potential_unbounded_below_rejected(self, V, lam, named):
        # the effective spectrum would have no lowest value and the full
        # spectrum would read the top of the box: neither is a ground
        with pytest.raises(DomainError, match="unbounded below") as err:
            peierls_spectrum(V, lam, NCParams(theta=0.0, B=20.0), 3,
                             n_max=12)
        assert named in str(err.value)

    def test_zero_strength_or_constant_potential_answers(self):
        params = NCParams(theta=0.0, B=20.0)
        res = peierls_spectrum(-R2, 0.0, params, 2, n_max=12)
        np.testing.assert_array_equal(res.epsilon_n, np.zeros(2))
        res = peierls_spectrum(3.0 + PolySymbol.zero(2), -0.1, params, 2,
                               n_max=12)
        np.testing.assert_allclose(res.epsilon_n, [-0.3, -0.3], rtol=1e-15)
        np.testing.assert_allclose(res.full_E_n, [9.7, 9.7], rtol=1e-14)

    def test_complex_potential_rejected(self):
        with pytest.raises(DomainError, match="real potential"):
            peierls_spectrum(1.0j * R2, 0.1, NCParams(theta=0.0, B=10.0), 2,
                             n_max=12)

    @pytest.mark.parametrize("B, e, m", [(30.0, 2.0, 1.7), (-30.0, 2.0, 1.7),
                                         (-12.0, 0.5, 0.8), (8.0, 1.0, 1.0)])
    def test_fock_darwin_levels(self, B, e, m):
        # all six lowest levels of a quadratic trap, not only its ground
        lam, c1, k = 0.1, 1.3, 6
        params = NCParams(theta=0.0, B=B, e=e, m=m)
        res = peierls_spectrum(c1 * R2, lam, params, k, n_max=20)
        np.testing.assert_allclose(res.full_E_n,
                                   fock_darwin_levels(params, lam * c1, k),
                                   rtol=1e-13, atol=0)


def fock_darwin_levels(params: NCParams, stiffness: float,
                       count: int) -> np.ndarray:
    """Lowest levels of Pi^2/2m + stiffness r^2: oscillators of frequencies
    Omega +- omega_B/2 with Omega = sqrt(omega_B^2/4 + 2 stiffness/m)."""
    omega_B = params.omega_B
    Omega = np.sqrt(omega_B ** 2 / 4.0 + 2.0 * stiffness / params.m)
    plus, minus = Omega + omega_B / 2.0, Omega - omega_B / 2.0
    levels = sorted(plus * (a + 0.5) + minus * (b + 0.5)
                    for a in range(count) for b in range(count))
    return np.array(levels[:count])


def cartesian_full_spectrum(V: PolySymbol, lam: float, params: NCParams,
                            k: int, n_max: int) -> np.ndarray:
    """The oracle: H = Pi^2/2m + lam V on the adapted Cartesian two-mode
    basis, V from poly_of_commuting on X1 and X2, through the same
    pollution filter; H splits into two parity blocks only."""
    space = adapted_space(params, n_max)
    ops = realize_rep(magnetic_rep(params), space)
    H = kinetic_hamiltonian(ops, params.m)
    H = H + lam * poly_of_commuting(V, ops.X1, ops.X2)
    return lowest_unpolluted(H.solve().eigenvalues, boundary_weights(H), k,
                             n_max)


# The Cartesian basis converges more slowly at weak fields than the
# Landau-level one: at eB = 2.5 with a quartic term, n_max = 18 is off by
# 1.1e-10 relative, or leaves too few unpolluted eigenvectors to answer at
# all.  So the oracle runs at a fixed ORACLE_N_MAX.  There, over 44 draws
# with both weak-field corners, the largest difference was 1.5e-12.
ORACLE_RTOL = 1e-10
ORACLE_N_MAX = 30


@settings(max_examples=30, deadline=None)
@given(B=st.floats(5.0, 80.0), sign=st.sampled_from([1.0, -1.0]),
       e=st.sampled_from([0.5, 1.0, 2.0]), m=st.floats(0.5, 2.0),
       lam=st.floats(0.01, 0.2), c1=st.floats(0.1, 1.5),
       c2=st.floats(0.0, 0.5), n_max=st.integers(18, 28))
@example(B=5.0, sign=1.0, e=0.5, m=1.0, lam=0.125, c1=1.0, c2=0.5,
         n_max=18)
# a subnormal quartic term: the critical point of its effective spectrum
# lies past every float g
@example(B=5.0, sign=1.0, e=0.5, m=1.0, lam=0.125, c1=1.0,
         c2=2.225073858507203e-309, n_max=18)
def test_landau_basis_matches_cartesian_oracle(B, sign, e, m, lam, c1, c2,
                                               n_max):
    params = NCParams(theta=0.0, B=sign * B, e=e, m=m)
    V = c1 * R2 + c2 * R2 * R2
    k = 3
    res = peierls_spectrum(V, lam, params, k, n_max=n_max)
    assert res.blocks == 2 * n_max + 1 and res.error_bound == 0.0
    oracle = cartesian_full_spectrum(V, lam, params, k, ORACLE_N_MAX)
    np.testing.assert_allclose(res.full_E_n, oracle, rtol=ORACLE_RTOL,
                               atol=0)


class TestRadialCoefficients:
    def test_reads_each_power_of_r_squared(self):
        V = 3.0 + 0.5 * R2 + 2.0 * R2 * R2 * R2
        assert radial_coefficients(V) == [3.0, 0.5, 0.0, 2.0]

    def test_zero_potential_has_no_power_above_the_constant(self):
        assert radial_coefficients(PolySymbol.zero(2)) == [0.0]

    def test_rejects_wrong_arity_potential(self):
        with pytest.raises(ValueError):
            radial_coefficients(PolySymbol.variable(4, 0))
