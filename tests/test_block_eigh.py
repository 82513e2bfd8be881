"""Property tests of the block-structured eigensolver against dense eigh.

Oracle
------
``np.linalg.eigh`` on the full matrix.  Eigenvalues must agree within the
reported dropped-coupling bound (Weyl's inequality) plus 1e-12 * ||H||;
eigenvectors are compared through the projector onto each group of
eigenvalues separated from the rest by a gap of at least 1e-2 * ||H||,
which is basis-independent inside degenerate levels.  By Davis-Kahan the
projectors then differ by at most about (dropped norm + roundoff) / gap,
below 1e-10 for dropped norms up to 1e-12 * ||H||.

``spectral_sum`` is checked against ``(V * f(w)) @ V^dag`` from the same
dense eigh, for f(x) = exp(ix) and for the sinc level selector.  A function
with Lipschitz constant L moves f(H) by at most about L times the error of
the eigenvalues (for exp(ix) exactly: ||exp(iA) - exp(iB)||_2 <=
||A - B||_2), so every entry must agree within L * (dropped-coupling bound
+ 1e-12 * ||H||) + 1e-12, the last term for the rounding of the sum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqmlab.fock import (
    BLOCK_COUPLING_TOL,
    FockSpace,
    block_eigh,
    eigenvector_columns,
    kinetic_hamiltonian,
    poly_of_commuting,
    realize_rep,
    spectral_sum,
    suggested_scale,
)
from ncqmlab.params import NCParams
from ncqmlab.peierls import sinc_profile
from ncqmlab.polysymbol import x1, x2
from ncqmlab.reps import (
    symmetric_gauge_rep,
    symmetric_vector_potential,
    vector_potential_rep,
)

EIGENVALUE_RTOL = 1e-12
PROJECTOR_ATOL = 1e-10
GROUP_GAP = 1e-2
SPECTRAL_ATOL = 1e-12
# Largest slope of sinc_profile(h, 1) on 0 <= h <= 2 is 2.45.
SINC_SLOPE = 2.5


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def gap_groups(evals: np.ndarray, gap: float) -> list:
    """Index ranges of ascending eigenvalues split at gaps above `gap`."""
    cuts = np.flatnonzero(np.diff(evals) > gap) + 1
    return np.split(np.arange(len(evals)), cuts)


def spectral_weights(norm: float) -> list:
    """(f, Lipschitz constant of f) for the two spectral sums checked: the
    unitary's exp(ix) and the sinc selector of level 1 on h = 1 + x/norm,
    which keeps h within [0, 2], away from the profile's pole at h = -1."""
    scale = norm or 1.0
    return [(lambda x: np.exp(1.0j * x), 1.0),
            (lambda x: sinc_profile(1.0 + x / scale, 1), SINC_SLOPE / scale)]


def assert_matches_dense(matrix: np.ndarray) -> tuple:
    """Check block_eigh against dense eigh with and without vectors, and
    spectral_sum against the dense spectral sum; returns the solve with
    vectors."""
    dense_vals, dense_vecs = np.linalg.eigh(matrix)
    norm = float(np.max(np.abs(dense_vals)))
    solve = block_eigh(matrix, vectors=True)
    values_only = block_eigh(matrix, vectors=False)
    assert values_only.eigenvectors is None
    assert values_only.blocks == solve.blocks
    assert values_only.error_bound == solve.error_bound
    tol = solve.error_bound + EIGENVALUE_RTOL * norm
    for values in (solve.eigenvalues, values_only.eigenvalues):
        assert np.max(np.abs(values - dense_vals)) <= tol
    dim = len(matrix)
    positions = np.concatenate([b.positions for b in solve.eigenvectors])
    np.testing.assert_array_equal(np.sort(positions), np.arange(dim))
    vecs = eigenvector_columns(solve, np.arange(dim))
    assert vecs.shape == matrix.shape
    for group in gap_groups(dense_vals, GROUP_GAP * norm):
        dense_P = dense_vecs[:, group] @ dense_vecs[:, group].conj().T
        block_P = vecs[:, group] @ vecs[:, group].conj().T
        assert np.max(np.abs(block_P - dense_P)) <= PROJECTOR_ATOL
    for f, lipschitz in spectral_weights(norm):
        dense_f = (dense_vecs * f(dense_vals)) @ dense_vecs.conj().T
        block_f = spectral_sum(solve, f(solve.eigenvalues))
        assert block_f.format == "csr"
        assert np.max(np.abs(block_f.toarray() - dense_f)) <= \
            lipschitz * tol + SPECTRAL_ATOL
    return solve


@st.composite
def planted_blocks(draw):
    """A Hermitian matrix of random dense blocks under a random
    permutation, with optional couplings between blocks that sit below
    the coupling threshold; returns (matrix, block count, dropped part)."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2**32 - 1))
    noisy = draw(st.booleans())
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    matrix = np.zeros((dim, dim), dtype=complex)
    start = 0
    for size in sizes:
        matrix[start:start + size, start:start + size] = \
            random_hermitian(rng, size)
        start += size
    dropped = np.zeros_like(matrix)
    if noisy:
        labels = np.repeat(np.arange(len(sizes)), sizes)
        off_block = labels[:, None] != labels[None, :]
        noise = random_hermitian(rng, dim)
        noise *= 0.1 * BLOCK_COUPLING_TOL * np.max(np.abs(matrix)) \
            / np.max(np.abs(noise))
        dropped = np.where(off_block, noise, 0.0)
    perm = rng.permutation(dim)
    matrix = (matrix + dropped)[np.ix_(perm, perm)]
    return matrix, len(sizes), dropped[np.ix_(perm, perm)]


@settings(max_examples=60, deadline=None)
@given(planted_blocks())
def test_planted_blocks_under_permutation(case):
    matrix, count, dropped = case
    solve = assert_matches_dense(matrix)
    assert solve.blocks == count
    assert solve.error_bound == pytest.approx(np.linalg.norm(dropped),
                                              rel=1e-12, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_fully_coupled_matrix_is_one_block(dim, seed):
    solve = assert_matches_dense(
        random_hermitian(np.random.default_rng(seed), dim))
    assert solve.blocks == 1
    assert solve.error_bound == 0.0


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 150), st.integers(0, 2**32 - 1))
def test_permuted_chain_with_one_cut_bond(n, seed):
    # a long path needs many label-propagation rounds to join up
    rng = np.random.default_rng(seed)
    hop = rng.uniform(0.5, 1.5, n - 1)
    cut = int(rng.integers(1, n - 1))
    hop[cut] = 0.0
    chain = np.diag(rng.uniform(-1.0, 1.0, n)) + np.diag(hop, 1) \
        + np.diag(hop, -1)
    perm = rng.permutation(n)
    solve = assert_matches_dense(chain[np.ix_(perm, perm)])
    assert solve.blocks == 2
    assert solve.error_bound == 0.0


def magnetic_hamiltonian(theta: float, B: float, n_max: int,
                         adapted: bool):
    params = NCParams(theta=theta, B=B)
    if theta == 0.0:
        rep = vector_potential_rep(symmetric_vector_potential(B), params)
    else:
        rep = symmetric_gauge_rep(params)
    scale = suggested_scale(rep) if adapted else 1.0
    space = FockSpace(n_max, scale=scale)
    ops = realize_rep(rep, space)
    return kinetic_hamiltonian(ops, params.m), ops, rep


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0.0, 0.1, 0.3]), st.floats(0.5, 2.0),
       st.integers(6, 12), st.booleans())
def test_realized_kinetic_hamiltonians(theta, B, n_max, adapted):
    H, _, rep = magnetic_hamiltonian(theta, B, n_max, adapted)
    solve = assert_matches_dense(H.matrix)
    # shells of equal n1 + n2 on the adapted basis (which the unit-scale
    # basis is at B = 2, theta = 0); parity of n1 + n2 on any other
    shells = adapted or suggested_scale(rep) == 1.0
    assert solve.blocks == (2 * n_max + 1 if shells else 2)


@settings(max_examples=10, deadline=None)
@given(st.floats(2.0, 20.0), st.floats(0.05, 0.2), st.floats(0.5, 1.5))
def test_peierls_hamiltonian_with_quartic_trap(B, lam, c4):
    H, ops, _ = magnetic_hamiltonian(0.0, B, 10, adapted=True)
    r2 = x1() ** 2 + x2() ** 2
    H = H + lam * poly_of_commuting(c4 * r2 * r2, ops.X1, ops.X2)
    assert_matches_dense(H.matrix)


def test_zero_matrix():
    solve = block_eigh(np.zeros((5, 5)), vectors=True)
    np.testing.assert_array_equal(solve.eigenvalues, np.zeros(5))
    np.testing.assert_array_equal(
        eigenvector_columns(solve, np.arange(5)), np.eye(5))
    assert (solve.blocks, solve.error_bound) == (5, 0.0)


def test_bound_covers_a_coupling_just_below_threshold():
    # two degenerate states joined by a coupling below the threshold:
    # the split it would cause is exactly the reported bound
    eps = 0.5 * BLOCK_COUPLING_TOL
    matrix = np.array([[1.0, eps], [eps, 1.0]])
    solve = block_eigh(matrix, vectors=False)
    assert solve.blocks == 2
    assert solve.error_bound == pytest.approx(math.sqrt(2.0) * eps)
    exact = np.array([1.0 - eps, 1.0 + eps])
    assert np.max(np.abs(solve.eigenvalues - exact)) <= solve.error_bound
