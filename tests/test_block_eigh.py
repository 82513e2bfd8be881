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

Blocks that a diagonal gauge of 1, i, -1, -i makes exactly real are solved
in real arithmetic and must pass the same oracle; ``real_blocks`` is
checked against the block structure planted in each case.

``spectral_sum`` is checked against ``(V * f(w)) @ V^dag`` from the same
dense eigh, for f(x) = exp(ix) and for the sinc level selector.  A function
with Lipschitz constant L moves f(H) by at most about L times the error of
the eigenvalues (for exp(ix) exactly: ||exp(iA) - exp(iB)||_2 <=
||A - B||_2), so every entry must agree within L * (dropped-coupling bound
+ 1e-12 * ||H||) + 1e-12, the last term for the rounding of the sum.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqmlab.fock import (
    BLOCK_COUPLING_TOL,
    FockSpace,
    block_eigh,
    kinetic_hamiltonian,
    poly_of_commuting,
    realize_rep,
    spectral_sum,
    suggested_scale,
)
from ncqmlab.params import NCParams
from ncqmlab.peierls import (
    adapted_space,
    landau_basis_hamiltonian,
    landau_projectors,
    magnetic_rep,
    sinc_profile,
)
from ncqmlab.polysymbol import x1, x2
from ncqmlab.reps import (
    symmetric_gauge_rep,
    symmetric_vector_potential,
    vector_potential_rep,
)
from oracles import eigenvector_columns

EIGENVALUE_RTOL = 1e-12
PROJECTOR_ATOL = 1e-10
GROUP_GAP = 1e-2
SPECTRAL_ATOL = 1e-12
# Largest slope of sinc_profile(h, 1) on 0 <= h <= 2 is 2.45.
SINC_SLOPE = 2.5


def random_hermitian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def random_symmetric(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return 0.5 * (a + a.T)


def random_chain(rng, n: int) -> np.ndarray:
    """A real symmetric tridiagonal matrix with every bond nonzero."""
    hop = rng.uniform(0.5, 1.5, n - 1)
    return np.diag(rng.uniform(-1.0, 1.0, n)) + np.diag(hop, 1) \
        + np.diag(hop, -1)


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
    assert values_only.real_blocks == solve.real_blocks
    assert values_only.error_bound == solve.error_bound
    tol = solve.error_bound + EIGENVALUE_RTOL * norm
    for values in (solve.eigenvalues, values_only.eigenvalues):
        assert np.max(np.abs(values - dense_vals)) <= tol
    dim = len(matrix)
    positions = np.concatenate([b.positions for b in solve.eigenvectors])
    np.testing.assert_array_equal(np.sort(positions), np.arange(dim))
    columns = eigenvector_columns(solve, np.arange(dim))
    assert columns.format == "csr"
    # each column is stored on its own block's states, and only there
    assert columns.nnz == sum(len(b.states) ** 2 for b in solve.eigenvectors)
    for block in solve.eigenvectors:
        assert block.vectors.dtype == matrix.dtype
    vecs = columns.toarray()
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
@given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_fully_coupled_matrix_is_one_block(dim, seed, real):
    # a real input solves real; random complex entries, each with both a
    # real and an imaginary part, leave no real gauge
    rng = np.random.default_rng(seed)
    solve = assert_matches_dense(random_symmetric(rng, dim) if real
                                 else random_hermitian(rng, dim))
    assert (solve.blocks, solve.real_blocks) == (1, int(real))
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
        eigenvector_columns(solve, np.arange(5)).toarray(), np.eye(5))
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


def assert_bound_scales(exponent: int, vectors: bool) -> None:
    """Two blocks of 3 and 4 states, coupled at a tenth of the threshold:
    scaling H by 2^exponent (exact in floating point) must scale the bound
    by the same factor, without a floating-point warning."""
    rng = np.random.default_rng(7)
    labels = np.repeat([0, 1], [3, 4])
    noise = random_hermitian(rng, 7)
    noise *= 0.1 * BLOCK_COUPLING_TOL / np.max(np.abs(noise))
    matrix = np.where(labels[:, None] == labels[None, :],
                      random_hermitian(rng, 7), noise)
    base = block_eigh(matrix, vectors).error_bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = block_eigh(matrix * 2.0 ** exponent, vectors)
    assert scaled.blocks == 2 and base > 0.0
    assert math.isfinite(scaled.error_bound)
    assert scaled.error_bound / 2.0 ** exponent == pytest.approx(
        base, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("vectors", [False, True])
def test_bound_scales_past_the_square_overflow(vectors):
    # dropped couplings near 1e166 square past the float range
    assert_bound_scales(600, vectors)


@pytest.mark.parametrize("exponent", [-400, -500, -560])
def test_bound_scales_past_the_square_underflow(exponent):
    # at 2^-500 and 2^-560 the squares of the dropped couplings (near
    # 1e-165 and 1e-183) fall below the smallest float; at 2^-400 they
    # do not, and the plain sum is kept
    assert_bound_scales(exponent, False)


# --- the real gauge ------------------------------------------------------

# i^k for k = 0..3
PHASES = np.array([1.0, 1.0j, -1.0, -1.0j])


def gauged(matrix: np.ndarray, powers) -> np.ndarray:
    """D^dag matrix D for D = diag(i^powers): exact, each entry is only
    multiplied by 1, i, -1 or -i."""
    d = PHASES[np.asarray(powers) % 4]
    return d.conj()[:, None] * matrix * d[None, :]


@st.composite
def gauged_real_blocks(draw):
    """Random real symmetric blocks under a random diagonal gauge of 1, i,
    -1, -i and a random permutation, with optional complex couplings
    between blocks below the coupling threshold; returns (matrix, block
    count)."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = sum(sizes)
    matrix = np.zeros((dim, dim))
    start = 0
    for size in sizes:
        matrix[start:start + size, start:start + size] = \
            random_symmetric(rng, size)
        start += size
    matrix = gauged(matrix, rng.integers(0, 4, dim))
    if draw(st.booleans()):
        labels = np.repeat(np.arange(len(sizes)), sizes)
        noise = random_hermitian(rng, dim)
        noise *= 0.1 * BLOCK_COUPLING_TOL * np.max(np.abs(matrix)) \
            / np.max(np.abs(noise))
        matrix = matrix + np.where(labels[:, None] != labels[None, :],
                                   noise, 0.0)
    perm = rng.permutation(dim)
    return matrix[np.ix_(perm, perm)], len(sizes)


@settings(max_examples=60, deadline=None)
@given(gauged_real_blocks())
def test_gauged_real_blocks_solve_real(case):
    matrix, count = case
    solve = assert_matches_dense(matrix)
    assert solve.blocks == solve.real_blocks == count


@settings(max_examples=30, deadline=None)
@given(st.lists(st.booleans(), min_size=3, max_size=3),
       st.integers(0, 2**32 - 1))
def test_triangle_is_real_unless_frustrated(imaginary, seed):
    # the product of the three bonds around the triangle is real exactly
    # when an even number of them are imaginary; no gauge of powers of i
    # can make a frustrated triangle real
    rng = np.random.default_rng(seed)
    bonds = rng.uniform(0.5, 1.5, 3) * rng.choice([-1.0, 1.0], 3)
    bonds = np.where(imaginary, 1j * bonds, bonds)
    matrix = np.diag(rng.uniform(-1.0, 1.0, 3)).astype(complex)
    for (j, k), bond in zip(((0, 1), (1, 2), (2, 0)), bonds):
        matrix[j, k], matrix[k, j] = bond, np.conj(bond)
    solve = assert_matches_dense(matrix)
    assert solve.blocks == 1
    assert solve.real_blocks == (sum(imaginary) % 2 == 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_bond_with_both_parts_stays_complex(n, seed):
    # a real chain under a random gauge beside a second chain with one
    # bond that has both a real and an imaginary part
    rng = np.random.default_rng(seed)
    mixed = random_chain(rng, n).astype(complex)
    bond = int(rng.integers(0, n - 1))
    mixed[bond, bond + 1] *= np.exp(1j * rng.uniform(0.1, 1.4))
    mixed[bond + 1, bond] = np.conj(mixed[bond, bond + 1])
    matrix = np.zeros((2 * n, 2 * n), dtype=complex)
    matrix[:n, :n] = gauged(random_chain(rng, n), rng.integers(0, 4, n))
    matrix[n:, n:] = mixed
    perm = rng.permutation(2 * n)
    solve = assert_matches_dense(matrix[np.ix_(perm, perm)])
    assert (solve.blocks, solve.real_blocks) == (2, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 12), st.integers(0, 2**32 - 1))
def test_remnant_imaginary_part_keeps_block_complex(n, seed):
    # a gauged real chain plus an entry inside the block, below the
    # coupling threshold, whose phased value is not real: the block is
    # solved as stored, and the remnant is no dropped coupling
    rng = np.random.default_rng(seed)
    powers = rng.integers(0, 4, n)
    clean = gauged(random_chain(rng, n), powers)
    remnant = np.zeros((n, n), dtype=complex)
    remnant[0, n - 1] = 0.5 * BLOCK_COUPLING_TOL * (1.0 + 1.0j)
    remnant[n - 1, 0] = np.conj(remnant[0, n - 1])
    perm = rng.permutation(n)
    matrix = (clean + gauged(remnant, powers))[np.ix_(perm, perm)]
    solve = assert_matches_dense(matrix)
    assert (solve.blocks, solve.real_blocks) == (1, 0)
    assert solve.error_bound == 0.0
    reference = block_eigh(clean[np.ix_(perm, perm)], vectors=False)
    assert (reference.blocks, reference.real_blocks) == (1, 1)
    assert reference.error_bound == 0.0


# Time reversal composed with the mirror x1 -> -x1 maps every uniform-field
# Hamiltonian below to itself, so each of its blocks is real in a gauge of
# powers of i and must take the real solve.


@pytest.mark.parametrize("e", [-1.0, 1.0, 2.0])
@pytest.mark.parametrize("theta", [0.0, 0.3])
@pytest.mark.parametrize("adapted", [False, True])
@pytest.mark.parametrize("gauge", ["symmetric", "vector-potential"])
def test_magnetic_hamiltonians_solve_every_block_real(gauge, adapted, theta,
                                                      e):
    params = NCParams(theta=theta, B=1.3, e=e)
    if gauge == "symmetric":
        rep = magnetic_rep(params)
    else:
        # minimal coupling is the theta = 0 representation
        rep = vector_potential_rep(symmetric_vector_potential(params.B),
                                   replace(params, theta=0.0))
    scale = suggested_scale(rep) if adapted else 1.0
    H = kinetic_hamiltonian(realize_rep(rep, FockSpace(12, scale=scale)),
                            params.m)
    for vectors in (False, True):
        solve = block_eigh(H.stored, vectors=vectors)
        assert solve.real_blocks == solve.blocks


@pytest.mark.parametrize("coeffs", [(0.0, 1.0), (0.0, 0.5, 1.0)],
                         ids=["quadratic", "quartic"])
def test_peierls_hamiltonians_solve_every_block_real(coeffs):
    for e in (-1.0, 2.0):
        params = NCParams(theta=0.0, B=3.0, e=e)
        H = landau_basis_hamiltonian(coeffs, 0.1, params, 12)
        solve = block_eigh(H.stored)
        assert solve.blocks == 25
        assert solve.real_blocks == solve.blocks


def test_landau_projector_hamiltonian_solves_every_block_real():
    params = NCParams(theta=0.0, B=1.3, e=-1.0)
    ps = landau_projectors(params, adapted_space(params, 16), 2)
    solve = block_eigh(kinetic_hamiltonian(ps.ops, params.m).stored)
    assert solve.blocks == 33
    assert solve.real_blocks == solve.blocks
