"""Property tests of the CSR operator backend against dense oracles.

Oracles
-------
* The dense functions below are the construction the CSR backend replaced:
  ladders from ``np.kron`` of one-mode matrices, dense power lists for
  polynomials of commuting operators and for the three quantization
  prescriptions, dense products for the kinetic Hamiltonian.  The sparse
  and dense routes do the same arithmetic in a different summation order,
  so they must agree within 1e-12 * max(1, max|entry|).
* The level-basis truncated commutators are checked against the dense
  products Pi @ op @ Pi of the full projector, fitted on the same
  guiding-interior columns.
* ``block_eigh`` on the CSR operator must give the eigenvalues, block
  count and dropped-coupling bound of the same operator handed over dense.
* The spectral outputs are made block by block: on the adapted basis at
  n_max = 40 (dim 1681), ``tracemalloc`` sees no call allocate an eighth
  of one dense complex dim x dim array, its result included.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqmlab import fock
from ncqmlab.fock import (
    FockOperator,
    FockSpace,
    Prescription,
    block_eigh,
    build_canonical_ops,
    eigenvector_columns,
    kinetic_hamiltonian,
    ladder,
    poly_of_commuting,
    quantize_matrix_pair,
    realize_rep,
    spectrum,
)
from ncqmlab.params import NCParams
from ncqmlab.peierls import adapted_space, boundary_weights, \
    landau_projectors, lowest_unpolluted, magnetic_rep, projector_sinc, \
    truncated_commutators
from ncqmlab.polysymbol import PolySymbol
from ncqmlab.reps import LinearRep, vector_potential_rep
from oracles import quantize_poly, realize, restrict

RTOL = 1e-12


# --- the dense oracles --------------------------------------------------

def dense_canonical(space: FockSpace) -> list:
    """[X1, X2, P1, P2] from np.kron ladders."""
    n = space.n_max + 1
    a1 = np.diag(np.sqrt(np.arange(1, n)), k=1)
    eye = np.eye(n)
    s = space.scale
    xs, ps = [], []
    for a in (np.kron(a1, eye), np.kron(eye, a1)):
        ad = a.conj().T
        xs.append((s / math.sqrt(2.0)) * (a + ad))
        ps.append((1.0 / (s * math.sqrt(2.0))) * (-1.0j) * (a - ad))
    return xs + ps


def dense_poly_of_commuting(poly: PolySymbol, A: np.ndarray,
                            B: np.ndarray) -> np.ndarray:
    dim = A.shape[0]
    powA = [np.eye(dim, dtype=complex)]
    powB = [np.eye(dim, dtype=complex)]
    for _ in range(max(1, poly.degree)):
        powA.append(powA[-1] @ A)
        powB.append(powB[-1] @ B)
    total = np.zeros((dim, dim), dtype=complex)
    for (e1, e2), coeff in poly.terms.items():
        total += coeff * (powA[e1] @ powB[e2])
    return total


def dense_quantize(V: PolySymbol, m1: np.ndarray, m2: np.ndarray,
                   prescription: Prescription, theta: float) -> np.ndarray:
    dim = m1.shape[0]
    deg = max(1, V.degree)
    eye = np.eye(dim, dtype=complex)
    if prescription is Prescription.WEYL:
        pow1, pow2 = [eye], [eye]
        for _ in range(deg):
            pow1.append(pow1[-1] @ m1)
            pow2.append(pow2[-1] @ m2)
        total = np.zeros((dim, dim), dtype=complex)
        for (e1, e2), coeff in V.terms.items():
            mono = sum(math.comb(e1, r) * (pow1[r] @ pow2[e2] @ pow1[e1 - r])
                       for r in range(e1 + 1))
            total += coeff * mono / 2.0 ** e1
        return total
    root = math.sqrt(theta / 2.0)
    a_sym, abar_sym = PolySymbol.variable(2, 0), PolySymbol.variable(2, 1)
    symbol = PolySymbol.zero(2)
    for (e1, e2), coeff in V.terms.items():
        symbol = symbol + coeff * (root * (a_sym + abar_sym)) ** e1 \
            * (1.0j * root * (abar_sym - a_sym)) ** e2
    amat = (m1 + 1.0j * m2) / math.sqrt(2.0 * theta)
    powa, powad = [eye], [eye]
    for _ in range(max(1, symbol.degree)):
        powa.append(powa[-1] @ amat)
        powad.append(powad[-1] @ amat.conj().T)
    total = np.zeros((dim, dim), dtype=complex)
    for (ea, eabar), coeff in symbol.terms.items():
        if prescription is Prescription.NORMAL:
            total += coeff * (powad[eabar] @ powa[ea])
        else:
            total += coeff * (powa[ea] @ powad[eabar])
    return total


def dense_realize(rep, space: FockSpace) -> list:
    canon = dense_canonical(space)
    X1, X2, P1, P2 = canon
    if isinstance(rep, LinearRep):
        return [sum(rep.matrix[i, j] * canon[j] for j in range(4))
                for i in range(4)]
    if isinstance(rep, tuple):
        return [X1 - dense_poly_of_commuting(rep[0], P1, P2),
                X2 - dense_poly_of_commuting(rep[1], P1, P2), P1, P2]
    e = rep.params.e
    return [X1, X2, P1 - e * dense_poly_of_commuting(rep.A[0], X1, X2),
            P2 - e * dense_poly_of_commuting(rep.A[1], X1, X2)]


def dense_kinetic(ops: list, m: float) -> np.ndarray:
    P1, P2 = ops[2], ops[3]
    return (1.0 / (2.0 * m)) * (P1 @ P1 + P2 @ P2)


def assert_close(sparse_op, dense: np.ndarray) -> None:
    """CSR result against the dense oracle within 1e-12 * max(1, |.|_max)."""
    matrix = sparse_op.stored if isinstance(sparse_op, FockOperator) \
        else sparse_op
    assert sp.issparse(matrix)
    tol = RTOL * max(1.0, float(np.max(np.abs(dense))))
    assert np.max(np.abs(matrix.toarray() - dense)) <= tol


# --- strategies ----------------------------------------------------------

coefficients = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def polynomials(draw, max_degree: int = 4):
    """A random real arity-2 polynomial of degree <= max_degree."""
    monomials = [(e1, d - e1) for d in range(max_degree + 1)
                 for e1 in range(d + 1)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1,
                           max_size=6, unique=True))
    return PolySymbol(2, {expo: draw(coefficients) for expo in chosen})


@st.composite
def spaces(draw):
    return FockSpace(draw(st.integers(4, 16)),
                     scale=draw(st.floats(0.5, 2.0)))


@st.composite
def representations(draw):
    """A linear rep, a momentum gauge Atilde or a vector potential."""
    theta = draw(st.floats(0.05, 0.8))
    B = draw(st.floats(0.2, 2.0))
    params = NCParams(theta=theta, B=B)
    kind = draw(st.sampled_from(["linear", "momentum", "vector"]))
    if kind == "linear":
        matrix = np.array(draw(st.lists(coefficients, min_size=16,
                                        max_size=16))).reshape(4, 4)
        return LinearRep(matrix, params)
    if kind == "momentum":
        # symmetric gauge plus a gradient keeps curl(Atilde) = theta
        alpha = draw(polynomials(max_degree=5))
        p1v, p2v = PolySymbol.variable(2, 0), PolySymbol.variable(2, 1)
        return (0.5 * theta * p2v + alpha.diff(0),
                -0.5 * theta * p1v + alpha.diff(1))
    A = (draw(polynomials()), draw(polynomials()))
    return vector_potential_rep(A, NCParams(theta=0.0, B=B,
                                            e=draw(st.floats(0.5, 2.0))))


# --- operator builds -------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(spaces(), st.integers(0, 1))
def test_ladder_matches_kron(space, mode):
    n = space.n_max + 1
    a = np.diag(np.sqrt(np.arange(1, n)), k=1)
    eye = np.eye(n)
    assert_close(ladder(space, mode),
                 np.kron(a, eye) if mode == 0 else np.kron(eye, a))


def test_cached_ladders_match_a_fresh_build_and_are_read_only():
    for n_max in (4, 7, 12):
        space = FockSpace(n_max, scale=1.7)
        for mode in (0, 1):
            first = ladder(space, mode)
            cached = ladder(FockSpace(n_max), mode)
            n = space.occupations[:, mode]
            cols = np.flatnonzero(n > 0)
            rows = cols - (n_max + 1 if mode == 0 else 1)
            fresh = sp.csr_array((np.sqrt(n[cols]), (rows, cols)),
                                 shape=(space.dim, space.dim), dtype=complex)
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(cached.stored, part),
                                              getattr(fresh, part))
                assert np.shares_memory(getattr(cached.stored, part),
                                        getattr(first.stored, part))
                with pytest.raises(ValueError, match="read-only"):
                    getattr(cached.stored, part)[0] = 1


def test_kinetic_hamiltonian_is_one_operator_per_ops_and_mass():
    ops = build_canonical_ops(FockSpace(6))
    H = kinetic_hamiltonian(ops, 1.5)
    assert kinetic_hamiltonian(ops, 1.5) is H
    assert kinetic_hamiltonian(ops, 2.0) is not H
    assert kinetic_hamiltonian(build_canonical_ops(FockSpace(6)), 1.5) \
        is not H


@settings(max_examples=60, deadline=None)
@given(representations(), spaces(), st.floats(0.5, 2.0))
def test_realize_rep_and_kinetic_hamiltonian(rep, space, m):
    ops = realize(rep, space)
    dense = dense_realize(rep, space)
    for op, oracle in zip(ops.as_tuple(), dense):
        assert_close(op, oracle)
    assert_close(kinetic_hamiltonian(ops, m), dense_kinetic(dense, m))


@settings(max_examples=40, deadline=None)
@given(polynomials(), spaces(), st.booleans())
def test_poly_of_commuting(poly, space, momenta):
    ops = build_canonical_ops(space)
    A, B = (ops.P1, ops.P2) if momenta else (ops.X1, ops.X2)
    op = poly_of_commuting(poly, A, B)
    assert_close(op, dense_poly_of_commuting(poly, A.matrix, B.matrix))


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.sampled_from(list(Prescription)),
       st.floats(0.05, 0.8), st.floats(0.2, 2.0), st.integers(4, 12))
def test_quantize_matrix_pair(V, prescription, theta, B, n_max):
    # rows X1h, X2h, P1h, P2h over canonical (X1, X2, P1, P2)
    rep = LinearRep(np.array([[1.0, 0.0, 0.0, -theta / 2.0],
                              [0.0, 1.0, theta / 2.0, 0.0],
                              [0.0, B / 2.0, 1.0, 0.0],
                              [-B / 2.0, 0.0, 0.0, 1.0]]),
                    NCParams(theta=theta, B=B))
    ops = realize_rep(rep, FockSpace(n_max))
    m1, m2 = ops.X1.stored, ops.X2.stored
    quantized = quantize_matrix_pair(V, m1, m2, prescription, theta=theta)
    assert_close(quantized, dense_quantize(V, m1.toarray(), m2.toarray(),
                                           prescription, theta))
    # dense inputs (the one-mode effective system) take the same kernel
    dense = quantize_matrix_pair(V, m1.toarray(), m2.toarray(),
                                 prescription, theta=theta)
    assert isinstance(dense, np.ndarray)
    np.testing.assert_allclose(dense, quantized.toarray(), rtol=0,
                               atol=RTOL * max(1.0, np.max(np.abs(dense))))


# --- the block solve ------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(representations(), spaces(), polynomials(max_degree=2))
def test_block_eigh_on_csr_matches_dense_input(rep, space, trap):
    ops = realize(rep, space)
    # the realized X1, X2 need not commute, so the trap is Weyl-ordered
    H = kinetic_hamiltonian(ops) + 0.1 * quantize_poly(trap, ops.X1, ops.X2)
    H = 0.5 * (H + H.dagger())
    for vectors in (False, True):
        sparse = block_eigh(H.stored, vectors)
        dense = block_eigh(H.matrix, vectors)
        np.testing.assert_array_equal(sparse.eigenvalues, dense.eigenvalues)
        assert sparse.blocks == dense.blocks
        assert sparse.error_bound == pytest.approx(dense.error_bound,
                                                   rel=RTOL, abs=0.0)
        if vectors:
            every = np.arange(space.dim)
            np.testing.assert_array_equal(
                eigenvector_columns(sparse, every).toarray(),
                eigenvector_columns(dense, every).toarray())
    exact = np.linalg.eigvalsh(H.matrix)
    assert np.max(np.abs(sparse.eigenvalues - exact)) <= \
        sparse.error_bound + RTOL * max(1.0, np.max(np.abs(exact)))


def assert_same_bits(a, b) -> None:
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=30, deadline=None)
@given(representations(), spaces(), polynomials(max_degree=2),
       st.booleans())
def test_memoized_solve_is_bitwise_a_fresh_block_eigh(rep, space, trap,
                                                      vectors_first):
    ops = realize(rep, space)
    H = kinetic_hamiltonian(ops) + 0.1 * quantize_poly(trap, ops.X1, ops.X2)
    H = 0.5 * (H + H.dagger())
    for vectors in ((True, False) if vectors_first else (False, True)):
        memo = H.solve(vectors)
        assert H.solve(vectors) is memo
        fresh = block_eigh(H.stored, vectors)
        assert_same_bits(memo.eigenvalues, fresh.eigenvalues)
        for field in ("error_bound", "blocks", "real_blocks"):
            assert_same_bits(getattr(memo, field), getattr(fresh, field))
        if not vectors:
            assert memo.eigenvectors is fresh.eigenvectors is None
            continue
        assert len(memo.eigenvectors) == len(fresh.eigenvectors)
        for ours, theirs in zip(memo.eigenvectors, fresh.eigenvectors):
            for part, other in zip(ours, theirs):
                assert_same_bits(part, other)


@pytest.fixture
def block_eigh_calls(monkeypatch):
    """The vectors flag of every block_eigh call made in the test."""
    calls = []

    def counted(matrix, vectors=True):
        calls.append(vectors)
        return block_eigh(matrix, vectors)

    monkeypatch.setattr(fock, "block_eigh", counted)
    return calls


def test_truncation_pass_solves_its_hamiltonian_once(block_eigh_calls):
    params = NCParams(theta=0.0, B=1.3)
    ps = landau_projectors(params, adapted_space(params, 12), 2)
    H = kinetic_hamiltonian(ps.ops, params.m)
    for n in range(3):
        projector_sinc(H, n, ps.level_energies[n])
    assert block_eigh_calls == [True]


def test_spectrum_solves_once_per_eigenvector_flag(block_eigh_calls):
    params = NCParams(theta=0.0, B=1.3)
    realized = realize_rep(magnetic_rep(params), adapted_space(params, 8))
    H = kinetic_hamiltonian(realized, params.m)
    spectrum(H, 3)
    spectrum(H, 3)
    assert block_eigh_calls == [False]
    G = kinetic_hamiltonian(realized, 2.0)
    spectrum(G, 3)
    projector_sinc(G, 0, 0.5 * params.omega_B)
    assert block_eigh_calls == [False, False, True]


# --- truncated commutators in the level basis -----------------------------

def dense_truncated_report(ps, N: int, X, P, params: NCParams) -> dict:
    """The report from dense Pi @ op @ Pi products on the full space."""
    Pi = sum(ps.projectors[n].matrix for n in range(N + 1))
    Xt = [Pi @ op.matrix @ Pi for op in X]
    Pt = [Pi @ op.matrix @ Pi for op in P]
    # column g of each level basis has guiding index g
    g_cut = min(ps.bases[n].shape[1] - 1 for n in range(N + 1)) // 2
    cols = [ps.bases[n].toarray()[:, :g_cut + 1] for n in range(N + 1)]
    hbar = 1.0
    report = {"N": N, "g_cut": g_cut}
    overall = 0.0

    def record(tag, A, B, predicted, lower_target):
        nonlocal overall
        C = A @ B - B @ A
        blocks = [[cols[n].conj().T @ C @ cols[m] for m in range(N + 1)]
                  for n in range(N + 1)]
        targets = [lower_target] * N + [predicted]
        residual = max(
            float(np.max(np.abs(blocks[n][m] - (
                targets[n] * np.eye(blocks[n][m].shape[0]) if n == m
                else 0.0))))
            for n in range(N + 1) for m in range(N + 1))
        report[f"coefficient_{tag}"] = np.mean(np.diag(blocks[N][N])).imag
        report[f"predicted_{tag}"] = predicted.imag
        report[f"residual_{tag}"] = residual
        if N > 0:
            report[f"coefficient_{tag}_lower"] = np.mean(
                [np.mean(np.diag(blocks[n][n])) for n in range(N)]).imag
        overall = max(overall, residual)

    record("X1X2", Xt[0], Xt[1],
           -1j * (hbar / (params.e * params.B)) * (N + 1), 0.0)
    record("P1P2", Pt[0], Pt[1],
           -1j * (hbar * params.e * params.B / 4.0) * (N + 1), 0.0)
    for i in range(2):
        for j in range(2):
            record(f"X{i + 1}P{j + 1}", Xt[i], Pt[j],
                   1j * hbar * (1.0 - 0.5 * (N + 1)) if i == j else 0.0j,
                   1j * hbar if i == j else 0.0j)
    report["residual_norm"] = overall
    return report


@pytest.fixture(scope="module", params=[12, 16])
def projector_set(request):
    params = NCParams(theta=0.0, B=1.3)
    return params, landau_projectors(params,
                                     adapted_space(params, request.param), 2)


@pytest.mark.parametrize("N", [0, 1, 2])
@pytest.mark.parametrize("kinetic", [False, True])
def test_truncated_commutators_match_dense_products(projector_set, N,
                                                    kinetic):
    params, ps = projector_set
    ops = ps.ops if kinetic else build_canonical_ops(ps.space)
    X, P = (ops.X1, ops.X2), (ops.P1, ops.P2)
    report = truncated_commutators(ps, N, X, P, params)
    oracle = dense_truncated_report(ps, N, X, P, params)
    assert report.keys() == oracle.keys()
    for key, value in oracle.items():
        assert report[key] == pytest.approx(
            value, rel=0.0, abs=RTOL * max(1.0, abs(value))), key


# --- the operator record ------------------------------------------------

def test_ladder_built_operators_stay_sparse():
    space = FockSpace(8)
    ops = build_canonical_ops(space)
    H = kinetic_hamiltonian(ops) + 0.5 * (ops.X1 @ ops.X1) - 1.0
    assert sp.issparse(H.stored) and H.stored.format == "csr"
    assert H.hermitian_flag
    assert isinstance(H.matrix, np.ndarray)
    np.testing.assert_array_equal(restrict(H, 2).toarray(),
                                  H.matrix[np.ix_(space.interior_mask(2),
                                                  space.interior_mask(2))])
    # a dense argument is stored as CSR and .matrix returns the same values
    values = np.arange(space.dim ** 2).reshape(space.dim, space.dim) * 1j
    dense = FockOperator(values, space)
    assert sp.issparse(dense.stored) and dense.stored.format == "csr"
    np.testing.assert_array_equal(dense.matrix, values)


# --- memory of the spectral outputs ----------------------------------------

@pytest.fixture(scope="module")
def large_landau():
    params = NCParams(theta=0.0, B=1.3)
    space = adapted_space(params, 40)
    H = kinetic_hamiltonian(realize_rep(magnetic_rep(params), space), params.m)
    return params, space, H


@pytest.mark.parametrize("call", ["spectrum", "projector_sinc",
                                  "landau_projectors"])
def test_spectral_calls_allocate_no_dense_square(large_landau, call):
    params, space, H = large_landau
    # a fresh operator, so that each call makes its own solve; validated
    # (and cached) before tracing
    H = FockOperator(H.stored, space, H.degree)
    assert H.hermitian_flag
    run = {
        "spectrum": lambda: (spectrum(H, 3), lowest_unpolluted(
            H.solve().eigenvalues, boundary_weights(H), 3, "n_max",
            space.n_max)),
        "projector_sinc": lambda: projector_sinc(H, 0, 0.5 * params.omega_B),
        "landau_projectors": lambda: landau_projectors(params, space, 2),
    }[call]
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One dense complex dim x dim array is 16 dim^2 bytes (43 MiB here);
    # each call must allocate less than an eighth of it, its result
    # included.
    assert peak < 16 * space.dim ** 2 / 8
