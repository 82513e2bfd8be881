"""Finite-dimensional realization on a truncated two-mode number basis.

Basis states |n1, n2> with per-mode occupation up to ``n_max`` are indexed
as n1*(n_max+1) + n2.  Truncation makes commutators exact only away from
the cutoff: the interior block (``FockSpace.interior_mask``) excludes states
within ``INTERIOR_MARGIN * degree`` shells of it.

The optional basis length ``scale`` sets X = scale (a + a^dag)/sqrt(2),
P = (a - a^dag)/(i sqrt(2) scale); canonical commutators are unchanged
while convergence for strong fields improves when scale ~ sqrt(2/B).

Every FockOperator is stored as a scipy.sparse CSR array.  Operators built
from the ladders are low-degree polynomials in banded matrices, O(n_max^2)
entries each.  Spectral outputs (projectors, selectors) are functions of a
Hermitian operator, block-diagonal in its coupling blocks, and spectral_sum
assembles them block by block.  Dense arrays appear only one block at a time
inside block_eigh and spectral_sum.  A uniform field keeps time reversal
composed with the mirror x1 -> -x1, so the magnetic Hamiltonians are real
up to a diagonal gauge of powers of i; block_eigh finds that gauge with the
blocks and solves such blocks in real arithmetic.

Operators are immutable, so each piece of work is done once per object:
FockOperator.solve keeps its block_eigh result per eigenvector flag,
kinetic_hamiltonian keeps one operator per (RealizedOps, m) on the record,
and ladder keeps one read-only CSR per (n_max, mode) for the process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import NonHermitian, UnresolvedSpectrum
from .polysymbol import PolySymbol
from .reps import LinearRep, VectorPotentialRep

HERMITICITY_TOL = 1e-12
# Shells per polynomial degree that interior_mask keeps clear of the cutoff.
INTERIOR_MARGIN = 2
# Entries at or below this fraction of the largest |H_ij| do not couple
# basis states into one block; block_eigh drops them and reports their norm.
BLOCK_COUPLING_TOL = 1e-13
# Level clusters whose means differ by less than this fraction of the mean
# are drifted copies of one level (see resolve_levels).
LEVEL_MERGE_RTOL = 1e-4
# resolve_levels splits ascending eigenvalues at every gap above this
# fraction of the eigenvalue above the gap.
CLUSTER_RTOL = 1e-9


@dataclass(frozen=True)
class FockSpace:
    """Truncated two-mode space with per-mode cutoff n_max.

    The two modes are whatever ladders a caller builds on them: the
    Cartesian oscillators (n1, n2) of build_canonical_ops, or the Landau
    level n and guiding index g of peierls.landau_basis_hamiltonian.
    interior_mask, and the boundary shells outside it that peierls's
    pollution filter weighs, are those of the two occupations either way.
    """

    n_max: int
    scale: float = 1.0

    def __post_init__(self):
        if self.n_max < 4:
            raise ValueError("n_max must be at least 4")
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    @cached_property
    def occupations(self) -> np.ndarray:
        """dim x 2 integer array of (n1, n2) per basis index."""
        n = self.n_max + 1
        n1, n2 = np.divmod(np.arange(n * n), n)
        return np.column_stack([n1, n2])

    def interior_mask(self, degree: int) -> np.ndarray:
        """States with both occupations at least margin*degree below cutoff."""
        cut = self.n_max - INTERIOR_MARGIN * max(int(degree), 1)
        if cut < 0:
            raise ValueError(f"n_max too small for degree-{degree} interior block")
        occ = self.occupations
        return (occ[:, 0] <= cut) & (occ[:, 1] <= cut)


class FockOperator:
    """Complex operator on a FockSpace with its polynomial-degree metadata.

    ``stored`` is the operator as a CSR array (a dense argument is
    converted); sums and products of CSR operators stay CSR.  ``matrix`` is
    the dense ndarray, made from CSR on each access and not kept.

    An operator is never changed after it is made: hermitian_flag and
    solve keep what they compute on it.
    """

    __slots__ = ("stored", "space", "degree", "_herm", "_solves")

    def __init__(self, matrix, space: FockSpace, degree: int = 1):
        matrix = sp.csr_array(matrix, dtype=complex)
        if matrix.shape != (space.dim, space.dim):
            raise ValueError("matrix shape does not match space dimension")
        self.stored = matrix
        self.space = space
        self.degree = int(degree)
        self._herm: bool | None = None
        self._solves: dict = {}

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, made from CSR on each access."""
        return self.stored.toarray()

    @property
    def hermitian_flag(self) -> bool:
        """Validated Hermiticity: max |A - A^dag| entry <= 1e-12 (scaled)."""
        if self._herm is None:
            A = self.stored
            defect = float(abs(A - A.conj().T).max())
            scale = max(1.0, float(abs(A).max()))
            self._herm = bool(defect <= HERMITICITY_TOL * scale)
        return self._herm

    def solve(self, vectors: bool = True) -> "BlockEigh":
        """block_eigh of the stored matrix, made on the first call for each
        ``vectors`` flag and returned on every later one.  The flags are
        kept apart: eigh and eigvalsh values differ in the last bits.  A
        non-Hermitian operator is refused with NonHermitian."""
        solve = self._solves.get(vectors)
        if solve is None:
            if not self.hermitian_flag:
                raise NonHermitian("eigensolve requires a Hermitian operator")
            solve = self._solves[vectors] = block_eigh(self.stored, vectors)
        return solve

    def _binary(self, other, matrix, degree) -> "FockOperator":
        if isinstance(other, FockOperator) and other.space is not self.space:
            if other.space != self.space:
                raise ValueError("operators live on different spaces")
        return FockOperator(matrix, self.space, degree)

    def __add__(self, other):
        if isinstance(other, FockOperator):
            return self._binary(other, self.stored + other.stored,
                                max(self.degree, other.degree))
        return FockOperator(self.stored + other * _identity_like(self.stored),
                            self.space, self.degree)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rsub__(self, other):
        return (-1.0) * self + other

    def __mul__(self, scalar):
        if isinstance(scalar, FockOperator):
            return self @ scalar
        return FockOperator(self.stored * scalar, self.space, self.degree)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        return self._binary(other, self.stored @ other.stored,
                            self.degree + other.degree)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.stored.conj().T, self.space, self.degree)


def _identity_like(matrix):
    """The CSR identity of a square matrix's size."""
    return sp.csr_array(sp.identity(matrix.shape[0], dtype=complex))


@dataclass(frozen=True)
class RealizedOps:
    """The four realized operators of a representation, in the phase-space
    order xi = (x1, x2, p1, p2) of the structures module.

    ``_hamiltonians`` holds the kinetic_hamiltonian of each mass asked of
    this record."""

    X1: FockOperator
    X2: FockOperator
    P1: FockOperator
    P2: FockOperator
    _hamiltonians: dict = field(default_factory=dict, init=False,
                               compare=False, repr=False)

    def as_tuple(self):
        return (self.X1, self.X2, self.P1, self.P2)


# (n_max, mode) -> the read-only CSR ladder, filled by ladder on first use
_LADDERS: dict = {}


def ladder(space: FockSpace, mode: int) -> FockOperator:
    """Annihilation operator of the given mode (0 or 1), in CSR:
    a_mode |.., n, ..> = sqrt(n) |.., n - 1, ..>.

    A ladder does not depend on the scale, so its CSR is built once per
    (n_max, mode) and shared, with its arrays read-only."""
    mat = _LADDERS.get((space.n_max, mode))
    if mat is None:
        n = space.occupations[:, mode]
        cols = np.flatnonzero(n > 0)
        rows = cols - (space.n_max + 1 if mode == 0 else 1)
        mat = sp.csr_array((np.sqrt(n[cols]), (rows, cols)),
                           shape=(space.dim, space.dim), dtype=complex)
        for part in (mat.data, mat.indices, mat.indptr):
            part.flags.writeable = False
        _LADDERS[space.n_max, mode] = mat
    return FockOperator(mat, space, degree=1)


def build_canonical_ops(space: FockSpace) -> RealizedOps:
    """Canonical X1, X2, P1, P2 from the two-mode ladder construction."""
    s = space.scale
    xs, ps = [], []
    for mode in (0, 1):
        a = ladder(space, mode)
        ad = a.dagger()
        xs.append((s / math.sqrt(2.0)) * (a + ad))
        ps.append((1.0 / (s * math.sqrt(2.0))) * (-1.0j) * (a - ad))
    return RealizedOps(*xs, *ps)


def _power_sum(terms, mats):
    """Sum of coeff * mats[i1]^e1 @ mats[i2]^e2 @ ... over ``terms``, a
    list of (coeff, word) with each word a sequence of (index, exponent)
    factors multiplied left to right.

    The one power-list kernel of this module: the powers of each matrix
    are formed once, up to the highest exponent any word asks of it.
    The matrices and their sum are CSR.
    """
    eye = _identity_like(mats[0])
    top = [0] * len(mats)
    for _, word in terms:
        for i, e in word:
            top[i] = max(top[i], e)
    powers = []
    for M, highest in zip(mats, top):
        pw = [eye, M]
        while len(pw) <= highest:
            pw.append(pw[-1] @ M)
        powers.append(pw)
    total = 0.0 * eye
    for coeff, word in terms:
        prod = eye
        for i, e in word:
            if e:
                prod = powers[i][e] if prod is eye else prod @ powers[i][e]
        total = total + coeff * prod
    return total


def poly_of_commuting(poly: PolySymbol, A: FockOperator,
                      B: FockOperator) -> FockOperator:
    """Evaluate an arity-2 polynomial on two commuting operators.

    With real coefficients and commuting Hermitian arguments the result
    is Hermitian; any other result is refused with NonHermitian.
    """
    if poly.arity != 2:
        raise ValueError("expected an arity-2 polynomial")
    terms = [(coeff, ((0, e1), (1, e2)))
             for (e1, e2), coeff in poly.terms.items()]
    total = _power_sum(terms, (A.stored, B.stored))
    op = FockOperator(total, A.space, degree=max(poly.degree, 1))
    if not op.hermitian_flag:
        raise NonHermitian(
            "polynomial came out non-Hermitian: poly_of_commuting needs real "
            "coefficients and Hermitian operators that commute")
    return op


def realize_rep(rep, space: FockSpace) -> RealizedOps:
    """Realize a representation as CSR matrices on the truncated space.

    A LinearRep's row i combines the canonical operators of as_tuple(),
    both in the xi order of the structures module; a VectorPotentialRep
    shifts the canonical momenta by e A(X); anything else is a TypeError."""
    ops = build_canonical_ops(space)
    if isinstance(rep, LinearRep):
        canon = [op.stored for op in ops.as_tuple()]
        rows = []
        for i in range(4):
            mat = rep.matrix[i, 0] * canon[0]
            for j in range(1, 4):
                mat = mat + rep.matrix[i, j] * canon[j]
            rows.append(FockOperator(mat, space, degree=1))
        return RealizedOps(*rows)
    if isinstance(rep, VectorPotentialRep):
        e = rep.params.e
        a1 = poly_of_commuting(rep.A[0], ops.X1, ops.X2)
        a2 = poly_of_commuting(rep.A[1], ops.X1, ops.X2)
        return RealizedOps(ops.X1, ops.X2, ops.P1 - e * a1, ops.P2 - e * a2)
    raise TypeError(f"unsupported representation type {type(rep).__name__}")


def kinetic_hamiltonian(ops: RealizedOps, m: float = 1.0) -> FockOperator:
    """H = (P1^2 + P2^2) / (2m) on realized operators: one operator per
    (ops, m), so its checks and solves are made once."""
    H = ops._hamiltonians.get(m)
    if H is None:
        H = (1.0 / (2.0 * m)) * (ops.P1 @ ops.P1 + ops.P2 @ ops.P2)
        ops._hamiltonians[m] = H
    return H


class EigenBlock(NamedTuple):
    """The eigenpairs of one coupling block, over its own basis states."""

    states: np.ndarray       # ascending basis indices of the block
    positions: np.ndarray    # indices of its eigenvalues in the ascending list
    vectors: np.ndarray      # len(states)-square, columns matching positions


class BlockEigh(NamedTuple):
    """Eigen-decomposition of a Hermitian matrix by its coupling blocks."""

    eigenvalues: np.ndarray          # ascending, as np.linalg.eigh
    eigenvectors: tuple | None       # one EigenBlock per coupling block
    error_bound: float               # Frobenius norm of dropped couplings
    blocks: int
    real_blocks: int                 # blocks solved in real arithmetic


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """The label of each of n nodes in the undirected graph with edges
    (rows[i], cols[i]): the smallest node of its connected component.

    Min-label propagation with pointer jumping: every node takes the
    smallest label among itself and its neighbours, then the label of
    that label, until nothing changes.  block_eigh runs it on a doubled
    graph, two copies of each basis state, to find the coupling blocks
    and a real gauge of each at once.  Written out rather than taken from
    scipy.sparse.csgraph: importing that package adds about 1 MB of
    resident memory to every process that loads this module.
    """
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    labels = np.arange(n)
    while True:
        lowest = labels.copy()
        np.minimum.at(lowest, rows, labels[cols])
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            return labels
        labels = lowest


def block_eigh(matrix, vectors: bool = True) -> BlockEigh:
    """Hermitian eigensolve that diagonalizes each coupling block alone,
    in real arithmetic where a diagonal gauge of powers of i makes the
    block real.

    The input, sparse or dense, is read as COO with duplicates summed.
    Basis states are joined when a stored |H_ij| exceeds
    BLOCK_COUPLING_TOL * max|H|; the connected components of that graph
    are the blocks, found in O(nnz).  Realized Hamiltonians are
    block-diagonal up to roundoff (shells of equal n1 + n2 on a
    degeneracy-adapted basis, the parity of n1 + n2 on the unit-scale
    basis, the angular momentum g - n of a radial trap on the Landau-level
    basis), so only one block at a time is made dense, from its own
    entries, and handed to eigh.  Eigenvalues come back ascending, as from
    np.linalg.eigh; eigenvectors stay in their blocks, one EigenBlock each
    (see spectral_sum).  The dropped stored entries between blocks form a
    Hermitian perturbation E, so by Weyl's inequality every eigenvalue
    differs from that of the full matrix by at most
    ||E||_2 <= ||E||_F = ``error_bound``.

    The blocks and a real gauge come from one pass of _components over a
    doubled graph with two copies (j, 0) and (j, 1) of each state: a
    joining entry with a nonzero real part joins equal copies, one with a
    nonzero imaginary part joins crossed copies, one with both joins both
    pairs.  A block is balanced when (j, 0) and (j, 1) land in different
    components; then each state takes the phase i^phi_j, phi_j = 1 where
    (j, 0) shares its component with the first state's (s, 1), and every
    joining entry of i^-phi_j H_jk i^phi_k is real.  Multiplying by 1, i
    or -i is exact in floating point, so a block whose phased entries,
    sub-threshold ones included, are all exactly real is solved by a real
    eigh, with its eigenvector rows turned back by i^phi_j.  Any other
    block (a frustrated cycle, or a remnant imaginary part) is solved as
    stored.  ``real_blocks`` counts the real solves.
    """
    coo = sp.coo_array(matrix)
    coo.sum_duplicates()
    mags = np.abs(coo.data)
    threshold = BLOCK_COUPLING_TOL * np.max(mags, initial=0.0)
    coupled = mags > threshold
    # state j is node 2j + c of the doubled graph, c its copy
    real_part = coupled & (coo.data.real != 0)
    imag_part = coupled & (coo.data.imag != 0)
    row2, col2 = 2 * coo.row, 2 * coo.col
    roots = _components(
        np.concatenate([row2[real_part], row2[real_part] + 1,
                        row2[imag_part], row2[imag_part] + 1]),
        np.concatenate([col2[real_part], col2[real_part] + 1,
                        col2[imag_part] + 1, col2[imag_part]]),
        2 * coo.shape[0])
    lo, hi = roots[0::2], roots[1::2]
    firsts, labels = np.unique(np.minimum(lo, hi), return_inverse=True)
    n_blocks = len(firsts)
    phase = lo > hi
    row_labels = labels[coo.row]
    dropped = row_labels != labels[coo.col]
    # np.sum, not np.linalg.norm: a long BLAS dot is threaded and slower
    dropped_mags = mags[dropped]
    top = np.max(dropped_mags, initial=0.0)
    with np.errstate(over="ignore"):
        squares = np.sum(dropped_mags * dropped_mags)
    error_bound = float(np.sqrt(squares))
    if top and not np.finfo(float).tiny <= squares < math.inf:
        # the squares overflowed (|H| above about 1e154) or underflowed
        # (below about 1e-154): scale by the largest dropped entry first
        error_bound = float(top * np.sqrt(np.sum((dropped_mags / top) ** 2)))
    # The states of each block, ascending, each state's index in its block,
    # and the kept entries split by block.
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    stops = np.cumsum(sizes)
    starts = stops - sizes
    local = np.empty_like(order)
    local[order] = np.arange(len(order)) - starts[labels[order]]
    kept = np.flatnonzero(~dropped)
    kept = kept[np.argsort(row_labels[kept], kind="stable")]
    # i^-phi_j H_jk i^phi_k, each entry times -i, 1 or i
    turn = phase[coo.col[kept]].astype(int) - phase[coo.row[kept]]
    phased = coo.data[kept] * np.array([-1j, 1, 1j])[turn + 1]
    real = np.bincount(row_labels[kept], weights=phased.imag != 0,
                       minlength=n_blocks) == 0
    phase &= real[labels]       # only real solves are turned back
    cuts = np.cumsum(np.bincount(row_labels[kept], minlength=n_blocks))[:-1]
    entries = zip(*(np.split(x, cuts) for x in (
        local[coo.row[kept]], local[coo.col[kept]],
        np.where(real[row_labels[kept]], phased, coo.data[kept]))))
    values, blocks = [], []
    for size, start, stop, real_block, (rows, cols, data) in zip(
            sizes, starts, stops, real, entries):
        # the dense block, as H[states][:, states].toarray() would give it,
        # or its real phased form
        if real_block:
            sub = np.zeros((size, size))
            sub[rows, cols] = data.real
        else:
            sub = np.zeros((size, size), dtype=coo.dtype)
            sub[rows, cols] = data
        if vectors:
            w, v = np.linalg.eigh(sub)
            turned = phase[order[start:stop]]
            if turned.any():
                v = v.astype(complex)
                v[turned] *= 1j
            blocks.append(v.astype(coo.dtype, copy=False))
        else:
            w = np.linalg.eigvalsh(sub)
        values.append(w)
    values = np.concatenate(values)
    rank = np.argsort(values, kind="stable")
    if vectors:
        position = np.empty_like(rank)
        position[rank] = np.arange(len(rank))
        blocks = tuple(EigenBlock(order[start:stop], position[start:stop], v)
                       for start, stop, v in zip(starts, stops, blocks))
    return BlockEigh(values[rank], blocks if vectors else None, error_bound,
                     n_blocks, int(np.count_nonzero(real)))


def spectral_sum(solve: BlockEigh, weights: np.ndarray) -> sp.csr_array:
    """Sum over the eigenpairs of a block solve (with vectors) of
    w_k v_k v_k^dag, for one weight per ascending eigenvalue, in CSR.

    The one place eigenvectors are multiplied back out.  With w = f(the
    eigenvalues) this is f(H), which is block-diagonal as H is (Higham,
    Functions of Matrices, Thm 1.13): each block's product is made from
    that block's eigenvectors alone.  Eigenpairs of zero weight are left
    out, so a block whose weights are all zero stores no entries.
    """
    weights = np.asarray(weights)
    dim = len(solve.eigenvalues)
    parts = []
    row_nnz = np.zeros(dim, dtype=np.int64)
    for block in solve.eigenvectors:
        w = weights[block.positions]
        keep = w != 0
        if keep.any():
            V = block.vectors[:, keep]
            parts.append((block.states, (V * w[keep]) @ V.conj().T))
            row_nnz[block.states] = len(block.states)
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    # 32-bit indices, as scipy picks for its own arrays when they fit
    index = np.int32 if indptr[-1] < 2 ** 31 else np.int64
    indptr = indptr.astype(index)
    indices = np.empty(indptr[-1], dtype=index)
    data = np.empty(indptr[-1], dtype=complex)
    for states, product in parts:
        # row states[i] holds product[i] in the columns states, ascending
        slots = indptr[states][:, None] + np.arange(len(states))
        indices[slots] = states
        data[slots] = product
    return sp.csr_array((data, indices, indptr), shape=(dim, dim))


@dataclass(frozen=True)
class Cluster:
    mean: float
    multiplicity: int
    spread: float               # highest minus lowest member eigenvalue


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray     # ascending, lowest k
    levels: tuple               # one Cluster per resolved level, ascending
    error_bound: float          # Weyl bound on every eigenvalue's error
    blocks: int                 # blocks diagonalized


def resolve_levels(evals: np.ndarray) -> list[np.ndarray]:
    """The one Landau-level rule: the levels of ascending eigenvalues,
    each the array of its member indices.

    The eigenvalues split into clusters at every gap wider than
    CLUSTER_RTOL times the eigenvalue above it.  Only the clusters that
    end below the upper third of ``evals`` count (those reaching into it
    are truncation artifacts).  Degenerate levels are clusters of two or
    more members; truncation leaves singleton stragglers, which are
    skipped.  A cluster whose mean is within LEVEL_MERGE_RTOL * |mean| of
    the previous one is a drifted copy and joins that level.
    """
    gaps = np.diff(evals) > CLUSTER_RTOL * np.abs(evals[1:])
    clusters = np.split(np.arange(len(evals)), np.flatnonzero(gaps) + 1)
    cutoff_index = (2 * len(evals)) // 3
    levels: list[np.ndarray] = []
    for cluster in clusters:
        if cluster[-1] >= cutoff_index:
            break
        if len(cluster) < 2:
            continue
        mean = np.mean(evals[cluster])
        if levels and abs(mean - last) < LEVEL_MERGE_RTOL * abs(mean):
            levels[-1] = np.concatenate([levels[-1], cluster])
        else:
            levels.append(cluster)
        last = mean
    return levels


def spectrum(H: FockOperator, k: int) -> SpectrumResult:
    """Lowest-k eigenvalues of a Hermitian operator, with its Landau
    levels as resolve_levels reads them.

    Levels only: the eigensolve is H.solve(vectors=False), whose
    dropped-coupling bound and block count are reported.  Boundary
    pollution is peierls's concern (peierls.lowest_unpolluted).
    """
    solve = H.solve(vectors=False)
    evals = solve.eigenvalues
    levels = tuple(Cluster(float(np.mean(evals[m])), len(m),
                           float(evals[m[-1]] - evals[m[0]]))
                   for m in resolve_levels(evals))
    return SpectrumResult(evals[:k].copy(), levels, solve.error_bound,
                          solve.blocks)


def dominant_clusters(result: SpectrumResult, count: int) -> tuple:
    """The lowest `count` resolved levels of a spectrum (see
    resolve_levels), each one Cluster; fewer than `count` levels means the
    basis has not resolved that many (UnresolvedSpectrum)."""
    if len(result.levels) < count:
        raise UnresolvedSpectrum(
            f"only {len(result.levels)} Landau levels resolved, need {count}; "
            "raise n_max"
        )
    return result.levels[:count]


def suggested_scale(rep) -> float:
    """Basis length that balances the kinetic quadratic form of a rep.

    Matching the basis oscillator length to the realized Hamiltonian's
    squeeze turns slow geometric convergence into (near-)exact block
    structure.  Symmetric-family linear reps balance at sqrt|c/d|; a
    vector-potential rep with constant field curlyB balances at
    sqrt(2/|e curlyB|); any other rep or field defaults to 1.
    """
    if isinstance(rep, LinearRep) and rep.c is not None and rep.d not in (None, 0.0):
        return math.sqrt(abs(rep.c / rep.d))
    if isinstance(rep, VectorPotentialRep):
        field = rep.field
        if field.degree <= 0:
            value = field.eval((0.0, 0.0)).real
            coupling = abs(rep.params.e * value)
            if coupling > 0:
                return math.sqrt(2.0 / coupling)
    return 1.0
