"""Finite-dimensional realization on a truncated two-mode number basis.

Basis states |n1, n2> with per-mode occupation up to ``n_max`` are indexed
as n1*(n_max+1) + n2.  Truncation makes commutators exact only away from
the cutoff; checks restrict to the interior block, which excludes states
within ``interior_margin * degree`` shells of the cutoff.

The optional basis length ``scale`` sets X = scale (a + a^dag)/sqrt(2),
P = (a - a^dag)/(i sqrt(2) scale); canonical commutators are unchanged
while convergence for strong fields improves when scale ~ sqrt(2/B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .errors import (
    NonHermitian,
    SingularDensity,
    ThetaNonPositive,
    UnresolvedSpectrum,
)
from .params import NCParams, kappa
from .polysymbol import PolySymbol
from .reps import LinearRep, MomentumGaugeRep, VectorPotentialRep

HERMITICITY_TOL = 1e-12
# Entries at or below this fraction of the largest |H_ij| do not couple
# basis states into one block; block_eigh drops them and reports their norm.
BLOCK_COUPLING_TOL = 1e-13
# Qualified clusters whose means differ by less than this fraction of the
# mean are drifted copies of one level (see resolve_levels).
LEVEL_MERGE_RTOL = 1e-4


class Prescription(str, Enum):
    WEYL = "weyl"
    NORMAL = "normal"
    ANTINORMAL = "antinormal"


@dataclass(frozen=True)
class FockSpace:
    """Truncated two-mode space with per-mode cutoff n_max."""

    n_max: int
    interior_margin: int = 2
    scale: float = 1.0

    def __post_init__(self):
        if self.n_max < 4:
            raise ValueError("n_max must be at least 4")
        if self.interior_margin < 1:
            raise ValueError("interior_margin must be at least 1")
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
        cut = self.n_max - self.interior_margin * max(int(degree), 1)
        if cut < 0:
            raise ValueError(f"n_max too small for degree-{degree} interior block")
        occ = self.occupations
        return (occ[:, 0] <= cut) & (occ[:, 1] <= cut)


class FockOperator:
    """Dense complex operator with its space and polynomial-degree metadata."""

    __slots__ = ("matrix", "space", "degree", "_herm")

    def __init__(self, matrix: np.ndarray, space: FockSpace, degree: int = 1):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (space.dim, space.dim):
            raise ValueError("matrix shape does not match space dimension")
        self.matrix = matrix
        self.space = space
        self.degree = int(degree)
        self._herm: bool | None = None

    @property
    def hermitian_flag(self) -> bool:
        """Validated Hermiticity: max |A - A^dag| entry <= 1e-12 (scaled)."""
        if self._herm is None:
            defect = np.max(np.abs(self.matrix - self.matrix.conj().T))
            scale = max(1.0, float(np.max(np.abs(self.matrix))))
            self._herm = bool(defect <= HERMITICITY_TOL * scale)
        return self._herm

    def _binary(self, other, matrix, degree) -> "FockOperator":
        if isinstance(other, FockOperator) and other.space is not self.space:
            if other.space != self.space:
                raise ValueError("operators live on different spaces")
        return FockOperator(matrix, self.space, degree)

    def __add__(self, other):
        if isinstance(other, FockOperator):
            return self._binary(other, self.matrix + other.matrix,
                                max(self.degree, other.degree))
        return FockOperator(self.matrix + other * np.eye(self.space.dim),
                            self.space, self.degree)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rsub__(self, other):
        return (-1.0) * self + other

    def __mul__(self, scalar):
        if isinstance(scalar, FockOperator):
            return self @ scalar
        return FockOperator(self.matrix * scalar, self.space, self.degree)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        return self._binary(other, self.matrix @ other.matrix,
                            self.degree + other.degree)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.matrix.conj().T, self.space, self.degree)

    def commutator(self, other: "FockOperator") -> "FockOperator":
        return self @ other - other @ self

    def restrict(self, degree: int | None = None) -> np.ndarray:
        """Interior-block submatrix for the given polynomial degree."""
        mask = self.space.interior_mask(self.degree if degree is None else degree)
        return self.matrix[np.ix_(mask, mask)]

    def interior_residual(self, target: np.ndarray | complex,
                          degree: int | None = None) -> float:
        """Max |self - target| on the interior block; scalar target means
        target * identity."""
        block = self.restrict(degree)
        if np.isscalar(target):
            ref = np.eye(block.shape[0]) * target
        else:
            mask = self.space.interior_mask(self.degree if degree is None else degree)
            ref = np.asarray(target)[np.ix_(mask, mask)]
        return float(np.max(np.abs(block - ref)))


@dataclass(frozen=True)
class RealizedOps:
    """The four realized operators of a representation."""

    X1: FockOperator
    P1: FockOperator
    X2: FockOperator
    P2: FockOperator

    def as_tuple(self):
        return (self.X1, self.P1, self.X2, self.P2)


def ladder(space: FockSpace, mode: int) -> FockOperator:
    """Annihilation operator of the given mode (0 or 1)."""
    n = space.n_max + 1
    a = np.diag(np.sqrt(np.arange(1, n)), k=1)
    eye = np.eye(n)
    mat = np.kron(a, eye) if mode == 0 else np.kron(eye, a)
    return FockOperator(mat, space, degree=1)


def build_canonical_ops(space: FockSpace) -> RealizedOps:
    """Canonical X1, P1, X2, P2 from the two-mode ladder construction."""
    s = space.scale
    out = []
    for mode in (0, 1):
        a = ladder(space, mode)
        ad = a.dagger()
        X = (s / math.sqrt(2.0)) * (a + ad)
        P = (1.0 / (s * math.sqrt(2.0))) * (-1.0j) * (a - ad)
        out.extend([X, P])
    return RealizedOps(out[0], out[1], out[2], out[3])


def poly_of_commuting(poly: PolySymbol, A: FockOperator, B: FockOperator,
                      hermitian: bool = True) -> FockOperator:
    """Evaluate an arity-2 polynomial on two commuting operators.

    Powers are cached; with real coefficients and commuting Hermitian
    arguments the result is Hermitian.
    """
    if poly.arity != 2:
        raise ValueError("expected an arity-2 polynomial")
    space = A.space
    dim = space.dim
    deg = max(1, poly.degree)
    powA = [np.eye(dim, dtype=complex)]
    powB = [np.eye(dim, dtype=complex)]
    for _ in range(deg):
        powA.append(powA[-1] @ A.matrix)
        powB.append(powB[-1] @ B.matrix)
    total = np.zeros((dim, dim), dtype=complex)
    for (e1, e2), coeff in poly.terms.items():
        total += coeff * (powA[e1] @ powB[e2])
    op = FockOperator(total, space, degree=max(poly.degree, 1))
    if hermitian and not op.hermitian_flag:
        raise NonHermitian("polynomial of commuting operators came out non-Hermitian")
    return op


def realize_rep(rep, space: FockSpace) -> RealizedOps:
    """Realize a representation as matrices on the truncated space."""
    ops = build_canonical_ops(space)
    if isinstance(rep, LinearRep):
        rows = []
        canon = ops.as_tuple()
        for i in range(4):
            mat = sum(rep.matrix[i, j] * canon[j].matrix for j in range(4))
            rows.append(FockOperator(mat, space, degree=1))
        return RealizedOps(rows[0], rows[1], rows[2], rows[3])
    if isinstance(rep, MomentumGaugeRep):
        shift1 = poly_of_commuting(rep.Atilde[0], ops.P1, ops.P2)
        shift2 = poly_of_commuting(rep.Atilde[1], ops.P1, ops.P2)
        return RealizedOps(ops.X1 - shift1, ops.P1, ops.X2 - shift2, ops.P2)
    if isinstance(rep, VectorPotentialRep):
        coupling = rep.params.e / rep.params.c
        a1 = poly_of_commuting(rep.A[0], ops.X1, ops.X2)
        a2 = poly_of_commuting(rep.A[1], ops.X1, ops.X2)
        return RealizedOps(ops.X1, ops.P1 - coupling * a1,
                           ops.X2, ops.P2 - coupling * a2)
    raise TypeError(f"unsupported representation type {type(rep).__name__}")


def _weyl_monomial(e1: int, e2: int, pow1: list, pow2: list) -> np.ndarray:
    """Symmetrized X1^e1 X2^e2 via (1/2^e1) sum_r C(e1,r) X1^r X2^e2 X1^(e1-r).

    Valid because [X1, X2] is central; cross-checked against the direct
    permutation average in the tests.
    """
    total = np.zeros_like(pow1[0])
    for r in range(e1 + 1):
        total += math.comb(e1, r) * (pow1[r] @ pow2[e2] @ pow1[e1 - r])
    return total / (2.0 ** e1)


def weyl_average_reference(e1: int, e2: int, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Brute-force multiset-permutation average (test oracle, small degrees)."""
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


def quantize_matrix_pair(V: PolySymbol, m1: np.ndarray, m2: np.ndarray,
                         prescription: Prescription | str = Prescription.WEYL,
                         theta: float | None = None) -> np.ndarray:
    """Quantize a real arity-2 polynomial on a pair of matrices with
    central commutator [m1, m2] = i*theta.

    Weyl symmetrizes every monomial; normal and anti-normal order through
    the mode a = (m1 + i m2)/sqrt(2 theta) and require theta > 0.
    """
    if V.arity != 2:
        raise ValueError("V must be an arity-2 polynomial")
    if V.max_abs_coeff() > 0 and not V.allclose(V.conj()):
        raise ValueError("V must have real coefficients")
    if not isinstance(prescription, Prescription):
        prescription = Prescription(str(prescription).lower())
    dim = m1.shape[0]
    deg = max(1, V.degree)

    if prescription is Prescription.WEYL:
        pow1 = [np.eye(dim, dtype=complex)]
        pow2 = [np.eye(dim, dtype=complex)]
        for _ in range(deg):
            pow1.append(pow1[-1] @ m1)
            pow2.append(pow2[-1] @ m2)
        total = np.zeros((dim, dim), dtype=complex)
        for (e1, e2), coeff in V.terms.items():
            total += coeff * _weyl_monomial(e1, e2, pow1, pow2)
        return total

    if theta is None or theta <= 0:
        raise ThetaNonPositive(
            "normal / anti-normal ordering requires theta > 0"
        )
    root = math.sqrt(theta / 2.0)
    # classical change of variables to (a, abar):
    # x1 = root (a + abar), x2 = i root (abar - a)
    a_sym = PolySymbol.variable(2, 0)
    abar_sym = PolySymbol.variable(2, 1)
    sub_x1 = root * (a_sym + abar_sym)
    sub_x2 = 1.0j * root * (abar_sym - a_sym)
    symbol = PolySymbol.zero(2)
    for (e1, e2), coeff in V.terms.items():
        symbol = symbol + coeff * (sub_x1 ** e1) * (sub_x2 ** e2)

    amat = (m1 + 1.0j * m2) / math.sqrt(2.0 * theta)
    admat = amat.conj().T
    powa = [np.eye(dim, dtype=complex)]
    powad = [np.eye(dim, dtype=complex)]
    for _ in range(max(1, symbol.degree)):
        powa.append(powa[-1] @ amat)
        powad.append(powad[-1] @ admat)
    total = np.zeros((dim, dim), dtype=complex)
    for (ea, eabar), coeff in symbol.terms.items():
        if prescription is Prescription.NORMAL:
            total += coeff * (powad[eabar] @ powa[ea])
        else:
            total += coeff * (powa[ea] @ powad[eabar])
    return total


def quantize_poly(V: PolySymbol, X1: FockOperator, X2: FockOperator,
                  prescription: Prescription | str = Prescription.WEYL,
                  theta: float | None = None) -> FockOperator:
    """Quantize a real arity-2 polynomial V(x1, x2) on rep operators."""
    total = quantize_matrix_pair(V, X1.matrix, X2.matrix, prescription, theta)
    return FockOperator(total, X1.space, degree=max(1, V.degree))


def kinetic_hamiltonian(ops: RealizedOps, m: float = 1.0) -> FockOperator:
    """H = (P1^2 + P2^2) / (2m) on realized operators."""
    return (1.0 / (2.0 * m)) * (ops.P1 @ ops.P1 + ops.P2 @ ops.P2)


class BlockEigh(NamedTuple):
    """Eigen-decomposition of a Hermitian matrix by its coupling blocks."""

    eigenvalues: np.ndarray          # ascending, as np.linalg.eigh
    eigenvectors: np.ndarray | None  # columns matching eigenvalues
    error_bound: float               # Frobenius norm of dropped couplings
    blocks: int


def _components(rows: np.ndarray, cols: np.ndarray, n: int) -> tuple:
    """(count, labels 0..count-1) of the connected components of the
    undirected graph on n nodes with edges (rows[i], cols[i]).

    Min-label propagation with pointer jumping: every node takes the
    smallest label among itself and its neighbours, then the label of
    that label, until nothing changes; each component ends labelled by
    its smallest node.  Written out rather than taken from
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
            roots, labels = np.unique(labels, return_inverse=True)
            return len(roots), labels
        labels = lowest


def block_eigh(matrix: np.ndarray, vectors: bool = True) -> BlockEigh:
    """Hermitian eigensolve that diagonalizes each coupling block alone.

    Basis states are joined when |H_ij| > BLOCK_COUPLING_TOL * max|H|;
    the connected components of that graph are the blocks.  Realized
    Hamiltonians are block-diagonal up to roundoff (shells of equal
    n1 + n2 on a degeneracy-adapted basis, the parity of n1 + n2 on the
    unit-scale basis), so this does the work of dense eigh on each block
    only.  Eigenvalues come back ascending and eigenvectors as full
    columns, as from np.linalg.eigh.  The dropped entries between blocks
    form a Hermitian perturbation E, so by Weyl's inequality every
    eigenvalue differs from that of the full matrix by at most
    ||E||_2 <= ||E||_F = ``error_bound``.
    """
    mags = np.abs(matrix)
    threshold = BLOCK_COUPLING_TOL * np.max(mags, initial=0.0)
    n_blocks, labels = _components(*np.nonzero(mags > threshold),
                                   len(matrix))
    members = np.split(np.argsort(labels, kind="stable"),
                       np.cumsum(np.bincount(labels))[:-1])
    for idx in members:
        mags[np.ix_(idx, idx)] = 0.0    # what is left is the dropped part
    error_bound = float(np.linalg.norm(mags))
    # Free the magnitudes, then allocate the eigenvector matrix before the
    # per-block arrays: other orders fragment the heap, and peak RSS over
    # repeated solves grows past that of dense eigh.
    del mags
    eigvecs = None
    if vectors:
        eigvecs = np.zeros(matrix.shape, dtype=np.result_type(matrix, float))
    values = []
    start = 0
    for idx in members:
        sub = matrix[np.ix_(idx, idx)]
        if vectors:
            w, v = np.linalg.eigh(sub)
            eigvecs[idx, start:start + len(idx)] = v
        else:
            w = np.linalg.eigvalsh(sub)
        values.append(w)
        start += len(idx)
    values = np.concatenate(values)
    order = np.argsort(values, kind="stable")
    if vectors:
        eigvecs = eigvecs[:, order]
    return BlockEigh(values[order], eigvecs, error_bound, n_blocks)


def unitary_from_hermitian(G: FockOperator) -> np.ndarray:
    """exp(iG) for Hermitian G, built spectrally (exactly unitary)."""
    if not G.hermitian_flag:
        raise NonHermitian("generator must be Hermitian")
    evals, vecs, _, _ = block_eigh(G.matrix)
    return (vecs * np.exp(1.0j * evals)) @ vecs.conj().T


@dataclass(frozen=True)
class Cluster:
    mean: float
    multiplicity: int
    spread: float               # highest minus lowest member eigenvalue
    low: float                  # lowest member eigenvalue


@dataclass(frozen=True)
class SpectrumResult:
    eigenvalues: np.ndarray     # ascending, lowest k
    clusters: tuple             # Cluster records, ascending, artifacts dropped
    error_bound: float = 0.0    # Weyl bound on every eigenvalue's error
    blocks: int = 0             # blocks diagonalized; 0 for closed forms

    def cluster_means(self, count: int | None = None) -> np.ndarray:
        means = np.array([c.mean for c in self.clusters])
        return means if count is None else means[:count]


def cluster_eigenvalues(evals: np.ndarray, rel_gap: float = 10.0,
                        atol: float = 1e-9, rtol: float = 1e-9) -> list[list[int]]:
    """Greedy gap clustering of ascending eigenvalues.

    A new cluster starts when the gap to the next value exceeds
    max(rel_gap * current spread, atol + rtol * |value|); the floor keeps
    numerically-degenerate copies together while splitting drifted
    truncation copies away.
    """
    groups: list[list[int]] = []
    current = [0]
    for i in range(1, len(evals)):
        gap = evals[i] - evals[i - 1]
        spread = evals[current[-1]] - evals[current[0]]
        floor = atol + rtol * abs(evals[i])
        if gap > max(rel_gap * spread, floor):
            groups.append(current)
            current = [i]
        else:
            current.append(i)
    groups.append(current)
    return groups


def cluster_of(values: np.ndarray) -> Cluster:
    """The Cluster record of ascending member eigenvalues."""
    return Cluster(float(np.mean(values)), len(values),
                   float(values[-1] - values[0]), float(values[0]))


def spectrum(H: FockOperator, k: int,
             pollution_tol: float | None = None) -> SpectrumResult:
    """Lowest-k eigenvalues plus degeneracy clusters of a Hermitian operator.

    Clusters reaching into the upper third of the computed spectrum are
    discarded as truncation artifacts.  With `pollution_tol` set,
    eigenvectors carrying more than that probability weight on the
    boundary shells are dropped first: products of truncated operators
    corrupt edge states, and at strong fields the corrupted eigenvalues
    can dive below the physical ground state.  The eigensolve is
    block_eigh; its dropped-coupling bound and block count are reported.
    """
    if not H.hermitian_flag:
        raise NonHermitian("spectrum requires a validated Hermitian operator")
    solve = block_eigh(H.matrix, vectors=pollution_tol is not None)
    evals = solve.eigenvalues
    if pollution_tol is not None:
        boundary = ~H.space.interior_mask(H.degree)
        weight = np.sum(np.abs(solve.eigenvectors[boundary, :]) ** 2, axis=0)
        evals = evals[weight <= pollution_tol]
        if len(evals) == 0:
            raise UnresolvedSpectrum(
                "every eigenvector is boundary-polluted at n_max = "
                f"{H.space.n_max}; raise n_max"
            )
    groups = cluster_eigenvalues(evals)
    cutoff_index = (2 * len(evals)) // 3
    clusters = tuple(cluster_of(evals[group]) for group in groups
                     if group[-1] < cutoff_index)
    return SpectrumResult(evals[:k].copy(), clusters, solve.error_bound,
                          solve.blocks)


def resolve_levels(clusters) -> list[list[int]]:
    """Group clusters into resolved levels, ascending by mean.

    Degenerate levels show up as fat clusters of numerically coincident
    copies; truncation leaves singleton stragglers below and between
    levels.  A cluster qualifies when its multiplicity reaches
    max(2, ceil(max_multiplicity / 4)).  Qualified clusters whose means,
    taken in ascending order, differ from the previous qualified mean by
    less than LEVEL_MERGE_RTOL * |mean| are drifted copies of one level
    and make up that level together.  Each level is returned as the
    indices of its clusters.
    """
    if not clusters:
        return []
    top = max(c.multiplicity for c in clusters)
    threshold = max(2, -(-top // 4))
    qualified = sorted((i for i, c in enumerate(clusters)
                        if c.multiplicity >= threshold),
                       key=lambda i: clusters[i].mean)
    levels: list[list[int]] = []
    for i in qualified:
        mean = clusters[i].mean
        if levels and abs(mean - clusters[levels[-1][-1]].mean) \
                < LEVEL_MERGE_RTOL * abs(mean):
            levels[-1].append(i)
        else:
            levels.append([i])
    return levels


def _merge_clusters(members) -> Cluster:
    """One Cluster for a level made of several: multiplicity-weighted
    mean, summed multiplicity, and the spread of all member eigenvalues."""
    if len(members) == 1:
        return members[0]
    count = sum(c.multiplicity for c in members)
    low = min(c.low for c in members)
    high = max(c.low + c.spread for c in members)
    mean = sum(c.mean * c.multiplicity for c in members) / count
    return Cluster(float(mean), count, float(high - low), float(low))


def dominant_clusters(result: SpectrumResult, count: int) -> tuple:
    """The lowest `count` resolved levels (see resolve_levels), each as one
    Cluster; fewer than `count` levels means the basis has not resolved
    that many (UnresolvedSpectrum)."""
    levels = resolve_levels(result.clusters)
    if len(levels) < count:
        raise UnresolvedSpectrum(
            f"only {len(levels)} Landau levels resolved, need {count}; "
            "raise n_max"
        )
    return tuple(_merge_clusters([result.clusters[i] for i in level])
                 for level in levels[:count])


def suggested_scale(rep) -> float:
    """Basis length that balances the kinetic quadratic form of a rep.

    Matching the basis oscillator length to the realized Hamiltonian's
    squeeze turns slow geometric convergence into (near-)exact block
    structure.  Symmetric-family linear reps balance at sqrt|c/d|; a
    vector-potential rep with constant field curlyB balances at
    sqrt(2c/|e curlyB|); other reps default to 1.
    """
    if isinstance(rep, LinearRep) and rep.c is not None and rep.d not in (None, 0.0):
        return math.sqrt(abs(rep.c / rep.d))
    if isinstance(rep, VectorPotentialRep):
        field = rep.field
        if field.degree <= 0:
            value = field.eval((0.0, 0.0)).real
            coupling = abs(rep.params.e * value / rep.params.c)
            if coupling > 0:
                return math.sqrt(2.0 / coupling)
    return 1.0


@dataclass(frozen=True)
class LandauClosedForms:
    energies: np.ndarray
    omega_B: float
    density_of_states: float


def landau_closed_forms(params: NCParams, k: int = 5) -> LandauClosedForms:
    """E_n = hbar omega_B (n + 1/2), omega_B, and rho = |B/(1-B theta)|/2pi.

    The density diverges at kappa = 0 (SingularDensity).
    """
    n = np.arange(k)
    energies = params.hbar * params.omega_B * (n + 0.5)
    kap = kappa(params)
    if kap == 0:
        raise SingularDensity("density of states diverges at kappa = 0")
    rho = abs(params.B / kap) / (2.0 * math.pi)
    return LandauClosedForms(energies, params.omega_B, rho)
