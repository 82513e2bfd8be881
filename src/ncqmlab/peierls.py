"""Landau-level projectors, truncated canonical operators and their
deformed commutator laws, and the strong-field Peierls spectral
approximation.

Everything here works in the symmetric gauge at theta = 0: the Landau
eigenstates are then Gaussian-localized and truncate cleanly in the number
basis.  Level membership is resolved by eigenvalue clustering; *within* a
level, states are labeled by the guiding-center index g (the eigenvalue
quantum number of G1^2 + G2^2), which measures how far a state's orbit
center sits from the origin.  Truncation artifacts live at large g, so
"interior" always means small guiding index here — occupation-number
cutoffs cannot isolate the physical block because circular eigenstates
spread binomially across the occupation diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ClusterAmbiguity,
    DomainError,
    NonHermitian,
    UnresolvedSpectrum,
)
from .fock import (
    FockOperator,
    FockSpace,
    Prescription,
    RealizedOps,
    block_eigh,
    cluster_eigenvalues,
    cluster_of,
    kinetic_hamiltonian,
    poly_of_commuting,
    quantize_matrix_pair,
    realize_rep,
    resolve_levels,
    spectrum,
    suggested_scale,
)
from .params import NCParams
from .polysymbol import PolySymbol
from .reps import symmetric_vector_potential, vector_potential_rep

# peierls_spectrum drops eigenvectors with more than this probability
# weight on the boundary shells before reading off full_E_n.
POLLUTION_TOL = 1e-6


def _require_commutative_landau(params: NCParams) -> None:
    if params.theta != 0.0:
        raise DomainError(
            "Landau truncation is defined on the commutative plane "
            f"(theta = 0); got theta = {params.theta}"
        )
    if params.e == 0.0 or params.B == 0.0:
        raise DomainError(f"{'B' if params.B == 0.0 else 'e'} = 0 has no "
                          "Landau structure to truncate")


def landau_rep(params: NCParams):
    """The symmetric-gauge minimally coupled representation at theta = 0."""
    _require_commutative_landau(params)
    return vector_potential_rep(symmetric_vector_potential(params.B), params)


def adapted_space(params: NCParams, n_max: int) -> FockSpace:
    """A FockSpace whose oscillator length matches the Landau problem,
    making level degeneracy exact at finite truncation."""
    return FockSpace(n_max, scale=suggested_scale(landau_rep(params)))


@dataclass(frozen=True)
class ProjectorSet:
    """Landau-level projectors P_0..P_N with guiding-ordered level bases.

    ``bases[n]`` holds orthonormal columns spanning level n, ordered by
    the guiding index; ``guiding_indices[n]`` holds the integer g of each
    column.  ``cumulative`` is Pi_N = sum of the projectors.
    """

    projectors: tuple
    level_energies: tuple
    cumulative: FockOperator
    N: int
    bases: tuple
    guiding_indices: tuple
    space: FockSpace
    ops: RealizedOps

    def interior_g_cut(self, N: int | None = None) -> int:
        """Half the smallest maximum guiding index of levels 0..N (all
        levels by default): columns with g at or below this are far from
        the truncation boundary."""
        levels = (self.guiding_indices if N is None
                  else self.guiding_indices[:N + 1])
        return min(int(g[-1]) for g in levels) // 2

    def interior_columns(self, n: int, g_cut: int | None = None) -> np.ndarray:
        if g_cut is None:
            g_cut = self.interior_g_cut()
        return self.bases[n][:, self.guiding_indices[n] <= g_cut]


def landau_projectors(params: NCParams, space: FockSpace,
                      N: int) -> ProjectorSet:
    """Build P_0..P_N by diagonalizing the symmetric-gauge Landau
    Hamiltonian on the truncated space and clustering its eigenvalues.

    Within each level cluster the basis is rotated to diagonalize the
    guiding-center radius G1^2 + G2^2, whose eigenvalues (2g+1)/|b|
    label orbit centers; b = eB.  A level whose cluster also holds an
    eigenvector of the truncated boundary shells (at every odd n_max the
    lowest level does) shows it as a guiding index off the integers, and
    is refused with UnresolvedSpectrum.
    """
    _require_commutative_landau(params)
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N > space.n_max / 4:
        raise ValueError(
            f"N = {N} too close to truncation (need N <= n_max/4 = "
            f"{space.n_max / 4:g})"
        )
    ops = realize_rep(landau_rep(params), space)
    H = kinetic_hamiltonian(ops, params.m)
    if not H.hermitian_flag:
        raise NonHermitian("Landau Hamiltonian failed the Hermiticity check")
    evals, vecs, _, _ = block_eigh(H.stored)
    groups = cluster_eigenvalues(evals)
    clusters = tuple(cluster_of(evals[g]) for g in groups)
    levels = resolve_levels(clusters)
    if len(levels) < N + 1:
        raise UnresolvedSpectrum(
            f"only {len(levels)} Landau levels resolved at n_max = "
            f"{space.n_max}, need {N + 1}; raise n_max"
        )

    b = params.e * params.B
    inv_b = 1.0 / b
    G1 = ops.X1 + inv_b * ops.P2
    G2 = ops.X2 - inv_b * ops.P1
    G_sq = (G1 @ G1 + G2 @ G2).stored

    projectors = []
    energies = []
    bases = []
    guidings = []
    for n, level in enumerate(levels[:N + 1]):
        members = [i for idx in level for i in groups[idx]]
        W = vecs[:, members]
        block = W.conj().T @ (G_sq @ W)
        gvals, rot = np.linalg.eigh(block)
        Wg = W @ rot
        g_index = (np.abs(b) * gvals - 1.0) / 2.0
        g_int = np.rint(g_index).astype(int)
        off = np.abs(g_index - g_int) > 1e-6
        if np.any(off):
            raise UnresolvedSpectrum(
                f"level {n} at n_max = {space.n_max} holds a state whose "
                f"guiding-center index reads {g_index[off][0]:.4g}, not an "
                "integer: a state of the truncated boundary shells that "
                "shares the level energy, not a Landau state; the basis "
                "does not resolve this level cleanly, choose another n_max"
            )
        order = np.argsort(g_int)
        Wg = Wg[:, order]
        g_int = g_int[order]
        P = FockOperator(Wg @ Wg.conj().T, space, degree=H.degree)
        projectors.append(P)
        energies.append(float(np.mean(evals[members])))
        bases.append(Wg)
        guidings.append(g_int)

    cumulative = projectors[0]
    for P in projectors[1:]:
        cumulative = cumulative + P
    return ProjectorSet(tuple(projectors), tuple(energies), cumulative,
                        N, tuple(bases), tuple(guidings), space, ops)


def sinc_profile(h, n: int):
    """The scalar level-selector f(h) = (4/(pi(2n+1))) *
    sin((n+1/2) pi (h-1)) / ((h-1)(h+1)), with the removable singularity
    f(1) = 1 handled exactly; h = E/E_n."""
    h = np.asarray(h, dtype=float)
    out = 2.0 * np.sinc((n + 0.5) * (h - 1.0)) / (h + 1.0)
    return out if out.shape else float(out)


def projector_sinc(H: FockOperator, n: int, E_n: float) -> FockOperator:
    """Apply the sinc-type level selector spectrally: V f(D/E_n) V*."""
    if not H.hermitian_flag:
        raise NonHermitian("projector_sinc requires a Hermitian operator")
    evals, vecs, _, _ = block_eigh(H.stored)
    f = sinc_profile(evals / E_n, n)
    return FockOperator((vecs * f) @ vecs.conj().T, H.space, degree=H.degree)


def _fit_and_residual(blocks: list, N: int, diag_targets: list) -> tuple:
    """Mean top-level diagonal plus the worst deviation from the target
    block structure diag_targets[n] * I_n (zero off-diagonal blocks)."""
    M_NN = blocks[N][N]
    fitted = complex(np.mean(np.diag(M_NN)))
    residual = 0.0
    for n in range(N + 1):
        for m in range(N + 1):
            block = blocks[n][m]
            target = diag_targets[n] * np.eye(block.shape[0]) \
                if n == m else 0.0
            residual = max(residual, float(np.max(np.abs(block - target))))
    lower = None
    if N > 0:
        lower = complex(np.mean([np.mean(np.diag(blocks[n][n]))
                                 for n in range(N)]))
    return fitted, lower, residual


def truncated_commutators(ps: ProjectorSet, N: int, X, P,
                          params: NCParams) -> dict:
    """Form the truncated canonical operators X_i^t = Pi_N X_i Pi_N,
    P_j^t = Pi_N P_j Pi_N and fit their commutators on the guiding
    interior.

    The closed laws, valid on interior states:
        [X1^t, X2^t] = -i (N+1)/(eB) P_N
        [P1^t, P2^t] = -i (eB/4)(N+1) P_N
        [X_i^t, P_j^t] = i delta_ij (Pi_{N-1} + (1 - (N+1)/2) P_N)
    The cross law's Pi_{N-1} term restores the canonical commutator on
    the levels below N; trace balance forces a compensating guiding-edge
    contribution, which is why the fits are taken at small g only.

    The work is done in the level basis: with the level bases stacked
    into W (so Pi_N = W W^dag and W^dag W = 1), W_n^dag [Pi A Pi, Pi B Pi]
    W_m is the (n, m) row/column selection of [W^dag A W, W^dag B W], a
    commutator of rank(Pi_N)-square compressions.  The report is
    JSON-serializable.
    """
    if N > ps.N:
        raise ValueError(f"N = {N} exceeds the ProjectorSet range {ps.N}")
    W = np.hstack(ps.bases[:N + 1])
    g_cut = ps.interior_g_cut(N)
    starts = np.cumsum([0] + [basis.shape[1] for basis in ps.bases[:N]])
    interior = [start + np.flatnonzero(g <= g_cut)
                for start, g in zip(starts, ps.guiding_indices[:N + 1])]

    def compress(op):
        return W.conj().T @ (op.stored @ W)

    Xt = [compress(op) for op in X]
    Pt = [compress(op) for op in P]

    report = {"N": N, "g_cut": g_cut}
    overall = 0.0

    def record(tag, A, B, predicted, lower_target):
        nonlocal overall
        C = A @ B - B @ A
        blocks = [[C[np.ix_(rows, cols)] for cols in interior]
                  for rows in interior]
        targets = [lower_target] * N + [predicted]
        fitted, lower, residual = _fit_and_residual(blocks, N, targets)
        report[f"coefficient_{tag}"] = fitted.imag
        report[f"predicted_{tag}"] = predicted.imag
        report[f"residual_{tag}"] = residual
        if lower is not None:
            report[f"coefficient_{tag}_lower"] = lower.imag
        overall = max(overall, residual)

    eB = params.e * params.B
    record("X1X2", Xt[0], Xt[1], -1j * (N + 1) / eB, 0.0)
    record("P1P2", Pt[0], Pt[1], -1j * (eB / 4.0) * (N + 1), 0.0)
    cross_coeff = 1j * (1.0 - 0.5 * (N + 1))
    for i in range(2):
        for j in range(2):
            tag = f"X{i + 1}P{j + 1}"
            predicted = cross_coeff if i == j else 0.0j
            lower = 1j if i == j else 0.0j
            record(tag, Xt[i], Pt[j], predicted, lower)
    report["residual_norm"] = overall
    return report


@dataclass(frozen=True)
class PeierlsResult:
    """Strong-field comparison record: the lowest-level effective spectrum
    epsilon_n against the shifted exact spectrum full_E_n - omega_B/2."""

    epsilon_n: np.ndarray
    full_E_n: np.ndarray
    omega_B: float
    prescription: Prescription
    error_bound: float      # Weyl bound on the error of each full_E_n
    blocks: int             # blocks of the two-mode eigensolve

    def deviations(self) -> np.ndarray:
        return (self.full_E_n - 0.5 * self.omega_B) - self.epsilon_n


def effective_potential_spectrum(V: PolySymbol, lam: float,
                                 params: NCParams, k: int,
                                 prescription=Prescription.ANTINORMAL,
                                 dim: int | None = None,
                                 boundary_tol: float = 1e-8) -> np.ndarray:
    """Eigenvalues of lam * V(X1^t, X2^t) on the one-mode lowest-level
    system with [X1^t, X2^t] = -i/(eB).

    Anti-normal ordering of the effective mode (lowering operators to the
    left) reproduces the exact lowest-level compression P_0 V P_0; it is
    therefore the default.  Weyl and normal orderings are available for
    comparison; they differ at relative order 1/B.

    Ladder truncation corrupts the top shells (anti-normal products even
    leave a spurious zero mode in the last basis state), so eigenvectors
    with more than ``boundary_tol`` weight on the top quarter of the
    ladder are discarded before the lowest k eigenvalues are read off.
    """
    if V.arity != 2:
        raise ValueError("V must be an arity-2 polynomial")
    prescription = Prescription(prescription)
    s = 1.0 / (params.e * params.B)   # signed
    if dim is None:
        dim = max(4 * k, 2 * k + 2 * max(1, V.degree) + 16)
    c_op = np.diag(np.sqrt(np.arange(1, dim)), 1)
    root = np.sqrt(abs(s) / 2.0)
    U1 = root * (c_op + c_op.conj().T)
    U2 = 1.0j * root * (c_op - c_op.conj().T)   # [U1, U2] = -i|s|
    if s > 0:
        # need [X1, X2] = -i|s|: (X1, X2) = (U1, U2); swap the polynomial
        # arguments so the quantizer sees the +i|s| pair (U2, U1).
        poly = PolySymbol(2, {(e2, e1): c for (e1, e2), c in V.terms.items()})
    else:
        # [X1, X2] = +i|s|: (X1, X2) = (U2, U1) directly.
        poly = V
    Q = quantize_matrix_pair(poly, U2, U1, prescription, theta=abs(s))
    evals, vecs = np.linalg.eigh(lam * Q)
    boundary = slice(dim - max(1, dim // 4), dim)
    weight = np.sum(np.abs(vecs[boundary, :]) ** 2, axis=0)
    evals = evals[weight <= boundary_tol]
    if len(evals) < k:
        raise ClusterAmbiguity(
            "too few boundary-clean eigenvectors; increase dim"
        )
    return evals[:k]


def peierls_spectrum(V: PolySymbol, lam: float, params: NCParams, k: int,
                     n_max: int = 30,
                     prescription=Prescription.ANTINORMAL) -> PeierlsResult:
    """Peierls approximation against the exact truncated-space spectrum.

    epsilon_n comes from the one-mode effective system; full_E_n is the
    pollution-filtered spectrum of H = Pi^2/2m + lam V on the adapted
    two-mode space.  In the strong-field regime full_E_n approaches
    omega_B/2 + epsilon_n.
    """
    _require_commutative_landau(params)
    epsilon = effective_potential_spectrum(V, lam, params, k, prescription)
    space = adapted_space(params, n_max)
    ops = realize_rep(landau_rep(params), space)
    H = kinetic_hamiltonian(ops, params.m)
    if lam != 0.0:
        H = H + lam * poly_of_commuting(V, ops.X1, ops.X2)
    full = spectrum(H, k, pollution_tol=POLLUTION_TOL)
    return PeierlsResult(epsilon, full.eigenvalues[:k], params.omega_B,
                         Prescription(prescription), full.error_bound,
                         full.blocks)
