"""Landau-level projectors, truncated canonical operators and their
deformed commutator laws, and the strong-field Peierls spectral
approximation.

Everything here works in the symmetric gauge at theta = 0: the Landau
eigenstates are then Gaussian-localized and truncate cleanly in the number
basis.  The levels are read off the shells s = n1 + n2 that truncation
leaves exact: shell s holds one state of each level n <= s, labeled by the
guiding-center index g = s - n (the quantum number of G1^2 + G2^2), which
measures how far a state's orbit center sits from the origin.  Truncation
artifacts live at large g, so "interior" always means small guiding index
here — occupation-number cutoffs cannot isolate the physical block because
circular eigenstates spread binomially across the occupation diagonal.

The projectors and commutator laws work on the Cartesian two-mode basis of
adapted_space.  peierls_spectrum does not: it writes H = Pi^2/2m + lam V
directly on the Landau-level basis |n, g> (level index n, guiding index g),
where a radial V conserves the angular momentum l = g - n.  H then splits
into 2 n_max + 1 small blocks of fixed l instead of the two parity blocks
of the Cartesian basis, so the solve costs O(n_max^4) rather than
O(n_max^6) and no dense (n_max+1)^2-square matrix is ever made.  A
non-radial V is refused.  Both Peierls spectra drop truncation artefacts
by one rule, lowest_unpolluted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, UnresolvedSpectrum
from .fock import (
    FockOperator,
    FockSpace,
    Prescription,
    RealizedOps,
    eigenvector_columns,
    kinetic_hamiltonian,
    ladder,
    quantize_matrix_pair,
    realize_rep,
    spectral_sum,
    suggested_scale,
)
from .params import NCParams, require_coupling
from .polysymbol import PolySymbol, x1, x2
from .reps import symmetric_gauge_rep

# The most probability weight an eigenvector may carry on the boundary and
# still count as physical (see lowest_unpolluted).
POLLUTION_TOL = 1e-6


def _require_commutative_landau(params: NCParams) -> None:
    if params.theta != 0.0:
        raise DomainError(
            "Landau truncation is defined on the commutative plane "
            f"(theta = 0); got theta = {params.theta}"
        )
    require_coupling(params.e, params.B, "B", "has no levels to truncate")


def magnetic_rep(params: NCParams):
    """The symmetric-gauge representation of charge e in the field B at
    any theta, with the charge folded into the field: it realizes
    [P1, P2] = i e B, kappa = 1 - theta e B.  A zero e B is refused."""
    require_coupling(params.e, params.B, "B",
                     "a truncated basis shows only artefact levels")
    return symmetric_gauge_rep(replace(params, B=params.e * params.B, e=1.0))


def adapted_space(params: NCParams, n_max: int) -> FockSpace:
    """A FockSpace whose oscillator length matches the Landau problem,
    making level degeneracy exact at finite truncation."""
    _require_commutative_landau(params)
    return FockSpace(n_max, scale=suggested_scale(magnetic_rep(params)))


@dataclass(frozen=True)
class ProjectorSet:
    """Landau-level projectors P_0..P_N with guiding-ordered level bases.

    ``bases[n]`` holds orthonormal CSR columns spanning level n; column g
    is the state of guiding index g, stored on its shell n + g of the
    adapted basis, and P_n = W_n W_n^dag for W_n = bases[n].
    """

    projectors: tuple
    level_energies: tuple
    N: int
    bases: tuple
    space: FockSpace
    ops: RealizedOps

    def interior_g_cut(self, N: int | None = None) -> int:
        """Half of n_max - 1 - N, the largest guiding index of level N (of
        the top level by default) and so the smallest among levels 0..N:
        columns with g at or below this are far from the truncation
        boundary."""
        top = self.N if N is None else N
        return (self.space.n_max - 1 - top) // 2

    def interior_columns(self, n: int) -> sp.csr_array:
        """The columns of level n with g at or below interior_g_cut()."""
        return self.bases[n][:, :self.interior_g_cut() + 1]


def landau_projectors(params: NCParams, space: FockSpace,
                      N: int) -> ProjectorSet:
    """Build P_0..P_N from the exact shell blocks of the symmetric-gauge
    Landau Hamiltonian.

    On the adapted basis each shell s = n1 + n2 is one coupling block of
    H, and H's products reach one shell outward, so the shells s < n_max
    are exact: their eigenvalues are omega_B (n + 1/2), n = 0..s, and the
    n-th lowest eigenvector of shell s is the level-n state of guiding
    index g = s - n.  Level n is one state from each of the shells
    n..n_max - 1; the shells s >= n_max touch the truncation and are never
    read.  A basis whose shells are not single blocks of H (the unit
    scale) is refused with UnresolvedSpectrum.  H is the
    kinetic_hamiltonian of the returned ``ops``, so a caller that asks for
    it gets this operator with its solve already made.
    """
    _require_commutative_landau(params)
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N > space.n_max / 4:
        raise ValueError(
            f"N = {N} too close to truncation (need N <= n_max/4 = "
            f"{space.n_max / 4:g})"
        )
    ops = realize_rep(magnetic_rep(params), space)
    H = kinetic_hamiltonian(ops, params.m)
    solve = H.solve()
    shell = space.occupations.sum(axis=1)
    exact = {}      # whole shell s -> its eigenvalue positions, ascending
    for block in solve.eigenvectors:
        s = shell[block.states[0]]
        if len(block.states) == s + 1 and np.all(shell[block.states] == s):
            exact[s] = block.positions
    missing = [s for s in range(space.n_max) if s not in exact]
    if missing:
        raise UnresolvedSpectrum(
            f"shell n1 + n2 = {missing[0]} at n_max = {space.n_max} is not "
            "one coupling block of the Landau Hamiltonian, so its levels "
            "cannot be read off; build the space with adapted_space"
        )
    levels = [[exact[s][n] for s in range(n, space.n_max)]
              for n in range(N + 1)]
    bases = tuple(eigenvector_columns(solve, members) for members in levels)
    projectors = tuple(FockOperator(W @ W.conj().T, space, degree=H.degree)
                       for W in bases)
    energies = tuple(float(np.mean(solve.eigenvalues[members]))
                     for members in levels)
    return ProjectorSet(projectors, energies, N, bases, space, ops)


def sinc_profile(h, n: int):
    """The scalar level-selector f(h) = (4/(pi(2n+1))) *
    sin((n+1/2) pi (h-1)) / ((h-1)(h+1)), with the removable singularity
    f(1) = 1 handled exactly; h = E/E_n."""
    h = np.asarray(h, dtype=float)
    out = 2.0 * np.sinc((n + 0.5) * (h - 1.0)) / (h + 1.0)
    return out if out.shape else float(out)


def projector_sinc(H: FockOperator, n: int, E_n: float) -> FockOperator:
    """Apply the sinc-type level selector spectrally: f(H/E_n), made block
    by block by spectral_sum from H's one solve (FockOperator.solve)."""
    solve = H.solve()
    f = sinc_profile(solve.eigenvalues / E_n, n)
    return FockOperator(spectral_sum(solve, f), H.space, degree=H.degree)


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
    W_m is the (n, m) row/column selection of [W^dag A W, W^dag B W].  W
    is CSR; those rank(Pi_N)-square compressions are the only dense
    arrays.  The report is JSON-serializable.
    """
    if N > ps.N:
        raise ValueError(f"N = {N} exceeds the ProjectorSet range {ps.N}")
    W = sp.hstack(ps.bases[:N + 1], format="csr")
    g_cut = ps.interior_g_cut(N)
    ranks = [basis.shape[1] for basis in ps.bases[:N + 1]]
    guiding = np.concatenate([np.arange(rank) for rank in ranks])
    interior = np.flatnonzero(guiding <= g_cut)
    level = np.repeat(np.arange(N + 1), ranks)[interior]

    def compress(op):
        return (W.conj().T @ (op.stored @ W)).toarray()

    Xt = [compress(op) for op in X]
    Pt = [compress(op) for op in P]

    report = {"N": N, "g_cut": g_cut}
    overall = 0.0

    def record(tag, A, B, predicted, lower_target):
        """Fit the commutator's interior diagonal on level N (and the mean
        of the per-level means below it); the residual is its worst
        deviation from diag(lower_target, ..., lower_target, predicted)."""
        nonlocal overall
        C = (A @ B - B @ A)[np.ix_(interior, interior)]
        diagonal = np.diag(C)
        target = np.where(level == N, predicted, lower_target)
        residual = float(np.max(np.abs(C - np.diag(target))))
        means = [np.mean(diagonal[level == n]) for n in range(N + 1)]
        report[f"coefficient_{tag}"] = float(means[N].imag)
        report[f"predicted_{tag}"] = predicted.imag
        report[f"residual_{tag}"] = residual
        if N > 0:
            lower = np.mean(means[:N])
            report[f"coefficient_{tag}_lower"] = float(lower.imag)
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


def lowest_unpolluted(evals: np.ndarray, weights: np.ndarray, k: int,
                      size: str, value: int) -> np.ndarray:
    """The lowest k of ascending eigenvalues whose eigenvectors carry at
    most POLLUTION_TOL of their probability (``weights``) on the boundary.

    Products of truncated operators corrupt the states near the cutoff,
    and at strong fields their eigenvalues can dive below the physical
    ground state.  Fewer than k clean ones is an UnresolvedSpectrum that
    names the truncation ``size`` ("n_max" or "dim") at its ``value``.
    """
    evals = evals[weights <= POLLUTION_TOL]
    if len(evals) < k:
        found = (f"only {len(evals)} of {k} eigenvectors are free of "
                 "boundary pollution" if len(evals) else
                 "every eigenvector is boundary-polluted")
        raise UnresolvedSpectrum(f"{found} at {size} = {value}; raise {size}")
    return evals[:k]


def boundary_weights(H: FockOperator) -> np.ndarray:
    """Each eigenvector's probability weight on the boundary shells of
    H's space (those outside interior_mask(H.degree)), in the ascending
    order of H.solve(), read block by block."""
    solve = H.solve()
    boundary = ~H.space.interior_mask(H.degree)
    weights = np.empty(len(solve.eigenvalues))
    for block in solve.eigenvectors:
        edge = block.vectors[boundary[block.states]]
        weights[block.positions] = np.sum(np.abs(edge) ** 2, axis=0)
    return weights


def effective_potential_spectrum(
        V: PolySymbol, lam: float, params: NCParams, k: int,
        prescription=Prescription.ANTINORMAL) -> np.ndarray:
    """Eigenvalues of lam * V(X1^t, X2^t) on the one-mode lowest-level
    system with [X1^t, X2^t] = -i/(eB).

    Anti-normal ordering of the effective mode (lowering operators to the
    left) reproduces the exact lowest-level compression P_0 V P_0; it is
    therefore the default.  Weyl and normal orderings are available for
    comparison; they differ at relative order 1/B.

    The ladder has dim = max(4k, 2k + 2 max(1, deg V) + 16) states.  Its
    truncation corrupts the top shells (anti-normal products even leave a
    spurious zero mode in the last basis state), so the lowest k
    eigenvalues are read off by lowest_unpolluted, with the top quarter
    of the ladder as the boundary.  The solve is a dense eigh on purpose:
    at a few dozen states, block_eigh's block search costs more than it.
    """
    if V.arity != 2:
        raise ValueError("V must be an arity-2 polynomial")
    prescription = Prescription(prescription)
    s = 1.0 / (params.e * params.B)   # signed
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
    weights = np.sum(np.abs(vecs[boundary, :]) ** 2, axis=0)
    return lowest_unpolluted(evals, weights, k, "dim", dim)


def radial_potential(coefficients) -> PolySymbol:
    """V = sum_k c_k r^(2k) from the coefficient list (c_1, c_2, ...)."""
    r2 = x1() ** 2 + x2() ** 2
    V = PolySymbol.zero(2)
    for power, coeff in enumerate(coefficients, start=1):
        if coeff != 0.0:
            V = V + coeff * r2 ** power
    return V


def radial_coefficients(V: PolySymbol) -> list:
    """(c_0, c_1, ..., c_K) with V = sum_k c_k (x1^2 + x2^2)^k.

    The c_k are read off the pure x1^(2k) terms; a V that
    c_0 + radial_potential(c_1, ...) does not reproduce, or one with a
    non-real coefficient, is refused with DomainError.
    """
    if V.arity != 2:
        raise ValueError("V must be an arity-2 polynomial")
    if not V.is_real:
        raise DomainError("peierls needs a real potential V; got complex "
                          "coefficients")
    top = max(V.degree, 0) // 2
    coeffs = [V.terms.get((2 * k, 0), 0.0).real for k in range(top + 1)]
    if not V.allclose(coeffs[0] + radial_potential(coeffs[1:])):
        raise DomainError(
            "peierls conserves angular momentum and needs a radial V = "
            "sum_k c_k (x1^2 + x2^2)^k; this V is not a polynomial in "
            "x1^2 + x2^2"
        )
    return coeffs


def landau_basis_hamiltonian(coeffs, lam: float, params: NCParams,
                             n_max: int) -> FockOperator:
    """H = omega_B (a^dag a + 1/2) + lam sum_k c_k (R^2)^k on the
    symmetric-gauge Landau-level basis |n, g>, n, g <= n_max.

    Mode 0 is the cyclotron ladder a (Landau level n), mode 1 the
    guiding-center ladder b (guiding index g).  The position z = x1 + i x2
    is Z = sqrt(2/|eB|) (b^dag - a), up to the orientation sign of eB,
    which only relabels l -> -l.  Z raises l = g - n by one even in the
    truncated box, so R^2 = (Z Z^dag + Z^dag Z)/2, and every power of it,
    conserves l exactly: H splits into the 2 n_max + 1 blocks of fixed l.
    The powers are products of R^2, never polynomials in X1 and X2: in
    the box X1 and X2 stop commuting at the boundary, and a monomial such
    as X1^2 X2^2 would not conserve l.
    """
    space = FockSpace(n_max)
    a, b = ladder(space, 0), ladder(space, 1)
    H = params.omega_B * (a.dagger() @ a + 0.5)
    if lam == 0.0:
        return H
    Z = math.sqrt(2.0 / abs(params.e * params.B)) * (b.dagger() - a)
    R2 = 0.5 * (Z @ Z.dagger() + Z.dagger() @ Z)
    H = H + lam * coeffs[0]
    power = None
    for c in coeffs[1:]:
        power = R2 if power is None else power @ R2
        if c != 0.0:
            H = H + (lam * c) * power
    return H


def peierls_spectrum(V: PolySymbol, lam: float, params: NCParams, k: int,
                     n_max: int,
                     prescription=Prescription.ANTINORMAL) -> PeierlsResult:
    """Peierls approximation against the exact truncated-space spectrum.

    epsilon_n comes from the one-mode effective system; full_E_n is the
    lowest k eigenvalues of H = Pi^2/2m + lam V on the Landau-level basis
    of landau_basis_hamiltonian, through lowest_unpolluted with the
    boundary_weights of H (the boundary shells are those of the level
    index n and the guiding index g).  V must be radial (DomainError
    otherwise); H then splits into 2 n_max + 1 blocks of fixed angular
    momentum, with a zero dropped-coupling bound.  In the strong-field
    regime full_E_n approaches omega_B/2 + epsilon_n.
    """
    _require_commutative_landau(params)
    coeffs = radial_coefficients(V)
    epsilon = effective_potential_spectrum(V, lam, params, k, prescription)
    H = landau_basis_hamiltonian(coeffs, lam, params, n_max)
    solve = H.solve()
    full = lowest_unpolluted(solve.eigenvalues, boundary_weights(H), k,
                             "n_max", n_max)
    return PeierlsResult(epsilon, full, params.omega_B,
                         Prescription(prescription), solve.error_bound,
                         solve.blocks)
