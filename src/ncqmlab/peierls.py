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

The projectors and commutator laws work on the Cartesian two-mode basis of
adapted_space.  peierls_spectrum does not: it writes H = Pi^2/2m + lam V
directly on the Landau-level basis |n, g> (level index n, guiding index g),
where a radial V conserves the angular momentum l = g - n.  H then splits
into 2 n_max + 1 small blocks of fixed l instead of the two parity blocks
of the Cartesian basis, so the solve costs O(n_max^4) rather than
O(n_max^6) and no dense (n_max+1)^2-square matrix is ever made.  A
non-radial V is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonHermitian, UnresolvedSpectrum
from .fock import (
    FockOperator,
    FockSpace,
    Prescription,
    RealizedOps,
    block_eigh,
    eigenvector_columns,
    kinetic_hamiltonian,
    ladder,
    quantize_matrix_pair,
    realize_rep,
    resolve_levels,
    spectral_sum,
    spectrum,
    suggested_scale,
)
from .params import NCParams, require_coupling
from .polysymbol import PolySymbol, x1, x2
from .reps import (symmetric_gauge_rep, symmetric_vector_potential,
                   vector_potential_rep)

# peierls_spectrum drops eigenvectors with more than this probability
# weight on the boundary shells before reading off full_E_n.
POLLUTION_TOL = 1e-6


def _require_commutative_landau(params: NCParams) -> None:
    if params.theta != 0.0:
        raise DomainError(
            "Landau truncation is defined on the commutative plane "
            f"(theta = 0); got theta = {params.theta}"
        )
    require_coupling(params.e, params.B, "B", "has no levels to truncate")


def landau_rep(params: NCParams):
    """The symmetric-gauge minimally coupled representation at theta = 0."""
    _require_commutative_landau(params)
    return vector_potential_rep(symmetric_vector_potential(params.B), params)


def magnetic_rep(params: NCParams):
    """landau_rep at theta = 0, else the symmetric-gauge representation,
    which is written in units e = 1 and refuses any other charge.  A zero
    coupling e B is refused at any theta."""
    require_coupling(params.e, params.B, "B",
                     "a truncated basis shows only artefact levels")
    if params.theta == 0.0:
        return landau_rep(params)
    if params.e != 1.0:
        raise DomainError(
            "spectrum at theta != 0 uses the symmetric-gauge "
            "representation, which realizes [P1, P2] = i B in units "
            f"e = 1; got e = {params.e!r}"
        )
    return symmetric_gauge_rep(params)


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
    Hamiltonian and taking its levels from resolve_levels, as spectrum does.

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
    solve = block_eigh(H.stored)
    evals = solve.eigenvalues
    levels = resolve_levels(evals)
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
    # free what is done with: the dense columns W below take the most room
    del G1, G2

    def projector(members) -> FockOperator:
        indicator = np.zeros(len(evals))
        indicator[members] = 1.0
        return FockOperator(spectral_sum(solve, indicator), space,
                            degree=H.degree)

    projectors = []
    energies = []
    bases = []
    guidings = []
    for n, members in enumerate(levels[:N + 1]):
        W = eigenvector_columns(solve, members)
        gvals, rot = np.linalg.eigh(W.conj().T @ (G_sq @ W))
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
        projectors.append(projector(members))
        energies.append(float(np.mean(evals[members])))
        bases.append(W @ rot[:, order])
        guidings.append(g_int[order])
        del W

    cumulative = projector([k for members in levels[:N + 1] for k in members])
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
    """Apply the sinc-type level selector spectrally: f(H/E_n), made block
    by block by spectral_sum."""
    if not H.hermitian_flag:
        raise NonHermitian("projector_sinc requires a Hermitian operator")
    solve = block_eigh(H.stored)
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
    W_m is the (n, m) row/column selection of [W^dag A W, W^dag B W], a
    commutator of rank(Pi_N)-square compressions.  The report is
    JSON-serializable.
    """
    if N > ps.N:
        raise ValueError(f"N = {N} exceeds the ProjectorSet range {ps.N}")
    W = np.hstack(ps.bases[:N + 1])
    g_cut = ps.interior_g_cut(N)
    guiding = ps.guiding_indices[:N + 1]
    interior = np.flatnonzero(np.concatenate(guiding) <= g_cut)
    level = np.repeat(np.arange(N + 1), [len(g) for g in guiding])[interior]

    def compress(op):
        return W.conj().T @ (op.stored @ W)

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
        raise UnresolvedSpectrum(
            f"only {len(evals)} boundary-clean eigenvectors at dim = {dim}, "
            f"need {k}; raise dim"
        )
    return evals[:k]


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
                     n_max: int = 30,
                     prescription=Prescription.ANTINORMAL) -> PeierlsResult:
    """Peierls approximation against the exact truncated-space spectrum.

    epsilon_n comes from the one-mode effective system; full_E_n is the
    pollution-filtered spectrum of H = Pi^2/2m + lam V on the Landau-level
    basis of landau_basis_hamiltonian.  V must be radial (DomainError
    otherwise); H then splits into 2 n_max + 1 blocks of fixed angular
    momentum, with a zero dropped-coupling bound.  The boundary shells of
    the pollution filter are those of the level index n and the guiding
    index g.  In the strong-field regime full_E_n approaches
    omega_B/2 + epsilon_n.
    """
    _require_commutative_landau(params)
    coeffs = radial_coefficients(V)
    epsilon = effective_potential_spectrum(V, lam, params, k, prescription)
    H = landau_basis_hamiltonian(coeffs, lam, params, n_max)
    full = spectrum(H, k, pollution_tol=POLLUTION_TOL)
    return PeierlsResult(epsilon, full.eigenvalues[:k], params.omega_B,
                         Prescription(prescription), full.error_bound,
                         full.blocks)
