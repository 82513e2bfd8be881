"""Test oracles: the slower independent routes that only the tests run.

Each relates an answer of the package to another description of the same
particle (a momentum-space gauge, a Weyl-ordered differential operator, a
finite-difference Newton law, a closed form, the whole symmetric-gauge
family), reads an operator in a way no command needs, or compares at a
tolerance the library does not use.  They are in the order of the library
modules they read, keep the arithmetic they had there, and neither
validate their input nor return a record.
"""

import math

import numpy as np
import scipy.sparse as sp

from ncqmlab.errors import ArityMismatch
from ncqmlab.fock import (CLUSTER_RTOL, LEVEL_MERGE_RTOL, FockOperator,
                          RealizedOps, _power_sum, build_canonical_ops,
                          poly_of_commuting, realize_rep, spectral_sum)
from ncqmlab.params import kappa
from ncqmlab.peierls import POLLUTION_TOL, Prescription
from ncqmlab.polysymbol import MonomialTable, PolySymbol, x1, x2
from ncqmlab.reps import LinearRep, landau_gauge_rep
from ncqmlab.structures import canonical_omega


def allclose(f: PolySymbol, g: PolySymbol, tol: float) -> bool:
    """PolySymbol.allclose at tolerance tol instead of 1e-12."""
    scale = max(1.0, f.max_abs_coeff(), g.max_abs_coeff())
    return (f - g).max_abs_coeff() <= tol * scale


def commutator(a: FockOperator, b: FockOperator) -> FockOperator:
    return a @ b - b @ a


def restrict(op: FockOperator, degree: int | None = None):
    """Interior-block submatrix for the given polynomial degree, in CSR."""
    mask = op.space.interior_mask(op.degree if degree is None else degree)
    return op.stored[np.ix_(mask, mask)]


def interior_residual(op: FockOperator, target,
                      degree: int | None = None) -> float:
    """Max |op - target| on the interior block; a scalar target means
    target * identity."""
    mask = op.space.interior_mask(op.degree if degree is None else degree)
    block = op.stored[np.ix_(mask, mask)]
    if np.isscalar(target):
        target = target * sp.identity(block.shape[0], format="csr")
    else:
        target = np.asarray(target)[np.ix_(mask, mask)]
    return float(abs(block - target).max())


def quantize_matrix_pair(V: PolySymbol, m1, m2,
                         prescription: Prescription | str = Prescription.WEYL,
                         theta: float | None = None):
    """Quantize a real arity-2 polynomial on a pair of matrices (CSR or
    dense; the result is the same kind) with central commutator
    [m1, m2] = i*theta.

    Weyl symmetrizes every monomial by McCoy's formula
    X1^e1 X2^e2 -> (1/2^e1) sum_r C(e1, r) X1^r X2^e2 X1^(e1-r), valid
    because [X1, X2] is central (cross-checked against the permutation
    average in the tests).  Normal and anti-normal order through the mode
    a = (m1 + i m2)/sqrt(2 theta) and need theta > 0.  The products are
    made in CSR either way.
    """
    dense = not sp.issparse(m1)
    m1, m2 = sp.csr_array(m1, dtype=complex), sp.csr_array(m2, dtype=complex)
    prescription = Prescription(prescription)
    if prescription is Prescription.WEYL:
        terms = [(coeff * math.comb(e1, r) / 2.0 ** e1,
                  ((0, r), (1, e2), (0, e1 - r)))
                 for (e1, e2), coeff in V.terms.items()
                 for r in range(e1 + 1)]
        mats = (m1, m2)
    else:
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
        if prescription is Prescription.NORMAL:
            terms = [(coeff, ((1, eabar), (0, ea)))
                     for (ea, eabar), coeff in symbol.terms.items()]
        else:
            terms = [(coeff, ((0, ea), (1, eabar)))
                     for (ea, eabar), coeff in symbol.terms.items()]
        amat = (m1 + 1.0j * m2) / math.sqrt(2.0 * theta)
        mats = (amat, amat.conj().T)
    total = _power_sum(terms, mats)
    return total.toarray() if dense else total


def quantize_poly(V: PolySymbol, X1: FockOperator, X2: FockOperator,
                  prescription: Prescription | str = Prescription.WEYL,
                  theta: float | None = None) -> FockOperator:
    """Quantize a real arity-2 polynomial V(x1, x2) on rep operators."""
    total = quantize_matrix_pair(V, X1.stored, X2.stored, prescription, theta)
    return FockOperator(total, X1.space, degree=max(1, V.degree))


def unitary_from_hermitian(G: FockOperator) -> np.ndarray:
    """exp(iG) for Hermitian G, built spectrally (exactly unitary)."""
    solve = G.solve()
    return spectral_sum(solve, np.exp(1.0j * solve.eigenvalues)).toarray()


def eigenvector_columns(solve, positions) -> sp.csr_array:
    """The eigenvectors at the given positions of the ascending eigenvalue
    list of a block solve (with vectors), as CSR columns, each stored on
    its own block's states only."""
    dim = len(solve.eigenvalues)
    owner = np.empty(dim, dtype=int)     # block of each position
    local = np.empty(dim, dtype=int)     # its column within that block
    for i, block in enumerate(solve.eigenvectors):
        owner[block.positions] = i
        local[block.positions] = np.arange(len(block.positions))
    positions = np.asarray(positions, dtype=int)
    blocks = [solve.eigenvectors[i] for i in owner[positions]]
    rows = [block.states for block in blocks]
    data = [block.vectors[:, j] for block, j in zip(blocks, local[positions])]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return sp.csc_array((np.concatenate(data), np.concatenate(rows), indptr),
                        shape=(dim, len(positions))).tocsr()


def loop_levels(evals: np.ndarray) -> list:
    """fock.resolve_levels written as a loop over the eigenvalues: a new
    cluster starts where a gap exceeds CLUSTER_RTOL * |E|, E the value
    above it; the upper-third cut, the singleton skip and the drifted-copy
    merge follow as in resolve_levels."""
    clusters, current = [], [0]
    for i in range(1, len(evals)):
        if evals[i] - evals[i - 1] > CLUSTER_RTOL * abs(evals[i]):
            clusters.append(current)
            current = [i]
        else:
            current.append(i)
    clusters.append(current)
    levels = []
    for cluster in clusters:
        if cluster[-1] >= (2 * len(evals)) // 3:
            break
        if len(cluster) < 2:
            continue
        mean = np.mean(evals[cluster])
        if levels and abs(mean - last) < LEVEL_MERGE_RTOL * abs(mean):
            levels[-1] += cluster
        else:
            levels.append(cluster)
        last = mean
    return levels


def landau_closed_forms(params, k: int = 5) -> tuple:
    """(E_n = omega_B (n + 1/2) for n < k, omega_B, rho = |B/kappa| / 2pi)."""
    rho = abs(params.B / kappa(params)) / (2.0 * math.pi)
    return params.omega_B * (np.arange(k) + 0.5), params.omega_B, rho


def symmetric_gauge_family(params, a: float = 1.0,
                           branch: str = "plus") -> LinearRep:
    """The symmetric-gauge reps X1h = a X1 - (theta/2a) P2, X2h = a X2 +
    (theta/2a) P1, P1h = c P1 + d X2, P2h = c P2 - d X1, with c = (1 +-
    sqrt(kappa))/(2a) and d = (a/theta)(1 -+ sqrt(kappa)) on the plus and
    minus branch; reps.symmetric_gauge_rep is a = 1 on the plus branch.

    Written without cancellation through r = 1 + sqrt(kappa) and
    1 - kappa = theta B: (c, d) = (r/(2a), aB/r) on the plus branch, and
    (theta B/(2a r), a r/theta) on the minus branch, which needs theta != 0.
    Both need kappa >= 0 and give the same table and det = kappa."""
    th, B = params.theta, params.B
    r = 1.0 + math.sqrt(kappa(params))
    if branch == "plus":
        c, d = r / (2.0 * a), a * B / r
    else:
        c, d = th * B / (2.0 * a * r), a * r / th
    M = np.array([[a, 0.0, 0.0, -th / (2.0 * a)],
                  [0.0, a, th / (2.0 * a), 0.0],
                  [0.0, d, c, 0.0],
                  [-d, 0.0, 0.0, c]])
    return LinearRep(M, params, c=c, d=d)


def det(rep) -> float:
    """det of a LinearRep's map; kappa for a faithful one."""
    return float(np.linalg.det(rep.matrix))


def decouple(params, rep=None) -> tuple:
    """([K1h, K2h], the 2x2 [Xih, Kjh]) for K_j = P_jh - (1/theta) eps_jk
    X_kh, as coefficients of i: -kappa/theta and zero."""
    rep = landau_gauge_rep(params) if rep is None else rep
    th = params.theta
    x1h, x2h, p1h, p2h = rep.matrix
    k1 = p1h - x2h / th
    k2 = p2h + x1h / th
    omega = canonical_omega()
    xk = np.array([[x1h @ omega @ k1, x1h @ omega @ k2],
                   [x2h @ omega @ k1, x2h @ omega @ k2]])
    return float(k1 @ omega @ k2), xk


def symmetric_momentum_gauge(theta: float) -> tuple:
    """Atilde = (theta p2 / 2, -theta p1 / 2), polynomials in (p1, p2)."""
    p1v, p2v = PolySymbol.variable(2, 0), PolySymbol.variable(2, 1)
    return (0.5 * theta * p2v, -0.5 * theta * p1v)


def landau_momentum_gauge(theta: float) -> tuple:
    """Atilde = (theta p2, 0)."""
    return (theta * PolySymbol.variable(2, 1), PolySymbol.zero(2))


def realize(rep, space) -> RealizedOps:
    """fock.realize_rep, and for a momentum gauge, given as its pair Atilde
    of polynomials in (p1, p2), X_jh = X_j - Atilde_j(P), P_jh = P_j: with
    curl(Atilde) = theta that realizes [X1h, X2h] = i theta."""
    if not isinstance(rep, tuple):
        return realize_rep(rep, space)
    ops = build_canonical_ops(space)
    shift1, shift2 = (poly_of_commuting(a, ops.P1, ops.P2) for a in rep)
    return RealizedOps(ops.X1 - shift1, ops.X2 - shift2, ops.P1, ops.P2)


def gauge_function(Atilde_from, Atilde_to) -> PolySymbol:
    """Polynomial alpha(p) with Atilde_to = Atilde_from + grad alpha, by the
    line integral from the origin: alpha(p) = int_0^{p1} d1(t, p2) dt +
    int_0^{p2} d2(0, t) dt."""
    d1 = Atilde_to[0] - Atilde_from[0]
    d2 = Atilde_to[1] - Atilde_from[1]
    alpha = PolySymbol.zero(2)
    for (e1, e2), coeff in d1.terms.items():
        alpha = alpha + PolySymbol(2, {(e1 + 1, e2): coeff / (e1 + 1)})
    for (e1, e2), coeff in d2.terms.items():
        if e1 == 0:
            alpha = alpha + PolySymbol(2, {(0, e2 + 1): coeff / (e2 + 1)})
    return alpha


def apply_star_operator(V: PolySymbol, psi: PolySymbol,
                        theta: float) -> PolySymbol:
    """V star psi as the Weyl-ordered differential operator V(Xhat) on psi,
    with Xhat_1 = x1 + (i theta/2) d2 and Xhat_2 = x2 - (i theta/2) d1:
    the Moyal series by another route."""
    half = 0.5j * theta
    xhat = (lambda h: x1() * h + half * h.diff(1),
            lambda h: x2() * h - half * h.diff(0))
    operator = PolySymbol.zero(2)
    for (e1, e2), coeff in V.terms.items():
        # Weyl ordering via (1/2^e1) sum_r C(e1,r) X1^r X2^e2 X1^(e1-r),
        # valid because [Xhat1, Xhat2] = i theta is central.
        acc = PolySymbol.zero(2)
        for r in range(e1 + 1):
            h = psi
            for mode, power in ((0, e1 - r), (1, e2), (0, r)):
                for _ in range(power):
                    h = xhat[mode](h)
            acc = acc + math.comb(e1, r) * h
        operator = operator + (coeff / 2.0 ** e1) * acc
    return operator


def poisson_bracket(f: PolySymbol, g: PolySymbol, s) -> PolySymbol:
    """Exact polynomial bracket sum_IJ Omega^{IJ} d_I f d_J g of arity-4
    symbols, for a structure with a constant denominator."""
    den = s.denominator.eval((0.0, 0.0, 0.0, 0.0))
    result = PolySymbol.zero(4)
    df = [f.diff(i) for i in range(4)]
    dg = [g.diff(j) for j in range(4)]
    for i in range(4):
        if df[i].is_zero:
            continue
        for j in range(4):
            entry = s.entries[i][j]
            if entry.is_zero or dg[j].is_zero:
                continue
            result = result + entry * df[i] * dg[j]
    return result * (1.0 / den)


def eom_residual(traj, params, V: PolySymbol) -> np.ndarray:
    """The (n - 2, 2) series of the deformed Newton law, by central
    finite differences along a trajectory's interior,

        m x''_i + kappa d_iV - B eps_ij x'_j - m theta eps_ij d/dt(d_jV),

    with kappa = 1 - theta B and eps_12 = +1, for trajectories of
    H = p^2/2m + V under the standard structure."""
    if V.arity != 4:
        raise ArityMismatch("potential must be arity 4")
    m, theta, B, h = params.m, params.theta, params.B, traj.h
    x = traj.states[:, :2]
    xdot = (x[2:] - x[:-2]) / (2.0 * h)
    xddot = (x[2:] - 2.0 * x[1:-1] + x[:-2]) / h**2
    gradV = MonomialTable([V.diff(i).real() for i in range(2)])(traj.states)
    dt_gradV = (gradV[2:] - gradV[:-2]) / (2.0 * h)
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return (m * xddot
            + kappa(params) * gradV[1:-1]
            - B * xdot @ eps.T
            - m * theta * dt_gradV @ eps.T)


def cumulative(ps) -> FockOperator:
    """Pi_N, the sum of a ProjectorSet's projectors."""
    return sum(ps.projectors[1:], ps.projectors[0])


def ladder_effective_spectrum(V: PolySymbol, lam: float, params, k: int,
                              prescription=Prescription.ANTINORMAL):
    """peierls.effective_potential_spectrum by the matrix route: lam V
    quantized by quantize_matrix_pair on a dim-state ladder with
    [X1, X2] = -i/(eB), dim = max(4k, 2k + 2 max(1, deg V) + 16), solved by
    a dense eigh.  Truncation corrupts the top shells (anti-normal
    products even leave a spurious zero mode in the last basis state), so
    only eigenvectors with at most POLLUTION_TOL of their weight on the
    top quarter of the ladder count: all of those, ascending, of which
    the library kept the lowest k."""
    s = 1.0 / (params.e * params.B)   # signed
    dim = max(4 * k, 2 * k + 2 * max(1, V.degree) + 16)
    c_op = np.diag(np.sqrt(np.arange(1, dim)), 1)
    root = np.sqrt(abs(s) / 2.0)
    U1 = root * (c_op + c_op.conj().T)
    U2 = 1.0j * root * (c_op - c_op.conj().T)   # [U1, U2] = -i|s|
    if s > 0:
        # need [X1, X2] = -i|s|: (X1, X2) = (U1, U2); swap the polynomial
        # arguments so the quantizer sees the +i|s| pair (U2, U1).
        V = PolySymbol(2, {(e2, e1): c for (e1, e2), c in V.terms.items()})
    Q = quantize_matrix_pair(V, U2, U1, prescription, theta=abs(s))
    evals, vecs = np.linalg.eigh(lam * Q)
    weights = np.sum(np.abs(vecs[dim - max(1, dim // 4):]) ** 2, axis=0)
    return evals[weights <= POLLUTION_TOL]
