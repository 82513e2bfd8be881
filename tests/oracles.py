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
from ncqmlab.fock import (FockOperator, Prescription, RealizedOps,
                          build_canonical_ops, poly_of_commuting,
                          quantize_matrix_pair, realize_rep, spectral_sum)
from ncqmlab.params import kappa
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
