"""Linear and gauge representations of the deformed algebra.

A ``LinearRep`` expresses the deformed operators as real linear
combinations of the canonical ones, both in the phase-space order
xi = (x1, x2, p1, p2) of the structures module: row i of ``matrix`` is
xi_hat_i over canonical xi.  Its commutator table is M Omega M^T with the
canonical Omega of that module, and its target is the constant table of the
standard structure there.  Momentum-gauge and vector-potential
representations substitute polynomials of the commuting momenta /
coordinates instead and are realized at the matrix level by the Fock
module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CurlMismatch, NegativeKappa, ZeroTheta
from .params import NCParams, kappa
from .polysymbol import PolySymbol, x1, x2
from .structures import StructureKind, canonical_omega, symplectic_matrix


class Branch(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


def target_table(params: NCParams) -> np.ndarray:
    """Commutator targets in xi order: the standard structure's table."""
    standard = symplectic_matrix(params, StructureKind.STANDARD)
    return standard.matrix_at((0.0, 0.0, 0.0, 0.0))


@dataclass(frozen=True)
class LinearRep:
    """Rows give X1h, X2h, P1h, P2h over canonical (X1, X2, P1, P2)."""

    matrix: np.ndarray
    params: NCParams
    c: float | None = None
    d: float | None = None

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))


def landau_gauge_rep(params: NCParams) -> LinearRep:
    """Minimal representation: X1h=X1, X2h=X2+theta P1, P1h=P1+B X2, P2h=P2.

    Defined for every kappa; det = kappa, so the map is non-invertible
    where ``params.is_singular`` holds (reported there, not raised).
    """
    th, B = params.theta, params.B
    M = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, th, 0.0],
            [0.0, B, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return LinearRep(M, params)


def symmetric_gauge_rep(
    params: NCParams, a: float = 1.0, branch: Branch | str = Branch.PLUS
) -> LinearRep:
    """Two-parameter family with c = (1 +- sqrt(kappa))/(2a), d = (a/theta)(1 -+ sqrt(kappa)).

    Written without cancellation through r = 1 + sqrt(kappa) and
    1 - kappa = theta B: (c, d) = (r/(2a), aB/r) on the plus branch, which
    holds at theta = 0 too, and (theta B/(2a r), a r/theta) on the minus
    branch.  Both need kappa >= 0 and give the same table and det = kappa.
    """
    if a == 0:
        raise ValueError("scale a must be nonzero")
    branch = Branch(branch)
    th, B = params.theta, params.B
    k = kappa(params)
    if k < 0:
        raise NegativeKappa(f"kappa = {k} < 0: coefficients would be complex")
    r = 1.0 + math.sqrt(k)
    if branch is Branch.PLUS:
        c, d = r / (2.0 * a), a * B / r
    elif th == 0:
        raise ZeroTheta("the minus branch requires theta != 0")
    else:
        c, d = th * B / (2.0 * a * r), a * r / th
    M = np.array(
        [
            [a, 0.0, 0.0, -th / (2.0 * a)],
            [0.0, a, th / (2.0 * a), 0.0],
            [0.0, d, c, 0.0],
            [-d, 0.0, 0.0, c],
        ]
    )
    return LinearRep(M, params, c=c, d=d)


def commutator_table(rep: LinearRep) -> np.ndarray:
    """M . Omega_can . M^T — the realized commutator coefficients."""
    M = rep.matrix
    return M @ canonical_omega() @ M.T


def table_residual(rep: LinearRep) -> float:
    """Max entrywise deviation of the realized table from the target."""
    return float(np.max(np.abs(commutator_table(rep) - target_table(rep.params))))


@dataclass(frozen=True)
class DecoupleResult:
    K_rows: np.ndarray          # 2x4, K1h and K2h over canonical xi
    KK_commutator: float        # coefficient of i in [K1h, K2h]
    XK_commutators: np.ndarray  # 2x2 residuals [Xih, Kjh], identically 0


def decouple(params: NCParams, rep: LinearRep | None = None) -> DecoupleResult:
    """Split off K_j = P_jh - (1/theta) eps_{jk} X_kh.

    [K1h, K2h] = -i kappa/theta and [Xih, Kjh] = 0; at kappa = 0 the K's
    are central.
    """
    if params.theta == 0:
        raise ZeroTheta("decoupling requires theta != 0")
    if rep is None:
        rep = landau_gauge_rep(params)
    th = params.theta
    x1h, x2h, p1h, p2h = rep.matrix
    k1 = p1h - x2h / th
    k2 = p2h + x1h / th
    omega = canonical_omega()
    kk = float(k1 @ omega @ k2)
    xk = np.array(
        [
            [x1h @ omega @ k1, x1h @ omega @ k2],
            [x2h @ omega @ k1, x2h @ omega @ k2],
        ]
    )
    return DecoupleResult(np.vstack([k1, k2]), kk, xk)


@dataclass(frozen=True)
class MomentumGaugeRep:
    """X_jh = X_j - Atilde_j(P), P_jh = P_j with curl(Atilde) = theta.

    ``Atilde`` components are arity-2 polynomials in (p1, p2); the curl
    condition d(Atilde_1)/dp2 - d(Atilde_2)/dp1 = theta holds exactly.
    """

    Atilde: tuple[PolySymbol, PolySymbol]
    theta: float


def momentum_gauge_rep(Atilde, theta: float) -> MomentumGaugeRep:
    """Validate the curl condition and build the representation record."""
    A1, A2 = Atilde
    if A1.arity != 2 or A2.arity != 2:
        raise CurlMismatch("Atilde components must be arity-2 polynomials in (p1, p2)")
    residual = A1.diff(1) - A2.diff(0) - PolySymbol.constant(2, theta)
    if not residual.allclose(PolySymbol.zero(2)):
        raise CurlMismatch(
            f"curl(Atilde) - theta is nonzero: {residual!r}", residual=residual
        )
    return MomentumGaugeRep((A1, A2), theta)


def symmetric_momentum_gauge(theta: float) -> MomentumGaugeRep:
    """Atilde = (theta p2 / 2, -theta p1 / 2)."""
    p1v = PolySymbol.variable(2, 0)
    p2v = PolySymbol.variable(2, 1)
    return momentum_gauge_rep((0.5 * theta * p2v, -0.5 * theta * p1v), theta)


def landau_momentum_gauge(theta: float) -> MomentumGaugeRep:
    """Atilde = (theta p2, 0)."""
    p2v = PolySymbol.variable(2, 1)
    zero = PolySymbol.zero(2)
    return momentum_gauge_rep((theta * p2v, zero), theta)


def gauge_function(rep_from: MomentumGaugeRep, rep_to: MomentumGaugeRep) -> PolySymbol:
    """Polynomial alpha(p) with Atilde_to = Atilde_from + grad alpha.

    Exists because both potentials carry the same curl; verified exactly.
    """
    d1 = rep_to.Atilde[0] - rep_from.Atilde[0]
    d2 = rep_to.Atilde[1] - rep_from.Atilde[1]
    # line integral from the origin: alpha(p) = int_0^{p1} d1(t, p2) dt
    #                                         + int_0^{p2} d2(0, t) dt
    alpha = PolySymbol.zero(2)
    for (e1, e2), coeff in d1.terms.items():
        alpha = alpha + PolySymbol(2, {(e1 + 1, e2): coeff / (e1 + 1)})
    for (e1, e2), coeff in d2.terms.items():
        if e1 == 0:
            alpha = alpha + PolySymbol(2, {(0, e2 + 1): coeff / (e2 + 1)})
    if not (alpha.diff(0) - d1).allclose(PolySymbol.zero(2)) or not (
        alpha.diff(1) - d2
    ).allclose(PolySymbol.zero(2)):
        raise CurlMismatch("gauge potentials do not differ by a gradient")
    return alpha


@dataclass(frozen=True)
class VectorPotentialRep:
    """theta = 0 minimal coupling: X_jh = X_j, P_jh = P_j - e A_j(X).

    ``A`` components are arity-2 polynomials in (x1, x2); the realized
    momentum commutator is i e (d1 A2 - d2 A1).
    """

    A: tuple[PolySymbol, PolySymbol]
    params: NCParams

    @property
    def field(self) -> PolySymbol:
        return self.A[1].diff(0) - self.A[0].diff(1)


def vector_potential_rep(A, params: NCParams) -> VectorPotentialRep:
    A1, A2 = A
    if A1.arity != 2 or A2.arity != 2:
        raise CurlMismatch("A components must be arity-2 polynomials in (x1, x2)")
    return VectorPotentialRep((A1, A2), params)


def symmetric_vector_potential(curlyB: float) -> tuple[PolySymbol, PolySymbol]:
    """A = (-B x2 / 2, B x1 / 2)."""
    return (-0.5 * curlyB * x2(), 0.5 * curlyB * x1())


def landau_vector_potential(curlyB: float) -> tuple[PolySymbol, PolySymbol]:
    """A = (0, B x1)."""
    return (PolySymbol.zero(2), curlyB * x1())
