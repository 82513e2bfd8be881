"""Linear and gauge representations of the deformed algebra.

A ``LinearRep`` expresses (X1h, P1h, X2h, P2h) as real linear combinations
of canonical (X1, P1, X2, P2); that row ordering is fixed here and differs
from the xi = (x1, x2, p1, p2) ordering of the structures module by the
permutation ``REP_TO_XI``.  Momentum-gauge and vector-potential
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


class Branch(str, Enum):
    PLUS = "plus"
    MINUS = "minus"


def canonical_omega_rep() -> np.ndarray:
    """Canonical Omega in representation row-ordering (X1, P1, X2, P2)."""
    J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((4, 4))
    out[:2, :2] = J2
    out[2:, 2:] = J2
    return out


def target_table(params: NCParams) -> np.ndarray:
    """Commutator targets in rep ordering: theta, B and delta slots."""
    th, B = params.theta, params.B
    return np.array(
        [
            [0.0, 1.0, th, 0.0],
            [-1.0, 0.0, 0.0, B],
            [-th, 0.0, 0.0, 1.0],
            [0.0, -B, -1.0, 0.0],
        ]
    )


@dataclass(frozen=True)
class LinearRep:
    """Rows give X1h, P1h, X2h, P2h over canonical (X1, P1, X2, P2)."""

    matrix: np.ndarray
    tag: str
    params: NCParams
    a: float | None = None
    branch: Branch | None = None
    c: float | None = None
    d: float | None = None

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    @property
    def invertible(self) -> bool:
        return abs(self.det) > 1e-12


def landau_gauge_rep(params: NCParams) -> LinearRep:
    """Minimal representation: X1h=X1, P1h=P1+B X2, X2h=X2+theta P1, P2h=P2.

    Defined for every kappa; det = kappa, so the map is non-invertible at
    kappa = 0 (reported through ``invertible``, not raised).
    """
    th, B = params.theta, params.B
    M = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, B, 0.0],
            [0.0, th, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return LinearRep(M, "landau", params)


def symmetric_gauge_rep(
    params: NCParams, a: float = 1.0, branch: Branch | str = Branch.PLUS
) -> LinearRep:
    """Two-parameter family with c = (1 +- sqrt(kappa))/(2a), d = (a/theta)(1 -+ sqrt(kappa)).

    Requires theta != 0 and kappa >= 0 (real square root); both branches
    reproduce the same commutator table and det = kappa.
    """
    if a == 0:
        raise ValueError("scale a must be nonzero")
    branch = Branch(branch)
    th = params.theta
    if th == 0:
        raise ZeroTheta("symmetric gauge representation requires theta != 0")
    k = kappa(params)
    if k < 0:
        raise NegativeKappa(f"kappa = {k} < 0: coefficients would be complex")
    root = math.sqrt(k)
    sign = 1.0 if branch is Branch.PLUS else -1.0
    c = (1.0 + sign * root) / (2.0 * a)
    d = (a / th) * (1.0 - sign * root)
    M = np.array(
        [
            [a, 0.0, 0.0, -th / (2.0 * a)],
            [0.0, c, d, 0.0],
            [0.0, th / (2.0 * a), a, 0.0],
            [-d, 0.0, 0.0, c],
        ]
    )
    return LinearRep(M, f"symmetric(a={a}, branch={branch.value})", params,
                     a=a, branch=branch, c=c, d=d)


def commutator_table(rep: LinearRep) -> np.ndarray:
    """M . Omega_can . M^T — the realized commutator coefficients."""
    M = rep.matrix
    return M @ canonical_omega_rep() @ M.T


def table_residual(rep: LinearRep) -> float:
    """Max entrywise deviation of the realized table from the target."""
    return float(np.max(np.abs(commutator_table(rep) - target_table(rep.params))))


@dataclass(frozen=True)
class DecoupleResult:
    K_rows: np.ndarray          # 2x4, K1h and K2h over canonical variables
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
    M = rep.matrix
    x1h, p1h, x2h, p2h = M
    k1 = p1h - x2h / th
    k2 = p2h + x1h / th
    omega = canonical_omega_rep()
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
