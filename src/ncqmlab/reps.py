"""Linear and gauge representations of the deformed algebra.

A ``LinearRep`` expresses the deformed operators as real linear
combinations of the canonical ones, both in the phase-space order
xi = (x1, x2, p1, p2) of the structures module: row i of ``matrix`` is
xi_hat_i over canonical xi.  Its commutator table is M Omega M^T with the
canonical Omega of that module, and its target is the constant table of the
standard structure there.  A vector-potential representation substitutes
polynomials of the commuting coordinates instead.  ``fock.realize_rep``
realizes both kinds at the matrix level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, NegativeKappa
from .params import NCParams, kappa
from .polysymbol import PolySymbol, x1, x2
from .structures import StructureKind, canonical_omega, symplectic_matrix


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


def symmetric_gauge_rep(params: NCParams) -> LinearRep:
    """X1h = X1 - (theta/2) P2, X2h = X2 + (theta/2) P1, P1h = c P1 + d X2,
    P2h = c P2 - d X1 with c = (1 + sqrt(kappa))/2 and
    d = (1 - sqrt(kappa))/theta.

    Written without cancellation through r = 1 + sqrt(kappa) and
    1 - kappa = theta B: (c, d) = (r/2, B/r), which holds at theta = 0 too.
    Needs kappa >= 0; det = kappa.
    """
    th, B = params.theta, params.B
    k = kappa(params)
    if k < 0:
        raise NegativeKappa(f"kappa = {k} < 0: coefficients would be complex")
    r = 1.0 + math.sqrt(k)
    c, d = r / 2.0, B / r
    M = np.array(
        [
            [1.0, 0.0, 0.0, -th / 2.0],
            [0.0, 1.0, th / 2.0, 0.0],
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
        raise ArityMismatch(
            "A components must be arity-2 polynomials in (x1, x2)")
    return VectorPotentialRep((A1, A2), params)


def symmetric_vector_potential(curlyB: float) -> tuple[PolySymbol, PolySymbol]:
    """A = (-B x2 / 2, B x1 / 2)."""
    return (-0.5 * curlyB * x2(), 0.5 * curlyB * x1())


def landau_vector_potential(curlyB: float) -> tuple[PolySymbol, PolySymbol]:
    """A = (0, B x1)."""
    return (PolySymbol.zero(2), curlyB * x1())
