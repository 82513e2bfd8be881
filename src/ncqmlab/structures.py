"""Symplectic / Poisson structures on the four-dimensional phase space.

Phase-space ordering is fixed as xi = (x1, x2, p1, p2).  A structure holds
a 4x4 antisymmetric matrix of polynomial entries together with a scalar
polynomial denominator (constant 1 for the standard case), so the exotic
structure entries theta/kappa(x), ... are represented exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ArityMismatch, SingularStructure
from .params import NCParams, kappa
from .polysymbol import PolySymbol

class StructureKind(str, Enum):
    STANDARD = "standard"
    EXOTIC = "exotic"
    CUSTOM = "custom"


def _const4(value: complex) -> PolySymbol:
    return PolySymbol.constant(4, value)


@dataclass(frozen=True)
class PoissonStructure:
    """Antisymmetric bracket matrix Omega^{IJ} = entries[I][J] / denominator."""

    kind: StructureKind
    entries: tuple  # 4x4 nested tuple of arity-4 PolySymbols
    denominator: PolySymbol = field(default_factory=lambda: _const4(1.0))

    def __post_init__(self):
        if len(self.entries) != 4 or any(len(row) != 4 for row in self.entries):
            raise ValueError("entries must be a 4x4 matrix")
        for i in range(4):
            for j in range(4):
                eij = self.entries[i][j]
                if eij.arity != 4:
                    raise ArityMismatch("structure entries must be arity-4 symbols")
                if not (eij + self.entries[j][i]).is_zero:
                    raise ValueError("entries must be antisymmetric as polynomials")
        if self.denominator.is_zero:
            raise SingularStructure("structure denominator is identically zero")

    def matrix_at(self, point) -> np.ndarray:
        """Evaluate Omega at a phase-space point; returns a real 4x4 array."""
        den = self.denominator.eval(point)
        if den == 0:
            raise SingularStructure(f"structure singular at point {tuple(point)}")
        out = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                value = self.entries[i][j].eval(point) / den
                if abs(value.imag) > 1e-12 * (1 + abs(value.real)):
                    raise ValueError("structure entries must evaluate real")
                out[i, j] = value.real
                out[j, i] = -value.real
        return out


def canonical_omega() -> np.ndarray:
    """Canonical Omega in xi-ordering: {x_i, p_j} = delta_ij."""
    J = np.zeros((4, 4))
    J[0, 2] = J[1, 3] = 1.0
    J[2, 0] = J[3, 1] = -1.0
    return J


def _standard_entries(theta: float, B_poly: PolySymbol):
    zero = PolySymbol.zero(4)
    th = _const4(theta)
    one = _const4(1.0)
    return (
        (zero, th, one, zero),
        (-th, zero, zero, one),
        (-one, zero, zero, B_poly),
        (zero, -one, -B_poly, zero),
    )


def symplectic_matrix(params: NCParams, variant: StructureKind | str) -> PoissonStructure:
    """Constant standard or exotic structure for the given parameters.

    Standard has det = kappa^2; exotic is standard divided by kappa and
    requires kappa != 0.
    """
    variant = StructureKind(variant)
    if variant is StructureKind.EXOTIC and abs(kappa(params)) <= 1e-14 * (
            1.0 + abs(params.B * params.theta)):
        raise SingularStructure("exotic structure undefined at kappa = 0")
    return symplectic_matrix_field(params.theta, _const4(params.B), variant)


def symplectic_matrix_field(
    theta: float, B_poly: PolySymbol, variant: StructureKind | str
) -> PoissonStructure:
    """Structure with position-dependent magnetic entry B(x).

    ``B_poly`` is a polynomial in (x1, x2) (arity 2, embedded) or arity 4
    with no momentum dependence.  The exotic variant divides by
    kappa(x) = 1 - theta*B(x), kept exact as a polynomial denominator.
    """
    if B_poly.arity == 2:
        B_poly = B_poly.embed(4, (0, 1))
    if any(e[2] or e[3] for e in B_poly.terms):
        raise ValueError("B field may depend on positions only")
    variant = StructureKind(variant)
    entries = _standard_entries(theta, B_poly)
    if variant is StructureKind.STANDARD:
        return PoissonStructure(StructureKind.STANDARD, entries)
    if variant is StructureKind.EXOTIC:
        den = _const4(1.0) - _const4(theta) * B_poly
        if den.is_zero:
            raise SingularStructure("kappa(x) vanishes identically")
        return PoissonStructure(StructureKind.EXOTIC, entries, den)
    raise ValueError("variant must be standard or exotic")


def poisson_bracket(f: PolySymbol, g: PolySymbol, s: PoissonStructure) -> PolySymbol:
    """Exact polynomial bracket sum_IJ Omega^{IJ} d_I f d_J g.

    Requires a constant denominator (the bracket is otherwise not a
    polynomial); all spec'd uses satisfy this.
    """
    if f.arity != 4 or g.arity != 4:
        raise ArityMismatch("poisson_bracket requires arity-4 symbols")
    if s.denominator.degree > 0:
        raise ArityMismatch(
            "poisson_bracket requires a constant structure denominator"
        )
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


def jacobi_residual(s: PoissonStructure, point) -> np.ndarray:
    """Jacobi tensor J^{IJK} = sum_L Omega^{IL} d_L Omega^{JK} + cyclic.

    Evaluated at the given phase-space point via exact quotient-rule
    differentiation of entries/denominator; the zero tensor iff the Jacobi
    identity holds there.
    """
    point = tuple(float(v) for v in point)
    den = complex(s.denominator.eval(point))
    if den == 0:
        raise SingularStructure(f"structure singular at point {point}")
    dden = [complex(s.denominator.diff(l).eval(point)) for l in range(4)]
    E = np.zeros((4, 4), dtype=complex)
    dE = np.zeros((4, 4, 4), dtype=complex)  # dE[L, I, J] = d_L entries[I][J]
    for i in range(4):
        for j in range(4):
            E[i, j] = s.entries[i][j].eval(point)
            for l in range(4):
                dE[l, i, j] = s.entries[i][j].diff(l).eval(point)
    omega = E / den
    # d_L (E/den) = (d_L E) / den - E * d_L den / den^2
    domega = np.array(
        [dE[l] / den - E * dden[l] / den**2 for l in range(4)]
    )  # [L, J, K]
    # T[I, J, K] = sum_L Omega^{IL} d_L Omega^{JK}; J adds its two cyclic
    # shifts T[J, K, I] and T[K, I, J]
    T = np.einsum("il,ljk->ijk", omega, domega)
    out = T + T.transpose(2, 0, 1) + T.transpose(1, 2, 0)
    if np.max(np.abs(out.imag)) > 1e-12 * (1.0 + np.max(np.abs(out.real))):
        raise ValueError("Jacobi tensor should be real for real structures")
    return out.real
