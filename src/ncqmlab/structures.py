"""Symplectic / Poisson structures on the four-dimensional phase space.

Phase-space ordering is fixed as xi = (x1, x2, p1, p2), for the whole
package.  A structure holds a 4x4 antisymmetric matrix of polynomial
entries together with a scalar polynomial denominator (constant 1 for the
standard case), so the exotic structure entries theta/kappa(x), ... are
represented exactly.  ``_standard_entries`` is the one table of the algebra:
the canonical Omega and the commutator targets of ``reps`` are its values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ArityMismatch, SingularStructure
from .params import NCParams
from .polysymbol import PolySymbol

class StructureKind(str, Enum):
    STANDARD = "standard"
    EXOTIC = "exotic"


def _const4(value: complex) -> PolySymbol:
    return PolySymbol.constant(4, value)


@dataclass(frozen=True)
class PoissonStructure:
    """Antisymmetric bracket matrix Omega^{IJ} = entries[I][J] / denominator."""

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

    @cached_property
    def derivatives(self) -> tuple:
        """(d_L denominator, d_L entries[I][J] at [L][I][J]) for L = 0..3:
        the 68 symbols of ``jacobi_residual``, made on first use and kept,
        as the structure is frozen."""
        return (tuple(self.denominator.diff(l) for l in range(4)),
                tuple(tuple(tuple(entry.diff(l) for entry in row)
                            for row in self.entries) for l in range(4)))

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

    Standard has det = kappa^2; exotic is standard divided by kappa.  Its
    denominator 1 - theta B is the IEEE expression of ``kappa``, so it is
    refused exactly where ``is_singular`` holds.
    """
    return symplectic_matrix_field(params.theta, _const4(params.B), variant)


def canonical_omega() -> np.ndarray:
    """Canonical Omega in xi order, {x_i, p_j} = delta_ij: the standard
    table at theta = B = 0."""
    return symplectic_matrix(NCParams(), StructureKind.STANDARD).matrix_at(
        (0.0, 0.0, 0.0, 0.0))


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
    entries = _standard_entries(theta, B_poly)
    if StructureKind(variant) is StructureKind.STANDARD:
        return PoissonStructure(entries)
    den = _const4(1.0) - _const4(theta) * B_poly
    if den.is_zero:
        raise SingularStructure(
            "exotic structure undefined: kappa = 1 - theta B vanishes "
            "identically")
    return PoissonStructure(entries, den)


def jacobi_residual(s: PoissonStructure, point) -> np.ndarray:
    """Jacobi tensor J^{IJK} = sum_L Omega^{IL} d_L Omega^{JK} + cyclic.

    Evaluated at the given phase-space point via exact quotient-rule
    differentiation of entries/denominator; the zero tensor iff the Jacobi
    identity holds there.  The derivatives are the structure's
    ``derivatives``, made once per structure and evaluated per point.
    """
    point = tuple(float(v) for v in point)
    den = complex(s.denominator.eval(point))
    if den == 0:
        raise SingularStructure(f"structure singular at point {point}")
    d_den, d_entries = s.derivatives
    dden = [complex(d.eval(point)) for d in d_den]
    E = np.zeros((4, 4), dtype=complex)
    dE = np.zeros((4, 4, 4), dtype=complex)  # dE[L, I, J] = d_L entries[I][J]
    for i in range(4):
        for j in range(4):
            E[i, j] = s.entries[i][j].eval(point)
            for l in range(4):
                dE[l, i, j] = d_entries[l][i][j].eval(point)
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
