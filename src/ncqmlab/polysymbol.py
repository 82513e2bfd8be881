"""Sparse multivariate polynomials with complex coefficients.

``PolySymbol`` is the carrier for phase-space functions, gauge potentials,
wave-function symbols and Poisson-structure entries.  Terms are stored as a
mapping from integer exponent tuples to complex coefficients; zero
coefficients are never stored.  Arithmetic is exact over double-precision
complex numbers.  Arity is 2 (configuration or momentum plane) or 4 (full
phase space); mixed-arity arithmetic is rejected.

``MonomialTable`` compiles a list of real-valued symbols for numeric work:
one exponent matrix shared by every row and one real coefficient matrix,
evaluated at a point or over an array of points with numpy.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ArityMismatch

Exponents = tuple[int, ...]


def _check_arity(a: int) -> int:
    if a not in (2, 4):
        raise ArityMismatch(f"arity must be 2 or 4, got {a}")
    return a


class PolySymbol:
    """Sparse polynomial in 2 or 4 real variables, complex coefficients."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[Exponents, complex] | None = None):
        self.arity = _check_arity(arity)
        clean: dict[Exponents, complex] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != arity:
                    raise ArityMismatch(
                        f"exponent tuple {expo} does not match arity {arity}"
                    )
                if any(e < 0 for e in expo):
                    raise ValueError(f"negative exponent in {expo}")
                c = complex(coeff)
                if c != 0:
                    clean[expo] = clean.get(expo, 0) + c
                    if clean[expo] == 0:
                        del clean[expo]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "PolySymbol":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value: complex) -> "PolySymbol":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, index: int) -> "PolySymbol":
        if not 0 <= index < arity:
            raise ValueError(f"variable index {index} out of range for arity {arity}")
        expo = [0] * arity
        expo[index] = 1
        return cls(arity, {tuple(expo): 1.0})

    @classmethod
    def monomial(cls, coeff: complex, expo: Iterable[int]) -> "PolySymbol":
        expo = tuple(int(e) for e in expo)
        return cls(len(expo), {expo: coeff})

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "PolySymbol":
        if isinstance(other, PolySymbol):
            if other.arity != self.arity:
                raise ArityMismatch(
                    f"cannot combine arity {self.arity} with arity {other.arity}"
                )
            return other
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return PolySymbol.constant(self.arity, complex(other))
        return NotImplemented

    def __add__(self, other) -> "PolySymbol":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return PolySymbol(self.arity, terms)

    __radd__ = __add__

    def __neg__(self) -> "PolySymbol":
        return PolySymbol(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "PolySymbol":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "PolySymbol":
        return (-self) + other

    def __mul__(self, other) -> "PolySymbol":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict[Exponents, complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                terms[expo] = terms.get(expo, 0) + c1 * c2
        return PolySymbol(self.arity, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "PolySymbol":
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = PolySymbol.constant(self.arity, 1.0)
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus ------------------------------------------------------

    def diff(self, index: int) -> "PolySymbol":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.arity:
            raise ValueError(f"variable index {index} out of range")
        terms: dict[Exponents, complex] = {}
        for expo, coeff in self.terms.items():
            k = expo[index]
            if k == 0:
                continue
            new = list(expo)
            new[index] = k - 1
            terms[tuple(new)] = coeff * k
        return PolySymbol(self.arity, terms)

    def eval(self, point: Iterable[float]) -> complex:
        """Evaluate at a numeric point (length must equal arity)."""
        pt = tuple(point)
        if len(pt) != self.arity:
            raise ArityMismatch(f"point of length {len(pt)} for arity {self.arity}")
        total = 0.0 + 0.0j
        for expo, coeff in self.terms.items():
            value = coeff
            for x, e in zip(pt, expo):
                if e:
                    value *= x ** e
            total += value
        return total

    # -- structure -----------------------------------------------------

    def conj(self) -> "PolySymbol":
        """Complex conjugation of coefficients (variables are real)."""
        return PolySymbol(self.arity, {e: c.conjugate() for e, c in self.terms.items()})

    def real(self) -> "PolySymbol":
        """The real part: at real points it evaluates to ``eval(pt).real``."""
        return PolySymbol(self.arity, {e: c.real for e, c in self.terms.items()})

    @property
    def is_real(self) -> bool:
        """Every coefficient real, up to 1e-12 of its own size."""
        return all(abs(c.imag) <= 1e-12 * (1.0 + abs(c.real))
                   for c in self.terms.values())

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coeff(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    def allclose(self, other, tol: float = 1e-12) -> bool:
        """Coefficient-wise comparison, tolerance scaled by coefficient norm."""
        other = self._coerce(other)
        diff = self - other
        scale = max(1.0, self.max_abs_coeff(), other.max_abs_coeff())
        return diff.max_abs_coeff() <= tol * scale

    def embed(self, arity: int, positions: Iterable[int]) -> "PolySymbol":
        """Reinterpret variables at the given positions of a wider arity.

        ``positions[i]`` is the target index of source variable ``i``.
        """
        _check_arity(arity)
        pos = tuple(positions)
        if len(pos) != self.arity:
            raise ArityMismatch("positions must map every source variable")
        terms: dict[Exponents, complex] = {}
        for expo, coeff in self.terms.items():
            new = [0] * arity
            for src, dst in enumerate(pos):
                new[dst] = expo[src]
            terms[tuple(new)] = coeff
        return PolySymbol(arity, terms)

    # -- dunder plumbing ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, float, complex)):
            other = PolySymbol.constant(self.arity, other)
        if not isinstance(other, PolySymbol):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "PolySymbol(0)"
        names = ("x1", "x2") if self.arity == 2 else ("x1", "x2", "p1", "p2")
        parts = []
        for expo, coeff in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
            factors = "".join(
                f"*{n}" if e == 1 else f"*{n}**{e}"
                for n, e in zip(names, expo)
                if e
            )
            parts.append(f"({coeff:g}){factors}")
        return " + ".join(parts)


# Bulk evaluation runs over blocks of this many points, so the
# (points, monomials, arity) power array stays small on long trajectories.
_BLOCK = 1024


class MonomialTable:
    """Real symbols of one arity compiled for numeric evaluation.

    ``exponents`` (M x arity) lists every monomial that appears in any row;
    ``coeffs`` (rows x M) holds the real coefficients.  Row r evaluates to
    sum_m coeffs[r, m] * prod_v xi_v ** exponents[m, v].  A row with a
    non-real coefficient is refused with ValueError: take ``.real()`` first
    where only the real part is wanted.
    """

    __slots__ = ("exponents", "coeffs")

    def __init__(self, rows: Sequence[PolySymbol]):
        arities = {row.arity for row in rows}
        if len(arities) != 1:
            raise ArityMismatch("table rows must share one arity")
        if not all(row.is_real for row in rows):
            raise ValueError("compiled symbols must have real coefficients")
        monomials = sorted(set().union(*(row.terms for row in rows)))
        column = {expo: m for m, expo in enumerate(monomials)}
        self.exponents = np.array(monomials, dtype=int).reshape(
            len(monomials), arities.pop())
        self.coeffs = np.zeros((len(rows), len(monomials)))
        for r, row in enumerate(rows):
            for expo, coeff in row.terms.items():
                self.coeffs[r, column[expo]] = coeff.real

    def __call__(self, points) -> np.ndarray:
        """Every row at one point (shape (arity,) -> (rows,)) or at each of
        n points (shape (n, arity) -> (n, rows))."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != self.exponents.shape[1:]:
            raise ArityMismatch(
                f"points of shape {points.shape} for arity "
                f"{self.exponents.shape[1]}")
        if points.ndim == 2 and len(points) > _BLOCK:
            return np.concatenate([self(points[start:start + _BLOCK])
                                   for start in range(0, len(points), _BLOCK)])
        monomials = np.multiply.reduce(points[..., None, :] ** self.exponents,
                                       axis=-1)
        return monomials @ self.coeffs.T


def x1(arity: int = 2) -> PolySymbol:
    return PolySymbol.variable(arity, 0)


def x2(arity: int = 2) -> PolySymbol:
    return PolySymbol.variable(arity, 1)


def p1() -> PolySymbol:
    return PolySymbol.variable(4, 2)


def p2() -> PolySymbol:
    return PolySymbol.variable(4, 3)
