"""Sparse multivariate polynomials with complex coefficients.

``PolySymbol`` is the carrier for phase-space functions, gauge potentials,
wave-function symbols and Poisson-structure entries.  Terms are stored as a
mapping from integer exponent tuples to complex coefficients; zero
coefficients are never stored.  Arithmetic is exact over double-precision
complex numbers.  Arity is 2 (configuration or momentum plane) or 4 (full
phase space); mixed-arity arithmetic is rejected.

``MonomialTable`` compiles a list of real-valued symbols for numeric work:
one exponent matrix shared by every row and one real coefficient matrix,
written out as straight-line code whose coefficients are parameters
(``straight_line``).  ``scalar()`` makes that code one function, which
evaluates a point of floats, or an array of points column by column with
numpy, so bulk values have the bits of point-by-point ones.  The source
text holds no coefficient value, so ``compiled`` compiles each polynomial
shape once per process and binds each table's coefficients as defaults.
"""

from __future__ import annotations

import cmath
from types import FunctionType
from typing import Callable, Iterable, Mapping, Sequence

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

    def allclose(self, other) -> bool:
        """Coefficient-wise comparison within 1e-12, scaled by the larger
        coefficient norm (at least 1)."""
        other = self._coerce(other)
        diff = self - other
        scale = max(1.0, self.max_abs_coeff(), other.max_abs_coeff())
        return diff.max_abs_coeff() <= 1e-12 * scale

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
# temporaries of the straight-line function stay small on long trajectories.
_BLOCK = 1024

# generated source text -> the function compiled from it, filled by
# compiled on first use; the text holds no coefficient value, so there is
# one entry per polynomial shape
_SHAPES: dict[str, FunctionType] = {}


def compiled(source: str, name: str, defaults: tuple,
             namespace: dict | None = None) -> FunctionType:
    """The function ``name`` that ``source`` defines, with ``defaults``
    bound to its last parameters.

    Each source text is compiled once per process, in a copy of
    ``namespace``; a text seen before is rebound to the new defaults.
    """
    function = _SHAPES.get(source)
    if function is None:
        scope = dict(namespace or {})
        exec(compile(source, f"<compiled {name}>", "exec"), scope)
        function = _SHAPES[source] = scope[name]
    return FunctionType(function.__code__, function.__globals__, name,
                        defaults)


class MonomialTable:
    """Real symbols of one arity compiled for numeric evaluation.

    ``exponents`` (M x arity) lists every monomial that appears in any row;
    ``coeffs`` (rows x M) holds the real coefficients.  Row r evaluates to
    sum_m coeffs[r, m] * prod_v xi_v ** exponents[m, v].  A row with a
    non-finite or non-real coefficient is refused with ValueError: take
    ``.real()`` first where only the real part is wanted.

    One point or many, every evaluation runs the straight-line function of
    ``scalar()``, made once per table: on floats, or on the coordinate
    columns of an array of points with numpy's elementwise arithmetic, which
    rounds each product and sum as float arithmetic does.
    """

    __slots__ = ("exponents", "coeffs", "_function")

    def __init__(self, rows: Sequence[PolySymbol]):
        arities = {row.arity for row in rows}
        if len(arities) != 1:
            raise ArityMismatch("table rows must share one arity")
        if not all(cmath.isfinite(coeff) for row in rows
                   for coeff in row.terms.values()):
            raise ValueError("compiled symbols must have finite coefficients")
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
        self._function = None

    def __call__(self, points) -> np.ndarray:
        """Every row at one point (shape (arity,) -> (rows,)) or at each of
        n points (shape (n, arity) -> (n, rows)); each value has the bits
        ``scalar()`` gives at that point."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != self.exponents.shape[1:]:
            raise ArityMismatch(
                f"points of shape {points.shape} for arity "
                f"{self.exponents.shape[1]}")
        if points.ndim == 2 and len(points) > _BLOCK:
            return np.concatenate([self(points[start:start + _BLOCK])
                                   for start in range(0, len(points), _BLOCK)])
        values = np.empty(points.shape[:-1] + self.coeffs.shape[:1])
        # a constant row comes back as one float, broadcast to every point
        for r, row in enumerate(self.scalar()(*np.moveaxis(points, -1, 0))):
            values[..., r] = row
        return values

    def __getitem__(self, rows: slice) -> "MonomialTable":
        """The table of the selected rows over the same monomials; its
        scalar() computes those rows exactly as the whole table's does."""
        table = object.__new__(MonomialTable)
        table.exponents, table.coeffs = self.exponents, self.coeffs[rows]
        table._function = None
        return table

    def straight_line(self, args: Sequence[str]) -> tuple:
        """(lines, rows, coefficients): the statements that compute the
        monomials of the variables named ``args``, one expression per row,
        and the values of the parameters c0, c1, ... they read.

        Each monomial is computed once, as a shorter monomial times one
        variable, and named m0, m1, ...; each row is the sum of its
        coefficients times its monomials, in monomial order.  A coefficient
        of exactly 1.0 or -1.0 is written as the bare monomial or its
        negation, and the constant monomial's as the literal 1.0 or -1.0:
        both are exact, so the value keeps its bits.  Every other
        coefficient is a parameter, so the text depends only on the shape.
        """
        names: dict[Exponents, str] = {}
        lines: list[str] = []
        coefficients: list[float] = []

        def monomial(expo: Exponents) -> str:
            if expo not in names:
                v = next(i for i, e in enumerate(expo) if e)
                rest = expo[:v] + (expo[v] - 1,) + expo[v + 1:]
                if any(rest):
                    shorter = monomial(rest)
                    names[expo] = f"m{len(lines)}"
                    lines.append(f"{names[expo]} = {shorter} * {args[v]}")
                else:
                    names[expo] = args[v]
            return names[expo]

        def term(c: float, expo: Exponents) -> str:
            if abs(c) == 1.0:
                return ("" if c > 0 else "-") + (
                    monomial(expo) if any(expo) else "1.0")
            coefficients.append(c)
            parameter = f"c{len(coefficients) - 1}"
            return f"{parameter} * {monomial(expo)}" if any(expo) \
                else parameter

        exponents = [tuple(map(int, row)) for row in self.exponents]
        # x - y is x + (-y) in IEEE-754, one operation fewer
        rows = [" + ".join(term(float(c), expo)
                           for c, expo in zip(coeffs, exponents) if c
                           ).replace(" + -", " - ") or "0.0"
                for coeffs in self.coeffs]
        return lines, rows, coefficients

    def scalar(self) -> Callable[..., tuple]:
        """Every row as one straight-line function of ``arity`` floats (or
        arrays of them), returning a tuple of row values.

        The body is ``straight_line``'s, with the coefficients bound as the
        defaults of its trailing parameters, so the source holds only fixed
        identifiers and the literals 1.0, -1.0 and 0.0, and ``compiled``
        compiles each shape once per process.  Plain float arithmetic pays
        no numpy call overhead, so this is the form for evaluating one
        point at a time.  The function is made on the first call and kept.
        """
        if self._function is None:
            args = [f"v{i}" for i in range(self.exponents.shape[1])]
            lines, rows, coefficients = self.straight_line(args)
            parameters = args + [f"c{k}" for k in range(len(coefficients))]
            values = "".join(f"{row}, " for row in rows)
            source = "\n".join([f"def table({', '.join(parameters)}):",
                                *(f"    {line}" for line in lines),
                                f"    return ({values})"])
            self._function = compiled(source, "table", tuple(coefficients))
        return self._function


def x1(arity: int = 2) -> PolySymbol:
    return PolySymbol.variable(arity, 0)


def x2(arity: int = 2) -> PolySymbol:
    return PolySymbol.variable(arity, 1)


def p1() -> PolySymbol:
    return PolySymbol.variable(4, 2)


def p2() -> PolySymbol:
    return PolySymbol.variable(4, 3)
