"""Exception hierarchy.

Three tiers matter to callers (and to the CLI exit-code mapping):
``ConfigError`` for malformed requests, ``DomainError`` for requests that
are well-formed but mathematically out of range (singular parameters,
non-Hermitian inputs, ...), and everything else under ``NCQMError`` for
internal failures.
"""

from __future__ import annotations


class NCQMError(Exception):
    """Base class for all package errors."""


class ConfigError(NCQMError):
    """Malformed or inconsistent configuration input."""


class DomainError(NCQMError):
    """Input outside the mathematical domain of the requested operation."""


class SingularStructure(DomainError):
    """Exotic Poisson structure requested at kappa = 0."""


class NegativeKappa(DomainError):
    """Representation coefficients undefined for kappa < 0."""


class NonHermitian(DomainError):
    """Operation requires a (validated) Hermitian operator."""


class StepTooLarge(DomainError):
    """Post-hoc energy drift of an integration exceeded the configured bound."""


class InsufficientData(DomainError):
    """Trajectory too short or non-oscillatory for frequency extraction."""


class UnresolvedSpectrum(DomainError):
    """The truncated basis is too small to resolve the requested levels
    (raise n_max)."""


class ArityMismatch(NCQMError):
    """Polynomial operands have incompatible variable arity."""


class InternalMismatch(NCQMError):
    """Two independent internal routes disagreed (implementation bug)."""
