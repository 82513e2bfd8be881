"""Deformation and physical parameters.

All closed-form operations read from a single frozen ``NCParams`` record.
Every route computes in units with hbar = c = 1, so the charge e is the one
coupling: a field B enters as e*B, and a formula quoted with e/c or hbar*x
reads e or x here.  Defaults put e = m = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class NCParams:
    """Parameters of the deformed algebra [X1,X2]=i*theta, [P1,P2]=i*B."""

    theta: float = 0.0
    B: float = 0.0
    e: float = 1.0
    m: float = 1.0

    def __post_init__(self):
        if self.m <= 0:
            raise ConfigError("m must be strictly positive")
        for name in ("theta", "B", "e", "m"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")

    @property
    def omega_B(self) -> float:
        """Cyclotron frequency |e*B| / m."""
        return abs(self.e * self.B) / self.m


def kappa(params: NCParams) -> float:
    """Characteristic parameter 1 - B*theta."""
    return 1.0 - params.B * params.theta


def is_singular(params: NCParams) -> bool:
    """True when kappa vanishes exactly (degenerate phase space): the one
    kappa = 0 test of the package."""
    return kappa(params) == 0.0


def require_coupling(e: float, field: float, name: str,
                     consequence: str) -> None:
    """Refuse a zero coupling e * field: a free particle has a continuous
    spectrum, so no route may report Landau levels for it.  ``name`` names
    the field in the message; ``consequence`` ends it."""
    if e == 0.0 or field == 0.0:
        raise DomainError(
            f"{name if field == 0.0 else 'e'} = 0 has no Landau structure: "
            f"the spectrum is continuous and {consequence}"
        )
