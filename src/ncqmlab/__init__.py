"""ncqmlab: a desk-scale laboratory for magnetic coupling in
noncommutative quantum mechanics.

The same physical system - a charged particle on a noncommutative plane
in a magnetic field - is built five independent ways and cross-validated:

- ``reps`` / ``fock``: operator representations on commutative phase
  space and their truncated-Fock-space spectra;
- ``star``: Groenewold-Moyal star products, star gauge fields, and the
  Seiberg-Witten map (all exact polynomial identities);
- ``structures`` / ``dynamics``: classical Poisson structures and the
  deformed equations of motion;
- ``peierls``: Landau-level projectors, truncated commutator laws, and
  the strong-field Peierls approximation.
"""

__version__ = "0.1.0"

from .errors import (
    ArityMismatch,
    ConfigError,
    DomainError,
    InsufficientData,
    InternalMismatch,
    NCQMError,
    NegativeKappa,
    NonHermitian,
    SingularStructure,
    StepTooLarge,
    UnresolvedSpectrum,
)
from .params import NCParams, is_singular, kappa
from .polysymbol import PolySymbol, p1, p2, x1, x2

__all__ = [
    "__version__",
    "NCParams", "kappa", "is_singular",
    "PolySymbol", "x1", "x2", "p1", "p2",
    "NCQMError", "ConfigError", "DomainError",
    "SingularStructure", "NegativeKappa",
    "NonHermitian", "StepTooLarge",
    "InsufficientData", "UnresolvedSpectrum",
    "ArityMismatch",
    "InternalMismatch",
]
