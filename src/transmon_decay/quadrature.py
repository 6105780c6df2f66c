"""Tolerances and truncation of the FULL node sum, and its error type.

``QuadratureSettings`` holds the three ``[quadrature]`` config keys: the
absolute and relative tolerance every FULL ``Sigma_2`` value must meet, and
the ``tail_cutoff`` by which ``spectrum``'s node sets reach past the
energies they cover.  A value whose error estimate misses its tolerance
raises ``QuadratureError``.  The generic adaptive and principal-value quadrature
that the tests compare against lives in ``tests/reference_routes.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import NumericalError


# Only perfbench/tracing.py binds this attribute (a stand-in that counts quad
# calls); no code in the package reads it.  ROADMAP 5(j) retires it.
def __getattr__(name: str):
    if name == "integrate":
        from scipy import integrate

        globals()["integrate"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class QuadratureError(NumericalError):
    """Integration failed to reach the requested tolerance.

    Carries the achieved absolute-error estimate in ``estimate``.
    """

    def __init__(self, message: str, estimate: float = math.nan):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and truncation policy of the FULL node sum."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    tail_cutoff: float = 10.0

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.tail_cutoff < 8:
            raise ValueError(f"tail_cutoff must be >= 8, got {self.tail_cutoff}")


DEFAULT_SETTINGS = QuadratureSettings()
