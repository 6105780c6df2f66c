"""Level structure of a three-level emitter and its Gaussian continuum couplings.

All internal computation is dimensionless: energies are measured in units of
the continuum width ``delta``, so the working variables are ``a = E_e/delta``,
``b = E_f/delta`` and the anharmonicity ``alpha_d = (2 E_e - E_f)/delta``.
Physical (rad/s) quantities appear only at the boundaries of the library.

The continuum couples the |g>-|e> transition (index 1) and the |e>-|f>
transition (index 2) through Gaussian mode densities centred at ``a`` and
``a - alpha_d`` respectively:

    P_i(w) = (2/sqrt(pi)) exp(-(w - c_i)^2),      c_1 = a, c_2 = a - alpha_d
    g_i^2(w) = L_i * P_i(w)

with dimensionless coupling strengths ``L_i = Lambda_i / delta^2``.  For the
nearest-neighbour ladder coupling of a transmon the ratio is fixed to
``L_2 = (3/2) L_1``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

SQRT_PI = math.sqrt(math.pi)


class ModelError(ValueError):
    """Invalid physical or dimensionless model parameters."""


class NumericalError(ArithmeticError):
    """A valid run that cannot be computed to the requested accuracy (exit 1)."""


@dataclass(frozen=True)
class PhysicalParams:
    """Emitter levels and continuum width in angular-frequency units (rad/s).

    ``e_e`` and ``e_f`` are counted from the ground state.  The transmon
    ordering requires a positive anharmonicity ``2*e_e - e_f > 0``.
    """

    e_e: float
    e_f: float
    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ModelError(f"continuum width must be positive, got {self.delta}")
        if not (self.e_f > self.e_e > 0):
            raise ModelError(
                f"level ordering requires e_f > e_e > 0, got e_e={self.e_e}, e_f={self.e_f}"
            )
        if 2 * self.e_e - self.e_f <= 0:
            raise ModelError(
                "anharmonicity 2*e_e - e_f must be positive "
                f"(got {2 * self.e_e - self.e_f})"
            )


@dataclass(frozen=True)
class DimensionlessModel:
    """Level structure in units of the continuum width.

    ``b = 2a - alpha_d`` holds exactly.  The approximation of extending the
    lower bound of frequency integrals to minus infinity needs ``a >> 1``;
    construction rejects ``a < 10`` and warns below 20.
    """

    a: float
    b: float
    alpha_d: float = field(init=False)

    def __post_init__(self):
        if not (self.b > self.a > 0):
            raise ModelError(f"need b > a > 0, got a={self.a}, b={self.b}")
        alpha_d = 2 * self.a - self.b
        if alpha_d <= 0:
            raise ModelError(f"anharmonicity 2a - b must be positive (got {alpha_d})")
        if self.a < 10:
            raise ModelError(
                f"a = {self.a} too small: centre must sit far above the spectrum edge (a >= 10)"
            )
        if self.a < 20:
            warnings.warn(
                f"a = {self.a} < 20: extended-lower-bound approximation is marginal",
                stacklevel=2,
            )
        object.__setattr__(self, "alpha_d", alpha_d)

    @classmethod
    def from_physical(cls, p: PhysicalParams) -> "DimensionlessModel":
        """Reduce physical parameters to units of the continuum width."""
        return cls(a=p.e_e / p.delta, b=p.e_f / p.delta)

    def center(self, i: int) -> float:
        """Gaussian centre of transition ``i`` (1: g-e, 2: e-f)."""
        if i == 1:
            return self.a
        if i == 2:
            return self.a - self.alpha_d
        raise ModelError(f"transition index must be 1 or 2, got {i}")

    def density(self, i: int, w):
        """Dimensionless mode density ``P_i(w)*delta = (2/sqrt(pi)) exp(-(w-c_i)^2)``."""
        c = self.center(i)
        return (2.0 / SQRT_PI) * np.exp(-((np.asarray(w, dtype=float) - c) ** 2))


@dataclass(frozen=True)
class CouplingConfig:
    """Coupling strengths ``L_i = Lambda_i/delta^2`` and the regime switch.

    ``v1_enabled = False`` switches off the |g>-|e> coupling entirely: the
    second level is then stable and the first-level shift and width are
    identically zero, whatever the stored ``l1``.
    """

    l1: float
    l2: float
    v1_enabled: bool = True

    def __post_init__(self):
        if self.l1 < 0 or self.l2 < 0:
            raise ModelError(f"couplings must be non-negative, got l1={self.l1}, l2={self.l2}")

    @classmethod
    def transmon_ratio(cls, l2: float, v1_enabled: bool = True) -> "CouplingConfig":
        """Nearest-neighbour ladder convention ``L_1 = (2/3) L_2``."""
        return cls(l1=(2.0 / 3.0) * l2, l2=l2, v1_enabled=v1_enabled)

    @classmethod
    def stable_second_level(cls, l2: float) -> "CouplingConfig":
        """Second level decoupled from the ground state."""
        return cls(l1=0.0, l2=l2, v1_enabled=False)


def coupling_sq(m: DimensionlessModel, c: CouplingConfig, i: int, w):
    """Dimensionless squared coupling ``g_i^2(w)/delta = L_i * P_i(w)``."""
    l = c.l1 if i == 1 else c.l2
    return l * m.density(i, w)
