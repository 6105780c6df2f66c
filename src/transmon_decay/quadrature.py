"""Adaptive and principal-value integration: the generic quadrature routes.

``integrate_adaptive`` wraps ``scipy.integrate.quad`` with tolerance checking
and Gaussian tail truncation; ``pv_integrate`` takes the principal value of
an integrand with a simple pole by symmetric singularity subtraction.  The
closed-form self-energies (``spectrum._gaussian_sigma``, through the Dawson
function, PV int e^{-t^2} / (x - t) dt = 2 sqrt(pi) D(x)) are the production
path; these routes are the independent checks, and must agree with them to
tight tolerance.

No production path integrates adaptively, so ``scipy.integrate`` is loaded
on the first ``quad`` call, not on import: the module attribute
``integrate`` is bound on first access (PEP 562).  ``_quad`` reads it as an
attribute of this module, so a stand-in assigned to ``integrate`` (as the
benchmark's tracing does) receives every call.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


def __getattr__(name: str):
    if name == "integrate":
        from scipy import integrate

        globals()["integrate"] = integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the requested tolerance.

    Carries the achieved absolute-error estimate in ``estimate``.
    """

    def __init__(self, message: str, estimate: float = math.nan):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerances and truncation policy for adaptive integration."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    tail_cutoff: float = 10.0
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.tail_cutoff < 8:
            raise ValueError(f"tail_cutoff must be >= 8, got {self.tail_cutoff}")
        if self.max_subdivisions < 50:
            raise ValueError(f"max_subdivisions must be >= 50, got {self.max_subdivisions}")


DEFAULT_SETTINGS = QuadratureSettings()


def _quad(f, lo, hi, s: QuadratureSettings, points=None):
    """scipy.integrate.quad with tolerance checking and diagnostic errors."""
    kwargs = dict(epsabs=s.abs_tol, epsrel=s.rel_tol, limit=s.max_subdivisions, full_output=1)
    if points is not None and np.isfinite(lo) and np.isfinite(hi):
        inside = sorted(p for p in points if lo < p < hi)
        if inside:
            kwargs["points"] = inside
    out = sys.modules[__name__].integrate.quad(f, lo, hi, **kwargs)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # quad appended a convergence warning message
        tol = max(s.abs_tol, s.rel_tol * abs(value))
        if abserr > 10 * tol:
            raise QuadratureError(
                f"quadrature did not converge on [{lo}, {hi}]: {out[3]}", estimate=abserr
            )
    return value, abserr


def integrate_adaptive(
    f,
    lo: float,
    hi: float,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    gaussian_center: float | None = None,
    points=None,
) -> float:
    """Adaptive integral of ``f`` on ``[lo, hi]`` (endpoints may be infinite).

    When ``gaussian_center`` is given, infinite endpoints are truncated at
    ``tail_cutoff`` from the centre of a unit-width Gaussian; the neglected
    tail mass is below 1e-43 at the default cutoff.
    """
    if gaussian_center is not None:
        if not np.isfinite(lo):
            lo = gaussian_center - s.tail_cutoff
        if not np.isfinite(hi):
            hi = gaussian_center + s.tail_cutoff
    value, _ = _quad(f, lo, hi, s, points=points)
    return value


def pv_integrate(
    f,
    pole: float,
    lo: float,
    hi: float,
    s: QuadratureSettings = DEFAULT_SETTINGS,
) -> float:
    """Principal value of ``int f(t) dt`` where ``f`` has a simple pole.

    ``f`` is the full integrand including the ``1/(t - pole)`` factor and is
    otherwise smooth.  A symmetric window around the pole is integrated as
    ``int_0^h [f(pole+u) + f(pole-u)] du``, in which the singular parts cancel
    exactly; the remainder is ordinary adaptive quadrature.
    """
    if not (lo < pole < hi):
        raise ValueError(f"pole {pole} must lie strictly inside ({lo}, {hi})")
    left_room = pole - lo if np.isfinite(lo) else math.inf
    right_room = hi - pole if np.isfinite(hi) else math.inf
    h = min(1.0, 0.5 * left_room, 0.5 * right_room)

    def symmetrized(u):
        return f(pole + u) + f(pole - u)

    total = 0.0
    v, _ = _quad(symmetrized, 0.0, h, s)
    total += v
    v, _ = _quad(f, lo, pole - h, s)
    total += v
    v, _ = _quad(f, pole + h, hi, s)
    total += v
    return total
