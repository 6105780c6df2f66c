"""Independent verification routes: adaptive and principal-value quadrature.

``integrate_adaptive`` wraps ``scipy.integrate.quad`` with tolerance checking
and Gaussian tail truncation; ``pv_integrate`` takes the principal value of
an integrand with a simple pole by symmetric singularity subtraction.  The
closed-form self-energies (``spectrum._gaussian_sigma``, through the Dawson
function, PV int e^{-t^2} / (x - t) dt = 2 sqrt(pi) D(x)) and the FULL
Gauss-Kronrod node sum are the package's only routes; these share no code
with them and are what the tests compare them against, to tight tolerance:
``delta1_pv`` for the first-level shift and ``_full_integrals`` for the FULL
second-level self-energy.

This is a support module, not a test file: pytest does not collect it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

from transmon_decay.model import CouplingConfig, DimensionlessModel
from transmon_decay.spectrum import (
    DEFAULT_SETTINGS,
    SQRT_PI,
    QuadratureError,
    QuadratureSettings,
    _resonant_offsets,
)

_TAIL = 10.0  # unit-width Gaussians are cut this far from their centre


def _quad(f, lo, hi, s: QuadratureSettings, points=None, limit: int = 200):
    """scipy.integrate.quad with tolerance checking and diagnostic errors;
    ``limit`` is quad's subdivision budget."""
    kwargs = dict(epsabs=s.abs_tol, epsrel=s.rel_tol, limit=limit, full_output=1)
    if points is not None and np.isfinite(lo) and np.isfinite(hi):
        inside = sorted(p for p in points if lo < p < hi)
        if inside:
            kwargs["points"] = inside
    out = integrate.quad(f, lo, hi, **kwargs)
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
    ``_TAIL`` (10) from the centre of a unit-width Gaussian; the neglected
    tail mass is below 1e-43.
    """
    if gaussian_center is not None:
        if not np.isfinite(lo):
            lo = gaussian_center - _TAIL
        if not np.isfinite(hi):
            hi = gaussian_center + _TAIL
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


def delta1_pv(
    y: float,
    w: float,
    m: DimensionlessModel,
    c: CouplingConfig,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    extended: bool = True,
) -> float:
    """First-level shift by generic PV quadrature (verification route).

    ``extended=True`` integrates over the whole real line, matching the
    Dawson closed form; ``extended=False`` keeps the physical lower bound at
    zero frequency.
    """
    if not c.v1_enabled:
        return 0.0
    pole = y - w
    pref = 2.0 * c.l1 / SQRT_PI
    a = m.a

    def integrand(t):
        return pref * math.exp(-((t - a) ** 2)) / (pole - t)

    lo = -math.inf if extended else 0.0
    # pole far below the Gaussian support: integrand is regular on the domain
    if pole <= lo + 1e-12 or (not extended and pole <= 0):
        return integrate_adaptive(integrand, lo, math.inf, s, gaussian_center=a)
    return pv_integrate(integrand, pole, lo, math.inf, s)


def _full_integrals(d: float, c: CouplingConfig, s: QuadratureSettings, limit: int = 200):
    """Raw shift and width integrals (without prefactors) for FULL coupling at
    detuning ``d = y - b``, by adaptive ``quad`` with subdivision budget
    ``limit``, with their error estimates.

    Integration variable is ``v = w - (a - alpha_d)``, centred on the
    second-transition Gaussian; in this variable the inner resonances sit at
    ``v = d - u`` for each fixed point ``u``.  Returns
    ``(shift, width, shift_err, width_err)``.
    """
    l1 = c.l1
    g1_peak = 4.0 * SQRT_PI * l1

    def denominator(v):
        x = d - v  # = y - a - w
        num = x - 4.0 * l1 * special.dawsn(x)
        g1 = g1_peak * math.exp(-x * x)
        return x, num, num * num + 0.25 * g1 * g1

    def shift_integrand(v):
        x, num, den = denominator(v)
        return math.exp(-v * v) * num / den

    def width_integrand(v):
        x, num, den = denominator(v)
        return math.exp(-v * v) * math.exp(-x * x) / den

    points = [d - u for u in _resonant_offsets(l1)]
    shift, shift_err = _quad(shift_integrand, -_TAIL, _TAIL, s, points=points, limit=limit)
    width, width_err = _quad(width_integrand, -_TAIL, _TAIL, s, points=points, limit=limit)
    return shift, width, shift_err, width_err
