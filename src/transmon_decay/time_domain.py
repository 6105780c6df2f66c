"""Survival amplitude in the time domain and Rabi-oscillation metrics.

The survival amplitude is the Fourier transform of the spectral function,

    U(t) = int U(E) e^{-iEt} dE,

evaluated by trapezoidal quadrature on the adaptively refined (nonuniform)
energy grid; a uniform-grid FFT would waste millions of points on peaks four
orders of magnitude narrower than the spectral span.  The returned amplitude
has the global phase ``e^{-i y_ref t}`` factored out, so a symmetric
two-peak spectrum yields a real cosine beat.

The times must form a uniform grid, t_i = t_0 + i dt.  Writing
i = mK + k with K = ceil(sqrt(T)) and M = ceil(T/K) blocks splits every
phase factor exactly,

    U[mK + k] = sum_j e^{-i (t_0 + mK dt) y_j} w_j u_j * e^{-i k dt y_j},

so the sum over the N energies is one complex (M x N) @ (N x K) matrix
product, and only (K + M) N exponentials are evaluated instead of T N.  Every
term is the product of two correctly rounded exponentials, so no error builds
up along the time axis.  The split times (t_0 + mK dt) + k dt round to within
about one ulp of the given t_i, so the result agrees with the direct sum to
~eps * max|t y| (at most 2.2e-14 on the sample configurations).  Times that
are not uniform to a few ulps raise ``ValueError``.

Times are dimensionless (``t * delta``); physical conversion happens at the
CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NumericalError
from .spectrum import SpectralGrid

_SIGNIFICANCE = 1e-9  # share of the peak height below which U is negligible
_UNIFORM_ULPS = 8  # tolerance of the uniform-time check, in ulps of max|t|
# Floor of that tolerance: np.linspace over a subnormal span misses the
# lattice by whole subnormal ulps, and no offset this small moves a phase y*t.
_UNIFORM_FLOOR = float(np.finfo(float).tiny)


class TimeHorizonError(NumericalError):
    """Requested times exceed the resolvable horizon of the grid."""

    def __init__(self, horizon: float):
        super().__init__(
            f"requested times exceed the aliasing horizon t*delta = {horizon:.6g} "
            "of this grid; refine the grid or shorten the time span"
        )
        self.horizon = horizon


@dataclass(frozen=True)
class SurvivalSeries:
    """Survival amplitude samples; ``|U(0)|`` off 1 by over 1e-3 is a ``NumericalError``."""

    times: np.ndarray
    amplitude: np.ndarray  # complex, relative to the global phase e^{-i y_ref t}
    magnitude: np.ndarray
    horizon: float = math.inf  # aliasing horizon of the energy grid (grid_horizon)

    def __post_init__(self):
        if len(self.times) and abs(self.times[0]) < 1e-15:
            if not math.isclose(float(self.magnitude[0]), 1.0, abs_tol=1e-3):
                raise NumericalError(
                    f"t=0 magnitude {self.magnitude[0]:.6f} deviates from 1 beyond "
                    "the spectral-normalization tolerance; the grid under-resolves a peak"
                )


@dataclass(frozen=True)
class RabiMetrics:
    """Oscillation and decay metrics extracted from a survival series.

    ``rabi_period`` follows the revival convention: twice the spacing of
    magnitude maxima when successive maxima alternate in phase (pure two-peak
    beat), the plain spacing otherwise.  ``decay_time`` is the probability
    e-folding time from a log-linear fit of the envelope, comparable with the
    reciprocal of a resonance width.
    """

    rabi_period: float | None
    maxima_spacing: float | None
    decay_time: float
    angular_rabi_frequency: float | None
    n_maxima: int


def grid_horizon(grid: SpectralGrid) -> float:
    """Largest reliably resolvable dimensionless time for this grid.

    Limited by the coarsest energy spacing inside the region where the
    spectral function is non-negligible.
    """
    u = grid.u_ff
    thresh = _SIGNIFICANCE * float(u.max())
    steps = np.diff(grid.energies)
    significant = (u[:-1] > thresh) | (u[1:] > thresh)
    if not significant.any():
        return math.inf
    return 2.0 * math.pi / (4.0 * float(steps[significant].max()))


def survival_amplitude(grid: SpectralGrid, times) -> SurvivalSeries:
    """Trapezoidal Fourier synthesis of the survival amplitude.

    ``times`` must be uniform (e.g. ``np.linspace``); the sum is one complex
    matrix product over the factored phases (see the module docstring).
    """
    times = np.asarray(times, dtype=float)
    horizon = grid_horizon(grid)
    if times.size and np.abs(times).max() > horizon:
        raise TimeHorizonError(horizon)

    y = grid.energies - grid.y_ref
    u = grid.u_ff
    dy = np.diff(y)
    # trapezoid weights on the nonuniform grid
    w = np.zeros_like(y)
    w[:-1] += 0.5 * dy
    w[1:] += 0.5 * dy
    wu = w * u

    n = times.size
    if n == 0:
        return SurvivalSeries(times, np.empty(0, complex), np.empty(0), horizon)
    t0 = float(times[0])
    dt = (float(times[-1]) - t0) / (n - 1) if n > 1 else 0.0
    lattice = t0 + dt * np.arange(n)
    tol = max(_UNIFORM_ULPS * float(np.spacing(np.abs(times).max())), _UNIFORM_FLOOR)
    if not np.all(np.abs(times - lattice) <= tol):
        raise ValueError("times must lie on a uniform grid t_0 + i*dt")

    # t_{mK+k} = (t_0 + mK dt) + k dt: block phases times in-block phases
    k = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    m = -(-n // k)
    lead = np.exp(-1j * np.outer(t0 + dt * (k * np.arange(m)), y)) * wu
    step = np.exp(-1j * np.outer(y, dt * np.arange(k)))
    amp = (lead @ step).reshape(-1)[:n]
    return SurvivalSeries(times, amp, np.abs(amp), horizon)


def rabi_metrics(series: SurvivalSeries) -> RabiMetrics:
    """Oscillation period and envelope decay time of a survival series.

    With fewer than three interior magnitude maxima no oscillation is
    reported and the decay time comes from a fit over all samples.
    """
    t, mag, amp = series.times, series.magnitude, series.amplitude
    interior = np.nonzero((mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:]))[0] + 1
    # discard numerically flat maxima
    interior = interior[mag[interior] > 1e-12]

    if len(interior) >= 3:
        fit = interior
        spacing = float(np.mean(np.diff(t[interior])))
        # alternating phase at successive maxima means the magnitude repeats
        # at half the true beat period
        overlap = np.real(amp[interior[:-1]] * np.conj(amp[interior[1:]]))
        alternating = np.mean(overlap < 0) > 0.5
        period = 2.0 * spacing if alternating else spacing
    else:
        fit = mag > 1e-12
        if fit.sum() < 2:
            raise ValueError("series too short or fully decayed; cannot fit a decay time")
        spacing = period = None
    # probability e-folding time from a log-linear fit of the magnitude
    # (of its maxima, when it oscillates)
    slope = float(np.polyfit(t[fit], np.log(mag[fit]), 1)[0])
    return RabiMetrics(
        rabi_period=period,
        maxima_spacing=spacing,
        decay_time=math.inf if slope >= 0 else 1.0 / (2.0 * abs(slope)),
        angular_rabi_frequency=None if period is None else 2.0 * math.pi / period,
        n_maxima=int(len(interior)),
    )
