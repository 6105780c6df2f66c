"""Survival amplitude in the time domain and Rabi-oscillation metrics.

The survival amplitude is the Fourier transform of the spectral function,

    U(t) = int U(E) e^{-iEt} dE,

evaluated by trapezoidal quadrature on the adaptively refined (nonuniform)
energy grid; a uniform-grid FFT would waste millions of points on peaks four
orders of magnitude narrower than the spectral span.  The returned amplitude
has the global phase ``e^{-i y_ref t}`` factored out, so a symmetric
two-peak spectrum yields a real cosine beat.

Times are dimensionless (``t * delta``); physical conversion happens at the
CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import SpectralGrid

_SIGNIFICANCE = 1e-9  # share of the peak height below which U is negligible


class TimeHorizonError(ValueError):
    """Requested times exceed the resolvable horizon of the grid."""

    def __init__(self, horizon: float):
        super().__init__(
            f"requested times exceed the aliasing horizon t*delta = {horizon:.6g} "
            "of this grid; refine the grid or shorten the time span"
        )
        self.horizon = horizon


@dataclass(frozen=True)
class SurvivalSeries:
    """Survival amplitude samples on a uniform time grid."""

    times: np.ndarray
    amplitude: np.ndarray  # complex, relative to the global phase e^{-i y_ref t}
    magnitude: np.ndarray

    def __post_init__(self):
        if len(self.times) and abs(self.times[0]) < 1e-15:
            if not math.isclose(float(self.magnitude[0]), 1.0, abs_tol=1e-3):
                raise ValueError(
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
    """Trapezoidal Fourier synthesis of the survival amplitude."""
    times = np.asarray(times, dtype=float)
    horizon = grid_horizon(grid)
    if times.size and times.max() > horizon:
        raise TimeHorizonError(horizon)

    y = grid.energies - grid.y_ref
    u = grid.u_ff
    dy = np.diff(y)
    # trapezoid weights on the nonuniform grid
    w = np.zeros_like(y)
    w[:-1] += 0.5 * dy
    w[1:] += 0.5 * dy
    wu = w * u

    amp = np.empty(times.shape, dtype=complex)
    block = max(1, int(4e6 // max(len(y), 1)))
    for i in range(0, len(times), block):
        t = times[i : i + block]
        amp[i : i + block] = np.exp(-1j * np.outer(t, y)) @ wu
    return SurvivalSeries(times=times, amplitude=amp, magnitude=np.abs(amp))


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
