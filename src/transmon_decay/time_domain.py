"""Survival amplitude in the time domain and Rabi-oscillation metrics.

The survival amplitude is the Fourier transform of the spectral function,

    U(t) = int U(E) e^{-iEt} dE,

evaluated by trapezoidal quadrature on the adaptively refined (nonuniform)
energy grid; a uniform-grid FFT would waste millions of points on peaks four
orders of magnitude narrower than the spectral span.  The returned amplitude
has the global phase ``e^{-i y_ref t}`` factored out, so a symmetric
two-peak spectrum yields a real cosine beat.

The times must form a uniform grid, t_i = t_0 + i dt (times off it by more
than a few ulps raise ``ValueError``).  With the centre index m = floor(T/2)
and k = i - m, the sum is a type-1 nonuniform FFT (Dutt & Rokhlin 1993;
Greengard & Lee, SIAM Rev. 46 (2004) 443) of the coefficients
c_j = w_j u_j e^{-i y_j (t_0 + m dt)} at the points x_j = y_j dt:

    U[m + k] = sum_j c_j e^{-i k x_j},   k = -m ... T - 1 - m.

Each c_j is spread with the Gaussian e^{-(x - x_j)^2 / (4 tau)} onto the
M = R T points of a periodic grid of step h = 2 pi / M; one FFT of that grid
then gives sum_j c_j e^{-i k x_j} times the kernel's Fourier coefficient
sqrt(tau/pi) e^{-k^2 tau}, which is divided out.  The modes are centred
(|k| <= T/2), so that division amplifies the FFT's rounding by at most
e^{T^2 tau / 4} (2.0).  The grid index is folded modulo M, never x_j modulo
2 pi, whose rounded offset times k would leave ~2e-13; so steps whose phases
wrap (span |dt| > 2 pi), decreasing times and a single time (dt = 0) take the
same path.

The constants: oversampling R = 4 and 12 grid points on each side of the
nearest one (25 in all).  The kernel cut at (12 + 1/2) h leaves a relative
error e^{-(12.5 h)^2 / (4 tau)}; the worst mode, |k| = T/2, aliases with
k -+ M at a relative e^{-T^2 tau R (R - 1)}.  T^2 tau is chosen to make the
two equal, each e^{-12.5 pi sqrt(1 - 1/R)} = 1.7e-15 of sum_j |c_j| (which
is the spectral norm, ~1) before the division's factor of up to 2; with
R = 2 each would be 8.6e-13.

The spreading rests on two facts.  First, the kernel factors (Greengard &
Lee): with s = h^2 / (4 tau) and x_j offset delta_j steps from its nearest
grid point, its value q steps from that point is
e^{-s (delta_j - q)^2} = e^{-s delta_j^2}
(e^{2 s delta_j})^q e^{-s q^2}, so an energy takes two ``exp`` and its 25
values come by repeated multiplication outward from q = 0.  Second, the
energies ascend, so those nearest one grid point form a run (613 runs for
the 14311 energies of ``configs/stable_l2_6.ini``, 185 for the 5398 of
``configs/full_l2_6.ini``): one ``np.add.reduceat`` sums each of the 25
rows over the runs, and 25 sums per run, times e^{-s q^2}, are added to
the grid (``np.add.at``) in place of 25 N kernel values.  Energies are
taken 2048 at a time, so the rows, 25 x 2 x 2048 doubles (0.8 MB), are the
largest temporary; a run that crosses a chunk's edge is added in two parts.
The cost is 2 N ``exp``, 50 N multiplications and one FFT of 4 T points,
O(25 N + T log T), instead of T N phase terms: for
``configs/stable_l2_6.ini`` (T = 4000) 7.2e5 multiplications instead of
5.7e7 terms.  Against an extended-precision (``np.longdouble``) direct sum
over the same float64 inputs, every 97th time is off by at most 1.2e-14 on
that STABLE grid, 9.4e-16 on ``configs/full_l2_6.ini`` and 3.6e-16 on
``configs/oracle_l2_1.ini``.  The sum is taken at the exact lattice
t_0 + i dt, and the first of these comes from the given times: the
``np.linspace`` samples sit up to 3.5e-15 off that lattice, which moves the
phase of the doublet at |y| = 3.54 by up to 1.3e-14.  At the lattice times
the error there is 3.2e-15.

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
_OVERSAMPLING = 4  # R: grid points per output time
_HALF_WIDTH = 12  # kernel points on each side of the nearest grid point
_CHUNK = 2048  # energies spread at a time: 25 x 2 x 2048 doubles, 0.8 MB
# T^2 tau, which makes the kernel's truncation equal to its worst aliasing
_TAU_T2 = (_HALF_WIDTH + 0.5) * math.pi / math.sqrt(_OVERSAMPLING**3 * (_OVERSAMPLING - 1))
# h^2 / (4 tau): the kernel is e^{-_KERNEL_SCALE p^2} at p grid steps from x_j
_KERNEL_SCALE = (math.pi / _OVERSAMPLING) ** 2 / _TAU_T2
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
                    "the spectral-normalization tolerance: spectral weight lies outside "
                    "the grid's window, or the grid under-resolves a peak"
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


def _spread(c: np.ndarray, pos: np.ndarray, size: int) -> np.ndarray:
    """The coefficients ``c`` spread with the kernel onto a periodic grid of
    ``size`` points from the positions ``pos = x_j / h``, ascending or
    descending (see the module docstring)."""
    q = np.arange(-_HALF_WIDTH, _HALF_WIDTH + 1)[:, None]
    gauss = np.exp(-_KERNEL_SCALE * np.square(q))
    spread = np.zeros(size, dtype=complex)
    # row q + _HALF_WIDTH: the real and imaginary parts of c_j e^{-s delta_j^2} e^{2 s delta_j q}
    rows = np.empty((q.size, 2, min(_CHUNK, c.size)))
    for lo in range(0, c.size, _CHUNK):
        near = np.rint(pos[lo : lo + _CHUNK])
        delta = pos[lo : lo + _CHUNK] - near
        # e^{-s (delta - q)^2} = e^{-s delta^2} (e^{2 s delta})^q e^{-s q^2}
        weight = np.exp(-_KERNEL_SCALE * np.square(delta))
        ratio = np.exp((2.0 * _KERNEL_SCALE) * delta)
        inverse = 1.0 / ratio
        row = rows[..., : near.size]
        np.multiply(c.real[lo : lo + _CHUNK], weight, out=row[_HALF_WIDTH, 0])
        np.multiply(c.imag[lo : lo + _CHUNK], weight, out=row[_HALF_WIDTH, 1])
        for i in range(_HALF_WIDTH):  # rows q = i + 1 and q = -(i + 1) from their neighbours
            up, down = _HALF_WIDTH + i, _HALF_WIDTH - i
            np.multiply(row[up], ratio, out=row[up + 1])
            np.multiply(row[down], inverse, out=row[down - 1])
        # a run, consecutive energies with one nearest grid point, spreads as one
        first = np.flatnonzero(np.diff(near, prepend=np.nan))
        sums = np.add.reduceat(row, first, axis=2)
        # the grid index is folded modulo size, never x_j modulo 2 pi
        np.add.at(
            spread,
            (near[first].astype(np.int64) + q) % size,
            (sums[:, 0] + 1j * sums[:, 1]) * gauss,
        )
    return spread


def survival_amplitude(grid: SpectralGrid, times) -> SurvivalSeries:
    """Trapezoidal Fourier synthesis of the survival amplitude.

    ``times`` must be uniform (e.g. ``np.linspace``); the sum is a Gaussian
    gridding nonuniform FFT (see the module docstring).
    """
    times = np.asarray(times, dtype=float)
    horizon = grid_horizon(grid)
    if times.size and np.abs(times).max() > horizon:
        raise TimeHorizonError(horizon)

    y = grid.energies - grid.y_ref
    u = grid.u_ff
    dy = np.diff(y)
    # trapezoid weights on the nonuniform grid
    wu = np.zeros_like(y)
    wu[:-1] += 0.5 * dy
    wu[1:] += 0.5 * dy
    wu *= u

    n = times.size
    if n == 0:
        return SurvivalSeries(times, np.empty(0, complex), np.empty(0), horizon)
    t0 = float(times[0])
    dt = (float(times[-1]) - t0) / (n - 1) if n > 1 else 0.0
    lattice = t0 + dt * np.arange(n)
    tol = max(_UNIFORM_ULPS * float(np.spacing(np.abs(times).max())), _UNIFORM_FLOOR)
    if not np.all(np.abs(times - lattice) <= tol):
        raise ValueError("times must lie on a uniform grid t_0 + i*dt")

    mid = n // 2
    c = wu * np.exp(-1j * y * (t0 + mid * dt))
    size = _OVERSAMPLING * n
    spread = _spread(c, y * (dt * size / (2.0 * math.pi)), size)
    k = np.arange(-mid, n - mid)
    # divide by the kernel's Fourier coefficient, sqrt(tau/pi) e^{-k^2 tau}, times M
    amp = np.fft.fft(spread)[k % size] * (
        math.sqrt(math.pi / _TAU_T2) / _OVERSAMPLING * np.exp(_TAU_T2 * np.square(k / n))
    )
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
