"""Discrete-mode sums: the anti-bug oracle for the continuum path.

The continuum self-energies are the limit of sums over equally spaced modes
with squared couplings ``g_i^2(omega_k) * spacing``.  Poles are regularized
with a small imaginary part ``eps`` equal to the spacing:

    1/(x + i eps) = x/(x^2 + eps^2) - i pi L_eps(x),

where ``L_eps`` is the normalized Lorentzian, so shifts use the smoothed
principal-value kernel and delta functions become Lorentzians of width
``eps``.  The two finite-size self-terms of the first-level sums (which
vanish in the continuum limit) are included with the same prescription.

The second-level sum needs the first-level self-energy at every photon mode,
a double sum over mode pairs.  On the lattice ``mode_k = lo + (k + 1/2) dw``
its pole offset ``x_kj = y - mode_k - mode_j`` depends on ``k + j`` only, so

    shift_k = sum_j g1^2_j F(k + j),    width_k = 2 sum_j g1^2_j G(k + j),

with ``F = x/(x^2 + eps^2)`` and ``G = eps/(x^2 + eps^2)`` on 2N - 1 values:
two Hankel matrix-vector products, which one real-FFT correlation
(``numpy.fft``) evaluates in O(N log N) time and O(N) memory instead of the
N x N matrix.  Its length is the smallest 2^a 3^b 5^c >= 2N - 1 (864, 2160
and 4320 for the 430, 1075 and 2150 modes of spacings 0.05, 0.02 and 0.01,
where a power of two would take 1024, 4096 and 8192).  The modes, the
couplings and the transform of ``g1^2`` are made once per spacing, and the
energies are the rows of one batched correlation per block of at most
``_BLOCK`` (energies x FFT length) elements.  Against the written-out double
sum, at spacings 0.05 to 0.005, the first-level values agree to 6.9e-13 of
the largest value; the FFT itself adds ~1e-15, the rest is how each route
rounds ``x``, amplified by 1/eps near the pole (``tests/test_discrete.py``).
``discrete_self_energy_1`` asks for one off-lattice photon frequency and sums
its single row directly.

The sums are still independent of the continuum path: they share only the
model definitions with it and import nothing from the quadrature or
spectrum code (``convergence_report`` calls ``spectrum.sigma2`` only for the
reference it compares against), so agreement checks both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CouplingConfig, DimensionlessModel, NumericalError, coupling_sq
from .spectrum import _MAX_SCAN_POINTS, DEFAULT_SETTINGS, QuadratureSettings, regime_for, sigma2

_BAND_CUTOFF = 10.0  # Gaussian widths the band reaches beyond both centres
_BAND_COVER = 8.0  # Gaussian widths the band must cover for a meaningful oracle
_BLOCK = 1 << 18  # energies x FFT length correlated at once: 2 MB per float array


def _band(m: DimensionlessModel) -> tuple[float, float]:
    """Band covering both coupling Gaussians out to 10 widths, cut at 0."""
    lo = min(m.center(1), m.center(2)) - _BAND_CUTOFF
    hi = max(m.center(1), m.center(2)) + _BAND_CUTOFF
    return (max(lo, 0.0), hi)


def _mode_counts(m: DimensionlessModel, spacings, energies: int = 1) -> list[int]:
    """The oracle's input rules, stated once, checked before anything is
    allocated: at least one energy and one spacing, spacings strictly
    decreasing and positive, at least one mode of the band at the widest and
    at most ``_MAX_SCAN_POINTS`` at the finest.  Returns the mode count at
    each spacing; ``ValueError`` names the first rule broken."""
    if energies < 1 or len(spacings) < 1:
        raise ValueError(f"need an energy and a spacing, got {energies} and {len(spacings)}")
    if not (spacings[-1] > 0 and all(b < a for a, b in zip(spacings, spacings[1:]))):
        raise ValueError(f"spacings must be positive and strictly decreasing, got {list(spacings)}")
    lo, hi = band = _band(m)
    if not (hi - lo) / spacings[-1] < _MAX_SCAN_POINTS + 1:
        raise ValueError(
            f"band {band} at spacing {spacings[-1]} holds more than {_MAX_SCAN_POINTS} modes"
        )
    if hi - lo < spacings[0]:
        raise ValueError(f"band {band} holds no mode at spacing {spacings[0]}")
    return [math.floor((hi - lo) / spacing) for spacing in spacings]


def _modes(m: DimensionlessModel, spacing: float) -> np.ndarray:
    """Photon modes at half-integer multiples of ``spacing`` inside the band,
    offset from round energies; ``ValueError`` unless ``_mode_counts`` accepts
    the spacing.

    The spacing is also the pole regularization ``eps``: without it poles sit
    on the real axis and any pole-on-mode collision diverges, and a narrower
    Lorentzian is under-resolved by the mode grid and leaves a bias that
    never decays with refinement.
    """
    (n,) = _mode_counts(m, [spacing])
    return _band(m)[0] + (np.arange(n) + 0.5) * spacing


def _check_band(m: DimensionlessModel):
    """Only the band's cut at 0 can leave a centre less than 8 widths inside it."""
    band = _band(m)
    if band[0] > min(m.center(1), m.center(2)) - _BAND_COVER:
        raise NumericalError(
            f"band {band} does not cover both coupling Gaussians +- {_BAND_COVER} widths"
        )


def _self_terms(y, omegas, g1sq_at, eps: float):
    """Finite-size self-terms, one per photon mode: the pole at ``y = 2 omega``."""
    xs = y - 2.0 * omegas
    denom = xs * xs + eps * eps
    return 0.5 * g1sq_at * xs / denom, g1sq_at * eps / denom


def _fft_length(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= 2N - 1, a length ``numpy.fft`` transforms
    by its radix-2, 3 and 5 passes: no wrap-around reaches the N outputs
    kept."""
    target = 2 * n - 1
    best = 1 << (target - 1).bit_length()  # the power of two
    five = 1  # 5^c
    while five < best:
        odd = five  # 3^b 5^c, times the least power of two that reaches the target
        while odd < best:
            best = min(best, odd << (-(-target // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _sigma1_at_modes(
    ys: np.ndarray, modes: np.ndarray, g1sq: np.ndarray, g1sq_spectrum: np.ndarray, eps: float
):
    """First-level (shift, width) at every photon mode ``omega = mode_k``, for
    each energy of the column ``ys``: two (energies x N) arrays.

    ``x_kj = y - mode_k - mode_j`` depends on ``k + j`` only, so both sums
    are Hankel products of ``g1^2`` with 2N - 1 kernel values per energy:
    one batched real-FFT correlation of length ``_fft_length(N)``, with
    ``g1sq_spectrum = rfft(g1sq[::-1], _fft_length(N))`` taken once per
    spacing.
    """
    n = len(modes)
    size = _fft_length(n)
    x = (ys - 2.0 * modes[0]) - eps * np.arange(2 * n - 1)
    denom = x * x + eps * eps
    sums = np.zeros((2, len(ys), size))  # the kernels, zero-padded, then the sums
    np.divide(x, denom, out=sums[0, :, : 2 * n - 1])
    np.divide(eps, denom, out=sums[1, :, : 2 * n - 1])
    kernels = np.fft.rfft(sums)
    kernels *= g1sq_spectrum
    np.fft.irfft(kernels, size, out=sums)
    shift, width = sums[..., n - 1 : 2 * n - 1]
    self_shift, self_width = _self_terms(ys, modes, g1sq, eps)
    return shift + self_shift, np.maximum(2.0 * width + self_width, 0.0)


def discrete_self_energy_1(
    y: float, w: float, spacing: float, m: DimensionlessModel, c: CouplingConfig
) -> complex:
    """Discrete first-level self-energy ``Delta_1 - i Gamma_1/2`` at one
    ``(y, w)`` point: a single row of the double sum, O(N)."""
    _check_band(m)
    y, w = float(y), float(w)
    eps = dw = spacing
    modes = _modes(m, spacing)
    g1sq = coupling_sq(m, c, 1, modes) * dw
    x = y - w - modes
    denom = x * x + eps * eps
    self_shift, self_width = _self_terms(y, w, float(coupling_sq(m, c, 1, w)) * dw, eps)
    shift = float((g1sq * x / denom).sum()) + self_shift
    width = 2.0 * float((g1sq * eps / denom).sum()) + self_width
    return complex(shift, -0.5 * max(width, 0.0))


def discrete_self_energy_2(y, spacing: float, m: DimensionlessModel, c: CouplingConfig):
    """Discrete second-level self-energy ``Delta_2 - i Gamma_2/2``, summing
    over photon modes with the discrete first-level self-energy inside every
    denominator.  Vectorised over ``y``: a scalar gives a ``complex``, an
    array an array of that shape."""
    _check_band(m)
    ys = np.asarray(y, dtype=float)
    modes = _modes(m, spacing)
    g1sq, g2sq = (coupling_sq(m, c, i, modes) * spacing for i in (1, 2))
    # Decided once per call, not from the computed widths: with L1 > 0 every
    # first-level width is a sum of positive Lorentzian tails, so only a bare
    # pole (V1 off or L1 = 0) needs the same i*eps regularization.
    first_level = c.v1_enabled and c.l1 > 0
    eps = 0.0 if first_level else spacing
    s1_shift = s1_width = 0.0
    flat = ys.reshape(-1, 1)
    out = np.empty((len(flat), 2))  # (shift, -Gamma_2/2) rows, read as complex
    size = _fft_length(len(modes))
    spectrum = np.fft.rfft(g1sq[::-1], size) if first_level else None
    rows = max(1, _BLOCK // size)
    for i in range(0, len(flat), rows):
        block = flat[i : i + rows]
        if first_level:
            s1_shift, s1_width = _sigma1_at_modes(block, modes, g1sq, spectrum, spacing)
        x = block - m.a - modes - s1_shift
        denom = x * x + 0.25 * s1_width**2 + eps**2
        out[i : i + rows, 0] = (g2sq * x / denom).sum(axis=-1)
        width = (g2sq * (s1_width + 2.0 * eps) / denom).sum(axis=-1)
        out[i : i + rows, 1] = -0.5 * np.maximum(width, 0.0)
    sigma = out.view(complex).reshape(ys.shape)
    return complex(sigma) if sigma.ndim == 0 else sigma


@dataclass(frozen=True)
class ConvergenceRow:
    spacing: float
    max_abs_err_shift: float
    max_abs_err_width: float
    max_rel_err: float
    modes: int  # photon modes summed at this spacing: the oracle's work count


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    monotone: bool

    def as_table(self) -> str:
        lines = ["spacing    max|dDelta2|   max|dGamma2|   max rel err"]
        for r in self.rows:
            lines.append(
                f"{r.spacing:<10.4g} {r.max_abs_err_shift:<14.4g} "
                f"{r.max_abs_err_width:<14.4g} {r.max_rel_err:.4g}"
            )
        return "\n".join(lines)


def convergence_report(
    ys, spacings, m: DimensionlessModel, c: CouplingConfig, s: QuadratureSettings = DEFAULT_SETTINGS
) -> ConvergenceReport:
    """Per-spacing deviation of the discrete sums from the continuum values.

    ``_mode_counts`` checks ``ys`` and ``spacings`` first.  The report is flagged
    non-monotone when the maximum error fails to decrease after the first
    entry, which signals a bug in one of the two paths.
    """
    spacings = [float(v) for v in spacings]
    ys = np.asarray(ys, dtype=float)
    counts = _mode_counts(m, spacings, len(ys))  # every rule checked before any sum

    reference = sigma2(ys, m, c, regime_for(c), s)
    # shifts compare real parts, widths twice the imaginary parts
    scale = float(max(np.abs(reference.real).max(), 2.0 * np.abs(reference.imag).max()))

    rows = []
    for spacing, modes in zip(spacings, counts):
        err = discrete_self_energy_2(ys, spacing, m, c) - reference
        err_shift = float(np.abs(err.real).max())
        err_width = 2.0 * float(np.abs(err.imag).max())
        largest = max(err_shift, err_width)
        rows.append(ConvergenceRow(spacing, err_shift, err_width, largest / scale, modes))

    # monotone decrease is only demanded after the (coarsest) first entry
    worst = [max(r.max_abs_err_shift, r.max_abs_err_width) for r in rows]
    monotone = all(b <= a for a, b in zip(worst[1:], worst[2:]))
    return ConvergenceReport(rows=tuple(rows), monotone=monotone)
