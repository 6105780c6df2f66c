"""Discrete-mode sums: the anti-bug oracle for the continuum path.

The continuum self-energies are the limit of sums over equally spaced modes
with squared couplings ``g_i^2(omega_k) * spacing``.  Poles are regularized
with a small imaginary part ``eps`` tied to the spacing:

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
N x N matrix.  Against the written-out double sum, at spacings 0.05 to
0.005, the first-level values agree to 6.9e-13 of the largest value with
``eps`` = spacing and to 4.0e-12 with ``eps`` = spacing / 2; the FFT itself
adds ~1e-15, the rest is how each route rounds ``x``, amplified by 1/eps
near the pole (``tests/test_discrete.py``).
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
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings
from .spectrum import regime_for, sigma2

_BAND_CUTOFF = 10.0  # Gaussian widths the default band reaches beyond both centres


@dataclass(frozen=True)
class DiscretizationSpec:
    """Mode spacing, frequency band, and pole regularization.

    ``pole_offset`` must be positive: an unregularized spectrum places poles
    directly on the real axis and any pole-on-mode collision diverges.  None,
    the default, means the spacing; a narrower Lorentzian is under-resolved
    by the mode grid and leaves a bias that never decays with refinement.
    Modes sit at half-integer multiples of the spacing inside the band,
    offset from round energies.
    """

    mode_spacing: float
    band: tuple[float, float]
    pole_offset: float | None = None

    def __post_init__(self):
        if self.mode_spacing <= 0:
            raise ValueError(f"mode spacing must be positive, got {self.mode_spacing}")
        if self.band[1] - self.band[0] < self.mode_spacing:
            raise ValueError(f"band {self.band} holds no mode at spacing {self.mode_spacing}")
        if self.pole_offset is None:
            object.__setattr__(self, "pole_offset", self.mode_spacing)
        if not (0.0 < self.pole_offset <= self.mode_spacing):
            raise ValueError(
                "pole_offset must satisfy 0 < eps <= spacing (poles on unregularized "
                f"modes diverge), got {self.pole_offset}"
            )

    @classmethod
    def for_model(
        cls,
        m: DimensionlessModel,
        mode_spacing: float,
        *,
        pole_offset: float | None = None,
    ) -> "DiscretizationSpec":
        """Band covering both coupling Gaussians out to 10 widths."""
        lo = min(m.center(1), m.center(2)) - _BAND_CUTOFF
        hi = max(m.center(1), m.center(2)) + _BAND_CUTOFF
        return cls(mode_spacing=mode_spacing, band=(max(lo, 0.0), hi), pole_offset=pole_offset)

    def modes(self) -> np.ndarray:
        lo, hi = self.band
        n = int(math.floor((hi - lo) / self.mode_spacing))
        return lo + (np.arange(n) + 0.5) * self.mode_spacing


def _check_band(spec: DiscretizationSpec, m: DimensionlessModel):
    lo, hi = spec.band
    span = 8.0  # minimum Gaussian coverage for a meaningful oracle
    if lo > min(m.center(1), m.center(2)) - span or hi < max(m.center(1), m.center(2)) + span:
        raise NumericalError(
            f"band {spec.band} does not cover both coupling Gaussians +- {span} widths"
        )


def _self_terms(y: float, omegas, g1sq_at, eps: float):
    """Finite-size self-terms, one per photon mode: the pole at ``y = 2 omega``."""
    xs = y - 2.0 * omegas
    denom = xs * xs + eps * eps
    return 0.5 * g1sq_at * xs / denom, g1sq_at * eps / denom


def _sigma1_at_modes(y: float, spec: DiscretizationSpec, m, c):
    """First-level (shift, width) at every photon mode ``omega = mode_k``.

    ``x_kj = y - mode_k - mode_j`` depends on ``k + j`` only, so both sums
    are Hankel products of ``g1^2`` with 2N - 1 kernel values: one real-FFT
    correlation of power-of-two length >= 2N - 1, which is long enough that
    no wrap-around reaches the N outputs kept.
    """
    eps = spec.pole_offset
    dw = spec.mode_spacing
    modes = spec.modes()
    n = len(modes)
    g1sq = np.asarray(coupling_sq(m, c, 1, modes)) * dw

    x = (y - 2.0 * modes[0]) - dw * np.arange(2 * n - 1)
    denom = x * x + eps * eps
    size = 1 << (2 * n - 2).bit_length()
    kernels = np.fft.rfft(np.stack((x / denom, eps / denom)), size)
    sums = np.fft.irfft(np.fft.rfft(g1sq[::-1], size) * kernels, size)
    shift, width = sums[:, n - 1 : 2 * n - 1]
    self_shift, self_width = _self_terms(y, modes, g1sq, eps)
    return shift + self_shift, np.maximum(2.0 * width + self_width, 0.0)


def discrete_self_energy_1(
    y: float,
    w: float,
    spec: DiscretizationSpec,
    m: DimensionlessModel,
    c: CouplingConfig,
) -> complex:
    """Discrete first-level self-energy ``Delta_1 - i Gamma_1/2`` at one
    ``(y, w)`` point: a single row of the double sum, O(N)."""
    _check_band(spec, m)
    y, w = float(y), float(w)
    eps = spec.pole_offset
    dw = spec.mode_spacing
    modes = spec.modes()
    g1sq = np.asarray(coupling_sq(m, c, 1, modes)) * dw
    x = y - w - modes
    denom = x * x + eps * eps
    self_shift, self_width = _self_terms(y, w, float(coupling_sq(m, c, 1, w)) * dw, eps)
    shift = float((g1sq * x / denom).sum()) + self_shift
    width = 2.0 * float((g1sq * eps / denom).sum()) + self_width
    return complex(shift, -0.5 * max(width, 0.0))


def discrete_self_energy_2(
    y: float,
    spec: DiscretizationSpec,
    m: DimensionlessModel,
    c: CouplingConfig,
) -> complex:
    """Discrete second-level self-energy ``Delta_2 - i Gamma_2/2``, summing
    over photon modes with the discrete first-level self-energy inside every
    denominator."""
    _check_band(spec, m)
    y = float(y)
    dw = spec.mode_spacing
    modes = spec.modes()
    g2sq = np.asarray(coupling_sq(m, c, 2, modes)) * dw
    # Decided once per call, not from the computed widths: with L1 > 0 every
    # first-level width is a sum of positive Lorentzian tails, so only a bare
    # pole (V1 off or L1 = 0) needs the same i*eps regularization.
    first_level = c.v1_enabled and c.l1 > 0
    if first_level:
        s1_shift, s1_width = _sigma1_at_modes(y, spec, m, c)
    else:
        s1_shift = s1_width = np.zeros_like(modes)
    eps = 0.0 if first_level else spec.pole_offset
    x = y - m.a - modes - s1_shift
    denom = x * x + 0.25 * s1_width**2 + eps**2
    shift = float((g2sq * x / denom).sum())
    width = float((g2sq * (s1_width + 2.0 * eps) / denom).sum())
    return complex(shift, -0.5 * max(width, 0.0))


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
    ys,
    spacings,
    m: DimensionlessModel,
    c: CouplingConfig,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    pole_offset: float | None = None,
) -> ConvergenceReport:
    """Per-spacing deviation of the discrete sums from the continuum values.

    ``spacings`` must be strictly decreasing.  ``pole_offset`` is the
    regularization of every spacing's ``DiscretizationSpec`` (None means the
    spacing).  The report is flagged non-monotone when the maximum
    error fails to decrease after the first entry, which signals a bug in
    one of the two paths.
    """
    spacings = [float(v) for v in spacings]
    if not spacings:
        raise ValueError("need at least one mode spacing")
    if any(b >= a for a, b in zip(spacings, spacings[1:])):
        raise ValueError(f"spacings must be strictly decreasing, got {spacings}")
    ys = [float(v) for v in ys]
    if not ys:
        raise ValueError("need at least one evaluation energy")

    reference = sigma2(np.asarray(ys), m, c, regime_for(c), s)
    # shifts compare real parts, widths twice the imaginary parts
    scale = float(max(np.abs(reference.real).max(), 2.0 * np.abs(reference.imag).max()))

    rows = []
    for spacing in spacings:
        spec = DiscretizationSpec.for_model(m, spacing, pole_offset=pole_offset)
        err = np.array([discrete_self_energy_2(y, spec, m, c) for y in ys]) - reference
        err_shift = float(np.abs(err.real).max())
        err_width = 2.0 * float(np.abs(err.imag).max())
        rows.append(
            ConvergenceRow(
                spacing=spacing,
                max_abs_err_shift=err_shift,
                max_abs_err_width=err_width,
                max_rel_err=max(err_shift, err_width) / scale,
                modes=len(spec.modes()),
            )
        )

    # monotone decrease is only demanded after the (coarsest) first entry
    worst = [max(r.max_abs_err_shift, r.max_abs_err_width) for r in rows]
    monotone = all(b <= a for a, b in zip(worst[1:], worst[2:]))
    return ConvergenceReport(rows=tuple(rows), monotone=monotone)
