"""Brute-force discrete-mode sums: the anti-bug oracle for the continuum path.

The continuum self-energies are the limit of sums over equally spaced modes
with squared couplings ``g_i^2(omega_k) * spacing``.  Poles are regularized
with a small imaginary part ``eps`` tied to the spacing:

    1/(x + i eps) = x/(x^2 + eps^2) - i pi L_eps(x),

where ``L_eps`` is the normalized Lorentzian, so shifts use the smoothed
principal-value kernel and delta functions become Lorentzians of width
``eps``.  The two finite-size self-terms of the first-level sums (which
vanish in the continuum limit) are included with the same prescription.

Everything here is deliberately independent of the quadrature module: it
shares only the model definitions, so agreement with the continuum results
checks both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import CouplingConfig, DimensionlessModel, coupling_sq
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings
from .self_energy import ShiftWidth
from .spectrum import regime_for, sigma2

_CHUNK = 512


@dataclass(frozen=True)
class DiscretizationSpec:
    """Mode spacing, frequency band, and pole regularization.

    ``pole_offset`` must be positive: an unregularized spectrum places poles
    directly on the real axis and any pole-on-mode collision diverges.  The
    default equals the spacing; a narrower Lorentzian is under-resolved by
    the mode grid and leaves a bias that never decays with refinement.
    Modes sit at half-integer multiples of the spacing inside the band,
    offset from round energies.
    """

    mode_spacing: float
    band: tuple[float, float]
    pole_offset: float = field(default=0.0)

    def __post_init__(self):
        if self.mode_spacing <= 0:
            raise ValueError(f"mode spacing must be positive, got {self.mode_spacing}")
        if self.band[1] <= self.band[0]:
            raise ValueError(f"empty band {self.band}")
        if self.pole_offset == 0.0:
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
        cutoff: float = 10.0,
        pole_offset: float = 0.0,
    ) -> "DiscretizationSpec":
        """Band covering both coupling Gaussians out to ``cutoff`` widths."""
        lo = min(m.center(1), m.center(2)) - cutoff
        hi = max(m.center(1), m.center(2)) + cutoff
        return cls(mode_spacing=mode_spacing, band=(max(lo, 0.0), hi), pole_offset=pole_offset)

    def modes(self) -> np.ndarray:
        lo, hi = self.band
        n = int(math.floor((hi - lo) / self.mode_spacing))
        return lo + (np.arange(n) + 0.5) * self.mode_spacing


def _check_band(spec: DiscretizationSpec, m: DimensionlessModel):
    lo, hi = spec.band
    span = 8.0  # minimum Gaussian coverage for a meaningful oracle
    if lo > min(m.center(1), m.center(2)) - span or hi < max(m.center(1), m.center(2)) + span:
        raise ValueError(
            f"band {spec.band} does not cover both coupling Gaussians +- {span} widths"
        )


def _sigma1(y: float, omegas, spec: DiscretizationSpec, m, c):
    """First-level (shift, width) at photon frequencies ``omegas`` (vectorized).

    Implements the double sum with the intermediate-state energy ``y - omega``
    probed against every mode, plus the degenerate self-terms.
    """
    eps = spec.pole_offset
    dw = spec.mode_spacing
    modes = spec.modes()
    g1sq = np.asarray(coupling_sq(m, c, 1, modes)) * dw

    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    shift = np.empty(len(omegas))
    width = np.empty(len(omegas))
    for i in range(0, len(omegas), _CHUNK):
        om = omegas[i : i + _CHUNK]
        x = y - om[:, None] - modes[None, :]
        denom = x * x + eps * eps
        shift[i : i + _CHUNK] = (g1sq[None, :] * x / denom).sum(axis=1)
        width[i : i + _CHUNK] = 2.0 * (g1sq[None, :] * eps / denom).sum(axis=1)
    # finite-size self-terms, one per photon mode: pole at y = 2*omega
    g1sq_at = np.asarray(coupling_sq(m, c, 1, omegas)) * dw
    xs = y - 2.0 * omegas
    dself = xs * xs + eps * eps
    shift += 0.5 * g1sq_at * xs / dself
    width += g1sq_at * eps / dself
    return shift, np.maximum(width, 0.0)


def discrete_self_energy_1(
    y: float,
    w: float,
    spec: DiscretizationSpec,
    m: DimensionlessModel,
    c: CouplingConfig,
) -> ShiftWidth:
    """Discrete first-level self-energy at one ``(y, w)`` point."""
    _check_band(spec, m)
    shift, width = _sigma1(float(y), [float(w)], spec, m, c)
    return ShiftWidth(shift=float(shift[0]), width=float(width[0]))


def discrete_self_energy_2(
    y: float,
    spec: DiscretizationSpec,
    m: DimensionlessModel,
    c: CouplingConfig,
) -> ShiftWidth:
    """Discrete second-level self-energy, summing over photon modes with the
    discrete first-level self-energy inside every denominator."""
    _check_band(spec, m)
    y = float(y)
    dw = spec.mode_spacing
    modes = spec.modes()
    g2sq = np.asarray(coupling_sq(m, c, 2, modes)) * dw
    if c.v1_enabled:
        s1_shift, s1_width = _sigma1(y, modes, spec, m, c)
    else:
        s1_shift = np.zeros_like(modes)
        s1_width = np.zeros_like(modes)
    x = y - m.a - modes - s1_shift
    # with V1 off the bare pole needs the same i*eps regularization
    eps_eff = np.where(s1_width > 0, 0.0, spec.pole_offset)
    denom = x * x + 0.25 * s1_width**2 + eps_eff**2
    shift = float((g2sq * x / denom).sum())
    width = float((g2sq * (s1_width + 2.0 * eps_eff) / denom).sum())
    return ShiftWidth(shift=shift, width=max(width, 0.0))


@dataclass(frozen=True)
class ConvergenceRow:
    spacing: float
    max_abs_err_shift: float
    max_abs_err_width: float
    max_rel_err: float


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
    cutoff: float = 10.0,
    pole_offset: float = 0.0,
) -> ConvergenceReport:
    """Per-spacing deviation of the discrete sums from the continuum values.

    ``spacings`` must be strictly decreasing.  ``pole_offset`` is the
    regularization of every spacing's ``DiscretizationSpec`` (0 means equal
    to the spacing).  The report is flagged non-monotone when the maximum
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

    sigma = sigma2(np.asarray(ys), m, c, regime_for(c), s)
    reference = [ShiftWidth(shift=v.real, width=max(-2.0 * v.imag, 0.0)) for v in sigma]
    scale = max(max(abs(r.shift), abs(r.width)) for r in reference)

    rows = []
    for spacing in spacings:
        spec = DiscretizationSpec.for_model(m, spacing, cutoff=cutoff, pole_offset=pole_offset)
        err_shift = 0.0
        err_width = 0.0
        for y, ref in zip(ys, reference):
            got = discrete_self_energy_2(y, spec, m, c)
            err_shift = max(err_shift, abs(got.shift - ref.shift))
            err_width = max(err_width, abs(got.width - ref.width))
        rows.append(
            ConvergenceRow(
                spacing=spacing,
                max_abs_err_shift=err_shift,
                max_abs_err_width=err_width,
                max_rel_err=max(err_shift, err_width) / scale,
            )
        )

    # monotone decrease is only demanded after the (coarsest) first entry
    worst = [max(r.max_abs_err_shift, r.max_abs_err_width) for r in rows]
    monotone = all(b <= a for a, b in zip(worst[1:], worst[2:]))
    return ConvergenceReport(rows=tuple(rows), monotone=monotone)
