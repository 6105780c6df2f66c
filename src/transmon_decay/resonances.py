"""Resonance roots, spectral peaks, widths, and coupling sweeps.

A resonance can be reported from two definitions that do not always agree:
roots of the resonance condition ``y - b - Delta_2(y) = 0`` and local maxima
of the spectral function.  Both are produced and cross-referenced, since at
full coupling some roots fall where the width is large and raise no peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import CouplingConfig, DimensionlessModel, NumericalError
from .spectrum import (
    DEFAULT_SETTINGS,
    QuadratureSettings,
    Regime,
    SigmaStats,
    SpectralGrid,
    _brentq,
    _ROOT_STEP,
    _scan,
    sigma2,
    spectral_function,
)

_ROOT_TOL = 1e-9  # Brent's absolute tolerance on a root
_MERGE_TOL = 1e-5  # roots closer than this form one degenerate record
_FWHM_SPAN = 6.0  # farthest flank search from a peak
# the flank search's steps from a peak, 1e-6 doubled while within _FWHM_SPAN
_FWHM_STEPS = 1e-6 * 2.0 ** np.arange(int(math.log2(_FWHM_SPAN / 1e-6)) + 1)
_FWHM_RTOL = 1e-8  # Brent's relative tolerance on a flank crossing
_CROSSOVER_TOL = 1e-3  # width in L_2 at which the crossover bisection stops


class ScanRangeError(NumericalError):
    """A sign change touched the scan boundary; widen the range."""


@dataclass(frozen=True)
class ResonanceRecord:
    """One resonance: location, origin and height."""

    y_r: float
    kind: str  # "root" or "peak"
    height: float
    degenerate: bool = False
    root_ref: float | None = None  # nearest root for peak records, when close

    def __post_init__(self):
        if self.kind not in ("root", "peak"):
            raise ValueError(f"kind must be 'root' or 'peak', got {self.kind!r}")
        if self.height < 0:
            raise ValueError("height must be non-negative")


@dataclass(frozen=True)
class FwhmResult:
    """Full width at half maximum; ``complete`` is False when only an
    attainable half-width could be measured (overlapping peaks)."""

    width: float
    complete: bool = True


@dataclass(frozen=True)
class SweepResult:
    l2_values: tuple[float, ...]
    records_per_l2: tuple[tuple[ResonanceRecord, ...], ...]
    crossover_estimate: float | None


def spectral_callable(
    m,
    c,
    regime: Regime,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    stats: SigmaStats | None = None,
):
    """``y -> U(y)`` closure for the given configuration, vectorised like
    ``spectral_function``: a float for a float, an array for an array."""
    return lambda y: spectral_function(y, m, c, regime, s, stats=stats)


def find_roots(
    m: DimensionlessModel,
    c: CouplingConfig,
    regime: Regime,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    y_range: tuple[float, float] | None = None,
    stats: SigmaStats | None = None,
) -> list[ResonanceRecord]:
    """All roots of ``y - b - Delta_2(y)`` in the scan range, sorted by location.

    Roots are bracketed on a uniform scan (``spectrum._scan``) at step 0.01:
    ``y_range`` defaults to ``b +- 12`` and the scan holds
    ``max(round(span/0.01), 16) + 1`` energies, one vector ``sigma2`` call;
    in FULL these are ``build_grid``'s coarse points.
    A cell brackets a root when ``F`` changes sign across it or is exactly 0
    at its left end; such an exact zero is the root itself, and Brent
    bracketing refines the others, seeded with the scan's values at the cell
    ends (its scalar calls inside the cell agree with a vector call bit for
    bit).  A sign change in the first or last cell raises
    ``ScanRangeError``; a ``y_range`` that is not finite and increasing raises
    ``ValueError``.  Roots closer than 1e-5 are merged into one record
    with a degeneracy flag.  Each record is annotated with the value of the
    spectral function at the root, all roots in one vector call.  ``stats``
    accumulates the diagnostics of the ``sigma2`` energies this call
    evaluates.
    """
    ys, _, vals, cells = _scan(m, c, regime, s, y_range, _ROOT_STEP, stats)
    if len(cells) and (cells[0] == 0 or cells[-1] == len(ys) - 2):
        raise ScanRangeError(
            f"sign change at scan boundary of [{ys[0]}, {ys[-1]}]; widen the range"
        )

    def resfun(y):
        return float(y) - m.b - sigma2(float(y), m, c, regime, s, stats=stats).real

    roots = [
        ys[i]
        if vals[i] == 0.0
        else _brentq(resfun, ys[i], ys[i + 1], vals[i], vals[i + 1], xtol=_ROOT_TOL)
        for i in cells
    ]
    roots = np.unique(roots)  # an exact zero also ends the bracket before it
    if not roots.size:
        return []
    runs = np.split(roots, np.flatnonzero(np.diff(roots) >= _MERGE_TOL) + 1)
    y_rs = [float(np.mean(run)) for run in runs]
    heights = spectral_function(np.array(y_rs), m, c, regime, s, stats=stats).tolist()
    return [
        ResonanceRecord(y_r, "root", height, degenerate=run.size > 1)
        for y_r, height, run in zip(y_rs, heights, runs)
    ]


def find_peaks(
    grid: SpectralGrid,
    roots: list[ResonanceRecord] | None = None,
) -> list[ResonanceRecord]:
    """Local maxima of the gridded spectral function with parabolic refinement.

    Every local maximum is returned, however low; a caller that wants only
    the dominant peaks filters the list by height.  Each peak is paired with
    the nearest root when that root lies within one estimated FWHM of the
    peak; otherwise the peak stands alone.
    """
    y, u = grid.energies, grid.u_ff
    idx = np.nonzero((u[1:-1] > u[:-2]) & (u[1:-1] >= u[2:]))[0] + 1  # U rises into each, so U > 0
    records = []
    for i in idx:
        y0, y1, y2 = y[i - 1], y[i], y[i + 1]
        u0, u1, u2 = u[i - 1], u[i], u[i + 1]
        # parabola through the triple (nonuniform spacing)
        denom = (y0 - y1) * (y0 - y2) * (y1 - y2)
        aa = (y2 * (u1 - u0) + y1 * (u0 - u2) + y0 * (u2 - u1)) / denom
        bb = (y2**2 * (u0 - u1) + y1**2 * (u2 - u0) + y0**2 * (u1 - u2)) / denom
        if aa < 0:
            y_p = -bb / (2 * aa)
            if not (y0 < y_p < y2):
                y_p = y1
        else:
            y_p = y1
        cc = u1 - aa * y1**2 - bb * y1
        h = aa * y_p**2 + bb * y_p + cc if aa < 0 else u1
        rec = ResonanceRecord(y_r=float(y_p), kind="peak", height=float(max(h, u1)))
        if roots:
            nearest = min(roots, key=lambda r: abs(r.y_r - y_p))
            # pairing window: one local width, estimated from the grid
            g_p = float(np.interp(y_p, y, grid.gamma2))
            if abs(nearest.y_r - y_p) <= max(g_p, 1e-6):
                rec = replace(rec, root_ref=nearest.y_r)
        records.append(rec)
    return records


def fwhm(
    record: ResonanceRecord,
    u,
    s: QuadratureSettings = DEFAULT_SETTINGS,
) -> FwhmResult:
    """Full width at half maximum of a peak.

    On each flank the step from the peak doubles, from 1e-6, until ``U``
    falls below half height; Brent's method then locates the crossing inside
    the last step.  The steps of both flanks, out to 6 from the peak, go to
    ``u`` in one vector call, and Brent starts from the values it returned.
    So ``u`` maps an array of energies to an array of ``U`` and a float to a
    float, the same value for an energy either way, as ``spectral_callable``
    does; Brent's own calls are scalar.  When a flank never falls to half
    height within 6 of the peak (overlapping peaks), the attainable
    half-width is doubled and flagged incomplete.  ``s`` is not used.
    ``U(y_r)`` below half height raises ``NumericalError`` (under-resolved
    peak).
    """
    if record.height <= 0:
        raise ValueError("fwhm needs a peak with positive height")
    y_p, half = record.y_r, 0.5 * record.height
    # row 0 steps left of the peak, row 1 right: y_p -+ step, exactly
    ladder = y_p + np.multiply.outer([-1.0, 1.0], _FWHM_STEPS)
    rungs = np.asarray(u(ladder.ravel()), dtype=float).reshape(ladder.shape)

    def crossing(direction: int) -> float | None:
        # the first step below half height; solve between it and the one before
        ys, us = ladder[int(direction > 0)], rungs[int(direction > 0)]
        below = np.flatnonzero(us < half)
        if not below.size:
            return None
        k = below[0]
        prev, u_prev = (ys[k - 1], us[k - 1]) if k else (y_p, u(y_p))
        if prev == y_p and u_prev < half:
            raise NumericalError(
                f"peak at y = {y_p:.8g}: U = {u_prev:.6g} is below half its height "
                f"{record.height:.6g}; the grid under-resolves this peak"
            )
        inner, outer = (prev, u_prev - half), (ys[k], us[k] - half)
        (lo, f_lo), (hi, f_hi) = (inner, outer) if direction > 0 else (outer, inner)
        f = lambda y: u(y) - half
        return _brentq(f, lo, hi, f_lo, f_hi, rtol=_FWHM_RTOL, xtol=1e-14)

    left = crossing(-1)
    right = crossing(+1)
    if left is not None and right is not None:
        return FwhmResult(width=right - left)
    # overlap: report twice the attainable one-sided half width
    side = right - y_p if right is not None else (y_p - left if left is not None else None)
    if side is None:
        raise ValueError("half height not attained on either flank within the search span")
    return FwhmResult(width=2.0 * side, complete=False)


def sweep_coupling(
    m: DimensionlessModel,
    regime: Regime,
    l2_values,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    y_range: tuple[float, float] | None = None,
    stats: SigmaStats | None = None,
) -> SweepResult:
    """Root structure versus coupling strength, plus the crossover estimate.

    For every ``L_2`` the roots and their spectral-function values are
    collected (``L_1 = (2/3) L_2`` at full coupling).  The crossover is
    the smallest ``L_2`` whose root count exceeds one, refined by bisection
    over ``L_2`` to an interval of 1e-3.  Every ``find_roots`` call, the
    bisection's included, scans ``y_range`` and adds to ``stats``.
    """
    l2_values = tuple(float(v) for v in l2_values)
    if any(v <= 0 for v in l2_values):
        raise ValueError("coupling sweep values must be positive")

    def config(l2: float) -> CouplingConfig:
        if regime is Regime.STABLE:
            return CouplingConfig.stable_second_level(l2)
        return CouplingConfig.transmon_ratio(l2)

    records = []
    counts = []
    for l2 in l2_values:
        recs = find_roots(m, config(l2), regime, s, y_range=y_range, stats=stats)
        records.append(tuple(recs))
        counts.append(len(recs))

    crossover = None
    above = [i for i, n in enumerate(counts) if n > 1]
    if above:
        hi_i = above[0]
        hi = l2_values[hi_i]
        lo = max([l2 for l2, n in zip(l2_values[:hi_i], counts[:hi_i]) if n <= 1], default=None)
        if lo is None:
            crossover = hi
        else:
            while hi - lo > _CROSSOVER_TOL:
                mid = 0.5 * (lo + hi)
                roots = find_roots(m, config(mid), regime, s, y_range=y_range, stats=stats)
                if len(roots) > 1:
                    hi = mid
                else:
                    lo = mid
            crossover = 0.5 * (lo + hi)

    return SweepResult(
        l2_values=l2_values,
        records_per_l2=tuple(records),
        crossover_estimate=crossover,
    )
