"""Second-level self-energy and the spectral function of the third level.

Every regime goes through one complex evaluator, ``sigma2``, which returns
``Sigma_2(y) = Delta_2(y) - i Gamma_2(y)/2`` for a whole array of energies.
The Gaussian self-energy of a continuum of strength ``L`` is the Faddeeva
function ``w`` (``scipy.special.wofz``):

    -2i sqrt(pi) L w(x) = 4 L D(x) - 2i sqrt(pi) L e^{-x^2},

shift and half-width in one complex number (``D`` is the Dawson function).

``STABLE``
    The |g>-|e> coupling is off and ``Sigma_2`` is that form with ``L_2`` at
    ``x = y - b``, evaluated through ``dawsn`` and ``exp``.

``FULL``
    The |g>-|e> coupling dresses the intermediate level.  With
    ``d = y - b`` and the photon variable written as ``x = d - v`` (``v`` is
    the photon frequency measured from the second-transition centre),

        Sigma_2(y) = (2 L_2/sqrt(pi)) int dx e^{-(d - x)^2} K(x),
        K(x) = 1 / (x - Sigma_1(x)),   Sigma_1(x) = -2i sqrt(pi) L_1 w(x).

    The kernel ``K`` depends on ``L_1`` only, not on the energy.  Its narrow
    Lorentzian spikes sit at the fixed points of ``u = 4 L_1 D(u)``.  One
    Gauss-Kronrod node set per ``(L_1, tail_cutoff)`` resolves ``K``: unit
    panels over ``|x| <= 24 + tail_cutoff``, break points at the fixed
    points, and panels bisected until the embedded 10-point Gauss rule
    agrees with the 21-point Kronrod rule, or differs from it only by the
    rounding error of ``K``.  The set is built on first use and cached.
    ``Sigma_2`` at every energy is then one row sum of
    ``e^{-(d - x_j)^2} w_j K(x_j)``, evaluated in blocks.  Each energy's
    error estimate is the Kronrod-Gauss difference, summed in magnitude over
    panels, plus the rounding bound of ``K``.

    Energies whose estimate misses ``max(abs_tol, rel_tol |Sigma_2|)``, or
    that lie beyond ``|y - b| = 24``, fall back to adaptive ``scipy.quad``
    on the two real integrals (``_full_integrals``); a point that fails
    there too raises ``QuadratureError``.  That route also serves as the
    independent reference in the tests.

    Known limit: at ``L_2 >~ 20`` the outer spikes are narrower than double
    precision can resolve next to ``u`` (a near-real pole).  The energies
    the spike reaches then fall back, and ``quad`` raises or returns a value
    that can miss the spike's weight.  Subtracting the pole is the cure.

``WEAK``
    The FULL self-energy frozen at ``y = b``; the spectral function is then
    a plain Lorentzian with that constant.

In every regime the spectral function is

    U(y) = (1/2 pi) Gamma_2(y) / [(y - b - Delta_2(y))^2 + Gamma_2(y)^2/4].
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import legendre
from scipy import optimize, special

from .model import CouplingConfig, DimensionlessModel
from .quadrature import DEFAULT_SETTINGS, QuadratureSettings, _quad
from .self_energy import ShiftWidth

SQRT_PI = math.sqrt(math.pi)

_GAUSS_ORDER = 10  # Gauss points per panel; the Kronrod rule adds 11
_COVER = 24.0  # |y - b| covered by the FULL node set
_PANEL = 1.0  # widest panel: resolves the unit Gaussian e^{-(d - x)^2}
_PANEL_TOL = 1e-15  # per-panel Kronrod-Gauss difference, relative to int |K|
_BLOCK = 1 << 18  # matrix elements per evaluation block
_MAX_PANELS = 1 << 14  # bisection stops when this many panels are pending
_ROUNDOFF = 16 * np.finfo(float).eps


class DegeneratePointError(ArithmeticError):
    """Width underflowed to zero exactly at a resonance point."""


class Regime(enum.Enum):
    STABLE = "stable"
    WEAK = "weak"
    FULL = "full"


def regime_for(c: CouplingConfig) -> Regime:
    """Natural regime of a coupling configuration (never WEAK)."""
    return Regime.FULL if c.v1_enabled else Regime.STABLE


@dataclass
class SigmaStats:
    """Diagnostics accumulated over ``sigma2`` calls: energies evaluated,
    energies that fell back to per-point ``quad``, and the worst absolute
    error estimate of any returned ``Sigma_2`` value."""

    energies: int = 0
    fallbacks: int = 0
    max_error: float = 0.0

    def record(self, errors, fallbacks: int) -> None:
        errors = np.asarray(errors, dtype=float)
        self.energies += errors.size
        self.fallbacks += int(fallbacks)
        if errors.size:
            self.max_error = max(self.max_error, float(errors.max()))


def _stable_sigma2(d: np.ndarray, l2: float) -> np.ndarray:
    """``4 L_2 D(d) - 2i sqrt(pi) L_2 e^{-d^2}`` from ``dawsn`` and ``exp``.

    The Faddeeva form ``-2i sqrt(pi) L_2 w(d)`` agrees to ~1e-16, but the
    parabolic peak heights of ``find_peaks`` on the narrow stable doublet
    move by 4e-4 relative with that last digit, so the stable values keep
    this arithmetic.
    """
    value = np.empty(d.shape, dtype=complex)
    value.real = 4.0 * l2 * special.dawsn(d)
    value.imag = -2.0 * SQRT_PI * l2 * np.exp(-(d**2))
    return value


@functools.lru_cache(maxsize=64)
def _resonant_offsets(l1: float) -> tuple[float, ...]:
    """Fixed points of ``u = 4 l1 D(u)``: offsets where the inner denominator
    of the full-coupling integrand is resonant.  ``u = 0`` always; a symmetric
    pair exists once ``4 l1 > 1``."""
    if l1 <= 0:
        return (0.0,)
    if 4.0 * l1 <= 1.0:
        return (0.0,)
    f = lambda u: u - 4.0 * l1 * special.dawsn(u)
    hi = 2.0
    while f(hi) < 0:
        hi *= 2.0
    u_r = optimize.brentq(f, 1e-9, hi, xtol=1e-13)
    return (-u_r, 0.0, u_r)


# ---------------------------------------------------------------------------
# FULL coupling: fixed-kernel Gauss-Kronrod sum


@functools.lru_cache(maxsize=1)
def _kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] and the Kronrod and embedded Gauss weights (zero at
    the Kronrod-only nodes) of the (2n+1)-point Gauss-Kronrod rule.

    The added nodes are the roots of the Stieltjes polynomial, which is
    orthogonal to every polynomial of degree <= n with respect to ``P_n``;
    the weights make the rule exact for degree <= 2n in the Legendre basis.
    """
    n = _GAUSS_ORDER
    xg, wg = legendre.leggauss(n)
    xq, wq = legendre.leggauss(3 * n + 3)
    basis = legendre.legvander(xq, n + 1).T
    gram = (basis[n] * wq * basis[: n + 1]) @ basis.T  # int P_n P_k P_j
    coef, *_ = np.linalg.lstsq(gram[:, : n + 1], -gram[:, n + 1], rcond=None)
    nodes = np.sort(np.concatenate([xg, legendre.legroots(np.append(coef, 1.0))]))
    nodes = 0.5 * (nodes - nodes[::-1])
    moments = np.zeros(2 * n + 1)
    moments[0] = 2.0
    wk = np.linalg.solve(legendre.legvander(nodes, 2 * n).T, moments)
    wk = 0.5 * (wk + wk[::-1])
    wgk = np.zeros_like(wk)
    wgk[1::2] = 0.5 * (wg + wg[::-1])
    return nodes, wk, wgk


def _kernel(x, l1: float):
    """``K(x) = 1/(x - Sigma_1(x))``, the dressed intermediate-level
    propagator, and a bound on its rounding error: the denominator carries
    an absolute error of a few ulps of ``|x| + |Sigma_1|``, which near a
    narrow spike is a large part of its size."""
    sigma1 = -2j * SQRT_PI * l1 * special.wofz(x)
    k = 1.0 / (x - sigma1)
    return k, _ROUNDOFF * (np.abs(x) + np.abs(sigma1)) * np.abs(k) ** 2


@dataclass(frozen=True)
class _NodeSet:
    """Nodes ``x`` (ascending, symmetric about 0, ``panels`` groups of 21)
    with the kernel folded into five real weight rows: ``w_Kronrod K`` (real,
    imaginary), ``(w_Kronrod - w_Gauss) K`` (real, imaginary) and the
    rounding bound ``w_Kronrod |dK|``."""

    x: np.ndarray
    weights: np.ndarray
    panels: int


@functools.lru_cache(maxsize=64)
def _node_set(l1: float, tail_cutoff: float) -> _NodeSet:
    """Panels on ``[0, _COVER + tail_cutoff]``, bisected until each panel's
    Kronrod-Gauss difference is below ``_PANEL_TOL`` times ``int |K|`` or
    within the rounding error of ``K``, then mirrored with
    ``K(-x) = -conj K(x)``.  A panel that cannot get there (a spike narrower
    than the spacing of doubles) keeps its difference, which then shows in
    the error estimate of every energy it reaches."""
    t, wk, wg = _kronrod_rule()
    n_unit = int(math.ceil((_COVER + tail_cutoff) / _PANEL))
    breaks = np.union1d(
        np.arange(n_unit + 1) * _PANEL, [u for u in _resonant_offsets(l1) if u >= 0]
    )
    lo, hi = breaks[:-1], breaks[1:]
    done: list[tuple[np.ndarray, ...]] = []
    scale = None
    while lo.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * t
        k, dk = _kernel(x, l1)
        diff = np.abs((half[:, None] * (wk - wg) * k).sum(axis=1))
        if scale is None:
            scale = float(np.abs((half[:, None] * wk * k).sum(axis=1)).sum())
        noise = (half[:, None] * np.abs(wk - wg) * dk).sum(axis=1)
        ok = (
            (diff <= np.maximum(_PANEL_TOL * scale, noise))
            | (half <= _ROUNDOFF * np.maximum(mid, 1.0))
            | (lo.size > _MAX_PANELS)
        )
        done.append((x[ok], half[ok], k[ok], dk[ok]))
        lo, hi = np.concatenate([lo[~ok], mid[~ok]]), np.concatenate([mid[~ok], hi[~ok]])
    x, half, k, dk = (np.concatenate(parts) for parts in zip(*done))
    order = np.argsort(x[:, 0])
    x, half, k, dk = x[order], half[order, None], k[order], dk[order]

    def mirrored(w):
        return np.concatenate([-np.conj(w.ravel()[::-1]), w.ravel()])

    kronrod, diff = mirrored(half * wk * k), mirrored(half * (wk - wg) * k)
    rounding = half * wk * dk
    return _NodeSet(
        x=np.concatenate([-x.ravel()[::-1], x.ravel()]),
        weights=np.stack(
            [
                kronrod.real,
                kronrod.imag,
                diff.real,
                diff.imag,
                np.concatenate([rounding.ravel()[::-1], rounding.ravel()]),
            ]
        ),
        panels=2 * len(x),
    )


def _full_integrals(d: float, c: CouplingConfig, s: QuadratureSettings):
    """Raw shift and width integrals (without prefactors) for FULL coupling at
    detuning ``d = y - b``, by adaptive ``quad``, with their error estimates.

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

    span = s.tail_cutoff
    points = [d - u for u in _resonant_offsets(l1)]
    shift, shift_err = _quad(shift_integrand, -span, span, s, points=points)
    width, width_err = _quad(width_integrand, -span, span, s, points=points)
    return shift, width, shift_err, width_err


def _full_sigma2_quad(d: float, c: CouplingConfig, s: QuadratureSettings) -> tuple[complex, float]:
    """Per-point fallback: ``Sigma_2`` and its error estimate from ``quad``.
    ``abs_tol`` bounds the error of ``Sigma_2``, so the raw integrals get it
    divided by the larger of their prefactors."""
    shift_pref, width_pref = 2.0 * c.l2 / SQRT_PI, 4.0 * c.l1 * c.l2
    raw = replace(s, abs_tol=s.abs_tol / max(shift_pref, width_pref))
    shift, width, shift_err, width_err = _full_integrals(d, c, raw)
    value = complex(shift_pref * shift, -width_pref * width)
    return value, math.hypot(shift_pref * shift_err, width_pref * width_err)


def _full_sigma2(d: np.ndarray, c: CouplingConfig, s: QuadratureSettings):
    """FULL ``Sigma_2`` at detunings ``d``, their error estimates, and the
    number of points that fell back to ``quad``."""
    if c.l1 == 0.0 or c.l2 == 0.0:
        # L1 = 0 is the exact limit K(x) = 1/(x + i0): the stable form
        return _stable_sigma2(d, c.l2), np.zeros(d.shape), 0
    nodes = _node_set(c.l1, s.tail_cutoff)
    value = np.empty(d.shape, dtype=complex)
    error = np.empty(d.shape)
    rows = max(1, _BLOCK // nodes.x.size)
    for i in range(0, d.size, rows):
        g = np.exp(-np.square(d[i : i + rows, None] - nodes.x))
        re, im, d_re, d_im, rounding = (g * w for w in nodes.weights)
        block = slice(i, i + rows)
        value[block] = re.sum(axis=1) + 1j * im.sum(axis=1)
        panels = (len(g), nodes.panels, -1)
        d_re, d_im = d_re.reshape(panels).sum(axis=2), d_im.reshape(panels).sum(axis=2)
        error[block] = np.hypot(d_re, d_im).sum(axis=1) + rounding.sum(axis=1)
    pref = 2.0 * c.l2 / SQRT_PI
    value *= pref
    error *= pref
    passed = error <= np.maximum(s.abs_tol, s.rel_tol * np.abs(value))
    bad = ~(passed & (np.abs(d) <= _COVER))
    for i in np.flatnonzero(bad):
        value[i], error[i] = _full_sigma2_quad(float(d[i]), c, s)
    return value, error, int(bad.sum())


def sigma2(
    y,
    m: DimensionlessModel,
    c: CouplingConfig,
    regime: Regime,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    stats: SigmaStats | None = None,
):
    """Second-level self-energy ``Delta_2(y) - i Gamma_2(y)/2``.

    Vectorised over ``y``; a scalar call returns exactly the value the same
    energy gets inside an array.  ``stats``, when given, accumulates the
    error estimates and fallback count.  Raises ``QuadratureError`` when a
    FULL point fails both the Gauss-Kronrod sum and the ``quad`` fallback.
    """
    if regime is not Regime.STABLE and not c.v1_enabled:
        raise ValueError(f"{regime.value} self-energy needs v1_enabled=True")
    d = np.atleast_1d(np.asarray(y, dtype=float)) - m.b
    fallbacks = 0
    if regime is Regime.STABLE:
        value, error = _stable_sigma2(d, c.l2), np.zeros(d.shape)
    elif regime is Regime.WEAK:
        const, err, fell_back = _full_sigma2(np.zeros(1), c, s)
        value, error = np.full(d.shape, const[0]), np.full(d.shape, err[0])
        fallbacks = fell_back * d.size
    else:
        value, error, fallbacks = _full_sigma2(d, c, s)
    if stats is not None:
        stats.record(error, fallbacks)
    return value if np.ndim(y) else complex(value[0])


def level2_shift_width(
    y: float, m: DimensionlessModel, c: CouplingConfig, s: QuadratureSettings = DEFAULT_SETTINGS
) -> ShiftWidth:
    """Second-level (shift, width) pair at energy ``y`` with full coupling."""
    value = sigma2(float(y), m, c, Regime.FULL, s)
    return ShiftWidth(shift=value.real, width=max(-2.0 * value.imag, 0.0))


def delta2_stable(y, m: DimensionlessModel, c: CouplingConfig):
    """Second-level shift with a stable intermediate level."""
    return _stable_sigma2(np.asarray(y, dtype=float) - m.b, c.l2).real


def gamma2_stable(y, m: DimensionlessModel, c: CouplingConfig):
    """Second-level width with a stable intermediate level."""
    return -2.0 * _stable_sigma2(np.asarray(y, dtype=float) - m.b, c.l2).imag


def delta2_full(
    y: float, m: DimensionlessModel, c: CouplingConfig, s: QuadratureSettings = DEFAULT_SETTINGS
) -> float:
    return level2_shift_width(y, m, c, s).shift


def gamma2_full(
    y: float, m: DimensionlessModel, c: CouplingConfig, s: QuadratureSettings = DEFAULT_SETTINGS
) -> float:
    return level2_shift_width(y, m, c, s).width


def shift_width_weak(
    m: DimensionlessModel, c: CouplingConfig, s: QuadratureSettings = DEFAULT_SETTINGS
) -> ShiftWidth:
    """Weak-coupling constants: the full self-energy frozen at ``y = b``."""
    return level2_shift_width(m.b, m, c, s)


# ---------------------------------------------------------------------------
# spectral function


def _lineshape(d: np.ndarray, value: np.ndarray):
    """Spectral function and width from detunings and ``Sigma_2`` values."""
    width = np.maximum(-2.0 * value.imag, 0.0)
    denom = (d - value.real) ** 2 + 0.25 * width**2
    if np.any((denom == 0.0) & (width == 0.0)):
        raise DegeneratePointError(
            "width underflowed to zero exactly at a resonance point; "
            "the spectral function is a delta distribution there"
        )
    return width / (2.0 * math.pi * denom), width


def spectral_function(
    y,
    m: DimensionlessModel,
    c: CouplingConfig,
    regime: Regime,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    stats: SigmaStats | None = None,
):
    """Dimensionless spectral function ``U(y) = U_ff(E) * delta``."""
    ys = np.atleast_1d(np.asarray(y, dtype=float))
    u, _ = _lineshape(ys - m.b, sigma2(ys, m, c, regime, s, stats=stats))
    return u if np.ndim(y) else float(u[0])


# ---------------------------------------------------------------------------
# adaptive grid

@dataclass(frozen=True)
class SpectralGrid:
    """Sampled spectral data over a strictly increasing energy grid.

    ``refinement_level`` is 0 for coarse-scan points and counts how many
    refinement passes have touched each point otherwise.  ``complete`` is
    False when the refinement budget was exhausted before all peaks were
    resolved.
    """

    energies: np.ndarray
    u_ff: np.ndarray
    gamma2: np.ndarray
    delta2: np.ndarray
    refinement_level: np.ndarray
    y_ref: float
    complete: bool = True

    def __post_init__(self):
        if np.any(np.diff(self.energies) <= 0):
            raise ValueError("energies must be strictly increasing")
        if np.any(self.u_ff < 0) or np.any(self.gamma2 < 0):
            raise ValueError("u_ff and gamma2 must be non-negative")


def _peak_width_estimate(y_p, width_p, slope):
    # FWHM of a locally Lorentzian peak when the shift is locally linear
    return max(width_p / max(abs(1.0 - slope), 1e-3), 1e-6)


def build_grid(
    m: DimensionlessModel,
    c: CouplingConfig,
    regime: Regime,
    y_range: tuple[float, float] | None = None,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    coarse_step: float | None = None,
    points_per_fwhm: int = 20,
    max_refined_peaks: int = 16,
    stats: SigmaStats | None = None,
) -> SpectralGrid:
    """Coarse scan plus local refinement around every resonance.

    Refinement centres are the sign changes of ``F(y) = y - b - Delta_2(y)``
    and the local maxima of the coarse spectral function.  Around each centre
    points are laid with spacing ``FWHM / points_per_fwhm`` in a linear core
    and geometric tails, so narrow peaks are resolved without a dense global
    grid.  The minimum local step is 1e-6.  ``stats`` accumulates the
    ``sigma2`` diagnostics.
    """

    def columns(ys):
        value = sigma2(ys, m, c, regime, s, stats=stats)
        u, width = _lineshape(ys - m.b, value)
        return u, width, value.real

    if y_range is None:
        y_range = (m.b - 12.0, m.b + 12.0)
    lo, hi = y_range
    if coarse_step is None:
        coarse_step = 0.01 if regime is Regime.FULL else 0.002
    n_coarse = max(int(round((hi - lo) / coarse_step)), 16) + 1
    ys = np.linspace(lo, hi, n_coarse)
    u, width, shift = columns(ys)

    # refinement centres: roots of the resonance function and local maxima of U
    resfun = ys - m.b - shift
    centers: list[float] = []
    sign_change = np.nonzero(np.diff(np.signbit(resfun)))[0]
    for i in sign_change:
        # secant estimate of the crossing inside the bracket
        f0, f1 = resfun[i], resfun[i + 1]
        centers.append(ys[i] + (ys[i + 1] - ys[i]) * f0 / (f0 - f1))
    local_max = np.nonzero((u[1:-1] > u[:-2]) & (u[1:-1] > u[2:]))[0] + 1
    centers.extend(ys[local_max])

    complete = True
    if len(centers) > max_refined_peaks:
        centers = sorted(centers, key=lambda yc: -np.interp(yc, ys, u))[:max_refined_peaks]
        complete = False

    new_points: list[np.ndarray] = []
    for y_c in centers:
        i = int(np.clip(np.searchsorted(ys, y_c), 1, len(ys) - 2))
        w_c = float(np.interp(y_c, ys, width))
        # local slope of the shift from the coarse grid
        slope = float((shift[i + 1] - shift[i - 1]) / (ys[i + 1] - ys[i - 1]))
        fw = _peak_width_estimate(y_c, w_c, slope)
        core = np.linspace(0.0, 6.0 * fw, 6 * points_per_fwhm + 1)[1:]
        outer_span = min(5.0, hi - y_c, y_c - lo)
        if outer_span > 6.0 * fw:
            tail = np.geomspace(6.0 * fw, outer_span, 140)[1:]
            offsets = np.concatenate([core, tail])
        else:
            offsets = core
        new_points.append(y_c + offsets)
        new_points.append(y_c - offsets)
        new_points.append(np.array([y_c]))

    if new_points:
        extra = np.concatenate(new_points)
        extra = extra[(extra > lo) & (extra < hi)]
        merged = np.union1d(ys, extra)
        # drop near-duplicates that would break strict monotonicity
        keep = np.concatenate([[True], np.diff(merged) > 1e-12])
        merged = merged[keep]
        is_old = np.isin(merged, ys)
        is_new = ~is_old
        u_m = np.empty_like(merged)
        w_m = np.empty_like(merged)
        d_m = np.empty_like(merged)
        src = np.searchsorted(ys, merged[is_old])
        u_m[is_old], w_m[is_old], d_m[is_old] = u[src], width[src], shift[src]
        if is_new.any():
            u_new, w_new, d_new = columns(merged[is_new])
            u_m[is_new], w_m[is_new], d_m[is_new] = u_new, w_new, d_new
        level = np.where(is_new, 1, 0)
        ys, u, width, shift = merged, u_m, w_m, d_m
    else:
        level = np.zeros(len(ys), dtype=int)

    return SpectralGrid(
        energies=ys,
        u_ff=np.maximum(u, 0.0),
        gamma2=np.maximum(width, 0.0),
        delta2=shift,
        refinement_level=np.asarray(level, dtype=int),
        y_ref=m.b,
        complete=complete,
    )
