"""Independent verification routes: adaptive and principal-value quadrature,
the one-energy-at-a-time FWHM flank search, the per-row table writer and
the fixed-step kernel-pole Newton.

``integrate_adaptive`` wraps ``scipy.integrate.quad`` with tolerance checking
and Gaussian tail truncation; ``pv_integrate`` takes the principal value of
an integrand with a simple pole by symmetric singularity subtraction.  The
closed-form self-energies (``spectrum._gaussian_form``, through the Dawson
function, PV int e^{-t^2} / (x - t) dt = 2 sqrt(pi) D(x)) and the FULL
trapezoid lattice sum are the package's only routes; these share no code
with them and are what the tests compare them against, to tight tolerance:
``delta1_pv`` for the first-level shift and ``_full_integrals`` for the FULL
second-level self-energy.  ``fwhm_sequential`` walks each flank of a peak
one scalar ``U`` call at a time and lets ``scipy.optimize.brentq`` evaluate
the bracket ends again, the search ``resonances.fwhm`` does with one vector
call; the tests hold the two to the same widths bit for bit.
``write_csv_rows`` and ``json_rows`` write a table one row at a time through
Python's ``"%.12g" %``, the contract the column-wise ``cli`` writer keeps
byte for byte.  ``kernel_pole_all_steps`` always takes ``_NEWTON_STEPS``
Newton steps, where ``spectrum._kernel_pole`` stops once an iterate repeats.
``scan_sigma2`` is ``spectrum._scan`` through one vector ``sigma2`` call in
every regime, where STABLE ``_scan`` reads ``D`` and ``e^{-d^2}`` from a
table shared across calls.  ``find_roots_scanned`` is
``resonances.find_roots`` with every coupling's scan ``scan_sigma2``,
``scipy.optimize.brentq`` on each bracket and the roots merged in arrays,
where ``find_roots`` merges in floats.  ``merge_union`` merges
``build_grid``'s coarse and refinement energies by ``np.union1d``,
``np.isin`` and ``np.searchsorted``, as ``spectrum._merge`` does by one sort.

This is a support module, not a test file: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import integrate, optimize, special

from transmon_decay.cli import _jnum
from transmon_decay.model import CouplingConfig, DimensionlessModel, NumericalError
from transmon_decay.resonances import (
    _FWHM_RTOL,
    _FWHM_SPAN,
    _MERGE_TOL,
    _ROOT_TOL,
    FwhmResult,
    ResonanceRecord,
    ScanRangeError,
)
from transmon_decay.spectrum import (
    _NEWTON_STEPS,
    _ROOT_STEP,
    DEFAULT_SETTINGS,
    SQRT_PI,
    QuadratureError,
    QuadratureSettings,
    _faddeeva,
    _root_cells,
    _scan_points,
    sigma2,
    spectral_function,
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


def _fixed_points(l1: float) -> tuple[float, ...]:
    """Zeros of ``x - 4 l1 D(x)`` with scipy's ``dawsn`` and ``brentq``: the
    break points of ``_full_integrals``, where its own integrand peaks.  The
    bracket and tolerance are those of ``spectrum._resonant_offsets``, whose
    ``D`` may put the outer zeros an ulp away."""
    if 4.0 * l1 <= 1.0:
        return (0.0,)
    u = optimize.brentq(lambda x: x - 4.0 * l1 * special.dawsn(x), 1e-9, 2.2 * l1, xtol=1e-13)
    return (-u, 0.0, u)


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

    points = [d - u for u in _fixed_points(l1)]
    shift, shift_err = _quad(shift_integrand, -_TAIL, _TAIL, s, points=points, limit=limit)
    width, width_err = _quad(width_integrand, -_TAIL, _TAIL, s, points=points, limit=limit)
    return shift, width, shift_err, width_err


def fwhm_sequential(record: ResonanceRecord, u) -> FwhmResult:
    """``resonances.fwhm`` with its flank search one scalar ``u(y)`` at a
    time: the step from the peak doubles, from 1e-6, until ``U`` falls below
    half height, and ``scipy.optimize.brentq`` solves inside the last step."""
    if record.height <= 0:
        raise ValueError("fwhm needs a peak with positive height")
    y_p, half = record.y_r, 0.5 * record.height

    def crossing(direction: int) -> float | None:
        # expand outward until below half height, then solve on the last step
        step = 1e-6
        prev = y_p
        while step <= _FWHM_SPAN:
            y_try = y_p + direction * step
            if u(y_try) < half:
                if prev == y_p and (u_p := u(y_p)) < half:
                    raise NumericalError(
                        f"peak at y = {y_p:.8g}: U = {u_p:.6g} is below half its height "
                        f"{record.height:.6g}; the grid under-resolves this peak"
                    )
                f = lambda y: u(y) - half
                lo, hi = (prev, y_try) if direction > 0 else (y_try, prev)
                return optimize.brentq(f, lo, hi, rtol=_FWHM_RTOL, xtol=1e-14)
            prev = y_try
            step *= 2.0
        return None

    left = crossing(-1)
    right = crossing(+1)
    if left is not None and right is not None:
        return FwhmResult(width=right - left)
    # overlap: report twice the attainable one-sided half width
    side = right - y_p if right is not None else (y_p - left if left is not None else None)
    if side is None:
        raise ValueError("half height not attained on either flank within the search span")
    return FwhmResult(width=2.0 * side, complete=False)


def _rows(columns):
    """Rows of Python floats from a table's columns."""
    return zip(*(np.asarray(column, dtype=np.float64).tolist() for column in columns))


def write_csv_rows(path, header: list[str], columns) -> str:
    """``cli._write_csv`` one row at a time: header line, then one line of
    ``%.12g`` fields per row; returns the sha256 of the bytes written."""
    fmt = ",".join(["%.12g"] * len(header))
    data = "\n".join([",".join(header), *(fmt % row for row in _rows(columns)), ""]).encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def json_rows(header: list[str], columns) -> list[dict]:
    """``cli._json_rows`` one value at a time, through ``cli._jnum``."""
    return [{k: _jnum(v) for k, v in zip(header, row)} for row in _rows(columns)]


def kernel_pole_all_steps(l1: float, u: float) -> tuple[complex, complex] | None:
    """``spectrum._kernel_pole`` with all ``_NEWTON_STEPS`` steps taken."""
    z = complex(u)
    for _ in range(_NEWTON_STEPS):
        w = _faddeeva(z)
        dh = 1.0 - 4.0 * l1 - 4j * SQRT_PI * l1 * z * w
        step = (z + 2j * SQRT_PI * l1 * w) / dh
        z -= step
    z = complex(z.real, min(z.imag, -1e-250))
    return (z, 1.0 / dh) if abs(step) <= 1e-8 * abs(z) else None


def scan_sigma2(m, c, regime, s, y_range, step, stats):
    """``spectrum._scan``'s energies, ``Sigma_2``, ``F`` and root cells from
    one vector ``sigma2`` call."""
    ys = np.linspace(*_scan_points(m, regime, y_range, step))
    value = sigma2(ys, m, c, regime, s, stats=stats)
    f = ys - m.b - value.real
    return ys, value, f, _root_cells(f)


def find_roots_scanned(m, c, regime, s=DEFAULT_SETTINGS, *, y_range=None, stats=None):
    """``resonances.find_roots`` through one vector ``sigma2`` scan per
    call, ``scipy.optimize.brentq`` and array merging."""
    ys, _, vals, cells = scan_sigma2(m, c, regime, s, y_range, _ROOT_STEP, stats)
    if len(cells) and (cells[0] == 0 or cells[-1] == len(ys) - 2):
        raise ScanRangeError(f"sign change at scan boundary of [{ys[0]}, {ys[-1]}]")

    def resfun(y):
        return float(y) - m.b - sigma2(float(y), m, c, regime, s).real

    roots = [
        ys[i] if vals[i] == 0.0 else optimize.brentq(resfun, ys[i], ys[i + 1], xtol=_ROOT_TOL)
        for i in cells
    ]
    roots = np.unique(roots)
    if not roots.size:
        return []
    runs = np.split(roots, np.flatnonzero(np.diff(roots) >= _MERGE_TOL) + 1)
    y_rs = [float(np.mean(run)) for run in runs]
    heights = spectral_function(np.array(y_rs), m, c, regime, s).tolist()
    return [
        ResonanceRecord(y_r, "root", height, degenerate=run.size > 1)
        for y_r, height, run in zip(y_rs, heights, runs)
    ]


def merge_union(ys: np.ndarray, extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``spectrum._merge`` by set operations: the sorted union, points within
    1e-12 of the one before dropped, and each point's index in ``ys`` found
    by value, -1 for a point not in ``ys``."""
    merged = np.union1d(ys, extra[(extra > ys[0]) & (extra < ys[-1])])
    merged = merged[np.concatenate([[True], np.diff(merged) > 1e-12])]
    coarse = np.isin(merged, ys)
    return merged, np.where(coarse, np.searchsorted(ys, merged), -1)
