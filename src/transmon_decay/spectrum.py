"""Self-energies and the spectral function of the third level.

The self-energy of a Gaussian continuum of strength ``L`` is the Faddeeva
function ``w``:

    -2i sqrt(pi) L w(x) = 4 L D(x) - 2i sqrt(pi) L e^{-x^2},

shift and half-width in one complex number (``D`` is the Dawson function).
``_gaussian_sigma`` evaluates it, through ``dawsn`` and ``exp``, for every
route below.  ``sigma1`` is the first-level self-energy at ``x = y - w - a``.
Every regime of the second level goes through one complex evaluator,
``sigma2``, which returns ``Sigma_2(y) = Delta_2(y) - i Gamma_2(y)/2`` for a
whole array of energies.

``STABLE``
    The |g>-|e> coupling is off and ``Sigma_2`` is the Gaussian form with
    ``L_2`` at ``x = y - b``.

``FULL``
    The |g>-|e> coupling dresses the intermediate level.  With
    ``d = y - b`` and the photon variable written as ``x = d - v`` (``v`` is
    the photon frequency measured from the second-transition centre),

        Sigma_2(y) = (2 L_2/sqrt(pi)) int dx e^{-(d - x)^2} K(x),
        K(x) = 1 / (x - Sigma_1(x)),   Sigma_1(x) = -2i sqrt(pi) L_1 w(x).

    The kernel ``K`` depends on ``L_1`` only.  Its narrow Lorentzian spikes
    sit at the fixed points of ``u = 4 L_1 D(u)``, at a pole pair ``z``,
    ``-conj(z)`` that nears the real axis fast with ``L_1`` (``Im z`` is
    ``-1.2e-3`` at ``L_2 = 6``, ``-3.6e-11`` at ``L_2 = 20``).  One cached
    Gauss-Kronrod node set per ``(L_1, cover)`` serves every energy of the
    unit bins ``[k, k + 1)`` within the cover (24, else the next multiple of
    24) and reaches ``|x| <= cover + 10``: unit panels, break points at the
    fixed points, bisected until the embedded Gauss rule agrees with the
    Kronrod rule on ``K`` without its pole.  The weights keep ``K``; the
    rule's own error on the pole term is one constant ``c``, added back as
    ``c e^{-(d - z)^2}`` and its mirror.  ``Sigma_2`` is then one row sum of
    ``e^{-(d - x_j)^2} w_j K(x_j)`` plus that term, one BLAS ``ddot`` per
    energy.  The row sum runs over the whole panels within ``sqrt(746)`` of
    the energy's bin only: beyond that ``(d - x)^2 > 745.14`` and
    ``e^{-(d - x)^2}`` rounds to exactly 0.0 in doubles, so the columns left
    out add nothing to the full sum and only the order of summation changes.
    Inside the window, an entry with ``(d - x)^2 > _FLUSH`` (708.396), where
    ``exp`` would return a subnormal number or 0.0 at many times its usual
    cost, is stored as 0.0 without calling ``exp``; that moves ``Sigma_2`` by
    at most ``2.3e-308 sum |w_j|`` (``w_j`` the node's weight in the sum).
    Its error estimate is the Kronrod-Gauss difference, summed in magnitude
    over panels, plus the rounding bound of ``K``; an energy whose estimate
    misses ``max(abs_tol, rel_tol |Sigma_2|)`` (``QuadratureSettings``)
    raises ``QuadratureError``, and so does a node set with a non-finite
    weight.  The tests check it against adaptive ``quad`` on the two real
    integrals, a route kept in ``tests/reference_routes.py`` with the first
    level's PV quadrature.

    ``Sigma_2`` is entire in ``d``, so ``sigma2`` runs that node sum only to
    build a proxy (``_Proxy``, cached per coupling and tolerances by
    ``_proxy``): a piecewise Chebyshev interpolant of ``Re Sigma_2`` and
    ``log(-Im Sigma_2)`` on the unit bins of ``|d|``, 24 node-sum samples
    a piece, mirrored to ``d < 0`` by ``Sigma_2(-d) = -conj Sigma_2(d)``.
    Every FULL value is a Clenshaw sum on its piece, the same float
    operations for one energy as for an array.  A piece whose coefficient
    tail misses ``1e-2`` of the tolerance at its samples is bisected; its
    error estimate is its worst sample estimate plus its tail, and an energy
    whose estimate misses the tolerance raises ``QuadratureError`` too.

``WEAK``
    The FULL self-energy frozen at ``y = b``, the proxy's value there; the
    spectral function is then a plain Lorentzian with that constant.

In every regime the spectral function is

    U(y) = (1/2 pi) Gamma_2(y) / [(y - b - Delta_2(y))^2 + Gamma_2(y)^2/4].
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev, legendre
from scipy import special

from .model import SQRT_PI, CouplingConfig, DimensionlessModel, NumericalError

_GAUSS_ORDER = 10  # Gauss points per panel; the Kronrod rule adds 11
_COVER = 24.0  # |y - b| covered by one FULL node set; farther energies use multiples
_TAIL = 10.0  # node sets reach this far past their cover: e^{-(d - x)^2} < e^{-100} beyond
_PANEL = 1.0  # widest panel: resolves the unit Gaussian e^{-(d - x)^2}
_PANEL_TOL = 1e-15  # per-panel Kronrod-Gauss difference, relative to int |K|
_PANEL_NODES = 2 * _GAUSS_ORDER + 1
_REACH = math.sqrt(746.0)  # e^{-t^2} rounds to exactly 0.0 for t^2 > 745.14
_FLUSH = -math.log(np.finfo(float).tiny)  # 708.396: e^{-t^2} stored as 0.0 for t^2 beyond
_BLOCK = 1 << 15  # elements of each reused block buffer; 2^13 to 2^16 time alike, 2^17 up slower
_ROUNDOFF = 16 * np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal  # floor of -Im Sigma_2 under the proxy's log
_NEWTON_STEPS = 64  # complex Newton steps taken for the kernel pole (<= 45 needed)
_POINTS_PER_FWHM = 20  # grid spacing around a resonance: its FWHM / 20
_MAX_REFINED_PEAKS = 16  # refinement centres per grid; more mark it incomplete
_MAX_SCAN_POINTS = 10**6  # energies of one coarse scan (8 MB per float array)
_ROOT_STEP = 0.01  # find_roots' scan step in y, and the FULL grid's
_CHEB_POINTS = 24  # first-kind Chebyshev points per FULL proxy piece
_TAIL_COEFFS = 4  # trailing Chebyshev coefficients summed into a piece's tail
_NOISE_GAIN = 4.0  # 1 + Lebesgue constant of 24 points (3.0): the last coefficients are noise
_SPLIT = 1e-2  # a piece whose tail exceeds this share of the node-sum tolerance is bisected
_MIN_PIECE = 2.0**-6  # narrowest piece: a unit bin is bisected at most six times


class QuadratureError(NumericalError):
    """Integration failed to reach the requested tolerance.

    Carries the achieved absolute-error estimate in ``estimate``.
    """

    def __init__(self, message: str, estimate: float = math.nan):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class QuadratureSettings:
    """Error tolerances every FULL ``Sigma_2`` value must meet."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_SETTINGS = QuadratureSettings()


class Regime(enum.Enum):
    STABLE = "stable"
    WEAK = "weak"
    FULL = "full"


def regime_for(c: CouplingConfig) -> Regime:
    """Natural regime of a coupling configuration (never WEAK)."""
    return Regime.FULL if c.v1_enabled else Regime.STABLE


def _check_regime(c: CouplingConfig, regime: Regime) -> None:
    """The regime rule: STABLE exactly when ``v1_enabled`` is off."""
    if (regime is Regime.STABLE) == c.v1_enabled:
        flag = "false" if c.v1_enabled else "true"
        raise ValueError(f"regime {regime.value!r} requires v1_enabled = {flag}")


@dataclass
class SigmaStats:
    """Diagnostics accumulated over the ``sigma2`` calls a caller makes.

    ``energies`` counts the energies evaluated and ``max_error`` is the worst
    absolute error estimate of any returned ``Sigma_2`` value.  FULL and WEAK
    values come from the cached piecewise Chebyshev proxy of the node sum
    (``_Proxy``): a value's estimate is its piece's, the worst node-sum
    estimate at the piece's samples plus the piece's coefficient tail, and
    ``max_tail`` is the worst tail of the pieces that gave the values.
    ``samples`` counts the node-sum energies the pieces built during these
    calls were fitted to, and ``terms`` the node terms those samples summed
    (rows times window width); a piece an earlier call built is not counted
    again, and STABLE counts none."""

    energies: int = 0
    terms: int = 0
    max_error: float = 0.0
    samples: int = 0
    max_tail: float = 0.0

    def record(self, errors: np.ndarray, tail: float, samples: int, terms: int) -> None:
        self.energies += errors.size
        self.samples += samples
        self.terms += terms
        # a scalar skips the array reduction (~1 us), as in sigma2
        worst = float(errors[0]) if errors.size == 1 else float(errors.max(initial=0.0))
        self.max_error = max(self.max_error, worst)
        self.max_tail = max(self.max_tail, tail)


def _gaussian_sigma(x, strength: float) -> np.ndarray:
    """``4 L D(x) - 2i sqrt(pi) L e^{-x^2}``, the self-energy of a Gaussian
    continuum of strength ``L``, from ``dawsn`` and ``exp``.

    The Faddeeva form ``-2i sqrt(pi) L w(x)`` agrees to ~1e-16, but the
    parabolic peak heights of ``find_peaks`` on the narrow stable doublet
    move by 4e-4 relative with that last digit, so every route keeps this
    arithmetic.
    """
    x = np.asarray(x, dtype=float)
    value = np.empty(x.shape, dtype=complex)
    value.real = 4.0 * strength * special.dawsn(x)
    value.imag = -2.0 * SQRT_PI * strength * np.exp(-(x**2))
    return value


def sigma1(y, w, m: DimensionlessModel, c: CouplingConfig):
    """First-level self-energy ``Delta_1(y, w) - i Gamma_1(y, w)/2``.

    It depends on the energy ``y`` and the photon frequency ``w`` only
    through ``y - w``; ``Gamma_1 = 2 pi g_1^2(y - w)``.  The closed form
    extends the lower bound of the underlying PV integral to minus infinity,
    which at ``a >= 10`` is far below double precision (the PV quadrature
    of ``tests/reference_routes.py`` keeps the exact bound for checks).
    Zero when ``v1_enabled`` is off.
    """
    x = np.asarray(y, dtype=float) - np.asarray(w, dtype=float) - m.a
    if not c.v1_enabled:
        return np.zeros(x.shape, dtype=complex)[()]
    return _gaussian_sigma(x, c.l1)[()]


def _brentq(
    f,
    xa: float,
    xb: float,
    fa: float,
    fb: float,
    xtol: float = 2e-12,
    rtol: float = 4 * np.finfo(float).eps,
    maxiter: int = 100,
) -> float:
    """Root of the scalar ``f`` bracketed by ``[xa, xb]``, by Brent's method
    (Brent 1973, *Algorithms for Minimization Without Derivatives*, ch. 4).

    ``fa`` and ``fb`` are ``f(xa)`` and ``f(xb)``, which every caller has
    already computed; ``f`` is called only at the iterates inside the bracket.
    A line-for-line port of scipy's ``brentq`` (``Zeros/brentq.c``): the same
    iterates, sign test, tolerance ``(xtol + rtol |x|)/2`` and step rules, so
    it returns ``scipy.optimize.brentq``'s root bit for bit after scipy's two
    end evaluations.  That exactness is a contract until the stable-doublet
    FWHM reference is refreshed (ROADMAP 5(b)): ``fwhm`` places each flank
    only to its ``rtol``, and another solver would stop elsewhere inside that
    bracket.  Raises ``ValueError`` when ``fa``, ``fb`` or ``f`` is NaN or the
    bracket has no sign change, and ``RuntimeError`` after ``maxiter``
    iterations without convergence.
    """

    def checked(x: float, fx) -> float:
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return float(fx)

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = checked(xpre, fa), checked(xcur, fb)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = checked(xcur, f(xcur))
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur!r}")


def _resonant_offsets(l1: float) -> tuple[float, ...]:
    """Fixed points of ``u = 4 l1 D(u)``: offsets where the inner denominator
    of the full-coupling integrand is resonant.  ``u = 0`` always; a symmetric
    pair exists once ``4 l1 > 1``, below ``2.2 l1`` since ``D <= 0.541``."""
    if 4.0 * l1 <= 1.0:
        return (0.0,)
    f = lambda u: u - 4.0 * l1 * special.dawsn(u)
    ends = np.array([1e-9, 2.2 * l1])
    u_r = _brentq(f, *ends, *f(ends), xtol=1e-13)
    return (-u_r, 0.0, u_r)


def _faddeeva(z: complex) -> complex:
    """``w(z)``; within 1e-5 of the real axis, where ``wofz`` is off by up to
    ~100 ulps, from its Taylor series about ``Re z`` to second order."""
    if abs(z.imag) > 1e-5:
        return special.wofz(z)
    w0 = special.wofz(z.real)
    w1 = 2j / SQRT_PI - 2.0 * z.real * w0
    return w0 + 1j * z.imag * w1 + z.imag**2 * (w0 + z.real * w1)


def _kernel_pole(l1: float, u: float) -> tuple[complex, complex] | None:
    """Pole ``z`` of ``K`` next to the fixed point ``u > 0`` and its residue
    ``r = 1/h'(z)`` (the mirror pole ``-conj(z)`` has ``conj(r)``), by
    complex Newton on ``h(x) = x - Sigma_1(x)`` from ``u``, all steps taken
    (converged iterates move only within the rounding noise of ``h``).  None
    without fixed points (``u = 0``), or if Newton has not settled (only
    within ~1e-12 of ``4 l1 = 1``, where ``Im z = -0.36``)."""
    z = complex(u)
    if z == 0.0:
        return None
    for _ in range(_NEWTON_STEPS):
        w = _faddeeva(z)
        dh = 1.0 - 4.0 * l1 - 4j * SQRT_PI * l1 * z * w  # w' = 2i/sqrt(pi) - 2 z w
        step = (z + 2j * SQRT_PI * l1 * w) / dh
        z -= step
    z = complex(z.real, min(z.imag, -1e-250))  # from L2 ~ 440 on, Im z would underflow in c
    return (z, 1.0 / dh) if abs(step) <= 1e-8 * abs(z) else None


# ---------------------------------------------------------------------------
# FULL coupling: fixed-kernel Gauss-Kronrod sum


@functools.lru_cache(maxsize=1)
def _kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] and the Kronrod and embedded Gauss weights (zero at
    the Kronrod-only nodes) of the (2n+1)-point Gauss-Kronrod rule.

    The added nodes are the roots of the Stieltjes polynomial, which is
    orthogonal to every polynomial of degree <= n with respect to ``P_n``;
    the weights make the rule exact for degree <= 2n in the Legendre basis.
    The arrays are cached, so they are read-only.
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
    for array in (nodes, wk, wgk):
        array.flags.writeable = False
    return nodes, wk, wgk


def _kernel(x, l1: float):
    """``K(x) = 1/(x - Sigma_1(x))``, the dressed intermediate-level
    propagator, and a bound on its rounding error: the denominator carries
    an absolute error of a few ulps of ``|x| + |Sigma_1|``, which near a
    narrow spike is a large part of its size."""
    sigma1 = _gaussian_sigma(x, l1)
    k = 1.0 / (x - sigma1)
    return k, _ROUNDOFF * (np.abs(x) + np.abs(sigma1)) * np.abs(k) ** 2


@dataclass(frozen=True)
class _NodeSet:
    """Nodes ``x`` (ascending, symmetric about 0, in panels of 21) and five
    real weight rows: ``w_Kronrod K`` and ``(w_Kronrod - w_Gauss) S`` (real,
    imaginary) and the rounding bound ``w_Kronrod |dK|``.  ``pole`` is ``z``
    and ``correction`` is ``c``, both as in ``_node_set``."""

    x: np.ndarray
    weights: np.ndarray
    pole: complex
    correction: complex


@functools.lru_cache(maxsize=64)
def _node_set(l1: float, cover: float) -> _NodeSet:
    """Panels on ``[0, X]``, ``X = cover + _TAIL``, bisected until the
    Kronrod-Gauss difference of ``S = K - r/(x - z)`` is below ``_PANEL_TOL``
    times ``int |K|`` or within the rounding error of ``K``, then mirrored
    with ``K(-x) = -conj K(x)``.  The weights keep ``K`` (full relative
    precision in the tails of ``Im Sigma_2``); the pole term, whose spike can
    be narrower than the spacing of doubles, enters as the rule's error on
    it, ``c = r [log((X - z)/(-z)) - sum_j w_j/(x_j - z)]``.  A non-finite
    weight raises ``QuadratureError``: summed over every column it would make
    each energy NaN, but the window of ``_full_sigma2`` can leave it out.
    The set is cached, so its arrays are read-only."""
    t, wk, wg = _kronrod_rule()
    n_unit = int(math.ceil((cover + _TAIL) / _PANEL))
    u, unit = _resonant_offsets(l1)[-1], np.arange(n_unit + 1) * _PANEL
    # panels next to u are at least half a unit wide: no node where dK peaks
    near = (unit > 0) & (np.abs(unit - u) < 0.5 * _PANEL)
    breaks = np.union1d(np.where(near, u + np.copysign(0.5 * _PANEL, unit - u), unit), [u])
    z, r = _kernel_pole(l1, u) or (0j, 0j)
    lo, hi = breaks[:-1], breaks[1:]
    done: list[tuple[np.ndarray, ...]] = []
    scale = None
    while lo.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * t
        k, dk = _kernel(x, l1)
        smooth = k - r / (x - z)
        diff = np.abs((half[:, None] * (wk - wg) * smooth).sum(axis=1))
        if scale is None:
            scale = float(np.abs((half[:, None] * wk * k).sum(axis=1)).sum())
        noise = (half[:, None] * np.abs(wk - wg) * dk).sum(axis=1)
        ok = diff <= np.maximum(_PANEL_TOL * scale, noise)
        done.append((x[ok], half[ok], k[ok], smooth[ok], dk[ok]))
        lo, hi = np.concatenate([lo[~ok], mid[~ok]]), np.concatenate([mid[~ok], hi[~ok]])
    x, half, k, smooth, dk = (np.concatenate(parts) for parts in zip(*done))
    order = np.argsort(x[:, 0])
    x, half, k, smooth, dk = x[order], half[order, None], k[order], smooth[order], dk[order]
    correction = r * (np.log(1.0 - breaks[-1] / z) - np.sum(half * wk / (x - z))) if r else 0j

    def mirrored(w):
        return np.concatenate([-np.conj(w.ravel()[::-1]), w.ravel()])

    kronrod, diff = mirrored(half * wk * k), mirrored(half * (wk - wg) * smooth)
    rounding = (half * wk * dk).ravel()
    rounding = np.concatenate([rounding[::-1], rounding])
    weights = np.stack([kronrod.real, kronrod.imag, diff.real, diff.imag, rounding])
    if not np.isfinite(weights).all():
        raise QuadratureError(f"FULL node set for L1 = {l1:.6g}: non-finite node weight")
    x = np.concatenate([-x.ravel()[::-1], x.ravel()])
    x.flags.writeable = weights.flags.writeable = False
    return _NodeSet(x=x, weights=weights, pole=z, correction=complex(correction))


def _window(x: np.ndarray, k: float) -> tuple[int, int]:
    """Columns ``[lo, hi)`` of the whole panels of nodes ``x`` that come
    within ``_REACH`` of the bin ``[k, k + 1)``; every node outside gives
    ``e^{-(d - x)^2} == 0.0`` for every ``d`` in the bin."""
    lo = np.searchsorted(x[_PANEL_NODES - 1 :: _PANEL_NODES], k - _REACH)
    hi = np.searchsorted(x[::_PANEL_NODES], k + 1.0 + _REACH, side="right")
    return int(lo) * _PANEL_NODES, int(hi) * _PANEL_NODES


def _full_sigma2(d: np.ndarray, c: CouplingConfig, s: QuadratureSettings):
    """FULL ``Sigma_2`` at detunings ``d``, their error estimates and the
    number of node terms summed.

    Energies are grouped by the unit bin ``k = floor(d)``.  The bin picks the
    node set (cover ``24 ceil(max(-k, k + 1)/24)``) and the window of whole
    panels within ``_REACH`` of ``[k, k + 1)``.  Every column left out is
    ``e^{-(d - x)^2} = 0.0`` exactly in doubles, so the sums differ from the
    full row sums only in the order of summation, besides the entries below
    the smallest normal double that are stored as 0.0.

    Rows of ``e^{-(d - x)^2}`` are filled in blocks of up to ``_BLOCK``
    elements.  The three row sums (Re and Im of ``w_K K`` and the rounding
    bound) are ``np.vecdot``, one ``ddot`` of a row with a contiguous weight
    row each, whose order of summation depends on the window's width alone;
    a matrix product (``@``, ``gemv``, ``gemm``) would change it with the
    number of rows.  The two panel sums of the Kronrod-Gauss difference keep
    ``ndarray.sum`` over each panel.  So each energy's value and estimate
    depend on its own ``d`` alone: a scalar call is bit-identical to the
    same energy inside any array, in any block.
    """
    if c.l1 == 0.0 or c.l2 == 0.0:
        # L1 = 0 is the exact limit K(x) = 1/(x + i0): the stable form
        return _gaussian_sigma(d, c.l2), np.zeros(d.shape), 0
    value = np.empty(d.shape, dtype=complex)
    error = np.empty(d.shape)
    terms = 0
    bins = np.floor(d)
    order = np.argsort(bins, kind="stable")
    bins = bins[order]
    bounds = [0, *(np.flatnonzero(bins[1:] != bins[:-1]) + 1).tolist(), d.size]
    for first, end in zip(bounds[:-1], bounds[1:]):
        at, k = order[first:end], float(bins[first])
        nodes = _node_set(c.l1, _COVER * math.ceil(max(-k, k + 1.0) / _COVER))
        lo, hi = _window(nodes.x, k)
        x, weights = nodes.x[lo:hi], nodes.weights[:, lo:hi]
        rows = max(1, _BLOCK // x.size)
        g = np.empty((min(rows, at.size), x.size))  # e^{-(d - x)^2}
        t = np.empty_like(g)  # g times one error weight row, for the panel sums
        keep = np.empty(g.shape, dtype=bool)  # entries not flushed: (d - x)^2 <= _FLUSH
        for start in range(0, at.size, rows):
            block = at[start : start + rows]
            gb, tb, kb = g[: block.size], t[: block.size], keep[: block.size]
            np.subtract(d[block, None], x, out=gb)
            np.square(gb, out=gb)
            np.negative(gb, out=gb)
            np.greater_equal(gb, -_FLUSH, out=kb)
            np.exp(gb, out=gb, where=kb)
            np.putmask(gb, ~kb, 0.0)
            # one ddot per row and weight row, whatever the number of rows
            re, im = np.vecdot(gb[:, None, :], weights[:2]).T
            value[block] = re + 1j * im
            panels = (block.size, -1, _PANEL_NODES)
            d_re, d_im = (
                np.multiply(gb, w, out=tb).reshape(panels).sum(axis=2) for w in weights[2:4]
            )
            error[block] = np.hypot(d_re, d_im).sum(axis=1) + np.vecdot(gb, weights[4])
        terms += at.size * x.size
        c_z, z = nodes.correction, nodes.pole
        mirror = np.conj(c_z) * np.exp(-np.square(d[at] + np.conj(z)))  # analytic in d
        value[at] += c_z * np.exp(-np.square(d[at] - z)) - mirror
    pref = 2.0 * c.l2 / SQRT_PI
    value, error = pref * value, pref * error
    _check_tolerance(d, value, error, s)
    return value, error, terms


def _missed(d: float, error: float) -> QuadratureError:
    message = f"FULL self-energy at y - b = {d:.6g}: error estimate {error:.3g}"
    return QuadratureError(message + " misses the tolerance", estimate=float(error))


def _check_tolerance(d: np.ndarray, value: np.ndarray, error: np.ndarray, s: QuadratureSettings):
    """Raise ``QuadratureError`` at the worst energy whose estimate misses
    ``max(abs_tol, rel_tol |Sigma_2|)``; a NaN estimate misses too."""
    missed = ~(error <= np.maximum(s.abs_tol, s.rel_tol * np.abs(value)))
    if missed.any():
        i = np.argmax(np.where(missed, error, -1.0))
        raise _missed(d[i], error[i])


# ---------------------------------------------------------------------------
# FULL coupling: piecewise Chebyshev proxy of the node sum


@functools.lru_cache(maxsize=1)
def _chebyshev() -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` first-kind Chebyshev points ``cos(pi (j + 1/2)/n)`` on
    [-1, 1], made exactly symmetric, and the matrix ``(2/n) T_k(t_j)`` (row
    ``k = 0`` halved) that maps values at them to the Chebyshev coefficients
    of their interpolant (discrete orthogonality of ``T_k`` at the points).
    The arrays are cached, so they are read-only."""
    n = _CHEB_POINTS
    points = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    points = 0.5 * (points - points[::-1])
    basis = chebyshev.chebvander(points, n - 1).T * (2.0 / n)
    basis[0] *= 0.5
    points.flags.writeable = basis.flags.writeable = False
    return points, basis


def _clenshaw(t, coef):
    """``sum_k coef[k] T_k(t)`` by Clenshaw's recurrence.  Written once for a
    float ``t`` with a tuple of coefficients and for arrays (``coef[k]`` one
    per energy), so a scalar call runs the same IEEE operations, in the same
    order, as each element of a vector call."""
    t2, b1, b2 = 2.0 * t, 0.0, 0.0
    for a in coef[:0:-1]:
        b1, b2 = t2 * b1 - b2 + a, b1
    return t * b1 - b2 + coef[0]


class _Proxy:
    """Piecewise Chebyshev interpolant of the FULL node sum ``_full_sigma2``
    for one coupling and one tolerance.

    Pieces are the unit bins ``[k, k + 1)``, ``k >= 0``, of ``d = y - b``
    that the node sum groups its energies by, built when an energy first
    falls in them; ``d < 0`` reads the mirror image ``-conj Sigma_2(-d)``,
    so the proxy is exactly symmetric about ``b`` (the node sum is, to its
    last digits) and samples half the bins.  A piece interpolates
    ``Re Sigma_2`` and ``log(-Im Sigma_2)`` at ``_CHEB_POINTS`` Chebyshev
    points of one vector ``_full_sigma2`` call, whose tolerance check covers
    every sample; ``-Im`` is floored at the smallest subnormal, where it
    underflows to 0.0 (from ``|y - b| ~ 39`` on), so ``Im <= 0`` holds
    everywhere.  Its tail is ``_NOISE_GAIN``
    times the sum of the last ``_TAIL_COEFFS`` coefficient magnitudes, the
    log's turned into ``Im``'s by ``max |Im| expm1``: once a piece resolves
    its function those coefficients are the rounding noise of the samples,
    which the interpolant carries with the Lebesgue constant's gain and the
    node sum adds again at the energy.  A piece whose tail exceeds
    ``_SPLIT`` times the smallest tolerance at its samples is bisected,
    down to ``_MIN_PIECE``.  A piece's error estimate is its worst sample
    estimate plus its tail."""

    def __init__(self, c: CouplingConfig, s: QuadratureSettings):
        self.c, self.s = c, s
        self.bins: set[float] = set()
        self.lefts: list[float] = []  # ascending left ends of the pieces
        # (mid, 2/width, Re coefficients, log(-Im) coefficients, estimate, tail)
        self.pieces: list[tuple] = []
        self.table: tuple | None = None  # the pieces as arrays, for vector calls

    def build(self, bins) -> tuple[int, int]:
        """Build every unit bin ``[k, k + 1)`` of ``bins`` (``k >= 0``) not
        built yet; returns the node-sum samples and node terms that took.
        Pieces are kept only once every bin is built, so a
        ``QuadratureError`` leaves the proxy as it was."""
        todo = sorted({float(k) for k in bins} - self.bins)
        if not todo:
            return 0, 0
        points, basis = _chebyshev()
        lo, half = np.array(todo), np.full(len(todo), 0.5)
        new, samples, terms = [], 0, 0
        while lo.size:
            mid = lo + half
            d = (mid[:, None] + half[:, None] * points).ravel()
            value, error, n_terms = _full_sigma2(d, self.c, self.s)
            samples, terms = samples + d.size, terms + n_terms
            value, error = value.reshape(lo.size, -1), error.reshape(lo.size, -1)
            neg_im = np.maximum(-value.imag, _TINY)
            # one ddot per piece and coefficient: a piece's fit does not
            # depend on the pieces built with it
            re_coef = np.vecdot(value.real[:, None, :], basis)
            im_coef = np.vecdot(np.log(neg_im)[:, None, :], basis)
            re_tail, log_tail = (abs(a[:, -_TAIL_COEFFS:]).sum(axis=1) for a in (re_coef, im_coef))
            with np.errstate(over="ignore"):  # an infinite tail splits the piece
                im_tail = neg_im.max(axis=1) * np.expm1(_NOISE_GAIN * log_tail)
            tail = _NOISE_GAIN * re_tail + im_tail
            tol = np.maximum(self.s.abs_tol, self.s.rel_tol * np.abs(value)).min(axis=1)
            split = (tail > _SPLIT * tol) & (half > 0.5 * _MIN_PIECE)
            estimate = error.max(axis=1) + tail
            for i in np.flatnonzero(~split):
                piece = (float(mid[i]), 1.0 / half[i], tuple(re_coef[i].tolist()))
                piece += (tuple(im_coef[i].tolist()), float(estimate[i]), float(tail[i]))
                new.append((float(lo[i]), piece))
            lo, half = np.concatenate([lo[split], mid[split]]), np.tile(0.5 * half[split], 2)
        pieces = sorted([*zip(self.lefts, self.pieces), *new], key=lambda p: p[0])
        self.lefts, self.pieces = [p[0] for p in pieces], [p[1] for p in pieces]
        self.bins.update(todo)
        self.table = None
        return samples, terms

    def scalar(self, d: float) -> tuple[complex, float, float]:
        """``Sigma_2``, its estimate and its piece's tail at ``d`` (the bin
        of ``|d|`` built)."""
        x = abs(d)
        mid, scale, re, im, estimate, tail = self.pieces[bisect.bisect_right(self.lefts, x) - 1]
        t = (x - mid) * scale
        shift = _clenshaw(t, re)
        neg_im = float(np.exp(_clenshaw(t, im)))
        return complex(-shift if d < 0.0 else shift, -neg_im), estimate, tail

    def vector(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """``Sigma_2`` and its estimates at ``d`` (the bins of ``|d|`` built),
        and the worst tail of the pieces used; element for element as
        ``scalar``."""
        if self.table is None:
            mids, scales, re, im, estimates, tails = map(np.array, zip(*self.pieces))
            self.table = np.array(self.lefts), mids, scales, re.T, im.T, estimates, tails
        lefts, mids, scales, re, im, estimates, tails = self.table
        x = np.abs(d)
        i = np.searchsorted(lefts, x, side="right") - 1
        t = (x - mids[i]) * scales[i]
        shift = _clenshaw(t, re[:, i])
        value = np.empty(d.shape, dtype=complex)
        value.real = np.where(d < 0.0, -shift, shift)
        value.imag = -np.exp(_clenshaw(t, im[:, i]))
        return value, estimates[i], float(tails[i].max())


@functools.lru_cache(maxsize=64)
def _proxy(c: CouplingConfig, s: QuadratureSettings) -> _Proxy:
    """The FULL proxy of one coupling and tolerance, kept across calls."""
    return _Proxy(c, s)


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
    energy gets inside an array.  FULL values come from the cached proxy
    of the node sum (``_proxy``), WEAK's constant from it at ``y = b``.
    ``stats``, when given, accumulates the diagnostics.  Raises
    ``ValueError`` for a non-finite energy, in every regime, and for a
    regime that breaks the rule STABLE exactly when ``v1_enabled`` is off
    (``_check_regime``, which ``load_config`` applies too), and
    ``QuadratureError`` when the error estimate of a FULL energy, or of a
    node-sum sample a piece is built from, misses
    ``max(abs_tol, rel_tol |Sigma_2|)``.
    """
    _check_regime(c, regime)
    d = np.atleast_1d(np.asarray(y, dtype=float)) - m.b
    # a scalar skips the array reduction (~1 us): Brent calls sigma2 one energy at a time
    if not (math.isfinite(d[0]) if d.size == 1 else np.isfinite(d).all()):
        raise ValueError("energies must be finite")
    if regime is Regime.STABLE or c.l1 == 0.0 or c.l2 == 0.0 or d.size == 0:
        # FULL at L1 = 0 is the exact limit K(x) = 1/(x + i0): the stable form;
        # an empty array (build_grid with nothing to refine) has nothing to build
        at = np.zeros(d.shape) if regime is Regime.WEAK else d
        value, error, tail, work = _gaussian_sigma(at, c.l2), np.zeros(d.shape), 0.0, (0, 0)
    elif regime is Regime.WEAK or d.size == 1:
        # one energy, or WEAK's constant at y = b: floats, no one-element arrays
        at, proxy = (0.0 if regime is Regime.WEAK else float(d[0])), _proxy(c, s)
        work = proxy.build((math.floor(abs(at)),))
        one, estimate, tail = proxy.scalar(at)
        if not estimate <= max(s.abs_tol, s.rel_tol * abs(one)):
            raise _missed(at, estimate)
        value, error = np.full(d.shape, one), np.full(d.shape, estimate)
    else:
        proxy = _proxy(c, s)
        work = proxy.build(np.unique(np.floor(np.abs(d))))
        value, error, tail = proxy.vector(d)
        _check_tolerance(d, value, error, s)
    if stats is not None:
        stats.record(error, tail, *work)
    return value if np.ndim(y) else complex(value[0])


# ---------------------------------------------------------------------------
# spectral function


def _lineshape(d: np.ndarray, value: np.ndarray):
    """Spectral function and width from detunings and ``Sigma_2`` values."""
    width = np.maximum(-2.0 * value.imag, 0.0)
    denom = (d - value.real) ** 2 + 0.25 * width**2
    if np.any((denom == 0.0) & (width == 0.0)):
        raise NumericalError(
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

    ``refinement_level`` is 0 for coarse-scan points and 1 for points added
    by the single local refinement pass.  ``complete`` is False when the
    refinement budget was exhausted before all peaks were resolved.
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


def _peak_width_estimate(width_p, slope):
    # FWHM of a locally Lorentzian peak when the shift is locally linear
    return max(width_p / max(abs(1.0 - slope), 1e-3), 1e-6)


def _scan_points(m, regime, y_range, step) -> tuple[float, float, int]:
    """``(lo, hi, point count)`` of a uniform scan.  ``y_range`` defaults to
    ``(b - 12, b + 12)``; ``step`` ``None`` is the grid's step,
    ``_ROOT_STEP`` in FULL (so the grid's coarse points are the energies
    ``find_roots`` scans), else 0.002.  Raises ``ValueError``, before
    anything is allocated, unless ``lo < hi`` are finite and the scan holds
    at most ``_MAX_SCAN_POINTS`` energies."""
    lo, hi = (m.b - 12.0, m.b + 12.0) if y_range is None else y_range
    if step is None:
        step = _ROOT_STEP if regime is Regime.FULL else 0.002
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"scan range must be finite and increasing, got {y_range}")
    intervals = (hi - lo) / step
    if not intervals <= _MAX_SCAN_POINTS - 1:
        raise ValueError(
            f"scan of [{lo}, {hi}] at step {step} needs {intervals + 1:.3g} energies,"
            f" more than {_MAX_SCAN_POINTS}"
        )
    return lo, hi, max(int(round(intervals)), 16) + 1


def _scan(
    m: DimensionlessModel,
    c: CouplingConfig,
    regime: Regime,
    s: QuadratureSettings,
    y_range: tuple[float, float] | None,
    step: float | None,
    stats: SigmaStats | None,
):
    """Uniform scan of the resonance function ``F(y) = y - b - Delta_2(y)``.

    The scan holds ``max(round((hi - lo)/step), 16) + 1`` evenly spaced
    energies, both ends included, with ``y_range``, ``step`` and their
    bounds as in ``_scan_points``; ``Sigma_2`` there is one vector
    ``sigma2`` call.  Returns the energies, ``Sigma_2`` and ``F`` at them,
    and the cells ``i`` whose interval ``[y_i, y_{i+1}]`` brackets a root:
    ``F`` changes sign across it or ``F(y_i)`` is exactly 0.
    """
    ys = np.linspace(*_scan_points(m, regime, y_range, step))
    value = sigma2(ys, m, c, regime, s, stats=stats)
    f = ys - m.b - value.real
    return ys, value, f, np.flatnonzero(np.diff(np.signbit(f)) | (f[:-1] == 0.0))


def build_grid(
    m: DimensionlessModel,
    c: CouplingConfig,
    regime: Regime,
    y_range: tuple[float, float] | None = None,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    stats: SigmaStats | None = None,
) -> SpectralGrid:
    """Coarse scan plus local refinement around every resonance.

    The coarse scan is ``_scan``: ``y_range`` defaults to ``b +- 12`` and
    the scan holds ``max(round(span/step), 16) + 1`` energies (``step`` 0.01
    in FULL, where they are the energies ``find_roots`` scans, else 0.002),
    at most ``_MAX_SCAN_POINTS``.  Refinement centres are one point per root
    cell of ``F(y) = y - b - Delta_2(y)`` (the secant crossing, or ``y_i``
    itself where ``F(y_i)`` is exactly 0; cells that give the same point
    count once)
    and the local maxima of the coarse spectral function; beyond the 16
    tallest, the grid is marked incomplete.  Around each centre points are
    laid with spacing ``FWHM / 20`` in a linear core and geometric tails, so
    narrow peaks are resolved without a dense global grid.  The minimum
    local step is 1e-6.  ``stats`` accumulates the ``sigma2`` diagnostics.
    A ``y_range`` that is not finite and increasing, or a scan of more
    energies, raises ``ValueError`` before any ``sigma2`` call.
    """
    ys, value, resfun, cells = _scan(m, c, regime, s, y_range, None, stats)
    lo, hi = ys[0], ys[-1]
    u, width = _lineshape(ys - m.b, value)
    shift = value.real

    # secant estimate of each crossing; an exact zero of F is its own
    # estimate, so the two cells that meet there give one centre, and a cell
    # with F = 0 at both ends never divides 0 by 0
    y0, y1, f0, f1 = ys[cells], ys[cells + 1], resfun[cells], resfun[cells + 1]
    secant = y0 + (y1 - y0) * f0 / np.where(f0 == f1, 1.0, f0 - f1)
    crossings = np.select([f0 == 0.0, f1 == 0.0], [y0, y1], secant)
    local_max = np.nonzero((u[1:-1] > u[:-2]) & (u[1:-1] > u[2:]))[0] + 1
    centers = np.concatenate([np.unique(crossings), ys[local_max]])
    complete = len(centers) <= _MAX_REFINED_PEAKS
    if not complete:
        tallest = np.argsort(-np.interp(centers, ys, u), kind="stable")
        centers = centers[tallest[:_MAX_REFINED_PEAKS]]

    new_points = [centers]
    for y_c in centers:
        i = int(np.clip(np.searchsorted(ys, y_c), 1, len(ys) - 2))
        w_c = float(np.interp(y_c, ys, width))
        # local slope of the shift from the coarse grid
        slope = float((shift[i + 1] - shift[i - 1]) / (ys[i + 1] - ys[i - 1]))
        fw = _peak_width_estimate(w_c, slope)
        core = np.linspace(0.0, 6.0 * fw, 6 * _POINTS_PER_FWHM + 1)[1:]
        outer_span = min(5.0, hi - y_c, y_c - lo)
        if outer_span > 6.0 * fw:
            tail = np.geomspace(6.0 * fw, outer_span, 140)[1:]
            offsets = np.concatenate([core, tail])
        else:
            offsets = core
        new_points.append(y_c + offsets)
        new_points.append(y_c - offsets)

    extra = np.concatenate(new_points)
    merged = np.union1d(ys, extra[(extra > lo) & (extra < hi)])
    # drop near-duplicates that would break strict monotonicity
    merged = merged[np.concatenate([[True], np.diff(merged) > 1e-12])]
    is_new = ~np.isin(merged, ys)
    sigma = np.empty(merged.shape, dtype=complex)
    sigma[~is_new] = value[np.searchsorted(ys, merged[~is_new])]
    sigma[is_new] = sigma2(merged[is_new], m, c, regime, s, stats=stats)
    u, width = _lineshape(merged - m.b, sigma)
    return SpectralGrid(
        energies=merged,
        u_ff=u,
        gamma2=width,
        delta2=sigma.real,
        refinement_level=is_new.astype(int),
        y_ref=m.b,
        complete=complete,
    )
