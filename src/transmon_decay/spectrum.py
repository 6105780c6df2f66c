"""Self-energies and the spectral function of the third level.

The self-energy of a Gaussian continuum of strength ``L`` is the Faddeeva
function ``w``:

    -2i sqrt(pi) L w(x) = 4 L D(x) - 2i sqrt(pi) L e^{-x^2},

shift and half-width in one complex number (``D`` is the Dawson function).
``_gaussian_form`` writes it once, from ``D(x)`` and ``e^{-x^2}``;
``sigma1`` and the FULL kernel pass it ``_dawson``, Rybicki's sampling sum
in numpy, and ``exp``, and ``_faddeeva`` is ``w`` from the same ``_dawson``.
``sigma1`` is the first-level self-energy at ``x = y - w - a``.  Every
regime of the second level goes through one complex evaluator, ``sigma2``,
which returns ``Sigma_2(y) = Delta_2(y) - i Gamma_2(y)/2`` for a whole array
of energies, or for one float by float operations with no array built, the
same bits as inside an array (``spectral_function`` likewise).

``STABLE``
    The |g>-|e> coupling is off and ``Sigma_2`` is the Gaussian form with
    ``L_2`` at ``x = y - b``, formed as ``sigma1``'s but with scipy's
    ``dawsn`` for ``D``; FULL's exact limits ``L_1 = 0`` and ``L_2 = 0`` take
    it too.  It is the one route that imports scipy, and two things keep it
    there.  Speed: ``_dawson`` is ~45 times slower on a scan table and ~150
    times per float.  And bits: the benchmark's frozen STABLE gate holds the
    stable doublet's heights, which ``find_peaks`` reads off a parabola in
    steps of ~2 at ``y ~ 98.5``, to 1e-4, so a Dawson function that rounds
    other than ``dawsn`` can move a height by a step and fail it.  A numpy
    Taylor table more accurate than ``dawsn`` and within ~4 times its speed
    does (ROADMAP 13, after 5(a)).  The form is ``L_2`` times coupling-free
    functions, so the uniform scan ``_scan`` (behind ``find_roots`` and
    ``build_grid`` in every regime) reads ``D(y - b)`` and
    ``e^{-(y - b)^2}`` from one table per scan window (``_stable_table``,
    cached beside ``_proxy`` and emptied with it by ``_reset_caches``): a
    coupling sweep evaluates ``dawsn`` on its scan energies once.

``FULL``
    The |g>-|e> coupling dresses the intermediate level.  With
    ``d = y - b`` and the photon variable written as ``x = d - v`` (``v`` is
    the photon frequency measured from the second-transition centre),

        Sigma_2(y) = (2 L_2/sqrt(pi)) int dx e^{-(d - x)^2} K(x),
        K(x) = 1 / (x - Sigma_1(x)),   Sigma_1(x) = -2i sqrt(pi) L_1 w(x).

    The integrand is analytic in a strip about the real axis but for the
    zeros of ``x - Sigma_1(x)``, the poles of ``K``, so the trapezoid rule
    on the lattice ``x_i = (i + 1/2) h`` converges geometrically, and the
    zeros nearest the axis enter as closed-form pole terms (Trefethen &
    Weideman, SIAM Rev. 56 (2014) 385; Hunter & Regan, Math. Comp. 26 (1972)
    539).  Above ``4 L_1 = 1`` they are a pair ``z``, ``-conj(z)`` next to
    the fixed points of ``u = 4 L_1 D(u)`` that nears the real axis fast
    (``Im z`` is ``-1.2e-3`` at ``L_2 = 6``, ``-3.6e-11`` at ``L_2 = 20``),
    below it one zero on the imaginary axis, if any.  ``_lattice`` finds
    them and sets ``h`` from them.  ``Sigma_2`` is one row sum of
    ``e^{-(d - x_i)^2} h K(x_i)`` plus the pole terms, one BLAS ``ddot`` per
    energy, the energies of a unit bin in one array pass.  The row sum runs
    over the nodes within ``sqrt(746)`` of the energy's bin only: beyond
    that ``(d - x)^2 > 745.14`` and ``e^{-(d - x)^2}`` rounds to exactly 0.0
    in doubles, so the nodes left out add nothing and only the order of
    summation changes.  Inside the window, an entry with
    ``(d - x)^2 > _FLUSH`` (708.396), where ``exp`` would return a subnormal
    number or 0.0 at many times its usual cost, is stored as 0.0 without
    calling ``exp``; that moves ``Sigma_2`` by at most ``2.3e-308 sum |w_j|``
    (``w_j = h K(x_j)``).  Its error estimate is its difference from the
    same rule on the even nodes, plus the rounding bound of ``K``; an energy
    whose estimate misses ``max(abs_tol, rel_tol |Sigma_2|)``
    (``QuadratureSettings``) raises ``QuadratureError``.  The tests check it
    against adaptive ``quad`` on the two real integrals, a route kept in
    ``tests/reference_routes.py`` with the first level's PV quadrature, and
    against ``mpmath``.

    ``Sigma_2`` is entire in ``d``, so ``sigma2`` runs that sum only to
    build a proxy (``_Proxy``, cached per coupling and tolerances by
    ``_proxy``): a piecewise Chebyshev interpolant of ``Re Sigma_2`` and
    ``log(-Im Sigma_2)`` on the unit bins of ``|d|``, 24 lattice-sum samples
    a piece, mirrored to ``d < 0`` by ``Sigma_2(-d) = -conj Sigma_2(d)``.
    Every FULL value is a Clenshaw sum on its piece, the same float
    operations for one energy as for an array.  A piece whose coefficient
    tail misses ``1e-2`` of the tolerance at its samples is bisected; its
    error estimate is its worst sample estimate plus its tail, and an energy
    whose estimate misses the tolerance raises ``QuadratureError`` too.

``WEAK``
    The FULL self-energy frozen at ``y = b``, the proxy's value there,
    evaluated once per call as a float and broadcast; the spectral function
    is then a plain Lorentzian with that constant.

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
from numpy.polynomial import chebyshev

from .model import SQRT_PI, CouplingConfig, DimensionlessModel, NumericalError

_SPACING = 0.15  # widest FULL lattice step: zeros left >= 1.35 off the axis, e^{a^2 - pi a/h} < 1e-11
_NEAR_SPACING = 0.0375  # the step with a zero left 0.36 off it: e^{a^2 - pi a/h} < 1e-13
_REACH = math.sqrt(746.0)  # e^{-t^2} rounds to exactly 0.0 for t^2 > 745.14
_FLUSH = -math.log(np.finfo(float).tiny)  # 708.396: e^{-t^2} stored as 0.0 for t^2 beyond
_ROUNDOFF = 16 * np.finfo(float).eps
_TINY = np.finfo(float).smallest_subnormal  # floor of -Im Sigma_2 under the proxy's log
_NEWTON_STEPS = 64  # complex Newton steps at most for the kernel pole (<= 45 needed)
_POINTS_PER_FWHM = 20  # grid spacing around a resonance: its FWHM / 20
_MAX_REFINED_PEAKS = 16  # refinement centres per grid; more mark it incomplete
_MAX_SCAN_POINTS = 10**6  # energies of one coarse scan (8 MB per float array)
_ROOT_STEP = 0.01  # find_roots' scan step in y, and the FULL grid's
_CHEB_POINTS = 24  # first-kind Chebyshev points per FULL proxy piece
_TAIL_COEFFS = 4  # trailing Chebyshev coefficients summed into a piece's tail
_NOISE_GAIN = 4.0  # 1 + Lebesgue constant of 24 points (3.0): the last coefficients are noise
_SPLIT = 1e-2  # a piece whose tail exceeds this share of the sample tolerance is bisected
_MIN_PIECE = 2.0**-6  # narrowest piece: a unit bin is bisected at most six times
_DAWSON_H = 0.2  # Rybicki's sample spacing: error ~e^{-(pi/2h)^2} = 2e-27 on the real axis
_DAWSON_N = np.arange(-35.0, 36.0, 2.0)  # odd sample offsets kept: e^{-(35 h)^2} = 5e-22
_DAWSON_SERIES = tuple((-2.0) ** k / math.prod(range(1, 2 * k + 2, 2)) for k in range(9))
_DAWSON_FAR = 1e8  # real D(x) is 1/(2x) within 0.75 ulp from here: the next term is x^-2/2 of it


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
    values come from the cached piecewise Chebyshev proxy of the lattice sum
    (``_Proxy``): a value's estimate is its piece's, the worst lattice-sum
    estimate at the piece's samples plus the piece's coefficient tail, and
    ``max_tail`` is the worst tail of the pieces that gave the values.
    ``samples`` counts the lattice-sum energies the pieces built during these
    calls were fitted to, and ``terms`` the node terms those samples summed,
    each the ``(1 + 2 sqrt(746))/h`` nodes of its bin's window (~380 at
    ``h = 0.15``); a piece an earlier call built is not counted again, and
    STABLE counts none."""

    energies: int = 0
    terms: int = 0
    max_error: float = 0.0
    samples: int = 0
    max_tail: float = 0.0

    def record(self, energies: int, worst: float, tail: float, samples: int, terms: int) -> None:
        self.energies += energies
        self.samples += samples
        self.terms += terms
        self.max_error = max(self.max_error, worst)
        self.max_tail = max(self.max_tail, tail)


def _dawson(z):
    """Dawson's function ``D(z) = e^{-z^2} int_0^z e^{t^2} dt`` for real or
    complex ``z``, arrays or scalars.

    Rybicki's sampling-theorem sum (G. B. Rybicki, Computers in Physics 3
    (1989) 85), ``D(z) = pi^{-1/2} sum_{m odd} e^{-(z - m h)^2}/m`` with
    ``h = 0.2``, over ``m = n0 + n``: ``n0`` is the even integer nearest
    ``Re z/h`` and ``n`` the odd offsets with ``|n| <= 35``.  Its error is
    ``~e^{-(pi/2h)^2}`` on the real axis and grows as ``e^{pi |Im z|/h}``
    off it, so the validated strip is ``|Im z| <= 1``.  Below ``|z| = 0.2``,
    where the ``m = +-1`` samples cancel, the Maclaurin series
    ``sum_k (-2)^k z^{2k+1}/(2k+1)!!`` to ``k = 8`` takes over.  From
    ``|x| = 1e8`` a real ``x`` gets the asymptote ``1/(2x)`` instead, within
    an ulp of ``D``, where the squared samples of a huge ``x`` would
    overflow.  Each is evaluated at whichever of ``z``, ``-z`` has the sign
    bit of its real part clear, and negated back, so ``D(-z) = -D(z)``
    exactly and ``D(+-inf) = +-0``.  A real ``z`` gets the same value alone
    as inside any array.
    """
    z = np.asarray(z)
    flip = np.signbit(z.real)
    a = np.where(flip, -z, z)
    far = np.isinf(a.real) if np.iscomplexobj(a) else a >= _DAWSON_FAR
    asymptote = 0.5 / np.where(far, a.real, 1.0)  # 0 at inf
    a = np.where(far, 0.0, a)  # inf - inf in the samples would be nan
    small = abs(a) < 0.2
    s = np.where(small, a, 0.0)  # the series overflows from |z| ~ 1e19
    s2, series = s * s, 0.0
    for coef in _DAWSON_SERIES[::-1]:
        series = series * s2 + coef
    n0 = 2.0 * np.floor(a.real / (2.0 * _DAWSON_H) + 0.5)
    t = (a - n0 * _DAWSON_H)[..., None] - _DAWSON_N * _DAWSON_H
    sampled = (np.exp(-t * t) / (n0[..., None] + _DAWSON_N)).sum(axis=-1) / SQRT_PI
    d = np.where(far, asymptote, np.where(small, s * series, sampled))
    return np.where(flip, -d, d)[()]


@functools.lru_cache(maxsize=1)
def _dawsn():
    """scipy's ``dawsn``, imported on the first call only."""
    from scipy import special

    return special.dawsn


def _gaussian_form(dawson, gauss, strength: float) -> np.ndarray | complex:
    """``4 L D - 2i sqrt(pi) L e`` from ``D = D(x)`` and ``e = e^{-x^2}``,
    the self-energy of a Gaussian continuum of strength ``L`` (the Faddeeva
    form ``-2i sqrt(pi) L w(x)``): a complex for floats, an array for
    arrays, by the same IEEE operations, so a float gets the bits of the
    same energy inside an array."""
    shift = (4.0 * strength) * dawson
    width = (-2.0 * SQRT_PI * strength) * gauss
    if isinstance(shift, float):
        return complex(shift, width)
    value = np.empty(shift.shape, dtype=complex)
    value.real, value.imag = shift, width
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
    return _gaussian_form(_dawson(x), np.exp(-(x * x)), c.l1)


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
    f = lambda u: u - 4.0 * l1 * _dawson(u)
    ends = np.array([1e-9, 2.2 * l1])
    u_r = _brentq(f, *ends, *f(ends), xtol=1e-13)
    return (-u_r, 0.0, u_r)


def _faddeeva(z: complex) -> complex:
    """The Faddeeva function ``w(z) = e^{-z^2} + (2i/sqrt(pi)) D(z)``, in
    the strip ``|Im z| <= 1`` where ``_dawson`` is validated."""
    return complex(np.exp(-z * z) + 2j / SQRT_PI * _dawson(z))


def _kernel_pole(l1: float, u: float) -> tuple[complex, complex] | None:
    """Pole ``z`` of ``K`` next to the fixed point ``u > 0`` and its residue
    ``r = 1/h'(z)`` (the mirror pole ``-conj(z)`` has ``conj(r)``), by
    complex Newton on ``h(x) = x - Sigma_1(x)`` from ``u``.  Converged
    iterates move only within the rounding noise of ``h``: they settle on a
    fixed point or on a cycle of iterates an ulp apart (period 2 at
    ``L_2 = 29`` and 40, 3 next to ``4 l1 = 1``).  Newton stops at the first
    iterate that repeats an earlier one, or after ``_NEWTON_STEPS`` steps,
    and returns that iterate with the ``h'`` and step that led to it.  None
    if Newton has not settled (only within ~1e-12 of ``4 l1 = 1``, where
    ``Im z = -0.36``)."""
    z, seen = complex(u), set()
    for _ in range(_NEWTON_STEPS):
        seen.add(z)
        w = _faddeeva(z)
        dh = 1.0 - 4.0 * l1 - 4j * SQRT_PI * l1 * z * w  # w' = 2i/sqrt(pi) - 2 z w
        step = (z + 2j * SQRT_PI * l1 * w) / dh
        z -= step
        if z in seen:  # every later step repeats the cycle
            break
    z = complex(z.real, min(z.imag, -1e-250))  # from L2 ~ 440 on, Im z would underflow in c
    return (z, 1.0 / dh) if abs(step) <= 1e-8 * abs(z) else None


def _axis_zero(l1: float) -> tuple[complex, complex] | None:
    """Zero ``z = -i eta`` of ``h(x) = x - Sigma_1(x)`` on the imaginary axis
    nearest the real one, and its residue ``r = 1/h'(z)``, for ``4 l1 <= 1``.

    There ``h(-i eta) = -i phi(eta)`` with ``phi(eta) = eta - 2 sqrt(pi) l1
    w(-i eta)`` real, concave and negative at 0, and ``phi' = h'``, so Newton
    on ``eta`` from 0 rises monotonically to the first root.  None once an
    iterate has ``phi' <= 0`` (past the maximum of ``phi``: no root) or
    leaves ``eta <= 1``, the strip where ``_faddeeva`` holds; from
    ``4 l1 ~ 0.3`` to 1 the zeros nearest the axis are a pair off it."""
    eta = 0.0
    for _ in range(_NEWTON_STEPS):
        if eta > 1.0:
            return None
        w = _faddeeva(complex(0.0, -eta)).real
        slope = 1.0 - 4.0 * l1 - 4.0 * SQRT_PI * l1 * eta * w
        if slope <= 0.0:
            return None
        step = (eta - 2.0 * SQRT_PI * l1 * w) / slope
        eta -= step
        if abs(step) <= 1e-15 * eta:
            break
    return complex(0.0, -eta), complex(1.0 / slope)


# ---------------------------------------------------------------------------
# FULL coupling: trapezoid lattice with closed-form pole terms


def _kernel(x, l1: float):
    """``K(x) = 1/(x - Sigma_1(x))``, the dressed intermediate-level
    propagator, and a bound on its rounding error: the denominator carries
    an absolute error of a few ulps of ``|x| + |Sigma_1|``, which near a
    narrow spike is a large part of its size."""
    sigma1 = _gaussian_form(_dawson(x), np.exp(-(x * x)), l1)
    k = 1.0 / (x - sigma1)
    return k, _ROUNDOFF * (np.abs(x) + np.abs(sigma1)) * np.abs(k) ** 2


def _lattice(l1: float) -> tuple[float, tuple[tuple[complex, complex, complex], ...]]:
    """The trapezoid rule of ``L_1``: the step ``h`` of its nodes
    ``x_i = (i + 1/2) h`` and, for each zero ``z`` of ``x - Sigma_1(x)`` it
    corrects, ``(z, value, diff)``, the coefficients of ``e^{-(d - z)^2}``
    in the rule and in its difference from the rule on the even nodes.

    The rule on ``x_i = (i + 1/2) h`` misses ``int e^{-(d - x)^2} r/(x - z)``
    by ``-2 pi i r e^{-(d - z)^2}/(1 - q)``, ``q = e^{2 pi i (z - h/2)/h}``,
    for each zero ``z`` of ``x - Sigma_1(x)`` below the axis with residue
    ``r`` of ``K``, and converges like ``e^{a^2 - 2 pi a/h}`` in the distance
    ``a`` of the nearest zero it does not correct.  Corrected are the pair
    ``z``, ``-conj(z)`` that ``_kernel_pole`` finds next to the fixed points
    (``4 L_1 > 1``; the zeros left lie 1.35 or more below the axis, so
    ``h <= _SPACING``), else the zero ``_axis_zero`` finds, if any (the rest
    lie 0.36 or more below it, so ``h = _NEAR_SPACING``).  ``h`` is the
    largest such step that makes ``Re z`` a whole number ``m`` of steps, so
    every node of the rule and of the rule on its even nodes (step ``2h``,
    the error estimate) lies ``h/2`` or more from ``+-Re z``, where ``K``
    can be narrower than the spacing of doubles.  Then ``q = -e^{2 pi eta/h}``
    and ``-i (-1)^m e^{pi eta/h}`` for the two rules (``eta = -Im z``), and
    the terms need no complex exponential."""
    u = _resonant_offsets(l1)[-1]
    zero = _kernel_pole(l1, u) if u else _axis_zero(l1)
    h = _SPACING if u and zero else _NEAR_SPACING
    if zero is None:
        return h, ()
    z, r = zero
    m = math.ceil(z.real / h)
    h = z.real / m if m else h
    e = math.exp(-math.pi * z.imag / h)
    value = -2j * math.pi * r / (1.0 + e * e)
    diff = (-1) ** m * 2.0 * math.pi * r * e / (1.0 + e * e)
    if not m:  # on the imaginary axis the zero is its own mirror
        return h, ((z, value, diff),)
    return h, ((z, value, diff), (-z.conjugate(), -value.conjugate(), diff.conjugate()))


def _full_sigma2(d: np.ndarray, c: CouplingConfig, s: QuadratureSettings, lattice=None):
    """FULL ``Sigma_2`` at detunings ``d``, their error estimates and the
    number of node terms summed; ``L_1`` and ``L_2`` nonzero (``sigma2``
    sends those limits to the closed form).  ``lattice`` is ``_lattice(c.l1)``,
    found here when not given (a proxy finds it once).

    Energies are grouped by the unit bin ``k = floor(d)``, and a bin sums
    the nodes of ``_lattice`` within ``_REACH`` of ``[k, k + 1)``: every
    node left out gives ``e^{-(d - x)^2} = 0.0`` exactly in doubles, so the
    sums differ from the lattice sums only in the order of summation,
    besides the entries below the smallest normal double that are stored as
    0.0.  ``K`` is evaluated once on the nodes of all the bins of the call.

    Each bin's rows of ``e^{-(d - x)^2}`` are one array pass: the proxy
    samples 24 energies a piece.  The five row sums (Re and Im of ``h K``
    and of ``+-h K``, the rule's difference from the rule on the even
    nodes, and the rounding bound) are ``np.vecdot``, one ``ddot`` of a row
    with a contiguous weight row each, whose order of summation depends on
    the window's width alone; a matrix product (``@``, ``gemv``, ``gemm``)
    would change it with the number of rows.  So each energy's value and
    estimate depend on its own ``d`` alone: a scalar call is bit-identical
    to the same energy inside any array.
    """
    h, poles = lattice or _lattice(c.l1)

    def window(k: float) -> tuple[int, int]:  # node indices [lo, hi) within _REACH of [k, k + 1)
        return math.ceil((k - _REACH) / h - 0.5), math.floor((k + 1.0 + _REACH) / h - 0.5) + 1

    value = np.empty(d.shape, dtype=complex)
    error = np.empty(d.shape)
    terms = 0
    bins = np.floor(d)
    order = np.argsort(bins, kind="stable")
    bins = bins[order]
    bounds = [0, *(np.flatnonzero(bins[1:] != bins[:-1]) + 1).tolist(), d.size]
    first, end = window(bins[0])[0], window(bins[-1])[1]
    i = np.arange(first, end)
    x = (i + 0.5) * h
    k, dk = _kernel(x, c.l1)
    alternating = np.where(i % 2, h, -h) * k  # the rule minus the rule of weight 2h on even i
    weights = np.stack([h * k.real, h * k.imag, alternating.real, alternating.imag, h * dk])
    for start, stop in zip(bounds[:-1], bounds[1:]):
        at = order[start:stop]
        lo, hi = (n - first for n in window(float(bins[start])))
        g = np.square(d[at, None] - x[lo:hi])
        keep = g <= _FLUSH  # the rest is stored as 0.0 without calling exp
        np.negative(g, out=g)
        np.exp(g, out=g, where=keep)
        np.putmask(g, ~keep, 0.0)  # g is now e^{-(d - x)^2}
        # one ddot per row and weight row, whatever the number of rows
        re, im, d_re, d_im, rounding = np.vecdot(g[:, None, :], weights[:, lo:hi]).T
        sigma, diff = re + 1j * im, d_re + 1j * d_im
        for z, a_value, a_diff in poles:
            gauss = np.exp(-np.square(d[at] - z))  # analytic in d
            sigma += a_value * gauss
            diff += a_diff * gauss
        value[at], error[at] = sigma, np.abs(diff) + rounding
        terms += g.size
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
# FULL coupling: piecewise Chebyshev proxy of the lattice sum


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
    """Piecewise Chebyshev interpolant of the FULL lattice sum ``_full_sigma2``
    for one coupling and one tolerance.

    Pieces are the unit bins ``[k, k + 1)``, ``k >= 0``, of ``d = y - b``
    that the lattice sum groups its energies by, built when an energy first
    falls in them; ``d < 0`` reads the mirror image ``-conj Sigma_2(-d)``,
    so the proxy is exactly symmetric about ``b`` (the lattice sum is, to its
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
    lattice sum adds again at the energy.  A piece whose tail exceeds
    ``_SPLIT`` times the smallest tolerance at its samples is bisected,
    down to ``_MIN_PIECE``.  A piece's error estimate is its worst sample
    estimate plus its tail."""

    def __init__(self, c: CouplingConfig, s: QuadratureSettings):
        self.c, self.s = c, s
        self.lattice = _lattice(c.l1)  # every piece samples the same rule
        self.bins: set[float] = set()
        self.lefts: list[float] = []  # ascending left ends of the pieces
        # (mid, 2/width, Re coefficients, log(-Im) coefficients, estimate, tail)
        self.pieces: list[tuple] = []
        self.table: tuple | None = None  # the pieces as arrays, for vector calls

    def build(self, bins) -> tuple[int, int]:
        """Build every unit bin ``[k, k + 1)`` of ``bins`` (``k >= 0``) not
        built yet; returns the lattice-sum samples and node terms that took.
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
            value, error, n_terms = _full_sigma2(d, self.c, self.s, self.lattice)
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

    Vectorised over ``y``; a float (Python's or numpy's) gets a complex,
    computed in floats with no array built (Brent calls ``sigma2`` one energy
    at a time), and exactly the value the same energy gets inside an array.
    FULL values come from the cached proxy of the lattice sum (``_proxy``),
    WEAK's constant from it at ``y = b``, once per call.  ``stats``, when
    given, accumulates the diagnostics.  Raises ``ValueError`` for a non-finite
    energy, in every regime, and for a regime that breaks the rule STABLE
    exactly when ``v1_enabled`` is off (``_check_regime``, which
    ``load_config`` applies too), and ``QuadratureError`` when the error
    estimate of a FULL energy, or of a lattice-sum sample a piece is built from,
    misses ``max(abs_tol, rel_tol |Sigma_2|)``.
    """
    _check_regime(c, regime)
    one = isinstance(y, float)  # Brent's calls: floats through, no array built
    d = y - m.b if one else np.atleast_1d(np.asarray(y, dtype=float)) - m.b
    if not (math.isfinite(d) if one else np.isfinite(d).all()):
        raise ValueError("energies must be finite")
    n, shape = (1, ()) if one else (d.size, d.shape)
    if regime is Regime.WEAK and n:
        d = 0.0  # the constant Sigma_2(b): one float evaluation, broadcast below
    scalar = isinstance(d, float)
    if regime is Regime.STABLE or c.l1 == 0.0 or c.l2 == 0.0 or n == 0:
        # FULL at L1 = 0 is the exact limit K(x) = 1/(x + i0): the stable form;
        # an empty array (build_grid with nothing to refine) has nothing to build
        value = _gaussian_form(_dawsn()(d), np.exp(-(d * d)), c.l2)
        worst, tail, work = 0.0, 0.0, (0, 0)
    elif scalar:
        proxy = _proxy(c, s)
        work = proxy.build((math.floor(abs(d)),))
        value, worst, tail = proxy.scalar(d)
        if not worst <= max(s.abs_tol, s.rel_tol * abs(value)):
            raise _missed(d, worst)
    else:
        proxy = _proxy(c, s)
        work = proxy.build(np.unique(np.floor(np.abs(d))))
        value, error, tail = proxy.vector(d)
        _check_tolerance(d, value, error, s)
        worst = float(error.max())
    if stats is not None:
        stats.record(n, worst, tail, *work)
    if scalar and shape:
        value = np.full(shape, value)
    return value if one or np.ndim(y) else complex(value[0])


# ---------------------------------------------------------------------------
# spectral function


def _lineshape(d, value):
    """Spectral function and width from detunings and ``Sigma_2`` values:
    arrays, or a float and a complex by the same IEEE operations."""
    if isinstance(value, complex):
        width = max(-2.0 * value.imag, 0.0)
        t = d - value.real
        denom = t * t + 0.25 * (width * width)
        flat = denom == 0.0 and width == 0.0
    else:
        width = np.maximum(-2.0 * value.imag, 0.0)
        denom = (d - value.real) ** 2 + 0.25 * width**2
        flat = np.any((denom == 0.0) & (width == 0.0))
    if flat:
        raise NumericalError(
            "width underflowed to zero exactly at a resonance point; "
            "the spectral function is a delta distribution there"
        )
    return np.divide(width, 2.0 * math.pi * denom), width


def spectral_function(
    y,
    m: DimensionlessModel,
    c: CouplingConfig,
    regime: Regime,
    s: QuadratureSettings = DEFAULT_SETTINGS,
    *,
    stats: SigmaStats | None = None,
):
    """Dimensionless spectral function ``U(y) = U_ff(E) * delta``; a float
    for a float, computed in floats as for ``sigma2``."""
    if isinstance(y, float):
        return float(_lineshape(y - m.b, sigma2(y, m, c, regime, s, stats=stats))[0])
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
    bounds as in ``_scan_points``.  ``Sigma_2`` there is one vector
    ``sigma2`` call, or in STABLE the closed form from the scan's cached
    coupling-free table (``_stable_table``), bit for bit that call's, with
    ``stats`` recorded as it would: a coupling sweep evaluates ``dawsn`` on
    its scan energies once.  Returns the energies, ``Sigma_2`` and ``F`` at
    them, and the cells ``i`` whose interval ``[y_i, y_{i+1}]`` brackets a
    root: ``F`` changes sign across it or ``F(y_i)`` is exactly 0.
    """
    points = _scan_points(m, regime, y_range, step)
    if regime is Regime.STABLE:
        _check_regime(c, regime)
        ys, dawson, gauss = _stable_table(m, *points)
        value = _gaussian_form(dawson, gauss, c.l2)
        if stats is not None:
            stats.record(ys.size, 0.0, 0.0, 0, 0)
    else:
        ys = np.linspace(*points)
        value = sigma2(ys, m, c, regime, s, stats=stats)
    f = (ys - m.b) - value.real
    return ys, value, f, _root_cells(f)


def _root_cells(f: np.ndarray) -> np.ndarray:
    """Cells ``i`` of a scan whose interval brackets a root of ``F``."""
    return np.flatnonzero(np.diff(np.signbit(f)) | (f[:-1] == 0.0))


@functools.lru_cache(maxsize=2)  # resonances scans two windows, every other command one
def _stable_table(m: DimensionlessModel, lo: float, hi: float, n: int):
    """The energies ``np.linspace(lo, hi, n)`` and the coupling-free
    ``D(y - b)`` and ``e^{-(y - b)^2}`` of the STABLE closed form at them,
    kept across calls, read-only."""
    ys = np.linspace(lo, hi, n)
    d = ys - m.b
    table = ys, _dawsn()(d), np.exp(-(d * d))
    for a in table:
        a.flags.writeable = False
    return table


def _reset_caches() -> None:
    """Empty the caches a command fills: the FULL proxies and the STABLE
    scan tables, so no count a command reports depends on an earlier one."""
    _proxy.cache_clear()
    _stable_table.cache_clear()


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

    merged, coarse = _merge(ys, np.concatenate(new_points))
    is_new = coarse < 0
    sigma = np.empty(merged.shape, dtype=complex)
    sigma[~is_new] = value[coarse[~is_new]]
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


def _merge(ys: np.ndarray, extra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending coarse energies ``ys`` merged with the refinement
    energies ``extra`` strictly inside them, by one stable sort that keeps
    each point's origin; a point within 1e-12 of the one before it, or equal
    to it, is dropped (coarse points sort first among equals).  Returns the
    energies and, for each, its index in ``ys``, or -1 for a new point."""
    extra = extra[(extra > ys[0]) & (extra < ys[-1])]
    points = np.concatenate([ys, extra])
    order = np.argsort(points, kind="stable")
    points = points[order]
    keep = np.concatenate([[True], np.diff(points) > 1e-12])
    order = order[keep]
    return points[keep], np.where(order < ys.size, order, -1)
