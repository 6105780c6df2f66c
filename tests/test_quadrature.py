import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy.special import dawsn as dawson

from transmon_decay import QuadratureError, QuadratureSettings

from reference_routes import _quad, integrate_adaptive, pv_integrate

SQRT_PI = math.sqrt(math.pi)


def hilbert_gaussian(x):
    """Closed form of PV int e^{-t^2}/(x - t) dt over the real line."""
    return 2.0 * SQRT_PI * dawson(x)


def dawson_series(x: float, terms: int = 40) -> float:
    """Independent Maclaurin-series oracle: D(x) = sum (-2)^k x^(2k+1) / (2k+1)!!.

    Converges quickly for |x| <= 2; shares no code with the library path.
    """
    total = 0.0
    term = x
    for k in range(terms):
        total += term
        term *= -2.0 * x * x / (2 * k + 3)
    return total


class TestDawson:
    # reference values computed once from the series oracle at high precision
    FROZEN = {1.0: 0.5380795069, 2.0: 0.3013403889}

    def test_frozen_values(self):
        for x, ref in self.FROZEN.items():
            assert dawson(x) == pytest.approx(ref, abs=1e-9)

    def test_against_series_oracle(self):
        for x in np.linspace(-2.0, 2.0, 41):
            assert dawson(x) == pytest.approx(dawson_series(float(x)), abs=1e-13)

    def test_odd(self):
        for x in (0.3, 1.1, 2.7):
            assert dawson(-x) == pytest.approx(-dawson(x), abs=1e-15)

    def test_asymptote(self):
        # D(x) -> 1/(2x) + 1/(4x^3) for large |x|
        for x in (20.0, 50.0):
            assert dawson(x) == pytest.approx(1.0 / (2 * x) + 1.0 / (4 * x**3), rel=1e-4)

    @hyp_settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-2.0, max_value=2.0))
    def test_series_agreement_property(self, x):
        assert abs(dawson(x) - dawson_series(x)) < 1e-12


class TestHilbertGaussian:
    def test_matches_pv_quadrature(self):
        for x in (-2.5, -0.7, 0.4, 1.3, 3.0):
            pv = pv_integrate(
                lambda t: math.exp(-t * t) / (x - t), x, -math.inf, math.inf
            )
            assert hilbert_gaussian(x) == pytest.approx(pv, abs=1e-10)

    def test_zero_at_origin(self):
        assert hilbert_gaussian(0.0) == 0.0

    @hyp_settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.1, max_value=3.0))
    def test_pv_agreement_property(self, x):
        pv = pv_integrate(lambda t: math.exp(-t * t) / (x - t), x, -math.inf, math.inf)
        assert abs(hilbert_gaussian(x) - pv) < 1e-8


class TestIntegrateAdaptive:
    def test_gaussian_mass(self):
        v = integrate_adaptive(lambda t: math.exp(-t * t), -math.inf, math.inf)
        assert v == pytest.approx(SQRT_PI, rel=1e-12)

    def test_truncated_tails_match(self):
        s = QuadratureSettings()
        full = integrate_adaptive(
            lambda t: math.exp(-((t - 5.0) ** 2)), -math.inf, math.inf, s
        )
        trunc = integrate_adaptive(
            lambda t: math.exp(-((t - 5.0) ** 2)),
            -math.inf,
            math.inf,
            s,
            gaussian_center=5.0,
        )
        assert trunc == pytest.approx(full, abs=1e-12)

    def test_break_points(self):
        # near-singular spike handled through an explicit break point
        eps = 1e-4
        f = lambda t: eps / (t * t + eps * eps)
        v = integrate_adaptive(f, -1.0, 1.0, points=[0.0])
        assert v == pytest.approx(2.0 * math.atan(1.0 / eps), rel=1e-8)


class TestPvIntegrate:
    def test_pole_outside_raises(self):
        with pytest.raises(ValueError, match="pole"):
            pv_integrate(lambda t: 1.0 / (2.0 - t), 2.0, -1.0, 1.0)

    def test_antisymmetric_window_cancels(self):
        # PV of 1/(x - t) over a symmetric window is exactly zero
        v = pv_integrate(lambda t: 1.0 / (0.0 - t), 0.0, -2.0, 2.0)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_known_log_value(self):
        # PV int_-1^3 dt/(1 - t) = ln(2) - ln(2)... use f(t) = 1/(x-t), x=1:
        # PV = ln|x - lo| - ln|hi - x| = ln 2 - ln 2 = 0 for [-1, 3]
        v = pv_integrate(lambda t: 1.0 / (1.0 - t), 1.0, -1.0, 3.0)
        assert v == pytest.approx(0.0, abs=1e-10)


class TestQuadratureSettings:
    def test_defaults(self):
        s = QuadratureSettings()
        assert s.abs_tol == 1e-10

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            QuadratureSettings(abs_tol=0.0)


class TestQuadratureError:
    def test_nonconvergent_integral_raises_with_estimate(self):
        # highly oscillatory integrand defeats the subdivision budget
        f = lambda t: math.sin(1e6 * t * t)
        with pytest.raises(QuadratureError) as err:
            _quad(f, 0.0, 10.0, QuadratureSettings(), limit=50)
        assert math.isfinite(err.value.estimate)
