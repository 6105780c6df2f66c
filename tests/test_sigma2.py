"""The complex second-level self-energy ``sigma2`` and its FULL-regime
Gauss-Kronrod evaluator, checked against the per-point ``quad`` route."""

import math

import numpy as np
import pytest
from numpy.polynomial import legendre

from transmon_decay import (
    CouplingConfig,
    QuadratureError,
    QuadratureSettings,
    Regime,
    SigmaStats,
    build_grid,
    level2_shift_width,
    sigma2,
    spectral_function,
)
from transmon_decay.spectrum import (
    _full_integrals,
    _full_sigma2_quad,
    _kronrod_rule,
    _node_set,
)

SQRT_PI = math.sqrt(math.pi)
# tight enough that quad's own error stays well below 1e-12 of max |Sigma_2|;
# at (1e-13, 1e-12) quad is itself off by 1.3e-12 of it at L2 = 6, y - b = 2.25
TIGHT = QuadratureSettings(abs_tol=1e-15, rel_tol=1e-13, max_subdivisions=1000)


def quad_sigma2(d, c, s=TIGHT):
    shift, width, _, _ = _full_integrals(d, c, s)
    return complex(2.0 * c.l2 / SQRT_PI * shift, -4.0 * c.l1 * c.l2 * width)


class TestKronrodRule:
    def test_exact_to_degree_3n_plus_1(self):
        nodes, wk, wg = _kronrod_rule()
        assert len(nodes) == 21
        for degree in range(32):
            exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
            assert wk @ nodes**degree == pytest.approx(exact, abs=1e-14)

    def test_gauss_rule_is_embedded(self):
        nodes, _, wg = _kronrod_rule()
        xg, w = legendre.leggauss(10)
        np.testing.assert_allclose(nodes[wg != 0], xg, atol=1e-15)
        np.testing.assert_allclose(wg[wg != 0], w, atol=1e-15)


class TestAgainstQuad:
    @pytest.mark.parametrize("l2", [1e-3, 0.05, 0.375, 6.0])
    def test_matches_tight_quad(self, model, l2):
        # 0.375 is where 4 L1 = 1 and the three fixed points merge; the seed
        # applied abs_tol before the width prefactor and was 5x off in the tail
        c = CouplingConfig.transmon_ratio(l2)
        ds = np.append(np.linspace(-12.0, 12.0, 97), 7.44658)
        got = []
        for d in ds:
            sw = level2_shift_width(model.b + d, model, c)
            got.append(complex(sw.shift, -0.5 * sw.width))
        want = np.array([quad_sigma2((model.b + d) - model.b, c) for d in ds])
        scale = np.abs(want).max()
        assert np.abs(np.array(got) - want).max() <= 1e-12 * scale

    def test_tail_width_at_reference_point(self, model):
        c = CouplingConfig.transmon_ratio(6.0)
        y = model.b + 7.44658
        assert level2_shift_width(y, model, c).width == pytest.approx(2.729e-8, rel=1e-3)

    def test_fallback_route_meets_tolerance_after_prefactors(self, model, settings):
        # abs_tol bounds the error of Sigma_2, not of the raw integrals
        c = CouplingConfig.transmon_ratio(6.0)
        for d in (-9.3, 7.44658, 11.0):
            got, err = _full_sigma2_quad(d, c, settings)
            want = quad_sigma2(d, c)
            assert abs(got - want) <= max(settings.abs_tol, settings.rel_tol * abs(want))
            assert err <= max(settings.abs_tol, settings.rel_tol * abs(want))

    def test_near_real_pole_matches_quad_or_raises(self, model, settings):
        # at L2 = 60 the outer spikes are ~1e-34 wide; no returned value may
        # disagree with quad, and energies neither route resolves must raise
        c = CouplingConfig.transmon_ratio(60.0)
        returned = 0
        for y in model.b + np.linspace(-12.0, 12.0, 61):
            try:
                got = sigma2(y, model, c, Regime.FULL, settings)
            except QuadratureError:
                continue
            want, want_err = _full_sigma2_quad(y - model.b, c, settings)
            tol = 10.0 * max(settings.abs_tol, settings.rel_tol * abs(want)) + want_err
            assert abs(got - want) <= tol, f"y - b = {y - model.b}"
            returned += 1
        assert returned > 0

    def test_node_set_stays_small_at_near_real_pole(self):
        assert _node_set(40.0, 10.0).x.size < 20000


class TestInvariants:
    @pytest.mark.parametrize(
        "regime, l2", [(Regime.FULL, 6.0), (Regime.FULL, 0.05), (Regime.WEAK, 1.0)]
    )
    def test_scalar_and_vector_calls_bit_identical(self, model, settings, regime, l2):
        c = CouplingConfig.transmon_ratio(l2)
        ys = np.concatenate([np.linspace(model.b - 12.0, model.b + 12.0, 241), [model.b]])
        vector = sigma2(ys, model, c, regime, settings)
        scalar = np.array([sigma2(float(y), model, c, regime, settings) for y in ys])
        assert np.array_equal(vector, scalar)
        u_vector = spectral_function(ys, model, c, regime, settings)
        u_scalar = np.array([spectral_function(float(y), model, c, regime, settings) for y in ys])
        assert np.array_equal(u_vector, u_scalar)

    @pytest.mark.parametrize("l2", [0.05, 1.0, 6.0])
    def test_symmetric_about_b(self, model, settings, l2):
        c = CouplingConfig.transmon_ratio(l2)
        xs = np.linspace(0.0, 12.0, 121)
        plus = sigma2(model.b + xs, model, c, Regime.FULL, settings)
        minus = sigma2(model.b - xs, model, c, Regime.FULL, settings)
        scale = np.abs(plus).max()
        assert np.abs(minus + np.conj(plus)).max() <= 1e-13 * scale

    def test_width_nonnegative(self, model, settings):
        c = CouplingConfig.transmon_ratio(6.0)
        value = sigma2(np.linspace(model.b - 20, model.b + 20, 401), model, c, Regime.FULL)
        assert np.all(value.imag <= 0.0)

    def test_stable_is_faddeeva_form(self, model):
        from scipy import special

        c = CouplingConfig.stable_second_level(6.0)
        ys = model.b + np.linspace(-8.0, 8.0, 33)
        value = sigma2(ys, model, c, Regime.STABLE)
        want = -2j * SQRT_PI * 6.0 * special.wofz(ys - model.b)
        np.testing.assert_allclose(value.real, want.real, rtol=1e-14, atol=1e-300)
        np.testing.assert_allclose(value.imag, want.imag, rtol=1e-14)

    def test_zero_l1_is_the_stable_limit(self, model, settings):
        full = CouplingConfig(l1=0.0, l2=2.0, v1_enabled=True)
        stable = CouplingConfig.stable_second_level(2.0)
        ys = model.b + np.linspace(-5.0, 5.0, 11)
        assert np.array_equal(
            sigma2(ys, model, full, Regime.FULL, settings),
            sigma2(ys, model, stable, Regime.STABLE, settings),
        )

    def test_weak_is_full_frozen_at_b(self, model, settings):
        c = CouplingConfig.transmon_ratio(1.0)
        weak = sigma2(model.b + np.array([-3.0, 0.0, 2.0]), model, c, Regime.WEAK, settings)
        assert np.all(weak == sigma2(model.b, model, c, Regime.FULL, settings))

    def test_requires_enabled_first_level(self, model):
        with pytest.raises(ValueError, match="v1_enabled"):
            sigma2(model.b, model, CouplingConfig.stable_second_level(1.0), Regime.WEAK)


class TestDiagnostics:
    def test_fallback_beyond_covered_range(self, model, settings):
        c = CouplingConfig.transmon_ratio(1.0)
        stats = SigmaStats()
        ys = model.b + np.array([0.5, 30.0])
        value = sigma2(ys, model, c, Regime.FULL, settings, stats=stats)
        assert stats.energies == 2
        assert stats.fallbacks == 1
        assert 0.0 < stats.max_error <= settings.rel_tol * abs(value[1]) + settings.abs_tol
        assert value[1] == pytest.approx(quad_sigma2(ys[1] - model.b, c), abs=1e-10)

    def test_grid_diagnostics_repeat_exactly(self, model, settings):
        c = CouplingConfig.transmon_ratio(1.0)
        runs = []
        for _ in range(2):
            stats = SigmaStats()
            build_grid(model, c, Regime.WEAK, (model.b - 4, model.b + 4), settings, stats=stats)
            build_grid(model, c, Regime.FULL, (model.b - 4, model.b + 4), settings, stats=stats)
            runs.append(stats)
        assert runs[0] == runs[1]
        assert runs[0].fallbacks == 0
        assert 0.0 < runs[0].max_error < settings.abs_tol
