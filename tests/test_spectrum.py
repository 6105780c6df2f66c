import math

import numpy as np
import pytest
from scipy.special import dawsn as dawson

from transmon_decay import (
    CouplingConfig,
    Regime,
    SpectralGrid,
    build_grid,
    find_roots,
    sigma2,
    spectral_function,
)
from transmon_decay import spectrum
from transmon_decay.spectrum import _resonant_offsets, regime_for

SQRT_PI = math.sqrt(math.pi)


class TestStableClosedForms:
    def test_shift_is_scaled_dawson(self, model):
        c = CouplingConfig.stable_second_level(6.0)
        for x in (-3.0, -0.5, 0.0, 1.2, 4.0):
            got = sigma2(model.b + x, model, c, Regime.STABLE).real
            assert got == pytest.approx(24.0 * float(dawson(x)), rel=1e-14)

    def test_width_is_scaled_gaussian(self, model):
        c = CouplingConfig.stable_second_level(6.0)
        for x in (-2.0, 0.0, 1.5):
            got = -2.0 * sigma2(model.b + x, model, c, Regime.STABLE).imag
            assert got == pytest.approx(24.0 * SQRT_PI * math.exp(-x * x), rel=1e-14)

    def test_vectorized(self, model):
        c = CouplingConfig.stable_second_level(1.0)
        ys = np.linspace(model.b - 2, model.b + 2, 7)
        assert sigma2(ys, model, c, Regime.STABLE).shape == (7,)


class TestRegimes:
    def test_regime_for(self):
        assert regime_for(CouplingConfig.transmon_ratio(1.0)) is Regime.FULL
        assert regime_for(CouplingConfig.stable_second_level(1.0)) is Regime.STABLE

    def test_full_requires_enabled_first_level(self, model, settings):
        c = CouplingConfig.stable_second_level(1.0)
        with pytest.raises(ValueError, match="v1_enabled"):
            sigma2(model.b, model, c, Regime.FULL, settings)

    def test_weak_constants_equal_full_at_center(self, model, settings):
        c = CouplingConfig.transmon_ratio(1.0)
        weak = sigma2(model.b + 2.0, model, c, Regime.WEAK, settings)
        full = sigma2(model.b, model, c, Regime.FULL, settings)
        assert weak == pytest.approx(full, abs=1e-12)


class TestFullCouplingSymmetry:
    def test_shift_vanishes_at_center(self, model, settings):
        c = CouplingConfig.transmon_ratio(6.0)
        assert abs(sigma2(model.b, model, c, Regime.FULL, settings).real) < 1e-10

    def test_shift_odd_width_even(self, model, settings):
        c = CouplingConfig.transmon_ratio(6.0)
        for x in (0.7, 2.0):
            plus = sigma2(model.b + x, model, c, Regime.FULL, settings)
            minus = sigma2(model.b - x, model, c, Regime.FULL, settings)
            assert plus.real == pytest.approx(-minus.real, abs=1e-9)
            assert -2.0 * plus.imag == pytest.approx(-2.0 * minus.imag, abs=1e-9)

    def test_width_nonnegative(self, model, settings):
        c = CouplingConfig.transmon_ratio(6.0)
        for x in (-8.0, -1.0, 0.0, 3.0, 8.0):
            assert sigma2(model.b + x, model, c, Regime.FULL, settings).imag <= 0.0


class TestResonantOffsets:
    def test_origin_always_fixed(self):
        assert _resonant_offsets(0.1) == (0.0,)

    def test_pair_above_threshold(self):
        offsets = _resonant_offsets(4.0)
        assert len(offsets) == 3
        for u in offsets:
            assert u == pytest.approx(16.0 * float(dawson(u)), abs=1e-10)

    def test_symmetric_pair(self):
        offsets = sorted(_resonant_offsets(1.0))
        assert offsets[0] == pytest.approx(-offsets[2], abs=1e-12)


class TestSpectralFunction:
    def test_lorentzian_shape_in_stable_regime(self, model):
        c = CouplingConfig.stable_second_level(0.1)
        y = model.b
        value = sigma2(y, model, c, Regime.STABLE)
        g, d = -2.0 * value.imag, value.real
        want = (g / (2 * math.pi)) / ((y - model.b - d) ** 2 + 0.25 * g * g)
        got = float(spectral_function(y, model, c, Regime.STABLE))
        assert got == pytest.approx(want, rel=1e-12)

    def test_nonnegative_everywhere(self, model):
        c = CouplingConfig.stable_second_level(6.0)
        ys = np.linspace(model.b - 10, model.b + 10, 101)
        assert np.all(spectral_function(ys, model, c, Regime.STABLE) >= 0.0)


class TestSpectralGrid:
    def _columns(self, n):
        return dict(
            gamma2=np.ones(n),
            delta2=np.zeros(n),
            refinement_level=np.zeros(n, dtype=int),
            y_ref=98.5,
        )

    def test_rejects_non_monotone_energies(self):
        with pytest.raises(ValueError, match="increasing"):
            SpectralGrid(
                energies=np.array([1.0, 1.0, 2.0]),
                u_ff=np.zeros(3),
                **self._columns(3),
            )

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpectralGrid(
                energies=np.array([1.0, 2.0, 3.0]),
                u_ff=np.array([0.0, -1.0, 0.0]),
                **self._columns(3),
            )


class TestBuildGrid:
    def test_stable_grid_resolves_narrow_peaks(self, grids):
        grid = grids.get(6.0, Regime.STABLE)
        assert np.all(np.diff(grid.energies) > 0)
        assert grid.complete
        # normalization on the refined grid
        norm = float(np.trapezoid(grid.u_ff, grid.energies))
        assert norm == pytest.approx(1.0, abs=1e-3)
        # local spacing near the tallest peak must resolve its ~7e-5 width
        i = int(np.argmax(grid.u_ff))
        local = np.diff(grid.energies[max(i - 2, 0) : i + 3])
        assert local.max() < 2e-5

    def test_refinement_levels_marked(self, grids):
        grid = grids.get(6.0, Regime.STABLE)
        assert grid.refinement_level.max() >= 1
        assert grid.refinement_level.min() == 0

    def test_custom_range_respected(self, model, settings):
        c = CouplingConfig.stable_second_level(0.1)
        grid = build_grid(
            model, c, Regime.STABLE, (model.b - 5.0, model.b + 5.0), settings
        )
        assert grid.energies[0] >= model.b - 5.0 - 1e-12
        assert grid.energies[-1] <= model.b + 5.0 + 1e-12

    @pytest.mark.parametrize(
        "window",
        [
            pytest.param((12.0, -12.0), id="descending"),
            pytest.param((0.0, 0.0), id="empty"),
            pytest.param((-math.inf, 12.0), id="infinite-low"),
            pytest.param((-12.0, math.inf), id="infinite-high"),
            pytest.param((-12.0, math.nan), id="nan-high"),
        ],
    )
    def test_bad_scan_range_or_step_raises(self, model, settings, window):
        # checked where the point count is computed, for build_grid and for
        # find_roots (which scans at its own step 0.01) alike
        c = CouplingConfig.stable_second_level(1.0)
        y_range = (model.b + window[0], model.b + window[1])
        with pytest.raises(ValueError, match="scan range"):
            build_grid(model, c, Regime.STABLE, y_range, settings)
        with pytest.raises(ValueError, match="scan range"):
            find_roots(model, c, Regime.STABLE, settings, y_range=y_range)

    def test_oversized_scan_raises_before_any_sigma2_call(self, model, settings, monkeypatch):
        # 1e12 energies at the STABLE step 0.002 would ask np.linspace for 8 TB
        def no_sigma2(*args, **kwargs):
            raise AssertionError("sigma2 called")

        monkeypatch.setattr(spectrum, "sigma2", no_sigma2)
        c = CouplingConfig.stable_second_level(1.0)
        with pytest.raises(ValueError, match="more than 1000000"):
            build_grid(model, c, Regime.STABLE, (model.b - 1e9, model.b + 1e9), settings)
        y_range = (model.b - 6000.0, model.b + 6000.0)  # 1.2e6 energies at find_roots' 0.01
        with pytest.raises(ValueError, match="more than 1000000"):
            find_roots(model, c, Regime.STABLE, settings, y_range=y_range)
