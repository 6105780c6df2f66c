import math

import numpy as np
import pytest

from transmon_decay import (
    CouplingConfig,
    Regime,
    ResonanceRecord,
    find_peaks,
    find_roots,
    fwhm,
    spectral_callable,
    sweep_coupling,
)
from transmon_decay.resonances import ScanRangeError


class TestFindRoots:
    def test_stable_strong_coupling_triplet(self, model, settings):
        c = CouplingConfig.stable_second_level(6.0)
        roots = find_roots(model, c, Regime.STABLE, settings)
        assert len(roots) == 3
        locs = [r.y_r - model.b for r in roots]
        assert locs[1] == pytest.approx(0.0, abs=1e-9)
        assert locs[0] == pytest.approx(-locs[2], abs=1e-9)
        assert 3.3 <= locs[2] <= 3.6

    def test_stable_weak_coupling_single_root(self, model, settings):
        c = CouplingConfig.stable_second_level(0.1)
        roots = find_roots(model, c, Regime.STABLE, settings)
        assert len(roots) == 1
        assert roots[0].y_r == pytest.approx(model.b, abs=1e-9)

    def test_records_carry_spectral_height(self, model, settings):
        c = CouplingConfig.stable_second_level(6.0)
        roots = find_roots(model, c, Regime.STABLE, settings)
        assert all(r.height > 0 for r in roots)
        assert roots[0].height == pytest.approx(roots[2].height, rel=1e-6)

    def test_peak_normalised_doublet_sits_in_reference_window(self, model, settings):
        # with the peak-normalised density (L2 scaled by sqrt(pi)/2) the stable
        # doublet lands at the Dawson fixed point 3.346043, inside the
        # 3.34-3.35 window of acceptance criterion 1
        c = CouplingConfig.stable_second_level(6.0 * math.sqrt(math.pi) / 2)
        roots = find_roots(model, c, Regime.STABLE, settings)
        assert len(roots) == 3
        for r in (roots[0], roots[2]):
            assert abs(r.y_r - model.b) == pytest.approx(3.34604, abs=1e-4)

    def test_boundary_crossing_raises(self, model, settings):
        c = CouplingConfig.stable_second_level(6.0)
        # outer root at b+3.54 sits in the last scan cell of this range
        with pytest.raises(ScanRangeError, match="widen"):
            find_roots(
                model, c, Regime.STABLE, settings,
                y_range=(model.b + 1.0, model.b + 3.545),
            )


class TestFindPeaks:
    def test_stable_peaks_match_roots(self, model, settings, grids):
        c = CouplingConfig.stable_second_level(6.0)
        grid = grids.get(6.0, Regime.STABLE)
        roots = find_roots(model, c, Regime.STABLE, settings)
        peaks = find_peaks(grid, roots)
        assert len(peaks) == 3
        for p in peaks:
            assert p.root_ref is not None
            assert abs(p.y_r - p.root_ref) < 1e-5
        outer = [p for p in peaks if abs(p.y_r - model.b) > 1.0]
        assert outer[0].height == pytest.approx(outer[1].height, rel=0.01)

    def test_min_height_filters(self, grids):
        grid = grids.get(6.0, Regime.STABLE)
        tall_only = find_peaks(grid, min_height=1.0)
        assert len(tall_only) == 2  # central peak is far below this threshold


class TestFwhm:
    def test_synthetic_lorentzian_recovered(self):
        gamma = 1e-3
        y0 = 98.5

        def u(y):
            return (gamma / (2 * math.pi)) / ((y - y0) ** 2 + 0.25 * gamma * gamma)

        rec = ResonanceRecord(y_r=y0, kind="peak", height=u(y0))
        res = fwhm(rec, u)
        assert res.complete
        # bisection tolerance is relative to y ~ 98.5, so ~1e-8 absolute here
        assert res.width == pytest.approx(gamma, abs=1e-6)

    def test_incomplete_flank_flagged(self):
        # a peak on a pedestal never falls to half height on one side
        def u(y):
            return math.exp(-((y - 1.0) ** 2)) + (0.9 if y > 1.0 else 0.0)

        rec = ResonanceRecord(y_r=1.0, kind="peak", height=1.0)
        res = fwhm(rec, u)
        assert not res.complete
        assert res.width > 0

    def test_rejects_flat_record(self):
        rec = ResonanceRecord(y_r=0.0, kind="peak", height=0.0)
        with pytest.raises(ValueError):
            fwhm(rec, lambda y: 0.0)


class TestResonanceRecord:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            ResonanceRecord(y_r=0.0, kind="blip", height=1.0)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            ResonanceRecord(y_r=0.0, kind="root", height=-1.0)


class TestSweep:
    def test_crossover_bisection(self, model, settings):
        result = sweep_coupling(
            model, Regime.STABLE, [0.1, 0.5], settings, crossover_tol=1e-3
        )
        assert result.crossover_estimate is not None
        # analytic tangency of the root condition: 4 L2 D'(0) = 1
        assert result.crossover_estimate == pytest.approx(0.25, abs=2e-3)

    def test_root_counts_increase_with_coupling(self, model, settings):
        result = sweep_coupling(model, Regime.STABLE, [0.1, 6.0], settings)
        counts = [len(recs) for recs in result.records_per_l2]
        assert counts == [1, 3]

    def test_rejects_nonpositive_values(self, model, settings):
        with pytest.raises(ValueError):
            sweep_coupling(model, Regime.STABLE, [0.0, 1.0], settings)


class TestSpectralCallable:
    def test_matches_direct_evaluation(self, model, settings):
        c = CouplingConfig.stable_second_level(1.0)
        u = spectral_callable(model, c, Regime.STABLE, settings)
        from transmon_decay import spectral_function

        y = model.b + 0.3
        assert u(y) == pytest.approx(
            float(spectral_function(y, model, c, Regime.STABLE, settings)), rel=1e-14
        )
