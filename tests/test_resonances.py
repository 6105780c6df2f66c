import math
from pathlib import Path

import numpy as np
import pytest
from reference_routes import fwhm_sequential

from transmon_decay import (
    CouplingConfig,
    QuadratureSettings,
    Regime,
    ResonanceRecord,
    SigmaStats,
    build_grid,
    find_peaks,
    find_roots,
    fwhm,
    sigma2,
    spectral_callable,
    spectrum,
    sweep_coupling,
)
from transmon_decay.cli import _y_range
from transmon_decay.config import load_config
from transmon_decay.model import NumericalError
from transmon_decay.resonances import ScanRangeError


class TestFindRoots:
    def test_exact_zero_on_the_scan_is_one_root(self, model, settings):
        # at L2 = 1 the FULL shift is exactly 0 at the scan point y = b, which
        # also closes the bracket to its left; that is not a degenerate pair
        c = CouplingConfig.transmon_ratio(1.0)
        roots = find_roots(model, c, Regime.FULL, settings)
        assert [(r.y_r, r.degenerate) for r in roots] == [(model.b, False)]

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

    def test_weak_samples_one_piece(self, model, settings):
        # WEAK's constant is the FULL proxy at y = b: the scan, Brent and the
        # root's height all read the one piece of [b, b + 1), which 24
        # node-sum samples build once
        stats = SigmaStats()
        c = CouplingConfig.transmon_ratio(1.0)
        assert len(find_roots(model, c, Regime.WEAK, settings, stats=stats)) == 1
        assert stats.energies > 2401
        assert stats.samples == spectrum._CHEB_POINTS
        assert spectrum._proxy(c, settings).bins == {0.0}

    def test_boundary_crossing_raises(self, model, settings):
        c = CouplingConfig.stable_second_level(6.0)
        # outer root at b+3.54 sits in the last scan cell of this range
        with pytest.raises(ScanRangeError, match="widen"):
            find_roots(
                model, c, Regime.STABLE, settings,
                y_range=(model.b + 1.0, model.b + 3.545),
            )


def record_vector_calls(monkeypatch):
    """Energies of every array call to ``spectrum.sigma2``, in call order."""
    calls = []
    original = spectrum.sigma2

    def recording(y, *args, **kwargs):
        if np.ndim(y):
            calls.append(np.array(y))
        return original(y, *args, **kwargs)

    monkeypatch.setattr(spectrum, "sigma2", recording)
    return calls


def fake_sigma2(g):
    """``sigma2`` stand-in with ``F(y) = y - b - Delta_2`` equal to ``g(y - b)``
    (exactly 0 where ``g`` is) and a width so large, and growing with ``y``,
    that ``U`` has no local maximum."""

    def sigma(y, m, c, regime, s, *, stats=None):
        d = np.asarray(y, dtype=float) - m.b
        return (d - g(d)) - 5000j * np.exp(d)

    return sigma


class TestOneScan:
    """``build_grid`` and ``find_roots`` bracket roots on the same kind of
    scan; in FULL the grid's coarse points are the root scan's energies, and
    ``find_roots`` always makes that scan itself."""

    def test_grid_coarse_points_are_the_root_scan(self, model, settings, grids, monkeypatch):
        grid = grids.get(6.0, Regime.FULL)
        calls = record_vector_calls(monkeypatch)
        find_roots(model, CouplingConfig.transmon_ratio(6.0), Regime.FULL, settings)
        coarse = grid.energies[grid.refinement_level == 0]
        assert calls[0].size == coarse.size == 2401
        assert np.array_equal(calls[0], coarse)

    @pytest.mark.parametrize("regime, l2", [(Regime.FULL, 1.0), (Regime.STABLE, 6.0)])
    def test_default_window_is_b_plus_minus_12(self, model, settings, grids, regime, l2):
        if regime is Regime.STABLE:
            c = CouplingConfig.stable_second_level(l2)
        else:
            c = CouplingConfig.transmon_ratio(l2)
        window = (model.b - 12.0, model.b + 12.0)
        grid = build_grid(model, c, regime, window, settings)
        default = grids.get(l2, regime)
        for field in ("energies", "u_ff", "gamma2", "delta2", "refinement_level"):
            assert np.array_equal(getattr(grid, field), getattr(default, field)), field
        assert grid.complete == default.complete
        roots = find_roots(model, c, regime, settings, y_range=window)
        assert roots == find_roots(model, c, regime, settings)

    def test_point_count_when_the_step_does_not_divide_the_span(self, model, settings, monkeypatch):
        # 2.543 / 0.01 is 254.3 cells: the scan rounds it to 254 (a ceiling
        # would give 255); the outer root at b + 3.5429 is in the last cell
        c = CouplingConfig.stable_second_level(6.0)
        window = (model.b + 1.0, model.b + 3.543)
        calls = record_vector_calls(monkeypatch)
        with pytest.raises(ScanRangeError):
            find_roots(model, c, Regime.STABLE, settings, y_range=window)
        ys = spectrum._scan(model, c, Regime.STABLE, settings, window, 0.01, None)[0]
        assert calls[0].size == ys.size == 255
        assert np.array_equal(calls[0], ys)

    def test_exact_zero_crossing_gives_one_centre(self, model, settings, monkeypatch):
        # F is exactly 0 at the eleven scan points y - b = -5..5 and changes
        # sign there.  The six where it rises (F = +0 ends a negative cell) are
        # flagged by both cells that meet there, but each gives one refinement
        # centre: eleven centres, within the cap of 16, not seventeen
        def g(d):
            return np.where(np.abs(d - np.round(d)) < 1e-9, 0.0, -np.sin(np.pi * d))

        monkeypatch.setattr(spectrum, "sigma2", fake_sigma2(g))
        window = (model.b - 5.5, model.b + 5.5)
        _, _, f, cells = spectrum._scan(model, None, Regime.FULL, settings, window, 0.01, None)
        assert np.count_nonzero(f == 0.0) == 11 and cells.size == 17
        assert build_grid(model, None, Regime.FULL, window, settings).complete

    def test_zero_run_divides_nothing_by_zero(self, model, settings, monkeypatch):
        # F = 0 at every scan point: every cell brackets a root, and their
        # centres are the scan points themselves, beyond the cap
        monkeypatch.setattr(spectrum, "sigma2", fake_sigma2(np.zeros_like))
        window = (model.b - 4.5, model.b + 4.5)
        with np.errstate(divide="raise", invalid="raise"):
            grid = build_grid(model, None, Regime.FULL, window, settings)
        assert not grid.complete

    @pytest.mark.parametrize("grid_stats", [None, SigmaStats()], ids=["none", "other"])
    def test_another_recorder_rescans(self, model, settings, grid_stats):
        # find_roots scans for itself, so no caller's counts depend on an
        # earlier caller's grid
        c = CouplingConfig.transmon_ratio(6.0)
        build_grid(model, c, Regime.FULL, s=settings, stats=grid_stats)
        stats = SigmaStats()
        find_roots(model, c, Regime.FULL, settings, stats=stats)
        assert stats.energies > 2401

    @pytest.mark.parametrize(
        "change",
        ["y_range", "coupling", "regime", "settings"],
    )
    def test_any_other_scan_input_rescans(self, model, settings, change):
        c = CouplingConfig.transmon_ratio(6.0)
        args = {"m": model, "c": c, "regime": Regime.FULL, "s": settings}
        regime = Regime.FULL
        if change == "y_range":
            args["y_range"] = (model.b - 12.0, model.b + 12.5)
        elif change == "coupling":
            args["c"] = CouplingConfig.transmon_ratio(6.001)
        elif change == "regime":
            regime = Regime.WEAK  # find_roots' step 0.01 is the FULL grid's
        else:
            args["s"] = QuadratureSettings(abs_tol=2.0 * settings.abs_tol)
        stats = SigmaStats()
        build_grid(**args, stats=stats)
        before = stats.energies
        find_roots(model, c, regime, settings, stats=stats)
        assert stats.energies - before > 2401


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


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


def lorentzian(y):
    return (1e-3 / (2 * math.pi)) / ((y - 98.5) ** 2 + 0.25e-6)


def pedestal(y):
    return np.exp(-((y - 1.0) ** 2)) + np.where(y > 1.0, 0.9, 0.0)


def overshoot(y):  # U at 1.0 below half of a record height 2.5
    return 1.0 / (1.0 + (y - 1.0) ** 2)


def outcome(width_of, record, u):
    """``(width.hex(), complete)``, or ``(error type, message)``."""
    try:
        res = width_of(record, u)
    except (NumericalError, ValueError) as exc:
        return type(exc), str(exc)
    return res.width.hex(), res.complete


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
        rec = ResonanceRecord(y_r=1.0, kind="peak", height=1.0)
        res = fwhm(rec, pedestal)
        assert not res.complete
        assert res.width > 0

    def test_overshot_height_is_a_numerical_error(self):
        # a record taller than twice U at its location: no flank brackets half height
        rec = ResonanceRecord(y_r=1.0, kind="peak", height=2.5)
        with pytest.raises(NumericalError, match="under-resolves this peak"):
            fwhm(rec, overshoot)

    def test_rejects_flat_record(self):
        rec = ResonanceRecord(y_r=0.0, kind="peak", height=0.0)
        with pytest.raises(ValueError):
            fwhm(rec, lambda y: 0.0)

    def test_low_far_maxima_are_unresolved_poles(self, model, settings):
        """STABLE L2 = 49.5407 on b +- 15: the maxima near y - b = +-9.98,
        about 6e-26 high, are the flanks of two poles, not a negligible tail.

        At the roots y - b = +-9.979 of ``F = y - b - Delta_2`` the width is
        ~2e-41, so each is a Lorentzian far narrower than any grid step, and
        each carries the residue ``1/F'`` = 0.497 of the spectral weight.  The
        grid misses both (norm 0.005) yet reports itself complete.  So
        ``fwhm`` is right to refuse these maxima as under-resolved (the CLI
        exits 1), and leaving out low maxima would hide that weight."""
        c = CouplingConfig.stable_second_level(49.5407)
        window = (model.b - 15.0, model.b + 15.0)
        roots = find_roots(model, c, Regime.STABLE, settings, y_range=window)
        outer = [r.y_r for r in roots if abs(r.y_r - model.b) > 1.0]
        assert [y - model.b for y in outer] == pytest.approx([-9.979, 9.979], abs=1e-3)
        h = 1e-5
        for y in outer:
            assert -2.0 * sigma2(y, model, c, Regime.STABLE).imag < 1e-40
            ends = sigma2(np.array([y - h, y + h]), model, c, Regime.STABLE).real
            slope = 1.0 - (ends[1] - ends[0]) / (2.0 * h)  # F'(y_r)
            assert 1.0 / slope == pytest.approx(0.497, abs=1e-3)
        grid = build_grid(model, c, Regime.STABLE, window, settings)
        assert grid.complete
        assert np.trapezoid(grid.u_ff, grid.energies) < 0.01


class TestFwhmLadder:
    """``fwhm`` evaluates both flank ladders in one vector call and seeds
    Brent with them; ``fwhm_sequential`` walks each flank one scalar call at
    a time.  Widths agree bit for bit, and flags and errors alike."""

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_every_peak_of_the_shipped_configs(self, config):
        cfg = load_config(config)
        grid = build_grid(cfg.model, cfg.coupling, cfg.regime, _y_range(cfg))
        u = spectral_callable(cfg.model, cfg.coupling, cfg.regime)
        peaks = find_peaks(grid)
        assert peaks
        for p in peaks:
            found = outcome(fwhm, p, u)
            assert isinstance(found[0], str)
            assert found == outcome(fwhm_sequential, p, u)

    @pytest.mark.parametrize(
        "u, record",
        [
            (lorentzian, ResonanceRecord(98.5, "peak", lorentzian(98.5))),
            (pedestal, ResonanceRecord(1.0, "peak", 1.0)),  # one flank incomplete
            (overshoot, ResonanceRecord(1.0, "peak", 2.5)),  # under-resolved
        ],
        ids=["lorentzian", "pedestal", "overshoot"],
    )
    def test_synthetic_peaks(self, u, record):
        assert outcome(fwhm, record, u) == outcome(fwhm_sequential, record, u)

    def test_unresolved_poles_raise_alike(self, model):
        # STABLE L2 = 49.5407 on b +- 15 (TestFwhm.test_low_far_maxima_are_unresolved_poles)
        c = CouplingConfig.stable_second_level(49.5407)
        grid = build_grid(model, c, Regime.STABLE, (model.b - 15.0, model.b + 15.0))
        u = spectral_callable(model, c, Regime.STABLE)
        peaks = find_peaks(grid)
        found = [outcome(fwhm, p, u) for p in peaks]
        assert found == [outcome(fwhm_sequential, p, u) for p in peaks]
        assert any(f[0] is NumericalError and "under-resolves" in f[1] for f in found)


class TestResonanceRecord:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            ResonanceRecord(y_r=0.0, kind="blip", height=1.0)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            ResonanceRecord(y_r=0.0, kind="root", height=-1.0)


class TestSweep:
    def test_crossover_bisection(self, model, settings):
        result = sweep_coupling(model, Regime.STABLE, [0.1, 0.5], settings)
        assert result.crossover_estimate is not None
        # analytic tangency of the root condition: 4 L2 D'(0) = 1
        assert result.crossover_estimate == pytest.approx(0.25, abs=2e-3)

    def test_root_counts_increase_with_coupling(self, model, settings):
        result = sweep_coupling(model, Regime.STABLE, [0.1, 6.0], settings)
        counts = [len(recs) for recs in result.records_per_l2]
        assert counts == [1, 3]

    def test_full_sweep_into_strong_coupling(self, model, settings):
        # up to L2 = 30, where K's outer poles are 1e-16 from the real axis
        result = sweep_coupling(model, Regime.FULL, np.geomspace(0.05, 30.0, 12), settings)
        assert [len(recs) for recs in result.records_per_l2] == [1] * 7 + [5] * 5
        assert result.crossover_estimate == pytest.approx(2.0932, abs=2e-3)
        for recs in result.records_per_l2:
            roots = [r.y_r - model.b for r in recs]
            assert roots == pytest.approx([-x for x in reversed(roots)], abs=1e-6)

    def test_rejects_nonpositive_values(self, model, settings):
        with pytest.raises(ValueError):
            sweep_coupling(model, Regime.STABLE, [0.0, 1.0], settings)

    def test_window_and_stats_reach_every_find_roots_call(self, model, settings, monkeypatch):
        from transmon_decay import resonances

        calls = []

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return find_roots(*args, **kwargs)

        monkeypatch.setattr(resonances, "find_roots", recording)
        window, stats = (model.b - 20.0, model.b + 20.0), SigmaStats()
        result = sweep_coupling(
            model, Regime.STABLE, [0.1, 80.0], settings, y_range=window, stats=stats
        )
        # two sweep values and the crossover bisection from 0.1 to 80 in steps of 1e-3
        assert len(calls) > 2 + 15
        assert all(kw == {"y_range": window, "stats": stats} for kw in calls)
        # the outer roots at y - b = +-12.669 lie inside b +- 20 only
        assert [r.y_r - model.b for r in result.records_per_l2[1]] == pytest.approx(
            [-12.669, 0.0, 12.669], abs=1e-3
        )
        # each call scans b +- 20 at step 0.01
        assert stats.energies >= len(calls) * 4001


class TestSpectralCallable:
    def test_matches_direct_evaluation(self, model, settings):
        c = CouplingConfig.stable_second_level(1.0)
        u = spectral_callable(model, c, Regime.STABLE, settings)
        from transmon_decay import spectral_function

        y = model.b + 0.3
        assert u(y) == pytest.approx(
            float(spectral_function(y, model, c, Regime.STABLE, settings)), rel=1e-14
        )
