import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from transmon_decay import (
    Regime,
    SurvivalSeries,
    build_grid,
    rabi_metrics,
    survival_amplitude,
)
from transmon_decay.config import load_config
from transmon_decay.model import NumericalError
from transmon_decay.spectrum import SpectralGrid
from transmon_decay.time_domain import TimeHorizonError, grid_horizon

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def lorentzian_grid(gamma: float, y0: float = 98.5, span: float = 400.0, n: int = 40001):
    """Uniform grid holding a single normalized Lorentzian of FWHM ``gamma``."""
    y = np.linspace(y0 - span * gamma, y0 + span * gamma, n)
    u = (gamma / (2 * math.pi)) / ((y - y0) ** 2 + 0.25 * gamma * gamma)
    return SpectralGrid(
        energies=y,
        u_ff=u,
        gamma2=np.full(n, gamma),
        delta2=np.zeros(n),
        refinement_level=np.zeros(n, dtype=int),
        y_ref=y0,
    )


def doublet_grid(split: float, gamma: float, y0: float = 98.5, n: int = 40001):
    """Two equal Lorentzians at ``y0 +- split/2``: a pure beat spectrum."""
    span = max(60.0 * gamma + split, 4.0 * split)
    y = np.linspace(y0 - span, y0 + span, n)
    u = np.zeros_like(y)
    for s in (-0.5 * split, 0.5 * split):
        u += 0.5 * (gamma / (2 * math.pi)) / ((y - y0 - s) ** 2 + 0.25 * gamma * gamma)
    return SpectralGrid(
        energies=y,
        u_ff=u,
        gamma2=np.full(len(y), gamma),
        delta2=np.zeros(len(y)),
        refinement_level=np.zeros(len(y), dtype=int),
        y_ref=y0,
    )


def config_grid(name: str):
    """The CLI's energy grid and time grid for ``configs/<name>.ini``."""
    cfg = load_config(str(CONFIGS / f"{name}.ini"))
    b = cfg.model.b
    grid = build_grid(cfg.model, cfg.coupling, cfg.regime, (b - cfg.grid_span, b + cfg.grid_span))
    return grid, np.linspace(0.0, cfg.t_max, cfg.t_steps)


def direct_sum(grid: SpectralGrid, times, dtype=float) -> np.ndarray:
    """Reference route: one complex exponential per (time, energy) term,
    ``exp(-i outer(t, y)) @ (w u)`` with trapezoid weights, 200 times a block,
    in ``dtype`` (``np.longdouble``: extended precision over the same float64
    inputs)."""
    y = (grid.energies - grid.y_ref).astype(dtype)
    dy = np.diff(y)
    w = np.zeros_like(y)
    w[:-1] += 0.5 * dy
    w[1:] += 0.5 * dy
    wu = w * grid.u_ff
    times = np.asarray(times, dtype=dtype)
    blocks = [times[i : i + 200] for i in range(0, len(times), 200)]
    return np.concatenate([np.exp(-1j * np.outer(t, y)) @ wu for t in blocks]).astype(complex)


class TestFactorisedSum:
    """``survival_amplitude``, a gridded nonuniform FFT, against direct sums."""

    @pytest.mark.parametrize("name", ["stable_l2_6", "full_l2_6", "oracle_l2_1"])
    def test_config_grids_match_direct_sum(self, name):
        grid, times = config_grid(name)
        series = survival_amplitude(grid, times)
        assert np.max(np.abs(series.amplitude - direct_sum(grid, times))) <= 1e-13
        assert np.array_equal(series.magnitude, np.abs(series.amplitude))
        assert series.horizon == grid_horizon(grid)

    # bound, and the largest error measured on every 97th time: on the STABLE
    # grid the linspace times, up to 3.5e-15 off t_0 + i dt, set it (module
    # docstring); the kernel's own error is ~1.7e-15
    @pytest.mark.parametrize(
        "name, bound",
        [
            ("stable_l2_6", 3e-14),  # measured 1.20e-14
            ("full_l2_6", 2.5e-15),  # measured 8.9e-16
            ("oracle_l2_1", 1e-15),  # measured 3.0e-16
        ],
    )
    def test_config_grids_match_longdouble_sum(self, name, bound):
        grid, times = config_grid(name)
        rows = np.arange(0, len(times), 97)
        series = survival_amplitude(grid, times)
        want = direct_sum(grid, times[rows], np.longdouble)
        assert np.max(np.abs(series.amplitude[rows] - want)) <= bound

    @pytest.mark.parametrize(
        "times",
        [
            np.linspace(5.0, 20.0, 3001),  # offset start, as in criterion 8's tail
            np.linspace(0.0, 15.0, 2399),  # odd T: modes -1199 ... 1199
            np.linspace(0.0, 15.0, 2401),
            np.arange(500) * 0.03,  # uniform but not from linspace
            *(np.linspace(0.0, 15.0, n) for n in (26, 27, 28, 3375, 3376)),
            np.linspace(100.0, 0.0, 200),  # decreasing: dt < 0
            # dt * span of y = 12.06 > 2 pi: the phases wrap between steps
            np.linspace(0.0, 100.0, 200),
        ],
    )
    def test_full_grid_matches_direct_sum(self, grids, times):
        grid = grids.get(6.0, Regime.FULL)
        series = survival_amplitude(grid, times)
        assert np.max(np.abs(series.amplitude - direct_sum(grid, times))) <= 1e-13

    def test_single_time(self):
        grid = lorentzian_grid(0.05, n=2001)
        series = survival_amplitude(grid, np.array([0.0]))
        assert series.amplitude.shape == (1,)
        assert abs(series.amplitude[0] - direct_sum(grid, [0.0])[0]) <= 1e-15
        assert series.magnitude[0] == pytest.approx(1.0, abs=1e-3)

    def test_no_times(self):
        grid = lorentzian_grid(0.05, n=2001)
        series = survival_amplitude(grid, np.array([]))
        assert series.times.shape == series.amplitude.shape == series.magnitude.shape == (0,)
        assert series.amplitude.dtype == complex
        assert series.horizon == grid_horizon(grid)

    @pytest.mark.parametrize("kind", ["geomspace", "moved"])
    def test_nonuniform_times_rejected(self, kind):
        grid = lorentzian_grid(0.05, n=2001)
        if kind == "geomspace":
            times = np.geomspace(1e-3, 5.0, 101)
        else:
            times = np.linspace(0.0, 5.0, 101)
            times[37] += 1e-6
        with pytest.raises(ValueError, match="uniform grid"):
            survival_amplitude(grid, times)

    @hyp_settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=20.0, exclude_min=True),
        st.integers(min_value=1, max_value=700),
    )
    # subnormal span: linspace's last sample is 14 subnormal ulps off t0 + (n-1)*dt
    @example(t0=0.0, span=2.225073858507e-311, n=39)
    def test_direct_sum_agreement_property(self, t0, span, n):
        grid = doublet_grid(split=2.0, gamma=0.02, n=4001)
        times = np.linspace(t0, t0 + span, n)
        series = survival_amplitude(grid, times)
        assert np.max(np.abs(series.amplitude - direct_sum(grid, times))) <= 1e-12
        if t0 == 0.0:
            assert abs(series.magnitude[0] - 1.0) <= 1e-3

    def test_allocation_peak_stays_below_6_mb(self):
        # the spread holds ~4 temporaries of 4096 x 25 doubles (0.8 MB each)
        # and the rest is O(N + T): 4.4 MB for T = 4000, N = 14311, where one
        # T x N complex temporary would take 916 MB
        grid, times = config_grid("stable_l2_6")
        tracemalloc.start()
        try:
            survival_amplitude(grid, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestSurvivalAmplitude:
    def test_unit_magnitude_at_t0(self):
        grid = lorentzian_grid(0.05)
        series = survival_amplitude(grid, np.linspace(0.0, 5.0, 101))
        assert series.magnitude[0] == pytest.approx(1.0, abs=1e-3)

    def test_lorentzian_envelope(self):
        gamma = 0.5
        grid = lorentzian_grid(gamma)
        t = np.linspace(0.0, 6.0, 61)
        series = survival_amplitude(grid, t)
        want = np.exp(-0.5 * gamma * t)
        assert np.max(np.abs(series.magnitude - want) / want) < 0.01

    def test_beat_pattern(self):
        grid = doublet_grid(split=2.0, gamma=0.02)
        t = np.linspace(0.0, 20.0, 4001)
        series = survival_amplitude(grid, t)
        # |U(t)| ~ e^{-gamma t/2} |cos(split * t / 2)|
        want = np.exp(-0.01 * t) * np.abs(np.cos(t))
        assert np.max(np.abs(series.magnitude - want)) < 0.02

    def test_horizon_enforced(self):
        grid = lorentzian_grid(0.05, n=2001)
        horizon = grid_horizon(grid)
        with pytest.raises(TimeHorizonError) as err:
            survival_amplitude(grid, np.array([0.0, 2.0 * horizon]))
        assert err.value.horizon == pytest.approx(horizon)

    def test_horizon_enforced_for_negative_times(self):
        # the horizon bounds |t|: here e^{-gamma |t|/2} <= 0.0197, while the
        # aliased sum returns |U| up to 0.143
        grid = lorentzian_grid(0.05, n=2001)
        horizon = grid_horizon(grid)
        assert horizon == pytest.approx(78.54, abs=0.01)
        with pytest.raises(TimeHorizonError):
            survival_amplitude(grid, np.linspace(-3.0 * horizon, -2.0 * horizon, 11))

    def test_underresolved_grid_rejected(self):
        # 11 samples cannot carry the unit spectral mass: t=0 validation trips
        grid = lorentzian_grid(0.05, span=2000.0, n=11)
        with pytest.raises(NumericalError, match="magnitude"):
            survival_amplitude(grid, np.array([0.0]))


class TestRabiMetrics:
    def test_pure_beat_uses_revival_convention(self):
        split = 2.0
        grid = doublet_grid(split=split, gamma=0.02)
        t = np.linspace(0.0, 30.0, 6001)
        metrics = rabi_metrics(survival_amplitude(grid, t))
        # magnitude maxima repeat at half the revival period for a symmetric doublet
        assert metrics.maxima_spacing == pytest.approx(2 * math.pi / split, rel=0.02)
        assert metrics.rabi_period == pytest.approx(4 * math.pi / split, rel=0.02)
        assert metrics.angular_rabi_frequency == pytest.approx(0.5 * split, rel=0.02)

    def test_decay_time_from_envelope(self):
        gamma = 0.4
        grid = lorentzian_grid(gamma)
        t = np.linspace(0.0, 8.0, 201)
        metrics = rabi_metrics(survival_amplitude(grid, t))
        assert metrics.rabi_period is None
        # probability e-folding time of a Lorentzian line is 1/gamma
        assert metrics.decay_time == pytest.approx(1.0 / gamma, rel=0.02)

    def test_too_short_series_raises(self):
        with pytest.raises(ValueError, match="too short"):
            rabi_metrics(
                SurvivalSeries(
                    times=np.array([0.0]),
                    amplitude=np.array([1.0 + 0.0j]),
                    magnitude=np.array([1.0]),
                )
            )
