import math

import mpmath
import numpy as np
import pytest
from conftest import coupling_for
from reference_routes import merge_union
from scipy.special import dawsn as dawson

from transmon_decay import (
    CouplingConfig,
    Regime,
    SpectralGrid,
    build_grid,
    find_roots,
    sigma1,
    sigma2,
    spectral_function,
)
from transmon_decay import spectrum
from transmon_decay.model import NumericalError
from transmon_decay.spectrum import _dawson, _faddeeva, _resonant_offsets, regime_for

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

    def test_keeps_scipy_dawsn_bit_for_bit(self, model):
        # the one route left on scipy.  spectrum._dawson is ~45 times slower
        # on a scan table and ~150 times per float, and the benchmark's
        # frozen STABLE gate holds the doublet's parabola heights, which a
        # Dawson function that rounds otherwise can move by a step of ~2.
        # The pin goes once 5(a) refreshes that reference (ROADMAP 13)
        l2 = 6.0
        ys = model.b + np.linspace(-12.0, 12.0, 2401)
        x = ys - model.b
        want = np.empty(x.shape, dtype=complex)
        want.real = 4.0 * l2 * dawson(x)
        want.imag = -2.0 * SQRT_PI * l2 * np.exp(-(x**2))
        got = sigma2(ys, model, CouplingConfig.stable_second_level(l2), Regime.STABLE)
        assert got.tobytes() == want.tobytes()


def mp_dawson(z) -> complex:
    """``D(z) = (sqrt(pi)/2) e^{-z^2} erfi(z)`` to 40 digits."""
    with mpmath.workdps(40):
        z = mpmath.mpmathify(z)
        return complex(mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-z * z) * mpmath.erfi(z))


def max_rel_error(got, want) -> float:
    return float(np.max(np.abs(got - want) / np.abs(want)))


def unguarded_dawson(z):
    """``spectrum._dawson`` without its guards: no ``+-inf`` case, and the
    Maclaurin series evaluated at every argument."""
    z = np.asarray(z)
    flip = np.signbit(z.real)
    a = np.where(flip, -z, z)
    a2, series = a * a, 0.0
    for coef in spectrum._DAWSON_SERIES[::-1]:
        series = series * a2 + coef
    n0 = 2.0 * np.floor(a.real / (2.0 * spectrum._DAWSON_H) + 0.5)
    t = (a - n0 * spectrum._DAWSON_H)[..., None] - spectrum._DAWSON_N * spectrum._DAWSON_H
    sampled = (np.exp(-t * t) / (n0[..., None] + spectrum._DAWSON_N)).sum(axis=-1) / SQRT_PI
    d = np.where(abs(a) < 0.2, a * series, sampled)
    return np.where(flip, -d, d)[()]


def hexes(values) -> list[str]:
    values = np.asarray(values, dtype=complex).ravel().tolist()
    return [part.hex() for v in values for part in (v.real, v.imag)]


class TestDawson:
    """``spectrum._dawson``, Rybicki's sum with the Maclaurin series below
    ``|z| = 0.2``, against 40-digit mpmath."""

    REAL = np.concatenate(
        [
            np.linspace(-12.0, 12.0, 240),
            [np.nextafter(0.2, 0.0), 0.2, np.nextafter(0.2, 1.0)],  # the branch edge
            np.linspace(0.01, 0.3, 59),  # the series below 0.2, the m = +-1 samples above
            np.geomspace(1e-300, 1e-3, 30),  # D(x) = x to double precision
            np.geomspace(12.0, 1e3, 30),  # D(x) ~ 1/(2x)
        ]
    )
    REAL = np.concatenate([REAL, -REAL])
    _rng = np.random.default_rng(7)
    STRIP = np.concatenate(
        [
            _rng.uniform(-12.0, 12.0, 300) + 1j * _rng.uniform(-1.0, 1.0, 300),
            _rng.uniform(-0.3, 0.3, 100) + 1j * _rng.uniform(-0.3, 0.3, 100),
            1j * np.linspace(-1.0, 1.0, 20),
        ]
    )

    def test_real_axis(self):
        want = np.array([mp_dawson(float(x)).real for x in self.REAL])
        assert max_rel_error(_dawson(self.REAL), want) <= 1.5e-15

    def test_strip(self):
        want = np.array([mp_dawson(complex(z)) for z in self.STRIP])
        assert max_rel_error(_dawson(self.STRIP), want) <= 3e-15

    def test_guards_leave_finite_values_bit_identical(self):
        for z in (self.REAL, self.STRIP):
            assert hexes(_dawson(z)) == hexes(unguarded_dawson(z))
            assert hexes([_dawson(v) for v in z.tolist()]) == hexes(unguarded_dawson(z))

    def test_infinities_and_large_arguments(self):
        # as scipy's dawsn: D(+-inf) = +-0, and no warning (the suite makes
        # warnings errors) from the series, which overflowed from |x| ~ 1e19
        assert hexes(_dawson(np.array([np.inf, -np.inf]))) == hexes([0.0, -0.0])
        assert hexes([_dawson(math.inf), _dawson(-math.inf)]) == hexes(dawson([np.inf, -np.inf]))
        x = np.array([1e19, 1e20, 1e100, 1e300])
        assert _dawson(x) == pytest.approx(0.5 / x, rel=1e-15)
        assert np.isnan(_dawson(math.nan))

    def test_asymptote_from_1e8(self):
        # from |x| = 1e8 a real D(x) is 1/(2x), within 0.75 ulp: the squared
        # samples overflowed there with a warning (an error in this suite)
        # and gave 0.0 at 1e307; below 1e8 the sampling sum keeps every bit
        x = np.concatenate([np.geomspace(1e8, 1.7e308, 97), [np.finfo(float).max]])
        x = np.concatenate([x, -x])
        assert hexes(_dawson(x)) == hexes(0.5 / x)
        assert hexes([_dawson(v) for v in x.tolist()]) == hexes(0.5 / x)
        for v in (1e8, 3.7e8, 1e12, 1e200):
            want = mp_dawson(v).real
            assert abs(_dawson(v) - want) <= 0.75 * np.spacing(want)
        below = np.array([5e7, 9.99e7, np.nextafter(1e8, 0.0)])
        assert hexes(_dawson(below)) == hexes(unguarded_dawson(below))

    def test_sigma1_is_finite_at_infinite_energies(self, model):
        c = CouplingConfig.transmon_ratio(6.0)
        got = sigma1(np.array([np.inf, -np.inf]), 48.0, model, c)
        assert np.isfinite(got).all() and np.array_equal(got, [0.0, 0.0])
        assert hexes(got.real) == hexes([0.0, -0.0])

    def test_exactly_odd(self):
        rng = np.random.default_rng(8)
        xs = np.concatenate([rng.uniform(-30.0, 30.0, 500), rng.uniform(-0.3, 0.3, 100)])
        zs = xs + 1j * rng.uniform(-1.0, 1.0, xs.size)
        for z in (xs, zs, np.array([0.0, 0.2, 1e-300, 1j, 0.1j])):
            assert _dawson(-z).tobytes() == (-_dawson(z)).tobytes()

    def test_scalar_is_the_array_element(self):
        # sigma1 and the kernel get the same value for an energy alone or in an array
        xs = np.linspace(-15.0, 15.0, 300)
        assert np.array_equal([_dawson(x) for x in xs.tolist()], _dawson(xs))
        assert isinstance(_dawson(0.5), float) and _dawson(xs.reshape(3, -1)).shape == (3, 100)

    def test_faddeeva(self):
        rng = np.random.default_rng(9)
        zs = rng.uniform(-10.0, 10.0, 100) + 1j * rng.uniform(-0.5, 0.5, 100)
        with mpmath.workdps(40):
            want = [complex(mpmath.exp(-z * z) * mpmath.erfc(-1j * z)) for z in map(mpmath.mpc, zs)]
        got = [_faddeeva(complex(z)) for z in zs]
        assert max_rel_error(np.array(got), np.array(want)) <= 2e-15


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

    def test_lineshape_of_a_float_at_zero_width(self):
        # the float branch of a scalar U raises where the array branch does,
        # and divides as numpy does where only the width's square underflows
        for d, value in ((0.0, complex(0.0, -0.0)), (np.zeros(2), np.array([1 - 1j, -0j]))):
            with pytest.raises(NumericalError, match="delta distribution"):
                spectrum._lineshape(d, value)
        with np.errstate(divide="ignore"):
            one = spectrum._lineshape(0.0, complex(0.0, -1e-200))[0]
            many = spectrum._lineshape(np.zeros(1), np.array([complex(0.0, -1e-200)]))[0]
        assert one == many[0] == np.inf


class TestSumRules:
    """The moments ``M_n = int (y - b)^n U dy`` are the matrix elements
    ``<f|(H - b)^n|f>``, closed-form with no self-energy, grid rule or
    quadrature: ``M_0 = 1``, ``M_2 = 2 L_2`` and
    ``M_4 = 4 L_2^2 + L_2 + 4 L_1 L_2`` (``L_1 = 0`` in STABLE), from the
    return path, the second-level band and the two-photon states."""

    @pytest.mark.parametrize(
        "l2, regime",
        [(6.0, Regime.FULL), (6.0, Regime.STABLE), (1.0, Regime.FULL)],
        ids=["full_l2_6", "stable_l2_6", "oracle_l2_1"],
    )
    def test_moments_on_the_shipped_grids(self, grids, l2, regime):
        # the grids of configs/*.ini, trapezoid moments: M_4 is 245.996 of
        # 246, 150.005 of 150 and 7.666667 of 23/3
        grid = grids.get(l2, regime)
        l1 = coupling_for(l2, regime).l1 if regime is Regime.FULL else 0.0
        d = grid.energies - grid.y_ref
        moments = [np.trapezoid(d**n * grid.u_ff, grid.energies) for n in (0, 2, 4)]
        exact = [1.0, 2.0 * l2, 4.0 * l2 * l2 + l2 + 4.0 * l1 * l2]
        np.testing.assert_allclose(moments, exact, rtol=1e-4)


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

    @pytest.mark.parametrize("regime", list(Regime))
    def test_window_with_nothing_to_refine(self, model, settings, regime):
        # on b + 20..30 F has no root and U no maximum, so the refinement
        # asks sigma2 for an empty array of energies
        c = CouplingConfig.stable_second_level(6.0)
        if regime is not Regime.STABLE:
            c = CouplingConfig.transmon_ratio(6.0)
        grid = build_grid(model, c, regime, (model.b + 20.0, model.b + 30.0), settings)
        assert grid.complete and not grid.refinement_level.any()
        assert sigma2(np.array([]), model, c, regime, settings).shape == (0,)

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


class TestMerge:
    """``build_grid`` merges its coarse and refinement energies by one stable
    sort (``spectrum._merge``), as the union and membership tests of
    ``merge_union`` did."""

    def test_hits_and_near_hits_of_coarse_points(self):
        ys = np.linspace(86.5, 110.5, 12001)
        hit = ys[::97]
        near = np.concatenate([hit + 5e-13, hit - 5e-13, hit + 1e-12, hit - 2e-12])
        rng = np.random.default_rng(12)
        extra = np.concatenate([hit, near, rng.uniform(80.0, 117.0, 4000), [86.5, 110.5]])
        extra = np.concatenate([extra, extra[:50]])  # refinement points met twice
        rng.shuffle(extra)
        got, want = spectrum._merge(ys, extra), merge_union(ys, extra)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        assert np.all(np.diff(got[0]) > 1e-12)
        kept = got[1] >= 0
        assert np.array_equal(ys[got[1][kept]], got[0][kept])

    @pytest.mark.parametrize(
        "regime, l2", [(Regime.STABLE, 6.0), (Regime.FULL, 6.0), (Regime.FULL, 20.0)]
    )
    def test_grid_is_the_union_merge_grid(self, model, settings, grids, regime, l2, monkeypatch):
        monkeypatch.setattr(spectrum, "_merge", merge_union)
        want = build_grid(model, coupling_for(l2, regime), regime, s=settings)
        got = grids.get(l2, regime)
        for field in ("energies", "u_ff", "gamma2", "delta2", "refinement_level"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        assert got.complete == want.complete
