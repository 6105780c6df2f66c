"""The complex second-level self-energy ``sigma2`` and its FULL-regime
Gauss-Kronrod evaluator, checked against adaptive ``quad`` where it
converges, 30-digit ``mpmath`` quadrature at strong coupling and the closed
form of the near-real pole's spike."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st
from numpy.polynomial import legendre
from scipy import integrate

from transmon_decay import (
    CouplingConfig,
    QuadratureError,
    QuadratureSettings,
    Regime,
    SigmaStats,
    build_grid,
    sigma2,
    spectral_function,
)
from transmon_decay import spectrum
from transmon_decay.spectrum import (
    _full_sigma2,
    _chebyshev,
    _kronrod_rule,
    _node_set,
    _resonant_offsets,
    _window,
)

from reference_routes import _full_integrals

SQRT_PI = math.sqrt(math.pi)
SCAN_TERMS = 2886492  # node terms of the 2401-energy FULL scan on b +- 12 at L2 = 6
PIECE_TERMS = 372456  # node terms of the 312 samples of its 13 proxy pieces
# tight enough that quad's own error stays well below 1e-12 of max |Sigma_2|;
# at (1e-13, 1e-12) quad is itself off by 1.3e-12 of it at L2 = 6, y - b = 2.25
TIGHT = QuadratureSettings(abs_tol=1e-15, rel_tol=1e-13)


def quad_sigma2(d, c, s=TIGHT):
    shift, width, _, _ = _full_integrals(d, c, s, limit=1000)
    return complex(2.0 * c.l2 / SQRT_PI * shift, -4.0 * c.l1 * c.l2 * width)


def bin_cover(d: float) -> float:
    """The cover of the node set the FULL sum uses at detuning ``d``."""
    k = math.floor(d)
    return 24.0 * math.ceil(max(-k, k + 1) / 24.0)


def full_width_sigma2(ds, c, s):
    """FULL ``Sigma_2`` and its error estimate summed over every node of
    each energy's node set: ``e^{-(d - x)^2}`` at every column, the five
    weighted row sums, the panel Kronrod-Gauss differences and the pole
    term, written out without any window."""
    value, error = np.empty(ds.shape, dtype=complex), np.empty(ds.shape)
    for i, d in enumerate(ds):
        nodes = _node_set(c.l1, bin_cover(d))
        g = np.exp(-((d - nodes.x) ** 2))
        re, im, d_re, d_im, rounding = (g * w for w in nodes.weights)
        pole = nodes.correction * np.exp(-((d - nodes.pole) ** 2))
        mirror = np.conj(nodes.correction) * np.exp(-((d + np.conj(nodes.pole)) ** 2))
        value[i] = re.sum() + 1j * im.sum() + pole - mirror
        panels = np.hypot(d_re.reshape(-1, 21).sum(axis=1), d_im.reshape(-1, 21).sum(axis=1))
        error[i] = panels.sum() + rounding.sum()
    pref = 2.0 * c.l2 / SQRT_PI
    return pref * value, pref * error


def mpmath_sigma2(d: float, l2: float) -> complex:
    """FULL Sigma_2 at ``y - b = d`` by 30-digit tanh-sinh quadrature of
    ``(2 L2/sqrt(pi)) int e^{-(d - x)^2} / (x - Sigma_1(x)) dx`` on
    ``d +- 12``, split at the fixed points, where the spikes sit."""
    with mpmath.workdps(30):
        l1 = mpmath.mpf(2) * l2 / 3
        root_pi = mpmath.sqrt(mpmath.pi)

        def integrand(x):
            sigma1 = 2 * root_pi * l1 * mpmath.exp(-x * x) * (mpmath.erfi(x) - 1j)
            return mpmath.exp(-((d - x) ** 2)) / (x - sigma1)

        splits = [u for u in _resonant_offsets(float(l1)) if abs(u - d) < 12.0]
        value = mpmath.quad(integrand, [d - 12.0, *splits, d + 12.0])
        return complex(2 * l2 / root_pi * value)


def spike_im_sigma2(d: float, l2: float) -> float:
    """``Im Sigma_2`` from the near-real pole pair alone: the pole ``z`` of
    ``K`` next to the fixed point ``u`` (40-digit Newton) with residue ``r``
    gives ``int e^{-(d - x)^2} r/(x - z) dx = -i pi r w(d - z)``, and the
    mirror pole ``-conj(z)`` has residue ``conj(r)``.  Where the spike is
    narrower than double precision and ``|d|`` is far from the support of
    ``e^{-x^2}``, nothing else in ``K`` adds to ``Im Sigma_2``."""
    with mpmath.workdps(40):
        l1 = mpmath.mpf(2) * l2 / 3
        root_pi = mpmath.sqrt(mpmath.pi)

        def w(z):
            return mpmath.exp(-z * z) * mpmath.erfc(-1j * z)

        def h(z):
            return z + 2j * root_pi * l1 * w(z)

        z = mpmath.findroot(h, mpmath.mpc(_resonant_offsets(float(l1))[-1]))
        r = 1 / (1 - 4 * l1 - 4j * root_pi * l1 * z * w(z))
        spikes = r * w(d - z) + mpmath.conj(r) * w(d + mpmath.conj(z))
        return float((2 * l2 / root_pi * -1j * mpmath.pi * spikes).imag)


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

    def test_cached_arrays_are_read_only(self, settings):
        # a write into a cached array would change every later Sigma_2
        nodes = _node_set(CouplingConfig.transmon_ratio(6.0).l1, 24.0)
        for array in (*_kronrod_rule(), *_chebyshev(), nodes.x, nodes.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestAgainstQuad:
    @pytest.mark.parametrize("l2", [1e-3, 0.05, 0.375, 6.0])
    def test_matches_tight_quad(self, model, l2):
        # 0.375 is where 4 L1 = 1 and the three fixed points merge; the seed
        # applied abs_tol before the width prefactor and was 5x off in the tail
        c = CouplingConfig.transmon_ratio(l2)
        ds = np.append(np.linspace(-12.0, 12.0, 97), 7.44658)
        got = sigma2(model.b + ds, model, c, Regime.FULL)
        want = np.array([quad_sigma2((model.b + d) - model.b, c) for d in ds])
        scale = np.abs(want).max()
        assert np.abs(got - want).max() <= 1e-12 * scale

    def test_tail_width_at_reference_point(self, model):
        c = CouplingConfig.transmon_ratio(6.0)
        y = model.b + 7.44658
        width = -2.0 * sigma2(y, model, c, Regime.FULL).imag
        assert width == pytest.approx(2.729e-8, rel=1e-3)

    @pytest.mark.parametrize(
        "l2, d, expected",
        [
            (20.0, -6.8, -17.59270063437 - 2.80924851565j),
            (20.0, 2.0, -3.237012048010 - 0.247156578715j),
            (20.0, 9.6, 6.006609187094 - 1.53737427768e-7j),
            (12.0, -4.07, None),
            (12.0, 1.0, None),
            (12.0, 8.0, None),
        ],
        ids=["20:-6.8", "20:2", "20:9.6", "12:-4.07", "12:1", "12:8"],
    )
    def test_strong_coupling_matches_mpmath(self, model, settings, l2, d, expected):
        # K's outer poles sit 3.6e-11 (L2 = 20) and 9e-7 (L2 = 12) below the
        # real axis; quad misses the first one's weight
        c = CouplingConfig.transmon_ratio(l2)
        ys = model.b + np.array([d, -d])
        got = sigma2(ys, model, c, Regime.FULL, settings)
        want = mpmath_sigma2(ys[0] - model.b, l2)
        if expected is not None:
            assert want == pytest.approx(expected, rel=1e-11)
        tol = max(settings.abs_tol, settings.rel_tol * abs(want))
        for value in (got[0], -np.conj(got[1])):
            assert abs(value - want) <= tol
            assert abs(value.imag - want.imag) <= 1e-11 * abs(want.imag)

    @pytest.mark.parametrize("l2, weight", [(40.0, -0.420598), (60.0, None)], ids=["40", "60"])
    def test_spike_weight_beyond_double_precision(self, model, settings, l2, weight):
        # at L2 = 40 the outer spikes are 1.9e-22 wide and mpmath's own
        # quadrature misses them (-4e-7 at d = 9.6); the closed form does not
        c = CouplingConfig.transmon_ratio(l2)
        ys = model.b + np.array([9.6, -9.6, 10.5])
        got = sigma2(ys, model, c, Regime.FULL, settings).imag
        want = [spike_im_sigma2(y - model.b, l2) for y in ys]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        if weight is not None:
            assert want[0] == pytest.approx(weight, rel=1e-5)

    def test_pole_narrower_than_any_double(self, model, settings):
        # Im z, below 1e-250 from L2 ~ 440 on, is held there; at L2 = 1000
        # the fixed point u = 36.5 also lies past the default cover of 34
        c = CouplingConfig.transmon_ratio(1000.0)
        ys = model.b + np.array([36.0, 38.0, -38.0, 40.0])
        got = sigma2(ys, model, c, Regime.FULL, settings).imag
        want = [spike_im_sigma2(y - model.b, 1000.0) for y in ys]
        np.testing.assert_allclose(got, want, rtol=1e-11)

    def test_node_set_stays_small_at_near_real_pole(self):
        # the bisection judges K without its pole, so a spike narrower than
        # the spacing of doubles costs no panels; 2310 nodes was the old
        # size at L2 = 6
        for l2 in (0.3751, 1.0, 6.0, 12.0, 20.0, 40.0, 60.0):
            l1 = CouplingConfig.transmon_ratio(l2).l1
            assert _node_set(l1, 24.0).x.size <= 2310
            assert _node_set(l1, 48.0).x.size <= 2310 + 24 * 21 * 2


class TestInvariants:
    @pytest.mark.parametrize(
        "regime, l2",
        [(Regime.FULL, 6.0), (Regime.FULL, 0.05), (Regime.WEAK, 1.0), (Regime.FULL, 20.0)],
    )
    def test_scalar_and_vector_calls_bit_identical(self, model, settings, regime, l2):
        c = CouplingConfig.transmon_ratio(l2)
        # the FULL proxy's pieces are the unit bins of |y - b|, halved where
        # they are bisected (at L2 = 20): put energies on and next to every
        # quarter of b +- 12, on both sides of the node sum's cover edges at
        # +-24, and at random
        edges = model.b + np.concatenate([np.arange(-12.0, 12.25, 0.25), [-24.0, 24.0]])
        edges = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        ys = np.concatenate(
            [
                np.linspace(model.b - 12.0, model.b + 12.0, 241),
                [model.b],
                edges,
                model.b + np.array([-25.0, 30.0]),
                model.b + np.random.default_rng(11).uniform(-12.0, 12.0, 500),
            ]
        )
        vector = sigma2(ys, model, c, regime, settings)
        scalar = np.array([sigma2(float(y), model, c, regime, settings) for y in ys])
        assert np.array_equal(vector, scalar)
        u_vector = spectral_function(ys, model, c, regime, settings)
        u_scalar = np.array([spectral_function(float(y), model, c, regime, settings) for y in ys])
        assert np.array_equal(u_vector, u_scalar)

    def test_block_boundaries_bit_identical(self, settings):
        # ~100 energies in one unit bin fill several row blocks of the FULL
        # sum; values and error estimates do not depend on the block a row
        # lands in, nor on how many rows share it
        c = CouplingConfig.transmon_ratio(6.0)
        ds = np.linspace(2.0, 3.0, 101)[:-1]
        lo, hi = _window(_node_set(c.l1, 24.0).x, 2.0)
        assert ds.size > 3 * (spectrum._BLOCK // (hi - lo))
        value, error, _ = _full_sigma2(ds, c, settings)
        one_by_one = [_full_sigma2(ds[i : i + 1], c, settings) for i in range(ds.size)]
        assert np.array_equal(value, np.concatenate([v for v, _, _ in one_by_one]))
        assert np.array_equal(error, np.concatenate([e for _, e, _ in one_by_one]))

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


class TestWindow:
    """The FULL sum skips whole panels whose ``e^{-(d - x)^2}`` is exactly
    0.0 in doubles for every energy of a unit bin; nothing else changes."""

    @pytest.mark.parametrize("l2", [0.05, 1.0, 6.0, 20.0])
    def test_window_sum_matches_full_width_sum(self, settings, l2):
        c = CouplingConfig.transmon_ratio(l2)
        far = [24.0, -24.0, 30.0, -30.0, 60.0, -60.0]
        ds = np.concatenate([np.linspace(-12.0, 12.0, 2401), far])
        got, got_error, _ = _full_sigma2(ds, c, settings)
        want, want_error = full_width_sigma2(ds, c, settings)
        # the same terms, summed in another order
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
        assert np.all(np.abs(got.imag - want.imag) <= 2e-15 * np.abs(want.imag))
        assert np.all(np.abs(got_error - want_error) <= 2e-15 * want_error)

    @pytest.mark.parametrize("l2", [1.0, 20.0])
    def test_left_out_nodes_underflow_to_zero(self, settings, l2):
        l1 = CouplingConfig.transmon_ratio(l2).l1
        for k in range(-61, 61):
            x = _node_set(l1, bin_cover(k)).x
            lo, hi = _window(x, float(k))
            assert lo % 21 == 0 and hi % 21 == 0 and lo < hi
            left_out = np.concatenate([x[:lo], x[hi:]])
            for d in (float(k), np.nextafter(k + 1.0, -np.inf)):
                assert np.all(np.exp(-((d - left_out) ** 2)) == 0.0)

    @pytest.mark.parametrize("l2", [0.05, 1.0, 6.0, 20.0])
    def test_flushed_exponentials_move_no_bit(self, settings, monkeypatch, l2):
        # e^{-(d - x)^2} below the smallest normal double is stored as 0.0
        # without calling exp; each such term is below 2.3e-308 |w_j|, and on
        # the scan and out to |y - b| = 60 no value or estimate moves
        c = CouplingConfig.transmon_ratio(l2)
        ds = np.concatenate([np.linspace(-12.0, 12.0, 2401), np.linspace(-60.0, 60.0, 4801)])
        flushed = _full_sigma2(ds, c, settings)
        monkeypatch.setattr(spectrum, "_FLUSH", math.inf)
        exact = _full_sigma2(ds, c, settings)
        for got, want in zip(flushed, exact):
            assert np.array_equal(got, want)

    def test_scan_term_count(self, model, settings):
        # the node sum of a 2401-energy scan on b +- 12 at L2 = 6 sums ~80% of
        # the full node set's terms; summing every column again would fail
        # the bound.  sigma2 sums only the 24 samples of each of the 13 unit
        # bins of |y - b| <= 12, the pieces of its proxy
        c = CouplingConfig.transmon_ratio(6.0)
        ys = np.linspace(model.b - 12.0, model.b + 12.0, 2401)
        nodes = _node_set(c.l1, 24.0).x.size
        terms = _full_sigma2(ys - model.b, c, settings)[2]
        assert terms == SCAN_TERMS
        assert terms < 0.85 * 2401 * nodes
        stats = SigmaStats()
        sigma2(ys, model, c, Regime.FULL, settings, stats=stats)
        assert (stats.energies, stats.samples, stats.terms) == (2401, 312, PIECE_TERMS)
        assert stats.terms < 0.85 * 312 * nodes

    def test_terms_per_regime(self, model, settings):
        c = CouplingConfig.transmon_ratio(6.0)
        ys = model.b + np.array([-3.0, 0.5, 2.0])
        counts = {}
        for regime in Regime:
            spectrum._proxy.cache_clear()  # WEAK and FULL share the proxy
            stats = SigmaStats()
            coupling = CouplingConfig.stable_second_level(6.0) if regime is Regime.STABLE else c
            sigma2(ys, model, coupling, regime, settings, stats=stats)
            counts[regime] = (stats.samples, stats.terms)
        x = _node_set(c.l1, 24.0).x
        # 24 samples build each piece: WEAK's one at y = b, FULL's one per
        # bin of |y - b|
        n = spectrum._CHEB_POINTS
        widths = [hi - lo for lo, hi in (_window(x, k) for k in (3.0, 0.0, 2.0))]
        assert counts == {
            Regime.STABLE: (0, 0),
            Regime.WEAK: (n, n * widths[1]),
            Regime.FULL: (3 * n, n * sum(widths)),
        }

    def test_non_finite_node_weight_raises(self, model, settings, monkeypatch):
        # without the check, the window would leave the infinite column out of
        # y - b = 40 and return a finite value there
        kernel = spectrum._kernel

        def one_infinite(x, l1):
            k, dk = kernel(x, l1)
            k.flat[0] = np.inf
            return k, dk

        monkeypatch.setattr(spectrum, "_kernel", one_infinite)
        # an L1 no other test builds a node set for
        c = CouplingConfig(l1=1.23456789, l2=2.0, v1_enabled=True)
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError, match="non-finite"):
            sigma2(model.b + 40.0, model, c, Regime.FULL, settings)


class TestProperties:
    @hyp_settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=60.0),
        st.lists(st.floats(min_value=-30.0, max_value=30.0), min_size=1, max_size=8),
    )
    @example(0.375, [0.5, 3.0])  # 4 L1 = 1: the fixed points merge, no pole
    @example(0.3751, [0.5, 3.0])  # Newton starts at u = 0.02
    @example(60.0, [8.3, 9.6])
    def test_symmetric_nonpositive_width_and_bit_identical(self, model, settings, l2, xs):
        c = CouplingConfig.transmon_ratio(l2)
        # every array mixes energies inside |y - b| <= 24 and beyond it
        xs = np.array(xs + [0.0, 24.0, -25.0, 30.0])
        plus = sigma2(model.b + xs, model, c, Regime.FULL, settings)
        minus = sigma2(model.b - xs, model, c, Regime.FULL, settings)
        assert np.abs(minus + np.conj(plus)).max() <= 1e-13 * np.abs(plus).max()
        assert np.all(plus.imag <= 0.0) and np.all(minus.imag <= 0.0)
        scalar = [sigma2(float(y), model, c, Regime.FULL, settings) for y in model.b + xs]
        assert np.array_equal(plus, scalar)
        assert _node_set(c.l1, 24.0).x.size <= 2310


class TestDiagnostics:
    def test_beyond_covered_range_matches_quad(self, model, settings, monkeypatch):
        # |y - b| = 30 is summed on the node set that covers 48; quad is
        # reliable there, far from the spikes, and sigma2 never calls it
        c = CouplingConfig.transmon_ratio(1.0)
        ys = model.b + np.array([0.5, 30.0])
        want = quad_sigma2(ys[1] - model.b, c)

        def no_quad(*args, **kwargs):
            raise AssertionError("sigma2 called quad")

        monkeypatch.setattr(integrate, "quad", no_quad)
        stats = SigmaStats()
        value = sigma2(ys, model, c, Regime.FULL, settings, stats=stats)
        assert stats.energies == 2
        assert 0.0 < stats.max_error <= settings.rel_tol * abs(value[1]) + settings.abs_tol
        assert abs(value[1] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_raises_in_every_regime(self, model, settings, regime, bad):
        if regime is Regime.STABLE:
            c = CouplingConfig.stable_second_level(6.0)
        else:
            c = CouplingConfig.transmon_ratio(6.0)
        for y in (np.array([model.b, bad]), bad):
            with pytest.raises(ValueError, match="energies must be finite"):
                sigma2(y, model, c, regime, settings)

    def test_missed_tolerance_raises_with_estimate(self, model):
        c = CouplingConfig.transmon_ratio(20.0)
        strict = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(QuadratureError, match="misses the tolerance") as err:
            sigma2(model.b + 8.3, model, c, Regime.FULL, strict)
        assert err.value.estimate > 0.0

    def test_grid_diagnostics_repeat_exactly(self, model, settings):
        c = CouplingConfig.transmon_ratio(1.0)
        runs = []
        for _ in range(2):
            spectrum._proxy.cache_clear()  # else the second run samples nothing
            stats = SigmaStats()
            build_grid(model, c, Regime.WEAK, (model.b - 4, model.b + 4), settings, stats=stats)
            build_grid(model, c, Regime.FULL, (model.b - 4, model.b + 4), settings, stats=stats)
            runs.append(stats)
        assert runs[0] == runs[1]
        assert 0.0 < runs[0].max_error < settings.abs_tol


class TestProxy:
    """FULL ``sigma2`` evaluates a piecewise Chebyshev proxy of the node sum
    ``_full_sigma2``: one piece per unit bin of ``|y - b|``, or its halves,
    mirrored to ``y < b``."""

    @hyp_settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.lists(st.floats(min_value=-12.0, max_value=12.0), min_size=1, max_size=12),
    )
    @example(20.0, [-2.7, 2.3, 2.9])  # bin [2, 3) of |y - b| is bisected
    def test_within_its_estimate_of_the_node_sum(self, model, settings, l2, xs):
        c = CouplingConfig.transmon_ratio(l2)
        ys = model.b + np.array(xs + [-12.0, 12.0])
        got = sigma2(ys, model, c, Regime.FULL, settings)
        want, _, _ = _full_sigma2(ys - model.b, c, settings)
        _, estimate, _ = spectrum._proxy(c, settings).vector(ys - model.b)
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(want))
        assert np.all(np.abs(got - want) <= estimate)
        assert np.all(np.abs(got - want) <= 1e-2 * tol)

    @pytest.mark.parametrize("l2", [0.05, 1.0, 6.0, 20.0])
    def test_matches_the_node_sum_on_the_scan(self, model, settings, l2):
        c = CouplingConfig.transmon_ratio(l2)
        ys = np.concatenate(
            [
                np.linspace(model.b - 12.0, model.b + 12.0, 2401),
                model.b + np.random.default_rng(5).uniform(-12.0, 12.0, 2000),
            ]
        )
        got = sigma2(ys, model, c, Regime.FULL, settings)
        want, _, _ = _full_sigma2(ys - model.b, c, settings)
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-2 * tol)
        # the log keeps Im to near its last digits, far tails included
        assert np.all(np.abs(got.imag - want.imag) <= 1e-11 * np.abs(want.imag))
        proxy = spectrum._proxy(c, settings)
        assert (len(proxy.pieces) > len(proxy.bins)) == (l2 == 20.0)  # only L2 = 20 bisects

    @pytest.mark.parametrize("l2", [6.0, 1.0])
    def test_matches_the_node_sum_on_the_grid(self, model, settings, grids, l2):
        # every energy of the grids of configs/full_l2_6.ini and oracle_l2_1.ini
        c = CouplingConfig.transmon_ratio(l2)
        ys = grids.get(l2, Regime.FULL).energies
        got = sigma2(ys, model, c, Regime.FULL, settings)
        want, _, _ = _full_sigma2(ys - model.b, c, settings)
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-2 * tol)

    def test_piece_with_zero_width_samples(self, model, settings):
        # -Im Sigma_2 underflows to exactly 0.0 from y - b ~ 39 on; the log is
        # floored at the smallest subnormal, so the pieces there are no worse
        c = CouplingConfig.transmon_ratio(6.0)
        ds = np.linspace(36.0, 43.0, 701)
        want, _, _ = _full_sigma2(ds, c, settings)
        assert np.any(want.imag == 0.0) and np.any(want.imag < 0.0)
        stats = SigmaStats()
        got = sigma2(model.b + ds, model, c, Regime.FULL, settings, stats=stats)
        _, estimate, _ = spectrum._proxy(c, settings).vector((model.b + ds) - model.b)
        assert stats.samples == 8 * spectrum._CHEB_POINTS  # no bin bisected
        assert np.all(np.abs(got - want) <= estimate)
        assert np.all(got.imag <= 0.0)
        normal = want.imag < -np.finfo(float).tiny
        assert np.all(np.abs(got.imag - want.imag)[normal] <= 1e-10 * -want.imag[normal])
        assert np.all(got.imag[~normal] > -1e-300)

    def test_build_failure_keeps_no_piece(self, model):
        # a sample that misses the tolerance raises, and the bins it was
        # building stay unbuilt
        c = CouplingConfig.transmon_ratio(20.0)
        strict = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(QuadratureError, match="misses the tolerance"):
            sigma2(model.b + np.array([0.5, 8.3]), model, c, Regime.FULL, strict)
        assert spectrum._proxy(c, strict).bins == set()
