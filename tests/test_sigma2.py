"""The complex second-level self-energy ``sigma2`` and its FULL-regime
trapezoid lattice, checked against adaptive ``quad`` where it converges,
30-digit ``mpmath`` quadrature at strong coupling and the closed form of the
near-real pole's spike."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st
from scipy import integrate

from transmon_decay import (
    CouplingConfig,
    QuadratureError,
    QuadratureSettings,
    Regime,
    SigmaStats,
    build_grid,
    find_peaks,
    find_roots,
    fwhm,
    sigma2,
    spectral_callable,
    spectral_function,
)
from transmon_decay import spectrum
from transmon_decay.spectrum import (
    _axis_zero,
    _chebyshev,
    _full_sigma2,
    _kernel,
    _kernel_pole,
    _lattice,
    _resonant_offsets,
)

from reference_routes import _full_integrals, kernel_pole_all_steps

SQRT_PI = math.sqrt(math.pi)
# tight enough that quad's own error stays well below 1e-12 of max |Sigma_2|;
# at (1e-13, 1e-12) quad is itself off by 1.3e-12 of it at L2 = 6, y - b = 2.25
TIGHT = QuadratureSettings(abs_tol=1e-15, rel_tol=1e-13)


def quad_sigma2(d, c, s=TIGHT):
    shift, width, _, _ = _full_integrals(d, c, s, limit=1000)
    return complex(2.0 * c.l2 / SQRT_PI * shift, -4.0 * c.l1 * c.l2 * width)


def lattice_nodes(l1: float, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The indices ``i`` and nodes ``x_i = (i + 1/2) h`` of ``_lattice(l1)``
    on ``[lo, hi]``."""
    h, _ = _lattice(l1)
    i = np.arange(math.ceil(lo / h - 0.5), math.floor(hi / h - 0.5) + 1)
    return i, (i + 0.5) * h


def whole_lattice_sigma2(ds, c):
    """FULL ``Sigma_2`` and its error estimate summed over every node within
    40 of the energies: ``e^{-(d - x)^2}`` at every node, the rule
    ``h sum K``, its difference from ``2h sum K`` on the even nodes, the
    rounding bound and the pole terms, written out without the window."""
    h, poles = _lattice(c.l1)
    i, x = lattice_nodes(c.l1, ds.min() - 40.0, ds.max() + 40.0)
    k, dk = _kernel(x, c.l1)
    value, error = np.empty(ds.shape, dtype=complex), np.empty(ds.shape)
    for n, d in enumerate(ds):
        g = np.exp(-((d - x) ** 2))
        fine, even = h * np.sum(g * k), 2.0 * h * np.sum((g * k)[i % 2 == 0])
        diff, rounding = fine - even, h * np.sum(g * dk)
        for z, a_value, a_diff in poles:
            fine += a_value * np.exp(-((d - z) ** 2))
            diff += a_diff * np.exp(-((d - z) ** 2))
        value[n], error[n] = fine, abs(diff) + rounding
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


class TestKernelPole:
    @pytest.mark.parametrize("l2", [1.0, 6.0, 20.0, 40.0])
    def test_componentwise_against_mpmath(self, l2):
        # Im z falls from -0.18 (L2 = 1) to -1.9e-22 (L2 = 40): each part of
        # the pole and of its residue is held to its own size
        l1 = 2.0 * l2 / 3.0
        z, r = _kernel_pole(l1, _resonant_offsets(l1)[-1])
        with mpmath.workdps(40):
            root_pi = mpmath.sqrt(mpmath.pi)

            def w(x):
                return mpmath.exp(-x * x) * mpmath.erfc(-1j * x)

            want_z = mpmath.findroot(lambda x: x + 2j * root_pi * l1 * w(x), mpmath.mpc(z))
            want_r = 1 / (1 - 4 * l1 - 4j * root_pi * l1 * want_z * w(want_z))
            for got, want in ((z, want_z), (r, want_r)):
                for part in ("real", "imag"):
                    exact = getattr(want, part)
                    assert abs(getattr(got, part) - exact) <= 3e-14 * abs(exact), (part, got)


    @pytest.mark.parametrize(
        "l1",
        # L1 = 2 L2 / 3 at L2 = 1, 6, 20, 29, 40, then next to 4 L1 = 1
        [2.0 * l2 / 3.0 for l2 in (1.0, 6.0, 20.0, 29.0, 40.0)]
        + [0.25 * (1.0 + eps) for eps in (1e-3, 1e-9, 1e-12)],
    )
    def test_stopping_at_a_repeated_iterate_changes_no_bit(self, l1, monkeypatch):
        # Newton stops at the first iterate that repeats an earlier one, on a
        # fixed point or a 2- or 3-cycle, before the 64th step.  All 64 steps
        # end on the same cycle, perhaps at another phase of it: the pole and
        # the residue agree within a few ulps, and the verdict is the same
        u = _resonant_offsets(l1)[-1]
        steps = []
        faddeeva = spectrum._faddeeva
        monkeypatch.setattr(spectrum, "_faddeeva", lambda z: steps.append(z) or faddeeva(z))
        got = _kernel_pole(l1, u)
        monkeypatch.undo()
        assert len(steps) < spectrum._NEWTON_STEPS
        want = kernel_pole_all_steps(l1, u)
        assert got is not None and want is not None
        for g, w in zip(got, want):
            assert abs(g - w) <= 4 * np.finfo(float).eps * abs(w), (g, w)


    @pytest.mark.parametrize("l2", [0.01, 0.05, 0.1, 0.2, 0.375])
    def test_axis_zero_against_mpmath(self, l2):
        # below 4 L1 ~ 0.3 a zero of x - Sigma_1(x) sits on the imaginary
        # axis, from -0.024i (L2 = 0.01) to -0.39i (L2 = 0.1); above, up to
        # 4 L1 = 1 (L2 = 0.375), the nearest zeros are a pair off it
        l1 = 2.0 * l2 / 3.0
        got = _axis_zero(l1)
        if l2 >= 0.2:
            assert got is None
            return
        z, r = got
        assert z.real == 0.0 and r.imag == 0.0
        with mpmath.workdps(40):
            root_pi = mpmath.sqrt(mpmath.pi)

            def w(x):
                return mpmath.exp(-x * x) * mpmath.erfc(-1j * x)

            want_z = mpmath.findroot(lambda x: x + 2j * root_pi * l1 * w(x), mpmath.mpc(z))
            want_r = 1 / (1 - 4 * l1 - 4j * root_pi * l1 * want_z * w(want_z))
            assert abs(z.imag - want_z.imag) <= 1e-14 * abs(want_z.imag)
            assert abs(r.real - want_r.real) <= 1e-13 * abs(want_r.real)

    @pytest.mark.parametrize("l2", [0.05, 1.0, 20.0])
    def test_pole_terms_against_mpmath(self, l2):
        # each corrected zero z of x - Sigma_1(x), with the residue r of K:
        # the axis zero at L2 = 0.05 (-0.139i), the pair at L2 = 1 (Im z =
        # -0.18) and at L2 = 20 (-3.6e-11).  The rule and the rule on its
        # even nodes, each with its closed-form pole term, integrate
        # e^{-(d - x)^2} r/(x - z) to -i pi r w(d - z), next to the pole too
        l1 = 2.0 * l2 / 3.0
        h, poles = _lattice(l1)
        u = _resonant_offsets(l1)[-1]
        z, r = _kernel_pole(l1, u) if u else _axis_zero(l1)
        residues = {z: r, -z.conjugate(): r.conjugate()}
        i, x = lattice_nodes(l1, -50.0, 50.0)
        even = i % 2 == 0
        assert len(poles) == len(residues)
        for pole, a_value, a_diff in poles:
            for d in (0.0, 1.3, pole.real + 0.05):
                f = residues[pole] * np.exp(-((d - x) ** 2)) / (x - pole)
                gauss = np.exp(-((d - pole) ** 2))
                fine = h * f.sum() + a_value * gauss
                coarse = 2.0 * h * f[even].sum() + (a_value - a_diff) * gauss
                with mpmath.workdps(30):
                    ts = mpmath.mpf(d) - mpmath.mpc(pole)
                    w = mpmath.exp(-ts * ts) * mpmath.erfc(-1j * ts)
                    want = complex(-1j * mpmath.pi * residues[pole] * w)
                for got in (fine, coarse):
                    assert abs(got - want) <= 1e-14 * abs(want), (d, got, want)


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
            (19.1165, 5.1, None),
            (19.1165, -2.0, None),
        ],
        ids=["20:-6.8", "20:2", "20:9.6", "12:-4.07", "12:1", "12:8", "19.1165:5.1", "19.1165:-2"],
    )
    def test_strong_coupling_matches_mpmath(self, model, settings, l2, d, expected):
        # K's outer poles sit 3.6e-11 (L2 = 20) and 9e-7 (L2 = 12) below the
        # real axis; quad misses the first one's weight.  At L2 = 19.1165
        # Re z = 5.1 is a multiple of 0.3, where a lattice of step 0.3 or
        # 0.15 through 0 would put a node on the pole
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
        # the fixed point is u = 36.5
        c = CouplingConfig.transmon_ratio(1000.0)
        ys = model.b + np.array([36.0, 38.0, -38.0, 40.0])
        got = sigma2(ys, model, c, Regime.FULL, settings).imag
        want = [spike_im_sigma2(y - model.b, 1000.0) for y in ys]
        np.testing.assert_allclose(got, want, rtol=1e-11)

    @pytest.mark.parametrize("l2", [0.05, 0.1, 0.3, 0.376, 1.0, 6.0, 20.0, 100.0])
    def test_estimate_bounds_the_error(self, settings, l2):
        # the lattice sum's estimate, its difference from the rule on the
        # even nodes plus K's rounding bound, covers its distance from quad
        # (L2 <= 1) and from 30-digit mpmath, which resolves K's spikes where
        # quad does not; at L2 = 100 the spikes (Im z = -4e-30) sit 7.7 or
        # more from these energies and add below 1e-25
        c = CouplingConfig.transmon_ratio(l2)
        ds = np.array([0.4, 3.9])
        got, estimate, _ = _full_sigma2(ds, c, settings)
        reference = quad_sigma2 if l2 <= 1.0 else lambda d, c: mpmath_sigma2(d, c.l2)
        want = np.array([reference(d, c) for d in ds])
        assert np.all(np.abs(got - want) <= estimate)


class TestInvariants:
    ROUTES = {
        "Regime.FULL-6.0": (Regime.FULL, CouplingConfig.transmon_ratio(6.0)),
        "Regime.FULL-0.05": (Regime.FULL, CouplingConfig.transmon_ratio(0.05)),
        "Regime.WEAK-1.0": (Regime.WEAK, CouplingConfig.transmon_ratio(1.0)),
        "Regime.FULL-20.0": (Regime.FULL, CouplingConfig.transmon_ratio(20.0)),
        "Regime.STABLE-6.0": (Regime.STABLE, CouplingConfig.stable_second_level(6.0)),
        "Regime.STABLE-49.5407": (Regime.STABLE, CouplingConfig.stable_second_level(49.5407)),
        "Regime.FULL-l1=0": (Regime.FULL, CouplingConfig(l1=0.0, l2=2.0, v1_enabled=True)),
    }

    @pytest.mark.parametrize("regime, c", ROUTES.values(), ids=ROUTES.keys())
    def test_scalar_and_vector_calls_bit_identical(self, model, settings, regime, c):
        # the FULL proxy's pieces are the unit bins of |y - b|, halved where
        # they are bisected (at L2 = 20): put energies on and next to every
        # quarter of b +- 12, on both sides of +-24, and at random
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
        # a Python float and a numpy float64 take the float-only branch, each
        # value bit for bit the array's, and from empty caches the
        # diagnostics add up alike, the lattice-sum samples and terms included
        stats = {kind: SigmaStats() for kind in ("vector", "float", "float64")}
        vector = sigma2(ys, model, c, regime, settings, stats=stats["vector"])
        u_vector = spectral_function(ys, model, c, regime, settings, stats=stats["vector"])
        for kind, energies in (("float", ys.tolist()), ("float64", list(ys))):
            spectrum._reset_caches()
            args = (model, c, regime, settings)
            one = [sigma2(y, *args, stats=stats[kind]) for y in energies]
            u = [spectral_function(y, *args, stats=stats[kind]) for y in energies]
            assert all(type(v) is complex for v in one) and all(type(v) is float for v in u)
            assert np.array(one).tobytes() == vector.tobytes()
            assert np.array(u).tobytes() == u_vector.tobytes()
        assert stats["float"] == stats["float64"] == stats["vector"]

    def test_block_boundaries_bit_identical(self, settings):
        # 100 energies in one unit bin are one array pass of the FULL sum;
        # values and error estimates do not depend on how many rows share it
        c = CouplingConfig.transmon_ratio(6.0)
        ds = np.linspace(2.0, 3.0, 101)[:-1]
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

    @pytest.mark.parametrize("l1", [1e-3, 1e-4, 1e-6])
    def test_small_l1_tends_to_the_stable_form(self, model, settings, l1):
        # the axis zero nears the real axis as 2 sqrt(pi) L1 i and its pole
        # term carries the L1 -> 0 limit: FULL moves from STABLE by ~1.66 L1
        ys = model.b + np.linspace(-10.0, 10.0, 401)
        full = sigma2(ys, model, CouplingConfig(l1=l1, l2=6.0, v1_enabled=True), Regime.FULL)
        stable = sigma2(ys, model, CouplingConfig.stable_second_level(6.0), Regime.STABLE)
        assert np.all(np.abs(full - stable) <= 2.0 * l1 * np.abs(stable))

    def test_weak_is_full_frozen_at_b(self, model, settings, monkeypatch):
        # one float evaluation of Sigma_2(b), broadcast: the bits and the
        # diagnostics of a FULL array call at b, with no vector proxy read
        c = CouplingConfig.transmon_ratio(1.0)
        ys = np.linspace(model.b - 12.0, model.b + 12.0, 2401)
        full_stats, weak_stats = SigmaStats(), SigmaStats()
        at_b = np.full(ys.shape, model.b)
        full = sigma2(at_b, model, c, Regime.FULL, settings, stats=full_stats)
        spectrum._reset_caches()

        def no_vector(*args):
            raise AssertionError("WEAK read the proxy element by element")

        monkeypatch.setattr(spectrum._Proxy, "vector", no_vector)
        weak = sigma2(ys, model, c, Regime.WEAK, settings, stats=weak_stats)
        one = sigma2(model.b, model, c, Regime.FULL, settings)
        assert weak.tobytes() == np.full(ys.shape, one).tobytes() == full.tobytes()
        assert weak_stats == full_stats

    def test_requires_enabled_first_level(self, model):
        with pytest.raises(ValueError, match="v1_enabled"):
            sigma2(model.b, model, CouplingConfig.stable_second_level(1.0), Regime.WEAK)


class TestWindow:
    """The FULL sum skips the lattice nodes whose ``e^{-(d - x)^2}`` is
    exactly 0.0 in doubles for every energy of a unit bin; nothing else
    changes."""

    @pytest.mark.parametrize("l2", [0.05, 1.0, 6.0, 20.0])
    def test_window_sum_matches_full_width_sum(self, settings, l2):
        c = CouplingConfig.transmon_ratio(l2)
        far = [24.0, -24.0, 30.0, -30.0, 60.0, -60.0]
        ds = np.concatenate([np.linspace(-12.0, 12.0, 2401), far])
        got, got_error, _ = _full_sigma2(ds, c, settings)
        want, want_error = whole_lattice_sigma2(ds, c)
        # the same terms, summed in another order.  In the tails Im Sigma_2
        # is what is left of node terms and a pole term that cancel (at
        # L2 = 6 and |y - b| = 9 to 1e-15 of Re), and the estimate's
        # difference of two rules is a cancellation, held to the value's size
        assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))
        assert np.all(np.abs(got.imag - want.imag) <= 1e-14 * np.abs(want.imag))
        assert np.all(np.abs(got_error - want_error) <= 2e-15 * np.abs(want))

    @pytest.mark.parametrize("l2", [1.0, 20.0])
    def test_left_out_nodes_underflow_to_zero(self, settings, monkeypatch, l2):
        # a call on one bin evaluates K on that bin's window only
        c = CouplingConfig.transmon_ratio(l2)
        h, _ = _lattice(c.l1)
        kernel, seen = spectrum._kernel, []
        monkeypatch.setattr(spectrum, "_kernel", lambda x, l1: seen.append(x) or kernel(x, l1))
        for k in range(-61, 61):
            ds = np.array([float(k), np.nextafter(k + 1.0, -np.inf)])
            terms = _full_sigma2(ds, c, settings)[2]
            x = seen.pop()
            assert terms == 2 * x.size
            assert np.allclose(np.diff(x), h, rtol=0.0, atol=1e-12)
            left_out = np.array([x[0] - h, x[-1] + h])  # the nearest nodes outside
            for d in ds:
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
        # at L2 = 6 the step is h = 0.14656 and each unit bin sums the 379 or
        # 380 nodes within sqrt(746) of it.  sigma2 sums only the 24 samples
        # of each of the 13 unit bins of |y - b| <= 12, the pieces of its
        # proxy
        c = CouplingConfig.transmon_ratio(6.0)
        ys = np.linspace(model.b - 12.0, model.b + 12.0, 2401)
        assert _full_sigma2(ys - model.b, c, settings)[2] == 911179
        stats = SigmaStats()
        sigma2(ys, model, c, Regime.FULL, settings, stats=stats)
        assert (stats.energies, stats.samples, stats.terms) == (2401, 312, 118392)

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
        # 24 samples build each piece: WEAK's one at y = b, FULL's one per
        # bin of |y - b|, each summing the nodes within sqrt(746) of its bin
        n = spectrum._CHEB_POINTS
        reach = spectrum._REACH
        widths = [lattice_nodes(c.l1, k - reach, k + 1.0 + reach)[0].size for k in (3.0, 0.0, 2.0)]
        assert counts == {
            Regime.STABLE: (0, 0),
            Regime.WEAK: (n, n * widths[1]),
            Regime.FULL: (3 * n, n * sum(widths)),
        }

    def test_non_finite_node_weight_raises(self, model, settings, monkeypatch):
        # a non-finite K makes every energy of the bins that sum it NaN, also
        # where its Gaussian factor is 0.0, and NaN misses the tolerance
        kernel = spectrum._kernel

        def one_infinite(x, l1):
            k, dk = kernel(x, l1)
            k.flat[0] = np.inf
            return k, dk

        monkeypatch.setattr(spectrum, "_kernel", one_infinite)
        c = CouplingConfig.transmon_ratio(6.0)
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureError, match="misses"):
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


class TestDiagnostics:
    def test_beyond_covered_range_matches_quad(self, model, settings, monkeypatch):
        # quad is reliable at |y - b| = 30, far from the spikes, and sigma2
        # never calls it
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

    def test_float_value_that_misses_its_piece_estimate_raises_as_in_an_array(
        self, model, monkeypatch
    ):
        # every sample of the piece [4, 5) at L2 = 6 meets abs_tol, so the
        # piece is built, but its estimate (worst sample estimate plus tail)
        # misses it: a float and a one-element array raise alike
        monkeypatch.setattr(spectrum, "_SPLIT", math.inf)  # the piece is kept whole
        c = CouplingConfig.transmon_ratio(6.0)
        points, _ = _chebyshev()
        _, error, _ = _full_sigma2(4.5 + 0.5 * points, c, QuadratureSettings())
        s = QuadratureSettings(abs_tol=float(np.nextafter(error.max(), np.inf)), rel_tol=1e-300)
        raised = []
        for y in (model.b + 4.7, np.array([model.b + 4.7])):
            with pytest.raises(QuadratureError, match="misses the tolerance") as err:
                sigma2(y, model, c, Regime.FULL, s)
            raised.append(err.value)
        assert "error estimate 8.34e-13 misses" in str(raised[0])
        assert str(raised[0]) == str(raised[1])
        assert raised[0].estimate == raised[1].estimate > s.abs_tol

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
    """FULL ``sigma2`` evaluates a piecewise Chebyshev proxy of the lattice
    sum ``_full_sigma2``: one piece per unit bin of ``|y - b|``, or its
    halves, mirrored to ``y < b``."""

    def test_cached_arrays_are_read_only(self):
        # a write into a cached array would change every later Sigma_2
        for array in _chebyshev():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

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
        stats = SigmaStats()
        got = sigma2(ys, model, c, Regime.FULL, settings, stats=stats)
        want, _, _ = _full_sigma2(ys - model.b, c, settings)
        tol = np.maximum(settings.abs_tol, settings.rel_tol * np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-2 * tol)
        # the log keeps Im to near its last digits, far tails included
        assert np.all(np.abs(got.imag - want.imag) <= 1e-11 * np.abs(want.imag))
        # 24 samples fit each of the 13 unit bins of |y - b| <= 12.  Only
        # L2 = 20 bisects, [2, 3) and [3, 4) once each: 15 pieces from 17
        # fits.  _SPLIT and _TAIL_COEFFS decide these counts, and no shipped
        # config bisects a piece
        proxy = spectrum._proxy(c, settings)
        halves = [left for left, piece in zip(proxy.lefts, proxy.pieces) if piece[1] == 4.0]
        pieces, halves_want, fits = (15, [2.0, 2.5, 3.0, 3.5], 17) if l2 == 20.0 else (13, [], 13)
        assert (len(proxy.bins), len(proxy.pieces), halves) == (13, pieces, halves_want)
        assert stats.samples == fits * spectrum._CHEB_POINTS

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

    def test_lattice_found_once_per_coupling(self, model, settings, monkeypatch):
        # the proxy keeps the rule of L_1: a cold grid, its roots, the peaks'
        # widths and a bin past the grid find it once, in 2 lattice-sum calls
        # at L2 = 6 and in 3 at L2 = 20, whose grid bisects two bins
        found, sums = [], []
        lattice, full_sigma2 = spectrum._lattice, spectrum._full_sigma2
        monkeypatch.setattr(spectrum, "_lattice", lambda l1: found.append(l1) or lattice(l1))
        monkeypatch.setattr(
            spectrum, "_full_sigma2", lambda *args: sums.append(1) or full_sigma2(*args)
        )
        couplings = [CouplingConfig.transmon_ratio(l2) for l2 in (6.0, 20.0)]
        for c in couplings:
            grid = build_grid(model, c, Regime.FULL, s=settings)
            roots = find_roots(model, c, Regime.FULL, settings)
            u = spectral_callable(model, c, Regime.FULL, settings)
            assert [fwhm(peak, u, settings) for peak in find_peaks(grid, roots)]
            u(model.b + 20.5)
        assert found == [c.l1 for c in couplings]
        assert len(sums) == 5

    def test_build_failure_keeps_no_piece(self, model):
        # a sample that misses the tolerance raises, and the bins it was
        # building stay unbuilt
        c = CouplingConfig.transmon_ratio(20.0)
        strict = QuadratureSettings(abs_tol=1e-300, rel_tol=1e-300)
        with pytest.raises(QuadratureError, match="misses the tolerance"):
            sigma2(model.b + np.array([0.5, 8.3]), model, c, Regime.FULL, strict)
        assert spectrum._proxy(c, strict).bins == set()
