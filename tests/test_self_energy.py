"""The first-level self-energy ``sigma1`` and its PV verification route."""

import math

import numpy as np
import pytest

from transmon_decay import CouplingConfig, coupling_sq, sigma1

from reference_routes import delta1_pv

SQRT_PI = math.sqrt(math.pi)


@pytest.fixture(scope="module")
def coupling():
    return CouplingConfig.transmon_ratio(6.0)  # l1 = 4


class TestClosedForms:
    def test_width_is_coupling_density(self, model, coupling):
        # Gamma_1(y, w) = 2 pi g_1^2(y - w): the golden-rule identity
        for y, w in [(98.5, 48.0), (99.0, 50.0), (95.0, 47.3)]:
            got = -2.0 * sigma1(y, w, model, coupling).imag
            want = 2.0 * math.pi * float(coupling_sq(model, coupling, 1, y - w))
            assert got == pytest.approx(want, rel=1e-12)

    def test_shift_antisymmetric_about_center(self, model, coupling):
        for x in (0.5, 1.0, 3.0):
            up = sigma1(model.a + x + 48.0, 48.0, model, coupling).real
            dn = sigma1(model.a - x + 48.0, 48.0, model, coupling).real
            assert up == pytest.approx(-dn, abs=1e-14)

    def test_shift_zero_on_resonance(self, model, coupling):
        assert sigma1(model.a + 48.5, 48.5, model, coupling).real == 0.0

    def test_vectorized(self, model, coupling):
        y = np.array([97.0, 98.5, 100.0])
        out = sigma1(y, 48.5, model, coupling)
        assert out.shape == (3,)
        assert np.array_equal(out, [sigma1(v, 48.5, model, coupling) for v in y])

    def test_disabled_coupling_is_zero(self, model):
        c = CouplingConfig.stable_second_level(6.0)
        assert sigma1(99.0, 48.0, model, c) == 0.0
        assert sigma1(np.array([97.0, 99.0]), 48.0, model, c).shape == (2,)


class TestPvVerificationRoute:
    def test_matches_closed_form(self, model, coupling, settings):
        for y, w in [(98.5, 48.5), (99.3, 48.0), (96.1, 47.0), (102.0, 50.5)]:
            closed = sigma1(y, w, model, coupling).real
            pv = delta1_pv(y, w, model, coupling, settings)
            assert pv == pytest.approx(closed, abs=1e-8)

    def test_physical_lower_bound_indistinguishable(self, model, coupling, settings):
        # at a = 50 the Gaussian mass below w = 0 is ~exp(-2500): both bounds agree
        ext = delta1_pv(99.0, 48.2, model, coupling, settings, extended=True)
        phys = delta1_pv(99.0, 48.2, model, coupling, settings, extended=False)
        assert phys == pytest.approx(ext, abs=1e-12)

    def test_disabled_coupling_is_zero(self, model, settings):
        c = CouplingConfig.stable_second_level(1.0)
        assert delta1_pv(99.0, 48.0, model, c, settings) == 0.0

