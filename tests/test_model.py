import math

import numpy as np
import pytest

from transmon_decay import (
    CouplingConfig,
    DimensionlessModel,
    ModelError,
    PhysicalParams,
    coupling_sq,
)


class TestPhysicalParams:
    def test_valid(self):
        p = PhysicalParams(e_e=5.0e9, e_f=9.85e9, delta=1.0e8)
        assert p.delta == 1.0e8

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ModelError, match="width"):
            PhysicalParams(e_e=5.0e9, e_f=9.85e9, delta=0.0)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ModelError, match="ordering"):
            PhysicalParams(e_e=9.85e9, e_f=5.0e9, delta=1.0e8)

    def test_rejects_negative_anharmonicity(self):
        with pytest.raises(ModelError, match="anharmonicity"):
            PhysicalParams(e_e=4.0e9, e_f=9.0e9, delta=1.0e8)


class TestDimensionlessModel:
    def test_reference_values(self, model):
        assert model.a == 50.0
        assert model.b == 98.5
        assert model.alpha_d == pytest.approx(1.5)

    def test_centers(self, model):
        assert model.center(1) == pytest.approx(50.0)
        assert model.center(2) == pytest.approx(48.5)
        with pytest.raises(ModelError):
            model.center(3)

    def test_from_physical_roundtrip(self, model):
        delta = 2 * math.pi * 1e8
        p = PhysicalParams(e_e=model.a * delta, e_f=model.b * delta, delta=delta)
        back = DimensionlessModel.from_physical(p)
        assert back.a == pytest.approx(model.a)
        assert back.b == pytest.approx(model.b)

    def test_rejects_small_a(self):
        with pytest.raises(ModelError, match="too small"):
            DimensionlessModel(a=5.0, b=9.5)

    def test_warns_marginal_a(self):
        with pytest.warns(UserWarning, match="marginal"):
            DimensionlessModel(a=15.0, b=29.0)

    def test_rejects_negative_anharmonicity(self):
        with pytest.raises(ModelError, match="anharmonicity"):
            DimensionlessModel(a=50.0, b=101.0)

    def test_density_normalization(self, model):
        # integral of P_i over all frequencies is 2 (two branches of the 1D continuum)
        w = np.linspace(30.0, 70.0, 20001)
        for i in (1, 2):
            total = np.trapezoid(model.density(i, w), w)
            assert total == pytest.approx(2.0, rel=1e-10)

    def test_density_peak_location(self, model):
        for i in (1, 2):
            c = model.center(i)
            assert model.density(i, c) == pytest.approx(2.0 / math.sqrt(math.pi))
            assert model.density(i, c + 1.0) < model.density(i, c)


class TestCouplingConfig:
    def test_transmon_ratio(self):
        c = CouplingConfig.transmon_ratio(6.0)
        assert c.l1 == pytest.approx(4.0)
        assert c.v1_enabled

    def test_stable_second_level(self):
        c = CouplingConfig.stable_second_level(6.0)
        assert c.l1 == 0.0
        assert not c.v1_enabled

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            CouplingConfig(l1=-1.0, l2=2.0)

    def test_coupling_sq_scales_with_strength(self, model):
        c = CouplingConfig(l1=2.0, l2=3.0)
        w = model.center(2)
        assert coupling_sq(model, c, 2, w) == pytest.approx(3.0 * model.density(2, w))
        assert coupling_sq(model, c, 1, w) == pytest.approx(2.0 * model.density(1, w))

    def test_sqrt_pi_scaling_is_the_peak_normalised_density(self, model):
        # the diagnosis behind acceptance criteria 1, 2 and 8: scaling L by
        # sqrt(pi)/2 turns the default (2/sqrt(pi)) e^{-(w-c)^2} density into
        # the peak-normalised L e^{-(w-c)^2}
        strength = 2.0
        scaled_l = strength * math.sqrt(math.pi) / 2
        scaled = CouplingConfig(l1=scaled_l, l2=scaled_l)
        w = np.linspace(40.0, 60.0, 41)
        for i in (1, 2):
            want = strength * np.exp(-((w - model.center(i)) ** 2))
            np.testing.assert_allclose(coupling_sq(model, scaled, i, w), want, rtol=1e-15)
