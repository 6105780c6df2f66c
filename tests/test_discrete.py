import math

import numpy as np
import pytest

from transmon_decay import (
    CouplingConfig,
    DiscretizationSpec,
    Regime,
    convergence_report,
    discrete_self_energy_1,
    discrete_self_energy_2,
    sigma1,
    sigma2,
)


class TestDiscretizationSpec:
    def test_defaults_pole_offset_to_spacing(self):
        spec = DiscretizationSpec(mode_spacing=0.01, band=(38.0, 60.0))
        assert spec.pole_offset == 0.01

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            DiscretizationSpec(mode_spacing=0.0, band=(38.0, 60.0))

    def test_rejects_empty_band(self):
        with pytest.raises(ValueError, match="band"):
            DiscretizationSpec(mode_spacing=0.01, band=(60.0, 38.0))

    def test_rejects_unregularized_poles(self):
        # offset wider than the spacing or non-positive means poles can sit
        # exactly on a mode frequency and diverge
        with pytest.raises(ValueError, match="diverge"):
            DiscretizationSpec(mode_spacing=0.01, band=(38.0, 60.0), pole_offset=0.05)
        with pytest.raises(ValueError, match="diverge"):
            DiscretizationSpec(mode_spacing=0.01, band=(38.0, 60.0), pole_offset=-0.01)

    def test_for_model_covers_both_gaussians(self, model):
        spec = DiscretizationSpec.for_model(model, 0.05)
        lo, hi = spec.band
        assert lo <= model.center(2) - 10.0
        assert hi >= model.center(1) + 10.0

    def test_modes_offset_from_round_energies(self):
        spec = DiscretizationSpec(mode_spacing=0.5, band=(38.0, 40.0))
        assert np.allclose(spec.modes(), [38.25, 38.75, 39.25, 39.75])


class TestFirstLevelSum:
    def test_matches_continuum(self, model):
        c = CouplingConfig.transmon_ratio(1.0)
        spec = DiscretizationSpec.for_model(model, 0.01)
        y, w = model.b + 0.3, model.center(1) - 0.2
        got = discrete_self_energy_1(y, w, spec, model, c)
        want = sigma1(y, w, model, c)
        assert got.real == pytest.approx(want.real, abs=0.02)
        assert got.imag == pytest.approx(want.imag, rel=0.02)

    def test_band_coverage_enforced(self, model):
        c = CouplingConfig.transmon_ratio(1.0)
        spec = DiscretizationSpec(mode_spacing=0.05, band=(47.0, 53.0))
        with pytest.raises(ValueError, match="cover"):
            discrete_self_energy_1(model.b, model.center(1), spec, model, c)


class TestSecondLevelSum:
    def test_stable_limit_matches_closed_form(self, model):
        c = CouplingConfig.stable_second_level(1.0)
        spec = DiscretizationSpec.for_model(model, 0.01)
        y = model.b + 0.4
        got = discrete_self_energy_2(y, spec, model, c)
        want = sigma2(y, model, c, Regime.STABLE)
        assert got.real == pytest.approx(want.real, abs=0.05)
        assert got.imag == pytest.approx(want.imag, rel=0.05)

    def test_width_nonnegative(self, model):
        c = CouplingConfig.transmon_ratio(1.0)
        spec = DiscretizationSpec.for_model(model, 0.02)
        for y in (model.b - 6.0, model.b, model.b + 6.0):
            assert discrete_self_energy_2(y, spec, model, c).imag <= 0.0


class TestConvergenceReport:
    def test_monotone_for_stable_regime(self, model, settings):
        c = CouplingConfig.stable_second_level(1.0)
        ys = [model.b - 0.5, model.b, model.b + 0.7]
        report = convergence_report(ys, [0.05, 0.02, 0.01], model, c, settings)
        assert report.monotone
        assert report.rows[-1].max_rel_err < report.rows[0].max_rel_err

    def test_table_rendering(self, model, settings):
        c = CouplingConfig.stable_second_level(1.0)
        report = convergence_report([model.b], [0.05, 0.02], model, c, settings)
        table = report.as_table()
        assert "spacing" in table and len(table.splitlines()) == 3

    def test_rejects_unordered_spacings(self, model, settings):
        c = CouplingConfig.stable_second_level(1.0)
        with pytest.raises(ValueError, match="decreasing"):
            convergence_report([model.b], [0.01, 0.05], model, c, settings)

    def test_rejects_empty_inputs(self, model, settings):
        c = CouplingConfig.stable_second_level(1.0)
        with pytest.raises(ValueError):
            convergence_report([], [0.05], model, c, settings)
        with pytest.raises(ValueError):
            convergence_report([model.b], [], model, c, settings)
