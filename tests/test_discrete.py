import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

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
from transmon_decay.cli import EXIT_OK, main
from transmon_decay.discrete import _sigma1_at_modes
from transmon_decay.model import NumericalError, coupling_sq

ORACLE_INI = Path(__file__).resolve().parents[1] / "configs" / "oracle_l2_1.ini"
LATTICE_SPACINGS = (0.05, 0.02, 0.01, 0.005)
REPORT_SPACINGS = (0.05, 0.02, 0.01)
# worst finest-row error seen over 5500 values of L2 in [0.05, 20]: 0.0529 at L2 = 6.75
FINEST_REL_ERR = 0.06


def direct_sigma1(y, spec, m, c, rows=256):
    """First-level (shift, width) at every mode: the double sum over mode
    pairs written out, a block of rows at a time."""
    eps = spec.pole_offset
    modes = spec.modes()
    g1sq = coupling_sq(m, c, 1, modes) * spec.mode_spacing
    shift = np.empty(len(modes))
    width = np.empty(len(modes))
    for i in range(0, len(modes), rows):
        x = y - modes[i : i + rows, None] - modes[None, :]
        denom = x * x + eps * eps
        shift[i : i + rows] = (g1sq * x / denom).sum(axis=1)
        width[i : i + rows] = 2.0 * (g1sq * eps / denom).sum(axis=1)
    xs = y - 2.0 * modes
    dself = xs * xs + eps * eps
    return shift + 0.5 * g1sq * xs / dself, width + g1sq * eps / dself


def direct_sigma2(y, spec, m, c):
    """Second-level sum over modes with ``direct_sigma1`` in the denominators."""
    modes = spec.modes()
    g2sq = coupling_sq(m, c, 2, modes) * spec.mode_spacing
    if c.v1_enabled and c.l1 > 0:
        s1_shift, s1_width = direct_sigma1(y, spec, m, c)
        eps = 0.0
    else:
        s1_shift = s1_width = np.zeros_like(modes)
        eps = spec.pole_offset
    x = y - m.a - modes - s1_shift
    denom = x * x + 0.25 * s1_width**2 + eps**2
    width = (g2sq * (s1_width + 2.0 * eps) / denom).sum()
    return complex((g2sq * x / denom).sum(), -0.5 * width)


def default_energies(m):
    return [m.b - 1.0, m.b - 0.5, m.b, m.b + 0.7, m.b + 1.6]


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

    def test_rejects_band_without_modes(self):
        with pytest.raises(ValueError, match="no mode"):
            DiscretizationSpec(mode_spacing=30.0, band=(38.0, 60.0))

    def test_rejects_unregularized_poles(self):
        # offset wider than the spacing or non-positive means poles can sit
        # exactly on a mode frequency and diverge
        with pytest.raises(ValueError, match="diverge"):
            DiscretizationSpec(mode_spacing=0.01, band=(38.0, 60.0), pole_offset=0.05)
        with pytest.raises(ValueError, match="diverge"):
            DiscretizationSpec(mode_spacing=0.01, band=(38.0, 60.0), pole_offset=-0.01)

    def test_explicit_zero_pole_offset_is_rejected(self, model):
        # None, not 0, stands for "equal to the spacing"
        with pytest.raises(ValueError, match="diverge"):
            DiscretizationSpec(mode_spacing=0.01, band=(38.0, 60.0), pole_offset=0.0)
        with pytest.raises(ValueError, match="diverge"):
            DiscretizationSpec.for_model(model, 0.01, pole_offset=0.0)

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
        with pytest.raises(NumericalError, match="cover"):
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


class TestLatticeSums:
    """The FFT correlation against the double sum it replaces."""

    def test_mode_counts_odd_and_even(self, model):
        counts = [len(DiscretizationSpec.for_model(model, s).modes()) for s in LATTICE_SPACINGS]
        assert counts == [430, 1075, 2150, 4300]

    @pytest.mark.parametrize("spacing", LATTICE_SPACINGS)
    @pytest.mark.parametrize("pole_frac", [1.0, 0.5])
    @pytest.mark.parametrize("y", [99.2, 60.0, 140.0])  # 60 and 140: no mode pair is near a pole
    def test_first_level_matches_direct_sum(self, model, spacing, pole_frac, y):
        c = CouplingConfig.transmon_ratio(1.0)
        spec = DiscretizationSpec.for_model(model, spacing, pole_offset=pole_frac * spacing)
        got, want = _sigma1_at_modes(y, spec, model, c), direct_sigma1(y, spec, model, c)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-11 * np.max(np.abs(w))

    @pytest.mark.parametrize("k", [0, 17, 1074])
    def test_single_row_matches_direct_sum(self, model, k):
        c = CouplingConfig.transmon_ratio(1.0)
        spec = DiscretizationSpec.for_model(model, 0.02)
        y = model.b + 0.7
        shift, width = direct_sigma1(y, spec, model, c)
        got = discrete_self_energy_1(y, spec.modes()[k], spec, model, c)
        assert abs(got.real - shift[k]) <= 1e-11 * np.max(np.abs(shift))
        assert abs(-2.0 * got.imag - width[k]) <= 1e-11 * np.max(width)

    @pytest.mark.parametrize(
        "coupling",
        [
            CouplingConfig.transmon_ratio(1.0),
            CouplingConfig.transmon_ratio(20.0),
            CouplingConfig(l1=2.0 / 3.0, l2=1.0, v1_enabled=False),
            CouplingConfig(l1=0.0, l2=1.0),
        ],
        ids=["l2-1", "l2-20", "v1-off", "l1-zero"],
    )
    @pytest.mark.parametrize("spacing", [0.02, 0.005])
    @pytest.mark.parametrize("y", [97.5, 100.1, 140.0])
    def test_second_level_matches_direct_sum(self, model, coupling, spacing, y):
        spec = DiscretizationSpec.for_model(model, spacing, pole_offset=0.5 * spacing)
        want = direct_sigma2(y, spec, model, coupling)
        assert abs(discrete_self_energy_2(y, spec, model, coupling) - want) <= 1e-11 * abs(want)

    def test_bare_pole_rule_is_per_call(self, model):
        # L1 = 0 with V1 on is the same bare, eps-regularized pole as V1 off
        spec = DiscretizationSpec.for_model(model, 0.02)
        off = CouplingConfig(l1=2.0 / 3.0, l2=1.0, v1_enabled=False)
        zero = CouplingConfig(l1=0.0, l2=1.0)
        for y in default_energies(model):
            assert discrete_self_energy_2(y, spec, model, zero) == discrete_self_energy_2(
                y, spec, model, off
            )

    @pytest.mark.parametrize("spacing", REPORT_SPACINGS)
    def test_first_level_width_positive_on_every_mode(self, model, spacing):
        # so dropping eps whenever L1 > 0 is the per-mode "width > 0" rule
        c = CouplingConfig.transmon_ratio(1.0)
        spec = DiscretizationSpec.for_model(model, spacing)
        for y in default_energies(model):
            assert _sigma1_at_modes(y, spec, model, c)[1].min() > 1e-5


class TestOracleAgreement:
    @hyp_settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.05, max_value=20.0))
    @example(1.0)
    @example(20.0)
    def test_finest_row_within_bound(self, model, settings, l2):
        c = CouplingConfig.transmon_ratio(l2)
        report = convergence_report(default_energies(model), REPORT_SPACINGS, model, c, settings)
        assert [r.modes for r in report.rows] == [430, 1075, 2150]
        assert report.rows[-1].max_rel_err < FINEST_REL_ERR

    @pytest.mark.parametrize("l2", [0.05, 1.0, 20.0])
    def test_monotone(self, model, settings, l2):
        c = CouplingConfig.transmon_ratio(l2)
        report = convergence_report(default_energies(model), REPORT_SPACINGS, model, c, settings)
        assert report.monotone

    @pytest.mark.xfail(
        strict=True,
        reason="for L2 in about [5.07, 8.90] a second-level pole where the first-level "
        "width is a Gaussian tail is about as narrow as the mode spacing, so the error "
        "at 0.01 can exceed the error at 0.02 (here 0.151 vs 0.076)",
    )
    def test_monotone_in_the_narrow_pole_window(self, model, settings):
        c = CouplingConfig.transmon_ratio(6.4771)
        report = convergence_report(default_energies(model), REPORT_SPACINGS, model, c, settings)
        assert report.monotone


class TestOracleCommand:
    def test_reruns_are_byte_identical(self, tmp_path):
        outs = [tmp_path / "first", tmp_path / "second"]
        for out in outs:
            assert main(["oracle", "--config", str(ORACLE_INI), "--out", str(out)]) == EXIT_OK
        for name in ("oracle.json", "oracle.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_json_counts_modes_per_spacing(self, tmp_path):
        assert main(["oracle", "--config", str(ORACLE_INI), "--out", str(tmp_path)]) == EXIT_OK
        data = json.loads((tmp_path / "oracle.json").read_text())
        assert [r["modes"] for r in data["rows"]] == [430, 1075, 2150]
        header = (tmp_path / "oracle.csv").read_text().splitlines()[0]
        assert header == "spacing,max_abs_err_shift,max_abs_err_width,max_rel_err"
