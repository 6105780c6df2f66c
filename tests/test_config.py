import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from transmon_decay import CouplingConfig, DimensionlessModel, Regime, sigma2
from transmon_decay.config import _SCHEMA, ConfigError, RunConfig, load_config

ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


MINIMAL = "[coupling]\nl2 = 6\n"


class TestDefaults:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.model.a == 50.0
        assert cfg.model.b == 98.5
        assert cfg.coupling.l2 == 6.0
        assert cfg.coupling.l1 == pytest.approx(4.0)
        assert cfg.coupling.v1_enabled
        assert cfg.regime is Regime.FULL
        assert cfg.mode == "dimensionless"

    def test_stable_auto_regime(self, tmp_path):
        cfg = load_config(write(tmp_path, "[coupling]\nl2 = 6\nv1_enabled = no\n"))
        assert cfg.regime is Regime.STABLE
        assert cfg.coupling.l1 == pytest.approx(4.0)  # stored but inert

    def test_resolved_echo_complete(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert set(cfg.resolved) == {
            "model", "coupling", "grid", "time", "sweep", "oracle",
        }
        assert cfg.resolved["coupling"]["regime"] == "full"
        assert len(cfg.resolved["oracle"]["energies"]) == 5


class TestPhysicalMode:
    def test_reference_point(self, tmp_path):
        cfg = load_config(
            write(
                tmp_path,
                "[model]\nmode = physical\ne_e_ghz = 5.0\ne_f_ghz = 9.85\n"
                "delta_mhz = 100\n" + MINIMAL,
            )
        )
        assert cfg.model.a == pytest.approx(50.0)
        assert cfg.model.b == pytest.approx(98.5)
        assert cfg.delta_rad_s == pytest.approx(2 * math.pi * 1e8)

    def test_mixed_parameter_sets_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not both"):
            load_config(
                write(tmp_path, "[model]\na = 50\ne_e_ghz = 5.0\n" + MINIMAL)
            )

    def test_dimensionless_mode_rejects_ghz(self, tmp_path):
        with pytest.raises(ConfigError, match="GHz"):
            load_config(write(tmp_path, "[model]\ne_e_ghz = 5.0\n" + MINIMAL))


class TestValidation:
    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/run.ini")

    def test_missing_l2(self, tmp_path):
        with pytest.raises(ConfigError, match="l2"):
            load_config(write(tmp_path, "[model]\na = 50\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(write(tmp_path, MINIMAL + "[mystery]\nx = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(write(tmp_path, "[coupling]\nl2 = 6\nl3 = 1\n"))

    @pytest.mark.parametrize(
        "section, key, message",
        [
            ("quadrature", "tail_cutoff", "unknown config section [quadrature]"),
            ("quadrature", "abs_tol", "unknown config section [quadrature]"),
            ("quadrature", "rel_tol", "unknown config section [quadrature]"),
            ("grid", "coarse_step", "unknown config key [grid] coarse_step"),
            ("oracle", "pole_offset", "unknown config key [oracle] pole_offset"),
        ],
        ids=["tail_cutoff", "abs_tol", "rel_tol", "coarse_step", "pole_offset"],
    )
    def test_numerical_setting_is_not_a_config_key(self, tmp_path, section, key, message):
        # constants of the library: the FULL lattice sums every node whose
        # Gaussian factor is not 0.0, the tolerances are QuadratureSettings'
        # defaults, the grid's step follows the regime and the oracle's pole
        # offset is its spacing
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(write(tmp_path, MINIMAL + f"[{section}]\n{key} = 0.01\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(write(tmp_path, "[coupling]\nl2 = six\n"))

    def test_bad_boolean(self, tmp_path):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(write(tmp_path, "[coupling]\nl2 = 6\nv1_enabled = maybe\n"))

    def test_regime_conflicts(self, tmp_path):
        with pytest.raises(ConfigError, match="requires v1_enabled"):
            load_config(
                write(tmp_path, "[coupling]\nl2 = 6\nv1_enabled = no\nregime = full\n")
            )
        with pytest.raises(ConfigError, match="stable"):
            load_config(
                write(tmp_path, "[coupling]\nl2 = 6\nv1_enabled = yes\nregime = stable\n")
            )

    @pytest.mark.parametrize("v1_enabled", [True, False])
    @pytest.mark.parametrize("regime", list(Regime))
    def test_sigma2_keeps_the_same_regime_rule(self, tmp_path, regime, v1_enabled):
        # both accept exactly the pairs where STABLE means v1_enabled is off
        model = DimensionlessModel(a=50.0, b=98.5)
        coupling = CouplingConfig.transmon_ratio(1.0, v1_enabled=v1_enabled)
        path = write(
            tmp_path, f"[coupling]\nl2 = 1\nv1_enabled = {v1_enabled}\nregime = {regime.value}\n"
        )
        if (regime is Regime.STABLE) != v1_enabled:
            assert load_config(path).regime is regime
            assert math.isfinite(sigma2(model.b, model, coupling, regime).real)
        else:
            rule = f"regime '{regime.value}' requires v1_enabled = {str(not v1_enabled).lower()}"
            with pytest.raises(ConfigError, match=rule):
                load_config(path)
            with pytest.raises(ValueError, match=rule):
                sigma2(model.b, model, coupling, regime)

    def test_bad_regime_name(self, tmp_path):
        with pytest.raises(ConfigError, match="regime"):
            load_config(write(tmp_path, "[coupling]\nl2 = 6\nregime = turbo\n"))

    def test_invalid_model_parameters(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid model"):
            load_config(write(tmp_path, "[model]\na = 5\nb = 9.5\n" + MINIMAL))

    def test_invalid_sweep_range(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep"):
            load_config(write(tmp_path, MINIMAL + "[sweep]\nl2_min = 2\nl2_max = 1\n"))

    def test_unparsable_config(self, tmp_path):
        # configparser itself refuses a section given twice
        with pytest.raises(ConfigError, match="cannot parse config"):
            load_config(write(tmp_path, MINIMAL + "[coupling]\nl1 = 1\n"))

    @pytest.mark.parametrize(
        "extra",
        ["[grid]\nspan = 0\n", "[time]\nt_max = 0\n", "[time]\nsteps = 1\n"],
        ids=["span", "t_max", "steps"],
    )
    def test_empty_grid_or_time_axis(self, tmp_path, extra):
        with pytest.raises(ConfigError, match="must be positive and time steps >= 2"):
            load_config(write(tmp_path, MINIMAL + extra))

    def test_oracle_lists_parsed(self, tmp_path):
        cfg = load_config(
            write(tmp_path, MINIMAL + "[oracle]\nspacings = 0.05, 0.01\nenergies = 98 99\n")
        )
        assert cfg.oracle_spacings == (0.05, 0.01)
        assert cfg.oracle_energies == (98.0, 99.0)


# the echo of every shipped config and of MINIMAL, value for value as every
# sidecar carries it
MINIMAL_ECHO = {
    "model": {"mode": "dimensionless", "a": 50.0, "b": 98.5, "alpha_d": 1.5, "delta_rad_s": None},
    "coupling": {"l1": 4.0, "l2": 6.0, "v1_enabled": True, "regime": "full"},
    "grid": {"span": 12.0},
    "time": {"t_max": 30.0, "steps": 2000},
    "sweep": {"l2_min": 0.05, "l2_max": 6.0, "steps": 40},
    "oracle": {
        "spacings": [0.05, 0.02, 0.01],
        "energies": [97.5, 98.0, 98.5, 99.2, 100.1],
    },
}
ECHO_CHANGES = {
    "minimal": {},
    "oracle_l2_1": {"coupling": {"l1": 0.6666666666666666, "l2": 1.0}},
    "stable_l2_6": {
        "coupling": {"v1_enabled": False, "regime": "stable"},
        "time": {"t_max": 40.0, "steps": 4000},
    },
    "full_l2_6": {
        "model": {
            "mode": "physical",
            "a": 50.00000000000001,
            "b": 98.50000000000001,
            "delta_rad_s": 628318530.7179586,
        },
        "time": {"t_max": 12.0, "steps": 2400},
        "oracle": {
            "energies": [
                97.50000000000001,
                98.00000000000001,
                98.50000000000001,
                99.20000000000002,
                100.10000000000001,
            ],
        },
    },
}


class TestResolvedEcho:
    @pytest.mark.parametrize("name", sorted(ECHO_CHANGES))
    def test_golden_echo(self, tmp_path, name):
        path = str(ROOT / "configs" / f"{name}.ini")
        if name == "minimal":
            path = write(tmp_path, MINIMAL)
        changes = ECHO_CHANGES[name]
        expected = {s: {**keys, **changes.get(s, {})} for s, keys in MINIMAL_ECHO.items()}
        resolved = load_config(path).resolved
        assert resolved == expected
        # the sidecar bytes: catches 12 vs 12.0 and True vs 1, which == does not
        assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_readme_table_lists_every_schema_key(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", readme, flags=re.MULTILINE)
        assert len(rows) == len(set(rows))
        assert set(rows) == {(section, key) for section, keys in _SCHEMA.items() for key in keys}


HOSTILE_VALUES = [
    "0", "-1", "-0.0", "nan", "-nan", "inf", "-inf", "5e-324", "1e308", "-1e308",
    "six", "auto", "physical", "stable", "true", "no", "0.05, 0.02", "1 2 3", "", "5%",
    "6", "0.01", "98.5", "2",
]
SCHEMA_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys]


class TestHostileInput:
    @hyp_settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.sampled_from(SCHEMA_KEYS), st.sampled_from(HOSTILE_VALUES)))
    @example({("model", "mode"): "physical", ("model", "delta_mhz"): "0", ("coupling", "l2"): "6"})
    def test_load_config_raises_only_config_error(self, tmp_path_factory, entries):
        sections: dict[str, list[str]] = {}
        for (section, key), value in entries.items():
            sections.setdefault(section, []).append(f"{key} = {value}")
        text = "".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items())
        path = tmp_path_factory.mktemp("hostile") / "run.ini"
        path.write_text(text, encoding="utf-8")
        try:
            cfg = load_config(str(path))
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)
        json.dumps(cfg.resolved, allow_nan=False)  # every resolved number is finite
