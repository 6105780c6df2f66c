import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from transmon_decay import Regime
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
            "model", "coupling", "grid", "quadrature", "time", "sweep", "oracle",
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

    def test_bad_regime_name(self, tmp_path):
        with pytest.raises(ConfigError, match="regime"):
            load_config(write(tmp_path, "[coupling]\nl2 = 6\nregime = turbo\n"))

    def test_invalid_model_parameters(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid model"):
            load_config(write(tmp_path, "[model]\na = 5\nb = 9.5\n" + MINIMAL))

    def test_invalid_sweep_range(self, tmp_path):
        with pytest.raises(ConfigError, match="sweep"):
            load_config(write(tmp_path, MINIMAL + "[sweep]\nl2_min = 2\nl2_max = 1\n"))

    def test_oracle_lists_parsed(self, tmp_path):
        cfg = load_config(
            write(tmp_path, MINIMAL + "[oracle]\nspacings = 0.05, 0.01\nenergies = 98 99\n")
        )
        assert cfg.oracle_spacings == (0.05, 0.01)
        assert cfg.oracle_energies == (98.0, 99.0)

    @pytest.mark.parametrize("offset", ["0", "-0.01"])
    def test_nonpositive_pole_offset(self, tmp_path, offset):
        text = MINIMAL + f"[oracle]\nspacings = 0.05, 0.01\npole_offset = {offset}\n"
        with pytest.raises(ConfigError, match=r"\[oracle\] pole_offset"):
            load_config(write(tmp_path, text))


# the echo of every shipped config and of MINIMAL, value for value as every
# sidecar carries it
MINIMAL_ECHO = {
    "model": {"mode": "dimensionless", "a": 50.0, "b": 98.5, "alpha_d": 1.5, "delta_rad_s": None},
    "coupling": {"l1": 4.0, "l2": 6.0, "v1_enabled": True, "regime": "full"},
    "grid": {"span": 12.0, "coarse_step": None},
    "quadrature": {"abs_tol": 1e-10, "rel_tol": 1e-09, "tail_cutoff": 10.0},
    "time": {"t_max": 30.0, "steps": 2000},
    "sweep": {"l2_min": 0.05, "l2_max": 6.0, "steps": 40},
    "oracle": {
        "spacings": [0.05, 0.02, 0.01],
        "energies": [97.5, 98.0, 98.5, 99.2, 100.1],
        "pole_offset": None,
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
