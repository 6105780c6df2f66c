"""Run configuration: flat key=value sections, parsed into one frozen object.

``_SCHEMA`` is the one list of config keys: it gives each key its cast and the
``RunConfig`` attribute echoed for it in ``RunConfig.resolved``.  Unknown
sections or keys are rejected, so a typo cannot silently fall back to a
default, and numbers must be finite.  A key left out takes the default of the
object it fills; only the model defaults, which no object owns, live here:
a=50, b=98.5, or 5.0 GHz, 9.85 GHz and 100 MHz in physical mode.
"""

from __future__ import annotations

import configparser
import math
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter

from .discrete import _mode_counts
from .model import CouplingConfig, DimensionlessModel, PhysicalParams
from .spectrum import _MAX_SCAN_POINTS, Regime, _check_regime, _scan_points, regime_for

TWO_PI = 2.0 * math.pi

_MODEL_DEFAULTS = {"a": 50.0, "b": 98.5, "e_e_ghz": 5.0, "e_f_ghz": 9.85, "delta_mhz": 100.0}


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_float(tok) for tok in raw.replace(",", " ").split())


def _one_of(words: dict):
    """Cast that maps a word, in any letter case, to its value in ``words``."""

    def cast(raw: str):
        if raw.lower() not in words:
            raise ValueError(f"{raw!r} is not {'|'.join(words)}")
        return words[raw.lower()]

    return cast


# section -> key -> (cast, the RunConfig attribute echoed for it).  Model and
# coupling keys are the keyword names of the objects they fill; the
# physical-unit keys resolve into ``model`` and ``delta_rad_s``.
_SCHEMA = {
    "model": {
        "mode": (_one_of({"dimensionless": False, "physical": True}), "mode"),
        "a": (_float, "model.a"),
        "b": (_float, "model.b"),
        "e_e_ghz": (_float, None),
        "e_f_ghz": (_float, None),
        "delta_mhz": (_float, None),
    },
    "coupling": {
        "l1": (_float, "coupling.l1"),
        "l2": (_float, "coupling.l2"),
        "v1_enabled": (_one_of(configparser.ConfigParser.BOOLEAN_STATES), "coupling.v1_enabled"),
        "regime": (_one_of({"auto": None} | {r.value: r for r in Regime}), "regime.value"),
    },
    "grid": {"span": (_float, "grid_span")},
    "time": {"t_max": (_float, "t_max"), "steps": (int, "t_steps")},
    "sweep": {
        "l2_min": (_float, "sweep_l2_min"),
        "l2_max": (_float, "sweep_l2_max"),
        "steps": (int, "sweep_steps"),
    },
    "oracle": {
        "spacings": (_floats, "oracle_spacings"),
        "energies": (_floats, "oracle_energies"),
    },
}
_RUN_SECTIONS = ("grid", "time", "sweep", "oracle")  # their keys fill RunConfig fields


def _plain(value):
    """JSON form of an echoed value: tuples become lists."""
    return list(value) if isinstance(value, tuple) else value


@dataclass(frozen=True)
class RunConfig:
    model: DimensionlessModel
    coupling: CouplingConfig
    regime: Regime
    delta_rad_s: float | None = None  # set in physical mode
    grid_span: float = 12.0
    t_max: float = 30.0
    t_steps: int = 2000
    sweep_l2_min: float = 0.05
    sweep_l2_max: float = 6.0
    sweep_steps: int = 40
    oracle_spacings: tuple[float, ...] = (0.05, 0.02, 0.01)
    oracle_energies: tuple[float, ...] = ()  # load_config fills in five energies around b

    @property
    def mode(self) -> str:
        return "dimensionless" if self.delta_rad_s is None else "physical"

    @property
    def resolved(self) -> dict:
        """Full defaults-expanded echo of the configuration (JSON-serializable)."""
        echo = {
            section: {k: _plain(attrgetter(attr)(self)) for k, (_, attr) in keys.items() if attr}
            for section, keys in _SCHEMA.items()
        }
        echo["model"].update(alpha_d=self.model.alpha_d, delta_rad_s=self.delta_rad_s)
        return echo


def _y_range(cfg: RunConfig) -> tuple[float, float]:
    """Scanned energy window ``(b - grid_span, b + grid_span)``."""
    return (cfg.model.b - cfg.grid_span, cfg.model.b + cfg.grid_span)


@contextmanager
def _invalid(what: str):
    """Report a ``ValueError`` raised by a constructor or check as a ``ConfigError``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    given: dict[str, dict] = {section: {} for section in _SCHEMA}  # the non-empty keys
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            try:
                raw = parser.get(section, key).strip()
                if raw != "":
                    given[section][key] = _SCHEMA[section][key][0](raw)
            except (configparser.Error, ValueError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc

    values = given["model"]
    physical = values.pop("mode", False)
    dimless = values.keys() & {"a", "b"}
    wrong = sorted(dimless if physical else values.keys() - dimless)
    if wrong:
        raise ConfigError(f"[model] mode does not take {wrong}: a, b or GHz/MHz keys, not both")
    values = {**_MODEL_DEFAULTS, **values}
    delta_rad_s = None
    with _invalid("model parameters"):
        if physical:
            p = PhysicalParams(
                e_e=TWO_PI * 1e9 * values["e_e_ghz"],
                e_f=TWO_PI * 1e9 * values["e_f_ghz"],
                delta=TWO_PI * 1e6 * values["delta_mhz"],
            )
            model, delta_rad_s = DimensionlessModel.from_physical(p), p.delta
        else:
            model = DimensionlessModel(a=values["a"], b=values["b"])

    values = given["coupling"]
    regime = values.pop("regime", None)
    if "l2" not in values:
        raise ConfigError("missing required key [coupling] l2")
    with _invalid("coupling parameters"):
        make = CouplingConfig if "l1" in values else CouplingConfig.transmon_ratio
        coupling = make(**values)
        regime = regime or regime_for(coupling)
        _check_regime(coupling, regime)

    fields = {_SCHEMA[s][k][1]: v for s in _RUN_SECTIONS for k, v in given[s].items()}
    fields.setdefault("oracle_energies", tuple(model.b + d for d in (-1.0, -0.5, 0.0, 0.7, 1.6)))
    cfg = RunConfig(model, coupling, regime, delta_rad_s, **fields)
    if cfg.grid_span <= 0 or cfg.t_max <= 0 or cfg.t_steps < 2:
        raise ConfigError("grid span, t_max must be positive and time steps >= 2")
    # the grid's scan: its step is at most find_roots' 0.01, so it bounds that scan too
    with _invalid("[grid] span"):
        _scan_points(model, regime, _y_range(cfg), None)
    if cfg.sweep_l2_min <= 0 or cfg.sweep_l2_max < cfg.sweep_l2_min or cfg.sweep_steps < 1:
        raise ConfigError("sweep range must be positive and non-empty")
    for key, steps in (("[time] steps", cfg.t_steps), ("[sweep] steps", cfg.sweep_steps)):
        if steps > _MAX_SCAN_POINTS:  # one float per step in the CLI's time or coupling grid
            raise ConfigError(f"{key} = {steps} is more than {_MAX_SCAN_POINTS}")
    with _invalid("[oracle] energies or spacings"):
        _mode_counts(model, cfg.oracle_spacings, len(cfg.oracle_energies))
    return cfg
