"""Run configuration: flat key=value sections, parsed into one frozen object.

The file format is INI-style (configparser) with a fixed schema; unknown
sections or keys are rejected so a typo cannot silently fall back to a
default.  Exactly one of the dimensionless (``a``, ``b``) or physical
(``e_e_ghz``, ``e_f_ghz``, ``delta_mhz``) parameter sets may be present.
Defaults reproduce the reference operating point: a=50, b=98.5,
L1 = (2/3) L2.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .model import CouplingConfig, DimensionlessModel, ModelError
from .quadrature import QuadratureSettings
from .spectrum import Regime

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid or malformed run configuration."""


_SCHEMA: dict[str, set[str]] = {
    "model": {"mode", "a", "b", "e_e_ghz", "e_f_ghz", "delta_mhz"},
    "coupling": {"l1", "l2", "v1_enabled", "regime"},
    "grid": {"span", "coarse_step"},
    "quadrature": {"abs_tol", "rel_tol", "tail_cutoff"},
    "time": {"t_max", "steps"},
    "sweep": {"l2_min", "l2_max", "steps"},
    "oracle": {"spacings", "energies", "pole_offset"},
}


@dataclass(frozen=True)
class RunConfig:
    model: DimensionlessModel
    coupling: CouplingConfig
    regime: Regime
    quadrature: QuadratureSettings
    mode: str = "dimensionless"  # or "physical"
    delta_rad_s: float | None = None  # set in physical mode
    grid_span: float = 12.0
    coarse_step: float | None = None
    t_max: float = 30.0
    t_steps: int = 2000
    sweep_l2_min: float = 0.05
    sweep_l2_max: float = 6.0
    sweep_steps: int = 40
    oracle_spacings: tuple[float, ...] = (0.05, 0.02, 0.01)
    oracle_energies: tuple[float, ...] = ()
    oracle_pole_offset: float | None = None
    resolved: dict = field(default_factory=dict)  # full echo for reproducibility

    def default_oracle_energies(self) -> tuple[float, ...]:
        if self.oracle_energies:
            return self.oracle_energies
        b = self.model.b
        return (b - 1.0, b - 0.5, b, b + 0.7, b + 1.6)


def _get(parser, section, key, cast, default=None, required=False):
    if parser.has_option(section, key):
        raw = parser.get(section, key).strip()
        if raw != "":
            try:
                return cast(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc
    if required:
        raise ConfigError(f"missing required key [{section}] {key}")
    return default


def _bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")

    mode = _get(parser, "model", "mode", str, default="dimensionless").lower()
    if mode not in ("dimensionless", "physical"):
        raise ConfigError(f"mode must be 'dimensionless' or 'physical', got {mode!r}")

    dimless_keys = [k for k in ("a", "b") if parser.has_option("model", k)]
    physical_keys = [
        k for k in ("e_e_ghz", "e_f_ghz", "delta_mhz") if parser.has_option("model", k)
    ]
    if dimless_keys and physical_keys:
        raise ConfigError(
            "give either dimensionless (a, b) or physical (e_e_ghz, e_f_ghz, delta_mhz) "
            "model parameters, not both"
        )

    delta_rad_s = None
    try:
        if mode == "physical":
            e_e = TWO_PI * 1e9 * _get(parser, "model", "e_e_ghz", float, default=5.0)
            e_f = TWO_PI * 1e9 * _get(parser, "model", "e_f_ghz", float, default=9.85)
            delta_rad_s = TWO_PI * 1e6 * _get(parser, "model", "delta_mhz", float, default=100.0)
            if dimless_keys:
                raise ConfigError("physical mode does not accept dimensionless a/b keys")
            model = DimensionlessModel(a=e_e / delta_rad_s, b=e_f / delta_rad_s)
        else:
            if physical_keys:
                raise ConfigError("dimensionless mode does not accept GHz/MHz keys")
            a = _get(parser, "model", "a", float, default=50.0)
            b = _get(parser, "model", "b", float, default=98.5)
            model = DimensionlessModel(a=a, b=b)
    except ModelError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc

    l2 = _get(parser, "coupling", "l2", float, required=True)
    v1_enabled = _get(parser, "coupling", "v1_enabled", _bool, default=True)
    l1 = _get(parser, "coupling", "l1", float, default=(2.0 / 3.0) * l2)
    try:
        coupling = CouplingConfig(l1=l1, l2=l2, v1_enabled=v1_enabled)
    except ModelError as exc:
        raise ConfigError(f"invalid coupling parameters: {exc}") from exc

    regime_raw = _get(parser, "coupling", "regime", str, default="auto").lower()
    if regime_raw == "auto":
        regime = Regime.FULL if v1_enabled else Regime.STABLE
    else:
        try:
            regime = Regime(regime_raw)
        except ValueError as exc:
            raise ConfigError(
                f"regime must be auto|stable|weak|full, got {regime_raw!r}"
            ) from exc
    if regime is not Regime.STABLE and not v1_enabled:
        raise ConfigError(f"regime {regime.value!r} requires v1_enabled = true")
    if regime is Regime.STABLE and v1_enabled:
        raise ConfigError("regime 'stable' requires v1_enabled = false")

    try:
        quadrature = QuadratureSettings(
            abs_tol=_get(parser, "quadrature", "abs_tol", float, default=1e-10),
            rel_tol=_get(parser, "quadrature", "rel_tol", float, default=1e-9),
            tail_cutoff=_get(parser, "quadrature", "tail_cutoff", float, default=10.0),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid quadrature settings: {exc}") from exc

    cfg = RunConfig(
        model=model,
        coupling=coupling,
        regime=regime,
        quadrature=quadrature,
        mode=mode,
        delta_rad_s=delta_rad_s,
        grid_span=_get(parser, "grid", "span", float, default=12.0),
        coarse_step=_get(parser, "grid", "coarse_step", float, default=None),
        t_max=_get(parser, "time", "t_max", float, default=30.0),
        t_steps=_get(parser, "time", "steps", int, default=2000),
        sweep_l2_min=_get(parser, "sweep", "l2_min", float, default=0.05),
        sweep_l2_max=_get(parser, "sweep", "l2_max", float, default=6.0),
        sweep_steps=_get(parser, "sweep", "steps", int, default=40),
        oracle_spacings=_get(parser, "oracle", "spacings", _float_list, default=(0.05, 0.02, 0.01)),
        oracle_energies=_get(parser, "oracle", "energies", _float_list, default=()),
        oracle_pole_offset=_get(parser, "oracle", "pole_offset", float, default=None),
    )
    if cfg.grid_span <= 0 or cfg.t_max <= 0 or cfg.t_steps < 2:
        raise ConfigError("grid span, t_max must be positive and time steps >= 2")
    if cfg.sweep_l2_min <= 0 or cfg.sweep_l2_max < cfg.sweep_l2_min or cfg.sweep_steps < 1:
        raise ConfigError("sweep range must be positive and non-empty")
    spacings = cfg.oracle_spacings
    if not spacings or spacings[-1] <= 0 or any(b >= a for a, b in zip(spacings, spacings[1:])):
        raise ConfigError(
            f"[oracle] spacings must be positive and strictly decreasing, got {list(spacings)}"
        )
    if cfg.oracle_pole_offset is not None and not (
        0.0 < cfg.oracle_pole_offset <= spacings[-1]
    ):
        raise ConfigError(
            "[oracle] pole_offset must satisfy 0 < pole_offset <= every spacing, "
            f"got {cfg.oracle_pole_offset}"
        )

    object.__setattr__(cfg, "resolved", _resolved_dict(cfg))
    return cfg


def _resolved_dict(cfg: RunConfig) -> dict:
    """Full defaults-expanded echo of the configuration (JSON-serializable)."""
    return {
        "model": {
            "mode": cfg.mode,
            "a": cfg.model.a,
            "b": cfg.model.b,
            "alpha_d": cfg.model.alpha_d,
            "delta_rad_s": cfg.delta_rad_s,
        },
        "coupling": {
            "l1": cfg.coupling.l1,
            "l2": cfg.coupling.l2,
            "v1_enabled": cfg.coupling.v1_enabled,
            "regime": cfg.regime.value,
        },
        "grid": {"span": cfg.grid_span, "coarse_step": cfg.coarse_step},
        "quadrature": {
            "abs_tol": cfg.quadrature.abs_tol,
            "rel_tol": cfg.quadrature.rel_tol,
            "tail_cutoff": cfg.quadrature.tail_cutoff,
        },
        "time": {"t_max": cfg.t_max, "steps": cfg.t_steps},
        "sweep": {
            "l2_min": cfg.sweep_l2_min,
            "l2_max": cfg.sweep_l2_max,
            "steps": cfg.sweep_steps,
        },
        "oracle": {
            "spacings": list(cfg.oracle_spacings),
            "energies": list(cfg.default_oracle_energies()),
            "pole_offset": cfg.oracle_pole_offset,
        },
    }
