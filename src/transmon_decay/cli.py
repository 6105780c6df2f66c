"""Reproducible command line surface.

Subcommands: ``spectrum``, ``resonances``, ``sweep``, ``timedomain``,
``oracle``.  Every command reads one config file and writes its results under
an output directory; runs with identical inputs produce byte-identical files
(no timestamps, fixed float formatting, sorted JSON keys).

Exit codes: 0 on success, 1 on a ``NumericalError`` or a non-converging
oracle, 2 on a configuration or usage error.  Any other exception is a bug
and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, _y_range, load_config
from .discrete import convergence_report
from .model import NumericalError
from .resonances import find_peaks, find_roots, fwhm, spectral_callable, sweep_coupling
from .spectrum import SigmaStats, _proxy, build_grid
from .time_domain import rabi_metrics, survival_amplitude

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

_TWO_PI = 2.0 * math.pi
_ROW_BLOCK = 1024  # CSV rows converted to Python floats at a time


def _jnum(x):
    """JSON-safe number with the same 12-significant-digit contract as CSV."""
    if x is None:
        return None
    x = float(x)
    if math.isinf(x) or math.isnan(x):
        return repr(x)
    return float("%.12g" % x)


def _write_csv(path: Path, header: list[str], rows) -> str:
    """Header line, then one line of ``%.12g`` fields per row; returns the
    sha256 of the bytes written."""
    fmt = ",".join(["%.12g"] * len(header))
    data = "\n".join([",".join(header), *(fmt % tuple(row) for row in rows), ""]).encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _rows(*columns):
    """Rows of Python floats from array columns: ``%`` formats a float
    faster than a numpy scalar, to the same text.  Columns are converted
    ``_ROW_BLOCK`` rows at a time, so the floats held at once stay few."""
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        yield from zip(*(column[start : start + _ROW_BLOCK].tolist() for column in columns))


def _write_json(path: Path, payload: dict) -> None:
    path.write_bytes((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def _write_table(out: Path, name: str, fmt: str, cfg: RunConfig, header, rows, info: dict) -> None:
    """``name.csv`` with a ``name.meta.json`` sidecar, or ``name.json`` that
    holds the rows next to the same metadata."""
    meta = {"config": cfg.resolved, **info}
    if fmt == "csv":
        meta["sha256_csv"] = _write_csv(out / f"{name}.csv", header, rows)
        _write_json(out / f"{name}.meta.json", meta)
    else:
        meta["rows"] = [{k: _jnum(v) for k, v in zip(header, row)} for row in rows]
        _write_json(out / f"{name}.json", meta)


def _sigma2_info(stats: SigmaStats) -> dict:
    """Deterministic self-energy diagnostics for a sidecar."""
    return {
        "energies": stats.energies,
        "samples": stats.samples,
        "terms": stats.terms,
        "max_error_estimate": _jnum(stats.max_error),
        "max_tail": _jnum(stats.max_tail),
    }


# ---------------------------------------------------------------------------
# subcommands


def _build_cfg_grid(cfg: RunConfig, stats: SigmaStats):
    return build_grid(cfg.model, cfg.coupling, cfg.regime, _y_range(cfg), stats=stats)


def _cmd_spectrum(cfg: RunConfig, out: Path, fmt: str) -> int:
    stats = SigmaStats()
    grid = _build_cfg_grid(cfg, stats)
    rows = _rows(grid.energies, grid.energies - cfg.model.b, grid.gamma2, grid.delta2, grid.u_ff)
    header = ["y", "y_minus_b", "gamma2", "delta2", "u_ff"]
    norm = float(np.trapezoid(grid.u_ff, grid.energies))
    info = {
        "n_points": int(len(grid.energies)),
        "norm": _jnum(norm),
        "complete": grid.complete,
        "sigma2": _sigma2_info(stats),
    }
    _write_table(out, "spectrum", fmt, cfg, header, rows, info)
    return EXIT_OK


def _resonance_payload(cfg: RunConfig):
    stats = SigmaStats()
    grid = _build_cfg_grid(cfg, stats)
    roots = find_roots(cfg.model, cfg.coupling, cfg.regime, y_range=_y_range(cfg), stats=stats)
    peaks = find_peaks(grid, roots)
    u = spectral_callable(cfg.model, cfg.coupling, cfg.regime, stats=stats)
    records = []
    for rec in roots + peaks:
        entry = {
            "y_r": _jnum(rec.y_r),
            "kind": rec.kind,
            "height": _jnum(rec.height),
            "degenerate": rec.degenerate,
            "root_ref": _jnum(rec.root_ref),
            "fwhm": None,
            "fwhm_complete": None,
        }
        if rec.kind == "peak" and rec.height > 0:
            res = fwhm(rec, u)
            entry["fwhm"] = _jnum(res.width)
            entry["fwhm_complete"] = res.complete
        records.append(entry)

    payload = {"records": records, "sigma2": _sigma2_info(stats)}
    peak_locs = sorted(r.y_r for r in peaks)
    if len(peak_locs) >= 2:
        # beat of the two outermost peaks, reported in both period conventions
        dy = peak_locs[-1] - peak_locs[0]
        beat = {
            "peak_splitting": _jnum(dy),
            "period_single": _jnum(_TWO_PI / dy),
            "period_revival": _jnum(2.0 * _TWO_PI / dy),
        }
        if cfg.mode == "physical":
            d = cfg.delta_rad_s
            beat["splitting_rad_s"] = _jnum(dy * d)
            beat["splitting_hz"] = _jnum(dy * d / _TWO_PI)
            beat["period_single_s"] = _jnum(_TWO_PI / (dy * d))
            beat["period_revival_s"] = _jnum(2.0 * _TWO_PI / (dy * d))
        payload["beat"] = beat
    return payload


def _cmd_resonances(cfg: RunConfig, out: Path, fmt: str) -> int:
    payload = _resonance_payload(cfg)
    _write_json(out / "resonances.json", {"config": cfg.resolved, **payload})
    if fmt == "csv":
        rows = [
            (
                r["y_r"],
                0.0 if r["kind"] == "root" else 1.0,
                r["height"],
                r["fwhm"] if r["fwhm"] is not None else math.nan,
            )
            for r in payload["records"]
        ]
        _write_csv(out / "resonances.csv", ["y_r", "is_peak", "height", "fwhm"], rows)
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig, out: Path, fmt: str) -> int:
    l2_values = np.geomspace(cfg.sweep_l2_min, cfg.sweep_l2_max, cfg.sweep_steps)
    stats = SigmaStats()
    result = sweep_coupling(cfg.model, cfg.regime, l2_values, y_range=_y_range(cfg), stats=stats)
    rows = [
        (l2, rec.y_r, rec.height)
        for l2, recs in zip(result.l2_values, result.records_per_l2)
        for rec in recs
    ]
    header = ["l2", "y_r", "u_at_yr"]
    info = {
        "crossover_estimate": _jnum(result.crossover_estimate),
        "sigma2": _sigma2_info(stats),
    }
    _write_table(out, "sweep", fmt, cfg, header, rows, info)
    return EXIT_OK


def _cmd_timedomain(cfg: RunConfig, out: Path, fmt: str) -> int:
    stats = SigmaStats()
    grid = _build_cfg_grid(cfg, stats)
    times = np.linspace(0.0, cfg.t_max, cfg.t_steps)
    series = survival_amplitude(grid, times)
    metrics = rabi_metrics(series)

    header = ["t", "re_u", "im_u", "abs_u"]
    columns = [series.times, series.amplitude.real, series.amplitude.imag, series.magnitude]
    if cfg.mode == "physical":
        header.append("t_seconds")
        columns.append(series.times / cfg.delta_rad_s)
    rows = _rows(*columns)

    info = {
        "metrics": {
            "rabi_period": _jnum(metrics.rabi_period),
            "maxima_spacing": _jnum(metrics.maxima_spacing),
            "decay_time": _jnum(metrics.decay_time),
            "angular_rabi_frequency": _jnum(metrics.angular_rabi_frequency),
            "n_maxima": metrics.n_maxima,
        },
        "sigma2": _sigma2_info(stats),
        "time_domain": {
            "horizon": _jnum(series.horizon),
            "energies": len(grid.energies),
            "times": len(series.times),
        },
    }
    if cfg.mode == "physical":
        d = cfg.delta_rad_s
        phys = {}
        if metrics.rabi_period is not None:
            phys["rabi_period_s"] = _jnum(metrics.rabi_period / d)
            phys["rabi_frequency_hz"] = _jnum(d / metrics.rabi_period / _TWO_PI)
            phys["angular_rabi_frequency_rad_s"] = _jnum(metrics.angular_rabi_frequency * d)
        if math.isfinite(metrics.decay_time):
            phys["decay_time_s"] = _jnum(metrics.decay_time / d)
        info["metrics_physical"] = phys
    _write_table(out, "timedomain", fmt, cfg, header, rows, info)
    return EXIT_OK


def _cmd_oracle(cfg: RunConfig, out: Path, fmt: str) -> int:
    report = convergence_report(cfg.oracle_energies, cfg.oracle_spacings, cfg.model, cfg.coupling)
    rows = [
        (r.spacing, r.max_abs_err_shift, r.max_abs_err_width, r.max_rel_err)
        for r in report.rows
    ]
    header = ["spacing", "max_abs_err_shift", "max_abs_err_width", "max_rel_err"]
    info = {
        "monotone": report.monotone,
        "rows": [
            {**{k: _jnum(v) for k, v in zip(header, row)}, "modes": r.modes}
            for row, r in zip(rows, report.rows)
        ],
    }
    _write_json(out / "oracle.json", {"config": cfg.resolved, **info})
    if fmt == "csv":
        _write_csv(out / "oracle.csv", header, rows)
    if not report.monotone:
        print("oracle error: discrete sums do not converge monotonically", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "resonances": _cmd_resonances,
    "sweep": _cmd_sweep,
    "timedomain": _cmd_timedomain,
    "oracle": _cmd_oracle,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transmon-decay",
        description="Decay spectra, resonances and survival dynamics of a "
        "three-level emitter coupled to a Gaussian continuum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "adaptive spectral-function grid"),
        ("resonances", "roots, peaks and widths"),
        ("sweep", "root structure versus coupling strength"),
        ("timedomain", "survival amplitude and Rabi metrics"),
        ("oracle", "discrete-mode convergence check"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, metavar="PATH", help="run configuration file")
        p.add_argument("--out", default=".", metavar="DIR", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # each command builds its own FULL proxies, so the samples and terms in
    # its sidecar never depend on a command run earlier in the same process
    _proxy.cache_clear()
    try:
        return _COMMANDS[args.command](cfg, out, args.format)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
