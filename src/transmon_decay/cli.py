"""Reproducible command line surface.

Commands, the one positional argument: ``spectrum``, ``resonances``,
``sweep``, ``timedomain``, ``oracle``.  Every command reads one config file
and writes its results under an output directory; runs with identical
inputs produce byte-identical files (no timestamps, fixed float formatting,
sorted JSON keys).

Exit codes: 0 on success, 1 on a ``NumericalError`` or a non-converging
oracle, 2 on a configuration or usage error.  Any other exception is a bug
and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import functools
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
from .spectrum import SigmaStats, _reset_caches, build_grid
from .time_domain import rabi_metrics, survival_amplitude

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

_TWO_PI = 2.0 * math.pi


def _jnum(x):
    """JSON-safe number with the same 12-significant-digit contract as CSV."""
    if x is None:
        return None
    x = float(x)
    if math.isinf(x) or math.isnan(x):
        return repr(x)
    return float("%.12g" % x)


# ---------------------------------------------------------------------------
# tables: float64 columns as "%.12g" text, formatted column-wise in numpy
#
# A field's 12 significant digits are round(|v| 10^(11 - e)) for its decimal
# exponent e = floor(log10 |v|).  The scaling rounds at most four times, so
# the scaled value is within 4e-4 of the exact one.  Python's "%" formats
# instead every value whose scaled fraction lies within _TIE of .5, whose
# magnitude is outside _FAST, or whose digits fall outside [1e11, 1e12)
# because log10 rounded across a power of ten (Steele & White, PLDI 1990;
# Loitsch, PLDI 2010: a fast path with an exact fallback).  The digits come
# four at a time from a table, and each field is gathered from a per-value
# source row by one of 432 layouts, keyed by notation and exponent,
# significant digits and sign.

_FIELD = 20  # bytes of the longest field, "-1.23456789012e-100", and its separator
_FAST = (1e-280, 1e280)  # magnitudes formatted in numpy; 0, inf, nan and subnormals are not
_TIE = 2e-3  # scaled fractions this close to .5 may round either way: Python decides
_BLOCK = 1 << 12  # fields formatted at a time: ~1 MB of temporaries

# bytes of a source row (six uint32 words): the 12 digits, ".0-e", the four
# digits of |e|, the sign of e and the field's separator
_DOT, _ZERO, _MINUS, _E, _EXP, _EXP_SIGN, _SEP = 12, 13, 14, 15, 16, 20, 21
_SOURCE = 24


def _layout(notation: int, digits: int, negative: int) -> list[int]:
    """Source bytes of one field: ``notation`` 0-15 is fixed point with
    exponent ``notation - 4``, 16 and 17 scientific with a two- and a
    three-digit exponent; ``digits`` significant digits are kept."""
    sign = [_MINUS] * negative
    if notation >= 16:
        fraction = [_DOT, *range(1, digits)] if digits > 1 else []
        return [*sign, 0, *fraction, _E, _EXP_SIGN, *range(_EXP + 18 - notation, _EXP + 4)]
    e = notation - 4
    if e < 0:
        return [*sign, _ZERO, _DOT, *[_ZERO] * (-e - 1), *range(digits)]
    fraction = [_DOT, *range(e + 1, digits)] if digits > e + 1 else []
    return [*sign, *range(e + 1), *fraction]


@functools.lru_cache(maxsize=1)
def _format_tables():
    """The formatter's tables, built on first use: the ASCII digits of
    0..9999 as one uint32 each and their trailing zeros, exact powers of
    ten, every layout padded with the separator and its length, and the
    masks of a field and its separator by length."""
    n = np.arange(10_000)
    ascii_digits = (n[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    digits = ascii_digits.view(np.uint32).ravel()
    zeros = sum((n % 10**k == 0).astype(np.int64) for k in range(1, 5))
    powers = np.array([float(10**k) for k in range(300)])
    layouts = [
        _layout(notation, kept, negative)
        for notation in range(18)
        for kept in range(1, 13)
        for negative in (0, 1)
    ]
    lengths = np.array([len(layout) for layout in layouts])
    sources = np.full((len(layouts), _FIELD), _SEP, dtype=np.int32)
    for row, layout in zip(sources, layouts):
        row[: len(layout)] = layout
    masks = np.arange(_FIELD) <= np.arange(_FIELD)[:, None]
    return digits, zeros, powers, sources, lengths, masks


def _fields(values: np.ndarray, seps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of the float64 ``values`` as the bytes of ``"%.12g" % v``
    followed by its byte of ``seps``, one ``_FIELD``-byte row a value, and
    the length of each text."""
    digits, zeros, powers, sources, lengths, _ = _format_tables()
    mag = np.abs(values)
    fast = (mag >= _FAST[0]) & (mag <= _FAST[1])
    mag[~fast] = 1.0
    e = np.floor(np.log10(mag)).astype(np.int64)
    # mag * 10^(11 - e): by an exact power of ten up to 10^22, then by the rest
    up, down = np.maximum(11 - e, 0), np.maximum(e - 11, 0)
    scaled = mag * powers.take(np.minimum(up, 22)) / powers.take(np.minimum(down, 22))
    scaled = scaled * powers.take(np.maximum(up - 22, 0)) / powers.take(np.maximum(down - 22, 0))
    sig = np.rint(scaled)  # outside [1e11, 1e12) where log10 rounded across a power
    fast &= (abs(scaled - np.floor(scaled) - 0.5) > _TIE) & (sig >= 1e11) & (sig < 1e12)
    high, rest = np.divmod(np.where(fast, sig, 1e11).astype(np.int64), 10**8)
    mid, low = np.divmod(rest, 10**4)

    source = np.empty((len(values), _SOURCE // 4), dtype=np.uint32)
    source[:, 0] = digits.take(high)
    source[:, 1] = digits.take(mid)
    source[:, 2] = digits.take(low)
    source[:, 3] = np.frombuffer(b".0-e", dtype=np.uint32)[0]
    source[:, 4] = digits.take(abs(e))
    source = source.view(np.uint8)
    source[:, _EXP_SIGN] = np.where(e < 0, ord("-"), ord("+"))
    source[:, _SEP] = seps

    trailing = zeros.take(low) + (low == 0) * (zeros.take(mid) + (mid == 0) * zeros.take(high))
    notation = np.where((e >= -4) & (e < 12), e + 4, 16 + (abs(e) >= 100))
    key = np.where(fast, (notation * 12 + 11 - trailing) * 2 + np.signbit(values), 0)
    index = sources.take(key, axis=0)  # take is faster than indexing here
    index += np.arange(0, source.size, _SOURCE, dtype=np.int32)[:, None]
    text = source.ravel().take(index)
    length = lengths.take(key)

    slow = np.flatnonzero(~fast)
    if slow.size:
        exact = ["%.12g" % v for v in values[slow].tolist()]
        text[slow] = np.array(exact, dtype=f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
        length[slow] = [len(t) for t in exact]
        text[slow, length[slow]] = seps[slow]
    return text, length


def _formatted(columns, seps: bytes):
    """``_fields`` of a table of float64 ``columns``, a block of rows at a
    time, each field followed by its column's byte of ``seps``."""
    table = np.stack([np.asarray(column, dtype=np.float64) for column in columns], axis=1)
    rows, width = table.shape
    step = max(_BLOCK // width, 1)
    for start in range(0, rows, step):
        block = table[start : start + step].ravel()
        yield _fields(block, np.tile(np.frombuffer(seps, dtype=np.uint8), len(block) // width))


def _write_csv(path: Path, header: list[str], columns) -> str:
    """Header line, then one line of ``%.12g`` fields per row of the float64
    ``columns``; returns the sha256 of the bytes written."""
    masks = _format_tables()[-1]
    seps = b"," * (len(header) - 1) + b"\n"
    head = (",".join(header) + "\n").encode()
    digest = hashlib.sha256(head)
    with path.open("wb") as f:
        f.write(head)
        for text, length in _formatted(columns, seps):
            block = text[masks.take(length, axis=0)]
            f.write(block)
            digest.update(block)
    return digest.hexdigest()


def _json_rows(header: list[str], columns) -> list[dict]:
    """The rows of a table as ``_jnum`` gives them: each CSV field read back."""
    items = []
    for text, _ in _formatted(columns, bytes(len(header))):
        numbers = text.view(f"S{_FIELD}").ravel().astype(np.float64)
        block = numbers.tolist()
        for i in np.flatnonzero(~np.isfinite(numbers)).tolist():
            block[i] = repr(block[i])
        items += block
    width = len(header)
    return [dict(zip(header, items[i : i + width])) for i in range(0, len(items), width)]


def _write_json(path: Path, payload: dict) -> None:
    path.write_bytes((json.dumps(payload, sort_keys=True, indent=2) + "\n").encode())


def _write_table(
    out: Path, name: str, fmt: str, cfg: RunConfig, header, columns, info: dict
) -> None:
    """``name.csv`` with a ``name.meta.json`` sidecar, or ``name.json`` that
    holds the rows next to the same metadata."""
    meta = {"config": cfg.resolved, **info}
    if fmt == "csv":
        meta["sha256_csv"] = _write_csv(out / f"{name}.csv", header, columns)
        _write_json(out / f"{name}.meta.json", meta)
    else:
        meta["rows"] = _json_rows(header, columns)
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
# commands


def _build_cfg_grid(cfg: RunConfig, stats: SigmaStats):
    return build_grid(cfg.model, cfg.coupling, cfg.regime, _y_range(cfg), stats=stats)


def _cmd_spectrum(cfg: RunConfig, out: Path, fmt: str) -> int:
    stats = SigmaStats()
    grid = _build_cfg_grid(cfg, stats)
    columns = [grid.energies, grid.energies - cfg.model.b, grid.gamma2, grid.delta2, grid.u_ff]
    header = ["y", "y_minus_b", "gamma2", "delta2", "u_ff"]
    norm = float(np.trapezoid(grid.u_ff, grid.energies))
    info = {
        "n_points": int(len(grid.energies)),
        "norm": _jnum(norm),
        "complete": grid.complete,
        "sigma2": _sigma2_info(stats),
    }
    _write_table(out, "spectrum", fmt, cfg, header, columns, info)
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
        records = payload["records"]
        columns = [
            [r["y_r"] for r in records],
            [r["kind"] == "peak" for r in records],
            [r["height"] for r in records],
            [math.nan if r["fwhm"] is None else r["fwhm"] for r in records],
        ]
        _write_csv(out / "resonances.csv", ["y_r", "is_peak", "height", "fwhm"], columns)
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig, out: Path, fmt: str) -> int:
    l2_values = np.geomspace(cfg.sweep_l2_min, cfg.sweep_l2_max, cfg.sweep_steps)
    stats = SigmaStats()
    result = sweep_coupling(cfg.model, cfg.regime, l2_values, y_range=_y_range(cfg), stats=stats)
    records = [rec for recs in result.records_per_l2 for rec in recs]
    columns = [
        np.repeat(result.l2_values, [len(recs) for recs in result.records_per_l2]),
        [rec.y_r for rec in records],
        [rec.height for rec in records],
    ]
    header = ["l2", "y_r", "u_at_yr"]
    info = {
        "crossover_estimate": _jnum(result.crossover_estimate),
        "sigma2": _sigma2_info(stats),
    }
    _write_table(out, "sweep", fmt, cfg, header, columns, info)
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
    _write_table(out, "timedomain", fmt, cfg, header, columns, info)
    return EXIT_OK


def _cmd_oracle(cfg: RunConfig, out: Path, fmt: str) -> int:
    report = convergence_report(cfg.oracle_energies, cfg.oracle_spacings, cfg.model, cfg.coupling)
    header = ["spacing", "max_abs_err_shift", "max_abs_err_width", "max_rel_err"]
    columns = [[getattr(r, name) for r in report.rows] for name in header]
    info = {
        "monotone": report.monotone,
        "rows": [
            {**row, "modes": r.modes} for row, r in zip(_json_rows(header, columns), report.rows)
        ],
    }
    _write_json(out / "oracle.json", {"config": cfg.resolved, **info})
    if fmt == "csv":
        _write_csv(out / "oracle.csv", header, columns)
    if not report.monotone:
        print("oracle error: discrete sums do not converge monotonically", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "spectrum": (_cmd_spectrum, "adaptive spectral-function grid"),
    "resonances": (_cmd_resonances, "roots, peaks and widths"),
    "sweep": (_cmd_sweep, "root structure versus coupling strength"),
    "timedomain": (_cmd_timedomain, "survival amplitude and Rabi metrics"),
    "oracle": (_cmd_oracle, "discrete-mode convergence check"),
}


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transmon-decay",
        description="Decay spectra, resonances and survival dynamics of a "
        "three-level emitter coupled to a Gaussian continuum.",
    )
    commands = "; ".join(f"{name}: {text}" for name, (_, text) in _COMMANDS.items())
    parser.add_argument("command", choices=_COMMANDS, metavar="COMMAND", help=commands)
    parser.add_argument("--config", required=True, metavar="PATH", help="run configuration file")
    parser.add_argument("--out", default=".", metavar="DIR", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    0 on success; 1 after ``numerical error: ...`` on stderr for a
    ``NumericalError`` (and after ``oracle error: ...`` for a non-monotone
    oracle); 2 after ``config error: ...`` for a rejected config, and through
    argparse for a usage error.  On every config ``load_config`` accepts a
    command exits 0 or 1, with no uncaught exception and no warning
    (``tests/test_domain.py`` holds ``spectrum``, ``resonances`` and
    ``timedomain`` to that over the coupling, the regime, the span and
    ``t_max``).
    """
    args = _parser().parse_args(argv)
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
    _reset_caches()
    try:
        return _COMMANDS[args.command][0](cfg, out, args.format)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
