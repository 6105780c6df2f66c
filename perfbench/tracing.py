"""Spans around calls into the library's layers, recorded from outside.

A study calls every layer through ``tracer.call(span_name, fn, ...)``.  The
untraced ``NullTracer`` simply calls ``fn``; the ``Tracer`` records a span
(name, start, end, parent) for each call and keeps every span in memory until
the run ends.  Work counts are recorded at the same boundaries by the hooks
in ``HOOKS``, which read the arguments and the result of a call.

Two kinds of layer are reached only through another layer: the inner
``find_roots`` calls of ``sweep_coupling`` and ``scipy.integrate.quad`` as
``transmon_decay.quadrature`` uses it.  The CLI subcommands likewise reach
the grid, resonance and time-domain layers only through ``transmon_decay.cli``.
``patched`` wraps those functions at the module name they are called
through, for the traced run only; the untraced run patches nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from collections import Counter

import numpy as np

STUDY = "study"

# (module, attribute, span name): functions wrapped where they are called
# through, so layers reached only via another layer get spans too.
PATCHES = (
    ("transmon_decay.resonances", "find_roots", "resonances.sweep_find_roots"),
    ("transmon_decay.cli", "load_config", "config.load_config"),
    ("transmon_decay.cli", "build_grid", "spectrum.build_grid"),
    ("transmon_decay.cli", "find_roots", "resonances.find_roots"),
    ("transmon_decay.cli", "find_peaks", "resonances.find_peaks"),
    ("transmon_decay.cli", "fwhm", "resonances.fwhm"),
    ("transmon_decay.cli", "sweep_coupling", "resonances.sweep_coupling"),
    ("transmon_decay.cli", "survival_amplitude", "time_domain.survival_amplitude"),
    ("transmon_decay.cli", "rabi_metrics", "time_domain.rabi_metrics"),
)
QUAD_SPAN = "quadrature.quad"


class NullTracer:
    """Tracing off: calls pass straight through and nothing is recorded."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, key, n=1):
        pass


class Tracer:
    """In-memory span recorder with per-boundary work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name_id, start, end, parent_index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.last_grid_energies = None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [self._name_id(name), time.perf_counter(), math.nan, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        hook = HOOKS.get(name)
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def count(self, key, n=1):
        self.counts[key] += n

    def begin_study(self):
        """Reset per-study counters; returns the index of the study's first span."""
        self.counts = Counter()
        self.last_grid_energies = None
        return len(self.spans)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}


# ---------------------------------------------------------------------------
# work counts recorded at span boundaries


def _grid_counts(tr: Tracer, args, kwargs, grid):
    tr.count("spectrum.grid_points", len(grid.energies))
    tr.count("spectrum.refined_points", int(np.count_nonzero(grid.refinement_level)))
    tr.last_grid_energies = grid.energies


def _root_counts(tr: Tracer, args, kwargs, roots):
    tr.count("resonances.roots", len(roots))
    if tr.last_grid_energies is None:
        return
    # find_roots scans a uniform grid of ceil(span/scan_step)+1 energies;
    # count how many of them the preceding build_grid already evaluated
    m = args[0]
    lo, hi = kwargs.get("y_range") or (m.b - 12.0, m.b + 12.0)
    step = kwargs.get("scan_step", 0.01)
    scan = np.linspace(lo, hi, max(int(math.ceil((hi - lo) / step)), 8) + 1)
    grid = tr.last_grid_energies
    pos = np.clip(np.searchsorted(grid, scan), 1, len(grid) - 1)
    nearest = np.minimum(np.abs(grid[pos] - scan), np.abs(grid[pos - 1] - scan))
    tr.count("rescan_overlap", int(np.count_nonzero(nearest <= 1e-9)))
    tr.count("rescan_points", len(scan))


def _survival_counts(tr: Tracer, args, kwargs, series):
    grid = args[0]
    tr.count("time_domain.terms", len(series.times) * len(grid.energies))


def _quad_counts(tr: Tracer, args, kwargs, out):
    tr.count("quadrature.quad_calls")
    if isinstance(out, tuple) and len(out) > 2 and isinstance(out[2], dict):
        tr.count("quadrature.integrand_evals", int(out[2].get("neval", 0)))


HOOKS = {
    "spectrum.build_grid": _grid_counts,
    "resonances.find_roots": _root_counts,
    "time_domain.survival_amplitude": _survival_counts,
    QUAD_SPAN: _quad_counts,
}


class _QuadProxy:
    """Stand-in for ``scipy.integrate`` inside ``transmon_decay.quadrature``."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self.quad = tracer.wrap(QUAD_SPAN, module.quad)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Wrap the layers that are reached only through another layer."""
    saved = []
    try:
        quadrature = importlib.import_module("transmon_decay.quadrature")
        saved.append((quadrature, "integrate", quadrature.integrate))
        quadrature.integrate = _QuadProxy(quadrature.integrate, tracer)
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_cost_s(n: int = 20000) -> float:
    """Seconds one traced ``quad``-like call adds over the plain call."""
    out = (0.0, 0.0, {"neval": 21})

    def plain():
        return out

    traced = Tracer().wrap(QUAD_SPAN, plain)
    costs = []
    for fn in (traced, plain):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        costs.append(time.perf_counter() - start)
    return max(costs[0] - costs[1], 0.0) / n


# ---------------------------------------------------------------------------
# self time


def study_times(tracer: Tracer, first: int, last: int) -> tuple[dict, dict, dict]:
    """Inclusive seconds, self seconds and span counts per span name, for the
    spans ``first..last-1`` of one study.

    A span's self time is its duration minus the time its children cover;
    children never overlap because calls are nested on one thread.
    """
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    child_time: Counter = Counter()
    for i in range(first, last):
        name_id, start, end, parent = tracer.spans[i]
        if parent >= first:
            child_time[parent] += end - start
    for i in range(first, last):
        name_id, start, end, _ = tracer.spans[i]
        name = tracer.names[name_id]
        total[name] += end - start
        own[name] += end - start - child_time[i]
        calls[name] += 1
    return dict(total), dict(own), dict(calls)

