"""Layered benchmark of transmon_decay: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload full_pipeline --seed 0 --seconds 55 --trace 0

The library is used straight from ``src/`` (nothing to build).  Each run
starts fresh interpreters with BLAS/OpenMP threads capped at one through the
environment: the worker (``worker.py``), which imports ``transmon_decay``,
builds the workload's inputs and then runs studies for ``--seconds`` seconds,
and ``SETUP_SAMPLES - 1`` that only import and build the inputs, half of them
before the worker and half after it, so the set-up samples span the run.  The
time from spawning each interpreter to its ``ready`` line is one set-up
sample.

``study_s`` is the mean wall time of the run's passing untraced studies (the
inverse of studies completed per second).  On a shared host whose speed
drifts within a run, the mean moves smoothly with the share of slow studies,
where the median jumps between the fast and the slow mode.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced and
traced studies alternately and reports the per-layer metrics from the
traced ones.  Every metric is printed with its unit, then the gate's verdict,
then one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
Exit code 0 when the run completed (whatever the verdict), 2 when there is
no library to measure, 3 when the worker failed or timed out.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
THREAD_CAPS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

END_TO_END_UNITS = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> span whose inclusive seconds it reports (median per study)
SPAN_SECONDS = {
    "quadrature.quad_s": "quadrature.quad",
    "spectrum.build_grid_s": "spectrum.build_grid",
    "resonances.find_roots_s": "resonances.find_roots",
    "resonances.sweep_s": "resonances.sweep_coupling",
    "resonances.find_peaks_s": "resonances.find_peaks",
    "resonances.fwhm_s": "resonances.fwhm",
    "time_domain.survival_s": "time_domain.survival_amplitude",
    "time_domain.rabi_s": "time_domain.rabi_metrics",
    "discrete.convergence_report_s": "discrete.convergence_report",
    "config.load_s": "config.load_config",
    "cli.spectrum_s": "cli.spectrum",
    "cli.resonances_s": "cli.resonances",
    "cli.timedomain_s": "cli.timedomain",
    "cli.sweep_s": "cli.sweep",
}
# work counts recorded at span boundaries
COUNTS = {
    "quadrature.quad_calls": "count",
    "quadrature.integrand_evals": "count",
    "spectrum.grid_points": "count",
    "spectrum.refined_points": "count",
    "resonances.roots": "count",
    "resonances.fwhm_u_evals": "count",
    "time_domain.terms": "count",
    "cli.bytes_written": "bytes",
}
# spans whose share of the study's self time is reported
SELF_SHARE_SPANS = sorted(set(SPAN_SECONDS.values()) | {
    "quadrature.quad",
    "resonances.sweep_find_roots",
})


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SPAN_SECONDS}
    units.update(COUNTS)
    units.update({
        "spectrum.build_grid_us_per_point": "us",
        "resonances.rescan_overlap_frac": "fraction",
        "resonances.sweep_find_roots_calls": "count",
        "resonances.sweep_find_roots_s_each": "s",
        "time_domain.survival_ns_per_term": "ns",
        "trace.study_s": "s",
        "trace.untraced_study_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
        "trace.span_cost_s": "s",
        "trace.unattributed_frac": "fraction",
    })
    units.update({f"self_share.{span}": "fraction" for span in SELF_SHARE_SPANS})
    return units


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced study."""
    total, own, calls, counts = record["total"], record["own"], record["calls"], record["counts"]
    study = total["study"]
    out = {name: total.get(span, 0.0) for name, span in SPAN_SECONDS.items()}
    out.update({name: counts.get(name, 0) for name in COUNTS})
    sweep_calls = calls.get("resonances.sweep_find_roots", 0)
    out.update({
        "spectrum.build_grid_us_per_point": _ratio(
            out["spectrum.build_grid_s"], out["spectrum.grid_points"], 1e6
        ),
        "resonances.rescan_overlap_frac": _ratio(
            counts.get("rescan_overlap", 0), counts.get("rescan_points", 0)
        ),
        "resonances.sweep_find_roots_calls": sweep_calls,
        "resonances.sweep_find_roots_s_each": _ratio(
            total.get("resonances.sweep_find_roots", 0.0), sweep_calls
        ),
        "time_domain.survival_ns_per_term": _ratio(
            out["time_domain.survival_s"], out["time_domain.terms"], 1e9
        ),
        "trace.unattributed_frac": own["study"] / study,
    })
    out.update({f"self_share.{span}": own.get(span, 0.0) / study for span in SELF_SHARE_SPANS})
    return out


def passing(records: list[dict], traced: bool) -> list[dict]:
    """The traced (or untraced) studies that passed the gate; all of them if none did."""
    chosen = [r for r in records if r["traced"] == traced]
    return [r for r in chosen if not r["failures"]] or chosen


def spawn(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a fresh worker interpreter; returns it and its seconds to ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise RuntimeError(f"worker did not become ready (got {line!r})")
    return proc, ready


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure(args, env: dict) -> tuple[dict, list[float]]:
    """Set-up samples and the worker's report for one run."""
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_only = base + ["--setup-only"]
    studying = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    runs = [setup_only] * (extra // 2) + [studying] + [setup_only] * (extra - extra // 2)
    setups, report = [], None
    for argv in runs:
        proc, ready = spawn(argv, env)
        setups.append(ready)
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {argv} exited with code {proc.returncode}")
        if argv is studying:
            report = json.loads(out.strip().splitlines()[-1])
    return report, setups


def main() -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of transmon_decay.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "transmon_decay" / "__init__.py").is_file():
        print(f"no transmon_decay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {**os.environ, **THREAD_CAPS}
    env.pop("PYTHONPATH", None)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        report, setups = measure(args, env)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    finally:
        with contextlib.suppress(OSError):
            (ROOT / ".bench_tmp").rmdir()  # only when no other run still uses it

    records = report["records"]
    failed = [r for r in records if r["failures"]]
    print("env " + json.dumps(report["env"], sort_keys=True))
    for i, r in enumerate(records, 1):
        verdict = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        kind = "traced" if r["traced"] else "untraced"
        print(f"study {i} ({kind}): {r['seconds']:.4f} s, {verdict}")

    untraced = [r["seconds"] for r in passing(records, traced=False)]
    if args.trace:
        traced = passing(records, traced=True)
        per_study = [layer_metrics(r) for r in traced]
        values = {name: statistics.median(m[name] for m in per_study) for name in per_study[0]}
        values["trace.study_s"] = statistics.fmean(r["seconds"] for r in traced)
        values["trace.untraced_study_s"] = statistics.fmean(untraced)
        values["trace.overhead_s"] = values["trace.study_s"] - values["trace.untraced_study_s"]
        values["trace.spans"] = statistics.median(sum(r["calls"].values()) for r in traced)
        values["trace.span_cost_s"] = values["trace.spans"] * report["span_cost_s"]
        units = per_layer_units()
    else:
        values = {
            "study_s": statistics.fmean(untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {len(failed)}/{len(records)} (failed/attempted studies)")
    print(f"check: {'pass' if not failed else 'FAIL'}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
