"""One workload in one fresh process: set up, run studies, report as JSON.

Started by ``run.py`` (never imported by it).  The first line written to
stdout is ``ready`` once ``transmon_decay`` is imported and the workload's
inputs are built; with ``--setup-only`` the process exits there.  Otherwise
it runs studies (at least one) while one more of typical length still ends
within ``--seconds``, so a run seldom overruns them; it checks every
study's outputs and writes one JSON line with the per-study records.

With ``--trace 1`` the studies alternate untraced and traced, so the run
measures the tracing overhead as well as the spans.  The spans are written
once, at the end, to ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import studies  # noqa: E402  (needs the checkout's src on the path)
import tracing  # noqa: E402
import transmon_decay  # noqa: E402

TMP_ROOT = ROOT / ".bench_tmp"
OUT_ROOT = ROOT / ".bench_out"


def environment() -> dict:
    """Interpreter, library and machine facts recorded with every result."""
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": platform.processor() or "unknown",
        "caches": {},
        "thread_caps": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            env["caches"][f"L{level} {kind}"] = size
    except OSError:
        pass
    return env


def run_study(workload, inputs, tracer) -> tuple[float, dict]:
    """One timed study in its own output directory; returns seconds and outputs."""
    out_dir = Path(tempfile.mkdtemp(prefix="study-", dir=TMP_ROOT))
    try:
        start = time.perf_counter()
        result = tracer.call(tracing.STUDY, workload.run, inputs, out_dir, tracer)
        seconds = time.perf_counter() - start
        return seconds, workload.outputs(result, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def fits(records: list[dict], elapsed: float, seconds: float) -> bool:
    """Whether a study as long as the typical one so far ends within ``seconds``."""
    return elapsed + statistics.median(r["seconds"] for r in records) <= seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(studies.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not Path(transmon_decay.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"transmon_decay imported from outside {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = studies.WORKLOADS[args.workload]
    TMP_ROOT.mkdir(exist_ok=True)
    inputs_dir = Path(tempfile.mkdtemp(prefix="inputs-", dir=TMP_ROOT))
    try:
        inputs = workload.make_inputs(args.seed, inputs_dir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        reference = studies.load_reference()[workload.name]
        tracer = tracing.Tracer() if args.trace else None
        null = tracing.NullTracer()
        records = []
        least = 2 if tracer is not None else 1
        start = time.perf_counter()
        while len(records) < least or fits(records, time.perf_counter() - start, args.seconds):
            # traced runs alternate untraced and traced studies, starting untraced
            traced = tracer is not None and len(records) % 2 == 1
            first = tracer.begin_study() if traced else 0
            record = {"traced": traced}
            attempt = time.perf_counter()
            try:
                if traced:
                    with tracing.patched(tracer):
                        seconds, outputs = run_study(workload, inputs, tracer)
                else:
                    seconds, outputs = run_study(workload, inputs, null)
                record["seconds"] = seconds
                record["failures"] = studies.check(workload.name, args.seed, outputs, reference)
            except Exception:  # a failed study is counted, and the run goes on
                record["seconds"] = time.perf_counter() - attempt
                record["failures"] = [traceback.format_exc()]
            if traced:
                total, own, calls = tracing.study_times(tracer, first, len(tracer.spans))
                record.update(total=total, own=own, calls=calls, counts=dict(tracer.counts))
            records.append(record)

        if tracer is not None:
            OUT_ROOT.mkdir(exist_ok=True)
            path = OUT_ROOT / f"trace-{workload.name}-seed{args.seed}.json"
            path.write_text(json.dumps({**tracer.dump(), "records": records}))
        report = {
            "records": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(),
        }
        if tracer is not None:
            report["span_cost_s"] = tracing.span_cost_s()
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
