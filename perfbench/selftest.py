"""Self-test of the benchmark itself (not of the library):

1. the correctness gate accepts the reference outputs and rejects corrupted
   copies of them, for example a root shifted by 1e-3, on seed 0 and on a
   jittered seed;
2. a short run prints exactly the metrics ``BENCHMARK.json`` declares, with
   the declared units, for ``--trace 0`` and ``--trace 1``;
3. in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
   library sources) the benchmark exits non-zero without printing a result.

Run from the root of a checkout (takes about 15 seconds):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import worker  # puts the checkout's src on the path
from studies import check, load_reference

ROOT = worker.ROOT


def corrupt(ref: dict, path: tuple, change) -> dict:
    out = copy.deepcopy(ref)
    *parents, last = path
    target = out
    for key in parents:
        target = target[key]
    target[last] = change(target[last])
    return out


CORRUPTIONS = {
    "full_pipeline": [
        (("roots", 0), lambda v: v + 1e-3),
        (("fwhm", 1), lambda v: v * 1.01),
        (("norm",), lambda v: v + 2e-3),
        (("abs_u", 2), lambda v: v + 1e-4),
        (("rabi_period",), lambda v: v * 1.001),
        (("oracle", 2, 1), lambda v: v * 1.01),
        (("monotone",), lambda v: not v),
    ],
    "stable_cli": [
        (("roots", 0), lambda v: v + 1e-3),
        (("abs_u", 0), lambda v: v - 2e-3),
        (("fwhm", 0), lambda v: v * 1.01),
        (("root_counts", 14), lambda v: v - 2),
        (("crossover",), lambda v: v + 0.01),
    ],
}


def gate_tests() -> list[str]:
    problems = []
    reference = load_reference()
    for name, cases in CORRUPTIONS.items():
        ref = reference[name]
        for seed in (0, 7):
            failures = check(name, seed, ref, ref)
            if failures:
                problems.append(f"{name} seed {seed}: reference rejected: {failures}")
        for path, change in cases:
            bad = corrupt(ref, path, change)
            for seed in (0, 7) if path[0] == "roots" else (0,):
                failures = check(name, seed, bad, ref)
                label = f"{name} seed {seed}: {'.'.join(map(str, path))} corrupted"
                print(f"{label}: {'rejected' if failures else 'ACCEPTED'}")
                if not failures:
                    problems.append(f"{label} passed the gate")
    return problems


def result_line(cwd: Path, trace: int) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stable_cli", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def metric_tests() -> list[str]:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = result_line(ROOT, trace)
        if code != 0 or result is None:
            problems.append(f"--trace {trace}: exit code {code}, no result line")
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
            problems.append(f"--trace {trace}: bad result line {result}")
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        print(f"--trace {trace}: {len(printed)} metrics printed, {len(declared)} declared")
        if printed != declared:
            problems.append(f"--trace {trace}: printed {printed} but {section} declares {declared}")
    return problems


def bare_directory_test() -> list[str]:
    worker.TMP_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=worker.TMP_ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = result_line(bare, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit code {code}, result line {'printed' if result else 'absent'}")
    return [] if code != 0 and result is None else ["bare directory run did not fail cleanly"]


def main() -> int:
    problems = gate_tests() + metric_tests() + bare_directory_test()
    for p in problems:
        print("PROBLEM:", p)
    print("selftest:", "pass" if not problems else "FAIL")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
