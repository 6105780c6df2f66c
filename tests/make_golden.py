"""Rewrite ``tests/golden/manifest.json``, the golden outputs of the shipped
configs.

Every command of the command line runs, in this process, on every config of
``configs/`` with ``--format csv``.  For each run the manifest holds the exit
code and, for each file written, its sha256 and the row count of a CSV or
every value of a JSON file, flattened to ``path/to/key`` (list items by
index).  It also records the platform the files were made on: the versions
of Python, numpy, scipy and OpenBLAS, the OS, the machine and the CPU model.
``tests/test_golden.py`` reruns the commands and compares.

Run from the repository root after a change that moves an output on purpose,
and list the moved values in ``CHANGES.md``::

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from transmon_decay import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
COMMANDS = ("spectrum", "resonances", "sweep", "timedomain", "oracle")
MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"


def _cpu() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def this_platform() -> dict:
    """What the output bits depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}",
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu": _cpu(),
    }


def flatten(value, path: str = "") -> dict:
    """The leaves of a JSON value, keyed by their ``/``-joined path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    leaves = {}
    for key, item in items:
        leaves.update(flatten(item, f"{path}/{key}" if path else str(key)))
    return leaves


def summary(path: Path) -> dict:
    """sha256 of a file, and its CSV row count or its flattened JSON values."""
    data = path.read_bytes()
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.suffix == ".csv":
        entry["rows"] = data.count(b"\n") - 1
    else:
        entry["values"] = flatten(json.loads(data))
    return entry


def run(config: Path, command: str, out: Path) -> dict:
    """One CSV-format command on ``config`` into the empty directory ``out``:
    its exit code and the summary of every file it wrote."""
    argv = [command, "--config", str(config), "--out", str(out), "--format", "csv"]
    code = cli.main(argv)
    files = {p.name: summary(p) for p in sorted(out.iterdir())}
    return {"exit": code, "files": files}


def runs(config: Path, work: Path) -> dict:
    """Every command on one config, each in its own directory under ``work``."""
    results = {}
    for command in COMMANDS:
        out = work / config.stem / command
        out.mkdir(parents=True)
        results[f"{config.stem}/{command}"] = run(config, command, out)
    return results


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        results = {}
        for config in CONFIGS:
            results.update(runs(config, Path(tmp)))
    manifest = {"format": "csv", "platform": this_platform(), "runs": results}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(results)} runs", file=sys.stderr)


if __name__ == "__main__":
    main()
