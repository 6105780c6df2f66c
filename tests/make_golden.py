"""Rewrite ``tests/golden/manifest.json``, the golden outputs of the shipped
configs.

Every command of the command line runs, in this process, on every config of
``configs/`` with ``--format csv``.  For each run the manifest holds the exit
code and, for each file written, its sha256 and its values, flattened to
``path/to/key`` (list items by index): every value of a JSON file, and of a
CSV its row count, each column's min, max and sum over its finite fields,
and about ``SAMPLE_ROWS`` of its rows at an even stride.  It also records the
platform the files were made on: the versions of Python, numpy, scipy and
OpenBLAS, the OS, the machine and the CPU model.  ``tests/test_golden.py``
reruns the commands and compares.

Run from the repository root after a change that moves an output on purpose::

    PYTHONPATH=src python tests/make_golden.py

It prints every entry of the old manifest that moved, as
``run/file/key: old -> new`` (``-`` for an entry one side lacks): the list
to paste into ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
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
SAMPLE_ROWS = 10  # a CSV's rows are sampled at a stride of rows // SAMPLE_ROWS


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


def csv_values(text: str) -> dict:
    """Each column's min, max and sum over its finite fields (None without
    any), and every ``rows // SAMPLE_ROWS``-th row, of a CSV table; a
    sampled field is read as the JSON sidecars write it (``cli._jnum``)."""
    header, *lines = text.splitlines()
    names = header.split(",")
    rows = [[float(field) for field in line.split(",")] for line in lines]
    columns = {}
    for name, column in zip(names, zip(*rows) if rows else [()] * len(names)):
        finite = [x for x in column if math.isfinite(x)]
        columns[name] = {
            "min": min(finite, default=None),
            "max": max(finite, default=None),
            "sum": math.fsum(finite) if finite else None,
        }
    stride = max(len(rows) // SAMPLE_ROWS, 1)
    sample = {str(i): dict(zip(names, map(cli._jnum, rows[i]))) for i in range(0, len(rows), stride)}
    return flatten({"columns": columns, "sample": sample})


def summary(path: Path) -> dict:
    """sha256 of a file, and its CSV row count and values or its flattened
    JSON values."""
    data = path.read_bytes()
    entry = {"sha256": hashlib.sha256(data).hexdigest()}
    if path.suffix == ".csv":
        entry["rows"] = data.count(b"\n") - 1
        entry["values"] = csv_values(data.decode("utf-8"))
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


def entries(manifest: dict) -> dict:
    """Every entry of a manifest's runs, keyed ``run/file/key``: each run's
    exit code, and each file's sha256, row count and values."""
    flat = {}
    for run, result in manifest["runs"].items():
        flat[f"{run}/exit"] = result["exit"]
        for name, entry in result["files"].items():
            flat.update({f"{run}/{name}/{k}": v for k, v in flatten(entry).items()})
    return flat


def moved(old: dict, new: dict) -> list[str]:
    """``run/file/key: old -> new`` for every entry of ``entries`` that
    differs between two manifests, ``-`` standing for an entry one lacks."""
    before, after = entries(old), entries(new)
    absent = object()
    show = lambda v: "-" if v is absent else repr(v)  # noqa: E731
    lines = []
    for key in sorted(before.keys() | after.keys()):
        was, now = before.get(key, absent), after.get(key, absent)
        if was != now or type(was) is not type(now):
            lines.append(f"{key}: {show(was)} -> {show(now)}")
    return lines


def main(argv: list[str] | None = None) -> None:
    # no options: --help prints this docstring, any argument exits 2, and
    # neither writes the manifest
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        results = {}
        for config in CONFIGS:
            results.update(runs(config, Path(tmp)))
    manifest = {"format": "csv", "platform": this_platform(), "runs": results}
    if MANIFEST.exists():
        old = json.loads(MANIFEST.read_text(encoding="utf-8"))
        for line in moved(old, manifest):
            print(line)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST.relative_to(ROOT)}: {len(results)} runs", file=sys.stderr)


if __name__ == "__main__":
    main()
