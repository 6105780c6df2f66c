"""Import surface: production paths load ``scipy.special`` only (the oracle's
FFT correlation is ``numpy.fft``); the adaptive ``quad`` routes the tests
compare against live in ``reference_routes``, outside the package."""

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import transmon_decay
from transmon_decay import Regime, quadrature, sweep_coupling

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(transmon_decay.__file__).resolve().parents[1]
PATH = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(PATH))

CLI_RUNS = """
import sys
import transmon_decay
from transmon_decay import cli

out, runs = sys.argv[1], sys.argv[2:]
for config, commands in zip(runs[::2], runs[1::2]):
    for command in commands.split(","):
        assert cli.main([command, "--config", config, "--out", out]) == 0, (command, config)
unwanted = ("scipy.optimize", "scipy.integrate", "scipy.fft", "scipy.signal")
print("loaded:", *(m for m in unwanted if m in sys.modules))
"""


def test_dependency_floors_cover_the_numpy_2_api():
    # np.trapezoid (cli) and np.vecdot (spectrum) first shipped in numpy 2.0,
    # and scipy 1.13 is the first release built against it; a regex reads
    # the floors because tomllib is not in Python 3.10
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floors = dict(re.findall(r'"(numpy|scipy)>=(\d+(?:\.\d+)*)"', text))
    version = lambda name: tuple(int(part) for part in floors[name].split("."))  # noqa: E731
    assert version("numpy") >= (2, 0)
    assert version("scipy") >= (1, 13)


def test_import_leaves_the_benchmark_hook_unloaded():
    # quadrature.py holds only the integrate hook that perfbench/tracing.py
    # binds; no module of the package imports it
    done = subprocess.run(
        [sys.executable, "-c", "import sys, transmon_decay; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=60,
        check=True,
    )
    assert "transmon_decay.spectrum" in done.stdout
    assert "transmon_decay.quadrature" not in done.stdout


def test_cli_loads_neither_optimize_nor_integrate(tmp_path):
    every = "spectrum,resonances,sweep,timedomain,oracle"
    runs = {
        "stable_l2_6.ini": every,
        "oracle_l2_1.ini": every,
        # FULL: every command but sweep, which alone takes ~2 s on this config
        "full_l2_6.ini": "spectrum,resonances,timedomain,oracle",
    }
    args = [arg for name, cmds in runs.items() for arg in (str(ROOT / "configs" / name), cmds)]
    done = subprocess.run(
        [sys.executable, "-c", CLI_RUNS, str(tmp_path), *args],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=300,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "loaded:"


def perfbench_module(name: str, monkeypatch: pytest.MonkeyPatch) -> types.ModuleType:
    """``perfbench/<name>.py`` read and executed, never imported, so no
    bytecode is written next to it; it is registered in ``sys.modules`` for
    the test only, which ``dataclasses`` needs to resolve its annotations."""
    path = ROOT / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_benchmark_trace_patches_resolve(model, monkeypatch):
    # perfbench/tracing.py wraps library functions at the module names they
    # are called through; a refactor that renames or stops importing one of
    # them breaks the traced benchmark run and nothing else
    tracing = perfbench_module("tracing", monkeypatch)
    for module_name, attr, _ in tracing.PATCHES:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
    assert callable(quadrature.integrate.quad)

    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        sweep_coupling(model, Regime.STABLE, [6.0])
    assert "resonances.sweep_find_roots" in tracer.names


def test_benchmark_gate_passes(tmp_path, monkeypatch):
    # every workload of perfbench/studies.py, at the reference point (seed 0)
    # and jittered (seed 1), runs through the library and passes the gate the
    # benchmark applies, so a change that breaks the harness fails here first
    studies = perfbench_module("studies", monkeypatch)
    tracer = perfbench_module("tracing", monkeypatch).NullTracer()
    reference = studies.load_reference()
    for name, workload in studies.WORKLOADS.items():
        for seed in (0, 1):
            work = tmp_path / f"{name}-{seed}"
            out = work / "out"
            out.mkdir(parents=True)
            result = workload.run(workload.make_inputs(seed, work), out, tracer)
            outputs = workload.outputs(result, out)
            assert studies.check(name, seed, outputs, reference[name]) == [], (name, seed)
