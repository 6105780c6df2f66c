"""Import surface: FULL and oracle runs load no scipy module at all (Dawson's
function and the Faddeeva function are ``spectrum._dawson``, in numpy, and the
oracle's FFT correlation is ``numpy.fft``); STABLE loads ``scipy.special``
alone, for the ``dawsn`` of ``sigma2``'s closed form, which is much faster
than ``spectrum._dawson`` and whose bits the benchmark's frozen STABLE heights
gate holds (ROADMAP 13); the adaptive ``quad`` routes the tests compare
against live in ``reference_routes``, outside the package.  Every
``functools.lru_cache`` of the package is declared with its lifetime, and
importing the CLI fills none."""

import functools
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import transmon_decay
from transmon_decay import Regime, cli, quadrature, spectrum, sweep_coupling

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(transmon_decay.__file__).resolve().parents[1]
PATH = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(PATH))
EVERY = "spectrum,resonances,sweep,timedomain,oracle"
IMPORT = "import sys, transmon_decay; print(*sorted(sys.modules))"

CLI_RUNS = """
import sys
from transmon_decay import cli

out, runs = sys.argv[1], sys.argv[2:]
for config, commands in zip(runs[::2], runs[1::2]):
    for command in commands.split(","):
        assert cli.main([command, "--config", config, "--out", out]) == 0, (command, config)
print(*sorted(sys.modules))
"""


def loaded_modules(code: str, *argv: str) -> list[str]:
    """The module names ``code`` prints (``IMPORT``, ``CLI_RUNS``), run with
    ``argv`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=300,
        check=True,
    )
    return done.stdout.split()


def scipy_modules(modules: list[str]) -> list[str]:
    return [m for m in modules if m.split(".")[0] == "scipy"]


def scipy_subpackages(modules: list[str]) -> set[str]:
    """The public scipy subpackages among ``modules``: ``scipy.special`` for
    ``scipy.special._ufuncs``; scipy's private helpers and ``scipy.version``,
    which every subpackage pulls in, are left out."""
    names = {m.split(".")[1] for m in scipy_modules(modules) if "." in m}
    return {f"scipy.{n}" for n in names if not n.startswith("_") and n != "version"}


def cli_modules(tmp_path: Path, runs: dict[str, str]) -> list[str]:
    """The modules loaded by ``cli.main`` running, in one fresh interpreter,
    each config of ``configs/`` with its comma-separated commands."""
    args = [arg for name, cmds in runs.items() for arg in (str(ROOT / "configs" / name), cmds)]
    return loaded_modules(CLI_RUNS, str(tmp_path), *args)


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
    modules = loaded_modules(IMPORT)
    assert "transmon_decay.spectrum" in modules
    assert "transmon_decay.quadrature" not in modules


def test_import_loads_no_scipy():
    assert scipy_modules(loaded_modules(IMPORT)) == []


def test_cli_import_builds_no_format_table_and_loads_only_what_it_names():
    # the CSV formatter's tables are built on the first table written, and
    # cli adds no module to those its own import statements name
    built, *modules = loaded_modules(
        "import sys, transmon_decay.cli as cli; print(cli._format_tables.cache_info().currsize); "
        "print(*sorted(sys.modules))"
    )
    assert built == "0"
    named = loaded_modules(
        "import sys, argparse, functools, hashlib, json, math, pathlib, numpy, "
        "transmon_decay.config; print(*sorted(sys.modules))"
    )
    assert set(modules) - set(named) == {"transmon_decay.cli"}


# every functools.lru_cache in the package and the lifetime of what it holds:
# "process" caches hold coupling-free rules and tables, kept for the life of
# the interpreter; "command" caches hold what one coupling or scan window
# built, and spectrum._reset_caches empties them before each CLI command, so
# no count a sidecar reports depends on an earlier command
CACHES = {
    "cli._format_tables": "process",
    "cli._parser": "process",
    "spectrum._chebyshev": "process",
    "spectrum._dawsn": "process",
    "spectrum._proxy": "command",
    "spectrum._stable_table": "command",
}

CACHE_SIZES = """
import functools, sys, transmon_decay.cli
print(*(
    f"{name.removeprefix('transmon_decay.')}.{attr}={obj.cache_info().currsize}"
    for name, module in list(sys.modules.items()) if name.startswith("transmon_decay.")
    for attr, obj in vars(module).items()
    if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == name
))
"""


def package_caches() -> dict[str, "functools._lru_cache_wrapper"]:
    """Every ``functools.lru_cache`` at module level in the package, by name."""
    found = {}
    for info in pkgutil.iter_modules(transmon_decay.__path__, "transmon_decay."):
        module = importlib.import_module(info.name)
        for attr, obj in vars(module).items():
            if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == info.name:
                found[f"{info.name.removeprefix('transmon_decay.')}.{attr}"] = obj
    return found


def test_every_cache_is_declared_and_the_cli_import_fills_none():
    # a new cache fails here until CACHES states its lifetime; importing the
    # CLI loads every module that has one and fills none, so the benchmark's
    # setup_s stays an import
    assert set(package_caches()) == set(CACHES)
    sizes = dict(entry.split("=") for entry in loaded_modules(CACHE_SIZES))
    assert sizes == dict.fromkeys(CACHES, "0")


@pytest.mark.parametrize(
    "config, filled",
    [
        # the grid's 0.002-step window and find_roots' 0.01-step one
        ("stable_l2_6.ini", {"spectrum._proxy": 0, "spectrum._stable_table": 2}),
        ("full_l2_6.ini", {"spectrum._proxy": 1, "spectrum._stable_table": 0}),
    ],
)
def test_reset_empties_every_per_command_cache(tmp_path, config, filled):
    caches = package_caches()
    command = [name for name, lifetime in CACHES.items() if lifetime == "command"]

    def sizes():
        return {name: caches[name].cache_info().currsize for name in command}

    args = ["resonances", "--config", str(ROOT / "configs" / config), "--out", str(tmp_path)]
    assert cli.main(args) == cli.EXIT_OK
    assert sizes() == filled
    spectrum._reset_caches()
    assert sizes() == dict.fromkeys(command, 0)


def test_cli_loads_no_scipy_on_full_and_oracle_configs(tmp_path):
    # every command, FULL sweep included; the oracle config is FULL too
    modules = cli_modules(tmp_path, {"full_l2_6.ini": EVERY, "oracle_l2_1.ini": EVERY})
    assert "transmon_decay.cli" in modules
    assert scipy_modules(modules) == []


def test_cli_loads_only_scipy_special_on_stable(tmp_path):
    # the closed form of sigma2 imports scipy.special for dawsn on its first
    # call (spectrum._dawsn); optimize, integrate, fft and the rest stay
    # unloaded
    modules = cli_modules(tmp_path, {"stable_l2_6.ini": EVERY})
    assert scipy_subpackages(modules) == {"scipy.special"}


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
