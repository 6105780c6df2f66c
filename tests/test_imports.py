"""Import surface: production paths load ``scipy.special`` only, and the
verification routes reach ``scipy.integrate`` through the module attribute
``quadrature.integrate``, so a stand-in bound there sees every call."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transmon_decay
from transmon_decay import quadrature

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(transmon_decay.__file__).resolve().parents[1]

CLI_RUNS = """
import sys
import transmon_decay
from transmon_decay import cli

out, configs = sys.argv[1], sys.argv[2:]
for config in configs:
    for command in ("spectrum", "resonances", "sweep", "timedomain", "oracle"):
        assert cli.main([command, "--config", config, "--out", out]) == 0, (command, config)
print("loaded:", *(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
"""


def test_cli_loads_neither_optimize_nor_integrate(tmp_path):
    configs = [str(ROOT / "configs" / name) for name in ("stable_l2_6.ini", "oracle_l2_1.ini")]
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", CLI_RUNS, str(tmp_path), *configs],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "loaded:"


class CountingIntegrate:
    """Stand-in for ``scipy.integrate`` that counts ``quad`` calls."""

    def __init__(self, module):
        self._module = module
        self.calls = 0

    def quad(self, *args, **kwargs):
        self.calls += 1
        return self._module.quad(*args, **kwargs)


def test_quad_goes_through_the_module_attribute(monkeypatch):
    counting = CountingIntegrate(quadrature.integrate)
    monkeypatch.setattr(quadrature, "integrate", counting)

    gaussian = lambda t: math.exp(-t * t)  # noqa: E731
    value = quadrature.integrate_adaptive(gaussian, -math.inf, math.inf, gaussian_center=0.0)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert counting.calls == 1

    # PV of 1/t on [-1, 2] is log 2: the symmetric window and the two sides
    value = quadrature.pv_integrate(lambda t: 1.0 / t, 0.0, -1.0, 2.0)
    assert abs(value - math.log(2.0)) < 1e-12
    assert counting.calls == 4
