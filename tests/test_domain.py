"""The command line's contract over the configs ``load_config`` accepts.

``spectrum``, ``resonances`` and ``timedomain``, run in process on any such
config, exit 0, or 1 after ``numerical error: ...`` on stderr (a
``NumericalError``): never with an uncaught exception, nor with a warning,
which the suite raises as an error.  On exit 0 what they wrote keeps the
model's invariants: ``Gamma_2 >= 0`` on the grid, the roots of
``y - b - Delta_2(y)`` mirrored about ``b``, and ``|U(0)| = 1`` within 1e-3.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings as hyp_settings, strategies as st

from transmon_decay import cli
from transmon_decay.config import load_config

COMMANDS = ("spectrum", "resonances", "timedomain")


def write_config(path: Path, l2: float, regime: str, span: float, t_max: float) -> None:
    path.write_text(
        "[model]\nmode = dimensionless\n"
        f"[coupling]\nl2 = {l2!r}\nv1_enabled = {regime != 'stable'}\nregime = {regime}\n"
        f"[grid]\nspan = {span!r}\n"
        f"[time]\nt_max = {t_max!r}\n",
        encoding="utf-8",
    )


def csv_column(path: Path, name: str) -> np.ndarray:
    table = np.genfromtxt(path, delimiter=",", names=True)
    return np.atleast_1d(table[name])


def check_outputs(command: str, out: Path, b: float) -> None:
    """The invariants of what ``command`` wrote on exit 0."""
    if command == "spectrum":
        assert csv_column(out / "spectrum.csv", "gamma2").min() >= 0.0
    elif command == "resonances":
        records = json.loads((out / "resonances.json").read_text())["records"]
        d = np.sort([r["y_r"] - b for r in records if r["kind"] == "root"])
        assert np.allclose(d, -d[::-1], rtol=0.0, atol=1e-6), d
    else:
        assert math.isclose(csv_column(out / "timedomain.csv", "abs_u")[0], 1.0, abs_tol=1e-3)


@hyp_settings(max_examples=30, deadline=None, derandomize=True)
@given(
    l2=st.floats(math.log(0.05), math.log(60.0)).map(math.exp),
    regime=st.sampled_from(["stable", "full", "weak"]),
    span=st.sampled_from([3.0, 6.0, 12.0, 20.0, 30.0]),
    t_max=st.sampled_from([5.0, 12.0, 30.0, 60.0]),
)
@example(l2=1.0, regime="stable", span=30.0, t_max=30.0)
@example(l2=6.0, regime="stable", span=3.0, t_max=30.0)
@example(l2=49.5407, regime="stable", span=15.0, t_max=30.0)
@example(l2=25000.0, regime="full", span=183.0, t_max=30.0)
@example(l2=math.exp(-1.0), regime="full", span=3.0, t_max=5.0)  # no zero on the imaginary axis
def test_commands_exit_0_or_1_and_keep_the_invariants(l2, regime, span, t_max):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.ini"
        write_config(config, l2, regime, span, t_max)
        b = load_config(str(config)).model.b
        for command in COMMANDS:
            out = Path(tmp) / command
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main([command, "--config", str(config), "--out", str(out)])
            if code == cli.EXIT_OK:
                check_outputs(command, out, b)
            else:
                assert code == cli.EXIT_NUMERICAL, (command, code)
                assert stderr.getvalue().startswith("numerical error: "), stderr.getvalue()
