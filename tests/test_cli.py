import hashlib
import importlib
import inspect
import json
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import transmon_decay
from transmon_decay import cli
from transmon_decay.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from transmon_decay.config import ConfigError
from transmon_decay.model import ModelError, NumericalError

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

STABLE_FAST = """\
[model]
a = 50
b = 98.5

[coupling]
l2 = 1
v1_enabled = false
regime = stable

[grid]
span = 8

[time]
t_max = 3
steps = 300

[sweep]
l2_min = 0.1
l2_max = 0.5
steps = 3

[oracle]
spacings = 0.05, 0.02
"""


FULL_FAST = """\
[model]
a = 50
b = 98.5

[coupling]
l2 = 1

[grid]
span = 6
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(STABLE_FAST, encoding="utf-8")
    return str(path)


def run(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = run("spectrum", "--config", str(tmp_path / "absent.ini"), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_bad_key_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[coupling]\nl2 = 1\nwat = 2\n", encoding="utf-8")
        code = run("spectrum", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "unknown config key" in capsys.readouterr().err

    def test_max_subdivisions_is_not_a_config_key(self, tmp_path, capsys):
        # no CLI path runs quad, so the key would be silently ignored
        bad = tmp_path / "bad.ini"
        bad.write_text(FULL_FAST + "\n[quadrature]\nmax_subdivisions = 500\n", encoding="utf-8")
        code = run("spectrum", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "unknown config key [quadrature] max_subdivisions" in capsys.readouterr().err

    @pytest.mark.parametrize("spacings", ["0.01 0.05", "0.05 0.05", "0.05 -0.01", ",", "1000"])
    def test_bad_oracle_spacings_are_config_errors(self, tmp_path, capsys, spacings):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[coupling]\nl2 = 1\n[oracle]\nspacings = {spacings}\n")
        code = run("oracle", "--config", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "spacings" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run("spectrum")  # --config missing
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, text",
        [
            ("spectrum", "[model]\nmode = physical\ndelta_mhz = 0\n[coupling]\nl2 = 1\n"),
            ("spectrum", "[coupling]\nl2 = 1\n[grid]\ncoarse_step = -0.01\n"),
            ("spectrum", "[coupling]\nl2 = 1\n[grid]\ncoarse_step = 0\n"),
            ("spectrum", "[coupling]\nl2 = nan\n"),
            ("spectrum", "[coupling]\nl2 = inf\n"),
            ("timedomain", "[coupling]\nl2 = 1\n[time]\nt_max = nan\n"),
            ("oracle", "[coupling]\nl2 = 1\n[oracle]\nenergies = nan\n"),
        ],
        ids=["delta-0", "coarse-step-negative", "coarse-step-0", "l2-nan", "l2-inf",
             "t-max-nan", "oracle-energy-nan"],
    )
    def test_bad_input_is_config_error(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text, encoding="utf-8")
        assert run(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()


# One valid config per numerical failure a run can reach, with the start of its message.
NUMERICAL_FAILURES = {
    "time-horizon": (
        "timedomain",
        "[coupling]\nl2 = 1\n[grid]\nspan = 6\n[time]\nt_max = 200\nsteps = 50\n",
        "requested times exceed the aliasing horizon",
    ),
    "t0-magnitude": (
        "timedomain",
        "[coupling]\nl2 = 6\nv1_enabled = false\n[grid]\nspan = 3\ncoarse_step = 3\n"
        "[time]\nt_max = 3\nsteps = 50\n",
        "t=0 magnitude 0.049157 deviates from 1",
    ),
    "oracle-band": (
        "oracle",
        "[model]\nb = 57\n[coupling]\nl2 = 1\n[oracle]\nspacings = 0.05\n",
        "band (0.0, 60.0) does not cover both coupling Gaussians",
    ),
    "fwhm-under-resolved": (
        "resonances",
        "[coupling]\nl2 = 6\nv1_enabled = false\n[grid]\ncoarse_step = 3\n",
        "peak at y = 102.04277: U = 370.484 is below half its height 2567.55; "
        "the grid under-resolves this peak",
    ),
    "quadrature-tolerance": (
        "spectrum",
        "[coupling]\nl2 = 6\n[grid]\nspan = 3\n[quadrature]\nabs_tol = 1e-30\nrel_tol = 1e-30\n",
        "FULL self-energy at y - b = -2.93",
    ),
    "scan-range": (
        "resonances",
        "[coupling]\nl2 = 6\nv1_enabled = false\n[grid]\nspan = 3.55\n",
        "sign change at scan boundary",
    ),
}


class TestNumericalFailures:
    @pytest.mark.parametrize("name", list(NUMERICAL_FAILURES))
    def test_valid_config_that_cannot_be_computed_exits_1(self, tmp_path, capsys, name):
        command, text, message = NUMERICAL_FAILURES[name]
        cfg = tmp_path / "run.ini"
        cfg.write_text(text, encoding="utf-8")
        assert run(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith(f"numerical error: {message}")

    def test_non_monotone_oracle_exits_1(self, tmp_path, capsys):
        # L2 = 6.4771 lies in the window where the finest spacing's error grows
        cfg = tmp_path / "run.ini"
        cfg.write_text("[coupling]\nl2 = 6.4771\n", encoding="utf-8")
        assert run("oracle", "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("oracle error: ")

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError, RuntimeError])
    def test_programming_error_propagates(self, config_path, tmp_path, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("bug")

        monkeypatch.setattr(cli, "build_grid", broken)
        with pytest.raises(error, match="bug"):
            run("spectrum", "--config", config_path, "--out", str(tmp_path / "out"))

    def test_every_library_exception_is_numerical_or_a_caller_fault(self):
        # the CLI catches NumericalError alone: a new failure class must derive from it
        defined = set()
        for info in pkgutil.iter_modules(transmon_decay.__path__):
            module = importlib.import_module(f"transmon_decay.{info.name}")
            defined.update(
                obj
                for obj in vars(module).values()
                if inspect.isclass(obj)
                and issubclass(obj, Exception)
                and obj.__module__ == module.__name__
            )
        assert {NumericalError, ModelError, ConfigError} <= defined
        stray = [
            cls.__qualname__
            for cls in defined
            if not issubclass(cls, NumericalError) and cls not in (ModelError, ConfigError)
        ]
        assert stray == []


# one row of every kind of value a table holds, and the bytes each becomes
CSV_FIELDS = [
    (np.float64(0.1), "0.1"),
    (1.0 / 3.0, "0.333333333333"),
    (7, "7"),
    (math.nan, "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (-0.0, "-0"),
    (5e-324, "4.94065645841e-324"),
    (1e308, "1e+308"),
]


class TestWriteCsv:
    @pytest.mark.parametrize("shape", ["zip", "tuples"])
    def test_fields_layout_and_digest(self, tmp_path, shape):
        values = [v for v, _ in CSV_FIELDS]
        table = [tuple(values), tuple(values[::-1])]
        header = [f"c{i}" for i in range(len(values))]
        columns = [np.array(col) if i == 0 else list(col) for i, col in enumerate(zip(*table))]
        rows = zip(*columns) if shape == "zip" else table
        path = tmp_path / "table.csv"
        digest = cli._write_csv(path, header, rows)

        data = path.read_bytes()
        assert digest == hashlib.sha256(data).hexdigest()
        lines = data.decode("ascii").split("\n")
        assert lines[0] == ",".join(header)
        assert lines[-1] == ""  # every line, the last one too, ends in a newline
        fields = [line.split(",") for line in lines[1:-1]]
        assert fields[0] == [text for _, text in CSV_FIELDS]
        assert fields == [["%.12g" % float(v) for v in row] for row in table]

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        digest = cli._write_csv(path, ["a", "b"], [])
        assert path.read_bytes() == b"a,b\n"
        assert digest == hashlib.sha256(b"a,b\n").hexdigest()


class TestSpectrumCommand:
    def test_csv_and_sidecar(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("spectrum", "--config", config_path, "--out", str(out)) == EXIT_OK
        text = (out / "spectrum.csv").read_bytes().decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == "y,y_minus_b,gamma2,delta2,u_ff"
        assert "\r" not in text and text.endswith("\n")
        meta = json.loads((out / "spectrum.meta.json").read_text())
        assert meta["norm"] == pytest.approx(1.0, abs=1e-3)
        assert len(meta["sha256_csv"]) == 64
        assert meta["config"]["coupling"]["regime"] == "stable"

    def test_reruns_are_byte_identical(self, config_path, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run("spectrum", "--config", config_path, "--out", str(out1))
        run("spectrum", "--config", config_path, "--out", str(out2))
        assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
        assert (
            out1 / "spectrum.meta.json"
        ).read_bytes() == (out2 / "spectrum.meta.json").read_bytes()

    def test_json_format(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run(
            "spectrum", "--config", config_path, "--out", str(out), "--format", "json"
        ) == EXIT_OK
        data = json.loads((out / "spectrum.json").read_text())
        assert data["rows"][0].keys() == {"y", "y_minus_b", "gamma2", "delta2", "u_ff"}
        assert not (out / "spectrum.csv").exists()


class TestOtherCommands:
    def test_resonances(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("resonances", "--config", config_path, "--out", str(out)) == EXIT_OK
        data = json.loads((out / "resonances.json").read_text())
        kinds = {r["kind"] for r in data["records"]}
        assert kinds == {"root", "peak"}
        peaks = [r for r in data["records"] if r["kind"] == "peak"]
        assert all(p["fwhm"] is not None for p in peaks)

    def test_sweep(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", "--config", config_path, "--out", str(out)) == EXIT_OK
        text = (out / "sweep.csv").read_text()
        assert text.splitlines()[0] == "l2,y_r,u_at_yr,kind"
        meta = json.loads((out / "sweep.meta.json").read_text())
        assert meta["crossover_estimate"] == pytest.approx(0.25, abs=0.01)

    def test_timedomain(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("timedomain", "--config", config_path, "--out", str(out)) == EXIT_OK
        lines = (out / "timedomain.csv").read_text().splitlines()
        assert lines[0] == "t,re_u,im_u,abs_u"
        first = [float(v) for v in lines[1].split(",")]
        assert first[3] == pytest.approx(1.0, abs=1e-3)
        meta = json.loads((out / "timedomain.meta.json").read_text())
        assert meta["metrics"]["decay_time"] is not None

    def test_timedomain_physical_units(self, tmp_path):
        cfg = tmp_path / "phys.ini"
        cfg.write_text(
            "[model]\nmode = physical\ndelta_mhz = 100\n"
            "[coupling]\nl2 = 1\nv1_enabled = false\nregime = stable\n"
            "[grid]\nspan = 8\n[time]\nt_max = 3\nsteps = 300\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run("timedomain", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        lines = (out / "timedomain.csv").read_text().splitlines()
        assert lines[0].endswith(",t_seconds")
        meta = json.loads((out / "timedomain.meta.json").read_text())
        assert "decay_time_s" in meta["metrics_physical"]

    def test_oracle_pole_offset_reaches_report(self, config_path, tmp_path):
        default, offset = tmp_path / "default", tmp_path / "offset"
        assert run("oracle", "--config", config_path, "--out", str(default)) == EXIT_OK
        cfg = tmp_path / "offset.ini"
        cfg.write_text(STABLE_FAST + "pole_offset = 0.01\n", encoding="utf-8")
        assert run("oracle", "--config", str(cfg), "--out", str(offset)) == EXIT_OK
        before = json.loads((default / "oracle.json").read_text())
        after = json.loads((offset / "oracle.json").read_text())
        assert after["config"]["oracle"]["pole_offset"] == 0.01
        assert [r["spacing"] for r in after["rows"]] == [r["spacing"] for r in before["rows"]]
        assert after["rows"] != before["rows"]

    def test_pole_offset_wider_than_spacing_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(STABLE_FAST + "pole_offset = 0.03\n", encoding="utf-8")
        assert run("oracle", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
        assert "pole_offset" in capsys.readouterr().err

    def test_oracle(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("oracle", "--config", config_path, "--out", str(out)) == EXIT_OK
        data = json.loads((out / "oracle.json").read_text())
        assert data["monotone"] is True
        assert len(data["rows"]) == 2


class TestSelfEnergyDiagnostics:
    @pytest.fixture()
    def full_config(self, tmp_path):
        path = tmp_path / "full.ini"
        path.write_text(FULL_FAST, encoding="utf-8")
        return str(path)

    def test_sidecars_report_error_estimate(self, full_config, tmp_path):
        out = tmp_path / "out"
        assert run("spectrum", "--config", full_config, "--out", str(out)) == EXIT_OK
        assert run("resonances", "--config", full_config, "--out", str(out)) == EXIT_OK
        assert run("timedomain", "--config", full_config, "--out", str(out)) == EXIT_OK
        meta = json.loads((out / "spectrum.meta.json").read_text())
        spectrum = meta["sigma2"]
        resonances = json.loads((out / "resonances.json").read_text())["sigma2"]
        timedomain = json.loads((out / "timedomain.meta.json").read_text())
        assert spectrum["energies"] == meta["n_points"]
        assert resonances["energies"] > spectrum["energies"]
        assert timedomain["sigma2"] == spectrum
        for info in (spectrum, resonances):
            assert set(info) == {"energies", "terms", "max_error_estimate"}
            assert 0.0 < info["max_error_estimate"] < 1e-10
        record = timedomain["time_domain"]
        assert record["energies"] == meta["n_points"]
        assert record["times"] == timedomain["config"]["time"]["steps"]
        assert timedomain["config"]["time"]["t_max"] < record["horizon"] < math.inf

    def test_full_reruns_are_byte_identical(self, full_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            for command in ("spectrum", "resonances", "timedomain"):
                assert run(command, "--config", full_config, "--out", str(out)) == EXIT_OK
        for name in (
            "spectrum.csv",
            "spectrum.meta.json",
            "resonances.json",
            "timedomain.csv",
            "timedomain.meta.json",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_sidecars_count_node_terms(self, full_config, config_path, tmp_path):
        full, stable = tmp_path / "full", tmp_path / "stable"
        for path, out in ((full_config, full), (config_path, stable)):
            for command in ("spectrum", "resonances"):
                assert run(command, "--config", path, "--out", str(out)) == EXIT_OK
        grid_info = json.loads((full / "spectrum.meta.json").read_text())["sigma2"]
        roots_info = json.loads((full / "resonances.json").read_text())["sigma2"]
        # each FULL energy sums at most one node set of 1470 nodes
        assert 0 < grid_info["terms"] < 1470 * grid_info["energies"]
        assert roots_info["terms"] > grid_info["terms"]
        for name in ("spectrum.meta.json", "resonances.json"):
            assert json.loads((stable / name).read_text())["sigma2"]["terms"] == 0

    @pytest.mark.parametrize(
        "config, counts",
        [
            # FULL: the resonances command brackets its roots on the grid's
            # 2401-energy scan, so it evaluates those energies once; Brent's
            # step count moves with the last digits of Sigma_2
            ("full_l2_6", {"spectrum": (5398, 6566553), "resonances": (5582, 6794529)}),
            # STABLE: the grid scans at step 0.002 and find_roots at 0.01
            ("stable_l2_6", {"spectrum": (14311, 0), "resonances": (16833, 0)}),
        ],
    )
    def test_shipped_config_work_counts(self, tmp_path, config, counts):
        path = str(CONFIGS / f"{config}.ini")
        sidecars = {
            "spectrum": "spectrum.meta.json",
            "resonances": "resonances.json",
            "timedomain": "timedomain.meta.json",
        }
        found = {}
        for command, name in sidecars.items():
            assert run(command, "--config", path, "--out", str(tmp_path)) == EXIT_OK
            info = json.loads((tmp_path / name).read_text())["sigma2"]
            found[command] = (info["energies"], info["terms"])
        assert found == {**counts, "timedomain": counts["spectrum"]}

    def test_stable_sidecar_has_no_quadrature_error(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("spectrum", "--config", config_path, "--out", str(out)) == EXIT_OK
        info = json.loads((out / "spectrum.meta.json").read_text())["sigma2"]
        assert info["max_error_estimate"] == 0.0


STRONG = """\
[model]
a = 50
b = 98.5

[coupling]
l2 = 20

[time]
t_max = 12
steps = 1200
"""


class TestStrongCoupling:
    def test_l2_20_runs_end_to_end(self, tmp_path):
        # K's outer poles sit 3.6e-11 below the real axis here
        config = tmp_path / "strong.ini"
        config.write_text(STRONG, encoding="utf-8")
        out = tmp_path / "out"
        for command in ("spectrum", "resonances", "timedomain"):
            assert run(command, "--config", str(config), "--out", str(out)) == EXIT_OK
        meta = json.loads((out / "spectrum.meta.json").read_text())
        assert meta["norm"] == pytest.approx(1.0, abs=1e-3)
        records = json.loads((out / "resonances.json").read_text())["records"]
        roots = sorted(r["y_r"] - 98.5 for r in records if r["kind"] == "root")
        assert len(roots) == 5
        assert roots == pytest.approx([-x for x in reversed(roots)], abs=1e-6)
        outer = [r for r in records if r["kind"] == "peak" and abs(r["y_r"] - 98.5) > 8]
        assert [r["y_r"] - 98.5 for r in outer] == pytest.approx([-8.304, 8.304], abs=1e-3)
        for r in outer:
            assert r["fwhm"] == pytest.approx(1.36e-3, rel=0.01)
        record = json.loads((out / "timedomain.meta.json").read_text())["time_domain"]
        assert record["horizon"] > 12
