import hashlib
import importlib
import inspect
import json
import math
import pkgutil
import time
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
        # the package runs no adaptive quad and has no [quadrature] section
        bad = tmp_path / "bad.ini"
        bad.write_text(FULL_FAST + "\n[quadrature]\nmax_subdivisions = 500\n", encoding="utf-8")
        code = run("spectrum", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "unknown config section [quadrature]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, message",
        [
            ("quadrature", "tail_cutoff", "unknown config section [quadrature]"),
            ("quadrature", "abs_tol", "unknown config section [quadrature]"),
            ("quadrature", "rel_tol", "unknown config section [quadrature]"),
            ("grid", "coarse_step", "unknown config key [grid] coarse_step"),
            ("oracle", "pole_offset", "unknown config key [oracle] pole_offset"),
        ],
        ids=["tail_cutoff", "abs_tol", "rel_tol", "coarse_step", "pole_offset"],
    )
    def test_numerical_setting_is_not_a_config_key(self, tmp_path, capsys, section, key, message):
        # constants of the library, not of a run (see test_config.py)
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[coupling]\nl2 = 1\n[{section}]\n{key} = 0.01\n", encoding="utf-8")
        code = run("spectrum", "--config", str(bad), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

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
            ("oracle", "[coupling]\nl2 = 1\n[oracle]\nenergies = ,\n"),
        ],
        ids=["delta-0", "coarse-step-negative", "coarse-step-0", "l2-nan", "l2-inf",
             "t-max-nan", "oracle-energy-nan", "oracle-energies-empty"],
    )
    def test_bad_input_is_config_error(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text, encoding="utf-8")
        assert run(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("resonances", "v1_enabled = false\n[grid]\nspan = 1200"),
            ("resonances", "[grid]\nspan = 1e9"),
            ("resonances", "[grid]\nspan = 6000"),
            ("timedomain", "[time]\nsteps = 10000000000"),
            ("sweep", "[sweep]\nsteps = 10000000000"),
            ("oracle", "[oracle]\nspacings = 0.05 1e-7"),
        ],
        ids=["grid-scan-step", "grid-scan-span", "root-scan-span", "time-steps", "sweep-steps",
             "oracle-modes"],
    )
    def test_oversized_scan_is_config_error(self, tmp_path, capsys, command, text):
        # each scan would ask np.linspace for more than 10**6 energies (the
        # second for terabytes); load_config refuses it before any is made.
        # The STABLE grid steps 0.002, finer than find_roots' 0.01, and the
        # FULL grid's 0.01 scan is find_roots' own, so one check bounds both.
        # The time and sweep grids and the oracle's finest lattice (1e-7:
        # 2.15e8 modes, FFT length 2**29) have the same bound
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[coupling]\nl2 = 1\n{text}\n", encoding="utf-8")
        start = time.perf_counter()
        code = run(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG
        assert "more than 1000000" in capsys.readouterr().err


# One valid config per numerical failure a run can reach, with the start of its message.
NUMERICAL_FAILURES = {
    "time-horizon": (
        "timedomain",
        "[coupling]\nl2 = 1\n[grid]\nspan = 6\n[time]\nt_max = 200\nsteps = 50\n",
        "requested times exceed the aliasing horizon",
    ),
    "t0-magnitude": (
        "timedomain",
        "[coupling]\nl2 = 6\nv1_enabled = false\n[grid]\nspan = 3\n[time]\nt_max = 3\nsteps = 50\n",
        "t=0 magnitude 0.049158 deviates from 1",
    ),
    "oracle-band": (
        "oracle",
        "[model]\nb = 57\n[coupling]\nl2 = 1\n[oracle]\nspacings = 0.05\n",
        "band (0.0, 60.0) does not cover both coupling Gaussians",
    ),
    "fwhm-under-resolved": (
        "resonances",
        "[coupling]\nl2 = 49.5407\nv1_enabled = false\n[grid]\nspan = 15\n",
        "peak at y = 108.47931: U = 3.09361e-27 is below half its height 5.8525e-26; "
        "the grid under-resolves this peak",
    ),
    "quadrature-tolerance": (
        "spectrum",
        "[coupling]\nl2 = 25000\n[grid]\nspan = 183\n",
        "FULL self-energy at y - b = 182.598",
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

    @pytest.mark.parametrize("n", [0, 1, cli._ROW_BLOCK, 2 * cli._ROW_BLOCK + 3])
    def test_block_rows_format_like_numpy_scalars(self, tmp_path, n):
        rng = np.random.default_rng(n)
        columns = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(3)]
        columns[0][:2] = [-0.0, np.inf][:n]
        rows = list(cli._rows(*columns))
        assert len(rows) == n and all(type(v) is float for row in rows for v in row)
        header = ["a", "b", "c"]
        path = tmp_path / "rows.csv"
        assert cli._write_csv(path, header, rows) == cli._write_csv(path, header, zip(*columns))

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
        assert text.splitlines()[0] == "l2,y_r,u_at_yr"
        meta = json.loads((out / "sweep.meta.json").read_text())
        assert meta["crossover_estimate"] == pytest.approx(0.25, abs=0.01)
        # the closed-form STABLE self-energy sums no FULL node terms
        sigma2 = meta["sigma2"]
        assert sigma2["energies"] > 0
        assert sigma2["terms"] == 0

    def test_full_sweep_records_sigma2(self, tmp_path):
        cfg = tmp_path / "full.ini"
        cfg.write_text(FULL_FAST + "[sweep]\nl2_min = 0.5\nl2_max = 1\nsteps = 2\n")
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        sigma2 = json.loads((out / "sweep.meta.json").read_text())["sigma2"]
        # two scans of b +- 6 at step 0.01, plus the Brent and height calls
        assert sigma2["energies"] > 2 * 1201
        assert sigma2["terms"] > 0
        assert 0.0 < sigma2["max_error_estimate"] < 1e-9

    def test_sweep_outputs_do_not_depend_on_an_earlier_command(self, tmp_path):
        # the last sweep step, geomspace(0.05, 6, 2)[-1], is exactly the
        # config's L2 = 6, whose FULL proxy spectrum builds; sweep starts
        # with an empty proxy cache all the same and counts its own samples
        cfg = tmp_path / "full.ini"
        cfg.write_text((CONFIGS / "full_l2_6.ini").read_text() + "\n[sweep]\nsteps = 2\n")
        alone, after = tmp_path / "alone", tmp_path / "after"
        assert run("sweep", "--config", str(cfg), "--out", str(alone)) == EXIT_OK
        assert run("spectrum", "--config", str(cfg), "--out", str(after)) == EXIT_OK
        assert run("sweep", "--config", str(cfg), "--out", str(after)) == EXIT_OK
        for name in ("sweep.meta.json", "sweep.csv"):
            assert (alone / name).read_bytes() == (after / name).read_bytes()

    @pytest.mark.parametrize("span, offsets", [(12, [0.0]), (20, [-12.669, 0.0, 12.669])])
    def test_sweep_scans_the_grid_span(self, tmp_path, span, offsets):
        # at STABLE L2 = 80 the outer roots sit at y - b = +-12.669, outside b +- 12
        cfg = tmp_path / "wide.ini"
        cfg.write_text(
            "[model]\na = 50\nb = 98.5\n"
            "[coupling]\nl2 = 80\nv1_enabled = false\nregime = stable\n"
            f"[grid]\nspan = {span}\n"
            "[sweep]\nl2_min = 80\nl2_max = 80\nsteps = 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == EXIT_OK
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        roots = [float(row.split(",")[1]) - 98.5 for row in rows]
        assert roots == pytest.approx(offsets, abs=1e-3)

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
            assert set(info) == {"energies", "samples", "terms", "max_error_estimate", "max_tail"}
            assert 0.0 < info["max_error_estimate"] < 1e-10
            # a piece's tail is part of each of its estimates
            assert 0.0 < info["max_tail"] < info["max_error_estimate"]
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
        # each node-sum sample sums at most one node set of 1470 nodes, and
        # the proxy's pieces take fewer samples than the grid has energies
        assert 0 < grid_info["terms"] < 1470 * grid_info["samples"]
        assert 0 < grid_info["samples"] < grid_info["energies"]
        # the root scan, Brent and FWHM energies all fall in the grid's pieces
        assert roots_info["terms"] == grid_info["terms"]
        for name in ("spectrum.meta.json", "resonances.json"):
            assert json.loads((stable / name).read_text())["sigma2"]["terms"] == 0

    @pytest.mark.parametrize(
        "config, counts",
        [
            # FULL: each command builds the 13 proxy pieces of |y - b| <= 12
            # from 24 node-sum samples each, and evaluates every energy on
            # them; the resonances command rescans the grid's 2401 energies,
            # evaluates 46 flank steps per peak, and Brent's step count moves
            # with the last digits of Sigma_2
            (
                "full_l2_6",
                {"spectrum": (5398, 312, 372456), "resonances": (7987, 312, 372456)},
            ),
            # STABLE: the grid scans at step 0.002 and find_roots at 0.01
            ("stable_l2_6", {"spectrum": (14311, 0, 0), "resonances": (16883, 0, 0)}),
            # FULL at L2 = 1: the same 13 pieces, a coarser grid
            (
                "oracle_l2_1",
                {"spectrum": (2877, 312, 372456), "resonances": (5448, 312, 372456)},
            ),
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
            found[command] = (info["energies"], info["samples"], info["terms"])
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
