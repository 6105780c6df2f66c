import json

import pytest

from transmon_decay.cli import EXIT_CONFIG, EXIT_OK, main

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

    @pytest.mark.parametrize("spacings", ["0.01 0.05", "0.05 0.05", "0.05 -0.01", ","])
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

    def test_sidecars_report_error_estimate_and_fallbacks(self, full_config, tmp_path):
        out = tmp_path / "out"
        assert run("spectrum", "--config", full_config, "--out", str(out)) == EXIT_OK
        assert run("resonances", "--config", full_config, "--out", str(out)) == EXIT_OK
        meta = json.loads((out / "spectrum.meta.json").read_text())
        spectrum = meta["sigma2"]
        resonances = json.loads((out / "resonances.json").read_text())["sigma2"]
        assert spectrum["energies"] == meta["n_points"]
        assert resonances["energies"] > spectrum["energies"]
        for info in (spectrum, resonances):
            assert info["fallbacks"] == 0
            assert 0.0 < info["max_error_estimate"] < 1e-10

    def test_full_reruns_are_byte_identical(self, full_config, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            for command in ("spectrum", "resonances"):
                assert run(command, "--config", full_config, "--out", str(out)) == EXIT_OK
        for name in ("spectrum.csv", "spectrum.meta.json", "resonances.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_stable_sidecar_has_no_quadrature_error(self, config_path, tmp_path):
        out = tmp_path / "out"
        assert run("spectrum", "--config", config_path, "--out", str(out)) == EXIT_OK
        info = json.loads((out / "spectrum.meta.json").read_text())["sigma2"]
        assert info["fallbacks"] == 0
        assert info["max_error_estimate"] == 0.0
