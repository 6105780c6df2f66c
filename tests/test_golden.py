"""Golden outputs: every command on every shipped config, rerun in process in
``--format csv``, against ``tests/golden/manifest.json``.

On the platform the manifest records (``make_golden.this_platform``) every
file must match its sha256: the outputs are byte-identical.  Elsewhere the
last digits may move with the BLAS kernels and ``exp``, so exit codes, file
names, CSV row counts, JSON keys, integers (counts), booleans and strings
other than the CSV digests must match exactly, and every float within
``RTOL`` relative or ``ATOL`` absolute: the JSON values, and each CSV
column's min, max and sum and the CSV rows the manifest samples.  ``ATOL`` lets the rounding-level
diagnostics (error estimates ~1e-10, coefficient tails ~1e-11) move freely
off the recorded platform; on it their bytes are checked.  After a change
that moves an output on purpose, ``tests/make_golden.py`` rewrites the
manifest.
"""

from __future__ import annotations

import json
import math

import make_golden
import pytest
from make_golden import CONFIGS, MANIFEST, moved, runs, this_platform

RTOL = 1e-6
ATOL = 1e-9


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def mismatches(got: dict, want: dict, exact: bool) -> list[str]:
    """Every way the flattened JSON values ``got`` miss ``want``."""
    if got.keys() != want.keys():
        return [f"keys differ: {sorted(got.keys() ^ want.keys())}"]
    wrong = []
    for key, w in want.items():
        g = got[key]
        if not exact and key.endswith("sha256_csv"):
            continue  # the CSV's bytes: checked on the recorded platform only
        if not exact and type(w) is float and type(g) is float:
            same = math.isclose(g, w, rel_tol=RTOL, abs_tol=ATOL)
        else:
            same = type(g) is type(w) and g == w
        if not same:
            wrong.append(f"{key}: {g!r} != {w!r}")
    return wrong


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_outputs_match_the_manifest(config, manifest, tmp_path):
    exact = this_platform() == manifest["platform"]
    want = {k: v for k, v in manifest["runs"].items() if k.startswith(f"{config.stem}/")}
    got = runs(config, tmp_path)
    assert got.keys() == want.keys()
    for run, expected in want.items():
        assert got[run]["exit"] == expected["exit"], run
        files = got[run]["files"]
        assert files.keys() == expected["files"].keys(), run
        for name, w in expected["files"].items():
            g = files[name]
            if exact:
                assert g["sha256"] == w["sha256"], (run, name)
            assert g.get("rows") == w.get("rows"), (run, name)
            if "values" in w:
                assert mismatches(g["values"], w["values"], exact) == [], (run, name)


def test_manifest_covers_every_command_of_every_config(manifest):
    assert manifest["format"] == "csv"
    assert len(manifest["runs"]) == 3 * 5 == len(CONFIGS) * 5
    assert all(run["exit"] == 0 for run in manifest["runs"].values())


def test_moved_lists_every_entry_that_differs():
    old = {
        "runs": {
            "cfg/spectrum": {
                "exit": 0,
                "files": {
                    "spectrum.csv": {"rows": 2, "sha256": "aa", "values": {"columns/u/max": 1.0}},
                    "spectrum.json": {"sha256": "bb", "values": {"n_points": 2, "norm": 1.0}},
                },
            }
        }
    }
    new = json.loads(json.dumps(old))
    new["runs"]["cfg/spectrum"]["exit"] = 1
    csv, sidecar = new["runs"]["cfg/spectrum"]["files"].values()
    csv.update(rows=3, sha256="cc")
    csv["values"]["columns/u/max"] = 1.5
    sidecar["values"] = {"n_points": 2.0, "complete": True}
    assert moved(old, old) == []
    assert moved(old, new) == [
        "cfg/spectrum/exit: 0 -> 1",
        "cfg/spectrum/spectrum.csv/rows: 2 -> 3",
        "cfg/spectrum/spectrum.csv/sha256: 'aa' -> 'cc'",
        "cfg/spectrum/spectrum.csv/values/columns/u/max: 1.0 -> 1.5",
        "cfg/spectrum/spectrum.json/values/complete: - -> True",
        "cfg/spectrum/spectrum.json/values/n_points: 2 -> 2.0",
        "cfg/spectrum/spectrum.json/values/norm: 1.0 -> -",
    ]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--out", "x"], 2), (["x"], 2)])
def test_make_golden_arguments_write_nothing(argv, code, monkeypatch, capsys):
    # the script takes no argument: --help prints its usage, anything else
    # is an error, and neither runs a command or rewrites the manifest
    monkeypatch.setattr(make_golden, "runs", lambda *args: pytest.fail("ran the commands"))
    before = MANIFEST.read_bytes()
    with pytest.raises(SystemExit) as exit:
        make_golden.main(argv)
    assert exit.value.code == code
    assert MANIFEST.read_bytes() == before
    if code == 0:
        assert "PYTHONPATH=src python tests/make_golden.py" in capsys.readouterr().out
