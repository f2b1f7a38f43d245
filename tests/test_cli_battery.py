"""Pins the command line's observable behaviour to a committed fixture.

A battery of commands runs in order in one directory (later commands read
the files earlier ones write).  For each command the fixture holds the exit
code, stdout, stderr and every file the command created or changed.  A JSON
report (on stdout or written by ``--out``) is compared without
``provenance.timestamp`` and ``provenance.stages``; every other file is
compared byte for byte.  The directory path is replaced by ``$TMP``.

Run this file as a script to rewrite the fixture after a deliberate change:
``PYTHONPATH=src python tests/test_cli_battery.py``.
"""
import contextlib
import io
import json
import os
import sys
import tempfile

from latslice import cli

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "cli_battery.json")

LINE = '{"m": 2.0, "count": 50}'
GRID = '{"a_values": [0,1,2,3,4,5,6,7,8], "b_values": [0,1,2,3,4,5,6,7,8]}'

BATTERY = [
    # generate: every kind of artifact, and every params error
    ["generate", "--kind", "unit_line", "--params", LINE, "--out", "line.txt"],
    ["generate", "--kind", "cartesian", "--params", GRID, "--out", "grid.txt"],
    ["generate", "--kind", "parabolic_staircase", "--params", '{"m_max": 64}',
     "--mode", "implicit", "--out", "stair.json"],
    ["generate", "--kind", "parabolic_staircase", "--params", '{"m_max": 6}',
     "--out", "stair.txt"],
    ["generate", "--kind", "zigzag", "--params",
     '{"delta": 0.2, "n_levels": 5}', "--out", "zz.txt"],
    ["generate", "--kind", "cone_staircase", "--params",
     '{"theta": 0.5, "k_max": 2}', "--mode", "implicit", "--out", "cone.json"],
    ["generate", "--kind", "cone_annuli", "--params",
     '{"theta": 0.5, "k_min": 0, "k_max": 3}', "--mode", "implicit"],
    ["generate", "--kind", "random_dimension", "--params",
     '{"alpha": 1.2, "l_max": 32, "seed": 3}'],
    ["generate", "--kind", "unit_line", "--params", "not json",
     "--out", "x.txt"],
    ["generate", "--kind", "unit_line", "--params", "[1, 2]"],
    ["generate", "--kind", "unit_line", "--params", '{"slope": 2, "count": 5}'],
    ["generate", "--kind", "unit_line", "--params", '{"m": -1, "count": 5}'],
    ["generate", "--kind", "unit_line", "--params", '{"m": 1}'],
    ["generate", "--kind", "unit_line", "--params", LINE, "--mode", "implicit"],
    ["generate", "--kind", "cone_staircase", "--params",
     '{"theta": 0.5, "k_max": 6}', "--out", "big.txt"],
    ["generate", "--kind", "nonsense"],
    # validate
    ["validate", "--in", "line.txt"],
    ["validate", "--in", "stair.json"],
    ["validate", "--in", "missing.txt"],
    ["validate", "--in", "bad_points.txt"],
    ["validate", "--in", "other.json"],
    # dim
    ["dim", "--in", "line.txt", "--scales", "dyadic:32", "--out", "prof.csv"],
    ["dim", "--in", "stair.json", "--scales", "dyadic:4096",
     "--out", "stair.csv"],
    ["dim", "--in", "grid.txt", "--kind", "centered"],
    ["dim", "--in", "stair.txt"],
    ["dim", "--in", "stair.json"],
    ["dim", "--in", "line.txt", "--scales", "linear:8"],
    ["dim", "--in", "line.txt", "--scales", "dyadic:x"],
    # slice: tube and floor artifacts, and every flag error
    ["slice", "--in", "line.txt", "--tube=-0.5,-0.2", "--out", "tube.txt"],
    ["slice", "--in", "line.txt", "--floor", "0.5,0.1", "--x-max", "10",
     "--out", "heights.txt"],
    ["slice", "--in", "grid.txt", "--tube=0,2.5"],
    ["slice", "--in", "grid.txt", "--floor", "1,0"],
    ["slice", "--in", "line.txt", "--floor", "0.5,0.1", "--x-max", "-1"],
    ["slice", "--in", "line.txt", "--tube=1,0", "--floor", "1,0"],
    ["slice", "--in", "line.txt"],
    ["slice", "--in", "line.txt", "--tube=1"],
    ["slice", "--in", "line.txt", "--tube=a,b"],
    ["slice", "--in", "line.txt", "--tube=1e-200,0"],
    ["slice", "--in", "stair.json", "--tube=1,0"],
    # survey: report JSON and cells CSV, grid and mc
    ["survey", "--in", "grid.txt", "--N", "8", "--M", "8", "--grid", "6x5",
     "--out", "survey.json", "--cells", "cells.csv"],
    ["survey", "--in", "line.txt", "--N", "16", "--M", "4", "--mc", "200",
     "--seed", "9", "--cells", "mc_cells.csv"],
    ["survey", "--in", "grid.txt", "--N", "8", "--grid", "0x5"],
    ["survey", "--in", "grid.txt", "--N", "8", "--M", "8", "--grid", "0x5"],
    ["survey", "--in", "grid.txt", "--N", "8", "--M", "8", "--mc", "64",
     "--grid", "8x8"],
    ["survey", "--in", "grid.txt", "--N", "8", "--grid", "12"],
    ["survey", "--in", "grid.txt", "--N", "8", "--grid", "axb"],
    ["survey", "--in", "grid.txt", "--N", "1"],
    ["survey", "--in", "stair.json", "--N", "8"],
    # ff
    ["ff", "--p", "7", "--set", "random:0.4:3", "--verify",
     "identity,chebyshev:2.5", "--out", "ff.json"],
    ["ff", "--p", "5"],
    ["ff", "--p", "7", "--set", "ff_set.txt", "--verify", "identity,chebyshev"],
    ["ff", "--p", "9"],
    ["ff", "--p", "7", "--verify", "bogus"],
    ["ff", "--p", "5", "--set", "random:0.0:1", "--verify", "chebyshev"],
    ["ff", "--p", "7", "--set", "random:x"],
    ["ff", "--p", "7", "--set", "random:x:1"],
    ["ff", "--p", "7", "--set", "missing.txt"],
    # levels
    ["levels", "--in", "line.txt", "--u=-0.5", "--bound", "40",
     "--out", "levels.json"],
    ["levels", "--in", "grid.txt", "--u", "1", "--bound", "16"],
    ["levels", "--in", "line.txt", "--u", "1e200"],
    ["levels", "--in", "line.txt", "--u", "1", "--psi", "0"],
    ["levels", "--in", "stair.json", "--u", "1"],
    # repro (example2 and all are too slow for this battery)
    ["repro", "criterion4"],
    ["repro", "criterion10", "--out", "repro.json"],
    ["repro", "ff", "--p", "5", "--out", "repro_ff.json"],
    ["repro", "bogus"],
    ["repro", "criterion99"],
    # appended rows: a point file whose x spacing is 1e-300, implicit sets
    # counted at scale 1e40 and refused past band 20 or a non-integer k_max,
    # a prime whose line counts fold in several chunks, a larger ff battery
    ["generate", "--kind", "unit_line", "--params", '{"m": 1e300, "count": 5}',
     "--out", "steep.txt"],
    ["validate", "--in", "steep.txt"],
    ["generate", "--kind", "cone_annuli", "--params",
     '{"theta": 0.3, "k_min": 0, "k_max": 4}', "--mode", "implicit",
     "--out", "annuli.json"],
    ["dim", "--in", "annuli.json", "--scales", "dyadic:1e40",
     "--kind", "centered"],
    ["generate", "--kind", "cone_annuli", "--params",
     '{"theta": 0.3, "k_min": 0, "k_max": 21}', "--mode", "implicit",
     "--out", "annuli21.json"],
    ["generate", "--kind", "cone_fixed_width", "--params",
     '{"theta": 0.5, "k0": 21, "n_levels": 1}', "--mode", "implicit",
     "--out", "fixed21.json"],
    ["generate", "--kind", "cone_annuli", "--params",
     '{"theta": 0.3, "k_min": 0, "k_max": 2.5}', "--mode", "implicit",
     "--out", "bad.json"],
    ["ff", "--p", "1031", "--set", "random:0.2:1", "--verify",
     "identity,chebyshev"],
    ["repro", "ff", "--p", "31"],
]

# input files the battery reads but no command writes
INPUTS = {
    "bad_points.txt": "# x y\n0 0\n1 oops\n",
    "other.json": '{"format": "something-else"}\n',
    "ff_set.txt": "# x y\n\n1 2\n0 4\n6 6\n",
}


def _normalise(text: str, root: str):
    """A report as a dict without per-run provenance; other text as is."""
    text = text.replace(root, "$TMP")
    try:
        rep = json.loads(text)
    except ValueError:
        return text
    if not (isinstance(rep, dict) and "provenance" in rep):
        return text
    del rep["provenance"]["timestamp"], rep["provenance"]["stages"]
    return rep


def _snapshot(root: str) -> dict:
    files = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            files[name] = fh.read()
    return files


def run_battery(root: str) -> list[dict]:
    for name, body in INPUTS.items():
        with open(os.path.join(root, name), "w", encoding="utf-8") as fh:
            fh.write(body)
    entries = []
    for argv in BATTERY:
        full = [os.path.join(root, a) if os.path.splitext(a)[1] in
                (".txt", ".json", ".csv") else a for a in argv]
        before = _snapshot(root)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(full)
            except SystemExit as exc:       # argparse rejects bad flags
                rc = exc.code
        written = {name: _normalise(body.decode("utf-8"), root)
                   for name, body in _snapshot(root).items()
                   if before.get(name) != body}
        entries.append({"argv": argv, "rc": rc,
                        "stdout": _normalise(out.getvalue(), root),
                        "stderr": err.getvalue().replace(root, "$TMP"),
                        "written": written})
    return entries


def test_cli_battery_matches_fixture(tmp_path):
    with open(FIXTURE, encoding="utf-8") as fh:
        want = json.load(fh)
    got = run_battery(str(tmp_path))
    assert [e["argv"] for e in got] == [e["argv"] for e in want]
    for g, w in zip(got, want):
        assert g == w, " ".join(w["argv"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        entries = run_battery(os.path.realpath(root))
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(entries)} entries to {FIXTURE}", file=sys.stderr)
