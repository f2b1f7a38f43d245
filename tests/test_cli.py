"""End-to-end tests for the latslice command line."""
import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from latslice import cli
from latslice.exact import MAX_MATERIALIZE_POINTS


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def run_json(argv, capsys):
    rc, out = run_cli(argv, capsys)
    assert rc == 0, out
    return json.loads(out)


def test_generate_validate_dim_round_trip(tmp_path, capsys):
    pts = tmp_path / "line.txt"
    rep = run_json(["generate", "--kind", "unit_line",
                    "--params", '{"m": 2.0, "count": 50}',
                    "--out", str(pts)], capsys)
    assert rep["results"]["points"] == 50
    assert rep["artifacts"]["points_file"] == str(pts)
    assert rep["provenance"]["tool"] == "latslice"

    val = run_json(["validate", "--in", str(pts)], capsys)
    assert val["results"]["separated"] is True
    assert val["results"]["min_distance"] == pytest.approx(1.0, abs=1e-12)

    csv = tmp_path / "prof.csv"
    dim = run_json(["dim", "--in", str(pts), "--scales", "dyadic:32",
                    "--out", str(csv)], capsys)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "scale,count,ratio"
    assert len(lines) == 6                  # header + scales 2..32
    assert dim["results"]["scales"] == 5
    assert dim["results"]["top_scale"] == 32.0
    # the csv round-trips the library profile
    from latslice import dyadic_scales, mass_dim_profile, read_points
    prof = mass_dim_profile(read_points(str(pts)), scales=dyadic_scales(32.0))
    for row, scale, count, ratio in zip(
            lines[1:], prof.scales, prof.counts, prof.ratios):
        s, c, r = row.split(",")
        assert float(s) == scale
        assert int(c) == count
        assert float(r) == pytest.approx(ratio, rel=1e-11)
    assert dim["results"]["estimate"] == prof.estimate
    assert dim["results"]["top_count"] == int(prof.counts[-1])


def test_dim_estimate_matches_library(tmp_path, capsys):
    pts = tmp_path / "sq.txt"
    run_json(["generate", "--kind", "cartesian",
              "--params", '{"a_values": [0,1,2,3,4,5,6,7], "b_values": [0,1,2,3,4,5,6,7]}',
              "--out", str(pts)], capsys)
    rep = run_json(["dim", "--in", str(pts), "--scales", "dyadic:8"], capsys)
    from latslice import dyadic_scales, mass_dim_profile, read_points
    prof = mass_dim_profile(read_points(str(pts)), scales=dyadic_scales(8.0))
    assert rep["results"]["estimate"] == prof.estimate
    assert rep["results"]["top_count"] == 64


def test_results_block_is_deterministic(tmp_path, capsys):
    pts = tmp_path / "line.txt"
    run_json(["generate", "--kind", "unit_line",
              "--params", '{"m": 1.0, "count": 40}', "--out", str(pts)], capsys)
    argv = ["survey", "--in", str(pts), "--N", "16", "--M", "8",
            "--grid", "32x32"]
    a = run_json(argv, capsys)
    b = run_json(argv, capsys)
    assert a["results"] == b["results"]
    assert a["params"] == b["params"]


def test_slice_tube_and_floor(tmp_path, capsys):
    pts = tmp_path / "line.txt"
    run_json(["generate", "--kind", "unit_line",
              "--params", '{"m": 2.0, "count": 50}', "--out", str(pts)], capsys)

    sl = tmp_path / "sl.txt"
    rep = run_json(["slice", "--in", str(pts), "--tube=-0.5,-0.2",
                    "--out", str(sl)], capsys)
    assert rep["results"]["mode"] == "tube"
    assert rep["results"]["count"] == 50    # tube along the line catches all
    assert sl.read_text().startswith("# x y")

    fl = tmp_path / "fl.txt"
    rep2 = run_json(["slice", "--in", str(pts), "--floor", "0.5,0.1",
                     "--x-max", "10", "--out", str(fl)], capsys)
    assert rep2["results"]["mode"] == "floor"
    assert rep2["results"]["heights"] == [0]
    assert fl.read_text().splitlines()[0] == "# distinct integer heights"


def test_slice_requires_exactly_one_mode(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    run_json(["generate", "--kind", "unit_line",
              "--params", '{"m": 1.0, "count": 5}', "--out", str(pts)], capsys)
    rc, _ = run_cli(["slice", "--in", str(pts)], capsys)
    assert rc == 2
    rc2, _ = run_cli(["slice", "--in", str(pts), "--tube=1,0",
                      "--floor", "1,0"], capsys)
    assert rc2 == 2
    # a tube slice reads no --x-max, so one given to it is refused
    assert cli.main(["slice", "--in", str(pts), "--tube=1,0",
                     "--x-max", "2"]) == 2
    assert "--x-max applies only to --floor slices" in capsys.readouterr().err


def test_survey_report_and_cells(tmp_path, capsys):
    pts = tmp_path / "grid.txt"
    vals = json.dumps(list(range(17)))
    run_json(["generate", "--kind", "cartesian",
              "--params", f'{{"a_values": {vals}, "b_values": {vals}}}',
              "--out", str(pts)], capsys)
    out = tmp_path / "survey.json"
    cells = tmp_path / "cells.csv"
    rep = run_json(["survey", "--in", str(pts), "--N", "16", "--M", "16",
                    "--grid", "24x20", "--out", str(out),
                    "--cells", str(cells)], capsys)
    r = rep["results"]
    assert r["mean_exact_v"] <= r["bound"] + 1e-9
    assert r["good_fraction"] >= 1.0 - 1.0 / r["k"]
    saved = json.loads(out.read_text())
    assert saved["results"] == r
    rows = cells.read_text().strip().splitlines()
    assert rows[0] == "i,j,count"
    assert len(rows) == 1 + 24 * 20


def _cells_csv_per_cell(counts):
    """The cells sidecar written one cell at a time."""
    lines = ["i,j,count"] if counts.ndim == 2 else ["i,count"]
    for idx, val in np.ndenumerate(counts):
        lines.append(",".join(str(x) for x in idx) + f",{int(val)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("shape", [(24, 20), (1, 7), (300,), (1,)],
                         ids=["grid", "grid-one-row", "mc", "mc-one-draw"])
def test_cells_csv_matches_a_per_cell_writer(shape):
    counts = np.random.default_rng(5).integers(0, 2 ** 40, size=shape)
    assert cli._cells_csv(counts) == _cells_csv_per_cell(counts)


@pytest.mark.parametrize("argv", [
    ["survey", "--in", "{grid}", "--N", "8", "--M", "8", "--grid", "6x5"],
    ["ff", "--p", "7", "--set", "random:0.4:3", "--verify", "identity"],
    ["levels", "--in", "{grid}", "--u", "1", "--bound", "16"],
], ids=["survey", "ff", "levels"])
def test_report_on_stdout_is_the_out_file(tmp_path, capsys, argv):
    grid = tmp_path / "grid.txt"
    _write_grid(grid, 9)
    out = tmp_path / "report.json"
    argv = [a.format(grid=grid) for a in argv] + ["--out", str(out)]
    rc, printed = run_cli(argv, capsys)
    assert rc == 0
    assert printed.encode("utf-8") == out.read_bytes()


def test_survey_mc_mode(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    run_json(["generate", "--kind", "unit_line",
              "--params", '{"m": 1.0, "count": 30}', "--out", str(pts)], capsys)
    rep = run_json(["survey", "--in", str(pts), "--N", "16", "--M", "8",
                    "--mc", "500", "--seed", "9"], capsys)
    assert rep["results"]["mc_std_error"] > 0.0


def test_survey_reports_the_grid_that_ran(tmp_path, capsys):
    pts = tmp_path / "grid.txt"
    _write_grid(pts, 4)
    base = ["survey", "--in", str(pts), "--N", "8", "--M", "8"]
    assert run_json(base, capsys)["params"]["grid"] == "512x512"
    assert run_json(base + ["--mc", "64"], capsys)["params"]["grid"] is None


@pytest.mark.parametrize("extra, needle", [
    (["--mc", "0"], "mc_samples must be >= 1"),
    (["--mc", "64", "--grid", "axb"], "survey takes --grid or --mc, not both"),
    (["--mc", "64", "--grid", "8x8"], "survey takes --grid or --mc, not both"),
    (["--grid", "4x4", "--seed", "5"], "--seed applies only to --mc surveys"),
], ids=["mc-0", "mc-and-bad-grid", "mc-and-grid", "seed-without-mc"])
def test_survey_refuses_a_plan_it_would_not_run(tmp_path, capsys, extra, needle):
    pts = tmp_path / "grid.txt"
    _write_grid(pts, 4)
    rc = cli.main(["survey", "--in", str(pts), "--N", "8", "--M", "8", *extra])
    assert rc == 2
    assert needle in capsys.readouterr().err


def test_ff_verify_passes(capsys):
    rep = run_json(["ff", "--p", "7", "--set", "random:0.4:3",
                    "--verify", "identity,chebyshev:2.5"], capsys)
    r = rep["results"]
    assert r["ok"] is True
    assert r["identity"]["total"] == r["identity"]["expected"]
    assert r["chebyshev"]["good_fraction"] >= 1.0 - 1.0 / 2.5


def test_ff_full_set(capsys):
    rep = run_json(["ff", "--p", "5", "--set", "full",
                    "--verify", "identity"], capsys)
    assert rep["results"]["cardinality"] == 25
    assert rep["results"]["identity"]["expected"] == 125


def test_ff_set_file(tmp_path, capsys):
    pts = tmp_path / "b.txt"
    pts.write_text("# x y\n\n1 2\n 1 2 \n0 4\n6 6\n")
    rep = run_json(["ff", "--p", "7", "--set", str(pts),
                    "--verify", "identity,chebyshev"], capsys)
    assert rep["results"]["cardinality"] == 3
    assert rep["results"]["identity"]["total"] == 21
    assert rep["results"]["ok"] is True


@pytest.mark.parametrize("body, line_no, needle", [
    ("1 2\n1.5 2\n", 2, "point (1.5, 2) has a non-integer coordinate"),
    ("1 2\n1.5 2\n", 2, "expected two integers"),
    ("# header\n3 9\n", 2, "point (3, 9) outside [0, 7)^2"),
    ("1 2 3\n", 1, "expected two fields, got 3"),
    ("\n\n-1 0\n", 3, "point (-1, 0) outside"),
    ("0\n", 1, "expected two fields, got 1"),
    ("0_6 2\n", 1, "'0_6' is not a finite decimal number"),
    ("# x y\n1 2\n\u0661 2\n", 3, "'\u0661' is not a finite decimal number"),
])
def test_ff_set_file_names_the_bad_line(tmp_path, capsys, body, line_no, needle):
    pts = tmp_path / "b.txt"
    pts.write_text(body, encoding="utf-8")
    rc = cli.main(["ff", "--p", "7", "--set", str(pts)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"{pts}:{line_no}: " in captured.err
    assert needle in captured.err


@pytest.mark.parametrize("pair", [(1.5, 2.0), (3.0, 9.0), (-1.0, 0.0), (2.0, 0.25)])
def test_ff_set_file_prints_the_refusal_of_from_points(tmp_path, capsys, pair):
    # the command line adds path:line to the library's message, no more
    from latslice.finitefield import BadPointError, FiniteFieldSet
    with pytest.raises(BadPointError) as refused:
        FiniteFieldSet.from_points(7, [(1.0, 2.0), pair, (6.0, 6.0)])
    assert refused.value.index == 1
    pts = tmp_path / "b.txt"
    pts.write_text("# x y\n1 2\n\n%r %r\n6 6\n" % pair)
    assert cli.main(["ff", "--p", "7", "--set", str(pts)]) == 2
    assert capsys.readouterr().err == \
        f"latslice: config error: {pts}:4: {refused.value}\n"


def test_ff_set_file_accepts_integers_spelled_as_floats(tmp_path, capsys):
    pts = tmp_path / "b.txt"
    pts.write_text("3.0 4\n3 4e0\n")
    rep = run_json(["ff", "--p", "7", "--set", str(pts)], capsys)
    assert rep["results"]["cardinality"] == 1
    assert rep["results"]["identity"]["total"] == 7


def test_ff_set_missing_file_gives_io_exit(tmp_path, capsys):
    rc = cli.main(["ff", "--p", "7", "--set", str(tmp_path / "none.txt")])
    assert rc == 4
    assert "cannot read --set file" in capsys.readouterr().err


def test_ff_refuses_a_line_matrix_beyond_the_materialize_cap(capsys):
    # 4463 is the largest prime whose p x p matrix fits under the cap
    assert 4463 ** 2 <= MAX_MATERIALIZE_POINTS < 4481 ** 2
    rc = cli.main(["ff", "--p", "4481", "--set", "full", "--verify", "identity"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "grid of F_p^2 for p=4481 holds 20079361 cells" in captured.err


def test_ff_refuses_a_prime_past_the_budget_before_building_its_set(capsys):
    # the full set over F_9973 would hold 99,460,729 points
    argv = ["ff", "--p", "9973", "--set", "full", "--verify", ""]
    assert cli.main(argv) == 2          # numpy's first calls set up caches
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert peak < 1 << 20
    assert "grid of F_p^2 for p=9973 holds 99460729 cells" in capsys.readouterr().err


def test_ff_refuses_a_negative_prime_as_not_prime(capsys):
    assert cli.main(["ff", "--p", "-5000", "--set", "full", "--verify", ""]) == 2
    err = capsys.readouterr().err
    assert "p=-5000 is not prime" in err
    assert "cells" not in err


def _stable(report_text):
    """A report with the per-run provenance (timestamp, timings) removed."""
    rep = json.loads(report_text)
    del rep["provenance"]["timestamp"], rep["provenance"]["stages"]
    return json.dumps(rep, sort_keys=True)


def test_repeated_main_calls_give_identical_reports(tmp_path, capsys):
    # the parser is built once per process; later calls must parse alike
    pts = tmp_path / "line.txt"
    run_json(["generate", "--kind", "unit_line",
              "--params", '{"m": 1.0, "count": 30}', "--out", str(pts)], capsys)
    commands = [
        (["ff", "--p", "11", "--set", "random:0.3:2",
          "--verify", "identity,chebyshev"], 0),
        (["dim", "--in", str(pts), "--scales", "dyadic:16"], 0),
        (["slice", "--in", str(pts), "--tube=-1,0"], 0),
        (["slice", "--in", str(pts)], 2),
        (["ff", "--p", "9"], 2),
    ]
    first = []
    for argv, want_rc in commands:
        rc, out = run_cli(argv, capsys)
        assert rc == want_rc
        first.append(_stable(out) if rc == 0 else out)
    for _ in range(2):
        for (argv, want_rc), want in zip(commands, first):
            rc, out = run_cli(argv, capsys)
            assert rc == want_rc
            assert (_stable(out) if rc == 0 else out) == want
    assert cli._build_parser() is cli._build_parser()
    fresh = cli._build_parser.__wrapped__()
    for argv, _ in commands:
        assert cli._build_parser().parse_args(argv) == fresh.parse_args(argv)


def test_levels_empty_on_axis_tube(tmp_path, capsys):
    pts = tmp_path / "line.txt"
    run_json(["generate", "--kind", "unit_line",
              "--params", '{"m": 2.0, "count": 50}', "--out", str(pts)], capsys)
    rep = run_json(["levels", "--in", str(pts), "--u=-0.5",
                    "--alpha", "0", "--psi", "1", "--bound", "40"], capsys)
    # the line sits on the open lower edge of t_{u,0}, so the slice is empty
    assert rep["results"]["levels"] == []


def test_implicit_descriptor_flow(tmp_path, capsys):
    desc = tmp_path / "stair.json"
    rep = run_json(["generate", "--kind", "parabolic_staircase",
                    "--params", '{"m_max": 1024}', "--mode", "implicit",
                    "--out", str(desc)], capsys)
    assert rep["results"]["size_estimate"] == 1024 * 1025 / 2.0
    saved = json.loads(desc.read_text())
    assert saved["format"] == "latslice-implicit-set"

    prof = tmp_path / "prof.csv"
    dim = run_json(["dim", "--in", str(desc), "--scales",
                    "dyadic:1048576", "--out", str(prof)], capsys)
    last = prof.read_text().strip().splitlines()[-1].split(",")
    assert float(last[0]) == 2.0 ** 20
    assert int(last[1]) == 524800
    assert float(last[2]) == pytest.approx(
        math.log(524800) / math.log(2.0 ** 20), abs=1e-12)
    assert dim["results"]["top_count"] == 524800


@pytest.mark.parametrize("kind, params", [
    ("parabolic_staircase", {"m_max": 64}),
    ("cone_annuli", {"theta": 0.3, "k_min": 0, "k_max": 2}),
    ("cone_staircase", {"theta": 0.5, "k_max": 3}),
    ("cone_fixed_width", {"theta": 0.5, "k0": 1, "n_levels": 2}),
])
@pytest.mark.parametrize("box", ["first_quadrant", "centered"])
def test_implicit_descriptor_counts_match_its_point_file(kind, params, box,
                                                          tmp_path, capsys):
    # a kind has an implicit form when its generator is an implicit-set
    # class; its descriptor and its materialized points count alike
    profiles = []
    for mode, name in (("implicit", "set.json"), ("materialize", "set.txt")):
        path = tmp_path / name
        run_json(["generate", "--kind", kind, "--params", json.dumps(params),
                  "--mode", mode, "--out", str(path)], capsys)
        csv = tmp_path / f"{mode}.csv"
        run_json(["dim", "--in", str(path), "--scales", "dyadic:131072",
                  "--kind", box, "--out", str(csv)], capsys)
        profiles.append(csv.read_text())
    assert profiles[0] == profiles[1]
    assert int(profiles[0].splitlines()[-1].split(",")[1]) > 0


def test_repro_example2(capsys):
    rc, out = run_cli(["repro", "example2"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(l.startswith("[PASS] criterion") for l in lines)


def test_repro_all_passes_every_criterion(tmp_path, capsys):
    out = tmp_path / "repro.json"
    rc, printed = run_cli(["repro", "all", "--out", str(out)], capsys)
    assert rc == 0
    lines = printed.strip().splitlines()
    assert len(lines) == 10
    assert all(l.startswith("[PASS] criterion") for l in lines)
    results = json.loads(out.read_text())["results"]
    assert results["recipe"] == "all" and results["ok"] is True
    assert len(results["criteria"]) == 10


def test_repro_single_criterion(capsys):
    rc, out = run_cli(["repro", "criterion5"], capsys)
    assert rc == 0
    assert out.strip().startswith("[PASS] criterion 05")


def test_repro_rejects_unknown_recipe(capsys):
    rc, _ = run_cli(["repro", "criterion99"], capsys)
    assert rc == 2
    rc2, _ = run_cli(["repro", "nonsense"], capsys)
    assert rc2 == 2


def test_missing_input_gives_io_exit(tmp_path, capsys):
    rc, _ = run_cli(["dim", "--in", str(tmp_path / "nope.txt"),
                     "--scales", "dyadic:8"], capsys)
    assert rc == 4


def test_bad_params_json_gives_config_exit(tmp_path, capsys):
    rc, _ = run_cli(["generate", "--kind", "unit_line",
                     "--params", "not json", "--out",
                     str(tmp_path / "x.txt")], capsys)
    assert rc == 2
    assert not (tmp_path / "x.txt").exists()


def test_wrong_param_names_give_config_exit(tmp_path, capsys):
    rc, _ = run_cli(["generate", "--kind", "unit_line",
                     "--params", '{"slope": 2.0, "count": 5}',
                     "--out", str(tmp_path / "x.txt")], capsys)
    assert rc == 2
    assert not (tmp_path / "x.txt").exists()


def test_unknown_kind_exits_via_argparse(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "latslice.cli", "generate", "--kind",
         "nonsense", "--out", str(tmp_path / "x.txt")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("argv, needle", [
    (["generate", "--kind", "unit_line",
      "--params", '{"m": 1.0, "count": 10000000000}'],
     "unit line with count=10000000000 holds 10000000000 points"),
    (["survey", "--N", "8", "--M", "4", "--mc", "10000000000"],
     "mc survey of 10000000000 samples"),
    (["survey", "--N", "8", "--M", "4", "--grid", "100000x100000"],
     "survey grid 100000x100000 holds 10000000000 cells"),
])
def test_oversized_requests_exit_2_under_a_memory_limit(tmp_path, argv, needle):
    # each command runs in a child under a 2 GiB address-space limit, where
    # an attempt to allocate its 10^10 entries ends in MemoryError (exit 1)
    pts = tmp_path / "p.txt"
    pts.write_text("0 0\n1 1\n")
    if argv[0] == "survey":
        argv = [argv[0], "--in", str(pts), *argv[1:]]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import resource, sys\n"
         "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
         "from latslice.cli import main\n"
         "sys.exit(main(sys.argv[1:]))\n", *argv],
        capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert f"{needle}; the cap is {MAX_MATERIALIZE_POINTS}" in proc.stderr


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "latslice.cli", "--version"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "latslice 0.1.0"


def test_provenance_stages(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    rep = run_json(["generate", "--kind", "unit_line",
                    "--params", '{"m": 1.0, "count": 3}',
                    "--out", str(pts)], capsys)
    stages = rep["provenance"]["stages"]
    assert stages["load_s"] is None and stages["points_loaded"] is None
    assert 0.0 <= stages["compute_s"] <= stages["run_s"]
    assert 0.0 <= stages["write_s"] <= stages["run_s"]
    assert "threads" not in rep["provenance"]

    rep = run_json(["slice", "--in", str(pts), "--tube=0,-0.5"], capsys)
    stages = rep["provenance"]["stages"]
    assert sorted(stages) == ["compute_s", "load_s", "points_loaded",
                              "run_s", "write_s"]
    assert stages["points_loaded"] == 3
    assert stages["write_s"] in (0, None)
    assert 0.0 <= stages["load_s"]
    assert 0.0 <= stages["compute_s"]
    assert stages["load_s"] + stages["compute_s"] <= stages["run_s"]

    sliced = tmp_path / "sliced.txt"
    stages = run_json(["slice", "--in", str(pts), "--tube=0,-0.5",
                       "--out", str(sliced)], capsys)["provenance"]["stages"]
    assert 0.0 <= stages["write_s"]
    assert (stages["load_s"] + stages["compute_s"] + stages["write_s"]
            <= stages["run_s"])

    desc = tmp_path / "stair.json"
    run_json(["generate", "--kind", "parabolic_staircase", "--mode",
              "implicit", "--params", '{"m_max": 8}', "--out", str(desc)], capsys)
    stages = run_json(["dim", "--in", str(desc), "--scales", "dyadic:64"],
                      capsys)["provenance"]["stages"]
    assert stages["points_loaded"] is None
    assert 0.0 <= stages["load_s"] <= stages["run_s"]

    out = tmp_path / "levels.json"
    run_json(["levels", "--in", str(pts), "--u=-1", "--out", str(out)], capsys)
    written = json.loads(out.read_text())["provenance"]["stages"]
    assert written["points_loaded"] == 3
    assert written["load_s"] <= written["run_s"]
    assert written["write_s"] in (0, None)     # the report is not an artifact


def test_emit_profile_csv_rejects_empty(tmp_path):
    from latslice.dimension import DimensionProfile
    empty = DimensionProfile(
        scales=np.array([]), counts=np.array([], dtype=np.int64),
        ratios=np.array([]), estimate=0.0)
    with pytest.raises(ValueError):
        cli.emit_profile_csv(empty, str(tmp_path / "e.csv"))
    assert not (tmp_path / "e.csv").exists()


def test_ff_double_count_mismatch_gives_check_exit(tmp_path, capsys,
                                                   edit_line_counts):
    # a Chebyshev check reads counts that passed the identity, so a
    # mismatch stops it as it stops the identity check: exit 3, no report
    def doubled(u0, chunk):
        chunk *= 2

    edit_line_counts(doubled)
    out = tmp_path / "report.json"
    for verify in ("identity", "chebyshev", "chebyshev:2,identity"):
        rc = cli.main(["ff", "--p", "5", "--set", "full", "--verify", verify,
                       "--out", str(out)])
        assert rc == 3, verify
        assert "double count" in capsys.readouterr().err
        assert not out.exists()


def test_ff_moved_count_gives_check_exit(tmp_path, capsys, edit_line_counts):
    # one count moved between two lines of a slope keeps every total, but
    # not the column sums the certificate checks; p = 5 is one chunk
    def moved(u0, chunk):
        chunk[1, 0] -= 1
        chunk[1, 1] += 1

    edit_line_counts(moved)
    out = tmp_path / "report.json"
    for verify in ("chebyshev", "identity"):
        rc = cli.main(["ff", "--p", "5", "--set", "full", "--verify", verify,
                       "--out", str(out)])
        assert rc == 3, verify
        assert "double count: column 0 sums to 24, not 25" in \
            capsys.readouterr().err
        assert not out.exists()


def test_ff_failed_chebyshev_check_writes_its_report_then_exits_3(
        tmp_path, capsys, monkeypatch):
    # a requested check that does not hold is exit 3, after the report
    # that records it has been written
    from latslice import finitefield as ff
    real = ff.ff_chebyshev_fraction

    def below_bound(B, k):
        rep = real(B, k)
        return dataclasses.replace(rep, good_fraction=rep.markov_bound - 0.25)

    monkeypatch.setattr(ff, "ff_chebyshev_fraction", below_bound)
    out = tmp_path / "r.json"
    rc = cli.main(["ff", "--p", "13", "--set", "full", "--verify", "chebyshev",
                   "--out", str(out)])
    assert rc == 3
    assert "check failed: ff checks failed: chebyshev" in capsys.readouterr().err
    results = json.loads(out.read_text())["results"]
    assert results["ok"] is False
    assert results["chebyshev"]["ok"] is False


def test_failed_artifact_write_leaves_no_file(tmp_path, capsys, monkeypatch):
    # a writer that fails part way through leaves neither the artifact nor
    # its temporary sibling, and the failure is an i/o exit
    def partial(ps, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# x y\n0 0\n")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_points", partial)
    out = tmp_path / "pts.txt"
    rc = cli.main(["generate", "--kind", "unit_line",
                   "--params", '{"m": 2.0, "count": 5}', "--out", str(out)])
    assert rc == 4
    assert "i/o error: disk full" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_ff_builds_the_line_matrix_once_per_set(capsys, monkeypatch):
    # one counting pass per set, whichever checks read it, and none for a
    # --verify list that is refused
    from latslice import finitefield as ff
    real, built = ff._line_count_chunks, []
    monkeypatch.setattr(ff, "_line_count_chunks",
                        lambda B, out: built.append(B.p) or real(B, out))
    for verify, rc, passes in (("identity,chebyshev", 0, [101]),
                               ("chebyshev:2,identity", 0, [101]),
                               ("chebyshev", 0, [101]), ("identity", 0, [101]),
                               ("chebyshev:0", 2, []),
                               ("identity,chebyshev:-1", 2, []),
                               ("identity,identity", 2, [])):
        built.clear()
        assert cli.main(["ff", "--p", "101", "--set", "random:0.2:1",
                         "--verify", verify]) == rc
        assert built == passes, verify
    built.clear()
    assert cli.main(["repro", "ff", "--p", "5"]) == 0
    assert built == [5] * 100


def test_tiny_tube_slope_gives_config_exit(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    run_json(["generate", "--kind", "unit_line",
              "--params", '{"m": 1.0, "count": 5}', "--out", str(pts)], capsys)
    rc, _ = run_cli(["slice", "--in", str(pts), "--tube=1e-200,0"], capsys)
    assert rc == 2


def test_steep_levels_slope_gives_config_exit(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    run_json(["generate", "--kind", "unit_line",
              "--params", '{"m": 1.0, "count": 5}', "--out", str(pts)], capsys)
    rc = cli.main(["levels", "--in", str(pts), "--u", "1e200"])
    assert rc == 2
    assert "too steep" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["survey", "--N", "8", "--M", "4", "--grid", "8x8", "--k", "nan"],
     "k_threshold must exceed 1"),
    (["levels", "--u", "-1", "--alpha", "nan"], "need alpha >= 0 and psi > 0"),
    (["levels", "--u", "-1", "--psi", "nan"], "need alpha >= 0 and psi > 0"),
    (["ff", "--p", "7", "--verify", "chebyshev:nan"], "k must be positive"),
], ids=["survey-k", "levels-alpha", "levels-psi", "ff-chebyshev-k"])
def test_nan_parameter_gives_config_exit(tmp_path, capsys, argv, message):
    # every comparison with nan is false, so a check written as a
    # comparison that must hold is the one that refuses it
    if argv[0] != "ff":
        pts = tmp_path / "grid.txt"
        _write_grid(pts, 4)
        argv = argv + ["--in", str(pts)]
    out = tmp_path / "report.json"
    rc = cli.main(argv + ["--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _write_grid(path, side):
    path.write_text("# x y\n" + "".join(
        f"{x} {y}\n" for x in range(side) for y in range(side)))


@pytest.mark.parametrize("kind", ["first_quadrant", "centered"])
def test_dim_csv_rows_are_the_profile(tmp_path, capsys, kind):
    # centered boxes take their ratios against 2l, not l: each row must
    # still carry its own scale's ratio
    from latslice import dyadic_scales, mass_dim_profile, read_points
    pts, csv = tmp_path / "grid.txt", tmp_path / "prof.csv"
    _write_grid(pts, 9)
    run_json(["dim", "--in", str(pts), "--kind", kind, "--scales", "dyadic:16",
              "--out", str(csv)], capsys)
    prof = mass_dim_profile(read_points(str(pts)), scales=dyadic_scales(16.0),
                            kind=kind)
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == len(prof)
    for row, scale, count, ratio in zip(rows, prof.scales, prof.counts,
                                        prof.ratios):
        s, c, r = row.split(",")
        assert (float(s), int(c)) == (scale, count)
        assert float(r) == pytest.approx(ratio, rel=1e-11)


@pytest.mark.parametrize("top", ["inf", "-inf", "1e400", "nan"])
def test_non_finite_scales_top_gives_config_exit(tmp_path, capsys, top):
    pts = tmp_path / "grid.txt"
    _write_grid(pts, 3)
    rc = cli.main(["dim", "--in", str(pts), "--scales", f"dyadic:{top}"])
    assert rc == 2
    # dyadic_scales refuses the top itself; --scales only reads the number
    assert capsys.readouterr().err == \
        f"latslice: config error: max_scale={float(top)!r} is not finite\n"


@pytest.mark.parametrize("scales", [[], ["--scales", "dyadic:1e308"]])
def test_dim_on_a_set_of_huge_extent_gives_config_exit(tmp_path, capsys,
                                                       recwarn, scales):
    # the default ladder's top used to overflow to inf with a RuntimeWarning
    # and then fail on a box size the user never gave
    pts = tmp_path / "far.txt"
    pts.write_text("0 0\n1e308 1e308\n")
    rc = cli.main(["dim", "--in", str(pts)] + scales)
    assert rc == 2
    assert "max_scale=1e+308" in capsys.readouterr().err
    assert len(recwarn) == 0


@pytest.mark.parametrize("u", ["inf", "-inf"])
def test_slice_by_an_infinite_slope_is_the_horizontal_tube(tmp_path, capsys, u):
    pts = tmp_path / "grid.txt"
    _write_grid(pts, 6)
    flat, inf = tmp_path / "flat.txt", tmp_path / "inf.txt"
    run_json(["slice", "--in", str(pts), "--tube=0,2.5", "--out", str(flat)],
             capsys)
    rep = run_json(["slice", "--in", str(pts), f"--tube={u},2.5",
                    "--out", str(inf)], capsys)
    assert rep["results"]["count"] == 6
    assert inf.read_text() == flat.read_text()


def test_levels_along_the_horizontal_tube(tmp_path, capsys):
    # a row of 200 points in 0 < y <= 1 and a decoy row above it
    xs = np.arange(200)
    pts = tmp_path / "rows.txt"
    pts.write_text("".join(f"{x} 1\n{x} 1.5\n" for x in xs))
    rep = run_json(["levels", "--in", str(pts), "--u", "inf", "--alpha", "0",
                    "--psi", "1", "--bound", "1000"], capsys)
    want = [m for m in range(1, 1001)
            if np.count_nonzero((xs > m / 2) & (xs <= m)) > (m / 2) ** 0.5]
    assert want and rep["results"]["levels"] == want


def test_dim_reports_counts_beyond_int64(tmp_path, capsys):
    desc = tmp_path / "stair.json"
    run_json(["generate", "--kind", "cone_staircase", "--params",
              '{"theta": 0.5, "k_max": 5}', "--mode", "implicit",
              "--out", str(desc)], capsys)
    prof = tmp_path / "prof.csv"
    rep = run_json(["dim", "--in", str(desc), "--scales",
                    f"dyadic:{2.0 ** 70}", "--out", str(prof)], capsys)
    # bands 0-5 lie inside [0, 2^70]^2; the total passes 2^63 - 1
    assert rep["results"]["top_count"] == 9223372040076067104
    assert int(prof.read_text().strip().splitlines()[-1].split(",")[1]) \
        == 9223372040076067104


@pytest.mark.parametrize("mode", ["implicit", "materialize"])
def test_generate_refuses_a_fixed_width_level_too_high_at_once(
        tmp_path, capsys, mode):
    # at k0 = 33 the slope width alone would be a 2^33-bit integer (1 GiB)
    out = tmp_path / "fixed.json"
    tracemalloc.start()
    try:
        rc = cli.main(["generate", "--kind", "cone_fixed_width", "--params",
                       '{"theta": 0.5, "k0": 33}', "--mode", mode,
                       "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "band index too large" in capsys.readouterr().err
    assert peak < 1 << 20
    assert not out.exists()


def test_descriptor_without_kind_names_the_file(tmp_path, capsys):
    desc = tmp_path / "nokind.json"
    desc.write_text(json.dumps({"format": cli.IMPLICIT_FORMAT,
                                "params": {"m_max": 8}}))
    rc = cli.main(["dim", "--in", str(desc), "--scales", "dyadic:8"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"{desc}: implicit descriptor has no 'kind'" in captured.err


@pytest.mark.parametrize("kind, params, needle", [
    ("cone_annuli", {"theta": 0.3, "k_min": 0, "k_max": 2.5}, "k_max=2.5"),
    ("parabolic_staircase", {"m_max": 4.5}, "m_max=4.5"),
], ids=["annuli-k_max", "staircase-m_max"])
def test_descriptor_with_a_non_integer_count_gives_config_exit(
        tmp_path, capsys, kind, params, needle):
    # k_max = 2.5 used to end in a TypeError traceback (exit 1), and
    # m_max = 4.5 used to be counted as m_max = 4
    desc = tmp_path / "set.json"
    desc.write_text(json.dumps({"format": cli.IMPLICIT_FORMAT, "kind": kind,
                                "params": params}))
    rc = cli.main(["dim", "--in", str(desc), "--scales", "dyadic:64"])
    assert rc == 2
    assert f"{needle} is not an integer" in capsys.readouterr().err


def test_generate_refuses_a_bool_seed(capsys):
    # the JSON true used to be read as seed 1
    rc = cli.main(["generate", "--kind", "random_dimension", "--params",
                   '{"alpha": 1.2, "l_max": 64, "seed": true}'])
    assert rc == 2
    assert "seed=True is not an integer" in capsys.readouterr().err


def test_generate_reports_a_size_past_float_range_as_inf(capsys):
    rep = run_json(["generate", "--kind", "cone_annuli", "--params",
                    '{"theta": 0.3, "k_min": 0, "k_max": 12}',
                    "--mode", "implicit"], capsys)
    assert rep["results"]["size_estimate"] == "inf"


@pytest.mark.parametrize("verify, message", [
    ("chebyshevfoo", "unknown --verify check 'chebyshevfoo'"),
    ("chebyshev:abc", "bad --verify value 'chebyshev:abc'"),
    ("identity,chebyshev:", "bad --verify value 'chebyshev:'"),
    ("identity,chebyshev:1.5,chebyshev:3",
     "--verify entry 'chebyshev:3' repeats the chebyshev check"),
    ("identity,identity", "--verify entry 'identity' repeats the identity check"),
], ids=["chebyshevfoo", "chebyshev-abc", "chebyshev-no-k", "chebyshev-twice",
        "identity-twice"])
def test_ff_verify_accepts_only_its_checks(tmp_path, capsys, verify, message):
    # any entry starting "chebyshev" used to run the check, and a repeated
    # check used to keep only its last result
    out = tmp_path / "report.json"
    rc = cli.main(["ff", "--p", "7", "--verify", verify, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_key_error_in_a_kernel_is_a_bug_not_a_config_error(tmp_path, capsys,
                                                           monkeypatch):
    pts = tmp_path / "p.txt"
    run_json(["generate", "--kind", "unit_line",
              "--params", '{"m": 1.0, "count": 5}', "--out", str(pts)], capsys)

    def broken(ps):
        raise KeyError("cell")

    monkeypatch.setattr(cli, "validate_separation", broken)
    with pytest.raises(KeyError):
        cli.main(["validate", "--in", str(pts)])
    assert "config error" not in capsys.readouterr().err


def test_coordinates_beyond_int64_give_config_exit(tmp_path, capsys):
    # the floor line y = floor(x / 2) meets (2^64, 2^63), a height int64
    # cannot hold
    pts = tmp_path / "far.txt"
    pts.write_text("18446744073709551616 9223372036854775808\n0 0\n")
    rc = cli.main(["slice", "--in", str(pts), "--floor", "0.5,0.0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == ("latslice: config error: integer coordinates "
                            "beyond the int64 range\n")


def test_sieve_self_check_gives_check_exit(tmp_path, capsys, monkeypatch):
    # every point in one cell: the sieve's round drops nothing and raises
    from latslice import geometry
    pts = tmp_path / "p.txt"
    pts.write_text("0 0\n5 0\n0 7\n")
    monkeypatch.setattr(geometry, "_cell_keys",
                        lambda pts, mesh: (np.zeros(len(pts), dtype=np.int64), 3))
    rc = cli.main(["validate", "--in", str(pts)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert "latslice: internal check failed: closest-pair sieve" in captured.err
