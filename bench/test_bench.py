"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402

import latslice  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def test_wrong_count_is_a_failure():
    ops = [workloads._digest_op("good", lambda: 5, lambda: 5, int),
           workloads._digest_op("off_by_one", lambda: 5 + 1, lambda: 5, int)]
    runner = run.Runner(ops, run.make_probe())
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)
    assert "off_by_one" in runner.problems[0]


def _checkout(tmp_path, with_src=True):
    root = os.path.dirname(HERE)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(os.path.join(root, "src"), tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _bench(root, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=300)


def test_command_exits_nonzero_on_a_wrong_count(tmp_path):
    root = _checkout(tmp_path)
    gen = root / "src" / "latslice" / "generators.py"
    text = gen.read_text()
    # the first rect_count in the file is ParabolicStaircase's
    gen.write_text(text.replace("        return total\n",
                                "        return total + 1\n", 1))
    proc = _bench(root, "--workload", "implicit_ff", "--seed", "3",
                  "--seconds", "0", "--trace", "0")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert last["correct"] is False and last["failed"] == 3 * 41


def test_command_refuses_to_run_without_the_package(tmp_path):
    proc = _bench(_checkout(tmp_path, with_src=False), "--workload", "cli_loop",
                  "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2 and proc.stdout == ""


def test_self_time_of_nested_spans():
    spans = [Span("root", -1, 0.0, 10.0), Span("a", 0, 1.0, 4.0),
             Span("a.inner", 1, 2.0, 3.0), Span("b", 0, 5.0, 9.0)]
    spans[3].excluded = 0.5
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.5]


def test_tracer_wraps_every_binding_and_restores_them():
    geometry, original = latslice.geometry, latslice.geometry.slice_tube
    init = latslice.PointSet.__init__
    tracer = Tracer(latslice)
    tracer.install()
    try:
        wrapped = geometry.slice_tube
        assert wrapped is not original
        assert latslice.dimension.slice_tube is wrapped
        assert latslice.survey.slice_tube is wrapped
        assert latslice.slice_tube is wrapped
        assert latslice.cli.GENERATORS["random_dimension"][0] \
            is latslice.generators.gen_random_dimension
        ps = latslice.gen_cartesian(np.arange(8), np.arange(8))
        latslice.survey.tube_dim_along(ps, 1.0, 0.0)
    finally:
        tracer.uninstall()
    assert geometry.slice_tube is original and latslice.survey.slice_tube is original
    assert latslice.PointSet.__init__ is init
    names = [s.name for s in tracer.spans]
    assert names.count("geometry.slice_tube") == 1
    assert "geometry.pointset" in names and "generators.materialize" in names
    metrics = tracer.layer_metrics()
    assert metrics["geometry.slice_tube.calls"] == 1
    assert metrics["dimension.mass_dim_profile.boxes"] > 0


def test_seeds_change_inputs_not_the_op_list(tmp_path):
    def build(name, seed):
        workdir = tmp_path / f"{name}-{seed}"
        workdir.mkdir()
        setup, make_ops = workloads.WORKLOADS[name]
        state = setup(seed, str(workdir))
        return state, [op.kind for op in make_ops(state)]

    for name, inputs in (
            ("pointset_queries", lambda st: st["big"].points.tobytes()),
            ("implicit_ff", lambda st: [B.grid.tobytes() for B in st["ff_sets"]]),
            ("cli_loop", lambda st: open(st["files"]["rand"]).read())):
        st1, kinds1 = build(name, 1)
        st2, kinds2 = build(name, 2)
        assert kinds1 == kinds2 and len(kinds1) >= 100
        assert inputs(st1) != inputs(st2)
