"""Run one latslice benchmark workload and print its metrics.

    python3 bench/run.py --workload pointset_queries --seed 1 --seconds 18 --trace 0

Run from the root of a latslice checkout; the package is imported from
``src/`` there.  The load is a closed loop with one client: each op is
issued only after the previous one returned, from the main thread, with the
thread pools of numpy's backends pinned to one thread.

The measuring happens in worker processes started one after the other, each
a fresh interpreter that imports latslice, builds the inputs and runs passes
of the workload's fixed op list until its share of ``--seconds`` is used up
(at least one pass).  Every result is checked against an independent oracle
after its pass, outside all timings.  ``--trace 0`` uses three workers and
reports the median of their figures, because the speed of one process on a
shared machine varies far more than the figures of three do.  ``--trace 1``
uses one worker, which sets up with every latslice entry point wrapped in a
span, runs the untraced passes, then one traced pass, and reports the
per-layer metrics and the tracing overhead.  Its spans are written to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every op succeeded and matched its oracle, 1 otherwise, and 2 when the
run could not start (for example when ``src/latslice`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
# the keys of workloads.WORKLOADS, named here so the parent process can
# check its arguments without importing latslice
WORKLOAD_NAMES = ("pointset_queries", "implicit_ff", "cli_loop")
WORKERS = 3
DEADLINE_S = 170        # all workers of one run; the command must end in 180 s


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true",
                    help="measure in this process and print the raw figures")
    return ap.parse_args(argv)


# About the probe's median time on the machine the benchmark was tuned on (a
# 2-core Xeon VM).  Timings are reported scaled to that speed; see make_probe.
PROBE_REF_S = 6.0e-4


def make_probe():
    """A fixed ~0.6 ms kernel that uses no latslice code but the same kinds
    of work the workloads do: integer arithmetic in a loop, parsing decimal
    strings, grouping tuple keys in a dict, writing a small JSON document,
    sorting a small array and scanning a 1 MB one.

    The host this benchmark runs on is shared: the same process runs 15-50%
    faster or slower for tens of seconds at a time.  Running the probe
    between every two ops and dividing each op's time by the mean of the
    probes on either side (times PROBE_REF_S) removes most of that swing
    from the reported figures; the raw figures go to the run record.  The
    kernel runs twice and only the second, warm run is timed, so what an op
    leaves in the caches does not change the probe."""
    import numpy as np
    rng = np.random.default_rng(1)
    small, mid = rng.random(4096), rng.random(131072)
    tokens = [repr(float(x)) for x in rng.random(300) * 1000.0]
    keys = [(int(a), int(b)) for a, b in rng.integers(0, 64, size=(400, 2))]

    def kernel() -> int:
        acc = 0
        for i in range(1500):
            acc += i * i
        values = [float(t) for t in tokens]
        table: dict = {}
        for key, value in zip(keys, values):
            table.setdefault(key, []).append(value)
        hits = sum(len(table.get(key, ())) for key in keys)
        text = json.dumps({str(k): v for k, v in zip(keys[:100], values)})
        return (acc + hits + len(text) + int(np.count_nonzero(np.sort(small) > 0.5))
                + int(np.count_nonzero(mid > 0.5)))

    def probe() -> float:
        kernel()
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    return probe


class Runner:
    """Issues passes of one workload's ops and gates every result."""

    def __init__(self, ops, probe):
        self.ops = ops
        self.probe = probe
        self._expected: dict[int, object] = {}
        self.walls: list[float] = []          # per pass, sum of op times
        self.scaled_walls: list[float] = []
        self.latencies: list[float] = []
        self.scaled_latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self) -> float:
        """One timed pass, then the gate; returns the pass's wall time."""
        wall, results = self.timed_pass()
        self.gate(results)
        return wall

    def timed_pass(self) -> tuple[float, list]:
        """Issue every op once.  Returns the wall time (the ops' times summed,
        without the probes between them) and each op's (result, error)."""
        results, times, probes = [], [], [self.probe()]
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:     # a failed op is counted, not fatal
                result, error = None, exc
            times.append(time.perf_counter() - t0)
            probes.append(self.probe())
            results.append((result, error))
        scaled = [t * 2.0 * PROBE_REF_S / (before + after)
                  for t, before, after in zip(times, probes, probes[1:])]
        self.latencies += times
        self.scaled_latencies += scaled
        self.scaled_walls.append(sum(scaled))
        self.attempted += len(self.ops)
        return sum(times), results

    def gate(self, results) -> None:
        """Compare each result with its op's oracle, outside all timings."""
        for i, (op, (result, error)) in enumerate(zip(self.ops, results)):
            if error is not None:
                self._fail(f"op {i} ({op.kind}) raised {error!r}")
                continue
            if i not in self._expected:
                self._expected[i] = op.expect()
            try:
                ok = op.check(result, self._expected[i])
            except Exception as exc:     # unreadable output is a mismatch
                self._fail(f"op {i} ({op.kind}) output unreadable: {exc!r}")
                continue
            if not ok:
                self._fail(f"op {i} ({op.kind}) disagrees with its oracle")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def run_for(self, seconds: float) -> None:
        """Untraced passes until the ops have run for ``seconds``."""
        while True:
            self.walls.append(self.run_pass())
            if sum(self.walls) >= seconds:
                return


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# Worker: one fresh process that sets up and measures
# ---------------------------------------------------------------------------

def _timed_setup(workload: str, seed: int, workdir: str, tracer_factory=None):
    """Import latslice and build the inputs; returns (setup_s, ops, tracer).

    The clock starts before the first import of latslice (and so of numpy,
    scipy and mpmath) and stops when every input is built."""
    t0 = time.perf_counter()
    import latslice
    import workloads
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory(latslice)
        tracer.install()
    try:
        setup, make_ops = workloads.WORKLOADS[workload]
        state = setup(seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0, make_ops(state), tracer


def measure(workload: str, seed: int, seconds: float, trace: int,
            workdir: str) -> dict:
    """Set up and measure in this process; returns the raw figures."""
    tracer_factory = None
    if trace:
        from tracer import Tracer
        tracer_factory = Tracer
    setup_s, ops, tracer = _timed_setup(workload, seed, workdir, tracer_factory)
    probe = make_probe()
    setup_probe = statistics.median(probe() for _ in range(25))
    runner = Runner(ops, probe)
    runner.run_for(seconds)
    figures = {
        "setup_s": setup_s,
        "scaled_setup_s": setup_s * PROBE_REF_S / setup_probe,
        "walls": runner.walls,
        "scaled_walls": runner.scaled_walls,
        "latencies": runner.latencies,
        "scaled_latencies": runner.scaled_latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.install()
        try:
            _, results = runner.timed_pass()
        finally:
            tracer.uninstall()
        runner.gate(results)
        layer = tracer.layer_metrics()
        # probe-scaled, like the end-to-end timings, so the host's swings
        # between the untraced passes and the traced one mostly cancel
        layer["trace.overhead_s"] = (runner.scaled_walls[-1]
                                     - statistics.median(runner.scaled_walls[:-1]))
        figures["layer"] = layer
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([s.as_dict() for s in tracer.spans], fh)
    import mpmath
    import numpy
    import scipy
    figures.update(attempted=runner.attempted, failed=runner.failed,
                   problems=runner.problems, ops_per_pass=len(ops),
                   versions={"python": platform.python_version(),
                             "numpy": numpy.__version__, "scipy": scipy.__version__,
                             "mpmath": mpmath.__version__})
    return figures


def _worker_main(args) -> int:
    sys.path[:0] = [SRC, BENCH_DIR]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        figures = measure(args.workload, args.seed, args.seconds, args.trace,
                          workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(figures))
    return 0


def _spawn_worker(args, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--worker"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Parent: start the workers, combine their figures, print the result
# ---------------------------------------------------------------------------

def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def end_to_end(workers: list[dict], prefix: str = "scaled_") -> dict[str, float]:
    """Each metric is the median over workers of that worker's figure;
    ``prefix=""`` gives the raw figures instead of the probe-scaled ones."""
    def med(fn):
        return statistics.median(fn(w) for w in workers)
    return {
        "wall_s": med(lambda w: statistics.median(w[prefix + "walls"])),
        "op_p50_ms": med(lambda w: statistics.median(w[prefix + "latencies"])) * 1e3,
        "op_p90_ms": med(lambda w: _p90(w[prefix + "latencies"])) * 1e3,
        "setup_s": med(lambda w: w[prefix + "setup_s"]),
        "peak_rss_mb": med(lambda w: w["peak_rss_mb"]),
    }


E2E_UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"self_s": "s", "overhead_s": "s", "p50_ms": "ms", "p90_ms": "ms",
            "used_ratio": "ratio", "col_occupancy": "ratio",
            "incidences_per_s": "1/s"}.get(suffix, "count")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "latslice", "__init__.py")):
        print(f"bench: no latslice package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.worker:
        return _worker_main(args)
    load_start = list(os.getloadavg())
    n = 1 if args.trace else WORKERS
    deadline = time.monotonic() + DEADLINE_S
    try:
        workers = [_spawn_worker(args, args.seconds / n, deadline)
                   for _ in range(n)]
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        metrics = {name: (value, _unit(name))
                   for name, value in workers[0]["layer"].items()}
    else:
        metrics = {name: (value, E2E_UNITS[name])
                   for name, value in end_to_end(workers).items()}
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **workers[0]["versions"], "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(), "load_avg_start": load_start,
        "load_avg_end": list(os.getloadavg()), "git_commit": _git_commit(),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "ops_per_pass": workers[0]["ops_per_pass"],
        "passes": [len(w["walls"]) for w in workers],
        "ops_timed": [len(w["latencies"]) for w in workers],
        "setup_samples_s": [w["setup_s"] for w in workers],
        "raw": None if args.trace else end_to_end(workers, prefix=""),
        "problems": [p for w in workers for p in w["problems"]][:20],
    }
    print("run record: " + json.dumps(record))
    for message in record["problems"]:
        print("bench: " + message, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
