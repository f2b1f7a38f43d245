"""The three benchmark workloads.

Each workload has a ``setup(seed, workdir)`` that builds every input from
the seed (timed as ``setup_s``) and an ``ops(state)`` that returns the fixed
list of operations one pass issues.  An op is one call into a public
function of latslice (one ``latslice.cli.main(argv)`` call in ``cli_loop``).
Two seeds give different inputs and parameters but the same list of op
kinds.  Each op carries its oracle: ``expect()`` computes the expected value
with the benchmark's own code and ``check(result, expected)`` compares; the
runner calls both outside every timed region.

Seeded parameters are drawn stratified (one uniform draw per equal-width
stratum), so every seed covers its parameter range evenly and per-op costs
keep the same spread from seed to seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import latslice as ls
from latslice import cli

import oracles as orc


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    expect: Callable[[], Any]
    check: Callable[[Any, Any], bool]


def _digest_op(kind, call, expect, digest) -> Op:
    return Op(kind, call, expect, lambda result, expected: digest(result) == expected)


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    return lo + (np.arange(n) + rng.random(n)) * ((hi - lo) / n)


def _tube_params(rng, anchors: np.ndarray, u_min: float = 0.1,
                 u_max: float = 10.0) -> list[tuple[float, float]]:
    """One tube per anchor point, placed with the anchor mid-tube, with |u|
    spread log-evenly over [u_min, u_max] and alternating sign."""
    n = len(anchors)
    mags = 10.0 ** _strata(rng, n, math.log10(u_min), math.log10(u_max))
    us = mags * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    out = []
    for u, (x, y) in zip(us, anchors):
        perp = (x + u * y) / math.copysign(math.sqrt(1.0 + u * u), u)
        out.append((float(u), float(perp - 0.5)))
    return out


def _floor_params(rng, n: int) -> list[tuple[float, float]]:
    us = _strata(rng, n, 0.05, 3.0)
    vs = rng.uniform(0.0, 2.0, size=n)
    return [(float(u), float(v)) for u, v in zip(us, vs)]


# ---------------------------------------------------------------------------
# pointset_queries: build each set once, query it many times
# ---------------------------------------------------------------------------

LADDER = 2.0 ** np.arange(1, 13)          # 2 .. 4096, the big set's extent
WINDOWS = 2.0 ** np.arange(1, 10)         # 2 .. 512, the small set's extent


def setup_pointset_queries(seed: int, workdir: str) -> dict:
    return {
        "seed": seed,
        "stair": ls.gen_parabolic_staircase(1024),
        "big": ls.gen_random_dimension(1.5, 4096, seed),
        "small": ls.gen_random_dimension(1.5, 512, seed),
        "lattice": ls.gen_cartesian(np.arange(256), np.arange(256)),
    }


def ops_pointset_queries(st: dict) -> list[Op]:
    rng = np.random.default_rng([st["seed"], 1])
    stair, big, small, lat = st["stair"], st["big"], st["small"], st["lattice"]
    ops = []

    def box_op(n):
        box = ls.BoxSpec("first_quadrant", float(n * n))
        return _digest_op("staircase_box", lambda: stair.box_count(box),
                          lambda: n * (n + 1) // 2, int)

    # 40 of criterion 05's boxes [0, N^2]^2, N <= 1024: fewer than the
    # slices, so that op_p50_ms falls among the slices (below)
    ops += [box_op(int(n)) for n in np.ceil(_strata(rng, 40, 0.0, 1024.0))]

    def ladder_op(kind, u=None):
        return _digest_op(
            "mass_ladder",
            lambda: ls.mass_dim_profile(big, scales=LADDER, kind=kind, u=u),
            lambda: orc.box_counts(big.points, kind, LADDER, u),
            lambda r: [int(c) for c in r.counts])

    ops += [ladder_op("first_quadrant"), ladder_op("centered"),
            ladder_op("slanted", float(rng.uniform(0.5, 2.0)))]

    def tube_op(u, v):
        return _digest_op("slice_tube", lambda: ls.slice_tube(big, ls.Tube(u, v)),
                          lambda: orc.tube_slice(big.points, u, v),
                          lambda r: orc.sorted_rows(r.points))

    # Shallow tubes (|u| >= 2) through the central square walk every column,
    # and floor lines without an x limit do too, so these 56 slices cost
    # about the same: op_p50_ms and op_p90_ms both fall among them, not on
    # an edge between op kinds of different cost.
    central = rng.uniform(1024.0, 3072.0, size=(48, 2))
    ops += [tube_op(u, v) for u, v in _tube_params(rng, central, 2.0)]

    def floor_op(u, v, x_max):
        return _digest_op(
            "slice_floor_line",
            lambda: ls.slice_floor_line(big, ls.FloorLine(u, v), x_max),
            lambda: orc.floor_heights(big.points, u, v, x_max),
            lambda r: [int(y) for y in r])

    ops += [floor_op(u, v, math.inf) for u, v in _floor_params(rng, 8)]

    def levels_op(u):
        cfg = ls.LevelSearchConfig(alpha=0.5, psi=0.5, search_bound=4096)
        return _digest_op(
            "find_levels", lambda: ls.find_levels(big, u, cfg),
            lambda: orc.level_counts(big.points, u, cfg.alpha, cfg.psi,
                                     cfg.search_bound),
            lambda r: ([int(m) for m in r.levels], [int(c) for c in r.counts]))

    ops += [levels_op(float(u) * (-1) ** i)
            for i, u in enumerate(_strata(rng, 4, 0.25, 4.0))]

    v0 = float(rng.uniform(-0.5, 0.5))
    ops.append(_digest_op(
        "exception_ray_scan",
        lambda: ls.exception_ray_scan(big, v0, (-4.0, -0.25), 16, 0.5,
                                      scales=LADDER),
        lambda: orc.ray_scan_fraction(big.points, v0, -4.0, -0.25, 16, 0.5,
                                      LADDER),
        float))

    ops.append(_digest_op(
        "counting_dim_profile",
        lambda: ls.counting_dim_profile(small, window_sizes=WINDOWS),
        lambda: [orc.window_max(small.points, int(s)) for s in WINDOWS],
        lambda r: [int(c) for c in r.counts]))

    ops.append(_survey_grid_op(lat, rng))
    ops.append(_survey_mc_op(lat, rng, st["seed"]))
    return ops


def _survey_grid_op(lat, rng) -> Op:
    """256 x 256 grid survey; sampled cells are recounted from the points,
    and the exact v-average must respect the |E_N| / M identity."""
    cfg = ls.SurveyConfig(n_side=256, m_range=256.0, mode="grid",
                          grid_u=256, grid_v=256)
    cells = rng.integers(0, 256, size=(32, 2))

    def digest(r):
        return (r.point_count, [int(r.counts[i, j]) for i, j in cells],
                bool(r.mean_exact_v <= r.bound + 1e-9))

    def expect():
        a, b = orc.row_points(lat.points, cfg.n_side)
        m = cfg.m_range
        us = (np.arange(cfg.grid_u) + 0.5) * (m / cfg.grid_u)
        vs = (np.arange(cfg.grid_v) + 0.5) * (m / cfg.grid_v)
        inside = np.count_nonzero(orc.box_mask(lat.points, "first_quadrant",
                                               cfg.n_side))
        return (int(inside), [orc.floor_line_count(a, b, us[i], vs[j])
                              for i, j in cells], True)

    return _digest_op("survey_grid",
                      lambda: ls.survey_floor_lines(lat, cfg, store_counts=True),
                      expect, digest)


def _survey_mc_op(lat, rng, seed: int) -> Op:
    """Monte Carlo survey; sampled draws are recounted from the points.  The
    draws are regenerated as documented: u then v, uniform on (0, M], from
    numpy's default generator seeded with the survey seed."""
    cfg = ls.SurveyConfig(n_side=256, m_range=256.0, mode="mc",
                          mc_samples=1024, seed=seed)
    picks = rng.integers(0, cfg.mc_samples, size=32)

    def expect():
        a, b = orc.row_points(lat.points, cfg.n_side)
        draws = np.random.default_rng(cfg.seed)
        us = draws.uniform(0.0, cfg.m_range, size=cfg.mc_samples)
        vs = draws.uniform(0.0, cfg.m_range, size=cfg.mc_samples)
        return [orc.floor_line_count(a, b, us[i], vs[i]) for i in picks]

    return _digest_op("survey_mc",
                      lambda: ls.survey_floor_lines(lat, cfg, store_counts=True),
                      expect, lambda r: [int(r.counts[i]) for i in picks])


# ---------------------------------------------------------------------------
# implicit_ff: exact counts that never build a point index
# ---------------------------------------------------------------------------

# every prime from 101 to 701: their line matrices cost from about 1 to 70 ms,
# an even spread that op_p90_ms falls inside
FF_PRIMES = tuple(p for p in range(101, 702)
                  if all(p % d for d in range(2, math.isqrt(p) + 1)))


def zigzag_tubes() -> list[ls.Tube]:
    """Criterion 07's 20 tubes through the origin inside the delta=0.2 cone."""
    t = math.tan(math.pi / 4 + 0.2)
    slopes = 1.0 + (np.arange(20) + 0.5) * ((t - 1.0) / 20.0)
    return [ls.Tube(-1.0 / float(s), 0.0) for s in slopes]


@functools.cache
def _materialized(kind: str) -> np.ndarray:
    """The materializable bands of the implicit families, via the package's
    materialized mode."""
    if kind == "staircase":
        return ls.ConeStaircase(0.5, 3).materialize().points
    if kind == "annuli":
        return ls.ConeAnnuli(0.3, 0, 2).materialize().points
    return ls.ConeFixedWidth(0.5, 1, n_levels=2).materialize().points


def setup_implicit_ff(seed: int, workdir: str) -> dict:
    return {
        "seed": seed,
        "staircase": ls.ConeStaircase(0.5, 4),
        "annuli": ls.ConeAnnuli(0.3, 0, 4),
        "fixed": ls.ConeFixedWidth(0.5, 1),
        "parabolic": ls.ParabolicStaircase(2 ** 20),
        "ff_sets": [ls.FiniteFieldSet.random(p, 0.5 / math.sqrt(p),
                                             seed * 1000 + p)
                    for p in FF_PRIMES],
    }


def ops_implicit_ff(st: dict) -> list[Op]:
    ops = []

    def count_op(kind, family, box, expect):
        return _digest_op(kind, lambda: ls.box_count(family, box), expect, int)

    for k in range(1, 34):
        s = 2.0 ** k
        ops.append(count_op(
            "cone_staircase_box", st["staircase"], ls.BoxSpec("first_quadrant", s),
            lambda s=s: int(np.count_nonzero(orc.box_mask(
                _materialized("staircase"), "first_quadrant", s)))
            + orc.step_lookup(orc.STAIRCASE_BAND4, s)))
    for k in range(1, 34):
        s = 2.0 ** k
        ops.append(count_op(
            "cone_annuli_box", st["annuli"], ls.BoxSpec("centered", s),
            lambda s=s: int(np.count_nonzero(orc.box_mask(
                _materialized("annuli"), "centered", s)))
            + orc.step_lookup(orc.ANNULI_BANDS_3_4, s)))

    def level_expect(j):
        if j in orc.FIXED_WIDTH_LEVELS_3_4:
            return orc.FIXED_WIDTH_LEVELS_3_4[j]
        lo = 1 << (1 << (1 + j))
        ys = _materialized("fixed")[:, 1]
        return int(np.count_nonzero((ys >= lo) & (ys < lo + (1 << (1 << j)))))

    ops += [_digest_op("fixed_width_level",
                       lambda j=j: st["fixed"].level_count(j),
                       lambda j=j: level_expect(j), int)
            for j in range(1, 5)]

    def parabolic_expect(s):
        m = min(2 ** 20, math.isqrt(int(s)))
        return m * (m + 1) // 2

    for k in range(1, 42):
        s = 2.0 ** k
        ops.append(count_op("parabolic_box", st["parabolic"],
                            ls.BoxSpec("first_quadrant", s),
                            lambda s=s: parabolic_expect(s)))

    for i, tube in enumerate(zigzag_tubes()):
        ops.append(_digest_op(
            "zigzag_tube_counts",
            lambda tube=tube: ls.zigzag_tube_counts(0.2, 300, tube),
            lambda i=i: (orc.ZIGZAG_FINAL[i], orc.ZIGZAG_SUMS[i]),
            lambda r: (int(r[1][-1]), int(r[1].sum()))))

    for B in st["ff_sets"]:
        ops.append(_chebyshev_op(B, st["seed"]))
    return ops


def _chebyshev_op(B, seed: int) -> Op:
    k = math.log(B.p)

    def expect():
        matrix = ls.ff_line_count_matrix(B)
        problems = orc.line_matrix_problems(B.grid, matrix, seed * 1000 + B.p)
        if problems:
            return problems
        card = int(np.count_nonzero(B.grid))
        good = int(np.count_nonzero(matrix <= k * card / B.p))
        return (card, good / (B.p * B.p))

    return _digest_op("ff_chebyshev", lambda: ls.ff_chebyshev_fraction(B, k),
                      expect, lambda r: (r.cardinality, r.good_fraction))


# ---------------------------------------------------------------------------
# cli_loop: one index build and one query per command
# ---------------------------------------------------------------------------

DESCRIPTOR = {"format": cli.IMPLICIT_FORMAT, "kind": "parabolic_staircase",
              "params": {"m_max": 1024}}


def setup_cli_loop(seed: int, workdir: str) -> dict:
    sets = {
        "rand": ls.gen_random_dimension(1.5, 1024, seed),
        "stair": ls.gen_parabolic_staircase(256),
        "lat": ls.gen_cartesian(np.arange(128), np.arange(128)),
    }
    files = {}
    for name, ps in sets.items():
        files[name] = os.path.join(workdir, name + ".txt")
        ls.write_points(ps, files[name])
    files["desc"] = os.path.join(workdir, "stair.json")
    with open(files["desc"], "w", encoding="utf-8") as fh:
        json.dump(DESCRIPTOR, fh)
    return {"seed": seed, "workdir": workdir, "files": files,
            "points": {name: ps.points for name, ps in sets.items()}}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``latslice`` command: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:       # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _cli_op(kind: str, argv: list[str], expect, report: str | None = None) -> Op:
    """``expect()`` gives the results fields the command must report; a
    command that writes its report to ``report`` is read from there."""

    def check(result, expected):
        rc, stdout = result
        if rc != 0:
            return False
        if report is not None:
            with open(report, encoding="utf-8") as fh:
                stdout = fh.read()
        results = json.loads(stdout)["results"]
        return all(results.get(key) == value for key, value in expected.items())

    return Op(kind, lambda: run_cli(argv), expect, check)


@functools.cache
def _loaded(path: str) -> np.ndarray:
    """A point file parsed with numpy, independent of read_points."""
    return np.loadtxt(path, comments="#", ndmin=2)


def ops_cli_loop(st: dict) -> list[Op]:
    rng = np.random.default_rng([st["seed"], 3])
    files, pts, seed = st["files"], st["points"], st["seed"]
    work = st["workdir"]
    ops = []

    def slice_ops(name, n):
        path = files[name]
        anchors = pts[name][rng.integers(0, len(pts[name]), size=n)]
        for u, v in _tube_params(rng, anchors):
            ops.append(_cli_op(
                "slice_tube", ["slice", "--in", path, f"--tube={u!r},{v!r}"],
                lambda u=u, v=v: {"count": int(np.count_nonzero(
                    orc.tube_mask(_loaded(path), u, v)))}))
        for u, v in _floor_params(rng, n):
            ops.append(_cli_op(
                "slice_floor", ["slice", "--in", path, f"--floor={u!r},{v!r}"],
                lambda u=u, v=v: {"heights": orc.floor_heights(
                    _loaded(path), u, v, math.inf)}))

    # the staircase's floor slices walk all 65,536 integer columns, so they
    # are the second-slowest group (after dim and levels on the random set);
    # their 15 ops sit around op_p90_ms
    slice_ops("stair", 15)
    slice_ops("lat", 29)

    rand, lat = files["rand"], files["lat"]
    ops.append(_cli_op("dim", ["dim", "--in", rand], lambda: _dim_fields(
        ls.mass_dim_profile(ls.read_points(rand)))))
    ops.append(_cli_op(
        "dim_descriptor", ["dim", "--in", files["desc"], "--scales", "dyadic:1048576"],
        lambda: {**_dim_fields(ls.mass_dim_profile(
            ls.ParabolicStaircase(1024), scales=ls.dyadic_scales(2.0 ** 20))),
            "top_count": 1024 * 1025 // 2}))
    u = float(-rng.uniform(0.5, 2.0))
    ops.append(_cli_op(
        "levels", ["levels", "--in", rand, f"--u={u!r}", "--alpha", "0.5",
                   "--psi", "0.5", "--bound", "1024"],
        lambda: dict(zip(("levels", "counts"),
                         orc.level_counts(_loaded(rand), u, 0.5, 0.5, 1024)))))
    ops.append(_cli_op("validate", ["validate", "--in", lat],
                       lambda: {"points": 128 * 128, "min_distance": 1.0,
                                "separated": True}))

    grid_cfg = ls.SurveyConfig(n_side=128, m_range=128.0, grid_u=128, grid_v=128)
    ops.append(_cli_op(
        "survey_grid", ["survey", "--in", lat, "--N", "128", "--M", "128",
                        "--grid", "128x128"],
        lambda: _survey_fields(ls.survey_floor_lines(ls.read_points(lat), grid_cfg))))
    mc_cfg = ls.SurveyConfig(n_side=128, m_range=128.0, mode="mc",
                             mc_samples=512, seed=seed)
    ops.append(_cli_op(
        "survey_mc", ["survey", "--in", lat, "--N", "128", "--M", "128",
                      "--mc", "512", "--seed", str(seed)],
        lambda: _survey_fields(ls.survey_floor_lines(ls.read_points(lat), mc_cfg))))

    for p in (101, 211):
        spec = f"random:0.2:{seed}"

        def ff_expect(p=p, spec=spec):
            B = ls.FiniteFieldSet.random(p, 0.2, seed)
            rep = ls.ff_chebyshev_fraction(B, math.log(p))
            return {"cardinality": B.cardinality, "ok": True,
                    "identity": {"total": B.cardinality * p,
                                 "expected": B.cardinality * p, "ok": True},
                    "chebyshev": {"k": math.log(p), "good_fraction": rep.good_fraction,
                                  "bound": rep.markov_bound, "ok": True}}

        ops.append(_cli_op("ff", ["ff", "--p", str(p), "--set", spec,
                                  "--verify", "identity,chebyshev"], ff_expect))

    gen_params = {"alpha": 1.2, "l_max": 256, "seed": seed}
    out = os.path.join(work, "generated.txt")
    ops.append(_cli_op(
        "generate", ["generate", "--kind", "random_dimension",
                     "--params", json.dumps(gen_params), "--out", out],
        lambda: {"points": len(ls.gen_random_dimension(**gen_params))}))
    out_line = os.path.join(work, "line.txt")
    ops.append(_cli_op(
        "generate", ["generate", "--kind", "unit_line",
                     "--params", '{"m": 2.0, "count": 2000}', "--out", out_line],
        lambda: {"points": 2000}))

    for recipe, extra in (("ff", ["--p", "31"]), ("criterion04", []),
                          ("criterion10", [])):
        report = os.path.join(work, f"repro-{recipe}.json")
        ops.append(_cli_op("repro", ["repro", recipe, *extra, "--out", report],
                           lambda: {"ok": True}, report=report))
    return ops


def _dim_fields(prof) -> dict:
    return {"estimate": prof.estimate, "scales": len(prof),
            "top_count": int(prof.counts[-1])}


def _survey_fields(rep) -> dict:
    return {"points_in_window": rep.point_count,
            "lattice_row_points": rep.lattice_row_points,
            "mean": rep.mean, "mean_exact_v": rep.mean_exact_v,
            "exception_fraction": rep.exception_fraction}


WORKLOADS = {
    "pointset_queries": (setup_pointset_queries, ops_pointset_queries),
    "implicit_ff": (setup_implicit_ff, ops_implicit_ff),
    "cli_loop": (setup_cli_loop, ops_cli_loop),
}
