"""Command-line workbench.

Each subcommand is one entry of ``COMMANDS``: its help text, its runner,
whether its ``--out`` names the report JSON (survey, ff, levels, repro) or
an artifact (generate, dim, slice), and its argparse flags.  ``main`` parses
the flags and passes their values to ``run(command, params)``.

A runner computes; it writes no files.  It returns its results block, the
artifacts to write as ``(key, path, writer)`` triples, and the message of a
failed check (or None).  ``run()`` is the only code that writes files: each
artifact through ``_atomic_write``, then the ``--out`` report, and only then
does it raise ``CheckFailure`` for a failed check.  The report's ``params``
block holds the flag values other than ``out``, ``seed`` and ``cells``, so
identical flags give identical ``params`` and ``results`` blocks; only the
provenance (timestamp and stage timings) differs between runs.

Exit codes: 0 ok, 2 config error, 3 assertion failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, finitefield
from . import generators as gen
from .acceptance import ALL_CRITERIA, run_criterion, run_ff_battery
from .dimension import (DimensionProfile, LevelSearchConfig, dyadic_scales,
                        find_levels, mass_dim_profile)
from .finitefield import DoubleCountError, FiniteFieldSet
from .geometry import (FloorLine, PointSet, Tube, read_points,
                       slice_floor_line, slice_tube, validate_separation,
                       write_points)
from .survey import SurveyConfig, survey_floor_lines

__all__ = ["COMMANDS", "Report", "run", "emit_profile_csv", "main"]


class ConfigError(ValueError):
    """Bad flags or parameters; exit code 2."""


class CheckFailure(AssertionError):
    """A verification the user asked for did not hold; exit code 3."""


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass
class Stages:
    """Where a run's time went, reported as ``provenance.stages``.

    ``load_s`` is the time spent loading the input set (point file or
    implicit descriptor) and ``points_loaded`` the number of points read
    from a point file; both are None when there is no such input.
    ``run_s`` is the time from the start of the run to the writing of the
    report, so it covers the whole command up to that point.
    """

    start: float = field(default_factory=time.perf_counter)
    load_s: float | None = None
    points_loaded: int | None = None

    def load(self, path: str, command: str):
        """``load_set(path)``, timed; scanning commands refuse descriptors."""
        t0 = time.perf_counter()
        obj = load_set(path)
        self.load_s = time.perf_counter() - t0
        if isinstance(obj, PointSet):
            self.points_loaded = len(obj)
        elif command in ("validate", "slice", "survey", "levels"):
            raise ConfigError(f"{command} needs a materialized point file")
        return obj

    def as_dict(self) -> dict:
        return {"load_s": self.load_s, "points_loaded": self.points_loaded,
                "run_s": time.perf_counter() - self.start}


@dataclass
class Report:
    command: str
    params: dict
    seed: int
    results: dict
    artifacts: dict = field(default_factory=dict)
    stages: Stages = field(default_factory=Stages)

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": _jsonable(self.params),
            "seed": self.seed,
            "results": _jsonable(self.results),
            "artifacts": _jsonable(self.artifacts),
            "provenance": {
                "tool": "latslice",
                "version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "stages": self.stages.as_dict(),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _atomic_write(path: str, writer) -> None:
    """Write via a sibling temp file and rename, so failures leave nothing."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".latslice-")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def emit_profile_csv(profile: DimensionProfile, path) -> None:
    """Write a profile as `scale,count,ratio` rows, 12 significant digits."""
    if len(profile) == 0:
        raise ValueError("profile is empty; nothing to emit")
    lines = ["scale,count,ratio"]
    for s, c, r in zip(profile.scales.tolist(), profile.counts.tolist(),
                       profile.ratios.tolist()):
        lines.append(f"{s:.12g},{int(c)},{r:.12g}")
    _write_text(str(path), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Set loading (point files and implicit descriptors)
# ---------------------------------------------------------------------------

IMPLICIT_FORMAT = "latslice-implicit-set"

GENERATORS = {
    "unit_line": (gen.gen_unit_line, ("m", "count")),
    "parabolic_staircase": (gen.ParabolicStaircase, ("m_max",)),
    "zigzag": (gen.gen_zigzag, ("delta", "n_levels")),
    "cone_annuli": (gen.ConeAnnuli, ("theta", "k_min", "k_max")),
    "cone_staircase": (gen.ConeStaircase, ("theta", "k_max")),
    "cone_fixed_width": (gen.ConeFixedWidth, ("theta", "k0", "n_levels")),
    "cartesian": (gen.gen_cartesian, ("a_values", "b_values")),
    "random_dimension": (gen.gen_random_dimension, ("alpha", "l_max", "seed")),
}


def _call_generator(kind: str, params: dict, mode: str):
    """Build ``kind`` from ``params``: a kind whose table entry is an
    implicit-set class (it has ``materialize``) gives the implicit set in
    mode "implicit" and its points otherwise."""
    try:
        fn, names = GENERATORS[kind]
    except KeyError:
        raise ConfigError(f"unknown generator kind {kind!r}; "
                          f"choose from {sorted(GENERATORS)}") from None
    unknown = set(params) - set(names)
    if unknown:
        raise ConfigError(f"params not accepted by {kind}: {sorted(unknown)}")
    implicit = hasattr(fn, "materialize")
    if mode == "implicit" and not implicit:
        raise ConfigError(f"kind {kind} has no implicit form")
    kwargs = {k: params[k] for k in names if k in params}
    try:
        obj = fn(**kwargs)
        return obj.materialize() if implicit and mode == "materialize" else obj
    except TypeError as exc:
        raise ConfigError(f"bad params for {kind}: {exc}") from None


def load_set(path: str):
    """Load a point file or an implicit-set JSON descriptor."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(1)
    except OSError as exc:
        raise OSError(f"cannot read input set {path}: {exc}") from None
    if head != "{":
        return read_points(path)
    with open(path, "r", encoding="utf-8") as fh:
        desc = json.load(fh)
    if desc.get("format") != IMPLICIT_FORMAT:
        raise ConfigError(f"{path}: not a point file or implicit descriptor")
    if "kind" not in desc:
        raise ConfigError(f"{path}: implicit descriptor has no 'kind'")
    return _call_generator(desc["kind"], desc.get("params", {}), "implicit")


# ---------------------------------------------------------------------------
# Runners: (flag values, Stages) -> (results, artifacts, failure)
# ---------------------------------------------------------------------------

def _run_generate(a: dict, stages: Stages):
    try:
        a["params"] = json.loads(a["params"])   # the report shows the object
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(a["params"], dict):
        raise ConfigError("--params must be a JSON object")
    kind, mode = a["kind"], a["mode"]
    obj = _call_generator(kind, a["params"], mode)
    results: dict = {"kind": kind, "mode": mode}
    if kind == "zigzag":
        obj, trace = obj
        results.update(lambda1=trace.lambda1, lambda2=trace.lambda2,
                       truncated=trace.truncated,
                       levels=len(trace.lattice_corners) - 1,
                       top_corner=trace.lattice_corners[-1])
    if isinstance(obj, PointSet):
        results["points"] = len(obj)
        return results, [("points_file", a["out"],
                          lambda tmp: write_points(obj, tmp))], None
    results["size_estimate"] = obj.size_estimate()
    desc = json.dumps({"format": IMPLICIT_FORMAT, "kind": kind,
                       "params": a["params"]}, indent=2) + "\n"
    return results, [("descriptor", a["out"],
                      lambda tmp: _write_text(tmp, desc))], None


def _run_validate(a: dict, stages: Stages):
    ps = stages.load(a["in"], "validate")
    rep = validate_separation(ps)
    return {"points": len(ps), "min_distance": rep.min_distance,
            "closest_pair": rep.closest_pair, "separated": rep.valid}, [], None


def _parse_scales(spec: str) -> np.ndarray:
    if spec.startswith("dyadic:"):
        try:
            top = float(spec.split(":", 1)[1])
        except ValueError:
            top = math.nan
        if not math.isfinite(top):
            raise ConfigError(f"bad --scales value {spec!r}")
        return dyadic_scales(top)
    raise ConfigError(f"--scales must look like dyadic:<max>, got {spec!r}")


def _run_dim(a: dict, stages: Stages):
    obj = stages.load(a["in"], "dim")
    scales = _parse_scales(a["scales"]) if a["scales"] else None
    prof = mass_dim_profile(obj, scales=scales, kind=a["kind"],
                            method=a["method"])
    results = {"estimate": prof.estimate, "method": prof.method,
               "scales": len(prof), "top_scale": float(prof.scales[-1]),
               "top_count": int(prof.counts[-1])}
    return results, [("profile_csv", a["out"],
                      lambda tmp: emit_profile_csv(prof, tmp))], None


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects U,V")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{flag} expects numbers, got {text!r}") from None


def _run_slice(a: dict, stages: Stages):
    ps = stages.load(a["in"], "slice")
    if a["tube"] is not None and a["floor"] is not None:
        raise ConfigError("slice takes exactly one of --tube or --floor")
    if a["tube"] is not None:
        u, v = _parse_pair(a["tube"], "--tube")
        sub = slice_tube(ps, Tube.horizontal(v) if u == 0.0 else Tube(u, v))
        return ({"mode": "tube", "u": u, "v": v, "count": len(sub)},
                [("points_file", a["out"], lambda tmp: write_points(sub, tmp))],
                None)
    if a["floor"] is None:
        raise ConfigError("slice needs --tube U,V or --floor U,V")
    u, v = _parse_pair(a["floor"], "--floor")
    ys = slice_floor_line(ps, FloorLine(u, v), a["x_max"])
    return ({"mode": "floor", "u": u, "v": v, "x_max": a["x_max"],
             "count": int(ys.size), "heights": ys},
            [("heights_file", a["out"], lambda tmp: _write_text(
                tmp, "# distinct integer heights\n"
                + "".join(f"{int(y)}\n" for y in ys)))], None)


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ConfigError("--grid expects GUxGV, e.g. 512x512")
    try:
        gu, gv = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"--grid expects integers, got {text!r}") from None
    if gu < 1 or gv < 1:
        raise ConfigError("--grid sides must be >= 1")
    return gu, gv


def _cells_csv(counts: np.ndarray) -> str:
    lines = ["i,j,count"] if counts.ndim == 2 else ["i,count"]
    for idx, val in np.ndenumerate(counts):
        lines.append(",".join(str(x) for x in idx) + f",{int(val)}")
    return "\n".join(lines) + "\n"


def _run_survey(a: dict, stages: Stages):
    ps = stages.load(a["in"], "survey")
    kwargs = dict(n_side=a["N"], m_range=a["M"], k_threshold=a["k"])
    if a["mc"]:
        kwargs.update(mode="mc", mc_samples=a["mc"], seed=a["seed"])
    else:
        gu, gv = _parse_grid(a["grid"])
        kwargs.update(mode="grid", grid_u=gu, grid_v=gv)
    try:
        scfg = SurveyConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rep = survey_floor_lines(ps, scfg, store_counts=bool(a["cells"]))
    results = {"points_in_window": rep.point_count,
               "lattice_row_points": rep.lattice_row_points,
               "mean": rep.mean, "bound": rep.bound, "k": rep.k,
               "threshold": rep.threshold,
               "exception_fraction": rep.exception_fraction,
               "good_fraction": rep.good_fraction,
               "mean_exact_v": rep.mean_exact_v,
               "resolution_term": rep.resolution_term,
               "mc_std_error": rep.mc_std_error}
    return results, [("cells_csv", a["cells"],
                      lambda tmp: _write_text(tmp, _cells_csv(rep.counts)))], None


def _parse_ff_set(spec: str, p: int) -> FiniteFieldSet:
    if spec == "full":
        return FiniteFieldSet.full(p)
    if spec.startswith("random:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("--set random form is random:<density>:<seed>")
        try:
            density, seed = float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"bad --set value {spec!r}") from None
        return FiniteFieldSet.random(p, density, seed)
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            pairs = []
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    x, y = map(int, line.split())
                except ValueError:
                    raise ConfigError(f"{spec}:{line_no}: expected two "
                                      f"integers 'x y', got {line!r}") from None
                if not (0 <= x < p and 0 <= y < p):
                    raise ConfigError(f"{spec}:{line_no}: point ({x}, {y}) "
                                      f"outside [0, {p})^2")
                pairs.append((x, y))
    except OSError as exc:
        raise OSError(f"cannot read --set file {spec}: {exc}") from None
    return FiniteFieldSet.from_points(p, pairs)


def _run_ff(a: dict, stages: Stages):
    prime = a["p"]
    B = _parse_ff_set(a["set"], prime)
    results: dict = {"p": prime, "cardinality": B.cardinality}
    checks = [c for c in a["verify"].split(",") if c]
    # a Chebyshev check verifies the identity on the matrix it reads, so the
    # identity check builds a matrix of its own only when none runs
    identity_alone = not any(c.startswith("chebyshev") for c in checks)
    failures = []
    for check in checks:
        if check == "identity":
            if identity_alone:  # a mismatch raises DoubleCountError: exit 3
                finitefield.ff_double_count(B)
            total = B.cardinality * prime
            results["identity"] = {"total": total, "ok": True,
                                   "expected": total}
        elif check.startswith("chebyshev"):
            k = float(check.split(":", 1)[1]) if ":" in check \
                else math.log(prime)
            if B.cardinality == 0:
                raise ConfigError("chebyshev check needs a nonempty set")
            if not k > 0:           # nan fails too
                raise ConfigError("k must be positive")
            rep = finitefield.ff_chebyshev_fraction(B, k)
            ok = rep.good_fraction >= rep.markov_bound
            results["chebyshev"] = {"k": k, "good_fraction": rep.good_fraction,
                                    "bound": rep.markov_bound, "ok": ok}
            if not ok:
                failures.append("chebyshev")
        else:
            raise ConfigError(f"unknown --verify check {check!r}")
    results["ok"] = not failures
    failure = f"ff checks failed: {', '.join(failures)}" if failures else None
    return results, [], failure


def _run_levels(a: dict, stages: Stages):
    ps = stages.load(a["in"], "levels")
    try:
        lsc = LevelSearchConfig(alpha=a["alpha"], psi=a["psi"],
                                search_bound=a["bound"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    prof = find_levels(ps, a["u"], lsc)
    return {"u": a["u"], "alpha": lsc.alpha, "psi": lsc.psi,
            "search_bound": lsc.search_bound, "levels": prof.levels,
            "counts": prof.counts, "thresholds": prof.thresholds}, [], None


def _run_repro(a: dict, stages: Stages):
    name = a["name"]
    extra: dict = {}
    if name == "all":
        results = [fn() for fn in ALL_CRITERIA]
    elif name == "example2":
        results = [run_criterion(5), run_criterion(6)]
        pair = results[1].details
        extra = {"ratio": pair.get("ratio"),
                 "slice_estimate": pair.get("slice_estimate")}
    elif name == "ff":
        prime = a.get("p", 13)
        results = [run_ff_battery(prime)]
        extra = {"p": prime, "failures": results[0].details["failures"]}
    else:
        try:
            number = int(name.removeprefix("criterion"))
        except ValueError:
            raise ConfigError(
                f"unknown repro recipe {name!r}; use all, example2, ff, "
                "or criterion<1..10>") from None
        if not 1 <= number <= len(ALL_CRITERIA):
            raise ConfigError(f"criterion number out of range: {number}")
        results = [run_criterion(number)]
    print("\n".join(r.line() for r in results))
    failed = sum(not r.passed for r in results)
    failure = f"repro {name}: {failed} criteria failed" if failed else None
    return ({"recipe": name, "ok": not failed, **extra,
             "criteria": [dataclasses.asdict(r) for r in results]}, [], failure)


# ---------------------------------------------------------------------------
# The command table, run() and the argparse front end
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    help: str
    runner: Callable
    report_out: bool        # --out names the report JSON, not an artifact
    flags: tuple            # (names, add_argument keywords) per flag


def _flag(*names, **kwargs):
    return names, kwargs


IN = _flag("--in", dest="in", metavar="INFILE", required=True)
REPORT_OUT = _flag("--out", help="report JSON path")

COMMANDS = {
    "generate": Command("build an example point set", _run_generate, False, (
        _flag("--kind", required=True, choices=sorted(GENERATORS)),
        _flag("--params", default="{}",
              help="generator parameters as a JSON object"),
        _flag("--mode", default="materialize",
              choices=("materialize", "implicit")),
        _flag("--out", help="point file (or descriptor for implicit)"))),
    "validate": Command("check 1-separation of a point file",
                        _run_validate, False, (IN,)),
    "dim": Command("mass dimension profile", _run_dim, False, (
        IN,
        _flag("--scales", help="dyadic:<max>, e.g. dyadic:1048576"),
        _flag("--kind", default="first_quadrant",
              choices=("first_quadrant", "centered")),
        _flag("--method", default="ratio_max_tail",
              choices=("ratio_max_tail", "regression_tail")),
        _flag("--out", help="profile CSV path"))),
    "slice": Command("slice by one tube or floor line", _run_slice, False, (
        IN,
        _flag("--tube", help="U,V tube parameters (U=0 for horizontal)"),
        _flag("--floor", help="U,V floor-line parameters"),
        _flag("--x-max", type=float, default=math.inf,
              help="floor slices: ignore points with x beyond this"),
        _flag("--out", help="output point/heights file"))),
    "survey": Command("floor-line slice-count survey", _run_survey, True, (
        IN,
        _flag("--N", type=int, required=True,
              help="window side: survey restricted to [0,N]^2"),
        _flag("--M", type=float, help="parameter range (0,M]^2"),
        _flag("--grid", default="512x512", help="GUxGV cell grid"),
        _flag("--mc", type=int, help="Monte Carlo samples instead"),
        _flag("--seed", type=int, default=0),
        _flag("--k", type=float, help="exception threshold factor"),
        REPORT_OUT, _flag("--cells", help="per-cell CSV sidecar"))),
    "ff": Command("finite-field incidence checks", _run_ff, True, (
        _flag("--p", type=int, required=True, help="prime modulus"),
        _flag("--set", default="full",
              help="point file, random:<density>:<seed>, or full"),
        _flag("--verify", default="identity",
              help="comma list: identity, chebyshev[:k]"), REPORT_OUT)),
    "levels": Command("find dyadic annulus levels in a tube", _run_levels,
                      True, (
        IN,
        _flag("--u", type=float, required=True),
        _flag("--alpha", type=float, default=0.0),
        _flag("--psi", type=float, default=1.0),
        _flag("--bound", type=int, default=1024), REPORT_OUT)),
    "repro": Command("run reproducibility recipes", _run_repro, True, (
        _flag("name", nargs="?", default="all",
              help="all, example2, ff, or criterion<1..10>"),
        _flag("--p", type=int, default=argparse.SUPPRESS,
              help="prime for the ff recipe"), REPORT_OUT)),
}

_NOT_PARAMS = ("out", "seed", "cells")


def run(command: str, params: dict) -> Report:
    """Run one command on its flag values (``vars`` of the parsed flags).
    The only code that writes files: the runner's artifacts, then the
    ``--out`` report, then it raises ``CheckFailure`` if a check failed."""
    spec, a, stages = COMMANDS[command], dict(params), Stages()
    results, artifacts, failure = spec.runner(a, stages)
    report = Report(command, {k: v for k, v in a.items() if k not in _NOT_PARAMS},
                    a.get("seed", 0), results, stages=stages)
    for key, path, writer in artifacts:
        if path:
            _atomic_write(path, writer)
            report.artifacts[key] = path
    if spec.report_out and a.get("out"):
        text = report.to_json() + "\n"
        _atomic_write(a["out"], lambda tmp: _write_text(tmp, text))
        report.artifacts["report_json"] = a["out"]
    if failure:
        raise CheckFailure(failure)
    return report


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing does not change
    it, and building it costs far more than one ``parse_args``."""
    ap = argparse.ArgumentParser(
        prog="latslice",
        description="dimension and slicing workbench for 1-separated "
                    "planar point sets")
    ap.add_argument("--version", action="version",
                    version=f"latslice {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        cmd = sub.add_parser(name, help=spec.help)
        for names, kwargs in spec.flags:
            cmd.add_argument(*names, **kwargs)
    return ap


def main(argv=None) -> int:
    params = vars(_build_parser().parse_args(argv))
    command = params.pop("command")
    try:
        report = run(command, params)
    except ValueError as exc:       # ConfigError and library parameter checks
        print(f"latslice: config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"latslice: check failed: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, DoubleCountError) as exc:
        print(f"latslice: internal check failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"latslice: i/o error: {exc}", file=sys.stderr)
        return 4
    if command != "repro":
        print(report.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
