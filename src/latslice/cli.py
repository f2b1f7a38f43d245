"""Command-line workbench.

Each subcommand is one entry of ``COMMANDS``: its help text, its runner,
whether its ``--out`` names the report JSON (survey, ff, levels, repro) or
an artifact (generate, dim, slice), what its ``--in`` reads (nothing, a
point file, or a point file or implicit descriptor), and its other argparse
flags.  ``main`` parses the flags, passes their values to
``run(command, params)`` and prints the report text it returns.

``run()`` is the only code that reads the ``--in`` set and the only code
that writes files.  It loads the set (timed, and refused if the command
needs a point file and gets a descriptor) and passes it to the runner.  A
runner computes on its flag values and that set; it reads and writes no
files.  It returns its results block, the artifacts to write as
``(key, path, writer)`` triples, and the message of a failed check (or
None).  ``run()`` writes each artifact through ``_atomic_write``, then
serializes the report once and writes that text to ``--out``, and only
then raises ``CheckFailure`` for a failed check; the text ``main`` prints
is the same, byte for byte.  The report's ``params`` block holds the flag
values other than ``out`` and ``cells`` (``survey --seed`` included), so
identical flags give identical ``params`` and ``results`` blocks; only the
provenance (timestamp and stage timings) differs between runs.

Exit codes: 0 ok, 2 config error (any ``ValueError``: the runners raise
``exact.InputError`` for bad flags, and the library its own refusals), 3
assertion failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
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
from .exact import InputError, InternalCheckError
from .finitefield import BadPointError, FiniteFieldSet
from .geometry import (FloorLine, PointSet, Tube, data_lines, read_points,
                       slice_floor_line, slice_tube, validate_separation,
                       write_points)
from .survey import SurveyConfig, survey_floor_lines

__all__ = ["COMMANDS", "Report", "run", "emit_profile_csv", "main"]


class CheckFailure(AssertionError):
    """A verification the user asked for did not hold; exit code 3."""


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """A run's report.  Its ``provenance.stages`` say where the time went:
    ``load_s`` is the time spent loading the ``--in`` set (point file or
    implicit descriptor) and ``points_loaded`` the number of points read
    from a point file, both None when there is no such input;
    ``compute_s`` is the runner's time; ``write_s`` is the time spent
    writing artifacts, None when the command writes none, and leaves out
    the ``--out`` report, which is written after it is serialized;
    ``run_s`` is the time from ``start`` to the serializing of the
    report."""

    command: str
    params: dict
    results: dict
    artifacts: dict = field(default_factory=dict)
    start: float = field(default_factory=time.perf_counter)
    load_s: float | None = None
    points_loaded: int | None = None
    compute_s: float | None = None
    write_s: float | None = None

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": _jsonable(self.params),
            "results": _jsonable(self.results),
            "artifacts": _jsonable(self.artifacts),
            "provenance": {
                "tool": "latslice",
                "version": __version__,
                "timestamp": datetime.now(timezone.utc).isoformat(),
                "stages": {"load_s": self.load_s,
                           "points_loaded": self.points_loaded,
                           "compute_s": self.compute_s,
                           "write_s": self.write_s,
                           "run_s": time.perf_counter() - self.start},
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
    rows = "".join(f"{s:.12g},{int(c)},{r:.12g}\n" for s, c, r in zip(
        profile.scales.tolist(), profile.counts.tolist(), profile.ratios.tolist()))
    _write_text(str(path), "scale,count,ratio\n" + rows)


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
        raise InputError(f"unknown generator kind {kind!r}; "
                          f"choose from {sorted(GENERATORS)}") from None
    unknown = set(params) - set(names)
    if unknown:
        raise InputError(f"params not accepted by {kind}: {sorted(unknown)}")
    implicit = hasattr(fn, "materialize")
    if mode == "implicit" and not implicit:
        raise InputError(f"kind {kind} has no implicit form")
    kwargs = {k: params[k] for k in names if k in params}
    try:
        obj = fn(**kwargs)
        return obj.materialize() if implicit and mode == "materialize" else obj
    except TypeError as exc:
        raise InputError(f"bad params for {kind}: {exc}") from None


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
        raise InputError(f"{path}: not a point file or implicit descriptor")
    if "kind" not in desc:
        raise InputError(f"{path}: implicit descriptor has no 'kind'")
    return _call_generator(desc["kind"], desc.get("params", {}), "implicit")


# ---------------------------------------------------------------------------
# Runners: (flag values, loaded --in set) -> (results, artifacts, failure)
# ---------------------------------------------------------------------------

def _run_generate(a: dict, _):
    try:
        a["params"] = json.loads(a["params"])   # the report shows the object
    except json.JSONDecodeError as exc:
        raise InputError(f"--params is not valid JSON: {exc}") from None
    if not isinstance(a["params"], dict):
        raise InputError("--params must be a JSON object")
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


def _run_validate(a: dict, ps):
    rep = validate_separation(ps)
    return {"points": len(ps), "min_distance": rep.min_distance,
            "closest_pair": rep.closest_pair, "separated": rep.valid}, [], None


def _parse_scales(spec: str) -> np.ndarray:
    if spec.startswith("dyadic:"):
        try:
            top = float(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"bad --scales value {spec!r}") from None
        return dyadic_scales(top)
    raise InputError(f"--scales must look like dyadic:<max>, got {spec!r}")


def _run_dim(a: dict, obj):
    scales = _parse_scales(a["scales"]) if a["scales"] else None
    prof = mass_dim_profile(obj, scales=scales, kind=a["kind"])
    results = {"estimate": prof.estimate, "scales": len(prof),
               "top_scale": float(prof.scales[-1]),
               "top_count": int(prof.counts[-1])}
    return results, [("profile_csv", a["out"],
                      lambda tmp: emit_profile_csv(prof, tmp))], None


def _parse_two(text: str, flag: str, sep: str, cast, form: str, what: str):
    """The two ``sep``-separated numbers, read by ``cast``, of a flag's ``text``."""
    parts = text.lower().split(sep)
    if len(parts) != 2:
        raise InputError(f"{flag} expects {form}")
    try:
        return cast(parts[0]), cast(parts[1])
    except ValueError:
        raise InputError(f"{flag} expects {what}, got {text!r}") from None


def _run_slice(a: dict, ps):
    if a["tube"] is not None and a["floor"] is not None:
        raise InputError("slice takes exactly one of --tube or --floor")
    if a["tube"] is not None:
        if a["x_max"] != math.inf:      # nan included
            raise InputError("--x-max applies only to --floor slices")
        u, v = _parse_two(a["tube"], "--tube", ",", float, "U,V", "numbers")
        sub = slice_tube(ps, Tube.horizontal(v) if u == 0.0 else Tube(u, v))
        return ({"mode": "tube", "u": u, "v": v, "count": len(sub)},
                [("points_file", a["out"], lambda tmp: write_points(sub, tmp))],
                None)
    if a["floor"] is None:
        raise InputError("slice needs --tube U,V or --floor U,V")
    u, v = _parse_two(a["floor"], "--floor", ",", float, "U,V", "numbers")
    ys = slice_floor_line(ps, FloorLine(u, v), a["x_max"])
    return ({"mode": "floor", "u": u, "v": v, "x_max": a["x_max"],
             "count": int(ys.size), "heights": ys},
            [("heights_file", a["out"], lambda tmp: _write_text(
                tmp, "# distinct integer heights\n"
                + "".join(f"{int(y)}\n" for y in ys)))], None)


def _cells_csv(counts: np.ndarray) -> str:
    """The ``--cells`` sidecar: a header, then each cell's index and count
    in C order, built in one piece as ``write_points`` builds a point file."""
    header = "i,j,count\n" if counts.ndim == 2 else "i,count\n"
    rows = np.vstack([np.indices(counts.shape).reshape(counts.ndim, -1),
                      counts.ravel()])
    row = ",".join(["%d"] * len(rows)) + "\n"
    return header + (row * counts.size) % tuple(rows.T.ravel().tolist())


def _run_survey(a: dict, ps):
    kwargs = dict(n_side=a["N"], m_range=a["M"], k_threshold=a["k"])
    if a["mc"] is not None:
        if a["grid"] is not None:
            raise InputError("survey takes --grid or --mc, not both")
        kwargs.update(mode="mc", mc_samples=a["mc"], seed=a["seed"])
    else:       # the report shows the grid that ran
        if a["seed"] != 0:
            raise InputError("--seed applies only to --mc surveys")
        a["grid"] = _DEFAULT_GRID if a["grid"] is None else a["grid"]
        gu, gv = _parse_two(a["grid"], "--grid", "x", int,
                            f"GUxGV, e.g. {_DEFAULT_GRID}", "integers")
        kwargs.update(mode="grid", grid_u=gu, grid_v=gv)
    scfg = SurveyConfig(**kwargs)
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
            raise InputError("--set random form is random:<density>:<seed>")
        try:
            density, seed = float(parts[1]), int(parts[2])
        except ValueError:
            raise InputError(f"bad --set value {spec!r}") from None
        return FiniteFieldSet.random(p, density, seed)
    try:
        pts = read_points(spec).points
    except OSError as exc:
        raise OSError(f"cannot read --set file {spec}: {exc}") from None
    try:
        return FiniteFieldSet.from_points(p, pts)
    except BadPointError as exc:        # name the file line of the bad pair
        with open(spec, "r", encoding="utf-8") as fh:
            lines = itertools.islice(data_lines(fh.read()), exc.index, None)
        raise InputError(f"{spec}:{next(lines)[0]}: {exc}") from None


def _parse_verify(spec: str, prime: int) -> dict[str, float | None]:
    """The ``--verify`` checks in order, each with its k (None for the
    identity, ln p for a bare ``chebyshev``); an entry that names no check,
    a k that is not positive, or a check named before is a config error,
    refused before any line is counted."""
    checks: dict[str, float | None] = {}
    for entry in filter(None, spec.split(",")):
        name, colon, k_text = entry.partition(":")
        if entry == "identity":
            k = None
        elif name == "chebyshev":
            try:
                k = float(k_text) if colon else math.log(prime)
            except ValueError:
                raise InputError(f"bad --verify value {entry!r}") from None
            if not k > 0:                       # nan fails too
                raise InputError(
                    f"bad --verify value {entry!r}: k must be positive")
        else:
            raise InputError(f"unknown --verify check {entry!r}")
        if name in checks:
            raise InputError(f"--verify entry {entry!r} repeats the {name} check")
        checks[name] = k
    return checks


def _run_ff(a: dict, _):
    prime = a["p"]
    B = _parse_ff_set(a["set"], prime)
    checks = _parse_verify(a["verify"], prime)
    results: dict = {"p": prime, "cardinality": B.cardinality}
    # every check reads one certified pass over the set's lines; a failed
    # certificate raises DoubleCountError: exit 3
    summary = finitefield.ff_line_count_summary(B) if checks else None
    failures = []
    for name, k in checks.items():
        if name == "identity":
            total = finitefield.ff_double_count(summary)
            results["identity"] = {"total": total, "ok": True, "expected": total}
            continue
        rep = finitefield.ff_chebyshev_fraction(summary, k)
        ok = rep.good_fraction >= rep.markov_bound
        results["chebyshev"] = {"k": k, "good_fraction": rep.good_fraction,
                                "bound": rep.markov_bound, "ok": ok}
        if not ok:
            failures.append("chebyshev")
    results["ok"] = not failures
    failure = f"ff checks failed: {', '.join(failures)}" if failures else None
    return results, [], failure


def _run_levels(a: dict, ps):
    lsc = LevelSearchConfig(alpha=a["alpha"], psi=a["psi"], search_bound=a["bound"])
    prof = find_levels(ps, a["u"], lsc)
    return {"u": a["u"], "alpha": lsc.alpha, "psi": lsc.psi,
            "search_bound": lsc.search_bound, "levels": prof.levels,
            "counts": prof.counts, "thresholds": prof.thresholds}, [], None


def _run_repro(a: dict, _):
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
            raise InputError(
                f"unknown repro recipe {name!r}; use all, example2, ff, "
                "or criterion<1..10>") from None
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
    reads: str | None       # --in: None, "points" (a point file) or "set"
    flags: tuple            # (names, add_argument keywords) per flag


def _flag(*names, **kwargs):
    return names, kwargs


REPORT_OUT = _flag("--out", help="report JSON path")
_DEFAULT_GRID = f"{SurveyConfig.grid_u}x{SurveyConfig.grid_v}"

COMMANDS = {
    "generate": Command("build an example point set", _run_generate, False,
                        None, (
        _flag("--kind", required=True, choices=sorted(GENERATORS)),
        _flag("--params", default="{}",
              help="generator parameters as a JSON object"),
        _flag("--mode", default="materialize",
              choices=("materialize", "implicit")),
        _flag("--out", help="point file (or descriptor for implicit)"))),
    "validate": Command("check 1-separation of a point file",
                        _run_validate, False, "points", ()),
    "dim": Command("mass dimension profile", _run_dim, False, "set", (
        _flag("--scales", help="dyadic:<max>, e.g. dyadic:1048576"),
        _flag("--kind", default="first_quadrant",
              choices=("first_quadrant", "centered")),
        _flag("--out", help="profile CSV path"))),
    "slice": Command("slice by one tube or floor line", _run_slice, False,
                     "points", (
        _flag("--tube", help="U,V tube parameters (U=0 for horizontal)"),
        _flag("--floor", help="U,V floor-line parameters"),
        _flag("--x-max", type=float, default=math.inf,
              help="floor slices: ignore points with x beyond this"),
        _flag("--out", help="output point/heights file"))),
    "survey": Command("floor-line slice-count survey", _run_survey, True,
                      "points", (
        _flag("--N", type=int, required=True,
              help="window side: survey restricted to [0,N]^2"),
        _flag("--M", type=float, help="parameter range (0,M]^2"),
        _flag("--grid", help=f"GUxGV cell grid (default {_DEFAULT_GRID})"),
        _flag("--mc", type=int, help="Monte Carlo samples instead of --grid"),
        _flag("--seed", type=int, default=0, help="--mc sampler seed"),
        _flag("--k", type=float, help="exception threshold factor"),
        REPORT_OUT, _flag("--cells", help="per-cell CSV sidecar"))),
    "ff": Command("finite-field incidence checks", _run_ff, True, None, (
        _flag("--p", type=int, required=True, help="prime modulus"),
        _flag("--set", default="full",
              help="point file, random:<density>:<seed>, or full"),
        _flag("--verify", default="identity",
              help="comma list: identity, chebyshev[:k]"), REPORT_OUT)),
    "levels": Command("find dyadic annulus levels in a tube", _run_levels,
                      True, "points", (
        _flag("--u", type=float, required=True),
        _flag("--alpha", type=float, default=0.0),
        _flag("--psi", type=float, default=1.0),
        _flag("--bound", type=int, default=1024), REPORT_OUT)),
    "repro": Command("run reproducibility recipes", _run_repro, True, None, (
        _flag("name", nargs="?", default="all",
              help="all, example2, ff, or criterion<1..10>"),
        _flag("--p", type=int, default=argparse.SUPPRESS,
              help="prime for the ff recipe"), REPORT_OUT)),
}

_NOT_PARAMS = ("out", "cells")


def run(command: str, params: dict) -> str:
    """Run one command on its flag values (``vars`` of the parsed flags)
    and return its report as JSON text.  The only code that reads the
    ``--in`` set and writes files: it loads the set, runs the runner on it,
    writes the runner's artifacts, then the ``--out`` report (that text and
    a newline), then raises ``CheckFailure`` if a check failed."""
    spec, a, start = COMMANDS[command], dict(params), time.perf_counter()
    obj = load_s = points_loaded = None
    if spec.reads:
        obj = load_set(a["in"])
        load_s = time.perf_counter() - start
        if isinstance(obj, PointSet):
            points_loaded = len(obj)
        elif spec.reads == "points":
            raise InputError(f"{command} needs a materialized point file")
    compute_start = time.perf_counter()
    results, artifacts, failure = spec.runner(a, obj)
    write_start = time.perf_counter()
    report = Report(command, {k: v for k, v in a.items() if k not in _NOT_PARAMS},
                    results, start=start, load_s=load_s,
                    points_loaded=points_loaded,
                    compute_s=write_start - compute_start)
    for key, path, writer in artifacts:
        if path:
            _atomic_write(path, writer)
            report.artifacts[key] = path
    if report.artifacts:
        report.write_s = time.perf_counter() - write_start
    text = report.to_json()
    if spec.report_out and a.get("out"):
        _atomic_write(a["out"], lambda tmp: _write_text(tmp, text + "\n"))
    if failure:
        raise CheckFailure(failure)
    return text


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
        if spec.reads:
            cmd.add_argument("--in", dest="in", metavar="INFILE", required=True)
        for names, kwargs in spec.flags:
            cmd.add_argument(*names, **kwargs)
    return ap


def main(argv=None) -> int:
    params = vars(_build_parser().parse_args(argv))
    command = params.pop("command")
    try:
        text = run(command, params)
    except ValueError as exc:       # InputError and library parameter checks
        print(f"latslice: config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"latslice: check failed: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, InternalCheckError) as exc:
        print(f"latslice: internal check failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"latslice: i/o error: {exc}", file=sys.stderr)
        return 4
    if command != "repro":
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
