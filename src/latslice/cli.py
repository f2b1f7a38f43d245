"""Command-line workbench.

Each subcommand builds a RunConfig, dispatches through run(), and emits a
JSON report plus command-specific artifacts (point files, profile CSVs).
Identical configs reproduce identical results blocks; only the provenance
(timestamp and stage timings) differs between runs.

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

import numpy as np

from . import __version__
from . import generators as gen
from .acceptance import ALL_CRITERIA, CriterionResult, run_criterion
from .dimension import (DimensionProfile, LevelSearchConfig, dyadic_scales,
                        find_levels, mass_dim_profile)
from .finitefield import (DoubleCountError, FiniteFieldSet,
                          ff_chebyshev_fraction, ff_double_count)
from .geometry import (FloorLine, PointSet, Tube, read_points,
                       slice_floor_line, slice_tube, validate_separation,
                       write_points)
from .survey import SurveyConfig, survey_floor_lines, tube_dim_along

__all__ = ["RunConfig", "Report", "run", "emit_profile_csv", "main"]


class ConfigError(ValueError):
    """Bad flags or parameters; exit code 2."""


class CheckFailure(AssertionError):
    """A verification the user asked for did not hold; exit code 3."""


# ---------------------------------------------------------------------------
# Config and report plumbing
# ---------------------------------------------------------------------------

COMMANDS = ("generate", "validate", "dim", "slice", "survey", "ff",
            "levels", "repro")


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's results block."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    sidecars: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")


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

    def load(self, path: str):
        """``load_set(path)``, timed and counted."""
        t0 = time.perf_counter()
        obj = load_set(path)
        self.load_s = time.perf_counter() - t0
        if isinstance(obj, PointSet):
            self.points_loaded = len(obj)
        return obj

    def as_dict(self) -> dict:
        return {"load_s": self.load_s, "points_loaded": self.points_loaded,
                "run_s": time.perf_counter() - self.start}


@dataclass
class Report:
    config: RunConfig
    results: dict
    artifacts: dict = field(default_factory=dict)
    stages: Stages = field(default_factory=Stages)

    def to_json(self) -> str:
        payload = {
            "command": self.config.command,
            "params": _jsonable(self.config.params),
            "seed": self.config.seed,
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


def _atomic_write_text(path: str, text: str) -> None:
    def writer(tmp):
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
    _atomic_write(path, writer)


def emit_profile_csv(profile: DimensionProfile, path) -> None:
    """Write a profile as `scale,count,ratio` rows, 12 significant digits."""
    if len(profile) == 0:
        raise ValueError("profile is empty; nothing to emit")
    lines = ["scale,count,ratio"]
    ratios = dict(zip(profile.ratio_scales.tolist(), profile.ratios.tolist()))
    for s, c in zip(profile.scales.tolist(), profile.counts.tolist()):
        r = ratios.get(s, float("nan"))
        lines.append(f"{s:.12g},{int(c)},{r:.12g}")
    _atomic_write_text(str(path), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Set loading (point files and implicit descriptors)
# ---------------------------------------------------------------------------

IMPLICIT_FORMAT = "latslice-implicit-set"

GENERATORS = {
    "unit_line": (gen.gen_unit_line, ("m", "count"), False),
    "parabolic_staircase": (gen.gen_parabolic_staircase, ("m_max",), True),
    "zigzag": (gen.gen_zigzag, ("delta", "n_levels"), False),
    "cone_annuli": (gen.gen_cone_annuli, ("theta", "k_min", "k_max"), True),
    "cone_staircase": (gen.gen_cone_staircase, ("theta", "k_max"), True),
    "cone_fixed_width": (gen.gen_cone_fixed_width,
                         ("theta", "k0", "n_levels"), True),
    "cartesian": (gen.gen_cartesian, ("a_values", "b_values"), False),
    "random_dimension": (gen.gen_random_dimension,
                         ("alpha", "l_max", "seed"), False),
}


def _call_generator(kind: str, params: dict, mode: str):
    try:
        fn, names, has_mode = GENERATORS[kind]
    except KeyError:
        raise ConfigError(f"unknown generator kind {kind!r}; "
                          f"choose from {sorted(GENERATORS)}") from None
    unknown = set(params) - set(names)
    if unknown:
        raise ConfigError(f"params not accepted by {kind}: {sorted(unknown)}")
    kwargs = {k: params[k] for k in names if k in params}
    if has_mode:
        kwargs["mode"] = mode
    elif mode == "implicit":
        raise ConfigError(f"kind {kind} has no implicit form")
    try:
        return fn(**kwargs)
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
    return _call_generator(desc["kind"], desc.get("params", {}), "implicit")


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _run_generate(cfg: RunConfig, stages: Stages) -> Report:
    p = cfg.params
    kind, mode = p["kind"], p.get("mode", "materialize")
    if mode not in ("materialize", "implicit"):
        raise ConfigError(f"unknown mode {mode!r}")
    obj = _call_generator(kind, p.get("params", {}), mode)
    results: dict = {"kind": kind, "mode": mode}
    artifacts: dict = {}
    if kind == "zigzag":
        ps, trace = obj
        results.update(lambda1=trace.lambda1, lambda2=trace.lambda2,
                       truncated=trace.truncated,
                       levels=len(trace.lattice_corners) - 1,
                       top_corner=trace.lattice_corners[-1])
        obj = ps
    if mode == "materialize" or isinstance(obj, PointSet):
        results["points"] = len(obj)
        if cfg.out:
            _atomic_write(cfg.out, lambda tmp: write_points(obj, tmp))
            artifacts["points_file"] = cfg.out
    else:
        results["size_estimate"] = obj.size_estimate()
        if cfg.out:
            desc = {"format": IMPLICIT_FORMAT, "kind": kind,
                    "params": p.get("params", {})}
            _atomic_write_text(cfg.out, json.dumps(desc, indent=2) + "\n")
            artifacts["descriptor"] = cfg.out
    return Report(cfg, results, artifacts, stages)


def _run_validate(cfg: RunConfig, stages: Stages) -> Report:
    obj = stages.load(cfg.params["in"])
    if not isinstance(obj, PointSet):
        raise ConfigError("validate needs a materialized point file")
    rep = validate_separation(obj)
    return Report(cfg, {"points": len(obj),
                        "min_distance": rep.min_distance,
                        "closest_pair": rep.closest_pair,
                        "separated": rep.valid}, stages=stages)


def _parse_scales(spec: str) -> np.ndarray:
    if spec.startswith("dyadic:"):
        try:
            top = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad --scales value {spec!r}") from None
        return dyadic_scales(top)
    raise ConfigError(f"--scales must look like dyadic:<max>, got {spec!r}")


def _run_dim(cfg: RunConfig, stages: Stages) -> Report:
    p = cfg.params
    obj = stages.load(p["in"])
    scales = _parse_scales(p["scales"]) if p.get("scales") else None
    prof = mass_dim_profile(obj, scales=scales, kind=p.get("kind", "first_quadrant"),
                            method=p.get("method", "ratio_max_tail"))
    artifacts = {}
    if cfg.out:
        emit_profile_csv(prof, cfg.out)
        artifacts["profile_csv"] = cfg.out
    return Report(cfg, {"estimate": prof.estimate, "method": prof.method,
                        "scales": len(prof), "top_scale": float(prof.scales[-1]),
                        "top_count": int(prof.counts[-1])}, artifacts, stages)


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects U,V")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{flag} expects numbers, got {text!r}") from None


def _run_slice(cfg: RunConfig, stages: Stages) -> Report:
    p = cfg.params
    ps = stages.load(p["in"])
    if not isinstance(ps, PointSet):
        raise ConfigError("slice needs a materialized point file")
    if p.get("tube") is not None and p.get("floor") is not None:
        raise ConfigError("slice takes exactly one of --tube or --floor")
    artifacts = {}
    if p.get("tube") is not None:
        u, v = _parse_pair(p["tube"], "--tube")
        tube = Tube.horizontal(v) if u == 0.0 else Tube(u, v)
        sub = slice_tube(ps, tube)
        results = {"mode": "tube", "u": u, "v": v, "count": len(sub)}
        if cfg.out:
            _atomic_write(cfg.out, lambda tmp: write_points(sub, tmp))
            artifacts["points_file"] = cfg.out
    elif p.get("floor") is not None:
        u, v = _parse_pair(p["floor"], "--floor")
        x_max = p.get("x_max", math.inf)
        ys = slice_floor_line(ps, FloorLine(u, v), x_max)
        results = {"mode": "floor", "u": u, "v": v, "x_max": x_max,
                   "count": int(ys.size), "heights": ys}
        if cfg.out:
            body = "# distinct integer heights\n" \
                + "".join(f"{int(y)}\n" for y in ys)
            _atomic_write_text(cfg.out, body)
            artifacts["heights_file"] = cfg.out
    else:
        raise ConfigError("slice needs --tube U,V or --floor U,V")
    return Report(cfg, results, artifacts, stages)


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


def _run_survey(cfg: RunConfig, stages: Stages) -> Report:
    p = cfg.params
    ps = stages.load(p["in"])
    if not isinstance(ps, PointSet):
        raise ConfigError("survey needs a materialized point file")
    kwargs = dict(n_side=p["N"], m_range=p.get("M"),
                  k_threshold=p.get("k"))
    if p.get("mc"):
        kwargs.update(mode="mc", mc_samples=p["mc"], seed=cfg.seed)
    else:
        gu, gv = _parse_grid(p.get("grid", "512x512"))
        kwargs.update(mode="grid", grid_u=gu, grid_v=gv)
    try:
        scfg = SurveyConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rep = survey_floor_lines(ps, scfg, store_counts="cells" in cfg.sidecars)
    results = {
        "points_in_window": rep.point_count,
        "lattice_row_points": rep.lattice_row_points,
        "mean": rep.mean, "bound": rep.bound, "k": rep.k,
        "threshold": rep.threshold,
        "exception_fraction": rep.exception_fraction,
        "good_fraction": rep.good_fraction,
        "mean_exact_v": rep.mean_exact_v,
        "resolution_term": rep.resolution_term,
        "mc_std_error": rep.mc_std_error,
    }
    artifacts = {}
    cells_path = cfg.sidecars.get("cells")
    if cells_path:
        counts = rep.counts
        lines = ["i,j,count"] if counts.ndim == 2 else ["i,count"]
        it = np.ndenumerate(counts)
        for idx, val in it:
            lines.append(",".join(str(x) for x in idx) + f",{int(val)}")
        _atomic_write_text(cells_path, "\n".join(lines) + "\n")
        artifacts["cells_csv"] = cells_path
    report = Report(cfg, results, artifacts, stages)
    if cfg.out:
        _atomic_write_text(cfg.out, report.to_json() + "\n")
        artifacts["report_json"] = cfg.out
    return report


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


def _run_ff(cfg: RunConfig, stages: Stages) -> Report:
    p = cfg.params
    prime = p["p"]
    B = _parse_ff_set(p.get("set", "full"), prime)
    results: dict = {"p": prime, "cardinality": B.cardinality}
    checks = [c for c in p.get("verify", "identity").split(",") if c]
    failures = []
    for check in checks:
        if check == "identity":
            total = ff_double_count(B)
            ok = total == B.cardinality * prime
            results["identity"] = {"total": total,
                                   "expected": B.cardinality * prime,
                                   "ok": ok}
            if not ok:
                failures.append("identity")
        elif check.startswith("chebyshev"):
            k = float(check.split(":", 1)[1]) if ":" in check \
                else math.log(prime)
            if B.cardinality == 0:
                raise ConfigError("chebyshev check needs a nonempty set")
            rep = ff_chebyshev_fraction(B, k)
            ok = rep.good_fraction >= rep.markov_bound
            results["chebyshev"] = {"k": k,
                                    "good_fraction": rep.good_fraction,
                                    "bound": rep.markov_bound, "ok": ok}
            if not ok:
                failures.append("chebyshev")
        else:
            raise ConfigError(f"unknown --verify check {check!r}")
    results["ok"] = not failures
    report = Report(cfg, results, stages=stages)
    if cfg.out:
        _atomic_write_text(cfg.out, report.to_json() + "\n")
        report.artifacts["report_json"] = cfg.out
    if failures:
        raise CheckFailure(f"ff checks failed: {', '.join(failures)}")
    return report


def _run_levels(cfg: RunConfig, stages: Stages) -> Report:
    p = cfg.params
    ps = stages.load(p["in"])
    if not isinstance(ps, PointSet):
        raise ConfigError("levels needs a materialized point file")
    try:
        lsc = LevelSearchConfig(alpha=p.get("alpha", 0.0),
                                psi=p.get("psi", 1.0),
                                search_bound=p.get("bound", 1024))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    prof = find_levels(ps, p["u"], lsc)
    results = {"u": p["u"], "alpha": lsc.alpha, "psi": lsc.psi,
               "search_bound": lsc.search_bound,
               "levels": prof.levels, "counts": prof.counts,
               "thresholds": prof.thresholds}
    report = Report(cfg, results, stages=stages)
    if cfg.out:
        _atomic_write_text(cfg.out, report.to_json() + "\n")
        report.artifacts["report_json"] = cfg.out
    return report


# ---------------------------------------------------------------------------
# repro: the acceptance battery as commands
# ---------------------------------------------------------------------------

def _repro_example2(cfg: RunConfig) -> tuple[list[CriterionResult], dict]:
    from .acceptance import (criterion_05_staircase_counts,
                             criterion_06_staircase_dimensions)
    res = [criterion_05_staircase_counts(), criterion_06_staircase_dimensions()]
    pair = res[1].details
    return res, {"ratio": pair.get("ratio"),
                 "slice_estimate": pair.get("slice_estimate")}


def _repro_ff(cfg: RunConfig) -> tuple[list[CriterionResult], dict]:
    prime = cfg.params.get("p", 13)
    failures = 0
    for i in range(100):
        B = FiniteFieldSet.random(prime, density=(i + 1) / 100.0,
                                  seed=100_000 * prime + i)
        if ff_double_count(B) != B.cardinality * prime:
            failures += 1
        if B.cardinality:
            k = math.log(prime)
            rep = ff_chebyshev_fraction(B, k)
            if rep.good_fraction < 1.0 - 1.0 / k:
                failures += 1
    passed = failures == 0
    res = [CriterionResult(0, f"ff battery p={prime}", passed,
                           {"sets": 100, "failures": failures})]
    return res, {"p": prime, "failures": failures}


def _run_repro(cfg: RunConfig, stages: Stages) -> Report:
    name = cfg.params.get("name", "all")
    extra: dict = {}
    if name == "all":
        results = [fn() for fn in ALL_CRITERIA]
    elif name == "example2":
        results, extra = _repro_example2(cfg)
    elif name == "ff":
        results, extra = _repro_ff(cfg)
    else:
        ident = name[len("criterion"):] if name.startswith("criterion") else name
        try:
            number = int(ident)
        except ValueError:
            raise ConfigError(
                f"unknown repro recipe {name!r}; use all, example2, ff, "
                "or criterion<1..10>") from None
        if not 1 <= number <= len(ALL_CRITERIA):
            raise ConfigError(f"criterion number out of range: {number}")
        results = [run_criterion(number)]
    for r in results:
        print(r.line())
    ok = all(r.passed for r in results)
    report = Report(cfg, {"recipe": name, "ok": ok, **extra,
                          "criteria": [dataclasses.asdict(r) for r in results]},
                    stages=stages)
    if cfg.out:
        _atomic_write_text(cfg.out, report.to_json() + "\n")
        report.artifacts["report_json"] = cfg.out
    if not ok:
        raise CheckFailure(f"repro {name}: "
                           f"{sum(not r.passed for r in results)} criteria failed")
    return report


RUNNERS = {
    "generate": _run_generate,
    "validate": _run_validate,
    "dim": _run_dim,
    "slice": _run_slice,
    "survey": _run_survey,
    "ff": _run_ff,
    "levels": _run_levels,
    "repro": _run_repro,
}


def run(config: RunConfig) -> Report:
    """Dispatch a validated RunConfig to its command implementation."""
    return RUNNERS[config.command](config, Stages())


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

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

    g = sub.add_parser("generate", help="build an example point set")
    g.add_argument("--kind", required=True, choices=sorted(GENERATORS))
    g.add_argument("--params", default="{}",
                   help="generator parameters as a JSON object")
    g.add_argument("--mode", default="materialize",
                   choices=("materialize", "implicit"))
    g.add_argument("--out", help="point file (or descriptor for implicit)")

    v = sub.add_parser("validate", help="check 1-separation of a point file")
    v.add_argument("--in", dest="infile", required=True)

    d = sub.add_parser("dim", help="mass dimension profile")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--scales", help="dyadic:<max>, e.g. dyadic:1048576")
    d.add_argument("--kind", default="first_quadrant",
                   choices=("first_quadrant", "centered"))
    d.add_argument("--method", default="ratio_max_tail",
                   choices=("ratio_max_tail", "regression_tail"))
    d.add_argument("--out", help="profile CSV path")

    s = sub.add_parser("slice", help="slice by one tube or floor line")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--tube", help="U,V tube parameters (U=0 for horizontal)")
    s.add_argument("--floor", help="U,V floor-line parameters")
    s.add_argument("--x-max", type=float, default=math.inf,
                   help="floor slices: ignore points with x beyond this")
    s.add_argument("--out", help="output point/heights file")

    sv = sub.add_parser("survey", help="floor-line slice-count survey")
    sv.add_argument("--in", dest="infile", required=True)
    sv.add_argument("--N", type=int, required=True,
                    help="window side: survey restricted to [0,N]^2")
    sv.add_argument("--M", type=float, help="parameter range (0,M]^2")
    sv.add_argument("--grid", default="512x512", help="GUxGV cell grid")
    sv.add_argument("--mc", type=int, help="Monte Carlo samples instead")
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--k", type=float, help="exception threshold factor")
    sv.add_argument("--out", help="report JSON path")
    sv.add_argument("--cells", help="per-cell CSV sidecar")

    f = sub.add_parser("ff", help="finite-field incidence checks")
    f.add_argument("--p", type=int, required=True, help="prime modulus")
    f.add_argument("--set", default="full",
                   help="point file, random:<density>:<seed>, or full")
    f.add_argument("--verify", default="identity",
                   help="comma list: identity, chebyshev[:k]")
    f.add_argument("--out", help="report JSON path")

    lv = sub.add_parser("levels", help="find dyadic annulus levels in a tube")
    lv.add_argument("--in", dest="infile", required=True)
    lv.add_argument("--u", type=float, required=True)
    lv.add_argument("--alpha", type=float, default=0.0)
    lv.add_argument("--psi", type=float, default=1.0)
    lv.add_argument("--bound", type=int, default=1024)
    lv.add_argument("--out", help="report JSON path")

    r = sub.add_parser("repro", help="run reproducibility recipes")
    r.add_argument("name", nargs="?", default="all",
                   help="all, example2, ff, or criterion<1..10>")
    r.add_argument("--p", type=int, help="prime for the ff recipe")
    r.add_argument("--out", help="report JSON path")
    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    c = args.command
    if c == "generate":
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--params is not valid JSON: {exc}") from None
        if not isinstance(params, dict):
            raise ConfigError("--params must be a JSON object")
        return RunConfig(c, {"kind": args.kind, "mode": args.mode,
                             "params": params}, out=args.out)
    if c == "validate":
        return RunConfig(c, {"in": args.infile})
    if c == "dim":
        return RunConfig(c, {"in": args.infile, "scales": args.scales,
                             "kind": args.kind, "method": args.method},
                         out=args.out)
    if c == "slice":
        return RunConfig(c, {"in": args.infile, "tube": args.tube,
                             "floor": args.floor, "x_max": args.x_max},
                         out=args.out)
    if c == "survey":
        sidecars = {"cells": args.cells} if args.cells else {}
        return RunConfig(c, {"in": args.infile, "N": args.N, "M": args.M,
                             "grid": args.grid, "mc": args.mc, "k": args.k},
                         seed=args.seed, out=args.out, sidecars=sidecars)
    if c == "ff":
        return RunConfig(c, {"p": args.p, "set": args.set,
                             "verify": args.verify}, out=args.out)
    if c == "levels":
        return RunConfig(c, {"in": args.infile, "u": args.u,
                             "alpha": args.alpha, "psi": args.psi,
                             "bound": args.bound}, out=args.out)
    if c == "repro":
        params = {"name": args.name}
        if args.p is not None:
            params["p"] = args.p
        return RunConfig(c, params, out=args.out)
    raise ConfigError(f"unknown command {c!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run(config)
    except ConfigError as exc:
        print(f"latslice: config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
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
    if config.command != "repro":
        print(report.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
