"""Scenario runner: execute pipeline stages and write deterministic artifacts.

Layering: built-in scenario defaults, then the config file, then command-line
flags.  Every float in CSV artifacts is printed with 17 significant digits;
JSON artifacts use Python's shortest lossless float repr.  Identical config
plus seed produces byte-identical artifacts, so wall-clock timings go to a
separate timings.json that is excluded from that guarantee.

Exit codes: 0 all stages passed, 1 a stage assertion failed, 2 usage or
config error, 3 runtime error inside a stage.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from .errors import InputError, ScextError
from .funcspace import named_function
from .geometry import BallRegion, box, capped_disk, closure_grid, disk, half_space
from .scenarios import (
    SCENARIO_NAMES,
    STAGE_ORDER,
    STAGES,
    Scenario,
    build_scenario,
    make_context,
)

try:
    VERSION = version("scext")
except PackageNotFoundError:  # running from a source tree
    VERSION = "0.0.0"

_SCHEMA = 1
_FORMATS = ("csv", "json")

# knobs that have dedicated command-line flags
_FLAG_KNOBS = ("alpha", "spacing", "triples", "seed")


class ConfigError(InputError):
    """Bad scenario config or flags; maps to exit code 2."""


@dataclass(eq=False)
class ScenarioConfig:
    """Fully merged run request."""

    scenario: str
    schema: int = _SCHEMA
    stages: tuple[str, ...] | None = None  # None: scenario default stages
    knobs: dict = dc_field(default_factory=dict)
    delta: float | None = None  # ball radius override
    out: str | None = None
    fmt: str = "csv"
    custom: dict | None = None  # domain/function/ball specs for scenario "custom"

    def echo(self) -> dict:
        """The request as report.json records it.  The artifact directory is
        left out, so a run writes the same bytes wherever it is written."""
        return {
            "scenario": self.scenario,
            "schema": self.schema,
            "stages": list(self.stages) if self.stages else None,
            "knobs": {k: _jsonable(v) for k, v in self.knobs.items()},
            "delta": self.delta,
            "format": self.fmt,
            "custom": self.custom,
        }


@dataclass(eq=False)
class RunReport:
    scenario: str
    config: dict
    stages: list = dc_field(default_factory=list)
    version: str = VERSION

    @property
    def all_passed(self) -> bool:
        return all(s["status"] == "pass" for s in self.stages)

    @property
    def any_error(self) -> bool:
        return any(s["status"] == "error" for s in self.stages)

    def to_dict(self, include_timings: bool = False) -> dict:
        stages = []
        for s in self.stages:
            entry = {k: v for k, v in s.items() if k != "wall_time"}
            if include_timings:
                entry["wall_time"] = s["wall_time"]
            stages.append(entry)
        return {
            "scenario": self.scenario,
            "version": self.version,
            "config": self.config,
            "stages": stages,
            "all_passed": self.all_passed,
        }


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


# -- grid emission -------------------------------------------------------------


def emit_grid(field, region: BallRegion, spacing: float, fmt: str, path) -> Path:
    """One row per lattice node of the region: coordinates then value,
    rows in lexicographic node order."""
    if fmt not in _FORMATS:
        raise ConfigError(f"unknown grid format {fmt!r}; expected one of {_FORMATS}")
    nodes = closure_grid(disk(region.center, region.radius), region, spacing)
    order = np.lexsort(tuple(nodes[:, j] for j in range(nodes.shape[1] - 1, -1, -1)))
    nodes = nodes[order]
    values = np.asarray(field.evaluate_many(nodes), dtype=float)
    names = [f"x{j + 1}" for j in range(nodes.shape[1])]
    path = Path(path)
    rows = np.column_stack([nodes, values])
    if fmt == "csv":
        header = ",".join(names + ["value"])
        body = "\n".join(",".join("%.17g" % v for v in row) for row in rows)
        path.write_text(header + "\n" + body + "\n")
    else:
        _write_json(
            path,
            {"columns": names + ["value"], "spacing": spacing, "rows": rows.tolist()},
        )
    return path


# -- config assembly -----------------------------------------------------------

_CONFIG_KEYS = {
    "schema", "scenario", "stages", "knobs", "delta", "out", "format",
    "domain", "function", "ball",
}


def load_config_file(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} line {err.lineno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    if raw.get("schema", _SCHEMA) != _SCHEMA:
        raise ConfigError(
            f"config {path}: schema {raw.get('schema')!r} not supported (expected {_SCHEMA})"
        )
    return raw


def merge_config(args: argparse.Namespace) -> ScenarioConfig:
    raw = load_config_file(args.config) if args.config else {}
    scenario = args.scenario or raw.get("scenario")
    if not scenario:
        raise ConfigError("no scenario given (use --scenario or a config file)")
    if scenario != "custom" and scenario not in SCENARIO_NAMES:
        raise ConfigError(
            f"unknown scenario {scenario!r}; known: {list(SCENARIO_NAMES) + ['custom']}"
        )
    knobs = raw.get("knobs", {})
    if not isinstance(knobs, dict):
        raise ConfigError("config knobs must be an object")
    knobs = dict(knobs)
    for name in _FLAG_KNOBS:
        value = getattr(args, name)
        if value is not None:
            knobs[name] = value
    if args.h_list is not None:
        knobs["h_list"] = args.h_list
    stages = args.stages if args.stages is not None else raw.get("stages")
    if stages is not None:
        stages = tuple(stages)
        if stages == ("all",):
            stages = None
        else:
            unknown = [s for s in stages if s not in STAGES]
            if unknown:
                raise ConfigError(
                    f"unknown stages {unknown}; known: {list(STAGE_ORDER)}"
                )
    fmt = args.format or raw.get("format", "csv")
    if fmt not in _FORMATS:
        raise ConfigError(f"unknown format {fmt!r}; expected one of {_FORMATS}")
    custom = None
    if scenario == "custom":
        if "function" not in raw or "domain" not in raw or "ball" not in raw:
            raise ConfigError(
                "custom scenario requires domain, function and ball in the config"
            )
        custom = {k: raw[k] for k in ("domain", "function", "ball")}
    delta = args.delta if args.delta is not None else raw.get("delta")
    return ScenarioConfig(
        scenario=scenario,
        stages=stages,
        knobs=knobs,
        delta=delta,
        out=args.out or raw.get("out"),
        fmt=fmt,
        custom=custom,
    )


def _parse_domain(d: dict):
    try:
        kind = d["kind"]
        if kind == "disk":
            return disk(d["center"], d["radius"])
        if kind == "box":
            return box(d["center"], d["half_widths"])
        if kind == "half-space":
            return half_space(d["normal"], d["offset"])
        if kind == "capped-disk":
            return capped_disk(d["center"], d["radius"], d["normal"], d["offset"])
    except (KeyError, TypeError) as err:
        raise ConfigError(f"bad domain spec {d!r}: {err}") from err
    raise ConfigError(f"unknown domain kind {d.get('kind')!r}")


def resolve_scenario(config: ScenarioConfig) -> Scenario:
    if config.scenario != "custom":
        scenario = build_scenario(config.scenario)
    else:
        domain = _parse_domain(config.custom["domain"])
        fn = config.custom["function"]
        try:
            func = named_function(
                fn["identifier"], domain.dimension, domain, fn.get("params")
            )
            ball_spec = config.custom["ball"]
            ball = BallRegion(ball_spec["center"], ball_spec["radius"])
        except (KeyError, TypeError) as err:
            raise ConfigError(f"bad custom scenario: {err}") from err
        scenario = Scenario(
            name="custom",
            domain=domain,
            func=func,
            ball=ball,
            default_stages=("certify", "support", "extend"),
        )
    if config.delta is not None:
        if not config.delta > 0:
            raise ConfigError("delta must be positive")
        scenario.ball = BallRegion(scenario.ball.center, config.delta)
    return scenario


# -- artifact writers ----------------------------------------------------------


def _stage_artifacts(stage: str, ctx, outdir: Path, fmt: str, knobs: dict) -> list[str]:
    written: list[Path] = []

    def emit(name: str, payload) -> None:
        path = outdir / name
        _write_json(path, payload)
        written.append(path)

    obj = ctx.objects
    if stage == "certify" and "certificate" in obj:
        emit("certify.json", obj["certificate"].to_dict())
    elif stage == "support" and "support" in obj:
        emit("support.json", obj["support"].to_dict())
    elif stage == "extend" and "field" in obj:
        emit("field.json", obj["field"].to_dict())
        grid = outdir / f"field_grid.{fmt}"
        emit_grid(obj["field"], ctx.scenario.ball, knobs["sweep_spacing"], fmt, grid)
        written.append(grid)
    elif stage == "gradients":
        emit(
            "gradients.json",
            {
                "function": obj["rset_u"].to_dict(),
                "envelope": obj["rset_env"].to_dict(),
            },
        )
    elif stage == "condition" and "condition" in obj:
        cond = obj["condition"]
        emit(
            "condition.json",
            {
                "holds": cond["holds"],
                "p0": None if cond["p0"] is None else cond["p0"].tolist(),
                "thetas": None if cond["thetas"] is None else np.asarray(cond["thetas"]).tolist(),
            },
        )
    elif stage == "trace" and "arcs" in obj:
        emit("arcs.json", [arc.to_dict() for arc in obj["arcs"]])
    elif stage == "glue" and "glued" in obj:
        emit(
            "glue.json",
            {
                "n_cover": len(obj["glued"].cover),
                "cover": [
                    {"center": b.center.tolist(), "radius": b.radius}
                    for b in obj["glued"].cover
                ],
            },
        )
    return [str(p.name) for p in written]


# -- runner ---------------------------------------------------------------------


def run_scenario(config: ScenarioConfig) -> RunReport:
    scenario = resolve_scenario(config)
    ctx = make_context(scenario, config.knobs)
    stage_names = config.stages or scenario.default_stages
    stage_names = tuple(sorted(stage_names, key=STAGE_ORDER.index))
    outdir: Path | None = None
    if config.out:
        outdir = Path(config.out)
        outdir.mkdir(parents=True, exist_ok=True)
    report = RunReport(scenario=scenario.name, config=config.echo())
    for name in stage_names:
        t0 = time.perf_counter()
        entry = {"name": name, "artifacts": []}
        try:
            metrics = STAGES[name](ctx)
            entry["status"] = "pass" if metrics.get("passed", True) else "fail"
            entry["metrics"] = metrics
        except ScextError as err:
            entry["status"] = "error"
            entry["error"] = f"{type(err).__name__}: {err}"
        entry["wall_time"] = time.perf_counter() - t0
        if outdir is not None and entry["status"] != "error":
            entry["artifacts"] = _stage_artifacts(name, ctx, outdir, config.fmt, ctx.knobs)
        report.stages.append(entry)
        if entry["status"] == "error":
            break
    if outdir is not None:
        _write_json(outdir / "report.json", report.to_dict(include_timings=False))
        _write_json(
            outdir / "timings.json",
            {s["name"]: s["wall_time"] for s in report.stages},
        )
    return report


# -- entry point -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scext",
        description="Run extension-envelope scenarios and emit artifacts.",
    )
    parser.add_argument("--scenario", help="built-in scenario name, or 'custom' with --config")
    parser.add_argument("--config", help="path to a scenario JSON (schema 1)")
    parser.add_argument("--out", help="artifact directory")
    parser.add_argument(
        "--stages",
        type=lambda s: tuple(t.strip() for t in s.split(",") if t.strip()),
        help="comma-separated stage list (default: scenario's own)",
    )
    parser.add_argument("--alpha", type=float, help="modulus exponent in (0, 1]")
    parser.add_argument("--spacing", type=float, help="support lattice spacing")
    parser.add_argument("--delta", type=float, help="ball radius around the base point")
    parser.add_argument(
        "--h-list",
        dest="h_list",
        type=lambda s: tuple(int(t) for t in s.split(",") if t.strip()),
        help="mollifier scales, e.g. 10,20,40",
    )
    parser.add_argument("--triples", type=int, help="sampled triples for certificates")
    parser.add_argument("--seed", type=int, help="base seed for all sampling")
    parser.add_argument("--format", choices=_FORMATS, help="grid artifact format")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = merge_config(args)
        report = run_scenario(config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ScextError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    for s in report.stages:
        line = f"[{s['status']}] {s['name']}"
        if s["status"] == "error":
            line += f": {s['error']}"
        print(line)
    if report.any_error:
        return 3
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
