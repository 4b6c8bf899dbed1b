"""Scenario runner: execute pipeline stages and write deterministic artifacts.

Layering: built-in scenario defaults, then the config file, then command-line
flags.  Every float in CSV artifacts is printed with 17 significant digits;
JSON artifacts use Python's shortest lossless float repr.  Identical config
plus seed produces byte-identical artifacts, so wall-clock timings go to a
separate timings.json that is excluded from that guarantee: per stage its
wall time, its write time and, where the ``resource`` module exists, the
process's peak resident memory after its writes (``<stage>.peak_rss_mb``).

Exit codes: 0 all stages passed, 1 a stage assertion failed, 2 usage or
config error, 3 runtime error inside a stage.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform: timings.json then omits the peaks
    resource = None

from .errors import ConfigError, ScextError
from .geometry import BallRegion
from .scenarios import (
    GRID_FORMATS,
    SCENARIO_NAMES,
    STAGE_ORDER,
    STAGES,
    Scenario,
    StageContext,
    build_scenario,
    _real,
    emit_grid,  # unused here; perfbench/layers.py wraps cli.emit_grid by name
    resolve_knobs,
    scenario_from_spec,
    write_json,
)

try:
    VERSION = version("scext")
except PackageNotFoundError:  # running from a source tree
    VERSION = "0.0.0"

_SCHEMA = 1

# knobs that have dedicated command-line flags
_FLAG_KNOBS = ("alpha", "spacing", "triples", "seed", "h_list")


@dataclass(eq=False)
class ScenarioConfig:
    """Fully merged run request."""

    scenario: str
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
            "schema": _SCHEMA,
            "stages": list(self.stages) if self.stages else None,
            "knobs": dict(self.knobs),
            "delta": self.delta,
            "format": self.fmt,
            "custom": self.custom,
        }


# stage entries that go to timings.json only, outside the byte-identity guarantee
_TIMED = ("wall_time", "write_time", "peak_rss_mb")


def _peak_rss_mb() -> float | None:
    """The process's peak resident set so far, in MB (ru_maxrss is in KB on
    Linux, in bytes on macOS)."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


@dataclass(eq=False)
class RunReport:
    scenario: str
    config: dict
    stages: list = dc_field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(s["status"] == "pass" for s in self.stages)

    @property
    def any_error(self) -> bool:
        return any(s["status"] == "error" for s in self.stages)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "version": VERSION,
            "config": self.config,
            "stages": [
                {k: v for k, v in s.items() if k not in _TIMED}
                for s in self.stages
            ],
            "all_passed": self.all_passed,
        }


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
    stages = args.stages if args.stages is not None else raw.get("stages")
    if stages is not None:
        if not isinstance(stages, (list, tuple)) or not stages:
            raise ConfigError(f"stages must be a nonempty list of stage names, got {stages!r}")
        stages = tuple(stages)
        if stages == ("all",):
            stages = None
        else:
            unknown = [s for s in stages if not isinstance(s, str) or s not in STAGES]
            if unknown:
                raise ConfigError(
                    f"unknown stages {unknown}; known: {list(STAGE_ORDER)}"
                )
    fmt = args.format or raw.get("format", "csv")
    if fmt not in GRID_FORMATS:
        raise ConfigError(f"unknown format {fmt!r}; expected one of {GRID_FORMATS}")
    custom = None
    if scenario == "custom":
        if "function" not in raw or "domain" not in raw or "ball" not in raw:
            raise ConfigError(
                "custom scenario requires domain, function and ball in the config"
            )
        custom = {k: raw[k] for k in ("domain", "function", "ball")}
    delta = args.delta if args.delta is not None else raw.get("delta")
    if delta is not None and not _real(delta):
        raise ConfigError(f"delta must be a number, got {delta!r}")
    out = args.out or raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a directory path string, got {out!r}")
    return ScenarioConfig(
        scenario=scenario,
        stages=stages,
        knobs=knobs,
        delta=delta,
        out=out,
        fmt=fmt,
        custom=custom,
    )


def resolve_scenario(config: ScenarioConfig) -> Scenario:
    if config.scenario == "custom":
        scenario = scenario_from_spec("custom", config.custom)
    else:
        scenario = build_scenario(config.scenario)
    if config.delta is not None:
        if not 0 < config.delta < math.inf:
            raise ConfigError("delta must be positive and finite")
        scenario.ball = BallRegion(scenario.ball.center, config.delta)
    return scenario


# -- runner ---------------------------------------------------------------------


def _write_artifacts(outdir: Path, artifacts: dict) -> list[str]:
    for file_name, payload in artifacts.items():
        if callable(payload):
            payload(outdir / file_name)
        else:
            write_json(outdir / file_name, payload)
    return list(artifacts)


def run_scenario(config: ScenarioConfig) -> RunReport:
    scenario = resolve_scenario(config)
    ctx = StageContext(scenario, resolve_knobs(scenario, config.knobs), config.fmt)
    stage_names = config.stages or scenario.default_stages
    stage_names = tuple(sorted(stage_names, key=STAGE_ORDER.index))
    outdir: Path | None = None
    if config.out:
        outdir = Path(config.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot create artifact directory {outdir}: {err}") from err
    report = RunReport(scenario=scenario.name, config=config.echo())
    for name in stage_names:
        t0 = time.perf_counter()
        entry = {"name": name, "artifacts": []}
        artifacts: dict = {}
        try:
            metrics, artifacts = STAGES[name](ctx)
            entry["status"] = "pass" if metrics.get("passed", True) else "fail"
            entry["metrics"] = metrics
        except ScextError as err:
            entry["status"] = "error"
            entry["error"] = f"{type(err).__name__}: {err}"
        entry["wall_time"] = time.perf_counter() - t0
        if outdir is not None:
            t0 = time.perf_counter()
            entry["artifacts"] = _write_artifacts(outdir, artifacts)
            entry["write_time"] = time.perf_counter() - t0
            entry["peak_rss_mb"] = _peak_rss_mb()
        report.stages.append(entry)
        if entry["status"] == "error":
            break
    if outdir is not None:
        write_json(outdir / "report.json", report.to_dict())
        timings = {}
        for s in report.stages:
            timings[s["name"]] = s["wall_time"]
            timings[f"{s['name']}.write"] = s["write_time"]
            if s["peak_rss_mb"] is not None:
                timings[f"{s['name']}.peak_rss_mb"] = s["peak_rss_mb"]
        write_json(outdir / "timings.json", timings)
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
    parser.add_argument("--format", choices=GRID_FORMATS, help="grid artifact format")
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
