"""Scenario-pipeline benchmark for scext.

    python3 perfbench/run.py --workload NAME [--seed N] [--trace 0|1]

Each workload is one scext command run through the public CLI pipeline
(``merge_config`` then ``run_scenario`` with artifacts written), every pass in
a fresh single process started from the source tree next to this directory
(``src/``).  The seed is handed to scext as ``--seed``; 7 is the scenarios' own
default.

A run is a fixed amount of work, the same on every commit; ``--seconds`` is
accepted so that every benchmark takes the same options, and is not used.
``--trace 0`` measures end to end with tracing off: ``SETUP_PROBES`` set-up-only
processes, then one whole pass.  It reports ``run_s`` (the whole
``run_scenario`` call, artifact writing included) and ``peak_rss_mb`` of that
pass, the median ``setup_s`` (process start to scenario resolved) over the
probes and the pass, and prints each stage's wall time.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics of
``layers.py``, the untraced stage wall times and the tracing overhead (traced
minus untraced ``run_s``).

Outputs are checked: every stage must pass, and artifact SHA-256 digests
(everything but timings.json; report.json without its ``config.out`` echo)
must match ``reference.json`` -- all of them at the default seed, and at any
other seed every artifact that does not carry sampled triples (certify.json,
report.json), provided the run's semiconcavity constant C equals the recorded
one.  A traced pass must produce the untraced pass's digests.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` (stages
not passed plus digest mismatches, out of stages and digests checked) and
``metrics``.  ``--record-reference`` rewrites the workload's entry in
``reference.json`` from a default-seed pass instead of checking it.

BLAS runs single-threaded in every worker, so a run loads one process with one
compute thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import STAGE_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 7
SETUP_PROBES = 11
RUN_LIMIT_S = 170.0  # every invocation must end well inside 180 s

WORKLOADS = {
    "example1": ["--scenario", "example1"],
    "affine-glue": ["--scenario", "affine-sanity"],
    "alpha-half": ["--config", str(HERE / "alpha_half.json")],
}

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# artifacts that hold sampled triples, so they change with the seed
SEEDED_ARTIFACTS = ("certify.json", "report.json")


class BenchError(RuntimeError):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class Runner:
    """Starts worker processes for one workload under one scratch directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.env = _worker_env()
        self._n = 0

    def _spawn(self, mode: str, trace: bool = False) -> dict:
        self._n += 1
        tag = f"{mode}{self._n}"
        out = self.workdir / tag
        result_path = self.workdir / f"{tag}.json"
        scext_args = WORKLOADS[self.workload] + ["--out", str(out), "--seed", str(self.seed)]
        timeout = self.deadline - _now()
        if timeout <= 0:
            raise BenchError("time limit reached before the next pass")
        spawned_at = _now()
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--spawned-at", repr(spawned_at), "--result", str(result_path)]
        cmd += (["--trace"] if trace else []) + ["--"] + scext_args
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{tag} did not finish within {timeout:.0f} s") from err
        if proc.returncode != 0:
            raise BenchError(f"{tag} exited with {proc.returncode}:\n{proc.stderr.strip()}")
        result = json.loads(result_path.read_text())
        if not Path(result["scext"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"scext was imported from {result['scext']}, not {SRC}")
        shutil.rmtree(out, ignore_errors=True)
        return result

    def setup(self) -> dict:
        return self._spawn("setup")

    def run(self, trace: bool = False) -> dict:
        return self._spawn("run", trace)


# -- checks --------------------------------------------------------------------


class Tally:
    """Operations attempted and failed: stages run plus digests compared."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def check_pass(result: dict, reference: dict | None, seed: int, tally: Tally) -> None:
    for stage in result["stages"]:
        tally.check(stage["status"] == "pass",
                    f"stage {stage['name']}: {stage['status']} {stage.get('error') or ''}")
    if reference is None:
        return
    ran = [s["name"] for s in result["stages"]]
    tally.check(ran == reference["stages"], f"stages run {ran} != {reference['stages']}")
    if seed == reference["seed"]:
        names = sorted(reference["digests"])
    elif result["modulus_C"] == reference["C"]:
        names = sorted(n for n in reference["digests"] if n not in SEEDED_ARTIFACTS)
    else:
        names = []
    for name in names:
        tally.check(result["digests"].get(name) == reference["digests"][name],
                    f"digest of {name} differs from reference.json")


def check_same(a: dict, b: dict, what: str, tally: Tally) -> None:
    for name in sorted(set(a["digests"]) | set(b["digests"])):
        tally.check(a["digests"].get(name) == b["digests"].get(name),
                    f"digest of {name} differs between {what}")


# -- metrics -------------------------------------------------------------------


def stage_walls(result: dict) -> dict[str, float]:
    return {s["name"]: s["wall_s"] for s in result["stages"]}


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    return {
        "run_s": result["run_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    out = {name: tuple(v) for name, v in traced["layers"].items()}
    walls = stage_walls(untraced)
    for stage in STAGE_NAMES:
        out[f"scenarios.{stage}.wall_s"] = (walls.get(stage, 0.0), "s")
    out["cli.artifacts_s"] = (untraced["run_s"] - sum(walls.values()), "s")
    out["trace.overhead_s"] = (traced["run_s"] - untraced["run_s"], "s")
    return out


# -- reporting -----------------------------------------------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as err:
        return f"unknown ({err})"
    if proc.returncode != 0:
        return f"unknown (git rev-parse: {proc.stderr.strip()})"
    return proc.stdout.strip()


def print_env(result: dict) -> None:
    env = dict(result["env"])
    env.update(nproc=len(os.sched_getaffinity(0)), machine=platform.machine(), commit=_git_commit())
    for key, value in env.items():
        print(f"env {key}: {value}")


def print_pass(label: str, result: dict) -> None:
    walls = " ".join(f"{k}_s={v:.3f}" for k, v in stage_walls(result).items())
    print(f"{label}: setup_s={result['setup_s']:.3f} run_s={result['run_s']:.3f} cpu_s={result['cpu_s']:.3f} "
          f"peak_rss_mb={result['peak_rss_mb']:.1f} {walls}")


def print_digests(result: dict) -> None:
    for name, digest in sorted(result["digests"].items()):
        print(f"digest {name} {digest}")


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def record_reference(workload: str, result: dict) -> None:
    refs = _load_reference()
    refs[workload] = {
        "seed": DEFAULT_SEED,
        "C": result["modulus_C"],
        "stages": [s["name"] for s in result["stages"]],
        "digests": result["digests"],
    }
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def measure(args, runner: Runner, tally: Tally) -> dict[str, tuple[float, str]]:
    reference = _load_reference().get(args.workload)
    if reference is None and not args.record_reference:
        raise BenchError(f"no reference digests for {args.workload} in {REFERENCE}")
    if args.trace:
        untraced = runner.run()
        traced = runner.run(trace=True)
        print_env(untraced)
        print_pass("untraced", untraced)
        print_pass("traced", traced)
        check_pass(untraced, reference, args.seed, tally)
        check_pass(traced, reference, args.seed, tally)
        check_same(untraced, traced, "the traced and the untraced pass", tally)
        print_digests(untraced)
        return per_layer(untraced, traced)

    setups = [runner.setup()["setup_s"] for _ in range(SETUP_PROBES)]
    result = runner.run()
    setups.append(result["setup_s"])
    print_env(result)
    print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
    print_pass("pass", result)
    check_pass(result, reference, args.seed, tally)
    print_digests(result)
    if args.record_reference:
        record_reference(args.workload, result)
    walls = stage_walls(result)
    for stage in STAGE_NAMES:
        if stage in walls:
            print(f"{stage}_s {walls[stage]:.4f} s")
    print(f"cli.artifacts_s {result['run_s'] - sum(walls.values()):.4f} s")
    units = dict(END_TO_END)
    return {name: (value, units[name]) for name, value in end_to_end(result, setups).items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted and not used: a run is one fixed amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record-reference needs the default seed and --trace 0")
    if not (SRC / "scext" / "__init__.py").is_file():
        print(f"perfbench: no scext source tree at {SRC}", file=sys.stderr)
        return 2

    workdir = HERE / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, workdir, _now() + RUN_LIMIT_S)
    tally = Tally()
    try:
        metrics = measure(args, runner, tally)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ops {tally.failed}/{tally.attempted} count/attempted")
    for note in tally.notes:
        print(f"FAILED: {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
