"""One measured scext process, started fresh by ``run.py``.

    python3 perfbench/worker.py --mode setup|run --spawned-at T --result FILE
        [--trace] -- <scext command-line arguments>

Both modes import ``scext``, merge the config from the given scext arguments
and resolve the scenario; ``setup_s`` runs from ``T`` (CLOCK_MONOTONIC, read
by the parent just before it started this process) to that point.  Mode
``run`` then calls ``run_scenario`` with artifacts written, optionally under
the layer trace, and records stage statuses and wall times, peak RSS, artifact
digests and the library environment.  The result is written as JSON to FILE.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

# digests skip timings.json: wall-clock numbers are outside the guarantee
_UNHASHED = ("timings.json",)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def artifact_digests(outdir: Path) -> dict[str, str]:
    """SHA-256 of every artifact except timings.json.

    report.json echoes ``config.out``, the artifact directory, so it is hashed
    after that one field is dropped; the rest of it (stage metrics, including
    the mollify stage's, which have no artifact of their own) is kept.
    """
    digests = {}
    for path in sorted(outdir.iterdir()):
        if path.name in _UNHASHED:
            continue
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report["config"].pop("out", None)
            data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded by numpy, asked from the library."""
    with open("/proc/self/maps") as maps:
        libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower() and ".so" in ln})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def library_env() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench-worker")
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("scext_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    scext_args = args.scext_args[1:] if args.scext_args[:1] == ["--"] else args.scext_args

    import scext
    from scext import cli

    config = cli.merge_config(cli._build_parser().parse_args(scext_args))
    cli.resolve_scenario(config)
    result: dict = {"setup_s": _now() - args.spawned_at, "scext": scext.__file__}

    if args.mode == "run":
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        t0, c0 = time.perf_counter(), time.process_time()
        report = cli.run_scenario(config)
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["stages"] = [
            {"name": s["name"], "status": s["status"], "wall_s": s["wall_time"],
             "error": s.get("error")}
            for s in report.stages
        ]
        result["modulus_C"] = next(
            (s["metrics"]["C"] for s in report.stages if s["name"] == "certify" and "metrics" in s),
            None,
        )
        result["digests"] = artifact_digests(Path(config.out))
        result["env"] = library_env()
        if tracer is not None:
            from layers import layer_metrics

            result["layers"] = layer_metrics(tracer.spans)

    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
