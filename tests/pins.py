"""Recorder of tests/pins.json, the store of the Tier-1 pinned scext runs.

    python tests/pins.py

Reruns every entry's ``argv`` (scext arguments, paths relative to the repository
root) and rewrites the rest in perfbench/reference.json's layout: seed, ``C``
(null without certify), stages and perfbench/worker.py's ``artifact_digests``.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STORE = ROOT / "tests" / "pins.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from scext import cli  # noqa: E402
from scext.scenarios import resolve_knobs  # noqa: E402
from worker import artifact_digests  # noqa: E402


def record(argv: list[str], out: Path) -> dict:
    """The entry but argv of ``scext ARGV --out OUT``, run as the worker runs it."""
    config = cli.merge_config(cli._build_parser().parse_args([*argv, "--out", str(out)]))
    report = cli.run_scenario(config)
    if not report.all_passed:
        raise RuntimeError(f"scext {' '.join(argv)}: not every stage passed")
    return {
        "seed": resolve_knobs(cli.resolve_scenario(config), config.knobs)["seed"],
        "C": next((s["metrics"]["C"] for s in report.stages if s["name"] == "certify"), None),
        "stages": [s["name"] for s in report.stages],
        "digests": artifact_digests(out),
    }


if __name__ == "__main__":
    os.chdir(ROOT)
    store = json.loads(STORE.read_text())
    for name, entry in store.items():
        with tempfile.TemporaryDirectory() as out:
            store[name] = {"argv": entry["argv"], **record(entry["argv"], Path(out))}
    STORE.write_text(json.dumps(store, indent=2, sort_keys=True) + "\n")
