"""Recorder of the Tier-1 stores: tests/pins.json and tests/verdicts.json.

    python tests/pins.py

Reruns every entry's ``argv`` (scext arguments, paths relative to the repository
root) and rewrites the rest.  tests/pins.json holds passing runs in
perfbench/reference.json's layout: seed, ``C`` (null without certify), stages
and perfbench/worker.py's ``artifact_digests``.  tests/verdicts.json is the
verdict ledger: runs that do not pass, each with its exit code and the status
of every stage it ran, and a ``note`` that is kept as written.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STORE = ROOT / "tests" / "pins.json"
LEDGER = ROOT / "tests" / "verdicts.json"
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


def verdict(argv: list[str]) -> dict:
    """The exit code of ``scext ARGV`` and the status it prints for each stage."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    lines = re.findall(r"^\[(\w+)\] (\w+)", printed.getvalue(), re.MULTILINE)
    return {"exit_code": code, "stages": {name: status for status, name in lines}}


def _rewrite(path: Path, entry_of) -> None:
    store = json.loads(path.read_text())
    for name, entry in store.items():
        store[name] = entry_of(entry)
    path.write_text(json.dumps(store, indent=2, sort_keys=True) + "\n")


def _pinned(entry: dict) -> dict:
    with tempfile.TemporaryDirectory() as out:
        return {"argv": entry["argv"], **record(entry["argv"], Path(out))}


if __name__ == "__main__":
    os.chdir(ROOT)
    _rewrite(STORE, _pinned)
    _rewrite(LEDGER, lambda entry: {"argv": entry["argv"], "note": entry["note"],
                                    **verdict(entry["argv"])})
