"""Alternating benchmark pairs: this tree against a git revision.

    python tests/bench_pairs.py REV --workload W [--workload W ...] --pairs N
        [--out FILE]

Extracts REV with ``git archive`` into a new sibling directory of this tree
whose name ends in a fresh random suffix, so its path has the same length
(``peak_rss_mb`` moves with the path length), then
runs ``perfbench/run.py --workload W`` N times in each tree, at perfbench's
own seed.  The side that goes first alternates pair by pair, and with several
workloads each pair runs them all in turn.  It prints the ``ten_pairs`` block of the
``BENCH_*.json`` files, or writes it to FILE: per workload ``runs_correct``
and, for each end-to-end metric, both sides' quartiles (statistics.quantiles,
inclusive), the median change in percent, the parent's IQR and how many pairs
the change read lower; then every run.  It only reads ``perfbench/``, and
removes the extracted tree when it is done.
"""

from __future__ import annotations

import argparse
import io
import json
import secrets
import shutil
import statistics
import string
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRICS = ("run_s", "setup_s", "peak_rss_mb")
SUFFIX = 8  # random characters at the end of the sibling's name, at most
_ALPHABET = string.ascii_lowercase + string.digits


def sibling(root: Path) -> Path:
    """A path next to root that does not exist, whose name is as long as
    root's: its last characters (up to SUFFIX of them) drawn at random."""
    n = min(len(root.name), SUFFIX)
    keep = root.name[: len(root.name) - n]
    while True:
        tree = root.parent / (keep + "".join(secrets.choice(_ALPHABET) for _ in range(n)))
        if tree != root and not tree.exists():
            return tree


def extract(rev: str) -> Path:
    """REV's files in a new sibling of ROOT whose name is as long as ROOT's."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          capture_output=True, check=True).stdout
    tree = sibling(ROOT)
    try:
        tree.mkdir()
    except OSError as exc:
        raise SystemExit(f"bench_pairs: cannot create a directory in {ROOT.parent}: {exc.strerror}")
    try:
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(tree, filter="data")
    except BaseException:
        shutil.rmtree(tree, ignore_errors=True)
        raise
    return tree


def run(tree: Path, workload: str) -> dict:
    """One ``perfbench/run.py`` pass: correct, failed and the end-to-end metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload],
        cwd=tree, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "error": proc.stderr.strip()[-500:]}
    result = json.loads(lines[-1])
    out = {"correct": result["correct"], "failed": result["failed"]}
    out.update({m: result["metrics"][m]["value"] for m in METRICS})
    return out


def quartiles(values: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def summary(runs: list[dict]) -> dict:
    """The per-workload block of ``ten_pairs`` from one workload's runs."""
    both = [r for r in runs if r["parent"]["correct"] and r["change"]["correct"]]
    correct = sum(r[side]["correct"] for r in runs for side in ("parent", "change"))
    out: dict = {"runs_correct": f"{correct}/{2 * len(runs)}"}
    if len(both) < 2:
        return out
    for metric in METRICS:
        parent = [r["parent"][metric] for r in both]
        change = [r["change"][metric] for r in both]
        p, c = quartiles(parent), quartiles(change)
        out[metric] = {
            "parent_q1_median_q3": p,
            "change_q1_median_q3": c,
            "median_change_pct": round(100.0 * (c[1] - p[1]) / p[1], 1),
            "parent_iqr": round(p[2] - p[0], 4),
            "change_lower": f"{sum(b < a for a, b in zip(parent, change))}/{len(both)}",
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_pairs", description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent revision, as git names it")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="write the block here instead of printing it")
    args = parser.parse_args(argv)
    parent = extract(args.rev)
    runs = []
    try:
        for pair in range(args.pairs):
            for workload in args.workload:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                entry = {"workload": workload, "pair": pair, "first": order[0]}
                for side in order:
                    entry[side] = run(parent if side == "parent" else ROOT, workload)
                runs.append(entry)
                print(json.dumps(entry), file=sys.stderr)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
    block = {
        "protocol": f"{args.pairs} pairs per workload at perfbench's default seed, the side"
                    f" that runs first alternating pair by pair; parent {args.rev} (git archive"
                    " into a sibling directory of equal path length), change: the tree"
                    " holding this script",
        "workloads": {w: summary([r for r in runs if r["workload"] == w]) for w in args.workload},
        "runs": runs,
    }
    text = json.dumps(block, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
