"""Line census of src/scext: the lines that no pinned run reaches.

    python tests/census.py

Runs every built-in scenario and every entry of perfbench/reference.json
(perfbench/alpha_half.json among them), tests/pins.json and
tests/verdicts.json, each distinct argv once, in this process under a
``sys.settrace`` line tracer.  Then prints, file by file, each executable
line of src/scext that no run reached, leaving out refusals: the lines of a
``raise`` statement and of an ``except`` clause whose body only raises.
README.md names the blocks it still lists on purpose.  A traced pass takes
10-20 s, so this is a script and not a Tier-1 test.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "scext"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def _executable(code: types.CodeType) -> set[int]:
    """The lines that carry bytecode in code and in the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _executable(const)
    return lines


def _refusals(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) or (
            isinstance(node, ast.ExceptHandler)
            and all(isinstance(s, ast.Raise) for s in node.body)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _tracer(reached: dict[str, set[int]]):
    """A global trace function that records the lines run in src/scext."""
    prefix = str(SRC) + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    return on_call


def _argvs(builtins) -> list[list[str]]:
    """Each distinct argv of the built-ins and of the stores' entries."""
    from run import WORKLOADS  # perfbench/run.py

    argvs = [["--scenario", name] for name in builtins]
    reference = json.loads((ROOT / "perfbench/reference.json").read_text())
    argvs += [WORKLOADS[name] + ["--seed", str(e["seed"])] for name, e in reference.items()]
    for store in ("tests/pins.json", "tests/verdicts.json"):
        argvs += [entry["argv"] for entry in json.loads((ROOT / store).read_text()).values()]
    return [list(a) for a in dict.fromkeys(map(tuple, argvs))]


def census() -> dict[Path, list[int]]:
    """Per source file, the unreached executable lines that are not refusals."""
    reached: dict[str, set[int]] = defaultdict(set)
    sys.settrace(_tracer(reached))
    try:  # scext is imported under the tracer, so its module-level lines count
        from scext import cli
        from scext.scenarios import SCENARIO_NAMES

        for argv in _argvs(SCENARIO_NAMES):
            with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", out])
            print(f"exit {code}: scext {' '.join(argv)}", file=sys.stderr)
    finally:
        sys.settrace(None)
    unreached = {}
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = _executable(compile(source, str(path), "exec"))
        left = lines - reached[str(path)] - _refusals(ast.parse(source))
        unreached[path] = sorted(left)
    return unreached


if __name__ == "__main__":
    os.chdir(ROOT)
    total = 0
    for path, lines in census().items():
        text = path.read_text().splitlines()
        for line in lines:
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
        total += len(lines)
    print(f"{total} unreached lines that are not refusals")
