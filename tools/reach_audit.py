"""Reach audit: which function lines under ``src/repro`` no entry point runs.

Runs the repository's entry points, each in a subprocess under a
``sys.setprofile`` / ``threading.setprofile`` hook that records every
code object called:

- ``python -m repro.experiments test``;
- every script in ``examples/``;
- ``bench/run.py --size smoke --units 3 --trace 1`` on each workload.

It then walks ``src/repro`` with :mod:`ast`.  A function's lines are the
non-blank, non-comment source lines of its body (signature and
docstring excluded); lines of a nested function or class count toward
that inner unit only.  A function is *reached* when its code object was
called in any entry point.  The script prints the unreached share of
function lines and the largest unreached functions::

    python tools/reach_audit.py                  # report only
    python tools/reach_audit.py --max-share 17   # also exit 1 above 17 %

Code that runs only inside process-pool workers is not seen (the hook
is not inherited by pool children), so such functions count as
unreached; code on thread-pool workers is seen.  Tests are not an entry
point: a unit only tests reach counts as unreached.  The entry points run
with every ``REPRO_*`` variable unset, so the report does not depend on
the caller's environment.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
WORKLOADS = ("pagerank_e2e", "pagerank_par", "wordcount_accum", "store_maintain")
#: How many of the largest unreached functions the report lists.
TOP = 20

#: Runs one entry point under the profile hook, then writes the called
#: code objects as ``[filename, first line, name]`` rows to ``argv[1]``.
_BOOTSTRAP = r"""
import json, runpy, sys, threading
out, kind, target, *args = sys.argv[1:]
seen = {}

def hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen[id(code)] = code

sys.argv = [target, *args]
threading.setprofile(hook)
sys.setprofile(hook)
try:
    if kind == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(target, run_name="__main__")
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    rows = {(c.co_filename, c.co_firstlineno, c.co_name) for c in list(seen.values())}
    with open(out, "w") as fh:
        json.dump(sorted(rows), fh)
"""

#: A function's identity as both the AST and a code object see it.
FunctionKey = Tuple[str, int, str]


def entry_points() -> List[Tuple[str, str, List[str]]]:
    """``(kind, target, args)`` for every entry point, longest first."""
    points = [("module", "repro.experiments", ["test"])]
    bench = os.path.join(ROOT, "bench", "run.py")
    for workload in WORKLOADS:
        points.append(("path", bench, ["--workload", workload, "--size", "smoke",
                                       "--units", "3", "--trace", "1"]))
    examples = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            points.append(("path", os.path.join(examples, name), []))
    return points


def run_entry_point(kind: str, target: str, args: Sequence[str]) -> Set[FunctionKey]:
    """Called code objects under ``src/repro`` of one profiled run."""
    # Inherited REPRO_* knobs would change which code paths run (say, a
    # process-pool default hides worker code), so every run uses the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    fd, out = tempfile.mkstemp(prefix="reach-", suffix=".json")
    os.close(fd)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _BOOTSTRAP, out, kind, target, *args],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{target} {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        with open(out) as fh:
            rows = json.load(fh)
    finally:
        os.unlink(out)
    reached = set()
    for filename, first_line, name in rows:
        path = os.path.realpath(filename)
        if path.startswith(PACKAGE + os.sep):
            reached.add((os.path.relpath(path, SRC), first_line, name))
    return reached


def _code_lines(source_lines: Sequence[str], first: int, last: int) -> Set[int]:
    """Line numbers in ``[first, last]`` that hold code (not blank/comment)."""
    return {
        n for n in range(first, last + 1)
        if source_lines[n - 1].strip() and not source_lines[n - 1].lstrip().startswith("#")
    }


def _docstring_end(node: ast.AST) -> int:
    """Last line of a unit's docstring, or of its signature if it has none."""
    first = node.body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        return first.end_lineno
    return first.lineno - 1


def function_lines(relpath: str) -> Dict[FunctionKey, Tuple[str, int]]:
    """``key -> (qualified name, line count)`` for every function of a file.

    ``key`` matches a code object: decorated functions start at their
    first decorator, as ``co_firstlineno`` does.
    """
    with open(os.path.join(SRC, relpath), encoding="utf-8") as fh:
        text = fh.read()
    source_lines = text.splitlines()
    units: List[Tuple[ast.AST, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                units.append((child, qualname))
                visit(child, qualname + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(text), "")
    # Each line belongs to the innermost unit that holds it (``units`` is
    # in pre-order, so inner units overwrite); headers belong to none.
    owner: Dict[int, int] = {}
    for node, _ in units:
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        for line in _code_lines(source_lines, first, node.end_lineno):
            owner[line] = id(node)
        for line in range(first, _docstring_end(node) + 1):
            owner[line] = 0
    counts: Dict[int, int] = {}
    for unit in owner.values():
        counts[unit] = counts.get(unit, 0) + 1
    result: Dict[FunctionKey, Tuple[str, int]] = {}
    for node, qualname in units:
        if isinstance(node, ast.ClassDef):
            continue
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        result[(relpath, first, node.name)] = (qualname, counts.get(id(node), 0))
    return result


def audit(reached: Set[FunctionKey]) -> Tuple[int, int, List[Tuple[int, str]]]:
    """``(total lines, unreached lines, unreached functions by size)``."""
    total = 0
    unreached = 0
    missed: List[Tuple[int, str]] = []
    for dirpath, _, filenames in sorted(os.walk(PACKAGE)):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            relpath = os.path.relpath(os.path.join(dirpath, filename), SRC)
            for key, (qualname, lines) in function_lines(relpath).items():
                total += lines
                if key not in reached:
                    unreached += lines
                    missed.append((lines, f"{relpath}:{key[1]} {qualname}"))
    missed.sort(key=lambda item: (-item[0], item[1]))
    return total, unreached, missed


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-share", type=float, metavar="P",
                        help="exit 1 when more than P %% of function lines are unreached")
    args = parser.parse_args(argv)

    reached: Set[FunctionKey] = set()
    with ThreadPoolExecutor(max_workers=2) as pool:
        for found in pool.map(lambda point: run_entry_point(*point), entry_points()):
            reached |= found
    total, unreached, missed = audit(reached)
    share = 100.0 * unreached / total if total else 0.0
    print(f"reach audit: {unreached} of {total} function lines under src/repro "
          f"({share:.1f} %) are reached by no entry point")
    print(f"largest unreached functions ({len(missed)} in all):")
    for lines, where in missed[:TOP]:
        print(f"{lines:6d}  {where}")
    if args.max_share is not None and share > args.max_share:
        print(f"unreached share {share:.1f} % is above --max-share {args.max_share:g} %")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
