#!/usr/bin/env python3
"""Docs-link check: every module/path the docs name must exist.

Scans README.md and docs/*.md for three kinds of references and fails
when any points at nothing in the tree:

- repo-relative paths (``src/repro/mapreduce/engine.py``, ``docs/...``,
  ``examples/...``, ``tests/...``, ``tools/...``);
- dotted module names (``repro.execution``, ``repro.inciter.cpc``);
- bare Python file names (``fig8_overall.py``) — matched against the
  set of file names anywhere in the tree.

It also checks two reverse directions, so new code cannot land
undocumented:

- every experiment module under ``src/repro/experiments/`` (except the
  shared harness/CLI plumbing) must be named in ``docs/experiments.md``;
- every example script under ``examples/`` must be mentioned in
  README.md or a ``docs/*.md`` page.

Run from the repository root (CI does)::

    python tools/check_docs_links.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

DOC_GLOBS = ("README.md", "docs/*.md")
PATH_RE = re.compile(r"\b(?:src|tests|examples|docs|tools)/[\w\-./]+")
MODULE_RE = re.compile(r"\brepro(?:\.\w+)+")
PYFILE_RE = re.compile(r"\b[\w\-]+\.py\b")


def iter_doc_files(root: Path):
    for pattern in DOC_GLOBS:
        yield from sorted(root.glob(pattern))


def check_file(doc: Path, root: Path, known_basenames: set) -> list:
    """Return a list of ``(reference, reason)`` problems found in ``doc``."""
    text = doc.read_text(encoding="utf-8")
    problems = []

    for ref in sorted(set(PATH_RE.findall(text))):
        candidate = root / ref.rstrip("/.")
        if not candidate.exists():
            problems.append((ref, "path does not exist"))

    for ref in sorted(set(MODULE_RE.findall(text))):
        parts = ref.split(".")
        base = root / "src" / Path(*parts)
        if not (base.with_suffix(".py").exists() or (base / "__init__.py").exists()):
            # Dotted references may be attribute access (repro.foo.Bar
            # would not match MODULE_RE's \w+ against a class either, so
            # anything failing here is a genuinely missing module).
            problems.append((ref, "module does not exist under src/"))

    for ref in sorted(set(PYFILE_RE.findall(text))):
        if ref not in known_basenames:
            problems.append((ref, "no file with this name anywhere in the tree"))

    return problems


#: experiment-package plumbing exempt from the registry check.
EXPERIMENT_PLUMBING = {"__init__.py", "__main__.py", "harness.py"}


def check_experiment_registry(root: Path) -> list:
    """Every experiment module must be named in docs/experiments.md."""
    registry = root / "docs" / "experiments.md"
    if not registry.is_file():
        return [("docs/experiments.md", "experiment registry is missing")]
    text = registry.read_text(encoding="utf-8")
    problems = []
    for module in sorted((root / "src" / "repro" / "experiments").glob("*.py")):
        if module.name in EXPERIMENT_PLUMBING:
            continue
        if module.name not in text:
            problems.append(
                (module.name, "experiment module not named in docs/experiments.md")
            )
    return problems


def check_example_coverage(root: Path) -> list:
    """Every example script must be mentioned in README or a docs page."""
    corpus = "\n".join(
        doc.read_text(encoding="utf-8") for doc in iter_doc_files(root)
    )
    problems = []
    for script in sorted((root / "examples").glob("*.py")):
        if script.name not in corpus:
            problems.append(
                (script.name, "example not mentioned in README or docs/")
            )
    return problems


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    known_basenames = {
        path.name
        for path in root.rglob("*.py")
        if ".git" not in path.parts
    }
    failures = 0
    for doc in iter_doc_files(root):
        problems = check_file(doc, root, known_basenames)
        for ref, reason in problems:
            print(f"{doc.relative_to(root)}: {ref!r}: {reason}")
        failures += len(problems)
    for ref, reason in check_experiment_registry(root):
        print(f"docs/experiments.md: {ref!r}: {reason}")
        failures += 1
    for ref, reason in check_example_coverage(root):
        print(f"examples/: {ref!r}: {reason}")
        failures += 1
    if failures:
        print(f"\n{failures} broken doc reference(s)")
        return 1
    print("docs-link check: all references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
