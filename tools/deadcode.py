"""Report definitions under ``src/`` that nothing references.

A stdlib-``ast`` scan.  Every function, method and class defined under
``src/`` is *dead* when its name occurs nowhere else: not as a name,
attribute, import or identifier inside a string literal (generated
code, ``getattr`` names, ``__all__``) in any Python file under src,
tests, benchmarks, tools, perfbench or examples, and not as a word in
the grammar sources (``*.ag``) or the CI workflows.  The match is by
name only, so it errs towards keeping code: a name used anywhere keeps
every definition of it alive.

Run from the repository root::

    python tools/deadcode.py

Prints one ``path:line: name`` per dead definition and exits 1, or
exits 0 when there is none.
"""

from __future__ import annotations

import ast
import os
import re
import sys
from typing import Iterator, List, Set, Tuple

ROOTS = ("src", "tests", "benchmarks", "tools", "perfbench", "examples",
         ".github")
TEXT_SUFFIXES = (".ag", ".yml", ".yaml")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def walk(root: str, suffixes: Tuple[str, ...]) -> Iterator[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(suffixes):
                yield os.path.join(dirpath, name)


def references(tree: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(WORD.findall(node.value))
    return names


def definitions(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.lineno, node.name


def dead_definitions(repo: str) -> List[Tuple[str, int, str]]:
    used: Set[str] = set()
    defined: List[Tuple[str, int, str]] = []
    for root in ROOTS:
        for path in walk(os.path.join(repo, root), (".py",) + TEXT_SUFFIXES):
            with open(path, encoding="utf-8") as f:
                text = f.read()
            if not path.endswith(".py"):
                used.update(WORD.findall(text))
                continue
            tree = ast.parse(text, filename=path)
            used |= references(tree)
            if root == "src":
                rel = os.path.relpath(path, repo)
                defined.extend((rel, line, name)
                               for line, name in definitions(tree))
    return [d for d in defined if d[2] not in used]


def main() -> int:
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    dead = dead_definitions(repo)
    for path, line, name in dead:
        print(f"{path}:{line}: {name}")
    if dead:
        print(f"{len(dead)} unreferenced definition(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
