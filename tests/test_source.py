"""Static checks over the package's own source files."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clozefuzz

SOURCES = sorted(Path(clozefuzz.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads. ``__future__`` imports
    are directives, not names, a name listed in ``__all__`` is read by
    every star import, and an import whose first line is marked
    ``# noqa: F401`` is kept for its side effect."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or lines[
            node.lineno - 1
        ].endswith("# noqa: F401"):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nfrom a.b import c as d, e, f\nos.sep\ne()\n__all__ = ['f']\n"
    assert unused_imports(source) == ["line 2: d"]
    kept = "from . import a  # noqa: F401\nfrom . import b  # noqa: E501\n"
    assert unused_imports(kept) == ["line 2: b"]


def test_the_package_root_loads_every_module_but_the_cli():
    code = (
        "import sys, clozefuzz\n"
        "print(sorted(m for m in sys.modules if m.startswith('clozefuzz.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(clozefuzz.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert ast.literal_eval(out) == [
        f"clozefuzz.{name}"
        for name in (
            "augment", "brackets", "campaign", "corpus", "harness", "infill",
            "lexer", "masking", "mining", "oracle", "spe",
        )
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
