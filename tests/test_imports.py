"""Every name a module of the package imports is used or marked as kept."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "clonemap"


def unused_imports(path: Path) -> list[str]:
    """Imported names never referenced in ``path`` and not marked
    ``# noqa: F401``; names listed in ``__all__`` count as referenced."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from pathlib import Path\n"
        "from typing import Iterable, Sequence\n"
        "__all__ = ['Path']\n"
        "def f(x: Sequence) -> None:\n"
        "    pass\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["m.py:2: os", "m.py:5: Iterable"]
