"""Every name a module of the package imports is used or marked as kept,
every private module-level name is used and none is imported into another
module but the reader helpers of ``errors``, every public function, class,
method and property has a caller outside the tests, no module reads the
environment or writes JSON text outside ``pipeline``, one function decodes JSON
and ``cli.main`` maps three exception types, the readers of reports, ground
truth and mapping artifacts hold no value check, one function reads the row-block
size, one function of ``pipeline`` reads a version, every name the package
exports resolves, and the count of publicly settable values is pinned."""

import argparse
import ast
import enum
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import clonemap
from clonemap import cli

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


def module_level_names(path: Path, assignments: bool = True):
    """``(line, name)`` of each function, class and, with ``assignments``,
    each assigned name defined at the top level of ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.lineno, node.name
        elif assignments and isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, t.id) for t in targets
                        if isinstance(t, ast.Name))


def names_read(paths) -> set[str]:
    """Every name some module in ``paths`` reads: as a name, an attribute
    or an import."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def dead_private_names(paths) -> list[str]:
    """Module-level ``_name`` definitions in ``paths`` that no code in
    ``paths`` reads: not as a name, an attribute or an import. A name
    counts as read when any module reads it."""
    paths = sorted(paths)
    read = names_read(paths)
    return [f"{path.name}:{line}: {name}" for path in paths
            for line, name in module_level_names(path)
            if name.startswith("_") and not name.startswith("__")
            and name not in read]


def test_no_dead_private_names():
    assert dead_private_names(PACKAGE.glob("*.py")) == []


def test_scan_finds_a_dead_private_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "_LIMIT = 3\n"
        "_ORPHAN: int = 4\n"
        "def _helper(x):\n"
        "    return x + _LIMIT\n"
        "def _pair_sums(flat):\n"
        "    return np.bincount(flat)\n"
        "class _Entries:\n"
        "    pass\n"
        "def public():\n"
        "    return _helper(1)\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import _helper\n"
        "_BLOCK = a._LIMIT\n"
        "def f():\n"
        "    return _BLOCK\n",
        encoding="utf-8",
    )
    assert dead_private_names(tmp_path.glob("*.py")) == [
        "a.py:3: _ORPHAN", "a.py:6: _pair_sums", "a.py:8: _Entries"]


def uncalled_public_names(paths, readers, allowed=frozenset()) -> list[str]:
    """Module-level public functions and classes in ``paths`` that no
    module in ``readers`` reads, as ``names_read`` counts reads; each entry
    of ``allowed`` is a ``module.name`` left out. An ``__init__.py`` is
    neither scanned nor a reader: a package root's re-export is no call."""
    read = names_read(p for p in readers if p.name != "__init__.py")
    return [f"{path.name}:{line}: {name}" for path in sorted(paths)
            if path.name != "__init__.py"
            for line, name in module_level_names(path, assignments=False)
            if not name.startswith("_") and name not in read
            and f"{path.stem}.{name}" not in allowed]


# Public names that no module calls, each with the reason it stays.
UNCALLED_PUBLIC_NAMES = {
    # perfbench/tracer.py wraps these two by name, as strings. Whether they
    # stay once the tracer is replaced is an open ROADMAP item.
    "mapping.lcs_similarity",
    "mapping.topic_similarity",
}


def test_every_public_name_has_a_caller():
    """A public function or class that only tests call is code with no
    caller; a call from the benchmark harness counts."""
    modules = list(PACKAGE.glob("*.py"))
    readers = modules + list((PACKAGE.parent.parent / "perfbench").glob("*.py"))
    assert uncalled_public_names(modules, readers, UNCALLED_PUBLIC_NAMES) == []


def test_uncalled_public_names_list_is_current():
    """Each allow-listed name is still defined at the top level of its
    module and still has no caller; one that gained a caller or was
    deleted comes off the list."""
    modules = {p.stem: p for p in PACKAGE.glob("*.py")}
    readers = list(modules.values()) + list(
        (PACKAGE.parent.parent / "perfbench").glob("*.py"))
    read = names_read(p for p in readers if p.name != "__init__.py")
    for entry in sorted(UNCALLED_PUBLIC_NAMES):
        module, name = entry.split(".")
        assert module in modules, entry
        assert name in {n for _, n in module_level_names(
            modules[module], assignments=False)}, entry
        assert name not in read, entry


def public_methods(path: Path):
    """``(line, class, name)`` of each public method, classmethod,
    staticmethod and property of each class defined at the top level of
    ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            yield from ((member.lineno, node.name, member.name)
                        for member in node.body
                        if isinstance(member, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                        and not member.name.startswith("_"))


def uncalled_public_methods(paths, readers) -> list[str]:
    """Public methods and properties of the classes in ``paths`` whose
    name no module in ``readers`` reads, by the rule and with the
    ``__init__.py`` exclusions of ``uncalled_public_names``."""
    read = names_read(p for p in readers if p.name != "__init__.py")
    return [f"{path.name}:{line}: {cls}.{name}" for path in sorted(paths)
            if path.name != "__init__.py"
            for line, cls, name in public_methods(path)
            if name not in read]


def test_every_public_method_has_a_caller():
    """A public method or property that only tests call is code with no
    caller, as a module-level name is; a call from the benchmark harness
    counts. A name counts as read wherever it is read, on any object."""
    modules = list(PACKAGE.glob("*.py"))
    readers = modules + list((PACKAGE.parent.parent / "perfbench").glob("*.py"))
    assert uncalled_public_methods(modules, readers) == []


def test_scan_finds_an_uncalled_public_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Doc:\n"
        "    def __init__(self, tokens):\n"
        "        self.tokens = tokens\n"
        "    @property\n"
        "    def size(self):\n"
        "        return len(self.tokens)\n"
        "    @classmethod\n"
        "    def build(cls, words):\n"
        "        return cls(tuple(words))\n"
        "    @staticmethod\n"
        "    def spare(x):\n"
        "        return x\n"
        "    def counts(self):\n"
        "        return {}\n"
        "    def _private(self):\n"
        "        return self.tokens\n"
        "def helper(doc):\n"
        "    return doc.size\n",
        encoding="utf-8",
    )
    (tmp_path / "__init__.py").write_text(
        "from .a import Doc\n"
        "def root(doc):\n"
        "    return doc.counts()\n",
        encoding="utf-8",
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "c.py").write_text(
        "def run(doc_type):\n"
        "    return doc_type.build([]).counts()\n", encoding="utf-8")
    modules = list(tmp_path.glob("*.py"))
    assert uncalled_public_methods(modules, modules) == [
        "a.py:8: Doc.build", "a.py:11: Doc.spare", "a.py:13: Doc.counts"]
    assert uncalled_public_methods(
        modules, modules + [tmp_path / "bench" / "c.py"]) == ["a.py:11: Doc.spare"]


def test_scan_finds_an_uncalled_public_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "LIMIT = 3\n"
        "def helper(x):\n"
        "    return x + LIMIT\n"
        "def orphan():\n"
        "    return np.zeros(1)\n"
        "class Spare:\n"
        "    pass\n"
        "class Used:\n"
        "    pass\n"
        "def kept():\n"
        "    return Used()\n"
        "def _private():\n"
        "    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "def run(obj):\n"
        "    return a.helper(obj.kept)\n",
        encoding="utf-8",
    )
    (tmp_path / "__init__.py").write_text(
        "from .a import Spare, orphan\n"
        "from .b import run\n"
        "def root():\n"
        "    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "c.py").write_text(
        "from pkg.b import run\n", encoding="utf-8")
    modules = list(tmp_path.glob("*.py"))
    assert uncalled_public_names(modules, modules) == [
        "a.py:5: orphan", "a.py:7: Spare", "b.py:2: run"]
    assert uncalled_public_names(modules, modules + [tmp_path / "bench" / "c.py"],
                                 {"a.orphan"}) == ["a.py:7: Spare"]


def scoped_reads(paths, name: str) -> list[str]:
    """Each read of ``name`` in ``paths``, as a name, an attribute or an
    import, as ``file:line: scope``: the module stem and the functions
    and classes around the read, dotted."""
    found = []

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Name) and child.id == name
                    and not isinstance(child.ctx, ast.Store)
                    or isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.ImportFrom)
                    and any(alias.name == name for alias in child.names)):
                found.append((path.name, child.lineno, scope))
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            visit(path, child, inner)

    for path in sorted(paths):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return [f"{file}:{line}: {scope}" for file, line, scope in sorted(found)]


def test_one_function_cuts_rows_into_blocks():
    """``_BLOCK_CELLS`` is read only by ``mapping._blocks``, the one
    chunker that both the dense matrices and the verdict loop use, so no
    row scorer cuts its own blocks."""
    reads = scoped_reads(PACKAGE.glob("*.py"), "_BLOCK_CELLS")
    assert reads
    assert [r for r in reads if not r.endswith(": mapping._blocks")] == []


def test_each_family_builds_its_scorer_in_one_place():
    """``_trimmed_lines`` is read only by ``mapping._lcs_scorer``, and
    ``mapping`` reads ``indptr`` only in ``_topic_scorer`` and its
    ``score_rows``: a family's inputs become a scorer in one function,
    and the verdict loop takes the scorer as it comes."""
    reads = scoped_reads(PACKAGE.glob("*.py"), "_trimmed_lines")
    assert reads
    assert [r for r in reads
            if not r.endswith(": mapping._lcs_scorer")] == []
    assert reading_functions(PACKAGE / "mapping.py", "indptr") == {
        "mapping._topic_scorer", "mapping._topic_scorer.score_rows"}


def test_scan_finds_a_scoped_read(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIMIT = 4\n"
        "def _blocks(rows):\n"
        "    return rows[:_LIMIT]\n"
        "def scorer():\n"
        "    def score_rows(rows):\n"
        "        step = _LIMIT // 2\n"
        "        return rows[:step]\n"
        "    return score_rows\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "from . import a\n"
        "from .a import _LIMIT\n"
        "_LIMIT_TOO = 1\n"
        "class Chunker:\n"
        "    def cut(self):\n"
        "        return a._LIMIT\n",
        encoding="utf-8",
    )
    assert scoped_reads(tmp_path.glob("*.py"), "_LIMIT") == [
        "a.py:3: a._blocks", "a.py:6: a.scorer.score_rows", "b.py:2: b",
        "b.py:6: b.Chunker.cut"]


# The shape helpers that every input reader shares, in ``errors``.
SHARED_PRIVATE_IMPORTS = {"errors._at", "errors._fields", "errors._items"}


def private_imports(paths, allowed=frozenset()) -> list[str]:
    """Each ``_name`` that a module in ``paths`` imports from another
    module of its package, by a relative import, as ``file:line:
    module._name``; each entry of ``allowed`` is a ``module._name`` left
    out. A dunder name such as ``__version__`` is no private name."""
    found = []
    for path in sorted(paths):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            for alias in node.names:
                entry = (f"{node.module}.{alias.name}" if node.module
                         else alias.name)
                if (alias.name.startswith("_") and not alias.name.startswith("__")
                        and entry not in allowed):
                    found.append((path.name, node.lineno, entry))
    return [f"{file}:{line}: {entry}" for file, line, entry in sorted(found)]


def test_no_module_imports_another_modules_private_name():
    """A private name belongs to its module: one that a second module
    needs is part of one design split across two files. Only the reader
    helpers of ``errors`` are shared."""
    assert private_imports(PACKAGE.glob("*.py"), SHARED_PRIVATE_IMPORTS) == []


def test_scan_finds_a_private_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from os import _exit\n"
        "from . import __version__, _cache\n"
        "from .errors import ValidationError, _at, _other\n"
        "from .scoring import Metric, _blocks as blocks\n"
        "def f():\n"
        "    from ..sibling import _helper\n"
        "    return _helper, blocks, _exit, _at, _other\n",
        encoding="utf-8",
    )
    assert private_imports([module], {"errors._at"}) == [
        "m.py:2: _cache", "m.py:3: errors._other", "m.py:4: scoring._blocks",
        "m.py:6: sibling._helper"]


def reading_functions(path: Path, name: str) -> set[str]:
    """The functions of ``path`` that read ``name``, dotted as
    ``scoped_reads`` names them; a read at module level, such as its
    import, is in no function."""
    return {read.split(": ", 1)[1]
            for read in scoped_reads([path], name)} - {path.stem}


def test_one_function_reads_a_version():
    """``pipeline`` reads ``resolve_snapshot`` only in ``texts``, the one
    per-version generator that both strategies read through, so the topic
    map and the LCS baseline keep one reading rule."""
    assert reading_functions(PACKAGE / "pipeline.py",
                             "resolve_snapshot") == {"pipeline.texts"}


def test_scan_finds_each_function_that_reads_a_name(tmp_path):
    module = tmp_path / "p.py"
    module.write_text(
        "from .ingest import resolve_snapshot\n"
        "from . import ingest\n"
        "def texts(snapshot):\n"
        "    for group in resolve_snapshot(snapshot).groups:\n"
        "        yield group\n"
        "def run(snapshot):\n"
        "    def both():\n"
        "        return ingest.resolve_snapshot(snapshot)\n"
        "    return texts(snapshot), both\n"
        "class Reader:\n"
        "    def read(self, snapshot):\n"
        "        return resolve_snapshot(snapshot)\n"
        "resolve = resolve_snapshot\n",
        encoding="utf-8",
    )
    assert reading_functions(module, "resolve_snapshot") == {
        "p.texts", "p.run.both", "p.Reader.read"}


ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(paths) -> list[str]:
    """Places in ``paths`` that read the process environment: an attribute
    named ``environ``/``getenv`` (``os.environ``, ``os.getenv``) or one of
    those names imported from ``os``."""
    found = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_NAMES:
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.extend((path.name, node.lineno, alias.name)
                             for alias in node.names
                             if alias.name in ENVIRONMENT_NAMES)
    return [f"{file}:{line}: {name}" for file, line, name in sorted(found)]


def test_no_module_reads_the_environment():
    """Every input that can move a verdict is a flag the artifact records
    in its ``config``, so no module may read an environment variable."""
    assert environment_reads(PACKAGE.glob("*.py")) == []


def test_scan_finds_an_environment_read(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "import os as system\n"
        "from os import getenv, path\n"
        "environ = {}\n"
        "def f(name):\n"
        "    root = os.path.join(os.sep, name)\n"
        "    return os.environ.get(name) or system.getenv(name) or environ\n",
        encoding="utf-8",
    )
    assert environment_reads([module]) == [
        "m.py:3: getenv", "m.py:7: environ", "m.py:7: getenv"]


JSON_WRITERS = {"dump", "dumps"}


def json_writes(paths) -> list[str]:
    """Places in ``paths`` that write JSON text: an attribute named
    ``dump``/``dumps`` (``json.dumps``) or one of those names imported
    from ``json``."""
    found = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in JSON_WRITERS:
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                found.extend((path.name, node.lineno, alias.name)
                             for alias in node.names
                             if alias.name in JSON_WRITERS)
    return [f"{file}:{line}: {name}" for file, line, name in sorted(found)]


def test_only_pipeline_writes_json_text():
    """Every artifact and every JSON stdout goes through
    ``pipeline.canonical_json``, so no other module may call ``json.dumps``."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "pipeline.py"]
    assert json_writes(paths) == []
    assert json_writes([PACKAGE / "pipeline.py"]) != []


def test_scan_finds_a_json_write(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import json\n"
        "import json as codec\n"
        "from json import dumps, loads\n"
        "def f(doc, handle):\n"
        "    text = json.loads(json.dumps(doc))\n"
        "    codec.dump(doc, handle)\n"
        "    return dumps(loads(text))\n",
        encoding="utf-8",
    )
    assert json_writes([module]) == [
        "m.py:3: dumps", "m.py:5: dumps", "m.py:6: dump"]


# The readers of outside input: both report parsers in ``ingest``,
# ``GroundTruth.from_dict`` in ``evaluation``, ``mappings_from_artifact``
# in ``pipeline`` and the shape helpers they share in ``errors``.
PARSERS = {"snapshot_from_dict", "_snapshot_from_xml", "from_dict",
           "mappings_from_artifact", "_fields", "_items"}
READER_MODULES = ("ingest.py", "evaluation.py", "pipeline.py", "errors.py")
VALUE_CHECKS = {"is_json_int", "is_number"}
SHAPE_TYPES = {"dict", "list"}


def parser_value_checks(path: Path) -> list[str]:
    """Value checks inside the input readers of ``path``: a call to
    ``is_json_int``/``is_number``, or an ``isinstance`` whose class
    argument is anything but ``dict`` or ``list``."""
    found = []
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(function, ast.FunctionDef) and function.name in PARSERS):
            continue
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in VALUE_CHECKS or (
                    name == "isinstance"
                    and getattr(node.args[-1], "id", None) not in SHAPE_TYPES):
                found.append((node.lineno, node.col_offset, function.name,
                              ast.unparse(node)))
    return [f"{name}:{line}: {call}" for line, _, name, call in sorted(found)]


def test_report_parsers_check_only_shape():
    """Every value rule of a report, a ground truth or a mapping artifact
    lives in the data types; the readers check objects and arrays and
    leave the rest to the constructors."""
    paths = [PACKAGE / name for name in READER_MODULES]
    defined = {node.name for path in paths
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert PARSERS <= defined
    assert [check for path in paths for check in parser_value_checks(path)] == []


def test_scan_finds_a_value_check_in_a_parser(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from . import errors\n"
        "def snapshot_from_dict(doc):\n"
        "    if not isinstance(doc, dict) or isinstance(doc['v'], list):\n"
        "        return None\n"
        "    if not isinstance(doc['v'], str) or errors.is_json_int(doc['i']):\n"
        "        return None\n"
        "    return isinstance(doc['t'], (str, type(None)))\n"
        "def _snapshot_from_xml(text):\n"
        "    return is_number(text)\n"
        "def other(doc):\n"
        "    return isinstance(doc, str) and is_json_int(doc)\n",
        encoding="utf-8",
    )
    assert parser_value_checks(module) == [
        "snapshot_from_dict:5: isinstance(doc['v'], str)",
        "snapshot_from_dict:5: errors.is_json_int(doc['i'])",
        "snapshot_from_dict:7: isinstance(doc['t'], (str, type(None)))",
        "_snapshot_from_xml:9: is_number(text)",
    ]


def test_one_function_decodes_json():
    """``json.load`` and ``json.loads`` are read only in
    ``errors.json_document``, so every input document decodes, and fails,
    one way."""
    reads = [read for name in ("load", "loads")
             for read in scoped_reads(PACKAGE.glob("*.py"), name)]
    assert reads
    assert [r for r in reads if not r.endswith(": errors.json_document")] == []


def test_main_maps_three_exception_types():
    """``cli.main`` turns ``ConfigError``, ``CloneMapError`` and ``OSError``
    into exit codes 2, 3 and 4 and names no ``json`` exception: a decode
    failure is a ``ReportParseError`` by then."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handlers = [node for node in ast.walk(main) if isinstance(node, ast.ExceptHandler)]
    assert [ast.unparse(h.type) for h in handlers] == [
        "ConfigError", "CloneMapError", "OSError"]
    assert not any(isinstance(node, ast.Name) and node.id == "json"
                   for node in ast.walk(main))


def test_every_exported_name_resolves():
    """A stale entry in ``__all__`` breaks ``from clonemap import *``."""
    missing = [name for name in clonemap.__all__ if not hasattr(clonemap, name)]
    assert missing == []


PACKAGE_ROOT = """
import json, sys
import clonemap

facts = {"loaded": "clonemap.evaluation" in sys.modules}
facts["missing_from_dir"] = sorted(set(clonemap.__all__) - set(dir(clonemap)))
facts["loaded_by_dir"] = "clonemap.evaluation" in sys.modules
star = {}
exec("from clonemap import *", star)
facts["unbound_by_star"] = sorted(set(clonemap.__all__) - set(star))
import clonemap.evaluation as evaluation
# The exported names defined in the evaluation module, each bound by the
# star import to the very object the module holds.
facts["evaluation"] = sorted(
    name for name in clonemap.__all__
    if getattr(star[name], "__module__", None) == evaluation.__name__
    and getattr(clonemap, name) is star[name] is getattr(evaluation, name))
try:
    clonemap.no_such_name
except AttributeError as exc:
    facts["error"] = str(exc)
print(json.dumps(facts))
"""


def test_package_root_loads_evaluation_on_first_access():
    """``import clonemap`` leaves the scorer and the generator unloaded,
    yet lists, binds and resolves their six names as before; a name the
    package lacks still raises ``AttributeError``. Run in a fresh
    interpreter, since this one has loaded everything."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", PACKAGE_ROOT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "loaded": False,
        "missing_from_dir": [],
        "loaded_by_dir": False,
        "unbound_by_star": [],
        "evaluation": ["EvalReport", "GroundTruth", "SynthConfig",
                       "generate_evolution", "load_ground_truth", "score"],
        "error": "module 'clonemap' has no attribute 'no_such_name'",
    }


def settable_values() -> list[str]:
    """Every publicly settable value, sorted: each parameter with a default
    of a public function, constructor or method defined in a ``clonemap``
    module (exceptions, enums and names starting with ``_`` left out),
    plus each option of each CLI subcommand but ``--help``."""
    found = []
    for info in pkgutil.iter_modules(clonemap.__path__):
        module = importlib.import_module(f"clonemap.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_")
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if inspect.isfunction(obj):
                callables = {name: obj}
            elif (inspect.isclass(obj)
                  and not issubclass(obj, (BaseException, enum.Enum))):
                callables = {name: obj}
                callables.update(
                    (f"{name}.{attr}", getattr(obj, attr))
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_") and (
                        inspect.isfunction(member)
                        or isinstance(member, (staticmethod, classmethod))))
            else:
                continue
            found.extend(f"{module.__name__}.{label}({param.name})"
                         for label, fn in callables.items()
                         for param in inspect.signature(fn).parameters.values()
                         if param.default is not inspect.Parameter.empty)
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    found.extend(f"clonemap {command} {action.option_strings[-1]}"
                 for command, parser in subcommands.choices.items()
                 for action in parser._actions
                 if action.option_strings
                 and not isinstance(action, argparse._HelpAction))
    return sorted(found)


SETTABLE_VALUES = 77


def test_publicly_settable_values_are_counted():
    """Fewer settable values is progress, so a change that adds or removes
    one must move this pin, where a reviewer sees it."""
    values = settable_values()
    assert len(values) == SETTABLE_VALUES, "\n".join(values)
