"""No module of the package imports a name it never uses, defines a private
name no module reads or a public name no module reads or exports, and no
test module imports another test module.  No linter is installed, so this
reads each module's syntax tree."""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "syndatum"


def _annotation_names(tree) -> set:
    """Names in quoted annotations such as ``-> "FittedEstimator"``."""
    notes = [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    notes += [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    quoted = [n.value for note in notes if note is not None
              for n in ast.walk(note) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    return {n.id for text in quoted for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List, Tuple\n"
        "def f(x: 'List[int]') -> str:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "sys"), (3, "Tuple")]


# __init__.py imports to re-export
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []


def _module_level_names(tree) -> set:
    """Bindings of the module body other than dunders: defs, classes and
    assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {name for name in names if not name.startswith("__")}


def unreferenced_names(sources: dict, private: bool) -> list:
    """(module, name) for each module-level ``_name`` (private) or public
    name that no module reads as a name, an attribute or an imported name;
    a re-export from ``__init__`` is an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
        read |= _annotation_names(tree)
    return sorted((module, name) for module, tree in trees.items() for name in _module_level_names(tree)
                  if name.startswith("_") == private and name not in read)


def test_the_scan_finds_a_private_name_nothing_reads():
    sources = {
        "a": "_LIMIT = 3\n_dead = 0\ndef _helper():\n    return _LIMIT\nclass _Gone:\n    pass\n"
             "def _by_attribute(): pass\n",
        "b": "from a import _helper as run\nimport a\n__all__ = ()\ndef f(x: '_Quoted'):\n    return a._by_attribute\n"
             "class _Quoted: pass\n",
    }
    assert unreferenced_names(sources, private=True) == [("a", "_Gone"), ("a", "_dead")]


def test_the_scan_finds_a_public_name_nothing_reads_or_exports():
    sources = {
        "a": "LIMIT = 3\nDEAD = 0\ndef helper():\n    return LIMIT\nclass Gone:\n    pass\n"
             "def exported(): pass\ndef by_attribute(): pass\ndef _private(): pass\n",
        "__init__": "from .a import exported\n",
        "b": "import a\ndef orphan():\n    return a.helper(), a.by_attribute\n",
    }
    assert unreferenced_names(sources, private=False) == [("a", "DEAD"), ("a", "Gone"), ("b", "orphan")]


def test_every_private_name_of_the_package_is_read_somewhere_and_defined_once():
    # one home per helper: a copy left behind in a second module is read
    # there by its own name, so only the count shows it
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    defined = Counter(name for s in sources.values() for name in _module_level_names(ast.parse(s))
                      if name.startswith("_"))
    assert len(defined) > 100 and [name for name, count in defined.items() if count > 1] == []
    assert unreferenced_names(sources, private=True) == []


def test_every_public_name_of_the_package_is_read_or_exported():
    # a public helper whose last caller went is no longer part of any path
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unreferenced_names(sources, private=False) == []


def imported_test_modules(source: str) -> list:
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [node.module] if node.module else [a.name for a in node.names]
    return sorted(name for name in names if name.split(".")[0].startswith("test_"))


def test_the_scan_finds_an_imported_test_module():
    source = "import numpy\ndef test_f():\n    from test_other import helper\n    import test_more.sub\n"
    assert imported_test_modules(source) == ["test_more.sub", "test_other"]


# importing a test module runs its decorators, and hypothesis rejects a @given
# applied inside a running @given test; shared helpers live in reference.py
@pytest.mark.parametrize("path", sorted(TESTS.glob("test_*.py")), ids=lambda p: p.name)
def test_test_module_imports_no_other_test_module(path):
    assert imported_test_modules(path.read_text()) == []
