"""Every name the package exports is used by the package itself or by a demo.

A name counts as used when it is read (as a name or an attribute) in
``src/consensus_lab`` outside its own definition and outside ``__init__.py``,
or anywhere in ``demos/``.  Code that only the tests need lives in
``tests/oracles.py`` instead.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "consensus_lab"


def exported_names() -> set:
    tree = ast.parse((PKG / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def read_names(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def used_names() -> set:
    used = set()
    for path in sorted(PKG.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            names = read_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            used |= names
    for path in sorted((ROOT / "demos").glob("*.py")):
        used |= read_names(ast.parse(path.read_text()))
    return used


def test_no_export_exists_only_for_tests():
    exported = exported_names()
    assert len(exported) > 50
    assert sorted(exported - used_names()) == []
