"""Every name the package exports, and every function it defines, has a user.

An exported name counts as used when it is read (as a name or an attribute)
in ``src/consensus_lab`` outside its own definition and outside
``__init__.py``, or anywhere in ``demos/``.  A function or method defined in
``src/consensus_lab`` counts as used when it is read there outside its own
definition, read in ``demos/``, or named in ``perfbench/``, whose span
targets are strings.  Dunder methods are called by Python itself.  Code that
only the tests need lives in ``tests/oracles.py`` instead.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "consensus_lab"


def exported_names() -> set:
    tree = ast.parse((PKG / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def read_names(node) -> Counter:
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def package_modules() -> list:
    """``(module name, syntax tree)`` of each package module but ``__init__.py``."""
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(PKG.glob("*.py"))
            if path.name != "__init__.py"]


def demo_names() -> Counter:
    used = Counter()
    for path in sorted((ROOT / "demos").glob("*.py")):
        used += read_names(ast.parse(path.read_text()))
    return used


def used_names() -> set:
    used = demo_names()
    for _, tree in package_modules():
        for node in tree.body:
            names = read_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.pop(node.name, None)
            used += names
    return set(used)


def unused_functions() -> list:
    """``(module, name)`` of each function or method nothing outside tests reads."""
    modules = package_modules()
    src_reads = sum((read_names(tree) for _, tree in modules), Counter())
    outside = set(demo_names())
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        outside |= set(read_names(tree))
        outside |= {sub.value for sub in ast.walk(tree)
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}
    unused = []
    for module, tree in modules:
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if src_reads[name] > read_names(node)[name] or name in outside:
                continue
            unused.append((module, name))
    return sorted(unused)


def test_no_export_exists_only_for_tests():
    exported = exported_names()
    assert len(exported) > 50
    assert sorted(exported - used_names()) == []


def test_no_function_exists_only_for_tests():
    assert unused_functions() == []
