"""Tests of the package as a whole: it imports only the standard library,
every name it exports exists, every name a module imports is used or
exported, every private name a module defines is used, and every private
name the docs mention is defined."""

import ast
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(__file__))
SRC = os.path.join(ROOT, "src")

# Run isolated (-I: no environment variables, no user site, no script
# directory on the path), so only src/ and the interpreter's own paths
# can supply a module.
PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import foldcodes
modules = {"foldcodes": foldcodes}
for info in pkgutil.iter_modules(foldcodes.__path__):
    name = "foldcodes." + info.name
    modules[name] = importlib.import_module(name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "modules": sorted(modules),
    "foreign": sorted(loaded - set(sys.stdlib_module_names) - {"foldcodes"}),
    "missing": sorted(
        f"{name}.{attr}"
        for name, module in modules.items()
        for attr in getattr(module, "__all__", ())
        if not hasattr(module, attr)
    ),
}))
"""


def test_package_is_stdlib_only_and_exports_exist():
    out = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, SRC],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    probe = json.loads(out.stdout)
    assert {"foldcodes.arraycode", "foldcodes.cli", "foldcodes.lfsr"} <= set(
        probe["modules"]
    )
    assert probe["foreign"] == []
    assert probe["missing"] == []


def _stale_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in __all__."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names
            ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(set(imported) - used)


def test_every_import_is_used_or_exported():
    package = os.path.join(SRC, "foldcodes")
    stale = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                unused = _stale_imports(fh.read())
            if unused:
                stale[name] = unused
    assert stale == {}


def _loads(node, name: str) -> int:
    """How many times the code under node reads the name."""
    return sum(
        isinstance(n, ast.Name)
        and n.id == name
        and isinstance(n.ctx, ast.Load)
        for n in ast.walk(node)
    )


def _private_definitions(tree):
    """(name, node) for each private name a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            names = [
                n.id
                for target in targets
                for n in ast.walk(target)
                if isinstance(n, ast.Name)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _package_trees() -> dict:
    """The parsed source of each package module, by module name."""
    package = os.path.join(SRC, "foldcodes")
    trees = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def test_every_private_name_is_used():
    # a private name counts as used when its own module reads it outside
    # its definition, or a module that imports it from there reads it
    trees = _package_trees()
    imports = [
        (importer, node.module, alias.name)
        for importer, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    unused = []
    checked = 0
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            checked += 1
            uses = _loads(tree, name) - _loads(node, name)
            uses += sum(
                _loads(trees[importer], name)
                for importer, home, imported in imports
                if (home, imported) == (module, name)
            )
            if not uses:
                unused.append(f"{module}.{name}")
    assert checked > 50
    assert unused == []


# a private name in prose: an underscore that does not continue a word
# (so not s_1 or __init__), then a letter
_PRIVATE_WORD = re.compile(r"(?<!\w)_[A-Za-z]\w*")
_DOC_NODES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _bound_names(tree):
    """Every function, class and assigned name of a module, at any
    depth."""
    for node in ast.walk(tree):
        if isinstance(node, _DOC_NODES[1:]):
            yield node.name
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def test_docs_name_only_live_private_names():
    # every private name that a docstring of the package or README
    # mentions is defined in the package, so no doc points at code that
    # is gone
    trees = _package_trees()
    texts = [
        (f"{module}.py", ast.get_docstring(node) or "")
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, _DOC_NODES)
    ]
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        texts.append(("README.md", fh.read()))
    defined = {name for tree in trees.values() for name in _bound_names(tree)}
    named = {
        (where, name)
        for where, text in texts
        for name in _PRIVATE_WORD.findall(text)
    }
    assert len(named) >= 5
    assert sorted(
        f"{where}: {name}" for where, name in named if name not in defined
    ) == []
