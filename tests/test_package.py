"""Tests of the package as a whole: it imports only the standard library,
and every name it exports exists."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

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
