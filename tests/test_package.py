"""Package layout: every module is reachable, no compiled sources are kept,
and only the space layer constructs clopens through the checked Clopen.make."""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def test_every_module_is_imported_by_the_package_or_cli():
    code = (
        "import json, sys\n"
        "import cantordyn, cantordyn.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cantordyn'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(res.stdout))
    modules = {
        "cantordyn." + name[:-3]
        for name in os.listdir(os.path.join(SRC, "cantordyn"))
        if name.endswith(".py") and name != "__init__.py"
    }
    assert modules - loaded == set()


def test_no_compiled_sources():
    found = []
    for path, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if not d.startswith(".")]
        found += [os.path.join(path, f) for f in files if f.endswith((".pyx", ".c"))]
    assert found == []


def test_only_space_calls_the_checked_constructor():
    # word sets the library builds itself go to space._merge; Clopen.make
    # checks words that enter from outside
    pkg = os.path.join(SRC, "cantordyn")
    callers = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name != "space.py":
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                if "Clopen.make(" in fh.read():
                    callers.append(name)
    assert callers == []
