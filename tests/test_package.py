"""The package resolves its exported names on first read: it behaves as if
it imported every name at once, whatever is imported first, and importing
one module loads only that module and the modules it imports.

Each check runs in a fresh interpreter, since the test session has already
loaded every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports the package from this
    checkout's ``src``; return its standard output."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


# Run after each first import: ``dir`` lists the names before any is read,
# the names are the objects their modules define, ``decide`` is the function
# and not the module of its name, an unknown name fails as on any module, and
# a module name gives the module.
LIKE_EAGER = """
import sys
import types
from importlib import import_module

import bipartite_tsg

assert set(bipartite_tsg.__all__) <= set(dir(bipartite_tsg))
from bipartite_tsg import decide, notation

assert decide is bipartite_tsg.decide is bipartite_tsg.decision.decide, decide
starred = {}
exec("from bipartite_tsg import *", starred)
for name in bipartite_tsg.__all__:
    if name == "__version__":
        continue
    home = import_module(f"bipartite_tsg.{bipartite_tsg._EXPORTS[name]}")
    assert getattr(bipartite_tsg, name) is vars(home)[name], name
    assert starred[name] is vars(home)[name], name
messages = []
for module in (bipartite_tsg, types.ModuleType("bipartite_tsg")):
    try:
        module.nope
    except AttributeError as error:
        messages.append(str(error))
assert messages == ["module 'bipartite_tsg' has no attribute 'nope'"] * 2, messages
assert notation is sys.modules["bipartite_tsg.notation"]
"""


@pytest.mark.parametrize(
    "first",
    [
        "import bipartite_tsg",
        "import bipartite_tsg.cli",
        "import bipartite_tsg.decision",
        "from bipartite_tsg import *",
    ],
)
def test_the_lazy_package_behaves_like_an_eager_one(first):
    run_fresh(first + "\n" + LIKE_EAGER)


@pytest.mark.parametrize(
    "statement, loaded",
    [
        (
            "import bipartite_tsg.necessity, bipartite_tsg.polyhedra",
            {"perms", "bipartite", "necessity", "polyhedra"},
        ),
        ("import bipartite_tsg.notation", {"perms", "bipartite", "notation"}),
        ("from bipartite_tsg import GROUPS", {"perms", "bipartite", "necessity"}),
    ],
)
def test_an_import_loads_only_the_modules_it_reads(statement, loaded):
    printed = run_fresh(
        statement
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted(m for m in sys.modules"
        + " if m.split('.')[0] == 'bipartite_tsg')))\n"
    )
    assert set(json.loads(printed)) == {"bipartite_tsg"} | {
        f"bipartite_tsg.{module}" for module in loaded
    }
