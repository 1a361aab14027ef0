"""Every demo script runs to completion and prints the bytes it printed
when its digest was taken."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The SHA-256 of each demo's standard output.  Every demo is deterministic:
# a change of any printed byte is a change of a verdict, a report or a
# table, and must come with a new digest.
STDOUT_SHA256 = {
    "automorphism_patterns": "5529d2a5f9ba2002cba06bc6d9570139befca9c15e66897991cca94e72982bbb",
    "classification_sweep": "4a1658585ba529cef52d099e1e1814536658877619ef200cb4be7457302e1e25",
    "octahedral_six": "df4a8f6e388237bb7bc7ce58e03243a3f12b112f2b62e7f873d989af43aac754",
    "placement_tour": "cb970738b84b01e4ff337ed401fc81b841c366bcdf83ce9e7beb825eca860be8",
}


def test_the_four_demos_are_found():
    assert [d.name for d in DEMOS] == [
        "automorphism_patterns.py",
        "classification_sweep.py",
        "octahedral_six.py",
        "placement_tour.py",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
