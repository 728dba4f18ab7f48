"""Every benchmark module still imports against the package.

Each module under perfbench/ is imported in a fresh interpreter with src/
and perfbench/ on the path, the way the benchmark runs it, so a package
change that drops or moves a name the benchmark imports fails here. No
benchmark function is called. probe.py is left out: it runs at import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
MODULES = sorted(p.stem for p in PERFBENCH.glob("*.py") if p.name != "probe.py")


def test_modules_are_found():
    assert "workloads" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_perfbench_module_imports(module):
    path = os.pathsep.join([str(REPO / "src"), str(PERFBENCH)])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", f"import {module}"], cwd=PERFBENCH, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
