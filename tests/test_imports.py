"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

Inside one test process the packages are already loaded in some order, so
an import cycle that only bites a particular first import stays hidden;
each import here runs in its own subprocess.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SUBPACKAGES = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.") if info.ispkg
)


def test_subpackages_discovered():
    assert {"repro.core", "repro.engine", "repro.sim"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("package", ["repro"] + SUBPACKAGES)
def test_fresh_import(package):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
