"""Importing the package stays cheap: scipy's slow submodules load only
in the functions that use them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_slow_scipy_submodules_unloaded():
    code = (
        "import sys, vqekit; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
