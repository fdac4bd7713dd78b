"""Every demo script runs to completion against the current package.

Each script runs from a copy under tmp_path, so the output it writes next
to itself stays out of the source tree. The scripts share that copy's
output directory, so they run in name order, as their numbering intends.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(__file__).resolve().parents[1] / "src"


def test_demos_run_in_order(tmp_path):
    scripts = sorted(DEMOS.glob("*.py"))
    assert scripts
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for script in scripts:
        copy = tmp_path / script.name
        shutil.copy(script, copy)
        result = subprocess.run(
            [sys.executable, str(copy)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, f"{script.name}:\n{result.stderr}"
