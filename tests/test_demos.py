"""Every demo script and README Python example runs against the current package.

Each script runs from a copy under tmp_path, so the output it writes next
to itself stays out of the source tree. The scripts share that copy's
output directory, so they run in name order, as their numbering intends.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
SRC = ROOT / "src"


def run_python(args, cwd):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


def test_demos_run_in_order(tmp_path):
    scripts = sorted(DEMOS.glob("*.py"))
    assert scripts
    for script in scripts:
        copy = tmp_path / script.name
        shutil.copy(script, copy)
        result = run_python([str(copy)], tmp_path)
        assert result.returncode == 0, f"{script.name}:\n{result.stderr}"


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for k, block in enumerate(blocks):
        result = run_python(["-c", block], tmp_path)
        assert result.returncode == 0, f"README python block {k}:\n{block}\n{result.stderr}"
