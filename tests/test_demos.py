"""Every demo script and README Python example runs against the current package,
every README YAML block builds the config it documents, and README's
ground_truth.json example is what the package writes and reads.

Each script runs from a copy under tmp_path, so the output it writes next
to itself stays out of the source tree. The scripts share that copy's
output directory, so they run in name order, as their numbering intends.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import yaml

from esgrisk.pipeline import RunConfig, run_config_from_dict
from esgrisk.synth import GroundTruth, SynthConfig, synth_config_from_dict

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


def readme_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run(tmp_path):
    blocks = readme_blocks("python")
    assert blocks
    for k, block in enumerate(blocks):
        result = run_python(["-c", block], tmp_path)
        assert result.returncode == 0, f"README python block {k}:\n{block}\n{result.stderr}"


def test_readme_yaml_blocks_build():
    synth_yaml, run_yaml, run_defaults, synth_defaults = map(yaml.safe_load, readme_blocks("yaml"))
    synth = synth_config_from_dict(synth_yaml)
    assert [list(entry) for entry in dataclasses.asdict(synth)["planted"]] == [
        ["firm", "node", "day", "spike", "sign"]] * 2  # the YAML keys are the field names
    assert run_config_from_dict(run_yaml).paths.messages == "corpus/messages.csv"
    assert run_config_from_dict(run_defaults) == RunConfig()
    assert synth_config_from_dict(synth_defaults) == SynthConfig()
    for block, cls in ((run_defaults, RunConfig), (synth_defaults, SynthConfig)):
        assert list(block) == [f.name for f in dataclasses.fields(cls)]  # every key, in field order


def test_readme_ground_truth_block_round_trips(tmp_path):
    (block,) = readme_blocks("json")
    (tmp_path / "ground_truth.json").write_text(block, encoding="utf-8")
    truth = GroundTruth.load(tmp_path / "ground_truth.json")
    assert truth == GroundTruth.of(truth.planted, truth.injected_ar)  # truth is planted's closure
    assert json.dumps(dataclasses.asdict(truth), indent=2, sort_keys=True, default=str) + "\n" == block
