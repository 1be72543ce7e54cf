"""Each script under demos/ runs to completion.

The demos import spikecrown from the source tree: the absolute source
root goes first on the child's PYTHONPATH, as in test_cli.run_cli.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spikecrown

SOURCE_ROOT = str(Path(spikecrown.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    # an empty glob would leave test_demo_runs with nothing to run
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SOURCE_ROOT, env.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
