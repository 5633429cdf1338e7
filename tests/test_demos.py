"""The narrative demos run to completion.

Each of demos 01-04 runs as its own process in an empty working directory
(demos 03 and 04 write their artifacts under ``runs/`` there). Together they
take about 20 s on a 2-core machine. Demo 05 is left out: it runs for
minutes, and the channel pruning it shows is covered by the acceptance
gate's criterion 10.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_demo_list_is_complete():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
