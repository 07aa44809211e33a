"""The demo scripts run to completion against the current package.

The two training demos take about half a minute and stay out of this suite.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = [
    "alignment_variants.py",
    "command_line_tour.py",
    "frames_under_rotation.py",
    "invariant_logits.py",
    "paper_scale_step.py",
    "searches_and_sampling.py",
]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_cleanly(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(REPO / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
