"""The quick demos run to completion.  Demos 05 and 06 take seconds each
and run in CI instead."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_language_tour.py", "02_catalog_and_hierarchy.py",
                                  "03_paxos_machine.py", "04_adversaries.py"])
def test_demo_exits_cleanly(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
