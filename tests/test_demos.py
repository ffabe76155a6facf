"""Smoke test: the narrative demos run to completion.

``04_benchmark_handlers.py`` is left out; it times every handler on the
larger models and takes about ten seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_model_and_validity.py", "02_bdd_playground.py",
         "03_generate_and_verify.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
