"""Every runnable script in demos/ exits cleanly and prints the lines it must."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("bianchi_tables", "matrix_lax", "operadic_family", "oscillator_flow",
         "quantum_anomalies")
# whole lines a demo prints: each constant entry as Poly text, C9's as C4's
PRINTS = {"operadic_family": ("  C4 = 1: residual zero; mu^1_{23} = (-1), mu^2_{31} = (-1) ",
                              "  C9 = 1: residual zero; mu^3_{12} = (1) ")}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in PRINTS.get(demo, ()):
        assert line in lines, line
