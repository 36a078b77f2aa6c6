"""The scripts in scripts/ run end to end on their smallest family member."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_factorization_demo_passes_over_the_quotient_only():
    proc = run_script("factorization_demo.py", "--n", "3")
    assert proc.returncode == 0 and proc.stderr == ""
    quotient, free = proc.stdout.split("== over the free ring")
    names = ["alpha_chain_map", "beta_chain_map", "composite_is_x1", "positive_homology_torsion"]
    assert [line for line in quotient.splitlines() if line.endswith(": ok")] == [
        f"  {name}: ok" for name in names]
    assert "  beta_chain_map: FAILED" in free.splitlines()


def test_family_gallery():
    proc = run_script("family_gallery.py", "--nmin", "3", "--nmax", "3")
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    for title in ("family A: free ring, intersection ideal",
                  "family B: intersection quotient, tail ideal", "level intervals"):
        assert title in lines
    assert any(line.startswith("  koszul(x1) vs meet, n=3") and "[2, 2] exact" in line
               for line in lines)
