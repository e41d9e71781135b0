"""tools/same_outputs.py: a tree compared with itself gives the same bytes."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.slow
def test_the_checkout_matches_itself():
    """Every command of the list succeeds, and two runs of one tree leave
    bitwise-equal outputs: the comparison has no nondeterministic file."""
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "same_outputs.py"),
                           ROOT, ROOT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ", 0 differ, 0 commands exited non-zero" in proc.stdout
