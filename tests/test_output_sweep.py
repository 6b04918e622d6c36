"""Every output byte of the CLI on the demo traces, pinned by digest.

scripts/output_sweep.py runs 45 commands on one trace directory and prints
one line of sha256 digests per command: stdout, stderr, written files, exit
code.  tests/data/demo_sweep.txt holds its output on the traces that
scripts/make_demo_traces.py writes with its default seed, so a change that
moves any of those bytes fails here.  Regenerate the file only with a change
meant to alter output, and say which lines change and why.
"""

import os
import subprocess
import sys
from pathlib import Path

import wattscope

SRC = Path(wattscope.__file__).resolve().parent.parent
ROOT = SRC.parent


def test_demo_sweep_matches_the_recorded_digests(tmp_path):
    demo = subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_traces.py"), "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert demo.returncode == 0, demo.stderr
    sweep = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_sweep.py"), str(tmp_path)],
                           capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert sweep.returncode == 0, sweep.stderr
    expected = (ROOT / "tests" / "data" / "demo_sweep.txt").read_text(encoding="utf-8")
    assert sweep.stdout.splitlines() == expected.splitlines()
