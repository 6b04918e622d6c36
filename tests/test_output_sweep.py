"""Every output byte of the CLI on two trace sets, pinned by digest.

scripts/output_sweep.py runs 45 commands on one trace directory and prints
one line of sha256 digests per command: stdout, stderr, written files, exit
code.  tests/data/demo_sweep.txt holds its output on the traces that
scripts/make_demo_traces.py writes with its default seed, and
tests/data/gpu_shared_sweep.txt on those that perfbench/gen.py writes for
gpu-shared at seed 1.  The demo traces reach only the SM tier of the GPU
split; gpu-shared also reaches its memory and equal tiers.  A change that
moves any of those bytes fails here.  Regenerate a file only with a change
meant to alter output, and say which lines change and why.
"""

import os
import subprocess
import sys
from pathlib import Path

import wattscope

SRC = Path(wattscope.__file__).resolve().parent.parent
ROOT = SRC.parent


def assert_sweep_matches(trace_dir: Path, generator: list[str], recorded: str) -> None:
    made = subprocess.run([sys.executable, *generator, "--out", str(trace_dir)], capture_output=True, text=True,
                          timeout=120)
    assert made.returncode == 0, made.stderr
    sweep = subprocess.run([sys.executable, str(ROOT / "scripts" / "output_sweep.py"), str(trace_dir)],
                           capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert sweep.returncode == 0, sweep.stderr
    expected = (ROOT / "tests" / "data" / recorded).read_text(encoding="utf-8")
    assert sweep.stdout.splitlines() == expected.splitlines()


def test_demo_sweep_matches_the_recorded_digests(tmp_path):
    assert_sweep_matches(tmp_path, [str(ROOT / "scripts" / "make_demo_traces.py")], "demo_sweep.txt")


def test_gpu_shared_sweep_matches_the_recorded_digests(tmp_path):
    assert_sweep_matches(tmp_path, [str(ROOT / "perfbench" / "gen.py"), "gpu-shared", "--seed", "1"],
                         "gpu_shared_sweep.txt")
