"""scripts/ab.py runs: both of its modes on the demo traces, with one tree on both sides."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wattscope

SRC = Path(wattscope.__file__).resolve().parent.parent
ROOT = SRC.parent
COMMANDS = ("attribute", "calibrate", "report_slices", "report_raw", "gpu_hist")
STAGES = ("read_power_trace", "read_proc_trace", "read_pidmap", "check_owners", "attribute_columns", "read_slices",
          "integrate_energy")


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    made = subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_traces.py"), "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert made.returncode == 0, made.stderr
    return out


def ab(*argv):
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab.py"), *argv], capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_cli_mode_compares_every_command_and_its_stdout(demo):
    lines = ab("cli", "--a", str(SRC), "--b", str(SRC), "--traces", str(demo), "--pairs", "1")
    for command in COMMANDS:
        (wall,) = [line for line in lines if line.startswith(f"{command} wall_s ")]
        assert "B lower " in wall and wall.endswith("/1")
        assert any(line.startswith(f"{command} peak_rss_mib ") for line in lines)
        (digests,) = [line for line in lines if line.startswith(f"{command} stdout sha256 ")]
        assert digests.endswith(" same"), digests
    assert len(lines) == 3 * len(COMMANDS)
    raw = [f"--{name}={demo / name}.jsonl" for name in ("power", "proc", "pidmap", "jobs")]
    attribute = subprocess.run([sys.executable, "-m", "wattscope", "attribute", *raw], capture_output=True, timeout=120,
                               env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert f" A {hashlib.sha256(attribute.stdout).hexdigest()[:16]} " in lines[2]


def test_stages_mode_gives_time_and_bytes_per_stage(demo):
    lines = ab("stages", "--a", str(SRC), "--b", str(SRC), "--traces", str(demo), "--pairs", "1", "--records")
    for stage in (*STAGES, "attribute(records)"):
        assert any(line.startswith(f"{stage} s ") for line in lines), stage
        for what in ("current", "peak"):
            (line,) = [line for line in lines if line.startswith(f"{stage} {what} bytes ")]
            a, b = line.split(" A ")[1].split("  B ")
            assert int(a) > 0 and int(b) > 0
    assert len(lines) == 3 * (len(STAGES) + 1)


def test_a_failing_command_stops_the_run(tmp_path, demo):
    (tmp_path / "jobs.jsonl").write_text("not json\n", encoding="utf-8")
    for name in ("power", "external", "proc", "pidmap"):
        (tmp_path / f"{name}.jsonl").write_bytes((demo / f"{name}.jsonl").read_bytes())
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab.py"), "cli", "--a", str(SRC), "--b", str(SRC),
                          "--traces", str(tmp_path), "--pairs", "1", "--commands", "gpu_hist"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode != 0
    assert "invalid JSON" in run.stderr
