"""Which commands load numpy and the thread pool.

Every CLI command is a fresh interpreter, so an import that a command never
uses is paid on each call.  numpy is loaded only by the commands that
compute with arrays (attribute, report on raw traces, calibrate --affine);
calibrate's scale-only fit sums with math.fsum instead.  No command loads
concurrent.futures.  Each check runs in a subprocess so that modules
loaded by the test session do not count.
"""

import io
import json
import subprocess
import sys
from pathlib import Path

import wattscope
from wattscope.cli import run
from helpers import write_status_split_fixture

SRC = str(Path(wattscope.__file__).resolve().parent.parent)
HEAVY = ("numpy", "concurrent.futures")

# Runs each (name, argv) in order in one interpreter and prints, per step,
# the exit code and which of HEAVY are loaded by then.
PROBE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
import wattscope, wattscope.cli

def loaded():
    return {name: name in sys.modules for name in %r}

steps = {"import": {"code": 0, **loaded()}}
for name, argv in json.loads(sys.argv[2]):
    code = wattscope.cli.run(argv, io.StringIO(), io.StringIO())
    steps[name] = {"code": code, **loaded()}
print(json.dumps(steps))
""" % (HEAVY,)


def probe(steps):
    result = subprocess.run(
        [sys.executable, "-c", PROBE, SRC, json.dumps(steps)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def raw_flags(f):
    return ["--power", f["power"], "--proc", f["proc"], "--pidmap", f["pidmap"], "--jobs", f["jobs"]]


def test_light_commands_never_load_numpy_or_the_thread_pool(tmp_path):
    f = write_status_split_fixture(tmp_path)
    out = io.StringIO()
    assert run(["attribute", *raw_flags(f)], stdout=out, stderr=io.StringIO()) == 0
    slices = tmp_path / "slices.jsonl"
    slices.write_text(out.getvalue(), encoding="utf-8")

    steps = probe([
        ("validate", ["validate", *raw_flags(f), "--external", f["external"], "--slices", str(slices)]),
        ("report_slices", ["report", "status", "--jobs", f["jobs"], "--slices", str(slices), "--model", f["model"]]),
        ("report_user", ["report", "user", "--jobs", f["jobs"], "--slices", str(slices)]),
        ("gpu_hist", ["report", "gpu-hist", "--proc", f["proc"], "--per-job-mean",
                      "--pidmap", f["pidmap"], "--jobs", f["jobs"]]),
        ("calibrate", ["calibrate", "--power", f["power"], "--external", f["external"],
                       "--model", str(tmp_path / "model.out")]),
        ("attribute", ["attribute", *raw_flags(f)]),
    ])
    for name in ("import", "validate", "report_slices", "report_user", "gpu_hist", "calibrate"):
        assert steps[name] == {"code": 0, "numpy": False, "concurrent.futures": False}, name
    assert steps["attribute"] == {"code": 0, "numpy": True, "concurrent.futures": False}


def test_only_the_affine_fit_loads_numpy(tmp_path):
    f = write_status_split_fixture(tmp_path)
    steps = probe([("calibrate_affine", ["calibrate", "--power", f["power"], "--external", f["external"], "--affine"])])
    assert steps["calibrate_affine"] == {"code": 0, "numpy": True, "concurrent.futures": False}
