"""Which commands load numpy and the thread pool.

Every CLI command is a fresh interpreter, so an import that a command never
uses is paid on each call.  numpy is loaded only by the attribution split,
that is by attribute and by report on raw traces; calibrate sums with
math.fsum and interpolates with the stdlib, as resample_to_grid does.  No
command loads concurrent.futures.  Each check runs in a subprocess so that
modules loaded by the test session do not count.
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
    calibrate = ["calibrate", "--power", f["power"], "--external", f["external"]]

    steps = probe([
        ("validate", ["validate", *raw_flags(f), "--external", f["external"], "--slices", str(slices)]),
        ("report_slices", ["report", "status", "--jobs", f["jobs"], "--slices", str(slices), "--model", f["model"]]),
        ("report_user", ["report", "user", "--jobs", f["jobs"], "--slices", str(slices), "--format", "json"]),
        ("gpu_hist", ["report", "gpu-hist", "--proc", f["proc"], "--per-job-mean",
                      "--pidmap", f["pidmap"], "--jobs", f["jobs"]]),
        ("calibrate", [*calibrate, "--model", str(tmp_path / "model.out")]),
        ("calibrate_csv", [*calibrate, "--format", "csv"]),
        ("calibrate_json", [*calibrate, "--format", "json"]),
        ("attribute", ["attribute", *raw_flags(f)]),
    ])
    for name in ("import", "validate", "report_slices", "report_user", "gpu_hist", "calibrate", "calibrate_csv", "calibrate_json"):
        assert steps[name] == {"code": 0, "numpy": False, "concurrent.futures": False}, name
    assert steps["attribute"] == {"code": 0, "numpy": True, "concurrent.futures": False}


def test_report_on_raw_traces_loads_numpy(tmp_path):
    f = write_status_split_fixture(tmp_path)
    steps = probe([("report_raw", ["report", "status", *raw_flags(f), "--model", f["model"]])])
    assert steps["report_raw"] == {"code": 0, "numpy": True, "concurrent.futures": False}


def test_resample_to_grid_does_not_load_numpy():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wattscope; "
        "series = [wattscope.PowerSample('n1', wattscope.Source('cpu', 0), t, 10.0 * t) for t in (0.0, 1.0)]; "
        "print(wattscope.resample_to_grid(series, [-1.0, 0.25, 1.0]), 'numpy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (0, "[None, 2.5, 10.0] False\n"), result.stderr
