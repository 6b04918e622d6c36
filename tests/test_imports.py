"""Which modules each command loads, and how many threads it starts.

Every CLI command is a fresh interpreter, so an import that a command never
uses is paid on each call.  `import wattscope` loads none of the package's
modules; each public name loads its module on first access, and the CLI
imports each module in the command that runs it, so validate reads with
traces and jobs alone.  calibrate and report gpu-hist never load
attribution: calibrate fits and prints with calibration and traces, and
gpu-hist reads proc, and the pidmap and jobs for --per-job-mean.  No command
loads numpy: the attribution split, calibrate's fit and every report run on
the stdlib, so attribute and report on raw traces load it no more than the
rest, and the record functions (parse_power_trace and fit_nodes,
parse_slices and integrate_energy) do not load it either.  No command loads
concurrent.futures or dataclasses, and the CLI starts no thread, whatever
OPENBLAS_NUM_THREADS says.  Each check runs in a subprocess so that modules
loaded by the test session do not count.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wattscope
from wattscope.cli import run
from helpers import write_status_split_fixture

SRC = str(Path(wattscope.__file__).resolve().parent.parent)
HEAVY = ("numpy", "concurrent.futures", "dataclasses")

# Imports wattscope, then wattscope.cli, then runs each (name, argv) in order
# in one interpreter.  Prints, per step, the exit code and which of HEAVY are
# loaded by then, and the package's modules loaded by then.
PROBE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return {name: name in sys.modules for name in %r}

def package():
    return sorted(name for name in sys.modules if name.startswith("wattscope."))

import wattscope
steps, modules = {"import": {"code": 0, **loaded()}}, {"import": package()}
import wattscope.cli
modules["cli"] = package()
for name, argv in json.loads(sys.argv[2]):
    code = wattscope.cli.run(argv, io.StringIO(), io.StringIO())
    steps[name], modules[name] = {"code": code, **loaded()}, package()
print(json.dumps([steps, modules]))
""" % (HEAVY,)


def probe(steps):
    """Per step: {"code": exit code, HEAVY name: loaded}, and the sorted wattscope modules loaded."""
    result = subprocess.run(
        [sys.executable, "-c", PROBE, SRC, json.dumps(steps)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def raw_flags(f):
    return ["--power", f["power"], "--proc", f["proc"], "--pidmap", f["pidmap"], "--jobs", f["jobs"]]


def test_no_command_loads_numpy(tmp_path):
    f = write_status_split_fixture(tmp_path)
    out = io.StringIO()
    assert run(["attribute", *raw_flags(f)], stdout=out, stderr=io.StringIO()) == 0
    slices = tmp_path / "slices.jsonl"
    slices.write_text(out.getvalue(), encoding="utf-8")
    calibrate = ["calibrate", "--power", f["power"], "--external", f["external"]]

    steps, _ = probe([
        ("validate", ["validate", *raw_flags(f), "--external", f["external"], "--slices", str(slices)]),
        ("report_slices", ["report", "status", "--jobs", f["jobs"], "--slices", str(slices), "--model", f["model"]]),
        ("report_user", ["report", "user", "--jobs", f["jobs"], "--slices", str(slices), "--format", "json"]),
        ("gpu_hist", ["report", "gpu-hist", "--proc", f["proc"], "--per-job-mean",
                      "--pidmap", f["pidmap"], "--jobs", f["jobs"]]),
        ("calibrate", [*calibrate, "--model", str(tmp_path / "model.out")]),
        ("calibrate_csv", [*calibrate, "--format", "csv"]),
        ("calibrate_json", [*calibrate, "--format", "json"]),
        ("attribute", ["attribute", *raw_flags(f)]),
        ("report_raw", ["report", "status", *raw_flags(f), "--model", f["model"]]),
        ("report_raw_user", ["report", "user", *raw_flags(f), "--format", "csv"]),
    ])
    assert set(steps) == {"import", "validate", "report_slices", "report_user", "gpu_hist", "calibrate", "calibrate_csv",
                          "calibrate_json", "attribute", "report_raw", "report_raw_user"}
    for name, step in steps.items():
        assert step == {"code": 0, "numpy": False, "concurrent.futures": False, "dataclasses": False}, name


def test_report_on_raw_traces_does_not_load_numpy(tmp_path):
    # in a fresh interpreter of its own, so that no earlier command's imports count
    f = write_status_split_fixture(tmp_path)
    steps, modules = probe([("report_raw", ["report", "status", *raw_flags(f), "--model", f["model"]])])
    assert steps["report_raw"] == {"code": 0, "numpy": False, "concurrent.futures": False, "dataclasses": False}
    assert "wattscope.attribution" in modules["report_raw"]


def test_record_path_does_not_load_numpy(tmp_path):
    # on the demo traces: calibration and energy from records, as a library user would run them
    script = Path(SRC).parent / "scripts" / "make_demo_traces.py"
    demo = subprocess.run([sys.executable, str(script), "--out", str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert demo.returncode == 0, demo.stderr
    out = io.StringIO()
    flags = [f"--{name}={tmp_path / name}.jsonl" for name in ("power", "proc", "pidmap", "jobs")]
    assert run(["attribute", *flags], stdout=out, stderr=io.StringIO()) == 0
    (tmp_path / "slices.jsonl").write_text(out.getvalue(), encoding="utf-8")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wattscope as w; d = sys.argv[2]; "
        "software, external = w.parse_power_trace(open(d + '/power.jsonl')), w.parse_power_trace(open(d + '/external.jsonl'), 'ext'); "
        "models = w.fit_nodes(software, external); "
        "energies = w.integrate_energy(w.parse_slices(open(d + '/slices.jsonl'))); "
        "print(sorted(m.node_id for m in models), len(energies) > 1, 'numpy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code, SRC, str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (0, "['n1', 'n2'] True False\n"), result.stderr


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    f = write_status_split_fixture(tmp_path)
    steps, modules = probe([("validate", ["validate", *raw_flags(f), "--external", f["external"]])])
    assert modules["import"] == []
    assert modules["cli"] == ["wattscope.cli", "wattscope.errors"]
    assert modules["validate"] == ["wattscope.cli", "wattscope.errors", "wattscope.jobs", "wattscope.traces"]
    assert steps["validate"] == {"code": 0, "numpy": False, "concurrent.futures": False, "dataclasses": False}


def test_calibrate_and_gpu_hist_never_load_attribution(tmp_path):
    f = write_status_split_fixture(tmp_path)
    calibrate = ["calibrate", "--power", f["power"], "--external", f["external"], "--format", "csv"]
    gpu_hist = ["report", "gpu-hist", "--proc", f["proc"], "--per-job-mean", "--pidmap", f["pidmap"], "--jobs", f["jobs"]]
    for argv, expected in (
        (calibrate, ["calibration", "cli", "errors", "traces"]),
        (gpu_hist, ["analytics", "cli", "errors", "jobs", "traces"]),
    ):
        steps, modules = probe([("command", argv)])
        assert modules["command"] == [f"wattscope.{name}" for name in expected], argv
        assert steps["command"] == {"code": 0, "numpy": False, "concurrent.futures": False, "dataclasses": False}


# Runs wattscope.cli.main() with sys.argv from the command line, then prints
# its exit code, whether numpy is loaded, and the process's thread count.
MAIN = """
import io, sys
sys.path.insert(0, sys.argv[1])
sys.argv = ["wattscope", *sys.argv[2:]]
from wattscope.cli import main

stdout, sys.stdout = sys.stdout, io.StringIO()
try:
    main()
except SystemExit as exc:
    code = exc.code
sys.stdout = stdout
with open("/proc/self/status", encoding="ascii") as fh:
    threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(code, "numpy" in sys.modules, threads)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("inherited", [None, "8"])
def test_the_cli_starts_no_blas_thread_pool(tmp_path, inherited):
    # a BLAS library would start one thread per core unless OPENBLAS_NUM_THREADS is 1; the CLI loads none
    f = write_status_split_fixture(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if inherited is not None:
        env["OPENBLAS_NUM_THREADS"] = inherited
    result = subprocess.run(
        [sys.executable, "-c", MAIN, SRC, "attribute", *raw_flags(f)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert (result.returncode, result.stdout) == (0, "0 False 1\n"), result.stderr


def test_every_public_name_resolves_on_first_access():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import wattscope; "
        "listed = set(wattscope.__all__) <= set(dir(wattscope)); "
        "star = {}; exec('from wattscope import *', star); "
        "print(listed, sorted(set(wattscope.__all__) - set(star)), wattscope.__version__, 'numpy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stdout) == (0, "True [] 0.1.0 False\n"), result.stderr
    for name in wattscope.__all__:
        assert getattr(wattscope, name) is getattr(getattr(wattscope, wattscope._MODULE_OF[name]), name)
    assert not hasattr(wattscope, "no_such_name")
