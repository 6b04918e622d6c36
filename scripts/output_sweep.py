#!/usr/bin/env python3
"""Print one digest line per command of the CLI output sweep on one trace directory.

    PYTHONPATH=src python3 scripts/output_sweep.py TRACE_DIR

TRACE_DIR holds the files that perfbench/gen.py and make_demo_traces.py
write.  Each of the 45 commands below runs in process through
wattscope.cli.run, in a scratch directory holding copies of those files, so
that no path in the output says where the traces are.  Each line gives the
first 16 hex digits of the sha256 of stdout, of stderr and of each file the
command wrote (name=digest, or "-" for none), then the exit code and the
command.  Two trees give the same lines when every output byte is the same,
so diffing this script's output, with each tree's src on PYTHONPATH, checks
that a change keeps every output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

FILES = ("power.jsonl", "external.jsonl", "proc.jsonl", "pidmap.jsonl", "jobs.jsonl", "capacities.json")
RAW = ["--power", "power.jsonl", "--proc", "proc.jsonl", "--pidmap", "pidmap.jsonl", "--jobs", "jobs.jsonl"]
SAVED = ["--jobs", "jobs.jsonl", "--slices", "slices.jsonl"]
CAL = ["--power", "power.jsonl", "--external", "external.jsonl"]
MEM = ["report", "gpu-hist", "--proc", "proc.jsonl", "--metric", "mem"]


def commands() -> list[tuple[dict, list[str]]]:
    """(environment, argv) per command; the first writes stdout as slices.jsonl, which later ones read."""
    argvs = [
        ["attribute", *RAW],
        ["attribute", *RAW, "--threads", "2"],
        ["validate", *RAW, "--external", "external.jsonl"],
        ["validate", "--jobs", "jobs.jsonl"],
        ["validate", "--slices", "slices.jsonl"],
        ["calibrate", *CAL, "--model", "model.jsonl"],
        ["calibrate", *CAL, "--format", "csv"],
        ["calibrate", *CAL, "--format", "json"],
    ]
    for what in ("status", "user"):
        for extra in ([], ["--model", "model.jsonl"], ["--format", "json"], ["--max-gap-s", "3"]):
            argvs.append(["report", what, *RAW, *extra])
    for what in ("status", "user"):
        for extra in ([], ["--model", "model.jsonl", "--format", "csv"], ["--format", "json", "--column", "gpu"],
                      ["--column", "cpu", "--max-gap-s", "0.5"]):
            argvs.append(["report", what, *SAVED, *extra])
    argvs += [
        ["report", "gpu-hist", "--proc", "proc.jsonl"],
        ["report", "gpu-hist", "--proc", "proc.jsonl", "--format", "json", "--bins", "7"],
        ["report", "gpu-hist", "--proc", "proc.jsonl", "--per-job-mean", "--pidmap", "pidmap.jsonl", "--jobs", "jobs.jsonl"],
        MEM,
        [*MEM, "--capacities", "capacities.json"],
        [*MEM, "--capacities", "capacities.json", "--format", "json"],
        [*MEM, "--capacities", "capacities.json", "--format", "csv", "--bins", "3"],
        ["--help"],
        *([command, "--help"] for command in ("validate", "attribute", "calibrate", "report")),
        # usage errors
        [],
        ["validate"],
        ["attribute", "--power", "power.jsonl"],
        ["report", "status", *SAVED, "--bins", "0"],
        ["report", "gpu-hist", "--format", "xml"],
        # a model file that is not a model, and a slices file that is not slices
        ["report", "status", *SAVED, "--model", "jobs.jsonl"],
        ["report", "status", "--jobs", "jobs.jsonl", "--slices", "power.jsonl"],
        ["validate", "--slices", "power.jsonl"],
    ]
    return [({}, argv) for argv in argvs] + [({"WATTSCOPE_FORMAT": "json"}, ["report", "status", *SAVED])]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _files(directory: Path) -> dict[str, str]:
    return {path.name: _digest(path.read_bytes()) for path in sorted(directory.iterdir())}


def sweep(trace_dir: str) -> list[str]:
    """The digest lines of every command on the traces in trace_dir."""
    from wattscope.cli import run

    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name in FILES:
            shutil.copyfile(Path(trace_dir, name), Path(work, name))
        os.chdir(work)
        try:
            for env, argv in commands():
                before = _files(Path(work))
                out, err = io.StringIO(), io.StringIO()
                os.environ.update(env)
                try:  # argparse prints --help to sys.stdout
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = run(argv, out, err)
                finally:
                    for key in env:
                        del os.environ[key]
                written = [f"{name}={sha}" for name, sha in _files(Path(work)).items() if before.get(name) != sha]
                lines.append(" ".join([
                    _digest(out.getvalue().encode()), _digest(err.getvalue().encode()), ",".join(written) or "-",
                    str(code), shlex.join([f"{k}={v}" for k, v in env.items()] + ["wattscope", *argv]),
                ]))
                if not Path(work, "slices.jsonl").exists():
                    Path(work, "slices.jsonl").write_text(out.getvalue(), encoding="utf-8")
        finally:
            os.chdir(cwd)
    return lines


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} TRACE_DIR")
    for key in [k for k in os.environ if k.startswith("WATTSCOPE_")]:  # every flag falls back to one
        del os.environ[key]
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal's width
    trace_dir = os.path.abspath(sys.argv[1])
    for line in sweep(trace_dir):
        print(line)


if __name__ == "__main__":
    main()
