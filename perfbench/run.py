#!/usr/bin/env python3
"""Benchmark of the wattscope CLI pipeline: wall time and memory per step.

  python3 perfbench/run.py --workload gpu-shared --seed 1 --seconds 56 --trace 0

Run from the root of a source checkout; the package need not be installed.
The benchmark generates a seeded trace set (gen.py), then replays a fixed
five-step pipeline against it as subprocesses (`python -m wattscope ...`
with PYTHONPATH=src), as one client in a closed loop: each command starts
only after the previous one has exited.  It repeats the pipeline until
--seconds have passed and reports per-step medians.  Every output is
checked (checks.py); a failed check counts as a failed operation and
makes the run exit 1.

With --trace 0 the final stdout line carries the end-to-end metrics.  With
--trace 1 it carries the per-layer metrics of an in-process traced replay
of the same pipeline (traced.py), whose spans go to .perfbench_runs/.
Every run appends its environment (git sha, Python and numpy versions,
nproc) and metrics to .perfbench_runs/runs.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402

STEPS = ("attribute", "calibrate", "report_slices", "report_raw", "gpu_hist")
RUN_LIMIT_S = 160  # no command outlives this; the whole run must end within 180 s
MIN_REPS = 3
SETUP_PROBES_FIRST = 4  # before the first repetition; then one per repetition

END_TO_END = {
    "pipeline_s": "s",
    "attribute_s": "s",
    "calibrate_s": "s",
    "report_slices_s": "s",
    "report_raw_s": "s",
    "gpu_hist_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("WATTSCOPE_")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return env


class Inputs:
    """Paths of one generated trace set and of the pipeline's outputs."""

    def __init__(self, work: Path):
        self.work = work
        for name in gen.FILES:
            setattr(self, name, str(work / f"{name}.jsonl"))
        self.model = str(work / "model.out")

    def out(self, step: str) -> Path:
        return self.work / f"{step}.out"

    def argv(self, step: str) -> list[str]:
        raw = ["--power", self.power, "--proc", self.proc, "--pidmap", self.pidmap, "--jobs", self.jobs]
        return {
            "setup": ["validate", "--jobs", self.jobs],
            "attribute": ["attribute", *raw],
            "calibrate": ["calibrate", "--power", self.power, "--external", self.external, "--model", self.model],
            "report_slices": ["report", "status", "--jobs", self.jobs, "--slices", str(self.out("attribute")), "--model", self.model],
            "report_raw": ["report", "status", *raw, "--model", self.model],
            "gpu_hist": ["report", "gpu-hist", "--proc", self.proc, "--per-job-mean", "--pidmap", self.pidmap, "--jobs", self.jobs],
        }[step]


def run_child(inputs: Inputs, step: str, env: dict[str, str], timeout: float) -> tuple[float, float, int]:
    """Run one CLI command to completion; return (wall s, max RSS MiB, exit code).

    A command still running after `timeout` seconds is killed.
    """
    with inputs.out(step).open("wb") as out, (inputs.work / f"{step}.err").open("wb") as err:
        start = time.perf_counter()
        cmd = [sys.executable, "-m", "wattscope", *inputs.argv(step)]
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode  # ru_maxrss is KiB on Linux


class Pipeline:
    """Runs and checks the five-step pipeline; counts operations and failures."""

    def __init__(self, inputs: Inputs, truth: gen.Truth, deadline: float | None = None):
        self.inputs = inputs
        self.truth = truth
        self.deadline = deadline if deadline is not None else time.perf_counter() + RUN_LIMIT_S
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []
        self.times: dict[str, list[float]] = {step: [] for step in STEPS}
        self.pipeline_s: list[float] = []
        self.rss_mib: list[float] = []
        self.digests: dict[str, str] = {}

    def record(self, step: str, problems: list[str]) -> None:
        """Count one attempted operation, failed if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{step}: {p}" for p in problems)

    def probe_setup(self, record: bool = True) -> None:
        """Time a no-op invocation: interpreter start plus package import."""
        wall, _, code = self._run("setup")
        if record:
            self.setup_s.append(wall)
            self.record("setup", self._basic("setup", code))

    def _run(self, step: str) -> tuple[float, float, int]:
        return run_child(self.inputs, step, self.env, self.deadline - time.perf_counter())

    def _basic(self, step: str, code: int) -> list[str]:
        if code != 0:
            err = (self.inputs.work / f"{step}.err").read_text(encoding="utf-8", errors="replace").strip()
            return [f"exit code {code}: {err[-300:]}"]
        if self.inputs.out(step).stat().st_size == 0:
            return ["empty stdout"]
        return []

    def _digest(self, step: str) -> str:
        h = hashlib.sha256(self.inputs.out(step).read_bytes())
        if step == "calibrate":
            h.update(Path(self.inputs.model).read_bytes())
        return h.hexdigest()

    def _verify(self, step: str) -> list[str]:
        """Full checks on the first output of a step; later ones must match it byte for byte."""
        digest = self._digest(step)
        if step in self.digests:
            return [] if digest == self.digests[step] else ["output differs from the first repetition"]
        self.digests[step] = digest
        if step == "attribute":
            return checks.slices(self.inputs.out(step), self.truth)
        if step == "calibrate":
            return checks.models(Path(self.inputs.model), self.truth)
        if step == "gpu_hist":
            return checks.gpu_hist(self.inputs.out(step).read_text(encoding="utf-8"), self.truth)
        return []

    def rep(self) -> None:
        """One closed-loop pass over the pipeline, then its checks (untimed)."""
        total = 0.0
        peak = 0.0
        codes = {}
        for step in STEPS:
            wall, rss, codes[step] = self._run(step)
            self.times[step].append(wall)
            total += wall
            peak = max(peak, rss)
        self.pipeline_s.append(total)
        self.rss_mib.append(peak)
        for step in STEPS:
            problems = self._basic(step, codes[step])
            if not problems:
                problems = self._verify(step)
            if step == "report_raw" and not problems:
                if self.inputs.out("report_raw").read_bytes() != self.inputs.out("report_slices").read_bytes():
                    problems = ["stdout differs from report_slices"]
            self.record(step, problems)

    def end_to_end(self) -> dict[str, float]:
        """Medians over the run's repetitions and setup probes."""
        med = statistics.median
        out = {"pipeline_s": med(self.pipeline_s)}
        for step in STEPS:
            out[f"{step}_s"] = med(self.times[step])
        out["peak_rss_mib"] = med(self.rss_mib)
        out["setup_s"] = med(self.setup_s)
        return out


def closed_loop(pipeline: Pipeline, seconds: float, between=None) -> int:
    """Repeat the pipeline for about `seconds`, at least MIN_REPS times unless
    the run deadline comes first."""
    pipeline.probe_setup(record=False)  # compiles bytecode; not a user-visible cost
    start = time.perf_counter()
    for _ in range(SETUP_PROBES_FIRST):
        pipeline.probe_setup()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        pipeline.probe_setup()
        pipeline.rep()
        if between is not None:
            between()
        durations.append(time.perf_counter() - t0)
        next_end = time.perf_counter() + statistics.median(durations)
        if next_end > pipeline.deadline or (len(durations) >= MIN_REPS and next_end > start + seconds):
            return len(durations)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def _input_summary(inputs: Inputs) -> str:
    parts = []
    total = 0
    for name in gen.FILES:
        data = Path(getattr(inputs, name)).read_bytes()
        total += len(data)
        lines = data.count(b"\n")
        parts.append(f"{name}={lines}")
    return " ".join(parts) + f" lines, {total / 2**20:.2f} MiB"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "wattscope" / "__init__.py").is_file():
        print(f"error: no wattscope sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    env = environment()
    work = RUNS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = Inputs(work)
        truth = gen.generate(args.workload, args.seed, work)
        print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        print("inputs " + _input_summary(inputs))
        pipeline = Pipeline(inputs, truth, deadline)
        if args.trace:
            import traced

            replay = traced.Replay(args.workload, SRC, inputs, truth)
            reps = closed_loop(pipeline, args.seconds, between=lambda: pipeline.record("traced", replay.rep()))
            values, absent = replay.metrics(pipeline.end_to_end()["pipeline_s"])
            units = traced.UNITS
            spans_path = RUNS / f"spans-{args.workload}-{args.seed}.json"
            replay.write(spans_path, env)
            print(f"spans written to {spans_path.relative_to(ROOT)}")
            for name in absent:
                print(f"absent: {name} (a public name it needs is gone)")
        else:
            reps = closed_loop(pipeline, args.seconds)
            values = pipeline.end_to_end()
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in pipeline.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    failed_frac = pipeline.failed / pipeline.attempted
    for name, value in values.items():
        print(f"{name:40s} {value:12.6g} {units[name]}")
    print(f"{'failed_frac':40s} {failed_frac:12.6g} ratio  ({pipeline.failed} of {pipeline.attempted} operations)")
    print(f"samples: {reps} pipeline repetitions, {len(pipeline.setup_s)} setup probes")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    RUNS.mkdir(exist_ok=True)
    with (RUNS / "runs.jsonl").open("a", encoding="utf-8") as fh:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
                  "reps": reps, "failed_frac": failed_frac, "metrics": metrics}
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    correct = pipeline.failed == 0
    print(json.dumps({"correct": correct, "attempted": pipeline.attempted, "failed": pipeline.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
