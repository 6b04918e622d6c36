#!/usr/bin/env python3
"""Side-by-side runs of two wattscope source trees on one trace set.

    python3 scripts/ab.py cli    --a OLD/src --b src --traces DIR [--pairs 10] [--commands attribute,report_raw]
    python3 scripts/ab.py stages --a OLD/src --b src --traces DIR [--pairs 5] [--records]

DIR holds power.jsonl, external.jsonl, proc.jsonl, pidmap.jsonl and
jobs.jsonl, as perfbench/gen.py and scripts/make_demo_traces.py write them.
Runs alternate in pairs, A B then B A, so that a drift of the machine's
speed during the session falls on both trees alike.

cli: each command runs as `python -m wattscope ...` with the tree on
PYTHONPATH, spawned from a small helper process that waits for it with
os.wait4.  The kernel charges a child at least the high-water RSS of the
process that spawned it, so a large spawner would hide the command's own
peak.  For each command it prints the wall time and peak RSS of both trees
(median and quartiles), the median and range of the per-pair ratios B/A,
the pairs that B won, and the sha256 of stdout on each side.

stages: each tree runs the command path in process, in a fresh interpreter
per run: read_power_trace, read_proc_trace, read_pidmap, check_owners,
attribute_columns, read_slices (on the serialized slices) and
integrate_energy, one after another.  A first pass times each stage; a
second, under tracemalloc, gives the bytes held after each stage and the
peak during it.  The worker runs with PYTHONHASHSEED=0; even so, runs of
one tree can differ by some dozens of bytes at a stage, so every distinct
value is printed.  --records adds attribute() on the parse_* records,
which costs far more memory than the column path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("attribute", "calibrate", "report_slices", "report_raw", "gpu_hist")

# runs one command with the helper's stdout and stderr files and prints: wall s, peak RSS KiB, exit code
HELPER = """
import os, sys, time
out, err = (os.open(p, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644) for p in sys.argv[1:3])
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[3], sys.argv[3:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - start, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""

# one in-process run of the command path; prints {stage: [seconds, current bytes, peak bytes]} as JSON
WORKER = """
import json, sys, time, tracemalloc
from wattscope.attribution import attribute_columns, integrate_energy, read_slices, serialize_slices
from wattscope.jobs import check_owners, parse_jobs, read_pidmap
from wattscope.traces import read_power_trace, read_proc_trace

d, records = sys.argv[1], sys.argv[2] == "1"

def read(clock, name, fn, *args):  # from the open file, line by line, as the commands read
    with open(f"{d}/{name}.jsonl", encoding="utf-8") as f:
        return clock(fn.__name__, fn, f, *args) if clock else fn(f, *args)

def run(clock):
    jobs = read(None, "jobs", parse_jobs)
    power = read(clock, "power", read_power_trace)
    procs = read(clock, "proc", read_proc_trace)
    owners = read(clock, "pidmap", read_pidmap)
    clock("check_owners", check_owners, owners, jobs)
    slices = clock("attribute_columns", attribute_columns, power, procs, owners)
    text = serialize_slices(slices).splitlines()
    del power, procs, owners, slices
    clock("integrate_energy", integrate_energy, clock("read_slices", read_slices, text))
    if records:
        from wattscope import TraceBundle, attribute, build_timelines, parse_pidmap, parse_power_trace, parse_proc_trace
        bundle = TraceBundle.build(read(None, "power", parse_power_trace), read(None, "proc", parse_proc_trace))
        clock("attribute(records)", attribute, bundle, build_timelines(read(None, "pidmap", parse_pidmap), jobs))

out = {}

def timed(name, fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    out[name] = [time.perf_counter() - start]
    return result

def traced(name, fn, *args):
    tracemalloc.reset_peak()
    result = fn(*args)
    out[name] += tracemalloc.get_traced_memory()
    return result

run(timed)
tracemalloc.start()
run(traced)
print(json.dumps(out))
"""


def child_env(tree: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("WATTSCOPE_")}
    env["PYTHONPATH"] = str(tree)
    return env


def cli_argv(step: str, d: Path, work: Path) -> list[str]:
    raw = ["--power", str(d / "power.jsonl"), "--proc", str(d / "proc.jsonl"), "--pidmap", str(d / "pidmap.jsonl"),
           "--jobs", str(d / "jobs.jsonl")]
    return {
        "attribute": ["attribute", *raw],
        "calibrate": ["calibrate", "--power", str(d / "power.jsonl"), "--external", str(d / "external.jsonl"),
                      "--model", str(work / "model.jsonl")],
        "report_slices": ["report", "status", "--jobs", str(d / "jobs.jsonl"), "--slices", str(work / "slices.jsonl"),
                          "--model", str(work / "model.jsonl")],
        "report_raw": ["report", "status", *raw, "--model", str(work / "model.jsonl")],
        "gpu_hist": ["report", "gpu-hist", "--proc", str(d / "proc.jsonl"), "--per-job-mean",
                     "--pidmap", str(d / "pidmap.jsonl"), "--jobs", str(d / "jobs.jsonl")],
    }[step]


def spawn(tree: Path, argv: list[str], out: Path) -> tuple[float, float, str]:
    """Run one command through the helper; returns (wall s, peak RSS MiB, sha256 of stdout)."""
    err = out.with_suffix(".err")
    cmd = [sys.executable, "-S", "-c", HELPER, str(out), str(err), sys.executable, "-m", "wattscope", *argv]
    wall, rss_kib, code = subprocess.run(cmd, env=child_env(tree), check=True, stdout=subprocess.PIPE,
                                         text=True).stdout.split()
    if code != "0":
        raise SystemExit(f"exit {code}: {' '.join(argv)}\n{err.read_text(encoding='utf-8', errors='replace')}")
    return float(wall), int(rss_kib) / 1024.0, hashlib.sha256(out.read_bytes()).hexdigest()


def summary(values: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(label: str, a: list[float], b: list[float]) -> str:
    """One line: each side's median and quartiles, the per-pair ratios B/A, and the pairs where B is lower."""
    ratios = [y / x if x else float("nan") for x, y in zip(a, b)]
    wins = sum(y < x for x, y in zip(a, b))
    return (f"{label:<34} A {summary(a):<28} B {summary(b):<28} B/A {statistics.median(ratios):.3f} "
            f"({min(ratios):.3f}-{max(ratios):.3f})  B lower {wins}/{len(a)}")


def ab_order(pairs: int):
    """A B, then B A, and so on."""
    for i in range(pairs):
        yield i, ("a", "b") if i % 2 == 0 else ("b", "a")


def cmd_cli(args, trees: dict[str, Path]) -> None:
    steps = args.commands.split(",") if args.commands else list(COMMANDS)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        work = {side: Path(tmp) / side for side in trees}
        for side, tree in trees.items():  # the model and slices that the reports read, from each side's own tree
            work[side].mkdir()
            spawn(tree, cli_argv("calibrate", args.traces, work[side]), work[side] / "model.out")
            spawn(tree, cli_argv("attribute", args.traces, work[side]), work[side] / "slices.jsonl")
        results = {(side, step): [] for side in trees for step in steps}
        for i, order in ab_order(args.pairs):
            for step in steps:
                for side in order:
                    results[side, step].append(spawn(trees[side], cli_argv(step, args.traces, work[side]),
                                                     work[side] / f"{step}.{i}.out"))
    for step in steps:
        a, b = results["a", step], results["b", step]
        print(compare(f"{step} wall_s", [r[0] for r in a], [r[0] for r in b]))
        print(compare(f"{step} peak_rss_mib", [r[1] for r in a], [r[1] for r in b]))
        digests = {side: sorted({r[2][:16] for r in results[side, step]}) for side in trees}
        same = "same" if digests["a"] == digests["b"] and len(digests["a"]) == 1 else "DIFFERENT"
        print(f"{step + ' stdout sha256':<34} A {','.join(digests['a'])}  B {','.join(digests['b'])}  {same}")


def cmd_stages(args, trees: dict[str, Path]) -> None:
    runs: dict[str, list[dict]] = {side: [] for side in trees}
    for _, order in ab_order(args.pairs):
        for side in order:
            cmd = [sys.executable, "-c", WORKER, str(args.traces), "1" if args.records else "0"]
            env = {**child_env(trees[side]), "PYTHONHASHSEED": "0"}
            out = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
            runs[side].append(json.loads(out))
    for stage in runs["a"][0]:
        a, b = ([run[stage] for run in runs[side]] for side in ("a", "b"))
        print(compare(f"{stage} s", [r[0] for r in a], [r[0] for r in b]))
        for k, what in ((1, "current"), (2, "peak")):
            values = {side: sorted({run[stage][k] for run in runs[side]}) for side in ("a", "b")}
            print(f"{stage + ' ' + what + ' bytes':<34} A {','.join(map(str, values['a']))}  "
                  f"B {','.join(map(str, values['b']))}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("mode", choices=("cli", "stages"))
    parser.add_argument("--a", type=Path, required=True, help="the first tree's src directory")
    parser.add_argument("--b", type=Path, required=True, help="the second tree's src directory")
    parser.add_argument("--traces", type=Path, required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--commands", help=f"comma-separated, of {','.join(COMMANDS)} (default: all)")
    parser.add_argument("--records", action="store_true", help="stages: also time attribute() on records")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    unknown = set(args.commands.split(",")) - set(COMMANDS) if args.commands else set()
    if unknown:
        parser.error(f"unknown commands: {', '.join(sorted(unknown))}")
    trees = {"a": args.a.resolve(), "b": args.b.resolve()}
    args.traces = args.traces.resolve()
    (cmd_cli if args.mode == "cli" else cmd_stages)(args, trees)


if __name__ == "__main__":
    main()
