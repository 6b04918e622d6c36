#!/usr/bin/env python3
"""Self-tests of the benchmark, on reduced-size instances of every workload.

  python3 perfbench/selftest.py

From the root of a source checkout, this checks that:

- the generator is deterministic: the same seed gives the same bytes and
  another seed gives other bytes;
- the generated inputs pass `wattscope validate`;
- the library's attribute matches tests/helpers.naive_attribute at rel 1e-9;
- the benchmark's checks accept the program's outputs, and reject a slice
  that no longer conserves power and a model with the wrong scale;
- BENCHMARK.json names exactly the metrics the benchmark prints;
- run.py fails, printing no result, where there are no sources to measure.

It exits 1 after reporting every failure.
"""

from __future__ import annotations

import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_runs" / "selftest"
SCALE = 0.05
REL = 1e-9

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def determinism(workload: str) -> None:
    a, b, c = (WORK / f"{workload}-{tag}" for tag in ("a", "b", "c"))
    gen.generate(workload, 7, a, SCALE)
    gen.generate(workload, 7, b, SCALE)
    gen.generate(workload, 8, c, SCALE)
    expect(_bytes(a) == _bytes(b), f"{workload}: same seed, same bytes")
    expect(_bytes(a) != _bytes(c), f"{workload}: another seed, other bytes")


def validate(inputs: run.Inputs) -> None:
    argv = ["validate"]
    for name in gen.FILES:
        argv += [f"--{name}", getattr(inputs, name)]
    out, err = io.StringIO(), io.StringIO()
    from wattscope import cli

    code = cli.run(argv, out, err)
    expect(code == 0 and out.getvalue().startswith("ok:"), f"{inputs.work.name}: inputs pass validate ({err.getvalue().strip()})")


def matches_naive(inputs: run.Inputs) -> None:
    from helpers import naive_attribute
    from wattscope import TraceBundle, attribute, build_timelines, parse_jobs, parse_pidmap, parse_power_trace, parse_proc_trace

    def load(fn, path):
        with open(path, encoding="utf-8") as fh:
            return fn(fh)

    power = load(parse_power_trace, inputs.power)
    procs = load(parse_proc_trace, inputs.proc)
    pidmap = load(parse_pidmap, inputs.pidmap)
    slices = attribute(TraceBundle.build(power, procs), build_timelines(pidmap, load(parse_jobs, inputs.jobs)))
    ref = naive_attribute(power, procs, pidmap)

    def close(a, b):
        return math.isclose(a, b, rel_tol=REL, abs_tol=REL)

    ok = len(slices) == len(ref) > 0
    for s, r in zip(slices, ref):
        ok = ok and s.node_id == r["node"] and (s.interval.t0, s.interval.t1) == (r["t0"], r["t1"])
        ok = ok and set(s.per_job) == set(r["jobs"])
        ok = ok and all(close(s.per_job[j].cpu_w, c) and close(s.per_job[j].gpu_w, g) for j, (c, g) in r["jobs"].items())
        ok = ok and close(s.unattributed_cpu_w, r["unattr_cpu"]) and close(s.unattributed_gpu_w, r["unattr_gpu"])
    expect(ok, f"{inputs.work.name}: attribute matches naive_attribute on {len(ref)} slices")


def checks_discriminate(workload: str, inputs: run.Inputs, truth: gen.Truth) -> None:
    pipeline = run.Pipeline(inputs, truth)
    pipeline.rep()
    expect(pipeline.failed == 0 and pipeline.attempted == len(run.STEPS),
           f"{workload}: pipeline passes its checks {pipeline.problems[:3]}")

    slices = inputs.out("attribute")
    lines = slices.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[0])
    obj["unattr_cpu_w"] += 1e-3
    broken = inputs.work / "broken-slices.out"
    broken.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n", encoding="utf-8")
    expect(bool(checks.slices(broken, truth)), f"{workload}: conservation check rejects a slice off by 1 mW")
    broken.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    expect(bool(checks.slices(broken, truth)), f"{workload}: slice check rejects a missing slice")

    models = [json.loads(line) for line in Path(inputs.model).read_text(encoding="utf-8").splitlines()]
    models[0]["k"] *= 1.02
    bad_model = inputs.work / "broken-model.out"
    bad_model.write_text("".join(json.dumps(m) + "\n" for m in models), encoding="utf-8")
    expect(bool(checks.models(bad_model, truth)), f"{workload}: calibration check rejects a scale 2 % off")


def benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect(layers == traced.UNITS, "BENCHMARK.json per_layer matches traced.UNITS")
    expect([w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS), "BENCHMARK.json workloads match gen.WORKLOADS")


def bare_directory() -> None:
    bare = WORK / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", gen.WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout, "run.py fails without sources, printing no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for workload in gen.WORKLOADS:
            determinism(workload)
            inputs = run.Inputs(WORK / workload)
            truth = gen.generate(workload, 3, inputs.work, SCALE)
            validate(inputs)
            matches_naive(inputs)
            checks_discriminate(workload, inputs, truth)
        benchmark_json()
        bare_directory()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
