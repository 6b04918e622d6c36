"""Seeded trace sets for the benchmark workloads (stdlib only).

The generator writes the wire formats directly, one JSON object per line,
and never imports wattscope or the test helpers.  Workload bytes therefore
stay fixed when the library's record types or the test scenario builders
change shape; a benchmark whose inputs moved with the code under test
could not compare two commits.

Every workload writes, into one directory:

  power.jsonl      software meters (cpu<N>, gpu<N>)
  external.jsonl   wall meter ("ext"), a known scale of the software sum
                   with +-2 % multiplicative noise
  proc.jsonl       process snapshots
  pidmap.jsonl     pid -> job ownership snapshots
  jobs.jsonl       scheduler records
  capacities.json  per-GPU memory capacity

and returns a ``Truth`` with what the correctness checks need: the
generated power series, the true scale per node, the proc snapshot
instants per node and the number of GPU samples without an SM reading.

Run as a script to write one workload for inspection:

  python3 perfbench/gen.py gpu-shared --seed 1 --out some/dir
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("gpu-shared", "meter-dense")

FILES = ("power", "external", "proc", "pidmap", "jobs")

STATUSES = ("COMPLETED", "COMPLETED", "COMPLETED", "FAILED", "CANCELLED", "TIMEOUT", "NODE_FAIL")
USERS = ("alice", "bob", "carol", "dave", "erin", "frank", "grace")

EXT_NOISE = 0.02
GPU_MEM_MIB = 40960.0


@dataclass
class Truth:
    """What the generator knows that the program has to reproduce."""

    nodes: list[str]
    # node -> kind ("cpu" | "gpu") -> list of (ts list, watts list), one per series
    series: dict[str, dict[str, list[tuple[list[float], list[float]]]]] = field(default_factory=dict)
    scale: dict[str, float] = field(default_factory=dict)  # true ext / software scale per node
    ticks: dict[str, list[float]] = field(default_factory=dict)  # proc snapshot instants per node
    gpu_samples: int = 0  # proc samples attached to a GPU
    gpu_sm_absent: int = 0  # ... of which carry no sm_pct


def ms(t: float) -> float:
    return round(t, 3)


class _Writer:
    """Buffers JSON lines for one file and writes them once."""

    def __init__(self, path: Path):
        self.path = path
        self.lines: list[str] = []

    def add(self, obj: dict) -> None:
        self.lines.append(json.dumps(obj, separators=(",", ":")))

    def close(self) -> None:
        self.path.write_text("\n".join(self.lines) + "\n", encoding="utf-8")


def _interp(ts: list[float], ws: list[float], t: float) -> float | None:
    """Linear interpolation inside the series span; None outside it."""
    if t < ts[0] or t > ts[-1]:
        return None
    lo, hi = 0, len(ts) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ts[mid] <= t:
            lo = mid
        else:
            hi = mid
    if ts[lo] == t:
        return ws[lo]
    return ws[lo] + (ws[hi] - ws[lo]) * (t - ts[lo]) / (ts[hi] - ts[lo])


def _walk(rng: random.Random, t0: float, t1: float, period: float, lo: float, hi: float):
    """A bounded random-walk power series sampled every ~period seconds."""
    ts: list[float] = []
    ws: list[float] = []
    t = ms(t0)
    w = rng.uniform(lo, hi)
    while t <= t1:
        ts.append(t)
        ws.append(round(w, 3))
        w = min(max(w + rng.uniform(-0.05, 0.05) * (hi - lo), lo), hi)
        t = ms(t + period * rng.uniform(0.9, 1.1))
    return ts, ws


def _ticks(rng: random.Random, n: int, period: float, n_gaps: int) -> list[float]:
    """n snapshot instants ~period apart, n_gaps of the intervals being monitoring gaps.

    The gap count is fixed, not drawn, so that a seed changes values and
    positions but not the amount of work.
    """
    gaps = set(rng.sample(range(n - 1), n_gaps))
    out = [0.0]
    for i in range(n - 1):
        if i in gaps:
            dt = 15.0 * rng.uniform(0.9, 1.1)  # longer than the 10 s default --max-gap-s
        else:
            dt = period * rng.uniform(0.97, 1.03)
        out.append(ms(out[-1] + dt))
    return out


class _Builder:
    """Shared bookkeeping: meters, jobs and the truth record."""

    def __init__(self, rng: random.Random, out: Path, nodes: list[str]):
        self.rng = rng
        self.out = out
        self.truth = Truth(nodes=list(nodes))
        self.w = {name: _Writer(out / f"{name}.jsonl") for name in FILES}
        self.next_job = 1
        self.next_pid = {node: 1000 + 10000 * i for i, node in enumerate(nodes)}

    def pid(self, node: str) -> int:
        self.next_pid[node] += 1
        return self.next_pid[node]

    def job(self, node: str, start: float, end: float) -> int:
        job_id = self.next_job
        self.next_job += 1
        self.w["jobs"].add(
            {
                "job": job_id,
                "user": USERS[self.rng.randrange(len(USERS))],
                "node": node,
                "submit": ms(max(0.0, start - self.rng.uniform(0.0, 120.0))),
                "start": start,
                "end": end,
                "status": STATUSES[self.rng.randrange(len(STATUSES))],
            }
        )
        return job_id

    def meters(self, node: str, span: float, cpu: tuple[int, float], gpu: tuple[int, float]) -> None:
        """Write software meters and the wall meter for one node.

        cpu/gpu are (count, sampling period in seconds).  Series start up
        to 2 s late so some early midpoints are uncovered.
        """
        rng = self.rng
        kinds: dict[str, list[tuple[list[float], list[float]]]] = {"cpu": [], "gpu": []}
        for kind, (count, period), lo, hi in (("cpu", cpu, 20.0, 240.0), ("gpu", gpu, 30.0, 400.0)):
            for index in range(count):
                ts, ws = _walk(rng, rng.uniform(-1.0, 2.0), span + rng.uniform(1.0, 3.0), period, lo, hi)
                kinds[kind].append((ts, ws))
                src = f"{kind}{index}"
                for t, w in zip(ts, ws):
                    self.w["power"].add({"node": node, "src": src, "ts": t, "w": w})
        self.truth.series[node] = kinds

        scale = round(rng.uniform(1.15, 1.6), 4)
        self.truth.scale[node] = scale
        every = kinds["cpu"] + kinds["gpu"]
        t = ms(rng.uniform(0.0, 1.0))
        while t <= span:
            parts = [_interp(ts, ws, t) for ts, ws in every]
            soft = sum(p for p in parts if p is not None)
            w = round(scale * soft * (1.0 + rng.uniform(-EXT_NOISE, EXT_NOISE)), 3)
            self.w["external"].add({"node": node, "src": "ext", "ts": t, "w": w})
            t = ms(t + 1.0)

    def proc(self, node: str, ts: float, pid: int, cpu_s: float, gpu=None, sm=None, mem=None) -> None:
        obj: dict = {"node": node, "ts": ts, "pid": pid, "cpu_s": round(cpu_s, 3)}
        if gpu is not None:
            obj["gpu"] = gpu
            self.truth.gpu_samples += 1
            if sm is None:
                self.truth.gpu_sm_absent += 1
            else:
                obj["sm_pct"] = sm
            if mem is not None:
                obj["mem_mib"] = mem
        self.w["proc"].add(obj)

    def pidmap(self, node: str, ts: float, mapping: list[list[int]]) -> None:
        self.w["pidmap"].add({"node": node, "ts": ts, "map": mapping})

    def close(self, gpus_per_node: int) -> Truth:
        for w in self.w.values():
            w.close()
        caps = {node: {str(g): GPU_MEM_MIB for g in range(gpus_per_node)} for node in self.truth.nodes}
        (self.out / "capacities.json").write_text(json.dumps(caps, sort_keys=True) + "\n", encoding="utf-8")
        return self.truth


def _gpu_shared(b: _Builder, scale: float) -> int:
    """2 nodes x 8 GPUs, 32 GPU processes from 6 jobs, a pidmap every tick."""
    rng = b.rng
    n_ticks = max(8, int(190 * scale))
    for node in b.truth.nodes:
        ticks = _ticks(rng, n_ticks, 1.0, 1)
        b.truth.ticks[node] = ticks
        end = ms(ticks[-1] + 1.0)
        pids = [b.pid(node) for _ in range(32)]
        jobs = [b.job(node, 0.0, end) for _ in range(6)]
        owner = {pid: jobs[k * 6 // 32] for k, pid in enumerate(pids)}
        gpu = {pid: k % 8 for k, pid in enumerate(pids)}
        clock = {pid: rng.uniform(0.0, 50.0) for pid in pids}
        for t in ticks:
            b.pidmap(node, t, [[pid, owner[pid]] for pid in pids if rng.random() < 0.97])
            for pid in pids:
                clock[pid] += rng.uniform(0.0, 0.3)
                roll = rng.random()
                sm = None if roll < 0.25 else 0.0 if roll < 0.5 else round(rng.uniform(1.0, 100.0), 1)
                mem = None if rng.random() < 0.3 else round(rng.uniform(200.0, 30000.0), 1)
                b.proc(node, t, pid, clock[pid], gpu[pid], sm, mem)
        b.meters(node, ticks[-1], cpu=(1, 1.0), gpu=(8, 1.0))
    return 8


def _meter_dense(b: _Builder, scale: float) -> int:
    """2 nodes x 4 processes x 2 GPUs, snapshots every 5 s, meters at 4-5 Hz."""
    rng = b.rng
    span = max(60.0, 500.0 * scale)
    for node in b.truth.nodes:
        ticks = _ticks(rng, int(span / 5.0) + 1, 5.0, 0)
        b.truth.ticks[node] = ticks
        end = ms(ticks[-1] + 5.0)
        jobs = [b.job(node, 0.0, end) for _ in range(2)]
        pids = [b.pid(node) for _ in range(4)]
        owner = {pid: jobs[k // 2] for k, pid in enumerate(pids)}
        gpu = {pids[0]: 0, pids[2]: 1}
        clock = {pid: 0.0 for pid in pids}
        for i, t in enumerate(ticks):
            if i % 12 == 0:
                b.pidmap(node, t, [[pid, owner[pid]] for pid in pids])
            for pid in pids:
                clock[pid] += rng.uniform(0.0, 5.0)
                g = gpu.get(pid)
                sm = round(rng.uniform(5.0, 100.0), 1) if g is not None else None
                mem = round(rng.uniform(1000.0, 30000.0), 1) if g is not None else None
                b.proc(node, t, pid, clock[pid], g, sm, mem)
        b.meters(node, ticks[-1], cpu=(2, 0.2), gpu=(2, 0.25))
    return 2


_SHAPES = {
    "gpu-shared": (2, _gpu_shared),
    "meter-dense": (2, _meter_dense),
}


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> Truth:
    """Write one workload's trace set into out; same (workload, seed, scale), same bytes."""
    if workload not in _SHAPES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    n_nodes, shape = _SHAPES[workload]
    out.mkdir(parents=True, exist_ok=True)
    b = _Builder(random.Random(f"{workload}:{seed}:{scale}"), out, [f"n{i + 1}" for i in range(n_nodes)])
    gpus = shape(b, scale)
    return b.close(gpus)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    truth = generate(args.workload, args.seed, Path(args.out), args.scale)
    print(json.dumps({"nodes": truth.nodes, "scale": truth.scale, "gpu_sm_absent": truth.gpu_sm_absent}))


if __name__ == "__main__":
    main()
