"""Correctness checks on the pipeline's outputs, against the generator's truth.

Each check returns a list of problems; an empty list means it passed.
None of them is timed.  They read the program's output files and compare
them with values the benchmark derives on its own from the generated
series, never with values the program computed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from gen import Truth, _interp

REL = 1e-9
SCALE_TOL = 0.01


def _power_at(series, t: float) -> float:
    """Sum of every series that covers t; a series that misses t adds nothing."""
    total = 0.0
    for ts, ws in series:
        v = _interp(ts, ws, t)
        if v is not None:
            total += v
    return total


def slices(path: Path, truth: Truth) -> list[str]:
    """One slice per consecutive pair of proc instants, each conserving power.

    Per slice, the jobs' cpu_w plus unattr_cpu_w must equal the node's CPU
    power at the slice midpoint, and likewise for GPU, at rel 1e-9.
    """
    problems: list[str] = []
    seen: dict[str, list[tuple[float, float]]] = {}
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            obj = json.loads(line)
            node, t0, t1 = obj["node"], obj["t0"], obj["t1"]
            seen.setdefault(node, []).append((t0, t1))
            mid = (t0 + t1) / 2.0
            for kind in ("cpu", "gpu"):
                got = sum(j[f"{kind}_w"] for j in obj["jobs"].values()) + obj[f"unattr_{kind}_w"]
                want = _power_at(truth.series[node][kind], mid)
                if not math.isclose(got, want, rel_tol=REL):
                    problems.append(f"slice line {line_no}: {node} {kind} sums to {got!r}, node power is {want!r}")
                    if len(problems) >= 5:
                        return problems
    for node in truth.nodes:
        ticks = truth.ticks[node]
        if seen.get(node, []) != list(zip(ticks, ticks[1:])):
            problems.append(f"{node}: slices do not follow the {len(ticks)} proc instants")
    return problems


def models(path: Path, truth: Truth) -> list[str]:
    """One model per node, each scale within 1 % of the generator's."""
    problems: list[str] = []
    fitted = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            fitted[obj["node"]] = obj["k"]
    if sorted(fitted) != sorted(truth.nodes):
        problems.append(f"models for {sorted(fitted)}, expected {sorted(truth.nodes)}")
    for node, k in sorted(fitted.items()):
        true_k = truth.scale.get(node)
        if true_k is None or abs(k / true_k - 1.0) > SCALE_TOL:
            problems.append(f"{node}: fitted k={k!r}, true scale {true_k!r}")
    return problems


def gpu_hist(text: str, truth: Truth) -> list[str]:
    """Bin counts sum to n, and every GPU sample without sm_pct is excluded."""
    lines = text.splitlines()
    tail = dict(part.split("=", 1) for part in lines[-1].split())
    counts = [int(line.split()[-1]) for line in lines[1:-1]]
    problems: list[str] = []
    if sum(counts) != int(tail["n"]):
        problems.append(f"gpu-hist counts sum to {sum(counts)}, n={tail['n']}")
    if int(tail["excluded"]) != truth.gpu_sm_absent:
        problems.append(f"gpu-hist excluded={tail['excluded']}, generated {truth.gpu_sm_absent} samples without sm_pct")
    return problems
