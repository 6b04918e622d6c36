"""Builders, random scenario generators and independent oracles.

The oracles here deliberately avoid the library's code paths: linear
scans instead of indexes, rational arithmetic instead of floats, full
materialization instead of streaming.  Tests compare library output
against these.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from wattscope import (
    AttributionSlice,
    JobRecord,
    PidMapSnapshot,
    PowerSample,
    ProcSnapshot,
    parse_source,
)

GAP_DEFAULT_S = 10.0


def ms(x: float) -> float:
    return round(float(x), 3)


def power_sample(node: str, src: str, ts: float, w: float) -> PowerSample:
    return PowerSample(node, parse_source(src), ms(ts), float(w))


def proc_snap(node, ts, pid, cpu_s, gpu=None, sm=None, mem=None) -> ProcSnapshot:
    return ProcSnapshot(node, ms(ts), pid, float(cpu_s), gpu, sm, mem)


def pidmap_snap(node: str, ts: float, mapping: dict[int, int]) -> PidMapSnapshot:
    return PidMapSnapshot(node, ms(ts), tuple(sorted(mapping.items())))


def job_record(job_id, node="n1", user="u1", submit=0.0, start=0.0, end=100000.0, status="COMPLETED") -> JobRecord:
    return JobRecord(job_id, user, node, ms(submit), ms(start), ms(end), status)


def jsonl(records) -> str:
    """Power, proc, pidmap, job or slice records as the JSON lines the readers take, written with json.dumps.

    The library writes none of these formats but slices, and the fixtures
    depend on no library writer; a proc reading or an ext watt that is None
    is left out, as on the wire.
    """
    lines = []
    for r in records:
        if isinstance(r, PowerSample):
            src = r.source.kind if r.source.index is None else f"{r.source.kind}{r.source.index}"
            obj = {"node": r.node_id, "src": src, "ts": r.ts, "w": r.power_w}
        elif isinstance(r, ProcSnapshot):
            obj = {"node": r.node_id, "ts": r.ts, "pid": r.pid, "cpu_s": r.cpu_time_s}
            for key, value in (("gpu", r.gpu_index), ("sm_pct", r.gpu_sm_pct), ("mem_mib", r.gpu_mem_mib)):
                if value is not None:
                    obj[key] = value
        elif isinstance(r, PidMapSnapshot):
            obj = {"node": r.node_id, "ts": r.ts, "map": [list(p) if isinstance(p, tuple) else p for p in r.assignments]}
        elif isinstance(r, JobRecord):
            obj = {"job": r.job_id, "user": r.user, "node": r.node_id, "submit": r.t_submit, "start": r.t_start,
                   "end": r.t_end, "status": r.status}
        elif isinstance(r, AttributionSlice):
            jobs = {}
            for job_id, p in r.per_job.items():
                jobs[str(job_id)] = {"cpu_w": p.cpu_w, "gpu_w": p.gpu_w}
                if p.ext_w is not None:
                    jobs[str(job_id)]["ext_w"] = p.ext_w
            obj = {"node": r.node_id, "t0": r.interval.t0, "t1": r.interval.t1, "jobs": jobs,
                   "unattr_cpu_w": r.unattributed_cpu_w, "unattr_gpu_w": r.unattributed_gpu_w}
            if r.unattributed_ext_w is not None:
                obj["unattr_ext_w"] = r.unattributed_ext_w
        else:
            raise TypeError(f"no wire format for {type(r).__name__}")
        lines.append(json.dumps(obj) + "\n")
    return "".join(lines)


# ---------------------------------------------------------------- oracles


def lerp_series(points: list[tuple[float, float]], t: float) -> float | None:
    """Segment-walk linear interpolation; None outside the series span."""
    if not points or t < points[0][0] or t > points[-1][0]:
        return None
    for (t0, w0), (t1, w1) in zip(points, points[1:]):
        if t0 <= t <= t1:
            if t1 == t0:
                return w0
            return w0 + (w1 - w0) * (t - t0) / (t1 - t0)
    return points[-1][1]


def covers_midpoint(first: float, last: float, t0: float, t1: float) -> bool:
    """Whether a series spanning [first, last] covers the midpoint of [t0, t1], in whole milliseconds.

    Coverage is exact: 2 * first_ms <= t0_ms + t1_ms <= 2 * last_ms.
    """
    return 2 * round(first * 1000) <= round(t0 * 1000) + round(t1 * 1000) <= 2 * round(last * 1000)


def lerp_at_midpoint(points: list[tuple[float, float]], t0: float, t1: float) -> float | None:
    """A series at the midpoint of [t0, t1]; None unless covers_midpoint.

    The value is lerp_series at the float midpoint, held within the span
    where rounding puts the midpoint just outside it.
    """
    if not covers_midpoint(points[0][0], points[-1][0], t0, t1):
        return None
    return lerp_series(points, min(max((t0 + t1) / 2.0, points[0][0]), points[-1][0]))


def is_gap(t0: float, t1: float, max_gap_s: float = GAP_DEFAULT_S) -> bool:
    """Whether the slice [t0, t1] is a monitoring gap: longer than max_gap_s, in whole milliseconds.

    The length is a whole number of ms, made seconds by one division, so a
    slice of 300 ms is not a gap under 0.3 s wherever it lies.
    """
    return (round(t1 * 1000) - round(t0 * 1000)) / 1000 > max_gap_s


def latest_snapshot_at(snapshots, node: str, t: float) -> PidMapSnapshot | None:
    best = None
    for s in snapshots:
        if s.node_id == node and s.ts <= t and (best is None or s.ts > best.ts):
            best = s
    return best


def owner_oracle(snapshots, node: str, pid: int, t: float) -> int | None:
    best = latest_snapshot_at(snapshots, node, t)
    if best is None:
        return None
    return dict(best.assignments).get(pid)


def job_pids_oracle(snapshots, node: str, job_id: int, t: float) -> frozenset[int]:
    best = latest_snapshot_at(snapshots, node, t)
    if best is None:
        return frozenset()
    return frozenset(pid for pid, j in best.assignments if j == job_id)


def frac_shares(weights: dict[int, float], power: float) -> tuple[dict[int, float], float]:
    """Proportional split in exact rational arithmetic; job 0 -> unattributed."""
    total = sum(Fraction(v) for v in weights.values())
    if total == 0:
        return {}, power
    p = Fraction(power)
    shares: dict[int, float] = {}
    unattr = Fraction(0)
    for j, v in weights.items():
        share = p * Fraction(v) / total
        if j == 0:
            unattr += share
        else:
            shares[j] = float(share)
    return shares, float(unattr)


def gpu_shares_oracle(procs_on_gpu, power: float) -> tuple[dict[int, float], float]:
    if not procs_on_gpu:
        return {}, power
    sm: dict[int, float] = {}
    mem: dict[int, float] = {}
    for j, s, m in procs_on_gpu:
        sm[j] = sm.get(j, 0.0) + (s or 0.0)
        mem[j] = mem.get(j, 0.0) + (m or 0.0)
    if any(v > 0 for v in sm.values()):
        weights = sm
    elif any(v > 0 for v in mem.values()):
        weights = mem
    else:
        weights = {j: 1.0 for j in sm}
    return frac_shares(weights, power)


def naive_attribute(power, procs, pidmap_snaps):
    """Full-materialization reference: one dict per interval per node.

    Implements the documented semantics directly: midpoint power per
    series (skipping series whose span misses the midpoint in whole
    milliseconds), cpu deltas from pids present at both endpoints,
    ownership from the latest pidmap snapshot at or before the interval
    start, GPU activity from the snapshot at interval start, shares in
    rational arithmetic.
    """
    series: dict[tuple[str, str, int | None], list[tuple[float, float]]] = {}
    for s in power:
        series.setdefault((s.node_id, s.source.kind, s.source.index), []).append((s.ts, s.power_w))
    for pts in series.values():
        pts.sort()

    by_node: dict[str, dict[float, dict[int, ProcSnapshot]]] = {}
    for p in procs:
        by_node.setdefault(p.node_id, {}).setdefault(p.ts, {})[p.pid] = p

    out = []
    for node in sorted(by_node):
        ts_list = sorted(by_node[node])
        for t0, t1 in zip(ts_list, ts_list[1:]):
            cpu_p = 0.0
            for key in sorted(series, key=lambda k: -1 if k[2] is None else k[2]):
                if key[0] == node and key[1] == "cpu":
                    v = lerp_at_midpoint(series[key], t0, t1)
                    if v is not None:
                        cpu_p += v
            at0 = by_node[node][t0]
            at1 = by_node[node][t1]
            deltas: dict[int, float] = {}
            for pid in sorted(set(at0) & set(at1)):
                owner = owner_oracle(pidmap_snaps, node, pid, t0)
                j = 0 if owner is None else owner
                deltas[j] = deltas.get(j, 0.0) + (at1[pid].cpu_time_s - at0[pid].cpu_time_s)
            cpu_map, cpu_un = frac_shares(deltas, cpu_p)

            jobs_power: dict[int, list[float]] = {j: [w, 0.0] for j, w in cpu_map.items()}
            gpu_un = 0.0
            gpu_idxs = sorted(k[2] for k in series if k[0] == node and k[1] == "gpu")
            for g in gpu_idxs:
                v = lerp_at_midpoint(series[(node, "gpu", g)], t0, t1)
                if v is None:
                    continue
                on_g = []
                for pid in sorted(at0):
                    snap = at0[pid]
                    if snap.gpu_index == g:
                        owner = owner_oracle(pidmap_snaps, node, pid, t0)
                        on_g.append((0 if owner is None else owner, snap.gpu_sm_pct, snap.gpu_mem_mib))
                gmap, gun = gpu_shares_oracle(on_g, v)
                gpu_un += gun
                for j, w in gmap.items():
                    jobs_power.setdefault(j, [0.0, 0.0])[1] += w
            out.append(
                {
                    "node": node,
                    "t0": t0,
                    "t1": t1,
                    "jobs": {j: (p[0], p[1]) for j, p in jobs_power.items()},
                    "unattr_cpu": cpu_un,
                    "unattr_gpu": gpu_un,
                }
            )
    return out


def grid_fit_oracle(software, external, lo=0.1, hi=10.0, step=1e-4):
    """Brute-force grid search for the least-squares scale, plus its MAPE.

    Evaluates sum((c*s - e)^2) = c^2*S2 - 2c*SE + E2 at every grid point
    (the expansion is exact algebra, not a closed-form solution) and
    returns the best c with the MAPE measured at that c over e > 0.
    """
    s2 = sum(s * s for s in software)
    se = sum(s * e for s, e in zip(software, external))
    e2 = sum(e * e for e in external)
    best_c = lo
    best_sse = None
    n_steps = int(round((hi - lo) / step))
    for i in range(n_steps + 1):
        c = lo + i * step
        sse = c * c * s2 - 2.0 * c * se + e2
        if best_sse is None or sse < best_sse:
            best_sse = sse
            best_c = c
    errs = [abs(best_c * s - e) / e for s, e in zip(software, external) if e > 0]
    mape = 100.0 * sum(errs) / len(errs) if errs else 0.0
    return best_c, mape


def hist_counts_oracle(values, edges) -> list[int]:
    """Per-sample bin assignment: half-open bins, last bin right-closed."""
    counts = [0] * (len(edges) - 1)
    for v in values:
        for i in range(len(counts)):
            last = i == len(counts) - 1
            if edges[i] <= v < edges[i + 1] or (last and edges[i] <= v <= edges[i + 1]):
                counts[i] += 1
                break
    return counts


# ----------------------------------------------------- scenario generation


def walk_power(rng: random.Random, node, src, t_start, t_end, dt=(0.4, 2.2), w_max=400.0):
    t = t_start
    w = rng.uniform(0.0, w_max)
    out = []
    while t <= t_end:
        out.append(power_sample(node, src, t, w))
        w = min(max(w + rng.uniform(-30.0, 30.0), 0.0), w_max)
        t = ms(t + rng.uniform(*dt))
    return out


def random_scenario(
    rng: random.Random,
    n_jobs: int = 4,
    n_gpus: int = 2,
    n_intervals: int = 100,
    n_nodes: int = 1,
    gap_prob: float = 0.02,
):
    """A randomized trace set exercising churn, gaps and unmapped work."""
    nodes = [f"nd{i}" for i in range(n_nodes)]
    statuses = ["COMPLETED", "FAILED", "CANCELLED", "TIMEOUT", "NODE_FAIL", "PREEMPTED"]
    users = ["alice", "bob", "carol", "dave", "eve"]

    next_pid = 1000
    job_node: dict[int, str] = {}
    job_pids: dict[int, list[int]] = {}
    pid_gpu: dict[int, int | None] = {}
    for j in range(1, n_jobs + 1):
        node = nodes[(j - 1) % n_nodes]
        job_node[j] = node
        pids = []
        for _ in range(rng.randint(1, 3)):
            next_pid += 1
            pids.append(next_pid)
            pid_gpu[next_pid] = rng.randrange(n_gpus) if n_gpus and rng.random() < 0.5 else None
        job_pids[j] = pids

    daemon_pids: dict[str, list[int]] = {}
    for node in nodes:
        daemon_pids[node] = []
        for _ in range(rng.randint(0, 2)):
            next_pid += 1
            daemon_pids[node].append(next_pid)
            pid_gpu[next_pid] = rng.randrange(n_gpus) if n_gpus and rng.random() < 0.3 else None

    per_node = max(2, n_intervals // max(1, n_nodes))
    procs: list[ProcSnapshot] = []
    pidmaps: list[PidMapSnapshot] = []
    power: list[PowerSample] = []
    last_tick: dict[str, float] = {}

    for node in nodes:
        ticks = [0.0]
        t = 0.0
        for _ in range(per_node):
            dt = rng.uniform(11.0, 25.0) if rng.random() < gap_prob else rng.uniform(0.5, 1.6)
            t = ms(t + dt)
            ticks.append(t)
        last_tick[node] = ticks[-1]

        node_jobs = [j for j in job_pids if job_node[j] == node]
        node_pids = [p for j in node_jobs for p in job_pids[j]] + daemon_pids[node]
        cpu_clock = {pid: rng.uniform(0.0, 5.0) for pid in node_pids}

        for i, tick in enumerate(ticks):
            if i % rng.randint(4, 9) == 0:
                mapping = {}
                for j in node_jobs:
                    for pid in job_pids[j]:
                        if rng.random() < 0.9:
                            mapping[pid] = j
                pidmaps.append(pidmap_snap(node, tick, mapping))
            for pid in node_pids:
                cpu_clock[pid] += rng.uniform(0.0, 2.0)
                if rng.random() < 0.05:
                    continue  # process not observed this tick
                gpu = pid_gpu[pid]
                sm = mem = None
                if gpu is not None:
                    roll = rng.random()
                    if roll < 0.2:
                        sm = None
                    elif roll < 0.4:
                        sm = 0.0
                    else:
                        sm = rng.uniform(0.0, 100.0)
                    mem = None if rng.random() < 0.3 else rng.uniform(0.0, 16000.0)
                procs.append(proc_snap(node, tick, pid, cpu_clock[pid], gpu, sm, mem))

        for socket in range(rng.randint(1, 2)):
            power.extend(
                walk_power(rng, node, f"cpu{socket}", ms(rng.uniform(-2.0, 1.0)), ticks[-1] + rng.uniform(-1.0, 2.0))
            )
        for g in range(n_gpus):
            power.extend(
                walk_power(rng, node, f"gpu{g}", ms(rng.uniform(-2.0, 1.0)), ticks[-1] + rng.uniform(-1.0, 2.0))
            )

    jobs = [
        job_record(
            j,
            node=job_node[j],
            user=users[(j - 1) % len(users)],
            submit=0.0,
            start=0.0,
            end=last_tick[job_node[j]] + 10.0,
            status=statuses[rng.randrange(len(statuses))],
        )
        for j in job_pids
    ]
    return {"power": power, "procs": procs, "pidmap": pidmaps, "jobs": jobs}


# ------------------------------------------------------------ CLI fixture


def write_status_split_fixture(dirpath) -> dict[str, str]:
    """Four sequential single-pid jobs whose external energies land on the
    COMPLETED/FAILED/CANCELLED/TIMEOUT = 229/76/29/235 kJ split."""
    windows = [(101, 1, 0, 229), (102, 2, 229, 305), (103, 3, 305, 334), (104, 4, 334, 569)]
    power_lines = []
    ext_lines = []
    for t in range(0, 570):
        power_lines.append(json.dumps({"node": "n1", "src": "cpu0", "ts": float(t), "w": 1000.0}))
        ext_lines.append(json.dumps({"node": "n1", "src": "ext", "ts": float(t), "w": 1000.0}))
    proc_lines = []
    for t in range(0, 570):
        for pid, _, lo, hi in windows:
            if lo <= t <= hi:
                proc_lines.append(json.dumps({"node": "n1", "ts": float(t), "pid": pid, "cpu_s": float(t - lo)}))
    pidmap_lines = [json.dumps({"node": "n1", "ts": 0.0, "map": [[pid, j] for pid, j, _, _ in windows]})]
    meta = [
        (1, "alice", 0.0, 0.0, 229.0, "COMPLETED"),
        (2, "bob", 200.0, 229.0, 305.0, "FAILED"),
        (3, "carol", 300.0, 305.0, 334.0, "CANCELLED"),
        (4, "dave", 330.0, 334.0, 569.0, "TIMEOUT"),
    ]
    job_lines = [
        json.dumps({"job": j, "user": u, "node": "n1", "submit": s, "start": st, "end": e, "status": status})
        for j, u, s, st, e, status in meta
    ]
    model_line = json.dumps({"node": "n1", "k": 1.0, "mape_pct": 0.0, "n": 570})

    paths = {}
    for name, lines in (
        ("power", power_lines),
        ("external", ext_lines),
        ("proc", proc_lines),
        ("pidmap", pidmap_lines),
        ("jobs", job_lines),
        ("model", [model_line]),
    ):
        p = dirpath / f"{name}.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[name] = str(p)
    return paths
