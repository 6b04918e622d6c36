"""Apportioning node power to jobs and integrating power into energy.

The unit of work is the attribution slice: one interval between two
consecutive process snapshots on one node, with node power divided among
the jobs active there.  CPU power splits proportionally to per-process
cumulative cpu-time deltas over the interval; GPU power splits per GPU
proportionally to sm utilization, falling back to memory footprint and
then to an equal split.  Whatever cannot be tied to a job is charged to
the UNATTRIBUTED pseudo-job so that power is conserved, never dropped.

Slices serialize to JSON lines:

  {"node":"n1","t0":10.0,"t1":11.0,"jobs":{"7":{"cpu_w":150.0,"gpu_w":0.0}},
   "unattr_cpu_w":0.0,"unattr_gpu_w":0.0}
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import MalformedLine, NegativeDelta, OverlappingSlices
from .jobs import UNATTRIBUTED_JOB, PidTimeline, ownership_index
from .traces import CPU, GPU, ProcSnapshot, TraceBundle, _dumps, _field_num, _field_str, iter_records

if TYPE_CHECKING:
    import numpy as np

# numpy and the thread pool are imported where attribute() uses them, so
# that reading, integrating and reporting saved slices never load them.

J_PER_KWH = 3.6e6


@dataclass(frozen=True)
class Interval:
    t0: float
    t1: float

    def __post_init__(self):
        if not self.t1 > self.t0:
            raise ValueError(f"interval must have t1 > t0, got [{self.t0}, {self.t1}]")

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    @property
    def midpoint(self) -> float:
        return (self.t0 + self.t1) / 2.0


@dataclass(frozen=True)
class JobPower:
    cpu_w: float
    gpu_w: float
    ext_w: float | None = None  # set once a calibration model is applied


@dataclass(frozen=True)
class AttributionSlice:
    interval: Interval
    node_id: str
    per_job: Mapping[int, JobPower]
    unattributed_cpu_w: float
    unattributed_gpu_w: float
    unattributed_ext_w: float | None = None


@dataclass(frozen=True)
class JobEnergy:
    job_id: int
    cpu_kwh: float
    gpu_kwh: float
    ext_kwh: float | None = None  # present only after calibration


@dataclass(frozen=True)
class CoverageStats:
    """How much of the trace the energy integral actually covers."""

    covered_s: float
    excluded_s: float
    n_slices: int
    n_excluded: int


def cpu_shares(deltas: Mapping[int, float], node_power_w: float) -> tuple[dict[int, float], float]:
    """Split node CPU power proportionally to per-job cpu-time deltas.

    The UNATTRIBUTED pseudo-job's delta routes its share to the second
    return value rather than the per-job map.  When every delta is zero
    there is no evidence of who worked, so all power is unattributed.

    Returns:
        (per-job watts, unattributed watts).

    Raises:
        NegativeDelta: some job's delta is negative.
        ValueError: node_power_w is negative.
    """
    if node_power_w < 0:
        raise ValueError("node power must be non-negative")
    for job_id in sorted(deltas):
        if deltas[job_id] < 0:
            raise NegativeDelta(job_id)
    total = sum(deltas[j] for j in sorted(deltas))
    if total <= 0:
        return {}, node_power_w
    shares: dict[int, float] = {}
    unattributed = 0.0
    for job_id in sorted(deltas):
        share = node_power_w * (deltas[job_id] / total)
        if job_id == UNATTRIBUTED_JOB:
            unattributed += share
        else:
            shares[job_id] = share
    return shares, unattributed


def gpu_shares(
    procs_on_gpu: Sequence[tuple[int, float | None, float | None]],
    gpu_power_w: float,
) -> tuple[dict[int, float], float]:
    """Split one GPU's power among the jobs with processes on it.

    Args:
        procs_on_gpu: (job_id, sm_pct, mem_mib) per process; job_id 0 marks
            a process owned by no job.  Absent readings are None.
        gpu_power_w: the GPU's power over the interval.

    Weights are per-job summed sm_pct; if all sm_pct are zero or absent,
    per-job summed mem_mib; if those are degenerate too, an equal split
    among the jobs present.  No processes at all means the GPU burned
    power nobody asked for: everything is unattributed.
    """
    if gpu_power_w < 0:
        raise ValueError("gpu power must be non-negative")
    if not procs_on_gpu:
        return {}, gpu_power_w
    sm_by_job: dict[int, float] = {}
    mem_by_job: dict[int, float] = {}
    for job_id, sm_pct, mem_mib in procs_on_gpu:
        if sm_pct is not None and not 0.0 <= sm_pct <= 100.0:
            raise ValueError(f"sm_pct {sm_pct} outside [0, 100]")
        if mem_mib is not None and mem_mib < 0:
            raise ValueError(f"negative mem_mib {mem_mib}")
        sm_by_job[job_id] = sm_by_job.get(job_id, 0.0) + (sm_pct or 0.0)
        mem_by_job[job_id] = mem_by_job.get(job_id, 0.0) + (mem_mib or 0.0)

    if any(v > 0 for v in sm_by_job.values()):
        weights = sm_by_job
    elif any(v > 0 for v in mem_by_job.values()):
        weights = mem_by_job
    else:
        weights = {job_id: 1.0 for job_id in sm_by_job}
    total = sum(weights[j] for j in sorted(weights))
    shares: dict[int, float] = {}
    unattributed = 0.0
    for job_id in sorted(weights):
        share = gpu_power_w * (weights[job_id] / total)
        if job_id == UNATTRIBUTED_JOB:
            unattributed += share
        else:
            shares[job_id] = share
    return shares, unattributed


def _series_by_key(bundle: TraceBundle) -> dict[tuple[str, str, int | None], tuple[np.ndarray, np.ndarray]]:
    import numpy as np

    grouped: dict[tuple[str, str, int | None], list[tuple[float, float]]] = {}
    for s in bundle.power:
        grouped.setdefault((s.node_id, s.source.kind, s.source.index), []).append((s.ts, s.power_w))
    out = {}
    for key, points in grouped.items():
        points.sort()
        ts = np.array([p[0] for p in points], dtype=float)
        watts = np.array([p[1] for p in points], dtype=float)
        out[key] = (ts, watts)
    return out


def _interp_covered(ts: np.ndarray, watts: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    # linear interpolation within the series span only; no extrapolation
    values = np.interp(query, ts, watts)
    covered = (query >= ts[0]) & (query <= ts[-1])
    return values, covered


def _node_slices(
    node: str,
    by_ts: dict[float, dict[int, ProcSnapshot]],
    series: dict[tuple[str, str, int | None], tuple[np.ndarray, np.ndarray]],
    own_index,
) -> list[AttributionSlice]:
    import numpy as np

    ts_list = sorted(by_ts)
    if len(ts_list) < 2:
        return []
    mids = np.array([(a + b) / 2.0 for a, b in zip(ts_list[:-1], ts_list[1:])])

    cpu_power = np.zeros(len(mids))
    for key in sorted(series, key=lambda k: (k[1], k[2] if k[2] is not None else -1)):
        if key[0] != node or key[1] != CPU:
            continue
        values, covered = _interp_covered(*series[key], mids)
        cpu_power += np.where(covered, values, 0.0)

    gpu_power: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for key in sorted(series, key=lambda k: (k[1], k[2] if k[2] is not None else -1)):
        if key[0] == node and key[1] == GPU:
            gpu_power[key[2]] = _interp_covered(*series[key], mids)

    node_owners = own_index.get(node)

    def owner_at(pid: int, t: float) -> int:
        if node_owners is None:
            return UNATTRIBUTED_JOB
        i = bisect_right(node_owners[0], t) - 1
        if i < 0:
            return UNATTRIBUTED_JOB
        return node_owners[1][i].get(pid, UNATTRIBUTED_JOB)

    slices: list[AttributionSlice] = []
    for i, (t0, t1) in enumerate(zip(ts_list[:-1], ts_list[1:])):
        at0 = by_ts[t0]
        at1 = by_ts[t1]
        deltas: dict[int, float] = {}
        for pid in sorted(at0.keys() & at1.keys()):
            # a delta needs both endpoints; processes that appear or
            # vanish mid-interval contribute nothing observable
            d = at1[pid].cpu_time_s - at0[pid].cpu_time_s
            owner = owner_at(pid, t0)
            deltas[owner] = deltas.get(owner, 0.0) + d
        cpu_map, unattr_cpu = cpu_shares(deltas, float(cpu_power[i]))

        gpu_maps: list[dict[int, float]] = []
        unattr_gpu = 0.0
        for g in sorted(gpu_power):
            values, covered = gpu_power[g]
            if not covered[i]:
                continue
            procs_on_g = [
                (owner_at(pid, t0), snap.gpu_sm_pct, snap.gpu_mem_mib)
                for pid, snap in sorted(at0.items())
                if snap.gpu_index == g
            ]
            gmap, gun = gpu_shares(procs_on_g, float(values[i]))
            gpu_maps.append(gmap)
            unattr_gpu += gun

        per_job: dict[int, JobPower] = {}
        job_ids = set(cpu_map)
        for gmap in gpu_maps:
            job_ids.update(gmap)
        for job_id in sorted(job_ids):
            per_job[job_id] = JobPower(
                cpu_w=cpu_map.get(job_id, 0.0),
                gpu_w=float(sum(gmap.get(job_id, 0.0) for gmap in gpu_maps)),
            )
        slices.append(
            AttributionSlice(Interval(t0, t1), node, per_job, unattr_cpu, unattr_gpu)
        )
    return slices


def attribute(
    bundle: TraceBundle,
    timelines: Mapping[int, PidTimeline],
    threads: int = 1,
) -> list[AttributionSlice]:
    """Attribute node power to jobs over consecutive proc-snapshot intervals.

    Per node, every pair of consecutive snapshot timestamps becomes one
    slice.  CPU deltas come from cumulative cpu-time differences of pids
    present at both endpoints, mapped to jobs by ownership at the interval
    start; node power for the interval is each series linearly resampled
    at the interval midpoint (series not covering the midpoint contribute
    nothing).  GPU activity is taken from the snapshot at interval start.

    Nodes may be processed concurrently (threads > 1); results are merged
    in node order, so output is identical for any thread count.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    series = _series_by_key(bundle)
    by_node: dict[str, dict[float, dict[int, ProcSnapshot]]] = {}
    for snap in bundle.procs:
        by_node.setdefault(snap.node_id, {}).setdefault(snap.ts, {})[snap.pid] = snap
    own_index = ownership_index(timelines)

    nodes = sorted(by_node)
    if threads == 1 or len(nodes) < 2:
        per_node = [_node_slices(n, by_node[n], series, own_index) for n in nodes]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_node = list(pool.map(lambda n: _node_slices(n, by_node[n], series, own_index), nodes))
    out: list[AttributionSlice] = []
    for chunk in per_node:
        out.extend(chunk)
    return out


def integrate_energy(
    slices: Sequence[AttributionSlice], max_gap_s: float = 10.0
) -> dict[int, JobEnergy]:
    """Integrate slice power into per-job energy (piecewise-constant).

    Slices longer than max_gap_s are monitoring gaps: they are excluded
    here and show up in slice_coverage instead.  The UNATTRIBUTED
    pseudo-job's energy is returned under job id 0.  Joules accumulate
    per job and convert to kWh once at the end (1 kWh = 3.6e6 J).

    Raises:
        OverlappingSlices: two slices on one node overlap in time.
        ValueError: max_gap_s is not positive.
    """
    if max_gap_s <= 0:
        raise ValueError("max_gap_s must be positive")
    ordered = sorted(slices, key=lambda s: (s.node_id, s.interval.t0))
    last_end: dict[str, float] = {}
    for s in ordered:
        prev = last_end.get(s.node_id)
        if prev is not None and s.interval.t0 < prev:
            raise OverlappingSlices(s.node_id, s.interval.t0)
        last_end[s.node_id] = s.interval.t1

    acc: dict[int, list] = {}  # job -> [cpu_j, gpu_j, ext_j, ext_seen]

    def bucket(job_id: int) -> list:
        return acc.setdefault(job_id, [0.0, 0.0, 0.0, False])

    for s in ordered:
        dt = s.interval.duration_s
        if dt > max_gap_s:
            continue
        for job_id in sorted(s.per_job):
            p = s.per_job[job_id]
            b = bucket(job_id)
            b[0] += p.cpu_w * dt
            b[1] += p.gpu_w * dt
            if p.ext_w is not None:
                b[2] += p.ext_w * dt
                b[3] = True
        b = bucket(UNATTRIBUTED_JOB)
        b[0] += s.unattributed_cpu_w * dt
        b[1] += s.unattributed_gpu_w * dt
        if s.unattributed_ext_w is not None:
            b[2] += s.unattributed_ext_w * dt
            b[3] = True

    return {
        job_id: JobEnergy(
            job_id,
            cpu_kwh=vals[0] / J_PER_KWH,
            gpu_kwh=vals[1] / J_PER_KWH,
            ext_kwh=vals[2] / J_PER_KWH if vals[3] else None,
        )
        for job_id, vals in sorted(acc.items())
    }


def slice_coverage(slices: Sequence[AttributionSlice], max_gap_s: float = 10.0) -> CoverageStats:
    """Report how much slice time integrate_energy keeps vs excludes."""
    if max_gap_s <= 0:
        raise ValueError("max_gap_s must be positive")
    covered = excluded = 0.0
    n_excluded = 0
    for s in slices:
        dt = s.interval.duration_s
        if dt > max_gap_s:
            excluded += dt
            n_excluded += 1
        else:
            covered += dt
    return CoverageStats(covered, excluded, len(slices), n_excluded)


def format_slice_line(s: AttributionSlice) -> str:
    jobs_obj: dict[str, dict] = {}
    for job_id in sorted(s.per_job):
        p = s.per_job[job_id]
        entry: dict = {"cpu_w": p.cpu_w, "gpu_w": p.gpu_w}
        if p.ext_w is not None:
            entry["ext_w"] = p.ext_w
        jobs_obj[str(job_id)] = entry
    obj: dict = {
        "node": s.node_id,
        "t0": s.interval.t0,
        "t1": s.interval.t1,
        "jobs": jobs_obj,
        "unattr_cpu_w": s.unattributed_cpu_w,
        "unattr_gpu_w": s.unattributed_gpu_w,
    }
    if s.unattributed_ext_w is not None:
        obj["unattr_ext_w"] = s.unattributed_ext_w
    return _dumps(obj)


def serialize_slices(slices: Iterable[AttributionSlice]) -> str:
    return "".join(format_slice_line(s) + "\n" for s in slices)


def _watt_field(obj: dict, key: str, line_no: int, required: bool = True) -> float | None:
    v = _field_num(obj, key, line_no, required=required)
    if v is not None and v < 0:
        raise MalformedLine(line_no, f"negative watt value in {key!r}")
    return v


def parse_slices(lines: Iterable[str]) -> list[AttributionSlice]:
    """Parse serialized attribution slices (the attribute subcommand's output)."""
    out: list[AttributionSlice] = []
    for line_no, obj in iter_records(lines):
        node = _field_str(obj, "node", line_no)
        t0 = _field_num(obj, "t0", line_no)
        t1 = _field_num(obj, "t1", line_no)
        if not t1 > t0:
            raise MalformedLine(line_no, "slice must have t1 > t0")
        raw_jobs = obj.get("jobs")
        if not isinstance(raw_jobs, dict):
            raise MalformedLine(line_no, "missing or invalid 'jobs'")
        per_job: dict[int, JobPower] = {}
        for key, entry in raw_jobs.items():
            try:
                job_id = int(key)
            except ValueError:
                raise MalformedLine(line_no, f"invalid job key {key!r}") from None
            if job_id < 1 or not isinstance(entry, dict):
                raise MalformedLine(line_no, f"invalid job entry for {key!r}")
            per_job[job_id] = JobPower(
                cpu_w=_watt_field(entry, "cpu_w", line_no),
                gpu_w=_watt_field(entry, "gpu_w", line_no),
                ext_w=_watt_field(entry, "ext_w", line_no, required=False),
            )
        out.append(
            AttributionSlice(
                Interval(t0, t1),
                node,
                per_job,
                unattributed_cpu_w=_watt_field(obj, "unattr_cpu_w", line_no),
                unattributed_gpu_w=_watt_field(obj, "unattr_gpu_w", line_no),
                unattributed_ext_w=_watt_field(obj, "unattr_ext_w", line_no, required=False),
            )
        )
    return out
