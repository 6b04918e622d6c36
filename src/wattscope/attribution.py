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

from math import isfinite
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import MalformedLine, NegativeDelta, NodeMismatch, OverlappingSlices, WattscopeError
from .jobs import UNATTRIBUTED_JOB, OwnerIndex, PidTimeline, ownership_index
from .traces import (
    CPU,
    GPU,
    J_PER_KWH,
    PowerColumns,
    ProcColumns,
    TraceBundle,
    _dumps,
    _field_num,
    _field_str,
    iter_records,
)

if TYPE_CHECKING:
    import numpy as np

    from .calibration import CalibrationModel

# numpy is imported where the split uses it, so that reading, integrating
# and reporting saved slices never load it.


class _IntervalFields(NamedTuple):
    t0: float
    t1: float


class Interval(_IntervalFields):
    __slots__ = ()

    def __new__(cls, t0: float, t1: float):
        if not t1 > t0:
            raise ValueError(f"interval must have t1 > t0, got [{t0}, {t1}]")
        return super().__new__(cls, t0, t1)

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    @property
    def midpoint(self) -> float:
        return (self.t0 + self.t1) / 2.0


class JobPower(NamedTuple):
    cpu_w: float
    gpu_w: float
    ext_w: float | None = None  # set once a calibration model is applied


class AttributionSlice(NamedTuple):
    interval: Interval
    node_id: str
    per_job: Mapping[int, JobPower]
    unattributed_cpu_w: float
    unattributed_gpu_w: float
    unattributed_ext_w: float | None = None


class JobEnergy(NamedTuple):
    job_id: int
    cpu_kwh: float
    gpu_kwh: float
    ext_kwh: float | None = None  # present only after calibration


class CoverageStats(NamedTuple):
    """How much of the trace the energy integral actually covers."""

    covered_s: float
    excluded_s: float
    n_slices: int
    n_excluded: int


def _split(
    weights: np.ndarray, present: np.ndarray, power: np.ndarray, mem: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split each row's power in proportion to weights; returns (shares, has_share, unattributed).

    Rows are slices, columns jobs by ascending id, UNATTRIBUTED first; totals
    add columns in that order, as per-slice sums over sorted job ids do.  A
    row with no positive total has no evidence of who worked and stays all
    unattributed.  With mem, weights are summed sm_pct, falling back per row
    to summed mem_mib and then to 1 per job present.
    """
    import numpy as np

    if mem is not None:
        fallback = np.where((mem > 0).any(axis=1, keepdims=True), mem, present * 1.0)
        weights = np.where((weights > 0).any(axis=1, keepdims=True), weights, fallback)
    total = np.zeros(len(power))
    for j in range(weights.shape[1]):
        total += weights[:, j]
    ok = total > 0
    shares = power[:, None] * (weights / np.where(ok, total, 1.0)[:, None])
    has = present & ok[:, None]
    return shares, has, np.where(ok, 0.0 + np.where(has[:, 0], shares[:, 0], 0.0), power)


def _split_one(sums: Mapping[int, float], power: float, mem: Mapping | None = None) -> tuple[dict, float]:
    """_split of one slice; with mem, sums are sm_pct and the GPU fallback applies."""
    import numpy as np

    jobs = [UNATTRIBUTED_JOB] + sorted(j for j in sums if j != UNATTRIBUTED_JOB)
    present = np.array([[j in sums for j in jobs]])
    weights = np.array([[sums.get(j, 0.0) for j in jobs]], dtype=float)
    mem_w = None if mem is None else np.array([[mem.get(j, 0.0) for j in jobs]], dtype=float)
    shares, has, unattr = _split(weights, present, np.array([power], dtype=float), mem_w)
    per_job = {j: w for j, w, h in zip(jobs, shares[0].tolist(), has[0].tolist()) if h and j != UNATTRIBUTED_JOB}
    return per_job, float(unattr[0])


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
    return _split_one(deltas, node_power_w)


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
    sm_by_job: dict[int, float] = {}
    mem_by_job: dict[int, float] = {}
    for job_id, sm_pct, mem_mib in procs_on_gpu:
        if sm_pct is not None and not 0.0 <= sm_pct <= 100.0:
            raise ValueError(f"sm_pct {sm_pct} outside [0, 100]")
        if mem_mib is not None and mem_mib < 0:
            raise ValueError(f"negative mem_mib {mem_mib}")
        sm_by_job[job_id] = sm_by_job.get(job_id, 0.0) + (sm_pct or 0.0)
        mem_by_job[job_id] = mem_by_job.get(job_id, 0.0) + (mem_mib or 0.0)
    return _split_one(sm_by_job, gpu_power_w, mem_by_job)


def _node_slices(node: str, rows: dict, series: list, owners, procs: ProcColumns) -> list[AttributionSlice]:
    """One node's slices from its records, sorted by (ts, pid), and its power series."""
    import numpy as np

    ts, proc = rows["ts"], rows["proc"]
    first = np.append(True, ts[1:] != ts[:-1])
    tick = np.cumsum(first) - 1
    ticks = ts[first]
    n = len(ticks) - 1
    mids = (ticks[:-1] + ticks[1:]) / 2.0

    # owners under step-hold, as columns of the job axis [UNATTRIBUTED_JOB, node's jobs ascending]
    snap_ts, maps = owners or ((), ())
    jobs = [UNATTRIBUTED_JOB] + sorted({j for owner_of in maps for j in owner_of.values()})
    column = {j: c for c, j in enumerate(jobs)}
    snap = (np.searchsorted(np.asarray(snap_ts, dtype=float), ts, side="right") - 1).tolist()
    col = np.array([column[maps[s].get(procs.pids[p], 0)] if s >= 0 else 0 for s, p in zip(snap, proc.tolist())])
    n_jobs = len(jobs)

    def per_job(key: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        return np.bincount(key, weights, minlength=n * n_jobs).reshape(n, n_jobs)

    def lerp_covered(s_ts: np.ndarray, s_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A ts-sorted series linearly interpolated at the midpoints, and which midpoints its span covers."""
        return np.interp(mids, s_ts, s_w), (mids >= s_ts[0]) & (mids <= s_ts[-1])

    cpu_power = np.zeros(n)
    for kind, _, s_ts, s_w in series:
        if kind == CPU:
            values, covered = lerp_covered(s_ts, s_w)
            cpu_power += np.where(covered, values, 0.0)

    # a delta needs both endpoints; processes that appear or vanish
    # mid-interval contribute nothing observable
    by_proc = np.argsort(proc, kind="stable")
    a, b = by_proc[:-1], by_proc[1:]
    linked = (proc[a] == proc[b]) & (tick[b] == tick[a] + 1)
    nxt = np.full(len(ts), -1)
    nxt[a[linked]] = b[linked]
    both = nxt >= 0
    key = tick[both] * n_jobs + col[both]
    deltas = per_job(key, rows["cpu"][nxt[both]] - rows["cpu"][both])
    seen = per_job(key) > 0
    negative = seen & (deltas < 0)
    if negative.any():
        raise NegativeDelta(jobs[int(np.argmax(negative[np.argmax(negative.any(axis=1))]))])
    cpu_w, has_cpu, unattr_cpu = _split(deltas, seen, cpu_power)

    # GPU activity is taken from the snapshot at interval start
    gpu_w, has_gpu, unattr_gpu = np.zeros((n, n_jobs)), np.zeros((n, n_jobs), dtype=bool), np.zeros(n)
    sm, mem = (np.where(np.isnan(rows[k]), 0.0, rows[k]) for k in ("sm", "mem"))
    for kind, index, s_ts, s_w in series:
        if kind == GPU:
            values, covered = lerp_covered(s_ts, s_w)
            on = (tick < n) & (rows["gpu"] == (procs.gpus.index(index) if index in procs.gpus else -2))
            key = tick[on] * n_jobs + col[on]
            present = per_job(key) > 0
            shares, has, unattr = _split(per_job(key, sm[on]), present, values, per_job(key, mem[on]))
            has &= covered[:, None]
            gpu_w += np.where(has, shares, 0.0)
            has_gpu |= has
            unattr_gpu += np.where(covered, unattr, 0.0)

    cpu_w = np.where(has_cpu, cpu_w, 0.0)
    # every reading is finite, but their sum over the node's series need not be
    finite = np.isfinite(cpu_w).all(axis=1) & np.isfinite(gpu_w).all(axis=1)
    finite &= np.isfinite(unattr_cpu) & np.isfinite(unattr_gpu)
    if not finite.all():
        t0 = float(ticks[np.argmin(finite)])
        raise WattscopeError(f"power on node {node} is beyond the float range in the slice at t0={t0}")
    listed = (has_cpu | has_gpu).tolist()
    cpu_w, gpu_w = cpu_w.tolist(), gpu_w.tolist()
    t, u_cpu, u_gpu = ticks.tolist(), unattr_cpu.tolist(), unattr_gpu.tolist()
    return [
        AttributionSlice(
            Interval(t[i], t[i + 1]), node,
            {jobs[c]: JobPower(cpu_w[i][c], gpu_w[i][c]) for c in range(1, n_jobs) if listed[i][c]},
            u_cpu[i], u_gpu[i],
        )
        for i in range(n)
    ]


def attribute_columns(power: PowerColumns, procs: ProcColumns, owners: OwnerIndex) -> list[AttributionSlice]:
    """attribute() on trace columns and an ownership index; a repeated (node, ts, pid) counts as its last."""
    import numpy as np

    if not len(procs):
        return []
    series: dict[str, list] = {}  # node -> (kind, index, ts, w) per cpu or gpu series, by kind and index
    for (node, _), source, ts, w in sorted(
        (s for s in zip(power.keys, power.sources, power.ts, power.w) if s[1].kind in (CPU, GPU)),
        key=lambda s: (s[1].kind, s[1].index),
    ):
        series.setdefault(node, []).append((source.kind, source.index, np.frombuffer(ts), np.frombuffer(w)))

    def rank(values: list) -> np.ndarray:  # each value's place in sorted order
        return np.argsort(np.argsort(np.array(values, dtype=object), kind="stable"), kind="stable")

    proc = np.frombuffer(procs.proc, dtype=np.int32)
    ts = np.frombuffer(procs.ts)
    node = rank(procs.nodes)[np.asarray(procs.node_of)[proc]]
    order = np.lexsort((rank(procs.pids)[proc], ts, node))
    repeated = (proc[order][1:] == proc[order][:-1]) & (ts[order][1:] == ts[order][:-1])
    order = order[np.append(~repeated, True)]  # lexsort is stable: keep the last copy
    columns = {"proc": proc, "ts": ts, "gpu": np.frombuffer(procs.gpu, dtype=np.int32)}
    columns.update((k, np.frombuffer(getattr(procs, k))) for k in ("cpu", "sm", "mem"))
    out: list[AttributionSlice] = []
    with np.errstate(over="ignore", invalid="ignore"):  # _node_slices reports power beyond the float range
        for chunk in np.split(order, np.flatnonzero(np.diff(node[order])) + 1):
            name = procs.nodes[procs.node_of[proc[chunk[0]]]]
            rows = {k: v[chunk] for k, v in columns.items()}
            out.extend(_node_slices(name, rows, series.get(name, []), owners.get(name), procs))
    return out


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

    threads is validated and otherwise ignored: each node is split with
    whole-array operations, which a thread pool cannot speed up.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    power, procs = PowerColumns.of(bundle.power), ProcColumns.of(bundle.procs)
    return attribute_columns(power, procs, ownership_index(timelines))


def _gap_rule(max_gap_s: float) -> Callable[[float], bool]:
    """Whether a slice of a given duration is a monitoring gap: longer than max_gap_s."""
    if max_gap_s <= 0:
        raise ValueError("max_gap_s must be positive")
    return lambda duration_s: duration_s > max_gap_s


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
        WattscopeError: some job's energy leaves the float range.
        ValueError: max_gap_s is not positive.
    """
    is_gap = _gap_rule(max_gap_s)
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
        if is_gap(dt):
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

    for job_id, vals in sorted(acc.items()):
        if not all(map(isfinite, vals[:3])):
            who = "unattributed power" if job_id == UNATTRIBUTED_JOB else f"job {job_id}"
            raise WattscopeError(f"energy of {who} is beyond the float range")
    return {
        job_id: JobEnergy(
            job_id,
            cpu_kwh=vals[0] / J_PER_KWH,
            gpu_kwh=vals[1] / J_PER_KWH,
            ext_kwh=vals[2] / J_PER_KWH if vals[3] else None,
        )
        for job_id, vals in sorted(acc.items())
    }


def apply_calibration(
    model: CalibrationModel, slices: Sequence[AttributionSlice]
) -> list[AttributionSlice]:
    """Project slices into wall-power terms: ext_w = k * (cpu_w + gpu_w).

    Jobs and the unattributed bucket scale alike, so totals stay conserved.

    Raises:
        NodeMismatch: a slice belongs to a different node than the model.
    """
    out: list[AttributionSlice] = []
    for s in slices:
        if s.node_id != model.node_id:
            raise NodeMismatch(model.node_id, s.node_id)
        per_job = {
            job_id: JobPower(p.cpu_w, p.gpu_w, ext_w=model.k * (p.cpu_w + p.gpu_w))
            for job_id, p in s.per_job.items()
        }
        out.append(
            AttributionSlice(
                s.interval,
                s.node_id,
                per_job,
                s.unattributed_cpu_w,
                s.unattributed_gpu_w,
                unattributed_ext_w=model.k * (s.unattributed_cpu_w + s.unattributed_gpu_w),
            )
        )
    return out


def slice_coverage(slices: Sequence[AttributionSlice], max_gap_s: float = 10.0) -> CoverageStats:
    """Report how much slice time integrate_energy keeps vs excludes."""
    is_gap = _gap_rule(max_gap_s)
    covered = excluded = 0.0
    n_excluded = 0
    for s in slices:
        dt = s.interval.duration_s
        if is_gap(dt):
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
                if str(job_id) != key:  # "07", "+7", " 7" or "７" would alias job 7
                    raise ValueError
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
