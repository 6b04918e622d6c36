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

The commands hold slices as SliceColumns, stdlib arrays laid out like a
sparse matrix, and build no object per slice; AttributionSlice, JobPower and
Interval are the record-level view of the same data (SliceColumns.of and
.slices convert), which attribute, parse_slices and the functions below
accept or return for lists of slices.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice, repeat
from math import isfinite, isinf, nan
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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

# numpy is imported where the split uses it, so that reading, integrating,
# calibrating and reporting saved slices never load it.


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


class SliceColumns:
    """Attribution slices as columns, laid out like a sparse CSR matrix.

    Slice i is on node nodes[node[i]] over [t0[i], t1[i]], with unattributed
    watts unattr_cpu[i], unattr_gpu[i] and unattr_ext[i].  Its jobs are the
    entries start[i] to start[i + 1] - 1, by ascending job id: entry e is job
    jobs[job[e]] with watts cpu[e], gpu[e] and ext[e].  An ext watt is NaN
    where no calibration model was applied.  Nodes and jobs are numbered on
    first sight, so every node in nodes has a slice.
    """

    __slots__ = ("nodes", "node", "t0", "t1", "unattr_cpu", "unattr_gpu", "unattr_ext",
                 "start", "jobs", "job", "cpu", "gpu", "ext", "_node_no", "_job_no")

    def __init__(self):
        self.nodes, self.jobs = [], []
        self._node_no: dict[str, int] = {}  # node -> its index in nodes
        self._job_no: dict[int, int] = {}  # job id -> its index in jobs
        self.node, self.job, self.start = array("i"), array("i"), array("q", [0])
        self.t0, self.t1, self.unattr_cpu, self.unattr_gpu, self.unattr_ext = (array("d") for _ in range(5))
        self.cpu, self.gpu, self.ext = array("d"), array("d"), array("d")

    def __len__(self) -> int:
        return len(self.t0)

    def _node_number(self, node: str) -> int:
        n = self._node_no.get(node)
        if n is None:
            n = self._node_no[node] = len(self.nodes)
            self.nodes.append(node)
        return n

    def _job_number(self, job_id: int) -> int:
        j = self._job_no.get(job_id)
        if j is None:
            j = self._job_no[job_id] = len(self.jobs)
            self.jobs.append(job_id)
        return j

    def _append(self, node: str, t0: float, t1: float, entries: list, u_cpu: float, u_gpu: float, u_ext) -> None:
        """Add one slice; entries are (job id, cpu_w, gpu_w, ext_w or None), one per job, in any order."""
        self.node.append(self._node_number(node))
        self.t0.append(t0)
        self.t1.append(t1)
        self.unattr_cpu.append(u_cpu)
        self.unattr_gpu.append(u_gpu)
        self.unattr_ext.append(nan if u_ext is None else u_ext)
        entries.sort(key=lambda entry: entry[0])
        for job_id, cpu_w, gpu_w, ext_w in entries:
            self.job.append(self._job_number(job_id))
            self.cpu.append(cpu_w)
            self.gpu.append(gpu_w)
            self.ext.append(nan if ext_w is None else ext_w)
        self.start.append(len(self.job))

    @classmethod
    def of(cls, slices: Iterable[AttributionSlice]) -> "SliceColumns":
        """Columns of already-built slices, in their order."""
        cols = cls()
        for s in slices:
            entries = [(job_id, p.cpu_w, p.gpu_w, p.ext_w) for job_id, p in s.per_job.items()]
            cols._append(s.node_id, s.interval.t0, s.interval.t1, entries,
                         s.unattributed_cpu_w, s.unattributed_gpu_w, s.unattributed_ext_w)
        return cols

    def slices(self) -> list[AttributionSlice]:
        entries = zip(self.job, self.cpu, self.gpu, self.ext)
        return [
            AttributionSlice(
                Interval(t0, t1), self.nodes[n],
                {self.jobs[j]: JobPower(cpu_w, gpu_w, None if ext_w != ext_w else ext_w)
                 for j, cpu_w, gpu_w, ext_w in islice(entries, size)},
                u_cpu, u_gpu, None if u_ext != u_ext else u_ext,
            )
            for n, t0, t1, u_cpu, u_gpu, u_ext, size in zip(
                self.node, self.t0, self.t1, self.unattr_cpu, self.unattr_gpu, self.unattr_ext, _row_sizes(self)
            )
        ]

    def _with_ext(self, unattr_ext: array, ext: array) -> "SliceColumns":
        """These slices with other ext watts; the other columns are shared, not copied."""
        out = SliceColumns.__new__(SliceColumns)
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.unattr_ext, out.ext = unattr_ext, ext
        return out


def _columns(slices: SliceColumns | Iterable[AttributionSlice]) -> SliceColumns:
    return slices if isinstance(slices, SliceColumns) else SliceColumns.of(slices)


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


def _owner_columns(ts: np.ndarray, owners, pids: np.ndarray) -> tuple[list, np.ndarray]:
    """The node's job axis [UNATTRIBUTED_JOB, jobs ascending], and the column on it of each record's owner.

    Step-hold, as owner_at: a record of pid p at time t belongs to p's job in
    the node's last snapshot at or before t, and is unattributed when there is
    no such snapshot or p is not in it.  pids holds each record's pid.
    """
    import numpy as np

    snap_ts, maps = owners or ((), ())
    held = np.array([{}, *maps], dtype=object)  # held[i] is the map in force after the first i snapshots
    in_force = held[np.searchsorted(np.asarray(snap_ts, dtype=float), ts, side="right")]
    owner = list(map(dict.get, in_force.tolist(), pids.tolist()))
    jobs = [UNATTRIBUTED_JOB] + sorted(set(owner).difference([None]))
    column = {None: 0, **{job: c for c, job in enumerate(jobs)}}
    return jobs, np.fromiter(map(column.__getitem__, owner), np.int64, len(owner))


def _node_slices(out: SliceColumns, node: str, chunk: np.ndarray, columns: dict, series: list, owners,
                 pids: np.ndarray, gpus: list) -> None:
    """Add one node's slices to out; chunk indexes its records in columns, sorted by (pid, ts)."""
    import numpy as np

    ts, proc = columns["ts"][chunk], columns["proc"][chunk]
    # return_index sorts stably, so -0.0 and 0.0 at one instant give the ts of its lowest pid
    ticks, _, tick = np.unique(ts, return_index=True, return_inverse=True)
    n = len(ticks) - 1
    if n < 1:
        return
    mids = (ticks[:-1] + ticks[1:]) / 2.0
    ms = np.rint(ticks * 1000)  # whole milliseconds, as _ms; a sum of two is exact below 2**52 ms
    twice_mids = ms[:-1] + ms[1:]
    jobs, col = _owner_columns(ts, owners, pids[proc])
    n_jobs = len(jobs)

    def per_job(key: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        return np.bincount(key, weights, minlength=n * n_jobs).reshape(n, n_jobs)

    def lerp_covered(s_ts: np.ndarray, s_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A ts-sorted series linearly interpolated at the midpoints, and which midpoints its span covers, in ms."""
        first, last = 2 * np.rint(s_ts[[0, -1]] * 1000)
        return np.interp(mids, s_ts, s_w), (twice_mids >= first) & (twice_mids <= last)

    cpu_power = np.zeros(n)
    for kind, _, s_ts, s_w in series:
        if kind == CPU:
            values, covered = lerp_covered(s_ts, s_w)
            cpu_power += np.where(covered, values, 0.0)

    # a delta needs both endpoints; processes that appear or vanish
    # mid-interval contribute nothing observable
    a = np.flatnonzero((proc[1:] == proc[:-1]) & (tick[1:] == tick[:-1] + 1))  # a and a + 1 are one process
    key = tick[a] * n_jobs + col[a]  # bincount adds each (slice, job) bin's records in pid order
    cpu_s = columns["cpu"]
    deltas = per_job(key, cpu_s[chunk[a + 1]] - cpu_s[chunk[a]])
    seen = per_job(key) > 0
    negative = seen & (deltas < 0)
    if negative.any():
        raise NegativeDelta(jobs[int(np.argmax(negative[np.argmax(negative.any(axis=1))]))])
    cpu_w, has_cpu, unattr_cpu = _split(deltas, seen, cpu_power)

    # GPU activity is taken from the snapshot at interval start
    gpu_w, has_gpu, unattr_gpu = np.zeros((n, n_jobs)), np.zeros((n, n_jobs), dtype=bool), np.zeros(n)
    gpu = columns["gpu"][chunk]
    for kind, index, s_ts, s_w in series:
        if kind == GPU:
            values, covered = lerp_covered(s_ts, s_w)
            on = (tick < n) & (gpu == (gpus.index(index) if index in gpus else -2))
            key = tick[on] * n_jobs + col[on]
            sm, mem = (np.where(np.isnan(v), 0.0, v) for v in (columns["sm"][chunk[on]], columns["mem"][chunk[on]]))
            present = per_job(key) > 0
            shares, has, unattr = _split(per_job(key, sm), present, values, per_job(key, mem))
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

    listed = has_cpu | has_gpu
    listed[:, 0] = False  # unattributed watts have columns of their own
    _, entry_col = np.nonzero(listed)  # row by row, so by slice and then ascending job id

    def put(column: array, values) -> None:
        column.frombytes(np.ascontiguousarray(values, dtype=column.typecode).tobytes())

    put(out.node, np.full(n, out._node_number(node)))
    put(out.t0, ticks[:-1])
    put(out.t1, ticks[1:])
    put(out.unattr_cpu, unattr_cpu)
    put(out.unattr_gpu, unattr_gpu)
    put(out.unattr_ext, np.full(n, np.nan))
    put(out.start, out.start[-1] + np.cumsum(listed.sum(axis=1)))
    put(out.job, np.array([-1, *map(out._job_number, jobs[1:])])[entry_col])
    put(out.cpu, cpu_w[listed])
    put(out.gpu, gpu_w[listed])
    put(out.ext, np.full(len(entry_col), np.nan))


def attribute_columns(power: PowerColumns, procs: ProcColumns, owners: OwnerIndex) -> SliceColumns:
    """attribute() on trace columns and an ownership index; a repeated (node, ts, pid) counts as its last."""
    import numpy as np

    out = SliceColumns()
    if not len(procs):
        return out
    series: dict[str, list] = {}  # node -> (kind, index, ts, w) per cpu or gpu series, by kind and index
    for (node, _), source, ts, w in sorted(
        (s for s in zip(power.keys, power.sources, power.ts, power.w) if s[1].kind in (CPU, GPU)),
        key=lambda s: (s[1].kind, s[1].index),
    ):
        series.setdefault(node, []).append((source.kind, source.index, np.frombuffer(ts), np.frombuffer(w)))

    pids = np.array(procs.pids, dtype=object)
    by_name = sorted(range(len(pids)), key=lambda p: (procs.nodes[procs.node_of[p]], procs.pids[p]))
    rank = np.empty(len(pids), dtype=np.int64)
    rank[by_name] = np.arange(len(pids))  # each process's place in (node name, pid) order
    proc, ts = np.frombuffer(procs.proc, dtype=np.int32), np.frombuffer(procs.ts)
    order = np.lexsort((ts, rank[proc]))
    repeated = (proc[order][1:] == proc[order][:-1]) & (ts[order][1:] == ts[order][:-1])
    order = order[np.append(~repeated, True)]  # lexsort is stable: keep the last copy
    node = np.asarray(procs.node_of)[proc[order]]
    columns = {"proc": proc, "ts": ts, "gpu": np.frombuffer(procs.gpu, dtype=np.int32)}
    columns.update((k, np.frombuffer(getattr(procs, k))) for k in ("cpu", "sm", "mem"))
    with np.errstate(over="ignore", invalid="ignore"):  # _node_slices reports power beyond the float range
        for chunk in np.split(order, np.flatnonzero(np.diff(node)) + 1):
            name = procs.nodes[procs.node_of[proc[chunk[0]]]]
            _node_slices(out, name, chunk, columns, series.get(name, []), owners.get(name), pids, procs.gpus)
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
    return attribute_columns(power, procs, ownership_index(timelines)).slices()


def _ms(t: float) -> int | float:
    """t in whole milliseconds: t * 1000 rounded to the nearest integer, ties to even."""
    return round(t * 1000) if abs(t) < 2.0**52 else t * 1000  # past 2**52 s, t is whole and t * 1000 may be infinite


def _gap_rule(max_gap_s: float) -> Callable[[float, float], bool]:
    """Whether the slice [t0, t1] is a monitoring gap: longer than max_gap_s, in whole milliseconds.

    The length in ms is exact and becomes seconds by one rounding (300 ms is 0.3), so the decision
    does not depend on where in time the slice lies.
    """
    if not max_gap_s > 0:  # NaN too
        raise ValueError("max_gap_s must be positive")
    return lambda t0, t1: (_ms(t1) - _ms(t0)) / 1000 > max_gap_s


def integrate_energy(
    slices: SliceColumns | Sequence[AttributionSlice], max_gap_s: float = 10.0
) -> dict[int, JobEnergy]:
    """Integrate slice power into per-job energy (piecewise-constant).

    Slices longer than max_gap_s are monitoring gaps: they are excluded
    here and show up in slice_coverage instead.  The UNATTRIBUTED
    pseudo-job's energy is returned under job id 0.  Joules accumulate
    per job, slice by slice in (node, t0) order, and convert to kWh once
    at the end (1 kWh = 3.6e6 J).

    Raises:
        OverlappingSlices: two slices on one node overlap in time.
        WattscopeError: some job's energy leaves the float range.
        ValueError: max_gap_s is not positive.
    """
    is_gap = _gap_rule(max_gap_s)
    cols = _columns(slices)
    nodes, node, t0, t1, start = cols.nodes, cols.node, cols.t0, cols.t1, cols.start
    job, cpu, gpu, ext = cols.job, cols.cpu, cols.gpu, cols.ext
    ids = cols.jobs + [UNATTRIBUTED_JOB]
    unattributed = ids.index(UNATTRIBUTED_JOB)  # job 0's own number where entries name it, so they share its bucket
    acc: dict[int, list] = {}  # job number -> [cpu_j, gpu_j, ext_j], ext_j None until an ext watt adds to 0.0
    last_node = last_end = None
    for i in sorted(range(len(cols)), key=lambda i: (nodes[node[i]], t0[i])):
        if node[i] == last_node and t0[i] < last_end:
            raise OverlappingSlices(nodes[node[i]], t0[i])
        last_node, last_end = node[i], t1[i]
        if is_gap(t0[i], t1[i]):
            continue
        dt = t1[i] - t0[i]
        for e in range(start[i], start[i + 1]):
            b = acc.get(job[e]) or acc.setdefault(job[e], [0.0, 0.0, None])
            b[0] += cpu[e] * dt
            b[1] += gpu[e] * dt
            if ext[e] == ext[e]:
                b[2] = (b[2] or 0.0) + ext[e] * dt
        b = acc.get(unattributed) or acc.setdefault(unattributed, [0.0, 0.0, None])
        b[0] += cols.unattr_cpu[i] * dt
        b[1] += cols.unattr_gpu[i] * dt
        if cols.unattr_ext[i] == cols.unattr_ext[i]:
            b[2] = (b[2] or 0.0) + cols.unattr_ext[i] * dt

    totals = sorted((ids[j], joules) for j, joules in acc.items())
    for job_id, joules in totals:
        if not all(isfinite(v) for v in joules if v is not None):
            who = "unattributed power" if job_id == UNATTRIBUTED_JOB else f"job {job_id}"
            raise WattscopeError(f"energy of {who} is beyond the float range")
    return {
        job_id: JobEnergy(job_id, cpu_j / J_PER_KWH, gpu_j / J_PER_KWH, None if ext_j is None else ext_j / J_PER_KWH)
        for job_id, (cpu_j, gpu_j, ext_j) in totals
    }


def apply_calibration(
    model: CalibrationModel | Mapping[str, CalibrationModel], slices: SliceColumns | Sequence[AttributionSlice]
) -> SliceColumns | list[AttributionSlice]:
    """Project slices into wall-power terms: ext_w = k * (cpu_w + gpu_w), with k of the slice's node.

    model is one node's model, or a mapping of node id to model.  Jobs and
    the unattributed bucket scale alike, so totals stay conserved.  Columns
    give columns, which share every column but the ext watts; a sequence
    of slices gives a list of slices.

    Raises:
        NodeMismatch: a slice belongs to a different node than the model.
        WattscopeError: the mapping has no model for a slice's node.
    """
    models = model if isinstance(model, Mapping) else {model.node_id: model}
    cols = _columns(slices)
    k_of = []
    for name in cols.nodes:  # in the order of the slices, so the first uncovered slice is named
        if name not in models:
            if models is model:
                raise WattscopeError(f"no calibration model for node {name!r}")
            raise NodeMismatch(model.node_id, name)
        k_of.append(models[name].k)
    k_of_entry = chain.from_iterable(repeat(k_of[n], size) for n, size in zip(cols.node, _row_sizes(cols)))
    out = cols._with_ext(
        array("d", (k_of[n] * (c + g) for n, c, g in zip(cols.node, cols.unattr_cpu, cols.unattr_gpu))),
        array("d", (k * (c + g) for k, c, g in zip(k_of_entry, cols.cpu, cols.gpu))),
    )
    return out if slices is cols else out.slices()


def _row_sizes(cols: SliceColumns) -> Iterator[int]:
    return map(int.__rsub__, cols.start, islice(cols.start, 1, None))


def slice_coverage(slices: SliceColumns | Sequence[AttributionSlice], max_gap_s: float = 10.0) -> CoverageStats:
    """Report how much slice time integrate_energy keeps vs excludes."""
    is_gap = _gap_rule(max_gap_s)
    cols = _columns(slices)
    covered = excluded = 0.0
    n_excluded = 0
    for t0, t1 in zip(cols.t0, cols.t1):
        dt = t1 - t0
        if is_gap(t0, t1):
            excluded += dt
            n_excluded += 1
        else:
            covered += dt
    return CoverageStats(covered, excluded, len(cols), n_excluded)


def _slice_lines(cols: SliceColumns) -> Iterator[str]:
    """Each slice as a JSON line, with the bytes _dumps writes for its object.

    A float is written as float.__repr__, as the json module writes it, and
    a node name once, by _dumps; a NaN or infinity that would be written
    raises the ValueError that _dumps raises.
    """
    for column in (cols.t0, cols.t1, cols.unattr_cpu, cols.unattr_gpu, cols.cpu, cols.gpu):
        if not all(map(isfinite, column)):
            _dumps(next(v for v in column if not isfinite(v)))
    for column in (cols.unattr_ext, cols.ext):  # NaN marks an absent ext watt here
        if any(map(isinf, column)):
            _dumps(next(v for v in column if isinf(v)))
    names = [_dumps(node) for node in cols.nodes]
    keys = [f'"{job_id}":{{"cpu_w":' for job_id in cols.jobs]
    entries = zip(cols.job, cols.cpu, cols.gpu, cols.ext)
    for n, t0, t1, u_cpu, u_gpu, u_ext, size in zip(
        cols.node, cols.t0, cols.t1, cols.unattr_cpu, cols.unattr_gpu, cols.unattr_ext, _row_sizes(cols)
    ):
        jobs = ",".join([
            f'{keys[j]}{cpu_w!r},"gpu_w":{gpu_w!r}}}' if ext_w != ext_w
            else f'{keys[j]}{cpu_w!r},"gpu_w":{gpu_w!r},"ext_w":{ext_w!r}}}'
            for j, cpu_w, gpu_w, ext_w in islice(entries, size)
        ])
        tail = "}\n" if u_ext != u_ext else f',"unattr_ext_w":{u_ext!r}}}\n'
        yield f'{{"node":{names[n]},"t0":{t0!r},"t1":{t1!r},"jobs":{{{jobs}}},"unattr_cpu_w":{u_cpu!r},"unattr_gpu_w":{u_gpu!r}{tail}'


def serialize_slices(slices: SliceColumns | Iterable[AttributionSlice]) -> str:
    return "".join(_slice_lines(_columns(slices)))


def _watt_field(obj: dict, key: str, line_no: int, required: bool = True) -> float | None:
    v = _field_num(obj, key, line_no, required=required)
    if v is not None and v < 0:
        raise MalformedLine(line_no, f"negative watt value in {key!r}")
    return v


def read_slices(lines: Iterable[str]) -> SliceColumns:
    """Read serialized attribution slices (the attribute subcommand's output) into columns."""
    cols = SliceColumns()
    for line_no, obj in iter_records(lines):
        node = _field_str(obj, "node", line_no)
        t0 = _field_num(obj, "t0", line_no)
        t1 = _field_num(obj, "t1", line_no)
        if not t1 > t0:
            raise MalformedLine(line_no, "slice must have t1 > t0")
        raw_jobs = obj.get("jobs")
        if not isinstance(raw_jobs, dict):
            raise MalformedLine(line_no, "missing or invalid 'jobs'")
        entries = []
        for key, entry in raw_jobs.items():
            try:
                job_id = int(key)
                if str(job_id) != key:  # "07", "+7", " 7" or "７" would alias job 7
                    raise ValueError
            except ValueError:
                raise MalformedLine(line_no, f"invalid job key {key!r}") from None
            if job_id < 1 or not isinstance(entry, dict):
                raise MalformedLine(line_no, f"invalid job entry for {key!r}")
            entries.append((
                job_id,
                _watt_field(entry, "cpu_w", line_no),
                _watt_field(entry, "gpu_w", line_no),
                _watt_field(entry, "ext_w", line_no, required=False),
            ))
        cols._append(
            node, t0, t1, entries,
            _watt_field(obj, "unattr_cpu_w", line_no),
            _watt_field(obj, "unattr_gpu_w", line_no),
            _watt_field(obj, "unattr_ext_w", line_no, required=False),
        )
    return cols


def parse_slices(lines: Iterable[str]) -> list[AttributionSlice]:
    """Parse serialized attribution slices; read_slices(lines).slices()."""
    return read_slices(lines).slices()
