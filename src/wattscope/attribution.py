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
.slices convert; .of checks each slice as read_slices checks a line), which
attribute, parse_slices and the functions below accept or return for lists
of slices.

The split runs on the stdlib alone.  Per node, each process's records are
taken from the columns by its record numbers (one slice of a column where
they are evenly spaced), its cpu-time deltas add into one {job: seconds}
row per slice, and each GPU's slices split by a plan cached per tuple of
owners.  Every sum adds in the order of a per-slice loop over ascending
pids, then jobs, then GPUs, so every float is reproducible.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import deque
from functools import reduce
from itertools import accumulate, chain, compress, count, groupby, islice, repeat
from math import isfinite, isinf, nan
from operator import add, attrgetter, eq, gt, itemgetter, lt, sub, truediv
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
    _interp,
    iter_records,
)

if TYPE_CHECKING:
    from .calibration import CalibrationModel


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
        """Columns of built slices, checked as read_slices checks lines, slice i (from 1) standing for line i."""
        records = (
            {"node": s.node_id, "t0": s.interval.t0, "t1": s.interval.t1,
             "jobs": {str(job_id): {"cpu_w": p.cpu_w, "gpu_w": p.gpu_w, "ext_w": p.ext_w} for job_id, p in s.per_job.items()},
             "unattr_cpu_w": s.unattributed_cpu_w, "unattr_gpu_w": s.unattributed_gpu_w,
             "unattr_ext_w": s.unattributed_ext_w}
            for s in slices
        )
        return _slices(enumerate(records, 1))

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


def _split(power: float, columns: Sequence[int], weights: Sequence[float]) -> tuple[list, float]:
    """Split power in proportion to weights; returns (shares, unattributed).

    columns are jobs by ascending id, UNATTRIBUTED (0) first, and weights
    holds each one's weight; the total adds them in that order from 0.0, as
    per-slice sums over sorted job ids do.  A total that is not positive is
    no evidence of who worked: there are no shares, and all of power is
    unattributed.  Column 0's share is unattributed.
    """
    total = reduce(add, weights, 0.0)
    if not total > 0:
        return [], power
    shares = [power * (w / total) for w in weights]
    return shares, 0.0 + (shares[0] if columns[0] == 0 else 0.0)


def _record_numbers(proc: array, n_procs: int) -> list[array]:
    """Each process's record numbers, in file order."""
    numbers = [array("i") for _ in range(n_procs)]
    deque(map(array.append, map(numbers.__getitem__, proc), range(len(proc))), maxlen=0)
    return numbers


def _taker(numbers: array) -> Callable[[array], array]:
    """A function that gives a column's entries at these record numbers, as an array.

    A monitor that writes its processes in one order at every tick gives
    each process evenly spaced records, which one slice of a column takes.
    """
    step = numbers[1] - numbers[0] if len(numbers) > 1 else 1
    if numbers.tobytes() == array("i", range(numbers[0], numbers[-1] + 1, step)).tobytes():
        key = slice(numbers[0], numbers[-1] + 1, step)
        return lambda column: column[key]
    pick = itemgetter(*numbers)
    return lambda column: array(column.typecode, pick(column))


class _Stay(NamedTuple):
    """A process's records on one GPU at the consecutive ticks first, first + 1, ...; one entry per record in each column."""

    rank: int  # the process's place in pid order
    first: int
    owner: list  # owner column
    sm: array  # sm_pct, 0.0 where absent; never -0.0
    mem: array  # mem_mib, NaN where absent


def _stretches(stays: list, lo: int, hi: int) -> Iterator[tuple[int, int, list]]:
    """Split slices lo to hi - 1 into stretches [u, v) over which the same stays are present.

    Yields (u, v, the stays present, in pid order).
    """
    ends = [s.first + len(s.owner) for s in stays]
    cuts = sorted({lo, hi, *(t for t in chain((s.first for s in stays), ends) if lo < t < hi)})
    stays = sorted(stays, key=attrgetter("first"))
    i, present = 0, []
    for u, v in zip(cuts, islice(cuts, 1, None)):
        while i < len(stays) and stays[i].first <= u:
            present.append(stays[i])
            i += 1
        present = sorted(s for s in present if s.first + len(s.owner) > u)
        yield u, v, present


def _gpu_plan(owners: tuple) -> tuple[list, Callable[[Sequence[float]], Sequence[float]]]:
    """How a GPU splits a slice among processes with these owner columns, in pid order.

    Returns the columns present, ascending, and a function that gives each
    one's weight from a reading per process: the readings of the column's
    processes added in pid order from 0.0.  No reading is -0.0, so a lone
    reading is its own sum: with one process per column the function only
    puts the readings in column order.
    """
    processes: dict[int, list] = {}
    for p, c in enumerate(owners):
        processes.setdefault(c, []).append(p)
    columns = sorted(processes)
    if len(columns) == len(owners):
        order = [processes[c][0] for c in columns]
        return columns, tuple if order == sorted(order) else itemgetter(*order)
    groups = [processes[c] for c in columns]
    return columns, lambda readings: [reduce(add, map(readings.__getitem__, ps), 0.0) for ps in groups]


def _split_gpu(stays: list, lo: int, watts: list, gpu_w: list, unattr_gpu: list) -> None:
    """Split one GPU's watts at slices lo, lo + 1, ... (None where it misses the midpoint) among its stays.

    GPU activity is taken from the snapshot at interval start.  A slice
    splits by its jobs' summed sm_pct if some sum is positive, else by their
    summed mem_mib if some sum is, else 1 per job present; readings are never
    negative, so the total is positive.  The job's watts add to
    gpu_w[slice][column], and column 0's also to unattr_gpu[slice].
    """
    plans: dict[tuple, tuple] = {}
    for u, v, present in _stretches(stays, lo, lo + len(watts)):
        if not present:
            for t, w in zip(range(u, v), watts[u - lo:v - lo]):
                if w is not None:
                    unattr_gpu[t] += w
            continue
        at_start = ([getattr(s, name)[u - s.first:v - s.first] for s in present] for name in ("owner", "sm"))
        for t, w, on, sms in zip(range(u, v), watts[u - lo:v - lo], *(zip(*c) for c in at_start)):
            if w is None:
                continue
            plan = plans.get(on)
            if plan is None:
                plan = plans[on] = _gpu_plan(on)
            columns, weigh = plan
            weights = weigh(sms)
            if not any(map(gt, weights, repeat(0.0))):
                weights = weigh([0.0 + x if x == x else 0.0 for x in (s.mem[t - s.first] for s in present)])
                if not any(map(gt, weights, repeat(0.0))):
                    weights = [1.0] * len(columns)
            total = reduce(add, weights, 0.0)
            job_w = gpu_w[t]
            get = job_w.get
            for c, x in zip(columns, weights):
                job_w[c] = get(c, 0.0) + w * (x / total)
            if columns[0] == 0:
                unattr_gpu[t] += 0.0 + w * (weights[0] / total)


def _node_slices(out: SliceColumns, node: str, processes: list, procs: ProcColumns, series: list, owners) -> None:
    """Add one node's slices to out; processes holds each process's pid and record numbers, by pid."""
    visited = []  # per process: pid, a function that takes its records in ts order from a column, and their ts
    instants, last = set(), b""
    for pid, numbers in processes:
        take = _taker(numbers)
        at = take(procs.ts)
        if at.tobytes() != last:  # a process seen at the same instants as the one before adds none
            if not all(map(lt, at, islice(at, 1, None))):  # a file may list a process's ts out of order, never twice
                take = _taker(array("i", sorted(numbers, key=procs.ts.__getitem__)))
                at = take(procs.ts)
            instants.update(at)  # a set keeps the first of equal keys: -0.0 and 0.0 at one instant give its lowest pid's ts
            last = at.tobytes()
        visited.append((pid, take, at))
    ticks = sorted(instants)
    n = len(ticks) - 1
    if n < 1:
        return

    # step-hold, as owner_at: a record belongs to its pid's job in the node's last snapshot at or before its ts
    tick_of = dict(zip(ticks, count())).__getitem__
    snap_ts, maps = owners or ((), ())
    held = [{}, *maps]
    in_force = list(map(held.__getitem__, map(bisect_right, repeat(snap_ts), ticks)))
    placed = []  # per process: its taker, and each record's tick and owner
    ticks_bytes, size = array("d", ticks).tobytes(), array("d").itemsize
    for pid, take, at in visited:
        a = tick_of(at[0])
        if at.tobytes() == ticks_bytes[size * a:size * (a + len(at))]:  # at every tick from its first to its last
            tick, in_force_at = range(a, a + len(at)), in_force[a:a + len(at)]
        else:
            tick = list(map(tick_of, at))
            in_force_at = map(in_force.__getitem__, tick)
        placed.append((take, tick, list(map(dict.get, in_force_at, repeat(pid)))))
    del visited
    jobs = [UNATTRIBUTED_JOB, *sorted(set().union(*(owner for _, _, owner in placed)).difference([None]))]
    column = {None: 0, **{job: c for c, job in enumerate(jobs)}}

    # a delta needs both endpoints; processes that appear or vanish
    # mid-interval contribute nothing observable
    deltas = [{} for _ in range(n)]  # per slice: column -> the cpu-time deltas of its processes, added in pid order
    stays: dict[int, list] = {}  # gpu number -> the _Stay of each process on it
    for rank, (take, tick, owner) in enumerate(placed):
        owner[:] = map(column.__getitem__, owner)
        cpu = take(procs.cpu)
        whole = type(tick) is range
        if whole:
            steps = zip(map(sub, islice(cpu, 1, None), cpu), deltas[tick.start:tick.stop], owner)
        else:  # the delta comes first, so that zip stops before the row of the last tick, which has none
            steps = zip(map(sub, islice(cpu, 1, None), cpu), map(deltas.__getitem__, tick), owner)
            steps = compress(steps, map(eq, islice(tick, 1, None), map(add, tick, repeat(1))))
        for d, row, c in steps:
            row[c] = row.get(c, 0.0) + d
        gpu = take(procs.gpu)
        if max(gpu) < 0:
            continue
        sm, mem = array("d", [0.0 + x if x == x else 0.0 for x in take(procs.sm)]), take(procs.mem)
        if whole and min(gpu) == max(gpu):
            cuts = [0, len(gpu)]
        else:  # runs of consecutive ticks on one GPU
            cuts = [0, *(i for i in range(1, len(gpu)) if gpu[i] != gpu[i - 1] or tick[i] != tick[i - 1] + 1), len(gpu)]
        for i, j in zip(cuts, islice(cuts, 1, None)):
            if gpu[i] >= 0:
                stays.setdefault(gpu[i], []).append(_Stay(rank, tick[i], owner[i:j], sm[i:j], mem[i:j]))
    for row in deltas:
        if any(map(lt, row.values(), repeat(0.0))):
            raise NegativeDelta(jobs[min(c for c, d in row.items() if d < 0)])

    # node power at each slice's midpoint, from the series that cover it in whole ms
    mids = list(map(truediv, map(add, ticks, islice(ticks, 1, None)), repeat(2.0)))
    ms = [round(t * 1000, 0) for t in ticks]  # whole milliseconds as floats, as np.rint; a sum of two is exact below 2**52 ms
    twice_mids = list(map(add, ms, islice(ms, 1, None)))
    cpu_power, unattr_gpu = [0.0] * n, [0.0] * n
    gpu_w = [{} for _ in range(n)]  # per slice: column -> the job's GPU watts, added over GPUs in index order
    for kind, index, s_ts, s_w in series:
        first, last = 2 * round(s_ts[0] * 1000, 0), 2 * round(s_ts[-1] * 1000, 0)
        covered = [t for t, x in enumerate(twice_mids) if first <= x <= last]
        values = _interp(map(mids.__getitem__, covered), s_ts, s_w)
        if kind == CPU:
            for t, w in zip(covered, values):
                cpu_power[t] += w
        elif covered:
            watts = [None] * (covered[-1] + 1 - covered[0])
            deque(map(watts.__setitem__, map(sub, covered, repeat(covered[0])), values), maxlen=0)
            code = procs.gpus.index(index) if index in procs.gpus else -2
            _split_gpu(stays.get(code, []), covered[0], watts, gpu_w, unattr_gpu)

    entry_job, entry_cpu, entry_gpu, sizes, unattr_cpu = [], array("d"), array("d"), [], []
    for row, job_w, power in zip(deltas, gpu_w, cpu_power):
        columns = sorted(row)
        shares, unattributed = _split(power, columns, list(map(row.__getitem__, columns)))
        if shares and job_w.keys() <= row.keys():
            listed, cpu_w = columns, shares
        else:
            cpu_w = dict(zip(columns, shares))
            listed = sorted(cpu_w.keys() | job_w.keys())
            cpu_w = list(map(cpu_w.get, listed, repeat(0.0)))
        if listed and listed[0] == 0:  # unattributed watts have columns of their own
            listed, cpu_w = listed[1:], cpu_w[1:]
        entry_job += listed
        entry_cpu.extend(cpu_w)
        entry_gpu.extend(map(job_w.get, listed, repeat(0.0)))
        sizes.append(len(listed))
        unattr_cpu.append(unattributed)

    # every reading is finite, but their sum over the node's series need not be; column 0's CPU share is in
    # unattr_cpu, and its GPU watts are checked here
    gpu_0 = [job_w.get(0, 0.0) for job_w in gpu_w]
    if not all(map(isfinite, chain(entry_cpu, entry_gpu, unattr_cpu, unattr_gpu, gpu_0))):
        bounds = list(accumulate(sizes, initial=0))
        t = next(t for t in range(n) if not all(map(isfinite, chain(
            entry_cpu[bounds[t]:bounds[t + 1]], entry_gpu[bounds[t]:bounds[t + 1]], (unattr_cpu[t], unattr_gpu[t], gpu_0[t])))))
        raise WattscopeError(f"power on node {node} is beyond the float range in the slice at t0={ticks[t]}")

    out.node.extend(repeat(out._node_number(node), n))
    out.t0.extend(islice(ticks, n))
    out.t1.extend(islice(ticks, 1, None))
    out.unattr_cpu.extend(unattr_cpu)
    out.unattr_gpu.extend(unattr_gpu)
    out.unattr_ext.extend(repeat(nan, n))
    out.start.extend(islice(accumulate(sizes, initial=out.start[-1]), 1, None))
    number = [-1, *map(out._job_number, jobs[1:])]  # every owner of the node, in ascending order, before any entry
    out.job.extend(map(number.__getitem__, entry_job))
    out.cpu.extend(entry_cpu)
    out.gpu.extend(entry_gpu)
    out.ext.extend(repeat(nan, len(entry_job)))


def attribute_columns(power: PowerColumns, procs: ProcColumns, owners: OwnerIndex) -> SliceColumns:
    """attribute() on trace columns and an ownership index."""
    out = SliceColumns()
    series: dict[str, list] = {}  # node -> (kind, index, ts, w) per cpu or gpu series, by kind and index
    for (node, _), source, ts, w in sorted(
        (s for s in zip(power.keys, power.sources, power.ts, power.w) if s[1].kind in (CPU, GPU)),
        key=lambda s: (s[1].kind, s[1].index),
    ):
        series.setdefault(node, []).append((source.kind, source.index, ts, w))
    numbers = _record_numbers(procs.proc, len(procs.pids))
    by_name = sorted(range(len(numbers)), key=lambda p: (procs.nodes[procs.node_of[p]], procs.pids[p]))
    for n, group in groupby(by_name, procs.node_of.__getitem__):  # nodes in name order, processes by pid
        node = procs.nodes[n]
        _node_slices(out, node, [(procs.pids[p], numbers[p]) for p in group], procs, series.get(node, []), owners.get(node))
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

    The samples and snapshots are checked as their readers check lines,
    each one's 1-based position in its sequence standing for its line.

    threads is validated and otherwise ignored: the split is pure Python,
    which a thread pool cannot speed up under the GIL.
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
    unattributed = len(cols.jobs)  # entries name real jobs only, so the unattributed bucket is a number of its own
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
    a node name once, by _dumps; an ext watt that apply_calibration took past
    the float range raises the ValueError that _dumps raises.
    """
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
    return _slices(iter_records(lines))


def _slices(records: Iterable[tuple[int, dict]]) -> SliceColumns:
    """read_slices on (line_no, object) pairs."""
    cols = SliceColumns()
    for line_no, obj in records:
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
