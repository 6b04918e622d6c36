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

The node split that builds slices from the trace columns is in split,
which attribute loads when it runs; reading, integrating, calibrating and
writing slices load neither split nor traces.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice, repeat
from math import isfinite, isinf, nan
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import MalformedLine, NodeMismatch, OverlappingSlices, WattscopeError
from .jobs import UNATTRIBUTED_JOB, PidTimeline, ownership_index
from .lines import J_PER_KWH, _dumps, _field_num, _field_str, iter_records

if TYPE_CHECKING:
    from .calibration import CalibrationModel
    from .traces import TraceBundle


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
            {"node": s.node_id, "t0": s.interval.t0, "t1": s.interval.t1, "jobs": _wire_jobs(s.per_job),
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


def _wire_jobs(per_job):
    """A slice's per_job as a slice line's "jobs", each JobPower as its object.

    A per_job that is not a mapping, and an entry that is not a JobPower,
    reach the reader's checks as they are, to pass or fail as the same
    value on a line would.
    """
    if not isinstance(per_job, Mapping):
        return per_job
    return {str(job_id): {"cpu_w": p.cpu_w, "gpu_w": p.gpu_w, "ext_w": p.ext_w} if isinstance(p, JobPower) else p
            for job_id, p in per_job.items()}


def _columns(slices: SliceColumns | Iterable[AttributionSlice]) -> SliceColumns:
    return slices if isinstance(slices, SliceColumns) else SliceColumns.of(slices)


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
    from .split import attribute_columns
    from .traces import PowerColumns, ProcColumns

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
