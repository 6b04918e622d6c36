"""Reports over attributed energy: status/user breakdowns and GPU histograms.

Energy sums accumulate as joules and convert to kWh once at the end, so
row totals equal the sum of their inputs without per-row rounding drift.
Percentage shares are computed on one selectable energy column (external
by default, since that is what the machine room pays for).
"""

from __future__ import annotations

from bisect import bisect_right
from functools import reduce
from math import isfinite
from operator import add
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .errors import MissingCapacity, UnknownJob, WattscopeError
from .lines import DEFAULT_BINS, J_PER_KWH, MEM_PCT, SHARE_COLUMNS, SM_PCT, _dumps, _render

if TYPE_CHECKING:  # report gpu-hist never loads attribution, and the breakdowns never load traces
    from .attribution import JobEnergy
    from .jobs import JobRecord
    from .traces import ProcColumns, ProcSnapshot

# canonical display order for the well-known scheduler states
KNOWN_STATUSES = ("COMPLETED", "FAILED", "CANCELLED", "TIMEOUT")


class BreakdownRow(NamedTuple):
    key: str  # a status or a user name
    n_jobs: int
    gpu_kwh: float
    cpu_kwh: float
    ext_kwh: float
    share_pct: float  # exact share of the selected column, unrounded


class BreakdownReport(NamedTuple):
    key_label: str  # "status" | "user"
    column: str  # which energy column shares were computed on
    rows: tuple[BreakdownRow, ...]


class UtilizationHistogram(NamedTuple):
    metric: str  # "sm_pct" | "mem_pct"
    bin_edges: tuple[float, ...]  # n_bins + 1 edges spanning [0, 100]
    counts: tuple[int, ...]
    n_samples: int  # included samples; equals sum(counts)
    excluded: int  # GPU samples lacking the metric


def _breakdown(
    key_label: str,
    jobs: Sequence[JobRecord],
    energies: Mapping[int, JobEnergy],
    column: str,
    order: Callable[[str, float], object],
) -> BreakdownReport:
    """Group jobs by their key_label field; rows sort by order(key, kWh of the share column)."""
    if column not in SHARE_COLUMNS:
        raise ValueError(f"unknown share column {column!r}")
    by_id = {j.job_id: j for j in jobs}
    for job_id in energies:
        if job_id not in by_id:
            raise UnknownJob(job_id)

    # key -> [n_jobs, gpu_j, cpu_j, ext_j]; jobs add in ascending id order, so sums are reproducible
    groups: dict[str, list] = {}
    for job in sorted(jobs, key=lambda j: j.job_id):
        group = groups.setdefault(getattr(job, key_label), [0, 0.0, 0.0, 0.0])
        group[0] += 1
        energy = energies.get(job.job_id)
        if energy is not None:
            group[1] += energy.gpu_kwh * J_PER_KWH
            group[2] += energy.cpu_kwh * J_PER_KWH
            if energy.ext_kwh is not None:
                group[3] += energy.ext_kwh * J_PER_KWH

    # each job's energy is finite, but a group's sum, and the percentages of the total, need not be
    names = ("gpu", "cpu", "ext")
    at = 1 + names.index(column)  # the share column's place in a group
    keyed = sorted(groups.items())
    total = 0.0  # added left to right, one rounding per step
    for key, group in keyed:
        for name, value in zip(names, group[1:]):
            if not isfinite(value):
                raise WattscopeError(f"{name} energy of {key_label} {key!r} is beyond the float range")
        total += group[at]
    if not isfinite(100.0 * total):
        raise WattscopeError(f"total {column} energy is too large to compute percentage shares")
    rows = [
        BreakdownRow(key, group[0], *(joules / J_PER_KWH for joules in group[1:]),
                     100.0 * group[at] / total if total > 0 else 0.0)
        for key, group in keyed
    ]
    rows.sort(key=lambda r: order(r.key, groups[r.key][at] / J_PER_KWH))
    return BreakdownReport(key_label, column, tuple(rows))


def _status_sort_key(status: str) -> tuple[int, str]:
    if status in KNOWN_STATUSES:
        return (KNOWN_STATUSES.index(status), "")
    return (len(KNOWN_STATUSES), status)


def aggregate_by_status(
    jobs: Sequence[JobRecord],
    energies: Mapping[int, JobEnergy],
    column: str = "ext",
) -> BreakdownReport:
    """Energy broken down by final job status.

    n_jobs counts every job record in the group, including jobs with no
    integrated energy.  Rows follow the canonical status order, then any
    raw scheduler states alphabetically.

    Raises:
        UnknownJob: energies contains a job id with no record (this
            includes the UNATTRIBUTED pseudo-job; filter it out first).
    """
    return _breakdown("status", jobs, energies, column, lambda status, _: _status_sort_key(status))


def aggregate_by_user(
    jobs: Sequence[JobRecord],
    energies: Mapping[int, JobEnergy],
    column: str = "ext",
) -> BreakdownReport:
    """Energy broken down by job owner, heaviest consumer first.

    Rows sort by the selected energy column descending (user name breaks
    ties), so the top of the report answers "who spends the most".
    """
    return _breakdown("user", jobs, energies, column, lambda user, kwh: (-kwh, user))


def gpu_histogram(
    procs: Sequence[ProcSnapshot] | ProcColumns,
    metric: str = SM_PCT,
    n_bins: int = DEFAULT_BINS,
    gpu_mem_capacity_mib: Mapping[tuple[str, int], float] | None = None,
    job_of: Callable[[str, int, float], int | None] | None = None,
) -> UtilizationHistogram:
    """Histogram GPU utilization over all GPU-attached process samples.

    Bins are equal-width over [0, 100]; every bin is half-open except the
    last, which is closed so a reading of exactly 100 lands in it.  For
    MEM_PCT a sample normalizes as 100 * mem_mib / capacity of its
    (node, gpu); readings above capacity clamp to 100.  GPU samples
    missing the metric are not binned but counted in `excluded`.

    When job_of is given, samples are grouped by job (samples whose pid
    maps to no job stay separate per pid) and the per-group mean is
    binned instead of each raw sample.  procs may also be the columns of
    read_proc_trace; built snapshots are checked as its lines are.

    Raises:
        MissingCapacity: MEM_PCT needs a capacity the map does not have.
        ValueError: invalid metric, n_bins < 1, or non-positive capacity.
    """
    if metric not in (SM_PCT, MEM_PCT):
        raise ValueError(f"unknown metric {metric!r}")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")

    from .traces import ProcColumns

    cols = procs if isinstance(procs, ProcColumns) else ProcColumns.of(procs)
    node_of = [cols.nodes[n] for n in cols.node_of]
    readings, capacities = (cols.sm, None) if metric == SM_PCT else (cols.mem, gpu_mem_capacity_mib or {})
    values: list[float] = []
    keyed: dict[object, list[float]] = {}
    excluded = 0
    # in file order, so per-group sums and the first missing capacity match the records'
    for p, ts, g, value in zip(cols.proc, cols.ts, cols.gpu, readings):
        if g < 0:
            continue
        if value != value:  # NaN: not observed
            excluded += 1
            continue
        if capacities is not None:
            node, gpu = node_of[p], cols.gpus[g]
            capacity = capacities.get((node, gpu))
            if capacity is None:
                raise MissingCapacity(gpu, node)
            if capacity <= 0:
                raise ValueError(f"capacity for ({node}, {gpu}) must be positive")
            value = min(100.0, 100.0 * value / capacity)
        if job_of is None:
            values.append(value)
        else:
            owner = job_of(node_of[p], cols.pids[p], ts)
            key: object = owner if owner is not None else ("pid", node_of[p], cols.pids[p])
            keyed.setdefault(key, []).append(value)

    if job_of is not None:
        # not sum(), which compensates float rounding since Python 3.12: the last digits would depend on the version
        values = [reduce(add, vs, 0.0) / len(vs) for vs in keyed.values()]

    edges = [100.0 * i / n_bins for i in range(n_bins + 1)]
    counts = [0] * n_bins
    for value in values:
        counts[min(bisect_right(edges, value) - 1, n_bins - 1)] += 1  # the last bin is right-closed
    return UtilizationHistogram(metric, tuple(edges), tuple(counts), len(values), excluded)


def _fmt_kwh(value: float) -> str:
    return format(value, ".6g")


def render_report(report: BreakdownReport | UtilizationHistogram, fmt: str = "text") -> str:
    """Render a report deterministically as text, csv or json.

    csv and text round the share column to whole percent for reading;
    json carries exact values for downstream tooling.
    """
    if isinstance(report, UtilizationHistogram):
        obj: dict = {
            "metric": report.metric,
            "edges": list(report.bin_edges),
            "counts": list(report.counts),
            "n": report.n_samples,
            "excluded": report.excluded,
        }
        header = ["bin_start", "bin_end", "count"]
        rows = (
            [_fmt_kwh(lo), _fmt_kwh(hi), str(c)]
            for lo, hi, c in zip(report.bin_edges, report.bin_edges[1:], report.counts)
        )
        tail = f"n={report.n_samples} excluded={report.excluded} metric={report.metric}\n"
    else:
        header = [report.key_label, "n_jobs", "gpu_kwh", "cpu_kwh", "ext_kwh", f"{report.column}_share_pct"]
        obj = {"rows": [dict(zip(header, r)) for r in report.rows]}
        rows = (
            [r.key, str(r.n_jobs), _fmt_kwh(r.gpu_kwh), _fmt_kwh(r.cpu_kwh), _fmt_kwh(r.ext_kwh), str(round(r.share_pct))]
            for r in report.rows
        )
        tail = ""
    return _render(fmt, header, rows, _dumps(obj) + "\n", tail)
