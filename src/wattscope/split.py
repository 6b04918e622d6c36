"""The node split: each node's power divided among the jobs that ran there.

attribute_columns takes the trace columns of read_power_trace and
read_proc_trace and read_pidmap's ownership index, and gives the slices as
attribution.SliceColumns.  Only attribute and the reports on raw traces
load this module; a report on saved slices never does.

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
from math import isfinite, nan
from operator import add, attrgetter, eq, gt, itemgetter, lt, sub, truediv
from typing import Callable, Iterator, NamedTuple, Sequence

from .attribution import SliceColumns
from .errors import NegativeDelta, WattscopeError
from .jobs import UNATTRIBUTED_JOB, OwnerIndex
from .lines import CPU, GPU
from .traces import PowerColumns, ProcColumns, _interp


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
