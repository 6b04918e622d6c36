"""Scheduler job records and pid-to-job ownership over time.

Two JSON-lines formats, one object per line, unknown keys ignored:

  pidmap  {"node":"n1","ts":10.0,"map":[[4242,7],[4243,7]]}
  jobs    {"job":7,"user":"alice","node":"n1","submit":0.0,
           "start":5.0,"end":900.0,"status":"COMPLETED"}

Pid assignments use step-hold semantics: a snapshot's map is valid from
its ts until the next snapshot on the same node.  Work that no snapshot
ties to a job belongs to the reserved UNATTRIBUTED pseudo-job (id 0);
real job ids are positive.
Ownership is one per-node step index (OwnerIndex) that read_pidmap builds
and check_owners checks; PidMapSnapshot and PidTimeline derive from it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import DuplicatePid, MalformedLine, MultiNodeJob, UnknownJob, WattscopeError
from .lines import _field_int, _field_num, _field_str, canonical_ts, iter_records

UNATTRIBUTED_JOB = 0
OwnerIndex = dict  # node -> (sorted snapshot ts list, {pid: job_id} per snapshot)


class JobRecord(NamedTuple):
    job_id: int
    user: str
    node_id: str
    t_submit: float
    t_start: float
    t_end: float
    status: str  # one of analytics.KNOWN_STATUSES or a raw scheduler state


class PidMapSnapshot(NamedTuple):
    """The pid -> job assignment observed on one node at one instant."""

    node_id: str
    ts: float
    assignments: tuple[tuple[int, int], ...]  # (pid, job_id), sorted by pid


class PidTimeline(NamedTuple):
    """A job's observed pid set at each snapshot instant on its node.

    Entries are (ts, pids) with strictly increasing ts; a set is valid
    from its ts until the next entry.  An empty set means the job was
    alive but had no observed processes.  A job that never appears in
    any snapshot has an empty entries tuple.
    """

    job_id: int
    node_id: str
    entries: tuple[tuple[float, frozenset[int]], ...]


def _step_index(snapshots: Iterable[tuple[str, float, Iterable[tuple[int, int]], int | None]]) -> OwnerIndex:
    """Merge (node, ts, (pid, job_id) pairs, line_no) snapshots that share (node, ts) into the step index.

    line_no is None for the snapshots that ownership_index folds from timelines, which have no input line.

    Pairs are read in order, so an error a pair iterator raises comes in
    file order with the DuplicatePid raised here for a pid given two jobs.
    """
    merged: dict[tuple[str, float], dict[int, int]] = {}
    for node, ts, pairs, line_no in snapshots:
        assignments = merged.setdefault((node, ts), {})
        for pid, job_id in pairs:
            if assignments.setdefault(pid, job_id) != job_id:
                raise DuplicatePid(pid, ts, line_no, node)
    index: OwnerIndex = {}
    for node, ts in sorted(merged):
        ts_list, owners = index.setdefault(node, ([], []))
        ts_list.append(ts)
        owners.append(merged[(node, ts)])
    return index


def read_pidmap(lines: Iterable[str]) -> OwnerIndex:
    """Read pidmap lines into the step index, merging records that share (node, ts).

    Raises MalformedLine and DuplicatePid.
    """
    return _step_index(_pidmap(iter_records(lines)))


def _pidmap(records: Iterable[tuple[int, dict]]):
    """read_pidmap's loop on (line_no, object) pairs: (node, ts, pairs, line_no) per record, for _step_index."""
    known: dict[int, int] = {}  # one int object per distinct pid across snapshots
    for line_no, obj in records:
        node = _field_str(obj, "node", line_no)
        ts = canonical_ts(_field_num(obj, "ts", line_no))
        raw_map = obj.get("map")
        if not isinstance(raw_map, list):
            raise MalformedLine(line_no, "missing or invalid 'map'")
        yield node, ts, _pairs(raw_map, line_no, known), line_no


def _pairs(raw_map: list, line_no: int, known: dict[int, int]):
    for pair in raw_map:
        # JSON gives exact types, so this excludes bools and floats
        if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int):
            raise MalformedLine(line_no, "map entries must be [pid, job_id] integer pairs")
        pid, job_id = pair
        if pid < 1:
            raise MalformedLine(line_no, f"invalid pid {pid}")
        if job_id < 1:
            raise MalformedLine(line_no, f"invalid job id {job_id} (0 is reserved)")
        yield known.setdefault(pid, pid), job_id


def check_owners(index: OwnerIndex, jobs: Sequence[JobRecord]) -> dict[int, JobRecord]:
    """Check every owner against the job records; returns them by id.

    Raises UnknownJob for an id with no record, and MultiNodeJob for a job
    seen on another node than its record's (multi-node jobs are unsupported).
    """
    jobs_by_id = {j.job_id: j for j in jobs}
    for node in sorted(index):
        for owners in index[node][1]:
            for pid in sorted(owners):
                job = jobs_by_id.get(owners[pid])
                if job is None:
                    raise UnknownJob(owners[pid])
                if job.node_id != node:
                    raise MultiNodeJob(job.job_id, f"record says {job.node_id}, seen on {node}")
    return jobs_by_id


def owner_at(index: OwnerIndex, node_id: str, pid: int, t: float) -> int | None:
    """The job owning pid on node_id at time t under step-hold, or None."""
    ts_list, owners = index.get(node_id, ((), ()))
    i = bisect_right(ts_list, t) - 1
    return owners[i].get(pid) if i >= 0 else None


def parse_pidmap(lines: Iterable[str]) -> list[PidMapSnapshot]:
    """Parse pidmap snapshots (see read_pidmap), sorted by (node, ts)."""
    index = read_pidmap(lines)
    snaps = ((node, ts, owners) for node in sorted(index) for ts, owners in zip(*index[node]))
    return [PidMapSnapshot(node, ts, tuple(sorted(owners.items()))) for node, ts, owners in snaps]


def parse_jobs(lines: Iterable[str]) -> list[JobRecord]:
    """Parse job records; enforces submit <= start <= end and unique ids."""
    records: list[JobRecord] = []
    seen: set[int] = set()
    for line_no, obj in iter_records(lines):
        job_id = _field_int(obj, "job", line_no, minimum=1)
        if job_id in seen:
            raise MalformedLine(line_no, f"duplicate job id {job_id}")
        seen.add(job_id)
        user = _field_str(obj, "user", line_no)
        node = _field_str(obj, "node", line_no)
        t_submit = canonical_ts(_field_num(obj, "submit", line_no))
        t_start = canonical_ts(_field_num(obj, "start", line_no))
        t_end = canonical_ts(_field_num(obj, "end", line_no))
        if not t_submit <= t_start <= t_end:
            raise MalformedLine(line_no, "job times must satisfy submit <= start <= end")
        status = _field_str(obj, "status", line_no)
        records.append(JobRecord(job_id, user, node, t_submit, t_start, t_end, status))
    return records


def build_timelines(
    snapshots: Sequence[PidMapSnapshot], jobs: Sequence[JobRecord]
) -> dict[int, PidTimeline]:
    """Build one pid timeline per job from pidmap snapshots.

    The snapshots are checked as read_pidmap checks lines, snapshot i (from
    1) standing for line i.  Insensitive to snapshot input order.  A job
    that appears in at least one snapshot gets an entry at every snapshot ts
    on its node (with an empty set where it is absent), so step-hold lookups
    match the latest snapshot at or before t.  Jobs never observed get no
    entries.

    Raises:
        MalformedLine: a snapshot that read_pidmap would reject.
        DuplicatePid: conflicting assignments merged at the same (node, ts).
        UnknownJob, MultiNodeJob: as check_owners.
    """
    records = ({"node": s.node_id, "ts": s.ts, "map": _wire_map(s.assignments)} for s in snapshots)
    index = _step_index(_pidmap(enumerate(records, 1)))
    jobs_by_id = check_owners(index, jobs)

    observed: dict[int, dict[float, set[int]]] = {}
    for ts_list, owners_list in index.values():
        for ts, owners in zip(ts_list, owners_list):
            for pid, job_id in owners.items():
                observed.setdefault(job_id, {}).setdefault(ts, set()).add(pid)

    timelines: dict[int, PidTimeline] = {}
    for job_id, job in jobs_by_id.items():
        pids_at = observed.get(job_id)
        node_ts = index[job.node_id][0] if pids_at else ()
        entries = tuple((ts, frozenset(pids_at.get(ts, ()))) for ts in node_ts)
        timelines[job_id] = PidTimeline(job_id, job.node_id, entries)
    return timelines


def _wire_map(assignments):
    """A snapshot's assignments as a pidmap line's "map", its tuple pairs as lists.

    Assignments that are not a tuple or list, and a pair that is not a
    tuple, reach the reader's checks as they are, to pass or fail as the
    same value on a line would.
    """
    if not isinstance(assignments, (tuple, list)):
        return assignments
    return [list(p) if isinstance(p, tuple) else p for p in assignments]


def ownership_index(timelines: Mapping[int, PidTimeline]) -> OwnerIndex:
    """Fold timelines back into the per-node step index.

    Raises DuplicatePid when two timelines hold one pid on a node at one ts,
    and WattscopeError for a job id below 1, which no job record has.
    """
    if timelines and min(timelines) < 1:
        raise WattscopeError(f"invalid job id {min(timelines)} (0 is reserved)")
    return _step_index(
        (timelines[job_id].node_id, ts, ((pid, job_id) for pid in sorted(pids)), None)
        for job_id in sorted(timelines)
        for ts, pids in timelines[job_id].entries
    )

