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
and check_owners checks; build_timelines gives it for PidMapSnapshot records.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, NamedTuple, Sequence

from .errors import DuplicatePid, MalformedLine, MultiNodeJob, UnknownJob
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


def read_pidmap(lines: Iterable[str]) -> OwnerIndex:
    """Read pidmap lines into the step index, merging records that share (node, ts).

    Raises MalformedLine and DuplicatePid.
    """
    return _pidmap(iter_records(lines))


def _pidmap(records: Iterable[tuple[int, dict]]) -> OwnerIndex:
    """read_pidmap on (line_no, object) pairs; pairs are checked in order, so errors come in file order."""
    merged: dict[tuple[str, float], dict[int, int]] = {}
    known: dict[int, int] = {}  # one int object per distinct pid across snapshots
    for line_no, obj in records:
        node = _field_str(obj, "node", line_no)
        ts = canonical_ts(_field_num(obj, "ts", line_no))
        raw_map = obj.get("map")
        if not isinstance(raw_map, list):
            raise MalformedLine(line_no, "missing or invalid 'map'")
        assignments = merged.setdefault((node, ts), {})
        for pair in raw_map:
            # JSON gives exact types, so this excludes bools and floats
            if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is int and type(pair[1]) is int):
                raise MalformedLine(line_no, "map entries must be [pid, job_id] integer pairs")
            pid, job_id = pair
            if pid < 1:
                raise MalformedLine(line_no, f"invalid pid {pid}")
            if job_id < 1:
                raise MalformedLine(line_no, f"invalid job id {job_id} (0 is reserved)")
            if assignments.setdefault(known.setdefault(pid, pid), job_id) != job_id:
                raise DuplicatePid(pid, ts, line_no, node)
    index: OwnerIndex = {}
    for node, ts in sorted(merged):
        ts_list, owners = index.setdefault(node, ([], []))
        ts_list.append(ts)
        owners.append(merged[(node, ts)])
    return index


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


def build_timelines(snapshots: Sequence[PidMapSnapshot], jobs: Sequence[JobRecord]) -> OwnerIndex:
    """The step index of pidmap snapshots, checked as read_pidmap and check_owners check lines.

    Snapshot i (from 1) stands for line i in any error; snapshots that
    share (node, ts) merge, in any input order.
    """
    records = ({"node": s.node_id, "ts": s.ts, "map": _wire_map(s.assignments)} for s in snapshots)
    index = _pidmap(enumerate(records, 1))
    check_owners(index, jobs)
    return index


def _wire_map(assignments):
    """A snapshot's assignments as a pidmap line's "map", its tuple pairs as lists.

    Assignments that are not a tuple or list, and a pair that is not a
    tuple, reach the reader's checks as they are, to pass or fail as the
    same value on a line would.
    """
    if not isinstance(assignments, (tuple, list)):
        return assignments
    return [list(p) if isinstance(p, tuple) else p for p in assignments]


def ownership_index(owners: OwnerIndex) -> OwnerIndex:
    """owners, unchanged: kept only because perfbench/traced.py calls this name (tests/test_benchmark_names.py).

    It goes with the record API (ROADMAP items 1 and 2).
    """
    return owners
