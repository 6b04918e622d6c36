import json
import random

import pytest
from hypothesis import given, strategies as st

from wattscope import (
    DuplicatePid,
    MalformedLine,
    MultiNodeJob,
    PidMapSnapshot,
    PidTimeline,
    TraceError,
    UnknownJob,
    WattscopeError,
    build_timelines,
    parse_jobs,
    parse_pidmap,
)
from wattscope.jobs import check_owners, owner_at, ownership_index, read_pidmap
from helpers import job_pids_oracle, job_record, jsonl, owner_oracle, pidmap_snap


def pidmap_line(node="n1", ts=10.0, mapping=((4242, 7),)):
    return json.dumps({"node": node, "ts": ts, "map": [list(p) for p in mapping]})


def job_line(job=7, user="alice", node="n1", submit=0.0, start=5.0, end=900.0, status="COMPLETED"):
    return json.dumps(
        {"job": job, "user": user, "node": node, "submit": submit, "start": start, "end": end, "status": status}
    )


def random_snapshots(rng, node="n1", n_snaps=20, jobs=(7, 8, 9), pids=(41, 42, 43, 44, 45, 46)):
    pid_job = {pid: jobs[i % len(jobs)] for i, pid in enumerate(pids)}
    snaps = []
    for i in range(n_snaps):
        mapping = {pid: pid_job[pid] for pid in pids if rng.random() < 0.7}
        snaps.append(pidmap_snap(node, float(i * 5) + rng.random(), mapping))
    return snaps


class TestParsePidmap:
    def test_basic(self):
        (snap,) = parse_pidmap([pidmap_line(mapping=[[4243, 7], [4242, 7]])])
        assert snap == PidMapSnapshot("n1", 10.0, ((4242, 7), (4243, 7)))

    def test_duplicate_pid_two_jobs(self):
        with pytest.raises(DuplicatePid) as exc:
            parse_pidmap([pidmap_line(mapping=[[42, 7], [42, 8]])])
        assert exc.value.pid == 42
        assert exc.value.ts == 10.0

    def test_duplicate_pid_same_job_tolerated(self):
        (snap,) = parse_pidmap([pidmap_line(mapping=[[42, 7], [42, 7]])])
        assert snap.assignments == ((42, 7),)

    def test_lines_sharing_node_ts_are_merged(self):
        lines = [pidmap_line(mapping=[[41, 7]]), pidmap_line(mapping=[[42, 8]])]
        (snap,) = parse_pidmap(lines)
        assert snap.assignments == ((41, 7), (42, 8))
        with pytest.raises(DuplicatePid):
            parse_pidmap([pidmap_line(mapping=[[41, 7]]), pidmap_line(mapping=[[41, 8]])])

    def test_job_zero_reserved(self):
        with pytest.raises(MalformedLine):
            parse_pidmap([pidmap_line(mapping=[[42, 0]])])

    def test_bad_map_entries(self):
        for entry in ([1], [1.5, 7], [42, 7.0], [True, 7], [42, False], [42, 7, 1], "42", {"42": 7}, None):
            with pytest.raises(MalformedLine, match=r"line 1: map entries must be \[pid, job_id\] integer pairs"):
                parse_pidmap([json.dumps({"node": "n1", "ts": 1.0, "map": [[41, 7], entry]})])
        with pytest.raises(MalformedLine):
            parse_pidmap([json.dumps({"node": "n1", "ts": 1.0, "map": {"42": 7}})])

    def test_empty_map_allowed(self):
        (snap,) = parse_pidmap([json.dumps({"node": "n1", "ts": 1.0, "map": []})])
        assert snap.assignments == ()

    def test_roundtrip_500_synthetic_snapshots(self):
        rng = random.Random(11)
        snaps = []
        for node in ("n1", "n2"):
            snaps.extend(random_snapshots(rng, node=node, n_snaps=250))
        snaps.sort(key=lambda s: (s.node_id, s.ts))
        text = jsonl(snaps)
        assert parse_pidmap(text.splitlines()) == snaps
        assert jsonl(parse_pidmap(text.splitlines())) == text

    @given(st.text(max_size=200))
    def test_totality(self, text):
        try:
            parse_pidmap([text])
        except TraceError as exc:
            assert exc.line_no == 1


class TestParseJobs:
    def test_basic(self):
        (j,) = parse_jobs([job_line()])
        assert (j.job_id, j.user, j.node_id, j.status) == (7, "alice", "n1", "COMPLETED")
        assert (j.t_submit, j.t_start, j.t_end) == (0.0, 5.0, 900.0)

    def test_raw_status_kept_verbatim(self):
        (j,) = parse_jobs([job_line(status="NODE_FAIL")])
        assert j.status == "NODE_FAIL"

    def test_time_ordering_enforced(self):
        with pytest.raises(MalformedLine):
            parse_jobs([job_line(submit=10.0, start=5.0)])
        with pytest.raises(MalformedLine):
            parse_jobs([job_line(start=5.0, end=4.0)])
        parse_jobs([job_line(submit=5.0, start=5.0, end=5.0)])  # equality is fine

    def test_duplicate_job_id_rejected(self):
        with pytest.raises(MalformedLine) as exc:
            parse_jobs([job_line(), job_line()])
        assert exc.value.line_no == 2

    def test_job_id_positive(self):
        with pytest.raises(MalformedLine):
            parse_jobs([job_line(job=0)])

    def test_roundtrip(self):
        jobs = parse_jobs([job_line(), job_line(job=8, user="bob", status="TIMEOUT")])
        assert parse_jobs(jsonl(jobs).splitlines()) == jobs


class TestBuildTimelines:
    def test_job_never_observed_has_empty_entries(self):
        jobs = [job_record(7)]
        timelines = build_timelines([], jobs)
        assert timelines[7].entries == ()

    def test_entries_cover_every_node_snapshot(self):
        jobs = [job_record(7), job_record(8)]
        snaps = [
            pidmap_snap("n1", 10.0, {41: 7}),
            pidmap_snap("n1", 20.0, {41: 7, 42: 8}),
            pidmap_snap("n1", 30.0, {42: 8}),
        ]
        timelines = build_timelines(snaps, jobs)
        assert timelines[7].entries == (
            (10.0, frozenset({41})),
            (20.0, frozenset({41})),
            (30.0, frozenset()),
        )
        assert timelines[8].entries == (
            (10.0, frozenset()),
            (20.0, frozenset({42})),
            (30.0, frozenset({42})),
        )

    def test_unknown_job_rejected(self):
        with pytest.raises(UnknownJob) as exc:
            build_timelines([pidmap_snap("n1", 1.0, {41: 9})], [job_record(7)])
        assert exc.value.job_id == 9

    def test_multi_node_job_rejected(self):
        jobs = [job_record(7, node="n1")]
        with pytest.raises(MultiNodeJob):
            build_timelines([pidmap_snap("n2", 1.0, {41: 7})], jobs)

    def test_conflicting_merged_snapshots_rejected(self):
        jobs = [job_record(7), job_record(8)]
        snaps = [pidmap_snap("n1", 1.0, {41: 7}), pidmap_snap("n1", 1.0, {41: 8})]
        with pytest.raises(DuplicatePid):
            build_timelines(snaps, jobs)

    def test_input_order_insensitive(self):
        rng = random.Random(3)
        jobs = [job_record(7), job_record(8), job_record(9)]
        snaps = random_snapshots(rng)
        shuffled = snaps[:]
        rng.shuffle(shuffled)
        assert build_timelines(snaps, jobs) == build_timelines(shuffled, jobs)

    def test_step_hold_matches_latest_snapshot_oracle(self):
        rng = random.Random(5)
        jobs = [job_record(7), job_record(8), job_record(9)]
        snaps = random_snapshots(rng, n_snaps=30)
        timelines = build_timelines(snaps, jobs)
        span_hi = max(s.ts for s in snaps) + 10.0
        for _ in range(1000):
            t = rng.uniform(-5.0, span_hi)
            for job in jobs:
                tl = timelines[job.job_id]
                held = frozenset()
                for ts, pids in tl.entries:
                    if ts <= t:
                        held = pids
                    else:
                        break
                assert held == job_pids_oracle(snaps, "n1", job.job_id, t)

    def test_pid_sets_disjoint_at_any_instant(self):
        rng = random.Random(9)
        jobs = [job_record(7), job_record(8), job_record(9)]
        snaps = random_snapshots(rng, n_snaps=25)
        timelines = build_timelines(snaps, jobs)
        ts_points = sorted({ts for tl in timelines.values() for ts, _ in tl.entries})
        for t in ts_points:
            seen: set[int] = set()
            for tl in timelines.values():
                held: frozenset[int] = frozenset()
                for ts, pids in tl.entries:
                    if ts <= t:
                        held = pids
                assert not (seen & held)
                seen |= held


def owners_of(snaps):
    """The step index the CLI reads from these snapshots' pidmap lines."""
    return read_pidmap(jsonl(snaps).splitlines())


class TestPidOwner:
    def test_absence_is_a_value(self):
        index = owners_of([pidmap_snap("n1", 10.0, {41: 7})])
        assert owner_at(index, "n1", 41, 9.999) is None  # before first snapshot
        assert owner_at(index, "n1", 41, 10.0) == 7
        assert owner_at(index, "n1", 99, 10.0) is None  # unknown pid
        assert owner_at(index, "n2", 41, 10.0) is None  # other node

    def test_owner_changes_with_snapshots(self):
        index = owners_of([pidmap_snap("n1", 10.0, {41: 7}), pidmap_snap("n1", 20.0, {41: 8})])
        assert owner_at(index, "n1", 41, 15.0) == 7
        assert owner_at(index, "n1", 41, 20.0) == 8

    def test_10000_queries_against_linear_scan_oracle(self):
        rng = random.Random(13)
        snaps = random_snapshots(rng, n_snaps=40)
        snaps += random_snapshots(rng, node="n2", n_snaps=10, jobs=(17,), pids=(81, 82))
        index = owners_of(snaps)
        pids = [41, 42, 43, 44, 45, 46, 81, 82, 999]
        span_hi = max(s.ts for s in snaps) + 5.0
        for _ in range(10_000):
            node = "n1" if rng.random() < 0.8 else "n2"
            pid = rng.choice(pids)
            t = rng.uniform(-5.0, span_hi)
            assert owner_at(index, node, pid, t) == owner_oracle(snaps, node, pid, t)

    def test_two_timelines_holding_one_pid_are_rejected(self):
        # jobs 7 and 8 both holding pid 5 at ts 10, as two pidmap lines of one instant
        lines = jsonl([pidmap_snap("n1", 10.0, {5: 7}), pidmap_snap("n1", 10.0, {5: 8, 6: 8})]).splitlines()
        with pytest.raises(DuplicatePid) as exc:
            read_pidmap(lines)
        assert (exc.value.pid, exc.value.ts, exc.value.line_no) == (5, 10.0, 2)

    def test_consistent_with_build_timelines(self):
        rng = random.Random(21)
        jobs = [job_record(7), job_record(8), job_record(9)]
        snaps = random_snapshots(rng)
        timelines = build_timelines(snaps, jobs)
        index = owners_of(snaps)
        for tl in timelines.values():
            for ts, pids in tl.entries:
                for pid in pids:
                    assert owner_at(index, tl.node_id, pid, ts) == tl.job_id


SNAP_TS = (0.0, 1.0, 2.5, 4.0)
FIRST_JOB = {"n1": 7, "n2": 17}  # each node runs jobs FIRST_JOB[node] and FIRST_JOB[node] + 1


def pidmap_lines(records):
    """One pidmap line per (node, ts, [(pid, k)]) record, where k picks the node's job."""
    return [pidmap_line(node, ts, [(pid, FIRST_JOB[node] + k) for pid, k in pairs]) for node, ts, pairs in records]


record_lists = st.lists(
    st.tuples(
        st.sampled_from(sorted(FIRST_JOB)),
        st.sampled_from(SNAP_TS),
        st.lists(st.tuples(st.integers(1, 4), st.integers(0, 1)), max_size=3),
    ),
    max_size=10,
)


class TestReadPidmap:
    @given(
        st.lists(st.tuples(st.sampled_from(sorted(FIRST_JOB)), st.sampled_from(SNAP_TS), st.lists(st.integers(1, 6), max_size=4)), max_size=10),
        st.lists(st.tuples(st.sampled_from(["n1", "n2", "n3"]), st.integers(0, 7), st.one_of(st.sampled_from(SNAP_TS), st.floats(-1.0, 6.0))), max_size=30),
    )
    def test_owner_at_matches_oracle_over_merged_lines(self, records, queries):
        # a pid's job is fixed per node, so lines that share (node, ts) never conflict
        records = [(node, ts, [(pid, pid % 2) for pid in pids]) for node, ts, pids in records]
        merged: dict = {}
        for node, ts, pairs in records:
            merged.setdefault((node, ts), {}).update((pid, FIRST_JOB[node] + k) for pid, k in pairs)
        snaps = [pidmap_snap(node, ts, owners) for (node, ts), owners in merged.items()]
        index = read_pidmap(pidmap_lines(records))
        for node, pid, t in queries:
            assert owner_at(index, node, pid, t) == owner_oracle(snaps, node, pid, t)

    @given(record_lists)
    def test_duplicate_pid_matches_build_timelines(self, records):
        owners: dict = {}
        conflict = None
        for node, ts, pairs in records:
            for pid, k in pairs:
                if owners.setdefault((node, ts, pid), k) != k and conflict is None:
                    conflict = (pid, ts)
        snaps = [PidMapSnapshot(node, ts, tuple((pid, FIRST_JOB[node] + k) for pid, k in pairs)) for node, ts, pairs in records]
        jobs = [job_record(FIRST_JOB[node] + k, node=node) for node in FIRST_JOB for k in (0, 1)]
        raised = []
        for build in (lambda: read_pidmap(pidmap_lines(records)), lambda: build_timelines(snaps, jobs)):
            try:
                build()
            except DuplicatePid as exc:
                raised.append((exc.pid, exc.ts))
            else:
                raised.append(None)
        assert raised == [conflict, conflict]

    def test_duplicate_pid_names_its_line(self):
        lines = [pidmap_line(mapping=[[41, 7]]), pidmap_line(ts=20.0, mapping=[[41, 8]]), pidmap_line(mapping=[[42, 8], [41, 8]])]
        with pytest.raises(DuplicatePid) as exc:
            read_pidmap(lines)
        assert (exc.value.line_no, exc.value.pid, exc.value.ts) == (3, 41, 10.0)
        assert str(exc.value) == "line 3: pid 41 mapped to more than one job at ts 10.0"

    def test_duplicate_pid_from_built_snapshots_is_located_and_from_timelines_names_the_node(self):
        # built snapshots are checked as lines are, each position standing for its line; timelines have no line
        snaps = [pidmap_snap("n1", 10.0, {5: 7}), pidmap_snap("n1", 10.0, {5: 8})]
        with pytest.raises(DuplicatePid) as exc:
            build_timelines(snaps, [job_record(7), job_record(8)])
        assert str(exc.value) == "line 2: pid 5 mapped to more than one job at ts 10.0"
        assert (exc.value.line_no, exc.value.node_id) == (2, "n1")
        timelines = {
            7: PidTimeline(7, "n1", ((10.0, frozenset({5})),)),
            8: PidTimeline(8, "n1", ((10.0, frozenset({5})),)),
        }
        with pytest.raises(DuplicatePid) as exc:
            ownership_index(timelines)
        assert str(exc.value) == "pid 5 mapped to more than one job on node n1 at ts 10.0"
        assert (exc.value.line_no, exc.value.node_id) == (None, "n1")

    @pytest.mark.parametrize("job_id", [0, -1])
    def test_timelines_of_a_job_id_below_1_are_rejected(self, job_id):
        # read_pidmap rejects such an owner; folded in, job 0 would be listed apart from the unattributed bucket
        timelines = {7: PidTimeline(7, "n1", ((0.0, frozenset({6})),)), job_id: PidTimeline(job_id, "n1", ((0.0, frozenset({5})),))}
        with pytest.raises(WattscopeError, match=rf"^invalid job id {job_id} \(0 is reserved\)$"):
            ownership_index(timelines)

    def test_errors_come_in_pair_order_within_a_line(self):
        with pytest.raises(DuplicatePid):
            read_pidmap([pidmap_line(mapping=[[41, 7], [41, 8], [0, 7]])])
        with pytest.raises(MalformedLine, match="invalid pid 0"):
            read_pidmap([pidmap_line(mapping=[[0, 7], [41, 7], [41, 8]])])
        with pytest.raises(MalformedLine, match="invalid job id 0"):
            read_pidmap([pidmap_line(mapping=[[41, 7]]), pidmap_line(mapping=[[41, 0], [41, 8]])])

    def test_empty_snapshot_ends_ownership(self):
        index = read_pidmap([pidmap_line(ts=1.0, mapping=[[41, 7]]), pidmap_line(ts=2.0, mapping=[])])
        assert index == {"n1": ([1.0, 2.0], [{41: 7}, {}])}


class TestCheckOwners:
    def test_returns_jobs_by_id(self):
        jobs = [job_record(7), job_record(8, node="n2")]
        index = read_pidmap([pidmap_line(mapping=[[41, 7]]), pidmap_line(node="n2", mapping=[[41, 8]])])
        assert check_owners(index, jobs) == {7: jobs[0], 8: jobs[1]}

    def test_unknown_job(self):
        with pytest.raises(UnknownJob) as exc:
            check_owners(read_pidmap([pidmap_line(mapping=[[41, 7], [42, 9]])]), [job_record(7)])
        assert exc.value.job_id == 9

    def test_multi_node_job(self):
        with pytest.raises(MultiNodeJob, match=r"record says n1, seen on n2"):
            check_owners(read_pidmap([pidmap_line(node="n2", mapping=[[41, 7]])]), [job_record(7)])

    def test_first_error_in_node_snapshot_pid_order(self):
        lines = [
            pidmap_line(node="n2", ts=1.0, mapping=[[41, 5]]),
            pidmap_line(node="n1", ts=2.0, mapping=[[41, 6]]),
            pidmap_line(node="n1", ts=1.0, mapping=[[43, 4], [42, 3]]),
        ]
        with pytest.raises(UnknownJob) as exc:
            check_owners(read_pidmap(lines), [])
        assert exc.value.job_id == 3


class TestOwnerAt:
    def test_step_hold(self):
        index = read_pidmap([pidmap_line(ts=10.0, mapping=[[41, 7]]), pidmap_line(ts=20.0, mapping=[[41, 8], [42, 8]])])
        assert owner_at(index, "n1", 41, 9.999) is None  # before the first snapshot
        assert owner_at(index, "n1", 41, 10.0) == 7
        assert owner_at(index, "n1", 41, 19.999) == 7
        assert owner_at(index, "n1", 41, 20.0) == 8
        assert owner_at(index, "n1", 42, 15.0) is None  # not yet mapped
        assert owner_at(index, "n1", 99, 25.0) is None  # unknown pid
        assert owner_at(index, "n2", 41, 25.0) is None  # unknown node
