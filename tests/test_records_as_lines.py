"""Built records are checked as the readers check JSON lines.

PowerColumns.of, ProcColumns.of, SliceColumns.of and build_timelines put
their records through the loops of read_power_trace, read_proc_trace,
read_slices and read_pidmap, each record's 1-based position standing for
its line.  A field of the wrong shape (assignments or per_job that are no
sequence or mapping, a job entry that is no JobPower) reaches the loop as
it is, and fails as the same value on a line.  The differential tests
below draw values a JSON line can carry, valid or not, write the records
with helpers.jsonl, and require both paths to give the same columns
(compared byte for byte) or the same error.
"""

import math
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from wattscope import (
    AttributionSlice,
    Interval,
    JobPower,
    MalformedLine,
    PidMapSnapshot,
    PowerSample,
    ProcSnapshot,
    SliceColumns,
    TraceBundle,
    WattscopeError,
    attribute,
    build_timelines,
    gpu_histogram,
    integrate_energy,
    parse_pidmap,
    parse_source,
    read_slices,
    serialize_slices,
)
from wattscope.jobs import check_owners, read_pidmap
from wattscope.traces import PowerColumns, ProcColumns, read_power_trace, read_proc_trace
from helpers import job_record, jsonl, pidmap_snap, power_sample, proc_snap


def state(value):
    """A comparable form of columns: arrays by their bytes, so that -0.0, 0.0 and NaN are told apart."""
    if isinstance(value, array):
        return value.typecode, value.tobytes()
    if isinstance(value, (list, tuple)) and not hasattr(value, "_fields"):
        return [state(v) for v in value]
    if isinstance(value, dict):
        return {k: state(v) for k, v in value.items()}
    if hasattr(type(value), "__slots__") and not hasattr(value, "_fields"):
        return {name: state(getattr(value, name)) for name in type(value).__slots__}
    return value


def outcome(build, *args):
    try:
        return "ok", state(build(*args))
    except WattscopeError as exc:
        return type(exc), str(exc)


def lines_of(records):
    return jsonl(records).splitlines()


@st.composite
def with_a_fault(draw, records, faults):
    """A list of records that pass one by one, half the time with one record given a field no reader accepts.

    Lists also fail as wholes, since the records draw from few values: a (node, ts, pid) repeats, a pid gets
    two jobs at one instant, cpu_s falls, a power series' ts go back, or a job is seen off its node.
    """
    drawn = draw(st.lists(records, max_size=10))
    if drawn and draw(st.booleans()):
        i = draw(st.integers(0, len(drawn) - 1))
        drawn[i] = draw(faults(drawn[i]))
    return drawn


nodes = st.sampled_from(["n1", "n2"])
# few distinct instants, so that repeats, ties, sub-ms digits and out-of-order ts are common
times = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0004, 2.0, 2.0006, 3.5]), st.integers(-2, 4),
                  st.floats(-1e3, 1e3))
watts = st.one_of(st.sampled_from([0.0, -0.0, 5.0, 1e308]), st.integers(0, 3), st.floats(0, 1e6))
negative = st.one_of(st.sampled_from([-1.0, -5e-324]), st.integers(-2, -1), st.floats(max_value=-1e-300, allow_infinity=False))


@st.composite
def proc_snapshot(draw):
    gpu = draw(st.sampled_from([None, 0, 1]))
    sm, mem = (None, None) if gpu is None else draw(st.tuples(
        st.one_of(st.none(), st.sampled_from([0.0, -0.0, 50.0, 100.0])), st.one_of(st.none(), watts)))
    return ProcSnapshot(draw(nodes), draw(times), draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([0.0, 1.0, 2.0])),
                        gpu, sm, mem)


def proc_fault(snap):
    on_gpu = snap._replace(gpu_index=0)
    return st.one_of(
        st.builds(lambda pid: snap._replace(pid=pid), st.sampled_from([0, -1, True])),
        st.builds(lambda cpu: snap._replace(cpu_time_s=cpu), negative),
        st.just(snap._replace(node_id="")),
        st.just(snap._replace(gpu_index=-1)),
        st.builds(lambda sm: on_gpu._replace(gpu_sm_pct=sm), st.sampled_from([-10.0, 100.5, 150.0])),
        st.builds(lambda mem: on_gpu._replace(gpu_mem_mib=mem), negative),
        st.just(snap._replace(gpu_index=None, gpu_sm_pct=50.0)),
    )


power_samples = with_a_fault(
    st.builds(PowerSample, nodes, st.sampled_from(["cpu0", "cpu1", "gpu0", "ext"]).map(parse_source), times, watts),
    lambda sample: st.one_of(st.just(sample._replace(node_id="")), st.builds(lambda w: sample._replace(power_w=w), negative)),
)
proc_snapshots = with_a_fault(proc_snapshot(), proc_fault)
pidmap_snapshots = with_a_fault(
    st.builds(PidMapSnapshot, nodes, times,
              st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([1, 2, 7])), max_size=3).map(tuple)),
    lambda snap: st.builds(lambda pair: snap._replace(assignments=snap.assignments + (pair,)),
                           st.sampled_from([(0, 1), (1, 0), (2, -1), (1,), (1, 2, 3), 5, [1, 1.0]])),
)
built_slices = with_a_fault(
    st.builds(
        lambda node, t0, dt, per_job, u_cpu, u_gpu, u_ext: AttributionSlice(
            Interval(t0, t0 + dt), node, per_job, u_cpu, u_gpu, u_ext),
        nodes, st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.sampled_from([0.5, 1.0, 20.0]),
        st.dictionaries(st.sampled_from([1, 7, 12]), st.builds(JobPower, watts, watts, st.one_of(st.none(), watts)),
                        max_size=3),
        watts, watts, st.one_of(st.none(), watts),
    ),
    lambda s: st.one_of(
        st.just(s._replace(node_id="")),
        st.builds(lambda job: s._replace(per_job={**s.per_job, job: JobPower(1.0, 1.0)}), st.sampled_from([0, -2])),
        st.builds(lambda w: s._replace(per_job={**s.per_job, 7: JobPower(w, 1.0)}), negative),
        st.builds(lambda w: s._replace(unattributed_gpu_w=w), negative),
        st.builds(lambda w: s._replace(unattributed_ext_w=w), negative),
    ),
)


class TestRecordsAsLines:
    @settings(max_examples=300, deadline=None)
    @given(power_samples)
    def test_power_records_read_as_their_lines(self, samples):
        assert outcome(PowerColumns.of, samples) == outcome(read_power_trace, lines_of(samples))

    @settings(max_examples=300, deadline=None)
    @given(proc_snapshots)
    def test_proc_records_read_as_their_lines(self, snaps):
        assert outcome(ProcColumns.of, snaps) == outcome(read_proc_trace, lines_of(snaps))

    @settings(max_examples=300, deadline=None)
    @given(built_slices)
    def test_slices_read_as_their_lines(self, slices):
        assert outcome(SliceColumns.of, slices) == outcome(read_slices, lines_of(slices))

    @settings(max_examples=300, deadline=None)
    @given(pidmap_snapshots, st.lists(st.sampled_from(["n1", "n2"]), min_size=3, max_size=3))
    def test_pidmap_records_read_as_their_lines(self, snaps, job_nodes):
        # the index of the lines, as the commands check it, and as built again from parse_pidmap's snapshots
        jobs = [job_record(job_id, node) for job_id, node in zip((1, 2, 7), job_nodes)]

        def checked_lines():
            index = read_pidmap(lines_of(snaps))
            check_owners(index, jobs)
            return index

        from_lines = outcome(checked_lines)
        assert outcome(build_timelines, snaps, jobs) == from_lines
        assert outcome(lambda: build_timelines(parse_pidmap(lines_of(snaps)), jobs)) == from_lines


def two_power(bad):
    return [power_sample("n1", "cpu0", 0.0, 1.0), PowerSample("n1", parse_source("cpu0"), 1.0, bad)]


def two_procs(**bad):
    fields = dict(node_id="n1", ts=1.0, pid=41, cpu_time_s=1.0, gpu_index=0, gpu_sm_pct=5.0, gpu_mem_mib=5.0)
    return [proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=5.0, mem=5.0), ProcSnapshot(**{**fields, **bad})]


def two_slices(**bad):
    ok = AttributionSlice(Interval(0.0, 1.0), "n1", {7: JobPower(1.0, 1.0, 1.0)}, 0.0, 0.0, 0.0)
    per_job = {7: JobPower(**{"cpu_w": 1.0, "gpu_w": 1.0, "ext_w": 1.0,
                              **{k: v for k, v in bad.items() if k in JobPower._fields}})}
    unattributed = {k: bad.get(k, 0.0) for k in ("unattributed_cpu_w", "unattributed_gpu_w", "unattributed_ext_w")}
    return [ok, AttributionSlice(Interval(1.0, 2.0), "n1", per_job, **unattributed)]


def in_attribute(power=(), procs=()):
    return lambda: attribute(TraceBundle.build(list(power), list(procs)), {})


NON_FINITE_CASES = [
    ("ts", lambda bad: in_attribute(procs=two_procs(ts=bad))),
    ("cpu_s", lambda bad: in_attribute(procs=two_procs(cpu_time_s=bad))),
    ("sm_pct", lambda bad: in_attribute(procs=two_procs(gpu_sm_pct=bad))),
    ("mem_mib", lambda bad: in_attribute(procs=two_procs(gpu_mem_mib=bad))),
    ("sm_pct", lambda bad: lambda: gpu_histogram(two_procs(gpu_sm_pct=bad))),
    ("w", lambda bad: in_attribute(power=two_power(bad))),
    ("ts", lambda bad: lambda: build_timelines([pidmap_snap("n1", 0.0, {}), PidMapSnapshot("n1", bad, ())], [])),
    ("cpu_w", lambda bad: lambda: serialize_slices(two_slices(cpu_w=bad))),
    ("gpu_w", lambda bad: lambda: serialize_slices(two_slices(gpu_w=bad))),
    ("ext_w", lambda bad: lambda: serialize_slices(two_slices(ext_w=bad))),
    ("unattr_cpu_w", lambda bad: lambda: serialize_slices(two_slices(unattributed_cpu_w=bad))),
    ("unattr_gpu_w", lambda bad: lambda: serialize_slices(two_slices(unattributed_gpu_w=bad))),
    ("unattr_ext_w", lambda bad: lambda: serialize_slices(two_slices(unattributed_ext_w=bad))),
]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("field, call", NON_FINITE_CASES, ids=[f"{i}-{field}" for i, (field, _) in enumerate(NON_FINITE_CASES)])
def test_a_non_finite_reading_in_a_record_fails_naming_its_field(field, call, bad):
    with pytest.raises(MalformedLine) as exc:
        call(bad)()
    assert str(exc.value) == f"line 2: missing or invalid {field!r}"


@pytest.mark.parametrize("assignments, wire", [(None, "null"), (5, "5"), ("12", '"12"')], ids=["none", "int", "str"])
def test_assignments_of_the_wrong_shape_fail_as_their_line(assignments, wire):
    with pytest.raises(MalformedLine) as exc:
        build_timelines([pidmap_snap("n1", 0.0, {}), PidMapSnapshot("n1", 1.0, assignments)], [])
    with pytest.raises(MalformedLine) as want:
        read_pidmap(['{"node":"n1","ts":0.0,"map":[]}', '{"node":"n1","ts":1.0,"map":%s}' % wire])
    assert str(exc.value) == str(want.value) == "line 2: missing or invalid 'map'"


SHAPE_CASES = [  # per_job, the same value on the wire, the error's detail
    (None, "null", "missing or invalid 'jobs'"),
    (5, "5", "missing or invalid 'jobs'"),
    ([], "[]", "missing or invalid 'jobs'"),
    ({7: None}, '{"7":null}', "invalid job entry for '7'"),
    ({7: 1.5}, '{"7":1.5}', "invalid job entry for '7'"),
    ({7: (1.0, 2.0)}, '{"7":[1.0,2.0]}', "invalid job entry for '7'"),
]


@pytest.mark.parametrize("call", [serialize_slices, integrate_energy], ids=["serialize", "integrate"])
@pytest.mark.parametrize("per_job, wire, detail", SHAPE_CASES, ids=[f"{i}-{wire}" for i, (_, wire, _) in enumerate(SHAPE_CASES)])
def test_per_job_of_the_wrong_shape_fails_as_its_line(call, per_job, wire, detail):
    ok = AttributionSlice(Interval(0.0, 1.0), "n1", {7: JobPower(1.0, 1.0)}, 0.0, 0.0)
    with pytest.raises(MalformedLine) as exc:
        call([ok, AttributionSlice(Interval(1.0, 2.0), "n1", per_job, 0.0, 0.0)])
    line = '{"node":"n1","t0":%s,"t1":%s,"jobs":%s,"unattr_cpu_w":0.0,"unattr_gpu_w":0.0}'
    with pytest.raises(MalformedLine) as want:
        read_slices([line % (0.0, 1.0, '{"7":{"cpu_w":1.0,"gpu_w":1.0}}'), line % (1.0, 2.0, wire)])
    assert str(exc.value) == str(want.value) == f"line 2: {detail}"
