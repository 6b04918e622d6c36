"""SliceColumns, the slice record the commands use, against the record-level loops it replaced.

The references below are the per-object loops that integrate_energy,
slice_coverage, apply_calibration and the slice serializer ran over lists
of AttributionSlice: json.dumps per slice object, and joules added job by
job in (node, t0) order, with gaps decided in whole milliseconds by
helpers.is_gap.  The columns must give the same bytes and the same floats,
bit for bit, on random scenarios with non-ASCII node names, gap slices,
calibrated slices and -0.0 watts.  The CLI test pins that the commands
build no slice object at all.
"""

import io
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import wattscope.attribution
from wattscope import (
    AttributionSlice,
    CalibrationModel,
    Interval,
    JobEnergy,
    JobPower,
    MalformedLine,
    SliceColumns,
    apply_calibration,
    integrate_energy,
    read_slices,
    serialize_slices,
    slice_coverage,
)
from wattscope.attribution import attribute_columns
from wattscope.cli import run
from wattscope.jobs import check_owners, read_pidmap
from wattscope.traces import read_power_trace, read_proc_trace
from helpers import is_gap, jsonl, random_scenario, write_status_split_fixture

J_PER_KWH = 3.6e6

# -------------------------------------------------- the record-level loops


def reference_line(s: AttributionSlice) -> str:
    jobs = {}
    for job_id in sorted(s.per_job):
        p = s.per_job[job_id]
        jobs[str(job_id)] = {"cpu_w": p.cpu_w, "gpu_w": p.gpu_w, **({} if p.ext_w is None else {"ext_w": p.ext_w})}
    obj = {"node": s.node_id, "t0": s.interval.t0, "t1": s.interval.t1, "jobs": jobs,
           "unattr_cpu_w": s.unattributed_cpu_w, "unattr_gpu_w": s.unattributed_gpu_w}
    if s.unattributed_ext_w is not None:
        obj["unattr_ext_w"] = s.unattributed_ext_w
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


def reference_integrate(slices, max_gap_s):
    acc = {}
    for s in sorted(slices, key=lambda s: (s.node_id, s.interval.t0)):
        if is_gap(*s.interval, max_gap_s):
            continue
        dt = s.interval.t1 - s.interval.t0
        parts = [(job_id, s.per_job[job_id]) for job_id in sorted(s.per_job)]
        parts.append((0, JobPower(s.unattributed_cpu_w, s.unattributed_gpu_w, s.unattributed_ext_w)))
        for job_id, p in parts:
            b = acc.setdefault(job_id, [0.0, 0.0, 0.0, False])
            b[0] += p.cpu_w * dt
            b[1] += p.gpu_w * dt
            if p.ext_w is not None:
                b[2] += p.ext_w * dt
                b[3] = True
    return {j: JobEnergy(j, v[0] / J_PER_KWH, v[1] / J_PER_KWH, v[2] / J_PER_KWH if v[3] else None)
            for j, v in sorted(acc.items())}


def reference_coverage(slices, max_gap_s):
    covered = excluded = 0.0
    n_excluded = 0
    for s in slices:
        dt = s.interval.t1 - s.interval.t0
        if is_gap(*s.interval, max_gap_s):
            excluded += dt
            n_excluded += 1
        else:
            covered += dt
    return covered, excluded, len(slices), n_excluded


def reference_calibrate(k_of, slices):
    return [
        s._replace(
            per_job={j: p._replace(ext_w=k_of[s.node_id] * (p.cpu_w + p.gpu_w)) for j, p in s.per_job.items()},
            unattributed_ext_w=k_of[s.node_id] * (s.unattributed_cpu_w + s.unattributed_gpu_w),
        )
        for s in slices
    ]


# ------------------------------------------------------------ the scenarios

# JSON escapes each of these differently: quote, backslash, non-ASCII, a line separator, a surrogate pair
NODE_CHARS = 'aZ09-._"\\é日 \U0001f600'

scenarios = st.builds(
    dict,
    seed=st.integers(min_value=0, max_value=10**6),
    n_jobs=st.integers(min_value=1, max_value=6),
    n_gpus=st.integers(min_value=0, max_value=3),
    n_intervals=st.integers(min_value=2, max_value=60),
    n_nodes=st.integers(min_value=1, max_value=3),
    gap_prob=st.sampled_from([0.0, 0.02, 0.3]),
)


def columns_of(params, rng: random.Random) -> tuple[SliceColumns, dict[str, float]]:
    """A scenario's slices through the column readers, with its nodes renamed; and a scale per node."""
    params = dict(params)
    sc = random_scenario(random.Random(params.pop("seed")), **params)
    nodes = sorted({r.node_id for records in sc.values() for r in records})
    names = {node: f"{node}{''.join(rng.choice(NODE_CHARS) for _ in range(rng.randint(0, 4)))}" for node in nodes}
    sc = {key: [r._replace(node_id=names[r.node_id]) for r in records] for key, records in sc.items()}
    owners = read_pidmap(jsonl(sc["pidmap"]).splitlines())
    check_owners(owners, sc["jobs"])
    cols = attribute_columns(
        read_power_trace(jsonl(sc["power"]).splitlines()),
        read_proc_trace(jsonl(sc["procs"]).splitlines()),
        owners,
    )
    return cols, {name: rng.uniform(0.5, 3.0) for name in names.values()}


def negative_zeros(text: str, rng: random.Random) -> str:
    """text with some 0.0 watts written as -0.0, which every reader accepts."""
    return re.sub(r'(_w":)0\.0\b', lambda m: m[1] + ("-0.0" if rng.random() < 0.5 else "0.0"), text)


class TestSliceColumns:
    @settings(max_examples=40)
    @given(scenarios, st.randoms(use_true_random=False), st.booleans())
    def test_lines_are_the_bytes_json_writes(self, params, rng, calibrated):
        cols, k_of = columns_of(params, rng)
        if calibrated:
            cols = apply_calibration({node: CalibrationModel(node, k, 0.0, 2) for node, k in k_of.items()}, cols)
        records = cols.slices()
        want = "".join(map(reference_line, records))
        assert serialize_slices(cols) == want
        assert serialize_slices(records) == want
        assert SliceColumns.of(records).slices() == records

    @settings(max_examples=40)
    @given(scenarios, st.randoms(use_true_random=False), st.booleans())
    def test_read_slices_round_trips_the_text(self, params, rng, calibrated):
        cols, k_of = columns_of(params, rng)
        if calibrated:
            cols = apply_calibration({node: CalibrationModel(node, k, 0.0, 2) for node, k in k_of.items()}, cols)
        text = negative_zeros(serialize_slices(cols), rng)
        read = read_slices(text.splitlines())
        assert serialize_slices(read) == text
        assert len(read) == len(cols)

    @settings(max_examples=40)
    @given(scenarios, st.randoms(use_true_random=False), st.sampled_from([0.7, 1.2, 10.0, 30.0]))
    def test_integrals_are_bit_equal_to_the_record_loops(self, params, rng, max_gap_s):
        cols, k_of = columns_of(params, rng)
        lines = negative_zeros(serialize_slices(cols), rng).splitlines()
        rng.shuffle(lines)  # integration orders the slices by (node, t0) itself
        cols = read_slices(lines)
        records = cols.slices()
        calibrated = apply_calibration({node: CalibrationModel(node, k, 0.0, 2) for node, k in k_of.items()}, cols)
        assert calibrated.slices() == reference_calibrate(k_of, records)
        # repr tells -0.0 from 0.0, which == does not
        for got in (cols, records):
            assert repr(integrate_energy(got, max_gap_s)) == repr(reference_integrate(records, max_gap_s))
            assert repr(tuple(slice_coverage(got, max_gap_s))) == repr(reference_coverage(records, max_gap_s))
        want = reference_integrate(reference_calibrate(k_of, records), max_gap_s)
        assert repr(integrate_energy(calibrated, max_gap_s)) == repr(want)

    def test_entries_are_kept_by_ascending_job_id(self):
        s = AttributionSlice(Interval(0.0, 1.0), "n1", {9: JobPower(1.0, 0.0), 10: JobPower(2.0, 0.0)}, 0.0, 0.0)
        cols = SliceColumns.of([s])
        assert [cols.jobs[j] for j in cols.job] == [9, 10]
        assert list(cols.start) == [0, 2]
        assert serialize_slices(cols).startswith('{"node":"n1","t0":0.0,"t1":1.0,"jobs":{"9":')
        assert serialize_slices(read_slices(['{"node":"n1","t0":0.0,"t1":1.0,"jobs":{"10":{"cpu_w":2.0,"gpu_w":0.0},'
                                             '"9":{"cpu_w":1.0,"gpu_w":0.0}},"unattr_cpu_w":0.0,"unattr_gpu_w":0.0}'])) \
            == serialize_slices(cols)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_a_watt_json_cannot_write_is_an_error(self, bad):
        # built slices are checked as lines are, so the watt fails at its slice's position, before any write
        ok = AttributionSlice(Interval(0.0, 1.0), "n1", {7: JobPower(10.0, 0.0)}, 0.0, 0.0)
        s = AttributionSlice(Interval(1.0, 2.0), "n1", {7: JobPower(bad, 0.0)}, 0.0, 0.0)
        with pytest.raises(MalformedLine) as exc:
            serialize_slices([ok, s])
        assert str(exc.value) == "line 2: missing or invalid 'cpu_w'"
        # calibration can take an ext watt past the float range; writing it fails as json.dumps does
        with pytest.raises(ValueError) as exc:
            serialize_slices(apply_calibration(CalibrationModel("n1", 1e308, 0.0, 2), SliceColumns.of([ok])))
        with pytest.raises(ValueError) as want:
            json.dumps(float("inf"), allow_nan=False)
        assert str(exc.value) == str(want.value)


def test_the_cli_builds_no_slice_object(tmp_path, monkeypatch):
    f = write_status_split_fixture(tmp_path)
    raw = ["--power", f["power"], "--proc", f["proc"], "--pidmap", f["pidmap"], "--jobs", f["jobs"]]

    def cli(*argv):
        out, err = io.StringIO(), io.StringIO()
        assert run(list(argv), stdout=out, stderr=err) == 0, err.getvalue()
        return out.getvalue()

    slices = tmp_path / "slices.jsonl"
    slices.write_text(cli("attribute", *raw), encoding="utf-8")
    commands = [
        ["attribute", *raw],
        ["report", "status", *raw],
        ["report", "user", *raw, "--model", f["model"], "--format", "json"],
        ["report", "status", "--jobs", f["jobs"], "--slices", str(slices), "--model", f["model"]],
        ["validate", "--slices", str(slices)],
    ]
    want = [cli(*argv) for argv in commands]

    def built(*args, **kwargs):
        raise AssertionError("a slice record was built")

    for name in ("AttributionSlice", "JobPower", "Interval"):
        monkeypatch.setattr(wattscope.attribution, name, built)
    assert [cli(*argv) for argv in commands] == want
