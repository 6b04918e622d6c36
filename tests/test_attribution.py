import math
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from wattscope import (
    AttributionSlice,
    CpuTimeRegression,
    Interval,
    JobPower,
    MalformedLine,
    NegativeDelta,
    NegativePower,
    OutOfRangeUtilization,
    OverlappingSlices,
    TraceBundle,
    WattscopeError,
    attribute,
    build_timelines,
    integrate_energy,
    parse_slices,
    serialize_slices,
    slice_coverage,
)
from wattscope.attribution import read_slices
from wattscope.jobs import read_pidmap
from wattscope.split import attribute_columns
from wattscope.traces import read_power_trace, read_proc_trace
from helpers import (
    frac_shares,
    gpu_shares_oracle,
    job_record,
    jsonl,
    lerp_at_midpoint,
    naive_attribute,
    pidmap_snap,
    power_sample,
    proc_snap,
    random_scenario,
)

REL = 1e-9


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def run_attribution(scenario, threads=1):
    bundle = TraceBundle.build(scenario["power"], scenario["procs"])
    timelines = build_timelines(scenario["pidmap"], scenario["jobs"])
    return attribute(bundle, timelines, threads=threads)


def assert_matches_naive(slices, ref):
    assert len(slices) == len(ref)
    for s, r in zip(slices, ref):
        assert s.node_id == r["node"]
        assert (s.interval.t0, s.interval.t1) == (r["t0"], r["t1"])
        assert set(s.per_job) == set(r["jobs"])
        for j, (cpu, gpu) in r["jobs"].items():
            assert close(s.per_job[j].cpu_w, cpu)
            assert close(s.per_job[j].gpu_w, gpu)
        assert close(s.unattributed_cpu_w, r["unattr_cpu"])
        assert close(s.unattributed_gpu_w, r["unattr_gpu"])


nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
delta_maps = st.dictionaries(st.integers(min_value=0, max_value=20), nonneg, min_size=1, max_size=8)


def split_one_slice(kind, power_w, procs):
    """One 10 s slice on node n1, read and split as the CLI does; returns (per-job watts, unattributed watts) of kind.

    The node's one kind series ("cpu0" or "gpu0") reads power_w throughout.
    procs are (job_id, cpu-time delta, sm_pct, mem_mib), one pid each, seen
    at both ends with cpu_s 0.0 at the start and, for "gpu", on gpu0 with
    its readings; job 0 marks a pid that no job owns.  Two more pids, each
    seen at one end only, give the slice its ends.
    """
    gpu = 0 if kind == "gpu" else None
    power = [power_sample("n1", f"{kind}0", t, power_w) for t in (0.0, 10.0)]
    start, end, owners = [proc_snap("n1", 0.0, 1, 0.0)], [proc_snap("n1", 10.0, 2, 0.0)], {}
    for pid, (job_id, delta, sm, mem) in enumerate(procs, start=100):
        start.append(proc_snap("n1", 0.0, pid, 0.0, gpu, sm, mem))
        end.append(proc_snap("n1", 10.0, pid, delta, gpu, sm, mem))
        if job_id:
            owners[pid] = job_id
    cols = attribute_columns(
        read_power_trace(jsonl(power).splitlines()),
        read_proc_trace(jsonl(start + end).splitlines()),
        read_pidmap(jsonl([pidmap_snap("n1", 0.0, owners)]).splitlines()),
    )
    assert (len(cols), cols.t0[0], cols.t1[0]) == (1, 0.0, 10.0)
    watts, unattributed = (cols.cpu, cols.unattr_cpu) if kind == "cpu" else (cols.gpu, cols.unattr_gpu)
    return {cols.jobs[j]: w for j, w in zip(cols.job, watts)}, unattributed[0]


def cpu_split(deltas, node_power_w):
    """The CPU split of one slice: deltas are per-job cpu-time deltas, job 0 for pids no job owns."""
    return split_one_slice("cpu", node_power_w, [(job_id, delta, None, None) for job_id, delta in deltas.items()])


def gpu_split(procs_on_gpu, gpu_power_w):
    """The split of one GPU in one slice: procs_on_gpu are (job_id, sm_pct, mem_mib) per process."""
    return split_one_slice("gpu", gpu_power_w, [(job_id, 0.0, sm, mem) for job_id, sm, mem in procs_on_gpu])


def assert_scaled_by_power_of_two(got, v, factor):
    """got == v * factor bit for bit while v and v * factor are normal floats.

    A subnormal share is rounded to a multiple of the smallest subnormal, and
    scaling v multiplies that rounding by factor, so there they may differ by
    max(factor, 1) such steps.
    """
    if v == 0.0 or min(abs(v), abs(v * factor)) > sys.float_info.min:
        assert got == v * factor
    else:
        assert abs(got - v * factor) <= max(factor, 1.0) * math.ulp(0.0)


class TestCpuShares:
    def test_proportional_split(self):
        shares, unattr = cpu_split({7: 3.0, 8: 1.0}, 200.0)
        assert shares == {7: 150.0, 8: 50.0}
        assert unattr == 0.0

    def test_all_zero_deltas_means_no_evidence(self):
        assert cpu_split({7: 0.0, 8: 0.0}, 120.0) == ({}, 120.0)
        assert cpu_split({}, 120.0) == ({}, 120.0)

    def test_pseudo_job_share_routes_to_unattributed(self):
        shares, unattr = cpu_split({0: 1.0, 7: 1.0}, 100.0)
        assert shares == {7: 50.0}
        assert unattr == 50.0

    def test_negative_delta_rejected(self):
        # cumulative cpu time that goes back is rejected when read, at its line
        with pytest.raises(CpuTimeRegression) as exc:
            read_proc_trace(jsonl([proc_snap("n1", 0.0, 100, 0.5), proc_snap("n1", 10.0, 100, 0.0)]).splitlines())
        assert (exc.value.pid, exc.value.line_no) == (100, 2)

    def test_negative_power_rejected(self):
        with pytest.raises(NegativePower):
            cpu_split({7: 1.0}, -1.0)

    def test_1000_random_cases_match_rational_oracle(self):
        rng = random.Random(17)
        for _ in range(1000):
            deltas = {j: rng.choice([0.0, rng.uniform(0.0, 50.0)]) for j in rng.sample(range(0, 12), rng.randint(1, 6))}
            power = rng.uniform(0.0, 1000.0)
            got_shares, got_unattr = cpu_split(deltas, power)
            want_shares, want_unattr = frac_shares(deltas, power)
            assert set(got_shares) == set(want_shares)
            for j in want_shares:
                assert close(got_shares[j], want_shares[j], rel=1e-12)
            assert close(got_unattr, want_unattr, rel=1e-12)

    @given(delta_maps, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_conservation(self, deltas, power):
        shares, unattr = cpu_split(deltas, power)
        assert math.isclose(sum(shares.values()) + unattr, power, rel_tol=1e-9, abs_tol=1e-9)

    @given(delta_maps, st.floats(min_value=1e-3, max_value=1e6, allow_nan=False), st.sampled_from([0.5, 2.0, 1024.0]))
    def test_scale_invariance_of_deltas(self, deltas, power, factor):
        # scaling every delta by a power of two leaves the ratios bit-exact
        scaled = {j: v * factor for j, v in deltas.items()}
        assert cpu_split(scaled, power) == cpu_split(deltas, power)

    @given(delta_maps, st.floats(min_value=1e-3, max_value=1e6, allow_nan=False), st.sampled_from([0.5, 2.0, 1024.0]))
    @example({0: 73.25, 1: 2.2250738585072014e-308}, 0.25, 0.5)  # a subnormal share
    def test_linearity_in_power(self, deltas, power, factor):
        shares, unattr = cpu_split(deltas, power)
        scaled_shares, scaled_unattr = cpu_split(deltas, power * factor)
        assert set(scaled_shares) == set(shares)
        for j, v in shares.items():
            assert_scaled_by_power_of_two(scaled_shares[j], v, factor)
        assert_scaled_by_power_of_two(scaled_unattr, unattr, factor)

    @given(delta_maps, st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_share_never_exceeds_power(self, deltas, power):
        shares, unattr = cpu_split(deltas, power)
        for v in shares.values():
            assert 0.0 <= v <= power * (1 + 1e-12)
        assert 0.0 <= unattr <= power * (1 + 1e-12)


class TestGpuShares:
    def test_sm_weighted_split(self):
        shares, unattr = gpu_split([(7, 60.0, None), (8, 20.0, None)], 300.0)
        assert shares == {7: 225.0, 8: 75.0}
        assert unattr == 0.0

    def test_mem_fallback_when_sm_all_zero(self):
        shares, unattr = gpu_split([(7, 0.0, 3000.0), (8, None, 1000.0)], 100.0)
        assert shares == {7: 75.0, 8: 25.0}
        assert unattr == 0.0

    def test_equal_split_when_both_degenerate(self):
        shares, unattr = gpu_split([(7, 0.0, 0.0), (8, None, None), (9, 0.0, None)], 90.0)
        assert shares == {7: 30.0, 8: 30.0, 9: 30.0}
        assert unattr == 0.0

    def test_no_processes_means_all_unattributed(self):
        assert gpu_split([], 250.0) == ({}, 250.0)

    def test_ownerless_process_share_is_unattributed(self):
        shares, unattr = gpu_split([(0, 30.0, None), (7, 30.0, None)], 100.0)
        assert shares == {7: 50.0}
        assert unattr == 50.0

    def test_multiple_processes_per_job_sum_their_weights(self):
        shares, _ = gpu_split([(7, 10.0, None), (7, 30.0, None), (8, 40.0, None)], 160.0)
        assert shares == {7: 80.0, 8: 80.0}

    def test_validation(self):
        with pytest.raises(OutOfRangeUtilization):
            gpu_split([(7, 101.0, None)], 100.0)
        with pytest.raises(OutOfRangeUtilization):
            gpu_split([(7, 50.0, -1.0)], 100.0)
        with pytest.raises(NegativePower):
            gpu_split([(7, 50.0, None)], -5.0)

    def test_500_random_cases_match_oracle(self):
        rng = random.Random(23)
        for _ in range(500):
            procs = []
            for _ in range(rng.randint(0, 6)):
                job = rng.choice([0, 7, 8, 9])
                sm = rng.choice([None, 0.0, rng.uniform(0.0, 100.0)])
                mem = rng.choice([None, 0.0, rng.uniform(0.0, 16000.0)])
                procs.append((job, sm, mem))
            power = rng.uniform(0.0, 500.0)
            got_shares, got_unattr = gpu_split(procs, power)
            want_shares, want_unattr = gpu_shares_oracle(procs, power)
            assert set(got_shares) == set(want_shares)
            for j in want_shares:
                assert close(got_shares[j], want_shares[j], rel=1e-12)
            assert close(got_unattr, want_unattr, rel=1e-12)


class TestAttribute:
    def flat_scenario(self):
        power = [
            power_sample("n1", "cpu0", -1.0, 200.0),
            power_sample("n1", "cpu0", 21.0, 200.0),
            power_sample("n1", "gpu0", -1.0, 300.0),
            power_sample("n1", "gpu0", 21.0, 300.0),
        ]
        procs = [
            proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=60.0),
            proc_snap("n1", 0.0, 42, 0.0, gpu=0, sm=20.0),
            proc_snap("n1", 10.0, 41, 3.0, gpu=0, sm=55.0),
            proc_snap("n1", 10.0, 42, 1.0, gpu=0, sm=25.0),
        ]
        pidmap = [pidmap_snap("n1", 0.0, {41: 7, 42: 8})]
        jobs = [job_record(7), job_record(8)]
        return {"power": power, "procs": procs, "pidmap": pidmap, "jobs": jobs}

    def test_hand_worked_slice(self):
        (s,) = run_attribution(self.flat_scenario())
        assert (s.node_id, s.interval.t0, s.interval.t1) == ("n1", 0.0, 10.0)
        assert s.per_job[7] == JobPower(150.0, 225.0)
        assert s.per_job[8] == JobPower(50.0, 75.0)
        assert s.unattributed_cpu_w == 0.0
        assert s.unattributed_gpu_w == 0.0

    def test_midpoint_resampling(self):
        sc = self.flat_scenario()
        sc["power"] = [
            power_sample("n1", "cpu0", 0.0, 100.0),
            power_sample("n1", "cpu0", 10.0, 200.0),
        ]
        (s,) = run_attribution(sc)
        total = s.per_job[7].cpu_w + s.per_job[8].cpu_w + s.unattributed_cpu_w
        assert close(total, 150.0)  # value at the midpoint of a 100 -> 200 ramp

    def test_series_not_covering_midpoint_contributes_nothing(self):
        sc = self.flat_scenario()
        sc["power"] = [
            power_sample("n1", "cpu0", 20.0, 400.0),
            power_sample("n1", "cpu0", 30.0, 400.0),
        ]
        (s,) = run_attribution(sc)
        assert s.per_job[7].cpu_w == 0.0
        assert s.unattributed_cpu_w == 0.0

    def test_no_ownership_data_means_all_unattributed(self):
        sc = self.flat_scenario()
        sc["pidmap"] = []
        (s,) = run_attribution(sc)
        assert s.per_job == {}
        assert close(s.unattributed_cpu_w, 200.0)
        assert close(s.unattributed_gpu_w, 300.0)

    def test_pid_present_at_one_endpoint_only_contributes_nothing(self):
        sc = self.flat_scenario()
        sc["procs"].append(proc_snap("n1", 10.0, 43, 500.0))  # appears mid-interval
        sc["pidmap"] = [pidmap_snap("n1", 0.0, {41: 7, 42: 8, 43: 9})]
        sc["jobs"].append(job_record(9))
        (s,) = run_attribution(sc)
        assert 9 not in s.per_job

    def test_gpu_activity_sampled_at_interval_start(self):
        sc = self.flat_scenario()
        # at t0 only job 7's pid touches the gpu; job 8 joins at t1
        sc["procs"] = [
            proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=60.0),
            proc_snap("n1", 0.0, 42, 0.0),
            proc_snap("n1", 10.0, 41, 3.0, gpu=0, sm=60.0),
            proc_snap("n1", 10.0, 42, 1.0, gpu=0, sm=90.0),
        ]
        (s,) = run_attribution(sc)
        assert close(s.per_job[7].gpu_w, 300.0)
        assert s.per_job[8].gpu_w == 0.0

    def test_cpu_time_regression_in_records_fails_at_its_position(self):
        # built snapshots are checked as lines are: pid 41's cpu_s falls from 0.0 to -1.0 at the third
        sc = self.flat_scenario()
        sc["procs"][2] = proc_snap("n1", 10.0, 41, -1.0)
        with pytest.raises(MalformedLine) as exc:
            run_attribution(sc)
        assert str(exc.value) == "line 3: negative cumulative cpu time"
        sc["procs"][0] = proc_snap("n1", 0.0, 41, 5.0)
        sc["procs"][2] = proc_snap("n1", 10.0, 41, 4.0)
        with pytest.raises(CpuTimeRegression) as exc:
            run_attribution(sc)
        assert str(exc.value) == "line 3: cumulative cpu time decreased for pid 41"

    def test_out_of_order_ts_with_rising_cpu_time_surfaces_as_negative_delta(self):
        # a file may list a process's ts out of order; its cpu_s rises in file order and falls in ts order
        sc = self.flat_scenario()
        lines = [
            '{"node":"n1","ts":10.0,"pid":41,"cpu_s":3.0}', '{"node":"n1","ts":10.0,"pid":42,"cpu_s":1.0}',
            '{"node":"n1","ts":0.0,"pid":41,"cpu_s":4.0}', '{"node":"n1","ts":0.0,"pid":42,"cpu_s":1.0}',
        ]
        owners = read_pidmap(jsonl(sc["pidmap"]).splitlines())
        with pytest.raises(NegativeDelta) as exc:
            attribute_columns(read_power_trace(jsonl(sc["power"]).splitlines()), read_proc_trace(lines), owners)
        assert exc.value.job_id == 7

    def test_repeated_snapshot_is_rejected_at_its_position(self):
        sc = self.flat_scenario()
        sc["procs"] = sc["procs"][:3] + [proc_snap("n1", 10.0, 42, 9.0, gpu=0, sm=5.0)] + sc["procs"][3:]
        with pytest.raises(MalformedLine) as exc:
            run_attribution(sc)
        assert str(exc.value) == "line 5: duplicate record for pid 42 at ts 10.0 on node 'n1'"

    def test_negative_sm_pct_is_rejected_at_its_position(self):
        sc = self.flat_scenario()
        sc["procs"] = [proc_snap("n1", ts, pid, ts, gpu=0, sm=sm) for ts in (0.0, 10.0) for pid, sm in ((41, 10.0), (42, -10.0))]
        with pytest.raises(OutOfRangeUtilization) as exc:
            run_attribution(sc)
        assert (exc.value.line_no, str(exc.value)) == (2, "line 2: sm_pct -10.0 outside [0, 100]")

    def test_readings_that_could_cancel_in_a_jobs_sum_are_rejected_at_their_position(self):
        # job 7's sm_pct of 10.0 and -10.0 would sum to 0.0; the -10.0 and the -1000.0 mem_mib fail where they are
        sc = self.flat_scenario()
        readings = ((41, 7, 10.0, 1000.0), (42, 8, 0.0, 3000.0), (43, 7, -10.0, 1000.0))
        sc["procs"] = [proc_snap("n1", ts, pid, 0.0, gpu=0, sm=sm, mem=mem) for ts in (0.0, 10.0) for pid, _, sm, mem in readings]
        sc["pidmap"] = [pidmap_snap("n1", 0.0, {pid: job for pid, job, _, _ in readings})]
        with pytest.raises(OutOfRangeUtilization) as exc:
            run_attribution(sc)
        assert str(exc.value) == "line 3: sm_pct -10.0 outside [0, 100]"
        sc["procs"][2] = proc_snap("n1", 0.0, 43, 0.0, gpu=0, sm=0.0, mem=-1000.0)
        with pytest.raises(OutOfRangeUtilization) as exc:
            run_attribution(sc)
        assert str(exc.value) == "line 3: negative mem_mib -1000.0"

    def test_an_instant_read_as_minus_zero_and_zero_starts_at_its_lowest_pids_ts(self):
        # -0.0 == 0.0, so both name one instant, and t0 prints as its lowest pid has it; with this many
        # pids an unstable sort of the node's ts would put another pid's 0.0 first
        procs = [proc_snap("n1", ts, pid, 0.0) for pid in range(2, 1000) for ts in (1.0, 0.0)]
        procs = [p._replace(ts=-0.0) if p.ts == 0.0 and (p.pid == 2 or p.pid * 7919 % 5 < 2) else p for p in procs]
        cols = attribute_columns(read_power_trace([]), read_proc_trace(jsonl(procs).splitlines()), {})
        assert serialize_slices(cols).startswith('{"node":"n1","t0":-0.0,"t1":1.0,')

    def test_fewer_than_two_snapshots_yields_no_slices(self):
        sc = self.flat_scenario()
        sc["procs"] = sc["procs"][:2]
        assert run_attribution(sc) == []

    def test_threads_do_not_change_output(self):
        sc = random_scenario(random.Random(31), n_jobs=6, n_gpus=2, n_intervals=120, n_nodes=3)
        base = serialize_slices(run_attribution(sc, threads=1))
        for threads in (2, 4, 8):
            assert serialize_slices(run_attribution(sc, threads=threads)) == base

    def test_repeated_runs_are_identical(self):
        sc = random_scenario(random.Random(37), n_jobs=5, n_gpus=2, n_intervals=80, n_nodes=2)
        assert serialize_slices(run_attribution(sc)) == serialize_slices(run_attribution(sc))

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            run_attribution(self.flat_scenario(), threads=0)

    @pytest.mark.parametrize("seed", [101, 102, 103])
    def test_matches_full_materialization_reference(self, seed):
        sc = random_scenario(random.Random(seed), n_jobs=5, n_gpus=3, n_intervals=150, n_nodes=2)
        slices = run_attribution(sc)
        ref = naive_attribute(sc["power"], sc["procs"], sc["pidmap"])
        assert_matches_naive(slices, ref)

    @pytest.mark.parametrize("seed", [41, 42])
    def test_power_is_conserved_per_slice(self, seed):
        sc = random_scenario(random.Random(seed), n_jobs=6, n_gpus=2, n_intervals=200)
        series = {}
        for p in sc["power"]:
            series.setdefault((p.node_id, str(p.source)), []).append((p.ts, p.power_w))
        for pts in series.values():
            pts.sort()
        for s in run_attribution(sc):
            want_cpu = want_gpu = 0.0
            for (node, src), pts in series.items():
                if node != s.node_id:
                    continue
                v = lerp_at_midpoint(pts, *s.interval)
                if v is None:
                    continue
                if src.startswith("cpu"):
                    want_cpu += v
                else:
                    want_gpu += v
            got_cpu = sum(p.cpu_w for p in s.per_job.values()) + s.unattributed_cpu_w
            got_gpu = sum(p.gpu_w for p in s.per_job.values()) + s.unattributed_gpu_w
            assert close(got_cpu, want_cpu)
            assert close(got_gpu, want_gpu)


def cpu_watts_by_owner(pidmap, procs):
    """Per slice (node, t0): ({job: cpu_w}, unattributed cpu_w), read and split as the CLI does.

    procs are (node, ts, pid, cpu_s); each node's cpu0 reads 200 W throughout.
    """
    nodes = sorted({p[0] for p in procs})
    power = [power_sample(node, "cpu0", t, 200.0) for node in nodes for t in (-1.0, 100.0)]
    cols = attribute_columns(
        read_power_trace(jsonl(power).splitlines()),
        read_proc_trace(jsonl([proc_snap(*p) for p in procs]).splitlines()),
        read_pidmap(jsonl(pidmap).splitlines()),
    )
    return {
        (cols.nodes[n], t0): ({cols.jobs[cols.job[e]]: cols.cpu[e] for e in range(a, b)}, u)
        for n, t0, a, b, u in zip(cols.node, cols.t0, cols.start, cols.start[1:], cols.unattr_cpu)
    }


class TestMidpointClamp:
    """A series covers a midpoint in whole ms, while its watts there come from the float midpoint.

    The float midpoint can lie one ulp outside a series that covers it in
    ms; as np.interp, the split then takes the sample at that end.
    """

    @staticmethod
    def split_line(samples, t0, t1):
        power = [power_sample("n1", "cpu0", ts, w) for ts, w in samples]
        procs = [proc_snap("n1", t0, 11, 0.0), proc_snap("n1", t1, 11, 1.0)]
        cols = attribute_columns(
            read_power_trace(jsonl(power).splitlines()),
            read_proc_trace(jsonl(procs).splitlines()),
            read_pidmap(jsonl([pidmap_snap("n1", t0, {11: 7})]).splitlines()),
        )
        return serialize_slices(cols)

    def test_a_float_midpoint_before_the_first_sample_takes_it(self):
        assert (1599.781 + 1601.673) / 2 < 1600.727  # 1599781 + 1601673 ms is twice 1600727 ms
        line = self.split_line([(1600.727, 100.0), (1610.0, 200.0)], 1599.781, 1601.673)
        assert line == ('{"node":"n1","t0":1599.781,"t1":1601.673,"jobs":{"7":{"cpu_w":100.0,"gpu_w":0.0}},'
                        '"unattr_cpu_w":0.0,"unattr_gpu_w":0.0}\n')

    def test_a_float_midpoint_after_the_last_sample_takes_it(self):
        assert (4299.689 + 4304.515) / 2 > 4302.102  # 4299689 + 4304515 ms is twice 4302102 ms
        line = self.split_line([(4290.0, 100.0), (4302.102, 200.0)], 4299.689, 4304.515)
        assert line == ('{"node":"n1","t0":4299.689,"t1":4304.515,"jobs":{"7":{"cpu_w":200.0,"gpu_w":0.0}},'
                        '"unattr_cpu_w":0.0,"unattr_gpu_w":0.0}\n')


class TestOwners:
    """Each record is owned under step-hold, as the pid's job in the node's last snapshot at or before it."""

    def test_a_record_at_a_snapshot_instant_takes_that_snapshots_owner(self):
        pidmap = [pidmap_snap("n1", 0.0, {41: 7}), pidmap_snap("n1", 10.0, {41: 8})]
        procs = [("n1", t, 41, t / 10) for t in (0.0, 10.0, 20.0)]
        assert cpu_watts_by_owner(pidmap, procs) == {("n1", 0.0): ({7: 200.0}, 0.0), ("n1", 10.0): ({8: 200.0}, 0.0)}

    def test_every_owner_is_numbered_by_node_name_then_ascending_job_before_any_entry(self):
        # job 9 owns only a record at its node's last instant, so it has no entry but is numbered all the same
        pidmap = [pidmap_snap("b", 0.0, {41: 8, 42: 3, 43: 9}), pidmap_snap("a", 0.0, {41: 5, 42: 2})]
        procs = [("b", t, pid, t) for t in (0.0, 10.0) for pid in (41, 42)] + [("b", 10.0, 43, 0.0)]
        procs += [("a", t, pid, t) for t in (0.0, 10.0) for pid in (41, 42)]
        power = [power_sample(node, "cpu0", t, 200.0) for node in "ab" for t in (-1.0, 100.0)]
        cols = attribute_columns(
            read_power_trace(jsonl(power).splitlines()),
            read_proc_trace(jsonl([proc_snap(*p) for p in procs]).splitlines()),
            read_pidmap(jsonl(pidmap).splitlines()),
        )
        assert (cols.nodes, cols.jobs) == (["a", "b"], [2, 5, 3, 8, 9])
        assert [cols.jobs[j] for j in cols.job] == [2, 5, 3, 8]

    def test_records_before_the_first_snapshot_or_absent_from_it_are_unattributed(self):
        pidmap = [pidmap_snap("n1", 10.0, {41: 7})]
        procs = [("n1", t, pid, t * share) for t in (0.0, 10.0, 20.0) for pid, share in ((41, 0.3), (42, 0.1))]
        assert cpu_watts_by_owner(pidmap, procs) == {("n1", 0.0): ({}, 200.0), ("n1", 10.0): ({7: 150.0}, 50.0)}

    def test_a_node_with_no_pidmap_line_is_all_unattributed(self):
        pidmap = [pidmap_snap("n1", 0.0, {41: 7})]
        procs = [(node, t, 41, t / 10) for node in ("n1", "n2") for t in (0.0, 10.0)]
        assert cpu_watts_by_owner(pidmap, procs) == {("n1", 0.0): ({7: 200.0}, 0.0), ("n2", 0.0): ({}, 200.0)}

    def test_a_pidmap_job_that_owns_no_record_adds_no_entry(self):
        pidmap = [pidmap_snap("n1", 0.0, {41: 7, 99: 9}), pidmap_snap("n1", 10.0, {41: 7, 98: 6})]
        procs = [("n1", t, 41, t / 10) for t in (0.0, 10.0, 20.0)]
        assert cpu_watts_by_owner(pidmap, procs) == {("n1", 0.0): ({7: 200.0}, 0.0), ("n1", 10.0): ({7: 200.0}, 0.0)}


class TestIntervalType:
    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(10.0, 10.0)
        with pytest.raises(ValueError):
            Interval(10.0, 9.0)

    def test_properties(self):
        iv = Interval(10.0, 14.0)
        assert iv.duration_s == 4.0
        assert iv.midpoint == 12.0


def make_slice(node="n1", t0=0.0, t1=1.0, jobs=None, un_cpu=0.0, un_gpu=0.0, un_ext=None):
    return AttributionSlice(Interval(t0, t1), node, jobs or {}, un_cpu, un_gpu, un_ext)


class TestIntegrateEnergy:
    def test_kilowatt_hour_identity(self):
        s = make_slice(t1=3600.0, jobs={7: JobPower(1000.0, 0.0)})
        energies = integrate_energy([s], max_gap_s=3600.0)
        assert energies[7].cpu_kwh == 1.0
        assert energies[7].gpu_kwh == 0.0
        assert energies[7].ext_kwh is None

    def test_empty_input(self):
        assert integrate_energy([]) == {}

    def test_unattributed_bucket(self):
        s = make_slice(t1=36.0, un_cpu=100.0, un_gpu=50.0)
        energies = integrate_energy([s], max_gap_s=60.0)
        assert close(energies[0].cpu_kwh, 1e-3, rel=1e-12)
        assert close(energies[0].gpu_kwh, 5e-4, rel=1e-12)

    def test_gap_slices_are_excluded(self):
        keep = make_slice(t0=0.0, t1=10.0, jobs={7: JobPower(360.0, 0.0)})
        gap = make_slice(t0=10.0, t1=21.0, jobs={7: JobPower(1e6, 0.0)})
        energies = integrate_energy([keep, gap])
        assert close(energies[7].cpu_kwh, 360.0 * 10.0 / 3.6e6, rel=1e-12)
        # a bigger allowance brings the long slice back in
        energies = integrate_energy([keep, gap], max_gap_s=20.0)
        assert energies[7].cpu_kwh > 1.0

    def test_coverage_stats(self):
        keep = make_slice(t0=0.0, t1=10.0)
        gap = make_slice(t0=10.0, t1=21.0)
        stats = slice_coverage([keep, gap])
        assert stats.covered_s == 10.0
        assert stats.excluded_s == 11.0
        assert stats.n_slices == 2
        assert stats.n_excluded == 1

    def test_overlap_rejected_per_node(self):
        a = make_slice(t0=0.0, t1=10.0)
        b = make_slice(t0=5.0, t1=15.0)
        with pytest.raises(OverlappingSlices):
            integrate_energy([a, b])
        with pytest.raises(OverlappingSlices):  # a gap slice overlaps too
            integrate_energy([make_slice(t0=0.0, t1=20.0), b])
        # same window on another node is fine
        integrate_energy([a, make_slice(node="n2", t0=5.0, t1=15.0)])
        # and touching slices are fine
        integrate_energy([a, make_slice(t0=10.0, t1=20.0)])

    def test_overlap_detected_regardless_of_input_order(self):
        a = make_slice(t0=5.0, t1=15.0)
        b = make_slice(t0=0.0, t1=10.0)
        with pytest.raises(OverlappingSlices):
            integrate_energy([a, b])

    def test_ext_energy_appears_once_calibrated(self):
        s = make_slice(t1=36.0, jobs={7: JobPower(100.0, 0.0, ext_w=150.0)}, un_cpu=10.0, un_ext=5.0)
        energies = integrate_energy([s], max_gap_s=60.0)
        assert close(energies[7].ext_kwh, 150.0 * 36.0 / 3.6e6, rel=1e-12)
        assert close(energies[0].ext_kwh, 5.0 * 36.0 / 3.6e6, rel=1e-12)

    @pytest.mark.parametrize("t0", [0.007, 1.0, 7.007, 1000.25, 65535.999, 1.729e9])
    def test_a_slice_is_a_gap_by_its_whole_milliseconds_wherever_it_lies(self, t0):
        # in float seconds, 17.007 - 7.007 > 10.0, and the ties sit where t0 and t1 straddle a power of two
        exact = make_slice(t0=t0, t1=round(t0 + 10.0, 3), jobs={7: JobPower(360.0, 0.0)})
        longer = make_slice(t0=round(t0 + 10.0, 3), t1=round(t0 + 20.001, 3), jobs={7: JobPower(1e6, 0.0)})
        assert slice_coverage([exact, longer]).n_excluded == 1
        assert close(integrate_energy([exact, longer])[7].cpu_kwh, 360.0 * 10.0 / 3.6e6)
        assert slice_coverage([make_slice(t0=t0, t1=round(t0 + 0.3, 3))], max_gap_s=0.3).n_excluded == 0
        assert slice_coverage([make_slice(t0=t0, t1=round(t0 + 0.301, 3))], max_gap_s=0.3).n_excluded == 1

    def test_off_grid_slice_ends_count_as_their_nearest_millisecond(self):
        assert slice_coverage([make_slice(t0=0.0, t1=10.0004)]).n_excluded == 0
        assert slice_coverage([make_slice(t0=0.0004, t1=10.0006)]).n_excluded == 1
        assert slice_coverage([make_slice(t0=1e300, t1=2e300)]).n_excluded == 1  # t * 1000 is infinite here

    def test_bad_max_gap(self):
        with pytest.raises(ValueError):
            integrate_energy([], max_gap_s=0.0)

    @pytest.mark.parametrize("max_gap_s", [float("nan"), -1.0, -0.0])
    def test_a_max_gap_that_is_not_positive_is_rejected(self, max_gap_s):
        slices = [make_slice(t1=100.0, jobs={7: JobPower(1.0, 0.0)})]
        with pytest.raises(ValueError):
            integrate_energy(slices, max_gap_s=max_gap_s)
        with pytest.raises(ValueError):
            slice_coverage(slices, max_gap_s=max_gap_s)

    def test_a_job_0_entry_is_rejected_at_its_position(self):
        # job 0 is the unattributed bucket, which a slice carries in its unattr_* watts, as in a slices file
        first = make_slice(t0=0.0, t1=1.0, jobs={0: JobPower(1e16, 0.0)}, un_cpu=1.0)
        second = make_slice(t0=1.0, t1=2.0, jobs={7: JobPower(3.0, 0.0)}, un_cpu=1.0, un_gpu=2.0)
        with pytest.raises(MalformedLine) as exc:
            integrate_energy([second, first])
        assert str(exc.value) == "line 2: invalid job entry for '0'"
        energies = integrate_energy([second, first._replace(per_job={}, unattributed_cpu_w=1e16)])
        assert energies[0].cpu_kwh == ((0.0 + 1.0) + 1e16) / 3.6e6  # slice by slice in t0 order
        assert (energies[0].gpu_kwh, energies[7].cpu_kwh) == (2.0 / 3.6e6, 3.0 / 3.6e6)

    def test_ext_energy_is_none_only_for_jobs_that_never_had_an_ext_watt(self):
        first = make_slice(t0=0.0, t1=10.0, jobs={7: JobPower(1.0, 0.0, ext_w=36.0), 8: JobPower(1.0, 0.0)})
        second = make_slice(t0=10.0, t1=20.0, jobs={7: JobPower(1.0, 0.0), 8: JobPower(1.0, 0.0)}, un_ext=72.0)
        energies = integrate_energy([first, second])
        assert energies[7].ext_kwh == 360.0 / 3.6e6
        assert energies[8].ext_kwh is None
        assert energies[0].ext_kwh == 720.0 / 3.6e6

    def test_minus_zero_ext_watts_give_a_positive_zero_energy(self):
        (s,) = parse_slices(['{"node":"n1","t0":0.0,"t1":1.0,"jobs":{"7":{"cpu_w":1.0,"gpu_w":0.0,"ext_w":-0.0}},'
                             '"unattr_cpu_w":0.0,"unattr_gpu_w":0.0,"unattr_ext_w":-0.0}'])
        for slices in ([s], read_slices([serialize_slices([s])])):
            energies = integrate_energy(slices)
            assert [math.copysign(1.0, energies[j].ext_kwh) for j in (0, 7)] == [1.0, 1.0]

    def test_an_overlap_is_reported_before_an_energy_beyond_the_float_range(self):
        huge = [make_slice(t0=t, t1=t + 1.0, jobs={7: JobPower(1e308, 0.0)}) for t in (0.0, 1.0)]
        with pytest.raises(WattscopeError, match="beyond the float range"):
            integrate_energy(huge)
        overlapping = [make_slice(node="n2", t0=0.0, t1=10.0), make_slice(node="n2", t0=5.0, t1=15.0)]
        with pytest.raises(OverlappingSlices):
            integrate_energy(huge + overlapping)

    def test_millisecond_brute_force_oracle(self):
        rng = random.Random(47)
        slices = []
        t = 0.0
        for _ in range(50):
            dt = rng.randint(1, 9000) / 1000.0  # ms-aligned, under the gap limit
            slices.append(
                make_slice(
                    t0=t,
                    t1=round(t + dt, 3),
                    jobs={7: JobPower(rng.uniform(0.0, 400.0), rng.uniform(0.0, 300.0))},
                    un_cpu=rng.uniform(0.0, 50.0),
                )
            )
            t = round(t + dt, 3)
        want_cpu = want_gpu = want_un = 0.0
        for s in slices:
            n_ms = round(s.interval.duration_s * 1000.0)
            for _ in range(int(n_ms)):
                want_cpu += s.per_job[7].cpu_w * 1e-3
                want_gpu += s.per_job[7].gpu_w * 1e-3
                want_un += s.unattributed_cpu_w * 1e-3
        energies = integrate_energy(slices)
        assert close(energies[7].cpu_kwh * 3.6e6, want_cpu, rel=1e-6)
        assert close(energies[7].gpu_kwh * 3.6e6, want_gpu, rel=1e-6)
        assert close(energies[0].cpu_kwh * 3.6e6, want_un, rel=1e-6)

    @given(st.data())
    def test_energy_is_additive_over_slice_subsets(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        slices = []
        t = 0.0
        for i in range(n):
            dt = data.draw(st.floats(min_value=0.5, max_value=2.0))
            w = data.draw(st.floats(min_value=0.0, max_value=500.0))
            slices.append(make_slice(t0=t, t1=t + dt, jobs={7: JobPower(w, 0.0)}))
            t += dt
        cut = data.draw(st.integers(min_value=1, max_value=n - 1))
        whole = integrate_energy(slices)
        first = integrate_energy(slices[:cut])
        second = integrate_energy(slices[cut:])
        combined = first.get(7).cpu_kwh + second.get(7).cpu_kwh
        assert math.isclose(whole[7].cpu_kwh, combined, rel_tol=1e-12, abs_tol=1e-15)


class TestSliceSerialization:
    def test_round_trip_preserves_everything(self):
        sc = random_scenario(random.Random(53), n_jobs=5, n_gpus=2, n_intervals=100, n_nodes=2)
        slices = run_attribution(sc)
        text = serialize_slices(slices)
        parsed = parse_slices(text.splitlines())
        assert len(parsed) == len(slices)
        for got, want in zip(parsed, slices):
            assert got.interval == want.interval
            assert got.node_id == want.node_id
            assert dict(got.per_job) == dict(want.per_job)
            assert got.unattributed_cpu_w == want.unattributed_cpu_w
            assert got.unattributed_gpu_w == want.unattributed_gpu_w
        assert serialize_slices(parsed) == text

    def test_ext_fields_round_trip(self):
        s = make_slice(jobs={7: JobPower(1.0, 2.0, ext_w=3.5)}, un_cpu=0.25, un_ext=1.25)
        (parsed,) = parse_slices(serialize_slices([s]).splitlines())
        assert parsed.per_job[7].ext_w == 3.5
        assert parsed.unattributed_ext_w == 1.25

    def test_rejections(self):
        good = serialize_slices([make_slice(jobs={7: JobPower(1.0, 2.0)})]).strip()
        cases = [
            good.replace('"t1":1.0', '"t1":0.0'),
            good.replace('"cpu_w":1.0', '"cpu_w":-1.0'),
            good.replace('"7"', '"zero"'),
            good.replace('"7"', '"0"'),
            good.replace('"unattr_cpu_w":0.0,', ""),
            good.replace('{"cpu_w":1.0,"gpu_w":2.0}', "[1.0,2.0]"),
        ]
        for bad in cases:
            with pytest.raises(MalformedLine):
                parse_slices([bad])

    @pytest.mark.parametrize("alias", ["07", "+7", " 7", "\uff17"])
    def test_non_canonical_job_key_is_rejected_at_its_line(self, alias):
        # read as job 7, the alias would replace the 100 W entry and report 10 J, not 1,010 J, over 10 s
        line = '{"node":"n1","t0":0.0,"t1":10.0,"jobs":{"7":{"cpu_w":100.0,"gpu_w":0.0},"%s":{"cpu_w":1.0,"gpu_w":0.0}},"unattr_cpu_w":0.0,"unattr_gpu_w":0.0}'
        good = serialize_slices([make_slice(jobs={7: JobPower(1.0, 2.0)})]).strip()
        with pytest.raises(MalformedLine) as exc:
            parse_slices([good, line % alias])
        assert str(exc.value) == f"line 2: invalid job key {alias!r}"
