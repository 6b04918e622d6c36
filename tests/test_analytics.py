import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wattscope import (
    JobEnergy,
    MissingCapacity,
    OutOfRangeUtilization,
    UnknownJob,
    aggregate_by_status,
    aggregate_by_user,
    gpu_histogram,
    render_report,
)
from helpers import hist_counts_oracle, job_record, proc_snap

STATUSES = ["COMPLETED", "FAILED", "CANCELLED", "TIMEOUT", "NODE_FAIL", "PREEMPTED"]


def energy(job_id, ext=None, gpu=0.0, cpu=0.0):
    return JobEnergy(job_id, cpu_kwh=cpu, gpu_kwh=gpu, ext_kwh=ext)


def breakdown_oracle(jobs, energies, key_of, column):
    """Independent group-by in exact rational arithmetic."""
    groups: dict[str, list] = {}
    for job in jobs:
        groups.setdefault(key_of(job), []).append(job)
    sums = {}
    for key, members in groups.items():
        gpu = cpu = ext = Fraction(0)
        for job in members:
            e = energies.get(job.job_id)
            if e is None:
                continue
            gpu += Fraction(e.gpu_kwh)
            cpu += Fraction(e.cpu_kwh)
            if e.ext_kwh is not None:
                ext += Fraction(e.ext_kwh)
        sums[key] = {"gpu": gpu, "cpu": cpu, "ext": ext, "n": len(members)}
    total = sum(v[column] for v in sums.values())
    for v in sums.values():
        v["share"] = 100 * v[column] / total if total > 0 else Fraction(0)
    return sums


class TestStatusBreakdown:
    def cluster_week(self):
        """Four status groups; one energy-carrying job each plus idle fillers."""
        per_status = [("COMPLETED", 1148), ("FAILED", 134), ("CANCELLED", 62), ("TIMEOUT", 17)]
        jobs = []
        energies = {}
        carriers = {
            "COMPLETED": energy(1, ext=229.0, gpu=63.0, cpu=13.0),
            "FAILED": energy(2, ext=76.0, gpu=10.0, cpu=5.0),
            "CANCELLED": energy(3, ext=29.0, gpu=2.0, cpu=1.0),
            "TIMEOUT": energy(4, ext=235.0, gpu=100.0, cpu=30.0),
        }
        next_id = 100
        for status, count in per_status:
            carrier = carriers[status]
            jobs.append(job_record(carrier.job_id, status=status))
            energies[carrier.job_id] = carrier
            for _ in range(count - 1):
                jobs.append(job_record(next_id, status=status))
                next_id += 1
        return jobs, energies

    def test_share_split_by_status(self):
        jobs, energies = self.cluster_week()
        report = aggregate_by_status(jobs, energies)
        assert [r.key for r in report.rows] == ["COMPLETED", "FAILED", "CANCELLED", "TIMEOUT"]
        assert [r.n_jobs for r in report.rows] == [1148, 134, 62, 17]
        assert [round(r.share_pct) for r in report.rows] == [40, 13, 5, 41]
        assert [r.ext_kwh for r in report.rows] == [229.0, 76.0, 29.0, 235.0]
        assert math.isclose(sum(r.share_pct for r in report.rows), 100.0, rel_tol=1e-12)

    def test_csv_rendering_of_cluster_week(self):
        jobs, energies = self.cluster_week()
        out = render_report(aggregate_by_status(jobs, energies), fmt="csv")
        lines = out.splitlines()
        assert lines[0] == "status,n_jobs,gpu_kwh,cpu_kwh,ext_kwh,ext_share_pct"
        assert lines[1] == "COMPLETED,1148,63,13,229,40"
        assert lines[2] == "FAILED,134,10,5,76,13"
        assert lines[3] == "CANCELLED,62,2,1,29,5"
        assert lines[4] == "TIMEOUT,17,100,30,235,41"

    def test_single_job_owns_everything(self):
        jobs = [job_record(7, status="COMPLETED")]
        report = aggregate_by_status(jobs, {7: energy(7, ext=1.0)})
        (row,) = report.rows
        assert row.share_pct == 100.0

    def test_unknown_energy_id_rejected(self):
        with pytest.raises(UnknownJob):
            aggregate_by_status([job_record(7)], {0: energy(0, ext=1.0)})

    def test_raw_statuses_sort_after_canonical_alphabetically(self):
        jobs = [
            job_record(1, status="PREEMPTED"),
            job_record(2, status="TIMEOUT"),
            job_record(3, status="NODE_FAIL"),
            job_record(4, status="COMPLETED"),
        ]
        report = aggregate_by_status(jobs, {})
        assert [r.key for r in report.rows] == ["COMPLETED", "TIMEOUT", "NODE_FAIL", "PREEMPTED"]

    def test_no_calibrated_energy_means_zero_shares(self):
        jobs = [job_record(1, status="COMPLETED"), job_record(2, status="FAILED")]
        energies = {1: energy(1, cpu=1.0), 2: energy(2, cpu=3.0)}  # ext never set
        report = aggregate_by_status(jobs, energies)
        assert all(r.share_pct == 0.0 for r in report.rows)

    def test_group_sums_add_left_to_right(self):
        # Python 3.12's sum() compensates float rounding: 1e16 J + 1 J + 1 J would total 1e16 + 2 J there,
        # and the first share would print as 99.99999999999999 instead of 100.0
        jobs = [job_record(1, status="CANCELLED"), job_record(2, status="COMPLETED"), job_record(3, status="FAILED")]
        energies = {1: energy(1, ext=1e16 / 3.6e6), 2: energy(2, ext=1 / 3.6e6), 3: energy(3, ext=1 / 3.6e6)}
        joules = [e.ext_kwh * 3.6e6 for e in energies.values()]
        assert math.fsum(joules) > joules[0] + joules[1] + joules[2] == joules[0]
        report = aggregate_by_status(jobs, energies)
        assert {r.key: r.share_pct for r in report.rows} == {
            job.status: 100.0 * j / joules[0] for job, j in zip(jobs, joules)
        }
        rows = json.loads(render_report(report, "json"))["rows"]
        assert {row["status"]: row["ext_share_pct"] for row in rows}["CANCELLED"] == 100.0

    def test_jobs_add_to_their_group_in_ascending_id_order_whatever_the_record_order(self):
        # 1e16 J + 1 J rounds back to 1e16 J, so adding job 3 first would lose both small joules
        energies = {1: energy(1, ext=1 / 3.6e6), 2: energy(2, ext=1 / 3.6e6), 3: energy(3, ext=1e16 / 3.6e6)}
        joules = 0.0
        for job_id in (1, 2, 3):
            joules += energies[job_id].ext_kwh * 3.6e6
        assert joules != (energies[3].ext_kwh * 3.6e6 + 1.0) + 1.0
        jobs = [job_record(3), job_record(1), job_record(2)]
        (row,) = aggregate_by_status(jobs, energies).rows
        assert row.ext_kwh == joules / 3.6e6

    def test_a_repeated_job_record_counts_in_each_of_its_groups_and_a_job_without_energy_counts_too(self):
        jobs = [job_record(7, user="a"), job_record(8, user="a", status="FAILED"), job_record(7, user="b")]
        energies = {7: energy(7, ext=1.0, gpu=2.0, cpu=3.0)}
        by_user = aggregate_by_user(jobs, energies)
        assert [tuple(r) for r in by_user.rows] == [("a", 2, 2.0, 3.0, 1.0, 50.0), ("b", 1, 2.0, 3.0, 1.0, 50.0)]
        by_status = aggregate_by_status(jobs, energies, "cpu")
        assert [tuple(r) for r in by_status.rows] == [("COMPLETED", 2, 4.0, 6.0, 2.0, 100.0),
                                                      ("FAILED", 1, 0.0, 0.0, 0.0, 0.0)]

    def test_column_selection(self):
        jobs = [job_record(1, status="COMPLETED"), job_record(2, status="FAILED")]
        energies = {1: energy(1, gpu=3.0, cpu=1.0), 2: energy(2, gpu=1.0, cpu=3.0)}
        by_gpu = aggregate_by_status(jobs, energies, column="gpu")
        assert [r.share_pct for r in by_gpu.rows] == [75.0, 25.0]
        by_cpu = aggregate_by_status(jobs, energies, column="cpu")
        assert [r.share_pct for r in by_cpu.rows] == [25.0, 75.0]
        assert render_report(by_gpu, fmt="csv").splitlines()[0].endswith("gpu_share_pct")
        with pytest.raises(ValueError):
            aggregate_by_status(jobs, energies, column="joules")


class TestUserBreakdown:
    def test_three_to_one_split(self):
        jobs = [job_record(1, user="alice"), job_record(2, user="bob")]
        energies = {1: energy(1, ext=3.0), 2: energy(2, ext=1.0)}
        report = aggregate_by_user(jobs, energies)
        assert [(r.key, r.share_pct) for r in report.rows] == [("alice", 75.0), ("bob", 25.0)]

    def test_sorted_by_consumption_descending(self):
        jobs = [job_record(i, user=u) for i, u in enumerate(["alice", "bob", "carol"], start=1)]
        energies = {1: energy(1, ext=1.0), 2: energy(2, ext=5.0), 3: energy(3, ext=2.0)}
        report = aggregate_by_user(jobs, energies)
        assert [r.key for r in report.rows] == ["bob", "carol", "alice"]

    def test_ties_break_alphabetically(self):
        jobs = [job_record(1, user="zoe"), job_record(2, user="amy")]
        report = aggregate_by_user(jobs, {})
        assert [r.key for r in report.rows] == ["amy", "zoe"]

    def test_jobs_aggregate_per_user(self):
        jobs = [job_record(1, user="alice"), job_record(2, user="alice"), job_record(3, user="bob")]
        energies = {1: energy(1, ext=1.0), 2: energy(2, ext=2.0), 3: energy(3, ext=1.0)}
        report = aggregate_by_user(jobs, energies)
        assert report.rows[0].key == "alice"
        assert report.rows[0].n_jobs == 2
        assert math.isclose(report.rows[0].ext_kwh, 3.0, rel_tol=1e-12)
        assert math.isclose(report.rows[0].share_pct, 75.0, rel_tol=1e-12)


class TestAgainstGroupByOracle:
    @pytest.mark.parametrize("column", ["ext", "gpu", "cpu"])
    def test_1000_random_jobs(self, column):
        rng = random.Random(83)
        users = ["alice", "bob", "carol", "dave", "eve", "frank"]
        jobs = []
        energies = {}
        for job_id in range(1, 1001):
            jobs.append(
                job_record(job_id, user=rng.choice(users), status=rng.choice(STATUSES))
            )
            if rng.random() < 0.8:
                energies[job_id] = energy(
                    job_id,
                    ext=rng.choice([None, rng.uniform(0.0, 10.0)]),
                    gpu=rng.uniform(0.0, 10.0),
                    cpu=rng.uniform(0.0, 10.0),
                )
        for aggregate, key_of in (
            (aggregate_by_status, lambda j: j.status),
            (aggregate_by_user, lambda j: j.user),
        ):
            report = aggregate(jobs, energies, column=column)
            want = breakdown_oracle(jobs, energies, key_of, column)
            assert {r.key for r in report.rows} == set(want)
            for r in report.rows:
                w = want[r.key]
                assert r.n_jobs == w["n"]
                assert math.isclose(r.gpu_kwh, float(w["gpu"]), rel_tol=1e-9, abs_tol=1e-12)
                assert math.isclose(r.cpu_kwh, float(w["cpu"]), rel_tol=1e-9, abs_tol=1e-12)
                assert math.isclose(r.ext_kwh, float(w["ext"]), rel_tol=1e-9, abs_tol=1e-12)
                assert math.isclose(r.share_pct, float(w["share"]), rel_tol=1e-9, abs_tol=1e-9)

    @given(st.lists(st.tuples(st.sampled_from(STATUSES), st.floats(min_value=0.0, max_value=1000.0)), min_size=1, max_size=30))
    def test_shares_sum_to_100(self, rows):
        jobs = [job_record(i, status=status) for i, (status, _) in enumerate(rows, start=1)]
        energies = {i: energy(i, ext=kwh) for i, (_, kwh) in enumerate(rows, start=1)}
        report = aggregate_by_status(jobs, energies)
        total = sum(kwh for _, kwh in rows)
        share_sum = sum(r.share_pct for r in report.rows)
        if total > 0:
            assert math.isclose(share_sum, 100.0, rel_tol=1e-9)
        else:
            assert share_sum == 0.0

    @given(st.lists(st.tuples(st.sampled_from(STATUSES), st.floats(min_value=0.0, max_value=1000.0)), min_size=1, max_size=30))
    def test_csv_share_is_the_rounded_exact_share(self, rows):
        jobs = [job_record(i, status=status) for i, (status, _) in enumerate(rows, start=1)]
        energies = {i: energy(i, ext=kwh) for i, (_, kwh) in enumerate(rows, start=1)}
        report = aggregate_by_status(jobs, energies)
        rendered = render_report(report, fmt="csv").splitlines()[1:]
        for line, row in zip(rendered, report.rows):
            assert line.split(",")[-1] == str(round(row.share_pct))
            assert abs(round(row.share_pct) - row.share_pct) <= 0.5


class TestGpuHistogram:
    def test_two_bins(self):
        procs = [
            proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=0.0),
            proc_snap("n1", 0.0, 42, 0.0, gpu=0, sm=50.0),
            proc_snap("n1", 0.0, 43, 0.0, gpu=0, sm=100.0),
        ]
        hist = gpu_histogram(procs, n_bins=2)
        assert hist.bin_edges == (0.0, 50.0, 100.0)
        assert hist.counts == (1, 2)
        assert hist.n_samples == 3
        assert hist.excluded == 0
        # built snapshots are checked as lines are: a negative reading fails at its position
        with pytest.raises(OutOfRangeUtilization) as exc:
            gpu_histogram(procs + [proc_snap("n1", 0.0, 44, 0.0, gpu=0, sm=-5.0)], n_bins=2)
        assert str(exc.value) == "line 4: sm_pct -5.0 outside [0, 100]"

    def test_full_scale_reading_lands_in_last_bin(self):
        procs = [proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=100.0)]
        hist = gpu_histogram(procs, n_bins=20)
        assert hist.counts[-1] == 1

    def test_bin_boundaries_are_half_open(self):
        procs = [proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=5.0)]
        hist = gpu_histogram(procs, n_bins=20)  # edges every 5
        assert hist.counts[1] == 1

    def test_missing_metric_excluded_but_counted(self):
        procs = [
            proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=None),
            proc_snap("n1", 0.0, 42, 0.0, gpu=0, sm=30.0),
            proc_snap("n1", 0.0, 43, 0.0),  # not on a gpu: ignored entirely
        ]
        hist = gpu_histogram(procs)
        assert hist.n_samples == 1
        assert hist.excluded == 1

    def test_memory_normalization(self):
        procs = [
            proc_snap("n1", 0.0, 41, 0.0, gpu=0, mem=8000.0),
            proc_snap("n1", 0.0, 42, 0.0, gpu=1, mem=24000.0),  # over capacity: clamps
            proc_snap("n1", 0.0, 43, 0.0, gpu=0, sm=10.0),  # mem absent: excluded
        ]
        caps = {("n1", 0): 16000.0, ("n1", 1): 16000.0}
        hist = gpu_histogram(procs, metric="mem_pct", n_bins=4, gpu_mem_capacity_mib=caps)
        assert hist.counts == (0, 0, 1, 1)
        assert hist.excluded == 1

    def test_missing_capacity(self):
        procs = [proc_snap("n2", 0.0, 41, 0.0, gpu=3, mem=100.0)]
        with pytest.raises(MissingCapacity) as exc:
            gpu_histogram(procs, metric="mem_pct", gpu_mem_capacity_mib={})
        assert exc.value.gpu_index == 3
        with pytest.raises(ValueError):
            gpu_histogram(procs, metric="mem_pct", gpu_mem_capacity_mib={("n2", 3): 0.0})

    def test_validation(self):
        with pytest.raises(ValueError):
            gpu_histogram([], metric="temp")
        with pytest.raises(ValueError):
            gpu_histogram([], n_bins=0)

    def test_empty(self):
        hist = gpu_histogram([], n_bins=4)
        assert hist.counts == (0, 0, 0, 0)
        assert hist.n_samples == 0
        assert hist.excluded == 0

    def test_bimodal_counts_match_per_sample_oracle(self):
        rng = random.Random(89)
        procs = []
        values = []
        for i in range(500):
            mode = 5.0 if i % 2 else 95.0
            v = min(100.0, max(0.0, rng.gauss(mode, 3.0)))
            values.append(v)
            procs.append(proc_snap("n1", float(i), 41, 0.0, gpu=0, sm=v))
        hist = gpu_histogram(procs, n_bins=20)
        assert list(hist.counts) == hist_counts_oracle(values, list(hist.bin_edges))

    def test_order_invariance(self):
        rng = random.Random(97)
        procs = [
            proc_snap("n1", float(i), 41, 0.0, gpu=0, sm=rng.uniform(0.0, 100.0))
            for i in range(200)
        ]
        shuffled = procs[:]
        rng.shuffle(shuffled)
        assert gpu_histogram(procs) == gpu_histogram(shuffled)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=200), st.integers(min_value=1, max_value=25))
    def test_counts_match_oracle(self, values, n_bins):
        procs = [proc_snap("n1", float(i), 41, 0.0, gpu=0, sm=v) for i, v in enumerate(values)]
        hist = gpu_histogram(procs, n_bins=n_bins)
        assert list(hist.counts) == hist_counts_oracle(values, list(hist.bin_edges))
        assert sum(hist.counts) == hist.n_samples == len(values)

    def test_per_job_mean_mode(self):
        owners = {41: 7, 42: 7, 43: 8}
        procs = [
            proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=10.0),
            proc_snap("n1", 1.0, 42, 0.0, gpu=0, sm=30.0),
            proc_snap("n1", 0.0, 43, 0.0, gpu=0, sm=90.0),
            proc_snap("n1", 0.0, 99, 0.0, gpu=0, sm=50.0),  # ownerless pid stays its own group
        ]
        hist = gpu_histogram(procs, n_bins=20, job_of=lambda node, pid, ts: owners.get(pid))
        assert hist.n_samples == 3  # job 7 mean, job 8, pid 99
        assert hist.counts[4] == 1  # mean(10, 30) = 20
        assert hist.counts[18] == 1  # 90
        assert hist.counts[10] == 1  # 50


    def test_per_job_means_add_left_to_right(self):
        # ten readings of 0.1 add to 0.9999999999999999 in order but to 1.0 under Python 3.12's
        # compensated sum(), whose mean, 0.1, is the lower edge of bin 1 of 1000
        procs = [proc_snap("n1", float(i), 41, 0.0, gpu=0, sm=0.1) for i in range(10)]
        hist = gpu_histogram(procs, n_bins=1000, job_of=lambda node, pid, ts: 7)
        assert hist.bin_edges[1] == math.fsum([0.1] * 10) / 10
        assert (hist.counts[0], hist.counts[1]) == (1, 0)


class TestRendering:
    def simple_report(self):
        jobs = [job_record(1, status="COMPLETED")]
        return aggregate_by_status(jobs, {1: energy(1, ext=1.0, gpu=0.5, cpu=0.25)})

    def test_csv_golden(self):
        out = render_report(self.simple_report(), fmt="csv")
        assert out == "status,n_jobs,gpu_kwh,cpu_kwh,ext_kwh,ext_share_pct\nCOMPLETED,1,0.5,0.25,1,100\n"

    def test_json_golden(self):
        out = render_report(self.simple_report(), fmt="json")
        assert out == (
            '{"rows":[{"status":"COMPLETED","n_jobs":1,"gpu_kwh":0.5,"cpu_kwh":0.25,'
            '"ext_kwh":1.0,"ext_share_pct":100.0}]}\n'
        )

    def test_json_carries_exact_share(self):
        jobs = [job_record(1, status="COMPLETED"), job_record(2, status="FAILED"), job_record(3, status="CANCELLED")]
        energies = {i: energy(i, ext=1.0) for i in (1, 2, 3)}
        out = json.loads(render_report(aggregate_by_status(jobs, energies), fmt="json"))
        assert out["rows"][0]["ext_share_pct"] == pytest.approx(100.0 / 3.0, rel=1e-12)

    def test_empty_report_json(self):
        assert render_report(aggregate_by_status([], {}), fmt="json") == '{"rows":[]}\n'

    def test_text_table_shape(self):
        out = render_report(self.simple_report(), fmt="text")
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["status", "n_jobs", "gpu_kwh", "cpu_kwh", "ext_kwh", "ext_share_pct"]
        assert lines[1].split() == ["COMPLETED", "1", "0.5", "0.25", "1", "100"]
        assert out.endswith("\n")

    def test_histogram_json_golden(self):
        procs = [
            proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=0.0),
            proc_snap("n1", 0.0, 42, 0.0, gpu=0, sm=50.0),
            proc_snap("n1", 0.0, 43, 0.0, gpu=0, sm=100.0),
        ]
        out = render_report(gpu_histogram(procs, n_bins=2), fmt="json")
        assert out == '{"metric":"sm_pct","edges":[0.0,50.0,100.0],"counts":[1,2],"n":3,"excluded":0}\n'

    def test_histogram_csv_golden(self):
        procs = [proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=60.0)]
        out = render_report(gpu_histogram(procs, n_bins=2), fmt="csv")
        assert out == "bin_start,bin_end,count\n0,50,0\n50,100,1\n"

    def test_histogram_text_tail(self):
        procs = [proc_snap("n1", 0.0, 41, 0.0, gpu=0, sm=60.0)]
        out = render_report(gpu_histogram(procs, n_bins=2), fmt="text")
        assert out.splitlines()[-1] == "n=1 excluded=0 metric=sm_pct"

    def test_rendering_is_deterministic(self):
        report = self.simple_report()
        for fmt in ("text", "csv", "json"):
            assert render_report(report, fmt=fmt) == render_report(report, fmt=fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report(self.simple_report(), fmt="yaml")
