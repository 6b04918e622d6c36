"""Whole-pipeline differential and metamorphic tests.

One random scenario goes three ways: the library (`attribute`), the CLI
(`attribute` to a slices file, then `report user --slices`), and the naive
oracle in helpers.py.  They must agree at REL 1e-9, and every slice must
conserve the power an independent interpolation finds at its midpoint.

The metamorphic tests change the input in a way whose effect on the
output is known exactly: reordering lines across series and nodes changes
nothing, doubling every watt reading doubles every watt field, splitting
the proc trace at a snapshot instant splits the slices, relabelling pids
in order changes nothing, renaming nodes in order renames them in the
output and changes nothing else, renumbering jobs in order renumbers them
in the slices and leaves the status report byte-identical, and unmapping
one job moves exactly its CPU energy to the unattributed bucket.  These
run through the CLI and report the first failing example unshrunk, since
shrinking would rerun the CLI for minutes.  In process, through the
readers, attribute_columns and integrate_energy: shifting every timestamp
by whole seconds leaves every energy unchanged at REL 1e-9, also where a
midpoint falls exactly on a series' first or last sample, or a slice lasts
exactly the longest gap, since both are decided in whole milliseconds.

A float reference, one slice at a time, pins the order of every sum
(pids ascending, then job ids, then GPU indices), so that the output is
reproducible to the last bit and not just within REL.
"""

import io
import json
import math
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from wattscope import TraceBundle, attribute, build_timelines, integrate_energy, parse_jobs, parse_slices
from wattscope.attribution import attribute_columns
from wattscope.cli import run
from wattscope.jobs import check_owners, read_pidmap
from wattscope.traces import read_power_trace, read_proc_trace
from helpers import (
    is_gap,
    job_record,
    jsonl,
    lerp_at_midpoint,
    naive_attribute,
    owner_oracle,
    pidmap_snap,
    power_sample,
    proc_snap,
    random_scenario,
)
from test_attribution import assert_matches_naive

REL = 1e-9
J_PER_KWH = 3.6e6
# each example of the CLI tests runs the CLI, so shrinking a failure would take minutes: the first failure found is reported
CLI_PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


def write_scenario(sc, dirpath: Path, power_text=None, proc_text=None, pidmap_text=None) -> dict[str, str]:
    texts = {
        "power": power_text if power_text is not None else jsonl(sc["power"]),
        "proc": proc_text if proc_text is not None else jsonl(sc["procs"]),
        "pidmap": pidmap_text if pidmap_text is not None else jsonl(sc["pidmap"]),
        "jobs": jsonl(sc["jobs"]),
    }
    paths = {}
    for name, text in texts.items():
        p = dirpath / f"{name}.jsonl"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


def cli(*argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def cli_attribute(paths) -> str:
    return cli(
        "attribute",
        "--power", paths["power"],
        "--proc", paths["proc"],
        "--pidmap", paths["pidmap"],
        "--jobs", paths["jobs"],
    )


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=REL)


def series_of(power):
    series = {}
    for p in power:
        series.setdefault((p.node_id, str(p.source)), []).append((p.ts, p.power_w))
    for pts in series.values():
        pts.sort()
    return series


def assert_conserves(slices, power):
    series = series_of(power)
    for s in slices:
        want = {"cpu": 0.0, "gpu": 0.0}
        for (node, src), pts in series.items():
            v = lerp_at_midpoint(pts, *s.interval) if node == s.node_id else None
            if v is not None:
                want[src[:3]] += v
        assert close(sum(p.cpu_w for p in s.per_job.values()) + s.unattributed_cpu_w, want["cpu"])
        assert close(sum(p.gpu_w for p in s.per_job.values()) + s.unattributed_gpu_w, want["gpu"])


def user_energy_oracle(ref, jobs) -> dict[str, tuple[float, float]]:
    """kWh per user from the naive slices, integrated by hand."""
    user_of = {j.job_id: j.user for j in jobs}
    acc = {j.user: [0.0, 0.0] for j in jobs}
    for r in ref:
        if is_gap(r["t0"], r["t1"]):
            continue
        dt = r["t1"] - r["t0"]
        for job_id, (cpu, gpu) in r["jobs"].items():
            acc[user_of[job_id]][0] += cpu * dt
            acc[user_of[job_id]][1] += gpu * dt
    return {user: (cpu / J_PER_KWH, gpu / J_PER_KWH) for user, (cpu, gpu) in acc.items()}


scenarios = st.builds(
    dict,
    seed=st.integers(min_value=0, max_value=10**6),
    n_jobs=st.integers(min_value=1, max_value=6),
    n_gpus=st.integers(min_value=0, max_value=3),
    n_intervals=st.integers(min_value=2, max_value=60),
    n_nodes=st.integers(min_value=1, max_value=3),
)


def make_scenario(params):
    params = dict(params)
    return random_scenario(random.Random(params.pop("seed")), **params)


class TestThreeWayDifferential:
    @settings(max_examples=50, phases=CLI_PHASES)
    @given(scenarios)
    def test_library_cli_and_naive_agree(self, params):
        sc = make_scenario(params)
        ref = naive_attribute(sc["power"], sc["procs"], sc["pidmap"])

        lib = attribute(TraceBundle.build(sc["power"], sc["procs"]), build_timelines(sc["pidmap"], sc["jobs"]))
        assert_matches_naive(lib, ref)
        assert_conserves(lib, sc["power"])

        with tempfile.TemporaryDirectory() as tmp:
            paths = write_scenario(sc, Path(tmp))
            text = cli_attribute(paths)
            via_cli = parse_slices(text.splitlines())
            assert_matches_naive(via_cli, ref)
            assert_conserves(via_cli, sc["power"])

            slices_path = Path(tmp) / "slices.jsonl"
            slices_path.write_text(text, encoding="utf-8")
            report = json.loads(
                cli("report", "user", "--jobs", paths["jobs"], "--slices", str(slices_path), "--format", "json")
            )
        want = user_energy_oracle(ref, sc["jobs"])
        assert {row["user"] for row in report["rows"]} == set(want)
        for row in report["rows"]:
            cpu_kwh, gpu_kwh = want[row["user"]]
            assert math.isclose(row["cpu_kwh"], cpu_kwh, rel_tol=REL, abs_tol=1e-15)
            assert math.isclose(row["gpu_kwh"], gpu_kwh, rel_tol=REL, abs_tol=1e-15)
            assert row["n_jobs"] == sum(1 for j in sc["jobs"] if j.user == row["user"])


def interleave(groups: list[list[str]], rng: random.Random) -> str:
    """Merge the groups at random, keeping each group's own line order."""
    cursors = [0] * len(groups)
    pending = [i for i, g in enumerate(groups) if g]
    out = []
    while pending:
        k = rng.randrange(len(pending))
        i = pending[k]
        out.append(groups[i][cursors[i]])
        cursors[i] += 1
        if cursors[i] == len(groups[i]):
            pending.pop(k)
    return "".join(line + "\n" for line in out)


def grouped_lines(text: str, key) -> list[list[str]]:
    groups: dict = {}
    for line in text.splitlines():
        groups.setdefault(key(json.loads(line)), []).append(line)
    return list(groups.values())


class TestMetamorphic:
    @settings(max_examples=25, phases=CLI_PHASES)
    @given(scenarios, st.integers(min_value=0, max_value=10**6))
    def test_interleaving_lines_changes_nothing(self, params, shuffle_seed):
        sc = make_scenario(params)
        rng = random.Random(shuffle_seed)
        power = grouped_lines(jsonl(sc["power"]), lambda o: (o["node"], o["src"]))
        procs = grouped_lines(jsonl(sc["procs"]), lambda o: (o["node"], o["pid"]))
        pidmap = grouped_lines(jsonl(sc["pidmap"]), lambda o: o["node"])
        with tempfile.TemporaryDirectory() as tmp:
            base = cli_attribute(write_scenario(sc, Path(tmp)))
        with tempfile.TemporaryDirectory() as tmp:
            mixed = cli_attribute(
                write_scenario(
                    sc,
                    Path(tmp),
                    power_text=interleave(power, rng),
                    proc_text=interleave(procs, rng),
                    pidmap_text=interleave(pidmap, rng),
                )
            )
        assert mixed == base

    @settings(max_examples=25, phases=CLI_PHASES)
    @given(scenarios)
    def test_doubling_every_watt_doubles_every_watt_field(self, params):
        sc = make_scenario(params)
        doubled = "".join(
            json.dumps({**obj, "w": 2.0 * obj["w"]}, separators=(",", ":")) + "\n"
            for obj in map(json.loads, jsonl(sc["power"]).splitlines())
        )
        with tempfile.TemporaryDirectory() as tmp:
            base = cli_attribute(write_scenario(sc, Path(tmp)))
        with tempfile.TemporaryDirectory() as tmp:
            twice = cli_attribute(write_scenario(sc, Path(tmp), power_text=doubled))
        base_rows = [json.loads(line) for line in base.splitlines()]
        twice_rows = [json.loads(line) for line in twice.splitlines()]
        assert len(twice_rows) == len(base_rows)
        for a, b in zip(base_rows, twice_rows):
            assert (b["node"], b["t0"], b["t1"]) == (a["node"], a["t0"], a["t1"])
            assert b["unattr_cpu_w"] == 2.0 * a["unattr_cpu_w"]
            assert b["unattr_gpu_w"] == 2.0 * a["unattr_gpu_w"]
            assert set(b["jobs"]) == set(a["jobs"])
            for job, entry in a["jobs"].items():
                assert b["jobs"][job] == {"cpu_w": 2.0 * entry["cpu_w"], "gpu_w": 2.0 * entry["gpu_w"]}

    @settings(max_examples=25, phases=CLI_PHASES)
    @given(scenarios, st.randoms())
    def test_splitting_the_proc_trace_at_a_snapshot_splits_the_slices(self, params, rng):
        # each node is cut at one of its own snapshot instants, which both parts keep;
        # power, pidmap and jobs stay whole, so every slice lies wholly in one part
        sc = make_scenario(params)
        assume(sc["procs"])
        ticks: dict = {}
        for p in sc["procs"]:
            ticks.setdefault(p.node_id, set()).add(p.ts)
        cut = {node: rng.choice(sorted(ts)) for node, ts in ticks.items()}
        before = [p for p in sc["procs"] if p.ts <= cut[p.node_id]]
        after = [p for p in sc["procs"] if p.ts >= cut[p.node_id]]
        with tempfile.TemporaryDirectory() as tmp:
            whole = cli_attribute(write_scenario(sc, Path(tmp)))
        parts = []
        for procs in (before, after):
            with tempfile.TemporaryDirectory() as tmp:
                parts.append(cli_attribute(write_scenario(sc, Path(tmp), proc_text=jsonl(procs))))
        assert sorted(parts[0].splitlines() + parts[1].splitlines()) == sorted(whole.splitlines())

        want = integrate_energy(parse_slices(whole.splitlines()))
        got: dict = {}
        for text in parts:
            for job_id, e in integrate_energy(parse_slices(text.splitlines())).items():
                cpu, gpu = got.get(job_id, (0.0, 0.0))
                got[job_id] = (cpu + e.cpu_kwh, gpu + e.gpu_kwh)
        assert set(got) == set(want)
        for job_id, e in want.items():
            assert math.isclose(got[job_id][0], e.cpu_kwh, rel_tol=REL, abs_tol=1e-15)
            assert math.isclose(got[job_id][1], e.gpu_kwh, rel_tol=REL, abs_tol=1e-15)


    @settings(max_examples=25, phases=CLI_PHASES)
    @given(scenarios, st.randoms())
    def test_relabelling_pids_in_order_changes_nothing(self, params, rng):
        # pids order each node's records and name their owners; no output byte depends on their values
        sc = make_scenario(params)
        pids = sorted({p.pid for p in sc["procs"]} | {pid for s in sc["pidmap"] for pid, _ in s.assignments})
        new = dict(zip(pids, sorted(rng.sample(range(1, 4_194_305), len(pids)))))  # up to Linux's largest pid
        relabelled = {
            **sc,
            "procs": [p._replace(pid=new[p.pid]) for p in sc["procs"]],
            "pidmap": [s._replace(assignments=tuple((new[pid], j) for pid, j in s.assignments)) for s in sc["pidmap"]],
        }
        with tempfile.TemporaryDirectory() as tmp:
            base = cli_attribute(write_scenario(sc, Path(tmp)))
        with tempfile.TemporaryDirectory() as tmp:
            assert cli_attribute(write_scenario(relabelled, Path(tmp))) == base

    @settings(max_examples=25, phases=CLI_PHASES)
    @given(scenarios, st.randoms())
    def test_renaming_nodes_in_order_renames_the_output(self, params, rng):
        # names of several lengths, so that an order by length first would differ from the order of names
        sc = make_scenario(params)
        nodes = sorted({r.node_id for records in sc.values() for r in records})
        names: set[str] = set()
        while len(names) < len(nodes):
            names.add("".join(rng.choice("-.09AZ_az\u00e9") for _ in range(rng.randint(1, 12))))
        new = dict(zip(nodes, sorted(names)))
        renamed = {key: [r._replace(node_id=new[r.node_id]) for r in records] for key, records in sc.items()}
        with tempfile.TemporaryDirectory() as tmp:
            base = cli_attribute(write_scenario(sc, Path(tmp)))
        with tempfile.TemporaryDirectory() as tmp:
            got = cli_attribute(write_scenario(renamed, Path(tmp)))

        def rename(line: str) -> str:  # the node is the first field of a slice line
            node = json.loads(line)["node"]
            return line.replace(json.dumps(node), json.dumps(new[node]), 1)

        assert got == "".join(rename(line) + "\n" for line in base.splitlines())

    @settings(max_examples=25, phases=CLI_PHASES)
    @given(scenarios, st.randoms())
    def test_renumbering_jobs_in_order_renumbers_the_output(self, params, rng):
        # ids of several lengths, so that an order of job keys as text would differ from the order of ids
        sc = make_scenario(params)
        ids = sorted(j.job_id for j in sc["jobs"])
        new = dict(zip(ids, sorted(rng.sample(range(1, 10**7), len(ids)))))
        renumbered = {
            **sc,
            "jobs": [j._replace(job_id=new[j.job_id]) for j in sc["jobs"]],
            "pidmap": [s._replace(assignments=tuple((pid, new[j]) for pid, j in s.assignments)) for s in sc["pidmap"]],
        }
        outputs = []
        for scenario in (sc, renumbered):
            with tempfile.TemporaryDirectory() as tmp:
                paths = write_scenario(scenario, Path(tmp))
                outputs.append((cli_attribute(paths), cli_status_json(paths)))
        (base, base_status), (got, got_status) = outputs
        # a job key is the only quoted integer followed by an object with cpu_w
        assert got == re.sub(r'"(\d+)":\{"cpu_w"', lambda m: '"%d":{"cpu_w"' % new[int(m[1])], base)
        assert got_status == base_status

    @settings(max_examples=25, phases=CLI_PHASES)
    @given(scenarios, st.randoms())
    def test_unmapping_a_job_moves_its_cpu_energy_to_unattributed(self, params, rng):
        # its pids keep their cpu-time deltas, which now count for nobody; the GPU split is not
        # checked, since its equal tier counts the jobs present
        sc = make_scenario(params)
        mapped = sorted({j for s in sc["pidmap"] for _, j in s.assignments})
        assume(mapped)
        gone = rng.choice(mapped)
        unmapped = {  # every snapshot stays, so the other pids keep their owners over the same spans
            **sc,
            "pidmap": [s._replace(assignments=tuple(a for a in s.assignments if a[1] != gone)) for s in sc["pidmap"]],
        }
        energies, statuses = [], []
        for scenario in (sc, unmapped):
            with tempfile.TemporaryDirectory() as tmp:
                paths = write_scenario(scenario, Path(tmp))
                energies.append(cpu_joules(cli_attribute(paths)))
                statuses.append({r["status"]: r["cpu_kwh"] for r in json.loads(cli_status_json(paths))["rows"]})
        before, after = energies
        assert set(after) - {0} == set(before) - {0, gone}
        moved = before.get(gone, 0.0)
        assert math.isclose(after.get(0, 0.0), before.get(0, 0.0) + moved, rel_tol=REL, abs_tol=1e-9)
        for job_id, joules in after.items():
            if job_id != 0:
                assert math.isclose(joules, before[job_id], rel_tol=REL, abs_tol=1e-9)
        status_of = {j.job_id: j.status for j in sc["jobs"]}
        for status, kwh in statuses[1].items():
            want = statuses[0][status] - (moved / J_PER_KWH if status == status_of[gone] else 0.0)
            assert math.isclose(kwh, want, rel_tol=REL, abs_tol=REL * statuses[0][status] + 1e-18)

    @settings(max_examples=50)
    @given(scenarios, st.integers(min_value=-10**5, max_value=10**5).filter(bool))
    @example({"seed": 0, "n_jobs": 3, "n_gpus": 2, "n_intervals": 40, "n_nodes": 2}, -7)
    @example({"seed": 1, "n_jobs": 3, "n_gpus": 2, "n_intervals": 40, "n_nodes": 2}, 86_400)
    @example({"seed": 3034, "n_jobs": 1, "n_gpus": 0, "n_intervals": 2, "n_nodes": 2}, 2048)  # a midpoint on a series' start
    def test_shifting_time_by_whole_seconds_keeps_every_energy(self, params, shift):
        # in process: the readers round ts + shift to the millisecond again, so slice bytes may differ, energies not
        sc = make_scenario(params)
        assert_same_energies(energies_in_process(shift_time(sc, shift)), energies_in_process(sc))

    def test_shifting_time_keeps_a_series_that_starts_at_a_midpoint(self):
        # (0.0 + 0.81) / 2 == 0.405, but (7.0 + 7.81) / 2 < 7.405: in float seconds the shifted slice would lose cpu0
        sc = {
            "power": [power_sample("n1", "cpu0", 0.405, 100.0), power_sample("n1", "cpu0", 2.0, 100.0)],
            "procs": [proc_snap("n1", 0.0, 41, 0.0), proc_snap("n1", 0.81, 41, 0.5)],
            "pidmap": [pidmap_snap("n1", 0.0, {41: 7})],
            "jobs": [job_record(7)],
        }
        assert midpoint_on_a_series_end(sc)
        assert_same_energies(energies_in_process(shift_time(sc, 7)), energies_in_process(sc))

    def test_shifting_time_keeps_a_slice_of_exactly_the_longest_gap(self, tmp_path):
        # 10.007 - 0.007 == 10.0, but 17.007 - 7.007 > 10.0: in float seconds the shifted slice would be a gap
        sc = {
            "power": [power_sample("n1", "cpu0", -1.0, 100.0), power_sample("n1", "cpu0", 20.0, 100.0)],
            "procs": [proc_snap("n1", 0.007, 11, 0.0), proc_snap("n1", 10.007, 11, 1.0)],
            "pidmap": [pidmap_snap("n1", 0.0, {11: 1})],
            "jobs": [job_record(1)],
        }
        kwh = []
        for shift in (0, 7):
            (tmp_path / str(shift)).mkdir()
            paths = write_scenario(shift_time(sc, shift), tmp_path / str(shift))
            rows = json.loads(cli("report", "status", *(f for name in ("power", "proc", "pidmap", "jobs")
                                                       for f in (f"--{name}", paths[name])),
                                  "--column", "cpu", "--format", "json"))["rows"]
            kwh.append({r["status"]: r["cpu_kwh"] for r in rows})
        assert math.isclose(kwh[0]["COMPLETED"], 100.0 * 10.0 / J_PER_KWH, rel_tol=REL)
        assert kwh[1].keys() == kwh[0].keys()
        for status, e in kwh[0].items():
            assert math.isclose(kwh[1][status], e, rel_tol=REL)


def shift_time(sc, shift: int) -> dict:
    """The scenario with every ts, and every job's submit, start and end, moved by shift seconds."""
    return {
        "power": [p._replace(ts=p.ts + shift) for p in sc["power"]],
        "procs": [p._replace(ts=p.ts + shift) for p in sc["procs"]],
        "pidmap": [s._replace(ts=s.ts + shift) for s in sc["pidmap"]],
        "jobs": [j._replace(t_submit=j.t_submit + shift, t_start=j.t_start + shift, t_end=j.t_end + shift)
                 for j in sc["jobs"]],
    }


def midpoint_on_a_series_end(sc) -> bool:
    """Whether some slice's midpoint is, in exact milliseconds, the first or last sample of a series on its node."""
    series, ticks = {}, {}
    for p in sc["power"]:
        series.setdefault((p.node_id, p.source), []).append(round(p.ts * 1000))
    for p in sc["procs"]:
        ticks.setdefault(p.node_id, set()).add(round(p.ts * 1000))
    doubled = {(node, 2 * end) for (node, _), ts in series.items() for end in (min(ts), max(ts))}
    return any((node, a + b) in doubled for node, ts in ticks.items() for a, b in zip(sorted(ts), sorted(ts)[1:]))


def assert_same_energies(got, want) -> None:
    assert set(got) == set(want)
    for job_id, e in want.items():
        assert math.isclose(got[job_id].cpu_kwh, e.cpu_kwh, rel_tol=REL, abs_tol=1e-15)
        assert math.isclose(got[job_id].gpu_kwh, e.gpu_kwh, rel_tol=REL, abs_tol=1e-15)


def energies_in_process(sc) -> dict:
    """Every job's energy, and the unattributed energy under job 0, by the library calls the CLI makes."""
    owners = read_pidmap(jsonl(sc["pidmap"]).splitlines())
    check_owners(owners, parse_jobs(jsonl(sc["jobs"]).splitlines()))
    power, procs = read_power_trace(jsonl(sc["power"]).splitlines()), read_proc_trace(jsonl(sc["procs"]).splitlines())
    return integrate_energy(attribute_columns(power, procs, owners))


def cli_status_json(paths) -> str:
    return cli("report", "status", *(f for name in ("power", "proc", "pidmap", "jobs") for f in (f"--{name}", paths[name])),
               "--format", "json")


def cpu_joules(text: str) -> dict[int, float]:
    """CPU joules per job in a slices text, unattributed under 0, over slices that are not gaps."""
    acc: dict[int, float] = {}
    for row in map(json.loads, text.splitlines()):
        if is_gap(row["t0"], row["t1"]):
            continue
        dt = row["t1"] - row["t0"]
        for job, entry in row["jobs"].items():
            acc[int(job)] = acc.get(int(job), 0.0) + entry["cpu_w"] * dt
        acc[0] = acc.get(0, 0.0) + row["unattr_cpu_w"] * dt
    return acc


def ordered_float_attribute(power, procs, pidmap):
    """Per-slice float arithmetic, summing in the documented order."""
    series = {}
    for s in power:
        series.setdefault((s.node_id, s.source.kind, s.source.index), []).append((s.ts, s.power_w))
    by_node = {}
    for p in procs:
        by_node.setdefault(p.node_id, {}).setdefault(p.ts, {})[p.pid] = p
    out = []
    for node in sorted(by_node):
        mine = {k[1:]: np.array(sorted(v)).T for k, v in series.items() if k[0] == node and k[1] != "ext"}
        ticks = sorted(by_node[node])
        for t0, t1 in zip(ticks, ticks[1:]):
            mid = (t0 + t1) / 2.0
            twice_mid = round(t0 * 1000) + round(t1 * 1000)  # coverage in whole milliseconds
            at = {k: float(np.interp(mid, ts, w)) for k, (ts, w) in mine.items()
                  if 2 * round(ts[0] * 1000) <= twice_mid <= 2 * round(ts[-1] * 1000)}
            owner = {pid: owner_oracle(pidmap, node, pid, t0) or 0 for pid in by_node[node][t0]}
            at0, at1 = by_node[node][t0], by_node[node][t1]
            deltas = {}
            for pid in sorted(set(at0) & set(at1)):
                deltas[owner[pid]] = deltas.get(owner[pid], 0.0) + (at1[pid].cpu_time_s - at0[pid].cpu_time_s)
            cpu_p = 0.0
            for key in sorted(k for k in mine if k[0] == "cpu"):
                cpu_p += at.get(key, 0.0)
            cpu_map, unattr_cpu = ordered_split(deltas, cpu_p)
            gpu_maps, unattr_gpu = [], 0.0
            for key in sorted(k for k in at if k[0] == "gpu"):
                sm, mem = {}, {}
                for pid in sorted(p for p in at0 if at0[p].gpu_index == key[1]):
                    sm[owner[pid]] = sm.get(owner[pid], 0.0) + (at0[pid].gpu_sm_pct or 0.0)
                    mem[owner[pid]] = mem.get(owner[pid], 0.0) + (at0[pid].gpu_mem_mib or 0.0)
                weights = sm if any(v > 0 for v in sm.values()) else mem
                if not any(v > 0 for v in weights.values()):
                    weights = dict.fromkeys(sm, 1.0)
                gmap, unattr = ordered_split(weights, at[key])
                gpu_maps.append(gmap)
                unattr_gpu += unattr
            jobs = set(cpu_map).union(*gpu_maps)
            per_job = {j: (cpu_map.get(j, 0.0), sum(g.get(j, 0.0) for g in gpu_maps)) for j in jobs}
            out.append((node, t0, t1, per_job, unattr_cpu, unattr_gpu))
    return out


def ordered_split(weights, power):
    """Proportional split with every sum taken over ascending job ids; job 0 is unattributed."""
    total = sum(weights[j] for j in sorted(weights))
    if total <= 0:
        return {}, power
    shares = {j: power * (weights[j] / total) for j in sorted(weights)}
    return {j: w for j, w in shares.items() if j != 0}, 0.0 + shares.get(0, 0.0)


class TestSummationOrder:
    @settings(max_examples=25)
    @given(scenarios)
    def test_every_float_matches_the_ordered_reference(self, params):
        sc = make_scenario(params)
        lib = attribute(TraceBundle.build(sc["power"], sc["procs"]), build_timelines(sc["pidmap"], sc["jobs"]))
        got = [
            (s.node_id, s.interval.t0, s.interval.t1, {j: (p.cpu_w, p.gpu_w) for j, p in s.per_job.items()},
             s.unattributed_cpu_w, s.unattributed_gpu_w)
            for s in lib
        ]
        assert got == ordered_float_attribute(sc["power"], sc["procs"], sc["pidmap"])

    def test_sums_run_in_pid_order_whatever_order_processes_are_first_seen(self):
        # job 1's pids 30, 20 and 10 are first seen in that order; their cpu deltas and sm, 0.1, 0.2 and 0.3,
        # add to 0.6000000000000001 in that order and to 0.6 in pid order.  Unowned pid 40 keeps the job's
        # share below 1, so the sum's last bit reaches the watts.
        power = [power_sample("n1", src, ts, 100.0) for src in ("cpu0", "gpu0") for ts in (0.0, 2.0)]
        procs = [proc_snap("n1", ts, pid, ts * x, gpu=0, sm=x, mem=0.0)
                 for ts in (0.0, 1.0) for pid, x in ((40, 1.0), (30, 0.1), (20, 0.2), (10, 0.3))]
        pidmap = [pidmap_snap("n1", 0.0, {10: 1, 20: 1, 30: 1})]
        cols = attribute_columns(read_power_trace(jsonl(power).splitlines()), read_proc_trace(jsonl(procs).splitlines()),
                                 read_pidmap(jsonl(pidmap).splitlines()))
        got = [(s.node_id, s.interval.t0, s.interval.t1, {j: (p.cpu_w, p.gpu_w) for j, p in s.per_job.items()},
                s.unattributed_cpu_w, s.unattributed_gpu_w) for s in cols.slices()]
        assert got == ordered_float_attribute(power, procs, pidmap)
