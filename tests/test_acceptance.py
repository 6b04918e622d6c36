"""End-to-end acceptance checks, one per release criterion.

Each test prints one ACCEPTANCE line (pass/fail plus elapsed time) and
enforces its runtime budget.  Oracles live in helpers.py and are
deliberately naive; nothing here reuses the library's computation paths.
"""

import json
import random
import subprocess
import sys
import time
from bisect import bisect_right

import pytest

from wattscope import (
    JobEnergy,
    TraceBundle,
    TraceError,
    aggregate_by_status,
    attribute,
    build_timelines,
    fit_scale,
    gpu_histogram,
    integrate_energy,
    parse_jobs,
    parse_models,
    parse_pidmap,
    parse_power_trace,
    parse_proc_trace,
    parse_slices,
)
from helpers import (
    covers_midpoint,
    grid_fit_oracle,
    hist_counts_oracle,
    is_gap,
    job_record,
    jsonl,
    naive_attribute,
    random_scenario,
    write_status_split_fixture,
)
from test_attribution import assert_matches_naive


def criterion(n, label, budget_s, capsys, body):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        assert elapsed < budget_s, f"criterion {n} took {elapsed:.2f}s, budget {budget_s}s"
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n} {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n} {label}: PASS ({elapsed:.2f}s < {budget_s:.0f}s)")


def test_1_status_share_reproduction(capsys):
    def body():
        jobs = [
            job_record(1, status="COMPLETED"),
            job_record(2, status="FAILED"),
            job_record(3, status="CANCELLED"),
            job_record(4, status="TIMEOUT"),
        ]
        energies = {
            j: JobEnergy(j, cpu_kwh=0.0, gpu_kwh=0.0, ext_kwh=kwh)
            for j, kwh in {1: 229.0, 2: 76.0, 3: 29.0, 4: 235.0}.items()
        }
        report = aggregate_by_status(jobs, energies)
        assert [r.key for r in report.rows] == ["COMPLETED", "FAILED", "CANCELLED", "TIMEOUT"]
        assert [round(r.share_pct) for r in report.rows] == [40, 13, 5, 41]

    criterion(1, "per-status energy shares 40/13/5/41", 1.0, capsys, body)


def lerp_at_midpoint(ts_list, w_list, t0, t1):
    """Independent bisect-based linear interpolation at the midpoint of [t0, t1]; None unless covers_midpoint.

    A midpoint that rounding puts just outside the span is held within it.
    """
    if not ts_list or not covers_midpoint(ts_list[0], ts_list[-1], t0, t1):
        return None
    t = min(max((t0 + t1) / 2.0, ts_list[0]), ts_list[-1])
    i = bisect_right(ts_list, t) - 1
    if i >= len(ts_list) - 1:
        return w_list[-1]
    a, b = ts_list[i], ts_list[i + 1]
    return w_list[i] + (w_list[i + 1] - w_list[i]) * (t - a) / (b - a)


def test_2_energy_conservation(capsys):
    def body():
        for seed in range(100):
            rng = random.Random(seed)
            if seed >= 98:
                n_intervals, n_nodes = 10_000, 1
            elif seed >= 90:
                n_intervals, n_nodes = 1_000, rng.randint(1, 3)
            else:
                n_intervals, n_nodes = rng.randint(40, 250), rng.randint(1, 3)
            sc = random_scenario(
                rng,
                n_jobs=rng.randint(1, 8),
                n_gpus=rng.randint(0, 4),
                n_intervals=n_intervals,
                n_nodes=n_nodes,
            )
            slices = attribute(
                TraceBundle.build(sc["power"], sc["procs"]),
                build_timelines(sc["pidmap"], sc["jobs"]),
            )

            series = {}
            for p in sc["power"]:
                series.setdefault((p.node_id, p.source.kind), []).append((p.ts, str(p.source), p.power_w))
            per_source = {}
            for (node, kind), pts in series.items():
                by_src = {}
                for ts, src, w in pts:
                    by_src.setdefault(src, []).append((ts, w))
                columns = []
                for v in by_src.values():
                    v.sort()
                    columns.append(([p[0] for p in v], [p[1] for p in v]))
                per_source[(node, kind)] = columns

            for node in sorted({s.node_id for s in slices}):
                node_slices = [s for s in slices if s.node_id == node]
                energies = integrate_energy(node_slices, max_gap_s=10.0)
                got = {"cpu": 0.0, "gpu": 0.0}
                for e in energies.values():
                    got["cpu"] += e.cpu_kwh * 3.6e6
                    got["gpu"] += e.gpu_kwh * 3.6e6
                want = {"cpu": 0.0, "gpu": 0.0}
                for s in node_slices:
                    if is_gap(*s.interval, 10.0):
                        continue
                    dt = s.interval.duration_s
                    for kind in ("cpu", "gpu"):
                        for ts_list, w_list in per_source.get((node, kind), []):
                            v = lerp_at_midpoint(ts_list, w_list, *s.interval)
                            if v is not None:
                                want[kind] += v * dt
                for kind in ("cpu", "gpu"):
                    assert abs(got[kind] - want[kind]) <= 1e-9 * max(1.0, abs(want[kind])), (
                        f"seed {seed} node {node} {kind}: {got[kind]} != {want[kind]}"
                    )

    criterion(2, "per-node per-source energy conservation on 100 traces", 30.0, capsys, body)


def test_3_attribution_matches_naive_reference(capsys):
    def body():
        for seed in range(200, 220):
            rng = random.Random(seed)
            sc = random_scenario(
                rng,
                n_jobs=rng.randint(1, 8),
                n_gpus=rng.randint(0, 4),
                n_intervals=rng.randint(50, 150),
                n_nodes=rng.randint(1, 2),
            )
            slices = attribute(
                TraceBundle.build(sc["power"], sc["procs"]),
                build_timelines(sc["pidmap"], sc["jobs"]),
            )
            assert_matches_naive(slices, naive_attribute(sc["power"], sc["procs"], sc["pidmap"]))

    criterion(3, "attribute() equals full-materialization reference on 20 scenarios", 30.0, capsys, body)


def test_4_calibration_recovery(capsys):
    def body():
        rng = random.Random(4242)
        for k_true in (0.8, 1.6, 2.5):
            s = [rng.uniform(40.0, 500.0) for _ in range(5000)]
            e = [k_true * x * (1.0 + rng.uniform(-0.05, 0.05)) for x in s]
            m = fit_scale(s, e)
            assert abs(m.k - k_true) / k_true < 0.02
            best_c, best_mape = grid_fit_oracle(s, e)
            assert abs(m.mape_pct - best_mape) < 1.0

        # unmonitored 40 W baseline: scale-only fit cannot hide it and the
        # reported mape must be exactly what the brute-force search sees
        s = [rng.uniform(50.0, 300.0) for _ in range(5000)]
        e = [1.6 * x + 40.0 for x in s]
        m = fit_scale(s, e)
        best_c, best_mape = grid_fit_oracle(s, e)
        assert abs(m.k - best_c) <= 1e-4
        assert abs(m.mape_pct - best_mape) < 0.05
        assert m.mape_pct > 1.0

    criterion(4, "scale recovery within 2% and mape within 1 pt of grid oracle", 10.0, capsys, body)


def test_5_bimodal_histogram(capsys):
    def body():
        from helpers import proc_snap

        rng = random.Random(55)
        values = []
        for i in range(4000):
            mode = 12.5 if i % 2 else 87.5
            values.append(min(100.0, max(0.0, rng.gauss(mode, 2.5))))
        procs = [proc_snap("n1", float(i), 41, 0.0, gpu=0, sm=v) for i, v in enumerate(values)]
        hist = gpu_histogram(procs, n_bins=20)
        assert list(hist.counts) == hist_counts_oracle(values, list(hist.bin_edges))
        top_two = sorted(range(20), key=lambda i: hist.counts[i], reverse=True)[:2]
        assert set(top_two) == {2, 17}  # bins holding 12.5 and 87.5

    criterion(5, "bimodal histogram equals per-sample oracle with both modes on top", 5.0, capsys, body)


def test_6_cli_determinism(capsys, tmp_path):
    def body():
        fixture = write_status_split_fixture(tmp_path)
        sc = random_scenario(random.Random(66), n_jobs=6, n_gpus=2, n_intervals=150, n_nodes=3)
        paths = {}
        for name, records in (("power", sc["power"]), ("proc", sc["procs"]), ("pidmap", sc["pidmap"]), ("jobs", sc["jobs"])):
            p = tmp_path / f"mn_{name}.jsonl"
            p.write_text(jsonl(records), encoding="utf-8")
            paths[name] = str(p)

        def invoke(*argv):
            r = subprocess.run(
                [sys.executable, "-m", "wattscope", *argv],
                capture_output=True, text=True, timeout=120,
            )
            assert r.returncode == 0, r.stderr
            return r.stdout

        report_argv = (
            "report", "status",
            "--jobs", fixture["jobs"],
            "--power", fixture["power"],
            "--proc", fixture["proc"],
            "--pidmap", fixture["pidmap"],
            "--model", fixture["model"],
            "--format", "csv",
        )
        outs = [invoke(*report_argv) for _ in range(3)]
        assert outs[0] == outs[1] == outs[2]
        assert [line.split(",")[5] for line in outs[0].splitlines()[1:]] == ["40", "13", "5", "41"]

        attr_argv = (
            "attribute",
            "--power", paths["power"],
            "--proc", paths["proc"],
            "--pidmap", paths["pidmap"],
            "--jobs", paths["jobs"],
        )
        threaded = [invoke(*attr_argv, "--threads", t) for t in ("1", "2", "8")]
        assert threaded[0] == threaded[1] == threaded[2]
        assert len(threaded[0].splitlines()) > 100

    criterion(6, "CLI output byte-identical across runs and thread counts", 10.0, capsys, body)


FUZZ_TEMPLATES = [
    '{"node":"n1","src":"cpu0","ts":1.5,"w":100.0}',
    '{"node":"n1","src":"gpu1","ts":2.5,"w":55.5}',
    '{"node":"n1","src":"ext","ts":3.5,"w":250.0}',
    '{"node":"n1","ts":1.0,"pid":41,"cpu_s":12.5,"gpu":0,"sm_pct":50.0,"mem_mib":4096.0}',
    '{"node":"n1","ts":2.0,"map":[[41,7],[42,8]]}',
    '{"job":7,"user":"alice","node":"n1","submit":0.0,"start":1.0,"end":2.0,"status":"COMPLETED"}',
    '{"node":"n1","t0":0.0,"t1":1.0,"jobs":{"7":{"cpu_w":1.0,"gpu_w":0.0}},"unattr_cpu_w":0.0,"unattr_gpu_w":0.0}',
    '{"node":"n1","k":1.5,"mape_pct":3.0,"n":100}',
]

FUZZ_VALUES = [
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999", "null", "true", "false",
    "[]", "{}", '"x"', "-1", "-0.5", "1e308", '""', "[[]]", '{"a":', "0x10", "'7'",
]

CHAR_POOL = '{}[]",:0123456789abcdef \t\N{DEGREE SIGN}\N{GREEK SMALL LETTER ALPHA}\\'


def fuzz_line(rng: random.Random) -> str:
    roll = rng.random()
    template = rng.choice(FUZZ_TEMPLATES)
    if roll < 0.10:
        line = "".join(rng.choice(CHAR_POOL) for _ in range(rng.randint(0, 120)))
    elif roll < 0.25:
        line = template[: rng.randint(0, len(template))]
    elif roll < 0.45:
        try:
            obj = json.loads(template)
        except ValueError:  # pragma: no cover - templates are valid
            obj = {}
        keys = list(obj)
        action = rng.random()
        if keys and action < 0.4:
            del obj[rng.choice(keys)]
        elif keys and action < 0.8:
            obj[rng.choice(keys)] = rng.choice([None, True, [], {}, "x", -3, 1e309, [1, [2]]])
        else:
            obj[rng.choice(["extra", "ts", "深", ""])] = rng.choice([None, "y", 9])
        line = json.dumps(obj, allow_nan=True)
    elif roll < 0.70:
        cut = rng.randrange(max(1, len(template)))
        line = template[:cut] + rng.choice(FUZZ_VALUES) + template[cut:]
    else:
        chars = list(template)
        for _ in range(rng.randint(1, 4)):
            op = rng.random()
            pos = rng.randrange(len(chars)) if chars else 0
            if op < 0.4 and chars:
                del chars[pos]
            elif op < 0.7:
                chars.insert(pos, rng.choice(CHAR_POOL))
            elif chars:
                chars[pos] = rng.choice(CHAR_POOL)
        line = "".join(chars)
    return line.replace("\n", " ").replace("\r", " ")


def test_7_parser_robustness_fuzz(capsys):
    def body():
        parsers = [
            parse_power_trace,
            parse_proc_trace,
            parse_pidmap,
            parse_jobs,
            parse_slices,
            parse_models,
        ]
        rng = random.Random(777)
        for i in range(10_000):
            line = fuzz_line(rng)
            parser = parsers[i % len(parsers)]
            try:
                parser([line])
            except TraceError as exc:
                assert exc.line_no == 1, f"{parser.__name__} mislocated {line!r}"
                assert "line 1" in str(exc)
            except Exception as exc:  # noqa: BLE001 - the whole point
                raise AssertionError(
                    f"{parser.__name__} crashed with {type(exc).__name__} on {line!r}"
                ) from exc

    criterion(7, "10000 fuzzed lines never crash and errors carry line numbers", 60.0, capsys, body)
