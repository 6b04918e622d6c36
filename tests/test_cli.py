import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from wattscope import parse_models, parse_slices
from wattscope.cli import run
from helpers import write_status_split_fixture


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def fixture(tmp_path):
    return write_status_split_fixture(tmp_path)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def with_bom(path, tmp_path):
    """A copy of the file at path that starts with the UTF-8 byte order mark, EF BB BF."""
    copy = tmp_path / f"bom_{Path(path).name}"
    copy.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    return str(copy)


def with_byte_ff(path, line_no, tmp_path):
    """A copy of the file at path whose line line_no starts with 0xff, a byte that UTF-8 never uses."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    lines[line_no - 1] = b"\xff" + lines[line_no - 1]
    copy = tmp_path / f"ff_{Path(path).name}"
    copy.write_bytes(b"".join(lines))
    return str(copy)


@pytest.fixture()
def gpu_fixture(tmp_path):
    proc = [
        json.dumps({"node": "n1", "ts": 0.0, "pid": 41, "cpu_s": 0.0, "gpu": 0, "sm_pct": 10.0, "mem_mib": 4000.0}),
        json.dumps({"node": "n1", "ts": 1.0, "pid": 41, "cpu_s": 1.0, "gpu": 0, "sm_pct": 30.0, "mem_mib": 4000.0}),
        json.dumps({"node": "n1", "ts": 0.0, "pid": 42, "cpu_s": 0.0, "gpu": 0, "sm_pct": 90.0}),
        json.dumps({"node": "n1", "ts": 0.0, "pid": 43, "cpu_s": 0.0, "gpu": 1}),
        json.dumps({"node": "n1", "ts": 0.0, "pid": 44, "cpu_s": 0.0}),
    ]
    pidmap = [json.dumps({"node": "n1", "ts": 0.0, "map": [[41, 7], [42, 7]]})]
    jobs = [json.dumps({"job": 7, "user": "alice", "node": "n1", "submit": 0.0, "start": 0.0, "end": 10.0, "status": "COMPLETED"})]
    caps = json.dumps({"n1": {"0": 16000.0, "1": 16000.0}})
    return {
        "proc": write_lines(tmp_path / "gproc.jsonl", proc),
        "pidmap": write_lines(tmp_path / "gpidmap.jsonl", pidmap),
        "jobs": write_lines(tmp_path / "gjobs.jsonl", jobs),
        "capacities": write_lines(tmp_path / "caps.json", [caps]),
    }


class TestValidate:
    def test_all_inputs(self, fixture):
        code, out, err = run_cli(
            "validate",
            "--power", fixture["power"],
            "--proc", fixture["proc"],
            "--pidmap", fixture["pidmap"],
            "--jobs", fixture["jobs"],
            "--external", fixture["external"],
        )
        assert code == 0
        assert out.startswith("ok: power=570 ")
        assert "jobs=4" in out and "pidmap=1" in out
        assert err == ""

    def test_slices_input(self, fixture, tmp_path):
        code, slices_text, _ = run_cli(
            "attribute",
            "--power", fixture["power"],
            "--proc", fixture["proc"],
            "--pidmap", fixture["pidmap"],
            "--jobs", fixture["jobs"],
        )
        assert code == 0
        path = tmp_path / "slices.jsonl"
        path.write_text(slices_text, encoding="utf-8")
        code, out, _ = run_cli("validate", "--slices", str(path))
        assert code == 0
        assert out == f"ok: slices={len(slices_text.splitlines())}\n"

    def test_no_inputs_is_a_usage_error(self):
        code, out, err = run_cli("validate")
        assert code == 2
        assert out == ""
        assert err.startswith("usage error:")

    def test_malformed_line_is_located(self, tmp_path, fixture):
        lines = ['{"node":"n1","src":"cpu0","ts":0.0,"w":1.0}', '{"node":"n1","src":"cpu0","ts":1.0,"w":1.0}', "{oops"]
        path = write_lines(tmp_path / "bad.jsonl", lines)
        code, out, err = run_cli("validate", "--power", path)
        assert code == 1
        assert out == ""
        assert "MalformedLine" in err
        assert path in err
        assert "line 3" in err

    def test_bytes_that_are_not_utf8_are_located(self, tmp_path, fixture):
        jobs = with_byte_ff(fixture["jobs"], 3, tmp_path)
        assert run_cli("validate", "--jobs", jobs) == (1, "", f"error: MalformedLine: {jobs}: line 3: not UTF-8 text\n")

    @pytest.mark.parametrize("kind", ["jobs", "pidmap"])
    def test_a_byte_order_mark_is_named(self, tmp_path, fixture, kind):
        path = with_bom(fixture[kind], tmp_path)
        expected = f"error: MalformedLine: {path}: line 1: invalid JSON: starts with a byte order mark (U+FEFF)\n"
        assert run_cli("validate", f"--{kind}", path) == (1, "", expected)

    def test_missing_file(self, tmp_path):
        code, out, err = run_cli("validate", "--power", str(tmp_path / "nope.jsonl"))
        assert code == 1
        assert out == ""
        assert "nope.jsonl" in err

    def test_external_must_be_ext_source(self, tmp_path):
        path = write_lines(tmp_path / "notext.jsonl", ['{"node":"n1","src":"cpu0","ts":0.0,"w":1.0}'])
        code, out, err = run_cli("validate", "--external", path)
        assert code == 1
        assert out == ""


class TestAttribute:
    def test_emits_parseable_slices(self, fixture):
        code, out, err = run_cli(
            "attribute",
            "--power", fixture["power"],
            "--proc", fixture["proc"],
            "--pidmap", fixture["pidmap"],
            "--jobs", fixture["jobs"],
        )
        assert code == 0
        slices = parse_slices(out.splitlines())
        assert len(slices) == 569
        assert {s.node_id for s in slices} == {"n1"}

    def test_byte_identical_across_runs_and_threads(self, fixture):
        argv = [
            "attribute",
            "--power", fixture["power"],
            "--proc", fixture["proc"],
            "--pidmap", fixture["pidmap"],
            "--jobs", fixture["jobs"],
        ]
        _, first, _ = run_cli(*argv)
        _, second, _ = run_cli(*argv)
        _, threaded, _ = run_cli(*argv, "--threads", "4")
        assert first == second == threaded

    def test_planted_defect_stops_everything(self, tmp_path, fixture):
        lines = [
            json.dumps({"node": "n1", "src": "cpu0", "ts": float(i), "w": 100.0})
            for i in range(1, 5000)
        ]
        lines.append(json.dumps({"node": "n1", "src": "cpu0", "ts": 1.5, "w": 100.0}))
        lines += [
            json.dumps({"node": "n1", "src": "cpu0", "ts": float(i), "w": 100.0})
            for i in range(5000, 10001)
        ]
        path = write_lines(tmp_path / "regress.jsonl", lines)
        code, out, err = run_cli(
            "attribute",
            "--power", path,
            "--proc", fixture["proc"],
            "--pidmap", fixture["pidmap"],
            "--jobs", fixture["jobs"],
        )
        assert code == 1
        assert out == ""
        assert "NonMonotonicTimestamp" in err
        assert "5000" in err

    def test_bytes_that_are_not_utf8_are_located(self, tmp_path, fixture):
        # far past the first block that the text reader decodes
        proc = with_byte_ff(fixture["proc"], 400, tmp_path)
        argv = ["attribute", "--power", fixture["power"], "--proc", proc, "--pidmap", fixture["pidmap"], "--jobs", fixture["jobs"]]
        assert run_cli(*argv) == (1, "", f"error: MalformedLine: {proc}: line 400: not UTF-8 text\n")

    def test_a_byte_order_mark_is_named(self, tmp_path, fixture):
        proc = with_bom(fixture["proc"], tmp_path)
        argv = ["attribute", "--power", fixture["power"], "--proc", proc, "--pidmap", fixture["pidmap"], "--jobs", fixture["jobs"]]
        expected = f"error: MalformedLine: {proc}: line 1: invalid JSON: starts with a byte order mark (U+FEFF)\n"
        assert run_cli(*argv) == (1, "", expected)

    def test_missing_flags(self, fixture):
        code, out, err = run_cli("attribute", "--power", fixture["power"])
        assert code == 2
        assert out == ""
        assert "--proc" in err and "--pidmap" in err and "--jobs" in err

    def test_bad_threads(self, fixture):
        code, _, err = run_cli(
            "attribute",
            "--power", fixture["power"],
            "--proc", fixture["proc"],
            "--pidmap", fixture["pidmap"],
            "--jobs", fixture["jobs"],
            "--threads", "0",
        )
        assert code == 2
        assert "--threads" in err


class TestDuplicateProcRecords:
    """Two records for one (node, ts, pid): the second used to win silently."""

    def two_jobs(self, tmp_path, proc):
        power = [json.dumps({"node": "n1", "src": "cpu0", "ts": t, "w": 100.0}) for t in (0.0, 2.0)]
        jobs = [
            json.dumps({"job": j, "user": "u", "node": "n1", "submit": 0.0, "start": 0.0, "end": 2.0, "status": "COMPLETED"})
            for j in (7, 8)
        ]
        return [
            "attribute",
            "--power", write_lines(tmp_path / "power.jsonl", power),
            "--proc", write_lines(tmp_path / "proc.jsonl", proc),
            "--pidmap", write_lines(tmp_path / "pidmap.jsonl", [json.dumps({"node": "n1", "ts": 0.0, "map": [[41, 7], [42, 8]]})]),
            "--jobs", write_lines(tmp_path / "jobs.jsonl", jobs),
        ]

    def proc(self, node, ts, pid, cpu_s):
        return json.dumps({"node": node, "ts": ts, "pid": pid, "cpu_s": cpu_s})

    def test_equal_work_splits_evenly(self, tmp_path):
        proc = [self.proc("n1", 0.0, 41, 0.0), self.proc("n1", 0.0, 42, 0.0),
                self.proc("n1", 1.0, 41, 1.0), self.proc("n1", 1.0, 42, 1.0)]
        code, out, _ = run_cli(*self.two_jobs(tmp_path, proc))
        assert code == 0
        (s,) = parse_slices(out.splitlines())
        assert (s.per_job[7].cpu_w, s.per_job[8].cpu_w) == (50.0, 50.0)

    def test_duplicate_record_is_rejected_with_file_and_line(self, tmp_path):
        # the second pid-42 record at ts 1.0 would turn the 50/50 split into 10/90
        proc = [self.proc("n1", 0.0, 41, 0.0), self.proc("n1", 0.0, 42, 0.0),
                self.proc("n1", 1.0, 41, 1.0), self.proc("n1", 1.0, 42, 1.0), self.proc("n1", 1.0, 42, 9.0)]
        argv = self.two_jobs(tmp_path, proc)
        code, out, err = run_cli(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: MalformedLine: ")
        assert f"{argv[argv.index('--proc') + 1]}: line 5: duplicate record for pid 42" in err
        for command in (["validate"], ["report", "status"], ["report", "gpu-hist"]):
            code, out, err = run_cli(*command, *argv[1:])
            assert (code, out) == (1, ""), command
            assert "line 5" in err


class TestCalibrate:
    def test_text_and_model_file(self, fixture, tmp_path):
        model_path = tmp_path / "model.jsonl"
        code, out, err = run_cli(
            "calibrate",
            "--power", fixture["power"],
            "--external", fixture["external"],
            "--model", str(model_path),
        )
        assert code == 0
        assert out.splitlines()[0].split() == ["node", "k", "mape_pct", "energy_err_pct", "n"]
        (model,) = parse_models(model_path.read_text(encoding="utf-8").splitlines())
        assert model.node_id == "n1"
        assert model.k == pytest.approx(1.0, rel=1e-12)
        assert model.mape_pct == pytest.approx(0.0, abs=1e-9)

    def test_json_format(self, fixture):
        code, out, _ = run_cli(
            "calibrate",
            "--power", fixture["power"],
            "--external", fixture["external"],
            "--format", "json",
        )
        assert code == 0
        (model,) = parse_models(out.splitlines())
        assert model.k == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_overlap(self, tmp_path):
        soft = write_lines(tmp_path / "s.jsonl", [json.dumps({"node": "n1", "src": "cpu0", "ts": float(t), "w": 100.0}) for t in range(5)])
        ext = write_lines(tmp_path / "e.jsonl", [json.dumps({"node": "n1", "src": "ext", "ts": float(t), "w": 100.0}) for t in range(100, 105)])
        code, out, err = run_cli("calibrate", "--power", soft, "--external", ext)
        assert code == 1
        assert out == ""
        assert "DegenerateInput" in err


def report_argv(fixture, what="status", *extra):
    return [
        "report", what,
        "--jobs", fixture["jobs"],
        "--power", fixture["power"],
        "--proc", fixture["proc"],
        "--pidmap", fixture["pidmap"],
        "--model", fixture["model"],
        *extra,
    ]


class TestReport:
    def test_status_shares(self, fixture):
        code, out, err = run_cli(*report_argv(fixture, "status", "--format", "csv"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "status,n_jobs,gpu_kwh,cpu_kwh,ext_kwh,ext_share_pct"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["COMPLETED", "FAILED", "CANCELLED", "TIMEOUT"]
        assert [r[1] for r in rows] == ["1", "1", "1", "1"]
        assert [r[5] for r in rows] == ["40", "13", "5", "41"]

    def test_user_report_sorts_by_consumption(self, fixture):
        code, out, _ = run_cli(*report_argv(fixture, "user", "--format", "csv"))
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["dave", "alice", "bob", "carol"]
        assert [r[5] for r in rows] == ["41", "40", "13", "5"]

    def test_staged_slices_equal_direct(self, fixture, tmp_path):
        code, slices_text, _ = run_cli(
            "attribute",
            "--power", fixture["power"],
            "--proc", fixture["proc"],
            "--pidmap", fixture["pidmap"],
            "--jobs", fixture["jobs"],
        )
        assert code == 0
        slices_path = tmp_path / "slices.jsonl"
        slices_path.write_text(slices_text, encoding="utf-8")
        _, direct, _ = run_cli(*report_argv(fixture, "status", "--format", "csv"))
        code, staged, _ = run_cli(
            "report", "status",
            "--jobs", fixture["jobs"],
            "--slices", str(slices_path),
            "--model", fixture["model"],
            "--format", "csv",
        )
        assert code == 0
        assert staged == direct

    def test_column_selection(self, fixture):
        code, out, _ = run_cli(*report_argv(fixture, "status", "--format", "csv", "--column", "cpu"))
        assert code == 0
        assert out.splitlines()[0].endswith("cpu_share_pct")
        code, _, err = run_cli(*report_argv(fixture, "status", "--column", "joules"))
        assert code == 2
        assert "--column" in err

    def test_without_model_ext_is_unscaled(self, fixture):
        code, out, err = run_cli(
            "report", "status",
            "--jobs", fixture["jobs"],
            "--power", fixture["power"],
            "--proc", fixture["proc"],
            "--pidmap", fixture["pidmap"],
            "--format", "csv",
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert all(r[4] == "0" for r in rows)  # no external column without calibration
        assert all(r[5] == "0" for r in rows)

    def test_model_for_missing_node_fails(self, fixture, tmp_path):
        # an uncovered node's ext energy would count as 0 and hand its share to the covered nodes
        other = write_lines(tmp_path / "other_model.jsonl", [json.dumps({"node": "zz", "k": 2.0, "mape_pct": 0.0, "n": 10})])
        argv = report_argv(fixture, "status", "--format", "csv")
        argv[argv.index("--model") + 1] = other
        assert run_cli(*argv) == (1, "", f"error: WattscopeError: {other}: no calibration model for node(s) 'n1'\n")

    def test_partial_model_error_names_every_uncovered_node(self, fixture, tmp_path):
        slices = write_lines(tmp_path / "three_nodes.jsonl", [
            json.dumps({"node": node, "t0": 0.0, "t1": 1.0, "jobs": {}, "unattr_cpu_w": 1.0, "unattr_gpu_w": 0.0})
            for node in ("n3", "n1", "n2")
        ])
        model = write_lines(tmp_path / "n2_model.jsonl", [json.dumps({"node": "n2", "k": 2.0, "mape_pct": 0.0, "n": 10})])
        for what in ("status", "user"):
            assert run_cli("report", what, "--jobs", fixture["jobs"], "--slices", slices, "--model", model) == (
                1, "", f"error: WattscopeError: {model}: no calibration model for node(s) 'n1', 'n3'\n"
            )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_energy_beyond_the_float_range_fails(self, fixture, tmp_path, fmt):
        # each watt value is finite, but their energy integral is not
        code, text, _ = run_cli("attribute", *report_argv(fixture)[2:10])
        assert code == 0
        slices = write_lines(tmp_path / "slices.jsonl", text.splitlines())
        huge_k = write_lines(tmp_path / "huge_k.jsonl", [json.dumps({"node": "n1", "k": 1e308, "mape_pct": 0.0, "n": 10})])
        argv = ["report", "status", "--jobs", fixture["jobs"], "--slices", slices, "--model", huge_k, "--format", fmt]
        assert run_cli(*argv) == (1, "", "error: WattscopeError: energy of job 1 is beyond the float range\n")

        with open(fixture["power"], encoding="utf-8") as fh:
            lines = [line.replace('"w": 1000.0', '"w": 1.5e308') for line in fh.read().splitlines()]
        huge_w = write_lines(tmp_path / "huge_w.jsonl", lines)
        argv = report_argv(fixture, "status", "--format", fmt)[:-2]
        argv[argv.index("--power") + 1] = huge_w
        assert run_cli(*argv) == (1, "", "error: WattscopeError: energy of job 1 is beyond the float range\n")

    @pytest.mark.parametrize("command", ["attribute", "report"])
    def test_node_power_beyond_the_float_range_fails(self, fixture, tmp_path, command):
        # each reading is finite, but the node's two cpu series sum to infinity
        with open(fixture["power"], encoding="utf-8") as fh:
            lines = [line.replace('"w": 1000.0', '"w": 1.5e308') for line in fh.read().splitlines()]
        power = write_lines(tmp_path / "huge_w.jsonl", lines + [line.replace('"cpu0"', '"cpu1"') for line in lines])
        argv = report_argv(fixture, "status")[:-2] if command == "report" else ["attribute", *report_argv(fixture)[2:10]]
        argv[argv.index("--power") + 1] = power
        expected = "error: WattscopeError: power on node n1 is beyond the float range in the slice at t0=0.0\n"
        assert run_cli(*argv) == (1, "", expected)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("joules, message", [
        ({101: 1e308, 104: 1e308}, "cpu energy of user 'alice' is beyond the float range"),
        ({101: 1e308, 102: 1e308}, "total cpu energy is too large to compute percentage shares"),
        ({101: 1e307}, "total cpu energy is too large to compute percentage shares"),  # 100 x the total, for the shares
    ], ids=["user", "total", "shares"])
    def test_group_energy_beyond_the_float_range_fails(self, tmp_path, fmt, joules, message):
        # each job's energy is finite; their sum per user, or over users, is not
        meta = [(101, "alice", "n1"), (102, "bob", "n1"), (103, "carol", "n2"), (104, "alice", "n2")]
        jobs = write_lines(tmp_path / "jobs.jsonl", [
            json.dumps({"job": j, "user": u, "node": n, "submit": 0.0, "start": 0.0, "end": 9.0, "status": "COMPLETED"})
            for j, u, n in meta
        ])
        slices = write_lines(tmp_path / "slices.jsonl", [
            json.dumps({"node": n, "t0": float(i), "t1": i + 1.0, "jobs": {str(j): {"cpu_w": joules[j], "gpu_w": 0.0}},
                        "unattr_cpu_w": 0.0, "unattr_gpu_w": 0.0})
            for i, (j, _, n) in enumerate(meta) if j in joules
        ])
        argv = ["report", "user", "--jobs", jobs, "--slices", slices, "--column", "cpu", "--format", fmt]
        assert run_cli(*argv) == (1, "", f"error: WattscopeError: {message}\n")

    def test_raw_trace_report_reads_the_jobs_file_once(self, fixture, monkeypatch):
        import wattscope.jobs as jobs  # each command imports its readers from their module when it runs

        calls = []
        parse_jobs = jobs.parse_jobs
        monkeypatch.setattr(jobs, "parse_jobs", lambda fh: calls.append(fh.name) or parse_jobs(fh))
        for what in ("status", "user"):
            calls.clear()
            code, _, _ = run_cli(*report_argv(fixture, what))
            assert code == 0
            assert calls == [fixture["jobs"]]

    def test_bytes_that_are_not_utf8_are_located(self, fixture, tmp_path):
        _, text, _ = run_cli("attribute", *(a for name in ("power", "proc", "pidmap", "jobs") for a in (f"--{name}", fixture[name])))
        slices = with_byte_ff(write_lines(tmp_path / "slices.jsonl", text.splitlines()), 5, tmp_path)
        code, out, err = run_cli("report", "status", "--jobs", fixture["jobs"], "--slices", slices)
        assert (code, out, err) == (1, "", f"error: MalformedLine: {slices}: line 5: not UTF-8 text\n")

    def test_duplicate_models_rejected(self, fixture, tmp_path):
        dup = write_lines(
            tmp_path / "dup.jsonl",
            [
                json.dumps({"node": "n1", "k": 1.0, "mape_pct": 0.0, "n": 10}),
                json.dumps({"node": "n1", "k": 2.0, "mape_pct": 0.0, "n": 10}),
            ],
        )
        code, out, err = run_cli(*report_argv(fixture, "status")[:-2], "--model", dup)
        assert code == 1
        assert out == ""

    def test_unknown_job_in_slices(self, fixture, tmp_path):
        slices = write_lines(
            tmp_path / "alien.jsonl",
            [json.dumps({"node": "n1", "t0": 0.0, "t1": 1.0, "jobs": {"99": {"cpu_w": 1.0, "gpu_w": 0.0}}, "unattr_cpu_w": 0.0, "unattr_gpu_w": 0.0})],
        )
        code, out, err = run_cli("report", "status", "--jobs", fixture["jobs"], "--slices", slices)
        assert code == 1
        assert out == ""
        assert "UnknownJob" in err

    def test_max_gap_flag(self, fixture, tmp_path):
        # one slice over the default gap limit: excluded unless the limit is raised
        slices = write_lines(
            tmp_path / "gappy.jsonl",
            [json.dumps({"node": "n1", "t0": 0.0, "t1": 100.0, "jobs": {"1": {"cpu_w": 36.0, "gpu_w": 0.0}}, "unattr_cpu_w": 0.0, "unattr_gpu_w": 0.0})],
        )
        _, out_default, _ = run_cli("report", "status", "--jobs", fixture["jobs"], "--slices", slices, "--format", "csv", "--column", "cpu")
        assert out_default.splitlines()[1].split(",")[3] == "0"
        _, out_wide, _ = run_cli("report", "status", "--jobs", fixture["jobs"], "--slices", slices, "--format", "csv", "--column", "cpu", "--max-gap-s", "200")
        assert out_wide.splitlines()[1].split(",")[3] == "0.001"


class TestGpuHist:
    def test_json_output(self, gpu_fixture):
        code, out, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--format", "json", "--bins", "4")
        assert code == 0
        obj = json.loads(out)
        assert obj["metric"] == "sm_pct"
        assert obj["counts"] == [1, 1, 0, 1]  # 10 | 30 | - | 90 ; pid 43 lacks sm
        assert obj["excluded"] == 1

    def test_mem_metric_needs_capacities(self, gpu_fixture):
        code, out, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--metric", "mem")
        assert code == 1
        assert "MissingCapacity" in err
        code, out, _ = run_cli(
            "report", "gpu-hist",
            "--proc", gpu_fixture["proc"],
            "--metric", "mem",
            "--capacities", gpu_fixture["capacities"],
            "--format", "json",
            "--bins", "4",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["metric"] == "mem_pct"
        assert obj["counts"] == [0, 2, 0, 0]  # both 4000/16000 = 25%
        assert obj["excluded"] == 2  # pid 42 and 43 lack mem

    def test_per_job_mean(self, gpu_fixture):
        code, out, _ = run_cli(
            "report", "gpu-hist",
            "--proc", gpu_fixture["proc"],
            "--pidmap", gpu_fixture["pidmap"],
            "--jobs", gpu_fixture["jobs"],
            "--per-job-mean",
            "--format", "json",
            "--bins", "4",
        )
        assert code == 0
        obj = json.loads(out)
        # job 7 samples 10, 30, 90 -> mean 43.33
        assert obj["counts"] == [0, 1, 0, 0]
        assert obj["n"] == 1

    def test_per_job_mean_requires_ownership_inputs(self, gpu_fixture):
        code, _, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--per-job-mean")
        assert code == 2
        assert "--pidmap" in err and "--jobs" in err

    def test_bad_bins_and_metric(self, gpu_fixture):
        code, _, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--bins", "0")
        assert code == 2
        assert "--bins" in err
        code, _, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--metric", "temp")
        assert code == 2
        assert "--metric" in err

    @pytest.mark.parametrize("keys", [("1", "01"), ("01", "1")])
    def test_non_canonical_gpu_key_is_rejected(self, gpu_fixture, tmp_path, keys):
        # "1" and "01" would both name gpu 1, and the later one would set its capacity
        caps = write_lines(tmp_path / "caps.json", ['{"n1": {"0": 16000.0, "%s": 4000.0, "%s": 16000.0}}' % keys])
        code, out, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--metric", "mem", "--capacities", caps)
        assert (code, out, err) == (1, "", f"error: WattscopeError: {caps}: invalid gpu index '01'\n")

    @pytest.mark.parametrize(
        "text, key",
        [('{"n1": {"0": 16000.0, "1": 16000.0}, "n1": {"0": 4000.0}}', "n1"),
         ('{"n1": {"0": 4000.0, "1": 16000.0, "0": 16000.0}}', "0")],
        ids=["node", "gpu"],
    )
    def test_repeated_key_is_rejected(self, gpu_fixture, tmp_path, text, key):
        # json.load keeps the last of two equal keys, which would drop the first capacity without a word
        caps = write_lines(tmp_path / "caps.json", [text])
        code, out, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--metric", "mem", "--capacities", caps)
        assert (code, out, err) == (1, "", f"error: WattscopeError: {caps}: repeated key {key!r}\n")

    @pytest.mark.parametrize("capacity", ["NaN", "Infinity", "1e999", "9" * 400], ids=["nan", "inf", "1e999", "int400"])
    def test_capacity_beyond_the_float_range_is_rejected(self, gpu_fixture, tmp_path, capacity):
        # NaN binned every sample of its GPU at 100 %, an infinity at 0 %, and a 400-digit integer overflowed
        caps = write_lines(tmp_path / "caps.json", ['{"n1": {"0": %s, "1": 16000.0}}' % capacity])
        code, out, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--metric", "mem", "--capacities", caps)
        assert (code, out, err) == (1, "", f"error: WattscopeError: {caps}: invalid capacity for (n1, 0)\n")

    def test_deeply_nested_capacities_are_rejected(self, gpu_fixture, tmp_path):
        caps = tmp_path / "caps.json"
        caps.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--metric", "mem", "--capacities", str(caps))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: WattscopeError: {caps}: invalid JSON: maximum recursion depth exceeded"), err

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_invalid_json_is_located_with_universal_newlines(self, gpu_fixture, tmp_path, newline):
        # json counts only "\n" as a line end; capacities are read as text mode reads, with each ending as "\n"
        caps = tmp_path / "caps.json"
        caps.write_bytes(newline.join(['{"n1": {', '"0": 16000.0,', ' "1": x}}']).encode())
        code, out, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--metric", "mem", "--capacities", str(caps))
        assert (code, out) == (1, "")
        assert err == f"error: WattscopeError: {caps}: invalid JSON: Expecting value: line 3 column 7 (char 29)\n"

    def test_capacities_that_are_not_utf8_are_located(self, gpu_fixture, tmp_path):
        caps = with_byte_ff(write_lines(tmp_path / "caps.json", ['{"n1": {', '"0": 16000.0}}']), 2, tmp_path)
        code, out, err = run_cli("report", "gpu-hist", "--proc", gpu_fixture["proc"], "--metric", "mem", "--capacities", caps)
        assert (code, out, err) == (1, "", f"error: MalformedLine: {caps}: line 2: not UTF-8 text\n")

    def test_malformed_capacities(self, gpu_fixture, tmp_path):
        bad = write_lines(tmp_path / "badcaps.json", [json.dumps({"n1": {"x": 16000.0}})])
        code, out, err = run_cli(
            "report", "gpu-hist",
            "--proc", gpu_fixture["proc"],
            "--metric", "mem",
            "--capacities", bad,
        )
        assert code == 1
        assert out == ""


class TestUsageAndEnv:
    def test_no_command(self):
        code, out, err = run_cli()
        assert code == 2
        assert "subcommand" in err

    def test_unknown_command(self):
        code, _, err = run_cli("frobnicate")
        assert code == 2

    def test_bad_format(self, fixture):
        code, _, err = run_cli(*report_argv(fixture, "status", "--format", "yaml"))
        assert code == 2
        assert "--format" in err

    def test_env_fallback_for_paths(self, fixture, monkeypatch):
        monkeypatch.setenv("WATTSCOPE_POWER", fixture["power"])
        monkeypatch.setenv("WATTSCOPE_JOBS", fixture["jobs"])
        code, out, _ = run_cli("validate")
        assert code == 0
        assert "power=570" in out and "jobs=4" in out

    def test_env_fallback_for_format(self, fixture, monkeypatch):
        monkeypatch.setenv("WATTSCOPE_FORMAT", "json")
        code, out, _ = run_cli(*report_argv(fixture, "status"))
        assert code == 0
        assert json.loads(out)["rows"][0]["status"] == "COMPLETED"

    def test_flag_beats_env(self, fixture, monkeypatch):
        monkeypatch.setenv("WATTSCOPE_FORMAT", "json")
        code, out, _ = run_cli(*report_argv(fixture, "status", "--format", "csv"))
        assert code == 0
        assert out.startswith("status,")

    def test_help_exits_zero(self):
        code, _, _ = run_cli("--help")
        assert code == 0


def complete_argv(fixture, command):
    """An argv for command that succeeds as it stands."""
    ownership = ["--proc", fixture["proc"], "--pidmap", fixture["pidmap"], "--jobs", fixture["jobs"]]
    return {
        "attribute": ["attribute", "--power", fixture["power"], *ownership],
        "calibrate": ["calibrate", "--power", fixture["power"], "--external", fixture["external"]],
        "report status": report_argv(fixture, "status"),
        "report gpu-hist": ["report", "gpu-hist", "--proc", fixture["proc"]],
    }[command]


BAD_OPTIONS = [
    ("report gpu-hist", "--bins", "0", "a positive integer"),
    ("report gpu-hist", "--bins", "abc", "a positive integer"),
    ("report status", "--bins", "-2", "a positive integer"),
    ("report status", "--max-gap-s", "nan", "a positive number"),
    ("attribute", "--threads", "0", "a positive integer"),
    ("report status", "--threads", "1.5", "a positive integer"),
    ("calibrate", "--format", "xml", "text, csv or json"),
    ("report status", "--format", "yaml", "text, csv or json"),
    ("report status", "--column", "joules", "one of ext/gpu/cpu"),
    ("report gpu-hist", "--metric", "temp", "sm or mem"),
]


class TestUsageErrorMessages:
    """The exact stderr line and exit code of every usage error."""

    @pytest.mark.parametrize("via", ["flag", "env"])
    @pytest.mark.parametrize("command, flag, value, expected", BAD_OPTIONS)
    def test_bad_option_value(self, fixture, monkeypatch, command, flag, value, expected, via):
        argv = complete_argv(fixture, command)
        if via == "flag":
            argv += [flag, value]
        else:
            monkeypatch.setenv("WATTSCOPE_" + flag[2:].upper().replace("-", "_"), value)
        assert run_cli(*argv) == (2, "", f"usage error: {flag} must be {expected}, got {value!r}\n")

    def test_bad_values_are_reported_in_argv_order_then_env(self, fixture, monkeypatch):
        argv = complete_argv(fixture, "report gpu-hist")
        monkeypatch.setenv("WATTSCOPE_COLUMN", "joules")
        code, _, err = run_cli(*argv, "--metric", "temp", "--bins", "0", "--format", "xml")
        assert (code, err) == (2, "usage error: --metric must be sm or mem, got 'temp'\n")
        code, _, err = run_cli(*argv, "--bins", "0", "--format", "xml")
        assert (code, err) == (2, "usage error: --bins must be a positive integer, got '0'\n")
        code, _, err = run_cli(*argv)
        assert (code, err) == (2, "usage error: --column must be one of ext/gpu/cpu, got 'joules'\n")

    @pytest.mark.parametrize("command, flag, value, expected", BAD_OPTIONS)
    def test_flag_overrides_a_bad_env_value(self, fixture, monkeypatch, command, flag, value, expected):
        monkeypatch.setenv("WATTSCOPE_" + flag[2:].upper().replace("-", "_"), value)
        good = {"--bins": "4", "--max-gap-s": "5", "--threads": "2", "--format": "csv", "--column": "cpu", "--metric": "sm"}
        code, out, err = run_cli(*complete_argv(fixture, command), flag, good[flag])
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("command, removed", [("calibrate", ["--affine"]), ("attribute", ["--max-gap-s", "5"])])
    def test_removed_flags_are_usage_errors(self, fixture, command, removed):
        argv = complete_argv(fixture, command) + removed
        assert run_cli(*argv) == (2, "", f"usage error: unrecognized arguments: {' '.join(removed)}\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["attribute", "--power", "p.jsonl"], "attribute requires --proc, --pidmap, --jobs"),
            (["calibrate", "--power", "p.jsonl"], "calibrate requires --external"),
            (["report", "status"], "report status requires --jobs"),
            (["report", "user", "--jobs", "@jobs"], "computing slices requires --power, --proc, --pidmap"),
            (["report", "gpu-hist"], "report gpu-hist requires --proc"),
            (["report", "gpu-hist", "--proc", "@proc", "--per-job-mean"], "--per-job-mean requires --pidmap, --jobs"),
            ([], "a subcommand is required"),
            (["validate"], "validate needs at least one input file"),
        ],
    )
    def test_missing_input(self, fixture, argv, message):
        argv = [fixture[a[1:]] if a.startswith("@") else a for a in argv]
        assert run_cli(*argv) == (2, "", f"usage error: {message}\n")


class TestModuleEntryPoint:
    def test_python_dash_m_matches_in_process(self, fixture):
        argv = report_argv(fixture, "status", "--format", "csv")
        _, expected, _ = run_cli(*argv)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "wattscope", *argv],
                capture_output=True, text=True, timeout=120,
            )
            for _ in range(2)
        ]
        for r in runs:
            assert r.returncode == 0
            assert r.stdout == expected
