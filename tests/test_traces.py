import json
import math
import random

import pytest
from hypothesis import given, strategies as st

from wattscope import (
    CpuTimeRegression,
    MalformedLine,
    NegativePower,
    NonMonotonicTimestamp,
    OutOfRangeUtilization,
    PowerSample,
    ProcSnapshot,
    Source,
    TraceError,
    canonical_ts,
    parse_power_trace,
    parse_proc_trace,
    parse_source,
)
from wattscope import traces
from wattscope.attribution import attribute_columns
from helpers import jsonl, lerp_series, ms, power_sample, proc_snap


def power_line(node="n1", src="cpu0", ts=1.0, w=100.0, **extra):
    return json.dumps({"node": node, "src": src, "ts": ts, "w": w, **extra})


def proc_line(node="n1", ts=1.0, pid=42, cpu_s=1.0, **extra):
    return json.dumps({"node": node, "ts": ts, "pid": pid, "cpu_s": cpu_s, **extra})


class TestParsePowerTrace:
    def test_basic_line(self):
        (s,) = parse_power_trace([power_line(ts=12.0, w=85.5)])
        assert s == PowerSample("n1", Source("cpu", 0), 12.0, 85.5)

    def test_file_order_preserved(self):
        lines = [power_line(ts=float(t), w=float(t)) for t in range(1, 6)]
        samples = parse_power_trace(lines)
        assert [s.ts for s in samples] == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_unknown_keys_ignored(self):
        (s,) = parse_power_trace([power_line(comment="hi", v=12)])
        assert s.power_w == 100.0

    def test_binary_file_parses_like_text(self, tmp_path):
        path = tmp_path / "power.jsonl"
        path.write_text("\n".join([power_line(ts=1.0), "", power_line(src="ext", ts=2.0)]) + "\n", encoding="utf-8")
        with open(path, "rb") as fh:
            from_bytes = parse_power_trace(fh)
        with open(path, encoding="utf-8") as fh:
            assert from_bytes == parse_power_trace(fh)
        with pytest.raises(MalformedLine) as exc:
            parse_power_trace([b'{"node":"n1"} x'])
        assert exc.value.line_no == 1

    def test_blank_lines_skipped(self):
        samples = parse_power_trace(["", power_line(), "   \n"])
        assert len(samples) == 1

    def test_monotonicity_planted_regression_at_line_5000(self):
        lines = [power_line(ts=float(t), w=50.0) for t in range(1, 10001)]
        lines[4999] = power_line(ts=4000.0, w=50.0)  # line 5000 jumps back
        with pytest.raises(NonMonotonicTimestamp) as exc:
            parse_power_trace(lines)
        assert exc.value.line_no == 5000

    def test_monotonicity_is_per_series(self):
        lines = [
            power_line(src="cpu0", ts=10.0),
            power_line(src="cpu1", ts=5.0),
            power_line(node="n2", src="cpu0", ts=1.0),
            power_line(src="cpu0", ts=10.5),
        ]
        assert len(parse_power_trace(lines)) == 4

    def test_equal_timestamp_rejected(self):
        with pytest.raises(NonMonotonicTimestamp) as exc:
            parse_power_trace([power_line(ts=1.0), power_line(ts=1.0)])
        assert exc.value.line_no == 2

    def test_negative_power_located(self):
        with pytest.raises(NegativePower) as exc:
            parse_power_trace([power_line(), power_line(ts=2.0, w=-0.1)])
        assert exc.value.line_no == 2

    def test_zero_power_allowed(self):
        (s,) = parse_power_trace([power_line(w=0.0)])
        assert s.power_w == 0.0

    def test_malformed_json_located(self):
        with pytest.raises(MalformedLine) as exc:
            parse_power_trace([power_line(), "{not json"])
        assert exc.value.line_no == 2

    def test_non_object_rejected(self):
        with pytest.raises(MalformedLine):
            parse_power_trace(["[1,2,3]"])

    def test_missing_key_rejected(self):
        with pytest.raises(MalformedLine):
            parse_power_trace([json.dumps({"node": "n1", "src": "cpu0", "ts": 1.0})])

    def test_nan_and_infinity_rejected(self):
        with pytest.raises(MalformedLine):
            parse_power_trace(['{"node":"n1","src":"cpu0","ts":1.0,"w":NaN}'])
        with pytest.raises(MalformedLine):
            parse_power_trace(['{"node":"n1","src":"cpu0","ts":Infinity,"w":1.0}'])
        with pytest.raises(MalformedLine):
            parse_power_trace([power_line(w=1e999)])

    def test_bool_not_accepted_as_number(self):
        with pytest.raises(MalformedLine):
            parse_power_trace([power_line(w=True)])

    def test_bad_source_tag(self):
        for src in ("cpu", "gpu", "ext0", "CPU0", "cpu-1", "mem0", ""):
            with pytest.raises(MalformedLine):
                parse_power_trace([power_line(src=src)])

    def test_expected_kind_enforced(self):
        lines = [power_line(src="ext")]
        assert parse_power_trace(lines, "ext")[0].source.kind == "ext"
        with pytest.raises(MalformedLine):
            parse_power_trace([power_line(src="cpu0")], "ext")

    def test_timestamps_canonicalized_to_milliseconds(self):
        (s,) = parse_power_trace([power_line(ts=1.0004999)])
        assert s.ts == 1.0
        (s,) = parse_power_trace([power_line(ts=1.0006)])
        assert s.ts == 1.001


class TestParseSource:
    def test_variants(self):
        assert parse_source("cpu0") == Source("cpu", 0)
        assert parse_source("gpu12") == Source("gpu", 12)
        assert parse_source("ext") == Source("ext", None)

    def test_str_roundtrip(self):
        for tag in ("cpu0", "cpu1", "gpu3", "ext"):
            assert str(parse_source(tag)) == tag

    def test_invalid(self):
        for tag in ("cpu", "gpux", "ext1", "x"):
            with pytest.raises(ValueError):
                parse_source(tag)

    def test_built_sources_are_checked(self):
        for kind, index in (("disk", 0), ("ext", 0), ("cpu", None), ("gpu", -1)):
            with pytest.raises(ValueError):
                Source(kind, index)
        assert Source("gpu", 2) == ("gpu", 2)  # a record is a tuple of its fields


class TestParseProcTrace:
    def test_basic_line(self):
        (p,) = parse_proc_trace([proc_line(ts=12.0, pid=4242, cpu_s=10.5, gpu=0, sm_pct=55.0, mem_mib=800.0)])
        assert p == ProcSnapshot("n1", 12.0, 4242, 10.5, 0, 55.0, 800.0)

    def test_gpu_fields_optional_absent_is_none_not_zero(self):
        (p,) = parse_proc_trace([proc_line()])
        assert p.gpu_index is None and p.gpu_sm_pct is None and p.gpu_mem_mib is None
        (p,) = parse_proc_trace([proc_line(gpu=1)])
        assert p.gpu_index == 1 and p.gpu_sm_pct is None

    def test_cpu_time_regression_carries_pid_and_line(self):
        lines = [
            proc_line(ts=1.0, pid=42, cpu_s=5.0),
            proc_line(ts=2.0, pid=42, cpu_s=4.0),
        ]
        with pytest.raises(CpuTimeRegression) as exc:
            parse_proc_trace(lines)
        assert exc.value.pid == 42
        assert exc.value.line_no == 2

    def test_cpu_time_tracked_per_node_and_pid(self):
        lines = [
            proc_line(ts=1.0, pid=42, cpu_s=5.0),
            proc_line(node="n2", ts=2.0, pid=42, cpu_s=1.0),
            proc_line(ts=2.0, pid=43, cpu_s=0.0),
            proc_line(ts=3.0, pid=42, cpu_s=5.0),
        ]
        assert len(parse_proc_trace(lines)) == 4

    def test_sm_pct_bounds(self):
        with pytest.raises(OutOfRangeUtilization) as exc:
            parse_proc_trace([proc_line(gpu=0, sm_pct=100.5)])
        assert exc.value.line_no == 1
        with pytest.raises(OutOfRangeUtilization):
            parse_proc_trace([proc_line(gpu=0, sm_pct=-0.1)])
        assert parse_proc_trace([proc_line(gpu=0, sm_pct=100.0)])[0].gpu_sm_pct == 100.0

    def test_negative_mem_rejected(self):
        with pytest.raises(OutOfRangeUtilization):
            parse_proc_trace([proc_line(gpu=0, mem_mib=-1.0)])

    def test_utilization_without_gpu_index_rejected(self):
        with pytest.raises(MalformedLine):
            parse_proc_trace([proc_line(sm_pct=10.0)])
        with pytest.raises(MalformedLine):
            parse_proc_trace([proc_line(mem_mib=10.0)])

    def test_invalid_pid(self):
        with pytest.raises(MalformedLine):
            parse_proc_trace([proc_line(pid=0)])
        with pytest.raises(MalformedLine):
            parse_proc_trace([proc_line(pid=1.5)])

    def test_timestamps_canonicalized_per_record(self):
        # records at one instant may share its rounding, but zero keeps each record's sign
        lines = [proc_line(ts=0.0, pid=41), proc_line(ts=-0.0, pid=42), proc_line(ts=1.0004, pid=41), proc_line(ts=1, pid=42)]
        snaps = parse_proc_trace(lines)
        assert [math.copysign(1.0, s.ts) for s in snaps[:2]] == [1.0, -1.0]
        assert [s.ts for s in snaps[2:]] == [1.0, 1.0]

    def test_negative_cpu_time_rejected(self):
        with pytest.raises(MalformedLine):
            parse_proc_trace([proc_line(cpu_s=-0.5)])


class TestRoundTrip:
    def test_power_lines_bit_exact(self):
        samples = [
            power_sample("n1", "cpu0", 1.001, 85.5),
            power_sample("n1", "gpu1", 1.5, 0.0),
            power_sample("n2", "ext", 172800.25, 1234.567),
        ]
        text = jsonl(samples)
        assert parse_power_trace(text.splitlines()) == samples
        assert jsonl(parse_power_trace(text.splitlines())) == text

    def test_proc_lines_bit_exact(self):
        snaps = [
            proc_snap("n1", 1.0, 42, 0.25),
            proc_snap("n1", 2.0, 42, 0.5, gpu=0),
            proc_snap("n1", 2.0, 43, 9.125, gpu=1, sm=55.5, mem=801.0),
        ]
        text = jsonl(snaps)
        assert parse_proc_trace(text.splitlines()) == snaps

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10_000_000),  # ms ticks
                st.floats(0.0, 5000.0, allow_nan=False, width=32),
            ),
            min_size=1,
            max_size=50,
            unique_by=lambda t: t[0],
        )
    )
    def test_power_roundtrip_property(self, points):
        points.sort()
        samples = [power_sample("n1", "cpu0", t / 1000.0, w) for t, w in points]
        assert parse_power_trace(jsonl(samples).splitlines()) == samples

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10_000_000),
                st.floats(0.0, 1e6, allow_nan=False),
                st.none() | st.floats(0.0, 100.0, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
            unique_by=lambda t: t[0],
        )
    )
    def test_proc_roundtrip_property(self, points):
        points.sort()
        cpu = 0.0
        snaps = []
        for t, inc, sm in points:
            cpu += inc
            snaps.append(proc_snap("n1", t / 1000.0, 42, cpu, gpu=0 if sm is not None else None, sm=sm))
        assert parse_proc_trace(jsonl(snaps).splitlines()) == snaps

    def test_canonical_ts_idempotent(self):
        for x in (0.0015, 1.0004999, 123.4565, 2.0005):
            assert canonical_ts(canonical_ts(x)) == canonical_ts(x)


class TestParserTotality:
    @given(st.text(max_size=200))
    def test_any_line_parses_or_raises_located_error(self, text):
        for parser in (parse_power_trace, parse_proc_trace):
            try:
                parser([text])
            except TraceError as exc:
                assert exc.line_no == 1

    @given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=200))
    def test_text_and_its_utf8_bytes_parse_alike(self, text):
        def outcome(line):
            try:
                return parse_power_trace([line])
            except TraceError as exc:
                return str(exc)

        assert outcome(text) == outcome(text.encode())


class TestLineDecoding:
    """A line is one JSON object between JSON whitespace, whether it is text or UTF-8 bytes."""

    @pytest.mark.parametrize("as_bytes", [False, True])
    def test_json_whitespace_around_a_record_is_ignored(self, as_bytes):
        line = " \t" + power_line() + " \t\r\n"
        (s,) = parse_power_trace([line.encode() if as_bytes else line])
        assert s.power_w == 100.0

    @pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
    @pytest.mark.parametrize("as_bytes", [False, True])
    @pytest.mark.parametrize("leading", [False, True])
    def test_other_whitespace_around_a_record_is_not_json(self, space, as_bytes, leading):
        with pytest.raises(json.JSONDecodeError):
            json.loads(space + "{}" if leading else "{}" + space)
        line = space + power_line() if leading else power_line() + space + "\n"
        with pytest.raises(MalformedLine) as exc:
            parse_power_trace([power_line(ts=0.5), line.encode() if as_bytes else line])
        assert str(exc.value) == "line 2: invalid JSON"

    @pytest.mark.parametrize("as_bytes", [False, True])
    @pytest.mark.parametrize("line_no", [1, 2])
    def test_a_byte_order_mark_is_named(self, as_bytes, line_no):
        lines = [power_line(ts=0.5), power_line()][2 - line_no:]
        lines[-1] = "\ufeff" + lines[-1]
        with pytest.raises(MalformedLine) as exc:
            parse_power_trace([line.encode() if as_bytes else line for line in lines])
        assert str(exc.value) == f"line {line_no}: invalid JSON: starts with a byte order mark (U+FEFF)"

    def test_bytes_that_are_not_utf8_are_located(self):
        lines = [power_line(ts=0.5).encode(), b"\n", b'{"node":"n\xff1","src":"cpu0","ts":1.0,"w":1.0}\n']
        with pytest.raises(MalformedLine) as exc:
            parse_power_trace(lines)
        assert str(exc.value) == "line 3: not UTF-8 text"


def covered_watts(points: list[tuple[float, float]], mids: list[float]) -> list[float]:
    """The cpu watts attribute_columns takes from a series of (ts, w) points at each midpoint; 0.0 where it misses it.

    Midpoint t is the one slice of a node of its own, with ticks at t - 0.5
    and t + 0.5 and the series as its cpu0.  The node's one pid has no
    delta, so every watt of the slice is unattributed.
    """
    power, procs = [], []
    for i, t in enumerate(mids):
        node = f"n{i:04d}"  # nodes in the order of mids, as attribute_columns orders them
        power += [power_sample(node, "cpu0", ts, w) for ts, w in points]
        procs += [proc_snap(node, t - 0.5, 1, 0.0), proc_snap(node, t + 0.5, 1, 0.0)]
    cols = attribute_columns(traces.read_power_trace(jsonl(power).splitlines()),
                             traces.read_proc_trace(jsonl(procs).splitlines()), {})
    assert len(cols) == len(mids)
    return cols.unattr_cpu.tolist()


class TestResample:
    """Interpolation as calibrate and the split run it (traces._interp), and which midpoints a series covers."""

    def test_midpoint(self):
        assert traces._interp([5.0], [0.0, 10.0], [100.0, 200.0]) == [150.0]

    def test_identity_at_sample_points(self):
        ts = [float(t) for t in range(5)]
        w = [10.0 * t for t in ts]
        assert traces._interp(ts, ts, w) == w

    def test_outside_span_is_missing(self):
        assert covered_watts([(0.0, 100.0), (10.0, 200.0)], [-0.001, 0.0, 10.0, 10.001]) == [0.0, 100.0, 200.0, 0.0]

    def test_single_sample_series(self):
        assert covered_watts([(5.0, 100.0)], [4.999, 5.0, 5.001]) == [0.0, 100.0, 0.0]

    def test_unsorted_series_rejected(self):
        # a series is sorted when read; out of order, it is an error at its line
        with pytest.raises(NonMonotonicTimestamp) as exc:
            traces.read_power_trace([power_line(ts=10.0, w=1.0), power_line(ts=0.0, w=2.0)])
        assert exc.value.line_no == 2

    def test_against_millisecond_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 40)
            ts = sorted(rng.sample(range(0, 200_000), n))
            points = [(t / 1000.0, rng.uniform(0, 500)) for t in ts]
            grid = [t / 1000.0 for t in rng.sample(range(-1000, 201_000), 200)]
            got = covered_watts(points, grid)
            want = [lerp_series(points, t) for t in grid]
            for g, w in zip(got, want):
                if w is None:
                    assert g == 0.0
                else:
                    assert g == pytest.approx(w, rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.integers(0, 100_000), min_size=2, max_size=20, unique=True),
        st.floats(0.0, 2.0, allow_nan=False),
        st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_linearity(self, ticks, a, b):
        ticks.sort()
        rng = random.Random(ticks[0] + len(ticks))
        p = [rng.uniform(0, 300) for _ in ticks]
        q = [rng.uniform(0, 300) for _ in ticks]
        ts = [t / 1000.0 for t in ticks]
        grid = [t / 1000.0 for t in range(ticks[0], ticks[-1], max(1, (ticks[-1] - ticks[0]) // 50))]
        combo = traces._interp(grid, ts, [a * x + b * y for x, y in zip(p, q)])
        left = traces._interp(grid, ts, p)
        right = traces._interp(grid, ts, q)
        for c, x, y in zip(combo, left, right):
            want = a * x + b * y
            assert c == pytest.approx(want, rel=1e-9, abs=1e-9)

    @given(
        st.lists(st.integers(0, 20_000), min_size=1, max_size=40, unique=True),
        st.lists(st.floats(0.0, 1e4), min_size=40, max_size=40),
        st.lists(st.integers(-1_000, 21_000), max_size=60),
    )
    def test_matches_np_interp_bit_for_bit_where_covered(self, ticks, watts, grid_ms):
        import numpy as np

        ticks.sort()
        ts, w = [t / 1000.0 for t in ticks], watts[:len(ticks)]
        grid = [t / 1000.0 for t in grid_ms + ticks]  # the samples themselves, first and last included
        covered = [t for t in grid if ts[0] <= t <= ts[-1]]
        want = np.interp(covered, ts, w).tolist()
        assert [x.hex() for x in traces._interp(covered, ts, w)] == [x.hex() for x in want]

    @given(
        st.lists(st.integers(-20_000, 20_000), min_size=1, max_size=40, unique=True),
        st.lists(st.just(-0.0) | st.floats(0.0, 1e4), min_size=40, max_size=40),
        st.lists(st.integers(-25_000, 25_000), max_size=60),
        st.booleans(),
    )
    def test_matches_np_interp_bit_for_bit(self, ticks, watts, grid_ms, ascending):
        # numpy is only the oracle here; the grid runs before the first sample and after the last, hits every
        # sample, holds -0.0 and 0.0, and is walked in ascending order or searched out of order
        import numpy as np

        ticks.sort()
        ts, w = [t / 1000.0 for t in ticks], watts[:len(ticks)]
        grid = [t / 1000.0 for t in grid_ms + ticks] + [-0.0, 0.0]
        if ascending:
            grid.sort()
        want = np.interp(grid, ts, w).tolist()
        assert [x.hex() for x in traces._interp(grid, ts, w)] == [x.hex() for x in want]

    def test_a_segment_wider_than_the_float_range_interpolates_as_np_interp(self):
        # ts[1] - ts[0] overflows, so the slope is 0.0; where x - ts[0] overflows too, 0.0 * inf is NaN, and
        # np.interp then works from ts[1]
        import numpy as np

        ts, w, grid = [-1e308, 1.5e308], [5.0, 7.0], [-1e308, 0.0, 1e308, 1.5e308]
        got = traces._interp(grid, ts, w)
        assert [x.hex() for x in got] == [x.hex() for x in np.interp(grid, ts, w).tolist()]
        assert got == [5.0, 5.0, 7.0, 7.0]


class TestDuplicateProcRecords:
    def test_second_record_for_node_ts_pid_is_located(self):
        lines = [proc_line(ts=1.0, pid=41), proc_line(ts=1.0, pid=42), proc_line(ts=1.0, pid=42, cpu_s=9.0)]
        with pytest.raises(MalformedLine) as exc:
            parse_proc_trace(lines)
        assert exc.value.line_no == 3
        assert "duplicate record for pid 42" in str(exc.value)

    def test_non_adjacent_duplicate_is_caught(self):
        lines = [
            proc_line(ts=1.0, pid=42, cpu_s=1.0),
            proc_line(ts=2.0, pid=42, cpu_s=2.0),
            proc_line(ts=1.0, pid=43, cpu_s=0.0),
            proc_line(ts=1.0, pid=42, cpu_s=3.0),
        ]
        with pytest.raises(MalformedLine) as exc:
            parse_proc_trace(lines)
        assert exc.value.line_no == 4

    def test_duplicate_found_after_canonicalization(self):
        with pytest.raises(MalformedLine) as exc:
            parse_proc_trace([proc_line(ts=1.0), proc_line(ts=1.0001)])
        assert exc.value.line_no == 2

    def test_same_pid_and_ts_on_other_node_is_not_a_duplicate(self):
        lines = [proc_line(ts=1.0, pid=42), proc_line(node="n2", ts=1.0, pid=42), proc_line(ts=2.0, pid=42)]
        assert len(parse_proc_trace(lines)) == 3


def _power_oracle(obj, line_no, expected_kind=None):
    """The documented field order, checked with the _field_* helpers only."""
    node = traces._field_str(obj, "node", line_no)
    src = obj.get("src")
    if not isinstance(src, str):
        raise MalformedLine(line_no, "missing or invalid 'src'")
    try:
        source = parse_source(src)
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from None
    if expected_kind is not None and source.kind != expected_kind:
        raise MalformedLine(line_no, f"expected a {expected_kind!r} source, got {src!r}")
    ts = canonical_ts(traces._field_num(obj, "ts", line_no))
    w = traces._field_num(obj, "w", line_no)
    if w < 0:
        raise NegativePower(line_no)
    return PowerSample(node, source, ts, w)


def _proc_oracle(obj, line_no):
    node = traces._field_str(obj, "node", line_no)
    ts = canonical_ts(traces._field_num(obj, "ts", line_no))
    pid = traces._field_int(obj, "pid", line_no, minimum=1)
    cpu_s = traces._field_num(obj, "cpu_s", line_no)
    if cpu_s < 0:
        raise MalformedLine(line_no, "negative cumulative cpu time")
    gpu = traces._field_int(obj, "gpu", line_no, minimum=0, required=False)
    sm = traces._field_num(obj, "sm_pct", line_no, required=False)
    mem = traces._field_num(obj, "mem_mib", line_no, required=False)
    if gpu is None and (sm is not None or mem is not None):
        raise MalformedLine(line_no, "gpu utilization without a gpu index")
    if sm is not None and not 0.0 <= sm <= 100.0:
        raise OutOfRangeUtilization(line_no, f"sm_pct {sm} outside [0, 100]")
    if mem is not None and mem < 0:
        raise OutOfRangeUtilization(line_no, f"negative mem_mib {mem}")
    return ProcSnapshot(node, ts, pid, cpu_s, gpu, sm, mem)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except TraceError as exc:
        return (type(exc), exc.line_no, str(exc))


# JSON text substituted for a field: each kind of bad value, plus valid edge values
_VALUES = {
    "bool": "true",
    "string": '"1"',
    "empty string": '""',
    "1e999": "1e999",
    "huge int": "1" + "0" * 400,
    "negative": "-1",
    "negative zero": "-0.0",
    "zero": "0",
    "int": "7",
    "float": "55.5",
    "above 100": "100.5",
    "null": "null",
    "missing": None,
}
_BASE_POWER = {"node": "n1", "src": "gpu0", "ts": 2.0, "w": 50.0}
_BASE_PROC = {"node": "n1", "ts": 2.0, "pid": 42, "cpu_s": 3.0, "gpu": 0, "sm_pct": 50.0, "mem_mib": 10.0}


def _with_value(base, key, text):
    obj = dict(base)
    if text is None:
        del obj[key]
        return json.dumps(obj)
    obj[key] = "@"
    return json.dumps(obj).replace('"@"', text)


class TestOnePassParsersMatchFieldHelpers:
    """Every record gets the outcome of the field-by-field checks: the same
    values, or the same exception class, line number and message."""

    @pytest.mark.parametrize("value", sorted(_VALUES))
    @pytest.mark.parametrize("key", ["node", "src", "ts", "w"])
    @pytest.mark.parametrize("warm", [False, True], ids=["first-line", "after-valid-line"])
    def test_power(self, key, value, warm):
        line = _with_value(_BASE_POWER, key, _VALUES[value])
        # the warm variant has already parsed "gpu0" on another node
        lines = [power_line(node="n0", src="gpu0", ts=9.0)] if warm else []
        expected = _outcome(_power_oracle, json.loads(line), len(lines) + 1)
        got = _outcome(lambda: parse_power_trace(lines + [line])[-1])
        assert got == expected

    @pytest.mark.parametrize("value", sorted(_VALUES))
    @pytest.mark.parametrize("key", ["node", "ts", "pid", "cpu_s", "gpu", "sm_pct", "mem_mib"])
    def test_proc(self, key, value):
        line = _with_value(_BASE_PROC, key, _VALUES[value])
        lines = [proc_line(ts=9.0, pid=41)]
        expected = _outcome(_proc_oracle, json.loads(line), 2)
        got = _outcome(lambda: parse_proc_trace(lines + [line])[-1])
        assert got == expected

    @pytest.mark.parametrize("kind", [None, "gpu", "ext"])
    @pytest.mark.parametrize("tag", ["cpu0", "cpu00", "gpu12", "ext", "gpu", "cpu-1", "cpu\u00b2", "EXT", ""])
    def test_source_tags_and_expected_kind(self, tag, kind):
        lines = [power_line(node="n1", src=tag), power_line(node="n2", src=tag)]
        first, second = (_outcome(_power_oracle, json.loads(l), i, kind) for i, l in enumerate(lines, 1))
        got = _outcome(parse_power_trace, lines, kind)
        assert got == (("ok", [first[1], second[1]]) if first[0] == "ok" else first)

    def test_non_canonical_tags_are_rejected(self):
        # each tag once joined the series of its canonical spelling
        for tag in ("cpu\u0663", "gpu\uff11", "cpu03", "cpu00"):
            with pytest.raises(MalformedLine) as exc:
                parse_power_trace([power_line(src="cpu0", ts=1.0), power_line(src=tag, ts=2.0)])
            assert str(exc.value) == f"line 2: invalid source tag {tag!r}"
            assert exc.value.line_no == 2
