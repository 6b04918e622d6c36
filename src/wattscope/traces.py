"""Telemetry trace parsing and time alignment.

Two JSON-lines wire formats are understood, one object per line, UTF-8,
LF terminated, unknown keys ignored:

  power  {"node":"n1","src":"cpu0","ts":12.0,"w":85.5}
  proc   {"node":"n1","ts":12.0,"pid":4242,"cpu_s":10.5,
          "gpu":0,"sm_pct":55.0,"mem_mib":800.0}

``src`` is ``"cpu"<socket>``, ``"gpu"<index>`` or ``"ext"`` (external
wattmeter).  Timestamps are decimal seconds and are canonicalized to
millisecond precision on parse.  The ``gpu``/``sm_pct``/``mem_mib`` keys
are optional; an absent reading means "not observed", never zero.

read_power_trace and read_proc_trace check each record into stdlib
``array`` columns, building no object per record; parse_power_trace and
parse_proc_trace build the record objects from those columns.
PowerColumns.of and ProcColumns.of put built records through the same
checks, each record's 1-based position standing for its line.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CpuTimeRegression, MalformedLine, NegativePower, NonMonotonicTimestamp, OutOfRangeUtilization

# canonical timestamp precision: milliseconds
TS_DECIMALS = 3

CPU = "cpu"
GPU = "gpu"
EXT = "ext"

# report options, defined here so that the CLI can build its parser without loading analytics
SHARE_COLUMNS = ("ext", "gpu", "cpu")
SM_PCT = "sm_pct"
MEM_PCT = "mem_pct"
DEFAULT_BINS = 20

# energy accumulates in joules and is reported in kWh; defined here, which both attribution and analytics load
J_PER_KWH = 3.6e6


# tables for calibrate and the reports, here so that calibrate need not load analytics
def _render_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(cell) for cell in col) for col in zip(header, *rows)] if rows else [len(h) for h in header]
    lines = []
    for cells in [header] + rows:
        padded = [cells[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        lines.append("  ".join(padded).rstrip())
    return "\n".join(lines) + "\n"


def _render_csv(header: list[str], rows: Iterable[list[str]]) -> str:
    import csv  # only csv output needs it
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render(fmt: str, header: list[str], rows: Iterable[list[str]], json_text: str, tail: str = "") -> str:
    """One table as "text" (followed by tail), "csv" or "json" (json_text); rows are read for text and csv only."""
    if fmt == "json":
        return json_text
    if fmt == "csv":
        return _render_csv(header, rows)
    if fmt == "text":
        return _render_table(header, list(rows)) + tail
    raise ValueError(f"unknown format {fmt!r}")


def canonical_ts(value: float) -> float:
    """Quantize a timestamp to the canonical millisecond grid."""
    return round(float(value), TS_DECIMALS)


class _SourceFields(NamedTuple):
    kind: str  # "cpu" | "gpu" | "ext"
    index: int | None = None  # socket or gpu index; None for "ext"; shadows tuple.index


class Source(_SourceFields):
    """A power source on a node: a CPU package, a GPU, or an external meter."""

    __slots__ = ()

    def __new__(cls, kind: str, index: int | None = None):
        if kind not in (CPU, GPU, EXT):
            raise ValueError(f"unknown source kind {kind!r}")
        if kind == EXT and index is not None:
            raise ValueError("external sources carry no index")
        if kind != EXT and (index is None or index < 0):
            raise ValueError(f"{kind} sources need a non-negative index")
        return super().__new__(cls, kind, index)

    def __str__(self) -> str:
        return self.kind if self.index is None else f"{self.kind}{self.index}"


def parse_source(text: str) -> Source:
    """Parse a wire-format source tag such as "cpu0", "gpu3" or "ext".

    The index is ASCII decimal without leading zeros, so an accepted tag is
    its own canonical form: no two spellings name one series.
    """
    if text == EXT:
        return Source(EXT)
    for kind in (CPU, GPU):
        if text.startswith(kind):
            digits = text[len(kind):]
            if digits.isascii() and digits.isdigit() and (digits == "0" or digits[0] != "0"):
                return Source(kind, int(digits))
    raise ValueError(f"invalid source tag {text!r}")


class PowerSample(NamedTuple):
    node_id: str
    source: Source
    ts: float
    power_w: float


class ProcSnapshot(NamedTuple):
    """One process observation: cumulative CPU time plus optional GPU usage."""

    node_id: str
    ts: float
    pid: int
    cpu_time_s: float
    gpu_index: int | None = None
    gpu_sm_pct: float | None = None
    gpu_mem_mib: float | None = None


class TraceBundle(NamedTuple):
    """Power samples and process snapshots replayed together."""

    power: tuple[PowerSample, ...]
    procs: tuple[ProcSnapshot, ...]

    @classmethod
    def build(cls, power: Sequence[PowerSample], procs: Sequence[ProcSnapshot]) -> "TraceBundle":
        return cls(tuple(power), tuple(procs))


class PowerColumns:
    """Power samples as columns: series k is keys[k] = (node, canonical tag),
    from sources[k], with samples ts[k] and w[k]; rows holds each record's
    series number, in file order."""

    __slots__ = ("keys", "sources", "ts", "w", "rows")

    def __init__(self):
        self.keys, self.sources, self.ts, self.w = [], [], [], []
        self.rows = array("i")

    def __len__(self) -> int:
        return len(self.rows)

    def _new_series(self, number: dict, node: str, tag: str, source: Source) -> int:
        number[(node, tag)] = len(self.keys)
        self.keys.append((node, tag))
        self.sources.append(source)
        self.ts.append(array("d"))
        self.w.append(array("d"))
        return len(self.keys) - 1

    @classmethod
    def of(cls, samples: Iterable[PowerSample]) -> "PowerColumns":
        """Columns of built samples, checked as read_power_trace checks lines, sample i (from 1) standing for line i."""
        records = ({"node": s.node_id, "src": str(s.source), "ts": s.ts, "w": s.power_w} for s in samples)
        return _power(enumerate(records, 1))

    def samples(self) -> list[PowerSample]:
        at = [iter(zip(ts, w)) for ts, w in zip(self.ts, self.w)]
        return [PowerSample(self.keys[k][0], self.sources[k], *next(at[k])) for k in self.rows]


class ProcColumns:
    """Process snapshots as columns, one entry per record, in file order.

    Record i is process proc[i], a (node, pid) pair numbered on first sight,
    on node nodes[node_of[proc[i]]] with pid pids[proc[i]]; gpu[i] indexes
    gpus or is -1, and sm and mem are NaN where absent."""

    __slots__ = ("nodes", "node_of", "pids", "gpus", "proc", "ts", "cpu", "gpu", "sm", "mem", "_node_no")

    def __init__(self):
        self.nodes, self.node_of, self.pids, self.gpus = [], [], [], []
        self._node_no: dict[str, int] = {}  # node -> its index in nodes
        self.proc, self.gpu = array("i"), array("i")
        self.ts, self.cpu, self.sm, self.mem = array("d"), array("d"), array("d"), array("d")

    def __len__(self) -> int:
        return len(self.proc)

    def _new_proc(self, node: str, pid: int) -> int:
        n = self._node_no.get(node)
        if n is None:
            n = self._node_no[node] = len(self.nodes)
            self.nodes.append(node)
        self.node_of.append(n)
        self.pids.append(pid)
        return len(self.pids) - 1

    @classmethod
    def of(cls, snaps: Iterable[ProcSnapshot]) -> "ProcColumns":
        """Columns of built snapshots, checked as read_proc_trace checks lines, snapshot i (from 1) standing for line i."""
        keys = ("node", "ts", "pid", "cpu_s", "gpu", "sm_pct", "mem_mib")  # the wire keys of the fields, in order
        return _procs(enumerate((dict(zip(keys, s)) for s in snaps), 1))

    def snapshots(self) -> list[ProcSnapshot]:
        node = [self.nodes[n] for n in self.node_of]
        return [
            ProcSnapshot(node[p], ts, self.pids[p], cpu, None if g < 0 else self.gpus[g],
                         None if sm != sm else sm, None if mem != mem else mem)
            for p, ts, cpu, g, sm, mem in zip(self.proc, self.ts, self.cpu, self.gpu, self.sm, self.mem)
        ]


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token!r}")


# One decoder serves every line; json.loads(..., parse_constant=...) would
# build a new one per call.  iter_records strips each line of JSON's own
# whitespace first, so raw_decode plus a check that the object ends the line
# accepts exactly what decode() accepts, without its two whitespace scans.
_raw_decode = json.JSONDecoder(parse_constant=_reject_constant).raw_decode


def _invalid_json(text: str) -> str:
    """The error for a line that is not JSON; it names a leading byte order mark, which no JSON text starts with."""
    return "invalid JSON: starts with a byte order mark (U+FEFF)" if text.startswith("\ufeff") else "invalid JSON"


def iter_records(lines: Iterable[str | bytes]) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, object) for each non-blank line; locate any failure.

    Line numbers are 1-based.  Blank lines (e.g. a trailing newline) are
    skipped.  Anything that is not a single JSON object with finite numbers
    raises MalformedLine at the offending line.  Lines may be bytes, as from
    a file opened in binary mode; they are read as UTF-8 text.
    """
    for line_no, raw in enumerate(lines, start=1):
        if not isinstance(raw, str):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise MalformedLine(line_no, "not UTF-8 text") from None
        text = raw.strip(" \t\n\r")  # not strip(), which also takes \x0c, \xa0, \u2028 and other non-JSON spaces
        if not text:
            continue
        try:
            obj, end = _raw_decode(text)
        except (ValueError, RecursionError):
            raise MalformedLine(line_no, _invalid_json(text)) from None
        if end != len(text):
            raise MalformedLine(line_no, _invalid_json(text))
        if not isinstance(obj, dict):
            raise MalformedLine(line_no, "record is not a JSON object")
        yield line_no, obj


def _field_str(obj: dict, key: str, line_no: int) -> str:
    v = obj.get(key)
    if not isinstance(v, str) or not v:
        raise MalformedLine(line_no, f"missing or invalid {key!r}")
    return v


def _field_num(obj: dict, key: str, line_no: int, required: bool = True) -> float | None:
    v = obj.get(key)
    if v is None:
        if required:
            raise MalformedLine(line_no, f"missing or invalid {key!r}")
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedLine(line_no, f"missing or invalid {key!r}")
    try:
        v = float(v)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise MalformedLine(line_no, f"missing or invalid {key!r}")
    return v


def _field_int(obj: dict, key: str, line_no: int, minimum: int, required: bool = True) -> int | None:
    v = obj.get(key)
    if v is None:
        if required:
            raise MalformedLine(line_no, f"missing or invalid {key!r}")
        return None
    if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
        raise MalformedLine(line_no, f"missing or invalid {key!r}")
    return v


# The parsers below check each record in one pass: a record that passes the
# inline checks is taken as is; any other record goes through the _field_*
# helpers in their documented order, which either accept it or raise the
# located error.  JSON yields exact int/float types, and _NUM_MAX keeps the
# inline path clear of infinities and of integers beyond the float range.
_NUM = (float, int)
_NUM_MAX = 1e308


def _power_record(obj: dict, line_no: int, expected_kind: str | None, sources: dict) -> tuple:
    """Check one power record field by field; returns (node, src tag, ts, w)."""
    node = _field_str(obj, "node", line_no)
    src = obj.get("src")
    if not isinstance(src, str):
        raise MalformedLine(line_no, "missing or invalid 'src'")
    if src not in sources:
        try:
            parsed = parse_source(src)
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        if expected_kind is not None and parsed.kind != expected_kind:
            raise MalformedLine(line_no, f"expected a {expected_kind!r} source, got {src!r}")
        sources[src] = parsed
    ts = canonical_ts(_field_num(obj, "ts", line_no))
    w = _field_num(obj, "w", line_no)
    if w < 0:
        raise NegativePower(line_no)
    return node, src, ts, w


def read_power_trace(lines: Iterable[str], expected_kind: str | None = None) -> PowerColumns:
    """Read a power trace into columns, enforcing per-series timestamp monotonicity.

    Args:
        lines: line-oriented text (file object, list of strings, ...).
        expected_kind: when given ("cpu", "gpu" or "ext"), every record
            must carry a source of that kind; used e.g. to validate that
            an external-meter file contains only "ext" lines.

    Raises:
        MalformedLine, NonMonotonicTimestamp, NegativePower.
    """
    return _power(iter_records(lines), expected_kind)


def _power(records: Iterable[tuple[int, dict]], expected_kind: str | None = None) -> PowerColumns:
    """read_power_trace on (line_no, object) pairs."""
    cols = PowerColumns()
    sources: dict[str, Source] = {}  # filled by _power_record with accepted tags only
    number: dict[tuple[str, str], int] = {}  # (node, tag) -> series number
    ts_cols, w_cols, add_row = cols.ts, cols.w, cols.rows.append
    for line_no, obj in records:
        node, src, ts, w = obj.get("node"), obj.get("src"), obj.get("ts"), obj.get("w")
        if (
            type(src) is str and src in sources and type(node) is str and node
            and type(ts) in _NUM and -_NUM_MAX < ts < _NUM_MAX and type(w) in _NUM and 0 <= w < _NUM_MAX
        ):
            ts = round(float(ts), TS_DECIMALS)
            w = float(w)
        else:
            node, src, ts, w = _power_record(obj, line_no, expected_kind, sources)
        k = number.get((node, src))
        if k is None:
            k = cols._new_series(number, node, src, sources[src])
        ts_col = ts_cols[k]
        if ts_col and ts <= ts_col[-1]:
            raise NonMonotonicTimestamp(line_no)
        ts_col.append(ts)
        w_cols[k].append(w)
        add_row(k)
    return cols


def parse_power_trace(lines: Iterable[str], expected_kind: str | None = None) -> list[PowerSample]:
    """Parse a power trace (see read_power_trace); returns samples in file order."""
    return read_power_trace(lines, expected_kind).samples()


def _proc_record(obj: dict, line_no: int) -> tuple:
    """Check one proc record field by field; returns (node, ts, pid, cpu_s, gpu, sm_pct, mem_mib)."""
    node = _field_str(obj, "node", line_no)
    ts = canonical_ts(_field_num(obj, "ts", line_no))
    pid = _field_int(obj, "pid", line_no, minimum=1)
    cpu_s = _field_num(obj, "cpu_s", line_no)
    if cpu_s < 0:
        raise MalformedLine(line_no, "negative cumulative cpu time")
    gpu_index = _field_int(obj, "gpu", line_no, minimum=0, required=False)
    sm_pct = _field_num(obj, "sm_pct", line_no, required=False)
    mem_mib = _field_num(obj, "mem_mib", line_no, required=False)
    if gpu_index is None and (sm_pct is not None or mem_mib is not None):
        raise MalformedLine(line_no, "gpu utilization without a gpu index")
    if sm_pct is not None and not 0.0 <= sm_pct <= 100.0:
        raise OutOfRangeUtilization(line_no, f"sm_pct {sm_pct} outside [0, 100]")
    if mem_mib is not None and mem_mib < 0:
        raise OutOfRangeUtilization(line_no, f"negative mem_mib {mem_mib}")
    return node, ts, pid, cpu_s, gpu_index, sm_pct, mem_mib


def read_proc_trace(lines: Iterable[str]) -> ProcColumns:
    """Read a process trace into columns.

    Cumulative cpu_s must be non-decreasing per (node, pid) in file order;
    sm_pct must lie in [0, 100] and mem_mib must be non-negative.  GPU keys
    are optional, but sm_pct/mem_mib without a gpu index are rejected.  A
    second record for the same (node, ts, pid) is rejected as MalformedLine.
    """
    return _procs(iter_records(lines))


def _procs(records: Iterable[tuple[int, dict]]) -> ProcColumns:
    """read_proc_trace on (line_no, object) pairs."""
    cols = ProcColumns()
    state_of: dict[str, dict[int, list]] = {}  # node -> pid -> [process, last cpu_s, latest ts]
    # every record's (process, ts), kept once some process's ts fails to increase, as only then can one repeat
    seen: set[tuple[int, float]] | None = None
    at_node = states = raw_ts = None
    num, big, nan, gpu_no = _NUM, _NUM_MAX, math.nan, {}
    add_proc, add_ts, add_cpu = cols.proc.append, cols.ts.append, cols.cpu.append
    add_gpu, add_sm, add_mem = cols.gpu.append, cols.sm.append, cols.mem.append
    for line_no, obj in records:
        node, ts, pid, cpu_s = obj.get("node"), obj.get("ts"), obj.get("pid"), obj.get("cpu_s")
        gpu, sm, mem = obj.get("gpu"), obj.get("sm_pct"), obj.get("mem_mib")
        if (
            type(node) is str and node and type(ts) in num and -big < ts < big and type(pid) is int and pid >= 1
            and type(cpu_s) in num and 0 <= cpu_s < big
            and (gpu is None and sm is None and mem is None
                 or type(gpu) is int and gpu >= 0 and (sm is None or type(sm) in num and 0 <= sm <= 100)
                 and (mem is None or type(mem) in num and 0 <= mem < big))
        ):
            if ts != raw_ts or not ts:  # records at one instant share its rounding; zero keeps its sign
                raw_ts, canon_ts = ts, round(float(ts), TS_DECIMALS)
            ts, cpu_s = canon_ts, float(cpu_s)
        else:
            node, ts, pid, cpu_s, gpu, sm, mem = _proc_record(obj, line_no)
        if node != at_node:
            at_node, states = node, state_of.setdefault(node, {})
        state = states.get(pid)
        if state is None:
            state = states[pid] = [cols._new_proc(node, pid), cpu_s, ts]
        else:
            if ts > state[2]:
                state[2] = ts
            else:
                if seen is None:
                    seen = set(zip(cols.proc, cols.ts))
                if (state[0], ts) in seen:
                    raise MalformedLine(line_no, f"duplicate record for pid {pid} at ts {ts} on node {node!r}")
            if cpu_s < state[1]:
                raise CpuTimeRegression(pid, line_no)
            state[1] = cpu_s
        if seen is not None:
            seen.add((state[0], ts))
        add_proc(state[0])
        add_ts(ts)
        add_cpu(cpu_s)
        add_gpu(-1 if gpu is None else gpu_no.setdefault(gpu, len(gpu_no)))
        add_sm(nan if sm is None else sm)
        add_mem(nan if mem is None else mem)
    cols.gpus.extend(gpu_no)
    return cols


def parse_proc_trace(lines: Iterable[str]) -> list[ProcSnapshot]:
    """Parse a process trace (see read_proc_trace); returns snapshots in file order."""
    return read_proc_trace(lines).snapshots()


# compact JSON for one output line; a NaN or infinity raises ValueError rather than
# writing a token that no JSON reader accepts
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _interp(grid: Iterable[float], ts: Sequence[float], w: Sequence[float]) -> list[float]:
    """np.interp(grid, ts, w), bit for bit, for strictly ascending finite ts, finite w and a grid without NaN.

    As in np.interp, a grid point before the first sample or after the last
    takes that sample's value, and a point on a sample takes its value.
    Between samples, the segment's slope is applied from its left end, or
    from its right end where that gives NaN.
    """
    ts, w = list(ts), list(w)  # a list is bisected and indexed without boxing a float per probe
    last = len(ts) - 1
    out = []
    for x in grid:
        j = bisect_right(ts, x, 1) - 1  # from 1: a point before the second sample is in the first segment
        if j == last or x <= ts[j]:  # on a sample, or before the first or after the last
            out.append(w[j])
        else:
            slope = (w[j + 1] - w[j]) / (ts[j + 1] - ts[j])
            v = slope * (x - ts[j]) + w[j]
            if v != v:
                v = slope * (x - ts[j + 1]) + w[j + 1]
                if v != v and w[j] == w[j + 1]:
                    v = w[j]
            out.append(v)
    return out
