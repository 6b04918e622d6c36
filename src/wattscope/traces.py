"""Telemetry trace parsing, serialization and time alignment.

Two JSON-lines wire formats are understood, one object per line, UTF-8,
LF terminated, unknown keys ignored:

  power  {"node":"n1","src":"cpu0","ts":12.0,"w":85.5}
  proc   {"node":"n1","ts":12.0,"pid":4242,"cpu_s":10.5,
          "gpu":0,"sm_pct":55.0,"mem_mib":800.0}

``src`` is ``"cpu"<socket>``, ``"gpu"<index>`` or ``"ext"`` (external
wattmeter).  Timestamps are decimal seconds and are canonicalized to
millisecond precision on parse.  The ``gpu``/``sm_pct``/``mem_mib`` keys
are optional; an absent reading means "not observed", never zero.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptySeries,
    MalformedLine,
    NegativePower,
    NonMonotonicTimestamp,
    OutOfRangeUtilization,
    CpuTimeRegression,
)

# canonical timestamp precision: milliseconds
TS_DECIMALS = 3

CPU = "cpu"
GPU = "gpu"
EXT = "ext"


def canonical_ts(value: float) -> float:
    """Quantize a timestamp to the canonical millisecond grid."""
    return round(float(value), TS_DECIMALS)


@dataclass(frozen=True)
class Source:
    """A power source on a node: a CPU package, a GPU, or an external meter."""

    kind: str  # "cpu" | "gpu" | "ext"
    index: int | None = None  # socket or gpu index; None for "ext"

    def __post_init__(self):
        if self.kind not in (CPU, GPU, EXT):
            raise ValueError(f"unknown source kind {self.kind!r}")
        if self.kind == EXT and self.index is not None:
            raise ValueError("external sources carry no index")
        if self.kind != EXT and (self.index is None or self.index < 0):
            raise ValueError(f"{self.kind} sources need a non-negative index")

    def __str__(self) -> str:
        return self.kind if self.index is None else f"{self.kind}{self.index}"


def parse_source(text: str) -> Source:
    """Parse a wire-format source tag such as "cpu0", "gpu3" or "ext"."""
    if text == EXT:
        return Source(EXT)
    for kind in (CPU, GPU):
        if text.startswith(kind):
            digits = text[len(kind):]
            if digits.isdigit():
                return Source(kind, int(digits))
    raise ValueError(f"invalid source tag {text!r}")


@dataclass(frozen=True)
class PowerSample:
    node_id: str
    source: Source
    ts: float
    power_w: float


@dataclass(frozen=True)
class ProcSnapshot:
    """One process observation: cumulative CPU time plus optional GPU usage."""

    node_id: str
    ts: float
    pid: int
    cpu_time_s: float
    gpu_index: int | None = None
    gpu_sm_pct: float | None = None
    gpu_mem_mib: float | None = None


@dataclass(frozen=True)
class TraceBundle:
    """Power samples and process snapshots replayed together."""

    power: tuple[PowerSample, ...]
    procs: tuple[ProcSnapshot, ...]

    @classmethod
    def build(cls, power: Sequence[PowerSample], procs: Sequence[ProcSnapshot]) -> "TraceBundle":
        return cls(tuple(power), tuple(procs))


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token!r}")


# One decoder serves every line; json.loads(..., parse_constant=...) would
# build a new one per call.  iter_records strips each line first, so
# raw_decode plus a check that the object ends the line accepts exactly
# what decode() accepts, without its two whitespace scans.
_raw_decode = json.JSONDecoder(parse_constant=_reject_constant).raw_decode


def iter_records(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line_no, object) for each non-blank line; locate any failure.

    Line numbers are 1-based.  Blank lines (e.g. a trailing newline) are
    skipped.  Anything that is not a single JSON object with finite numbers
    raises MalformedLine at the offending line.
    """
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            if isinstance(text, str):
                obj, end = _raw_decode(text)
            else:  # bytes, e.g. from a file opened in binary mode
                obj, end = json.loads(text, parse_constant=_reject_constant), len(text)
        except (ValueError, RecursionError):
            raise MalformedLine(line_no, "invalid JSON") from None
        if end != len(text):
            raise MalformedLine(line_no, "invalid JSON")
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
    """Check one power record field by field; returns (node, (source, tag), ts, w)."""
    node = _field_str(obj, "node", line_no)
    src_text = obj.get("src")
    if not isinstance(src_text, str):
        raise MalformedLine(line_no, "missing or invalid 'src'")
    source = sources.get(src_text)
    if source is None:
        try:
            parsed = parse_source(src_text)
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from None
        if expected_kind is not None and parsed.kind != expected_kind:
            raise MalformedLine(line_no, f"expected a {expected_kind!r} source, got {src_text!r}")
        source = sources[src_text] = (parsed, str(parsed))
    ts = canonical_ts(_field_num(obj, "ts", line_no))
    w = _field_num(obj, "w", line_no)
    if w < 0:
        raise NegativePower(line_no)
    return node, source, ts, w


def parse_power_trace(lines: Iterable[str], expected_kind: str | None = None) -> list[PowerSample]:
    """Parse a power trace, enforcing per-series timestamp monotonicity.

    Args:
        lines: line-oriented text (file object, list of strings, ...).
        expected_kind: when given ("cpu", "gpu" or "ext"), every record
            must carry a source of that kind; used e.g. to validate that
            an external-meter file contains only "ext" lines.

    Returns:
        Samples in file order.

    Raises:
        MalformedLine, NonMonotonicTimestamp, NegativePower.
    """
    samples: list[PowerSample] = []
    # src tag -> (Source, canonical tag), filled by _power_record with accepted tags only
    sources: dict[str, tuple[Source, str]] = {}
    last_ts: dict[tuple[str, str], float] = {}
    for line_no, obj in iter_records(lines):
        node = obj.get("node")
        src = obj.get("src")
        ts = obj.get("ts")
        w = obj.get("w")
        source = sources.get(src) if type(src) is str else None  # (Source, canonical tag)
        if (
            source is not None
            and type(node) is str
            and node
            and type(ts) in _NUM
            and -_NUM_MAX < ts < _NUM_MAX
            and type(w) in _NUM
            and 0 <= w < _NUM_MAX
        ):
            ts = round(float(ts), TS_DECIMALS)
            w = float(w)
        else:
            node, source, ts, w = _power_record(obj, line_no, expected_kind, sources)
        key = (node, source[1])
        prev = last_ts.get(key)
        if prev is not None and ts <= prev:
            raise NonMonotonicTimestamp(line_no)
        last_ts[key] = ts
        samples.append(PowerSample(node, source[0], ts, w))
    return samples


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


def parse_proc_trace(lines: Iterable[str]) -> list[ProcSnapshot]:
    """Parse a process trace.

    Cumulative cpu_s must be non-decreasing per (node, pid) in file order;
    sm_pct must lie in [0, 100] and mem_mib must be non-negative.  GPU keys
    are optional, but sm_pct/mem_mib without a gpu index are rejected.  A
    second record for the same (node, ts, pid) is rejected as MalformedLine.
    """
    snaps: list[ProcSnapshot] = []
    last_cpu: dict[tuple[str, int], float] = {}
    pids_at: dict[tuple[str, float], set[int]] = {}  # (node, ts) -> pids seen there
    at_node = at_ts = seen = None  # the (node, ts) group of the previous record
    for line_no, obj in iter_records(lines):
        node = obj.get("node")
        ts = obj.get("ts")
        pid = obj.get("pid")
        cpu_s = obj.get("cpu_s")
        gpu = obj.get("gpu")
        sm = obj.get("sm_pct")
        mem = obj.get("mem_mib")
        if (
            type(node) is str
            and node
            and type(ts) in _NUM
            and -_NUM_MAX < ts < _NUM_MAX
            and type(pid) is int
            and pid >= 1
            and type(cpu_s) in _NUM
            and 0 <= cpu_s < _NUM_MAX
            and (
                (gpu is None and sm is None and mem is None)
                or (
                    type(gpu) is int
                    and gpu >= 0
                    and (sm is None or (type(sm) in _NUM and 0 <= sm <= 100))
                    and (mem is None or (type(mem) in _NUM and 0 <= mem < _NUM_MAX))
                )
            )
        ):
            ts = round(float(ts), TS_DECIMALS)
            cpu_s = float(cpu_s)
            if sm is not None:
                sm = float(sm)
            if mem is not None:
                mem = float(mem)
        else:
            node, ts, pid, cpu_s, gpu, sm, mem = _proc_record(obj, line_no)
        if ts != at_ts or node != at_node:
            at_node, at_ts = node, ts
            seen = pids_at.setdefault((node, ts), set())
        if pid in seen:
            raise MalformedLine(line_no, f"duplicate record for pid {pid} at ts {ts} on node {node!r}")
        seen.add(pid)
        key = (node, pid)
        prev = last_cpu.get(key)
        if prev is not None and cpu_s < prev:
            raise CpuTimeRegression(pid, line_no)
        last_cpu[key] = cpu_s
        snaps.append(ProcSnapshot(node, ts, pid, cpu_s, gpu, sm, mem))
    return snaps


def _dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


def format_power_line(sample: PowerSample) -> str:
    return _dumps({"node": sample.node_id, "src": str(sample.source), "ts": sample.ts, "w": sample.power_w})


def format_proc_line(snap: ProcSnapshot) -> str:
    obj: dict = {"node": snap.node_id, "ts": snap.ts, "pid": snap.pid, "cpu_s": snap.cpu_time_s}
    if snap.gpu_index is not None:
        obj["gpu"] = snap.gpu_index
    if snap.gpu_sm_pct is not None:
        obj["sm_pct"] = snap.gpu_sm_pct
    if snap.gpu_mem_mib is not None:
        obj["mem_mib"] = snap.gpu_mem_mib
    return _dumps(obj)


def serialize_power_trace(samples: Iterable[PowerSample]) -> str:
    return "".join(format_power_line(s) + "\n" for s in samples)


def serialize_proc_trace(snaps: Iterable[ProcSnapshot]) -> str:
    return "".join(format_proc_line(s) + "\n" for s in snaps)


def resample_to_grid(series: Sequence[PowerSample], grid_ts: Sequence[float]) -> list[float | None]:
    """Linearly interpolate a single power series onto arbitrary timestamps.

    Grid points outside [first_ts, last_ts] of the series are returned as
    None ("missing") and must be excluded downstream; interpolation never
    extrapolates.

    Raises:
        EmptySeries: the series has no samples.
        ValueError: the series is not sorted by strictly increasing ts.
    """
    import numpy as np

    if not series:
        raise EmptySeries()
    ts = np.array([s.ts for s in series], dtype=float)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("series must be sorted by strictly increasing ts")
    watts = np.array([s.power_w for s in series], dtype=float)
    grid = np.asarray(list(grid_ts), dtype=float)
    values = np.interp(grid, ts, watts)
    covered = (grid >= ts[0]) & (grid <= ts[-1])
    return [float(v) if ok else None for v, ok in zip(values, covered)]
