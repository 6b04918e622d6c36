"""Exception types shared across the pipeline.

Parsers raise only located errors from this module: any byte stream either
parses cleanly or fails with an exception that names the offending line.
Raw ValueError/KeyError/JSONDecodeError must never escape a parser.
"""

from __future__ import annotations


class WattscopeError(Exception):
    """Base class for every error raised by this package."""


class TraceError(WattscopeError):
    """An input trace violated its format or an invariant at a known line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MalformedLine(TraceError):
    """Line is not a valid record of the expected wire format."""

    def __init__(self, line_no: int, detail: str = "not a valid record"):
        super().__init__(line_no, detail)


class NonMonotonicTimestamp(TraceError):
    """Timestamp did not strictly increase within its series."""

    def __init__(self, line_no: int, detail: str = "timestamp not strictly increasing within series"):
        super().__init__(line_no, detail)


class NegativePower(TraceError):
    def __init__(self, line_no: int):
        super().__init__(line_no, "negative power reading")


class CpuTimeRegression(TraceError):
    """Cumulative CPU time went backwards for a pid."""

    def __init__(self, pid: int, line_no: int):
        super().__init__(line_no, f"cumulative cpu time decreased for pid {pid}")
        self.pid = pid


class OutOfRangeUtilization(TraceError):
    def __init__(self, line_no: int, detail: str = "utilization outside valid range"):
        super().__init__(line_no, detail)


class DuplicatePid(TraceError):
    """A pid was assigned to more than one job within a single snapshot.

    Read from a file or built snapshots, it names the line.  Folded from
    timelines, which have no line, it names the node instead and line_no is None.
    """

    def __init__(self, pid: int, ts: float, line_no: int | None = None, node_id: str = ""):
        if line_no is None:
            WattscopeError.__init__(self, f"pid {pid} mapped to more than one job on node {node_id} at ts {ts}")
            self.line_no = None
        else:
            super().__init__(line_no, f"pid {pid} mapped to more than one job at ts {ts}")
        self.pid = pid
        self.ts = ts
        self.node_id = node_id


class UnknownJob(WattscopeError):
    def __init__(self, job_id: int):
        super().__init__(f"job {job_id} referenced but not present in job records")
        self.job_id = job_id


class MultiNodeJob(WattscopeError):
    """Job observed on a node other than the one its record binds it to."""

    def __init__(self, job_id: int, detail: str = ""):
        msg = f"job {job_id} spans more than one node; multi-node jobs are unsupported"
        super().__init__(msg + (f" ({detail})" if detail else ""))
        self.job_id = job_id


class NegativeDelta(WattscopeError):
    def __init__(self, job_id: int):
        super().__init__(f"negative cpu-time delta for job {job_id}")
        self.job_id = job_id


class OverlappingSlices(WattscopeError):
    def __init__(self, node_id: str, t: float):
        super().__init__(f"attribution slices overlap on node {node_id} at t={t}")
        self.node_id = node_id
        self.t = t


class DegenerateInput(WattscopeError):
    def __init__(self, detail: str = "calibration input admits no positive scale"):
        super().__init__(detail)


class NodeMismatch(WattscopeError):
    def __init__(self, expected: str, got: str):
        super().__init__(f"calibration model is for node {expected!r}, slice is for node {got!r}")
        self.expected = expected
        self.got = got


class MissingCapacity(WattscopeError):
    def __init__(self, gpu_index: int, node_id: str = ""):
        where = f" on node {node_id}" if node_id else ""
        super().__init__(f"no memory capacity configured for gpu {gpu_index}{where}")
        self.gpu_index = gpu_index
        self.node_id = node_id
