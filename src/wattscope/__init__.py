"""Job-level energy attribution for shared compute clusters.

Replays power and process telemetry, splits node power among scheduler
jobs, calibrates software readings against external wattmeters, and
renders per-status / per-user energy reports and GPU utilization
histograms.

Importing the package loads none of its modules: each public name loads
its module on first access (PEP 562), so a command pays only for the
code it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "attribution": (
        "AttributionSlice", "CoverageStats", "Interval", "JobEnergy", "JobPower", "SliceColumns", "apply_calibration",
        "attribute", "integrate_energy", "parse_slices", "read_slices", "serialize_slices", "slice_coverage",
    ),
    "calibration": ("CalibrationModel", "fit_nodes", "fit_scale", "parse_models", "serialize_models"),
    "analytics": (
        "KNOWN_STATUSES", "BreakdownReport", "BreakdownRow", "UtilizationHistogram", "aggregate_by_status",
        "aggregate_by_user", "gpu_histogram", "render_report",
    ),
    "errors": (
        "CpuTimeRegression", "DegenerateInput", "DuplicatePid", "MalformedLine", "MissingCapacity",
        "MultiNodeJob", "NegativeDelta", "NegativePower", "NodeMismatch", "NonMonotonicTimestamp",
        "OutOfRangeUtilization", "OverlappingSlices", "TraceError", "UnknownJob", "WattscopeError",
    ),
    "jobs": (
        "UNATTRIBUTED_JOB", "JobRecord", "PidMapSnapshot", "PidTimeline", "build_timelines", "parse_jobs", "parse_pidmap",
    ),
    "lines": ("canonical_ts",),
    "traces": (
        "PowerSample", "ProcSnapshot", "Source", "TraceBundle", "parse_power_trace", "parse_proc_trace", "parse_source",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:  # also how `from wattscope import traces` finds an unloaded submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
