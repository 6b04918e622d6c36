"""Scaling software power readings against an external wattmeter.

Software counters (CPU packages, GPU boards) miss fans, drives, PSU loss
and the rest of the chassis, so per node we fit a single multiplicative
factor k mapping summed software power to the wall reading, by least
squares through the origin:

    k = sum(s_i * e_i) / sum(s_i ** 2)

Fit quality is reported as MAPE over samples with e_i > 0 and, since a
single percentage can hide bias, also as the relative error of total
energy.  The model has no intercept: a constant chassis baseline stays
visible in those error figures instead of being hidden in the model, and
a model file that carries a nonzero intercept_w is rejected.

The sums are math.fsum, exactly rounded and independent of order, so k
does not depend on the machine.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import fsum, isfinite
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import DegenerateInput, MalformedLine
from .lines import CPU, GPU, EXT, _dumps, _field_int, _field_num, _field_str, iter_records

if TYPE_CHECKING:  # a report with --model loads this module for parse_models, and never reads a power trace
    from .traces import PowerColumns, PowerSample


def __getattr__(name: str):
    # apply_calibration works on slices, so it lives in attribution, which calibrate never loads;
    # this keeps its old path, wattscope.calibration.apply_calibration, working
    if name == "apply_calibration":
        from .attribution import apply_calibration

        return apply_calibration
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _ModelFields(NamedTuple):
    node_id: str
    k: float  # > 0
    mape_pct: float
    n_points: int  # >= 2
    energy_err_pct: float | None = None  # |total predicted - total external| / total external


class CalibrationModel(_ModelFields):
    __slots__ = ()

    # energy_err_pct is keyword-only, so that a fifth positional argument is an error rather than this field
    def __new__(
        cls, node_id: str, k: float, mape_pct: float, n_points: int, *, energy_err_pct: float | None = None
    ):
        return super().__new__(cls, node_id, k, mape_pct, n_points, energy_err_pct)

    def __getnewargs_ex__(self):  # copy and pickle pass it by keyword too
        return tuple(self[:4]), {"energy_err_pct": self.energy_err_pct}


def fit_scale(
    software_w: Sequence[float],
    external_w: Sequence[float],
    node_id: str = "",
) -> CalibrationModel:
    """Fit external power as a scaled software reading.

    Args:
        software_w: summed software power per aligned sample, all >= 0.
        external_w: wattmeter power at the same instants, all >= 0.
        node_id: node the model belongs to.

    Raises:
        DegenerateInput: fewer than 2 points, software identically zero,
            the fitted scale is not positive, or a sum leaves the float range.
        ValueError: length mismatch or negative readings.
    """
    s = [float(x) for x in software_w]
    e = [float(x) for x in external_w]
    if len(s) != len(e):
        raise ValueError("software and external series must have equal length")
    if any(x < 0 for x in s) or any(x < 0 for x in e):
        raise ValueError("power readings must be non-negative")
    n = len(s)
    if n < 2:
        raise DegenerateInput("need at least 2 aligned samples")
    if not any(x > 0 for x in s):
        raise DegenerateInput("software power is identically zero")

    try:  # fsum raises OverflowError past the float range; s * s can underflow to 0 or overflow to inf
        k = fsum(map(mul, s, e)) / fsum(x * x for x in s)
        if not isfinite(k):  # inf / inf, or a finite sum over an underflowed one
            raise OverflowError
        if not k > 0:
            raise DegenerateInput("fitted scale is not positive")

        predicted = [k * x for x in s]
        errors = [abs(p - y) / y for p, y in zip(predicted, e) if y > 0]
        if errors:
            mape = 100.0 * (fsum(errors) / len(errors))
            total = fsum(e)
            energy_err = 100.0 * abs(fsum(predicted) - total) / total
            if not (isfinite(mape) and isfinite(energy_err)):  # a meter reading near 0 W can make them overflow
                raise OverflowError
        else:
            mape = 0.0
            energy_err = None
    except (OverflowError, ZeroDivisionError):
        raise DegenerateInput("power readings too large or too small to fit") from None
    return CalibrationModel(node_id, k, mape, n, energy_err_pct=energy_err)


def format_model_line(model: CalibrationModel) -> str:
    obj: dict = {
        "node": model.node_id,
        "k": model.k,
        "mape_pct": model.mape_pct,
        "n": model.n_points,
    }
    if model.energy_err_pct is not None:
        obj["energy_err_pct"] = model.energy_err_pct
    return _dumps(obj)


def serialize_models(models: Iterable[CalibrationModel]) -> str:
    return "".join(format_model_line(m) + "\n" for m in models)


def fit_nodes(
    software: Sequence[PowerSample] | PowerColumns,
    external: Sequence[PowerSample] | PowerColumns,
) -> list[CalibrationModel]:
    """Fit one model per node from raw power traces (samples, or read_power_trace columns).

    Software power is the sum over the node's cpu and gpu series, linearly
    resampled onto the external meter's own timestamps (external meters
    are usually the slower cadence).  Only instants covered by every
    software series on the node are used.  Nodes lacking either side, or
    without enough overlapping samples, are skipped.

    Raises:
        DegenerateInput: no node yields a usable fit; the message gives
            each metered node's reason.
    """
    from .traces import PowerColumns, _interp

    software, external = (p if isinstance(p, PowerColumns) else PowerColumns.of(p) for p in (software, external))
    soft: dict[str, list] = {}  # node -> (ts, w) per software series, in tag order
    for key, source, ts, w in sorted(zip(software.keys, software.sources, software.ts, software.w)):
        if source.kind in (CPU, GPU):
            soft.setdefault(key[0], []).append((ts, w))
    ext = {node: (ts, w) for (node, tag), ts, w in zip(external.keys, external.ts, external.w) if tag == EXT}

    models: list[CalibrationModel] = []
    skipped: list[str] = []  # "node: reason"
    for node in sorted(ext):
        sources = soft.get(node)
        if not sources:
            skipped.append(f"{node}: no cpu or gpu readings")
            continue
        ext_ts, ext_w = ext[node]
        lo, hi = max(ts[0] for ts, _ in sources), min(ts[-1] for ts, _ in sources)
        first, stop = bisect_left(ext_ts, lo), bisect_right(ext_ts, hi)
        grid = ext_ts[first:stop]
        if len(grid) < 2:
            skipped.append(f"{node}: fewer than 2 meter readings within the span every software series covers")
            continue
        total = [0.0] * len(grid)
        for ts, watts in sources:
            total = list(map(add, total, _interp(grid, ts, watts)))
        try:
            models.append(fit_scale(total, ext_w[first:stop], node))
        except DegenerateInput as exc:
            skipped.append(f"{node}: {exc}")
    if not models:
        raise DegenerateInput("no node could be fitted: " + ("; ".join(skipped) or "no external readings"))
    return models


def parse_models(lines: Iterable[str]) -> list[CalibrationModel]:
    """Parse a model file: JSON lines of {"node","k","mape_pct","n",...}."""
    models: list[CalibrationModel] = []
    for line_no, obj in iter_records(lines):
        node = _field_str(obj, "node", line_no)
        k = _field_num(obj, "k", line_no)
        mape = _field_num(obj, "mape_pct", line_no)
        n = _field_int(obj, "n", line_no, minimum=2)
        if k <= 0:
            raise MalformedLine(line_no, "scale factor must be positive")
        if mape < 0:
            raise MalformedLine(line_no, "mape_pct must be non-negative")
        if _field_num(obj, "intercept_w", line_no, required=False):
            raise MalformedLine(line_no, "nonzero 'intercept_w': models are scale-only")
        energy_err = _field_num(obj, "energy_err_pct", line_no, required=False)
        models.append(CalibrationModel(node, k, mape, n, energy_err_pct=energy_err))
    return models
