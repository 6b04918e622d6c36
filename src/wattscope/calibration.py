"""Scaling software power readings against an external wattmeter.

Software counters (CPU packages, GPU boards) miss fans, drives, PSU loss
and the rest of the chassis, so per node we fit a single multiplicative
factor k mapping summed software power to the wall reading, by least
squares through the origin:

    k = sum(s_i * e_i) / sum(s_i ** 2)

Fit quality is reported as MAPE over samples with e_i > 0 and, since a
single percentage can hide bias, also as the relative error of total
energy.  An affine variant (k * s + b) exists behind a flag for
experimentation; the default stays scale-only, leaving any constant
baseline visible in the error figures rather than hidden in an intercept.

The scale-only fit needs no numpy: its sums are math.fsum, exactly
rounded and independent of order, so k does not depend on the machine's
BLAS.  Only the affine fit loads numpy, for its least-squares solve.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import fsum, inf
from operator import add, mul
from typing import Iterable, Sequence

from .attribution import AttributionSlice, JobPower
from .errors import DegenerateInput, MalformedLine, NodeMismatch
from .traces import CPU, GPU, EXT, PowerColumns, PowerSample, _dumps, _field_num, _field_str, iter_records


@dataclass(frozen=True)
class CalibrationModel:
    node_id: str
    k: float  # > 0
    mape_pct: float
    n_points: int  # >= 2
    intercept_w: float = 0.0  # nonzero only for affine fits
    energy_err_pct: float | None = None  # |total predicted - total external| / total external


def fit_scale(
    software_w: Sequence[float],
    external_w: Sequence[float],
    node_id: str = "",
    affine: bool = False,
) -> CalibrationModel:
    """Fit external power as a scaled (optionally shifted) software reading.

    Args:
        software_w: summed software power per aligned sample, all >= 0.
        external_w: wattmeter power at the same instants, all >= 0.
        node_id: node the model belongs to.
        affine: also fit an intercept (experimentation only).

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

    try:  # fsum raises OverflowError past the float range; s * s can underflow to 0
        if affine:
            import numpy as np  # the only numpy use in this module

            design = np.column_stack([s, np.ones(n)])
            (k, b), *_ = np.linalg.lstsq(design, np.array(e), rcond=None)
            k = float(k)
            b = float(b)
        else:
            k = fsum(map(mul, s, e)) / fsum(x * x for x in s)
            b = 0.0
        if not 0 < k < inf:
            raise DegenerateInput("fitted scale is not positive")

        predicted = [k * x + b for x in s]
        errors = [abs(p - y) / y for p, y in zip(predicted, e) if y > 0]
        if errors:
            mape = 100.0 * (fsum(errors) / len(errors))
            total = fsum(e)
            energy_err = 100.0 * abs(fsum(predicted) - total) / total
        else:
            mape = 0.0
            energy_err = None
    except (OverflowError, ZeroDivisionError):
        raise DegenerateInput("power readings too large or too small to fit") from None
    return CalibrationModel(node_id, k, mape, n, b, energy_err)


def apply_calibration(
    model: CalibrationModel, slices: Sequence[AttributionSlice]
) -> list[AttributionSlice]:
    """Project slices into wall-power terms: ext_w = k * (cpu_w + gpu_w).

    An affine model's intercept is chassis baseline no job asked for, so
    it lands on the unattributed bucket; per-job scaling stays linear and
    totals remain conserved.

    Raises:
        NodeMismatch: a slice belongs to a different node than the model.
    """
    out: list[AttributionSlice] = []
    for s in slices:
        if s.node_id != model.node_id:
            raise NodeMismatch(model.node_id, s.node_id)
        per_job = {
            job_id: JobPower(p.cpu_w, p.gpu_w, ext_w=model.k * (p.cpu_w + p.gpu_w))
            for job_id, p in s.per_job.items()
        }
        unattr_ext = (
            model.k * (s.unattributed_cpu_w + s.unattributed_gpu_w) + model.intercept_w
        )
        out.append(
            AttributionSlice(
                s.interval,
                s.node_id,
                per_job,
                s.unattributed_cpu_w,
                s.unattributed_gpu_w,
                unattributed_ext_w=unattr_ext,
            )
        )
    return out


def format_model_line(model: CalibrationModel) -> str:
    obj: dict = {
        "node": model.node_id,
        "k": model.k,
        "mape_pct": model.mape_pct,
        "n": model.n_points,
    }
    if model.intercept_w:
        obj["intercept_w"] = model.intercept_w
    if model.energy_err_pct is not None:
        obj["energy_err_pct"] = model.energy_err_pct
    return _dumps(obj)


def serialize_models(models: Iterable[CalibrationModel]) -> str:
    return "".join(format_model_line(m) + "\n" for m in models)


def fit_nodes(
    software: Sequence[PowerSample] | PowerColumns,
    external: Sequence[PowerSample] | PowerColumns,
    affine: bool = False,
) -> list[CalibrationModel]:
    """Fit one model per node from raw power traces (samples, or read_power_trace columns).

    Software power is the sum over the node's cpu and gpu series, linearly
    resampled onto the external meter's own timestamps (external meters
    are usually the slower cadence).  Only instants covered by every
    software series on the node are used.  Nodes lacking either side, or
    without enough overlapping samples, are skipped.

    Raises:
        DegenerateInput: no node yields a usable fit.
    """
    software, external = (p if isinstance(p, PowerColumns) else PowerColumns.of(p) for p in (software, external))
    soft: dict[str, list] = {}  # node -> (ts, w) per software series, in tag order
    for key, source, ts, w in sorted(zip(software.keys, software.sources, software.ts, software.w)):
        if source.kind in (CPU, GPU):
            soft.setdefault(key[0], []).append((ts, w))
    ext = {node: (ts, w) for (node, tag), ts, w in zip(external.keys, external.ts, external.w) if tag == EXT}

    models: list[CalibrationModel] = []
    for node in sorted(ext):
        sources = soft.get(node)
        if not sources:
            continue
        ext_ts, ext_w = ext[node]
        lo, hi = max(ts[0] for ts, _ in sources), min(ts[-1] for ts, _ in sources)
        first, stop = bisect_left(ext_ts, lo), bisect_right(ext_ts, hi)
        grid = ext_ts[first:stop]
        if len(grid) < 2:
            continue
        total = [0.0] * len(grid)
        for ts, watts in sources:
            total = list(map(add, total, _interp(grid, ts, watts)))
        try:
            models.append(fit_scale(total, ext_w[first:stop], node, affine))
        except DegenerateInput:
            continue
    if not models:
        raise DegenerateInput("no node has enough overlapping software and external readings")
    return models


def _interp(grid: Sequence[float], ts: Sequence[float], w: Sequence[float]) -> list[float]:
    """np.interp(grid, ts, w), bit for bit, for a grid within [ts[0], ts[-1]] and finite w.

    As in np.interp, a grid point on a sample (the last one included) takes
    that sample's value; between samples, the segment's slope is applied
    from its left end.
    """
    last = len(ts) - 1
    out = []
    for x in grid:
        j = bisect_right(ts, x) - 1
        if j == last or ts[j] == x:
            out.append(w[j])
        else:
            out.append((w[j + 1] - w[j]) / (ts[j + 1] - ts[j]) * (x - ts[j]) + w[j])
    return out


def parse_models(lines: Iterable[str]) -> list[CalibrationModel]:
    """Parse a model file: JSON lines of {"node","k","mape_pct","n",...}."""
    models: list[CalibrationModel] = []
    for line_no, obj in iter_records(lines):
        node = _field_str(obj, "node", line_no)
        k = _field_num(obj, "k", line_no)
        mape = _field_num(obj, "mape_pct", line_no)
        n_raw = obj.get("n")
        if isinstance(n_raw, bool) or not isinstance(n_raw, int) or n_raw < 2:
            raise MalformedLine(line_no, "missing or invalid 'n'")
        if k <= 0:
            raise MalformedLine(line_no, "scale factor must be positive")
        if mape < 0:
            raise MalformedLine(line_no, "mape_pct must be non-negative")
        intercept = _field_num(obj, "intercept_w", line_no, required=False) or 0.0
        energy_err = _field_num(obj, "energy_err_pct", line_no, required=False)
        models.append(CalibrationModel(node, k, mape, n_raw, intercept, energy_err))
    return models
