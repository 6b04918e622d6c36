"""Command-line interface.

Subcommands: validate, attribute, calibrate, report (status | user |
gpu-hist).  Every flag falls back to a WATTSCOPE_* environment variable
(e.g. --power -> WATTSCOPE_POWER).  Exit codes: 0 success, 1 input
validation failure, 2 usage error.  Results go to stdout and are written
only after the whole command has succeeded, so stdout is empty on
failure; diagnostics (with line numbers) go to stderr.  Identical argv
and input files produce byte-identical stdout.  --threads is accepted and
validated but has no effect.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, TextIO

from . import analytics
from .analytics import MEM_PCT, SM_PCT, aggregate_by_status, aggregate_by_user, gpu_histogram, render_report
from .attribution import attribute_columns, integrate_energy, parse_slices, serialize_slices
from .calibration import CalibrationModel, apply_calibration, fit_nodes, parse_models, serialize_models
from .errors import TraceError, WattscopeError
from .jobs import UNATTRIBUTED_JOB, JobRecord, check_owners, owner_at, parse_jobs, read_pidmap
from .traces import EXT, read_power_trace, read_proc_trace

ENV_PREFIX = "WATTSCOPE_"

_METRICS = {"sm": SM_PCT, "mem": MEM_PCT, SM_PCT: SM_PCT, MEM_PCT: MEM_PCT}


class _UsageError(Exception):
    pass


class _InputError(WattscopeError):
    """A parse failure tagged with the file it came from."""

    def __init__(self, path: str, cause: WattscopeError):
        super().__init__(f"{path}: {cause}")
        self.path = path
        self.cause = cause


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must not sys.exit() mid-library
        raise _UsageError(message)


def _env(name: str, fallback: str | None = None) -> str | None:
    return os.environ.get(ENV_PREFIX + name, fallback)


@dataclass(frozen=True)
class RunConfig:
    """Validated per-invocation options; paths may be None when unused."""

    power: str | None = None
    proc: str | None = None
    pidmap: str | None = None
    jobs: str | None = None
    external: str | None = None
    slices: str | None = None
    model: str | None = None
    capacities: str | None = None
    fmt: str = "text"
    column: str = "ext"
    metric: str = SM_PCT
    bins: int = analytics.DEFAULT_BINS
    max_gap_s: float = 10.0
    threads: int = 1
    affine: bool = False
    per_job_mean: bool = False


def _build_parser() -> _Parser:
    parser = _Parser(prog="wattscope", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    def path_flag(p: _Parser, name: str):
        p.add_argument(f"--{name}", default=_env(name.upper()), metavar="PATH")

    def common_numeric(p: _Parser):
        p.add_argument("--max-gap-s", default=_env("MAX_GAP_S", "10"), metavar="S")
        p.add_argument("--threads", default=_env("THREADS", "1"), metavar="N")

    v = sub.add_parser("validate", help="parse inputs and report their sizes")
    for name in ("power", "proc", "pidmap", "jobs", "external", "slices"):
        path_flag(v, name)

    a = sub.add_parser("attribute", help="emit attribution slices as JSON lines")
    for name in ("power", "proc", "pidmap", "jobs"):
        path_flag(a, name)
    common_numeric(a)

    c = sub.add_parser("calibrate", help="fit per-node wattmeter scale factors")
    for name in ("power", "external", "model"):
        path_flag(c, name)
    c.add_argument("--affine", action="store_true")
    c.add_argument("--format", default=_env("FORMAT", "text"), dest="fmt")

    r = sub.add_parser("report", help="render energy and utilization reports")
    r.add_argument("what", choices=["status", "user", "gpu-hist"])
    for name in ("jobs", "slices", "power", "proc", "pidmap", "model", "capacities"):
        path_flag(r, name)
    r.add_argument("--format", default=_env("FORMAT", "text"), dest="fmt")
    r.add_argument("--column", default=_env("COLUMN", "ext"))
    r.add_argument("--metric", default=_env("METRIC", "sm"))
    r.add_argument("--bins", default=_env("BINS", str(analytics.DEFAULT_BINS)), metavar="N")
    r.add_argument("--per-job-mean", action="store_true")
    common_numeric(r)
    return parser


def _positive_int(text: str, flag: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise _UsageError(f"{flag} must be a positive integer, got {text!r}")
    return value


def _positive_float(text: str, flag: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:
        raise _UsageError(f"{flag} must be a positive number, got {text!r}")
    return value


def _config(args: argparse.Namespace) -> RunConfig:
    fmt = getattr(args, "fmt", "text")
    if fmt not in ("text", "csv", "json"):
        raise _UsageError(f"--format must be text, csv or json, got {fmt!r}")
    column = getattr(args, "column", "ext")
    if column not in analytics.SHARE_COLUMNS:
        raise _UsageError(f"--column must be one of {'/'.join(analytics.SHARE_COLUMNS)}, got {column!r}")
    metric = _METRICS.get(getattr(args, "metric", "sm"))
    if metric is None:
        raise _UsageError(f"--metric must be sm or mem, got {args.metric!r}")
    return RunConfig(
        power=getattr(args, "power", None),
        proc=getattr(args, "proc", None),
        pidmap=getattr(args, "pidmap", None),
        jobs=getattr(args, "jobs", None),
        external=getattr(args, "external", None),
        slices=getattr(args, "slices", None),
        model=getattr(args, "model", None),
        capacities=getattr(args, "capacities", None),
        fmt=fmt,
        column=column,
        metric=metric,
        bins=_positive_int(getattr(args, "bins", "20"), "--bins"),
        max_gap_s=_positive_float(getattr(args, "max_gap_s", "10"), "--max-gap-s"),
        threads=_positive_int(getattr(args, "threads", "1"), "--threads"),
        affine=getattr(args, "affine", False),
        per_job_mean=getattr(args, "per_job_mean", False),
    )


def _parse_file(path: str, parser_fn: Callable, *args):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parser_fn(fh, *args)
    except TraceError as exc:
        raise _InputError(path, exc) from exc


def _load_capacities(path: str) -> dict[tuple[str, int], float]:
    """Read {"node": {"gpu_index": capacity_mib, ...}, ...}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise WattscopeError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise WattscopeError(f"{path}: capacities must be an object keyed by node")
    out: dict[tuple[str, int], float] = {}
    for node, per_gpu in raw.items():
        if not isinstance(per_gpu, dict):
            raise WattscopeError(f"{path}: capacities for node {node!r} must be an object")
        for key, mib in per_gpu.items():
            try:
                index = int(key)
            except ValueError:
                raise WattscopeError(f"{path}: invalid gpu index {key!r}") from None
            if isinstance(mib, bool) or not isinstance(mib, (int, float)) or mib <= 0:
                raise WattscopeError(f"{path}: invalid capacity for ({node}, {key})")
            out[(node, index)] = float(mib)
    return out


def _require(cfg: RunConfig, names: Sequence[str], context: str):
    missing = [f"--{n}" for n in names if getattr(cfg, n) is None]
    if missing:
        raise _UsageError(f"{context} requires {', '.join(missing)}")


def _load_slices(cfg: RunConfig, jobs: Sequence[JobRecord] | None = None):
    """Read saved slices, or compute them; jobs, when given, is the parsed --jobs file."""
    if cfg.slices is not None:
        return _parse_file(cfg.slices, parse_slices)
    _require(cfg, ("power", "proc", "pidmap", "jobs"), "computing slices")
    power = _parse_file(cfg.power, read_power_trace)
    procs = _parse_file(cfg.proc, read_proc_trace)
    owners = _parse_file(cfg.pidmap, read_pidmap)
    if jobs is None:
        jobs = _parse_file(cfg.jobs, parse_jobs)
    check_owners(owners, jobs)
    return attribute_columns(power, procs, owners)


def _apply_models(slices, models: Sequence[CalibrationModel], err: TextIO):
    by_node: dict[str, CalibrationModel] = {}
    for m in models:
        if m.node_id in by_node:
            raise WattscopeError(f"more than one calibration model for node {m.node_id!r}")
        by_node[m.node_id] = m
    grouped: dict[str, list] = {}
    for s in slices:
        grouped.setdefault(s.node_id, []).append(s)
    out = []
    for node in sorted(grouped):
        model = by_node.get(node)
        if model is None:
            err.write(f"note: no calibration model for node {node}; its external energy counts as 0\n")
            out.extend(grouped[node])
        else:
            out.extend(apply_calibration(model, grouped[node]))
    return out


def _cmd_validate(cfg: RunConfig, out: TextIO, err: TextIO) -> int:
    readers = (
        ("power", read_power_trace),
        ("proc", read_proc_trace),
        ("pidmap", read_pidmap),
        ("jobs", parse_jobs),
        ("external", partial(read_power_trace, expected_kind=EXT)),
        ("slices", parse_slices),
    )
    parts = []
    for name, reader in readers:
        path = getattr(cfg, name)
        if path is None:
            continue
        parsed = _parse_file(path, reader)
        size = sum(len(ts) for ts, _ in parsed.values()) if name == "pidmap" else len(parsed)  # merged snapshots
        parts.append(f"{name}={size}")
    if not parts:
        raise _UsageError("validate needs at least one input file")
    out.write("ok: " + " ".join(parts) + "\n")
    return 0


def _cmd_attribute(cfg: RunConfig, out: TextIO, err: TextIO) -> int:
    _require(cfg, ("power", "proc", "pidmap", "jobs"), "attribute")
    slices = _load_slices(cfg)
    out.write(serialize_slices(slices))
    return 0


def _cmd_calibrate(cfg: RunConfig, out: TextIO, err: TextIO) -> int:
    _require(cfg, ("power", "external"), "calibrate")
    software = _parse_file(cfg.power, read_power_trace)
    external = _parse_file(cfg.external, read_power_trace, EXT)
    models = fit_nodes(software, external, affine=cfg.affine)
    if cfg.model is not None:
        with open(cfg.model, "w", encoding="utf-8") as fh:
            fh.write(serialize_models(models))
    if cfg.fmt == "json":
        out.write(serialize_models(models))
    else:
        header = ["node", "k", "mape_pct", "energy_err_pct", "n"]
        rows = [
            [
                m.node_id,
                format(m.k, ".6g"),
                format(m.mape_pct, ".6g"),
                format(m.energy_err_pct, ".6g") if m.energy_err_pct is not None else "-",
                str(m.n_points),
            ]
            for m in models
        ]
        if cfg.fmt == "csv":
            out.write(analytics._render_csv(header, rows))
        else:
            out.write(analytics._render_table(header, rows))
    return 0


def _job_of_from(cfg: RunConfig) -> Callable[[str, int, float], int | None]:
    _require(cfg, ("pidmap", "jobs"), "--per-job-mean")
    owners = _parse_file(cfg.pidmap, read_pidmap)
    check_owners(owners, _parse_file(cfg.jobs, parse_jobs))
    return partial(owner_at, owners)


def _cmd_report(cfg: RunConfig, what: str, out: TextIO, err: TextIO) -> int:
    if what == "gpu-hist":
        _require(cfg, ("proc",), "report gpu-hist")
        procs = _parse_file(cfg.proc, read_proc_trace)
        capacities = _load_capacities(cfg.capacities) if cfg.capacities else None
        job_of = _job_of_from(cfg) if cfg.per_job_mean else None
        hist = gpu_histogram(procs, cfg.metric, cfg.bins, capacities, job_of)
        out.write(render_report(hist, cfg.fmt))
        return 0

    _require(cfg, ("jobs",), f"report {what}")
    jobs = _parse_file(cfg.jobs, parse_jobs)
    slices = _load_slices(cfg, jobs)
    if cfg.model is not None:
        models = _parse_file(cfg.model, parse_models)
        slices = _apply_models(slices, models, err)
    energies = integrate_energy(slices, max_gap_s=cfg.max_gap_s)
    energies.pop(UNATTRIBUTED_JOB, None)  # pseudo-job is not a scheduler status
    if what == "status":
        report = aggregate_by_status(jobs, energies, cfg.column)
    else:
        report = aggregate_by_user(jobs, energies, cfg.column)
    out.write(render_report(report, cfg.fmt))
    return 0


def run(
    argv: Sequence[str] | None = None,
    stdout: TextIO | None = None,
    stderr: TextIO | None = None,
) -> int:
    """Parse argv and execute one subcommand; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        cfg = _config(args)
        if args.command == "validate":
            return _cmd_validate(cfg, out, err)
        if args.command == "attribute":
            return _cmd_attribute(cfg, out, err)
        if args.command == "calibrate":
            return _cmd_calibrate(cfg, out, err)
        return _cmd_report(cfg, args.what, out, err)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 2
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except _InputError as exc:
        err.write(f"error: {type(exc.cause).__name__}: {exc}\n")
        return 1
    except WattscopeError as exc:
        err.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run())
