"""Command-line interface.

Subcommands: validate, attribute, calibrate, report (status | user |
gpu-hist).  Every option that takes a value falls back to a WATTSCOPE_*
environment variable (e.g. --power -> WATTSCOPE_POWER).  Exit codes: 0
success, 1 input validation failure, 2 usage error; bad option values are
reported in argv order, then those from the environment.  Results go to stdout and
are written only after the whole command has succeeded, so stdout is
empty on failure; diagnostics (with line numbers) go to stderr.
Identical argv and input files produce byte-identical stdout.
--threads is accepted and validated but has no effect.
Each command imports only the modules it runs, so that its start-up
stays near the interpreter's own, and main skips the interpreter's final
garbage collection.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import partial
from typing import TYPE_CHECKING, Callable, Sequence, TextIO

from .errors import MalformedLine, WattscopeError

if TYPE_CHECKING:
    from .attribution import SliceColumns
    from .calibration import CalibrationModel
    from .jobs import JobRecord, OwnerIndex

ENV_PREFIX = "WATTSCOPE_"

_PATHS = ("power", "proc", "pidmap", "jobs", "external", "slices", "model", "capacities")


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


class _HelpFormatter(argparse.HelpFormatter):
    """Places the help column as Python 3.13 does, counting each subcommand's indent, on older Pythons too."""

    def add_argument(self, action):
        if action.help is not argparse.SUPPRESS:
            for sub in self._iter_indented_subactions(action):
                width = len(self._format_action_invocation(sub)) + self._current_indent
                self._action_max_length = max(self._action_max_length, width)
        super().add_argument(action)


def _checked(flag: str, expected: str, parse: Callable[[str], object]) -> Callable[[str], object]:
    """An argparse type for flag: parse's value, or a usage error when parse gives None or fails.

    argparse lets the usage error through unchanged, for argv values in
    argv order and then for WATTSCOPE_* string defaults.
    """

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None:
            raise _UsageError(f"{flag} must be {expected}, got {text!r}")
        return value

    return convert


def _positive(number: Callable[[str], float]) -> Callable[[str], float | None]:
    def parse(text: str):
        value = number(text)
        return value if value > 0 else None

    return parse


def _build_parser() -> _Parser:
    from .lines import DEFAULT_BINS, MEM_PCT, SHARE_COLUMNS, SM_PCT

    parser = _Parser(prog="wattscope", description=__doc__.splitlines()[0], formatter_class=_HelpFormatter)
    parser.set_defaults(**dict.fromkeys(_PATHS, None))
    sub = parser.add_subparsers(dest="command", metavar="command")

    def flag(p: _Parser, name: str, default: str | None = None, check: tuple | None = None, **kw):
        default = os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"), default)
        p.add_argument(f"--{name}", default=default, type=_checked(f"--{name}", *check) if check else None, **kw)

    def paths(p: _Parser, *names: str):
        for name in names:
            flag(p, name, metavar="PATH")

    def output_format(p: _Parser):
        flag(p, "format", "text", ("text, csv or json", {k: k for k in ("text", "csv", "json")}.get), metavar="FMT")

    v = sub.add_parser("validate", help="parse inputs and report their sizes")
    paths(v, "power", "proc", "pidmap", "jobs", "external", "slices")

    a = sub.add_parser("attribute", help="emit attribution slices as JSON lines")
    paths(a, "power", "proc", "pidmap", "jobs")

    c = sub.add_parser("calibrate", help="fit per-node wattmeter scale factors")
    paths(c, "power", "external", "model")
    output_format(c)

    r = sub.add_parser("report", help="render energy and utilization reports")
    r.add_argument("what", choices=["status", "user", "gpu-hist"])
    paths(r, "jobs", "slices", "power", "proc", "pidmap", "model", "capacities")
    output_format(r)
    flag(r, "column", "ext", (f"one of {'/'.join(SHARE_COLUMNS)}", {k: k for k in SHARE_COLUMNS}.get))
    metrics = {"sm": SM_PCT, "mem": MEM_PCT, SM_PCT: SM_PCT, MEM_PCT: MEM_PCT}
    flag(r, "metric", "sm", ("sm or mem", metrics.get))
    flag(r, "bins", str(DEFAULT_BINS), ("a positive integer", _positive(int)), metavar="N")
    r.add_argument("--per-job-mean", action="store_true")
    flag(r, "max-gap-s", "10", ("a positive number", _positive(float)), metavar="S")
    for p in (a, r):
        flag(p, "threads", "1", ("a positive integer", _positive(int)), metavar="N")
    return parser


def _not_utf8(path: str) -> WattscopeError:
    """The error for a file that does not decode as UTF-8, located at its first such line."""
    # a second pass, made only on failure; the same line splitting as the parsers' numbering
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:  # an undecodable byte, escaped to a lone surrogate
                return _InputError(path, MalformedLine(line_no, "not UTF-8 text"))
    return WattscopeError(f"{path}: not UTF-8 text")  # the file changed since the first reading


def _parse_file(path: str, parser_fn: Callable, *args):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parser_fn(fh, *args)
    except WattscopeError as exc:
        raise _InputError(path, exc) from exc
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _read_capacities(fh: TextIO) -> dict[tuple[str, int], float]:
    """Read {"node": {"gpu_index": capacity_mib, ...}, ...}; a key repeated within an object is an error."""

    def unique(pairs: list) -> dict:  # json.load alone would keep the last of two equal keys
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise WattscopeError(f"repeated key {key!r}")
            obj[key] = value
        return obj

    # json numbers lines by "\n" alone and _parse_file keeps "\r", so end every line with "\n", as text mode does
    text = fh.read().replace("\r\n", "\n").replace("\r", "\n")
    try:
        raw = json.loads(text, object_pairs_hook=unique)
    except (ValueError, RecursionError) as exc:  # RecursionError: arrays or objects nested too deeply
        raise WattscopeError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise WattscopeError("capacities must be an object keyed by node")
    out: dict[tuple[str, int], float] = {}
    for node, per_gpu in raw.items():
        if not isinstance(per_gpu, dict):
            raise WattscopeError(f"capacities for node {node!r} must be an object")
        for key, mib in per_gpu.items():
            try:
                index = int(key)
                if str(index) != key:  # "01" would alias gpu 1
                    raise ValueError
            except ValueError:
                raise WattscopeError(f"invalid gpu index {key!r}") from None
            # NaN, an infinity, and an integer too large for a float would each bin wrongly or fail later
            if isinstance(mib, bool) or not isinstance(mib, (int, float)) or not 0 < mib <= sys.float_info.max:
                raise WattscopeError(f"invalid capacity for ({node}, {key})")
            out[(node, index)] = float(mib)
    return out


def _require(args: argparse.Namespace, names: Sequence[str], context: str):
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise _UsageError(f"{context} requires {', '.join(missing)}")


def _owners(args: argparse.Namespace, jobs: Sequence[JobRecord] | None = None) -> OwnerIndex:
    """The --pidmap index, checked against jobs or else the --jobs file."""
    from .jobs import check_owners, parse_jobs, read_pidmap

    owners = _parse_file(args.pidmap, read_pidmap)
    check_owners(owners, jobs if jobs is not None else _parse_file(args.jobs, parse_jobs))
    return owners


def _load_slices(args: argparse.Namespace, jobs: Sequence[JobRecord] | None = None) -> SliceColumns:
    """Read saved slices, or compute them; jobs, when given, is the parsed --jobs file."""
    if args.slices is not None:
        from .attribution import read_slices

        return _parse_file(args.slices, read_slices)
    from .split import attribute_columns
    from .traces import read_power_trace, read_proc_trace

    _require(args, ("power", "proc", "pidmap", "jobs"), "computing slices")
    power = _parse_file(args.power, read_power_trace)
    procs = _parse_file(args.proc, read_proc_trace)
    return attribute_columns(power, procs, _owners(args, jobs))


def _apply_models(slices: SliceColumns, path: str) -> SliceColumns:
    """Calibrate slices with the --model file, which must cover every node they are on."""
    from .attribution import apply_calibration
    from .calibration import parse_models

    by_node: dict[str, CalibrationModel] = {}
    for m in _parse_file(path, parse_models):
        if m.node_id in by_node:
            raise WattscopeError(f"more than one calibration model for node {m.node_id!r}")
        by_node[m.node_id] = m
    missing = sorted(set(slices.nodes) - by_node.keys())
    if missing:  # their ext energy would count as 0 and skew every ext share
        raise WattscopeError(f"{path}: no calibration model for node(s) {', '.join(map(repr, missing))}")
    return apply_calibration(by_node, slices)


def _cmd_validate(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .jobs import parse_jobs, read_pidmap

    readers = {"power": None, "proc": None, "pidmap": read_pidmap, "jobs": parse_jobs, "external": None}  # in ok: line order
    if (args.power, args.proc, args.external) != (None, None, None):  # the only inputs that need traces loaded
        from .lines import EXT
        from .traces import read_power_trace, read_proc_trace

        readers.update(power=read_power_trace, proc=read_proc_trace,
                       external=partial(read_power_trace, expected_kind=EXT))
    if args.slices is not None:  # the only input that needs attribution loaded
        from .attribution import read_slices

        readers["slices"] = read_slices
    parts = []
    for name, reader in readers.items():
        path = getattr(args, name)
        if path is None:
            continue
        parsed = _parse_file(path, reader)
        size = sum(len(ts) for ts, _ in parsed.values()) if name == "pidmap" else len(parsed)  # merged snapshots
        parts.append(f"{name}={size}")
    if not parts:
        raise _UsageError("validate needs at least one input file")
    out.write("ok: " + " ".join(parts) + "\n")
    return 0


def _cmd_attribute(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .attribution import serialize_slices

    _require(args, ("power", "proc", "pidmap", "jobs"), "attribute")
    slices = _load_slices(args)
    out.write(serialize_slices(slices))
    return 0


def _cmd_calibrate(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .calibration import fit_nodes, serialize_models
    from .lines import EXT, _render
    from .traces import read_power_trace

    _require(args, ("power", "external"), "calibrate")
    software = _parse_file(args.power, read_power_trace)
    external = _parse_file(args.external, read_power_trace, EXT)
    models = fit_nodes(software, external)
    lines = serialize_models(models)
    if args.model is not None:
        with open(args.model, "w", encoding="utf-8") as fh:
            fh.write(lines)
    rows = (
        [m.node_id, format(m.k, ".6g"), format(m.mape_pct, ".6g"),
         format(m.energy_err_pct, ".6g") if m.energy_err_pct is not None else "-", str(m.n_points)]
        for m in models
    )
    out.write(_render(args.format, ["node", "k", "mape_pct", "energy_err_pct", "n"], rows, lines))
    return 0


def _cmd_report(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    from .analytics import aggregate_by_status, aggregate_by_user, gpu_histogram, render_report

    if args.what == "gpu-hist":  # reads proc alone, and jobs for --per-job-mean; never attribution
        from .traces import read_proc_trace

        _require(args, ("proc",), "report gpu-hist")
        procs = _parse_file(args.proc, read_proc_trace)
        capacities = _parse_file(args.capacities, _read_capacities) if args.capacities else None
        job_of = None
        if args.per_job_mean:
            from .jobs import owner_at

            _require(args, ("pidmap", "jobs"), "--per-job-mean")
            job_of = partial(owner_at, _owners(args))
        hist = gpu_histogram(procs, args.metric, args.bins, capacities, job_of)
        out.write(render_report(hist, args.format))
        return 0

    from .attribution import integrate_energy
    from .jobs import UNATTRIBUTED_JOB, parse_jobs

    _require(args, ("jobs",), f"report {args.what}")
    jobs = _parse_file(args.jobs, parse_jobs)
    slices = _load_slices(args, jobs)
    if args.model is not None:
        slices = _apply_models(slices, args.model)
    energies = integrate_energy(slices, max_gap_s=args.max_gap_s)
    energies.pop(UNATTRIBUTED_JOB, None)  # pseudo-job is not a scheduler status
    if args.what == "status":
        report = aggregate_by_status(jobs, energies, args.column)
    else:
        report = aggregate_by_user(jobs, energies, args.column)
    out.write(render_report(report, args.format))
    return 0


_COMMANDS = {"validate": _cmd_validate, "attribute": _cmd_attribute, "calibrate": _cmd_calibrate, "report": _cmd_report}


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
        return _COMMANDS[args.command](args, out, err)
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
    """The console script and `python -m wattscope`.

    Every object still alive when run returns lives until the process ends,
    so gc.freeze moves them all out of the interpreter's reach: its final
    collections, run after sys.exit, then have nothing to scan.  stdout and
    stderr are still flushed and atexit handlers still run.
    """
    code = run()
    gc.freeze()
    sys.exit(code)
