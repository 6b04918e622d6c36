"""The JSON-lines layer that every wire format shares.

Every input is JSON lines: one object per line, UTF-8, LF terminated,
unknown keys ignored.  iter_records numbers and decodes the lines, the
_field_* helpers check one field of a record and name it in a located
error, and canonical_ts puts a timestamp on the millisecond grid.  The
output side is here too: the compact JSON encoder, the text, csv and json
table writers, and the constants that the CLI's parser and more than one
layer use.  This module loads only errors and the json module, so a
command that reads no power or proc trace never loads traces.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Iterator

from .errors import MalformedLine

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


# The trace readers check each record in one pass: a record that passes the
# inline checks is taken as is; any other record goes through the _field_*
# helpers in their documented order, which either accept it or raise the
# located error.  JSON yields exact int/float types, and _NUM_MAX keeps the
# inline path clear of infinities and of integers beyond the float range.
_NUM = (float, int)
_NUM_MAX = 1e308

# compact JSON for one output line; a NaN or infinity raises ValueError rather than
# writing a token that no JSON reader accepts
_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
