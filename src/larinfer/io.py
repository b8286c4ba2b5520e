"""CSV ingestion, report assembly, and serialization for the CLI.

All real numbers are serialized with ``repr`` (shortest round-trip, up to 17
significant digits) so reports re-parse to the exact in-memory values; the
CSV formats get that from ``csv.writer``, which writes a float as its ``repr``.
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from .exceptions import CsvParseError

if TYPE_CHECKING:
    from .bootstrap import BootstrapConfig, IntervalSet
    from .inference import InferenceReport
    from .path import LarPath

SCHEMA_VERSION = 1

Matrix = NDArray[np.float64]


# Body text per ``np.loadtxt`` call as the body streams into its arrays.  A
# block's text and table are alive beside the arrays, so they are kept small;
# a fixed row count would let them grow with the row width.
_BLOCK_CHARS = 1 << 17


def read_csv(path: str | Path, response: str, order: str = "F"):
    """Read a numeric CSV with a required header row and split off its
    response column.

    Comma-separated, UTF-8 with an optional byte-order mark, '.' decimal.
    Raises CsvParseError with 1-based row/column coordinates on any
    malformed or non-finite cell or ragged row, and after that on a
    ``response`` that is neither a header name that no other column has nor
    a 0-based column index.  Returns the other columns' names, their values
    in ``order`` ("F" or "C") and the response column.

    The body rows are counted in a binary pass, the output is allocated, and
    the body is parsed straight into it with ``np.loadtxt`` in blocks of
    about 128 KiB.  That parser skips blank lines and accepts ``nan``/``inf``,
    and rejects some cells that the ``csv`` module and ``float`` accept
    (``1_0``, quoted numbers, non-ASCII digits).  So on a loadtxt error, a
    blank or whitespace-only body line, a non-finite value, a column count
    that differs from the header or a row count that differs from the binary
    pass, the body is parsed again cell by cell, which either fills the
    output or raises the error with its coordinates.
    """
    rows = _count_lines(path) - 1
    with open(path, newline="", encoding="utf-8-sig") as fh:
        names = _header(_rows(fh))
        try:
            idx, fault = _response_index(names, response), None
        except CsvParseError as exc:
            # a fault in the body is reported before this one
            idx, fault = 0, exc
        try:
            parsed = _fill(_loadtxt_blocks(fh, len(names)), rows, len(names), idx, order)
        except MemoryError:  # the count may be inflated (by blank lines, say)
            parsed = None
    if parsed is None:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = _rows(fh)
            next(reader)
            table = _parse_cells(reader, len(names))
        parsed = _fill([table], len(table), len(names), idx, order)
    if fault is not None:
        raise fault
    return [n for i, n in enumerate(names) if i != idx], *parsed


def _count_lines(path: str | Path) -> int:
    """The number of lines in a file, split as text mode with ``newline=""``
    splits them: at each LF, CRLF or lone CR, plus an unterminated last line."""
    lines, last = 0, b""
    with open(path, "rb") as fb:
        while chunk := fb.read(1 << 16):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":
                lines -= 1  # a CRLF split across two chunks
            last = chunk[-1:]
    return lines + (last not in (b"", b"\n", b"\r"))


def _fill(blocks, rows: int, width: int, idx: int, order: str):
    """Features (in ``order``) and response column ``idx`` of ``rows`` body
    rows, written from ``blocks`` of parsed rows; None if the blocks hold
    another number of rows, or if there are no rows."""
    X = np.empty((rows, width - 1), order=order)
    y = np.empty(rows)
    start = 0
    for block in blocks:
        stop = start + len(block)
        if stop > rows:
            return None
        X[start:stop, :idx] = block[:, :idx]
        X[start:stop, idx:] = block[:, idx + 1:]
        y[start:stop] = block[:, idx]
        start = stop
        del block  # so the next block is parsed with none alive
    return (X, y) if start == rows > 0 else None


def _loadtxt_blocks(fh, width: int):
    """The rest of ``fh`` parsed by ``np.loadtxt`` a block at a time, up to
    the first block that the cell loop must judge: so the blocks hold fewer
    rows than the binary pass counted unless the body is regular."""
    try:
        while lines := fh.readlines(_BLOCK_CHARS):
            if not all(map(str.strip, lines)):
                return
            block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if block.shape != (len(lines), width) or not np.isfinite(block).all():
                return
            del lines
            yield block
            del block
    except ValueError:
        return


def _rows(fh):
    """The rows of a CSV file; a ``csv.Error`` (such as a field over the csv
    module's size limit) becomes a CsvParseError that names its line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise CsvParseError(f"unreadable row: {exc}", reader.line_num, 1) from None


def _header(reader) -> list[str]:
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError("empty file", 1, 1) from None
    names = [h.strip() for h in header]
    if any(not name for name in names):
        col = next(i for i, name in enumerate(names) if not name) + 1
        raise CsvParseError("empty header field", 1, col)
    return names


def _parse_cells(reader, width: int) -> Matrix:
    """Parse the body cell by cell with ``float``, raising on the first bad cell."""
    rows: list[list[float]] = []
    for r, raw in enumerate(reader, start=2):
        if len(raw) != width:
            raise CsvParseError(f"expected {width} fields, found {len(raw)}", r, len(raw) + 1)
        parsed = []
        for c, cell in enumerate(raw, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise CsvParseError(f"malformed numeric cell {cell!r}", r, c) from None
            if not math.isfinite(value):
                raise CsvParseError(f"non-finite numeric cell {cell!r}", r, c)
            parsed.append(value)
        rows.append(parsed)
    if not rows:
        raise CsvParseError("no data rows", 2, 1)
    return np.array(rows)


def _response_index(names: list[str], response: str) -> int:
    """The 0-based column of ``response``: a header name that no other column
    has, or else a column index."""
    matches = [i for i, name in enumerate(names) if name == response]
    if len(matches) > 1:
        cols = " and ".join(str(i + 1) for i in matches)
        raise CsvParseError(f"response name {response!r} matches columns {cols}", 1, None)
    if matches:
        return matches[0]
    try:
        idx = int(response)
    except ValueError:
        raise CsvParseError(f"no column named {response!r}", 1, None) from None
    if not 0 <= idx < len(names):
        raise CsvParseError(f"response index {idx} out of range 0 to {len(names) - 1}",
                            1, None)
    return idx


def _report(kind: str, path: LarPath, n: int, p: int, centered: bool, response: str,
            **body) -> dict:
    """A report document: the shared head, ``body`` in its order, then the
    correlation and coefficient traces of ``path``.  The traces stay m x p
    arrays, which the writers format a row at a time."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "n": n,
        "p": p,
        "response": response,
        "centered": centered,
        **body,
        "correlation_traces": np.abs(path.correlations_all),
        "coefficient_traces": path.coefficients,
    }


def path_report_dict(
    path: LarPath, n: int, p: int, centered: bool, names: list[str], response: str
) -> dict:
    """Fit report: step table plus correlation and coefficient traces."""
    columns = zip(path.entrants, path.signs.tolist(), path.correlations.tolist(),
                  path.angles.tolist(), path.weights.tolist())
    steps = [
        {
            "step": k,
            "variable": names[j],
            "index": j,
            "sign": sign,
            "correlation": corr,
            "angle": angle,
            "weight": weight,
        }
        for k, (j, sign, corr, angle, weight) in enumerate(columns, start=1)
    ]
    return _report("fit", path, n, p, centered, response, variables=names,
                   terminated_at=path.terminated_at, steps=steps)


def infer_report_dict(
    path: LarPath, n: int, p: int, centered: bool, names: list[str], response: str,
    inference: InferenceReport, intervals: IntervalSet, cfg: BootstrapConfig,
) -> dict:
    """Inference report: the stopping-rule table, the terminal coefficients,
    every step's coefficient intervals and the membership frequencies."""
    inf, iv = inference, intervals
    step_rows = [
        {
            "step": k,
            "variable": names[path.entrants[k - 1]],
            "tail_sum": float(inf.S[k - 1]),
            "threshold": float(inf.thresholds[k - 1]),
            "correlation": float(path.correlations[k - 1]),
            "interval_lo": float(iv.correlation_intervals[k - 1, 0]),
            "interval_hi": float(iv.correlation_intervals[k - 1, 1]),
        }
        for k in range(1, path.terminated_at + 1)
    ]
    m_bar = inf.m_bar
    terminal_rows = [
        {
            "variable": names[j],
            "estimate": float(iv.b_bar[j]),
            "interval_lo": float(iv.coefficient_intervals[(m_bar, j)][0]),
            "interval_hi": float(iv.coefficient_intervals[(m_bar, j)][1]),
            "raw_estimate": float(iv.raw_b_bar[j]),
        }
        for j in path.entrants[:m_bar]
    ]
    coef_rows = [
        {
            "step": k,
            "variable": names[j],
            "estimate": float(
                iv.b_bar[j] if k == m_bar else path.coefficients[k - 1, j]
            ),
            "interval_lo": float(lo),
            "interval_hi": float(hi),
        }
        for (k, j), (lo, hi) in sorted(iv.coefficient_intervals.items())
    ]
    return _report(
        "infer", path, n, p, centered, response, alpha=cfg.alpha, draws=cfg.draws,
        seed=cfg.seed, variables=names, sigma_hat=float(inf.sigma_hat), m_bar=m_bar,
        steps=step_rows, terminal_coefficients=terminal_rows,
        coefficient_intervals=coef_rows, membership_freq=iv.membership_freq.tolist(),
    )


def write_json(doc: dict, out) -> None:
    """Write ``doc`` exactly as ``json.dump(doc, out, indent=2)`` and a newline,
    where a numpy array is written as its ``tolist()``.

    An array of two or more dimensions is written a row at a time, so only
    one row is ever held as Python floats.  A flat list of finite floats (a
    trace row) is formatted with one join of ``float.__repr__``, which is
    what ``json`` itself calls on each float.
    Dicts with string keys and non-empty lists are laid out here, one item at
    a time, so the report text is never held whole, and so are keys and
    scalars (strings, bools, None, ints, finite floats); every other value,
    NaN and infinities included, goes to ``json``.
    """
    _write_value(doc, out, "\n")
    out.write("\n")


def _write_value(value, out, newline: str) -> None:
    """Write one value whose line breaks are followed by ``newline``'s indent."""
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        value = list(value) if value.ndim > 1 else value.tolist()
    if isinstance(value, (list, tuple)) and value:
        try:
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # an item that is not a float
            text = "n"
        # a finite float's repr holds no 'n'; json writes nan and inf as NaN
        # and Infinity, so those lists go item by item like mixed ones
        if "n" not in text:
            out.write("[" + inner + text + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.write(sep)
            _write_value(item, out, inner)
            sep = "," + inner
        out.write(newline + "]")
    elif isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        sep = "{" + inner
        for key, item in value.items():
            out.write(sep + encode_basestring_ascii(key) + ": ")
            _write_value(item, out, inner)
            sep = "," + inner
        out.write(newline + "}")
    else:
        text = _scalar_text(value)
        if text is None:
            # json escapes every newline inside strings, so each "\n" here
            # is the start of an indented line
            text = json.dumps(value, indent=2).replace("\n", newline)
        out.write(text)


def _scalar_text(value) -> str | None:
    """``json.dumps(value)`` for a string, bool, None, int or finite float,
    by the calls ``json`` itself makes; None for any other value."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return None


def write_fit_csv(doc: dict, out) -> None:
    names = doc["variables"]
    writer = csv.writer(out)
    header = ["step", "variable", "sign", "correlation", "angle", "weight"]
    writer.writerow(header + [f"abs_corr_{n}" for n in names] + [f"coef_{n}" for n in names])
    traces = zip(doc["correlation_traces"], doc["coefficient_traces"])
    for row, (corr, coef) in zip(doc["steps"], traces):
        # a trace row as Python floats, which csv writes as their repr (it
        # would write a numpy scalar as "np.float64(...)")
        writer.writerow([row[key] for key in header]
                        + np.asarray(corr).tolist() + np.asarray(coef).tolist())


def write_infer_csv(doc: dict, out) -> None:
    writer = csv.writer(out)
    writer.writerow(
        ["step", "variable", "tail_sum", "threshold", "correlation",
         "interval_lo", "interval_hi"]
    )
    writer.writerows(row.values() for row in doc["steps"])
    writer.writerow([])
    writer.writerow(["variable", "estimate", "interval_lo", "interval_hi", "raw_estimate"])
    writer.writerows(row.values() for row in doc["terminal_coefficients"])
