"""Trace CSV serialization/ingestion and flat key=value config files."""

from __future__ import annotations

import csv
import re
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from .ecm import Trace

TRACE_HEADER = ["t", "current_a", "voltage_v", "true_soc", "true_up_v"]

# lines `write_lines` joins into one write
CHUNK_LINES = 1024


class TraceFormatError(ValueError):
    pass


# Bytes that numpy's float parse strips as spaces and float() rejects; a file
# holding any of them is left to the row loop.
_LOADTXT_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def write_lines(path, header: list[str], lines) -> None:
    """Write a CSV from its header cells and its comma-joined lines, each
    ending in "\\r\\n" as `csv.writer` ends them. The lines stream to the
    file in chunks of CHUNK_LINES, each joined into one string and written
    in one call: no string of the whole file is built. Cells are written as
    given, so they must hold no comma, quote or line break."""
    lines = iter(lines)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while chunk := list(islice(lines, CHUNK_LINES)):
            chunk.append("")  # the join then ends the last line too
            fh.write("\r\n".join(chunk))


def _trace_columns(trace: Trace) -> list:
    """The columns a trace CSV holds, in TRACE_HEADER's order: the true SOC
    and Up only when the trace has them."""
    cols = [trace.t, trace.current_a, trace.voltage_v]
    if trace.true_soc is not None:
        cols += [trace.true_soc, trace.true_up_v]
    return cols


def write_trace(trace: Trace, path) -> None:
    cols = _trace_columns(trace)
    write_lines(path, TRACE_HEADER[:len(cols)],
                map(",".join, zip(*(map(repr, c.tolist()) for c in cols))))


def trace_key(trace: Trace) -> tuple:
    """The dtype and bytes of each column `write_trace` writes: two traces
    with equal keys are written as the same file. Bytes, not values, since
    -0.0 == 0.0 while their reprs differ."""
    return tuple((c.dtype.str, c.tobytes()) for c in _trace_columns(trace))


def _columns(path, reader) -> dict:
    """Column index by name from the header row, with the required ones
    checked."""
    header = next(reader, None)
    if header is None:
        raise TraceFormatError(f"{path}: empty file")
    cols = [c.strip() for c in header]
    for need in TRACE_HEADER[:3]:
        if need not in cols:
            raise TraceFormatError(f"{path}: missing column '{need}'")
    return {c: cols.index(c) for c in cols}


def _holds_loadtxt_only_spaces(path) -> bool:
    with open(path, "rb") as fb:
        return any(c in block for block in iter(lambda: fb.read(1 << 16), b"")
                   for c in _LOADTXT_ONLY_SPACES)


def _parse_columns(path) -> np.ndarray | None:
    """The samples (t, current_a, voltage_v, and both true columns when the
    header has them) from one C-level parse of the whole file, or None
    where `_parse_rows` must decide: a cell the parse rejects, fewer than 2
    rows, or a non-finite required cell."""
    if _holds_loadtxt_only_spaces(path):
        return None
    with open(path, newline="") as f:
        idx = _columns(path, csv.reader(f))
        names = TRACE_HEADER if "true_soc" in idx and "true_up_v" in idx \
            else TRACE_HEADER[:3]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(f, delimiter=",", comments=None,
                                  quotechar='"', ndmin=2,
                                  usecols=[idx[c] for c in names])
        except ValueError:
            return None
    if len(data) < 2 or not np.isfinite(data[:, :3]).all():
        return None
    return data


def _parse_rows(path) -> np.ndarray:
    """The samples, row by row: the definition of what a trace CSV may
    hold. A truth pair with a cell that is short or empty reads as
    (NaN, NaN); every rejected row is named by its line."""
    rows, linenos = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        idx = _columns(path, reader)
        truth_at = [idx[c] for c in TRACE_HEADER[3:] if c in idx]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                vals = [float(row[idx["t"]]), float(row[idx["current_a"]]),
                        float(row[idx["voltage_v"]])]
                truth = [row[i] for i in truth_at if i < len(row)]
                whole = len(truth) == 2 and "" not in truth
                vals += [float(c) for c in truth] if whole else [np.nan, np.nan]
            except (ValueError, IndexError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: malformed row {row}") from exc
            rows.append(vals)
            linenos.append(lineno)
    if len(rows) < 2:
        raise TraceFormatError(f"{path}: need at least 2 samples")
    data = np.array(rows)
    finite = np.isfinite(data[:, :3]).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise TraceFormatError(f"{path}:{linenos[i]}: non-finite t, current_a "
                               f"or voltage_v {data[i, :3].tolist()}")
    return data


def ingest_trace(path, strict: bool = False) -> Trace:
    """Load a trace CSV. Non-uniform timestamps are rejected under strict
    mode, or else zero-order-hold resampled, with a warning, onto the grid
    from the first to the last t at about the smallest spacing.
    A non-finite t, current or voltage is rejected, naming its line; the
    true columns are optional and may be empty or NaN, and the trace has a
    truth only when some true_soc cell is finite.

    A well-formed file is parsed by whole columns; any other goes through
    the row loop, which gives the same arrays or names the bad line."""
    data = _parse_columns(path)
    if data is None:
        data = _parse_rows(path)
    t, cur, volt = data[:, 0], data[:, 1], data[:, 2]
    has_truth = data.shape[1] > 3 and np.isfinite(data[:, 3]).any()
    soc = data[:, 3] if has_truth else None
    up = data[:, 4] if soc is not None else None
    diffs = np.diff(t)
    if np.any(diffs <= 0):
        raise TraceFormatError(f"{path}: timestamps must be strictly increasing")
    dt = float(diffs[0])
    # each parsed t is off by up to half its float spacing: allow two
    uniform = np.allclose(diffs, dt, rtol=1e-9,
                          atol=1e-9 + 2 * np.spacing(np.abs(t).max()))
    if not uniform:
        if strict:
            raise TraceFormatError(f"{path}: non-uniform sampling under --strict")
        # each sample's grid index, rounded half up: no two share one
        idx = np.floor((t - t[0]) / np.min(diffs) + 0.5).astype(np.int64)
        dt = float((t[-1] - t[0]) / idx[-1])
        warnings.warn(f"resampling {path} to uniform dt={dt}s by zero-order "
                      f"hold: {idx[-1] + 1} samples from {len(t)}", stacklevel=2)
        pick = np.searchsorted(idx, np.arange(idx[-1] + 1), side="right") - 1
        t = np.linspace(t[0], t[-1], idx[-1] + 1)  # t[0] + k * dt
        cur, volt = cur[pick], volt[pick]
        if soc is not None:
            soc, up = soc[pick], up[pick]
    return Trace(t, cur, volt, soc, up, dt=dt)


def read_config(path) -> dict:
    """The pairs of the flat key=value config file `path` (`parse_config`)."""
    return parse_config(Path(path).read_text(), path)


def parse_config(text: str, path="") -> dict:
    """Flat key=value config: one pair per line, each side stripped. A '#'
    that starts a line or follows whitespace starts a comment; any other is
    part of the value. Any other line without '=' raises ValueError naming
    `path` and its line."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def write_config(cfg: dict, path) -> None:
    with open(path, "w") as f:
        for k, v in cfg.items():
            f.write(f"{k}={v}\n")
