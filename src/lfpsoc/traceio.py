"""Trace CSV serialization/ingestion and flat key=value config files."""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .ecm import Trace

TRACE_HEADER = ["t", "current_a", "voltage_v", "true_soc", "true_up_v"]


class TraceFormatError(ValueError):
    pass


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TRACE_HEADER)
        has_truth = trace.true_soc is not None
        for i in range(len(trace)):
            row = [repr(float(trace.t[i])), repr(float(trace.current_a[i])),
                   repr(float(trace.voltage_v[i]))]
            if has_truth:
                row += [repr(float(trace.true_soc[i])),
                        repr(float(trace.true_up_v[i]))]
            w.writerow(row)


def ingest_trace(path, strict: bool = False) -> Trace:
    """Load a trace CSV. Non-uniform timestamps are zero-order-hold resampled
    to the smallest spacing with a warning, or rejected under strict mode.
    A non-finite t, current or voltage is rejected, naming its line; the
    true columns are optional and may be empty or NaN."""
    rows, linenos = [], []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise TraceFormatError(f"{path}: empty file")
        cols = [c.strip() for c in header]
        for need in TRACE_HEADER[:3]:
            if need not in cols:
                raise TraceFormatError(f"{path}: missing column '{need}'")
        idx = {c: cols.index(c) for c in cols}
        has_truth = "true_soc" in idx and "true_up_v" in idx
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                vals = [float(row[idx["t"]]), float(row[idx["current_a"]]),
                        float(row[idx["voltage_v"]])]
                if has_truth and len(row) > max(idx["true_soc"], idx["true_up_v"]) \
                        and row[idx["true_soc"]] != "":
                    vals += [float(row[idx["true_soc"]]),
                             float(row[idx["true_up_v"]])]
                else:
                    vals += [np.nan, np.nan]
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
    t, cur, volt = data[:, 0], data[:, 1], data[:, 2]
    soc = data[:, 3] if not np.all(np.isnan(data[:, 3])) else None
    up = data[:, 4] if soc is not None else None
    diffs = np.diff(t)
    if np.any(diffs <= 0):
        raise TraceFormatError(f"{path}: timestamps must be strictly increasing")
    dt = float(diffs[0])
    uniform = np.allclose(diffs, dt, rtol=1e-9, atol=1e-9)
    if not uniform:
        if strict:
            raise TraceFormatError(f"{path}: non-uniform sampling under --strict")
        new_dt = float(np.min(diffs))
        warnings.warn(f"resampling {path} to uniform dt={new_dt}s by zero-order hold",
                      stacklevel=2)
        new_t = np.arange(t[0], t[-1] + 0.5 * new_dt, new_dt)
        pick = np.searchsorted(t, new_t + 1e-12, side="right") - 1
        cur, volt = cur[pick], volt[pick]
        if soc is not None:
            soc, up = soc[pick], up[pick]
        t, dt = new_t, new_dt
    return Trace(t, cur, volt, soc, up, dt=dt)


def read_config(path) -> dict:
    """Flat key=value config: one pair per line, '#' comments allowed."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
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
