"""OCV-SOC curve representation: evaluation, slopes, and error injection."""

from __future__ import annotations

import csv
import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


class CurveDomainError(ValueError):
    """SOC query outside the curve's knot domain (no extrapolation)."""


class InvalidTransformError(ValueError):
    """Transform would produce a curve violating knot invariants."""


@dataclass(frozen=True)
class OcvCurve:
    """Piecewise-linear OCV(SOC) interpolant over strictly increasing knots.
    A float inside the knot domain bisects knot lists cached at construction
    (`np.interp`'s arithmetic); anything else takes the numpy path."""

    knot_soc: np.ndarray
    knot_ocv: np.ndarray

    def __post_init__(self):
        soc = np.asarray(self.knot_soc, dtype=float)
        ocv = np.asarray(self.knot_ocv, dtype=float)
        object.__setattr__(self, "knot_soc", soc)
        object.__setattr__(self, "knot_ocv", ocv)
        if soc.ndim != 1 or soc.shape != ocv.shape:
            raise ValueError("knot arrays must be 1-d and equal length")
        if soc.size < 2:
            raise ValueError("need at least 2 knots")
        if not (np.all(np.isfinite(soc)) and np.all(np.isfinite(ocv))):
            raise ValueError("knots must be finite")
        if np.any(np.diff(soc) <= 0):
            raise ValueError("knot soc must be strictly increasing")
        if soc[0] < 0.0 or soc[-1] > 1.0:
            raise ValueError("knot soc must lie within [0, 1]")
        # knots a few ulp apart can make a segment slope overflow
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            seg = self.segment_slopes()
        if not np.all(np.isfinite(seg)):
            raise ValueError("knots too close: a segment slope is not finite")
        # Measured curves can wiggle slightly; only warn.
        if np.any(np.diff(ocv) < 0):
            warnings.warn("OCV curve has non-monotonic dips", stacklevel=2)
        object.__setattr__(self, "_soc", soc.tolist())
        object.__setattr__(self, "_ocv", ocv.tolist())
        object.__setattr__(self, "_seg", seg.tolist())

    @property
    def soc_min(self) -> float:
        return self._soc[0]

    @property
    def soc_max(self) -> float:
        return self._soc[-1]

    def _check_domain(self, soc):
        soc = np.asarray(soc, dtype=float)
        if np.any(soc < 0.0) or np.any(soc > 1.0):
            raise CurveDomainError(f"soc outside [0, 1]: {soc}")
        if np.any(soc < self.soc_min) or np.any(soc > self.soc_max):
            raise CurveDomainError(
                f"soc outside curve domain [{self.soc_min}, {self.soc_max}]"
            )
        return soc

    def ocv(self, soc):
        """Interpolated OCV at `soc` (scalar or array). No extrapolation."""
        if isinstance(soc, (int, float)) and \
                self._soc[0] <= soc <= self._soc[-1]:
            j = bisect_right(self._soc, soc) - 1
            if self._soc[j] == soc:
                return self._ocv[j]
            return self._seg[j] * (soc - self._soc[j]) + self._ocv[j]
        s = self._check_domain(soc)
        out = np.interp(s, self.knot_soc, self.knot_ocv)
        return float(out) if np.isscalar(soc) or np.ndim(soc) == 0 else out

    def segment_slopes(self) -> np.ndarray:
        return np.diff(self.knot_ocv) / np.diff(self.knot_soc)

    def slope(self, soc):
        """dOCV/dSOC: segment slope inside segments, mean of the two adjacent
        segment slopes at interior knots, one-sided at boundary knots."""
        if isinstance(soc, (int, float)) and \
                self._soc[0] <= soc <= self._soc[-1]:
            seg = self._seg
            j = bisect_right(self._soc, soc) - 1
            if self._soc[j] == soc:
                return 0.5 * (seg[max(j - 1, 0)] + seg[min(j, len(seg) - 1)])
            return seg[j]
        s = self._check_domain(soc)
        seg = self.segment_slopes()
        scalar = np.isscalar(soc) or np.ndim(soc) == 0
        s_arr = np.atleast_1d(s)
        out = np.empty_like(s_arr)
        idx = np.searchsorted(self.knot_soc, s_arr, side="right") - 1
        idx = np.clip(idx, 0, len(seg) - 1)
        out[:] = seg[idx]
        # Knot points get the averaged (or one-sided) slope.
        on_knot = np.isin(s_arr, self.knot_soc)
        if np.any(on_knot):
            kidx = np.searchsorted(self.knot_soc, s_arr[on_knot])
            left = seg[np.clip(kidx - 1, 0, len(seg) - 1)]
            right = seg[np.clip(kidx, 0, len(seg) - 1)]
            out[on_knot] = 0.5 * (left + right)
        return float(out[0]) if scalar else out

    def max_abs_slope(self) -> float:
        return float(np.max(np.abs(self.segment_slopes())))

    # -- I/O --------------------------------------------------------------

    @classmethod
    def from_csv(cls, path) -> "OcvCurve":
        """Load a `soc,ocv_v` CSV, reporting the offending row on failure."""
        rows = []
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != ["soc", "ocv_v"]:
                raise ValueError(f"{path}: expected header 'soc,ocv_v', got {header}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    rows.append((float(row[0]), float(row[1])))
                except (ValueError, IndexError) as exc:
                    raise ValueError(f"{path}:{lineno}: malformed row {row}") from exc
        if len(rows) < 2:
            raise ValueError(f"{path}: need at least 2 knots")
        soc, ocv = zip(*rows)
        return cls(np.array(soc), np.array(ocv))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["soc", "ocv_v"])
            for s, v in zip(self.knot_soc, self.knot_ocv):
                w.writerow([repr(float(s)), repr(float(v))])


@dataclass(frozen=True)
class CurveTransform:
    """Controlled curve perturbation for error-injection experiments.

    kinds: 'voltage-offset' (volts), 'soc-shift' (fraction),
    'slope-scale' (dimensionless, about the curve mean),
    'blend-toward' (convex combination with `other` at `weight`).
    """

    kind: str
    magnitude: float = 0.0
    other: OcvCurve | None = None
    weight: float = 0.0

    def __post_init__(self):
        kinds = {"voltage-offset", "soc-shift", "slope-scale", "blend-toward"}
        if self.kind not in kinds:
            raise InvalidTransformError(f"unknown transform kind {self.kind!r}")
        if self.kind == "blend-toward":
            if self.other is None:
                raise InvalidTransformError("blend-toward requires another curve")
            if not 0.0 <= self.weight <= 1.0:
                raise InvalidTransformError("blend weight must be in [0, 1]")


def curve_error(actual: OcvCurve, original: OcvCurve, soc) -> float:
    """Measurement-model gap at `soc`: actual OCV minus original OCV."""
    return actual.ocv(soc) - original.ocv(soc)


def apply_transform(curve: OcvCurve, t: CurveTransform) -> OcvCurve:
    if t.kind == "voltage-offset":
        return OcvCurve(curve.knot_soc.copy(), curve.knot_ocv + t.magnitude)
    if t.kind == "slope-scale":
        mean = float(np.mean(curve.knot_ocv))
        return OcvCurve(curve.knot_soc.copy(), mean + t.magnitude * (curve.knot_ocv - mean))
    if t.kind == "soc-shift":
        shifted = curve.knot_soc + t.magnitude
        lo = max(0.0, float(shifted[0]))
        hi = min(1.0, float(shifted[-1]))
        if hi - lo <= 0:
            raise InvalidTransformError("soc-shift pushes curve outside [0, 1]")
        keep = (shifted > lo) & (shifted < hi)
        new_soc = np.concatenate(([lo], shifted[keep], [hi]))
        new_ocv = np.interp(new_soc, shifted, curve.knot_ocv)
        return OcvCurve(new_soc, new_ocv)
    # blend-toward: pointwise convex combination on the union knot grid
    other = t.other
    lo = max(curve.soc_min, other.soc_min)
    hi = min(curve.soc_max, other.soc_max)
    if hi <= lo:
        raise InvalidTransformError("blend curves have disjoint domains")
    grid = np.union1d(curve.knot_soc, other.knot_soc)
    grid = grid[(grid >= lo) & (grid <= hi)]
    if grid[0] > lo:
        grid = np.concatenate(([lo], grid))
    if grid[-1] < hi:
        grid = np.concatenate((grid, [hi]))
    blended = (1.0 - t.weight) * curve.ocv(grid) + t.weight * other.ocv(grid)
    return OcvCurve(grid, blended)


def plateau_offset(curve: OcvCurve, offset_v: float,
                   lo: float = 0.2, hi: float = 0.8, ramp: float = 0.1) -> OcvCurve:
    """Add a voltage offset confined to the plateau, with linear tapers of
    width `ramp` on each side so the curve stays continuous."""
    grid = np.union1d(curve.knot_soc,
                      np.clip([lo - ramp, lo, hi, hi + ramp], curve.soc_min, curve.soc_max))
    grid = grid[(grid >= curve.soc_min) & (grid <= curve.soc_max)]
    w = np.clip(np.minimum((grid - (lo - ramp)) / ramp, ((hi + ramp) - grid) / ramp), 0.0, 1.0)
    return OcvCurve(grid, curve.ocv(grid) + offset_v * w)


def default_lifepo4_curve() -> OcvCurve:
    """Synthetic LiFePO4-style OCV table: steep tails, long shallow plateau."""
    knots = [
        (0.00, 2.00), (0.01, 2.55), (0.03, 2.90), (0.06, 3.05),
        (0.10, 3.16), (0.15, 3.21), (0.20, 3.240), (0.30, 3.262),
        (0.40, 3.276), (0.50, 3.288), (0.60, 3.298), (0.70, 3.308),
        (0.80, 3.320), (0.88, 3.336), (0.94, 3.360), (0.97, 3.42),
        (0.99, 3.50), (1.00, 3.60),
    ]
    soc, ocv = zip(*knots)
    return OcvCurve(np.array(soc), np.array(ocv))
