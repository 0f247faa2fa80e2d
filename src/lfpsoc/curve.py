"""OCV-SOC curve representation: evaluation, slopes, and error injection.

A loop reads the curve through `OcvCurve.lookup()`, the one scalar path: it
keeps the knot segment of the previous SOC and bisects the knots only when
the SOC leaves it, with the same arithmetic and errors as `ocv` and `slope`.
Anything else, arrays included, takes their numpy path."""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np


class CurveDomainError(ValueError):
    """SOC query outside the curve's knot domain (no extrapolation)."""


class InvalidTransformError(ValueError):
    """Curve spec that is malformed or derives no valid curve."""


@dataclass(frozen=True)
class OcvCurve:
    """Piecewise-linear OCV(SOC) interpolant over strictly increasing knots.
    A loop over scalar SOCs reads `lookup()`, which bisects knot lists
    cached at construction (`np.interp`'s arithmetic) only when the SOC
    leaves the knot segment of the previous one; `ocv` and `slope` take any
    query, arrays included, through numpy."""

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
        s = self._check_domain(soc)
        out = np.interp(s, self.knot_soc, self.knot_ocv)
        return float(out) if np.isscalar(soc) or np.ndim(soc) == 0 else out

    def lookup(self):
        """A function equal to `(ocv(soc), slope(soc))` for one loop of
        scalar SOCs. Inside the knot domain it bisects the cached knots, a
        knot taking the mean of its two segment slopes, and remembers the
        open knot segment of the last SOC: while the next SOC stays strictly
        inside it, the same expression is computed without bisecting.
        Outside the domain or for NaN it calls `ocv` and `slope`, which
        raise the same errors. The curve holds no state: make one lookup
        per loop."""
        knots, ocvs, segs = self._soc, self._ocv, self._seg
        first, last = knots[0], knots[-1]
        # the open segment (left, right) with its slope and left OCV; NaN
        # ends until the first SOC inside one, so every comparison fails
        left = right = math.nan
        slope = ocv = 0.0

        def ocv_slope(soc):
            nonlocal left, right, slope, ocv
            if left < soc < right:
                return slope * (soc - left) + ocv, slope
            if not first <= soc <= last:
                return self.ocv(soc), self.slope(soc)
            j = bisect_right(knots, soc) - 1
            if knots[j] == soc:
                return ocvs[j], 0.5 * (segs[max(j - 1, 0)]
                                       + segs[min(j, len(segs) - 1)])
            left, right, slope, ocv = knots[j], knots[j + 1], segs[j], ocvs[j]
            return segs[j] * (soc - knots[j]) + ocvs[j], segs[j]

        return ocv_slope

    def segment_slopes(self) -> np.ndarray:
        return np.diff(self.knot_ocv) / np.diff(self.knot_soc)

    def slope(self, soc):
        """dOCV/dSOC: segment slope inside segments, mean of the two adjacent
        segment slopes at interior knots, one-sided at boundary knots."""
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


def plateau_offset(curve: OcvCurve, offset_v: float,
                   lo: float = 0.2, hi: float = 0.8, ramp: float = 0.1) -> OcvCurve:
    """Add a voltage offset confined to the plateau, with linear tapers of
    width `ramp` on each side so the curve stays continuous."""
    if not (0.0 <= lo < hi <= 1.0 and ramp > 0):
        raise ValueError("plateau needs 0 <= lo < hi <= 1 and ramp > 0")
    grid = np.union1d(curve.knot_soc,
                      np.clip([lo - ramp, lo, hi, hi + ramp], curve.soc_min, curve.soc_max))
    grid = grid[(grid >= curve.soc_min) & (grid <= curve.soc_max)]
    w = np.clip(np.minimum((grid - (lo - ramp)) / ramp, ((hi + ramp) - grid) / ramp), 0.0, 1.0)
    return OcvCurve(grid, curve.ocv(grid) + offset_v * w)


def _volts(curve: OcvCurve, offset_v: float) -> OcvCurve:
    return OcvCurve(curve.knot_soc.copy(), curve.knot_ocv + offset_v)


def _shift(curve: OcvCurve, delta: float) -> OcvCurve:
    shifted = curve.knot_soc + delta
    lo = max(0.0, float(shifted[0]))
    hi = min(1.0, float(shifted[-1]))
    if hi - lo <= 0:
        raise ValueError("shift pushes the curve outside [0, 1]")
    keep = (shifted > lo) & (shifted < hi)
    new_soc = np.concatenate(([lo], shifted[keep], [hi]))
    return OcvCurve(new_soc, np.interp(new_soc, shifted, curve.knot_ocv))


def _scale(curve: OcvCurve, factor: float) -> OcvCurve:
    if not factor > 0:
        raise ValueError("scale factor must be > 0")
    mean = float(np.mean(curve.knot_ocv))
    return OcvCurve(curve.knot_soc.copy(), mean + factor * (curve.knot_ocv - mean))


# kind -> (transform, accepted counts of numbers after the kind)
_TRANSFORMS = {"offset": (plateau_offset, (1, 4)), "volts": (_volts, (1,)),
               "shift": (_shift, (1,)), "scale": (_scale, (1,))}


def is_transform(spec: str) -> bool:
    """Whether `spec` is a transform: a known kind before its first ':'."""
    kind, colon, _ = spec.partition(":")
    return bool(colon) and kind in _TRANSFORMS


def apply_transform(curve: OcvCurve, spec: str) -> OcvCurve:
    """The curve a spec derives from `curve`, for error injection:

    offset:<v>[:<lo>:<hi>:<ramp>]  `plateau_offset` (lo, hi, ramp default
                                   to 0.2, 0.8, 0.1)
    volts:<v>                      v volts added at every knot
    shift:<soc>                    knots moved by soc, clipped to [0, 1]
    scale:<factor>                 OCV spread about the knot mean scaled

    A malformed spec raises InvalidTransformError naming it."""
    kind, _, args = spec.partition(":")
    try:
        if kind not in _TRANSFORMS:
            raise ValueError(f"kind must be one of {', '.join(_TRANSFORMS)}")
        transform, counts = _TRANSFORMS[kind]
        vals = [float(a) for a in args.split(":")]
        if len(vals) not in counts:
            raise ValueError(f"{kind} takes "
                             f"{' or '.join(map(str, counts))} number(s)")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("numbers must be finite")
        return transform(curve, *vals)
    except ValueError as exc:
        raise InvalidTransformError(f"bad curve spec {spec!r}: {exc}") from exc


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
