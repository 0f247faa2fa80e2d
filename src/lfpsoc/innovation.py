"""Innovation statistics: interval cross/auto-correlation, the whiteness
test, curve-error detection and polarity inference, and convergence
detection.

An interval's innovations are Python floats. Their means are numpy's
`np.mean` bit for bit: `mean` calls the reduction `np.mean` calls. Both
sign verdicts, of the CCM and of the polarity statistic, come from one
three-way threshold test, `_sign`."""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

POSITIVE_G = "positive-g"
NEGATIVE_G = "negative-g"
INDETERMINATE = "indeterminate"


def mean(v: list) -> float:
    """`float(np.mean(v))` of a non-empty list of floats, bit for bit:
    numpy's own sum over the count."""
    return float(np.add.reduce(np.array(v, dtype=float))) / len(v)


@dataclass(frozen=True)
class IntervalInnovations:
    """Innovations of one interval, as floats, and its theoretical ACM: the
    innovation variance S = H P- H^T + r of the interval's last update.
    An interval holds at least 2 innovations. The empirical ACM, the mean
    squared innovation, is computed once, when built."""

    values: tuple
    acm_theo: float

    def __post_init__(self):
        v = tuple(map(float, self.values))
        object.__setattr__(self, "values", v)
        if len(v) < 2:
            raise ValueError("need at least 2 innovations")
        if not all(map(math.isfinite, v)):
            raise ValueError("innovations must be finite")
        object.__setattr__(self, "acm_emp", mean(list(map(mul, v, v))))

    def rms(self) -> float:
        return math.sqrt(self.acm_emp)


# |CCM| at or below max(CCM_FLOOR, CCM_ACM_FRACTION * empirical ACM) is noise
CCM_FLOOR = 1e-8
CCM_ACM_FRACTION = 0.05


def _sign(value: float, tau: float) -> str:
    """NEGATIVE_G above `tau`, POSITIVE_G below `-tau`, else (NaN too)
    INDETERMINATE."""
    if value > tau:
        return NEGATIVE_G
    if value < -tau:
        return POSITIVE_G
    return INDETERMINATE


def infer_error_sign(ccm: float, acm_emp: float) -> str:
    """Map the CCM onto the bank's slope-set sign: positive CCM gives
    NEGATIVE_G (filter curve above the actual one), negative CCM
    POSITIVE_G, |CCM| within the noise threshold INDETERMINATE.

    The CCM is positive under either polarity of a curve error, so a
    NEGATIVE_G sign means that an error is present, not that the filter
    curve is above the truth, and the POSITIVE_G branch fires only on
    noise. `infer_error_polarity` reads the polarity."""
    return _sign(ccm, max(CCM_FLOOR, CCM_ACM_FRACTION * acm_emp))


def interval_statistics(prev: IntervalInnovations | None,
                        curr: IntervalInnovations) -> tuple:
    """(ccm, sign) of interval `curr` after `prev`. The CCM is the mean
    product of the two intervals' matching-offset innovations, estimating
    the lag-L cross-correlation at the interval ends; without a previous
    interval of the same length it is 0.0, which `infer_error_sign` reads
    as INDETERMINATE. The sign reads the CCM against `curr.acm_emp`.

    A curve error biases both intervals' innovations the same way, so the
    product is positive for either polarity: a large positive CCM says a
    curve error is present, not which side of the truth the filter's curve
    is on (see `curve_error_polarity` for that)."""
    ccm = (mean(list(map(mul, prev.values, curr.values)))
           if prev is not None and len(prev.values) == len(curr.values)
           else 0.0)
    return ccm, infer_error_sign(ccm, curr.acm_emp)


def whiteness(v) -> tuple[int, int, float]:
    """(inside, lags, band): how many of the autocorrelation `lags` 1..20 of
    the innovations `v` lie inside the +-2/sqrt(n) `band`. Only lags shorter
    than `v` have pairs; without 2 values or with zero variance there is no
    autocorrelation, and a ValueError says so."""
    v = np.asarray(v, dtype=float)
    if len(v) < 2:
        raise ValueError(f"not computable (needs 2 innovations, has {len(v)})")
    v = v - v.mean()
    denom = float(np.sum(v * v))
    if denom == 0.0:
        raise ValueError("not computable: the innovations have zero variance")
    band = 2.0 / np.sqrt(len(v))
    lags = range(1, min(21, len(v)))
    inside = sum(abs(float(np.sum(v[:-k] * v[k:])) / denom) <= band
                 for k in lags)
    return inside, len(lags), float(band)


def curve_error_polarity(soc_gains, innovations) -> np.ndarray:
    """Curve-error polarity statistic after every step: minus the running
    sum of the SOC corrections K_soc*e that the measurement updates applied.

    The process model moves estimate and truth alike, so the sum is how far
    the filter's SOC error has moved since its start. To explain a curve that
    sits delta volts above the actual one at slope s, it pulls its SOC down
    by about delta/s; the statistic then has the sign of delta. It also
    holds any initial-SOC error the filter has worked off, which
    `infer_error_polarity` allows for in its threshold.
    """
    k = np.asarray(soc_gains, dtype=float)
    e = np.asarray(innovations, dtype=float)
    if k.shape != e.shape:
        raise ValueError(f"gain and innovation shapes differ: "
                         f"{k.shape} vs {e.shape}")
    return -np.cumsum(k * e)


def infer_error_polarity(value: float, p0_soc: float) -> str:
    """Positive polarity statistic implies the filter curve sits above the
    actual one (NEGATIVE_G), negative the reverse (POSITIVE_G). Within one
    initial SOC standard deviation, sqrt(p0_soc), the correction could be an
    initial-SOC error worked off, so the verdict is INDETERMINATE."""
    if not p0_soc >= 0:
        raise ValueError(f"p0_soc must be >= 0, got {p0_soc}")
    return _sign(value, math.sqrt(p0_soc))


# convergence: the trailing window of interval RMS values, its drop from the
# first interval's, its relative spread, and the noise-floor multiple
CONVERGENCE_WINDOW = 3
RMS_RATIO = 0.2
FLAT_TOL = 0.1
NOISE_FLOOR_MULT = 1.5


def detect_convergence(history, noise_std: float) -> bool:
    """True once the rolling interval-RMS has either dropped below RMS_RATIO
    times its initial value while flat (relative spread < FLAT_TOL) over the
    trailing window, or reached NOISE_FLOOR_MULT times the measurement-noise
    floor `noise_std` (a run that starts converged never crosses the ratio
    threshold; an all-zero window converges at any `noise_std` >= 0)."""
    if len(history) < 2:
        return False
    # only the first interval and the trailing window are read
    first = history[0].rms()
    recent = [iv.rms() for iv in history[-CONVERGENCE_WINDOW:]]
    avg = mean(recent)
    if avg <= NOISE_FLOOR_MULT * noise_std:
        return True
    if avg >= RMS_RATIO * first:
        return False
    return (max(recent) - min(recent)) / avg < FLAT_TOL
