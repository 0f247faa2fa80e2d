"""Innovation statistics: interval cross/auto-correlation, the whiteness
test, curve-error detection and polarity inference, and convergence
detection.

An interval's innovations are Python floats. Their means are numpy's
`np.mean` bit for bit, without an array per interval: `mean` adds them in
numpy's pairwise order."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul

import numpy as np

POSITIVE_G = "positive-g"
NEGATIVE_G = "negative-g"
INDETERMINATE = "indeterminate"


def _pairwise_sum(v: list) -> float:
    """numpy's pairwise sum of a float64 vector: a plain sum below 8
    values; up to 128, eight running sums over the whole blocks of 8,
    combined in pairs, then the rest in order; above, the halves split at a
    multiple of 8."""
    n = len(v)
    if n < 8:
        return reduce(add, v, 0.0)
    if n <= 128:
        end = n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = v[:8]
        for i in range(8, end, 8):
            a0, a1, a2, a3, a4, a5, a6, a7 = v[i:i + 8]
            r0 += a0
            r1 += a1
            r2 += a2
            r3 += a3
            r4 += a4
            r5 += a5
            r6 += a6
            r7 += a7
        return reduce(add, v[end:],
                      ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(v[:half]) + _pairwise_sum(v[half:])


def mean(v: list) -> float:
    """`float(np.mean(v))` of a list of floats, bit for bit: numpy adds the
    pairwise sum to its identity 0.0 (a sum of -0.0s gives 0.0) and divides
    by the count; the mean of nothing is NaN."""
    return (0.0 + _pairwise_sum(v)) / len(v) if v else math.nan


@dataclass(frozen=True)
class IntervalInnovations:
    """Innovations of one interval, as floats, and its theoretical ACM: the
    innovation variance S = H P- H^T + r of the interval's last update.
    The empirical ACM, the mean squared innovation, is computed once, when
    built."""

    interval_index: int
    values: tuple
    acm_theo: float

    def __post_init__(self):
        v = tuple(map(float, self.values))
        object.__setattr__(self, "values", v)
        if not all(map(math.isfinite, v)):
            raise ValueError("innovations must be finite")
        object.__setattr__(self, "acm_emp", mean(list(map(mul, v, v))))

    def rms(self) -> float:
        return math.sqrt(self.acm_emp)


def interval_ccm(prev: IntervalInnovations, curr: IntervalInnovations) -> float:
    """Mean product of matching-offset innovations of two adjacent intervals,
    estimating the lag-L cross-correlation at the interval ends.

    A curve error biases both intervals' innovations the same way, so the
    product is positive for either polarity: a large positive CCM says a
    curve error is present, not which side of the truth the filter's curve
    is on (see `curve_error_polarity` for that)."""
    if len(prev.values) != len(curr.values):
        raise ValueError("interval lengths differ: "
                         f"{len(prev.values)} vs {len(curr.values)}")
    return mean(list(map(mul, prev.values, curr.values)))


def empirical_acm(curr: IntervalInnovations) -> float:
    if len(curr.values) < 2:
        raise ValueError("need at least 2 innovations")
    return curr.acm_emp


# |CCM| at or below max(CCM_FLOOR, CCM_ACM_FRACTION * empirical ACM) is noise
CCM_FLOOR = 1e-8
CCM_ACM_FRACTION = 0.05


def infer_error_sign(ccm: float, acm_emp: float) -> str:
    """Map the CCM onto the bank's slope-set sign: positive CCM gives
    NEGATIVE_G (filter curve above the actual one), negative CCM
    POSITIVE_G, |CCM| within the noise threshold INDETERMINATE.

    The CCM is positive under either polarity of a curve error, so a
    NEGATIVE_G sign means that an error is present, not that the filter
    curve is above the truth, and the POSITIVE_G branch fires only on
    noise. `infer_error_polarity` reads the polarity."""
    tau = max(CCM_FLOOR, CCM_ACM_FRACTION * acm_emp)
    if ccm > tau:
        return NEGATIVE_G
    if ccm < -tau:
        return POSITIVE_G
    return INDETERMINATE


def interval_statistics(prev: IntervalInnovations | None,
                        curr: IntervalInnovations) -> tuple:
    """(ccm, acm_emp, acm_theo, sign) of interval `curr` after `prev`.

    The theoretical ACM is `curr.acm_theo`. Without a previous interval of
    the same length there is no CCM: it is 0.0 and the sign is
    INDETERMINATE."""
    acm_emp = empirical_acm(curr)
    if prev is None or len(prev.values) != len(curr.values):
        return 0.0, acm_emp, curr.acm_theo, INDETERMINATE
    ccm = interval_ccm(prev, curr)
    return ccm, acm_emp, curr.acm_theo, infer_error_sign(ccm, acm_emp)


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


@dataclass(frozen=True)
class PolarityVerdict:
    sign: str
    value: float
    threshold: float


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


def infer_error_polarity(value: float, p0_soc: float) -> PolarityVerdict:
    """Positive polarity statistic implies the filter curve sits above the
    actual one (NEGATIVE_G), negative the reverse (POSITIVE_G). Within one
    initial SOC standard deviation, sqrt(p0_soc), the correction could be an
    initial-SOC error worked off, so the verdict is INDETERMINATE."""
    if not p0_soc >= 0:
        raise ValueError(f"p0_soc must be >= 0, got {p0_soc}")
    tau = float(np.sqrt(p0_soc))
    if value > tau:
        sign = NEGATIVE_G
    elif value < -tau:
        sign = POSITIVE_G
    else:
        sign = INDETERMINATE
    return PolarityVerdict(sign, value, tau)


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
