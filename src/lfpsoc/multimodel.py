"""Adaptive multi-model filter bank: per-interval slope sets, Bayesian
model weights, optimal-filter selection, and corrected-curve output.

`run_ammkf` is one loop over the whole intervals, each taking its rows from
the run's one `ekf.samples` iterator: before convergence an interval steps
the plain filter, after it the bank with `run_interval`; the tail steps the
plain filter through the rows left. Every `ekf.kalman_step` call is one
filter, one anchor, one start and its slopes, and every step a plain tuple
in `StepOutput`'s field order (`ekf.run_ekf` names them; nothing here does).
`run_interval` steps every member of the bank from the carried posterior
through the interval in one call and weighs them in one `interval_weights`
pass over their steps' innovation log-densities (no member reads the
weights). `run_ammkf` alone picks the heaviest member, keeps its steps,
extends the corrected curve along its slope and anchors the next bank
interval on the last corrected point. An interval's theoretical ACM is its
last step's innovation variance S. The slope and weight floors are the
module constants `SLOPE_FLOOR` and `PROB_FLOOR`, read at call time. Every
filter steps at the trace's own `dt` with the plain filter's capacity, and
`BankConfig` has no defaults: a scenario's bank settings come from
`ScenarioConfig` alone."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from itertools import islice
from operator import itemgetter

import numpy as np

from . import ekf, innovation
from .ecm import Trace
from .ekf import PLAIN, KfState, NoiseConfig, StepOutput
from .innovation import (IntervalInnovations, INDETERMINATE, NEGATIVE_G,
                         POSITIVE_G)

DISCHARGE = "discharge"
CHARGE = "charge"
SLOPE_FLOOR = 1e-4  # the least candidate slope, V per unit SOC
PROB_FLOOR = 1e-6  # the least model weight after each sample

# a step's fields by position, for plain tuples and StepOutputs alike
_SOC, _INNOVATION, _INNOVATION_VARIANCE, _LOG_LIKELIHOOD = map(
    itemgetter, map(StepOutput._fields.index, (
        "soc", "innovation", "innovation_variance", "log_likelihood")))


@dataclass(frozen=True)
class BankConfig:
    n: int
    interval_len: int
    spread: float

    def __post_init__(self):
        if self.n < 1 or (self.n > 1 and self.n % 2 == 0):
            raise ValueError(f"n: filter count must be odd and > 0: {self.n}")
        # at 1/PROB_FLOOR filters every weight is floored and the pick is
        # always index 0; a floor at 0, below or NaN is off
        if not 0 < PROB_FLOOR < 1 / self.n:
            raise ValueError(f"n: must be < 1/PROB_FLOOR with PROB_FLOOR ="
                             f" {PROB_FLOOR:g} > 0: {self.n}")
        if self.interval_len < 5:
            raise ValueError("interval_len must be >= 5")
        if not self.spread > 1:
            raise ValueError("spread must be > 1")


def build_slope_set(base_slope: float, sign: str, mode: str,
                    cfg: BankConfig) -> list[float]:
    """Geometrically spaced candidate measurement slopes around the base.

    Discharge with a negative curve gap (`sign`) wants larger slopes, a
    positive gap smaller ones; charge mirrors this. Indeterminate spans both
    sides. The base slope is always a member; everything is floored at
    SLOPE_FLOOR.
    """
    if cfg.n == 1:
        return [max(base_slope, SLOPE_FLOOR)]
    if sign != INDETERMINATE and mode == CHARGE:
        sign = POSITIVE_G if sign == NEGATIVE_G else NEGATIVE_G
    return [max(base_slope * r, SLOPE_FLOOR)
            for r in _slope_ratios(sign, cfg.n, cfg.spread)]


@functools.lru_cache(maxsize=64)
def _slope_ratios(sign: str, n: int, spread: float) -> tuple:
    """spread ** exponents of `build_slope_set`'s n members: exponents from
    0 to 1 for NEGATIVE_G, -1 to 0 for POSITIVE_G, else -1 to 1."""
    lo, hi = {NEGATIVE_G: (0.0, 1.0), POSITIVE_G: (-1.0, 0.0)}.get(
        sign, (-1.0, 1.0))
    return tuple((spread ** np.linspace(lo, hi, n)).tolist())


def interval_weights(log_likelihoods, floor: float) -> list[float]:
    """The model weights after an interval, uniform at its start, from each
    member's column of predicted-voltage log-densities -(e^2/S + ln S)/2
    (the 2*pi term cancels), one pass over the samples on Python floats.

    Per sample, each weight is multiplied by exp(ll - max ll), so the best
    filter's factor is exactly 1 and the total stays positive; the result
    is normalised, floored at `floor` and renormalised. A sample's
    renormalised weights are divided out as the next sample multiplies
    them, the same operations in the same order."""
    n = len(log_likelihoods)
    post, total = [1.0] * n, float(n)  # the weights are post / total
    exp = math.exp
    for lls in zip(*log_likelihoods):
        top = max(lls)
        post = [p / total * exp(ll - top) for p, ll in zip(post, lls)]
        total = sum(post)
        # max(p / total, floor), without a call per weight
        post = [floor if floor > (q := p / total) else q for p in post]
        total = sum(post)
    return [p / total for p in post]


def run_interval(f: KfState, anchor: tuple, slopes, x, rows) -> tuple:
    """Step the member of every slope from the posterior `x` through the
    interval's `rows` (a list from `ekf.samples`) with the noise and curve
    of `f` and the affine models through `anchor` (anchor SOC, model OCV),
    and weigh the members (uniform at the start, floored at `PROB_FLOOR`)
    by each step's innovation log-density. Returns (weights, members): the
    final weights and each member's steps, plain tuples in `StepOutput`'s
    field order."""
    members = ekf.kalman_step(f, anchor, slopes, x, rows)
    # the members never read the weights: weigh them after the interval,
    # by the log-density that ends each step
    weights = interval_weights([map(_LOG_LIKELIHOOD, steps)
                                for steps in members], PROB_FLOOR)
    return weights, members


def interval_innovations(steps: list) -> IntervalInnovations:
    """One interval's innovations from its filter steps; the theoretical ACM
    is the last step's innovation variance."""
    return IntervalInnovations(map(_INNOVATION, steps),
                               _INNOVATION_VARIANCE(steps[-1]))


@dataclass
class IntervalDiagnostics:
    interval_index: int
    ccm: float
    acm_emp: float
    acm_theo: float
    verdict: str
    optimal_index: int
    prob_max: float
    mode: str


@dataclass
class AmmkfResult:
    soc: np.ndarray
    corrected_points: list
    diagnostics: list
    convergence_step: int | None


def run_ammkf(trace: Trace, plain: KfState, params, bank_cfg: BankConfig,
              bank_noise: NoiseConfig) -> AmmkfResult:
    """Two-phase estimation over a measured trace, one whole interval at a
    time: until its interval innovation RMS converges (phase 1), the filter
    `plain` on its own curve; after that, a bank of filters with slopes
    chosen from the inferred sign of the curve error (cross-correlation of
    the previous two intervals' innovations), of which the most probable
    (ties to the lowest index) carries its state forward and adds its
    corrected-curve points. Either way the interval's steps are kept, its
    innovations join the history and its last step starts the next
    interval. The tail shorter than an interval continues `plain`. The
    bank is `plain` with `bank_noise` and steps from the carried
    posterior. Its anchor is that posterior's SOC with the model OCV of
    the last corrected point, or before any, `plain`'s curve at the
    clamped SOC. Every filter steps at the trace's own sample spacing.
    """
    L = bank_cfg.interval_len
    n_steps = len(trace)
    if n_steps < 2 * L:
        raise ValueError(f"trace length {n_steps} < 2*interval_len {2 * L}")
    rows = ekf.samples(params, trace, plain.capacity_ah)
    soc_est, corrected_points, diagnostics = [], [], []
    history: list[IntervalInnovations] = []
    bank = replace(plain, noise=bank_noise)
    curve = plain.curve
    at = curve.lookup()  # the bank anchors' one read of the curve
    noise_std = math.sqrt(plain.noise.r)
    lo, hi = curve.soc_min, curve.soc_max
    # every interval starts at a multiple of L: its mean current's sign
    m = n_steps // L
    discharging = (trace.current_a[:m * L].reshape(m, L).mean(axis=1)
                   >= 0).tolist()
    x = plain.start()  # the carried posterior: a filter start, then a step
    converged_at = None
    for index in range(m):
        interval = list(islice(rows, L))
        if converged_at is None:  # phase 1: the plain filter
            [steps] = ekf.kalman_step(plain, None, PLAIN, x, interval)
        else:
            # the bank, stepped from the carried posterior; phase 1 has run
            # at least two intervals, since convergence needs two
            prev, curr = history[-2:]
            ccm, sign = innovation.interval_statistics(prev, curr)
            mode = DISCHARGE if discharging[index] else CHARGE
            soc = _SOC(x)  # a phase-1 step or a bank step
            curve_ocv, base_slope = at(min(max(soc, lo), hi))
            # the model value chains from the last corrected point; only
            # the first bank interval anchors on the curve
            anchor_ocv = (corrected_points[-1][1] if corrected_points
                          else curve_ocv)
            # a one-filter bank is a plain filter on the curve itself, and
            # never reads its anchor
            slopes = PLAIN if bank_cfg.n == 1 else build_slope_set(
                base_slope, sign, mode, bank_cfg)
            weights, members = run_interval(bank, (soc, anchor_ocv), slopes,
                                            x, interval)
            opt = weights.index(max(weights))  # ties to the lowest index
            steps, s = members[opt], slopes[opt]
            if s is not None:
                corrected_points.extend(
                    (soc_k, anchor_ocv + s * (soc_k - soc), index)
                    for soc_k in map(_SOC, steps))
            diagnostics.append(IntervalDiagnostics(
                index, ccm, curr.acm_emp, curr.acm_theo, sign, opt,
                weights[opt], mode))
        soc_est.extend(map(_SOC, steps))
        history.append(interval_innovations(steps))
        x = steps[-1]
        if converged_at is None and innovation.detect_convergence(
                history, noise_std=noise_std):
            converged_at = (index + 1) * L
    # the rows left, fewer than one interval: the plain filter continues
    [tail] = ekf.kalman_step(plain, None, PLAIN, x, rows)
    soc_est.extend(map(_SOC, tail))
    return AmmkfResult(np.array(soc_est), corrected_points, diagnostics,
                       converged_at)
