"""Extended Kalman filter for SOC estimation over an OCV-SOC curve.

`kalman_step` is the whole filter on state (SOC, Up): predict, linearize,
update, on Python floats with the 2x2 algebra written out. It steps one
filter set through a run of rows per call: one filter (noise, curve and the
capacity it counts charge against), one anchor, one start and its slopes;
every step a plain tuple in `StepOutput`'s field order, which `run_ekf`
names. The rows come from `samples`, which reads the whole trace once per
estimator run: `run_ekf` steps them all in one call, and
`multimodel.run_ammkf` takes them an interval at a time. Members differ
only in the measurement row H = [s, -1]. A slope of None reads the curve at
the prior SOC, clamped into its knot domain, through an `OcvCurve.lookup`
that bisects the knots only when the SOC leaves the previous row's segment:
a plain filter is the one-member set `[None]` with no anchor. A bank
member's slope s gives the affine model through the interval start (anchor
SOC, model OCV). Every step is as long as the trace's own `dt`."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from operator import mul

import numpy as np

from .curve import OcvCurve
from .ecm import BatteryState, EcmParams, Trace


class FilterDegeneracyError(ValueError):
    """A step's innovation variance is not finite and positive."""


@dataclass(frozen=True)
class NoiseConfig:
    """Process noise Q = diag(q00, q11) and measurement variance r."""

    q00: float
    q11: float
    r: float

    def __post_init__(self):
        for name in ("q00", "q11"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be finite and > 0, got {self.r}")


@dataclass
class KfState:
    """One filter: start state, the start variances of SOC and Up, noise,
    curve and the capacity it counts charge against, validated once, when
    built."""

    x: BatteryState
    p00: float
    p11: float
    noise: NoiseConfig
    curve: OcvCurve
    capacity_ah: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x.soc, self.x.up))):
            raise ValueError(f"x must be finite, got {self.x}")
        for name, v in (("p00", self.p00), ("p11", self.p11)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            if v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (math.isfinite(self.capacity_ah) and self.capacity_ah > 0):
            raise ValueError(f"capacity_ah must be finite and > 0, "
                             f"got {self.capacity_ah}")

    def start(self) -> tuple:
        """The start posterior as the step's `x`: (soc, up, p00, p01, p11),
        uncorrelated."""
        return (float(self.x.soc), float(self.x.up), float(self.p00), 0.0,
                float(self.p11))


class StepOutput(namedtuple("StepOutput", (
        "soc up p00 p01 p11 innovation innovation_variance k_soc "
        "soc_clamped log_likelihood"))):
    """One filter step: the posterior state and covariance first (so a step
    is the next step's `x`), then the innovation e, its variance
    S = H P- H^T + r (the interval's theoretical ACM reads it), the SOC
    gain, the clamp flag and the predicted-voltage log-density
    -(e^2/S + ln S)/2 that the bank's model weights read (the 2*pi term
    cancels there)."""

    __slots__ = ()


PLAIN = (None,)  # the slopes of a plain filter: one member on the curve


def transition(params: EcmParams, dt: float, capacity_ah: float) -> tuple:
    """(decay, g_soc, g_up, r0): F = diag(1, decay), G = [g_soc, g_up] and
    the ohmic feedthrough, for one parameter set over a step of `dt`
    seconds on a cell of `capacity_ah`."""
    decay = math.exp(-dt / params.tau)
    return (decay, -dt / (3600.0 * capacity_ah), params.rp * (1.0 - decay),
            params.r0)


def kalman_step(f: KfState, anchor: tuple | None, slopes, x,
                rows) -> list[list[tuple]]:
    """Step the member of each slope in `slopes` from the one posterior `x`,
    (soc, up, p00, p01, p11, ...): a filter start or a previous step,
    through `rows` with the noise and curve of filter `f`; per member, one
    step per row, a plain tuple in `StepOutput`'s field order. Each row,
    from an estimator run's one `samples` iterator, is (k, decay,
    g_soc*u_prev, g_up*u_prev, y, r0*u): predict with the previous current's
    terms (except on sample 0, which starts the filter), then update on the
    measured voltage `y` with the ohmic drop r0*u. Each member runs through
    all rows before the next starts, so a set of more than one member needs
    the rows as a list. A slope of None reads the curve, through one
    `OcvCurve.lookup` per member and call; a slope s reads the affine model
    through `anchor`, (anchor SOC, model OCV). Raises FilterDegeneracyError
    naming sample k when a member's innovation variance is not in
    (0, inf): not positive, overflowed or NaN.
    """
    q00, q11, r = f.noise.q00, f.noise.q11, f.noise.r
    curve = f.curve
    lo, hi = curve.soc_min, curve.soc_max
    anchor_soc, anchor_ocv = anchor or (None, None)
    log, inf = math.log, math.inf
    out = []
    for slope in slopes:
        ocv_slope = curve.lookup() if slope is None else None
        soc, up, p00, p01, p11 = x[0], x[1], x[2], x[3], x[4]
        steps = []
        for k, decay, du_soc, du_up, y, r0_u in rows:
            if k:
                # x- = F x + G u_prev; P- = F P F^T + Q
                soc = soc + du_soc
                up = decay * up + du_up
                p00 = p00 + q00
                p01 = p01 * decay
                p11 = decay * p11 * decay + q11
            if slope is None:  # the curve at the prior SOC, in its domain
                ocv, s = ocv_slope(soc if lo <= soc <= hi
                                   else min(max(soc, lo), hi))
            else:  # affine about the anchor
                s = slope
                ocv = anchor_ocv + s * (soc - anchor_soc)
            e = y - (ocv - up - r0_u)
            # H = [s, -1]: P- H^T, S = H P- H^T + r, K = P- H^T / S
            ph0 = p00 * s - p01
            ph1 = p01 * s - p11
            s_var = s * ph0 - ph1 + r
            if not 0.0 < s_var < inf:  # NaN fails too
                raise FilterDegeneracyError(
                    f"step {k}: innovation variance {s_var} is not in "
                    "(0, inf)")
            k0 = ph0 / s_var
            k1 = ph1 / s_var
            # (I - K H) P-, symmetrized
            a00 = 1.0 - k0 * s
            a11 = 1.0 + k1
            m = -k1 * s
            b01 = a00 * p01 + k0 * p11
            b10 = m * p00 + a11 * p01
            soc = soc + k0 * e
            if 0.0 < soc < 1.0:
                clamped = False
            else:  # min(1, max(0, soc)): NaN, -0.0 give 0.0
                clamped = soc < 0.0 or soc > 1.0
                soc = 1.0 if soc >= 1.0 else 0.0
            up = up + k1 * e
            p00, p01, p11 = (a00 * p00 + k0 * p01, 0.5 * (b01 + b10),
                             m * p01 + a11 * p11)
            steps.append((soc, up, p00, p01, p11, e, s_var, k0, clamped,
                          -0.5 * (e * e / s_var + log(s_var))))
        out.append(steps)
    return out


def samples(params, trace: Trace, capacity_ah: float):
    """An iterator over the rows (k, decay, g_soc*u_prev, g_up*u_prev, y,
    r0*u) of every sample of the trace that `kalman_step` reads: the
    `transition` of that step's parameters over the trace's `dt` on a cell
    of `capacity_ah`, recomputed only when the parameter object changes,
    with the products of each row computed once for every member; `u_prev`
    is 0.0 on sample 0. `params` is either a single EcmParams or a per-step
    sequence. Raises ValueError naming the first sample whose current or
    voltage is not finite, before any row."""
    finite = np.isfinite(trace.current_a) & np.isfinite(trace.voltage_v)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"sample {k}: non-finite current or voltage "
                         f"({trace.current_a[k]}, {trace.voltage_v[k]})")
    n = len(trace)
    amps = trace.current_a.tolist()
    prev = [0.0, *amps]  # u_prev of each sample
    if isinstance(params, EcmParams):
        decays, g_socs, g_ups, r0s = map(
            repeat, transition(params, trace.dt, capacity_ah))
    else:
        coefs, last = [], None
        for k in range(n):
            pk = params[k]
            if pk is not last:
                coef, last = transition(pk, trace.dt, capacity_ah), pk
            coefs.append(coef)
        decays, g_socs, g_ups, r0s = zip(*coefs) if coefs else ((),) * 4
    return zip(range(n), decays, map(mul, g_socs, prev),
               map(mul, g_ups, prev), trace.voltage_v.tolist(),
               map(mul, r0s, amps))


def run_ekf(filt: KfState, params, trace: Trace) -> list[StepOutput]:
    """Run the filter over a measured trace at its own sample spacing; one
    StepOutput per sample, the only place a step is named. `params` is
    either a single EcmParams or a per-step sequence."""
    [steps] = kalman_step(filt, None, PLAIN, filt.start(),
                          samples(params, trace, filt.capacity_ah))
    # named in place: each plain tuple is freed as its StepOutput replaces it
    for i, step in enumerate(steps):
        steps[i] = tuple.__new__(StepOutput, step)
    return steps
