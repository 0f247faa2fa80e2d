"""Online circuit-parameter identification by recursive least squares with
an SOC-feedback adaptive forgetting factor.

The regression works on first differences of terminal voltage and current:
dUt(k) = th1*dUt(k-1) + th2*dIl(k) + th3*dIl(k-1), with
th1 = exp(-dt/tau), th2 = -R0, th3 = th1*R0 - (1 - th1)*Rp.

`rls_step` is one closed-form update on Python floats, the 3x3 algebra
written out: q = P a, gain g = q / (lambda + a.q), theta += g (y - a.theta),
P <- (P - (g q' + q g') / 2) / lambda. A state is the flat tuple
(th1, th2, th3, p11, p12, p13, p22, p23, p33): theta, then the upper
triangle of the symmetric P row by row. It is validated once, when
`initial_state` builds it; a step checks only its sample, lambda and the
gain denominator. A denominator below 1e-15, or one that is inf or NaN
because a long unexcited stretch has grown P by 1/lambda per step until it
overflowed, raises NumericalDegeneracyError; `identify_stream` flags the
row and keeps the state it had, so theta does not turn NaN that way.

The circuit (R0, Rp, Cp) comes from theta through `extract_circuit`, which
returns the reason rather than raising when theta is not physical: on a
recorded trace most points are not, and `identify_stream` holds its last
physical estimate through them at the cost of a type check.
`theta_to_circuit` raises PhysicalityError with that reason instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ecm import EcmParams, Trace

_finite = math.isfinite


class NumericalDegeneracyError(RuntimeError):
    pass


class PhysicalityError(ValueError):
    """Extracted circuit parameters are outside the physical region."""


@dataclass(frozen=True)
class RlsConfig:
    a: float = 0.1
    lambda_min: float = 0.95
    eps_soc: float = 0.01
    p0_scale: float = 1e3
    theta0: tuple = (0.99, -0.05, 0.04)
    warmup: int = 100
    # identify only while SOC feedback is inside the flat region, where the
    # open-circuit-voltage change is negligible and the difference model holds
    plateau_only_identification: bool = False
    plateau_lo: float = 0.2
    plateau_hi: float = 0.8


def initial_state(cfg: RlsConfig = RlsConfig()) -> tuple:
    """theta0 and P0 = p0_scale * I. The one place a state is validated:
    theta0 must be three finite numbers and p0_scale finite and >= 0, so P0
    is symmetric positive semidefinite."""
    theta = [float(v) for v in cfg.theta0]
    scale = float(cfg.p0_scale)
    if len(theta) != 3 or not all(map(_finite, theta)):
        raise ValueError(f"theta0 must be 3 finite numbers, got {cfg.theta0}")
    if not (_finite(scale) and scale >= 0):
        raise ValueError(f"p0_scale must be finite and >= 0, got {scale}")
    return (*theta, scale, 0.0, 0.0, scale, 0.0, scale)


def build_sample(ut_k, ut_km1, ut_km2, il_k, il_km1, il_km2) -> tuple:
    """One difference-equation sample (a1, a2, a3, y) from three consecutive
    uniformly spaced measurements: the regressor row (dUt(k-1), dIl(k),
    dIl(k-1)) and the target dUt(k)."""
    return (ut_km1 - ut_km2, il_k - il_km1, il_km1 - il_km2, ut_k - ut_km1)


def forgetting_factor(soc_km1: float, soc_km2: float, a: float,
                      cfg: RlsConfig = RlsConfig()) -> tuple[float, bool]:
    """lambda = 1 - a*|soc(k-1) - 1/2|*soc(k-1)/soc(k-2), clamped to
    [lambda_min, 1]. Returns (lambda, degenerate-denominator flag)."""
    if a < 0:
        raise ValueError("a must be >= 0")
    if soc_km2 <= cfg.eps_soc:
        return cfg.lambda_min, True
    lam = 1.0 - a * abs(soc_km1 - 0.5) * (soc_km1 / soc_km2)
    return min(1.0, max(cfg.lambda_min, lam)), False


def rls_step(state: tuple, sample, lam: float) -> tuple:
    """One gain/covariance/parameter update of `state` on `sample`
    (a1, a2, a3, y) with forgetting factor `lam`. Raises ValueError for a
    non-finite sample or lambda outside (0, 1], NumericalDegeneracyError
    unless the gain denominator is in [1e-15, inf): tiny, overflowed or
    NaN."""
    a1, a2, a3, y = sample
    if not (_finite(a1) and _finite(a2) and _finite(a3) and _finite(y)):
        raise ValueError(f"sample entries must be finite, got {tuple(sample)}")
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must be in (0, 1], got {lam}")
    th1, th2, th3, p11, p12, p13, p22, p23, p33 = state
    q1 = p11 * a1 + p12 * a2 + p13 * a3
    q2 = p12 * a1 + p22 * a2 + p23 * a3
    q3 = p13 * a1 + p23 * a2 + p33 * a3
    denom = lam + (a1 * q1 + a2 * q2 + a3 * q3)
    if not 1e-15 <= denom < math.inf:
        raise NumericalDegeneracyError(
            f"gain denominator {denom} is not in [1e-15, inf)")
    g1, g2, g3 = q1 / denom, q2 / denom, q3 / denom
    e = y - (a1 * th1 + a2 * th2 + a3 * th3)
    return (
        th1 + g1 * e, th2 + g2 * e, th3 + g3 * e,
        (p11 - g1 * q1) / lam, (p12 - 0.5 * (g1 * q2 + q1 * g2)) / lam,
        (p13 - 0.5 * (g1 * q3 + q1 * g3)) / lam, (p22 - g2 * q2) / lam,
        (p23 - 0.5 * (g2 * q3 + q2 * g3)) / lam, (p33 - g3 * q3) / lam)


def circuit_to_theta(params: EcmParams, dt: float) -> np.ndarray:
    """Forward map from circuit parameters to regression coefficients."""
    th1 = math.exp(-dt / params.tau)
    th2 = -params.r0
    th3 = th1 * params.r0 - (1.0 - th1) * params.rp
    return np.array([th1, th2, th3])


# PhysicalityError's messages, %-templates of the values they name
_NO_TIME_CONSTANT = "theta1 %r outside (0, 1): no valid time constant"
_ZERO_NUMERATOR = "theta1*theta2 + theta3 == 0"
_NOT_POSITIVE = "non-physical parameters r0=%r rp=%r cp=%r"


def extract_circuit(th1: float, th2: float, th3: float, dt: float):
    """The circuit of the coefficients as EcmParams, or, where they have
    none, why not as a (message template, values) pair: th1 outside (0, 1)
    gives no time constant, th1*th2 + th3 == 0 no Rp, and an R0, Rp or Cp
    that is not positive no physical circuit. A NaN that passes these tests
    reaches EcmParams, which raises ValueError."""
    if not 0.0 < th1 < 1.0:
        return _NO_TIME_CONSTANT, (th1,)
    num = th1 * th2 + th3
    if num == 0.0:
        return _ZERO_NUMERATOR, ()
    r0 = -th2
    rp = num / (th1 - 1.0)
    cp = (1.0 - th1) * dt / (math.log(th1) * num)
    if r0 <= 0 or rp <= 0 or cp <= 0:
        return _NOT_POSITIVE, (r0, rp, cp)
    return EcmParams(r0, rp, cp)


def theta_to_circuit(theta, dt: float) -> EcmParams:
    """Inverse map of the three coefficients `theta`; raises
    PhysicalityError unless 0 < th1 < 1 and the result is physical."""
    th1, th2, th3 = map(float, theta)
    circuit = extract_circuit(th1, th2, th3, dt)
    if type(circuit) is not EcmParams:
        template, values = circuit
        raise PhysicalityError(template % values)
    return circuit


@dataclass
class IdentifiedPoint:
    t: float
    params: EcmParams | None
    lam: float
    degenerate: bool = False


def identify_stream(trace: Trace, soc_feedback=None,
                    cfg: RlsConfig = RlsConfig()) -> list[IdentifiedPoint]:
    """Run the adaptive RLS over a trace.

    `soc_feedback` is an optional per-step posterior SOC sequence driving the
    forgetting factor; without it lambda stays at 1. Parameters are emitted
    only after `cfg.warmup` accepted samples, holding the last physical value
    when extraction preconditions fail.
    """
    state = initial_state(cfg)
    out: list[IdentifiedPoint] = []
    last_params: EcmParams | None = None
    accepted = 0
    ut, il, t = (trace.voltage_v.tolist(), trace.current_a.tolist(),
                 trace.t.tolist())
    fb = None if soc_feedback is None else \
        np.asarray(soc_feedback, dtype=float).tolist()
    plateau_only = cfg.plateau_only_identification and fb is not None
    dt = trace.dt
    for k in range(2, len(trace)):
        if plateau_only and not cfg.plateau_lo <= fb[k - 1] <= cfg.plateau_hi:
            out.append(IdentifiedPoint(t[k], last_params, 1.0, False))
            continue
        lam, degenerate = (1.0, False) if fb is None else forgetting_factor(
            fb[k - 1], fb[k - 2], cfg.a, cfg)
        try:
            state = rls_step(state, build_sample(
                ut[k], ut[k - 1], ut[k - 2], il[k], il[k - 1], il[k - 2]), lam)
            accepted += 1
        except NumericalDegeneracyError:
            degenerate = True
        if accepted >= cfg.warmup:
            circuit = extract_circuit(state[0], state[1], state[2], dt)
            if type(circuit) is EcmParams:
                last_params = circuit  # else hold the previous estimate
        out.append(IdentifiedPoint(t[k], last_params, lam, degenerate))
    return out
