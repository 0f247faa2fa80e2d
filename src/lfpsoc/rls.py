"""Online circuit-parameter identification by recursive least squares with
an SOC-feedback adaptive forgetting factor.

The regression works on first differences of terminal voltage and current:
dUt(k) = th1*dUt(k-1) + th2*dIl(k) + th3*dIl(k-1), with
th1 = exp(-dt/tau), th2 = -R0, th3 = th1*R0 - (1 - th1)*Rp.

`rls_step` is one closed-form update on Python floats, the 3x3 algebra
written out: q = P a, gain g = q / (lambda + a.q), theta += g (y - a.theta),
P <- (P - (g q' + q g') / 2) / lambda. A state is the flat tuple
(th1, th2, th3, p11, p12, p13, p22, p23, p33): theta, then the upper
triangle of the symmetric P row by row. Every stream starts from
START_STATE, theta (0.99, -0.05, 0.04) and P = 1e3 I; a step checks only
its sample, lambda and the gain denominator. A denominator below 1e-15, or
one that is inf or NaN because a long unexcited stretch has grown P by
1/lambda per step until it overflowed, raises NumericalDegeneracyError;
`identify_stream` flags the row and keeps the state it had, so theta does
not turn NaN that way.

The forgetting factor follows the SOC feedback with gain FORGETTING_GAIN,
clamped below at LAMBDA_MIN; a feedback SOC at or below EPS_SOC gives
LAMBDA_MIN and flags the row. Parameters are emitted after WARMUP accepted
samples. These are module constants, read at call time.

`forgetting_factor` and `build_sample` work elementwise, so
`identify_stream` computes every row's forgetting factor and regressor
sample once per stream, on whole columns, and its loop only steps the
state, extracts the circuit and records the point.

The circuit (R0, Rp, Cp) comes from theta through `extract_circuit`, which
returns None rather than raising when theta is not physical: on a recorded
trace most points are not, and `identify_stream` holds its last physical
estimate through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ecm import EcmParams, Trace

_finite = math.isfinite


class NumericalDegeneracyError(RuntimeError):
    pass


# forgetting gain a, lambda floor, smallest feedback SOC that divides, and
# the accepted samples before a circuit is emitted
FORGETTING_GAIN = 0.1
LAMBDA_MIN = 0.95
EPS_SOC = 0.01
WARMUP = 100

# theta0, then P0 = 1e3 I as the upper triangle
START_STATE = (0.99, -0.05, 0.04, 1e3, 0.0, 0.0, 1e3, 0.0, 1e3)


def build_sample(ut_k, ut_km1, ut_km2, il_k, il_km1, il_km2) -> tuple:
    """One difference-equation sample (a1, a2, a3, y) from three consecutive
    uniformly spaced measurements: the regressor row (dUt(k-1), dIl(k),
    dIl(k-1)) and the target dUt(k). Equal-length arrays give one column
    per entry."""
    return (ut_km1 - ut_km2, il_k - il_km1, il_km1 - il_km2, ut_k - ut_km1)


def forgetting_factor(soc_km1, soc_km2) -> tuple[np.ndarray, np.ndarray]:
    """lambda = 1 - a*|soc(k-1) - 1/2|*soc(k-1)/soc(k-2), clamped to
    [LAMBDA_MIN, 1], elementwise. Returns (lambda, degenerate-denominator
    flag) as arrays; a NaN lambda clamps to LAMBDA_MIN."""
    soc_km1 = np.asarray(soc_km1, dtype=float)
    soc_km2 = np.asarray(soc_km2, dtype=float)
    flag = soc_km2 <= EPS_SOC
    with np.errstate(all="ignore"):  # a flagged element is replaced below
        lam = (1.0 - FORGETTING_GAIN * np.abs(soc_km1 - 0.5)
               * (soc_km1 / soc_km2))
    return (np.where(flag, LAMBDA_MIN,
                     np.minimum(1.0, np.fmax(LAMBDA_MIN, lam))), flag)


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


def extract_circuit(th1: float, th2: float, th3: float,
                    dt: float) -> EcmParams | None:
    """The circuit of the coefficients, or None where they have none: th1
    outside (0, 1) gives no time constant, th1*th2 + th3 == 0 no Rp, and an
    R0, Rp or Cp that is not positive no physical circuit. A NaN that passes
    these tests reaches EcmParams, which raises ValueError."""
    num = th1 * th2 + th3
    if not 0.0 < th1 < 1.0 or num == 0.0:
        return None
    r0 = -th2
    rp = num / (th1 - 1.0)
    cp = (1.0 - th1) * dt / (math.log(th1) * num)
    if r0 <= 0 or rp <= 0 or cp <= 0:
        return None
    return EcmParams(r0, rp, cp)


@dataclass
class IdentifiedPoint:
    t: float
    params: EcmParams | None
    lam: float
    degenerate: bool = False


def identify_stream(trace: Trace, soc_feedback) -> list[IdentifiedPoint]:
    """Run the adaptive RLS over a trace.

    `soc_feedback` is the per-step SOC sequence driving the forgetting
    factor; it needs at least one value per sample (ValueError otherwise),
    and values past the trace are ignored. Parameters are emitted only after
    WARMUP accepted samples, holding the last physical value when
    extraction preconditions fail.
    """
    n = len(trace)
    fb = np.asarray(soc_feedback, dtype=float)
    if len(fb) < n:
        raise ValueError(f"soc_feedback has {len(fb)} values for a trace of "
                         f"{n} samples")
    fb, ut, il = fb[:n], trace.voltage_v, trace.current_a
    lams, flags = forgetting_factor(fb[1:-1], fb[:-2])
    samples = zip(*(c.tolist() for c in build_sample(
        ut[2:], ut[1:-1], ut[:-2], il[2:], il[1:-1], il[:-2])))
    state = START_STATE
    out: list[IdentifiedPoint] = []
    last_params: EcmParams | None = None
    accepted = 0
    warmup = WARMUP
    dt = trace.dt
    for tk, sample, lam, degenerate in zip(trace.t[2:].tolist(), samples,
                                           lams.tolist(), flags.tolist()):
        try:
            state = rls_step(state, sample, lam)
            accepted += 1
        except NumericalDegeneracyError:
            degenerate = True
        if accepted >= warmup:
            circuit = extract_circuit(state[0], state[1], state[2], dt)
            if circuit is not None:
                last_params = circuit  # else hold the previous estimate
        out.append(IdentifiedPoint(tk, last_params, lam, degenerate))
    return out
