"""First-order Thevenin equivalent-circuit battery simulator.

Sign convention: discharge current is positive. A positive current drains
SOC, charges the polarization voltage Up, and drops the terminal voltage by
R0*I. Terminal voltage is Ut = OCV(soc) - Up - R0*I. `simulate_profile`
reads OCV(soc) through one `OcvCurve.lookup`, which bisects the knots only
when the SOC leaves the segment of the previous sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curve import OcvCurve


CUTOFF_LOW_V = 2.0
CUTOFF_HIGH_V = 3.6


class InvalidInputError(ValueError):
    pass


def _require_positive(**values):
    for name, v in values.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"{name} must be finite and > 0, got {v}")


@dataclass(frozen=True)
class EcmParams:
    """Ohmic resistance, polarization resistance and capacitance (ohm/ohm/F)."""

    r0: float
    rp: float
    cp: float

    def __post_init__(self):
        _require_positive(r0=self.r0, rp=self.rp, cp=self.cp)

    @property
    def tau(self) -> float:
        return self.rp * self.cp


@dataclass(frozen=True)
class BatteryState:
    """Filter/simulator state: (SOC fraction, polarization voltage)."""

    soc: float
    up: float = 0.0


@dataclass
class Trace:
    """Uniformly sampled (t, current, terminal voltage) with ground truth."""

    t: np.ndarray
    current_a: np.ndarray
    voltage_v: np.ndarray
    true_soc: np.ndarray | None = None
    true_up_v: np.ndarray | None = None
    dt: float = 1.0
    cutoff_index: int | None = None
    cutoff_v: float | None = None  # the clean voltage at cutoff_index
    clamp_steps: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.t)


def step_state(state: BatteryState, params: EcmParams, current: float,
               dt: float, capacity_ah: float) -> tuple[BatteryState, bool]:
    """One exact-discretization step; returns (new state, soc-clamped flag)."""
    _require_positive(dt=dt, capacity_ah=capacity_ah)
    if not all(math.isfinite(v) for v in (state.soc, state.up, current)):
        raise InvalidInputError("non-finite state or current")
    decay = math.exp(-dt / params.tau)
    up = decay * state.up + (1.0 - decay) * params.rp * current
    soc_raw = state.soc - dt * current / (3600.0 * capacity_ah)
    soc = min(1.0, max(0.0, soc_raw))
    return BatteryState(soc, up), soc != soc_raw


def terminal_voltage(state: BatteryState, params: EcmParams, current: float,
                     curve: OcvCurve) -> float:
    """Ut = OCV(soc) - Up - R0*I (discharge-positive current)."""
    return curve.ocv(state.soc) - state.up - params.r0 * current


def simulate_profile(initial: BatteryState, params: EcmParams, curve: OcvCurve,
                     profile, dt: float, capacity_ah: float) -> Trace:
    """Iterate the ECM over a current profile at `dt` seconds a sample,
    recording the clean current and terminal voltage (`measure` adds the
    sensor noise). Stops early, marking cutoff_index and cutoff_v, where the
    clean voltage leaves [CUTOFF_LOW_V, CUTOFF_HIGH_V], read at call time."""
    _require_positive(dt=dt, capacity_ah=capacity_ah)
    profile = np.asarray(profile, dtype=float)
    if profile.size == 0:
        raise InvalidInputError("profile must be non-empty")
    if not np.all(np.isfinite(profile)):
        raise InvalidInputError("profile must be finite")
    # terminal_voltage and step_state on floats, the step's factors
    # computed once and the curve read through one segment lookup
    decay = math.exp(-dt / params.tau)
    up_gain = (1.0 - decay) * params.rp
    charge_as, r0 = 3600.0 * capacity_ah, params.r0
    ocv_slope = curve.lookup()
    low_v, high_v = CUTOFF_LOW_V, CUTOFF_HIGH_V
    volts, socs, ups, clamp_steps = [], [], [], []
    cutoff_index = cutoff_v = None
    soc, up = initial.soc, initial.up
    for k, i_k in enumerate(profile.tolist()):
        v_clean = ocv_slope(soc)[0] - up - r0 * i_k
        socs.append(soc)
        ups.append(up)
        volts.append(v_clean)
        if v_clean < low_v or v_clean > high_v:
            cutoff_index, cutoff_v = k, v_clean
            break
        if not (math.isfinite(soc) and math.isfinite(up)):
            raise InvalidInputError("non-finite state or current")
        up = decay * up + up_gain * i_k
        soc_raw = soc - dt * i_k / charge_as
        soc = min(1.0, max(0.0, soc_raw))
        if soc != soc_raw:
            clamp_steps.append(k + 1)
    n = len(socs)
    return Trace(np.arange(n) * dt, profile[:n].copy(),
                 np.array(volts, dtype=float), np.array(socs, dtype=float),
                 np.array(ups, dtype=float), dt=dt, cutoff_v=cutoff_v,
                 cutoff_index=cutoff_index, clamp_steps=clamp_steps)


def measure(trace: Trace, sigma_v: float, sigma_i: float, seed: int) -> Trace:
    """`trace` as its sensors read it: Gaussian noise of `sigma_v` on each
    voltage and `sigma_i` on each current, drawn in one `default_rng(seed)`
    call, row k holding sample k's voltage then current draw. A zero sigma
    draws nothing and adds 0.0; the true states are kept."""
    if not (sigma_v >= 0 and sigma_i >= 0):  # NaN too
        raise ValueError("noise sigmas must be >= 0")
    sigmas = [s for s in (sigma_v, sigma_i) if s > 0]
    draws = list(np.random.default_rng(seed).normal(
        0.0, sigmas, (len(trace), len(sigmas))).T)
    v_noise = draws.pop(0) if sigma_v > 0 else 0.0
    i_noise = draws.pop(0) if sigma_i > 0 else 0.0
    return replace(trace, voltage_v=trace.voltage_v + v_noise,
                   current_a=trace.current_a + i_noise)
