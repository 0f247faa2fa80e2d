"""First-order Thevenin equivalent-circuit battery simulator.

Sign convention: discharge current is positive. A positive current drains
SOC, charges the polarization voltage Up, and drops the terminal voltage by
R0*I. Terminal voltage is Ut = OCV(soc) - Up - R0*I. `simulate_profile`
reads OCV(soc) through one `OcvCurve.lookup`, which bisects the knots only
when the SOC leaves the segment of the previous sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curve import OcvCurve


CUTOFF_LOW_V = 2.0
CUTOFF_HIGH_V = 3.6


class InvalidInputError(ValueError):
    pass


@dataclass(frozen=True)
class EcmParams:
    """Ohmic resistance, polarization resistance and capacitance (ohm/ohm/F)."""

    r0: float
    rp: float
    cp: float

    def __post_init__(self):
        for name in ("r0", "rp", "cp"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")

    @property
    def tau(self) -> float:
        return self.rp * self.cp


@dataclass(frozen=True)
class BatteryState:
    """Filter/simulator state: (SOC fraction, polarization voltage)."""

    soc: float
    up: float = 0.0


@dataclass(frozen=True)
class SimConfig:
    capacity_ah: float = 1.063
    dt: float = 1.0
    voltage_noise_sigma: float = 0.0
    current_noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("capacity_ah", "dt"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not (self.voltage_noise_sigma >= 0
                and self.current_noise_sigma >= 0):  # NaN too
            raise ValueError("noise sigmas must be >= 0")

    @property
    def capacity_as(self) -> float:
        """Capacity in ampere-seconds."""
        return 3600.0 * self.capacity_ah


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
               cfg: SimConfig) -> tuple[BatteryState, bool]:
    """One exact-discretization step; returns (new state, soc-clamped flag)."""
    if not all(math.isfinite(v) for v in (state.soc, state.up, current)):
        raise InvalidInputError("non-finite state or current")
    decay = math.exp(-cfg.dt / params.tau)
    up = decay * state.up + (1.0 - decay) * params.rp * current
    soc_raw = state.soc - cfg.dt * current / cfg.capacity_as
    soc = min(1.0, max(0.0, soc_raw))
    return BatteryState(soc, up), soc != soc_raw


def terminal_voltage(state: BatteryState, params: EcmParams, current: float,
                     curve: OcvCurve) -> float:
    """Ut = OCV(soc) - Up - R0*I (discharge-positive current)."""
    return curve.ocv(state.soc) - state.up - params.r0 * current


def simulate_profile(initial: BatteryState, params: EcmParams, curve: OcvCurve,
                     profile, cfg: SimConfig) -> Trace:
    """Iterate the ECM over a current profile, recording noisy measurements.

    States evolve noise-free; Gaussian noise is added to the recorded voltage
    and current only. Stops early, marking cutoff_index and cutoff_v, where
    the clean terminal voltage leaves [CUTOFF_LOW_V, CUTOFF_HIGH_V], read at
    call time. Deterministic for a given rng_seed.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.size == 0:
        raise InvalidInputError("profile must be non-empty")
    if not np.all(np.isfinite(profile)):
        raise InvalidInputError("profile must be finite")
    n = profile.size
    # every draw at once: row k holds sample k's voltage then current draw,
    # the order of a per-sample loop of scalar draws
    sigmas = [v for v in (cfg.voltage_noise_sigma, cfg.current_noise_sigma)
              if v > 0]
    draws = np.random.default_rng(cfg.rng_seed).normal(
        0.0, sigmas, (n, len(sigmas))).T.tolist()
    v_noise = draws.pop(0) if cfg.voltage_noise_sigma > 0 else [0.0] * n
    i_noise = draws.pop(0) if cfg.current_noise_sigma > 0 else [0.0] * n
    # terminal_voltage and step_state on floats, the step's factors
    # computed once and the curve read through one segment lookup
    decay = math.exp(-cfg.dt / params.tau)
    up_gain = (1.0 - decay) * params.rp
    dt, capacity_as, r0 = cfg.dt, cfg.capacity_as, params.r0
    ocv_slope = curve.lookup()
    low_v, high_v = CUTOFF_LOW_V, CUTOFF_HIGH_V
    v_meas, i_meas, socs, ups, clamp_steps = [], [], [], [], []
    cutoff_index = cutoff_v = None
    soc, up = initial.soc, initial.up
    for k, i_k in enumerate(profile.tolist()):
        v_clean = ocv_slope(soc)[0] - up - r0 * i_k
        socs.append(soc)
        ups.append(up)
        v_meas.append(v_clean + v_noise[k])
        i_meas.append(i_k + i_noise[k])
        if v_clean < low_v or v_clean > high_v:
            cutoff_index, cutoff_v = k, v_clean
            break
        if not (math.isfinite(soc) and math.isfinite(up)):
            raise InvalidInputError("non-finite state or current")
        up = decay * up + up_gain * i_k
        soc_raw = soc - dt * i_k / capacity_as
        soc = min(1.0, max(0.0, soc_raw))
        if soc != soc_raw:
            clamp_steps.append(k + 1)
    return Trace(np.arange(len(socs)) * cfg.dt, np.array(i_meas, dtype=float),
                 np.array(v_meas, dtype=float), np.array(socs, dtype=float),
                 np.array(ups, dtype=float), dt=cfg.dt, cutoff_v=cutoff_v,
                 cutoff_index=cutoff_index, clamp_steps=clamp_steps)
