"""Synthetic drive-cycle current profiles (discharge-positive amperes)."""

from __future__ import annotations

import numpy as np


class ProfileConfigError(ValueError):
    pass


STEP_SIGMA = 0.05  # the random walk's step standard deviation, amperes
PROFILE_KINDS = ("constant", "pulse", "dst-like", "random-walk")

# One dynamic-stress block: mixed charge/discharge pulses (relative levels)
# with a net-discharge bias, loosely shaped like standard cycling tests.
_DST_BLOCK = np.array([
    0.5, 0.5, 1.0, 1.0, 2.0, 2.0, 1.0, -0.5, -0.5, 0.25,
    0.25, 1.5, 1.5, 3.0, 1.0, 1.0, -1.0, -1.0, 0.5, 0.5,
])


def generate_profile(kind: str, n_steps: int, dt: float = 1.0, seed: int = 0,
                     amp: float = 1.0,
                     target_discharge_ah: float | None = None) -> np.ndarray:
    """Build a deterministic current profile: its n_steps float64 samples.

    kinds: 'constant' (amp everywhere), 'pulse' (amp/rest alternation),
    'dst-like' (repeating mixed charge/discharge blocks, optionally scaled so
    the net discharge over the profile equals target_discharge_ah),
    'random-walk' (seeded, clipped to +-amp, amp >= 0).
    """
    if n_steps <= 0:
        raise ProfileConfigError("n_steps must be > 0")
    if kind == "constant":
        samples = np.full(n_steps, amp)
    elif kind == "pulse":
        block = np.concatenate([np.full(30, amp), np.zeros(30)])
        samples = np.tile(block, n_steps // len(block) + 1)[:n_steps]
    elif kind == "dst-like":
        # stretch each pulse level over several seconds
        stretch = 18
        block = np.repeat(_DST_BLOCK, stretch)
        samples = amp * np.tile(block, n_steps // len(block) + 1)[:n_steps]
        if target_discharge_ah is not None:
            net = np.sum(samples) * dt / 3600.0
            if net <= 0:
                raise ProfileConfigError("profile has no net discharge to scale")
            samples = samples * (target_discharge_ah / net)
    elif kind == "random-walk":
        if amp < 0:  # np.clip would give amp everywhere
            raise ProfileConfigError(f"random-walk amp must be >= 0: {amp!r}")
        rng = np.random.default_rng(seed)
        samples = np.clip(np.cumsum(rng.normal(0.0, STEP_SIGMA, n_steps)),
                          -amp, amp)
    else:
        raise ProfileConfigError(f"unknown profile kind {kind!r}")
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise ProfileConfigError("profile must be non-empty and finite")
    return samples
