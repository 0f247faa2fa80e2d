#!/usr/bin/env python3
"""Innovation-diagnostics demonstration.

1. Whiteness: with a correct curve and a near-optimal filter, innovations
   pass the +-2/sqrt(N) autocorrelation test and the empirical/theoretical
   variance ratio sits near 1.
2. Curve-error polarity: with a constant plateau offset of either sign,
   the share of adjacent interval pairs whose statistic has the sign the
   rule predicts, -sign(gap), for the interval cross-correlation (CCM) and
   for the curve-error polarity statistic (minus the filter's accumulated
   SOC correction). The CCM is positive under both offsets, so it matches
   only the one whose gap is negative; the polarity statistic matches both.

Usage: python scripts/run_diagnostics_demo.py
"""
import sys

import numpy as np

from lfpsoc import (BatteryState, EcmParams, KfState, NoiseConfig, SimConfig,
                    curve_error_polarity, default_lifepo4_curve,
                    generate_profile, plateau_offset, run_ekf,
                    simulate_profile)

PARAMS = EcmParams(r0=0.07, rp=0.04, cp=1000.0)
BASE = default_lifepo4_curve()


def run_filter(offset_v, sigma, q):
    cfg = SimConfig(capacity_ah=1.063, dt=1.0, voltage_noise_sigma=sigma,
                    rng_seed=42)
    profile = generate_profile("dst-like", 7200, seed=42, amp=1.0,
                               target_discharge_ah=1.0)
    actual = plateau_offset(BASE, offset_v, ramp=0.15) if offset_v else BASE
    trace = simulate_profile(BatteryState(0.95, 0.0), PARAMS, actual,
                             profile, cfg)
    noise = NoiseConfig(q=np.diag(q), r=sigma ** 2)
    outs = run_ekf(KfState(BatteryState(0.95, 0.0), np.diag([1e-4, 1e-4]),
                           noise, BASE, cfg.capacity_ah), PARAMS, trace)
    return np.array([o.innovation for o in outs]), outs


def main() -> int:
    innov, outs = run_filter(0.0, sigma=0.003, q=(1e-12, 1e-12))
    v = innov[1000:] - innov[1000:].mean()
    n = len(v)
    ac = np.array([np.sum(v[:-k] * v[k:]) for k in range(1, 21)]) / np.sum(v * v)
    inside = int(np.sum(np.abs(ac) <= 2 / np.sqrt(n)))
    ratio = np.mean(innov[1000:] ** 2) / np.mean(
        [o.innovation_variance for o in outs[1000:]])
    print(f"whiteness (correct curve): {inside}/20 lags inside the band, "
          f"variance ratio {ratio:.3f}")

    for off in (+0.02, -0.02):
        innov, outs = run_filter(off, sigma=0.003, q=(1e-10, 1e-9))
        ivs = [innov[m * 20:(m + 1) * 20] for m in range(len(innov) // 20)]
        ccms = np.array([np.mean(ivs[m - 1] * ivs[m])
                         for m in range(1, len(ivs))])[10:]
        polarity = curve_error_polarity([o.k_soc for o in outs], innov)
        pols = polarity[np.arange(2, len(ivs) + 1) * 20 - 1][10:]
        # gap = actual minus filter curve = off; both rules predict -sign(gap)
        expect = -np.sign(off)
        print(f"actual curve {off * 1e3:+.0f} mV off: sign matches "
              f"-sign(gap) for {np.mean(np.sign(ccms) == expect):.0%} of "
              f"cross-correlations, {np.mean(np.sign(pols) == expect):.0%} "
              f"of polarity statistics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
