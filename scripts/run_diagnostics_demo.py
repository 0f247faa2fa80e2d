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
                    generate_profile, interval_ccm, plateau_offset, run_ekf,
                    simulate_profile, whiteness)
from lfpsoc.multimodel import interval_innovations

PARAMS = EcmParams(r0=0.07, rp=0.04, cp=1000.0)
BASE = default_lifepo4_curve()
L = 20  # interval length


def run_filter(offset_v, sigma, q):
    cfg = SimConfig(capacity_ah=1.063, dt=1.0, voltage_noise_sigma=sigma,
                    rng_seed=42)
    profile = generate_profile("dst-like", 7200, seed=42, amp=1.0,
                               target_discharge_ah=1.0)
    actual = plateau_offset(BASE, offset_v, ramp=0.15) if offset_v else BASE
    trace = simulate_profile(BatteryState(0.95, 0.0), PARAMS, actual,
                             profile, cfg)
    noise = NoiseConfig(*q, r=sigma ** 2)
    return run_ekf(KfState(BatteryState(0.95, 0.0), 1e-4, 1e-4, noise, BASE,
                           cfg.capacity_ah), PARAMS, trace)


def main() -> int:
    outs = run_filter(0.0, sigma=0.003, q=(1e-12, 1e-12))[1000:]
    innov = np.array([o.innovation for o in outs])
    inside, lags, _ = whiteness(innov)
    ratio = np.mean(innov ** 2) / np.mean(
        [o.innovation_variance for o in outs])
    print(f"whiteness (correct curve): {inside}/{lags} lags inside the band, "
          f"variance ratio {ratio:.3f}")

    for off in (+0.02, -0.02):
        outs = run_filter(off, sigma=0.003, q=(1e-10, 1e-9))
        ivs = [interval_innovations(m, outs[m * L:(m + 1) * L])
               for m in range(len(outs) // L)]
        ccms = np.array([interval_ccm(prev, curr)
                         for prev, curr in zip(ivs, ivs[1:])])[10:]
        polarity = curve_error_polarity([o.k_soc for o in outs],
                                        [o.innovation for o in outs])
        pols = polarity[np.arange(2, len(ivs) + 1) * L - 1][10:]
        # gap = actual minus filter curve = off; both rules predict -sign(gap)
        expect = -np.sign(off)
        print(f"actual curve {off * 1e3:+.0f} mV off: sign matches "
              f"-sign(gap) for {np.mean(np.sign(ccms) == expect):.0%} of "
              f"cross-correlations, {np.mean(np.sign(pols) == expect):.0%} "
              f"of polarity statistics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
