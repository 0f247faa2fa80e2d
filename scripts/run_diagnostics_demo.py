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

from lfpsoc import (ScenarioConfig, curve_error_polarity, interval_statistics,
                    run_ekf, whiteness)
from lfpsoc.multimodel import interval_innovations
from lfpsoc.scenario import estimator_inputs, simulate


def run_filter(offset_v, sigma, q):
    """The baseline filter's steps over the default scenario's trace, its
    actual curve offset by `offset_v` volts on the plateau, at voltage
    noise `sigma` and process noise `q`, and the scenario's interval
    length."""
    cfg = ScenarioConfig(
        true_curve=f"offset:{offset_v}:0.2:0.8:0.15" if offset_v else "default",
        sigma_v=sigma, q00=q[0], q11=q[1], r=sigma ** 2)
    trace, _, filter_curve = simulate(cfg)
    filt, params = estimator_inputs(cfg, trace, filter_curve)
    return run_ekf(filt, params, trace), cfg.interval_len


def main() -> int:
    outs = run_filter(0.0, sigma=0.003, q=(1e-12, 1e-12))[0][1000:]
    innov = np.array([o.innovation for o in outs])
    inside, lags, _ = whiteness(innov)
    ratio = np.mean(innov ** 2) / np.mean(
        [o.innovation_variance for o in outs])
    print(f"whiteness (correct curve): {inside}/{lags} lags inside the band, "
          f"variance ratio {ratio:.3f}")

    for off in (+0.02, -0.02):
        outs, L = run_filter(off, sigma=0.003, q=(1e-10, 1e-9))
        ivs = [interval_innovations(outs[m * L:(m + 1) * L])
               for m in range(len(outs) // L)]
        ccms = np.array([interval_statistics(prev, curr)[0]
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
