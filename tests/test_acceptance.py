"""Acceptance gate: eight end-to-end criteria, each reporting a single
pass/fail line. All scenarios are synthetic, seeded, and use the frozen
reference configuration (7200-step mixed drive cycle, 7-filter bank)."""

import math

import numpy as np
import pytest

import conftest

from lfpsoc import multimodel
from lfpsoc import (BankConfig, BatteryState, EcmParams, KfState, NoiseConfig,
                    OcvCurve, ScenarioConfig, circuit_to_theta,
                    curve_error_polarity, default_lifepo4_curve,
                    extract_circuit, generate_profile, plateau_offset,
                    run_ammkf, run_ekf, run_scenario, run_sweep,
                    simulate_profile)
from lfpsoc.ecm import SimConfig
from lfpsoc.innovation import whiteness
from lfpsoc.metrics import curve_mae
from lfpsoc.rls import identify_stream, rls_step


def _report(num: int, desc: str, ok: bool, detail: str):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="session")
def headline():
    """The frozen reference scenario: truth 20 mV below the filter's curve
    on the plateau, 7200 steps, 1 Ah net discharge, seed 42."""
    return run_scenario(ScenarioConfig())


class TestAcceptance:
    def test_criterion_1_consistent_model_sanity(self):
        cfg = ScenarioConfig(true_curve="default", filter_curve="default",
                             sigma_v=0.0)
        res = run_scenario(cfg)
        ekf_max = float(np.max(np.abs(res.soc_ekf - res.trace.true_soc)))
        diff = float(np.max(np.abs(res.soc_ammkf - res.soc_ekf)))
        ok = ekf_max < 1e-6 and diff < 0.005
        _report(1, "consistent model: EKF exact, bank within 0.5% of EKF",
                ok, f"ekf max err {ekf_max:.2e}, bank-vs-ekf {diff:.4f}")

    def test_criterion_2_innovation_whiteness(self):
        sigma = 0.003
        params = EcmParams(0.07, 0.04, 1000.0)
        curve = default_lifepo4_curve()
        sim = SimConfig(capacity_ah=1.063, dt=1.0,
                        voltage_noise_sigma=sigma, rng_seed=42)
        prof = generate_profile("dst-like", 7200, seed=42, amp=1.0,
                                target_discharge_ah=1.0)
        trace = simulate_profile(BatteryState(0.95, 0.0), params, curve,
                                 prof, sim)
        init = KfState(BatteryState(0.95, 0.0), 1e-6, 1e-6,
                       NoiseConfig(1e-12, 1e-12, sigma**2),
                       curve, sim.capacity_ah)
        outs = run_ekf(init, params, trace)
        v = np.array([o.innovation for o in outs[200:]])
        theo = np.mean([o.innovation_variance for o in outs[200:]])
        ratio = float(np.mean(v ** 2) / theo)
        inside, lags, _ = whiteness(v)
        ok = inside >= 18 and 0.7 <= ratio <= 1.3
        _report(2, "matched-model innovations white, ACM ratio in [0.7,1.3]",
                ok, f"{inside}/{lags} lags inside, ratio {ratio:.3f}")

    def test_criterion_3_ccm_sign_rule_both_polarities(self):
        sigma = 0.003
        params = EcmParams(0.07, 0.04, 1000.0)
        curve = default_lifepo4_curve()
        sim = SimConfig(capacity_ah=1.063, dt=1.0,
                        voltage_noise_sigma=sigma, rng_seed=42)
        prof = generate_profile("dst-like", 7200, seed=42, amp=1.0,
                                target_discharge_ah=1.0)
        trace = simulate_profile(BatteryState(0.95, 0.0), params, curve,
                                 prof, sim)
        L = 20

        def sign_fraction(gap_sign: int) -> float:
            # gap g = actual curve minus the filter's copy on the plateau;
            # the rule predicts sign(statistic) = -sign(g), read at the end
            # of each adjacent interval pair
            filt = plateau_offset(curve, -gap_sign * 0.020,
                                  lo=0.2, hi=0.8, ramp=0.15)
            init = KfState(BatteryState(0.95, 0.0), 1e-4, 1e-4,
                           NoiseConfig(1e-10, 1e-9, sigma**2),
                           filt, sim.capacity_ah)
            outs = run_ekf(init, params, trace)
            polarity = curve_error_polarity([o.k_soc for o in outs],
                                            [o.innovation for o in outs])
            values = [polarity[(m + 2) * L - 1]
                      for m in range(10, len(outs) // L - 1)]
            return float(np.mean([math.copysign(1.0, v) == -gap_sign
                                  for v in values]))

        frac_neg = sign_fraction(-1)  # filter above truth, g < 0
        frac_pos = sign_fraction(+1)  # filter below truth, g > 0
        ok = frac_neg >= 0.9 and frac_pos >= 0.9
        _report(3, "curve-error polarity sign matches -sign(g) in >=90% of "
                   "interval pairs, both polarities", ok,
                f"g<0: {frac_neg:.0%}, g>0: {frac_pos:.0%}")

    def test_criterion_4_headline_accuracy_ordering(self, headline):
        base = headline.metrics["ekf-baseline"].rmse
        bank = headline.metrics["ammkf"].rmse
        ok = base > 0.10 and bank < 0.03 and bank < 0.5 * base
        _report(4, "plateau offset: baseline >10% RMSE, bank <3% and <half",
                ok, f"baseline {base:.4f}, bank {bank:.4f}")

    def test_criterion_5_initial_error_robustness(self):
        cfg = ScenarioConfig(p0_soc=1e-2)
        overrides = [{"initial_soc_error": e}
                     for e in (-0.20, -0.10, 0.10, 0.20)]
        results = run_sweep(cfg, overrides)
        details = []
        ok = True
        for ov, res in zip(overrides, results):
            m = res.metrics["ammkf"]
            conv = m.convergence_time_s
            details.append(f"{ov['initial_soc_error']:+.0%}: "
                           f"conv={'inf' if conv is None else f'{conv:.0f}s'}")
            ok = ok and conv is not None and m.final_quarter_rmse < 0.05
        _report(5, "every +-10/20 pp initial error converges inside the 5% "
                   "band and stays there", ok, "; ".join(details))

    def test_criterion_6_curve_correction_quality(self, headline):
        mae_corr, mae_orig = curve_mae(headline.corrected_points,
                                       headline.true_curve,
                                       headline.filter_curve)
        ok = mae_corr < 0.25 * mae_orig and mae_corr < mae_orig
        _report(6, "corrected curve cloud MAE <25% of injected error and "
                   "below original", ok,
                f"corrected {mae_corr * 1e3:.2f} mV vs injected "
                f"{mae_orig * 1e3:.2f} mV")

    def test_criterion_7_identification(self, no_low_cutoff):
        params = EcmParams(0.07, 0.04, 1000.0)
        # recovery on a noise-free trace confined to an exactly flat plateau
        # (the validity region of the voltage-difference regression)
        flat = OcvCurve(np.array([0.0, 0.05, 0.15, 0.2, 0.8, 0.9, 1.0]),
                        np.array([2.0, 2.9, 3.2, 3.28, 3.28, 3.35, 3.6]))
        sim = SimConfig(capacity_ah=1.063, dt=1.0)
        prof = generate_profile("dst-like", 3000, seed=5, amp=1.0,
                                target_discharge_ah=0.3)
        trace = simulate_profile(BatteryState(0.7, 0.0), params, flat,
                                 prof, sim)
        final = identify_stream(trace, soc_feedback=trace.true_soc)[-1].params
        rec_ok = (final is not None
                  and abs(final.r0 - params.r0) / params.r0 < 0.05
                  and abs(final.rp - params.rp) / params.rp < 0.10
                  and abs(final.cp - params.cp) / params.cp < 0.15)
        # with a unit forgetting factor, the recursion equals batch least
        # squares on every prefix
        rng = np.random.default_rng(7)
        a_rows = rng.normal(size=(60, 3))
        ys = a_rows @ np.array([0.8, -0.1, 0.05]) + 0.01 * rng.normal(size=60)
        # theta 0, P = 1e6 I
        state = (0.0, 0.0, 0.0, 1e6, 0.0, 0.0, 1e6, 0.0, 1e6)
        batch_ok = True
        for n in range(60):
            state = rls_step(state, (*a_rows[n], ys[n]), 1.0)
            if n >= 10:
                batch, *_ = np.linalg.lstsq(a_rows[:n + 1], ys[:n + 1],
                                            rcond=None)
                batch_ok = batch_ok and bool(
                    np.all(np.abs(np.array(state[:3]) - batch)
                           <= 1e-6 * np.maximum(np.abs(batch), 1e-8)))
        ok = rec_ok and batch_ok
        detail = "no physical estimate" if final is None else (
            f"r0 {abs(final.r0 - 0.07) / 0.07:.1e}, "
            f"rp {abs(final.rp - 0.04) / 0.04:.1e}, "
            f"cp {abs(final.cp - 1000) / 1000:.1e} rel err; "
            f"batch-equivalence {'ok' if batch_ok else 'violated'}")
        _report(7, "parameters recovered within 5/10/15%; unit-forgetting "
                   "recursion == batch least squares to 1e-6", ok, detail)

    def test_criterion_8_structural_reductions(self, monkeypatch):
        params = EcmParams(0.07, 0.04, 1000.0)
        curve = default_lifepo4_curve()
        sim = SimConfig(capacity_ah=1.063, dt=1.0,
                        voltage_noise_sigma=0.001, rng_seed=42)
        prof = generate_profile("dst-like", 1500, seed=42, amp=1.0,
                                target_discharge_ah=0.2)
        trace = simulate_profile(BatteryState(0.95, 0.0), params, curve,
                                 prof, sim)
        noise = NoiseConfig(1e-7, 1e-6, 1e-6)
        bank_noise = NoiseConfig(1e-11, 1e-6, 1e-6)
        filt = KfState(BatteryState(0.95, 0.0), 1e-4, 1e-4, noise,
                       curve, sim.capacity_ah)
        # (a) single-filter bank reduces exactly to the plain filter
        single = run_ammkf(trace, filt, params,
                           BankConfig(n=1, interval_len=20, spread=2.0), noise)
        ekf_soc = np.array([o.soc for o in
                            run_ekf(filt, params, trace)])
        reduction_ok = bool(np.array_equal(single.soc, ekf_soc))
        # (b) regression-coefficient <-> circuit-parameter round trip
        roundtrip_ok = True
        for r0 in (0.01, 0.07, 0.3):
            for tau in (5.0, 40.0, 200.0):
                p = EcmParams(r0, 0.04, tau / 0.04)
                back = extract_circuit(*circuit_to_theta(p, 1.0), 1.0)
                roundtrip_ok = roundtrip_ok and (
                    abs(back.r0 - p.r0) / p.r0 < 1e-9
                    and abs(back.rp - p.rp) / p.rp < 1e-9
                    and abs(back.cp - p.cp) / p.cp < 1e-9)
        # (c) probability vectors stay on the simplex through a full run
        full_args = (trace, filt, params,
                     BankConfig(n=7, interval_len=20, spread=6.0))
        a = run_ammkf(*full_args, bank_noise=bank_noise)
        simplex_ok = all(1.0 / 7 - 1e-9 <= d.prob_max <= 1.0 + 1e-9
                         for d in a.diagnostics)
        # (d) determinism: repeat run, and the bank's filters in reversed
        # order give the same estimate with the mirrored pick
        b = run_ammkf(*full_args, bank_noise=bank_noise)
        build = multimodel.build_slope_set
        monkeypatch.setattr(multimodel, "build_slope_set",
                            lambda *args: build(*args)[::-1])
        c = run_ammkf(*full_args, bank_noise=bank_noise)
        det_ok = bool(np.array_equal(a.soc, b.soc)
                      and np.array_equal(a.soc, c.soc)
                      and [6 - d.optimal_index for d in a.diagnostics]
                      == [d.optimal_index for d in c.diagnostics])
        ok = reduction_ok and roundtrip_ok and simplex_ok and det_ok
        _report(8, "n=1 reduction exact; round trip 1e-9; simplex; "
                   "deterministic under evaluation order", ok,
                f"reduction={reduction_ok}, roundtrip={roundtrip_ok}, "
                f"simplex={simplex_ok}, determinism={det_ok}")
