"""Extended Kalman filter: the closed-form step (prediction, measurement
model, update algebra) against a numpy matrix-form reference, and
closed-loop behavior on simulated traces."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lfpsoc import (BankConfig, BatteryState, EcmParams, KfState, NoiseConfig,
                    OcvCurve, ScenarioConfig, SimConfig, default_lifepo4_curve,
                    run_ammkf, run_ekf, run_scenario, simulate_profile,
                    step_state)
from lfpsoc.ekf import (PLAIN, FilterDegeneracyError, StepOutput,
                        kalman_step, samples, transition)
from lfpsoc.innovation import whiteness
from lfpsoc.profiles import generate_profile


def _state(curve, soc=0.5, up=0.0, p=(1e-4, 1e-4), noise=None):
    """A filter on `curve` from (soc, up) with start variances `p`."""
    return KfState(BatteryState(soc, up), *p,
                   noise or NoiseConfig(1e-10, 1e-6, 1e-6), curve, 1.063)


def _row(k, coef, u_prev, y, u):
    """The row of sample `k` that `samples` gives, from the transition
    `coef` of its parameters, the previous and present current and the
    measured voltage: (k, decay, g_soc*u_prev, g_up*u_prev, y, r0*u)."""
    decay, g_soc, g_up, r0 = coef
    return (k, decay, g_soc * u_prev, g_up * u_prev, y, r0 * u)


def _step(f, coef, u_prev, y, u, first, k=None, slope=None, anchor=None,
          x=None):
    """One step of filter `f` alone (a set of one) from posterior `x`, its
    start unless given, as a one-row call: on its curve, or with `slope` on
    the affine model through `anchor`, (anchor SOC, model OCV). The row's
    sample is `k`; a first step, which skips prediction, is sample 0, any
    other sample 1 unless `k` says otherwise."""
    if k is None:
        k = 0 if first else 1
    assert (k == 0) == first
    [[out]] = kalman_step(f, anchor, [slope], x or f.start(),
                          [_row(k, coef, u_prev, y, u)])
    return StepOutput._make(out)


def _update(f, measured, current, params, **member):
    """The measurement update alone: a first step, which skips prediction."""
    return _step(f, transition(params, 1.0, 1.063), 0.0, measured, current,
                 first=True, **member)


def _predicted(f, params, current=0.0, **member):
    """Predicted terminal voltage h(x) - R0*I at the filter's start state."""
    return -_update(f, 0.0, current, params, **member).innovation


def _prior(f, params, current, cfg, x=None):
    """The prior (soc, up) and covariance of a full step from posterior `x`
    (`f`'s start unless given), read from the steps of two bank members
    with slopes 0 and 1 anchored at
    SOC 0 and OCV 3.3. Measured at 3.3 V, slope 0 gives e = up and S = p11 + r
    with K_soc * S = -p01; slope 1 gives e = up - soc and
    S = p00 - 2 p01 + p11 + r."""
    e, s_var, k = [], [], []
    for slope in (0.0, 1.0):
        out = _step(f, transition(params, cfg.dt, cfg.capacity_ah), current,
                    3.3, 0.0, first=False, slope=slope, anchor=(0.0, 3.3),
                    x=x)
        e.append(out.innovation)
        s_var.append(out.innovation_variance - f.noise.r)
        k.append(out.k_soc * out.innovation_variance)
    p01 = -k[0]
    p_minus = np.array([[s_var[1] + 2 * p01 - s_var[0], p01],
                        [p01, s_var[0]]])
    return e[0] - e[1], e[0], p_minus


def _slope(out, f):
    """The slope s of the row H = [s, -1] that a first step from `f`'s
    diagonal covariance used: K_soc = p00 * s / S."""
    return out.k_soc * out.innovation_variance / f.p00


def _posterior_p(o):
    return np.array([[o.p00, o.p01], [o.p01, o.p11]])


def _reference_step(f, x, slope, anchor, params, cfg, u_prev, y, u, first):
    """Matrix-form step of filter `f` from posterior `x`, written from the
    numpy predict/update this module replaced: F P F^T + Q with
    Q = diag(q00, q11), H = [s, -1], (I - K H) P symmetrized. A `slope` of
    None reads the curve; a slope reads the affine model through `anchor`,
    (anchor SOC, model OCV)."""
    decay = np.exp(-cfg.dt / params.tau)
    fm = np.array([[1.0, 0.0], [0.0, decay]])
    g = np.array([-cfg.dt / cfg.capacity_as, params.rp * (1.0 - decay)])
    soc, up, p00, p01, p11 = x[:5]
    x, p = np.array([soc, up]), np.array([[p00, p01], [p01, p11]])
    if not first:
        q = np.diag([f.noise.q00, f.noise.q11])
        x, p = fm @ x + g * u_prev, fm @ p @ fm.T + q
    if slope is None:
        soc = min(max(x[0], f.curve.soc_min), f.curve.soc_max)
        slope = f.curve.slope(np.array([soc]))[0]
        h = np.interp(soc, f.curve.knot_soc, f.curve.knot_ocv) - x[1]
    else:
        anchor_soc, anchor_ocv = anchor
        h = anchor_ocv + slope * (x[0] - anchor_soc) - x[1]
    h_row = np.array([slope, -1.0])
    innovation = y - (h - params.r0 * u)
    s_var = float(h_row @ p @ h_row) + f.noise.r
    # P- H^T by unfused products: a BLAS matvec may fuse the multiply-add,
    # which turns an exact 0 gain into a 1e-22 one and flips the clamp flag
    # of a posterior that sits on a bound
    gain = (p * h_row).sum(axis=1) / s_var
    xv = x + gain * innovation
    p_post = (np.eye(2) - np.outer(gain, h_row)) @ p
    return dict(prior=x, prior_p=p, soc=xv[0], up=xv[1],
                posterior_p=0.5 * (p_post + p_post.T), innovation=innovation,
                s_var=s_var, gain=gain, slope=slope,
                clamped=bool(xv[0] < 0.0 or xv[0] > 1.0))


def _assert_matches_reference(out, ref):
    """A step equals the matrix-form reference (to `_close`), and its
    log-density is -(e^2/S + ln S)/2 of its own e and S, exactly."""
    p_scale = float(np.max(np.abs(ref["prior_p"])))
    _close(out.innovation, ref["innovation"], 3.3)
    _close(out.innovation_variance, ref["s_var"])
    _close(out.k_soc, ref["gain"][0],
           p_scale * (1.0 + ref["slope"]) / ref["s_var"])
    assert out.soc_clamped == ref["clamped"]
    _close(out.soc, min(1.0, max(0.0, ref["soc"])), 1.0)
    _close(out.up, ref["up"], 1.0)
    _close(_posterior_p(out), ref["posterior_p"], p_scale)
    e, s_var = out.innovation, out.innovation_variance
    assert out.log_likelihood == -0.5 * (e * e / s_var + math.log(s_var))


def _close(value, expected, scale=0.0):
    """Equal to 1e-12, relative to the larger of the value and the scale of
    the operands it was computed from."""
    bound = 1e-12 * max(np.max(np.abs(expected)), scale)
    assert np.all(np.abs(np.asarray(value) - expected) <= bound), \
        (value, expected)


class TestNoiseConfig:
    @pytest.mark.parametrize("q00, q11, r, message", [
        (-1e-7, 1e-6, 1e-6, "q00 must be finite and >= 0, got -1e-07"),
        (1e-7, -1e-6, 1e-6, "q11 must be finite and >= 0, got -1e-06"),
        (-math.inf, 1e-6, 1e-6, "q00 must be finite and >= 0, got -inf"),
        (1e-7, math.inf, 1e-6, "q11 must be finite and >= 0, got inf"),
        (1e-7, 1e-6, 0.0, "r must be finite and > 0, got 0.0"),
        (1e-7, 1e-6, -1e-6, "r must be finite and > 0, got -1e-06"),
        (1e-7, 1e-6, math.nan, "r must be finite and > 0, got nan")])
    def test_bad_noise_names_its_field(self, q00, q11, r, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NoiseConfig(q00, q11, r)

    @pytest.mark.parametrize("p00, p11, message", [
        (-math.inf, 1e-4, "p00 must be finite, got -inf"),
        (1e-4, math.inf, "p11 must be finite, got inf"),
        (1e-4, -math.inf, "p11 must be finite, got -inf")])
    def test_non_finite_start_variance_names_its_field(self, base_curve, p00,
                                                       p11, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KfState(BatteryState(0.5, 0.0), p00, p11,
                    NoiseConfig(1e-7, 1e-6, 1e-6), base_curve, 1.063)

    @pytest.mark.parametrize("p00, p11, message", [
        (-1e-6, 1e-4, "p00 must be finite and >= 0, got -1e-06"),
        (1e-4, -1e-4, "p11 must be finite and >= 0, got -0.0001")])
    def test_negative_start_variance_names_its_field(self, base_curve, p00,
                                                     p11, message):
        # p00 = -1e-6 once ran to the end with a negative first SOC gain
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KfState(BatteryState(0.5, 0.0), p00, p11,
                    NoiseConfig(1e-7, 1e-6, 1e-6), base_curve, 1.063)

    def test_zero_start_variance_allowed(self, base_curve):
        f = KfState(BatteryState(0.5, 0.0), 0.0, 0.0,
                    NoiseConfig(1e-7, 1e-6, 1e-6), base_curve, 1.063)
        assert f.start() == (0.5, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("soc, p00, q00, r, field", [
        (0.9, math.nan, 1e-7, 1e-6, "p00"),
        (0.9, math.inf, 1e-7, 1e-6, "p00"),
        (math.nan, 1e-4, 1e-7, 1e-6, "x"),
        (0.9, 1e-4, math.inf, 1e-6, "q00"),
        (0.9, 1e-4, math.nan, 1e-6, "q00"),
        (0.9, 1e-4, 1e-7, math.inf, "r")])
    def test_non_finite_start_or_noise_names_its_field(self, params,
                                                       base_curve, soc, p00,
                                                       q00, r, field,
                                                       no_low_cutoff):
        # each once ran without error: the filter gave SOC 0.0 at every
        # step without a clamp flag, or weighed by -inf log-densities
        cfg = SimConfig()
        trace = simulate_profile(BatteryState(0.9, 0.0), params, base_curve,
                                 np.full(100, 0.5), cfg)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            run_ekf(KfState(BatteryState(soc, 0.0), p00, 1e-4,
                            NoiseConfig(q00, 1e-6, r), base_curve,
                            cfg.capacity_ah),
                    params, trace)

    @pytest.mark.parametrize("capacity", [0.0, -1.0, math.nan, math.inf])
    def test_capacity_not_finite_and_positive_names_its_field(self,
                                                             base_curve,
                                                             capacity):
        # the filter counts charge against its own capacity: -dt/(3600*0)
        # would raise ZeroDivisionError at the first step
        with pytest.raises(ValueError, match=re.escape(
                f"capacity_ah must be finite and > 0, got {capacity}")):
            KfState(BatteryState(0.5, 0.0), 1e-4, 1e-4,
                    NoiseConfig(1e-7, 1e-6, 1e-6), base_curve, capacity)

    def test_run_ammkf_rejects_a_non_finite_start(self, params, base_curve,
                                                  no_low_cutoff):
        cfg = SimConfig()
        trace = simulate_profile(BatteryState(0.9, 0.0), params, base_curve,
                                 np.full(100, 0.5), cfg)
        # the filter is checked where it is built, before run_ammkf
        # could step it
        with pytest.raises(ValueError, match="^p00 must be finite"):
            filt = KfState(BatteryState(0.9, 0.0), math.inf, 1e-4,
                           NoiseConfig(1e-10, 1e-6, 1e-6), base_curve,
                           cfg.capacity_ah)
            run_ammkf(trace, filt, params, BankConfig(7, 20, 2.0),
                      filt.noise)

    def test_override_without_anchor_rejected(self, params, base_curve):
        # a slope reads the affine model through the anchor: without one
        # the step raises instead of stepping
        with pytest.raises(TypeError):
            _update(_state(base_curve), 3.3, 0.0, params, slope=0.1)


class TestTransitionMatrices:
    def test_reference_values(self, params, sim_cfg):
        decay, g_soc, g_up, r0 = transition(params, sim_cfg.dt,
                                            sim_cfg.capacity_ah)
        expect = math.exp(-1.0 / 40.0)  # tau = rp*cp = 40 s, dt = 1 s
        assert decay == pytest.approx(expect, abs=1e-15)
        assert g_soc == pytest.approx(-1.0 / (3600.0 * 1.063), rel=1e-12)
        assert g_up == pytest.approx(0.04 * (1.0 - expect), rel=1e-12)
        assert r0 == params.r0

    def test_prediction_matches_simulator(self, params, base_curve, sim_cfg):
        # oracle: the noise-free plant step is the same affine map
        st8 = _state(base_curve, soc=0.6, up=0.02)
        for current in (-1.0, 0.0, 0.5, 2.0):
            soc, up, _ = _prior(st8, params, current, sim_cfg)
            plant, _ = step_state(BatteryState(0.6, 0.02), params, current,
                                  sim_cfg)
            assert soc == pytest.approx(plant.soc, abs=1e-15)
            assert up == pytest.approx(plant.up, abs=1e-15)

    def test_covariance_propagation_with_zero_q(self, params, base_curve,
                                                sim_cfg):
        noise = NoiseConfig(0.0, 0.0, 1e-6)
        p0 = np.array([[2e-4, 1e-5], [1e-5, 3e-4]])
        st8 = _state(base_curve, p=(2e-4, 3e-4), noise=noise)
        _, _, p_minus = _prior(st8, params, 0.0, sim_cfg,
                               x=(0.5, 0.0, 2e-4, 1e-5, 3e-4))
        decay = transition(params, sim_cfg.dt, sim_cfg.capacity_ah)[0]
        f = np.diag([1.0, decay])
        assert np.allclose(p_minus, f @ p0 @ f.T, atol=1e-18)

    def test_q_added_once_per_predict(self, params, base_curve, sim_cfg):
        st8 = _state(base_curve, p=(0.0, 0.0),
                     noise=NoiseConfig(1e-7, 1e-6, 1e-6))
        _, _, p_minus = _prior(st8, params, 0.0, sim_cfg)
        assert np.allclose(p_minus, np.diag([1e-7, 1e-6]), atol=1e-18)


class TestMeasurementModel:
    def test_jacobian_uses_local_slope(self, params, two_knot_curve):
        st8 = _state(two_knot_curve, soc=0.3)
        assert _slope(_update(st8, 3.25, 0.0, params), st8) == \
            pytest.approx(0.5, abs=1e-12)

    def test_jacobian_override(self, params, two_knot_curve):
        st8 = _state(two_knot_curve, soc=0.35)
        out = _update(st8, 3.25, 0.0, params, slope=0.07, anchor=(0.3, 3.25))
        assert _slope(out, st8) == pytest.approx(0.07, abs=1e-12)

    def test_predicted_voltage_plain(self, two_knot_curve):
        p = EcmParams(r0=0.1, rp=0.04, cp=1000.0)
        st8 = _state(two_knot_curve, soc=0.4, up=0.05)
        assert _predicted(st8, p, 1.0) == \
            pytest.approx(3.30 - 0.05 - 0.1, abs=1e-12)

    def test_predicted_voltage_affine_about_anchor(self, two_knot_curve):
        p = EcmParams(r0=0.1, rp=0.04, cp=1000.0)
        st8 = _state(two_knot_curve, soc=0.35, up=0.01)
        # anchor value 3.25 on the curve, plus 0.2 * 0.05, minus up
        anchor = (0.3, two_knot_curve.ocv(0.3))
        assert anchor[1] == pytest.approx(3.25, abs=1e-12)
        assert _predicted(st8, p, slope=0.2, anchor=anchor) == \
            pytest.approx(3.25 + 0.2 * 0.05 - 0.01, abs=1e-12)

    def test_carried_anchor_value_takes_precedence(self, two_knot_curve):
        p = EcmParams(r0=0.1, rp=0.04, cp=1000.0)
        # a carried model value, off the curve's 3.25 at the anchor SOC
        st8 = _state(two_knot_curve, soc=0.3)
        assert _predicted(st8, p, slope=0.2, anchor=(0.3, 3.27)) == \
            pytest.approx(3.27, abs=1e-12)

    def test_slope_read_at_the_clamped_prior(self, params, two_knot_curve):
        # a prior outside the knot domain reads the curve at its nearest end
        for soc, ocv in ((0.1, 3.20), (0.5, 3.30)):
            st8 = _state(two_knot_curve, soc=soc)
            out = _update(st8, 3.0, 0.0, params)
            assert _slope(out, st8) == pytest.approx(0.5, abs=1e-12)
            assert 3.0 - out.innovation == pytest.approx(ocv, abs=1e-12)


class TestUpdate:
    def test_huge_r_leaves_prior(self, params, base_curve):
        st8 = _state(base_curve, noise=NoiseConfig(0.0, 0.0, 1e12))
        out = _update(st8, 3.9, 0.0, params)
        assert out.soc == pytest.approx(0.5, abs=1e-12)
        assert out.up == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(_posterior_p(out), np.diag([st8.p00, st8.p11]),
                           atol=1e-12)

    def test_zero_innovation_keeps_state(self, params, base_curve):
        st8 = _state(base_curve)
        out = _update(st8, _predicted(st8, params, 0.5), 0.5, params)
        assert out.innovation == pytest.approx(0.0, abs=1e-15)
        assert out.soc == 0.5
        assert out.up == 0.0

    def test_scalar_hand_oracle(self, params, two_knot_curve):
        # diagonal prior, slope 0.5: every quantity has a closed form
        r = 1e-6
        p0, p1 = 4e-4, 1e-4
        st8 = _state(two_knot_curve, soc=0.3, p=(p0, p1),
                     noise=NoiseConfig(0.0, 0.0, r))
        measured = 3.25 + 0.002 - 0.0  # +2 mV above the model
        out = _update(st8, measured, 0.0, params)
        h = np.array([0.5, -1.0])
        p = np.diag([p0, p1])
        s = h @ p @ h + r
        k = p @ h / s
        assert out.innovation == pytest.approx(0.002, abs=1e-12)
        assert out.innovation_variance == pytest.approx(s, rel=1e-12)
        assert out.k_soc == pytest.approx(k[0], rel=1e-12)
        assert out.soc == pytest.approx(0.3 + k[0] * 0.002, rel=1e-12)
        assert out.up == pytest.approx(k[1] * 0.002, rel=1e-12)
        expect_p = (np.eye(2) - np.outer(k, h)) @ p
        assert np.allclose(_posterior_p(out), 0.5 * (expect_p + expect_p.T),
                           atol=1e-15)

    def test_soc_clamped_and_flagged(self, params):
        curve = OcvCurve(np.array([0.0, 1.0]), np.array([3.0, 3.4]))
        st8 = _state(curve, soc=0.99, p=(1.0, 1e-8),
                     noise=NoiseConfig(0.0, 0.0, 1e-9))
        out = _update(st8, 5.0, 0.0, params)
        assert out.soc == 1.0
        assert out.soc_clamped

    @given(p00=st.floats(1e-8, 1e-2), p11=st.floats(1e-8, 1e-2),
           rho=st.floats(-0.9, 0.9), innov=st.floats(-0.05, 0.05))
    @settings(max_examples=100, deadline=None)
    def test_posterior_covariance_symmetric_psd_contracting(
            self, p00, p11, rho, innov):
        params = EcmParams(0.07, 0.04, 1000.0)
        curve = OcvCurve(np.array([0.0, 1.0]), np.array([3.0, 3.4]))
        cov = rho * math.sqrt(p00 * p11)
        prior_p = np.array([[p00, cov], [cov, p11]])
        st8 = _state(curve, p=(p00, p11), noise=NoiseConfig(0.0, 0.0, 1e-6))
        out = _update(st8, _predicted(st8, params) + innov, 0.0, params,
                      x=(0.5, 0.0, p00, cov, p11))
        post = _posterior_p(out)
        assert np.allclose(post, post.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(post) > -1e-15)
        # the update never inflates uncertainty
        assert np.trace(post) <= np.trace(prior_p) + 1e-15

    def test_non_positive_innovation_variance_names_the_step(self, params,
                                                             base_curve):
        # a KfState refuses a negative start variance; a posterior does not
        with pytest.raises(FilterDegeneracyError, match="step 7"):
            _step(_state(base_curve), transition(params, 1.0, 1.063), 0.0,
                  3.3, 0.0, first=False, k=7, x=(0.5, 0.0, -1.0, 0.0, -1.0))

    @pytest.mark.parametrize("noise, p, first, step", [
        (NoiseConfig(1e308, 1e-6, 1e-6), (1e-4, 1e-4), False, "step 1"),
        (None, (1e308, 1e-4), True, "step 0")])
    def test_overflowed_innovation_variance_names_the_step(
            self, params, base_curve, noise, p, first, step):
        # a finite process or start variance of 1e308 times the slope 2.0
        # of the curve at SOC 0.95 squared overflows S to inf; its gain
        # would be inf/inf = nan and the clamp would read SOC 0.0
        f = _state(base_curve, soc=0.95, p=p, noise=noise)
        with pytest.raises(FilterDegeneracyError, match=f"^{step}: "
                           r"innovation variance inf is not in \(0, inf\)$"):
            _step(f, transition(params, 1.0, 1.063), 0.0, 3.3, 0.0,
                  first=first)


class TestStepAgainstMatrixForm:
    """The closed-form step equals the matrix-form reference."""

    @given(soc=st.floats(0.0, 1.0), up=st.floats(-0.05, 0.05),
           p00=st.floats(1e-10, 1e-1), p11=st.floats(1e-10, 1e-2),
           rho=st.floats(-0.9, 0.9), q00=st.floats(0.0, 1e-6),
           q11=st.floats(0.0, 1e-6), r=st.floats(1e-8, 1e-2),
           slope=st.one_of(st.none(), st.floats(1e-4, 60.0)),
           u_prev=st.floats(-3.0, 3.0), u=st.floats(-3.0, 3.0),
           innov=st.floats(-0.5, 0.5), first=st.booleans())
    @example(soc=0.999, up=0.0, p00=1e-1, p11=1e-8, rho=0.0, q00=0.0, q11=0.0,
             r=1e-8, slope=0.4, u_prev=0.0, u=0.0, innov=0.5, first=True)
    @example(soc=0.001, up=0.0, p00=1e-1, p11=1e-8, rho=0.0, q00=0.0, q11=0.0,
             r=1e-8, slope=0.4, u_prev=0.0, u=0.0, innov=-0.5, first=False)
    @example(soc=0.0, up=0.0, p00=1e-4, p11=1e-4, rho=0.0, q00=1e-7, q11=1e-6,
             r=1e-6, slope=None, u_prev=3.0, u=3.0, innov=0.0, first=False)
    @example(soc=0.0, up=0.0, p00=0.00984734056294418,
             p11=0.00984734056294418, rho=0.00984734056294418, q00=0.0,
             q11=0.0, r=0.0078125, slope=0.00984734056294418, u_prev=0.0,
             u=0.0, innov=0.0, first=True)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, soc, up, p00, p11, rho, q00, q11, r,
                               slope, u_prev, u, innov, first):
        params = EcmParams(0.07, 0.04, 1000.0)
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        # a correlated start is a posterior, not a filter setting
        x = (soc, up, p00, rho * math.sqrt(p00 * p11), p11)
        curve = default_lifepo4_curve()
        anchor = None if slope is None else (0.5, curve.ocv(0.5))
        f = _state(curve, soc=soc, up=up, p=(p00, p11),
                   noise=NoiseConfig(q00, q11, r))
        y = 3.3 + innov
        _assert_matches_reference(
            _step(f, transition(params, cfg.dt, cfg.capacity_ah), u_prev, y,
                  u, first, slope=slope, anchor=anchor, x=x),
            _reference_step(f, x, slope, anchor, params, cfg, u_prev, y, u,
                            first))

    def test_clamp_flag_on_both_sides(self, params):
        # the first two examples above: posteriors past 1 and below 0
        for soc, measured, bound in ((0.999, 3.8, 1.0), (0.001, 2.8, 0.0)):
            curve = default_lifepo4_curve()
            f = _state(curve, soc=soc, p=(1e-1, 1e-8),
                       noise=NoiseConfig(0.0, 0.0, 1e-8))
            out = _update(f, measured, 0.0, params, slope=0.4,
                          anchor=(0.5, curve.ocv(0.5)))
            assert out.soc_clamped and out.soc == bound



_start = st.tuples(st.floats(0.0, 1.0), st.floats(-0.05, 0.05),
                   st.floats(1e-10, 1e-1), st.floats(1e-10, 1e-2),
                   st.floats(-0.9, 0.9))


class TestFilterSetStep:
    """One `kalman_step` call over a filter set steps each member from the
    one start exactly as a call over that member alone, and as the
    matrix-form reference."""

    @given(start=_start, slopes=st.lists(st.floats(1e-4, 60.0), min_size=1,
                                         max_size=9),
           plain=st.booleans(), anchor_soc=st.floats(0.0, 1.0),
           anchor_ocv=st.floats(3.0, 3.5), q00=st.floats(0.0, 1e-6),
           q11=st.floats(0.0, 1e-6), r=st.floats(1e-8, 1e-2),
           u_prev=st.floats(-3.0, 3.0), u=st.floats(-3.0, 3.0),
           innov=st.floats(-0.5, 0.5), first=st.booleans())
    @example(start=(-0.0, 0.0, 1e-4, 1e-2, 0.9), slopes=[1e-4], plain=False,
             anchor_soc=0.0, anchor_ocv=3.3, q00=0.0, q11=0.0, r=1e-6,
             u_prev=0.0, u=0.0, innov=0.0, first=True)
    @settings(max_examples=200, deadline=None)
    def test_each_member_as_if_alone(self, start, slopes, plain, anchor_soc,
                                     anchor_ocv, q00, q11, r, u_prev, u,
                                     innov, first):
        params = EcmParams(0.07, 0.04, 1000.0)
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        # one filter and one correlated start posterior for every member
        curve, anchor = default_lifepo4_curve(), (anchor_soc, anchor_ocv)
        soc, up, p00, p11, rho = start
        f = _state(curve, soc=soc, up=up, p=(p00, p11),
                   noise=NoiseConfig(q00, q11, r))
        x = (soc, up, p00, rho * math.sqrt(p00 * p11), p11)
        if plain:
            slopes = [None] * len(slopes)
        row = _row(0 if first else 5,
                   transition(params, cfg.dt, cfg.capacity_ah), u_prev,
                   3.3 + innov, u)
        steps = [member for [member] in
                 kalman_step(f, anchor, slopes, x, [row])]
        assert len(steps) == len(slopes)
        for s, step in zip(slopes, steps):
            [[alone]] = kalman_step(f, anchor, [s], x, [row])
            assert repr(step) == repr(alone)  # bit for bit, -0.0 and NaN too
            _assert_matches_reference(
                StepOutput._make(step),
                _reference_step(f, x, s, anchor, params, cfg, u_prev,
                                row[4], u, first))
        # min(1, max(0, soc)) turns a -0.0 posterior SOC into 0.0
        assert all(math.copysign(1.0, step[0]) == 1.0 for step in steps)

    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_any_non_positive_variance_names_the_step(self, params,
                                                      base_curve, bad):
        # one posterior with p00 < 0: a member of slope s has
        # S = s^2 p00 + p11 + r, so the slope-0 members stay positive and
        # only the slope-1 member at `bad` is degenerate
        f, anchor = _state(base_curve), (0.5, base_curve.ocv(0.5))
        x = (0.5, 0.0, -1.0, 0.0, 1e-4)
        rows = [_row(9, transition(params, 1.0, 1.063), 0.0, 3.3, 0.0)]
        assert len(kalman_step(f, anchor, [0.0] * 5, x, rows)) == 5
        with pytest.raises(FilterDegeneracyError, match="step 9"):
            kalman_step(f, anchor, [1.0 if j == bad else 0.0
                                    for j in range(5)], x, rows)

    def test_non_positive_variance_inside_a_range_names_its_sample(
            self, params, base_curve):
        # H = [0, -1] reads p11 alone: S = p11 + r is positive at sample 4,
        # whose update then drives p11 far below -r, so S <= 0 at sample 5
        f = _state(base_curve, noise=NoiseConfig(0.0, 0.0, 1e-6))
        x = (0.5, 0.0, 1e-4, 0.0, -0.9e-6)  # p11 < 0: a posterior, no start
        coef = transition(params, 1.0, 1.063)
        rows = [_row(k, coef, 0.0, 3.3, 0.0) for k in (4, 5, 6)]
        [[step]] = kalman_step(f, (0.5, 3.3), [0.0], x, rows[:1])
        assert step[6] > 0
        with pytest.raises(FilterDegeneracyError, match="step 5"):
            kalman_step(f, (0.5, 3.3), [0.0], x, rows)


class TestRangeStep:
    """One `kalman_step` call over the rows [start, stop) of a trace's
    `samples` equals stepping the same rows one at a time, each call from
    the previous steps. A one-row call starts with no remembered curve
    segment, so it is the reference for the segment lookup of a longer
    call."""

    @pytest.mark.parametrize("start", [0, 7])
    @pytest.mark.parametrize("per_step", [False, True])
    @pytest.mark.parametrize("bank", [False, True])
    def test_one_call_equals_one_row_at_a_time(self, base_curve, bank,
                                               per_step, start, no_low_cutoff):
        a, b = EcmParams(0.07, 0.04, 1000.0), EcmParams(0.08, 0.05, 900.0)
        cfg = SimConfig(voltage_noise_sigma=0.002, current_noise_sigma=0.01,
                        rng_seed=5)
        prof = generate_profile("dst-like", 60, seed=5,
                                target_discharge_ah=0.01)
        trace = simulate_profile(BatteryState(0.6, 0.0), a, base_curve,
                                 prof, cfg)
        # per-step params change every third sample
        params = ([a if (k // 3) % 2 else b for k in range(len(trace))]
                  if per_step else a)
        if bank:
            sets = [(base_curve, [0.05, 0.1, 0.2],
                     (0.55, base_curve.ocv(0.55)))]
        else:
            # from SOC 0.55 the filter stays inside one segment of the
            # default curve; on curves with a knot every 0.0005 SOC it
            # starts on a knot and crosses several, and on the one whose
            # domain ends at 0.551 its prior is also clamped there
            grid = np.arange(600, 1161) / 2000
            sets = [(OcvCurve(g, base_curve.ocv(g)), PLAIN, None)
                    for g in (grid, grid[grid <= 0.551])]
            sets.insert(0, (base_curve, PLAIN, None))
        rows = list(samples(params, trace, cfg.capacity_ah))[start:start + 30]
        # each row from its own parameters and the currents either side
        amps, volts = trace.current_a.tolist(), trace.voltage_v.tolist()
        assert repr(rows) == repr([
            _row(k, transition(params[k] if per_step else params, cfg.dt,
                               cfg.capacity_ah),
                 amps[k - 1] if k else 0.0, volts[k], amps[k])
            for k in range(start, start + 30)])
        socs = []
        for curve, slopes, anchor in sets:
            f = _state(curve, soc=0.55, up=0.01,
                       noise=NoiseConfig(1e-7, 1e-6, 1e-6))
            whole = kalman_step(f, anchor, slopes, f.start(), rows)
            alone = []  # each member's chain of one-row calls
            for slope in slopes:
                x, member = f.start(), []
                for row in rows:
                    [[x]] = kalman_step(f, anchor, [slope], x, [row])
                    member.append(x)
                alone.append(member)
            assert repr(whole) == repr(alone)  # bit for bit
            # every step is a plain tuple, a plain filter's and a bank's
            assert all(type(step) is tuple for steps in whole
                       for step in steps)
            socs.append([step[0] for step in whole[0]])
        if not bank:  # the ranges do what the comment above says
            segments = [{int(soc * 2000) for soc in walk} for walk in socs]
            assert 0.5 < min(socs[0]) and max(socs[0]) < 0.6
            assert len(segments[1]) >= 3
            assert min(socs[2]) < 0.551 < max(socs[2])


@pytest.mark.usefixtures("no_low_cutoff")
class TestRunEkf:
    def _walk(self, params, base_curve):
        cfg = SimConfig(voltage_noise_sigma=0.002, rng_seed=4)
        prof = generate_profile("dst-like", 120, seed=4,
                                target_discharge_ah=0.02)
        trace = simulate_profile(BatteryState(0.7, 0.0), params, base_curve,
                                 prof, cfg)
        return _state(base_curve, soc=0.65), trace

    def test_plain_filter_steps_are_plain_tuples(self, params, base_curve):
        f, trace = self._walk(params, base_curve)
        [steps] = kalman_step(f, None, PLAIN, f.start(),
                              samples(params, trace, f.capacity_ah))
        assert len(steps) == len(trace)
        assert all(type(step) is tuple for step in steps)

    def test_names_the_steps_of_one_call(self, params, base_curve):
        f, trace = self._walk(params, base_curve)
        outs = run_ekf(f, params, trace)
        [steps] = kalman_step(f, None, PLAIN, f.start(),
                              samples(params, trace, f.capacity_ah))
        assert all(type(o) is StepOutput for o in outs)
        assert repr([tuple(o) for o in outs]) == repr(steps)
        assert [o.soc_clamped for o in outs] == [s[8] for s in steps]

    def test_exact_init_zero_noise_tracks_truth(self, params, base_curve):
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        prof = generate_profile("dst-like", 1500, seed=3, amp=1.0,
                                target_discharge_ah=0.3)
        trace = simulate_profile(BatteryState(0.8, 0.0), params, base_curve,
                                 prof, cfg)
        init = _state(base_curve, soc=0.8, up=0.0, p=(1e-6, 1e-6),
                      noise=NoiseConfig(1e-12, 1e-12, 1e-6))
        outs = run_ekf(init, params, trace)
        errs = np.array([o.soc for o in outs]) - trace.true_soc
        assert np.max(np.abs(errs)) < 1e-6

    def test_initial_error_decays(self, params, base_curve):
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        prof = generate_profile("dst-like", 3000, seed=4, amp=1.0,
                                target_discharge_ah=0.5)
        trace = simulate_profile(BatteryState(0.9, 0.0), params, base_curve,
                                 prof, cfg)
        init = _state(base_curve, soc=0.7, up=0.0, p=(1e-2, 1e-4),
                      noise=NoiseConfig(1e-7, 1e-6, 1e-6))
        outs = run_ekf(init, params, trace)
        errs = np.abs(np.array([o.soc for o in outs]) - trace.true_soc)
        assert np.max(errs[-300:]) < 0.01  # 20 pp initial error forgotten

    def test_voltage_offset_biases_soc_upward(self, params, base_curve):
        # a curve reading consistently 20 mV high makes the filter report a
        # higher state of charge than the truth
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        prof = generate_profile("dst-like", 3000, seed=6, amp=1.0,
                                target_discharge_ah=0.5)
        trace = simulate_profile(BatteryState(0.9, 0.0), params, base_curve,
                                 prof, cfg)
        import dataclasses
        biased = dataclasses.replace(trace,
                                     voltage_v=trace.voltage_v + 0.020)
        init = _state(base_curve, soc=0.9, up=0.0, p=(1e-4, 1e-4),
                      noise=NoiseConfig(1e-7, 1e-6, 1e-6))
        outs = run_ekf(init, params, biased)
        errs = np.array([o.soc for o in outs]) - trace.true_soc
        assert np.mean(errs[500:]) > 0.02

    def test_per_step_parameter_sequence(self, params, base_curve):
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        prof = generate_profile("dst-like", 400, seed=8, amp=1.0,
                                target_discharge_ah=0.1)
        trace = simulate_profile(BatteryState(0.8, 0.0), params, base_curve,
                                 prof, cfg)
        init = _state(base_curve, soc=0.8, up=0.0,
                      noise=NoiseConfig(1e-12, 1e-12, 1e-6))
        seq = [params] * len(trace)
        a = run_ekf(init, params, trace)
        b = run_ekf(init, seq, trace)
        for oa, ob in zip(a, b):
            assert oa.soc == ob.soc
            assert oa.innovation == ob.innovation

    @pytest.mark.parametrize("bad, first", [
        ({"voltage_v": [250]}, 250),
        ({"voltage_v": [0]}, 0),
        ({"current_a": [399]}, 399),
        ({"voltage_v": [300], "current_a": [120]}, 120)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_names_the_first(self, params, base_curve, bad,
                                               first, value):
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        prof = generate_profile("dst-like", 400, seed=8, amp=1.0,
                                target_discharge_ah=0.1)
        trace = simulate_profile(BatteryState(0.8, 0.0), params, base_curve,
                                 prof, cfg)
        for column, ks in bad.items():
            getattr(trace, column)[ks] = value
        with pytest.raises(ValueError, match=f"^sample {first}: non-finite"):
            run_ekf(_state(base_curve, soc=0.8), params, trace)

    def test_near_optimal_innovations_are_white(self, params, base_curve):
        # with the true model and matched noise, the normalized innovation
        # sequence should look like unit-variance white noise
        sigma = 0.003
        cfg = SimConfig(capacity_ah=1.063, dt=1.0,
                        voltage_noise_sigma=sigma, rng_seed=13)
        prof = generate_profile("dst-like", 4000, seed=13, amp=1.0,
                                target_discharge_ah=0.5)
        trace = simulate_profile(BatteryState(0.9, 0.0), params, base_curve,
                                 prof, cfg)
        init = _state(base_curve, soc=0.9, up=0.0, p=(1e-6, 1e-6),
                      noise=NoiseConfig(1e-12, 1e-12, sigma**2))
        outs = run_ekf(init, params, trace)
        z = np.array([o.innovation / math.sqrt(o.innovation_variance)
                      for o in outs[200:]])
        assert np.var(z) == pytest.approx(1.0, rel=0.1)
        inside, lags, _ = whiteness(z)
        assert lags - inside <= 2


class TestStepFirstFlag:
    def test_first_step_skips_prediction(self, params, base_curve, sim_cfg):
        st8 = _state(base_curve, soc=0.5, up=0.03)
        out = _step(st8, transition(params, sim_cfg.dt, sim_cfg.capacity_ah),
                    u_prev=2.0, y=_predicted(st8, params), u=0.0, first=True)
        # no prediction and a zero innovation: the posterior is the start
        assert out.innovation == 0.0
        assert out.soc == 0.5 and out.up == 0.03


class TestDeepDischarge:
    """A prior SOC past the ends of the curve's knot domain reads the curve
    at the nearest end instead of raising CurveDomainError."""

    @pytest.mark.parametrize("soc0", [0.3, 0.2])
    def test_scenario_runs_to_cutoff(self, soc0):
        res = run_scenario(ScenarioConfig(initial_soc_true=soc0))
        assert res.trace.cutoff_index == len(res.trace) - 1
        for soc in (res.soc_ekf, res.soc_ammkf):
            assert soc.shape == res.trace.true_soc.shape
            assert np.all((soc >= 0.0) & (soc <= 1.0))
        assert np.max(np.abs(res.soc_ekf - res.trace.true_soc)[-50:]) < 0.01

    def test_curve_spanning_part_of_the_soc_range(self, params, base_curve):
        inner = (base_curve.knot_soc >= 0.01) & (base_curve.knot_soc <= 0.99)
        partial = OcvCurve(base_curve.knot_soc[inner],
                           base_curve.knot_ocv[inner])
        assert (partial.soc_min, partial.soc_max) == (0.01, 0.99)
        noise = NoiseConfig(1e-7, 1e-6, 1e-6)
        cfg = SimConfig(capacity_ah=1.063, dt=1.0, voltage_noise_sigma=0.001)
        # low end: the truth discharges to the cut-off below 1% SOC
        prof = generate_profile("dst-like", 2000, seed=3, amp=1.0,
                                target_discharge_ah=0.25)
        trace = simulate_profile(BatteryState(0.2, 0.0), params, base_curve,
                                 prof, cfg)
        assert trace.true_soc[-1] < 0.01
        filt = KfState(BatteryState(0.2, 0.0), 1e-4, 1e-4, noise, partial,
                       cfg.capacity_ah)
        soc = np.array([o.soc for o in run_ekf(filt, params, trace)])
        am = run_ammkf(trace, filt, params,
                       BankConfig(n=7, interval_len=20, spread=6.0), noise)
        for est in (soc, am.soc):
            assert np.all(np.isfinite(est))
            assert np.all((est >= 0.0) & (est <= 1.0))
        # high end: a full battery starts above the last knot
        short = simulate_profile(BatteryState(1.0, 0.0), params, base_curve,
                                 prof[:200], cfg)
        full = KfState(BatteryState(1.0, 0.0), 1e-4, 1e-4, noise, partial,
                       cfg.capacity_ah)
        outs = run_ekf(full, params, short)
        assert len(outs) == len(short)
        assert _slope(outs[0], full) == pytest.approx(partial.slope(0.99),
                                                      rel=1e-12)
