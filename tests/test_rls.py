"""Recursive least squares with adaptive forgetting: regression build-up,
parameter extraction, and end-to-end identification."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lfpsoc import (BatteryState, EcmParams, OcvCurve, RlsConfig, SimConfig,
                    Trace, build_sample, circuit_to_theta, forgetting_factor,
                    generate_profile, identify_stream, rls_step,
                    simulate_profile, theta_to_circuit)
from lfpsoc.rls import (NumericalDegeneracyError, PhysicalityError,
                        initial_state)


def _theta(state):
    return np.array(state[:3])


def _p(state):
    """The symmetric 3x3 covariance from the state's upper triangle."""
    _, _, _, p11, p12, p13, p22, p23, p33 = state
    return np.array([[p11, p12, p13], [p12, p22, p23], [p13, p23, p33]])


class TestBuildSample:
    def test_constants_give_zero(self):
        s = build_sample(3.3, 3.3, 3.3, 1.0, 1.0, 1.0)
        assert np.array_equal(s[:3], np.zeros(3))
        assert s[3] == 0.0

    def test_arithmetic_example(self):
        s = build_sample(3.30, 3.29, 3.28, 0.0, 1.0, 1.0)
        assert s[3] == pytest.approx(3.30 - 3.29, abs=1e-12)
        assert s[:3] == pytest.approx([3.29 - 3.28, 0.0 - 1.0, 1.0 - 1.0])

    def test_noise_free_flat_region_satisfies_difference_model(self):
        # oracle: the simulator on a flat curve segment; differences must
        # satisfy y = a_row . theta_true exactly
        flat = OcvCurve(np.array([0.0, 1.0]), np.array([3.3, 3.3]))
        params = EcmParams(r0=0.1, rp=0.05, cp=200.0)
        cfg = SimConfig(capacity_ah=1.063, dt=1.0, cutoff_low_v=0.0)
        rng = np.random.default_rng(3)
        profile = rng.uniform(-1.0, 1.0, 400)
        trace = simulate_profile(BatteryState(0.6, 0.0), params, flat,
                                 profile, cfg)
        theta = circuit_to_theta(params, cfg.dt)
        for k in range(2, len(trace)):
            s = build_sample(trace.voltage_v[k], trace.voltage_v[k - 1],
                             trace.voltage_v[k - 2], trace.current_a[k],
                             trace.current_a[k - 1], trace.current_a[k - 2])
            assert s[3] - float(np.array(s[:3]) @ theta) == \
                pytest.approx(0.0, abs=1e-9)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rls_step(initial_state(), (np.nan, 0.0, 0.0, 0.0), 1.0)


class TestForgettingFactor:
    def test_midpoint_soc_gives_one(self):
        lam, degen = forgetting_factor(0.5, 0.9, a=0.1)
        assert lam == 1.0 and not degen

    def test_zero_gain_gives_one(self):
        lam, _ = forgetting_factor(0.9, 0.9, a=0.0)
        assert lam == 1.0

    def test_direct_evaluation(self):
        lam, _ = forgetting_factor(0.9, 0.9, a=0.1)
        assert lam == pytest.approx(1.0 - 0.1 * 0.4 * 1.0, abs=1e-12)

    def test_degenerate_denominator_flag(self):
        lam, degen = forgetting_factor(0.5, 0.005, a=0.1)
        assert degen and lam == RlsConfig().lambda_min

    @given(s1=st.floats(0.02, 1.0), s2=st.floats(0.02, 1.0),
           a=st.floats(0.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_always_clamped(self, s1, s2, a):
        lam, _ = forgetting_factor(s1, s2, a)
        assert RlsConfig().lambda_min <= lam <= 1.0


class TestRlsStep:
    def test_zero_residual_keeps_theta(self):
        state = initial_state()
        a_row = np.array([0.5, -0.3, 0.1])
        sample = (*a_row, float(a_row @ _theta(state)))
        out = rls_step(state, sample, 1.0)
        assert _theta(out) == pytest.approx(_theta(state), abs=1e-12)

    def test_zero_covariance_ignores_data(self):
        state = initial_state(RlsConfig(p0_scale=0.0))
        assert np.array_equal(_p(state), np.zeros((3, 3)))
        out = rls_step(state, (1.0, 2.0, 3.0, 5.0), 1.0)
        assert np.array_equal(_theta(out), _theta(state))

    def test_matches_batch_least_squares(self):
        # classical equivalence: lambda = 1 and large P0 reproduce the
        # normal-equations solution on every prefix
        rng = np.random.default_rng(7)
        theta_true = np.array([0.8, -0.1, 0.05])
        a_rows = rng.normal(size=(80, 3))
        ys = a_rows @ theta_true + 0.01 * rng.normal(size=80)
        state = initial_state(RlsConfig(p0_scale=1e6, theta0=(0.0, 0.0, 0.0)))
        for n in range(80):
            state = rls_step(state, (*a_rows[n], ys[n]), 1.0)
            if n >= 10:
                batch, *_ = np.linalg.lstsq(a_rows[:n + 1], ys[:n + 1],
                                            rcond=None)
                assert _theta(state) == pytest.approx(batch, rel=1e-6, abs=1e-8)

    def test_covariance_stays_symmetric_pd(self):
        rng = np.random.default_rng(11)
        state = initial_state()
        for _ in range(300):
            sample = (*rng.normal(size=3), rng.normal())
            state = rls_step(state, sample, 0.98)
            assert np.max(np.abs(_p(state) - _p(state).T)) < 1e-9
            assert np.all(np.linalg.eigvalsh(_p(state)) > 0)

    def test_invalid_lambda_rejected(self):
        state = initial_state()
        with pytest.raises(ValueError):
            rls_step(state, (1.0, 1.0, 1.0, 1.0), 0.0)


class TestThetaCircuitMaps:
    def test_roundtrip_reference_values(self):
        p = EcmParams(r0=0.1, rp=0.05, cp=100.0)
        back = theta_to_circuit(circuit_to_theta(p, dt=1.0), dt=1.0)
        assert back.r0 == pytest.approx(0.1, rel=1e-9)
        assert back.rp == pytest.approx(0.05, rel=1e-9)
        assert back.cp == pytest.approx(100.0, rel=1e-9)

    def test_theta_definitions(self):
        params = theta_to_circuit(
            np.array([np.exp(-1.0), -0.1,
                      np.exp(-1.0) * 0.1 - (1 - np.exp(-1.0)) * 0.05]), dt=1.0)
        assert params.r0 == pytest.approx(0.1, rel=1e-12)
        assert params.tau == pytest.approx(1.0, rel=1e-9)

    def test_theta1_out_of_range(self):
        with pytest.raises(PhysicalityError):
            theta_to_circuit(np.array([1.2, -0.1, 0.05]), dt=1.0)

    def test_nonphysical_result(self):
        with pytest.raises(PhysicalityError):
            theta_to_circuit(np.array([0.9, 0.1, 0.05]), dt=1.0)  # r0 < 0

    @given(r0=st.floats(1e-3, 1.0), rp=st.floats(1e-3, 1.0),
           tau=st.floats(0.05, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, r0, rp, tau):
        p = EcmParams(r0=r0, rp=rp, cp=tau / rp)
        back = theta_to_circuit(circuit_to_theta(p, dt=1.0), dt=1.0)
        assert back.r0 == pytest.approx(p.r0, rel=1e-9)
        assert back.rp == pytest.approx(p.rp, rel=1e-9)
        assert back.cp == pytest.approx(p.cp, rel=1e-9)


def _flat_plateau_trace(params, n=3000, seed=5):
    """Noise-free dynamic trace confined to an exactly flat plateau, the
    stated validity region of the voltage-difference model (the open-circuit
    change over one step must be negligible)."""
    flat = OcvCurve(np.array([0.0, 0.05, 0.15, 0.2, 0.8, 0.9, 1.0]),
                    np.array([2.0, 2.9, 3.2, 3.28, 3.28, 3.35, 3.6]))
    cfg = SimConfig(capacity_ah=1.063, dt=1.0, cutoff_low_v=0.0)
    profile = generate_profile("dst-like", n, seed=seed, amp=1.0,
                               target_discharge_ah=0.3)
    return simulate_profile(BatteryState(0.7, 0.0), params, flat,
                            profile.samples, cfg), cfg


class TestIdentifyStream:
    def test_recovers_constant_parameters(self, params):
        trace, _ = _flat_plateau_trace(params)
        points = identify_stream(trace, soc_feedback=trace.true_soc)
        final = points[-1].params
        assert final is not None
        assert abs(final.r0 - params.r0) / params.r0 < 0.05
        assert abs(final.rp - params.rp) / params.rp < 0.10
        assert abs(final.cp - params.cp) / params.cp < 0.15

    def test_zero_excitation_unidentifiable(self, params, base_curve):
        cfg = SimConfig(capacity_ah=1.063, dt=1.0, cutoff_low_v=0.0)
        trace = simulate_profile(BatteryState(0.7, 0.0), params, base_curve,
                                 np.full(600, 0.5), cfg)
        from lfpsoc.rls import initial_state, rls_step, build_sample
        state = initial_state()
        traces_p = []
        for k in range(2, len(trace)):
            s = build_sample(trace.voltage_v[k], trace.voltage_v[k - 1],
                             trace.voltage_v[k - 2], trace.current_a[k],
                             trace.current_a[k - 1], trace.current_a[k - 2])
            state = rls_step(state, s, 1.0)
            traces_p.append(np.trace(_p(state)))
        # constant current: once the relaxation transient has died out the
        # differences vanish and the covariance essentially stops shrinking
        late = traces_p[-100] - traces_p[-1]
        early = traces_p[0] - traces_p[100]
        assert late < 1e-2 * early
        assert traces_p[-1] == pytest.approx(traces_p[-100], rel=1e-4)

    def test_step_change_tracked_faster_with_smaller_lambda(self):
        p1 = EcmParams(r0=0.07, rp=0.04, cp=1000.0)
        p2 = EcmParams(r0=0.14, rp=0.04, cp=1000.0)
        cfg = SimConfig(capacity_ah=1.063, dt=1.0, cutoff_low_v=0.0)
        prof = generate_profile("dst-like", 4000, seed=9, amp=1.0,
                                target_discharge_ah=0.4)
        from lfpsoc import default_lifepo4_curve
        curve = default_lifepo4_curve()
        t1 = simulate_profile(BatteryState(0.75, 0.0), p1, curve,
                              prof.samples[:2000], cfg)
        t2 = simulate_profile(BatteryState(float(t1.true_soc[-1]),
                                           float(t1.true_up_v[-1])),
                              p2, curve, prof.samples[2000:], cfg)
        from lfpsoc.ecm import Trace
        joined = Trace(np.arange(len(t1) + len(t2)) * 1.0,
                       np.concatenate([t1.current_a, t2.current_a]),
                       np.concatenate([t1.voltage_v, t2.voltage_v]),
                       dt=1.0)

        def half_time(lam_const):
            state = initial_state()
            times = []
            for k in range(2, len(joined)):
                s = build_sample(joined.voltage_v[k], joined.voltage_v[k - 1],
                                 joined.voltage_v[k - 2], joined.current_a[k],
                                 joined.current_a[k - 1], joined.current_a[k - 2])
                state = rls_step(state, s, lam_const)
                if k > 2100 and abs(-state[1] - p2.r0) < 0.5 * (p2.r0 - p1.r0):
                    return k
            return len(joined)

        from lfpsoc.rls import build_sample, initial_state, rls_step
        fast, slow = half_time(0.95), half_time(0.999)
        assert fast < slow  # forgetting speeds re-convergence
        assert fast < 3000  # and the new value is actually reached

    def test_plateau_only_flag_skips_outside(self, params):
        trace, _ = _flat_plateau_trace(params, n=500)
        soc_fb = np.linspace(0.95, 0.9, len(trace))  # entirely off-plateau
        cfg = RlsConfig(plateau_only_identification=True)
        points = identify_stream(trace, soc_feedback=soc_fb, cfg=cfg)
        assert all(p.params is None for p in points)  # never updated

    def test_stream_never_aborts_on_degenerate_rows(self, params, base_curve):
        cfg = SimConfig(capacity_ah=1.063, dt=1.0, cutoff_low_v=0.0)
        trace = simulate_profile(BatteryState(0.7, 0.0), params, base_curve,
                                 np.zeros(300), cfg)
        points = identify_stream(trace)
        assert len(points) == len(trace) - 2


def _matrix_step(theta, p, sample, lam):
    """The numpy matrix-form step the closed form replaced, with the sample
    check its RegressorSample made. Returns (theta, p, gain)."""
    a_row, y = np.array(sample[:3], dtype=float), float(sample[3])
    if not np.all(np.isfinite(a_row)) or not np.isfinite(y):
        raise ValueError("sample entries must be finite")
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must be in (0, 1], got {lam}")
    denom = lam + float(a_row @ p @ a_row)
    if denom < 1e-15:
        raise NumericalDegeneracyError(f"gain denominator {denom} ~ 0")
    gain = (p @ a_row) / denom
    theta = theta + gain * (y - float(a_row @ theta))
    p = (np.eye(3) - np.outer(gain, a_row)) @ p / lam
    return theta, 0.5 * (p + p.T), gain


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, NumericalDegeneracyError) as exc:
        return type(exc)


def _state_of(theta, p):
    return (*theta, p[0, 0], p[0, 1], p[0, 2], p[1, 1], p[1, 2], p[2, 2])


_entries = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e-6, 1e-6))


class TestStepAgainstMatrixForm:
    """The closed-form step equals the matrix-form reference, errors
    included."""

    @given(theta=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
           b=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
           log_scale=st.floats(-18.0, 4.0),
           a_row=st.lists(_entries, min_size=3, max_size=3), y=_entries,
           lam=st.one_of(st.just(1.0), st.floats(0.5, 1.0),
                         st.floats(1e-16, 1e-13)))
    @example(theta=[0.99, -0.05, 0.04], b=[0.0] * 9, log_scale=-30.0,
             a_row=[0.01, 0.5, -0.2], y=0.01, lam=2e-15)  # denom just above
    @example(theta=[0.99, -0.05, 0.04], b=[0.0] * 9, log_scale=-30.0,
             a_row=[0.01, 0.5, -0.2], y=0.01, lam=5e-16)  # and just below
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, theta, b, log_scale, a_row, y, lam):
        # P = s (B B' + I): symmetric, eigenvalues in [s, 10 s]
        bm = np.array(b).reshape(3, 3)
        p = 10.0 ** log_scale * (bm @ bm.T + np.eye(3))
        theta = np.array(theta)
        sample = (*a_row, y)
        ref = _outcome(_matrix_step, theta, p, sample, lam)
        out = _outcome(rls_step, _state_of(theta, p), sample, lam)
        if isinstance(ref, type) or isinstance(out, type):
            assert out == ref
            return
        ref_theta, ref_p, gain = ref
        a = np.abs(np.array(a_row))
        g = float(np.max(np.abs(gain)))
        theta_scale = np.max(np.abs(theta)) + g * (abs(y) + a @ np.abs(theta))
        p_scale = (np.max(np.abs(p)) + g * np.max(a @ np.abs(p))) / lam
        assert np.all(np.abs(_theta(out) - ref_theta) <= 1e-12 * theta_scale)
        assert np.all(np.abs(_p(out) - ref_p) <= 1e-12 * p_scale)

    @pytest.mark.parametrize("sample, lam, error", [
        ((np.nan, 0.0, 0.0, 0.0), 1.0, ValueError),
        ((0.0, np.inf, 0.0, 0.0), 1.0, ValueError),
        ((0.0, 0.0, 0.0, -np.inf), 0.99, ValueError),
        ((0.1, 0.2, 0.3, 0.4), 0.0, ValueError),
        ((0.1, 0.2, 0.3, 0.4), -0.5, ValueError),
        ((0.1, 0.2, 0.3, 0.4), 1.5, ValueError),
        ((0.1, 0.2, 0.3, 0.4), np.nan, ValueError),
        ((0.1, 0.2, 0.3, 0.4), 5e-16, NumericalDegeneracyError),
    ])
    def test_errors_match_reference(self, sample, lam, error):
        state = initial_state(RlsConfig(p0_scale=0.0))
        theta, p = _theta(state), _p(state)
        assert _outcome(_matrix_step, theta, p, sample, lam) is error
        assert _outcome(rls_step, state, sample, lam) is error

    @pytest.mark.parametrize("theta", [(1.2, -0.1, 0.05), (0.0, -0.1, 0.05),
                                       (0.5, -0.1, 0.05), (0.9, 0.1, 0.05)])
    def test_unphysical_theta_raises_for_floats_and_arrays(self, theta):
        # th1 outside (0, 1), th1*th2 + th3 == 0, r0 < 0
        for form in (theta, list(theta), np.array(theta)):
            with pytest.raises(PhysicalityError):
                theta_to_circuit(form, dt=1.0)

    def test_circuit_fields_are_floats_for_any_sequence(self):
        theta = circuit_to_theta(EcmParams(r0=0.07, rp=0.04, cp=1000.0), 1.0)
        for form in (theta, tuple(theta.tolist())):
            p = theta_to_circuit(form, dt=1.0)
            assert all(type(v) is float for v in (p.r0, p.rp, p.cp))
        assert theta_to_circuit(theta, 1.0) == \
            theta_to_circuit(tuple(theta.tolist()), 1.0)


def _matrix_stream(trace, soc_feedback, cfg):
    """identify_stream's loop on the matrix-form step and numpy arrays."""
    theta, p = np.array(cfg.theta0, dtype=float), cfg.p0_scale * np.eye(3)
    out, last, accepted = [], None, 0
    ut, il = trace.voltage_v, trace.current_a
    for k in range(2, len(trace)):
        if (cfg.plateau_only_identification and soc_feedback is not None and
                not cfg.plateau_lo <= soc_feedback[k - 1] <= cfg.plateau_hi):
            out.append((last, 1.0, False))
            continue
        if soc_feedback is None:
            lam, degenerate = 1.0, False
        else:
            lam, degenerate = forgetting_factor(
                soc_feedback[k - 1], soc_feedback[k - 2], cfg.a, cfg)
        sample = (ut[k - 1] - ut[k - 2], il[k] - il[k - 1],
                  il[k - 1] - il[k - 2], ut[k] - ut[k - 1])
        try:
            theta, p, _ = _matrix_step(theta, p, sample, lam)
            accepted += 1
        except NumericalDegeneracyError:
            degenerate = True
        if accepted >= cfg.warmup:
            try:
                last = theta_to_circuit(theta, trace.dt)
            except PhysicalityError:
                pass
        out.append((last, lam, degenerate))
    return out


class TestStreamAgainstMatrixForm:
    @pytest.fixture(scope="class")
    def low_soc_trace(self):
        """3000 noisy samples discharging from 0.35 to empty: plateau, the
        steep low tail and a coulomb-counted SOC that reaches zero."""
        from lfpsoc import ScenarioConfig, default_lifepo4_curve
        from lfpsoc.scenario import coulomb_counted_soc
        cfg = SimConfig(capacity_ah=1.063, dt=1.0, voltage_noise_sigma=0.001,
                        rng_seed=4, cutoff_low_v=0.0)
        prof = generate_profile("dst-like", 3000, seed=8, amp=1.0,
                                target_discharge_ah=0.42)
        trace = simulate_profile(BatteryState(0.35, 0.0),
                                 EcmParams(r0=0.07, rp=0.04, cp=1000.0),
                                 default_lifepo4_curve(), prof.samples, cfg)
        feedback = coulomb_counted_soc(
            ScenarioConfig(initial_soc_true=0.35, initial_soc_error=0.05),
            trace)
        return trace, feedback

    @pytest.mark.parametrize("feedback, cfg", [
        (True, RlsConfig()),
        (True, RlsConfig(plateau_only_identification=True)),
        (False, RlsConfig(warmup=10)),
    ])
    def test_points_match_reference(self, low_soc_trace, feedback, cfg):
        trace, soc = low_soc_trace
        soc = soc if feedback else None
        points = identify_stream(trace, soc_feedback=soc, cfg=cfg)
        ref = _matrix_stream(trace, soc, cfg)
        assert len(points) == len(ref) == len(trace) - 2
        assert [p.params is None for p in points] == \
            [r[0] is None for r in ref]
        assert [p.lam for p in points] == [r[1] for r in ref]
        assert [p.degenerate for p in points] == [r[2] for r in ref]
        identified = [(p.params, r[0]) for p, r in zip(points, ref)
                      if r[0] is not None]
        assert identified  # the comparison below is not vacuous
        for got, want in identified:
            for name in ("r0", "rp", "cp"):
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=1e-9, abs=0)
        if feedback and not cfg.plateau_only_identification:
            assert any(p.degenerate for p in points)  # SOC reaches eps_soc

    def test_degenerate_gain_rows_flagged(self, params, base_curve):
        # zero current on a rested cell makes every regressor row zero, and a
        # forgetting factor clamped to 1e-16 leaves the gain denominator
        # below 1e-15: each step is skipped and flagged
        trace = simulate_profile(BatteryState(0.7, 0.0), params, base_curve,
                                 np.zeros(50), SimConfig(cutoff_low_v=0.0))
        cfg = RlsConfig(a=10.0, lambda_min=1e-16)
        soc = np.full(len(trace), 0.9)
        points = identify_stream(trace, soc_feedback=soc, cfg=cfg)
        ref = _matrix_stream(trace, soc, cfg)
        assert [(p.params, p.lam, p.degenerate) for p in points] == ref
        assert all(p.degenerate for p in points)

    def test_nan_voltage_in_memory_trace_raises(self, low_soc_trace):
        trace, soc = low_soc_trace
        volts = trace.voltage_v.copy()
        volts[1500] = np.nan
        bad = Trace(trace.t, trace.current_a, volts, dt=trace.dt)
        with pytest.raises(ValueError):
            identify_stream(bad, soc_feedback=soc)
