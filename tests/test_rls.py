"""Recursive least squares with adaptive forgetting: regression build-up,
parameter extraction, and end-to-end identification."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lfpsoc import (BatteryState, EcmParams, OcvCurve, SimConfig, Trace,
                    build_sample, circuit_to_theta, ecm, extract_circuit,
                    forgetting_factor, generate_profile, identify_stream, rls,
                    rls_step, simulate_profile)
from lfpsoc.rls import LAMBDA_MIN, START_STATE, NumericalDegeneracyError

# theta0 with no covariance, and theta 0 with P = 1e6 I (batch equivalence)
_NO_COVARIANCE = (0.99, -0.05, 0.04, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
_BATCH_START = (0.0, 0.0, 0.0, 1e6, 0.0, 0.0, 1e6, 0.0, 1e6)


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

    def test_noise_free_flat_region_satisfies_difference_model(
            self, no_low_cutoff):
        # oracle: the simulator on a flat curve segment; differences must
        # satisfy y = a_row . theta_true exactly
        flat = OcvCurve(np.array([0.0, 1.0]), np.array([3.3, 3.3]))
        params = EcmParams(r0=0.1, rp=0.05, cp=200.0)
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
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
            rls_step(START_STATE, (np.nan, 0.0, 0.0, 0.0), 1.0)


class TestForgettingFactor:
    def test_midpoint_soc_gives_one(self):
        lam, degen = forgetting_factor(0.5, 0.9)
        assert lam == 1.0 and not degen

    def test_zero_gain_gives_one(self, monkeypatch):
        # the gain is read at call time
        monkeypatch.setattr(rls, "FORGETTING_GAIN", 0.0)
        lam, _ = forgetting_factor(0.9, 0.9)
        assert lam == 1.0

    def test_direct_evaluation(self):
        lam, _ = forgetting_factor(0.9, 0.9)
        assert lam == pytest.approx(1.0 - 0.1 * 0.4 * 1.0, abs=1e-12)

    def test_degenerate_denominator_flag(self):
        lam, degen = forgetting_factor(0.5, 0.005)
        assert degen and lam == LAMBDA_MIN

    @pytest.mark.parametrize("gain", [0.1, 3.0])
    def test_hard_feedback_values_elementwise(self, gain):
        # every pair of hard values, each value in both positions, in one
        # call; the rule restated on Python floats, where max(LAMBDA_MIN,
        # nan) is LAMBDA_MIN
        hard = [np.nan, np.inf, -np.inf, 0.0, -0.0, -0.3, rls.EPS_SOC, 0.5,
                1.7]
        pairs = [(s1, s2) for s1 in hard for s2 in hard]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rls, "FORGETTING_GAIN", gain)
            lams, flags = forgetting_factor(np.array([p[0] for p in pairs]),
                                            np.array([p[1] for p in pairs]))
        assert lams.shape == flags.shape == (len(pairs),)
        for (s1, s2), lam, flag in zip(pairs, lams.tolist(), flags.tolist()):
            if s2 <= rls.EPS_SOC:
                expected = (LAMBDA_MIN, True)
            else:
                raw = 1.0 - gain * abs(s1 - 0.5) * (s1 / s2)
                expected = (min(1.0, max(LAMBDA_MIN, raw)), False)
            assert (lam, flag) == expected, (s1, s2)

    @given(s1=st.floats(0.02, 1.0), s2=st.floats(0.02, 1.0),
           a=st.floats(0.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_always_clamped(self, s1, s2, a):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rls, "FORGETTING_GAIN", a)
            lam, _ = forgetting_factor(s1, s2)
        assert LAMBDA_MIN <= lam <= 1.0


class TestRlsStep:
    def test_zero_residual_keeps_theta(self):
        state = START_STATE
        a_row = np.array([0.5, -0.3, 0.1])
        sample = (*a_row, float(a_row @ _theta(state)))
        out = rls_step(state, sample, 1.0)
        assert _theta(out) == pytest.approx(_theta(state), abs=1e-12)

    def test_zero_covariance_ignores_data(self):
        state = _NO_COVARIANCE
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
        state = _BATCH_START
        for n in range(80):
            state = rls_step(state, (*a_rows[n], ys[n]), 1.0)
            if n >= 10:
                batch, *_ = np.linalg.lstsq(a_rows[:n + 1], ys[:n + 1],
                                            rcond=None)
                assert _theta(state) == pytest.approx(batch, rel=1e-6, abs=1e-8)

    def test_covariance_stays_symmetric_pd(self):
        rng = np.random.default_rng(11)
        state = START_STATE
        for _ in range(300):
            sample = (*rng.normal(size=3), rng.normal())
            state = rls_step(state, sample, 0.98)
            assert np.max(np.abs(_p(state) - _p(state).T)) < 1e-9
            assert np.all(np.linalg.eigvalsh(_p(state)) > 0)

    def test_invalid_lambda_rejected(self):
        state = START_STATE
        with pytest.raises(ValueError):
            rls_step(state, (1.0, 1.0, 1.0, 1.0), 0.0)


class TestThetaCircuitMaps:
    def test_roundtrip_reference_values(self):
        p = EcmParams(r0=0.1, rp=0.05, cp=100.0)
        back = extract_circuit(*circuit_to_theta(p, dt=1.0), dt=1.0)
        assert back.r0 == pytest.approx(0.1, rel=1e-9)
        assert back.rp == pytest.approx(0.05, rel=1e-9)
        assert back.cp == pytest.approx(100.0, rel=1e-9)

    def test_theta_definitions(self):
        params = extract_circuit(
            np.exp(-1.0), -0.1,
            np.exp(-1.0) * 0.1 - (1 - np.exp(-1.0)) * 0.05, dt=1.0)
        assert params.r0 == pytest.approx(0.1, rel=1e-12)
        assert params.tau == pytest.approx(1.0, rel=1e-9)

    def test_theta1_out_of_range(self):
        assert extract_circuit(1.2, -0.1, 0.05, dt=1.0) is None

    def test_nonphysical_result(self):
        assert extract_circuit(0.9, 0.1, 0.05, dt=1.0) is None  # r0 < 0
        # a negative step turns a physical circuit's cp negative
        assert extract_circuit(*circuit_to_theta(EcmParams(0.07, 0.04, 1000.0),
                                                 1.0), dt=-1.0) is None

    def test_nan_coefficient_still_reaches_ecm_params(self):
        # a NaN theta2 passes the "not positive" tests, as before
        with pytest.raises(ValueError, match="must be finite"):
            extract_circuit(0.5, np.nan, 0.05, dt=1.0)

    @given(r0=st.floats(1e-3, 1.0), rp=st.floats(1e-3, 1.0),
           tau=st.floats(0.05, 500.0))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, r0, rp, tau):
        p = EcmParams(r0=r0, rp=rp, cp=tau / rp)
        back = extract_circuit(*circuit_to_theta(p, dt=1.0), dt=1.0)
        assert back.r0 == pytest.approx(p.r0, rel=1e-9)
        assert back.rp == pytest.approx(p.rp, rel=1e-9)
        assert back.cp == pytest.approx(p.cp, rel=1e-9)


def _flat_plateau_trace(params, n=3000, seed=5):
    """Noise-free dynamic trace confined to an exactly flat plateau, the
    stated validity region of the voltage-difference model (the open-circuit
    change over one step must be negligible)."""
    flat = OcvCurve(np.array([0.0, 0.05, 0.15, 0.2, 0.8, 0.9, 1.0]),
                    np.array([2.0, 2.9, 3.2, 3.28, 3.28, 3.35, 3.6]))
    cfg = SimConfig(capacity_ah=1.063, dt=1.0)
    profile = generate_profile("dst-like", n, seed=seed, amp=1.0,
                               target_discharge_ah=0.3)
    return simulate_profile(BatteryState(0.7, 0.0), params, flat,
                            profile, cfg), cfg


@pytest.mark.usefixtures("no_low_cutoff")
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
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        trace = simulate_profile(BatteryState(0.7, 0.0), params, base_curve,
                                 np.full(600, 0.5), cfg)
        state = START_STATE
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
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        prof = generate_profile("dst-like", 4000, seed=9, amp=1.0,
                                target_discharge_ah=0.4)
        from lfpsoc import default_lifepo4_curve
        curve = default_lifepo4_curve()
        t1 = simulate_profile(BatteryState(0.75, 0.0), p1, curve,
                              prof[:2000], cfg)
        t2 = simulate_profile(BatteryState(float(t1.true_soc[-1]),
                                           float(t1.true_up_v[-1])),
                              p2, curve, prof[2000:], cfg)
        from lfpsoc.ecm import Trace
        joined = Trace(np.arange(len(t1) + len(t2)) * 1.0,
                       np.concatenate([t1.current_a, t2.current_a]),
                       np.concatenate([t1.voltage_v, t2.voltage_v]),
                       dt=1.0)

        def half_time(lam_const):
            state = START_STATE
            times = []
            for k in range(2, len(joined)):
                s = build_sample(joined.voltage_v[k], joined.voltage_v[k - 1],
                                 joined.voltage_v[k - 2], joined.current_a[k],
                                 joined.current_a[k - 1], joined.current_a[k - 2])
                state = rls_step(state, s, lam_const)
                if k > 2100 and abs(-state[1] - p2.r0) < 0.5 * (p2.r0 - p1.r0):
                    return k
            return len(joined)

        fast, slow = half_time(0.95), half_time(0.999)
        assert fast < slow  # forgetting speeds re-convergence
        assert fast < 3000  # and the new value is actually reached

    @pytest.mark.parametrize("n", [1, 2, 3, 300])
    def test_stream_never_aborts_on_degenerate_rows(self, params, base_curve,
                                                    n):
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        trace = simulate_profile(BatteryState(0.7, 0.0), params, base_curve,
                                 np.zeros(n), cfg)
        assert len(trace) == n
        points = identify_stream(trace, np.full(len(trace), 0.7))
        assert len(points) == max(n - 2, 0)

    @pytest.mark.parametrize("short", [1, 2])
    def test_short_feedback_refused(self, params, base_curve, short):
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        trace = simulate_profile(BatteryState(0.7, 0.0), params, base_curve,
                                 np.zeros(300), cfg)
        with pytest.raises(ValueError, match=(
                f"soc_feedback has {300 - short} values for a trace of "
                f"300 samples")):
            identify_stream(trace, np.full(300 - short, 0.7))

    def test_longer_feedback_ignores_its_tail(self, params, base_curve):
        cfg = SimConfig(capacity_ah=1.063, dt=1.0)
        trace = simulate_profile(BatteryState(0.7, 0.0), params, base_curve,
                                 np.sin(np.arange(300) / 7.0), cfg)
        fb = np.linspace(0.9, 0.2, 300)
        longer = np.concatenate([fb, [np.nan, 0.0, 5.0]])
        assert identify_stream(trace, longer) == identify_stream(trace, fb)


def _matrix_step(theta, p, sample, lam):
    """The numpy matrix-form step the closed form replaced, with the sample
    check its RegressorSample made. Returns (theta, p, gain)."""
    a_row, y = np.array(sample[:3], dtype=float), float(sample[3])
    if not np.all(np.isfinite(a_row)) or not np.isfinite(y):
        raise ValueError("sample entries must be finite")
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must be in (0, 1], got {lam}")
    denom = lam + float(a_row @ p @ a_row)
    if not 1e-15 <= denom < np.inf:
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
        state = _NO_COVARIANCE
        theta, p = _theta(state), _p(state)
        assert _outcome(_matrix_step, theta, p, sample, lam) is error
        assert _outcome(rls_step, state, sample, lam) is error

    @pytest.mark.parametrize("theta", [(1.2, -0.1, 0.05), (0.0, -0.1, 0.05),
                                       (0.5, -0.1, 0.05), (0.9, 0.1, 0.05)])
    def test_unphysical_theta_raises_for_floats_and_arrays(self, theta):
        # th1 outside (0, 1), th1*th2 + th3 == 0, r0 < 0: no circuit
        for form in (theta, list(theta), np.array(theta)):
            assert extract_circuit(*form, dt=1.0) is None

    def test_circuit_fields_are_floats_for_any_sequence(self):
        # floats in, as from a state, give float fields; numpy scalars in
        # give the same circuit
        theta = circuit_to_theta(EcmParams(r0=0.07, rp=0.04, cp=1000.0), 1.0)
        p = extract_circuit(*theta.tolist(), dt=1.0)
        assert all(type(v) is float for v in (p.r0, p.rp, p.cp))
        assert extract_circuit(*theta, 1.0) == p


def _matrix_stream(trace, soc_feedback):
    """identify_stream's loop on the matrix-form step and numpy arrays."""
    theta, p = np.array([0.99, -0.05, 0.04]), 1e3 * np.eye(3)
    out, last, accepted = [], None, 0
    ut, il = trace.voltage_v, trace.current_a
    for k in range(2, len(trace)):
        lam, degenerate = forgetting_factor(soc_feedback[k - 1],
                                            soc_feedback[k - 2])
        sample = (ut[k - 1] - ut[k - 2], il[k] - il[k - 1],
                  il[k - 1] - il[k - 2], ut[k] - ut[k - 1])
        try:
            theta, p, _ = _matrix_step(theta, p, sample, lam)
            accepted += 1
        except NumericalDegeneracyError:
            degenerate = True
        if accepted >= rls.WARMUP:
            last = extract_circuit(*theta.tolist(), trace.dt) or last
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
                        rng_seed=4)
        prof = generate_profile("dst-like", 3000, seed=8, amp=1.0,
                                target_discharge_ah=0.42)
        with pytest.MonkeyPatch.context() as mp:  # class-scoped fixture
            mp.setattr(ecm, "CUTOFF_LOW_V", 0.0)
            trace = simulate_profile(BatteryState(0.35, 0.0),
                                     EcmParams(r0=0.07, rp=0.04, cp=1000.0),
                                     default_lifepo4_curve(), prof, cfg)
        feedback = coulomb_counted_soc(
            ScenarioConfig(initial_soc_true=0.35, initial_soc_error=0.05),
            trace)
        return trace, feedback

    @pytest.mark.parametrize("warmup", [100, 10], ids=["warmup-100",
                                                       "warmup-10"])
    def test_points_match_reference(self, low_soc_trace, warmup,
                                    monkeypatch):
        trace, soc = low_soc_trace
        monkeypatch.setattr(rls, "WARMUP", warmup)
        points = identify_stream(trace, soc)
        ref = _matrix_stream(trace, soc)
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
        assert any(p.degenerate for p in points)  # SOC reaches EPS_SOC

    def test_degenerate_gain_rows_flagged(self, params, base_curve,
                                          monkeypatch, no_low_cutoff):
        # zero current on a rested cell makes every regressor row zero, and a
        # forgetting factor clamped to 1e-16 leaves the gain denominator
        # below 1e-15: each step is skipped and flagged
        trace = simulate_profile(BatteryState(0.7, 0.0), params, base_curve,
                                 np.zeros(50), SimConfig())
        monkeypatch.setattr(rls, "FORGETTING_GAIN", 10.0)
        monkeypatch.setattr(rls, "LAMBDA_MIN", 1e-16)
        soc = np.full(len(trace), 0.9)
        points = identify_stream(trace, soc_feedback=soc)
        ref = _matrix_stream(trace, soc)
        assert [(p.params, p.lam, p.degenerate) for p in points] == ref
        assert all(p.degenerate for p in points)

    def test_nan_voltage_in_memory_trace_raises(self, low_soc_trace):
        trace, soc = low_soc_trace
        volts = trace.voltage_v.copy()
        volts[1500] = np.nan
        bad = Trace(trace.t, trace.current_a, volts, dt=trace.dt)
        with pytest.raises(ValueError):
            identify_stream(bad, soc_feedback=soc)


class TestCovarianceOverflow:
    """A long unexcited stretch grows P by 1/lambda per step until it
    overflows; the step must refuse it rather than carry NaN."""

    @pytest.mark.parametrize("p_diag, sample", [
        (np.inf, (0.1, 0.2, 0.3, 0.4)),      # P already overflowed: inf
        (np.inf, (0.0, 0.2, 0.3, 0.4)),      # inf * 0: NaN
        (1e308, (10.0, 0.0, 0.0, 0.4)),      # a.q overflows to inf
    ])
    def test_overflowed_denominator_raises(self, p_diag, sample):
        state = (0.99, -0.05, 0.04, p_diag, 0.0, 0.0, p_diag, 0.0, p_diag)
        with pytest.raises(NumericalDegeneracyError):
            rls_step(state, sample, 0.99)

    def test_long_constant_discharge_flags_rows_and_keeps_theta_finite(
            self, monkeypatch):
        from lfpsoc import ScenarioConfig, resolve_curves, rls
        from lfpsoc.scenario import coulomb_counted_soc
        cfg = ScenarioConfig(initial_soc_true=0.97)
        true_curve, _ = resolve_curves(cfg)
        profile = generate_profile("constant", 30000, dt=cfg.dt,
                                   seed=cfg.seed, amp=0.05)
        trace = simulate_profile(BatteryState(0.97, 0.0), cfg.ecm_params(),
                                 true_curve, profile,
                                 cfg.sim_config())
        states = []

        def recording_step(state, sample, lam):
            states.append(rls_step(state, sample, lam))
            return states[-1]

        monkeypatch.setattr(rls, "rls_step", recording_step)
        points = identify_stream(trace, coulomb_counted_soc(cfg, trace))
        assert len(points) == len(trace) - 2
        assert all(np.isfinite(s[:3]).all() for s in states)
        flags = [p.degenerate for p in points]
        assert len(states) == flags.count(False)  # every accepted step
        assert any(flags)  # P overflowed: the rest of the rows are flagged
        assert all(flags[flags.index(True):])
