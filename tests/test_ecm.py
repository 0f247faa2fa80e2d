"""Thevenin-model simulator: stepping, terminal voltage, trace generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfpsoc import (BatteryState, EcmParams, OcvCurve, default_lifepo4_curve,
                    measure, simulate_profile, step_state, terminal_voltage)
from lfpsoc import ecm
from lfpsoc.curve import CurveDomainError
from lfpsoc.ecm import InvalidInputError, Trace


def _reference_simulate(initial, params, curve, profile, dt, capacity_ah,
                        sigma_v=0.0, sigma_i=0.0, seed=0) -> Trace:
    """The per-sample simulator loop that `measure(simulate_profile(...))`
    replaced: one scalar `rng.normal` draw per noisy channel and sample,
    voltage first."""
    profile = np.asarray(profile, dtype=float)
    rng = np.random.default_rng(seed)
    n = profile.size
    t = np.arange(n) * dt
    v_meas, i_meas, soc, up = (np.empty(n) for _ in range(4))
    clamp_steps = []
    cutoff_index = cutoff_v = None
    state = initial
    count = 0
    for k in range(n):
        i_k = profile[k]
        v_clean = terminal_voltage(state, params, i_k, curve)
        soc[k] = state.soc
        up[k] = state.up
        v_meas[k] = v_clean + (rng.normal(0.0, sigma_v)
                              if sigma_v > 0 else 0.0)
        i_meas[k] = i_k + (rng.normal(0.0, sigma_i)
                          if sigma_i > 0 else 0.0)
        count = k + 1
        if v_clean < ecm.CUTOFF_LOW_V or v_clean > ecm.CUTOFF_HIGH_V:
            cutoff_index, cutoff_v = k, v_clean
            break
        state, clamped = step_state(state, params, i_k, dt, capacity_ah)
        if clamped:
            clamp_steps.append(k + 1)
    c = count
    return Trace(t[:c], i_meas[:c], v_meas[:c], soc[:c], up[:c], dt=dt,
                 cutoff_index=cutoff_index, cutoff_v=cutoff_v,
                 clamp_steps=clamp_steps)


class TestEcmParams:
    def test_tau_is_rp_cp(self):
        assert EcmParams(0.1, 0.05, 100.0).tau == pytest.approx(5.0)

    @pytest.mark.parametrize("kwargs", [
        dict(r0=0.0, rp=0.05, cp=100.0),
        dict(r0=0.1, rp=-0.05, cp=100.0),
        dict(r0=0.1, rp=0.05, cp=0.0),
        dict(r0=math.nan, rp=0.05, cp=100.0),
    ])
    def test_rejects_non_positive(self, kwargs):
        with pytest.raises(ValueError):
            EcmParams(**kwargs)


class TestMeasure:
    @pytest.mark.parametrize("kwargs", [
        dict(sigma_v=-0.001), dict(sigma_i=-0.01),
        dict(sigma_v=math.nan), dict(sigma_i=math.nan)])
    def test_rejects_negative_or_nan_noise_sigma(self, kwargs, params,
                                                 base_curve):
        # a NaN sigma once simulated a noise-free trace without a word
        trace = simulate_profile(BatteryState(0.5, 0.0), params, base_curve,
                                 np.zeros(10), 1.0, 1.063)
        with pytest.raises(ValueError, match="noise sigmas"):
            measure(trace, **{"sigma_v": 0.0, "sigma_i": 0.0, "seed": 0,
                              **kwargs})


class TestStepState:
    def test_zero_input_equilibrium(self, params):
        state, clamped = step_state(BatteryState(0.5, 0.0), params, 0.0, 1.0,
                                    1.063)
        assert state.soc == 0.5
        assert state.up == 0.0
        assert not clamped

    def test_pure_exponential_decay(self):
        # tau = dt: one step multiplies up by e^-1 and leaves soc alone
        p = EcmParams(r0=0.07, rp=0.04, cp=1.0 / 0.04)
        assert p.tau == pytest.approx(1.0)
        state, _ = step_state(BatteryState(0.5, 0.1), p, 0.0, 1.0, 1.063)
        assert state.up == pytest.approx(0.1 * math.exp(-1.0), rel=1e-12)
        assert state.soc == 0.5

    def test_one_amp_hour_drains_by_reciprocal_capacity(self, params):
        # oracle: direct Coulomb integration of the constant current
        state = BatteryState(1.0, 0.0)
        for _ in range(3600):
            state, _ = step_state(state, params, 1.0, 1.0, 1.063)
        expected_delta = -1.0 * 3600.0 / (3600.0 * 1.063)
        assert state.soc - 1.0 == pytest.approx(expected_delta, rel=1e-9)
        assert state.soc == pytest.approx(1.0 - 1.0 / 1.063, rel=1e-9)

    def test_clamp_reported_at_zero(self, params):
        state, clamped = step_state(BatteryState(0.0, 0.0), params, 5.0, 1.0,
                                    1.063)
        assert state.soc == 0.0
        assert clamped

    def test_non_finite_input_rejected(self, params):
        with pytest.raises(InvalidInputError):
            step_state(BatteryState(0.5, 0.0), params, math.inf, 1.0, 1.063)

    @given(up0=st.floats(1e-4, 1.0), k=st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_decay_consistency_closed_form(self, up0, k):
        p = EcmParams(r0=0.07, rp=0.04, cp=1000.0)
        state = BatteryState(0.5, up0)
        for _ in range(k):
            state, _ = step_state(state, p, 0.0, 1.0, 1.063)
        assert state.up == pytest.approx(up0 * math.exp(-k / p.tau), rel=1e-12)

    @given(current=st.floats(-2.0, 2.0), up0=st.floats(-0.1, 0.1))
    @settings(max_examples=50, deadline=None)
    def test_half_step_semigroup(self, current, up0):
        # two half-steps of the exact discretization equal one full step
        p = EcmParams(r0=0.07, rp=0.04, cp=1000.0)
        one, _ = step_state(BatteryState(0.5, up0), p, current, 1.0, 1.063)
        two, _ = step_state(BatteryState(0.5, up0), p, current, 0.5, 1.063)
        two, _ = step_state(two, p, current, 0.5, 1.063)
        assert two.up == pytest.approx(one.up, rel=1e-12, abs=1e-15)
        assert two.soc == pytest.approx(one.soc, rel=1e-12)

    @given(currents=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_charge_conservation(self, currents):
        p = EcmParams(r0=0.07, rp=0.04, cp=1000.0)
        state = BatteryState(0.5, 0.0)
        for i in currents:
            state, clamped = step_state(state, p, i, 1.0, 1.063)
            if clamped:
                return  # conservation only holds without saturation
        expected = 0.5 - sum(currents) * 1.0 / (3600.0 * 1.063)
        assert state.soc == pytest.approx(expected, rel=1e-12, abs=1e-15)


class TestTerminalVoltage:
    def test_open_circuit_rest(self, params, base_curve):
        v = terminal_voltage(BatteryState(0.5, 0.0), params, 0.0, base_curve)
        assert v == pytest.approx(base_curve.ocv(0.5))

    def test_direct_arithmetic(self, two_knot_curve):
        p = EcmParams(r0=0.1, rp=0.04, cp=1000.0)
        v = terminal_voltage(BatteryState(0.4, 0.05), p, 1.0, two_knot_curve)
        assert v == pytest.approx(3.30 - 0.05 - 0.1, abs=1e-12)

    def test_low_voltage_cutoff_flagged(self, params, base_curve):
        # drive a discharge to the 2.0 V cutoff; the trace records the index
        trace = simulate_profile(BatteryState(0.06, 0.0), params, base_curve,
                                 np.full(4000, 2.0), 1.0, 1.063)
        assert trace.cutoff_index is not None
        assert trace.voltage_v[trace.cutoff_index] < 2.0 + 0.3
        assert len(trace) == trace.cutoff_index + 1


class TestSimulateProfile:
    @pytest.mark.parametrize("name", ["capacity_ah", "dt"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0,
                                       -1.0])
    def test_capacity_and_dt_finite_and_positive(self, name, value, params,
                                                 base_curve):
        # capacity_ah=inf once froze the simulated SOC; the simulator and
        # its one-step function both refuse it
        settings = {"dt": 1.0, "capacity_ah": 1.063, name: value}
        match = f"{name} must be finite and > 0, got {value}"
        with pytest.raises(ValueError, match=match):
            simulate_profile(BatteryState(0.5, 0.0), params, base_curve,
                             np.zeros(10), **settings)
        with pytest.raises(ValueError, match=match):
            step_state(BatteryState(0.5, 0.0), params, 0.0, **settings)

    def test_zero_current_rest(self, params, base_curve):
        trace = simulate_profile(BatteryState(0.5, 0.05), params, base_curve,
                                 np.zeros(200), 1.0, 1.063)
        assert np.all(trace.true_soc == 0.5)
        assert trace.true_up_v[-1] == pytest.approx(0.0, abs=1e-3)
        assert trace.voltage_v[-1] == pytest.approx(base_curve.ocv(0.5), abs=1e-3)

    def test_deterministic_under_seed(self, params, base_curve):
        prof = np.sin(np.linspace(0, 10, 500))
        t1 = measure(simulate_profile(BatteryState(0.6, 0.0), params,
                                      base_curve, prof, 1.0, 1.063),
                     0.003, 0.0, 42)
        t2 = measure(simulate_profile(BatteryState(0.6, 0.0), params,
                                      base_curve, prof, 1.0, 1.063),
                     0.003, 0.0, 42)
        assert np.array_equal(t1.voltage_v, t2.voltage_v)
        assert np.array_equal(t1.current_a, t2.current_a)

    def test_full_discharge_matches_coulomb_integral(self, params, base_curve,
                                                     wide_cutoffs):
        # oracle: the Coulomb integral of the profile equals the capacity
        n = 7200
        current = np.full(n, 1.063 * 3600.0 / n)
        trace = simulate_profile(BatteryState(1.0, 0.0), params, base_curve,
                                 current, 1.0, 1.063)
        discharged_ah = np.sum(current) * 1.0 / 3600.0
        assert discharged_ah == pytest.approx(1.063, rel=1e-3)
        assert trace.true_soc[-1] == pytest.approx(0.0, abs=2e-4)

    def test_noise_free_states_with_noisy_measurements(self, params,
                                                       base_curve):
        prof = np.full(300, 0.5)
        clean = simulate_profile(BatteryState(0.6, 0.0), params, base_curve,
                                 prof, 1.0, 1.063)
        noisy = measure(clean, 0.003, 0.0, 42)
        assert np.array_equal(noisy.true_soc, clean.true_soc)
        assert not np.array_equal(noisy.voltage_v, clean.voltage_v)

    def test_draws_no_random_numbers(self, params, base_curve, monkeypatch):
        # the circuit is deterministic: every noise draw is `measure`'s
        class NoRandom:
            def __getattr__(self, name):
                raise AssertionError(f"np.random.{name} reached")

        prof = np.sin(np.linspace(0, 10, 300))
        want = simulate_profile(BatteryState(0.6, 0.0), params, base_curve,
                                prof, 1.0, 1.063)
        monkeypatch.setattr(np, "random", NoRandom())
        got = simulate_profile(BatteryState(0.6, 0.0), params, base_curve,
                               prof, 1.0, 1.063)
        with pytest.raises(AssertionError, match="np.random.default_rng"):
            measure(got, 0.001, 0.0, 0)  # the guard sees a draw
        for name in ("t", "current_a", "voltage_v", "true_soc", "true_up_v"):
            assert getattr(got, name).tobytes() == \
                getattr(want, name).tobytes(), name

    def test_empty_profile_rejected(self, params, base_curve):
        with pytest.raises(InvalidInputError):
            simulate_profile(BatteryState(0.5, 0.0), params, base_curve,
                             [], 1.0, 1.063)

    @pytest.mark.parametrize("soc0, current, kw, cutoffs", [
        (0.6, "sine", dict(sigma_v=0.001), {}),
        (0.6, "sine", dict(sigma_v=0.001, sigma_i=0.01), {}),
        (0.6, "sine", dict(sigma_i=0.01), {}),
        (0.6, "sine", {}, {}),
        (0.06, 2.0, dict(sigma_v=0.001, sigma_i=0.01), {}),
        (0.002, 2.0, dict(sigma_v=0.001),
         dict(CUTOFF_LOW_V=0.0, CUTOFF_HIGH_V=10.0)),
    ], ids=["voltage-noise", "both-noises", "current-noise", "no-noise",
            "cutoff", "soc-clamp"])
    def test_matches_the_per_sample_loop(self, params, base_curve, soc0,
                                         current, kw, cutoffs, monkeypatch):
        # bit for bit: every array, the cutoff index and voltage and the
        # clamp steps
        for name, value in cutoffs.items():
            monkeypatch.setattr(ecm, name, value)
        prof = np.sin(np.linspace(0, 10, 500)) if current == "sine" \
            else np.full(4000, current)
        noise = {"sigma_v": 0.0, "sigma_i": 0.0, "seed": 7, **kw}
        got = measure(simulate_profile(BatteryState(soc0, 0.0), params,
                                       base_curve, prof, 1.0, 1.063), **noise)
        ref = _reference_simulate(BatteryState(soc0, 0.0), params,
                                  base_curve, prof, 1.0, 1.063, **noise)
        for name in ("t", "current_a", "voltage_v", "true_soc", "true_up_v"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (got.dt, got.cutoff_index, got.cutoff_v, got.clamp_steps) == \
            (ref.dt, ref.cutoff_index, ref.cutoff_v, ref.clamp_steps)
        if current != "sine":  # the cases are what their ids say
            assert (got.cutoff_index is not None) == (soc0 == 0.06)
            assert bool(got.clamp_steps) == (soc0 == 0.002)

    def test_loops_without_the_one_step_functions(self, params, base_curve,
                                                  monkeypatch):
        # the loop runs on floats: no BatteryState, step_state or
        # terminal_voltage per sample, and the same trace bit for bit
        prof = np.sin(np.linspace(0, 10, 300))
        ref = _reference_simulate(BatteryState(0.6, 0.01), params, base_curve,
                                  prof, 1.0, 1.063, 0.001, 0.01, 3)

        def per_sample(*args):
            raise AssertionError("per-sample call")

        for name in ("step_state", "terminal_voltage", "BatteryState"):
            monkeypatch.setattr(ecm, name, per_sample)
        got = measure(simulate_profile(BatteryState(0.6, 0.01), params,
                                       base_curve, prof, 1.0, 1.063),
                      0.001, 0.01, 3)
        for name in ("current_a", "voltage_v", "true_soc", "true_up_v"):
            assert getattr(got, name).tobytes() == \
                getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("cutoffs", [{}, dict(CUTOFF_LOW_V=-math.inf,
                                                  CUTOFF_HIGH_V=math.inf)])
    @pytest.mark.parametrize("start, params", [
        (BatteryState(0.5, math.nan), EcmParams(0.07, 0.04, 1000.0)),
        (BatteryState(math.inf, 0.0), EcmParams(0.07, 0.04, 1000.0)),
        # Up overflows to inf after the first step
        (BatteryState(0.5, 0.0), EcmParams(0.07, 1e300, 1e-290)),
    ], ids=["nan-up", "inf-soc", "up-overflow"])
    def test_non_finite_state_as_the_per_sample_loop(self, base_curve, start,
                                                     params, cutoffs,
                                                     monkeypatch):
        # step_state rejects a non-finite state and the curve an SOC past
        # its domain; a cutoff crossed first ends the trace instead
        for name, value in cutoffs.items():
            monkeypatch.setattr(ecm, name, value)
        prof = np.full(5, 1e20)

        def outcome(simulate):
            try:
                with np.errstate(over="ignore"):
                    trace = simulate(start, params, base_curve, prof, 1.0,
                                     1.063)
            except (InvalidInputError, CurveDomainError) as exc:
                return type(exc).__name__
            return repr((trace.true_soc.tolist(), trace.true_up_v.tolist(),
                         trace.voltage_v.tolist(), trace.cutoff_index))

        assert outcome(simulate_profile) == outcome(_reference_simulate)

    def test_clamp_annotated(self, params, base_curve, wide_cutoffs):
        trace = simulate_profile(BatteryState(0.002, 0.0), params, base_curve,
                                 np.full(200, 2.0), 1.0, 1.063)
        assert trace.clamp_steps  # discharge past empty is reported
