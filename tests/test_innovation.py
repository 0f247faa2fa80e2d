"""Innovation diagnostics: interval correlation measures, curve-error sign
inference, and convergence detection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfpsoc import (BatteryState, EcmParams, IntervalInnovations, KfState,
                    NoiseConfig, curve_error_polarity, detect_convergence,
                    infer_error_polarity, infer_error_sign, measure,
                    plateau_offset, run_ekf, simulate_profile)
from lfpsoc.ekf import StepOutput, kalman_step, transition
from lfpsoc.innovation import (CONVERGENCE_WINDOW, FLAT_TOL, INDETERMINATE,
                               NEGATIVE_G, NOISE_FLOOR_MULT, POSITIVE_G,
                               RMS_RATIO, interval_statistics, whiteness)
from lfpsoc import ecm, innovation
from lfpsoc.multimodel import interval_innovations
from lfpsoc.profiles import generate_profile


def _iv(values):
    # theoretical ACM of H = [0.1, -1], P- = 1e-4 I, r = 1e-6
    return IntervalInnovations(np.asarray(values, dtype=float), 1.02e-4)


def _filter_run(params, base_curve, seed, filter_curve, p0, q, n=6000,
                discharge_ah=0.9):
    """Baseline filter over a noisy dst-like trace simulated on `base_curve`
    from SOC 0.9; returns the trace and the step outputs."""
    sigma = 0.003
    prof = generate_profile("dst-like", n, seed=seed, amp=1.0,
                            target_discharge_ah=discharge_ah)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ecm, "CUTOFF_LOW_V", 0.0)
        trace = measure(simulate_profile(BatteryState(0.9, 0.0), params,
                                         base_curve, prof, 1.0, 1.063),
                        sigma, 0.0, seed)
    init = KfState(BatteryState(0.9, 0.0), p0, p0, NoiseConfig(*q, sigma**2),
                   filter_curve, 1.063)
    return trace, run_ekf(init, params, trace)


def _intervals(outs, length=20):
    """Whole intervals of the filter's innovations, as the bank records
    them."""
    return [interval_innovations(outs[k:k + length])
            for k in range(0, len(outs) - length + 1, length)]


def _pair_polarities(outs, length=20):
    """Polarity statistic at the end of each adjacent interval pair, from
    interval 10 on."""
    polarity = curve_error_polarity([o.k_soc for o in outs],
                                    [o.innovation for o in outs])
    return [polarity[(m + 2) * length - 1]
            for m in range(10, len(outs) // length - 1)]


class TestCorrelationMeasures:
    def test_ccm_arithmetic(self):
        a = _iv([1.0, 2.0, 3.0])
        b = _iv([1.0, -1.0, 2.0])
        assert interval_statistics(a, b)[0] == pytest.approx(
            (1 - 2 + 6) / 3, abs=1e-12)

    def test_acm_is_mean_square(self):
        assert _iv([3.0, 4.0]).acm_emp == pytest.approx(12.5)

    def test_theoretical_acm_quadratic_form(self, params, base_curve):
        # an interval's theoretical ACM is H P- H^T + r of its last update:
        # here a first step (no prediction, so P- = P) with H = [0.5, -1]
        f = KfState(BatteryState(0.5, 0.0), 4e-4, 1e-4,
                    NoiseConfig(0.0, 0.0, 1e-6), base_curve, 1.063)
        # the start posterior, correlated: (soc, up, p00, p01, p11)
        [[step]] = kalman_step(f, (0.5, base_curve.ocv(0.5)), [0.5],
                               (0.5, 0.0, 4e-4, 1e-5, 1e-4),
                               # sample 0 at rest, 3.3 V: (k, decay,
                               # g_soc*u_prev, g_up*u_prev, y, r0*u)
                               [(0, transition(params, 1.0, 1.063)[0], 0.0,
                                 0.0, 3.3, 0.0)])
        step = StepOutput._make(step)
        expect = 0.25 * 4e-4 - 2 * 0.5 * 1e-5 + 1e-4 + 1e-6
        acm_theo = interval_innovations([step, step]).acm_theo
        assert acm_theo == pytest.approx(expect, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            _iv([1.0, np.nan])

    @pytest.mark.parametrize("values", [[], [1e-3]])
    def test_fewer_than_two_innovations_rejected(self, values):
        with pytest.raises(ValueError, match="^need at least 2 innovations$"):
            _iv(values)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=30),
           st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=30),
           st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_ccm_bilinear_and_symmetric(self, xs, ys, c):
        n = min(len(xs), len(ys))
        x, y = np.array(xs[:n]), np.array(ys[:n])
        a, b = _iv(x), _iv(y)
        assert interval_statistics(a, b)[0] == pytest.approx(
            interval_statistics(b, a)[0], abs=1e-12)
        scaled = _iv(c * x)
        assert interval_statistics(scaled, b)[0] == pytest.approx(
            c * interval_statistics(a, b)[0], abs=1e-9)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_ccm_self_equals_acm(self, xs):
        iv = _iv(np.array(xs))
        assert interval_statistics(iv, iv)[0] == pytest.approx(iv.acm_emp,
                                                               abs=1e-12)


class TestWhiteness:
    @pytest.mark.parametrize("v", [[], [1e-3]])
    def test_fewer_than_two_innovations_are_not_computable(self, v):
        with pytest.raises(ValueError) as err:
            whiteness(v)
        assert str(err.value) == \
            f"not computable (needs 2 innovations, has {len(v)})"

    def test_constant_innovations_are_not_computable(self):
        with pytest.raises(ValueError) as err:
            whiteness(np.full(5, 1e-3))
        assert str(err.value) == \
            "not computable: the innovations have zero variance"

    def test_short_input_reads_only_lags_with_pairs(self):
        # alternating signs: the autocorrelation at lag k is
        # (-1)^k (10 - k)/10, inside the 2/sqrt(10) band from lag 4 on
        assert whiteness([1.0, -1.0] * 5) == (6, 9, 2 / math.sqrt(10))


class TestErrorSignInference:
    def test_positive_ccm_means_negative_gap(self):
        assert infer_error_sign(1e-4, 1e-6) == NEGATIVE_G

    def test_negative_ccm_means_positive_gap(self):
        assert infer_error_sign(-1e-4, 1e-6) == POSITIVE_G

    def test_small_ccm_indeterminate(self):
        # |ccm| below 5% of the empirical ACM is treated as noise
        assert infer_error_sign(1e-9, 1e-6) == INDETERMINATE
        assert infer_error_sign(4.9e-8, 1e-6) == INDETERMINATE
        assert infer_error_sign(5.1e-8, 1e-6) == NEGATIVE_G

    def test_floor_dominates_tiny_acm(self):
        # below 2e-7 empirical ACM the 1e-8 floor is the threshold
        assert infer_error_sign(5e-9, 0.0) == INDETERMINATE
        assert infer_error_sign(-5e-9, 1e-7) == INDETERMINATE
        assert infer_error_sign(1.1e-8, 1e-7) == NEGATIVE_G
        assert infer_error_sign(-1.1e-8, 0.0) == POSITIVE_G

    def test_polarity_sign_convention_and_threshold(self):
        # positive: filter curve above the truth (negative gap); within one
        # initial SOC standard deviation, sqrt(1e-4), indeterminate
        assert infer_error_polarity(0.009, p0_soc=1e-4) == INDETERMINATE
        assert infer_error_polarity(-0.009, p0_soc=1e-4) == INDETERMINATE
        assert infer_error_polarity(0.011, p0_soc=1e-4) == NEGATIVE_G
        assert infer_error_polarity(-0.011, p0_soc=1e-4) == POSITIVE_G

    def test_polarity_threshold_is_the_initial_soc_deviation(self):
        # sqrt(9e-4) = 0.03: the verdict flips just past it on either side
        assert infer_error_polarity(0.0299, p0_soc=9e-4) == INDETERMINATE
        assert infer_error_polarity(0.0301, p0_soc=9e-4) == NEGATIVE_G
        assert infer_error_polarity(-0.0301, p0_soc=9e-4) == POSITIVE_G

    def test_polarity_negative_p0_rejected(self):
        with pytest.raises(ValueError):
            infer_error_polarity(0.1, p0_soc=-1e-4)

    def test_polarity_is_minus_running_correction(self):
        v = curve_error_polarity([0.5, 1.0, 2.0], [1.0, -2.0, 0.5])
        assert np.allclose(v, [-0.5, 1.5, 0.5], rtol=0, atol=1e-15)

    def test_polarity_shape_mismatch(self):
        with pytest.raises(ValueError):
            curve_error_polarity([0.5, 1.0], [1.0])


class TestIntervalStatistics:
    def test_adjacent_intervals(self):
        prev, curr = _iv([1e-3, 2e-3, 1e-3]), _iv([2e-3, 1e-3, 1e-3])
        ccm, sign = interval_statistics(prev, curr)
        assert ccm == pytest.approx((2 + 2 + 1) * 1e-6 / 3, rel=1e-12)
        assert sign == infer_error_sign(ccm, curr.acm_emp) == NEGATIVE_G

    @pytest.mark.parametrize("prev", [None, _iv([1e-3, 2e-3])])
    def test_no_ccm_without_a_matching_previous_interval(self, prev):
        curr = _iv([2e-3, 1e-3, 1e-3])
        ccm, sign = interval_statistics(prev, curr)
        assert ccm == 0.0 and sign == INDETERMINATE


def _numpy_statistics(a, b):
    """(ccm, acm_emp, rms) of intervals `a` then `b` by numpy, as the
    interval statistics were computed on arrays."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (float(np.mean(a * b)), float(np.mean(b ** 2)),
            float(np.sqrt(np.mean(b ** 2))))


def _float_statistics(a, b):
    prev, curr = _iv(a), _iv(b)
    ccm, sign = interval_statistics(prev, curr)
    assert sign == infer_error_sign(ccm, curr.acm_emp)
    assert ccm == interval_statistics(curr, prev)[0]  # symmetric, exactly
    return ccm, curr.acm_emp, curr.rms()


class TestFloatStatistics:
    """The interval statistics sum with numpy's own reduction over the
    count, so every length from 2 to 300, across numpy's plain, blocked and
    halved summation orders, equals numpy bit for bit."""

    def test_every_length_from_2_to_300(self):
        rng = np.random.default_rng(7)
        for n in range(2, 301):
            # magnitudes over 8 decades, so that the order of the sum shows
            a, b = (rng.normal(0, 1, n) * 10 ** rng.uniform(-8, 0, n)
                    for _ in range(2))
            assert repr(_float_statistics(a, b)) == \
                repr(_numpy_statistics(a, b)), n

    @given(st.integers(2, 300).flatmap(lambda n: st.tuples(*[st.lists(
        st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1e-300])),
        min_size=n, max_size=n)] * 2)))
    @settings(max_examples=60, deadline=None)
    def test_equal_to_numpy(self, pair):
        # signed zeros included: numpy adds its sum to 0.0, so a CCM of
        # -0.0 products reads 0.0
        a, b = pair
        assert repr(_float_statistics(a, b)) == repr(_numpy_statistics(a, b))

    def test_values_are_floats_and_the_acm_is_computed_once(self, monkeypatch):
        iv = _iv(np.arange(1.0, 21.0))
        assert type(iv.values) is tuple
        assert all(type(x) is float for x in iv.values)
        calls = []
        monkeypatch.setattr(innovation, "mean",
                            lambda v: calls.append(v) or 0.0)
        iv.rms(), iv.acm_emp, interval_statistics(None, iv)
        assert calls == []


class TestDetectConvergence:
    def test_too_short_history(self):
        assert not detect_convergence([_iv([1.0, 1.0])], 0.0)

    def test_decay_then_flat_converges(self):
        hist = [_iv(np.full(10, 1.0 * 0.5 ** min(k, 4)))
                for k in range(8)]
        assert detect_convergence(hist, 0.0)

    def test_constant_large_never_converges(self):
        hist = [_iv(np.full(10, 0.5)) for _ in range(50)]
        assert not detect_convergence(hist, 0.0)

    def test_flat_but_above_ratio_not_converged(self):
        hist = [_iv(np.full(10, 1.0))] + \
               [_iv(np.full(10, 0.5)) for _ in range(5)]
        assert not detect_convergence(hist, 0.0)  # 0.5 >= 0.2 * 1.0

    def test_noise_floor_branch(self):
        # an exactly-initialized run never drops relative to its start, but
        # sitting at the measurement noise floor still counts as converged
        hist = [_iv(np.full(10, 0.0031)) for _ in range(4)]
        assert not detect_convergence(hist, 0.0)
        assert detect_convergence(hist, noise_std=0.003)

    def test_all_zero_history(self):
        hist = [_iv(np.zeros(10)) for _ in range(3)]
        assert detect_convergence(hist, 0.0)

    def test_exact_init_pipeline_converges_quickly(self, params, base_curve):
        sigma = 0.003
        _, outs = _filter_run(params, base_curve, 21, base_curve, 1e-6,
                              (1e-10, 1e-9), n=400, discharge_ah=0.05)
        hist = []
        converged_at = None
        for iv in _intervals(outs):
            hist.append(iv)
            if detect_convergence(hist, noise_std=sigma):
                converged_at = len(hist)
                break
        assert converged_at is not None and converged_at <= 3


def _old_convergence(history, noise_std=None) -> bool:
    """`detect_convergence` as it was, reading the RMS of every interval."""
    if len(history) < 2:
        return False
    rms = np.array([iv.rms() for iv in history])
    recent = rms[-CONVERGENCE_WINDOW:]
    mean = float(np.mean(recent))
    if noise_std is not None and mean <= NOISE_FLOOR_MULT * noise_std:
        return True
    if mean == 0.0:
        return True
    if mean >= RMS_RATIO * rms[0]:
        return False
    return float((np.max(recent) - np.min(recent)) / mean) < FLAT_TOL


class _CountedInterval:
    """An interval that counts the calls of its `rms`."""

    calls = 0

    def __init__(self, rms):
        self._rms = rms

    def rms(self):
        _CountedInterval.calls += 1
        return self._rms


class TestConvergenceReadsTheWindow:
    @pytest.mark.parametrize("length", [2, 3, 4, 50, 360])
    def test_rms_calls_per_check(self, length, monkeypatch):
        # a phase 1 that never converges checks once per interval: each
        # check reads the first interval and the trailing window only
        monkeypatch.setattr(_CountedInterval, "calls", 0)
        hist = [_CountedInterval(0.5) for _ in range(length)]
        assert not detect_convergence(hist, 0.0)
        assert _CountedInterval.calls <= CONVERGENCE_WINDOW + 1

    @given(rms=st.lists(st.one_of(st.floats(0.0, 2.0),
                                  st.sampled_from([0.0, 0.2, 1.0])),
                        min_size=0, max_size=12),
           noise_std=st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    @settings(max_examples=300, deadline=None)
    def test_same_verdict_as_reading_every_interval(self, rms, noise_std):
        hist = [_CountedInterval(v) for v in rms]
        assert detect_convergence(hist, noise_std) == \
            _old_convergence(hist, noise_std)


class TestPipelineSignStatistics:
    def test_filter_curve_above_truth_gives_positive_ccm(self, params,
                                                         base_curve):
        """End-to-end check that a curve error shows in the CCM: when the
        filter's curve sits above the actual one on the plateau (negative
        gap), the interval cross-correlation is overwhelmingly positive."""
        filt_curve = plateau_offset(base_curve, 0.020, lo=0.2, hi=0.8,
                                    ramp=0.15)
        _, outs = _filter_run(params, base_curve, 31, filt_curve, 1e-4,
                              (1e-10, 1e-9))
        ivs = _intervals(outs)
        ccms = [interval_statistics(a, b)[0]
                for a, b in zip(ivs[10:-1], ivs[11:])]
        frac_positive = np.mean([c > 0 for c in ccms])
        assert frac_positive >= 0.9

    def test_matched_curve_ccm_near_zero(self, params, base_curve):
        # with the correct curve the cross-correlation has no persistent sign
        _, outs = _filter_run(params, base_curve, 37, base_curve, 1e-6,
                              (1e-12, 1e-12))
        ivs = _intervals(outs)
        verdicts = []
        for a, b in zip(ivs[10:-1], ivs[11:]):
            verdicts.append(infer_error_sign(interval_statistics(a, b)[0],
                                             b.acm_emp))
        # per-pair verdicts fluctuate with the noise, but neither sign
        # dominates the way it does under a genuine curve mismatch
        frac_negative_g = np.mean([v == NEGATIVE_G for v in verdicts])
        frac_positive_g = np.mean([v == POSITIVE_G for v in verdicts])
        assert 0.2 <= frac_negative_g <= 0.8
        assert 0.2 <= frac_positive_g <= 0.8
        # and the ACM ratio stays near unity for a consistent filter
        ratios = [iv.acm_emp / iv.acm_theo for iv in ivs[10:]]
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.25)

    def test_polarity_is_accumulated_soc_correction(self, params, base_curve):
        """The statistic equals the open-loop (coulomb-counted) SOC minus
        the filter's posterior SOC: the correction the updates applied."""
        filt_curve = plateau_offset(base_curve, 0.020, lo=0.2, hi=0.8,
                                    ramp=0.15)
        trace, outs = _filter_run(params, base_curve, 31, filt_curve, 1e-4,
                                  (1e-10, 1e-9), n=600, discharge_ah=0.1)
        assert not any(o.soc_clamped for o in outs)
        dt_over_c = 1.0 / (1.063 * 3600.0)
        open_loop = 0.9 - dt_over_c * np.concatenate(
            ([0.0], np.cumsum(trace.current_a[:-1])))
        posterior = np.array([o.soc for o in outs])
        polarity = curve_error_polarity([o.k_soc for o in outs],
                                        [o.innovation for o in outs])
        assert np.allclose(polarity, open_loop - posterior, rtol=0,
                           atol=1e-12)

    @pytest.mark.parametrize("filter_offset", [0.020, -0.020])
    def test_polarity_matches_both_offsets(self, params, base_curve,
                                           filter_offset):
        """Mirrored polarities on a trace other than the acceptance one:
        the statistic is positive when the filter's curve sits above the
        actual one and negative when below, and its verdict does not name
        the wrong polarity."""
        filt_curve = plateau_offset(base_curve, filter_offset, lo=0.2,
                                    hi=0.8, ramp=0.15)
        _, outs = _filter_run(params, base_curve, 31, filt_curve, 1e-4,
                              (1e-10, 1e-9))
        values = _pair_polarities(outs)
        expect = math.copysign(1.0, filter_offset)
        assert np.mean([math.copysign(1.0, v) == expect
                        for v in values]) >= 0.9
        wrong = POSITIVE_G if filter_offset > 0 else NEGATIVE_G
        verdicts = [infer_error_polarity(v, 1e-4) for v in values]
        assert np.mean([v == wrong for v in verdicts]) <= 0.05

    def test_matched_curve_polarity_indeterminate(self, params, base_curve):
        # with the correct curve the filter corrects its SOC by less than
        # its initial uncertainty, so no polarity verdict dominates
        _, outs = _filter_run(params, base_curve, 37, base_curve, 1e-6,
                              (1e-12, 1e-12))
        verdicts = [infer_error_polarity(v, 1e-6)
                    for v in _pair_polarities(outs)]
        assert np.mean([v == NEGATIVE_G for v in verdicts]) <= 0.1
        assert np.mean([v == POSITIVE_G for v in verdicts]) <= 0.1
