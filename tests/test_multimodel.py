"""Multi-model filter bank: slope-set construction, Bayesian model
weights, interval selection, and the two-phase estimator."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfpsoc import (BankConfig, BatteryState, EcmParams, KfState, NoiseConfig,
                    OcvCurve, ScenarioConfig, build_slope_set, curve_mae,
                    default_lifepo4_curve, measure, plateau_offset,
                    run_ammkf, run_ekf, run_scenario, simulate_profile)
from lfpsoc.innovation import INDETERMINATE, NEGATIVE_G, POSITIVE_G
from lfpsoc import ecm, ekf, multimodel, scenario
from lfpsoc.ekf import FilterDegeneracyError
from lfpsoc.multimodel import CHARGE, DISCHARGE, run_interval
from lfpsoc.profiles import generate_profile


class TestBankConfig:
    def test_even_count_rejected(self):
        with pytest.raises(ValueError, match="^n: .*odd.*: 4$"):
            BankConfig(n=4, interval_len=20, spread=2.0)

    def test_single_filter_allowed(self):
        assert BankConfig(n=1, interval_len=20, spread=2.0).n == 1

    def test_short_interval_rejected(self):
        with pytest.raises(ValueError):
            BankConfig(n=7, interval_len=4, spread=2.0)

    def test_spread_must_exceed_one(self):
        with pytest.raises(ValueError):
            BankConfig(n=7, interval_len=20, spread=1.0)

    def test_filter_count_below_one_over_prob_floor_accepted(self):
        assert multimodel.PROB_FLOOR == 1e-6
        assert BankConfig(n=999999, interval_len=20, spread=2.0).n == 999999

    def test_filter_count_at_one_over_prob_floor_rejected(self):
        # at 1/PROB_FLOOR filters or more every weight is floored, the
        # weights stay uniform and every pick is index 0
        with pytest.raises(ValueError, match="^n: .*PROB_FLOOR.*1000001"):
            BankConfig(n=1000001, interval_len=20, spread=2.0)

    @pytest.mark.parametrize("n, floor", [
        (7, 0.0), (7, -1e-6), (7, math.nan), (7, 1 / 7), (7, 0.5),
        (3, 0.34), (1, 1.0)])
    def test_prob_floor_outside_zero_to_one_over_n_rejected(self, n, floor):
        # PROB_FLOOR is read at call time: at 1/n or above every weight is
        # floored, the weights stay uniform and every pick is index 0; at 0,
        # below or NaN the floor is off
        with mock.patch.object(multimodel, "PROB_FLOOR", floor):
            with pytest.raises(ValueError, match=f"^n: .*PROB_FLOOR.*: {n}$"):
                BankConfig(n=n, interval_len=20, spread=2.0)

    @pytest.mark.parametrize("n, floor", [(7, 1e-300), (7, 0.142857),
                                          (3, 0.33), (1, 0.99)])
    def test_prob_floor_inside_zero_to_one_over_n_accepted(self, n, floor):
        with mock.patch.object(multimodel, "PROB_FLOOR", floor):
            assert BankConfig(n=n, interval_len=20, spread=2.0).n == n


class TestBuildSlopeSet:
    def test_negative_gap_discharge_grows_slopes(self):
        cfg = BankConfig(n=3, interval_len=20, spread=2.0)
        s = build_slope_set(0.1, NEGATIVE_G, DISCHARGE, cfg)
        assert s == pytest.approx([0.1, 0.1 * math.sqrt(2.0), 0.2], rel=1e-12)

    def test_positive_gap_discharge_shrinks_slopes(self):
        cfg = BankConfig(n=3, interval_len=20, spread=2.0)
        s = build_slope_set(0.1, POSITIVE_G, DISCHARGE, cfg)
        assert s == pytest.approx([0.05, 0.1 / math.sqrt(2.0), 0.1], rel=1e-12)

    def test_indeterminate_symmetric(self):
        cfg = BankConfig(n=3, interval_len=20, spread=2.0)
        s = build_slope_set(0.1, INDETERMINATE, DISCHARGE, cfg)
        assert s == pytest.approx([0.05, 0.1, 0.2], rel=1e-12)

    def test_charge_mirrors_the_verdict(self):
        cfg = BankConfig(n=3, interval_len=20, spread=2.0)
        dis = build_slope_set(0.1, NEGATIVE_G, DISCHARGE, cfg)
        chg = build_slope_set(0.1, NEGATIVE_G, CHARGE, cfg)
        mirror = build_slope_set(0.1, POSITIVE_G, DISCHARGE, cfg)
        assert chg == pytest.approx(mirror, rel=1e-12)
        assert not np.allclose(chg, dis)

    def test_floor_applies(self):
        cfg = BankConfig(n=5, interval_len=20, spread=10.0)
        s = np.asarray(build_slope_set(1e-5, POSITIVE_G, DISCHARGE, cfg))
        assert np.all(s >= multimodel.SLOPE_FLOOR)
        assert s[0] == multimodel.SLOPE_FLOOR

    def test_single_filter_returns_base(self):
        cfg = BankConfig(n=1, interval_len=20, spread=2.0)
        assert build_slope_set(0.07, None, DISCHARGE, cfg) == \
            pytest.approx([0.07])

    @given(base=st.floats(1e-3, 1.0), spread=st.floats(1.01, 20.0),
           n=st.sampled_from([3, 5, 7, 9]),
           sign=st.sampled_from([NEGATIVE_G, POSITIVE_G, INDETERMINATE]),
           mode=st.sampled_from([DISCHARGE, CHARGE]))
    @settings(max_examples=200, deadline=None)
    def test_base_membership_ordering_and_ratios(self, base, spread, n,
                                                 sign, mode):
        cfg = BankConfig(n=n, interval_len=20, spread=spread)
        s = np.asarray(build_slope_set(base, sign, mode, cfg))
        assert len(s) == n
        assert np.all(np.diff(s) >= 0)  # non-decreasing (flat where floored)
        assert np.min(np.abs(s - base)) < 1e-9 * base  # base is a member
        # strictly geometric wherever the floor is inactive
        if np.all(s > multimodel.SLOPE_FLOOR + 1e-12):
            assert np.all(np.diff(s) > 0)
            ratios = s[1:] / s[:-1]
            assert ratios == pytest.approx(np.full(n - 1, ratios[0]), rel=1e-9)

    @given(base=st.floats(0.0, 1.0), spread=st.floats(1.01, 20.0),
           n=st.sampled_from([1, 3, 5, 7, 9]),
           sign=st.sampled_from([NEGATIVE_G, POSITIVE_G, INDETERMINATE]),
           mode=st.sampled_from([DISCHARGE, CHARGE]))
    @settings(max_examples=200, deadline=None)
    def test_float_list_equals_the_array_formula(self, base, spread, n, sign,
                                                 mode):
        # the slopes, bit for bit, of the floored array product
        # np.maximum(base * spread ** exponents, SLOPE_FLOOR); charge
        # mirrors the verdict
        eff = sign
        if sign != INDETERMINATE and mode == CHARGE:
            eff = POSITIVE_G if sign == NEGATIVE_G else NEGATIVE_G
        lo, hi = {NEGATIVE_G: (0.0, 1.0), POSITIVE_G: (-1.0, 0.0),
                  INDETERMINATE: (-1.0, 1.0)}[eff]
        ratios = spread ** np.linspace(lo, hi, n) if n > 1 else np.ones(1)
        oracle = np.maximum(base * ratios, multimodel.SLOPE_FLOOR).tolist()
        s = build_slope_set(base, sign, mode,
                            BankConfig(n=n, interval_len=20, spread=spread))
        assert type(s) is list and all(type(v) is float for v in s)
        assert [v.hex() for v in s] == [v.hex() for v in oracle]


def _rows(params, trace, capacity_ah, start, length):
    """The rows of samples [start, start + length), as `run_ammkf` takes
    them from the trace's one `ekf.samples` iterator."""
    return list(ekf.samples(params, trace, capacity_ah))[start:start + length]


def _log_likelihood(e, s):
    return -0.5 * (e * e / s + math.log(s))


class TestLikelihood:
    def test_nonpositive_variance_rejected(self, params, base_curve,
                                           no_low_cutoff):
        # a member whose innovation variance is not positive stops the
        # interval at that step, before any weight is computed
        trace = simulate_profile(BatteryState(0.6, 0.0), params, base_curve,
                                 np.full(40, 0.5), 1.0, 1.063)
        f = KfState(BatteryState(0.6, 0.0), 0.0, 0.0,
                    NoiseConfig(1e-10, 1e-6, 1e-6), base_curve, 1.063)
        # a KfState refuses a negative start variance: the posterior does not
        x = (0.6, 0.0, -1.0, 0.0, -1.0)
        with pytest.raises(FilterDegeneracyError, match="step 21"):
            run_interval(f, (0.6, base_curve.ocv(0.6)), [0.05, 0.1, 0.2],
                         x, _rows(params, trace, 1.063, 21, 5))


def _model_weights(weights, log_likelihoods, floor):
    """One sample's Bayes update as a per-sample function did it before the
    interval was weighed in one pass: the reference for `interval_weights`."""
    top = max(log_likelihoods)
    post = [w * math.exp(ll - top) for w, ll in zip(weights, log_likelihoods)]
    total = sum(post)
    post = [floor if floor > (q := p / total) else q for p in post]
    total = sum(post)
    return [p / total for p in post]


def _per_sample(columns, floor):
    """`_model_weights` sample by sample from uniform weights."""
    weights = [1.0 / len(columns)] * len(columns)
    for lls in zip(*columns):
        weights = _model_weights(weights, lls, floor)
    return weights


def _outcome(fn) -> str:
    """The repr of fn's result, or the name of the exception it raised."""
    try:
        return repr(fn())
    except ArithmeticError as exc:
        return type(exc).__name__


# n members' log-density columns over 1-6 samples
_columns = st.integers(2, 9).flatmap(lambda n: st.integers(1, 6).flatmap(
    lambda length: st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=length, max_size=length),
        min_size=n, max_size=n)))


class TestUpdateProbabilities:
    """`interval_weights`: the Bayes update of the model weights over an
    interval."""

    @given(st.sampled_from([1, 3, 7, 9]), st.integers(1, 25),
           st.sampled_from([1e-300, 1e-6, 1e-3, 0.1]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_equals_per_sample_updates(self, n, length, floor,
                                                data):
        # bit for bit against the per-sample update, with floors that
        # bind, ties (a few distinct values) and -inf log-densities
        value = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(
            [0.0, -1.5, -700.0, -math.inf]))
        columns = data.draw(st.lists(
            st.lists(value, min_size=length, max_size=length),
            min_size=n, max_size=n))
        floor = min(floor, 0.5 / n)
        assert repr(multimodel.interval_weights(columns, floor)) == \
            repr(_per_sample(columns, floor))

    def test_bayes_arithmetic(self):
        # a first sample moves the uniform weights to 1:3; then innovations
        # 0 and 1 mV, both with S = 1e-6: the likelihood ratio is
        # exp(-1/2), and the shared ln S and 2*pi terms cancel
        columns = [[0.0, _log_likelihood(0.0, 1e-6)],
                   [math.log(3.0), _log_likelihood(1e-3, 1e-6)]]
        post = multimodel.interval_weights(columns, 0.0)
        b = 3.0 * math.exp(-0.5)
        assert post == pytest.approx([1.0 / (1.0 + b), b / (1.0 + b)],
                                     rel=1e-12)

    @given(_columns, st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_scaling_invariance(self, columns, shifts):
        # a constant added to every log-likelihood of a sample scales every
        # density of that sample alike
        shifted = [[ll + c for ll, c in zip(col, shifts)] for col in columns]
        assert multimodel.interval_weights(shifted, 1e-6) == pytest.approx(
            multimodel.interval_weights(columns, 1e-6), rel=1e-9, abs=1e-15)

    @given(_columns, st.sampled_from([0.0, -0.0, 1e-6]),
           st.lists(st.booleans(), min_size=9, max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_clamp_is_the_builtin_max(self, columns, floor, sunk):
        # bit for bit, signed zeros included, against the updates written
        # with max(); members whose first density underflows against the
        # best one's reach weight 0.0 (never the best filter's, so the
        # total stays positive), and the clamp sees 0.0 and -0.0
        top = max(col[0] for col in columns)
        for col, down in zip(columns, sunk):
            if down and col[0] != top:
                col[0] = top - 1e4

        def with_max():
            weights = [1.0 / len(columns)] * len(columns)
            for lls in zip(*columns):
                top = max(lls)
                post = [w * math.exp(ll - top) for w, ll in zip(weights, lls)]
                total = sum(post)
                post = [max(p / total, floor) for p in post]
                total = sum(post)
                weights = [p / total for p in post]
            return weights

        # with the floor off, every weight can reach 0.0 in a later sample:
        # then both divide by a zero total
        assert _outcome(lambda: multimodel.interval_weights(columns, floor)) \
            == _outcome(with_max)

    def test_underflow_never_resets(self):
        # every linear density exp(-e^2 / 2S) is 0.0 here, which reset the
        # weights to uniform; the best filter (smallest e^2/S + ln S) wins
        s, es = 1e-6, [0.2, 0.05, 0.1, 0.15]
        assert all(math.exp(-e * e / (2 * s)) == 0.0 for e in es)
        post = multimodel.interval_weights(
            [[_log_likelihood(e, s)] for e in es], 1e-6)
        assert post.index(max(post)) == 1
        assert post[1] == pytest.approx(1.0, abs=1e-5)

    @given(_columns, st.floats(1e-9, 1e-3))
    @settings(max_examples=100, deadline=None)
    def test_floor_keeps_all_models_alive(self, columns, floor):
        n = len(columns)
        post = multimodel.interval_weights(columns, floor)
        assert min(post) >= floor / (1.0 + n * floor) * (1.0 - 1e-12)

    @given(_columns)
    @settings(max_examples=100, deadline=None)
    def test_always_a_simplex(self, columns):
        post = multimodel.interval_weights(columns, 1e-6)
        assert len(post) == len(columns)
        assert sum(post) == pytest.approx(1.0, abs=1e-12)
        assert all(0.0 <= p <= 1.0 for p in post)


def _bank(soc, up, p, noise, curve):
    """A bank's filter: its noise and curve, and the start (soc, up) and
    variances `p` that every member steps from."""
    return KfState(BatteryState(soc, up), *p, noise, curve, 1.063)


class TestMakeBankAndInterval:
    """How `run_ammkf` makes each interval's bank and selects its winner,
    and how `run_interval` weighs the members."""

    def _trace(self, params, curve, n=200, seed=2, start=0.6):
        prof = generate_profile("dst-like", n, seed=seed, amp=1.0,
                                target_discharge_ah=0.02)
        with mock.patch.object(ecm, "CUTOFF_LOW_V", 0.0):
            return simulate_profile(BatteryState(start, 0.0), params, curve,
                                    prof, 1.0, 1.063)

    _bank_noise = NoiseConfig(1e-11, 1e-6, 1e-6)

    def _bank_calls(self, params, base_curve, curve, monkeypatch):
        """(f, anchor, slopes, x, (weights, members)) of every `run_interval`
        call of a 3-filter `run_ammkf` on `curve` over a trace from SOC
        0.9."""
        trace = self._trace(params, base_curve, start=0.9)
        calls = []
        real = multimodel.run_interval

        def spy(f, anchor, slopes, x, rows):
            calls.append((f, anchor, slopes, x,
                          real(f, anchor, slopes, x, rows)))
            return calls[-1][-1]

        monkeypatch.setattr(multimodel, "run_interval", spy)
        run_ammkf(trace, KfState(BatteryState(0.9, 0.0),
                                 1e-6, 1e-6,
                                 NoiseConfig(1e-10, 1e-6, 1e-6),
                                 curve, 1.063),
                  params, BankConfig(n=3, interval_len=20, spread=2.0),
                  bank_noise=self._bank_noise)
        assert len(calls) >= 2
        return calls, trace

    def test_bank_shares_anchor_uniform_prior(self, params, base_curve,
                                              monkeypatch):
        calls, trace = self._bank_calls(params, base_curve, base_curve,
                                       monkeypatch)
        carried = calls[0][3]
        expected = (carried[0], base_curve.ocv(carried[0]))  # the first
        for f, anchor, slopes, x, (weights, members) in calls:
            # every member starts from the carried posterior and anchors on
            # it and on the previous interval's corrected model value: the
            # heaviest member's line through the previous anchor
            assert x is carried
            assert f.noise is self._bank_noise and f.curve is base_curve
            assert anchor == expected  # a bank step is a tuple
            assert len(slopes) == 3 and slopes == sorted(set(slopes))
            opt = weights.index(max(weights))
            carried = members[opt][-1]
            expected = (carried[0],
                        anchor[1] + slopes[opt] * (carried[0] - anchor[0]))
        # the weights start uniform: identical members keep them so
        f, anchor, slopes, x, _ = calls[0]
        weights, _ = multimodel.run_interval(
            f, anchor, [slopes[1]] * 3, x,
            _rows(params, trace, 1.063, 41, 20))
        assert weights == [1 / 3] * 3

    def test_first_anchor_reads_the_clamped_soc(self, params, base_curve,
                                                monkeypatch):
        # the knots end below the carried SOC: the first model value is the
        # curve's at the clamped SOC, while the anchor SOC is the posterior's
        inner = base_curve.knot_soc <= 0.85
        curve = OcvCurve(base_curve.knot_soc[inner], base_curve.knot_ocv[inner])
        calls, _ = self._bank_calls(params, base_curve, curve, monkeypatch)
        _, anchor, _, x, _ = calls[0]
        assert x[0] > curve.soc_max  # the carried SOC
        assert anchor == (x[0], curve.ocv(curve.soc_max))

    def test_identical_filters_tie_to_lowest_index(self, params, base_curve):
        trace = self._trace(params, base_curve)
        noise = NoiseConfig(1e-11, 1e-6, 1e-6)
        soc, up = float(trace.true_soc[20]), float(trace.true_up_v[20])
        f = _bank(soc, up, (1e-6, 1e-6), noise, base_curve)
        slope = base_curve.slope(soc)
        weights, _ = run_interval(f, (soc, base_curve.ocv(soc)), [slope] * 3,
                                  f.start(), _rows(params, trace,
                                                   1.063, 21, 20))
        assert weights.index(max(weights)) == 0
        assert weights == pytest.approx([1 / 3] * 3, rel=1e-9)

    def test_correct_slope_wins(self, params, base_curve):
        trace = self._trace(params, base_curve, n=200, start=0.9)
        noise = NoiseConfig(1e-11, 1e-6, 1e-6)
        k0 = 40
        soc, up = float(trace.true_soc[k0]), float(trace.true_up_v[k0])
        f = _bank(soc, up, (1e-6, 1e-6), noise, base_curve)
        true_slope = base_curve.slope(soc)
        weights, _ = run_interval(f, (soc, base_curve.ocv(soc)),
                                  [true_slope / 8, true_slope, true_slope * 8],
                                  f.start(), _rows(params, trace,
                                                   1.063, k0 + 1,
                                                   40))
        assert weights.index(max(weights)) == 1
        assert weights[1] > max(weights[0], weights[2])
        assert weights[1] > 0.5

    def test_corrected_points_follow_affine_model(self, params, base_curve,
                                                  monkeypatch):
        # every corrected point of a bank interval lies on its winner's
        # slope through that interval's anchor
        trace = self._trace(params, base_curve, start=0.9)
        banks = {}  # (anchor, slopes) by interval index
        real = multimodel.run_interval

        def spy(f, anchor, slopes, x, rows):
            banks[rows[0][0] // len(rows)] = anchor, slopes  # k // L
            return real(f, anchor, slopes, x, rows)

        monkeypatch.setattr(multimodel, "run_interval", spy)
        res = run_ammkf(trace, KfState(BatteryState(0.9, 0.0), 1e-6, 1e-6,
                                       NoiseConfig(1e-10, 1e-6, 1e-6),
                                       base_curve, 1.063),
                        params, BankConfig(n=3, interval_len=20, spread=2.0),
                        bank_noise=self._bank_noise)
        opt = {d.interval_index: d.optimal_index for d in res.diagnostics}
        assert len(res.corrected_points) == 20 * len(opt) > 0
        for point_soc, v, idx in res.corrected_points:
            (soc, model_ocv), slopes = banks[idx]
            assert v == pytest.approx(
                model_ocv + slopes[opt[idx]] * (point_soc - soc), abs=1e-12)


class TestRunAmmkf:
    _noise = NoiseConfig(1e-7, 1e-6, 1e-6)
    _bank_noise = NoiseConfig(1e-11, 1e-6, 1e-6)

    def _trace(self, params, curve, n=3000, seed=11, start=0.95, sigma=0.001):
        prof = generate_profile("dst-like", n, seed=seed, amp=1.0,
                                target_discharge_ah=0.45)
        with mock.patch.object(ecm, "CUTOFF_LOW_V", 0.0):
            return measure(simulate_profile(BatteryState(start, 0.0), params,
                                            curve, prof, 1.0, 1.063),
                           sigma, 0.0, seed)

    def _filter(self, curve):
        """The plain filter every run here starts: SOC 0.95, P0 1e-4."""
        return KfState(BatteryState(0.95, 0.0), 1e-4, 1e-4,
                       self._noise, curve, 1.063)

    def test_trace_too_short_rejected(self, params, base_curve):
        trace = self._trace(params, base_curve, n=30)
        with pytest.raises(ValueError):
            run_ammkf(trace, self._filter(base_curve), params,
                      BankConfig(n=7, interval_len=20, spread=2.0),
                      self._noise)

    @pytest.mark.parametrize("column, k", [
        ("voltage_v", 5),        # phase 1
        ("current_a", 700),      # a bank interval
        ("voltage_v", 1005)])    # the tail after the last whole interval
    def test_non_finite_sample_names_its_index(self, params, base_curve,
                                               monkeypatch, column, k):
        trace = self._trace(params, base_curve, n=1010)
        getattr(trace, column)[k] = np.nan
        # the whole trace is checked before the first step
        steps = []
        monkeypatch.setattr(ekf, "kalman_step",
                            lambda *args: steps.append(args))
        with pytest.raises(ValueError, match=f"^sample {k}: non-finite"):
            run_ammkf(trace, self._filter(base_curve), params,
                      BankConfig(n=7, interval_len=20, spread=6.0),
                      bank_noise=self._bank_noise)
        assert steps == []

    def test_one_samples_pass_per_run(self, params, base_curve, monkeypatch):
        # phase 1, the bank intervals and the tail all read one iterator
        trace = self._trace(params, base_curve, n=1010)
        calls = []
        real = ekf.samples

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ekf, "samples", spy)
        res = run_ammkf(trace, self._filter(base_curve), params,
                        BankConfig(n=7, interval_len=20, spread=6.0),
                        bank_noise=self._bank_noise)
        assert res.diagnostics and len(trace) % 20  # a bank and a tail
        assert len(calls) == 1
        assert len(res.soc) == len(trace)

    def test_bank_reads_the_curve_through_one_lookup(self, params,
                                                     base_curve, monkeypatch):
        # the bank intervals' anchors read the run's one `lookup()`, never
        # the plain `ocv` or `slope`
        trace = self._trace(params, base_curve, n=1010)
        calls = []

        def spy(name):
            real = getattr(OcvCurve, name)

            def call(self, soc):
                calls.append(name)
                return real(self, soc)
            return call

        for name in ("ocv", "slope"):
            monkeypatch.setattr(OcvCurve, name, spy(name))
        res = run_ammkf(trace, self._filter(base_curve), params,
                        BankConfig(n=7, interval_len=20, spread=6.0),
                        bank_noise=self._bank_noise)
        assert len(res.diagnostics) > 1  # bank intervals ran
        assert calls == []

    def test_every_step_starts_from_one_posterior_tuple(self, params,
                                                        base_curve,
                                                        monkeypatch):
        # phase 1, each bank interval and the tail each step every member
        # from one carried posterior, and keep only plain tuples
        trace = self._trace(params, base_curve, n=1010)
        starts, kinds = [], set()
        real = ekf.kalman_step

        def spy(f, anchor, slopes, x, rows):
            starts.append(x)
            members = real(f, anchor, slopes, x, rows)
            kinds.update(type(step) for steps in members for step in steps)
            return members

        monkeypatch.setattr(ekf, "kalman_step", spy)
        res = run_ammkf(trace, self._filter(base_curve), params,
                        BankConfig(n=7, interval_len=20, spread=6.0),
                        bank_noise=self._bank_noise)
        assert res.diagnostics and len(trace) % 20  # a bank and a tail
        assert len(starts) == len(trace) // 20 + 1
        assert starts[0] == self._filter(base_curve).start()
        assert all(type(x) is tuple and len(x) in (5, 10)
                   and all(type(v) in (float, bool) for v in x)
                   for x in starts)
        assert kinds == {tuple}

    def test_single_filter_bank_equals_plain_ekf(self, params, base_curve):
        trace = self._trace(params, base_curve, n=1000)
        filt = self._filter(base_curve)
        res = run_ammkf(trace, filt, params,
                        BankConfig(n=1, interval_len=20, spread=2.0),
                        self._noise)
        ekf_soc = np.array([o.soc for o in run_ekf(filt, params, trace)])
        assert np.array_equal(res.soc, ekf_soc)
        assert res.corrected_points == []

    def test_single_filter_bank_builds_no_slope_set(self, params, base_curve,
                                                    monkeypatch):
        trace = self._trace(params, base_curve, n=1000)
        calls = []
        monkeypatch.setattr(multimodel, "build_slope_set",
                            lambda *args: calls.append(args))
        res = run_ammkf(trace, self._filter(base_curve), params,
                        BankConfig(n=1, interval_len=20, spread=2.0),
                        self._noise)
        assert res.diagnostics  # bank intervals ran
        assert calls == []

    def test_true_curve_matches_single_filter_closely(self, params, base_curve):
        trace = self._trace(params, base_curve, n=2000)
        filt = self._filter(base_curve)
        full = run_ammkf(trace, filt, params,
                         BankConfig(n=7, interval_len=20, spread=6.0),
                         bank_noise=self._bank_noise)
        single = run_ammkf(trace, filt, params,
                           BankConfig(n=1, interval_len=20, spread=2.0),
                           self._noise)
        assert np.max(np.abs(full.soc - single.soc)) < 0.005

    def test_plateau_offset_corrected(self, params, base_curve):
        # truth follows a curve 20 mV below the filter's copy on the plateau;
        # the bank keeps the late-run state-of-charge error small where a
        # single filter on the wrong curve is badly biased
        true_curve = plateau_offset(base_curve, -0.020, lo=0.2, hi=0.8,
                                    ramp=0.15)
        trace = self._trace(params, true_curve, n=4000, seed=17)
        filt = self._filter(base_curve)
        res = run_ammkf(trace, filt, params,
                        BankConfig(n=7, interval_len=20, spread=6.0),
                        bank_noise=self._bank_noise)
        baseline = run_ammkf(trace, filt, params,
                             BankConfig(n=1, interval_len=20, spread=2.0),
                             self._noise)
        q = len(trace) // 4
        err_bank = np.abs(res.soc[-q:] - trace.true_soc[-q:])
        err_single = np.abs(baseline.soc[-q:] - trace.true_soc[-q:])
        assert np.max(err_bank) < 0.03
        assert np.mean(err_bank) < 0.5 * np.mean(err_single)
        assert res.corrected_points  # the corrected curve cloud is emitted
        assert res.convergence_step is not None

    def test_corrected_cloud_tracks_actual_curve(self, params, base_curve):
        true_curve = plateau_offset(base_curve, -0.020, lo=0.2, hi=0.8,
                                    ramp=0.15)
        trace = self._trace(params, true_curve, n=4000, seed=17)
        res = run_ammkf(trace, self._filter(base_curve), params,
                        BankConfig(n=7, interval_len=20, spread=6.0),
                        bank_noise=self._bank_noise)
        corrected, original = curve_mae(res.corrected_points, true_curve,
                                        base_curve)
        assert corrected < original

    def test_deterministic_and_schedule_invariant(self, params, base_curve,
                                                 monkeypatch):
        true_curve = plateau_offset(base_curve, 0.020, lo=0.2, hi=0.8,
                                    ramp=0.15)
        trace = self._trace(params, true_curve, n=1500, seed=19)
        args = (trace, self._filter(base_curve), params,
                BankConfig(n=5, interval_len=20, spread=6.0))
        a = run_ammkf(*args, bank_noise=self._bank_noise)
        b = run_ammkf(*args, bank_noise=self._bank_noise)
        assert np.array_equal(a.soc, b.soc)
        # the order of data-independent filters in the bank cannot matter:
        # reversed, the estimate is the same and the pick is mirrored
        build = multimodel.build_slope_set
        monkeypatch.setattr(multimodel, "build_slope_set",
                            lambda *xs: build(*xs)[::-1])
        c = run_ammkf(*args, bank_noise=self._bank_noise)
        assert np.array_equal(a.soc, c.soc)
        assert [4 - d.optimal_index for d in a.diagnostics] == \
            [d.optimal_index for d in c.diagnostics]

    @given(kind=st.sampled_from(["random-walk", "charge", "discharge"]),
           amp=st.floats(0.1, 3.0), start=st.floats(0.05, 0.95),
           error=st.floats(-0.1, 0.1), lo=st.floats(0.0, 0.3),
           hi=st.floats(0.7, 1.0), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_any_profile_start_and_partial_curve(self, kind, amp, start, error,
                                                 lo, hi, seed):
        # the truth runs on the full curve and may clamp at 0 or 1; the
        # filters read a copy whose knots span only [lo, hi]
        params = EcmParams(r0=0.07, rp=0.04, cp=1000.0)
        base = default_lifepo4_curve()
        inner = (base.knot_soc >= lo) & (base.knot_soc <= hi)
        partial = OcvCurve(base.knot_soc[inner], base.knot_ocv[inner])
        if kind == "random-walk":  # steps of 0.2 A, clipped to +-amp
            steps = np.random.default_rng(seed).normal(0.0, 0.2, 240)
            current = np.clip(np.cumsum(steps), -amp, amp)
        else:
            current = np.full(240, amp if kind == "discharge" else -amp)
        with mock.patch.multiple(ecm, CUTOFF_LOW_V=0.0, CUTOFF_HIGH_V=10.0):
            trace = measure(simulate_profile(BatteryState(start, 0.0), params,
                                             base, current, 1.0, 1.063),
                            0.001, 0.0, seed)
        bank = BankConfig(n=7, interval_len=20, spread=6.0)
        # every interval starts from the carried posterior x: its covariance
        # must stay finite
        with mock.patch.object(multimodel, "run_interval",
                               wraps=multimodel.run_interval) as spy:
            res = run_ammkf(trace,
                            KfState(BatteryState(min(max(start + error, 0.0),
                                                     1.0), 0.0),
                                    1e-2, 1e-4, self._noise,
                                    partial, 1.063),
                            params, bank, bank_noise=self._bank_noise)
        for call in spy.call_args_list:
            x = call.args[3]  # a phase-1 or a bank step, a plain tuple
            assert all(map(math.isfinite, x[2:5]))  # (p00, p01, p11)
        assert np.all(np.isfinite(res.soc))
        assert np.all((res.soc >= 0.0) & (res.soc <= 1.0))
        for d in res.diagnostics:
            assert 1 / bank.n - 1e-12 <= d.prob_max <= 1.0

    def test_diagnostics_cover_phase_two_intervals(self, params, base_curve):
        trace = self._trace(params, base_curve, n=1000)
        res = run_ammkf(trace, self._filter(base_curve), params,
                        BankConfig(n=7, interval_len=20, spread=6.0),
                        bank_noise=self._bank_noise)
        assert res.diagnostics
        for d in res.diagnostics:
            assert d.verdict in (NEGATIVE_G, POSITIVE_G, INDETERMINATE)
            assert 0 <= d.optimal_index < 7
            assert 1 / 7 - 1e-9 <= d.prob_max <= 1.0
            assert d.mode in (DISCHARGE, CHARGE)

    def test_diagnostics_row_reads_the_two_intervals_before_it(
            self, params, base_curve, monkeypatch):
        # row `interval=i` holds the statistics the bank read to pick
        # interval i's slopes: the CCM of intervals i-2 and i-1 and the
        # ACMs of interval i-1
        history, record = [], multimodel.interval_innovations

        def spy(steps):
            history.append(record(steps))
            return history[-1]

        monkeypatch.setattr(multimodel, "interval_innovations", spy)
        trace = self._trace(params, plateau_offset(base_curve, 0.02), n=1200)
        res = run_ammkf(trace, self._filter(base_curve), params,
                        BankConfig(n=7, interval_len=20, spread=6.0),
                        bank_noise=self._bank_noise)
        assert len(res.diagnostics) > 2 and len(history) == 1200 // 20
        for d in res.diagnostics:
            prev, curr = history[d.interval_index - 2:d.interval_index]
            ccm = float(np.mean(np.multiply(prev.values, curr.values)))
            assert repr((d.ccm, d.acm_emp, d.acm_theo)) == repr(
                (ccm, float(np.mean(np.square(curr.values))), curr.acm_theo))


class TestIntervalLoop:
    """The edges of `run_ammkf`'s interval loop, on scenario configs."""

    @staticmethod
    def _run(monkeypatch, cfg):
        """The scenario result and the `AmmkfResult` of its bank run."""
        results = []

        def spy(*args, **kwargs):
            results.append(run_ammkf(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(scenario, "run_ammkf", spy)
        res = run_scenario(cfg)
        [am] = results
        return res, am

    @pytest.mark.parametrize("extra", [{"r": 1e-9}, {"sigma_v": 0.01}])
    def test_phase_one_that_never_converges_is_the_plain_filter(
            self, monkeypatch, extra):
        # 20 whole intervals and a 10-sample tail, all on the plain filter
        cfg = ScenarioConfig(profile_steps=410, profile_target_ah=410 / 7200,
                             **extra)
        res, am = self._run(monkeypatch, cfg)
        assert len(res.trace) == 410
        assert am.convergence_step is None
        assert am.diagnostics == [] and am.corrected_points == []
        assert np.array_equal(res.soc_ammkf, res.soc_ekf)
        assert np.array_equal(am.soc, res.soc_ekf)

    def test_interval_indices_on_the_reference_config(self, monkeypatch):
        cfg = ScenarioConfig()
        res, am = self._run(monkeypatch, cfg)
        L = cfg.interval_len
        indices = [d.interval_index for d in am.diagnostics]
        assert indices == list(range(am.convergence_step // L,
                                     len(res.trace) // L))
        # every bank interval adds one corrected point per sample, in order
        assert [i for _, _, i in am.corrected_points] == \
            [i for i in indices for _ in range(L)]
