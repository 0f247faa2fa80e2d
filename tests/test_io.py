"""Profiles, metrics, trace/config serialization, scenario orchestration,
and the command-line interface."""

import csv
import io
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfpsoc import (BatteryState, KfState, NoiseConfig, OcvCurve,
                    ScenarioConfig, compute_metrics, curve_mae,
                    default_lifepo4_curve, generate_profile, load_scenario,
                    resolve_curves, run_ekf, run_scenario, run_sweep,
                    simulate_profile)
from lfpsoc.ekf import StepOutput, transition
from lfpsoc import cli
from lfpsoc.cli import main as cli_main
from lfpsoc.innovation import infer_error_sign
from lfpsoc.ecm import SimConfig, Trace
from lfpsoc.metrics import CONVERGENCE_THRESHOLD
from lfpsoc.profiles import ProfileConfigError
from lfpsoc import scenario
from lfpsoc.scenario import (ScenarioConfigError, config_value,
                             scenario_from_mapping,
                             write_artifacts, write_estimate_csv,
                             write_soc_csv)
from lfpsoc import traceio
from lfpsoc.traceio import (TraceFormatError, ingest_trace, read_config,
                            trace_key, write_config, write_lines, write_trace)


def _net_discharge_ah(profile, dt=1.0):
    return float(np.sum(profile) * dt / 3600.0)


class TestProfiles:
    def test_constant(self):
        p = generate_profile("constant", 50, amp=1.5)
        assert np.all(p == 1.5)
        assert _net_discharge_ah(p) == pytest.approx(1.5 * 50 / 3600.0)

    def test_pulse_alternates_with_rest(self):
        p = generate_profile("pulse", 120, amp=2.0)
        assert np.all(np.isin(p, [0.0, 2.0]))
        assert np.any(p == 0.0) and np.any(p == 2.0)

    def test_dst_like_hits_discharge_target(self):
        p = generate_profile("dst-like", 7200, dt=1.0, amp=1.0,
                             target_discharge_ah=1.063)
        assert _net_discharge_ah(p) == pytest.approx(1.063, rel=1e-9)
        assert np.any(p < 0)  # contains regenerative pulses

    def test_dst_like_partial_block_still_scaled(self):
        p = generate_profile("dst-like", 500, dt=1.0, target_discharge_ah=0.1)
        assert _net_discharge_ah(p) == pytest.approx(0.1, rel=1e-9)

    def test_random_walk_deterministic_per_seed(self):
        a = generate_profile("random-walk", 300, seed=5)
        b = generate_profile("random-walk", 300, seed=5)
        c = generate_profile("random-walk", 300, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.max(np.abs(a)) <= 1.0

    def test_bad_inputs(self):
        with pytest.raises(ProfileConfigError):
            generate_profile("constant", 0)
        with pytest.raises(ProfileConfigError):
            generate_profile("unknown-kind", 10)

    def test_random_walk_negative_amp_rejected(self):
        # np.clip to [1, -1] would give -1.0 everywhere, a constant charge
        with pytest.raises(ProfileConfigError,
                           match=r"^random-walk amp must be >= 0: -1\.0$"):
            generate_profile("random-walk", 10, amp=-1.0)

    @pytest.mark.parametrize("kind", ["constant", "pulse", "dst-like",
                                      "random-walk"])
    def test_samples_are_a_float_array(self, kind):
        # an int amp still gives floats: np.full would keep its int dtype
        p = generate_profile(kind, 400, amp=2)
        assert type(p) is np.ndarray and p.dtype == np.float64
        assert p.shape == (400,)

    @pytest.mark.parametrize("kind", ["constant", "pulse", "dst-like",
                                      "random-walk"])
    def test_non_finite_amp_rejected(self, kind):
        with pytest.raises(ProfileConfigError,
                           match="^profile must be non-empty and finite$"):
            generate_profile(kind, 400, amp=float("nan"),
                             target_discharge_ah=0.1)


class TestMetrics:
    def test_constant_bias(self):
        est = np.full(100, 0.51)
        truth = np.full(100, 0.50)
        m = compute_metrics(est, truth)
        assert m.rmse == pytest.approx(0.01, abs=1e-12)
        assert m.mae == pytest.approx(0.01, abs=1e-12)
        assert m.max_abs_error == pytest.approx(0.01, abs=1e-12)
        assert m.convergence_time_s == 0.0

    def test_convergence_time(self):
        err = np.concatenate([np.full(30, 0.2), np.full(70, 0.01)])
        m = compute_metrics(0.5 + err, np.full(100, 0.5), dt=2.0)
        assert m.convergence_time_s == pytest.approx(60.0)

    def test_never_converges(self):
        err = np.full(50, 2 * CONVERGENCE_THRESHOLD)
        m = compute_metrics(0.5 + err, np.full(50, 0.5))
        assert m.convergence_time_s is None

    def test_final_quarter(self):
        est = np.concatenate([np.full(75, 1.0), np.full(25, 0.52)])
        m = compute_metrics(est, np.full(100, 0.5))
        assert m.final_quarter_rmse == pytest.approx(0.02, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics(np.zeros(3), np.zeros(4))

    @given(st.lists(st.floats(-0.2, 0.2), min_size=4, max_size=40),
           st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_rmse_mae_permutation_invariant(self, errors, rnd):
        truth = np.full(len(errors), 0.5)
        est = truth + np.array(errors)
        base = compute_metrics(est, truth)
        perm = list(range(len(errors)))
        rnd.shuffle(perm)
        shuffled = compute_metrics(est[perm], truth)
        assert shuffled.rmse == pytest.approx(base.rmse, abs=1e-12)
        assert shuffled.mae == pytest.approx(base.mae, abs=1e-12)
        assert shuffled.max_abs_error == pytest.approx(base.max_abs_error)


class TestCurveMae:
    TRUE = OcvCurve(np.array([0.2, 0.4]), np.array([3.20, 3.30]))
    FILTER = OcvCurve(np.array([0.2, 0.4]), np.array([3.21, 3.31]))

    @pytest.mark.parametrize("points", [[], [(0.1, 3.2, 0), (0.5, 3.3, 1)]],
                             ids=["no-points", "outside"])
    def test_no_point_inside_the_true_domain(self, points):
        assert curve_mae(points, self.TRUE, self.FILTER) is None

    def test_points_outside_the_true_domain_are_left_out(self):
        points = [(0.3, 3.252, 7), (0.1, 9.0, 7), (0.4, 3.296, 8)]
        corrected, original = curve_mae(points, self.TRUE, self.FILTER)
        assert corrected == pytest.approx(0.003, abs=1e-12)
        assert original == pytest.approx(0.01, abs=1e-12)

    def test_headline_run(self):
        res = run_scenario(ScenarioConfig())
        corrected, original = curve_mae(res.corrected_points, res.true_curve,
                                        res.filter_curve)
        assert (f"{corrected * 1e3:.2f}", f"{original * 1e3:.2f}") == \
            ("2.61", "16.02")


def _small_trace(params, curve, n=120, sigma=0.0):
    cfg = SimConfig(capacity_ah=1.063, dt=1.0, voltage_noise_sigma=sigma,
                    rng_seed=1)
    prof = generate_profile("dst-like", n, seed=1, target_discharge_ah=0.01)
    return simulate_profile(BatteryState(0.6, 0.0), params, curve,
                            prof, cfg)


_H = "t,current_a,voltage_v"
_HT = _H + ",true_soc,true_up_v"
_NAN = float("nan")

# trace CSV text -> what ingest_trace gives: (t, current_a, voltage_v,
# true_soc, true_up_v), or the TraceFormatError text with {path} for the file
INGEST_CASES = {
    "blank-lines": (f"{_H}\n\n0,1.0,3.3\n\n1,1.5,3.29\n\n",
                    ([0.0, 1.0], [1.0, 1.5], [3.3, 3.29], None, None)),
    "whitespace-line": (f"{_H}\n0,1.0,3.3\n   \n1,1.5,3.29\n",
                        "{path}:3: malformed row ['   ']"),
    "empty-truth-cells": (f"{_HT}\n0,1.0,3.3,0.5,0.01\n1,1.0,3.29,,\n"
                          "2,1.0,3.28,0.49,0.02\n",
                          ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0],
                           [3.3, 3.29, 3.28], [0.5, _NAN, 0.49],
                           [0.01, _NAN, 0.02])),
    "short-truth-rows": (f"{_HT}\n0,1.0,3.3,0.5,0.01\n1,1.0,3.29\n"
                         "2,1.0,3.28,0.49\n",
                         ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0],
                          [3.3, 3.29, 3.28], [0.5, _NAN, _NAN],
                          [0.01, _NAN, _NAN])),
    "empty-up-cell": (f"{_HT}\n0,1.0,3.3,0.5,0.01\n1,1.0,3.29,0.49,\n"
                      "2,1.0,3.28,0.48,0.03\n",
                      ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0],
                       [3.3, 3.29, 3.28], [0.5, _NAN, 0.48],
                       [0.01, _NAN, 0.03])),
    "all-nan-truth": (f"{_HT}\n0,1.0,3.3,nan,nan\n1,1.0,3.29,nan,0.1\n",
                      ([0.0, 1.0], [1.0, 1.0], [3.3, 3.29], None, None)),
    "all-inf-truth": (f"{_HT}\n0,1.0,3.3,inf,0.01\n1,1.0,3.29,-inf,0.02\n"
                      "2,1.0,3.28,nan,0.03\n",
                      ([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], [3.3, 3.29, 3.28],
                       None, None)),
    "reordered-extra-columns": (
        "voltage_v,note,t,true_up_v,current_a,true_soc,extra\n"
        "3.3,7,0,0.01,1.0,0.5,x\n3.29,8,1,0.02,-1.5,0.49,y\n",
        ([0.0, 1.0], [1.0, -1.5], [3.3, 3.29], [0.5, 0.49], [0.01, 0.02])),
    "spaced-header": (" t , current_a ,voltage_v \n0,1,3.3\n1,1,3.29\n",
                      ([0.0, 1.0], [1.0, 1.0], [3.3, 3.29], None, None)),
    "quoted-cells": (f'{_HT}\n"0","1.0",3.3,"0.5",0.01\n'
                     f'1,1.0,"3.29",0.49,"0.02"\n',
                     ([0.0, 1.0], [1.0, 1.0], [3.3, 3.29], [0.5, 0.49],
                      [0.01, 0.02])),
    "bad-cell-after-blank": (f"{_H}\n0,1,3.3\n\n1,x,3.29\n",
                             "{path}:4: malformed row ['1', 'x', '3.29']"),
    "non-finite-after-blank": (
        f"{_H}\n0,1,3.3\n\n1,inf,3.29\n2,1,3.28\n",
        "{path}:4: non-finite t, current_a or voltage_v [1.0, inf, 3.29]"),
    # numpy's float parse strips a trailing \x1f, float() does not
    "unit-separator": (f"{_H}\n0,1,3.3\x1f\n1,1,3.29\n",
                       "{path}:2: malformed row ['0', '1', '3.3\\x1f']"),
    "header-only": (f"{_HT}\n", "{path}: need at least 2 samples"),
}


def _bits(values) -> bytes | None:
    return None if values is None else np.asarray(values, float).tobytes()


class TestTraceIo:
    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("case", sorted(INGEST_CASES))
    def test_ingest_outcome_is_pinned(self, tmp_path, case, eol):
        text, expected = INGEST_CASES[case]
        p = tmp_path / "trace.csv"
        with open(p, "w", newline="") as fh:
            fh.write(text.replace("\n", eol))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(TraceFormatError) as exc:
                    ingest_trace(p)
                assert str(exc.value) == expected.format(path=p)
                return
            back = ingest_trace(p)
        got = (back.t, back.current_a, back.voltage_v, back.true_soc,
               back.true_up_v)
        assert [_bits(g) for g in got] == [_bits(w) for w in expected]

    def test_well_formed_file_skips_the_row_loop(self, params, base_curve,
                                                 tmp_path, monkeypatch):
        p = tmp_path / "trace.csv"
        write_trace(_small_trace(params, base_curve), p)
        rows = ingest_trace(p)

        def no_row_loop(path):
            raise AssertionError("row loop ran")

        monkeypatch.setattr(traceio, "_parse_rows", no_row_loop)
        cols = ingest_trace(p)
        for name in ("t", "current_a", "voltage_v", "true_soc", "true_up_v"):
            assert _bits(getattr(cols, name)) == _bits(getattr(rows, name))

    def test_truthless_trace_round_trips_by_columns(self, params, base_curve,
                                                     tmp_path, monkeypatch):
        full = _small_trace(params, base_curve)
        p = tmp_path / "trace.csv"
        write_trace(Trace(full.t, full.current_a, full.voltage_v), p)
        with open(p, newline="") as fh:
            assert fh.readline() == _H + "\r\n"

        def no_row_loop(path):
            raise AssertionError("row loop ran")

        monkeypatch.setattr(traceio, "_parse_rows", no_row_loop)
        back = ingest_trace(p)
        for name in ("t", "current_a", "voltage_v"):
            assert _bits(getattr(back, name)) == _bits(getattr(full, name))
        assert back.true_soc is None and back.true_up_v is None

    @given(header=st.sampled_from(
               [_H, _HT, "voltage_v,x,t,true_up_v,current_a,true_soc"]),
           eol=st.sampled_from(["\n", "\r\n", "\r"]), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_column_parse_agrees_with_the_row_loop(self, tmp_path_factory,
                                                   header, eol, data):
        # the row loop is the reference: whatever the column parse accepts,
        # the loop accepts with the same bits. Rows of float cells, with a
        # few cells swapped for odd ones (None drops the cell)
        n = header.count(",") + 1
        rows = data.draw(st.lists(st.lists(st.floats().map(repr), min_size=n,
                                           max_size=n), max_size=6))
        odd = st.sampled_from([None, "", " ", "x", "1_0", '"2.5"', " 3 ",
                               "1e999", "-0.0", "\x1f4", "\xa05", "٥"])
        for r, c, cell in data.draw(st.lists(st.tuples(
                st.integers(0, 5), st.integers(0, n), odd), max_size=2)):
            if r < len(rows):
                rows[r][c:c + 1] = [] if cell is None else [cell]
        p = tmp_path_factory.mktemp("parity") / "trace.csv"
        with open(p, "w", newline="") as fh:
            fh.write(eol.join([header, *map(",".join, rows)]) + eol)
        cols = traceio._parse_columns(p)
        if cols is not None:
            ref = traceio._parse_rows(p)
            assert _bits(cols) == _bits(ref[:, :cols.shape[1]])

    @given(n=st.integers(2, 25), t0=st.floats(-1e5, 1e5),
           dt=st.floats(1e-2, 1e3), truth=st.booleans(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_write_ingest_roundtrip_is_bit_identical(self, tmp_path_factory,
                                                     n, t0, dt, truth, data):
        edge = st.sampled_from([-0.0, 5e-324, -2.5e-320, 1e308, -1e308])
        finite = st.one_of(edge, st.floats(allow_nan=False,
                                           allow_infinity=False))
        column = st.lists(finite, min_size=n, max_size=n)
        maybe_nan = st.lists(st.one_of(finite, st.just(_NAN)), min_size=n,
                             max_size=n)
        trace = Trace(t0 + dt * np.arange(n), np.array(data.draw(column)),
                      np.array(data.draw(column)), dt=dt)
        if truth:
            trace.true_soc = np.array(data.draw(maybe_nan))
            trace.true_up_v = np.array(data.draw(maybe_nan))
        p = tmp_path_factory.mktemp("roundtrip") / "trace.csv"
        write_trace(trace, p)
        back = ingest_trace(p)
        for name in ("t", "current_a", "voltage_v"):
            assert _bits(getattr(back, name)) == _bits(getattr(trace, name))
        if not truth or np.all(np.isnan(trace.true_soc)):
            assert back.true_soc is None and back.true_up_v is None
        else:
            assert _bits(back.true_soc) == _bits(trace.true_soc)
            assert _bits(back.true_up_v) == _bits(trace.true_up_v)

    def test_roundtrip_with_truth(self, params, base_curve, tmp_path):
        trace = _small_trace(params, base_curve)
        p = tmp_path / "trace.csv"
        write_trace(trace, p)
        back = ingest_trace(p)
        assert np.allclose(back.t, trace.t, atol=0)
        assert np.allclose(back.current_a, trace.current_a, atol=0)
        assert np.allclose(back.voltage_v, trace.voltage_v, atol=0)
        assert np.allclose(back.true_soc, trace.true_soc, atol=0)
        assert np.allclose(back.true_up_v, trace.true_up_v, atol=0)
        assert back.dt == trace.dt

    def test_truth_columns_optional(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t,current_a,voltage_v\n0,1.0,3.3\n1,1.0,3.29\n")
        back = ingest_trace(p)
        assert back.true_soc is None
        assert len(back) == 2

    def test_missing_required_column(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t,voltage_v\n0,3.3\n1,3.29\n")
        with pytest.raises(TraceFormatError, match="current_a"):
            ingest_trace(p)

    def test_malformed_row_reports_line(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t,current_a,voltage_v\n0,1.0,3.3\n1,oops,3.29\n")
        with pytest.raises(TraceFormatError, match="3"):
            ingest_trace(p)

    @pytest.mark.parametrize("row", ["2,1.0,nan", "2,inf,3.28",
                                     "nan,1.0,3.28", "2,1.0,-Infinity"])
    def test_non_finite_sample_reports_line(self, tmp_path, row):
        p = tmp_path / "trace.csv"
        p.write_text(f"t,current_a,voltage_v\n0,1.0,3.3\n1,1.0,3.29\n{row}\n"
                     "3,1.0,3.27\n")
        with pytest.raises(TraceFormatError, match=r"csv:4: non-finite"):
            ingest_trace(p)

    def test_nan_truth_columns_allowed(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t,current_a,voltage_v,true_soc,true_up_v\n"
                     "0,1.0,3.3,nan,nan\n1,1.0,3.29,,\n2,1.0,3.28,0.5,0.0\n")
        back = ingest_trace(p)
        assert len(back) == 3 and back.true_soc[2] == 0.5

    def test_non_monotone_time_rejected(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t,current_a,voltage_v\n0,1,3.3\n2,1,3.29\n1,1,3.28\n")
        with pytest.raises(TraceFormatError, match="increasing"):
            ingest_trace(p)

    def test_zero_order_hold_resampling(self, tmp_path):
        # gaps of 1 s and 5 s: resampled to the smallest observed step
        p = tmp_path / "trace.csv"
        p.write_text("t,current_a,voltage_v\n"
                     "0,1.0,3.30\n1,2.0,3.29\n6,3.0,3.28\n")
        with pytest.warns(UserWarning,
                          match="^resampling .*: 7 samples from 3$"):
            back = ingest_trace(p)
        assert back.dt == 1.0
        assert len(back) == 7
        assert np.array_equal(back.current_a,
                              [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 3.0])

    def test_strict_rejects_non_uniform(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t,current_a,voltage_v\n"
                     "0,1.0,3.30\n1,2.0,3.29\n6,3.0,3.28\n")
        with pytest.raises(TraceFormatError, match="strict"):
            ingest_trace(p, strict=True)

    @staticmethod
    def _epoch_clock(path, jitter=0.0):
        """600 samples of a 0.1 s clock from 1.7e9 s, `t` written to 15
        significant digits as lfpsoc writes it, `jitter` s added to one."""
        t = 1700000000 + np.arange(600) / 10
        t[300] += jitter
        path.write_text("t,current_a,voltage_v\n"
                        + "".join(f"{v:.15g},0.5,3.3\n" for v in t))

    def test_epoch_clock_is_uniform_under_strict(self, tmp_path):
        # each parsed t is off by up to half its float spacing, 1.2e-7 s
        # here: far above a fixed 1e-9 s tolerance
        p = tmp_path / "trace.csv"
        self._epoch_clock(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = ingest_trace(p, strict=True)
        assert len(back) == 600
        assert abs(back.dt - 0.1) <= np.spacing(1.7e9)

    @pytest.mark.parametrize("t0", [0, 1700000000])
    def test_resampled_gap_keeps_the_samples_grid(self, tmp_path, t0):
        # a 0.1 s clock missing sample 300, with current = sample index:
        # each grid point holds the last sample at or before it, and the
        # grid ends on the last sample's own t
        t = t0 + np.arange(600) / 10
        p = tmp_path / "trace.csv"
        p.write_text("t,current_a,voltage_v\n" + "".join(
            f"{t[k]:.15g},{k},3.3\n" for k in range(600) if k != 300))
        with pytest.warns(UserWarning, match="resampling"):
            back = ingest_trace(p)
        assert len(back) == 600
        assert back.current_a[:5].tolist() == [0, 1, 2, 3, 4]
        assert back.current_a[298:303].tolist() == [298, 299, 299, 301, 302]
        assert back.current_a[-3:].tolist() == [597, 598, 599]
        assert f"{back.t[-1]:.15g}" == f"{t[-1]:.15g}"
        assert back.t[0] == t[0]
        assert abs(back.dt - 0.1) <= 1e-9

    def test_epoch_clock_with_jitter_rejected(self, tmp_path):
        p = tmp_path / "trace.csv"
        self._epoch_clock(p, jitter=0.05)
        with pytest.raises(TraceFormatError, match="strict"):
            ingest_trace(p, strict=True)

    @given(rows=st.lists(st.lists(st.text(st.characters(
        blacklist_characters=',"\r\n', blacklist_categories=("Cs",))),
        min_size=2, max_size=5), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_write_lines_matches_csv_writer(self, tmp_path_factory, rows):
        header = ["a", "b"]
        p = tmp_path_factory.mktemp("lines") / "out.csv"
        write_lines(p, header, (",".join(row) for row in rows))
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        assert p.read_bytes() == buf.getvalue().encode()

    @pytest.mark.parametrize("count", [
        0, 1, traceio.CHUNK_LINES - 1, traceio.CHUNK_LINES,
        traceio.CHUNK_LINES + 1, 2 * traceio.CHUNK_LINES + 1])
    def test_write_lines_matches_csv_writer_at_chunk_boundaries(
            self, tmp_path, count):
        header = ["k", "label"]
        rows = [[str(k), f"row {k}"] for k in range(count)]
        p = tmp_path / "out.csv"
        write_lines(p, header, (",".join(row) for row in rows))
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        assert p.read_bytes() == buf.getvalue().encode()

    @given(est=st.lists(st.floats(-1e300, 1e300), max_size=30),
           t0=st.floats(-1e6, 1e6), dt=st.floats(1e-3, 1e3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_soc_csv_matches_csv_writer(self, tmp_path_factory, est, t0, dt,
                                        data):
        truth = data.draw(st.lists(st.one_of(st.floats(-1e300, 1e300),
                                             st.just(_NAN)),
                                   min_size=len(est), max_size=len(est)))
        est, truth = np.array(est), np.array(truth)
        t = t0 + np.arange(len(est)) * dt
        p = tmp_path_factory.mktemp("soc") / "soc.csv"
        write_soc_csv(p, t, est, truth)
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "soc", "true_soc", "error"])
        for tk, e, s in zip(t, est, truth):
            w.writerow([f"{tk:.15g}", f"{e:.9f}", f"{s:.9f}",
                        f"{e - s:.9f}"])
        assert p.read_bytes() == buf.getvalue().encode()

    @given(steps=st.lists(st.tuples(*[st.floats()] * 5), max_size=30),
           t0=st.floats(-1e6, 1e6), dt=st.floats(1e-3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_estimate_csv_matches_csv_writer(self, tmp_path_factory, steps,
                                             t0, dt):
        outs = [StepOutput(soc, up, p00, 0.0, p11, innovation, 1.0, 0.0,
                           False, 0.0)
                for soc, up, p00, p11, innovation in steps]
        t = t0 + np.arange(len(outs)) * dt
        p = tmp_path_factory.mktemp("est") / "estimate_ekf.csv"
        write_estimate_csv(p, t, outs)
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "soc_est", "up_est", "innovation_v", "p00", "p11"])
        for tk, o in zip(t, outs):
            w.writerow([f"{tk:.15g}", f"{o.soc:.9f}", f"{o.up:.9f}",
                        f"{o.innovation:.9e}", f"{o.p00:.9e}",
                        f"{o.p11:.9e}"])
        assert p.read_bytes() == buf.getvalue().encode()

    def test_config_roundtrip(self, tmp_path):
        p = tmp_path / "cfg.txt"
        write_config({"a": 1, "b": "x"}, p)
        assert read_config(p) == {"a": "1", "b": "x"}

    def test_config_comments_and_errors(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("# comment\nkey = value # trailing\n\nbroken line\n")
        with pytest.raises(ValueError, match="4"):
            read_config(p)
        p.write_text("# only\nkey = value\n")
        assert read_config(p) == {"key": "value"}

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        # a comment starts at a '#' that begins a line or follows whitespace
        p = tmp_path / "cfg.txt"
        p.write_text("  # indented\na=x#1\nb = y#2 # note\nc=z\t#tab\n")
        assert read_config(p) == {"a": "x#1", "b": "y#2", "c": "z"}

    def test_curve_path_with_hash_survives_config_and_manifest(self,
                                                              tmp_path):
        # such a path was cut at its '#': the run read /x/cur, not the curve
        curve_path = tmp_path / "cur#v" / "c.csv"
        curve_path.parent.mkdir()
        default_lifepo4_curve().to_csv(curve_path)
        p = tmp_path / "cfg.txt"
        p.write_text(f"filter_curve={curve_path} # the default curve\n")
        cfg = load_scenario(p)
        assert cfg.filter_curve == str(curve_path)
        assert np.array_equal(resolve_curves(cfg)[1].knot_ocv,
                              default_lifepo4_curve().knot_ocv)
        manifest = tmp_path / "run-manifest.txt"
        scenario.write_manifest(manifest, cfg)
        assert load_scenario(manifest) == cfg


class TestScenarioConfig:
    def test_mapping_types(self):
        cfg = scenario_from_mapping({"profile_steps": "600", "sigma_v": "0.003",
                                     "identify_online": "yes",
                                     "true_curve": "default"})
        assert cfg.profile_steps == 600
        assert cfg.sigma_v == 0.003
        assert cfg.identify_online is True
        assert cfg.true_curve == "default"

    @pytest.mark.parametrize("value", [
        "c #1/curve.csv", " lead.csv", "tab\t#x.csv", "a\nb.csv"])
    def test_value_a_config_file_cannot_hold_names_its_key(self, value):
        # its manifest would load back as another value, or not at all
        with pytest.raises(ScenarioConfigError, match=re.escape(
                f"filter_curve: a config file cannot hold {value!r}")):
            ScenarioConfig(filter_curve=value)
        assert ScenarioConfig(filter_curve="c#1/curve.csv").filter_curve \
            == "c#1/curve.csv"

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioConfigError, match="unknown"):
            scenario_from_mapping({"not_a_key": "1"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ScenarioConfigError, match="boolean"):
            scenario_from_mapping({"identify_online": "maybe"})

    @pytest.mark.parametrize("key, value", [
        ("initial_soc_error", np.nan), ("capacity_ah", np.inf),
        ("sigma_v", np.nan), ("sigma_i", np.nan), ("q00", -np.inf),
        ("bank_q11", np.nan)])
    def test_non_finite_number_rejected(self, key, value):
        # initial_soc_error=nan once started both estimators at SOC 0, and
        # capacity_ah=inf froze the SOC
        with pytest.raises(ScenarioConfigError,
                           match=f"^{key}: not a finite number"):
            ScenarioConfig(**{key: value})
        with pytest.raises(ScenarioConfigError, match=f"^{key}: "):
            scenario_from_mapping({key: str(value)})

    @pytest.mark.parametrize("key", ["p0_soc", "p0_up"])
    @pytest.mark.parametrize("value", [-1.0, -1e-12])
    def test_negative_initial_covariance_rejected(self, key, value):
        # -1 once failed the filter's first step; -1e-12 ran on a covariance
        # that is not positive semidefinite
        with pytest.raises(ScenarioConfigError,
                           match=f"^{key}: must be >= 0: "):
            ScenarioConfig(**{key: value})
        with pytest.raises(ScenarioConfigError, match=f"^{key}: "):
            scenario_from_mapping({key: str(value)})

    def test_zero_initial_covariance_accepted(self):
        cfg = ScenarioConfig(p0_soc=0.0, p0_up=0.0)
        assert cfg.estimator_start()[1:] == (0.0, 0.0)

    def test_non_finite_config_line_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "cfg.txt", sigma_v="nan")
        out = tmp_path / "sim"
        assert cli_main(["--config", cfg, "--out", str(out), "simulate"]) == 2
        assert capsys.readouterr().err == \
            "error: sigma_v: not a finite number: nan\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, raw, value", [
        ("n", "3", 3), ("seed", " 7", 7), ("interval_len", "25", 25),
        ("profile_kind", "random-walk", "random-walk"),
        ("identify_online", "1", True), ("identify_online", "No", False),
        ("sigma_v", "0.003", 0.003), ("r0", "1e-2", 0.01)])
    def test_config_value_types_from_the_default(self, key, raw, value):
        parsed = config_value(key, raw)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("key, raw, message", [
        ("n", "3.0", "n: not an integer: '3.0'"),
        ("sigma_v", "x", "sigma_v: not a number: 'x'"),
        ("identify_online", "1.0", "identify_online: not a boolean: '1.0'"),
        ("nope", "1", "unknown config key: 'nope'")])
    def test_config_value_names_the_key(self, key, raw, message):
        with pytest.raises(ScenarioConfigError, match=f"^{re.escape(message)}$"):
            config_value(key, raw)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("profile_steps=500\nseed=7\n")
        cfg = load_scenario(p)
        assert cfg.profile_steps == 500 and cfg.seed == 7

    def test_resolve_offset_true_curve(self):
        cfg = ScenarioConfig(true_curve="offset:-0.02:0.2:0.8:0.15",
                             filter_curve="default")
        true_c, filt_c = resolve_curves(cfg)
        assert true_c.ocv(0.5) - filt_c.ocv(0.5) == pytest.approx(-0.02)
        assert true_c.ocv(0.05) - filt_c.ocv(0.05) == pytest.approx(0.0)

    def test_resolve_offset_filter_curve(self):
        cfg = ScenarioConfig(true_curve="default",
                             filter_curve="offset:0.02")
        true_c, filt_c = resolve_curves(cfg)
        assert filt_c.ocv(0.5) - true_c.ocv(0.5) == pytest.approx(0.02)

    def test_both_offsets_rejected(self):
        # the config refuses them when built, before any curve is resolved
        with pytest.raises(ScenarioConfigError):
            cfg = ScenarioConfig(true_curve="offset:0.02",
                                 filter_curve="offset:-0.02")
            resolve_curves(cfg)

    def test_curve_from_csv_path(self, tmp_path, base_curve):
        p = tmp_path / "curve.csv"
        base_curve.to_csv(p)
        cfg = ScenarioConfig(true_curve=str(p), filter_curve=str(p))
        true_c, filt_c = resolve_curves(cfg)
        assert np.array_equal(true_c.knot_ocv, filt_c.knot_ocv)

    def test_bad_offset_spec(self, tmp_path, capsys):
        # extra numbers, lo >= hi, ramp <= 0 and non-finite numbers are
        # named in the error, and the CLI exits 2 without writing a trace
        for spec in ("offset:x", "offset:0.02:0.2:0.8:0.15:9",
                     "offset:0.02:0.8:0.2:0.1", "offset:0.02:0.2:0.8:0",
                     "offset:0.02:0.2:0.8:-0.1", "offset:inf", "offset:nan",
                     "offset:0.02:0.2:0.8"):
            cfg = ScenarioConfig(true_curve=spec, filter_curve="default")
            with pytest.raises(ScenarioConfigError, match=re.escape(spec)):
                resolve_curves(cfg)
            path = _write_cfg(tmp_path / "cfg.txt", true_curve=spec)
            out = tmp_path / "sim"
            assert cli_main(["--config", path, "--out", str(out),
                             "simulate"]) == 2
            assert repr(spec) in capsys.readouterr().err
            assert not out.exists()


_FAST = dict(profile_steps=1500, profile_target_ah=0.25, sigma_v=0.001)


class TestRunScenario:
    def test_consistent_model_both_accurate(self):
        cfg = ScenarioConfig(true_curve="default", filter_curve="default",
                             **_FAST)
        res = run_scenario(cfg)
        assert res.metrics["ekf-baseline"].rmse < 0.005
        assert res.metrics["ammkf"].rmse < 0.005

    def test_offset_scenario_ordering(self):
        cfg = ScenarioConfig(profile_steps=4000, profile_target_ah=0.6,
                             sigma_v=0.001)
        res = run_scenario(cfg)
        assert res.metrics["ammkf"].rmse < res.metrics["ekf-baseline"].rmse

    def test_deterministic(self):
        cfg = ScenarioConfig(true_curve="default", filter_curve="default",
                             **_FAST)
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert np.array_equal(a.soc_ammkf, b.soc_ammkf)
        assert np.array_equal(a.soc_ekf, b.soc_ekf)
        assert np.array_equal(a.trace.voltage_v, b.trace.voltage_v)

    def test_online_identification_runs(self):
        cfg = ScenarioConfig(true_curve="default", filter_curve="default",
                             identify_online=True, **_FAST)
        res = run_scenario(cfg)
        assert res.metrics["ammkf"].rmse < 0.02

    @pytest.mark.parametrize("online", [False, True])
    def test_estimator_inputs_build_the_callers_filter(self, online):
        # the one filter that run_scenario, estimate and analyze pass to both
        # estimators is the one each of them once built from the config
        cfg = ScenarioConfig(identify_online=online)
        trace = run_scenario(replace(cfg, **_FAST)).trace
        _, curve = resolve_curves(cfg)
        filt, params = scenario.estimator_inputs(cfg, trace, curve)
        built = KfState(*cfg.estimator_start(), cfg.filter_noise(), curve,
                        cfg.capacity_ah)
        assert filt.start() == built.start() == (0.95, 0.0, 1e-4, 0.0, 1e-4)
        assert filt.noise == built.noise == NoiseConfig(1e-7, 1e-6, 1e-6)
        assert filt.curve is curve
        assert filt.capacity_ah == cfg.capacity_ah
        if online:
            assert len(params) == len(trace)
        else:
            assert params == cfg.ecm_params()

    @pytest.mark.parametrize("curves", [
        {}, {"true_curve": "default", "filter_curve": "volts:0.01"}],
        ids=["default", "filter-transform"])
    def test_simulate_gives_run_scenarios_trace(self, curves):
        # scenario.simulate is the one place a config becomes a trace
        cfg = ScenarioConfig(**curves)
        trace, true_curve, filter_curve = scenario.simulate(cfg)
        ran = run_scenario(cfg).trace
        for name in ("t", "current_a", "voltage_v", "true_soc", "true_up_v"):
            assert _bits(getattr(trace, name)) == _bits(getattr(ran, name))
        assert (trace.dt, trace.cutoff_index, trace.cutoff_v,
                trace.clamp_steps) == \
            (ran.dt, ran.cutoff_index, ran.cutoff_v, ran.clamp_steps)
        for got, want in zip((true_curve, filter_curve), resolve_curves(cfg)):
            assert _bits(got.knot_soc) == _bits(want.knot_soc)
            assert _bits(got.knot_ocv) == _bits(want.knot_ocv)
        # without current noise the measured current is the clean profile
        profile = generate_profile(cfg.profile_kind, cfg.profile_steps,
                                   dt=cfg.dt, seed=cfg.seed,
                                   amp=cfg.profile_amp,
                                   target_discharge_ah=cfg.profile_target_ah)
        assert _bits(profile) == _bits(trace.current_a)

    def test_each_caller_simulates_once(self, tmp_path, monkeypatch):
        calls, profiles = [], []
        simulate, generate = scenario.simulate, scenario.generate_profile

        def spy(cfg):
            calls.append(cfg)
            return simulate(cfg)

        def counted(*args, **kwargs):
            profiles.append(args)
            return generate(*args, **kwargs)

        for module in (scenario, cli):
            monkeypatch.setattr(module, "simulate", spy)
        monkeypatch.setattr(scenario, "generate_profile", counted)
        path = _write_cfg(tmp_path / "cfg.txt", profile_steps=200,
                          profile_target_ah=0.02)
        cfg = load_scenario(path)
        assert cli_main(["--config", path, "--out", str(tmp_path / "sim"),
                         "simulate"]) == 0
        assert (calls, len(profiles)) == ([cfg], 1)
        run_scenario(cfg)
        assert (calls, len(profiles)) == ([cfg, cfg], 2)
        # the cutoff refusal reads the voltage the simulator kept
        cut = replace(cfg, profile_steps=30, profile_target_ah=1.0)
        with pytest.raises(ScenarioConfigError,
                           match=r"crossed ecm\.CUTOFF_LOW_V 2\.0 V"):
            run_scenario(cut)
        assert (calls, len(profiles)) == ([cfg, cfg, cut], 3)

    def test_artifacts_written(self, tmp_path):
        cfg = ScenarioConfig(**_FAST)
        out = tmp_path / "run"
        run_scenario(cfg, str(out))
        expected = {"trace.csv", "soc_ekf.csv", "soc_ammkf.csv",
                    "corrected_osc.csv", "diagnostics.csv", "metrics.csv",
                    "true_curve.csv", "filter_curve.csv", "run-manifest.txt"}
        assert expected <= set(os.listdir(out))
        with open(out / "soc_ammkf.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,soc,true_soc,error"
        with open(out / "diagnostics.csv") as fh:
            header = fh.readline().strip()
        assert header.startswith("interval,ccm,acm_emp,acm_theo,verdict")
        back = ingest_trace(out / "trace.csv")
        assert len(back) == cfg.profile_steps

    def test_sweep_directories_and_overrides(self, tmp_path):
        cfg = ScenarioConfig(true_curve="default", filter_curve="default",
                             profile_steps=400, profile_target_ah=0.05,
                             sigma_v=0.001)
        results = run_sweep(cfg, [{"sigma_v": 0.001}, {"sigma_v": 0.003}],
                            str(tmp_path))
        assert len(results) == 2
        assert results[0].config.sigma_v == 0.001
        assert results[1].config.sigma_v == 0.003
        assert (tmp_path / "run-000" / "metrics.csv").exists()
        assert (tmp_path / "run-001" / "metrics.csv").exists()

    @pytest.mark.parametrize("key, values, formatted", [
        ("initial_soc_error", [-0.1, 0.0, 0.1], 1),  # estimator only
        ("q00", [1e-7, 1e-8], 1),
        ("seed", [1, 2, 3], 3),  # each run its own trace
        ("sigma_v", [0.001, 0.002], 2)])
    def test_sweep_formats_each_distinct_trace_once(self, tmp_path,
                                                    monkeypatch, key, values,
                                                    formatted):
        calls = []

        def counted(trace, path):
            calls.append(path)
            write_trace(trace, path)

        monkeypatch.setattr(scenario, "write_trace", counted)
        cfg = ScenarioConfig(profile_steps=200, profile_target_ah=0.02)
        results = run_sweep(cfg, [{key: v} for v in values],
                            str(tmp_path / "sw"))
        assert len(calls) == formatted
        for i, res in enumerate(results):
            write_trace(res.trace, tmp_path / "own.csv")
            assert (tmp_path / "sw" / f"run-{i:03d}" / "trace.csv"
                    ).read_bytes() == (tmp_path / "own.csv").read_bytes()

    def test_traces_differing_in_a_signed_zero_are_both_formatted(
            self, tmp_path):
        res = run_scenario(ScenarioConfig(profile_steps=200,
                                          profile_target_ah=0.02))
        t = res.trace.t.copy()
        assert t[0] == 0.0 and repr(float(t[0])) == "0.0"
        t[0] = -0.0
        flipped = replace(res, trace=replace(res.trace, t=t))
        assert np.array_equal(flipped.trace.t, res.trace.t)
        assert trace_key(flipped.trace) != trace_key(res.trace)
        traces = {}
        write_artifacts(res, str(tmp_path / "a"), traces)
        write_artifacts(flipped, str(tmp_path / "b"), traces)
        write_trace(flipped.trace, tmp_path / "own.csv")
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert b == (tmp_path / "own.csv").read_bytes()
        assert b != (tmp_path / "a" / "trace.csv").read_bytes()
        assert b.splitlines()[1].startswith(b"-0.0,")


def _write_cfg(path, **kv):
    base = dict(profile_steps=600, profile_target_ah=0.08, sigma_v=0.001)
    base.update(kv)
    with open(path, "w") as fh:
        for k, v in base.items():
            fh.write(f"{k}={v}\n")
    return str(path)


class TestCli:
    def test_scenario_prints_the_corrected_curve_mae(self, tmp_path, capsys):
        assert cli_main(["--out", str(tmp_path / "scen"), "scenario"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == \
            ["ekf-baseline", "ammkf", "corrected-curve MAE"]
        assert printed[2] == \
            "corrected-curve MAE: 2.61 mV (filter curve 16.02 mV off)"

    def test_scenario_without_bank_intervals_prints_no_mae(self, tmp_path,
                                                           capsys):
        # phase 1 never converges, so no bank interval corrects the curve
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=410,
                         profile_target_ah=410 / 7200,
                         sigma_v=ScenarioConfig().sigma_v, r=1e-9)
        assert cli_main(["--config", cfg, "--out", str(tmp_path / "scen"),
                         "scenario"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == \
            ["ekf-baseline", "ammkf"]

    def test_scenario_stopped_at_cutoff_names_it(self, tmp_path, capsys):
        # 1 Ah in 30 s draws about 120 A: the clean terminal voltage is below
        # the 2.0 V cutoff at the first sample, so the trace has 1 sample
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=30,
                         profile_target_ah=1.0)
        assert cli_main(["--config", cfg, "--out", str(tmp_path / "scen"),
                         "scenario"]) == 2
        err = capsys.readouterr().err
        assert "Trace.cutoff_index 0" in err
        assert "crossed ecm.CUTOFF_LOW_V 2.0 V" in err
        assert "leaving 1 samples where the bank needs 40" in err

    def test_scenario_stopped_at_high_cutoff_names_it(self, tmp_path, capsys):
        # a 1 A charge from a full cell: 3.6 V at SOC 1 plus R0*1 A is
        # above the 3.6 V cutoff at the first sample
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=100,
                         profile_kind="constant", profile_amp=-1,
                         initial_soc_true=1.0)
        assert cli_main(["--config", cfg, "--out", str(tmp_path / "scen"),
                         "scenario"]) == 2
        assert capsys.readouterr().err == (
            "error: the simulated trace stops at the voltage cutoff: at "
            "Trace.cutoff_index 0 the terminal voltage 3.67 V crossed "
            "ecm.CUTOFF_HIGH_V 3.6 V, leaving 1 samples where the bank needs "
            "40 (2*interval_len)\n")
        assert not (tmp_path / "scen").exists()

    def test_simulate_then_estimate_ekf(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default")
        out = str(tmp_path / "sim")
        assert cli_main(["--config", cfg, "--out", out, "simulate"]) == 0
        assert os.path.exists(os.path.join(out, "trace.csv"))
        assert os.path.exists(os.path.join(out, "true_curve.csv"))
        out2 = str(tmp_path / "est")
        assert cli_main(["--config", cfg, "--out", out2, "estimate",
                         "--trace", os.path.join(out, "trace.csv"),
                         "--method", "ekf"]) == 0
        with open(os.path.join(out2, "estimate_ekf.csv")) as fh:
            assert fh.readline().strip() == \
                "t,soc_est,up_est,innovation_v,p00,p11"
        assert os.path.exists(os.path.join(out2, "soc_ekf.csv"))

    @pytest.mark.parametrize("method", ["ekf", "ammkf"])
    def test_estimate_scores_the_samples_with_a_true_soc(self, tmp_path,
                                                         capsys, method):
        # truth cells may be empty: one blank row once made every metric NaN
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=400,
                         profile_target_ah=0.06)
        sim = tmp_path / "sim"
        assert cli_main(["--config", cfg, "--out", str(sim), "simulate"]) == 0
        with open(sim / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        truth = np.array([float(r[3]) for r in rows[1:]])
        rows[101][3:5] = ["", ""]  # sample 100
        with open(tmp_path / "partial.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        printed = []
        for i, trace in enumerate([sim / "trace.csv",
                                   tmp_path / "partial.csv"]):
            out = tmp_path / f"est{i}"
            assert cli_main(["--config", cfg, "--out", str(out), "estimate",
                             "--trace", str(trace), "--method", method]) == 0
            printed.append(capsys.readouterr().out)
        with open(out / f"soc_{method}.csv") as fh:
            soc = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
        known = np.arange(400) != 100
        m = compute_metrics(soc[known], truth[known])
        assert printed[1] == (
            f"{method}: rmse={m.rmse:.4f} mae={m.mae:.4f} "
            f"max={m.max_abs_error:.4f} over the 399 of 400 samples with a "
            "true SOC\n")
        # a complete trace's line has no suffix
        assert printed[0].startswith(f"{method}: rmse=")
        assert "over the" not in printed[0] and "nan" not in printed[0]

    def test_estimate_on_a_trace_without_a_finite_true_soc(self, tmp_path,
                                                          capsys):
        # every true_soc cell inf once passed ingest's all-NaN test: the
        # metrics then warned and exited 2 on an empty reduction, after
        # the CSVs and the manifest were written
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=400,
                         profile_target_ah=0.06)
        sim = tmp_path / "sim"
        assert cli_main(["--config", cfg, "--out", str(sim), "simulate"]) == 0
        with open(sim / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[3] = "inf"
        with open(tmp_path / "inf.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        out = tmp_path / "est"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["--config", cfg, "--out", str(out), "estimate",
                             "--trace", str(tmp_path / "inf.csv"),
                             "--method", "ekf"]) == 0
        assert capsys.readouterr() == (
            "ekf: 400 estimates (no ground truth in trace)\n", "")
        with open(out / "soc_ekf.csv") as fh:
            assert {r[2] for r in list(csv.reader(fh))[1:]} == {"nan"}

    def test_estimate_ammkf_emits_correction_artifacts(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.txt")
        out = str(tmp_path / "sim")
        assert cli_main(["--config", cfg, "--out", out, "simulate"]) == 0
        out2 = str(tmp_path / "est")
        assert cli_main(["--config", cfg, "--out", out2, "estimate",
                         "--trace", os.path.join(out, "trace.csv"),
                         "--method", "ammkf"]) == 0
        assert os.path.exists(os.path.join(out2, "corrected_osc.csv"))
        assert os.path.exists(os.path.join(out2, "diagnostics.csv"))
        assert os.path.exists(os.path.join(out2, "soc_ammkf.csv"))

    def test_identify_output_format(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default")
        out = str(tmp_path / "sim")
        assert cli_main(["--config", cfg, "--out", out, "simulate"]) == 0
        out2 = str(tmp_path / "id")
        assert cli_main(["--config", cfg, "--out", out2, "identify",
                         "--trace", os.path.join(out, "trace.csv")]) == 0
        with open(os.path.join(out2, "identified_params.csv")) as fh:
            assert fh.readline().strip() == "t,r0_ohm,rp_ohm,cp_f,lambda"

    def test_long_timestamps_are_written_in_full(self, tmp_path):
        # a trace whose clock reads 1.7e9 s: every written t is its own
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default")
        out = str(tmp_path / "sim")
        assert cli_main(["--config", cfg, "--out", out, "simulate"]) == 0
        sim = ingest_trace(os.path.join(out, "trace.csv"))
        shifted = str(tmp_path / "shifted.csv")
        write_trace(replace(sim, t=sim.t + 1.7e9), shifted)
        est, ident = str(tmp_path / "est"), str(tmp_path / "id")
        assert cli_main(["--config", cfg, "--out", est, "estimate",
                         "--trace", shifted, "--method", "ekf"]) == 0
        assert cli_main(["--config", cfg, "--out", ident, "identify",
                         "--trace", shifted]) == 0
        for path, first in ((os.path.join(est, "soc_ekf.csv"), 1700000000),
                            (os.path.join(est, "estimate_ekf.csv"),
                             1700000000),
                            (os.path.join(ident, "identified_params.csv"),
                             1700000002)):
            with open(path) as fh:
                t = [row[0] for row in list(csv.reader(fh))[1:]]
            assert t[:2] == [str(first), str(first + 1)]
            assert len(set(t)) == len(t)

    def test_identify_ignores_ground_truth(self, tmp_path):
        # the forgetting factor follows the coulomb-counted SOC, so the
        # true-SOC columns of a simulated trace change nothing
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default")
        out = str(tmp_path / "sim")
        assert cli_main(["--config", cfg, "--out", out, "simulate"]) == 0
        full = ingest_trace(os.path.join(out, "trace.csv"))
        assert full.true_soc is not None
        bare = str(tmp_path / "bare.csv")
        write_trace(Trace(full.t, full.current_a, full.voltage_v), bare)
        results = []
        for name, path in (("a", os.path.join(out, "trace.csv")),
                           ("b", bare)):
            out2 = str(tmp_path / name)
            assert cli_main(["--config", cfg, "--out", out2, "identify",
                             "--trace", path]) == 0
            with open(os.path.join(out2, "identified_params.csv")) as fh:
                results.append(fh.read())
        assert results[0] == results[1]

    def test_analyze_trace(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default")
        out = str(tmp_path / "sim")
        assert cli_main(["--config", cfg, "--out", out, "simulate"]) == 0
        out2 = str(tmp_path / "an")
        assert cli_main(["--config", cfg, "--out", out2, "analyze",
                         "--trace", os.path.join(out, "trace.csv")]) == 0
        with open(os.path.join(out2, "analysis.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["interval", "ccm", "acm_emp", "acm_theo", "verdict"]
        assert len(rows) - 1 == 600 // 20

    def test_analyze_innovation_log(self, tmp_path):
        log = tmp_path / "innov.csv"
        rng = np.random.default_rng(0)
        with open(log, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["interval", "step", "innovation_v"])
            for m in range(3):
                for s in range(20):
                    w.writerow([m, s, f"{rng.normal(0, 1e-3):.6e}"])
        out = str(tmp_path / "an")
        assert cli_main(["--out", out, "analyze", "--trace", str(log)]) == 0
        with open(os.path.join(out, "analysis.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "ccm", "acm_emp", "acm_theo", "verdict"]
        assert len(rows) - 1 == 3
        with open(log) as fh:
            logged = [float(row[2]) for row in list(csv.reader(fh))[1:]]
        vals = [np.array(logged[m * 20:(m + 1) * 20]) for m in range(3)]
        assert rows[1][1] == "0.000000000e+00"
        assert rows[1][4] == "indeterminate"
        for m, row in enumerate(rows[1:]):
            if m:
                assert float(row[1]) == pytest.approx(
                    np.mean(vals[m - 1] * vals[m]), rel=1e-9)
            assert float(row[2]) == pytest.approx(np.mean(vals[m] ** 2),
                                                  rel=1e-9)
            assert float(row[3]) == ScenarioConfig().r

    def test_analyze_innovation_log_of_unequal_intervals(self, tmp_path):
        # intervals of 3 to 150 innovations, some next to one of another
        # length (no CCM there), over magnitudes that make the summation
        # order show: each line equals numpy's formulas, formatted
        lengths = [3, 5, 5, 150, 150, 2, 9, 9, 130]
        rng = np.random.default_rng(3)
        groups = [rng.normal(0, 1, n) * 10 ** rng.uniform(-6, -2, n)
                  for n in lengths]
        log = tmp_path / "innov.csv"
        log.write_text("interval,step,innovation_v\n" + "".join(
            f"{m},{k},{x!r}\n" for m, v in enumerate(groups)
            for k, x in enumerate(v.tolist())))
        out = str(tmp_path / "an")
        assert cli_main(["--out", out, "analyze", "--trace", str(log)]) == 0
        r = ScenarioConfig().r
        expected = ["m,ccm,acm_emp,acm_theo,verdict"]
        for m, v in enumerate(groups):
            acm = float(np.mean(v ** 2))
            prev = groups[m - 1] if m else None
            if prev is not None and len(prev) == len(v):
                ccm = float(np.mean(prev * v))
                sign = infer_error_sign(ccm, acm)
            else:
                ccm, sign = 0.0, "indeterminate"
            expected.append(f"{m},{ccm:.9e},{acm:.9e},{r:.9e},{sign}")
        with open(os.path.join(out, "analysis.csv")) as fh:
            assert fh.read().splitlines() == expected

    def test_analyze_innovation_log_with_a_gap_pairs_no_ccm(self, tmp_path):
        # intervals 0 and 2 are not adjacent: interval 2's row reads no
        # CCM, as after an interval of another length
        log = tmp_path / "innov.csv"
        log.write_text("interval,step,innovation_v\n0,0,1e-3\n0,1,-2e-3\n"
                       "0,2,5e-4\n2,3,2e-3\n2,4,1e-3\n2,5,-1e-3\n")
        out = tmp_path / "an"
        assert cli_main(["--out", str(out), "analyze", "--trace",
                         str(log)]) == 0
        assert (out / "analysis.csv").read_text().splitlines()[2] == \
            "2,0.000000000e+00,2.000000000e-06,1.000000000e-06,indeterminate"

    @pytest.mark.parametrize("samples, note", [
        (2, "not computable (needs 2 innovations, has 1)"),
        (3, "1/1 autocorrelation lags inside +-1.4142"),
        (15, "7/7 autocorrelation lags inside +-0.7071")])
    def test_analyze_short_trace_counts_only_lags_with_pairs(
            self, tmp_path, capsys, samples, note):
        # the second half of the trace holds samples - samples // 2
        # innovations: a lag as long as that has no pairs, and one value has
        # no autocorrelation at all
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=30,
                         profile_target_ah=0.005)
        sim = tmp_path / "sim"
        assert cli_main(["--config", cfg, "--out", str(sim), "simulate"]) == 0
        lines = (sim / "trace.csv").read_text().splitlines()
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines[:samples + 1]) + "\n")
        capsys.readouterr()
        out = tmp_path / "an"
        assert cli_main(["--config", cfg, "--out", str(out), "analyze",
                         "--trace", str(short)]) == 0
        assert capsys.readouterr().out == (
            f"0 intervals -> {out}/analysis.csv; second-half whiteness: "
            f"{note}\n")
        assert (out / "analysis.csv").read_text() == \
            "interval,ccm,acm_emp,acm_theo,verdict\n"

    def test_whiteness_of_constant_innovations_is_not_computable(self):
        assert cli._whiteness(np.full(5, 1e-3)) == \
            "not computable: the innovations have zero variance"

    def test_whiteness_of_a_long_half_reads_lags_1_to_20(self):
        # the count of the formula before short halves were handled
        v = np.random.default_rng(4).normal(0, 1e-3, 7200)
        v[1:] += 0.3 * v[:-1]  # some lags fall outside the band
        c = v - v.mean()
        denom = float(np.sum(c * c))
        band = 2.0 / np.sqrt(len(c))
        inside = sum(abs(float(np.sum(c[:-k] * c[k:])) / denom) <= band
                     for k in range(1, 21))
        assert 0 < inside < 20
        assert cli._whiteness(v) == (
            f"{inside}/20 autocorrelation lags inside +-{band:.4f}")

    @pytest.mark.parametrize("bad", [
        ["1", "3", ""], ["1", "3"], ["1", "3", "x"], ["x", "3", "1e-3"],
        ["1", "3", "nan"], ["1", "3", "inf"], ["1", "3", "1e-3"]],
        ids=["empty", "short", "text", "interval", "nan", "inf", "single"])
    def test_analyze_innovation_log_names_a_bad_row(self, tmp_path, capsys,
                                                    bad):
        log = tmp_path / "innov.csv"
        with open(log, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["interval", "step", "innovation_v"])
            for s in range(20):
                w.writerow([0, s, "1e-3"])
            w.writerow(bad)
        out = str(tmp_path / "an")
        assert cli_main(["--out", out, "analyze", "--trace", str(log)]) == 2
        assert f"{log}:22: malformed row {bad}" in capsys.readouterr().err

    def test_analyze_innovation_log_names_a_single_row_interval(
            self, tmp_path, capsys):
        log = tmp_path / "innov.csv"
        log.write_text("interval,step,innovation_v\n0,0,1e-3\n0,1,-2e-3\n"
                       "1,0,1e-3\n")
        out = str(tmp_path / "an")
        assert cli_main(["--out", out, "analyze", "--trace", str(log)]) == 2
        assert capsys.readouterr().err == (
            f"error: {log}:4: malformed row ['1', '0', '1e-3']: the only row "
            "of interval 1, which needs at least 2 innovations\n")

    def test_analyze_rejects_a_short_interval_up_front(self, tmp_path,
                                                      capsys):
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default")
        sim = str(tmp_path / "sim")
        assert cli_main(["--config", cfg, "--out", sim, "simulate"]) == 0
        capsys.readouterr()
        bad = _write_cfg(tmp_path / "bad.txt", true_curve="default",
                         interval_len=1)
        out = tmp_path / "an"
        assert cli_main(["--config", bad, "--out", str(out), "analyze",
                         "--trace", os.path.join(sim, "trace.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: interval_len must be >= 5\n"
        assert not out.exists()

    def test_analyze_acm_theo_uses_the_updates_row(self, tmp_path):
        # H P- H^T + r must use the row H = [s, -1] of each interval's last
        # update, with s read at that update's prior SOC. On this trace (the
        # trace benchmark's, seed 42) interval 609 ends with its prior and
        # posterior SOC on two sides of a knot, so the slope at the posterior
        # is not the slope the update used.
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=14400,
                         profile_target_ah=1.0)
        sim = str(tmp_path / "sim")
        assert cli_main(["--config", cfg, "--out", sim, "simulate"]) == 0
        path = os.path.join(sim, "trace.csv")
        out = str(tmp_path / "an")
        assert cli_main(["--config", cfg, "--out", out, "analyze",
                         "--trace", path]) == 0
        with open(os.path.join(out, "analysis.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
        sc = load_scenario(cfg)
        _, curve = resolve_curves(sc)
        trace = ingest_trace(path)
        outs = run_ekf(KfState(*sc.estimator_start(), sc.filter_noise(),
                               curve, sc.capacity_ah), sc.ecm_params(), trace)
        decay, g_soc, _, _ = transition(sc.ecm_params(), sc.dt,
                                        sc.capacity_ah)
        noise = sc.filter_noise()
        q00, q11, r = noise.q00, noise.q11, noise.r
        L = sc.interval_len
        assert len(rows) == len(outs) // L
        straddling = []
        for m, row in enumerate(rows):
            # the last update's prior, predicted from the step before it
            k = (m + 1) * L - 1
            prev = outs[k - 1]
            prior_soc = prev.soc + g_soc * trace.current_a[k - 1]
            p_minus = np.array([[prev.p00 + q00, prev.p01 * decay],
                                [prev.p01 * decay,
                                 decay * prev.p11 * decay + q11]])
            s = curve.slope(min(max(prior_soc, curve.soc_min), curve.soc_max))
            h = np.array([s, -1.0])
            expected = float(h @ p_minus @ h) + r
            assert float(row[3]) == pytest.approx(expected, rel=1e-9), m
            posterior = min(max(outs[k].soc, curve.soc_min), curve.soc_max)
            if curve.slope(posterior) != s:
                straddling.append(m)
        assert 609 in straddling

    def test_estimate_steps_with_the_traces_dt(self, tmp_path):
        # a config without `dt` estimates a 2 s trace as one that says 2 s
        with_dt = _write_cfg(tmp_path / "with.txt", dt=2.0)
        without_dt = _write_cfg(tmp_path / "without.txt")
        sim = str(tmp_path / "sim")
        assert cli_main(["--config", with_dt, "--out", sim, "simulate"]) == 0
        path = os.path.join(sim, "trace.csv")
        assert ingest_trace(path).dt == 2.0
        for method in ("ekf", "ammkf"):
            written = []
            for name, cfg in (("with", with_dt), ("without", without_dt)):
                out = tmp_path / f"{method}-{name}"
                assert cli_main(["--config", cfg, "--out", str(out),
                                 "estimate", "--trace", path,
                                 "--method", method]) == 0
                written.append((out / f"soc_{method}.csv").read_bytes())
            assert written[0] == written[1]

    def test_estimate_keeps_the_traces_timestamps(self, tmp_path):
        # a trace that starts at 1000 s is written out at 1000 s, not 0
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default")
        sim = tmp_path / "sim"
        assert cli_main(["--config", cfg, "--out", str(sim), "simulate"]) == 0
        header, *rows = (sim / "trace.csv").read_text().splitlines()
        shifted = tmp_path / "shifted.csv"
        shifted.write_text("\n".join([header] + [
            "%r,%s" % (float(t) + 1000.0, rest)
            for t, rest in (row.split(",", 1) for row in rows)]) + "\n")
        out = tmp_path / "est"
        assert cli_main(["--config", cfg, "--out", str(out), "estimate",
                         "--trace", str(shifted), "--method", "ekf"]) == 0
        for name in ("soc_ekf.csv", "estimate_ekf.csv"):
            first = (out / name).read_text().splitlines()[1]
            assert float(first.split(",")[0]) == 1000.0, name

    @pytest.mark.parametrize("online", ["false", "true"])
    def test_estimate_reproduces_the_scenario(self, tmp_path, online):
        cfg = _write_cfg(tmp_path / "cfg.txt", identify_online=online)
        scen = tmp_path / "scen"
        assert cli_main(["--config", cfg, "--out", str(scen),
                         "scenario"]) == 0
        for method, names in (("ekf", ["soc_ekf.csv"]),
                              ("ammkf", ["soc_ammkf.csv", "diagnostics.csv",
                                         "corrected_osc.csv"])):
            out = tmp_path / method
            assert cli_main(["--config", cfg, "--out", str(out), "estimate",
                             "--trace", str(scen / "trace.csv"),
                             "--method", method]) == 0
            for name in names:
                assert (out / name).read_bytes() == \
                    (scen / name).read_bytes(), name

    @pytest.mark.parametrize("command", [["identify"],
                                         ["estimate", "--method", "ekf"],
                                         ["analyze"]])
    def test_non_finite_trace_sample_exits_2(self, tmp_path, capsys, command):
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default")
        out = str(tmp_path / "sim")
        assert cli_main(["--config", cfg, "--out", out, "simulate"]) == 0
        path = os.path.join(out, "trace.csv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        cells = lines[300].split(",")
        cells[2] = "nan"  # voltage_v of the sample on line 301
        lines[300] = ",".join(cells)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli_main(["--config", cfg, "--out", str(tmp_path / "o"),
                         command[0], "--trace", path, *command[1:]]) == 2
        assert "trace.csv:301: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["p0_soc", "p0_up"])
    def test_negative_initial_covariance_exits_2(self, tmp_path, capsys,
                                                 key):
        good = _write_cfg(tmp_path / "good.txt", profile_steps=400,
                          profile_target_ah=0.06)
        assert cli_main(["--config", good, "--out", str(tmp_path / "sim"),
                         "simulate"]) == 0
        trace = str(tmp_path / "sim" / "trace.csv")
        bad = _write_cfg(tmp_path / "bad.txt", profile_steps=400,
                         profile_target_ah=0.06, **{key: -1})
        for name, args in (("scen", ["scenario"]),
                           ("ekf", ["estimate", "--trace", trace,
                                    "--method", "ekf"])):
            capsys.readouterr()
            assert cli_main(["--config", bad, "--out", str(tmp_path / name),
                             *args]) == 2, name
            assert capsys.readouterr().err == \
                f"error: {key}: must be >= 0: -1.0\n", name
            assert not list((tmp_path / name).glob("*.csv")), name

    @pytest.mark.parametrize("key, value, message", [
        ("q00", -1, "q00: must be >= 0: -1.0"),
        ("q11", -1, "q11: must be >= 0: -1.0"),
        ("bank_q00", -1, "bank_q00: must be >= 0: -1.0"),
        ("bank_q11", -1, "bank_q11: must be >= 0: -1.0"),
        ("r", 0, "r: must be > 0: 0.0"),
        ("r", -1e-6, "r: must be > 0: -1e-06"),
        ("dt", 0, "dt: must be > 0: 0.0"),
        ("dt", -1, "dt: must be > 0: -1.0"),
        ("initial_soc_true", 1.5, "initial_soc_true: must be in [0, 1]: 1.5"),
        ("initial_soc_true", -0.1,
         "initial_soc_true: must be in [0, 1]: -0.1"),
        ("sigma_v", -1, "sigma_v: must be >= 0: -1.0"),
        ("sigma_i", -0.1, "sigma_i: must be >= 0: -0.1"),
        ("profile_steps", 0, "profile_steps: must be > 0: 0"),
        ("seed", -1, "seed: must be >= 0: -1"),
        ("n", 4, "n: filter count must be odd and > 0: 4"),
        ("r0", 0, "r0: must be > 0: 0.0"),
        ("rp", -1, "rp: must be > 0: -1.0"),
        ("cp", 0, "cp: must be > 0: 0.0"),
        ("profile_amp", 0, "profile_amp: must be > 0 for a dst-like "
         "profile: 0.0"),
        ("profile_amp", dict(profile_kind="random-walk", profile_amp=-0.5),
         "profile_amp: must be >= 0 for a random-walk profile: -0.5"),
        ("profile_kind", "bogus", "profile_kind: must be one of constant, "
         "pulse, dst-like, random-walk: 'bogus'")])
    def test_bad_noise_or_step_names_the_key(self, tmp_path, capsys, key,
                                             value, message):
        # these once exited with "q must be positive semidefinite", "r must
        # be > 0", "profile has no net discharge to scale", "soc outside
        # [0, 1]", "noise sigmas must be >= 0", "n_steps must be > 0",
        # numpy's "expected non-negative integer", "filter count must be
        # odd", "r0 must be finite and > 0" or "unknown profile kind",
        # none naming the key or raised before the run
        kv = dict(profile_steps=400, profile_target_ah=0.06)
        kv.update(value if isinstance(value, dict) else {key: value})
        bad = _write_cfg(tmp_path / "bad.txt", **kv)
        assert cli_main(["--config", bad, "--out", str(tmp_path / "scen"),
                         "scenario"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "scen").exists()

    def test_negative_seed_flag_names_the_key(self, tmp_path, capsys):
        assert cli_main(["--out", str(tmp_path / "sim"), "--seed", "-3",
                         "simulate"]) == 2
        assert capsys.readouterr().err == "error: seed: must be >= 0: -3\n"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("key", ["slope_floor", "prob_floor"])
    def test_bank_floor_keys_are_unknown(self, tmp_path, capsys, key):
        # the bank's floors are module constants (multimodel.SLOPE_FLOOR,
        # PROB_FLOOR): a config or an old manifest that sets one is refused
        bad = _write_cfg(tmp_path / "bad.txt", **{key: 1e-6})
        assert cli_main(["--config", bad, "--out", str(tmp_path / "scen"),
                         "scenario"]) == 2
        assert capsys.readouterr().err == \
            f"error: unknown config key: {key!r}\n"
        out = tmp_path / "sw"
        assert cli_main(["--out", str(out), "sweep", "--key", key,
                         "--values", "1e-6,1e-5"]) == 2
        assert capsys.readouterr().err == \
            f"error: unknown config key: {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("n", 4, "n: filter count must be odd and > 0: 4"),
        ("interval_len", 4, "interval_len must be >= 5"),
        ("spread", 1, "spread must be > 1")])
    def test_bank_keys_checked_before_simulating(self, tmp_path, capsys, key,
                                                 value, message):
        # these once passed simulate, which wrote a trace and a manifest
        # that scenario then refused
        bad = _write_cfg(tmp_path / "bad.txt", **{key: value})
        out = tmp_path / "sim"
        assert cli_main(["--config", bad, "--out", str(out), "simulate"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sweep_checks_every_bank_value_before_the_first_run(self,
                                                                tmp_path,
                                                                capsys):
        # n=4 once stopped the sweep only after run-000 (n=3) was written
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=400,
                         profile_target_ah=0.06)
        out = tmp_path / "sw"
        assert cli_main(["--config", cfg, "--out", str(out), "sweep",
                         "--key", "n", "--values", "3,4"]) == 2
        assert capsys.readouterr().err == \
            "error: n: filter count must be odd and > 0: 4\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, step", [("q00", 1), ("p0_soc", 0)])
    def test_overflowed_filter_variance_exits_2(self, tmp_path, capsys, key,
                                                step):
        # finite, so the config takes it, but the innovation variance
        # overflows to inf: its gain inf/inf would make the SOC NaN, which
        # the clamp reads as 0.0 at every later step
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=400,
                         profile_target_ah=0.06)
        sim = tmp_path / "sim"
        assert cli_main(["--config", cfg, "--out", str(sim), "simulate"]) == 0
        capsys.readouterr()
        bad = _write_cfg(tmp_path / "bad.txt", profile_steps=400,
                         profile_target_ah=0.06, **{key: 1e308})
        out = tmp_path / "est"
        assert cli_main(["--config", bad, "--out", str(out), "estimate",
                         "--method", "ekf", "--trace",
                         str(sim / "trace.csv")]) == 2
        assert capsys.readouterr().err == (
            f"error: step {step}: innovation variance inf is not in "
            "(0, inf)\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, values, message", [
        ("n", "3,4", "n: filter count must be odd and > 0: 4"),
        ("filter_curve", "default,c #1/curve.csv",
         "filter_curve: a config file cannot hold 'c #1/curve.csv'"),
        ("r0", "0.07,0", "r0: must be > 0: 0.0"),
        ("profile_kind", "dst-like,bogus",
         "profile_kind: must be one of constant, pulse, dst-like, "
         "random-walk: 'bogus'"),
        ("filter_curve", "default,volts:0.01",
         "true_curve and filter_curve cannot both be transforms: "
         "'offset:0.02:0.2:0.8:0.15', 'volts:0.01'"),
        ("true_curve", "default,no/such/curve.csv",
         "[Errno 2] No such file or directory: 'no/such/curve.csv'"),
        ("profile_amp", "1,0",
         "profile_amp: must be > 0 for a dst-like profile: 0.0"),
        # the values, and the base config's other keys
        ("profile_amp", ("1,-1", dict(profile_kind="random-walk")),
         "profile_amp: must be >= 0 for a random-walk profile: -1.0")])
    def test_sweep_refusing_a_later_value_runs_no_scenario(
            self, tmp_path, capsys, monkeypatch, key, values, message):
        # every run's config is built, and its curves read, before the
        # first scenario runs
        values, base = values if isinstance(values, tuple) else (values, {})
        ran = []
        monkeypatch.setattr(scenario, "run_scenario",
                            lambda cfg, *a: ran.append(cfg))
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=400,
                         profile_target_ah=0.06, **base)
        out = tmp_path / "sw"
        assert cli_main(["--config", cfg, "--out", str(out), "sweep",
                         "--key", key, f"--values={values}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["estimate", "--method", "ekf"], ["estimate", "--method", "ammkf"],
        ["analyze"], ["identify"], ["simulate"], ["scenario"],
        ["sweep", "--key", "sigma_v", "--values", "0.001"]])
    def test_zero_capacity_names_the_field(self, tmp_path, capsys, command):
        # the filter and the coulomb count of identify divide by
        # capacity_ah: the config refuses 0 when it is read, before a trace
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=400,
                         profile_target_ah=0.06)
        sim = tmp_path / "sim"
        assert cli_main(["--config", cfg, "--out", str(sim), "simulate"]) == 0
        capsys.readouterr()
        bad = _write_cfg(tmp_path / "bad.txt", profile_steps=400,
                         profile_target_ah=0.06, capacity_ah=0)
        if command[0] in ("identify", "estimate", "analyze"):
            command = [*command, "--trace", str(sim / "trace.csv")]
        out = tmp_path / "est"
        assert cli_main(["--config", bad, "--out", str(out), *command]) == 2
        assert capsys.readouterr().err == \
            "error: capacity_ah: must be > 0: 0.0\n"
        assert not out.exists()

    def test_nonpositive_r0_exits_2_on_identify(self, tmp_path, capsys):
        # identify never builds EcmParams: the config refuses r0 when read
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=400,
                         profile_target_ah=0.06)
        sim = tmp_path / "sim"
        assert cli_main(["--config", cfg, "--out", str(sim), "simulate"]) == 0
        capsys.readouterr()
        bad = _write_cfg(tmp_path / "bad.txt", r0=0)
        out = tmp_path / "id"
        assert cli_main(["--config", bad, "--out", str(out), "identify",
                         "--trace", str(sim / "trace.csv")]) == 2
        assert capsys.readouterr().err == "error: r0: must be > 0: 0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["identify"], ["estimate", "--method", "ekf"],
        ["estimate", "--method", "ammkf"], ["analyze"]])
    def test_missing_trace_leaves_no_out_dir(self, tmp_path, capsys,
                                             command):
        out = tmp_path / "bad"
        assert cli_main(["--out", str(out), *command, "--trace",
                         str(tmp_path / "nonexist.csv")]) == 2
        assert "nonexist.csv" in capsys.readouterr().err
        assert not out.exists()

    def test_scenario_exit_codes(self, tmp_path, capsys):
        ok_cfg = _write_cfg(tmp_path / "ok.txt", true_curve="default",
                            filter_curve="default")
        assert cli_main(["--config", ok_cfg,
                         "--out", str(tmp_path / "ok"), "scenario"]) == 0
        # the paper's claims are scored by the acceptance suite, not by
        # per-config gates: the old gate keys are unknown
        bad_cfg = _write_cfg(tmp_path / "bad.txt", true_curve="default",
                             filter_curve="default", max_ammkf_rmse=0.0)
        out = tmp_path / "bad"
        assert cli_main(["--config", bad_cfg,
                         "--out", str(out), "scenario"]) == 2
        assert "unknown config key: 'max_ammkf_rmse'" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_sweep(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default",
                         filter_curve="default", profile_steps=400,
                         profile_target_ah=0.05)
        out = str(tmp_path / "sw")
        assert cli_main(["--config", cfg, "--out", out, "sweep",
                         "--key", "sigma_v", "--values", "0.001,0.003"]) == 0
        for run in ("run-000", "run-001"):
            assert os.path.exists(os.path.join(out, run, "metrics.csv"))

    def test_sweep_help_names_the_form_for_a_negative_first_value(
            self, capsys, monkeypatch):
        # argparse reads "--values -0.05,0.05" as an option and exits 2
        # with "expected one argument"; "--values=-0.05,0.05" is one token.
        # A wide terminal keeps the help from wrapping at its hyphens
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--help"])
        assert "--values=-0.05,0.05" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli_main(["sweep", "--key", "initial_soc_error",
                      "--values", "-0.05,0.05"])
        assert "expected one argument" in capsys.readouterr().err

    def test_sweep_of_a_negative_first_value(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=200,
                         profile_target_ah=0.03)
        out = tmp_path / "sw"
        assert cli_main(["--config", cfg, "--out", str(out), "sweep",
                         "--key", "initial_soc_error",
                         "--values=-0.05,0.05"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in printed] == \
            ["initial_soc_error=-0.05", "initial_soc_error=0.05"]
        assert sorted(os.listdir(out)) == ["run-000", "run-001"]

    @pytest.mark.parametrize("key, values, parsed", [
        ("n", "1,3", [1, 3]),
        ("seed", "5,6", [5, 6]),
        ("interval_len", "20,25", [20, 25]),
        ("profile_kind", "dst-like,random-walk", ["dst-like", "random-walk"]),
        ("identify_online", "0,1", [False, True])])
    def test_sweep_parses_values_as_the_config_does(self, tmp_path, capsys,
                                                    key, values, parsed):
        # int, str and bool keys sweep, and each run's manifest loads back
        # as the config it ran
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default",
                         filter_curve="default", profile_steps=200,
                         profile_target_ah=0.02)
        out = tmp_path / "sw"
        assert cli_main(["--config", cfg, "--out", str(out), "sweep",
                         "--key", key, "--values", values]) == 0
        printed = capsys.readouterr().out.splitlines()
        for i, value in enumerate(parsed):
            manifest = out / f"run-{i:03d}" / "run-manifest.txt"
            loaded = load_scenario(manifest)
            assert getattr(loaded, key) == value
            assert loaded == replace(load_scenario(cfg), **{key: value})
            assert printed[i].startswith(f"{key}={value}: ammkf rmse=")

    def test_sweep_bad_value_exits_2(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "cfg.txt")
        for key, values, message in (
                ("n", "3,5.5", "n: not an integer: '5.5'"),
                ("identify_online", "0,1.0",
                 "identify_online: not a boolean: '1.0'"),
                ("nope", "1", "unknown config key: 'nope'"),
                ("sigma_v", "0.001,nan", "sigma_v: not a finite number: nan"),
                # the first run succeeds and the second stops at the
                # voltage cutoff: a sweep writes only after every run
                ("initial_soc_true", "0.95,0.0",
                 "the simulated trace stops at the voltage cutoff: at "
                 "Trace.cutoff_index 0 the terminal voltage 1.978 V crossed "
                 "ecm.CUTOFF_LOW_V 2.0 V, leaving 1 samples where the bank "
                 "needs 40 (2*interval_len)")):
            out = tmp_path / key
            assert cli_main(["--config", cfg, "--out", str(out), "sweep",
                             "--key", key, "--values", values]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_sweep_of_a_value_a_config_file_cannot_hold_exits_2(
            self, tmp_path, capsys):
        # the curve exists, but the run's manifest would read back "c"
        curve = tmp_path / "c #1" / "curve.csv"
        curve.parent.mkdir()
        default_lifepo4_curve().to_csv(curve)
        cfg = _write_cfg(tmp_path / "cfg.txt", profile_steps=200,
                         profile_target_ah=0.02)
        out = tmp_path / "sw"
        assert cli_main(["--config", cfg, "--out", str(out), "sweep",
                         "--key", "filter_curve", f"--values={curve}"]) == 2
        assert capsys.readouterr().err == \
            f"error: filter_curve: a config file cannot hold {str(curve)!r}\n"
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default",
                         sigma_v=0.003)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli_main(["--config", cfg, "--out", a, "--seed", "1",
                         "simulate"]) == 0
        assert cli_main(["--config", cfg, "--out", b, "--seed", "2",
                         "simulate"]) == 0
        ta = ingest_trace(os.path.join(a, "trace.csv"))
        tb = ingest_trace(os.path.join(b, "trace.csv"))
        assert not np.array_equal(ta.voltage_v, tb.voltage_v)

    def test_strict_flag_propagates(self, tmp_path):
        p = tmp_path / "trace.csv"
        p.write_text("t,current_a,voltage_v\n"
                     "0,1.0,3.30\n1,2.0,3.29\n6,3.0,3.28\n")
        assert cli_main(["--strict", "--out", str(tmp_path / "o"), "analyze",
                         "--trace", str(p)]) == 2

    def test_bad_config_key_exit_code(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("nonsense_key=1\n")
        assert cli_main(["--config", str(p),
                         "--out", str(tmp_path / "o"), "simulate"]) == 2
