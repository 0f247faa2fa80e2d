"""Profiles, metrics, trace/config serialization, scenario orchestration,
and the command-line interface."""

import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lfpsoc import (BatteryState, OcvCurve, ScenarioConfig, compute_metrics,
                    curve_error, default_lifepo4_curve, generate_profile,
                    load_scenario, resolve_curves, run_scenario, run_sweep,
                    simulate_profile)
from lfpsoc.cli import main as cli_main
from lfpsoc.ecm import SimConfig, Trace
from lfpsoc.metrics import CONVERGENCE_THRESHOLD
from lfpsoc.profiles import ProfileConfigError
from lfpsoc.scenario import (ScenarioConfigError, scenario_from_mapping,
                             write_artifacts)
from lfpsoc.traceio import (TraceFormatError, ingest_trace, read_config,
                            write_config, write_trace)


class TestProfiles:
    def test_constant(self):
        p = generate_profile("constant", 50, amp=1.5)
        assert np.all(p.samples == 1.5)
        assert p.net_discharge_ah() == pytest.approx(1.5 * 50 / 3600.0)

    def test_pulse_alternates_with_rest(self):
        p = generate_profile("pulse", 120, amp=2.0)
        assert np.all(np.isin(p.samples, [0.0, 2.0]))
        assert np.any(p.samples == 0.0) and np.any(p.samples == 2.0)

    def test_dst_like_hits_discharge_target(self):
        p = generate_profile("dst-like", 7200, dt=1.0, amp=1.0,
                             target_discharge_ah=1.063)
        assert p.net_discharge_ah(1.0) == pytest.approx(1.063, rel=1e-9)
        assert np.any(p.samples < 0)  # contains regenerative pulses

    def test_dst_like_partial_block_still_scaled(self):
        p = generate_profile("dst-like", 500, dt=1.0, target_discharge_ah=0.1)
        assert p.net_discharge_ah(1.0) == pytest.approx(0.1, rel=1e-9)

    def test_random_walk_deterministic_per_seed(self):
        a = generate_profile("random-walk", 300, seed=5)
        b = generate_profile("random-walk", 300, seed=5)
        c = generate_profile("random-walk", 300, seed=6)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)
        assert np.max(np.abs(a.samples)) <= 1.0

    def test_bad_inputs(self):
        with pytest.raises(ProfileConfigError):
            generate_profile("constant", 0)
        with pytest.raises(ProfileConfigError):
            generate_profile("unknown-kind", 10)


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


def _small_trace(params, curve, n=120, sigma=0.0):
    cfg = SimConfig(capacity_ah=1.063, dt=1.0, voltage_noise_sigma=sigma,
                    rng_seed=1)
    prof = generate_profile("dst-like", n, seed=1, target_discharge_ah=0.01)
    return simulate_profile(BatteryState(0.6, 0.0), params, curve,
                            prof.samples, cfg)


class TestTraceIo:
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
        with pytest.warns(UserWarning, match="resampling"):
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


class TestScenarioConfig:
    def test_mapping_types(self):
        cfg = scenario_from_mapping({"profile_steps": "600", "sigma_v": "0.003",
                                     "identify_online": "yes",
                                     "true_curve": "default"})
        assert cfg.profile_steps == 600
        assert cfg.sigma_v == 0.003
        assert cfg.identify_online is True
        assert cfg.true_curve == "default"

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioConfigError, match="unknown"):
            scenario_from_mapping({"not_a_key": "1"})

    def test_bad_bool_rejected(self):
        with pytest.raises(ScenarioConfigError, match="boolean"):
            scenario_from_mapping({"identify_online": "maybe"})

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("profile_steps=500\nseed=7\n")
        cfg = load_scenario(p)
        assert cfg.profile_steps == 500 and cfg.seed == 7

    def test_resolve_offset_true_curve(self):
        cfg = ScenarioConfig(true_curve="offset:-0.02:0.2:0.8:0.15",
                             filter_curve="default")
        true_c, filt_c = resolve_curves(cfg)
        assert curve_error(true_c, filt_c, 0.5) == pytest.approx(-0.02)
        assert curve_error(true_c, filt_c, 0.05) == pytest.approx(0.0)

    def test_resolve_offset_filter_curve(self):
        cfg = ScenarioConfig(true_curve="default",
                             filter_curve="offset:0.02")
        true_c, filt_c = resolve_curves(cfg)
        assert curve_error(filt_c, true_c, 0.5) == pytest.approx(0.02)

    def test_both_offsets_rejected(self):
        cfg = ScenarioConfig(true_curve="offset:0.02",
                             filter_curve="offset:-0.02")
        with pytest.raises(ScenarioConfigError):
            resolve_curves(cfg)

    def test_curve_from_csv_path(self, tmp_path, base_curve):
        p = tmp_path / "curve.csv"
        base_curve.to_csv(p)
        cfg = ScenarioConfig(true_curve=str(p), filter_curve=str(p))
        true_c, filt_c = resolve_curves(cfg)
        assert np.array_equal(true_c.knot_ocv, filt_c.knot_ocv)

    def test_bad_offset_spec(self):
        cfg = ScenarioConfig(true_curve="offset:x", filter_curve="default")
        with pytest.raises(ScenarioConfigError):
            resolve_curves(cfg)


_FAST = dict(profile_steps=1500, profile_target_ah=0.25, sigma_v=0.001)


class TestRunScenario:
    def test_consistent_model_both_accurate(self):
        cfg = ScenarioConfig(true_curve="default", filter_curve="default",
                             **_FAST)
        res = run_scenario(cfg)
        assert res.metrics["ekf-baseline"].rmse < 0.005
        assert res.metrics["ammkf"].rmse < 0.005
        assert not res.violations

    def test_offset_scenario_ordering(self):
        cfg = ScenarioConfig(profile_steps=4000, profile_target_ah=0.6,
                             sigma_v=0.001, require_ordering=True)
        res = run_scenario(cfg)
        assert res.metrics["ammkf"].rmse < res.metrics["ekf-baseline"].rmse
        assert not res.violations

    def test_deterministic(self):
        cfg = ScenarioConfig(true_curve="default", filter_curve="default",
                             **_FAST)
        a, b = run_scenario(cfg), run_scenario(cfg)
        assert np.array_equal(a.soc_ammkf, b.soc_ammkf)
        assert np.array_equal(a.soc_ekf, b.soc_ekf)
        assert np.array_equal(a.trace.voltage_v, b.trace.voltage_v)

    def test_threshold_violation_reported(self):
        cfg = ScenarioConfig(true_curve="default", filter_curve="default",
                             max_ammkf_rmse=0.0, **_FAST)
        res = run_scenario(cfg)
        assert res.violations

    def test_online_identification_runs(self):
        cfg = ScenarioConfig(true_curve="default", filter_curve="default",
                             identify_online=True, **_FAST)
        res = run_scenario(cfg)
        assert res.metrics["ammkf"].rmse < 0.02

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


def _write_cfg(path, **kv):
    base = dict(profile_steps=600, profile_target_ah=0.08, sigma_v=0.001)
    base.update(kv)
    with open(path, "w") as fh:
        for k, v in base.items():
            fh.write(f"{k}={v}\n")
    return str(path)


class TestCli:
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

    def test_scenario_exit_codes(self, tmp_path):
        ok_cfg = _write_cfg(tmp_path / "ok.txt", true_curve="default",
                            filter_curve="default")
        assert cli_main(["--config", ok_cfg,
                         "--out", str(tmp_path / "ok"), "scenario"]) == 0
        bad_cfg = _write_cfg(tmp_path / "bad.txt", true_curve="default",
                             filter_curve="default", max_ammkf_rmse=0.0)
        assert cli_main(["--config", bad_cfg,
                         "--out", str(tmp_path / "bad"), "scenario"]) == 1

    def test_sweep(self, tmp_path):
        cfg = _write_cfg(tmp_path / "cfg.txt", true_curve="default",
                         filter_curve="default", profile_steps=400,
                         profile_target_ah=0.05)
        out = str(tmp_path / "sw")
        assert cli_main(["--config", cfg, "--out", out, "sweep",
                         "--key", "sigma_v", "--values", "0.001,0.003"]) == 0
        assert os.path.exists(os.path.join(out, "run-000", "metrics.csv"))

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
