"""Scenario orchestration: one config in, both estimators out, with CSV
artifacts and a metrics summary."""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass, asdict, replace

import numpy as np

from .curve import (InvalidTransformError, OcvCurve, apply_transform,
                    default_lifepo4_curve, is_transform)
from . import ecm
from .ecm import BatteryState, EcmParams, SimConfig, Trace, simulate_profile
from .ekf import KfState, NoiseConfig, run_ekf
from .metrics import compute_metrics
from .multimodel import BankConfig, run_ammkf
from .profiles import PROFILE_KINDS, generate_profile
from .rls import identify_stream
from .traceio import (parse_config, read_config, trace_key, write_config,
                      write_lines, write_trace)


class ScenarioConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment needs; every field has a flat-file key."""

    # curves: a CSV path, "default", or a transform of the other side's
    # curve (only one side may be one): "offset:<volts>[:<lo>:<hi>:<ramp>]"
    # plateau offset, "volts:<volts>" everywhere, "shift:<soc>" along SOC,
    # "scale:<factor>" about the mean (`curve.apply_transform`)
    true_curve: str = "offset:0.02:0.2:0.8:0.15"
    filter_curve: str = "default"
    # drive profile
    profile_kind: str = "dst-like"
    profile_steps: int = 7200
    profile_amp: float = 1.0
    profile_target_ah: float = 1.0
    # battery and simulation
    capacity_ah: float = 1.063
    dt: float = 1.0
    r0: float = 0.07
    rp: float = 0.04
    cp: float = 1000.0
    initial_soc_true: float = 0.95
    initial_soc_error: float = 0.0
    sigma_v: float = 0.001
    sigma_i: float = 0.0
    identify_online: bool = False
    # estimator noise: the baseline filter (also phase 1) and the bank
    q00: float = 1e-7
    q11: float = 1e-6
    r: float = 1e-6
    bank_q00: float = 1e-11
    bank_q11: float = 1e-6
    p0_soc: float = 1e-4
    p0_up: float = 1e-4
    # bank shape
    n: int = 7
    interval_len: int = 20
    spread: float = 6.0
    seed: int = 42

    def __post_init__(self):
        for key, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ScenarioConfigError(f"{key}: not a finite number: "
                                          f"{value!r}")
            try:  # a text value must load back from the manifest as it is
                held = not isinstance(value, str) or parse_config(
                    f"{key}={value}") == {key: value}
            except ValueError:
                held = False
            if not held:
                raise ScenarioConfigError(f"{key}: a config file cannot hold {value!r}")
        # a negative variance is no covariance, a negative sigma no noise
        # and a negative seed no generator; r, dt, the step count, the
        # capacity and the circuit must be positive, the true start a SOC,
        # the profile a known kind and at most one curve a transform:
        # checked here, the error names the key rather than the noise
        # matrix, the simulator, the filter, the profile or the coulomb
        # count, and a sweep refuses a later value before its first run
        for key in ("p0_soc", "p0_up", "q00", "q11", "bank_q00", "bank_q11",
                    "sigma_v", "sigma_i", "seed"):
            if (value := getattr(self, key)) < 0:
                raise ScenarioConfigError(f"{key}: must be >= 0: {value!r}")
        for key in ("r", "dt", "profile_steps", "capacity_ah", "r0", "rp",
                    "cp"):
            if (value := getattr(self, key)) <= 0:
                raise ScenarioConfigError(f"{key}: must be > 0: {value!r}")
        if not 0 <= self.initial_soc_true <= 1:
            raise ScenarioConfigError(f"initial_soc_true: must be in [0, 1]: "
                                      f"{self.initial_soc_true!r}")
        if self.profile_kind not in PROFILE_KINDS:
            raise ScenarioConfigError(
                f"profile_kind: must be one of {', '.join(PROFILE_KINDS)}: "
                f"{self.profile_kind!r}")
        # a dst-like block nets a discharge only when its amplitude is
        # positive: the profile is scaled to profile_target_ah by that net;
        # a random walk is clipped to +-profile_amp, no range below 0
        if self.profile_kind == "dst-like" and self.profile_amp <= 0:
            raise ScenarioConfigError(f"profile_amp: must be > 0 for a "
                                      f"dst-like profile: {self.profile_amp!r}")
        if self.profile_kind == "random-walk" and self.profile_amp < 0:
            raise ScenarioConfigError(
                f"profile_amp: must be >= 0 for a random-walk profile: "
                f"{self.profile_amp!r}")
        if is_transform(self.true_curve) and is_transform(self.filter_curve):
            raise ScenarioConfigError(
                "true_curve and filter_curve cannot both be transforms: "
                f"{self.true_curve!r}, {self.filter_curve!r}")
        # the bank keys, checked before anything is simulated or written
        self.bank_config()

    def ecm_params(self) -> EcmParams:
        return EcmParams(r0=self.r0, rp=self.rp, cp=self.cp)

    def sim_config(self) -> SimConfig:
        return SimConfig(capacity_ah=self.capacity_ah, dt=self.dt,
                         voltage_noise_sigma=self.sigma_v,
                         current_noise_sigma=self.sigma_i,
                         rng_seed=self.seed)

    def filter_noise(self) -> NoiseConfig:
        return NoiseConfig(self.q00, self.q11, self.r)

    def bank_noise(self) -> NoiseConfig:
        return NoiseConfig(self.bank_q00, self.bank_q11, self.r)

    def estimator_start(self) -> tuple[BatteryState, float, float]:
        """The estimators' initial state (SOC guess clamped into [0, 1])
        and the start variances of SOC and Up."""
        soc0 = min(1.0, max(0.0, self.initial_soc_true + self.initial_soc_error))
        return BatteryState(soc0, 0.0), self.p0_soc, self.p0_up

    def bank_config(self) -> BankConfig:
        return BankConfig(n=self.n, interval_len=self.interval_len,
                          spread=self.spread)


def config_value(key: str, raw):
    """The value of config key `key` parsed from its text `raw` as the type
    of the key's default: "true"/"false"/"1"/"0"/"yes"/"no" for a boolean,
    the text itself for a string, else an int or a float. Unknown keys and
    unparsable text raise ScenarioConfigError naming the key."""
    field = ScenarioConfig.__dataclass_fields__.get(key)
    if field is None:
        raise ScenarioConfigError(f"unknown config key: {key!r}")
    kind, text = type(field.default), str(raw)
    if kind is bool:
        text = text.strip().lower()
        if text not in ("true", "false", "1", "0", "yes", "no"):
            raise ScenarioConfigError(f"{key}: not a boolean: {raw!r}")
        return text in ("true", "1", "yes")
    if kind is str:
        return text
    try:
        return kind(text)
    except ValueError:
        raise ScenarioConfigError(
            f"{key}: not {'an integer' if kind is int else 'a number'}: "
            f"{raw!r}") from None


def scenario_from_mapping(mapping: dict) -> ScenarioConfig:
    """Build a config from flat string key=value pairs; unknown keys error."""
    return ScenarioConfig(**{key: config_value(key, raw)
                             for key, raw in mapping.items()})


def load_scenario(path: str) -> ScenarioConfig:
    return scenario_from_mapping(read_config(path))


def _load_curve(spec: str) -> OcvCurve:
    return default_lifepo4_curve() if spec == "default" else OcvCurve.from_csv(spec)


def resolve_curves(cfg: ScenarioConfig) -> tuple[OcvCurve, OcvCurve]:
    """Return (true_curve, filter_curve); at most one side is a transform
    spec (`curve.apply_transform`, checked by the config), applied to the
    other side."""
    true_spec, filt_spec = cfg.true_curve, cfg.filter_curve
    try:
        if is_transform(true_spec):
            filt_c = _load_curve(filt_spec)
            return apply_transform(filt_c, true_spec), filt_c
        true_c = _load_curve(true_spec)
        if is_transform(filt_spec):
            return true_c, apply_transform(true_c, filt_spec)
        return true_c, _load_curve(filt_spec)
    except InvalidTransformError as exc:
        raise ScenarioConfigError(str(exc)) from exc


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    trace: Trace
    metrics: dict
    soc_ekf: np.ndarray
    soc_ammkf: np.ndarray
    corrected_points: list
    diagnostics: list
    true_curve: OcvCurve
    filter_curve: OcvCurve


def coulomb_counted_soc(cfg: ScenarioConfig, trace: Trace) -> np.ndarray:
    """SOC from the estimator's initial guess and the measured current. It
    drives the RLS forgetting factor: the estimator has no access to the
    true SOC."""
    soc0 = cfg.estimator_start()[0].soc
    soc_cc = soc0 - np.cumsum(trace.current_a) * trace.dt / (3600.0 * cfg.capacity_ah)
    return np.clip(soc_cc, 0.0, 1.0)


def estimator_inputs(cfg: ScenarioConfig, trace: Trace,
                     curve: OcvCurve) -> tuple:
    """(filt, params): the estimators' filter on `curve` and the ECM params
    it steps with, at the trace's own sample spacing.

    `filt` starts at `estimator_start()` with the `filter_noise()` and
    counts charge against `capacity_ah`: the baseline filter, and the
    AMMKF's phase 1 and tail. The params are constant, or under
    `identify_online` a per-step sequence from online RLS identification
    (config values fill the warmup)."""
    filt = KfState(*cfg.estimator_start(), cfg.filter_noise(), curve,
                   cfg.capacity_ah)
    fallback = cfg.ecm_params()
    if not cfg.identify_online:
        return filt, fallback
    points = identify_stream(trace, coulomb_counted_soc(cfg, trace))
    seq = [fallback, fallback]
    seq.extend(p.params if p.params is not None else fallback for p in points)
    return filt, seq


def simulate(cfg: ScenarioConfig) -> tuple:
    """The config's truth: (trace, true_curve, filter_curve)."""
    true_curve, filter_curve = resolve_curves(cfg)
    profile = generate_profile(cfg.profile_kind, cfg.profile_steps, dt=cfg.dt,
                               seed=cfg.seed, amp=cfg.profile_amp,
                               target_discharge_ah=cfg.profile_target_ah)
    trace = simulate_profile(BatteryState(cfg.initial_soc_true, 0.0),
                             cfg.ecm_params(), true_curve, profile,
                             cfg.sim_config())
    return trace, true_curve, filter_curve


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> ScenarioResult:
    """Simulate truth, run the baseline filter and the multi-model filter
    against the (possibly wrong) filter curve, and collect metrics."""
    trace, true_curve, filter_curve = simulate(cfg)
    stop, v = trace.cutoff_index, trace.cutoff_v
    if stop is not None and len(trace) < 2 * cfg.interval_len:
        crossed = (f"ecm.CUTOFF_LOW_V {ecm.CUTOFF_LOW_V}"
                   if v < ecm.CUTOFF_LOW_V
                   else f"ecm.CUTOFF_HIGH_V {ecm.CUTOFF_HIGH_V}")
        raise ScenarioConfigError(
            f"the simulated trace stops at the voltage cutoff: at "
            f"Trace.cutoff_index {stop} the terminal voltage {v:.4g} V "
            f"crossed {crossed} V, leaving {len(trace)} samples where the "
            f"bank needs {2 * cfg.interval_len} (2*interval_len)")

    filt, params = estimator_inputs(cfg, trace, filter_curve)
    soc_ekf = np.array([o.soc for o in run_ekf(filt, params, trace)])
    am = run_ammkf(trace, filt, params, cfg.bank_config(), cfg.bank_noise())

    metrics = {
        "ekf-baseline": compute_metrics(soc_ekf, trace.true_soc, trace.dt),
        "ammkf": compute_metrics(am.soc, trace.true_soc, trace.dt),
    }
    result = ScenarioResult(cfg, trace, metrics, soc_ekf, am.soc,
                            am.corrected_points, am.diagnostics, true_curve,
                            filter_curve)
    if out_dir is not None:
        write_artifacts(result, out_dir)
    return result


def write_soc_csv(path: str, t: np.ndarray, est: np.ndarray,
                  truth: np.ndarray):
    write_lines(path, ["t", "soc", "true_soc", "error"],
                ("%.15g,%.9f,%.9f,%.9f" % (tk, e, s, e - s)
                 for tk, e, s in zip(t.tolist(), est.tolist(),
                                     truth.tolist())))


def write_estimate_csv(path: str, t: np.ndarray, outs: list):
    """The baseline filter's per-step posterior, innovation and variances,
    at the trace's timestamps `t`."""
    write_lines(path, ["t", "soc_est", "up_est", "innovation_v", "p00", "p11"],
                ("%.15g,%.9f,%.9f,%.9e,%.9e,%.9e" % (
                    tk, o.soc, o.up, o.innovation, o.p00, o.p11)
                 for tk, o in zip(t.tolist(), outs)))


def write_corrected_csv(path: str, points: list):
    write_lines(path, ["soc", "ocv_v", "interval"],
                ("%.9f,%.9f,%s" % (soc, ocv, interval)
                 for soc, ocv, interval in points))


def write_diagnostics_csv(path: str, diagnostics: list):
    write_lines(path, ["interval", "ccm", "acm_emp", "acm_theo", "verdict",
                       "optimal_index", "prob_max", "mode"],
                ("%s,%.9e,%.9e,%.9e,%s,%s,%.6f,%s" % (
                    d.interval_index, d.ccm, d.acm_emp, d.acm_theo, d.verdict,
                    d.optimal_index, d.prob_max, d.mode)
                 for d in diagnostics))


def write_metrics_csv(path: str, metrics: dict):
    def line(method, m) -> str:
        conv = "" if m.convergence_time_s is None \
            else "%.6g" % m.convergence_time_s
        return "%s,%.6f,%.6f,%.6f,%s,%.6f" % (
            method, m.rmse, m.mae, m.max_abs_error, conv, m.final_quarter_rmse)

    write_lines(path, ["method", "rmse", "mae", "max_abs_error",
                       "convergence_time_s", "final_quarter_rmse"],
                (line(method, m) for method, m in metrics.items()))


def write_manifest(path: str, cfg: ScenarioConfig):
    write_config(asdict(cfg), path)


def write_artifacts(result: ScenarioResult, out_dir: str,
                    traces: dict | None = None):
    """Write a scenario's CSVs and manifest to `out_dir`. `traces` maps the
    `trace_key` of each trace.csv already written to its path: a trace
    found there is copied from that file, not formatted again, and a new
    one is added."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    if traces is None:
        traces = {}
    trace_csv = os.path.join(out_dir, "trace.csv")
    key = trace_key(result.trace)
    if key in traces:
        shutil.copyfile(traces[key], trace_csv)
    else:
        write_trace(result.trace, trace_csv)
        traces[key] = trace_csv
    write_soc_csv(os.path.join(out_dir, "soc_ekf.csv"), result.trace.t,
                  result.soc_ekf, result.trace.true_soc)
    write_soc_csv(os.path.join(out_dir, "soc_ammkf.csv"), result.trace.t,
                  result.soc_ammkf, result.trace.true_soc)
    write_corrected_csv(os.path.join(out_dir, "corrected_osc.csv"),
                        result.corrected_points)
    write_diagnostics_csv(os.path.join(out_dir, "diagnostics.csv"),
                          result.diagnostics)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), result.metrics)
    result.true_curve.to_csv(os.path.join(out_dir, "true_curve.csv"))
    result.filter_curve.to_csv(os.path.join(out_dir, "filter_curve.csv"))
    write_manifest(os.path.join(out_dir, "run-manifest.txt"), cfg)


def run_sweep(base_cfg: ScenarioConfig, overrides: list[dict],
              out_dir: str | None = None) -> list[ScenarioResult]:
    """Run one scenario per override mapping, in override order, each
    simulated and estimated on its own. Every run's config is built and its
    curves read before the first run starts, so a value the config refuses,
    or a curve file that cannot be read, runs no scenario.
    With `out_dir`, once every run has returned, each writes its artifacts
    to its own directory, `run-000`, `run-001`, ..., so a run that raises
    leaves nothing written; a trace.csv whose columns have the bytes of one
    already written in this call, as every run of a sweep over an
    estimator-only key has, is copied from that file instead of formatted
    again."""
    configs = [replace(base_cfg, **ov) for ov in overrides]
    for cfg in configs:
        resolve_curves(cfg)
    results = [run_scenario(cfg) for cfg in configs]
    if out_dir:
        traces = {}
        for i, result in enumerate(results):
            write_artifacts(result, os.path.join(out_dir, f"run-{i:03d}"),
                            traces)
    return results
