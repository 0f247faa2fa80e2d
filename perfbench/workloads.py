"""The benchmark's three workloads.

Each workload builds its inputs from a seed (`setup`), runs one op per call
of `op`, and checks the op's outputs (`check`), which also returns the
accuracy figures of the op. The program only ever receives the generated
inputs. Entry points are looked up on their modules at call time, so the
spans that `spans.Tracer` wraps around them are seen.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

import lfpsoc.cli
import lfpsoc.scenario
from lfpsoc.scenario import ScenarioConfig

DEFAULT_STEPS = 7200
SWEEP_ERRORS = (-0.2, -0.1, 0.1, 0.2)
SOC_HEADER = ["t", "soc", "true_soc", "error"]
ARTIFACTS = ("trace.csv", "soc_ekf.csv", "soc_ammkf.csv", "corrected_osc.csv",
             "diagnostics.csv", "metrics.csv", "true_curve.csv",
             "filter_curve.csv", "run-manifest.txt")


def check_soc(name: str, soc, samples: int) -> list[str]:
    """An SOC estimate holds one finite value in [0, 1] per sample."""
    soc = np.asarray(soc, dtype=float)
    errors = []
    if soc.shape != (samples,):
        errors.append(f"{name}: shape {soc.shape}, expected ({samples},)")
    if not np.all(np.isfinite(soc)):
        errors.append(f"{name}: non-finite values")
    elif soc.size and (soc.min() < 0.0 or soc.max() > 1.0):
        errors.append(f"{name}: values outside [0, 1]")
    return errors


def read_csv(path: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    """Rows of a CSV output, and the errors found in its header."""
    if not os.path.isfile(path):
        return [], [f"{os.path.basename(path)}: missing"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        return [], [f"{os.path.basename(path)}: header {rows[:1]}, "
                    f"expected {header}"]
    return rows[1:], []


def check_rows(path: str, header: list[str], count: int) -> list[str]:
    rows, errors = read_csv(path, header)
    if not errors and len(rows) != count:
        errors.append(f"{os.path.basename(path)}: {len(rows)} rows, "
                      f"expected {count}")
    return errors


def curve_mae_mv(result, cfg: ScenarioConfig) -> float:
    """MAE of the corrected-curve cloud against the true curve, in mV, over
    the points inside the true curve's domain (as scripts/run_headline.py)."""
    true_curve, _ = lfpsoc.scenario.resolve_curves(cfg)
    pts = np.array([(s, v) for s, v, _ in result.corrected_points])
    ok = (pts[:, 0] >= true_curve.soc_min) & (pts[:, 0] <= true_curve.soc_max)
    soc, ocv = pts[ok, 0], pts[ok, 1]
    return float(np.mean(np.abs(ocv - true_curve.ocv(soc)))) * 1e3


def check_scenario(result, cfg: ScenarioConfig) -> tuple[list[str], dict]:
    samples = len(result.trace)
    errors = []
    if samples != cfg.profile_steps:
        errors.append(f"trace: {samples} samples, expected {cfg.profile_steps}")
    errors += check_soc("soc_ekf", result.soc_ekf, samples)
    errors += check_soc("soc_ammkf", result.soc_ammkf, samples)
    if not result.corrected_points:
        errors.append("no corrected-curve points")
        return errors, {}
    accuracy = {"soc_rmse_ekf": result.metrics["ekf-baseline"].rmse,
                "soc_rmse_ammkf": result.metrics["ammkf"].rmse,
                "curve_mae_mv": curve_mae_mv(result, cfg)}
    return errors, accuracy


class Reference:
    """The paper's headline run: `run_scenario(ScenarioConfig(seed=S))`."""

    name = "reference"

    def __init__(self, seed: int, steps: int, workdir: str):
        self.cfg = ScenarioConfig(profile_steps=steps,
                                  profile_target_ah=steps / DEFAULT_STEPS,
                                  seed=seed)
        self.samples = steps

    def setup(self):
        lfpsoc.scenario.resolve_curves(self.cfg)

    def op(self, op_dir: str):
        return lfpsoc.scenario.run_scenario(self.cfg)

    def check(self, result, op_dir: str) -> tuple[list[str], dict]:
        return check_scenario(result, self.cfg)


class Sweep:
    """The initial-error sweep at half length, with scenario artifacts."""

    name = "sweep"

    def __init__(self, seed: int, steps: int, workdir: str):
        half = steps // 2
        self.base = ScenarioConfig(p0_soc=1e-2, profile_steps=half,
                                   profile_target_ah=half / (DEFAULT_STEPS / 2),
                                   seed=seed)
        self.overrides = [{"initial_soc_error": e} for e in SWEEP_ERRORS]
        self.samples = half * len(SWEEP_ERRORS)

    def setup(self):
        lfpsoc.scenario.resolve_curves(self.base)

    def op(self, op_dir: str):
        return lfpsoc.scenario.run_sweep(self.base, self.overrides,
                                         out_dir=op_dir)

    def check(self, results, op_dir: str) -> tuple[list[str], dict]:
        if len(results) != len(self.overrides):
            return [f"{len(results)} results for {len(self.overrides)} "
                    f"scenarios"], {}
        errors, accuracies = [], []
        for i, res in enumerate(results):
            errs, acc = check_scenario(res, res.config)
            run_dir = os.path.join(op_dir, f"run-{i:03d}")
            errs += [f"{name}: missing" for name in ARTIFACTS
                     if not os.path.isfile(os.path.join(run_dir, name))]
            for method in ("ekf", "ammkf"):
                errs += check_rows(os.path.join(run_dir, f"soc_{method}.csv"),
                                   SOC_HEADER, len(res.trace))
            errors += [f"scenario {i}: {e}" for e in errs]
            accuracies.append(acc)
        if errors:
            return errors, {}
        return errors, {k: float(np.mean([a[k] for a in accuracies]))
                        for k in accuracies[0]}


class TraceFile:
    """The recorded-data path: the CLI's identify, estimate (baseline filter)
    and analyze on a simulated trace CSV."""

    name = "trace"

    def __init__(self, seed: int, steps: int, workdir: str):
        self.steps = 2 * steps
        self.seed = seed
        self.workdir = workdir
        self.config = os.path.join(workdir, "trace.cfg")
        self.trace_csv = os.path.join(workdir, "sim", "trace.csv")
        self.interval_len = ScenarioConfig().interval_len
        self.samples = self.steps

    def cli(self, out_dir: str, *args: str):
        code = lfpsoc.cli.main(["--config", self.config, "--out", out_dir,
                                *args])
        if code != 0:
            raise RuntimeError(f"lfpsoc {' '.join(args)} exited with {code}")

    def setup(self):
        with open(self.config, "w") as fh:
            fh.write(f"profile_steps={self.steps}\n"
                     f"profile_target_ah={self.steps / (2 * DEFAULT_STEPS)}\n")
        self.cli(os.path.join(self.workdir, "sim"), "--seed", str(self.seed),
                 "simulate")

    def op(self, op_dir: str):
        self.cli(os.path.join(op_dir, "id"), "identify",
                 "--trace", self.trace_csv)
        self.cli(os.path.join(op_dir, "est"), "estimate",
                 "--trace", self.trace_csv, "--method", "ekf")
        self.cli(os.path.join(op_dir, "an"), "analyze",
                 "--trace", self.trace_csv)
        return op_dir

    def check(self, result, op_dir: str) -> tuple[list[str], dict]:
        n = self.samples
        errors = check_rows(os.path.join(op_dir, "id", "identified_params.csv"),
                            ["t", "r0_ohm", "rp_ohm", "cp_f", "lambda"], n - 2)
        errors += check_rows(os.path.join(op_dir, "est", "estimate_ekf.csv"),
                             ["t", "soc_est", "up_est", "innovation_v",
                              "p00", "p11"], n)
        errors += check_rows(os.path.join(op_dir, "an", "analysis.csv"),
                             ["interval", "ccm", "acm_emp", "acm_theo",
                              "verdict"], n // self.interval_len)
        rows, errs = read_csv(os.path.join(op_dir, "est", "soc_ekf.csv"),
                              SOC_HEADER)
        errors += errs
        if errs:
            return errors, {}
        data = np.array([[float(v) for v in row[1:3]] for row in rows])
        errors += check_soc("soc_ekf.csv", data[:, 0], n)
        if errors:
            return errors, {}
        err = data[:, 0] - data[:, 1]
        return errors, {"soc_rmse_ekf": math.sqrt(float(np.mean(err ** 2)))}


WORKLOADS = {w.name: w for w in (Reference, Sweep, TraceFile)}
