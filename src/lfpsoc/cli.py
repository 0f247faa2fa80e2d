"""Command-line interface: simulate, identify, estimate, analyze, scenario,
and sweep subcommands over CSV artifacts and flat key=value configs."""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import innovation
from .ekf import run_ekf
from .innovation import IntervalInnovations
from .metrics import compute_metrics, curve_mae
from .multimodel import interval_innovations, run_ammkf
from .rls import identify_stream
from .scenario import (ScenarioConfig, config_value, coulomb_counted_soc,
                       estimator_inputs, load_scenario, resolve_curves,
                       run_scenario, run_sweep, simulate, write_corrected_csv,
                       write_diagnostics_csv, write_estimate_csv,
                       write_manifest, write_soc_csv)
from .traceio import TraceFormatError, ingest_trace, write_lines, write_trace
# called only through scenario.simulate; perfbench/spans.py traces them here
from .ecm import simulate_profile  # noqa: F401
from .profiles import generate_profile  # noqa: F401


def _out_file(args, name: str) -> str:
    """The path of output file `name` in `--out` (default ./out). The
    directory is made here, at a command's first write, so a command that
    fails before it writes leaves none."""
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def cmd_simulate(args, cfg: ScenarioConfig) -> int:
    trace, true_curve, _ = simulate(cfg)
    path = _out_file(args, "trace.csv")
    write_trace(trace, path)
    true_curve.to_csv(_out_file(args, "true_curve.csv"))
    write_manifest(_out_file(args, "run-manifest.txt"), cfg)
    print(f"simulated {len(trace)} steps -> {path}")
    return 0


def cmd_identify(args, cfg: ScenarioConfig) -> int:
    trace = ingest_trace(args.trace, strict=args.strict)
    points = identify_stream(trace, coulomb_counted_soc(cfg, trace))
    path = _out_file(args, "identified_params.csv")
    write_lines(path, ["t", "r0_ohm", "rp_ohm", "cp_f", "lambda"],
                ("%.15g,,,,%.6f" % (p.t, p.lam) if p.params is None
                 else "%.15g,%.8g,%.8g,%.8g,%.6f" % (
                     p.t, p.params.r0, p.params.rp, p.params.cp, p.lam)
                 for p in points))
    write_manifest(_out_file(args, "run-manifest.txt"), cfg)
    final = next((p.params for p in reversed(points) if p.params is not None),
                 None)
    if final is not None:
        print(f"final estimate: r0={final.r0:.5g} rp={final.rp:.5g} "
              f"cp={final.cp:.6g} -> {path}")
    else:
        print(f"no physical estimate reached -> {path}")
    return 0


def cmd_estimate(args, cfg: ScenarioConfig) -> int:
    trace = ingest_trace(args.trace, strict=args.strict)
    _, filter_curve = resolve_curves(cfg)
    filt, params = estimator_inputs(cfg, trace, filter_curve)
    if args.method == "ekf":
        outs = run_ekf(filt, params, trace)
        soc = np.array([o.soc for o in outs])
        write_estimate_csv(_out_file(args, "estimate_ekf.csv"), trace.t,
                           outs)
    else:
        res = run_ammkf(trace, filt, params, cfg.bank_config(),
                        cfg.bank_noise())
        soc = res.soc
        write_corrected_csv(_out_file(args, "corrected_osc.csv"),
                            res.corrected_points)
        write_diagnostics_csv(_out_file(args, "diagnostics.csv"),
                              res.diagnostics)
    truth = trace.true_soc if trace.true_soc is not None \
        else np.full(len(trace), np.nan)
    write_soc_csv(_out_file(args, f"soc_{args.method}.csv"), trace.t,
                  soc, truth)
    write_manifest(_out_file(args, "run-manifest.txt"), cfg)
    if trace.true_soc is not None:
        # a trace's truth cells may be empty: score the samples that have one
        known = np.isfinite(trace.true_soc)
        m = compute_metrics(soc[known], trace.true_soc[known], trace.dt)
        part = "" if known.all() else (f" over the {known.sum()} of "
                                       f"{len(known)} samples with a true SOC")
        print(f"{args.method}: rmse={m.rmse:.4f} mae={m.mae:.4f} "
              f"max={m.max_abs_error:.4f}{part}")
    else:
        print(f"{args.method}: {len(soc)} estimates (no ground truth in trace)")
    return 0


def _logged_intervals(path: str, r: float) -> dict[int, IntervalInnovations]:
    """Intervals of an innovation log (`interval,step,innovation_v`), by
    their interval number, in ascending order. The log carries no
    covariance, so each interval's theoretical auto-correlation is the
    measurement variance `r`. A row that is short, not numeric or
    not finite is rejected, naming its line, and so is the only row of an
    interval, which needs at least 2 innovations."""
    groups: dict[int, list[float]] = {}
    last: dict[int, tuple[int, list[str]]] = {}  # (line, row) per interval
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                m, value = int(row[0]), float(row[2])
                ok = math.isfinite(value)
            except (ValueError, IndexError):
                ok = False
            if not ok:
                raise TraceFormatError(f"{path}:{lineno}: malformed row {row}")
            groups.setdefault(m, []).append(value)
            last[m] = (lineno, row)
    for m in sorted(groups):
        if len(groups[m]) < 2:
            lineno, row = last[m]
            raise TraceFormatError(
                f"{path}:{lineno}: malformed row {row}: the only row of "
                f"interval {m}, which needs at least 2 innovations")
    return {m: IntervalInnovations(groups[m], r) for m in sorted(groups)}


def _whiteness(v: np.ndarray) -> str:
    """`innovation.whiteness(v)` of the innovations `v`, as printed."""
    try:
        inside, lags, band = innovation.whiteness(v)
    except ValueError as exc:
        return str(exc)
    return f"{inside}/{lags} autocorrelation lags inside +-{band:.4f}"


def cmd_analyze(args, cfg: ScenarioConfig) -> int:
    """Report interval innovation statistics (cross/auto-correlation and the
    inferred curve-error sign), either by running the baseline filter over a
    trace CSV or directly from an innovation log CSV."""
    with open(args.trace, newline="") as fh:
        header = fh.readline().strip()
    if header.startswith("interval,step,innovation_v"):
        label, note = "m", ""
        intervals = _logged_intervals(args.trace, cfg.r)
    else:
        L = cfg.interval_len
        trace = ingest_trace(args.trace, strict=args.strict)
        _, filter_curve = resolve_curves(cfg)
        filt, params = estimator_inputs(cfg, trace, filter_curve)
        outs = run_ekf(filt, params, trace)
        label = "interval"
        intervals = {m: interval_innovations(outs[m * L:(m + 1) * L])
                     for m in range(len(outs) // L)}
        note = "; second-half whiteness: " + _whiteness(
            np.array([o.innovation for o in outs[len(outs) // 2:]]))
    path = _out_file(args, "analysis.csv")

    def lines():
        for m, iv in intervals.items():  # a CCM pairs only m - 1 with m
            prev = intervals.get(m - 1)
            ccm, sign = innovation.interval_statistics(prev, iv)
            yield "%s,%.9e,%.9e,%.9e,%s" % (m, ccm, iv.acm_emp, iv.acm_theo,
                                             sign)

    write_lines(path, [label, "ccm", "acm_emp", "acm_theo", "verdict"],
                lines())
    print(f"{len(intervals)} intervals -> {path}{note}")
    return 0


def cmd_scenario(args, cfg: ScenarioConfig) -> int:
    res = run_scenario(cfg, args.out or "out")
    for method, m in res.metrics.items():
        print(f"{method}: rmse={m.rmse:.4f} mae={m.mae:.4f} "
              f"max={m.max_abs_error:.4f} "
              f"conv={m.convergence_time_s} final_q={m.final_quarter_rmse:.4f}")
    mae = curve_mae(res.corrected_points, res.true_curve, res.filter_curve)
    if mae is not None:
        print(f"corrected-curve MAE: {mae[0] * 1e3:.2f} mV "
              f"(filter curve {mae[1] * 1e3:.2f} mV off)")
    return 0


def cmd_sweep(args, cfg: ScenarioConfig) -> int:
    key = args.key
    values = [config_value(key, v) for v in args.values.split(",")]
    overrides = [{key: v} for v in values]
    results = run_sweep(cfg, overrides, args.out or "out")
    for v, r in zip(values, results):
        m = r.metrics["ammkf"]
        print(f"{key}={v}: ammkf rmse={m.rmse:.4f} "
              f"conv={m.convergence_time_s} final_q={m.final_quarter_rmse:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfpsoc",
        description="SOC estimation toolkit robust to OCV-curve error")
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--strict", action="store_true",
                        help="reject non-uniform input instead of resampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic ground-truth trace")
    p.set_defaults(run=cmd_simulate)
    p = sub.add_parser("identify", help="RLS circuit-parameter identification")
    p.set_defaults(run=cmd_identify)
    p.add_argument("--trace", required=True, help="input trace CSV")
    p = sub.add_parser("estimate", help="run an SOC estimator over a trace")
    p.set_defaults(run=cmd_estimate)
    p.add_argument("--trace", required=True, help="input trace CSV")
    p.add_argument("--method", choices=["ekf", "ammkf"], default="ammkf")
    p = sub.add_parser("analyze", help="innovation statistics of a trace")
    p.set_defaults(run=cmd_analyze)
    p.add_argument("--trace", required=True, help="input trace CSV")
    p = sub.add_parser("scenario", help="run one full scenario (both estimators)")
    p.set_defaults(run=cmd_scenario)
    p = sub.add_parser("sweep", help="run a scenario per swept config value")
    p.set_defaults(run=cmd_sweep)
    p.add_argument("--key", required=True, help="config field to sweep")
    p.add_argument("--values", required=True,
                   help="comma-separated values; write --values=-0.05,0.05 "
                        "when the first value is negative")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_scenario(args.config) if args.config else ScenarioConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        return args.run(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
