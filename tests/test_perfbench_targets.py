"""The benchmark tracer in perfbench/spans.py names lfpsoc entry points as
strings; a renamed or removed one would silently turn its layer's metrics
into null. Check that every target still resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from lfpsoc import (BankConfig, BatteryState, EcmParams, KfState, NoiseConfig,
                    ekf, measure, multimodel, run_ammkf, simulate_profile)
from lfpsoc.profiles import generate_profile
from lfpsoc.rls import identify_stream

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    """perfbench/spans.py imported by path, leaving no bytecode cache."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_target_resolves():
    spans = _spans()
    assert spans.TARGETS
    absent = [f"{module}.{attr}" for module, attr, _, _ in spans.TARGETS
              if not callable(getattr(importlib.import_module(module), attr,
                                      None))]
    assert absent == []


def test_rls_counter_reads_identify_stream_points(base_curve, no_low_cutoff):
    trace = simulate_profile(BatteryState(0.5, 0.0),
                             EcmParams(r0=0.07, rp=0.04, cp=1000.0),
                             base_curve, np.full(200, 0.5), 1.0, 1.063)
    points = identify_stream(trace, soc_feedback=np.full(len(trace), 0.005))
    counts = _spans().count_rls(identify_stream, (trace,), {}, points)
    assert counts == {"samples": 198, "degenerate": 198,
                      "unidentified": sum(p.params is None for p in points)}


def test_ammkf_counter_reads_run_ammkf_result(base_curve, monkeypatch,
                                             no_low_cutoff):
    # the counts must equal what the run did: every filter step, every
    # bank interval and every pick at an end of the slope grid
    params = EcmParams(r0=0.07, rp=0.04, cp=1000.0)
    current = generate_profile("dst-like", 410, seed=3,
                               target_discharge_ah=0.05)
    trace = measure(simulate_profile(BatteryState(0.9, 0.0), params,
                                     base_curve, current, 1.0, 1.063),
                    0.001, 0.0, 3)
    steps, picks = [], []
    step, interval = ekf.kalman_step, multimodel.run_interval

    def counted_step(f, anchor, slopes, x, rows):
        rows = list(rows)  # a plain filter's rows may be an iterator
        steps.extend(s for s in slopes for _ in rows)  # per member, per row
        return step(f, anchor, slopes, x, rows)

    def counted_interval(*args):
        weights, members = interval(*args)
        picks.append(weights.index(max(weights)))
        return weights, members

    monkeypatch.setattr(ekf, "kalman_step", counted_step)
    monkeypatch.setattr(multimodel, "run_interval", counted_interval)
    bank = BankConfig(n=7, interval_len=20, spread=6.0)
    args = (trace, KfState(BatteryState(0.9, 0.0), 1e-4, 1e-4,
                           NoiseConfig(1e-7, 1e-6, 1e-6),
                           base_curve, 1.063), params)
    kwargs = {"bank_cfg": bank,
              "bank_noise": NoiseConfig(1e-11, 1e-6, 1e-6)}
    result = run_ammkf(*args, **kwargs)
    counts = _spans().count_ammkf(run_ammkf, args, kwargs, result)
    assert picks and len(trace) % bank.interval_len  # a bank and a tail
    assert counts["filter_steps"] == len(steps)
    assert counts["intervals"] == len(picks) == len(result.diagnostics)
    assert counts["edge_picks"] == sum(p in (0, bank.n - 1) for p in picks)
    assert counts["convergence_step"] == result.convergence_step
