"""The benchmark tracer in perfbench/spans.py names lfpsoc entry points as
strings; a renamed or removed one would silently turn its layer's metrics
into null. Check that every target still resolves."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from lfpsoc import BatteryState, EcmParams, SimConfig, simulate_profile
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


def test_rls_counter_reads_identify_stream_points(base_curve):
    trace = simulate_profile(BatteryState(0.5, 0.0),
                             EcmParams(r0=0.07, rp=0.04, cp=1000.0),
                             base_curve, np.full(200, 0.5),
                             SimConfig(cutoff_low_v=0.0))
    points = identify_stream(trace, soc_feedback=np.full(len(trace), 0.005))
    counts = _spans().count_rls(identify_stream, (trace,), {}, points)
    assert counts == {"samples": 198, "degenerate": 198,
                      "unidentified": sum(p.params is None for p in points)}
