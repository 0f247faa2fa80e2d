"""SOC-error metrics for estimator runs, and the corrected curve's error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONVERGENCE_THRESHOLD = 0.05  # |error| band defining convergence time


@dataclass(frozen=True)
class Metrics:
    rmse: float
    mae: float
    max_abs_error: float
    convergence_time_s: float | None
    final_quarter_rmse: float


def compute_metrics(est, truth, dt: float = 1.0) -> Metrics:
    """RMSE / MAE / max error of est-truth, the first time after which the
    error stays inside the 5% band, and the RMSE of the last quarter."""
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {truth.shape}")
    e = est - truth
    rmse = float(np.sqrt(np.mean(e ** 2)))
    mae = float(np.mean(np.abs(e)))
    max_abs = float(np.max(np.abs(e)))
    q = len(e) - len(e) // 4
    final_q = float(np.sqrt(np.mean(e[q:] ** 2)))
    inside = np.abs(e) < CONVERGENCE_THRESHOLD
    conv: float | None = None
    if inside[-1]:
        # last index where the error was outside the band, +1
        outside = np.nonzero(~inside)[0]
        first_ok = 0 if outside.size == 0 else int(outside[-1]) + 1
        conv = float(first_ok * dt)
    return Metrics(rmse, mae, max_abs, conv, final_q)


def curve_mae(points, true_curve, filter_curve) -> tuple[float, float] | None:
    """(corrected_v, original_v): the mean absolute gap of the corrected
    curve's points `(soc, ocv, ...)` from `true_curve`, and of
    `filter_curve` from it at the same SOCs, over the points inside the
    true curve's domain; None when no point is inside."""
    soc, ocv = np.array([p[:2] for p in points], dtype=float).reshape(-1, 2).T
    inside = (soc >= true_curve.soc_min) & (soc <= true_curve.soc_max)
    if not inside.any():
        return None
    soc, ocv = soc[inside], ocv[inside]
    truth = true_curve.ocv(soc)
    return (float(np.mean(np.abs(ocv - truth))),
            float(np.mean(np.abs(filter_curve.ocv(soc) - truth))))
