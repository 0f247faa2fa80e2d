"""SOC estimation toolkit for LiFePO4 batteries that stays accurate under
OCV-SOC curve error: ECM simulator, adaptive RLS identification, EKF
baseline, innovation diagnostics, and a multi-model filter bank."""

from .curve import (OcvCurve, apply_transform, default_lifepo4_curve,
                    plateau_offset)
from .ecm import (BatteryState, EcmParams, SimConfig, Trace, simulate_profile,
                  step_state, terminal_voltage)
from .ekf import KfState, NoiseConfig, StepOutput, run_ekf
from .innovation import (IntervalInnovations, curve_error_polarity,
                         detect_convergence, infer_error_polarity,
                         infer_error_sign, interval_statistics, whiteness)
from .metrics import Metrics, compute_metrics, curve_mae
from .multimodel import AmmkfResult, BankConfig, build_slope_set, run_ammkf
from .profiles import generate_profile
from .rls import (build_sample, circuit_to_theta, extract_circuit,
                  forgetting_factor, identify_stream, rls_step)
from .scenario import (ScenarioConfig, ScenarioResult, load_scenario,
                       resolve_curves, run_scenario, run_sweep)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
