import numpy as np
import pytest

# one pass/fail line per acceptance criterion, echoed after the test run
# (filled by tests/test_acceptance.py)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)

from lfpsoc import (BatteryState, EcmParams, OcvCurve, SimConfig,
                    default_lifepo4_curve)
from lfpsoc import ecm


@pytest.fixture
def no_low_cutoff(monkeypatch):
    """The simulator runs down to 0 V: its low cutoff moved to 0."""
    monkeypatch.setattr(ecm, "CUTOFF_LOW_V", 0.0)


@pytest.fixture
def wide_cutoffs(no_low_cutoff, monkeypatch):
    """The simulator's cutoffs moved out to 0 V and 10 V."""
    monkeypatch.setattr(ecm, "CUTOFF_HIGH_V", 10.0)


@pytest.fixture
def params():
    return EcmParams(r0=0.07, rp=0.04, cp=1000.0)


@pytest.fixture
def base_curve():
    return default_lifepo4_curve()


@pytest.fixture
def two_knot_curve():
    return OcvCurve(np.array([0.2, 0.4]), np.array([3.20, 3.30]))


@pytest.fixture
def sim_cfg():
    return SimConfig(capacity_ah=1.063, dt=1.0, rng_seed=42)


@pytest.fixture
def noisy_cfg():
    return SimConfig(capacity_ah=1.063, dt=1.0, voltage_noise_sigma=0.003,
                     rng_seed=42)


@pytest.fixture
def rest_state():
    return BatteryState(0.5, 0.0)
