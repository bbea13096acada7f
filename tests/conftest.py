"""Shared fixtures: the parameter sets used across the suite.

The three workhorse sets cover the three dynamical regimes: a weakly damped
strongly nonlinear oscillator (quantum effects outlive decoherence), a
strongly damped strongly nonlinear one (the first spreading bump survives),
and a weakly nonlinear heavily damped one (classical ringdown).
"""

import pytest

from kerrbath import SystemParams


@pytest.fixture(scope="session")
def params_quantum():
    # deep quantum regime: tau_d ~ 18, tau_e ~ 0.71, tau_r ~ 31
    return SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4)


@pytest.fixture(scope="session")
def params_damped():
    # strong damping, strong nonlinearity: theta ~ 28, first bump survives
    return SystemParams(mu_bar=1e-2, intensity=50.0, beta_bar=1.0, gamma=1e-2)


@pytest.fixture(scope="session")
def params_classical():
    # weak nonlinearity, strong damping: theta ~ 0.28, plain ringdown
    return SystemParams(mu_bar=1e-4, intensity=50.0, beta_bar=1.0, gamma=1e-2)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)
