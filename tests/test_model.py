"""Timescales, regime classification and experimental-scale estimates."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrbath import (
    RegimeReport,
    SystemParams,
    Violation,
    classify_regime,
    asymptotic_b1_at,
    derive_timescales,
    theta_bec,
    theta_cantilever,
    validate_params,
)
from kerrbath.model import THETA_HI, THETA_LO

param_draws = st.builds(
    SystemParams,
    mu_bar=st.floats(1e-3, 1.0),
    intensity=st.floats(1.0, 200.0),
    beta_bar=st.floats(1e-2, 10.0),
    gamma=st.floats(1e-5, 1e-1),
)


@settings(max_examples=1000, deadline=None)
@given(param_draws)
def test_timescale_identities(p):
    """Each timescale times its defining rate is an exact constant."""
    s = derive_timescales(p)
    assert s.tau_e * 2.0 * p.mu_bar * math.sqrt(p.intensity) == pytest.approx(1.0, rel=1e-12)
    assert s.tau_r * p.mu_bar == pytest.approx(math.pi, rel=1e-12)
    assert s.tau_gamma * p.gamma == pytest.approx(2.0, rel=1e-12)
    omega = p.omega_bar
    assert s.tau_d * p.intensity * p.gamma * omega == pytest.approx(
        math.tanh(0.5 * p.beta_bar * omega), rel=1e-12
    )
    assert s.tau_cl * (1.0 + 2.0 * p.mu_bar * p.intensity) == pytest.approx(
        2.0 * math.pi, rel=1e-12
    )
    # theta is the ratio tau_gamma/tau_e = 2 mu_cl sqrt(eps) tau_gamma
    assert s.theta == pytest.approx(
        2.0 * p.mu_cl * math.sqrt(p.epsilon) * s.tau_gamma, rel=1e-12
    )


def test_quantum_regime_times(params_quantum):
    s = derive_timescales(params_quantum)
    assert s.tau_e == pytest.approx(0.70711, rel=1e-4)
    assert s.tau_r == pytest.approx(31.416, rel=1e-4)
    assert s.tau_d == pytest.approx(18.02, rel=1e-3)
    assert s.tau_gamma == pytest.approx(2e4)
    # ordering tau_e < tau_d < tau_r < tau_gamma: all quantum stages resolved
    assert s.tau_e < s.tau_d < s.tau_r < s.tau_gamma


def test_classical_regime_times(params_classical):
    s = derive_timescales(params_classical)
    assert s.tau_d == pytest.approx(0.9227, rel=1e-3)
    assert s.tau_gamma == pytest.approx(200.0)
    assert s.tau_e == pytest.approx(707.11, rel=1e-4)
    assert s.tau_r == pytest.approx(3.1416e4, rel=1e-4)
    assert s.theta == pytest.approx(0.2828, rel=1e-3)


def test_exact_tau_d_keeps_cutoff_factor(params_quantum):
    """tau_d drops the Ohmic cutoff suppression that B1(inf) carries:
    1/(2 B1(inf) I0) = tau_d (Lambda^2 + Omega^2)/Lambda^2."""
    p = params_quantum
    exact = 1.0 / (2.0 * asymptotic_b1_at(p, p.omega_bar) * p.intensity)
    lam2, om2 = p.lambda_bar**2, p.omega_bar**2
    assert exact == pytest.approx(derive_timescales(p).tau_d * (lam2 + om2) / lam2, rel=1e-12)


def test_alpha_and_derived_properties():
    p = SystemParams(mu_bar=0.1, intensity=50.0, theta=0.5)
    assert abs(p.alpha) == pytest.approx(math.sqrt(50.0), rel=1e-12)
    assert p.alpha == pytest.approx(math.sqrt(50.0) * complex(math.cos(0.5), -math.sin(0.5)))
    assert p.epsilon == pytest.approx(0.02)
    assert p.mu_cl == pytest.approx(5.0)
    assert p.omega_bar == pytest.approx(1.0 + 0.1 * 101.0)


def test_derive_timescales_rejects_bad_params():
    with pytest.raises(ValueError):
        derive_timescales(SystemParams(mu_bar=0.1, intensity=0.0))
    with pytest.raises(ValueError):
        derive_timescales(SystemParams(mu_bar=-0.1, intensity=10.0))


def test_isolated_edge_cases():
    s = derive_timescales(SystemParams(mu_bar=0.0, intensity=10.0, gamma=0.0))
    assert math.isinf(s.tau_e) and math.isinf(s.tau_r)
    assert math.isinf(s.tau_d) and math.isinf(s.tau_gamma)
    assert math.isnan(s.theta)
    s = derive_timescales(SystemParams(mu_bar=0.0, intensity=10.0, gamma=1e-3))
    assert s.theta == 0.0


def test_classify_quantum(params_quantum):
    rep = classify_regime(derive_timescales(params_quantum))
    assert isinstance(rep, RegimeReport)
    assert rep.regime == "quantum-surviving"
    assert rep.theta > THETA_HI


def test_classify_damped_still_quantum(params_damped):
    rep = classify_regime(derive_timescales(params_damped))
    assert rep.theta == pytest.approx(28.28, rel=1e-3)
    assert rep.regime == "quantum-surviving"


def test_classify_classical(params_classical):
    rep = classify_regime(derive_timescales(params_classical))
    assert rep.regime == "classical"
    assert rep.theta < THETA_LO
    # fastest process is decoherence, well before one classical period
    assert rep.ordering[0][0] == "tau_d"
    assert rep.ordering[1][0] == "tau_cl"


def test_classify_isolated():
    rep = classify_regime(derive_timescales(SystemParams(mu_bar=0.1, intensity=50.0)))
    assert rep.regime == "isolated"


def test_classify_intermediate():
    # theta = 1: gamma tuned so tau_gamma equals tau_e
    p = SystemParams(mu_bar=0.1, intensity=50.0, gamma=2.0 * 0.1 * math.sqrt(50.0) * 2.0)
    rep = classify_regime(derive_timescales(SystemParams(p.mu_bar, p.intensity, gamma=2.0 / 0.70711)))
    assert rep.regime == "intermediate"


@settings(max_examples=200, deadline=None)
@given(param_draws, st.floats(0.1, 10.0))
def test_classification_invariant_under_theta_preserving_rescaling(p, scale):
    """Scaling mu_bar and gamma together leaves theta, hence the label, fixed."""
    rep = classify_regime(derive_timescales(p))
    q = SystemParams(
        mu_bar=p.mu_bar * scale,
        intensity=p.intensity,
        beta_bar=p.beta_bar,
        gamma=p.gamma * scale,
    )
    rep2 = classify_regime(derive_timescales(q))
    assert rep2.theta == pytest.approx(rep.theta, rel=1e-9)
    assert rep2.regime == rep.regime


def test_theta_bec_single_atom():
    th = theta_bec(5e-9, 1.5e-25, 2.0 * math.pi * 100.0, 1.0, 2.0 * math.pi * 1e2)
    assert th == pytest.approx(2.37, abs=0.03)


def test_theta_bec_condensate():
    th = theta_bec(5e-9, 1.5e-25, 2.0 * math.pi * 100.0, 1e4, 2.0 * math.pi * 1e2)
    assert th == pytest.approx(237.0, abs=1.0)


def test_theta_bec_sqrt_n_scaling():
    args = (5e-9, 1.5e-25, 2.0 * math.pi * 100.0)
    assert theta_bec(*args, 400.0, 10.0) == pytest.approx(
        2.0 * theta_bec(*args, 100.0, 10.0), rel=1e-12
    )
    with pytest.raises(ValueError):
        theta_bec(*args, 0.0, 10.0)


def test_theta_cantilever_values():
    assert theta_cantilever(1.0, 1.0, 16.0) == pytest.approx(1.0, rel=1e-12)
    # Theta scales as 1/sqrt(n)
    assert theta_cantilever(1.0, 1.0, 16.0 * 100.0) == pytest.approx(0.1, rel=1e-12)
    # borderline anharmonicity for a megahertz-quality flexural mode
    assert theta_cantilever(0.19365, 1e6, 6e11) == pytest.approx(1.0, abs=5e-3)
    with pytest.raises(ValueError):
        theta_cantilever(1.0, 0.0, 16.0)
    with pytest.raises(ValueError):
        theta_cantilever(1.0, 1.0, -1.0)


def test_validate_params_errors():
    bad = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=-1.0)
    out = validate_params(bad)
    assert any(v.level == "error" and "beta_bar" in v.message for v in out)
    assert out == sorted(out, key=lambda v: v.level)  # errors first


def test_validate_params_cutoff_warning():
    p = SystemParams(mu_bar=0.1, intensity=50.0, gamma=1e-4, lambda_bar=1.0)
    out = validate_params(p)
    warn = [v for v in out if v.level == "warning"]
    assert any("cutoff below system frequency" in v.message for v in warn)
    assert warn == out  # a warning is not an error


def test_validate_params_truncation_warning():
    p = SystemParams(mu_bar=0.1, intensity=300.0, gamma=1e-4)
    out = validate_params(p)
    assert any(v.level == "warning" and "Fock cutoff" in v.message for v in out)


def test_validate_params_clean():
    # lambda_bar must exceed omega_bar = 11.1 for a warning-free set
    p = SystemParams(mu_bar=0.1, intensity=50.0, gamma=1e-4, lambda_bar=100.0)
    assert validate_params(p) == []
    assert isinstance(Violation("warning", "x"), Violation)
