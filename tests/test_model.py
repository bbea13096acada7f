"""Timescales, regime classification and experimental-scale estimates."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrbath import (
    RegimeReport,
    SystemParams,
    Violation,
    classify_regime,
    asymptotic_b1_at,
    QuadratureError,
    asymptotic_coefficients,
    derive_timescales,
    evolve,
    theta_bec,
    theta_cantilever,
    transient_coefficients,
    validate_params,
)
from kerrbath.model import THETA_HI, THETA_LO, theta_regime

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
# theta = 10.0 before the rescaling and 10.000000000000002 after it: one ulp
# across THETA_HI
@example(SystemParams(mu_bar=0.25, intensity=1.0, gamma=0.09999999999999999), 3.0)
def test_classification_invariant_under_theta_preserving_rescaling(p, scale):
    """Scaling mu_bar and gamma together leaves theta fixed to round-off,
    hence the label wherever theta is more than 1e-9 relative from both
    thresholds; within round-off of one the label may flip on the last ulp."""
    rep = classify_regime(derive_timescales(p))
    q = SystemParams(
        mu_bar=p.mu_bar * scale,
        intensity=p.intensity,
        beta_bar=p.beta_bar,
        gamma=p.gamma * scale,
    )
    rep2 = classify_regime(derive_timescales(q))
    assert rep2.theta == pytest.approx(rep.theta, rel=1e-9)
    if all(abs(rep.theta - t) > 1e-9 * t for t in (THETA_HI, THETA_LO)):
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


def test_validate_params_one_rule():
    """Every field must be a finite number of its sign, except beta_bar = +inf
    (zero temperature); an error set carries no warnings. (gamma, theta,
    lambda_bar and mu_bar = inf passed, and mu_bar = inf warned that the
    cutoff lies below omega_bar = inf.)"""
    base = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    for name in ("mu_bar", "intensity", "gamma", "lambda_bar", "theta"):
        out = validate_params(dataclasses.replace(base, **{name: math.inf}))
        assert [v.level for v in out] == ["error"]
        assert out[0].message.startswith(f"{name} must be ")
        assert out[0].message.endswith("finite, got inf")
    assert validate_params(dataclasses.replace(base, beta_bar=math.inf)) == []
    out = validate_params(dataclasses.replace(base, beta_bar=-math.inf))
    assert [v.message for v in out] == ["beta_bar must be positive, got -inf"]


@pytest.mark.parametrize("changes,message", [
    (dict(gamma=math.inf), "gamma must be non-negative and finite, got inf"),
    (dict(lambda_bar=math.inf), "lambda_bar must be positive and finite, got inf"),
    (dict(theta=math.nan), "theta must be a number, got nan"),
    (dict(beta_bar=0.0), "beta_bar must be positive, got 0.0"),
], ids=["gamma-inf", "lambda-inf", "theta-nan", "beta-zero"])
def test_derive_timescales_refuses_validate_params_errors(changes, message):
    """derive_timescales refuses what validate_params calls an error.
    (gamma = inf gave tau_d = 0 and the classical verdict; the others
    returned timescales of an unusable set.)"""
    p = dataclasses.replace(SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3), **changes)
    with pytest.raises(ValueError, match=re.escape(message)):
        derive_timescales(p)


BEC_ARGS = dict(scattering_length=5e-9, atom_mass=1.5e-25, trap_omega=628.3, n_atoms=1e4,
                tau_gamma=628.3)
CANTILEVER_ARGS = dict(mu_cl=0.194, quality=1e6, n_levels=6e11)


@pytest.mark.parametrize("name,value", [
    *[(name, value) for name in ("atom_mass", "trap_omega", "tau_gamma")
      for value in (math.nan, math.inf, 0.0, -1.0)],
    *[(name, value) for name in ("n_atoms", "scattering_length", "quality", "n_levels")
      for value in (math.nan, math.inf)],
    ("mu_cl", math.nan), ("mu_cl", -math.inf),
])
def test_theta_estimates_refuse_bad_inputs(name, value):
    """The laboratory estimates name an input that is not a finite number,
    or not positive where the formula needs it (the scattering length and
    mu_cl may have either sign). (A nan gave theta = nan, a negative mass
    "math domain error", and an infinite or zero input an infinite or zero
    theta.)"""
    func, args = (theta_bec, BEC_ARGS) if name in BEC_ARGS else (theta_cantilever, CANTILEVER_ARGS)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        func(**{**args, name: value})


@pytest.mark.parametrize("func,args,message", [
    (theta_cantilever, dict(CANTILEVER_ARGS, mu_cl=1e300, quality=1e300, n_levels=1.0),
     "mu_cl = 1e+300, quality = 1e+300 and n_levels = 1 overflow theta"),
    (theta_cantilever, dict(CANTILEVER_ARGS, mu_cl=1e-300, quality=1e-300),
     "mu_cl = 1e-300, quality = 1e-300 and n_levels = 6e+11 underflow theta"),
    (theta_bec, dict(BEC_ARGS, n_atoms=1e300, scattering_length=0.0, atom_mass=1e300,
                     trap_omega=1e300, tau_gamma=1.0),
     "atom_mass = 1e+300, trap_omega = 1e+300 and n_atoms = 1e+300 overflow 2 m omega N"),
], ids=["cantilever-inf", "cantilever-zero", "bec-nan"])
def test_theta_estimates_refuse_overflow(func, args, message):
    """Finite inputs whose estimate is not finite, or is zero from nonzero
    inputs, are refused by name. (The cantilever gave theta = inf and 0, and
    the condensate 0 * inf = nan.)"""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        func(**args)


def test_theta_regime_refuses_nan():
    """nan is no verdict (it was called intermediate)."""
    with pytest.raises(ValueError, match="theta must be a number, got nan"):
        theta_regime(math.nan)


# every positive finite float, subnormals included, log-uniformly: e^-745.13
# rounds to the least subnormal 5e-324 and e^709.78 is 1.8e308
positive_floats = st.floats(-745.13, 709.78).map(math.exp)
SIGNED = {"mu_bar": st.one_of(st.just(0.0), positive_floats),
          "gamma": st.one_of(st.just(0.0), positive_floats),
          "theta": st.one_of(st.just(0.0), positive_floats, positive_floats.map(lambda v: -v))}
any_params = st.builds(SystemParams, **{f.name: SIGNED.get(f.name, positive_floats)
                                        for f in dataclasses.fields(SystemParams)})
RHO0 = np.outer([0.8, 0.6, 0.0, 0.0], [0.8, 0.6, 0.0, 0.0]).astype(complex)


@settings(max_examples=300, deadline=None)
@given(any_params, st.one_of(st.just(0.0), positive_floats))
@example(SystemParams(mu_bar=0.1, intensity=5.0), 1e-322)  # a closed grid of dtau = 0
@pytest.mark.filterwarnings("ignore::kerrbath.TruncationLeakWarning")
def test_numeric_domain_is_closed(p, tau):
    """Every field drawn jointly over the whole float range: the timescales,
    both coefficient sets and a closed run either come out finite, with
    infinite times only where mu_bar = 0 or gamma = 0, or are refused with
    ValueError (or QuadratureError), and no numpy warning comes first."""
    try:
        s = derive_timescales(p)
    except ValueError:
        pass
    else:
        mu_times = (s.tau_e, s.tau_r) if p.mu_bar > 0 else ()
        gamma_times = (s.tau_d, s.tau_gamma) if p.gamma > 0 else ()
        ratio = (s.theta,) if p.mu_bar > 0 and p.gamma > 0 else ()
        for value in (s.tau_cl, *mu_times, *gamma_times, *ratio):
            assert math.isfinite(value) and value > 0.0
    for coefficients in (lambda: asymptotic_coefficients(p, 4),
                         lambda: transient_coefficients(p, 4, tau)):
        try:
            c = coefficients()
        except (ValueError, QuadratureError):
            continue
        for part in (c.a1, c.a2, c.b1, c.b2, c.err):
            assert np.all(np.isfinite(part))
    try:
        run = evolve(p, tau, mode="closed", rho0=RHO0)
    except ValueError:
        return
    for values in (run.a_expect, run.n_expect, run.trace, run.herm_defect, run.final_rho):
        assert np.all(np.isfinite(values))
