"""Closed-form trajectories, envelopes, line spectra and the decay exponent.

The package's two closed forms are checked here together with the analytic
oracle built on them (tests/analytic_oracle.py). The damped closed form is pinned to a frozen density-matrix integration
value; the line-weight formula is cross-checked against its period-average
quadrature route; everything else follows from elementary limits of the
formulas (recurrence, mu -> 0, gamma -> 0) that are asserted directly.
"""

import math

import numpy as np
import pytest

from kerrbath import SystemParams, alpha_closed, alpha_lindblad_rwa, derive_timescales

from analytic_oracle import (
    bump_envelope,
    decay_factor,
    ehrenfest_envelope,
    fourier_lines,
    gaussian_envelope,
    gaussian_spectrum,
    line_weights,
    line_weights_quadrature,
    reconstruct_lines,
    x_closed,
)


def test_recurrence_restores_modulus():
    p = SystemParams(mu_bar=0.1, intensity=20.0)
    tau_r = math.pi / p.mu_bar
    a = alpha_closed(p, np.array([0.0, tau_r, 2.0 * tau_r]))
    np.testing.assert_allclose(np.abs(a), math.sqrt(20.0), rtol=1e-12)


def test_modulus_periodicity():
    p = SystemParams(mu_bar=0.1, intensity=20.0)
    tau_r = math.pi / p.mu_bar
    taus = np.linspace(0.0, tau_r, 300)
    a0 = np.abs(alpha_closed(p, taus))
    a1 = np.abs(alpha_closed(p, taus + tau_r))
    assert np.max(np.abs(a1 - a0)) < 1e-12 * math.sqrt(20.0)


def test_harmonic_limit():
    p = SystemParams(mu_bar=0.0, intensity=20.0, theta=0.3)
    taus = np.linspace(0.0, 7.0, 50)
    np.testing.assert_allclose(
        alpha_closed(p, taus), p.alpha * np.exp(-1j * taus), rtol=1e-12
    )


def test_envelope_matches_modulus():
    p = SystemParams(mu_bar=0.1, intensity=50.0)
    taus = np.linspace(0.0, 3.0, 200)
    np.testing.assert_allclose(
        math.sqrt(2.0) * np.abs(alpha_closed(p, taus)),
        ehrenfest_envelope(p, taus),
        rtol=1e-12,
    )


def test_gaussian_envelope_early_times():
    """exp[I0(cos 2 mu t - 1)] ~ exp[-t^2/(2 tau_e^2)] while 2 mu t << 1."""
    p = SystemParams(mu_bar=0.1, intensity=50.0)
    tau_e = derive_timescales(SystemParams(0.1, 50.0, gamma=1e-9)).tau_e
    taus = np.linspace(0.0, 0.5 * tau_e, 40)
    exact = ehrenfest_envelope(p, taus)
    gauss = gaussian_envelope(p, taus)
    np.testing.assert_allclose(gauss, exact, rtol=1.0 / (300.0 * p.intensity))
    # and the Gaussian never revives
    assert gaussian_envelope(p, np.array([math.pi / p.mu_bar]))[0] < 1e-100


def test_envelope_value_at_first_bump_tail():
    # mu=0.01, I0=50 at tau=10: sqrt(100) e^{50(cos 0.2 - 1)} = 3.69
    p = SystemParams(mu_bar=1e-2, intensity=50.0)
    assert ehrenfest_envelope(p, np.array([10.0]))[0] == pytest.approx(3.7, abs=0.05)


def test_bump_envelope_model():
    assert bump_envelope(np.array([0.0]), 0.7071)[0] == pytest.approx(1.0)
    assert bump_envelope(np.array([0.7071]), 0.7071)[0] == pytest.approx(0.6065, abs=1e-4)
    v = bump_envelope(np.array([62.832]), 0.7071, n_bump=2, tau_r=31.416, tau_d=18.0)
    assert v[0] == pytest.approx(math.exp(-62.832 / 18.0), rel=1e-6)
    with pytest.raises(ValueError):
        bump_envelope(np.array([0.0]), -1.0)


def test_rwa_reduces_to_closed_when_undamped():
    p = SystemParams(mu_bar=0.1, intensity=20.0, gamma=0.0)
    taus = np.linspace(0.0, 30.0, 500)
    np.testing.assert_allclose(
        alpha_lindblad_rwa(p, taus), alpha_closed(p, taus), rtol=1e-12, atol=1e-15
    )


def test_rwa_against_frozen_integration_oracle():
    """Density-matrix integration (dtau = 2e-4) at tau = 5 froze this value."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-3)
    oracle = -0.0004464131507816093 + 0.00013816684117644697j
    got = alpha_lindblad_rwa(p, np.array([5.0]))[0]
    assert abs(got - oracle) < 1e-9


def test_decay_factor_identity():
    """D(tau) = -ln|<a>(tau)/alpha| for random parameter draws."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = SystemParams(
            mu_bar=float(rng.uniform(1e-3, 1.0)),
            intensity=float(rng.uniform(1.0, 50.0)),
            beta_bar=1.0,
            gamma=float(rng.uniform(0.0, 1e-2)),
        )
        taus = rng.uniform(0.0, 60.0, size=5)
        d = decay_factor(p, taus)
        a = alpha_lindblad_rwa(p, taus)
        ident = -np.log(np.abs(a) / abs(p.alpha))
        np.testing.assert_allclose(d, ident, atol=1e-10)


def test_decay_factor_limits():
    p = SystemParams(mu_bar=0.1, intensity=20.0, gamma=0.0)
    assert decay_factor(p, np.array([0.0]))[0] == 0.0
    taus = np.linspace(0.0, 40.0, 100)
    np.testing.assert_allclose(
        decay_factor(p, taus),
        p.intensity * (1.0 - np.cos(2.0 * p.mu_bar * taus)),
        atol=1e-12,
    )
    # mu = 0: pure amplitude damping
    p0 = SystemParams(mu_bar=0.0, intensity=20.0, gamma=1e-2)
    np.testing.assert_allclose(decay_factor(p0, taus), 0.5 * 1e-2 * taus, atol=1e-15)


def test_line_weights_are_poisson():
    p = SystemParams(mu_bar=0.1, intensity=20.0)
    w = line_weights(p, 120)
    expect = np.empty(120)
    expect[0] = math.exp(-20.0)
    for n in range(1, 120):
        expect[n] = expect[n - 1] * 20.0 / n
    np.testing.assert_allclose(w, expect, rtol=1e-10)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    # the strongest line sits at the mean occupation
    assert abs(int(np.argmax(w)) - p.intensity) <= 1


def test_line_weights_quadrature_route():
    p = SystemParams(mu_bar=0.1, intensity=20.0)
    w = line_weights(p, 60)
    q, err = line_weights_quadrature(p, 60)
    np.testing.assert_allclose(q, w, atol=1e-10)
    assert np.all(err < 1e-9)
    with pytest.raises(ValueError):
        line_weights_quadrature(SystemParams(mu_bar=0.0, intensity=5.0), 10)


def test_reconstruction_matches_closed_form():
    p = SystemParams(mu_bar=0.1, intensity=20.0)
    omegas, amps = fourier_lines(p, 200)
    assert omegas[0] == pytest.approx(1.0 + p.mu_bar)
    np.testing.assert_allclose(np.diff(omegas), 2.0 * p.mu_bar, rtol=1e-12)
    taus = np.linspace(0.0, 2.0 * math.pi / p.mu_bar, 400)
    np.testing.assert_allclose(
        reconstruct_lines(omegas, amps, taus), x_closed(p, taus), atol=1e-6
    )


def test_gaussian_spectrum_shape():
    p = SystemParams(mu_bar=0.1, intensity=50.0)
    w_cl = 1.0 + 2.0 * p.mu_bar * p.intensity
    peak = gaussian_spectrum(p, np.array([w_cl]))[0]
    x0 = math.sqrt(2.0 * p.intensity)
    assert peak == pytest.approx(x0 * 0.0399, rel=1e-2)
    dw = 2.0 * p.mu_bar * math.sqrt(p.intensity)
    assert dw == pytest.approx(1.4142, abs=1e-3)
    at_width = gaussian_spectrum(p, np.array([w_cl + dw, w_cl - dw]))
    np.testing.assert_allclose(at_width, peak * math.exp(-0.5), rtol=1e-12)


def test_gaussian_spectrum_matches_comb_shape():
    """Peak-normalized smooth envelope vs the exact comb, 5% agreement."""
    p = SystemParams(mu_bar=0.1, intensity=50.0)
    omegas, amps = fourier_lines(p, 160)
    comb = np.abs(amps)
    comb = comb / comb.max()
    smooth = gaussian_spectrum(p, omegas)
    smooth = smooth / smooth.max()
    assert np.max(np.abs(comb - smooth)) < 0.05


def test_gaussian_spectrum_small_intensity_warns():
    p = SystemParams(mu_bar=0.1, intensity=5.0)
    with pytest.warns(UserWarning, match="I0"):
        gaussian_spectrum(p, np.array([1.0]))


def test_x_closed_is_sqrt2_re_alpha():
    p = SystemParams(mu_bar=0.05, intensity=30.0, theta=1.1)
    taus = np.linspace(0.0, 10.0, 50)
    np.testing.assert_allclose(
        x_closed(p, taus), math.sqrt(2.0) * alpha_closed(p, taus).real, atol=0
    )
    assert x_closed(p, np.array([0.0]))[0] == pytest.approx(
        math.sqrt(2.0 * 30.0) * math.cos(1.1), rel=1e-12
    )
