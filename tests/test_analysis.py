"""Fitters against synthetic signals with known answers.

Every fit here is exercised first on data generated from the exact model it
assumes, where recovery must be essentially exact, then on real trajectories
where only physical tolerances apply.
"""

import math
import re

import numpy as np
import pytest

from kerrbath import (
    IntegratorConfig,
    SystemParams,
    asymptotic_b1_at,
    cat_offdiagonal_rate,
    cat_state_density,
    derive_timescales,
    evolve,
    extract_envelope_peaks,
    fit_ehrenfest_bump,
    fit_position_spectrum,
    fock_cutoff,
    overlap_rate_modulated,
    predicted_overlap_rate,
)

from kerrbath.analysis import fit_spectral_width

from analytic_oracle import (
    discrete_spectrum,
    fit_recurrence_decay,
    fit_relaxation_decay,
    gaussian_residual,
    x_closed,
)


# ---------------------------------------------------------------------------
# peak extraction


def test_extract_peaks_cosine():
    t = np.linspace(0.0, 20.0, 4001)
    pt, ph = extract_envelope_peaks(t, np.cos(t))
    # |cos| peaks at every multiple of pi; endpoints are excluded
    want = np.arange(1, 7) * math.pi
    assert pt.size == want.size
    np.testing.assert_allclose(pt, want, atol=1e-4)
    np.testing.assert_allclose(ph, 1.0, atol=1e-5)


def test_extract_peaks_damped_heights():
    t = np.linspace(0.0, 10.0, 20001)
    x = np.exp(-t / 5.0) * np.cos(8.0 * t)
    pt, ph = extract_envelope_peaks(t, x)
    # peak heights track the envelope at the peak times
    np.testing.assert_allclose(ph, np.exp(-pt / 5.0), rtol=2e-3)


def test_extract_peaks_floor_drops_noise():
    t = np.linspace(0.0, 10.0, 2001)
    x = np.where(t < 5.0, np.cos(10.0 * t), 1e-5 * np.cos(13.0 * t))
    pt, _ = extract_envelope_peaks(t, x, floor_frac=1e-3)
    assert pt.max() < 5.0


def test_extract_peaks_validation():
    with pytest.raises(ValueError, match="same length"):
        extract_envelope_peaks([0.0, 1.0], [1.0])
    pt, ph = extract_envelope_peaks([0.0, 1.0], [1.0, 2.0])
    assert pt.size == 0 and ph.size == 0
    # a monotone record has no interior maximum above the floor
    pt, ph = extract_envelope_peaks(np.arange(5.0), np.arange(5.0))
    assert pt.size == 0 and ph.size == 0


def test_extract_peaks_on_closed_trajectory():
    """Kerr collapse/revival: bump maxima sit at multiples of tau_r."""
    p = SystemParams(mu_bar=0.1, intensity=20.0)
    tau_r = math.pi / p.mu_bar
    t = np.linspace(0.0, 2.2 * tau_r, 60001)
    pt, ph = extract_envelope_peaks(t, x_closed(p, t))
    for k in (1, 2):
        near = np.abs(pt - k * tau_r) < 2.0
        assert near.any()
        tallest = pt[near][np.argmax(ph[near])]
        assert abs(tallest - k * tau_r) < 0.6


# ---------------------------------------------------------------------------
# bump and decay fits


def synth_gaussian_peaks(tau_e, height=1.0, span=3.0, n=25):
    t = np.linspace(-span * tau_e, span * tau_e, n)
    return t, height * np.exp(-(t**2) / (2.0 * tau_e**2))


def test_bump_fit_exact_recovery():
    t, h = synth_gaussian_peaks(0.707, height=2.5)
    fit = fit_ehrenfest_bump(t, h)
    assert fit.tau_e == pytest.approx(0.707, rel=1e-10)
    assert fit.height == pytest.approx(2.5, rel=1e-10)
    assert fit.center == 0.0
    assert fit.n_peaks == 25
    assert fit.residual_rms < 1e-12


def test_bump_fit_pinned_center_and_window():
    tau_r = 10.0
    t, h = synth_gaussian_peaks(0.9)
    # contaminate with a stray tall peak one revival away; the window drops it
    t = np.append(t, tau_r)
    h = np.append(h, 5.0)
    fit = fit_ehrenfest_bump(t, h, tau_r=tau_r)
    assert fit.center == 0.0
    assert fit.n_peaks == 25
    assert fit.tau_e == pytest.approx(0.9, rel=1e-10)


def test_bump_fit_errors():
    with pytest.raises(ValueError, match="at least 5 peaks"):
        fit_ehrenfest_bump([0.0, 0.1, 0.2, 0.3], [1.0, 0.9, 0.9, 0.8])
    t = np.linspace(-1.0, 1.0, 9)
    with pytest.raises(ValueError, match="not bump-shaped"):
        fit_ehrenfest_bump(t, np.exp(t * t))


def test_bump_fit_on_closed_trajectory():
    p = SystemParams(mu_bar=0.1, intensity=50.0)
    tau_e = 1.0 / (2.0 * p.mu_bar * math.sqrt(p.intensity))
    t = np.linspace(0.0, 2.5, 20001)
    pt, ph = extract_envelope_peaks(t, x_closed(p, t))
    fit = fit_ehrenfest_bump(pt, ph, tau_r=math.pi / p.mu_bar)
    assert fit.tau_e == pytest.approx(tau_e, rel=0.1)


def test_recurrence_decay_exact():
    tau_r = 31.4159
    tau_d = 18.0
    t = np.concatenate([k * tau_r + np.linspace(-1.0, 1.0, 5) for k in range(3)])
    h = np.exp(-np.abs(t - np.rint(t / tau_r) * tau_r)) * np.exp(
        -np.rint(t / tau_r) * tau_r / tau_d
    )
    fit = fit_recurrence_decay(t, h, tau_r)
    assert fit.tau_d == pytest.approx(tau_d, rel=1e-10)
    assert fit.method == "peak-ratio"
    assert fit.n_points == 3
    assert math.isfinite(fit.uncertainty)
    # two bumps leave no spare degrees of freedom
    two = fit_recurrence_decay(t[t < 1.5 * tau_r], h[t < 1.5 * tau_r], tau_r)
    assert two.tau_d == pytest.approx(tau_d, rel=1e-10)
    assert math.isnan(two.uncertainty)


def test_recurrence_decay_errors():
    with pytest.raises(ValueError, match="tau_r"):
        fit_recurrence_decay([0.0], [1.0], -1.0)
    with pytest.raises(ValueError, match="no peaks"):
        fit_recurrence_decay([], [], 10.0)
    with pytest.raises(ValueError, match="cat_offdiagonal_rate"):
        fit_recurrence_decay([0.0, 0.5, 1.0], [1.0, 0.9, 0.8], 100.0)
    with pytest.raises(ValueError, match="do not decay"):
        fit_recurrence_decay([0.0, 10.0], [1.0, 2.0], 10.0)


def test_relaxation_decay_exact():
    t = np.linspace(0.0, 120.0, 40)
    fit = fit_relaxation_decay(t, 3.0 * np.exp(-t / 50.0))
    assert fit.decay_time == pytest.approx(50.0, rel=1e-10)
    assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
    assert fit.residual_rms < 1e-12


def test_relaxation_decay_short_window_warns():
    t = np.linspace(0.0, 30.0, 12)
    with pytest.warns(UserWarning, match="extrapolated"):
        fit_relaxation_decay(t, np.exp(-t / 50.0))


def test_relaxation_decay_errors():
    with pytest.raises(ValueError, match="at least 4"):
        fit_relaxation_decay([0.0, 1.0, 2.0], [1.0, 0.9, 0.8])
    t = np.linspace(0.0, 10.0, 8)
    with pytest.raises(ValueError, match="do not decay"):
        fit_relaxation_decay(t, np.exp(t / 5.0))


def test_gaussian_residual_separates_models():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 400.0, 60)
    h = np.exp(-t / 200.0) * np.exp(rng.normal(0.0, 0.01, t.size))
    exp_fit = fit_relaxation_decay(t, h)
    gauss_rms = gaussian_residual(t, h, tau_e=707.0)
    assert gauss_rms > 5.0 * exp_fit.residual_rms
    # and a true Gaussian is accepted by the same measure
    tg, hg = synth_gaussian_peaks(707.0, span=0.5, n=60)
    assert gaussian_residual(tg, hg, tau_e=707.0) < 1e-12
    with pytest.raises(ValueError, match="at least 2"):
        gaussian_residual([0.0], [1.0], 1.0)
    with pytest.raises(ValueError, match="positive"):
        gaussian_residual([0.0, 1.0], [1.0, 0.5], -1.0)


# ---------------------------------------------------------------------------
# spectra


def test_discrete_spectrum_pure_tone():
    n = 512
    dt = 0.1
    t = np.arange(n) * dt
    w0 = 2.0 * math.pi * 16 / (n * dt)  # exactly on a frequency bin
    omegas, amps = discrete_spectrum(t, np.cos(w0 * t))
    k = int(np.argmax(amps))
    assert omegas[k] == pytest.approx(w0, rel=1e-12)
    assert amps[k] == pytest.approx(0.5, rel=1e-12)
    off = np.delete(amps, k)
    assert off.max() < 1e-12


def test_discrete_spectrum_constant_input():
    t = np.arange(64) * 0.5
    omegas, amps = discrete_spectrum(t, np.full(64, 0.73))
    assert omegas[0] == 0.0
    assert amps[0] == pytest.approx(0.73, rel=1e-12)
    assert amps[1:].max() < 1e-13


def test_discrete_spectrum_validation():
    """fit_position_spectrum checks the samples it transforms."""
    t = np.arange(16) * 0.1
    with pytest.raises(ValueError, match="uniform"):
        fit_position_spectrum(t**1.5 + t, np.ones(16), 0.0)
    with pytest.raises(ValueError, match="at least 8"):
        fit_position_spectrum(t[:4], np.ones(4), 0.0)
    with pytest.raises(ValueError, match="unknown window"):
        fit_position_spectrum(t, np.ones(16), 0.0, window="hamming")
    with pytest.raises(ValueError, match="same length"):
        fit_position_spectrum(t, np.ones(15), 0.0)


def test_hann_window_cuts_leakage():
    n = 1024
    t = np.arange(n) * 0.05
    w0 = 2.0 * math.pi * (100.5) / (n * 0.05)  # midway between bins
    sig = np.cos(w0 * t)
    _, rect = discrete_spectrum(t, sig)
    _, hann = discrete_spectrum(t, sig, window="hann")
    k = int(np.argmax(rect))
    far = slice(k + 50, k + 200)
    assert hann[far].max() < 1e-3 * rect[far].max()


def test_comb_spacing_matches_level_gaps():
    """The closed signal is a comb at the transition frequencies, spacing
    2 mu_bar."""
    p = SystemParams(mu_bar=0.1, intensity=20.0)
    tau_r = math.pi / p.mu_bar
    n = 8192
    t = np.arange(n) * (2.0 * tau_r / n)  # whole-period window: on-bin lines
    omegas, amps = discrete_spectrum(t, x_closed(p, t))
    ct, ch = extract_envelope_peaks(omegas, amps, floor_frac=0.0)
    keep = ch > 0.05 * ch.max()
    gaps = np.diff(ct[keep])
    np.testing.assert_allclose(gaps, 2.0 * p.mu_bar, rtol=1e-6)


@pytest.mark.parametrize("mu_bar,intensity", [(0.05, 20.0), (0.1, 20.0), (0.05, 50.0), (0.1, 50.0)])
def test_spectral_width_recovers_tau_e(mu_bar, intensity):
    p = SystemParams(mu_bar=mu_bar, intensity=intensity)
    tau_e = 1.0 / (2.0 * mu_bar * math.sqrt(intensity))
    tau_r = math.pi / mu_bar
    n = 16384
    t = np.arange(n) * (2.0 * tau_r / n)
    _, _, fit = fit_position_spectrum(t, x_closed(p, t), p.theta)
    assert fit.route == "comb"
    assert fit.width == pytest.approx(1.0 / tau_e, rel=0.10)
    assert fit.tau_e_estimate == pytest.approx(tau_e, rel=0.10)
    assert fit.center == pytest.approx(1.0 + 2.0 * mu_bar * intensity, abs=0.2)


def _closed_record(theta, samples=2048):
    """A closed run over one recurrence period 2 tau_r, without its
    periodic endpoint."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, theta=theta)
    duration = 2.0 * math.pi / p.mu_bar
    t = evolve(p, duration, config=IntegratorConfig(dtau=duration / samples))
    return t.taus[:-1], t.x[:-1]


def test_comb_lines_carry_the_start_phase():
    """For x = sqrt(2) sum_n w_n cos(Omega_n tau + theta) each line bin
    carries e^{+i theta}, so e^{-i theta} aligns it onto the real axis (the
    opposite sign leaves |Im| = |X| at theta = pi/4). The width fit sees the
    aligned quadrature: at pi/4 it gives the theta = 0 width."""
    theta = math.pi / 4.0
    taus, x = _closed_record(theta)
    spec = np.fft.rfft(x)
    k = int(np.argmax(np.abs(spec)))
    assert abs((spec[k] * np.exp(-1j * theta)).imag) <= 1e-9 * abs(spec[k])
    _, _, fit = fit_position_spectrum(taus, x, theta)
    _, _, ref = fit_position_spectrum(*_closed_record(0.0), 0.0)
    assert fit.route == "comb"
    assert fit.width == pytest.approx(ref.width, rel=1e-9)


def test_closed_width_does_not_depend_on_theta():
    """The aligned width is the same for every start phase; the unaligned
    Re X has no comb to fit at theta = pi/2. The amplitudes are |X|/N, as
    discrete_spectrum gives them, bit for bit."""
    widths = []
    for theta in (0.0, 0.7, math.pi / 2.0, 2.5):
        taus, x = _closed_record(theta)
        omegas, amps, fit = fit_position_spectrum(taus, x, theta)
        ref_omegas, ref_amps = discrete_spectrum(taus, x)
        np.testing.assert_array_equal(omegas, ref_omegas)
        np.testing.assert_array_equal(amps, ref_amps)
        assert fit.route == "comb"
        widths.append(fit.width)
    np.testing.assert_allclose(widths, widths[0], rtol=1e-9)


def test_spectral_width_multimodal_warns():
    w = np.linspace(0.0, 20.0, 400)
    amps = np.exp(-((w - 5.0) ** 2)) + 0.8 * np.exp(-((w - 12.0) ** 2))
    with pytest.warns(UserWarning, match="secondary structure"):
        fit_spectral_width(w, amps)


def test_spectral_width_needs_resolution():
    w = np.linspace(0.0, 10.0, 8)
    amps = np.exp(-((w - 5.0) ** 2) / 0.5)
    with pytest.raises(ValueError, match="longer time window"):
        fit_spectral_width(w, amps)
    with pytest.raises(ValueError, match="non-empty"):
        fit_spectral_width([], [])
    # every bin is above half maximum, and ln(amplitude) curves upward
    w = np.linspace(0.0, 10.0, 20)
    with pytest.raises(ValueError, match="not peak-shaped"):
        fit_spectral_width(w, np.exp(0.01 * (w - 5.0) ** 2))


# ---------------------------------------------------------------------------
# superposition decoherence fits


def test_cat_rate_exact_recovery():
    t = np.linspace(0.0, 100.0, 200)
    # quadratic drift on top of the secular decay is absorbed by the fit
    f = np.exp(-0.02 * t - 1e-5 * t * t)
    fit = cat_offdiagonal_rate(t, f, t_min=0.0)
    assert fit.rate == pytest.approx(0.02, rel=1e-9)
    assert fit.tau_d == pytest.approx(50.0, rel=1e-9)
    assert fit.method == "cat-overlap"
    assert math.isfinite(fit.uncertainty)


def test_cat_rate_errors():
    t = np.linspace(0.0, 10.0, 50)
    with pytest.raises(ValueError, match="does not decay"):
        cat_offdiagonal_rate(t, np.exp(0.1 * t))
    with pytest.raises(ValueError, match="same length"):
        cat_offdiagonal_rate(t, np.ones(49))
    with pytest.raises(ValueError, match="usable samples"):
        cat_offdiagonal_rate(t[:3], np.exp(-t[:3]))


def test_modulated_fit_exact_recovery():
    """The fit's own model, with a free cross-quadrature term inside one
    period, gives back its secular rate."""
    r, omega, theta0 = 0.4, 5.1, -math.pi / 4.0
    t = np.linspace(0.0, 2.0, 400)
    two = 2.0 * theta0
    f_q = 0.5 * t + (math.sin(two) - np.sin(two - 2.0 * omega * t)) / (4.0 * omega)
    g_q = (np.cos(two - 2.0 * omega * t) - math.cos(two)) / (4.0 * omega)
    env = 0.5 * np.exp(-2.0 * r * f_q - 0.7 * g_q)
    fit = overlap_rate_modulated(t, env, omega, theta0)
    assert fit.rate == pytest.approx(r, rel=1e-9)
    assert fit.method == "modulated"


def test_period_matched_cancels_modulation():
    """A cos^2 modulated rate written as an orbit phase across 12
    half-periods is stripped exactly by the modulated fit."""
    r, omega, theta0 = 0.03, 2.0, 0.6
    t = np.arange(0, 1200) * (math.pi / omega / 100.0)
    phase = omega * t - theta0
    exponent = r * (t + (np.sin(2.0 * phase) + math.sin(2.0 * theta0)) / (2.0 * omega))
    fit = overlap_rate_modulated(t, np.exp(-exponent), omega, theta0)
    assert fit.rate == pytest.approx(r, rel=1e-9)
    assert fit.method == "modulated"


def test_modulated_fit_errors():
    t = np.linspace(0.0, 2.0, 100)
    with pytest.raises(ValueError, match="usable samples"):
        overlap_rate_modulated(t, np.full(t.size, 1e-15), 5.0, 0.0)
    with pytest.raises(ValueError, match="does not decay"):
        overlap_rate_modulated(t, np.exp(0.3 * t), 5.0, 0.0)
    with pytest.raises(ValueError, match="same length"):
        overlap_rate_modulated(t, np.ones(t.size - 1), 5.0, 0.0)


T_FIT = np.linspace(0.0, 2.0, 100)


@pytest.mark.parametrize("fit,args,message", [
    *[(overlap_rate_modulated, dict(omega=omega), f"omega must be positive and finite, got {omega}")
      for omega in (0.0, -5.0, math.inf, math.nan)],
    *[(overlap_rate_modulated, dict(theta0=theta0), f"theta0 must be finite, got {theta0}")
      for theta0 in (math.inf, math.nan)],
    *[(fit_position_spectrum, dict(theta=theta), f"theta must be finite, got {theta}")
      for theta in (math.inf, math.nan)],
], ids=["omega-zero", "omega-negative", "omega-inf", "omega-nan", "theta0-inf", "theta0-nan",
        "theta-inf", "theta-nan"])
def test_fitters_refuse_bad_scalar_inputs(fit, args, message):
    """The fitters name a frequency or phase that is not finite, or a
    modulation frequency that is not positive. (omega = 0 raised numpy's
    divide RuntimeWarning, and omega = nan made LAPACK print "DLASCL
    parameter number 4 had an illegal value" twice before a LinAlgError;
    theta = inf raised a RuntimeWarning, and theta = nan reported that only
    1 point resolved the dominant lobe.)"""
    if fit is overlap_rate_modulated:
        base = dict(taus=T_FIT, overlap=np.exp(-T_FIT), omega=5.0, theta0=0.0)
    else:
        base = dict(taus=T_FIT, x=np.cos(5.0 * T_FIT), theta=0.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit(**{**base, **args})


def test_predicted_rate_identities():
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4)
    b1 = asymptotic_b1_at(p, p.omega_bar)
    # the quarter-orbit pair's squared separation is I0: the rate is 2 B1 I0,
    # the inverse tau_d with the cutoff factor
    rate = predicted_overlap_rate(p)
    assert rate == pytest.approx(2.0 * b1 * p.intensity, rel=1e-14)
    lam2, om2 = p.lambda_bar**2, p.omega_bar**2
    tau_d = derive_timescales(p).tau_d
    assert rate == pytest.approx(lam2 / (om2 + lam2) / tau_d, rel=1e-12)


def test_recurrence_and_cat_routes_agree():
    """The revival-height decay and the cat-coherence decay measure the same
    tau_d within their systematics."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=6.5e-4, lambda_bar=30.0)
    tau_r = math.pi / p.mu_bar

    run_a = evolve(p, 1.35 * tau_r, mode="born-markov-asymptotic",
                   config=IntegratorConfig(frame="rotating"))
    pt, ph = extract_envelope_peaks(run_a.taus, run_a.x)
    rec = fit_recurrence_decay(pt, ph, tau_r)

    al = math.sqrt(p.intensity)
    rho0 = cat_state_density(al, -al, fock_cutoff(p.intensity))
    run_b = evolve(p, 27.0, mode="born-markov-asymptotic", rho0=rho0,
                   config=IntegratorConfig(frame="rotating",
                                           overlap_pair=(al, -al)))
    cat = cat_offdiagonal_rate(run_b.taus, run_b.overlap, t_min=2.0)

    assert rec.tau_d == pytest.approx(cat.tau_d, rel=0.30)
