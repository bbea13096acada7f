"""End-to-end acceptance suite.

Each test measures one headline quantity of the package at its published
tolerance and records a one-line PASS/FAIL verdict; the conftest hook prints
the collected lines as a summary section after the run. Lines are recorded
before asserting so the summary stays complete even when a criterion fails.

Runs are registered in REGISTRY as they happen; the conservation criterion
then audits every registered trajectory.
"""

import dataclasses
import math
import multiprocessing

import numpy as np
import pytest

from kerrbath import (
    IntegratorConfig,
    SystemParams,
    alpha_closed,
    alpha_lindblad_rwa,
    cat_offdiagonal_rate,
    cat_state_density,
    derive_timescales,
    evolve,
    extract_envelope_peaks,
    fit_ehrenfest_bump,
    fit_position_spectrum,
    fock_cutoff,
    spectral_density,
    theta_bec,
    theta_cantilever,
)
from kerrbath.cli import draw_parameters, run_sweep_draw
from kerrbath.evolve import coefficient_settle_time

from analytic_oracle import decay_factor, fit_relaxation_decay, gaussian_residual

REGISTRY = []  # (label, mode, params, trajectory)


@pytest.fixture(scope="module")
def lines(pytestconfig):
    if not hasattr(pytestconfig, "acceptance_lines"):
        pytestconfig.acceptance_lines = []
    return pytestconfig.acceptance_lines


def note(lines, num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    lines.append(f"[{num:2d}] {verdict}  {name}: {detail}")


def register(label, mode, params, traj):
    REGISTRY.append((label, mode, params, traj))
    return traj


def test_01_weak_coupling_oracle(lines):
    """Integrators against exact closed forms at near-zero coupling, over one
    full recurrence: the closed route against the isolated form, the
    dissipative route against the rotating-wave form at its own decay rate."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-8)
    tau_r = math.pi / p.mu_bar
    tol = 1e-5 * math.sqrt(p.intensity)

    closed = register("oracle-closed", "closed", p, evolve(p, tau_r, mode="closed"))
    dev_closed = float(np.max(np.abs(closed.a_expect - alpha_closed(p, closed.taus))))

    bm = register(
        "oracle-bm", "born-markov-asymptotic", p,
        evolve(p, tau_r, mode="born-markov-asymptotic",
               config=IntegratorConfig(frame="rotating")),
    )
    # The dissipative run is not the isolated oscillator: against
    # alpha_closed it deviates by 1.18e-4, exactly linear in gamma (1.18e-5,
    # 1.18e-4, 1.18e-3 at gamma = 1e-9, 1e-8, 1e-7), unchanged at dtau/2, and
    # largest at tau_r, where the ratio to the isolated form has a modulus
    # deficit of 2.64e-5 and a phase of only 8.4e-7 rad. That is the
    # revival's physical decoherence, ~I0 gamma_down tau_r, not a frequency
    # pull. The secular (rotating-wave) reduction of the Born-Markov
    # generator is the Lindblad form with downward rate gamma_down = A2 + B1
    # and upward rate B1 - A2 at the level gap; A1 only shifts the gaps, by
    # -A1. The reference is therefore the rotating-wave closed form at
    # gamma_down(omega_bar) = 4.07e-8. The run meets it to 4.7e-6, 9.5x
    # inside the budget; the rest is the bath's level shifts (phase ~2e-6
    # rad at the worst sample) and the thermal upward rate, which the
    # zero-temperature reference leaves out.
    j_bar = spectral_density(p, p.omega_bar)
    gamma_down = 0.5 * j_bar * (1.0 + 1.0 / math.tanh(0.5 * p.beta_bar * p.omega_bar))
    secular = dataclasses.replace(p, gamma=gamma_down)
    dev_bm = float(np.max(np.abs(bm.a_expect - alpha_lindblad_rwa(secular, bm.taus))))

    ok = dev_closed < tol and dev_bm < tol
    note(lines, 1, "weak-coupling oracle", ok,
         f"closed dev {dev_closed:.3e}, dissipative dev {dev_bm:.3e} "
         f"(rotating-wave form at gamma_down {gamma_down:.3e}), tol {tol:.3e}")
    assert dev_closed < tol
    assert dev_bm < tol, f"max|d<a>| = {dev_bm:.4e} over [0, tau_r], budget {tol:.4e}"


def test_02_rwa_oracle(lines):
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-3)
    traj = register("oracle-rwa", "lindblad-rwa", p, evolve(p, 2.5, mode="lindblad-rwa"))
    rel = float(np.max(np.abs(traj.a_expect - alpha_lindblad_rwa(p, traj.taus))))
    rel /= math.sqrt(p.intensity)
    ok = rel < 1e-3
    note(lines, 2, "rotating-wave oracle", ok, f"relative dev {rel:.3e}, tol 1e-3")
    assert ok


def test_03_collapse_and_coherence_times(lines):
    """Quantum-surviving corner: collapse time from the first envelope bump,
    coherence lifetime from a two-lobe superposition at the same coupling."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4,
                     lambda_bar=100.0)
    tau_r = math.pi / p.mu_bar

    bump = register(
        "collapse-bump", "born-markov-asymptotic", p,
        evolve(p, 2.5, mode="born-markov-asymptotic",
               config=IntegratorConfig(frame="rotating")),
    )
    pt, ph = extract_envelope_peaks(bump.taus, bump.x)
    fit_e = fit_ehrenfest_bump(pt, ph, tau_r=tau_r)

    al = math.sqrt(p.intensity)
    rho0 = cat_state_density(al, -al, fock_cutoff(p.intensity))
    cat = register(
        "coherence-cat", "born-markov-asymptotic", p,
        evolve(p, 27.0, mode="born-markov-asymptotic", rho0=rho0,
               config=IntegratorConfig(frame="rotating", overlap_pair=(al, -al))),
    )
    fit_d = cat_offdiagonal_rate(cat.taus, cat.overlap, t_min=1.4)

    ok_e = abs(fit_e.tau_e - 0.71) <= 0.10 * 0.71
    ok_d = abs(fit_d.tau_d - 18.0) <= 0.20 * 18.0
    note(lines, 3, "collapse and coherence times", ok_e and ok_d,
         f"tau_e {fit_e.tau_e:.4f} (0.71 +- 10%), tau_d {fit_d.tau_d:.3f} (18 +- 20%)")
    assert ok_e, f"tau_e = {fit_e.tau_e}"
    assert ok_d, f"tau_d = {fit_d.tau_d}"


def test_04_survival_amplitude(lines):
    """At matched nonlinearity and damping the revival at tau = 10 survives
    orders of magnitude above the naive coherence extrapolation."""
    p = SystemParams(mu_bar=1e-2, intensity=50.0, beta_bar=1.0, gamma=1e-2)
    traj = register(
        "survival", "born-markov-asymptotic", p,
        evolve(p, 10.0, mode="born-markov-asymptotic",
               config=IntegratorConfig(frame="rotating", record_min_eig=True)),
    )
    assert traj.taus[-1] == pytest.approx(10.0)
    x10 = abs(traj.x[-1])
    floor = 1e3 * 1.3e-5
    ok = (abs(x10 - 3.7) <= 0.30 * 3.7) and (x10 > floor)
    note(lines, 4, "moderate-damping survival", ok,
         f"|x(10)| = {x10:.3f} (3.7 +- 30%, and > {floor:g})")
    assert ok, f"|x(10)| = {x10}"


def test_05_classical_ring_down(lines):
    """Vanishing nonlinearity: plain exponential relaxation at tau_gamma,
    and the fixed-width Gaussian alternative clearly rejected."""
    p = SystemParams(mu_bar=1e-4, intensity=50.0, beta_bar=1.0, gamma=1e-2)
    traj = register(
        "classical", "born-markov-asymptotic", p,
        evolve(p, 400.0, mode="born-markov-asymptotic",
               config=IntegratorConfig(frame="rotating")),
    )
    pt, ph = extract_envelope_peaks(traj.taus, traj.x)
    fit = fit_relaxation_decay(pt, ph)
    tau_gamma = 2.0 / p.gamma
    gauss_rms = gaussian_residual(pt, ph, tau_e=707.0)
    rejection = gauss_rms / fit.residual_rms if fit.residual_rms > 0 else math.inf
    ok_t = abs(fit.decay_time - tau_gamma) <= 0.10 * tau_gamma
    ok_r = rejection >= 5.0
    note(lines, 5, "classical ring-down", ok_t and ok_r,
         f"decay {fit.decay_time:.1f} (200 +- 10%), gaussian rejected {rejection:.1f}x (>= 5x)")
    assert ok_t, f"decay_time = {fit.decay_time}"
    assert ok_r, f"rejection = {rejection}"


def test_06_spectral_width_invariance(lines):
    """The envelope width of the position spectrum tracks 1/tau_e and the
    carrier stays at the orbit frequency of the bump's own intensity,
    independent of the coupling."""
    want = math.sqrt(2.0)
    details = []
    ok = True
    for gamma in (1e-5, 1e-4, 1e-3, 1e-2):
        p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=gamma,
                         lambda_bar=100.0)
        duration = 2.0 * math.pi / p.mu_bar
        traj = register(
            f"spectrum-g{gamma:g}", "born-markov-asymptotic", p,
            evolve(p, duration, mode="born-markov-asymptotic",
                   config=IntegratorConfig(dtau=duration / 4096)),
        )
        _, _, fit = fit_position_spectrum(traj.taus[:-1], traj.x[:-1], p.theta)
        # Center against the orbit frequency of the intensity the bump has.
        # The bath relaxes <n> at ~J(omega_bar) ~ 11 gamma, not at 2/gamma
        # (at gamma = 1e-2, <n> falls from 50 to 43.3 by tau = 1), and A1
        # pulls the level gaps by -A1(omega_bar) = -gamma Lambda^3 /
        # (2 (Lambda^2 + omega_bar^2)), -0.494 at gamma = 1e-2 (the
        # instantaneous carrier of <a> over tau < 1 sits 0.49 below the
        # isolated one there, 0.049 at 1e-3). With <n>_bump the run's <n>
        # weighted by |<a>| over tau < tau_r/2, the reference
        # 1 + 2 mu <n>_bump - A1 is 11.00, 10.98, 10.85, 9.48; a fixed 11
        # presumes the intensity holds over the bump.
        # The gamma = 1e-4 center (10.82 against 10.98, the tightest margin)
        # is low because the record spans 2 tau_r and so also holds the
        # revival bump at tau_r, whose carrier the bath has already pulled
        # down. On a gamma = 0 record the fit gives 11.028 (each bump alone
        # 11.029). On the gamma = 1e-4 record, split at tau_r/2 and 3 tau_r/2,
        # the first bump alone gives center 10.980 (= its reference); the
        # revival bump alone gives 10.43 (its |<a>|-weighted <n> is 48.3
        # against 49.95) and carries 0.38 of the first bump's |<a>| mass.
        # Both are phase-aligned on the comb, so the whole record's center is
        # their mix, (10.98 + 0.38 * 10.43)/1.38 = 10.83, against the fitted
        # 10.82.
        bump = traj.taus < 0.25 * duration
        weight = np.abs(traj.a_expect[bump])
        n_bump = float(np.sum(weight * traj.n_expect[bump]) / np.sum(weight))
        lam2 = p.lambda_bar**2
        pull = 0.5 * gamma * lam2 * p.lambda_bar / (lam2 + p.omega_bar**2)
        center_ref = 1.0 + 2.0 * p.mu_bar * n_bump - pull
        ok_here = abs(fit.width - want) <= 0.15 * want and abs(fit.center - center_ref) <= 0.2
        ok = ok and ok_here
        details.append(
            f"g={gamma:g}: width {fit.width:.3f}, center {fit.center:.2f} "
            f"vs {center_ref:.2f} ({fit.route})")
    note(lines, 6, "spectral width invariance", ok,
         "; ".join(details) + " (phase-aligned; want width 1.414 +- 15%, "
         "center 1 + 2 mu <n>_bump - A1 +- 0.2)")
    assert ok, details


def _sweep_entry(spec):
    return run_sweep_draw(dict(spec, lambda_bar=None))


def test_07_sweep_scatter(lines):
    """Twenty seeded random draws: fitted versus analytic coherence time."""
    plan = draw_parameters(seed=1, draws=20)
    with multiprocessing.Pool(processes=4) as pool:
        results = pool.map(_sweep_entry, plan)
    ratios = np.array([abs(r["ln_ratio"]) for r in results])
    median = float(np.median(ratios))
    # positivity of the final states is reported, not bounded: the sweep
    # runs frozen coefficients from a product state (see acceptance 08)
    min_eig = min(r["final_min_eig"] for r in results)
    ok = median <= math.log(2.0)
    note(lines, 7, "sweep scatter", ok,
         f"median |ln(fit/theory)| = {median:.3f} over {len(results)} draws "
         f"(<= ln 2 = 0.693), worst {ratios.max():.3f}, "
         f"worst final min eig {min_eig:.2e}")
    assert ok
    for r in results:
        assert r["max_trace_deviation"] < 1e-9
        assert r["max_herm_defect"] < 1e-9


def test_08_conservation_audit(lines):
    """Every run registered by the criteria above stays normalized,
    hermitian, positive at every sample that records its minimum
    eigenvalue, and energy-conserving when closed."""
    # Coverage guards: the earlier criteria normally populate REGISTRY with
    # closed runs and at least one eigenvalue-recording run, but when this
    # test is selected alone (or alongside a subset) those may be missing.
    p_audit = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-4)
    if not any(mode == "closed" for _, mode, _, _ in REGISTRY):
        register("audit-closed", "closed", p_audit, evolve(p_audit, 10.0, mode="closed"))
    if not any(t.min_eig is not None for _, _, _, t in REGISTRY):
        register("audit-bm", "born-markov-asymptotic", p_audit,
                 evolve(p_audit, 5.0, mode="born-markov-asymptotic",
                        config=IntegratorConfig(frame="rotating", record_min_eig=True)))
    # Positivity through the initial slip, in the mode that promises it:
    # acceptance 04's bath at I0 = 10 with the finite-time coefficients.
    p_slip = SystemParams(mu_bar=1e-2, intensity=10.0, beta_bar=1.0, gamma=1e-2)
    register("slip-transient", "born-markov-transient", p_slip,
             evolve(p_slip, 5.0, mode="born-markov-transient",
                    config=IntegratorConfig(frame="rotating", record_min_eig=True)))
    # Frozen (asymptotic) coefficients acting on a product state are not a
    # completely positive generator: their initial slip (Suarez, Silbey &
    # Oppenheim, J. Chem. Phys. 97, 5101 (1992); Gaspard & Nagaoka,
    # J. Chem. Phys. 111, 5668 (1999)) drives acceptance 04's run to min
    # eig -3.76e-5 at tau = 0.476, below -1e-6 only on [0.048, 0.587] and
    # >= -5.3e-15 from tau = 1.6; the dip is unchanged at dtau/4 and at
    # n_max + 40, so it is the model, not the integrator. Asymptotic runs are
    # therefore bounded from the coefficient settle time on (the slip-window
    # minimum is reported, not bounded); every sample of the other modes is
    # bounded throughout, the transient run above included.
    worst_trace = worst_herm = worst_energy = 0.0
    worst_eig = slip_eig = math.inf
    n_eig_runs = 0
    for label, mode, params, traj in REGISTRY:
        worst_trace = max(worst_trace, float(np.max(np.abs(traj.trace - 1.0))))
        worst_herm = max(worst_herm, float(np.max(traj.herm_defect)))
        if mode == "closed":
            e0 = traj.energy_expect[0]
            drift = float(np.max(np.abs(traj.energy_expect - e0)) / abs(e0))
            worst_energy = max(worst_energy, drift)
        if traj.min_eig is not None:
            audited = np.ones(traj.taus.size, dtype=bool)
            if mode == "born-markov-asymptotic":
                audited = traj.taus >= coefficient_settle_time(params)
                if not audited.all():
                    slip_eig = min(slip_eig, float(np.min(traj.min_eig[~audited])))
            if audited.any():
                worst_eig = min(worst_eig, float(np.min(traj.min_eig[audited])))
                n_eig_runs += 1
    ok = (
        worst_trace < 1e-9
        and worst_herm < 1e-9
        and worst_energy < 1e-9
        and n_eig_runs > 0
        and worst_eig >= -1e-6
    )
    note(lines, 8, "conservation audit", ok,
         f"{len(REGISTRY)} runs: |tr-1| {worst_trace:.1e}, herm {worst_herm:.1e}, "
         f"closed energy drift {worst_energy:.1e}, min eig {worst_eig:.1e} "
         f"(asymptotic slip window {slip_eig:.1e}, reported only)")
    assert worst_trace < 1e-9
    assert worst_herm < 1e-9
    assert worst_energy < 1e-9
    assert n_eig_runs > 0 and worst_eig >= -1e-6


def test_09_identity_suite(lines):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        p = SystemParams(
            mu_bar=float(np.exp(rng.uniform(math.log(1e-3), 0.0))),
            intensity=float(rng.uniform(1.0, 100.0)),
            beta_bar=float(np.exp(rng.uniform(math.log(1e-2), math.log(10.0)))),
            gamma=float(np.exp(rng.uniform(math.log(1e-6), math.log(1e-1)))),
        )
        s = derive_timescales(p)
        rel = max(
            abs(s.tau_e * 2.0 * p.mu_bar * math.sqrt(p.intensity) - 1.0),
            abs(s.tau_r * p.mu_bar / math.pi - 1.0),
            abs(s.tau_gamma * p.gamma / 2.0 - 1.0),
            abs(s.tau_d * p.intensity * p.gamma * p.omega_bar
                / math.tanh(0.5 * p.beta_bar * p.omega_bar) - 1.0),
            abs(s.tau_cl * (1.0 + 2.0 * p.mu_bar * p.intensity) / (2.0 * math.pi) - 1.0),
            abs(s.theta * s.tau_e / s.tau_gamma - 1.0),
        )
        worst = max(worst, rel)
    ok_times = worst < 1e-12

    rng2 = np.random.default_rng(7)
    worst_d = 0.0
    for _ in range(100):
        p = SystemParams(
            mu_bar=float(rng2.uniform(0.01, 0.3)),
            intensity=float(rng2.uniform(5.0, 30.0)),
            gamma=float(np.exp(rng2.uniform(math.log(1e-4), math.log(1e-2)))),
            theta=float(rng2.uniform(0.0, 2.0 * math.pi)),
        )
        tau = np.array([float(rng2.uniform(0.0, 5.0))])
        d = decay_factor(p, tau)[0]
        # reference is the constant initial amplitude, not the evolving one
        ident = -math.log(abs(alpha_lindblad_rwa(p, tau)[0]) / abs(p.alpha))
        worst_d = max(worst_d, abs(d - ident))
    ok_d = worst_d < 1e-10
    note(lines, 9, "identity suite", ok_times and ok_d,
         f"timescale identities worst {worst:.1e} (1000 draws), "
         f"decay-factor identity worst {worst_d:.1e} (100 points)")
    assert ok_times
    assert ok_d


def test_10_regime_estimates(lines):
    th = theta_bec(5e-9, 1.5e-25, 2.0 * math.pi * 100.0, 1e4, 2.0 * math.pi * 1e2)
    quality, n_levels = 1e6, 6e11
    threshold = math.sqrt(n_levels) / (4.0 * quality)
    ok_bec = abs(th - 237.0) <= 1.0
    ok_cant = abs(threshold - 0.194) <= 0.001
    ok_unit = abs(theta_cantilever(threshold, quality, n_levels) - 1.0) < 1e-12
    note(lines, 10, "regime estimates", ok_bec and ok_cant and ok_unit,
         f"condensate ratio {th:.1f} (237 +- 1), "
         f"mode-threshold nonlinearity {threshold:.5f} (0.194 +- 0.001)")
    assert ok_bec, f"theta = {th}"
    assert ok_cant and ok_unit, f"threshold = {threshold}"
