"""Propagation: dense-reference against the banded kernel, order checks, physics.

The dense right-hand sides in dense_oracle.py are deliberately naive (full
matrix products) and serve as the reference for the banded kernel here; the
oracle's fixed-step lab-frame RK4 on them is the independent reference for
whole runs, which all step the co-moving state. Analytic oracles: the
closed-mode phase formula, the rotating-wave closed form, and exact
conservation laws of the flow's algebraic structure.
"""

import dataclasses
import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kerrbath import (
    IntegrationError,
    IntegratorConfig,
    SystemParams,
    TruncationLeakWarning,
    alpha_closed,
    alpha_lindblad_rwa,
    asymptotic_coefficients,
    cat_state_density,
    coherent_amplitudes,
    coherent_state_density,
    default_dtau,
    evolve,
    fock_cutoff,
)
from kerrbath.evolve import _BandedRHS, _Ladder, _Recorder, _snapshot_cell, _step_bounds

# the module: the package re-exports the function evolve under its name
EV = importlib.import_module("kerrbath.evolve")

from dense_oracle import (born_markov_rhs, energies, expect_a, expect_n, free_rhs, lab_rk4,
                          lindblad_rhs)


def random_density(rng, n_max):
    m = rng.normal(size=(n_max, n_max)) + 1j * rng.normal(size=(n_max, n_max))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_free_rhs_properties():
    p = SystemParams(mu_bar=0.17, intensity=5.0)
    rng = np.random.default_rng(0)
    rho = random_density(rng, 12)
    out = free_rhs(p, rho)
    assert abs(np.trace(out)) < 1e-12
    # diagonal states are stationary under the free flow
    d = np.diag(rng.uniform(0.0, 1.0, 12))
    assert np.max(np.abs(free_rhs(p, d))) == 0.0


def test_lindblad_rhs_properties():
    p = SystemParams(mu_bar=0.17, intensity=5.0, gamma=3e-2)
    rng = np.random.default_rng(1)
    n_max = 12
    rho = random_density(rng, n_max)
    out = lindblad_rhs(p, rho)
    assert abs(np.trace(out)) < 1e-12
    # d<n>/dtau = -gamma <n> exactly for lowering-operator damping
    n_op = np.arange(n_max)
    dn = float(np.sum(n_op * np.diagonal(out).real))
    n_mean = float(np.sum(n_op * np.diagonal(rho).real))
    assert dn == pytest.approx(-p.gamma * n_mean, rel=1e-12)
    # vacuum is stationary
    vac = np.zeros((n_max, n_max), dtype=complex)
    vac[0, 0] = 1.0
    assert np.max(np.abs(lindblad_rhs(p, vac))) < 1e-15


def test_born_markov_rhs_conserves_trace_and_hermiticity():
    p = SystemParams(mu_bar=0.2, intensity=4.0, beta_bar=0.8, gamma=2e-3)
    coeffs = asymptotic_coefficients(p, 10)
    rng = np.random.default_rng(2)
    rho = random_density(rng, 10)
    out = born_markov_rhs(p, rho, coeffs)
    assert abs(np.trace(out)) < 1e-14
    assert np.max(np.abs(out - out.conj().T)) < 1e-13


def test_banded_matches_dense_born_markov():
    """At tau = 0 every band phase is 1, so the co-moving kernel is the lab
    generator without its free term."""
    p = SystemParams(mu_bar=0.2, intensity=4.0, beta_bar=0.8, gamma=2e-3)
    for n_max in (14, 40):
        coeffs = asymptotic_coefficients(p, n_max)
        rng = np.random.default_rng(3)
        rho = random_density(rng, n_max)
        rhs = _BandedRHS(p, _Ladder(p, n_max), "born-markov-asymptotic")
        got = rhs(0.0, rho, np.empty_like(rho))
        want = born_markov_rhs(p, rho, coeffs) - free_rhs(p, rho)
        assert np.max(np.abs(got - want)) < 1e-14, n_max


def test_banded_matches_dense_lindblad():
    """As for the bath: at tau = 0 the co-moving Lindblad kernel is the lab
    generator without its free term."""
    p = SystemParams(mu_bar=0.2, intensity=4.0, gamma=5e-3)
    n_max = 14
    rng = np.random.default_rng(4)
    rho = random_density(rng, n_max)
    rhs = _BandedRHS(p, _Ladder(p, n_max), "lindblad-rwa")
    got = rhs(0.0, rho, np.empty_like(rho))
    assert np.max(np.abs(got - (lindblad_rhs(p, rho) - free_rhs(p, rho)))) < 1e-14


def test_rotating_frame_rhs_matches_dressed_dense():
    """d rho~/dt = U (L[U^dag rho~ U] + i[H, U^dag rho~ U]) U^dag with
    U = e^{iHt}, for the bath and for the Lindblad generator L.

    The transient case installs the table's coefficients inside the
    evaluation, at a time between two nodes in the middle of the table."""
    p = SystemParams(mu_bar=0.2, intensity=4.0, beta_bar=0.8, gamma=2e-3)
    cases = ((12, "born-markov-asymptotic"), (40, "born-markov-asymptotic"),
             (40, "born-markov-transient"), (12, "lindblad-rwa"), (40, "lindblad-rwa"))
    for n_max, mode in cases:
        coeffs = asymptotic_coefficients(p, n_max)
        rng = np.random.default_rng(5)
        rho_t = random_density(rng, n_max)
        rhs = _BandedRHS(p, _Ladder(p, n_max), mode)
        t = 0.83
        if mode == "born-markov-transient":
            t = 0.5 * rhs.table.t_end + 0.37 * rhs.table.dt
            a1, a2, b1, b2 = rhs.table.at(t)
            coeffs = dataclasses.replace(coeffs, a1=a1, a2=a2, b1=b1, b2=b2)
        got = rhs(t, rho_t, np.empty_like(rho_t))
        e = energies(n_max, p.mu_bar)
        u = np.exp(1j * e * t)
        rho_lab = u.conj()[:, None] * rho_t * u[None, :]
        if mode == "lindblad-rwa":
            lab = lindblad_rhs(p, rho_lab)
        else:
            lab = born_markov_rhs(p, rho_lab, coeffs)
        want = u[:, None] * (lab - free_rhs(p, rho_lab)) * u.conj()[None, :]
        assert np.max(np.abs(got - want)) < 1e-14, (n_max, mode)


def test_rotating_rhs_new_coefficients_at_same_time():
    """Installing coefficients drops the bands set up for the current time,
    so a repeat evaluation at that time sees the new ones."""
    p = SystemParams(mu_bar=0.2, intensity=4.0, beta_bar=0.8, gamma=2e-3)
    n_max, t = 20, 0.83
    c = asymptotic_coefficients(p, n_max)
    rho = random_density(np.random.default_rng(6), n_max)
    ladder = _Ladder(p, n_max)
    rhs = _BandedRHS(p, ladder, "born-markov-asymptotic")
    first = rhs(t, rho, np.empty_like(rho)).copy()
    assert np.array_equal(rhs(t, rho, np.empty_like(rho)), first)
    rhs.set_coefficients(2.0 * c.a1, 2.0 * c.a2, 2.0 * c.b1, 2.0 * c.b2)
    fresh = _BandedRHS(p, ladder, "born-markov-asymptotic")
    fresh.set_coefficients(2.0 * c.a1, 2.0 * c.a2, 2.0 * c.b1, 2.0 * c.b2)
    want = fresh(t, rho, np.empty_like(rho))
    assert np.array_equal(rhs(t, rho, np.empty_like(rho)), want)
    assert not np.allclose(want, first)


def test_rotating_rhs_output_is_exactly_hermitian():
    """The bath kernel starts from zero and mirrors B + B^dag, so its
    output is Hermitian to the bit, also for an input that is not: the
    recorder's bound on an interpolated state's hermiticity defect rests on
    this. (The Lindblad gain is Hermitian only to round-off.)"""
    p = SystemParams(mu_bar=0.2, intensity=4.0, beta_bar=0.8, gamma=2e-3)
    n_max = 30
    ladder = _Ladder(p, n_max)
    asym = _BandedRHS(p, ladder, "born-markov-asymptotic")
    trans = _BandedRHS(p, ladder, "born-markov-transient", table_points=64)
    rng = np.random.default_rng(8)
    rho = random_density(rng, n_max)
    m = rng.normal(size=(n_max, n_max)) + 1j * rng.normal(size=(n_max, n_max))
    skewed = rho + 0.5e-12 * (m - m.conj().T)
    assert np.max(np.abs(skewed - skewed.conj().T)) > 1e-12
    for rhs, t in ((asym, 0.83), (trans, 0.37 * trans.table.t_end)):
        for state in (rho, skewed):
            out = rhs(t, state, np.empty_like(state))
            assert np.array_equal(out, out.conj().T)


def test_kernel_and_defect_allocate_no_state_sized_array():
    """The kernel and the recorder's hermiticity defect work in buffers the
    run owns. At n_max = 109, after a warm-up call, 20 evaluations in each
    mode, and 20 defects, peak below one n_max^2 complex array:
    per-call temporaries of that size made the stepping speed depend on the
    allocator's state."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=100.0)
    n_max = 109
    ladder = _Ladder(p, n_max)
    rho = random_density(np.random.default_rng(7), n_max)
    out = np.empty_like(rho)

    def peak(call):
        call(0)
        tracemalloc.start()
        try:
            for k in range(1, 21):
                call(k)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for mode in ("born-markov-asymptotic", "lindblad-rwa"):
        rhs = _BandedRHS(p, ladder, mode)
        assert peak(lambda k: rhs(0.01 * k, rho, out)) < rho.nbytes, mode
    rec = _Recorder(ladder, 1, IntegratorConfig(), "")
    assert peak(lambda k: rec.defect(rho)) < rho.nbytes


def test_rk4_fourth_order(monkeypatch):
    """Halving the co-moving step shrinks the closed-form error ~ 16x
    (measured: 3.4e-13 and 2.1e-14). Both phase budgets are pinned between
    one and two grid cells, so each run steps exactly one cell, dtau,
    throughout. The basis has 40 levels: at fock_cutoff's 25 the coherent
    state's cut tail keeps the run 1.7e-9 from the closed form at any step,
    which hides the step error."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    tau, n_max = 2.0, 40
    rho0 = coherent_state_density(p.alpha, n_max)
    omega_top = 1.0 + p.mu_bar * (2 * n_max - 3)
    errs = []
    for dtau in (0.08, 0.04):
        monkeypatch.setattr(EV, "_PHASE_PER_STEP", 1.5 * dtau * 2.0 * omega_top)
        monkeypatch.setattr(EV, "_PHASE_PER_STEP_MAX", 1.5 * dtau * 2.0 * omega_top)
        tr = evolve(p, tau, mode="lindblad-rwa", rho0=rho0,
                    config=IntegratorConfig(dtau=dtau, stride=10**9))
        assert tr.step == tr.dtau and tr.steps == round(tau / dtau)
        exact = alpha_lindblad_rwa(p, tr.taus[-1:])[0]
        errs.append(abs(tr.a_expect[-1] - exact))
    ratio = errs[0] / errs[1]
    assert 11.0 < ratio < 21.0, f"order ratio {ratio}"


def test_rotating_lindblad_matches_closed_form():
    """lindblad-rwa on the rotating grid at acceptance 02's parameters
    steps over several grid cells, follows the rotating-wave closed form
    (measured: 2.9e-11 relative in 32 steps) and stays positive at every
    sample to round-off (measured: min eig -4.5e-10 at an interpolated
    sample)."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-3)
    tr = evolve(p, 2.5, mode="lindblad-rwa",
                config=IntegratorConfig(frame="rotating", record_min_eig=True))
    assert tr.step > tr.dtau
    rel = np.max(np.abs(tr.a_expect - alpha_lindblad_rwa(p, tr.taus))) / math.sqrt(p.intensity)
    assert rel < 1e-3
    assert np.min(tr.min_eig) >= -1e-6


def test_lab_grid_lindblad_stays_positive():
    """The default (lab) grid at acceptance 02's parameters: the run steps
    the co-moving state over whole cells of that grid and stays positive
    at every sample (measured: min eig -2.7e-10 at an interpolated sample
    and -1.8e-16 at the end, in 33 steps of 31 cells). A lab-frame RK4
    step of one cell of this grid ended at -5.5e-4."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-3)
    tr = evolve(p, 2.5, mode="lindblad-rwa", config=IntegratorConfig(record_min_eig=True))
    assert tr.frame == "lab" and tr.taus.size == 956 and tr.step > tr.dtau
    assert np.min(tr.min_eig) >= -1e-6
    assert np.linalg.eigvalsh(tr.final_rho)[0] >= -1e-6


def test_closed_mode_matches_formula():
    p = SystemParams(mu_bar=0.1, intensity=20.0)
    tau_r = math.pi / p.mu_bar
    tr = evolve(p, tau_r, mode="closed")
    exact = alpha_closed(p, tr.taus)
    assert np.max(np.abs(tr.a_expect - exact)) < 1e-6 * math.sqrt(p.intensity)
    # the closed flow conserves <n + mu n^2> to round-off
    e0 = tr.energy_expect[0]
    assert np.max(np.abs(tr.energy_expect - e0)) < 1e-12 * abs(e0)
    assert np.max(np.abs(tr.trace - 1.0)) < 1e-9
    assert np.max(tr.herm_defect) < 1e-9


def test_lindblad_rwa_matches_closed_form_through_first_bump():
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-3)
    tr = evolve(p, 2.5, mode="lindblad-rwa")
    exact = alpha_lindblad_rwa(p, tr.taus)
    assert np.max(np.abs(tr.a_expect - exact)) < 1e-5 * math.sqrt(p.intensity)


def test_born_markov_approaches_closed_as_gamma_vanishes():
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-10)
    tau_e = 1.0 / (2.0 * p.mu_bar * math.sqrt(p.intensity))
    tr = evolve(p, tau_e, mode="born-markov-asymptotic")
    exact = alpha_closed(p, tr.taus)
    assert np.max(np.abs(tr.a_expect - exact)) < 1e-6 * math.sqrt(p.intensity)


def test_rotating_and_lab_frames_agree():
    """frame picks only the default grid: with dtau given, both frames step
    the co-moving state on the same grid and return the same arrays. The
    run agrees with the dense lab-frame RK4 at that grid's step."""
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    mode = "born-markov-asymptotic"
    cfg = dict(dtau=2e-3, stride=500)
    lab = evolve(p, 3.0, mode=mode, config=IntegratorConfig(**cfg, frame="lab"))
    rot = evolve(p, 3.0, mode=mode, config=IntegratorConfig(**cfg, frame="rotating"))
    np.testing.assert_array_equal(lab.taus, rot.taus)
    for name in ("a_expect", "n_expect", "trace", "herm_defect", "final_rho"):
        np.testing.assert_array_equal(getattr(lab, name), getattr(rot, name), err_msg=name)
    assert (lab.steps, lab.step) == (rot.steps, rot.step) and rot.step > rot.dtau
    ref = lab_rk4(p, mode, coherent_state_density(p.alpha, rot.n_max), 3.0, 1500, every=500)
    assert sorted(ref) == [0, 500, 1000, 1500]
    a_ref = np.array([expect_a(ref[k]) for k in sorted(ref)])
    n_ref = np.array([expect_n(ref[k]) for k in sorted(ref)])
    assert np.max(np.abs(rot.a_expect - a_ref)) < 1e-6 * math.sqrt(p.intensity)
    assert np.max(np.abs(rot.n_expect - n_ref)) < 1e-8 * p.intensity
    assert rot.frame == "rotating" and lab.frame == "lab"


def test_transient_mode_runs_and_approaches_asymptotic_late():
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    cfg = dict(dtau=2e-3, stride=500)
    tra = evolve(p, 3.0, mode="born-markov-transient", config=IntegratorConfig(**cfg))
    asy = evolve(p, 3.0, mode="born-markov-asymptotic", config=IntegratorConfig(**cfg))
    # transient coefficients are smaller at early times: slower initial decay,
    # and by tau = 3 >> 10/lambda the two runs differ only by that early offset
    assert np.max(np.abs(tra.trace - 1.0)) < 1e-12
    diff = abs(tra.a_expect[-1] - asy.a_expect[-1])
    assert diff < 0.05 * math.sqrt(p.intensity)
    assert diff > 0.0  # the early transient must leave some imprint


def test_overlap_envelope_constant_under_closed_flow():
    """The coherence envelope is built co-moving: Kerr rotation alone never
    changes it."""
    al = math.sqrt(8.0)
    be = 1j * al
    n_max = fock_cutoff(8.0)
    rho0 = cat_state_density(al, be, n_max)
    p = SystemParams(mu_bar=0.1, intensity=8.0)
    tr = evolve(p, 20.0, mode="closed", rho0=rho0,
                config=IntegratorConfig(overlap_pair=(al, be), dtau=20.0 / 300))
    assert tr.taus.size == 301
    assert tr.overlap is not None
    assert np.max(np.abs(tr.overlap - tr.overlap[0])) < 1e-12
    # cross coherence of a balanced well-separated pair carries weight 1/2
    assert tr.overlap[0] == pytest.approx(0.5, abs=1e-3)


def test_overlap_envelope_decays_under_bath():
    al = math.sqrt(8.0)
    be = -al
    n_max = fock_cutoff(8.0)
    rho0 = cat_state_density(al, be, n_max)
    p = SystemParams(mu_bar=0.1, intensity=8.0, beta_bar=1.0, gamma=1e-3)
    tr = evolve(p, 14.0, mode="born-markov-asymptotic", rho0=rho0,
                config=IntegratorConfig(overlap_pair=(al, be), frame="rotating", stride=200))
    assert tr.overlap[-1] < 0.8 * tr.overlap[0]
    assert np.max(np.abs(tr.trace - 1.0)) < 1e-12
    assert np.max(tr.herm_defect) < 1e-12


def test_positivity_along_born_markov_run():
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    tr = evolve(p, 2.0, mode="born-markov-asymptotic",
                config=IntegratorConfig(record_min_eig=True, stride=200, frame="rotating"))
    assert tr.min_eig is not None
    assert np.min(tr.min_eig) > -1e-8


def test_snapshots_are_lab_frame():
    """A co-moving run's snapshot is the lab-frame state: it matches the
    dense lab-frame RK4 at the grid's step."""
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    mode = "born-markov-asymptotic"
    cfg = dict(dtau=2e-3, snapshot_taus=(1.0,), stride=500)
    rot = evolve(p, 2.0, mode=mode, config=IntegratorConfig(**cfg, frame="rotating"))
    assert set(rot.snapshots) == {1.0}
    ref = lab_rk4(p, mode, coherent_state_density(p.alpha, rot.n_max), 1.0, 500, every=500)
    assert np.max(np.abs(rot.snapshots[1.0] - ref[500])) < 1e-6
    # closed-mode snapshot equals the exact phase rotation of rho0
    pc = SystemParams(mu_bar=0.1, intensity=8.0)
    n_max = fock_cutoff(8.0)
    rho0 = coherent_state_density(math.sqrt(8.0), n_max)
    tr = evolve(pc, 1.0, mode="closed", rho0=rho0,
                config=IntegratorConfig(snapshot_taus=(0.5,)))
    e = energies(n_max, pc.mu_bar)
    t_snap = min(tr.snapshots)  # grid point at/after the request
    expect = np.exp(-1j * (e[:, None] - e[None, :]) * t_snap) * rho0
    assert np.max(np.abs(tr.snapshots[t_snap] - expect)) < 1e-12


def test_default_rho0_is_coherent_state():
    p = SystemParams(mu_bar=0.05, intensity=12.0, theta=0.4)
    tr = evolve(p, 0.0, mode="closed")
    assert tr.taus.shape == (1,)
    assert tr.a_expect[0] == pytest.approx(p.alpha, rel=1e-8)


def test_stride_controls_sample_count():
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    tr = evolve(p, 1.0, mode="lindblad-rwa", config=IntegratorConfig(dtau=0.01, stride=10))
    # 100 steps sampled every 10th plus the endpoint
    assert tr.taus.size == 11
    assert tr.taus[0] == 0.0 and tr.taus[-1] == pytest.approx(1.0)
    assert tr.dtau == pytest.approx(0.01)


def test_closed_sample_count_follows_dtau_and_stride():
    p = SystemParams(mu_bar=0.1, intensity=5.0)
    tr = evolve(p, 1.0, mode="closed", config=IntegratorConfig(dtau=0.01, stride=10))
    assert tr.taus.size == 11
    assert tr.taus[0] == 0.0 and tr.taus[-1] == pytest.approx(1.0)
    assert tr.dtau == pytest.approx(0.01)
    # an uneven stride still ends on the final time
    tr = evolve(p, 1.0, mode="closed", config=IntegratorConfig(dtau=0.01, stride=30))
    np.testing.assert_allclose(tr.taus, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=1e-14)
    # no dtau: tau_end is split into 2000 steps, every one sampled
    tr = evolve(p, 3.0, mode="closed")
    assert tr.taus.size == 2001 and tr.dtau == pytest.approx(3.0 / 2000)
    np.testing.assert_allclose(tr.taus, np.linspace(0.0, 3.0, 2001), rtol=1e-15)


def test_closed_run_is_the_generator_free_rotating_run():
    """Closed mode and a gamma = 0 rotating-frame run share the co-moving
    representation: the state stays rho0 and only the recorder's dressing
    moves, so every recorded quantity agrees on a common grid."""
    p = SystemParams(mu_bar=0.1, intensity=8.0, beta_bar=1.0, gamma=0.0)
    al = math.sqrt(8.0)
    be = 1j * al
    rho0 = cat_state_density(al, be, fock_cutoff(8.0))
    cfg = dict(dtau=0.013, stride=7, overlap_pair=(al, be), snapshot_taus=(0.4, 1.0, 2.5))
    closed = evolve(p, 3.0, mode="closed", rho0=rho0, config=IntegratorConfig(**cfg))
    rot = evolve(p, 3.0, mode="born-markov-asymptotic", rho0=rho0,
                 config=IntegratorConfig(**cfg, frame="rotating"))
    np.testing.assert_array_equal(closed.taus, rot.taus)
    assert closed.dtau == rot.dtau
    assert np.max(np.abs(closed.a_expect - rot.a_expect)) < 1e-13
    assert np.max(np.abs(closed.overlap - rot.overlap)) < 1e-13
    assert set(closed.snapshots) == set(rot.snapshots) == {0.4, 1.0, 2.5}
    for t in closed.snapshots:
        assert np.max(np.abs(closed.snapshots[t] - rot.snapshots[t])) < 1e-13
    assert np.max(np.abs(closed.final_rho - rot.final_rho)) < 1e-13


def test_closed_run_matches_per_sample_computation():
    """Closed mode computes the state's invariants once; every sample must
    still equal the quantities computed directly from its lab-frame state."""
    p = SystemParams(mu_bar=0.1, intensity=8.0)
    al = math.sqrt(8.0)
    be = 1j * al
    n_max = fock_cutoff(8.0)
    rho0 = cat_state_density(al, be, n_max)
    tr = evolve(p, 3.0, mode="closed", rho0=rho0,
                config=IntegratorConfig(dtau=0.05, stride=3, overlap_pair=(al, be),
                                        record_min_eig=True))
    assert tr.taus.size == 21
    e = energies(n_max, p.mu_bar)
    levels = np.arange(n_max)
    w = np.outer(coherent_amplitudes(al, n_max).conj(), coherent_amplitudes(be, n_max))
    for k, t in enumerate(tr.taus):
        dress = np.exp(-1j * e * t)
        lab = dress[:, None] * rho0 * dress.conj()[None, :]
        pops = np.diagonal(lab).real
        a = np.sum(np.sqrt(levels[1:]) * np.diagonal(lab, -1))
        co_moving = dress.conj()[:, None] * lab * dress[None, :]
        overlap = sum(abs(np.trace(w * co_moving, offset=j)) for j in range(1 - n_max, n_max))
        assert abs(tr.a_expect[k] - a) < 1e-13
        assert abs(tr.n_expect[k] - levels @ pops) < 1e-13
        assert abs(tr.energy_expect[k] - e @ pops) < 1e-12
        assert abs(tr.trace[k] - np.trace(lab)) < 1e-14
        assert abs(tr.herm_defect[k] - np.max(np.abs(lab - lab.conj().T))) < 1e-15
        assert tr.top_population[k] == pytest.approx(np.max(pops[-3:]), rel=1e-12, abs=0)
        assert abs(tr.overlap[k] - overlap) < 1e-13
        assert abs(tr.min_eig[k] - np.linalg.eigvalsh(lab)[0]) < 1e-13


def test_validation_errors():
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    with pytest.raises(ValueError, match="unknown mode"):
        evolve(p, 1.0, mode="euler")
    with pytest.raises(ValueError, match="tau_end"):
        evolve(p, -1.0)
    with pytest.raises(ValueError, match="unknown frame"):
        evolve(p, 1.0, mode="lindblad-rwa", config=IntegratorConfig(frame="galilean"))
    for mode in ("closed", "lindblad-rwa"):
        for bad in (0.0, -0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="dtau must be positive and finite"):
                evolve(p, 1.0, mode=mode, config=IntegratorConfig(dtau=bad))
        for bad in (0, -3):
            with pytest.raises(ValueError, match="stride must be at least 1"):
                evolve(p, 1.0, mode=mode, config=IntegratorConfig(dtau=0.01, stride=bad))
    # a config is checked once, on construction, so it must not change after
    with pytest.raises(dataclasses.FrozenInstanceError):
        IntegratorConfig().dtau = 0.0
    # the kernel mirrors half of each commutator, so rho0 must be Hermitian
    bad_rho0 = (
        (np.triu(np.ones((10, 10))) / 10, "Hermitian"),
        (np.eye(10)[:, :9] / 9, "square"),
        (np.ones(10) / 10, "square"),
        (np.full((10, 10), math.nan), "finite"),
    )
    for rho0, msg in bad_rho0:
        for mode in ("closed", "born-markov-asymptotic"):
            with pytest.raises(ValueError, match=msg):
                evolve(p, 1.0, mode=mode, rho0=rho0)


def test_max_steps_guard():
    """1e8 steps exceed the 2e7 limit; the run raises before it allocates."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    with pytest.raises(IntegrationError, match="100000000 steps exceed the limit"):
        evolve(p, 1.0, mode="lindblad-rwa", config=IntegratorConfig(dtau=1e-8))


def test_unstable_step_raises():
    p = SystemParams(mu_bar=0.1, intensity=20.0, gamma=0.1)
    with pytest.raises(IntegrationError, match="unphysical.*reduce dtau"):
        evolve(p, 50.0, mode="lindblad-rwa", config=IntegratorConfig(dtau=5.0, stride=1))
    # each message names the fix that applies: a rotating step spanning
    # several cells does not follow dtau, and closed mode keeps rho0
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    rho0 = 3.0 * coherent_state_density(p.alpha, fock_cutoff(p.intensity))
    with pytest.raises(IntegrationError,
                       match="unphysical.*enlarge the basis.*error estimate.*not dtau"):
        evolve(p, 0.5, mode="born-markov-asymptotic", rho0=rho0,
               config=IntegratorConfig(frame="rotating"))
    with pytest.raises(IntegrationError, match="unphysical.*check its trace"):
        evolve(p, 1.0, mode="closed", rho0=rho0)


def test_truncation_leak_warns():
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    n_max = 8
    rho0 = np.zeros((n_max, n_max), dtype=complex)
    rho0[6, 6] = 1.0  # population parked at the top of the basis
    with pytest.warns(TruncationLeakWarning):
        evolve(p, 0.1, mode="lindblad-rwa", rho0=rho0, config=IntegratorConfig(dtau=1e-3))


def test_default_step_rules():
    p = SystemParams(mu_bar=0.1, intensity=50.0)
    n_max = 109
    top = n_max - 1
    spread = top + p.mu_bar * top * top
    tau_e = 1.0 / (2.0 * p.mu_bar * math.sqrt(p.intensity))
    assert default_dtau(p, n_max) == pytest.approx(min(1.0 / spread, tau_e / 200.0))
    assert default_dtau(p, n_max, "lab") == default_dtau(p, n_max)
    rot = default_dtau(p, n_max, "rotating")
    assert rot == pytest.approx(0.05 / (1.0 + p.mu_bar * (2 * n_max - 3)))
    with pytest.raises(ValueError, match="unknown frame"):
        default_dtau(p, n_max, "galilean")
    # the rule a run uses when no dtau is given
    for frame, want in (("lab", default_dtau(p, n_max)), ("rotating", rot)):
        tr = evolve(p, 0.5, mode="born-markov-asymptotic",
                    config=IntegratorConfig(frame=frame))
        assert tr.dtau == pytest.approx(0.5 / math.ceil(0.5 / want))


def test_rotating_step_spans_whole_grid_cells():
    """A default rotating run at the quantum-corner parameters steps over
    whole grid cells: its phase budgets are exactly 5 and 20 times
    default_dtau, and the division must not drop either multiple by an ulp.
    The bath run at gamma = 3e-4 is floor-bound (its estimate stays above
    the tolerance at five cells) and steps five cells throughout; the
    Lindblad run, whose estimate stays near 5e-13, reaches the ceiling of
    twenty. A lab-grid run steps the same way, over whole cells of its
    finer grid between its own floor and ceiling; a transient run, bound by
    its table's spacing, steps one cell, and closed mode takes no step."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=100.0)
    for mode, gamma, q in (("born-markov-asymptotic", 3e-4, 5), ("lindblad-rwa", 1e-4, 20)):
        tr = evolve(dataclasses.replace(p, gamma=gamma), 2.5, mode=mode,
                    config=IntegratorConfig(frame="rotating"))
        assert tr.step == q * tr.dtau, mode
        assert tr.dtau == 2.5 / math.ceil(2.5 / default_dtau(p, tr.n_max, "rotating"))
    assert tr.steps < math.ceil(2.5 / (5 * tr.dtau))  # the Lindblad run left its floor
    small = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=1.0, gamma=1e-3)
    for mode, frame in (("born-markov-asymptotic", "lab"), ("lindblad-rwa", "lab"),
                        ("born-markov-transient", "rotating")):
        tr = evolve(small, 0.2, mode=mode, config=IntegratorConfig(frame=frame))
        n_cells = tr.taus.size - 1
        assert tr.dtau == 0.2 / math.ceil(0.2 / default_dtau(small, tr.n_max, frame))
        rhs = _BandedRHS(small, _Ladder(small, tr.n_max), mode)
        q_floor, q_ceil = _step_bounds(small, rhs, tr.dtau, n_cells)
        q = round(tr.step / tr.dtau)
        assert tr.step == q * tr.dtau and q_floor <= q <= q_ceil, (mode, frame)
        assert tr.steps <= math.ceil(n_cells / q_floor) and tr.step_error > 0.0, (mode, frame)
        assert (q_floor > 1) == (frame == "lab"), (mode, frame)
    assert q_ceil == 1 and tr.steps == n_cells  # the table binds the transient run
    tr = evolve(small, 0.2, mode="closed")
    assert tr.step is None and tr.steps == 0 and tr.step_error is None


def run_attempts(monkeypatch, params, tau_end, dtau=None):
    """A rotating-frame born-markov-asymptotic run from the coherent start,
    with its RK4 step attempts as (first cell, cells, estimate), read off
    the kernel's calls: after the initial k1, each attempt evaluates at
    t + h/2 twice, at t + h for k4 and again at t + h for the end derivative
    f1, and the estimate (h/6) max|f1 - k4| is recomputed from the last two.
    Also returns which attempts were accepted and the run's (floor, ceiling)
    in grid cells."""
    mode = "born-markov-asymptotic"
    n_max = fock_cutoff(params.intensity)
    dtau = dtau or default_dtau(params, n_max, "rotating")
    dtau = tau_end / math.ceil(tau_end / dtau - 1e-12)
    bounds = _step_bounds(params, _BandedRHS(params, _Ladder(params, n_max), mode),
                          dtau, round(tau_end / dtau))
    calls, attempts, last = [], [], [None]
    original = _BandedRHS.__call__

    def spy(self, tau, rho, out):
        original(self, tau, rho, out)
        calls.append(tau)
        if len(calls) % 4 == 1 and len(calls) > 1:  # f1, right after k4
            mid = calls[-3]
            cells = round(2.0 * (tau - mid) / dtau)
            err = cells * dtau / 6.0 * float(np.abs(out - last[0]).max())
            attempts.append((round((2.0 * mid - tau) / dtau), cells, err))
        last[0] = out.copy()
        return out

    with monkeypatch.context() as m:
        m.setattr(_BandedRHS, "__call__", spy)
        tr = evolve(params, tau_end, mode=mode,
                    config=IntegratorConfig(frame="rotating", dtau=dtau))
    assert tr.dtau == dtau and len(calls) == 1 + 4 * len(attempts)
    accepted = [a[0] + a[1] == b[0] for a, b in zip(attempts, attempts[1:])] + [True]
    return tr, attempts, accepted, bounds


def test_controller_stays_between_floor_and_ceiling(monkeypatch):
    """Every attempt spans q_floor to q_ceil cells (the last may be
    shorter); a rejected attempt lies above the floor with an estimate over
    the tolerance, and every accepted step above the floor is within it.
    The trajectory reports the accepted steps, the largest of them and the
    worst accepted estimate. Runs: the quantum-corner bump (floor 5,
    ceiling 20), which steps up to 9 cells and retries 3 steps, and the
    frames test's bath (floor 15, ceiling 60), which climbs to 23."""
    qc = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=100.0)
    frames = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    rejected = []
    for p, tau_end, dtau in ((qc, 2.5, None), (frames, 3.0, 2e-3)):
        tr, attempts, accepted, (q_floor, q_ceil) = run_attempts(monkeypatch, p, tau_end,
                                                                 dtau=dtau)
        assert q_floor < q_ceil
        rejected.append(accepted.count(False))
        n_cells = tr.taus.size - 1
        for (c0, cells, err), ok in zip(attempts, accepted):
            assert cells <= q_ceil and (cells >= q_floor or c0 + cells == n_cells)
            if not ok:
                assert cells > q_floor and err > EV._STEP_TOL
            elif cells > q_floor:
                assert err <= EV._STEP_TOL
        kept = [a for a, ok in zip(attempts, accepted) if ok]
        assert sum(cells for _, cells, _ in kept) == n_cells and tr.steps == len(kept)
        assert tr.step == max(cells for _, cells, _ in kept) * tr.dtau
        assert tr.step > q_floor * tr.dtau
        assert tr.step_error == max(err for _, _, err in kept)
    assert rejected[0] > 0


def test_floor_bound_run_keeps_the_fixed_step(monkeypatch):
    """The quantum-corner bath at gamma = 3e-4 has floor 5 and ceiling 7
    cells. Its estimate at the floor exceeds the tolerance on 219 of 225
    steps and stays above 0.75^4 of it on all (measured: 0.41), where the
    growth factor 0.9 (tol/err)^(1/4) is below 6/5. It then takes the
    floor's step and step count throughout, with no retry, and its
    trajectory is bit-identical to the run whose ceiling is pinned to the
    floor."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=3e-4, lambda_bar=100.0)
    tr, attempts, accepted, (q_floor, q_ceil) = run_attempts(monkeypatch, p, 2.5)
    assert (q_floor, q_ceil) == (5, 7) and all(accepted)
    assert all(cells == q_floor for _, cells, _ in attempts)
    assert all(err > 0.75**4 * EV._STEP_TOL for _, _, err in attempts)
    assert tr.step_error > EV._STEP_TOL
    n_cells = tr.taus.size - 1
    assert tr.steps == n_cells // q_floor and tr.step == q_floor * tr.dtau
    monkeypatch.setattr(EV, "_PHASE_PER_STEP_MAX", EV._PHASE_PER_STEP)
    pinned = evolve(p, 2.5, mode="born-markov-asymptotic",
                    config=IntegratorConfig(frame="rotating"))
    for name in ("a_expect", "n_expect", "trace", "herm_defect", "final_rho"):
        np.testing.assert_array_equal(getattr(tr, name), getattr(pinned, name), err_msg=name)
    assert (pinned.steps, pinned.step, pinned.step_error) == (tr.steps, tr.step, tr.step_error)


def test_weak_coupling_run_stays_below_the_ceiling(monkeypatch):
    """Acceptance 01's gamma = 1e-8 run: its estimate is near 1e-17, blind
    to the aliasing of the band phases, so it would ask for steps of
    hundreds of radians. The ceiling holds every step to 2 rad of the
    fastest phase (20 cells), and the run steps there."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-8)
    tr, attempts, accepted, (q_floor, q_ceil) = run_attempts(monkeypatch, p, math.pi / p.mu_bar)
    assert (q_floor, q_ceil) == (5, 20) and all(accepted)
    assert max(cells for _, cells, _ in attempts) == q_ceil
    assert tr.step == q_ceil * tr.dtau and tr.step_error < 1e-3 * EV._STEP_TOL


def test_step_estimate_is_fourth_order(monkeypatch):
    """On acceptance 03's cat, with the step pinned to 5, 10 and 20 cells
    (0.5, 1 and 2 rad of the fastest phase), the worst estimate over the
    first unit of time grows at least 8x per doubling of the step (measured:
    15.7x and 14.9x), as a local error of order h^4 or higher must."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=100.0)
    al = math.sqrt(p.intensity)
    rho0 = cat_state_density(al, -al, fock_cutoff(p.intensity))
    errs = []
    for q, phase in ((5, 0.5), (10, 1.0), (20, 2.0)):
        monkeypatch.setattr(EV, "_PHASE_PER_STEP", phase)
        monkeypatch.setattr(EV, "_PHASE_PER_STEP_MAX", phase)
        tr = evolve(p, 1.0, mode="born-markov-asymptotic", rho0=rho0,
                    config=IntegratorConfig(frame="rotating"))
        assert tr.step == q * tr.dtau
        errs.append(tr.step_error)
    assert errs[1] >= 8.0 * errs[0] and errs[2] >= 8.0 * errs[1]


def test_dense_output_between_rotating_steps(monkeypatch):
    """A run stepping five cells per step against one whose grid is that
    step: the two take the same steps, so they agree to round-off at the
    shared step ends. The Hermite samples in between stay within 1e-7 of a
    dense lab-frame RK4 at a quarter of the cell (measured: 1.6e-8 in <a>,
    4.4e-8 in <n>; 5e-9 and 1.1e-8 at the step ends). The ceiling is pinned
    to the floor, which makes both runs floor-bound: left free, the estimate
    (2.3e-10 at most) would lengthen the fine run's steps, and a coupling
    that keeps it above the tolerance (gamma = 3e-3) moves the interior
    samples by 1.3e-7 in <n>, because the state itself changes faster."""
    monkeypatch.setattr(EV, "_PHASE_PER_STEP_MAX", EV._PHASE_PER_STEP)
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    mode = "born-markov-asymptotic"
    fine = evolve(p, 1.0, mode=mode, config=IntegratorConfig(frame="rotating", dtau=1 / 175, stride=1))
    coarse = evolve(p, 1.0, mode=mode, config=IntegratorConfig(frame="rotating", dtau=1 / 35, stride=1))
    lab = lab_rk4(p, mode, coherent_state_density(p.alpha, fine.n_max), 1.0, 700, every=4)
    lab_a = np.array([expect_a(lab[k]) for k in sorted(lab)])
    lab_n = np.array([expect_n(lab[k]) for k in sorted(lab)])
    assert fine.step == 5 * fine.dtau and coarse.step == coarse.dtau
    assert fine.steps == coarse.steps == 35
    assert fine.step == pytest.approx(coarse.step, rel=1e-15)
    np.testing.assert_allclose(fine.taus[::5], coarse.taus, rtol=1e-15)
    assert np.max(np.abs(fine.a_expect[::5] - coarse.a_expect)) < 1e-13
    assert np.max(np.abs(fine.n_expect[::5] - coarse.n_expect)) < 1e-13
    assert np.max(np.abs(fine.final_rho - coarse.final_rho)) < 1e-15
    np.testing.assert_allclose(fine.taus, np.array(sorted(lab)) / 700, rtol=1e-15)
    interior = np.arange(fine.taus.size) % 5 != 0
    assert np.max(np.abs(fine.a_expect - lab_a)[interior]) < 1e-7
    assert np.max(np.abs(fine.n_expect - lab_n)[interior]) < 1e-7
    assert np.max(np.abs(fine.trace - 1.0)) < 1e-14
    assert np.max(fine.herm_defect) < 1e-15


def test_snapshot_inside_a_step_matches_its_sample():
    """A snapshot at a grid point inside a rotating-frame step is the same
    interpolated state the recorder samples there. The run is floor-bound,
    so its steps end on every fifth grid point."""
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=3e-3)
    tr = evolve(p, 0.2, mode="born-markov-asymptotic",
                config=IntegratorConfig(frame="rotating", dtau=1 / 175, stride=1,
                                        snapshot_taus=(0.05,)))
    assert tr.step == 5 * tr.dtau and tr.steps == 7
    (snap,) = tr.snapshots.values()
    k = int(np.argmin(np.abs(tr.taus - 0.05)))
    assert k % 5 != 0  # inside a step
    levels = np.arange(tr.n_max)
    a = np.sum(np.sqrt(levels[1:]) * np.diagonal(snap, -1))
    assert abs(a - tr.a_expect[k]) < 1e-13
    assert abs(levels @ np.diagonal(snap).real - tr.n_expect[k]) < 1e-13
    assert abs(np.trace(snap) - tr.trace[k]) < 1e-15
    assert np.max(np.abs(snap - snap.conj().T)) < 1e-15


def test_interior_samples_match_snapshot_states():
    """At the quantum-corner parameters with gamma = 3e-4, a floor-bound run
    (q = 5), the recorder interpolates observable vectors, not states,
    inside a step. Every interior sample
    must agree with the quantities computed from the interpolated state,
    which a snapshot at the same grid point returns; its hermiticity defect
    is the larger end-state defect, which bounds the interpolant's, and its
    minimum eigenvalue is still the interpolated state's."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=3e-4, lambda_bar=100.0)
    al = math.sqrt(p.intensity)
    be = 1j * al  # the sweep's quarter pair, so that <a> is not zero
    n_max = fock_cutoff(p.intensity)
    rho0 = cat_state_density(al, be, n_max)
    tau_end = 0.1
    dtau = default_dtau(p, n_max, "rotating")
    dtau = tau_end / math.ceil(tau_end / dtau)
    n_cells = round(tau_end / dtau)
    interior = [c * dtau for c in range(n_cells + 1) if c % 5]
    tr = evolve(p, tau_end, mode="born-markov-asymptotic", rho0=rho0,
                config=IntegratorConfig(frame="rotating", stride=1, overlap_pair=(al, be),
                                        record_min_eig=True, snapshot_taus=tuple(interior)))
    assert tr.step == 5 * tr.dtau and tr.steps == n_cells // 5 and tr.taus.size == n_cells + 1
    e = energies(n_max, p.mu_bar)
    levels = np.arange(n_max)
    w = np.outer(coherent_amplitudes(al, n_max).conj(), coherent_amplitudes(be, n_max))
    assert len(tr.snapshots) == len(interior)
    for ts, snap in tr.snapshots.items():
        k = int(np.argmin(np.abs(tr.taus - ts)))
        assert k % 5 != 0
        pops = np.diagonal(snap).real
        dress = np.exp(1j * e * tr.taus[k])
        co_moving = dress[:, None] * snap * dress.conj()[None, :]
        overlap = sum(abs(np.trace(w * co_moving, offset=j)) for j in range(1 - n_max, n_max))
        want = (
            (tr.a_expect, np.sum(np.sqrt(levels[1:]) * np.diagonal(snap, -1))),
            (tr.n_expect, levels @ pops),
            (tr.energy_expect, e @ pops),
            (tr.trace, np.trace(snap)),
            (tr.top_population, np.max(pops[-3:])),
            (tr.overlap, overlap),
        )
        for got, value in want:
            assert abs(got[k] - value) < 1e-13 * max(1.0, abs(value))
        assert tr.herm_defect[k] >= np.max(np.abs(snap - snap.conj().T)) - 1e-15
        assert abs(tr.min_eig[k] - np.linalg.eigvalsh(snap)[0]) < 1e-13


def test_snapshot_cell_matches_grid_scan():
    """The snapshot's grid point is the first c of a scan over the grid with
    c dtau >= ts - dtau/2: the nearest to ts, the earlier on a tie, and none
    past the grid's end."""
    assert _snapshot_cell(0.625, 0.25, 4) == 2  # tie between cells 2 and 3
    for n_cells, tau_end in ((4, 1.0), (7, 1.0), (35, 0.2), (0, 0.0)):
        dtau = tau_end / n_cells if n_cells else 0.0
        grid = [k * dtau for k in range(-2, n_cells + 3)]
        for ts in grid + [t + 0.5 * dtau for t in grid] + [0.3, math.inf]:
            scan = next((c for c in range(n_cells + 1) if c * dtau >= ts - 0.5 * dtau), None)
            assert _snapshot_cell(ts, dtau, n_cells) == scan, (n_cells, ts)


def test_trajectory_x_property():
    p = SystemParams(mu_bar=0.1, intensity=5.0)
    tr = evolve(p, 1.0, mode="closed")
    np.testing.assert_allclose(tr.x, math.sqrt(2.0) * tr.a_expect.real, atol=0)
