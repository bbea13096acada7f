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
import re
import subprocess
import sys
import tracemalloc

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
    coefficient_tables,
    coherent_amplitudes,
    coherent_state_density,
    default_dtau,
    evolve,
    fock_cutoff,
)
from kerrbath.cli import draw_parameters, sweep_lambda_bar
from kerrbath.evolve import _BandedRHS, _herm_defect, _Ladder, _step_bounds

# the module: the package re-exports the function evolve under its name
EV = importlib.import_module("kerrbath.evolve")

# a step end within this fraction of the step of a grid point lands on it,
# so a step can exceed its nominal length by as much
SNAP = 1e-9

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

    The transient case installs the table's P bands inside the evaluation,
    at a time between two nodes in the middle of the table; the dense
    generator takes the coefficients interpolated linearly between them.
    out is the kernel's scratch as well as its output, so it is filled with
    NaN before the call: a value the kernel reads before writing it would
    spoil the result."""
    p = SystemParams(mu_bar=0.2, intensity=4.0, beta_bar=0.8, gamma=2e-3)
    modes = ("born-markov-asymptotic", "born-markov-transient", "lindblad-rwa")
    for n_max, mode in ((n_max, mode) for mode in modes for n_max in (12, 40)):
        coeffs = asymptotic_coefficients(p, n_max)
        rng = np.random.default_rng(5)
        rho_t = random_density(rng, n_max)
        rhs = _BandedRHS(p, _Ladder(p, n_max), mode)
        t = 0.83
        if mode == "born-markov-transient":
            t_table, dt = rhs.starts[1], rhs.sets[0][1]
            t = 0.5 * t_table + 0.37 * dt
            i = int(t / dt)
            w = t / dt - i
            taus = np.linspace(0.0, t_table, IntegratorConfig.transient_table_points)
            nodes = coefficient_tables(p, n_max, taus[i:i + 2])
            a1, a2, b1, b2 = (c[0] * (1.0 - w) + c[1] * w for c in nodes)
            coeffs = dataclasses.replace(coeffs, a1=a1, a2=a2, b1=b1, b2=b2)
        out = np.full_like(rho_t, np.nan)
        got = rhs(t, rho_t, out)
        assert got is out
        e = energies(n_max, p.mu_bar)
        u = np.exp(1j * e * t)
        rho_lab = u.conj()[:, None] * rho_t * u[None, :]
        if mode == "lindblad-rwa":
            lab = lindblad_rhs(p, rho_lab)
        else:
            lab = born_markov_rhs(p, rho_lab, coeffs)
        want = u[:, None] * (lab - free_rhs(p, rho_lab)) * u.conj()[None, :]
        assert np.max(np.abs(got - want)) < 1e-14, (n_max, mode)


def test_asymptotic_kernel_is_a_transient_kernel_past_its_table(monkeypatch):
    """An asymptotic run's one coefficient set is the long-time set that a
    transient run holds past its table's end, a single row of P bands: at
    the same time, the two kernels give the same output to the bit, and
    that set has the same rate and step range in both. Building it
    evaluates no coefficient table. The rate is the set's measured spectral
    radius, below the norm bound, from 12 kernel evaluations in each mode
    (the table's rows keep the bound and take none), and two builds measure
    it to the bit."""
    p = SystemParams(mu_bar=0.2, intensity=4.0, beta_bar=0.8, gamma=2e-3)
    n_max = 30
    ladder = _Ladder(p, n_max)
    calls = []
    bath = _BandedRHS._bath

    def spy(self, *args):
        calls.append(1)
        return bath(self, *args)

    monkeypatch.setattr(_BandedRHS, "_bath", spy)
    trans = _BandedRHS(p, ladder, "born-markov-transient", table_points=64)
    assert len(calls) == 12
    with monkeypatch.context() as m:
        m.setattr(EV, "coefficient_tables", None)  # a call would raise TypeError
        asym = _BandedRHS(p, ladder, "born-markov-asymptotic")
    assert len(calls) == 24
    monkeypatch.undo()
    t_end = trans.starts[1]
    assert (asym.starts, trans.starts) == ((0.0,), (0.0, t_end))
    assert asym.in_force(0.0) == 0 and trans.in_force(t_end) == 1 == trans.in_force(3.0 * t_end)
    (rate, spacing, rows), (rate_t, spacing_t, rows_t) = asym.sets[0], trans.sets[1]
    assert len(asym.sets) == 1 and rate == rate_t and spacing == spacing_t == math.inf
    assert rate == _BandedRHS(p, ladder, "born-markov-asymptotic").sets[0][0]
    assert 0.0 < rate < EV._bath_rate(ladder.sqrt_n, rows)
    assert trans.sets[0][0] == EV._bath_rate(ladder.sqrt_n, trans.sets[0][2])
    for band, band_t in zip(rows, rows_t, strict=True):
        assert band.shape == (1, n_max - 1) and np.array_equal(band, band_t)
    assert _step_bounds(p, asym, 0.01) == _step_bounds(p, trans, 0.01, t_end)
    rho = random_density(np.random.default_rng(6), n_max)
    for t in (t_end, t_end + 0.37, 3.0 * t_end):
        want = trans(t, rho, np.empty_like(rho))
        assert np.array_equal(asym(t, rho, np.empty_like(rho)), want), t


def test_transient_table_holds_the_rows_its_run_reads(monkeypatch):
    """A transient table keeps the whole table's node spacing, but
    evaluates only the rows that its run reads: up to the node after int(tau_end/dt),
    two at least, and all of them for a run that reaches the table's end.
    Each row is the whole table's, bit for bit, so the interpolated bands
    are too. The rows' norm bound covers those rows. The asymptotic set is
    built only for a run that reaches the settle time, equal to the bit to
    an unbounded kernel's, with its radius measured by 12 kernel calls; a
    run that ends before builds one set, calls no kernel while it is built,
    and records spectral_radius None. A run builds its table this way:
    at beta_bar = 1e5 a run to tau = 0.5 evaluates two rows, not 512."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=1.0, gamma=1e-3)
    ladder = _Ladder(p, 25)
    full = _BandedRHS(p, ladder, "born-markov-transient")
    t_table, dt = full.starts[1], full.sets[0][1]
    assert (t_table, len(full.sets[0][2][0])) == (4.0, 512)
    calls = []
    bath = _BandedRHS._bath

    def spy(self, *args):
        calls.append(1)
        return bath(self, *args)

    for tau_end, rows in ((0.0, 2), (0.5 * dt, 2), (dt, 3), (3.0, 385),
                          (t_table - 1e-9, 512), (t_table, 512), (5.0, 512)):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(_BandedRHS, "_bath", spy)
            rhs = _BandedRHS(p, ladder, "born-markov-transient", tau_end=tau_end)
        rate, spacing, bands = rhs.sets[0]
        assert (len(bands[0]), spacing) == (rows, dt), tau_end
        for band, whole in zip(bands, full.sets[0][2], strict=True):
            np.testing.assert_array_equal(band, whole[:rows])
        for t in np.linspace(0.0, tau_end, 7):
            for got, want in zip(tuple(rhs.p_bands(t)), full.p_bands(t), strict=True):
                np.testing.assert_array_equal(got, want)
        assert rate == EV._bath_rate(ladder.sqrt_n, bands) <= full.sets[0][0], tau_end
        reached = tau_end >= t_table
        assert rhs.starts == full.starts[:1 + reached] and len(rhs.sets) == 1 + reached
        assert rhs.radius == (full.radius if reached else None) and len(calls) == 12 * reached
        if reached:
            assert rhs.sets[1][:2] == full.sets[1][:2], tau_end
            for band, whole in zip(rhs.sets[1][2], full.sets[1][2], strict=True):
                np.testing.assert_array_equal(band, whole)
    assert rhs.sets[0][:2] == full.sets[0][:2]
    assert evolve(p, 0.5, mode="born-markov-transient").spectral_radius is None
    assert evolve(p, t_table, mode="born-markov-transient").spectral_radius == full.radius > 0.0
    calls = []
    tables = EV.coefficient_tables

    def spy(params, n_max, taus):
        calls.append(taus.size)
        return tables(params, n_max, taus)

    monkeypatch.setattr(EV, "coefficient_tables", spy)
    far = dataclasses.replace(p, beta_bar=1e5)
    tr = evolve(far, 0.5, mode="born-markov-transient")
    assert calls == [2] and np.max(np.abs(tr.trace - 1.0)) < 1e-12


def test_kernel_evaluates_the_levels_its_bands_read(monkeypatch):
    """The P bands read the n_max - 1 transitions n -> n + 1, so the kernel
    asks asymptotic_coefficients and coefficient_tables for levels 0 ..
    n_max - 2 alone, and its bands are those of the n_max-level coefficients
    without their top level, bit for bit."""
    p = SystemParams(mu_bar=0.2, intensity=4.0, beta_bar=0.8, gamma=2e-3)
    n_max = 30
    ladder = _Ladder(p, n_max)
    asked = []
    for name in ("asymptotic_coefficients", "coefficient_tables"):
        def spy(params, levels, *args, _name=name, _f=getattr(EV, name)):
            asked.append((_name, levels))
            return _f(params, levels, *args)
        monkeypatch.setattr(EV, name, spy)
    trans = _BandedRHS(p, ladder, "born-markov-transient", table_points=64)
    asym = _BandedRHS(p, ladder, "born-markov-asymptotic")
    assert asked == [("asymptotic_coefficients", n_max - 1), ("coefficient_tables", n_max - 1),
                     ("asymptotic_coefficients", n_max - 1)]
    monkeypatch.undo()
    inf = asymptotic_coefficients(p, n_max)
    table = coefficient_tables(p, n_max, np.linspace(0.0, trans.starts[1], 64))
    wants = ([c[:, :-1] for c in table], [c[None, :-1] for c in (inf.a1, inf.a2, inf.b1, inf.b2)])
    for (_, _, bands), want in zip(trans.sets, wants, strict=True):
        for band, whole in zip(bands, EV._p_bands(ladder.sqrt_n, *want), strict=True):
            np.testing.assert_array_equal(band, whole, strict=True)
    for band, whole in zip(asym.sets[0][2], trans.sets[1][2], strict=True):
        np.testing.assert_array_equal(band, whole, strict=True)


def arnoldi_radius(rhs, n_max):
    """The eigenvalue of largest modulus of a kernel's generator at tau = 0, from
    scipy's ARPACK on the complex-linear map rho = H1 + i H2 -> L(H1) + i L(H2)
    of Hermitian H1 and H2 (the kernel takes Hermitian states only)."""
    from scipy.sparse.linalg import LinearOperator, eigs

    def apply(v):
        rho = v.reshape(n_max, n_max)
        out = np.empty_like(rho)
        h1 = 0.5 * (rho + rho.conj().T)
        h2 = -0.5j * (rho - rho.conj().T)
        l1 = rhs(0.0, h1, out).copy()
        return (l1 + 1j * rhs(0.0, h2, out)).reshape(-1)

    op = LinearOperator((n_max * n_max,) * 2, matvec=apply, dtype=complex)
    return eigs(op, k=1, which="LM", return_eigenvectors=False, tol=1e-4,
                v0=np.ones(n_max * n_max, dtype=complex))[0]


def test_measured_radius_against_arnoldi():
    """The asymptotic set's rate, 12 power iterations of the kernel, lies
    within [0.7, 1.3] of ARPACK's spectral radius of the same generator, on
    both rays that the leading eigenvalues take: sweep draw 12, led by a
    real eigenvalue (-8.83; measured 0.86 of it, where the norm bound is
    4.1x), and acceptance 06's bath at gamma = 1e-2 (-42.3 +- 104.5i;
    measured 0.98, bound 4.7x) and the quantum corner's at 1e-4 (the same
    generator scaled by 1e-2)."""
    draw = draw_parameters(seed=1, draws=20)[12]
    p12 = SystemParams(**{k: draw[k] for k in ("mu_bar", "intensity", "beta_bar", "gamma")})
    p12 = dataclasses.replace(p12, lambda_bar=sweep_lambda_bar(p12.omega_bar))
    bath = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-2, lambda_bar=100.0)
    cases = ((p12, "real"), (bath, "complex"), (dataclasses.replace(bath, gamma=1e-4), "complex"))
    for p, ray in cases:
        n_max = fock_cutoff(p.intensity)
        ladder = _Ladder(p, n_max)
        rhs = _BandedRHS(p, ladder, "born-markov-asymptotic")
        rate, _, bands = rhs.sets[0]
        lam = arnoldi_radius(rhs, n_max)
        assert (abs(lam.imag) > abs(lam.real)) == (ray == "complex"), (p, lam)
        assert 0.7 <= rate / abs(lam) <= 1.3, (p, rate, lam)
        assert EV._bath_rate(ladder.sqrt_n, bands) > 4.0 * abs(lam), p


@pytest.mark.parametrize("mode", ["born-markov-asymptotic", "born-markov-transient"])
def test_overflowing_generator_keeps_its_norm_bound(mode):
    """At gamma = 1e307 the bands overflow, so the measured radius is not
    finite: the set keeps its norm bound, with no numpy warning, and the
    run fails with its refusal. At beta_bar = 1e-300, which the transient
    mode refuses before any row, the bands are finite but the iterate's
    norm overflows, and the bound, 1.5e-300 of step, is kept too."""
    overflows = [{"gamma": 1e307}]
    if mode == "born-markov-asymptotic":
        overflows.append({"beta_bar": 1e-300})
    for changes in overflows:
        p = dataclasses.replace(SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3), **changes)
        ladder = _Ladder(p, fock_cutoff(p.intensity))
        with np.errstate(over="ignore", invalid="ignore"):  # as evolve builds it
            rhs = _BandedRHS(p, ladder, mode, tau_end=0.5)
            rate, _, bands = rhs.sets[-1]
            assert rate == EV._bath_rate(ladder.sqrt_n, bands), changes
        if "beta_bar" in changes:
            assert rate == pytest.approx(0.25 / 1.49875e-300, rel=1e-5)
        with pytest.raises(IntegrationError, match="lower gamma or raise beta_bar"):
            evolve(p, 0.5, mode=mode)


def test_recorder_rows_do_not_depend_on_their_grouping():
    """store sums each sample's row on its own, so one call with k rows
    records the bits of k one-row calls (a k-row np.dot differed in 184 of
    200 random 2-row blocks)."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, gamma=1e-3)
    n_max = 109
    ladder = _Ladder(p, n_max)
    rng = np.random.default_rng(11)
    al = math.sqrt(p.intensity)
    config = IntegratorConfig(overlap_pair=(al, -al), record_min_eig=True)
    k = 7
    recs = [EV._Recorder(ladder, np.zeros(k), 1.0, "closed", config, "",
                         np.empty(n_max * (2 * n_max - 1), complex)) for _ in range(2)]
    size = recs[0].size
    vecs = rng.normal(size=(k, size)) + 1j * rng.normal(size=(k, size))
    vecs[:, n_max - 1:2 * n_max - 1] /= vecs[:, n_max - 1:2 * n_max - 1].sum(axis=1)[:, None]
    taus, herm, eig = rng.uniform(0.0, 5.0, k), rng.uniform(0.0, 1e-16, k), rng.normal(size=k)
    recs[0].store(0, taus, vecs, herm, eig)
    for i in range(k):
        recs[1].store(i, taus[i:i + 1], vecs[i:i + 1], herm[i], eig[i])
    for name in ("a_expect", "n_expect", "energy_expect", "trace", "herm_defect",
                 "top_population", "overlap", "min_eig"):
        np.testing.assert_array_equal(getattr(recs[0].traj, name), getattr(recs[1].traj, name),
                                      name)


def test_rate_bound_run_keeps_its_accuracy(monkeypatch):
    """Acceptance 06's bath at gamma = 1e-3 on the rotating grid to tau = 5:
    the measured radius (11.1) puts the rate budget at 2.03 phase floors,
    so the run steps its floor, 0.0111, where the norm bound held it to
    0.0047. <a> and <n> stay within 1e-7 of their largest magnitude (7.07
    and 50) of a run stepping one grid cell, 0.00222, throughout, whose own
    error is about 1e-9 (measured: 5.0e-7 in <a> and 2.1e-6 in <n>; the
    norm-bound rule gave 1.7e-8 and 7.3e-8). A rate that lets the step
    grow past the floor's accuracy fails here."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-3, lambda_bar=100.0)
    config = IntegratorConfig(frame="rotating")
    run = evolve(p, 5.0, mode="born-markov-asymptotic", config=config)
    assert run.steps == 450 and run.spectral_radius == pytest.approx(11.08, rel=1e-3)
    monkeypatch.setattr(EV, "_step_bounds", lambda *args: (run.dtau,) * 3)
    ref = evolve(p, 5.0, mode="born-markov-asymptotic", config=config)
    assert ref.steps == 2250
    for name in ("a_expect", "n_expect"):
        got, want = getattr(run, name), getattr(ref, name)
        assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want)), name


def test_table_size_is_checked_on_construction():
    """A transient table interpolates between nodes, so it needs two nodes
    at least: fewer, or a size that is no integer, is refused when the
    config is built."""
    for bad in (0, 1, -3, 2.5):
        with pytest.raises(ValueError, match="transient_table_points must be an integer >= 2"):
            IntegratorConfig(transient_table_points=bad)
    assert IntegratorConfig(transient_table_points=np.int64(2)).transient_table_points == 2


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
    for rhs, t in ((asym, 0.83), (trans, 0.37 * trans.starts[1])):
        for state in (rho, skewed):
            out = rhs(t, state, np.empty_like(state))
            assert np.array_equal(out, out.conj().T)


def test_exactly_hermitian_bath_run_stays_exactly_hermitian():
    """A bath run from an exactly Hermitian rho0 stays exactly Hermitian:
    the kernel's output is, and the RK4 sums have real weights. So every
    sample records a measured herm_defect of 0.0, at both ends too. A rho0
    with a 1e-12 asymmetry keeps it: every sample records its measured
    defect."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=1.0, gamma=1e-3)
    rho0 = coherent_state_density(p.alpha, fock_cutoff(p.intensity))
    skewed = rho0.copy()
    skewed[3, 5] += 1e-12
    for mode in ("born-markov-asymptotic", "born-markov-transient"):
        tr = evolve(p, 1.0, mode=mode, rho0=rho0)
        assert tr.steps > 10 and not np.any(tr.herm_defect), mode
        tr = evolve(p, 1.0, mode=mode, rho0=skewed)
        assert np.all(tr.herm_defect > 5e-13), mode


def test_kernel_and_defect_allocate_no_state_sized_array():
    """The kernel and the hermiticity defect work in buffers the run owns
    (the kernel in its scratch block, the defect in scratch it is given).
    At n_max = 109, after a warm-up call, 20 evaluations in each mode, and
    20 defects, peak below one n_max^2 complex array: per-call temporaries of that size made the stepping speed depend on the
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
    mag = np.empty(rho.shape)
    assert peak(lambda k: _herm_defect(rho, out, mag)) < rho.nbytes


def test_run_holds_five_state_buffers():
    """A stepping run holds five state-sized buffers (rho, k1, the stage
    input and two more that the stages share) and one scratch block, which
    the kernel's work arrays, the recorder's padded overlap band, min_eig's
    interpolation work and the real magnitudes of the step estimate and the
    defects share, and it dresses final_rho in place. At the quantum-corner
    parameters, n_max = 109 to tau = 0.2, the tracemalloc peak of evolve in
    units of one n_max^2 complex array (measured: 7.9 from the coherent
    start, also with record_min_eig, whose eigvalsh reads the state in
    place, 9.5 for the cat with its overlap pair, whose weights and the
    numpy buffer of their product add 1.6, and 9.2 in lindblad-rwa, whose
    decay and gain add one and a half); with the
    kernel's, the recorder's and the estimate's scratch apart they read 8.4,
    12.0 and 9.7, with eight state buffers 16.4, 19.4 and 17.9, and with a
    Hermitian part formed per min_eig sample 10.6. On a fine grid, dtau =
    2e-4 with about 70 samples per step, a step records its samples in
    blocks whose interpolated vectors fit in one state array, as does their
    work copy: 11.0 with the recorder's 1001-sample arrays (0.46), where
    interpolating every sample of a step at once read 12.5."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=100.0)
    n_max = fock_cutoff(p.intensity)
    assert n_max == 109
    al = math.sqrt(p.intensity)
    cat = cat_state_density(al, -al, n_max)
    unit = 16 * n_max * n_max
    cases = (("born-markov-asymptotic", None, IntegratorConfig(frame="rotating"), 8.1),
             ("born-markov-asymptotic", None,
              IntegratorConfig(frame="rotating", record_min_eig=True), 8.1),
             ("born-markov-asymptotic", cat,
              IntegratorConfig(frame="rotating", overlap_pair=(al, -al)), 9.6),
             ("lindblad-rwa", None, IntegratorConfig(frame="rotating"), 9.4),
             ("born-markov-asymptotic", None, IntegratorConfig(frame="rotating", dtau=2e-4), 11.1))
    evolve(p, 0.05, mode="born-markov-asymptotic")  # one-off allocations are not the run's
    for mode, rho0, config, bound in cases:
        tracemalloc.start()
        try:
            evolve(p, 0.2, mode=mode, rho0=rho0, config=config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * unit, (mode, peak / unit)


def test_rk4_fourth_order(monkeypatch):
    """Halving the co-moving step shrinks the closed-form error ~ 16x
    (measured: 3.4e-13 and 2.1e-14). Both phase budgets are pinned to one
    grid cell, so each run steps dtau throughout. The basis has 40 levels:
    at fock_cutoff's 25 the coherent state's cut tail keeps the run 1.7e-9
    from the closed form at any step, which hides the step error."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    tau, n_max = 2.0, 40
    rho0 = coherent_state_density(p.alpha, n_max)
    omega_top = 1.0 + p.mu_bar * (2 * n_max - 3)
    errs = []
    for dtau in (0.08, 0.04):
        monkeypatch.setattr(EV, "_PHASE_PER_STEP", dtau * 2.0 * omega_top)
        monkeypatch.setattr(EV, "_PHASE_PER_STEP_MAX", dtau * 2.0 * omega_top)
        tr = evolve(p, tau, mode="lindblad-rwa", rho0=rho0,
                    config=IntegratorConfig(dtau=dtau))
        assert tr.step == pytest.approx(tr.dtau, rel=1e-12) and tr.steps == round(tau / dtau)
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
    the co-moving state over several cells of that grid and stays positive
    at every sample (measured: min eig -4.5e-10 at an interpolated sample
    and -2.5e-16 at the end, in 32 steps of up to 31.1 cells). A lab-frame
    RK4 step of one cell of this grid ended at -5.5e-4."""
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
    cfg = dict(dtau=2e-3)
    lab = evolve(p, 3.0, mode=mode, config=IntegratorConfig(**cfg, frame="lab"))
    rot = evolve(p, 3.0, mode=mode, config=IntegratorConfig(**cfg, frame="rotating"))
    np.testing.assert_array_equal(lab.taus, rot.taus)
    for name in ("a_expect", "n_expect", "trace", "herm_defect", "final_rho"):
        np.testing.assert_array_equal(getattr(lab, name), getattr(rot, name), err_msg=name)
    assert (lab.steps, lab.step) == (rot.steps, rot.step) and rot.step > rot.dtau
    ref = lab_rk4(p, mode, coherent_state_density(p.alpha, rot.n_max), 3.0, 1500, every=500)
    assert sorted(ref) == [0, 500, 1000, 1500] and rot.taus.size == 1501
    a_ref = np.array([expect_a(ref[k]) for k in sorted(ref)])
    n_ref = np.array([expect_n(ref[k]) for k in sorted(ref)])
    assert np.max(np.abs(rot.a_expect[::500] - a_ref)) < 1e-6 * math.sqrt(p.intensity)
    assert np.max(np.abs(rot.n_expect[::500] - n_ref)) < 1e-8 * p.intensity
    assert rot.frame == "rotating" and lab.frame == "lab"


def test_sample_grid_does_not_change_the_trajectory():
    """The step is a length of time, so a coarse sample grid does not
    coarsen it: at dtau = 1, five grid cells, the run takes the same steps
    as on the rotating default grid and agrees with it at tau = 0, ..., 5
    (measured: 1.1e-14 in <n>, 1.8e-15 in <a>). A step of one whole cell,
    1.0, was 0.12 off in <n> and 0.16 in <a>."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, gamma=1e-3)
    mode = "born-markov-asymptotic"
    coarse = evolve(p, 5.0, mode, config=IntegratorConfig(dtau=1.0))
    fine = evolve(p, 5.0, mode, config=IntegratorConfig(frame="rotating"))
    np.testing.assert_array_equal(coarse.taus, np.arange(6.0))
    k = np.searchsorted(fine.taus, coarse.taus - 1e-9)
    np.testing.assert_allclose(fine.taus[k], coarse.taus, rtol=0, atol=1e-12)
    assert np.max(np.abs(coarse.n_expect - fine.n_expect[k])) < 1e-12
    assert np.max(np.abs(coarse.a_expect - fine.a_expect[k])) < 1e-12
    assert coarse.steps == fine.steps and coarse.step < coarse.dtau


def test_transient_mode_runs_and_approaches_asymptotic_late():
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    cfg = dict(dtau=2e-3)
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
                config=IntegratorConfig(overlap_pair=(al, be), frame="rotating"))
    assert tr.overlap[-1] < 0.8 * tr.overlap[0]
    assert np.max(np.abs(tr.trace - 1.0)) < 1e-12
    assert np.max(tr.herm_defect) < 1e-12


def test_positivity_along_born_markov_run():
    """The asymptotic generator acts at full strength on the product start,
    so the run dips below zero in its initial slip (see the module
    docstring; measured: -3.3e-6 at tau = 0.22, recovered past -1e-8 by
    tau = 0.46) and is positive to 1e-8 at the start and from tau = 0.5
    on."""
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    tr = evolve(p, 2.0, mode="born-markov-asymptotic",
                config=IntegratorConfig(record_min_eig=True, frame="rotating"))
    assert tr.min_eig is not None and tr.taus.size == 333
    assert tr.min_eig[0] > -1e-8 and np.min(tr.min_eig[tr.taus >= 0.5]) > -1e-8
    assert -1e-5 < np.min(tr.min_eig) < -1e-6


def test_snapshots_are_lab_frame():
    """A co-moving run's final_rho, the one state it returns, is the
    lab-frame state at tau_end: it matches the dense lab-frame RK4 at the
    grid's step."""
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    mode = "born-markov-asymptotic"
    rot = evolve(p, 1.0, mode=mode, config=IntegratorConfig(dtau=2e-3, frame="rotating"))
    ref = lab_rk4(p, mode, coherent_state_density(p.alpha, rot.n_max), 1.0, 500, every=500)
    assert np.max(np.abs(rot.final_rho - ref[500])) < 1e-6
    # a closed run's final_rho equals the exact phase rotation of rho0
    pc = SystemParams(mu_bar=0.1, intensity=8.0)
    n_max = fock_cutoff(8.0)
    rho0 = coherent_state_density(math.sqrt(8.0), n_max)
    tr = evolve(pc, 0.5, mode="closed", rho0=rho0)
    e = energies(n_max, pc.mu_bar)
    expect = np.exp(-1j * (e[:, None] - e[None, :]) * 0.5) * rho0
    assert np.max(np.abs(tr.final_rho - expect)) < 1e-12


def test_default_rho0_is_coherent_state():
    p = SystemParams(mu_bar=0.05, intensity=12.0, theta=0.4)
    tr = evolve(p, 0.0, mode="closed")
    assert tr.taus.shape == (1,)
    assert tr.a_expect[0] == pytest.approx(p.alpha, rel=1e-8)


def test_explicit_dtau_samples_every_grid_point():
    """An explicit dtau is the sample spacing: n_cells + 1 samples."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    tr = evolve(p, 1.0, mode="lindblad-rwa", config=IntegratorConfig(dtau=0.01))
    assert tr.taus.size == 101
    np.testing.assert_allclose(tr.taus, np.linspace(0.0, 1.0, 101), rtol=1e-15)
    assert tr.dtau == pytest.approx(0.01)


def test_long_default_grid_coarsens_by_a_whole_factor():
    """A default grid of 8000 cells or more coarsens by the whole factor
    n_cells // 4000: here it keeps every third of its 12000 grid points,
    and each is a sample. The step floor is still one default cell, so the
    run takes the steps of the full grid given as dtau and agrees with it
    at every shared sample (measured: 4.5e-14 in <a>, 2.7e-15 in <n>)."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    tau_end = 11999.5 * default_dtau(p, fock_cutoff(p.intensity), "rotating")
    cfg = dict(frame="rotating")
    tr = evolve(p, tau_end, mode="lindblad-rwa", config=IntegratorConfig(**cfg))
    full = evolve(p, tau_end, mode="lindblad-rwa",
                  config=IntegratorConfig(**cfg, dtau=tau_end / 12000))
    assert full.taus.size == 12001
    np.testing.assert_allclose(tr.taus, full.taus[::3], rtol=1e-15, atol=0)
    assert tr.dtau == pytest.approx(3 * full.dtau, rel=1e-15)
    assert tr.steps == full.steps
    assert np.max(np.abs(tr.a_expect - full.a_expect[::3])) < 1e-12
    assert np.max(np.abs(tr.n_expect - full.n_expect[::3])) < 1e-12


def test_closed_sample_count_follows_dtau():
    """Closed mode takes n_cells + 1 samples for an explicit dtau too; a
    dtau that does not divide tau_end shrinks to the next grid that ends on
    it."""
    p = SystemParams(mu_bar=0.1, intensity=5.0)
    tr = evolve(p, 1.0, mode="closed", config=IntegratorConfig(dtau=0.01))
    assert tr.taus.size == 101
    assert tr.taus[0] == 0.0 and tr.taus[-1] == pytest.approx(1.0)
    assert tr.dtau == pytest.approx(0.01)
    tr = evolve(p, 1.0, mode="closed", config=IntegratorConfig(dtau=0.3))
    np.testing.assert_allclose(tr.taus, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=1e-15)
    assert tr.dtau == 0.25
    # no dtau: tau_end is split into 2000 steps, every one sampled
    tr = evolve(p, 3.0, mode="closed")
    assert tr.taus.size == 2001 and tr.dtau == pytest.approx(3.0 / 2000)
    np.testing.assert_allclose(tr.taus, np.linspace(0.0, 3.0, 2001), rtol=1e-15)


def test_closed_run_is_the_generator_free_rotating_run():
    """A run at gamma = 0 has no generator, so in every mode it takes the
    closed path: no kernel, no step, and every sample exact. On a common
    grid it returns closed mode's arrays and final state to the bit."""
    p = SystemParams(mu_bar=0.1, intensity=8.0, beta_bar=1.0, gamma=0.0)
    al = math.sqrt(8.0)
    be = 1j * al
    rho0 = cat_state_density(al, be, fock_cutoff(8.0))
    cfg = IntegratorConfig(dtau=0.013, overlap_pair=(al, be), record_min_eig=True,
                           frame="rotating")
    closed = evolve(p, 3.0, mode="closed", rho0=rho0, config=cfg)
    for mode in ("born-markov-asymptotic", "born-markov-transient", "lindblad-rwa"):
        run = evolve(p, 3.0, mode=mode, rho0=rho0, config=cfg)
        assert (run.steps, run.step, run.step_error) == (0, None, None), mode
        assert run.dtau == closed.dtau, mode
        for name in ("taus", "a_expect", "n_expect", "energy_expect", "trace", "herm_defect",
                     "top_population", "overlap", "min_eig", "final_rho"):
            np.testing.assert_array_equal(getattr(run, name), getattr(closed, name),
                                          err_msg=f"{mode} {name}")
    # the sample grid still follows the mode: a default grid, not closed mode's
    run = evolve(p, 3.0, mode="lindblad-rwa", rho0=rho0)
    assert run.steps == 0 and run.dtau == 3.0 / math.ceil(3.0 / default_dtau(p, run.n_max))


def test_closed_path_records_in_state_sized_blocks(monkeypatch):
    """The closed path records rho0's samples in the blocks that a step's
    dense output uses, whose observable vectors fit in one state array, or
    in numpy's buffer of 8192 elements where that is larger, so that a
    small basis's samples do not go one call each. Every array, final_rho
    included, is that of 512-sample blocks to the bit, for the closed
    `spectrum` run (n_max = 109, 4097 samples) and for a cat with an
    overlap pair and min_eig (n_max = 33). The spectrum run peaks under
    tracemalloc at 4.1 state arrays (measured; 12.6 with 512-sample
    blocks). A closed run of 10001 samples at n_max = 4 records them in
    blocks of 1170 samples (measured: 1.5-2.1 ms, and 101 ms in blocks of
    n_max^2 // 7 = 2)."""
    p = SystemParams(mu_bar=0.1, intensity=50.0)
    n_max = fock_cutoff(p.intensity)
    duration = 2.0 * math.pi / p.mu_bar
    spectrum = IntegratorConfig(dtau=duration / 4096)
    evolve(p, 0.5, mode="closed")  # one-off allocations are not the run's
    tracemalloc.start()
    try:
        run = evolve(p, duration, mode="closed", config=spectrum)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.taus.size == 4097 and peak <= 5.0 * 16 * n_max * n_max, peak / (16 * n_max**2)
    al = math.sqrt(8.0)
    cat = cat_state_density(al, 1j * al, fock_cutoff(8.0))
    cat_config = IntegratorConfig(dtau=0.01, overlap_pair=(al, 1j * al), record_min_eig=True)
    cases = ((p, duration, coherent_state_density(p.alpha, n_max), spectrum),
             (dataclasses.replace(p, intensity=8.0), 12.0, cat, cat_config))
    store = EV._Recorder.store
    calls = []  # (samples, vector size) of each store call

    def spy(self, k, taus, *args):
        calls.append((taus.size, self.size))
        return store(self, k, taus, *args)

    for params, tau_end, rho0, config in cases:
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(EV._Recorder, "store", spy)
            run = evolve(params, tau_end, mode="closed", rho0=rho0, config=config)
        n = rho0.shape[0]
        assert sum(k for k, _ in calls) == run.taus.size and max(calls)[0] < 512, n
        assert max(k * size for k, size in calls) <= max(n * n, 8192), n
        ladder = _Ladder(params, n)
        rec = EV._Recorder(ladder, run.taus, run.dtau, "closed", config, "",
                           np.empty(n * (2 * n - 1), complex))
        v0 = rec.vector(rho0)
        eig = rec.lowest_eig(rho0) if config.record_min_eig else None
        for k in range(0, run.taus.size, 512):
            rec.store(k, run.taus[k:k + 512], v0[None], run.herm_defect[0], eig)
        want = rec.traj
        for name in ("taus", "a_expect", "n_expect", "energy_expect", "trace", "herm_defect",
                     "top_population", "overlap", "min_eig"):
            np.testing.assert_array_equal(getattr(run, name), getattr(want, name), name)
        dress = np.exp(-1j * ladder.energies * run.taus[-1])
        final = dress[:, None] * rho0
        np.testing.assert_array_equal(run.final_rho, final * dress.conj()[None, :], strict=True)
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(EV._Recorder, "store", spy)
        evolve(p, 10.0, mode="closed", rho0=np.diag([1.0, 0.0, 0.0, 0.0]),
               config=IntegratorConfig(dtau=1e-3))
    assert calls == [(1170, 7)] * 8 + [(10001 - 8 * 1170, 7)]


def test_every_sample_is_recorded_once_in_order(monkeypatch):
    """The recorder's store calls tile the samples 0 .. n - 1 in order, with
    no gap and no overlap, on each recording path: the closed path; a
    stepping run on the rotating grid, whose dtau is at most its step floor,
    so that every step records; and a run whose dtau of 0.5 is several
    times its floor, whose steps that record nothing leave the step-end
    cache behind the next recording step's start."""
    store = EV._Recorder.store
    calls = []  # (first sample, samples) of each store call

    def spy(self, k, taus, *args):
        calls.append((k, taus.size))
        return store(self, k, taus, *args)

    monkeypatch.setattr(EV._Recorder, "store", spy)
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    al = math.sqrt(p.intensity)
    rho0 = cat_state_density(al, 1j * al, fock_cutoff(p.intensity))
    cases = (("closed", IntegratorConfig()),
             ("born-markov-asymptotic", IntegratorConfig(frame="rotating")),
             ("born-markov-asymptotic", IntegratorConfig(dtau=0.5, overlap_pair=(al, 1j * al),
                                                         record_min_eig=True)))
    runs = []
    for mode, config in cases:
        calls.clear()
        runs.append(evolve(p, 2.0, mode=mode, rho0=rho0, config=config))
        ends = np.cumsum([0] + [count for _, count in calls])
        assert [k for k, _ in calls] == list(ends[:-1]) and ends[-1] == runs[-1].taus.size, mode
        assert min(count for _, count in calls) >= 1, mode
    closed, fine, coarse = runs
    h_lo = _step_bounds(p, _BandedRHS(p, _Ladder(p, rho0.shape[0]), mode), 0.5)[0]
    assert closed.steps == 0 and fine.dtau <= h_lo and 0 < fine.steps < fine.taus.size
    assert coarse.taus.size == 5 and 0.5 > 4 * h_lo
    # each recording step records one of the 4 samples after sample 0 at least
    assert coarse.steps > 4, coarse.steps


def test_closed_run_matches_per_sample_computation():
    """Closed mode computes the state's invariants once; every sample must
    still equal the quantities computed directly from its lab-frame state."""
    p = SystemParams(mu_bar=0.1, intensity=8.0)
    al = math.sqrt(8.0)
    be = 1j * al
    n_max = fock_cutoff(8.0)
    rho0 = cat_state_density(al, be, n_max)
    tr = evolve(p, 3.0, mode="closed", rho0=rho0,
                config=IntegratorConfig(dtau=0.05, overlap_pair=(al, be),
                                        record_min_eig=True))
    assert tr.taus.size == 61
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
    for bad in (-1.0, math.nan, math.inf):
        for mode in ("closed", "lindblad-rwa"):
            msg = f"tau_end must be finite and non-negative, got {bad}"
            with pytest.raises(ValueError, match=msg):
                evolve(p, bad, mode=mode)
    with pytest.raises(ValueError, match="unknown frame"):
        evolve(p, 1.0, mode="lindblad-rwa", config=IntegratorConfig(frame="galilean"))
    for mode in ("closed", "lindblad-rwa"):
        for bad in (0.0, -0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="dtau must be positive and finite"):
                evolve(p, 1.0, mode=mode, config=IntegratorConfig(dtau=bad))
    # dtau alone sets the samples
    with pytest.raises(TypeError, match="stride"):
        IntegratorConfig(stride=10)
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


@pytest.mark.parametrize("changes,mode,frame,message", [
    (dict(gamma=math.nan), "lindblad-rwa", "lab", "gamma must be a number, got nan"),
    (dict(gamma=-1e-3), "lindblad-rwa", "rotating", "gamma must be non-negative, got -0.001"),
    (dict(beta_bar=math.inf), "born-markov-asymptotic", "rotating",
     "beta_bar must be finite in born-markov-asymptotic and born-markov-transient, got inf"),
    (dict(beta_bar=math.inf), "born-markov-transient", "rotating",
     "beta_bar must be finite in born-markov-asymptotic and born-markov-transient, got inf"),
], ids=["gamma-nan", "gamma-negative", "beta-inf-asymptotic", "beta-inf-transient"])
def test_evolve_refuses_invalid_parameters(changes, mode, frame, message):
    """A set that breaks the field rule never reaches evolve: construction
    refuses it. The born-markov modes refuse zero temperature, since their
    closed-form coefficients need a finite beta_bar. (A nan or negative gamma
    ran an isolated run; beta_bar = inf failed deep in the coefficients,
    after a numpy RuntimeWarning in asymptotic mode.)"""
    base = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    if "gamma" in changes:
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(base, **changes)
        return
    p = dataclasses.replace(base, **changes)
    with pytest.raises(ValueError, match=re.escape(message)):
        evolve(p, 1.0, mode=mode, config=IntegratorConfig(frame=frame))


def test_zero_temperature_runs_outside_born_markov():
    """beta_bar = inf is valid zero temperature wherever the generator does
    not read beta_bar."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3, beta_bar=math.inf)
    assert evolve(p, 0.5, mode="lindblad-rwa").steps > 0
    assert evolve(p, 0.5, mode="closed").steps == 0


def test_sample_limit():
    """Every grid point is a sample, so 1e8 cells exceed the limit of 1e6
    samples; the run raises before it allocates."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    for mode in ("closed", "lindblad-rwa"):
        with pytest.raises(IntegrationError,
                           match="100000000 samples after tau = 0 exceed the limit of 1000000; raise dtau"):
            evolve(p, 1.0, mode=mode, config=IntegratorConfig(dtau=1e-8))


def test_step_limit_counts_the_fewest_steps(monkeypatch):
    """A run is refused when it would take more RK4 steps than the limit
    even at its step ceiling, the fewest it can take, and is otherwise let
    run. With the limit lowered to a run's ceiling count the run goes ahead
    and takes at least that many steps; one less refuses it. At the
    quantum-corner parameters (n_max = 109) a run to tau_gamma = 2/gamma =
    2e4 takes at least 4.5e5 steps and is not refused: a limit of 1e6 steps
    counted at the 0.011 floor (1.8e6) refused it, though it ends in
    minutes."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=1.0, gamma=1e-3)
    config = IntegratorConfig(dtau=0.5, frame="rotating")
    rhs = _BandedRHS(p, _Ladder(p, fock_cutoff(p.intensity)), "born-markov-asymptotic")
    least = 4.0 / _step_bounds(p, rhs, 0.5)[1]
    monkeypatch.setattr(EV, "_MAX_STEPS", math.ceil(least))
    assert evolve(p, 4.0, mode="born-markov-asymptotic", config=config).steps >= least
    monkeypatch.setattr(EV, "_MAX_STEPS", math.ceil(least) - 1)
    with pytest.raises(IntegrationError, match=f"takes at least {least:.3g} RK4 steps"):
        evolve(p, 4.0, mode="born-markov-asymptotic", config=config)
    monkeypatch.undo()

    class Past(Exception):
        pass

    def stop(*args):
        raise Past  # the run got past its refusals

    corner = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=100.0)
    tau_gamma = 2.0 / corner.gamma
    rhs = _BandedRHS(corner, _Ladder(corner, 109), "born-markov-asymptotic")
    h_lo, h_hi, _ = _step_bounds(corner, rhs, 5.0)  # dtau is 5 once coarsened
    assert tau_gamma / h_lo > 1e6 and 4e5 < tau_gamma / h_hi < 5e5
    monkeypatch.setattr(EV, "_Recorder", stop)
    with pytest.raises(Past):
        evolve(corner, tau_gamma, mode="born-markov-asymptotic",
               config=IntegratorConfig(frame="rotating"))


def test_unstable_step_raises():
    """Each message names the fix that applies. At gamma = 100 the rate
    budget is far below one rotating cell, which floors the step, so the
    step is unstable and a dtau at or below the rate budget is the fix,
    where the sample limit allows that dtau to tau_end: to tau = 5 it does.
    To tau = 50 it does not, and neither does it at beta_bar = 1e-300,
    whose rate budget is 1.5e-300; there the fix is the parameters that set
    the rate, or a run short enough for that dtau. With a floor at its
    phase budget, dtau does not set the step, and the fix is a larger
    basis; closed mode keeps rho0."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, gamma=100.0)
    rhs = _BandedRHS(p, _Ladder(p, fock_cutoff(p.intensity)), "lindblad-rwa")
    cap = _step_bounds(p, rhs, 5.0)[2]
    assert 5.0 <= 1e6 * cap < 50.0
    with pytest.raises(IntegrationError, match=f"unphysical.*reduce dtau to {cap:g} or below") as info:
        evolve(p, 5.0, mode="lindblad-rwa", config=IntegratorConfig(dtau=5.0))
    # the first non-finite step stops the run, long before the first sample
    assert float(re.search(r"tau=(\S+) ", str(info.value)).group(1)) < 5.0
    fix = f"lower gamma, or run to tau_end <= {1e6 * cap:g} with dtau <= {cap:g} ("
    with pytest.raises(IntegrationError, match=re.escape(fix)):
        evolve(p, 50.0, mode="lindblad-rwa", config=IntegratorConfig(dtau=5.0))
    hot = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3, beta_bar=1e-300)
    rhs = _BandedRHS(hot, _Ladder(hot, fock_cutoff(hot.intensity)), "born-markov-asymptotic")
    cap = _step_bounds(hot, rhs, 1.0)[2]
    assert 1e6 * cap < 0.5
    fix = f"lower gamma or raise beta_bar, or run to tau_end <= {1e6 * cap:g} with dtau <= {cap:g}"
    with pytest.raises(IntegrationError, match=re.escape(fix)) as info:
        evolve(hot, 0.5, mode="born-markov-asymptotic")
    assert "reduce dtau" not in str(info.value)
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    rho0 = 3.0 * coherent_state_density(p.alpha, fock_cutoff(p.intensity))
    with pytest.raises(IntegrationError, match="unphysical.*enlarge the basis.*RK4 step runs"):
        evolve(p, 0.5, mode="born-markov-asymptotic", rho0=rho0,
               config=IntegratorConfig(frame="rotating"))
    with pytest.raises(IntegrationError, match="unphysical.*check its trace"):
        evolve(p, 1.0, mode="closed", rho0=rho0)


def test_overflowing_run_reports_only_its_integration_error():
    """The gamma = 100 Lindblad run overflows within a step. Its steps run
    under numpy's errstate, so with RuntimeWarning an error the run still
    ends in the IntegrationError of its non-finite check, not in an
    overflow or invalid-value warning on the way."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, gamma=100.0)
    with pytest.raises(IntegrationError, match="non-finite RK4 step"):
        evolve(p, 50.0, mode="lindblad-rwa", config=IntegratorConfig(dtau=5.0))


# a one-level run in a child process, so that a run that never returns fails
# on the timeout instead of hanging the suite
ONE_LEVEL_RUN = """
import sys, warnings
import numpy as np
from kerrbath import IntegratorConfig, SystemParams, TruncationLeakWarning, evolve
warnings.simplefilter("error")
warnings.simplefilter("ignore", TruncationLeakWarning)  # its one level is the top
p = SystemParams(mu_bar=float(sys.argv[1]), intensity=5.0, gamma=1e-3)
for frame in ("lab", "rotating"):
    tr = evolve(p, 0.5, mode=sys.argv[2], rho0=np.ones((1, 1)),
                config=IntegratorConfig(frame=frame))
    print(tr.steps, tr.final_rho[0, 0], tr.taus.size > 1)
"""


@pytest.mark.parametrize("mode", ["lindblad-rwa", "born-markov-asymptotic",
                                  "born-markov-transient"])
@pytest.mark.parametrize("mu_bar", [1.0, 2.0])
def test_one_level_basis_takes_the_closed_path(mu_bar, mode):
    """A one-level basis has no band, so its generator is zero: every mode
    takes the closed path, keeps rho0 and takes no step, and its rotating
    grid is that of two levels, 0.05/(1 + mu_bar). (Its top gap
    1 + mu_bar (2 n_max - 3) was 1 - mu_bar: at mu_bar = 1 the rotating
    grid divided by zero, and at mu_bar = 2 the step was negative and the
    run never ended.)"""
    p = SystemParams(mu_bar=mu_bar, intensity=5.0, gamma=1e-3)
    assert default_dtau(p, 1, "rotating") == 0.05 / (1.0 + mu_bar)
    proc = subprocess.run([sys.executable, "-c", ONE_LEVEL_RUN, repr(mu_bar), mode],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "(1+0j)", "True"] * 2


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


def test_rotating_step_follows_its_phase_budgets():
    """A default rotating run at the quantum-corner parameters steps by
    lengths of time, not whole grid cells, between its floor of 0.5 rad of
    the fastest band phase per step and its ceiling of 2 rad, which its rate
    budget may lower. The bath run at gamma = 1e-3, whose ceiling the rate
    budget holds to 2.03 floors, keeps to its floor; the Lindblad
    run, whose estimate stays near 5e-13, reaches the 2-rad ceiling. A
    lab-grid run has the same bounds, which span several cells of its finer
    grid; a transient run, bound by its table's spacing, is floored at one
    cell of its grid and steps that, and closed mode takes no step."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=100.0)
    for mode, gamma in (("born-markov-asymptotic", 1e-3), ("lindblad-rwa", 1e-4)):
        pg = dataclasses.replace(p, gamma=gamma)
        tr = evolve(pg, 2.5, mode=mode, config=IntegratorConfig(frame="rotating"))
        h_lo, h_hi, _ = _step_bounds(pg, _BandedRHS(pg, _Ladder(pg, tr.n_max), mode), tr.dtau)
        omega_top = 1.0 + p.mu_bar * (2 * tr.n_max - 3)
        assert h_lo == 0.25 / omega_top and h_lo <= tr.step <= h_hi * (1.0 + SNAP), mode
        assert tr.dtau == 2.5 / math.ceil(2.5 / default_dtau(p, tr.n_max, "rotating"))
        assert (h_hi < 1.0 / omega_top) == (mode == "born-markov-asymptotic"), mode
    assert tr.step == pytest.approx(h_hi, rel=SNAP)
    assert tr.steps < math.ceil(2.5 / h_lo)  # the Lindblad run left its floor
    small = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=1.0, gamma=1e-3)
    for mode, frame in (("born-markov-asymptotic", "lab"), ("lindblad-rwa", "lab"),
                        ("born-markov-transient", "rotating")):
        tr = evolve(small, 0.2, mode=mode, config=IntegratorConfig(frame=frame))
        n_cells = tr.taus.size - 1
        assert tr.dtau == 0.2 / math.ceil(0.2 / default_dtau(small, tr.n_max, frame))
        rhs = _BandedRHS(small, _Ladder(small, tr.n_max), mode)
        h_lo, h_hi, _ = _step_bounds(small, rhs, tr.dtau)
        assert h_lo <= tr.step <= h_hi * (1.0 + SNAP), (mode, frame)
        assert tr.steps <= math.ceil(0.2 / h_lo) and tr.step_error > 0.0, (mode, frame)
        assert (h_lo > tr.dtau) == (frame == "lab"), (mode, frame)
    # the table binds the transient run, whose floor is then one cell
    assert h_lo == h_hi == tr.dtau and tr.steps == n_cells
    tr = evolve(small, 0.2, mode="closed")
    assert tr.step is None and tr.steps == 0 and tr.step_error is None


def test_transient_run_past_its_table_steps_like_an_asymptotic_run(monkeypatch):
    """The table's spacing caps the step only while the table lasts. The
    small bath's table (spacing 4/511) holds the run to one rotating cell up
    to its end at tau = 4; from there the run has the asymptotic run's
    bounds, and its steps grow past the table's cap. Every attempt is read
    off the kernel's calls: after the initial k1, one from t0 to t1 evaluates
    at t0 + (t1 - t0)/2 twice and at t1 twice."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=1.0, gamma=1e-3)
    n_max, tau_end = fock_cutoff(p.intensity), 5.0
    dtau = default_dtau(p, n_max, "rotating")
    dtau = tau_end / math.ceil(tau_end / dtau)
    ladder = _Ladder(p, n_max)
    trans = _BandedRHS(p, ladder, "born-markov-transient")
    asym = _BandedRHS(p, ladder, "born-markov-asymptotic")
    t_table = trans.starts[1]
    early = _step_bounds(p, trans, dtau)
    late = _step_bounds(p, trans, dtau, t_table)
    assert early == _step_bounds(p, trans, dtau, np.nextafter(t_table, 0.0))
    assert late == _step_bounds(p, asym, dtau) and trans.sets[1][:2] == asym.sets[0][:2]
    for band, band_a in zip(trans.sets[1][2], asym.sets[0][2], strict=True):
        assert np.array_equal(band, band_a)
    assert early[0] == early[1] == dtau and early[1] < late[0] < late[1]
    calls = []
    original = _BandedRHS.__call__

    def spy(self, tau, rho, out):
        calls.append(tau)
        return original(self, tau, rho, out)

    monkeypatch.setattr(_BandedRHS, "__call__", spy)
    tr = evolve(p, tau_end, mode="born-markov-transient",
                config=IntegratorConfig(frame="rotating", dtau=dtau))
    attempts = [(2.0 * mid - t1, 2.0 * (t1 - mid)) for mid, t1 in zip(calls[1::4], calls[3::4])]
    assert len(calls) == 1 + 4 * len(attempts)
    for t0, h in attempts:
        if t0 < t_table * (1.0 - SNAP):
            assert h <= early[1] * (1.0 + SNAP), t0
        elif t0 + h < tau_end * (1.0 - SNAP):
            assert late[0] * (1.0 - SNAP) <= h <= late[1] * (1.0 + SNAP), t0
    assert tr.step > 2.0 * early[1]
    assert tr.steps < math.ceil(t_table / dtau) + math.ceil((tau_end - t_table) / late[0]) + 2


def run_attempts(monkeypatch, params, tau_end, dtau=None, frame="rotating"):
    """A born-markov-asymptotic run from the coherent start, with its RK4
    step attempts as (start time, length, estimate), read off the kernel's
    calls: after the initial k1, each attempt from t0 to t1 evaluates at
    t0 + (t1 - t0)/2 twice, at t1 for k4 and again at t1 for the end
    derivative f1, and the estimate ((t1 - t0)/6) max|f1 - k4| is
    recomputed from the last two. An attempt starts where the last accepted
    one ended, so each midpoint tells a retry (same start) from an accepted
    predecessor (start at its end). Also returns which attempts were
    accepted and the run's (floor, ceiling) in time."""
    mode = "born-markov-asymptotic"
    n_max = fock_cutoff(params.intensity)
    dtau = dtau or default_dtau(params, n_max, frame)
    dtau = tau_end / math.ceil(tau_end / dtau - 1e-12)
    bounds = _step_bounds(params, _BandedRHS(params, _Ladder(params, n_max), mode), dtau)[:2]
    calls, raw, last = [], [], [None]
    original = _BandedRHS.__call__

    def spy(self, tau, rho, out):
        original(self, tau, rho, out)
        calls.append(tau)
        if len(calls) % 4 == 1 and len(calls) > 1:  # f1, right after k4
            raw.append((calls[-3], tau, float(np.abs(out - last[0]).max())))
        last[0] = out.copy()
        return out

    with monkeypatch.context() as m:
        m.setattr(_BandedRHS, "__call__", spy)
        tr = evolve(params, tau_end, mode=mode, config=IntegratorConfig(frame=frame, dtau=dtau))
    assert tr.dtau == dtau and len(calls) == 1 + 4 * len(raw)
    attempts, accepted, t0 = [], [], 0.0
    for k, (mid, t1, diff) in enumerate(raw):
        attempts.append((t0, t1 - t0, (t1 - t0) / 6.0 * diff))
        if k + 1 < len(raw):
            mid_next, t1_next, _ = raw[k + 1]
            start = 2.0 * mid_next - t1_next  # the next start, to round-off
            accepted.append(abs(start - t1) < abs(start - t0))
            t0 = t1 if accepted[-1] else t0
    accepted.append(True)
    return tr, attempts, accepted, bounds


def test_controller_stays_between_floor_and_ceiling(monkeypatch):
    """Every attempt lasts from the floor to the ceiling (the last may be
    shorter); a rejected attempt lies above the floor with an estimate over
    the tolerance, and every accepted step above the floor is within it.
    The accepted steps tile the run, and the trajectory reports their
    number, the longest and the worst accepted estimate. Runs: the
    quantum-corner bump (floor 0.25/Omega_top, ceiling four floors), which
    steps up to 1.72 floors and retries 4 steps, and the frames test's bath
    (floor 15.1 cells of its grid, ceiling 60.2), which climbs to 1.56
    floors."""
    qc = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=100.0)
    frames = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    rejected = []
    for p, tau_end, dtau in ((qc, 2.5, None), (frames, 3.0, 2e-3)):
        tr, attempts, accepted, (h_lo, h_hi) = run_attempts(monkeypatch, p, tau_end, dtau=dtau)
        assert h_lo < h_hi
        rejected.append(accepted.count(False))
        t_end = tr.taus[-1]
        for (t0, h, err), ok in zip(attempts, accepted):
            at_end = t0 + h == t_end
            assert h <= h_hi * (1.0 + SNAP) and (h >= h_lo * (1.0 - SNAP) or at_end)
            if not ok:
                assert (h > h_lo * (1.0 - SNAP) or at_end) and err > EV._STEP_TOL
            elif h > h_lo * (1.0 + SNAP):
                assert err <= EV._STEP_TOL
        kept = [a for a, ok in zip(attempts, accepted) if ok]
        assert kept[-1][0] + kept[-1][1] == t_end and tr.steps == len(kept)
        assert all(a[0] + a[1] == b[0] for a, b in zip(kept, kept[1:]))
        assert tr.step == max(h for _, h, _ in kept)
        assert tr.step > h_lo * (1.0 + SNAP)
        assert tr.step_error == max(err for _, _, err in kept)
    assert rejected[0] > 0


def test_floor_bound_run_keeps_the_fixed_step(monkeypatch):
    """The frames test's bath at gamma = 3e-3 on the lab grid, to tau = 1:
    floor 5.24 cells and ceiling 8.41, so its steps end between grid points
    and the run is no whole number of floors long. Its estimate at the floor
    stays above 0.9^4 of the tolerance on every step but the short last one
    (measured: 0.89), where the growth factor 0.9 (tol/err)^(1/4) is below
    1. It then takes the floor's step throughout, with no retry, ends on a
    shorter step at tau_end, and its trajectory is bit-identical to the run
    whose ceiling is pinned to the floor."""
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=3e-3)
    tr, attempts, accepted, (h_lo, h_hi) = run_attempts(monkeypatch, p, 1.0, frame="lab")
    assert h_lo < h_hi and all(accepted)
    assert h_lo / tr.dtau == pytest.approx(5.24, abs=0.01)
    assert all(h == pytest.approx(h_lo, rel=SNAP) for _, h, _ in attempts[:-1])
    assert all(err > 0.9**4 * EV._STEP_TOL for _, _, err in attempts[:-1])
    t0, h, _ = attempts[-1]
    assert t0 + h == tr.taus[-1] == 1.0 and h < 0.5 * h_lo
    assert tr.step_error > EV._STEP_TOL
    assert tr.steps == math.ceil(1.0 / h_lo) and tr.step == pytest.approx(h_lo, rel=SNAP)
    monkeypatch.setattr(EV, "_PHASE_PER_STEP_MAX", EV._PHASE_PER_STEP)
    pinned = evolve(p, 1.0, mode="born-markov-asymptotic", config=IntegratorConfig())
    for name in ("a_expect", "n_expect", "trace", "herm_defect", "final_rho"):
        np.testing.assert_array_equal(getattr(tr, name), getattr(pinned, name), err_msg=name)
    assert (pinned.steps, pinned.step, pinned.step_error) == (tr.steps, tr.step, tr.step_error)


def test_weak_coupling_run_stays_below_the_ceiling(monkeypatch):
    """Acceptance 01's gamma = 1e-8 run: its estimate is near 1e-17, blind
    to the aliasing of the band phases, so it would ask for steps of
    hundreds of radians. The ceiling holds every step to 2 rad of the
    fastest phase (four floors), and the run steps there."""
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1.0, gamma=1e-8)
    tr, attempts, accepted, (h_lo, h_hi) = run_attempts(monkeypatch, p, math.pi / p.mu_bar)
    omega_top = 1.0 + p.mu_bar * (2 * tr.n_max - 3)
    assert (h_lo, h_hi) == (0.25 / omega_top, 1.0 / omega_top) and all(accepted)
    assert max(h for _, h, _ in attempts) == pytest.approx(h_hi, rel=SNAP)
    assert tr.step == pytest.approx(h_hi, rel=SNAP) and tr.step_error < 1e-3 * EV._STEP_TOL


def test_step_estimate_is_fourth_order(monkeypatch):
    """On acceptance 03's cat, with the step pinned to 0.5, 1 and 2 rad of
    the fastest phase (5, 10 and 20 rotating cells), the worst estimate over the
    first unit of time grows at least 8x per doubling of the step (measured:
    15.7x and 14.9x), as a local error of order h^4 or higher must."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=100.0)
    al = math.sqrt(p.intensity)
    rho0 = cat_state_density(al, -al, fock_cutoff(p.intensity))
    errs = []
    omega_top = 1.0 + p.mu_bar * (2 * fock_cutoff(p.intensity) - 3)
    for phase in (0.5, 1.0, 2.0):
        monkeypatch.setattr(EV, "_PHASE_PER_STEP", phase)
        monkeypatch.setattr(EV, "_PHASE_PER_STEP_MAX", phase)
        tr = evolve(p, 1.0, mode="born-markov-asymptotic", rho0=rho0,
                    config=IntegratorConfig(frame="rotating"))
        assert tr.step == pytest.approx(phase / (2.0 * omega_top), rel=SNAP)
        errs.append(tr.step_error)
    assert errs[1] >= 8.0 * errs[0] and errs[2] >= 8.0 * errs[1]


def test_dense_output_between_rotating_steps(monkeypatch):
    """Runs on grids of 1/175 and 1/35 take the same steps, the floor
    0.25/Omega_top (5.27 and 1.05 cells), so they agree to round-off at
    their shared samples. Those steps end between grid points, so the
    samples come from the Hermite interpolant, and they stay within 1e-7 of
    a dense lab-frame RK4 at a quarter of the fine cell (measured: 2.2e-8 in
    <a>, 5.8e-8 in <n>). The ceiling is pinned to the floor, which makes
    both runs floor-bound: left free, the estimate (2.3e-10 at most) would
    lengthen the steps, and a coupling that keeps it above the tolerance
    (gamma = 3e-3) moves the samples more, because the state itself
    changes faster."""
    monkeypatch.setattr(EV, "_PHASE_PER_STEP_MAX", EV._PHASE_PER_STEP)
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=1e-3)
    mode = "born-markov-asymptotic"
    fine = evolve(p, 1.0, mode=mode, config=IntegratorConfig(frame="rotating", dtau=1 / 175))
    coarse = evolve(p, 1.0, mode=mode, config=IntegratorConfig(frame="rotating", dtau=1 / 35))
    lab = lab_rk4(p, mode, coherent_state_density(p.alpha, fine.n_max), 1.0, 700, every=4)
    lab_a = np.array([expect_a(lab[k]) for k in sorted(lab)])
    lab_n = np.array([expect_n(lab[k]) for k in sorted(lab)])
    omega_top = 1.0 + p.mu_bar * (2 * fine.n_max - 3)
    assert fine.step == pytest.approx(0.25 / omega_top, rel=SNAP)
    assert fine.step == pytest.approx(coarse.step, rel=1e-15)
    assert fine.steps == coarse.steps == math.ceil(omega_top / 0.25)
    np.testing.assert_allclose(fine.taus[::5], coarse.taus, rtol=1e-15)
    assert np.max(np.abs(fine.a_expect[::5] - coarse.a_expect)) < 1e-13
    assert np.max(np.abs(fine.n_expect[::5] - coarse.n_expect)) < 1e-13
    assert np.max(np.abs(fine.final_rho - coarse.final_rho)) < 1e-15
    np.testing.assert_allclose(fine.taus, np.array(sorted(lab)) / 700, rtol=1e-15)
    assert np.max(np.abs(fine.a_expect - lab_a)) < 1e-7
    assert np.max(np.abs(fine.n_expect - lab_n)) < 1e-7
    assert np.max(np.abs(fine.trace - 1.0)) < 1e-14
    assert np.max(fine.herm_defect) < 1e-15


def interior_states(monkeypatch) -> list:
    """Copies of the co-moving states whose minimum eigenvalue a run with
    record_min_eig forms, one per sample in sample order."""
    states = []
    lowest = EV._Recorder.lowest_eig

    def spy(state):
        states.append(state.copy())
        return lowest(state)

    monkeypatch.setattr(EV._Recorder, "lowest_eig", staticmethod(spy))
    return states


def lab_state(state, energy, tau):
    """The lab-frame state e^{-iH tau} state e^{iH tau} of a co-moving one."""
    dress = np.exp(-1j * energy * tau)
    return dress[:, None] * state * dress.conj()[None, :]


def test_snapshot_inside_a_step_matches_its_sample(monkeypatch):
    """The state that record_min_eig forms at a grid point inside a
    rotating-frame step is the same interpolated state the recorder samples
    there. The run is floor-bound, so its steps end at multiples of the
    floor, 0.25/Omega_top (5.27 cells), and none ends on the grid point
    nearest 0.05."""
    p = SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=1.0, gamma=3e-3)
    states = interior_states(monkeypatch)
    tr = evolve(p, 0.2, mode="born-markov-asymptotic",
                config=IntegratorConfig(frame="rotating", dtau=1 / 175, record_min_eig=True))
    h = 0.25 / (1.0 + p.mu_bar * (2 * tr.n_max - 3))
    assert tr.step == pytest.approx(h, rel=SNAP) and tr.steps == math.ceil(0.2 / h) == 7
    assert len(states) == tr.taus.size
    k = int(np.argmin(np.abs(tr.taus - 0.05)))
    assert 0.1 < (tr.taus[k] / h) % 1.0 < 0.9  # inside a step
    assert np.max(np.abs(states[k] - states[k].conj().T)) < 1e-15
    snap = lab_state(states[k], energies(tr.n_max, p.mu_bar), tr.taus[k])
    levels = np.arange(tr.n_max)
    a = np.sum(np.sqrt(levels[1:]) * np.diagonal(snap, -1))
    assert abs(a - tr.a_expect[k]) < 1e-13
    assert abs(levels @ np.diagonal(snap).real - tr.n_expect[k]) < 1e-13
    assert abs(np.trace(snap) - tr.trace[k]) < 1e-15


def test_interior_samples_match_snapshot_states(monkeypatch):
    """At the quantum-corner parameters with gamma = 3e-4, a floor-bound run
    to tau = 0.1 whose floor is five cells of its grid, the recorder
    interpolates observable vectors, not states, inside a step. Every
    interior sample must agree with the quantities computed from the
    interpolated state, which record_min_eig forms at that grid point; its
    hermiticity defect is the larger end-state defect, which bounds the
    interpolant's, and its minimum eigenvalue is still the interpolated
    state's."""
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=3e-4, lambda_bar=100.0)
    al = math.sqrt(p.intensity)
    be = 1j * al  # the sweep's quarter pair, so that <a> is not zero
    n_max = fock_cutoff(p.intensity)
    rho0 = cat_state_density(al, be, n_max)
    tau_end = 0.1
    dtau = default_dtau(p, n_max, "rotating")
    dtau = tau_end / math.ceil(tau_end / dtau)
    n_cells = round(tau_end / dtau)
    states = interior_states(monkeypatch)
    tr = evolve(p, tau_end, mode="born-markov-asymptotic", rho0=rho0,
                config=IntegratorConfig(frame="rotating", overlap_pair=(al, be),
                                        record_min_eig=True))
    assert tr.step == pytest.approx(5 * tr.dtau, rel=SNAP) and tr.steps == n_cells // 5
    assert tr.taus.size == n_cells + 1 == len(states)
    e = energies(n_max, p.mu_bar)
    levels = np.arange(n_max)
    w = np.outer(coherent_amplitudes(al, n_max).conj(), coherent_amplitudes(be, n_max))
    for k in (k for k in range(n_cells + 1) if k % 5):  # the samples inside a step
        co_moving = states[k]
        snap = lab_state(co_moving, e, tr.taus[k])
        pops = np.diagonal(snap).real
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
        assert tr.herm_defect[k] >= np.max(np.abs(co_moving - co_moving.conj().T)) - 1e-15
        assert abs(tr.min_eig[k] - np.linalg.eigvalsh(co_moving)[0]) < 1e-13


def test_trajectory_x_property():
    p = SystemParams(mu_bar=0.1, intensity=5.0)
    tr = evolve(p, 1.0, mode="closed")
    np.testing.assert_allclose(tr.x, math.sqrt(2.0) * tr.a_expect.real, atol=0)
