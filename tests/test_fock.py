"""Truncated Fock space: coherent/cat states and the dense oracle's operators.

The states are checked through the dense oracle's expectation shortcuts
(diagonal contractions), which are pinned against the brute-force
tr(op rho) route with explicitly built matrices, and the oracle's operator
matrices against the sqrt(n) ladder rule written out by hand.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrbath import (
    SystemParams,
    cat_state_density,
    coherent_amplitudes,
    coherent_state_density,
    fock_cutoff,
    omega_levels,
)

from analytic_oracle import line_weights
from dense_oracle import coherent_overlap, energies, expect_a, expect_n, expect_x, lowering


def test_fock_cutoff_rule():
    assert fock_cutoff(50.0) == 109
    assert fock_cutoff(0.0) == 2
    with pytest.raises(ValueError):
        fock_cutoff(-1.0)


def test_non_finite_amplitudes_are_refused_by_name():
    """An infinite or NaN intensity or amplitude raises ValueError naming
    it, where it raised OverflowError or numpy's float-conversion error."""
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^intensity must be non-negative and finite, "
                                             f"got {value}$"):
            fock_cutoff(value)
    with pytest.raises(ValueError, match=r"^alpha must be finite, got \(inf\+0j\)$"):
        coherent_state_density(complex(math.inf), 5)
    with pytest.raises(ValueError, match="^beta must be finite, got"):
        cat_state_density(1.0, complex(0.0, math.nan), 5)


def test_operators_match_ladder_rule():
    """Rebuild a by hand from <n-1|a|n> = sqrt(n) and compare."""
    n_max = 12
    a = np.zeros((n_max, n_max))
    for n in range(1, n_max):
        a[n - 1, n] = math.sqrt(n)
    assert np.array_equal(lowering(n_max), a)
    num = np.diag(np.arange(n_max, dtype=float))
    np.testing.assert_allclose(a.T @ a, num, atol=1e-14)
    # commutator is the identity away from the truncation edge
    comm = a @ a.T - a.T @ a
    np.testing.assert_allclose(comm[:-1, :-1], np.eye(n_max - 1), atol=1e-14)
    assert comm[-1, -1] == pytest.approx(1.0 - n_max)


def test_energies_and_level_frequencies():
    mu = 0.1
    n = np.arange(6, dtype=float)
    e = energies(6, mu)
    np.testing.assert_allclose(e, n + mu * n * n, atol=0)
    # level frequency is the energy gap
    levels = omega_levels(SystemParams(mu_bar=mu, intensity=1.0), 6)
    np.testing.assert_allclose(np.diff(e), levels[:-1], atol=1e-14)


def test_coherent_state_moments():
    alpha = 2.0 - 1.5j
    rho = coherent_state_density(alpha, fock_cutoff(abs(alpha) ** 2))
    assert expect_n(rho) == pytest.approx(abs(alpha) ** 2, rel=1e-9)
    assert expect_a(rho) == pytest.approx(alpha, rel=1e-9)
    purity = float(np.trace(rho @ rho).real)
    assert purity == pytest.approx(1.0, abs=1e-9)


def test_coherent_position_amplitude():
    rho = coherent_state_density(math.sqrt(50.0), fock_cutoff(50.0))
    assert expect_x(rho) == pytest.approx(10.0, rel=1e-9)


def test_coherent_is_lowering_eigenvector():
    alpha = 1.7 + 0.9j
    n_max = fock_cutoff(abs(alpha) ** 2)
    v = coherent_amplitudes(alpha, n_max)
    # eigenvalue relation holds away from the truncated tail
    resid = lowering(n_max) @ v - alpha * v
    assert np.max(np.abs(resid[: n_max - 5])) < 1e-9
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def test_coherent_amplitudes_of_the_vacuum():
    """alpha = 0 is the vacuum |0>, which the log-space form cannot take."""
    np.testing.assert_array_equal(coherent_amplitudes(0.0, 4), [1.0, 0.0, 0.0, 0.0])


def test_truncation_guard():
    with pytest.raises(ValueError, match="cannot hold"):
        coherent_state_density(math.sqrt(60.0), 20)
    with pytest.raises(ValueError, match="cannot hold"):
        cat_state_density(1.0, math.sqrt(60.0), 20)


def test_cat_reduces_to_coherent():
    alpha = 1.2 + 0.3j
    n_max = fock_cutoff(abs(alpha) ** 2)
    np.testing.assert_allclose(
        cat_state_density(alpha, alpha, n_max),
        coherent_state_density(alpha, n_max),
        atol=1e-12,
    )


def test_cat_normalization_and_overlap():
    """Pair centered at <x> = 7 split by 1: trace and the sandwich element."""
    x_mean, dx = 7.0, 1.0
    al = (x_mean + 0.5 * dx) / math.sqrt(2.0)
    be = (x_mean - 0.5 * dx) / math.sqrt(2.0)
    n_max = fock_cutoff(al * al)
    rho = cat_state_density(al, be, n_max)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert expect_x(rho) == pytest.approx(x_mean, abs=1e-6)
    # <alpha|rho|beta> = (1 + k)^2 / (2 + 2k), k = <alpha|beta>
    k = cmath.exp(-0.5 * al * al - 0.5 * be * be + al * be)
    got = coherent_overlap(rho, al, be)
    assert got == pytest.approx((1.0 + k) ** 2 / (2.0 + 2.0 * k), rel=1e-9)


def test_cat_cross_weight():
    """For a well-separated pair each cross projector carries weight ~ 1/2."""
    al, be = math.sqrt(20.0), -math.sqrt(20.0)
    rho = cat_state_density(al, be, fock_cutoff(20.0))
    assert abs(coherent_overlap(rho, al, be)) == pytest.approx(0.5, abs=1e-6)
    assert abs(coherent_overlap(rho, al, al)) == pytest.approx(0.5, abs=1e-6)


def test_expectation_contractions_match_brute_force():
    """Diagonal-contraction shortcuts against tr(op rho) with dense matrices."""
    rng = np.random.default_rng(7)
    n_max = 30
    m = rng.normal(size=(n_max, n_max)) + 1j * rng.normal(size=(n_max, n_max))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    a = lowering(n_max)
    x = (a + a.T) / math.sqrt(2.0)
    num = np.diag(np.arange(n_max, dtype=float))
    assert expect_a(rho) == pytest.approx(complex(np.trace(a @ rho)), rel=1e-12)
    assert expect_n(rho) == pytest.approx(float(np.trace(num @ rho).real), rel=1e-12)
    assert expect_x(rho) == pytest.approx(float(np.trace(x @ rho).real), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1.0, 60.0),
    st.floats(0.0, 2.0 * math.pi),
)
def test_coherent_moments_property(intensity, phase):
    """Any coherent state with 1 <= |alpha|^2 <= 60 reproduces its moments.

    The eight-sigma cutoff leaves a Poisson tail of order 1e-7 at
    intensity 1 (the worst case over the range), far below it elsewhere.
    """
    alpha = math.sqrt(intensity) * cmath.exp(1j * phase)
    rho = coherent_state_density(alpha, fock_cutoff(intensity))
    assert expect_n(rho) == pytest.approx(intensity, rel=1e-6, abs=2e-7)
    assert expect_a(rho) == pytest.approx(alpha, rel=1e-6, abs=2e-7)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] > -1e-12


def test_coherent_weights_match_gammaln_form():
    """|<n|alpha>|^2 against the oracle's Poisson weights, which use scipy's
    gammaln where the package uses math.lgamma. Both sum log-space terms of
    size I0 + n |ln I0| + ln n!, so they agree to a few round-offs of that
    size: within 1e-13 relative up to I0 = 10, and to 4 eps times that size
    at every level up to I0 = 200, a phase on alpha included."""
    eps = np.finfo(float).eps
    for i0 in (0.5, 2.0, 10.0, 50.0, 200.0):
        n_max = fock_cutoff(i0)
        want = line_weights(SystemParams(mu_bar=0.1, intensity=i0), n_max)
        got = np.abs(coherent_amplitudes(math.sqrt(i0) * cmath.exp(0.3j), n_max)) ** 2
        rel = np.abs(got / want - 1.0)
        n = np.arange(n_max)
        size = i0 + n * abs(math.log(i0)) + np.array([math.lgamma(k + 1.0) for k in n])
        assert np.all(rel <= 4.0 * eps * size), i0
        if i0 <= 10.0:
            assert rel.max() < 1e-13, i0
