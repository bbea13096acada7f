"""Bath kernels and master-equation coefficients against independent oracles.

The package evaluates every coefficient in closed form from the Matsubara
expansion of the Drude-Ohmic kernels. The oracles here take other routes:
the dissipation kernel eta(s) = (gamma Lambda^2/2) e^{-Lambda s} is verified
against scipy's Fourier quadrature, the defining nested time integrals are
evaluated directly with scipy.integrate.quad, the principal-value limits
with the Cauchy-weight quadrature, and the frequency-panel quadrature of
quadrature_oracle.py (the package's former implementation, with its own
error bounds) is compared at the benchmark workloads' (Lambda, beta)
corners. Nothing here shares code with the implementation except the
error guard that the panel oracle reports through.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma

from kerrbath import (
    BathCoefficients,
    QuadratureError,
    SystemParams,
    asymptotic_b1_at,
    asymptotic_coefficients,
    coefficient_tables,
    default_dtau,
    omega_levels,
    spectral_density,
    transient_coefficients,
)
from kerrbath.evolve import coefficient_settle_time
from kerrbath.kernels import (
    _BLOCK_ROWS,
    _MATSUBARA_CHUNK,
    _asymptotic_parts,
    _check_quadrature,
    _decaying_parts,
    _digamma,
    _matsubara_terms,
)
from kerrbath.model import derived_scales
from analytic_oracle import OverdampedError, effective_frequency
from quadrature_oracle import principal_value_coefficient, transient_quadrature

# modest parameters keep the nested-quadrature oracles cheap and accurate
ORACLE_P = SystemParams(mu_bar=0.25, intensity=2.0, beta_bar=0.7, gamma=3e-3, lambda_bar=6.0)


def j_of(p, w):
    return p.gamma * w * p.lambda_bar**2 / (p.lambda_bar**2 + w * w)


def eta_closed(p, s):
    """Dissipation kernel of the Lorentz-cutoff Ohmic bath."""
    return 0.5 * p.gamma * p.lambda_bar**2 * math.exp(-p.lambda_bar * s)


def w_b(p, w):
    """Noise weight J(w) coth(beta w/2)/pi with its finite w -> 0 limit."""
    x = 0.5 * p.beta_bar * w
    if x < 1e-8:
        lam2 = p.lambda_bar**2
        return 2.0 * p.gamma * lam2 / (lam2 + w * w) / (p.beta_bar * math.pi)
    return j_of(p, w) / math.tanh(x) / math.pi


def nu_oracle(p, s):
    """Noise kernel by Fourier quadrature of J(w) coth(beta w/2) cos(w s)."""
    val, err = quad(
        lambda w: w_b(p, w), 0.0, np.inf, weight="cos", wvar=s, limit=400, epsabs=1e-13
    )
    assert err < 1e-11
    return val


def test_eta_closed_form_against_fourier_quadrature():
    p = ORACLE_P
    for s in (0.05, 0.3, 0.8):
        val, err = quad(
            lambda w: j_of(p, w) / math.pi, 0.0, np.inf, weight="sin", wvar=s,
            limit=400, epsabs=1e-13,
        )
        assert err < 1e-11
        assert val == pytest.approx(eta_closed(p, s), rel=1e-8)


def test_spectral_density_values():
    p = SystemParams(mu_bar=0.1, intensity=50.0, gamma=1e-2, lambda_bar=10.0)
    assert spectral_density(p, 0.0) == 0.0
    assert spectral_density(p, p.lambda_bar) == pytest.approx(0.5 * p.gamma * p.lambda_bar, rel=1e-12)
    assert spectral_density(p, 2.0) == pytest.approx(1.923e-2, abs=5e-6)
    np.testing.assert_allclose(
        spectral_density(p, np.array([0.0, 10.0])), [0.0, 0.05], atol=1e-15
    )
    with pytest.raises(ValueError):
        spectral_density(p, -0.5)
    with pytest.raises(ValueError):
        spectral_density(p, np.array([1.0, -2.0]))


def test_omega_levels_rule():
    p = SystemParams(mu_bar=0.1, intensity=50.0)
    np.testing.assert_allclose(
        omega_levels(p, 4), 1.0 + 0.1 * (1.0 + 2.0 * np.arange(4)), atol=0
    )


def test_transient_against_nested_quadrature_oracle():
    """All four coefficients from the defining double integrals."""
    p = ORACLE_P
    tau = 0.8
    got = transient_coefficients(p, 2, tau)
    for n in range(2):
        om = 1.0 + p.mu_bar * (1.0 + 2.0 * n)
        a1, e1 = quad(lambda s: eta_closed(p, s) * math.cos(om * s), 0.0, tau, limit=200, epsabs=1e-12)
        a2, e2 = quad(lambda s: eta_closed(p, s) * math.sin(om * s), 0.0, tau, limit=200, epsabs=1e-12)
        b1, e3 = quad(lambda s: nu_oracle(p, s) * math.cos(om * s), 0.0, tau, limit=100, epsabs=1e-12)
        b2, e4 = quad(lambda s: nu_oracle(p, s) * math.sin(om * s), 0.0, tau, limit=100, epsabs=1e-12)
        assert max(e1, e2, e3, e4) < 1e-10
        scale = p.gamma
        assert got.a1[n] == pytest.approx(a1, abs=1e-6 * scale)
        assert got.a2[n] == pytest.approx(a2, abs=1e-6 * scale)
        assert got.b1[n] == pytest.approx(b1, abs=1e-5 * scale)
        assert got.b2[n] == pytest.approx(b2, abs=1e-5 * scale)


def test_asymptotic_dissipation_closed_forms():
    """tau -> inf of the eta integrals: A1 -> g L^3/(2(L^2+O^2)), A2 -> J(O)/2.

    With eta(s) = (g L^2/2) e^{-L s} both limits are elementary Laplace
    transforms, so the closed forms coded in the package follow from the
    kernel verified above; check them against direct quadrature to
    effectively infinite time.
    """
    p = ORACLE_P
    c = asymptotic_coefficients(p, 3)
    for n in range(3):
        om = float(c.omegas[n])
        lam = p.lambda_bar
        a1_exact = 0.5 * p.gamma * lam**3 / (lam * lam + om * om)
        a2_exact = 0.5 * j_of(p, om)
        big = 40.0 / lam  # e^{-40}: the tail is numerically zero
        a1_q, _ = quad(lambda s: eta_closed(p, s) * math.cos(om * s), 0.0, big, limit=400)
        a2_q, _ = quad(lambda s: eta_closed(p, s) * math.sin(om * s), 0.0, big, limit=400)
        assert a1_q == pytest.approx(a1_exact, rel=1e-10)
        assert a2_q == pytest.approx(a2_exact, rel=1e-10)
        assert c.a1[n] == pytest.approx(a1_exact, rel=1e-12)
        assert c.a2[n] == pytest.approx(a2_exact, rel=1e-12)


def test_settling_to_asymptote():
    """Brute-force settling check of the transient integrals at large tau."""
    p = ORACLE_P
    asy = asymptotic_coefficients(p, 3)
    tr = transient_coefficients(p, 3, 1e3)
    budget = tr.err + asy.err + 1e-13 * p.gamma
    for name in ("a1", "a2", "b1", "b2"):
        np.testing.assert_array_less(
            np.abs(getattr(tr, name) - getattr(asy, name)), budget
        )


def test_b1_closed_form_value():
    # omega = 11.1, Lorentz factor 100/223.21, coth(5.55) ~ 1
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=10.0)
    assert asymptotic_b1_at(p, p.omega_bar) == pytest.approx(2.486e-4, abs=5e-7)


def test_b1_at_zero_frequency_is_its_limit():
    """(J(omega)/2) coth(beta_bar omega/2) tends to gamma/beta_bar as omega
    goes to 0, and to 0 at beta_bar = inf; B1(0) is that limit, and a limit
    past the float range is refused by name. (omega = 0 was refused as an
    overflow of B1, at beta_bar = inf too.)"""
    for beta_bar in (1.0, 0.3, 20.0):
        p = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=beta_bar, gamma=1e-3)
        assert asymptotic_b1_at(p, 0.0) == p.gamma / p.beta_bar
        assert asymptotic_b1_at(p, 0.0) == pytest.approx(asymptotic_b1_at(p, 1e-7), rel=1e-12)
    cold = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=math.inf, gamma=1e-3)
    assert asymptotic_b1_at(cold, 0.0) == 0.0
    assert asymptotic_b1_at(cold, 1e-7) == pytest.approx(0.0, abs=1e-9)
    hot = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=1e-300, gamma=1e19)
    with pytest.raises(ValueError, match=r"^gamma = 1e\+19 and beta_bar = 1e-300 overflow "):
        asymptotic_b1_at(hot, 0.0)


def test_b1_at_subnormal_frequency_keeps_its_precision():
    """At a subnormal omega, J(omega) underflows, and (J(omega)/2)
    coth(beta_bar omega/2) lost B1 (9.98e-4 at omega = 1e-318 and
    beta_bar = 1, 0 at 1e-322, an overflow refusal at 5e-324). B1 there is
    (gamma/beta_bar) Lambda^2/(Lambda^2 + omega^2) to full precision."""
    for beta_bar in (1.0, 0.3, 20.0):
        p = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=beta_bar, gamma=1e-3)
        lam2 = p.lambda_bar ** 2
        for omega in (1e-318, 1e-322, 5e-324):
            exact = p.gamma / p.beta_bar * lam2 / (lam2 + omega * omega)
            assert asymptotic_b1_at(p, omega) == pytest.approx(exact, rel=1e-15), (beta_bar, omega)


def test_fluctuation_dissipation_relation():
    p = ORACLE_P
    c = asymptotic_coefficients(p, 6)
    np.testing.assert_allclose(
        c.b1, c.a2 / np.tanh(0.5 * p.beta_bar * c.omegas), rtol=1e-12
    )
    assert np.all(c.b1 > 0)
    for arr in (c.a1, c.a2, c.b1, c.b2):
        assert np.all(np.isfinite(arr))
    assert c.mode == "asymptotic"
    assert isinstance(c, BathCoefficients)


def test_high_temperature_limit():
    p = SystemParams(mu_bar=0.1, intensity=20.0, beta_bar=1e-3, gamma=1e-3)
    c = asymptotic_coefficients(p, 5)
    lam2 = p.lambda_bar**2
    expect = p.gamma * lam2 / (p.beta_bar * (lam2 + c.omegas**2))
    np.testing.assert_allclose(c.b1, expect, rtol=1e-6)


def test_zero_temperature_limit_at_large_finite_beta():
    """At beta_bar = 1e305 the asymptotic coefficients are the zero-temperature
    ones, B1 = A2 and B2 = gamma Lambda^2 Omega ln(Omega/Lambda) / (pi
    (Lambda^2 + Omega^2)), with no numpy warning on the way (the digamma
    series squares arguments of order 1e304)."""
    p = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=1e305, gamma=1e-3)
    c = asymptotic_coefficients(p, 25)
    np.testing.assert_array_equal(c.b1, c.a2)
    lam2 = p.lambda_bar**2
    expect = p.gamma * lam2 * c.omegas * np.log(c.omegas / p.lambda_bar) / (
        math.pi * (lam2 + c.omegas**2))
    np.testing.assert_allclose(c.b2, expect, rtol=1e-12)


def test_extreme_beta_is_refused():
    """A finite-tau row keeps ceil(1.5 beta Lambda/2pi) + 1 Matsubara terms
    at least. Above the cap of 2^18 the coefficients refuse it, compared in
    floating point, and so does a beta whose digamma arguments overflow."""
    bound = (2**18 - 1) / 1.5 * 2.0 * math.pi  # largest beta_bar * lambda_bar
    p = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=bound / 10.0, gamma=1e-3)
    assert np.all(np.isfinite(transient_coefficients(p, 4, 1.0).b2))
    for beta in (bound / 10.0 * (1 + 1e-12), 1e6, 1e305, 1.7e308):
        p = SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=beta, gamma=1e-3)
        with pytest.raises(ValueError, match="Matsubara terms|overflows"):
            transient_coefficients(p, 4, 1.0)
        with pytest.raises(ValueError, match="Matsubara terms|overflows"):
            coefficient_tables(p, 4, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="beta_bar = 1.7e\\+308 overflows"):
        asymptotic_coefficients(p, 4)


def test_gamma_zero_gives_zeros():
    p = SystemParams(mu_bar=0.1, intensity=20.0, gamma=0.0)
    for c in (asymptotic_coefficients(p, 4), transient_coefficients(p, 4, 1.5)):
        for arr in (c.a1, c.a2, c.b1, c.b2):
            assert np.all(arr == 0.0)


def test_tau_edge_cases():
    p = ORACLE_P
    c = transient_coefficients(p, 4, 0.0)
    assert np.all(c.b1 == 0.0) and c.tau == 0.0 and c.mode == "transient"
    with pytest.raises(ValueError):
        transient_coefficients(p, 4, -0.1)


def test_nan_tau_is_refused():
    """A NaN tau is neither a finite time nor tau = inf: both functions
    refuse it as they refuse a negative one, and do not return the
    asymptotic coefficients."""
    for tau in (math.nan, np.float64("nan")):
        with pytest.raises(ValueError, match="non-negative, got nan"):
            transient_coefficients(ORACLE_P, 4, tau)
    with pytest.raises(ValueError, match="non-negative, got nan"):
        coefficient_tables(ORACLE_P, 4, np.array([0.5, math.nan, math.inf]))


def test_gamma_linearity_exact():
    """Doubling gamma doubles every coefficient bitwise, in both modes."""
    p1 = SystemParams(mu_bar=0.2, intensity=10.0, beta_bar=0.8, gamma=1.3e-3)
    p2 = SystemParams(mu_bar=0.2, intensity=10.0, beta_bar=0.8, gamma=2.6e-3)
    c1, c2 = asymptotic_coefficients(p1, 5), asymptotic_coefficients(p2, 5)
    t1, t2 = transient_coefficients(p1, 5, 0.9), transient_coefficients(p2, 5, 0.9)
    for a, b in ((c1, c2), (t1, t2)):
        for name in ("a1", "a2", "b1", "b2"):
            assert np.array_equal(2.0 * getattr(a, name), getattr(b, name))


def test_coefficients_depend_only_on_level_frequency():
    """mu=0.3 at n=2 and mu=0.5 at n=1 share Omega=2.5: identical values."""
    pa = SystemParams(mu_bar=0.3, intensity=1.0, beta_bar=0.8, gamma=1e-3)
    pb = SystemParams(mu_bar=0.5, intensity=1.0, beta_bar=0.8, gamma=1e-3)
    ca, cb = asymptotic_coefficients(pa, 3), asymptotic_coefficients(pb, 2)
    assert ca.omegas[2] == cb.omegas[1] == 2.5
    for name in ("a1", "a2", "b1", "b2"):
        assert getattr(ca, name)[2] == getattr(cb, name)[1]
    ta, tb = transient_coefficients(pa, 3, 0.6), transient_coefficients(pb, 2, 0.6)
    for name in ("a1", "a2", "b1", "b2"):
        assert getattr(ta, name)[2] == getattr(tb, name)[1]


def _pv_noise_oracle(p, om):
    """PV Int_0^inf w_B(w) om/(om^2 - w^2) dw via Cauchy-weight quadrature."""
    # om/(om^2 - w^2) = [-om/(w + om)] * 1/(w - om)
    pv, e1 = quad(
        lambda w: -w_b(p, w) * om / (w + om), 0.0, 2.0 * om,
        weight="cauchy", wvar=om, limit=400, epsabs=1e-13, epsrel=1e-12,
    )
    rest, e2 = quad(
        lambda w: w_b(p, w) * om / (om * om - w * w), 2.0 * om, np.inf,
        limit=400, epsabs=1e-13, epsrel=1e-12,
    )
    assert max(e1, e2) < 1e-10
    return pv + rest


def test_principal_value_noise_against_cauchy_oracle():
    p = ORACLE_P
    oms = np.array([1.5, 2.0, 3.5])
    vals, errs = principal_value_coefficient(p, oms, weight="noise")
    for om, v, e in zip(oms, vals, errs):
        assert v == pytest.approx(_pv_noise_oracle(p, float(om)), abs=1e-6 * p.gamma + e)


def test_principal_value_dissipation_matches_closed_form():
    """The quadrature route reproduces A1(inf) = g L^3 / (2 (L^2 + O^2))."""
    p = ORACLE_P
    oms = np.array([1.0, 2.5, 4.0])
    vals, errs = principal_value_coefficient(p, oms, weight="dissipation")
    lam = p.lambda_bar
    closed = 0.5 * p.gamma * lam**3 / (lam * lam + oms * oms)
    np.testing.assert_allclose(vals, closed, atol=1e-8 * p.gamma)
    with pytest.raises(ValueError):
        principal_value_coefficient(p, oms, weight="bogus")


def test_b2_in_asymptotic_coefficients_matches_oracle():
    p = ORACLE_P
    c = asymptotic_coefficients(p, 2)
    for n in range(2):
        assert c.b2[n] == pytest.approx(
            _pv_noise_oracle(p, float(c.omegas[n])), abs=2e-6 * p.gamma
        )


def test_quadrature_guard_raises_on_starved_resolution():
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4)
    with pytest.raises(QuadratureError, match="error bound"):
        principal_value_coefficient(p, np.array([1.1, 11.1]), weight="noise", deg=2)


def test_effective_frequency():
    p = SystemParams(mu_bar=0.01, intensity=50.0, beta_bar=1.0, gamma=0.01, lambda_bar=10.0)
    assert effective_frequency(p) == pytest.approx(1.986, abs=1e-3)
    # gamma = 0: no renormalization
    p0 = SystemParams(mu_bar=0.01, intensity=50.0, gamma=0.0)
    assert effective_frequency(p0) == p0.omega_bar
    # stronger damping pulls the frequency further down
    weak = SystemParams(mu_bar=0.01, intensity=50.0, gamma=1e-4, lambda_bar=10.0)
    assert effective_frequency(p) < effective_frequency(weak)
    with pytest.raises(OverdampedError):
        effective_frequency(
            SystemParams(mu_bar=0.0, intensity=1.0, gamma=0.02, lambda_bar=100.0)
        )


def test_effective_frequency_consistent_with_a1():
    """omega_eff^2 = Omega^2 - 2 A1(inf) ties the shift to the PV route."""
    p = SystemParams(mu_bar=0.01, intensity=50.0, beta_bar=1.0, gamma=0.01, lambda_bar=10.0)
    om = p.omega_bar
    (a1,), _ = principal_value_coefficient(p, np.array([om]), weight="dissipation")
    assert effective_frequency(p) ** 2 == pytest.approx(om * om - 2.0 * a1, rel=1e-8)


def test_settling_within_two_percent_beyond_10_over_lambda():
    p = SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4, lambda_bar=10.0)
    asy = asymptotic_coefficients(p, 109)
    for mult in (1.0, 1.3, 2.0, 5.0):
        tau = mult * 10.0 / p.lambda_bar
        tr = transient_coefficients(p, 109, tau)
        rel = np.max(np.abs(tr.b1 - asy.b1) / asy.b1)
        assert rel < 0.02, f"tau={tau}: b1 settling dev {rel:.3%}"
    # and the 1% figure two settling times in
    tr = transient_coefficients(p, 109, 20.0 / p.lambda_bar)
    assert np.max(np.abs(tr.b1 - asy.b1) / asy.b1) < 0.01


def test_coefficient_tables_shape_and_rows():
    """The table evaluates its rows in blocks; each row is still
    transient_coefficients at its tau, bit for bit, from tau = 0 to past the
    settle time: on the benchmark's 512-node grid at n_max = 38, whose first
    node sums 814 Matsubara terms in two chunks; on unsorted times, tiny ones
    included; and on a tau = inf row, which is asymptotic_coefficients. A
    negative tau is still refused."""
    p_setup = SystemParams(mu_bar=1e-2, intensity=10.0, beta_bar=1.0, gamma=1e-2,
                           lambda_bar=10.0)
    settle = coefficient_settle_time(p_setup)
    unsorted = np.array([1.9, 1e-4, 0.7, math.inf, 0.0, 0.2, 3e-3, 0.7, 0.05])
    cases = ((ORACLE_P, 5, np.array([0.2, 0.7, 1.9])),
             (p_setup, 38, np.linspace(0.0, 1.25 * settle, 41)),
             (p_setup, 38, np.linspace(0.0, settle, 512)),
             (ORACLE_P, 7, unsorted),
             (p_setup, 38, np.array([0.5, math.inf])))
    for p, n_max, taus in cases:
        tables = coefficient_tables(p, n_max, taus)
        assert all(table.shape == (taus.size, n_max) for table in tables)
        for k, tau in enumerate(taus):
            c = transient_coefficients(p, n_max, tau)
            for table, row in zip(tables, (c.a1, c.a2, c.b1, c.b2)):
                assert table[k].tobytes() == row.tobytes(), tau
    with pytest.raises(ValueError, match="non-negative"):
        coefficient_tables(p_setup, 38, np.array([0.5, -0.1]))


def test_fewer_levels_give_a_prefix_of_the_coefficients():
    """The coefficients of levels 0 .. L-1 are the first L columns of those
    of n levels, bit for bit, for every L < n: a kernel that evaluates only
    the levels it reads, or a basis that shrinks mid-run, keeps the bits of
    the full basis. Checked on the transient-setup bath (n = 38), the
    quantum corner's (n = 109) and a beta_bar = 100 bath (n = 25), on rows
    at tau = 0, 1e-4, the 512 table nodes and inf. A one-level table is no
    exception: each level sums its own Matsubara terms (see
    test_any_window_of_levels_gives_the_full_columns)."""
    baths = (SystemParams(mu_bar=1e-2, intensity=10.0, beta_bar=1.0, gamma=1e-2,
                          lambda_bar=10.0),
             SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4,
                          lambda_bar=100.0),
             SystemParams(mu_bar=0.1, intensity=5.0, beta_bar=100.0, gamma=1e-3,
                          lambda_bar=10.0))
    for p, n in zip(baths, (38, 109, 25), strict=True):
        taus = np.concatenate(([0.0, 1e-4], np.linspace(0.0, coefficient_settle_time(p), 512),
                               [math.inf]))
        full, full_inf = coefficient_tables(p, n, taus), asymptotic_coefficients(p, n)
        for levels in range(1, n):
            for table, whole in zip(coefficient_tables(p, levels, taus), full, strict=True):
                np.testing.assert_array_equal(table, whole[:, :levels], strict=True)
            inf = asymptotic_coefficients(p, levels)
            for name in ("omegas", "a1", "a2", "b1", "b2", "err"):
                np.testing.assert_array_equal(getattr(inf, name),
                                              getattr(full_inf, name)[:levels], strict=True)


def test_fewer_than_one_level_is_refused():
    """A basis of fewer than one level is refused by name, and one level is
    a basis. (n_max = 0 raised KeyError: 'e_top' from default_dtau, whose
    rotating grid returned 0.045 at n_max = -4, and the coefficients
    raised numpy's "negative dimensions are not allowed" at n_max = -2.)"""
    p = SystemParams(mu_bar=0.1, intensity=5.0, gamma=1e-3)
    for n_max in (0, -2, -4, 2.0):
        refusals = (lambda: default_dtau(p, n_max), lambda: default_dtau(p, n_max, "rotating"),
                    lambda: asymptotic_coefficients(p, n_max),
                    lambda: transient_coefficients(p, n_max, 0.5),
                    lambda: coefficient_tables(p, n_max, np.array([0.5, math.inf])))
        for refusal in refusals:
            with pytest.raises(ValueError, match=f"^n_max must be a positive integer, got {n_max}$"):
                refusal()
    assert default_dtau(p, 1, "rotating") == default_dtau(p, 2, "rotating")
    assert asymptotic_coefficients(p, 1).b1.shape == (1,)


def test_any_window_of_levels_gives_the_full_columns():
    """A level's coefficients depend only on its Omega_n: evaluated on the
    window omega_levels(p, n)[lo:hi], the decaying and the long-time parts
    equal the full call's columns lo .. hi-1 bit for bit, for windows of 1,
    2, n/2 and n-1 levels at the bottom, one level up, the middle and the
    top. The rows are a table block of the fewest, a middle and the two
    largest Matsubara term counts of the transient-setup (n = 38) and
    quantum-corner (n = 109) tables: 814 terms in two chunks, and 63662 at
    tau = 1e-4. Summed along a leading axis, one-level windows differed in
    their last bits."""
    baths = (SystemParams(mu_bar=1e-2, intensity=10.0, beta_bar=1.0, gamma=1e-2,
                          lambda_bar=10.0),
             SystemParams(mu_bar=0.1, intensity=50.0, beta_bar=1.0, gamma=1e-4,
                          lambda_bar=100.0))
    for p, n in zip(baths, (38, 109), strict=True):
        omegas = omega_levels(p, n)
        scales = derived_scales(p, n, matsubara=0)
        full_inf = _asymptotic_parts(p, omegas, scales)
        taus = np.concatenate(([1e-4], np.linspace(0.0, coefficient_settle_time(p), 512)[1:]))
        n_terms = _matsubara_terms(p, taus)
        counts = sorted(set(n_terms.tolist()))
        for terms in (counts[0], counts[len(counts) // 2], *counts[-2:]):
            rows = taus[n_terms == terms][:max(1, min(_BLOCK_ROWS, _MATSUBARA_CHUNK // terms))]
            full = _decaying_parts(p, omegas, rows, terms)
            for width in (1, 2, n // 2, n - 1):
                for lo in {0, 1, (n - width) // 2, n - width}:
                    cols = slice(lo, lo + width)
                    d_a, d_b, bound = _decaying_parts(p, omegas[cols], rows, terms)
                    np.testing.assert_array_equal(d_a, full[0][:, cols], strict=True)
                    np.testing.assert_array_equal(d_b, full[1][:, cols], strict=True)
                    np.testing.assert_array_equal(bound, full[2], strict=True)
                    for part, whole in zip(_asymptotic_parts(p, omegas[cols], scales),
                                           full_inf, strict=True):
                        np.testing.assert_array_equal(part, whole[cols], strict=True)


def test_coefficient_table_peak_allocation():
    """The benchmark's table (512 nodes to the settle time, n_max = 38)
    allocates at its peak no more than the per-tau loop it replaced. Under
    tracemalloc that loop peaked at 1 227 332 B: the four 156 kB tables plus
    two 814 x 38 blocks of its first row's Matsubara sum. The blocked
    evaluation measured 1 139 689 B; its largest temporary is one
    _MATSUBARA_CHUNK x n_max block or one block of _BLOCK_ROWS rows."""
    p = SystemParams(mu_bar=1e-2, intensity=10.0, beta_bar=1.0, gamma=1e-2, lambda_bar=10.0)
    taus = np.linspace(0.0, coefficient_settle_time(p), 512)
    coefficient_tables(p, 38, taus)  # the first call's one-off allocations are not the table's
    tracemalloc.start()
    try:
        coefficient_tables(p, 38, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_227_332, f"peak {peak} B"


def test_digamma_against_scipy():
    """The package's psi against scipy's on the two forms B2(inf) takes:
    real x = beta Lambda/2pi over seven decades, and Re psi(1 + iy) with
    y = beta Omega_n/2pi from 0 to 1e4, across the recurrence's edge at 10."""
    x = np.concatenate((np.geomspace(1e-3, 1e4, 4001), np.linspace(8.0, 12.0, 401)))
    want = digamma(x)
    assert np.max(np.abs(_digamma(x) - want) / np.maximum(1.0, np.abs(want))) < 1e-14
    y = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 4001), np.linspace(0.0, 30.0, 601)))
    want = digamma(1.0 + 1j * y).real
    got = _digamma(1.0 + 1j * y).real
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-14
    assert abs(_digamma(0.37) - digamma(0.37)) < 1e-14  # a scalar, as _asymptotic_parts passes x


# (Lambda, beta, mu, n_max) of the benchmark workloads: transient-setup,
# quantum-corner, the sweep's hot-bath edge, and a cold bath
WORKLOAD_CORNERS = [
    (10.0, 1.0, 1e-2, 38),
    (100.0, 1.0, 0.1, 109),
    (30.0, 0.01, 0.1, 60),
    (10.0, 3.0, 1e-2, 38),
]


@pytest.mark.parametrize("lam,beta,mu,n_max", WORKLOAD_CORNERS)
def test_closed_form_against_panel_quadrature_oracle(lam, beta, mu, n_max):
    """Closed form against the panel quadrature within the oracle's bound.

    The tau grid spans the transient table: its first nonzero node, the
    cutoff and Matsubara decay window, and the settle time. The asymptotic
    B2 is checked against the principal-value quadrature; its bound can sit
    at round-off, hence the 1e-13 gamma floor (differences seen: <= 6e-14
    gamma/2pi at beta = 1, 3.5e-10 gamma/2pi at beta = 0.01, inside the
    bound there).
    """
    p = SystemParams(mu_bar=mu, intensity=10.0, beta_bar=beta, gamma=1e-2, lambda_bar=lam)
    asy = asymptotic_coefficients(p, n_max)
    assert np.all(asy.err == 0.0)
    pv, pv_err = principal_value_coefficient(p, asy.omegas)
    np.testing.assert_array_less(np.abs(asy.b2 - pv), pv_err + 1e-13 * p.gamma)
    settle = coefficient_settle_time(p)
    for tau in (settle / 511, 0.05, 0.7, 3.0, settle):
        got = transient_coefficients(p, n_max, tau)
        ref = transient_quadrature(p, n_max, tau)
        for name in ("a1", "a2", "b1", "b2"):
            np.testing.assert_array_less(
                np.abs(getattr(got, name) - getattr(ref, name)),
                ref.err + got.err,
                err_msg=f"{name} at tau={tau:g}",
            )


def test_resonance_beta_lambda_two_pi():
    """beta Lambda = 2 pi: cot(beta Lambda/2) and the first Matsubara term
    are each singular, their sum is not. Every coefficient stays finite and
    moves by O(delta) across beta Lambda/2pi = 1 + delta, and at delta = 0
    it matches the quadrature oracles."""
    lam, n_max, tau = 30.0, 6, 0.5

    def params(delta):
        beta = 2.0 * math.pi * (1.0 + delta) / lam
        return SystemParams(mu_bar=0.1, intensity=10.0, beta_bar=beta, gamma=1e-2, lambda_bar=lam)

    def both(p):
        return asymptotic_coefficients(p, n_max), transient_coefficients(p, n_max, tau)

    at_zero = both(params(0.0))
    for delta in (1e-3, 1e-6, 1e-9, 0.0, -1e-9):
        for got, ref in zip(both(params(delta)), at_zero):
            scale = np.maximum.reduce([np.abs(getattr(ref, n)) for n in ("a1", "a2", "b1", "b2")])
            for name in ("a1", "a2", "b1", "b2"):
                val = getattr(got, name)
                assert np.all(np.isfinite(val))
                np.testing.assert_array_less(
                    np.abs(val - getattr(ref, name)), 5.0 * abs(delta) * scale + 1e-14,
                    err_msg=f"{got.mode} {name} at delta={delta:g}",
                )
    p = params(0.0)
    asy, tr = at_zero
    pv, pv_err = principal_value_coefficient(p, asy.omegas)
    np.testing.assert_array_less(np.abs(asy.b2 - pv), pv_err + 1e-13 * p.gamma)
    ref = transient_quadrature(p, n_max, tau)
    for name in ("a1", "a2", "b1", "b2"):
        np.testing.assert_array_less(
            np.abs(getattr(tr, name) - getattr(ref, name)), ref.err + tr.err
        )


def test_tiny_tau_bounded_and_reports_truncation():
    """tau = 1e-6 needs ~40 beta/(2 pi tau) ~ 6e6 Matsubara terms. The sum
    is capped and chunked, so memory stays small, and the cut shows in err;
    at tau = 1e-7 and Lambda = 100 the bound outgrows the guard."""
    for lam in (10.0, 100.0):
        p = SystemParams(mu_bar=1e-2, intensity=10.0, beta_bar=1.0, gamma=1e-2, lambda_bar=lam)
        tracemalloc.start()
        try:
            c = transient_coefficients(p, 38, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB at Lambda={lam:g}"
        for arr in (c.a1, c.a2, c.b1, c.b2):
            assert np.all(np.isfinite(arr))
        assert np.all(c.err > 1e-6 * p.gamma)
        assert np.all(c.err < 0.01 * p.gamma / (2.0 * math.pi))
    with pytest.raises(QuadratureError, match="error bound"):
        transient_coefficients(p, 38, 1e-7)


def test_guard_rejects_bound_not_below_value():
    """At tau = 1e-7 and Lambda = 10 the capped Matsubara sum leaves a bound
    (7.7e-5 gamma) below 1% of gamma/2pi but above B1 itself (5.7e-5 gamma):
    the value carries no correct digit, so the guard must raise."""
    p = SystemParams(mu_bar=1e-2, intensity=10.0, beta_bar=1.0, gamma=1e-2, lambda_bar=10.0)
    with pytest.raises(QuadratureError, match="error bound"):
        transient_coefficients(p, 38, 1e-7)
    # the same numbers straight into the guard: the bound is under 1% of
    # gamma/2pi, so only the comparison with the value catches it
    g = p.gamma
    omegas = np.array([1.01])
    with pytest.raises(QuadratureError, match="error bound"):
        _check_quadrature(np.array([5.7e-5 * g]), np.array([7.7e-5 * g]), g, omegas, "B1")
    _check_quadrature(np.array([5.7e-5 * g]), np.array([0.5e-5 * g]), g, omegas, "B1")
    _check_quadrature(np.zeros(1), np.zeros(1), g, omegas, "B1")  # exact zero passes
