"""Ohmic bath kernels and the level-resolved master-equation coefficients.

The bath enters the master equation through four coefficient operators,
diagonal in the Fock basis because they are functions of the frequency
operator Omega_hat = 1 + mu*(1 + 2*n_hat). At level n, with Omega_n its
eigenvalue, the coefficients are time integrals of the bath kernels against
trigonometric factors:

    A_n(tau) = A1_n + i A2_n = Int_0^tau ds eta(s) e^{i Omega_n s}   (dissipation)
    B_n(tau) = B1_n + i B2_n = Int_0^tau ds nu(s)  e^{i Omega_n s}   (noise)

with the Ohmic kernels

    eta(s) = Int_0^inf (dw/pi) J(w) sin(w s),
    nu(s)  = Int_0^inf (dw/pi) J(w) coth(beta w / 2) cos(w s),
    J(w)   = gamma * w * Lambda^2 / (Lambda^2 + w^2).

For this Lorentz-Drude cutoff both kernels are exact sums of exponentials
(Tanimura & Kubo, J. Phys. Soc. Jpn. 58, 101 (1989)): closing the frequency
contour picks up the cutoff pole at i Lambda and, for nu, the Matsubara
poles at i nu_k, nu_k = 2 pi k / beta,

    eta(s) = (gamma Lambda^2/2) e^{-Lambda s},
    nu(s)  = (gamma Lambda^2/2) cot(beta Lambda/2) e^{-Lambda s}
             - (2 gamma Lambda^2/beta) sum_{k>=1} nu_k e^{-nu_k s} / (Lambda^2 - nu_k^2).

Every coefficient is then a closed form. With z_L = Lambda - i Omega_n and
z_k = nu_k - i Omega_n,

    A(tau) = A(inf) - (gamma Lambda^2/2) e^{-z_L tau} / z_L,
    B(tau) = B(inf) - (gamma Lambda^2/2) cot(beta Lambda/2) e^{-z_L tau} / z_L
             + (2 gamma Lambda^2/beta) sum_k nu_k e^{-z_k tau} / ((Lambda^2 - nu_k^2) z_k),

and the long-time values are

    A1(inf) = gamma Lambda^3 / (2 (Lambda^2 + Omega_n^2))
    A2(inf) = J(Omega_n) / 2
    B1(inf) = (J(Omega_n) / 2) coth(beta Omega_n / 2)
    B2(inf) = gamma Lambda^2 Omega_n / (pi (Lambda^2 + Omega_n^2))
              * [Re psi(1 + i y) - psi(x) - 1/(2x)],   x = beta Lambda/2pi,
                                                       y = beta Omega_n/2pi.

A1(inf) is fixed by the renormalized frequency
omega_eff^2 = Omega^2 - gamma Lambda^3/(Lambda^2 + Omega^2), and B1 = A2 coth
is the fluctuation-dissipation relation. B2(inf) is the Matsubara sum done
exactly in digamma functions; the reflection psi(1-x) = psi(x) + pi cot(pi x)
cancels the cot(beta Lambda/2) term, so it is regular at beta Lambda = 2 pi k.
At finite tau the cot term and the k-th Matsubara term are each singular
there while their sum is finite; the pair nearest the resonance is always
evaluated merged (see _decaying_parts). The Matsubara sum converges like
e^{-nu_k tau}; it is truncated once the remainder is below round-off, at
most _MATSUBARA_CAP terms, and err reports the bound on the remainder.

psi is evaluated in numpy (_digamma): the recurrence psi(w) = psi(w+1) - 1/w
up to Re w >= 10, then the asymptotic series through B_14 (DLMF 5.5.2,
5.11.2). For real x and for Re psi(1 + iy) it agrees with scipy's digamma
to 2e-15 relative to max(1, |psi|).

A coefficient table evaluates the long-time parts once and its finite-time
rows together, in blocks of rows that share a Matsubara term count (see
_tables); transient_coefficients is a one-row table, and
asymptotic_coefficients its tau = inf row. A row's arithmetic does not
depend on the rows beside it, so each table row is bit for bit the
coefficients at its tau alone, and a level's not on the levels above it, so
the coefficients of L levels are the first L columns of any larger basis's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams, derived_scales

# the k-sum stops at nu_k tau >= _DECAY_EXPONENT (e^-40 ~ 4e-18), is
# evaluated in chunks of _MATSUBARA_CHUNK terms and never runs past
# _MATSUBARA_CAP terms; beyond that (tau ~ 40 beta/(2 pi cap) and smaller)
# the truncation shows in err, and a beta Lambda whose floor of
# 1.5 beta Lambda/2pi terms passes the cap is refused
_DECAY_EXPONENT = 40.0
_MATSUBARA_CHUNK = 512
_MATSUBARA_CAP = 1 << 18

# a coefficient table evaluates at most _BLOCK_ROWS rows at once, and at
# most _MATSUBARA_CHUNK Matsubara terms over all of them
_BLOCK_ROWS = 64

# psi: the recurrence runs up to Re w >= _PSI_SHIFT, where the asymptotic
# series with the Bernoulli numbers B_2 ... B_14 is below round-off
_PSI_SHIFT = 10.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


class QuadratureError(RuntimeError):
    """Raised when a coefficient's error bound is not small against its scale."""


def spectral_density(params: SystemParams, omega):
    """Ohmic spectral density with a Lorentz-Drude cutoff, J(w) = g w L^2/(L^2+w^2)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0.0):
        raise ValueError("spectral density is defined for non-negative frequencies")
    lam2 = params.lambda_bar**2
    out = params.gamma * w * lam2 / (lam2 + w * w)
    return out if out.ndim else float(out)


def omega_levels(params: SystemParams, n_max: int) -> np.ndarray:
    """Eigenvalues of the frequency operator, Omega_n = 1 + mu*(1 + 2n)."""
    n = np.arange(n_max, dtype=float)
    return 1.0 + params.mu_bar * (1.0 + 2.0 * n)


@dataclass(frozen=True)
class BathCoefficients:
    """Level-diagonal master-equation coefficients.

    mode is "asymptotic" (tau -> inf values) or "transient" (finite tau,
    stored in tau). err is a per-level absolute bound on |dB1| + |dB2| from
    truncating the Matsubara sum; every other part is exact, so err is zero
    in the asymptotic mode.
    """

    omegas: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    mode: str
    tau: float | None = None
    err: np.ndarray | None = None


def asymptotic_b1_at(params: SystemParams, omega: float) -> float:
    """B1(inf) at a single frequency: (J(omega)/2) coth(beta omega/2)."""
    j = spectral_density(params, omega)
    return 0.5 * j / math.tanh(0.5 * params.beta_bar * omega)


def _check_quadrature(vals, errs, gamma: float, omegas, label: str) -> None:
    """Fail loudly when a reported error bound is not small against the
    natural coefficient scale (all coefficients are O(gamma)), or is not
    below the value it bounds. vals and errs broadcast together, with the
    levels omegas on their last axis."""
    vals, errs = np.broadcast_arrays(vals, errs)
    scale = np.maximum(np.abs(vals), gamma / (2.0 * math.pi))
    bad = (errs > 0.01 * scale) | ((errs > 0.0) & (errs >= np.abs(vals)))
    if np.any(bad):
        k = np.unravel_index(int(np.argmax(np.where(bad, errs / scale, -np.inf))), bad.shape)
        raise QuadratureError(
            f"{label} did not converge at omega={omegas[k[-1]]:g}: "
            f"error bound {errs[k]:.3e} against value {vals[k]:.3e}"
        )


def _digamma(w):
    """psi(w) for real w > 0 or complex w with Re w > 0, elementwise.

    psi(w) = psi(w + 1) - 1/w carries w up to Re w >= 10, and there
    psi(w) = ln w - 1/(2w) - sum_{k=1}^{7} B_2k / (2k w^2k) (DLMF 5.5.2,
    5.11.2); the first dropped term is below 5e-17. Every element recurs
    ceil(10 - min Re w) times: the count each needs when all share one real
    part, as every caller's arguments do, and more for the others.
    """
    w = np.asarray(w)
    steps = max(math.ceil(_PSI_SHIFT - float(w.real.min(initial=_PSI_SHIFT))), 0)
    acc = np.zeros_like(w)
    for k in range(steps):
        acc -= 1.0 / (w + k)
    w = w + steps
    inv2 = 1.0 / (w * w)  # past |w| ~ 1e154 this is 0, as it should be
    series = np.zeros_like(w)
    for k in range(len(_BERNOULLI), 0, -1):
        series = inv2 * (series + _BERNOULLI[k - 1] / (2 * k))
    return acc + np.log(w) - 0.5 / w - series


def _asymptotic_parts(params: SystemParams, omegas: np.ndarray, scales):
    """A1, A2, B1, B2 at tau -> inf per unit gamma, with the scales that
    derived_scales formed for the bath."""
    lam = params.lambda_bar
    beta = params.beta_bar
    den = lam * lam + omegas * omegas
    a1 = 0.5 * scales["lambda_cube"] / den
    a2 = 0.5 * lam * lam * omegas / den
    b1 = a2 / np.tanh(0.5 * beta * omegas)
    y = beta * omegas / (2.0 * math.pi)
    b2 = lam * lam * omegas / (math.pi * den) * (
        _digamma(1.0 + 1j * y).real - _digamma(scales["x"]) - 0.5 / scales["x"]
    )
    return a1, a2, b1, b2


def _cot_minus_pole(u: float) -> float:
    """cot(u) - 1/u, regular through u = 0."""
    if abs(u) < 0.1:
        u2 = u * u
        return -u * (1 / 3 + u2 * (1 / 45 + u2 * (2 / 945 + u2 * (1 / 4725 + u2 * 2 / 93555))))
    return 1.0 / math.tan(u) - 1.0 / u


def _matsubara_terms(params: SystemParams, taus: np.ndarray) -> np.ndarray:
    """Terms of the Matsubara sum kept at each tau > 0: up to nu_k tau >=
    _DECAY_EXPONENT, at most _MATSUBARA_CAP, and past 1.5 x, x = beta Lambda/2pi.
    Raises ValueError when 1.5 x alone asks for more than _MATSUBARA_CAP
    terms, and for terms outside the numeric domain (see derived_scales)."""
    c = 2.0 * math.pi / params.beta_bar
    floor = 1.5 * params.lambda_bar / c  # compared as a float, so inf is refused too
    if not floor <= _MATSUBARA_CAP - 1:
        raise ValueError(
            f"the transient coefficients need {floor + 1:.3g} Matsubara terms at "
            f"beta_bar = {params.beta_bar:g} and lambda_bar = {params.lambda_bar:g}, "
            f"more than the {_MATSUBARA_CAP} they sum; beta_bar * lambda_bar must be "
            f"at most {(_MATSUBARA_CAP - 1) / 1.5 * 2.0 * math.pi:.6g}"
        )
    n = np.ceil(_DECAY_EXPONENT / np.maximum(c * taus, _DECAY_EXPONENT / _MATSUBARA_CAP))
    n = np.maximum(n, math.ceil(floor) + 1).astype(int)
    derived_scales(params, matsubara=int(n.max()))
    return n


def _decaying_parts(params: SystemParams, omegas: np.ndarray, taus: np.ndarray,
                    n_terms: int):
    """A(tau) - A(inf) and B(tau) - B(inf) per unit gamma at finite taus > 0.

    taus are the rows, and n_terms is the Matsubara term count they share.
    Returns (dA, dB, bound): dA and dB are complex, one row per tau and one
    column per level, and bound bounds |dB| lost to truncating the Matsubara
    sum at each tau. Each row's arithmetic does not depend on the other rows:
    the k-sum runs in order over k, in chunks of _MATSUBARA_CHUNK terms.
    With x = beta Lambda/2pi and k0 = round(x) >= 1, the cutoff term and
    the k0-th Matsubara term are evaluated as one: with
    g(a) = e^{-(a - i O) tau}/(a - i O), delta = x - k0 and
    cot(pi x) = cot(pi delta), their sum is

        Lambda^2 [-(g(Lambda) - g(nu_k0)) / (2 pi delta)
                  - (cot(pi delta) - 1/(pi delta)) g(Lambda)/2
                  - g(nu_k0) / (2 pi (2 k0 + delta))],

    exact for every delta and finite at delta = 0.
    """
    lam = params.lambda_bar
    beta = params.beta_bar
    c = 2.0 * math.pi / beta
    x = lam / c
    lam2 = lam * lam
    t = taus[:, None]
    phase = np.exp(1j * omegas * t)
    z_lam = lam - 1j * omegas
    g_lam = np.exp(-lam * t) * phase / z_lam
    d_a = -0.5 * lam2 * g_lam

    # Matsubara terms k != k0: nu_k g(nu_k) / (Lambda^2 - nu_k^2) with
    # g(nu_k) = e^{-nu_k tau} e^{i O tau} (nu_k + i O) / (nu_k^2 + O^2)
    k0 = round(x)
    o2 = omegas * omegas
    re_sum = np.zeros(phase.shape)
    im_sum = np.zeros(phase.shape)
    for start in range(1, n_terms + 1, _MATSUBARA_CHUNK):
        k = np.arange(start, min(start + _MATSUBARA_CHUNK, n_terms + 1), dtype=float)
        nu = c * k
        den = c * c * (x - k) * (x + k)
        den[k == k0] = np.inf
        w = nu[:, None] * np.exp(-nu[:, None] * taus) / den[:, None]
        inv = 1.0 / (nu[:, None] ** 2 + o2)
        re_sum += np.sum((w * nu[:, None])[:, :, None] * inv[:, None, :], axis=0)
        im_sum += np.sum(w[:, :, None] * inv[:, None, :], axis=0)
    d_b = (2.0 * lam2 / beta) * phase * (re_sum + 1j * omegas * im_sum)

    if k0 >= 1:
        delta = x - k0
        nu0 = c * k0
        z0 = nu0 - 1j * omegas
        g0 = np.exp(-nu0 * t) * phase / z0
        # slope = (g(Lambda) - g(nu_k0)) / delta without cancellation:
        # -c g_a (1 + z_a tau expm1(u)/u) / z_b with u = -c |delta| tau <= 0,
        # where a is the slower-decaying of the two poles and b the other
        g_a, z_a, z_b = (g0, z0, z_lam) if delta >= 0.0 else (g_lam, z_lam, z0)
        u = -c * abs(delta) * t
        expm1_ratio = np.divide(np.expm1(u), u, out=np.ones_like(u), where=u != 0.0)
        slope = -c * g_a * (1.0 + z_a * t * expm1_ratio) / z_b
        d_b += lam2 * (
            -slope / (2.0 * math.pi)
            - 0.5 * _cot_minus_pole(math.pi * delta) * g_lam
            - g0 / (2.0 * math.pi * (2 * k0 + delta))
        )
    else:
        d_b -= 0.5 * lam2 / math.tan(math.pi * x) * g_lam

    # remainder: k > n_terms >= 1.5 x gives Lambda^2 - nu_k^2 <= -nu_k^2/2 and
    # |g(nu_k)| <= e^{-nu_k tau}/nu_k, so each term is below
    # (4 Lambda^2/(beta c^2)) q^k/k^2 with q = e^{-c tau}; sum_{k>K} q^k/k^2
    # is below both 1/K and q^{K+1}/((K+1)^2 (1 - q))
    ctau = c * taus
    tail = np.minimum(1.0 / n_terms, np.exp(-ctau * (n_terms + 1))
                      / ((n_terms + 1) ** 2 * -np.expm1(-ctau)))
    return d_a, d_b, 4.0 * lam2 / (beta * c * c) * tail


def _tables(params: SystemParams, n_max: int, taus: np.ndarray):
    """The four coefficients at each of taus in [0, inf], asymptotic at inf,
    as (a1, a2, b1, b2, err): four arrays of shape (taus.size, n_max) and
    err, each row's bound on the truncated Matsubara sum (zero at tau = 0
    and inf). gamma enters as the last factor, so they are exactly linear
    in it; raises QuadratureError when a row's bound is not small against
    its coefficients, and ValueError outside the numeric domain (see
    derived_scales) or for a table that is not finite.

    The long-time parts are evaluated once. The rows with 0 < tau < inf
    go through _decaying_parts in blocks of rows that share a Matsubara term
    count, at most _BLOCK_ROWS of them and at most _MATSUBARA_CHUNK terms
    over all of them (a row with more has a block of its own, summed chunk
    by chunk), so no temporary outgrows one _MATSUBARA_CHUNK x n_max block.
    """
    taus = np.asarray(taus, dtype=float)
    if not np.all(taus >= 0.0):
        raise ValueError(f"tau must be non-negative, got {taus[~(taus >= 0.0)][0]}")
    g = params.gamma
    # a bath with gamma = 0 is zero, whatever its other scales
    scales = derived_scales(params, n_max, matsubara=0 if g > 0.0 else None)
    omegas = omega_levels(params, n_max)
    shape = (taus.size, n_max)
    tables = tuple(np.zeros(shape) for _ in range(4))
    err = np.zeros(taus.size)
    if g == 0.0:
        return (*tables, err)
    # inside the domain an exponent past the float range decays to 0, as it
    # should, and what else leaves the range comes out inf or nan with no
    # numpy warning (the digamma series at beta_bar = 5e307 and lambda_bar =
    # 1, a phase Omega tau past 1e308): the table is refused below
    with np.errstate(all="ignore"):
        parts = _asymptotic_parts(params, omegas, scales)
        at_inf = np.isinf(taus)
        for table, part in zip(tables, parts):
            table[at_inf] = part * g
        rows = np.flatnonzero((taus > 0.0) & ~at_inf)
        # only finite rows sum Matsubara terms, so rows at 0 and inf take any beta_bar
        n_terms = _matsubara_terms(params, taus[rows]) if rows.size else rows
        # numpy may sum a one-level block's k-sum pairwise, a wider one's in
        # order: a one-level table sums two levels and keeps the first, so
        # that every level's bits are those of any wider table
        wide = omega_levels(params, max(n_max, 2))
        for n in sorted(set(n_terms.tolist())):  # np.unique would import numpy.ma
            group = rows[n_terms == n]
            per = min(_BLOCK_ROWS, max(1, _MATSUBARA_CHUNK // n))
            for lo in range(0, group.size, per):
                block = group[lo:lo + per]
                d_a, d_b, bound = _decaying_parts(params, wide, taus[block], n)
                for table, part, d in zip(tables, parts, (d_a.real, d_a.imag, d_b.real, d_b.imag)):
                    table[block] = (part + d[:, :n_max]) * g
                err[block] = 2.0 * bound * g
                scale = np.maximum.reduce([np.abs(table[block]) for table in tables])
                _check_quadrature(scale, err[block, None], g, omegas, "Matsubara sum")
    if not all(np.isfinite(part).all() for part in (*tables, err)):
        raise ValueError(f"the bath coefficients are not finite at lambda_bar = "
                         f"{params.lambda_bar:g}, beta_bar = {params.beta_bar:g} and "
                         f"gamma = {g:g}; bring them nearer 1")
    return (*tables, err)


def asymptotic_coefficients(params: SystemParams, n_max: int) -> BathCoefficients:
    """Long-time coefficients for levels 0..n_max-1, all four exact (err =
    0): the tau = inf row of a coefficient table."""
    return transient_coefficients(params, n_max, math.inf)


def transient_coefficients(
    params: SystemParams, n_max: int, tau: float
) -> BathCoefficients:
    """Finite-time coefficients for levels 0..n_max-1 at elapsed time tau,
    a one-row coefficient table (tau = inf gives asymptotic_coefficients).

    Exact up to the truncated Matsubara sum, whose bound is err; raises
    QuadratureError when that bound is not small against the coefficients,
    and ValueError for a negative or NaN tau.
    """
    tau = float(tau)
    a1, a2, b1, b2, err = _tables(params, n_max, np.array([tau]))
    at_inf = tau == math.inf
    return BathCoefficients(omega_levels(params, n_max), a1[0], a2[0], b1[0], b2[0],
                            mode="asymptotic" if at_inf else "transient",
                            tau=None if at_inf else tau, err=np.full(n_max, err[0]))


def coefficient_tables(
    params: SystemParams, n_max: int, taus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transient coefficients tabulated on a time grid, in any order.

    Returns four arrays of shape (len(taus), n_max): a1, a2, b1, b2, each
    row equal to transient_coefficients at its tau, bit for bit. The rows
    are evaluated together, in blocks of equal Matsubara term count (see
    _tables), and the long-time parts once for the whole table.
    """
    return _tables(params, n_max, taus)[:4]
