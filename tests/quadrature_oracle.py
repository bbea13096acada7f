"""Frequency-panel quadrature of the bath coefficients, kept as a test oracle.

The package computes the coefficients from the exact Matsubara expansion of
the Drude-Ohmic kernels. This module evaluates the same quantities by the
independent route: the coefficient integrals with the integration order
swapped, the inner time integral done analytically and the outer frequency
integral by composite Gauss-Legendre panels,

    A1_n(tau) = Int dw w_A(w) * (1/2) [hc(w+O) + hc(w-O)]
    A2_n(tau) = Int dw w_A(w) * (1/2) [sc(w-O) - sc(w+O)]
    B1_n(tau) = Int dw w_B(w) * (1/2) [sc(w-O) + sc(w+O)]
    B2_n(tau) = Int dw w_B(w) * (1/2) [hc(w+O) - hc(w-O)]

where O = Omega_n, sc(d) = sin(d tau)/d, hc(d) = (1 - cos(d tau))/d,
w_A = J/pi and w_B = J coth(beta w/2)/pi. Both kernels are entire in d, so
the finite-tau integrands have no singularities; the tau -> inf limits
develop principal-value structure, handled by symmetric-interval
subtraction around the pole at w = Omega_n. Every routine returns a
conservative error bound (a half-resolution comparison plus tail bounds)
and goes through the package's error guard, so a starved resolution raises
QuadratureError.

It is slow (tens to hundreds of milliseconds per tau) and only the tests
use it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from kerrbath import BathCoefficients, SystemParams, omega_levels
from kerrbath.kernels import _check_quadrature


@lru_cache(maxsize=8)
def _gauss_nodes(deg: int):
    x, w = np.polynomial.legendre.leggauss(deg)
    return x, w


def _panel_nodes(edges: np.ndarray, deg: int):
    """Gauss-Legendre nodes and weights for a sequence of panels."""
    x, w = _gauss_nodes(deg)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x[None, :]
    weights = 0.5 * (b - a) * w[None, :]
    return nodes.ravel(), weights.ravel()


def _weight_b(params: SystemParams, w: np.ndarray) -> np.ndarray:
    """w_B(w) = J(w) coth(beta w/2) / pi, finite at w = 0."""
    lam2 = params.lambda_bar**2
    x = 0.5 * params.beta_bar * w
    small = x < 1e-8
    coth = np.empty_like(w)
    coth[~small] = 1.0 / np.tanh(x[~small])
    coth[small] = 1.0 / np.where(small, x, 1.0)[small]  # leading 1/x term
    return params.gamma * w * lam2 / (lam2 + w * w) * coth / math.pi


def _weight_a(params: SystemParams, w: np.ndarray) -> np.ndarray:
    lam2 = params.lambda_bar**2
    return params.gamma * w * lam2 / (lam2 + w * w) / math.pi


def _pv_outer_domain(params: SystemParams, omega_max: float) -> float:
    """Frequency beyond which the tail is handled in closed form."""
    w = 50.0 * params.lambda_bar
    if params.beta_bar > 0:
        w = max(w, 12.0 / params.beta_bar)
    return max(w, 2.0 * omega_max + 10.0)


def _b2_tail_closed(params: SystemParams, omega: np.ndarray, big_w: float):
    """Tail of the B2 PV integral beyond big_w with coth -> 1, plus error bound."""
    lam2 = params.lambda_bar**2
    o2 = omega * omega
    val = (
        -params.gamma
        * lam2
        * omega
        / (2.0 * math.pi * (lam2 + o2))
        * np.log((lam2 + big_w**2) / (big_w**2 - o2))
    )
    # coth(beta w/2) - 1 <= 2 e^{-beta w} / (1 - e^{-beta w}) on the tail
    rel = 2.0 * math.exp(-params.beta_bar * big_w)
    err = np.abs(val) * rel / max(1.0 - rel, 0.5)
    return val, err


def _a_tail_closed(params: SystemParams, omega: np.ndarray, big_w: float):
    """Tail of Int w_A(w) w/(w^2 - O^2) dw beyond big_w (exact, no coth)."""
    lam = params.lambda_bar
    lam2 = lam * lam
    o2 = omega * omega
    coef = params.gamma * lam2 / math.pi
    frac_lam = lam2 / (lam2 + o2)
    frac_o = o2 / (lam2 + o2)
    t_lam = (0.5 * math.pi - np.arctan(big_w / lam)) / lam
    t_o = np.log((big_w + omega) / (big_w - omega)) / (2.0 * omega)
    val = coef * (frac_lam * t_lam + frac_o * t_o)
    return val, np.zeros_like(val)


def principal_value_coefficient(
    params: SystemParams,
    omegas: np.ndarray,
    weight: str = "noise",
    deg: int = 24,
) -> tuple[np.ndarray, np.ndarray]:
    """Principal-value frequency integral behind the tau -> inf coefficients.

    weight = "noise":        PV Int_0^inf w_B(w) * O/(O^2 - w^2) dw  (B2 limit)
    weight = "dissipation":  PV Int_0^inf w_A(w) * w/(w^2 - O^2) dw  (A1 limit)

    Returns (values, error bounds). The pole at w = O is removed by
    symmetric-interval subtraction: on [O-d, O+d] the integrand is written as
    f(w)/(O-w) (noise) or f(w)/(w-O) (dissipation) with the smooth factor f
    absorbing the rest, and the PV part becomes a regular integral of
    [f(O-u) - f(O+u)] / (+-u) over u in [0, d].
    """
    if weight not in ("noise", "dissipation"):
        raise ValueError(f"unknown weight {weight!r}")
    noise = weight == "noise"
    wfun = _weight_b if noise else _weight_a
    omegas = np.asarray(omegas, dtype=float)
    big_w = _pv_outer_domain(params, float(omegas.max()))
    vals = np.empty_like(omegas)
    errs = np.empty_like(omegas)
    lam = params.lambda_bar
    # resolve the pole neighborhood, the cutoff, and the thermal scale
    h_smooth = min(0.5 * lam, 3.0 / params.beta_bar)

    for i, o in enumerate(omegas):
        delta = 0.5 * min(o, lam, big_w - o)

        def f(w):
            w = np.asarray(w, dtype=float)
            base = wfun(params, w)
            return base * o / (o + w) if noise else base * w / (w + o)

        def sym_integrand(u):
            diff = f(o - u) - f(o + u)
            return diff / u if noise else -diff / u

        def regular(w):
            w = np.asarray(w, dtype=float)
            base = wfun(params, w)
            if noise:
                return base * o / (o * o - w * w)
            return base * w / (w * w - o * o)

        total = 0.0
        check = 0.0
        for lo, hi in ((0.0, o - delta), (o + delta, big_w)):
            n_pan = max(12, int(math.ceil((hi - lo) / min(delta, h_smooth))))
            n_pan = min(n_pan, 2500)
            edges = np.linspace(lo, hi, n_pan + 1)
            x, wt = _panel_nodes(edges, deg)
            total += float(np.dot(regular(x), wt))
            x2, wt2 = _panel_nodes(edges, deg // 2)
            check += float(np.dot(regular(x2), wt2))
        sedges = delta * np.linspace(0.0, 1.0, 17) ** 2  # cluster toward u = 0
        x, wt = _panel_nodes(sedges, deg)
        sym = float(np.dot(sym_integrand(x), wt))
        x2, wt2 = _panel_nodes(sedges, deg // 2)
        sym_check = float(np.dot(sym_integrand(x2), wt2))
        tail, tail_err = (
            _b2_tail_closed(params, np.array([o]), big_w)
            if noise
            else _a_tail_closed(params, np.array([o]), big_w)
        )
        vals[i] = total + sym + float(tail[0])
        errs[i] = abs(total - check) + abs(sym - sym_check) + float(tail_err[0])
    _check_quadrature(vals, errs, params.gamma, omegas, "principal-value")
    return vals, errs


def _sc(d: np.ndarray, tau: float) -> np.ndarray:
    """sin(d tau)/d, stable through d = 0."""
    return tau * np.sinc(d * (tau / math.pi))


def _hc(d: np.ndarray, tau: float) -> np.ndarray:
    """(1 - cos(d tau))/d = 2 sin^2(d tau/2)/d, stable through d = 0."""
    x = d * tau
    small = np.abs(x) < 1e-6
    out = np.empty_like(x)
    xs = x[small]
    out[small] = tau * (0.5 * xs - xs**3 / 24.0)
    xl = x[~small]
    out[~small] = tau * (2.0 * np.sin(0.5 * xl) ** 2 / xl)
    return out


def _transient_tails(params, omegas, big_w, tau, weight: str):
    """Tail of the transient integrals beyond big_w.

    The non-oscillatory 1/d parts get closed forms; the oscillatory parts get
    their first integration-by-parts term, with the next order bounded and
    returned as the error. For the noise weight the coth -> 1 replacement on
    the tail is folded into the error as well. Returns per-level
    (tail_even, tail_odd, err): even is the hc-combination (A1 or B2 pattern),
    odd is the sc-combination (A2 or B1 pattern).
    """
    lam2 = params.lambda_bar**2
    g_w = params.gamma * big_w * lam2 / (lam2 + big_w * big_w) / math.pi
    if weight == "noise":
        coth_w = 1.0 / math.tanh(0.5 * params.beta_bar * big_w)
        g_w *= coth_w
        rel_coth = 2.0 * math.exp(-params.beta_bar * big_w)
        # B2 kernel: (1/2)[hc(w+O) - hc(w-O)] -> non-osc part O/(O^2-w^2)
        even, err = _b2_tail_closed(params, omegas, big_w)
    else:
        rel_coth = 0.0
        # A1 kernel: (1/2)[hc(w+O) + hc(w-O)] -> non-osc part w/(w^2-O^2)
        even, err = _a_tail_closed(params, omegas, big_w)

    d_p = big_w + omegas
    d_m = big_w - omegas
    # oscillatory first IBP terms: Int_W^inf g(w) trig(d tau)/d dw
    #   cos part: -g(W) sin(d_W tau)/(tau d_W) continues the even kernels
    #   sin part: +g(W) cos(d_W tau)/(tau d_W) continues the odd kernels
    cos_p = np.sin(d_p * tau) / (tau * d_p)
    cos_m = np.sin(d_m * tau) / (tau * d_m)
    sin_p = np.cos(d_p * tau) / (tau * d_p)
    sin_m = np.cos(d_m * tau) / (tau * d_m)
    if weight == "noise":
        even = even + 0.5 * g_w * (cos_p - cos_m)
        odd = 0.5 * g_w * (sin_m + sin_p)
    else:
        even = even + 0.5 * g_w * (cos_p + cos_m)
        odd = 0.5 * g_w * (sin_m - sin_p)
    ibp2 = 2.0 * g_w / (tau * d_m) ** 2 + 2.0 * g_w / (tau * d_p) ** 2
    err = err + ibp2 + rel_coth * (np.abs(even) + np.abs(odd) + g_w / big_w)
    return even, odd, err


def transient_quadrature(
    params: SystemParams, n_max: int, tau: float, deg: int = 12
) -> BathCoefficients:
    """Finite-time coefficients for levels 0..n_max-1 at elapsed time tau > 0.

    Composite Gauss-Legendre panels on [0, W] sized to resolve both the
    cutoff structure and the oscillation wavelength 2 pi/tau, plus
    closed-form tail estimates beyond W. err is per level the sum of the
    four coefficients' bounds: a half-resolution quadrature comparison plus
    the tail bounds.
    """
    omegas = omega_levels(params, n_max)
    o_max = float(omegas.max())
    big_w = max(_pv_outer_domain(params, o_max), 60.0 / tau)
    # uniform panels across the structured region (resonances at +-Omega_n,
    # cutoff knee, thermal knee), then a geometric tail whose panel width is
    # capped at two oscillation wavelengths so Gauss-12 keeps ~6 nodes per
    # wavelength; a uniform grid out to big_w ~ 60/tau is unaffordable at
    # small tau
    w_lin = min(big_w, max(2.0 * o_max + 10.0, 4.0 * params.lambda_bar, 12.0 / params.beta_bar))
    h = min(params.lambda_bar / 3.0, math.pi / tau, w_lin / 24.0)
    edges = np.linspace(0.0, w_lin, int(math.ceil(w_lin / h)) + 1)
    if big_w > w_lin:
        tail = [float(w_lin)]
        while tail[-1] < big_w:
            tail.append(min(big_w, tail[-1] + min(0.5 * tail[-1], 2.0 * math.pi / tau)))
        edges = np.concatenate([edges, np.asarray(tail[1:])])

    # the same panels at half the Gauss degree give the error estimate
    # (halving the edges instead would merge geometric tail panels past a
    # wavelength per panel)
    results = []
    for use_deg in (deg, max(4, deg // 2)):
        x, wt = _panel_nodes(edges, use_deg)
        wa = _weight_a(params, x) * wt
        wb = _weight_b(params, x) * wt
        d_m = x[:, None] - omegas[None, :]
        d_p = x[:, None] + omegas[None, :]
        sc_m, sc_p = _sc(d_m, tau), _sc(d_p, tau)
        hc_m, hc_p = _hc(d_m, tau), _hc(d_p, tau)
        results.append(np.array([
            0.5 * (wa @ (hc_p + hc_m)),
            0.5 * (wa @ (sc_m - sc_p)),
            0.5 * (wb @ (sc_m + sc_p)),
            0.5 * (wb @ (hc_p - hc_m)),
        ]))
    (a1, a2, b1, b2), lo_res = results
    err = np.sum(np.abs(results[0] - lo_res), axis=0)

    even_a, odd_a, err_a = _transient_tails(params, omegas, big_w, tau, "dissipation")
    even_b, odd_b, err_b = _transient_tails(params, omegas, big_w, tau, "noise")
    a1 = a1 + even_a
    a2 = a2 + odd_a
    b1 = b1 + odd_b
    b2 = b2 + even_b
    err = err + err_a + err_b
    scale = np.maximum.reduce([np.abs(a1), np.abs(a2), np.abs(b1), np.abs(b2)])
    _check_quadrature(scale, err, params.gamma, omegas, "transient-coefficient")
    return BathCoefficients(omegas, a1, a2, b1, b2, mode="transient", tau=tau, err=err)
