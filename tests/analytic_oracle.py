"""Analytic references and fitters that only the tests use.

The package keeps the closed forms and fits its programs call. These are
the rest of the analytic side of the model, kept as test oracles: the
isolated position signal and its envelopes, the damped decay exponent, the
discrete amplitude spectrum, the exact line spectrum and its smooth
large-I0 shape, the cutoff-renormalized frequency, and the fits of
recurrence heights, classical ring-downs and a fixed-width Gaussian
envelope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from kerrbath import DecoherenceFit, SystemParams, alpha_closed


class OverdampedError(ValueError):
    """Raised when the cutoff renormalization overwhelms the bare frequency."""


def x_closed(params: SystemParams, taus) -> np.ndarray:
    """Isolated position expectation sqrt(2) Re <a>(tau)."""
    return math.sqrt(2.0) * alpha_closed(params, taus).real


def ehrenfest_envelope(params: SystemParams, taus) -> np.ndarray:
    """Envelope of x_closed: sqrt(2 I0) exp[I0 (cos(2 mu tau) - 1)].

    Collapses like a Gaussian of width tau_e around tau = 0 and around every
    revival at multiples of pi/mu.
    """
    t = np.asarray(taus, dtype=float)
    i0 = params.intensity
    return math.sqrt(2.0 * i0) * np.exp(i0 * (np.cos(2.0 * params.mu_bar * t) - 1.0))


def gaussian_envelope(params: SystemParams, taus) -> np.ndarray:
    """Early-time Gaussian approximation sqrt(2 I0) exp[-tau^2/(2 tau_e^2)].

    Only the leading quadratic of the exact envelope; it has no revivals.
    """
    t = np.asarray(taus, dtype=float)
    i0 = params.intensity
    rate = 2.0 * params.mu_bar**2 * i0  # 1/(2 tau_e^2)
    return math.sqrt(2.0 * i0) * np.exp(-rate * t * t)


def bump_envelope(taus, tau_e: float, n_bump: int = 0, tau_r: float = math.inf,
                  tau_d: float = math.inf) -> np.ndarray:
    """The n-th recurrence bump normalized to 1 at the n = 0 peak,

        exp(-n tau_r / tau_d) exp(-(tau - n tau_r)^2 / (2 tau_e^2)):

    a Gaussian of width tau_e centered on the n-th revival, scaled by the
    accumulated coherence decay.
    """
    if tau_e <= 0:
        raise ValueError(f"tau_e must be positive, got {tau_e}")
    t = np.asarray(taus, dtype=float)
    center = n_bump * tau_r if n_bump else 0.0
    height = math.exp(-center / tau_d) if math.isfinite(tau_d) else 1.0
    return height * np.exp(-((t - center) ** 2) / (2.0 * tau_e * tau_e))


def decay_factor(params: SystemParams, taus) -> np.ndarray:
    """D(tau) = -ln|<a>(tau)/alpha| under rotating-wave damping.

    D(tau) = g t/2 + (4 mu^2 I0/(4 mu^2 + g^2))
             [(1 - e^{-g t} cos 2 mu t) - (g/2 mu) e^{-g t} sin 2 mu t]
    """
    t = np.asarray(taus, dtype=float)
    mu, g, i0 = params.mu_bar, params.gamma, params.intensity
    lin = 0.5 * g * t
    if mu == 0.0:
        return lin + np.zeros_like(t)
    k = 0.5 * g / mu
    damp = np.exp(-g * t)
    osc = (1.0 - damp * np.cos(2.0 * mu * t)) - k * damp * np.sin(2.0 * mu * t)
    return lin + (i0 / (1.0 + k * k)) * osc


def line_weights(params: SystemParams, n_lines: int) -> np.ndarray:
    """Poisson weights e^{-I0} I0^n / n! of the level-frequency comb (I0 > 0,
    as validate_params requires)."""
    n = np.arange(n_lines, dtype=float)
    i0 = params.intensity
    return np.exp(-i0 + n * math.log(i0) - gammaln(n + 1.0))


def line_weights_quadrature(params: SystemParams, n_lines: int):
    """Line weights as period averages of the isolated phase factor.

    L(n) = (mu/pi) Int_0^{pi/mu} exp[(e^{2 i mu t} - 1) I0 - 2 i mu n t] dt,
    by composite Gauss-Legendre panels sized to the integrand's fastest
    phase: an independent route to line_weights. Returns the weights and a
    per-line error estimate (difference against a half-order rule).
    """
    mu, i0 = params.mu_bar, params.intensity
    if mu <= 0:
        raise ValueError("line weights need mu_bar > 0")
    period = math.pi / mu
    out = np.empty(n_lines)
    err = np.empty(n_lines)
    x, w = np.polynomial.legendre.leggauss(16)
    x8, w8 = np.polynomial.legendre.leggauss(8)

    def panel_sum(n, n_pan, nodes, weights):
        edges = np.linspace(0.0, period, n_pan + 1)
        a, b = edges[:-1][:, None], edges[1:][:, None]
        t = (0.5 * (a + b) + 0.5 * (b - a) * nodes[None, :]).ravel()
        wt = (0.5 * (b - a) * np.broadcast_to(weights, (n_pan, nodes.size))).ravel()
        f = np.exp((np.exp(2j * mu * t) - 1.0) * i0 - 2j * mu * n * t)
        return np.dot(f, wt) * (mu / math.pi)

    for n in range(n_lines):
        n_pan = max(40, int(2 * (i0 + n + 4)))
        val = panel_sum(n, n_pan, x, w)
        out[n] = val.real  # imaginary part cancels exactly over a full period
        err[n] = abs(val - panel_sum(n, n_pan, x8, w8))
    return out, err


def fourier_lines(params: SystemParams, n_lines: int):
    """Exact discrete spectrum of x_closed.

    Returns (omegas, amplitudes): omegas[n] = 1 + mu (1 + 2n) with uniform
    spacing 2 mu, amplitudes[n] = (conj(alpha)/sqrt(2)) L(n) with L the
    Poisson weight, so x(tau) = sum_n 2 Re[amplitudes[n] e^{i omegas[n] tau}].
    """
    n = np.arange(n_lines, dtype=float)
    omegas = 1.0 + params.mu_bar * (1.0 + 2.0 * n)
    amps = (np.conj(params.alpha) / math.sqrt(2.0)) * line_weights(params, n_lines)
    return omegas, amps


def reconstruct_lines(omegas: np.ndarray, amplitudes: np.ndarray, taus) -> np.ndarray:
    """Sum the line spectrum back into a time signal."""
    t = np.asarray(taus, dtype=float)
    phases = np.exp(1j * np.outer(t, omegas))
    return 2.0 * (phases @ amplitudes).real


def discrete_spectrum(taus, x, window: str | None = None):
    """One-sided amplitude spectrum of a uniformly sampled real signal.

    Returns (omegas, amplitudes) with omegas in angular frequency and
    amplitudes |X_k|/N, so an isolated line of the signal
    2 Re[A e^{i w t}] shows up with height about |A|. window=None keeps the
    plain rectangular transform; "hann" tapers the ends to push spectral
    leakage below slowly decaying sidelobes. The spacing is not checked:
    fit_position_spectrum checks its samples.
    """
    sig = np.asarray(x, dtype=float)
    if window == "hann":
        sig = sig * np.hanning(sig.size)
    dt = float(np.diff(np.asarray(taus, dtype=float)).mean())
    return 2.0 * math.pi * np.fft.rfftfreq(sig.size, d=dt), np.abs(np.fft.rfft(sig)) / sig.size


def gaussian_spectrum(params: SystemParams, omegas) -> np.ndarray:
    """Smooth large-I0 envelope of the line spectrum,

        x_w = x(0) (4 pi I0)^{-1/2} exp[-(w - w_cl)^2 / (2 dw^2)],

    centered on the orbit frequency w_cl = 1 + 2 mu I0 with width
    dw = 2 mu sqrt(I0) = 1/tau_e. Compare peak-normalized; it is a large-I0
    limit of the Poisson weights, so it warns for small I0.
    """
    w = np.asarray(omegas, dtype=float)
    i0 = params.intensity
    if i0 < 10.0:
        warnings.warn(
            f"gaussian_spectrum assumes I0 >> 1; got I0={i0:g}, the comb "
            "envelope is visibly skewed there",
            stacklevel=2,
        )
    w_cl = 1.0 + 2.0 * params.mu_bar * i0
    dw = 2.0 * params.mu_bar * math.sqrt(i0)
    x0 = math.sqrt(2.0) * (params.alpha.real)
    return x0 / math.sqrt(4.0 * math.pi * i0) * np.exp(-((w - w_cl) ** 2) / (2.0 * dw * dw))


def effective_frequency(params: SystemParams) -> float:
    """Cutoff-renormalized frequency sqrt(O^2 - g L^3/(L^2+O^2)) at omega_bar.

    Raises OverdampedError when the radicand is not positive.
    """
    o = params.omega_bar
    lam = params.lambda_bar
    rad = o * o - params.gamma * lam**3 / (lam * lam + o * o)
    if rad <= 0.0:
        raise OverdampedError(
            f"renormalized squared frequency {rad:g} <= 0 at omega={o:g}, "
            f"gamma={params.gamma:g}, lambda_bar={lam:g}"
        )
    return math.sqrt(rad)


@dataclass(frozen=True)
class RelaxationFit:
    """Exponential envelope fit of a classical ring-down."""

    decay_time: float
    amplitude: float
    residual_rms: float


def fit_recurrence_decay(peak_taus, peak_heights, tau_r: float) -> DecoherenceFit:
    """Coherence decay from the heights of successive revival bumps.

    Peaks are grouped by revival index round(tau/tau_r); each bump
    contributes its tallest peak, and ln(height) against the bump center is
    fit to a line. Needs at least two bumps; for decays too slow to kill a
    revival visibly, use the cat-overlap route.
    """
    t = np.asarray(peak_taus, dtype=float)
    h = np.asarray(peak_heights, dtype=float)
    if tau_r <= 0 or not math.isfinite(tau_r):
        raise ValueError(f"tau_r must be positive and finite, got {tau_r}")
    if t.size == 0:
        raise ValueError("no peaks supplied")
    k = np.rint(t / tau_r).astype(int)
    bumps = sorted(set(k.tolist()))
    if len(bumps) < 2:
        raise ValueError(
            "need at least two recurrence bumps to take a height ratio; "
            "integrate past tau_r, or use cat_offdiagonal_rate for decays "
            "too slow to suppress a revival measurably"
        )
    centers = np.array([b * tau_r for b in bumps])
    heights = np.array([h[k == b].max() for b in bumps])
    y = np.log(heights)
    design = np.stack([np.ones_like(centers), centers], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    rate = -coef[1]
    if rate <= 0:
        raise ValueError("recurrence heights do not decay")
    resid = y - design @ coef
    if len(bumps) > 2:
        # residual-based 1-sigma of the slope, propagated onto tau_d
        s_xx = float(np.sum((centers - centers.mean()) ** 2))
        sigma = math.sqrt(np.sum(resid**2) / (len(bumps) - 2) / s_xx)
        unc = sigma / rate**2
    else:
        unc = math.nan
    return DecoherenceFit(
        tau_d=1.0 / rate,
        rate=rate,
        method="peak-ratio",
        uncertainty=unc,
        n_points=len(bumps),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def fit_relaxation_decay(peak_taus, peak_heights) -> RelaxationFit:
    """Exponential fit ln(height) = ln(amplitude) - tau/decay_time.

    For classical-regime ring-downs where the envelope is a plain
    exponential; a window shorter than the fitted decay time warns.
    """
    t = np.asarray(peak_taus, dtype=float)
    h = np.asarray(peak_heights, dtype=float)
    if t.size < 4:
        raise ValueError(f"need at least 4 peaks, got {t.size}")
    y = np.log(h)
    design = np.stack([np.ones_like(t), t], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    if coef[1] >= 0:
        raise ValueError("peak heights do not decay")
    decay = -1.0 / coef[1]
    span = float(t.max() - t.min())
    if span < decay:
        warnings.warn(
            f"fit window ({span:g}) is shorter than the fitted decay time "
            f"({decay:g}); the estimate is extrapolated",
            stacklevel=2,
        )
    resid = y - design @ coef
    return RelaxationFit(
        decay_time=decay,
        amplitude=math.exp(coef[0]),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


def gaussian_residual(peak_taus, peak_heights, tau_e: float):
    """RMS log-residual of a fixed-width Gaussian envelope.

    Fits only the overall amplitude of exp(-tau^2/(2 tau_e^2)) to
    the peaks and returns the root-mean-square residual in ln(height): does
    a Gaussian of a prescribed width describe the data at all, against the
    exponential alternative of fit_relaxation_decay?
    """
    t = np.asarray(peak_taus, dtype=float)
    h = np.asarray(peak_heights, dtype=float)
    if t.size < 2:
        raise ValueError("need at least 2 peaks")
    if tau_e <= 0:
        raise ValueError(f"tau_e must be positive, got {tau_e}")
    r = np.log(h) + t**2 / (2.0 * tau_e * tau_e)
    return float(np.sqrt(np.mean((r - r.mean()) ** 2)))
