"""Fitting utilities that turn sampled trajectories into the handful of
numbers the model predicts: the envelope collapse time tau_e, the
decoherence time tau_d of a superposition, and the spectral envelope width.

All fitters work on peak sequences or spectra in log space, where every
model here is linear or quadratic and the fits stay closed-form least
squares. Nothing is iterative, so results are exactly reproducible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .model import SystemParams


@dataclass(frozen=True)
class BumpFit:
    """Gaussian envelope fit of one collapse/revival bump."""

    tau_e: float
    center: float
    height: float
    n_peaks: int
    residual_rms: float


@dataclass(frozen=True)
class DecoherenceFit:
    """Fitted coherence-decay time with its extraction route.

    method names the route: "cat-overlap" (exponential fit of the
    off-diagonal element of a two-component superposition,
    cat_offdiagonal_rate) or "modulated" (the same element fitted through
    its orbital modulation, overlap_rate_modulated). The test suite's
    analytic oracle adds "peak-ratio" (recurrence heights,
    fit_recurrence_decay).
    uncertainty is the 1-sigma propagation of the least-squares residual
    onto tau_d; nan when the fit has no spare degrees of freedom.
    """

    tau_d: float
    rate: float
    method: str
    uncertainty: float
    n_points: int
    residual_rms: float


@dataclass(frozen=True)
class SpectrumFit:
    """Gaussian fit of the dominant spectral lobe, on every bin given or (route
    "comb") on one peak per resolved comb line."""

    center: float
    width: float
    tau_e_estimate: float
    n_bins: int
    residual_rms: float
    route: str = "bins"


# ---------------------------------------------------------------------------
# peak extraction


def extract_envelope_peaks(taus, x, floor_frac: float = 1e-3):
    """Local maxima of |x| with parabolic sub-sample refinement.

    Maxima below floor_frac times the global maximum are dropped; that
    removes the numerical noise floor between collapsed revivals. Returns
    (peak_taus, peak_heights) as float arrays.
    """
    t = np.asarray(taus, dtype=float)
    y = np.abs(np.asarray(x))
    if t.size != y.size:
        raise ValueError("taus and x must have the same length")
    if t.size < 3:
        return np.empty(0), np.empty(0)
    floor = floor_frac * float(y.max())
    core = y[1:-1]
    mask = (core > y[:-2]) & (core >= y[2:]) & (core > floor)
    idx = np.nonzero(mask)[0] + 1
    if idx.size == 0:
        return np.empty(0), np.empty(0)
    ym, y0, yp = y[idx - 1], y[idx], y[idx + 1]
    tm, t0, tp = t[idx - 1], t[idx], t[idx + 1]
    curv = ym - 2.0 * y0 + yp
    # parabola apex through the three samples; falls back to the grid point
    # for degenerate (flat) neighborhoods
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(curv < 0, 0.25 * (ym - yp) * (tp - tm) / curv, 0.0)
        height = np.where(curv < 0, y0 - 0.125 * (ym - yp) ** 2 / curv, y0)
    shift = np.clip(shift, tm - t0, tp - t0)
    return t0 + shift, np.maximum(height, y0)


def _lstsq(design, y):
    """Least-squares fit of y to design @ coef: the coefficients, the
    residual rms and the coefficient covariance, None when the fit has no
    spare degrees of freedom."""
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = y.size - design.shape[1]
    cov = np.linalg.inv(design.T @ design) * (np.sum(resid**2) / dof) if dof > 0 else None
    return coef, float(np.sqrt(np.mean(resid**2))), cov


# ---------------------------------------------------------------------------
# envelope fits


def fit_ehrenfest_bump(peak_taus, peak_heights, tau_r: float = math.inf) -> BumpFit:
    """Fit ln(height) = const - tau^2 / (2 tau_e^2) on the first bump.

    The center is pinned to tau = 0 (the revival comb is set by the level
    curvature, not by the fit). Peaks outside [-tau_r/2, tau_r/2] are
    ignored when tau_r is finite. Needs at least 5 peaks across the bump.
    """
    t = np.asarray(peak_taus, dtype=float)
    h = np.asarray(peak_heights, dtype=float)
    if math.isfinite(tau_r):
        keep = np.abs(t) <= 0.5 * tau_r
        t, h = t[keep], h[keep]
    if t.size < 5:
        raise ValueError(
            f"need at least 5 peaks across the bump, got {t.size}; "
            "sample more densely or widen the window"
        )
    y = np.log(h)
    s = t * t
    coef, rms, _ = _lstsq(np.stack([np.ones_like(s), s], axis=1), y)
    if coef[1] >= 0:
        raise ValueError("peak heights are not bump-shaped (no curvature)")
    return BumpFit(
        tau_e=1.0 / math.sqrt(-2.0 * coef[1]),
        center=0.0,
        height=math.exp(coef[0]),
        n_peaks=int(t.size),
        residual_rms=rms,
    )


# ---------------------------------------------------------------------------
# spectra


def _transform(taus, x, window: str | None):
    """Angular frequencies, rfft and length of a uniformly sampled signal."""
    t = np.asarray(taus, dtype=float)
    sig = np.asarray(x, dtype=float)
    if t.size != sig.size:
        raise ValueError("taus and x must have the same length")
    if t.size < 8:
        raise ValueError("need at least 8 samples")
    steps = np.diff(t)
    dt = float(steps.mean())
    if dt <= 0 or float(np.ptp(steps)) > 1e-9 * dt:
        raise ValueError("samples must be uniformly spaced in tau")
    if window == "hann":
        sig = sig * np.hanning(sig.size)
    elif window is not None:
        raise ValueError(f"unknown window {window!r}, expected None or 'hann'")
    return 2.0 * math.pi * np.fft.rfftfreq(sig.size, d=dt), np.fft.rfft(sig), sig.size


def discrete_spectrum(taus, x, window: str | None = None):
    """One-sided amplitude spectrum of a uniformly sampled real signal.

    Returns (omegas, amplitudes) with omegas in angular frequency and
    amplitudes |X_k|/N, so an isolated line of the signal
    2 Re[A e^{i w t}] shows up with height about |A|. window=None keeps the
    plain rectangular transform; "hann" tapers the ends to push spectral
    leakage below slowly decaying sidelobes.
    """
    omegas, spec, n = _transform(taus, x, window)
    return omegas, np.abs(spec) / n


def fit_position_spectrum(taus, x, theta: float, window: str | None = None):
    """The position spectrum of a run and the Gaussian width of its envelope.

    x is the position recorded over whole recurrence periods from tau = 0,
    the crest of the first bump, where the start has phase theta. Returns
    (omegas, amps, fit): amps is |X_k|/N as in discrete_spectrum, and fit is
    fit_spectral_width on the aligned quadrature Re(X_k e^{-i theta})/N.
    Each line bin of x = sqrt(2) sum_n w_n cos(Omega_n tau + theta) carries
    e^{+i theta}, so that quadrature is half the two-sided transform of an
    even envelope at any theta. |X| is that too only while the half-bumps at
    the record's ends join cyclically. Damping breaks the join, and |X| then
    has the Dawson wings of a one-sided bump: at mu = 0.1, I0 = 50,
    Lambda = 100, 4096 samples and gamma = 1e-5, 1e-4, 1e-3, 1e-2, |X| gives
    widths 1.414, 1.848, 2.458, 2.386 against 1.409, 1.432, 1.419, 1.363.
    The fit takes the comb peaks (route "comb") while the recurrences resolve
    the comb, and every bin (route "bins") once they do not.
    """
    omegas, spec, n = _transform(taus, x, window)
    amps = np.abs(spec) / n
    quad = (spec * np.exp(-1j * theta)).real / n
    try:
        # no floor: the width fit keeps only peaks above half its maximum
        fit = fit_spectral_width(*extract_envelope_peaks(omegas, quad, floor_frac=0.0))
    except ValueError:
        return omegas, amps, fit_spectral_width(omegas, quad)
    return omegas, amps, replace(fit, route="comb")


def fit_spectral_width(omegas, amps) -> SpectrumFit:
    """Gaussian fit of the dominant lobe of a spectrum.

    Keeps the contiguous run of points at or above half the global maximum
    that contains the maximum, fits ln(amplitude) to a parabola in
    omega, and reports its apex (center) and standard-deviation width; the
    inverse width estimates the collapse time tau_e. Warns if points
    outside the dominant lobe also reach above the threshold (multi-modal
    spectrum, the single-lobe numbers are then suspect). Needs at least 7
    points across the lobe.
    """
    w = np.asarray(omegas, dtype=float)
    a = np.asarray(amps, dtype=float)
    if w.size != a.size or w.size == 0:
        raise ValueError("omegas and amps must be equal-length, non-empty")
    i_max = int(np.argmax(a))
    thresh = 0.5 * a[i_max]
    above = a >= thresh
    lo = i_max
    while lo > 0 and above[lo - 1]:
        lo -= 1
    hi = i_max
    while hi < w.size - 1 and above[hi + 1]:
        hi += 1
    lobe = slice(lo, hi + 1)
    n_bins = hi - lo + 1
    if bool(np.any(above[:lo])) or bool(np.any(above[hi + 1:])):
        warnings.warn(
            "spectrum has secondary structure above half maximum outside the "
            "dominant lobe; single-lobe width and center may be misleading",
            stacklevel=2,
        )
    if n_bins < 7:
        raise ValueError(
            f"only {n_bins} points resolve the dominant lobe, need at least "
            "7; sample a longer time window for finer frequency bins"
        )
    ww, y = w[lobe], np.log(a[lobe])
    coef = np.polynomial.polynomial.polyfit(ww, y, 2)
    if coef[2] >= 0:
        raise ValueError("dominant lobe is not peak-shaped in log amplitude")
    width = 1.0 / math.sqrt(-2.0 * coef[2])
    center = -0.5 * coef[1] / coef[2]
    resid = y - np.polynomial.polynomial.polyval(ww, coef)
    return SpectrumFit(
        center=center,
        width=width,
        tau_e_estimate=1.0 / width,
        n_bins=n_bins,
        residual_rms=float(np.sqrt(np.mean(resid**2))),
    )


# ---------------------------------------------------------------------------
# superposition decoherence


def cat_offdiagonal_rate(taus, overlap, t_min: float | None = None) -> DecoherenceFit:
    """Decay rate of the co-moving off-diagonal coherence of a superposition.

    Fits ln|overlap| to const - rate*tau + drift*tau^2 from t_min (default:
    5% into the record) to the end; the quadratic drift term absorbs slow
    separation shrinkage and coefficient settling.
    tau_d = 1/rate is the e-folding lifetime of the coherence at the
    separation the overlap was recorded with; to compare against the
    decoherence time of a size-sqrt(I0) superposition, scale it by
    (dx)^2/I0 (see scale_tau_d_to_intensity).
    """
    t = np.asarray(taus, dtype=float)
    f = np.abs(np.asarray(overlap, dtype=complex))
    if t.size != f.size:
        raise ValueError("taus and overlap must have the same length")
    lo = t_min if t_min is not None else t[0] + 0.05 * (t[-1] - t[0])
    keep = (t >= lo) & (f > 0)
    t, f = t[keep], f[keep]
    if t.size < 4:
        raise ValueError(f"need at least 4 usable samples, got {t.size}")
    y = np.log(f)
    coef, rms, cov = _lstsq(np.stack([np.ones_like(t), t, t * t], axis=1), y)
    rate = -coef[1]
    if rate <= 0:
        raise ValueError("overlap magnitude does not decay over the window")
    return DecoherenceFit(
        tau_d=1.0 / rate,
        rate=rate,
        method="cat-overlap",
        uncertainty=math.nan if cov is None else math.sqrt(cov[1, 1]) / rate**2,
        n_points=int(t.size),
        residual_rms=rms,
    )


def overlap_rate_modulated(taus, overlap, omega: float, theta0: float) -> DecoherenceFit:
    """Secular decay rate fitted through the known orbital modulation.

    For a rigidly rotating pair whose chord starts at angle theta0 from the
    x axis, the accumulated decay exponent under a position coupling is a
    combination of the two quadrature integrals

        f(t) = t/2 + [sin(2 theta0) - sin(2 theta0 -+ 2 omega t)] / (4 omega)
        g(t) = [cos(2 theta0 -+ 2 omega t) - cos(2 theta0)] / (4 omega)

    (the sign ambiguity of the rotation direction flips g, which the fit
    absorbs into its free coefficient, and leaves f unchanged). Fitting
    ln|overlap| = c - A f(t) - B g(t) over a window shorter than a couple
    of coherence lifetimes separates the secular rate A/2 from the
    modulation without requiring the window to cover whole periods, so
    one fit serves coherence that dies deep inside a period and coherence
    that outlives many. Every sample is used whose envelope is above 1e-12,
    where its logarithm is still resolved.
    """
    t = np.asarray(taus, dtype=float)
    env = np.abs(np.asarray(overlap, dtype=complex))
    if t.size != env.size:
        raise ValueError("taus and overlap must have the same length")
    keep = env > 1e-12
    t, env = t[keep], env[keep]
    if t.size < 8:
        raise ValueError(f"need at least 8 usable samples, got {t.size}")
    two = 2.0 * theta0
    f = 0.5 * t + (math.sin(two) - np.sin(two - 2.0 * omega * t)) / (4.0 * omega)
    g = (np.cos(two - 2.0 * omega * t) - math.cos(two)) / (4.0 * omega)
    coef, rms, cov = _lstsq(np.stack([np.ones_like(t), f, g], axis=1), np.log(env))
    rate = -0.5 * coef[1]
    if rate <= 0:
        raise ValueError("overlap magnitude does not decay over the window")
    return DecoherenceFit(
        tau_d=1.0 / rate,
        rate=rate,
        method="modulated",
        uncertainty=math.nan if cov is None else 0.5 * math.sqrt(cov[1, 1]) / rate**2,
        n_points=int(t.size),
        residual_rms=rms,
    )


def predicted_overlap_rate(params: SystemParams, delta_x: float) -> float:
    """Orbit-averaged decay rate 2 B1(Omega_bar) (dx)^2 of the coherence.

    A superposition of coherent states separated by dx decoheres, once the
    orbital rotation of the separation direction is averaged over, at
    2 B1 (dx)^2 under the position-coupled generator; at dx = sqrt(I0) this
    reproduces the analytic decoherence rate I0 gamma Omega_bar
    coth(beta Omega_bar / 2).
    """
    from .kernels import asymptotic_b1_at

    return 2.0 * asymptotic_b1_at(params, params.omega_bar) * delta_x * delta_x


def scale_tau_d_to_intensity(tau_d: float, delta_x: float, intensity: float) -> float:
    """Rescale a separation-dx decoherence time to a size-sqrt(I0) one.

    Rates grow with the squared separation, so
    tau_d(I0) = tau_d(dx) * dx^2 / I0.
    """
    if intensity <= 0:
        raise ValueError(f"intensity must be positive, got {intensity}")
    return tau_d * delta_x * delta_x / intensity
