"""Closed-form amplitudes of the isolated and weakly damped anharmonic
oscillator, the references that `compare` and the oracle tests check the
integrators against.

For a coherent initial state |alpha>, alpha = sqrt(I0) e^{-i theta}, the
isolated evolution of the lowering-operator expectation is

    <a>(tau) = alpha exp[-i (1 + mu) tau] exp[I0 (e^{-2 i mu tau} - 1)],

a Poisson-weighted comb of level frequencies Omega_n = 1 + mu (1 + 2n).
Its envelope collapses on the scale tau_e = 1/(2 mu sqrt(I0)) and revives at
multiples of tau_r = pi/mu. Under number-conserving damping at rate gamma
(rotating-wave form) the expectation stays closed,

    <a>(tau) = alpha exp[-i (1 + mu) tau - gamma tau / 2]
               exp[-(I0 / (1 + k^2)) (1 + i k) (1 - e^{-gamma tau} e^{-2 i mu tau})],

with k = gamma / (2 mu).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .model import SystemParams


def alpha_closed(params: SystemParams, taus) -> np.ndarray:
    """Isolated <a>(tau) for a coherent initial state: the damped form at
    gamma = 0."""
    return alpha_lindblad_rwa(dataclasses.replace(params, gamma=0.0), taus)


def alpha_lindblad_rwa(params: SystemParams, taus) -> np.ndarray:
    """<a>(tau) under rotating-wave damping, closed form; ValueError where
    it is not finite (a phase past the float range)."""
    t = np.asarray(taus, dtype=float)
    mu, g, i0 = params.mu_bar, params.gamma, params.intensity
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        out = params.alpha * np.exp(-1j * (1.0 + mu) * t - 0.5 * g * t)
        if mu != 0.0:
            k = 0.5 * g / mu
            out = out * np.exp(
                -(i0 / (1.0 + k * k))
                * (1.0 + 1j * k)
                * (1.0 - np.exp(-g * t) * np.exp(-2j * mu * t))
            )
    if not np.isfinite(out).all():
        raise ValueError(f"<a>(tau) is not finite to tau = {np.max(t):g} at mu_bar = {mu:g} "
                         f"and gamma = {g:g}; shorten the record")
    return out
