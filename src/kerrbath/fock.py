"""Coherent and cat states in a truncated Fock space.

Everything here works on a finite number basis {|0>, ..., |n_max - 1>}.
The module builds states only, no operator matrices: the propagation works
on the ladder bands directly. Truncation is safe when the coherent
amplitude's Poisson weight at the top level is negligible; fock_cutoff
picks n_max = ceil(I + 8 sqrt(I)) + 2, about eight standard deviations
above the mean occupation I.
"""

from __future__ import annotations

import math

import numpy as np


def fock_cutoff(intensity: float) -> int:
    """Truncation size for states concentrated around occupation `intensity`,
    which must be non-negative and finite (ValueError)."""
    if not 0 <= intensity < math.inf:
        raise ValueError(f"intensity must be non-negative and finite, got {intensity}")
    return int(math.ceil(intensity + 8.0 * math.sqrt(intensity))) + 2


def coherent_amplitudes(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis amplitudes of |alpha>, e^{-|a|^2/2} a^n / sqrt(n!).

    Evaluated in log space so large |alpha| cannot overflow the factorial.
    """
    n = np.arange(n_max)
    if alpha == 0:
        v = np.zeros(n_max, dtype=complex)
        v[0] = 1.0
        return v
    r = abs(alpha)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_max)])
    log_mag = -0.5 * r * r + n * math.log(r) - 0.5 * log_fact
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mag) * phase


def _check_truncation(alphas, n_max: int) -> None:
    need = max(fock_cutoff(abs(a) ** 2) for a in alphas)
    if n_max < need:
        worst = max(abs(a) for a in alphas)
        raise ValueError(
            f"n_max={n_max} cannot hold a coherent state with |alpha|={worst:g}; "
            f"need at least n_max={need}"
        )


def coherent_state_density(alpha: complex, n_max: int) -> np.ndarray:
    """Density matrix of |alpha><alpha| in the truncated basis, renormalized:
    the cat state of two equal lobes."""
    return cat_state_density(alpha, alpha, n_max)


def cat_state_density(alpha: complex, beta: complex, n_max: int) -> np.ndarray:
    """Density matrix of the normalized superposition (|alpha> + |beta>)/norm.

    The normalization uses <alpha|beta> = exp(-|a|^2/2 - |b|^2/2 + a* b).
    Both amplitudes must be finite (ValueError).
    """
    for name, a in (("alpha", alpha), ("beta", beta)):
        if not np.isfinite(a):
            raise ValueError(f"{name} must be finite, got {a}")
    _check_truncation([alpha, beta], n_max)
    va = coherent_amplitudes(alpha, n_max)
    vb = coherent_amplitudes(beta, n_max)
    v = va + vb
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())
