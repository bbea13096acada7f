"""Dense reference right-hand sides and observables, kept as a test oracle.

The package propagates with a banded O(n_max^2) kernel in the co-moving
frame. These are the same generators written naively as full matrix
products, for small systems, so the tests can pin the banded kernel against
them, plus the level energies, the lowering operator, the expectations read
off a density matrix, and a fixed-step RK4 that integrates the dense
generators in the lab frame, free term included, as an independent
reference for the package's runs.
"""

from __future__ import annotations

import math

import numpy as np

from kerrbath import BathCoefficients, SystemParams, asymptotic_coefficients, coherent_amplitudes


def energies(n_max: int, mu_bar: float) -> np.ndarray:
    """Level energies n + mu n^2 of the anharmonic Hamiltonian."""
    n = np.arange(n_max, dtype=float)
    return n + mu_bar * n * n


def lowering(n_max: int) -> np.ndarray:
    """The lowering operator a, <n-1|a|n> = sqrt(n), as a dense matrix."""
    return np.diag(np.sqrt(np.arange(1, n_max, dtype=float)), 1)


def expect_a(rho: np.ndarray) -> complex:
    """tr(a rho) from the single nonzero diagonal of the lowering operator."""
    s = np.sqrt(np.arange(1, rho.shape[0], dtype=float))
    return complex(np.sum(s * np.diagonal(rho, -1)))


def expect_x(rho: np.ndarray) -> float:
    """tr(x rho) = sqrt(2) Re tr(a rho) for Hermitian rho."""
    return math.sqrt(2.0) * expect_a(rho).real


def expect_n(rho: np.ndarray) -> float:
    """tr(n rho) for Hermitian rho."""
    return float(np.sum(np.arange(rho.shape[0]) * np.diagonal(rho).real))


def coherent_overlap(rho: np.ndarray, alpha: complex, beta: complex) -> complex:
    """Matrix element <alpha| rho |beta> in the truncated basis."""
    n_max = rho.shape[0]
    va = coherent_amplitudes(alpha, n_max)
    vb = coherent_amplitudes(beta, n_max)
    return complex(va.conj() @ rho @ vb)


def free_rhs(params: SystemParams, rho: np.ndarray) -> np.ndarray:
    """-i [n + mu n^2, rho] as an elementwise phase generator."""
    e = energies(rho.shape[0], params.mu_bar)
    return -1j * (e[:, None] - e[None, :]) * rho


def dense_bath_operators(coeffs: BathCoefficients):
    """Full matrices X, S_A, S_B for a coefficient set."""
    n_max = coeffs.omegas.size
    s = np.sqrt(np.arange(1, n_max, dtype=float))
    x = np.diag(s, 1) + np.diag(s, -1)
    su_a = s * (coeffs.a1[:-1] + 1j * coeffs.a2[:-1])
    su_b = s * (coeffs.b1[:-1] + 1j * coeffs.b2[:-1])
    s_a = np.diag(su_a, 1) + np.diag(su_a.conj(), -1)
    s_b = np.diag(su_b, 1) + np.diag(su_b.conj(), -1)
    return x, s_a, s_b


def born_markov_rhs(
    params: SystemParams, rho: np.ndarray, coeffs: BathCoefficients
) -> np.ndarray:
    """Dense reference of the full Born-Markov right-hand side."""
    x, s_a, s_b = dense_bath_operators(coeffs)
    anti = s_a @ rho + rho @ s_a
    comm = s_b @ rho - rho @ s_b
    out = free_rhs(params, rho)
    out += 0.5j * (x @ anti - anti @ x)
    out -= 0.5 * (x @ comm - comm @ x)
    return out


def lindblad_rhs(params: SystemParams, rho: np.ndarray) -> np.ndarray:
    """Dense reference of the rotating-wave damping right-hand side."""
    n_max = rho.shape[0]
    g = params.gamma
    n = np.arange(n_max, dtype=float)
    out = free_rhs(params, rho)
    out -= 0.5 * g * (n[:, None] + n[None, :]) * rho
    s = np.sqrt(np.arange(1, n_max, dtype=float))
    out[:-1, :-1] += g * (s[:, None] * s[None, :]) * rho[1:, 1:]
    return out


def lab_rk4(params: SystemParams, mode: str, rho0: np.ndarray, tau_end: float,
            n_steps: int, every: int = 1) -> dict:
    """Classical RK4 in the lab frame at the fixed step tau_end/n_steps, on
    the dense generator of mode with its free term: born_markov_rhs with the
    asymptotic coefficients, or lindblad_rhs for "lindblad-rwa". Returns
    {k: state after k steps} for k = 0, every, 2 every, ... and n_steps."""
    if mode == "born-markov-asymptotic":
        coeffs = asymptotic_coefficients(params, rho0.shape[0])

        def rhs(rho):
            return born_markov_rhs(params, rho, coeffs)
    elif mode == "lindblad-rwa":
        def rhs(rho):
            return lindblad_rhs(params, rho)
    else:
        raise ValueError(f"no dense lab-frame generator for mode {mode!r}")
    h = tau_end / n_steps
    rho = np.array(rho0, dtype=complex)
    states = {0: rho.copy()}
    for k in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h * k1)
        k3 = rhs(rho + 0.5 * h * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % every == 0 or k == n_steps:
            states[k] = rho
    return states
