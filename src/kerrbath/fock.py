"""Truncated Fock-space operators, coherent and cat states, expectations.

Everything here works on a finite number basis {|0>, ..., |n_max - 1>}.
Truncation is safe when the coherent amplitude's Poisson weight at the top
level is negligible; fock_cutoff picks n_max = ceil(I + 8 sqrt(I)) + 2,
about eight standard deviations above the mean occupation I.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln


def fock_cutoff(intensity: float) -> int:
    """Truncation size for states concentrated around occupation `intensity`."""
    if intensity < 0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    return int(math.ceil(intensity + 8.0 * math.sqrt(intensity))) + 2


class FockSpace:
    """Operator factory for a fixed truncation size.

    Operators are built once and cached; matrices are returned read-only so
    cached copies cannot be mutated by callers.
    """

    def __init__(self, n_max: int):
        if n_max < 1:
            raise ValueError(f"n_max must be positive, got {n_max}")
        self.n_max = int(n_max)
        n = np.arange(self.n_max)
        self._sqrt = np.sqrt(np.arange(1, self.n_max, dtype=float))
        a = np.zeros((self.n_max, self.n_max))
        a[np.arange(self.n_max - 1), np.arange(1, self.n_max)] = self._sqrt
        self._a = a
        self._adag = a.T.copy()
        self._num = np.diag(n.astype(float))
        self._x = (a + a.T) / math.sqrt(2.0)
        for m in (self._a, self._adag, self._num, self._x):
            m.setflags(write=False)

    @property
    def a(self) -> np.ndarray:
        return self._a

    @property
    def adag(self) -> np.ndarray:
        return self._adag

    @property
    def num(self) -> np.ndarray:
        return self._num

    @property
    def x(self) -> np.ndarray:
        """Position quadrature (a + a^dag)/sqrt(2)."""
        return self._x

    def energies(self, mu_bar: float) -> np.ndarray:
        """Level energies n + mu * n^2 of the anharmonic Hamiltonian."""
        n = np.arange(self.n_max, dtype=float)
        return n + mu_bar * n * n


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
    log_mag = -0.5 * r * r + n * math.log(r) - 0.5 * gammaln(n + 1.0)
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
    """Density matrix of |alpha><alpha| in the truncated basis, renormalized."""
    _check_truncation([alpha], n_max)
    v = coherent_amplitudes(alpha, n_max)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def cat_state_density(alpha: complex, beta: complex, n_max: int) -> np.ndarray:
    """Density matrix of the normalized superposition (|alpha> + |beta>)/norm.

    The normalization uses <alpha|beta> = exp(-|a|^2/2 - |b|^2/2 + a* b).
    """
    _check_truncation([alpha, beta], n_max)
    va = coherent_amplitudes(alpha, n_max)
    vb = coherent_amplitudes(beta, n_max)
    v = va + vb
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def coherent_overlap(rho: np.ndarray, alpha: complex, beta: complex) -> complex:
    """Matrix element <alpha| rho |beta> in the truncated basis."""
    n_max = rho.shape[0]
    va = coherent_amplitudes(alpha, n_max)
    vb = coherent_amplitudes(beta, n_max)
    return complex(va.conj() @ rho @ vb)


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """tr(op rho)."""
    return complex(np.sum(op.T * rho))


def expect_a(rho: np.ndarray) -> complex:
    """tr(a rho) using the single nonzero diagonal of the lowering operator."""
    n_max = rho.shape[0]
    s = np.sqrt(np.arange(1, n_max, dtype=float))
    return complex(np.sum(s * np.diagonal(rho, -1)))


def expect_x(rho: np.ndarray) -> float:
    """tr(x rho) = sqrt(2) Re tr(a rho) for Hermitian rho."""
    return math.sqrt(2.0) * expect_a(rho).real


def expect_n(rho: np.ndarray) -> float:
    """tr(n rho) for Hermitian rho."""
    return float(np.sum(np.arange(rho.shape[0]) * np.diagonal(rho).real))


def density_diagnostics(rho: np.ndarray, eigs: bool = False) -> dict:
    """Trace, Hermiticity defect, top-level population, optionally min eigenvalue."""
    tr = complex(np.trace(rho))
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    top = float(np.max(np.abs(np.diagonal(rho).real[-3:])))
    out = {
        "trace": tr,
        "herm_defect": herm,
        "top_population": top,
    }
    if eigs:
        w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        out["min_eig"] = float(w.min())
    return out
