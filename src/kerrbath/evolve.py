"""Density-matrix propagation for the damped anharmonic oscillator.

Four evolution modes:

  "closed"                  isolated dynamics; the Hamiltonian is diagonal in
                            the number basis, so the propagation is an exact
                            elementwise phase rotation, no time stepping.
  "born-markov-asymptotic"  second-order (Born-Markov) master equation with
                            the bath coefficients frozen at their long-time
                            values. Started from a product state (the
                            default coherent start is one) it does not
                            preserve positivity before the coefficient
                            settle time: the frozen generator is not
                            completely positive, and its initial slip can
                            drive small negative eigenvalues that recover
                            within that window. Use "born-markov-transient"
                            for such starts when the early window matters.
  "born-markov-transient"   same equation with time-dependent coefficients,
                            tabulated over the settling window and linearly
                            interpolated at every integrator stage.
  "lindblad-rwa"            rotating-wave damping with lowering operator a,
                            the standard quantum-optical limit.

The Born-Markov right-hand side is

    d rho/d tau = -i [n + mu n^2, rho]
                  + (i/2) [X, {S_A, rho}] - (1/2) [X, [S_B, rho]],

with X = a + a^dag and the level-resolved coefficient operators

    S_A = sum_n sqrt(n+1) (A1_n + i A2_n) |n><n+1| + h.c.
    S_B = sum_n sqrt(n+1) (B1_n + i B2_n) |n><n+1| + h.c.

Using M = P rho + rho Q with P = (i S_A - S_B)/2 and Q = (i S_A + S_B)/2 the
bath term collapses to the single commutator [X, M]; M^dag = -M keeps rho
Hermitian and tr[X, M] = 0 keeps the trace exactly conserved by the flow.
All operators are tridiagonal, so one right-hand side costs O(n_max^2).

Time stepping is classical fixed-step RK4. In the lab frame the step is
capped by the largest level-energy difference in the truncated space (corner
coherences rotate at that rate and must stay inside the stability region) and
by the envelope timescale tau_e.

For strongly anharmonic parameters that cap becomes punishing: the corner
coherence rotates at E_top - E_0 ~ mu n_max^2 while the physics of interest
drifts at bath rates ~ gamma. frame="rotating" removes the free rotation
analytically: rho_tilde = e^{iHt} rho e^{-iHt} obeys a bath-only equation in
which the ladder diagonals carry explicit phases e^{-i Omega_n t} with
Omega_n = E_{n+1} - E_n. The integrator then only has to resolve those
oscillating coefficients (frequencies up to ~2 Omega_top, linear in n_max
instead of quadratic), and the state itself moves slowly. Both born-markov
modes support it; recorded observables are always reported in the lab frame.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .kernels import BathCoefficients, asymptotic_coefficients, coefficient_tables
from .model import SystemParams, derive_timescales

MODES = (
    "closed",
    "born-markov-asymptotic",
    "born-markov-transient",
    "lindblad-rwa",
)


class IntegrationError(RuntimeError):
    """Raised when the propagation produces non-finite or unphysical state."""


class TruncationLeakWarning(UserWarning):
    """Population reached the top of the truncated basis."""


@dataclass
class IntegratorConfig:
    """Knobs for the RK4 propagation.

    dtau None picks min(1/(E_top - E_0), tau_e/200) in the lab frame and
    0.05/Omega_top in the rotating frame; stride None aims for about 4000
    stored samples. overlap_pair (alpha, beta) records a coherence envelope
    for that superposition: with rho~ the co-moving state e^{iHt} rho e^{-iHt}
    and W_nm = conj(alpha_n) beta_m, the envelope is sum_j |sum over the j-th
    diagonal of W*rho~|. It equals 1 for the pure lobe |alpha><beta|, is
    exactly invariant under rigid phase-space rotation of the state (each
    diagonal only picks up a common phase), and decays at the bath's
    off-diagonal damping rate, so slow bath-induced frequency shifts do not
    masquerade as decoherence. frame is "lab" or "rotating" (born-markov
    only).
    """

    dtau: float | None = None
    stride: int | None = None
    closed_samples: int = 2001
    snapshot_taus: tuple[float, ...] = ()
    overlap_pair: tuple[complex, complex] | None = None
    record_min_eig: bool = False
    transient_table_points: int = 512
    max_steps: int = 20_000_000
    frame: str = "lab"


@dataclass
class Trajectory:
    """Sampled observables of one propagation run.

    All stored quantities are lab-frame regardless of the integration frame;
    frame only records which stepping path produced them. energy_expect is
    <n + mu n^2>, conserved exactly by the closed flow. overlap, when an
    overlap_pair was requested, is the real coherence envelope of that pair
    (see IntegratorConfig), 1 at tau=0 for the pure off-diagonal lobe and
    rotation-invariant thereafter.
    """

    taus: np.ndarray
    a_expect: np.ndarray
    n_expect: np.ndarray
    energy_expect: np.ndarray
    trace: np.ndarray
    herm_defect: np.ndarray
    top_population: np.ndarray
    mode: str
    n_max: int
    dtau: float
    frame: str = "lab"
    overlap: np.ndarray | None = None
    min_eig: np.ndarray | None = None
    snapshots: dict = field(default_factory=dict)
    final_rho: np.ndarray | None = None

    @property
    def x(self) -> np.ndarray:
        """Position expectation sqrt(2) Re <a>."""
        return math.sqrt(2.0) * self.a_expect.real


# ---------------------------------------------------------------------------
# dense reference right-hand sides (small systems, used to pin down the fast
# banded path in tests)


def free_rhs(params: SystemParams, rho: np.ndarray) -> np.ndarray:
    """-i [n + mu n^2, rho] as an elementwise phase generator."""
    e = fock.FockSpace(rho.shape[0]).energies(params.mu_bar)
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


# ---------------------------------------------------------------------------
# banded fast path


class _BandedRHS:
    """O(n^2) right-hand side with preallocated work buffers.

    The bath enters as [X, M] with M = P rho + rho Q; P and Q are
    tridiagonal with zero main diagonal, X is the symmetric ladder band.

    In the rotating frame the free term drops out and every upper ladder
    diagonal picks up the phase e^{-i Omega_n t} (lower diagonals the
    conjugate); set_time installs the modulated bands for the current RK4
    stage. X is then no longer symmetric, so the commutator uses separate
    upper/lower bands.
    """

    def __init__(self, params: SystemParams, n_max: int, mode: str, rotating=False):
        self.params = params
        self.n_max = n_max
        self.mode = mode
        self.rotating = rotating
        e = fock.FockSpace(n_max).energies(params.mu_bar)
        self.l_free = -1j * (e[:, None] - e[None, :])
        self.xsd = np.sqrt(np.arange(1, n_max, dtype=float))
        self.omega_sd = np.diff(e)
        self._m = np.empty((n_max, n_max), dtype=complex)
        self.pu = self.pl = self.qu = self.ql = None
        if rotating:
            k = n_max - 1
            self._ph = np.empty(k, dtype=complex)
            self.pu_t = np.empty(k, dtype=complex)
            self.pl_t = np.empty(k, dtype=complex)
            self.qu_t = np.empty(k, dtype=complex)
            self.ql_t = np.empty(k, dtype=complex)
            self.xu_t = np.empty(k, dtype=complex)
            self.xl_t = np.empty(k, dtype=complex)
        if mode == "lindblad-rwa" and params.gamma > 0:
            n = np.arange(n_max, dtype=float)
            self.l_free = self.l_free - 0.5 * params.gamma * (n[:, None] + n[None, :])
            self.gain = params.gamma * (self.xsd[:, None] * self.xsd[None, :])
        else:
            self.gain = None

    def set_coefficients(self, a1, a2, b1, b2) -> None:
        """Install level-resolved bath coefficients (arrays over levels)."""
        su_a = self.xsd * (a1[:-1] + 1j * a2[:-1])
        su_b = self.xsd * (b1[:-1] + 1j * b2[:-1])
        self.pu = 0.5 * (1j * su_a - su_b)
        self.pl = 0.5 * (1j * su_a.conj() - su_b.conj())
        self.qu = 0.5 * (1j * su_a + su_b)
        self.ql = 0.5 * (1j * su_a.conj() + su_b.conj())

    def set_time(self, tau: float) -> None:
        """Modulate the bands with the interaction-picture phases at tau."""
        if self.pu is None:
            return
        ph = self._ph
        np.exp(-1j * self.omega_sd * tau, out=ph)
        conj = ph.conj()
        np.multiply(self.pu, ph, out=self.pu_t)
        np.multiply(self.pl, conj, out=self.pl_t)
        np.multiply(self.qu, ph, out=self.qu_t)
        np.multiply(self.ql, conj, out=self.ql_t)
        np.multiply(self.xsd, ph, out=self.xu_t)
        np.multiply(self.xsd, conj, out=self.xl_t)

    def __call__(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.rotating:
            return self._apply_rotating(rho, out)
        np.multiply(self.l_free, rho, out=out)
        if self.gain is not None:
            out[:-1, :-1] += self.gain * rho[1:, 1:]
            return out
        if self.pu is None:
            return out
        m = self._m
        xsd = self.xsd
        m[:-1, :] = self.pu[:, None] * rho[1:, :]
        m[-1, :] = 0.0
        m[1:, :] += self.pl[:, None] * rho[:-1, :]
        m[:, 1:] += rho[:, :-1] * self.qu[None, :]
        m[:, :-1] += rho[:, 1:] * self.ql[None, :]
        out[:-1, :] += xsd[:, None] * m[1:, :]
        out[1:, :] += xsd[:, None] * m[:-1, :]
        out[:, 1:] -= m[:, :-1] * xsd[None, :]
        out[:, :-1] -= m[:, 1:] * xsd[None, :]
        return out

    def _apply_rotating(self, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        if self.pu is None:
            out[:] = 0.0
            return out
        m = self._m
        m[:-1, :] = self.pu_t[:, None] * rho[1:, :]
        m[-1, :] = 0.0
        m[1:, :] += self.pl_t[:, None] * rho[:-1, :]
        m[:, 1:] += rho[:, :-1] * self.qu_t[None, :]
        m[:, :-1] += rho[:, 1:] * self.ql_t[None, :]
        out[:] = 0.0
        out[:-1, :] += self.xu_t[:, None] * m[1:, :]
        out[1:, :] += self.xl_t[:, None] * m[:-1, :]
        out[:, 1:] -= m[:, :-1] * self.xu_t[None, :]
        out[:, :-1] -= m[:, 1:] * self.xl_t[None, :]
        return out


def coefficient_settle_time(params: SystemParams) -> float:
    """Time after which the finite-time bath coefficients have settled.

    The kernels decay on the cutoff scale 1/Lambda and on the slowest
    Matsubara scale beta/(2 pi); max(20/Lambda, 4 beta, 2) is far past both.
    born-markov-transient switches to the asymptotic coefficients here, and
    a born-markov-asymptotic run from a product state is past its initial
    slip from here on.
    """
    return max(20.0 / params.lambda_bar, 4.0 * params.beta_bar, 2.0)


class _TransientTable:
    """Linear-in-time interpolation of the four coefficient arrays."""

    def __init__(self, params: SystemParams, n_max: int, n_points: int):
        settle = coefficient_settle_time(params)
        self.t_end = settle
        self.taus = np.linspace(0.0, settle, n_points)
        self.tables = coefficient_tables(params, n_max, self.taus)
        inf = asymptotic_coefficients(params, n_max)
        self.inf = (inf.a1, inf.a2, inf.b1, inf.b2)
        self.dt = self.taus[1] - self.taus[0]

    def at(self, tau: float):
        if tau >= self.t_end:
            return self.inf
        f = tau / self.dt
        i = min(int(f), self.taus.size - 2)
        w = f - i
        return tuple(t[i] * (1.0 - w) + t[i + 1] * w for t in self.tables)


def default_dtau(params: SystemParams, n_max: int) -> float:
    """Stability- and accuracy-limited RK4 step in the lab frame.

    The fastest coherence in the truncated space rotates at the full level
    spread E_top - E_0; one radian per step keeps it well inside the RK4
    stability region. tau_e/200 resolves the envelope collapse.
    """
    top = n_max - 1
    e_spread = top + params.mu_bar * top * top
    dt = 1.0 / max(e_spread, 1.0)
    scales = derive_timescales(params)
    if math.isfinite(scales.tau_e):
        dt = min(dt, scales.tau_e / 200.0)
    return dt


def default_dtau_rotating(params: SystemParams, n_max: int) -> float:
    """Accuracy-limited RK4 step in the rotating frame.

    Only the explicit coefficient phases oscillate, at up to twice the top
    level gap Omega_top = E_top - E_{top-1}; 0.05/Omega_top keeps the RK4
    quadrature error of those oscillations near (2 Omega dt)^4 ~ 1e-4
    relative, far below the bath-rate tolerances this path is used for.
    """
    top_gap = 1.0 + params.mu_bar * (2.0 * n_max - 3.0)
    return 0.05 / top_gap


def _closed_trajectory(
    params: SystemParams,
    rho0: np.ndarray,
    tau_end: float,
    config: IntegratorConfig,
) -> Trajectory:
    n_max = rho0.shape[0]
    e = fock.FockSpace(n_max).energies(params.mu_bar)
    phase_gen = e[:, None] - e[None, :]
    n_samples = max(2, config.closed_samples)
    taus = np.linspace(0.0, tau_end, n_samples) if tau_end > 0 else np.array([0.0])
    rec = _Recorder(params, taus.size, config, n_max)
    snap_left = sorted(config.snapshot_taus)
    snaps = {}
    for k, t in enumerate(taus):
        rho = np.exp(-1j * phase_gen * t) * rho0
        rec.store(k, t, rho)
        while snap_left and t >= snap_left[0] - 1e-12:
            snaps[snap_left.pop(0)] = rho.copy()
    return rec.finish(
        taus, mode="closed", n_max=n_max, dtau=0.0, snapshots=snaps, final_rho=rho
    )


class _Recorder:
    """Accumulates per-sample observables, reporting lab-frame values.

    For a rotating-frame state the lower ladder diagonal is dressed with
    e^{-i Omega_n tau} before summing <a>; diagonal quantities and norms are
    frame-invariant, and the coherence envelope needs no dressing because the
    rotating-frame state is already the co-moving one.
    """

    def __init__(self, params, n_samples, config, n_max: int, rotating=False):
        self.rotating = rotating
        self.a = np.empty(n_samples, dtype=complex)
        self.n = np.empty(n_samples)
        self.energy = np.empty(n_samples)
        self.tr = np.empty(n_samples, dtype=complex)
        self.herm = np.empty(n_samples)
        self.top = np.empty(n_samples)
        self.min_eig = np.empty(n_samples) if config.record_min_eig else None
        self.energies = fock.FockSpace(n_max).energies(params.mu_bar)
        self.omega_sd = np.diff(self.energies)
        self.xsd = np.sqrt(np.arange(1, n_max, dtype=float))
        self.levels = np.arange(n_max, dtype=float)
        if config.overlap_pair is not None:
            al, be = config.overlap_pair
            va = fock.coherent_amplitudes(al, n_max).conj()
            vb = fock.coherent_amplitudes(be, n_max)
            self.wmat = va[:, None] * vb[None, :]
            if not rotating:
                # lab-frame states need the co-moving dressing e^{i(E_n-E_m)t}
                self.ediff = self.energies[:, None] - self.energies[None, :]
            # flattened (column - row) index of each element's diagonal
            idx = np.arange(n_max)
            self.diag_idx = (idx[None, :] - idx[:, None] + n_max - 1).ravel()
            self.n_diags = 2 * n_max - 1
            self.overlap = np.empty(n_samples)
        else:
            self.overlap = None

    def store(self, k: int, tau: float, rho: np.ndarray) -> None:
        lower = np.diagonal(rho, -1)
        if self.rotating:
            self.a[k] = np.sum(self.xsd * np.exp(-1j * self.omega_sd * tau) * lower)
        else:
            self.a[k] = np.sum(self.xsd * lower)
        pops = np.diagonal(rho).real
        self.n[k] = float(np.dot(self.levels, pops))
        self.energy[k] = float(np.dot(self.energies, pops))
        self.tr[k] = np.trace(rho)
        self.herm[k] = float(np.max(np.abs(rho - rho.conj().T)))
        self.top[k] = float(np.max(np.abs(pops[-3:])))
        if self.overlap is not None:
            weighted = self.wmat * rho
            if not self.rotating:
                weighted *= np.exp(1j * self.ediff * tau)
            flat = weighted.ravel()
            diag_sums = np.bincount(
                self.diag_idx, flat.real, self.n_diags
            ) + 1j * np.bincount(self.diag_idx, flat.imag, self.n_diags)
            self.overlap[k] = float(np.abs(diag_sums).sum())
        if self.min_eig is not None:
            w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
            self.min_eig[k] = float(w[0])
        if not np.isfinite(self.a[k].real) or abs(self.tr[k] - 1.0) > 0.5:
            raise IntegrationError(
                f"state became unphysical at tau={tau:g} "
                f"(trace={self.tr[k]:.3g}, <a>={self.a[k]:.3g}); "
                "reduce dtau or enlarge the basis"
            )

    def finish(self, taus, **kw) -> Trajectory:
        return Trajectory(
            taus=np.asarray(taus, dtype=float),
            a_expect=self.a,
            n_expect=self.n,
            energy_expect=self.energy,
            trace=self.tr,
            herm_defect=self.herm,
            top_population=self.top,
            overlap=self.overlap,
            min_eig=self.min_eig,
            **kw,
        )


def evolve(
    params: SystemParams,
    tau_end: float,
    mode: str = "closed",
    rho0: np.ndarray | None = None,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Propagate an initial density matrix and record observables.

    rho0 defaults to the coherent state of the model parameters in a basis
    sized by fock_cutoff. The returned trajectory samples every
    config.stride steps plus the final time.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if tau_end < 0:
        raise ValueError(f"tau_end must be non-negative, got {tau_end}")
    config = config or IntegratorConfig()
    if config.frame not in ("lab", "rotating"):
        raise ValueError(f"unknown frame {config.frame!r}")
    rotating = config.frame == "rotating"
    if rotating and not mode.startswith("born-markov"):
        raise ValueError("frame='rotating' is only supported in born-markov modes")
    if rho0 is None:
        n_max = fock.fock_cutoff(params.intensity)
        rho0 = fock.coherent_state_density(params.alpha, n_max)
    else:
        rho0 = np.array(rho0, dtype=complex)
        n_max = rho0.shape[0]

    if mode == "closed":
        return _closed_trajectory(params, rho0, tau_end, config)

    if config.dtau is not None:
        dtau = config.dtau
    elif rotating:
        dtau = default_dtau_rotating(params, n_max)
    else:
        dtau = default_dtau(params, n_max)
    n_steps = max(1, int(math.ceil(tau_end / dtau - 1e-12))) if tau_end > 0 else 0
    if n_steps > config.max_steps:
        raise IntegrationError(
            f"{n_steps} steps exceed max_steps={config.max_steps}; "
            "raise dtau or max_steps"
        )
    dtau = tau_end / n_steps if n_steps else dtau
    stride = config.stride or max(1, n_steps // 4000)

    rhs = _BandedRHS(params, n_max, mode, rotating=rotating)
    table = None
    if mode == "born-markov-asymptotic" and params.gamma > 0:
        c = asymptotic_coefficients(params, n_max)
        rhs.set_coefficients(c.a1, c.a2, c.b1, c.b2)
    elif mode == "born-markov-transient" and params.gamma > 0:
        table = _TransientTable(params, n_max, config.transient_table_points)

    energies = fock.FockSpace(n_max).energies(params.mu_bar)

    def to_lab(state, t):
        if not rotating:
            return state.copy()
        dress = np.exp(-1j * energies * t)
        return dress[:, None] * state * dress.conj()[None, :]

    sample_steps = list(range(0, n_steps + 1, stride))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    rec = _Recorder(params, len(sample_steps), config, n_max, rotating=rotating)
    snap_left = sorted(config.snapshot_taus)
    snaps = {}

    rho = rho0.copy()
    k1 = np.empty_like(rho)
    k2 = np.empty_like(rho)
    k3 = np.empty_like(rho)
    k4 = np.empty_like(rho)
    tmp = np.empty_like(rho)

    def stage(target, src, t):
        if table is not None:
            rhs.set_coefficients(*table.at(t))
        if rotating:
            rhs.set_time(t)
        rhs(src, target)

    sample_idx = 0
    for step in range(n_steps + 1):
        t = step * dtau
        if sample_idx < len(sample_steps) and step == sample_steps[sample_idx]:
            rec.store(sample_idx, t, rho)
            sample_idx += 1
        while snap_left and t >= snap_left[0] - 0.5 * dtau:
            snaps[snap_left.pop(0)] = to_lab(rho, t)
        if step == n_steps:
            break
        stage(k1, rho, t)
        np.multiply(k1, 0.5 * dtau, out=tmp)
        tmp += rho
        stage(k2, tmp, t + 0.5 * dtau)
        np.multiply(k2, 0.5 * dtau, out=tmp)
        tmp += rho
        stage(k3, tmp, t + 0.5 * dtau)
        np.multiply(k3, dtau, out=tmp)
        tmp += rho
        stage(k4, tmp, t + dtau)
        k2 += k3
        k1 += k4
        k1 += 2.0 * k2
        k1 *= dtau / 6.0
        rho += k1

    if float(np.max(rec.top)) > 1e-6:
        warnings.warn(
            f"top-level population reached {float(np.max(rec.top)):.2e}; "
            "results may be truncation-limited, enlarge the basis",
            TruncationLeakWarning,
            stacklevel=2,
        )
    taus = np.array([s * dtau for s in sample_steps])
    return rec.finish(
        taus,
        mode=mode,
        n_max=n_max,
        dtau=dtau,
        frame=config.frame,
        snapshots=snaps,
        final_rho=to_lab(rho, n_steps * dtau),
    )
