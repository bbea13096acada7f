"""Density-matrix propagation for the damped anharmonic oscillator.

Four evolution modes:

  "closed"                  isolated dynamics. The Hamiltonian is diagonal in
                            the number basis, so the co-moving state
                            e^{iHt} rho e^{-iHt} stays rho0: the run evaluates
                            no right-hand side, and every sample is the exact
                            lab-frame state.
  "born-markov-asymptotic"  second-order (Born-Markov) master equation with
                            the bath coefficients frozen at their long-time
                            values, the set a transient run holds from its
                            settle time on. Started from a product state (the
                            default coherent start is one) it does not
                            preserve positivity before the coefficient
                            settle time: the frozen generator is not
                            completely positive, and its initial slip can
                            drive small negative eigenvalues that recover
                            within that window. Use "born-markov-transient"
                            for such starts when the early window matters.
  "born-markov-transient"   same equation with time-dependent coefficients:
                            their P bands are tabulated over the settling
                            window and linearly interpolated at every
                            integrator stage; from the window's end on the
                            run holds the asymptotic coefficients and steps
                            like an asymptotic run.
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
Since Q = -P^dag, a Hermitian rho gives M = A - A^dag with A = P rho, and
since X is Hermitian, [X, M] = B + B^dag with B = X M. The kernel builds the
one-sided products A and B and mirrors them, so it requires rho = rho^dag:
evolve rejects an initial state with max|rho0 - rho0^dag| > 1e-9. All
operators are tridiagonal, so one right-hand side costs O(n_max^2).

Every mode runs through one sample loop and one recorder; the stepping
modes share one banded kernel, which holds its mode's whole generator in
the co-moving frame. The free rotation is removed analytically:
rho~ = e^{iHt} rho e^{-iHt} obeys an equation without the free term, in
which the ladder diagonals (those of X and P, and of a in the Lindblad gain
a rho~ a^dag) carry explicit phases e^{-i Omega_n t}, Omega_n = E_{n+1} - E_n;
the Lindblad decay is diagonal and carries none. Stepping that equation is
Lawson's integrating-factor Runge-Kutta (J. D. Lawson, SIAM J. Numer. Anal.
4, 372 (1967)). A run without a generator, closed mode, any mode at
gamma = 0, or a one-level basis, which has no band, takes the closed path:
it builds no kernel and keeps rho0.
Recorded observables and final_rho, the state at tau_end and the one state a
run returns, are lab-frame values: co-moving states are dressed with the
level phases. evolve checks its inputs before any run (see evolve); sample 0
of every run, and every closed-path sample, takes that check's rho0 defect.

Time stepping is classical RK4 on the co-moving state. dtau is the sample
spacing in every mode. When unset, default_dtau(params, n_max, frame) gives
it, coarsened by a whole factor on a long run (see IntegratorConfig); frame
picks only that default grid, and every run with a generator steps the same
way. Only the band phases oscillate, at up to ~2 Omega_top, linear in n_max
instead of the quadratic level spread E_top - E_0 that a lab-frame step
would have to resolve. The step h is a length of time, not a number of grid
cells, between the floor h_lo and the ceiling h_hi of the coefficient set
in force (see _step_bounds): a transient table's rows up to its end, the
asymptotic bands from there on (from tau = 0 in an asymptotic run), or
lindblad-rwa's one set; each step start clamps h to that set's range. Every
step measures the FSAL error estimate err = (h/6) max|f(t+h, y1) - k4|
(Hairer, Norsett & Wanner, Solving ODEs I, II.4): f(t+h, y1) is the next
step's first stage, so the estimate costs a subtraction and a maximum. It
scales as h^4 but is blind to aliasing of the band phases, which the
ceiling bounds. The rate budget reads each set's rate: for the asymptotic
bands, the spectral radius of their generator, measured by power iteration
as the kernel is built (see _BandedRHS._radius); for a transient table's
rows and lindblad-rwa, a norm bound. The run starts at h_lo, and after
each step
h <- clamp(h min(2, max(0.2, 0.9 (tol/err)^(1/4))), h_lo, h_hi)
with tol = _STEP_TOL; a step above h_lo with err > tol is rejected and
retried with the new h. So a run never steps shorter than h_lo, and where
the rate or the table binds, h_lo = h_hi and the step is fixed. The
kernel's construction and the steps run under numpy's errstate for
overflow and invalid values: a step whose estimate is not finite, as the
first one is when the generator overflows, raises IntegrationError, naming
the fix for the set in force (see _remedy), with no numpy warning before
it. A step ending within 1e-9 h of a grid point ends on it. Samples inside
a step come from the cubic Hermite interpolant of the step's end states and
their derivatives (Hairer, Norsett & Wanner, Solving ODEs I, II.6). The end
derivative is the next step's first stage, and the interpolation weights
are real, so trace and hermiticity carry over. The recorded quantities
other than the hermiticity defect and the minimum eigenvalue are linear in
the state, so the recorder interpolates the O(n_max) vectors they are read
from instead of forming interior states. An interior sample's hermiticity
defect is the larger end-state defect, which bounds the interpolant's: the
state weights lie in [0, 1] and sum to 1, and the bath kernel's output is
exactly Hermitian (the Lindblad output to round-off, ~1e-19, which the
bound then carries). The interpolant is not positivity-preserving, and its
error grows as h^4: at the 2-rad ceiling (acceptance 02's lindblad-rwa run)
an interpolated sample's minimum eigenvalue reaches -4.5e-10, while the
step ends stay at round-off (-2.5e-16). The closed path integrates no step;
there dtau only spaces the samples, 2001 of them in closed mode when unset.

A stepping run holds five n_max^2 complex state buffers: rho, the run's one
copy of rho0, stepped in place; k1; and three that a step's stages take in
turn (see the step loop in evolve). One complex scratch block beside them
holds, one at a time, the kernel's work arrays (2 n_max^2 - n_max elements
in a bath mode, n_max^2 in lindblad-rwa), which are idle between calls,
and the recorder's zero-padded overlap band, the real magnitudes of the
step estimate and the defects, and min_eig's interpolation work; final_rho
is dressed in place. Building the kernel measures the asymptotic set's
radius, when the run reaches that set, in two more state-sized arrays,
freed before the run allocates its buffers. A step records its samples,
and the closed path those of rho0, in blocks whose interpolated
observable vectors fit in one state array (below n_max = 91, in numpy's
buffer of 8192 elements), as does their work copy or their dressing
phases, however many samples the step or the closed path spans. At n_max = 109 (16 n_max^2 B = 190 kB per array) a stepping run
peaks under tracemalloc at 7.9 such arrays from the coherent start
(1.5 MB), 9.5 for a cat with an overlap_pair and 9.2 in lindblad-rwa, and
a closed run of 4097 samples at 4.1.
"""

from __future__ import annotations

import bisect
import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock
from .kernels import asymptotic_coefficients, coefficient_tables
from .model import SystemParams, _require_valid, derived_scales

MODES = (
    "closed",
    "born-markov-asymptotic",
    "born-markov-transient",
    "lindblad-rwa",
)
FRAMES = ("lab", "rotating")

# closed mode's sample grid when no dtau is given: tau_end split in 2000 steps
_CLOSED_STEPS = 2000

# largest max|rho0 - rho0^dag| accepted, the conservation audit's bound
_HERM_TOL = 1e-9

# samples past tau = 0: at most _MAX_SAMPLES in one run (each 72-88 B of
# recorder arrays, checked before the run allocates them), and a default
# grid of 2 _DEFAULT_SAMPLES cells or more coarsens by a whole factor
_MAX_SAMPLES = 1_000_000
_DEFAULT_SAMPLES = 4000

# RK4 steps that a run may take at most, counted at each coefficient set's
# step ceiling, the fewest the run can take, before it allocates its state
# buffers. No run that can end is refused: at the cheapest step, about
# 75 us at n_max = 5 on a 2-vCPU machine, 1e12 steps take over two years
_MAX_STEPS = 10**12

# step budgets: radians of the fastest coefficient phase per step at the
# step floor and at the step ceiling, and the step times the generator's
# norm bound
_PHASE_PER_STEP = 0.5
_PHASE_PER_STEP_MAX = 2.0
_RATE_PER_STEP = 0.25

# local error tolerance of a step above its floor: the largest accepted
# (h/6) max|f(t+h, y1) - k4|
_STEP_TOL = 3e-10


class IntegrationError(RuntimeError):
    """Raised when the propagation produces non-finite or unphysical state."""


class TruncationLeakWarning(UserWarning):
    """Population reached the top three levels of the truncated basis."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Knobs for the propagation, shared by every mode and both frames.

    Every mode runs on one grid of dtau cells through the same sample loop
    and recorder: every grid point is a sample. dtau None picks
    default_dtau(params, n_max, frame), times the whole factor
    n_cells // 4000 when that grid has n_cells >= 8000 cells, except in
    closed mode, whose dtau defaults to tau_end/2000. frame picks only that
    default grid. A run without a generator (closed mode, any mode at
    gamma = 0, or a one-level basis) takes the closed path: its co-moving
    state never changes, so it takes no step and every sample, on its
    mode's grid, is exact. Every run with a generator steps the co-moving
    state by as long a time step as its local error estimate allows between
    a floor and a ceiling of at least min(dtau, one rotating default cell)
    (see _step_bounds), so a dtau of at least that cell sets the sample
    density, not the step.
    transient_table_points is the number of nodes, at least 2, of a
    born-markov-transient run's coefficient table, linear in time between
    nodes, of which the run evaluates those it reads; an asymptotic run has
    no table, and a transient run that ends before the table's end, the
    settle time, has no asymptotic set. overlap_pair (alpha,
    beta) records a coherence envelope for that superposition: with rho~
    the co-moving state e^{iHt} rho e^{-iHt} and W_nm = conj(alpha_n)
    beta_m, the envelope is sum_j |sum over the j-th diagonal of W*rho~|.
    It equals 1 for the pure lobe |alpha><beta|, is exactly invariant under
    rigid phase-space rotation of the state (each diagonal only picks up a
    common phase), and decays at the bath's off-diagonal damping rate, so
    slow bath-induced frequency shifts do not masquerade as decoherence.
    frame is "lab" or "rotating". The config is frozen, and a frame, dtau or
    table size that no run can use raises ValueError on construction.
    """

    dtau: float | None = None
    overlap_pair: tuple[complex, complex] | None = None
    record_min_eig: bool = False
    transient_table_points: int = 512
    frame: str = "lab"

    def __post_init__(self) -> None:
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame {self.frame!r}")
        if self.dtau is not None and not (math.isfinite(self.dtau) and self.dtau > 0):
            raise ValueError(f"dtau must be positive and finite, got {self.dtau}")
        points = self.transient_table_points
        if not (isinstance(points, numbers.Integral) and points >= 2):
            raise ValueError(f"transient_table_points must be an integer >= 2, got {points!r}")


@dataclass
class Trajectory:
    """Sampled observables of one propagation run.

    All stored quantities are lab-frame values, whatever the frame; frame
    records the config's, which picks only the default grid (every run with
    a generator steps co-moving). dtau is the run's sample spacing,
    taus[k] = k dtau, and step the largest RK4 step taken, in time, not in
    cells; steps counts the accepted RK4 steps, and step_error is the
    largest accepted local error estimate (h/6) max|f(t+h, y1) - k4| (see
    the module docstring). With no step taken (a run without a generator,
    or tau_end = 0) steps is 0 and step and step_error are None.
    spectral_radius is the rate that the asymptotic bath set's step budget
    read: its generator's measured spectral radius, or the norm bound where
    that was not finite and positive; None where the run measured none: in
    lindblad-rwa, on the closed path, and in a born-markov-transient run
    that ends before its settle time, which never holds that set.
    energy_expect is <n + mu n^2>, conserved exactly by the closed flow.
    overlap, when an overlap_pair was requested, is the real coherence
    envelope of that pair (see IntegratorConfig), 1 at tau=0 for the pure
    off-diagonal lobe and rotation-invariant thereafter. herm_defect is
    max|rho - rho^dag| of the state at a step end (or of the static state
    in closed mode); at a sample inside a step it is the larger of the two
    end-state defects, which bounds the defect of the interpolated state
    there (see the module docstring). final_rho is the state at tau_end.
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
    step: float | None = None
    steps: int = 0
    step_error: float | None = None
    spectral_radius: float | None = None
    overlap: np.ndarray | None = None
    min_eig: np.ndarray | None = None
    final_rho: np.ndarray | None = None

    @property
    def x(self) -> np.ndarray:
        """Position expectation sqrt(2) Re <a>."""
        return math.sqrt(2.0) * self.a_expect.real


class _Ladder:
    """Level index n, energies E_n = n + mu n^2, gaps Omega_n = E_{n+1} - E_n
    with their phase rates -i Omega_n, and ladder amplitudes sqrt(n+1),
    computed once per run."""

    def __init__(self, params: SystemParams, n_max: int):
        n = self.levels = np.arange(n_max, dtype=float)
        self.energies = n + params.mu_bar * n * n
        self.gaps = np.diff(self.energies)
        self.rates = -1j * self.gaps
        self.sqrt_n = np.sqrt(np.arange(1, n_max, dtype=float))


class _BandedRHS:
    """O(n^2) right-hand side of one mode's whole generator in the co-moving
    frame.

    The bath enters as [X, M] with M = P rho + rho Q; P is tridiagonal with
    zero main diagonal, Q = -P^dag, and X is the Hermitian ladder band. For
    Hermitian rho (a precondition, not checked per call) this is
    M = A - A^dag with A = P rho and [X, M] = B + B^dag with B = X M: each
    evaluation forms the two one-sided products (_band_product) and mirrors
    them. lindblad-rwa has the decay -gamma (n + m)/2 (l_free) and the gain
    gamma a rho a^dag, the product of the upper and lower X bands on the
    shifted block. Each evaluation multiplies every upper band by
    e^{-i Omega_n t} and every lower band by the conjugate, and rebuilds the
    gain from them, when the time differs from the last one set up (RK4
    stages 2 and 3 share it). sets holds each coefficient set that comes
    into force by tau_end, from its time in starts, as (rate, row spacing,
    rows): rows are its P bands (upper, lower), two (rows, n_max - 1)
    arrays, linear in time between rows (see p_bands). The bands read the
    n_max - 1 transitions n -> n + 1, so the coefficients are asked for
    levels 0 .. n_max - 2 alone, each bit for bit the full basis's.
    born-markov-asymptotic has one set, the asymptotic bands as a single
    row; born-markov-transient has the rows of its table (nodes evenly
    spaced from 0 to the settle time) that a run to tau_end reads, two at
    least and each the whole table's row bit for bit, then, when tau_end
    reaches the settle time, that single row from there on; lindblad-rwa
    has one set with no rows. The rate of the single-row set is its
    generator's measured spectral radius (_radius), which radius holds
    (None when the run builds no such set); a table's rows and
    lindblad-rwa keep a norm bound (_bath_rate, and 2 gamma n_max). A call
    writes its output into out and uses out as scratch before that, so out
    must not share memory with rho. Its work arrays, _a (n_max^2) and, in a
    bath mode, _m (the second band product's lower rows), are views of
    scratch, a complex array of at least work(mode, n_max) elements (a new
    one when None). They are idle between calls, so evolve's recorder
    shares the block.
    """

    def __init__(self, params: SystemParams, ladder: _Ladder, mode: str,
                 table_points: int = IntegratorConfig.transient_table_points,
                 tau_end: float = math.inf, scratch: np.ndarray | None = None):
        n_max = ladder.energies.size
        self.ladder = ladder
        # work arrays: every evaluation writes into these and into out, and
        # allocates no n_max^2 temporary
        if scratch is None:
            scratch = np.empty(self.work(mode, n_max), dtype=complex)
        self._a = scratch[:n_max * n_max].reshape(n_max, n_max)
        self._tau = None  # time the bands were last set up for
        self.l_free = self.gain = None
        # the modulated P bands and X bands
        self._mod = tuple(np.zeros(n_max - 1, dtype=complex) for _ in range(4))
        self.gamma = params.gamma
        self.starts = (0.0,)
        self.radius = None  # the asymptotic set's rate, when the run builds that set
        if mode == "lindblad-rwa":
            n = ladder.levels
            self.l_free = -0.5 * params.gamma * (n[:, None] + n[None, :])
            # the gain gamma xu[i] xl[j] fills columns j < n_max - 1 of an
            # (n_max - 1, n_max) array whose last column stays zero. With
            # k = i n_max + j, gain.flat[k] rho.flat[k + n_max + 1] is then
            # gain[i, j] rho[i+1, j+1]: the shifted block is one contiguous
            # product, and _block keeps i, j < n_max - 1 of it when adding
            self.gain = np.zeros((n_max - 1, n_max), dtype=complex)
            self._gain_flat = self.gain.reshape(-1)[:n_max * n_max - n_max - 1]
            self._a_flat = scratch[:self._gain_flat.size]
            self._block = np.zeros((n_max, n_max), dtype=bool)
            self._block[:-1, :-1] = True
            # the decay and the gain each have norm at most gamma n_max
            self.sets = ((2.0 * params.gamma * n_max, math.inf, ()),)
            return
        self._m = scratch[n_max * n_max:(2 * n_max - 1) * n_max].reshape(n_max - 1, n_max)
        self._at = tuple(np.empty(n_max - 1, dtype=complex) for _ in range(2))
        # the P bands read the n_max - 1 transitions n -> n + 1, so the
        # coefficients are evaluated on levels 0 .. n_max - 2 alone
        settle = coefficient_settle_time(params) if mode == "born-markov-transient" else 0.0
        # a set is built only when it comes into force by tau_end; the
        # asymptotic one first, so that a beta_bar it refuses never reaches a table
        inf = asymptotic_coefficients(params, n_max - 1) if settle <= tau_end else None
        sets = []
        if settle > 0.0:
            taus = np.linspace(0.0, settle, table_points)
            dt = taus[1] - taus[0]
            # p_bands(tau_end) interpolates rows int(tau_end / dt) and the next
            rows = min(table_points, int(tau_end / dt) + 2) if tau_end < settle else table_points
            bands = _p_bands(ladder.sqrt_n, *coefficient_tables(params, n_max - 1, taus[:rows]))
            sets.append((_bath_rate(ladder.sqrt_n, bands), dt, bands))
        if inf is not None:
            row = _p_bands(ladder.sqrt_n, *(c[None] for c in (inf.a1, inf.a2, inf.b1, inf.b2)))
            self.radius = self._radius(row)
            sets.append((self.radius, math.inf, row))
        self.sets = tuple(sets)
        self.starts = (0.0, settle)[:len(sets)]

    def _radius(self, bands) -> float:
        """The spectral radius of a single-row set's generator, measured by
        12 power iterations from the Hermitian state with every element
        1/n_max, at the band phases of tau = 0: the norm of the generator
        applied to the last normalized iterate. The generator at any tau is
        unitarily similar to that at 0, so the radius holds for the whole
        run. The two iterates are freed on return. A radius that is not
        finite and positive falls back to _bath_rate's norm bound."""
        sqrt_n = self.ladder.sqrt_n
        n_max = sqrt_n.size + 1
        x = np.full((n_max, n_max), 1.0 / n_max, dtype=complex)
        y = np.empty_like(x)
        # a norm past the float range is the overflow that the fallback catches
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(12):
                self._bath(bands[0][0], bands[1][0], sqrt_n, sqrt_n, x, y)
                radius = float(np.linalg.norm(y))
                if not 0.0 < radius < math.inf:
                    return _bath_rate(sqrt_n, bands)
                np.divide(y, radius, out=x)
        return radius

    @staticmethod
    def work(mode: str, n_max: int) -> int:
        """Complex elements of a mode's work arrays."""
        return n_max * n_max if mode == "lindblad-rwa" else (2 * n_max - 1) * n_max

    def in_force(self, tau: float) -> int:
        """The index in sets of the coefficient set in force at tau."""
        return bisect.bisect_right(self.starts, tau) - 1

    def p_bands(self, tau: float):
        """The P bands at tau of the coefficient set in force: its single
        row, or its rows interpolated linearly into buffers the kernel owns
        (and rewrites on the next call)."""
        k = self.in_force(tau)
        _, spacing, (upper, lower) = self.sets[k]
        if len(upper) == 1:
            return upper[0], lower[0]
        f = (tau - self.starts[k]) / spacing
        i = min(int(f), len(upper) - 2)
        w = f - i
        for band, out in zip((upper, lower), self._at):
            np.multiply(band[i], 1.0 - w, out=out)
            out += band[i + 1] * w
        return self._at

    def _set_time(self, tau: float) -> None:
        """Coefficients and interaction-picture phases at tau."""
        if tau == self._tau:
            return
        self._tau = tau
        ph = np.exp(self.ladder.rates * tau)
        conj = ph.conj()
        pu_t, pl_t, xu_t, xl_t = self._mod
        np.multiply(self.ladder.sqrt_n, ph, out=xu_t)
        np.multiply(self.ladder.sqrt_n, conj, out=xl_t)
        if self.gain is None:
            pu, pl = self.p_bands(tau)
            np.multiply(pu, ph, out=pu_t)
            np.multiply(pl, conj, out=pl_t)
        else:
            # copied first, so that numpy buffers one broadcast operand, not two
            np.copyto(self.gain[:, :-1], xl_t)
            np.multiply(xu_t[:, None], self.gain, out=self.gain)
            self.gain *= self.gamma

    def __call__(self, tau: float, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the right-hand side at time tau for Hermitian rho into out,
        which is also scratch: it must not share memory with rho."""
        self._set_time(tau)
        if self.l_free is not None:
            np.multiply(self.l_free, rho, out=out)
            # a[i, j] = gain[i, j] rho[i+1, j+1] on the block i, j < n_max - 1
            np.multiply(self._gain_flat, rho.reshape(-1)[rho.shape[0] + 1:], out=self._a_flat)
            return np.add(out, self._a, out=out, where=self._block)
        return self._bath(*self._mod, rho, out)

    def _bath(self, pu, pl, xu, xl, rho, out) -> np.ndarray:
        """The bath term [X, M] of Hermitian rho, with P bands pu, pl and X
        bands xu, xl, into out."""
        a = self._a
        # A = P rho into a (out's rows as scratch) and A^dag into out, then
        # M = A - A^dag in place in out
        _band_product(pu, pl, rho, a, out[1:, :])
        _adjoint(a, out)
        np.subtract(a, out, out=out)
        # B = X M into a (_m as scratch) and B^dag into out, then
        # [X, M] = B + B^dag
        _band_product(xu, xl, out, a, self._m)
        _adjoint(a, out)
        return np.add(a, out, out=out)


def _band_product(upper, lower, rho, a, low) -> None:
    """The product Y rho of the tridiagonal Y with zero main diagonal and
    bands upper and lower, into a; low, an (n_max - 1, n_max) array that
    shares no memory with rho or a, takes the lower band's rows first."""
    np.multiply(upper[:, None], rho[1:, :], out=a[:-1, :])
    a[-1, :] = 0.0
    np.multiply(lower[:, None], rho[:-1, :], out=low)
    a[1:, :] += low


def _adjoint(a, out) -> None:
    """a^dag into out."""
    np.copyto(out, a.T)
    np.conjugate(out, out=out)


def coefficient_settle_time(params: SystemParams) -> float:
    """Time after which the finite-time bath coefficients have settled.

    The kernels decay on the cutoff scale 1/Lambda and on the slowest
    Matsubara scale beta/(2 pi); max(20/Lambda, 4 beta, 2) is far past both.
    born-markov-transient switches to the asymptotic coefficients here, and
    a born-markov-asymptotic run from a product state is past its initial
    slip from here on.
    """
    return derived_scales(params, matsubara=0)["settle"]


def _p_bands(sqrt_n, a1, a2, b1, b2):
    """The P bands (upper, lower) of level-resolved coefficients, with the
    ladder amplitudes s = sqrt_n; the arrays run over the levels 0 .. n_max
    - 2 of the transitions n -> n + 1 on their last axis, as s does. Upper:
    (i s (a1 + i a2) - s (b1 + i b2))/2, lower: the same with both products
    conjugated. Formed from real parts, which round as the complex form
    does, so that a whole table's temporaries stay real."""
    sa1, sa2, sb1, sb2 = (sqrt_n * c for c in (a1, a2, b1, b2))
    upper, lower = (np.empty(sa1.shape, dtype=complex) for _ in range(2))
    np.multiply(0.5, -sa2 - sb1, out=upper.real)
    np.multiply(0.5, sa1 - sb2, out=upper.imag)
    np.multiply(0.5, sa2 - sb1, out=lower.real)
    np.multiply(0.5, sa1 + sb2, out=lower.imag)
    return upper, lower


def _bath_rate(sqrt_n, bands) -> float:
    """The bath term's norm bound 16 max sqrt(n) max|P band| over a
    coefficient set's P bands (see _step_bounds): the rate of a table's
    rows, and of a single-row set whose measured radius is not finite and
    positive. On the asymptotic bands it is 1.2-4.7x their radius."""
    p_max = max(np.abs(b).max(initial=0.0) for b in bands)
    return float(16.0 * sqrt_n.max(initial=0.0) * p_max)


def _omega_top(params: SystemParams, n_max: int) -> float:
    """The top level gap Omega_top = E_top - E_{top-1} of a basis of at
    least two levels: a one-level basis has no gap, and its rotating grid
    is that of two levels."""
    return 1.0 + params.mu_bar * (2.0 * max(n_max, 2) - 3.0)


def default_dtau(params: SystemParams, n_max: int, frame: str = "lab") -> float:
    """The default sample grid of a frame, before a long run coarsens it
    (see IntegratorConfig). It fixes the sample density only: every run
    with a generator steps the co-moving state by lengths of time, not cells
    of it (see the module docstring), and cubic Hermite dense output fills
    the samples between step ends.

    Lab frame: one radian per sample of the fastest lab-frame coherence,
    which rotates at the full level spread E_top - E_0, and at least 200
    samples per tau_e, which resolves the envelope collapse.

    Rotating frame: 0.05/Omega_top, with Omega_top = E_top - E_{top-1}
    (0.1 rad of the fastest coefficient phase, at twice Omega_top, per
    sample).
    """
    if frame not in FRAMES:
        raise ValueError(f"unknown frame {frame!r}")
    if frame == "rotating":
        return 0.05 / _omega_top(params, n_max)
    scales = derived_scales(params, n_max)
    dt = 1.0 / max(scales["e_top"], 1.0)
    return min(dt, scales["tau_e"] / 200.0) if math.isfinite(scales["tau_e"]) else dt


def _step_bounds(params: SystemParams, rhs: _BandedRHS, dtau: float,
                 tau: float = 0.0) -> tuple[float, float, float]:
    """The floor and the ceiling of a run's RK4 step in time under the
    coefficient set in force at tau, and the floor's budget before it is
    raised.

    Each bound is the smallest of three budgets of the set, raised to at
    least min(dtau, one rotating default cell). Phase: the fastest band
    phase turns at 2 Omega_top, by _PHASE_PER_STEP per step at the floor and
    _PHASE_PER_STEP_MAX at the ceiling. Rate: h rate <= _RATE_PER_STEP for
    the set's rate. For the asymptotic bands it is the generator's measured
    spectral radius, 0.82-1.25 of ARPACK's on the sweep's draws, so h |lambda|
    <= 0.31 on every eigenvalue lambda, well inside RK4's stability region
    (about 2.79 on the negative real axis and 2.83 on the imaginary one;
    Hairer & Wanner, Solving ODEs II, IV.2). For
    a table's rows it is a norm bound: ||X|| <= 2 max sqrt(n) and ||P|| <=
    2 max|P band| bound the bath term by 16 max sqrt(n) max|P band| ||rho||,
    and lindblad-rwa's decay and gain by 2 gamma n_max ||rho||. Table: the
    spacing of a table's rows. Where the rate or the table binds, floor and
    ceiling coincide.
    """
    n_max = rhs.ladder.energies.size
    rate, spacing, _ = rhs.sets[rhs.in_force(tau)]
    budget = min(_RATE_PER_STEP / rate if rate > 0.0 else math.inf, spacing)
    turn = 2.0 * _omega_top(params, n_max)
    least = min(dtau, default_dtau(params, n_max, "rotating"))
    cap = min(_PHASE_PER_STEP / turn, budget)
    return max(cap, least), max(min(_PHASE_PER_STEP_MAX / turn, budget), least), cap


def _remedy(rhs: _BandedRHS, h_lo: float, h_hi: float, cap: float, t_end: float) -> str:
    """The fix that a run to t_end names when it fails under a coefficient
    set with step range (h_lo, h_hi) and floor budget cap."""
    if h_lo <= cap:  # the floor is the set's own budget
        fix = "enlarge the basis"
    elif t_end <= _MAX_SAMPLES * cap:  # one sample cell raised the floor above it
        fix = f"reduce dtau to {cap:g} or below"
    else:  # the sample limit refuses that dtau: change what sets the rate
        fix = "lower gamma" if rhs.gain is not None else "lower gamma or raise beta_bar"
        if cap > 0.0:  # an overflowing rate leaves no dtau
            fix += f", or run to tau_end <= {_MAX_SAMPLES * cap:g} with dtau <= {cap:g}"
    return f"{fix} (the RK4 step runs from {h_lo:g} to {h_hi:g})"


def _hermite(s, h: float, y0, y1, f0, f1, out, work) -> None:
    """Cubic Hermite interpolant at fraction s of a step h from (y0, f0) to
    (y1, f1), written into out; work is scratch of the same shape. An array
    s of shape (k, 1) interpolates rows of vectors, one row per fraction.
    The two state weights lie in [0, 1] and sum to 1."""
    r = 1.0 - s
    np.multiply(y0, (1.0 + 2.0 * s) * r * r, out=out)
    weights = ((s * s * (3.0 - 2.0 * s), y1), (h * s * r * r, f0), (-h * s * s * r, f1))
    for w, y in weights:
        np.multiply(y, w, out=work)
        out += work


def _herm_defect(state: np.ndarray, diff: np.ndarray, mag: np.ndarray) -> float:
    """max|state - state^dag|, formed in diff (complex) and mag (real),
    scratch arrays of the state's shape."""
    _adjoint(state, diff)
    np.subtract(state, diff, out=diff)
    return float(np.abs(diff, out=mag).max())


class _Recorder:
    """Accumulates per-sample observables, reporting lab-frame values.

    The linear observables of a state are read off one complex vector
    (vector): the lower ladder diagonal (for <a>), the diagonal (for <n>,
    energy, trace and top population) and, with an overlap_pair, the
    2 n_max - 1 diagonal sums of W*rho~. store turns rows of such vectors
    into samples, so a step spanning several grid points interpolates its
    end vectors; only min_eig forms the interior state. Sample 0, and every
    closed-path sample, is one vector of rho0 and evolve's input-check defect.

    Every state is co-moving: the lower ladder diagonal is dressed with
    e^{-i Omega_n tau} before summing <a>; diagonal quantities and norms are
    frame-invariant, and the coherence envelope reads the co-moving state
    as it is. With an overlap_pair, the zero-padded band is a view of
    scratch, a complex array of at least n_max (2 n_max - 1) elements that
    others may write between calls, so vector zeroes it before each use.
    """

    def __init__(self, ladder: _Ladder, n_samples: int, config: IntegratorConfig,
                 hint: str, scratch: np.ndarray):
        self.ladder = ladder
        self.hint = hint
        self.a = np.empty(n_samples, dtype=complex)
        self.n = np.empty(n_samples)
        self.energy = np.empty(n_samples)
        self.tr = np.empty(n_samples, dtype=complex)
        self.herm = np.empty(n_samples)
        self.top = np.empty(n_samples)
        self.min_eig = np.empty(n_samples) if config.record_min_eig else None
        n_max = ladder.levels.size
        self.size = 2 * n_max - 1
        self.overlap = None
        if config.overlap_pair is not None:
            al, be = config.overlap_pair
            va = fock.coherent_amplitudes(al, n_max).conj()
            vb = fock.coherent_amplitudes(be, n_max)
            self.wmat = va[:, None] * vb[None, :]
            # row r of the band view, rows 2 n_max - 2 elements apart (any
            # spacing serves one row), starts at column n_max - 1 - r of the
            # zero-padded buffer, so column j sums diagonal j - (n_max - 1)
            self._pad = scratch[:n_max * (2 * n_max - 1)].reshape(n_max, 2 * n_max - 1)
            row = max(2 * n_max - 2, 1)
            self._band = scratch[n_max - 1:n_max - 1 + n_max * row].reshape(n_max, row)[:, :n_max]
            self.size += 2 * n_max - 1
            self.overlap = np.empty(n_samples)

    def vector(self, state: np.ndarray) -> np.ndarray:
        """The linear-observable vector of a co-moving state or of its
        derivative."""
        n_max = state.shape[0]
        v = np.empty(self.size, dtype=complex)
        v[:n_max - 1] = np.diagonal(state, -1)
        v[n_max - 1:2 * n_max - 1] = np.diagonal(state)
        if self.overlap is not None:
            self._pad.fill(0.0)
            np.multiply(self.wmat, state, out=self._band)
            np.sum(self._pad, axis=0, out=v[2 * n_max - 1:])
        return v

    @staticmethod
    def lowest_eig(state: np.ndarray) -> float:
        """The lowest eigenvalue of the state, which is Hermitian to
        round-off: eigvalsh reads its lower triangle and forms no copy."""
        return float(np.linalg.eigvalsh(state)[0])

    def store(self, k: int, taus: np.ndarray, vecs: np.ndarray, herm,
              min_eig=None) -> None:
        """Record samples k, k + 1, ... at taus from the rows of vecs, their
        linear-observable vectors (one row serves every tau of a static
        state), with hermiticity defects herm and, when recorded, minimum
        eigenvalues min_eig (each one value or one per sample)."""
        rows = slice(k, k + taus.size)
        n_max = self.ladder.levels.size
        lower, diag = vecs[:, :n_max - 1], vecs[:, n_max - 1:2 * n_max - 1]
        amp = self.ladder.sqrt_n * np.exp(taus[:, None] * self.ladder.rates)
        a = self.a[rows] = (amp * lower).sum(axis=1)
        pops = diag.real
        # summed along each row, so that a row's bits do not depend on how
        # many samples share the call (a k-row np.dot sums in another order)
        self.n[rows] = (pops * self.ladder.levels).sum(axis=1)
        self.energy[rows] = (pops * self.ladder.energies).sum(axis=1)
        tr = self.tr[rows] = diag.sum(axis=1)
        self.herm[rows] = herm
        self.top[rows] = np.abs(pops[:, -3:]).max(axis=1)
        if self.overlap is not None:
            self.overlap[rows] = np.abs(vecs[:, 2 * n_max - 1:]).sum(axis=1)
        if self.min_eig is not None:
            self.min_eig[rows] = min_eig
        bad = ~np.isfinite(a.real) | (np.abs(tr - 1.0) > 0.5)
        if bad.any():
            i = int(np.argmax(bad))
            raise IntegrationError(
                f"state became unphysical at tau={taus[i]:g} "
                f"(trace={self.tr[k + i]:.3g}, <a>={a[i]:.3g}); {self.hint}"
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
    sized by fock_cutoff; a given rho0 must be a finite square matrix with
    max|rho0 - rho0^dag| <= 1e-9, or ValueError is raised, as it is for a
    tau_end that is not finite and non-negative, for parameters outside the
    numeric domain of the run (see derived_scales), and for beta_bar = inf
    in a born-markov mode. The trajectory samples every point of the dtau grid,
    which ends on tau_end, and final_rho is the lab-frame state there. A
    grid of more than 1e6 cells or of no finite cell count, and a run that
    would take more than 1e12 RK4 steps even at its coefficient sets' step
    ceilings, raise IntegrationError before the run allocates its state
    buffers. The run steps in its own copy of rho0, one of five state-sized
    buffers beside one scratch block (see the module docstring), and never
    writes the caller's array.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")
    if not (math.isfinite(tau_end) and tau_end >= 0):
        raise ValueError(f"tau_end must be finite and non-negative, got {tau_end}")
    _require_valid(params)
    if mode.startswith("born-markov") and math.isinf(params.beta_bar):
        # the psi terms, the Matsubara sum and the 4 beta settle time need a finite beta
        raise ValueError("beta_bar must be finite in born-markov-asymptotic and "
                         f"born-markov-transient, got {params.beta_bar}")
    config = config or IntegratorConfig()
    if rho0 is None:
        n_max = fock.fock_cutoff(params.intensity)
        rho0 = fock.coherent_state_density(params.alpha, n_max)
    else:
        # C order: the Lindblad kernel reads the state through flat views
        rho0 = np.array(rho0, dtype=complex, order="C")
        if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1] or rho0.size == 0:
            raise ValueError(f"rho0 must be a non-empty square matrix, got shape {rho0.shape}")
        if not np.all(np.isfinite(rho0)):
            raise ValueError("rho0 must be finite")
        n_max = rho0.shape[0]
    # the kernel builds half of each commutator and mirrors the rest
    herm0 = _herm_defect(rho0, np.empty_like(rho0), np.empty(rho0.shape))
    if herm0 > _HERM_TOL:
        raise ValueError(
            f"rho0 must be Hermitian: max|rho0 - rho0^dag| = {herm0:.3g} > {_HERM_TOL:g}"
        )
    derived_scales(params, n_max, tau_end)

    if config.dtau is not None:
        dtau = config.dtau
    elif mode == "closed":
        dtau = tau_end / _CLOSED_STEPS
    else:
        dtau = default_dtau(params, n_max, config.frame)
    cells = tau_end / dtau if dtau > 0 else 0.0  # a closed run to 1e-320 has dtau = 0
    if not math.isfinite(cells):
        # a default dtau follows the level spread, which mu_bar sets
        fix = "raise dtau" if config.dtau is not None else "lower mu_bar"
        raise IntegrationError(f"tau_end / dtau = {tau_end:g} / {dtau:g} is not a finite number "
                               f"of samples, above the limit of {_MAX_SAMPLES}; {fix}")
    n_cells = max(1, math.ceil(cells - 1e-12)) if tau_end > 0 else 0
    if config.dtau is None and mode != "closed":
        # keep every f-th point, f = n_cells // 4000: 4000 to 6000 samples
        n_cells = math.ceil(n_cells / max(1, n_cells // _DEFAULT_SAMPLES))
    if n_cells > _MAX_SAMPLES:
        raise IntegrationError(
            f"{n_cells} samples after tau = 0 exceed the limit of {_MAX_SAMPLES}; raise dtau"
        )
    dtau = tau_end / n_cells if n_cells else dtau
    taus = np.arange(n_cells + 1) * dtau
    t_end = n_cells * dtau

    ladder = _Ladder(params, n_max)
    rhs = None  # no generator: the co-moving state never changes
    hint = "a run without a generator keeps rho0, so check its trace"
    # a one-level basis has no band, so its generator is zero
    stepping = mode != "closed" and params.gamma > 0 and n_max >= 2
    # the run's one scratch block, as large as the kernel's work arrays or
    # the recorder's padded overlap band: the work arrays are idle while the
    # recorder or the step estimate uses the block
    size = _BandedRHS.work(mode, n_max) if stepping else 0
    if config.overlap_pair is not None:
        size = max(size, n_max * (2 * n_max - 1))
    scratch = np.empty(size, dtype=complex)
    if stepping:
        # warnings silenced as in the step loop: a generator that overflows
        # fails the first step's finite check, with no numpy warning before it
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = _BandedRHS(params, ladder, mode, config.transient_table_points, t_end, scratch)
        # each coefficient set's step range, and the fix that a failure under it names
        bounds = (_step_bounds(params, rhs, dtau, t) for t in rhs.starts)
        ranges = [(lo, hi, _remedy(rhs, lo, hi, cap, t_end)) for lo, hi, cap in bounds]
        hint = ranges[0][2]
        # the fewest steps: none is longer than its set's ceiling, bar round-off
        spans = zip(rhs.starts, rhs.starts[1:] + (t_end,), ranges)
        least = sum((min(b, t_end) - a) / hi for a, b, (_, hi, _) in spans if a < t_end)
        if not least <= _MAX_STEPS:
            raise IntegrationError(
                f"a run to tau = {t_end:g} takes at least {least:.3g} RK4 steps of at most "
                f"{ranges[0][1]:g} from tau = 0, more than the limit of {_MAX_STEPS:g}; "
                "lower mu_bar or gamma, or shorten the run"
            )

    rec = _Recorder(ladder, taus.size, config, hint, scratch)
    # samples recorded at once: their interpolated vectors fit in one state
    # array, and so does their work copy or their dressing phases, however
    # many samples a step or the closed path spans; below n_max = 91 in
    # numpy's buffer of 8192 elements, so that a small basis's samples do
    # not go one call each
    block = max(1, max(n_max * n_max, np.getbufsize()) // rec.size)
    rho = rho0  # the run steps in its own copy of rho0
    # sample 0 of rho0, with the input check's defect, and so every sample
    # of a run without a generator, whose co-moving state is rho0 throughout
    v0 = rec.vector(rho)
    eig0 = rec.lowest_eig(rho) if rec.min_eig is not None else None
    done = taus.size if rhs is None else 1  # samples recorded
    for k in range(0, done, block):
        rec.store(k, taus[k:min(k + block, done)], v0[None], herm0, eig0)
    ends = (0.0, v0, None, herm0)  # time, vector, derivative vector, defect last measured

    def record(j, t0, t1, h, y0, y1, f0, f1) -> None:
        """Record samples done, ..., j - 1, those in (t0, t1] of the step
        h = t1 - t0 from (y0, f0) to (y1, f1), block samples at a time.
        Samples inside the step interpolate the end vectors and take the
        larger end defect, and only their minimum eigenvalues form states,
        in y with the scratch block's work view, idle while a step records."""
        nonlocal done, ends

        def state_at(c):
            if taus[c] == t1:
                return y1
            _hermite((taus[c] - t0) / h, h, y0, y1, f0, f1, y, work)
            return y

        v1, g1, d1 = rec.vector(y1), None, _herm_defect(y1, y, mag)
        inside = taus[done] < t1
        if inside:
            g1 = rec.vector(f1)
            if ends[0] != t0:
                ends = (t0, rec.vector(y0), None, _herm_defect(y0, y, mag))
            _, v0, g0, d0 = ends
            if g0 is None:
                g0 = rec.vector(f0)
        ends = (t1, v1, g1, d1)
        for k in range(done, j, block):
            rows = taus[k:min(k + block, j)]
            vecs, herm = v1[None], d1
            if inside:
                s = (rows[:, None] - t0) / h
                vecs = np.empty((s.size, v1.size), dtype=complex)
                _hermite(s, h, v0, v1, g0, g1, vecs, np.empty_like(vecs))
                herm = np.where(s[:, 0] < 1.0, max(d0, d1), d1)
            min_eig = None
            if rec.min_eig is not None:
                min_eig = [rec.lowest_eig(state_at(c)) for c in range(k, k + rows.size)]
            rec.store(k, rows, vecs, herm, min_eig)
        done = j

    steps, largest, step_error = 0, 0.0, 0.0  # accepted steps, the longest, worst estimate
    if rhs is not None:
        # five state buffers: rho and k1, the derivative at rho, stay across
        # an attempt; tmp holds each stage's input, then the increment, then
        # the end state y1; x holds k2, then k2 + k3, then the end
        # derivative f1; y holds k3, then k4, then f1 - k4. An accepted step
        # rotates y1 into rho and f1 into k1, and the old pair into tmp and x
        k1, tmp, x, y = (np.empty_like(rho) for _ in range(4))
        # views of the scratch block: the real magnitudes of the step
        # estimate and the defects, and min_eig's interpolation work
        mag = scratch.view(float)[:n_max * n_max].reshape(n_max, n_max)
        work = scratch[:n_max * n_max].reshape(n_max, n_max)
        # numpy's overflow and invalid-value warnings are silenced: a step
        # that leaves the finite range raises IntegrationError below instead
        with np.errstate(over="ignore", invalid="ignore"):
            rhs(0.0, rho, k1)
            t0, h = 0.0, 0.0
            while t0 < t_end:
                # h within the step range of the coefficient set in force at t0
                h_lo, h_hi, rec.hint = ranges[rhs.in_force(t0)]
                h = min(max(h, h_lo), h_hi)
                t1 = t0 + h
                # an end within round-off of a grid point lands on it, so that
                # the samples there are step ends, not interpolated an ulp short
                c = round(t1 / dtau)
                if abs(c * dtau - t1) <= 1e-9 * h:
                    t1 = c * dtau
                t1 = min(t1, t_end)
                dt = t1 - t0
                np.multiply(k1, 0.5 * dt, out=tmp)
                tmp += rho
                rhs(t0 + 0.5 * dt, tmp, x)
                np.multiply(x, 0.5 * dt, out=tmp)
                tmp += rho
                rhs(t0 + 0.5 * dt, tmp, y)
                np.multiply(y, dt, out=tmp)
                tmp += rho
                x += y
                x *= 2.0
                rhs(t1, tmp, y)
                # the increment (k1 + 2 k2 + 2 k3 + k4) dt/6 goes to tmp,
                # keeping k4 for the error estimate, and y1 = rho + it too
                np.add(y, k1, out=tmp)
                tmp += x
                tmp *= dt / 6.0
                tmp += rho
                rhs(t1, tmp, x)
                # FSAL estimate: the end derivative, the next k1, against k4
                np.subtract(x, y, out=y)
                err = dt / 6.0 * float(np.abs(y, out=mag).max())
                if not math.isfinite(err):
                    raise IntegrationError(
                        f"state became unphysical at tau={t1:g} (non-finite RK4 step); {rec.hint}"
                    )
                grow = 2.0 if err == 0.0 else min(2.0, max(0.2, 0.9 * (_STEP_TOL / err) ** 0.25))
                # the nominal h, not dt, meets the floor: dt can sit an ulp above it
                nominal, h = h, min(max(dt * grow, h_lo), h_hi)
                if nominal > h_lo and not err <= _STEP_TOL:
                    continue  # rejected: retry from rho with the shorter h
                rho, k1, tmp, x = tmp, x, rho, k1
                steps += 1
                largest = max(largest, dt)
                step_error = max(step_error, err)
                j = bisect.bisect_right(taus, t1, done)
                if j > done:
                    record(j, t0, t1, dt, tmp, rho, x, k1)
                t0 = t1

    top = float(np.max(rec.top))
    if top > 1e-6:
        warnings.warn(f"the largest population of the top three levels reached {top:.2e}; "
                      "results may be truncation-limited, enlarge the basis",
                      TruncationLeakWarning, stacklevel=2)
    dress = np.exp(-1j * ladder.energies * t_end)  # to the lab frame: e^{-iHt} rho e^{iHt}
    np.multiply(dress[:, None], rho, out=rho)
    np.multiply(rho, dress.conj()[None, :], out=rho)
    return rec.finish(
        taus,
        mode=mode,
        n_max=n_max,
        dtau=dtau,
        frame=config.frame,
        step=largest if steps else None,
        steps=steps,
        step_error=step_error if steps else None,
        spectral_radius=None if rhs is None else rhs.radius,
        final_rho=rho,
    )
