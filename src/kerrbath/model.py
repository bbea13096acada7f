"""Dimensionless model parameters, characteristic timescales and regime logic.

The system is a quartic (Kerr) oscillator, H = n + mu*n^2 in units of the
harmonic quantum, prepared in a quasi-classical state of mean intensity I0
(amplitude alpha = sqrt(I0) * exp(-i*theta)) and coupled through its position
to an Ohmic thermal environment with damping rate gamma, inverse temperature
beta and frequency cutoff lambda_. All times are measured in units of the
harmonic period over 2*pi, all frequencies in units of the harmonic frequency.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

HBAR = 1.054571817e-34  # J s, CODATA 2018

#: Theta above this value: quantum recurrences outlive the damping time.
THETA_HI = 10.0
#: Theta below this value: spreading is too slow to matter before dissipation
#: removes the energy; the motion stays classical.
THETA_LO = 1.0 / 3.0


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless parameters of the oscillator, its state and its bath.

    mu_bar     anharmonicity (hbar * mu / omega_0 for a physical quartic term)
    intensity  I0 = |alpha|^2, mean quantum number of the initial state
    beta_bar   inverse bath temperature in oscillator units
    gamma      bath damping rate; gamma = 0 means an isolated oscillator
    lambda_bar Ohmic cutoff frequency
    theta      phase of the initial amplitude, alpha = sqrt(I0) e^{-i theta}
    """

    mu_bar: float
    intensity: float
    beta_bar: float = 1.0
    gamma: float = 0.0
    lambda_bar: float = 10.0
    theta: float = 0.0

    @property
    def alpha(self) -> complex:
        return math.sqrt(self.intensity) * complex(
            math.cos(self.theta), -math.sin(self.theta)
        )

    @property
    def epsilon(self) -> float:
        """Quantum scale 1/I0: the small parameter of the quasi-classical limit."""
        return 1.0 / self.intensity

    @property
    def mu_cl(self) -> float:
        """Classical anharmonicity mu_bar * I0, finite in the classical limit."""
        return self.mu_bar * self.intensity

    @property
    def omega_bar(self) -> float:
        """Level splitting at the mean intensity, 1 + mu_bar*(1 + 2*I0)."""
        return 1.0 + self.mu_bar * (1.0 + 2.0 * self.intensity)


@dataclass(frozen=True)
class Timescales:
    """The five characteristic times and their quantum-survival ratio.

    tau_cl     classical oscillation period 2*pi/(1 + 2*mu_bar*I0)
    tau_e      Ehrenfest (wave-packet spreading) time 1/(2*mu_bar*sqrt(I0))
    tau_r      recurrence period pi/mu_bar
    tau_d      decoherence time tanh(beta*Omega/2)/(I0*gamma*Omega)
    tau_gamma  relaxation time 2/gamma
    theta      tau_gamma / tau_e, the figure of merit for observing
               quantum dynamics in the open system
    """

    tau_cl: float
    tau_e: float
    tau_r: float
    tau_d: float
    tau_gamma: float
    theta: float


@dataclass(frozen=True)
class RegimeReport:
    theta: float
    regime: str  # "isolated", "quantum-surviving", "intermediate", "classical"
    ordering: tuple[tuple[str, float], ...]  # timescales sorted ascending


@dataclass(frozen=True)
class Violation:
    level: str  # "error" or "warning"
    message: str


def derive_timescales(params: SystemParams) -> Timescales:
    """Compute the five timescales of the model.

    mu_bar = 0 gives infinite tau_e and tau_r (a harmonic oscillator never
    spreads or revives); gamma = 0 gives infinite tau_d and tau_gamma.
    Parameters with validate_params' errors, and a mu_bar for which 1/tau_e
    overflows, raise ValueError. theta is tau_gamma/tau_e, nan only when both
    are infinite.

    tau_d drops the Ohmic cutoff factor Lambda^2/(Lambda^2 + Omega^2) that
    the bath coefficient B1(inf) carries.
    """
    _require_valid(params)
    mu, i0, g = params.mu_bar, params.intensity, params.gamma
    spread = 2.0 * mu * math.sqrt(i0)  # 1/tau_e; Python floats overflow to inf silently
    if math.isinf(spread):
        raise ValueError(f"mu_bar = {mu:g} overflows 1/tau_e = 2 mu_bar sqrt(I0); lower mu_bar")

    tau_cl = 2.0 * math.pi / (1.0 + 2.0 * mu * i0)
    tau_e = 1.0 / spread if mu > 0 else math.inf
    tau_r = math.pi / mu if mu > 0 else math.inf
    tau_gamma = 2.0 / g if g > 0 else math.inf

    if g > 0:
        omega = params.omega_bar
        tau_d = math.tanh(0.5 * params.beta_bar * omega) / (i0 * g * omega)
    else:
        tau_d = math.inf

    if math.isinf(tau_gamma) and math.isinf(tau_e):
        theta = math.nan
    elif math.isinf(tau_e):
        theta = 0.0
    else:
        theta = tau_gamma / tau_e
    return Timescales(tau_cl, tau_e, tau_r, tau_d, tau_gamma, theta)


def theta_regime(theta: float) -> str:
    """The verdict on a survival ratio: quantum-surviving above THETA_HI,
    classical below THETA_LO, intermediate otherwise; ValueError for nan."""
    if math.isnan(theta):
        raise ValueError(f"theta must be a number, got {theta}")
    if theta > THETA_HI:
        return "quantum-surviving"
    if theta < THETA_LO:
        return "classical"
    return "intermediate"


def classify_regime(scales: Timescales) -> RegimeReport:
    """Classify the dynamical regime from the timescale hierarchy.

    isolated           no bath (tau_gamma infinite)
    quantum-surviving  theta > THETA_HI: spreading, recurrences and their
                       decoherence all happen well before relaxation
    classical          theta < THETA_LO: dissipation wins before the packet
                       ever spreads
    intermediate       otherwise
    """
    regime = "isolated" if math.isinf(scales.tau_gamma) else theta_regime(scales.theta)
    times = {k: v for k, v in asdict(scales).items() if k != "theta"}
    ordering = tuple(sorted(times.items(), key=lambda kv: kv[1]))
    return RegimeReport(theta=scales.theta, regime=regime, ordering=ordering)


def theta_bec(
    scattering_length: float,
    atom_mass: float,
    trap_omega: float,
    n_atoms: float,
    tau_gamma: float,
) -> float:
    """Quantum-survival ratio for N trapped interacting atoms.

    The mean-field interaction plays the role of the anharmonicity:
    mu_cl = N*sqrt(a^2 m omega / 2 pi hbar) with epsilon = 1/N, so
    Theta = 2*mu_cl*sqrt(epsilon)*tau_gamma = a*sqrt(2 m omega N/(pi hbar))*tau_gamma.
    SI inputs (m, kg, rad/s); tau_gamma in units of 1/omega. Every input
    must be finite and all but the scattering length positive (ValueError).
    """
    _check_inputs({"scattering_length": scattering_length},
                  {"atom_mass": atom_mass, "trap_omega": trap_omega, "n_atoms": n_atoms,
                   "tau_gamma": tau_gamma})
    return (
        scattering_length
        * math.sqrt(2.0 * atom_mass * trap_omega * n_atoms / (math.pi * HBAR))
        * tau_gamma
    )


def theta_cantilever(mu_cl: float, quality: float, n_levels: float) -> float:
    """Quantum-survival ratio for a driven nanomechanical mode.

    tau_gamma = 2Q and epsilon = 1/n for a mode excited to n quanta, so
    Theta = 2*mu_cl*sqrt(epsilon)*tau_gamma = 4*mu_cl*Q/sqrt(n). Every
    input must be finite and quality and n_levels positive (ValueError).
    """
    _check_inputs({"mu_cl": mu_cl}, {"quality": quality, "n_levels": n_levels})
    return 4.0 * mu_cl * quality / math.sqrt(n_levels)


#: the sign each field of SystemParams must have (theta may have either)
_SIGNS = {"mu_bar": "non-negative", "intensity": "positive", "beta_bar": "positive",
          "gamma": "non-negative", "lambda_bar": "positive"}


def validate_params(params: SystemParams) -> list[Violation]:
    """Return every error of a parameter set, or, when it has none, every
    warning.

    One rule makes the errors: every field is a finite number of its sign
    (_SIGNS), except beta_bar = +inf, which is zero temperature. Warnings
    flag parameter choices for which results carry caveats (cutoff below
    the system frequency, truncation size beyond the intended operating
    range).
    """
    out: list[Violation] = []
    for name, value in asdict(params).items():
        sign = _SIGNS.get(name)
        if math.isnan(value):
            need = "a number"
        elif sign and not (value > 0 or value == 0 and sign == "non-negative"):
            need = sign
        elif math.isinf(value) and name != "beta_bar":
            need = f"{sign} and finite" if sign else "finite"
        else:
            continue
        out.append(Violation("error", f"{name} must be {need}, got {value}"))

    if not out:
        if params.gamma > 0 and params.lambda_bar <= params.omega_bar:
            out.append(
                Violation(
                    "warning",
                    "cutoff below system frequency: lambda_bar = "
                    f"{params.lambda_bar:g} <= omega_bar = {params.omega_bar:g}; "
                    "bath coefficients are suppressed by the cutoff there",
                )
            )
        if params.intensity > 200:
            out.append(
                Violation(
                    "warning",
                    f"intensity {params.intensity:g} needs a Fock cutoff beyond the "
                    "intended operating range; expect long runtimes",
                )
            )
    return out


def _require_valid(params: SystemParams) -> list[Violation]:
    """The warnings of params; ValueError naming every error, if it has any."""
    out = validate_params(params)
    if out and out[0].level == "error":
        raise ValueError("; ".join(v.message for v in out))
    return out


def _check_inputs(finite: dict, positive: dict) -> None:
    """ValueError naming the first input that is not a finite number, or is
    one of positive and not above zero."""
    for name, value in {**finite, **positive}.items():
        if not math.isfinite(value) or name in positive and value <= 0:
            need = "positive and finite" if name in positive else "finite"
            raise ValueError(f"{name} must be {need}, got {value}")
