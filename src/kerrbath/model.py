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
import sys
from dataclasses import asdict, dataclass

import numpy as np

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
    Parameters outside the numeric domain raise ValueError (see
    derived_scales). theta is tau_gamma/tau_e, nan only when both are
    infinite; a ratio of two finite times that is not finite and positive
    raises ValueError too.

    tau_d drops the Ohmic cutoff factor Lambda^2/(Lambda^2 + Omega^2) that
    the bath coefficient B1(inf) carries.
    """
    _require_valid(params)
    s = derived_scales(params)
    theta = s["tau_gamma"] / s["tau_e"]  # inf/inf is nan, and x/inf is 0
    if params.mu_bar > 0 and params.gamma > 0:  # two finite times
        theta = _form(theta, "theta = tau_gamma/tau_e", True, mu_bar=params.mu_bar,
                      gamma=params.gamma)
    return Timescales(s["tau_cl"], s["tau_e"], s["tau_r"], s["tau_d"], s["tau_gamma"], theta)


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
    root = _form(2.0 * atom_mass * trap_omega * n_atoms / (math.pi * HBAR),
                 "2 m omega N/(pi hbar)", True,
                 atom_mass=atom_mass, trap_omega=trap_omega, n_atoms=n_atoms)
    return _form(scattering_length * math.sqrt(root) * tau_gamma,
                 "theta = a sqrt(2 m omega N/(pi hbar)) tau_gamma", scattering_length != 0.0,
                 scattering_length=scattering_length, tau_gamma=tau_gamma)


def theta_cantilever(mu_cl: float, quality: float, n_levels: float) -> float:
    """Quantum-survival ratio for a driven nanomechanical mode.

    tau_gamma = 2Q and epsilon = 1/n for a mode excited to n quanta, so
    Theta = 2*mu_cl*sqrt(epsilon)*tau_gamma = 4*mu_cl*Q/sqrt(n). Every
    input must be finite and quality and n_levels positive (ValueError).
    """
    _check_inputs({"mu_cl": mu_cl}, {"quality": quality, "n_levels": n_levels})
    return _form(4.0 * mu_cl * quality / math.sqrt(n_levels), "theta = 4 mu_cl Q/sqrt(n)",
                 mu_cl != 0.0, mu_cl=mu_cl, quality=quality, n_levels=n_levels)


def _cantilever_threshold(quality: float, n_levels: float) -> float:
    """The mu_cl at which theta_cantilever is 1, sqrt(n)/(4 Q)."""
    return _form(math.sqrt(n_levels) / (4.0 * quality), "the threshold sqrt(n)/(4 Q)", True,
                 quality=quality, n_levels=n_levels)


#: the sign each field of SystemParams must have (theta may have either)
_SIGNS = {"mu_bar": "non-negative", "intensity": "positive", "beta_bar": "positive",
          "gamma": "non-negative", "lambda_bar": "positive"}


def validate_params(params: SystemParams) -> list[Violation]:
    """Return every error of a parameter set, or, when it has none, every
    warning.

    One rule makes the errors: every field is a finite number of its sign
    (_SIGNS), except beta_bar = +inf, which is zero temperature. A set
    whose fields pass can still have one error: the first of its times that
    leaves the numeric domain (see derived_scales). Warnings flag parameter
    choices for which results carry caveats (cutoff below the system
    frequency, truncation size beyond the intended operating range).
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
        try:
            omega = derived_scales(params)["omega_bar"]
        except ValueError as exc:
            return [Violation("error", str(exc))]
        if params.gamma > 0 and params.lambda_bar <= omega:
            out.append(
                Violation(
                    "warning",
                    "cutoff below system frequency: lambda_bar = "
                    f"{params.lambda_bar:g} <= omega_bar = {omega:g}; "
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


def derived_scales(params: SystemParams, n_max: int = 0, tau_end: float = 0.0,
                   matsubara: int | None = None) -> dict:
    """The numeric domain of the program: every derived scale of params,
    formed once and in a fixed order, by name. The first that is not finite,
    or that nonzero inputs drove to zero, raises ValueError (see _form).
    Fields with validate_params' errors are not checked here.

    The times come always; mu_bar = 0 and gamma = 0 keep their infinite
    ones. n_max adds the basis of a run to tau_end; matsubara the bath of a
    coefficient table over n_max levels that keeps that many Matsubara
    terms a row (0: the long-time row alone). The README lists every scale.
    Each is the expression its reader would otherwise evaluate, bit for bit.
    """
    mu, i0, beta, g, lam = (params.mu_bar, params.intensity, params.beta_bar, params.gamma,
                            params.lambda_bar)
    spread = _form(2.0 * mu * math.sqrt(i0), "1/tau_e = 2 mu_bar sqrt(I0)", mu > 0, mu_bar=mu)
    omega = _form(params.omega_bar, "omega_bar = 1 + mu_bar (1 + 2 I0)", mu_bar=mu, intensity=i0)
    rate = _form(i0 * g * omega, "the decoherence rate I0 gamma omega_bar", g > 0,
                 intensity=i0, gamma=g)
    # omega_bar and 1/tau_e bound tau_cl's denominator, so it needs no check
    s = {"omega_bar": omega, "tau_cl": 2.0 * math.pi / (1.0 + 2.0 * mu * i0),
         "tau_e": math.inf, "tau_r": math.inf, "tau_gamma": math.inf, "tau_d": math.inf}
    if mu > 0:
        s["tau_e"] = _form(1.0 / spread, "tau_e = 1/(2 mu_bar sqrt(I0))", mu_bar=mu)
        s["tau_r"] = _form(math.pi / mu, "tau_r = pi/mu_bar", mu_bar=mu)
    if g > 0:
        s["tau_gamma"] = _form(2.0 / g, "tau_gamma = 2/gamma", gamma=g)
        s["tau_d"] = _form(math.tanh(0.5 * beta * omega) / rate, "tau_d = tanh(beta_bar "
                           "omega_bar/2)/(I0 gamma omega_bar)", True, beta_bar=beta, gamma=g)
    top = n_max - 1
    if n_max:
        s["e_top"] = _form(top + mu * top * top, "the top level energy E_top = n + mu_bar n^2 "
                           f"at n = {top}; lower mu_bar", mu_bar=mu)
        _form(s["e_top"] * tau_end, "the phase E_top tau_end of the top level", mu_bar=mu,
              tau_end=tau_end)
        omega_top = _form(1.0 + mu * (1.0 + 2.0 * top), "the top level frequency "
                          f"Omega_n = 1 + mu_bar (1 + 2n) at n = {top}", mu_bar=mu)
    if matsubara is None:
        return s
    s["x"] = _form(beta * lam / (2.0 * math.pi), "the digamma argument beta_bar lambda_bar/2pi; "
                   "lower beta_bar", True, beta_bar=beta)
    if n_max:
        _form(beta * omega_top / (2.0 * math.pi), "the digamma argument beta_bar Omega_top/2pi; "
              "lower beta_bar", beta_bar=beta)
    c = _form(2.0 * math.pi / beta, "the Matsubara frequency 2pi/beta_bar; beta_bar must be at "
              f"least {2.0 * math.pi / sys.float_info.max:.2g}", beta_bar=beta)
    with np.errstate(over="ignore"):  # a numpy float's cube is inf where lam**3 raises
        s["lambda_cube"] = float(np.float64(lam) ** 3)
    if not (math.isfinite(s["lambda_cube"]) and math.isfinite(1.0 / s["x"])):
        raise ValueError(f"the long-time bath coefficients are not finite at lambda_bar = "
                         f"{lam:g} and beta_bar = {beta:g}; bring both nearer 1")
    s["settle"] = _form(max(20.0 / lam, 4.0 * beta, 2.0), "the settle time max(20/lambda_bar, "
                        "4 beta_bar, 2)", lambda_bar=lam, beta_bar=beta)
    last = c * matsubara  # the last Matsubara frequency kept
    least = 2.0 * math.pi * matsubara / math.sqrt(sys.float_info.max)
    _form(last * last, "the squared Matsubara frequency (2pi k/beta_bar)^2 of the transient "
          f"coefficients; beta_bar must be at least {least:.2g} here", beta_bar=beta)
    return s


def _form(value: float, scale: str, positive: bool = False, **inputs) -> float:
    """value, the derived scale named by scale, when it is finite and, if
    positive is true, not zero; otherwise ValueError naming the inputs that
    formed it: "mu_bar = 1e+308 overflows 1/tau_e = 2 mu_bar sqrt(I0)"."""
    if math.isfinite(value) and (value != 0.0 or not positive):
        return value
    names = [f"{name} = {v:g}" for name, v in inputs.items()]
    who = " and ".join(filter(None, (", ".join(names[:-1]), names[-1])))
    verb = ("underflow" if value == 0.0 else "overflow") + ("s" if len(names) == 1 else "")
    raise ValueError(f"{who} {verb} {scale}")


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
