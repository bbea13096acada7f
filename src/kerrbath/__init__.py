"""Anharmonic oscillator in an Ohmic thermal bath.

Closed-form dynamics, weak-coupling master-equation integrators, bath
correlation kernels, and the fitting helpers used to pull characteristic
times back out of trajectories.
"""

__version__ = "0.1.0"

from .model import (
    HBAR,
    THETA_HI,
    THETA_LO,
    RegimeReport,
    SystemParams,
    Timescales,
    Violation,
    classify_regime,
    derive_timescales,
    theta_bec,
    theta_cantilever,
    validate_params,
)
from .kernels import (
    BathCoefficients,
    QuadratureError,
    asymptotic_b1_at,
    asymptotic_coefficients,
    coefficient_tables,
    omega_levels,
    spectral_density,
    transient_coefficients,
)
from .fock import (
    cat_state_density,
    coherent_amplitudes,
    coherent_state_density,
    fock_cutoff,
)
from .closedform import alpha_closed, alpha_lindblad_rwa
from .evolve import (
    MODES,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    TruncationLeakWarning,
    default_dtau,
    evolve,
)
from .analysis import (
    BumpFit,
    DecoherenceFit,
    SpectrumFit,
    cat_offdiagonal_rate,
    overlap_rate_modulated,
    discrete_spectrum,
    extract_envelope_peaks,
    fit_ehrenfest_bump,
    fit_position_spectrum,
    fit_spectral_width,
    predicted_overlap_rate,
    scale_tau_d_to_intensity,
)

__all__ = [
    "__version__",
    "HBAR",
    "THETA_HI",
    "THETA_LO",
    "RegimeReport",
    "SystemParams",
    "Timescales",
    "Violation",
    "classify_regime",
    "derive_timescales",
    "theta_bec",
    "theta_cantilever",
    "validate_params",
    "BathCoefficients",
    "QuadratureError",
    "asymptotic_b1_at",
    "asymptotic_coefficients",
    "coefficient_tables",
    "omega_levels",
    "spectral_density",
    "transient_coefficients",
    "cat_state_density",
    "coherent_amplitudes",
    "coherent_state_density",
    "fock_cutoff",
    "alpha_closed",
    "alpha_lindblad_rwa",
    "MODES",
    "IntegrationError",
    "IntegratorConfig",
    "Trajectory",
    "TruncationLeakWarning",
    "default_dtau",
    "evolve",
    "BumpFit",
    "DecoherenceFit",
    "SpectrumFit",
    "cat_offdiagonal_rate",
    "overlap_rate_modulated",
    "discrete_spectrum",
    "extract_envelope_peaks",
    "fit_ehrenfest_bump",
    "fit_position_spectrum",
    "fit_spectral_width",
    "predicted_overlap_rate",
    "scale_tau_d_to_intensity",
]
