"""The package's public surface: what the CLI, the acceptance suite and the
benchmark call. Oracles used only by tests live in tests/."""

import kerrbath

PUBLIC = [
    "BathCoefficients", "BumpFit", "DecoherenceFit", "HBAR", "IntegrationError",
    "IntegratorConfig", "MODES", "QuadratureError",
    "RegimeReport", "SpectrumFit", "SystemParams", "THETA_HI", "THETA_LO",
    "Timescales", "Trajectory", "TruncationLeakWarning", "Violation",
    "__version__", "alpha_closed", "alpha_lindblad_rwa", "asymptotic_b1_at",
    "asymptotic_coefficients", "cat_offdiagonal_rate", "cat_state_density",
    "classify_regime", "coefficient_tables", "coherent_amplitudes",
    "coherent_state_density", "default_dtau", "derive_timescales",
    "evolve", "extract_envelope_peaks", "fit_ehrenfest_bump",
    "fit_position_spectrum", "fock_cutoff", "omega_levels", "overlap_rate_modulated",
    "predicted_overlap_rate", "scale_tau_d_to_intensity", "spectral_density",
    "theta_bec", "theta_cantilever", "transient_coefficients", "validate_params",
]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 44
    assert sorted(kerrbath.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(kerrbath, name)] == []
