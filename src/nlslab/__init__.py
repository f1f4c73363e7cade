"""Spectral laboratory for norm growth of cubic dispersive flows on scaled tori.

Layout: `torus` (band-limited fields, norms, periodization), `profiles`
(compactly supported line profiles and their transforms), `evolution`
(exact, split-step, Runge–Kutta, and series integrators plus symmetry
maps), `constructions` (two-block data, series terms, schedules), and
`lab` (experiment runners, reports, CSV/JSON emission).
"""

from .torus import (
    BudgetExceededError,
    NormSpec,
    SpectralField,
    analyze,
    cubic_density,
    enlarge_band,
    fourier_lebesgue_norm,
    mean_and_l2,
    periodize,
    profile_fourier,
    project_below,
    sobolev_norm,
    synthesize,
)
from .profiles import (
    CompactProfile,
    MomentReport,
    PhaseIntegral,
    appendix_profile,
    centered_two_step,
    mollifier_cdf,
    mollifier_transform,
    mollify,
    moment_vanishing,
    phase_integral,
    smooth_bump,
    solve_psi4_parameter,
)
from .evolution import (
    BlowupError,
    EquationSpec,
    EvolveResult,
    StepperConfig,
    duhamel_kernel,
    free_rotation_rates,
    galilean_boost,
    gauge_transform,
    interaction_picture,
    ode_exact_evolve,
    oscillatory_integral,
    phase_weight,
    picard_expansion,
    rk4_spectral_evolve,
    scale_map,
    split_step_evolve,
)
from .constructions import (
    REGIMES,
    InflationScenario,
    InflationTime,
    LineBlockData,
    RegimeSchedule,
    Xi1Measurement,
    build_two_block_data,
    certify_tail,
    f_factor,
    g_factor,
    inflation_time,
    regime_parameters,
    supercritical_schedule,
    xi1_lower_measurement,
    xi_series_tail,
    xi_term,
    xi_upper_bound,
)
from .lab import (
    CSV_COLUMNS,
    ExperimentConfig,
    GammaCount,
    InflationReport,
    MethodDisagreementError,
    ReportRow,
    StepTargetError,
    TailTargetError,
    config_from_dict,
    config_to_dict,
    emit_report,
    feasibility_scan,
    gamma_discrepancy,
    line_sobolev_norm,
    measure_plateau,
    report_to_csv,
    report_to_json,
    resolve_threads,
    run_approximation,
    run_experiment,
    run_feasibility,
    run_gamma,
    run_inflation,
    run_periodization,
    wiener_error_budget,
)

__version__ = "0.1.0"
