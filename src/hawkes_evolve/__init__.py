"""Hawkes-driven birth-death population model: simulation and analysis."""

from .core import (
    DegenerateParametersError,
    EventLog,
    IntensityState,
    KernelBank,
    Mark,
    UnsupportedKernelError,
    bank_from_json,
    bank_to_json,
)
from .expectations import (
    ABCCoefficients,
    NoStationaryRateError,
    RegimeKind,
    RegimeReport,
    abc_coefficients,
    asymptotic_rates,
    classify_regime,
    critical_fitness,
    expected_count,
    expected_intensity_paper,
    expected_intensity_renewal,
    univariate_remark_intensity,
)
from .experiments import (
    DriftCheck,
    GofEntry,
    MCReport,
    RhoReport,
    SweepResult,
    generator_apply,
    generator_drift_check,
    gof_report,
    mc_mean_intensity,
    phase_transition_sweep,
    rho_convergence_check,
)
from .population import (
    FitnessPartition,
    PopulationPath,
    rho_limit,
    simulate_epsilon_chain,
    simulate_population,
    theoretical_site_cdf,
)
from .simulate import (
    MarkovBatch,
    SimConfig,
    SimPath,
    rng_for,
    simulate,
    simulate_markov,
    simulate_markov_batch,
    simulate_thinning_general,
    time_rescale_residuals,
)

__version__ = "0.1.0"
