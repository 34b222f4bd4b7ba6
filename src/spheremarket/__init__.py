"""spheremarket: contextual sphere-model trading next to a classical
option-pricing baseline, with Kolmogorovian feasibility tests for the
resulting statistics."""

from .geometry import UnitVector3, dot, from_polar, sample_uniform
from .kolmogorov_check import (
    AgreementTable,
    FeasibilityResult,
    InfeasibilityCertificate,
    bell_facets_n3,
    joint_feasibility,
    random_agreement_table,
    sphere_bell_scan,
    table_from_atom_weights,
)
from .market_sim import (
    GlobalRegime,
    LocalRegime,
    MarketConfig,
    NewsSeries,
    TradeLog,
    TradeRecord,
    compare_with_gbm,
    run_market,
    run_market_ensemble,
    summary_stats,
)
from .pricing import (
    GbmParams,
    OptionKind,
    OptionSpec,
    binomial_price,
    bs_price,
    d1_d2,
    gbm_path_matrix,
    intrinsic_value,
    mc_price,
    norm_cdf,
    pde_residual,
    time_value,
)
from .scop_core import (
    PriceIntervalProperty,
    ScopSystem,
    UnknownContextError,
    UnknownStateError,
    actual_properties,
    is_eigenstate,
    sphere_as_scop,
    transition,
)
from .sphere_model import (
    DeltaRho,
    MeasurementOutcome,
    OutcomeLabel,
    PiecewiseConstantRho,
    RhoDistribution,
    TruncatedGaussianRho,
    UniformRho,
    agreement_table,
    hidden_state_agreement_table,
    measurement_counts,
    simulate_measurement,
    transition_probabilities,
)

__version__ = "0.1.0"
