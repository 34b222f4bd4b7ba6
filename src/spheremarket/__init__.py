"""spheremarket: contextual sphere-model trading next to a classical
option-pricing baseline, with Kolmogorovian feasibility tests for the
resulting statistics.

The namespace is lazy (PEP 562): ``import spheremarket`` loads no submodule
and no numpy, and each name below loads its home module on first use, so a
run pays only for the modules it touches.  Each submodule's own name
resolves to the submodule.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "config": (),
    "geometry": ("UnitVector3", "dot", "from_polar", "sample_uniform"),
    "kolmogorov_check": ("AgreementTable", "FeasibilityResult", "InfeasibilityCertificate",
                         "bell_facets_n3", "joint_feasibility", "random_agreement_table",
                         "sphere_bell_scan", "table_from_atom_weights"),
    "market_sim": ("GlobalRegime", "LocalRegime", "MarketConfig", "NewsSeries", "TradeLog",
                   "TradeRecord", "compare_with_gbm", "run_market", "run_market_ensemble",
                   "summary_stats"),
    "ndtr": (),
    "pricing": ("GbmParams", "OptionKind", "OptionSpec", "binomial_price", "bs_price", "d1_d2",
                "gbm_path_matrix", "intrinsic_value", "mc_price", "norm_cdf", "pde_residual",
                "time_value"),
    "scop_core": ("PriceIntervalProperty", "ScopSystem", "UnknownContextError",
                  "UnknownStateError", "actual_properties", "is_eigenstate", "sphere_as_scop",
                  "transition"),
    "sphere_model": ("DeltaRho", "MeasurementOutcome", "OutcomeLabel", "PiecewiseConstantRho",
                     "RhoDistribution", "TruncatedGaussianRho", "UniformRho", "agreement_table",
                     "hidden_state_agreement_table", "measurement_counts", "simulate_measurement",
                     "transition_probabilities"),
    "streams": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the home module of ``name`` and bind the value here, so the
    next access is a plain lookup."""
    import importlib

    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = importlib.import_module(f"{__name__}.{module}")
    value = home if name == module else getattr(home, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
