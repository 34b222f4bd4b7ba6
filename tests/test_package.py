"""The package namespace: every name it exported when ``__init__`` imported
each module eagerly, now loaded on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import spheremarket

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the names and home modules of the eager namespace, recorded before it became lazy
EXPORTS = {
    "geometry": ["UnitVector3", "dot", "from_polar", "sample_uniform"],
    "kolmogorov_check": ["AgreementTable", "FeasibilityResult", "InfeasibilityCertificate",
                         "bell_facets_n3", "joint_feasibility", "random_agreement_table",
                         "sphere_bell_scan", "table_from_atom_weights"],
    "market_sim": ["GlobalRegime", "LocalRegime", "MarketConfig", "NewsSeries", "TradeLog",
                   "TradeRecord", "compare_with_gbm", "run_market", "run_market_ensemble",
                   "summary_stats"],
    "pricing": ["GbmParams", "OptionKind", "OptionSpec", "binomial_price", "bs_price", "d1_d2",
                "gbm_path_matrix", "intrinsic_value", "mc_price", "norm_cdf", "pde_residual",
                "time_value"],
    "scop_core": ["PriceIntervalProperty", "ScopSystem", "UnknownContextError",
                  "UnknownStateError", "actual_properties", "is_eigenstate", "sphere_as_scop",
                  "transition"],
    "sphere_model": ["DeltaRho", "MeasurementOutcome", "OutcomeLabel", "PiecewiseConstantRho",
                     "RhoDistribution", "TruncatedGaussianRho", "UniformRho", "agreement_table",
                     "hidden_state_agreement_table", "measurement_counts",
                     "simulate_measurement", "transition_probabilities"],
}
SUBMODULES = ["config", "geometry", "kolmogorov_check", "market_sim", "ndtr", "pricing",
              "scop_core", "sphere_model", "streams"]
NAMES = [name for names in EXPORTS.values() for name in names]


def test_the_pinned_namespace():
    assert len(NAMES) == len(set(NAMES)) == 54 and len(SUBMODULES) == 9
    assert sorted(spheremarket.__all__) == sorted(NAMES + SUBMODULES)
    assert spheremarket.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_home_modules_object(module):
    home = importlib.import_module(f"spheremarket.{module}")
    for name in EXPORTS[module]:
        assert getattr(spheremarket, name) is getattr(home, name), name


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_resolves_in_a_fresh_interpreter(module):
    # no prior import of the submodule: the attribute access loads it, and
    # binds it so the next access is a plain lookup
    code = f"""
import sys, spheremarket
print({module!r} in vars(spheremarket))
print(spheremarket.{module} is sys.modules["spheremarket.{module}"])
print(vars(spheremarket)[{module!r}] is sys.modules["spheremarket.{module}"])
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "True", "True"]


def test_dir_lists_every_name():
    assert set(NAMES + SUBMODULES + ["__version__"]) <= set(dir(spheremarket))


def test_star_import_binds_exactly_the_names():
    namespace = {}
    exec("from spheremarket import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES + SUBMODULES)


def test_unknown_name_raises_attribute_error_naming_it():
    assert not hasattr(spheremarket, "no_such_name")
    with pytest.raises(AttributeError, match="'no_such_name'"):
        spheremarket.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from spheremarket import no_such_name", {})
