"""Domain constructors built from Python reject NaN and infinities by field.

Config input is already rejected by the parser (exit 2); these are the
objects' own checks, so library callers get a ValueError naming the field
instead of a silent ``nan`` result.
"""

import math

import pytest

from spheremarket.market_sim import LocalRegime, MarketConfig, NewsSeries
from spheremarket.pricing import GbmParams, OptionSpec
from spheremarket.sphere_model import PiecewiseConstantRho, UniformRho

VALID = {
    OptionSpec: {"spot": 100.0, "strike": 100.0, "rate": 0.05, "sigma": 0.2, "tau": 1.0},
    GbmParams: {"s0": 100.0, "drift": 0.05, "sigma": 0.2, "horizon": 1.0, "steps": 10},
    NewsSeries: {"kind": "drift", "angle": 0.5, "rate": 0.01},
    MarketConfig: {"rho": UniformRho(), "n_steps": 10, "regime": LocalRegime(0.3), "seed": 0,
                   "price_min": 50.0, "price_max": 150.0},
}
FIELDS = [(cls, name) for cls, names in (
    (OptionSpec, ("spot", "strike", "rate", "sigma", "tau")),
    (GbmParams, ("s0", "drift", "sigma", "horizon")),
    (NewsSeries, ("angle", "rate")),
    (MarketConfig, ("price_min", "price_max")),
) for name in names]


def build(cls, name, value):
    if cls is PiecewiseConstantRho:
        if name == "breakpoints":
            return PiecewiseConstantRho([-1.0, value, 1.0], [1.0, 1.0])
        return PiecewiseConstantRho([-1.0, 0.0, 1.0], [1.0, value])
    return cls(**{**VALID[cls], name: value})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "cls,name",
    FIELDS + [(PiecewiseConstantRho, "breakpoints"), (PiecewiseConstantRho, "densities")],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_non_finite_field_rejected_by_name(cls, name, bad):
    build(cls, name, VALID.get(cls, {}).get(name, 0.5))  # a finite value is accepted
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        build(cls, name, bad)
