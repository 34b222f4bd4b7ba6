#!/usr/bin/env python3
"""Elastic sphere measurements.

A trade along direction u stretches an elastic between u and -u; the state
vector drops orthogonally onto it and the elastic snaps at a point drawn
from a density rho.  The outcome probabilities are CDF evaluations at v.u,
so the choice of rho interpolates between a deterministic classical price
and fully quantum-looking statistics.
"""

import math

import numpy as np

from spheremarket import (
    DeltaRho,
    PiecewiseConstantRho,
    TruncatedGaussianRho,
    UniformRho,
    UnitVector3,
    from_polar,
    measurement_counts,
    simulate_measurement,
    transition_probabilities,
)

POLE = UnitVector3(0.0, 0.0, 1.0)

elastics = {
    "uniform": UniformRho(),
    "delta(0)": DeltaRho(0.0),
    "piecewise": PiecewiseConstantRho([-1.0, 0.0, 1.0], [1.0, 3.0]),
    "gauss(0, 0.3)": TruncatedGaussianRho(center=0.0, width=0.3),
}

print("=== P[outcome O1] vs angle between state and context ===")
header = "theta(deg) " + "".join(f"{name:>16}" for name in elastics)
print(header)
for deg in range(0, 181, 30):
    state = from_polar(math.radians(deg), 0.0)
    row = f"{deg:>10} "
    for rho in elastics.values():
        p1, _ = transition_probabilities(rho, state, POLE)
        row += f"{p1:>16.4f}"
    print(row)
print("the uniform elastic reproduces cos^2(theta/2), the spin-1/2 law;")
print("the delta elastic is the classical limit: outcomes are predetermined")

print("\n=== Monte Carlo frequencies converge to the analytic law ===")
state = from_polar(math.pi / 3, 0.0)  # 60 degrees: analytic p1 = 0.75
for n in (100, 10_000, 1_000_000):
    freq = measurement_counts(UniformRho(), state, POLE, n, seed=5)[0] / n
    print(f"n = {n:>9,}: freq(O1) = {freq:.4f}")

print("\n=== collapse and repeatability ===")
rng = np.random.default_rng(3)
out = simulate_measurement(UniformRho(), state, POLE, rng)
print(f"first trade : outcome {out.label}, break point {out.break_point:+.4f}")
repeat = simulate_measurement(UniformRho(), out.collapsed_state, POLE, rng)
print(f"second trade: outcome {repeat.label} (guaranteed: state is now an eigenstate)")

print("\n=== sequential agreement between two contexts ===")
for deg in (0, 60, 90, 120, 180):
    # a prior trade along POLE left the state at POLE
    q, _ = transition_probabilities(UniformRho(), POLE, from_polar(math.radians(deg), 0.0))
    print(f"angle {deg:>3}: agreement probability {q:.4f}")
