import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheremarket import geometry
from spheremarket.geometry import (
    UnitVector3,
    _fma,
    angle_between,
    dot,
    from_polar,
    perturb,
    perturb_by,
    rotate,
    sample_uniform,
    sample_uniform_array,
)

POLE = UnitVector3(0.0, 0.0, 1.0)


class TestConstruction:
    def test_pole(self):
        v = from_polar(0.0, 0.0)
        assert (v.x, v.y, v.z) == (0.0, 0.0, 1.0)

    def test_antipode(self):
        v = from_polar(math.pi, 0.0)
        assert abs(v.x) < 1e-12 and abs(v.y) < 1e-12
        assert abs(v.z + 1.0) < 1e-12

    def test_equator(self):
        v = from_polar(math.pi / 2, 0.0)
        assert abs(v.x - 1.0) < 1e-12 and abs(v.y) < 1e-12 and abs(v.z) < 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            UnitVector3(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            UnitVector3.normalized(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("build", [
        lambda: UnitVector3(math.nan, 0.0, 0.0),
        lambda: from_polar(math.nan, 0.0),
        lambda: UnitVector3.normalized(math.inf, 0.0, 0.0),
    ], ids=["nan_component", "nan_polar", "inf_normalized"])
    def test_nan_rejected(self, build):
        # abs(n2 - 1) > tol is False for a NaN norm, which once let these through
        with pytest.raises(ValueError, match="not a unit vector"):
            build()

    def test_normalized_accepts_any_scale(self):
        v = UnitVector3.normalized(3.0, -4.0, 12.0)
        assert abs(v.x ** 2 + v.y ** 2 + v.z ** 2 - 1.0) < 1e-12

    @given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3)
           .filter(lambda xyz: any(xyz)))
    # sums of squares that underflow to 0 or to a subnormal, or overflow
    @example((1e-170, 0.0, 0.0))
    @example((5e-324, -5e-324, 0.0))
    @example((-1e-160, 0.0, 0.0))
    @example((1e308, 0.0, 0.0))
    @example((1e200, 1e200, 0.0))
    @example((1e308, -1e308, 1e308))
    def test_finite_nonzero_triple_normalizes_to_its_rescaled_direction(self, xyz):
        scale = max(map(abs, xyz))
        v = UnitVector3.normalized(*xyz)
        w = UnitVector3.normalized(*(c / scale for c in xyz))
        assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
                   for a, b in zip((v.x, v.y, v.z), (w.x, w.y, w.z)))


class TestDot:
    def test_self_is_exactly_one(self):
        v = from_polar(1.234, 0.717)
        assert dot(v, v) == 1.0

    def test_antipode_is_exactly_minus_one(self):
        v = from_polar(1.234, 0.717)
        assert dot(v, -v) == -1.0

    def test_sixty_degrees(self):
        assert abs(dot(from_polar(math.pi / 3, 0.0), POLE) - 0.5) < 1e-12

    @given(st.floats(0, math.pi), st.floats(0, 2 * math.pi),
           st.floats(0, math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_clamped(self, t1, p1, t2, p2):
        assert abs(dot(from_polar(t1, p1), from_polar(t2, p2))) <= 1.0

    def test_double_negation_round_trips(self):
        v = from_polar(0.3, 2.2)
        assert -(-v) == v


class TestUniformSampler:
    def test_golden_value_seed_12345(self):
        # record-and-freeze determinism oracle, fixed at first run
        v = sample_uniform(np.random.default_rng(12345))
        assert v.x == -0.3413769349617228
        assert v.y == 0.7655581034121737
        assert v.z == -0.5453279550656607

    def test_norm_one(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v = sample_uniform(rng)
            assert abs(v.x ** 2 + v.y ** 2 + v.z ** 2 - 1.0) < 1e-12

    def test_component_means_vanish(self):
        rng = np.random.default_rng(99)
        samples = sample_uniform_array(rng, 10 ** 6)
        # each component has variance 1/3; 4 sigma of the mean is ~0.0023
        assert np.all(np.abs(samples.mean(axis=0)) < 0.004)

    @pytest.mark.parametrize("c", [-0.5, 0.0, 0.5])
    def test_cap_fractions(self, c):
        rng = np.random.default_rng(123)
        n = 10 ** 6
        z = sample_uniform_array(rng, n)[:, 2]
        p = (1.0 - c) / 2.0
        frac = np.mean(z > c)
        assert abs(frac - p) < 4.0 * math.sqrt(p * (1 - p) / n)

    def test_array_norms(self):
        samples = sample_uniform_array(np.random.default_rng(5), 1000)
        assert np.max(np.abs(np.linalg.norm(samples, axis=1) - 1.0)) < 1e-12


class TestRotation:
    def test_quarter_turn_about_z(self):
        x_axis = UnitVector3(1.0, 0.0, 0.0)
        rotated = rotate(x_axis, POLE, math.pi / 2)
        assert abs(rotated.x) < 1e-12
        assert abs(rotated.y - 1.0) < 1e-12

    def test_rotation_preserves_angle_to_axis(self):
        axis = from_polar(0.8, 1.1)
        v = from_polar(2.0, 0.3)
        before = angle_between(v, axis)
        after = angle_between(rotate(v, axis, 1.7), axis)
        assert abs(before - after) < 1e-9

    def test_perturb_zero_is_identity(self):
        v = from_polar(1.0, 1.0)
        assert perturb(v, 0.0, np.random.default_rng(0)) is v

    def test_perturb_bounded_angle(self):
        rng = np.random.default_rng(21)
        v = from_polar(0.5, 0.5)
        for _ in range(200):
            w = perturb(v, 0.4, rng)
            assert angle_between(v, w) <= 0.4 + 1e-9

    def test_perturb_is_perturb_by_of_its_draws(self):
        v = from_polar(0.5, 0.5)
        drawn, replayed = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(50):
            z, phi, angle = replayed.random(3)
            assert perturb(v, 0.4, drawn) == perturb_by(v, -1.0 + 2.0 * z, 2.0 * math.pi * phi,
                                                        0.4 * angle)


def exact_fma(a: float, b: float, c: float) -> float:
    """a * b + c from its exact rational value, rounded once."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


# doubles in [-1, 1] at every scale down to the subnormals, and signed zeros
unit_doubles = (st.floats(-1.0, 1.0)
                | st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 0))
                | st.sampled_from([0.0, -0.0]))
# factors whose products lie on both sides of the underflow guard of _fma
guard_factors = st.builds(math.ldexp, st.floats(0.5, 1.0) | st.floats(-1.0, -0.5),
                          st.integers(-540, -440))


class TestExactFma:
    @given(unit_doubles, unit_doubles, unit_doubles)
    @settings(max_examples=500, deadline=None)
    def test_rounds_once(self, a, b, c):
        assert _fma(a, b, c) == exact_fma(a, b, c)

    @given(guard_factors, guard_factors, unit_doubles | guard_factors)
    @settings(max_examples=300, deadline=None)
    @example(math.ldexp(1.0, -450), math.ldexp(1.0, -450), 0.0)
    @example(math.ldexp(1.0, -451), -math.ldexp(1.0, -450), math.ldexp(1.0, -1074))
    # a * b rounds to 0.0 but tips 3.5 subnormal ulps up to 4: an underflowed
    # product is not an exact zero factor
    @example(math.ldexp(1.0, -537), math.ldexp(1.0, -538), math.ldexp(3.0, -1074))
    def test_rounds_once_around_the_underflow_guard(self, a, b, c):
        assert _fma(a, b, c) == exact_fma(a, b, c)

    @given(guard_factors, guard_factors)
    @settings(max_examples=300, deadline=None)
    def test_keeps_the_rounding_error_of_tiny_products(self, a, b):
        # only a * b - round(a * b) is left, which Dekker's split loses to
        # underflow for products far enough below the guard
        assert _fma(a, b, -(a * b)) == exact_fma(a, b, -(a * b))

    @given(st.sampled_from([0.0, -0.0]), unit_doubles, unit_doubles, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_zero_factor_skips_the_rational_sum(self, zero, other, c, zero_first):
        a, b = (zero, other) if zero_first else (other, zero)
        with mock.patch.object(geometry, "Fraction", side_effect=AssertionError):
            got = _fma(a, b, c)
        # an exact zero product leaves c, and a zero sum is -0.0 only when
        # both the product and c are -0.0
        product_sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        want = c if c else (-0.0 if product_sign < 0 and math.copysign(1.0, c) < 0 else 0.0)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    @pytest.mark.parametrize("a, b, c, want", [
        (-0.0, 1.0, -0.0, -0.0),
        (0.0, -1.0, -0.0, -0.0),
        (0.0, -1.0, 0.0, 0.0),
        (0.5, 0.5, -0.25, 0.0),
        (1e-200, -1e-200, 0.0, -0.0),
        (1e-200, 1e-200, -0.0, 0.0),
    ])
    def test_signed_zeros_follow_ieee(self, a, b, c, want):
        got = _fma(a, b, c)
        assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, want)


def reference_rotate(v: UnitVector3, k: UnitVector3, angle: float) -> UnitVector3:
    """Rodrigues in rotate's operation order, each operation rounded from
    its exact rational value, the dot's products and sums fused."""
    def mul(a, b):
        return float(Fraction(a) * Fraction(b))

    def add(a, b):
        return float(Fraction(a) + Fraction(b))

    c, s = math.cos(angle), math.sin(angle)
    d = exact_fma(k.z, v.z, exact_fma(k.y, v.y, mul(k.x, v.x)))
    cross = (add(mul(k.y, v.z), -mul(k.z, v.y)), add(mul(k.z, v.x), -mul(k.x, v.z)),
             add(mul(k.x, v.y), -mul(k.y, v.x)))
    t = add(1.0, -c)
    return UnitVector3.normalized(*(add(add(mul(vi, c), mul(xi, s)), mul(mul(ki, d), t))
                                    for vi, xi, ki in zip((v.x, v.y, v.z), cross,
                                                          (k.x, k.y, k.z))))


polar_points = st.builds(from_polar, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


class TestExactRotation:
    @given(polar_points, polar_points, st.floats(0.0, math.pi))
    @settings(max_examples=500, deadline=None)
    @example(POLE, POLE, 0.7)
    @example(POLE, -POLE, 0.7)
    @example(from_polar(1.0, 2.0), from_polar(2.0, 1.0), 0.0)
    def test_matches_exact_reference(self, v, k, angle):
        got, want = rotate(v, k, angle), reference_rotate(v, k, angle)
        assert (got.x, got.y, got.z) == (want.x, want.y, want.z)

    def test_matches_exact_reference_on_random_draws(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            v, k = sample_uniform(rng), sample_uniform(rng)
            angle = float(rng.uniform(0.0, math.pi))
            assert rotate(v, k, angle) == reference_rotate(v, k, angle)
