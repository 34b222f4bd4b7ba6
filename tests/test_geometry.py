import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremarket.geometry import (
    UnitVector3,
    angle_between,
    dot,
    from_polar,
    perturb,
    polar_angle,
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

    @given(st.floats(0, math.pi), st.floats(0, 2 * math.pi))
    @settings(max_examples=200, deadline=None)
    def test_polar_round_trip(self, theta, phi):
        assert abs(polar_angle(from_polar(theta, phi)) - theta) < 1e-9


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
