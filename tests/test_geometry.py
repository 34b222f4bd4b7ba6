import ctypes
import ctypes.util
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheremarket import geometry
from spheremarket.geometry import (
    _TINY_PRODUCT,
    UnitVector3,
    _fma,
    _dot_arrays,
    _fma_arrays,
    _on_sphere,
    _on_sphere_arrays,
    _polar,
    _polar_arrays,
    _rotate,
    _rotate_arrays,
    _rotate_chain,
    dot,
    from_polar,
    sample_uniform,
    sample_uniform_array,
)
from spheremarket.market_sim import GlobalRegime, MarketConfig, NewsSeries, run_market
from spheremarket.sphere_model import UniformRho

POLE = UnitVector3(0.0, 0.0, 1.0)


class TestConstruction:
    def test_pole(self):
        v = from_polar(0.0, 0.0)
        assert v == (0.0, 0.0, 1.0)

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
        assert all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12) for a, b in zip(v, w))


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

    @pytest.mark.parametrize("a", [(math.nan, 0.0, 0.0), (math.inf, 0.0, 0.0)])
    def test_nan_sum_raises_naming_both_vectors(self, a):
        # max(-1.0, nan) is -1.0, so a clamp alone would turn NaN into -1.0;
        # inf * 0.0 is NaN too
        with pytest.raises(ValueError, match=r"dot of \(.*\) and \(0\.0, 1\.0, 0\.0\) is NaN"):
            dot(a, (0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="is NaN"):
            dot((0.0, 1.0, 0.0), a)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_sum_raises_naming_both_vectors(self, sign):
        # clamped, an infinite sum read +-1: no unit vector has an infinite component
        a = (0.0, 0.0, sign * math.inf)
        with pytest.raises(ValueError, match=rf"dot of \(0\.0, 0\.0, {sign * math.inf!r}\) and "
                                             rf"\(0\.0, 0\.0, 1\.0\) is {sign * math.inf!r}"):
            dot(a, (0.0, 0.0, 1.0))


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

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 500_000))
    @example(seed=99, n=500_000)
    def test_array_bits_match_the_norm_division(self, seed, n):
        # the sampler once divided its stacked rows by np.linalg.norm; the
        # lane-by-lane _normalize_arrays must give the same bits
        def by_norm(rng, n):
            z = rng.uniform(-1.0, 1.0, size=n)
            phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
            s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
            out = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
            return out / np.linalg.norm(out, axis=1, keepdims=True)

        # the int64 views compare every bit, signed zeros included
        got = sample_uniform_array(np.random.default_rng(seed), n)
        want = by_norm(np.random.default_rng(seed), n)
        assert got.shape == want.shape == (n, 3)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestRotation:
    def test_quarter_turn_about_z(self):
        x_axis = UnitVector3(1.0, 0.0, 0.0)
        rotated = _rotate(x_axis, POLE, math.pi / 2)
        assert abs(rotated[0]) < 1e-12
        assert abs(rotated[1] - 1.0) < 1e-12

    def test_rotation_preserves_angle_to_axis(self):
        axis = from_polar(0.8, 1.1)
        v = from_polar(2.0, 0.3)
        before = math.acos(dot(v, axis))
        after = math.acos(dot(_rotate(v, axis, 1.7), axis))
        assert abs(before - after) < 1e-9

    def test_rotation_moves_by_at_most_its_angle(self):
        rng = np.random.default_rng(21)
        v = from_polar(0.5, 0.5)
        for _ in range(200):
            k, a = sample_uniform(rng), float(rng.uniform(0.0, 0.4))
            assert math.acos(dot(v, _rotate(v, k, a))) <= a + 1e-9


def exact_fma(a: float, b: float, c: float) -> float:
    """a * b + c from its exact rational value, rounded once.  An exact 0
    comes from IEEE's a * b + c, which is then exact too and carries the
    zero sign that ``Fraction`` drops."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    return float(exact) if exact else a * b + c


# doubles in [-1, 1] at every scale down to the subnormals, and signed zeros
unit_doubles = (st.floats(-1.0, 1.0)
                | st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 0))
                | st.sampled_from([0.0, -0.0]))
# factors whose products lie on both sides of the underflow guard of _fma
guard_factors = st.builds(math.ldexp, st.floats(0.5, 1.0) | st.floats(-1.0, -0.5),
                          st.integers(-540, -440))


def lane_fma(a: float, b: float, c: float) -> float:
    """``_fma_arrays`` on the one lane (a, b, c)."""
    return float(_fma_arrays(np.array([a]), np.array([b]), np.array([c]))[0])


class TestExactFma:
    """``_fma`` and, one lane at a time, ``_fma_arrays``."""

    @given(unit_doubles, unit_doubles, unit_doubles)
    @settings(max_examples=500, deadline=None)
    # c + a * b lies 2^-158 below a tie, the rounding error of a * b:
    # rounding the two low parts to nearest loses it and the tie goes up to
    # even, rounding them to odd keeps it
    @example(1.0 - 2.0 ** -52, 2.0 ** -54 + 2.0 ** -106, 0.5 + 2.0 ** -53)
    def test_rounds_once(self, a, b, c):
        assert _fma(a, b, c) == lane_fma(a, b, c) == exact_fma(a, b, c)

    @given(guard_factors, guard_factors, unit_doubles | guard_factors)
    @settings(max_examples=300, deadline=None)
    @example(math.ldexp(1.0, -450), math.ldexp(1.0, -450), 0.0)
    @example(math.ldexp(1.0, -451), -math.ldexp(1.0, -450), math.ldexp(1.0, -1074))
    # a * b rounds to 0.0 but tips 3.5 subnormal ulps up to 4: an underflowed
    # product is not an exact zero factor
    @example(math.ldexp(1.0, -537), math.ldexp(1.0, -538), math.ldexp(3.0, -1074))
    def test_rounds_once_around_the_underflow_guard(self, a, b, c):
        assert _fma(a, b, c) == lane_fma(a, b, c) == exact_fma(a, b, c)

    @given(guard_factors, guard_factors)
    @settings(max_examples=300, deadline=None)
    def test_keeps_the_rounding_error_of_tiny_products(self, a, b):
        # only a * b - round(a * b) is left, which Dekker's split loses to
        # underflow for products far enough below the guard
        assert _fma(a, b, -(a * b)) == lane_fma(a, b, -(a * b)) == exact_fma(a, b, -(a * b))

    @given(st.sampled_from([0.0, -0.0]), unit_doubles, unit_doubles, st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_zero_factor_lanes_never_reach_the_scalar_fma(self, zero, other, c, zero_first):
        a, b = (zero, other) if zero_first else (other, zero)
        with mock.patch.object(geometry, "_fma", side_effect=AssertionError):
            lane = lane_fma(a, b, c)
        # an exact zero product leaves c, and a zero sum is -0.0 only when
        # both the product and c are -0.0
        product_sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        want = c if c else (-0.0 if product_sign < 0 and math.copysign(1.0, c) < 0 else 0.0)
        assert _fma(a, b, c).hex() == lane.hex() == want.hex()

    def test_global_market_never_calls_the_scalar_fma(self):
        # news directions have y = +-0, so a global run hands _fma_arrays
        # zero-factor lanes, which must stay in its array pass
        cfg = MarketConfig(rho=UniformRho(), n_steps=2000, seed=5,
                           regime=GlobalRegime(news=NewsSeries(kind="drift", angle=0.3, rate=0.02),
                                               noise_angle=0.3))
        zero_lanes, fma_arrays = [], geometry._fma_arrays

        def counting(a, b, c):
            zero_lanes.append(int(((a == 0.0) | (b == 0.0)).sum()))
            return fma_arrays(a, b, c)

        want = run_market(cfg)
        with mock.patch.object(geometry, "_fma", side_effect=AssertionError), \
                mock.patch.object(geometry, "_fma_arrays", counting):
            got = run_market(cfg)
        assert sum(zero_lanes) >= cfg.n_steps
        assert [c.tobytes() for c in got._columns()] == [c.tobytes() for c in want._columns()]

    @pytest.mark.parametrize("a, b, c, want", [
        (-0.0, 1.0, -0.0, -0.0),
        (0.0, -1.0, -0.0, -0.0),
        (0.0, -1.0, 0.0, 0.0),
        (0.5, 0.5, -0.25, 0.0),
        (1e-200, -1e-200, 0.0, -0.0),
        (1e-200, 1e-200, -0.0, 0.0),
    ])
    def test_signed_zeros_follow_ieee(self, a, b, c, want):
        for got in (_fma(a, b, c), lane_fma(a, b, c)):
            assert got == 0.0 and math.copysign(1.0, got) == math.copysign(1.0, want)

    @given(st.lists(st.tuples(unit_doubles | guard_factors, unit_doubles | guard_factors,
                              unit_doubles | guard_factors), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_lanes_keep_the_scalar_bits(self, triples):
        # zero-factor, tiny and round-to-odd lanes side by side; the bits,
        # zero signs included, are the scalar _fma's
        a, b, c = (np.array(column) for column in zip(*triples))
        got = _fma_arrays(a, b, c)
        assert [float(r).hex() for r in got] == [_fma(*t).hex() for t in triples]

    def test_rounds_once_where_plain_arithmetic_rounds_twice(self):
        # every lane is a * b + c rounded once, and a plain a * b + c, which
        # rounds twice, misses some of them
        rng = np.random.default_rng(4)
        a, b, c = (rng.uniform(-1.0, 1.0, 20_000) for _ in range(3))
        got = _fma_arrays(a, b, c)
        assert got.tolist() == [exact_fma(*t) for t in zip(a.tolist(), b.tolist(), c.tolist())]
        assert (a * b + c != got).any()


def libm_fma():
    """The C library's ``fma``, rounded once by the platform."""
    fma = ctypes.CDLL(ctypes.util.find_library("m")).fma
    fma.restype = ctypes.c_double
    fma.argtypes = (ctypes.c_double,) * 3
    return fma


class TestFmaOracle:
    """``_fma`` and every lane of ``_fma_arrays`` against the C library's
    ``fma``, an implementation that shares none of their code."""

    def triples(self, n: int, seed: int) -> tuple:
        rng = np.random.default_rng(seed)
        # factors at every scale from 1 down to 2^-60, and some whose product
        # lies within 4 binades of the underflow guard on either side
        a, b = (np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-60, 1, n)) for _ in range(2))
        near = rng.random(n) < 0.1
        e = rng.integers(-454, -446, n)
        guard = math.frexp(_TINY_PRODUCT)[1]
        a[near] = np.ldexp(rng.uniform(0.5, 1.0, near.sum()) * rng.choice([-1.0, 1.0], near.sum()),
                           e[near])
        b[near] = np.ldexp(rng.uniform(0.5, 1.0, near.sum()) * rng.choice([-1.0, 1.0], near.sum()),
                           guard - e[near] + rng.integers(-4, 5, near.sum()))
        c = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-60, 1, n))
        cancel = rng.random(n) < 0.25  # c = -(a b) rounded: the result is a b's rounding error
        c[cancel] = -(a[cancel] * b[cancel])
        # a = 1 - u 2^-52, b = 2^-54 (1 + u 2^-52) and c = 0.5 + w 2^-53 with
        # w odd, scaled and signed together: c + a b lies u^2 2^-158 below a
        # tie, which a b rounded first would push up to even
        tie = rng.random(n) < 0.05
        u = rng.integers(1, 2 ** 20, tie.sum()).astype(float)
        scale = np.ldexp(rng.choice([-1.0, 1.0], tie.sum()), rng.integers(-60, 1, tie.sum()))
        a[tie] = 1.0 - u * 2.0 ** -52
        b[tie] = scale * (2.0 ** -54 + u * 2.0 ** -106)
        c[tie] = scale * (0.5 + (2 * rng.integers(0, 2 ** 51, tie.sum()) + 1) * 2.0 ** -53)
        for column in (a, b, c):  # signed zeros in every position
            zero = rng.random(n) < 0.02
            column[zero] = rng.choice([0.0, -0.0], zero.sum())
        return a, b, c

    def test_matches_libm_fma(self):
        a, b, c = self.triples(120_000, 2005)
        assert (np.abs(a * b) < 16 * _TINY_PRODUCT).sum() > 5_000
        fma = libm_fma()
        want = [fma(*t).hex() for t in zip(a.tolist(), b.tolist(), c.tolist())]
        assert [_fma(*t).hex() for t in zip(a.tolist(), b.tolist(), c.tolist())] == want
        assert [r.hex() for r in _fma_arrays(a, b, c).tolist()] == want


def reference_rotate(v: UnitVector3, k: UnitVector3, angle: float) -> UnitVector3:
    """Rodrigues in ``_rotate``'s operation order, each operation rounded from
    its exact rational value, the dot's products and sums fused."""
    def mul(a, b):  # an exact 0 takes IEEE's sign, as in exact_fma
        exact = Fraction(a) * Fraction(b)
        return float(exact) if exact else a * b

    def add(a, b):
        exact = Fraction(a) + Fraction(b)
        return float(exact) if exact else a + b

    c, s = math.cos(angle), math.sin(angle)
    d = exact_fma(k.z, v.z, exact_fma(k.y, v.y, mul(k.x, v.x)))
    cross = (add(mul(k.y, v.z), -mul(k.z, v.y)), add(mul(k.z, v.x), -mul(k.x, v.z)),
             add(mul(k.x, v.y), -mul(k.y, v.x)))
    t = add(1.0, -c)
    return UnitVector3.normalized(*(add(add(mul(vi, c), mul(xi, s)), mul(mul(ki, d), t))
                                    for vi, xi, ki in zip((v.x, v.y, v.z), cross,
                                                          (k.x, k.y, k.z))))


def columns(points) -> tuple:
    """The x, y and z arrays of a list of points."""
    return tuple(np.array(c) for c in zip(*points))


def hex_points(points) -> list:
    """Each point with each component as its hex string."""
    return [tuple(c.hex() for c in p) for p in points]


def rows(xyz: tuple) -> list:
    """``hex_points`` of the points whose x, y and z arrays are ``xyz``."""
    return hex_points(zip(*(a.tolist() for a in xyz)))


polar_points = st.builds(from_polar, st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))


class TestExactRotation:
    @given(polar_points, polar_points, st.floats(0.0, math.pi))
    @settings(max_examples=500, deadline=None)
    @example(POLE, POLE, 0.7)
    @example(POLE, -POLE, 0.7)
    @example(from_polar(1.0, 2.0), from_polar(2.0, 1.0), 0.0)
    @example(from_polar(0.0, 2.0), from_polar(0.0, 4.0), 0.0)  # x is -0.0
    def test_matches_exact_reference(self, v, k, angle):
        assert (hex_points([_rotate(v, k, angle)])
                == hex_points([reference_rotate(v, k, angle)]))

    def test_matches_exact_reference_on_random_draws(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            v, k = sample_uniform(rng), sample_uniform(rng)
            angle = float(rng.uniform(0.0, math.pi))
            assert (hex_points([_rotate(v, k, angle)])
                    == hex_points([reference_rotate(v, k, angle)]))


signs = st.sampled_from([1.0, -1.0])
chain_angles = st.sampled_from([0.0, math.pi / 2, math.pi]) | st.floats(0.0, math.pi)


def in_plane(phi: float, zero_sign: float, order: list) -> tuple:
    """The point (cos phi, sin phi, +-0.0), normalized, with its components
    put in ``order``; its two nonzero components are also returned."""
    a, b, _ = UnitVector3.normalized(math.cos(phi), math.sin(phi), 0.0)
    return arrange((a, b, math.copysign(0.0, zero_sign)), order), a, b


def arrange(xyz, order) -> UnitVector3:
    return UnitVector3(*(xyz[i] for i in order))


@st.composite
def zero_points(draw):
    """Unit points with exact zeros of either sign: the coordinate axes and
    points on the coordinate great circles."""
    phi = draw(st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, 2.0 * math.pi))
    v, _, _ = in_plane(phi, draw(signs), draw(st.permutations(range(3))))
    return UnitVector3(*(math.copysign(c, draw(signs)) for c in v))


@st.composite
def tiny_product_pairs(draw):
    """A start on a coordinate great circle and an axis close to that
    circle's pole, whose products with the start's nonzero components lie
    below the underflow guard of ``_fma`` (or just above it)."""
    order = draw(st.permutations(range(3)))
    v, a, b = in_plane(draw(st.floats(0.0, 2.0 * math.pi)), draw(signs), order)
    mu = math.ldexp(1.0, -draw(st.integers(880, 1074)))
    return v, arrange((mu * a, mu * b, draw(signs)), order)


@st.composite
def zero_dot_pairs(draw):
    """A start on a coordinate great circle and an axis whose two nonzero
    products with it cancel exactly, so that a fused multiply-add of k.v
    is an exact zero."""
    order = draw(st.permutations(range(3)))
    v, a, b = in_plane(draw(st.floats(0.0, 2.0 * math.pi)), draw(signs), order)
    lam = math.ldexp(draw(signs), -draw(st.integers(0, 20)))
    pole = math.copysign(math.sqrt(1.0 - lam * lam), draw(signs))
    return v, arrange((-lam * b, lam * a, pole), order)


@st.composite
def chain_members(draw, n: int):
    """A start and n (axis, angle) steps; the first axis may be made for
    the start, with products below the guard or a dot that cancels."""
    start = draw(polar_points | zero_points())
    steps = draw(st.lists(st.tuples(polar_points | zero_points(), chain_angles),
                          min_size=n, max_size=n))
    pair = draw(st.none() | tiny_product_pairs() | zero_dot_pairs())
    if pair is not None:
        start, axis = pair
        steps[0] = (axis, steps[0][1])
    return start, steps


def reference_chain(members) -> list:
    """Each member's states, stepped from its start by ``reference_rotate``."""
    states = []
    for v, steps in members:
        for k, angle in steps:
            v = reference_rotate(v, k, angle)
            states.append(v)
    return states


def fsum_with_negative_zero(real=math.fsum):
    """``math.fsum`` that gives -0.0 for an exact zero."""
    return lambda xs: real(xs) or -0.0


class TestRotationChain:
    """``_rotate_chain`` in bits against the exact reference, step by step."""

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(chain_members(n), min_size=1,
                                                        max_size=3)),
           st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    # a product of 2^-1030 sin^2(1): its four half-products lose bits to
    # underflow, so only _fma gives the once-rounded sum
    @example([(UnitVector3(math.cos(1.0), math.sin(1.0), 0.0),
               [(UnitVector3(math.ldexp(math.cos(1.0), -1030), math.ldexp(math.sin(1.0), -1030),
                             1.0), math.pi / 2)])], 1)
    def test_matches_stepping_the_exact_reference(self, members, slab):
        # slabs of a few rows, so that chains cross slab edges and members
        starts = [start for start, _ in members]
        axes = [k for _, steps in members for k, _ in steps]
        angles = np.array([angle for _, steps in members for _, angle in steps])
        with mock.patch.object(geometry, "_SLAB", slab):
            got = _rotate_chain(starts, columns(axes), angles)
        assert hex_points(got.tolist()) == hex_points(reference_chain(members))

    @given(zero_dot_pairs(), chain_angles)
    @settings(max_examples=300, deadline=None)
    # at angle 0 the z component is (-0.0 + -0.0) + (kz d) 0, whose zero
    # sign is the sign of d = 0.0 * -0.0 + fma(ky, vy, kx vx)
    @example((UnitVector3(0.6, 0.8, -0.0), UnitVector3(-0.8, 0.6, 0.0)), 0.0)
    def test_exact_zero_dot_takes_ieee_sign(self, pair, angle):
        # math.fsum gives +0.0 for an exact zero, as IEEE's p + q does when
        # p = -q; with an fsum that gave -0.0, the zero's sign still comes
        # from p + q
        start, axis = pair
        with mock.patch.object(math, "fsum", fsum_with_negative_zero()):
            got = _rotate_chain([start], columns([axis]), np.array([angle]))
        assert hex_points(got.tolist()) == hex_points([reference_rotate(start, axis, angle)])


class TestScalarFmaCallers:
    """``_fma`` is the exact rational path for products below
    ``_TINY_PRODUCT``, and its callers hand it no other product."""

    @staticmethod
    def spy():
        calls, fma = [], geometry._fma
        return calls, lambda a, b, c: calls.append((a, b)) or fma(a, b, c)

    @given(st.lists(st.tuples(unit_doubles | guard_factors, unit_doubles | guard_factors,
                              unit_doubles | guard_factors), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_fma_arrays(self, triples):
        calls, spy = self.spy()
        with mock.patch.object(geometry, "_fma", spy):
            _fma_arrays(*(np.array(column) for column in zip(*triples)))
        assert all(abs(a * b) < _TINY_PRODUCT for a, b in calls)

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(chain_members(n), min_size=1,
                                                        max_size=3)))
    @settings(max_examples=300, deadline=None)
    def test_rotate_chain(self, members):
        calls, spy = self.spy()
        axes = [k for _, steps in members for k, _ in steps]
        angles = np.array([angle for _, steps in members for _, angle in steps])
        with mock.patch.object(geometry, "_fma", spy):
            _rotate_chain([start for start, _ in members], columns(axes), angles)
        assert all(abs(a * b) < _TINY_PRODUCT for a, b in calls)


class TestArrayKernels:
    """Each ``*_arrays`` kernel gives, lane by lane, its scalar namesake's bits."""

    EDGE = [POLE, -POLE, UnitVector3(1.0, 0.0, 0.0), UnitVector3(0.0, -1.0, 0.0),
            from_polar(math.pi, 0.0), from_polar(math.pi / 2, 0.0)]

    def points(self, n: int, seed: int) -> list:
        rng = np.random.default_rng(seed)
        return self.EDGE + [tuple(sample_uniform(rng)) for _ in range(n)]

    def test_rotate(self):
        rng = np.random.default_rng(41)
        v, k = self.points(300, 1), self.points(300, 2)[::-1]
        angle = rng.uniform(0.0, math.pi, len(v))
        angle[:3] = [0.0, math.pi, 0.7]
        want = [_rotate(a, b, t) for a, b, t in zip(v, k, angle.tolist())]
        assert rows(_rotate_arrays(columns(v), columns(k), angle)) == hex_points(want)

    def test_dot_shortcuts_and_broadcast_axis(self):
        a = self.points(200, 3)
        b = a[:50] + [(-x, -y, -z) for x, y, z in a[50:100]] + self.points(200, 4)[100:]
        got = _dot_arrays(columns(a), columns(b))
        assert [d.hex() for d in got.tolist()] == [dot(p, q).hex() for p, q in zip(a, b)]
        got = _dot_arrays(columns(a), tuple(POLE))
        assert [d.hex() for d in got.tolist()] == [dot(p, POLE).hex() for p in a]

    def test_on_sphere_and_polar(self):
        rng = np.random.default_rng(5)
        z, phi = -1.0 + 2.0 * rng.random(300), 2.0 * math.pi * rng.random(300)
        z[:3] = [-1.0, 1.0, 0.0]
        want = [_on_sphere(a, b) for a, b in zip(z.tolist(), phi.tolist())]
        assert rows(_on_sphere_arrays(z, phi)) == hex_points(want)
        theta = np.concatenate(([0.0, math.pi / 2, math.pi, -math.pi], rng.uniform(-4, 4, 300)))
        for azimuth in (0.0, 2.5):
            want = [_polar(t, azimuth) for t in theta.tolist()]
            assert rows(_polar_arrays(theta, azimuth)) == hex_points(want)


class TestTupleRepresentation:
    """A UnitVector3 is the (x, y, z) tuple the kernels take, with its norm checked."""

    @given(polar_points, polar_points, st.floats(0.0, math.pi))
    @settings(max_examples=200, deadline=None)
    @example(POLE, POLE, 0.7)
    @example(POLE, -POLE, 0.7)
    def test_vectors_and_bare_tuples_give_the_same_bits(self, v, u, angle):
        plain_v, plain_u = tuple(v), tuple(u)
        assert dot(v, u).hex() == dot(plain_v, plain_u).hex()
        assert ([c.hex() for c in _rotate(v, u, angle)]
                == [c.hex() for c in _rotate(plain_v, plain_u, angle)])

    def test_equal_and_hashed_as_its_tuple(self):
        v = from_polar(1.0, 2.0)
        plain = (v.x, v.y, v.z)
        assert isinstance(v, tuple) and tuple(v) == plain
        assert v == plain and hash(v) == hash(plain)
        assert repr(v) == f"UnitVector3(x={v.x!r}, y={v.y!r}, z={v.z!r})"
        assert UnitVector3(x=v.x, y=v.y, z=v.z) == v

    def test_negation_is_exact(self):
        w = -UnitVector3(0.6, 0.0, -0.8)
        assert type(w) is UnitVector3
        assert [c.hex() for c in w] == [(-0.6).hex(), (-0.0).hex(), (0.8).hex()]

    @given(polar_points)
    @settings(max_examples=200, deadline=None)
    @example(UnitVector3(0.6, 0.0, -0.8))
    @example(UnitVector3(1.0 + 4e-13, -0.0, 0.0))  # norm off 1 by the tolerance's edge
    def test_negation_skips_the_check_it_would_pass(self, v):
        # -v is built without the norm check; negation is exact, so it has
        # v's squared norm and is the vector the checked constructor builds
        w = -v
        assert type(w) is UnitVector3
        assert [c.hex() for c in w] == [c.hex() for c in UnitVector3(-v.x, -v.y, -v.z)]
        assert [c.hex() for c in -w] == [c.hex() for c in v]

    def test_immutable(self):
        with pytest.raises(AttributeError):
            POLE.x = 1.0
        with pytest.raises(TypeError):
            POLE[0] = 1.0

    def test_replace_builds_a_checked_vector(self):
        assert POLE._replace(z=-1.0) == (0.0, 0.0, -1.0)

    @pytest.mark.parametrize("build", [
        lambda: UnitVector3(x=math.nan, y=0.0, z=1.0),
        lambda: UnitVector3._make((1.0, 1.0, 0.0)),
        lambda: POLE._replace(x=1.0),
        lambda: POLE._replace(z=math.nan),
    ], ids=["keywords_nan", "make", "replace", "replace_nan"])
    def test_every_construction_checks_the_norm(self, build):
        with pytest.raises(ValueError, match="not a unit vector"):
            build()
