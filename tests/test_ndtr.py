"""The scalar Cephes ports against the installed scipy, bit for bit.

Results are compared as int64 views, so a last-bit difference, a signed
zero or a NaN payload counts as a mismatch.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from spheremarket import ndtr as port
from spheremarket.pricing import norm_cdf

# |x| = 1 and 8 switch erfc's rational form; past sqrt(MAXLOG) exp(-x^2)
# underflows.  ndtr reaches the same branches at sqrt(2) times these.
_EDGES = np.array([1.0, 8.0, math.sqrt(port.MAXLOG), 26.64])
_EDGES = np.concatenate([_EDGES, _EDGES * math.sqrt(2.0)])


def _around(points: np.ndarray, ulps: int = 4) -> np.ndarray:
    """``points`` and their ``ulps`` nearest neighbours on each side."""
    out = [points]
    up, down = points.copy(), points.copy()
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _grid() -> np.ndarray:
    rng = np.random.default_rng(20110101)
    magnitudes = np.concatenate([
        _around(_EDGES),
        np.linspace(0.0, 40.0, 60_001),
        np.geomspace(5e-324, 1.0, 20_000),  # subnormals up to 1
        np.abs(rng.standard_normal(20_000)) * 6.0,
        [2.2250738585072014e-308, 1e300, np.finfo(float).max, np.inf],
    ])
    return np.concatenate([magnitudes, -magnitudes, [np.nan]])


GRID = _grid()


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _mismatches(mine, reference, points) -> list:
    bad = _bits(mine) != _bits(reference)
    return points[bad][:10].tolist()


def test_grid_covers_the_edges():
    assert GRID.size > 200_000
    for point in (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -8.0, 26.64, -26.64):
        assert np.any(_bits(GRID) == _bits(point)), point
    assert np.isnan(GRID).any()


@pytest.mark.parametrize("name", ["erfc", "ndtr", "erf"])
def test_grid_bit_for_bit(name):
    mine = [getattr(port, name)(x) for x in GRID.tolist()]
    reference = getattr(scipy.special, name)(GRID)
    assert _mismatches(mine, reference, GRID) == []


@pytest.mark.parametrize("name", ["erfc", "ndtr", "erf"])
@given(x=st.floats(allow_nan=True, allow_infinity=True))
@settings(max_examples=300, deadline=None)
def test_any_float_bit_for_bit(name, x):
    assert _bits(getattr(port, name)(x)) == _bits(getattr(scipy.special, name)(x))


def test_norm_cdf_keeps_its_scipy_formula():
    reference = 0.5 * scipy.special.erfc(-GRID / math.sqrt(2.0))
    mine = [norm_cdf(t) for t in GRID.tolist()]
    assert _mismatches(mine, reference, GRID) == []
