"""Unit-sphere vectors: construction, dot products, rotations, uniform sampling.

Directions and states are kept in Cartesian coordinates; polar angles appear
only at the API boundary (``from_polar``).  A point is an ``(x, y, z)`` tuple,
and ``UnitVector3`` is that tuple with its norm checked, so every function here
takes either.  The market's rotation chain (``_rotate_chain``) runs the
unchecked kernel ``_rodrigues`` on floats, so that a trade builds no
``UnitVector3``.  The ``*_arrays`` kernels take each component as an array
and give, lane by lane, the bits of their scalar namesakes: the same
operations in the same order, ``cos`` and ``sin`` through ``math`` and the
fused multiply-add emulated exactly.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

NORM_TOL = 1e-12
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_TINY_PRODUCT = 2.0 ** -900  # a margin above where Dekker's error term can underflow


class UnitVector3(namedtuple("UnitVector3", "x y z")):
    """A point on the unit sphere: an (x, y, z) tuple of norm 1 within 1e-12,
    checked by every way of building one (constructor, ``_make``, ``_replace``)."""

    __slots__ = ()

    def __new__(cls, x: float, y: float, z: float) -> "UnitVector3":
        n2 = x * x + y * y + z * z
        if not abs(n2 - 1.0) <= NORM_TOL:  # also rejects NaN
            raise ValueError(f"not a unit vector: |v|^2 = {n2!r}")
        return super().__new__(cls, x, y, z)

    @classmethod
    def _make(cls, iterable) -> "UnitVector3":
        return cls(*iterable)

    @staticmethod
    def normalized(x: float, y: float, z: float) -> "UnitVector3":
        """(x, y, z) scaled to norm 1; a finite nonzero vector whose sum of
        squares under- or overflows is first divided by its largest |component|."""
        try:
            return UnitVector3(*_normalize(x, y, z))
        except ValueError:
            scale = max(abs(x), abs(y), abs(z))
            if not 0.0 < scale < math.inf:
                raise
            return UnitVector3(*_normalize(x / scale, y / scale, z / scale))

    def __neg__(self) -> "UnitVector3":
        # Component negation is exact in IEEE arithmetic, so -v has v's
        # squared norm and needs no check, and -(-v) == v.
        return tuple.__new__(UnitVector3, (-self.x, -self.y, -self.z))


def _normalize(x: float, y: float, z: float) -> tuple:
    """(x, y, z) scaled to norm 1; ValueError for the zero vector."""
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return x / n, y / n, z / n


def _normalize_arrays(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> tuple:
    """``_normalize`` lane by lane."""
    n = np.sqrt(x * x + y * y + z * z)
    if not n.all():
        raise ValueError("cannot normalize the zero vector")
    return x / n, y / n, z / n


def _math_map(f, x: np.ndarray) -> np.ndarray:
    """The scalar ``f`` of ``math`` on every element, so the bits are libm's
    and never depend on which SIMD kernels numpy picked for this CPU."""
    return np.fromiter(map(f, x.tolist()), float, len(x))


def _check_unit_rows(v: np.ndarray):
    """``UnitVector3``'s norm check on every row of an (n, 3) array at once,
    with the same left-to-right sum of squares."""
    n2 = v[:, 0] * v[:, 0] + v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2]
    bad = ~(np.abs(n2 - 1.0) <= NORM_TOL)  # also rejects NaN
    if bad.any():
        raise ValueError(f"not a unit vector: |v|^2 = {float(n2[bad.argmax()])!r}")


def _polar(theta: float, phi: float) -> tuple:
    st = math.sin(theta)
    return _normalize(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def _polar_arrays(theta: np.ndarray, phi: float) -> tuple:
    """``_polar`` lane by lane, at one azimuth."""
    st = _math_map(math.sin, theta)
    return _normalize_arrays(st * math.cos(phi), st * math.sin(phi), _math_map(math.cos, theta))


def from_polar(theta: float, phi: float) -> UnitVector3:
    """Direction at polar angle ``theta`` from +z and azimuth ``phi``."""
    return UnitVector3(*_polar(theta, phi))


def dot(a: tuple, b: tuple) -> float:
    """Inner product of two unit vectors, clamped into [-1, 1].

    Exact-alignment shortcuts make dot(v, v) == 1.0 and dot(v, -v) == -1.0
    bit-exactly; downstream collapse/repeatability logic relies on this.
    """
    ax, ay, az = a
    bx, by, bz = b
    if ax == bx and ay == by and az == bz:
        return 1.0
    if ax == -bx and ay == -by and az == -bz:
        return -1.0
    d = ax * bx + ay * by + az * bz
    return min(1.0, max(-1.0, d))


def _dot_arrays(a: tuple, b: tuple) -> np.ndarray:
    """``dot`` lane by lane, shortcuts and clamp included; either argument
    may hold plain floats, which broadcast."""
    ax, ay, az = a
    bx, by, bz = b
    d = np.clip(ax * bx + ay * by + az * bz, -1.0, 1.0)
    d[(ax == -bx) & (ay == -by) & (az == -bz)] = -1.0
    d[(ax == bx) & (ay == by) & (az == bz)] = 1.0  # checked first by ``dot``, so it wins
    return d


def _on_sphere(z: float, phi: float) -> tuple:
    """The point at height ``z`` and azimuth ``phi``."""
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return _normalize(s * math.cos(phi), s * math.sin(phi), z)


def _on_sphere_arrays(z: np.ndarray, phi: np.ndarray) -> tuple:
    """``_on_sphere`` lane by lane (``1 - z z`` is never -0.0, so the max
    picks the same value as Python's)."""
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return _normalize_arrays(s * _math_map(math.cos, phi), s * _math_map(math.sin, phi), z)


def sample_uniform(rng: np.random.Generator) -> UnitVector3:
    """One draw from the uniform distribution on the sphere.

    Uses the (z, phi) construction: z ~ U[-1, 1), phi ~ U[0, 2pi); exactly
    two uniform draws per sample, which keeps batch streams reproducible.
    """
    return UnitVector3(*_on_sphere(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi)))


def sample_uniform_array(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) array of uniform sphere samples.

    Draws z and phi in blocks; deterministic for a given generator state but
    not interleaved like repeated ``sample_uniform`` calls.
    """
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack(_normalize_arrays(s * np.cos(phi), s * np.sin(phi), z))


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as a fused multiply-add, for |a|, |b| <= 1.

    Dekker's product gives a * b exactly as p + e, and ``math.fsum`` rounds
    p + e + c once.  Products too small for an exact split take the exact
    rational sum instead, unless a factor is zero: then p is the exact
    product and p + c is already the once-rounded sum.  An exact zero keeps
    IEEE's sign rules, which the plain p + c follows whenever the sum is zero.
    """
    p = a * b
    if not abs(p) >= _TINY_PRODUCT:
        if a == 0.0 or b == 0.0:
            return p + c
        from fractions import Fraction  # this rare path alone needs it

        exact = Fraction(a) * Fraction(b) + Fraction(c)
        return float(exact) if exact else p + c
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return math.fsum((p, e, c)) or p + c


def _fma_arrays(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``_fma`` lane by lane, as the emulated FMA of Boldo and Melquiond
    (*Emulation of FMA and correctly rounded sums: proved algorithms using
    rounding to odd*, IEEE TC 2008).

    Dekker's product gives a * b exactly as p + e and TwoSum gives c + p
    exactly as h + l.  Then l + e is rounded to odd: its round-to-nearest
    sum, moved one ulp towards the exact value when that sum is inexact and
    its significand even.  One round-to-nearest h + that gives a * b + c
    rounded once.  Lanes with a zero factor or a zero result take p + c, as
    ``_fma`` does, and lanes whose product is below the underflow guard go
    through ``_fma`` itself.
    """
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    h = c + p
    t = h - c
    lo = (c - (h - t)) + (p - t)
    s = lo + e
    t = s - lo
    err = (lo - (s - t)) + (e - t)
    even = (s.view(np.int64) & 1) == 0
    s = np.where((err != 0.0) & even, np.nextafter(s, np.copysign(np.inf, err)), s)
    r = h + s
    zero_factor = (a == 0.0) | (b == 0.0)
    plain = zero_factor | (r == 0.0)
    r[plain] = (p + c)[plain]
    for i in np.flatnonzero(~(np.abs(p) >= _TINY_PRODUCT) & ~zero_factor):
        r[i] = _fma(float(a[i]), float(b[i]), float(c[i]))
    return r


def _rotate(v: tuple, axis: tuple, angle: float) -> tuple:
    """Rotate ``v`` by ``angle`` about ``axis`` (Rodrigues), renormalized."""
    c = math.cos(angle)
    return _rodrigues(v, axis, c, math.sin(angle), 1.0 - c)


def _rodrigues(v: tuple, axis: tuple, c: float, s: float, t: float,
               fma=_fma, normalize=_normalize) -> tuple:
    """``_rotate`` by the angle whose cos, sin and 1 - cos are given.  The dot
    k.v is the fused chain fma(kz, vz, fma(ky, vy, kx vx)) that BLAS once
    computed, made explicit so that the bits do not depend on the BLAS kernel.
    With ``_fma_arrays`` and ``_normalize_arrays`` it runs lane by lane."""
    vx, vy, vz = v
    kx, ky, kz = axis
    d = fma(kz, vz, fma(ky, vy, kx * vx))
    return normalize((vx * c + (ky * vz - kz * vy) * s) + (kx * d) * t,
                     (vy * c + (kz * vx - kx * vz) * s) + (ky * d) * t,
                     (vz * c + (kx * vy - ky * vx) * s) + (kz * d) * t)


def _rotate_chain(starts: list, axis: tuple, angle: np.ndarray) -> np.ndarray:
    """Chains v_t = ``_rotate``(v_{t-1}, axis_t, angle_t), one per start, as
    the (len(starts) n, 3) array whose rows r n .. r n + n - 1 hold chain r's
    v_0 .. v_{n-1} from v_{-1} = ``starts[r]``.  Each step waits for the one
    before, so only ``_rodrigues`` stays in the loop; ``cos``, ``sin`` and
    ``1 - cos`` come first, lane by lane over every chain.  The array is
    filled in one pass over the flattened floats: the values of
    ``np.array(chain)`` in about half its copy time."""
    cos = _math_map(math.cos, angle)
    steps = zip(zip(*(a.tolist() for a in axis)), cos.tolist(),
                _math_map(math.sin, angle).tolist(), (1.0 - cos).tolist())
    n = len(angle) // len(starts)
    chain = []
    for v in starts:
        for k, c, s, t in itertools.islice(steps, n):
            v = _rodrigues(v, k, c, s, t)
            chain.append(v)
    del steps  # free the step lists before the chain's array copy
    return np.fromiter(itertools.chain.from_iterable(chain), float, 3 * len(chain)).reshape(-1, 3)


def _rotate_arrays(v: tuple, axis: tuple, angle: np.ndarray) -> tuple:
    """``_rotate`` lane by lane."""
    c = _math_map(math.cos, angle)
    return _rodrigues(v, axis, c, _math_map(math.sin, angle), 1.0 - c,
                      _fma_arrays, _normalize_arrays)
