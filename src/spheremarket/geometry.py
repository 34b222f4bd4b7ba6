"""Unit-sphere vectors: construction, dot products, rotations, uniform sampling.

Directions and states are kept in Cartesian coordinates; polar angles appear
only at the API boundary (``from_polar``).  A point is an ``(x, y, z)`` tuple,
and ``UnitVector3`` is that tuple with its norm checked, so every function here
takes either.  The market's rotation chain (``_rotate_chain``) is one flat
loop on floats with Rodrigues' formula and the exact fused multiply-adds
written inline, so that a trade builds no ``UnitVector3`` and makes no
Python call of its own; ``_rotate`` is its one-step case.  The ``*_arrays``
kernels take each component as an array and give, lane by lane, the bits
of their scalar namesakes: the same operations in the same order, ``cos``
and ``sin`` through ``math`` and the fused multiply-add emulated exactly:
Dekker's product from ``_halves``, or ``_fma``'s rational sum if tiny.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

NORM_TOL = 1e-12
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_TINY_PRODUCT = 2.0 ** -900  # a margin above where Dekker's error term can underflow
_SLAB = 1024  # rows of step lists that ``_rotate_chain`` holds as Python floats at once


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
    bit-exactly; downstream collapse/repeatability logic relies on this.  A
    sum that is NaN or infinite raises ``ValueError`` rather than clamp: no
    unit vector gives one, and ``max(-1.0, nan)`` is -1.0.
    """
    ax, ay, az = a
    bx, by, bz = b
    if ax == bx and ay == by and az == bz:
        return 1.0
    if ax == -bx and ay == -by and az == -bz:
        return -1.0
    d = ax * bx + ay * by + az * bz
    if not math.isfinite(d):
        raise ValueError(f"dot of {tuple(a)} and {tuple(b)} is {'NaN' if d != d else repr(d)}")
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
    return _sphere_rows(z, rng.uniform(0.0, 2.0 * math.pi, size=n))


def _sphere_rows(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The (len(z), 3) array of the points at heights ``z`` and azimuths
    ``phi``: ``_on_sphere_arrays`` with numpy's ``cos`` and ``sin``, whose
    bits may differ from libm's."""
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack(_normalize_arrays(s * np.cos(phi), s * np.sin(phi), z))


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, from its exact rational value: the fused
    multiply-add for products below ``_TINY_PRODUCT``, zero factors
    included, where Dekker's split can lose bits to underflow.  An exact
    zero is IEEE's a * b + c, exact too and with the sign Fraction drops."""
    from fractions import Fraction  # this rare path alone needs it

    exact = Fraction(a) * Fraction(b) + Fraction(c)
    return float(exact) if exact else a * b + c


def _halves(a: np.ndarray) -> tuple:
    """Veltkamp's split of every element, the module's one: a high half of
    26 bits and the low rest, which sum to a exactly."""
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


def _fma_arrays(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``_fma`` lane by lane, as the emulated FMA of Boldo and Melquiond
    (*Emulation of FMA and correctly rounded sums: proved algorithms using
    rounding to odd*, IEEE TC 2008).

    Dekker's product of the ``_halves`` gives a * b exactly as p + e, and
    TwoSum gives c + p exactly as h + l.  Then l + e is rounded to odd: its
    round-to-nearest sum, moved one ulp towards the exact value when that
    sum is inexact and its significand even.  One round-to-nearest h + that
    gives a * b + c rounded once.  Lanes with a zero factor or a zero result
    take p + c in the array pass (news directions have y = +-0, so a global
    run's first call is all zero-factor lanes); only lanes whose nonzero
    product is below the underflow guard go through ``_fma``.
    """
    p = a * b
    ah, al = _halves(a)
    bh, bl = _halves(b)
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
    """Rotate ``v`` by ``angle`` about ``axis`` (Rodrigues), renormalized:
    the one-step ``_rotate_chain``."""
    row = _rotate_chain([v], tuple(np.array([k], float) for k in axis), np.array([angle], float))
    return tuple(row[0].tolist())


def _rotate_chain(starts: list, axis: tuple, angle: np.ndarray) -> np.ndarray:
    """Chains v_t = ``_rotate``(v_{t-1}, axis_t, angle_t), one per start, as
    the (len(starts) n, 3) array whose rows r n .. r n + n - 1 hold chain r's
    v_0 .. v_{n-1} from v_{-1} = ``starts[r]``.

    Each step waits for the one before, so the steps are one flat loop on
    floats that calls only ``math.fsum`` and ``math.sqrt``: Rodrigues' sum
    and the normalization in ``_rotate_arrays``'s operation order, and the
    dot k.v as the fused chain fma(kz, vz, fma(ky, vy, kx vx)) that BLAS
    once computed, made explicit so that the bits do not depend on the BLAS
    kernel.  Each fused multiply-add is one ``math.fsum`` of the addend and
    the four products of Veltkamp's halves (split as by ``_halves``), which
    are exact and sum to k_i v_i; an exact zero takes IEEE's p + q,
    and a product below the underflow guard, whose halves could lose bits,
    goes through ``_fma``.  The axis halves, ``cos``, ``sin`` and
    ``1 - cos`` come first in array passes over every chain.  The step
    columns become Python lists ``_SLAB`` rows at a time, and each slab's
    floats go straight into the array, so the Python floats never outgrow
    a slab.
    """
    kx, ky, kz = axis
    cos = _math_map(math.cos, angle)
    columns = (kx, ky, kz, *_halves(ky), *_halves(kz),
               cos, _math_map(math.sin, angle), 1.0 - cos)
    n = len(angle) // len(starts)
    out = np.empty((len(angle), 3))
    flat = out.reshape(-1)
    fsum, sqrt, fma, tiny, split = math.fsum, math.sqrt, _fma, _TINY_PRODUCT, _SPLIT
    for r, (vx, vy, vz) in enumerate(starts):
        end = r * n + n
        for lo in range(r * n, end, _SLAB):
            hi = min(lo + _SLAB, end)
            rows = []
            for kx, ky, kz, kyh, kyl, kzh, kzl, c, s, t in zip(*(a[lo:hi].tolist()
                                                                 for a in columns)):
                q = kx * vx
                p = ky * vy
                if abs(p) >= tiny:
                    w = split * vy
                    vh = w - (w - vy)
                    vl = vy - vh
                    q = fsum((kyh * vh, kyh * vl, kyl * vh, kyl * vl, q)) or p + q
                else:
                    q = fma(ky, vy, q)
                p = kz * vz
                if abs(p) >= tiny:
                    w = split * vz
                    vh = w - (w - vz)
                    vl = vz - vh
                    d = fsum((kzh * vh, kzh * vl, kzl * vh, kzl * vl, q)) or p + q
                else:
                    d = fma(kz, vz, q)
                x = (vx * c + (ky * vz - kz * vy) * s) + (kx * d) * t
                y = (vy * c + (kz * vx - kx * vz) * s) + (ky * d) * t
                z = (vz * c + (kx * vy - ky * vx) * s) + (kz * d) * t
                m = sqrt(x * x + y * y + z * z)
                vx = x / m
                vy = y / m
                vz = z / m
                rows += (vx, vy, vz)
            flat[3 * lo:3 * hi] = rows
    return out


def _rotate_arrays(v: tuple, axis: tuple, angle: np.ndarray) -> tuple:
    """``_rotate`` lane by lane."""
    vx, vy, vz = v
    kx, ky, kz = axis
    c = _math_map(math.cos, angle)
    s = _math_map(math.sin, angle)
    t = 1.0 - c
    d = _fma_arrays(kz, vz, _fma_arrays(ky, vy, kx * vx))
    return _normalize_arrays((vx * c + (ky * vz - kz * vy) * s) + (kx * d) * t,
                             (vy * c + (kz * vx - kx * vz) * s) + (ky * d) * t,
                             (vz * c + (kx * vy - ky * vx) * s) + (kz * d) * t)
