"""Unit-sphere vectors: construction, dot products, rotations, uniform sampling.

Directions and states are kept in Cartesian coordinates; polar angles appear
only at the API boundary (``from_polar``).  The arithmetic lives in private
kernels on ``(x, y, z)`` float tuples (``_normalize``, ``_dot``, ``_rotate``):
the public functions wrap them in ``UnitVector3``s, and the market's trade
loop calls them directly so that a trade builds no ``UnitVector3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

NORM_TOL = 1e-12
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter for 53-bit doubles
_TINY_PRODUCT = 2.0 ** -900  # a margin above where Dekker's error term can underflow


@dataclass(frozen=True)
class UnitVector3:
    """A point on the unit sphere. Components must have norm 1 within 1e-12."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        n2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not abs(n2 - 1.0) <= NORM_TOL:  # also rejects NaN
            raise ValueError(f"not a unit vector: |v|^2 = {n2!r}")

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
        # Component negation is exact in IEEE arithmetic, so -(-v) == v.
        return UnitVector3(-self.x, -self.y, -self.z)

    def dot(self, other: "UnitVector3") -> float:
        return dot(self, other)


def _xyz(v: UnitVector3) -> tuple:
    return v.x, v.y, v.z


def _normalize(x: float, y: float, z: float) -> tuple:
    """(x, y, z) scaled to norm 1; ValueError for the zero vector."""
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return x / n, y / n, z / n


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


def from_polar(theta: float, phi: float) -> UnitVector3:
    """Direction at polar angle ``theta`` from +z and azimuth ``phi``."""
    return UnitVector3(*_polar(theta, phi))


def _dot(a: tuple, b: tuple) -> float:
    """``dot`` on (x, y, z) tuples."""
    ax, ay, az = a
    bx, by, bz = b
    if ax == bx and ay == by and az == bz:
        return 1.0
    if ax == -bx and ay == -by and az == -bz:
        return -1.0
    d = ax * bx + ay * by + az * bz
    return min(1.0, max(-1.0, d))


def dot(a: UnitVector3, b: UnitVector3) -> float:
    """Inner product of two unit vectors, clamped into [-1, 1].

    Exact-alignment shortcuts make dot(v, v) == 1.0 and dot(v, -v) == -1.0
    bit-exactly; downstream collapse/repeatability logic relies on this.
    """
    return _dot(_xyz(a), _xyz(b))


def angle_between(a: UnitVector3, b: UnitVector3) -> float:
    return math.acos(dot(a, b))


def _on_sphere(z: float, phi: float) -> tuple:
    """The point at height ``z`` and azimuth ``phi``."""
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return _normalize(s * math.cos(phi), s * math.sin(phi), z)


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
    out = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / norms


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


def _rotate(v: tuple, axis: tuple, angle: float) -> tuple:
    """``rotate`` on (x, y, z) tuples."""
    vx, vy, vz = v
    kx, ky, kz = axis
    c, s = math.cos(angle), math.sin(angle)
    d = _fma(kz, vz, _fma(ky, vy, kx * vx))
    t = 1.0 - c
    return _normalize((vx * c + (ky * vz - kz * vy) * s) + (kx * d) * t,
                      (vy * c + (kz * vx - kx * vz) * s) + (ky * d) * t,
                      (vz * c + (kx * vy - ky * vx) * s) + (kz * d) * t)


def rotate(v: UnitVector3, axis: UnitVector3, angle: float) -> UnitVector3:
    """Rotate ``v`` by ``angle`` about ``axis`` (Rodrigues), renormalized.

    Evaluates v c + (k x v) s + k (k.v)(1 - c) in the operation order of
    its numpy form, whose 3-vector dot BLAS computes as the fused chain
    fma(kz, vz, fma(ky, vy, kx vx)); ``_fma`` makes that chain explicit, so
    the result does not depend on which BLAS kernel is installed.
    """
    return UnitVector3(*_rotate(_xyz(v), _xyz(axis), angle))


def perturb_by(v: UnitVector3, z: float, phi: float, angle: float) -> UnitVector3:
    """``v`` rotated by ``angle`` about the axis at height ``z`` and azimuth
    ``phi``: ``perturb`` with its three draws given."""
    return UnitVector3(*_rotate(_xyz(v), _on_sphere(z, phi), angle))


def perturb(v: UnitVector3, max_angle: float, rng: np.random.Generator) -> UnitVector3:
    """Rotate ``v`` by an angle ~ U[0, max_angle] about a random axis.

    The axis k is uniform on the sphere, not orthogonal to ``v``, so the
    angle gamma between ``v`` and the result is not U[0, max_angle]: for a
    rotation by alpha, cos gamma = cos alpha + (1 - cos alpha) (k.v)^2.
    ``max_angle == 0`` returns ``v`` unchanged (same object), so perfectly
    aligned contexts stay bit-identical.  The draws are z, phi (the axis,
    as in ``sample_uniform``) and the angle, in that order.
    """
    if max_angle == 0.0:
        return v
    return perturb_by(v, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi),
                      rng.uniform(0.0, max_angle))
