"""Unit-sphere vectors: construction, dot products, rotations, uniform sampling.

Directions and states are kept in Cartesian coordinates; polar angles appear
only at the API boundary (``from_polar``).
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
        n = math.sqrt(x * x + y * y + z * z)
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return UnitVector3(x / n, y / n, z / n)

    def __neg__(self) -> "UnitVector3":
        # Component negation is exact in IEEE arithmetic, so -(-v) == v.
        return UnitVector3(-self.x, -self.y, -self.z)

    def dot(self, other: "UnitVector3") -> float:
        return dot(self, other)


def from_polar(theta: float, phi: float) -> UnitVector3:
    """Direction at polar angle ``theta`` from +z and azimuth ``phi``."""
    st = math.sin(theta)
    return UnitVector3.normalized(st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def dot(a: UnitVector3, b: UnitVector3) -> float:
    """Inner product of two unit vectors, clamped into [-1, 1].

    Exact-alignment shortcuts make dot(v, v) == 1.0 and dot(v, -v) == -1.0
    bit-exactly; downstream collapse/repeatability logic relies on this.
    """
    if a.x == b.x and a.y == b.y and a.z == b.z:
        return 1.0
    if a.x == -b.x and a.y == -b.y and a.z == -b.z:
        return -1.0
    d = a.x * b.x + a.y * b.y + a.z * b.z
    return min(1.0, max(-1.0, d))


def angle_between(a: UnitVector3, b: UnitVector3) -> float:
    return math.acos(dot(a, b))


def _on_sphere(z: float, phi: float) -> UnitVector3:
    """The point at height ``z`` and azimuth ``phi``."""
    s = math.sqrt(max(0.0, 1.0 - z * z))
    return UnitVector3.normalized(s * math.cos(phi), s * math.sin(phi), z)


def sample_uniform(rng: np.random.Generator) -> UnitVector3:
    """One draw from the uniform distribution on the sphere.

    Uses the (z, phi) construction: z ~ U[-1, 1), phi ~ U[0, 2pi); exactly
    two uniform draws per sample, which keeps batch streams reproducible.
    """
    return _on_sphere(rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))


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
    rational sum instead.  An exact zero keeps IEEE's sign rules, which the
    plain p + c follows whenever the sum is zero.
    """
    p = a * b
    if not abs(p) >= _TINY_PRODUCT:
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


def rotate(v: UnitVector3, axis: UnitVector3, angle: float) -> UnitVector3:
    """Rotate ``v`` by ``angle`` about ``axis`` (Rodrigues), renormalized.

    Evaluates v c + (k x v) s + k (k.v)(1 - c) in the operation order of
    its numpy form, whose 3-vector dot BLAS computes as the fused chain
    fma(kz, vz, fma(ky, vy, kx vx)); ``_fma`` makes that chain explicit, so
    the result does not depend on which BLAS kernel is installed.
    """
    kx, ky, kz = axis.x, axis.y, axis.z
    vx, vy, vz = v.x, v.y, v.z
    c, s = math.cos(angle), math.sin(angle)
    d = _fma(kz, vz, _fma(ky, vy, kx * vx))
    t = 1.0 - c
    return UnitVector3.normalized((vx * c + (ky * vz - kz * vy) * s) + (kx * d) * t,
                                  (vy * c + (kz * vx - kx * vz) * s) + (ky * d) * t,
                                  (vz * c + (kx * vy - ky * vx) * s) + (kz * d) * t)


def perturb_by(v: UnitVector3, z: float, phi: float, angle: float) -> UnitVector3:
    """``v`` rotated by ``angle`` about the axis at height ``z`` and azimuth
    ``phi``: ``perturb`` with its three draws given."""
    return rotate(v, _on_sphere(z, phi), angle)


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
