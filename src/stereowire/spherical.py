"""Spherical-coordinate chain encoding of 3D curves.

A chain is a tip point plus a fixed step length r and one (theta, phi)
pair per step; decoding integrates unit steps from the tip. Angles are
absolute directions in the global frame (theta from +z, phi = atan2(y, x)),
not increments relative to the previous segment's frame; the per-segment
alternative would need a parallel-transport convention the encoding does
not require.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonUniformSpacing

DEFAULT_SPACING_MM = 2.0


@dataclass(frozen=True, eq=False)
class SphericalChain:
    """Tip (mm), fixed step radius r (mm), and per-step angles (radians)."""

    tip: np.ndarray
    r: float
    offsets: np.ndarray  # (n, 2) columns theta in [0, pi], phi in (-pi, pi]

    def __post_init__(self):
        tip = np.asarray(self.tip, dtype=float).reshape(3)
        offsets = np.asarray(self.offsets, dtype=float).reshape(-1, 2)
        if not self.r > 0:
            raise ValueError("step radius must be positive")
        object.__setattr__(self, "tip", tip)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "offsets", offsets)


def sph_to_cart(r: float, theta, phi) -> np.ndarray:
    """(r sin(theta) cos(phi), r sin(theta) sin(phi), r cos(theta)) on a last axis."""
    st = np.sin(theta)
    return np.stack([r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta)], axis=-1)


def cart_to_sph(v):
    """Inverse transform over a last axis of 3, as (r, theta, phi) of the leading
    shape (floats for one vector); a zero vector maps to (0,0,0), phi wraps to (-pi, pi]."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"vectors need a last axis of 3, got shape {v.shape}")
    x, y, z = np.moveaxis(v, -1, 0)
    # np.linalg.norm's dot product of one vector: near the axis arccos magnifies r's last bit
    r = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]
    zero = r == 0.0
    theta = np.arccos(np.clip(np.divide(z, r, out=np.ones_like(r), where=~zero), -1.0, 1.0))
    phi = np.where(zero, 0.0, np.arctan2(y, x))
    phi = np.where(phi <= -np.pi, phi + 2.0 * np.pi, phi)
    return r[()], theta[()], phi[()]


def encode_chain(points) -> SphericalChain:
    """Encode uniformly spaced 3D points as tip + fixed-radius angle steps.

    The step radius is the mean consecutive spacing; any step deviating
    from it by more than 1% raises NonUniformSpacing.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) < 2:
        raise ValueError("need at least two points")
    lengths, theta, phi = cart_to_sph(np.diff(points, axis=0))
    s = float(lengths.mean())
    if s <= 0.0 or np.any(np.abs(lengths - s) > 0.01 * s):
        raise NonUniformSpacing("consecutive spacing deviates > 1% from its mean")
    return SphericalChain(tip=points[0], r=s, offsets=np.column_stack([theta, phi]))


def decode_chain(chain: SphericalChain) -> np.ndarray:
    """Integrate the angle steps from the tip; returns (n_offsets+1, 3) points."""
    theta, phi = chain.offsets.T
    return np.cumsum(np.vstack([chain.tip, sph_to_cart(chain.r, theta, phi)]), axis=0)


def resample_uniform_spacing(points, spacing: float = DEFAULT_SPACING_MM) -> np.ndarray:
    """Resample a polyline so consecutive points are exact chords of `spacing`.

    Marches along the polyline intersecting a sphere of radius `spacing`
    centered at the last placed point, so every output step has length
    exactly `spacing` (up to float rounding); the trailing remainder
    shorter than one step is dropped.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) < 2:
        raise ValueError("need at least two points")
    if not spacing > 0:
        raise ValueError("spacing must be positive")

    out = [points[0]]
    p, j = points[0], 0  # march position and the index of its segment's start
    while j < len(points) - 1:
        # ||p + s*d - out[-1]||^2 = spacing^2, s in (0, 1]
        d, f = points[j + 1] - p, p - out[-1]
        a, b, c = float(d @ d), 2.0 * float(f @ d), float(f @ f) - spacing * spacing
        disc = b * b - 4.0 * a * c
        s_hi = (-b + np.sqrt(disc)) / (2.0 * a) if a > 0.0 and disc >= 0.0 else -1.0
        if 0.0 < s_hi <= 1.0 + 1e-12:
            p = p + min(s_hi, 1.0) * d
            out.append(p)
        else:
            p, j = points[j + 1], j + 1
    return np.array(out)
