"""Projective cameras, fundamental matrices, epilines, and DLT calibration.

Conventions used throughout:

* world coordinates in mm, image coordinates in px (top-left origin),
* homogeneous vectors canonicalized to unit norm with a nonnegative last
  component (first nonzero component positive as a fallback),
* fundamental matrices normalized to unit Frobenius norm with the first
  nonzero entry in row-major order positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    CoincidentCenters,
    DegenerateConfiguration,
    DegenerateProjection,
    InsufficientPoints,
    RankDeficient,
    ZeroLine,
)

_RANK_TOL = 1e-12


def canonical_homogeneous(v: np.ndarray) -> np.ndarray:
    """Scale a homogeneous vector to unit norm, last nonzero component >= 0."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0.0:
        return v.copy()
    v = v / n
    anchor = v[-1]
    if abs(anchor) <= 1e-14:
        nz = np.flatnonzero(np.abs(v) > 1e-14)
        anchor = v[nz[0]] if nz.size else 1.0
    return -v if anchor < 0 else v


@dataclass(frozen=True, eq=False)
class ProjectiveCamera:
    """A 3x4 projection matrix mapping homogeneous mm points to px.

    Invariants: rank(P) = 3; the camera center C is the right null vector
    of P (P @ C = 0 up to scale), kept canonical (see canonical_homogeneous)
    from the SVD that checks the rank. P is a read-only copy, so the
    stored center cannot go stale.
    """

    P: np.ndarray
    image_size: tuple[int, int]
    center: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        P = np.array(self.P, dtype=float)
        if P.shape != (3, 4):
            raise ValueError(f"projection matrix must be 3x4, got {P.shape}")
        P.flags.writeable = False
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "image_size", (int(self.image_size[0]), int(self.image_size[1])))
        _, s, Vt = np.linalg.svd(P)
        if s[2] <= _RANK_TOL * s[0]:
            raise RankDeficient("projection matrix has rank < 3")
        center = canonical_homogeneous(Vt[-1])
        center.flags.writeable = False
        object.__setattr__(self, "center", center)

    @cached_property
    def unit_P(self) -> np.ndarray:
        """P times the power of two that brings its largest |entry| into [0.5, 1): the
        same camera with the same mantissas, at one scale whatever scale P came at."""
        P = np.ldexp(self.P, -np.frexp(np.abs(self.P).max())[1])
        P.flags.writeable = False
        return P


def normalize_fundamental(F: np.ndarray) -> np.ndarray:
    """Unit Frobenius norm, first row-major entry with |e| > 1e-12 positive.

    Raises RankDeficient for a zero matrix.
    """
    F = np.asarray(F, dtype=float)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(F)
    if not 0.0 < n < math.inf:  # squared entries under- or overflowed: scale by the largest
        peak = np.abs(F).max()
        if peak == 0.0:
            raise RankDeficient("cannot normalize a zero matrix")
        F = F / peak
        n = np.linalg.norm(F)
    F = F / n
    flat = F.ravel()
    nz = np.flatnonzero(np.abs(flat) > 1e-12)
    if nz.size and flat[nz[0]] < 0:
        F = -F
    return F


def project_many(cam: ProjectiveCamera, X: np.ndarray) -> np.ndarray:
    """Project an (n, 3) array of points (mm) to (n, 2) px.

    Raises ValueError for a non-finite point and DegenerateProjection when
    a homogeneous depth |w| <= 1e-12 (point on the principal plane).
    """
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise ValueError("points must be finite")
    Xh = np.hstack([X, np.ones((X.shape[0], 1))])
    uvw = Xh @ cam.P.T
    w = uvw[:, 2]
    if np.any(np.abs(w) <= 1e-12):
        raise DegenerateProjection("point lies on the principal plane")
    return uvw[:, :2] / w[:, None]


def skew(v) -> np.ndarray:
    """Cross-product matrix [v]_x with [v]_x @ w = v x w."""
    v = np.asarray(v, dtype=float).reshape(3)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def _check_distinct_centers(cam_a: ProjectiveCamera, cam_b: ProjectiveCamera) -> None:
    """Raise CoincidentCenters unless the two camera centers differ.

    Finite centers coincide within 1e-9 mm, others as canonical homogeneous
    vectors within 1e-9; in Python floats, cheap enough for every point.
    """
    a, b = cam_a.center.tolist(), cam_b.center.tolist()
    if abs(a[3]) > 1e-12 and abs(b[3]) > 1e-12:
        a, b = [v / a[3] for v in a[:3]], [v / b[3] for v in b[:3]]
    if math.dist(a, b) <= 1e-9:
        raise CoincidentCenters("camera centers coincide; no epipolar geometry")


def fundamental_matrix(cam_a: ProjectiveCamera, cam_b: ProjectiveCamera) -> np.ndarray:
    """F = [e_B]_x P_B P_A^+ where e_B = P_B C_A is view B's epipole.

    F is rank 2 with x_B^T F x_A = 0 for corresponding points, returned
    normalized (see normalize_fundamental), from both cameras' unit_P, so
    F does not depend on the scale of either P. The pseudoinverse zeroes
    singular values below 1e-12 * sigma_max. Raises CoincidentCenters
    when the two camera centers coincide.
    """
    _check_distinct_centers(cam_a, cam_b)
    e_b = cam_b.unit_P @ cam_a.center
    P_a_pinv = np.linalg.pinv(cam_a.unit_P, rcond=1e-12)
    return normalize_fundamental(skew(e_b) @ cam_b.unit_P @ P_a_pinv)


def epiline(F: np.ndarray, x_a) -> np.ndarray:
    """Epiline l_B = F x_A in view B, scaled so ||(a, b)|| = 1.

    Raises ZeroLine when F x_A vanishes (x_A is the epipole) or the line
    has no finite direction.
    """
    u, v = np.asarray(x_a, dtype=float).reshape(2).tolist()
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError("point must be finite")
    l = F @ np.array((u, v, 1.0))
    d = np.hypot(l[0], l[1])  # math.hypot can round the last bit differently
    if d <= 1e-12 * max(1.0, math.hypot(*l.tolist())) or d == 0.0:
        raise ZeroLine("epiline is degenerate (point at or near the epipole)")
    return l / d


def _isotropic_normalization(pts: np.ndarray, target_rms: float) -> np.ndarray:
    """Similarity T mapping pts to centroid 0 and RMS radius target_rms."""
    d = pts.shape[1]
    centroid = pts.mean(axis=0)
    rms = np.sqrt(np.mean(np.sum((pts - centroid) ** 2, axis=1)))
    if rms <= 1e-12:
        raise DegenerateConfiguration("points are (nearly) coincident")
    s = target_rms / rms
    T = np.eye(d + 1)
    T[:d, :d] *= s
    T[:d, d] = -s * centroid
    return T


def calibrate_dlt(
    world: np.ndarray,
    pixel: np.ndarray,
    image_size: tuple[int, int] = (1024, 1024),
) -> tuple[ProjectiveCamera, float]:
    """Estimate a camera by DLT from >= 6 world/pixel correspondences.

    Row i of world, (n, 3) in mm, pairs with row i of pixel, (n, 2) in px.
    Both point sets are isotropically normalized first (centroid at the
    origin, RMS distance sqrt(2) for pixels and sqrt(3) for world points),
    the stacked 2n x 12 system is solved by SVD, and the result is
    de-normalized. Returns the camera and its mean reprojection error (px).
    """
    world = np.asarray(world, dtype=float)
    pixel = np.asarray(pixel, dtype=float)
    if world.ndim != 2 or world.shape[1] != 3 or pixel.shape != (len(world), 2):
        raise ValueError(f"need (n, 3) world, (n, 2) pixel; got {world.shape}, {pixel.shape}")
    if not (np.all(np.isfinite(world)) and np.all(np.isfinite(pixel))):
        raise ValueError("correspondence coordinates must be finite")
    if len(world) < 6:
        raise InsufficientPoints(f"need >= 6 correspondences, got {len(world)}")

    T_px = _isotropic_normalization(pixel, np.sqrt(2.0))
    T_w = _isotropic_normalization(world, np.sqrt(3.0))
    xh = np.hstack([pixel, np.ones((len(pixel), 1))]) @ T_px.T
    Xh = np.hstack([world, np.ones((len(world), 1))]) @ T_w.T

    # rows (0, -X, v X) and (X, 0, -u X) of each correspondence
    A = np.zeros((2 * len(world), 12))
    A[0::2, 4:8] = -Xh
    A[0::2, 8:12] = xh[:, 1, None] * Xh
    A[1::2, 0:4] = Xh
    A[1::2, 8:12] = -xh[:, 0, None] * Xh

    _, s, Vt = np.linalg.svd(A)
    if s[-2] <= 1e-10 * s[0]:
        raise DegenerateConfiguration("DLT system is rank-deficient (coplanar points?)")
    P_norm = Vt[-1].reshape(3, 4)
    P = np.linalg.inv(T_px) @ P_norm @ T_w

    sP = np.linalg.svd(P, compute_uv=False)
    if sP[2] <= 1e-9 * sP[0]:
        raise DegenerateConfiguration("estimated projection matrix is rank-deficient")
    cam = ProjectiveCamera(P, image_size)
    errs = np.linalg.norm(project_many(cam, world) - pixel, axis=1)
    return cam, float(np.mean(errs))
