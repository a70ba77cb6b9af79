"""Projective cameras, fundamental matrices, epilines, and DLT calibration.

Conventions used throughout:

* world coordinates in mm, image coordinates in px (top-left origin),
* homogeneous vectors canonicalized to unit norm with a nonnegative last
  component (first nonzero component positive as a fallback),
* fundamental matrices normalized to unit Frobenius norm with the first
  nonzero entry in row-major order positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class FundamentalMatrix:
    """Rank-2 3x3 matrix F with x_B^T F x_A = 0 for corresponding points."""

    F: np.ndarray

    def __post_init__(self):
        F = normalize_fundamental(np.asarray(self.F, dtype=float))
        object.__setattr__(self, "F", F)

    @property
    def matrix(self) -> np.ndarray:
        return self.F


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A calibration pairing of one 3D world point (mm) with its pixel."""

    world: np.ndarray
    pixel: np.ndarray

    def __post_init__(self):
        world = np.asarray(self.world, dtype=float).reshape(3)
        pixel = np.asarray(self.pixel, dtype=float).reshape(2)
        if not (np.all(np.isfinite(world)) and np.all(np.isfinite(pixel))):
            raise ValueError("correspondence coordinates must be finite")
        object.__setattr__(self, "world", world)
        object.__setattr__(self, "pixel", pixel)


def normalize_fundamental(F: np.ndarray) -> np.ndarray:
    """Unit Frobenius norm, first row-major entry with |e| > 1e-12 positive."""
    F = np.asarray(F, dtype=float)
    n = np.linalg.norm(F)
    if n == 0.0:
        raise ValueError("cannot normalize a zero matrix")
    F = F / n
    flat = F.ravel()
    nz = np.flatnonzero(np.abs(flat) > 1e-12)
    if nz.size and flat[nz[0]] < 0:
        F = -F
    return F


def project(cam: ProjectiveCamera, X) -> np.ndarray:
    """Project a 3D point (mm) to pixel coordinates.

    Raises DegenerateProjection when the homogeneous depth |w| <= 1e-12
    (point on the principal plane).
    """
    X = np.asarray(X, dtype=float).reshape(3)
    if not np.all(np.isfinite(X)):
        raise ValueError("point must be finite")
    uvw = cam.P @ np.append(X, 1.0)
    w = uvw[2]
    if abs(w) <= 1e-12:
        raise DegenerateProjection("point lies on the principal plane")
    return uvw[:2] / w


def project_many(cam: ProjectiveCamera, X: np.ndarray) -> np.ndarray:
    """Vectorized projection of an (n, 3) array of points to (n, 2) px."""
    X = np.asarray(X, dtype=float)
    Xh = np.hstack([X, np.ones((X.shape[0], 1))])
    uvw = Xh @ cam.P.T
    w = uvw[:, 2]
    if np.any(np.abs(w) <= 1e-12):
        raise DegenerateProjection("point lies on the principal plane")
    return uvw[:, :2] / w[:, None]


def camera_center(cam: ProjectiveCamera) -> np.ndarray:
    """Homogeneous camera center: unit-norm right null vector of P (read-only)."""
    return cam.center


def skew(v) -> np.ndarray:
    """Cross-product matrix [v]_x with [v]_x @ w = v x w."""
    v = np.asarray(v, dtype=float).reshape(3)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def _dehomogenized_center(C: np.ndarray) -> np.ndarray | None:
    return C[:3] / C[3] if abs(C[3]) > 1e-12 else None


def fundamental_matrix(cam_a: ProjectiveCamera, cam_b: ProjectiveCamera) -> FundamentalMatrix:
    """F = [e_B]_x P_B P_A^+ where e_B = P_B C_A is view B's epipole.

    The pseudoinverse zeroes singular values below 1e-12 * sigma_max.
    Raises CoincidentCenters when the two camera centers coincide.
    """
    C_a = camera_center(cam_a)
    C_b = camera_center(cam_b)
    ca, cb = _dehomogenized_center(C_a), _dehomogenized_center(C_b)
    if ca is not None and cb is not None:
        coincident = np.linalg.norm(ca - cb) <= 1e-9
    else:
        coincident = np.linalg.norm(C_a - C_b) <= 1e-9
    if coincident:
        raise CoincidentCenters("camera centers coincide; no epipolar geometry")
    e_b = cam_b.P @ C_a
    P_a_pinv = np.linalg.pinv(cam_a.P, rcond=1e-12)
    return FundamentalMatrix(skew(e_b) @ cam_b.P @ P_a_pinv)


def epiline(F: FundamentalMatrix | np.ndarray, x_a) -> np.ndarray:
    """Epiline l_B = F x_A in view B, scaled so ||(a, b)|| = 1.

    Raises ZeroLine when F x_A vanishes (x_A is the epipole) or the line
    has no finite direction.
    """
    Fm = F.matrix if isinstance(F, FundamentalMatrix) else np.asarray(F, dtype=float)
    x_a = np.asarray(x_a, dtype=float).reshape(2)
    if not np.all(np.isfinite(x_a)):
        raise ValueError("point must be finite")
    l = Fm @ np.append(x_a, 1.0)
    d = np.hypot(l[0], l[1])
    if d <= 1e-12 * max(1.0, np.linalg.norm(l)) or d == 0.0:
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
    correspondences: list[Correspondence],
    image_size: tuple[int, int] = (1024, 1024),
) -> tuple[ProjectiveCamera, float]:
    """Estimate a camera by DLT from >= 6 world/pixel correspondences.

    Both point sets are isotropically normalized first (centroid at the
    origin, RMS distance sqrt(2) for pixels and sqrt(3) for world points),
    the stacked 2n x 12 system is solved by SVD, and the result is
    de-normalized. Returns the camera and its mean reprojection error (px).
    """
    if len(correspondences) < 6:
        raise InsufficientPoints(f"need >= 6 correspondences, got {len(correspondences)}")
    world = np.array([c.world for c in correspondences])
    pixel = np.array([c.pixel for c in correspondences])

    T_px = _isotropic_normalization(pixel, np.sqrt(2.0))
    T_w = _isotropic_normalization(world, np.sqrt(3.0))
    xh = np.hstack([pixel, np.ones((len(pixel), 1))]) @ T_px.T
    Xh = np.hstack([world, np.ones((len(world), 1))]) @ T_w.T

    n = len(correspondences)
    A = np.zeros((2 * n, 12))
    for i in range(n):
        X = Xh[i]
        u, v = xh[i, 0], xh[i, 1]
        A[2 * i, 4:8] = -X
        A[2 * i, 8:12] = v * X
        A[2 * i + 1, 0:4] = X
        A[2 * i + 1, 8:12] = -u * X

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
