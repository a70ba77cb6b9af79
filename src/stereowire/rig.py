"""Built-in biplanar acquisition rig used by the synthetic pipeline.

Two identical pinhole cameras (focal 1500 px, principal point centered in
a 1024 x 1024 px frame) look at the world origin from 300 mm, yawed +/-30
degrees about the vertical (y) axis; the 60 degree vergence at that range
gives a 300 mm baseline. World units are mm.
"""

from __future__ import annotations

import numpy as np

from .cameras import ProjectiveCamera

FOCAL_PX = 1500.0
IMAGE_SIZE = (1024, 1024)
RANGE_MM = 300.0
HALF_VERGENCE_RAD = np.pi / 6.0


def _camera_at_yaw(alpha: float, focal: float, image_size: tuple[int, int],
                   range_mm: float) -> ProjectiveCamera:
    ca, sa = np.cos(alpha), np.sin(alpha)
    # rows are the camera axes in world coordinates; optical axis (sa, 0, ca)
    R = np.array([
        [ca, 0.0, -sa],
        [0.0, 1.0, 0.0],
        [sa, 0.0, ca],
    ])
    t = np.array([0.0, 0.0, range_mm])  # center sits at -range * optical axis
    K = np.array([
        [focal, 0.0, image_size[0] / 2.0],
        [0.0, focal, image_size[1] / 2.0],
        [0.0, 0.0, 1.0],
    ])
    return ProjectiveCamera(K @ np.column_stack([R, t]), image_size)


def default_rig() -> tuple[ProjectiveCamera, ProjectiveCamera]:
    """Cameras A and B of the built-in stereo rig."""
    return tuple(_camera_at_yaw(yaw, FOCAL_PX, IMAGE_SIZE, RANGE_MM)
                 for yaw in (-HALF_VERGENCE_RAD, HALF_VERGENCE_RAD))
