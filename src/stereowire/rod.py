"""Discrete rigid-segment rod model for synthesizing plausible guidewires.

A rod is a chain of equal-length rigid segments; segment k points along
its unit quaternion's rotation of +z. Joint curvature is the rotation
vector of q_i^-1 q_(i+1), bending energy is a quadratic penalty on its
deviation from the per-joint rest curvature, and relaxation runs gradient
descent with a backtracking line search over the joint rotation vectors
(base pose fixed, optional tip pin via a ramped quadratic penalty).

Twist is ignored: the rest curvature's component along the segment axis
(+z in the segment frame) is zeroed at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableConstraint

# ---------------------------------------------------------------------------
# quaternion helpers (scalar-first convention: q = (w, x, y, z))

def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    return np.asarray(q, dtype=float) / np.linalg.norm(q)


def rotvec_to_quat(v: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector (axis * angle) to unit quaternion."""
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v)
    if angle < 1e-12:
        # sin(x/2)/x ~ 1/2 - x^2/48
        half_sinc = 0.5 - angle * angle / 48.0
        return quat_normalize(np.array([1.0, *(half_sinc * v)]))
    axis = v / angle
    return np.array([np.cos(angle / 2.0), *(np.sin(angle / 2.0) * axis)])


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Log map onto angle in [0, pi], sign fixed by a nonnegative scalar part."""
    q = quat_normalize(q)
    if q[0] < 0:
        q = -q
    s = np.linalg.norm(q[1:])
    if s < 1e-12:
        return 2.0 * q[1:] / q[0]
    angle = 2.0 * np.arctan2(s, q[0])
    return angle * q[1:] / s


# ---------------------------------------------------------------------------
# rod state

@dataclass(frozen=True, eq=False)
class RodState:
    """Rigid-segment rod: base anchor, per-segment unit quaternions,
    bending stiffness (energy per rad^2), and per-joint rest curvature."""

    segment_length: float
    orientations: np.ndarray  # (n_segments, 4) unit quaternions
    base: np.ndarray
    stiffness: float
    rest_curvature: np.ndarray  # (n_segments - 1, 3), axial part zeroed

    def __post_init__(self):
        q = np.atleast_2d(np.asarray(self.orientations, dtype=float))
        if q.shape[1] != 4 or q.shape[0] < 2:
            raise ValueError("need >= 2 segment quaternions of length 4")
        norms = np.linalg.norm(q, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-12):
            q = q / norms[:, None]
        if not self.segment_length > 0:
            raise ValueError("segment_length must be positive")
        if not self.stiffness > 0:
            raise ValueError("stiffness must be positive")
        omega = np.asarray(self.rest_curvature, dtype=float)
        if omega.ndim == 1:
            omega = np.tile(omega.reshape(1, 3), (q.shape[0] - 1, 1))
        if omega.shape != (q.shape[0] - 1, 3):
            raise ValueError("rest_curvature must be one 3-vector per joint")
        omega = omega.copy()
        omega[:, 2] = 0.0  # twist ignored: axial rest component projected out
        object.__setattr__(self, "segment_length", float(self.segment_length))
        object.__setattr__(self, "orientations", q)
        object.__setattr__(self, "base", np.asarray(self.base, dtype=float).reshape(3))
        object.__setattr__(self, "stiffness", float(self.stiffness))
        object.__setattr__(self, "rest_curvature", omega)

    @property
    def n_segments(self) -> int:
        return self.orientations.shape[0]

    def centerline(self) -> np.ndarray:
        """(n_segments + 1, 3) joint positions from base to tip."""
        dirs = _segment_dirs(self.orientations)
        pts = np.vstack([np.zeros(3), np.cumsum(self.segment_length * dirs, axis=0)])
        return pts + self.base


def straight_rod(n_segments: int, segment_length: float, stiffness: float = 1.0,
                 rest_curvature=None, base=(0.0, 0.0, 0.0)) -> RodState:
    """Rod with identity orientations (straight along +z)."""
    q = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (n_segments, 1))
    if rest_curvature is None:
        rest_curvature = np.zeros((n_segments - 1, 3))
    return RodState(segment_length, q, np.asarray(base, dtype=float), stiffness, rest_curvature)


def relative_curvature(q_i: np.ndarray, q_next: np.ndarray) -> np.ndarray:
    """Rotation vector of q_i^-1 q_(i+1) (radians, angle in [0, pi])."""
    return quat_to_rotvec(quat_mul(quat_conjugate(np.asarray(q_i, float)),
                                   np.asarray(q_next, float)))


def joint_curvatures(rod: RodState) -> np.ndarray:
    q = rod.orientations
    return np.array([relative_curvature(q[j], q[j + 1]) for j in range(rod.n_segments - 1)])


def bending_energy(rod: RodState) -> float:
    """Sum over joints of (1/2) E ||kappa_j - omega0_j||^2 (total energy)."""
    diff = joint_curvatures(rod) - rod.rest_curvature
    return float(0.5 * rod.stiffness * np.sum(diff * diff))


# ---------------------------------------------------------------------------
# relaxation

@dataclass(frozen=True, eq=False)
class RelaxResult:
    rod: RodState
    energy: float
    converged: bool
    iterations: int
    grad_inf: float
    tip_residual: float


def _orientations_from_joints(q0: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Serial quaternion chain q_(j+1) = q_j exp(kappa_j), renormalized."""
    out = np.empty((kappa.shape[0] + 1, 4))
    w, x, y, z = (float(v) for v in q0)
    out[0] = (w, x, y, z)
    for j in range(kappa.shape[0]):
        vx, vy, vz = kappa[j]
        angle = math.sqrt(vx * vx + vy * vy + vz * vz)
        if angle < 1e-12:
            hs = 0.5 - angle * angle / 48.0
            bw, bx, by, bz = 1.0, hs * vx, hs * vy, hs * vz
        else:
            half = 0.5 * angle
            s = math.sin(half) / angle
            bw, bx, by, bz = math.cos(half), s * vx, s * vy, s * vz
        nw = w * bw - x * bx - y * by - z * bz
        nx = w * bx + x * bw + y * bz - z * by
        ny = w * by - x * bz + y * bw + z * bx
        nz = w * bz + x * by - y * bx + z * bw
        inv = 1.0 / math.sqrt(nw * nw + nx * nx + ny * ny + nz * nz)
        w, x, y, z = nw * inv, nx * inv, ny * inv, nz * inv
        out[j + 1] = (w, x, y, z)
    return out


def _segment_dirs(q: np.ndarray) -> np.ndarray:
    """R(q) e_z for every row quaternion."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    return np.stack([2 * (x * z + w * y), 2 * (y * z - w * x),
                     1 - 2 * (x * x + y * y)], axis=1)


def _matrices(q: np.ndarray) -> np.ndarray:
    """Batch rotation matrices, shape (n, 3, 3)."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=1),
    ], axis=1)


def _right_jacobians(kappa: np.ndarray) -> np.ndarray:
    """Batch right Jacobians of the exponential map, shape (n, 3, 3)."""
    theta = np.linalg.norm(kappa, axis=1)
    small = theta < 1e-6
    t2 = theta * theta
    with np.errstate(divide="ignore", invalid="ignore"):
        c1 = np.where(small, 0.5 - t2 / 24.0, (1.0 - np.cos(theta)) / t2)
        c2 = np.where(small, 1.0 / 6.0 - t2 / 120.0, (theta - np.sin(theta)) / (theta * t2))
    n = kappa.shape[0]
    K = np.zeros((n, 3, 3))
    K[:, 0, 1] = -kappa[:, 2]
    K[:, 0, 2] = kappa[:, 1]
    K[:, 1, 0] = kappa[:, 2]
    K[:, 1, 2] = -kappa[:, 0]
    K[:, 2, 0] = -kappa[:, 1]
    K[:, 2, 1] = kappa[:, 0]
    return np.eye(3) - c1[:, None, None] * K + c2[:, None, None] * (K @ K)


def _tip(q0, kappa, base, L):
    q = _orientations_from_joints(q0, kappa)
    return base + L * _segment_dirs(q).sum(axis=0), q


def _objective(kappa, q0, base, L, E, omega, weight, target):
    diff = kappa - omega
    f = 0.5 * E * float(np.sum(diff * diff))
    if target is not None:
        tip, _ = _tip(q0, kappa, base, L)
        r = tip - target
        f += 0.5 * weight * float(r @ r)
    return f


def _objective_and_grad(kappa, q0, base, L, E, omega, weight, target):
    """Penalized energy and its analytic gradient over joint rotation vectors."""
    diff = kappa - omega
    f = 0.5 * E * float(np.sum(diff * diff))
    grad = E * diff
    if target is not None:
        tip, q = _tip(q0, kappa, base, L)
        r = tip - target
        f += 0.5 * weight * float(r @ r)
        g = weight * r
        dirs = _segment_dirs(q)
        # s_j = sum of segment directions beyond joint j
        suffix = np.cumsum(dirs[::-1], axis=0)[::-1]
        v = np.cross(suffix[1:], g)
        Rt_v = np.einsum("jba,jb->ja", _matrices(q[1:]), v)
        grad = grad + L * np.einsum("jba,jb->ja", _right_jacobians(kappa), Rt_v)
    return f, grad


def _descend(kappa, args, grad_tol, max_iter, trace=None):
    """Monotone backtracking gradient descent, Barzilai-Borwein trial steps.

    Rejected trials backtrack by safeguarded quadratic interpolation of the
    1D slice, which settles the step far faster than plain halving on the
    stiff tip-penalty stages. When given, trace collects the objective
    value at every accepted step.
    """
    f, g = _objective_and_grad(kappa, *args)
    if trace is not None:
        trace.append(f)
    step = 1.0
    prev_kappa = None
    prev_g = None
    it = 0
    while it < max_iter:
        gi = np.abs(g).max() if g.size else 0.0
        if gi < grad_tol:
            break
        if prev_kappa is not None:
            s = (kappa - prev_kappa).ravel()
            y = (g - prev_g).ravel()
            sy = s @ y
            if sy > 0:
                # alternate the two Barzilai-Borwein step lengths; the short
                # BB2 step survives the monotone Armijo test more often
                bb1 = s @ s / sy
                yy = y @ y
                bb2 = sy / yy if yy > 0 else bb1
                step = min(max(bb2 if it % 2 else bb1, 1e-12), 1e8)
        gnorm2 = float(np.sum(g * g))
        accepted = False
        alpha = step
        for _ in range(60):
            trial = kappa - alpha * g
            f_t = _objective(trial, *args)
            if f_t <= f - 1e-4 * alpha * gnorm2:
                accepted = True
                break
            denom = 2.0 * (f_t - f + alpha * gnorm2)
            if denom > 0:
                alpha = min(max(alpha * alpha * gnorm2 / denom, 0.1 * alpha), 0.5 * alpha)
            else:
                alpha *= 0.5
        it += 1
        if not accepted:
            break
        prev_kappa, prev_g = kappa, g
        kappa = trial
        f, g = _objective_and_grad(kappa, *args)
        step = alpha
        if trace is not None:
            trace.append(f)
    gi = np.abs(g).max() if g.size else 0.0
    return kappa, f, gi, it


def relax(rod: RodState, tip_target=None, grad_tol: float = 1e-8,
          max_iter: int = 10_000, penalty_weight0: float = 0.1,
          outer_iterations: int = 5, energy_trace: list | None = None) -> RelaxResult:
    """Minimize bending energy over the joint rotation vectors.

    The base position and orientation stay fixed. A pinned tip is enforced
    by a quadratic penalty whose weight starts at penalty_weight0 and is
    multiplied by 10 for each of the outer iterations. Raises
    UnreachableConstraint when the pin lies beyond the rod's total length;
    non-convergence is reported through the returned flag (best iterate
    kept), never by discarding progress. energy_trace, when given, receives
    one list per penalty stage with the objective at every accepted step.
    """
    L = rod.segment_length
    E = rod.stiffness
    q0 = rod.orientations[0]
    target = None
    if tip_target is not None:
        target = np.asarray(tip_target, dtype=float).reshape(3)
        reach = rod.n_segments * L
        if np.linalg.norm(target - rod.base) > reach + 1e-9:
            raise UnreachableConstraint(
                f"tip target at {np.linalg.norm(target - rod.base):.6g} mm exceeds reach {reach:.6g} mm")

    kappa = joint_curvatures(rod)
    total_iters = 0
    stages = outer_iterations if target is not None else 1
    weight = penalty_weight0
    for stage in range(stages):
        final = stage == stages - 1
        # warm-up stages only rough in the solution; the full budget and
        # tolerance are spent on the final penalty weight
        stage_tol = grad_tol if final else max(grad_tol, 1e-5)
        stage_iter = max_iter if final else min(max_iter, 2000)
        args = (q0, rod.base, L, E, rod.rest_curvature, weight, target)
        stage_trace: list | None = None
        if energy_trace is not None:
            stage_trace = []
            energy_trace.append(stage_trace)
        kappa, f, gi, it = _descend(kappa, args, stage_tol, stage_iter, trace=stage_trace)
        total_iters += it
        weight *= 10.0

    q = _orientations_from_joints(q0, kappa)
    out = RodState(L, q, rod.base, E, rod.rest_curvature)
    resid = 0.0
    if target is not None:
        resid = float(np.linalg.norm(out.centerline()[-1] - target))
    return RelaxResult(rod=out, energy=bending_energy(out), converged=gi < grad_tol,
                       iterations=total_iters, grad_inf=gi, tip_residual=resid)


def rest_curvature_field(n_segments: int, tip_angle: float, seed: int) -> np.ndarray:
    """Smooth low-frequency per-joint rest curvature, deterministic per seed.

    Two random in-plane harmonics weighted toward the distal end (angled-
    tip flavour), scaled so the largest per-joint bend is
    tip_angle / n_segments; the total turn never exceeds tip_angle.
    """
    if n_segments < 2:
        raise ValueError("need at least 2 segments")
    n_joints = n_segments - 1
    omega = np.zeros((n_joints, 3))
    if tip_angle == 0.0:
        return omega
    rng = np.random.default_rng(seed)
    x = (np.arange(n_joints) + 0.5) / n_joints
    field = np.zeros((n_joints, 2))
    for h in (1, 2):
        amp = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        psi = rng.uniform(0.0, 2.0 * np.pi)
        field += amp * np.sin(np.pi * h * x + phase)[:, None] * np.array([np.cos(psi), np.sin(psi)])
    field *= (0.35 + 0.65 * x * x)[:, None]
    peak = np.linalg.norm(field, axis=1).max()
    if peak > 0:
        field *= (abs(tip_angle) / n_segments) / peak
    omega[:, :2] = field
    return omega


def synth_guidewire(n_segments: int, segment_length: float, tip_angle: float,
                    seed: int, stiffness: float = 1.0) -> np.ndarray:
    """Deterministic synthetic guidewire centerline, base first.

    Builds a straight rod with the seeded rest-curvature field, relaxes it,
    and returns the (n_segments + 1, 3) centerline. Identical seeds give
    identical output; joint spacing equals segment_length exactly.
    """
    omega = rest_curvature_field(n_segments, tip_angle, seed)
    rod = straight_rod(n_segments, segment_length, stiffness, omega)
    return relax(rod).rod.centerline()
