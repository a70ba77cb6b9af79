"""Discrete rigid-segment rod model for synthesizing plausible guidewires.

A rod is a chain of equal-length rigid segments: its base pose (the base
anchor and the first segment's unit quaternion) and its joint rotation
vectors, segment j+1 being segment j turned by exp(joints[j]); a segment
points along its quaternion's rotation of +z. Bending energy is
sum_j (1/2) ||kappa_j - omega_j||^2, the joints' squared deviation from the
per-joint rest curvature omega, and relaxation minimises it over the joints
with the base pose fixed: in closed form for a free rod, and by KKT steps on
the three rows of an optional tip pin, with halving backtracking on an
exact-penalty merit.

Twist is ignored: the rest curvature's component along the segment axis
(+z in the segment frame) is zeroed at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CurvatureOverflow, RodOutOfRange, UnreachableConstraint

# ---------------------------------------------------------------------------
# quaternions are scalar-first, q = (w, x, y, z); the exp map as in Sola,
# arXiv:1711.02508, sec. 4.4

def rotvec_to_quat(v: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vectors (axis * angle) to unit quaternions."""
    v = np.asarray(v, dtype=float)
    angle = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    small = angle < 1e-12
    half = 0.5 * angle
    # sin(x/2)/x ~ 1/2 - x^2/48 near zero, where cos(x/2) rounds to exactly 1
    scale = np.where(small, 0.5 - angle * angle / 48.0, np.sin(half) / np.where(small, 1.0, angle))
    return np.concatenate([np.cos(half), scale * v], axis=-1)


# ---------------------------------------------------------------------------
# rod state

@dataclass(frozen=True, eq=False)
class RodState:
    """Rigid-segment rod: base pose, joint rotation vectors and per-joint
    rest curvature."""

    segment_length: float
    base: np.ndarray  # (3,) the base joint
    base_orientation: np.ndarray  # (4,) the first segment's quaternion, normalised here
    joints: np.ndarray  # (n_segments - 1, 3): segment j+1 is segment j turned by exp(joints[j])
    rest_curvature: np.ndarray  # (n_segments - 1, 3), axial part zeroed

    def __post_init__(self):
        base = np.array(self.base, dtype=float)
        q0 = np.array(self.base_orientation, dtype=float)
        kappa = np.array(self.joints, dtype=float)
        omega = np.array(self.rest_curvature, dtype=float)
        if (base.shape != (3,) or q0.shape != (4,) or kappa.ndim != 2
                or kappa.shape[0] < 1 or kappa.shape[1] != 3):
            raise ValueError("need a base 3-vector, a base quaternion and >= 1 joint 3-vector")
        if omega.shape != kappa.shape:
            raise ValueError("rest_curvature must be one 3-vector per joint")
        norm = math.hypot(*q0.tolist())  # scaled: a large quaternion does not overflow
        if not (np.isfinite(base).all() and np.isfinite(kappa).all()
                and np.isfinite(omega).all() and 0 < norm < math.inf):
            raise ValueError("base, base_orientation, joints and rest_curvature must be "
                             "finite, and base_orientation nonzero")
        if abs(norm - 1.0) > 1e-12:
            q0 = q0 / norm
        n = len(kappa) + 1
        if not self.segment_length > 0:
            raise ValueError("segment_length must be positive")
        if not math.isfinite(float(self.segment_length) * n):
            raise RodOutOfRange(f"a rod of {n} segments of {self.segment_length:g} mm "
                                "is longer than a float can hold")
        omega[:, 2] = 0.0  # twist ignored: axial rest component projected out
        object.__setattr__(self, "segment_length", float(self.segment_length))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "base_orientation", q0)
        object.__setattr__(self, "joints", kappa)
        object.__setattr__(self, "rest_curvature", omega)

    @property
    def n_segments(self) -> int:
        return self.joints.shape[0] + 1

    def centerline(self) -> np.ndarray:
        """(n_segments + 1, 3) joint positions from base to tip."""
        dirs = _matrices(_orientations_from_joints(self.base_orientation, self.joints))[:, :, 2]
        pts = np.vstack([np.zeros(3), np.cumsum(self.segment_length * dirs, axis=0)])
        return pts + self.base


def straight_rod(n_segments: int, segment_length: float, rest_curvature=None) -> RodState:
    """Rod with zero joints and identity base orientation (straight along +z)."""
    joints = np.zeros((n_segments - 1, 3))
    return RodState(segment_length, np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]), joints,
                    joints if rest_curvature is None else rest_curvature)


def bending_energy(rod: RodState) -> float:
    """Total energy sum_j (1/2) ||kappa_j - omega_j||^2, summed as relax sums it."""
    free = (rod.rest_curvature - rod.joints).ravel()
    return 0.5 * float(free @ free)


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
    merits: tuple  # the pinned solve's merit at the start and after each accepted step


def _orientations_from_joints(q0: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Serial quaternion chain q_(j+1) = q_j exp(kappa_j), renormalized: one
    batched exp map, then the product as a sequential scan in Python floats."""
    w, x, y, z = (float(v) for v in q0)
    out = [(w, x, y, z)]
    for bw, bx, by, bz in rotvec_to_quat(kappa).tolist():
        nw = w * bw - x * bx - y * by - z * bz
        nx = w * bx + x * bw + y * bz - z * by
        ny = w * by - x * bz + y * bw + z * bx
        nz = w * bz + x * by - y * bx + z * bw
        inv = 1.0 / math.sqrt(nw * nw + nx * nx + ny * ny + nz * nz)
        w, x, y, z = nw * inv, nx * inv, ny * inv, nz * inv
        out.append((w, x, y, z))
    return np.array(out)


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
    K = np.cross(np.eye(3), kappa[:, None, :])  # cross-product matrices [kappa]x
    return np.eye(3) - c1[:, None, None] * K + c2[:, None, None] * (K @ K)


def _tip_and_jacobian(q0, kappa, base, L):
    """Tip position and its (3, 3m) Jacobian over the joint rotation vectors.

    A change dk of joint j turns every later segment by R_(j+1) Jr(k_j) dk,
    which moves the tip by that rotation crossed with the sum of the later
    segments.
    """
    rot = _matrices(_orientations_from_joints(q0, kappa))
    # suffix[j] = sum of the segment directions (R e_z) from segment j to the tip
    suffix = np.cumsum(rot[::-1, :, 2], axis=0)[::-1]
    turn = rot[1:] @ _right_jacobians(kappa)
    jac = L * np.cross(np.swapaxes(turn, 1, 2), suffix[1:, None, :])
    return base + L * suffix[0], jac.reshape(-1, 3).T


GRAD_TOL = 1e-8
MAX_ITER = 10_000
_ARMIJO = 1e-4  # sufficient-decrease fraction of the merit's slope
# a tip is summed from n chained rotations, so its rounding error is about
# n^1.5 * L * eps; merit changes below _ROUNDING_ULPS times that are noise
_ROUNDING_ULPS = 8.0


def _kkt_step(kappa, q0, base, L, omega, target):
    """Energy, pin residual c, its Jacobian J and the KKT step
    d = (omega - kappa) - J^T mu at kappa.

    mu solves J J^T mu = c + J (omega - kappa) by least squares, so the
    linearised pin holds after the step. J J^T is singular on a straight
    rod; the least-squares mu still gives the step along the reachable rows.
    """
    tip, jac = _tip_and_jacobian(q0, kappa, base, L)
    c = tip - target
    free = (omega - kappa).ravel()
    mu = np.linalg.lstsq(jac @ jac.T, c + jac @ free, rcond=None)[0]
    return 0.5 * float(free @ free), c, jac, (free - jac.T @ mu).reshape(kappa.shape)


def _check_reachable(rod: RodState, target: np.ndarray) -> None:
    # the base pose fixes the first segment, so the tip reaches the ball of
    # radius (n - 1) L about the first joint, and for n = 2 only its sphere;
    # hypot on Python floats measures a huge pin without overflow
    reach = (rod.n_segments - 1) * rod.segment_length
    first = rod.base + rod.segment_length * _matrices(rod.base_orientation[None])[0, :, 2]
    dist = math.hypot(*(t - f for t, f in zip(target.tolist(), first.tolist())))
    if dist > reach + 1e-9 or (rod.n_segments == 2 and dist < reach - 1e-9):
        bound = "exactly" if rod.n_segments == 2 else "at most"
        raise UnreachableConstraint(f"tip target is {dist:.6g} mm from the first joint; "
                                    f"the tip reaches {bound} {reach:.6g} mm")


def relax(rod: RodState, tip_target=None) -> RelaxResult:
    """Minimize bending energy over the joint rotation vectors, base pose fixed.

    A free rod relaxes in closed form to kappa = omega (0 iterations, energy
    0). A pinned tip, c = tip - target = 0, is met from the rod's joints by
    KKT steps of the energy (Hessian I) under the linearised pin, each a
    3x3 solve (Nocedal & Wright, ch. 18), halved until the merit
    energy / rho + |c| falls by an Armijo fraction of its slope; rho grows
    as far as a step needs it to descend (N&W 18.36). A step too small for
    the merit to resolve through the tip's rounding counts if the next KKT
    step is shorter. A line search fails, and the solve stops, at its first
    step that moves no joint (a zero step at once). converged says whether the
    Lagrangian gradient at the KKT multiplier (grad_inf = |d|_inf) fell
    below GRAD_TOL and the tip residual in mm below max(GRAD_TOL, the tip's
    rounding) within MAX_ITER steps. Raises UnreachableConstraint for a pin
    outside the reachable set, and RodOutOfRange when J J^T or the start
    merit overflows; no step with a non-finite merit is taken, so the
    energy stays finite.

    The returned rod holds the joints the solve ends on; energy is its
    bending_energy bit for bit. merits holds the merit at the start and
    after every accepted step, and is empty for a free rod. The merit only
    falls as rho grows, so merits never rise by more than the tip's rounding.
    """
    L = rod.segment_length
    q0 = rod.base_orientation
    omega = rod.rest_curvature
    merits: list = []

    f, iters, gi, resid, tip_tol = 0.0, 0, 0.0, 0.0, GRAD_TOL
    kappa = omega
    if tip_target is not None:
        target = np.asarray(tip_target, dtype=float).reshape(3)
        _check_reachable(rod, target)
        # J J^T sums 3 (n - 1) squares of tip Jacobian entries, each at most n L
        length = rod.n_segments * L
        if not math.isfinite(rod.n_segments * length * length):
            raise RodOutOfRange(f"a pinned rod {length:g} mm long puts J J^T out of float range")
        kappa = rod.joints
        rounding = _ROUNDING_ULPS * rod.n_segments ** 1.5 * L * np.finfo(float).eps
        tip_tol = max(GRAD_TOL, rounding)
        rho = float(np.finfo(float).eps)  # no weight is needed until a step asks for one
        state = _kkt_step(kappa, q0, rod.base, L, omega, target)
        # the merit divides the energy by rho: it must stay in float range
        if not math.isfinite(state[0] / rho):
            raise RodOutOfRange("the rest curvature puts the pinned relax's energy scale "
                                "out of float range")
        while True:
            f, c, jac, d = state  # f is the energy at kappa
            resid = float(np.linalg.norm(c))
            gi = float(np.abs(d).max())
            # the merit's slope along d is gd / rho - drop, where drop is the
            # linearised fall of |c|: all of it unless J J^T is singular
            gd = float(np.sum((kappa - omega) * d))
            drop = resid - float(np.linalg.norm(c + jac @ d.ravel()))
            if drop > 0:
                rho = max(rho, (gd + 0.5 * float(np.sum(d * d))) / (0.5 * drop))
            merit = f / rho + resid
            merits.append(merit)
            if (gi < GRAD_TOL and resid < tip_tol) or iters == MAX_ITER:
                break
            slope = min(0.0, gd / rho - drop)
            alpha = 1.0
            trial = kappa + d
            # a trial equal to kappa has kappa's merit and step, which the tests
            # below reject; halving a finite step reaches one within ~2100 trials
            while not np.array_equal(trial, kappa):
                state = _kkt_step(trial, q0, rod.base, L, omega, target)
                t_merit = state[0] / rho + float(np.linalg.norm(state[1]))
                if (t_merit < merit + _ARMIJO * alpha * slope
                        or (t_merit <= merit + rounding and np.abs(state[3]).max() < gi)):
                    break
                alpha *= 0.5
                trial = kappa + alpha * d
            else:
                break
            iters += 1
            kappa = trial

    return RelaxResult(rod=replace(rod, joints=kappa), energy=f,
                       converged=gi < GRAD_TOL and resid < tip_tol, iterations=iters,
                       grad_inf=gi, tip_residual=resid, merits=tuple(merits))


def rest_curvature_field(n_segments: int, tip_angle: float, seed: int) -> np.ndarray:
    """Smooth low-frequency per-joint rest curvature, deterministic per seed.

    Two random in-plane harmonics weighted toward the distal end (angled-
    tip flavour), scaled so the largest per-joint bend is
    tip_angle / n_segments; the total turn never exceeds tip_angle. Raises
    CurvatureOverflow unless that bend is below pi, so for a NaN or infinite
    tip angle too: a joint bend of pi folds a segment back onto the one
    before it. A bend below pi keeps n_joints bend^2 below n_joints pi^2,
    far from overflow.
    """
    if n_segments < 2:
        raise ValueError("need at least 2 segments")
    n_joints = n_segments - 1
    bend = abs(tip_angle) / n_segments  # the largest per-joint bend
    if not bend < math.pi:
        raise CurvatureOverflow(f"tip angle {tip_angle:g} rad over {n_segments} segments: "
                                f"a joint bend of {bend:g} rad is not below pi")
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
        field *= bend / peak
    omega[:, :2] = field
    return omega


def synth_guidewire(n_segments: int, segment_length: float, tip_angle: float,
                    seed: int) -> np.ndarray:
    """Deterministic synthetic guidewire centerline, base first.

    Builds a straight rod with the seeded rest-curvature field, relaxes it,
    and returns the (n_segments + 1, 3) centerline. Identical seeds give
    identical output; joint spacing equals segment_length exactly.
    """
    omega = rest_curvature_field(n_segments, tip_angle, seed)
    return relax(straight_rod(n_segments, segment_length, rest_curvature=omega)).rod.centerline()
