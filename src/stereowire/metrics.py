"""Curve-comparison and navigation-episode metrics.

Curves are stored tip-first across the package, so the k = 0 uniform
sample is the tip and the tip-tracking error is the first pointwise
distance. Shape metrics compare the two curves sampled on their own
uniform parameter grids (n equal steps over each evaluation domain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import BSplineCurve, sample_uniform
from .errors import DegenerateCurve

FORCE_LIMIT_N = 2.0
GOAL_RADIUS_MM = 8.0
TERMINAL_REWARD = 10.0


@dataclass(frozen=True)
class CurveMetrics:
    max_ed: float   # max pointwise distance (mm)
    mete: float     # tip sample distance (mm)
    mers: float     # mean pointwise distance (mm)
    frechet: float  # discrete Frechet distance over the same samples (mm)


@dataclass(frozen=True, eq=False)
class Episode:
    """One navigation episode: tip track (mm), force track (N), goal, outcome."""

    tip_positions: np.ndarray
    forces: np.ndarray
    goal: np.ndarray
    success: bool
    max_steps: int | None = None

    def __post_init__(self):
        tips = np.atleast_2d(np.asarray(self.tip_positions, dtype=float))
        forces = np.asarray(self.forces, dtype=float).reshape(-1, 3) if np.size(self.forces) \
            else np.zeros((0, 3))
        if len(tips) < 1:
            raise ValueError("episode needs at least one time step")
        if len(forces) not in (0, len(tips)):
            raise ValueError("forces must be empty or match the tip track length")
        object.__setattr__(self, "tip_positions", tips)
        object.__setattr__(self, "forces", forces)
        object.__setattr__(self, "goal", np.asarray(self.goal, dtype=float).reshape(3))
        object.__setattr__(self, "success", bool(self.success))


@dataclass(frozen=True, eq=False)
class EpisodeMetrics:
    path_length: np.ndarray  # per episode, mm
    safety: np.ndarray       # per episode, in [0, 1]
    f_max: np.ndarray        # per episode, N
    f_mean: np.ndarray       # per episode, N
    spl: float
    any_success: bool        # False => no successful episode, SPL pinned to 0


def squared_distance_table(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(n, m) squared distances, summed one coordinate at a time.

    The coordinates are added in order, as a sum over the last axis of the
    (n, m, dim) difference array would add them, so the table is the same
    bit for bit without building that array. Squaring and adding in place
    keeps to two (n, m) buffers.
    """
    out = P[:, 0, None] - Q[None, :, 0]
    out *= out
    for k in range(1, P.shape[1]):
        diff = P[:, k, None] - Q[None, :, k]
        diff *= diff
        out += diff
    return out


def discrete_frechet(P: np.ndarray, Q: np.ndarray) -> float:
    """Discrete Frechet distance between two point sequences.

    The coupling DP is filled one anti-diagonal i + j = k at a time; min
    and max are exact, so the result does not depend on the fill order.
    Cells of one anti-diagonal lie m apart in the flattened tables, so
    each is a strided slice.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n, m = len(P), len(Q)
    # both tables shifted by one: ca has an inf border and -inf at the
    # corner, so ca[1, 1] = d[0, 0]
    w = m + 1
    d = np.zeros((n + 1, w))
    d[1:, 1:] = np.sqrt(squared_distance_table(P, Q))
    d = d.ravel()
    ca = np.full((n + 1) * w, np.inf)
    ca[0] = -np.inf
    for k in range(n + m - 1):
        i0, i1 = max(0, k - m + 1), min(n, k + 1)
        a = w + 1 + k + i0 * m  # cell (i0, k - i0), shifted
        b = a + (i1 - i0 - 1) * m + 1
        prev = np.minimum(np.minimum(ca[a - w:b - w:m], ca[a - w - 1:b - w - 1:m]),
                          ca[a - 1:b - 1:m])
        np.maximum(prev, d[a:b:m], out=ca[a:b:m])
    return float(ca[-1])


def curve_metrics(pred: BSplineCurve, truth: BSplineCurve, n: int = 64) -> CurveMetrics:
    """Pointwise shape errors between two curves sampled at n uniform parameters.

    Raises DegenerateCurve when a distance overflows (a huge control point).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, p = sample_uniform(pred, n)
        _, q = sample_uniform(truth, n)
        d = np.linalg.norm(p - q, axis=1)
    if not np.all(np.isfinite(d)):
        raise DegenerateCurve("curve distances are not finite")
    return CurveMetrics(
        max_ed=float(d.max()),
        mete=float(d[0]),
        mers=float(d.mean()),
        frechet=discrete_frechet(p, q),
    )


def reward(h, g) -> float:
    """Terminal reward inside the GOAL_RADIUS_MM ball, negative distance outside."""
    h = np.asarray(h, dtype=float).reshape(3)
    g = np.asarray(g, dtype=float).reshape(3)
    d = float(np.linalg.norm(h - g))
    return TERMINAL_REWARD if d <= GOAL_RADIUS_MM else -d


def force_magnitude(f) -> float:
    """Euclidean norm of a force vector (N)."""
    f = np.asarray(f, dtype=float).reshape(3)
    return float(np.sqrt(f[0] ** 2 + f[1] ** 2 + f[2] ** 2))


def path_length(tip_positions: np.ndarray) -> float:
    """Sum of Euclidean distances between consecutive tip positions."""
    tips = np.atleast_2d(np.asarray(tip_positions, dtype=float))
    if len(tips) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(tips, axis=0), axis=1).sum())


def episode_metrics(episodes: list[Episode]) -> EpisodeMetrics:
    """Batch navigation metrics.

    SPL weights each success by l / max(p, l) where l is the shortest
    successful path length observed in the batch; with no successful
    episode SPL is reported as 0 with any_success = False. Safety is the
    fraction of steps whose force magnitude stays below 2 N (an episode
    with no force samples counts as fully safe).
    """
    if not episodes:
        raise ValueError("need at least one episode")
    n = len(episodes)
    lengths = np.array([path_length(ep.tip_positions) for ep in episodes])
    safety = np.empty(n)
    f_max = np.empty(n)
    f_mean = np.empty(n)
    for i, ep in enumerate(episodes):
        if len(ep.forces) == 0:
            safety[i], f_max[i], f_mean[i] = 1.0, 0.0, 0.0
            continue
        mags = np.linalg.norm(ep.forces, axis=1)
        safety[i] = 1.0 - float(np.mean(mags >= FORCE_LIMIT_N))
        f_max[i] = float(mags.max())
        f_mean[i] = float(mags.mean())

    success = np.array([ep.success for ep in episodes], dtype=bool)
    any_success = bool(success.any())
    if any_success:
        l_opt = float(lengths[success].min())
        denom = np.maximum(lengths, l_opt)
        # a zero-length optimum (stationary success) counts as a perfect ratio
        ratios = np.divide(l_opt, denom, out=np.ones_like(denom), where=denom > 0)
        spl = float(np.mean(np.where(success, ratios, 0.0)))
    else:
        spl = 0.0
    return EpisodeMetrics(path_length=lengths, safety=safety, f_max=f_max,
                          f_mean=f_mean, spl=spl, any_success=any_success)
