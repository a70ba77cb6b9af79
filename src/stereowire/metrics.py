"""Curve-comparison and navigation-episode metrics.

Curves are stored tip-first across the package, so the k = 0 uniform
sample is the tip and the tip-tracking error is the first pointwise
distance. Shape metrics compare the two curves sampled on their own
uniform parameter grids (n equal steps over each evaluation domain).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .bspline import BSplineCurve, sample_uniform
from .errors import DegenerateCurve, StereowireError

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
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be non-negative")
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
    """Discrete Frechet distance between two point sequences of one dimension.

    The distance is the least entry e of the distance table d whose cells d <= e
    hold a coupling (_coupled, the free-space decision test of Alt and Godau
    1995); the test's answer only grows with e. Every coupling visits each row
    and each column of d and both corners, so max(d[0, 0], d[-1, -1], the row
    minima, the column minima) is a lower bound, tested first; when it fails,
    a binary search over the sorted distinct entries above it finds e. A NaN
    distance gives NaN. Raises ValueError when a sequence is empty or the two
    differ in dimension.
    """
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    if P.size == 0 or Q.size == 0 or np.atleast_2d(P).shape[1:] != np.atleast_2d(Q).shape[1:]:
        raise ValueError(f"need two non-empty point sequences of one dimension, "
                         f"got shapes {P.shape} and {Q.shape}")
    P, Q = np.atleast_2d(P), np.atleast_2d(Q)
    table = np.sqrt(squared_distance_table(P, Q))
    bound = np.max((table[0, 0], table[-1, -1], table.min(axis=1).max(), table.min(axis=0).max()))
    if np.isnan(bound) or _coupled(table <= bound):
        return float(bound)
    # the first entry above the bound whose cells hold a coupling; the largest
    # entry frees every cell, so there is one
    above = np.unique(table[table > bound])
    return float(above[bisect.bisect_left(above, True, key=lambda e: _coupled(table <= e))])


def _coupled(free: np.ndarray) -> bool:
    """Whether the (n, m) boolean table holds a monotone path of True cells, each step
    one right, down or diagonal, from (0, 0) to (n - 1, m - 1) (Alt and Godau 1995).

    Row i is a Python int whose bit j is cell (i, j). The cells reached from the
    row before, j and j + 1 for each reached j, seed the row; adding the seeds to
    the free bits carries each seed up to the end of its run of free cells.
    """
    packed = np.packbits(free, axis=1, bitorder="little")
    width, data = packed.shape[1], packed.tobytes()
    seed = 1  # (0, 0) alone seeds row 0
    for start in range(0, len(data), width):
        bits = int.from_bytes(data[start:start + width], "little")
        seed &= bits
        reached = seed | ((seed + bits) ^ bits) & bits
        seed = reached | reached << 1
        if not seed:
            return False
    return bool(reached >> (free.shape[1] - 1) & 1)


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


def force_magnitude(f):
    """Euclidean norm of force vectors over a last axis of 3 (N); a float for one vector."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (3,):
        raise ValueError(f"force vectors need a last axis of 3, got shape {f.shape}")
    return np.linalg.norm(f, axis=-1)[()]


def path_length(tip_positions: np.ndarray) -> float:
    """Sum of Euclidean distances between consecutive tip positions."""
    tips = np.atleast_2d(np.asarray(tip_positions, dtype=float))
    return float(np.linalg.norm(np.diff(tips, axis=0), axis=1).sum())


def episode_metrics(episodes: list[Episode]) -> EpisodeMetrics:
    """Batch navigation metrics.

    SPL weights each success by l / max(p, l) where l is the shortest
    successful path length observed in the batch; with no successful
    episode SPL is reported as 0 with any_success = False. Safety is the
    fraction of steps whose force magnitude stays below 2 N (an episode
    with no force samples counts as fully safe). Raises StereowireError
    when a path length, force or the SPL is not finite (a huge tip or force).
    """
    if not episodes:
        raise ValueError("need at least one episode")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        lengths = np.array([path_length(ep.tip_positions) for ep in episodes])
        # one row of magnitudes per episode, zero past its last force sample
        counts = np.array([len(ep.forces) for ep in episodes])
        held = np.arange(counts.max()) < counts[:, None]
        mags = np.zeros(held.shape)
        mags[held] = force_magnitude(np.concatenate([ep.forces for ep in episodes]))
        per = np.maximum(counts, 1)
        safety = 1.0 - np.count_nonzero(mags >= FORCE_LIMIT_N, axis=1) / per
        f_max = mags.max(axis=1, initial=0.0)
        f_mean = mags.sum(axis=1, where=held) / per

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
    if not np.all(np.isfinite([*lengths, *f_max, *f_mean, spl])):
        raise StereowireError("episode path lengths, forces or SPL are not finite")
    return EpisodeMetrics(path_length=lengths, safety=safety, f_max=f_max,
                          f_mean=f_mean, spl=spl, any_success=any_success)
