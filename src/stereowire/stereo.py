"""Epipolar matching of two annotated curves and SVD triangulation.

The pipeline samples view A's curve uniformly, intersects each point's
epiline with view B's curve exactly (per-span polynomial roots), keeps a
monotone parameter correspondence (filled through missing samples by a
monotone cubic Hermite interpolant), triangulates the matched pairs, fits
a 3D cubic through them, and gates the result on the mean reprojection
error (25 px over both views pooled). The reprojection residual is a
point-to-curve distance: the exact per-span nearest point by companion
roots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bspline import BSplineCurve, eval_curve_many, fit_curve, sample_uniform
from .cameras import (
    ProjectiveCamera,
    _check_distinct_centers,
    epiline,
    fundamental_matrix,
    project_many,
)
from .errors import NoMatches, NonMonotoneInput, PointAtInfinity, ZeroLine

REPROJ_GATE_PX = 25.0
# above the 9-significant-digit precision pixels are written with, so the
# epiline of one view's end sample still meets the other view's end point
ON_LINE_PX = 1e-5


# ---------------------------------------------------------------------------
# monotone cubic Hermite interpolation (Fritsch-Carlson)

class MonotoneInterpolant:
    """Piecewise cubic Hermite map, nondecreasing everywhere on [x0, x_last].

    Evaluation outside the data span clamps to the endpoint values, which
    keeps the extension monotone when used as a gap filler.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, d: np.ndarray):
        self.x = x
        self.y = y
        self.d = d

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.clip(np.atleast_1d(t), self.x[0], self.x[-1])
        idx = np.clip(np.searchsorted(self.x, tt, side="right") - 1, 0, len(self.x) - 2)
        h = self.x[idx + 1] - self.x[idx]
        s = (tt - self.x[idx]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = (h00 * self.y[idx] + h10 * h * self.d[idx]
               + h01 * self.y[idx + 1] + h11 * h * self.d[idx + 1])
        return float(out[0]) if scalar else out


def pchip_fit(pairs) -> MonotoneInterpolant:
    """Monotone cubic Hermite through (x, y) pairs.

    x must be strictly increasing and y nondecreasing; the derivative on
    any flat interval is zero so the output is constant there. Raises
    NonMonotoneInput otherwise.
    """
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    if len(pairs) < 2:
        raise NonMonotoneInput("need at least two pairs")
    x, y = pairs[:, 0], pairs[:, 1]
    if np.any(np.diff(x) <= 0):
        raise NonMonotoneInput("x must be strictly increasing")
    if np.any(np.diff(y) < 0):
        raise NonMonotoneInput("y must be nondecreasing")

    h = np.diff(x)
    delta = np.diff(y) / h
    n = len(x)
    d = np.zeros(n)
    if n == 2:
        d[:] = delta[0]
    else:
        # interior: weighted harmonic mean of neighbouring secants, zero
        # whenever either secant vanishes (flat stays flat); y is
        # nondecreasing, so two nonzero secants share their sign
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore"):  # the flat joints, masked out
            mean = (w1 + w2) / (w1 / delta[:-1] + w2 / delta[1:])
        d[1:-1] = np.where((delta[:-1] != 0.0) & (delta[1:] != 0.0), mean, 0.0)
        d[0] = _edge_derivative(h[0], h[1], delta[0], delta[1])
        d[-1] = _edge_derivative(h[-1], h[-2], delta[-1], delta[-2])
    return MonotoneInterpolant(x.copy(), y.copy(), d)


def _edge_derivative(h0, h1, d0, d1):
    """One-sided three-point end slope, clamped for monotone shape."""
    d = ((2 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(d) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(d) > 3 * abs(d0):
        return 3 * d0
    return min(d, 3 * d0) if d0 > 0 else max(d, 3 * d0)


# ---------------------------------------------------------------------------
# epiline-curve intersection

_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


@functools.cache
def _subdiagonal(p: int) -> np.ndarray:
    """The ones below the diagonal of a (p, p) companion matrix, as a read-only view."""
    return np.broadcast_to(np.eye(p, k=-1), (p, p))


def _companion_roots(c: np.ndarray) -> np.ndarray:
    """(n, p) complex roots of each f_i(x) = sum_k c[i, k] x^k.

    Companion-matrix eigenvalues; a vanishing leading coefficient is raised
    to ~eps of the others, sending its root far outside [0, 1].
    """
    n, p = c.shape[0], c.shape[1] - 1
    size = np.abs(c)
    floor = np.maximum(_EPS * size.max(axis=1), _TINY)
    companion = np.repeat(_subdiagonal(p)[None], n, axis=0)
    companion[:, :, -1] = -c[:, :p] / np.where(size[:, p] > floor, c[:, p], floor)[:, None]
    return np.linalg.eigvals(companion)


def _unit_roots(c: np.ndarray) -> tuple[list[int], list[float]]:
    """Real roots in [0, 1] of each f_i(x) = sum_k c[i, k] x^k, as (i, x) lists.

    The companion roots near [0, 1], then two Newton steps kept where they
    shrink |f|; a root needs |f| <= ON_LINE_PX. The few candidates are
    polished in Python floats, whose IEEE operations round exactly as the
    elementwise array form would.
    """
    p = c.shape[1] - 1

    def value_and_slope(coef, x):
        f, df = coef[p], 0.0
        for a in coef[p - 1::-1]:
            f, df = f * x + a, df * x + f
        return f, df

    rows, xs = [], []
    z = _companion_roots(c).real.ravel().tolist()
    for k in (k for k, x in enumerate(z) if abs(x - 0.5) < 0.5 + 1e-6):
        coef, x = c[k // p].tolist(), min(max(z[k], 0.0), 1.0)
        f, df = value_and_slope(coef, x)
        for _ in range(2):
            x_new = min(max(x - (f / df if df != 0.0 else 0.0), 0.0), 1.0)
            f_new, df_new = value_and_slope(coef, x_new)
            if abs(f_new) < abs(f):
                x, f, df = x_new, f_new, df_new
        if abs(f) <= ON_LINE_PX:
            rows.append(k // p)
            xs.append(x)
    return rows, xs


def intersect_epiline(curve_b: BSplineCurve, line) -> list[float]:
    """Parameters u_B where the epiline crosses the annotation spline, increasing.

    On a knot span the line distance l.C(t) has Bezier values l.b_j + l_2; a
    span whose values all lie beyond ON_LINE_PX on one side misses the line
    (convex hull). The others' polynomials, from the curve's cached power form,
    are solved exactly. Roots within ON_LINE_PX count, so a line through an end
    point finds it; a root within 1e-9 of the one before is dropped.
    """
    line = np.asarray(line, dtype=float).reshape(3)
    lo, hi, bezier, coef = curve_b.power_spans
    values = bezier @ line[:2] + line[2]
    meets = ((values.min(axis=1) <= ON_LINE_PX) & (values.max(axis=1) >= -ON_LINE_PX)).nonzero()[0]
    c = coef[meets] @ line[:2]
    c[:, 0] += line[2]
    # exact at both span ends, so an end-point root is the end parameter
    roots = sorted((1.0 - x) * lo.item(meets[i]) + x * hi.item(meets[i])
                   for i, x in zip(*_unit_roots(c)))
    return [r for r, prev in zip(roots, [-math.inf, *roots]) if r - prev > 1e-9]


# ---------------------------------------------------------------------------
# curve matching

MISSING = None


@dataclass(frozen=True, eq=False)
class ParamMatch:
    """Sampled u_A -> u_B correspondences and their monotone interpolant."""

    samples: list[tuple[float, float | None]]
    interpolant: MonotoneInterpolant


def match_curves(curve_a: BSplineCurve, curve_b: BSplineCurve,
                 F: np.ndarray, n_samples: int = 64) -> ParamMatch:
    """Epipolar correspondence u_A -> u_B between two annotated curves.

    Uniformly samples curve A; for each sample the epiline is intersected
    with curve B and the smallest intersection not violating monotonicity
    (within 1e-12 of the last kept one, clipped up to it) is kept. Samples
    with no admissible intersection are MISSING and filled by the monotone
    interpolant. Raises NoMatches with fewer than two valid pairs.
    """
    if n_samples < 4:
        raise ValueError("n_samples must be >= 4")
    u_as, pts_a = sample_uniform(curve_a, n_samples)

    samples: list[tuple[float, float | None]] = []
    accepted: list[tuple[float, float]] = []
    last_ub = -math.inf
    for u_a, x_a in zip(u_as.tolist(), pts_a):
        try:
            roots = intersect_epiline(curve_b, epiline(F, x_a))
        except ZeroLine:  # x_a is view B's epipole
            roots = []
        admissible = [r for r in roots if r >= last_ub - 1e-12]
        if not admissible:
            samples.append((u_a, MISSING))
            continue
        last_ub = max(admissible[0], last_ub)  # roots increase; clip jitter below the floor
        samples.append((u_a, last_ub))
        accepted.append((u_a, last_ub))

    if len(accepted) < 2:
        raise NoMatches(f"only {len(accepted)} epipolar correspondences found")
    interp = pchip_fit(np.array(accepted))
    return ParamMatch(samples=samples, interpolant=interp)


# ---------------------------------------------------------------------------
# triangulation

def triangulate_point(cam_a: ProjectiveCamera, cam_b: ProjectiveCamera,
                      x_a, x_b) -> np.ndarray:
    """Two-view DLT triangulation (two rows per view, 4x4 system).

    The solution is the right singular vector of the smallest singular
    value; raises CoincidentCenters when the camera centers coincide and
    PointAtInfinity when the solution's homogeneous weight is ~ 0.
    """
    _check_distinct_centers(cam_a, cam_b)
    P = np.array((cam_a.P, cam_b.P))
    # rows x P[2] - P[0] and y P[2] - P[1] of view A, then of view B
    A = (np.array((x_a, x_b), dtype=float).reshape(2, 2, 1) * P[:, 2:] - P[:, :2]).reshape(4, 4)
    _, s, Vt = np.linalg.svd(A)
    if s[-2] <= 1e-9 * s[0]:
        # both rays coincide (e.g. a point on the baseline): no unique solution
        raise PointAtInfinity("degenerate ray configuration, intersection ambiguous")
    X = Vt[-1]
    if abs(X[3]) <= 1e-10:
        raise PointAtInfinity("triangulated point has ~zero homogeneous weight")
    return X[:3] / X[3]


# ---------------------------------------------------------------------------
# point-to-curve distance (reprojection residual)

def point_to_curve_distances(curve: BSplineCurve, points: np.ndarray) -> np.ndarray:
    """Distance from each point q to its nearest point on the curve.

    Exact per-span nearest point by companion roots (The NURBS Book 6.1): a
    span end, or a root of g(x) = C'(x).(C(x) - q) on a span whose bounding
    box, that of its cached Bezier points (BSplineCurve.power_spans), is within
    the nearest span end.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    p = curve.degree
    _, _, bezier, coef = curve.power_spans
    # coordinates first, so each sum over them adds whole slabs
    bezier = np.moveaxis(bezier, -1, 0)
    q = points.T[:, :, None]
    ends = np.concatenate([bezier[:, :, 0], bezier[:, -1:, p]], axis=1)
    best = np.sum((q - ends[:, None]) ** 2, axis=0).min(axis=1)
    boxed = np.clip(q, bezier.min(axis=2)[:, None], bezier.max(axis=2)[:, None])
    pt, span = np.nonzero(np.sum((q - boxed) ** 2, axis=0) <= best[:, None])
    if p > 0:
        r = coef[span]
        r[:, 0] -= points[pt]
        g = np.zeros((len(span), 2 * p))
        for i in range(p):  # C'(x) has the coefficient (i + 1) a_(i+1) at x^i
            g[:, i:i + p + 1] += (i + 1) * np.sum(r[:, i + 1, None] * r, axis=-1)
        x = np.clip(_companion_roots(g).real, 0.0, 1.0)[..., None]
        diff = r[:, p, None]
        for k in range(p - 1, -1, -1):
            diff = diff * x + r[:, k, None]
        np.minimum.at(best, pt, np.sum(diff ** 2, axis=-1).min(axis=1))
    return np.sqrt(best)


# ---------------------------------------------------------------------------
# full reconstruction

@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Reconstructed 3D curve with its reprojection-gate verdict."""

    curve: BSplineCurve
    per_point_reproj_px: np.ndarray  # (M, 2) columns err_A, err_B
    mean_reproj_px: float
    accepted: bool


def reconstruct_curve(cam_a: ProjectiveCamera, cam_b: ProjectiveCamera,
                      curve_a: BSplineCurve, curve_b: BSplineCurve,
                      n_samples: int = 64) -> ReconstructionReport:
    """Match, triangulate, and fit a 3D cubic; gate on mean reprojection.

    The reprojection residual of each triangulated sample is its pixel
    distance to the nearest point of the annotation spline in each view;
    the acceptance gate compares the mean of both views' residuals pooled
    against 25 px.
    """
    F = fundamental_matrix(cam_a, cam_b)
    match = match_curves(curve_a, curve_b, F, n_samples)
    u_as = np.array([ua for ua, _ in match.samples])
    u_bs = np.clip(match.interpolant(u_as), *curve_b.domain)
    pts_a = eval_curve_many(curve_a, u_as)
    pts_b = eval_curve_many(curve_b, u_bs)
    world = np.array([triangulate_point(cam_a, cam_b, xa, xb) for xa, xb in zip(pts_a, pts_b)])
    curve3d = fit_curve(world)

    err_a = point_to_curve_distances(curve_a, project_many(cam_a, world))
    err_b = point_to_curve_distances(curve_b, project_many(cam_b, world))
    per_point = np.column_stack([err_a, err_b])
    mean_reproj = float(per_point.mean())
    return ReconstructionReport(
        curve=curve3d,
        per_point_reproj_px=per_point,
        mean_reproj_px=mean_reproj,
        accepted=mean_reproj <= REPROJ_GATE_PX,
    )
