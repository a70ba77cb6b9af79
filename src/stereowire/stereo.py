"""Epipolar matching of two annotated curves and SVD triangulation.

The pipeline samples view A's curve uniformly, intersects each point's
epiline with view B's curve exactly (per-span polynomial roots), keeps a
monotone parameter correspondence (filled through its gap samples by a
monotone cubic Hermite interpolant), triangulates the matched pairs, fits
a 3D cubic through them, and gates the result on the mean reprojection
error (25 px over both views pooled). The reprojection residual is a
point-to-curve distance: the exact per-span nearest point, searched only on
the spans whose bounding box lies within the distance to the sample's own
curve point, which reconstruct_curve already holds. The intersection and the
residual read one span table per curve (BSplineCurve.power_spans: power
form, Bezier points and boxes) and find their roots with one real-root
finder: _real_roots isolates them by Descartes' rule of signs on Bernstein
coefficients, recursing on the derivative, and _bracket_root refines each
bracketed root by guarded Newton in Python floats. The residual tests
Descartes' one-root case for all its spans at once (_one_root_rows) and
hands those spans, nearly all, straight to _bracket_root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bspline import BSplineCurve, bernstein_matrix, eval_curve_many, fit_curve, sample_uniform
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
# annotation pixels are written with 9 significant digits, about 1e-6 px at
# this rig's coordinates, so a residual is known no finer: each is rounded to
# this resolution before the mean and the gate, and rounding noise below it
# moves neither
RESIDUAL_PX = 1e-6


# ---------------------------------------------------------------------------
# monotone cubic Hermite interpolation (Fritsch-Carlson)

class MonotoneInterpolant:
    """Piecewise cubic Hermite map, nondecreasing everywhere on [x0, x_last].

    Evaluation outside the data span clamps to the endpoint values, which
    keeps the extension monotone when used as a gap filler. An array t gives
    an array of its shape, a scalar t a numpy float64.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, d: np.ndarray):
        self.x = x
        self.y = y
        self.d = d

    def __call__(self, t):
        tt = np.clip(np.asarray(t, dtype=float), self.x[0], self.x[-1])
        idx = np.clip(np.searchsorted(self.x, tt, side="right") - 1, 0, len(self.x) - 2)
        h = self.x[idx + 1] - self.x[idx]
        s = (tt - self.x[idx]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = (h00 * self.y[idx] + h10 * h * self.d[idx]
               + h01 * self.y[idx + 1] + h11 * h * self.d[idx + 1])
        return out[()]


def pchip_fit(pairs) -> MonotoneInterpolant:
    """Monotone cubic Hermite through (x, y) pairs.

    x must be strictly increasing and y nondecreasing; the derivative on
    any flat interval is zero so the output is constant there. Raises
    NonMonotoneInput otherwise, and for any pair that is not finite (a NaN
    compares false, so it would pass both order tests).
    """
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    if len(pairs) < 2:
        raise NonMonotoneInput("need at least two pairs")
    if not np.isfinite(pairs).all():
        raise NonMonotoneInput("pairs must be finite")
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
    """One-sided three-point end slope, clamped to [0, 3 d0] for monotone shape.

    pchip_fit passes the secants d0, d1 >= 0 of a nondecreasing y.
    """
    d = ((2 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    return min(max(d, 0.0), 3 * d0)


# ---------------------------------------------------------------------------
# epiline-curve intersection

def _value_and_slope(coef: list[float], x: float) -> tuple[float, float]:
    """f(x) and f'(x) of f(x) = sum_k coef[k] x^k, by Horner's rule."""
    f, df = coef[-1], 0.0
    for a in coef[-2::-1]:
        f, df = f * x + a, df * x + f
    return f, df


def _bracket_root(coef: list[float], a: float, fa: float, b: float, fb: float) -> float:
    """The one root of f in [a, b], where fa = f(a) and fb = f(b) differ in sign.

    Newton from regula falsi in a shrinking bracket: x is returned when f(x) == 0,
    when the Newton step moves it by at most 2 ulps, or when the step leaves the
    bracket (or f'(x) == 0) and the bisection that replaces it would move x by at
    most 2 ulps or finds no float inside the bracket. A step that rounds to no
    move lands on the bracket end just set to x, so the 2-ulp test comes first.
    """
    x = a - fa * (b - a) / (fb - fa)
    while True:
        f, df = _value_and_slope(coef, x)
        if f == 0.0:
            return x
        a, b = (x, b) if (f < 0.0) == (fa < 0.0) else (a, x)
        newton = x - f / df if df != 0.0 else math.inf
        x_new = newton if a < newton < b else 0.5 * (a + b)
        ulps = 2.0 * math.ulp(x)
        if abs(newton - x) <= ulps or not a < x_new < b or abs(x_new - x) <= ulps:
            return x
        x = x_new


def _real_roots(coef: list[float], bern: list[float], tol: float) -> list[float]:
    """Increasing real roots in [0, 1] of f(x) = sum_k coef[k] x^k, of Bernstein coefficients bern.

    Descartes' rule of signs on bern (Rouillier and Zimmermann 2004): no root
    when bern lies beyond tol on one side, one when bern changes sign once and
    f(0) = bern[0], f(1) = bern[-1] lie beyond tol on opposite sides. Else the
    roots of f' (tol 0) split [0, 1] into monotone pieces, with a root in each
    piece whose ends differ in sign and at each piece end where |f| <= tol and
    no sign changes beside it (so f = 0 has the roots 0 and 1).
    """
    if min(bern) > tol or max(bern) < -tol or len(coef) == 1:
        return []
    f0, f1 = bern[0], bern[-1]
    signs = [b > 0.0 for b in bern if b != 0.0]
    if min(abs(f0), abs(f1)) > tol and sum(s != t for s, t in zip(signs, signs[1:])) == 1:
        return [_bracket_root(coef, 0.0, f0, 1.0, f1)]
    p = len(coef) - 1
    turns = _real_roots([k * a for k, a in enumerate(coef)][1:],
                        [p * (b - a) for a, b in zip(bern, bern[1:])], 0.0)
    ts = [0.0, *(x for x in turns if 0.0 < x < 1.0), 1.0]
    fs = [f0, *(_value_and_slope(coef, x)[0] for x in ts[1:-1]), f1]
    # within Horner's rounding bound (Higham 2002, eq. 5.3) f is 0, so a double root is one root
    size = [abs(a) for a in coef]
    fs = [f if abs(f) > 2 * p * math.ulp(1.0) * _value_and_slope(size, t)[0] else 0.0
          for t, f in zip(ts, fs)]
    crosses = [False, *(fa * fb < 0.0 for fa, fb in zip(fs, fs[1:])), False]
    roots = []
    for i, (t, f) in enumerate(zip(ts, fs)):
        if abs(f) <= tol and not (crosses[i] or crosses[i + 1]):
            roots.append(t)
        if crosses[i + 1]:
            roots.append(_bracket_root(coef, t, f, ts[i + 1], fs[i + 1]))
    return roots


def _one_root_rows(bern: np.ndarray) -> np.ndarray:
    """Which rows of bern are in Descartes' one-root case of _real_roots at tol 0:
    nonzero ends and one sign change, tested for every row at once."""
    flip = np.where(bern[:, :1] < 0.0, -bern, bern)
    return ((flip[:, 0] > 0.0) & (flip[:, -1] < 0.0)
            & ~np.any(np.logical_or.accumulate(flip < 0.0, axis=1) & (flip > 0.0), axis=1))


def intersect_epiline(curve_b: BSplineCurve, line) -> list[float]:
    """Parameters u_B where the epiline crosses the annotation spline, increasing.

    On a knot span of the curve's span table (BSplineCurve.power_spans) the
    line distance l.C(t) + l_2 has the Bezier values l.b_j + l_2; a span whose
    values all lie beyond ON_LINE_PX on one side misses the line (convex hull).
    _real_roots solves each other span's polynomial at tol ON_LINE_PX, so a
    line ending or touching within ON_LINE_PX of a span meets it once and a
    line through an end point finds it. A root within 1e-9 of the one before
    is dropped, since a crossing at a knot is found on both spans.
    """
    line = np.asarray(line, dtype=float).reshape(3)
    lo, hi, bezier, coef, _ = curve_b.power_spans
    hull = bezier @ line[:2] + line[2]
    meets = ((hull.min(axis=0) <= ON_LINE_PX) & (hull.max(axis=0) >= -ON_LINE_PX)).nonzero()[0]
    c = coef[meets] @ line[:2]
    c[:, 0] += line[2]
    # the solver's Bernstein coefficients come from the power form, summed
    # elementwise: the hull's own values round differently, which moves roots
    bern = np.sum(c[:, None] * bernstein_matrix(c.shape[1] - 1), axis=-1)
    # exact at both span ends, so an end-point root is the end parameter
    roots = sorted((1.0 - x) * lo.item(s) + x * hi.item(s)
                   for s, a, b in zip(meets.tolist(), c.tolist(), bern.tolist())
                   for x in _real_roots(a, b, ON_LINE_PX))
    return [r for r, prev in zip(roots, [-math.inf, *roots]) if r - prev > 1e-9]


# ---------------------------------------------------------------------------
# curve matching

@dataclass(frozen=True, eq=False)
class ParamMatch:
    """Sampled u_A -> u_B correspondences, view A's points C_A(u_A) at the samples,
    and the correspondences' monotone interpolant. A u_B of None marks a gap: a
    sample with no admissible intersection, which the interpolant fills."""

    samples: list[tuple[float, float | None]]
    points: np.ndarray
    interpolant: MonotoneInterpolant


def match_curves(curve_a: BSplineCurve, curve_b: BSplineCurve,
                 F: np.ndarray, n_samples: int = 64) -> ParamMatch:
    """Epipolar correspondence u_A -> u_B between two annotated curves.

    Uniformly samples curve A; for each sample the epiline is intersected
    with curve B and the smallest intersection not violating monotonicity
    (within 1e-12 of the last kept one, clipped up to it) is kept. A sample
    with no admissible intersection gets u_B = None, a gap the monotone
    interpolant fills. Raises NoMatches with fewer than two valid pairs.
    """
    if n_samples < 4:
        raise ValueError("n_samples must be >= 4")
    u_as, pts_a = sample_uniform(curve_a, n_samples)

    samples: list[tuple[float, float | None]] = []
    last_ub = -math.inf
    for u_a, x_a in zip(u_as.tolist(), pts_a):
        try:
            roots = intersect_epiline(curve_b, epiline(F, x_a))
        except ZeroLine:  # x_a is view A's epipole, the image of camera B's center
            roots = []
        admissible = [r for r in roots if r >= last_ub - 1e-12]
        if admissible:
            last_ub = max(admissible[0], last_ub)  # roots increase; clip jitter below the floor
        samples.append((u_a, last_ub if admissible else None))

    matched = [pair for pair in samples if pair[1] is not None]
    if len(matched) < 2:
        raise NoMatches(f"only {len(matched)} epipolar correspondences found")
    interp = pchip_fit(np.array(matched))
    return ParamMatch(samples=samples, points=pts_a, interpolant=interp)


# ---------------------------------------------------------------------------
# triangulation

def triangulate_point(cam_a: ProjectiveCamera, cam_b: ProjectiveCamera,
                      x_a, x_b) -> np.ndarray:
    """Two-view DLT triangulation (two rows per view, 4x4 system).

    The rows come from each camera's unit_P, so both views weigh alike at
    any scale of P. The solution is the right singular vector of the
    smallest singular value; raises CoincidentCenters when the camera centers coincide and
    PointAtInfinity when the solution's homogeneous weight is ~ 0.
    """
    _check_distinct_centers(cam_a, cam_b)
    P = np.array((cam_a.unit_P, cam_b.unit_P))
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

def point_to_curve_distances(curve: BSplineCurve, points: np.ndarray, near) -> np.ndarray:
    """Distance from each point q to its nearest point on the curve, given a point
    of the curve per q (or one for all) that bounds the search.

    Each row of near must lie on the curve: it is a candidate nearest point, so
    a row off the curve could give a distance below the true one. Exact per-span
    nearest point (The NURBS Book 6.1): near, a span end, or a root of
    g(x) = C'(x).(C(x) - q), on the spans whose cached bounding box
    (BSplineCurve.power_spans) lies within |q - near| of q. Of these (point,
    span) pairs, those whose g has Bernstein coefficients on both sides of 0,
    about one per point, are solved: _bracket_root refines the root of those
    with one sign change and nonzero ends on [0, 1], as _real_roots would, and
    _real_roots isolates the roots of each other one.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    p = curve.degree
    _, _, bezier, coef, (low, high) = curve.power_spans
    best = np.sum((points - near) ** 2, axis=1)
    # coordinates first and contiguous, so each sum over them adds whole slabs
    q = np.ascontiguousarray(points.T)[:, :, None]
    gap = np.maximum(np.maximum(low[:, None] - q, q - high[:, None]), 0.0)
    pt, span = np.nonzero(np.sum(gap ** 2, axis=0) <= best[:, None])
    ends = bezier[[0, p]][:, span] - points[pt]
    np.minimum.at(best, pt, np.sum(ends ** 2, axis=-1).min(axis=0))
    if p > 0:
        r = coef[span]
        r[:, 0] -= points[pt]
        g = np.zeros((len(span), 2 * p))
        for i in range(p):  # C'(x) has the coefficient (i + 1) a_(i+1) at x^i
            g[:, i:i + p + 1] += (i + 1) * np.sum(r[:, i + 1, None] * r, axis=-1)
        bern = np.sum(g[:, None] * bernstein_matrix(2 * p - 1), axis=-1)
        cross = ((bern.min(axis=1) < 0.0) & (bern.max(axis=1) > 0.0)).nonzero()[0]
        g, bern = g[cross], bern[cross]
        once = _one_root_rows(bern)  # only the other rows pay _real_roots' Python tests
        brackets = zip(g[once].tolist(), bern[once, 0].tolist(), bern[once, -1].tolist())
        roots = [_real_roots(a, b, 0.0) for a, b in zip(g[~once].tolist(), bern[~once].tolist())]
        rows = np.concatenate([cross[once], np.repeat(cross[~once], [len(xs) for xs in roots])])
        x = np.array([*(_bracket_root(a, 0.0, f0, 1.0, f1) for a, f0, f1 in brackets),
                      *(x for xs in roots for x in xs)])[:, None]
        r = r[rows]
        diff = r[:, p]
        for k in range(p - 1, -1, -1):
            diff = diff * x + r[:, k]
        np.minimum.at(best, pt[rows], np.sum(diff ** 2, axis=-1))
    return np.sqrt(best)


# ---------------------------------------------------------------------------
# full reconstruction

@dataclass(frozen=True, eq=False)
class ReconstructionReport:
    """Reconstructed 3D curve with its reprojection-gate verdict."""

    curve: BSplineCurve
    per_point_reproj_px: np.ndarray  # (M, 2) columns err_A, err_B, rounded to RESIDUAL_PX
    mean_reproj_px: float
    accepted: bool


def reconstruct_curve(cam_a: ProjectiveCamera, cam_b: ProjectiveCamera,
                      curve_a: BSplineCurve, curve_b: BSplineCurve,
                      n_samples: int = 64) -> ReconstructionReport:
    """Match, triangulate, and fit a 3D cubic; gate on mean reprojection.

    The reprojection residual of each triangulated sample is its pixel
    distance to the nearest point of the annotation spline in each view,
    rounded to RESIDUAL_PX; the acceptance gate compares the mean of both
    views' rounded residuals pooled against 25 px.
    """
    F = fundamental_matrix(cam_a, cam_b)
    match = match_curves(curve_a, curve_b, F, n_samples)
    u_as = np.array([ua for ua, _ in match.samples])
    u_bs = match.interpolant(u_as)  # in view B's domain to rounding, which the evaluators clamp
    pts_a, pts_b = match.points, eval_curve_many(curve_b, u_bs)
    world = np.array([triangulate_point(cam_a, cam_b, xa, xb) for xa, xb in zip(pts_a, pts_b)])
    curve3d = fit_curve(world)

    err_a = point_to_curve_distances(curve_a, project_many(cam_a, world), pts_a)
    err_b = point_to_curve_distances(curve_b, project_many(cam_b, world), pts_b)
    per_point = np.rint(np.column_stack([err_a, err_b]) / RESIDUAL_PX) * RESIDUAL_PX
    mean_reproj = float(per_point.mean())
    return ReconstructionReport(
        curve=curve3d,
        per_point_reproj_px=per_point,
        mean_reproj_px=mean_reproj,
        accepted=mean_reproj <= REPROJ_GATE_PX,
    )
