"""Epipolar matching of two annotated curves and SVD triangulation.

The pipeline samples view A's curve uniformly, intersects each point's
epiline with view B's curve exactly (per-span polynomial roots), keeps a
monotone parameter correspondence (filled through missing samples by a
monotone cubic Hermite interpolant), triangulates the matched pairs, fits
a 3D cubic through them, and gates the result on the mean reprojection
error (25 px over both views pooled). The reprojection residual is a
point-to-curve distance found by Newton point inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bspline import (
    BSplineCurve,
    PlanarCurve,
    eval_curve_many,
    fit_curve,
    sample_uniform,
)
from .cameras import (
    FundamentalMatrix,
    ProjectiveCamera,
    camera_center,
    epiline,
    fundamental_matrix,
    project_many,
)
from .errors import NoMatches, NonMonotoneInput, PointAtInfinity, ZeroLine
from .metrics import squared_distance_table

REPROJ_GATE_PX = 25.0
ON_LINE_PX = 1e-9
NEWTON_STEPS = 4
RESIDUAL_SAMPLES = 1024


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
        # interior: weighted harmonic mean of neighbouring secants,
        # zero whenever either secant vanishes (flat stays flat)
        for k in range(1, n - 1):
            if delta[k - 1] == 0.0 or delta[k] == 0.0 or np.sign(delta[k - 1]) != np.sign(delta[k]):
                d[k] = 0.0
            else:
                w1 = 2 * h[k] + h[k - 1]
                w2 = h[k] + 2 * h[k - 1]
                d[k] = (w1 + w2) / (w1 / delta[k - 1] + w2 / delta[k])
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

def _unit_roots(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real roots in [0, 1] of each f_i(x) = sum_k c[i, k] x^k, as (i, x) arrays.

    Companion-matrix eigenvalues (a vanishing leading coefficient is raised
    to ~eps of the others, sending its root far outside [0, 1]), then two
    Newton steps kept where they shrink |f|; a root needs |f| <= ON_LINE_PX.
    The few candidates are polished in Python floats, whose IEEE operations
    round exactly as the elementwise array form would.
    """
    n, p = c.shape[0], c.shape[1] - 1
    floor = np.maximum(np.finfo(float).eps * np.abs(c).max(axis=1), np.finfo(float).tiny)
    companion = np.zeros((n, p, p))
    companion[:, np.arange(1, p), np.arange(p - 1)] = 1.0
    companion[:, :, -1] = -c[:, :p] / np.where(np.abs(c[:, p]) > floor, c[:, p], floor)[:, None]
    z = np.linalg.eigvals(companion).ravel()
    near = np.flatnonzero(np.abs(z.real - 0.5) < 0.5 + 1e-6)

    def value_and_slope(coef, x):
        f, df = coef[p], 0.0
        for a in coef[p - 1::-1]:
            f, df = f * x + a, df * x + f
        return f, df

    rows, xs = [], []
    for k, x in zip(near.tolist(), np.clip(z.real[near], 0.0, 1.0).tolist()):
        coef = c[k // p].tolist()
        f, df = value_and_slope(coef, x)
        for _ in range(2):
            x_new = min(max(x - (f / df if df != 0.0 else 0.0), 0.0), 1.0)
            f_new, df_new = value_and_slope(coef, x_new)
            if abs(f_new) < abs(f):
                x, f, df = x_new, f_new, df_new
        if abs(f) <= ON_LINE_PX:
            rows.append(k // p)
            xs.append(x)
    return np.array(rows, dtype=np.intp), np.array(xs)


def intersect_epiline(curve_b: PlanarCurve, line) -> list[float]:
    """Parameters u_B where the epiline crosses the annotation spline, increasing.

    The line distance l.C(t) is a spline with control values l.P_i + l_2. Spans
    whose p+1 values all lie beyond 1e-9 px on one side cannot meet the line
    (convex hull); on the others its polynomial, from the curve's cached power
    form, is solved exactly. Roots within 1e-9 px count, so a line through an
    end point finds it; a root within 1e-9 of the one before is dropped.
    """
    line = np.asarray(line, dtype=float).reshape(3)
    spline = curve_b.spline
    lo, hi, first, coef = spline.power_spans
    values = spline.control_points @ line[:2] + line[2]
    window = values[first[:, None] + np.arange(spline.degree + 1)]
    meets = (window.min(axis=1) <= ON_LINE_PX) & (window.max(axis=1) >= -ON_LINE_PX)
    c = coef[meets] @ line[:2]
    c[:, 0] += line[2]
    span, x = _unit_roots(c)
    # exact at both span ends, so an end-point root is the end parameter
    roots = np.sort((1.0 - x) * lo[meets][span] + x * hi[meets][span]).tolist()
    return [r for r, prev in zip(roots, [-np.inf, *roots]) if r - prev > 1e-9]


# ---------------------------------------------------------------------------
# curve matching

MISSING = None


@dataclass(frozen=True, eq=False)
class ParamMatch:
    """Sampled u_A -> u_B correspondences and their monotone interpolant."""

    samples: list[tuple[float, float | None]]
    interpolant: MonotoneInterpolant

    def map(self, u_a):
        return self.interpolant(u_a)


def match_curves(curve_a: PlanarCurve, curve_b: PlanarCurve,
                 F: FundamentalMatrix, n_samples: int = 64) -> ParamMatch:
    """Epipolar correspondence u_A -> u_B between two annotated curves.

    Uniformly samples curve A; for each sample the epiline is intersected
    with curve B and the smallest intersection not violating monotonicity
    is kept (near-ties resolved toward the linear prediction from the
    accepted pairs). Samples with no admissible intersection are MISSING
    and filled by the monotone interpolant. Raises NoMatches with fewer
    than two valid pairs.
    """
    if n_samples < 4:
        raise ValueError("n_samples must be >= 4")
    u_as, pts_a = sample_uniform(curve_a, n_samples)

    samples: list[tuple[float, float | None]] = []
    accepted: list[tuple[float, float]] = []
    last_ub = -np.inf
    for u_a, x_a in zip(u_as, pts_a):
        try:
            line = epiline(F, x_a)
        except ZeroLine:
            samples.append((float(u_a), MISSING))
            continue
        roots = intersect_epiline(curve_b, line)
        admissible = [r for r in roots if r >= last_ub - 1e-12]
        if not admissible:
            samples.append((float(u_a), MISSING))
            continue
        u_b = min(admissible)
        near = [r for r in admissible if r - u_b <= 1e-6]
        if len(near) > 1:
            pred = _linear_prediction(accepted, float(u_a))
            u_b = min(near, key=lambda r: abs(r - pred))
        u_b = max(u_b, last_ub)  # clip refinement jitter below the floor
        samples.append((float(u_a), float(u_b)))
        accepted.append((float(u_a), float(u_b)))
        last_ub = u_b

    if len(accepted) < 2:
        raise NoMatches(f"only {len(accepted)} epipolar correspondences found")
    interp = pchip_fit(np.array(accepted))
    return ParamMatch(samples=samples, interpolant=interp)


def _linear_prediction(accepted: list[tuple[float, float]], u_a: float) -> float:
    if not accepted:
        return u_a
    if len(accepted) == 1:
        return accepted[-1][1] + (u_a - accepted[-1][0])
    (xa0, yb0), (xa1, yb1) = accepted[-2], accepted[-1]
    if xa1 == xa0:
        return yb1
    return yb1 + (yb1 - yb0) / (xa1 - xa0) * (u_a - xa1)


# ---------------------------------------------------------------------------
# triangulation

def triangulate_point(cam_a: ProjectiveCamera, cam_b: ProjectiveCamera,
                      x_a, x_b) -> np.ndarray:
    """Two-view DLT triangulation (two rows per view, 4x4 system).

    The solution is the right singular vector of the smallest singular
    value; raises PointAtInfinity when its homogeneous weight is ~ 0.
    """
    ca, cb = camera_center(cam_a), camera_center(cam_b)
    if np.linalg.norm(ca - cb) <= 1e-12:
        raise ValueError("cameras must have distinct centers")
    x_a = np.asarray(x_a, dtype=float).reshape(2)
    x_b = np.asarray(x_b, dtype=float).reshape(2)
    Pa, Pb = cam_a.P, cam_b.P
    A = np.array([
        x_a[0] * Pa[2] - Pa[0],
        x_a[1] * Pa[2] - Pa[1],
        x_b[0] * Pb[2] - Pb[0],
        x_b[1] * Pb[2] - Pb[1],
    ])
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

def _point_and_derivatives(curve: BSplineCurve,
                           t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """C(t), C'(t) and C''(t) from the curve's cached power form.

    One span lookup and one Horner pass that carries the value, the slope
    and half the second derivative of each span polynomial together.
    """
    lo, hi, _, coef = curve.power_spans
    s = np.maximum(np.searchsorted(lo, t, side="right") - 1, 0)
    h = (hi - lo)[s][:, None]
    x = (t - lo[s])[:, None] / h
    c = coef[s]
    f, d1, d2 = c[:, -1], 0.0, 0.0
    for k in range(c.shape[1] - 2, -1, -1):
        d2 = d2 * x + d1
        d1 = d1 * x + f
        f = f * x + c[:, k]
    return f, d1 / h, 2.0 * d2 / (h * h)


def point_to_curve_distances(curve: BSplineCurve, points: np.ndarray) -> np.ndarray:
    """Distance from each point to its nearest point on the curve.

    A dense presample of RESIDUAL_SAMPLES brackets the nearest parameter
    between the neighbours of the closest sample; Newton steps on
    g(t) = C'(t).(C(t) - q) (point inversion, The NURBS Book 6.1), clamped
    to the bracket and skipped where g' <= 0, converge it. The result never
    exceeds the closest sample's distance.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ts, samples = sample_uniform(curve, RESIDUAL_SAMPLES)
    d2 = squared_distance_table(points, samples)
    idx = np.argmin(d2, axis=1)
    lo = ts[np.maximum(idx - 1, 0)]
    hi = ts[np.minimum(idx + 1, RESIDUAL_SAMPLES - 1)]

    t = ts[idx]
    for _ in range(NEWTON_STEPS):
        c, first, second = _point_and_derivatives(curve, t)
        r = c - points
        g = np.sum(first * r, axis=1)
        dg = np.sum(second * r, axis=1) + np.sum(first * first, axis=1)
        t = np.clip(t - np.divide(g, dg, out=np.zeros_like(g), where=dg > 0.0), lo, hi)
    best = np.sqrt(np.sum((eval_curve_many(curve, t) - points) ** 2, axis=1))
    return np.minimum(best, np.sqrt(d2[np.arange(len(points)), idx]))


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
                      curve_a: PlanarCurve, curve_b: PlanarCurve,
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
    u_bs = np.clip(match.interpolant(u_as), *curve_b.spline.domain)
    pts_a = eval_curve_many(curve_a.spline, u_as)
    pts_b = eval_curve_many(curve_b.spline, u_bs)
    world = np.array([
        triangulate_point(cam_a, cam_b, xa, xb) for xa, xb in zip(pts_a, pts_b)
    ])
    curve3d = fit_curve(world, degree=3)

    err_a = point_to_curve_distances(curve_a.spline, project_many(cam_a, world))
    err_b = point_to_curve_distances(curve_b.spline, project_many(cam_b, world))
    per_point = np.column_stack([err_a, err_b])
    mean_reproj = float(per_point.mean())
    return ReconstructionReport(
        curve=curve3d,
        per_point_reproj_px=per_point,
        mean_reproj_px=mean_reproj,
        accepted=mean_reproj <= REPROJ_GATE_PX,
    )
