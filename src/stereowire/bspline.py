"""B-spline basis evaluation, curve fitting, and arclength parameterization.

The canonical construction is a clamped knot vector (first and last knot
each repeated degree+1 times) built by knot averaging, so fitted curves
interpolate their end points. Basis functions follow the two-term
recursion with the 0/0 -> 0 convention; the degree-0 indicator is closed
on the right at the evaluation-domain end t_(m-p) so curves are defined
at their last parameter. All evaluation, a single basis value included,
is one batched kernel (span search and triangular recursion, The NURBS
Book A2.2) of elementwise array operations, so a result does not depend
on its batch.

A fit solves its collocation system, four nonzeros per row, by block LU
over row blocks of at most BLOCK = 64 rows: one dense solve per block,
coupled to the next through FIT_DEGREE columns, so its time and memory
grow linearly with the number of vertices. The collocation matrix is
totally positive (de Boor 1976; de Boor & Pinkus 1977), so Gaussian
elimination needs no pivoting across blocks; LAPACK pivots within each.
A fit of at most 64 points is one block: one dense solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    DegenerateCurve,
    IndexOutOfRange,
    OutOfDomain,
    SolveFailure,
    TooFewPoints,
)

DEDUP_TOL = 1e-9
FIT_DEGREE = 3  # every fitted curve is a cubic
BLOCK = 64  # most rows of one dense solve in a fit


def clamped_uniform_knots(n_ctrl: int, degree: int) -> np.ndarray:
    """Clamped knots on [0, 1] with uniformly spaced interior knots."""
    p = degree
    if n_ctrl < p + 1:
        raise ValueError("need at least degree+1 control points")
    interior = np.linspace(0.0, 1.0, n_ctrl - p + 1)[1:-1]
    return np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])


def averaged_knots(u: np.ndarray, degree: int) -> np.ndarray:
    """Clamped knots for interpolation at parameters u by knot averaging.

    Interior knot t_(p+j) is the mean of p consecutive parameters
    u_j..u_(j+p-1), which satisfies the Schoenberg-Whitney conditions.
    """
    u = np.asarray(u, dtype=float)
    p = degree
    count = max(u.size - p - 1, 0)
    # the p shifted slices added in order, as each window's mean adds them
    interior = u[1:1 + count].copy()
    for k in range(1, p):
        interior += u[1 + k:1 + k + count]
    interior /= p
    return np.concatenate([np.full(p + 1, u[0]), interior, np.full(p + 1, u[-1])])


def _find_spans(knots: np.ndarray, p: int, ts: np.ndarray) -> np.ndarray:
    """Knot-span index of each domain parameter (the last nonempty span at the right end)."""
    hi = knots[knots.size - 1 - p]
    right_end = np.searchsorted(knots, hi)  # one past the last knot below hi
    return np.where(ts < hi, np.searchsorted(knots, ts, side="right"), right_end) - 1


def _basis_levels(knots: np.ndarray, p: int, ts: np.ndarray, spans: np.ndarray) -> list[np.ndarray]:
    """Every level of the triangle: level j, (j+1, n), holds B_(s-j+k, j)(t) in row k.

    Level p holds the p+1 basis values that are nonzero at each t in its span s.

    Level j reads only the knots t_(s+1-j) .. t_(s+j), so it is the degree-j
    triangle's last level, bit for bit, on any knots that share them.
    """
    window = knots[spans + np.arange(1 - p, p + 1)[:, None]]  # t_(s+1-p) .. t_(s+p)
    left, right = ts - window[p - 1::-1], window[p:] - ts  # row j-1: t - t_(s+1-j), t_(s+j) - t
    levels = [np.ones((1, ts.size))]
    for j in range(1, p + 1):  # every r of level j at once, in the triangle's order
        tmp = levels[-1] / (right[:j] + left[j - 1::-1])
        N = np.concatenate([np.zeros((1, ts.size)), left[j - 1::-1] * tmp])
        N[:j] += right[:j] * tmp
        levels.append(N)
    return levels


@dataclass(frozen=True, eq=False)
class BSplineCurve:
    """C(t) = sum_i P_i B_(i,p)(t) with control points of any dimension.

    The nondecreasing knots t_0..t_m and the degree p carry n_ctrl = m - p
    control points; the evaluation domain is [t_p, t_(m-p)]. 2D instances
    are annotation fits (px), 3D instances wires (mm).
    """

    control_points: np.ndarray
    knots: np.ndarray
    degree: int

    def __post_init__(self):
        cp = np.atleast_2d(np.asarray(self.control_points, dtype=float))
        knots = np.asarray(self.knots, dtype=float)
        p = int(self.degree)
        if p < 0:
            raise ValueError("degree must be nonnegative")
        # compared, not differenced: a knot difference may overflow until the width is checked
        if knots.ndim != 1 or np.any(knots[1:] < knots[:-1]):
            raise ValueError("knots must be a nondecreasing 1-D array")
        if knots.size != cp.shape[0] + p + 1:
            raise ValueError(
                f"{cp.shape[0]} control points incompatible with knot count "
                f"{knots.size} at degree {p}"
            )
        # Python floats: an overflowing width is inf without a warning
        if not (np.isfinite(knots).all() and math.isfinite(float(knots[-1]) - float(knots[0]))):
            raise ValueError("knots must be finite and span a finite width")
        if cp.shape[0] < p + 1:
            raise ValueError("need at least degree+1 control points")
        if not knots[p] < knots[-1 - p]:
            raise ValueError("empty evaluation domain")
        object.__setattr__(self, "control_points", cp)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "degree", p)

    @property
    def dim(self) -> int:
        return self.control_points.shape[1]

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.degree]), float(self.knots[-1 - self.degree])

    @cached_property
    def power_spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, bezier, coef, box) of the nonempty knot spans s: the one span table of
        every frame kernel, computed once per curve.

        On s, C(t) = sum_k coef[s, k] x^k with x = (t - lo[s]) / (hi[s] - lo[s]),
        Taylor terms C^(k)(lo) (hi - lo)^k / k!. C^(k) has the control points
        P'_i = d (P_(i+1) - P_i) / (t_(i+d+1) - t_(i+1)), differenced from degree
        d = p down (The NURBS Book 3.3), on the knots trimmed by k at each end. Its
        basis at every lo is level d of one degree-p triangle (_basis_levels), so
        C^(k)(lo) is the kernel's value of that hodograph curve bit for bit, while
        the triangle runs once rather than p+1 times. bezier[:, s] holds
        the span's p+1 Bezier points bernstein_matrix(p) @ coef[s], from its start
        to its end, control index first; their convex hull holds it (The NURBS Book
        5.1), and so does its bounding box from box[0, :, s] to box[1, :, s].
        """
        p, cp, knots = self.degree, self.control_points, self.knots
        s = p + np.flatnonzero(np.diff(knots)[p:knots.size - 1 - p] > 0)
        lo, hi = knots[s], knots[s + 1]
        levels = _basis_levels(knots, p, lo, s)
        coef, kn = [], knots
        for k in range(p + 1):
            d = p - k  # the degree of C^(k), whose basis at lo is level d
            scale = (hi - lo) ** k / math.factorial(k)
            coef.append(_combine(levels[d], cp, s - p) * scale[:, None])
            if d:  # its hodograph on the inner knots, 0 over an empty span
                width = (kn[d + 1:-1] - kn[1:len(cp)])[:, None]
                diff = d * np.diff(cp, axis=0)
                cp, kn = np.divide(diff, width, out=np.zeros_like(diff), where=width > 0), kn[1:-1]
        coef = np.stack(coef, axis=1)
        bezier = np.ascontiguousarray((bernstein_matrix(p) @ coef).transpose(1, 0, 2))
        box = np.stack([bezier.min(axis=0).T, bezier.max(axis=0).T])
        return lo, hi, bezier, coef, box


@cache
def bernstein_matrix(p: int) -> np.ndarray:
    """Read-only (p+1, p+1) map from the power coefficients a of a degree-p polynomial
    on [0, 1] to its Bernstein coefficients b_j = sum_k comb(j, k) / comb(p, k) a_k."""
    m = np.array([[math.comb(j, k) / math.comb(p, k) for k in range(p + 1)] for j in range(p + 1)])
    m.flags.writeable = False
    return m


def eval_curve_many(curve: BSplineCurve, ts: np.ndarray) -> np.ndarray:
    """(n, dim) points at an array of parameters.

    Parameters within 1e-10 (relative) of the domain are clamped into it;
    any other, NaN included, raises OutOfDomain.
    """
    ts = np.asarray(ts, dtype=float).ravel()
    lo, hi = curve.domain
    tol = 1e-10 * max(1.0, abs(lo), abs(hi))
    outside = ~((ts >= lo - tol) & (ts <= hi + tol))
    if outside.any():
        raise OutOfDomain(f"t={ts[outside][0]} outside [{lo}, {hi}]")
    ts = np.clip(ts, lo, hi)
    p, knots = curve.degree, curve.knots
    spans = _find_spans(knots, p, ts)
    return _combine(_basis_levels(knots, p, ts, spans)[p], curve.control_points, spans - p)


def _combine(N: np.ndarray, cp: np.ndarray, first: np.ndarray) -> np.ndarray:
    """(n, dim) sums sum_k N[k] cp[first + k], added in the order of k."""
    N = N[:, :, None]
    ctrl = cp[first + np.arange(len(N))[:, None]]
    out = N[0] * ctrl[0]
    for k in range(1, len(N)):
        out += N[k] * ctrl[k]
    return out


def basis(i: int, p: int, t: float, knots) -> float:
    """Value of the i-th degree-p basis function at t over knots t_0..t_m.

    The batched kernel's value at t of the curve whose control points are
    the unit vector e_i. Raises ValueError, as BSplineCurve does, for knots
    that hold no degree-p curve, IndexOutOfRange unless 0 <= i <= m - p - 1,
    and OutOfDomain, as every evaluator does, unless t lies within 1e-10
    (relative) of the evaluation domain [t_p, t_(m-p)].
    """
    n = np.size(knots) - p - 1
    # the (n, 1) column e_i, so the kernel's sum has one nonzero term and no n x n table
    curve = BSplineCurve((np.arange(max(n, 0)) == i)[:, None].astype(float), knots, p)
    if not 0 <= i < n:
        raise IndexOutOfRange(f"basis index {i} outside 0..{n - 1}")
    return float(eval_curve_many(curve, [t])[0, 0])


def dedupe_points(points: np.ndarray) -> np.ndarray:
    """Drop each vertex within DEDUP_TOL of the last vertex kept before it.

    A vertex is kept unless its distance is <= DEDUP_TOL, so one at a NaN
    distance (a NaN vertex, or one after it) is kept for the caller to refuse.
    The consecutive gaps settle every vertex whose predecessor is kept in
    one array call; from a gap of at most DEDUP_TOL a loop walks on, measuring
    from the last kept vertex, until it keeps a vertex again.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    if n == 0:
        return points
    # an overflowing gap is inf, which is kept
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.linalg.norm(np.diff(points, axis=0), axis=-1)
        keep = np.concatenate([[True], ~(gaps <= DEDUP_TOL)])
        resume = 0
        for j in np.flatnonzero(~keep).tolist():
            if j < resume:
                continue
            last, i = j - 1, j + 1  # j - 1 is kept: a walk ends on a kept vertex
            while i < n:
                keep[i] = not np.linalg.norm(points[i] - points[last], axis=-1) <= DEDUP_TOL
                if keep[i]:
                    break
                i += 1
            resume = i + 1
    return points[keep]


def parameterize_arclength(points) -> np.ndarray:
    """Normalized cumulative chord-length parameters u in [0, 1].

    u_k is the prefix sum of segment lengths divided by the total length;
    raises DegenerateCurve when the total length is <= 1e-12 or is not
    finite (a non-finite vertex, or one so large the length overflows).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if len(points) < 2:
        raise DegenerateCurve("need at least two points")
    with np.errstate(over="ignore", invalid="ignore"):
        seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = float(seg.sum())
    if not np.isfinite(total):
        raise DegenerateCurve("polyline length is not finite")
    if total <= 1e-12:
        raise DegenerateCurve("polyline has zero total length")
    u = np.concatenate([[0.0], np.cumsum(seg)]) / total
    u[0], u[-1] = 0.0, 1.0
    return u


def _solve_collocation(spans: np.ndarray, values: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, float]:
    """(ctrl, resid): the solution of B ctrl = pts and max |B ctrl - pts| over its rows.

    Row i of the n x n collocation matrix B holds values[i] in its columns
    spans[i] - K .. spans[i] (K = FIT_DEGREE). Block LU over ceil(n / BLOCK)
    balanced row blocks, pivoting within a block only: block j's rows form one
    strip [L | D | U] of the columns they reach, with K coupling columns on each
    side. The forward sweep takes L into a Schur update of D's first K columns and
    of f, then solves D against [U | f] for X and y; the back sweep sets
    x_j = y_j - X_j x_(j+1)[:K]. resid multiplies each strip by its window of ctrl.
    """
    n, K = len(pts), FIT_DEGREE
    count = -(-n // BLOCK)
    ctrl, resid, blocks = np.empty_like(pts), np.empty_like(pts), []
    for j in range(count):
        a, b = j * n // count, (j + 1) * n // count  # balanced, at most BLOCK rows
        lo, hi = max(a - K, 0), min(b + K, n)
        # spans never decrease, so the strip holds its rows' columns unless the first
        # reaches left of lo or the last right of hi - 1; that row's columns miss its
        # own B_i(u_i), without which B is singular (Schoenberg-Whitney)
        if spans[a] - K < lo or spans[b - 1] >= hi:
            raise SolveFailure("singular interpolation system")
        strip = np.zeros((b - a, hi - lo))
        strip[np.arange(b - a)[:, None], spans[a:b, None] - (lo + K) + np.arange(K + 1)] = values[a:b]
        D, f = strip[:, a - lo:b - lo], pts[a:b]
        if a:  # Schur update by the block before: its X, and its y left in ctrl
            L = strip[:, :K]
            D = D.copy()
            D[:, :K] -= L @ X[-K:]
            f = f - L @ ctrl[a - K:a]
        k = hi - b  # coupling columns to the next block, 0 after the last
        try:
            sol = np.linalg.solve(D, np.hstack([strip[:, b - lo:], f]) if k else f)
        except np.linalg.LinAlgError as exc:
            raise SolveFailure("singular interpolation system") from exc
        X, ctrl[a:b] = sol[:, :k], sol[:, k:]
        blocks.append((a, b, lo, hi, strip, X))
    for a, b, _, _, _, X in blocks[-2::-1]:
        ctrl[a:b] -= X @ ctrl[b:b + K]
    for a, b, lo, hi, strip, _ in blocks:
        np.matmul(strip, ctrl[lo:hi], out=resid[a:b])
    resid -= pts
    return ctrl, np.abs(resid).max()


def fit_curve(polyline) -> BSplineCurve:
    """Interpolating cubic B-spline through a polyline at its arclength parameters.

    Consecutive duplicate vertices are removed first (tol 1e-9). Returns a
    BSplineCurve of the input's dimension. Raises TooFewPoints below
    4 distinct vertices, DegenerateCurve for a non-finite vertex (kept by
    dedupe_points, refused by parameterize_arclength) and SolveFailure if the
    collocation system is singular or cannot reproduce the vertices to
    max(1e-9, 1e-12 max|vertex|).

    The system is solved by block LU over balanced row blocks of at most
    BLOCK rows (_solve_collocation), in time and memory linear in the
    vertices; no pivoting across blocks is needed, because the collocation
    matrix is totally positive. At most BLOCK vertices make one dense solve.
    """
    pts = dedupe_points(polyline)
    n = len(pts)
    degree = FIT_DEGREE
    if n < degree + 1:
        raise TooFewPoints(f"need >= {degree + 1} distinct points, got {n}")
    u = parameterize_arclength(pts)
    knots = averaged_knots(u, degree)
    spans = _find_spans(knots, degree, u)
    values = _basis_levels(knots, degree, u, spans)[degree].T
    ctrl, resid = _solve_collocation(spans, values, pts)
    tol = max(1e-9, 1e-12 * np.abs(pts).max())
    if not resid <= tol:  # a NaN residual is refused too
        raise SolveFailure(f"interpolation residual {resid:.3g} exceeds {tol:.3g}")
    return BSplineCurve(ctrl, knots, degree)


def sample_uniform(curve: BSplineCurve, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n curve samples at t_k = t_p + (k/(n-1)) (t_(m-p) - t_p), endpoints included."""
    if n < 2:
        raise ValueError("need n >= 2 samples")
    lo, hi = curve.domain
    ts = lo + (np.arange(n) / (n - 1)) * (hi - lo)
    ts[-1] = hi
    return ts, eval_curve_many(curve, ts)
