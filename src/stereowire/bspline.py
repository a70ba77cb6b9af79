"""B-spline basis evaluation, curve fitting, and arclength parameterization.

The canonical construction is a clamped knot vector (first and last knot
each repeated degree+1 times) built by knot averaging, so fitted curves
interpolate their end points. Basis functions follow the two-term
recursion with the 0/0 -> 0 convention; the degree-0 indicator is closed
on the right at the evaluation-domain end t_(m-p) so curves are defined
at their last parameter. All evaluation is one batched kernel (span
search and triangular recursion, The NURBS Book A2.2) of elementwise
array operations, so a result does not depend on its batch; the
recursive ``basis`` is the reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Nondecreasing knots t_0..t_m with a degree p.

    A curve over this vector has n_ctrl = m - p control points; the
    evaluation domain is [t_p, t_(m-p)].
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        p = int(self.degree)
        if p < 0:
            raise ValueError("degree must be nonnegative")
        if knots.ndim != 1 or knots.size < 2 * p + 2:
            raise ValueError("knot vector too short for its degree")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        if not knots[p] < knots[knots.size - 1 - p]:
            raise ValueError("empty evaluation domain")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "degree", p)

    @property
    def m(self) -> int:
        return self.knots.size - 1

    @property
    def n_basis(self) -> int:
        """Number of basis functions / control points (m - p)."""
        return self.m - self.degree

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.knots[self.degree]), float(self.knots[self.m - self.degree])


def clamped_uniform_knots(n_ctrl: int, degree: int) -> KnotVector:
    """Clamped knot vector on [0, 1] with uniformly spaced interior knots."""
    p = degree
    if n_ctrl < p + 1:
        raise ValueError("need at least degree+1 control points")
    interior = np.linspace(0.0, 1.0, n_ctrl - p + 1)[1:-1]
    knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
    return KnotVector(knots, p)


def averaged_knots(u: np.ndarray, degree: int) -> KnotVector:
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
    knots = np.concatenate([np.full(p + 1, u[0]), interior, np.full(p + 1, u[-1])])
    return KnotVector(knots, p)


def _cox_de_boor(i: int, p: int, t: float, knots: np.ndarray, t_close: float) -> float:
    """Two-term basis recursion; the indicator closes right at t_close."""
    if p == 0:
        if knots[i] <= t < knots[i + 1]:
            return 1.0
        if t == t_close and knots[i + 1] == t_close and knots[i] < knots[i + 1]:
            return 1.0
        return 0.0
    out = 0.0
    d1 = knots[i + p] - knots[i]
    if d1 > 0.0:
        out += (t - knots[i]) / d1 * _cox_de_boor(i, p - 1, t, knots, t_close)
    d2 = knots[i + p + 1] - knots[i + 1]
    if d2 > 0.0:
        out += (knots[i + p + 1] - t) / d2 * _cox_de_boor(i + 1, p - 1, t, knots, t_close)
    return out


def basis(i: int, p: int, t: float, kv: KnotVector) -> float:
    """Value of the i-th degree-p basis function at t.

    Raises IndexOutOfRange unless 0 <= i <= m - p - 1.
    """
    knots = kv.knots
    m = knots.size - 1
    if not 0 <= i <= m - p - 1:
        raise IndexOutOfRange(f"basis index {i} outside 0..{m - p - 1}")
    t_close = float(knots[m - p])
    return _cox_de_boor(i, p, float(t), knots, t_close)


def _find_spans(knots: np.ndarray, p: int, ts: np.ndarray) -> np.ndarray:
    """Knot-span index of each domain parameter (the last nonempty span at the right end)."""
    hi = knots[knots.size - 1 - p]
    right_end = np.searchsorted(knots, hi)  # one past the last knot below hi
    return np.where(ts < hi, np.searchsorted(knots, ts, side="right"), right_end) - 1


def _basis_funs(knots: np.ndarray, p: int, ts: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """The p+1 nonzero basis values: row k holds B_(s-p+k, p)(t) for each t and its span s."""
    N = np.empty((p + 1, ts.size))
    N[0] = 1.0
    left = np.empty((p + 1, ts.size))
    right = np.empty((p + 1, ts.size))
    for j in range(1, p + 1):
        left[j] = ts - knots[spans + 1 - j]
        right[j] = knots[spans + j] - ts
        saved = 0.0
        for r in range(j):
            tmp = N[r] / (right[r + 1] + left[j - r])
            N[r] = saved + right[r + 1] * tmp
            saved = left[j - r] * tmp
        N[j] = saved
    return N


@dataclass(frozen=True, eq=False)
class BSplineCurve:
    """C(t) = sum_i P_i B_(i,p)(t) with control points of any dimension.

    2D instances are annotation fits (px), 3D instances wires (mm).
    """

    control_points: np.ndarray
    knots: KnotVector

    def __post_init__(self):
        cp = np.atleast_2d(np.asarray(self.control_points, dtype=float))
        p = self.knots.degree
        if cp.shape[0] != self.knots.n_basis:
            raise ValueError(
                f"{cp.shape[0]} control points incompatible with knot count "
                f"{self.knots.m + 1} at degree {p}"
            )
        if cp.shape[0] < p + 1:
            raise ValueError("need at least degree+1 control points")
        object.__setattr__(self, "control_points", cp)

    @property
    def degree(self) -> int:
        return self.knots.degree

    @property
    def dim(self) -> int:
        return self.control_points.shape[1]

    @property
    def domain(self) -> tuple[float, float]:
        return self.knots.domain

    @cached_property
    def derivative(self) -> BSplineCurve:
        """The hodograph C'(t): degree p-1 on the inner knots (the zero curve for p = 0)."""
        p, cp, knots = self.degree, self.control_points, self.knots.knots
        if p == 0:
            return BSplineCurve(np.zeros_like(cp), self.knots)
        width = (knots[p + 1:-1] - knots[1:cp.shape[0]])[:, None]
        diff = p * np.diff(cp, axis=0)
        ctrl = np.divide(diff, width, out=np.zeros_like(diff), where=width > 0)
        return BSplineCurve(ctrl, KnotVector(knots[1:-1], p - 1))

    @cached_property
    def power_spans(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(lo, hi, bezier, coef) of each nonempty knot span s, computed once per curve.

        On s, C(t) = sum_k coef[s, k] x^k with x = (t - lo[s]) / (hi[s] - lo[s]),
        Taylor terms C^(k)(lo) (hi - lo)^k / k! from the hodographs. bezier[s] holds
        the span's p+1 Bezier points sum_k comb(j, k) / comb(p, k) coef[s, k], from
        its start to its end; their convex hull holds it (The NURBS Book 5.1).
        """
        p, knots = self.degree, self.knots.knots
        s = p + np.flatnonzero(np.diff(knots)[p:self.knots.m - p] > 0)
        lo, hi = knots[s], knots[s + 1]
        coef, curve = [], self
        for k in range(p + 1):
            coef.append(eval_curve_many(curve, lo) * ((hi - lo) ** k / math.factorial(k))[:, None])
            curve = curve.derivative
        coef = np.stack(coef, axis=1)
        weights = [[math.comb(j, k) / math.comb(p, k) for k in range(p + 1)] for j in range(p + 1)]
        return lo, hi, np.array(weights) @ coef, coef


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
    p, cp, knots = curve.degree, curve.control_points, curve.knots.knots
    spans = _find_spans(knots, p, ts)
    N = _basis_funs(knots, p, ts, spans)
    out = N[0][:, None] * cp[spans - p]
    for k in range(1, p + 1):
        out += N[k][:, None] * cp[spans - p + k]
    return out


def dedupe_points(points: np.ndarray) -> np.ndarray:
    """Drop each vertex within DEDUP_TOL of the last vertex kept before it.

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
        keep = np.concatenate([[True], gaps > DEDUP_TOL])
        resume = 0
        for j in np.flatnonzero(~keep).tolist():
            if j < resume:
                continue
            last, i = j - 1, j + 1  # j - 1 is kept: a walk ends on a kept vertex
            while i < n:
                keep[i] = np.linalg.norm(points[i] - points[last], axis=-1) > DEDUP_TOL
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


def fit_curve(polyline) -> BSplineCurve:
    """Interpolating cubic B-spline through a polyline at its arclength parameters.

    Consecutive duplicate vertices are removed first (tol 1e-9). Returns a
    BSplineCurve of the input's dimension. Raises TooFewPoints below
    4 distinct vertices and SolveFailure if the collocation system
    cannot reproduce the vertices to max(1e-9, 1e-12 max|vertex|).
    """
    pts = dedupe_points(polyline)
    n = len(pts)
    degree = FIT_DEGREE
    if n < degree + 1:
        raise TooFewPoints(f"need >= {degree + 1} distinct points, got {n}")
    u = parameterize_arclength(pts)
    kv = averaged_knots(u, degree)
    spans = _find_spans(kv.knots, degree, u)
    cols = spans[:, None] - degree + np.arange(degree + 1)
    B = np.zeros((n, n))
    B[np.arange(n)[:, None], cols] = _basis_funs(kv.knots, degree, u, spans).T
    try:
        ctrl = np.linalg.solve(B, pts)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure("singular interpolation system") from exc
    curve = BSplineCurve(ctrl, kv)
    resid = np.abs(eval_curve_many(curve, u) - pts).max()
    tol = max(1e-9, 1e-12 * np.abs(pts).max())
    if resid > tol:
        raise SolveFailure(f"interpolation residual {resid:.3g} exceeds {tol:.3g}")
    return curve


def sample_uniform(curve: BSplineCurve, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n curve samples at t_k = t_p + (k/(n-1)) (t_(m-p) - t_p), endpoints included."""
    if n < 2:
        raise ValueError("need n >= 2 samples")
    lo, hi = curve.domain
    ts = lo + (np.arange(n) / (n - 1)) * (hi - lo)
    ts[-1] = hi
    return ts, eval_curve_many(curve, ts)
