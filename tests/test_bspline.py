import math
import tracemalloc

import numpy as np
import pytest

from stereowire.bspline import (
    BLOCK,
    BSplineCurve,
    _basis_levels,
    _find_spans,
    averaged_knots,
    basis,
    bernstein_matrix,
    clamped_uniform_knots,
    dedupe_points,
    eval_curve_many,
    fit_curve,
    parameterize_arclength,
    sample_uniform,
)
from stereowire.errors import (
    DegenerateCurve,
    IndexOutOfRange,
    OutOfDomain,
    SolveFailure,
    TooFewPoints,
)


# ------------------------------------------------------------- oracles

def basis_table_oracle(knots: np.ndarray, p: int, t: float) -> np.ndarray:
    """Bottom-up table of all basis values at t, independent of the package
    kernel. Degree-0 row is the closed-right indicator; each row applies
    the two-term recurrence with 0/0 -> 0."""
    m = len(knots) - 1
    t_close = knots[m - p]
    row = np.zeros(m)
    for i in range(m):
        if knots[i] <= t < knots[i + 1]:
            row[i] = 1.0
        elif t == t_close and knots[i] < knots[i + 1] == t_close:
            row[i] = 1.0
    for d in range(1, p + 1):
        new = np.zeros(m - d)
        for i in range(m - d):
            a = 0.0
            if knots[i + d] > knots[i]:
                a = (t - knots[i]) / (knots[i + d] - knots[i]) * row[i]
            b = 0.0
            if knots[i + d + 1] > knots[i + 1]:
                b = (knots[i + d + 1] - t) / (knots[i + d + 1] - knots[i + 1]) * row[i + 1]
            new[i] = a + b
        row = new
    return row


def de_boor_oracle(curve: BSplineCurve, t: float) -> np.ndarray:
    """Classic de Boor pyramid (repeated affine combinations of control
    points), no basis functions involved."""
    knots = curve.knots
    p = curve.degree
    m = len(knots) - 1
    if t >= knots[m - p]:
        k = m - p - 1
        while k > p and knots[k] == knots[k + 1]:
            k -= 1
    else:
        k = int(np.searchsorted(knots, t, side="right")) - 1
    d = [curve.control_points[j + k - p].astype(float) for j in range(p + 1)]
    for r in range(1, p + 1):
        for j in range(p, r - 1, -1):
            denom = knots[j + 1 + k - r] - knots[j + k - p]
            alpha = 0.0 if denom == 0.0 else (t - knots[j + k - p]) / denom
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[p]


def random_clamped_knots(rng, degree=None):
    """(knots, p): clamped knots on [0, 1] with random interior knots."""
    p = int(rng.integers(0, 5)) if degree is None else degree
    n_ctrl = int(rng.integers(p + 1, p + 8))
    interior = np.sort(rng.uniform(0.0, 1.0, n_ctrl - p - 1))
    return np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)]), p


def random_repeated_knots(rng, degree):
    """Clamped knots whose interior knots repeat up to `degree` times."""
    p = degree
    distinct = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(1, 6))))
    interior = np.repeat(distinct, rng.integers(1, max(p, 1) + 1, distinct.size))
    return np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])


def n_ctrl(knots, p) -> int:
    return len(knots) - p - 1


def kernel_params(rng, knots, p):
    """Random parameters plus every knot in the domain, the right end included."""
    lo, hi = knots[p], knots[-1 - p]
    inside = knots[(knots >= lo) & (knots <= hi)]
    return np.concatenate([rng.uniform(lo, hi, 40), inside, [hi]])


# ------------------------------------------------------------- basis

def test_basis_degree0_indicator():
    knots = [0.0, 1.0, 2.0]
    assert basis(0, 0, 0.5, knots) == 1.0
    assert basis(0, 0, 1.5, knots) == 0.0
    assert basis(1, 0, 1.5, knots) == 1.0
    assert basis(1, 0, 2.0, knots) == 1.0  # closed right at the domain end


def test_basis_linear_hat():
    assert basis(0, 1, 0.25, [0.0, 0.0, 1.0, 1.0]) == pytest.approx(0.75, abs=1e-15)


def test_basis_cubic_matches_table_oracle():
    knots = clamped_uniform_knots(6, 3)
    oracle = basis_table_oracle(knots, 3, 0.5)
    assert abs(basis(2, 3, 0.5, knots) - oracle[2]) < 1e-14


def test_basis_random_matches_table_oracle(rng):
    for _ in range(50):
        knots, p = random_clamped_knots(rng)
        t = rng.uniform(knots[p], knots[-1 - p])
        oracle = basis_table_oracle(knots, p, t)
        for i in range(n_ctrl(knots, p)):
            assert abs(basis(i, p, t, knots) - oracle[i]) < 1e-14


def test_basis_index_out_of_range():
    knots = clamped_uniform_knots(6, 3)
    with pytest.raises(IndexOutOfRange):
        basis(6, 3, 0.5, knots)
    with pytest.raises(IndexOutOfRange):
        basis(-1, 3, 0.5, knots)


def test_basis_refuses_knots_that_hold_no_curve_of_its_degree():
    knots = clamped_uniform_knots(6, 3)  # 10 knots
    with pytest.raises(ValueError, match="need at least degree"):
        basis(0, 5, 0.5, knots)  # 4 functions of degree 5
    with pytest.raises(ValueError, match="incompatible with knot count"):
        basis(0, 10, 0.5, knots)  # no function of degree 10
    with pytest.raises(ValueError, match="nondecreasing"):
        basis(0, 3, 0.5, knots[::-1])


def test_basis_out_of_domain_raises_like_every_evaluator():
    knots = clamped_uniform_knots(6, 3)
    for t in (-0.1, 1.1, np.nan):
        with pytest.raises(OutOfDomain):
            basis(0, 3, t, knots)
    assert basis(0, 3, -1e-12, knots) == 1.0  # within 1e-10 of the domain: clamped
    assert basis(5, 3, 1.0 + 1e-12, knots) == 1.0


def test_basis_partition_of_unity(rng):
    knots = clamped_uniform_knots(9, 3)
    for t in rng.uniform(0.0, 1.0, 200):
        total = sum(basis(i, 3, t, knots) for i in range(9))
        assert abs(total - 1.0) < 1e-12


def test_basis_nonnegative_with_local_support(rng):
    knots, p = random_clamped_knots(rng)
    for _ in range(100):
        t = rng.uniform(knots[0], knots[-1])
        for i in range(n_ctrl(knots, p)):
            v = basis(i, p, t, knots)
            assert v >= 0.0
            if t < knots[i] or t > knots[i + p + 1]:
                assert v == 0.0


# ------------------------------------------------------------- batched kernel

@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_kernel_matches_recursive_basis(rng, p):
    for _ in range(10):
        knots = random_repeated_knots(rng, p)
        ts = kernel_params(rng, knots, p)
        spans = _find_spans(knots, p, ts)
        rows = _basis_levels(knots, p, ts, spans)[p]
        for col, t in enumerate(ts):
            full = np.zeros(n_ctrl(knots, p))
            full[spans[col] - p:spans[col] + 1] = rows[:, col]
            assert np.abs(full - basis_table_oracle(knots, p, t)).max() < 1e-12


def triangle_recursion(knots, p, ts, spans):
    """The NURBS Book A2.2 with its inner loop over r, row by row: the reference the
    batched levels must reproduce operation for operation."""
    N = np.empty((p + 1, ts.size))
    N[0] = 1.0
    left, right = np.empty((p + 1, ts.size)), np.empty((p + 1, ts.size))
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


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5])
def test_kernel_is_the_triangle_recursion_bit_for_bit(rng, p):
    for _ in range(20):
        knots = random_repeated_knots(rng, p)
        curve = BSplineCurve(rng.normal(size=(n_ctrl(knots, p), 2)) * 100, knots, p)
        ts = kernel_params(rng, knots, p)
        spans = _find_spans(knots, p, ts)
        rows = triangle_recursion(knots, p, ts, spans)
        assert np.array_equal(_basis_levels(knots, p, ts, spans)[p], rows)
        want = sum((rows[k][:, None] * curve.control_points[spans - p + k] for k in range(1, p + 1)),
                   rows[0][:, None] * curve.control_points[spans - p])
        assert np.array_equal(eval_curve_many(curve, ts), want)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_eval_many_matches_de_boor_oracle(rng, p):
    for _ in range(10):
        knots = random_repeated_knots(rng, p)
        curve = BSplineCurve(rng.normal(size=(n_ctrl(knots, p), 3)), knots, p)
        ts = kernel_params(rng, knots, p)
        got = eval_curve_many(curve, ts)
        for t, row in zip(ts, got):
            assert np.abs(row - de_boor_oracle(curve, t)).max() < 1e-12


def test_eval_scalar_is_batched_bit_for_bit(rng):
    knots = random_repeated_knots(rng, 3)
    curve = BSplineCurve(rng.normal(size=(n_ctrl(knots, 3), 2)), knots, 3)
    ts = kernel_params(rng, knots, 3)
    batch = eval_curve_many(curve, ts)
    for t, row in zip(ts, batch):
        assert np.array_equal(eval_curve_many(curve, [t])[0], row)  # independent of the batch


CUBIC_KNOTS = [0.0, 0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0]  # 5 control points


@pytest.mark.parametrize("n_ctrl, knots, degree, message", [
    (5, CUBIC_KNOTS, -1, "degree must be nonnegative"),
    (5, CUBIC_KNOTS[::-1], 3, "nondecreasing"),
    (5, [CUBIC_KNOTS], 3, "1-D"),
    (4, CUBIC_KNOTS, 3, "4 control points incompatible with knot count 9 at degree 3"),
    (3, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0], 3, "need at least degree\\+1 control points"),
    (5, [0.5] * 9, 3, "empty evaluation domain"),
    (3, [0.0, 0.0, np.nan, 1.0, 1.0], 1, "finite"),  # no comparison with NaN fails
    (2, [-1e308, -1e308, 1e308, 1e308], 1, "finite width"),  # the knot difference overflows
], ids=["negative-degree", "decreasing", "not-1d", "count-mismatch", "too-short", "empty-domain",
        "nan-knot", "wide-knots"])
@pytest.mark.filterwarnings("error")
def test_curve_refuses_knots_that_hold_no_curve(n_ctrl, knots, degree, message):
    with pytest.raises(ValueError, match=message):
        BSplineCurve(np.zeros((n_ctrl, 2)), knots, degree)


def test_curve_holds_float_knots_and_int_degree():
    curve = BSplineCurve(np.zeros((5, 2)), [0, 0, 0, 0, 1, 2, 2, 2, 2], 3.0)
    assert curve.knots.dtype == float and type(curve.degree) is int
    assert curve.domain == (0.0, 2.0)


def test_eval_many_out_of_domain():
    curve = BSplineCurve(np.zeros((4, 2)), clamped_uniform_knots(4, 3), 3)
    for ts in ([0.5, 1.5], [-0.1, 0.5], [0.5, np.nan]):
        with pytest.raises(OutOfDomain):
            eval_curve_many(curve, np.array(ts))
    assert eval_curve_many(curve, np.array([-1e-12, 1.0 + 1e-12])).shape == (2, 2)


def test_span_start_slope_matches_one_sided_differences(rng):
    # C'(lo) is the first-order term over the span width; a second-order difference
    # into each span keeps its stencil off the knot before, where C' may jump
    h = 1e-6
    for p in (1, 2, 3, 4):
        knots, _ = random_clamped_knots(rng, degree=p)
        curve = BSplineCurve(rng.normal(size=(n_ctrl(knots, p), 3)), knots, p)
        lo, hi, _, coef, _ = curve.power_spans
        for s in np.flatnonzero(hi - lo > 1e-4):
            c0, c1, c2 = eval_curve_many(curve, lo[s] + np.array([0.0, h, 2 * h]))
            fd = (4 * c1 - 3 * c0 - c2) / (2 * h)
            scale = 1.0 + np.abs(fd).max()
            assert np.abs(coef[s, 1] / (hi[s] - lo[s]) - fd).max() < 1e-5 * scale


def hodograph_curve(curve: BSplineCurve) -> BSplineCurve:
    """C'(t) as a curve of degree p-1 on the inner knots (The NURBS Book 3.3), the zero
    curve at p = 0: the reference the span table's differenced arrays must reproduce."""
    p, cp, knots = curve.degree, curve.control_points, curve.knots
    if p == 0:
        return BSplineCurve(np.zeros_like(cp), knots, 0)
    width = (knots[p + 1:-1] - knots[1:cp.shape[0]])[:, None]
    diff = p * np.diff(cp, axis=0)
    ctrl = np.divide(diff, width, out=np.zeros_like(diff), where=width > 0)
    return BSplineCurve(ctrl, knots[1:-1], p - 1)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5])
def test_power_spans_are_the_hodograph_curves_bit_for_bit(rng, p):
    for _ in range(20):
        knots = random_repeated_knots(rng, p)
        curve = BSplineCurve(rng.normal(size=(n_ctrl(knots, p), 2)) * 100, knots, p)
        lo, hi, bezier, coef, box = curve.power_spans
        want, c = [], curve
        for k in range(p + 1):
            want.append(eval_curve_many(c, lo) * ((hi - lo) ** k / math.factorial(k))[:, None])
            c = hodograph_curve(c)
        want = np.stack(want, axis=1)
        assert np.array_equal(coef, want)
        want_bezier = (bernstein_matrix(p) @ want).transpose(1, 0, 2)
        assert np.array_equal(bezier, want_bezier)
        assert np.array_equal(box, [want_bezier.min(axis=0).T, want_bezier.max(axis=0).T])


def test_power_spans_reproduce_the_curve(rng):
    for p in (1, 2, 3, 5):
        knots = random_repeated_knots(rng, p)
        curve = BSplineCurve(rng.normal(size=(n_ctrl(knots, p), 2)), knots, p)
        lo, hi, bezier, coef, box = curve.power_spans
        assert bezier.shape == (p + 1, len(lo), 2) and box.shape == (2, 2, len(lo))
        bernstein = [math.comb(p, j) for j in range(p + 1)]
        for s in range(len(lo)):
            x = rng.uniform(0.0, 1.0, 5)
            t = lo[s] + x * (hi[s] - lo[s])
            power = np.polynomial.polynomial.polyval(x, coef[s]).T
            assert np.abs(power - eval_curve_many(curve, t)).max() < 1e-10
            weights = np.array([b * x ** j * (1.0 - x) ** (p - j) for j, b in enumerate(bernstein)])
            assert np.abs(weights.T @ bezier[:, s] - power).max() < 1e-10
            # the span lies in its box, the bounds of its Bezier points
            assert np.all(box[0, :, s] <= power + 1e-10) and np.all(power <= box[1, :, s] + 1e-10)
            assert np.array_equal(box[:, :, s], [bezier[:, s].min(axis=0), bezier[:, s].max(axis=0)])
        assert np.array_equal(bezier[0], coef[:, 0])  # the span starts


# ------------------------------------------------------------- eval_curve

def test_eval_constant_control_points(rng):
    Q = np.array([3.0, -1.0, 2.0])
    curve = BSplineCurve(np.tile(Q, (6, 1)), clamped_uniform_knots(6, 3), 3)
    for t in rng.uniform(0, 1, 20):
        assert np.allclose(eval_curve_many(curve, [t])[0], Q, atol=1e-14)


def test_eval_linear_midpoint():
    curve = BSplineCurve(np.array([[0.0, 0.0], [2.0, 4.0]]), [0.0, 0.0, 1.0, 1.0], 1)
    assert np.allclose(eval_curve_many(curve, [0.5])[0], [1.0, 2.0])


def test_eval_matches_de_boor_oracle(rng):
    curve = BSplineCurve(rng.normal(size=(7, 3)), clamped_uniform_knots(7, 3), 3)
    for t in rng.uniform(0, 1, 100):
        assert np.abs(eval_curve_many(curve, [t])[0] - de_boor_oracle(curve, t)).max() < 1e-12
    assert np.abs(eval_curve_many(curve, [1.0])[0] - de_boor_oracle(curve, 1.0)).max() < 1e-12


def test_eval_out_of_domain():
    curve = BSplineCurve(np.zeros((4, 2)), clamped_uniform_knots(4, 3), 3)
    with pytest.raises(OutOfDomain):
        eval_curve_many(curve, [1.5])[0]


def test_eval_affine_invariance(rng):
    knots = clamped_uniform_knots(8, 3)
    cp = rng.normal(size=(8, 3))
    A = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    curve = BSplineCurve(cp, knots, 3)
    mapped = BSplineCurve(cp @ A.T + b, knots, 3)
    for t in rng.uniform(0, 1, 25):
        assert np.allclose(eval_curve_many(mapped, [t])[0],
                           A @ eval_curve_many(curve, [t])[0] + b, atol=1e-10)


# ------------------------------------------------------------- arclength

def test_arclength_collinear_spacing():
    u = parameterize_arclength(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]))
    assert np.allclose(u, [0.0, 1.0 / 3.0, 1.0])


def test_arclength_degenerate():
    with pytest.raises(DegenerateCurve):
        parameterize_arclength(np.array([[1.0, 2.0], [1.0, 2.0]]))


def test_arclength_not_finite():
    with pytest.raises(DegenerateCurve):
        parameterize_arclength(np.array([[0.0, 0.0], [1e308, 0.0], [-1e308, 1.0]]))
    with pytest.raises(DegenerateCurve):
        parameterize_arclength(np.array([[0.0, 0.0], [np.nan, 0.0], [1.0, 1.0]]))


def test_fit_overflowing_vertex_is_degenerate():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [1e308, 2.0], [3.0, 0.0], [4.0, 1.0]])
    with pytest.raises(DegenerateCurve):
        fit_curve(pts)


def test_arclength_matches_prefix_sum_oracle(rng):
    pts = rng.normal(size=(30, 3)) * 10
    u = parameterize_arclength(pts)
    seg = [float(np.linalg.norm(pts[i + 1] - pts[i])) for i in range(29)]
    total = sum(seg)
    acc = 0.0
    for k in range(1, 30):
        acc += seg[k - 1]
        assert abs(u[k] - acc / total) < 1e-12
    assert np.all(np.diff(u) > 0)


# ------------------------------------------------------------- fit_curve

def test_fit_collinear_points_stay_on_line():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.5, 2.5], [4.0, 4.0]])
    pc = fit_curve(pts)
    mid = eval_curve_many(pc, [0.5])[0]
    assert abs(mid[1] - mid[0]) < 1e-10  # on the line y = x


def test_fit_round_trip_at_interpolation_parameters(rng):
    pts = np.cumsum(rng.normal(size=(12, 2)), axis=0) * 5
    source = fit_curve(pts)
    resampled = eval_curve_many(source, parameterize_arclength(pts))
    refit = fit_curve(resampled)
    for t in rng.uniform(0, 1, 50):
        assert np.abs(eval_curve_many(refit, [t])[0] - eval_curve_many(source, [t])[0]).max() < 1e-8


def test_averaged_knots_are_window_means(rng):
    for p in range(1, 6):
        for n in (p + 1, p + 2, 40):
            u = parameterize_arclength(np.cumsum(rng.normal(size=(n, 2)), axis=0))
            knots = averaged_knots(u, p)
            window_means = [u[j:j + p].mean() for j in range(1, n - p)]
            assert np.array_equal(knots[p + 1:n], window_means)
            assert np.array_equal(knots[:p + 1], np.zeros(p + 1))
            assert np.array_equal(knots[n:], np.ones(p + 1))


def test_fit_singular_system_is_a_solve_failure(rng, monkeypatch):
    def singular(B, pts):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(SolveFailure, match="singular interpolation system"):
        fit_curve(np.cumsum(rng.normal(size=(10, 2)), axis=0))


@pytest.mark.parametrize("error", [1e-6, np.nan])
def test_fit_checks_its_solve_by_the_collocation_matrix(rng, monkeypatch, error):
    # the basis rows sum to one, so a control shift of 1e-6 moves every vertex by 1e-6
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda B, pts: solve(B, pts) + error)
    with pytest.raises(SolveFailure, match="interpolation residual"):
        fit_curve(np.cumsum(rng.normal(size=(10, 2)), axis=0) * 100)


def test_fit_too_few_points():
    with pytest.raises(TooFewPoints):
        fit_curve(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]))


def test_fit_interpolates_vertices(rng):
    pts = np.cumsum(rng.normal(size=(40, 3)), axis=0)
    curve = fit_curve(pts)
    u = parameterize_arclength(dedupe_points(pts))
    assert np.abs(eval_curve_many(curve, u) - pts).max() < 1e-9


def test_fit_returns_planar_with_increasing_u(rng):
    pts = np.cumsum(rng.normal(size=(15, 2)), axis=0)
    pc = fit_curve(pts)
    assert isinstance(pc, BSplineCurve) and pc.dim == 2
    assert pc.domain == (0.0, 1.0)
    u = parameterize_arclength(pts)
    assert u[0] == 0.0 and u[-1] == 1.0
    assert np.all(np.diff(u) > 0)


def test_fit_removes_duplicate_vertices():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [3.0, 1.0]])
    pc = fit_curve(pts)
    assert len(pc.control_points) == 4  # an interpolating fit has one per vertex


@pytest.mark.parametrize("vertex", [[np.nan, np.nan], [np.nan, 0.0], [2.0, np.nan]])
def test_fit_refuses_a_nan_vertex_rather_than_dropping_it(vertex):
    # a NaN gap is not <= DEDUP_TOL, so dedupe keeps the vertex and the
    # arclength parameterization refuses it
    pts = np.array([[0.0, 0.0], [1.0, 0.0], vertex, [2.0, 0.5], [3.0, 0.0], [4.0, 1.0]])
    assert np.array_equal(dedupe_points(pts), pts, equal_nan=True)
    with pytest.raises(DegenerateCurve):
        fit_curve(pts)


def dense_collocation(pts):
    """The fit's n x n collocation matrix of distinct vertices, stored whole."""
    n = len(pts)
    u = parameterize_arclength(pts)
    knots = averaged_knots(u, 3)
    spans = _find_spans(knots, 3, u)
    B = np.zeros((n, n))
    B[np.arange(n)[:, None], spans[:, None] - 3 + np.arange(4)] = _basis_levels(knots, 3, u, spans)[3].T
    return B


def test_fit_of_one_block_is_the_dense_solve_bit_for_bit(rng):
    for dim in (2, 3):
        for n in range(4, BLOCK + 1):
            pts = np.cumsum(rng.normal(size=(n, dim)), axis=0)
            want = np.linalg.solve(dense_collocation(pts), pts)
            assert np.array_equal(fit_curve(pts).control_points, want), (dim, n)


def tiny_step_walk(rng, n):
    """A 3D random walk with steps up to about 27 long and one of 1e-9 to 1e-3."""
    steps = rng.normal(size=(n - 1, 3)) * 5
    k = rng.integers(n - 1)
    steps[k] *= 10 ** rng.uniform(-9, -3) / np.linalg.norm(steps[k])
    return np.vstack([np.zeros(3), np.cumsum(steps, axis=0)])


@pytest.mark.parametrize("n", [65, 127, 128, 129, 192, 193, 257, 1000])
def test_fit_of_many_blocks_solves_the_collocation_rows(rng, n):
    for dim in (2, 3):
        pts = np.cumsum(rng.normal(size=(n, dim)), axis=0)
        B = dense_collocation(pts)
        ctrl = fit_curve(pts).control_points
        assert np.abs(B @ ctrl - pts).max() <= 1e-13 * np.abs(pts).max()
        want = np.linalg.solve(B, pts)
        assert np.abs(ctrl - want).max() <= 1e-12 * np.abs(want).max()
    # one tiny step makes B ill-conditioned: the solutions part, the residuals do not
    for _ in range(3):
        pts = tiny_step_walk(rng, n)
        B = dense_collocation(pts)
        ctrl = fit_curve(pts).control_points
        assert np.abs(B @ ctrl - pts).max() <= 1e-13 * np.abs(pts).max()


def test_fit_solves_at_most_block_rows_at_once(rng, monkeypatch):
    rows = []
    solve = np.linalg.solve

    def spy(a, b):
        rows.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    pts = np.cumsum(rng.normal(size=(1000, 3)), axis=0)
    fit_curve(pts)
    assert len(rows) == -(-1000 // BLOCK) and max(rows) <= BLOCK
    assert sum(rows) == 1000


def test_fit_of_the_largest_size_holds_no_n_by_n_table(rng):
    pts = np.cumsum(rng.normal(size=(4096, 3)), axis=0)
    tracemalloc.start()
    try:
        curve = fit_curve(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # a dense 4096 x 4096 matrix is 128 MiB
    u = parameterize_arclength(pts)
    assert np.abs(eval_curve_many(curve, u) - pts).max() <= 1e-9 * np.abs(pts).max()


@pytest.mark.parametrize("n, repeats, head", [
    (40, 2, 19), (40, 3, 18), (200, 2, 99), (200, 3, 98), (200, 3, 100),
], ids=["one-block", "one-block-no-own-basis", "blocks", "blocks-no-own-basis",
        "no-own-basis-at-a-block-edge"])
def test_fit_of_repeated_parameters_is_singular(n, repeats, head):
    # vertices 2e-9 apart at 1e8 along the polyline are distinct, but their
    # arclength parameters round to one value: equal collocation rows. Three
    # repeats (four equal parameters) also leave row head - 1 without its own
    # basis function; at head = 100 that row ends a block, whose strip cannot
    # hold its columns.
    run = np.column_stack([np.full(repeats, 1e8), 2e-9 * np.arange(1, repeats + 1)])
    rest = n - repeats - head
    pts = np.vstack([np.column_stack([np.linspace(0.0, 1e8, head), np.zeros(head)]), run,
                     np.column_stack([np.linspace(1e8 + 1e6, 2e8, rest), np.full(rest, 2e-9 * repeats)])])
    assert len(dedupe_points(pts)) == n
    assert np.count_nonzero(np.diff(parameterize_arclength(pts)) == 0) == repeats
    with pytest.raises(SolveFailure, match="singular interpolation system"):
        fit_curve(pts)


def dedupe_loop_oracle(points, tol=1e-9):
    """Vertex by vertex: keep one farther than tol from the last kept vertex."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    keep = [0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, len(points)):
            if np.linalg.norm(points[i] - points[keep[-1]]) > tol:
                keep.append(i)
    return points[keep]


def test_dedupe_matches_loop_oracle(rng):
    for dim in (2, 3):
        for _ in range(40):
            n = int(rng.integers(1, 60))
            # steps of 1e-10 to 2.5e-9: chains of sub-tol steps that add up past tol
            steps = rng.normal(size=(n, dim))
            steps *= (rng.uniform(0.1, 2.5, n) * 1e-9 / np.linalg.norm(steps, axis=1))[:, None]
            steps[rng.random(n) < 0.1] = 0.0  # exact repeats
            jumps = rng.random(n) < 0.15
            steps[jumps] = rng.normal(size=(int(jumps.sum()), dim))
            pts = np.cumsum(steps, axis=0)
            if rng.random() < 0.3:  # a 1e308 vertex: its gaps overflow to inf
                pts[rng.integers(n)] = 1e308 * np.sign(rng.normal(size=dim))
            want = dedupe_loop_oracle(pts)
            got = dedupe_points(pts)
            assert np.array_equal(got, want)
    chain = np.column_stack([np.arange(10) * 0.4e-9, np.zeros(10)])  # 0.4e-9 steps
    assert np.array_equal(dedupe_points(chain), chain[[0, 3, 6, 9]])


# ------------------------------------------------------------- sample_uniform

def test_sample_endpoints_only():
    curve = BSplineCurve(np.array([[1.0, 2.0], [5.0, -2.0]]), [0.0, 0.0, 1.0, 1.0], 1)
    ts, pts = sample_uniform(curve, 2)
    assert np.array_equal(ts, [0.0, 1.0])
    assert np.allclose(pts, [[1.0, 2.0], [5.0, -2.0]])


def test_sample_linear_midpoint():
    curve = BSplineCurve(np.array([[0.0, 0.0], [4.0, 2.0]]), [0.0, 0.0, 1.0, 1.0], 1)
    ts, pts = sample_uniform(curve, 3)
    assert np.allclose(pts[1], [2.0, 1.0])


def test_sample_matches_closed_form(rng):
    pts = np.cumsum(rng.normal(size=(9, 3)), axis=0)
    curve = fit_curve(pts)
    lo, hi = curve.domain
    ts, _ = sample_uniform(curve, 101)
    expect = lo + (np.arange(101) / 100.0) * (hi - lo)
    assert np.abs(ts - expect).max() < 1e-15
    assert ts[0] == lo and ts[-1] == hi
