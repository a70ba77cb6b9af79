import numpy as np
import pytest
from numpy.polynomial import polynomial as P

import stereowire as sw
from stereowire import io as swio
from stereowire import stereo
from stereowire.bspline import BSplineCurve, bernstein_matrix, eval_curve_many, fit_curve, sample_uniform
from stereowire.cameras import ProjectiveCamera, epiline, fundamental_matrix, project_many
from stereowire.cli import main
from stereowire.errors import CoincidentCenters, NoMatches, NonMonotoneInput, PointAtInfinity
from stereowire.rig import default_rig
from stereowire.stereo import (
    MISSING,
    ON_LINE_PX,
    _real_roots,
    intersect_epiline,
    match_curves,
    pchip_fit,
    point_to_curve_distances,
    reconstruct_curve,
    triangulate_point,
)

from conftest import random_rotation, random_stereo_rig
from test_bspline import n_ctrl, random_repeated_knots


def helix_points(turns=0.75, n=200):
    t = np.linspace(0.0, 1.0, n)
    w = 2.0 * np.pi * turns
    return np.column_stack([20.0 * np.cos(w * t), 60.0 * (t - 0.5), 20.0 * np.sin(w * t)])


def stereo_curves(points3d, cams=None):
    cam_a, cam_b = cams if cams is not None else default_rig()
    return (cam_a, cam_b,
            fit_curve(project_many(cam_a, points3d)),
            fit_curve(project_many(cam_b, points3d)))


# ------------------------------------------------------------- pchip

def test_pchip_two_points_identity():
    f = pchip_fit([(0.0, 0.0), (1.0, 1.0)])
    for t in np.linspace(0, 1, 33):
        assert abs(f(t) - t) < 1e-12


def test_pchip_flat_segment_stays_flat():
    f = pchip_fit([(0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 2.5)])
    probes = np.linspace(1.0, 2.0, 101)
    assert np.abs(f(probes) - 1.0).max() < 1e-15


def test_pchip_monotone_on_random_data(rng):
    for _ in range(10):
        n = int(rng.integers(4, 12))
        x = np.sort(rng.uniform(0, 10, n))
        x += np.arange(n) * 1e-3  # enforce strict increase
        y = np.cumsum(np.abs(rng.normal(size=n)))
        y[rng.integers(1, n)] = y[rng.integers(1, n) - 1] if n > 2 else y[0]
        y = np.maximum.accumulate(y)
        f = pchip_fit(np.column_stack([x, y]))
        probes = np.linspace(x[0], x[-1], 1000)
        vals = f(probes)
        slopes = np.diff(vals) / np.diff(probes)
        assert slopes.min() >= -1e-10
        assert np.abs(f(x) - y).max() < 1e-12  # interpolates the pairs


def end_slope_oracle(h0, h1, del0, del1):
    """Moler's pchip end rule: the one-sided three-point slope, 0 where its sign
    is not del0's, 3 del0 where the secants' signs differ and it passes 3 |del0|."""
    d = ((2 * h0 + h1) * del0 - h0 * del1) / (h0 + h1)
    if np.sign(d) != np.sign(del0):
        return 0.0
    if np.sign(del0) != np.sign(del1) and abs(d) > abs(3 * del0):
        return 3 * del0
    return d


def test_pchip_slopes_match_loop_oracle(rng):
    # the end rule at both ends, and the Fritsch-Carlson weighted harmonic
    # mean one interior knot at a time
    for _ in range(200):
        n = int(rng.integers(3, 40))
        x = np.cumsum(rng.uniform(0.01, 2.0, n))
        y = np.cumsum(rng.exponential(1.0, n) * (rng.random(n) < 0.6))  # flat runs
        h, delta = np.diff(x), np.diff(y) / np.diff(x)
        expect = [end_slope_oracle(h[0], h[1], delta[0], delta[1])]
        for k in range(1, n - 1):
            if delta[k - 1] == 0.0 or delta[k] == 0.0:
                expect.append(0.0)
            else:
                w1, w2 = 2 * h[k] + h[k - 1], h[k] + 2 * h[k - 1]
                expect.append((w1 + w2) / (w1 / delta[k - 1] + w2 / delta[k]))
        expect.append(end_slope_oracle(h[-1], h[-2], delta[-1], delta[-2]))
        assert pchip_fit(np.column_stack([x, y])).d.tobytes() == np.array(expect).tobytes()


def test_pchip_rejects_non_monotone():
    with pytest.raises(NonMonotoneInput):
        pchip_fit([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)])
    with pytest.raises(NonMonotoneInput):
        pchip_fit([(0.0, 0.0), (0.0, 1.0)])


# ------------------------------------------------------------- intersect_epiline

def test_intersect_straight_polyline():
    pc = fit_curve(np.array([[0.0, 0.0], [3.0, 0.0], [7.0, 0.0], [10.0, 0.0]]))
    roots = intersect_epiline(pc, np.array([1.0, 0.0, -5.0]))  # line x = 5
    assert len(roots) == 1
    assert abs(roots[0] - 0.5) < 1e-9
    # the line y = 0 runs along every span: it meets the curve at the knots
    assert not pc.control_points[:, 1].any()
    lo, hi, *_ = pc.power_spans
    assert intersect_epiline(pc, np.array([0.0, 1.0, 0.0])) == [*lo, hi[-1]]


def test_intersect_parallel_line_no_roots():
    pc = fit_curve(np.array([[0.0, 0.0], [3.0, 0.0], [7.0, 0.0], [10.0, 0.0]]))
    assert intersect_epiline(pc, np.array([0.0, 1.0, -1.0])) == []  # line y = 1


def test_intersect_circle_arc_analytic_oracle():
    # half circle of radius 50 centered at (60, 60); secant y = 80
    theta = np.linspace(0.0, np.pi, 180)
    arc = np.column_stack([60 + 50 * np.cos(theta), 60 + 50 * np.sin(theta)])
    pc = fit_curve(arc)
    roots = intersect_epiline(pc, np.array([0.0, 1.0, -80.0]))
    assert len(roots) == 2
    # circle-line intersection: sin(theta) = 0.4 -> theta and pi - theta;
    # arclength along a circle is proportional to angle
    th1 = np.arcsin(0.4)
    expect = sorted([th1 / np.pi, (np.pi - th1) / np.pi])
    assert abs(roots[0] - expect[0]) < 1e-4
    assert abs(roots[1] - expect[1]) < 1e-4


def line_through(point, angle):
    n = np.array([np.cos(angle), np.sin(angle)])
    return np.array([n[0], n[1], -n @ point])


def end_tangents(curve):
    """C'(t) at both ends of the domain, from the first and last span's power form."""
    lo, hi, _, coef, _ = curve.power_spans
    return np.array([coef[0, 1] / (hi[0] - lo[0]),
                     np.arange(coef.shape[1]) @ coef[-1] / (hi[-1] - lo[-1])])


def test_intersect_line_through_end_points_returns_end_parameters(rng):
    pc = fit_curve(np.cumsum(rng.normal(size=(20, 2)), axis=0) * 10 + 500)
    lo, hi = pc.domain
    for angle in np.linspace(0.1, 3.0, 12):
        for t_end, tangent in zip((lo, hi), end_tangents(pc)):
            end = eval_curve_many(pc, [t_end])[0]
            if abs(np.cos(angle) * tangent[0] + np.sin(angle) * tangent[1]) < 1e-3:
                continue  # the line must cross the curve, not run along it
            roots = intersect_epiline(pc, line_through(end, angle))
            assert np.abs(np.array(roots) - t_end).min() < 1e-12


def test_intersect_two_crossings_inside_one_old_dense_interval():
    # a parabola bump crossed just below its apex: the two roots are 1e-4
    # apart in u, so a 2048-sample scan sees no sign change between them
    x = np.linspace(-10.0, 10.0, 41)
    pc = fit_curve(np.column_stack([x, -x * x]))
    line = np.array([0.0, 1.0, 1e-4])  # y = -1e-4
    roots = intersect_epiline(pc, line)
    assert len(roots) == 2
    assert roots[1] - roots[0] < 1.0 / 2047
    dist = eval_curve_many(pc, roots) @ line[:2] + line[2]
    assert np.abs(dist).max() < 1e-9


def sign_change_roots(spline, line, dense):
    """Roots from sign changes of the line distance on dense samples, bisected."""
    ts, pts = dense
    d = pts @ line[:2] + line[2]
    i = np.flatnonzero(d[:-1] * d[1:] < 0.0)
    lo, hi, d_lo = ts[i], ts[i + 1], d[i]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        d_mid = eval_curve_many(spline, mid) @ line[:2] + line[2]
        left = d_lo * d_mid <= 0.0
        hi = np.where(left, mid, hi)
        lo, d_lo = np.where(left, lo, mid), np.where(left, d_lo, d_mid)
    return 0.5 * (lo + hi)


def companion_roots(c):
    """(n, p) complex roots of each f_i(x) = sum_k c[i, k] x^k, as companion-matrix
    eigenvalues; a vanishing leading coefficient is raised to ~eps of the others,
    sending its root far outside [0, 1]."""
    n, p = c.shape[0], c.shape[1] - 1
    size = np.abs(c)
    floor = np.maximum(np.finfo(float).eps * size.max(axis=1), np.finfo(float).tiny)
    companion = np.repeat(np.eye(p, k=-1)[None], n, axis=0)
    companion[:, :, -1] = -c[:, :p] / np.where(size[:, p] > floor, c[:, p], floor)[:, None]
    return np.linalg.eigvals(companion)


def unit_roots(c):
    """_real_roots at tol ON_LINE_PX of each f_i(x) = sum_k c[i, k] x^k, as (i, x) lists,
    on the Bernstein coefficients intersect_epiline gives it (summed elementwise)."""
    bern = np.sum(c[:, None] * bernstein_matrix(c.shape[1] - 1), axis=-1)
    roots = [_real_roots(a, b, ON_LINE_PX) for a, b in zip(c.tolist(), bern.tolist())]
    return [i for i, xs in enumerate(roots) for _ in xs], [x for xs in roots for x in xs]


def array_polished_unit_roots(c):
    """Companion roots polished by two guarded Newton steps on whole arrays."""
    n, p = c.shape[0], c.shape[1] - 1
    z = companion_roots(c).ravel()
    near = np.abs(z.real - 0.5) < 0.5 + 1e-6
    row, x = np.repeat(np.arange(n), p)[near], np.clip(z.real[near], 0.0, 1.0)
    coef = c[row]

    def value_and_slope(x):
        f, df = coef[:, p], np.zeros_like(x)
        for k in range(p - 1, -1, -1):
            f, df = f * x + coef[:, k], df * x + f
        return f, df

    f, df = value_and_slope(x)
    for _ in range(2):
        x_new = np.clip(x - np.divide(f, df, out=np.zeros_like(f), where=df != 0.0), 0.0, 1.0)
        f_new, df_new = value_and_slope(x_new)
        better = np.abs(f_new) < np.abs(f)
        x, f, df = (np.where(better, a, b) for a, b in ((x_new, x), (f_new, f), (df_new, df)))
    ok = np.abs(f) <= ON_LINE_PX
    return row[ok], x[ok]


def test_intersect_matches_dense_sign_change_oracle():
    rng = np.random.default_rng(7)
    total = 0
    for _ in range(12):
        pts = np.cumsum(rng.normal(size=(int(rng.integers(6, 30)), 2)), axis=0) * 15 + 500
        pc = fit_curve(pts)
        dense = sample_uniform(pc, 200_000)
        for _ in range(6):
            through = pts[rng.integers(len(pts))] + rng.normal(0.0, 5.0, 2)
            line = line_through(through, rng.uniform(0.0, np.pi))
            got = intersect_epiline(pc, line)
            want = sign_change_roots(pc, line, dense)
            assert len(got) == len(want)
            if len(want):
                assert np.abs(np.array(got) - want).max() < 1e-9
            total += len(want)
            # the same roots as the polished companion eigenvalues, on every span
            c = pc.power_spans[3] @ line[:2]
            c[:, 0] += line[2]
            rows, xs = unit_roots(c)
            want_rows, want_xs = array_polished_unit_roots(c)
            for i in range(len(c)):
                got_i = np.array(xs)[np.array(rows, dtype=np.intp) == i]
                want_i = np.sort(want_xs[want_rows == i])
                # a conjugate pair polishes onto its real root, to within an ulp
                want_i = want_i[np.diff(want_i, prepend=-np.inf) > 1e-9]
                assert len(got_i) == len(want_i)
                assert np.abs(got_i - want_i).max(initial=0.0) <= 1e-15
    assert total > 50  # the lines really cross the curves


def control_window_roots(curve, line):
    """intersect_epiline under the de Boor control-window cull: a span is solved
    unless the line values of its p+1 control points all lie beyond ON_LINE_PX
    on one side."""
    p, knots = curve.degree, curve.knots
    first = np.flatnonzero(np.diff(knots)[p:knots.size - 1 - p] > 0)
    lo, hi, _, coef, _ = curve.power_spans
    values = curve.control_points @ line[:2] + line[2]
    window = values[first[:, None] + np.arange(p + 1)]
    meets = (window.min(axis=1) <= ON_LINE_PX) & (window.max(axis=1) >= -ON_LINE_PX)
    c = coef[meets] @ line[:2]
    c[:, 0] += line[2]
    rows, xs = unit_roots(c)
    span, x = np.array(rows, dtype=np.intp), np.array(xs)
    roots = np.sort((1.0 - x) * lo[meets][span] + x * hi[meets][span]).tolist()
    return [r for r, prev in zip(roots, [-np.inf, *roots]) if r - prev > 1e-9]


def test_bezier_cull_keeps_every_control_window_root():
    # a span's Bezier hull lies inside its control window, so the tighter
    # cull may only drop spans the line misses
    rng = np.random.default_rng(31)
    total = 0
    for p in (1, 2, 3, 5):
        for _ in range(20):
            knots = random_repeated_knots(rng, p)
            curve = BSplineCurve(rng.normal(size=(n_ctrl(knots, p), 2)) * 50 + 500, knots, p)
            lo, hi = curve.domain
            on_curve = eval_curve_many(curve, [lo, hi, *rng.uniform(lo, hi, 3)])
            near = curve.control_points[rng.integers(n_ctrl(knots, p), size=3)]
            off_curve = near + rng.normal(0.0, 20.0, (3, 2))
            for through in (*on_curve, *off_curve):
                line = line_through(through, rng.uniform(0.0, np.pi))
                roots = intersect_epiline(curve, line)
                assert roots == control_window_roots(curve, line)
                total += len(roots)
    assert total > 400  # the lines really cross the curves


def test_bezier_cull_solves_one_span_per_epiline(tmp_path, monkeypatch):
    # the control-window cull solved 2.9 spans per epiline on this frame
    out = tmp_path / "frame"
    assert main(["synth", "--out", str(out), "--seed", "3", "--noise-px", "1"]) == 0
    cam_a, cam_b = (swio.load_camera(out / f"camera_{v}.json") for v in "ab")
    curve_a, curve_b = (fit_curve(swio.load_annotation(out / f"annotation_{v}.json")[2])
                        for v in "ab")
    epilines, solved = spy_on_epiline_solves(monkeypatch)
    reconstruct_curve(cam_a, cam_b, curve_a, curve_b)
    assert len(epilines) == 64 and solved
    assert len(solved) / len(epilines) <= 1.0


def spy_on_epiline_solves(monkeypatch):
    """Lists that fill with each intersect_epiline line and with the roots of each
    span it solves: the _real_roots calls at tol ON_LINE_PX (the residual's, and
    the recursion's on f', run at tol 0)."""
    epilines, solved = [], []
    intersect, real_roots = stereo.intersect_epiline, stereo._real_roots

    def spy_intersect(curve, line):
        epilines.append(line)
        return intersect(curve, line)

    def spy_roots(coef, bern, tol):
        roots = real_roots(coef, bern, tol)
        if tol == ON_LINE_PX:
            solved.append(roots)
        return roots

    monkeypatch.setattr(stereo, "intersect_epiline", spy_intersect)
    monkeypatch.setattr(stereo, "_real_roots", spy_roots)
    return epilines, solved



# ------------------------------------------------------------- the root finder

OUTSIDE = (-0.5, 1.5, 2.0, -1.0)  # the other roots of a case, away from [0, 1]


def unit_roots_of(coef):
    """unit_roots of one polynomial, given by its power coefficients."""
    rows, xs = unit_roots(np.array(coef, dtype=float)[None])
    assert rows == [0] * len(xs)
    return xs


def from_roots(roots, scale=50.0):
    return scale * P.polyfromroots(roots)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_root_rules_on_chosen_roots(p):
    others = OUTSIDE[:p - 1]
    assert unit_roots_of(from_roots([0.3, *others])) == pytest.approx([0.3], abs=1e-15)
    assert unit_roots_of(from_roots([0.0, *others])) == [0.0]
    assert unit_roots_of(from_roots([1.0, *others])) == pytest.approx([1.0], abs=1e-15)
    # a zero just beyond an end, which the line passes within ON_LINE_PX: the end
    for end, zero in ((0.0, -1e-7), (1.0, 1.0 + 1e-7)):
        c = from_roots([zero, *others])
        assert abs(P.polyval(end, c)) <= ON_LINE_PX
        assert unit_roots_of(c) == [end]
    # a crossing just inside an end: the crossing alone, not also the end
    for zero in (2e-9, 1.0 - 2e-9):
        got = unit_roots_of(from_roots([zero, *others]))
        assert len(got) == 1 and abs(got[0] - zero) < 1e-15
    if p >= 2:
        others = others[:p - 2]
        # a touch within ON_LINE_PX is one root; a miss beyond it none
        for gap, n_roots in ((5e-8, 1), (1e-6, 0)):
            c = 50.0 * P.polymul(P.polyadd(P.polyfromroots([0.4, 0.4]), [gap]), P.polyfromroots(others))
            got = unit_roots_of(c)
            assert len(got) == n_roots
            assert all(abs(x - 0.4) < 1e-3 and abs(P.polyval(x, c)) <= ON_LINE_PX for x in got)
        # a double root is one root, wherever it lies
        for zero in (0.05, 0.123, 0.5, 0.7, 0.939676458194499):
            for scale in (-3.0, 50.0, 700.0):
                got = unit_roots_of(from_roots([zero, zero, *others], scale))
                assert got == pytest.approx([zero], abs=1e-7)
    # f = 0, a line along a straight span: the span's ends, never a flood of roots
    assert unit_roots_of(np.zeros(p + 1)) == [0.0, 1.0]


def synth_frame(out, seed, noise):
    """Cameras and annotation splines of a synth frame written to out."""
    assert main(["synth", "--out", str(out), "--seed", str(seed), "--noise-px", str(noise)]) == 0
    cams = [swio.load_camera(out / f"camera_{v}.json") for v in "ab"]
    return (*cams, *(fit_curve(swio.load_annotation(out / f"annotation_{v}.json")[2]) for v in "ab"))


def test_a_crossing_just_inside_the_end_is_not_also_the_end(tmp_path):
    # the epiline of view A's end sample crosses view B's spline 2e-9 before
    # its end, within ON_LINE_PX of the end point
    cam_a, cam_b, curve_a, curve_b = synth_frame(tmp_path, 23, 0.0)
    end = eval_curve_many(curve_a, [curve_a.domain[1]])[0]
    roots = intersect_epiline(curve_b, epiline(fundamental_matrix(cam_a, cam_b), end))
    assert roots == [0.9999999980957273]


def test_each_root_of_a_span_is_listed_once(tmp_path, monkeypatch):
    # the companion solver returned a conjugate pair's real part as well as
    # the real root it polished onto: 3180 repeats over these 7680 epilines
    epilines, solved = spy_on_epiline_solves(monkeypatch)
    for seed in range(40):
        for noise in (0.0, 1.0, 3.0):
            cam_a, cam_b, curve_a, curve_b = synth_frame(tmp_path / f"{seed}-{noise}", seed, noise)
            match_curves(curve_a, curve_b, fundamental_matrix(cam_a, cam_b))
    assert len(epilines) == 120 * 64 and solved
    assert sum(np.count_nonzero(np.diff(np.sort(xs)) <= 1e-9) for xs in solved) == 0


def test_batched_epilines_round_as_the_per_sample_ones(tmp_path):
    # a batched frame must form F x_A by a stack of (3, 3) @ (3, 1) products:
    # Xh @ F.T sums in another order and differs in the last bit on some samples
    n = 0
    for seed in range(10):
        cam_a, cam_b, curve_a, _ = synth_frame(tmp_path / str(seed), seed, 1.0)
        F = fundamental_matrix(cam_a, cam_b)
        _, pts = sample_uniform(curve_a, 64)
        Xh = np.column_stack([pts, np.ones(len(pts))])
        lines = np.matmul(F[None], Xh[:, :, None])[:, :, 0]
        assert all(np.array_equal(F @ np.array((u, v, 1.0)), l)
                   for (u, v), l in zip(pts.tolist(), lines))
        lines /= np.hypot(lines[:, 0], lines[:, 1])[:, None]
        assert np.array_equal(lines, [epiline(F, x) for x in pts])
        n += len(pts)
    assert n == 640


@pytest.mark.parametrize("scale_a, scale_b", [
    (1e-9, 1.0), (1e-6, 1.0), (1e9, 1.0), (1e300, 1.0), (1e200, 1e200), (2.0 ** -40, 2.0 ** 70),
], ids=["a-1e-9", "a-1e-6", "a-1e9", "a-1e300", "both-1e200", "powers-of-two"])
@pytest.mark.filterwarnings("error")
def test_reconstruction_does_not_depend_on_the_scale_of_P(tmp_path, scale_a, scale_b):
    # P * s is the same projective camera; a power of two leaves every bit alone
    cam_a, cam_b, curve_a, curve_b = synth_frame(tmp_path, 3, 1.0)
    want = reconstruct_curve(cam_a, cam_b, curve_a, curve_b)
    scaled = (ProjectiveCamera(cam_a.P * scale_a, cam_a.image_size),
              ProjectiveCamera(cam_b.P * scale_b, cam_b.image_size))
    got = reconstruct_curve(*scaled, curve_a, curve_b)
    assert got.accepted
    if np.frexp([scale_a, scale_b])[0].tolist() == [0.5, 0.5]:
        assert got.curve.control_points.tobytes() == want.curve.control_points.tobytes()
        assert got.mean_reproj_px == want.mean_reproj_px
    assert np.abs(got.curve.control_points - want.curve.control_points).max() < 1e-10
    assert np.abs(got.curve.knots - want.curve.knots).max() < 1e-12


def test_reconstruction_calls_no_eigenvalue_solver(tmp_path, monkeypatch):
    frame = synth_frame(tmp_path, 3, 1.0)
    want = reconstruct_curve(*frame)

    def refuse(*_):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    got = reconstruct_curve(*frame)
    assert got.curve.control_points.tobytes() == want.curve.control_points.tobytes()
    assert got.curve.knots.tobytes() == want.curve.knots.tobytes()
    assert got.per_point_reproj_px.tobytes() == want.per_point_reproj_px.tobytes()
    assert (got.mean_reproj_px, got.accepted) == (want.mean_reproj_px, want.accepted)


# ------------------------------------------------------------- match_curves

def _true_param_map(points3d, cam_a, cam_b):
    """Dense arclength tables mapping u_A -> u_B through the 3D curve."""
    pa = project_many(cam_a, points3d)
    pb = project_many(cam_b, points3d)
    ua = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pa, axis=0), axis=1))])
    ub = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(pb, axis=0), axis=1))])
    ua /= ua[-1]
    ub /= ub[-1]
    return ua, ub


def test_match_synthetic_pair_tracks_truth():
    wire = helix_points()
    cam_a, cam_b, curve_a, curve_b = stereo_curves(wire)
    F = fundamental_matrix(cam_a, cam_b)
    m = match_curves(curve_a, curve_b, F, n_samples=64)
    assert all(ub is not None for _, ub in m.samples)
    ua_tab, ub_tab = _true_param_map(wire, cam_a, cam_b)
    for u_a, u_b in m.samples:
        u_b_true = np.interp(u_a, ua_tab, ub_tab)
        assert abs(u_b - u_b_true) < 1e-3


def test_match_rectified_pair_is_identity():
    K = np.array([[1000.0, 0.0, 512.0], [0.0, 1000.0, 512.0], [0.0, 0.0, 1.0]])
    cam_a = ProjectiveCamera(K @ np.hstack([np.eye(3), np.zeros((3, 1))]), (1024, 1024))
    cam_b = ProjectiveCamera(K @ np.hstack([np.eye(3), np.array([[-30.0], [0.0], [0.0]])]), (1024, 1024))
    s = np.linspace(-100.0, 100.0, 150)
    wire = np.column_stack([30.0 * np.sin(s / 40.0), s, np.full_like(s, 400.0)])
    _, _, curve_a, curve_b = stereo_curves(wire, (cam_a, cam_b))
    F = fundamental_matrix(cam_a, cam_b)
    m = match_curves(curve_a, curve_b, F, n_samples=32)
    for u_a, u_b in m.samples:
        if u_b is not None:
            assert abs(u_b - u_a) < 1e-3


def test_match_too_few_samples():
    wire = helix_points()
    cam_a, cam_b, curve_a, curve_b = stereo_curves(wire)
    F = fundamental_matrix(cam_a, cam_b)
    with pytest.raises(ValueError):
        match_curves(curve_a, curve_b, F, n_samples=3)


def test_match_no_intersections_raises():
    # curve B far outside the band the epilines sweep: nothing intersects
    wire = helix_points()
    cam_a, cam_b, curve_a, _ = stereo_curves(wire)
    off_band = np.column_stack([np.linspace(200.0, 800.0, 30), np.full(30, 30.0)])
    curve_b = fit_curve(off_band)
    F = fundamental_matrix(cam_a, cam_b)
    with pytest.raises(NoMatches):
        match_curves(curve_a, curve_b, F, n_samples=16)


def test_match_interpolant_monotone_at_many_probes():
    wire = helix_points()
    cam_a, cam_b, curve_a, curve_b = stereo_curves(wire)
    F = fundamental_matrix(cam_a, cam_b)
    m = match_curves(curve_a, curve_b, F, n_samples=64)
    probes = np.linspace(0.0, 1.0, 10_000)
    vals = m.interpolant(probes)
    assert (np.diff(vals) >= -1e-12).all()


# ------------------------------------------------------------- triangulation

def test_triangulate_round_trip(rng):
    cam_a, cam_b = random_stereo_rig(rng)
    X = np.array([10.0, -5.0, 100.0])
    got = triangulate_point(cam_a, cam_b, project_many(cam_a, [X])[0], project_many(cam_b, [X])[0])
    assert np.linalg.norm(got - X) < 1e-6


def test_triangulate_baseline_degeneracy():
    cam_a, cam_b = default_rig()
    ca = np.linalg.solve(cam_a.P[:, :3], -cam_a.P[:, 3])
    cb = np.linalg.solve(cam_b.P[:, :3], -cam_b.P[:, 3])
    mid = 0.5 * (ca + cb)  # on the baseline: both rays coincide with it
    with pytest.raises(PointAtInfinity):
        triangulate_point(cam_a, cam_b, project_many(cam_a, [mid])[0],
                          project_many(cam_b, [mid])[0])


def test_same_camera_twice_has_coincident_centers():
    # one rule decides coincidence for the fundamental matrix and for
    # every triangulated point
    cam, _ = default_rig()
    x = project_many(cam, [[1.0, 2.0, 3.0]])[0]
    with pytest.raises(CoincidentCenters):
        fundamental_matrix(cam, cam)
    with pytest.raises(CoincidentCenters):
        triangulate_point(cam, cam, x, x)


def _ray_of(cam, px):
    """Backprojected ray (origin, unit direction) through pixel px."""
    C = np.linalg.solve(cam.P[:, :3], -cam.P[:, 3])
    Xp = np.linalg.pinv(cam.P) @ np.append(px, 1.0)
    d = Xp[:3] / Xp[3] - C
    return C, d / np.linalg.norm(d)


def _midpoint_oracle(cam_a, cam_b, xa, xb):
    """Nonlinear two-ray closest-point midpoint, independent of the DLT."""
    o1, d1 = _ray_of(cam_a, xa)
    o2, d2 = _ray_of(cam_b, xb)
    b = o2 - o1
    d12 = d1 @ d2
    denom = 1.0 - d12 * d12
    t1 = (b @ d1 - (b @ d2) * d12) / denom
    t2 = ((b @ d1) * d12 - b @ d2) / denom
    return 0.5 * (o1 + t1 * d1 + o2 + t2 * d2)


def test_triangulate_noisy_vs_midpoint_oracle():
    rng = np.random.default_rng(99)
    cam_a, cam_b = default_rig()
    err_dlt, err_mid = [], []
    for _ in range(100):
        X = rng.uniform(-40, 40, 3)
        xa = project_many(cam_a, [X])[0] + rng.normal(0, 0.5, 2)
        xb = project_many(cam_b, [X])[0] + rng.normal(0, 0.5, 2)
        err_dlt.append(np.linalg.norm(triangulate_point(cam_a, cam_b, xa, xb) - X))
        err_mid.append(np.linalg.norm(_midpoint_oracle(cam_a, cam_b, xa, xb) - X))
    assert np.median(err_dlt) <= 1.5 * np.median(err_mid)


def test_triangulate_svd_optimality(rng):
    cam_a, cam_b = default_rig()
    X = np.array([12.0, 7.0, -9.0])
    xa, xb = project_many(cam_a, [X])[0], project_many(cam_b, [X])[0] + 0.3  # make residual nonzero
    got = triangulate_point(cam_a, cam_b, xa, xb)
    A = np.array([
        xa[0] * cam_a.P[2] - cam_a.P[0],
        xa[1] * cam_a.P[2] - cam_a.P[1],
        xb[0] * cam_b.P[2] - cam_b.P[0],
        xb[1] * cam_b.P[2] - cam_b.P[1],
    ])
    Xh = np.append(got, 1.0)
    Xh /= np.linalg.norm(Xh)
    best = np.linalg.norm(A @ Xh)
    for _ in range(100):
        Y = rng.normal(size=4)
        Y /= np.linalg.norm(Y)
        assert best <= np.linalg.norm(A @ Y) + 1e-9


# ------------------------------------------------------------- reconstruction

def test_reconstruct_noiseless_helix():
    wire = helix_points()
    cam_a, cam_b, curve_a, curve_b = stereo_curves(wire)
    truth = fit_curve(wire)
    rep = reconstruct_curve(cam_a, cam_b, curve_a, curve_b, n_samples=64)
    assert rep.accepted
    m = sw.curve_metrics(rep.curve, truth, n=64)
    assert m.max_ed < 0.01
    # round-trip identity: reprojections land back on the annotation splines
    assert rep.per_point_reproj_px.max() < 1e-6
    assert rep.accepted == (rep.mean_reproj_px <= 25.0)


def test_reconstruct_noisy_still_accepted():
    rng = np.random.default_rng(5)
    wire = helix_points()
    cam_a, cam_b = default_rig()
    ann_a = project_many(cam_a, wire[::3]) + rng.normal(0, 1.0, (67, 2))
    ann_b = project_many(cam_b, wire[::3]) + rng.normal(0, 1.0, (67, 2))
    rep = reconstruct_curve(cam_a, cam_b, fit_curve(ann_a), fit_curve(ann_b), 64)
    assert rep.accepted
    assert rep.mean_reproj_px <= 3.0


@pytest.mark.parametrize("seed, noise", [(0, 0.0), (5, 0.0), (3, 1.0), (7, 1.0), (4, 3.0)])
def test_similarity_of_world_and_cameras_carries_the_reconstruction(tmp_path, seed, noise):
    # X' = T X and P' = P T^-1 leave every pixel where it was, so the curve
    # must come out as T C. The homogeneous DLT (H&Z 12.2) is invariant
    # under a non-orthogonal T only where the two rays meet, as they do at
    # a matched sample, so these frames match every sample.
    out = tmp_path / "frame"
    assert main(["synth", "--out", str(out), "--seed", str(seed), "--noise-px", str(noise)]) == 0
    cam_a, cam_b = (swio.load_camera(out / f"camera_{v}.json") for v in "ab")
    curve_a, curve_b = (fit_curve(swio.load_annotation(out / f"annotation_{v}.json")[2])
                        for v in "ab")
    match = match_curves(curve_a, curve_b, fundamental_matrix(cam_a, cam_b))
    assert all(u_b is not MISSING for _, u_b in match.samples)
    base = reconstruct_curve(cam_a, cam_b, curve_a, curve_b).curve
    rng = np.random.default_rng(seed)
    for scale in (0.5, 2.0):
        T = np.eye(4)
        T[:3, :3] = scale * random_rotation(rng)
        T[:3, 3] = rng.uniform(-100.0, 100.0, 3)
        moved = [ProjectiveCamera(cam.P @ np.linalg.inv(T), cam.image_size)
                 for cam in (cam_a, cam_b)]
        got = reconstruct_curve(*moved, curve_a, curve_b).curve
        assert np.abs(got.knots - base.knots).max() < 1e-10
        want = base.control_points @ T[:3, :3].T + T[:3, 3]
        assert np.abs(got.control_points - want).max() < 1e-9 * scale


def test_reconstruct_unrelated_curve_rejected():
    wire = helix_points()
    cam_a, cam_b, curve_a, _ = stereo_curves(wire)
    junk = np.column_stack([np.linspace(100, 900, 50),
                            700 + 100 * np.sin(np.linspace(0, 3, 50))])
    curve_b = fit_curve(junk)
    try:
        rep = reconstruct_curve(cam_a, cam_b, curve_a, curve_b, 64)
        assert not rep.accepted
    except NoMatches:
        pass


def test_point_to_curve_distance_is_zero_on_curve(rng):
    pts = np.cumsum(rng.normal(size=(25, 2)), axis=0) * 10
    pc = fit_curve(pts)
    _, on_curve = sample_uniform(pc, 17)
    d = point_to_curve_distances(pc, on_curve, pc.domain[0])
    assert d.max() < 1e-9


def dense_distance_oracle(spline, queries, n=200_000):
    """Nearest of n uniform samples, refined by golden section between its neighbours."""
    return dense_nearest_oracle(spline, queries, n)[1]


def dense_nearest_oracle(spline, queries, n=200_000):
    """(parameters, distances) of dense_distance_oracle's nearest points."""
    ts, pts = sample_uniform(spline, n)
    k = np.array([np.argmin(np.sum((pts - q) ** 2, axis=1)) for q in queries])
    a, b = ts[np.maximum(k - 1, 0)], ts[np.minimum(k + 1, n - 1)]

    def dist(t):
        return np.linalg.norm(eval_curve_many(spline, t) - queries, axis=1)

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
        left = dist(c) < dist(d)
        a, b = np.where(left, a, c), np.where(left, d, b)
    mid = 0.5 * (a + b)
    d_mid, d_k = dist(mid), dist(ts[k])
    return np.where(d_mid < d_k, mid, ts[k]), np.minimum(d_mid, d_k)


def test_point_to_curve_distance_matches_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(6):
        steps = rng.normal(size=(int(rng.integers(8, 25)), 2))
        steps[:, 0] = np.abs(steps[:, 0]) + 0.5  # x increases: no loop back near an end
        spline = fit_curve(np.cumsum(steps, axis=0) * 20)
        lo, hi = spline.domain
        ends = eval_curve_many(spline, [lo, hi])
        tangents = end_tangents(spline)
        tangents /= np.linalg.norm(tangents, axis=1)[:, None]
        near = eval_curve_many(spline, rng.uniform(lo, hi, 8)) + rng.normal(0.0, 3.0, (8, 2))
        beyond_ends = np.array([ends[0] - 0.5 * tangents[0], ends[1] + 0.25 * tangents[1]])
        far = near[:3] + rng.normal(0.0, 2000.0, (3, 2))
        queries = np.vstack([near, beyond_ends, far])
        got = point_to_curve_distances(spline, queries, lo)
        want = dense_distance_oracle(spline, queries)
        assert np.abs(got - want).max() < 1e-6
        # past an end along its tangent the end point is the nearest point
        assert np.abs(got[8:10] - np.linalg.norm(beyond_ends - ends, axis=1)).max() < 1e-9
    for p in (0, 1, 2, 3, 5):
        knots = random_repeated_knots(rng, p)
        spline = BSplineCurve(rng.normal(size=(n_ctrl(knots, p), 2)) * 50, knots, p)
        queries = rng.normal(size=(12, 2)) * 60
        got = point_to_curve_distances(spline, queries, spline.domain[0])
        assert np.abs(got - dense_distance_oracle(spline, queries)).max() < 1e-6, p


def test_any_curve_parameter_bounds_the_residual_search():
    # C(u) only narrows the spans searched: the domain start, random parameters
    # and the nearest parameters themselves all give the oracle's distance
    rng = np.random.default_rng(12)
    splines = [fit_curve(np.cumsum(rng.normal(size=(20, 2)), axis=0) * 20)]
    for p in (1, 2, 3, 5):
        knots = random_repeated_knots(rng, p)
        splines.append(BSplineCurve(rng.normal(size=(n_ctrl(knots, p), 2)) * 50, knots, p))
    for spline in splines:
        lo, hi = spline.domain
        queries = rng.normal(size=(12, 2)) * 60 + spline.control_points.mean(axis=0)
        nearest, want = dense_nearest_oracle(spline, queries)
        for params in (np.full(12, lo), rng.uniform(lo, hi, 12), nearest):
            got = point_to_curve_distances(spline, queries, params)
            assert np.abs(got - want).max() < 1e-6
            # the bound is itself a candidate
            assert np.all(got <= np.linalg.norm(queries - eval_curve_many(spline, params), axis=1))


def test_residual_of_a_self_approaching_fit_is_the_nearest_point(tmp_path):
    # the 3 px fits of this frame pass close to themselves, so a point's
    # nearest point can lie on a branch far along the curve
    out = tmp_path / "frame"
    assert main(["synth", "--out", str(out), "--seed", "8", "--noise-px", "3"]) == 0
    cam_a, cam_b = (swio.load_camera(out / f"camera_{v}.json") for v in "ab")
    curve_a, curve_b = (fit_curve(swio.load_annotation(out / f"annotation_{v}.json")[2])
                        for v in "ab")
    report = reconstruct_curve(cam_a, cam_b, curve_a, curve_b)
    match = match_curves(curve_a, curve_b, fundamental_matrix(cam_a, cam_b))
    u_as = np.array([ua for ua, _ in match.samples])
    assert np.array_equal(match.points, eval_curve_many(curve_a, u_as))  # sampled once
    u_bs = np.clip(match.interpolant(u_as), *curve_b.domain)
    world = np.array([triangulate_point(cam_a, cam_b, xa, xb) for xa, xb in
                      zip(eval_curve_many(curve_a, u_as), eval_curve_many(curve_b, u_bs))])
    for view, (cam, curve) in enumerate(((cam_a, curve_a), (cam_b, curve_b))):
        got = report.per_point_reproj_px[:, view]
        u = (u_as, u_bs)[view]
        assert np.array_equal(got, point_to_curve_distances(curve, project_many(cam, world), u))
        want = dense_distance_oracle(curve, project_many(cam, world))
        assert np.abs(got - want).max() < 1e-6, view
