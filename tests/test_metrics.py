import numpy as np
import pytest

from stereowire.bspline import fit_curve
from stereowire.metrics import (
    Episode,
    curve_metrics,
    discrete_frechet,
    episode_metrics,
    force_magnitude,
    path_length,
    reward,
)


# ------------------------------------------------------------- frechet oracle

def frechet_memo_oracle(P, Q):
    """Exhaustive recursive coupling search with memoization."""
    P = np.asarray(P, float)
    Q = np.asarray(Q, float)
    memo = {}

    def go(i, j):
        if (i, j) in memo:
            return memo[(i, j)]
        d = float(np.sqrt(np.sum((P[i] - Q[j]) ** 2)))
        if i == 0 and j == 0:
            r = d
        elif i == 0:
            r = max(go(0, j - 1), d)
        elif j == 0:
            r = max(go(i - 1, 0), d)
        else:
            r = max(min(go(i - 1, j), go(i - 1, j - 1), go(i, j - 1)), d)
        memo[(i, j)] = r
        return r

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        return go(len(P) - 1, len(Q) - 1)
    finally:
        sys.setrecursionlimit(old)


def frechet_loop_oracle(P, Q):
    """Row-by-row double loop over the coupling table, one cell at a time."""
    P = np.atleast_2d(np.asarray(P, float))
    Q = np.atleast_2d(np.asarray(Q, float))
    n, m = len(P), len(Q)
    d = np.sqrt(np.sum((P[:, None, :] - Q[None, :, :]) ** 2, axis=2))
    ca = np.empty((n, m))
    ca[0, 0] = d[0, 0]
    for j in range(1, m):
        ca[0, j] = max(ca[0, j - 1], d[0, j])
    for i in range(1, n):
        ca[i, 0] = max(ca[i - 1, 0], d[i, 0])
        for j in range(1, m):
            ca[i, j] = max(min(ca[i - 1, j], ca[i - 1, j - 1], ca[i, j - 1]), d[i, j])
    return float(ca[-1, -1])


def random_sequences(rng, count=8, max_len=16, dim=3):
    out = []
    for _ in range(count):
        n = int(rng.integers(2, max_len + 1))
        out.append(np.cumsum(rng.normal(size=(n, dim)), axis=0) * 3)
    return out


def test_frechet_matches_memo_oracle_exactly(rng):
    seqs = random_sequences(rng)
    for P in seqs:
        for Q in seqs:
            assert discrete_frechet(P, Q) == frechet_memo_oracle(P, Q)


def test_frechet_wavefront_equals_double_loop(rng):
    for _ in range(40):
        n, m = rng.choice(np.arange(1, 90), size=2, replace=False)
        P = np.cumsum(rng.normal(size=(n, 3)), axis=0)
        Q = np.cumsum(rng.normal(size=(m, 3)), axis=0)
        assert discrete_frechet(P, Q) == frechet_loop_oracle(P, Q)
        assert discrete_frechet(Q, P) == frechet_loop_oracle(Q, P)


def test_frechet_bounded_below_by_end_pairs(rng):
    seqs = random_sequences(rng, count=5)
    for P in seqs:
        for Q in seqs:
            f = discrete_frechet(P, Q)
            assert f >= np.linalg.norm(P[0] - Q[0]) - 1e-12
            assert f >= np.linalg.norm(P[-1] - Q[-1]) - 1e-12


def test_frechet_symmetric_and_zero_iff_identical(rng):
    seqs = random_sequences(rng, count=6)
    for P in seqs:
        assert discrete_frechet(P, P) == 0.0
        for Q in seqs:
            assert discrete_frechet(P, Q) == discrete_frechet(Q, P)
            if discrete_frechet(P, Q) == 0.0:
                assert len(P) == len(Q) and np.array_equal(P, Q)


def test_frechet_triangle_inequality(rng):
    for _ in range(50):
        n = int(rng.integers(2, 10))
        P, Q, R = (np.cumsum(rng.normal(size=(n, 3)), axis=0) for _ in range(3))
        assert discrete_frechet(P, R) <= discrete_frechet(P, Q) + discrete_frechet(Q, R) + 1e-12


# ------------------------------------------------------------- curve metrics

def wire(rng, n=30):
    return np.cumsum(rng.normal(size=(n, 3)), axis=0) * 4


def test_metrics_identical_curves_zero(rng):
    c = fit_curve(wire(rng))
    m = curve_metrics(c, c)
    assert m.max_ed == m.mete == m.mers == m.frechet == 0.0


def test_metrics_rigid_offset():
    pts = np.column_stack([np.linspace(0, 50, 20), np.zeros(20), np.zeros(20)])
    truth = fit_curve(pts)
    pred = fit_curve(pts + [3.0, 0.0, 0.0])
    m = curve_metrics(pred, truth)
    for v in (m.max_ed, m.mete, m.mers, m.frechet):
        assert abs(v - 3.0) < 1e-9


def test_metrics_frechet_on_samples_matches_oracle(rng):
    from stereowire.bspline import sample_uniform
    a = fit_curve(wire(rng))
    b = fit_curve(wire(rng))
    m = curve_metrics(a, b, n=16)
    _, pa = sample_uniform(a, 16)
    _, pb = sample_uniform(b, 16)
    assert m.frechet == frechet_memo_oracle(pa, pb)
    assert m.frechet >= max(np.linalg.norm(pa[0] - pb[0]), np.linalg.norm(pa[-1] - pb[-1])) - 1e-12


def test_metrics_invariant_relations(rng):
    for _ in range(10):
        a = fit_curve(wire(rng))
        b = fit_curve(wire(rng))
        m = curve_metrics(a, b)
        assert m.max_ed >= m.mers >= 0.0
        assert m.frechet >= 0.0


def test_metrics_translation_covariance(rng):
    pts_a, pts_b = wire(rng), wire(rng)
    t = np.array([5.0, -2.0, 1.0])
    m0 = curve_metrics(fit_curve(pts_a), fit_curve(pts_b))
    m_both = curve_metrics(fit_curve(pts_a + t), fit_curve(pts_b + t))
    assert m_both.max_ed == pytest.approx(m0.max_ed, abs=1e-9)
    assert m_both.frechet == pytest.approx(m0.frechet, abs=1e-9)
    m_one = curve_metrics(fit_curve(pts_a + t), fit_curve(pts_b))
    assert m_one.max_ed <= m0.max_ed + np.linalg.norm(t) + 1e-9
    assert m_one.mers <= m0.mers + np.linalg.norm(t) + 1e-9


def test_mete_is_tip_sample():
    pts = np.column_stack([np.linspace(0, 50, 20), np.zeros(20), np.zeros(20)])
    truth = fit_curve(pts)
    bent = pts.copy().astype(float)
    bent[0] += [0.0, 2.0, 0.0]  # displace only the tip vertex
    pred = fit_curve(bent)
    m = curve_metrics(pred, truth)
    assert abs(m.mete - 2.0) < 1e-9


# ------------------------------------------------------------- reward / force

def test_reward_at_goal():
    assert reward([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 10.0


def test_reward_boundary_inclusive():
    h = np.array([8.0, 0.0, 0.0])
    assert reward(h, np.zeros(3)) == 10.0


def test_reward_outside_goal():
    assert reward([20.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == -20.0


def test_reward_approaches_surface_from_outside(rng):
    g = rng.normal(size=3)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    eps = np.linspace(1e-6, 5.0, 50)
    vals = [reward(g + (8.0 + e) * d, g) for e in eps]
    assert all(b < a for a, b in zip(vals, vals[1:]))  # best just outside the ball


def test_force_magnitude_cases(rng):
    assert force_magnitude([0.0, 0.0, 0.0]) == 0.0
    assert force_magnitude([3.0, 4.0, 0.0]) == 5.0
    for _ in range(20):
        f = rng.normal(size=3)
        assert force_magnitude(f) == pytest.approx(np.sqrt((f * f).sum()), abs=1e-15)


# ------------------------------------------------------------- episodes

def episode(path, success, forces=(), goal=(0.0, 0.0, 0.0)):
    return Episode(tip_positions=np.asarray(path, float),
                   forces=np.asarray(forces, float).reshape(-1, 3),
                   goal=np.asarray(goal, float), success=success)


def test_single_successful_straight_path_spl_one():
    ep = episode([[0, 0, 0], [1, 0, 0], [2, 0, 0]], True)
    em = episode_metrics([ep])
    assert em.spl == 1.0
    assert em.path_length[0] == pytest.approx(2.0)


def test_two_episode_spl_formula():
    fast = episode([[0, 0, 0], [2, 0, 0]], True)              # p = l = 2
    slow = episode([[0, 0, 0], [2, 0, 0], [2, 2, 0]], True)   # p = 4 = 2 l
    em = episode_metrics([slow, fast])
    assert em.spl == pytest.approx(0.75)


def test_spl_zero_without_success():
    em = episode_metrics([episode([[0, 0, 0], [1, 0, 0]], False)])
    assert em.spl == 0.0
    assert not em.any_success


def test_spl_equals_success_rate_when_paths_optimal(rng):
    eps = []
    for k in range(8):
        success = k % 2 == 0
        eps.append(episode([[0, 0, 0], [3, 0, 0]], success))
    em = episode_metrics(eps)
    assert em.spl == pytest.approx(0.5)
    assert 0.0 <= em.spl <= 1.0


def test_safety_endpoints():
    calm = episode([[0, 0, 0], [1, 0, 0]], True, forces=[[0.1, 0, 0], [0, 1.0, 0]])
    rough = episode([[0, 0, 0], [1, 0, 0]], True, forces=[[2.0, 0, 0], [0, 3.0, 0]])
    em = episode_metrics([calm, rough])
    assert em.safety[0] == 1.0
    assert em.safety[1] == 0.0


def test_force_threshold_is_inclusive():
    ep = episode([[0, 0, 0]], True, forces=[[2.0, 0.0, 0.0]])
    em = episode_metrics([ep])
    assert em.safety[0] == 0.0  # force of exactly 2 N counts as excessive


def test_f_max_f_mean_over_force_track(rng):
    forces = rng.normal(0, 1.5, (25, 3))
    ep = episode(np.zeros((25, 3)), True, forces=forces)
    em = episode_metrics([ep])
    mags = np.linalg.norm(forces, axis=1)
    assert em.f_max[0] == pytest.approx(mags.max(), abs=1e-12)
    assert em.f_mean[0] == pytest.approx(mags.mean(), abs=1e-12)


def test_empty_forces_counts_safe():
    ep = episode([[0, 0, 0]], True)
    em = episode_metrics([ep])
    assert em.safety[0] == 1.0
    assert em.f_max[0] == 0.0 and em.f_mean[0] == 0.0
    assert em.path_length[0] == 0.0


def test_path_length_matches_sum(rng):
    pts = rng.normal(size=(12, 3))
    assert path_length(pts) == pytest.approx(
        sum(np.linalg.norm(pts[i + 1] - pts[i]) for i in range(11)), abs=1e-12)
