import numpy as np
import pytest

from stereowire.cameras import (
    ProjectiveCamera,
    calibrate_dlt,
    canonical_homogeneous,
    epiline,
    fundamental_matrix,
    normalize_fundamental,
    project_many,
    skew,
)
from stereowire.errors import (
    CoincidentCenters,
    DegenerateConfiguration,
    DegenerateProjection,
    InsufficientPoints,
    RankDeficient,
    ZeroLine,
)

from conftest import random_camera, random_stereo_rig


def canonical(size=(1024, 1024)):
    return ProjectiveCamera(np.hstack([np.eye(3), np.zeros((3, 1))]), size)


def homog(x):
    return np.append(np.asarray(x, float), 1.0)


# ---------------------------------------------------------------- project

def test_project_canonical():
    cam = canonical()
    assert np.allclose(project_many(cam, [[0, 0, 1]])[0], [0, 0])


def test_project_divides_by_depth():
    cam = canonical()
    assert np.allclose(project_many(cam, [[2, 4, 2]])[0], [1, 2])


def test_project_matches_homogeneous_oracle(rng):
    for _ in range(20):
        cam = random_camera(rng)
        X = rng.uniform(-200, 200, 3)
        uvw = cam.P @ homog(X)  # independent multiply-and-divide oracle
        if abs(uvw[2]) <= 1e-12:
            continue
        assert np.allclose(project_many(cam, [X])[0], uvw[:2] / uvw[2], atol=1e-12)


@pytest.mark.parametrize("k", [-1000, 1000])
def test_project_keeps_every_bit_under_a_power_of_two_scale_of_P(rng, k):
    # P * 2^k is the same camera with the same mantissas; at 2^-1000 the raw
    # P's depths would fall under the principal-plane bound
    for _ in range(20):
        cam = random_camera(rng)
        X = rng.uniform(-200, 200, (50, 3))
        scaled = ProjectiveCamera(np.ldexp(cam.P, k), cam.image_size)
        assert project_many(scaled, X).tobytes() == project_many(cam, X).tobytes()


def test_project_principal_plane_raises():
    cam = canonical()
    with pytest.raises(DegenerateProjection):
        project_many(cam, [[1.0, 1.0, 0.0]])[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_project_refuses_a_non_finite_point(bad):
    with pytest.raises(ValueError, match="points must be finite"):
        project_many(canonical(), [[0.0, 0.0, 1.0], [1.0, bad, 2.0]])


# ---------------------------------------------------------------- camera center

def test_canonical_homogeneous_of_a_zero_vector_is_a_zero_copy():
    v = np.zeros(4)
    got = canonical_homogeneous(v)
    assert np.array_equal(got, v) and got is not v


def test_canonical_homogeneous_at_infinity_makes_the_first_nonzero_positive():
    # last component 0: the first one beyond 1e-14 (after scaling) takes the sign
    assert np.array_equal(canonical_homogeneous([0.0, -3.0, 4.0, 0.0]), [0.0, 0.6, -0.8, 0.0])
    assert np.array_equal(canonical_homogeneous([1e-300, -3.0, 4.0, 0.0]),
                          [-1e-300 / 5.0, 0.6, -0.8, 0.0])
    assert np.array_equal(canonical_homogeneous([3.0, 0.0, -4.0, 0.0]), [0.6, 0.0, -0.8, 0.0])


def test_center_canonical_at_origin():
    C = canonical().center
    assert np.allclose(C / C[3], [0, 0, 0, 1])


def test_center_translated_camera():
    t = np.array([1.0, 2.0, 3.0])
    P = np.hstack([np.eye(3), -t[:, None]])
    C = ProjectiveCamera(P, (100, 100)).center
    assert np.allclose(C / C[3], [1, 2, 3, 1], atol=1e-12)


def test_center_is_null_vector(rng):
    # O(1)-scale random rank-3 matrices: absolute null-space residual
    for _ in range(20):
        P = rng.normal(size=(3, 4))
        if np.linalg.svd(P, compute_uv=False)[2] < 1e-3:
            continue
        cam = ProjectiveCamera(P, (10, 10))
        C = cam.center
        assert np.linalg.norm(cam.P @ C) < 1e-10
        assert abs(np.linalg.norm(C) - 1.0) < 1e-12
        assert C[3] >= 0
        # the centre stored at construction is the canonical SVD null vector
        assert np.array_equal(C, canonical_homogeneous(np.linalg.svd(P)[2][-1]))
    # realistic pixel-scale cameras: residual relative to the matrix norm
    for _ in range(10):
        cam = random_camera(rng)
        C = cam.center
        assert np.linalg.norm(cam.P @ C) < 1e-12 * np.linalg.norm(cam.P)
        assert np.array_equal(C, canonical_homogeneous(np.linalg.svd(cam.P)[2][-1]))
        # neither the centre nor the matrix it was computed from can change
        assert not C.flags.writeable and not cam.P.flags.writeable


def test_rank_deficient_rejected():
    P = np.zeros((3, 4))
    P[0, 0] = P[1, 1] = 1.0
    with pytest.raises(RankDeficient):
        ProjectiveCamera(P, (10, 10))


@pytest.mark.parametrize("shape", [(3, 3), (4, 4), (4, 3), (12,)])
def test_a_matrix_that_is_not_3x4_is_refused(shape):
    with pytest.raises(ValueError, match="must be 3x4"):
        ProjectiveCamera(np.ones(shape), (10, 10))


# ---------------------------------------------------------------- skew

def test_skew_zero():
    assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))


def test_skew_unit_cross():
    assert np.allclose(skew([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])


def test_skew_matches_cross_product_oracle(rng):
    for _ in range(50):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(skew(v) @ w, np.cross(v, w), atol=1e-12)
        # the row contractions cancel exactly once products are rounded;
        # BLAS matmul may fuse multiply-adds, so contract elementwise
        assert np.array_equal((skew(v) * v).sum(axis=1), np.zeros(3))


def test_skew_antisymmetric(rng):
    v = rng.normal(size=3)
    S = skew(v)
    assert np.array_equal(S, -S.T)


# ---------------------------------------------------------------- fundamental matrix

def test_fundamental_canonical_pair_annihilates():
    cam_a = canonical()
    cam_b = ProjectiveCamera(np.hstack([np.eye(3), np.array([[-1.0], [0.0], [0.0]])]), (1024, 1024))
    F = fundamental_matrix(cam_a, cam_b)
    X = np.array([0.0, 0.0, 5.0])
    res = homog(project_many(cam_b, [X])[0]) @ F @ homog(project_many(cam_a, [X])[0])
    assert abs(res) < 1e-12


def test_fundamental_coincident_centers():
    cam = canonical()
    other = ProjectiveCamera(2.0 * cam.P, cam.image_size)  # same center, scaled
    with pytest.raises(CoincidentCenters):
        fundamental_matrix(cam, other)


def test_fundamental_projection_oracle(rng):
    cam_a, cam_b = random_stereo_rig(rng)
    F = fundamental_matrix(cam_a, cam_b)
    X = rng.uniform(-150, 150, (20, 3))
    xa = project_many(cam_a, X)
    xb = project_many(cam_b, X)
    res = np.einsum("ni,ij,nj->n",
                    np.hstack([xb, np.ones((20, 1))]), F,
                    np.hstack([xa, np.ones((20, 1))]))
    assert np.abs(res).max() < 1e-9


def test_fundamental_invariants(rng):
    cam_a, cam_b = random_stereo_rig(rng)
    F = fundamental_matrix(cam_a, cam_b)
    # unit Frobenius norm, positive leading entry, rank 2
    assert abs(np.linalg.norm(F) - 1.0) < 1e-12
    flat = F.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-12)[0]]
    assert lead > 0
    s = np.linalg.svd(F, compute_uv=False)
    assert s[2] / s[0] < 1e-9
    # null spaces are the epipoles
    e_a = canonical_homogeneous(cam_a.P @ cam_b.center)
    e_b = canonical_homogeneous(cam_b.P @ cam_a.center)
    assert np.linalg.norm(F @ e_a) < 1e-9
    assert np.linalg.norm(e_b @ F) < 1e-9


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_normalize_fundamental_does_not_depend_on_scale(rng, scale):
    # the squares in the Frobenius norm under- or overflow at these scales
    F = fundamental_matrix(*random_stereo_rig(rng))
    assert np.abs(normalize_fundamental(F * scale) - normalize_fundamental(F)).max() <= 1e-14


@pytest.mark.parametrize("scale_a, scale_b", [(1e-9, 1.0), (1e9, 1.0), (1e300, 1.0), (1e200, 1e200)],
                         ids=["a-1e-9", "a-1e9", "a-1e300", "both-1e200"])
@pytest.mark.filterwarnings("error")
def test_fundamental_matrix_does_not_depend_on_the_scale_of_P(rng, scale_a, scale_b):
    # F is formed from P times a power of two, so a power-of-two scale keeps its bits
    for _ in range(20):
        cam_a, cam_b = random_stereo_rig(rng)
        F = fundamental_matrix(cam_a, cam_b)
        for sa, sb in ((scale_a, scale_b), (2.0 ** -30, 2.0 ** 50)):
            scaled = (ProjectiveCamera(cam_a.P * sa, cam_a.image_size),
                      ProjectiveCamera(cam_b.P * sb, cam_b.image_size))
            got = fundamental_matrix(*scaled)
            if sa == 2.0 ** -30:
                assert np.array_equal(got, F)
            assert np.abs(got - F).max() <= 1e-12  # P * s rounds each entry of P


def test_normalize_fundamental_refuses_a_zero_matrix():
    with pytest.raises(RankDeficient):
        normalize_fundamental(np.zeros((3, 3)))


# ---------------------------------------------------------------- epiline

def test_epiline_exact_correspondence(rng):
    cam_a, cam_b = random_stereo_rig(rng)
    F = fundamental_matrix(cam_a, cam_b)
    X = rng.uniform(-100, 100, 3)
    l = epiline(F, project_many(cam_a, [X])[0])
    xb = project_many(cam_b, [X])[0]
    assert abs(xb @ l[:2] + l[2]) < 1e-9
    assert abs(np.hypot(l[0], l[1]) - 1.0) < 1e-12


def test_epiline_at_epipole_raises(rng):
    cam_a, cam_b = random_stereo_rig(rng)
    F = fundamental_matrix(cam_a, cam_b)
    e_a = cam_a.P @ cam_b.center
    with pytest.raises(ZeroLine):
        epiline(F, e_a[:2] / e_a[2])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_epiline_refuses_a_non_finite_point(rng, bad):
    F = fundamental_matrix(*random_stereo_rig(rng))
    for x in ([bad, 1.0], [1.0, -bad]):
        with pytest.raises(ValueError, match="point must be finite"):
            epiline(F, x)


def test_epiline_skew_pattern_manual_multiply():
    F = normalize_fundamental(skew([0.0, 0.0, 1.0]))
    l = epiline(F, [1.0, 1.0])
    # manual multiply: normalized skew gives the 45-degree line through the origin
    manual = F @ np.array([1.0, 1.0, 1.0])
    manual /= np.hypot(manual[0], manual[1])
    assert np.allclose(l, manual, atol=1e-15)
    assert abs(l[2]) < 1e-15
    assert abs(l[0] + l[1]) < 1e-15  # u - v = 0 up to overall sign


# ---------------------------------------------------------------- DLT calibration

def _correspondences(cam, X):
    return X, project_many(cam, X)


def test_dlt_exact_recovery(rng):
    cam = random_camera(rng)
    X = rng.uniform(-150, 150, (12, 3))
    est, err = calibrate_dlt(*_correspondences(cam, X), cam.image_size)
    P_true = normalize_fundamental_like(cam.P)
    P_est = normalize_fundamental_like(est.P)
    assert np.abs(P_true - P_est).max() < 1e-8
    assert err < 1e-8


def normalize_fundamental_like(P):
    P = P / np.linalg.norm(P)
    flat = P.ravel()
    lead = flat[np.flatnonzero(np.abs(flat) > 1e-12)[0]]
    return -P if lead < 0 else P


def test_dlt_insufficient_points(rng):
    cam = random_camera(rng)
    X = rng.uniform(-150, 150, (5, 3))
    with pytest.raises(InsufficientPoints):
        calibrate_dlt(*_correspondences(cam, X))


def test_dlt_coplanar_points_degenerate(rng):
    cam = random_camera(rng)
    X = rng.uniform(-150, 150, (10, 3))
    X[:, 2] = 40.0  # all world points on one plane
    with pytest.raises(DegenerateConfiguration):
        calibrate_dlt(*_correspondences(cam, X))


def test_dlt_coincident_pixels_degenerate(rng):
    with pytest.raises(DegenerateConfiguration, match="coincident"):
        calibrate_dlt(rng.uniform(-150, 150, (6, 3)), np.full((6, 2), 512.0))


@pytest.mark.parametrize("case,message", [
    ("world 2 columns", "need"), ("pixel 3 columns", "need"), ("flat world", "need"),
    ("unequal rows", "need"), ("nan world", "finite"), ("inf pixel", "finite"),
])
def test_dlt_refuses_malformed_arrays(rng, case, message):
    world, pixel = _correspondences(random_camera(rng), rng.uniform(-150, 150, (8, 3)))
    world, pixel = {
        "world 2 columns": (world[:, :2], pixel),
        "pixel 3 columns": (world, np.hstack([pixel, pixel[:, :1]])),
        "flat world": (world.ravel(), pixel),
        "unequal rows": (world, pixel[:-1]),
        "nan world": (np.where(np.arange(3) == 1, np.nan, world), pixel),
        "inf pixel": (world, np.where(np.arange(2) == 0, np.inf, pixel)),
    }[case]
    with pytest.raises(ValueError, match=message):
        calibrate_dlt(world, pixel)


def test_dlt_noisy_mean_reprojection(rng):
    cam = random_camera(rng)
    X = rng.uniform(-150, 150, (50, 3))
    pixel = project_many(cam, X) + rng.normal(0, 0.5, (50, 2))
    _, err = calibrate_dlt(X, pixel, cam.image_size)
    assert err <= 1.5


def test_dlt_noiseless_inverts_project(rng):
    # calibrate_dlt on exact projections must reproduce every pixel
    cam = random_camera(rng)
    X = rng.uniform(-150, 150, (30, 3))
    est, _ = calibrate_dlt(*_correspondences(cam, X), cam.image_size)
    assert np.abs(project_many(est, X) - project_many(cam, X)).max() < 1e-7
