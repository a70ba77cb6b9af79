
import numpy as np
import pytest

from stereowire.errors import CurvatureOverflow, RodOutOfRange, UnreachableConstraint
from stereowire.rod import (
    RodState,
    bending_energy,
    relax,
    rest_curvature_field,
    rotvec_to_quat,
    straight_rod,
    synth_guidewire,
)
from stereowire import rod as rod_module
from stereowire.rod import _tip_and_jacobian


def random_unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_rod(rng, n=10, L=2.0):
    q0, joints = random_unit_quat(rng), rng.normal(0, 0.3, (n - 1, 3))
    return RodState(L, rng.normal(size=3), q0, joints, rng.normal(0, 0.1, (n - 1, 3)))


def rotmat_from_rotvec(v):
    """Rodrigues formula, independent of the rod's quaternion chain."""
    theta = np.linalg.norm(v)
    if theta < 1e-12:
        return np.eye(3)
    k = v / theta
    K = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)


def quat_to_rotmat(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


# ------------------------------------------------------------- joints

def test_centerline_chains_the_joints(rng):
    # segment k points along R(q0) Rodrigues(kappa_0) ... Rodrigues(kappa_(k-1)) e_z,
    # built from the independent Rodrigues and quaternion-matrix oracles
    for _ in range(20):
        rod = random_rod(rng, n=int(rng.integers(2, 13)), L=float(rng.uniform(0.5, 3.0)))
        dirs = np.diff(rod.centerline(), axis=0) / rod.segment_length
        R = quat_to_rotmat(rod.base_orientation)
        for k, d in enumerate(dirs):
            if k > 0:
                R = R @ rotmat_from_rotvec(rod.joints[k - 1])
            assert np.abs(d - R[:, 2]).max() < 1e-12


def test_batched_helpers_equal_per_row_calls_bit_for_bit(rng):
    # one batch of zero, sub-1e-12, ordinary, near-pi and past-pi rows; the
    # last exponentiates to w < 0
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    v = np.vstack([np.zeros(3), [3e-13, -2e-13, 1e-13], rng.normal(0, 0.5, (4, 3)),
                   (np.pi - 1e-9) * axis, (np.pi + 0.5) * axis])
    q = rotvec_to_quat(v)
    assert q[-1, 0] < 0
    assert q.tobytes() == np.array([rotvec_to_quat(r) for r in v]).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field,value", [
    ("base_orientation", np.zeros(4)),
    ("base_orientation", [1.0, np.nan, 0.0, 0.0]),
    ("base_orientation", [np.inf, 0.0, 0.0, 0.0]),
    ("joints", [[0.0, 0.0, 0.0], [0.1, np.inf, 0.0]]),
    ("joints", [[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    ("base", [0.0, np.nan, 0.0]),
    ("base", [np.inf, 0.0, 0.0]),
    ("rest_curvature", [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]),
], ids=["q0-zero", "q0-nan", "q0-inf", "joints-inf", "joints-nan", "base-nan", "base-inf",
        "rest-nan"])
def test_rod_state_refuses_a_bad_state(field, value):
    good = dict(segment_length=1.0, base=np.zeros(3), base_orientation=[1.0, 0.0, 0.0, 0.0],
                joints=np.zeros((2, 3)), rest_curvature=np.zeros((2, 3)))
    RodState(**good)
    with pytest.raises(ValueError):
        RodState(**{**good, field: value})


def test_rod_state_normalises_its_base_orientation():
    rod = RodState(1.0, np.zeros(3), [1e300, 0.0, 1e300, 0.0], np.zeros((2, 3)), np.zeros((2, 3)))
    assert np.allclose(rod.base_orientation, [np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0])
    assert np.allclose(rod.centerline()[-1], [3.0, 0.0, 0.0])


# ------------------------------------------------------------- energy

def test_energy_straight_rod_zero():
    rod = straight_rod(8, 1.0)
    assert bending_energy(rod) == 0.0


def test_energy_single_joint_closed_form():
    rod = RodState(1.0, np.zeros(3), [1.0, 0.0, 0.0, 0.0], [[np.pi / 4, 0.0, 0.0]],
                   np.zeros((1, 3)))
    assert abs(bending_energy(rod) - np.pi ** 2 / 32.0) < 1e-12


def test_energy_matches_naive_loop_oracle(rng):
    rod = random_rod(rng)
    total = 0.0
    for j in range(rod.n_segments - 1):
        diff = rod.joints[j] - rod.rest_curvature[j]
        total += 0.5 * float(diff @ diff)
    assert abs(bending_energy(rod) - total) < 1e-12


def test_energy_nonnegative_zero_iff_rest(rng):
    rod = random_rod(rng)
    assert bending_energy(rod) >= 0.0
    # twist-free joints, so they live in the rest space (the axial rest
    # component is projected out by construction)
    q0 = random_unit_quat(rng)
    steps = rng.normal(0, 0.3, (7, 3))
    steps[:, 2] = 0.0
    at_rest = RodState(1.0, np.zeros(3), q0, steps, steps)
    assert bending_energy(at_rest) == 0.0
    perturbed = RodState(1.0, np.zeros(3), q0, steps, steps + [0.01, 0.0, 0.0])
    assert bending_energy(perturbed) > 0.0


def test_rest_curvature_axial_component_projected_out(rng):
    omega = rng.normal(size=(4, 3))
    rod = straight_rod(5, 1.0, rest_curvature=omega)
    assert np.array_equal(rod.rest_curvature[:, 2], np.zeros(4))
    assert np.allclose(rod.rest_curvature[:, :2], omega[:, :2])


# ------------------------------------------------------------- gradients

def fd_jacobian(residual, kappa, h=1e-6):
    """Central differences of residual(kappa), one column per joint
    rotation-vector component."""
    cols = []
    for j in range(kappa.shape[0]):
        for c in range(3):
            kp = kappa.copy()
            kp[j, c] += h
            km = kappa.copy()
            km[j, c] -= h
            cols.append((residual(kp) - residual(km)) / (2 * h))
    return np.stack(cols, axis=1)


def test_gradient_matches_finite_differences(rng):
    for _ in range(20):
        rod = random_rod(rng, n=int(rng.integers(4, 9)))
        kappa = rod.joints
        target = rod.centerline()[-1] + rng.normal(0, 1.0, 3)
        weight = float(rng.uniform(0.5, 5.0))
        q0, base, L = rod.base_orientation, rod.base, rod.segment_length
        tip, jac = _tip_and_jacobian(q0, kappa, base, L)
        J_fd = fd_jacobian(lambda k: _tip_and_jacobian(q0, k, base, L)[0] - target, kappa, h=1e-6)
        assert jac.shape == (3, kappa.size)
        # all three rows of the pin residual's Jacobian
        rel = np.abs(jac - J_fd).max() / max(np.abs(J_fd).max(), 1e-12)
        assert rel < 1e-5
        # the Lagrangian gradient (kappa - omega) + J^T lambda that relax
        # drives to zero, at the multiplier lambda = weight * (tip - target)
        lam = weight * (tip - target)
        energy_grad = (kappa - rod.rest_curvature).ravel()
        lag, lag_fd = energy_grad + jac.T @ lam, energy_grad + J_fd.T @ lam
        assert np.abs(lag - lag_fd).max() / max(np.abs(lag_fd).max(), 1e-12) < 1e-5


# ------------------------------------------------------------- relax

def test_relax_unconstrained_goes_straight(rng):
    rod = random_rod(rng)
    rod = RodState(rod.segment_length, rod.base, rod.base_orientation, rod.joints,
                   np.zeros((rod.n_segments - 1, 3)))
    res = relax(rod)
    assert res.energy == 0.0
    assert np.array_equal(res.rod.joints, np.zeros((rod.n_segments - 1, 3)))


def test_relax_constant_rest_curvature_gives_arc():
    omega = np.tile([0.12, 0.0, 0.0], (9, 1))
    rod = straight_rod(10, 2.0, rest_curvature=omega)
    res = relax(rod)
    assert np.array_equal(res.rod.joints, omega)
    # arc geometry oracle: equal turning per joint puts the joints on a
    # circle of radius L / (2 sin(alpha/2)) through the base
    pts = res.rod.centerline()
    alpha = 0.12
    R = 2.0 / (2.0 * np.sin(alpha / 2.0))
    chords = np.linalg.norm(pts[2:] - pts[:-2], axis=1)
    expect = 2.0 * R * np.sin(alpha)  # chord subtending two joints
    assert np.abs(chords - expect).max() < 1e-6


def test_relax_pinned_tip():
    # arc rod whose natural tip sits at ~0.8 of reach, pinned 0.5 mm off it
    n, L = 10, 2.0
    omega = np.tile([0.2265, 0.0, 0.0], (n - 1, 1))
    rod = straight_rod(n, L, rest_curvature=omega)
    natural = relax(rod).rod.centerline()[-1]
    assert abs(np.linalg.norm(natural) / (n * L) - 0.8) < 0.01
    target = natural + np.array([0.5, 0.0, 0.0])
    res = relax(rod, tip_target=target)
    assert res.converged and res.iterations <= 10
    assert res.tip_residual < 1e-3
    assert res.grad_inf < 1e-6


def test_relax_unreachable_tip():
    rod = straight_rod(5, 1.0)
    with pytest.raises(UnreachableConstraint):
        relax(rod, tip_target=np.array([0.0, 0.0, 6.0]))


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
def test_relax_energy_monotone_per_accepted_step(rng, pinned):
    rod = random_rod(rng)
    target = rod.base + np.array([2.0, 1.0, rod.segment_length * 5]) if pinned else None
    merits = relax(rod, tip_target=target).merits
    assert len(merits) >= 2 if pinned else merits == ()
    assert all(b <= a + 1e-12 for a, b in zip(merits, merits[1:]))


@pytest.mark.parametrize("n", [30, 4096])
def test_relax_free_rod_reports_zero_energy(n):
    # the README rod without its pin: it takes its rest curvature exactly
    res = relax(straight_rod(n, 2.0, rest_curvature_field(n, 0.8, 4)))
    assert res.energy == 0.0


def test_relax_pinned_energy_is_the_energy_of_the_returned_rod(rng):
    rod = random_rod(rng)
    res = relax(rod, tip_target=rod.base + np.array([2.0, 1.0, rod.segment_length * 5]))
    assert res.converged and res.energy > 0
    assert res.energy == bending_energy(res.rod)


def test_relax_preserves_spacing(rng):
    rod = random_rod(rng)
    res = relax(rod, tip_target=rod.base + np.array([2.0, 1.0, rod.segment_length * 5]))
    seg = np.linalg.norm(np.diff(res.rod.centerline(), axis=0), axis=1)
    assert np.abs(seg - rod.segment_length).max() < 1e-9


@pytest.mark.parametrize("n,L,target", [
    (30, 2.0, (0.0, 0.0, 2.0 - 58.05)),  # 56.05 mm from the base, 58.05 from the first joint
    (2, 1.0, (0.0, 0.0, 1.5)),  # inside the sphere a one-joint rod's tip moves on
], ids=["ball", "sphere"])
def test_relax_unreachable_from_first_joint(n, L, target):
    # the first segment is fixed by the base pose, so the reach is (n - 1) L
    # about the first joint, not n L about the base
    with pytest.raises(UnreachableConstraint):
        relax(straight_rod(n, L), tip_target=np.array(target))


def test_relax_never_reports_converged_off_target():
    # a straight rod pinned on its own axis sits at a saddle: the first-order
    # step is zero, and the tip is still 10 mm off
    res = relax(straight_rod(10, 2.0), tip_target=np.array([0.0, 0.0, 10.0]))
    assert not res.converged or res.tip_residual < 1e-8


def test_relax_saddle_fails_its_line_search_without_a_trial(monkeypatch):
    # the zero step moves no joint, so the line search fails before it
    # evaluates a trial: the only KKT step is the start's
    calls = []
    kkt_step = rod_module._kkt_step
    monkeypatch.setattr(rod_module, "_kkt_step", lambda *a: calls.append(1) or kkt_step(*a))
    res = relax(straight_rod(30, 2.0), tip_target=[0.0, 0.0, 30.0])
    assert len(calls) == 1
    assert res.iterations == 0 and not res.converged and res.tip_residual == 30.0


def test_relax_pinned_sweep_converges():
    rng = np.random.default_rng(2025)
    for _ in range(20):
        n, L = int(rng.integers(8, 31)), 2.0
        omega = rest_curvature_field(n, float(rng.uniform(0.0, 1.5)), int(rng.integers(1000)))
        rod = straight_rod(n, L, rest_curvature=omega)
        first = rod.base + np.array([0.0, 0.0, L])
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        target = first + rng.uniform(0.6, 0.9) * (n - 1) * L * direction
        res = relax(rod, tip_target=target)
        assert res.converged and res.grad_inf < 1e-8
        assert res.tip_residual < 1e-9
        assert np.linalg.norm(res.rod.centerline()[-1] - target) < 1e-9
        seg = np.linalg.norm(np.diff(res.rod.centerline(), axis=0), axis=1)
        assert np.abs(seg - L).max() < 1e-9


# ------------------------------------------------------------- synthesis

def test_synth_zero_tip_angle_is_straight():
    wire = synth_guidewire(20, 2.0, 0.0, seed=11)
    d = np.diff(wire, axis=0)
    assert np.abs(d - d[0]).max() < 1e-12


def test_synth_deterministic():
    a = synth_guidewire(30, 2.0, 1.0, seed=42)
    b = synth_guidewire(30, 2.0, 1.0, seed=42)
    assert np.array_equal(a, b)
    c = synth_guidewire(30, 2.0, 1.0, seed=43)
    assert not np.array_equal(a, c)


def test_synth_spacing_equals_segment_length():
    wire = synth_guidewire(25, 1.5, 0.8, seed=3)
    seg = np.linalg.norm(np.diff(wire, axis=0), axis=1)
    assert np.abs(seg - 1.5).max() < 1e-9


def test_rest_field_bounded_by_tip_angle():
    omega = rest_curvature_field(40, 1.2, seed=9)
    mags = np.linalg.norm(omega, axis=1)
    assert mags.max() <= 1.2 / 40 + 1e-12
    assert mags.sum() <= 1.2 + 1e-9


@pytest.mark.parametrize("tip_angle", [1e200, -1e155, np.inf, np.nan])
def test_rest_field_refuses_overflowing_bends(tip_angle):
    with pytest.raises(CurvatureOverflow):
        rest_curvature_field(50, tip_angle, seed=0)


def test_rest_field_refuses_a_joint_bend_of_pi():
    # the largest joint bend is tip_angle / n_segments, exact for 4 segments
    with pytest.raises(CurvatureOverflow, match="not below pi"):
        rest_curvature_field(4, 4.0 * np.pi, seed=0)
    below = rest_curvature_field(4, 4.0 * np.nextafter(np.pi, 0.0), seed=0)
    assert np.linalg.norm(below, axis=1).max() < np.pi


@pytest.mark.filterwarnings("error")
def test_rod_out_of_float_range_is_refused_before_any_warning():
    with pytest.raises(RodOutOfRange):
        straight_rod(50, 1e308)  # each segment is finite, the rod is not
    steep = straight_rod(5, 2.0, rest_curvature_field(5, 1.0, 0) * 1e154)
    with pytest.raises(RodOutOfRange):
        relax(steep, tip_target=[0.0, 0.0, 4.0])  # energy / rho overflows
