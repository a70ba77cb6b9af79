"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.
"""

import json
import time

import numpy as np
import pytest

import stereowire.io as swio
from stereowire.bspline import basis, eval_curve, fit_curve, sample_uniform
from stereowire.cameras import canonical_homogeneous, fundamental_matrix, project_many
from stereowire.cli import main
from stereowire.metrics import curve_metrics, discrete_frechet, episode_metrics, reward, Episode
from stereowire.rod import (
    RodState,
    bending_energy,
    joint_curvatures,
    quat_mul,
    quat_normalize,
    relax,
    rotvec_to_quat,
)
from stereowire.rod import _tip_and_jacobian
from stereowire.stereo import pchip_fit

from conftest import random_stereo_rig
from test_bspline import de_boor_oracle, random_clamped_kv
from test_metrics import frechet_memo_oracle
from test_rod import fd_jacobian, random_unit_quat


def _report(n, name, detail):
    print(f"ACCEPTANCE {n} [{name}]: PASS ({detail})")


def test_criterion_1_epipolar_constraint_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_null = 0.0
    for _ in range(100):
        cam_a, cam_b = random_stereo_rig(rng)
        F = fundamental_matrix(cam_a, cam_b)
        X = rng.uniform(-150.0, 150.0, (20, 3))
        xa = np.hstack([project_many(cam_a, X), np.ones((20, 1))])
        xb = np.hstack([project_many(cam_b, X), np.ones((20, 1))])
        res = np.abs(np.einsum("ni,ij,nj->n", xb, F, xa)).max()
        e_a = canonical_homogeneous(cam_a.P @ cam_b.center)
        null = np.linalg.norm(F @ e_a)
        worst_res = max(worst_res, res)
        worst_null = max(worst_null, null)
    elapsed = time.perf_counter() - t0
    assert worst_res < 1e-9
    assert worst_null < 1e-9
    assert elapsed < 1.0
    _report(1, "epipolar-constraint", f"max residual {worst_res:.2e}, "
            f"max null {worst_null:.2e}, {elapsed:.2f}s")


def test_criterion_2_noiseless_round_trip(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--seed", "0", "--noise-px", "0",
                 "--annotation-points", "64"]) == 0
    report_path = tmp_path / "report.json"
    assert main(["reconstruct",
                 "--camera-a", str(out / "camera_a.json"),
                 "--camera-b", str(out / "camera_b.json"),
                 "--annotations", str(out / "annotation_a.json"),
                 str(out / "annotation_b.json"),
                 "--samples", "64", "--out", str(report_path)]) == 0
    report = swio.load_report(report_path)
    truth = swio.load_curve(out / "truth_curve.json")
    m = curve_metrics(report["curve"], truth, n=64)
    elapsed = time.perf_counter() - t0
    assert m.max_ed < 0.01
    assert report["mean_reproj_px"] < 1e-4
    assert report["accepted"]
    assert elapsed < 5.0
    _report(2, "noiseless-round-trip", f"MaxED {m.max_ed:.2e} mm, "
            f"reproj {report['mean_reproj_px']:.2e} px, {elapsed:.2f}s")


def test_criterion_3_noisy_validation_band(tmp_path):
    t0 = time.perf_counter()
    maxeds = []
    all_accepted = True
    for seed in range(30):
        out = tmp_path / f"s{seed}"
        assert main(["synth", "--out", str(out), "--seed", str(seed),
                     "--noise-px", "1.0"]) == 0
        report_path = out / "report.json"
        assert main(["reconstruct",
                     "--camera-a", str(out / "camera_a.json"),
                     "--camera-b", str(out / "camera_b.json"),
                     "--annotations", str(out / "annotation_a.json"),
                     str(out / "annotation_b.json"),
                     "--out", str(report_path)]) == 0
        report = swio.load_report(report_path)
        all_accepted = all_accepted and report["accepted"] and report["mean_reproj_px"] <= 25.0
        truth = swio.load_curve(out / "truth_curve.json")
        maxeds.append(curve_metrics(report["curve"], truth).max_ed)
    elapsed = time.perf_counter() - t0
    median = float(np.median(maxeds))
    assert median <= 3.0
    assert all_accepted
    assert elapsed < 60.0
    _report(3, "noisy-validation-band", f"median MaxED {median:.3f} mm over 30 seeds, "
            f"all accepted, {elapsed:.1f}s")


def test_criterion_4_bspline_properties():
    rng = np.random.default_rng(104)
    worst_pu = 0.0
    for _ in range(1000):
        kv = random_clamped_kv(rng)
        t = rng.uniform(*kv.domain)
        total = sum(basis(i, kv.degree, t, kv) for i in range(kv.n_basis))
        worst_pu = max(worst_pu, abs(total - 1.0))
    assert worst_pu < 1e-12

    worst_eval = 0.0
    for _ in range(20):
        kv = random_clamped_kv(rng, degree=3)
        cp = rng.normal(size=(kv.n_basis, 3))
        from stereowire.bspline import BSplineCurve
        curve = BSplineCurve(cp, kv)
        for t in rng.uniform(0.0, 1.0, 50):
            diff = np.abs(eval_curve(curve, t) - de_boor_oracle(curve, t)).max()
            worst_eval = max(worst_eval, diff)
    assert worst_eval < 1e-12

    pts = np.cumsum(rng.normal(size=(9, 3)), axis=0)
    curve = fit_curve(pts)
    lo, hi = curve.domain
    ts, samples = sample_uniform(curve, 17)
    assert ts[0] == lo and ts[-1] == hi
    assert np.array_equal(samples[0], eval_curve(curve, lo))
    assert np.array_equal(samples[-1], eval_curve(curve, hi))
    _report(4, "bspline-properties", f"partition {worst_pu:.2e}, "
            f"de Boor {worst_eval:.2e}, endpoints exact")


def test_criterion_5_pchip_monotonicity():
    rng = np.random.default_rng(105)
    probes = np.linspace(0.0, 1.0, 10_000)
    worst_slope = np.inf
    worst_interp = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 14))
        x = np.sort(rng.uniform(0.0, 1.0, n))
        x[0], x[-1] = 0.0, 1.0
        x += np.linspace(0.0, 1e-9, n)  # break exact ties
        x = np.unique(x)
        y = np.cumsum(np.abs(rng.normal(size=len(x))))
        if rng.uniform() < 0.3 and len(y) > 2:  # occasional flat runs
            j = int(rng.integers(1, len(y)))
            y[j] = y[j - 1]
            y = np.maximum.accumulate(y)
        f = pchip_fit(np.column_stack([x, y]))
        vals = f(np.clip(probes, x[0], x[-1]))
        slopes = np.diff(vals) / np.diff(probes)
        worst_slope = min(worst_slope, slopes.min())
        worst_interp = max(worst_interp, np.abs(f(x) - y).max())
    assert worst_slope >= -1e-10
    assert worst_interp == 0.0
    _report(5, "pchip-monotonicity", f"min slope {worst_slope:.2e}, "
            f"knot interpolation exact")


def test_criterion_6_rod_model():
    rng = np.random.default_rng(106)
    worst_rel = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 10))
        qs = [random_unit_quat(rng)]
        for _ in range(n - 1):
            qs.append(quat_normalize(quat_mul(qs[-1], rotvec_to_quat(rng.normal(0, 0.3, 3)))))
        rod = RodState(float(rng.uniform(0.5, 3.0)), np.array(qs), rng.normal(size=3),
                       float(rng.uniform(0.5, 3.0)), rng.normal(0, 0.1, (n - 1, 3)))
        kappa = joint_curvatures(rod)
        target = rod.centerline()[-1] + rng.normal(0, 1.0, 3)
        q0, base, L = rod.orientations[0], rod.base, rod.segment_length
        _, jac = _tip_and_jacobian(q0, kappa, base, L)
        J_fd = fd_jacobian(lambda k: _tip_and_jacobian(q0, k, base, L)[0] - target, kappa, h=1e-6)
        worst_rel = max(worst_rel, np.abs(jac - J_fd).max() / np.abs(J_fd).max())
    assert worst_rel < 1e-5

    qs = [random_unit_quat(rng)]
    for _ in range(11):
        qs.append(quat_normalize(quat_mul(qs[-1], rotvec_to_quat(rng.normal(0, 0.3, 3)))))
    bent = RodState(1.5, np.array(qs), np.zeros(3), 1.0, np.zeros((11, 3)))
    res = relax(bent)
    assert res.energy < 1e-10

    q0 = np.array([1.0, 0.0, 0.0, 0.0])
    q1 = rotvec_to_quat([np.pi / 4, 0.0, 0.0])
    single = RodState(1.0, np.array([q0, q1]), np.zeros(3), 2.0, np.zeros((1, 3)))
    closed_form = np.pi ** 2 / 16.0
    assert abs(bending_energy(single) - closed_form) < 1e-12
    _report(6, "rod-model", f"tip Jacobian rel err {worst_rel:.2e}, relaxed energy "
            f"{res.energy:.2e}, single joint |dE| "
            f"{abs(bending_energy(single) - closed_form):.2e}")


def test_criterion_7_spherical_round_trip():
    from stereowire.spherical import decode_chain, encode_chain, resample_uniform_spacing
    from conftest import random_rotation
    rng = np.random.default_rng(107)
    worst_rt = 0.0
    worst_eq = 0.0
    for _ in range(100):
        t = np.linspace(0.0, 1.0, 300)
        a, b = rng.uniform(1.0, 3.0, 2)
        curve = np.column_stack([
            25.0 * np.sin(a * 2 * np.pi * t),
            25.0 * np.cos(b * 2 * np.pi * t),
            70.0 * t,
        ])
        pts = resample_uniform_spacing(curve, 2.0)
        back = decode_chain(encode_chain(pts))
        worst_rt = max(worst_rt, np.abs(back - pts).max())
        R = random_rotation(rng)
        tr = rng.normal(0.0, 30.0, 3)
        moved = decode_chain(encode_chain(pts @ R.T + tr))
        worst_eq = max(worst_eq, np.abs(moved - (back @ R.T + tr)).max())
    assert worst_rt < 1e-9
    assert worst_eq < 1e-9
    _report(7, "spherical-round-trip", f"round trip {worst_rt:.2e} mm, "
            f"equivariance {worst_eq:.2e} mm")


def test_criterion_8_metrics():
    rng = np.random.default_rng(108)
    seqs = []
    for _ in range(7):
        n = int(rng.integers(2, 17))
        seqs.append(np.cumsum(rng.normal(size=(n, 3)), axis=0) * 2)
    for P in seqs:
        for Q in seqs:
            assert discrete_frechet(P, Q) == frechet_memo_oracle(P, Q)

    fast = Episode(tip_positions=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                   forces=np.zeros((0, 3)), goal=np.zeros(3), success=True)
    slow = Episode(tip_positions=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 2.0, 0.0]]),
                   forces=np.zeros((0, 3)), goal=np.zeros(3), success=True)
    em = episode_metrics([slow, fast])
    assert em.spl == 0.75

    assert reward([8.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == 10.0

    calm = Episode(tip_positions=np.zeros((4, 3)), forces=np.full((4, 3), 0.1),
                   goal=np.zeros(3), success=True)
    rough = Episode(tip_positions=np.zeros((4, 3)), forces=np.full((4, 3), 3.0),
                    goal=np.zeros(3), success=True)
    em2 = episode_metrics([calm, rough])
    assert em2.safety[0] == 1.0 and em2.safety[1] == 0.0
    _report(8, "metrics", "frechet == memo oracle on all pairs, SPL 0.75 exact, "
            "reward boundary 10, safety endpoints {0,1}")


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    artifacts = ("camera_a.json", "camera_b.json", "truth_curve.json",
                 "annotation_a.json", "annotation_b.json", "report.json", "metrics.csv")

    def run(root):
        out = root / "work"
        assert main(["synth", "--out", str(out), "--seed", "11", "--noise-px", "0.5"]) == 0
        assert main(["reconstruct",
                     "--camera-a", str(out / "camera_a.json"),
                     "--camera-b", str(out / "camera_b.json"),
                     "--annotations", str(out / "annotation_a.json"),
                     str(out / "annotation_b.json"),
                     "--out", str(out / "report.json")]) == 0
        report = swio.load_report(out / "report.json")
        swio.save_curve(report["curve"], out / "pred.json")
        assert main(["evaluate", str(out / "pred.json"), str(out / "truth_curve.json")]) == 0
        (out / "metrics.csv").write_text(capsys.readouterr().out)
        return out

    out1 = run(tmp_path / "run1")
    out2 = run(tmp_path / "run2")
    for name in artifacts:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    _report(9, "pipeline-determinism", f"{len(artifacts)} artifacts byte-identical")
