import argparse
import json
import math
import os
import random
import re
import shlex
import stat
import struct
from pathlib import Path

import numpy as np
import pytest

import stereowire.io as swio
from stereowire.bspline import eval_curve_many, fit_curve, parameterize_arclength, sample_uniform
from stereowire import rod
from stereowire.cli import MAX_SIZE, _validate, build_parser, main
from stereowire.errors import ParseError, SchemaMismatch, StereowireError
from stereowire.metrics import Episode, curve_metrics
from stereowire.rig import default_rig
from stereowire.rod import straight_rod, synth_guidewire

README = Path(__file__).resolve().parent.parent / "README.md"


# ------------------------------------------------------------- schemas

def test_camera_round_trip(tmp_path):
    cam, _ = default_rig()
    path = tmp_path / "cam.json"
    swio.save_camera(cam, path)
    back = swio.load_camera(path)
    assert np.array_equal(back.P, cam.P)
    assert back.image_size == cam.image_size


def test_camera_unknown_field_named(tmp_path):
    path = tmp_path / "cam.json"
    path.write_text(json.dumps({"P": np.eye(3, 4).tolist(),
                                "image_size": [10, 10], "focal": 3}))
    with pytest.raises(ParseError, match="focal"):
        swio.load_camera(path)


def test_camera_missing_field(tmp_path):
    path = tmp_path / "cam.json"
    path.write_text(json.dumps({"P": np.eye(3, 4).tolist()}))
    with pytest.raises(ParseError, match="image_size"):
        swio.load_camera(path)


def test_curve_round_trip(tmp_path, rng):
    curve = fit_curve(np.cumsum(rng.normal(size=(10, 3)), axis=0))
    path = tmp_path / "curve.json"
    swio.save_curve(curve, path)
    back = swio.load_curve(path)
    assert back.degree == 3
    assert np.allclose(back.control_points, curve.control_points, rtol=1e-8)


def test_annotation_requires_two_points(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({"frame": 0, "camera": "A", "points": [[1.0, 2.0]]}))
    with pytest.raises(ParseError):
        swio.load_annotation(path)


def test_annotation_bad_camera_name(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps({"frame": 0, "camera": "C",
                                "points": [[1.0, 2.0], [3.0, 4.0]]}))
    with pytest.raises(ParseError, match="camera"):
        swio.load_annotation(path)


def test_episode_round_trip(tmp_path, rng):
    eps = [Episode(tip_positions=rng.normal(size=(5, 3)),
                   forces=rng.normal(size=(5, 3)),
                   goal=rng.normal(size=3), success=True)]
    path = tmp_path / "ep.json"
    swio.save_episodes(eps, path)
    back = swio.load_episodes(path)
    assert len(back) == 1
    assert back[0].success
    assert np.allclose(back[0].tip_positions, eps[0].tip_positions, rtol=1e-8)


def test_episode_max_steps_round_trip(tmp_path):
    ep = Episode(tip_positions=np.zeros((2, 3)), forces=np.zeros((0, 3)),
                 goal=np.ones(3), success=False, max_steps=7)
    path = tmp_path / "ep.json"
    swio.save_episodes([ep], path)
    assert json.loads(path.read_text())[0]["max_steps"] == 7
    back = swio.load_episodes(path)[0]
    assert back.max_steps == 7 and back.success is False


def test_schema_mismatch_curve_vs_episode(tmp_path, rng):
    curve = fit_curve(np.cumsum(rng.normal(size=(6, 3)), axis=0))
    cpath = tmp_path / "curve.json"
    swio.save_curve(curve, cpath)
    with pytest.raises(SchemaMismatch):
        swio.load_episodes(cpath)
    eps = [Episode(tip_positions=np.zeros((2, 3)), forces=np.zeros((0, 3)),
                   goal=np.zeros(3), success=False)]
    epath = tmp_path / "ep.json"
    swio.save_episodes([eps[0]], epath)
    path_single = tmp_path / "single.json"
    swio.dump_json(swio.episode_to_dict(eps[0]), path_single)
    with pytest.raises(SchemaMismatch):
        swio.load_curve(path_single)


def test_float_formatting_nine_significant_digits():
    assert swio.format_float(np.pi) == float(f"{np.pi:.9g}")
    assert swio.format_float(0.1) == 0.1
    assert swio.format_float(123456789012.0) == 1.23456789e11


def _tokens_in_place(obj, tokens):
    """obj with each float, in lists, tuples and dict values, replaced by a
    string naming its place in tokens, which collects each float's '%.9g'
    token; dict keys are left to json's own key conversion."""
    if isinstance(obj, float):
        tokens.append("%.9g" % obj)
        return f"<float {len(tokens) - 1}>"
    if isinstance(obj, dict):
        return {k: _tokens_in_place(v, tokens) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tokens_in_place(v, tokens) for v in obj]
    return obj


def oracle_json(obj) -> str:
    """The writer's reference: json's own indent=2 layout, each float written
    as its '%.9g' token."""
    tokens = []
    text = json.dumps(_tokens_in_place(obj, tokens), indent=2) + "\n"
    return re.sub(r'"<float (\d+)>"', lambda m: tokens[int(m.group(1))], text)


def _rounded(obj):
    """obj as json.loads should read it back: each float at its 9-digit rounding."""
    if isinstance(obj, float):
        return swio.format_float(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    return obj


def assert_written_as_the_oracle(obj, path, listed=None):
    """dump_json(obj) writes the oracle's text for listed (obj with its arrays
    as lists), and json.loads of that text gives each float's 9-digit rounding,
    an integer token counting when it equals the rounding."""
    listed = obj if listed is None else listed
    swio.dump_json(obj, path)
    text = path.read_text()
    assert text == oracle_json(listed), obj
    if not isinstance(listed, dict) or all(isinstance(k, str) for k in listed):
        assert json.loads(text) == _rounded(listed), obj


EDGE_FLOATS = [
    0.0, -0.0, 1.0, -3.0, 100.0, 123456789.0, 5e-324, -5e-324, 1e-310,
    2.2250738585072014e-308, 2.225073858507201e-308, 1e-308, 1e-4, 1e-5, 0.1,
    1e9, 1.5e12, 1e15, 1e16, 9.9999999951e15, 1.7976931348623157e308,
    -1.7976931348623157e308, 999999999.5, 9.9999999951e-5, 99999999.95,
]


def _random_float(rng):
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(EDGE_FLOATS)
    if pick < 0.5:  # any finite bit pattern, subnormals included
        while True:
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if np.isfinite(x):
                return x
    if pick < 0.7:
        return float(rng.randint(-10**9, 10**9)) * 10.0 ** rng.randint(-12, 18)
    return rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-330.0, 308.0)


def _random_object(rng, depth=0):
    pick = rng.random()
    if depth > 3 or pick < 0.3:
        return rng.choice([_random_float(rng), _random_float(rng), rng.randint(-9, 9),
                           True, False, None, "tip", "µ", np.float64(_random_float(rng))])
    if pick < 0.5:
        return [_random_float(rng) for _ in range(rng.randint(0, 8))]
    if pick < 0.65:
        width = rng.randint(0, 4)
        return [[_random_float(rng) for _ in range(width)] for _ in range(rng.randint(0, 5))]
    if pick < 0.8:
        return [_random_object(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {f"k{i}": _random_object(rng, depth + 1) for i in range(rng.randint(0, 4))}


def _random_array(rng, shape):
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 308, size=shape)
    integral = rng.random(shape) < 0.2
    values[integral] = rng.integers(-10**9, 10**9, size=integral.sum()) * 1.0
    values[rng.random(shape) < 0.05] = -0.0
    return values


ARRAY_SHAPES = [(1,), (300,), (1, 1), (64, 2), (200, 3), (5, 7)]


def _switch_values():
    """Floats on both sides of each bound at which a '%.9g' token changes form:
    magnitudes 1e-4 and 1e9 (exponent form below and from there) and
    99999999; integers scaled by 1 +- 1e-9 and 1 +- 4.5e-9 (whose token may
    drop the point) or by 1 +- 2e-8 and 1 +- 1e-7 (whose token keeps it);
    -0.0 and subnormals."""
    bounds = [1e-4, 99999999.0, 1e9]
    near = [np.nextafter(b, to) for b in bounds for to in (0.0, np.inf)]
    ints = [1.0, 3.0, 7.0, 100.0, 12345.0, 1234567.0, 50000000.0]
    factors = (1e-9, 4.5e-9, 1e-8, 2e-8, 1e-7)
    scaled = [k * (1.0 + s * f) for k in ints for f in factors for s in (-1.0, 1.0)]
    values = bounds + near + ints + scaled + [0.5, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
    return [v for x in values for v in (x, -x)]


def test_dump_json_writes_the_oracles_bytes(tmp_path, rng):
    seeded = random.Random(7)
    objects = [_random_object(seeded) for _ in range(3000)]
    objects += [{"values": _random_array(rng, shape).tolist()} for shape in ARRAY_SHAPES]
    objects += [EDGE_FLOATS, [[x, -x] for x in EDGE_FLOATS], {"P": [EDGE_FLOATS[:4]] * 3},
                [[1.0, 2.0], [3.0]], [[], []], ([0.5, 2.0], (1.5, 2.5)),
                {1.5: [2.0], 3: None, True: "x", None: -0.0}, 0.0, -0.0, 123456789000.0]
    path = tmp_path / "x.json"
    for obj in objects:
        assert_written_as_the_oracle(obj, path)
    # float64 arrays, each written alone and nested two levels down
    switch = np.array(_switch_values())
    arrays = [_random_array(rng, shape) for shape in ARRAY_SHAPES]
    arrays += [np.zeros(0), np.zeros((0, 3)), np.zeros((2, 0)), np.array(EDGE_FLOATS),
               np.array([[x, -x] for x in EDGE_FLOATS]), np.array([EDGE_FLOATS[:4]] * 3),
               switch, switch.reshape(-1, 2), switch.reshape(-1, 1)]
    arrays += [switch[i:i + 1] for i in range(len(switch))]
    arrays += [np.array([[0.5, x], [x, 0.25]]) for x in switch]
    for arr in arrays:
        for obj, listed in ((arr, arr.tolist()), ({"x": [arr]}, {"x": [arr.tolist()]})):
            assert_written_as_the_oracle(obj, path, listed)
    # the tokens stdout prints: an integral float loses its point
    swio.dump_json([0.0, 1.0, 123456789000.0, 0.25], path)
    assert path.read_text() == "[\n  0,\n  1,\n  1.23456789e+11,\n  0.25\n]\n"


def test_every_float_array_the_commands_write_takes_the_one_pass(tmp_path, monkeypatch, capsys):
    # the file writers hand _encode float64 ndarrays, never lists of floats
    seen, passed = [], []
    encode, float_array = swio._encode, swio._float_array

    def spy_encode(obj, pad):
        seen.append(obj)
        return encode(obj, pad)

    def spy_float_array(arr, pad):
        passed.append(arr)
        return float_array(arr, pad)

    monkeypatch.setattr(swio, "_encode", spy_encode)
    monkeypatch.setattr(swio, "_float_array", spy_float_array)
    out = tmp_path / "synth"
    assert main(["synth", "--out", str(out), "--seed", "3", "--noise-px", "0.5"]) == 0
    assert main(["reconstruct", "--camera-a", str(out / "camera_a.json"),
                 "--camera-b", str(out / "camera_b.json"),
                 "--annotations", str(out / "annotation_a.json"), str(out / "annotation_b.json"),
                 "--out", str(tmp_path / "report.json")]) == 0
    assert main(["relax", "--out", str(tmp_path / "relaxed.json"), "--n-segments", "30",
                 "--tip-angle", "0.8", "--seed", "4", "--tip-target", "10.0,0.0,50.0"]) == 0
    tips = synth_guidewire(12, 1.0, 0.6, 2)
    swio.save_episodes([Episode(tip_positions=tips, forces=np.full_like(tips, 0.25),
                                goal=tips[-1], success=True, max_steps=20),
                        Episode(tip_positions=tips[:1], forces=np.zeros((0, 3)),
                                goal=tips[0], success=False)], tmp_path / "episodes.json")
    capsys.readouterr()
    arrays = [obj for obj in seen if type(obj) is np.ndarray and obj.dtype == np.float64]
    # P of two cameras, two annotations' points, knots and control points of
    # three curves, tip, forces and goal of two episodes
    assert len(arrays) == 2 + 2 + 6 + 6
    assert [id(a) for a in arrays] == [id(a) for a in passed]
    float_lists = [obj for obj in seen if isinstance(obj, (list, tuple)) and obj
                   and all(isinstance(v, float) for v in obj)]
    assert float_lists == []


# ------------------------------------------------------------- synth command

def synth_dir(tmp_path, seed=0, noise=0.0, extra=()):
    out = tmp_path / f"synth_{seed}_{noise}"
    rc = main(["synth", "--out", str(out), "--seed", str(seed),
               "--noise-px", str(noise), *extra])
    assert rc == 0
    return out


def test_default_rig_is_built_once_as_synth_writes_it(tmp_path):
    assert default_rig() is default_rig()
    out = synth_dir(tmp_path)
    for cam, view in zip(default_rig(), "ab"):
        written = swio.load_camera(out / f"camera_{view}.json")
        assert written.P.tobytes() == cam.P.tobytes()
        assert written.image_size == cam.image_size


def test_synth_writes_all_artifacts(tmp_path):
    out = synth_dir(tmp_path)
    for name in ("camera_a.json", "camera_b.json", "truth_curve.json",
                 "annotation_a.json", "annotation_b.json"):
        assert (out / name).exists()


def test_synth_deterministic_bytes(tmp_path):
    a = synth_dir(tmp_path / "a", seed=5, noise=0.7)
    b = synth_dir(tmp_path / "b", seed=5, noise=0.7)
    for name in ("camera_a.json", "camera_b.json", "truth_curve.json",
                 "annotation_a.json", "annotation_b.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_annotations_inside_frame(tmp_path):
    out = synth_dir(tmp_path)
    for name in ("annotation_a.json", "annotation_b.json"):
        _, _, pts = swio.load_annotation(out / name)
        assert pts.min() >= 0.0
        assert pts.max() <= 1024.0


def test_synth_truth_matches_library_wire(tmp_path):
    # the written ground truth is the spline through the synth wire, whose
    # joint spacing is the segment length by construction
    out = synth_dir(tmp_path, seed=12)
    wire = synth_guidewire(50, 2.0, 1.0, seed=12)
    seg = np.linalg.norm(np.diff(wire, axis=0), axis=1)
    assert np.abs(seg - 2.0).max() < 1e-9
    rot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    oriented = (wire @ rot.T)[::-1]
    oriented -= oriented.mean(axis=0)
    truth = swio.load_curve(out / "truth_curve.json")
    u = parameterize_arclength(oriented)
    d = np.linalg.norm(eval_curve_many(truth, u) - oriented, axis=1)
    assert d.max() < 1e-3  # truth interpolates a resampling of this wire


# ------------------------------------------------------------- reconstruct command

def test_reconstruct_round_trip(tmp_path, capsys):
    out = synth_dir(tmp_path)
    report_path = tmp_path / "report.json"
    rc = main(["reconstruct", "--camera-a", str(out / "camera_a.json"),
               "--camera-b", str(out / "camera_b.json"),
               "--annotations", str(out / "annotation_a.json"), str(out / "annotation_b.json"),
               "--out", str(report_path)])
    assert rc == 0
    report = swio.load_report(report_path)
    assert report["accepted"] is True
    assert report["mean_reproj_px"] < 1e-4


def test_reconstruct_single_point_annotation_fails(tmp_path):
    out = synth_dir(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"frame": 0, "camera": "A", "points": [[5.0, 5.0]]}))
    rc = main(["reconstruct", "--camera-a", str(out / "camera_a.json"),
               "--camera-b", str(out / "camera_b.json"),
               "--annotations", str(bad), str(out / "annotation_b.json"),
               "--out", str(tmp_path / "r.json")])
    assert rc != 0


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_reconstruct_overflowing_annotation_single_line_error(tmp_path, capsys):
    # 1e308 is finite, so the file parses, but the polyline length overflows
    out = synth_dir(tmp_path)
    ann = json.loads((out / "annotation_a.json").read_text())
    ann["points"][3][0] = 1e308
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(ann))
    capsys.readouterr()
    rc = main(["reconstruct", "--camera-a", str(out / "camera_a.json"),
               "--camera-b", str(out / "camera_b.json"),
               "--annotations", str(bad), str(out / "annotation_b.json"),
               "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "not finite" in err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("edit,message", [
    ({"camera": "A"}, "annotations must cover cameras 'A' and 'B'"),
    ({"frame": 1}, "annotation frames differ: 0 vs 1"),
])
def test_reconstruct_refuses_unpaired_annotations(tmp_path, capsys, edit, message):
    out = synth_dir(tmp_path)
    ann = json.loads((out / "annotation_b.json").read_text())
    ann.update(edit)
    bad = tmp_path / "unpaired.json"
    bad.write_text(json.dumps(ann))
    report = tmp_path / "r.json"
    capsys.readouterr()
    rc = main(["reconstruct", "--camera-a", str(out / "camera_a.json"),
               "--camera-b", str(out / "camera_b.json"),
               "--annotations", str(out / "annotation_a.json"), str(bad),
               "--out", str(report)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


@pytest.mark.parametrize("scale_a, scale_b", [(1e300, 1.0), (1e-300, 1.0), (1e200, 1e200)],
                         ids=["a-1e300", "a-1e-300", "both-1e200"])
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_reconstruct_with_rescaled_cameras_accepts_the_frame(tmp_path, capsys, scale_a, scale_b):
    # P * s is the same projective camera: the frame is accepted, with the
    # unscaled frame's curve, though the squares of these P's entries over-
    # or underflow
    out = synth_dir(tmp_path, seed=3, noise=1.0)
    argv = ["--annotations", str(out / "annotation_a.json"), str(out / "annotation_b.json")]
    assert main(["reconstruct", "--camera-a", str(out / "camera_a.json"),
                 "--camera-b", str(out / "camera_b.json"), *argv, "--out", str(tmp_path / "r.json")]) == 0
    for view, scale in (("a", scale_a), ("b", scale_b)):
        cam = json.loads((out / f"camera_{view}.json").read_text())
        cam["P"] = [[v * scale for v in row] for row in cam["P"]]
        (tmp_path / f"scaled_{view}.json").write_text(json.dumps(cam))
    capsys.readouterr()
    rc = main(["reconstruct", "--camera-a", str(tmp_path / "scaled_a.json"),
               "--camera-b", str(tmp_path / "scaled_b.json"), *argv, "--out", str(tmp_path / "s.json")])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out.startswith("frame 0: accepted=True ") and len(captured.out.splitlines()) == 1
    want, got = (swio.load_report(tmp_path / name) for name in ("r.json", "s.json"))
    assert np.array_equal(got["curve"].knots, want["curve"].knots)
    # the reports hold 9 significant digits of curves within 1e-12 mm of each other
    assert np.abs(got["curve"].control_points - want["curve"].control_points).max() < 1e-6


def test_reconstruct_swapped_cameras_corrupts_result(tmp_path):
    # Swapped camera files cannot be caught by the reprojection gate: the
    # matcher enforces epipolar consistency for whatever camera pair it is
    # given, so the swapped run triangulates a phantom curve whose
    # reprojections land back on both annotation splines. The mismatch is
    # still fatal: the phantom is millimetres away from the truth, versus
    # micrometre agreement for the correct pairing.
    from stereowire.metrics import curve_metrics
    from stereowire.rig import _camera_at_yaw
    cam_a = _camera_at_yaw(-np.pi / 6, 1500.0, (1024, 1024), 300.0)
    cam_b = _camera_at_yaw(np.pi / 9, 1650.0, (1024, 1024), 330.0)
    swio.save_camera(cam_a, tmp_path / "cam_a.json")
    swio.save_camera(cam_b, tmp_path / "cam_b.json")
    out = tmp_path / "synth"
    rc = main(["synth", "--out", str(out), "--seed", "1",
               "--camera-a", str(tmp_path / "cam_a.json"),
               "--camera-b", str(tmp_path / "cam_b.json")])
    assert rc == 0
    truth = swio.load_curve(out / "truth_curve.json")

    def reconstruct(cam_a_file, cam_b_file, report):
        return main(["reconstruct", "--camera-a", str(cam_a_file),
                     "--camera-b", str(cam_b_file),
                     "--annotations", str(out / "annotation_a.json"),
                     str(out / "annotation_b.json"), "--out", str(report)])

    assert reconstruct(out / "camera_a.json", out / "camera_b.json",
                       tmp_path / "good.json") == 0
    good = swio.load_report(tmp_path / "good.json")
    assert curve_metrics(good["curve"], truth).max_ed < 1e-3

    rc = reconstruct(out / "camera_b.json", out / "camera_a.json", tmp_path / "swap.json")
    if rc != 0:
        return  # NoMatches: the swap was rejected outright
    swapped = swio.load_report(tmp_path / "swap.json")
    if swapped["accepted"]:
        assert curve_metrics(swapped["curve"], truth).max_ed > 1.0
    # accepted=False would also be a rejection


def reconstruct_both_ways(tmp_path, seed, noise):
    """MaxED of a synth frame's (A, B) reconstruction to truth, and of (B, A) to (A, B)."""
    out = synth_dir(tmp_path, seed=seed, noise=noise)
    # view B's annotation relabelled as view A's, and the reverse
    for src, dst, camera in (("annotation_b.json", "swap_a.json", "A"),
                             ("annotation_a.json", "swap_b.json", "B")):
        obj = json.loads((out / src).read_text())
        obj["camera"] = camera
        (out / dst).write_text(json.dumps(obj))

    def reconstruct(cam_a, cam_b, ann_a, ann_b):
        report = out / "report.json"
        assert main(["reconstruct", "--camera-a", str(out / cam_a), "--camera-b", str(out / cam_b),
                     "--annotations", str(out / ann_a), str(out / ann_b),
                     "--out", str(report)]) == 0
        return swio.load_report(report)["curve"]

    ab = reconstruct("camera_a.json", "camera_b.json", "annotation_a.json", "annotation_b.json")
    ba = reconstruct("camera_b.json", "camera_a.json", "swap_a.json", "swap_b.json")
    truth = swio.load_curve(out / "truth_curve.json")
    return curve_metrics(ab, truth).max_ed, curve_metrics(ba, ab).max_ed


def test_noiseless_round_trip_every_seed_and_view_order(tmp_path):
    # the end samples: each view's end point lies on the epiline of the
    # other's only to the precision pixels are written with
    for seed in range(10):
        to_truth, swap = reconstruct_both_ways(tmp_path, seed, 0.0)
        assert to_truth < 0.01, seed
        assert swap < 0.01, seed


def test_view_swap_moves_one_px_reconstruction_little(tmp_path):
    # at 1 px the end sample one direction gap-fills is the one the other
    # matches, which moves the curve by 0.68-0.93 mm over these seeds
    for seed in range(10):
        _, swap = reconstruct_both_ways(tmp_path, seed, 1.0)
        assert swap < 1.25, seed


# ------------------------------------------------------------- evaluate command

def test_evaluate_identical_curves_all_zero(tmp_path, capsys):
    out = synth_dir(tmp_path)
    rc = main(["evaluate", str(out / "truth_curve.json"), str(out / "truth_curve.json")])
    assert rc == 0
    got = capsys.readouterr().out.strip().splitlines()
    assert got[0] == "max_ed_mm,mete_mm,mers_mm,frechet_mm"
    assert got[1] == "0,0,0,0"


def test_evaluate_reads_the_report_reconstruct_writes(tmp_path, capsys):
    out = synth_dir(tmp_path, seed=3, noise=1.0)
    report = out / "report.json"
    assert main(["reconstruct", "--camera-a", str(out / "camera_a.json"),
                 "--camera-b", str(out / "camera_b.json"),
                 "--annotations", str(out / "annotation_a.json"), str(out / "annotation_b.json"),
                 "--out", str(report)]) == 0
    (out / "pred_curve.json").write_text(json.dumps(json.loads(report.read_text())["curve"]))
    capsys.readouterr()
    assert main(["evaluate", str(report), str(out / "truth_curve.json")]) == 0
    from_report = capsys.readouterr().out
    assert main(["evaluate", str(out / "pred_curve.json"), str(out / "truth_curve.json")]) == 0
    assert from_report == capsys.readouterr().out
    assert from_report.splitlines()[0] == "max_ed_mm,mete_mm,mers_mm,frechet_mm"


@pytest.mark.parametrize("kind", ["curve", "report"])
def test_evaluate_refuses_curves_of_different_dimension(tmp_path, capsys, kind):
    out = synth_dir(tmp_path, seed=3, noise=1.0)
    curve = json.loads((out / "truth_curve.json").read_text())
    curve["control_points"] = [p[:2] for p in curve["control_points"]]
    if kind == "report":
        curve = {"frame": 0, "accepted": True, "mean_reproj_px": 0.0, "curve": curve}
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(curve))
    capsys.readouterr()
    assert main(["evaluate", str(flat), str(out / "truth_curve.json")]) == 1
    assert capsys.readouterr() == ("", "error: cannot compare a 2D curve with a 3D one\n")


def readme_flow() -> list[list[str]]:
    """The README's synth command and its reconstruct-and-evaluate block, as argv."""
    blocks = re.findall(r"```sh\n(stereowire (?:synth|reconstruct) .*?)```",
                        README.read_text(), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip()]


def test_readme_reconstruct_and_evaluate_flow_runs_as_written(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the relative data/ paths
    flow = readme_flow()
    assert [argv[0] for argv in flow] == ["synth", "reconstruct", "evaluate"]
    for argv in flow:
        capsys.readouterr()
        assert main(argv) == 0, argv
    header, row = capsys.readouterr().out.splitlines()
    assert header == "max_ed_mm,mete_mm,mers_mm,frechet_mm"
    assert all(math.isfinite(float(v)) for v in row.split(",")) and row.count(",") == 3


def test_readme_library_example_runs_as_written(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    scope: dict = {}
    exec(block, scope)
    accepted, _ = capsys.readouterr().out.splitlines()[0].split()
    assert accepted == "True"
    # the README's wire as synth_guidewire returns it, base first: its tip is the last point
    wire = synth_guidewire(n_segments=50, segment_length=2.0, tip_angle=1.0, seed=7)
    tip = wire[-1] - wire.mean(axis=0)
    assert np.abs(sample_uniform(scope["truth"], 64)[1][0] - tip).max() < 1e-9


def test_evaluate_episode_single_step(tmp_path, capsys):
    ep = Episode(tip_positions=np.array([[1.0, 2.0, 3.0]]), forces=np.zeros((0, 3)),
                 goal=np.zeros(3), success=True)
    path = tmp_path / "ep.json"
    swio.save_episodes([ep], path)
    rc = main(["evaluate", str(path)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "episode,path_length_mm,safety,f_max_N,f_mean_N,spl"
    cells = lines[1].split(",")
    assert float(cells[1]) == 0.0   # path length
    assert float(cells[2]) == 1.0   # safety with no force rows
    assert float(cells[5]) == 1.0   # spl: stationary success counts as optimal


@pytest.mark.parametrize("files, message", [
    (["c.json", "c.json", "c.json"], "evaluate takes PRED TRUTH curve or report files"),
    (["yes.json"], "success must be a boolean"),
    (["empty.json"], "empty episode list"),
    (["far.json"], "not finite"),  # the path length overflows
    (["strong.json"], "not finite"),  # the force magnitude overflows
    (["no-tip.json"], "tip: expected Nx3 numbers, got shape (0,)"),
    (["short-forces.json"], "forces must be empty or match the tip track length"),
    (["c1.json", "c.json"], "control points must be 2D or 3D"),
    (["c.json", "c4.json"], "control points must be 2D or 3D"),
], ids=["three-files", "success-not-boolean", "empty-episode-list", "huge-path", "huge-force",
        "no-tip", "short-forces", "1d-curve", "4d-curve"])
def test_evaluate_refusals_name_the_cause(tmp_path, capsys, monkeypatch, files, message):
    monkeypatch.chdir(tmp_path)
    ep = {"tip": [[0.0, 0.0, 0.0]], "forces": [], "goal": [1.0, 0.0, 0.0], "success": "yes"}
    Path("yes.json").write_text(json.dumps([ep]))
    Path("no-tip.json").write_text(json.dumps({**ep, "tip": [], "success": True}))
    short = {**ep, "tip": [[0.0] * 3] * 2, "forces": [[0.0] * 3], "success": True}
    Path("short-forces.json").write_text(json.dumps(short))
    far = {**ep, "tip": [[1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]], "success": True}
    Path("far.json").write_text(json.dumps([far]))
    strong = {**far, "tip": np.eye(2, 3).tolist(), "forces": [[1e200, 1e200, 0.0], [0.0] * 3]}
    Path("strong.json").write_text(json.dumps([strong]))
    Path("empty.json").write_text("[]")
    swio.save_curve(fit_curve(np.eye(4, 3)), "c.json")
    for dim in (1, 4):
        curve = {**json.loads(Path("c.json").read_text()), "control_points": np.eye(4, dim).tolist()}
        Path(f"c{dim}.json").write_text(json.dumps(curve))
    assert main(["evaluate", *files]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1
    assert captured.out == ""


def test_evaluate_schema_mismatch_exits_nonzero(tmp_path, capsys):
    out = synth_dir(tmp_path)
    rc = main(["evaluate", str(out / "truth_curve.json")])  # curve in episode slot
    assert rc != 0
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- relax command

def test_relax_command_writes_curve(tmp_path, capsys):
    path = tmp_path / "relaxed.json"
    rc = main(["relax", "--out", str(path), "--n-segments", "12",
               "--segment-length", "1.0", "--tip-angle", "0.6", "--seed", "4"])
    assert rc == 0
    curve = swio.load_curve(path)
    assert curve.dim == 3
    assert "energy=" in capsys.readouterr().out


def test_relax_command_with_tip_target(tmp_path, capsys):
    path = tmp_path / "pinned.json"
    rc = main(["relax", "--out", str(path), "--n-segments", "8",
               "--segment-length", "1.0", "--tip-target", "1.0,0.0,6.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tip_residual_mm=" in out


def test_relax_command_takes_a_negative_pin_in_the_equals_form(tmp_path, capsys):
    # argparse reads a separate '-1.0,...' as a flag; '--tip-target=' carries it
    rc = main(["relax", "--out", str(tmp_path / "pinned.json"), "--n-segments", "8",
               "--segment-length", "1.0", "--tip-target=-1.0,0.0,6.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True" in out and float(out.split("tip_residual_mm=")[1]) < 1e-9


@pytest.mark.parametrize("target", ["nan,0,0", "0,inf,0", "0,0,-inf"])
def test_relax_command_rejects_non_finite_tip_target(tmp_path, capsys, target):
    rc = main(["relax", "--out", str(tmp_path / "pinned.json"), "--n-segments", "8",
               "--tip-target", target])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "finite" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "pinned.json").exists()


def test_relax_command_readme_example_converges(tmp_path, capsys):
    rc = main(["relax", "--out", str(tmp_path / "relaxed.json"), "--n-segments", "30",
               "--tip-angle", "0.8", "--seed", "4", "--tip-target", "10.0,0.0,50.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert float(out.split("tip_residual_mm=")[1]) < 1e-9


def test_relax_command_large_rod_pin_converges(tmp_path, capsys):
    # the README pin at 1e7 mm segments: its tip rounds to about 2.9e-6 mm,
    # above GRAD_TOL, so a pin met within that rounding is met
    rc = main(["relax", "--out", str(tmp_path / "q.json"), "--segment-length", "1e7",
               "--n-segments", "30", "--tip-angle", "0.8", "--seed", "4",
               "--tip-target", "5e7,0,2.5e8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert float(out.split("tip_residual_mm=")[1]) < 2.9e-6


def readme_relax_example() -> tuple[list[str], str]:
    """The README's relax command as argv, and the line it documents as its output."""
    text = README.read_text()
    command = re.search(r"```sh\n(stereowire relax .*?)\n```\n", text, re.S).group(1)
    line = re.search(r"```\n(energy=.*)\n```", text[text.index(command):]).group(1)
    return shlex.split(command.replace("\\\n", " "))[1:], line


def test_relax_command_prints_the_readme_line(tmp_path, capsys, monkeypatch):
    argv, line = readme_relax_example()
    monkeypatch.chdir(tmp_path)  # the relative --out path
    assert main(argv) == 0
    assert capsys.readouterr().out == line + "\n"


def test_relax_curve_is_written_tip_first(tmp_path, capsys, monkeypatch):
    # as synth stores its wire: sample 0 at the pin, the last sample at the base
    argv, _ = readme_relax_example()
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "c.json"]) == 0
    pin = np.array([float(v) for v in argv[argv.index("--tip-target") + 1].split(",")])
    _, ends = sample_uniform(swio.load_curve(tmp_path / "c.json"), 2)
    assert np.max(np.abs(ends[0] - pin)) <= 1e-9
    assert np.max(np.abs(ends[1] - straight_rod(30, 2.0).centerline()[0])) <= 1e-9


# ------------------------------------------------------------- exit contract

@pytest.mark.parametrize("argv", [
    ["reconstruct", "--camera-a", "a.json", "--camera-b", "b.json",
     "--annotations", "x.json", "y.json", "--out", "r.json", "--samples", "abc"],
    ["relax", "--n-segments", "8"],  # --out is required
    ["frobnicate"],
    ["synth", "--out", "w", "--noise-px", "inf"],
    ["synth", "--out", "w", "--noise-px", "1e308"],  # finite, but the noisy pixels are not
    ["relax", "--out", "c.json", "--tip-angle", "inf"],
    ["synth", "--out", "w", "--tip-angle", "1e200"],  # finite, but its joint bend is not below pi
    ["relax", "--out", "c.json", "--stiffness", "inf"],
    ["relax", "--out", "c.json", "--segment-length", "inf"],
    ["relax", "--out", "c.json", "--segment-length", "1e308"],  # finite, but the rod is not
    ["relax", "--out", "c.json", "--segment-length", "1e306", "--tip-target", "1e306,0,1e307"],
    ["synth", "--out", "w", "--stiffness", "2"],  # the rod has no stiffness
    ["relax", "--out", "c.json", "--stiffness", "2"],
], ids=["bad-int", "missing-flag", "unknown-command", "inf-noise", "huge-noise", "inf-tip-angle",
        "huge-tip-angle", "inf-stiffness", "inf-segment-length", "huge-segment-length",
        "huge-pinned-rod", "synth-stiffness", "relax-stiffness"])
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_flag_errors_print_one_line(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the relative --out paths
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not (tmp_path / "w").exists()  # a refused synth creates no --out directory


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "w", "--segment-length", "1e6"],
    ["relax", "--out", "c.json", "--segment-length", "1e6", "--tip-angle", "1"],
], ids=["synth", "relax"])
@pytest.mark.filterwarnings("error")
def test_large_wires_are_fitted(argv, capsys, tmp_path, monkeypatch):
    # a 5e7 mm wire interpolates its vertices to ~1e-16 of their size, not to 1e-9 mm
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv,message", [
    (["synth", "--out", "w", "--n-segments", "2"], "--n-segments must be >= 3"),
    (["relax", "--out", "c.json", "--n-segments", "2"], "--n-segments must be >= 3"),
    (["relax", "--out", "c.json", "--tip-angle=1e154", "--n-segments", "5",
      "--tip-target", "0,0,4"], "is not below pi"),
    # a joint bend at or above pi folds a segment back onto the one before it: refused
    (["relax", "--out", "c.json", "--tip-angle", "30", "--n-segments", "5"],
     "a joint bend of 6 rad is not below pi"),
    (["synth", "--out", "w", "--tip-angle", "30", "--n-segments", "5"],
     "a joint bend of 6 rad is not below pi"),
    (["synth", "--out", "w", "--segment-length", "1e308"], "longer than a float"),
    (["relax", "--out", "c.json", "--segment-length", "1e306", "--tip-target", "1e306,0,1e307"],
     "out of float range"),  # 1.005e307 mm away, within reach, but J J^T overflows
    (["synth", "--out", "w", "--seed", "-1"], "--seed must be >= 0"),
    (["relax", "--out", "c.json", "--seed", "-5", "--tip-angle", "1"], "--seed must be >= 0"),
    (["relax", "--out", "c.json", "--tip-target", "1,2"], "--tip-target must be 'x,y,z' in mm"),
    (["relax", "--out", "c.json", "--tip-target", "a,b,c"], "--tip-target must be 'x,y,z' in mm"),
], ids=["synth-2-segments", "relax-2-segments", "huge-rest-bend", "relax-rest-bend-over-pi",
        "synth-rest-bend-over-pi", "synth-huge-segment-length", "huge-pinned-rod",
        "synth-negative-seed", "relax-negative-seed", "tip-target-two-values",
        "tip-target-not-numbers"])
@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_rod_flag_errors_name_the_cause(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1
    assert not (tmp_path / "c.json").exists() and not (tmp_path / "w").exists()


@pytest.mark.parametrize("argv, flag", [
    (["evaluate", "p.json", "t.json", "--samples", "30000"], "--samples"),
    (["evaluate", "p.json", "t.json", "--samples", "100000000"], "--samples"),
    (["reconstruct", "--camera-a", "a.json", "--camera-b", "b.json",
      "--annotations", "x.json", "y.json", "--out", "r.json", "--samples", "4097"], "--samples"),
    (["synth", "--out", "w", "--annotation-points", "50000"], "--annotation-points"),
    (["synth", "--out", "w", "--n-segments", "50000"], "--n-segments"),
    (["relax", "--out", "c.json", "--n-segments", "50000"], "--n-segments"),
], ids=["evaluate-30000", "evaluate-1e8", "reconstruct-4097", "synth-annotation-points",
        "synth-n-segments", "relax-n-segments"])
def test_size_flags_are_capped_before_any_work(argv, flag, capsys, tmp_path, monkeypatch):
    # refused before a file is read or a wire is made: evaluate --samples sets an n x n
    # table, every other size a count whose arrays grow linearly with n
    def refuse(*args, **kwargs):
        raise AssertionError("a refused size reached the command")

    monkeypatch.chdir(tmp_path)
    for name in ("load_curve", "load_camera", "load_episodes"):
        monkeypatch.setattr(swio, name, refuse)
    monkeypatch.setattr(rod, "synth_guidewire", refuse)
    monkeypatch.setattr(rod, "rest_curvature_field", refuse)
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: {flag} must be <= {MAX_SIZE}"
    assert not (tmp_path / "w").exists()


def test_size_cap_admits_its_bound():
    for argv in (["evaluate", "p.json", "t.json", "--samples", str(MAX_SIZE)],
                 ["synth", "--out", "w", "--annotation-points", str(MAX_SIZE),
                  "--n-segments", str(MAX_SIZE)]):
        _validate(build_parser().parse_args(argv))  # no ParseError
    assert MAX_SIZE > 257  # the largest size the tests and the bench use


def test_synth_runs_at_the_size_cap(tmp_path, capsys):
    out = tmp_path / "w"
    assert main(["synth", "--out", str(out), "--annotation-points", str(MAX_SIZE),
                 "--n-segments", str(MAX_SIZE)]) == 0
    assert capsys.readouterr().err == ""
    # the truth curve interpolates every annotation sample: one control point each
    assert len(swio.load_curve(out / "truth_curve.json").control_points) == MAX_SIZE


@pytest.mark.parametrize("override,message", [
    (["--camera-a", "cam.json"], "both --camera-a and --camera-b or neither"),
    (["--camera-a", "cam.json", "--camera-b", "missing.json"], "missing.json"),
    (["--camera-a", "cam.json", "--camera-b", "bad.json"], "bad.json"),
], ids=["one-camera", "missing-camera", "malformed-camera"])
def test_refused_camera_override_leaves_no_directory(override, message, capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    swio.save_camera(default_rig()[0], tmp_path / "cam.json")
    (tmp_path / "bad.json").write_text("{")
    assert main(["synth", "--out", "w", *override]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and message in err and len(err.splitlines()) == 1
    assert not (tmp_path / "w").exists()


def test_cached_parser_behaves_as_a_fresh_one(tmp_path, capsys):
    assert build_parser() is build_parser()
    fresh = build_parser.__wrapped__()
    out = synth_dir(tmp_path)
    truth = str(out / "truth_curve.json")
    capsys.readouterr()

    assert main(["evaluate", truth, truth, "--samples", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1

    assert main(["evaluate", truth, truth]) == 0
    assert capsys.readouterr().out == "max_ed_mm,mete_mm,mers_mm,frechet_mm\n0,0,0,0\n"
    assert vars(build_parser().parse_args(["evaluate", truth])) == \
        vars(fresh.parse_args(["evaluate", truth]))

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == fresh.format_help()


def test_dump_json_refuses_non_finite_values(tmp_path):
    path = tmp_path / "c.json"
    with pytest.raises(StereowireError, match="not JSON compliant"):
        swio.dump_json({"x": [1.0, float("inf")]}, path)
    assert not path.exists()
    # a refused value leaves an existing artifact as it was
    swio.save_curve(fit_curve(np.random.default_rng(0).normal(size=(12, 3))), path)
    before = path.read_bytes()
    refused = [{"x": [float("nan")]}, np.array([0.5, np.nan]),
               np.array([[0.5, 2.5], [np.inf, 1.5]]), {"control_points": np.array([[1.5, -np.inf]])},
               {"mean_reproj_px": float("-inf")}, np.float64("nan")]
    for obj in refused:
        with pytest.raises(StereowireError, match="not JSON compliant"):
            swio.dump_json(obj, path)
        assert path.read_bytes() == before


def test_readme_cli_section_names_every_flag_and_no_other():
    # a flag added to or deleted from a subcommand must be added to or deleted from README
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {s for p in sub.choices.values() for a in p._actions
             for s in a.option_strings if s.startswith("--")}
    text = README.read_text()
    section = text[text.index("## CLI"):text.index("## File schemas")]
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == flags


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def out_argv(command, tmp_path, out) -> list[str]:
    """argv of a command whose --out is out: a directory for synth, a file otherwise."""
    if command == "synth":
        return ["synth", "--out", str(out)]
    if command == "relax":
        return ["relax", "--out", str(out), "--n-segments", "8", "--tip-angle", "0.6"]
    frame = synth_dir(tmp_path)
    return ["reconstruct", "--camera-a", str(frame / "camera_a.json"),
            "--camera-b", str(frame / "camera_b.json"),
            "--annotations", str(frame / "annotation_a.json"),
            str(frame / "annotation_b.json"), "--out", str(out)]


@pytest.mark.parametrize("command,out_is", [
    pytest.param("synth", "under_a_file", id="synth"),
    pytest.param("reconstruct", "under_a_file", id="reconstruct"),
    pytest.param("relax", "under_a_file", id="relax"),
    pytest.param("reconstruct", "a_directory", id="reconstruct-directory"),
    pytest.param("relax", "a_directory", id="relax-directory"),
])
def test_unwritable_out_prints_one_line(command, out_is, tmp_path, capsys):
    if out_is == "a_directory":
        out = tmp_path / "r.json"
        out.mkdir()
    else:
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "r.json"  # its parent is a regular file
    argv = out_argv(command, tmp_path, out)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["reconstruct", "relax"])
def test_out_may_be_dev_null(command, tmp_path, capsys):
    # a character device takes the bytes and is not cut to length
    argv = out_argv(command, tmp_path, os.devnull)
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_relax_out_through_a_symlink_writes_its_target(tmp_path, capsys):
    real, link, direct = tmp_path / "real.json", tmp_path / "link.json", tmp_path / "direct.json"
    real.write_text("x" * 5000)
    link.symlink_to(real)
    assert main(out_argv("relax", tmp_path, link)) == 0
    assert main(out_argv("relax", tmp_path, direct)) == 0
    assert link.is_symlink() and link.readlink() == real
    assert real.read_bytes() == direct.read_bytes()


def test_dump_json_rewrites_a_file_in_place(tmp_path, monkeypatch):
    path = tmp_path / "x.json"
    path.write_bytes(b"x" * 5000)
    path.chmod(0o600)
    inode = path.stat().st_ino
    flags, real_open = [], os.open

    def spy(file, flag, *args, **kwargs):
        flags.append(flag)
        return real_open(file, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    obj = {"frame": 3, "x": [1.0, -0.5]}
    swio.dump_json(obj, path)
    monkeypatch.undo()
    assert path.read_text() == oracle_json(obj)
    assert path.stat().st_ino == inode and stat.S_IMODE(path.stat().st_mode) == 0o600
    assert flags and not any(flag & os.O_TRUNC for flag in flags)


def _mutate(field, value):
    def edit(obj):
        obj[field] = value
    return edit


def _mutate_curve(field, value):
    def edit(obj):
        obj["curve"][field] = value
    return edit


# (artifacts to corrupt, edit of each JSON object); each must fail to load
BAD_NUMERIC_FIELDS = {
    "image_size_string": ("camera_a.json", _mutate("image_size", ["a", 2])),
    "image_size_float": ("camera_a.json", _mutate("image_size", [1024.5, 1024])),
    "image_size_bool": ("camera_b.json", _mutate("image_size", [True, 1024])),
    "image_size_negative": ("camera_b.json", _mutate("image_size", [-1024, 1024])),
    "P_string": ("camera_a.json", _mutate("P", "abc")),
    "P_bool_entry": ("camera_a.json", lambda obj: obj["P"][0].__setitem__(0, True)),
    "P_ragged": ("camera_b.json", lambda obj: obj["P"][1].pop()),
    # both views, so the frames still agree with each other
    "frame_bool": ("annotation_a.json annotation_b.json", _mutate("frame", True)),
    "frame_float": ("annotation_a.json annotation_b.json", _mutate("frame", 0.5)),
    "frame_string": ("annotation_a.json annotation_b.json", _mutate("frame", "0")),
    "points_string": ("annotation_a.json", _mutate("points", "abc")),
    "points_null_entry": ("annotation_a.json", lambda obj: obj["points"][2].__setitem__(1, None)),
    "points_huge_int": ("annotation_b.json", lambda obj: obj["points"][2].__setitem__(1, 10 ** 400)),
    "knots_string": ("truth_curve.json", _mutate("knots", "abc")),
    "knots_string_entry": ("truth_curve.json", lambda obj: obj["knots"].__setitem__(0, "0")),
    "degree_bool": ("truth_curve.json", _mutate("degree", True)),
    "degree_negative": ("truth_curve.json", _mutate("degree", -1)),
    "knots_decreasing": ("truth_curve.json", lambda obj: obj["knots"].reverse()),
    "knots_too_short": ("truth_curve.json",
                        lambda obj: obj.update(knots=[0.0] * 3 + [0.5] + [1.0] * 3,
                                               control_points=obj["control_points"][:3])),
    "knots_all_equal": ("truth_curve.json", lambda obj: obj.update(knots=[0.5] * len(obj["knots"]))),
    "knots_count_mismatch": ("truth_curve.json", lambda obj: obj["knots"].pop()),
    "control_points_nan": ("truth_curve.json",
                           lambda obj: obj["control_points"][0].__setitem__(0, float("nan"))),
    "control_points_flat": ("truth_curve.json", _mutate("control_points", [1.0, 2.0, 3.0])),
}


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_evaluate_refuses_knots_wider_than_a_float(tmp_path, capsys):
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"degree": 1, "knots": [-1e308, -1e308, 1e308, 1e308],
                                "control_points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]}))
    swio.save_curve(fit_curve(np.eye(4, 3)), tmp_path / "t.json")
    assert main(["evaluate", str(wide), str(tmp_path / "t.json")]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "finite width" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("case", sorted(BAD_NUMERIC_FIELDS))
def test_cli_bad_numeric_field_single_line_diagnostic(tmp_path, capsys, case):
    out = synth_dir(tmp_path)
    names, edit = BAD_NUMERIC_FIELDS[case]
    for name in names.split():
        obj = json.loads((out / name).read_text())
        edit(obj)
        (out / name).write_text(json.dumps(obj))
    capsys.readouterr()
    if name == "truth_curve.json":
        argv = ["evaluate", str(out / name), str(out / name)]
    else:
        argv = ["reconstruct", "--camera-a", str(out / "camera_a.json"),
                "--camera-b", str(out / "camera_b.json"),
                "--annotations", str(out / "annotation_a.json"), str(out / "annotation_b.json"),
                "--out", str(tmp_path / "r.json")]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1
    err = captured.err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert captured.out == ""


def test_episode_refuses_a_negative_max_steps(tmp_path, capsys):
    with pytest.raises(ValueError, match="max_steps must be non-negative"):
        Episode(tip_positions=np.zeros((2, 3)), forces=np.zeros((0, 3)),
                goal=np.ones(3), success=False, max_steps=-1)
    ep = {"tip": [[0.0, 0.0, 0.0]], "forces": [], "goal": [1.0, 0.0, 0.0], "success": True}
    path = tmp_path / "ep.json"
    path.write_text(json.dumps({**ep, "max_steps": -5}))
    with pytest.raises(ParseError, match="max_steps must be non-negative"):
        swio.load_episodes(path)
    capsys.readouterr()
    assert main(["evaluate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    path.write_text(json.dumps({**ep, "max_steps": 0}))
    assert swio.load_episodes(path)[0].max_steps == 0


def test_report_and_episode_numeric_fields_checked(tmp_path, rng):
    curve = fit_curve(rng.normal(size=(6, 3)))
    path = tmp_path / "report.json"
    swio.save_report(3, True, 0.5, curve, path)
    assert swio.load_report(path)["frame"] == 3
    for field, value in (("frame", True), ("accepted", "yes"), ("mean_reproj_px", "abc")):
        obj = json.loads(path.read_text())
        obj[field] = value
        bad = tmp_path / f"bad_{field}.json"
        bad.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=field):
            swio.load_report(bad)
        with pytest.raises(ParseError, match=field):
            swio.load_curve(bad)
    ep = {"tip": [[0.0, 0.0, 0.0]], "forces": [], "goal": [1.0, 0.0, 0.0], "success": True}
    for field, value in (("max_steps", 2.5), ("goal", [1.0, True, 0.0]), ("forces", [[1, 2]])):
        bad = tmp_path / f"ep_{field}.json"
        bad.write_text(json.dumps({**ep, field: value}))
        with pytest.raises(ParseError, match=field):
            swio.load_episodes(bad)


def test_cli_malformed_input_single_line_diagnostic(tmp_path, capsys):
    bad = tmp_path / "nope.json"
    bad.write_text("{ not json")
    rc = main(["evaluate", str(bad)])
    assert rc != 0
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


# ------------------------------------------------------------- mutation fuzz

FUZZ_CASES = 200


def _json_paths(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, value in children:
        yield from _json_paths(value, path + (key,))


def _replacement(rng, old):
    values = [float("nan"), float("inf"), -1e308, 1e308, 10 ** 400, 0, -1, 0.5, 1e-300,
              True, None, "1", [], {}, [old], [old, old]]
    if type(old) in (int, float):
        values += [old * rng.uniform(-2.0, 2.0), old + rng.normal(0.0, 1.0), -old]
    return values[rng.integers(len(values))]


def mutate_json(rng, text):
    """One seeded mutation of a JSON file's text.

    The text is truncated, or one node is replaced, dropped or repeated.
    """
    if rng.random() < 0.05:
        return text[:rng.integers(len(text))]
    doc = json.loads(text)
    paths = list(_json_paths(doc))
    path = paths[rng.integers(len(paths))]
    if not path:
        return json.dumps(_replacement(rng, doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, op = path[-1], rng.integers(3)
    if op == 0:
        parent[key] = _replacement(rng, parent[key])
    elif op == 1:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent["extra_" + key] = parent[key]
    return json.dumps(doc)


@pytest.fixture(scope="module")
def fuzz_frame(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz")
    assert main(["synth", "--out", str(out), "--seed", "3", "--noise-px", "1.0"]) == 0
    assert main(["reconstruct", "--camera-a", str(out / "camera_a.json"),
                 "--camera-b", str(out / "camera_b.json"),
                 "--annotations", str(out / "annotation_a.json"), str(out / "annotation_b.json"),
                 "--out", str(out / "report.json")]) == 0
    return out


@pytest.mark.filterwarnings("error")  # a numpy warning would be a second stderr line
def test_cli_mutation_fuzz_keeps_the_exit_contract(fuzz_frame, tmp_path, capsys):
    # every outcome is exit 0 with a silent stderr or exit 1 with one line;
    # an uncaught exception here would have been a traceback
    files = ("camera_a.json", "camera_b.json", "annotation_a.json", "annotation_b.json",
             "truth_curve.json", "report.json")
    rng = np.random.default_rng(2026)
    broken = []
    for case in range(FUZZ_CASES):
        name = files[rng.integers(len(files))]
        text = mutate_json(rng, (fuzz_frame / name).read_text())
        paths = {f: fuzz_frame / f for f in files}
        paths[name] = tmp_path / name
        paths[name].write_text(text)
        if name == "truth_curve.json":
            argvs = [["evaluate", str(fuzz_frame / "truth_curve.json"), str(paths[name])]]
        elif name == "report.json":
            argvs = [["evaluate", str(paths[name])],
                     ["evaluate", str(paths[name]), str(fuzz_frame / "truth_curve.json")]]
        else:
            argvs = [["reconstruct", "--camera-a", str(paths["camera_a.json"]),
                      "--camera-b", str(paths["camera_b.json"]),
                      "--annotations", str(paths["annotation_a.json"]),
                      str(paths["annotation_b.json"]), "--out", str(tmp_path / "out.json")]]
        for argv in argvs:
            capsys.readouterr()
            rc = main(argv)
            err = capsys.readouterr().err
            if not ((rc == 0 and err == "") or
                    (rc == 1 and err.startswith("error:") and len(err.strip().splitlines()) == 1)):
                broken.append((case, argv, rc, err))
    assert not broken
