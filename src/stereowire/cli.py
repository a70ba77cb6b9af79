"""Command-line pipeline: synth, reconstruct, evaluate, relax.

Every command is a pure function of its files, flags, and seed; repeated
runs write byte-identical artifacts. Malformed input exits nonzero with a
single-line diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import io, rod
from .bspline import fit_curve, sample_uniform
from .cameras import project_many
from .errors import ParseError, SchemaMismatch, StereowireError
from .metrics import curve_metrics, episode_metrics
from .rig import default_rig
from .stereo import reconstruct_curve


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


_ROT_Z_TO_Y = np.array([
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.0, -1.0, 0.0],
])  # rotate the rod's growth axis (+z) onto the rig's vertical (+y)

# evaluate's --samples n sets Frechet's n x n float table, which 4096 keeps at 128 MiB;
# every other size flag sets a count whose arrays grow linearly with n
MAX_SIZE = 4096


def _validate(args) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ParseError(f"--{name.replace('_', '-')} must be finite")
    checks = (
        ("seed", lambda v: v >= 0, "--seed must be >= 0"),  # numpy seeds no generator below 0
        ("noise_px", lambda v: v >= 0, "--noise-px must be >= 0"),
        ("samples", lambda v: v >= 4, "--samples must be >= 4"),
        ("n_segments", lambda v: v >= 3, "--n-segments must be >= 3"),  # the cubic fit needs 4 points
        ("annotation_points", lambda v: v >= 4, "--annotation-points must be >= 4"),
        ("segment_length", lambda v: v > 0, "--segment-length must be positive"),
    )
    for name, ok, msg in checks:
        if hasattr(args, name) and not ok(getattr(args, name)):
            raise ParseError(msg)
    for name in ("samples", "n_segments", "annotation_points"):
        if getattr(args, name, 0) > MAX_SIZE:
            raise ParseError(f"--{name.replace('_', '-')} must be <= {MAX_SIZE}")


def cmd_synth(args) -> int:
    if bool(args.camera_a) != bool(args.camera_b):
        raise ParseError("override the rig with both --camera-a and --camera-b or neither")
    if args.camera_a:
        cam_a = io.load_camera(args.camera_a)
        cam_b = io.load_camera(args.camera_b)
    else:
        cam_a, cam_b = default_rig()

    wire = rod.synth_guidewire(args.n_segments, args.segment_length, args.tip_angle, args.seed)
    wire = wire @ _ROT_Z_TO_Y.T
    wire = wire[::-1]  # store tip-first
    wire = wire - wire.mean(axis=0)

    prefit = fit_curve(wire)
    _, samples = sample_uniform(prefit, args.annotation_points)
    truth = fit_curve(samples)

    rng = np.random.default_rng(args.seed)
    annotations = {}
    for name, cam in (("A", cam_a), ("B", cam_b)):
        px = project_many(cam, samples)
        if args.noise_px > 0:
            px = px + rng.normal(0.0, args.noise_px, px.shape)
        if not np.all(np.isfinite(px)):
            raise ParseError(f"view {name}'s annotation pixels are not finite "
                             f"(--noise-px {_fmt(args.noise_px)})")
        annotations[name] = px

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # only once every input is accepted
    io.save_camera(cam_a, out / "camera_a.json")
    io.save_camera(cam_b, out / "camera_b.json")
    io.save_curve(truth, out / "truth_curve.json")
    io.save_annotation(annotations["A"], "A", 0, out / "annotation_a.json")
    io.save_annotation(annotations["B"], "B", 0, out / "annotation_b.json")
    return 0


def cmd_reconstruct(args) -> int:
    cam_a = io.load_camera(args.camera_a)
    cam_b = io.load_camera(args.camera_b)
    parsed = [io.load_annotation(p) for p in args.annotations]
    by_cam = {camera: (frame, pts) for frame, camera, pts in parsed}
    if set(by_cam) != {"A", "B"}:
        raise ParseError("annotations must cover cameras 'A' and 'B'")
    frame_a, pts_a = by_cam["A"]
    frame_b, pts_b = by_cam["B"]
    if frame_a != frame_b:
        raise ParseError(f"annotation frames differ: {frame_a} vs {frame_b}")

    curve_a = fit_curve(pts_a)
    curve_b = fit_curve(pts_b)
    report = reconstruct_curve(cam_a, cam_b, curve_a, curve_b, args.samples)
    io.save_report(frame_a, report.accepted, report.mean_reproj_px,
                   report.curve, args.out)
    print(f"frame {frame_a}: accepted={report.accepted} "
          f"mean_reproj_px={_fmt(report.mean_reproj_px)}")
    return 0


def cmd_evaluate(args) -> int:
    if len(args.files) == 2:
        pred = io.load_curve(args.files[0])
        truth = io.load_curve(args.files[1])
        if pred.dim != truth.dim:
            raise SchemaMismatch(f"cannot compare a {pred.dim}D curve with a {truth.dim}D one")
        m = curve_metrics(pred, truth, n=args.samples)
        print("max_ed_mm,mete_mm,mers_mm,frechet_mm")
        print(",".join(_fmt(v) for v in (m.max_ed, m.mete, m.mers, m.frechet)))
        return 0
    if len(args.files) == 1:
        episodes = io.load_episodes(args.files[0])
        em = episode_metrics(episodes)
        print("episode,path_length_mm,safety,f_max_N,f_mean_N,spl")
        for i in range(len(episodes)):
            row = (em.path_length[i], em.safety[i], em.f_max[i], em.f_mean[i], em.spl)
            print(f"{i}," + ",".join(_fmt(v) for v in row))
        return 0
    raise ParseError("evaluate takes PRED TRUTH curve or report files, or one episode file")


def cmd_relax(args) -> int:
    tip_target = None
    if args.tip_target:
        try:
            tip_target = np.array([float(v) for v in args.tip_target.split(",")])
        except ValueError as exc:
            raise ParseError("--tip-target must be 'x,y,z' in mm") from exc
        if tip_target.shape != (3,):
            raise ParseError("--tip-target must be 'x,y,z' in mm")
        if not np.all(np.isfinite(tip_target)):
            raise ParseError("--tip-target must be finite")

    omega = rod.rest_curvature_field(args.n_segments, args.tip_angle, args.seed)
    wire_rod = rod.straight_rod(args.n_segments, args.segment_length, omega)
    result = rod.relax(wire_rod, tip_target=tip_target)
    curve = fit_curve(result.rod.centerline()[::-1])  # store tip-first, as synth does
    io.save_curve(curve, args.out)
    print(f"energy={_fmt(result.energy)} converged={result.converged} "
          f"grad_inf={_fmt(result.grad_inf)} tip_residual_mm={_fmt(result.tip_residual)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Flag errors raise ParseError, so they end in the one-line diagnostic."""

    def error(self, message):
        raise ParseError(message)


@functools.cache  # one parser per process: parsing leaves no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stereowire", description="Biplanar wire reconstruction pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic wire, cameras, annotations")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-px", type=float, default=0.0)
    p.add_argument("--segment-length", type=float, default=2.0)
    p.add_argument("--n-segments", type=int, default=50)
    p.add_argument("--tip-angle", type=float, default=1.0)
    p.add_argument("--annotation-points", type=int, default=64)
    p.add_argument("--camera-a", help="optional camera file overriding the built-in rig")
    p.add_argument("--camera-b", help="optional camera file overriding the built-in rig")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("reconstruct", help="triangulate a 3D curve from two annotations")
    p.add_argument("--camera-a", required=True)
    p.add_argument("--camera-b", required=True)
    p.add_argument("--annotations", nargs=2, required=True)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--out", required=True, help="report file")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("evaluate", help="curve metrics (PRED TRUTH) or episode metrics (FILE)")
    p.add_argument("files", nargs="+")
    p.add_argument("--samples", type=int, default=64)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("relax", help="relax a rod and write its centerline curve")
    p.add_argument("--out", required=True, help="curve file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--segment-length", type=float, default=2.0)
    p.add_argument("--n-segments", type=int, default=50)
    p.add_argument("--tip-angle", type=float, default=0.0)
    p.add_argument("--tip-target", help="pin the tip at 'x,y,z' (mm)")
    p.set_defaults(func=cmd_relax)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _validate(args)
        return args.func(args)
    except (StereowireError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
