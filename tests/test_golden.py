"""Golden frames: the bytes of 120 synth/reconstruct/evaluate frames and 19
relax frames, pinned by sha256.

A frame is `synth --seed S --noise-px N` for S in 0..39 and N in 0, 1 and 3,
then `reconstruct` of its files and `evaluate REPORT TRUTH`. Its outputs are
the five synth files, report.json, and the exit code and stdout of each of
the three commands. A relax frame is one `relax` run of RELAX_FRAMES; its
outputs are the curve it writes and its exit code and stdout.
golden_frames.txt holds one sha256 digest per frame and output, under a
header naming the Python, numpy and BLAS that wrote it.

The bytes may depend on the numpy and BLAS build. A moved digest always
fails the test, which names every (frame, output) that moved and each way
this interpreter differs from the header. Equal digests pass on any build.
A change of behaviour regenerates the table in the same change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from stereowire.cli import main

TABLE = Path(__file__).with_name("golden_frames.txt")
SEEDS = range(40)
NOISE_PX = (0, 1, 3)
FILES = ("camera_a.json", "camera_b.json", "truth_curve.json",
         "annotation_a.json", "annotation_b.json", "report.json")
_WIRE = ["--n-segments", "30", "--tip-angle", "0.8"]
# the README's pinned example and on-axis saddle, free rods, and pins that
# take 32 to 117 KKT steps
RELAX_FRAMES = {
    "relax-readme": [*_WIRE, "--seed", "4", "--tip-target", "10.0,0.0,50.0"],
    "relax-saddle": ["--n-segments", "30", "--tip-target", "0,0,30"],
    **{f"relax-free-{seed}": [*_WIRE, "--seed", str(seed)] for seed in range(10)},
    **{f"relax-pin-{seed}": [*_WIRE, "--seed", str(seed), "--tip-target=10,0,50"]
       for seed in range(6)},
    "relax-pin-4-far": [*_WIRE, "--seed", "4", "--tip-target=-20,15,40"],
}


def environment() -> dict:
    try:  # numpy >= 1.26
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def _run(argv) -> bytes:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return f"exit {code}\n{stdout.getvalue()}".encode()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "absent"


def frame_digests(root: Path) -> dict:
    """{(seed, noise_px, output) or (relax frame, output): sha256 hex} of every
    golden frame, run under root. Each key is a tuple of the strings a table
    line holds. A file the frame did not write reads as "absent"."""
    digests = {}
    for noise in NOISE_PX:
        for seed in SEEDS:
            d = root / f"{seed}-{noise}"
            runs = {
                "synth": _run(["synth", "--out", str(d), "--seed", str(seed),
                               "--noise-px", str(noise)]),
                "reconstruct": _run(["reconstruct", "--camera-a", str(d / "camera_a.json"),
                                     "--camera-b", str(d / "camera_b.json"),
                                     "--annotations", str(d / "annotation_a.json"),
                                     str(d / "annotation_b.json"),
                                     "--out", str(d / "report.json")]),
                "evaluate": _run(["evaluate", str(d / "report.json"), str(d / "truth_curve.json")]),
            }
            for name in FILES:
                digests[str(seed), str(noise), name] = _digest(d / name)
            for name, data in runs.items():
                digests[str(seed), str(noise), name] = hashlib.sha256(data).hexdigest()
    for frame, flags in RELAX_FRAMES.items():
        curve = root / f"{frame}.json"
        run = _run(["relax", "--out", str(curve), *flags])
        digests[frame, "curve.json"] = _digest(curve)
        digests[frame, "relax"] = hashlib.sha256(run).hexdigest()
    return digests


def read_table() -> tuple[dict, dict]:
    header, digests = {}, {}
    for line in TABLE.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(": ")
            header[key] = value
        else:
            *key, digest = line.split()
            digests[tuple(key)] = digest
    return header, digests


def write_table(digests: dict) -> None:
    lines = ["# sha256 of each output of the golden frames (tests/test_golden.py).",
             "# Regenerate with: PYTHONPATH=src python tests/test_golden.py",
             *(f"# {key}: {value}" for key, value in environment().items()),
             "# seed noise_px output sha256, or relax_frame output sha256",
             *(f"{' '.join(key)} {digest}" for key, digest in digests.items())]
    TABLE.write_text("\n".join(lines) + "\n")


def test_golden_frames_keep_their_bytes(tmp_path):
    header, want = read_table()
    got = frame_digests(tmp_path)
    moved = [" ".join(key) for key in {**want, **got} if want.get(key) != got.get(key)]
    if moved:
        drift = [f"{key} {header.get(key)} (this run: {value})"
                 for key, value in environment().items() if header.get(key) != value]
        pytest.fail(f"{len(moved)} of {len(want)} golden outputs moved: {', '.join(moved)}."
                    + (f" The table was written under {'; '.join(drift)}." if drift else ""))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        write_table(frame_digests(Path(root)))
