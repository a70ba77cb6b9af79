"""Strict JSON file schemas for cameras, curves, annotations, reports, episodes.

Every loader rejects unknown fields by name. Every file is written as
json.dumps(obj, indent=2) would lay it out, with each float written as the
shortest repr of its 9-significant-digit rounding and a '.' decimal
separator, so repeated runs produce byte-identical files regardless of
locale.

The writer formats each float array, a float64 ndarray of one or two
dimensions, in one '%.9g' pass straight into a template of its final layout;
a float list or tuple is encoded item by item to the same text. A '%.9g'
token can differ from that repr only for a value near an integer (which
takes in zero, subnormals and every value of about 1e8 and more) or not
finite (_needs_repr); only an array holding such a value takes the repr
repair of _float_tokens. A knot vector always does, since a clamped one
starts at 0 and ends at 1, which '%.9g' writes as '0' and '1' where repr
writes '0.0' and '1.0'.
"""

from __future__ import annotations

import json
import os
import stat
from itertools import chain
from pathlib import Path

import numpy as np

from .bspline import BSplineCurve
from .cameras import ProjectiveCamera
from .errors import ParseError, SchemaMismatch, StereowireError
from .metrics import Episode
from .spherical import SphericalChain


def format_float(x: float) -> float:
    """Round-trip a float through its 9-significant-digit decimal form."""
    return float(f"{float(x):.9g}")


def _float_tokens(values: tuple) -> list[str]:
    """JSON text of each float: the repr of its 9-significant-digit rounding.

    One '%.9g' pass formats them all. A token with a '.' and no exponent is
    already that repr: it is a normal number printed positionally by both,
    and no two decimals of at most 15 significant digits round to the same
    normal double, so repr finds no shorter digits. Any other token (100,
    -0, 1e+12, a subnormal) goes through repr. Raises ValueError, as json
    does, on a non-finite value.
    """
    text = "%.9g," * len(values) % values
    if "n" in text:  # inf, nan
        bad = next(t for t in text.split(",") if "n" in t)
        raise ValueError(f"Out of range float values are not JSON compliant: {float(bad)!r}")
    return [t if "." in t and "e" not in t else repr(float(t))
            for t in text[:-1].split(",")]


def _needs_repr(arr: np.ndarray) -> bool:
    """Whether some value of arr may get a '%.9g' token other than its repr.

    A normal value below 1e-4 prints in exponent form under both, and a value
    that '%.9g' prints positionally with a digit after the point is its own
    repr (_float_tokens), so their tokens agree. Every other finite value
    (zero, a subnormal, a value of 1e8 or more, one that '%.9g' prints without
    its point) lies within half a unit of its 9th significant digit of an
    integer: within 0.5e-8 * |v|, or 0.5e-8 below 1. The 1e-8 bound below
    flags those with a factor of two to spare. A value that is not finite is
    flagged first, so inf - rint(inf) is never taken.
    """
    mag = np.abs(arr)
    if not np.isfinite(mag).all():
        return True
    return not (np.abs(mag - np.rint(mag)) > 1e-8 * np.maximum(mag, 1.0)).all()


def _key(key) -> str:
    # json's own key conversion: numbers, booleans and None become strings
    return json.dumps(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4]


def _list(items: list[str], pad: str) -> str:
    """json.dumps' indent=2 layout of a list whose items encode to items,
    at the line prefix pad."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(items) + pad + "]"


def _float_array(arr: np.ndarray, pad: str) -> str:
    """A float array (a 1-D or 2-D float64 ndarray) in its final layout: one '%'
    over a template of that layout, with a '%.9g' cell per value, or '%s' cells
    taking the repaired tokens of _float_tokens when _needs_repr flags it."""
    values = tuple(arr.ravel().tolist())
    cell = "%.9g"
    if _needs_repr(arr):
        cell, values = "%s", tuple(_float_tokens(values))
    row = cell if arr.ndim == 1 else _list([cell] * arr.shape[1], pad + "  ")
    return _list([row] * arr.shape[0], pad) % values


def _encode(obj, pad: str) -> str:
    """obj as json.dumps(obj, indent=2) lays it out at the line prefix pad
    (a newline and the enclosing indentation), floats by _float_tokens.

    A 1-D or 2-D float64 ndarray takes _float_array's one pass; a list or
    tuple, of floats too, is encoded item by item.
    """
    if isinstance(obj, float):
        return _float_tokens((obj,))[0]
    if type(obj) is np.ndarray and obj.dtype == np.float64 and obj.ndim in (1, 2):
        return _float_array(obj, pad)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ("," + inner).join(f"{_key(k)}: {_encode(v, inner)}" for k, v in obj.items())
        return "{" + inner + items + pad + "}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    return _list([_encode(v, inner) for v in obj], pad)


def dump_json(obj, path) -> None:
    """Write obj to path in the layout above, rewriting an existing file in place.

    The whole text is encoded before the file is opened, so a refused value
    (StereowireError) leaves the path as it was. The file is opened without
    O_TRUNC and written from offset 0; a regular file is then cut to the
    written length, while a device, pipe or other non-regular path is left
    uncut (ftruncate on /dev/null fails with EINVAL). A symlink is followed.
    The write is not atomic and nothing is synced, as with a plain open and
    write: a failed write can leave a mix of old and new bytes.

    Why not truncate on open: on ext4 with its default auto_da_alloc
    option, closing a file that was truncated to 0 bytes and rewritten
    allocates its blocks and starts writeback inside close(). On the ext4
    root of a 2-core VM, rewriting a 4 kB file took 100-120 us that way,
    against 5-10 us in place and then cut to length; a temp file plus
    os.replace took 80-140 us.
    """
    try:
        data = (_encode(obj, "\n") + "\n").encode()
    except ValueError as exc:
        raise StereowireError(f"{path}: {exc}") from exc
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _load(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return obj


def _check_keys(obj: dict, required: tuple, optional: tuple, what: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected a JSON object")
    for key in obj:
        if key not in required and key not in optional:
            raise ParseError(f"{what}: unknown field '{key}'")
    for key in required:
        if key not in obj:
            raise ParseError(f"{what}: missing field '{key}'")


def _leaf_types(value) -> set:
    """Exact types of the non-list values in a nested list, one level at a time."""
    found, level = set(), [value]
    while level:
        kinds = set(map(type, level))
        found |= kinds - {list}
        level = list(chain.from_iterable(v for v in level if type(v) is list)) if list in kinds else []
    return found


def _numbers(value, what: str, shape: tuple = (), integer: bool = False) -> np.ndarray:
    """A JSON number or nested list of numbers as a checked array.

    shape gives the expected array shape, None standing for any length.
    JSON booleans, strings and nulls are refused even where numpy would
    convert them, and so is any non-finite value; integer=True refuses
    every non-integer too.
    """
    kind = "integers" if integer else "numbers"
    # exact types: a JSON true is a bool, which Python counts as an int
    if not _leaf_types(value) <= ({int} if integer else {int, float}):
        raise ParseError(f"{what}: expected {kind}")
    try:
        arr = np.asarray(value, dtype=np.int64 if integer else float)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{what}: {exc}") from exc
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        expected = "x".join("N" if n is None else str(n) for n in shape) or "a single value"
        raise ParseError(f"{what}: expected {expected} {kind}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{what}: non-finite values")
    return arr


def _rows(value, what: str, width: int) -> np.ndarray:
    """An Nx(width) list of numbers; [] reads as no rows."""
    if value == []:
        return np.zeros((0, width))
    return _numbers(value, what, (None, width))


# --- camera files ---

def camera_to_dict(cam: ProjectiveCamera) -> dict:
    """The camera file's object, P as cam's own (read-only) float64 array."""
    return {"P": cam.P, "image_size": list(cam.image_size)}


def save_camera(cam: ProjectiveCamera, path) -> None:
    dump_json(camera_to_dict(cam), path)


def load_camera(path) -> ProjectiveCamera:
    obj = _load(path)
    _check_keys(obj, ("P", "image_size"), (), f"camera file {path}")
    P = _numbers(obj["P"], f"camera file {path}: P", (3, 4))
    size = _numbers(obj["image_size"], f"camera file {path}: image_size [w, h]", (2,), integer=True)
    if np.any(size <= 0):
        raise ParseError(f"camera file {path}: image_size must be positive")
    return ProjectiveCamera(P, (int(size[0]), int(size[1])))


# --- curve files ---

def curve_to_dict(curve: BSplineCurve) -> dict:
    """The curve file's object, knots and control points as the curve's own arrays."""
    return {
        "degree": curve.degree,
        "knots": curve.knots,
        "control_points": curve.control_points,
    }


def save_curve(curve: BSplineCurve, path) -> None:
    dump_json(curve_to_dict(curve), path)


def curve_from_dict(obj: dict, what: str) -> BSplineCurve:
    _check_keys(obj, ("degree", "knots", "control_points"), (), what)
    degree = int(_numbers(obj["degree"], f"{what}: degree", integer=True))
    knots = _numbers(obj["knots"], f"{what}: knots", (None,))
    cp = _numbers(obj["control_points"], f"{what}: control_points", (None, None))
    if cp.shape[1] not in (2, 3):
        raise ParseError(f"{what}: control points must be 2D or 3D")
    try:
        return BSplineCurve(cp, knots, degree)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def load_curve(path) -> BSplineCurve:
    """The curve of a curve file, or of a report file checked as load_report checks it."""
    obj = _load(path)
    if isinstance(obj, dict) and ("tip" in obj or "goal" in obj):
        raise SchemaMismatch(f"{path}: looks like an episode file, expected a curve")
    if isinstance(obj, dict) and "curve" in obj:
        return _report_from_dict(obj, f"report file {path}")["curve"]
    return curve_from_dict(obj, f"curve file {path}")


# --- annotation polylines (CVAT-style export) ---

def save_annotation(points: np.ndarray, camera: str, frame: int, path) -> None:
    dump_json({"frame": int(frame), "camera": camera,
               "points": np.asarray(points, dtype=float)}, path)


def load_annotation(path) -> tuple[int, str, np.ndarray]:
    obj = _load(path)
    _check_keys(obj, ("frame", "camera", "points"), (), f"annotation file {path}")
    frame = int(_numbers(obj["frame"], f"annotation file {path}: frame", integer=True))
    if obj["camera"] not in ("A", "B"):
        raise ParseError(f"annotation file {path}: camera must be 'A' or 'B'")
    pts = _numbers(obj["points"], f"annotation file {path}: points", (None, 2))
    if pts.shape[0] < 2:
        raise ParseError(f"annotation file {path}: points must be an Nx2 list, N >= 2")
    return frame, obj["camera"], pts


# --- spherical chains ---

def save_chain(chain: SphericalChain, path) -> None:
    dump_json({"tip": chain.tip, "r": chain.r, "offsets": chain.offsets}, path)


def load_chain(path) -> SphericalChain:
    obj = _load(path)
    _check_keys(obj, ("tip", "r", "offsets"), (), f"chain file {path}")
    tip = _numbers(obj["tip"], f"chain file {path}: tip", (3,))
    r = float(_numbers(obj["r"], f"chain file {path}: r"))
    if not r > 0:
        raise ParseError(f"chain file {path}: r must be a positive number")
    offsets = _rows(obj["offsets"], f"chain file {path}: offsets", 2)
    return SphericalChain(tip=tip, r=r, offsets=offsets)


# --- reconstruction reports ---

def save_report(frame: int, accepted: bool, mean_reproj_px: float,
                curve: BSplineCurve, path) -> None:
    dump_json({
        "frame": int(frame),
        "accepted": bool(accepted),
        "mean_reproj_px": float(mean_reproj_px),
        "curve": curve_to_dict(curve),
    }, path)


def load_report(path) -> dict:
    return _report_from_dict(_load(path), f"report file {path}")


def _report_from_dict(obj: dict, what: str) -> dict:
    _check_keys(obj, ("frame", "accepted", "mean_reproj_px", "curve"), (), what)
    if not isinstance(obj["accepted"], bool):
        raise ParseError(f"{what}: accepted must be a boolean")
    return {"frame": int(_numbers(obj["frame"], f"{what}: frame", integer=True)),
            "accepted": obj["accepted"],
            "mean_reproj_px": float(_numbers(obj["mean_reproj_px"], f"{what}: mean_reproj_px")),
            "curve": curve_from_dict(obj["curve"], f"{what}: curve")}


# --- episodes ---

def episode_to_dict(ep: Episode) -> dict:
    """The episode file's object, tip, forces and goal as the episode's own arrays."""
    out = {
        "tip": ep.tip_positions,
        "forces": ep.forces,
        "goal": ep.goal,
        "success": ep.success,
    }
    if ep.max_steps is not None:
        out["max_steps"] = int(ep.max_steps)
    return out


def save_episodes(episodes: list[Episode], path) -> None:
    dump_json([episode_to_dict(ep) for ep in episodes], path)


def _episode_from_dict(obj: dict, what: str) -> Episode:
    _check_keys(obj, ("tip", "forces", "goal", "success"), ("max_steps",), what)
    tips = _numbers(obj["tip"], f"{what}: tip", (None, 3))
    forces = _rows(obj["forces"], f"{what}: forces", 3)
    goal = _numbers(obj["goal"], f"{what}: goal", (3,))
    if not isinstance(obj["success"], bool):
        raise ParseError(f"{what}: success must be a boolean")
    max_steps = obj.get("max_steps")
    if max_steps is not None:
        max_steps = int(_numbers(max_steps, f"{what}: max_steps", integer=True))
    try:
        return Episode(tip_positions=tips, forces=forces, goal=goal,
                       success=obj["success"], max_steps=max_steps)
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def load_episodes(path) -> list[Episode]:
    obj = _load(path)
    if isinstance(obj, dict) and "control_points" in obj:
        raise SchemaMismatch(f"{path}: looks like a curve file, expected episodes")
    items = obj if isinstance(obj, list) else [obj]
    if not items:
        raise ParseError(f"{path}: empty episode list")
    return [_episode_from_dict(item, f"episode file {path}[{i}]")
            for i, item in enumerate(items)]
