"""Workloads and the run loop of the stereowire benchmark.

One client drives the real CLI in-process through ``stereowire.cli.main``
in a closed loop: the next op starts only when the previous one returned,
so one op is in flight and the benchmark starts no threads. Each workload
turns the workload seed into a fixed list of ops, one *pass*. A run makes
at least one whole pass and keeps cycling through the list until
``seconds`` have passed. Outputs are checked after the timed loop.

A traced run makes whole passes only, so its counts are exact, and
starts no pass that would end past the deadline. It runs every op twice,
once traced and once untraced, alternating which goes first, and reports
the difference of the two medians as the tracing overhead. It checks the
outputs of each traced op as soon as it returns, so its accuracy fields
come from traced outputs only.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from bench_trace import LAYER_METRICS, Tracer

GATE_MAX_ED_MM = 3.0  # acceptance criterion 3: median MaxED over the band
GATE_REPROJ_PX = 25.0  # the reconstruct command's acceptance gate
# set-ups before and again after the timed loop of an untraced run;
# setup_s is the median of all of them, so it samples the machine at
# both ends of the run rather than in one short window
SETUPS = 3


def cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``stereowire.cli.main`` in-process; return (exit code, stdout, stderr).

    The function is looked up on every call so a traced run sees the
    wrapped ``main``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = sys.modules["stereowire.cli"].main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _failed(rc: int, err: str, what: str) -> list[str]:
    return [] if rc == 0 else [f"{what} exited {rc}: {err.strip()[:200]}"]


# ---------------------------------------------------------------------------
# workloads: setup(workdir) -> ops; run(op) -> outcome;
# check(op, outcome) -> (problems, fields); summary(fields) -> (accuracy, problems);
# kind(k) -> the kind of op k of the pass: ops of one kind do the same work

class NoisyBand:
    """Criterion 3's band: 30 noisy frames, each reconstructed then evaluated."""

    FRAMES = 30

    def __init__(self, seed: int, size: int | None = None):
        self.base = self.FRAMES * seed
        self.frames = size or self.FRAMES

    def setup(self, workdir: Path) -> list[Path]:
        frames = []
        for k in range(self.frames):
            d = workdir / f"frame{k:02d}"
            rc, _, err = cli(["synth", "--out", str(d), "--seed", str(self.base + k),
                              "--noise-px", "1.0"])
            if rc != 0:
                raise RuntimeError(f"set-up synth of frame {self.base + k} exited {rc}: {err}")
            frames.append(d)
        return frames

    def kind(self, k: int) -> int:
        # every frame is synthesised and reconstructed at the same sizes;
        # their costs differ by a few per cent
        return 0

    def run(self, d: Path) -> dict:
        rc, _, err = cli(["reconstruct", "--camera-a", str(d / "camera_a.json"),
                          "--camera-b", str(d / "camera_b.json"),
                          "--annotations", str(d / "annotation_a.json"),
                          str(d / "annotation_b.json"), "--out", str(d / "report.json")])
        if rc != 0:
            return {"rc": rc, "err": err, "what": "reconstruct"}
        # evaluate reads curve files: pass on the curve the report holds
        report = json.loads((d / "report.json").read_text())
        (d / "pred_curve.json").write_text(json.dumps(report["curve"]))
        rc, csv, err = cli(["evaluate", str(d / "pred_curve.json"), str(d / "truth_curve.json")])
        return {"rc": rc, "err": err, "what": "evaluate", "csv": csv}

    def check(self, d: Path, res: dict) -> tuple[list[str], dict]:
        problems = _failed(res["rc"], res["err"], res["what"])
        if problems:
            return problems, {}
        swio = sys.modules["stereowire.io"]
        report = swio.load_report(d / "report.json")
        lines = res["csv"].splitlines()
        if len(lines) != 2 or lines[0] != "max_ed_mm,mete_mm,mers_mm,frechet_mm":
            return [f"{d.name}: evaluate printed {res['csv']!r}"], {}
        max_ed, mete, mers, frechet = (float(v) for v in lines[1].split(","))
        tol = 1e-6 * max(1.0, max_ed)
        # the identity coupling bounds Frechet by MaxED; any coupling pairs the tips
        if not (np.isfinite(max_ed) and mete - tol <= frechet <= max_ed + tol
                and 0.0 <= mers <= max_ed + tol):
            problems.append(f"{d.name}: inconsistent curve metrics {lines[1]}")
        accepted = report["accepted"] and report["mean_reproj_px"] <= GATE_REPROJ_PX
        if not accepted:
            problems.append(f"{d.name}: frame rejected at "
                            f"{report['mean_reproj_px']:.3g} px mean reprojection")
        if report["curve"].control_points.shape[1] != 3:
            problems.append(f"{d.name}: reconstructed curve is not 3D")
        return problems, {"max_ed_mm": max_ed, "accepted": accepted,
                          "mean_reproj_px": report["mean_reproj_px"]}

    def summary(self, fields: list[dict]) -> tuple[dict, list[str]]:
        max_ed = statistics.median(f["max_ed_mm"] for f in fields)
        accuracy = {
            "max_ed_mm.median": max_ed,
            "mean_reproj_px.mean": statistics.fmean(f["mean_reproj_px"] for f in fields),
            "accepted_frac": sum(f["accepted"] for f in fields) / len(fields),
        }
        problems = []
        if max_ed > GATE_MAX_ED_MM:
            problems.append(f"median MaxED {max_ed:.3f} mm exceeds {GATE_MAX_ED_MM} mm")
        return accuracy, problems


@dataclass(frozen=True)
class SynthOp:
    seed: int
    n_segments: int
    annotation_points: int
    tip_angle: str
    noise_px: str
    out: Path

    def argv(self) -> list[str]:
        return ["synth", "--out", str(self.out), "--seed", str(self.seed),
                "--n-segments", str(self.n_segments),
                "--annotation-points", str(self.annotation_points),
                "--tip-angle", self.tip_angle, "--noise-px", self.noise_px]


class SynthDataset:
    """Synthetic acquisitions of seeded size: the write side of the layers."""

    OPS = 20
    SEGMENT_MM = 2.0  # the CLI default segment length
    ARTIFACTS = ("camera_a.json", "camera_b.json", "truth_curve.json",
                 "annotation_a.json", "annotation_b.json")

    def __init__(self, seed: int, size: int | None = None):
        self.seed = seed
        self.n_ops = size or self.OPS

    def setup(self, workdir: Path) -> list[SynthOp]:
        rng = np.random.default_rng(self.seed)
        n = self.n_ops

        def strata(lo, hi):
            # one value from each of n equal strata of [lo, hi), in seeded
            # order: the sizes differ from seed to seed, the pass's total
            # work hardly does, so a run's time does not depend on its seed
            return lo + (rng.permutation(n) + rng.uniform(size=n)) * (hi - lo) / n

        segments, points = strata(30, 101).astype(int), strata(64, 257).astype(int)
        angles, noise = strata(0.5, 1.5), strata(0.0, 1.5)
        return [SynthOp(int(rng.integers(0, 10_000)), int(segments[k]), int(points[k]),
                        f"{angles[k]:.3f}", f"{noise[k]:.3f}", workdir / f"synth{k:02d}")
                for k in range(n)]

    def kind(self, k: int) -> int:
        return k  # each op has sizes of its own

    def run(self, op: SynthOp) -> dict:
        rc, _, err = cli(op.argv())
        return {"rc": rc, "err": err, "what": "synth"}

    def check(self, op: SynthOp, res: dict) -> tuple[list[str], dict]:
        problems = _failed(res["rc"], res["err"], res["what"])
        if problems:
            return problems, {}
        swio = sys.modules["stereowire.io"]
        cams = [swio.load_camera(op.out / name) for name in self.ARTIFACTS[:2]]
        truth = swio.load_curve(op.out / "truth_curve.json")
        annotations = [swio.load_annotation(op.out / name) for name in self.ARTIFACTS[3:]]
        name = op.out.name
        cp = truth.control_points
        if cp.shape != (op.annotation_points, 3) or truth.degree != 3:
            problems.append(f"{name}: truth curve has {cp.shape} control points")
        # the wire is a chain of rigid segments; the fit keeps its length
        length = float(np.linalg.norm(np.diff(cp, axis=0), axis=1).sum())
        wire_mm = op.n_segments * self.SEGMENT_MM
        if abs(length / wire_mm - 1.0) > 0.01:
            problems.append(f"{name}: truth length {length:.4g} mm, wire {wire_mm:.4g} mm")
        noise_tol = 6.0 * float(op.noise_px) + 0.05
        end_px = 0.0
        for cam, (frame, camera, px), want in zip(cams, annotations, "AB"):
            if (frame, camera) != (0, want) or px.shape != (op.annotation_points, 2):
                problems.append(f"{name}: annotation {want} is frame {frame} camera "
                                f"{camera} with {px.shape} points")
                continue
            # annotations are stored tip-first, like the truth curve
            for k, end in ((0, cp[0]), (-1, cp[-1])):
                h = cam.P @ np.append(end, 1.0)
                off = float(np.linalg.norm(h[:2] / h[2] - px[k]))
                if off > noise_tol:
                    problems.append(f"{name}: annotation {want} end {k} is off the truth")
                end_px = max(end_px, off)
        return problems, {"length_err": abs(length / wire_mm - 1.0), "end_px": end_px}

    def summary(self, fields: list[dict]) -> tuple[dict, list[str]]:
        # exact floats of the written artifacts, so a traced run that changed
        # what synth writes would not match the untraced run
        return {"artifacts_checked": len(self.ARTIFACTS) * len(fields),
                "truth_length_err.mean": statistics.fmean(f["length_err"] for f in fields),
                "annotation_end_px.mean": statistics.fmean(f["end_px"] for f in fields)}, []


WORKLOADS = {"noisy_band": NoisyBand, "synth_dataset": SynthDataset}


# ---------------------------------------------------------------------------
# environment and machine speed

def _blas_threads() -> int | None:
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor())
    return {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "cpu": cpu}


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed loop of Python and small-array numpy work.

    Reported beside the numbers so machine-speed drift shows; no metric
    is rescaled by it.
    """
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        a = np.arange(64.0)
        for _ in range(2_000):
            a = np.sqrt(a * a + 1.0) - 1.0
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
# the run

@contextlib.contextmanager
def fresh_package():
    """Import stereowire anew for a set-up, then put the original modules back."""
    def ours(name):
        return name == "stereowire" or name.startswith("stereowire.")

    saved = {k: v for k, v in sys.modules.items() if ours(k)}
    for k in saved:
        del sys.modules[k]
    try:
        importlib.import_module("stereowire.cli")
        yield
    finally:
        for k in [k for k in sys.modules if ours(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def tail(times_ms: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it (None below 11 ops)."""
    n = len(times_ms)
    if n < 11:
        return None
    rank = n - 10
    return {"value": sorted(times_ms)[rank - 1], "percentile": int(100 * rank / n),
            "ops": n}


def best_op_ms(wl, indices: list[int], times_ms: list[float]) -> float:
    """The fastest time of each kind of op, averaged over the kinds.

    Slow spells of the machine only ever add time, so the fastest of many
    runs of the same work is the op's cost with the fewest of them in it.
    """
    best = {}
    for k, dt in zip(indices, times_ms):
        kind = wl.kind(k)
        best[kind] = min(best.get(kind, dt), dt)
    return statistics.fmean(best.values())


def _timed(wl, op) -> tuple[float, dict]:
    t0 = perf_counter()
    try:
        res = wl.run(op)
    except Exception as exc:  # an op that raises counts as failed
        res = {"rc": -1, "err": f"{type(exc).__name__}: {exc}", "what": "op"}
    return (perf_counter() - t0) * 1e3, res


def _checked(wl, op, res) -> tuple[list[str], dict]:
    try:
        return wl.check(op, res)
    except Exception as exc:  # unreadable output fails the op, not the run
        return [f"{op}: output check raised {type(exc).__name__}: {exc}"], {}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 size: int | None = None, spans_path: Path | None = None) -> dict:
    """Set up, run and check one workload; return the result record.

    ``size`` shortens the pass (frames or ops) for quick tests. A traced
    run writes its spans to ``spans_path`` when one is given.
    """
    wl = WORKLOADS[name](seed, size)
    importlib.import_module("stereowire.cli")
    env = environment()
    ref_start = reference_loop_ms()

    def timed_setup(k):
        t0 = perf_counter()
        with fresh_package():
            made = wl.setup(workdir / f"setup{k}")
        setup_s.append(perf_counter() - t0)
        return made

    setup_s = []
    for k in range(1 if trace else SETUPS):
        ops = timed_setup(k)

    times_ms, plain_ms, results = [], [], []  # results: (op index, outcome)
    checked = {}  # op index -> (problems, fields) of its last checked outcome
    passes = 0
    tracer = Tracer() if trace else None
    t_start, cpu_start, steal_start = perf_counter(), process_time(), steal_s()
    deadline = t_start + seconds
    if tracer is None:
        i = 0
        while i < len(ops) or perf_counter() < deadline:
            dt, res = _timed(wl, ops[i % len(ops)])
            times_ms.append(dt)
            results.append((i % len(ops), res))
            i += 1
        passes = i / len(ops)
    else:
        with tracer:
            # whole passes only, and none that would end past the deadline
            pass_s = 0.0
            while passes == 0 or perf_counter() + pass_s < deadline:
                pass_start = perf_counter()
                for k, op in enumerate(ops):
                    traced_first = (passes * len(ops) + k) % 2 == 0
                    for traced in (traced_first, not traced_first):
                        with tracer.op() if traced else contextlib.nullcontext():
                            dt, res = _timed(wl, op)
                        (times_ms if traced else plain_ms).append(dt)
                        results.append((k, res))
                        if traced:
                            # check now: the untraced run of the op rewrites its files
                            checked[k] = _checked(wl, op, res)
                passes += 1
                pass_s = perf_counter() - pass_start
    wall_s, cpu_s = perf_counter() - t_start, process_time() - cpu_start
    host_steal_s = steal_s() - steal_start
    if not trace:
        for k in range(SETUPS, 2 * SETUPS):
            timed_setup(k)
    ref_end = reference_loop_ms()

    # checks: every outcome's exit status; each op's outputs from its last
    # outcome, which is the one its files hold, or in a traced run its last
    # traced outcome, checked in the loop
    if not trace:
        last = dict(results)
        checked = {k: _checked(wl, ops[k], last[k]) for k in sorted(last)}
    bad_keys = {k for k, (problems, _) in checked.items() if problems}
    failed = sum(1 for k, res in results if k in bad_keys or res["rc"] != 0)
    problems = [p for k in sorted(bad_keys) for p in checked[k][0]]
    accuracy = {}
    if not bad_keys:
        accuracy, summary_problems = wl.summary([checked[k][1] for k in sorted(checked)])
        problems += summary_problems

    detail = {
        "workload": name, "seed": seed, "trace": int(trace), "env": env,
        "ref_loop_ms": {"start": ref_start, "end": ref_end},
        "wall_s": wall_s, "cpu_s": cpu_s, "host_steal_s": host_steal_s,
        "passes": passes, "pass_ops": len(ops),
        "failed_frac": failed / len(results), "accuracy": accuracy,
        "problems": problems[:20],
    }
    if tracer is None:
        detail["setup_s.all"] = setup_s
        # the median op time and the throughput are reported but carry no
        # bound: on a machine whose speed switches between two levels they
        # move with the share of slow time in a run (see README, Machine drift)
        detail["op_ms.p50"] = statistics.median(times_ms)
        detail["op_ms.tail"] = tail(times_ms)
        detail["ops_per_s"] = len(results) / wall_s
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_ms.best": (best_op_ms(wl, [k for k, _ in results], times_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        layer = tracer.layer_metrics()
        traced_p50 = statistics.median(times_ms)
        layer["trace.op_ms.p50"] = traced_p50
        layer["trace.overhead_ms"] = traced_p50 - statistics.median(plain_ms)
        units = {m[0]: m[1] for m in LAYER_METRICS}
        metrics = {k: (v, units[k]) for k, v in layer.items()}
        detail["counts"] = dict(sorted(tracer.counts.items()))
        detail["spans"] = len(tracer.start)
        detail["untraced_names"] = tracer.missing
        if spans_path is not None:
            tracer.write_spans(spans_path)
            detail["spans_file"] = str(spans_path)
    return {
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
