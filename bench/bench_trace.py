"""Span tracer for the traced benchmark run.

The tracer wraps public functions of each stereowire layer from outside
the package. Every module attribute that refers to a wrapped function is
replaced while the tracer is installed, so a caller that imported the
name (``stereowire.stereo.eval_curve_many``) is traced as well as the
module that defines it (``stereowire.bspline.eval_curve_many``). The
package source is never modified.

Spans are recorded only while an op is active. Each span keeps its group,
its parent span, the op it belongs to and its start and end times. They
live in flat in-memory arrays until the run ends. Counts are recorded at
the same boundaries and are exact: the same inputs give the same counts.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# (span group, defining module, public names wrapped into that group).
# ``spherical`` is on no CLI path and is left unmeasured.
TARGETS = (
    ("cli", "stereowire.cli", ("main",)),
    ("io.load", "stereowire.io", ("load_camera", "load_curve", "load_annotation",
                                  "load_report", "load_episodes", "load_chain")),
    ("io.save", "stereowire.io", ("save_camera", "save_curve", "save_annotation",
                                  "save_report", "save_episodes", "save_chain")),
    ("cameras.fundamental", "stereowire.cameras", ("fundamental_matrix",)),
    ("cameras.epiline", "stereowire.cameras", ("epiline",)),
    ("cameras.project", "stereowire.cameras", ("project", "project_many")),
    ("bspline.eval", "stereowire.bspline", ("eval_curve", "eval_curve_many", "sample_uniform")),
    ("bspline.fit", "stereowire.bspline", ("fit_curve",)),
    ("stereo.reconstruct", "stereowire.stereo", ("reconstruct_curve",)),
    ("stereo.match", "stereowire.stereo", ("match_curves",)),
    ("stereo.intersect", "stereowire.stereo", ("intersect_epiline",)),
    ("stereo.triangulate", "stereowire.stereo", ("triangulate_point",)),
    ("stereo.residual", "stereowire.stereo", ("point_to_curve_distances",)),
    ("rod.relax", "stereowire.rod", ("relax",)),
    ("rod.synth", "stereowire.rod", ("synth_guidewire",)),
    ("rod.centerline", "stereowire.rod", ("RodState.centerline",)),
    ("metrics.curve", "stereowire.metrics", ("curve_metrics",)),
    ("metrics.frechet", "stereowire.metrics", ("discrete_frechet",)),
)
GROUPS = tuple(group for group, _, _ in TARGETS)

NOISY = "op_ms.best and ops_per_s on noisy_band"
SYNTH = "op_ms.best and ops_per_s on synth_dataset"

# Per-layer metrics of the traced run, all per op: (name, unit, better,
# the end-to-end metric and workload it should move). ``.ms`` is the
# inclusive time of a group's outermost spans; ``self_ms`` subtracts the
# time of traced child spans. This table is the one list of them:
# BENCHMARK.json's per_layer and BASELINE.json's layer_metric_moves
# follow it.
LAYER_METRICS = (
    ("stereo.residual.ms", "ms", "lower", NOISY),
    ("stereo.residual.points", "count", "lower", NOISY),
    ("stereo.match.ms", "ms", "lower", NOISY),
    ("stereo.match.epilines", "count", "lower", NOISY),
    ("stereo.match.matched", "count", "higher", NOISY),
    ("stereo.match.gap_filled", "count", "lower", NOISY),
    ("stereo.match.useful_ratio", "ratio", "higher", NOISY),
    ("stereo.intersect.ms", "ms", "lower", NOISY),
    ("stereo.intersect.calls", "count", "lower", NOISY),
    ("stereo.intersect.roots", "count", "higher", NOISY),
    ("stereo.triangulate.ms", "ms", "lower", NOISY),
    ("stereo.triangulate.points", "count", "lower", NOISY),
    ("stereo.reconstruct.self_ms", "ms", "lower", NOISY),
    ("bspline.eval.ms", "ms", "lower", NOISY),
    ("bspline.eval.params", "count", "lower", NOISY),
    ("bspline.fit.ms", "ms", "lower", SYNTH),
    ("bspline.fit.calls", "count", "lower", SYNTH),
    ("bspline.fit.points", "count", "lower", SYNTH),
    ("rod.relax.ms", "ms", "lower", SYNTH),
    ("rod.relax.iterations", "count", "lower", SYNTH),
    ("rod.relax.stage_steps", "count", "lower", SYNTH),
    ("rod.synth.ms", "ms", "lower", SYNTH),
    ("rod.centerline.ms", "ms", "lower", SYNTH),
    ("metrics.curve.ms", "ms", "lower", NOISY),
    ("metrics.frechet.ms", "ms", "lower", NOISY),
    ("metrics.frechet.cells", "count", "lower", NOISY),
    ("io.load.ms", "ms", "lower", NOISY),
    ("io.save.ms", "ms", "lower", SYNTH),
    ("io.bytes_written", "bytes", "lower", SYNTH),
    ("cameras.fundamental.ms", "ms", "lower", NOISY),
    ("cameras.epiline.calls", "count", "lower", NOISY),
    ("cameras.project.ms", "ms", "lower", NOISY),
    ("cli.self_ms", "ms", "lower", "op_ms.best and ops_per_s on every workload"),
    ("trace.op_ms.p50", "ms", "lower", "none: the traced op time"),
    ("trace.overhead_ms", "ms", "lower", "none: traced minus untraced op_ms.p50"),
)

# Counts that must repeat bit for bit between runs on the same seed.
EXACT_COUNTS = ("bspline.eval.params", "stereo.match.gap_filled", "stereo.intersect.roots",
                "rod.relax.iterations", "metrics.frechet.cells")


# ---------------------------------------------------------------------------
# count hooks, keyed by wrapped name: hook(tracer, args, kwargs, result)
# runs after the call returns. bspline.eval params are counted only on a
# group's outermost span, so sample_uniform -> eval_curve_many counts once.

def _count_relax(tr, args, kwargs, result):
    tr.add("rod.relax.iterations", result.iterations)
    tr.add("rod.relax.converged", int(bool(result.converged)))
    for k, stage in enumerate(kwargs.get("energy_trace") or ()):
        tr.add(f"rod.relax.stage_steps.{k}", len(stage))


def _count_match(tr, args, kwargs, result):
    missing = sum(1 for _, u_b in result.samples if u_b is None)
    tr.add("stereo.match.gap_filled", missing)
    tr.add("stereo.match.matched", len(result.samples) - missing)


def _count_save(tr, args, kwargs, result):
    tr.add("io.bytes_written", os.path.getsize(kwargs.get("path", args[-1])))


HOOKS = {
    "eval_curve": lambda tr, a, k, r: tr.add("bspline.eval.params", 1),
    "eval_curve_many": lambda tr, a, k, r: tr.add("bspline.eval.params", len(r)),
    "sample_uniform": lambda tr, a, k, r: tr.add("bspline.eval.params", len(r[0])),
    "fit_curve": lambda tr, a, k, r: tr.add("bspline.fit.points", len(a[0])),
    "match_curves": _count_match,
    "intersect_epiline": lambda tr, a, k, r: tr.add("stereo.intersect.roots", len(r)),
    "point_to_curve_distances": lambda tr, a, k, r: tr.add("stereo.residual.points", len(r)),
    "relax": _count_relax,
    "discrete_frechet": lambda tr, a, k, r: tr.add("metrics.frechet.cells", len(a[0]) * len(a[1])),
    **{f"save_{kind}": _count_save
       for kind in ("camera", "curve", "annotation", "report", "episodes", "chain")},
}
OUTERMOST_ONLY = ("bspline.eval",)


class Tracer:
    """In-memory span recorder that patches the stereowire layers.

    Use as a context manager: entering installs the wrappers, leaving
    restores every patched attribute. Spans and counts are recorded only
    inside ``with tracer.op():`` blocks.
    """

    def __init__(self):
        self.group = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.current_op = -1
        self.n_ops = 0
        self.missing: list[str] = []  # wrapped names the package no longer defines
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def add(self, name: str, n: int) -> None:
        self.counts[name] += int(n)

    # -- installation ----------------------------------------------------

    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "stereowire" or name.startswith("stereowire."))]
        for gid, (group, modname, names) in enumerate(TARGETS):
            module = sys.modules.get(modname)
            for name in names:
                owner, _, attr = name.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                orig = getattr(holder, attr, None)
                if orig is None:
                    self.missing.append(f"{modname}.{name}")
                    continue
                wrapper = self._wrap(gid, group, attr, orig)
                if owner:  # a method: patch the class attribute
                    self._patch(holder, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._restore:
            holder, attr, orig = self._restore.pop()
            setattr(holder, attr, orig)
        return False

    def _patch(self, holder, attr, wrapper):
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def _wrap(self, gid: int, group: str, name: str, fn):
        tracer = self
        hook = HOOKS.get(name)
        outermost_only = group in OUTERMOST_ONLY
        wants_trace = group == "rod.relax" and "energy_trace" in inspect.signature(fn).parameters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.current_op < 0:
                return fn(*args, **kwargs)
            if wants_trace and kwargs.get("energy_trace") is None:
                kwargs["energy_trace"] = []  # read stage steps from the public trace
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.start)
            tracer.group.append(gid)
            tracer.parent.append(parent)
            tracer.op_id.append(tracer.current_op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None and not (
                    outermost_only and parent >= 0 and tracer.group[parent] == gid):
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- ops ---------------------------------------------------------------

    @contextlib.contextmanager
    def op(self):
        """Record spans and counts, under the next op id, inside the block."""
        self.current_op = self.n_ops
        try:
            yield
        finally:
            self.current_op = -1
            self.n_ops += 1

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-op layer metrics over every traced op (no trace.* entries)."""
        group = np.frombuffer(self.group, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur_ms = (np.frombuffer(self.end) - np.frombuffer(self.start)) * 1e3
        n = len(group)
        has_parent = parent >= 0
        child_ms = np.bincount(parent[has_parent], weights=dur_ms[has_parent], minlength=n)
        self_ms = dur_ms - child_ms[:n]
        # a span is outermost in its group when no ancestor shares its group
        nested = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= group[anc[live]] == group[live]
            anc[live] = parent[anc[live]]
        outer = ~nested

        ops = max(self.n_ops, 1)
        gid = {g: i for i, g in enumerate(GROUPS)}

        def incl(g):
            sel = (group == gid[g]) & outer
            return float(dur_ms[sel].sum()) / ops

        def calls(g):
            return int(np.count_nonzero(group == gid[g]))

        def per_op(count):
            return self.counts[count] / ops

        epilines = int(np.count_nonzero(
            (group == gid["stereo.intersect"]) & has_parent
            & (group[np.maximum(parent, 0)] == gid["stereo.match"])))
        return {
            "stereo.residual.ms": incl("stereo.residual"),
            "stereo.residual.points": per_op("stereo.residual.points"),
            "stereo.match.ms": incl("stereo.match"),
            "stereo.match.epilines": epilines / ops,
            "stereo.match.matched": per_op("stereo.match.matched"),
            "stereo.match.gap_filled": per_op("stereo.match.gap_filled"),
            "stereo.match.useful_ratio": (self.counts["stereo.match.matched"] / epilines
                                          if epilines else 0.0),
            "stereo.intersect.ms": incl("stereo.intersect"),
            "stereo.intersect.calls": calls("stereo.intersect") / ops,
            "stereo.intersect.roots": per_op("stereo.intersect.roots"),
            "stereo.triangulate.ms": incl("stereo.triangulate"),
            "stereo.triangulate.points": calls("stereo.triangulate") / ops,
            "stereo.reconstruct.self_ms":
                float(self_ms[group == gid["stereo.reconstruct"]].sum()) / ops,
            "bspline.eval.ms": incl("bspline.eval"),
            "bspline.eval.params": per_op("bspline.eval.params"),
            "bspline.fit.ms": incl("bspline.fit"),
            "bspline.fit.calls": calls("bspline.fit") / ops,
            "bspline.fit.points": per_op("bspline.fit.points"),
            "rod.relax.ms": incl("rod.relax"),
            "rod.relax.iterations": per_op("rod.relax.iterations"),
            "rod.relax.stage_steps": sum(
                v for k, v in self.counts.items()
                if k.startswith("rod.relax.stage_steps.")) / ops,
            "rod.synth.ms": incl("rod.synth"),
            "rod.centerline.ms": incl("rod.centerline"),
            "metrics.curve.ms": incl("metrics.curve"),
            "metrics.frechet.ms": incl("metrics.frechet"),
            "metrics.frechet.cells": per_op("metrics.frechet.cells"),
            "io.load.ms": incl("io.load"),
            "io.save.ms": incl("io.save"),
            "io.bytes_written": per_op("io.bytes_written"),
            "cameras.fundamental.ms": incl("cameras.fundamental"),
            "cameras.epiline.calls": calls("cameras.epiline") / ops,
            "cameras.project.ms": incl("cameras.project"),
            "cli.self_ms": float(self_ms[group == gid["cli"]].sum()) / ops,
        }

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated line, times in microseconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\top\tparent\tgroup\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.op_id[i]}\t{self.parent[i]}\t{GROUPS[self.group[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.1f}\t{(self.end[i] - t0) * 1e6:.1f}\n")

