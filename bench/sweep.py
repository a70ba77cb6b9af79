"""Repeat bench/run.py over seeds and summarise each metric's spread.

Run from the root of a checkout:

    python3 bench/sweep.py --seeds 0-9 --seconds 50 --trace 1 --out bench/BASELINE.json

Each run is a separate process, started only after the previous one has
ended. For every workload and metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. ``--trace 1``
adds one traced run per workload, on the first seed. The summary also
maps each per-layer metric to the end-to-end metric it should move, from
``bench_trace.LAYER_METRICS``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from bench_trace import LAYER_METRICS

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2][len("detail "):]), json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--workloads", nargs="+", default=WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {"how": " ".join(["python3", "bench/sweep.py", *(argv or sys.argv[1:])]),
               "run_seconds": args.seconds, "machine": None, "workloads": {},
               "layer_metric_moves": {name: moves for name, _, _, moves in LAYER_METRICS}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            detail, result = run_once(workload, seed, args.seconds, 0)
            runs.append((detail, result))
            metrics = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"ops={result['attempted']} {metrics} op_ms.p50={detail['op_ms.p50']:.5g} "
                  f"ref_loop_ms={detail['ref_loop_ms']['start']:.1f}/"
                  f"{detail['ref_loop_ms']['end']:.1f}", flush=True)
        names = list(runs[0][1]["metrics"])
        entry = {
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "end_to_end": {n: spread([r["metrics"][n]["value"] for _, r in runs]) for n in names},
            "op_ms.p50": spread([d["op_ms.p50"] for d, _ in runs]),
            "ops_per_s": spread([d["ops_per_s"] for d, _ in runs]),
            "accuracy": runs[0][0]["accuracy"],
            "ref_loop_ms": [[d["ref_loop_ms"]["start"], d["ref_loop_ms"]["end"]] for d, _ in runs],
        }
        summary["machine"] = runs[0][0]["env"]
        unbounded = [(n, entry[n]) for n in ("op_ms.p50", "ops_per_s")]
        for n, s in [*entry["end_to_end"].items(), *unbounded]:
            print(f"{workload} {n}: median {s['median']:.5g}, spread {s['spread']:.3f}")
        if args.trace:
            detail, result = run_once(workload, args.seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["traced_accuracy"] = detail["accuracy"]
            entry["counts"] = detail["counts"]
            print(f"{workload} traced: trace.overhead_ms={entry['per_layer']['trace.overhead_ms']:.4g}",
                  flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
