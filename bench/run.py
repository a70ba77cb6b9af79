"""Benchmark of the stereowire CLI, end to end or traced per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload noisy_band --seed 0 --seconds 20 --trace 0

Workloads: noisy_band, synth_dataset (see bench/README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a traced
run and prints the per-layer metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it, starting with ``detail``, holds the environment, the
accuracy fields and everything else the run recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# One op is in flight at a time and the package's matrices have at most a
# few hundred rows, so a second BLAS thread would only spin against the
# benchmark's own thread on a small machine. Set before numpy is imported.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("noisy_band", "synth_dataset"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stereowire" / "__init__.py").is_file():
        print(f"error: no stereowire sources under {root / 'src'}; "
              "run from the root of a stereowire checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    from bench_workloads import run_workload

    out = root / "bench_out"
    workdir = out / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    spans = out / f"spans-{args.workload}-{args.seed}.tsv" if args.trace else None
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              workdir, spans_path=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = result.pop("detail")
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {result['attempted']} ops, "
          f"{result['failed']} failed, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'op_ms.p50':30s} {detail['op_ms.p50']:14.6g} ms")
        print(f"  {'ops_per_s':30s} {detail['ops_per_s']:14.6g} 1/s")
    if detail.get("op_ms.tail"):
        t = detail["op_ms.tail"]
        print(f"  {'op_ms.tail':30s} {t['value']:14.6g} ms (p{t['percentile']} of {t['ops']} ops)")
    print(f"  {'failed_frac':30s} {detail['failed_frac']:14.6g}")
    for name, value in detail["accuracy"].items():
        print(f"  accuracy {name:21s} {value:14.6g}")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
