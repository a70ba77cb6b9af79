"""Short runs of the benchmark: exact traced counts, traced accuracy, metric names."""

import json
import sys
from pathlib import Path

import pytest

import bench_workloads as bw
import run
from bench_trace import EXACT_COUNTS, LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["noisy_band", "synth_dataset"]
    assert {w["name"] for w in spec["workloads"]} <= set(bw.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in LAYER_METRICS]
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "op_ms.best", "peak_rss_mb"]


@pytest.mark.parametrize("name,size", [("noisy_band", 1), ("synth_dataset", 3)])
def test_traced_counts_repeat_and_accuracy_matches_untraced(name, size, tmp_path):
    plain = bw.run_workload(name, 3, 0, False, tmp_path / "plain", size=size)
    first = bw.run_workload(name, 3, 0, True, tmp_path / "first", size=size)
    second = bw.run_workload(name, 3, 0, True, tmp_path / "second", size=size)

    for result in (plain, first, second):
        assert result["correct"], result["detail"]["problems"]
        assert result["failed"] == 0
    assert set(plain["metrics"]) == {"setup_s", "op_ms.best", "peak_rss_mb"}
    assert list(first["metrics"]) == [m[0] for m in LAYER_METRICS]
    assert first["detail"]["counts"] == second["detail"]["counts"]
    for key in EXACT_COUNTS:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]
    assert first["detail"]["accuracy"] == plain["detail"]["accuracy"]

    # the tracer put every patched name back
    stereo = sys.modules["stereowire.stereo"]
    assert stereo.eval_curve_many is sys.modules["stereowire.bspline"].eval_curve_many
    assert not hasattr(stereo.eval_curve_many, "__wrapped__")
    assert not hasattr(sys.modules["stereowire.cli"].main, "__wrapped__")


def test_traced_counts_see_the_layers(tmp_path):
    result = bw.run_workload("noisy_band", 0, 0, True, tmp_path, size=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["stereo.triangulate.points"] == 64  # --samples default
    assert m["stereo.match.epilines"] == m["cameras.epiline.calls"] == 64
    assert m["stereo.match.matched"] + m["stereo.match.gap_filled"] == 64
    assert m["metrics.frechet.cells"] == 64 * 64
    assert m["bspline.eval.params"] > 0 and m["rod.relax.iterations"] == 0


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_line_last(trace, tmp_path, monkeypatch, capsys):
    (tmp_path / "src").symlink_to(ROOT / "src")
    monkeypatch.chdir(tmp_path)
    argv = ["--workload", "synth_dataset", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
