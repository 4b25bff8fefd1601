"""The benchmark record that ``tools/record_bench.py`` writes, on stubbed runs."""

import importlib.util
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_the_record_holds_every_metric_of_every_workload(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts bench/ first
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
    record_bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record_bench)
    runs = []

    def run_once(workload, seed, seconds, trace):
        runs.append((workload, seed, seconds, trace))
        names = [metric["name"] for metric in CONTRACT["per_layer" if trace else "end_to_end"]]
        metrics = {name: {"value": float(len(runs) + seed), "unit": "s"} for name in names}
        return {"correct": True, "env": {"calib_ms": 20.0 + seed}, "samples": [], "metrics": metrics}

    monkeypatch.setattr(record_bench.prove, "run_once", run_once)
    out = tmp_path / "BENCH_1.json"
    assert record_bench.main([str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))

    workloads = [workload["name"] for workload in CONTRACT["workloads"]]
    seconds = CONTRACT["run_seconds"]
    assert runs == [(w, seed, seconds, 0) for seed in range(10) for w in workloads] + [(w, 0, seconds, 1) for w in workloads]
    assert set(record) == {"env", "openblas_core", "commit", "seeds", "run_seconds", "workloads"}
    assert record["env"] == {"calib_ms": 20.0} and record["seeds"] == list(range(10)) and record["run_seconds"] == seconds
    assert list(record["workloads"]) == workloads
    for entry in record["workloads"].values():
        assert entry["correct"] is True and entry["calib_ms"] == [20.0 + seed for seed in range(10)]
        assert list(entry["end_to_end"]) == [metric["name"] for metric in CONTRACT["end_to_end"]]
        for metric in entry["end_to_end"].values():
            assert len(metric["values"]) == 10 and metric["median"] == statistics.median(metric["values"])
            assert set(metric) == {"median", "spread", "unit", "values"}
        assert list(entry["per_layer_seed0"]) == [metric["name"] for metric in CONTRACT["per_layer"]]
