"""The comparison that ``tools/bench_pairs.py`` prints, on stubbed runs."""

import importlib.util
import json
import shutil
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _checkout(path: Path, side: str) -> Path:
    (path / "src" / "stalegrad").mkdir(parents=True)
    (path / "src" / "stalegrad" / "__init__.py").write_text(side, encoding="utf-8")
    (path / "bench").mkdir()
    (path / "bench" / "run.py").write_text("", encoding="utf-8")
    shutil.copy2(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


def _files(path: Path) -> dict:
    return {p.relative_to(path): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


def _stub_runs(monkeypatch, metrics):
    """Stub ``run_once`` with ``metrics(changed, seed)``; the list it fills holds each run's side and arguments."""
    runs = []

    def run_once(copy, workload, seed, seconds):
        side = (copy / "src" / "stalegrad" / "__init__.py").read_text(encoding="utf-8")
        runs.append((side, workload, seed, seconds))
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {name: {"value": value, "unit": ""} for name, value in metrics(side == "change", seed).items()}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return runs


def _rows(capsys) -> dict:
    return {line.split()[1]: line for line in capsys.readouterr().out.splitlines() if line.startswith("bias_run ")}


def test_pairs_alternate_and_each_metric_is_compared_with_its_bound(tmp_path, monkeypatch, capsys):
    parent, change = _checkout(tmp_path / "parent", "parent"), _checkout(tmp_path / "change", "change")
    before = _files(tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    runs = _stub_runs(monkeypatch, lambda changed, seed: {
        "wall_s": 2.0 if changed else 1.0,  # worse by 100%, beyond the bound
        "setup_s": 0.5,  # ties only
        "steps_per_s": 100.0 + seed + (changed and seed != 3),  # better in 9 pairs, a tie in one
        "peak_rss_mb": 40.0 + 0.01 * changed,  # worse within the bound
    })
    assert bench_pairs.main([str(parent), "--workload", "bias_run"]) == 1
    seconds = CONTRACT["run_seconds"]
    sides = [("parent", "change"), ("change", "parent")]
    assert runs == [(side, "bias_run", i, seconds) for i in range(10) for side in sides[i % 2]]
    assert _files(tmp_path) == before

    rows = _rows(capsys)
    q1, _, q3 = statistics.quantiles([100.0 + seed for seed in range(10)], n=4)
    assert rows["steps_per_s"].split()[2:] == [
        "parent=104.5", "change=105.5", "(+0.96%)", f"parent_q3-q1={q3 - q1:.6g}", f"({(q3 - q1) / 104.5:.1%})",
        "change_wins=9/10", "within", "bound", "0.25",
    ]
    assert "change_wins=0/10 WORSE bound 0.25" in rows["wall_s"]
    assert "change_wins=0/10 within bound 0.25" in rows["setup_s"]
    assert "change_wins=0/10 within bound 0.1" in rows["peak_rss_mb"]


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved(tmp_path, monkeypatch, capsys):
    """Half the parent's runs at twice the others' value: its quartile distance is 67% of its median."""
    parent, change = _checkout(tmp_path / "parent", "parent"), _checkout(tmp_path / "change", "change")
    monkeypatch.setattr(bench_pairs, "ROOT", change)
    _stub_runs(monkeypatch, lambda changed, seed: {
        "wall_s": 1.0,  # no spread: ties within the bound
        "setup_s": 0.1 * (1 + seed % 2) - 0.001 * changed,  # better in every pair, not than every parent run
        "steps_per_s": 300.0 if changed else 100.0 * (1 + seed % 2),  # better than every parent run
        "peak_rss_mb": 200.0 if changed else 40.0 * (1 + seed % 2),  # worse beyond the bound
    })
    assert bench_pairs.main([str(parent), "--workload", "bias_run"]) == 1
    rows = _rows(capsys)
    assert "parent_q3-q1=0 (0.0%) change_wins=0/10 within bound 0.25" in rows["wall_s"]
    assert "parent_q3-q1=0.1 (66.7%) change_wins=10/10 UNRESOLVED bound 0.25" in rows["setup_s"]
    assert "parent_q3-q1=100 (66.7%) change_wins=10/10 within bound 0.25" in rows["steps_per_s"]
    assert "parent_q3-q1=40 (66.7%) change_wins=0/10 WORSE bound 0.1" in rows["peak_rss_mb"]


def test_a_parent_without_the_package_is_refused(tmp_path, capsys):
    assert bench_pairs.main([str(tmp_path)]) == 2
    assert "no stalegrad package" in capsys.readouterr().err
