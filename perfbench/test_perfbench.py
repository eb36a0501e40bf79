"""Tests of the benchmark harness, on the tiny workload sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402

import effdiff  # noqa: E402
import effdiff.cli  # noqa: E402
import effdiff.pde  # noqa: E402
from effdiff.expr import EvalDomainError  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
_RUNS = {}


def bench(workload, trace, repeat=0, seed=3):
    """Last JSON line and full output of one tiny run (cached)."""
    key = (workload, trace, repeat, seed)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--scale", "tiny"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        _RUNS[key] = (json.loads(proc.stdout.splitlines()[-1]), proc.stdout)
    return _RUNS[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace, kind):
    result, text = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    for name in ("wall_s", "setup_s", "peak_rss_mb", "failed_frac"):
        assert name in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_traced_runs(workload):
    exact = ("expr.evaluate_calls", "geometry.frame_calls",
             "pde.stability_bound_calls", "brownian.walker_steps")
    first = bench(workload, 1, repeat=0)[0]["metrics"]
    second = bench(workload, 1, repeat=1)[0]["metrics"]
    counts = [(first[name]["value"], second[name]["value"]) for name in exact]
    assert all(a == b for a, b in counts), counts
    assert any(a > 0 for a, _ in counts)


def test_layer_self_times_add_up_to_the_command_time():
    metrics = bench("field", 1)[0]["metrics"]
    parts = sum(metrics[name]["value"] for name in spans.PARTITION)
    assert parts == pytest.approx(metrics["trace.command_s"]["value"], rel=1e-9)


def _run_field(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    configs, commands, check = worker.field(3, worker.SIZES["tiny"])
    for name, text in configs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    tally = worker.Tally()
    for label, argv in commands:
        worker.call_cli(effdiff.cli, argv, tally, label)
    worker.run_checks(check, "tiny", tally, {})
    assert tally.failed == 0 and tally.attempted == 4
    return check, tally


def test_corrupted_output_is_caught_and_counted(tmp_path, monkeypatch):
    check, tally = _run_field(tmp_path, monkeypatch)

    path = tmp_path / "radial.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    header = next(k for k, line in enumerate(lines) if line.startswith("x,"))
    col = lines[header].split(",").index("D11")
    row = lines[header + 1].split(",")
    row[col] = repr(float(row[col]) + 1e-9)
    lines[header + 1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    worker.run_checks(check, "tiny", tally, {})
    assert tally.failed == 1 and "D11 off by" in tally.problems[-1]

    snapshot = sorted(tmp_path.glob("snap_*.csv"))[-1]
    snapshot.write_text(snapshot.read_text(encoding="utf-8")[:300],
                        encoding="utf-8")
    worker.run_checks(check, "tiny", tally, {})
    assert tally.failed == 3   # the radial file is still corrupt
    assert "rows" in tally.problems[-1]


def test_unreadable_output_counts_as_a_failure(tmp_path, monkeypatch):
    check, tally = _run_field(tmp_path, monkeypatch)
    (tmp_path / "radial.csv").unlink()
    worker.run_checks(check, "tiny", tally, {})
    assert tally.failed == 1 and "FileNotFoundError" in tally.problems[-1]


def test_tracer_rebinds_by_name_and_restores():
    originals = {name: getattr(effdiff.cli, name) for name in
                 ("frame_from_gradients", "effective_tensor", "stability_bound",
                  "mc_projected_tensor", "quadrature_tensor", "main")}
    pde_originals = {name: getattr(effdiff.pde, name) for name in
                     ("frame_from_gradients", "effective_tensor", "to_cartesian")}
    evaluate = effdiff.evaluate
    tracer = spans.Tracer()
    tracer.begin("t")
    tracer.install()
    try:
        for name, fn in originals.items():
            assert getattr(effdiff.cli, name) is not fn
            assert getattr(effdiff.cli, name).__wrapped__ is fn
        for name, fn in pde_originals.items():
            assert getattr(effdiff.pde, name).__wrapped__ is fn
        tree = effdiff.parse("log(x)")
        assert effdiff.evaluate(tree, (2.0, 0.0)) == evaluate(tree, (2.0, 0.0))
        with pytest.raises(EvalDomainError, match="non-finite"):
            effdiff.evaluate(tree, (0.0, 0.0))
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(effdiff.cli, name) is fn
    for name, fn in pde_originals.items():
        assert getattr(effdiff.pde, name) is fn
    assert effdiff.evaluate is evaluate
    summary = tracer.pass_summary("t")
    assert summary["counts"]["expr.evaluate_calls"] == 1
    assert summary["counts"]["expr.evaluate.raised"] == 1
    assert tracer.names == ["expr.parse", "expr.evaluate", "expr.evaluate"]


def test_run_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "field", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_follows_its_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[kind]]
    assert len(names) == len(set(names))
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": max(
        m["bound"] for m in BENCH["end_to_end"])} in BENCH["end_to_end"]
    assert set(WORKLOADS) == set(worker.WORKLOADS)
